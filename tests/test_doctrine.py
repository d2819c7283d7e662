import dataclasses
import gc
import json
import random
import weakref

import pytest

from dialectica import cli, doctrine
from dialectica.doctrine import (
    AdjointFailure,
    AdjointMissing,
    AdjointWitness,
    ConcreteDoctrine,
    Doctrine,
    DoctrineDataError,
    HeytingTables,
    MaskFibre,
    PosetFibre,
    TabularDoctrine,
    adjoint_along,
    beck_chevalley,
    check_doctrine,
    doctrine_from_json,
    doctrine_to_json,
    f_times_id,
    kripke_doctrine,
    mor_from_key,
    mor_key,
    powerset_doctrine,
    quantifier_structure,
)
from dialectica.fincat import (
    DEFAULT_CAP,
    CapExceeded,
    FinMor,
    FinObj,
    enumerate_morphisms,
    fin_obj,
    identity,
    product,
    product_n,
    unit_obj,
)
from dialectica.posets import antichain_poset, chain_poset
from test_freeness import SMALL_FRAMES

POW = powerset_doctrine((2, 2))
CHAIN = kripke_doctrine(chain_poset(2), (2, 2))
ANTI = kripke_doctrine(antichain_poset(2), (2, 2))


class PerPredicate(ConcreteDoctrine):
    """A concrete doctrine whose whole-list decisions are the base class's
    bodies, which ask `reindex_el`, `exists_along` and `forall_along` one
    predicate at a time: the lane of a test that plants a defect in one
    of them, on a subclass or on the instance."""

    planes_along = Doctrine.planes_along
    table_pull = Doctrine.table_pull
    chain_values = Doctrine.chain_values
    reindex_table = Doctrine.reindex_table


class PerPair(MaskFibre):
    """A mask fibre whose order and ops on planes, and whose tables, are
    `PosetFibre`'s, which ask `leq`, `meet`, `join` and `imp` pair by
    pair: the lane of a test that plants a defect in one of them."""

    not_leq = PosetFibre.not_leq
    on_planes = PosetFibre.on_planes
    op_table = PosetFibre.op_table


def mask_of(D, obj, table):
    """Mask from {element: iterable of world labels}; element by label tuple."""
    worlds = list(D.frame.elements)
    m = 0
    for e, ws in table.items():
        key = e if isinstance(e, tuple) else (e,)
        ei = obj.elements.index(key)
        for w in ws:
            m |= 1 << (ei * D.nw + worlds.index(w))
    return m


class TestGenerators:
    def test_names(self):
        assert POW.name == "powerset-2x2"
        assert CHAIN.name == "kripke-chain2-2x2"
        assert ANTI.name == "kripke-antichain2-2x2"

    def test_universe(self):
        names = [o.name for o in POW.universe]
        assert names == ["1", "A", "B"]
        assert len(POW.universe[1]) == 2

    def test_fibre_sizes(self):
        A = POW.universe[1]
        assert len(POW.fibre(A).elements()) == 4
        assert len(CHAIN.fibre(A).elements()) == 9
        assert len(ANTI.fibre(A).elements()) == 16

    def test_chain_fibre_over_unit_is_three_chain(self):
        fib = CHAIN.fibre(CHAIN.universe[0])
        els = fib.elements()
        assert len(els) == 3
        assert all(fib.leq(a, b) or fib.leq(b, a) for a in els for b in els)
        assert {fib.describe(a) for a in els} == {"{}", "{*@w1}", "{*}"}

    def test_fibre_cap_message(self):
        big = product_n((CHAIN.universe[1],) * 3)[0]
        with pytest.raises(CapExceeded, match="6561"):
            CHAIN.fibre(big).elements()

    def test_singleton_frame_matches_powerset(self):
        single = kripke_doctrine(chain_poset(1), (2, 2))
        for pobj, kobj in zip(POW.universe, single.universe):
            pf, kf = POW.fibre(pobj), single.fibre(kobj)
            els = pf.elements()
            assert els == kf.elements()
            assert all(pf.leq(a, b) == kf.leq(a, b) for a in els for b in els)
        p = product(POW.universe[1], POW.universe[2])
        for alpha in POW.fibre(p.obj).elements():
            assert POW.exists_along(p.proj_left, alpha) == \
                single.exists_along(p.proj_left, alpha)
            assert POW.forall_along(p.proj_left, alpha) == \
                single.forall_along(p.proj_left, alpha)


class TestAdjointGoldens:
    def setup_method(self):
        self.A, self.B = POW.universe[1], POW.universe[2]
        self.p = product(self.A, self.B)

    def test_exists_projects_the_support(self):
        alpha = mask_of(POW, self.p.obj, {("a0", "b1"): ["w0"]})
        val = POW.exists_along(self.p.proj_left, alpha)
        assert val == mask_of(POW, self.A, {"a0": ["w0"]})

    def test_forall_needs_the_full_row(self):
        beta = mask_of(POW, self.p.obj, {("a0", "b0"): ["w0"], ("a0", "b1"): ["w0"]})
        assert POW.forall_along(self.p.proj_left, beta) == \
            mask_of(POW, self.A, {"a0": ["w0"]})
        partial = mask_of(POW, self.p.obj, {("a0", "b0"): ["w0"]})
        assert POW.forall_along(self.p.proj_left, partial) == 0

    def test_quantifiers_preserve_extremes(self):
        fib = POW.fibre(self.p.obj)
        assert POW.exists_along(self.p.proj_left, fib.top()) == \
            POW.fibre(self.A).top()
        assert POW.forall_along(self.p.proj_left, fib.bottom()) == 0


class TestAdjunctionLaws:
    @pytest.mark.parametrize("D", (POW, CHAIN, ANTI), ids=lambda d: d.name)
    def test_unit_and_counit(self, D):
        for a in D.universe:
            for b in D.universe:
                p = product(a, b)
                fib = D.fibre(p.obj)
                for alpha in fib.elements():
                    ex = D.exists_along(p.proj_left, alpha)
                    fa = D.forall_along(p.proj_left, alpha)
                    assert fib.leq(alpha, D.reindex_el(p.proj_left, ex))
                    assert fib.leq(D.reindex_el(p.proj_left, fa), alpha)

    @pytest.mark.parametrize("D", (POW, CHAIN, ANTI), ids=lambda d: d.name)
    def test_search_agrees_with_closed_form(self, D):
        projections = [proj for a in D.universe for b in D.universe
                       for proj in (D.product(a, b).proj_left, D.product(a, b).proj_right)]
        for direction in ("exists", "forall"):
            rep = quantifier_structure(D, direction)
            assert rep.passed
            assert all(isinstance(w, AdjointWitness) for w in rep.witnesses)
            assert [w.along for w in rep.witnesses] == [mor_key(p) for p in projections]
            for proj in projections:
                assert _monotone(D, proj, direction), (mor_key(proj), direction)

    @pytest.mark.parametrize("D", (POW, CHAIN, ANTI), ids=lambda d: d.name)
    def test_beck_chevalley(self, D):
        for direction in ("exists", "forall"):
            rep = beck_chevalley(D, direction)
            assert rep.passed and rep.squares > 0
        with pytest.raises(ValueError):
            beck_chevalley(D, "both")


def _monotone(D, f, direction):
    """Whether D's quantifier along f is monotone over every pair of
    predicates over f's domain."""
    dom, cod = D.fibre(f.dom), D.fibre(f.cod)
    els = dom.elements()
    along = D.along(direction, f)
    values = [along(a) for a in els]
    return all(cod.leq(values[i], values[j])
               for i, a in enumerate(els) for j, b in enumerate(els) if dom.leq(a, b))


def _index_table(D, f, direction):
    """D's quantifier values along f, over fibre indices."""
    dom, cod = D.fibre(f.dom), D.fibre(f.cod)
    along = D.exists_along if direction == "exists" else D.forall_along
    return {dom.index(a): cod.index(along(f, a)) for a in dom.elements()}


class TestQuantifierCrossCheck:
    """The closed-form quantifiers read each map's preimage lists, built
    once per map; they must equal the order search (the base class's
    quantifiers) on every map, however often a map is reused."""

    CARRIERS = (FinObj("0", (), arity=1), unit_obj(), fin_obj("A", ["a0", "a1"]),
                fin_obj("C", ["c0", "c1", "c2"]))

    def _random_maps(self, rng, count):
        maps = []
        while len(maps) < count:
            dom, cod = rng.choice(self.CARRIERS), rng.choice(self.CARRIERS)
            if len(cod) == 0 and len(dom) > 0:
                continue
            maps.append(FinMor(dom, cod, tuple(rng.choice(cod.elements) for _ in dom)))
        # a constant map misses codomain indices; the empty map misses all
        maps.append(FinMor(self.CARRIERS[3], self.CARRIERS[2], (("a1",),) * 3))
        maps.append(FinMor(self.CARRIERS[0], self.CARRIERS[3], ()))
        return maps

    @pytest.mark.parametrize("D", (POW, CHAIN, ANTI, kripke_doctrine(chain_poset(3), (2,))),
                             ids=lambda d: d.name)
    def test_closed_form_equals_the_search(self, D):
        rng = random.Random(f"quantify:{D.name}")
        maps = self._random_maps(rng, 40)
        assert any(set(f.idx) != set(range(len(f.cod))) for f in maps)
        assert any(not len(f.dom) and len(f.cod) for f in maps)
        for f in maps:
            els = D.fibre(f.dom).elements()
            for alpha in [rng.choice(els) for _ in range(6)]:
                assert D.exists_along(f, alpha) == Doctrine.exists_along(D, f, alpha)
                assert D.forall_along(f, alpha) == Doctrine.forall_along(D, f, alpha)

    @pytest.mark.parametrize("D", (POW, CHAIN, ANTI), ids=lambda d: d.name)
    def test_a_reused_map_answers_like_a_fresh_one(self, D):
        rng = random.Random(f"reuse:{D.name}")
        for f in self._random_maps(rng, 12):
            els = D.fibre(f.dom).elements()
            for alpha in [rng.choice(els) for _ in range(8)]:
                fresh = FinMor(f.dom, f.cod, f.table)
                assert D.exists_along(f, alpha) == D.exists_along(fresh, alpha)
                assert D.forall_along(f, alpha) == D.forall_along(fresh, alpha)
            assert f.preimages() is f.preimages()
            assert sorted(d for ds in f.preimages() for d in ds) == list(range(len(f.dom)))

    @pytest.mark.parametrize("D", (
        ConcreteDoctrine("chain2-over-1", chain_poset(2), (unit_obj(),)),
        ConcreteDoctrine("antichain2-over-1", antichain_poset(2), (unit_obj(),)),
        POW, CHAIN, ANTI), ids=lambda d: d.name)
    def test_adjoint_search_agrees_with_the_table_replay(self, D):
        data = doctrine_to_json(D)
        data.pop("generator", None)
        T = doctrine_from_json(data)
        assert T.kind == "tabular"
        for key in data["reindex"]:
            f = mor_from_key(key, {o.name: o for o in D.universe})
            for direction in ("exists", "forall"):
                got, want = adjoint_along(T, f, direction), adjoint_along(D, f, direction)
                assert isinstance(want, AdjointWitness)
                assert _index_table(T, f, direction) == _index_table(D, f, direction), \
                    (key, direction)
                assert got.pairs_checked == want.pairs_checked
                assert _monotone(T, f, direction) and _monotone(D, f, direction)
                assert want.pairs_checked == \
                    len(D.fibre(f.dom).elements()) * len(D.fibre(f.cod).elements())

    def test_table_replay_pulls_back_once_per_map(self, monkeypatch):
        """Both searches for all 16 predicates over A along one map A -> B
        reindex each of the 16 predicates over B once, and give the
        closed-form quantifiers."""
        data = doctrine_to_json(ANTI)
        del data["generator"]
        T = doctrine_from_json(data)
        objs = {o.name: o for o in ANTI.universe}
        f = next(mor_from_key(k, objs) for k in data["reindex"] if k.startswith("A->B#"))
        reindex, calls = T.reindex_el, []
        monkeypatch.setattr(T, "reindex_el", lambda g, b: calls.append(g) or reindex(g, b))
        dom, cod = ANTI.fibre(f.dom), ANTI.fibre(f.cod)
        assert len(dom.elements()) == len(cod.elements()) == 16
        for alpha in dom.elements():
            a = dom.index(alpha)
            assert T.exists_along(f, a) == cod.index(ANTI.exists_along(f, alpha))
            assert T.forall_along(f, a) == cod.index(ANTI.forall_along(f, alpha))
        assert calls == [f] * 16

    @pytest.mark.parametrize("direction", ("exists", "forall"))
    def test_adjoint_audit_shares_the_replays_pullbacks(self, monkeypatch, direction):
        """Certifying a replay's quantifier along one map A -> B reindexes
        each of the 4 predicates over B once: the law check and the
        replay's own search read the pullbacks through `T.along`."""
        data = doctrine_to_json(POW)
        del data["generator"]
        T = doctrine_from_json(data)
        objs = {o.name: o for o in POW.universe}
        f = next(mor_from_key(k, objs) for k in data["reindex"] if k.startswith("A->B#"))
        reindex, calls = T.reindex_el, []
        monkeypatch.setattr(T, "reindex_el", lambda g, b: calls.append(g) or reindex(g, b))
        assert len(T.fibre(f.cod).elements()) == 4
        assert isinstance(adjoint_along(T, f, direction), AdjointWitness)
        assert calls == [f] * 4


# Fresh doctrines, so that each test starts from an empty shared table.
FRESH = {
    "powerset-2x2": lambda: powerset_doctrine((2, 2)),
    "chain2": lambda: kripke_doctrine(chain_poset(2), (2, 2)),
    "antichain2": lambda: kripke_doctrine(antichain_poset(2), (2, 2)),
    "antichain3-1x2": lambda: kripke_doctrine(antichain_poset(3), (1, 2)),
}

# The method `D.along` asks for each op.
METHODS = {"reindex": "reindex_el", "exists": "exists_along", "forall": "forall_along"}


def _replay_data(D):
    """D's tables alone, with no generator."""
    data = doctrine_to_json(D)
    del data["generator"]
    return data


def _replay(D):
    """D replayed from its tables alone, with no generator."""
    return doctrine_from_json(_replay_data(D))


def _gap_doctrine():
    """Two flat 2-element fibres over 1 and A: along t: A -> 1 the
    predicate y has no least existential value.  Returns D and t."""
    A = fin_obj("A", ["a0", "a1"])
    one = unit_obj()
    flat_a = PosetFibre(A, ("x", "y"), [0b01, 0b10])
    flat_1 = PosetFibre(one, ("x", "y"), [0b01, 0b10])
    t = FinMor(A, one, ((), ()))
    D = TabularDoctrine("gap", (one, A), {A: flat_a, one: flat_1},
                        {identity(A): (0, 1), identity(one): (0, 1), t: (0, 0)})
    return D, t


class TestSharedTable:
    """The audits read a doctrine's pullbacks and quantifiers through
    `D.along`, which asks D's own methods once per (table key, predicate)
    and keeps the value on D for every later audit."""

    @pytest.mark.parametrize("make", [*FRESH.values(), lambda: _replay(ANTI)],
                             ids=[*FRESH, "antichain2-replay"])
    def test_the_view_answers_as_the_doctrine(self, make):
        """On a concrete doctrine: every map between universe objects and
        their binary products with a universe object at one end, and
        every f x id the Beck-Chevalley squares read, each value read,
        whether asked or shared with an earlier map of the same table,
        equals D's method on every predicate.  On the antichain2 replay:
        every recorded map, each value equal to antichain2's, compared by
        fibre index."""
        D = make()
        objs = D.universe
        if D.kind == "tabular":
            maps = [f for a in objs for b in objs for f in D.morphisms(a, b)]

            def want(op, f, i):
                src, dst = (f.cod, f.dom) if op == "reindex" else (f.dom, f.cod)
                value = getattr(ANTI, METHODS[op])(f, ANTI.fibre(src).elements()[i])
                return ANTI.fibre(dst).index(value)
        else:
            # each carrier once: 1*A has the elements of A
            carriers = list(dict.fromkeys(
                list(objs) + [D.product(a, b).obj for a in objs for b in objs]))
            maps = [f for x in carriers for y in carriers if x in objs or y in objs
                    for f in enumerate_morphisms(x, y, D.cap)]
            maps += [f_times_id(D, f, b) for a in objs for a2 in objs
                     for f in D.morphisms(a, a2) for b in objs]

            def want(op, f, alpha):
                return getattr(D, METHODS[op])(f, alpha)
        for f in maps:
            for op in METHODS:
                read = D.along(op, f)
                src = f.cod if op == "reindex" else f.dom
                assert all(read(x) == want(op, f, x) for x in D.fibre(src).elements()), \
                    (mor_key(f), op)
        if D.kind == "tabular":
            assert len(D._along) == 3 * len(maps)  # a replay keys by map
        else:
            assert len(D._along) < 3 * len(maps)  # maps with one table share

    def test_a_missing_value_is_kept_as_missing(self, monkeypatch):
        """A replay's `exists_along` with no value is asked once: every
        later read, through the same reader or a new one, raises again."""
        D, t = _gap_doctrine()
        exists, asked = D.exists_along, []
        monkeypatch.setattr(D, "exists_along",
                            lambda f, alpha: asked.append((f, alpha)) or exists(f, alpha))
        read = D.along("exists", t)
        for reader in (read, read, D.along("exists", t)):
            with pytest.raises(AdjointMissing, match="no exists value along A->1#0"):
                reader(1)
        assert asked == [(t, 1)]

    def test_a_wrong_pullback_on_one_map_is_caught(self):
        """A pullback wrong along one map A -> B of powerset-2x3 is caught
        by the law audit and by Beck-Chevalley, both reading the shared
        table.  No other map between the audited carriers has its index
        table, which is what the table is keyed by."""
        class OneWrongMap(PerPredicate):
            def reindex_el(self, f, alpha):
                value = super().reindex_el(f, alpha)
                return value ^ 1 if f.idx == (0, 2) and len(f.cod) == 3 else value

        P = powerset_doctrine((2, 3))
        D = OneWrongMap("one-wrong-map", P.frame, P.universe)
        bad = mor_key(FinMor(D.universe[1], D.universe[2], idx=(0, 2)))
        rep = check_doctrine(D)
        assert f"reindex along {bad} moves top" in rep.violations
        assert all(bad in v or "functoriality" in v for v in rep.violations)
        for direction in ("exists", "forall"):
            bc = beck_chevalley(D, direction)
            assert bc.equality_failures
            assert all(f"along {bad} x " in v for v in bc.equality_failures)
        assert check_doctrine(P).passed and beck_chevalley(P, "exists").passed

    def test_a_finished_audit_leaves_no_cycle(self):
        """No reader of `D.along` is kept on D, and the kept law verdicts
        are plain tuples, so a finished doctrine is freed by reference
        counting alone."""
        D = powerset_doctrine((2, 2))
        gc.disable()
        try:
            check_doctrine(D)
            quantifier_structure(D, "exists")
            quantifier_structure(D, "forall")
            assert D._passed

            def plain(x):
                if isinstance(x, tuple):
                    return all(map(plain, x))
                return isinstance(x, (int, str, bool))
            assert all(plain(k) and plain(v) for k, v in D._passed.items())
            ref = weakref.ref(D)
            del D
            assert ref() is None
        finally:
            gc.enable()

    def test_each_pullback_is_asked_once_per_table(self, monkeypatch):
        """The base class's `planes_along` (`PerPredicate`) reads every
        predicate through `D.along`: both directions of the quantifier
        audit on powerset-2x2 then ask a `reindex_el` set on the
        instance once per distinct (index table, codomain size,
        predicate), across the adjunction laws and every Beck-Chevalley
        square of both directions, each f x id included.  (100 while
        squares were derived by pasting, which read no f x id of a
        derived square.)"""
        P = powerset_doctrine((2, 2))
        D = PerPredicate(P.name, P.frame, P.universe, P.cap, P.generator)
        asked = []
        monkeypatch.setattr(D, "reindex_el", lambda f, alpha: asked.append(
            (f.idx, len(f.cod), alpha)) or ConcreteDoctrine.reindex_el(D, f, alpha))
        assert quantifier_structure(D, "exists").passed
        assert quantifier_structure(D, "forall").passed
        assert len(asked) == len(set(asked)) == 132

    @pytest.mark.parametrize("make", FRESH.values(), ids=FRESH)
    def test_planes_answer_as_the_base_body(self, make):
        """`ConcreteDoctrine.planes_along` (the plane kernels) gives the
        planes and stops of `Doctrine.planes_along` (each predicate read
        through `D.along`) for every op along every map between universe
        objects and along each projection, and for the pullback along
        each f x id, the one op `beck_chevalley` reads along it, on every
        predicate and on a seeded sublist."""
        D = make()
        rng = random.Random(f"planes:{D.name}")
        objs = D.universe
        cases = [(op, f, None) for a in objs for b in objs for f in D.morphisms(a, b)
                 for op in METHODS]
        cases += [(op, proj, None) for a in objs for b in objs for op in ("exists", "forall")
                  for proj in (D.product(a, b).proj_left, D.product(a, b).proj_right)]
        cases += [("reindex", f, b) for a in objs for a2 in objs for f in D.morphisms(a, a2)
                  for b in objs]
        for op, f, b in cases:
            src = f.cod if op == "reindex" else f.dom
            src = src if b is None else D.product(src, b).obj
            els = list(D.fibre(src).elements())
            for preds in (els, rng.sample(els, min(len(els), 5)), []):
                args = (op, f, D.fibre(src).planes(preds), len(preds), b)
                got, want = D.planes_along(*args), Doctrine.planes_along(D, *args)
                assert want[1] is None
                if preds:
                    assert got == want, (mor_key(f), op)
                else:  # no predicate: both are planes of nothing
                    assert not any(got[0]) and got[1] is None and want[0] == []


class Unshared(ConcreteDoctrine):
    """A concrete doctrine whose kept values and verdicts are keyed by
    map and by named carrier, so every audit scans each map itself."""

    def _table_key(self, f):
        return f

    def _carrier_key(self, obj):
        return Doctrine._carrier_key(self, obj)


def _unshared(D, cls=Unshared):
    return cls(D.name, D.frame, D.universe, D.cap, D.generator)


def _projections(D):
    return [proj for a in D.universe for b in D.universe
            for proj in (D.product(a, b).proj_left, D.product(a, b).proj_right)]


def _audits(D):
    """Every law audit's report over D, in the order `doctrine check`
    runs them, then the adjunction law on every projection."""
    out = [check_doctrine(D), quantifier_structure(D, "exists"),
           quantifier_structure(D, "forall")]
    return out + [adjoint_along(D, proj, direction) for proj in _projections(D)
                  for direction in ("exists", "forall")]


SHARED_VERDICTS = {
    **FRESH,
    "powerset-2x3": lambda: powerset_doctrine((2, 3)),
    "chain3": lambda: kripke_doctrine(chain_poset(3)),
}


class TestSharedVerdicts:
    """The law audits keep each passing verdict on D once per index
    table (`D._passed`); a failure is scanned and named per map."""

    @pytest.mark.parametrize("make", SHARED_VERDICTS.values(), ids=SHARED_VERDICTS)
    def test_shared_verdicts_give_the_per_map_reports(self, make):
        D = make()
        assert _audits(D) == _audits(_unshared(D))

    def test_verdicts_are_shared_across_maps(self):
        """On powerset-2x2, 18 projections have 5 index tables, and the
        Beck-Chevalley squares of one direction have 16 verdicts."""
        D = powerset_doctrine((2, 2))
        quantifier_structure(D, "exists")
        kinds = [key[0] for key in D._passed]
        assert kinds.count("adjoint") == 5 and kinds.count("bc") == 16
        assert quantifier_structure(D, "exists") == quantifier_structure(_unshared(D), "exists")

    def test_a_kept_square_builds_no_f_times_id(self, monkeypatch):
        """On antichain2 the 69 squares of each direction have 16
        verdicts (8 table keys of f, 2 sizes of B), and each is scanned
        once: its f x id pullback is asked once, and a kept verdict is
        read before it.  A concrete doctrine gathers along the table of
        f x id from its arithmetic, so no f x id map is built.  (While
        squares were derived, 12 of each direction's 16 were scanned,
        each building its f x id.)"""
        D = kripke_doctrine(antichain_poset(2), (2, 2))
        built, scanned = [], []
        monkeypatch.setattr(doctrine, "f_times_id",
                            lambda *args: built.append(args) or f_times_id(*args))
        _count_squares(monkeypatch, D, scanned)
        reps = [beck_chevalley(D, direction) for direction in ("exists", "forall")]
        assert [(rep.passed, rep.squares) for rep in reps] == [(True, 69)] * 2
        assert (len(scanned), len(set(scanned)), built) == (32, 16, [])

    def test_a_wrong_closed_form_fails_as_per_map(self):
        class TopExists(PerPredicate):
            def exists_along(self, f, alpha):
                return self.fibre(f.cod).top()

        class TopExistsUnshared(Unshared, TopExists):
            pass

        D = TopExists("top-exists", POW.frame, POW.universe)
        got, want = _audits(D), _audits(_unshared(D, TopExistsUnshared))
        assert got == want
        assert not got[1].passed and len(got[1].failures) == 18

    def test_a_wrong_pullback_is_named_for_every_map_of_its_table(self):
        """A pullback wrong along the index table ((0, 0), 2), the table of
        the four constant maps to the first element between A and B, is
        named for each of the four, by the reindexing laws and by the
        Beck-Chevalley equality of both directions."""
        class WrongTable(PerPredicate):
            def reindex_el(self, f, alpha):
                value = super().reindex_el(f, alpha)
                return value ^ 1 if f.idx == (0, 0) and len(f.cod) == 2 else value

        class WrongTableUnshared(Unshared, WrongTable):
            pass

        D = WrongTable("wrong-table", POW.frame, POW.universe)
        shared = [f for a in D.universe[1:] for b in D.universe[1:]
                  for f in D.morphisms(a, b) if f.idx == (0, 0)]
        assert [mor_key(f) for f in shared] == ["A->A#0", "A->B#0", "B->A#0", "B->B#0"]
        got = _audits(D)
        assert got == _audits(_unshared(D, WrongTableUnshared))
        laws, structures = got[0], got[1:3]
        for f in shared:
            assert f"reindex along {mor_key(f)} moves top" in laws.violations
            for rep in structures:
                assert any(f"along {mor_key(f)} x " in v for v in rep.bc.equality_failures)


def _count_squares(monkeypatch, D, scanned):
    """Append (table key of f, carrier key of B) to ``scanned`` for each
    pullback along an f x id_B that D's audits ask for: one per scanned
    square."""
    planes_along = D.planes_along

    def counting(op, f, planes, count, b=None):
        if b is not None:
            scanned.append((D._table_key(f), D._carrier_key(b)))
        return planes_along(op, f, planes, count, b)
    monkeypatch.setattr(D, "planes_along", counting)


SQUARES = {
    **{name: FRESH[name] for name in ("powerset-2x2", "chain2", "antichain2")},
    "powerset-2x3": lambda: powerset_doctrine((2, 3)),
    "powerset-1x2x3": lambda: powerset_doctrine((1, 2, 3)),
    "antichain3-1x2": FRESH["antichain3-1x2"],
    "chain2-2x3": lambda: kripke_doctrine(chain_poset(2), (2, 3)),  # over the cap
}


def _bc_reports(D):
    return [beck_chevalley(D, direction) for direction in ("exists", "forall")]


def _bc_outcomes(D):
    """`_bc_reports`, with the message of a cap overrun in place of a report."""
    out = []
    for direction in ("exists", "forall"):
        try:
            out.append(beck_chevalley(D, direction))
        except CapExceeded as exc:
            out.append(str(exc))
    return out


def _wrong_along(*tables):
    """A powerset-2x3 whose pullback is wrong along each index table in
    ``tables`` (as ``(idx, codomain size)``), and its per-map twin."""
    class WrongAlong(PerPredicate):
        def reindex_el(self, f, alpha):
            value = super().reindex_el(f, alpha)
            return value ^ 1 if (f.idx, len(f.cod)) in tables else value

    class WrongAlongUnshared(Unshared, WrongAlong):
        pass

    P = powerset_doctrine((2, 3))
    return (WrongAlong(P.name, P.frame, P.universe),
            WrongAlongUnshared(P.name, P.frame, P.universe))


def _times_id_table(D, key, b):
    """The table key of f x id_b, for the map f named by ``key``."""
    f_x_b = f_times_id(D, mor_from_key(key, {o.name: o for o in D.universe}), b)
    return f_x_b.idx, len(f_x_b.cod)


class TestSquareScan:
    """`beck_chevalley` scans every square whose verdict is not kept, on
    every sampled predicate, and derives none; the per-map twin keeps no
    verdict across maps, so it scans every square of every map."""

    @pytest.mark.parametrize("name", SQUARES)
    def test_reports_equal_the_per_map_scan(self, name):
        """Every report is the per-map twin's; on chain2-2x3, whose fibre
        over B*B overruns the cap, both raise the same CapExceeded in
        both directions."""
        D = SQUARES[name]()
        got = _bc_outcomes(D)
        assert got == _bc_outcomes(_unshared(D))
        overrun = "fibre over B*B has 19683 predicates; cap 4096"
        assert (got == [overrun] * 2) == (name == "chain2-2x3")

    def test_powerset_2x3_scans_every_square(self, monkeypatch):
        """powerset-2x3 has 56 maps between its universe objects, each
        with its own index table, and three sizes of B: each of the 336
        squares of both directions is scanned once, with no f x id map
        built.  (114 while squares were derived by pasting from the 19
        tables that are not composites of tables met before them.)"""
        D = powerset_doctrine((2, 3))
        built, scanned = [], []
        monkeypatch.setattr(doctrine, "f_times_id",
                            lambda *args: built.append(args) or f_times_id(*args))
        _count_squares(monkeypatch, D, scanned)
        reps = _bc_reports(D)
        assert [(rep.passed, rep.squares) for rep in reps] == [(True, 168)] * 2
        assert (len(scanned), len(set(scanned)), built) == (336, 168, [])

    @pytest.mark.parametrize("bound", ["PAIR_SAMPLE", "PRED_SAMPLE"])
    def test_a_sampled_audit_scans_every_square(self, monkeypatch, bound):
        """With the reindexing pairs, or the predicates per square,
        sampled down to one, every square of powerset-2x2 is still
        scanned, after `check_doctrine` as before it, and the reports are
        the per-map twin's."""
        monkeypatch.setattr(doctrine, bound, 1)
        D = powerset_doctrine((2, 2))
        check_doctrine(D)
        scanned = []
        _count_squares(monkeypatch, D, scanned)
        reps = _bc_reports(D)
        assert len(scanned) == 32
        assert reps == _bc_reports(_unshared(D))

    def test_defects_on_two_squares_are_listed_as_the_scan_lists_them(self):
        """Pullbacks wrong along B->B#11 x id_B and along B->B#21 x id_A
        are both listed, in both directions, as the per-map twin lists
        them."""
        P = powerset_doctrine((2, 3))
        _, A, B = P.universe
        D, scan = _wrong_along(_times_id_table(P, "B->B#11", B),
                               _times_id_table(P, "B->B#21", A))
        got = _bc_reports(D)
        assert got == _bc_reports(scan)
        for rep in got:
            assert {v.split(" differs")[0].split(" along ")[1]
                    for v in rep.equality_failures} == {"B->B#11 x B", "B->B#21 x A"}

    def test_a_defect_only_on_one_f_times_id_is_caught(self):
        """A pullback wrong only along B->B#21 x id_A, whose table is the
        composite of those of B->B#15 and B->B#7, fails the square of
        B->B#21 with A in both directions, with the equality failures of
        the per-map twin.  (Pasting passed it: it derived that square
        from the squares of the two factors and read no f x id.)"""
        P = powerset_doctrine((2, 3))
        objs = {o.name: o for o in P.universe}
        h, g, f = (mor_from_key(k, objs) for k in ("B->B#15", "B->B#7", "B->B#21"))
        assert tuple(g.idx[v] for v in h.idx) == f.idx
        D, scan = _wrong_along(_times_id_table(P, "B->B#21", objs["A"]))
        for got, want in zip(_bc_reports(D), _bc_reports(scan)):
            assert got == want and not got.passed
            assert got.equality_failures
            assert all(" along B->B#21 x A " in v for v in got.equality_failures)


class TestHeyting:
    @pytest.mark.parametrize("D", (POW, CHAIN, ANTI), ids=lambda d: d.name)
    def test_residuation_exhaustive(self, D):
        fib = D.fibre(D.universe[1])
        els = fib.elements()
        for a in els:
            for b in els:
                for c in els:
                    assert fib.leq(fib.meet(a, b), c) == fib.leq(a, fib.imp(b, c))

    def test_kripke_implication_is_not_boolean(self):
        fib = CHAIN.fibre(CHAIN.universe[0])
        bot, top = fib.bottom(), fib.top()
        mid = next(a for a in fib.elements() if a not in (bot, top))
        assert fib.imp(fib.imp(mid, bot), bot) != mid

    @pytest.mark.parametrize("D", (POW, CHAIN, ANTI), ids=lambda d: d.name)
    def test_laws_audit_passes(self, D):
        rep = check_doctrine(D)
        assert rep.passed, rep.violations
        assert rep.counts["fibres"] == 3


class TestMorphismKeys:
    def test_round_trip(self):
        objs = {o.name: o for o in POW.universe}
        A, B = objs["A"], objs["B"]
        for f in POW.morphisms(A, B):
            assert mor_from_key(mor_key(f), objs) == f

    def test_malformed_keys_rejected(self):
        objs = {o.name: o for o in POW.universe}
        for bad in ("A-B#0", "A->Z#0", "A->B#99", "A->B#x"):
            with pytest.raises(DoctrineDataError):
                mor_from_key(bad, objs)

    @pytest.mark.parametrize("key", ["A->B#01", "A->B#+1", "A->B# 1", "A->B#1_0"])
    def test_other_spellings_of_an_index_rejected(self, key):
        """A replay's reindex keys each name their own morphism: a second
        spelling of `A->B#1` would silently replace its table."""
        with pytest.raises(DoctrineDataError, match="malformed morphism key"):
            mor_from_key(key, {o.name: o for o in POW.universe})

    @pytest.mark.parametrize("name", ["A->B", "B#1"])
    def test_object_names_with_key_separators_rejected(self, name):
        """A key splits at its first `->` and last `#`: over objects A, A->B,
        B and B->B, `A->B->B#0` reads as a map A -> B->B, so a table for a
        map out of A->B could never be recorded or loaded."""
        objs = {n: FinObj(n, [("x",)]) for n in ("A", "A->B", "B", "B->B")}
        assert mor_from_key("A->B->B#0", objs).dom.name == "A"
        data = {"universe": [{"name": n, "elements": [["x"]]} for n in ("A", name, "B")]}
        with pytest.raises(DoctrineDataError,
                           match=r"universe\[1\]\.name: '.*' contains '->' or '#'"):
            doctrine_from_json(data)

    def test_f_times_id(self):
        A, B = POW.universe[1], POW.universe[2]
        swap = FinMor(A, A, (("a1",), ("a0",)))
        g = f_times_id(POW, swap, B)
        assert g(("a0", "b1")) == ("a1", "b1")


class TestProductTable:
    def test_a_product_is_built_once(self):
        D = powerset_doctrine((2, 2))
        A, B = D.universe[1], D.universe[2]
        p = D.product(A, B)
        assert p is D.product(A, B)
        assert p == product(A, B)
        assert D.product(p.obj, A) is D.product(p.obj, A)
        assert D.product(p.obj, A).obj == product_n((A, B, A))[0]

    def test_a_kept_projection_keeps_its_preimages(self):
        D = powerset_doctrine((2, 2))
        A, B = D.universe[1], D.universe[2]
        fibs = D.product(A, B).proj_left.preimages()
        assert D.product(A, B).proj_left.preimages() is fibs

    def test_names_are_part_of_the_key(self):
        D = powerset_doctrine((2, 2))
        A, B = D.universe[1], D.universe[2]
        Z = FinObj("Z", A.elements)
        assert Z == A
        assert D.product(A, B).obj.name == "A*B"
        assert D.product(Z, B).obj.name == "Z*B"
        assert D.product(Z, B) is not D.product(A, B)
        assert D.product(D.product(Z, B).obj, A).obj.name == "Z*B*A"
        assert D.product(D.product(A, B).obj, A).obj.name == "A*B*A"

    def test_cap_overrun_is_raised_and_not_kept(self):
        D = powerset_doctrine((2, 2), cap=3)
        A, B = D.universe[1], D.universe[2]
        for _ in range(2):
            with pytest.raises(CapExceeded, match=r"^product A\*B has 4 elements; cap 3$"):
                D.product(A, B)
        D.cap = 4
        assert len(D.product(A, B).obj) == 4

    @pytest.mark.parametrize("generator", [True, False], ids=["generator", "table-replay"])
    def test_a_doctrine_loaded_at_a_small_cap_raises(self, generator):
        data = doctrine_to_json(CHAIN)
        if not generator:
            del data["generator"]
        D = doctrine_from_json(data, cap=3)
        A, B = D.universe[1], D.universe[2]
        with pytest.raises(CapExceeded):
            D.product(A, B)
        assert D.product(D.universe[0], A).obj.name == "1*A"


def _diamond_fibre(obj):
    up = [0b1111, 0b1010, 0b1100, 0b1000]
    meet = tuple(tuple(i & j for j in range(4)) for i in range(4))
    join = tuple(tuple(i | j for j in range(4)) for i in range(4))
    imp = tuple(tuple((~i | j) & 3 for j in range(4)) for i in range(4))
    tables = HeytingTables(3, 0, meet, join, imp)
    return PosetFibre(obj, ("{}", "{a0}", "{a1}", "{a0, a1}"), up, tables)


def _tiny_tabular(identity_table=(0, 1, 2, 3), swap_table=(0, 2, 1, 3)):
    A = fin_obj("A", ["a0", "a1"])
    swap = FinMor(A, A, (("a1",), ("a0",)))
    fibres = {A: _diamond_fibre(A)}
    reindex = {identity(A): tuple(identity_table), swap: tuple(swap_table)}
    return TabularDoctrine("tiny", (A,), fibres, reindex), A, swap


class TestPlantedDefects:
    def test_clean_tabular_passes(self):
        D, _, _ = _tiny_tabular()
        rep = check_doctrine(D)
        assert rep.passed, rep.violations

    def test_identity_defect_is_named(self):
        D, _, _ = _tiny_tabular(identity_table=(0, 2, 1, 3))
        rep = check_doctrine(D)
        assert not rep.passed
        assert any("identity reindex moves" in v for v in rep.violations)

    def test_functoriality_defect_is_named(self):
        D, _, _ = _tiny_tabular(swap_table=(0, 2, 1, 0))
        rep = check_doctrine(D)
        assert not rep.passed
        assert any("functoriality fails" in v for v in rep.violations)

    def test_each_unrecorded_composite_is_noted_and_not_counted(self):
        """On the powerset-2x2 replay without the table of A->A#0, each of
        the 8 composable pairs of recorded maps that composes to A->A#0 is
        noted, and every other composable pair is checked and counted."""
        data = doctrine_to_json(POW)
        del data["generator"]
        full = check_doctrine(doctrine_from_json(data))
        assert (full.passed, full.counts["compositions"], full.notes) == (True, 195, [])
        del data["reindex"]["A->A#0"]
        T = doctrine_from_json(data)
        rep = check_doctrine(T)
        maps = [f for a in T.universe for b in T.universe for f in T.morphisms(a, b)]
        composable = sum(f.cod == g.dom for f in maps for g in maps)
        skipped = [n for n in rep.notes if n.startswith("composite ")]
        assert rep.passed and len(skipped) == len(set(skipped)) == 8
        assert rep.counts["compositions"] + len(skipped) == composable == 177
        objs = {o.name: o for o in T.universe}
        for note in skipped:
            g, _, f = note.removeprefix("composite ").removesuffix(" not recorded; skipped") \
                .partition(" after ")
            f, g = mor_from_key(f, objs), mor_from_key(g, objs)
            assert mor_key(FinMor(f.dom, g.cod, idx=[g.idx[v] for v in f.idx])) == "A->A#0"

    def test_each_square_over_an_unrecorded_carrier_is_skipped_per_map(self):
        """On the same replay no fibre over a product of A or B with A or
        B is recorded, so each direction notes the 38 squares over such a
        product once per (B, A1, A2), in 12 notes that name no map, and
        the 4 whose f x id has no table once per map; the other 28 are
        counted."""
        data = doctrine_to_json(POW)
        del data["generator"]
        del data["reindex"]["A->A#0"]
        T = doctrine_from_json(data)
        for direction in ("exists", "forall"):
            rep = beck_chevalley(T, direction)
            carriers = [s for s in rep.skipped if s.startswith("square over ")]
            assert (rep.squares, len(rep.skipped), len(carriers)) == (28, 16, 12)
            assert len(set(rep.skipped)) == 16
            assert carriers.count("square over A -> A with A: no fibre recorded over A*A") == 1
            assert [s for s in rep.skipped if not s.startswith("square over ")] == [
                "A->1#0 x A: no reindex table for A*A->1*A#5",
                "B->1#0 x A: no reindex table for B*A->1*A#5",
                "A->1#0 x B: no reindex table for A*B->1*B#5",
                "B->1#0 x B: no reindex table for B*B->1*B#5"]

    def test_missing_adjoint_is_reported(self):
        D, t = _gap_doctrine()
        with pytest.raises(AdjointMissing):
            D.exists_along(t, 1)
        res = adjoint_along(D, t, "exists")
        assert isinstance(res, AdjointFailure)
        assert "no exists value" in res.reason

    def test_a_wrong_closed_form_breaks_the_law(self):
        class TopExists(PerPredicate):
            def exists_along(self, f, alpha):
                return self.fibre(f.cod).top()

        D = TopExists("top-exists", POW.frame, POW.universe)
        p = D.product(D.universe[1], D.universe[2])
        res = adjoint_along(D, p.proj_left, "exists")
        assert isinstance(res, AdjointFailure)
        assert res.reason.startswith("adjunction law fails against")
        assert not quantifier_structure(D, "exists").passed

    def test_each_violation_is_listed_once_in_any_universe_order(self):
        """Over 1 and A, two 3-chains x < y < z whose meet is always the
        bottom break the same lattice laws several times over."""
        one, A = unit_obj(), fin_obj("A", ["a0", "a1"])
        chain = range(3)
        tables = HeytingTables(
            top=2, bottom=0, meet=((0,) * 3,) * 3,
            join=tuple(tuple(max(a, b) for b in chain) for a in chain),
            imp=tuple(tuple(2 if a <= b else b for b in chain) for a in chain))
        fibres = {obj: PosetFibre(obj, ("x", "y", "z"), [0b111, 0b110, 0b100], tables)
                  for obj in (one, A)}
        reports = [check_doctrine(TabularDoctrine("bottom-meet", universe, fibres, {}))
                   for universe in ((one, A), (A, one))]
        for rep in reports:
            assert len(rep.violations) == len(set(rep.violations)), rep.violations
            assert "A: meet(z, z) is not greatest" in rep.violations
            assert "1: meet(z, z) is not greatest" in rep.violations
        assert set(reports[0].violations) == set(reports[1].violations)


class TestJsonRoundTrip:
    @pytest.mark.parametrize("D", (POW, CHAIN, ANTI), ids=lambda d: d.name)
    def test_generator_route(self, D):
        back = doctrine_from_json(doctrine_to_json(D))
        assert isinstance(back, ConcreteDoctrine)
        assert back.name == D.name
        for o1, o2 in zip(D.universe, back.universe):
            assert o1.elements == o2.elements
            f1, f2 = D.fibre(o1), D.fibre(o2)
            assert f1.elements() == f2.elements()

    def test_tabular_route_replays_the_tables(self):
        data = doctrine_to_json(POW)
        del data["generator"]
        T = doctrine_from_json(data)
        assert isinstance(T, TabularDoctrine)
        one, A = T.universe[0], T.universe[1]
        t = FinMor(A, one, ((), ()))
        concrete_fib = POW.fibre(POW.universe[1])
        for alpha in concrete_fib.elements():
            i = concrete_fib.index(alpha)
            ex = T.exists_along(t, i)
            fa = T.forall_along(t, i)
            pfib = POW.fibre(POW.universe[0])
            assert ex == pfib.index(POW.exists_along(t, alpha))
            assert fa == pfib.index(POW.forall_along(t, alpha))

    def test_tabular_heyting_survives(self):
        data = doctrine_to_json(CHAIN)
        del data["generator"]
        T = doctrine_from_json(data)
        fib = T.fibre(T.universe[1])
        els = fib.elements()
        for a in els:
            for b in els:
                for c in els:
                    assert fib.leq(fib.meet(a, b), c) == fib.leq(a, fib.imp(b, c))

    def test_generator_universe_mismatch_rejected(self):
        data = doctrine_to_json(POW)
        data["universe"][1]["elements"] = [["a0"]]
        with pytest.raises(DoctrineDataError, match="does not match"):
            doctrine_from_json(data)

    def test_generator_file_tables_must_match(self):
        """A generator file's recorded tables are checked, not ignored:
        the first mismatching section and key is named."""
        data = doctrine_to_json(POW)
        data["fibres"]["1"]["leq"] = [[1, 1], [1, 1]]
        data["reindex"] = {"bogus": 5}
        with pytest.raises(DoctrineDataError,
                           match="reindex.bogus: expected an array, got 5"):
            doctrine_from_json(data)
        del data["fibres"]
        with pytest.raises(DoctrineDataError, match="reindex.bogus: expected an array, got 5"):
            doctrine_from_json(data)

    def test_well_shaped_tables_are_matched_section_by_section(self):
        """Once the shape holds, the first mismatching section and key is
        named: fibres before reindexing tables."""
        data = doctrine_to_json(POW)
        data["fibres"]["1"]["leq"] = [[1, 1], [1, 1]]
        data["reindex"] = {"bogus": [5]}
        with pytest.raises(DoctrineDataError,
                           match="recorded fibres '1' does not match the generator"):
            doctrine_from_json(data)
        del data["fibres"]
        with pytest.raises(DoctrineDataError, match="recorded reindex 'bogus'"):
            doctrine_from_json(data)

    @pytest.mark.parametrize("section,key", [
        ("frame", "pairs"), ("universe", "A"), ("heyting", "A"), ("reindex", "A->1#0")])
    def test_each_recorded_section_is_checked(self, section, key):
        data = doctrine_to_json(CHAIN)
        if section == "universe":
            data["universe"][1]["elements"] = [["x"], ["y"]]
        elif section == "heyting":
            data["heyting"]["A"]["top"] = 0
        elif section == "reindex":
            data["reindex"]["A->1#0"] = [0, 0, 0]
        else:
            data["frame"]["pairs"] = data["frame"]["pairs"][:-1]
        with pytest.raises(DoctrineDataError, match=f"recorded {section} '{key}'"):
            doctrine_from_json(data)

    def test_generator_only_file_loads(self):
        data = {"name": "gen-only", "generator": {"kind": "powerset", "sizes": [2, 2]}}
        D = doctrine_from_json(data)
        assert isinstance(D, ConcreteDoctrine)
        assert [len(o) for o in D.universe] == [1, 2, 2]

    @pytest.mark.parametrize("key,value,message", [
        ("kind", "tabulated", "unknown doctrine kind 'tabulated'"),
        ("kind", 5, "kind: expected a string, got 5"),
        ("kind", "tabular", "a tabular doctrine records no generator"),
        ("notes", "a note", 'notes: expected an array, got "a note"'),
        ("notes", ["a note", 5], r"notes\[1\]: expected a string, got 5"),
    ], ids=["unknown-kind", "kind-not-a-string", "tabular-with-generator",
            "notes-not-a-list", "note-not-a-string"])
    def test_kind_and_notes_are_checked(self, key, value, message):
        data = doctrine_to_json(POW)
        data[key] = value
        with pytest.raises(DoctrineDataError, match=message):
            doctrine_from_json(data)

    def test_kind_and_notes_that_fit_load(self):
        data = doctrine_to_json(POW)
        data["notes"] = ["written by hand"]
        assert isinstance(doctrine_from_json(data), ConcreteDoctrine)
        del data["generator"]
        assert data["kind"] == "concrete"
        assert isinstance(doctrine_from_json(data), TabularDoctrine)
        data["kind"] = "tabular"
        assert isinstance(doctrine_from_json(data), TabularDoctrine)
        del data["kind"]
        assert isinstance(doctrine_from_json(data), TabularDoctrine)

    def test_small_cap_loads_a_stock_file(self):
        D = doctrine_from_json(doctrine_to_json(POW), cap=3)
        assert D.cap == 3

    # The order over A on the powerset-2x2 replay is the diamond
    # 0 < 1, 2 < 3; each edit breaks one partial-order law.
    @pytest.mark.parametrize("cell,bit,reason", [
        ((3, 3), 0, "not reflexive at 3"),
        ((3, 0), 1, "antisymmetry fails on 0, 3"),
        ((0, 3), 0, "transitivity fails through 0 <= 1"),
    ], ids=["reflexivity", "antisymmetry", "transitivity"])
    def test_a_recorded_order_that_is_no_partial_order_is_rejected(self, cell, bit, reason):
        data = _replay_data(POW)
        leq = data["fibres"]["A"]["leq"]
        assert leq == [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]]
        leq[cell[0]][cell[1]] = bit
        with pytest.raises(DoctrineDataError, match=f"^fibre over A: {reason}$"):
            doctrine_from_json(data)

    def test_malformed_order_matrix_rejected(self):
        data = doctrine_to_json(POW)
        del data["generator"]
        data["fibres"]["A"]["leq"][0] = [1, 0]
        with pytest.raises(DoctrineDataError, match="malformed"):
            doctrine_from_json(data)

    def test_byte_stable_serialisation(self):
        a = json.dumps(doctrine_to_json(powerset_doctrine((2, 2))))
        b = json.dumps(doctrine_to_json(powerset_doctrine((2, 2))))
        assert a == b


# -- order-set decisions against the scans they replaced ----------------------


def adjoint_pairs(D, f, direction):
    """The adjunction law scanned one (domain, codomain) predicate pair at
    a time through the fibres' `leq`: the oracle of `adjoint_along`'s
    order-set decision.  It keeps no verdict."""
    key = mor_key(f)
    try:
        dom_fib, cod_fib = D.fibre(f.dom), D.fibre(f.cod)
        dom_els, cod_els = dom_fib.elements(), cod_fib.elements()
        pull = D.along("reindex", f)
        pulled = [(b, pull(b)) for b in cod_els] if dom_els else []
    except DoctrineDataError as exc:
        return AdjointFailure(direction, key, None, str(exc))
    along = D.along(direction, f)
    value = {}
    for alpha in dom_els:
        try:
            value[alpha] = along(alpha)
        except AdjointMissing:
            return AdjointFailure(direction, key, alpha,
                                  f"no {direction} value for {dom_fib.describe(alpha)}")
    pairs = 0
    for alpha in dom_els:
        v = value[alpha]
        for b, pb in pulled:
            pairs += 1
            if direction == "exists":
                law = cod_fib.leq(v, b) == dom_fib.leq(alpha, pb)
            else:
                law = cod_fib.leq(b, v) == dom_fib.leq(pb, alpha)
            if not law:
                return AdjointFailure(direction, key, alpha,
                                      f"adjunction law fails against {cod_fib.describe(b)}")
    return AdjointWitness(direction, key, pairs)


def heyting_triples(fib, obj, els):
    """The lattice and residuation laws scanned one triple at a time: the
    oracle of `_check_heyting`.  Returns (violations, notes, triples)."""
    violations, notes, triples = [], [], 0
    sample = doctrine._sample(els, doctrine.ORDER_SAMPLE)
    top, bot = fib.top(), fib.bottom()
    for a in sample:
        if not fib.leq(a, top):
            violations.append(f"{obj.name}: top is not above {fib.describe(a)}")
        if not fib.leq(bot, a):
            violations.append(f"{obj.name}: bottom is not below {fib.describe(a)}")
    tri = doctrine._sample(els, doctrine.TRIPLE_SAMPLE)
    if len(tri) < len(els):
        notes.append(f"lattice laws over {obj.name} sampled at {len(tri)}/{len(els)}")
    imp = {(b, c): fib.imp(b, c) for b in tri for c in tri}
    for a in tri:
        for b in tri:
            m = fib.meet(a, b)
            if not (fib.leq(m, a) and fib.leq(m, b)):
                violations.append(
                    f"{obj.name}: meet({fib.describe(a)}, {fib.describe(b)}) is not a lower bound")
            j = fib.join(a, b)
            if not (fib.leq(a, j) and fib.leq(b, j)):
                violations.append(
                    f"{obj.name}: join({fib.describe(a)}, {fib.describe(b)}) is not an upper bound")
            for c in tri:
                triples += 1
                if fib.leq(c, a) and fib.leq(c, b) and not fib.leq(c, m):
                    violations.append(
                        f"{obj.name}: meet({fib.describe(a)}, {fib.describe(b)}) is not greatest")
                if fib.leq(a, c) and fib.leq(b, c) and not fib.leq(j, c):
                    violations.append(
                        f"{obj.name}: join({fib.describe(a)}, {fib.describe(b)}) is not least")
                if fib.leq(m, c) != fib.leq(a, imp[b, c]):
                    violations.append(
                        f"{obj.name}: residuation fails on {fib.describe(a)}, "
                        f"{fib.describe(b)}, {fib.describe(c)}")
    return violations, notes, triples


def _heyting_audit(fib, obj):
    """`_check_heyting` over all of fib, as (violations, notes, triples)."""
    violations, notes, counts = [], [], {"triples": 0}
    doctrine._check_heyting(fib, obj, fib.elements(), violations, notes, counts)
    return violations, notes, counts["triples"]


def reindex_pairs(D, fibre_els):
    """The reindexing laws scanned one sampled predicate or pair at a
    time through `D.along`, keeping no verdict: the oracle of
    `_check_reindex`.  Returns (violations, notes, counts)."""
    violations, notes = [], []
    counts = {"morphisms": 0, "compositions": 0}
    for obj, els in fibre_els.items():
        pull = D.along("reindex", identity(obj))
        try:
            for alpha in doctrine._sample(els, doctrine.PAIR_SAMPLE):
                if pull(alpha) != alpha:
                    violations.append(
                        f"{obj.name}: identity reindex moves {D.fibre(obj).describe(alpha)}")
                    break
        except DoctrineDataError:
            notes.append(f"identity reindex over {obj.name} not recorded; skipped")
    mors = {(a, b): D.morphisms(a, b) for a in D.universe for b in D.universe
            if a in fibre_els and b in fibre_els}
    for (a, b), fs in mors.items():
        counts["morphisms"] += len(fs)
        fib_a, fib_b = D.fibre(a), D.fibre(b)
        sampled = doctrine._sample_pairs(fibre_els[b], doctrine.PAIR_SAMPLE)
        lattice = fib_a.has_heyting and fib_b.has_heyting
        for f in fs:
            pull = D.along("reindex", f)
            try:
                for x, y in sampled:
                    if fib_b.leq(x, y) and not fib_a.leq(pull(x), pull(y)):
                        violations.append(
                            f"reindex along {mor_key(f)} is not monotone on "
                            f"{fib_b.describe(x)} <= {fib_b.describe(y)}")
                if lattice:
                    if pull(fib_b.top()) != fib_a.top():
                        violations.append(f"reindex along {mor_key(f)} moves top")
                    if pull(fib_b.bottom()) != fib_a.bottom():
                        violations.append(f"reindex along {mor_key(f)} moves bottom")
                    for x, y in sampled:
                        rx, ry = pull(x), pull(y)
                        for name, op in (("meet", "meet"), ("join", "join"),
                                         ("implication", "imp")):
                            if pull(getattr(fib_b, op)(x, y)) != getattr(fib_a, op)(rx, ry):
                                violations.append(
                                    f"reindex along {mor_key(f)} breaks {name} on "
                                    f"{fib_b.describe(x)}, {fib_b.describe(y)}")
            except DoctrineDataError as exc:
                notes.append(f"{mor_key(f)}: {exc}; skipped")
    for (a, b), fs in mors.items():
        for (b2, c), gs in mors.items():
            if b2 != b:
                continue
            for f in fs:
                for g in gs:
                    pull_f, pull_g = D.along("reindex", f), D.along("reindex", g)
                    pull_gf = D.along("reindex", FinMor(a, c, idx=[g.idx[v] for v in f.idx]))
                    try:
                        for alpha in doctrine._sample(fibre_els[c], doctrine.PAIR_SAMPLE):
                            if pull_f(pull_g(alpha)) != pull_gf(alpha):
                                violations.append(
                                    f"functoriality fails: {mor_key(g)} after {mor_key(f)}")
                                break
                    except DoctrineDataError:
                        notes.append(
                            f"composite {mor_key(g)} after {mor_key(f)} not recorded; skipped")
                        continue
                    counts["compositions"] += 1
    return violations, notes, counts


def _reindex_audit(D):
    """`_check_reindex` over D's universe, as (violations, notes, counts)."""
    fibre_els = {obj: D.fibre(obj).elements() for obj in D.universe}
    violations, notes, counts = [], [], {"morphisms": 0, "compositions": 0}
    doctrine._check_reindex(D, fibre_els, violations, notes, counts)
    return violations, notes, counts


def squares_betas(D, direction):
    """Beck-Chevalley scanned one sampled predicate at a time through
    `D.along`, every square of every map, keeping no verdict: the oracle
    of `beck_chevalley`."""
    eq_fail, ineq_fail, skipped, squares = [], [], [], 0
    for b in D.universe:
        for a1 in D.universe:
            for a2 in D.universe:
                fs = D.morphisms(a2, a1)
                try:
                    p1, p2 = D.product(a1, b), D.product(a2, b)
                    fib1, fib_a2 = D.fibre(p1.obj), D.fibre(a2)
                    betas = doctrine._sample(fib1.elements(), doctrine.PRED_SAMPLE)
                except DoctrineDataError as exc:
                    if fs:
                        skipped.append(
                            f"square over {a2.name} -> {a1.name} with {b.name}: {exc}")
                    continue
                along1, along2 = D.along(direction, p1.proj_left), D.along(direction, p2.proj_left)
                for f in fs:
                    squares += 1
                    square = f"{mor_key(f)} x {b.name}"
                    pull_f = D.along("reindex", f)
                    pull_fp = D.along("reindex", f_times_id(D, f, b))
                    for beta in betas:
                        try:
                            lhs = along2(pull_fp(beta))
                            rhs = pull_f(along1(beta))
                        except (AdjointMissing, DoctrineDataError) as exc:
                            skipped.append(f"{square}: {exc}")
                            break
                        low, high = (lhs, rhs) if direction == "exists" else (rhs, lhs)
                        if lhs != rhs:
                            eq_fail.append(
                                f"{direction} along {square} differs on {fib1.describe(beta)}")
                        if not fib_a2.leq(low, high):
                            ineq_fail.append(
                                f"{direction} along {square} breaks the lax inequality on "
                                f"{fib1.describe(beta)}")
    return doctrine.BCReport(D.name, direction, squares, eq_fail, ineq_fail, skipped)


STOCK = {name: FRESH[name] for name in ("powerset-2x2", "chain2", "antichain2")}
STOCK["powerset-2x3"] = lambda: powerset_doctrine((2, 3))
ORACLE = {
    **STOCK,
    "antichain3-1x2": FRESH["antichain3-1x2"],
    **{f"replay-{name}": (lambda make=make: _replay(make())) for name, make in STOCK.items()},
}


def _law_maps(D):
    """Both projections of every binary product over the universe, then
    every map between universe objects."""
    return _projections(D) + [f for a in D.universe for b in D.universe
                              for f in D.morphisms(a, b)]


def _planted(bad):
    """A concrete doctrine whose ops along a map are wrong where
    ``bad(op, f, alpha, value)`` returns a replacement value."""

    class Planted(PerPredicate):
        def reindex_el(self, f, alpha):
            value = super().reindex_el(f, alpha)
            return bad("reindex", self, f, alpha, value)

        def exists_along(self, f, alpha):
            value = super().exists_along(f, alpha)
            return bad("exists", self, f, alpha, value)

        def forall_along(self, f, alpha):
            value = super().forall_along(f, alpha)
            return bad("forall", self, f, alpha, value)
    return Planted


def _nth(D, obj, k):
    els = D.fibre(obj).elements()
    return els[k % len(els)] if els else None


# Each defect is keyed by index table, as the kept verdicts are, and hits
# one predicate per table: a value or pullback off by one mask bit (so
# possibly no predicate of the fibre), or the fibre's top or bottom.
ADJOINT_DEFECTS = {
    "exists-bit": lambda op, D, f, alpha, v: (
        v ^ 1 if op == "exists" and alpha == _nth(D, f.dom, len(f.idx) + 3) else v),
    "forall-top": lambda op, D, f, alpha, v: (
        D.fibre(f.cod).top() if op == "forall" and alpha == _nth(D, f.dom, 1) else v),
    "exists-bottom": lambda op, D, f, alpha, v: (
        0 if op == "exists" and alpha == _nth(D, f.dom, -1) else v),
    "pullback-bit": lambda op, D, f, alpha, v: (
        v ^ (1 << (sum(f.idx) % max(1, D.fibre(f.dom).full.bit_length())))
        if op == "reindex" and alpha == _nth(D, f.cod, 2) else v),
}


class TestOrderSetOracle:
    """`adjoint_along` and `_check_heyting` decide on order sets what the
    pair and triple scans above decide one `leq` at a time: the same
    verdicts, the same first failure, the same violations in the same
    order, and the same counts."""

    @pytest.mark.parametrize("name", ORACLE)
    def test_adjoint_along_agrees_with_the_pair_scan(self, name):
        D = ORACLE[name]()
        for f in _law_maps(D):
            for direction in ("exists", "forall"):
                assert adjoint_along(D, f, direction) == adjoint_pairs(D, f, direction), \
                    (mor_key(f), direction)

    def test_a_missing_value_is_named_as_the_pair_scan_names_it(self):
        D, t = _gap_doctrine()
        for direction in ("exists", "forall"):
            assert adjoint_along(D, t, direction) == adjoint_pairs(D, t, direction)
        assert adjoint_along(D, t, "exists").reason == "no exists value for x"

    @pytest.mark.parametrize("defect", ADJOINT_DEFECTS)
    @pytest.mark.parametrize("name", ("powerset-2x2", "chain2", "antichain2"))
    def test_a_planted_defect_fails_where_the_pair_scan_fails(self, name, defect):
        base = FRESH[name]()
        D = _planted(ADJOINT_DEFECTS[defect])(
            base.name, base.frame, base.universe, base.cap, base.generator)
        failed = 0
        for f in _law_maps(D):
            for direction in ("exists", "forall"):
                want = adjoint_pairs(D, f, direction)
                assert adjoint_along(D, f, direction) == want, (mor_key(f), direction)
                failed += isinstance(want, AdjointFailure)
        assert failed > 0

    @pytest.mark.parametrize("name", ORACLE)
    def test_check_heyting_agrees_with_the_triple_scan(self, name):
        D = ORACLE[name]()
        for obj in D.universe:
            fib = D.fibre(obj)
            assert _heyting_audit(fib, obj) == heyting_triples(fib, obj, fib.elements())

    @staticmethod
    def _mask_fibres():
        for D in (POW, CHAIN, ANTI, kripke_doctrine(antichain_poset(3), (1, 2))):
            for obj in D.universe:
                yield D, obj

    @pytest.mark.parametrize("op,wrong", [
        ("meet", lambda fib, a, b, v: a | b),           # not a lower bound
        ("meet", lambda fib, a, b, v: v & (v - 1)),     # a lower bound, not greatest
        ("meet", lambda fib, a, b, v: v ^ 1),           # off by the first bit
        ("join", lambda fib, a, b, v: a & b),           # not an upper bound
        ("join", lambda fib, a, b, v: fib.full),        # an upper bound, not least
        ("imp", lambda fib, a, b, v: v ^ (1 << (a % 5))),
        ("imp", lambda fib, a, b, v: fib.full),
    ], ids=["meet-join", "meet-low", "meet-bit", "join-meet", "join-top",
            "imp-bit", "imp-top"])
    def test_a_planted_lattice_defect_is_listed_as_the_triple_scan_lists_it(self, op, wrong):
        def planted(self, a, b):
            value = getattr(MaskFibre, op)(self, a, b)
            return wrong(self, a, b, value) if (3 * a + b) % 7 == 2 else value

        Planted = type("Planted", (PerPair,), {op: planted})
        listed = 0
        for D, obj in self._mask_fibres():
            fib = Planted(obj, D.nw, D.frame.up, D.frame.elements, D.cap)
            got = _heyting_audit(fib, obj)
            assert got == heyting_triples(fib, obj, fib.elements()), obj.name
            listed += len(got[0])
        assert listed > 0

    @pytest.mark.parametrize("table,cell,value", [
        ("meet", (1, 2), 3), ("meet", (3, 3), 0), ("join", (1, 2), 1),
        ("join", (0, 0), 3), ("imp", (1, 2), 3), ("imp", (3, 0), 1)])
    def test_a_planted_table_cell_is_listed_as_the_triple_scan_lists_it(
            self, table, cell, value):
        A = fin_obj("A", ["a0", "a1"])
        fib = _diamond_fibre(A)
        rows = [list(r) for r in getattr(fib.heyting, table)]
        rows[cell[0]][cell[1]] = value
        fib.heyting = dataclasses.replace(fib.heyting, **{table: tuple(map(tuple, rows))})
        got = _heyting_audit(fib, A)
        assert got[0] and got == heyting_triples(fib, A, fib.elements())


def _raising(missing):
    """A concrete doctrine whose values along a map raise where
    ``missing(op, D, f, alpha)`` returns an exception."""

    class Raising(PerPredicate):
        def reindex_el(self, f, alpha):
            exc = missing("reindex", self, f, alpha)
            if exc:
                raise exc
            return super().reindex_el(f, alpha)

        def exists_along(self, f, alpha):
            exc = missing("exists", self, f, alpha)
            if exc:
                raise exc
            return super().exists_along(f, alpha)

        def forall_along(self, f, alpha):
            exc = missing("forall", self, f, alpha)
            if exc:
                raise exc
            return super().forall_along(f, alpha)
    return Raising


# Quantifier values missing on some predicates of one map's table, as a
# table replay's can be, and pullbacks missing along one whole table, as a
# replay without that table misses them.  No doctrine misses a pullback on
# some predicates alone (`test_a_replay_pulls_back_on_a_whole_fibre_or_none`);
# "pullback-some" does, with no wrong value, so the scans too skip each map
# it meets whole.
MISSING = {
    "exists-some": lambda op, D, f, alpha: (
        AdjointMissing(op, mor_key(f), alpha)
        if op == "exists" and len(f.dom) == 4 and alpha in (_nth(D, f.dom, 3), _nth(D, f.dom, 9))
        else None),
    "forall-late": lambda op, D, f, alpha: (
        AdjointMissing(op, mor_key(f), alpha)
        if op == "forall" and f.idx == (0, 0, 1, 1) and alpha == _nth(D, f.dom, -2) else None),
    "pullback-some": lambda op, D, f, alpha: (
        DoctrineDataError(f"no pullback of {alpha} along {f.idx}")
        if op == "reindex" and f.idx == (1, 0) and len(f.cod) == 2
        and alpha in (_nth(D, f.cod, 5), _nth(D, f.cod, 11)) else None),
    "pullback-table": lambda op, D, f, alpha: (
        DoctrineDataError(f"no table along {f.idx}")
        if op == "reindex" and f.idx == (1, 0) and len(f.cod) == 2 else None),
}


class TestPlaneOracle:
    """`_check_reindex` and `beck_chevalley` decide on planes what the
    scans above decide one predicate at a time: the same violations,
    notes, skips and counts, in the same order."""

    @pytest.mark.parametrize("name", ORACLE)
    def test_check_reindex_agrees_with_the_pair_scan(self, name):
        D = ORACLE[name]()
        assert _reindex_audit(D) == reindex_pairs(D, {o: D.fibre(o).elements()
                                                      for o in D.universe})

    @pytest.mark.parametrize("name", ORACLE)
    def test_beck_chevalley_agrees_with_the_beta_scan(self, name):
        D = ORACLE[name]()
        for direction in ("exists", "forall"):
            assert beck_chevalley(D, direction) == squares_betas(D, direction)

    @pytest.mark.parametrize("defect", ADJOINT_DEFECTS)
    @pytest.mark.parametrize("name", ("powerset-2x2", "chain2", "antichain2"))
    def test_a_planted_defect_is_listed_as_the_scans_list_it(self, name, defect):
        base = FRESH[name]()
        D = _planted(ADJOINT_DEFECTS[defect])(
            base.name, base.frame, base.universe, base.cap, base.generator)
        fibre_els = {o: D.fibre(o).elements() for o in D.universe}
        reindex = _reindex_audit(D)
        assert reindex == reindex_pairs(D, fibre_els)
        reports = [beck_chevalley(D, direction) for direction in ("exists", "forall")]
        assert reports == [squares_betas(D, direction) for direction in ("exists", "forall")]
        assert reindex[0] or not all(rep.passed for rep in reports)

    @pytest.mark.parametrize("missing", MISSING)
    @pytest.mark.parametrize("name", ("powerset-2x2", "chain2", "antichain2"))
    def test_a_missing_value_is_skipped_as_the_scans_skip_it(self, name, missing):
        """A map or square that meets a missing value is noted or skipped
        where the scan meets it, once per map or square."""
        base = FRESH[name]()
        D = _raising(MISSING[missing])(base.name, base.frame, base.universe, base.cap)
        fibre_els = {o: D.fibre(o).elements() for o in D.universe}
        assert _reindex_audit(D) == reindex_pairs(D, fibre_els)
        reports = [beck_chevalley(D, direction) for direction in ("exists", "forall")]
        assert reports == [squares_betas(D, direction) for direction in ("exists", "forall")]
        assert any(rep.skipped for rep in reports)

    def test_failures_before_a_missing_value_are_listed(self):
        """Along the projections A*A -> A of powerset-2x2, exists is wrong
        on every predicate and missing on the tenth: each square over it
        lists the failures of the betas before the tenth, then skips."""
        class WrongThenMissing(PerPredicate):
            def exists_along(self, f, alpha):
                if f.idx == (0, 0, 1, 1) and alpha == self.fibre(f.dom).elements()[9]:
                    raise AdjointMissing("exists", mor_key(f), alpha)
                value = super().exists_along(f, alpha)
                return value ^ 1 if f.idx == (0, 0, 1, 1) else value

        D = WrongThenMissing(POW.name, POW.frame, POW.universe)
        rep = beck_chevalley(D, "exists")
        assert rep == squares_betas(D, "exists")
        assert rep.equality_failures and rep.skipped
        square = rep.skipped[0].split(":")[0]
        assert len([v for v in rep.equality_failures if f" along {square} " in v]) == 9


    def test_a_replay_pulls_back_on_a_whole_fibre_or_none(self):
        """What `_check_reindex` rests on when it skips a map whole: on
        the generator-free replay of each stock 2x2 doctrine, and on the
        powerset one without the table of A->A#0, every recorded map has
        a pullback of every predicate of its codomain fibre, and A->A#0
        raises one and the same error on every predicate."""
        data = _replay_data(POW)
        del data["reindex"]["A->A#0"]
        cut = doctrine_from_json(data)
        for T in (_replay(POW), _replay(CHAIN), _replay(ANTI), cut):
            for a in T.universe:
                for b in T.universe:
                    for f in T.morphisms(a, b):
                        dom = T.fibre(a).elements()
                        assert all(T.reindex_el(f, beta) in dom for beta in T.fibre(b).elements())
        f = mor_from_key("A->A#0", {o.name: o for o in cut.universe})
        assert f not in cut.morphisms(f.dom, f.cod)
        errors = set()
        for beta in cut.fibre(f.cod).elements():
            with pytest.raises(DoctrineDataError) as exc:
                cut.reindex_el(f, beta)
            errors.add(str(exc.value))
        assert errors == {"no reindex table for A->A#0"}

    def test_a_pullback_missing_late_skips_the_map_whole(self):
        """On antichain3-1x2, reindexing along the swap B->B#2 is off by
        one bit everywhere, so the audit lists failures of every law
        along it; planted missing on a late predicate as well, the map
        gets one note and not one failure, where a scan one pair at a
        time lists the failures it reads first, and is not kept as
        passed."""
        base = FRESH["antichain3-1x2"]()
        B = next(o for o in base.universe if o.name == "B")
        late = base.fibre(B).elements()[59]

        def planted(missing):
            class Wrong(PerPredicate):
                def reindex_el(self, f, alpha):
                    if f.idx != (1, 0):
                        return super().reindex_el(f, alpha)
                    if missing and alpha == late:
                        raise DoctrineDataError("no pullback recorded")
                    return super().reindex_el(f, alpha) ^ 4
            return Wrong(base.name, base.frame, base.universe, base.cap)

        wrong = _reindex_audit(planted(False))
        along = [v for v in wrong[0] if v.startswith("reindex along B->B#2 ")]
        assert {v.split(" on ")[0].split()[-1] for v in along} == {
            "monotone", "top", "bottom", "meet", "join", "implication"}
        D = planted(True)
        violations, notes, _ = _reindex_audit(D)
        assert not [v for v in violations if v.startswith("reindex along B->B#2 ")]
        assert [n for n in notes if n.startswith("B->B#2")] == [
            "B->B#2: no pullback recorded; skipped"]
        assert ("reindex", D._table_key(mor_from_key("B->B#2", {"B": B}))) not in D._passed

    @pytest.mark.parametrize("name", ("powerset-2x2", "chain2", "antichain2"))
    def test_a_planted_order_is_asked_as_the_scans_ask_it(self, name):
        """A `PerPair` fibre whose `leq` is wrong on some pairs: the
        audits' order tests on planes ask it predicate by predicate, so
        the monotonicity scan and the lax inequality list what the scans
        list."""
        class WrongOrder(PerPair):
            def leq(self, a, b):
                return MaskFibre.leq(self, a, b) and (a * 5 + b) % 11 != 3

        class PlantedOrder(ConcreteDoctrine):
            def fibre(self, obj):
                key = obj.name, obj
                if key not in self._fibres:
                    self._fibres[key] = WrongOrder(
                        obj, self.nw, self.frame.up, self.frame.elements, self.cap)
                return self._fibres[key]

        base = FRESH[name]()

        def make():
            return PlantedOrder(base.name, base.frame, base.universe, base.cap)
        got, D = _reindex_audit(make()), make()
        assert got == reindex_pairs(D, {o: D.fibre(o).elements() for o in D.universe})
        assert any(" is not monotone on " in v for v in got[0])
        for direction in ("exists", "forall"):
            assert beck_chevalley(make(), direction) == squares_betas(make(), direction)


class TestOrderSetGuard:
    """On antichain3 `1,2` (4 096 predicates over B*B) the law audits make
    no pair-by-pair order test: `adjoint_along` none, and `_check_heyting`
    only the bound and top/bottom tests, outside the triple loop."""

    @pytest.fixture
    def leq_calls(self, monkeypatch):
        calls = [0]
        leq = MaskFibre.leq

        def counting(self, a, b):
            calls[0] += 1
            return leq(self, a, b)
        monkeypatch.setattr(MaskFibre, "leq", counting)
        return calls

    def test_adjoint_along_makes_no_leq_call(self, leq_calls):
        D = FRESH["antichain3-1x2"]()
        results = [adjoint_along(D, f, direction) for f in _projections(D)
                   for direction in ("exists", "forall")]
        assert all(isinstance(r, AdjointWitness) for r in results)
        assert max(r.pairs_checked for r in results) == 4096 * 64
        assert leq_calls == [0]

    def test_check_heyting_tests_only_bounds(self, leq_calls):
        D = FRESH["antichain3-1x2"]()
        for obj in D.universe:
            els = D.fibre(obj).elements()
            tri = doctrine._sample(els, doctrine.TRIPLE_SAMPLE)
            sample = doctrine._sample(els, doctrine.ORDER_SAMPLE)
            before = leq_calls[0]
            violations, _, triples = _heyting_audit(D.fibre(obj), obj)
            assert not violations and triples == len(tri) ** 3
            assert leq_calls[0] - before <= 4 * len(tri) ** 2 + 2 * len(sample)


SIZES = ((1, 1), (2, 2), (2, 3))
SMALL = {f"{name}-{'x'.join(map(str, sizes))}": (frame, sizes)
         for name, frame in SMALL_FRAMES.items() for sizes in SIZES}


class TestClosedFormTables:
    """The recorded tables of a concrete doctrine are closed forms in the
    digits of a predicate's index (`MaskFibre.op_table`,
    `MaskFibre.pullback_table`); the tables asked pair by pair and
    predicate by predicate are their oracle."""

    @pytest.mark.parametrize("name", SMALL)
    def test_op_tables_are_the_pair_tables(self, name):
        """Every order table, and every lattice table that
        `doctrine_to_json` writes (fibres of at most HEYTING_TABLE_CAP
        predicates)."""
        D = kripke_doctrine(*SMALL[name])
        for obj in D.universe:
            fib = D.fibre(obj)
            els = fib.elements()
            ops = ("leq", "meet", "join", "imp") if len(els) <= doctrine.HEYTING_TABLE_CAP \
                else ("leq",)
            for op in ops:
                assert fib.op_table(op) == PosetFibre.op_table(fib, op), (obj.name, op)

    @pytest.mark.parametrize("name", [f for f in SMALL_FRAMES if f != "antichain3"])
    def test_masks_and_index_are_closed_forms_of_the_listing(self, name):
        """On the `TestFrameCensus` frames at sizes 2,2, over every universe
        object and product of two: `index` is a predicate's place in
        `elements`, and `masks` of each set of columns is `elements`
        filtered to the predicates with every column in that set, in
        order.  At cap 8 some fibres of every frame are over the cap, and
        there `index` raises the CapExceeded that `elements` raises."""
        outcomes = set()
        for cap in (8, DEFAULT_CAP):
            D = kripke_doctrine(SMALL_FRAMES[name], (2, 2), cap=cap)
            nw, full = D.nw, (1 << D.nw) - 1
            for A, B in [(A, None) for A in D.universe] + [
                    (A, B) for A in D.universe for B in D.universe]:
                obj = A if B is None else D.product(A, B).obj
                fib = D.fibre(obj)
                try:
                    els = fib.elements()
                except CapExceeded as exc:
                    with pytest.raises(CapExceeded) as by_index:
                        fib.index(0)
                    assert str(by_index.value) == str(exc)
                    outcomes.add("raise")
                    continue
                outcomes.add("fits")
                assert [fib.index(m) for m in els] == list(range(len(els)))
                spots = range(0, len(obj) * nw, nw)
                for pick in range(1 << len(fib.cols)):
                    cols = [c for j, c in enumerate(fib.cols) if pick >> j & 1]
                    want = tuple(m for m in els if all(m >> s & full in cols for s in spots))
                    assert fib.masks(cols) == want, (cap, obj.name, cols)
        assert outcomes == {"raise", "fits"}

    @pytest.mark.parametrize("name", SMALL)
    def test_reindex_tables_are_the_per_predicate_tables(self, name):
        D = kripke_doctrine(*SMALL[name])
        for a in D.universe:
            for b in D.universe:
                for f in D.morphisms(a, b):
                    assert D.reindex_table(f) == Doctrine.reindex_table(D, f), mor_key(f)

    @pytest.mark.parametrize("op", ("leq", "imp"))
    def test_an_overridden_op_is_asked_pair_by_pair(self, op):
        """A `PerPair` fibre whose `leq` or `imp` is wrong on one pair
        records its own answer there, and the closed form's elsewhere;
        the closed form itself asks no op."""
        class Planted(PerPair):
            def leq(self, a, b):
                return MaskFibre.leq(self, a, b) != (op == "leq" and (a, b) == (0, 0))

            def imp(self, a, b):
                value = MaskFibre.imp(self, a, b)
                return self.full ^ value if op == "imp" and (a, b) == (0, 0) else value

        A = POW.universe[1]
        fib = Planted(A, 1, POW.frame.up, POW.frame.elements, POW.cap)
        plain = POW.fibre(A)
        got = fib.op_table(op)
        assert MaskFibre.op_table(fib, op) == plain.op_table(op)
        assert got != plain.op_table(op) and got[1:] == plain.op_table(op)[1:]

    def test_a_table_over_the_cap_raises_where_it_did(self):
        """The codomain's count is taken first, then the domain's."""
        D = powerset_doctrine((1, 3), cap=4)
        one, A, B = D.universe
        with pytest.raises(CapExceeded, match="fibre over B has 8"):
            D.reindex_table(D.morphisms(A, B)[0])
        with pytest.raises(CapExceeded, match="fibre over B has 8"):
            D.reindex_table(D.morphisms(B, A)[0])
        with pytest.raises(CapExceeded, match="fibre over B has 8"):
            D.fibre(B).op_table("leq")

    @pytest.mark.parametrize("section,path", [
        ("fibres", ("A", "leq", 1, 0)), ("heyting", ("A", "meet", 2, 3)),
        ("heyting", ("A", "join", 0, 0)), ("heyting", ("A", "imp", 3, 1)),
        ("reindex", ("A->B#1", 2))])
    def test_one_wrong_cell_of_a_stock_file_exits_2(self, capsys, tmp_path, section, path):
        data = doctrine_to_json(CHAIN)
        *where, last = path
        cell = data[section]
        for key in where:
            cell = cell[key]
        cell[last] = (cell[last] + 1) % 2
        file = tmp_path / "chain.json"
        file.write_text(json.dumps(data))
        assert cli.main(["doctrine", "check", "--doctrine", str(file)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == (f"error: malformed doctrine JSON: {file}: recorded "
                                     f"{section} '{path[0]}' does not match the generator\n")


class TestFunctoriality:
    """The functoriality audit gathers planes by index tables on a
    concrete doctrine, and builds maps only through the base class's
    `table_pull` (`PerPredicate`); a composite whose pullback is not the
    pullback along its factors is reported either way."""

    def test_a_concrete_doctrine_builds_no_composite(self, monkeypatch):
        built = []
        monkeypatch.setattr(doctrine, "FinMor", lambda *a, **k: built.append(a) or FinMor(*a, **k))
        D = powerset_doctrine((2, 3))
        rep = check_doctrine(D)
        assert rep.passed and rep.counts["compositions"] == 1618 and built == []

    def test_a_planted_non_functorial_composite_is_reported(self):
        """A pullback wrong along the table (1, 1, 0) into B (powerset-2x3)
        alone: each composable pair (f, g) with that table as f, g or the
        composite breaks functoriality, as the pair scan finds, clean
        factors of a planted composite included."""
        class WrongComposite(PerPredicate):
            def reindex_el(self, f, alpha):
                value = super().reindex_el(f, alpha)
                return value ^ 1 if f.idx == (1, 1, 0) and len(f.cod) == 3 else value

        P = powerset_doctrine((2, 3))
        D = WrongComposite(P.name, P.frame, P.universe)
        got = _reindex_audit(D)
        assert got == reindex_pairs(D, {o: D.fibre(o).elements() for o in D.universe})
        broken = [v for v in got[0] if v.startswith("functoriality fails: ")]
        assert broken and all(" after " in v for v in broken)
        objs = {o.name: o for o in P.universe}
        planted = (1, 1, 0)
        clean_factors = 0
        for v in broken:
            g, _, f = v.removeprefix("functoriality fails: ").partition(" after ")
            f, g = mor_from_key(f, objs), mor_from_key(g, objs)
            composite = tuple(g.idx[x] for x in f.idx)
            assert planted in (f.idx, g.idx, composite)
            clean_factors += planted not in (f.idx, g.idx)
        assert clean_factors
