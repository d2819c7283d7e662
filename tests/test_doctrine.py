import gc
import json
import random
import weakref

import pytest

from dialectica import doctrine
from dialectica.doctrine import (
    AdjointFailure,
    AdjointMissing,
    AdjointWitness,
    ConcreteDoctrine,
    Doctrine,
    DoctrineDataError,
    HeytingTables,
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

POW = powerset_doctrine((2, 2))
CHAIN = kripke_doctrine(chain_poset(2), (2, 2))
ANTI = kripke_doctrine(antichain_poset(2), (2, 2))


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
        for direction in ("exists", "forall"):
            rep = quantifier_structure(D, direction)
            assert rep.passed
            assert all(isinstance(w, AdjointWitness) and w.monotone
                       for w in rep.witnesses)

    @pytest.mark.parametrize("D", (POW, CHAIN, ANTI), ids=lambda d: d.name)
    def test_beck_chevalley(self, D):
        for direction in ("exists", "forall"):
            rep = beck_chevalley(D, direction)
            assert rep.passed and rep.squares > 0
        with pytest.raises(ValueError):
            beck_chevalley(D, "both")


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
                assert (got.pairs_checked, got.monotone) == \
                    (want.pairs_checked, want.monotone)
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


def _replay(D):
    """D replayed from its tables alone, with no generator."""
    data = doctrine_to_json(D)
    del data["generator"]
    return doctrine_from_json(data)


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
        class OneWrongMap(ConcreteDoctrine):
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
        """Both directions of the quantifier audit on powerset-2x2 ask D's
        `reindex_el` once per distinct (index table, codomain size,
        predicate), across the adjunction laws and the Beck-Chevalley
        squares of both directions."""
        D = powerset_doctrine((2, 2))
        asked = []
        monkeypatch.setattr(D, "reindex_el", lambda f, alpha: asked.append(
            (f.idx, len(f.cod), alpha)) or ConcreteDoctrine.reindex_el(D, f, alpha))
        assert quantifier_structure(D, "exists").passed
        assert quantifier_structure(D, "forall").passed
        assert len(asked) == len(set(asked)) == 132


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
        verdicts (8 table keys of f, 2 sizes of B), and f x id is built
        once for each: a kept verdict is read before the map is built."""
        D = kripke_doctrine(antichain_poset(2), (2, 2))
        built = []
        monkeypatch.setattr(doctrine, "f_times_id",
                            lambda *args: built.append(args) or f_times_id(*args))
        reps = [beck_chevalley(D, direction) for direction in ("exists", "forall")]
        assert [(rep.passed, rep.squares) for rep in reps] == [(True, 69)] * 2
        assert len(built) == 32

    def test_a_wrong_closed_form_fails_as_per_map(self):
        class TopExists(ConcreteDoctrine):
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
        class WrongTable(ConcreteDoctrine):
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
            with pytest.raises(CapExceeded, match="product size 4 exceeds cap 3"):
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

    def test_nontransitive_order_is_named(self):
        A = fin_obj("A", ["a0", "a1"])
        fib = PosetFibre(A, ("x", "y", "z"), [0b011, 0b110, 0b100])
        D = TabularDoctrine("bent", (A,), {A: fib}, {identity(A): (0, 1, 2)})
        rep = check_doctrine(D)
        assert any("transitivity fails" in v for v in rep.violations)

    def test_antisymmetry_failure_is_named_once(self):
        """Two predicates below each other are one failure, not one per
        order of the pair."""
        one = unit_obj()
        fib = PosetFibre(one, ("x", "y"), [0b11, 0b11])
        D = TabularDoctrine("flat", (one,), {one: fib}, {identity(one): (0, 1)})
        rep = check_doctrine(D)
        assert [v for v in rep.violations if "antisymmetry" in v] == [
            "1: antisymmetry fails on x, y"]

    def test_missing_adjoint_is_reported(self):
        D, t = _gap_doctrine()
        with pytest.raises(AdjointMissing):
            D.exists_along(t, 1)
        res = adjoint_along(D, t, "exists")
        assert isinstance(res, AdjointFailure)
        assert "no exists value" in res.reason

    def test_a_wrong_closed_form_breaks_the_law(self):
        class TopExists(ConcreteDoctrine):
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
