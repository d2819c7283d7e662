import itertools
import random

import pytest

from dialectica import _kernels as K
from dialectica import cli, dial
from dialectica.dial import (
    DialFibre,
    DialObject,
    WitnessPair,
    build_dial_fibre,
    check_preorder,
    check_theorem2,
    check_theorem4,
    compose_pairs,
    dial_leq,
    enumerate_quads,
    identity_pair,
    pair_is_valid,
    prenex_values,
)
from dialectica.doctrine import (
    ConcreteDoctrine,
    Doctrine,
    DoctrineError,
    _m1_table,
    _m2_table,
    doctrine_from_json,
    doctrine_to_json,
    kripke_doctrine,
    mor_json,
    powerset_doctrine,
)
from dialectica.fincat import (
    CapExceeded,
    FinMor,
    FinObj,
    compose,
    enumerate_morphisms,
    identity,
    product,
    product_n,
    unit_obj,
)
from dialectica.freeness import FreenessAnalyzer
from dialectica.posets import FinitePoset, _members, antichain_poset, chain_poset
from test_doctrine import PerPredicate

POW = powerset_doctrine((2, 2))
CHAIN = kripke_doctrine(chain_poset(2), (2, 2))
ANTI = kripke_doctrine(antichain_poset(2), (2, 2))


def quads_over(D, I, cap=64):
    quads, _, _ = enumerate_quads(D, I, quad_cap=cap)
    return quads


def dial_reindex(D, f, q):
    """Pull a quadruple over I back along f: J -> I, keeping U and X: the
    completed fibres' reindexing, on index tables over D's products."""
    assert f.cod == q.I
    jux = D.product(D.product(f.dom, q.U).obj, q.X).obj
    iux = D.product(D.product(q.I, q.U).obj, q.X).obj
    n = len(q.U) * len(q.X)
    m = FinMor(jux, iux, idx=[f.idx[t // n] * n + t % n for t in range(len(jux))])
    return DialObject(f.dom, q.U, q.X, D.reindex_el(m, q.alpha))


class TestWitnessPairs:
    def test_identity_pair_validates(self):
        for D in (POW, CHAIN, ANTI):
            for q in quads_over(D, D.universe[0], cap=24):
                p = identity_pair(D, q)
                assert pair_is_valid(D, q, q, p)

    def test_search_methods_agree(self):
        """The kernel's pair is the first the base class's exhaustive
        search accepts."""
        quads = quads_over(POW, POW.universe[0], cap=16)
        found = 0
        for a in quads:
            for b in quads:
                fast = dial_leq(POW, a, b)
                slow = Doctrine.witness_tables(POW, a, b)
                assert (fast is None) == (slow is None)
                if fast is not None:
                    assert pair_is_valid(POW, a, b, fast)
                    assert (fast.f0.idx, fast.f1.idx) == slow
                    found += 1
        assert 0 < found < len(quads) ** 2

    def test_invalid_candidates_are_rejected(self):
        """A quadruple whose matrix has a full (u, .) row is not below
        the empty one: no counterexample map can dodge the row."""
        one, A = POW.universe[0], POW.universe[1]
        carrier = product(product(one, A).obj, A).obj
        fib = POW.fibre(carrier)
        fullrow = next(m for m in fib.elements()
                       if fib.describe(m) == "{a0.a0, a0.a1, a1.a1}")
        a = DialObject(one, A, A, fullrow)
        b = DialObject(one, A, A, 0)
        assert dial_leq(POW, a, b) is None
        iu = product(one, A).obj
        iuy = product(iu, A).obj
        candidates = [
            WitnessPair(f0, f1)
            for f0 in enumerate_morphisms(iu, A)
            for f1 in enumerate_morphisms(iuy, A)
        ]
        assert candidates and all(
            not pair_is_valid(POW, a, b, p) for p in candidates)

    def test_composition_revalidates(self):
        quads = quads_over(POW, POW.universe[0], cap=16)
        composed = 0
        for a in quads:
            for b in quads:
                p = dial_leq(POW, a, b)
                if p is None:
                    continue
                for c in quads:
                    q = dial_leq(POW, b, c)
                    if q is None:
                        continue
                    r = compose_pairs(POW, a, b, c, p, q)
                    assert pair_is_valid(POW, a, c, r)
                    composed += 1
                    break
                break
        assert composed > 0

    def test_carriers_are_checked_by_their_elements(self):
        """A map over a carrier of the right size but other elements, at
        any of its four carriers, fails revalidation, though its index
        table is the right one."""
        one, A, B = POW.universe
        fib = POW.fibre(POW.product(POW.product(one, A).obj, A).obj)
        for alpha in fib.elements():
            q = DialObject(one, A, A, alpha)
            p = identity_pair(POW, q)
            assert pair_is_valid(POW, q, q, p)
            other_dom = FinMor(POW.product(one, B).obj, A, idx=p.f0.idx)
            assert not pair_is_valid(POW, q, q, WitnessPair(other_dom, p.f1))
            other_cod = FinMor(p.f1.dom, B, idx=p.f1.idx)
            assert not pair_is_valid(POW, q, q, WitnessPair(p.f0, other_cod))
            other_v = FinMor(p.f0.dom, B, idx=p.f0.idx)
            assert not pair_is_valid(POW, q, q, WitnessPair(other_v, p.f1))
            other_iuy = FinMor(POW.product(p.f0.dom, B).obj, A, idx=p.f1.idx)
            assert not pair_is_valid(POW, q, q, WitnessPair(p.f0, other_iuy))

    def test_composition_rejects_a_wrong_pair(self):
        one, A = POW.universe[0], POW.universe[1]
        carrier = product(product(one, A).obj, A).obj
        fib = POW.fibre(carrier)
        fullrow = next(m for m in fib.elements()
                       if fib.describe(m) == "{a0.a0, a0.a1, a1.a1}")
        a = DialObject(one, A, A, fib.top())
        b = DialObject(one, A, A, fullrow)
        c = DialObject(one, A, A, 0)
        p = dial_leq(POW, a, b)
        assert p is not None and dial_leq(POW, b, c) is None
        bad = identity_pair(POW, b)
        assert not pair_is_valid(POW, b, c, bad)
        with pytest.raises(DoctrineError):
            compose_pairs(POW, a, b, c, p, bad)


def value_pair_maps(a, b, p):
    """`pair_is_valid`'s two maps, built value by value: (i, u, f1(i, u, y))
    and (i, f0(i, u), y) out of I*U*Y."""
    ki, ku = a.I.arity, a.U.arity
    iuy = product_n((a.I, a.U, b.X))[0]
    iux = product_n((a.I, a.U, a.X))[0]
    ivy = product_n((a.I, b.U, b.X))[0]
    m1 = FinMor(iuy, iux, [e[:ki + ku] + p.f1(e) for e in iuy.elements])
    m2 = FinMor(iuy, ivy, [e[:ki] + p.f0(e[:ki + ku]) + e[ki + ku:] for e in iuy.elements])
    return m1, m2


def tampered_tables(a, b, p):
    """p's index tables, then each with one entry of f0 or of f1 changed."""
    f0, f1 = list(p.f0.idx), list(p.f1.idx)
    yield f0, f1
    for s in range(len(f0)):
        for v in range(len(b.U)):
            if v != f0[s]:
                yield f0[:s] + [v] + f0[s + 1:], f1
    for s in range(len(f1)):
        for x in range(len(a.X)):
            if x != f1[s]:
                yield f0, f1[:s] + [x] + f1[s + 1:]


@pytest.fixture(scope="module")
def fibre_a():
    """The powerset-2x2 fibre over A at quad cap 48, with its cells i < j
    (i != j) and the witness pair of each."""
    fib = build_dial_fibre(POW, POW.universe[1], quad_cap=48)
    n = len(fib.quads)
    cells = [(i, j) for i in range(n) for j in range(n) if i != j and fib.leq(i, j)]
    pairs = [(fib.quads[i], fib.quads[j], dial_leq(POW, fib.quads[i], fib.quads[j]))
             for i, j in cells]
    return fib, cells, pairs


class TestIndexTables:
    """The maps built from index arithmetic equal those built value by
    value, names included, on the powerset-2x2 fibre over A."""

    def test_revalidation_maps(self, fibre_a):
        checked = 0
        for a, b, p in fibre_a[2]:
            got = POW._pair_maps(a, b, p.f0.idx, p.f1.idx)
            want = value_pair_maps(a, b, p)
            assert got == want
            assert [(m.dom.name, m.cod.name) for m in got] == \
                [(m.dom.name, m.cod.name) for m in want]
            checked += 1
        assert checked > 100

    def test_pair_tables(self, fibre_a):
        """`_m1_table` and `_m2_table` give the index tables of the
        value-built maps."""
        for a, b, p in fibre_a[2]:
            got = (_m1_table(a.X.size, b.X.size, p.f1.idx),
                   _m2_table(a.U.size, b.U.size, b.X.size, p.f0.idx))
            assert got == tuple(list(m.idx) for m in value_pair_maps(a, b, p))

    def test_concrete_revalidation_matches_the_maps(self, fibre_a):
        """`ConcreteDoctrine.pair_holds`, on index tables, judges every
        pair of the fibre, and every one-entry change to its f0 or its
        f1, as the base method's maps and `reindex_el` judge it."""
        verdicts = [0, 0]
        for a, b, p in fibre_a[2]:
            for f0, f1 in tampered_tables(a, b, p):
                holds = POW.pair_holds(a, b, f0, f1)
                assert holds == Doctrine.pair_holds(POW, a, b, f0, f1)
                verdicts[holds] += 1
        assert min(verdicts) > 100

    @pytest.mark.parametrize("D", [CHAIN, ANTI], ids=["chain2", "antichain2"])
    def test_concrete_revalidation_on_two_worlds(self, D):
        fib = build_dial_fibre(D, D.universe[0], quad_cap=48)
        verdicts = [0, 0]
        for i, a in enumerate(fib.quads):
            for j, b in enumerate(fib.quads):
                if not fib.leq(i, j):
                    continue
                for f0, f1 in tampered_tables(a, b, dial_leq(D, a, b)):
                    holds = D.pair_holds(a, b, f0, f1)
                    assert holds == Doctrine.pair_holds(D, a, b, f0, f1)
                    verdicts[holds] += 1
        assert min(verdicts) > 100

    def test_revalidation_builds_no_map(self, monkeypatch):
        """Revalidation builds no map.  `dial_leq` builds at most its two,
        none for a table the doctrine keeps already, and hands out the
        kept map; a second pass over the fibre builds none."""
        D = powerset_doctrine((2, 2))
        fib = build_dial_fibre(D, D.universe[1], quad_cap=48)
        cells = [(a, b) for i, a in enumerate(fib.quads) for j, b in enumerate(fib.quads)
                 if i != j and fib.leq(i, j)]
        built = [0]
        init = FinMor.__init__

        def counting(self, *args, **kwargs):
            built[0] += 1
            init(self, *args, **kwargs)
        monkeypatch.setattr(FinMor, "__init__", counting)
        seen = {}
        for a, b in cells:
            before = built[0]
            p = dial_leq(D, a, b)
            fresh = 0
            for m in (p.f0, p.f1):
                key = m.dom.name, m.cod.name, m.idx
                fresh += key not in seen
                assert seen.setdefault(key, m) is m
            assert built[0] - before == fresh <= 2
            before = built[0]
            assert D.pair_holds(a, b, p.f0.idx, p.f1.idx)
            assert pair_is_valid(D, a, b, p)
            assert built[0] == before
        assert len(cells) > 100 and len(seen) < len(cells)
        before = built[0]
        for a, b in cells:
            assert dial_leq(D, a, b) is not None
        assert built[0] == before

    def test_kept_maps_are_keyed_by_names(self):
        """Carriers with one set of elements and two names give two kept
        maps and two `mor` keys; one name and table give one map."""
        D = powerset_doctrine((2, 2))
        A, twin = D.universe[1], FinObj("A2", D.universe[1].elements)
        assert A == twin and A.name != twin.name
        maps = [D.kept_map(dom, cod, (1, 0)) for dom in (A, twin) for cod in (A, twin)]
        assert len({id(m) for m in maps}) == 4
        assert [mor_json(m)["mor"] for m in maps] == [
            "A->A#2", "A->A2#2", "A2->A#2", "A2->A2#2"]
        assert D.kept_map(A, twin, [1, 0]) is maps[1]

    def test_kept_pairs_are_keyed_by_names(self):
        """Quadruples over twin carriers (one set of elements, two names)
        give two kept pairs whose maps carry two `mor` keys; one set of
        names and tables gives the one kept pair."""
        D = powerset_doctrine((2, 2))
        one, A = D.universe[0], D.universe[1]
        twin = FinObj("A2", A.elements)
        fib = D.fibre(D.product(D.product(one, A).obj, A).obj)
        alpha = next(m for m in fib.elements()
                     if fib.describe(m) == "{a0.a0, a0.a1, a1.a1}")
        a = DialObject(one, A, A, alpha)
        pairs = [dial_leq(D, a, DialObject(one, U, U, fib.top())) for U in (A, twin)]
        assert pairs[0] is not pairs[1]
        assert {mor_json(pairs[0].f0)["mor"], mor_json(pairs[0].f1)["mor"]}.isdisjoint(
            {mor_json(pairs[1].f0)["mor"], mor_json(pairs[1].f1)["mor"]})
        for U, p in zip((A, twin), pairs):
            b = DialObject(one, U, U, fib.top())
            assert dial_leq(D, DialObject(one, A, A, alpha), b) is p
            cell = b, (*p.f0.idx,), (*p.f1.idx,)
            assert next(dial._certified(D, a, [cell], "kernel witness")) is p

    def test_a_row_over_twin_carriers_splits_its_runs_by_name(self):
        """One row whose b alternate between A and a twin A2 (one set of
        elements, two names), in runs of one to seven: each cell's pair
        carries its own names, as a fresh doctrine's one-cell pair does,
        so runs split by carrier identity and name, never by `==`."""
        D, fresh = powerset_doctrine((2, 2)), powerset_doctrine((2, 2))
        one, A = D.universe[0], D.universe[1]
        twin = FinObj("A2", A.elements)
        fib = D.fibre(D.product(D.product(one, A).obj, A).obj)
        a = DialObject(one, A, A, next(m for m in fib.elements()
                                       if fib.describe(m) == "{a0.a0, a0.a1, a1.a1}"))
        above = [b for b in (DialObject(one, A, A, beta) for beta in fib.elements())
                 if D.witness_exists(a, b)]
        bs = [DialObject(one, U, U, b.alpha) for U, run in (
            (A, above), (twin, above[:1]), (A, above[1:2]), (twin, above[::-1]), (A, above[:3]))
            for b in run]
        assert len(above) > 4
        made = list(dial._certified(D, a, [(b, *D.witness_tables(a, b)) for b in bs], "kernel witness"))
        for b, p in zip(bs, made, strict=True):
            want = dial_leq(fresh, a, b)
            assert (mor_json(p.f0), mor_json(p.f1)) == (mor_json(want.f0), mor_json(want.f1))
            assert (p.f0.cod.name, p.f1.dom.name) == (b.U.name, f"1*A*{b.X.name}")

    def test_a_kept_pair_is_revalidated_on_every_call(self, monkeypatch, tmp_path, capsys):
        """A doctrine whose `pair_holds` accepts a table pair only the
        first time it sees it: the second `dial_leq` over the same tables
        hands back no kept pair but raises, and `check_preorder` lists
        that chain as a composition failure.  Every `_certified` call
        revalidates once.  `dial complete` searches and revalidates each
        emitted cell once, after `check_preorder`'s calls, and a
        revalidation that fails inside a run exits 2."""
        D = powerset_doctrine((2, 2))
        holds, seen = D.pair_holds, set()

        def once(a, b, f0, f1):
            key = tuple(f0), tuple(f1)
            first = key not in seen
            seen.add(key)
            return first and holds(a, b, f0, f1)
        monkeypatch.setattr(D, "pair_holds", once)
        calls = {"_certified": 0, "_valid": 0}
        for name in calls:
            def spy(*args, name=name, inner=getattr(dial, name)):
                calls[name] += 1
                return inner(*args)
            monkeypatch.setattr(dial, name, spy)

        low, high = bottom_and_top()
        assert dial_leq(D, low, high) is not None
        with pytest.raises(DoctrineError, match="^kernel witness pair failed revalidation$"):
            dial_leq(D, low, high)

        full = build_dial_fibre(D, D.universe[1], quad_cap=48)
        i, j, k = next((i, j, k) for i, j, k in itertools.permutations(range(len(full.quads)), 3)
                       if full.leq(i, j) and full.leq(j, k) and not full.leq(j, i)
                       and not full.leq(k, j))
        quads = [full.quads[n] for n in (i, j, k)]
        rows = [sum(full.leq(m, n) << b for b, n in enumerate((i, j, k))) for m in (i, j, k)]
        assert dial_leq(D, quads[0], quads[1]) is not None
        rep = check_preorder(D, planted(quads, rows))
        assert rep.compositions_checked == 1
        assert rep.composition_failures == (
            (0, 1, 2, "kernel witness pair failed revalidation"),)
        assert calls["_certified"] == calls["_valid"] > 4

        path = tmp_path / "pow.json"
        assert cli.main(["examples", "powerset", "--sizes", "2,2", "--out", str(path)]) == 0
        argv = ["dial", "complete", "--doctrine", str(path), "--fibre", "A", "--quad-cap", "48"]
        fib = build_dial_fibre(powerset_doctrine((2, 2)), D.universe[1], quad_cap=48)
        cells = [(i, j) for i, row in enumerate(fib.rows) for j in _members(row & ~(1 << i))]
        log = []
        for name in ("witness_tables", "pair_holds"):
            def spy(self, a, b, *rest, name=name, inner=getattr(ConcreteDoctrine, name)):
                log.append((name, a, b))
                return inner(self, a, b, *rest)
            monkeypatch.setattr(ConcreteDoctrine, name, spy)
        assert cli.main([*argv, "--pairs", "0"]) == 0
        preorder = log[:]
        log.clear()
        cut = len(cells) // 2
        assert cli.main([*argv, "--pairs", str(cut)]) == 0
        assert log[:len(preorder)] == preorder
        assert log[len(preorder):] == [(name, fib.quads[i], fib.quads[j]) for i, j in cells[:cut]
                                       for name in ("witness_tables", "pair_holds")]

        # A cell inside a run of three or more that check_preorder never asks.
        runs = [list(run) for _, run in itertools.groupby(
            cells, lambda c: (c[0], id(fib.quads[c[1]].U), id(fib.quads[c[1]].X)))]
        asked = {(a, b) for _, a, b in preorder}
        at = next(cells.index(c) for run in runs if len(run) > 2 for c in run[1:-1]
                  if (fib.quads[c[0]], fib.quads[c[1]]) not in asked)
        bad = fib.quads[cells[at][0]], fib.quads[cells[at][1]]

        def fails_at_bad(self, a, b, f0, f1, inner=holds.__func__):
            return (a, b) != bad and inner(self, a, b, f0, f1)
        monkeypatch.setattr(ConcreteDoctrine, "pair_holds", fails_at_bad)
        capsys.readouterr()
        assert cli.main([*argv, "--pairs", str(at)]) == 0
        assert cli.main([*argv, "--pairs", str(at + 1)]) == 2
        assert capsys.readouterr().err.endswith(
            "error: kernel witness pair failed revalidation\n")

    def test_identity_pairs(self, fibre_a):
        for q in fibre_a[0].quads:
            ki, ku = q.I.arity, q.U.arity
            iu = product(q.I, q.U).obj
            iux = product_n((q.I, q.U, q.X))[0]
            p = identity_pair(POW, q)
            assert p.f0 == FinMor(iu, q.U, [e[ki:] for e in iu.elements])
            assert p.f1 == FinMor(iux, q.X, [e[ki + ku:] for e in iux.elements])
            assert (p.f0.dom.name, p.f1.dom.name) == (iu.name, iux.name)

    def test_compositions(self, fibre_a):
        fib, cells, pairs = fibre_a
        quads, composed = fib.quads, 0
        for (i, j), (a, b, p) in list(zip(cells, pairs))[:60]:
            for k in range(len(quads)):
                if not fib.leq(j, k):
                    continue
                c = quads[k]
                q = dial_leq(POW, b, c)
                r = compose_pairs(POW, a, b, c, p, q)
                ki, ku = a.I.arity, a.U.arity
                iu = product(a.I, a.U).obj
                iuz = product_n((a.I, a.U, c.X))[0]
                assert r.f0 == FinMor(iu, c.U, [q.f0(e[:ki] + p.f0(e)) for e in iu.elements])
                assert r.f1 == FinMor(iuz, a.X, [
                    p.f1(e[:ki + ku] + q.f1(e[:ki] + p.f0(e[:ki + ku]) + e[ki + ku:]))
                    for e in iuz.elements])
                composed += 1
        assert composed > 100

    def test_reindexing(self):
        A, B = POW.universe[1], POW.universe[2]
        for f in (FinMor(A, B, (("b1",), ("b0",))), FinMor(A, B, (("b0",), ("b0",)))):
            for q in quads_over(POW, B, cap=48):
                jux = product_n((A, q.U, q.X))[0]
                iux = product_n((B, q.U, q.X))[0]
                m = FinMor(jux, iux, [f(e[:1]) + e[1:] for e in jux.elements])
                assert dial_reindex(POW, f, q) == DialObject(
                    A, q.U, q.X, POW.reindex_el(m, q.alpha))

    def test_a_tampered_counterexample_map_is_rejected(self, fibre_a):
        """Every one-entry change to f1 is judged as the value-built maps
        judge it, and some change breaks the inequality."""
        rejected = 0
        for a, b, p in [abp for abp in fibre_a[2] if len(abp[0].X) > 1][:40]:
            for s in range(len(p.f1.idx)):
                for x in range(len(a.X)):
                    if x == p.f1.idx[s]:
                        continue
                    idx = list(p.f1.idx)
                    idx[s] = x
                    bad = WitnessPair(p.f0, FinMor(p.f1.dom, p.f1.cod, idx=idx))
                    m1, m2 = value_pair_maps(a, b, bad)
                    holds = POW.fibre(m1.dom).leq(POW.reindex_el(m1, a.alpha),
                                                  POW.reindex_el(m2, b.alpha))
                    assert pair_is_valid(POW, a, b, bad) == holds
                    rejected += not holds
        assert rejected > 0


class TestReindexing:
    def test_identity_reindex_is_identity(self):
        A = POW.universe[1]
        for q in quads_over(POW, A, cap=24):
            assert dial_reindex(POW, identity(A), q) == q

    def test_contravariant_functoriality(self):
        A, B = POW.universe[1], POW.universe[2]
        f = FinMor(A, B, (("b1",), ("b0",)))
        g = FinMor(B, A, (("a0",), ("a0",)))
        fg = compose(f, g)
        for q in quads_over(POW, B, cap=24):
            via = dial_reindex(POW, g, dial_reindex(POW, f, q))
            assert dial_reindex(POW, fg, q) == via

    def test_reindexing_preserves_the_order(self):
        A, B = POW.universe[1], POW.universe[2]
        f = FinMor(A, B, (("b1",), ("b0",)))
        quads = quads_over(POW, B, cap=12)
        for a in quads:
            for b in quads:
                if dial_leq(POW, a, b) is None:
                    continue
                ra, rb = dial_reindex(POW, f, a), dial_reindex(POW, f, b)
                assert dial_leq(POW, ra, rb) is not None


class TestCompletedFibres:
    @pytest.mark.parametrize("D", (POW, CHAIN, ANTI), ids=lambda d: d.name)
    def test_preorder_over_the_terminal_object(self, D):
        fib = build_dial_fibre(D, D.universe[0], quad_cap=128)
        rep = check_preorder(D, fib, seed=0)
        assert rep.passed
        assert rep.compositions_checked > 0

    @pytest.mark.parametrize("D", (POW, ANTI), ids=lambda d: d.name)
    def test_compositions_cover_every_composable_triple(self, D, monkeypatch):
        """Asked for more compositions than there are, the sampler draws
        every triple i <= j <= k with i != j and j != k exactly once."""
        fib = build_dial_fibre(D, D.universe[0], quad_cap=12)
        n = len(fib.quads)
        triples = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)
                   if i != j and j != k and fib.leq(i, j) and fib.leq(j, k)]
        drawn = []

        def recording(D, a, b, c, p, q):
            drawn.append(tuple(fib.quads.index(x) for x in (a, b, c)))
            return compose_pairs(D, a, b, c, p, q)

        monkeypatch.setattr(dial, "compose_pairs", recording)
        rep = check_preorder(D, fib, compositions=10**6)
        assert rep.passed and rep.compositions_checked == len(triples) > 0
        assert drawn == triples

    def test_sampling_is_recorded(self):
        quads, total, notes = enumerate_quads(POW, POW.universe[1], quad_cap=50)
        assert total == 1092 and len(quads) <= 50
        assert any("sampled" in n for n in notes)

    @pytest.mark.parametrize("cap", (0, -5))
    def test_cap_below_one_is_rejected(self, cap):
        with pytest.raises(ValueError, match="quad_cap must be at least 1"):
            enumerate_quads(POW, POW.universe[0], quad_cap=cap)

    def test_quad_json_key_order(self):
        q = quads_over(POW, POW.universe[0], cap=4)[1]
        data = q.to_json(POW)
        assert list(data) == ["I", "X", "U", "alpha"]

    def test_pair_json_tables_replay(self):
        quads = quads_over(POW, POW.universe[0], cap=16)
        a = next(q for q in quads if q.alpha == 0)
        b = quads[-1]
        p = dial_leq(POW, a, b)
        data = p.to_json()
        assert set(data) == {"f0", "f1"}
        assert data["f0"]["table"] == [
            b.U.elements.index(p.f0(e)) for e in p.f0.dom.elements]

    def test_classes_collapse_to_the_base_order(self):
        fib = build_dial_fibre(POW, POW.universe[0], quad_cap=128)
        assert len(fib.classes()) == 2


def bottom_and_top():
    """The quadruples (1, 1, 1, bottom) and (1, 1, 1, top) of powerset-2x2:
    the first lies below the second, not above it."""
    one = POW.universe[0]
    fib = POW.fibre(POW.product(POW.product(one, one).obj, one).obj)
    return DialObject(one, one, one, fib.bottom()), DialObject(one, one, one, fib.top())


def planted(quads, rows):
    return DialFibre(quads[0].I, tuple(quads), tuple(rows), len(quads), ())


class TestPlantedPreorders:
    """`check_preorder` on fibres whose order rows are planted, not
    decided: each failure list names what the rows or the doctrine get
    wrong."""

    def test_a_reflexive_failure_is_listed_once(self, monkeypatch):
        """An index whose diagonal bit is unset and whose identity pair
        fails revalidation is one reflexive failure; a pair that fails
        to build in a sampled chain is a composition failure.  The rows
        put 0 below 1 and 1 below 0, but not 0 below itself."""
        D = powerset_doctrine((2, 2))
        monkeypatch.setattr(D, "pair_holds", lambda a, b, f0, f1: False)
        rep = check_preorder(D, planted(bottom_and_top(), (0b10, 0b11)))
        assert rep.reflexive_failures == (0, 1)
        assert rep.transitive_failures == ((0, 1, 0),)
        assert rep.composition_failures == (
            (0, 1, 0, "kernel witness pair failed revalidation"),
            (1, 0, 1, "kernel witness pair failed revalidation"))

    def test_an_unset_diagonal_bit_is_a_reflexive_failure(self):
        rep = check_preorder(POW, planted(bottom_and_top(), (0b10, 0b10)))
        assert rep.reflexive_failures == (0,)
        assert not rep.passed

    def test_a_missing_composite_is_a_transitive_failure(self):
        """Rows that put q0 below q1 and q1 below q2, but not q0 below
        q2, name the triple; the sampled chain still composes."""
        fib = build_dial_fibre(POW, POW.universe[0], quad_cap=128)
        i, j, k = next((i, j, k) for i, j, k in itertools.permutations(range(8), 3)
                       if fib.leq(i, j) and fib.leq(j, k))
        rep = check_preorder(POW, planted([fib.quads[x] for x in (i, j, k)],
                                          (0b011, 0b110, 0b100)))
        assert rep.reflexive_failures == ()
        assert rep.transitive_failures == ((0, 1, 2),)
        assert rep.compositions_checked == 1
        assert rep.composition_failures == ()

    def test_a_cell_without_a_pair_is_a_composition_failure(self):
        """Rows that claim the top quadruple below the bottom one hold
        reflexively and transitively; every sampled chain through that
        cell lacks a witness pair."""
        rep = check_preorder(POW, planted(bottom_and_top(), (0b11, 0b11)))
        assert (rep.reflexive_failures, rep.transitive_failures) == ((), ())
        missing = "order matrix entry has no witness pair"
        assert rep.composition_failures == ((0, 1, 0, missing), (1, 0, 1, missing))


def transitive_cells(rows):
    """The transitivity scan cell by cell: for the first row i with any,
    each j above i whose row has a bit outside i's, with the highest."""
    width = max(rows, default=0).bit_length()
    for i, row in enumerate(rows):
        out = [(i, j, max(k for k in range(width) if rows[j] >> k & 1 and not row >> k & 1))
               for j in range(len(rows)) if row >> j & 1
               and any(rows[j] >> k & 1 and not row >> k & 1 for k in range(width))]
        if out:
            return tuple(out)
    return ()


def scanned_classes(fib):
    """The classes by a scan over the representatives met so far, asking
    `leq` both ways, sorted by representative."""
    seen = {}
    for k in range(len(fib.quads)):
        key = None
        for rep in seen:
            if fib.leq(k, rep) and fib.leq(rep, k):
                key = rep
                break
        seen.setdefault(key if key is not None else k, []).append(k)
    return tuple(tuple(v) for _, v in sorted(seen.items()))


def embedding_cells(D, I, alphas, rows):
    """Theorem 4's embedding failures cell by cell: each (alpha, beta)
    where the fibre's `leq` and the order row disagree."""
    fib = D.fibre(I)
    out = []
    for a, row in zip(alphas, rows):
        for j, b in enumerate(alphas):
            lhs, rhs = fib.leq(a, b), bool(row >> j & 1)
            if lhs != rhs:
                out.append({"alpha": fib.describe(a), "beta": fib.describe(b),
                            "fibreOrder": lhs, "witnessPair": rhs})
    return out


class TestRowReaders:
    """The readers of the order rows (the transitivity scan, the classes
    and Theorem 4's embedding) against the cell-by-cell references
    above, on planted rows."""

    def test_a_repeated_passing_row_is_checked_once(self):
        """Indices 0 and 1 share a passing row; index 3's row fails."""
        quads = quads_over(POW, POW.universe[0], cap=4)
        rows = (0b0011, 0b0011, 0b0111, 0b1100)
        rep = check_preorder(POW, planted(quads, rows), compositions=0)
        assert rep.transitive_failures == transitive_cells(rows) == ((3, 2, 1),)

    def test_a_repeated_failing_row_lists_one_index(self):
        """Indices 0 and 1 share a failing row: the scan stops at 0."""
        quads = quads_over(POW, POW.universe[0], cap=3)
        rows = (0b101, 0b101, 0b110)
        rep = check_preorder(POW, planted(quads, rows), compositions=0)
        assert rep.transitive_failures == transitive_cells(rows) == ((0, 2, 1),)

    @pytest.mark.parametrize("seed", range(24))
    def test_transitivity_on_flipped_rows(self, seed):
        """A decided fibre's rows, a few of whose values repeat many
        times, with up to three cells flipped (none at seed 0)."""
        fib = build_dial_fibre(POW, POW.universe[0], quad_cap=24)
        rng = random.Random(seed)
        rows = list(fib.rows)
        n = len(rows)
        for _ in range(rng.randint(1, 3) if seed else 0):
            rows[rng.randrange(n)] ^= 1 << rng.randrange(n)
        rep = check_preorder(POW, planted(fib.quads, rows), compositions=0)
        assert rep.transitive_failures == transitive_cells(rows)
        assert len(set(rows)) < n / 2

    @pytest.mark.parametrize("seed", range(40))
    def test_classes_match_the_scan(self, seed):
        """Seeded random rows, reflexive or not, from a few values or many."""
        rng = random.Random(seed)
        n = rng.randint(0, 12)
        pool = [rng.getrandbits(n) for _ in range(rng.choice((2, 4, n + 1)))]
        rows = [rng.choice(pool) for _ in range(n)]
        if seed % 2:
            rows = [row | 1 << k for k, row in enumerate(rows)]
        fib = DialFibre(POW.universe[0], tuple(range(n)), tuple(rows), n, ())
        assert fib.classes() == scanned_classes(fib)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("D,base", ((POW, 1), (CHAIN, 0), (ANTI, 1)),
                             ids=("powerset-A", "chain-1", "antichain-A"))
    def test_embedding_failures_on_flipped_rows(self, monkeypatch, D, base, seed):
        """`D.order_rows` wrapped to flip seeded cells: the embedding
        failures are the cell loop's, entry for entry, key order and
        flags' types included.  Antichain over A leaves two predicates
        without a prenex form, so the rows' positions skip them."""
        I = D.universe[base]
        fa = FreenessAnalyzer(D)
        alphas = [a for a in D.fibre(I).elements() if fa.prenex(I, a) is not None]
        rng = random.Random(seed)
        made = []

        def flipped(quads):
            rows = [row ^ rng.getrandbits(len(quads)) & rng.getrandbits(len(quads))
                    for row in type(D).order_rows(D, quads)]
            made.append(rows)
            return rows

        monkeypatch.setattr(D, "order_rows", flipped)
        rep = check_theorem4(D, fa, I, quad_cap=16)
        want = embedding_cells(D, I, alphas, made[0])
        assert len(made) == 1 and want
        assert [list(f.items()) for f in rep.embedding_failures] == \
            [list(f.items()) for f in want]
        assert all(type(f[k]) is bool for f in rep.embedding_failures
                   for k in ("fibreOrder", "witnessPair"))


def signature_rows(D, quads):
    """The order rows cell by cell: `signature_leq` on each pair's two
    signatures."""
    sigs = [K.order_signature(q.alpha, q.I.size, q.U.size, q.X.size, D.nw) for q in quads]
    return [sum(1 << j for j, (_, right) in enumerate(sigs) if K.signature_leq(left, right))
            for left, _ in sigs]


class TestSignatureOrder:
    """The matrix decided from signatures is the one the witness-pair
    search gives (the base class's `order_rows`), cell by cell."""

    @pytest.mark.parametrize("D", (POW, CHAIN, ANTI), ids=lambda d: d.name)
    def test_rows_match_the_pair_search(self, D):
        fib = build_dial_fibre(D, D.universe[0], quad_cap=84)
        assert fib.rows == tuple(Doctrine.order_rows(D, fib.quads))
        assert all((D.witness_tables(a, b) is not None) == fib.leq(i, j)
                   for i, a in enumerate(fib.quads[:12])
                   for j, b in enumerate(fib.quads))

    @pytest.mark.parametrize("D", (POW, CHAIN, ANTI), ids=lambda d: d.name)
    def test_class_rows_match_the_cells_unsampled(self, D):
        """On every fibre of the stock doctrine, every quadruple listed,
        the rows read on signature classes are the rows decided cell by
        cell; over the terminal object, at a small cap, they are also
        the base class's pair search's.  The order reads carriers by
        their sizes alone, so one base of each size stands for its
        fibre."""
        for I in {len(I): I for I in D.universe}.values():
            quads, total, _ = enumerate_quads(D, I, quad_cap=10**6)
            assert len(quads) == total
            assert D.order_rows(quads) == signature_rows(D, quads)
        quads = quads_over(D, D.universe[0], cap=40)
        assert D.order_rows(quads) == Doctrine.order_rows(D, quads)

    @pytest.mark.parametrize("frame", [
        FinitePoset(("w0",), [(0, 0)]), chain_poset(2), antichain_poset(2)],
        ids=["one-world", "chain2", "antichain2"])
    def test_tabular_replay_searches_for_pairs(self, frame):
        """A table-replayed doctrine has no signatures; its matrix comes
        from the exhaustive pair search.  The universe holds every carrier
        the search reindexes over: the one-world replay lists the products
        of the terminal object with A, the Kripke ones the terminal object
        alone."""
        one = unit_obj()
        objs = (one,)
        if len(frame) == 1:
            A = FinObj("A", (("a0",), ("a1",)))
            objs = (one, A)
        carriers = tuple(product_n((one, U, X))[0] for U in objs for X in objs)
        D = ConcreteDoctrine("closed", frame, tuple(dict.fromkeys(objs + carriers)))
        data = doctrine_to_json(D)
        data.pop("generator", None)
        T = doctrine_from_json(data)
        assert T.kind == "tabular"
        fib = build_dial_fibre(T, one, quad_cap=84, universe=objs)
        assert fib.rows == build_dial_fibre(D, one, quad_cap=84, universe=objs).rows
        assert len(fib.classes()) == len(D.fibre(one).elements())

    @pytest.mark.parametrize("D", (POW, CHAIN), ids=lambda d: d.name)
    def test_unsampled_fibres_collapse_to_the_base(self, D):
        """Every quadruple listed, the completed fibre has one order class
        per predicate of the base fibre (the Goedel doctrines)."""
        for I in D.universe:
            _, total, _ = enumerate_quads(D, I, quad_cap=1)
            fib = build_dial_fibre(D, I, quad_cap=total)
            assert len(fib.quads) == total
            assert not any("sampled" in n for n in fib.notes)
            assert len(fib.classes()) == len(D.fibre(I).elements())


def prenex_reference(D, I, U, X, alpha):
    """The predicate over I presented by exists-u forall-x alpha, one
    predicate at a time through `D.along`: the reference for
    `prenex_values`."""
    iu = D.product(I, U)
    return D.along("exists", iu.proj_left)(
        D.along("forall", D.product(iu.obj, X).proj_left)(alpha))


def closed_pair(frame):
    """The concrete Kripke doctrine of ``frame`` on the terminal object
    alone, and its replay from its tables with no generator."""
    D = ConcreteDoctrine("closed", frame, (unit_obj(),))
    data = doctrine_to_json(D)
    data.pop("generator", None)
    return D, doctrine_from_json(data)


class TestPrenexOrder:
    def test_golden_exists_forall(self):
        """The graph of the identity presents bottom over 1, and top
        presents top, read for both in one `prenex_values` call."""
        one, A = POW.universe[0], POW.universe[1]
        carrier = product(product(one, A).obj, A).obj
        fib = POW.fibre(carrier)
        graph = next(m for m in fib.elements()
                     if fib.describe(m) == "{a0.a0, a1.a1}")
        assert prenex_values(POW, one, A, A, [graph, fib.top()]) == \
            [0, POW.fibre(one).top()]

    @pytest.mark.parametrize("D", (
        POW, CHAIN, ANTI, PerPredicate(POW.name, POW.frame, POW.universe, POW.cap)),
        ids=("powerset", "chain", "antichain", "per-predicate"))
    def test_values_match_the_per_predicate_reference(self, D):
        """On every quantifier-free pool over the bases 1, A and B within
        the cap, the values on the plane kernels (or, on `PerPredicate`,
        the base class's body) are the reference's, predicate by
        predicate."""
        fa = FreenessAnalyzer(D)
        pools = 0
        for I, U, X in itertools.product(D.universe, repeat=3):
            try:
                pool = fa.qfree_elements(dial._carrier(D, I, U, X))
            except CapExceeded:
                continue
            assert prenex_values(D, I, U, X, pool) == \
                [prenex_reference(D, I, U, X, a) for a in pool]
            pools += bool(pool)
        assert pools

    @pytest.mark.parametrize("frame", (chain_poset(2), antichain_poset(2), chain_poset(3)),
                             ids=("chain2", "antichain2", "chain3"))
    def test_theorems_agree_with_the_table_replay(self, frame):
        """Theorems 2 and 4 over the terminal object give one report on
        the concrete doctrine, values on the plane kernels, and on its
        replay, values predicate by predicate."""
        D, T = closed_pair(frame)
        assert T.kind == "tabular"
        one = D.universe[0]
        assert check_theorem2(D, FreenessAnalyzer(D), one, samples=60, seed=3) == \
            check_theorem2(T, FreenessAnalyzer(T), one, samples=60, seed=3)
        assert check_theorem4(D, FreenessAnalyzer(D), one) == \
            check_theorem4(T, FreenessAnalyzer(T), one)


class TestTheorem2:
    @pytest.mark.parametrize("D", (POW, CHAIN, ANTI), ids=lambda d: d.name)
    def test_seeded_samples_agree(self, D):
        rep = check_theorem2(D, FreenessAnalyzer(D), D.universe[0],
                             samples=60, seed=1)
        assert rep.passed and rep.checked == 60
        assert rep.mismatches == ()

    def test_no_pool_checks_nothing(self):
        """At cap 1 every carrier over the terminal object is skipped, so
        no pair is sampled and the report keeps the skip notes."""
        D = powerset_doctrine((2, 2), cap=1)
        rep = check_theorem2(D, FreenessAnalyzer(D), D.universe[0])
        assert rep.passed and rep.checked == 0 and rep.mismatches == ()
        assert len(rep.notes) == 9 and all("skipped" in n for n in rep.notes)

    def test_witness_exists_is_the_pair_search_on_every_pair(self):
        """`D.witness_exists`, row by row, is the base class's exhaustive
        pair search on every pair of chain2's fibre over 1 on the universe
        {1, A}, failing pairs included."""
        one, A = CHAIN.universe[:2]
        quads, total, _ = enumerate_quads(CHAIN, one, quad_cap=4096, universe=(one, A))
        assert len(quads) == total == 102
        verdicts = [(CHAIN.witness_exists(a, b), Doctrine.witness_tables(CHAIN, a, b) is not None)
                    for a in quads for b in quads]
        assert all(mine == searched for mine, searched in verdicts)
        assert {mine for mine, _ in verdicts} == {True, False}

    def test_every_pair_of_the_pool_over_a(self):
        """Theorem 2 on every pair of powerset-2x2's quantifier-free pool
        over A, unsampled: `D.witness_exists` is `D.order_rows`, and both
        are the order of the prenex values in P(A)."""
        fa = FreenessAnalyzer(POW)
        A = POW.universe[1]
        quads, total, _ = enumerate_quads(POW, A, pool=fa.qfree_elements, quad_cap=4096)
        assert len(quads) == total == 1092
        values = []
        for _, run in itertools.groupby(quads, lambda q: (q.U.name, q.X.name)):
            run = list(run)
            values += prenex_values(POW, A, run[0].U, run[0].X, [q.alpha for q in run])
        up = POW.fibre(A).uppers(values)
        exists = POW.witness_exists
        for a, row, value in zip(quads, POW.order_rows(quads), values):
            assert row == up(value)
            assert row == sum(1 << j for j, b in enumerate(quads) if exists(a, b))

    def test_reports_are_reproducible(self):
        fa = FreenessAnalyzer(POW)
        one = POW.universe[0]
        r1 = check_theorem2(POW, fa, one, samples=40, seed=7)
        r2 = check_theorem2(POW, fa, one, samples=40, seed=7)
        assert r1.checked == r2.checked and r1.mismatches == r2.mismatches


class TestTheorem4:
    def test_powerset_all_fibres(self):
        fa = FreenessAnalyzer(POW)
        expected = {"1": (4, 82), "A": (16, 1092), "B": (16, 1092)}
        for I in POW.universe:
            rep = check_theorem4(POW, fa, I, quad_cap=4096)
            assert rep.passed, (I.name, rep.embedding_failures,
                                rep.surjectivity_failures)
            assert (rep.embedding_checked,
                    rep.surjectivity_checked) == expected[I.name]
            assert rep.prenex_missing == ()

    @pytest.mark.parametrize("D,emb,sur", ((CHAIN, 9, 363), (ANTI, 16, 82)),
                             ids=("chain", "antichain"))
    def test_kripke_over_the_terminal_object(self, D, emb, sur):
        rep = check_theorem4(D, FreenessAnalyzer(D), D.universe[0],
                             quad_cap=4096)
        assert rep.passed
        assert (rep.embedding_checked, rep.surjectivity_checked) == (emb, sur)

    def test_antichain_capped_presentations_are_notes(self):
        """Over A on antichain2 the prenex search for {a0} and {a1} passes
        over the partners over the cap and finds nothing: both are noted
        as skipped, not missing.  Above the cap both have a presentation
        and the theorem holds on all 16 predicates."""
        rep = check_theorem4(ANTI, FreenessAnalyzer(ANTI), ANTI.universe[1],
                             quad_cap=4096)
        assert rep.passed and rep.prenex_missing == ()
        assert rep.notes[4:] == tuple(
            f"prenex of {{{a}}} over A skipped: fibre over A*A*A has 65536 predicates; "
            "cap 4096" for a in ("a1", "a0"))
        assert rep.embedding_failures == ()
        assert rep.embedding_checked == 196
        D = kripke_doctrine(antichain_poset(2), (2, 2), cap=65536)
        rep = check_theorem4(D, FreenessAnalyzer(D), D.universe[1], quad_cap=4096)
        assert rep.passed and rep.notes == ()
        assert (rep.embedding_checked, rep.surjectivity_checked) == (256, 1092)

    def test_a_cap_overrun_in_a_verdict_is_a_skip_note(self):
        """On the one-world closed universe {1, A, 1*A*A}, the freeness
        verdicts over each carrier I*U*X read a fibre over the cap:
        Theorem 4 notes the carrier as skipped, as Theorem 2 does, and
        raises nothing.  The prenex search of both predicates over 1
        passes over every partner for the same cap, so each is noted as
        skipped, not missing, and the report passes as Theorem 2's
        does."""
        one, A = unit_obj(), FinObj("A", (("a0",), ("a1",)))
        D = ConcreteDoctrine("closed", FinitePoset(("w0",), [(0, 0)]),
                             (one, A, product_n((one, A, A))[0]))
        rep = check_theorem4(D, FreenessAnalyzer(D), one)
        assert rep.surjectivity_checked == 0
        assert rep.notes[0] == ("quads over 1*1*1 skipped: "
                                "fibre over 1*A*A*1*A*A has 65536 predicates; cap 4096")
        assert len(rep.notes) == 11 and all("skipped" in n for n in rep.notes)
        assert rep.notes[9:] == tuple(
            f"prenex of {p} over 1 skipped: fibre over 1*A*A*1*A*A has 65536 predicates; "
            "cap 4096" for p in ("{}", "{*}"))
        assert rep.prenex_missing == () and rep.embedding_checked == 0 and rep.passed
        two = check_theorem2(D, FreenessAnalyzer(D), one)
        assert two.passed and two.checked == 0
        assert [n.removeprefix("quads over ") for n in rep.notes[:9]] == list(two.notes)

    def test_embedding_agrees_with_the_order_comparison_path(self):
        """Cross-check the two characterisation code paths on every pair:
        the direct fibre order, the order between reconstructed prenex
        presentations (each read by `prenex_values` alone), and
        witness-pair existence must coincide."""
        fa = FreenessAnalyzer(POW)
        A = POW.universe[1]
        fib = POW.fibre(A)
        quads = {}
        for alpha in fib.elements():
            w = fa.prenex(A, alpha)
            quads[alpha] = DialObject(A, w.u_obj, w.x_obj, w.beta)
        rebuilt = {a: prenex_values(POW, q.I, q.U, q.X, [q.alpha])[0]
                   for a, q in quads.items()}
        assert all(rebuilt[a] == a for a in quads)
        for a, qa in quads.items():
            for b, qb in quads.items():
                direct = fib.leq(a, b)
                witnessed = dial_leq(POW, qa, qb) is not None
                assert direct == fib.leq(rebuilt[a], rebuilt[b]) == witnessed

    def test_prenex_forms_ask_each_quantifier_once(self, monkeypatch):
        """Theorem 4 over A on a fresh powerset-2x2 asks D's quantifiers
        once per (index table, predicate): the prenex search reads them
        through `D.along`, and `prenex_values` asks neither, since a
        concrete doctrine's `D.chain_values` runs on the plane kernels."""
        D = powerset_doctrine((2, 2))
        asked = []
        for name in ("exists_along", "forall_along"):
            raw = getattr(ConcreteDoctrine, name)
            monkeypatch.setattr(D, name, lambda f, alpha, name=name, raw=raw: asked.append(
                (name, f.idx, len(f.cod), alpha)) or raw(D, f, alpha))
        assert check_theorem4(D, FreenessAnalyzer(D), D.universe[1], quad_cap=4096).passed
        assert {k[0] for k in asked} == {"exists_along", "forall_along"}
        assert len(asked) == len(set(asked))
