import pytest

from dialectica import _kernels as K
from dialectica import dial
from dialectica.dial import (
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
    prenex_order,
)
from dialectica.doctrine import (
    ConcreteDoctrine,
    Doctrine,
    DoctrineError,
    doctrine_from_json,
    doctrine_to_json,
    kripke_doctrine,
    powerset_doctrine,
)
from dialectica.fincat import (
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
from dialectica.posets import FinitePoset, antichain_poset, chain_poset

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


class TestSignatureOrder:
    """The matrix decided from signatures is the one the witness-pair
    search gives (the base class's `order_rows`), cell by cell."""

    @pytest.mark.parametrize("D", (POW, CHAIN, ANTI), ids=lambda d: d.name)
    def test_rows_match_the_pair_search(self, D):
        fib = build_dial_fibre(D, D.universe[0], quad_cap=84)
        assert fib.rows == tuple(Doctrine.order_rows(D, fib.quads))
        assert all(D.has_pair(a, b) == fib.leq(i, j)
                   for i, a in enumerate(fib.quads[:12])
                   for j, b in enumerate(fib.quads))

    def test_signatures_are_kept_by_the_doctrine(self, monkeypatch):
        """A completed fibre and a Theorem 4 check over one doctrine read
        one table of signatures on D, so each is computed once."""
        D = powerset_doctrine((2, 2))
        keys = []
        signature = K.order_signature
        monkeypatch.setattr(K, "order_signature",
                            lambda *args: keys.append(args) or signature(*args))
        build_dial_fibre(D, D.universe[0])
        assert check_theorem4(D, FreenessAnalyzer(D), D.universe[0]).passed
        assert keys and len(keys) == len(set(keys)) == len(D._sigs)

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


class TestPrenexOrder:
    def test_golden_exists_forall(self):
        one, A = POW.universe[0], POW.universe[1]
        carrier = product(product(one, A).obj, A).obj
        fib = POW.fibre(carrier)
        graph = next(m for m in fib.elements()
                     if fib.describe(m) == "{a0.a0, a1.a1}")
        assert prenex_order(POW, one, A, A, graph) == 0
        assert prenex_order(POW, one, A, A, fib.top()) == \
            POW.fibre(one).top()


class TestTheorem2:
    @pytest.mark.parametrize("D", (POW, CHAIN, ANTI), ids=lambda d: d.name)
    def test_seeded_samples_agree(self, D):
        rep = check_theorem2(D, FreenessAnalyzer(D), D.universe[0],
                             samples=60, seed=1)
        assert rep.passed and rep.checked == 60
        assert rep.mismatches == ()

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

    def test_antichain_missing_presentations_are_reported(self):
        rep = check_theorem4(ANTI, FreenessAnalyzer(ANTI), ANTI.universe[1],
                             quad_cap=4096)
        assert not rep.passed
        assert sorted(rep.prenex_missing) == ["{a0}", "{a1}"]
        assert rep.embedding_failures == ()
        assert rep.embedding_checked == 196

    def test_embedding_agrees_with_the_order_comparison_path(self):
        """Cross-check the two characterisation code paths on every pair:
        the direct fibre order, the order between reconstructed prenex
        presentations, and witness-pair existence must coincide."""
        fa = FreenessAnalyzer(POW)
        A = POW.universe[1]
        fib = POW.fibre(A)
        quads = {}
        for alpha in fib.elements():
            w = fa.prenex(A, alpha)
            quads[alpha] = DialObject(A, w.u_obj, w.x_obj, w.beta)
        for a, qa in quads.items():
            assert prenex_order(POW, qa.I, qa.U, qa.X, qa.alpha) == a
            for b, qb in quads.items():
                direct = fib.leq(a, b)
                rebuilt = fib.leq(
                    prenex_order(POW, qa.I, qa.U, qa.X, qa.alpha),
                    prenex_order(POW, qb.I, qb.U, qb.X, qb.alpha))
                witnessed = dial_leq(POW, qa, qb) is not None
                assert direct == rebuilt == witnessed

    def test_prenex_forms_ask_each_quantifier_once(self, monkeypatch):
        """Theorem 4 over A on a fresh powerset-2x2 asks D's quantifiers
        once per (index table, predicate): the prenex search and
        `prenex_order` both read them through `D.along`."""
        D = powerset_doctrine((2, 2))
        asked = []
        for name in ("exists_along", "forall_along"):
            raw = getattr(ConcreteDoctrine, name)
            monkeypatch.setattr(D, name, lambda f, alpha, name=name, raw=raw: asked.append(
                (name, f.idx, len(f.cod), alpha)) or raw(D, f, alpha))
        assert check_theorem4(D, FreenessAnalyzer(D), D.universe[1], quad_cap=4096).passed
        assert {k[0] for k in asked} == {"exists_along", "forall_along"}
        assert len(asked) == len(set(asked))
