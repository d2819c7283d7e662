import itertools

import pytest

from dialectica import _kernels as K
from dialectica.dial import check_theorem4
from dialectica.doctrine import (
    ConcreteDoctrine,
    Doctrine,
    doctrine_from_json,
    doctrine_to_json,
    kripke_doctrine,
    powerset_doctrine,
    up_columns,
)
from dialectica.fincat import (
    CapExceeded,
    FinMor,
    FinObj,
    enumerate_morphisms,
    fin_obj,
    product,
    unit_obj,
)
from dialectica.freeness import FreenessAnalyzer
from dialectica.posets import FinitePoset, antichain_poset, chain_poset

POW = powerset_doctrine((2, 2))
CHAIN = kripke_doctrine(chain_poset(2), (2, 2))
ANTI = kripke_doctrine(antichain_poset(2), (2, 2))
ANTI3 = kripke_doctrine(antichain_poset(3), (2,))


def census(D):
    fa = FreenessAnalyzer(D)
    out = {}
    for obj in D.universe:
        fib = D.fibre(obj)
        els = fib.elements()
        ex = [a for a in els if fa.is_existential_free(obj, a)]
        qf = [a for a in ex if fa.is_universal_free(obj, a)]
        out[obj.name] = (len(ex), len(qf), len(els))
    return out


class TestCensus:
    def test_powerset_everything_is_quantifier_free(self):
        assert census(POW) == {"1": (2, 2, 2), "A": (4, 4, 4), "B": (4, 4, 4)}

    def test_chain_frame_everything_is_quantifier_free(self):
        assert census(CHAIN) == {"1": (3, 3, 3), "A": (9, 9, 9), "B": (9, 9, 9)}

    def test_antichain_frame_census(self):
        assert census(ANTI) == {"1": (3, 2, 4), "A": (9, 4, 16), "B": (9, 4, 16)}

    def test_quantifier_free_needs_both_freedoms(self):
        fa = FreenessAnalyzer(ANTI)
        A = ANTI.universe[1]
        for alpha in ANTI.fibre(A).elements():
            expect = (fa.is_existential_free(A, alpha)
                      and fa.is_universal_free(A, alpha))
            assert fa.quantifier_free(A, alpha) == expect


class TestSideConditions:
    @pytest.mark.parametrize("D", (POW, CHAIN), ids=lambda d: d.name)
    def test_extremes_are_free_on_complete_frames(self, D):
        fa = FreenessAnalyzer(D)
        for obj in D.universe:
            fib = D.fibre(obj)
            assert fa.is_existential_free(obj, fib.top())
            assert fa.quantifier_free(obj, fib.bottom())

    def test_antichain_top_is_not_existential_free(self):
        fa = FreenessAnalyzer(ANTI)
        for obj in ANTI.universe:
            assert not fa.is_existential_free(obj, ANTI.fibre(obj).top())

    def test_antichain_bottom_is_not_quantifier_free(self):
        fa = FreenessAnalyzer(ANTI)
        for obj in ANTI.universe:
            assert not fa.quantifier_free(obj, ANTI.fibre(obj).bottom())

    def test_golden_failing_triple_for_top(self):
        """Top over the terminal object is covered by the two-point
        existential whose branches hold at different worlds; no single
        branch works, so top is not an existential splitting."""
        fa = FreenessAnalyzer(ANTI)
        one = ANTI.universe[0]
        rep = fa.existential_free_report(one, ANTI.fibre(one).top())
        assert not rep.passed
        probe, along, pulled, split = rep.failing
        assert probe == "1" and along == "1->1#0"
        assert pulled == ANTI.fibre(one).top()
        partner, beta = split.failure
        assert partner == "A"
        p = product(one, ANTI.universe[1])
        assert ANTI.fibre(p.obj).describe(beta) == "{a0@w0, a1@w1}"

    def test_golden_triple_recheck(self):
        """Replay the recorded failure: the cover does entail the
        existential, yet neither constant graph recovers top."""
        one, A = ANTI.universe[0], ANTI.universe[1]
        p = product(one, A)
        fib1 = ANTI.fibre(one)
        beta = next(b for b in ANTI.fibre(p.obj).elements()
                    if ANTI.fibre(p.obj).describe(b) == "{a0@w0, a1@w1}")
        top = fib1.top()
        assert fib1.leq(top, ANTI.exists_along(p.proj_left, beta))
        for point in A.elements:
            graph = FinMor(one, p.obj, (() + point,))
            assert not fib1.leq(top, ANTI.reindex_el(graph, beta))


def covers(D, A, alpha):
    """Every (B, product, beta) whose existential image covers alpha."""
    fib = D.fibre(A)
    for B in D.universe:
        p = D.product(A, B)
        for beta in D.fibre(p.obj).elements():
            if fib.leq(alpha, D.exists_along(p.proj_left, beta)):
                yield B, p, beta


class TestSplittingWitnesses:
    @pytest.mark.parametrize("D", (POW, CHAIN, ANTI), ids=lambda d: d.name)
    def test_witness_graphs_recheck(self, D):
        """Every cover of a splitting predicate has a choice map, and its
        graph, rebuilt from the index table, pulls the cover back above
        the predicate."""
        fa = FreenessAnalyzer(D)
        A = D.universe[1]
        fib = D.fibre(A)
        for alpha in fib.elements():
            if not fa.existential_splitting(A, alpha).passed:
                continue
            for B, p, beta in covers(D, A, alpha):
                g = D.choice_index("existential", A, B, p, alpha, beta)
                graph = FinMor(A, p.obj, tuple(
                    e + B.elements[b] for e, b in zip(A.elements, g)))
                assert fib.leq(alpha, D.reindex_el(graph, beta))

    def test_vacuous_covers_do_not_count(self):
        fa = FreenessAnalyzer(POW)
        A = POW.universe[1]
        assert fa.existential_splitting(A, 0).passed
        judged = list(covers(POW, A, 0))
        assert judged
        assert all(POW.choice_index("existential", A, B, p, 0, beta) is not None
                   for B, p, beta in judged)


class TestChoiceMap:
    """The choice-map decision (`D.choice_index`: the bitmask kernel on
    concrete doctrines, the base class's map search on table replays)
    must name the first map the exhaustive search accepts, and None
    exactly when it finds none; the revalidated map `D.choice_map` builds
    from it is that map."""

    @staticmethod
    def first_fitting(D, kind, A, p, alpha, beta):
        fib_a = D.fibre(A)
        for g in enumerate_morphisms(A, p.right):
            pulled = D.reindex_el(FinMor(A, p.obj, tuple(e + g(e) for e in A.elements)), beta)
            if (fib_a.leq(alpha, pulled) if kind == "existential"
                    else fib_a.leq(pulled, alpha)):
                return g.idx
        return None

    @pytest.mark.parametrize("kind", ("existential", "universal"))
    def test_kernel_returns_the_first_fitting_map(self, kind):
        for D in (POW, CHAIN, ANTI):
            outcomes = set()
            for A, B in itertools.product(D.universe, repeat=2):
                p = D.product(A, B)
                for alpha, beta in itertools.product(
                        D.fibre(A).elements(), D.fibre(p.obj).elements()):
                    first = self.first_fitting(D, kind, A, p, alpha, beta)
                    g = D.choice_index(kind, A, B, p, alpha, beta)
                    assert g == first == Doctrine.choice_index(D, kind, A, B, p, alpha, beta)
                    if g is not None:
                        assert D.choice_map(kind, A, B, p, alpha, beta, g).idx == first
                    outcomes.add(first is None)
            assert outcomes == {True, False}, D.name

    @pytest.mark.parametrize("kind", ("existential", "universal"))
    def test_replay_decides_as_the_kernel(self, kind):
        """A generator-free replay whose universe holds A*A decides every
        cover over carrier pairs from 1 and A by the map search; its
        answers must be the kernel's, predicate for predicate."""
        A = fin_obj("A", ["a0", "a1"])
        D = ConcreteDoctrine("twin", antichain_poset(2), (unit_obj(), A, product(A, A).obj))
        data = doctrine_to_json(D)
        data.pop("generator", None)
        T = doctrine_from_json(data)
        assert T.kind == "tabular"
        outcomes = set()
        for (A1, B1), (A2, B2) in zip(itertools.product(D.universe[:2], repeat=2),
                                      itertools.product(T.universe[:2], repeat=2)):
            p1, p2 = D.product(A1, B1), T.product(A2, B2)
            pairs = zip(itertools.product(D.fibre(A1).elements(), D.fibre(p1.obj).elements()),
                        itertools.product(T.fibre(A2).elements(), T.fibre(p2.obj).elements()))
            for (alpha1, beta1), (alpha2, beta2) in pairs:
                g = D.choice_index(kind, A1, B1, p1, alpha1, beta1)
                assert T.choice_index(kind, A2, B2, p2, alpha2, beta2) == g
                outcomes.add(g is None)
        assert outcomes == {True, False}


class Searched(ConcreteDoctrine):
    """A concrete doctrine that decides freeness by the base class's
    searches: no verdict per column, so every free report walks the
    maps, and every cover by the map search."""

    pointwise = False
    choice_index = Doctrine.choice_index


def MapScan(D):
    """An analyzer giving every free verdict of D by the map scan, so the
    universal covers of its splitting (`exfree_elements`) come from the
    scan as well."""
    return FreenessAnalyzer(Searched(D.name, D.frame, D.universe, D.cap))


class TestColumnScan:
    """On a concrete doctrine a free verdict is read from the prime
    columns, and only a failing report walks the maps, deciding each
    cover by the kernel; the walk with every cover decided by the map
    search, as a table replay decides, is its oracle, failing map
    included."""

    @staticmethod
    def failing_maps(D, kind, objs):
        """Check the two scans agree over objs; the failing map keys."""
        fa, scan = FreenessAnalyzer(D), MapScan(D)
        keys = []
        for I in objs:
            for alpha in D.fibre(I).elements():
                rep = fa._free_report(kind, I, alpha)
                by_maps = scan.first_failing_map(kind, I, alpha)
                assert rep.passed == (by_maps is None)
                if by_maps is not None:
                    assert rep.failing[:3] == by_maps[:3], (I.name, alpha)
                    assert rep.failing[3].failure == by_maps[3].failure
                    keys.append(rep.failing[1])
        return keys

    @pytest.mark.parametrize("D", (POW, CHAIN, ANTI), ids=lambda d: d.name)
    @pytest.mark.parametrize("kind", ("existential", "universal"))
    def test_reports_equal_the_map_scan(self, D, kind):
        objs = list(D.universe) + [product(a, b).obj
                                   for a in D.universe for b in D.universe]
        assert bool(self.failing_maps(D, kind, objs)) == (D is ANTI)

    @pytest.mark.parametrize("report_first", (True, False), ids=("report", "verdict"))
    @pytest.mark.parametrize("D", (POW, CHAIN, ANTI, ANTI3), ids=lambda d: d.name)
    def test_verdicts_equal_the_map_scan(self, D, report_first):
        """One analyzer over every carrier of D and both kinds, so a
        verdict decided for one carrier is read for every other carrier
        of its size with the same set of columns; each verdict, asked
        before or after the report, must still be the map scan's."""
        fa, scan = FreenessAnalyzer(D), MapScan(D)
        objs = list(D.universe) + [D.product(a, b).obj
                                   for a in D.universe for b in D.universe]
        tests = {"existential": fa.is_existential_free, "universal": fa.is_universal_free}
        asked = 0
        for kind, test in tests.items():
            for I in objs:
                for alpha in D.fibre(I).elements():
                    if report_first:
                        rep = fa._free_report(kind, I, alpha)
                        verdict = test(I, alpha)
                    else:
                        verdict = test(I, alpha)
                        rep = fa._free_report(kind, I, alpha)
                    by_maps = scan.first_failing_map(kind, I, alpha)
                    assert verdict == rep.passed == (by_maps is None), (kind, I.name, alpha)
                    if by_maps is not None:
                        assert rep.failing[:3] == by_maps[:3]
                        assert rep.failing[3].failure == by_maps[3].failure
                    asked += 1
        assert len(fa._verdicts) < asked

    @pytest.mark.parametrize("kind", ("existential", "universal"))
    def test_column_order_picks_the_first_failing_map(self, kind):
        """Over three incomparable worlds several columns fail on their
        own, so the order of the maps decides which one is reported."""
        keys = self.failing_maps(ANTI3, kind, ANTI3.universe[1:])
        assert {"1->A#0", "1->A#1"} <= set(keys)

    def test_cap_below_the_map_count_raises_as_the_map_scan(self):
        """Maps from 1 fit the cap, maps A -> A x B (16) do not; the
        verdict raises as the report does, on every call."""
        D = powerset_doctrine((2, 2), cap=4)
        I = product(D.universe[1], D.universe[2]).obj
        alpha = D.fibre(I).top()
        with pytest.raises(CapExceeded) as by_maps:
            MapScan(D).first_failing_map("existential", I, alpha)
        with pytest.raises(CapExceeded) as by_columns:
            FreenessAnalyzer(D).existential_free_report(I, alpha)
        assert str(by_maps.value) == "16 morphisms exceed cap 4"
        assert str(by_columns.value) == str(by_maps.value)
        fa = FreenessAnalyzer(D)
        for _ in range(2):
            with pytest.raises(CapExceeded) as by_verdict:
                fa.is_existential_free(I, alpha)
            assert str(by_verdict.value) == str(by_maps.value)

    def test_a_verdict_is_not_read_across_the_cap(self):
        """Top over A x B and over (A x B) x A has one column; at cap 16
        maps A -> A x B fit and maps A -> (A x B) x A (64) do not, so
        the first verdict passes and the second still raises."""
        D = powerset_doctrine((2, 2), cap=16)
        fa = FreenessAnalyzer(D)
        small = D.product(D.universe[1], D.universe[2]).obj
        large = D.product(small, D.universe[1]).obj
        assert fa.is_existential_free(small, D.fibre(small).top())
        with pytest.raises(CapExceeded, match="^64 morphisms exceed cap 16$"):
            fa.is_existential_free(large, D.fibre(large).top())


def _reflexive(n, *pairs):
    return [(i, i) for i in range(n)] + list(pairs)


# The eight posets on one to three points, up to isomorphism.
SMALL_FRAMES = {
    "one": FinitePoset("a", _reflexive(1)),
    "chain2": FinitePoset("ab", _reflexive(2, (0, 1))),
    "antichain2": FinitePoset("ab", _reflexive(2)),
    "chain3": FinitePoset("abc", _reflexive(3, (0, 1), (1, 2), (0, 2))),
    "antichain3": FinitePoset("abc", _reflexive(3)),
    "bottom": FinitePoset("abc", _reflexive(3, (0, 1), (0, 2))),
    "top": FinitePoset("abc", _reflexive(3, (0, 2), (1, 2))),
    "chain2+1": FinitePoset("abc", _reflexive(3, (0, 1))),
}


class TestCarrierKeys:
    """Splitting reports and existential-free lists are kept per
    `D._carrier_key`: per size on a concrete doctrine, per named carrier
    on a replay."""

    def test_carriers_of_one_size_share_their_memos(self):
        fa = MapScan(ANTI)
        A, B = ANTI.universe[1:]
        assert fa.exfree_elements(A) is fa.exfree_elements(B)
        for alpha in ANTI.fibre(A).elements():
            for kind in ("existential", "universal"):
                assert fa._splitting(kind, A, alpha) is fa._splitting(kind, B, alpha)
        # the covers over A*1, A*A and A*B, kept by size
        assert set(fa._free_elements) == {2, 4}

    def test_a_replay_keeps_each_carrier_apart(self):
        data = doctrine_to_json(ANTI)
        del data["generator"]
        T = doctrine_from_json(data)
        A, B = T.universe[1:]
        assert T._carrier_key(A) != T._carrier_key(B)
        assert T._carrier_key(A) == T._carrier_key(FinObj("A", A.elements))


class MapWalk(FreenessAnalyzer):
    """Every concrete verdict by the map walk the reports keep."""

    def _column_verdict(self, kind, I, alpha, cols):
        return self.first_failing_map(kind, I, alpha) is None


def _outcome(ask):
    try:
        return "answer", ask()
    except CapExceeded as exc:
        return "raise", str(exc)


class TestPrimeColumns:
    """A concrete free verdict is read from the table of prime columns;
    the map scan is its oracle, and the map walk its oracle for caps."""

    @pytest.mark.parametrize("name", SMALL_FRAMES)
    def test_verdicts_equal_the_map_scan_on_every_small_frame(self, name):
        """Over a chain every column is prime, so everything is free;
        over any other frame the union of two incomparable up-sets is not."""
        D = kripke_doctrine(SMALL_FRAMES[name], (2,))
        fa, scan = FreenessAnalyzer(D), MapScan(D)
        objs = list(D.universe) + [D.product(a, b).obj
                                   for a in D.universe for b in D.universe]
        tests = {"existential": fa.is_existential_free, "universal": fa.is_universal_free}
        seen = set()
        for kind, test in tests.items():
            for I in objs:
                for alpha in D.fibre(I).elements():
                    verdict = test(I, alpha)
                    assert verdict == (scan.first_failing_map(kind, I, alpha) is None), (
                        kind, I.name, alpha)
                    seen.add(verdict)
        assert seen == ({True} if name in ("one", "chain2", "chain3") else {True, False})
        assert fa._primes and not fa._split

    @pytest.mark.parametrize("frame", (chain_poset(1), antichain_poset(2)), ids=len)
    def test_a_universe_with_an_empty_object_keeps_the_walk(self, frame):
        """With no partner element a cover of mixed columns is vacuous, so
        verdicts are not per column: read from the prime table, 216 of
        these 712 would disagree with the map scan."""
        E = FinObj("E", (), arity=1)
        D = ConcreteDoctrine("empty", frame, (unit_obj(), fin_obj("A", ["a0", "a1"]), E))
        fa, scan = FreenessAnalyzer(D), MapScan(D)
        objs = list(D.universe) + [D.product(a, b).obj
                                   for a in D.universe for b in D.universe]
        for kind in ("existential", "universal"):
            for I in objs:
                for alpha in D.fibre(I).elements():
                    assert fa._passes(kind, I, alpha) == (
                        scan.first_failing_map(kind, I, alpha) is None), (kind, I.name, alpha)
        assert fa._free and not fa._verdicts and not fa._primes

    @pytest.mark.parametrize("D, base", [(POW, 1), (CHAIN, 0)], ids=("powerset-A", "chain2-1"))
    def test_theorem4_runs_no_gap_kernel(self, monkeypatch, D, base):
        calls = []

        def counted(search):
            def run(*args):
                calls.append(search.__name__)
                return search(*args)
            return run
        monkeypatch.setattr(K, "exists_gap_g", counted(K.exists_gap_g))
        monkeypatch.setattr(K, "forall_gap_g", counted(K.forall_gap_g))
        assert check_theorem4(D, FreenessAnalyzer(D), D.universe[base]).passed
        assert calls == []

    def test_only_up_set_columns_are_tabled(self):
        """Only up-set columns are columns of predicates.  Over a chain
        of twelve worlds, 13 of the 4 096 column values, and every one of
        them is prime; over three incomparable worlds, at partner size 2,
        some are not."""
        for D in (kripke_doctrine(chain_poset(12), (1,)), ANTI3):
            ups = sum(1 << c for c in up_columns(D.frame.up, D.nw))
            fa = FreenessAnalyzer(D)
            for kind in ("existential", "universal"):
                table = fa._prime_columns(kind, 2)
                assert table & ~ups == 0 and table
                assert (table == ups) == (D is not ANTI3)

    @pytest.mark.parametrize("D", [
        *(make(cap=cap) for make in (
            lambda cap: powerset_doctrine((2, 2), cap=cap),
            lambda cap: powerset_doctrine((2, 3), cap=cap),
            lambda cap: kripke_doctrine(antichain_poset(2), (2, 2), cap=cap),
            lambda cap: kripke_doctrine(antichain_poset(3), (1, 2), cap=cap),
        ) for cap in (10, 16, 300)),
        kripke_doctrine(antichain_poset(2), (2, 3), cap=16),
        powerset_doctrine((5,), cap=4),
        powerset_doctrine((3,), cap=8),
    ], ids=lambda D: f"{D.name}-cap{D.cap}")
    def test_caps_raise_as_the_walk(self, D):
        """Both analyzers are asked the same questions in the same order
        over every carrier whose fibre fits the cap: each answer, or the
        message of each CapExceeded, must be the walk's.  On antichain2
        with sizes 2,3 at cap 16, top over 1 fails at partner A before
        the fibre over 1*B overruns the cap, so it is not free; products
        over the cap and maps over the cap end the last two."""
        def answers(fa, I, alphas):
            return [_outcome(lambda: fa.exfree_elements(I))] + [
                _outcome(lambda: test(I, alpha)) for alpha in alphas
                for test in (fa.is_existential_free, fa.is_universal_free)]

        by_columns, by_walk = FreenessAnalyzer(D), MapWalk(D)
        objs = list(D.universe) + [D.product(a, b).obj
                                   for a in D.universe for b in D.universe
                                   if len(a) * len(b) <= D.cap]
        for I in objs:
            how, alphas = _outcome(D.fibre(I).elements)
            if how == "answer":
                assert answers(by_columns, I, alphas) == answers(by_walk, I, alphas), I.name


class TestGodelReports:
    @pytest.mark.parametrize("D", (POW, CHAIN, ANTI), ids=lambda d: d.name)
    def test_all_five_conditions_pass(self, D):
        rep = FreenessAnalyzer(D).godel_report()
        assert rep.passed
        assert rep.parts() == {
            "cartesian_closed": True,
            "existential_universal": True,
            "enough_existential_free": True,
            "existential_free_stable_under_forall": True,
            "subdoctrine_enough_universal_free": True,
        }

    def test_skolem_report_skips_the_subdoctrine_clause(self):
        rep = FreenessAnalyzer(POW).skolem_report()
        assert rep.passed and rep.enough_universal_free is None
        assert "subdoctrine_enough_universal_free" not in rep.parts()

    def test_failing_reports_name_universe_objects(self):
        """Memoised reports must keep the object they were asked about,
        even when another object carries the same elements."""
        fa = FreenessAnalyzer(ANTI)
        fa.godel_report()
        one = ANTI.universe[0]
        rep = fa.existential_free_report(one, ANTI.fibre(one).top())
        assert rep.failing[0] == "1" and rep.failing[1] == "1->1#0"


class TestEnoughFree:
    def test_a_partner_over_the_cap_is_noted_once(self):
        """At cap 10 on powerset-2x2 every product with a partner has a
        fibre over the cap, so no target finds a witness and each of the
        9 pairs I x A is noted once."""
        D = powerset_doctrine((2, 2), cap=10)
        rep = FreenessAnalyzer(D).enough_existential_free()
        names = [o.name for o in D.universe]
        assert [n.split(" skipped: ")[0] for n in rep.notes] == [
            f"{i} x {a}" for i in names for a in names]
        assert "1 x 1 skipped: fibre over A*A has 16 predicates; cap 10" in rep.notes
        assert rep.witnesses == []
        assert rep.failures == [("1", 0), ("1", 1), ("A", 0), ("A", 2), ("A", 1),
                                ("A", 3), ("B", 0), ("B", 2), ("B", 1), ("B", 3)]


class TestPrenex:
    @pytest.mark.parametrize("D", (POW, CHAIN), ids=lambda d: d.name)
    def test_every_predicate_has_a_presentation(self, D):
        fa = FreenessAnalyzer(D)
        for obj in D.universe:
            fib = D.fibre(obj)
            for alpha in fib.elements():
                w = fa.prenex(obj, alpha)
                assert w is not None
                p_iu = product(obj, w.u_obj)
                assert D.exists_along(p_iu.proj_left, w.gamma) == alpha
                p3 = product(p_iu.obj, w.x_obj)
                assert D.forall_along(p3.proj_left, w.beta) == w.gamma
                assert fa.quantifier_free(p3.obj, w.beta)

    def test_antichain_misses_presentations(self):
        fa = FreenessAnalyzer(ANTI)
        A = ANTI.universe[1]
        missing = [a for a in ANTI.fibre(A).elements()
                   if fa.prenex(A, a) is None]
        assert len(missing) == 2
