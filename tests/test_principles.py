import hashlib
import json
from pathlib import Path

import pytest

from dialectica import _kernels as K
from dialectica import cli
from dialectica.doctrine import (
    ConcreteDoctrine,
    Doctrine,
    DoctrineError,
    doctrine_from_json,
    doctrine_to_json,
    kripke_doctrine,
    mor_from_key,
    mor_key,
    powerset_doctrine,
)
from dialectica.fincat import CapExceeded, FinMor, exponential, product, unit_obj
from dialectica.freeness import FreenessAnalyzer
from dialectica.posets import FinitePoset, antichain_poset, chain_poset
from dialectica.principles import (
    _FAILS,
    _HOLDS,
    EXP_CAP,
    RULES,
    WITNESS_CAP,
    check_counterexample_property,
    check_ip_rule,
    check_markov,
    check_modified_markov,
    check_rule_of_choice,
    _sides,
    check_skolemisation,
    run_suite,
)
from test_doctrine import PerPredicate, _replay_data
from test_freeness import SMALL_FRAMES, Searched
from test_golden import STOCK

POW = powerset_doctrine((2, 2))
CHAIN = kripke_doctrine(chain_poset(2), (2, 2))
ANTI = kripke_doctrine(antichain_poset(2), (2, 2))


def counts(report):
    return (report.verdict, report.instances, report.vacuous, report.skipped,
            len(report.violations))


def by_rule(D, mode):
    return {r.rule: r for r in run_suite(D, mode=mode)}


def mask_named(fib, text):
    """Invert describe() over a fibre's elements."""
    for mask in fib.elements():
        if fib.describe(mask) == text:
            return mask
    raise AssertionError(f"no element described as {text!r}")


def rebuilt_term(D, entry, key):
    """Rebuild a witness morphism from its JSON key and check the table."""
    objects = {o.name: o for o in D.universe}
    t = mor_from_key(entry[key]["mor"], objects)
    pos = {e: k for k, e in enumerate(t.cod.elements)}
    assert [pos[t(e)] for e in t.dom.elements] == entry[key]["table"]
    return t


def graph_of(t):
    """The tupling <1, t>: A -> A x B of the identity with t."""
    p = product(t.dom, t.cod)
    return FinMor(t.dom, p.obj,
                  tuple(e + t(e) for e in t.dom.elements))


class TestVerdictCensus:
    """Frozen instance and vacuous counts for the three stock doctrines.

    The numbers pin down the exhaustive scans: any change to instance
    selection, precondition gating, or the premise tests moves at least
    one of them.
    """

    def test_powerset_strict_all_pass(self):
        reps = by_rule(POW, "strict")
        assert counts(reps["skolemisation"]) == ("pass", 2266, 0, 0, 0)
        assert counts(reps["independence-of-premise"]) == ("pass", 231, 77, 0, 0)
        assert counts(reps["modified-markov"]) == ("pass", 231, 77, 0, 0)
        assert counts(reps["markov"]) == ("pass", 45, 37, 0, 0)
        assert counts(reps["counterexample-property"]) == ("pass", 45, 37, 0, 0)
        assert counts(reps["rule-of-choice"]) == ("pass", 45, 37, 0, 0)

    def test_powerset_diagnostic_matches_strict(self):
        strict = by_rule(POW, "strict")
        diag = by_rule(POW, "diagnostic")
        for name in strict:
            assert counts(diag[name]) == counts(strict[name])

    def test_chain_frame_strict_all_pass(self):
        reps = by_rule(CHAIN, "strict")
        assert counts(reps["skolemisation"]) == ("pass", 1029, 0, 0, 0)
        assert counts(reps["independence-of-premise"]) == ("pass", 2058, 1083, 0, 0)
        assert counts(reps["modified-markov"]) == ("pass", 2058, 1083, 0, 0)
        assert counts(reps["markov"]) == ("pass", 113, 250, 0, 0)
        assert counts(reps["counterexample-property"]) == ("pass", 113, 250, 0, 0)
        assert counts(reps["rule-of-choice"]) == ("pass", 113, 250, 0, 0)

    def test_chain_frame_diagnostic_matches_strict(self):
        strict = by_rule(CHAIN, "strict")
        diag = by_rule(CHAIN, "diagnostic")
        for name in strict:
            assert counts(diag[name]) == counts(strict[name])

    def test_antichain_strict_gated_rules_do_not_judge(self):
        reps = by_rule(ANTI, "strict")
        assert counts(reps["skolemisation"]) == ("pass", 3172, 0, 0, 0)
        assert counts(reps["independence-of-premise"]) == (
            "pass", 6616, 2996, 7428, 0)
        assert counts(reps["modified-markov"]) == ("pass", 1092, 318, 15630, 0)
        assert counts(reps["markov"]) == ("hypothesis-failed", 0, 62, 1030, 0)
        assert counts(reps["counterexample-property"]) == (
            "hypothesis-failed", 0, 747, 345, 0)
        assert counts(reps["rule-of-choice"]) == (
            "hypothesis-failed", 0, 343, 749, 0)

    def test_antichain_diagnostic_exhibits_failures(self):
        reps = by_rule(ANTI, "diagnostic")
        assert counts(reps["skolemisation"]) == ("pass", 3172, 0, 0, 0)
        assert counts(reps["independence-of-premise"]) == (
            "fail", 9873, 7167, 0, 772)
        assert counts(reps["modified-markov"]) == ("fail", 9873, 7167, 0, 772)
        assert counts(reps["markov"]) == ("fail", 345, 747, 0, 132)
        assert counts(reps["counterexample-property"]) == (
            "fail", 345, 747, 0, 132)
        assert counts(reps["rule-of-choice"]) == ("fail", 345, 747, 0, 132)

    def test_antichain_hypothesis_records_the_failed_gates(self):
        markov = check_markov(ANTI)
        assert markov.hypothesis == {
            "bottomQuantifierFree": {"1": False, "A": False, "B": False},
            "holds": False,
        }
        assert "corollary hypothesis fails; instances not judged" in markov.notes
        choice = check_rule_of_choice(ANTI)
        assert choice.hypothesis == {
            "topExistentialFree": {"1": False, "A": False, "B": False},
            "holds": False,
        }

    def test_passing_doctrines_record_true_gates(self):
        for D in (POW, CHAIN):
            markov = check_markov(D)
            assert markov.hypothesis["holds"] is True
            assert all(markov.hypothesis["bottomQuantifierFree"].values())
            choice = check_rule_of_choice(D)
            assert choice.hypothesis["holds"] is True
            assert all(choice.hypothesis["topExistentialFree"].values())


class TestMarkovIsModifiedMarkovAtBottom:
    """The Markov rule is the modified rule pinned to a bottom target.

    A reference scan recomputes, instance by instance, which premises
    the Markov checker should judge and whether each has a term
    witness; the checker's counts and verdict must match exactly.
    """

    @pytest.mark.parametrize("D", [POW, CHAIN], ids=["powerset", "chain"])
    def test_reference_scan_agrees(self, D):
        fa = FreenessAnalyzer(D)
        expected_instances = 0
        expected_vacuous = 0
        witnessed = True
        for A in D.universe:
            for B in D.universe:
                p = product(A, B)
                fibA = D.fibre(A)
                fibAB = D.fibre(p.obj)
                topA, botA = fibA.top(), fibA.bottom()
                for alpha in fibAB.elements():
                    if not fa.quantifier_free(p.obj, alpha):
                        continue
                    fal = D.forall_along(p.proj_left, alpha)
                    if not fibA.leq(topA, fibA.imp(fal, botA)):
                        expected_vacuous += 1
                        continue
                    expected_instances += 1
                    found = any(
                        fibA.leq(D.reindex_el(FinMor(
                            A, p.obj,
                            tuple(A.elements[i] + B.elements[j[i]]
                                  for i in range(len(A)))), alpha), botA)
                        for j in _tables(len(A), len(B)))
                    witnessed = witnessed and found
        rep = check_markov(D, fa)
        assert rep.instances == expected_instances
        assert rep.vacuous == expected_vacuous
        assert (rep.verdict == "pass") == witnessed

    def test_bottom_rows_of_modified_rule_carry_the_same_witnesses(self):
        """Every Markov witness revalidates inside the modified rule's
        shape: reindexing alpha along the graph lands below bottom,
        which is the bottom instance of alpha(a, t a) <= betaD(a)."""
        rep = check_markov(POW)
        assert rep.witnesses
        for entry in rep.witnesses:
            A = next(o for o in POW.universe if o.name == entry["base"])
            fibA = POW.fibre(A)
            assert entry["betaD"] == fibA.describe(fibA.bottom())
            t = rebuilt_term(POW, entry, "t")
            p = product(A, t.cod)
            alpha = mask_named(POW.fibre(p.obj), entry["alpha"])
            pulled = POW.reindex_el(graph_of(t), alpha)
            assert fibA.leq(pulled, fibA.bottom())


def _tables(na, nb):
    if na == 0:
        yield ()
        return
    for idx in range(nb ** na):
        yield tuple((idx // nb ** (na - 1 - i)) % nb for i in range(na))


class TestWitnessReplay:
    """Reports are self-certifying: each witness entry carries enough
    JSON to rebuild the term and re-check the sequent it claims."""

    def test_ip_witnesses_recheck(self):
        rep = check_ip_rule(POW)
        assert rep.witnesses
        for entry in rep.witnesses:
            A = next(o for o in POW.universe if o.name == entry["base"])
            fibA = POW.fibre(A)
            t = rebuilt_term(POW, entry, "t")
            assert t.dom is A and t.cod.name == entry["partner"]
            p = product(A, t.cod)
            fibAB = POW.fibre(p.obj)
            alpha = mask_named(fibA, entry["alpha"])
            beta = mask_named(fibAB, entry["beta"])
            pulled = POW.reindex_el(graph_of(t), beta)
            assert fibA.leq(fibA.top(), fibA.imp(alpha, pulled))
            assert entry["preconditionsHold"] is True

    def test_choice_witnesses_recheck(self):
        rep = check_rule_of_choice(CHAIN)
        assert rep.witnesses
        for entry in rep.witnesses:
            A = next(o for o in CHAIN.universe if o.name == entry["base"])
            fibA = CHAIN.fibre(A)
            g = rebuilt_term(CHAIN, entry, "g")
            p = product(A, g.cod)
            alpha = mask_named(CHAIN.fibre(p.obj), entry["alpha"])
            pulled = CHAIN.reindex_el(graph_of(g), alpha)
            assert fibA.leq(fibA.top(), pulled)

    def test_counterexample_witnesses_recheck(self):
        rep = check_counterexample_property(POW)
        assert rep.witnesses
        for entry in rep.witnesses:
            A = next(o for o in POW.universe if o.name == entry["base"])
            fibA = POW.fibre(A)
            g = rebuilt_term(POW, entry, "g")
            p = product(A, g.cod)
            alpha = mask_named(POW.fibre(p.obj), entry["alpha"])
            pulled = POW.reindex_el(graph_of(g), alpha)
            assert fibA.leq(pulled, fibA.bottom())

    def test_modified_markov_witnesses_recheck(self):
        rep = check_modified_markov(CHAIN)
        assert rep.witnesses
        for entry in rep.witnesses:
            A = next(o for o in CHAIN.universe if o.name == entry["base"])
            fibA = CHAIN.fibre(A)
            t = rebuilt_term(CHAIN, entry, "t")
            p = product(A, t.cod)
            alpha = mask_named(CHAIN.fibre(p.obj), entry["alpha"])
            betaD = mask_named(fibA, entry["betaD"])
            pulled = CHAIN.reindex_el(graph_of(t), alpha)
            assert fibA.leq(pulled, betaD)

    def test_skolem_witnesses_name_both_sides(self):
        rep = check_skolemisation(POW)
        assert rep.witnesses
        for entry in rep.witnesses:
            assert len(entry["carriers"]) == 3
            assert "bothSides" in entry and "prenexSide" not in entry

    def test_diagnostic_violations_name_the_failing_shape(self):
        rep = check_markov(ANTI, mode="diagnostic")
        assert rep.violations
        kinds = {v["kind"] for v in rep.violations}
        assert kinds <= {"sequent-fails", "no-term-witness"}
        for v in rep.violations[:4]:
            assert set(v) >= {"base", "partner", "alpha", "betaD", "kind"}


class TestWitnessRevalidation:
    """Rule scans take each verdict from the analyzer's choice-map
    decision; only a witness a report records has its map built, and
    that map is revalidated through the doctrine before it leaves."""

    @staticmethod
    def misfit(real, existential):
        """Decide as the kernel ``real``, but answer with a map that
        misses the cover at every element where some partner misses."""
        def kernel(alpha, beta, na, nb, nw):
            if real(alpha, beta, na, nb, nw) is None:
                return None
            full = (1 << nw) - 1

            def misses(a, b):
                acol = (alpha >> (a * nw)) & full
                bcol = (beta >> ((a * nb + b) * nw)) & full
                return acol & ~bcol if existential else bcol & ~acol
            return tuple(next((b for b in range(nb) if misses(a, b)), 0)
                         for a in range(na))
        return kernel

    @pytest.mark.parametrize("rule", ("mmr", "markov", "cex", "choice"))
    def test_a_wrong_kernel_map_fails_when_recorded(self, rule, monkeypatch):
        monkeypatch.setattr(K, "exists_gap_g", self.misfit(K.exists_gap_g, True))
        monkeypatch.setattr(K, "forall_gap_g", self.misfit(K.forall_gap_g, False))
        with pytest.raises(DoctrineError, match="choice map failed revalidation"):
            RULES[rule](POW, mode="diagnostic")

    def test_a_report_builds_at_most_the_cap_of_maps(self, monkeypatch):
        built = []
        real = Doctrine.choice_map

        def counted(self, *args):
            built.append(args)
            return real(self, *args)
        monkeypatch.setattr(Doctrine, "choice_map", counted)
        rep = check_ip_rule(ANTI, mode="diagnostic")
        assert rep.instances > WITNESS_CAP and len(rep.witnesses) == WITNESS_CAP
        assert len(built) == WITNESS_CAP

    def test_diagnostic_modified_markov_reads_no_freeness(self):
        """Without its preconditions the modified rule needs no freeness
        scan, so a cap that only those scans overrun does not stop it."""
        D = powerset_doctrine((2, 3), cap=512)
        with pytest.raises(CapExceeded, match=r"^729 maps B -> B\*B; cap 512$"):
            check_modified_markov(D)
        rep = check_modified_markov(D, mode="diagnostic")
        assert rep.passed and rep.instances == 4053
        assert rep.notes == ()


class TestTabularReplay:
    """A doctrine replayed from its tables gets the same reports as the
    closed form it was written from.  The universe is the terminal object
    alone, so every product the checkers scan has a recorded fibre."""

    @pytest.mark.parametrize("frame", [
        FinitePoset(("w0",), [(0, 0)]), chain_poset(2), antichain_poset(2)],
        ids=["one-world", "chain2", "antichain2"])
    def test_tabular_and_concrete_reports_agree(self, frame):
        D = ConcreteDoctrine("twin", frame, (unit_obj(),))
        data = doctrine_to_json(D)
        data.pop("generator", None)
        T = doctrine_from_json(data)
        assert T.kind == "tabular"
        for rule in ("ip", "mmr", "markov", "cex", "choice"):
            for mode in ("strict", "diagnostic"):
                assert (RULES[rule](T, mode=mode).to_json()
                        == RULES[rule](D, mode=mode).to_json()), (rule, mode)


class TestReportBytes:
    """Report entries are built only for the instances a report keeps;
    the bytes must be those the benchmark's digest table pins."""

    def test_diagnostic_antichain_stdout_matches_the_digest(self, tmp_path, monkeypatch, capsys):
        name = "kripke-antichain2-2x2.json"
        text = json.dumps(doctrine_to_json(ANTI), indent=2) + "\n"
        (tmp_path / name).write_text(text, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        argv = ["principles", "--diagnostic", "--doctrine", name, "--jobs", "1"]
        assert cli.main(argv) == 1
        out = capsys.readouterr().out
        digests = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"
        table = json.loads(digests.read_text(encoding="utf-8"))
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()[:16]
        assert digest == table[" ".join(argv)]


class TestSequentSemantics:
    """Entailment under a hypothesis is residuation in each fibre."""

    @pytest.mark.parametrize("D", [POW, CHAIN, ANTI],
                             ids=["powerset", "chain", "antichain"])
    def test_deduction_theorem_exhaustively(self, D):
        for obj in D.universe[:2]:
            fib = D.fibre(obj)
            top = fib.top()
            for a in fib.elements():
                for b in fib.elements():
                    assert fib.leq(top, fib.imp(a, b)) == fib.leq(a, b)

    def test_vacuous_instances_have_false_premises(self):
        """The vacuous count on the powerset Markov scan is exactly the
        number of predicates whose universal image is not bottom."""
        D = POW
        seen = 0
        for A in D.universe:
            for B in D.universe:
                p = product(A, B)
                fibA = D.fibre(A)
                for alpha in D.fibre(p.obj).elements():
                    if not fibA.leq(D.forall_along(p.proj_left, alpha),
                                    fibA.bottom()):
                        seen += 1
        assert seen == check_markov(D).vacuous


class TestSuiteAssembly:
    def test_runs_in_declared_order(self):
        reps = run_suite(POW)
        assert [r.rule for r in reps] == [
            "skolemisation", "independence-of-premise", "modified-markov",
            "markov", "counterexample-property", "rule-of-choice"]

    def test_rule_subset_and_shared_analyzer(self):
        fa = FreenessAnalyzer(CHAIN)
        reps = run_suite(CHAIN, analyzer=fa, rules=["markov", "ip"])
        assert [r.rule for r in reps] == ["markov", "independence-of-premise"]
        assert all(r.passed for r in reps)

    def test_reports_round_trip_to_json(self):
        for rep in run_suite(POW):
            data = rep.to_json()
            assert data["rule"] == rep.rule
            assert data["verdict"] == rep.verdict
            assert data["instances"] == rep.instances
            assert len(data["witnesses"]) == len(rep.witnesses)
            assert data["scanned"] == list(rep.scanned)

    def test_scanned_pairs_cover_the_square_of_the_universe(self):
        rep = check_ip_rule(POW)
        names = [o.name for o in POW.universe]
        assert list(rep.scanned) == [f"{a}|{b}" for a in names for b in names]

    def test_skolem_scans_every_carrier_triple(self):
        rep = check_skolemisation(POW)
        names = [o.name for o in POW.universe]
        assert list(rep.scanned) == [f"{a},{b},{c}" for a in names
                                     for b in names for c in names]
        assert rep.notes == ()

    def test_the_rows_share_their_values_along_maps(self, monkeypatch):
        """One strict suite of the five term rules on a fresh powerset-2x2
        asks D's quantifiers, and its pullbacks along the scanned
        projections, once per (index table, predicate): every row reads
        them through `D.along`.  Witness revalidation pulls back along
        each term's graph (`test_each_witness_graph_is_pulled_back_once`)."""
        D = powerset_doctrine((2, 2))
        asked = []
        for name in ("reindex_el", "exists_along", "forall_along"):
            raw = getattr(ConcreteDoctrine, name)
            monkeypatch.setattr(D, name, lambda f, alpha, name=name, raw=raw: asked.append(
                (name, f, alpha)) or raw(D, f, alpha))
        reps = run_suite(D, rules=["ip", "mmr", "markov", "cex", "choice"])
        assert len(reps) == 5
        projections = [D.product(a, b).proj_left for a in D.universe for b in D.universe]
        shared = [(name, f.idx, len(f.cod), alpha) for name, f, alpha in asked
                  if name != "reindex_el" or any(f is p for p in projections)]
        assert {k[0] for k in shared} == {"reindex_el", "exists_along", "forall_along"}
        assert len(shared) == len(set(shared))

    def test_each_witness_graph_is_pulled_back_once(self, monkeypatch):
        """The same suite revalidates 30 witnesses, which pull back along
        8 (graph table, codomain size, predicate) keys.  Revalidation reads
        them through `D.along` too, so D is asked each key at most once:
        6 times, since the graph 1 -> 1*1 shares its index table with the
        projection 1*1 -> 1, whose pullbacks of both its predicates the
        rows asked while tabling the pair, before recording a witness."""
        D = powerset_doctrine((2, 2))
        revalidated = []
        real = Doctrine.graph_ok
        monkeypatch.setattr(D, "graph_ok", lambda *args: (
            revalidated.append(args) or real(D, *args)))
        pulled = []
        raw = ConcreteDoctrine.reindex_el
        monkeypatch.setattr(D, "reindex_el", lambda f, alpha: pulled.append(
            (f.idx, len(f.cod), alpha, f.cod.name)) or raw(D, f, alpha))
        run_suite(D, rules=["ip", "mmr", "markov", "cex", "choice"])
        factors = {o.name for o in D.universe}
        along_graphs = [k[:3] for k in pulled if k[3] not in factors]
        assert len(revalidated) == 30
        assert len(along_graphs) == len(set(along_graphs)) == 6


class PlantedSlice(PerPredicate):
    """Exists along X*A*B -> X*A sends a slice of alpha that is bottom at
    a point x of X to top at x: along 1*A*B -> 1*A it sends bottom to top.
    The defect acts point by point, so the doctrine stays pointwise, and
    every block (X, A, B) fails exactly on its predicates with a bottom
    slice (powerset-2x2 masks: a slice over A*B has 4 bits, over A 2)."""

    def exists_along(self, f, alpha):
        value = super().exists_along(f, alpha)
        if f.dom.name == f.cod.name + "*B" and f.cod.name.endswith("*A"):
            for x in range(len(f.cod) // 2):
                if alpha >> (4 * x) & 0b1111 == 0:
                    value |= 0b11 << (2 * x)
        return value


class PlantedSliceScanned(PlantedSlice):
    pointwise = False


def _pullbacks_into(D, monkeypatch):
    """Count D's pullbacks by the name of the map's codomain: the
    Skolemisation block (A1, A2, B) pulls back into A1*A2*B once per
    predicate it scans."""
    into = {}
    raw = type(D).reindex_el
    monkeypatch.setattr(D, "reindex_el", lambda f, alpha: into.__setitem__(
        f.cod.name, into.get(f.cod.name, 0) + 1) or raw(D, f, alpha))
    return into


class TestSkolemPerPoint:
    """On a pointwise doctrine a Skolemisation block over A1 with more
    than one point is read from the table of its one-point block over
    the same (A2, B): its counts are powers of the table's, and its
    entries are walked from it.  The scan of every block is its oracle."""

    ORACLE = {
        "powerset-2x2": POW, "powerset-2x3": powerset_doctrine((2, 3)),
        "chain2": CHAIN, "antichain2": ANTI, "chain3": kripke_doctrine(chain_poset(3)),
        "antichain3-1x2": kripke_doctrine(antichain_poset(3), (1, 2)),
        **{f"{name}-2x2": kripke_doctrine(frame, (2, 2))
           for name, frame in SMALL_FRAMES.items()},
    }

    @pytest.mark.parametrize("name", ORACLE)
    def test_reports_equal_the_scan(self, name):
        """`Searched` is not pointwise, so its Skolemisation scans every block."""
        D = self.ORACLE[name]
        scanned = Searched(D.name, D.frame, D.universe, D.cap)
        assert check_skolemisation(D).to_json() == check_skolemisation(scanned).to_json()

    def test_only_one_point_blocks_are_scanned_when_all_pass(self, monkeypatch):
        P = powerset_doctrine((2, 2))
        D = PerPredicate(P.name, P.frame, P.universe, P.cap)
        into = _pullbacks_into(D, monkeypatch)
        rep = check_skolemisation(D)
        assert rep.passed and rep.instances == 2266
        assert set(into) == {f"1*{a}*{b}" for a in "1AB" for b in "1AB"}

    def test_a_failing_slice_is_listed_in_every_block(self, monkeypatch):
        P = powerset_doctrine((2, 2))
        D = PlantedSlice(P.name, P.frame, P.universe, P.cap)
        into = _pullbacks_into(D, monkeypatch)
        rep = check_skolemisation(D)
        # 16 slices over 1*A*B, one of them bottom: 1 predicate over 1*A*B
        # and 16**2 - 15**2 over each of A*A*B and B*A*B fail
        assert [tuple(v["carriers"]) for v in rep.violations] == (
            [("1", "A", "B")] + [("A", "A", "B")] * 31 + [("B", "A", "B")] * 31)
        assert rep.to_json() == check_skolemisation(
            PlantedSliceScanned(P.name, P.frame, P.universe, P.cap)).to_json()
        # the wide blocks are listed from the one-point block's table:
        # its 16 predicates are pulled back, and none over a wide block
        assert into["1*A*B"] == 16
        assert (into.get("A*A*B"), into.get("B*A*B"), into.get("A*A*A")) == (None, None, None)

    def test_a_defect_at_one_point_alone_is_reported_at_every_point(self):
        """A defect of the one-point block alone breaks the premise the
        other way: the table carries it to every point of a wide block,
        so the report lists more violations than the scan, and never
        fewer."""
        class OnePointOnly(PerPredicate):
            def exists_along(self, f, alpha):
                if (f.dom.name, f.cod.name) == ("1*A*B", "1*A") and alpha == 0:
                    return self.fibre(f.cod).top()
                return super().exists_along(f, alpha)

        class OnePointOnlyScanned(OnePointOnly):
            pointwise = False

        P = powerset_doctrine((2, 2))
        rep = check_skolemisation(OnePointOnly(P.name, P.frame, P.universe))
        scanned = check_skolemisation(OnePointOnlyScanned(P.name, P.frame, P.universe))
        assert [v["carriers"] for v in scanned.violations] == [["1", "A", "B"]]
        assert rep.violations[0] == scanned.violations[0] and len(rep.violations) == 63

    def test_a_wrong_pullback_out_of_a_wide_block_is_left_to_the_premise(self):
        """The table trusts `pointwise`.  A pullback wrong only along the
        substitution into A*A*B, out of a carrier no law audit reads, is
        seen by the scan and not by the table: a doctrine that can break
        the premise must not declare it."""
        class WrongWide(PerPredicate):
            def reindex_el(self, f, alpha):
                value = super().reindex_el(f, alpha)
                return value ^ 1 if f.cod.name == "A*A*B" else value

        class WrongWideScanned(WrongWide):
            pointwise = False

        P = powerset_doctrine((2, 2))
        assert check_skolemisation(WrongWide(P.name, P.frame, P.universe)).passed
        rep = check_skolemisation(WrongWideScanned(P.name, P.frame, P.universe))
        assert {tuple(v["carriers"]) for v in rep.violations} == {("A", "A", "B")}


def _sides_per_predicate(D, A1, a12, tri, a1e, fe, fib):
    """Skolemisation's two sides asked of D's methods one predicate at a
    time, prenex side first: the oracle of `D.chain_values`."""
    k1 = A1.arity
    subst = FinMor(fe.obj, tri.obj, tuple(
        e[:k1] + e[k1 + 1:] + e[k1](e[k1 + 1:]) for e in fe.obj.elements))
    p12, p1 = tri.proj_left, a12.proj_left
    q, r = fe.proj_left, a1e.proj_left
    for alpha in fib.elements():
        lhs = D.forall_along(p1, D.exists_along(p12, alpha))
        rhs = D.exists_along(r, D.forall_along(q, D.reindex_el(subst, alpha)))
        yield alpha, (lhs, rhs), _HOLDS if lhs == rhs else _FAILS


def _blocks(D):
    """The arguments of `_sides` for each block of D's universe within
    the caps, as `check_skolemisation` builds them."""
    for A1 in D.universe:
        for A2 in D.universe:
            for B in D.universe:
                try:
                    E = exponential(B, A2, EXP_CAP)
                    a12 = D.product(A1, A2)
                    tri = D.product(a12.obj, B)
                    fib = D.fibre(tri.obj)
                    fib.count()
                    a1e = D.product(A1, E.obj)
                    yield A1, a12, tri, a1e, D.product(a1e.obj, A2), fib
                except CapExceeded:
                    continue


def _outcome(sides):
    """The list a sides generator yields, or the message it raises."""
    try:
        return list(sides)
    except DoctrineError as exc:
        return str(exc)


class TestSkolemChains:
    """`D.chain_values` gives the sides that D's methods give one
    predicate at a time: on the plane kernels for a concrete doctrine,
    and through those methods for a table replay or a `PerPredicate`."""

    @pytest.mark.parametrize("name", TestSkolemPerPoint.ORACLE)
    def test_sides_are_the_per_predicate_sides(self, name):
        D = TestSkolemPerPoint.ORACLE[name]
        blocks = 0
        for args in _blocks(D):
            assert list(_sides(D, *args)) == list(_sides_per_predicate(D, *args))
            blocks += 1
        assert blocks

    @pytest.mark.parametrize("make", STOCK.values(), ids=STOCK)
    def test_a_replay_stops_where_the_per_predicate_sides_stop(self, make):
        D = doctrine_from_json(_replay_data(make()))
        for args in _blocks(D):
            got = _outcome(_sides(D, *args))
            assert got == _outcome(_sides_per_predicate(D, *args))
            if isinstance(got, str):
                assert got == "no reindex table for 1*1^1*1->1*1*1#0"
                break
        else:
            pytest.fail("no block stopped")

    def test_an_overridden_method_is_asked_per_predicate(self):
        """On `PerPredicate`, a planted quantifier (`PlantedSlice`) and a
        pullback set on the instance are asked as the per-predicate sides
        ask them: the same calls in the same order, and the same sides."""
        P = powerset_doctrine((2, 2))
        planted = PlantedSlice(P.name, P.frame, P.universe, P.cap)
        D = PerPredicate(P.name, P.frame, P.universe, P.cap)
        D.reindex_el = lambda f, alpha: ConcreteDoctrine.reindex_el(D, f, alpha) ^ (
            f.cod.name == "1*A*B")
        for doc in (planted, D):
            calls = []
            for name in ("reindex_el", "exists_along", "forall_along"):
                ask = getattr(doc, name)
                setattr(doc, name, lambda f, alpha, name=name, ask=ask: calls.append(
                    (name, mor_key(f), alpha)) or ask(f, alpha))
            differ = 0
            for args in _blocks(doc):
                calls.clear()
                got = list(_sides(doc, *args))
                asked = calls[:]
                calls.clear()
                assert got == list(_sides_per_predicate(doc, *args))
                assert asked == calls
                differ += sum(stage == _FAILS for _, _, stage in got)
            assert differ

    @pytest.mark.parametrize("make", STOCK.values(), ids=STOCK)
    @pytest.mark.parametrize("flags", ([], ["--diagnostic"], ["--rule", "skolem"]),
                             ids=("strict", "diagnostic", "skolem"))
    def test_principles_on_a_replay_exits_2_naming_the_table(self, capsys, tmp_path,
                                                             make, flags):
        """Stdout, stderr and the exit status: a generator-free replay of
        a stock 2x2 doctrine records no table along Skolemisation's
        first substitution."""
        path = tmp_path / "replay.json"
        path.write_text(json.dumps(_replay_data(make())))
        code = cli.main(["principles", *flags, "--doctrine", str(path)])
        assert (code, *capsys.readouterr()) == (
            2, "", "error: no reindex table for 1*1^1*1->1*1*1#0\n")


TERM_RULES = ("ip", "mmr", "markov", "cex", "choice")


class Scanned(ConcreteDoctrine):
    """A concrete doctrine that is not pointwise: the term rules scan
    each carrier pair predicate by predicate, with the same kernels."""

    pointwise = False


class PlantedRow(PerPredicate):
    """On powerset-2x2, exists along a projection X*Y -> X with |Y| = 2
    sends a predicate whose row at a point x is full to one without x:
    along 1*B -> 1 it is wrong on top alone.  The defect reads the map's
    index table, as `D.along` keys values, and acts point by point, so
    the doctrine stays pointwise."""

    def exists_along(self, f, alpha):
        value = super().exists_along(f, alpha)
        if f.idx == tuple(s // 2 for s in range(len(f.dom))):
            for x in range(len(f.cod)):
                if alpha >> (2 * x) & 0b11 == 0b11:
                    value &= ~(1 << x)
        return value


class PlantedRowScanned(PlantedRow):
    pointwise = False


class TestPointEngine:
    """On a pointwise doctrine whose analyzer reads freeness per column,
    a term rule reads each carrier pair (A, B) with |A| > 1 from the
    table of the one-point pair (1, B).  The oracle is the scan of a
    twin that is not pointwise and shares the doctrine's analyzer, so
    the two differ only in how a pair is read."""

    DOCTRINES = {
        "powerset-2x2": POW, "powerset-2x3": powerset_doctrine((2, 3)),
        "chain2": CHAIN, "antichain2": ANTI, "chain3": kripke_doctrine(chain_poset(3)),
        "antichain3-1x2": kripke_doctrine(antichain_poset(3), (1, 2)),
        **{f"{name}-2x2": kripke_doctrine(SMALL_FRAMES[name], (2, 2))
           for name in ("antichain3", "bottom", "top", "chain2+1")},
    }
    # Every doctrine in strict mode (chain3 is the three-world chain at
    # 2,2), the first six in diagnostic mode as well.  Left out: diagnostic
    # IP and modified Markov on antichain3 1,2, whose scans take 3.4 s
    # together (2 vCPUs, Python 3.11).
    CASES = ([(name, "strict") for name in DOCTRINES]
             + [(name, "diagnostic") for name in list(DOCTRINES)[:6]])
    LEFT_OUT = {("antichain3-1x2", "diagnostic", "ip"), ("antichain3-1x2", "diagnostic", "mmr")}

    @pytest.mark.parametrize("name,mode", CASES)
    def test_reports_equal_the_scan(self, name, mode):
        D = self.DOCTRINES[name]
        fa = FreenessAnalyzer(D)
        scanned = Scanned(D.name, D.frame, D.universe, D.cap)
        for rule in TERM_RULES:
            if (name, mode, rule) not in self.LEFT_OUT:
                assert (RULES[rule](D, fa, mode=mode).to_json()
                        == RULES[rule](scanned, fa, mode=mode).to_json()), rule

    @pytest.mark.parametrize("order", ("A1B", "BA1"))
    @pytest.mark.parametrize("name", ("powerset-2x2", "chain2"))
    def test_a_wide_carrier_before_the_point_is_scanned(self, name, order):
        """With a wide carrier ahead of the one-point one, its pairs come
        before the one-point table they would read: the scan builds their
        own tables, and every rule in both modes gives the twin's report."""
        D = self.DOCTRINES[name]
        objs = {o.name: o for o in D.universe}
        universe = tuple(objs[c] for c in order)
        D = ConcreteDoctrine(D.name, D.frame, universe, D.cap)
        fa = FreenessAnalyzer(D)
        scanned = Scanned(D.name, D.frame, universe, D.cap)
        for mode in ("strict", "diagnostic"):
            for rule in RULES:
                assert (RULES[rule](D, fa, mode=mode).to_json()
                        == RULES[rule](scanned, fa, mode=mode).to_json()), (mode, rule)

    def test_wide_pairs_ask_the_doctrine_nothing(self, monkeypatch):
        """Both suites on a fresh powerset-2x2 quantify and pull back only
        along the one-point pairs' projections (1*A -> 1 and 1*B -> 1
        share one index table), and along the graphs of the witnesses
        they record."""
        D = powerset_doctrine((2, 2))
        asked = set()
        for name in ("reindex_el", "exists_along", "forall_along"):
            raw = getattr(ConcreteDoctrine, name)
            monkeypatch.setattr(D, name, lambda f, alpha, raw=raw: asked.add(
                (f.dom.name, f.cod.name)) or raw(D, f, alpha))
        for mode in ("strict", "diagnostic"):
            run_suite(D, mode=mode, rules=list(TERM_RULES))
        into_factors = {(dom, cod) for dom, cod in asked if cod in ("1", "A", "B")}
        assert into_factors and into_factors <= {(f"1*{b}", "1") for b in "1AB"}

    @pytest.mark.parametrize("mode", ("strict", "diagnostic"))
    def test_a_cap_only_the_wide_precondition_overruns_stops_the_rule(self, mode):
        """On powerset-3 at cap 600 the fibre over C*C (512 predicates)
        fits, but the 9**3 maps C -> C*C that its free verdicts count do
        not, while the 27 maps C -> 1*C do: the rule stops at the wide
        pair as the scan does, though its table is the one-point pair's."""
        D = powerset_doctrine((3,), cap=600)
        with pytest.raises(CapExceeded, match=r"^729 maps A -> A\*A; cap 600$"):
            check_rule_of_choice(D, mode=mode)

    def test_a_quantifier_wrong_at_one_point_is_listed_at_every_point(self):
        """The defect breaks IP and modified Markov over every pair, and
        the report lists each violation of the wide pairs as the scan
        does."""
        D = PlantedRow(POW.name, POW.frame, POW.universe, POW.cap)
        scanned = PlantedRowScanned(POW.name, POW.frame, POW.universe, POW.cap)
        fa = FreenessAnalyzer(D)
        reports = {}
        for rule in TERM_RULES:
            for mode in ("strict", "diagnostic"):
                rep = reports[rule, mode] = RULES[rule](D, fa, mode=mode)
                assert rep.to_json() == RULES[rule](scanned, fa, mode=mode).to_json()
        for rule in ("ip", "mmr"):
            pairs = {(v["base"], v["partner"]) for v in reports[rule, "strict"].violations}
            assert {("A", "B"), ("B", "B")} <= pairs

    def test_a_wrong_pullback_along_a_wide_projection_is_left_to_the_premise(self):
        """The table trusts `pointwise`: a pullback to bottom along the
        projections X*Y -> X with |X| = |Y| = 2, which no one-point pair
        reads, breaks the modified Markov sequent of d = top for alpha =
        top over the wide pairs.  The scan sees it and the table does not."""
        class WrongWide(PerPredicate):
            def reindex_el(self, f, alpha):
                return 0 if f.idx == (0, 0, 1, 1) else super().reindex_el(f, alpha)

        class WrongWideScanned(WrongWide):
            pointwise = False

        D = WrongWide(POW.name, POW.frame, POW.universe, POW.cap)
        scanned = WrongWideScanned(POW.name, POW.frame, POW.universe, POW.cap)
        fa = FreenessAnalyzer(D)
        for rule in ("ip", "mmr"):
            assert RULES[rule](D, fa).to_json() == RULES[rule](POW, fa).to_json()
        rep = check_modified_markov(scanned, fa)
        assert {(v["base"], v["partner"], v["kind"]) for v in rep.violations} == {
            (a, b, "sequent-fails") for a in "AB" for b in "AB"}


class TestFrameCensus:
    """Kripke doctrines over the small frames at sizes 2,2: the parts of
    `godel_report`, each strict rule's verdict with its instance, vacuous
    and skipped counts, and the rules failing in diagnostic mode.
    antichain3 is left out: its diagnostic IP and modified Markov list
    93 672 violations each, in 1.2 s each, and the frame takes 3 to
    6 s (2 vCPUs, Python 3.11, on a noisy host).

    Every verdict is relative to the universe {1, A, B}.  Whether the
    godel parts that fail here (chain2+1's last, antichain3's third and
    last) still fail over a universe with a 3-element carrier is open:
    on antichain3 the fibre over B*B then has 2**27 predicates."""

    RULE_NAMES = ("skolemisation", "independence-of-premise", "modified-markov",
                  "markov", "counterexample-property", "rule-of-choice")
    # godel parts in `parts()` order, then per rule (verdict, instances,
    # vacuous, skipped), then the failing diagnostic rules
    CENSUS = {
        "one": ("11111", [("pass", 2266, 0, 0), ("pass", 231, 77, 0), ("pass", 231, 77, 0),
                          ("pass", 45, 37, 0), ("pass", 45, 37, 0), ("pass", 45, 37, 0)], ""),
        "chain2": ("11111", [("pass", 1029, 0, 0), ("pass", 2058, 1083, 0),
                             ("pass", 2058, 1083, 0), ("pass", 113, 250, 0),
                             ("pass", 113, 250, 0), ("pass", 113, 250, 0)], ""),
        "antichain2": ("11111", [("pass", 3172, 0, 0), ("pass", 6616, 2996, 7428),
                                 ("pass", 1092, 318, 15630), ("hypothesis-failed", 0, 62, 1030),
                                 ("hypothesis-failed", 0, 747, 345),
                                 ("hypothesis-failed", 0, 343, 749)], "ip mmr markov cex choice"),
        "chain3": ("11111", [("pass", 3172, 0, 0), ("pass", 10310, 6730, 0),
                             ("pass", 10310, 6730, 0), ("pass", 213, 879, 0),
                             ("pass", 213, 879, 0), ("pass", 213, 879, 0)], ""),
        "bottom": ("11111", [("pass", 7655, 0, 0), ("pass", 23556, 17464, 23005),
                             ("pass", 6616, 2996, 54413), ("hypothesis-failed", 0, 343, 2262),
                             ("hypothesis-failed", 0, 2096, 509), ("pass", 213, 879, 1513)],
                   "ip mmr markov cex"),
        "top": ("11111", [("pass", 7655, 0, 0), ("pass", 26757, 14263, 23005),
                          ("pass", 5655, 3957, 54413), ("pass", 113, 250, 2242),
                          ("pass", 345, 2260, 0), ("hypothesis-failed", 0, 1072, 1533)],
                "ip mmr choice"),
        "chain2+1": ("11110", [("pass", 15774, 0, 0), ("pass", 53595, 30813, 105276),
                               ("pass", 3025, 1271, 185388), ("hypothesis-failed", 0, 62, 5272),
                               ("hypothesis-failed", 0, 4401, 933),
                               ("hypothesis-failed", 0, 1072, 4262)],
                     "ip mmr markov cex choice"),
    }
    SHORT = dict(zip(RULE_NAMES, RULES))

    @pytest.mark.parametrize("name", CENSUS)
    def test_census(self, name):
        D = kripke_doctrine(SMALL_FRAMES[name], (2, 2))
        fa = FreenessAnalyzer(D)
        parts = "".join("1" if v else "0" for v in fa.godel_report().parts().values())
        strict = [(r.verdict, r.instances, r.vacuous, r.skipped) for r in run_suite(D, fa)]
        failing = " ".join(self.SHORT[r.rule] for r in run_suite(D, fa, mode="diagnostic")
                           if not r.passed)
        assert (parts, strict, failing) == self.CENSUS[name]
