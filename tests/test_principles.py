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
    powerset_doctrine,
)
from dialectica.fincat import CapExceeded, FinMor, product, unit_obj
from dialectica.freeness import FreenessAnalyzer
from dialectica.posets import FinitePoset, antichain_poset, chain_poset
from dialectica.principles import (
    RULES,
    WITNESS_CAP,
    check_counterexample_property,
    check_ip_rule,
    check_markov,
    check_modified_markov,
    check_rule_of_choice,
    check_skolemisation,
    run_suite,
)
from test_freeness import SMALL_FRAMES, Searched

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
        D = powerset_doctrine((2, 3), cap=300)
        with pytest.raises(CapExceeded, match="B[*]B has 512 predicates"):
            check_modified_markov(D)
        rep = check_modified_markov(D, mode="diagnostic")
        assert rep.passed and rep.instances == 678
        assert rep.notes == (
            "B with partner fibre skipped: fibre over B*B has 512 predicates; cap 300",)


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
        7 times, since one graph shares its index table with a projection
        whose pullback of the same predicate a row has already asked."""
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
        assert len(along_graphs) == len(set(along_graphs)) == 7


class PlantedSlice(ConcreteDoctrine):
    """Exists along 1*A*B -> 1*A sends bottom to top, so the one-point
    Skolemisation block (1, A, B) fails on bottom and no other block
    does."""

    def exists_along(self, f, alpha):
        if (f.dom.name, f.cod.name) == ("1*A*B", "1*A") and alpha == 0:
            return self.fibre(f.cod).top()
        return super().exists_along(f, alpha)


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
    than one point is counted without a scan once the report holds its
    witnesses and the one-point block over the same (A2, B) passed; the
    scan of every block is its oracle."""

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
        D = powerset_doctrine((2, 2))
        into = _pullbacks_into(D, monkeypatch)
        rep = check_skolemisation(D)
        assert rep.passed and rep.instances == 2266
        assert set(into) == {f"1*{a}*{b}" for a in "1AB" for b in "1AB"}

    def test_a_failing_slice_scans_its_wide_blocks(self, monkeypatch):
        P = powerset_doctrine((2, 2))
        D = PlantedSlice(P.name, P.frame, P.universe, P.cap)
        into = _pullbacks_into(D, monkeypatch)
        rep = check_skolemisation(D)
        assert [v["carriers"] for v in rep.violations] == [["1", "A", "B"]]
        assert rep.to_json() == check_skolemisation(
            PlantedSliceScanned(P.name, P.frame, P.universe, P.cap)).to_json()
        # 2**8 predicates over A*A*B and over B*A*B, none over A*A*A
        assert (into.get("A*A*B"), into.get("B*A*B"), into.get("A*A*A")) == (256, 256, None)

    def test_a_wrong_pullback_out_of_a_wide_block_is_left_to_the_premise(self):
        """The count trusts `pointwise`.  A pullback wrong only along the
        substitution into A*A*B, out of a carrier no law audit reads, is
        seen by the scan and not by the count: a doctrine that can break
        the premise must not declare it."""
        class WrongWide(ConcreteDoctrine):
            def reindex_el(self, f, alpha):
                value = super().reindex_el(f, alpha)
                return value ^ 1 if f.cod.name == "A*A*B" else value

        class WrongWideScanned(WrongWide):
            pointwise = False

        P = powerset_doctrine((2, 2))
        assert check_skolemisation(WrongWide(P.name, P.frame, P.universe)).passed
        rep = check_skolemisation(WrongWideScanned(P.name, P.frame, P.universe))
        assert {tuple(v["carriers"]) for v in rep.violations} == {("A", "A", "B")}
