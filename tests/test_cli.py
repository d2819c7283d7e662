import argparse
import contextlib
import enum
import io
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from dialectica import cli
from dialectica.doctrine import (
    ConcreteDoctrine,
    base_closure,
    doctrine_to_json,
    kripke_doctrine,
)
from dialectica.fincat import unit_obj
from dialectica.fol import BaseSort, FunSort, Signature
from dialectica.posets import antichain_poset, chain_poset

SPEC_INPUT = ("(forall x:U. exists v:V. p(x,v)) -> "
              "(exists u:U. forall y:Y. q(u,y))")
SPEC_OUTPUT = ("exists u0:(U -> V) -> U. exists u1:(U -> V) * Y -> U. "
               "forall x0:U -> V. forall x1:Y. "
               "p(u1 @ <x0, x1>, x0 @ (u1 @ <x0, x1>)) -> q(u0 @ x0, x1)")

# A one-element tabular doctrine, the base of the malformed-table cases.
ONE = '{"universe": [{"name": "A", "elements": [[0]]}]'
FIBRE = ', "fibres": {"A": {"elements": ["{}"], "leq": [[1]]}}'
FIBRE2 = ', "fibres": {"A": {"elements": ["{}", "{a0}"], "leq": [[1, 1], [0, 1]]}}'
HEYTING2 = ('"meet": [[0, 0], [0, 1]], "join": [[0, 1], [1, 1]], "imp": [[1, 1], [0, 1]], '
            '"bottom": 0')
# The signature of the ill-sorted formula cases.
ILL_SORTED_SIG = {
    "sorts": ["U", "V"],
    "predicates": [{"name": "p", "args": ["U"]}, {"name": "q", "args": ["V"]},
                   {"name": "r", "args": ["U", "V"]}, {"name": "s0", "args": []}],
    "functions": [{"name": "cU", "args": [], "result": "U"},
                  {"name": "cV", "args": [], "result": "V"},
                  {"name": "fUV", "args": ["U"], "result": "V"},
                  {"name": "hUU", "args": ["U"], "result": "U"}],
}
KRIPKE = '{"generator": {"kind": "kripke", "sizes": [2], "frame": {"elements": %s, "pairs": %s}}}'


def run(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture(scope="module")
def pow_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("doctrines") / "pow.json"
    code = cli.main(["examples", "powerset", "--sizes", "2,2",
                     "--out", str(path)])
    assert code == 0
    return str(path)


@pytest.fixture(scope="module")
def anti_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("doctrines") / "anti.json"
    code = cli.main(["examples", "kripke", "--frame", "antichain2",
                     "--sizes", "2,2", "--out", str(path)])
    assert code == 0
    return str(path)


class TestTranslate:
    def test_golden_translation(self, capsys):
        data = run_json(capsys, "translate", "--formula", SPEC_INPUT)
        assert data["command"] == "translate"
        assert data["formula"] == SPEC_OUTPUT
        assert [w["name"] for w in data["witnesses"]] == ["u0", "u1"]
        assert [c["name"] for c in data["counters"]] == ["x0", "x1"]
        assert data["witnesses"][0]["sort"] == "(U -> V) -> U"
        assert "->" in data["matrix"] and "exists" not in data["matrix"]

    def test_output_is_deterministic(self, capsys):
        first = run(capsys, "translate", "--formula", SPEC_INPUT)
        second = run(capsys, "translate", "--formula", SPEC_INPUT)
        assert first == second

    def test_text_format_prints_the_formula(self, capsys):
        code, out, _ = run(capsys, "translate", "--formula",
                           "exists x:X. p(x)", "--format", "text")
        assert code == 0
        assert "exists u0:X. p(u0)" in out
        assert not out.lstrip().startswith("{")

    def test_latex_format_switches_notation(self, capsys):
        data = run_json(capsys, "translate", "--formula",
                        "exists x:X. p(x)", "--format", "latex")
        assert "\\exists" in data["formula"]

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run(capsys, "translate", "--formula", "p(")
        assert code == 2
        assert err.startswith("error: formula:")


class TestChain:
    def test_six_steps_with_fixed_justifications(self, capsys):
        data = run_json(capsys, "chain", "--formula",
                        "(exists x:X. p(x)) -> (exists y:Y. q(y))")
        steps = data["steps"]
        assert [s["index"] for s in steps] == [0, 1, 2, 3, 4, 5]
        assert [s["justification"] for s in steps] == [
            [], ["ClassicalEquiv"], ["IPStar"], ["IntuitionisticEquiv"],
            ["MP"], ["AC", "AC"]]
        assert steps[5]["formula"] == (
            "exists V0:X -> Y. forall u0:X. p(u0) -> q(V0 @ u0)")
        assert all("formula" in s for s in steps)

    def test_latex_flag_keeps_the_record_shape(self, capsys):
        data = run_json(capsys, "chain", "--format", "latex", "--formula",
                        "(exists x:X. p(x)) -> (exists y:Y. q(y))")
        steps = data["steps"]
        assert [s["index"] for s in steps] == [0, 1, 2, 3, 4, 5]
        assert all("\\" in s["formula"] for s in steps[1:])

    def test_non_implication_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "chain", "--formula", "exists x:X. p(x)")
        assert code == 2
        assert "error:" in err


class TestDoctrineCommands:
    def test_check_passes_on_the_powerset_example(self, capsys, pow_path):
        data = run_json(capsys, "doctrine", "check", "--doctrine", pow_path)
        assert data["passed"] is True
        assert data["laws"]["passed"] is True
        for direction in ("exists", "forall"):
            assert data["quantifiers"][direction]["passed"] is True
            assert data["quantifiers"][direction]["beckChevalley"]["passed"] \
                is True

    def test_godel_reports_five_parts(self, capsys, pow_path):
        data = run_json(capsys, "doctrine", "godel", "--doctrine", pow_path)
        assert data["passed"] is True
        assert data["parts"] == {
            "cartesian_closed": True,
            "existential_universal": True,
            "enough_existential_free": True,
            "existential_free_stable_under_forall": True,
            "subdoctrine_enough_universal_free": True,
        }
        assert data["sideConditions"]["failures"] == []
        assert data["sideConditions"]["topExistentialFree"] == {
            "1": True, "A": True, "B": True}

    def test_godel_names_what_the_base_lacks(self, capsys, tmp_path):
        """Over chain2 the terminal object alone is closed as a concrete
        doctrine, but its replay lacks 1^1, whose one element is a
        function table: exit 1 comes with a failure that names it."""
        D = ConcreteDoctrine("terminal", chain_poset(2), (unit_obj(),))
        assert base_closure(D).passed
        path = tmp_path / "terminal.json"
        path.write_text(json.dumps(doctrine_to_json(D)))
        code, out, _ = run(capsys, "doctrine", "godel", "--doctrine", str(path))
        assert code == 1
        payload = json.loads(out)
        assert payload["parts"]["cartesian_closed"] is False
        assert payload["details"]["failures"] == [
            {"part": "cartesian closed",
             "detail": "exponential 1^1 is not in the declared universe"}]

    def test_godel_lists_the_failures_of_each_part(self, capsys, tmp_path):
        """Over antichain3 at sizes 2,2 two parts fail, and the report's
        failures name both."""
        path = tmp_path / "antichain3.json"
        path.write_text(json.dumps(doctrine_to_json(
            kripke_doctrine(antichain_poset(3), (2, 2)))))
        code, out, _ = run(capsys, "doctrine", "godel", "--doctrine", str(path))
        assert code == 1
        payload = json.loads(out)
        assert [k for k, ok in payload["parts"].items() if not ok] == [
            "enough_existential_free", "subdoctrine_enough_universal_free"]
        failures = payload["details"]["failures"]
        assert {f["part"] for f in failures} == {
            "enough existential-free", "subdoctrine enough universal-free"}
        assert all(f["detail"] for f in failures)

    def test_godel_reads_a_generated_doctrine_from_stdin(self, capsys,
                                                         monkeypatch):
        code, out, _ = run(capsys, "examples", "powerset", "--sizes", "2,2")
        assert code == 0
        monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        data = run_json(capsys, "doctrine", "godel")
        assert data["passed"] is True
        assert data["doctrine"] == "powerset-2x2"

    def test_antichain_side_conditions_carry_witnesses(self, capsys,
                                                       anti_path):
        data = run_json(capsys, "doctrine", "godel", "--doctrine", anti_path)
        assert data["passed"] is True  # the five parts all hold
        side = data["sideConditions"]
        assert side["topExistentialFree"] == {"1": False, "A": False,
                                              "B": False}
        assert side["bottomQuantifierFree"] == {"1": False, "A": False,
                                                "B": False}
        assert len(side["failures"]) == 6
        failure = side["failures"][0]
        assert failure["condition"] == "top existential-free"
        assert failure["object"] == "1"
        witness = failure["witness"]
        assert witness["pullbackAlong"] == "1->1#0"
        assert witness["cover"] == "{a0@w0, a1@w1}"
        assert witness["partner"] == "A"

    def test_free_census(self, capsys, pow_path):
        data = run_json(capsys, "doctrine", "free", "--doctrine", pow_path)
        rows = {r["object"]: r for r in data["census"]}
        assert rows["A"]["predicates"] == 4
        assert rows["A"]["existentialFree"] == 4
        assert rows["A"]["quantifierFree"] == 4
        assert rows["1"]["topExistentialFree"] is True

    def test_free_predicate_needs_a_colon(self, capsys, pow_path):
        assert run(capsys, "doctrine", "free", "--doctrine", pow_path,
                   "--predicate", "A0") == (
            2, "", "error: predicate selector must look like OBJECT:ELEMENT\n")

    def test_free_predicate_by_its_description(self, capsys, pow_path):
        data = run_json(capsys, "doctrine", "free", "--doctrine", pow_path,
                        "--predicate", "A:{a0}")
        assert (data["object"], data["predicate"]) == ("A", "{a0}")
        assert data["quantifierFree"] is True

    def test_free_single_predicate_query(self, capsys, pow_path):
        data = run_json(capsys, "doctrine", "free", "--doctrine", pow_path,
                        "--predicate", "A:3")
        assert data["object"] == "A"
        assert data["existentialFree"] is True
        assert "predicate" in data

    def test_cap_applies_to_tabular_input(self, capsys, pow_path, tmp_path):
        """--cap reaches a doctrine replayed from tables, as it does one
        rebuilt from its generator: both stop with exit 2 at the first
        fibre over the cap.  The closed form lists the fibre over 1*A
        first; a replay keys its recorded fibres by carrier, so it reads
        1*A's from the fibre recorded over A."""
        with open(pow_path) as fh:
            data = json.load(fh)
        del data["generator"]
        tab = tmp_path / "tabular.json"
        tab.write_text(json.dumps(data))
        for path, overrun in ((pow_path, "fibre over 1*A has 4 predicates; cap 3"),
                              (str(tab), "fibre over A has 4 predicates; cap 3")):
            assert run(capsys, "doctrine", "adjoints", "--doctrine", path,
                       "--cap", "3", "--format", "text") == (
                2, "", f"error: cap exceeded: {overrun}\n")

    def test_a_recorded_order_that_is_no_partial_order_exits_2(self, capsys, pow_path,
                                                               tmp_path):
        """A replay's recorded order is checked when it loads: the diamond
        over A without 0 <= 3 is rejected before any audit runs."""
        with open(pow_path) as fh:
            data = json.load(fh)
        del data["generator"]
        data["fibres"]["A"]["leq"][0][3] = 0
        bad = tmp_path / "bent.json"
        bad.write_text(json.dumps(data))
        assert run(capsys, "doctrine", "check", "--doctrine", str(bad)) == (
            2, "", f"error: malformed doctrine JSON: {bad}: "
                   "fibre over A: transitivity fails through 0 <= 1\n")

    def test_check_text_prints_notes_and_skipped_squares(self, capsys, pow_path, tmp_path):
        """The text report prints the law notes and the skipped squares
        the JSON lists: on the powerset-2x2 replay without A->A#0, the 8
        composites not recorded and 16 skip notes in each direction."""
        with open(pow_path) as fh:
            data = json.load(fh)
        del data["generator"]
        del data["reindex"]["A->A#0"]
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(data))
        argv = ("doctrine", "check", "--doctrine", str(path))
        code, out, _ = run(capsys, *argv, "--format", "text")
        assert code == 1
        report = json.loads(run(capsys, *argv)[1])
        lines = out.splitlines()
        notes = [n.removeprefix("  note: ") for n in lines if n.startswith("  note: ")]
        assert notes == report["laws"]["notes"]
        assert len([n for n in notes if n.startswith("composite ")]) == 8
        blocks = out.split("adjoints with Beck-Chevalley\n")[1:]
        for direction, block in zip(("exists", "forall"), blocks, strict=True):
            skipped = [s.removeprefix("  skipped: ") for s in block.splitlines()
                       if s.startswith("  skipped: ")]
            assert skipped == report["quantifiers"][direction]["beckChevalley"]["skipped"]
            assert len(skipped) == 16

    def test_adjoints_lists_both_directions(self, capsys, pow_path):
        data = run_json(capsys, "doctrine", "adjoints", "--doctrine",
                        pow_path)
        rows = data["projections"]
        assert rows
        for row in rows:
            assert row["exists"]["found"] is True
            assert row["forall"]["found"] is True


OVERRUNS = {
    "1,3": "fibre over B*B has 134217728 predicates; cap 4096",
    "2,3": "fibre over A*B has 262144 predicates; cap 4096",
}


@pytest.fixture(scope="module")
def antichain3_paths(tmp_path_factory):
    """The Kripke doctrines over antichain3 with sizes 1,3 and 2,3, whose
    products overrun the default cap, written once each."""
    out = tmp_path_factory.mktemp("antichain3")
    paths = {}
    for sizes in OVERRUNS:
        path = paths[sizes] = out / f"antichain3-{sizes.replace(',', 'x')}.json"
        D = kripke_doctrine(antichain_poset(3), tuple(map(int, sizes.split(","))))
        path.write_text(json.dumps(doctrine_to_json(D)))
    return paths


class TestCapOverrun:
    """A cap overrun gets one answer from every audit: exit 2, nothing on
    stdout, and one stderr line that names the carrier, its predicate
    count and the cap."""

    @pytest.mark.parametrize("argv", [("doctrine", "check"), ("doctrine", "adjoints"),
                                      ("doctrine", "godel"), ("doctrine", "free"),
                                      ("principles",)], ids=" ".join)
    @pytest.mark.parametrize("sizes", OVERRUNS)
    def test_every_audit_exits_2_naming_the_carrier(self, capsys, antichain3_paths,
                                                     sizes, argv):
        assert run(capsys, *argv, "--doctrine", str(antichain3_paths[sizes])) == (
            2, "", f"error: cap exceeded: {OVERRUNS[sizes]}\n")


class TestDialComplete:
    def test_terminal_fibre_payload(self, capsys, pow_path):
        data = run_json(capsys, "dial", "complete", "--doctrine", pow_path,
                        "--fibre", "1", "--bound", "1,2")
        assert data["total"] == 82
        assert data["classes"] == 2
        assert data["preorder"]["passed"] is True
        assert data["preorder"]["reflexiveFailures"] == []
        assert list(data["quadruples"][0]) == ["I", "X", "U", "alpha"]
        assert len(data["matrix"]) == 82
        assert all(len(row) == 82 for row in data["matrix"])
        assert len(data["witnessPairs"]) <= 8
        for rec in data["witnessPairs"]:
            assert set(rec) == {"from", "to", "pair"}
            assert set(rec["pair"]) == {"f0", "f1"}

    def test_matrix_suppressed_when_listing_is_truncated(self, capsys,
                                                         pow_path):
        data = run_json(capsys, "dial", "complete", "--doctrine", pow_path,
                        "--fibre", "1", "--bound", "1,2", "--list", "5")
        assert len(data["quadruples"]) == 5
        assert data["matrix"] is None

    def test_unknown_fibre_is_an_input_error(self, capsys, pow_path):
        code, _, err = run(capsys, "dial", "complete", "--doctrine", pow_path,
                           "--fibre", "Z")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("bound,message", [
        ("x", "bounds must be a comma-separated list of sizes, not 'x'"),
        ("5", "no universe object has a size within the bounds")])
    def test_unusable_bounds_are_input_errors(self, capsys, pow_path, bound, message):
        assert run(capsys, "dial", "complete", "--doctrine", pow_path,
                   "--bound", bound) == (2, "", f"error: {message}\n")


class TestPrinciples:
    def test_single_rule_pass(self, capsys, pow_path):
        data = run_json(capsys, "principles", "--doctrine", pow_path,
                        "--rule", "markov")
        assert data["passed"] is True
        assert data["mode"] == "strict"
        assert [r["rule"] for r in data["reports"]] == ["markov"]
        assert data["reports"][0]["verdict"] == "pass"

    def test_failed_hypothesis_exits_1(self, capsys, anti_path):
        code, out, _ = run(capsys, "principles", "--doctrine", anti_path,
                           "--rule", "markov")
        assert code == 1
        data = json.loads(out)
        assert data["passed"] is False
        assert data["reports"][0]["verdict"] == "hypothesis-failed"

    def test_diagnostic_mode_counts_violations(self, capsys, anti_path):
        code, out, _ = run(capsys, "principles", "--doctrine", anti_path,
                           "--rule", "markov", "--diagnostic")
        assert code == 1
        data = json.loads(out)
        assert data["mode"] == "diagnostic"
        assert data["reports"][0]["verdict"] == "fail"
        assert len(data["reports"][0]["violations"]) == 132


class TestExamples:
    def test_out_writes_the_doctrine_file(self, tmp_path, capsys):
        target = tmp_path / "chain.json"
        code, _, _ = run(capsys, "examples", "kripke", "--frame", "chain2",
                         "--sizes", "2,2", "--out", str(target))
        assert code == 0
        data = json.loads(target.read_text())
        assert data["name"] == "kripke-chain2-2x2"

    def test_pipe_streams_to_stdout(self, capsys):
        code, out, _ = run(capsys, "examples", "powerset", "--sizes", "2,2")
        assert code == 0
        assert json.loads(out)["name"] == "powerset-2x2"

    def test_generated_json_is_byte_stable(self, capsys):
        first = run(capsys, "examples", "powerset", "--sizes", "2,2")
        second = run(capsys, "examples", "powerset", "--sizes", "2,2")
        assert first == second

    def test_unknown_frame_is_an_input_error(self, capsys):
        code, _, err = run(capsys, "examples", "kripke", "--frame", "blob")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("sizes,message", [
        ("a", "sizes must be comma-separated integers, not 'a'"),
        (",", "sizes must name at least one carrier")])
    def test_unusable_sizes_are_input_errors(self, capsys, sizes, message):
        assert run(capsys, "examples", "powerset", "--sizes", sizes) == (
            2, "", f"error: {message}\n")

    def test_out_into_a_missing_directory_is_an_input_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "pow.json"
        code, out, err = run(capsys, "examples", "powerset", "--sizes", "2,2",
                             "--out", str(target))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {target}: ")
        assert not target.parent.exists()


class _Kind(enum.IntEnum):
    ONE = 1


class _Text(str):
    pass


# Atoms of the generated JSON payloads: the escapes of the string encoder,
# non-ASCII and astral text, bounds of the integers, the float spellings
# and the subclasses the stdlib writes by their base type.
_ATOMS = ('', 'plain', 'quote " and back\\slash', 'ctl \x00\x01\x1f\x7f\t\n\r\x08\x0c',
          'caf\u00e9 \u2028 \U0001f600', 0, -7, 2**64 + 1, -(2**70), True, False, None,
          _Kind.ONE, _Text('sub "str"'), float('nan'), float('inf'), float('-inf'),
          -0.0, 1e300, 0.5)
_KEYS = ('a', 'quote"', '\u00e9\U0001f600', 3, -1, 2.5, float('nan'), True, False, None)


def _random_payload(rng, depth):
    """A random JSON value nested at most ``depth`` deep, with empty
    containers, lists of integers with a stray ``True`` or ``None``, and
    dicts keyed by strings only or by any key type the stdlib takes."""
    kind = rng.randrange(6) if depth else 0
    if kind == 0:
        return rng.choice(_ATOMS)
    if kind == 1:
        ints = [rng.randrange(-2**66, 2**66) for _ in range(rng.randrange(6))]
        if ints and rng.random() < 0.4:
            ints.insert(rng.randrange(len(ints)), rng.choice((True, False, None)))
        return ints if rng.random() < 0.7 else tuple(ints)
    size = rng.randrange(4) if rng.random() < 0.8 else rng.randrange(40)
    items = [_random_payload(rng, depth - 1) for _ in range(size)]
    if kind == 2:
        return tuple(items)
    if kind == 3:
        return {f"k{i}\u00e9\"": v for i, v in enumerate(items)}
    if kind == 4:
        return {rng.choice(_KEYS): v for v in items}
    return items


class TestJsonWriter:
    """JSON goes out a block of pieces per write, with exactly the bytes of
    ``json.dumps(payload, indent=2)`` and a newline."""

    CERTIFY = ("dial", "complete", "--fibre", "A", "--quad-cap", "48",
               "--list", "128", "--pairs", "1000000")
    # Bound on the traced peak of the antichain2 diagnostic suite, in
    # bytes: measured 1.23 MB on Python 3.11 and 1.19 MB on 3.13.
    PEAK_BOUND = 2_000_000

    class Writes(io.StringIO):
        """Standard output that counts its writes."""

        def __init__(self):
            super().__init__()
            self.count = 0

        def write(self, s):
            self.count += 1
            return super().write(s)

    def emit(self, argv, fmt="json"):
        """Stdout and the number of writes of ``_emit`` on one command's
        report, and the report."""
        args = cli.build_parser().parse_args(argv)
        code, payload, lines = getattr(cli, args.handler)(args)
        out = self.Writes()
        with contextlib.redirect_stdout(out):
            assert cli._emit(code, payload, lines, fmt) == code
        return out.getvalue(), out.count, payload, lines

    def test_a_report_of_many_blocks(self, pow_path):
        out, count, payload, _ = self.emit([*self.CERTIFY, "--doctrine", pow_path])
        assert out == json.dumps(payload, indent=2) + "\n"
        assert count > 10

    def test_a_report_smaller_than_one_block(self):
        out, count, payload, _ = self.emit(["translate", "--formula", SPEC_INPUT])
        assert out == json.dumps(payload, indent=2) + "\n"
        assert count == 1

    @pytest.mark.parametrize("block", [1, 2, None])
    @pytest.mark.parametrize("seed", range(16))
    def test_generated_payloads_match_the_stdlib(self, monkeypatch, seed, block):
        """Every type the stdlib encodes, at every depth, and every block
        boundary (a block of one piece writes before each list element)."""
        if block is not None:
            monkeypatch.setattr(cli, "JSON_BLOCK", block)
        payload = _random_payload(random.Random(seed), 4)
        out = io.StringIO()
        cli._write_json(out, payload)
        assert out.getvalue() == json.dumps(payload, indent=2) + "\n"

    def test_text_format_writes_the_lines(self, pow_path):
        out, _, _, lines = self.emit([*self.CERTIFY, "--doctrine", pow_path], "text")
        assert out == "".join(line + "\n" for line in lines)

    def test_examples_out_writes_the_dumped_bytes(self, capsys, tmp_path):
        target = tmp_path / "anti.json"
        code, _, _ = run(capsys, "examples", "kripke", "--frame", "antichain2",
                         "--sizes", "2,2", "--out", str(target))
        assert code == 0
        payload = doctrine_to_json(kripke_doctrine(antichain_poset(2), (2, 2)))
        assert target.read_text(encoding="utf-8") == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("wait", [0.0, 0.5])
    def test_a_reader_that_closes_early(self, pow_path, wait):
        """The report is far larger than a pipe's buffer, so the write
        meets the closed pipe: the command still exits 0 and says nothing.
        After ``wait`` seconds the child has filled the pipe and blocks in
        a write, which the close cuts short; stdout is block-buffered, as
        it is by default, so the unwritten rest of that write stays in the
        buffer and would fail again in the flush at exit (status 120)."""
        env = {key: value for key, value in os.environ.items()
               if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
        with subprocess.Popen(
                [sys.executable, "-m", "dialectica.cli", *self.CERTIFY,
                 "--doctrine", pow_path],
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=env) as proc:
            head = proc.stdout.read(100)
            time.sleep(wait)
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait()
        assert (code, err, head[:1]) == (0, b"", b"{")
        assert len(head) == 100

    def test_peak_memory_of_a_diagnostic_report(self, capsys, anti_path):
        """The antichain2 diagnostic suite writes 0.41 MB of JSON.  Encoding
        the whole report into one string, with a second copy for the
        newline and a copy of each entry, peaked at 3.21 MB."""
        argv = ("principles", "--diagnostic", "--doctrine", anti_path)
        run(capsys, *argv)
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert len(out) > 400_000
        assert peak < self.PEAK_BOUND


class TestErrorChannels:
    def test_unreadable_input_message(self, capsys, tmp_path):
        missing = str(tmp_path / "gone.json")
        code, _, err = run(capsys, "doctrine", "check", "--doctrine", missing)
        assert code == 2
        assert err.startswith(f"error: cannot read input: {missing}:")

    def test_malformed_doctrine_message(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"universe": [')
        code, _, err = run(capsys, "doctrine", "check", "--doctrine",
                           str(bad))
        assert code == 2
        assert err.startswith(f"error: malformed doctrine JSON: {bad}:")

    def test_doctrine_json_without_the_right_shape(self, capsys, tmp_path):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2, 3]")
        code, _, err = run(capsys, "doctrine", "check", "--doctrine",
                           str(bad))
        assert code == 2
        assert err.startswith("error: malformed doctrine JSON:")

    def test_universe_that_is_not_a_list(self, capsys, tmp_path):
        bad = tmp_path / "universe.json"
        bad.write_text('{"universe": 5}')
        code, _, err = run(capsys, "doctrine", "check", "--doctrine",
                           str(bad))
        assert code == 2
        assert err.startswith("error: malformed doctrine JSON:")

    @pytest.mark.parametrize("text", [
        '{"universe": [{}]}',
        '{"universe": [{"name": "A", "elements": [1]}]}',
        '{"generator": 5}',
        '{"generator": {"kind": "powerset", "sizes": 5}}',
        '{"generator": {"kind": "kripke", "sizes": [2], "frame": 5}}',
        '{"universe": [{"name": "A", "elements": [[{}]]}]}',
        '{"universe": [{"name": "A", "elements": [[[0]]]}]}',
        ONE + ', "fibres": []}',
        ONE + ', "fibres": {"A": 5}}',
        ONE + ', "fibres": {"A": {"elements": 5, "leq": []}}}',
        ONE + FIBRE + ', "heyting": {"A": {"meet": 5, "join": [[0]], "imp": [[0]], '
        '"top": 0, "bottom": 0}}}',
        ONE + FIBRE + ', "reindex": 5}',
        ONE + FIBRE + ', "reindex": {"A->A#0": ["a"]}}',
        ONE + FIBRE + ', "heyting": {"A": {"meet": [[0]], "join": [[0]], "imp": [[0]], '
        '"top": 7, "bottom": 0}}}',
        ONE + FIBRE + ', "frobnicate": 1}',
        ONE + FIBRE + ', "kind": "tabulated"}',
        ONE + FIBRE + ', "notes": [1]}',
        '{"kind": "tabular", "generator": {"kind": "powerset", "sizes": [2]}}',
        ONE + FIBRE + ', "generator": null}',
        ONE + FIBRE + ', "generator": []}',
        ONE + FIBRE + ', "generator": {}}',
        ONE + FIBRE + ', "generator": 0}',
    ], ids=["entry-without-elements", "element-not-a-list",
            "generator-not-an-object", "sizes-not-a-list", "frame-not-an-object",
            "object-component", "array-component", "fibres-not-an-object",
            "fibre-not-an-object", "fibre-elements-not-a-list", "meet-not-a-table",
            "reindex-not-an-object", "reindex-entry-not-an-index", "top-outside-the-fibre",
            "unknown-top-level-key", "unknown-kind", "notes-not-strings",
            "tabular-kind-with-generator", "generator-null", "generator-empty-list",
            "generator-empty-object", "generator-zero"])
    def test_malformed_doctrine_shape_exits_2(self, capsys, tmp_path, text):
        bad = tmp_path / "shape.json"
        bad.write_text(text)
        code, out, err = run(capsys, "doctrine", "check", "--doctrine",
                             str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith("error: malformed doctrine JSON:")

    @pytest.mark.parametrize("text,argv,reason", [
        (KRIPKE % ('["a", "b"]', "[[0, 0], [1, 1], [0, 2]]"), (),
         "generator.frame: pair [0, 2] is not two indices below 2"),
        (KRIPKE % ('["a", "b"]', "[[0, 0], [1, 1], [0]]"), (),
         "generator.frame: pair [0] is not two indices below 2"),
        (KRIPKE % ("[7, 8]", "[[0, 0], [1, 1]]"), ("free", "--predicate", "1:1"),
         "generator.frame.elements[0]: expected a string, got 7"),
        (KRIPKE % ('["a", "b"]', "[[0, 0], [1, 1], [-1, 0]]"), (),
         "generator.frame: pair [-1, 0] is not two indices below 2"),
        ('{"universe": [{"name": "A", "elements": [[0]], "size": 1}]}', (),
         "universe[0].size: unknown key"),
        (ONE + ', "fibres": {"A": {"elements": ["{}"], "leq": [[1]], "top": 0}}}', (),
         "fibres.A.top: unknown key"),
        (ONE + FIBRE2 + ', "heyting": {"A": {' + HEYTING2 + ', "top": 1, "one": 1}}}', (),
         "heyting.A.one: unknown key"),
        ('{"generator": {"kind": "powerset", "sizes": [2], "seed": 0}}', (),
         "generator.seed: unknown key"),
        ('{"universe": [{"name": "A", "arity": 1.5, "elements": [[0]]}]}', (),
         "universe[0].arity: expected an integer, got 1.5"),
        (ONE + ', "fibres": {"A": {"elements": ["{}"], "leq": [["no"]]}}}', (),
         'fibres.A.leq[0][0]: expected an integer, got "no"'),
        (ONE + FIBRE2 + ', "heyting": {"A": {' + HEYTING2 + ', "top": true}}}', (),
         "heyting.A.top: expected an integer, got true"),
        (ONE + FIBRE2 + ', "reindex": {"A->A#0": [0, true]}}', (),
         "reindex.A->A#0[1]: expected an integer, got true"),
        (ONE + ', "fibres": {"A": {"elements": [0], "leq": [[1]]}}}', (),
         "fibres.A.elements[0]: expected a string, got 0"),
        ('{"name": ["d"], "universe": [{"name": "A", "elements": [[0]]}]}', (),
         'name: expected a string, got ["d"]'),
        (ONE + FIBRE + ', "frame": {"worlds": 2}}', (), "frame.worlds: unknown key"),
    ], ids=["frame-pair-out-of-range", "frame-pair-short", "world-labels-not-strings",
            "frame-pair-negative", "universe-entry-extra-key", "fibre-extra-key",
            "heyting-extra-key", "generator-extra-key", "arity-not-an-integer",
            "leq-cell-a-string", "top-a-bool", "reindex-entry-a-bool",
            "fibre-labels-not-strings", "name-a-list", "junk-frame-on-a-replay"])
    def test_misread_input_is_named(self, capsys, tmp_path, text, argv, reason):
        """Each of these once ended in exit 3 or loaded with a part misread
        or ignored; now the file is rejected, naming the part's path."""
        bad = tmp_path / "input.json"
        bad.write_text(text)
        code, out, err = run(capsys, "doctrine", *(argv or ("check",)), "--doctrine", str(bad))
        assert (code, out) == (2, "")
        assert err == f"error: malformed doctrine JSON: {bad}: {reason}\n"

    @pytest.mark.parametrize("text,reason", [
        ("[]", "top level: expected an object, got []"),
        ("5", "top level: expected an object, got 5"),
        ('{"sort": ["U"]}', "sort: unknown key"),
        ('{"sorts": "UV"}', 'sorts: expected an array, got "UV"'),
        ('{"sorts": ["U", 1]}', "sorts[1]: expected a string, got 1"),
        ('{"predicates": {"p": ["U"]}}', 'predicates: expected an array, got {"p": ["U"]}'),
        ('{"predicates": [5]}', "predicates[0]: expected an object, got 5"),
        ('{"predicates": [{"name": "p", "arg": ["U"]}]}', "predicates[0].arg: unknown key"),
        ('{"predicates": [{"name": 5, "args": []}]}',
         "predicates[0].name: expected a string, got 5"),
        ('{"predicates": [{"name": "p", "args": "U"}]}',
         'predicates[0].args: expected an array, got "U"'),
        ('{"functions": [{"name": "c", "args": []}]}',
         "functions[0].result: expected a string, got nothing"),
        ('{"functions": [{"name": "c", "args": [], "result": ["U"]}]}',
         'functions[0].result: expected a string, got ["U"]'),
        ('{"sorts": ["U"], "predicates": [{"name": "p", "args": ["U"]}, {"name": "p"}]}',
         'predicates entry "p" is declared twice'),
        ('{"sorts": ["U"], "functions": [{"name": "c", "result": "U"}, '
         '{"name": "c", "args": ["U"], "result": "U"}]}', 'functions entry "c" is declared twice'),
        ('{"sorts": ["U"], "predicates": [{"name": "p", "args": ["U * (V -> U)"]}]}',
         'predicates entry "p" names undeclared sort V'),
        ('{"sorts": ["U"], "functions": [{"name": "f", "args": ["W"], "result": "U"}]}',
         'functions entry "f" names undeclared sort W'),
        ('{"sorts": ["U"], "functions": [{"name": "f", "args": ["U"], "result": "V"}]}',
         'functions entry "f" names undeclared sort V'),
    ], ids=["array", "number", "misspelt-key", "sorts-string", "sorts-not-strings",
            "predicates-object", "predicate-number", "predicate-extra-key",
            "predicate-name-number", "predicate-args-string", "function-without-result",
            "function-result-list", "predicate-twice", "function-twice",
            "predicate-undeclared-sort", "function-undeclared-arg",
            "function-undeclared-result"])
    def test_malformed_signature_exits_2(self, capsys, tmp_path, text, reason):
        bad = tmp_path / "sig.json"
        bad.write_text(text)
        code, out, err = run(capsys, "translate", "--sig", str(bad), "--formula", "true")
        assert (code, out) == (2, "")
        assert err == f"error: cannot read input: {bad}: not a signature: {reason}\n"

    def test_written_signature_loads(self, capsys, tmp_path):
        sig = Signature(("U", "V"), {"r": (BaseSort("U"), BaseSort("V"))},
                        {"f": ((BaseSort("U"),), FunSort(BaseSort("U"), BaseSort("V")))})
        path = tmp_path / "sig.json"
        path.write_text(json.dumps(sig.to_json()))
        assert Signature.from_json(json.loads(path.read_text())) == sig
        data = run_json(capsys, "translate", "--sig", str(path),
                        "--formula", "forall u:U. r(u, f(u) @ u)")
        assert data["formula"] == "forall x0:U. r(x0, f(x0) @ x0)"

    @pytest.mark.parametrize("verb", ["translate", "chain"])
    @pytest.mark.parametrize("formula, reason", [
        ("p(cV)", "argument has sort V, expected U: cV"),
        ("r(cV, cU)", "argument has sort V, expected U: cV"),
        ("p(fUV(cU))", "argument has sort V, expected U: fUV(cU)"),
        ("p(hUU(cV))", "argument has sort V, expected U: cV"),
        ("exists x:U. q(x)", "argument has sort U, expected V: x"),
        ("forall f:U -> V. p(f @ cU)", "argument has sort V, expected U: f @ cU"),
        ("forall z:U * V. p(z)", "argument has sort U * V, expected U: z"),
        ("r(cU)", "r expects 2 arguments: r"),
        ("s0(cU)", "s0 expects 0 arguments: s0"),
        ("forall x:W. p(x)", "undeclared sort W: W"),
    ], ids=["constant", "first-of-two", "function-result", "function-argument",
            "bound-variable", "evaluation", "product-sort", "too-few-arguments",
            "nullary-with-argument", "undeclared-sort"])
    def test_ill_sorted_formula_exits_2(self, capsys, tmp_path, verb, formula, reason):
        """The parser sort-checks against the given signature, so the
        translation is not asked to check again; each side of a chain is
        checked whichever side is ill-sorted."""
        path = tmp_path / "sig.json"
        path.write_text(json.dumps(ILL_SORTED_SIG))
        for text in ([formula] if verb == "translate"
                     else [f"({formula}) -> s0", f"s0 -> ({formula})"]):
            code, out, err = run(capsys, verb, "--sig", str(path), "--formula", text)
            assert (code, out, err) == (2, "", f"error: formula: {reason}\n"), text

    @pytest.mark.parametrize("formula", ["(" * 1000 + "q" + ")" * 1000,
                                         "~" * 3000 + "q"])
    def test_deeply_nested_formula_exits_2(self, capsys, formula):
        code, out, err = run(capsys, "translate", "--formula", formula)
        assert code == 2
        assert out == ""
        assert err == "error: formula nested too deeply\n"

    @pytest.mark.parametrize("fmt", ["json", "text", "latex"])
    @pytest.mark.parametrize("verb, formula", [("translate", "~" * 900 + "q"),
                                               ("chain", "~" * 900 + "q -> q")],
                             ids=["translate", "chain"])
    def test_nine_hundred_negations_exit_0(self, capsys, verb, formula, fmt):
        """The parser takes up to 987 negations; every later walk (the
        translation, substitution, the chain and each render) must take one
        stack frame per nesting level, or 900 would overflow the stack."""
        code, out, err = run(capsys, verb, "--format", fmt, "--formula", formula)
        assert (code, err) == (0, "")
        assert out.count("~" if fmt != "latex" else "\\neg") >= 900

    def test_cap_exceeded_message(self, capsys, pow_path):
        code, _, err = run(capsys, "doctrine", "free", "--doctrine", pow_path,
                           "--cap", "3")
        assert code == 2
        assert err.startswith("error: cap exceeded:")

    def test_latex_is_restricted_to_formula_commands(self, capsys, pow_path):
        code, _, err = run(capsys, "doctrine", "check", "--doctrine",
                           pow_path, "--format", "latex")
        assert code == 2
        assert "latex" in err

    def test_invalid_jobs_and_cap_values(self, capsys):
        """Both are rejected before the doctrine is read (here stdin, which
        the test runner does not let a test read)."""
        for jobs in ("0", "2"):
            code, out, err = run(capsys, "principles", "--jobs", jobs)
            assert code == 2
            assert out == ""
            assert err == "error: --jobs: parallel rule runs were removed; use 1\n"
        code, out, err = run(capsys, "doctrine", "check", "--cap", "0")
        assert (code, out) == (2, "")
        assert err == "error: --cap must be positive\n"

    def test_unknown_top_level_key_is_named(self, capsys, pow_path, tmp_path):
        data = json.loads(Path(pow_path).read_text(encoding="utf-8"))
        data["frobnicate"] = 1
        bad = tmp_path / "extra.json"
        bad.write_text(json.dumps(data))
        code, out, err = run(capsys, "doctrine", "check", "--doctrine", str(bad))
        assert (code, out) == (2, "")
        assert err == f"error: malformed doctrine JSON: {bad}: frobnicate: unknown key\n"

    def test_tampered_generator_file_is_named(self, capsys, pow_path, tmp_path):
        """A generator file's recorded tables must match the generator."""
        data = json.loads(Path(pow_path).read_text(encoding="utf-8"))
        data["fibres"]["1"]["leq"] = [[1, 1], [1, 1]]
        data["reindex"] = {"bogus": 5}
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(data))
        code, out, err = run(capsys, "doctrine", "check", "--doctrine", str(bad))
        assert (code, out) == (2, "")
        assert err == (f"error: malformed doctrine JSON: {bad}: "
                       "reindex.bogus: expected an array, got 5\n")

    @pytest.mark.parametrize("flags,message", [
        (("--quad-cap", "0"), "--quad-cap must be at least 1"),
        (("--quad-cap", "-5"), "--quad-cap must be at least 1"),
        (("--list", "-1"), "--list must be at least 0"),
        (("--pairs", "-1"), "--pairs must be at least 0"),
    ], ids=["quad-cap-zero", "quad-cap-negative", "list-negative", "pairs-negative"])
    def test_dial_complete_rejects_bad_bounds(self, capsys, pow_path, flags, message):
        code, out, err = run(capsys, "dial", "complete", "--doctrine", pow_path, *flags)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_unexpected_exception_is_one_line_exit_3(self, capsys, monkeypatch):
        def broken(args):
            raise ValueError("planted fault\nsecond line")

        monkeypatch.setattr(cli, "cmd_translate", broken)
        code, out, err = run(capsys, "translate", "--formula", "p()")
        assert (code, out) == (3, "")
        assert err == "error: internal: ValueError: planted fault second line\n"

    def test_unknown_subcommand_exits_2(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_missing_subcommand_exits_2(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("--format", "text", "translate", "--formula", "p"),
        ("doctrine", "--cap", "3", "free", "--doctrine", "POW"),
    ], ids=["format-before-the-command", "cap-before-the-action"])
    def test_shared_flag_before_the_command_exits_2(self, capsys, pow_path, argv):
        """A command's flags belong to the parser that runs it; one given
        before the command name is a usage error, not silently dropped."""
        code, out, err = run(capsys, *(pow_path if a == "POW" else a for a in argv))
        assert (code, out) == (2, "")
        assert "error:" in err


class TestReusedParser:
    """`main` builds its argument parser on the first call and reuses it;
    no call's arguments leak into a later one."""

    def test_parser_is_built_once(self, capsys):
        cli.build_parser.cache_clear()
        for argv in (("translate", "--formula", SPEC_INPUT), ("frobnicate",),
                     ("chain", "--formula", "p() -> q()"), ("translate", "--formula", "p()")):
            run(capsys, *argv)
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 3)

    def test_usage_error_between_calls_leaves_the_output_unchanged(self, capsys):
        first = run(capsys, "translate", "--formula", SPEC_INPUT)
        code, out, err = run(capsys, "translate", "--format", "text", "--formula")
        assert (code, out) == (2, "")
        assert "expected one argument" in err
        assert run(capsys, "translate", "--formula", SPEC_INPUT) == first
        assert json.loads(first[1])["formula"] == SPEC_OUTPUT

    def test_latex_guard_after_a_formula_command(self, capsys, pow_path):
        code, out, _ = run(capsys, "translate", "--formula", SPEC_INPUT, "--format", "latex")
        assert code == 0 and out
        code, out, err = run(capsys, "doctrine", "godel", "--doctrine", pow_path,
                             "--format", "latex")
        assert (code, out) == (2, "")
        assert "error: argument --format: invalid choice: 'latex'" in err


def _leaves(parser, path=()):
    """(command, parser) for each parser that runs a command."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(path), parser
    for action in subs:
        for name, child in action.choices.items():
            yield from _leaves(child, path + (name,))


# One short run of each command; TINY stands for a one-carrier doctrine file.
MINIMAL_ARGV = {
    "translate": ("translate", "--formula", "p"),
    "chain": ("chain", "--formula", "p -> q"),
    "doctrine check": ("doctrine", "check", "--doctrine", "TINY"),
    "doctrine adjoints": ("doctrine", "adjoints", "--doctrine", "TINY"),
    "doctrine free": ("doctrine", "free", "--doctrine", "TINY"),
    "doctrine godel": ("doctrine", "godel", "--doctrine", "TINY"),
    "dial complete": ("dial", "complete", "--doctrine", "TINY"),
    "principles": ("principles", "--doctrine", "TINY"),
    "examples powerset": ("examples", "powerset"),
    "examples kripke": ("examples", "kripke"),
}


class TestDeclaredFlags:
    """Each command declares exactly the flags its handler reads."""

    def test_flag_count_and_commands(self):
        leaves = dict(_leaves(cli.build_parser()))
        assert set(leaves) == set(MINIMAL_ARGV)
        flags = [a for p in leaves.values() for a in p._actions
                 if a.option_strings and not isinstance(a, argparse._HelpAction)]
        assert len(flags) == 41

    @pytest.mark.parametrize("command", sorted(MINIMAL_ARGV))
    def test_every_declared_flag_is_read(self, capsys, monkeypatch, tmp_path, command):
        tiny = str(tmp_path / "tiny.json")
        assert cli.main(["examples", "powerset", "--sizes", "1", "--out", tiny]) == 0
        read = set()

        class Recording(argparse.Namespace):
            def __getattribute__(self, name):
                read.add(name)
                return super().__getattribute__(name)

        parser = cli.build_parser()
        monkeypatch.setattr(cli, "build_parser", lambda: argparse.Namespace(
            parse_args=lambda argv: Recording(**vars(parser.parse_args(argv)))))
        argv = [tiny if a == "TINY" else a for a in MINIMAL_ARGV[command]]
        code, _, err = run(capsys, *argv)
        assert code in (0, 1), err
        declared = set(vars(parser.parse_args(argv))) - {"handler", "command", "action"}
        assert declared - read == set()

    @pytest.mark.parametrize("argv", [
        ("translate", "--formula", "p", "--seed", "5"),
        ("examples", "powerset", "--cap", "1"),
        ("doctrine", "check", "--doctrine", "POW", "--diagnostic"),
        ("chain", "--formula", "p -> q", "--latex"),
        ("examples", "powerset", "--pipe"),
        ("examples", "powerset", "--size", "2"),
    ], ids=["translate-seed", "examples-cap", "check-diagnostic", "chain-latex",
            "examples-pipe", "examples-size"])
    def test_flag_the_command_does_not_read_exits_2(self, capsys, pow_path, argv):
        code, out, err = run(capsys, *(pow_path if a == "POW" else a for a in argv))
        assert (code, out) == (2, "")
        command = " ".join(itertools.takewhile(lambda a: not a.startswith("-"), argv))
        assert err.startswith(f"usage: dialectica {command} [-h] ")
        assert f"dialectica {command}: error: unrecognized arguments: " in err


class TestInstalledEntryPoint:
    @pytest.mark.skipif(shutil.which("dialectica") is None,
                        reason="console script not on PATH")
    def test_console_script_translates(self):
        out = subprocess.run(
            ["dialectica", "translate", "--formula", "exists x:X. p(x)"],
            capture_output=True, text=True, check=True)
        data = json.loads(out.stdout)
        assert data["formula"] == "exists u0:X. p(u0)"

    @pytest.mark.skipif(shutil.which("dialectica") is None,
                        reason="console script not on PATH")
    def test_process_runs_are_byte_identical(self, pow_path):
        cmd = ["dialectica", "doctrine", "godel", "--doctrine", pow_path]
        first = subprocess.run(cmd, capture_output=True, check=True)
        second = subprocess.run(cmd, capture_output=True, check=True)
        assert first.stdout == second.stdout
