import argparse
import io
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from dialectica import cli
from dialectica.doctrine import ConcreteDoctrine, base_closure, doctrine_to_json
from dialectica.fincat import unit_obj
from dialectica.fol import BaseSort, FunSort, Signature
from dialectica.posets import chain_poset

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

    def test_free_single_predicate_query(self, capsys, pow_path):
        data = run_json(capsys, "doctrine", "free", "--doctrine", pow_path,
                        "--predicate", "A:3")
        assert data["object"] == "A"
        assert data["existentialFree"] is True
        assert "predicate" in data

    def test_cap_applies_to_tabular_input(self, capsys, pow_path, tmp_path):
        """--cap reaches a doctrine replayed from tables, as it does one
        rebuilt from its generator."""
        with open(pow_path) as fh:
            data = json.load(fh)
        del data["generator"]
        tab = tmp_path / "tabular.json"
        tab.write_text(json.dumps(data))
        skipped = "  A*A: skipped (product size 4 exceeds cap 3)\n"
        for path in (pow_path, str(tab)):
            _, out, _ = run(capsys, "doctrine", "adjoints", "--doctrine",
                            path, "--cap", "3", "--format", "text")
            assert skipped in out

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

    @pytest.mark.parametrize("formula", ["(" * 1000 + "q" + ")" * 1000,
                                         "~" * 3000 + "q"])
    def test_deeply_nested_formula_exits_2(self, capsys, formula):
        code, out, err = run(capsys, "translate", "--formula", formula)
        assert code == 2
        assert out == ""
        assert err == "error: formula nested too deeply\n"

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
