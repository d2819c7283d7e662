import hashlib
import json
import random
from pathlib import Path

import pytest

from dialectica import cli

from dialectica.fol import (
    And,
    App,
    Atom,
    BaseSort,
    Bottom,
    Exists,
    Forall,
    FunSort,
    Implies,
    Signature,
    SyntacticClass,
    Top,
    Var,
    check_formula,
    classify_syntactic,
    parse_formula,
)
from dialectica.transform import (
    ChainStep,
    DialecticaForm,
    Rule,
    SideConditionError,
    axiom_of_choice,
    implication_chain,
    ip,
    ip_star,
    markov_principle,
    markov_rule,
    replay_step,
    state_principle,
    translate,
)
from gen import SIG, U, V, random_formula
from syntax import alpha_equal

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

PAPER_SIG = Signature(
    sorts=("U", "X", "V", "Y", "Z"),
    predicates={
        "p": (BaseSort("U"), BaseSort("X")),
        "q": (BaseSort("V"), BaseSort("Y")),
        "s": (BaseSort("Z"),),
    },
    functions={},
)


PAPER_CTX = {
    name: Var(name, BaseSort(sort))
    for name, sort in [
        ("z", "Z"),
        ("z0", "Z"),
        ("z1", "Z"),
        ("u0", "U"),
        ("x0", "X"),
        ("v0", "V"),
        ("y0", "Y"),
    ]
}


def paper(text: str):
    return parse_formula(text, PAPER_SIG, dict(PAPER_CTX))


class TestClauses:
    def test_atomic(self):
        f = Atom("s0", ())
        d = translate(f)
        assert d == DialecticaForm((), (), f)

    def test_top_bottom(self):
        assert translate(Top()) == DialecticaForm((), (), Top())
        assert translate(Bottom()) == DialecticaForm((), (), Bottom())

    def test_forall_over_atom(self):
        d = translate(paper("forall z:Z. s(z)"))
        assert d.witnesses == ()
        assert len(d.counters) == 1
        z = d.counters[0]
        assert z.sort == BaseSort("Z")
        assert d.matrix == Atom("s", (z,))

    def test_exists_over_atom(self):
        d = translate(paper("exists z:Z. s(z)"))
        assert d.counters == ()
        assert len(d.witnesses) == 1
        assert d.matrix == Atom("s", (d.witnesses[0],))

    def test_forall_exists_functionalises(self):
        d = translate(paper("forall x:X. exists u:U. p(u, x)"))
        assert len(d.witnesses) == 1 and len(d.counters) == 1
        w, c = d.witnesses[0], d.counters[0]
        assert w.sort == FunSort(BaseSort("X"), BaseSort("U"))
        assert c.sort == BaseSort("X")
        expected = parse_formula(
            "p(w @ c, c)", PAPER_SIG, {"w": w, "c": c}
        )
        assert d.matrix == expected

    def test_and_merges_blocks(self):
        d = translate(paper("(exists z:Z. s(z)) & (exists z:Z. s(z))"))
        assert len(d.witnesses) == 2
        assert d.counters == ()
        assert isinstance(d.matrix, And)

    def test_or_adds_bit_witness(self):
        f = parse_formula("s0 | s0", SIG)
        d = translate(f)
        assert len(d.witnesses) == 1
        z = d.witnesses[0]
        assert z.sort == BaseSort("Bit")
        assert isinstance(d.matrix, And)
        assert d.matrix.left == Implies(Atom("bit0", (z,)), Atom("s0", ()))
        assert classify_syntactic(d.matrix) == SyntacticClass.QUANTIFIER_FREE

    def test_implication_clause_matches_paper_shape(self):
        phi = paper("(exists u:U. forall x:X. p(u, x)) -> (exists v:V. forall y:Y. q(v, y))")
        d = translate(phi)
        expected = paper(
            "exists V:U -> V. exists X:U * Y -> X. forall u:U. forall y:Y. "
            "(p(u, X @ <u, y>) -> q(V @ u, y))"
        )
        assert alpha_equal(d.as_formula(), expected)

    def test_translation_idempotent_on_prenex(self):
        phi = paper("exists u:U. forall x:X. p(u, x)")
        d = translate(phi)
        d2 = translate(d.as_formula())
        assert alpha_equal(d.as_formula(), d2.as_formula())

    def test_matrix_quantifier_free_corpus(self):
        rng = random.Random(424)
        for _ in range(150):
            f = random_formula(rng)
            d = translate(f, SIG)
            assert classify_syntactic(d.matrix) == SyntacticClass.QUANTIFIER_FREE

    def test_output_well_sorted_corpus(self):
        rng = random.Random(425)
        for _ in range(100):
            f = random_formula(rng)
            d = translate(f, SIG)
            check_formula(d.as_formula(), SIG)

    def test_free_variables_preserved(self):
        from dialectica.fol import free_vars

        x = Var("x", U)
        f = Forall(Var("w", V), Atom("r", (x, Var("w", V))))
        d = translate(f)
        assert free_vars(d.as_formula()) == {x}


class TestChain:
    def setup_method(self):
        self.psi = translate(paper("exists u:U. forall x:X. p(u, x)"))
        self.phi = translate(paper("exists v:V. forall y:Y. q(v, y)"))
        self.steps = implication_chain(self.psi, self.phi)

    def test_six_steps_with_labels(self):
        assert len(self.steps) == 6
        labels = [s.justification for s in self.steps]
        assert labels == [
            (),
            ("ClassicalEquiv",),
            ("IPStar",),
            ("IntuitionisticEquiv",),
            ("MP",),
            ("AC", "AC"),
        ]
        assert [s.index for s in self.steps] == list(range(6))
        assert all(s.direction == "iff" for s in self.steps)

    def test_formulas_match_derivation(self):
        expect = [
            "(exists u:U. forall x:X. p(u, x)) -> (exists v:V. forall y:Y. q(v, y))",
            "forall u:U. ((forall x:X. p(u, x)) -> exists v:V. forall y:Y. q(v, y))",
            "forall u:U. exists v:V. ((forall x:X. p(u, x)) -> forall y:Y. q(v, y))",
            "forall u:U. exists v:V. forall y:Y. ((forall x:X. p(u, x)) -> q(v, y))",
            "forall u:U. exists v:V. forall y:Y. exists x:X. (p(u, x) -> q(v, y))",
            "exists V:U -> V. exists X:U * Y -> X. forall u:U. forall y:Y. "
            "(p(u, X @ <u, y>) -> q(V @ u, y))",
        ]
        for step, text in zip(self.steps, expect):
            assert alpha_equal(step.formula, paper(text)), step.index

    def test_replay_reproduces_each_step(self):
        for prev, step in zip(self.steps, self.steps[1:]):
            got = replay_step(prev.formula, step.justification)
            assert alpha_equal(got, step.formula), step.index

    def test_final_agrees_with_translate(self):
        whole = paper(
            "(exists u:U. forall x:X. p(u, x)) -> (exists v:V. forall y:Y. q(v, y))"
        )
        assert alpha_equal(self.steps[-1].formula, translate(whole).as_formula())

    def test_degenerate_chain_collapses(self):
        psi = translate(paper("s(z)"))
        phi = translate(paper("s(z)"))
        steps = implication_chain(psi, phi)
        assert len(steps) == 6
        for s in steps:
            assert alpha_equal(s.formula, steps[0].formula)

    def test_half_empty_blocks(self):
        psi = translate(paper("forall x:X. p(u0, x)"))
        phi = translate(paper("exists v:V. q(v, y0)"))
        steps = implication_chain(psi, phi)
        for prev, step in zip(steps, steps[1:]):
            assert alpha_equal(replay_step(prev.formula, step.justification), step.formula)
        whole = Implies(psi.as_formula(), phi.as_formula())
        assert alpha_equal(steps[-1].formula, translate(whole).as_formula())


class TestPrincipleSchemas:
    def test_ip_star_shape(self):
        theta = paper("p(u0, x0)")
        out = ip_star(
            theta,
            Var("x0", BaseSort("X")),
            paper("q(v0, y0)"),
            Var("v0", BaseSort("V")),
            Var("y0", BaseSort("Y")),
        )
        expected = paper(
            "((forall x0:X. p(u0, x0)) -> exists v0:V. forall y0:Y. q(v0, y0))"
            " -> exists v0:V. ((forall x0:X. p(u0, x0)) -> forall y0:Y. q(v0, y0))"
        )
        assert alpha_equal(out, expected)

    def test_ip_star_rejects_captured_witness(self):
        theta = paper("q(v0, y0)")
        with pytest.raises(SideConditionError):
            ip_star(
                theta,
                Var("y0", BaseSort("Y")),
                paper("q(v0, y0)"),
                Var("v0", BaseSort("V")),
                Var("y0", BaseSort("Y")),
            )

    def test_ip_requires_exists_free(self):
        bad = paper("exists u:U. forall x:X. p(u, x)")
        with pytest.raises(SideConditionError):
            ip(bad, Var("v0", BaseSort("V")), paper("q(v0, y0)"))

    def test_ip_allows_forall_premise(self):
        theta = paper("forall x:X. p(u0, x)")
        out = ip(theta, Var("v0", BaseSort("V")), paper("q(v0, y0)"))
        assert isinstance(out, Implies)

    def test_mp_requires_quantifier_free(self):
        with pytest.raises(SideConditionError):
            markov_principle(paper("forall x:X. p(u0, x)"), Var("u0", BaseSort("U")))

    def test_mp_shape(self):
        out = markov_principle(paper("p(u0, x0)"), Var("x0", BaseSort("X")))
        expected = paper(
            "~(forall x0:X. p(u0, x0)) -> exists x0:X. ~p(u0, x0)"
        )
        assert alpha_equal(out, expected)

    def test_markov_rule_is_rule(self):
        out = markov_rule(paper("p(u0, x0)"), Var("x0", BaseSort("X")))
        assert isinstance(out, Rule)
        assert alpha_equal(out.premise, paper("~(forall x0:X. p(u0, x0))"))

    def test_ac_shape(self):
        out = axiom_of_choice(
            paper("p(u0, x0)"), Var("x0", BaseSort("X")), Var("u0", BaseSort("U"))
        )
        expected = paper(
            "(forall x0:X. exists u0:U. p(u0, x0)) -> "
            "exists V:X -> U. forall x0:X. p(V @ x0, x0)"
        )
        assert alpha_equal(out, expected)

    def test_state_principle_dispatch(self):
        out = state_principle(
            "MP", theta=paper("p(u0, x0)"), x=Var("x0", BaseSort("X"))
        )
        assert isinstance(out, Implies)
        with pytest.raises(KeyError):
            state_principle("NOPE")


class TestOutputBytes:
    """`translate` and `chain` in every format on the benchmark's formula
    pool; the stdout bytes must be those the benchmark's digest table pins."""

    def test_formula_pool_stdout_matches_the_digests(self, tmp_path, monkeypatch, capsys):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import workloads

        (tmp_path / "sig.json").write_text(json.dumps(workloads.SIGNATURE) + "\n",
                                           encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        table = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))
        wrong, ran = [], 0
        for index, text in enumerate(workloads.formula_pool()):
            for verb in ("translate", "chain"):
                for fmt in workloads.FORMATS:
                    op = workloads.formula_op(index, text, verb, fmt)
                    code = cli.main(op["argv"])
                    out = capsys.readouterr().out
                    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()[:16]
                    if code != 0 or digest != table[op["key"]]:
                        wrong.append((op["key"], code))
                    ran += 1
        assert ran == 1800
        assert wrong == []
