import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialectica.fol import (
    UNIT,
    And,
    App,
    Atom,
    BaseSort,
    Bottom,
    Ev,
    Exists,
    FolDepthError,
    FolError,
    FolSortError,
    FolSyntaxError,
    Forall,
    FunSort,
    Implies,
    Not,
    Or,
    Pair,
    ProdSort,
    Signature,
    Sort,
    SyntacticClass,
    Top,
    Var,
    check_formula,
    check_term,
    classify_syntactic,
    formula_to_latex,
    formula_to_text,
    free_vars,
    parse_formula,
    parse_sort,
    sort_to_text,
    substitute_many,
    term_sort,
    term_to_text,
)
from dialectica.transform import implication_chain, translate
from gen import SIG, U, V, random_formula
from syntax import (
    LATEX,
    TEXT,
    alpha_canonical,
    alpha_equal,
    parse_term,
    sort_to_latex,
    tree_formula,
    tree_sort,
    tree_substitute_many,
)


class TestSorts:
    def test_parse_print_atoms(self):
        assert parse_sort("U") == BaseSort("U")
        assert parse_sort("1") == UNIT
        assert sort_to_text(UNIT) == "1"

    def test_arrow_right_associative(self):
        s = parse_sort("U -> V -> W")
        assert s == FunSort(BaseSort("U"), FunSort(BaseSort("V"), BaseSort("W")))

    def test_product_flat(self):
        s = parse_sort("U * V * W")
        assert s == ProdSort((BaseSort("U"), BaseSort("V"), BaseSort("W")))

    def test_mixed_precedence(self):
        s = parse_sort("U * Y -> X")
        assert s == FunSort(ProdSort((BaseSort("U"), BaseSort("Y"))), BaseSort("X"))

    def test_round_trip(self):
        for text in ["U", "1", "U -> V", "U * Y -> X", "(U -> V) * X", "U -> V * X -> Y"]:
            s = parse_sort(text)
            assert parse_sort(sort_to_text(s)) == s


class TestTerms:
    def test_ev_left_associative(self):
        ctx = {"g": Var("g", FunSort(U, FunSort(U, U))), "a": Var("a", U)}
        t = parse_term("g @ a @ a", SIG, ctx)
        assert isinstance(t, Ev) and isinstance(t.fn, Ev)

    def test_pair_sort(self):
        ctx = {"a": Var("a", U)}
        t = parse_term("<a, cV>", SIG, ctx)
        assert term_sort(t) == ProdSort((U, V))

    def test_ev_sort_mismatch(self):
        with pytest.raises(FolSortError) as e:
            parse_term("FF @ cV", SIG)
        assert "cV" in str(e.value)

    def test_function_arg_mismatch(self):
        with pytest.raises(FolSortError):
            parse_term("fUV(cV)", SIG)

    def test_print_round_trip(self):
        ctx = {"a": Var("a", U)}
        for text in ["hUU(hUU(a))", "FF @ a", "FF @ hUU(a)", "<a, FF @ a>"]:
            t = parse_term(text, SIG, ctx)
            assert parse_term(term_to_text(t), SIG, ctx) == t

    def test_hashing_a_term_does_not_hash_its_sort(self):
        """A term's hash leaves its sort out, so a mapping lookup does not
        walk a deep sort; equality still tells two sorts apart."""
        class CountingSort(Sort):
            hashed = 0

            def __hash__(self):
                CountingSort.hashed += 1
                return 0

        s = CountingSort()
        x = Var("x", s)
        hash(x)
        hash(App("f", (x,), s))
        assert {x: 1}[Var("x", s)] == 1
        assert CountingSort.hashed == 0
        assert Var("x", U) != Var("x", V)
        assert App("c", (), U) != App("c", (), V)


class TestFormulaParsing:
    def test_precedence(self):
        f = parse_formula("s0 & s0 | s0 -> s0", SIG)
        assert isinstance(f, Implies)
        assert isinstance(f.left, Or)
        assert isinstance(f.left.left, And)

    def test_implies_right_associative(self):
        f = parse_formula("s0 -> s0 -> s0", SIG)
        assert isinstance(f.right, Implies)

    def test_negation_binds_tight(self):
        f = parse_formula("~s0 & s0", SIG)
        assert isinstance(f, And)
        assert f.left == Not(Atom("s0", ()))

    def test_quantifier_scope_maximal(self):
        f = parse_formula("exists u:U. p(u) & s0", SIG)
        assert isinstance(f, Exists)
        assert isinstance(f.body, And)

    def test_quantifier_over_function_sort(self):
        f = parse_formula("exists h:U -> V. q(h @ cU)", SIG)
        assert f.var.sort == FunSort(U, V)

    def test_unknown_predicate_position(self):
        with pytest.raises(FolSyntaxError) as e:
            parse_formula("s0 & zz(cU)", SIG)
        assert e.value.pos == 5

    def test_unbound_variable(self):
        with pytest.raises(FolSyntaxError):
            parse_formula("p(u)", SIG)

    def test_trailing_input(self):
        with pytest.raises(FolSyntaxError):
            parse_formula("s0 s0", SIG)

    @pytest.mark.parametrize("parse,text,what", [
        (lambda t: parse_formula(t), "(" * 1000 + "q" + ")" * 1000, "formula"),
        (lambda t: parse_formula(t, SIG), "~" * 3000 + "s0", "formula"),
        (lambda t: parse_term(t, SIG), "(" * 1000 + "cU" + ")" * 1000, "term"),
        (lambda t: parse_sort(t, SIG), "U -> " * 1000 + "U", "sort"),
    ], ids=["parens", "negations", "term", "sort"])
    def test_deep_nesting_raises_a_fol_error(self, parse, text, what):
        with pytest.raises(FolDepthError) as e:
            parse(text)
        assert isinstance(e.value, FolError)
        assert str(e.value) == f"{what} nested too deeply"

    def test_atom_sort_error_names_subterm(self):
        with pytest.raises(FolSortError) as e:
            parse_formula("p(cV)", SIG)
        assert e.value.subject == "cV"

    def test_shadowing(self):
        f = parse_formula("exists u:U. (exists u:U. p(u)) & p(u)", SIG)
        inner = f.body.left
        assert inner.body == Atom("p", (Var("u", U),))
        assert f.body.right == Atom("p", (Var("u", U),))

    def test_round_trip_corpus(self):
        rng = random.Random(18231)
        for _ in range(300):
            f = random_formula(rng)
            text = formula_to_text(f)
            assert parse_formula(text, SIG) == f, text

    def test_latex_smoke(self):
        f = parse_formula("exists u:U. ~p(u) & false", SIG)
        tex = formula_to_latex(f)
        assert "\\exists" in tex and "\\neg" in tex and "\\bot" in tex


def substitute(phi, x, t):
    """Substitute t for the free occurrences of x in phi."""
    return substitute_many(phi, {x: t})


class TestSubstitution:
    def test_plain(self):
        f = Atom("p", (Var("x", U),))
        assert substitute(f, Var("x", U), App("cU", (), U)) == Atom("p", (App("cU", (), U),))

    def test_bound_occurrence_untouched(self):
        x = Var("x", U)
        f = Exists(x, Atom("p", (x,)))
        assert substitute(f, x, App("cU", (), U)) == f

    def test_capture_avoided(self):
        x, y = Var("x", U), Var("y", U)
        f = Forall(y, Atom("r", (x, App("fUV", (y,), V))))
        out = substitute(f, x, y)
        assert out.var.name != "y"
        assert out.body.args[0] == y
        assert out.body.args[1] == App("fUV", (out.var,), V)

    def test_substitution_composes(self):
        rng = random.Random(5500)
        x = Var("x0", U)
        for _ in range(100):
            f = random_formula(rng, ctx=(x,))
            t = App("hUU", (App("cU", (), U),), U)
            one = substitute(f, x, t)
            assert x not in free_vars(one)


class TestAlpha:
    def test_alpha_equal_renamed(self):
        f = parse_formula("exists u:U. p(u)", SIG)
        g = parse_formula("exists w:U. p(w)", SIG)
        assert alpha_equal(f, g)

    def test_alpha_distinguishes_structure(self):
        f = parse_formula("exists u:U. forall w:V. r(u, w)", SIG)
        g = parse_formula("forall u:U. exists w:V. r(u, w)", SIG)
        assert not alpha_equal(f, g)

    def test_alpha_distinguishes_sorts(self):
        f = Exists(Var("u", U), Top())
        g = Exists(Var("u", V), Top())
        assert not alpha_equal(f, g)

    def test_free_vars_kept(self):
        x = Var("x", U)
        f = Exists(Var("u", U), Atom("r", (x, App("fUV", (Var("u", U),), V))))
        assert x in free_vars(alpha_canonical(f))

    def test_canonical_idempotent(self):
        rng = random.Random(99)
        for _ in range(100):
            f = random_formula(rng)
            c = alpha_canonical(f)
            assert alpha_canonical(c) == c


class TestClassify:
    def test_quantifier_free(self):
        f = parse_formula("p(cU) & ~q(cV)", SIG)
        assert classify_syntactic(f) == SyntacticClass.QUANTIFIER_FREE

    def test_exists_free(self):
        f = parse_formula("forall x:U. p(x)", SIG)
        assert classify_syntactic(f) == SyntacticClass.EXISTS_FREE

    def test_neither_exists(self):
        f = parse_formula("exists u:U. p(u)", SIG)
        assert classify_syntactic(f) == SyntacticClass.NEITHER

    def test_or_blocks_exists_free(self):
        f = parse_formula("p(cU) | s0", SIG)
        assert classify_syntactic(f) == SyntacticClass.NEITHER

    def test_forall_over_or_is_neither(self):
        f = parse_formula("forall x:U. p(x) | s0", SIG)
        assert classify_syntactic(f) == SyntacticClass.NEITHER


class TestSignature:
    def test_bit_auto_added(self):
        sig = Signature(("U",), {}, {})
        assert "Bit" in sig.sorts
        assert sig.predicates["bit0"] == (BaseSort("Bit"),)

    def test_json_round_trip(self):
        data = SIG.to_json()
        sig2 = Signature.from_json(data)
        assert sig2.sorts == SIG.sorts
        assert sig2.predicates == SIG.predicates
        assert sig2.functions == SIG.functions

    def test_check_formula_rejects_bad_sort(self):
        bad = Atom("p", (App("cV", (), V),))
        with pytest.raises(FolSortError):
            check_formula(bad, SIG)

    def test_check_formula_accepts_parsed(self):
        rng = random.Random(7)
        for _ in range(50):
            check_formula(random_formula(rng), SIG)


CU, CV = App("cU", (), U), App("cV", (), V)
FF = App("FF", (), FunSort(U, V))


class TestSortErrorMessages:
    """Every argument sort check gives one message, naming the argument."""

    @pytest.mark.parametrize("run,message,subject", [
        (lambda: parse_term("fUV(cV)", SIG),
         "argument has sort V, expected U", "cV"),
        (lambda: check_term(App("fUV", (CV,), V), SIG),
         "argument has sort V, expected U", "cV"),
        (lambda: parse_formula("r(cU, hUU(cU))", SIG),
         "argument has sort U, expected V", "hUU(cU)"),
        (lambda: check_formula(Atom("r", (CU, App("hUU", (CU,), U))), SIG),
         "argument has sort U, expected V", "hUU(cU)"),
        (lambda: parse_term("hUU(cU) @ cU", SIG),
         "applied term is not of function sort", "hUU(cU)"),
        (lambda: check_term(Ev(App("hUU", (CU,), U), CU), SIG),
         "applied term is not of function sort", "hUU(cU)"),
        (lambda: parse_formula("q(FF @ fUV(cU))", SIG),
         "argument has sort V, expected U", "fUV(cU)"),
        (lambda: check_formula(Atom("q", (Ev(FF, App("fUV", (CU,), V)),)), SIG),
         "argument has sort V, expected U", "fUV(cU)"),
    ], ids=["function-parsed", "function-checked", "predicate-parsed",
            "predicate-checked", "ev-non-function-parsed", "ev-non-function-checked",
            "ev-argument-parsed", "ev-argument-checked"])
    def test_message_and_subject(self, run, message, subject):
        with pytest.raises(FolSortError) as e:
            run()
        assert str(e.value) == f"{message}: {subject}"
        assert e.value.subject == subject


class TestRenderings:
    @pytest.mark.parametrize("text,plain,latex", [
        ("1", "1", "1"),
        ("(U * V) -> U", "U * V -> U", "U \\times V \\to U"),
        ("U -> (U -> U)", "U -> U -> U", "U \\to U \\to U"),
        ("(U -> U) -> U", "(U -> U) -> U", "(U \\to U) \\to U"),
        ("(U -> U) * V", "(U -> U) * V", "(U \\to U) \\times V"),
    ])
    def test_sorts(self, text, plain, latex):
        s = parse_sort(text)
        assert (sort_to_text(s), sort_to_latex(s)) == (plain, latex)

    @pytest.mark.parametrize("text,plain,latex", [
        ("~(p(cU) & s0)", "~(p(cU) & s0)", "\\neg (p(cU) \\wedge s0)"),
        ("(s0 -> s0) -> (s0 | s0 -> s0)", "(s0 -> s0) -> s0 | s0 -> s0",
         "(s0 \\rightarrow s0) \\rightarrow s0 \\vee s0 \\rightarrow s0"),
        ("exists u:U. true & forall w:V. q(w) -> ~false",
         "exists u:U. true & (forall w:V. q(w) -> ~false)",
         "\\exists u\\colon U.\\, \\top \\wedge "
         "(\\forall w\\colon V.\\, q(w) \\rightarrow \\neg \\bot)"),
        ("exists h:U * V -> U. p(h @ <cU, cV>)",
         "exists h:U * V -> U. p(h @ <cU, cV>)",
         "\\exists h\\colon U \\times V \\to U.\\, p(h(cU, cV))"),
    ], ids=["negated-conjunction", "nested-implications", "quantifiers", "ev-of-pair"])
    def test_formulas(self, text, plain, latex):
        phi = parse_formula(text, SIG)
        assert (formula_to_text(phi), formula_to_latex(phi)) == (plain, latex)


# ---------------------------------------------------------------------------
# Shared subterms: substitution and rendering visit each distinct object once,
# and must agree with the tree walks of `syntax`.

X, Y, Z, G = Var("x", U), Var("y", U), Var("z", V), Var("g", FunSort(ProdSort((U, V)), U))
# Term objects planted at several positions.  x is free in both, so a binder
# on x above a planted copy blocks substitution into it, and substituting
# PLANTED for z under a binder on x forces a rename.
PLANTED = Ev(FF, App("hUU", (X,), U))
PAIRED = Ev(G, Pair((X, Z)))
HY = App("hUU", (Y,), U)
MAPPINGS = [{X: HY}, {Z: PLANTED}, {X: HY, Z: PLANTED}, {X: HY, Z: CV}]
BINDERS = [X, Y, Var("y'", U), Var("w", U), G]

LEAVES = st.sampled_from([
    Atom("q", (PLANTED,)), Atom("r", (X, PLANTED)), Atom("q", (Z,)), Atom("p", (Y,)),
    Atom("r", (Y, Z)), Atom("p", (App("hUU", (X,), U),)), Atom("p", (PAIRED,)),
    Atom("r", (PAIRED, PLANTED)), Atom("s0"), Top(), Bottom()])
FORMULAS = st.recursive(LEAVES, lambda sub: st.one_of(
    st.builds(And, sub, sub), st.builds(Or, sub, sub), st.builds(Implies, sub, sub),
    st.builds(Not, sub),
    st.builds(Exists, st.sampled_from(BINDERS), sub),
    st.builds(Forall, st.sampled_from(BINDERS), sub)), max_leaves=12)

SORTS = st.recursive(st.sampled_from([U, V, UNIT, G.sort]), lambda sub: st.one_of(
    st.builds(FunSort, sub, sub),
    st.lists(sub, min_size=2, max_size=3).map(lambda fs: ProdSort(tuple(fs)))), max_leaves=8)

SHARING = settings(derandomize=True, database=None, max_examples=150, deadline=None)


def subformulas(phi):
    yield phi
    if isinstance(phi, (And, Or, Implies)):
        yield from subformulas(phi.left)
        yield from subformulas(phi.right)
    elif isinstance(phi, (Exists, Forall)):
        yield from subformulas(phi.body)


def subterms(phi):
    """Every term at every position of phi, nested ones included."""
    stack = [a for f in subformulas(phi) if isinstance(f, Atom) for a in f.args]
    while stack:
        t = stack.pop()
        yield t
        if isinstance(t, App):
            stack += t.args
        elif isinstance(t, Pair):
            stack += t.items
        elif isinstance(t, Ev):
            stack += (t.fn, t.arg)


class TestSharedSubterms:
    @SHARING
    @given(FORMULAS)
    def test_substitution_agrees_with_the_tree_walk(self, phi):
        for mapping in MAPPINGS:
            assert substitute_many(phi, mapping) == tree_substitute_many(phi, mapping)

    @SHARING
    @given(FORMULAS)
    def test_every_position_of_a_shared_term_gets_one_result(self, phi):
        """Outside binders on x, each copy of PLANTED becomes the same object."""
        out = substitute_many(And(And(Atom("q", (PLANTED,)), phi), Atom("r", (X, PLANTED))),
                              MAPPINGS[0])
        image = out.left.left.args[0]
        assert image == Ev(FF, App("hUU", (App("hUU", (Y,), U),), U))
        assert out.right.args[1] is image

    def test_a_binder_that_drops_a_key_starts_its_own_memo(self):
        """Under forall x the mapping loses x, so PLANTED there keeps its x,
        though PLANTED outside was already substituted."""
        phi = And(Atom("q", (PLANTED,)), Forall(X, And(Atom("q", (Z,)), Atom("q", (PLANTED,)))))
        out = substitute_many(phi, MAPPINGS[3])
        assert out == tree_substitute_many(phi, MAPPINGS[3])
        assert out.right.body.right.args[0] == PLANTED

    @SHARING
    @given(FORMULAS)
    def test_rendering_agrees_with_the_tree_walk(self, phi):
        for f in [phi] + [substitute_many(phi, m) for m in MAPPINGS]:
            assert formula_to_text(f) == tree_formula(f, TEXT)
            assert formula_to_latex(f) == tree_formula(f, LATEX)

    @SHARING
    @given(SORTS)
    def test_sort_rendering_agrees_with_the_tree_walk(self, s):
        assert sort_to_text(s) == tree_sort(s, TEXT)
        assert sort_to_latex(s) == tree_sort(s, LATEX)

    @SHARING
    @given(FORMULAS, SORTS)
    def test_one_memo_serves_every_precedence(self, phi, s):
        """One memo, reused across subformulas, sorts and precedences 0 and
        2, gives what fresh renders give."""
        memo: dict = {}
        for prec in (0, 2, 0, 2):
            for f in subformulas(phi):
                assert formula_to_text(f, prec, memo) == formula_to_text(f, prec) \
                    == tree_formula(f, TEXT, prec)
                assert formula_to_latex(f, prec, memo) == formula_to_latex(f, prec) \
                    == tree_formula(f, LATEX, prec)
            assert sort_to_text(s, prec, memo) == sort_to_text(s, prec) == tree_sort(s, TEXT, prec)

    def test_a_memo_keeps_what_it_rendered_alive(self):
        """Formulas built, rendered and dropped one after another through one
        memo: were a memo entry not to keep its node alive, a later node
        could take a freed node's id and be given its text."""
        memo: dict = {}
        for k in range(200):
            f = Forall(Var(f"v{k}", FunSort(U, V)), Atom("q", (App(f"c{k}", (), V),)))
            assert formula_to_text(f, 0, memo) == f"forall v{k}:U -> V. q(c{k})"
            assert sort_to_text(FunSort(BaseSort(f"S{k}"), U), 0, memo) == f"S{k} -> U"

    @SHARING
    @given(st.lists(st.sampled_from([
        Atom("p", (X,)), Atom("q", (App("fUV", (X,), V),)), Atom("r", (App("hUU", (X,), U), CV)),
        Atom("r", (Var("a", U), App("fUV", (X,), V)))]), min_size=2, max_size=5))
    def test_a_witness_tuple_is_one_object_after_renaming(self, atoms):
        """The counter x of the premise becomes X(u, y) at each occurrence:
        one tuple object, and one application, in the renamed matrix and in
        the chain's last step."""
        body = atoms[0]
        for a in atoms[1:]:
            body = And(body, a)
        premise = Exists(Var("a", U), Forall(X, body))
        conclusion = Forall(Y, Atom("p", (Y,)))
        form = translate(Implies(premise, conclusion))
        final = implication_chain(translate(premise), translate(conclusion))[-1].formula
        for matrix in (form.matrix, final):
            pairs = [t for t in subterms(matrix) if isinstance(t, Pair)]
            evs = [t for t in subterms(matrix) if isinstance(t, Ev)]
            assert len(pairs) == len(evs) == len(atoms)
            assert all(t is pairs[0] for t in pairs)
            assert all(t is evs[0] for t in evs)
