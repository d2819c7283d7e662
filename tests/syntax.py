"""Syntax helpers only the tests need: alpha equality, a term parser and
the LaTeX rendering of a sort, each built on `dialectica.fol`; and
reference substitution and rendering that walk the syntax tree, with no
memo, for the library's shared walks to be checked against."""
from __future__ import annotations

import itertools

from dialectica import fol
from dialectica.fol import (
    And,
    App,
    Atom,
    BaseSort,
    Bottom,
    Ev,
    Exists,
    Forall,
    Formula,
    FunSort,
    Implies,
    Or,
    Pair,
    ProdSort,
    Signature,
    Sort,
    Term,
    Top,
    Var,
    free_term_vars,
    free_vars,
    is_negation,
    subst_term,
)


def alpha_canonical(phi: Formula) -> Formula:
    """Rename bound variables to positional names; equal outputs mean alpha-equal inputs."""
    ctr = itertools.count()

    def go(f: Formula, env: dict[Var, Var]) -> Formula:
        if isinstance(f, Atom):
            return Atom(f.pred, tuple(subst_term(a, env) for a in f.args))
        if isinstance(f, (Top, Bottom)):
            return f
        if isinstance(f, (And, Or, Implies)):
            return type(f)(go(f.left, env), go(f.right, env))
        if isinstance(f, (Exists, Forall)):
            nv = Var(f"\x00b{next(ctr)}", f.var.sort)
            return type(f)(nv, go(f.body, {**env, f.var: nv}))
        raise TypeError(f"not a formula: {f!r}")

    return go(phi, {})


def alpha_equal(a: Formula, b: Formula) -> bool:
    return alpha_canonical(a) == alpha_canonical(b)


def parse_term(text: str, sig: Signature, context: dict[str, Var] | None = None) -> Term:
    p = fol._Parser(text, sig, context)
    return fol._run(p, p.term, "term")


_latex_sort = fol._renderers(fol._LATEX)[0]


def sort_to_latex(s: Sort, prec: int = 0) -> str:
    return _latex_sort(s, prec, {})


# ---------------------------------------------------------------------------
# Reference walks: each visits every position of the tree, so a term object
# planted at several positions is substituted and rendered once per position.


def tree_subst_term(t: Term, mapping: dict) -> Term:
    if isinstance(t, Var):
        return mapping.get(t, t)
    if isinstance(t, App):
        return App(t.func, tuple(tree_subst_term(a, mapping) for a in t.args), t.sort)
    if isinstance(t, Pair):
        return Pair(tuple(tree_subst_term(i, mapping) for i in t.items))
    return Ev(tree_subst_term(t.fn, mapping), tree_subst_term(t.arg, mapping))


def tree_substitute_many(phi: Formula, mapping: dict) -> Formula:
    """Simultaneous capture-avoiding substitution; a bound variable that a
    substituted term would capture is primed until its name is new."""
    if not mapping or isinstance(phi, (Top, Bottom)):
        return phi
    if isinstance(phi, Atom):
        return Atom(phi.pred, tuple(tree_subst_term(a, mapping) for a in phi.args))
    if isinstance(phi, (And, Or, Implies)):
        return type(phi)(tree_substitute_many(phi.left, mapping),
                         tree_substitute_many(phi.right, mapping))
    v, body = phi.var, phi.body
    live = {k: t for k, t in mapping.items() if k != v and k in free_vars(body)}
    if not live:
        return type(phi)(v, body)
    incoming = {fv.name for t in live.values() for fv in free_term_vars(t)}
    if v.name in incoming:
        name = v.name
        avoid = incoming | {fv.name for fv in free_vars(body)} | {k.name for k in live}
        while name in avoid:
            name += "'"
        nv = Var(name, v.sort)
        body, v = tree_substitute_many(body, {v: nv}), nv
    return type(phi)(v, tree_substitute_many(body, live))


def _paren(body: str, prec: int, at: int) -> str:
    return f"({body})" if prec >= at else body


def tree_term_text(t: Term, prec: int = 0) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, App):
        return f"{t.func}({', '.join(tree_term_text(a) for a in t.args)})" if t.args else t.func
    if isinstance(t, Pair):
        return f"<{', '.join(tree_term_text(i) for i in t.items)}>"
    return _paren(f"{tree_term_text(t.fn, 1)} @ {tree_term_text(t.arg, 2)}", prec, 2)


def tree_term_latex(t: Term, prec: int = 0) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, App):
        return f"{t.func}({', '.join(tree_term_latex(a) for a in t.args)})" if t.args else t.func
    if isinstance(t, Pair):
        return f"({', '.join(tree_term_latex(i) for i in t.items)})"
    args = t.arg.items if isinstance(t.arg, Pair) else (t.arg,)
    return f"{tree_term_latex(t.fn)}({', '.join(tree_term_latex(a) for a in args)})"


TEXT = {"term": tree_term_text, "true": "true", "false": "false", "neg": "~", "imp": " -> ",
        "vee": " | ", "wedge": " & ", "exists": "exists", "forall": "forall", "colon": ":",
        "dot": ". ", "times": " * ", "to": " -> "}
LATEX = {"term": tree_term_latex, "true": "\\top", "false": "\\bot", "neg": "\\neg ",
         "imp": " \\rightarrow ", "vee": " \\vee ", "wedge": " \\wedge ",
         "exists": "\\exists", "forall": "\\forall", "colon": "\\colon ", "dot": ".\\, ",
         "times": " \\times ", "to": " \\to "}


def tree_sort(s: Sort, n: dict, prec: int = 0) -> str:
    if isinstance(s, BaseSort):
        return s.name
    if isinstance(s, ProdSort):
        if not s.factors:
            return "1"
        return _paren(n["times"].join(tree_sort(f, n, 2) for f in s.factors), prec, 2)
    assert isinstance(s, FunSort)
    return _paren(f"{tree_sort(s.dom, n, 1)}{n['to']}{tree_sort(s.cod, n, 0)}", prec, 1)


def tree_formula(phi: Formula, n: dict, prec: int = 0) -> str:
    """Precedence: -> and the quantifiers 1, | 2, & 3, ~ 4, atoms 5."""
    if isinstance(phi, Atom):
        return f"{phi.pred}({', '.join(n['term'](a) for a in phi.args)})" if phi.args else phi.pred
    if isinstance(phi, Top):
        return n["true"]
    if isinstance(phi, Bottom):
        return n["false"]
    if is_negation(phi):
        return n["neg"] + tree_formula(phi.left, n, 4)
    if isinstance(phi, Implies):
        return _paren(f"{tree_formula(phi.left, n, 2)}{n['imp']}{tree_formula(phi.right, n, 1)}",
                      prec, 2)
    if isinstance(phi, Or):
        return _paren(f"{tree_formula(phi.left, n, 2)}{n['vee']}{tree_formula(phi.right, n, 3)}",
                      prec, 3)
    if isinstance(phi, And):
        return _paren(f"{tree_formula(phi.left, n, 3)}{n['wedge']}{tree_formula(phi.right, n, 4)}",
                      prec, 4)
    kw = n["exists"] if isinstance(phi, Exists) else n["forall"]
    return _paren(f"{kw} {phi.var.name}{n['colon']}{tree_sort(phi.var.sort, n)}{n['dot']}"
                  f"{tree_formula(phi.body, n, 1)}", prec, 2)
