"""Syntax helpers only the tests need: alpha equality, a term parser and
the LaTeX rendering of a sort, each built on `dialectica.fol`."""
from __future__ import annotations

import itertools

from dialectica import fol
from dialectica.fol import (
    And,
    Atom,
    Bottom,
    Exists,
    Forall,
    Formula,
    Implies,
    Or,
    Signature,
    Sort,
    Term,
    Top,
    Var,
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
    return _latex_sort(s, prec)
