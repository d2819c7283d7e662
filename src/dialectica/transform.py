"""Dialectica translation of formulas and the chain of equivalences behind it.

translate() sends a formula phi to a prenex package: witness variables u,
counter variables x and a quantifier-free matrix phi_D, read as
exists u. forall x. phi_D.  implication_chain() derives the implication
clause from the translated sides in six recorded formulas, each move
labelled with the logical principle that justifies it, and each label can
be replayed as a rewrite on the previous formula.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .fol import (
    And,
    Atom,
    BIT,
    Bottom,
    Ev,
    Exists,
    FolError,
    Forall,
    Formula,
    FunSort,
    Implies,
    Not,
    Or,
    Pair,
    Signature,
    Sort,
    SyntacticClass,
    Term,
    Top,
    Var,
    _fresh_name,
    check_formula,
    classify_syntactic,
    free_vars,
    prod_sort,
    substitute_many,
)


class SideConditionError(FolError):
    pass


@dataclass(frozen=True)
class DialecticaForm:
    witnesses: tuple[Var, ...]
    counters: tuple[Var, ...]
    matrix: Formula

    def as_formula(self) -> Formula:
        return _exists_block(self.witnesses, _forall_block(self.counters, self.matrix))


def _exists_block(vs, body):
    for v in reversed(vs):
        body = Exists(v, body)
    return body


def _forall_block(vs, body):
    for v in reversed(vs):
        body = Forall(v, body)
    return body


class _Translator:
    def __init__(self):
        self._n = itertools.count()

    def fresh(self, sort: Sort) -> Var:
        return Var(f"\x00t{next(self._n)}", sort)

    def functionalise(self, block: list[Var], domain: list[Var]) -> tuple[list[Var], dict]:
        """One fresh witness per variable of `block`, a function of `domain`;
        returns the witnesses and the substitution that replaces each old
        variable by its witness applied to `domain`."""
        if not block:
            return [], {}
        dom = prod_sort([d.sort for d in domain])
        arg = domain[0] if len(domain) == 1 else Pair(tuple(domain))
        wit, sub = [], {}
        for v in block:
            f = self.fresh(FunSort(dom, v.sort) if domain else v.sort)
            sub[v] = Ev(f, arg) if domain else f
            wit.append(f)
        return wit, sub

    def implication(self, u, x, a, v, y, b):
        """The implication clause: from exists u. forall x. a and
        exists v. forall y. b, the witnesses for v over u and for x over
        u, y, and the matrix a -> b with both substituted."""
        wv, sub_v = self.functionalise(v, u)
        wx, sub_x = self.functionalise(x, u + y)
        return wv, wx, Implies(substitute_many(a, sub_x), substitute_many(b, sub_v))

    def run(self, phi: Formula) -> tuple[list[Var], list[Var], Formula]:
        if isinstance(phi, (Atom, Top, Bottom)):
            return [], [], phi
        if isinstance(phi, And):
            u, x, a = self.run(phi.left)
            v, y, b = self.run(phi.right)
            return u + v, x + y, And(a, b)
        if isinstance(phi, Or):
            u, x, a = self.run(phi.left)
            v, y, b = self.run(phi.right)
            z = self.fresh(BIT)
            zbit = Atom("bit0", (z,))
            return [z] + u + v, x + y, And(Implies(zbit, a), Implies(Not(zbit), b))
        if isinstance(phi, Exists):
            nv = self.fresh(phi.var.sort)
            u, x, a = self.run(substitute_many(phi.body, {phi.var: nv}))
            return [nv] + u, x, a
        if isinstance(phi, Forall):
            nv = self.fresh(phi.var.sort)
            u, x, a = self.run(substitute_many(phi.body, {phi.var: nv}))
            wit, sub = self.functionalise(u, [nv])
            return wit, [nv] + x, substitute_many(a, sub)
        if isinstance(phi, Implies):
            u, x, a = self.run(phi.left)
            v, y, b = self.run(phi.right)
            wv, wx, mat = self.implication(u, x, a, v, y, b)
            return wv + wx, u + y, mat
        raise TypeError(f"not a formula: {phi!r}")


def _rename(blocks, formula: Formula, taken: set[str]) -> tuple[list, Formula]:
    """Name the k-th variable of each (prefix, variables) block prefix + k,
    primed until no name in `taken` (which gains each new name) is reused;
    returns the renamed blocks and `formula` with the new names."""
    sub: dict[Var, Term] = {}
    out = []
    for prefix, block in blocks:
        out.append([])
        for k, v in enumerate(block):
            nv = sub[v] = Var(_fresh_name(f"{prefix}{k}", taken), v.sort)
            taken.add(nv.name)
            out[-1].append(nv)
    return out, substitute_many(formula, sub)


def translate(phi: Formula, sig: Signature | None = None) -> DialecticaForm:
    """Goedel's Dialectica interpretation: phi maps to exists u. forall x. phi_D."""
    if sig is not None:
        check_formula(phi, sig)
    u, x, mat = _Translator().run(phi)
    (w, c), m = _rename((("u", u), ("x", x)), mat, {v.name for v in free_vars(phi)})
    return DialecticaForm(tuple(w), tuple(c), m)


# ---------------------------------------------------------------------------
# The implication chain


@dataclass(frozen=True)
class ChainStep:
    index: int
    formula: Formula
    justification: tuple[str, ...]
    direction: str = "iff"


def implication_chain(psi_d: DialecticaForm, phi_d: DialecticaForm) -> list[ChainStep]:
    """Six formulas from (psi)^D -> (phi)^D to its Skolemised Dialectica form.

    Step 0 is the starting implication; each later step records the
    principles that produce it from its predecessor.  The final step is
    reached by applying AC once per witness block, so it carries two labels.
    """
    taken = {v.name for v in free_vars(psi_d.as_formula()) | free_vars(phi_d.as_formula())}
    (u, x), psi_m = _rename((("u", psi_d.witnesses), ("x", psi_d.counters)), psi_d.matrix, taken)
    (v, y), phi_m = _rename((("v", phi_d.witnesses), ("y", phi_d.counters)), phi_d.matrix, taken)

    f1 = Implies(
        _exists_block(u, _forall_block(x, psi_m)),
        _exists_block(v, _forall_block(y, phi_m)),
    )
    lhs_core = _forall_block(x, psi_m)
    f2 = _forall_block(u, Implies(lhs_core, _exists_block(v, _forall_block(y, phi_m))))
    f3 = _forall_block(u, _exists_block(v, Implies(lhs_core, _forall_block(y, phi_m))))
    f4 = _forall_block(u, _exists_block(v, _forall_block(y, Implies(lhs_core, phi_m))))
    f5 = _forall_block(u, _exists_block(v, _forall_block(y, _exists_block(x, Implies(psi_m, phi_m)))))

    wv, wx, mat = _Translator().implication(u, x, psi_m, v, y, phi_m)
    (wv, wx), mat = _rename((("V", wv), ("X", wx)), mat, taken)
    f6 = _exists_block(wv + wx, _forall_block(u + y, mat))

    return [
        ChainStep(0, f1, ()),
        ChainStep(1, f2, ("ClassicalEquiv",)),
        ChainStep(2, f3, ("IPStar",)),
        ChainStep(3, f4, ("IntuitionisticEquiv",)),
        ChainStep(4, f5, ("MP",)),
        ChainStep(5, f6, ("AC", "AC")),
    ]


def _strip(f: Formula, kind: type):
    """The variables of the leading `kind` quantifiers of f, and the rest."""
    block = []
    while isinstance(f, kind):
        block.append(f.var)
        f = f.body
    return block, f


def rewrite_classical_equiv(f: Formula) -> Formula:
    """(exists u. p) -> q  becomes  forall u. (p -> q)."""
    if not isinstance(f, Implies):
        return f
    block, core = _strip(f.left, Exists)
    if not block:
        return f
    return _forall_block(block, Implies(core, f.right))


def rewrite_ip_star(f: Formula) -> Formula:
    """Under leading foralls: p -> exists v. q  becomes  exists v. (p -> q)."""
    outer, core = _strip(f, Forall)
    if not isinstance(core, Implies):
        return f
    block, inner = _strip(core.right, Exists)
    if not block:
        return f
    return _forall_block(outer, _exists_block(block, Implies(core.left, inner)))


def rewrite_intuitionistic(f: Formula) -> Formula:
    """Under leading foralls and existses: p -> forall y. q  becomes  forall y. (p -> q)."""
    outer_a, rest = _strip(f, Forall)
    outer_e, core = _strip(rest, Exists)
    if not isinstance(core, Implies):
        return f
    block, inner = _strip(core.right, Forall)
    if not block:
        return f
    return _forall_block(
        outer_a, _exists_block(outer_e, _forall_block(block, Implies(core.left, inner)))
    )


def rewrite_mp(f: Formula) -> Formula:
    """Under the prenex prefix: (forall x. p) -> q  becomes  exists x. (p -> q)."""
    outer_a, rest = _strip(f, Forall)
    outer_e, rest2 = _strip(rest, Exists)
    outer_a2, core = _strip(rest2, Forall)
    if not isinstance(core, Implies):
        return f
    block, inner = _strip(core.left, Forall)
    if not block:
        return f
    return _forall_block(
        outer_a,
        _exists_block(
            outer_e,
            _forall_block(outer_a2, _exists_block(block, Implies(inner, core.right))),
        ),
    )


def rewrite_ac(f: Formula) -> Formula:
    """Skolemise the leftmost exists block lying under a forall block."""
    outer_e, rest = _strip(f, Exists)
    outer_a, rest2 = _strip(rest, Forall)
    block, core = _strip(rest2, Exists)
    if not block or not outer_a:
        return f
    wit, sub = _Translator().functionalise(block, outer_a)
    taken = {v.name for v in free_vars(f)} | {v.name for v in outer_e + outer_a}
    (named,), core = _rename((("F", wit),), substitute_many(core, sub), taken)
    return _exists_block(outer_e, _exists_block(named, _forall_block(outer_a, core)))


_REWRITES = {
    "ClassicalEquiv": rewrite_classical_equiv,
    "IPStar": rewrite_ip_star,
    "IntuitionisticEquiv": rewrite_intuitionistic,
    "MP": rewrite_mp,
    "AC": rewrite_ac,
}


def replay_step(formula: Formula, justification: tuple[str, ...]) -> Formula:
    for name in justification:
        formula = _REWRITES[name](formula)
    return formula


# ---------------------------------------------------------------------------
# Principle schemas


@dataclass(frozen=True)
class Rule:
    premise: Formula
    conclusion: Formula


def _require_exists_free(theta: Formula, who: str) -> None:
    if classify_syntactic(theta) == SyntacticClass.NEITHER:
        raise SideConditionError(f"{who} requires an exists-free premise")


def _require_quantifier_free(theta: Formula, who: str) -> None:
    if classify_syntactic(theta) != SyntacticClass.QUANTIFIER_FREE:
        raise SideConditionError(f"{who} requires a quantifier-free matrix")


def _require_not_free(v: Var, theta: Formula, who: str) -> None:
    if v in free_vars(theta):
        raise SideConditionError(f"{who} requires {v.name} not free in the premise")


def ip_star(theta: Formula, x: Var, eta: Formula, v: Var, y: Var) -> Formula:
    """(forall x. theta -> exists v. forall y. eta) -> exists v. (forall x. theta -> forall y. eta)"""
    _require_not_free(v, Forall(x, theta), "IP*")
    lhs = Implies(Forall(x, theta), Exists(v, Forall(y, eta)))
    rhs = Exists(v, Implies(Forall(x, theta), Forall(y, eta)))
    return Implies(lhs, rhs)


def ip(theta: Formula, v: Var, eta: Formula) -> Formula:
    _require_exists_free(theta, "IP")
    _require_not_free(v, theta, "IP")
    return Implies(
        Implies(theta, Exists(v, eta)), Exists(v, Implies(theta, eta))
    )


def ip_rule(theta: Formula, v: Var, eta: Formula) -> Rule:
    _require_exists_free(theta, "IPR")
    _require_not_free(v, theta, "IPR")
    return Rule(Implies(theta, Exists(v, eta)), Exists(v, Implies(theta, eta)))


def markov_principle(theta: Formula, x: Var) -> Formula:
    _require_quantifier_free(theta, "MP")
    return Implies(Not(Forall(x, theta)), Exists(x, Not(theta)))


def markov_rule(theta: Formula, x: Var) -> Rule:
    _require_quantifier_free(theta, "MR")
    return Rule(Not(Forall(x, theta)), Exists(x, Not(theta)))


def axiom_of_choice(theta: Formula, y: Var, x: Var) -> Formula:
    taken = {v.name for v in free_vars(theta)} | {y.name, x.name}
    fv = Var(_fresh_name("V", taken), FunSort(y.sort, x.sort))
    chosen = substitute_many(theta, {x: Ev(fv, y)})
    return Implies(
        Forall(y, Exists(x, theta)), Exists(fv, Forall(y, chosen))
    )


_PRINCIPLES = {
    "IP*": ip_star,
    "IPStar": ip_star,
    "IP": ip,
    "IPR": ip_rule,
    "MP": markov_principle,
    "MR": markov_rule,
    "AC": axiom_of_choice,
}


def state_principle(name: str, **parts):
    """Build the named principle instance; raises SideConditionError when the
    side conditions on the parts fail, KeyError for an unknown name."""
    return _PRINCIPLES[name](**parts)
