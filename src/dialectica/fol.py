"""Multi-sorted first-order syntax.

Sorts are base names, finite products (with the empty product written 1)
and function sorts S -> T.  Terms are variables, applied function symbols,
tuples <s, t> and evaluations f @ t.  Formulas use true, false, &, |, ->, ~
and the sorted quantifiers `exists v:S.` / `forall v:S.`.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple

from ._shape import ShapeError, check


class FolError(Exception):
    pass


class FolSyntaxError(FolError):
    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} (at position {pos})")
        self.pos = pos


class FolDepthError(FolError):
    """Input nested too deeply for the recursive-descent parser."""

    def __init__(self, what: str):
        super().__init__(f"{what} nested too deeply")


class FolSortError(FolError):
    """Sort mismatch; `subject` renders the offending subterm."""

    def __init__(self, msg: str, subject: str = ""):
        super().__init__(f"{msg}: {subject}" if subject else msg)
        self.subject = subject


# ---------------------------------------------------------------------------
# Sorts


class Sort:
    __slots__ = ()


@dataclass(frozen=True)
class BaseSort(Sort):
    name: str


@dataclass(frozen=True)
class ProdSort(Sort):
    factors: tuple[Sort, ...]


@dataclass(frozen=True)
class FunSort(Sort):
    dom: Sort
    cod: Sort


UNIT = ProdSort(())
BIT = BaseSort("Bit")


def prod_sort(factors) -> Sort:
    """Smart product: one factor collapses, nested products flatten."""
    flat: list[Sort] = []
    for s in factors:
        if isinstance(s, ProdSort):
            flat.extend(s.factors)
        else:
            flat.append(s)
    if len(flat) == 1:
        return flat[0]
    return ProdSort(tuple(flat))


# ---------------------------------------------------------------------------
# Terms


class Term:
    __slots__ = ()


# A term's hash leaves its sort out: hashing a deep sort on every lookup
# (`subst_term`'s mapping, the free-variable sets) costs more than the
# rare collision of equal names at two sorts.  Equality still compares
# sorts.
@dataclass(frozen=True)
class Var(Term):
    name: str
    sort: Sort = field(hash=False)


@dataclass(frozen=True)
class App(Term):
    func: str
    args: tuple[Term, ...]
    sort: Sort = field(hash=False)


@dataclass(frozen=True)
class Pair(Term):
    items: tuple[Term, ...]


@dataclass(frozen=True)
class Ev(Term):
    fn: Term
    arg: Term


def term_sort(t: Term) -> Sort:
    if isinstance(t, (Var, App)):
        return t.sort
    if isinstance(t, Pair):
        return ProdSort(tuple(term_sort(i) for i in t.items))
    if isinstance(t, Ev):
        fs = term_sort(t.fn)
        if not isinstance(fs, FunSort):
            raise FolSortError("applied term is not of function sort", term_to_text(t.fn))
        _match_sorts((fs.dom,), (t.arg,), term_sort)
        return fs.cod
    raise TypeError(f"not a term: {t!r}")


def _match_sorts(expected, args, sort_of) -> None:
    """Raise FolSortError at the first argument whose sort, as `sort_of`
    finds it, is not the expected one."""
    for exp, a in zip(expected, args):
        got = sort_of(a)
        if got != exp:
            raise FolSortError(
                f"argument has sort {sort_to_text(got)}, expected {sort_to_text(exp)}",
                term_to_text(a),
            )


def term_to_text(t: Term, prec: int = 0) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, App):
        if not t.args:
            return t.func
        return f"{t.func}({', '.join(term_to_text(a) for a in t.args)})"
    if isinstance(t, Pair):
        return f"<{', '.join(term_to_text(i) for i in t.items)}>"
    if isinstance(t, Ev):
        body = f"{term_to_text(t.fn, 1)} @ {term_to_text(t.arg, 2)}"
        return f"({body})" if prec >= 2 else body
    raise TypeError(f"not a term: {t!r}")


def free_term_vars(t: Term) -> frozenset[Var]:
    if isinstance(t, Var):
        return frozenset((t,))
    if isinstance(t, App):
        return frozenset().union(*(free_term_vars(a) for a in t.args)) if t.args else frozenset()
    if isinstance(t, Pair):
        return frozenset().union(*(free_term_vars(i) for i in t.items))
    if isinstance(t, Ev):
        return free_term_vars(t.fn) | free_term_vars(t.arg)
    raise TypeError(f"not a term: {t!r}")


def subst_term(t: Term, mapping: dict[Var, Term]) -> Term:
    if isinstance(t, Var):
        return mapping.get(t, t)
    if isinstance(t, App):
        return App(t.func, tuple(subst_term(a, mapping) for a in t.args), t.sort)
    if isinstance(t, Pair):
        return Pair(tuple(subst_term(i, mapping) for i in t.items))
    if isinstance(t, Ev):
        return Ev(subst_term(t.fn, mapping), subst_term(t.arg, mapping))
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# Formulas


class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    pred: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bottom(Formula):
    pass


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: Var
    body: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: Var
    body: Formula


def Not(phi: Formula) -> Formula:
    return Implies(phi, Bottom())


def is_negation(phi: Formula) -> bool:
    return isinstance(phi, Implies) and isinstance(phi.right, Bottom)


def free_vars(phi: Formula) -> frozenset[Var]:
    if isinstance(phi, Atom):
        out: frozenset[Var] = frozenset()
        for a in phi.args:
            out |= free_term_vars(a)
        return out
    if isinstance(phi, (Top, Bottom)):
        return frozenset()
    if isinstance(phi, (And, Or, Implies)):
        return free_vars(phi.left) | free_vars(phi.right)
    if isinstance(phi, (Exists, Forall)):
        return free_vars(phi.body) - {phi.var}
    raise TypeError(f"not a formula: {phi!r}")


def _fresh_name(base: str, avoid: set[str]) -> str:
    name = base
    while name in avoid:
        name += "'"
    return name


def substitute_many(phi: Formula, mapping: dict[Var, Term]) -> Formula:
    """Simultaneous capture-avoiding substitution."""
    if not mapping:
        return phi
    if isinstance(phi, Atom):
        return Atom(phi.pred, tuple(subst_term(a, mapping) for a in phi.args))
    if isinstance(phi, (Top, Bottom)):
        return phi
    if isinstance(phi, (And, Or, Implies)):
        return type(phi)(substitute_many(phi.left, mapping), substitute_many(phi.right, mapping))
    if isinstance(phi, (Exists, Forall)):
        v, body = phi.var, phi.body
        live = {k: t for k, t in mapping.items() if k != v and k in free_vars(body)}
        if not live:
            return type(phi)(v, body)
        incoming = {fv.name for t in live.values() for fv in free_term_vars(t)}
        if v.name in incoming:
            avoid = incoming | {fv.name for fv in free_vars(body)} | {k.name for k in live}
            nv = Var(_fresh_name(v.name, avoid), v.sort)
            body = substitute_many(body, {v: nv})
            v = nv
        return type(phi)(v, substitute_many(body, live))
    raise TypeError(f"not a formula: {phi!r}")


class SyntacticClass(Enum):
    QUANTIFIER_FREE = "quantifier-free"
    EXISTS_FREE = "exists-free"
    NEITHER = "neither"


def classify_syntactic(phi: Formula) -> SyntacticClass:
    """Exists-free means no `exists` and no `|`; quantifier-free drops `forall` too."""
    has_ex = has_or = has_fa = False

    def walk(f: Formula) -> None:
        nonlocal has_ex, has_or, has_fa
        if isinstance(f, Or):
            has_or = True
            walk(f.left)
            walk(f.right)
        elif isinstance(f, (And, Implies)):
            walk(f.left)
            walk(f.right)
        elif isinstance(f, Exists):
            has_ex = True
            walk(f.body)
        elif isinstance(f, Forall):
            has_fa = True
            walk(f.body)

    walk(phi)
    if has_ex or has_or:
        return SyntacticClass.NEITHER
    if has_fa:
        return SyntacticClass.EXISTS_FREE
    return SyntacticClass.QUANTIFIER_FREE


def term_to_latex(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, App):
        if not t.args:
            return t.func
        return f"{t.func}({', '.join(term_to_latex(a) for a in t.args)})"
    if isinstance(t, Pair):
        return f"({', '.join(term_to_latex(i) for i in t.items)})"
    if isinstance(t, Ev):
        if isinstance(t.arg, Pair):
            return f"{term_to_latex(t.fn)}({', '.join(term_to_latex(i) for i in t.arg.items)})"
        return f"{term_to_latex(t.fn)}({term_to_latex(t.arg)})"
    raise TypeError(f"not a term: {t!r}")


class _Notation(NamedTuple):
    """The symbols of one output format."""

    term: Callable[[Term], str]
    true: str
    false: str
    neg: str
    imp: str
    vee: str
    wedge: str
    exists: str
    forall: str
    colon: str
    dot: str
    times: str
    to: str


def _renderers(notation: _Notation):
    """The sort and formula walks of one format.  Formula precedence:
    -> and the quantifiers 1, | 2, & 3, ~ 4, atoms 5."""
    term, true, false, neg, imp, vee, wedge, exists, forall, colon, dot, times, to = notation

    def sort(s: Sort, prec: int) -> str:
        if isinstance(s, BaseSort):
            return s.name
        if isinstance(s, ProdSort):
            if not s.factors:
                return "1"
            body = times.join(sort(f, 2) for f in s.factors)
            return f"({body})" if prec >= 2 else body
        if isinstance(s, FunSort):
            body = f"{sort(s.dom, 1)}{to}{sort(s.cod, 0)}"
            return f"({body})" if prec >= 1 else body
        raise TypeError(f"not a sort: {s!r}")

    def formula(phi: Formula, prec: int) -> str:
        if isinstance(phi, Atom):
            if not phi.args:
                return phi.pred
            return f"{phi.pred}({', '.join(term(a) for a in phi.args)})"
        if isinstance(phi, Top):
            return true
        if isinstance(phi, Bottom):
            return false
        if is_negation(phi):
            return neg + formula(phi.left, 4)
        if isinstance(phi, Implies):
            body = f"{formula(phi.left, 2)}{imp}{formula(phi.right, 1)}"
            return f"({body})" if prec >= 2 else body
        if isinstance(phi, Or):
            body = f"{formula(phi.left, 2)}{vee}{formula(phi.right, 3)}"
            return f"({body})" if prec >= 3 else body
        if isinstance(phi, And):
            body = f"{formula(phi.left, 3)}{wedge}{formula(phi.right, 4)}"
            return f"({body})" if prec >= 4 else body
        if isinstance(phi, (Exists, Forall)):
            kw = exists if isinstance(phi, Exists) else forall
            body = f"{kw} {phi.var.name}{colon}{sort(phi.var.sort, 0)}{dot}{formula(phi.body, 1)}"
            return f"({body})" if prec >= 2 else body
        raise TypeError(f"not a formula: {phi!r}")

    return sort, formula


_text_sort, _text_formula = _renderers(_Notation(
    term_to_text, "true", "false", "~", " -> ", " | ", " & ",
    "exists", "forall", ":", ". ", " * ", " -> "))
_LATEX = _Notation(
    term_to_latex, "\\top", "\\bot", "\\neg ", " \\rightarrow ", " \\vee ", " \\wedge ",
    "\\exists", "\\forall", "\\colon ", ".\\, ", " \\times ", " \\to ")
_latex_formula = _renderers(_LATEX)[1]


def sort_to_text(s: Sort, prec: int = 0) -> str:
    return _text_sort(s, prec)


def formula_to_text(phi: Formula, prec: int = 0) -> str:
    return _text_formula(phi, prec)


def formula_to_latex(phi: Formula, prec: int = 0) -> str:
    return _latex_formula(phi, prec)


# ---------------------------------------------------------------------------
# Signatures


# The shape of the JSON `Signature.to_json` writes (see `_shape`).
SIGNATURE = {"?sorts": [str], "?predicates": [{"name": str, "?args": [str]}],
             "?functions": [{"name": str, "?args": [str], "result": str}]}


@dataclass
class Signature:
    sorts: tuple[str, ...] = ()
    predicates: dict[str, tuple[Sort, ...]] = field(default_factory=dict)
    functions: dict[str, tuple[tuple[Sort, ...], Sort]] = field(default_factory=dict)

    def __post_init__(self):
        self.sorts = tuple(self.sorts)
        if "Bit" not in self.sorts:
            self.sorts = self.sorts + ("Bit",)
        self.predicates.setdefault("bit0", (BIT,))

    def to_json(self) -> dict:
        return {
            "sorts": list(self.sorts),
            "predicates": [
                {"name": n, "args": [sort_to_text(s) for s in args]}
                for n, args in self.predicates.items()
            ],
            "functions": [
                {"name": n, "args": [sort_to_text(s) for s in args], "result": sort_to_text(res)}
                for n, (args, res) in self.functions.items()
            ],
        }

    @classmethod
    def from_json(cls, data) -> "Signature":
        """The signature `to_json` writes; FolError names the first part of
        `data` not of the `SIGNATURE` shape, a predicate or function name
        given twice, or an entry whose sorts `sorts` does not declare."""
        try:
            check(data, SIGNATURE, "")
        except ShapeError as exc:
            raise FolError(str(exc)) from None
        sorts = tuple(data.get("sorts", ()))
        declared = cls(sorts)
        memo: dict = {}

        def parse(text):
            """Parse against the declared sorts, which rejects an undeclared
            one; a signature repeats few sorts, so each is parsed once."""
            if text not in memo:
                memo[text] = parse_sort(text, declared)
            return memo[text]

        preds, funcs = {}, {}
        for key, out, result in (("predicates", preds, False), ("functions", funcs, True)):
            for e in data.get(key, ()):
                if e["name"] in out:
                    raise FolError(f"{key} entry {json.dumps(e['name'])} is declared twice")
                try:
                    parsed = tuple(map(parse, e.get("args", []) + ([e["result"]] if result else [])))
                except FolSortError as exc:
                    raise FolError(f"{key} entry {json.dumps(e['name'])} names undeclared "
                                   f"sort {exc.subject}") from None
                out[e["name"]] = (parsed[:-1], parsed[-1]) if result else parsed
        return cls(sorts, preds, funcs)


def check_term(t: Term, sig: Signature) -> Sort:
    if isinstance(t, Var):
        _check_sort_declared(t.sort, sig, term_to_text(t))
        return t.sort
    if isinstance(t, App):
        if t.func not in sig.functions:
            raise FolSortError("unknown function symbol", t.func)
        args, res = sig.functions[t.func]
        if len(args) != len(t.args):
            raise FolSortError(f"{t.func} expects {len(args)} arguments", term_to_text(t))
        _match_sorts(args, t.args, lambda a: check_term(a, sig))
        if t.sort != res:
            raise FolSortError(f"{t.func} results in {sort_to_text(res)}", term_to_text(t))
        return res
    if isinstance(t, Pair):
        for i in t.items:
            check_term(i, sig)
        return term_sort(t)
    if isinstance(t, Ev):
        check_term(t.fn, sig)
        check_term(t.arg, sig)
        return term_sort(t)
    raise TypeError(f"not a term: {t!r}")


def _check_sort_declared(s: Sort, sig: Signature, subject: str) -> None:
    if isinstance(s, BaseSort):
        if s.name not in sig.sorts:
            raise FolSortError(f"undeclared sort {s.name}", subject)
    elif isinstance(s, ProdSort):
        for f in s.factors:
            _check_sort_declared(f, sig, subject)
    elif isinstance(s, FunSort):
        _check_sort_declared(s.dom, sig, subject)
        _check_sort_declared(s.cod, sig, subject)


def check_formula(phi: Formula, sig: Signature) -> None:
    """Raise FolSortError unless phi is well-sorted over sig."""
    if isinstance(phi, Atom):
        if phi.pred not in sig.predicates:
            raise FolSortError("unknown predicate", phi.pred)
        expected = sig.predicates[phi.pred]
        if len(expected) != len(phi.args):
            raise FolSortError(
                f"{phi.pred} expects {len(expected)} arguments", formula_to_text(phi)
            )
        _match_sorts(expected, phi.args, lambda a: check_term(a, sig))
    elif isinstance(phi, (Top, Bottom)):
        pass
    elif isinstance(phi, (And, Or, Implies)):
        check_formula(phi.left, sig)
        check_formula(phi.right, sig)
    elif isinstance(phi, (Exists, Forall)):
        _check_sort_declared(phi.var.sort, sig, phi.var.name)
        check_formula(phi.body, sig)
    else:
        raise TypeError(f"not a formula: {phi!r}")


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<arrow>->)|(?P<name>[A-Za-z_][A-Za-z0-9_']*)|(?P<num>\d+)"
    r"|(?P<op>[()<>,.:&|~*@]))"
)

_KEYWORDS = {"exists", "forall", "true", "false"}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise FolSyntaxError(f"unexpected character {stripped[0]!r}", at)
        if m.lastgroup == "arrow":
            toks.append(("arrow", "->", m.start("arrow")))
        elif m.lastgroup == "name":
            toks.append(("name", m.group("name"), m.start("name")))
        elif m.lastgroup == "num":
            toks.append(("num", m.group("num"), m.start("num")))
        else:
            toks.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    toks.append(("eof", "", len(text)))
    return toks


class _Parser:
    def __init__(self, text: str, sig: Signature | None, context=None):
        self.toks = _tokenize(text)
        self.i = 0
        self.sig = sig
        self.scope: dict[str, Var] = dict(context or {})

    def peek(self):
        return self.toks[self.i]

    def at(self, kind: str, value: str | None = None) -> bool:
        k, v, _ = self.toks[self.i]
        return k == kind and (value is None or v == value)

    def advance(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, value: str | None = None):
        if not self.at(kind, value):
            k, v, pos = self.peek()
            want = value or kind
            raise FolSyntaxError(f"expected {want!r}, found {v or k!r}", pos)
        return self.advance()

    # sorts -----------------------------------------------------------------

    def sort(self) -> Sort:
        lhs = self.sort_prod()
        if self.at("arrow"):
            self.advance()
            return FunSort(lhs, self.sort())
        return lhs

    def sort_prod(self) -> Sort:
        factors = [self.sort_atom()]
        while self.at("op", "*"):
            self.advance()
            factors.append(self.sort_atom())
        if len(factors) == 1:
            return factors[0]
        return ProdSort(tuple(factors))

    def sort_atom(self) -> Sort:
        k, v, pos = self.peek()
        if k == "num" and v == "1":
            self.advance()
            return UNIT
        if k == "name":
            self.advance()
            if self.sig is not None and v not in self.sig.sorts:
                raise FolSortError(f"undeclared sort {v}", v)
            return BaseSort(v)
        if k == "op" and v == "(":
            self.advance()
            s = self.sort()
            self.expect("op", ")")
            return s
        raise FolSyntaxError(f"expected a sort, found {v or k!r}", pos)

    # terms -----------------------------------------------------------------

    def term(self) -> Term:
        t = self.term_atom()
        while self.at("op", "@"):
            self.advance()
            t = Ev(t, self.term_atom())
            term_sort(t)
        return t

    def term_atom(self) -> Term:
        k, v, pos = self.peek()
        if k == "name":
            self.advance()
            if v in self.scope:
                return self.scope[v]
            if self.sig is not None and v in self.sig.functions:
                arg_sorts, res = self.sig.functions[v]
                if self.at("op", "("):
                    args = self.term_args()
                else:
                    args = ()
                if len(args) != len(arg_sorts):
                    raise FolSortError(f"{v} expects {len(arg_sorts)} arguments", v)
                _match_sorts(arg_sorts, args, term_sort)
                return App(v, args, res)
            raise FolSyntaxError(f"unknown identifier {v!r}", pos)
        if k == "op" and v == "<":
            self.advance()
            items = [self.term()]
            while self.at("op", ","):
                self.advance()
                items.append(self.term())
            self.expect("op", ">")
            if len(items) < 2:
                raise FolSyntaxError("tuple needs at least two components", pos)
            return Pair(tuple(items))
        if k == "op" and v == "(":
            self.advance()
            t = self.term()
            self.expect("op", ")")
            return t
        raise FolSyntaxError(f"expected a term, found {v or k!r}", pos)

    def term_args(self) -> tuple[Term, ...]:
        self.expect("op", "(")
        args = [self.term()]
        while self.at("op", ","):
            self.advance()
            args.append(self.term())
        self.expect("op", ")")
        return tuple(args)

    # formulas --------------------------------------------------------------

    def formula(self) -> Formula:
        lhs = self.disj()
        if self.at("arrow"):
            self.advance()
            return Implies(lhs, self.formula())
        return lhs

    def disj(self) -> Formula:
        f = self.conj()
        while self.at("op", "|"):
            self.advance()
            f = Or(f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.unary()
        while self.at("op", "&"):
            self.advance()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        if self.at("op", "~"):
            self.advance()
            return Not(self.unary())
        return self.primary()

    def primary(self) -> Formula:
        k, v, pos = self.peek()
        if k == "name" and v in ("exists", "forall"):
            self.advance()
            nk, name, npos = self.expect("name")
            if name in _KEYWORDS:
                raise FolSyntaxError(f"{name!r} cannot be a variable name", npos)
            self.expect("op", ":")
            s = self.sort()
            self.expect("op", ".")
            var = Var(name, s)
            shadowed = self.scope.get(name)
            self.scope[name] = var
            body = self.formula()
            if shadowed is None:
                del self.scope[name]
            else:
                self.scope[name] = shadowed
            return (Exists if v == "exists" else Forall)(var, body)
        if k == "name" and v == "true":
            self.advance()
            return Top()
        if k == "name" and v == "false":
            self.advance()
            return Bottom()
        if k == "op" and v == "(":
            self.advance()
            f = self.formula()
            self.expect("op", ")")
            return f
        if k == "name":
            if self.sig is None or v not in self.sig.predicates:
                raise FolSyntaxError(f"unknown predicate {v!r}", pos)
            self.advance()
            expected = self.sig.predicates[v]
            args = self.term_args() if self.at("op", "(") else ()
            if len(args) != len(expected):
                raise FolSortError(f"{v} expects {len(expected)} arguments", v)
            _match_sorts(expected, args, term_sort)
            return Atom(v, args)
        raise FolSyntaxError(f"expected a formula, found {v or k!r}", pos)

    def done(self):
        if not self.at("eof"):
            k, v, pos = self.peek()
            raise FolSyntaxError(f"unexpected trailing input {v!r}", pos)


class _InferringParser(_Parser):
    """Parser that grows its signature as the input is read.

    Base sorts are declared by their first appearance in a binder
    annotation; a predicate is declared by its first application, with
    argument sorts taken from the arguments found there.  Later uses
    are checked against the inferred declaration.  Function symbols
    cannot be inferred (their result sort is not written anywhere) and
    still require an explicit signature.
    """

    def sort_atom(self) -> Sort:
        k, v, _ = self.peek()
        if k == "name" and v not in self.sig.sorts:
            self.sig.sorts = self.sig.sorts + (v,)
        return super().sort_atom()

    def primary(self) -> Formula:
        k, v, _ = self.peek()
        if (k == "name" and v not in _KEYWORDS and v not in self.scope
                and v not in self.sig.functions and v not in self.sig.predicates):
            mark = self.i
            self.advance()
            args = self.term_args() if self.at("op", "(") else ()
            self.sig.predicates[v] = tuple(term_sort(a) for a in args)
            self.i = mark
        return super().primary()


def _run(p: _Parser, rule, what: str):
    """Parse the whole input of `p` with `rule`, one of its bound methods;
    running out of stack becomes a FolDepthError."""
    try:
        out = rule()
    except RecursionError:
        raise FolDepthError(what) from None
    p.done()
    return out


def parse_formula(text: str, sig: Signature | None = None,
                  context: dict[str, Var] | None = None) -> Formula:
    """Parse a formula; without a signature, infer one from the input."""
    if sig is None:
        p: _Parser = _InferringParser(text, Signature(), context)
    else:
        p = _Parser(text, sig, context)
    return _run(p, p.formula, "formula")


def parse_sort(text: str, sig: Signature | None = None) -> Sort:
    p = _Parser(text, sig)
    return _run(p, p.sort, "sort")
