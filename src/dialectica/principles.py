"""Rule checkers for the logical principles a doctrine may validate.

Each checker scans fibres over the declared universe exhaustively and
returns a self-certifying report: every positive witness is re-validated
through the doctrine's own reindexing and order before it is recorded,
and every violation carries enough data to re-check it.  The five rules
with a term witness share one scan, driven by a table of rows; each
instance is decided by the doctrine's choice-map decision, and a map is
built only for a witness the report records.

Strict mode enforces each rule's stated preconditions (freeness of the
predicates involved, and for the corollary rules a doctrine-level
hypothesis such as bottom being quantifier-free); diagnostic mode drops
the preconditions to exhibit where unrestricted rules genuinely fail.
A sequent "top entails phi" is evaluated as top <= phi in the Heyting
fibre; the deduction step (top <= alpha -> beta iff alpha <= beta) is
residuation in those fibres.
"""
from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass, replace

from .doctrine import mor_json
from .fincat import CapExceeded, FinMor, exponential
from .freeness import FreenessAnalyzer

# Positive witnesses kept per report; every violation is kept.
WITNESS_CAP = 6
# Bound on the exponential B^A2 that Skolemisation builds.
EXP_CAP = 64


@dataclass
class RuleReport:
    """Outcome of scanning one rule over a doctrine's universe."""

    rule: str
    doctrine: str
    mode: str
    verdict: str
    scanned: tuple
    instances: int
    vacuous: int
    skipped: int
    witnesses: tuple
    violations: tuple
    hypothesis: dict | None
    notes: tuple

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "doctrine": self.doctrine,
            "mode": self.mode,
            "verdict": self.verdict,
            "scanned": list(self.scanned),
            "instances": self.instances,
            "vacuous": self.vacuous,
            "skipped": self.skipped,
            "witnesses": [dict(w) for w in self.witnesses],
            "violations": [dict(v) for v in self.violations],
            "hypothesis": self.hypothesis,
            "notes": list(self.notes),
        }


def _report(rule, D, mode, scanned, instances, vacuous, skipped, witnesses,
            violations, notes, gate=None) -> RuleReport:
    """Assemble one rule's report.  ``gate`` is ``(key, {object: holds})``
    for a corollary rule's doctrine-level hypothesis; in strict mode a
    failed gate leaves every instance unjudged."""
    hypothesis = None
    if gate is not None:
        key, gates = gate
        holds = all(gates.values())
        hypothesis = {key: gates, "holds": holds}
        if mode == "strict" and not holds:
            notes.append("corollary hypothesis fails; instances not judged")
            return RuleReport(rule, D.name, mode, "hypothesis-failed",
                              tuple(scanned), 0, vacuous, skipped + instances,
                              (), (), hypothesis, tuple(notes))
    return RuleReport(rule, D.name, mode, "fail" if violations else "pass",
                      tuple(scanned), instances, vacuous, skipped,
                      tuple(witnesses), tuple(violations), hypothesis,
                      tuple(notes))


class _Pair:
    """One scanned pair of carriers A, B: the projection A*B -> A, both
    fibres, the projection's quantifiers and pullback, read through
    `D.along` and so shared by every row, and implication over A, taken
    at most once per argument.  Implication over A*B is taken afresh:
    no sequent repeats its arguments within one pair."""

    def __init__(self, D, A, B, p, fibA, fibAB):
        self.A, self.B, self.p, self.fibA, self.fibAB = A, B, p, fibA, fibAB
        proj = p.proj_left
        self.exists = D.along("exists", proj)
        self.forall = D.along("forall", proj)
        self.pull = D.along("reindex", proj)
        self.impA = functools.cache(fibA.imp)

    @functools.cached_property
    def top(self):
        return self.fibA.top()

    @functools.cached_property
    def bot(self):
        return self.fibA.bottom()


def _scan(D, notes, scanned):
    """Yield a `_Pair` for every ordered pair of carriers whose product
    and fibres fit the cap, recording each scanned pair."""
    for A in D.universe:
        for B in D.universe:
            try:
                p = D.product(A, B)
                fibA, fibAB = D.fibre(A), D.fibre(p.obj)
                fibA.count()
                fibAB.count()
            except CapExceeded as exc:
                notes.append(f"{A.name} with partner fibre skipped: {exc}")
                continue
            scanned.append(f"{A.name}|{B.name}")
            yield _Pair(D, A, B, p, fibA, fibAB)


@dataclass(frozen=True)
class _Row:
    """One rule of the shared scan.  An instance pairs a predicate alpha
    with one of the pair's targets; its term g: A -> B must realise the
    ``kind`` cover of the instance's predicate over A by the one over A*B.
    Strict mode skips an alpha failing its precondition and a target
    failing ``target_ok``, and a failed gate leaves no instance judged."""

    name: str
    alpha_on_base: bool  # alpha over A and targets over A*B, or the reverse
    targets: Callable  # pair -> the predicates each alpha meets
    precondition: Callable | None  # (analyzer, alpha's carrier) -> test of alpha
    target_ok: Callable | None  # (analyzer, pair, target) -> bool
    premise: Callable  # (pair, alpha, target) -> bool
    sequent: Callable | None  # as premise; None judges the term alone
    kind: str  # "existential" or "universal" cover
    term: str  # report key of the term
    target_key: str | None = None  # report key of the target, if printed
    records_precondition: bool = False  # entries carry "preconditionsHold"
    gate: tuple | None = None  # (hypothesis key, (analyzer, pair) -> bool)


def _exfree(fa, obj):
    return set(fa.exfree_elements(obj)).__contains__


_BOTTOM_QF = ("bottomQuantifierFree", lambda fa, c: fa.quantifier_free(c.A, c.bot))

# by residuation, top <= alpha -> beta(a, t a) iff alpha <= beta(a, t a)
_IP = _Row(
    "independence-of-premise", True, lambda c: c.fibAB.elements(), _exfree, None,
    lambda c, a, b: c.fibA.leq(c.top, c.impA(a, c.exists(b))),
    lambda c, a, b: c.fibA.leq(c.top, c.exists(c.fibAB.imp(c.pull(a), b))),
    "existential", "t", "beta", records_precondition=True)
_MMR = _Row(
    "modified-markov", False, lambda c: c.fibA.elements(), _exfree,
    lambda fa, c, d: fa.quantifier_free(c.A, d),
    lambda c, a, d: c.fibA.leq(c.top, c.impA(c.forall(a), d)),
    lambda c, a, d: c.fibA.leq(c.top, c.exists(c.fibAB.imp(a, c.pull(d)))),
    "universal", "t", "betaD")
_MARKOV = replace(
    _MMR, name="markov", targets=lambda c: (c.bot,), target_ok=None,
    precondition=lambda fa, obj: functools.partial(fa.quantifier_free, obj),
    gate=_BOTTOM_QF)
_CEX = _Row(
    "counterexample-property", False, lambda c: (c.bot,), None, None,
    lambda c, a, bot: c.fibA.leq(c.forall(a), bot), None,
    "universal", "g", gate=_BOTTOM_QF)
_CHOICE = _Row(
    "rule-of-choice", False, lambda c: (c.top,), _exfree, None,
    lambda c, a, top: c.fibA.leq(top, c.exists(a)), None,
    "existential", "g", records_precondition=True,
    gate=("topExistentialFree", lambda fa, c: fa.is_existential_free(c.A, c.top)))


def _rule_scan(row: _Row, D, analyzer, mode) -> RuleReport:
    """Scan one row over every carrier pair.  Each judged instance is
    decided by `D.choice_index`; a violation is recorded when its
    sequent fails or no term exists, a witness (up to the cap)
    otherwise.  Report entries are built, and a witness's map built and
    revalidated by `D.choice_map`, only for recorded instances."""
    fa = analyzer or FreenessAnalyzer(D)
    strict = mode == "strict"
    premise, sequent, target_ok = row.premise, row.sequent, row.target_ok
    notes: list = []
    witnesses: list = []
    violations: list = []
    scanned: list = []
    instances = vacuous = skipped = 0
    gates: dict = {}
    for c in _scan(D, notes, scanned):
        A, B = c.A, c.B
        if row.gate is not None and A.name not in gates:
            gates[A.name] = row.gate[1](fa, c)
        fib, target_fib = (c.fibA, c.fibAB) if row.alpha_on_base else (c.fibAB, c.fibA)
        targets = row.targets(c)
        qualifies = None
        if row.precondition is not None and (strict or row.records_precondition):
            qualifies = row.precondition(fa, A if row.alpha_on_base else c.p.obj)
        for alpha in fib.elements():
            ok = qualifies is None or qualifies(alpha)
            if strict and not ok:
                skipped += len(targets)
                continue
            for target in targets:
                if strict and target_ok is not None and not target_ok(fa, c, target):
                    skipped += 1
                    continue
                if not premise(c, alpha, target):
                    vacuous += 1
                    continue
                instances += 1
                seq = sequent is None or sequent(c, alpha, target)
                cover = (alpha, target) if row.alpha_on_base else (target, alpha)
                g = D.choice_index(row.kind, A, B, c.p, *cover) if seq else None
                found = g is not None
                if found and len(witnesses) >= WITNESS_CAP:
                    continue
                e = {"base": A.name, "partner": B.name, "alpha": fib.describe(alpha)}
                if row.target_key:
                    e[row.target_key] = target_fib.describe(target)
                if row.records_precondition:
                    e["preconditionsHold"] = ok
                if found:
                    e[row.term] = mor_json(D.choice_map(row.kind, A, B, c.p, *cover, g))
                    witnesses.append(e)
                else:
                    e["kind"] = "no-term-witness" if seq else "sequent-fails"
                    violations.append(e)
    gate = None if row.gate is None else (row.gate[0], gates)
    return _report(row.name, D, mode, scanned, instances, vacuous, skipped,
                   witnesses, violations, notes, gate)


def check_ip_rule(D, analyzer: FreenessAnalyzer | None = None,
                  mode: str = "strict") -> RuleReport:
    """Independence of premise: when top entails alpha -> exists-b beta
    for existential-free alpha, some t: A -> B makes top entail
    alpha -> beta(a, t(a)), and the existential sequent follows."""
    return _rule_scan(_IP, D, analyzer, mode)


def check_modified_markov(D, analyzer: FreenessAnalyzer | None = None,
                          mode: str = "strict") -> RuleReport:
    """Modified Markov rule: when top entails (forall-b alpha) -> betaD
    for existential-free alpha and quantifier-free betaD, some t: A -> B
    makes alpha(a, t(a)) entail betaD(a)."""
    return _rule_scan(_MMR, D, analyzer, mode)


def check_markov(D, analyzer: FreenessAnalyzer | None = None,
                 mode: str = "strict") -> RuleReport:
    """Markov rule: the modified rule instantiated at betaD = bottom, for
    quantifier-free alpha, guarded by the hypothesis that bottom is
    quantifier-free."""
    return _rule_scan(_MARKOV, D, analyzer, mode)


def check_counterexample_property(D, analyzer: FreenessAnalyzer | None = None,
                                  mode: str = "strict") -> RuleReport:
    """When forall-b alpha entails bottom, some g: A -> B makes
    alpha(a, g(a)) entail bottom; guarded by bottom being
    quantifier-free."""
    return _rule_scan(_CEX, D, analyzer, mode)


def check_rule_of_choice(D, analyzer: FreenessAnalyzer | None = None,
                         mode: str = "strict") -> RuleReport:
    """When top entails exists-b alpha for existential-free alpha, some
    g: A -> B makes top entail alpha(a, g(a)); guarded by top being
    existential-free."""
    return _rule_scan(_CHOICE, D, analyzer, mode)


def check_skolemisation(D, analyzer: FreenessAnalyzer | None = None,
                        mode: str = "strict") -> RuleReport:
    """Equality of forall-a2 exists-b alpha with exists-f forall-a2 of
    alpha(a1, a2, f a2), computed through the exponential B^A2 and its
    evaluation, for every predicate over A1 x A2 x B.

    On a pointwise doctrine both sides at a point a1 read only alpha's
    slice at a1, a predicate of the one-point block (1, A2, B), and every
    such predicate is a slice.  So once the report holds its witnesses,
    a block with |A1| > 1 whose one-point block was scanned with no
    violation is counted without a scan: it would record nothing."""
    del analyzer  # no freeness preconditions; kept for a uniform signature
    notes: list = []
    witnesses: list = []
    violations: list = []
    scanned: list = []
    instances = 0
    passes: set = set()  # (A2, B) whose one-point block has no violation
    objs = D.universe
    for A1 in objs:
        for A2 in objs:
            for B in objs:
                try:
                    E = exponential(B, A2, EXP_CAP)
                    a12 = D.product(A1, A2)
                    tri = D.product(a12.obj, B)
                    fib = D.fibre(tri.obj)
                    count = fib.count()
                    a1e = D.product(A1, E.obj)
                    fe = D.product(a1e.obj, A2)
                except CapExceeded as exc:
                    notes.append(
                        f"{A1.name},{A2.name},{B.name} skipped: {exc}")
                    continue
                scanned.append(f"{A1.name},{A2.name},{B.name}")
                if (D.pointwise and len(A1) > 1 and (A2, B) in passes
                        and len(witnesses) >= WITNESS_CAP):
                    instances += count
                    continue
                failed = len(violations)
                k1 = A1.arity
                # (a1, f, a2) goes to (a1, a2, f a2); the projections are
                # those of the products, A1*A2*B being (A1*A2)*B
                subst = FinMor(fe.obj, tri.obj, tuple(
                    e[:k1] + e[k1 + 1:] + e[k1](e[k1 + 1:])
                    for e in fe.obj.elements))
                p12, p1 = tri.proj_left, a12.proj_left
                q, r = fe.proj_left, a1e.proj_left
                fibA1 = D.fibre(A1)
                for alpha in fib.elements():
                    instances += 1
                    lhs = D.forall_along(p1, D.exists_along(p12, alpha))
                    rhs = D.exists_along(r, D.forall_along(
                        q, D.reindex_el(subst, alpha)))
                    if lhs == rhs and len(witnesses) >= WITNESS_CAP:
                        continue
                    entry = {
                        "carriers": [A1.name, A2.name, B.name],
                        "alpha": fib.describe(alpha),
                        "bothSides": fibA1.describe(lhs),
                    }
                    if lhs != rhs:
                        entry["kind"] = "sides-differ"
                        entry["prenexSide"] = fibA1.describe(lhs)
                        entry["skolemSide"] = fibA1.describe(rhs)
                        violations.append(entry)
                    else:
                        witnesses.append(entry)
                if len(A1) == 1 and len(violations) == failed:
                    passes.add((A2, B))
    return _report("skolemisation", D, mode, scanned, instances, 0, 0,
                   witnesses, violations, notes)


RULES = {
    "skolem": check_skolemisation,
    "ip": check_ip_rule,
    "mmr": check_modified_markov,
    "markov": check_markov,
    "cex": check_counterexample_property,
    "choice": check_rule_of_choice,
}


def run_suite(D, analyzer: FreenessAnalyzer | None = None,
              mode: str = "strict", rules=None) -> list:
    """Run the named rules (default all) with one shared analyzer."""
    fa = analyzer or FreenessAnalyzer(D)
    picked = rules if rules is not None else list(RULES)
    return [RULES[r](D, fa, mode=mode) for r in picked]
