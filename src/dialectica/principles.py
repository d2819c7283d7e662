"""Rule checkers for the logical principles a doctrine may validate.

Each checker scans fibres over the declared universe exhaustively and
returns a self-certifying report: every positive witness is re-validated
through the doctrine's own reindexing and order before it is recorded,
and every violation carries enough data to re-check it.

Strict mode enforces each rule's stated preconditions (freeness of the
predicates involved, and for the corollary rules a doctrine-level
hypothesis such as bottom being quantifier-free); diagnostic mode drops
the preconditions to exhibit where unrestricted rules genuinely fail.
A sequent "top entails phi" is evaluated as top <= phi in the Heyting
fibre; the deduction step (top <= alpha -> beta iff alpha <= beta) is
residuation in those fibres.
"""
from __future__ import annotations

from dataclasses import dataclass

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


def _judge(entry, A, B, g, key, witnesses, violations, seq=True):
    """Record one judged instance: a violation when its sequent fails or
    no term witness exists, otherwise (up to the cap) a witness carrying
    the map A -> B with index table ``g`` under ``key``.  ``entry()``
    builds the instance's report entry, and the map is built, only for
    an instance that is recorded."""
    if not seq or g is None:
        e = entry()
        e["kind"] = "no-term-witness" if seq else "sequent-fails"
        violations.append(e)
    elif len(witnesses) < WITNESS_CAP:
        e = entry()
        e[key] = mor_json(FinMor(A, B, idx=g))
        witnesses.append(e)


def _scan(D, notes, scanned):
    """Yield ``(A, B, p, fibA, fibAB)`` for every ordered pair of carriers
    whose product and fibres fit the cap, recording each scanned pair."""
    for A in D.universe:
        for B in D.universe:
            try:
                p = D.product(A, B)
                fibA, fibAB = D.fibre(A), D.fibre(p.obj)
                fibA.elements()
                fibAB.elements()
            except CapExceeded as exc:
                notes.append(f"{A.name} with partner fibre skipped: {exc}")
                continue
            scanned.append(f"{A.name}|{B.name}")
            yield A, B, p, fibA, fibAB


def check_ip_rule(D, analyzer: FreenessAnalyzer | None = None,
                  mode: str = "strict") -> RuleReport:
    """Independence of premise: when top entails alpha -> exists-b beta
    for existential-free alpha, some t: A -> B makes top entail
    alpha -> beta(a, t(a)), and the existential sequent follows."""
    fa = analyzer or FreenessAnalyzer(D)
    notes: list = []
    witnesses: list = []
    violations: list = []
    scanned: list = []
    instances = vacuous = skipped = 0
    for A, B, p, fibA, fibAB in _scan(D, notes, scanned):
        topA = fibA.top()
        betas = fibAB.elements()
        exfree = set(fa.exfree_elements(A))
        for alpha in fibA.elements():
            qualifies = alpha in exfree
            if mode == "strict" and not qualifies:
                skipped += len(betas)
                continue
            for beta in betas:
                premise = fibA.leq(topA, fibA.imp(
                    alpha, D.exists_along(p.proj_left, beta)))
                if not premise:
                    vacuous += 1
                    continue
                instances += 1
                seq = fibA.leq(topA, D.exists_along(p.proj_left, fibAB.imp(
                    D.reindex_el(p.proj_left, alpha), beta)))
                # by residuation, top <= alpha -> beta(a, t a) iff alpha <= beta(a, t a)
                t = (fa.choice_map("existential", A, B, p, alpha, beta)
                     if seq else None)
                _judge(lambda: {
                    "base": A.name, "partner": B.name,
                    "alpha": fibA.describe(alpha),
                    "beta": fibAB.describe(beta),
                    "preconditionsHold": qualifies,
                }, A, B, t, "t", witnesses, violations, seq)
    return _report("independence-of-premise", D, mode, scanned, instances,
                   vacuous, skipped, witnesses, violations, notes)


def _markov_scan(D, fa, mode, bottom_only: bool, rule_name: str):
    """Shared scan for the modified Markov rule and its bottom instance.

    With bottom_only the target is pinned to bottom and alpha must be
    quantifier-free in strict mode (the corollary's shape); otherwise
    targets range over quantifier-free predicates and alpha must be
    existential-free.
    """
    notes: list = []
    witnesses: list = []
    violations: list = []
    scanned: list = []
    instances = vacuous = skipped = 0
    gates = {}
    for A, B, p, fibA, fibAB in _scan(D, notes, scanned):
        topA = fibA.top()
        botA = fibA.bottom()
        if bottom_only and A.name not in gates:
            gates[A.name] = fa.quantifier_free(A, botA)
        targets = [botA] if bottom_only else list(fibA.elements())
        exfree = set(fa.exfree_elements(p.obj))
        for alpha in fibAB.elements():
            if mode == "strict":
                ok = (fa.quantifier_free(p.obj, alpha) if bottom_only
                      else alpha in exfree)
                if not ok:
                    skipped += len(targets)
                    continue
            fal = D.forall_along(p.proj_left, alpha)
            for betaD in targets:
                if mode == "strict" and not bottom_only \
                        and not fa.quantifier_free(A, betaD):
                    skipped += 1
                    continue
                premise = fibA.leq(topA, fibA.imp(fal, betaD))
                if not premise:
                    vacuous += 1
                    continue
                instances += 1
                seq = fibA.leq(topA, D.exists_along(p.proj_left, fibAB.imp(
                    alpha, D.reindex_el(p.proj_left, betaD))))
                t = (fa.choice_map("universal", A, B, p, betaD, alpha)
                     if seq else None)
                _judge(lambda: {
                    "base": A.name, "partner": B.name,
                    "alpha": fibAB.describe(alpha),
                    "betaD": fibA.describe(betaD),
                }, A, B, t, "t", witnesses, violations, seq)
    gate = ("bottomQuantifierFree", gates) if bottom_only else None
    return _report(rule_name, D, mode, scanned, instances, vacuous, skipped,
                   witnesses, violations, notes, gate)


def check_modified_markov(D, analyzer: FreenessAnalyzer | None = None,
                          mode: str = "strict") -> RuleReport:
    """Modified Markov rule: when top entails (forall-b alpha) -> betaD
    for existential-free alpha and quantifier-free betaD, some t: A -> B
    makes alpha(a, t(a)) entail betaD(a)."""
    fa = analyzer or FreenessAnalyzer(D)
    return _markov_scan(D, fa, mode, False, "modified-markov")


def check_markov(D, analyzer: FreenessAnalyzer | None = None,
                 mode: str = "strict") -> RuleReport:
    """Markov rule: the modified rule instantiated at betaD = bottom,
    guarded by the hypothesis that bottom is quantifier-free."""
    fa = analyzer or FreenessAnalyzer(D)
    return _markov_scan(D, fa, mode, True, "markov")


def check_counterexample_property(D, analyzer: FreenessAnalyzer | None = None,
                                  mode: str = "strict") -> RuleReport:
    """When forall-b alpha entails bottom, some g: A -> B makes
    alpha(a, g(a)) entail bottom; guarded by bottom being
    quantifier-free."""
    fa = analyzer or FreenessAnalyzer(D)
    notes: list = []
    witnesses: list = []
    violations: list = []
    scanned: list = []
    instances = vacuous = 0
    gates = {}
    for A, B, p, fibA, fibAB in _scan(D, notes, scanned):
        botA = fibA.bottom()
        if A.name not in gates:
            gates[A.name] = fa.quantifier_free(A, botA)
        for alpha in fibAB.elements():
            if not fibA.leq(D.forall_along(p.proj_left, alpha), botA):
                vacuous += 1
                continue
            instances += 1
            g = fa.choice_map("universal", A, B, p, botA, alpha)
            _judge(lambda: {
                "base": A.name, "partner": B.name,
                "alpha": fibAB.describe(alpha),
            }, A, B, g, "g", witnesses, violations)
    return _report("counterexample-property", D, mode, scanned, instances,
                   vacuous, 0, witnesses, violations, notes,
                   ("bottomQuantifierFree", gates))


def check_rule_of_choice(D, analyzer: FreenessAnalyzer | None = None,
                         mode: str = "strict") -> RuleReport:
    """When top entails exists-b alpha for existential-free alpha, some
    g: A -> B makes top entail alpha(a, g(a)); guarded by top being
    existential-free."""
    fa = analyzer or FreenessAnalyzer(D)
    notes: list = []
    witnesses: list = []
    violations: list = []
    scanned: list = []
    instances = vacuous = skipped = 0
    gates = {}
    for A, B, p, fibA, fibAB in _scan(D, notes, scanned):
        topA = fibA.top()
        if A.name not in gates:
            gates[A.name] = fa.is_existential_free(A, topA)
        exfree = set(fa.exfree_elements(p.obj))
        for alpha in fibAB.elements():
            qualifies = alpha in exfree
            if mode == "strict" and not qualifies:
                skipped += 1
                continue
            if not fibA.leq(topA, D.exists_along(p.proj_left, alpha)):
                vacuous += 1
                continue
            instances += 1
            g = fa.choice_map("existential", A, B, p, topA, alpha)
            _judge(lambda: {
                "base": A.name, "partner": B.name,
                "alpha": fibAB.describe(alpha),
                "preconditionsHold": qualifies,
            }, A, B, g, "g", witnesses, violations)
    return _report("rule-of-choice", D, mode, scanned, instances, vacuous,
                   skipped, witnesses, violations, notes,
                   ("topExistentialFree", gates))


def check_skolemisation(D, analyzer: FreenessAnalyzer | None = None,
                        mode: str = "strict") -> RuleReport:
    """Equality of forall-a2 exists-b alpha with exists-f forall-a2 of
    alpha(a1, a2, f a2), computed through the exponential B^A2 and its
    evaluation, for every predicate over A1 x A2 x B."""
    del analyzer  # no freeness preconditions; kept for a uniform signature
    notes: list = []
    witnesses: list = []
    violations: list = []
    scanned: list = []
    instances = 0
    objs = D.universe
    for A1 in objs:
        for A2 in objs:
            for B in objs:
                try:
                    E = exponential(B, A2, EXP_CAP)
                    a12 = D.product(A1, A2)
                    tri = D.product(a12.obj, B)
                    alphas = D.fibre(tri.obj).elements()
                    a1e = D.product(A1, E.obj)
                    fe = D.product(a1e.obj, A2)
                except CapExceeded as exc:
                    notes.append(
                        f"{A1.name},{A2.name},{B.name} skipped: {exc}")
                    continue
                scanned.append(f"{A1.name},{A2.name},{B.name}")
                k1 = A1.arity
                # (a1, f, a2) goes to (a1, a2, f a2); the projections are
                # those of the products, A1*A2*B being (A1*A2)*B
                subst = FinMor(fe.obj, tri.obj, tuple(
                    e[:k1] + e[k1 + 1:] + e[k1](e[k1 + 1:])
                    for e in fe.obj.elements))
                p12, p1 = tri.proj_left, a12.proj_left
                q, r = fe.proj_left, a1e.proj_left
                fibA1 = D.fibre(A1)
                for alpha in alphas:
                    instances += 1
                    lhs = D.forall_along(p1, D.exists_along(p12, alpha))
                    rhs = D.exists_along(r, D.forall_along(
                        q, D.reindex_el(subst, alpha)))
                    if lhs == rhs and len(witnesses) >= WITNESS_CAP:
                        continue
                    entry = {
                        "carriers": [A1.name, A2.name, B.name],
                        "alpha": D.fibre(tri.obj).describe(alpha),
                        "bothSides": fibA1.describe(lhs),
                    }
                    if lhs != rhs:
                        entry["kind"] = "sides-differ"
                        entry["prenexSide"] = fibA1.describe(lhs)
                        entry["skolemSide"] = fibA1.describe(rhs)
                        violations.append(entry)
                    else:
                        witnesses.append(entry)
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
