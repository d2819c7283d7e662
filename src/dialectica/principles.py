"""Rule checkers for the logical principles a doctrine may validate.

Each checker scans fibres over the declared universe exhaustively and
returns a self-certifying report: every positive witness is re-validated
through the doctrine's own reindexing and order before it is recorded,
and every violation carries enough data to re-check it.  The five rules
with a term witness share one scan, driven by a table of rows; each
instance is decided by the doctrine's choice-map decision, and a map is
built only for a witness the report records.

Each carrier pair (a block, for Skolemisation) is read from a table of
the stage each of its instances reaches (`_Table`), and both kinds of
check read their tables through one scan (`_Scan`), which also keeps
the stage tally, the report's entries and the witness cap.  On a
pointwise doctrine every check of a rule, preconditions included when
freeness is read per column, reads the base one point at a time: an
instance over A is the tuple of its one-point instances at the points
of A, and stops at the earliest stage any of them reaches.  There each
pair over a wide A is read from the table of its one-point pair, built
once per rule and partner by the checks themselves: its counts are
powers of the table's, and its entries are walked from it in scan
order, only while the report still needs one.  Table replays,
analyzers that walk maps for freeness, and universes whose one-point
carrier comes after a wide one scan each pair predicate by predicate.

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
import itertools
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
        """The report as a JSON object.  Its witness and violation entries
        are the report's own dicts, not copies: a report's listing can be
        most of its size, so two copies of it would double the peak."""
        return {
            "rule": self.rule,
            "doctrine": self.doctrine,
            "mode": self.mode,
            "verdict": self.verdict,
            "scanned": list(self.scanned),
            "instances": self.instances,
            "vacuous": self.vacuous,
            "skipped": self.skipped,
            "witnesses": list(self.witnesses),
            "violations": list(self.violations),
            "hypothesis": self.hypothesis,
            "notes": list(self.notes),
        }


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


def _scan(D, scanned):
    """Yield a `_Pair` for every ordered pair of carriers, recording each
    scanned pair; its product and both fibres are checked against the cap
    before the pair is read."""
    for A in D.universe:
        for B in D.universe:
            p = D.product(A, B)
            fibA, fibAB = D.fibre(A), D.fibre(p.obj)
            fibA.count()
            fibAB.count()
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
    precondition: Callable | None  # (analyzer, alpha's carrier) -> the alphas meeting it
    target_ok: Callable | None  # (analyzer, pair, target) -> bool
    premise: Callable  # (pair, alpha, target) -> bool
    sequent: Callable | None  # as premise; None judges the term alone
    kind: str  # "existential" or "universal" cover
    term: str  # report key of the term
    target_key: str | None = None  # report key of the target, if printed
    records_precondition: bool = False  # entries carry "preconditionsHold"
    gate: tuple | None = None  # (hypothesis key, (analyzer, pair) -> bool)


_BOTTOM_QF = ("bottomQuantifierFree", lambda fa, c: fa.quantifier_free(c.A, c.bot))

# by residuation, top <= alpha -> beta(a, t a) iff alpha <= beta(a, t a)
_IP = _Row(
    "independence-of-premise", True, lambda c: c.fibAB.elements(),
    FreenessAnalyzer.exfree_elements, None,
    lambda c, a, b: c.fibA.leq(c.top, c.impA(a, c.exists(b))),
    lambda c, a, b: c.fibA.leq(c.top, c.exists(c.fibAB.imp(c.pull(a), b))),
    "existential", "t", "beta", records_precondition=True)
_MMR = _Row(
    "modified-markov", False, lambda c: c.fibA.elements(), FreenessAnalyzer.exfree_elements,
    lambda fa, c, d: fa.quantifier_free(c.A, d),
    lambda c, a, d: c.fibA.leq(c.top, c.impA(c.forall(a), d)),
    lambda c, a, d: c.fibA.leq(c.top, c.exists(c.fibAB.imp(a, c.pull(d)))),
    "universal", "t", "betaD")
_MARKOV = replace(
    _MMR, name="markov", targets=lambda c: (c.bot,), target_ok=None,
    precondition=FreenessAnalyzer.qfree_elements,
    gate=_BOTTOM_QF)
_CEX = _Row(
    "counterexample-property", False, lambda c: (c.bot,), None, None,
    lambda c, a, bot: c.fibA.leq(c.forall(a), bot), None,
    "universal", "g", gate=_BOTTOM_QF)
_CHOICE = _Row(
    "rule-of-choice", False, lambda c: (c.top,), FreenessAnalyzer.exfree_elements, None,
    lambda c, a, top: c.fibA.leq(top, c.exists(a)), None,
    "existential", "g", records_precondition=True,
    gate=("topExistentialFree", lambda fa, c: fa.is_existential_free(c.A, c.top)))


# How far an instance gets through its rule's checks, made in this
# order: strict mode skips an alpha failing its precondition, then a
# target failing ``target_ok``; a false premise is vacuous; a judged
# instance fails (its sequent, or Skolemisation's two sides differ), has
# no term, or holds.
_NO_ALPHA, _NO_TARGET, _VACUOUS, _FAILS, _NO_TERM, _HOLDS = range(6)


class _Table:
    """The stage of every instance of one pair of carriers, from a stream
    of (alpha, target, stage) in scan order.

    ``reach[k]`` counts the instances that reach stage k or a later one.
    ``rows`` maps each alpha with a judged target (stage _FAILS or
    later), in scan order, to those targets with their stages; ``fails``
    holds the alphas with a judged target that does not hold.  On a
    pointwise doctrine the one-point pair's table stands for every pair
    with the same partner: an instance over an n-point base is the tuple
    of its one-point instances at the points, and it stops at the
    earliest stage any of them reaches.  So the instances reaching stage
    k number ``reach[k]**n``, and the walk over tuples of rows in product
    order is the scan's order."""

    def __init__(self, stream):
        reach = [0] * (_HOLDS + 2)
        self.rows: dict = {}
        self.fails: set = set()
        for alpha, target, stage in stream:
            reach[stage] += 1
            if stage >= _FAILS:
                self.rows.setdefault(alpha, []).append((target, stage))
                if stage < _HOLDS:
                    self.fails.add(alpha)
        for k in reversed(range(_HOLDS + 1)):
            reach[k] += reach[k + 1]
        self.reach = reach

    def counts(self, n: int) -> list:
        """The instances over an n-point base (n >= 1) stopping at each stage."""
        r = [k ** n for k in self.reach]
        return [r[k] - r[k + 1] for k in range(_HOLDS + 1)]

    def walk(self, n: int, full):
        """(alphas, targets, stage), one alpha and one target per point,
        for the judged instances over an n-point base in scan order;
        once ``full()`` holds, only those that do not hold, and no alphas
        all of whose judged targets hold."""
        for alphas in itertools.product(self.rows, repeat=n):
            if full() and self.fails.isdisjoint(alphas):
                continue
            for judged in itertools.product(*map(self.rows.__getitem__, alphas)):
                stage = min(s for _, s in judged)
                if stage < _HOLDS or not full():
                    yield alphas, tuple(t for t, _ in judged), stage


class _Scan:
    """One check's scan: the scanned list, the report's witnesses (up to
    the cap), violations and notes, the tally of instances per stage and,
    on a pointwise doctrine (``per_point``), the one-point tables, kept
    by partner."""

    def __init__(self, per_point: bool):
        self.per_point = per_point
        self.scanned: list = []
        self.witnesses: list = []
        self.violations: list = []
        self.notes: list = []
        self.tally = [0] * (_HOLDS + 1)
        self.tables: dict = {}

    def full(self) -> bool:
        return len(self.witnesses) >= WITNESS_CAP

    def judged(self, partner, A, stream):
        """Tally the instances over base A with this partner and return
        the walk (`_Table.walk`) of its judged ones.  A wide A is read
        from the partner's one-point table when there is one; otherwise
        the table is built from ``stream``, a lazy iterator of stages,
        and kept when A is a point.  Once the cap is full and no instance
        fails, the walk is empty."""
        n = len(A)
        table = self.tables.get(partner) if self.per_point and n > 1 else None
        if table is None:
            table, n = _Table(stream), 1
            if self.per_point and len(A) == 1:
                self.tables[partner] = table
        counts = table.counts(n)
        self.tally = [t + k for t, k in zip(self.tally, counts)]
        if self.full() and not counts[_FAILS] + counts[_NO_TERM]:
            return ()
        return table.walk(n, self.full)

    def report(self, rule, D, mode, gate=None) -> RuleReport:
        """The rule's report.  ``gate`` is ``(key, {object: holds})`` for
        a corollary rule's doctrine-level hypothesis; in strict mode a
        failed gate leaves every instance unjudged."""
        t = self.tally
        instances, skipped = sum(t[_FAILS:]), t[_NO_ALPHA] + t[_NO_TARGET]
        hypothesis = None
        if gate is not None:
            key, gates = gate
            holds = all(gates.values())
            hypothesis = {key: gates, "holds": holds}
            if mode == "strict" and not holds:
                self.notes.append("corollary hypothesis fails; instances not judged")
                return RuleReport(rule, D.name, mode, "hypothesis-failed",
                                  tuple(self.scanned), 0, t[_VACUOUS], skipped + instances,
                                  (), (), hypothesis, tuple(self.notes))
        return RuleReport(rule, D.name, mode, "fail" if self.violations else "pass",
                          tuple(self.scanned), instances, t[_VACUOUS], skipped,
                          tuple(self.witnesses), tuple(self.violations), hypothesis,
                          tuple(self.notes))


def _glue(values, width: int):
    """The predicate over A*X whose slice at point a of A is values[a], a
    predicate over X of ``width`` bits, on a pointwise doctrine's masks
    (the elements of A*X run with A slowest); a single value is itself."""
    return sum(v << (a * width) for a, v in enumerate(values))


def _stages(row: _Row, D, fa, c, strict, qualifies):
    """Yield (alpha, target, stage) for every instance of the pair c, in
    scan order, each check made as the row states it; ``qualifies`` is
    None or the alphas meeting the precondition."""
    A, B = c.A, c.B
    for alpha in (c.fibA if row.alpha_on_base else c.fibAB).elements():
        ok = qualifies is None or alpha in qualifies
        for target in row.targets(c):
            if strict and not ok:
                stage = _NO_ALPHA
            elif strict and row.target_ok is not None and not row.target_ok(fa, c, target):
                stage = _NO_TARGET
            elif not row.premise(c, alpha, target):
                stage = _VACUOUS
            elif row.sequent is not None and not row.sequent(c, alpha, target):
                stage = _FAILS
            else:
                cover = (alpha, target) if row.alpha_on_base else (target, alpha)
                found = D.choice_index(row.kind, A, B, c.p, *cover) is not None
                stage = _HOLDS if found else _NO_TERM
            yield alpha, target, stage


def _rule_scan(row: _Row, D, analyzer, mode) -> RuleReport:
    """Scan one row over every carrier pair through a `_Scan`, per point
    on a pointwise doctrine whose analyzer reads freeness per column.  A
    violation is recorded when its sequent fails or no term exists, a
    witness (up to the cap) otherwise.  A witness's term is decided by
    `D.choice_index` on its own pair, and its map built and revalidated
    by `D.choice_map`.  An entry's "preconditionsHold" is whether its
    alpha is in the pair's precondition set; per point, that is whether
    every slice of alpha is."""
    fa = analyzer or FreenessAnalyzer(D)
    strict = mode == "strict"
    per_point = D.pointwise and fa.columnwise
    nw = D.nw if per_point else 0
    scan = _Scan(per_point)
    gates: dict = {}
    for c in _scan(D, scan.scanned):
        A, B = c.A, c.B
        if row.gate is not None and A.name not in gates:
            gates[A.name] = row.gate[1](fa, c)
        # built on every pair, as the scan builds it, so that a cap which
        # only its carrier overruns stops the rule here too
        qualifies = None
        if row.precondition is not None and (strict or row.records_precondition):
            qualifies = set(row.precondition(fa, A if row.alpha_on_base else c.p.obj))
        walk = scan.judged(B.name, A, _stages(row, D, fa, c, strict, qualifies))
        fib, target_fib = (c.fibA, c.fibAB) if row.alpha_on_base else (c.fibAB, c.fibA)
        # the widths of alpha and of a target at one point of A
        wa, wt = (nw, len(B) * nw) if row.alpha_on_base else (len(B) * nw, nw)
        for alphas, targets, stage in walk:
            alpha, target = _glue(alphas, wa), _glue(targets, wt)
            e = {"base": A.name, "partner": B.name, "alpha": fib.describe(alpha)}
            if row.target_key:
                e[row.target_key] = target_fib.describe(target)
            if row.records_precondition:
                e["preconditionsHold"] = alpha in qualifies
            if stage == _HOLDS:
                cover = (alpha, target) if row.alpha_on_base else (target, alpha)
                g = D.choice_index(row.kind, A, B, c.p, *cover)
                e[row.term] = mor_json(D.choice_map(row.kind, A, B, c.p, *cover, g))
                scan.witnesses.append(e)
            else:
                e["kind"] = "no-term-witness" if stage == _NO_TERM else "sequent-fails"
                scan.violations.append(e)
    return scan.report(row.name, D, mode, None if row.gate is None else (row.gate[0], gates))


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

    Each block (A1, A2, B) is read through the `_Scan` the term rules
    use, with base A1 and partner (A2, B), from a `_Table` of its
    predicates' sides.  On a pointwise doctrine both sides at a point a1
    read only alpha's slice at a1, a predicate of the one-point block
    (1, A2, B), and every such predicate is a slice; so a block over a
    wide A1 is read from its one-point block's table, whose targets are
    the sides at one point.  A scanned block asks both sides of its
    whole fibre in one `D.chain_values` call (`_sides`): on the
    predicates' planes on a concrete doctrine, and on a table replay
    through D's value methods one predicate at a time (the base body)."""
    del analyzer  # no freeness preconditions; kept for a uniform signature
    scan = _Scan(D.pointwise)
    exps: dict = {}  # (A2, B) names -> B^A2, which A1 does not change
    nw = D.nw if D.pointwise else 0
    for A1, A2, B in itertools.product(D.universe, repeat=3):
        try:
            key = A2.name, B.name
            E = exps[key] if key in exps else exps.setdefault(
                key, exponential(B, A2, EXP_CAP))
            a12 = D.product(A1, A2)
            tri = D.product(a12.obj, B)
            fib = D.fibre(tri.obj)
            fib.count()
            a1e = D.product(A1, E.obj)
            fe = D.product(a1e.obj, A2)
        except CapExceeded as exc:
            scan.notes.append(f"{A1.name},{A2.name},{B.name} skipped: {exc}")
            continue
        scan.scanned.append(f"{A1.name},{A2.name},{B.name}")
        fibA1 = D.fibre(A1)
        width = len(A2) * len(B) * nw  # of a slice at one point of A1
        for slices, sides, stage in scan.judged(key, A1, _sides(D, A1, a12, tri, a1e, fe, fib)):
            lhs = _glue([side[0] for side in sides], nw)
            entry = {
                "carriers": [A1.name, A2.name, B.name],
                "alpha": fib.describe(_glue(slices, width)),
                "bothSides": fibA1.describe(lhs),
            }
            if stage == _HOLDS:
                scan.witnesses.append(entry)
            else:
                entry["kind"] = "sides-differ"
                entry["prenexSide"] = fibA1.describe(lhs)
                entry["skolemSide"] = fibA1.describe(
                    _glue([side[1] for side in sides], nw))
                scan.violations.append(entry)
    return scan.report("skolemisation", D, mode)


def _sides(D, A1, a12, tri, a1e, fe, fib):
    """Yield (alpha, (prenex side, Skolem side), stage) for every
    predicate alpha of the block (A1, A2, B), in its fibre's order.  Both
    sides of the whole fibre are one `D.chain_values` call: forall along
    p1 after exists along p12, and exists along r after forall along q
    after the pullback along the substitution."""
    k1 = A1.arity
    # (a1, f, a2) goes to (a1, a2, f a2); the projections are those of
    # the products, A1*A2*B being (A1*A2)*B
    subst = FinMor(fe.obj, tri.obj, tuple(
        e[:k1] + e[k1 + 1:] + e[k1](e[k1 + 1:]) for e in fe.obj.elements))
    p12, p1 = tri.proj_left, a12.proj_left
    q, r = fe.proj_left, a1e.proj_left
    alphas = fib.elements()
    prenex, skolem = D.chain_values(alphas, (
        (("exists", p12), ("forall", p1)),
        (("reindex", subst), ("forall", q), ("exists", r))))
    for alpha, lhs, rhs in zip(alphas, prenex, skolem):
        yield alpha, (lhs, rhs), _HOLDS if lhs == rhs else _FAILS


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
