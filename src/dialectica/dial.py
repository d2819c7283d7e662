"""Dialectica completion of a finite doctrine.

Objects of the completed fibre over I are quadruples (I, U, X, alpha)
with alpha a predicate over I*U*X: U carries witnesses, X carries
counterexamples.  One quadruple is below another when a pair of maps
(f0: I*U -> V, f1: I*U*Y -> X) transports witnesses forward and
counterexamples backward:

    alpha(i, u, f1(i, u, y)) <= beta(i, f0(i, u), y)

The doctrine decides the order: ``D.witness_tables`` finds one pair's
index tables, or None, ``D.witness_exists`` says only whether there is
one, and ``D.order_rows`` gives the rows of a list of quadruples.  The
base class searches every pair; a concrete doctrine, since the
condition splits per slot (i, u), decides per slot, keeps each verdict
of one row i of both quadruples for `witness_exists`, and reads the
rows off per-quadruple signatures.  Every reader of the rows takes
them as bitmasks: `check_preorder` checks transitivity once per distinct
row, `DialFibre.classes` reads two bits per pair, and `check_theorem4`
XORs each row with alpha's upper set in P(I).  A pair is built only
where it is used, and only by one builder (``_certified``), which takes
cells (b, f0, f1) below one quadruple a: ``dial complete`` hands it a
row's cells, each searched by ``D.witness_tables``; ``dial_leq``
(sampled compositions), ``identity_pair`` (reflexivity) and
``compose_pairs`` one cell each.  What depends on the carriers alone is
looked up once per run of cells whose b share V and Y: ``D._pairs``'
entry, keyed by the names and carriers of I, U, X, V and Y, holds the
run's pairs by both tables, I*U and I*U*Y.  Each distinct pair is built
once per doctrine from ``D.kept_map`` (one map per carrier pair and
table), and every cell's pair is revalidated whole, a kept pair too: its
carriers, then ``D.pair_holds`` (the doctrine's own reindexing and
order).  So a returned pair is a checked certificate, and None means the
exhaustive search ran dry.

Carriers such as I*U*X, built as (I*U)*X, come from the doctrine's
product table (``D.product``), built once each at ``D.cap``.  Products
enumerate the left factor slowest, so element ``(i, u, x)`` of I*U*X has
index ``(i * |U| + u) * |X| + x``, and every table this module reads
(revalidation, identity, composition) is computed by that arithmetic.
Revalidation reads the pair's index tables: a concrete doctrine
compares the two matrices on them slot by slot (`_kernels.pair_holds`),
building no map or pullback.  Theorems 2 and 4 list their
quantifier-free matrices by `FreenessAnalyzer.qfree_elements` (the
fibre's `masks` over the prime columns on a concrete doctrine), take
their prenex values a list at a time (`prenex_values`, one
``D.chain_values`` call), and ask ``D.witness_exists`` for each pair
they compare; neither builds a pair.
"""
from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass

from .doctrine import DoctrineError, mor_json
from .fincat import CapExceeded, FinMor, FinObj
from .posets import _members

DEFAULT_QUAD_CAP = 1092


@dataclass(frozen=True)
class DialObject:
    """Quadruple (I, U, X, alpha) with alpha over I*U*X."""

    I: FinObj
    U: FinObj
    X: FinObj
    alpha: int

    def to_json(self, D) -> dict:
        fib = D.fibre(_carrier(D, self.I, self.U, self.X))
        return {
            "I": self.I.name,
            "X": self.X.name,
            "U": self.U.name,
            "alpha": fib.describe(self.alpha),
        }


@dataclass(frozen=True)
class WitnessPair:
    """Maps certifying one quadruple below another."""

    f0: FinMor
    f1: FinMor

    def to_json(self, encode=mor_json) -> dict:
        """The pair as its two maps, each written by ``encode``."""
        return {"f0": encode(self.f0), "f1": encode(self.f1)}


def _carrier(D, I: FinObj, U: FinObj, X: FinObj) -> FinObj:
    """I*U*X from the doctrine's product table, as (I*U)*X."""
    return D.product(D.product(I, U).obj, X).obj


def pair_is_valid(D, a: DialObject, b: DialObject, p: WitnessPair) -> bool:
    """Re-check the defining inequality through the doctrine itself:
    alpha pulled back along m1 below beta pulled back along m2, in the
    fibre over I*U*Y (`D.pair_holds` on p's index tables), p's maps
    running between the pair's products, equal element by element."""
    iu = D.product(a.I, a.U).obj
    return _valid(D, a, b, p, iu, D.product(iu, b.X).obj)


def _valid(D, a, b, p, iu, iuy) -> bool:
    """`pair_is_valid` on I*U and I*U*Y, carriers compared by identity first."""
    f0, f1 = p.f0, p.f1
    return ((a.I is b.I or a.I == b.I) and (f0.dom is iu or f0.dom == iu)
            and (f0.cod is b.U or f0.cod == b.U) and (f1.dom is iuy or f1.dom == iuy)
            and (f1.cod is a.X or f1.cod == a.X) and D.pair_holds(a, b, f0.idx, f1.idx))


def _certified(D, a: DialObject, cells, kind: str):
    """Yield the pair of each cell (b, f0, f1), index tuples f0: I*U -> V
    and f1: I*U*Y -> X, revalidated whole (`_valid`) on every call; one
    that fails raises "<kind> pair failed revalidation".  Per run of b
    sharing the carriers V and Y (by identity), one `D._pairs` lookup,
    keyed as `kept_map` keys maps (name, arity, carrier of I, U, X, V, Y),
    gives the run's pairs by both tables, I*U and I*U*Y."""
    I, U, X = a.I, a.U, a.X
    V = Y = None
    for b, f0, f1 in cells:
        if b.U is not V or b.X is not Y:
            V, Y = b.U, b.X
            key = (I.name, I.arity, I, U.name, U.arity, U, X.name, X.arity, X,
                   V.name, V.arity, V, Y.name, Y.arity, Y)
            run = D._pairs.get(key)
            if run is None:
                iu = D.product(I, U).obj
                run = D._pairs[key] = ({}, iu, D.product(iu, Y).obj)
            pairs, iu, iuy = run
        p = pairs.get((f0, f1))
        if p is None:
            p = WitnessPair(D.kept_map(iu, V, f0), D.kept_map(iuy, X, f1))
            pairs[p.f0.idx, p.f1.idx] = p  # the maps' own tables, not a copy
        if not _valid(D, a, b, p, iu, iuy):
            raise DoctrineError(f"{kind} pair failed revalidation")
        yield p


def identity_pair(D, a: DialObject) -> WitnessPair:
    """The pair certifying a <= a: project the witness, project the
    counterexample (the right projections of I*U and (I*U)*X)."""
    nu, nx = a.U.size, a.X.size
    n = a.I.size * nu
    return next(_certified(D, a, ((a, tuple(s % nu for s in range(n)),
                                   tuple(t % nx for t in range(n * nx))),), "identity"))


def dial_leq(D, a: DialObject, b: DialObject):
    """The first witness pair D finds (`D.witness_tables`), built and
    revalidated, or None when the exhaustive search finds none."""
    if a.I != b.I:
        raise DoctrineError("dialectica order compares quadruples over one base")
    found = D.witness_tables(a, b)
    return None if found is None else next(_certified(D, a, ((b, *found),), "kernel witness"))


def compose_pairs(D, a: DialObject, b: DialObject, c: DialObject,
                  p: WitnessPair, q: WitnessPair) -> WitnessPair:
    """Compose certificates a <= b and b <= c into one for a <= c:
    (i, u) goes to q.f0(i, p.f0(i, u)), and (i, u, z) to
    p.f1(i, u, q.f1(i, p.f0(i, u), z)), on index tables."""
    nu, nv, ny, nz = a.U.size, b.U.size, b.X.size, c.X.size
    f0, f1, g0, g1 = p.f0.idx, p.f1.idx, q.f0.idx, q.f1.idx
    n = a.I.size * nu
    h0 = tuple(g0[s // nu * nv + f0[s]] for s in range(n))
    h1 = tuple(f1[t // nz * ny + g1[(t // nz // nu * nv + f0[t // nz]) * nz + t % nz]]
               for t in range(n * nz))
    return next(_certified(D, a, ((c, h0, h1),), "composed witness"))


# -- completed fibres ---------------------------------------------------


@dataclass
class DialFibre:
    """Bounded enumeration of one completed fibre with its order matrix."""

    I: FinObj
    quads: tuple
    rows: tuple
    total: int
    notes: tuple

    def leq(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def classes(self) -> tuple:
        """Partition into order-equivalence classes (the poset reflection):
        k joins the first class whose first index r has k <= r and r <= k
        in the rows, or starts one, so classes come in index order."""
        rows = self.rows
        seen = {}
        for k, row in enumerate(rows):
            for rep, members in seen.items():
                if row >> rep & 1 and rows[rep] >> k & 1:
                    members.append(k)
                    break
            else:
                seen[k] = [k]
        return tuple(map(tuple, seen.values()))


@dataclass
class PreorderReport:
    fibre: str
    quads: int
    reflexive_failures: tuple
    transitive_failures: tuple
    compositions_checked: int
    composition_failures: tuple
    notes: tuple

    @property
    def passed(self) -> bool:
        return not (self.reflexive_failures or self.transitive_failures
                    or self.composition_failures)


def enumerate_quads(D, I: FinObj, pool=None, quad_cap: int = DEFAULT_QUAD_CAP,
                    universe=None):
    """List quadruples (I, U, X, alpha) with U, X in the universe and
    alpha among the predicates ``pool(I*U*X)`` lists (default: all).

    A carrier whose listing overruns the cap is skipped, and over the
    quad cap the list is stride-sampled; notes record both.  The returned
    triple is (quads, total, notes).  A cap below 1 is a ValueError.
    """
    if quad_cap < 1:
        raise ValueError(f"quad_cap must be at least 1, got {quad_cap}")
    objs = tuple(universe) if universe is not None else tuple(D.universe)
    notes = []
    quads = []
    for U, X in itertools.product(objs, repeat=2):
        try:
            carrier = _carrier(D, I, U, X)
            alphas = D.fibre(carrier).elements() if pool is None else pool(carrier)
        except CapExceeded as exc:
            notes.append(f"quads over {I.name}*{U.name}*{X.name} skipped: {exc}")
            continue
        quads.extend(DialObject(I, U, X, alpha) for alpha in alphas)
    total = len(quads)
    if total > quad_cap:
        step = -(-total // quad_cap)
        quads = quads[::step]
        notes.append(f"quadruple list sampled every {step}th of {total}")
    return quads, total, notes


def build_dial_fibre(D, I: FinObj, quad_cap: int = DEFAULT_QUAD_CAP,
                     universe=None) -> DialFibre:
    """Enumerate quadruples and tabulate the dialectica order exhaustively
    on the listed ones (`D.order_rows`)."""
    quads, total, notes = enumerate_quads(D, I, quad_cap=quad_cap, universe=universe)
    return DialFibre(I, tuple(quads), tuple(D.order_rows(quads)), total, tuple(notes))


def check_preorder(D, fib: DialFibre, compositions: int = 64,
                   seed: int = 0) -> PreorderReport:
    """Reflexivity via explicit identity pairs and the matrix's diagonal
    (each failing index listed once), transitivity on the full matrix,
    each distinct row once (a row's failures depend only on its value,
    and the scan stops at the first row with any), and revalidated
    composition on sampled chains a <= b <= c, where a pair that fails to
    build or revalidate is a composition failure."""
    refl = []
    for k, q in enumerate(fib.quads):
        ok = fib.leq(k, k)
        try:
            identity_pair(D, q)
        except DoctrineError:
            ok = False
        if not ok:
            refl.append(k)
    rows = fib.rows
    n = len(rows)
    trans = []
    checked = set()
    for i, row in enumerate(rows):
        if row in checked:
            continue
        checked.add(row)
        trans = [(i, j, (rows[j] & ~row).bit_length() - 1)
                 for j in _members(row) if rows[j] & ~row]
        if trans:
            break
    # Sample composable triples i -> j -> k (i != j, j != k) without
    # repeats: rank them in (i, j, k) order, draw distinct ranks, and
    # locate each by bisection over the per-i prefix ends, then by walking
    # the links of i and of j.  links[i] holds the j != i above i and
    # reach[j] counts links[j]; grouping j by reach turns each i's count
    # of triples into one popcount per distinct reach.
    links = [row & ~(1 << i) for i, row in enumerate(rows)]
    reach = [m.bit_count() for m in links]
    with_reach = {}
    for j, c in enumerate(reach):
        with_reach[c] = with_reach.get(c, 0) | 1 << j
    ends = list(itertools.accumulate(
        sum(c * (m & js).bit_count() for c, js in with_reach.items()) for m in links))
    total = ends[-1] if ends else 0
    chains = []
    for r in sorted(random.Random(seed).sample(range(total), min(compositions, total))):
        i = bisect.bisect_right(ends, r)
        r -= ends[i - 1] if i else 0
        m = links[i]
        while True:
            j = (m & -m).bit_length() - 1
            if r < reach[j]:
                break
            r -= reach[j]
            m &= m - 1
        m = links[j]
        for _ in range(r):
            m &= m - 1
        chains.append((i, j, (m & -m).bit_length() - 1))
    comp_fail = []
    for (i, j, k) in chains:
        a, b, c = fib.quads[i], fib.quads[j], fib.quads[k]
        try:
            p = dial_leq(D, a, b)
            q = dial_leq(D, b, c)
            if p is None or q is None:
                comp_fail.append((i, j, k, "order matrix entry has no witness pair"))
                continue
            compose_pairs(D, a, b, c, p, q)
        except DoctrineError as exc:
            comp_fail.append((i, j, k, str(exc)))
    return PreorderReport(fib.I.name, n, tuple(refl), tuple(trans),
                          len(chains), tuple(comp_fail), fib.notes)


# -- the two characterisation checks -----------------------------------


@dataclass
class Theorem2Report:
    """Seeded samples comparing the doctrine order on prenex forms with
    the witness-pair order."""

    doctrine: str
    base: str
    checked: int
    seed: int
    mismatches: tuple
    notes: tuple

    @property
    def passed(self) -> bool:
        return not self.mismatches


def prenex_values(D, I, U, X, alphas) -> list:
    """The predicates over I presented by exists-u forall-x alpha, for
    each alpha over I*U*X: forall along the left projection of (I*U)*X,
    then exists along that of I*U, in one `D.chain_values` call."""
    p_iu = D.product(I, U)
    chain = ("forall", D.product(p_iu.obj, X).proj_left), ("exists", p_iu.proj_left)
    return D.chain_values(alphas, (chain,))[0]


def check_theorem2(D, analyzer, I: FinObj, samples: int = 200,
                   seed: int = 0) -> Theorem2Report:
    """On quantifier-free matrices the order between prenex forms in P(I)
    must coincide with the existence of a witness pair
    (`D.witness_exists`), sampled from each carrier's pool
    (`qfree_elements`, valued by `prenex_values`).  A carrier whose
    listing overruns the cap is noted as skipped.  Where no carrier pair
    has a quantifier-free matrix, nothing is sampled: the report checks
    none and keeps the skip notes."""
    rng = random.Random(seed)
    pools = {}
    notes = []
    for U, X in itertools.product(D.universe, repeat=2):
        try:
            qf = analyzer.qfree_elements(_carrier(D, I, U, X))
        except CapExceeded as exc:
            notes.append(f"{I.name}*{U.name}*{X.name} skipped: {exc}")
            continue
        if qf:
            pools[(U, X)] = tuple(zip(qf, prenex_values(D, I, U, X, qf)))
    keys = sorted(pools, key=lambda ux: (ux[0].name, ux[1].name))
    mismatches = []
    checked = max(samples, 0) if keys else 0
    for _ in range(checked):
        U, X = keys[rng.randrange(len(keys))]
        V, Y = keys[rng.randrange(len(keys))]
        psi, psi_value = pools[(U, X)][rng.randrange(len(pools[(U, X)]))]
        phi, phi_value = pools[(V, Y)][rng.randrange(len(pools[(V, Y)]))]
        a, b = DialObject(I, U, X, psi), DialObject(I, V, Y, phi)
        lhs = D.fibre(I).leq(psi_value, phi_value)
        rhs = D.witness_exists(a, b)
        if lhs != rhs:
            mismatches.append({
                "psi": a.to_json(D), "phi": b.to_json(D),
                "prenexOrder": lhs, "witnessPair": rhs,
            })
    return Theorem2Report(D.name, I.name, checked, seed,
                          tuple(mismatches), tuple(notes))


@dataclass
class Theorem4Report:
    """Per-fibre comparison of P(I) with the completed fibre over the
    quantifier-free subdoctrine, along alpha -> (I, U, X, alpha_D)."""

    doctrine: str
    base: str
    embedding_checked: int
    embedding_failures: tuple
    surjectivity_checked: int
    surjectivity_failures: tuple
    prenex_missing: tuple
    notes: tuple

    @property
    def passed(self) -> bool:
        return not (self.embedding_failures or self.surjectivity_failures
                    or self.prenex_missing)


def check_theorem4(D, analyzer, I: FinObj,
                   quad_cap: int = DEFAULT_QUAD_CAP) -> Theorem4Report:
    """The prenex presentation must embed P(I) into the completed fibre
    order-exactly (`D.order_rows`), and every quantifier-free quadruple
    must collapse back to the predicate its prenex form presents and be
    order-equivalent to that predicate's presentation (`qfree_elements`,
    `prenex_values` once per run of one carrier pair, and
    `D.witness_exists` both ways).  A predicate whose prenex search
    passed over a partner over the cap and found nothing is noted as
    skipped with the first such cap message, after the skipped
    quadruple carriers, as Theorem 2 notes the carriers it skips; only
    a search that saw every partner and found nothing is
    ``prenex_missing``."""
    fib = D.fibre(I)
    quads = {}
    missing = []
    capped = []
    for alpha in fib.elements():
        skipped = []
        w = analyzer.prenex(I, alpha, skipped)
        if w is None:
            if skipped:
                capped.append(f"prenex of {fib.describe(alpha)} over {I.name} "
                              f"skipped: {skipped[0]}")
            else:
                missing.append(fib.describe(alpha))
            continue
        quads[alpha] = DialObject(I, w.u_obj, w.x_obj, w.beta)
    keys = list(quads)
    up = fib.uppers(keys)
    emb_fail = []
    for a, row in zip(keys, D.order_rows(list(quads.values()))):
        above = up(a)
        for j in _members(above ^ row):
            emb_fail.append({
                "alpha": fib.describe(a),
                "beta": fib.describe(keys[j]),
                "fibreOrder": bool(above >> j & 1), "witnessPair": bool(row >> j & 1),
            })
    qf_quads, _, notes = enumerate_quads(D, I, pool=analyzer.qfree_elements,
                                         quad_cap=quad_cap)
    backs = []
    for _, run in itertools.groupby(qf_quads, lambda q: (q.U.name, q.X.name)):
        run = list(run)
        backs += prenex_values(D, I, run[0].U, run[0].X, [q.alpha for q in run])
    sur_fail = []
    for q, back in zip(qf_quads, backs):
        if back not in quads:
            sur_fail.append({"quad": q.to_json(D),
                             "reason": "prenex form missing for presented predicate"})
            continue
        qa = quads[back]
        if not (D.witness_exists(q, qa) and D.witness_exists(qa, q)):
            sur_fail.append({"quad": q.to_json(D),
                             "alpha": fib.describe(back),
                             "reason": "not order-equivalent to its collapse"})
    return Theorem4Report(D.name, I.name, len(quads) ** 2, tuple(emb_fail),
                          len(qf_quads), tuple(sur_fail), tuple(missing),
                          (*notes, *capped))
