"""Dialectica completion of a finite doctrine.

Objects of the completed fibre over I are quadruples (I, U, X, alpha)
with alpha a predicate over I*U*X: U carries witnesses, X carries
counterexamples.  One quadruple is below another when a pair of maps
(f0: I*U -> V, f1: I*U*Y -> X) transports witnesses forward and
counterexamples backward:

    alpha(i, u, f1(i, u, y)) <= beta(i, f0(i, u), y)

The doctrine decides the order: ``D.witness_tables`` finds a pair's
index tables, ``D.has_pair`` and ``D.order_rows`` decide without them.
The base class searches every pair; a concrete doctrine, since the
condition splits per slot (i, u), reads per-quadruple signatures.  A
pair is built only where it is used, and only here: by ``dial_leq`` for
CLI witness pairs and sampled compositions, by ``identity_pair`` for
reflexivity.  Every built pair is revalidated through the doctrine's own
reindexing and order (``D.pair_holds``), so a returned pair is a checked
certificate, and None means the exhaustive search ran dry.

Carriers such as I*U*X, built as (I*U)*X, come from the doctrine's
product table (``D.product``), built once each at ``D.cap``.  Products
enumerate the left factor slowest, so element ``(i, u, x)`` of I*U*X has
index ``(i * |U| + u) * |X| + x``, and every map this module builds
(revalidation, identity, composition) is computed on index tables by
that arithmetic and handed to ``FinMor`` as ``idx``.
"""
from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass

from .doctrine import DoctrineError, mor_json
from .fincat import CapExceeded, FinMor, FinObj

DEFAULT_QUAD_CAP = 512


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

    def to_json(self) -> dict:
        return {"f0": mor_json(self.f0), "f1": mor_json(self.f1)}


def _carrier(D, I: FinObj, U: FinObj, X: FinObj) -> FinObj:
    """I*U*X from the doctrine's product table, as (I*U)*X: the carrier
    ``identity_pair`` and ``prenex_order`` project from."""
    return D.product(D.product(I, U).obj, X).obj


def pair_is_valid(D, a: DialObject, b: DialObject, p: WitnessPair) -> bool:
    """Re-check the defining inequality through the doctrine itself:
    alpha pulled back along m1 below beta pulled back along m2, in the
    fibre over I*U*Y (`D.pair_holds`)."""
    if a.I != b.I:
        return False
    if p.f0.dom != D.product(a.I, a.U).obj or p.f0.cod != b.U:
        return False
    if p.f1.dom != _carrier(D, a.I, a.U, b.X) or p.f1.cod != a.X:
        return False
    return D.pair_holds(a, b, p.f0.idx, p.f1.idx)


def identity_pair(D, a: DialObject) -> WitnessPair:
    """The pair certifying a <= a: project the witness, project the
    counterexample (the right projections of I*U and (I*U)*X)."""
    iu = D.product(a.I, a.U)
    p = WitnessPair(iu.proj_right, D.product(iu.obj, a.X).proj_right)
    if not pair_is_valid(D, a, a, p):
        raise DoctrineError("identity pair failed revalidation")
    return p


def dial_leq(D, a: DialObject, b: DialObject):
    """The first witness pair D finds (`D.witness_tables`), built and
    revalidated, or None when the exhaustive search finds none."""
    if a.I != b.I:
        raise DoctrineError("dialectica order compares quadruples over one base")
    found = D.witness_tables(a, b)
    if found is None:
        return None
    iu = D.product(a.I, a.U).obj
    p = WitnessPair(FinMor(iu, b.U, idx=found[0]),
                    FinMor(D.product(iu, b.X).obj, a.X, idx=found[1]))
    if not pair_is_valid(D, a, b, p):
        raise DoctrineError("kernel witness pair failed revalidation")
    return p


def compose_pairs(D, a: DialObject, b: DialObject, c: DialObject,
                  p: WitnessPair, q: WitnessPair) -> WitnessPair:
    """Compose certificates a <= b and b <= c into one for a <= c:
    (i, u) goes to q.f0(i, p.f0(i, u)), and (i, u, z) to
    p.f1(i, u, q.f1(i, p.f0(i, u), z)), on index tables."""
    nu, nv, ny, nz = len(a.U), len(b.U), len(b.X), len(c.X)
    f0, f1, g0, g1 = p.f0.idx, p.f1.idx, q.f0.idx, q.f1.idx
    iu = D.product(a.I, a.U).obj
    iuz = _carrier(D, a.I, a.U, c.X)
    h0 = [g0[s // nu * nv + f0[s]] for s in range(len(iu))]
    h1 = [f1[t // nz * ny + g1[(t // nz // nu * nv + f0[t // nz]) * nz + t % nz]]
          for t in range(len(iuz))]
    out = WitnessPair(FinMor(iu, c.U, idx=h0), FinMor(iuz, a.X, idx=h1))
    if not pair_is_valid(D, a, c, out):
        raise DoctrineError("composed witness pair failed revalidation")
    return out


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
        """Partition into order-equivalence classes (the poset reflection)."""
        seen = {}
        for k in range(len(self.quads)):
            key = None
            for rep in seen:
                if self.leq(k, rep) and self.leq(rep, k):
                    key = rep
                    break
            seen.setdefault(key if key is not None else k, []).append(k)
        return tuple(tuple(v) for _, v in sorted(seen.items()))


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


def enumerate_quads(D, I: FinObj, matrices=None, quad_cap: int = DEFAULT_QUAD_CAP,
                    universe=None):
    """List quadruples (I, U, X, alpha) with U, X in the universe and
    alpha drawn from `matrices` (a filter on predicates; default all).

    Over the cap the list is stride-sampled and a note records the
    sampling; the returned triple is (quads, total, notes).  A cap
    below 1 is a ValueError.
    """
    if quad_cap < 1:
        raise ValueError(f"quad_cap must be at least 1, got {quad_cap}")
    objs = tuple(universe) if universe is not None else tuple(D.universe)
    notes = []
    quads = []
    total = 0
    for U in objs:
        for X in objs:
            try:
                carrier = _carrier(D, I, U, X)
                alphas = D.fibre(carrier).elements()
            except CapExceeded as exc:
                notes.append(f"quads over {I.name}*{U.name}*{X.name} skipped: {exc}")
                continue
            for alpha in alphas:
                if matrices is not None and not matrices(carrier, alpha):
                    continue
                total += 1
                quads.append(DialObject(I, U, X, alpha))
    if len(quads) > quad_cap:
        step = -(-len(quads) // quad_cap)
        quads = quads[::step]
        notes.append(
            f"quadruple list sampled every {step}th of {total}")
    return quads, total, notes


def build_dial_fibre(D, I: FinObj, quad_cap: int = DEFAULT_QUAD_CAP,
                     universe=None) -> DialFibre:
    """Enumerate quadruples and tabulate the dialectica order exhaustively
    on the listed ones (`D.order_rows`)."""
    quads, total, notes = enumerate_quads(D, I, quad_cap=quad_cap, universe=universe)
    return DialFibre(I, tuple(quads), tuple(D.order_rows(quads)), total, tuple(notes))


def check_preorder(D, fib: DialFibre, compositions: int = 64,
                   seed: int = 0) -> PreorderReport:
    """Reflexivity via explicit identity pairs, transitivity on the full
    matrix, and revalidated composition on sampled chains a <= b <= c."""
    refl = []
    for k, q in enumerate(fib.quads):
        try:
            identity_pair(D, q)
        except DoctrineError:
            refl.append(k)
        if not fib.leq(k, k):
            refl.append(k)
    trans = []
    n = len(fib.quads)
    for i in range(n):
        row = fib.rows[i]
        m = row
        while m:
            j = (m & -m).bit_length() - 1
            m &= m - 1
            if fib.rows[j] & ~row:
                k = (fib.rows[j] & ~row).bit_length() - 1
                trans.append((i, j, k))
        if trans:
            break
    # Sample composable triples i -> j -> k (i != j, j != k) without
    # repeats: rank them in (i, j, k) order, draw distinct ranks, and
    # locate each by bisection over the per-i prefix ends, then by walking
    # the links of i and of j.  links[i] holds the j != i above i and
    # reach[j] counts links[j]; grouping j by reach turns each i's count
    # of triples into one popcount per distinct reach.
    links = [row & ~(1 << i) for i, row in enumerate(fib.rows)]
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
        p = dial_leq(D, a, b)
        q = dial_leq(D, b, c)
        if p is None or q is None:
            comp_fail.append((i, j, k, "order matrix entry has no witness pair"))
            continue
        try:
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


def prenex_order(D, I, U, X, alpha):
    """The predicate over I presented by exists-u forall-x alpha, along
    the left projections of (I*U)*X and I*U, read through `D.along`."""
    iu = D.product(I, U)
    return D.along("exists", iu.proj_left)(
        D.along("forall", D.product(iu.obj, X).proj_left)(alpha))


def check_theorem2(D, analyzer, I: FinObj, samples: int = 200,
                   seed: int = 0) -> Theorem2Report:
    """On quantifier-free matrices the order between prenex forms in P(I)
    must coincide with the existence of a witness pair."""
    rng = random.Random(seed)
    pools = {}
    notes = []
    for U in D.universe:
        for X in D.universe:
            try:
                carrier = _carrier(D, I, U, X)
                qf = tuple(a for a in D.fibre(carrier).elements()
                           if analyzer.quantifier_free(carrier, a))
            except CapExceeded as exc:
                notes.append(f"{I.name}*{U.name}*{X.name} skipped: {exc}")
                continue
            if qf:
                pools[(U, X)] = qf
    keys = sorted(pools, key=lambda ux: (ux[0].name, ux[1].name))
    mismatches = []
    checked = 0
    for _ in range(samples):
        U, X = keys[rng.randrange(len(keys))]
        V, Y = keys[rng.randrange(len(keys))]
        psi = pools[(U, X)][rng.randrange(len(pools[(U, X)]))]
        phi = pools[(V, Y)][rng.randrange(len(pools[(V, Y)]))]
        a = DialObject(I, U, X, psi)
        b = DialObject(I, V, Y, phi)
        lhs = D.fibre(I).leq(prenex_order(D, I, U, X, psi),
                             prenex_order(D, I, V, Y, phi))
        rhs = D.has_pair(a, b)
        checked += 1
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
    order-exactly, and every quantifier-free quadruple must collapse back
    to the predicate its prenex form presents."""
    alphas = D.fibre(I).elements()
    quads = {}
    missing = []
    for alpha in alphas:
        w = analyzer.prenex(I, alpha)
        if w is None:
            missing.append(D.fibre(I).describe(alpha))
            continue
        quads[alpha] = DialObject(I, w.u_obj, w.x_obj, w.beta)
    emb_fail = []
    emb_checked = 0
    pairs = [(a, b) for a in quads for b in quads]
    for a, b in pairs:
        lhs = D.fibre(I).leq(a, b)
        rhs = D.has_pair(quads[a], quads[b])
        emb_checked += 1
        if lhs != rhs:
            emb_fail.append({
                "alpha": D.fibre(I).describe(a),
                "beta": D.fibre(I).describe(b),
                "fibreOrder": lhs, "witnessPair": rhs,
            })
    qf_quads, _, notes = enumerate_quads(D, I, matrices=analyzer.quantifier_free,
                                         quad_cap=quad_cap)
    sur_fail = []
    sur_checked = 0
    for q in qf_quads:
        back = prenex_order(D, q.I, q.U, q.X, q.alpha)
        sur_checked += 1
        if back not in quads:
            sur_fail.append({"quad": q.to_json(D),
                             "reason": "prenex form missing for presented predicate"})
            continue
        qa = quads[back]
        if not (D.has_pair(q, qa) and D.has_pair(qa, q)):
            sur_fail.append({"quad": q.to_json(D),
                             "alpha": D.fibre(I).describe(back),
                             "reason": "not order-equivalent to its collapse"})
    return Theorem4Report(D.name, I.name, emb_checked, tuple(emb_fail),
                          sur_checked, tuple(sur_fail), tuple(missing),
                          tuple(notes))
