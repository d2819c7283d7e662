"""The bitmask kernels, in pure Python.

A predicate over an object with ``ne`` elements, interpreted at ``nw``
worlds, is one Python int: bit ``e * nw + w`` records whether element
``e`` satisfies the predicate at world ``w``.  Every kernel below works
on such masks; none of them assumes the masks fit a machine word.

A list of masks transposes into *planes* (`transpose`): one int per
carrier bit, whose bit ``j`` is that bit of mask ``j``.  Each kernel
acts on the carrier bit by bit, so its plane form (``*_planes``) acts on
every mask of the list at once, and its output is the transposition of
the kernel's outputs.  The OR of two plane lists' XORs (`differ`) is the
set of list positions where they disagree.
"""
from __future__ import annotations

import itertools

# perfbench prints BACKEND and counts kernel calls on masks over _WORD bits.
BACKEND = "pure"
_WORD = 64


def reindex_mask(alpha: int, fmap, nw: int) -> int:
    """Pull back a predicate along a map. ``fmap[d]`` is the codomain
    index each domain element lands on; ``alpha`` lives over the codomain."""
    full = (1 << nw) - 1
    out = 0
    for d, c in enumerate(fmap):
        out |= ((alpha >> (c * nw)) & full) << (d * nw)
    return out


def exists_image(alpha: int, fibs, nw: int) -> int:
    """Direct image: the output column at ``c`` is the union of the
    columns of ``alpha`` over the fibre ``fibs[c]``."""
    full = (1 << nw) - 1
    out = 0
    for c, ds in enumerate(fibs):
        col = 0
        for d in ds:
            col |= (alpha >> (d * nw)) & full
        out |= col << (c * nw)
    return out


def forall_preimage(alpha: int, fibs, nw: int) -> int:
    """Dual image: the output column at ``c`` is the intersection of the
    columns of ``alpha`` over the fibre ``fibs[c]`` (full when empty)."""
    full = (1 << nw) - 1
    out = 0
    for c, ds in enumerate(fibs):
        col = full
        for d in ds:
            col &= (alpha >> (d * nw)) & full
        out |= col << (c * nw)
    return out


def imp_mask(a: int, b: int, ne: int, nw: int, upmasks) -> int:
    """Pointwise implication: element ``e`` satisfies it at ``w`` when
    every later world in ``a``'s column also lies in ``b``'s column."""
    full = (1 << nw) - 1
    out = 0
    for e in range(ne):
        acol = (a >> (e * nw)) & full
        bcol = (b >> (e * nw)) & full
        col = 0
        for w in range(nw):
            if upmasks[w] & acol & ~bcol == 0:
                col |= 1 << w
        out |= col << (e * nw)
    return out


def uppers(ps, full: int, count=None):
    """x -> the bitmask of the j with ``x & ~ps[j] == 0``: the entries of
    ``ps`` that lie above x in the mask order.  With ``count``, ``ps`` are
    already the planes of ``count`` masks.

    Bit-sliced: one mask of the j per carrier bit that ``ps[j]`` lacks,
    so x misses exactly the j of the slices over x's set bits.  Masks
    with bits outside ``full`` are compared as they are.
    """
    if count is None:
        count = len(ps)
        ps = transpose(ps, full.bit_length())
    every = (1 << count) - 1
    lacks = {1 << k: every & ~p for k, p in enumerate(ps)}
    for k in range(len(ps), full.bit_length()):
        lacks[1 << k] = every
    width = (1 << len(lacks)) - 1

    def up(x: int) -> int:
        if x & ~width:
            return 0
        out = 0
        while x:
            low = x & -x
            out |= lacks[low]
            x ^= low
        return every & ~out
    return up


def transpose(rows, width: int) -> list:
    """The planes of the masks ``rows``: ``out[k]`` has bit ``j`` when
    ``rows[j]`` has bit ``k``, for k below ``width`` or the widest row.
    Planes of ``n`` masks transpose back with ``transpose(planes, n)``."""
    if rows:
        width = max(width, max(rows).bit_length())
    if not rows or not width:
        return [0] * width
    form = f"0{width}b"
    cols = zip(*[format(r, form) for r in reversed(rows)])
    return [int("".join(col), 2) for col in cols][::-1]


def differ(xs, ys) -> int:
    """The positions where two plane lists disagree: the OR of their XORs."""
    out = 0
    for x, y in itertools.zip_longest(xs, ys, fillvalue=0):
        out |= x ^ y
    return out


def exceeds(xs, ys) -> int:
    """The positions j where mask j of ``xs`` is not below mask j of ``ys``."""
    out = 0
    for x, y in itertools.zip_longest(xs, ys, fillvalue=0):
        out |= x & ~y
    return out


def meet_planes(xs, ys) -> list:
    return [x & y for x, y in itertools.zip_longest(xs, ys, fillvalue=0)]


def join_planes(xs, ys) -> list:
    return [x | y for x, y in itertools.zip_longest(xs, ys, fillvalue=0)]


def reindex_planes(planes, fmap, nw: int) -> list:
    """`reindex_mask` on planes: gather each domain element's planes from
    the codomain element it lands on."""
    return [planes[c * nw + w] for c in fmap for w in range(nw)]


def exists_planes(planes, fibs, nw: int) -> list:
    """`exists_image` on planes: OR the planes over each fibre, per world."""
    out = []
    for ds in fibs:
        for w in range(nw):
            col = 0
            for d in ds:
                col |= planes[d * nw + w]
            out.append(col)
    return out


def forall_planes(planes, fibs, nw: int, every: int) -> list:
    """`forall_preimage` on planes of the masks ``every`` marks: AND the
    planes over each fibre, per world (``every`` when the fibre is empty)."""
    out = []
    for ds in fibs:
        for w in range(nw):
            col = every
            for d in ds:
                col &= planes[d * nw + w]
            out.append(col)
    return out


def imp_planes(xs, ys, ne: int, nw: int, upmasks, every: int) -> list:
    """`imp_mask` on planes of the masks ``every`` marks: at (e, w), the
    AND over the worlds above w of ``~x | y``."""
    ups = [[v for v in range(nw) if upmasks[w] >> v & 1] for w in range(nw)]
    out = []
    for e in range(ne):
        ok = [every & ~(xs[e * nw + v] & ~ys[e * nw + v]) for v in range(nw)]
        for above in ups:
            col = every
            for v in above:
                col &= ok[v]
            out.append(col)
    return out


def lowers(ps, full: int):
    """x -> the bitmask of the j with ``ps[j] & ~x == 0``: `uppers` on
    the complements within ``full`` and every bit of ``ps``."""
    width = full
    for p in ps:
        width |= p
    up = uppers([width & ~p for p in ps], width)
    return lambda x: up(width & ~x)


def exists_gap_g(alpha: int, beta: int, na: int, nb: int, nw: int):
    """Find g: A -> B with alpha(a) <= beta(a, g(a)) pointwise, or None.
    ``beta`` lives over A x B with pair index ``a * nb + b``."""
    full = (1 << nw) - 1
    g = []
    for a in range(na):
        acol = (alpha >> (a * nw)) & full
        hit = -1
        for b in range(nb):
            bcol = (beta >> ((a * nb + b) * nw)) & full
            if acol & ~bcol == 0:
                hit = b
                break
        if hit < 0:
            return None
        g.append(hit)
    return tuple(g)


def forall_gap_g(alpha: int, beta: int, na: int, nb: int, nw: int):
    """Find g: A -> B with beta(a, g(a)) <= alpha(a) pointwise, or None."""
    full = (1 << nw) - 1
    g = []
    for a in range(na):
        acol = (alpha >> (a * nw)) & full
        hit = -1
        for b in range(nb):
            bcol = (beta >> ((a * nb + b) * nw)) & full
            if bcol & ~acol == 0:
                hit = b
                break
        if hit < 0:
            return None
        g.append(hit)
    return tuple(g)


def _supersets(col: int, nw: int) -> int:
    """Bitmask over the ``2**nw`` column values: bit ``c`` is set when
    ``col`` is a subset of ``c``.  Built one world at a time, doubling the
    value range: a world in ``col`` keeps only the upper half."""
    out = 1
    for w in range(nw):
        out = out << (1 << w) if (col >> w) & 1 else out | (out << (1 << w))
    return out


def order_signature(alpha: int, ni: int, nu: int, nx: int, nw: int):
    """Summarise a quadruple over I*U*X for the order of ``witness_pair``.

    Returns ``(left, right)``, each a tuple per ``i`` of one bitmask per
    ``u`` over the ``2**nw`` column values ``c``.  ``left[i][u]`` has bit
    ``c`` set when some ``x`` has ``alpha(i, u, x) <= c``: the columns a
    counterexample map can answer from slot (i, u) when this quadruple is
    the smaller one.  ``right[i][u]`` has bit ``c`` set for each column
    ``alpha(i, u, x)`` takes as ``x`` varies: what it must answer when it
    is the larger one.
    """
    full = (1 << nw) - 1
    sup = {}
    left = []
    right = []
    for i in range(ni):
        lrow = []
        rrow = []
        for u in range(nu):
            base = (i * nu + u) * nx
            lmask = 0
            rmask = 0
            for x in range(nx):
                col = (alpha >> ((base + x) * nw)) & full
                s = sup.get(col)
                if s is None:
                    s = sup[col] = _supersets(col, nw)
                lmask |= s
                rmask |= 1 << col
            lrow.append(lmask)
            rrow.append(rmask)
        left.append(tuple(lrow))
        right.append(tuple(rrow))
    return tuple(left), tuple(right)


def signature_leq(left_a, right_b) -> bool:
    """Whether ``witness_pair`` finds a pair, from the signatures alone:
    every slot (i, u) of ``a`` needs some ``v`` of ``b`` all of whose
    columns lie in ``left_a[i][u]``."""
    for lrow, rrow in zip(left_a, right_b):
        for lmask in lrow:
            for rmask in rrow:
                if rmask & ~lmask == 0:
                    break
            else:
                return False
    return True


def witness_pair(alpha: int, beta: int, ni: int, nu: int, nx: int,
                 nv: int, ny: int, nw: int, *, memo=None):
    """Search for (f0: IxU -> V, f1: IxUxY -> X) with
    alpha(i, u, f1(i, u, y)) <= beta(i, f0(i, u), y) at every world.

    The condition splits per (i, u), so each slot is solved independently:
    pick the first v admitting, for every y, some x whose alpha column is
    below the beta column.  Returns (f0, f1) as flat index tuples, with
    f0 indexed by ``i * nu + u`` and f1 by ``(i * nu + u) * ny + y``.

    A slot's answer depends only on its own columns of alpha, on row i
    of beta and on the shape, so it is kept in ``memo`` under
    ``(slot columns, beta row, nx, nv, ny, nw)``, each columns block read
    as one int: ``(v, picks)``, or ``()`` when no v admits the slot.  A
    memo shared across calls answers each distinct slot once.
    """
    memo = {} if memo is None else memo
    full = (1 << nw) - 1
    aw = nx * nw
    bw = nv * ny * nw
    amask = (1 << aw) - 1
    bmask = (1 << bw) - 1
    f0 = []
    f1 = []
    for i in range(ni):
        brow = (beta >> (i * bw)) & bmask
        for iu in range(i * nu, (i + 1) * nu):
            key = (alpha >> (iu * aw)) & amask, brow, nx, nv, ny, nw
            hit = memo.get(key)
            if hit is None:
                hit = memo[key] = _witness_slot(key[0], brow, nx, nv, ny, nw, full)
            if not hit:
                return None
            f0.append(hit[0])
            f1.extend(hit[1])
    return tuple(f0), tuple(f1)


def pair_holds(alpha: int, beta: int, f0, f1, nu: int, nx: int, nv: int, ny: int,
               nw: int) -> bool:
    """Whether the pair with index tables f0 and f1 (laid out as
    `witness_pair` returns them) has alpha(i, u, f1(i, u, y)) <=
    beta(i, f0(i, u), y) at every world, checked slot (i, u) by slot
    with neither pullback along the pair's maps built."""
    full = (1 << nw) - 1
    s = 0
    for t, v in enumerate(f0):
        row = (t // nu * nv + v) * ny
        for y in range(ny):
            acol = (alpha >> ((t * nx + f1[s]) * nw)) & full
            if acol & ~(beta >> ((row + y) * nw)):
                return False
            s += 1
    return True


def _witness_slot(acols: int, brow: int, nx: int, nv: int, ny: int, nw: int, full: int):
    """One slot of `witness_pair`: the first v, with the first x for each
    y, that answers the columns ``acols`` from the beta row ``brow``."""
    cols = [(acols >> (x * nw)) & full for x in range(nx)]
    for v in range(nv):
        picks = []
        for y in range(ny):
            bcol = (brow >> ((v * ny + y) * nw)) & full
            for x, col in enumerate(cols):
                if col & ~bcol == 0:
                    picks.append(x)
                    break
            else:
                break
        else:
            return v, tuple(picks)
    return ()
