"""The bitmask kernels, in pure Python.

A predicate over an object with ``ne`` elements, interpreted at ``nw``
worlds, is one Python int: bit ``e * nw + w`` records whether element
``e`` satisfies the predicate at world ``w``.  Every kernel below works
on such masks; none of them assumes the masks fit a machine word.
"""
from __future__ import annotations

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
                 nv: int, ny: int, nw: int):
    """Search for (f0: IxU -> V, f1: IxUxY -> X) with
    alpha(i, u, f1(i, u, y)) <= beta(i, f0(i, u), y) at every world.

    The condition splits per (i, u), so each slot is solved independently:
    pick the first v admitting, for every y, some x whose alpha column is
    below the beta column.  Returns (f0, f1) as flat index tuples, with
    f0 indexed by ``i * nu + u`` and f1 by ``(i * nu + u) * ny + y``.
    """
    full = (1 << nw) - 1
    f0 = []
    f1 = []
    for i in range(ni):
        for u in range(nu):
            iu = i * nu + u
            acols = [(alpha >> ((iu * nx + x) * nw)) & full for x in range(nx)]
            found = -1
            rows = None
            for v in range(nv):
                row = []
                for y in range(ny):
                    bcol = (beta >> (((i * nv + v) * ny + y) * nw)) & full
                    pick = -1
                    for x in range(nx):
                        if acols[x] & ~bcol == 0:
                            pick = x
                            break
                    if pick < 0:
                        row = None
                        break
                    row.append(pick)
                if row is not None:
                    found = v
                    rows = row
                    break
            if found < 0:
                return None
            f0.append(found)
            f1.extend(rows)
    return tuple(f0), tuple(f1)
