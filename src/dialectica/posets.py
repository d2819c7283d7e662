"""Finite posets, each validated when it is built."""
from __future__ import annotations

from ._shape import ShapeError, check

# The shape of a frame in JSON: world labels, and (i, j) index pairs
# meaning world i lies below world j.
FRAME = {"elements": [str], "pairs": [[int]]}


class PosetError(Exception):
    pass


def _up_masks(n: int, pairs) -> list[int]:
    up = [0] * n
    for i, j in pairs:
        up[i] |= 1 << j
    return up


def poset_violations(n: int, up: list[int]) -> list[str]:
    """Reflexivity, antisymmetry and transitivity violations by index."""
    out = []
    for i in range(n):
        if not (up[i] >> i) & 1:
            out.append(f"not reflexive at {i}")
    for i in range(n):
        for j in range(n):
            if i != j and (up[i] >> j) & 1 and (up[j] >> i) & 1:
                if i < j:
                    out.append(f"antisymmetry fails on {i}, {j}")
    for i in range(n):
        mask = up[i]
        j = 0
        m = mask
        while m:
            if m & 1:
                if up[j] & ~mask:
                    out.append(f"transitivity fails through {i} <= {j}")
            j += 1
            m >>= 1
    return out


class FinitePoset:
    """Poset on labelled elements; the order is kept as up-set bitmasks.
    Each pair (i, j) gives two element indices, element i below element j."""

    __slots__ = ("elements", "up", "_index")

    def __init__(self, elements, pairs):
        self.elements = tuple(elements)
        self._index = {e: i for i, e in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise PosetError("duplicate elements")
        n = len(self.elements)
        pairs = list(pairs)
        for p in pairs:
            if len(p) != 2 or not (0 <= p[0] < n and 0 <= p[1] < n):
                raise PosetError(f"pair {list(p)} is not two indices below {n}")
        self.up = _up_masks(n, pairs)
        bad = poset_violations(n, self.up)
        if bad:
            raise PosetError("; ".join(bad[:5]))

    def index(self, x) -> int:
        return self._index[x]

    def leq_idx(self, i: int, j: int) -> bool:
        return bool((self.up[i] >> j) & 1)

    def leq(self, x, y) -> bool:
        return self.leq_idx(self._index[x], self._index[y])

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other):
        return (
            isinstance(other, FinitePoset)
            and self.elements == other.elements
            and self.up == other.up
        )

    def __hash__(self):
        return hash((self.elements, tuple(self.up)))

    def __repr__(self):
        return f"FinitePoset({len(self.elements)} elements)"

    def to_json(self) -> dict:
        pairs = []
        for i in range(len(self.elements)):
            m = self.up[i]
            j = 0
            while m:
                if m & 1:
                    pairs.append([i, j])
                j += 1
                m >>= 1
        return {"elements": list(self.elements), "pairs": pairs}

    @classmethod
    def from_json(cls, data) -> "FinitePoset":
        """The poset `to_json` writes; PosetError names a part not of `FRAME` shape."""
        try:
            check(data, FRAME, "")
        except ShapeError as exc:
            raise PosetError(str(exc)) from None
        return cls(data["elements"], data["pairs"])

    def shape_label(self) -> str:
        """Short tag for the order shape: chainN, antichainN, or posetN-Ke."""
        n = len(self.elements)
        strict = sum(bin(m).count("1") for m in self.up) - n
        if strict == 0:
            return f"antichain{n}"
        if strict == n * (n - 1) // 2:
            total = all(self.leq_idx(i, j) or self.leq_idx(j, i)
                        for i in range(n) for j in range(i + 1, n))
            if total:
                return f"chain{n}"
        return f"poset{n}-{strict}e"


def chain_poset(n: int) -> FinitePoset:
    els = [f"w{i}" for i in range(n)]
    return FinitePoset(els, [(i, j) for i in range(n) for j in range(i, n)])


def antichain_poset(n: int) -> FinitePoset:
    els = [f"w{i}" for i in range(n)]
    return FinitePoset(els, [(i, i) for i in range(n)])
