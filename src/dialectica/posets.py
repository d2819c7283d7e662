"""Finite posets and monotone maps, with validation separated from
construction so deliberately broken inputs can still be represented."""
from __future__ import annotations


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
    """Poset on labelled elements; the order is kept as up-set bitmasks."""

    __slots__ = ("elements", "up", "_index")

    def __init__(self, elements, pairs, validate: bool = True):
        self.elements = tuple(elements)
        self._index = {e: i for i, e in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise PosetError("duplicate elements")
        idx_pairs = []
        for a, b in pairs:
            if a in self._index and b in self._index:
                idx_pairs.append((self._index[a], self._index[b]))
            else:
                idx_pairs.append((int(a), int(b)))
        self.up = _up_masks(len(self.elements), idx_pairs)
        if validate:
            bad = poset_violations(len(self.elements), self.up)
            if bad:
                raise PosetError("; ".join(bad[:5]))

    def violations(self) -> list[str]:
        return poset_violations(len(self.elements), self.up)

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
    def from_json(cls, data: dict, validate: bool = True) -> "FinitePoset":
        return cls(tuple(data["elements"]), [tuple(p) for p in data["pairs"]], validate)

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


def chain_poset(n: int, prefix: str = "w") -> FinitePoset:
    els = [f"{prefix}{i}" for i in range(n)]
    return FinitePoset(els, [(i, j) for i in range(n) for j in range(i, n)])


def antichain_poset(n: int, prefix: str = "w") -> FinitePoset:
    els = [f"{prefix}{i}" for i in range(n)]
    return FinitePoset(els, [(i, i) for i in range(n)])


class MonotoneMap:
    """Order-preserving map between finite posets, tabulated by index."""

    __slots__ = ("dom", "cod", "table")

    def __init__(self, dom: FinitePoset, cod: FinitePoset, table, validate: bool = True):
        self.dom = dom
        self.cod = cod
        self.table = tuple(table)
        if len(self.table) != len(dom):
            raise PosetError("table length does not match the domain")
        if validate:
            bad = self.violations()
            if bad:
                raise PosetError("; ".join(bad[:5]))

    def violations(self) -> list[str]:
        out = []
        n = len(self.dom)
        for i in range(n):
            for j in range(n):
                if self.dom.leq_idx(i, j) and not self.cod.leq_idx(self.table[i], self.table[j]):
                    out.append(f"not monotone on {i} <= {j}")
        return out

    def __call__(self, x):
        return self.cod.elements[self.table[self.dom.index(x)]]

    def __eq__(self, other):
        return (
            isinstance(other, MonotoneMap)
            and self.dom == other.dom
            and self.cod == other.cod
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self.dom, self.cod, self.table))
