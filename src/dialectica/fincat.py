"""Finite sets with chosen products and exponentials.

Elements are flat tuples of scalars, so binary products concatenate and are
strictly associative; the empty tuple is the unit.  Exponentials pack a
function table into a single FnEl scalar.  Every constructor checks the
size cap and enumeration orders are canonical, so morphism indices are
stable across runs.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

DEFAULT_CAP = 4096


class CapExceeded(Exception):
    pass


class CategoryError(Exception):
    pass


@dataclass(frozen=True)
class FnEl:
    """A finite function table usable as a tuple scalar."""

    pairs: tuple[tuple[tuple, tuple], ...]

    def __call__(self, arg: tuple) -> tuple:
        for a, v in self.pairs:
            if a == arg:
                return v
        raise CategoryError(f"argument {arg!r} outside the table")

    def __repr__(self):
        inner = ", ".join(f"{a}:{v}" for a, v in self.pairs)
        return f"{{{inner}}}"


class FinObj:
    """Finite set of tuple elements; equality ignores the display name."""

    __slots__ = ("name", "elements", "arity", "_index")

    def __init__(self, name: str, elements, arity: int | None = None):
        self.name = name
        self.elements = tuple(elements)
        for e in self.elements:
            if not isinstance(e, tuple):
                raise CategoryError(f"element {e!r} is not a tuple")
        if self.elements:
            arities = {len(e) for e in self.elements}
            if len(arities) != 1:
                raise CategoryError(f"mixed arities in {name}")
            self.arity = arities.pop()
        elif arity is None:
            raise CategoryError("empty object needs an explicit arity")
        else:
            self.arity = arity
        if len(set(self.elements)) != len(self.elements):
            raise CategoryError(f"duplicate elements in {name}")
        self._index = {e: i for i, e in enumerate(self.elements)}

    def index(self, el) -> int:
        return self._index[el]

    def __contains__(self, el):
        return el in self._index

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other):
        return isinstance(other, FinObj) and self.elements == other.elements

    def __hash__(self):
        return hash(self.elements)

    def __repr__(self):
        return f"FinObj({self.name}, {len(self.elements)} elements)"


def unit_obj() -> FinObj:
    return FinObj("1", ((),))


def fin_obj(name: str, labels) -> FinObj:
    return FinObj(name, tuple((l,) for l in labels))


class FinMor:
    """Map between finite objects, tabulated in domain enumeration order.

    ``idx`` holds the codomain index of the value at each domain element:
    the map as the index table that reindexing and the morphism encodings
    read.  ``table`` holds the values themselves.  A map is given by one
    of the two: ``FinMor(dom, cod, table)`` looks each value up in the
    codomain, ``FinMor(dom, cod, idx=...)`` range-checks each index and
    reads the values off only when ``table`` is first asked for.
    `preimages` inverts ``idx`` for the quantifiers, once per map.
    """

    __slots__ = ("dom", "cod", "_table", "idx", "_preimages")

    def __init__(self, dom: FinObj, cod: FinObj, table=None, idx=None):
        self.dom = dom
        self.cod = cod
        given = tuple(table) if idx is None else tuple(idx)
        if len(given) != len(dom.elements):
            raise CategoryError("table length does not match the domain")
        if idx is None:
            self._table = given
            index = cod._index
            try:
                self.idx = tuple([index[v] for v in given])
            except KeyError as exc:
                raise CategoryError(f"value {exc.args[0]!r} outside the codomain") from None
        else:
            if given and (min(given) < 0 or max(given) >= len(cod.elements)):
                raise CategoryError("index outside the codomain")
            self._table = None
            self.idx = given
        self._preimages = None

    @property
    def table(self) -> tuple:
        if self._table is None:
            self._table = tuple(map(self.cod.elements.__getitem__, self.idx))
        return self._table

    def preimages(self) -> tuple:
        """The domain indices over each codomain index, in domain order
        (empty where the map misses); built on first use and kept."""
        if self._preimages is None:
            fibs = [[] for _ in range(len(self.cod))]
            for d, c in enumerate(self.idx):
                fibs[c].append(d)
            self._preimages = tuple(map(tuple, fibs))
        return self._preimages

    def __call__(self, el):
        return self.table[self.dom.index(el)]

    def __eq__(self, other):
        return (
            isinstance(other, FinMor)
            and self.dom == other.dom
            and self.cod == other.cod
            and self.idx == other.idx
        )

    def __hash__(self):
        return hash((self.dom, self.cod, self.idx))

    def __repr__(self):
        return f"FinMor({self.dom.name} -> {self.cod.name})"


def identity(a: FinObj) -> FinMor:
    return FinMor(a, a, a.elements)


def compose(g: FinMor, f: FinMor) -> FinMor:
    """g after f."""
    if f.cod != g.dom:
        raise CategoryError("morphisms do not compose")
    return FinMor(f.dom, g.cod, tuple(g(v) for v in f.table))


@dataclass(frozen=True)
class Product:
    obj: FinObj
    left: FinObj
    right: FinObj
    proj_left: FinMor
    proj_right: FinMor

    def pair(self, f: FinMor, g: FinMor) -> FinMor:
        if f.dom != g.dom:
            raise CategoryError("pairing needs a common domain")
        if f.cod != self.left or g.cod != self.right:
            raise CategoryError("pairing components target the wrong factors")
        return FinMor(f.dom, self.obj, tuple(f(c) + g(c) for c in f.dom))


def product(a: FinObj, b: FinObj, cap: int = DEFAULT_CAP) -> Product:
    """Cartesian product in enumeration order with `a` as the slow index:
    element ``i * len(b) + j`` is ``a[i] + b[j]``."""
    n = len(a) * len(b)
    if n > cap:
        raise CapExceeded(f"product size {n} exceeds cap {cap}")
    obj = FinObj(
        f"{a.name}*{b.name}",
        tuple(x + y for x in a.elements for y in b.elements),
        arity=a.arity + b.arity,
    )
    nb = len(b)
    pl = FinMor(obj, a, idx=[s // nb for s in range(n)])
    pr = FinMor(obj, b, idx=[s % nb for s in range(n)])
    return Product(obj, a, b, pl, pr)


def product_n(objs, cap: int = DEFAULT_CAP) -> tuple[FinObj, list[FinMor]]:
    """Iterated product with all projections; one factor returns identity."""
    objs = list(objs)
    if not objs:
        u = unit_obj()
        return u, []
    n = 1
    for o in objs:
        n *= len(o)
        if n > cap:
            raise CapExceeded(f"product size {n} exceeds cap {cap}")
    name = "*".join(o.name for o in objs)
    elements = tuple(
        sum(combo, ()) for combo in itertools.product(*(o.elements for o in objs))
    )
    obj = FinObj(name, elements, arity=sum(o.arity for o in objs))
    projs = []
    offset = 0
    for o in objs:
        lo = offset
        hi = offset + o.arity
        projs.append(FinMor(obj, o, tuple(e[lo:hi] for e in elements)))
        offset = hi
    return obj, projs


@dataclass(frozen=True)
class Exponential:
    obj: FinObj
    base: FinObj
    exponent: FinObj
    ev_dom: FinObj
    ev: FinMor

    def curry(self, g: FinMor, c: FinObj) -> FinMor:
        """Transpose g : C x A -> B to C -> B^A."""
        expected = product(c, self.exponent, cap=len(c) * len(self.exponent)).obj
        if g.dom != expected or g.cod != self.base:
            raise CategoryError("curry source has the wrong shape")
        table = []
        for x in c.elements:
            vals = tuple((a, g(x + a)) for a in self.exponent.elements)
            table.append((FnEl(vals),))
        return FinMor(c, self.obj, tuple(table))


def exponential(b: FinObj, a: FinObj, cap: int = DEFAULT_CAP) -> Exponential:
    """B^A, enumerated as a big-endian odometer over the elements of A."""
    n = len(b) ** len(a)
    if n > cap:
        raise CapExceeded(f"exponential size {n} exceeds cap {cap}")
    elements = tuple(
        (FnEl(tuple(zip(a.elements, vals))),)
        for vals in itertools.product(b.elements, repeat=len(a))
    )
    obj = FinObj(f"{b.name}^{a.name}", elements, arity=1)
    prod = product(obj, a, cap=max(cap, len(obj) * len(a)))
    ev = FinMor(prod.obj, b, tuple(e[0](e[1:]) for e in prod.obj.elements))
    return Exponential(obj, b, a, prod.obj, ev)


def check_map_count(a: FinObj, b: FinObj, cap: int) -> None:
    """Raise CapExceeded when the maps A -> B are more than the cap."""
    n = len(b) ** len(a)
    if n > cap:
        raise CapExceeded(f"{n} morphisms exceed cap {cap}")


def enumerate_morphisms(a: FinObj, b: FinObj, cap: int = DEFAULT_CAP) -> list[FinMor]:
    """All maps A -> B in the canonical odometer order."""
    check_map_count(a, b, cap)
    return [
        FinMor(a, b, table) for table in itertools.product(b.elements, repeat=len(a))
    ]


def morphism_index(f: FinMor) -> int:
    """Rank of f within enumerate_morphisms(f.dom, f.cod)."""
    rank = 0
    nb = len(f.cod)
    for c in f.idx:
        rank = rank * nb + c
    return rank
