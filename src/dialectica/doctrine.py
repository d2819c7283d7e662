"""Finite posetal doctrines over Kripke frames.

A doctrine here assigns to every finite carrier a poset of predicates,
with reindexing along maps and (where present) quantifier adjoints.  Two
implementations share one interface, the methods of `Doctrine`, whose
decisions are exhaustive searches there: `TabularDoctrine` replays fibres
and reindexing tables loaded from data and decides by those searches;
`ConcreteDoctrine` computes fibres of up-closed bitmask predicates and
overrides each decision with a closed form or kernel.  Each doctrine
owns its fibres (`D.fibre`) and its binary carrier products
(`D.product`), each built once at the doctrine's cap, so every audit,
scan and completion check over one doctrine shares one carrier, and one
set of projections, per shape.  It also keeps its values along maps
(`D.along`), each asked of its own method once, its passing law
verdicts, each decided once per index table, and, when concrete, the
order signature of each quadruple the Dialectica order reads.  On top
of both sit adjoint certification by the adjunction law, structural
audits, Beck-Chevalley checks, and a JSON exchange format.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import _kernels as K
from .fincat import (
    DEFAULT_CAP,
    CapExceeded,
    CategoryError,
    FinMor,
    FinObj,
    Product,
    check_map_count,
    enumerate_morphisms,
    exponential,
    fin_obj,
    identity,
    morphism_index,
    product,
    unit_obj,
)
from ._shape import SCALAR, ShapeError, check
from .posets import FRAME, FinitePoset, PosetError, poset_violations

# Sample bounds of the audits (top and bottom, lattice-law triples,
# reindexing pairs, predicates per Beck-Chevalley square) and the largest
# fibre whose lattice tables are serialised.  A fibre's order needs no
# audit: it is a partial order when the fibre is built.
ORDER_SAMPLE = 64
TRIPLE_SAMPLE = 24
PAIR_SAMPLE = 256
PRED_SAMPLE = 4096
HEYTING_TABLE_CAP = 64

# The shape of the JSON `doctrine_to_json` writes, the only one read back
# (see `_shape`), and the top-level keys that a generator file must
# record as regenerated.
DOCTRINE = {
    "?name": str, "?kind": str, "?notes": [str], "?frame": FRAME,
    "?generator": {"kind": str, "sizes": [int], "?frame": FRAME},
    "?universe": [{"name": str, "?arity": int, "elements": [[SCALAR]]}],
    "?fibres": {"*": {"elements": [str], "leq": [[int]]}},
    "?heyting": {"*": {"top": int, "bottom": int, "meet": [[int]], "join": [[int]],
                       "imp": [[int]]}},
    "?reindex": {"*": [int]}}
TABLE_KEYS = ("frame", "universe", "fibres", "heyting", "reindex")


class DoctrineError(Exception):
    pass


class DoctrineDataError(DoctrineError):
    pass


class AdjointMissing(DoctrineError):
    """A requested quantifier value does not exist in the fibre."""

    def __init__(self, direction: str, along: str, alpha):
        self.direction = direction
        self.along = along
        self.alpha = alpha
        super().__init__(f"no {direction} value along {along}")


def mor_key(f: FinMor) -> str:
    return f"{f.dom.name}->{f.cod.name}#{morphism_index(f)}"


def mor_json(f: FinMor) -> dict:
    """A morphism as its key and its table of codomain indices."""
    return {"mor": mor_key(f), "table": list(f.idx)}


def mor_from_key(key: str, by_name: dict) -> FinMor:
    """Rebuild a morphism from its key, written as `mor_key` writes it (so
    two keys name two morphisms), against objects keyed by name."""
    names, _, idx_text = key.rpartition("#")
    dom_name, arrow, cod_name = names.partition("->")
    if not (arrow and idx_text.isdecimal() and str(int(idx_text)) == idx_text):
        raise DoctrineDataError(f"malformed morphism key {key!r}")
    idx = int(idx_text)
    if dom_name not in by_name or cod_name not in by_name:
        raise DoctrineDataError(f"morphism key {key!r} names unknown objects")
    dom, cod = by_name[dom_name], by_name[cod_name]
    na, nb = len(dom), len(cod)
    if nb == 0 and na > 0:
        raise DoctrineDataError(f"no morphisms {dom_name} -> {cod_name}")
    if (na and idx >= nb**na) or (not na and idx):
        raise DoctrineDataError(f"morphism index out of range in {key!r}")
    digits = []
    for i in range(na):
        digits.append((idx // nb ** (na - 1 - i)) % nb)
    return FinMor(dom, cod, tuple(cod.elements[d] for d in digits))


def _el_label(e: tuple) -> str:
    if not e:
        return "*"
    return ".".join(str(x) for x in e)


def up_columns(upmasks, nw: int) -> list:
    """The column values over ``nw`` worlds that are up-sets of the frame
    whose up-set masks are ``upmasks``, in increasing order."""
    return [m for m in range(1 << nw) if all(
        upmasks[w] & ~m == 0 for w in range(nw) if (m >> w) & 1
    )]


class MaskFibre:
    """Up-closed predicates over one carrier, held as bitmask ints.

    Bit ``e * nw + w`` says element ``e`` satisfies the predicate at
    world ``w``.  Order is mask inclusion; the lattice operations are
    bitwise, with implication via the frame's up-sets.
    """

    has_heyting = True

    __slots__ = ("obj", "nw", "upmasks", "worlds", "full", "cap", "_elements", "_index")

    def __init__(self, obj: FinObj, nw: int, upmasks, worlds, cap: int):
        self.obj = obj
        self.nw = nw
        self.upmasks = tuple(upmasks)
        self.worlds = tuple(worlds)
        self.full = (1 << (len(obj) * nw)) - 1 if len(obj) else 0
        self.cap = cap
        self._elements = None
        self._index = None

    def count(self) -> int:
        """The number of predicates, found without listing them; over the
        cap it raises the CapExceeded that `elements` raises."""
        count = len(up_columns(self.upmasks, self.nw)) ** len(self.obj)
        if count > self.cap:
            raise CapExceeded(
                f"fibre over {self.obj.name} has {count} predicates; cap {self.cap}"
            )
        return count

    def elements(self) -> tuple:
        if self._elements is None:
            self.count()
            nw = self.nw
            cols = up_columns(self.upmasks, nw)
            out = []
            for combo in itertools.product(cols, repeat=len(self.obj)):
                mask = 0
                for e, col in enumerate(combo):
                    mask |= col << (e * nw)
                out.append(mask)
            self._elements = tuple(out)
            self._index = {m: i for i, m in enumerate(self._elements)}
        return self._elements

    def index(self, mask: int) -> int:
        self.elements()
        return self._index[mask]

    def leq(self, a: int, b: int) -> bool:
        return a & ~b == 0

    def uppers(self, ps):
        """x -> the bitmask of the j with ``leq(x, ps[j])``."""
        return K.uppers(ps, self.full)

    def lowers(self, ps):
        """x -> the bitmask of the j with ``leq(ps[j], x)``."""
        return K.lowers(ps, self.full)

    def top(self) -> int:
        return self.full

    def bottom(self) -> int:
        return 0

    def meet(self, a: int, b: int) -> int:
        return a & b

    def join(self, a: int, b: int) -> int:
        return a | b

    def imp(self, a: int, b: int) -> int:
        return K.imp_mask(a, b, len(self.obj), self.nw, self.upmasks)

    def describe(self, mask: int) -> str:
        colmask = (1 << self.nw) - 1
        parts = []
        for e, el in enumerate(self.obj.elements):
            col = (mask >> (e * self.nw)) & colmask
            if col == 0:
                continue
            if col == colmask:
                parts.append(_el_label(el))
            else:
                ws = ",".join(self.worlds[w] for w in range(self.nw) if (col >> w) & 1)
                parts.append(f"{_el_label(el)}@{ws}")
        return "{" + ", ".join(parts) + "}"


@dataclass(frozen=True)
class HeytingTables:
    top: int
    bottom: int
    meet: tuple
    join: tuple
    imp: tuple


class PosetFibre:
    """Fibre given by an explicit order on labelled predicates, held as
    one up-set mask per predicate and checked to be a partial order when
    built, as a frame is; `count` and `elements` honour the cap as
    `MaskFibre`'s do."""

    __slots__ = ("obj", "labels", "up", "heyting", "cap")

    def __init__(self, obj: FinObj, labels, up, heyting: HeytingTables | None = None,
                 cap: int = DEFAULT_CAP):
        self.obj = obj
        self.labels = tuple(labels)
        self.up = list(up)
        self.heyting = heyting
        self.cap = cap
        if len(self.up) != len(self.labels):
            raise DoctrineDataError(f"fibre over {obj.name}: order rows do not match labels")
        bad = poset_violations(len(self.up), self.up)
        if bad:
            raise DoctrineDataError(f"fibre over {obj.name}: {bad[0]}")

    @property
    def has_heyting(self) -> bool:
        return self.heyting is not None

    def count(self) -> int:
        count = len(self.labels)
        if count > self.cap:
            raise CapExceeded(
                f"fibre over {self.obj.name} has {count} predicates; cap {self.cap}"
            )
        return count

    def elements(self) -> tuple:
        return tuple(range(self.count()))

    def index(self, a: int) -> int:
        return a

    def leq(self, a: int, b: int) -> bool:
        return bool((self.up[a] >> b) & 1)

    def uppers(self, ps):
        """x -> the bitmask of the j with ``leq(x, ps[j])``: x lies below
        ps[j] exactly when ps[j]'s up-set lies inside x's."""
        up = self.up
        below = K.lowers([up[p] for p in ps], (1 << len(up)) - 1)
        return lambda x: below(up[x])

    def lowers(self, ps):
        """x -> the bitmask of the j with ``leq(ps[j], x)``: x's up-set
        lies inside ps[j]'s."""
        up = self.up
        above = K.uppers([up[p] for p in ps], (1 << len(up)) - 1)
        return lambda x: above(up[x])

    def _need(self):
        if self.heyting is None:
            raise DoctrineDataError(f"fibre over {self.obj.name} carries no lattice tables")

    def top(self) -> int:
        self._need()
        return self.heyting.top

    def bottom(self) -> int:
        self._need()
        return self.heyting.bottom

    def meet(self, a: int, b: int) -> int:
        self._need()
        return self.heyting.meet[a][b]

    def join(self, a: int, b: int) -> int:
        self._need()
        return self.heyting.join[a][b]

    def imp(self, a: int, b: int) -> int:
        self._need()
        return self.heyting.imp[a][b]

    def describe(self, a: int) -> str:
        return self.labels[a]


# The method `Doctrine.along` asks for each op on a miss.
_ALONG = {"reindex": "reindex_el", "exists": "exists_along", "forall": "forall_along"}


class Doctrine:
    """What both kinds of doctrine share: their carrier products, their
    values along maps, each kept once per doctrine, and the decisions.

    ``D.product(a, b)`` keys each product by its factors' names, arities
    and the factors themselves (their elements, by a kept hash): `FinObj`
    equality ignores names, but a product's name (``A*B``) reaches the
    output.  A kept product keeps its projections, and so their preimage
    lists.  A product over the cap raises CapExceeded and is not kept.

    ``D.along(op, f)`` reads the pullback ("reindex") or quantifier
    ("exists", "forall") along f, predicate by predicate, from one dict
    on D keyed by ``D._table_key(f)``: all that a value along f depends
    on.  Each value is asked of D's own method once and kept, and so is
    its absence (`AdjointMissing`).

    ``D._passed`` keeps the law audits' passing verdicts (`adjoint_along`,
    `beck_chevalley`, `check_doctrine`'s reindexing laws), keyed by the
    audit, ``D._table_key`` of its maps and ``D._carrier_key`` of any
    other carrier it reads, as plain tuples.  A failure is never kept, so
    each failing map is scanned and named on its own.  A Beck-Chevalley
    square, or a composite's functoriality, is kept as ``(whole,)``:
    whether it held on every predicate, as a verdict derived from it by
    `beck_chevalley` needs.  ``D._factors(f)`` names two maps met before
    f whose composite has f's table; here none, as a table replay keys
    its verdicts by map and derives none.

    Each decision is a method whose body here is the exhaustive search:
    table replays decide by it, and tests call it as the oracle of the
    kernels that `ConcreteDoctrine` overrides it with.  ``pointwise``
    says the quantifiers act on each point of the base separately, so
    `freeness` reads verdicts per column, and `principles` reads each
    rule's carrier pair, or Skolemisation's block, over a wide base from
    the table of its one-point pair or block.  That is taken on trust: a
    doctrine that sets it must compute every pullback and quantifier
    along a wide projection point by point.
    """

    pointwise = False
    closure_note = "closure judged by carrier equality against the declared universe"

    def product(self, a: FinObj, b: FinObj) -> Product:
        key = (a.name, a.arity, a, b.name, b.arity, b)
        hit = self._products.get(key)
        if hit is None:
            hit = self._products[key] = product(a, b, self.cap)
        return hit

    def _carrier_key(self, obj: FinObj):
        """All that a law verdict reads of a carrier besides its maps."""
        return obj.name, obj.arity, obj.elements

    def along(self, op: str, f: FinMor):
        """alpha -> the value of ``op`` along f at alpha.  The reader
        holds D's kept values, but D holds no reader, so a finished
        doctrine is freed by reference counting alone."""
        ask = getattr(self, _ALONG[op])
        values = self._along.setdefault((op, self._table_key(f)), {})

        def read(alpha):
            value = values.get(alpha)
            if value is None:
                try:
                    value = ask(f, alpha)
                except AdjointMissing:
                    value = AdjointMissing
                values[alpha] = value
            if value is AdjointMissing:
                raise AdjointMissing(op, mor_key(f), alpha)
            return value
        return read

    def exists_along(self, f: FinMor, alpha):
        return self._search("exists", f, alpha)

    def forall_along(self, f: FinMor, alpha):
        return self._search("forall", f, alpha)

    def _search(self, direction: str, f: FinMor, alpha):
        """The least b over f's codomain with alpha <= f*b ("exists"),
        or the greatest with f*b <= alpha ("forall"), searched over f's
        pullbacks read through `along`; AdjointMissing when there is
        none."""
        dom, cod, pull = self.fibre(f.dom), self.fibre(f.cod), self.along("reindex", f)
        if direction == "exists":
            cands = [b for b in cod.elements() if dom.leq(alpha, pull(b))]
            best = next((b for b in cands if all(cod.leq(b, c) for c in cands)), None)
        else:
            cands = [b for b in cod.elements() if dom.leq(pull(b), alpha)]
            best = next((b for b in cands if all(cod.leq(c, b) for c in cands)), None)
        if best is None:
            raise AdjointMissing(direction, mor_key(f), alpha)
        return best

    def in_base(self, obj: FinObj) -> bool:
        """Whether obj is a carrier of the base: here, of the universe."""
        return obj in self.universe

    def choice_index(self, kind: str, A, B, p, alpha, beta):
        """The index table of the first g: A -> B, in `enumerate_morphisms`
        order, whose graph realises the cover (`graph_ok`); None when no
        map does.  The decision alone: the candidates are index tuples,
        and no map A -> B is built or revalidated."""
        check_map_count(A, B, self.cap)
        for g_idx in itertools.product(range(len(B)), repeat=len(A)):
            if self.graph_ok(kind, A, p, alpha, beta, g_idx):
                return g_idx
        return None

    def choice_map(self, kind: str, A, B, p, alpha, beta, g_idx) -> FinMor:
        """The map g: A -> B with the index table ``g_idx`` that
        `choice_index` decided for the cover, built once its graph is
        revalidated through the doctrine's reindexing and order; a
        missing table (None) fails revalidation."""
        if g_idx is None or not self.graph_ok(kind, A, p, alpha, beta, g_idx):
            raise DoctrineError("choice map failed revalidation")
        return FinMor(A, B, idx=g_idx)

    def graph_ok(self, kind: str, A, p, alpha, beta, g_idx) -> bool:
        """Whether the graph of g (given by its index table) pulls beta
        back above alpha ("existential") or below it ("universal"); the
        graph ``a -> (a, g a)`` into ``p.obj`` is index ``a * nb + g[a]``,
        and the pullback is read through `along`."""
        nb = len(p.right)
        graph = FinMor(A, p.obj, idx=[a * nb + g for a, g in enumerate(g_idx)])
        pulled = self.along("reindex", graph)(beta)
        fib_a = self.fibre(A)
        if kind == "existential":
            return fib_a.leq(alpha, pulled)
        return fib_a.leq(pulled, alpha)

    # The Dialectica order (`dial`) on quadruples a = (I, U, X, alpha)
    # and b = (I, V, Y, beta), with alpha over (I*U)*X, read from their
    # fields ``.I .U .X .alpha``.

    def witness_tables(self, a, b):
        """The index tables (f0, f1) of the first pair, in `enumerate_morphisms`
        order, that takes a below b (`pair_holds`), or None.  The
        candidates are index tuples; the f1 tables are listed once."""
        iu = self.product(a.I, a.U).obj
        iuy = self.product(iu, b.X).obj
        check_map_count(iu, b.U, DEFAULT_CAP)
        f0s = list(itertools.product(range(len(b.U)), repeat=len(iu)))
        if not f0s:
            return None
        check_map_count(iuy, a.X, DEFAULT_CAP)
        f1s = list(itertools.product(range(len(a.X)), repeat=len(iuy)))
        for f0 in f0s:
            for f1 in f1s:
                if self.pair_holds(a, b, f0, f1):
                    return f0, f1
        return None

    def pair_holds(self, a, b, f0, f1) -> bool:
        """Whether the pair with index tables f0: I*U -> V and
        f1: I*U*Y -> X takes a below b: alpha pulled back along m1 lies
        below beta pulled back along m2 in the fibre over I*U*Y.  Here
        m1 and m2 are built as maps (`_pair_maps`), since a table replay
        reads its reindexing off the map; `ConcreteDoctrine` reads the
        index tables alone and builds no map."""
        m1, m2 = self._pair_maps(a, b, f0, f1)
        return self.fibre(m1.dom).leq(self.reindex_el(m1, a.alpha),
                                      self.reindex_el(m2, b.alpha))

    def _pair_tables(self, a, b, f0, f1):
        """The index tables of m1 = (i, u, f1(i, u, y)) into I*U*X and
        m2 = (i, f0(i, u), y) into I*V*Y, both out of I*U*Y.  With
        s = (i * |U| + u) * |Y| + y, m1 sends s to ``s // |Y| * |X| + f1[s]``
        and m2 to ``(i * |V| + f0[s // |Y|]) * |Y| + y``."""
        nu, nx, nv, ny = a.U.size, a.X.size, b.U.size, b.X.size
        cells = range(a.I.size * nu * ny)
        return ([s // ny * nx + f1[s] for s in cells],
                [(s // (nu * ny) * nv + f0[s // ny]) * ny + s % ny for s in cells])

    def _pair_maps(self, a, b, f0, f1):
        """m1 and m2 of `_pair_tables` as maps between D's products."""
        prod = self.product
        iu = prod(a.I, a.U).obj
        iuy = prod(iu, b.X).obj
        m1, m2 = self._pair_tables(a, b, f0, f1)
        return (FinMor(iuy, prod(iu, a.X).obj, idx=m1),
                FinMor(iuy, prod(prod(a.I, b.U).obj, b.X).obj, idx=m2))

    def _factors(self, f: FinMor):
        """Two maps (h, g), met before f, whose composite g∘h has f's
        table and key; None, since verdicts keyed by map derive none."""
        return None

    def has_pair(self, a, b) -> bool:
        """Whether a <= b, for a and b over one base, building no pair."""
        return self.witness_tables(a, b) is not None

    def order_rows(self, quads) -> list:
        """The order on quads as one row per quadruple: bit j of row i
        is set when `witness_tables` takes quads[i] below quads[j]."""
        return [sum(1 << j for j, b in enumerate(quads)
                    if self.witness_tables(a, b) is not None) for a in quads]


class ConcreteDoctrine(Doctrine):
    """Doctrine of up-closed predicates over a Kripke frame.

    Carriers are constant along the frame, so reindexing is preimage
    along the map's `idx`, the left adjoint along any map is direct
    image per world, and the right adjoint is intersection over the
    map's preimage lists (`FinMor.preimages`, built once per map).
    Fibres exist for every finite carrier, not only the declared
    universe; the universe fixes what the audits quantify over.  Each
    decision is a bitmask kernel (`_kernels`) that gives the base
    class's search's answer.  The order's signatures are kept in
    ``D._sigs``, next to ``_along`` and ``_passed``, so every check and
    fibre over D computes each quadruple's once.  A witness pair is
    revalidated on index tables: `pair_holds` pulls both matrices back
    along the tables of `_pair_tables` by the reindexing kernel and
    compares them in the mask order, building no map and looking up no
    product.  Law verdicts are keyed by index table, so `_factors` finds
    a table's factorisations among the tables met before it.
    """

    kind = "concrete"
    pointwise = True
    closure_note = "base is finite carriers; products and exponentials are constructed"

    def __init__(self, name: str, frame: FinitePoset, universe, cap: int = DEFAULT_CAP,
                 generator: dict | None = None):
        self.name = name
        self.frame = frame
        self.nw = len(frame)
        self.universe = tuple(universe)
        self.cap = cap
        self.generator = generator
        self._fibres: dict[tuple, MaskFibre] = {}
        self._products: dict = {}
        self._along: dict = {}
        self._passed: dict = {}
        self._sigs: dict = {}
        self._met: dict = {}
        self._composites: dict = {}

    def fibre(self, obj: FinObj) -> MaskFibre:
        """The fibre over obj, kept per name as well as carrier (`FinObj`
        equality ignores names), so a cap overrun names the carrier that
        was asked for."""
        key = obj.name, obj
        fib = self._fibres.get(key)
        if fib is None:
            fib = MaskFibre(obj, self.nw, self.frame.up, self.frame.elements, self.cap)
            self._fibres[key] = fib
        return fib

    def _table_key(self, f: FinMor):
        """A value along f depends only on f's index table and the size
        of its codomain, so maps with one table share their values."""
        return f.idx, len(f.cod)

    def _carrier_key(self, obj: FinObj):
        """A fibre depends only on its carrier's size."""
        return len(obj)

    def _factors(self, f: FinMor):
        """The first pair (h, g) of maps met before f whose composite g∘h
        has f's table, or None when f's table is a generator.  A table is
        met with its first map; ``_met`` keeps each met table's first map
        and factors, and ``_composites`` the first factors of each
        composite of two met tables, by table key."""
        key = self._table_key(f)
        hit = self._met.get(key)
        if hit is not None:
            return hit[1]
        comp = self._composites
        factors = comp.get(key)
        self._met[key] = f, factors
        fi, m, n = f.idx, f.dom.size, f.cod.size
        for h, _ in self._met.values():
            hi = h.idx
            if h.cod.size == m:
                comp.setdefault((tuple([fi[v] for v in hi]), n), (h, f))
            if h.dom.size == n:
                comp.setdefault((tuple([hi[v] for v in fi]), h.cod.size), (f, h))
        return factors

    def reindex_el(self, f: FinMor, alpha: int) -> int:
        return K.reindex_mask(alpha, f.idx, self.nw)

    def exists_along(self, f: FinMor, alpha: int) -> int:
        return K.exists_image(alpha, f.preimages(), self.nw)

    def forall_along(self, f: FinMor, alpha: int) -> int:
        return K.forall_preimage(alpha, f.preimages(), self.nw)

    def morphisms(self, a: FinObj, b: FinObj) -> list[FinMor]:
        return enumerate_morphisms(a, b, self.cap)

    def in_base(self, obj: FinObj) -> bool:
        return True

    def choice_index(self, kind: str, A, B, p, alpha: int, beta: int):
        search = K.exists_gap_g if kind == "existential" else K.forall_gap_g
        return search(alpha, beta, len(A), len(B), self.nw)

    def witness_tables(self, a, b):
        return K.witness_pair(a.alpha, b.alpha, a.I.size, a.U.size, a.X.size,
                              b.U.size, b.X.size, self.nw)

    def pair_holds(self, a, b, f0, f1) -> bool:
        m1, m2 = self._pair_tables(a, b, f0, f1)
        nw = self.nw
        return K.reindex_mask(a.alpha, m1, nw) & ~K.reindex_mask(b.alpha, m2, nw) == 0

    def _signature(self, q):
        """q's order signature, kept in ``D._sigs`` by the kernel's arguments."""
        args = (q.alpha, len(q.I), len(q.U), len(q.X), self.nw)
        hit = self._sigs.get(args)
        if hit is None:
            hit = self._sigs[args] = K.order_signature(*args)
        return hit

    def has_pair(self, a, b) -> bool:
        return K.signature_leq(self._signature(a)[0], self._signature(b)[1])

    def order_rows(self, quads) -> list:
        """One signature per quadruple, and each cell from two of them."""
        pairs = [self._signature(q) for q in quads]
        rights = [right for _, right in pairs]
        leq = K.signature_leq
        return [sum(1 << j for j, right in enumerate(rights) if leq(left, right))
                for left, _ in pairs]


class TabularDoctrine(Doctrine):
    """Doctrine replayed from explicit fibre and reindexing tables.

    Every decision is the base class's search over the recorded order,
    so `exists_along`/`forall_along` raise `AdjointMissing` when the
    fibre has no least (greatest) admissible value.  Only the morphisms
    with recorded tables exist from this doctrine's point of view.
    """

    kind = "tabular"
    # in the class body, so that tracing by class and name finds them
    exists_along = Doctrine.exists_along
    forall_along = Doctrine.forall_along

    def __init__(self, name: str, universe, fibres: dict, reindex: dict,
                 cap: int = DEFAULT_CAP, generator: dict | None = None):
        self.name = name
        self.universe = tuple(universe)
        self.cap = cap
        self.frame = None
        self.generator = generator
        self._fibres = dict(fibres)
        self._reindex = dict(reindex)
        self._products: dict = {}
        self._along: dict = {}
        self._passed: dict = {}
        for f, table in self._reindex.items():
            nc = len(self.fibre(f.cod).labels)
            nd = len(self.fibre(f.dom).labels)
            if len(table) != nc or any(v < 0 or v >= nd for v in table):
                raise DoctrineDataError(f"reindex table for {mor_key(f)} is malformed")

    def _table_key(self, f: FinMor):
        """A value along f is read off f's own recorded table."""
        return f

    def fibre(self, obj: FinObj):
        fib = self._fibres.get(obj)
        if fib is None:
            raise DoctrineDataError(f"no fibre recorded over {obj.name}")
        return fib

    def reindex_el(self, f: FinMor, alpha: int) -> int:
        table = self._reindex.get(f)
        if table is None:
            raise DoctrineDataError(f"no reindex table for {mor_key(f)}")
        return table[alpha]

    def morphisms(self, a: FinObj, b: FinObj) -> list[FinMor]:
        out = [f for f in self._reindex if f.dom == a and f.cod == b]
        out.sort(key=morphism_index)
        return out


def powerset_doctrine(sizes=(2, 2), name: str | None = None,
                      cap: int = DEFAULT_CAP) -> ConcreteDoctrine:
    """Subset doctrine over finite carriers: one world, all predicates."""
    frame = FinitePoset(("w0",), [(0, 0)])
    universe = _lettered_universe(sizes)
    label = name or "powerset-" + "x".join(str(s) for s in sizes)
    return ConcreteDoctrine(label, frame, universe, cap,
                            generator={"kind": "powerset", "sizes": list(sizes)})


def kripke_doctrine(frame: FinitePoset, sizes=(2, 2), name: str | None = None,
                    cap: int = DEFAULT_CAP) -> ConcreteDoctrine:
    """Doctrine of up-closed predicates over the given frame."""
    universe = _lettered_universe(sizes)
    label = name or f"kripke-{frame.shape_label()}-" + "x".join(str(s) for s in sizes)
    return ConcreteDoctrine(label, frame, universe, cap,
                            generator={"kind": "kripke", "frame": frame.to_json(),
                                       "sizes": list(sizes)})


def _lettered_universe(sizes) -> tuple:
    objs = [unit_obj()]
    for k, sz in enumerate(sizes):
        if sz < 1:
            raise DoctrineDataError("carrier sizes must be positive")
        upper = chr(65 + k)
        objs.append(fin_obj(upper, [f"{upper.lower()}{i}" for i in range(sz)]))
    return tuple(objs)


@dataclass
class AdjointWitness:
    direction: str
    along: str
    pairs_checked: int


@dataclass
class AdjointFailure:
    direction: str
    along: str
    alpha: object
    reason: str


def adjoint_along(D, f: FinMor, direction: str):
    """Certify the doctrine's own quantifier along f by the adjunction law.

    Each value is D's (`D.exists_along`/`D.forall_along`), checked against
    every codomain predicate pulled back along f, once per map; in a
    poset the law fixes the value.  Values and pullbacks are read through
    `D.along`, shared with every other audit over D, so each is asked of
    D once per table key and predicate.  The law is decided on order
    sets, one domain predicate at a time: for "exists", the codomain
    predicates above its value (`uppers`) must be those whose pullback
    lies above it, and dually for "forall" (`lowers`).  The lowest bit
    where the two sets differ is the first codomain predicate that
    breaks the law.  A passing verdict is kept in ``D._passed`` per
    direction and table key, so it is decided once per index table; a
    failure is decided afresh for each map.  Returns an AdjointWitness,
    which counts every (domain, codomain) predicate pair, or an
    AdjointFailure naming the first predicate without a value, else the
    first that breaks the law and the codomain predicate it breaks on.
    """
    if direction not in ("exists", "forall"):
        raise ValueError("direction must be 'exists' or 'forall'")
    key = mor_key(f)
    verdict = ("adjoint", direction, D._table_key(f))
    if verdict in D._passed:
        return AdjointWitness(direction, key, *D._passed[verdict])
    try:
        dom_fib = D.fibre(f.dom)
        cod_fib = D.fibre(f.cod)
        dom_els = dom_fib.elements()
        cod_els = cod_fib.elements()
        pull = D.along("reindex", f)
        # an empty domain fibre reads no reindexing table
        pulled = [pull(b) for b in cod_els] if dom_els else []
    except DoctrineDataError as exc:
        return AdjointFailure(direction, key, None, str(exc))
    along = D.along(direction, f)
    values = []
    for alpha in dom_els:
        try:
            values.append(along(alpha))
        except AdjointMissing:
            return AdjointFailure(direction, key, alpha,
                                  f"no {direction} value for {dom_fib.describe(alpha)}")
    if direction == "exists":
        lhs, rhs = cod_fib.uppers(cod_els), dom_fib.uppers(pulled)
    else:
        lhs, rhs = cod_fib.lowers(cod_els), dom_fib.lowers(pulled)
    sides = {}  # value -> its codomain order set; values repeat
    for alpha, v in zip(dom_els, values):
        side = sides.get(v)
        if side is None:
            side = sides[v] = lhs(v)
        bad = side ^ rhs(alpha)
        if bad:
            b = cod_els[(bad & -bad).bit_length() - 1]
            return AdjointFailure(direction, key, alpha,
                                  f"adjunction law fails against {cod_fib.describe(b)}")
    # The law on every pair between two partial orders makes the value monotone.
    pairs = len(dom_els) * len(cod_els)
    D._passed[verdict] = (pairs,)
    return AdjointWitness(direction, key, pairs)


def _sample(seq, cap: int):
    n = len(seq)
    if n <= cap:
        return list(seq)
    step = -(-n // cap)
    return list(seq[::step])


def _sample_pairs(seq, cap: int):
    n = len(seq)
    if n * n <= cap:
        return [(a, b) for a in seq for b in seq]
    side = _sample(seq, max(1, int(cap**0.5)))
    return [(a, b) for a in side for b in side]


@dataclass
class DoctrineReport:
    name: str
    passed: bool
    violations: list
    counts: dict
    notes: list


def check_doctrine(D) -> DoctrineReport:
    """Audit the doctrine laws over the declared universe.

    Covers lattice laws with residuation where the fibre carries them,
    functoriality of reindexing, monotonicity, and preservation of the
    lattice operations.  Each fibre's order is a partial order by
    construction (mask inclusion, or a recorded order checked at load),
    so it is not audited.  Large fibres are sampled deterministically;
    every shortcut is recorded in the notes.  The lattice laws are
    decided per pair of predicates on bitmasks over the sampled third
    (`_check_heyting`), not by one `leq` per triple.
    Pullbacks are read through `D.along`, which the quantifier audits
    over D share, and passing reindexing laws are decided once per index
    table (`_check_reindex`).
    """
    violations: list[str] = []
    notes: list[str] = []
    counts = {"fibres": 0, "predicates": 0, "morphisms": 0,
              "compositions": 0, "triples": 0}
    fibre_els = {}
    for obj in D.universe:
        try:
            fib = D.fibre(obj)
            els = fib.elements()
        except DoctrineDataError as exc:
            notes.append(f"fibre over {obj.name} skipped: {exc}")
            continue
        fibre_els[obj] = els
        counts["fibres"] += 1
        counts["predicates"] += len(els)
        if fib.has_heyting:
            _check_heyting(fib, obj, els, violations, notes, counts)
    _check_reindex(D, fibre_els, violations, notes, counts)
    violations = list(dict.fromkeys(violations))  # each once, in first-found order
    return DoctrineReport(D.name, not violations, violations, counts, notes)


def _check_heyting(fib, obj, els, violations, notes, counts):
    """Top, bottom, and the lattice laws with residuation on sampled
    triples (a, b, c).  Per (a, b), the c that break each law are one
    bitmask over the triple sample, from the fibre's order sets (`uppers`,
    `lowers`): meet(a, b) is greatest where no c below a and b lies
    outside it, join(a, b) least where no c above both lies outside it,
    and residuation holds where meet(a, b) <= c exactly when
    a <= imp(b, c).  Violations are listed per (a, b) in c order, as a
    scan of every triple lists them."""
    sample = _sample(els, ORDER_SAMPLE)
    try:
        top, bot = fib.top(), fib.bottom()
    except DoctrineDataError as exc:
        violations.append(f"{obj.name}: {exc}")
        return
    for a in sample:
        if not fib.leq(a, top):
            violations.append(f"{obj.name}: top is not above {fib.describe(a)}")
        if not fib.leq(bot, a):
            violations.append(f"{obj.name}: bottom is not below {fib.describe(a)}")
    tri = _sample(els, TRIPLE_SAMPLE)
    if len(tri) < len(els):
        notes.append(f"lattice laws over {obj.name} sampled at {len(tri)}/{len(els)}")
    up, down = fib.uppers(tri), fib.lowers(tri)
    ups = [up(a) for a in tri]
    downs = [down(a) for a in tri]
    # bit c of below_imp[b](a): a <= imp(b, c)
    below_imp = [fib.uppers([fib.imp(b, c) for c in tri]) for b in tri]
    counts["triples"] += len(tri) ** 3
    for ia, a in enumerate(tri):
        for ib, b in enumerate(tri):
            m = fib.meet(a, b)
            if not (fib.leq(m, a) and fib.leq(m, b)):
                violations.append(
                    f"{obj.name}: meet({fib.describe(a)}, {fib.describe(b)}) is not a lower bound")
            j = fib.join(a, b)
            if not (fib.leq(a, j) and fib.leq(b, j)):
                violations.append(
                    f"{obj.name}: join({fib.describe(a)}, {fib.describe(b)}) is not an upper bound")
            greatest = downs[ia] & downs[ib] & ~down(m)
            least = ups[ia] & ups[ib] & ~up(j)
            residuation = up(m) ^ below_imp[ib](a)
            bad = greatest | least | residuation
            while bad:
                low = bad & -bad
                bad ^= low
                if greatest & low:
                    violations.append(
                        f"{obj.name}: meet({fib.describe(a)}, {fib.describe(b)}) is not greatest")
                if least & low:
                    violations.append(
                        f"{obj.name}: join({fib.describe(a)}, {fib.describe(b)}) is not least")
                if residuation & low:
                    c = tri[low.bit_length() - 1]
                    violations.append(
                        f"{obj.name}: residuation fails on {fib.describe(a)}, "
                        f"{fib.describe(b)}, {fib.describe(c)}")


def _check_reindex(D, fibre_els, violations, notes, counts):
    """Functoriality, monotonicity and preservation of the lattice
    operations by reindexing.  Pullbacks are read through `D.along`, so
    each is asked of D once per table key and predicate; the codomain's
    order pairs, meet, join and implication are taken once per sampled
    pair for all maps into it.  A map's laws that pass are kept in
    ``D._passed`` per table key, and a composite's per pair of table
    keys, so each is decided once per index table; a failing map or
    composite is scanned in full each time, and names its own maps.  A
    composite's verdict says whether its sample was every predicate (see
    `_functorial`).  A composite with no recorded table is noted and not
    counted."""
    for obj, els in fibre_els.items():
        pull = D.along("reindex", identity(obj))
        sample = _sample(els, PAIR_SAMPLE)
        try:
            for alpha in sample:
                if pull(alpha) != alpha:
                    fib = D.fibre(obj)
                    violations.append(
                        f"{obj.name}: identity reindex moves {fib.describe(alpha)}")
                    break
        except DoctrineDataError:
            notes.append(f"identity reindex over {obj.name} not recorded; skipped")
    mors = {}
    for a in D.universe:
        for b in D.universe:
            if a in fibre_els and b in fibre_els:
                mors[(a, b)] = found = D.morphisms(a, b)
                counts["morphisms"] += len(found)
    per_cod = {}
    for (a, b), fs in mors.items():
        fib_a = D.fibre(a)
        fib_b = D.fibre(b)
        if b not in per_cod:
            sampled = _sample_pairs(fibre_els[b], PAIR_SAMPLE)
            per_cod[b] = ([(x, y) for x, y in sampled if fib_b.leq(x, y)],
                          [(x, y, fib_b.meet(x, y), fib_b.join(x, y), fib_b.imp(x, y))
                           for x, y in sampled] if fib_b.has_heyting else None)
        pairs, ops = per_cod[b]
        lattice = fib_a.has_heyting and fib_b.has_heyting
        for f in fs:
            verdict = ("reindex", D._table_key(f))
            if verdict in D._passed:
                continue
            found = len(violations), len(notes)
            pull = D.along("reindex", f)
            try:
                for x, y in pairs:
                    if not fib_a.leq(pull(x), pull(y)):
                        violations.append(
                            f"reindex along {mor_key(f)} is not monotone on "
                            f"{fib_b.describe(x)} <= {fib_b.describe(y)}")
                if lattice:
                    if pull(fib_b.top()) != fib_a.top():
                        violations.append(f"reindex along {mor_key(f)} moves top")
                    if pull(fib_b.bottom()) != fib_a.bottom():
                        violations.append(f"reindex along {mor_key(f)} moves bottom")
                    for x, y, meet, join, imp in ops:
                        rx, ry = pull(x), pull(y)
                        if pull(meet) != fib_a.meet(rx, ry):
                            violations.append(
                                f"reindex along {mor_key(f)} breaks meet on "
                                f"{fib_b.describe(x)}, {fib_b.describe(y)}")
                        if pull(join) != fib_a.join(rx, ry):
                            violations.append(
                                f"reindex along {mor_key(f)} breaks join on "
                                f"{fib_b.describe(x)}, {fib_b.describe(y)}")
                        if pull(imp) != fib_a.imp(rx, ry):
                            violations.append(
                                f"reindex along {mor_key(f)} breaks implication on "
                                f"{fib_b.describe(x)}, {fib_b.describe(y)}")
            except DoctrineDataError as exc:
                notes.append(f"{mor_key(f)}: {exc}; skipped")
            if found == (len(violations), len(notes)):
                D._passed[verdict] = ()
    for (a, b), fs in mors.items():
        for (b2, c), gs in mors.items():
            if b2 != b:
                continue
            sample = _sample(fibre_els[c], PAIR_SAMPLE)
            whole = (len(sample) == len(fibre_els[c]),)
            pulls = [(g, D.along("reindex", g), D._table_key(g)) for g in gs]
            for f in fs:
                pull_f, f_key = D.along("reindex", f), D._table_key(f)
                for g, pull_g, g_key in pulls:
                    verdict = ("compose", f_key, g_key)
                    if verdict not in D._passed:
                        pull_gf = D.along("reindex", FinMor(a, c, idx=[g.idx[v] for v in f.idx]))
                        try:
                            for alpha in sample:
                                if pull_f(pull_g(alpha)) != pull_gf(alpha):
                                    violations.append(
                                        f"functoriality fails: {mor_key(g)} after {mor_key(f)}")
                                    break
                            else:
                                D._passed[verdict] = whole
                        except DoctrineDataError:
                            notes.append(
                                f"composite {mor_key(g)} after {mor_key(f)} not recorded; skipped")
                            continue
                    counts["compositions"] += 1


def f_times_id(D, f: FinMor, b: FinObj) -> FinMor:
    """The map f x id_B between the evident products of D's table, from
    its index table: ``(a, y)`` goes to ``(f a, y)``."""
    p_dom = D.product(f.dom, b)
    p_cod = D.product(f.cod, b)
    nb = len(b)
    fi = f.idx
    return FinMor(p_dom.obj, p_cod.obj,
                  idx=[fi[s // nb] * nb + s % nb for s in range(len(p_dom.obj))])


@dataclass
class BCReport:
    name: str
    direction: str
    squares: int
    equality_failures: list
    inequality_failures: list
    skipped: list

    @property
    def passed(self) -> bool:
        return not self.equality_failures and not self.inequality_failures and not self.skipped


def beck_chevalley(D, direction: str) -> BCReport:
    """Check the Beck-Chevalley condition for one quantifier, "exists" or
    "forall", on every pullback square of projections over the universe:
    for f: A2 -> A1 and the square formed with B, quantifying along the
    projections must commute with reindexing along f and f x id.  The
    lax inequality is checked separately from equality.  Quantifiers and
    pullbacks are read through `D.along`, so each predicate over A1*B is
    quantified along its projection once for every f, and each value is
    shared with the other audits over D.  The products, fibres, sampled
    predicates and projection readers are taken once per (B, A1, A2).

    A square that passes is kept in ``D._passed`` per direction, table
    key of f and carrier key of B, so it is checked once per index table,
    with no f x id built, and still counted for every f; a square with a
    failure or a skip is checked in full for each f.  A carrier that a
    table replay does not record skips the squares over (B, A1, A2) with
    one note, which names no map.

    Where f's table is the composite g∘h of two tables met before it
    (`D._factors`), its square is the pasting of theirs, and passes
    without a scan when both of theirs passed on every predicate with
    the same B and pulling back along g then h is pulling back along f
    on every predicate over A1 (`_functorial`).  That takes the
    functoriality of reindexing along (g∘h) x id on trust.  A derived
    square is counted like a scanned one and builds no f x id.  Once a
    scanned square fails, every square is scanned, as without the
    derivation, so failures and skips are listed as a full scan lists
    them."""
    if direction not in ("exists", "forall"):
        raise ValueError("direction must be 'exists' or 'forall'")
    report = _bc_walk(D, direction, derive=True)
    if report is None:  # a scanned square failed after a derived one
        report = _bc_walk(D, direction, derive=False)
    return report


def _bc_walk(D, direction: str, derive: bool):
    """One walk over the squares of `beck_chevalley`.  Derivation stops
    at the first scanned square that fails; if a square was derived by
    then, its verdict is dropped and the walk gives None."""
    eq_fail: list = []
    ineq_fail: list = []
    skipped: list = []
    squares = 0
    derived: list = []
    for b in D.universe:
        part = D._carrier_key(b)
        for a1 in D.universe:
            for a2 in D.universe:
                fs = D.morphisms(a2, a1)
                try:
                    p1 = D.product(a1, b)
                    p2 = D.product(a2, b)
                    fib1 = D.fibre(p1.obj)
                    fib_a2 = D.fibre(a2)
                    preds = fib1.elements()
                    betas = _sample(preds, PRED_SAMPLE)
                except DoctrineDataError as exc:
                    if fs:
                        skipped.append(
                            f"square over {a2.name} -> {a1.name} with {b.name}: {exc}")
                    continue
                whole = (len(betas) == len(preds),)
                along1 = D.along(direction, p1.proj_left)
                along2 = D.along(direction, p2.proj_left)
                for f in fs:
                    squares += 1
                    verdict = ("bc", direction, D._table_key(f), part)
                    if verdict in D._passed:
                        continue
                    if derive and _pasted(D, direction, f, part):
                        D._passed[verdict] = (True,)
                        derived.append(verdict)
                        continue
                    found = len(eq_fail), len(ineq_fail), len(skipped)
                    square = f"{mor_key(f)} x {b.name}"
                    pull_f = D.along("reindex", f)
                    pull_fp = D.along("reindex", f_times_id(D, f, b))
                    for beta in betas:
                        try:
                            lhs = along2(pull_fp(beta))
                            rhs = pull_f(along1(beta))
                        except (AdjointMissing, DoctrineDataError) as exc:
                            skipped.append(f"{square}: {exc}")
                            break
                        low, high = (lhs, rhs) if direction == "exists" else (rhs, lhs)
                        if lhs != rhs:
                            eq_fail.append(
                                f"{direction} along {square} differs on {fib1.describe(beta)}")
                        if not fib_a2.leq(low, high):
                            ineq_fail.append(
                                f"{direction} along {square} breaks the lax inequality on "
                                f"{fib1.describe(beta)}")
                    if found == (len(eq_fail), len(ineq_fail), len(skipped)):
                        D._passed[verdict] = whole
                    elif derived:
                        for kept in derived:
                            del D._passed[kept]
                        return None
                    else:
                        derive = False
    return BCReport(D.name, direction, squares, eq_fail, ineq_fail, skipped)


def _pasted(D, direction: str, f: FinMor, part) -> bool:
    """Whether f's square with a partner of carrier key ``part`` is the
    pasting of two passing squares: f's table is g∘h for two tables met
    before it (`D._factors`), the squares of h and g with that partner
    passed on every predicate, and f's pullback is h's after g's."""
    factors = D._factors(f)
    if factors is None:
        return False
    h, g = factors
    whole = (True,)
    passed = D._passed
    return (passed.get(("bc", direction, D._table_key(h), part)) == whole
            and passed.get(("bc", direction, D._table_key(g), part)) == whole
            and _functorial(D, h, g, f))


def _functorial(D, h: FinMor, g: FinMor, gh: FinMor) -> bool:
    """Whether pulling back along g, then along h, is pulling back along
    gh (a map with the table of g∘h) on every predicate over g's
    codomain.  The verdict is kept under `_check_reindex`'s key for the
    composite, with a flag that says it was reached on every predicate;
    a verdict reached on a sample answers False."""
    verdict = ("compose", D._table_key(h), D._table_key(g))
    kept = D._passed.get(verdict)
    if kept is None:
        pull_h, pull_g = D.along("reindex", h), D.along("reindex", g)
        pull_gh = D.along("reindex", gh)
        if any(pull_h(pull_g(alpha)) != pull_gh(alpha)
               for alpha in D.fibre(g.cod).elements()):
            return False
        kept = D._passed[verdict] = (True,)
    return kept == (True,)


@dataclass
class QuantifierStructureReport:
    name: str
    direction: str
    witnesses: list
    failures: list
    bc: BCReport

    @property
    def passed(self) -> bool:
        return not self.failures and self.bc.passed


def quantifier_structure(D, direction: str) -> QuantifierStructureReport:
    """Certify the quantifier structure of the doctrine in one direction:
    D's adjoints along both projections of every binary product over the
    universe, by the adjunction law, plus Beck-Chevalley for the
    corresponding squares.  Both read their values through `D.along`,
    so each is asked of D once per table key and predicate.  On a
    concrete doctrine Beck-Chevalley scans only the squares of
    generator tables and derives the rest by pasting; the functoriality
    a derived square needs is kept under `check_doctrine`'s key, so it
    is decided once whether or not `check_doctrine` ran first."""
    witnesses: list = []
    failures: list = []
    for a1 in D.universe:
        for a2 in D.universe:
            p = D.product(a1, a2)
            for proj in (p.proj_left, p.proj_right):
                res = adjoint_along(D, proj, direction)
                if isinstance(res, AdjointFailure):
                    failures.append(res)
                else:
                    witnesses.append(res)
    bc = beck_chevalley(D, direction)
    return QuantifierStructureReport(D.name, direction, witnesses, failures, bc)


@dataclass
class ClosureReport:
    passed: bool
    missing_products: list
    missing_exponentials: list
    notes: list


def base_closure(D) -> ClosureReport:
    """Judge cartesian closure of the base over the declared universe:
    every binary product and exponential of universe carriers must lie
    in the base (`D.in_base`), judged as ``D.closure_note`` says."""
    missing_p: list = []
    missing_e: list = []
    for a in D.universe:
        for b in D.universe:
            if not D.in_base(D.product(a, b).obj):
                missing_p.append(f"{a.name}*{b.name}")
            if not D.in_base(exponential(b, a, D.cap).obj):
                missing_e.append(f"{b.name}^{a.name}")
    return ClosureReport(not missing_p and not missing_e, missing_p, missing_e,
                         [D.closure_note])


def universe_note(D) -> str:
    names = ", ".join(obj.name for obj in D.universe)
    return (f"verdicts quantify over the declared universe ({names}); "
            "carriers outside it are not examined")


def _encode_element(e: tuple) -> list:
    out = []
    for x in e:
        if isinstance(x, FinObj) or callable(x):
            raise DoctrineDataError("function carriers are not serialised")
        out.append(x)
    return out


def doctrine_to_json(D) -> dict:
    """Serialise the doctrine over its declared universe."""
    notes: list = []
    data = _carriers_json(D, notes)
    reindex = {}
    for a in D.universe:
        for b in D.universe:
            try:
                fs = D.morphisms(a, b)
            except CapExceeded:
                notes.append(f"morphisms {a.name} -> {b.name} exceed cap; omitted")
                continue
            for f in fs:
                try:
                    reindex[mor_key(f)] = _reindex_json(D, f)
                except DoctrineDataError:
                    continue
    data["reindex"] = reindex
    if notes:
        data["notes"] = notes
    return data


def _carriers_json(D, notes: list) -> dict:
    """Every section of `doctrine_to_json` but the reindexing tables."""
    data: dict = {"name": D.name, "kind": D.kind}
    if D.generator:
        data["generator"] = D.generator
    if getattr(D, "frame", None) is not None:
        data["frame"] = D.frame.to_json()
    data["universe"] = [
        {"name": obj.name, "arity": obj.arity,
         "elements": [_encode_element(e) for e in obj.elements]}
        for obj in D.universe
    ]
    fibres = {}
    heyting = {}
    for obj in D.universe:
        fib = D.fibre(obj)
        els = fib.elements()
        n = len(els)
        fibres[obj.name] = {
            "elements": [fib.describe(a) for a in els],
            "leq": [[1 if fib.leq(els[i], els[j]) else 0 for j in range(n)]
                    for i in range(n)],
        }
        if fib.has_heyting:
            if n > HEYTING_TABLE_CAP:
                notes.append(f"lattice tables over {obj.name} omitted ({n} predicates)")
                continue
            idx = {a: i for i, a in enumerate(els)}
            heyting[obj.name] = {
                "top": idx[fib.top()],
                "bottom": idx[fib.bottom()],
                "meet": [[idx[fib.meet(a, b)] for b in els] for a in els],
                "join": [[idx[fib.join(a, b)] for b in els] for a in els],
                "imp": [[idx[fib.imp(a, b)] for b in els] for a in els],
            }
    data["fibres"] = fibres
    if heyting:
        data["heyting"] = heyting
    return data


def _reindex_json(D, f: FinMor) -> list:
    """The reindexing table along f: the index over f's domain of the
    pullback of each predicate over its codomain."""
    fib_a = D.fibre(f.dom)
    return [fib_a.index(D.reindex_el(f, beta)) for beta in D.fibre(f.cod).elements()]


def _is_table(value: list, n: int, cells) -> bool:
    """Whether value, a list of lists, is n by n with every entry in cells."""
    return len(value) == n and all(len(row) == n and all(v in cells for v in row)
                                   for row in value)


def _frame(data: dict, path: str) -> FinitePoset:
    try:
        return FinitePoset.from_json(data)
    except PosetError as exc:
        raise DoctrineDataError(f"{path}: {exc}") from None


def _from_generator(gen: dict, name, cap: int) -> ConcreteDoctrine:
    kind, sizes, framed = gen["kind"], tuple(gen["sizes"]), "frame" in gen
    if kind == "powerset" and not framed:
        return powerset_doctrine(sizes, name=name, cap=cap)
    if kind == "kripke" and framed:
        return kripke_doctrine(_frame(gen["frame"], "generator.frame"), sizes, name=name, cap=cap)
    raise DoctrineDataError(f"unknown generator kind {kind!r} {'with' if framed else 'without'}"
                            " a frame")


def _match_recorded(data: dict, D: ConcreteDoctrine, gen: dict) -> None:
    """Every table a generator file records must be the one
    `doctrine_to_json` writes for the regenerated doctrine; a file may
    record fewer.  A reindexing table is recomputed from its key alone,
    so no hom-set is enumerated.  Fibres are listed at the default cap
    or the load cap, if larger: `--cap` does not turn a stock file into
    a mismatch."""
    recorded = [k for k in TABLE_KEYS if k in data]
    if not recorded:
        return
    if D.cap < DEFAULT_CAP:
        D = _from_generator(gen, D.name, DEFAULT_CAP)
    ref = _carriers_json(D, [])
    ref["universe"] = {o["name"]: o for o in ref["universe"]}
    by_name = {o.name: o for o in D.universe}
    missing = object()
    for section in recorded:
        if section == "universe":
            entries = {o["name"]: o for o in data["universe"]}
        else:
            entries = data[section]
        for key, value in entries.items():
            if section != "reindex":
                want = ref.get(section, {}).get(key, missing)
            else:
                try:
                    want = _reindex_json(D, mor_from_key(key, by_name))
                except DoctrineDataError:
                    want = missing
            if value != want:
                raise DoctrineDataError(
                    f"recorded {section} {key!r} does not match the generator")


def doctrine_from_json(data, cap: int = DEFAULT_CAP):
    """Rebuild a doctrine of the `DOCTRINE` shape that `doctrine_to_json`
    writes.  A recorded generator wins: the doctrine is rebuilt in closed
    form, and the declared universe and every recorded table must match it.
    Otherwise the tables are replayed as a TabularDoctrine, whatever
    ``kind`` says."""
    try:
        check(data, DOCTRINE, "")
    except ShapeError as exc:
        raise DoctrineDataError(str(exc)) from None
    kind = data.get("kind")
    if kind not in (None, ConcreteDoctrine.kind, TabularDoctrine.kind):
        raise DoctrineDataError(f"unknown doctrine kind {kind!r}")
    gen = data.get("generator")
    if gen is not None and kind == TabularDoctrine.kind:
        raise DoctrineDataError("a tabular doctrine records no generator")
    declared = data.get("universe")
    if gen is not None:
        D = _from_generator(gen, data.get("name"), cap)
        if declared is not None and [o["name"] for o in declared] != [o.name for o in D.universe]:
            raise DoctrineDataError("declared universe does not match the generator")
        _match_recorded(data, D, gen)
        return D
    if "frame" in data:  # a replay has no frame, but a recorded one must be a poset
        _frame(data["frame"], "frame")
    by_name = {}
    for i, entry in enumerate(declared or []):
        if "->" in entry["name"] or "#" in entry["name"]:  # a morphism key's separators
            raise DoctrineDataError(f"universe[{i}].name: {entry['name']!r} contains '->' or '#'")
        try:
            obj = FinObj(entry["name"], map(tuple, entry["elements"]), entry.get("arity"))
        except CategoryError as exc:
            raise DoctrineDataError(f"object {entry['name']}: {exc}") from None
        if entry.get("arity", obj.arity) != obj.arity:
            raise DoctrineDataError(f"universe[{i}].arity: elements have arity {obj.arity}")
        if by_name.setdefault(obj.name, obj) is not obj:
            raise DoctrineDataError(f"universe[{i}].name: object {obj.name} is declared twice")
    if not by_name:
        raise DoctrineDataError("doctrine data declares no universe")
    fibre_data, heyting_data = data.get("fibres", {}), data.get("heyting", {})
    for name in heyting_data:
        if name not in fibre_data:
            raise DoctrineDataError(f"lattice tables over {name!r}, which has no fibre")
    fibres = {}
    for name, fd in fibre_data.items():
        if name not in by_name:
            raise DoctrineDataError(f"fibre over unknown object {name!r}")
        n, leq, h = len(fd["elements"]), fd["leq"], heyting_data.get(name)
        if not _is_table(leq, n, (0, 1)):
            raise DoctrineDataError(f"fibre over {name}: malformed order matrix")
        if h and not (h["top"] in range(n) and h["bottom"] in range(n) and all(
                _is_table(h[k], n, range(n)) for k in ("meet", "join", "imp"))):
            raise DoctrineDataError(f"lattice tables over {name} are malformed")
        tables = HeytingTables(h["top"], h["bottom"], *(
            tuple(map(tuple, h[k])) for k in ("meet", "join", "imp"))) if h else None
        up = [sum(1 << j for j, v in enumerate(row) if v) for row in leq]
        fibres[by_name[name]] = PosetFibre(by_name[name], fd["elements"], up, tables, cap)
    reindex = {mor_from_key(key, by_name): tuple(table)
               for key, table in data.get("reindex", {}).items()}
    return TabularDoctrine(data.get("name", "tabular"), list(by_name.values()), fibres,
                           reindex, cap=cap)
