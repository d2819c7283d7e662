"""Finite posetal doctrines over Kripke frames.

A doctrine here assigns to every finite carrier a poset of predicates,
with reindexing along maps and (where present) quantifier adjoints.  Two
implementations share one interface, the methods of `Doctrine`, whose
decisions are exhaustive searches there: `TabularDoctrine` replays fibres
and reindexing tables loaded from data and decides by those searches;
`ConcreteDoctrine` computes fibres of up-closed bitmask predicates and
overrides each decision with a closed form or kernel, its one lane: no
method looks for an override of another.  Each doctrine
owns its fibres (`D.fibre`) and its binary carrier products
(`D.product`), each built once at the doctrine's cap, so every audit,
scan and completion check over one doctrine shares one carrier, and one
set of projections, per shape.  It also keeps its values along maps
(`D.along`), each asked of its own method once, the planes of the law
audits' sampled predicates (`D.planes_along` reads values along maps
for a whole list of predicates at once, as do Skolemisation's chains
and the recorded tables), its passing law verdicts, each
decided once per index table, and, when concrete, the order signature
of each quadruple the Dialectica order reads.  On top
of both sit adjoint certification by the adjunction law, structural
audits, Beck-Chevalley checks, and a JSON exchange format.

Reindexing along a map is a functor on the whole fibre: a concrete
doctrine computes every pullback, and a replay checks each recorded
table whole at load and lists only the maps it records.  So a pullback
is there for every predicate or for none, and the reindexing audit
skips a map without one in one step.  A replay's quantifier, though,
can be missing on some predicates alone, and the audits that read
quantifiers list the failures before such a predicate.
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
from .posets import FRAME, FinitePoset, PosetError, _members, poset_violations

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
    bitwise, with implication via the frame's up-sets, and so are their
    forms on planes (`not_leq`, `on_planes`) and the order sets
    (`uppers`, `lowers`): each is a kernel, and none asks `leq`,
    `meet`, `join` or `imp`.  `PosetFibre`'s bodies ask those pair by
    pair.

    A predicate is a tuple of up-set columns, one per element, drawn
    from ``cols`` (the frame's up-sets, in increasing order, kept from
    construction), and its index among `elements` is mixed-radix in the
    columns' positions in ``cols``, element 0 the most significant
    digit.  So the recorded tables are closed forms in those digits:
    `op_table` a Kronecker power of the one-column table, and
    `pullback_table` a sum of digits times weights.
    """

    has_heyting = True

    __slots__ = ("obj", "nw", "upmasks", "worlds", "full", "cap", "cols", "_elements",
                 "_index", "_described")

    def __init__(self, obj: FinObj, nw: int, upmasks, worlds, cap: int):
        self.obj = obj
        self.nw = nw
        self.upmasks = tuple(upmasks)
        self.worlds = tuple(worlds)
        self.full = (1 << (len(obj) * nw)) - 1 if len(obj) else 0
        self.cap = cap
        self.cols = up_columns(self.upmasks, nw)
        self._elements = None
        self._index = None
        self._described = {}

    def count(self) -> int:
        """The number of predicates, found without listing them; over the
        cap it raises the CapExceeded that `elements` raises."""
        count = len(self.cols) ** len(self.obj)
        if count > self.cap:
            raise CapExceeded(
                f"fibre over {self.obj.name} has {count} predicates; cap {self.cap}"
            )
        return count

    def elements(self) -> tuple:
        if self._elements is None:
            self.count()
            nw = self.nw
            out = []
            for combo in itertools.product(self.cols, repeat=len(self.obj)):
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

    def uppers(self, ps, count=None):
        """x -> the bitmask of the j with ``leq(x, ps[j])``; with
        ``count``, ps are the planes of ``count`` predicates."""
        return K.uppers(ps, self.full, count)

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

    def planes(self, preds) -> list:
        """The planes of a list of predicates (`_kernels.transpose`)."""
        return K.transpose(preds, len(self.obj) * self.nw)

    def not_leq(self, xs, ys, count: int) -> int:
        """The j where predicate j of planes xs is not below that of ys."""
        return K.exceeds(xs, ys)

    def on_planes(self, op: str, xs, ys, count: int) -> list:
        """The planes of ``op`` ("meet", "join" or "imp") of predicate j
        of xs and predicate j of ys, for each of the ``count`` j, by the
        plane kernels."""
        if op == "meet":
            return K.meet_planes(xs, ys)
        if op == "join":
            return K.join_planes(xs, ys)
        return K.imp_planes(xs, ys, len(self.obj), self.nw, self.upmasks, (1 << count) - 1)

    def op_table(self, op: str) -> list:
        """The table of ``op`` ("leq", "meet", "join" or "imp") over the
        predicates in their order: entry [i][j] is 1 or 0 for "leq", else
        the index of ``op(i, j)``.  It is the Kronecker power of the
        one-column table C over ``cols``: with k columns, entry
        ``[i*k + c][j*k + d]`` of the table over one more element is
        ``T[i][j]*k + C[c][d]``, or ``T[i][j] & C[c][d]`` for "leq"."""
        self.elements()  # the cap, as a table asked pair by pair meets it
        cols, k = self.cols, len(self.cols)
        if op == "leq":
            one = [[int(c & ~d == 0) for d in cols] for c in cols]
            table = [[1]]
            for _ in range(len(self.obj)):
                table = [[t & x for t in row for x in crow] for row in table for crow in one]
            return table
        at = {c: i for i, c in enumerate(cols)}
        if op == "meet":
            one = [[at[c & d] for d in cols] for c in cols]
        elif op == "join":
            one = [[at[c | d] for d in cols] for c in cols]
        else:
            one = [[at[K.imp_mask(c, d, 1, self.nw, self.upmasks)] for d in cols] for c in cols]
        table = [[0]]
        for _ in range(len(self.obj)):
            table = [[t * k + x for t in row for x in crow] for row in table for crow in one]
        return table

    def pullback_table(self, fmap, cod) -> list:
        """The index in this fibre of the pullback, along the map with
        index table ``fmap``, of each predicate of the fibre ``cod`` over
        its codomain, in cod's order.  A pullback copies the column at
        f(i) to element i, so its index is linear in cod's digits: digit
        c weighs ``W[c] = sum(k**(nd-1-i) for i with f(i) = c)``, and the
        table grows one digit at a time, most significant first.  Both
        counts are taken first, cod's then this fibre's, so a cap raises
        as it does for a table asked predicate by predicate."""
        cod.count()
        self.count()
        k, nd = len(self.cols), len(self.obj)
        weights = [0] * len(cod.obj)
        for i, c in enumerate(fmap):
            weights[c] += k ** (nd - 1 - i)
        table = [0]
        for w in weights:
            table = [t + d * w for t in table for d in range(k)]
        return table

    def describe(self, mask: int) -> str:
        """The predicate as text, kept per mask in ``_described``."""
        text = self._described.get(mask)
        if text is not None:
            return text
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
        text = self._described[mask] = "{" + ", ".join(parts) + "}"
        return text


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

    def uppers(self, ps, count=None):
        """x -> the bitmask of the j with ``leq(x, ps[j])``: x lies below
        ps[j] exactly when ps[j]'s up-set lies inside x's.  With
        ``count``, ps are the planes of ``count`` predicates."""
        if count is not None:
            ps = K.transpose(ps, count)[:count]
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

    def op_table(self, op: str) -> list:
        """`MaskFibre.op_table`, asked of ``op`` on each pair of the
        elements."""
        els, fn = self.elements(), getattr(self, op)
        if op == "leq":
            return [[1 if fn(a, b) else 0 for b in els] for a in els]
        idx = {a: i for i, a in enumerate(els)}
        return [[idx[fn(a, b)] for b in els] for a in els]

    def describe(self, a: int) -> str:
        return self.labels[a]

    # A predicate here is an index, so its planes are those of the index,
    # and every op on planes is asked predicate by predicate.

    def planes(self, preds) -> list:
        return K.transpose(preds, 0)

    def not_leq(self, xs, ys, count: int) -> int:
        xs, ys = (K.transpose(p, count)[:count] for p in (xs, ys))
        return sum(1 << j for j, (x, y) in enumerate(zip(xs, ys)) if not self.leq(x, y))

    def on_planes(self, op: str, xs, ys, count: int) -> list:
        fn = getattr(self, op)
        xs, ys = (K.transpose(p, count)[:count] for p in (xs, ys))
        return self.planes([fn(x, y) for x, y in zip(xs, ys)])


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

    ``D.planes_along(op, f, planes, count)`` gives the same values for a
    whole list of predicates at once, as planes (`_kernels.transpose`):
    the law audits read it.  Here it reads each predicate through
    ``D.along`` and stops at the first without a value, so the audits
    list what a scan one predicate at a time lists.  The planes of the
    audits' sampled predicates are kept in ``D._planes``, per carrier
    key and sample stride.  ``D.table_pull()`` is the same pullback as a
    reader taken once per audit, along a map given by its index table
    (the functoriality audit's composites); it returns planes alone and
    raises where a pullback is missing.

    Two more decisions take whole predicate lists: ``D.chain_values``
    (each predicate's value along chains of ops along maps, which
    Skolemisation's two sides are) and ``D.reindex_table(f)`` (the
    recorded reindexing table along f).  Their bodies here ask D's own
    value methods one predicate at a time, in the order a scan asks
    them; table replays decide by these bodies, and a concrete doctrine
    by its kernels alone.

    The Dialectica order (`dial`) has two decisions: ``D.witness_tables``
    for one pair of quadruples, whose index tables it returns or None,
    and ``D.order_rows`` for the rows of a list; ``D.pair_holds`` judges
    one pair's tables.  ``D.kept_map(dom, cod, idx)`` builds each map it
    is asked for once and keeps it, so `dial`'s one pair builder, which
    makes every witness pair, builds one map per distinct table.

    ``D._passed`` keeps the law audits' passing verdicts (`adjoint_along`,
    `beck_chevalley`, `check_doctrine`'s reindexing laws), keyed by the
    audit, ``D._table_key`` of its maps and ``D._carrier_key`` of any
    other carrier it reads, as plain tuples.  A failure is never kept, so
    each failing map is scanned and named on its own.

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

    def kept_map(self, dom: FinObj, cod: FinObj, idx) -> FinMor:
        """The map dom -> cod with index table ``idx``, built once per
        doctrine and kept, by the names and arities of its carriers as
        well as the carriers, as `product` keys its factors."""
        idx = tuple(idx)
        key = (dom.name, dom.arity, dom, cod.name, cod.arity, cod, idx)
        hit = self._maps.get(key)
        if hit is None:
            hit = self._maps[key] = FinMor(dom, cod, idx=idx)
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

    def planes_along(self, op: str, f: FinMor, planes, count: int, b: FinObj | None = None):
        """The planes of the values of ``op`` along f, or along f x id_b
        when b is given, at the ``count`` predicates of ``planes``; and
        where they stop: None, or ``(j, exc)`` when predicate j raised
        exc, the planes then holding the j values before it."""
        if b is not None:
            f = f_times_id(self, f, b)
        read = self.along(op, f)
        values = []
        stop = None
        for alpha in K.transpose(planes, count)[:count]:
            try:
                values.append(read(alpha))
            except (AdjointMissing, DoctrineDataError) as exc:
                stop = len(values), exc
                break
        if not values:  # the fibre need not exist when no value does
            return [], stop
        return self.fibre(f.dom if op == "reindex" else f.cod).planes(values), stop

    def table_pull(self):
        """``pull(dom, cod, table, planes, count)``: the planes of the
        pullbacks along the map dom -> cod with the index table
        ``table``, for an audit that pulls back along many maps and takes
        the reader once.  Here the map is built and read through
        `planes_along`, and a missing pullback raises its exception: a
        map has its pullbacks on the whole fibre or on none."""
        return lambda dom, cod, table, planes, count: _pull(
            self, FinMor(dom, cod, idx=table), planes, count)

    def chain_values(self, preds, chains) -> list:
        """For each chain of ``(op, f)`` steps, the list of its values at
        the predicates ``preds``: a predicate's value along a chain is
        the predicate, then its value of each op along each map in turn.
        Here each predicate runs each chain in turn through D's own
        `reindex_el`, `exists_along` and `forall_along`, not through
        `along`'s memo keyed by index table, so a method that reads a
        carrier's name is asked on that carrier; the first exception
        propagates."""
        steps = [[(getattr(self, _ALONG[op]), f) for op, f in chain] for chain in chains]
        out = [[] for _ in chains]
        for alpha in preds:
            for chain, values in zip(steps, out):
                value = alpha
                for ask, f in chain:
                    value = ask(f, value)
                values.append(value)
        return out

    def reindex_table(self, f: FinMor) -> list:
        """The reindexing table along f that `doctrine_to_json` records:
        the index over f's domain of the pullback of each predicate over
        its codomain, each asked of `reindex_el`."""
        fib_a = self.fibre(f.dom)
        return [fib_a.index(self.reindex_el(f, beta)) for beta in self.fibre(f.cod).elements()]

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

    def _pair_maps(self, a, b, f0, f1):
        """m1 = (i, u, f1(i, u, y)) into I*U*X and m2 = (i, f0(i, u), y)
        into I*V*Y, both out of I*U*Y, as maps between D's products, on
        the tables of `_m1_table` and `_m2_table`."""
        prod = self.product
        iu = prod(a.I, a.U).obj
        iuy = prod(iu, b.X).obj
        m1 = _m1_table(a.X.size, b.X.size, f1)
        m2 = _m2_table(a.U.size, b.U.size, b.X.size, f0)
        return (FinMor(iuy, prod(iu, a.X).obj, idx=m1),
                FinMor(iuy, prod(prod(a.I, b.U).obj, b.X).obj, idx=m2))

    def order_rows(self, quads) -> list:
        """The order on quads as one row per quadruple: bit j of row i
        is set when `witness_tables` takes quads[i] below quads[j]."""
        return [sum(1 << j for j, b in enumerate(quads)
                    if self.witness_tables(a, b) is not None) for a in quads]


def _m1_table(nx: int, ny: int, f1) -> list:
    """m1's index table: with s = (i * |U| + u) * |Y| + y, s goes to
    ``s // |Y| * |X| + f1[s]``."""
    return [s // ny * nx + x for s, x in enumerate(f1)]


def _m2_table(nu: int, nv: int, ny: int, f0) -> list:
    """m2's index table: s = t * |Y| + y, for the slot t = i * |U| + u,
    goes to ``(i * |V| + f0[t]) * |Y| + y``."""
    return [(t // nu * nv + v) * ny + y for t, v in enumerate(f0) for y in range(ny)]


class ConcreteDoctrine(Doctrine):
    """Doctrine of up-closed predicates over a Kripke frame.

    Carriers are constant along the frame, so reindexing is preimage along
    the map's `idx`, the left adjoint along any map is direct image per
    world, and the right adjoint is intersection over the map's preimage
    lists (`FinMor.preimages`, built once per map).  Fibres exist for
    every finite carrier, not only the declared universe; the universe
    fixes what the audits quantify over.  Each decision is a bitmask
    kernel (`_kernels`) that gives the base class's search's answer.  The
    order's signatures are kept in ``D._sigs``, next to ``_along`` and
    ``_passed``, so every fibre and Theorem 4 check over D computes each
    quadruple's once.  `order_rows` reads them on classes: the quadruples
    with one right signature are one bitmask, and each distinct left
    signature's row is the OR of the classes it reaches.
    `witness_tables`, the decision for one pair (Theorems 2 and 4 ask it
    too), keeps its slot decisions in ``D._slots``
    (`_kernels.witness_pair`'s ``memo``), so a slot that many pairs share
    is decided once.  Every witness pair, made by `dial`'s one builder, is
    revalidated on index tables: `pair_holds` pulls both matrices back
    along m1 and m2 by the reindexing kernel and compares them in the mask
    order, for every pair, building no map and looking up no product; the
    two tables are kept in ``D._m1s`` and ``D._m2s`` by the part of the
    pair's tables and shapes each is computed from.  The law audits'
    values along maps are the plane kernels' (`planes_along`,
    `table_pull`): a pullback gathers planes by the map's index table, and
    a quantifier ORs or ANDs them over each preimage list, for every
    sampled predicate at once.  Skolemisation's chains run on the planes
    of a whole fibre (`chain_values`), and a recorded reindexing table is
    a closed form in the digits of the predicates' indices
    (`reindex_table`, `MaskFibre.pullback_table`).  These are the one
    lane: none of them asks `reindex_el`, `exists_along` or
    `forall_along`, so a subclass that overrides those and wants them
    asked takes the base class's bodies as well.
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
        self._slots: dict = {}
        self._m1s: dict = {}
        self._m2s: dict = {}
        self._planes: dict = {}
        self._maps: dict = {}

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

    def reindex_el(self, f: FinMor, alpha: int) -> int:
        return K.reindex_mask(alpha, f.idx, self.nw)

    def planes_along(self, op: str, f: FinMor, planes, count: int, b: FinObj | None = None):
        """By the plane kernels, which raise nothing, so no stop.  ``b``
        is read with "reindex" alone: its one use is `beck_chevalley`'s
        pullback along f x id."""
        nw = self.nw
        if op == "reindex":
            table = f.idx if b is None else _times_id(f.idx, len(b))
            return K.reindex_planes(planes, table, nw), None
        if op == "exists":
            return K.exists_planes(planes, f.preimages(), nw), None
        return K.forall_planes(planes, f.preimages(), nw, (1 << count) - 1), None

    def table_pull(self):
        """A gather of the planes by the table, building no map."""
        nw = self.nw
        return lambda dom, cod, table, planes, count: K.reindex_planes(planes, table, nw)

    def chain_values(self, preds, chains) -> list:
        """The predicates are transposed once, each chain runs on their
        planes by the plane kernels, and its planes are transposed back."""
        op, f = chains[0][0]
        n = len(preds)
        start = self.fibre(f.cod if op == "reindex" else f.dom).planes(preds)
        out = []
        for chain in chains:
            planes = start
            for op, f in chain:
                planes = self.planes_along(op, f, planes, n)[0]
            out.append(K.transpose(planes, n)[:n])
        return out

    def reindex_table(self, f: FinMor) -> list:
        """In closed form (`MaskFibre.pullback_table`)."""
        return self.fibre(f.dom).pullback_table(f.idx, self.fibre(f.cod))

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
                              b.U.size, b.X.size, self.nw, memo=self._slots)

    def pair_holds(self, a, b, f0, f1) -> bool:
        """Both pullbacks and the comparison run for every pair; m1's
        table is kept in ``D._m1s`` by (|X|, |Y|, f1) and m2's in
        ``D._m2s`` by (|U|, |V|, |Y|, f0), all that each is computed from."""
        f0, f1 = tuple(f0), tuple(f1)
        nx, ny = a.X.size, b.X.size
        key = nx, ny, f1
        m1 = self._m1s.get(key)
        if m1 is None:
            m1 = self._m1s[key] = _m1_table(nx, ny, f1)
        key = a.U.size, b.U.size, ny, f0
        m2 = self._m2s.get(key)
        if m2 is None:
            m2 = self._m2s[key] = _m2_table(*key)
        nw = self.nw
        return K.reindex_mask(a.alpha, m1, nw) & ~K.reindex_mask(b.alpha, m2, nw) == 0

    def _signature(self, q):
        """q's order signature, kept in ``D._sigs`` by the kernel's arguments."""
        args = (q.alpha, len(q.I), len(q.U), len(q.X), self.nw)
        hit = self._sigs.get(args)
        if hit is None:
            hit = self._sigs[args] = K.order_signature(*args)
        return hit

    def order_rows(self, quads) -> list:
        """On signature classes: the quadruples with one right signature
        are one class, held as the bitmask of their positions, and each
        distinct left signature's row is the OR of the classes it reaches
        (`signature_leq`), computed once."""
        sigs = [self._signature(q) for q in quads]
        classes = {}
        for j, (_, right) in enumerate(sigs):
            classes[right] = classes.get(right, 0) | 1 << j
        leq = K.signature_leq
        rows = {}
        out = []
        for left, _ in sigs:
            row = rows.get(left)
            if row is None:
                row = 0
                for right, members in classes.items():
                    if leq(left, right):
                        row |= members
                rows[left] = row
            out.append(row)
        return out


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
        self._planes: dict = {}
        self._maps: dict = {}
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
    poset the law fixes the value.  Pullbacks are read through `D.along`,
    shared with every other audit over D, so each is asked of D once per
    table key and predicate, and the values are taken for every domain
    predicate at once on planes (`D.planes_along`).  The law is decided on order
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
    n = len(dom_els)
    whole = _sample_planes(D, f.dom, dom_els, n)[1]  # a sample at cap n is every predicate
    planes, stop = D.planes_along(direction, f, whole, n)
    if stop is not None:
        alpha = dom_els[stop[0]]
        return AdjointFailure(direction, key, alpha,
                              f"no {direction} value for {dom_fib.describe(alpha)}")
    values = K.transpose(planes, n)[:n]
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


def _stride(n: int, cap: int) -> int:
    return 1 if n <= cap else -(-n // cap)


def _sample(seq, cap: int):
    return list(seq[::_stride(len(seq), cap)])


def _sample_pairs(seq, cap: int):
    n = len(seq)
    if n * n <= cap:
        return [(a, b) for a in seq for b in seq]
    side = _sample(seq, max(1, int(cap**0.5)))
    return [(a, b) for a in side for b in side]


def _sample_planes(D, obj: FinObj, els, cap: int):
    """`_sample` of obj's predicates ``els`` and its planes, kept in
    ``D._planes`` per carrier key and stride, so the audits over D
    transpose each sample once."""
    step = _stride(len(els), cap)
    sample = list(els[::step])
    key = D._carrier_key(obj), step
    planes = D._planes.get(key)
    if planes is None:
        planes = D._planes[key] = D.fibre(obj).planes(sample)
    return sample, planes


def _then(D, state, op: str, f: FinMor, b: FinObj | None = None):
    """A chain of values along maps, one step further.  A state is
    ``(planes, n, exc)``: the planes of the values of a list's first n
    predicates, and the exception its next predicate raised on the way
    (None when all n have values)."""
    planes, n, exc = state
    planes, stop = D.planes_along(op, f, planes, n, b)
    return (planes, n, exc) if stop is None else (planes, *stop)


def _pull(D, f: FinMor, planes, count: int) -> list:
    """The planes of the pullbacks along f of ``count`` predicates, given
    as planes; where `D.planes_along` stops, its exception is raised."""
    pulled, stop = D.planes_along("reindex", f, planes, count)
    if stop is not None:
        raise stop[1]
    return pulled


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
    (`_check_heyting`), not by one `leq` per triple.  The reindexing laws
    are decided on planes, for every sampled predicate of a codomain at
    once (`_check_reindex`), read through `D.planes_along`, and a passing
    map or composite is decided once per index table; a composite
    pulls back along its index table alone (`D.table_pull`).
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
    a <= imp(b, c).  The implications of each b are taken against the
    whole sample at once, on planes (`on_planes`), and their order sets
    read off those planes.  Violations are listed per (a, b) in c order,
    as a scan of every triple lists them."""
    sample = _sample(els, ORDER_SAMPLE)
    top, bot = fib.top(), fib.bottom()
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
    t = len(tri)
    planes = fib.planes(tri)
    every = (1 << t) - 1
    # bit c of below_imp[b](a): a <= imp(b, c); b's planes are b's bits, spread
    below_imp = [fib.uppers(fib.on_planes(
        "imp", [every if b >> k & 1 else 0 for k in range(len(planes))], planes, t), t)
        for b in tri]
    counts["triples"] += t ** 3
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
            for c in _members(greatest | least | residuation):
                if greatest >> c & 1:
                    violations.append(
                        f"{obj.name}: meet({fib.describe(a)}, {fib.describe(b)}) is not greatest")
                if least >> c & 1:
                    violations.append(
                        f"{obj.name}: join({fib.describe(a)}, {fib.describe(b)}) is not least")
                if residuation >> c & 1:
                    violations.append(
                        f"{obj.name}: residuation fails on {fib.describe(a)}, "
                        f"{fib.describe(b)}, {fib.describe(tri[c])}")


def _check_reindex(D, fibre_els, violations, notes, counts):
    """Functoriality, monotonicity and preservation of the lattice
    operations by reindexing, decided on planes (`D.planes_along`).  Per
    codomain, the sampled pairs (x, y), their order, meet, join and
    implication are transposed once; per map, the planes of their
    pullbacks are compared with the domain's order and operations on the
    pulled planes, so each law is decided for every sampled pair at
    once, and a law's failing pairs are the set bits of the comparison.
    They are listed per map as a scan lists them: the pairs that break
    monotonicity, then top and bottom, then meet, join and implication
    per pair.  Functoriality is decided on the planes of each codomain's
    sample, pulled back along g then f and along the composite's index
    table, through one `D.table_pull` reader per audit: on a concrete
    doctrine a gather by the table, with no composite map built.  A map's
    laws that pass are kept in ``D._passed`` per table key, and a
    composite's per pair of table keys, so each is decided once per
    index table; a failing map or composite is decided again for each
    map, and names its own maps.  A pullback exists on a whole fibre or
    on none (a concrete doctrine computes every one, and a replay checks
    each recorded table whole at load), so a map, identity or composite
    without one is noted once and skipped whole, and a skipped composite
    is not counted."""
    for obj, els in fibre_els.items():
        sample, planes = _sample_planes(D, obj, els, PAIR_SAMPLE)
        try:
            moved = _pull(D, identity(obj), planes, len(sample))
        except DoctrineDataError:
            notes.append(f"identity reindex over {obj.name} not recorded; skipped")
            continue
        bad = K.differ(moved, planes)
        if bad:
            fib = D.fibre(obj)
            violations.append(
                f"{obj.name}: identity reindex moves {fib.describe(sample[next(_members(bad))])}")
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
            n = len(sampled)
            xs = fib_b.planes([x for x, _ in sampled])
            ys = fib_b.planes([y for _, y in sampled])
            ordered = ((1 << n) - 1) & ~fib_b.not_leq(xs, ys, n)
            ops = None
            if fib_b.has_heyting:
                ops = (fib_b.planes([fib_b.top(), fib_b.bottom()]),
                       *(fib_b.on_planes(op, xs, ys, n) for op in ("meet", "join", "imp")))
            per_cod[b] = sampled, xs, ys, ordered, ops
        sampled, xs, ys, ordered, ops = per_cod[b]
        n = len(sampled)
        lattice = fib_a.has_heyting and fib_b.has_heyting
        if lattice:
            ends_a = fib_a.planes([fib_a.top(), fib_a.bottom()])
        for f in fs:
            verdict = ("reindex", D._table_key(f))
            if verdict in D._passed:
                continue
            try:
                px, py = _pull(D, f, xs, n), _pull(D, f, ys, n)
                if lattice:
                    ends, *cod_ops = ops
                    moved = K.differ(_pull(D, f, ends, 2), ends_a)
                    pulled = [_pull(D, f, p, n) for p in cod_ops]
            except DoctrineDataError as exc:
                notes.append(f"{mor_key(f)}: {exc}; skipped")
                continue
            found = len(violations)
            for j in _members(ordered & fib_a.not_leq(px, py, n)):
                x, y = sampled[j]
                violations.append(
                    f"reindex along {mor_key(f)} is not monotone on "
                    f"{fib_b.describe(x)} <= {fib_b.describe(y)}")
            if lattice:
                if moved & 1:
                    violations.append(f"reindex along {mor_key(f)} moves top")
                if moved & 2:
                    violations.append(f"reindex along {mor_key(f)} moves bottom")
                broken = [K.differ(p, fib_a.on_planes(op, px, py, n))
                          for op, p in zip(("meet", "join", "imp"), pulled)]
                for j in _members(broken[0] | broken[1] | broken[2]):
                    x, y = sampled[j]
                    for name, bad in zip(("meet", "join", "implication"), broken):
                        if bad >> j & 1:
                            violations.append(
                                f"reindex along {mor_key(f)} breaks {name} on "
                                f"{fib_b.describe(x)}, {fib_b.describe(y)}")
            if found == len(violations):
                D._passed[verdict] = ()
    pull = D.table_pull()
    pulled = {}  # table key of g -> the sample over g's codomain pulled back along g
    for (a, b), fs in mors.items():
        for (b2, c), gs in mors.items():
            if b2 != b:
                continue
            sample, planes = _sample_planes(D, c, fibre_els[c], PAIR_SAMPLE)
            n = len(sample)
            for f in fs:
                f_key = D._table_key(f)
                for g in gs:
                    g_key = D._table_key(g)
                    verdict = ("compose", f_key, g_key)
                    if verdict not in D._passed:
                        try:
                            if g_key not in pulled:
                                pulled[g_key] = pull(g.dom, g.cod, g.idx, planes, n)
                            fg = pull(f.dom, f.cod, f.idx, pulled[g_key], n)
                            gf = pull(a, c, [g.idx[v] for v in f.idx], planes, n)
                        except DoctrineDataError:
                            notes.append(
                                f"composite {mor_key(g)} after {mor_key(f)} not recorded; skipped")
                            continue
                        if K.differ(fg, gf):
                            violations.append(
                                f"functoriality fails: {mor_key(g)} after {mor_key(f)}")
                        else:
                            D._passed[verdict] = ()
                    counts["compositions"] += 1


def _times_id(fi, nb: int) -> list:
    """The index table of f x id_B from f's: ``(a, y)`` goes to ``(f a, y)``."""
    return [c * nb + y for c in fi for y in range(nb)]


def f_times_id(D, f: FinMor, b: FinObj) -> FinMor:
    """The map f x id_B between the evident products of D's table."""
    return FinMor(D.product(f.dom, b).obj, D.product(f.cod, b).obj,
                  idx=_times_id(f.idx, len(b)))


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
    lax inequality is checked separately from equality.

    Every square is decided on every sampled predicate over A1*B, on
    planes (`D.planes_along`): the sample's planes are kept on D and
    shared by both directions, and are quantified along A1*B -> A1 once
    per (B, A1).  Each square then gathers them along the table of f x id
    (on a concrete doctrine from its arithmetic, with no map built) and
    quantifies, and compares that with the gather along f of the
    quantified planes; the set bits of the comparisons are the failing
    predicates, listed in sample order.  Where a predicate has no value
    on one side, the square lists the failures of the predicates before
    it and one skip note, as a scan one predicate at a time does.

    A square that passes is kept in ``D._passed`` per direction, table
    key of f and carrier key of B, so it is decided once per index table
    and still counted for every f; a square with a failure or a skip is
    decided again for each f.  A carrier that a table replay does not
    record skips the squares over (B, A1, A2) with one note, which names
    no map."""
    if direction not in ("exists", "forall"):
        raise ValueError("direction must be 'exists' or 'forall'")
    eq_fail: list = []
    ineq_fail: list = []
    skipped: list = []
    squares = 0
    for b in D.universe:
        part = D._carrier_key(b)
        for a1 in D.universe:
            quantified = None  # the betas quantified along A1*B -> A1
            for a2 in D.universe:
                fs = D.morphisms(a2, a1)
                try:
                    p1 = D.product(a1, b)
                    p2 = D.product(a2, b)
                    fib1 = D.fibre(p1.obj)
                    fib_a2 = D.fibre(a2)
                    betas, planes = _sample_planes(D, p1.obj, fib1.elements(), PRED_SAMPLE)
                except DoctrineDataError as exc:
                    if fs:
                        skipped.append(
                            f"square over {a2.name} -> {a1.name} with {b.name}: {exc}")
                    continue
                start = planes, len(betas), None
                for f in fs:
                    squares += 1
                    verdict = ("bc", direction, D._table_key(f), part)
                    if verdict in D._passed:
                        continue
                    if quantified is None:
                        quantified = _then(D, start, direction, p1.proj_left)
                    lhs = _then(D, _then(D, start, "reindex", f, b), direction, p2.proj_left)
                    rhs = _then(D, quantified, "reindex", f)
                    n = min(lhs[1], rhs[1])  # the betas with both sides
                    inside = (1 << n) - 1
                    low, high = (lhs, rhs) if direction == "exists" else (rhs, lhs)
                    differs = K.differ(lhs[0], rhs[0]) & inside
                    lax = fib_a2.not_leq(low[0], high[0], n) & inside
                    square = f"{mor_key(f)} x {b.name}"
                    eq_fail += [f"{direction} along {square} differs on {fib1.describe(betas[j])}"
                                for j in _members(differs)]
                    ineq_fail += [f"{direction} along {square} breaks the lax inequality on "
                                  f"{fib1.describe(betas[j])}" for j in _members(lax)]
                    if n < len(betas):  # the left side is read first
                        skipped.append(f"{square}: {(lhs if lhs[1] == n else rhs)[2]}")
                    elif not differs | lax:
                        D._passed[verdict] = ()
    return BCReport(D.name, direction, squares, eq_fail, ineq_fail, skipped)


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
    corresponding squares.  The adjunction law reads its values through
    `D.along`, and Beck-Chevalley through `D.planes_along`, so each value
    is asked of D once per table key and predicate, or computed on
    planes for the whole sample; each passing verdict is kept on D per
    index table, whether or not `check_doctrine` ran first."""
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
                reindex[mor_key(f)] = D.reindex_table(f)
    data["reindex"] = reindex
    if notes:
        data["notes"] = notes
    return data


def _carriers_json(D, notes: list) -> dict:
    """Every section of `doctrine_to_json` but the reindexing tables.
    Each order and lattice table is the fibre's `op_table`: a Kronecker
    power on a mask fibre, the op asked pair by pair on a recorded
    fibre or an overridden op.  Listing a fibre's elements first meets
    the cap."""
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
            "leq": fib.op_table("leq"),
        }
        if fib.has_heyting:
            if n > HEYTING_TABLE_CAP:
                notes.append(f"lattice tables over {obj.name} omitted ({n} predicates)")
                continue
            idx = {a: i for i, a in enumerate(els)}
            heyting[obj.name] = {
                "top": idx[fib.top()],
                "bottom": idx[fib.bottom()],
                **{op: fib.op_table(op) for op in ("meet", "join", "imp")},
            }
    data["fibres"] = fibres
    if heyting:
        data["heyting"] = heyting
    return data


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
    record fewer.  A reindexing table is recomputed from its key alone
    (`D.reindex_table`, a closed form), so no hom-set is enumerated and
    no predicate pulled back; the fibres' tables are closed forms too
    (`_carriers_json`).  Fibres are listed at the default cap or the
    load cap, if larger: `--cap` does not turn a stock file into a
    mismatch."""
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
                    want = D.reindex_table(mor_from_key(key, by_name))
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
