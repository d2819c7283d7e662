import itertools
import random

import pytest

from dialectica import _kernels as K
from dialectica.doctrine import (
    PosetFibre,
    _m1_table,
    _m2_table,
    doctrine_from_json,
    doctrine_to_json,
    kripke_doctrine,
    up_columns,
)
from dialectica.fincat import fin_obj
from dialectica.posets import antichain_poset, chain_poset
from test_freeness import SMALL_FRAMES


def witness_pair_naive(alpha, beta, ni, nu, nx, nv, ny, nw):
    """Exhaustive oracle: the first pair (f0, f1) in lexicographic order."""
    full = (1 << nw) - 1
    niu = ni * nu
    for f0 in itertools.product(range(nv), repeat=niu):
        for f1 in itertools.product(range(nx), repeat=niu * ny):
            ok = True
            for i in range(ni):
                for u in range(nu):
                    iu = i * nu + u
                    for y in range(ny):
                        x = f1[iu * ny + y]
                        acol = (alpha >> ((iu * nx + x) * nw)) & full
                        bcol = (beta >> (((i * nv + f0[iu]) * ny + y) * nw)) & full
                        if acol & ~bcol:
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if ok:
                return f0, f1
    return None


class TestLayout:
    """The mask layout is bit e * nw + w: element-major, world-minor."""

    def test_reindex_selects_columns_by_codomain_index(self):
        # alpha over a 2-element codomain at 2 worlds: element 1 holds
        # at world 0 only, so only bit 1 * 2 + 0 = 2 is set.
        alpha = 1 << 2
        assert K.reindex_mask(alpha, (1, 0), 2) == 0b0001
        assert K.reindex_mask(alpha, (1, 1), 2) == 0b0101
        assert K.reindex_mask(alpha, (0, 0), 2) == 0

    def test_exists_unions_fibre_columns(self):
        # two domain elements with columns 0b01 and 0b10 collapse to one
        # codomain element carrying their union
        alpha = (0b01 << 0) | (0b10 << 2)
        assert K.exists_image(alpha, [(0, 1)], 2) == 0b11
        assert K.exists_image(alpha, [(0,), (1,)], 2) == alpha
        assert K.exists_image(alpha, [()], 2) == 0

    def test_forall_intersects_fibre_columns(self):
        alpha = (0b01 << 0) | (0b11 << 2)
        assert K.forall_preimage(alpha, [(0, 1)], 2) == 0b01
        assert K.forall_preimage(alpha, [()], 2) == 0b11

    def test_implication_consults_upper_sets(self):
        # one element over the 2-chain w0 <= w1: a holds at w1, b nowhere,
        # so a -> b fails at both worlds; with b = a it holds everywhere
        up = (0b11, 0b10)
        assert K.imp_mask(0b10, 0b00, 1, 2, up) == 0b00
        assert K.imp_mask(0b10, 0b10, 1, 2, up) == 0b11
        # boolean worlds: the antichain upper sets give material implication
        assert K.imp_mask(0b10, 0b00, 1, 2, (0b01, 0b10)) == 0b01

    def test_gap_searches_take_the_first_fitting_index(self):
        # beta over A x B with nb = 2: both b-columns work for a = 0,
        # so index 0 is reported
        beta = 0b1 | 0b10  # (a0,b0) and (a0,b1) both hold at the one world
        assert K.exists_gap_g(0b1, beta, 1, 2, 1) == (0,)
        assert K.exists_gap_g(0b1, 0b10, 1, 2, 1) == (1,)
        assert K.exists_gap_g(0b1, 0, 1, 2, 1) is None

    def test_degenerate_dimensions(self):
        assert K.exists_gap_g(0, 0, 0, 2, 1) == ()
        assert K.exists_gap_g(0b1, 0, 1, 0, 1) is None
        assert K.witness_pair(0, 0, 0, 0, 0, 0, 0, 1) == ((), ())
        # a y with no x to map to cannot be witnessed
        assert K.witness_pair(0, 0, 1, 1, 0, 1, 1, 1) is None

    def test_witness_pair_indexing(self):
        # ni=nu=nx=nv=ny=1, one world: alpha(i,u,x) <= beta(i,v,y) direct
        assert K.witness_pair(1, 1, 1, 1, 1, 1, 1, 1) == ((0,), (0,))
        assert K.witness_pair(1, 0, 1, 1, 1, 1, 1, 1) is None
        # two candidate v values, only v=1 works
        beta = 0b10  # (i0, v1, y0) holds
        assert K.witness_pair(1, 1, 1, 1, 2, 1, 1, 1) == ((0,), (0,))
        assert K.witness_pair(1, beta, 1, 1, 1, 2, 1, 1) == ((1,), (0,))


class TestSearchAgreement:
    def test_streamlined_search_matches_the_exhaustive_one(self):
        """Per-slot first-fit and full lexicographic enumeration land on
        the same pair because the constraints decouple per (i, u)."""
        rng = random.Random(21)
        for _ in range(60):
            ni, nu, nx, nv, ny = (rng.randint(0, 2) for _ in range(5))
            nw = rng.randint(1, 2)
            alpha = rng.getrandbits(ni * nu * nx * nw)
            beta = rng.getrandbits(ni * nv * ny * nw)
            args = (alpha, beta, ni, nu, nx, nv, ny, nw)
            assert K.witness_pair(*args) == witness_pair_naive(*args)

    def test_a_shared_memo_answers_as_no_memo(self):
        """One memo across every case, of every shape and one to three
        worlds: each answer equals the answer without a memo and the
        exhaustive one, both as the memo fills and once other shapes
        have filled it.  The first cases give one slot the same column
        ints at one and at two worlds, where the answers differ."""
        rng = random.Random(23)
        cases = [(0b10, 0b1, 1, 1, 2, 1, 1, nw) for nw in (1, 2)]
        assert K.witness_pair(*cases[0]) != K.witness_pair(*cases[1])
        for _ in range(200):
            ni, nu, nx, nv, ny = (rng.randint(0, 2) for _ in range(5))
            nw = rng.randint(1, 3)
            alpha = rng.getrandbits(ni * nu * nx * nw)
            beta = rng.getrandbits(ni * nv * ny * nw)
            cases.append((alpha, beta, ni, nu, nx, nv, ny, nw))
        memo = {}
        for args in cases:
            want = K.witness_pair(*args)
            assert want == witness_pair_naive(*args)
            assert K.witness_pair(*args, memo=memo) == want
        assert len(memo) > 50
        for args in reversed(cases):
            assert K.witness_pair(*args, memo=memo) == K.witness_pair(*args)


    def test_pair_check_is_the_two_pullbacks(self):
        """`pair_holds`, slot by slot, judges as alpha pulled back along m1
        and beta along m2 (`_m1_table`, `_m2_table`) compared in the mask
        order, on seeded shapes with every size up to 3 at one to three
        worlds (so some masks pass 64 bits): on seeded tables, and on the
        tables `witness_pair` finds."""
        rng = random.Random(48)
        verdicts, wide = set(), 0
        for _ in range(2000):
            ni, nu, nx, nv, ny = (rng.randint(0, 3) for _ in range(5))
            nw = rng.randint(1, 3)
            if (nv == 0 and ni * nu) or (nx == 0 and ni * nu * ny):
                continue  # no pair of tables
            aw, bw = ni * nu * nx * nw, ni * nv * ny * nw
            alpha = rng.getrandbits(aw) & rng.getrandbits(aw)
            beta = rng.getrandbits(bw) | rng.getrandbits(bw)
            tables = [([rng.randrange(nv) for _ in range(ni * nu)],
                       [rng.randrange(nx) for _ in range(ni * nu * ny)])]
            found = K.witness_pair(alpha, beta, ni, nu, nx, nv, ny, nw)
            if found:
                tables.append(found)
            for f0, f1 in tables:
                want = (K.reindex_mask(alpha, _m1_table(nx, ny, f1), nw)
                        & ~K.reindex_mask(beta, _m2_table(nu, nv, ny, f0), nw) == 0)
                assert K.pair_holds(alpha, beta, f0, f1, nu, nx, nv, ny, nw) == want
                verdicts.add(want)
            wide += max(aw, bw) > K._WORD
        assert verdicts == {True, False} and wide > 5


class TestOrderSignature:
    def test_signature_layout(self):
        # one world, nx = 2: alpha(0, 0, x0) = {w0}, alpha(0, 0, x1) = {}
        left, right = K.order_signature(0b01, 1, 1, 2, 1)
        assert left == ((0b11,),)  # {} lies below both column values
        assert right == ((0b11,),)  # the row takes both column values
        left, right = K.order_signature(0b11, 1, 1, 2, 1)
        assert left == ((0b10,),) and right == ((0b10,),)
        # two worlds: column {w1} = 0b10 lies below values 0b10 and 0b11
        left, right = K.order_signature(0b10, 1, 1, 1, 2)
        assert left == ((0b1100,),) and right == ((0b0100,),)
        assert K.order_signature(0, 0, 2, 2, 1) == ((), ())

    def test_signatures_decide_what_the_searches_find(self):
        """Compared with the kernel search and the exhaustive oracle on
        random masks, zero-size dimensions and up to three worlds."""
        rng = random.Random(33)
        for _ in range(400):
            ni, nu, nx, nv, ny = (rng.randint(0, 2) for _ in range(5))
            nw = rng.randint(1, 3)
            alpha = rng.getrandbits(ni * nu * nx * nw)
            beta = rng.getrandbits(ni * nv * ny * nw)
            args = (alpha, beta, ni, nu, nx, nv, ny, nw)
            decided = K.signature_leq(K.order_signature(alpha, ni, nu, nx, nw)[0],
                                      K.order_signature(beta, ni, nv, ny, nw)[1])
            assert decided == (K.witness_pair(*args) is not None)
            assert decided == (witness_pair_naive(*args) is not None)


def order_sets_naive(ps, x):
    """The definition of `uppers` and `lowers` at x, one pair at a time."""
    return (sum(1 << j for j, p in enumerate(ps) if x & ~p == 0),
            sum(1 << j for j, p in enumerate(ps) if p & ~x == 0))


class TestOrderSets:
    """`uppers` and `lowers` against their definition, and the fibres'
    order sets against their own `leq`."""

    def test_seeded_mask_lists(self):
        rng = random.Random(34)
        for _ in range(300):
            nbits = rng.randint(0, 9)
            full = (1 << nbits) - 1
            ps = [rng.getrandbits(nbits) for _ in range(rng.randint(0, 12))]
            if ps:  # repeated entries
                ps += rng.choices(ps, k=rng.randint(1, 3))
                rng.shuffle(ps)
            up, down = K.uppers(ps, full), K.lowers(ps, full)
            # a few masks with bits outside the carrier as well
            for x in [rng.getrandbits(nbits) for _ in range(20)] + [
                    rng.getrandbits(nbits + 2) for _ in range(4)]:
                assert (up(x), down(x)) == order_sets_naive(ps, x), (ps, full, x)

    def test_empty_carrier_and_empty_list(self):
        # over no bits every mask is 0, and 0 lies below and above each entry
        up, down = K.uppers([0, 0, 0], 0), K.lowers([0, 0, 0], 0)
        assert (up(0), down(0)) == (0b111, 0b111)
        assert (up(0b10), down(0b10)) == (0, 0b111)
        for full in (0, 0b1, 0b1111):
            up, down = K.uppers([], full), K.lowers([], full)
            assert all((up(x), down(x)) == (0, 0) for x in range(full + 1))

    def test_repeated_entries_set_every_position(self):
        up, down = K.uppers([0b01, 0b11, 0b01], 0b11), K.lowers([0b01, 0b11, 0b01], 0b11)
        assert (up(0b01), down(0b01)) == (0b111, 0b101)
        assert (up(0b11), down(0b11)) == (0b010, 0b111)
        assert (up(0), down(0)) == (0b111, 0)

    @staticmethod
    def _poset_fibres():
        """Replayed fibres of Kripke doctrines, and subposets of a mask
        fibre with repeated and missing predicates."""
        for frame in (chain_poset(3), antichain_poset(2)):
            data = doctrine_to_json(kripke_doctrine(frame, (2,)))
            del data["generator"]
            T = doctrine_from_json(data)
            yield from (T.fibre(obj) for obj in T.universe)
        rng = random.Random(35)
        masks = kripke_doctrine(antichain_poset(3), (1,)).fibre(
            fin_obj("A", ["a0"])).elements()
        for n in (0, 1, 5, 8):
            picked = rng.sample(masks, n)
            up = [sum(1 << j for j, q in enumerate(picked) if p & ~q == 0) for p in picked]
            yield PosetFibre(fin_obj("P", ["p"]), [str(p) for p in picked], up)

    def test_poset_fibres_agree_with_their_order(self):
        rng = random.Random(36)
        for fib in self._poset_fibres():
            els = fib.elements()
            lists = [list(els), list(reversed(els))]
            if els:
                lists.append(rng.choices(els, k=7))
            for ps in lists:
                up, down = fib.uppers(ps), fib.lowers(ps)
                for x in els:
                    assert up(x) == sum(1 << j for j, p in enumerate(ps) if fib.leq(x, p))
                    assert down(x) == sum(1 << j for j, p in enumerate(ps) if fib.leq(p, x))


def _up_closed(rng, frame, ne, count):
    """``count`` seeded predicates over ``ne`` elements, each element's
    column an up-set of the frame."""
    cols = up_columns(frame.up, len(frame))
    return [sum(rng.choice(cols) << (e * len(frame)) for e in range(ne)) for _ in range(count)]


def _seeded_map(rng, nd, nc):
    """A map from nd to nc elements, as its index table, that misses at
    least one codomain element when nc > 1."""
    if nc == 0:
        return ()
    hit = rng.randrange(nc)
    return tuple(rng.choice([c for c in range(nc) if c != hit] or [hit]) for _ in range(nd))


def _preimages(fmap, nc):
    return [tuple(d for d, c in enumerate(fmap) if c == k) for k in range(nc)]


# (domain size, codomain size): empty carriers, a point, and a codomain
# of 25 elements, whose masks are wider than 64 bits on two or three worlds
SHAPES = ((0, 2), (3, 1), (1, 3), (4, 3), (6, 25), (25, 4))


class TestPlaneOracle:
    """The plane kernels give the transposition of the per-mask kernels'
    results, on seeded predicate lists (empty, one predicate, and many)
    over every frame of `SMALL_FRAMES`."""

    @staticmethod
    def _lists(rng, frame, ne):
        return [[], _up_closed(rng, frame, ne, 1), _up_closed(rng, frame, ne, 37)]

    @pytest.mark.parametrize("name", SMALL_FRAMES)
    def test_transpose_round_trip(self, name):
        frame = SMALL_FRAMES[name]
        nw = len(frame)
        rng = random.Random(f"transpose:{name}")
        for ne in (0, 1, 25):
            for ps in self._lists(rng, frame, ne):
                planes = K.transpose(ps, ne * nw)
                assert len(planes) == ne * nw
                assert all((planes[k] >> j & 1) == (p >> k & 1)
                           for k in range(ne * nw) for j, p in enumerate(ps))
                assert K.transpose(planes, len(ps)) == ps

    @pytest.mark.parametrize("name", SMALL_FRAMES)
    def test_reindex_and_quantifiers(self, name):
        frame = SMALL_FRAMES[name]
        nw = len(frame)
        rng = random.Random(f"along:{name}")
        for nd, nc in SHAPES:
            fmap = _seeded_map(rng, nd, nc)
            fibs = _preimages(fmap, nc)
            assert nc < 2 or () in fibs  # a missed point: forall is full there
            for ps in self._lists(rng, frame, nc):
                want = [K.reindex_mask(p, fmap, nw) for p in ps]
                got = K.reindex_planes(K.transpose(ps, nc * nw), fmap, nw)
                assert got == K.transpose(want, nd * nw), (nd, nc, len(ps))
            for ps in self._lists(rng, frame, nd):
                planes, every = K.transpose(ps, nd * nw), (1 << len(ps)) - 1
                want = [K.exists_image(p, fibs, nw) for p in ps]
                assert K.exists_planes(planes, fibs, nw) == K.transpose(want, nc * nw)
                want = [K.forall_preimage(p, fibs, nw) for p in ps]
                assert K.forall_planes(planes, fibs, nw, every) == K.transpose(want, nc * nw)

    @pytest.mark.parametrize("name", SMALL_FRAMES)
    def test_lattice_operations_and_comparisons(self, name):
        frame = SMALL_FRAMES[name]
        nw = len(frame)
        rng = random.Random(f"lattice:{name}")
        for ne in (0, 1, 3, 25):
            for n in (0, 1, 37):
                xs, ys = _up_closed(rng, frame, ne, n), _up_closed(rng, frame, ne, n)
                if n:  # equal and comparable pairs as well
                    ys[0] = xs[0]
                    ys[-1] |= xs[-1]
                px, py = K.transpose(xs, ne * nw), K.transpose(ys, ne * nw)
                every = (1 << n) - 1
                ops = {"meet": (K.meet_planes(px, py), [x & y for x, y in zip(xs, ys)]),
                       "join": (K.join_planes(px, py), [x | y for x, y in zip(xs, ys)]),
                       "imp": (K.imp_planes(px, py, ne, nw, frame.up, every),
                               [K.imp_mask(x, y, ne, nw, frame.up) for x, y in zip(xs, ys)])}
                for op, (got, want) in ops.items():
                    assert got == K.transpose(want, ne * nw), (op, ne, n)
                assert K.differ(px, py) == sum(1 << j for j in range(n) if xs[j] != ys[j])
                assert K.exceeds(px, py) == sum(1 << j for j in range(n) if xs[j] & ~ys[j])

    @pytest.mark.parametrize("D", (
        kripke_doctrine(chain_poset(1), (2, 2)), kripke_doctrine(chain_poset(2), (2, 2)),
        kripke_doctrine(antichain_poset(2), (2, 2))), ids=lambda d: d.name)
    def test_stock_fibres(self, D):
        """Every predicate of the stock fibres over A and A*B: pullbacks
        along the left projection, both quantifiers along it, and the
        implication of every predicate over A*B against its mirror."""
        A, B = D.universe[1:]
        p = D.product(A, B)
        nw, nd, nc = D.nw, len(p.obj), len(A)
        over_a, over_ab = list(D.fibre(A).elements()), list(D.fibre(p.obj).elements())
        fmap, fibs = p.proj_left.idx, p.proj_left.preimages()
        assert K.reindex_planes(K.transpose(over_a, nc * nw), fmap, nw) == K.transpose(
            [K.reindex_mask(a, fmap, nw) for a in over_a], nd * nw)
        planes, every = K.transpose(over_ab, nd * nw), (1 << len(over_ab)) - 1
        assert K.exists_planes(planes, fibs, nw) == K.transpose(
            [K.exists_image(x, fibs, nw) for x in over_ab], nc * nw)
        assert K.forall_planes(planes, fibs, nw, every) == K.transpose(
            [K.forall_preimage(x, fibs, nw) for x in over_ab], nc * nw)
        mirror = over_ab[::-1]
        assert K.imp_planes(planes, K.transpose(mirror, nd * nw), nd, nw, D.frame.up,
                            every) == K.transpose(
            [K.imp_mask(x, y, nd, nw, D.frame.up) for x, y in zip(over_ab, mirror)], nd * nw)

    def test_order_sets_read_planes(self):
        """`uppers` on the planes of a list answers as on the list."""
        rng = random.Random(37)
        for nbits in (0, 3, 70):
            full = (1 << nbits) - 1
            for n in (0, 1, 9):
                ps = [rng.getrandbits(nbits) if nbits else 0 for _ in range(n)]
                up, planes_up = K.uppers(ps, full), K.uppers(K.transpose(ps, nbits), full, n)
                for x in [rng.getrandbits(nbits) if nbits else 0 for _ in range(12)]:
                    assert up(x) == planes_up(x) == order_sets_naive(ps, x)[0]


class TestDispatch:
    def test_backend_badge(self):
        assert K.BACKEND == "pure"
