import itertools
import random

from dialectica import _kernels as K


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


class TestDispatch:
    def test_backend_badge(self):
        assert K.BACKEND == "pure"
