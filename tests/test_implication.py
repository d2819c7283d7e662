"""The implication clause of the Dialectica completion on prenex forms.

For quadruples (I, U, X, alpha) and (I, V, Y, beta), the implication is
the quadruple over I with witnesses W = V^U x X^(U x Y), pairs (f0, f1),
counterexamples Z = U x Y, and matrix

    alpha(i, u, f1(u, y)) -> beta(i, f0(u), y)   over I*W*Z.

Its prenex form, exists-w forall-z, must be the implication of the two
prenex forms, exists-u forall-x alpha -> exists-v forall-y beta, in
P(I).  That holds where the doctrine validates the principles the
clause rests on (powerset-2x2, the Kripke doctrine over chain2) and
fails over the fork frame, a root below two worlds.  The matrix is built
by `_kernels.reindex_mask` and the fibre's `imp`, the prenex forms are
read through `D.along`, and nothing here is taken from `dial`.
"""
import itertools
import random

import pytest

from dialectica import _kernels as K
from dialectica.doctrine import kripke_doctrine, powerset_doctrine
from dialectica.fincat import FinObj
from dialectica.freeness import FreenessAnalyzer
from dialectica.posets import FinitePoset, chain_poset

POW = powerset_doctrine((2, 2))
CHAIN = kripke_doctrine(chain_poset(2), (2, 2))
FORK = kripke_doctrine(FinitePoset("rab", [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2)]), (2, 2))


def prenex(D, outer, inner):
    """exists along outer's left projection after forall along inner's."""
    forall, exists = D.along("forall", inner.proj_left), D.along("exists", outer.proj_left)
    return lambda alpha: exists(forall(alpha))


def side(D, I, U, X):
    """The prenex form over I of a predicate over I*U*X."""
    iu = D.product(I, U)
    return prenex(D, iu, D.product(iu.obj, X))


def clause(D, I, U, X, V, Y):
    """The two pullbacks of the matrix, (alpha -> alpha(i, u, f1(u, y)),
    beta -> beta(i, f0(u), y)), and (matrix -> its prenex form), with
    W listed as (f0, f1) index tables and Z = U*Y."""
    ni, nu, nx, nv, ny = I.size, U.size, X.size, V.size, Y.size
    ws = list(itertools.product(itertools.product(range(nv), repeat=nu),
                                itertools.product(range(nx), repeat=nu * ny)))
    W = FinObj(f"W{nu}{nx}{nv}{ny}", [(k,) for k in range(len(ws))])
    iw = D.product(I, W)
    iwz = D.product(iw.obj, D.product(U, Y).obj)
    points = [(i, f0, f1, u, y) for i in range(ni) for f0, f1 in ws
              for u in range(nu) for y in range(ny)]
    m1 = [(i * nu + u) * nx + f1[u * ny + y] for i, f0, f1, u, y in points]
    m2 = [(i * nv + f0[u]) * ny + y for i, f0, f1, u, y in points]
    nw = D.nw
    return (lambda alpha: K.reindex_mask(alpha, m1, nw),
            lambda beta: K.reindex_mask(beta, m2, nw), D.fibre(iwz.obj).imp,
            prenex(D, iw, iwz))


def mismatches(D, I, cases):
    """How many (U, X, V, Y, alphas, betas) pairs break the clause, and
    how many were checked."""
    fib = D.fibre(I)
    bad = checked = 0
    for U, X, V, Y, alphas, betas in cases:
        pull_a, pull_b, imp, gamma = clause(D, I, U, X, V, Y)
        pa, pb = side(D, I, U, X), side(D, I, V, Y)
        bs = [(pull_b(b), pb(b)) for b in betas]
        for a in alphas:
            ma, va = pull_a(a), pa(a)
            for mb, vb in bs:
                bad += gamma(imp(ma, mb)) != fib.imp(va, vb)
                checked += 1
    return bad, checked


def every_matrix(D, pool=None):
    """Over I = 1: every alpha and beta that ``pool`` lists (default:
    all), for U, X, V, Y in {1, A}."""
    one, A = D.universe[0], D.universe[1]
    pool = pool or (lambda obj: D.fibre(obj).elements())
    over = lambda U, X: pool(D.product(D.product(one, U).obj, X).obj)
    return one, [(U, X, V, Y, over(U, X), over(V, Y))
                 for U, X, V, Y in itertools.product((one, A), repeat=4)]


def seeded_matrices(D, count=300, seed=0):
    """Over I = A: ``count`` seeded pairs, each alpha and beta drawn
    column by column (a fibre over A*A*A can overrun the cap)."""
    one, A = D.universe[0], D.universe[1]
    rng = random.Random(seed)
    cols = D.fibre(one).elements()
    draw = lambda n: sum(rng.choice(cols) << k * D.nw for k in range(n))
    cases = []
    for _ in range(count):
        U, X, V, Y = (rng.choice((one, A)) for _ in range(4))
        cases.append((U, X, V, Y, [draw(2 * U.size * X.size)], [draw(2 * V.size * Y.size)]))
    return A, cases


@pytest.mark.parametrize("D, checked", [(POW, 676), (CHAIN, 10404)], ids=["powerset", "chain2"])
def test_every_matrix_over_the_terminal_object(D, checked):
    assert mismatches(D, *every_matrix(D)) == (0, checked)


@pytest.mark.parametrize("D", [POW, CHAIN], ids=["powerset", "chain2"])
def test_seeded_matrices_over_a_wide_base(D):
    assert mismatches(D, *seeded_matrices(D)) == (0, 300)


def test_the_fork_frame_breaks_the_clause():
    """The negative control: over the fork the prenex form of the
    implication and the implication of the prenex forms part, on the
    seeded pairs and on every matrix over 1 whose alpha or beta is over
    1*1*1 (all of them would be 462 400).  On quantifier-free matrices,
    the paper's hypothesis, they agree (checked here but for the 6 561
    pairs over A*A on both sides, which take a second and also agree)."""
    assert mismatches(FORK, *seeded_matrices(FORK)) == (8, 300)
    one, cases = every_matrix(FORK)
    assert mismatches(FORK, one, [c for c in cases if c[:2] == (one, one)
                                  or c[2:4] == (one, one)]) == (94, 6775)
    one, cases = every_matrix(FORK, FreenessAnalyzer(FORK).qfree_elements)
    assert mismatches(FORK, one, [c for c in cases if one in c[:4]]) == (0, 3843)
