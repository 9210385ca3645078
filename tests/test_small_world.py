"""An exhaustive small world: every monodromy a word of at most three of
``random_symplectic``'s generators reaches, on the four splits of rank 4
and below, checked by `verify` at the row bound n* (ROADMAP item 17).

The generators are the transvections x -> x +- <x, v> v with v a basis
vector or a sum of two, applied as ``random_symplectic`` applies them: the
columns p(i), i in the support of v, gain -+<e_p(i), e_i> (A v).  Short
words keep A close to the identity, so det A[D, C] = 0 (ROADMAP item 21)
and the defect of ``compute_b1`` (ROADMAP item 9) are common here; their
counts are pinned below.
"""
from itertools import combinations

import pytest

from swtorsion.linalg import det_int, signed_pencil, transpose
from swtorsion.surface import SurfaceModel, random_symplectic
from swtorsion.tqft import Presentation, compute_b1, verify_main_identity
from conftest import block_b1

DEPTH = 3


def generators(surface: SurfaceModel) -> list:
    """(support, direction) for every generator of ``random_symplectic``."""
    n = surface.rank
    supports = [(k,) for k in range(n)] + list(combinations(range(n), 2))
    return [(support, direction) for support in supports
            for direction in (1, -1)]


def apply(surface: SurfaceModel, cols: tuple, support, direction) -> tuple:
    """The columns of A times one generator, as ``random_symplectic``
    updates them."""
    out = [list(col) for col in cols]
    image = [sum(col) for col in zip(*(cols[i] for i in support))]
    for i in support:
        p, s = surface._signed_partners[i]
        step = -direction * s
        out[p] = [a + step * b for a, b in zip(out[p], image)]
    return tuple(map(tuple, out))


def small_world(surface: SurfaceModel, depth: int = DEPTH) -> set:
    """The column tuples of every product of at most ``depth`` generators."""
    identity = tuple(tuple(int(i == j) for j in range(surface.rank))
                     for i in range(surface.rank))
    seen, frontier = {identity}, {identity}
    moves = generators(surface)
    for _ in range(depth):
        frontier = {apply(surface, cols, *move)
                    for cols in frontier for move in moves} - seen
        seen |= frontier
    return seen


# (g, N): presentations, delta = 0, delta = 0 with p = 0, b1 disagreements
COUNTS = {(1, 1): (3863, 839, 775, 220),
          (0, 2): (3863, 1673, 1673, 172),
          (2, 0): (3863, 0, 0, 0),
          (0, 1): (81, 9, 9, 2)}
IDS = ["g{}-N{}".format(*split) for split in COUNTS]


@pytest.mark.parametrize("g, N", list(COUNTS), ids=IDS)
def test_verify_holds_at_the_row_bound_on_every_short_word(g, N):
    G = g + N
    surface = SurfaceModel(G, (N, g))
    world = small_world(surface)
    nstar = max(2 * g, 2 * N * (G - 1))
    singular = vanishing = disagree = 0
    for cols in world:
        P = Presentation.from_matrix(g, N, transpose(cols))
        mat = P.monodromy.mat
        assert verify_main_identity(P, nstar).passed
        if det_int(tuple(row[:N] for row in mat[N:2 * N])) == 0:
            singular += 1
            vanishing += not any(signed_pencil(mat, N))
        disagree += compute_b1(P) != block_b1(P)
    assert (len(world), singular, vanishing, disagree) == COUNTS[g, N]


@pytest.mark.parametrize("g, N", list(COUNTS), ids=IDS)
def test_short_random_words_lie_in_the_small_world(g, N):
    # the generators above are random_symplectic's own
    surface = SurfaceModel(g + N, (N, g))
    world = small_world(surface)
    for words in range(DEPTH + 1):
        for seed in range(20):
            A = random_symplectic(surface, words, seed)
            assert transpose(A.mat) in world
