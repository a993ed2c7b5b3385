import itertools
import math
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import quadbook as qb
from quadbook.complexes import dual_face_masks
from quadbook.configuration import _fresh_start, _phase_one, _pivot, _ray, as_rational

import helpers


PENTAGON = qb.partition_configuration((1, 1, 1, 1, 1))
TRIANGLE = qb.partition_configuration((1, 1, 1))

# the pentagon polytope is itself a pentagon; its vertices sit on the facet
# pairs that are NOT cyclically adjacent in the vector configuration
PENTAGON_VERTEX_PAIRS = {(1, 3), (1, 4), (2, 4), (2, 5), (3, 5)}


def _mask(indices) -> int:
    return sum(1 << (i - 1) for i in indices)


def _face_oracle(cfg, pinned) -> bool:
    """The face pinning these facets is nonempty iff the other vectors span the origin."""
    rest = [cfg.vector(i) for i in range(1, cfg.n + 1) if i not in pinned]
    return helpers.brute_origin_in_hull(rest)


def _rays(vectors) -> tuple[tuple[int, ...], ...]:
    """The primitive ray the constructor makes of each rational vector."""
    return tuple(_ray([as_rational(x) for x in vec]) for vec in vectors)


def test_origin_in_convex_hull_examples():
    assert helpers.hull_support([(1, 0)]) is None
    assert helpers.hull_support([(1, 0), (-1, 0)]) is not None
    assert helpers.hull_support(PENTAGON.class_rays) is not None
    for pair in itertools.combinations(PENTAGON.class_rays, 2):
        assert helpers.hull_support(pair) is None
        assert not helpers.brute_origin_in_hull(pair)


def test_origin_in_convex_hull_matches_brute_force():
    rng = random.Random(11)
    for _ in range(200):
        k = rng.choice((2, 3))
        vectors = helpers.random_vectors(rng, k, rng.randint(1, k + 2))
        assert (helpers.hull_support(_rays(vectors)) is not None) == helpers.brute_origin_in_hull(vectors)


def _degenerate_vectors(rng, k, scale):
    """A few random vectors plus zero, repeated, multiple, antipodal and collinear ones."""
    base = [tuple(rng.randint(-3, 3) * scale + rng.randint(-1, 1) for _ in range(k))
            for _ in range(rng.randint(1, 3))]
    vectors = list(base)
    for _ in range(rng.randint(1, 4)):
        u, v = rng.choice(base), rng.choice(base)
        kind = rng.choice(("zero", "repeat", "multiple", "antipode", "collinear"))
        if kind == "zero":
            w = (0,) * k
        elif kind == "repeat":
            w = u
        elif kind == "collinear":  # on the line through u and v
            w = tuple(2 * b - a for a, b in zip(u, v))
        else:
            w = tuple((1 if kind == "multiple" else -1) * rng.randint(1, 3) * a for a in u)
        vectors.insert(rng.randint(0, len(vectors)), w)
    return vectors


def test_origin_in_convex_hull_degenerate_inputs():
    rng = random.Random(29)
    found = 0
    for _ in range(240):
        k = rng.choice((2, 3, 4))
        vectors = _degenerate_vectors(rng, k, rng.choice((1, 10 ** 40)))
        expected = helpers.brute_origin_in_hull(vectors)
        found += expected
        # the support is a real witness: its vectors alone hold the origin
        support = helpers.hull_support(vectors)
        assert (support is not None) == expected, vectors
        assert support is None or helpers.brute_origin_in_hull([vectors[i] for i in support])
        # positive rational rescaling, given as Fractions and as strings, changes no ray and no answer
        rays = _rays(vectors)
        assert (helpers.hull_support(rays) is not None) == expected, vectors
        scaled = [[Fraction(a, d) for a in v] for v, d in
                  zip(vectors, (rng.randint(1, 10 ** 6) for _ in vectors))]
        assert _rays(scaled) == rays
        assert _rays([[str(a) for a in v] for v in scaled]) == rays
    assert helpers.hull_support(_rays([(0, 0)])) is not None
    assert helpers.hull_support(_rays([("1/3", "-2/7"), ("-5/3", "10/7")])) is not None
    assert helpers.hull_support(_rays([("1/3", "-2/7"), ("5/3", "-10/7")])) is None
    assert 40 < found < 200  # both answers are well represented


@st.composite
def _phase_one_inputs(draw):
    """Small integer rays (zero, repeated, antipodal and collinear ones come up often) and two masks."""
    k = draw(st.integers(2, 4))
    rays = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * k), min_size=1, max_size=7))
    masks = st.integers(0, (1 << len(rays)) - 1)
    return rays, draw(masks), draw(masks)


@given(_phase_one_inputs())
@settings(max_examples=300, deadline=None)
def test_fresh_phase_one_makes_blands_pivots(data):
    rays, kept, _ = data
    # a solve on all the rays, and the validate walk's solve on some of them:
    # the final basis pins every entering and leaving choice on the way
    tab, basis, objective = _fresh_start(rays)(range(len(rays)))
    support, _ = _phase_one(tab, basis, objective)
    assert (basis, support) == helpers.reference_phase_one(rays)
    kept = [i for i in range(len(rays)) if kept >> i & 1]
    if kept:
        start = _fresh_start(rays)(kept)
        support, _ = _phase_one(*start)
        assert (start[1], support) == helpers.reference_phase_one([rays[i] for i in kept])


def _determinant(rows) -> int:
    """By the Leibniz formula, for the small square matrices of these tests."""
    total = 0
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        total += (-1) ** inversions * math.prod(row[j] for row, j in zip(rows, perm))
    return total


@given(_phase_one_inputs())
@settings(max_examples=300, deadline=None)
def test_phase_one_leaves_d_times_the_inverse_basis(data):
    rays, columns, rows = data
    # the state the vertex walk starts from, after a solve, found or not, and
    # after one more pivot on a positive entry that the masks pick: tab =
    # D * B^-1 [A | b] and D = det B > 0, recomputed with Fractions from the
    # final basis (an artificial column is a unit vector); each pivot is
    # positive, so det B keeps its sign
    tab, basis, objective = _fresh_start(rays)(range(len(rays)))
    start = [row[:] for row in tab]  # [A | b]
    n = len(rays)
    _, d = _phase_one(tab, basis, objective)
    for step in range(2):
        columns_at = [[row[j] if j < n else int(j - n == r) for r, row in enumerate(start)] for j in basis]
        B = [list(row) for row in zip(*columns_at)]
        assert d == _determinant(B) > 0
        reduced, pivots = helpers._row_reduce([b_row + a_row for b_row, a_row in zip(B, start)])
        assert pivots[:len(B)] == list(range(len(B)))
        assert tab == [[d * x for x in row[len(B):]] for row in reduced]
        choices = [(i, j) for j in range(n) if j not in basis and columns >> j & 1
                   for i, row in enumerate(tab) if row[j] > 0]
        if step or not choices:
            break
        leave, entering = choices[rows % len(choices)]
        d = _pivot(tab, basis, leave, entering, d)
        assert basis[leave] == entering


def test_face_nonempty_empty_subset():
    assert 0 in dual_face_masks(PENTAGON)
    assert 0 in dual_face_masks(TRIANGLE)


def test_pentagon_vertex_pairs():
    masks = set(dual_face_masks(PENTAGON))
    pairs = {pair for pair in itertools.combinations(range(1, 6), 2) if _mask(pair) in masks}
    assert pairs == PENTAGON_VERTEX_PAIRS
    for pair in itertools.combinations(range(1, 6), 2):
        assert _face_oracle(PENTAGON, pair) == (pair in PENTAGON_VERTEX_PAIRS)


def test_triangle_facets_all_empty():
    for i in range(1, 4):
        assert _mask([i]) not in dual_face_masks(TRIANGLE)
        assert not _face_oracle(TRIANGLE, [i])


def test_face_monotonicity():
    rng = random.Random(23)
    for _ in range(40):
        cfg = helpers.random_valid_configuration(rng, 2, rng.randint(4, 6))
        masks = set(dual_face_masks(cfg))
        L = frozenset(rng.sample(range(1, cfg.n + 1), rng.randint(0, cfg.n - 1)))
        if _mask(L) not in masks:
            extra = rng.choice([i for i in range(1, cfg.n + 1) if i not in L])
            assert _mask(L | {extra}) not in masks


def test_defining_system_matches_face_masks():
    rng = random.Random(5)
    for _ in range(30):
        cfg = helpers.random_valid_configuration(rng, rng.choice((2, 3)), rng.randint(4, 7))
        L = frozenset(rng.sample(range(1, cfg.n + 1), rng.randint(0, cfg.n)))
        assert (_mask(L) in dual_face_masks(cfg)) == _face_oracle(cfg, L)
    # higher k, where the vertex walk pivots through many vertices: every subset
    for k in (4, 5):
        cfg = helpers.random_valid_configuration(rng, k, 8)
        masks = set(dual_face_masks(cfg))
        for size in range(cfg.n + 1):
            for L in itertools.combinations(range(1, cfg.n + 1), size):
                assert (_mask(L) in masks) == _face_oracle(cfg, L), (cfg, L)
    # positive-multiple copies share a ray class; every subset is checked
    for _ in range(10):
        k = rng.choice((2, 3))
        base = helpers.random_valid_configuration(rng, k, rng.randint(k + 1, 5))
        copies = []
        for _ in range(rng.randint(1, 2)):
            factor = rng.randint(1, 4)
            copies.append(tuple(factor * x for x in base.vector(rng.randint(1, base.n))))
        cfg = qb.make_configuration(list(base.lambdas) + copies, k=k)
        assert len(cfg.classes) < cfg.n
        masks = set(dual_face_masks(cfg))
        for size in range(cfg.n + 1):
            for L in itertools.combinations(range(1, cfg.n + 1), size):
                assert (_mask(L) in masks) == _face_oracle(cfg, L), (cfg, L)
