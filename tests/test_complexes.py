import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import quadbook as qb
from quadbook import GradedGroup
from quadbook.complexes import _homology_from_masks, dual_face_masks, invariant_chain
from quadbook.reporting import dual_complex_report

import helpers
from helpers import closure_masks, snf


HOLLOW_TRIANGLE = closure_masks([(1, 2), (1, 3), (2, 3)])
OCTAHEDRON = closure_masks([(a, b, c) for a in (1, 2) for b in (3, 4) for c in (5, 6)])
RP2 = closure_masks(
    [(1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 6), (1, 5, 6),
     (2, 3, 5), (2, 3, 6), (2, 4, 6), (3, 4, 5), (4, 5, 6)],
)


def _labels(mask):
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def _restrict(masks, J):
    """The full subcomplex on the labels J."""
    keep = sum(1 << (v - 1) for v in J)
    return [f for f in masks if f & ~keep == 0]


# ---------------------------------------------------------------------------
# graded groups


def test_invariant_chain():
    assert invariant_chain([2, 3]) == (6,)
    assert invariant_chain([2, 4]) == (2, 4)
    assert invariant_chain([6, 4]) == (2, 12)
    assert invariant_chain([1, 1]) == ()
    assert invariant_chain([]) == ()


def _prime_exponents(value: int) -> dict[int, int]:
    """The prime factorisation of a positive integer, by trial division."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= value:
        while value % p == 0:
            out[p] = out.get(p, 0) + 1
            value //= p
        p += 1
    if value > 1:
        out[value] = out.get(value, 0) + 1
    return out


@given(st.lists(st.integers(-720, 720), max_size=8))
@settings(max_examples=300, deadline=None)
def test_invariant_chain_keeps_each_primes_exponents(values):
    chain = invariant_chain(values)
    assert 1 not in chain
    assert all(b % a == 0 for a, b in zip(chain, chain[1:]))

    def exponents(nums):
        """Per prime, the sorted exponents with which it divides the nonzero entries of nums."""
        out: dict[int, list[int]] = {}
        for v in nums:
            if v:
                for p, e in _prime_exponents(abs(v)).items():
                    out.setdefault(p, []).append(e)
        return {p: sorted(es) for p, es in out.items()}

    assert exponents(chain) == exponents(values)


def test_graded_group_basics():
    g = GradedGroup.from_parts({0: 1, 2: 3}, {1: [2, 2]})
    assert g.rank(2) == 3 and g.rank(5) == 0
    assert g.torsion(1) == (2, 2)
    assert g.betti(3) == (1, 0, 3, 0)
    assert (g + g).rank(2) == 6
    assert (g + g).torsion(1) == (2, 2, 2, 2)
    assert g.shift(2).rank(4) == 3
    assert str(GradedGroup.zero()) == "0"
    assert g.euler() == 1 + 3


# ---------------------------------------------------------------------------
# smith normal form


def test_snf_examples():
    assert snf([[2, 0], [0, 3]]) == ((1, 6), 2)
    assert snf([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == ((1, 1, 1), 3)
    assert snf([[2, 4], [6, 8]]) == ((2, 4), 2)
    assert snf([[0]]) == ((), 0)


def test_snf_divisibility_and_idempotence():
    rng = random.Random(3)
    for _ in range(50):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        diag, rank = snf(m)
        assert len(diag) == rank
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0
        # idempotence: the diagonal matrix is its own normal form
        square = [[0] * len(diag) for _ in diag]
        for i, d in enumerate(diag):
            square[i][i] = d
        assert snf(square) == (diag, rank)


def _random_unimodular(rng, size):
    m = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    for _ in range(6):
        a, b = rng.sample(range(size), 2) if size > 1 else (0, 0)
        if a == b:
            continue
        f = rng.randint(-2, 2)
        for j in range(size):
            m[a][j] += f * m[b][j]
    return m


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_snf_unimodular_invariance():
    rng = random.Random(41)
    for _ in range(100):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        u = _random_unimodular(rng, rows)
        v = _random_unimodular(rng, cols)
        assert snf(_matmul(u, _matmul(m, v))) == snf(m)


def _det(m):
    if len(m) == 1:
        return m[0][0]
    total = 0
    for j, head in enumerate(m[0]):
        if head:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * head * _det(minor)
    return total


def test_snf_determinant_and_gcd_oracle():
    # first invariant factor = gcd of the entries; their product = |det|
    from math import gcd
    rng = random.Random(99)
    for _ in range(60):
        size = rng.randint(1, 4)
        m = [[rng.randint(-6, 6) for _ in range(size)] for _ in range(size)]
        diag, rank = snf(m)
        det = _det(m)
        if det == 0:
            assert rank < size
        else:
            assert rank == size
            product = 1
            for d in diag:
                product *= d
            assert product == abs(det)
        entry_gcd = 0
        for row in m:
            for x in row:
                entry_gcd = gcd(entry_gcd, abs(x))
        if rank:
            assert diag[0] == entry_gcd


# ---------------------------------------------------------------------------
# reduced homology


def test_homology_hollow_triangle():
    assert _homology_from_masks(HOLLOW_TRIANGLE) == GradedGroup.single(1)


def test_homology_two_points():
    two = closure_masks([(1,), (2,)])
    assert _homology_from_masks(two) == GradedGroup.single(0)


def test_homology_octahedron():
    assert _homology_from_masks(OCTAHEDRON) == GradedGroup.single(2)


def _free_ranks(group):
    return {d: r for d, r, _ in group.groups if r}


def test_homology_matches_rank_oracle():
    # independent check over Q: Betti from boundary ranks by Gaussian elimination
    assert helpers.rational_betti(OCTAHEDRON) == {2: 1}
    assert helpers.rational_betti(HOLLOW_TRIANGLE) == {1: 1}
    assert helpers.rational_betti(RP2) == {}  # its only homology, Z/2 in degree 1, dies over Q
    for masks in (OCTAHEDRON, HOLLOW_TRIANGLE, RP2):
        assert _free_ranks(_homology_from_masks(masks)) == helpers.rational_betti(masks)


def test_homology_torsion_projective_plane():
    assert _homology_from_masks(RP2) == GradedGroup.from_parts({}, {1: (2,)})


def test_homology_conventions_void_and_empty():
    assert _homology_from_masks([]) == GradedGroup.single(-1)
    only_empty = closure_masks([()])
    assert _homology_from_masks(only_empty) == GradedGroup.single(-1)
    point = closure_masks([(1,)])
    assert _homology_from_masks(point).is_zero


@st.composite
def small_complexes(draw):
    n = draw(st.integers(1, 5))
    count = draw(st.integers(1, 6))
    faces = [
        tuple(sorted(draw(st.sets(st.integers(1, n), min_size=1, max_size=n))))
        for _ in range(count)
    ]
    return n, faces


@given(small_complexes())
@settings(max_examples=60, deadline=None)
def test_homology_matches_rank_oracle_on_random_complexes(data):
    _, faces = data
    K = closure_masks(faces)
    assert _free_ranks(_homology_from_masks(K)) == helpers.rational_betti(K)


@given(small_complexes())
@settings(max_examples=60, deadline=None)
def test_cone_is_acyclic(data):
    n, faces = data
    apex = n + 1
    coned = [f + (apex,) for f in faces] + list(faces)
    K = closure_masks(coned)
    assert _homology_from_masks(K).is_zero


@given(small_complexes(), st.permutations(list(range(1, 7))))
@settings(max_examples=60, deadline=None)
def test_homology_relabel_invariance(data, perm):
    n, faces = data
    K = closure_masks(faces)
    mapping = {i: perm[i - 1] for i in range(1, n + 1)}
    relabelled = closure_masks([mapping[v] for v in _labels(f)] for f in K)
    assert _homology_from_masks(K) == _homology_from_masks(relabelled)


@given(small_complexes())
@settings(max_examples=60, deadline=None)
def test_euler_characteristic_vs_face_count(data):
    n, faces = data
    K = closure_masks(faces)
    group = _homology_from_masks(K)
    from_homology = sum((-1) ** d * group.rank(d) for d in group.degrees)
    from_faces = sum((-1) ** (f.bit_count() - 1) for f in K)
    assert from_homology == from_faces


# ---------------------------------------------------------------------------
# full subcomplexes and the dual complex


PENTAGON = qb.partition_configuration((1, 1, 1, 1, 1))
PENTAGON_K = list(dual_face_masks(PENTAGON))


def test_full_subcomplex_identity():
    assert _restrict(PENTAGON_K, range(1, 6)) == PENTAGON_K


def test_full_subcomplex_pentagon_restrictions():
    # K is the 5-cycle 1-3-5-2-4; restricting to {1,2,3} leaves the single
    # edge {1,3} plus the isolated vertex 2
    sub = _restrict(PENTAGON_K, (1, 2, 3))
    assert _homology_from_masks(sub) == GradedGroup.single(0)
    assert 0b101 in sub
    # {1,3} is an edge of K, hence contractible as a full subcomplex
    assert _homology_from_masks(_restrict(PENTAGON_K, (1, 3))).is_zero
    # {1,2} consists of two isolated vertices
    assert _homology_from_masks(_restrict(PENTAGON_K, (1, 2))) == GradedGroup.single(0)


def test_dual_complex_triangle_is_empty_face_only():
    report = dual_complex_report(qb.partition_configuration((1, 1, 1)))
    assert report["maximal_faces"] == [[]]
    assert report["dim"] == -1


def test_dual_complex_pentagon_is_five_cycle():
    edges = {tuple(f) for f in dual_complex_report(PENTAGON)["maximal_faces"]}
    assert edges == {(1, 3), (1, 4), (2, 4), (2, 5), (3, 5)}
    # brute-force cross-check of every face against the hull oracle
    for size in range(0, 4):
        for L in itertools.combinations(range(1, 6), size):
            rest = [PENTAGON.vector(i) for i in range(1, 6) if i not in L]
            assert (sum(1 << (i - 1) for i in L) in PENTAGON_K) == helpers.brute_origin_in_hull(rest)


def test_dual_complex_octahedron():
    K = list(dual_face_masks(qb.partition_configuration((2, 2, 2))))
    expected = closure_masks([(a, b, c) for a in (1, 2) for b in (3, 4) for c in (5, 6)])
    assert K == expected
    assert _homology_from_masks(K) == GradedGroup.single(2)


def _read_off_masks(cfg):
    """face_count, dim and maximal faces read off the expanded coordinate faces."""
    masks = dual_face_masks(cfg)
    covered = {f & ~(1 << i) for f in masks for i in range(cfg.n) if f >> i & 1}
    maximal = sorted((list(_labels(f)) for f in masks if f not in covered),
                     key=lambda face: (len(face), face))
    return len(masks), max((f.bit_count() for f in masks), default=0) - 1, maximal


def test_dual_complex_report_reads_the_class_complex():
    partitions = ((1, 1, 1), (1,) * 5, (2, 2, 2), (2, 1, 1, 1, 1), (1, 2, 2, 2, 2), (1,) * 7)
    configs = [qb.partition_configuration(p) for p in partitions] + helpers.duality_corpus()
    rng = random.Random(61)
    configs += [helpers.with_repeated_rays(rng, qb.partition_configuration(p), 3) for p in partitions]
    configs += [
        qb.make_configuration([(1, 0), (2, 0), (-1, 1), ("-1/2", "1/2"), (-1, -1), (-3, -3)]),
        qb.make_configuration([(1, 0), (1, 1), (0, 1)]),  # void
        qb.make_configuration([(1, 0), (2, 0), (1, 1), (0, 3), (0, 1)]),  # void, with repeated rays
    ]
    for k in (2, 3, 4):  # random inputs with repeated rays, some of them void
        for _ in range(8):
            cfg = helpers.random_valid_configuration(rng, k, rng.randint(k + 1, k + 4), require_nonempty=False)
            configs.append(helpers.with_repeated_rays(rng, cfg, rng.randint(1, 3)))
    saw_void = False
    for cfg in configs:
        report = dual_complex_report(cfg)
        assert (report["face_count"], report["dim"], report["maximal_faces"]) == _read_off_masks(cfg), cfg
        assert report["faces"] == sorted((list(_labels(f)) for f in dual_face_masks(cfg)),
                                         key=lambda face: (len(face), face))
        saw_void |= report["void"]
    assert saw_void


def test_dual_complex_requires_validity():
    bad = qb.make_configuration([(1, 0), (-1, 0), (0, 1)], k=2)
    with pytest.raises(qb.InvalidConfigurationError):
        dual_face_masks(bad)


def test_class_walk_runs_one_phase_one_and_one_pivot_per_further_vertex(monkeypatch):
    import quadbook.complexes

    rng = random.Random(17)
    configs = [qb.partition_configuration((1,) * 11), qb.partition_configuration((1,) * 13)]
    configs += [helpers.random_valid_configuration(rng, k, k + 7) for k in (3, 4, 5)]
    for cfg in configs:
        calls = {"_phase_one": 0, "_pivot": 0}  # the walk's own pivots; the phase one's are not counted
        for name in calls:
            def counted(*args, name=name, original=getattr(quadbook.complexes, name)):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(quadbook.complexes, name, counted)
        rays = cfg.class_rays
        masks, non_faces = quadbook.complexes._class_faces.__wrapped__(rays)  # past the memo
        monkeypatch.undo()
        assert non_faces == tuple(sorted(helpers.minimal_non_faces(masks, len(rays))))
        # each maximal face is the zero set of one vertex, reached by one pivot from a seen one
        faces = set(masks)
        maximal = [t for t in masks if not any(t | 1 << c in faces for c in range(len(rays)) if not t >> c & 1)]
        assert calls == {"_phase_one": 1, "_pivot": len(maximal) - 1}, cfg
        assert {t.bit_count() for t in maximal} == {len(rays) - cfg.k - 1}  # a simple polytope


def test_class_walk_refuses_rays_that_are_not_weakly_hyperbolic():
    import quadbook.complexes

    # an antipodal pair: the polytope has a vertex on 2 classes, not k + 1 = 3;
    # the phase one lands on it, or the walk meets it as a ratio tie
    for vectors, match in (([(1, 0), (-1, 0), (0, 1), (0, -1)], "a vertex on 2 classes, not 3"),
                           ([(1, 1), (-1, 1), (0, -1), (1, 0), (-1, 0)], "a tie")):
        cfg = qb.make_configuration(vectors)
        assert not qb.validate(cfg).ok
        with pytest.raises(qb.OracleMismatchError, match=match):
            quadbook.complexes._class_faces.__wrapped__(cfg.class_rays)


def _degenerate_valid_configuration(rng, k):
    """A valid configuration on at most 8 coordinates with repeated, collinear and positively dependent rays."""
    while True:
        vectors = [tuple(int(x) for x in v) for v in helpers.random_vectors(rng, k, rng.randint(k + 1, 6))]
        for _ in range(rng.randint(1, min(3, 8 - len(vectors)))):
            u, v = rng.sample(vectors, 2)
            kind = rng.choice(("repeat", "collinear", "dependent"))
            if kind == "repeat":
                w = tuple(rng.randint(1, 3) * a for a in u)
            elif kind == "collinear":  # on the line through u and v
                w = tuple(2 * b - a for a, b in zip(u, v))
            else:  # in the cone of u and v
                w = tuple(a + b for a, b in zip(u, v))
            if any(w):
                vectors.insert(rng.randint(0, len(vectors)), w)
        cfg = qb.make_configuration(vectors, k=k)
        if qb.validate(cfg).ok and helpers.hull_support(cfg.class_rays) is not None:
            return cfg


def test_class_faces_match_the_brute_hull_oracle_on_every_class_set():
    # On a valid input a hull point needs k + 1 rays (Caratheodory), so every
    # vertex the walk meets is nondegenerate, though the rays repeat, lie on
    # one line or depend positively on each other.
    from quadbook.complexes import class_face_masks

    rng = random.Random(43)
    shared = 0
    for k, count in ((2, 6), (3, 5), (4, 3), (5, 2)):  # the oracle's cost grows fast with k
        for _ in range(count):
            cfg = _degenerate_valid_configuration(rng, k)
            rays = cfg.class_rays
            shared += len(rays) < cfg.n
            faces = set(class_face_masks(cfg))
            for t in range(1 << len(rays)):
                outside = [ray for c, ray in enumerate(rays) if not t >> c & 1]
                assert (t in faces) == helpers.brute_origin_in_hull(outside), (cfg, t)
    assert shared  # some inputs repeat a ray


def test_graded_group_refuses_a_negative_rank():
    with pytest.raises(qb.ConfigurationError, match="negative rank -1 in degree 0"):
        GradedGroup.from_parts({0: -1})
