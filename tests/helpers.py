"""Independent oracles, corpus builders and engine adapters shared by the test modules.

The oracles are deliberately written from scratch against the definitions,
not by calling the package's own code paths: exhaustive enumeration for
convex-position and feasibility questions, plain rank arithmetic for homology
cross-checks.  The adapters (`closure_masks`, `snf`) only put test data into
the form the homology engine reads, and `hull_support` runs the engine's face
predicate on a list of integer rays.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import quadbook as qb
from quadbook.configuration import _fresh_start, _phase_one

F0 = Fraction(0)
F1 = Fraction(1)


def gaussian_solve(rows, rhs):
    """Solve A x = b exactly.  Returns (consistent, unique, solution or None)."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        aug[r] = [x / aug[r][c] for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                factor = aug[i][c]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            return False, False, None
    unique = len(pivots) == n
    if not unique:
        return True, False, None
    solution = [F0] * n
    for row_idx, c in enumerate(pivots):
        solution[c] = aug[row_idx][n]
    return True, True, solution


def brute_origin_in_hull(vectors) -> bool:
    """Exhaustive convex-combination solver over affinely independent supports."""
    vecs = [tuple(Fraction(x) for x in v) for v in vectors]
    if not vecs:
        return False
    k = len(vecs[0])
    for size in range(1, k + 2):
        for support in itertools.combinations(range(len(vecs)), size):
            rows = [[vecs[j][r] for j in support] for r in range(k)]
            rows.append([F1] * size)
            consistent, unique, sol = gaussian_solve(rows, [F0] * k + [F1])
            if consistent and unique and all(t >= 0 for t in sol):
                return True
    return False


def reference_first_failure(rays, k) -> tuple[tuple[int, ...] | None, int]:
    """The least subset of at most k positions whose rays hold the origin, and the sets tested.

    Every nonempty subset of size <= k is tested by `brute_origin_in_hull`, in
    tuple order, up to the first that holds the origin.
    """
    sets = sorted(itertools.chain.from_iterable(
        itertools.combinations(range(len(rays)), size) for size in range(1, k + 1)))
    for tested, s in enumerate(sets, start=1):
        if brute_origin_in_hull([rays[c] for c in s]):
            return s, tested
    return None, len(sets)


def hull_support(rays) -> tuple[int, ...] | None:
    """The engine's face predicate: the support of the hull point at the origin it finds, or None."""
    return _phase_one(*_fresh_start(rays)(range(len(rays))))[0]


def reference_phase_one(rays) -> tuple[list[int], tuple[int, ...] | None]:
    """Bland's phase one over Fractions, independent of the engine's integer pivots.

    The columns are the rays with a 1 appended, b = (0, ..., 0, 1), and one
    artificial per row, basic at the start.  Every step recomputes the
    artificial objective's reduced costs from the tableau; the first column
    that lowers it enters, and the least ratio leaves, ties to the least
    basic column.  Returns the final
    basis and the columns of its positive basic variables, ascending, or
    None for them if the objective stays positive.
    """
    n = len(rays)
    tab = [[Fraction(x) for x in (*row, 0)] for row in zip(*rays)] + [[F1] * (n + 1)]
    basis = list(range(n, n + len(tab)))
    while True:
        cost = [sum(row[j] for row, i in zip(tab, basis) if i >= n) for j in range(n + 1)]
        entering = next((j for j in range(n) if cost[j] > 0), None)
        if entering is None:
            break
        leave = min((i for i, row in enumerate(tab) if row[entering] > 0),
                    key=lambda i: (tab[i][n] / tab[i][entering], basis[i]))
        pivot_row = [x / tab[leave][entering] for x in tab[leave]]
        tab = [pivot_row if i == leave else [x - row[entering] * y for x, y in zip(row, pivot_row)]
               for i, row in enumerate(tab)]
        basis[leave] = entering
    if cost[n]:
        return basis, None
    return basis, tuple(sorted(j for j, row in zip(basis, tab) if j < n and row[n] > 0))


def _row_reduce(rows) -> tuple[list[list[Fraction]], list[int]]:
    """The reduced row echelon form of a rational matrix, its zero rows dropped, and its pivot columns."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    cols = len(m[0]) if m else 0
    for c in range(cols):
        rank = len(pivots)
        pivot = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        m[rank] = [x / m[rank][c] for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[rank])]
        pivots.append(c)
    return m[:len(pivots)], pivots


def matrix_rank(rows) -> int:
    return len(_row_reduce(rows)[1])


def left_kernel(rows) -> list[list[Fraction]]:
    """A basis of {x : x^T M = 0} for the matrix M with these rows: one vector per free column of M^T."""
    reduced, pivots = _row_reduce(zip(*rows))
    basis = []
    for free in (c for c in range(len(rows)) if c not in pivots):
        x = [F0] * len(rows)
        x[free] = F1
        for row, c in zip(reduced, pivots):
            x[c] = -row[free]
        basis.append(x)
    return basis


# the triangles of the 6-vertex projective plane
RP2_TRIANGLES = ((1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
                 (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6))


def rp2_configuration() -> qb.Configuration:
    """The Gale dual of a simple polytope whose facet complex on facets 1..6 is the 6-vertex RP^2.

    P is the 5-simplex {y : y_j >= 0, 1 - sum y >= 0}, whose facet slacks
    x_1..x_6 meet in every triangle, cut by sum_{i in s} x_i >= 8^-(j+1) for
    the j-th of the ten triangles s that RP^2 lacks, in lexicographic order;
    each cut takes its triangle out.  lambda_i is row i of a basis of the left
    kernel of the 16 x 6 matrix [A | b] of P = {y : Ay + b >= 0}, so that
    sum lambda_i x_i = 0 on P: n = 16, k = 10.  Hochster's formula puts
    H_1(RP^2) = Z/2 in H_8 of Z^C, and Alexander duality in H_12.
    """
    facets = [[int(i == j) for j in range(5)] + [0] for i in range(5)] + [[-1] * 5 + [1]]
    kept = {tuple(sorted(t)) for t in RP2_TRIANGLES}
    missing = [s for s in itertools.combinations(range(1, 7), 3) if s not in kept]
    cuts = [[sum(facets[i - 1][c] for i in s) for c in range(6)] for s in missing]
    for j, cut in enumerate(cuts):
        cut[5] -= Fraction(1, 8 ** (j + 1))
    kernel = left_kernel(facets + cuts)
    return qb.make_configuration(zip(*kernel), k=len(kernel))


def rational_betti(masks) -> dict[int, int]:
    """Reduced Betti numbers over Q, by degree, of a complex given by all its face bitmasks.

    Each is the cell count less the ranks of the boundary maps into and out of
    the degree, found by `matrix_rank` on the full boundary matrices in
    lexicographic vertex orientation; no cells are cancelled first.  The
    empty face is the cell of degree -1, so the numbers are reduced.  Zero
    numbers are left out.
    """
    by_dim: dict[int, list[int]] = {}
    for f in masks:
        by_dim.setdefault(f.bit_count() - 1, []).append(f)

    def boundary_rank(d):
        sources, targets = by_dim.get(d, []), by_dim.get(d - 1, [])
        if not sources or not targets:
            return 0
        index = {t: i for i, t in enumerate(targets)}
        rows = [[0] * len(sources) for _ in targets]
        for j, f in enumerate(sources):
            vertices = [v for v in range(f.bit_length()) if f >> v & 1]
            for t, v in enumerate(vertices):
                rows[index[f & ~(1 << v)]][j] = (-1) ** t
        return matrix_rank(rows)

    numbers = {d: len(cells) - boundary_rank(d) - boundary_rank(d + 1) for d, cells in by_dim.items()}
    return {d: b for d, b in numbers.items() if b}


def betti(group: qb.GradedGroup, top: int) -> tuple[int, ...]:
    return tuple(group.rank(d) for d in range(top + 1))


def closure_masks(faces) -> list[int]:
    """The downward closure of faces given as label sets, as sorted bitmasks (bit i-1 for label i)."""
    seen: set[int] = set()
    stack = [sum(1 << (v - 1) for v in set(face)) for face in faces]
    while stack:
        f = stack.pop()
        if f not in seen:
            seen.add(f)
            stack.extend(f & ~(1 << i) for i in range(f.bit_length()) if f >> i & 1)
    return sorted(seen)


def is_cone(faces) -> bool:
    """Whether a complex given by all its face bitmasks is a cone: f | v is a face for every face f.

    A simplex is a cone on each of its vertices.  The empty complex [0] has no
    vertex to be an apex, and a sphere has none either.
    """
    face_set = set(faces)
    support = 0
    for f in face_set:
        support |= f
    return any(all(f | 1 << v in face_set for f in face_set)
               for v in range(support.bit_length()) if support >> v & 1)


def minimal_non_faces(masks, m) -> set[int]:
    """Class sets on m classes that are no face of the complex masks while each of their facets is one."""
    faces = set(masks)
    above = {f | 1 << c for f in faces for c in range(m) if not f >> c & 1} - faces
    return {s for s in above if all(s & ~(1 << x) in faces for x in range(m) if s >> x & 1)}


def snf(matrix) -> tuple[tuple[int, ...], int]:
    """Smith normal form diagonal (d1 | d2 | ..., all positive) and rank, by the engine's elimination."""
    from quadbook.complexes import _snf_diagonal, invariant_chain

    diagonal = _snf_diagonal(matrix)
    chain = invariant_chain(diagonal)
    return (1,) * (len(diagonal) - len(chain)) + chain, len(diagonal)


def reference_self_check(cfg: qb.Configuration, parts, groups) -> bool:
    """Whether the polygon realisation of parts has the dual complex of cfg, coordinate by coordinate.

    Group p goes to part p in order; every coordinate face of cfg is relabelled
    onto the realisation and the two face sets are compared whole.
    """
    from quadbook.complexes import dual_face_masks

    realization = qb.partition_configuration(parts)
    position = {}
    offset = 0
    for group in groups:
        for step, coord in enumerate(sorted(group)):
            position[coord] = offset + step + 1
        offset += len(group)
    relabeled = set()
    for mask in dual_face_masks(cfg):
        new = 0
        for bit in range(cfg.n):
            if mask >> bit & 1:
                new |= 1 << (position[bit + 1] - 1)
        relabeled.add(new)
    return relabeled == set(dual_face_masks(realization))


def reference_homology_Z(cfg: qb.Configuration) -> qb.GradedGroup:
    """H(Z) summed from coordinate-level pair homologies, without ray classes.

    Coordinates are grouped by exact vector equality here; a subset that
    splits such a group restricts the dual complex to a cone and contributes
    nothing, so only unions of groups are visited.  Each restriction of
    `dual_face_masks` goes to the homology engine as it is, shifted by one for
    the pair and by nothing else.
    """
    from quadbook.complexes import _homology_from_masks, dual_face_masks

    faces = dual_face_masks(cfg)
    if not faces:
        return qb.GradedGroup.zero()
    groups: dict[tuple, int] = {}
    for i, vec in enumerate(cfg.lambdas):
        groups[vec] = groups.get(vec, 0) | 1 << i

    def restrictions(kept, masks):
        # each group is either in J or out of it; leaving it out drops its faces
        if not masks:
            yield kept
            return
        yield from restrictions(kept, masks[1:])
        yield from restrictions([f for f in kept if not f & masks[0]], masks[1:])

    return qb.GradedGroup.sum(_homology_from_masks(sub).shift(1)
                              for sub in restrictions(list(faces), list(groups.values())))


def reference_pair_table(cfg: qb.Configuration):
    """The splitting's nonzero class restrictions, each computed directly.

    Every class subset T filters the whole class face list, goes to the
    homology engine as it is and takes the wedge shift 1 + sum of (|c| - 1)
    over c in T: no ghost shortcut, no incremental build and no duality.
    """
    from quadbook.complexes import _homology_from_masks, class_face_masks

    class_faces = class_face_masks(cfg)
    if not class_faces:
        return ()
    classes = cfg.classes
    entries = []
    for t in range(1 << len(classes)):
        chosen = [members for c, members in enumerate(classes) if t >> c & 1]
        group = _homology_from_masks([f for f in class_faces if f & ~t == 0])
        group = group.shift(1 + sum(len(members) - 1 for members in chosen))
        if not group.is_zero:
            entries.append((tuple(sorted(itertools.chain(*chosen))), group))
    return tuple(sorted(entries, key=lambda entry: (len(entry[0]), entry[0])))


def reference_euler_cellcount(cfg: qb.Configuration) -> int:
    """chi(Z) summed over the coordinate faces of `dual_face_masks`.

    A face pinning |L| facets has dimension n-k-1-|L| and 2^(n-|L|)
    reflected copies; no class-level product formula is used.
    """
    from quadbook.complexes import dual_face_masks

    n, k = cfg.n, cfg.k
    return sum((-1) ** (n - k - 1 - f.bit_count()) * (1 << (n - f.bit_count()))
               for f in dual_face_masks(cfg))


def kunneth_sphere_ranks(dims) -> dict[int, int]:
    """Rank table of a product of spheres, computed by plain convolution."""
    acc = {0: 1}
    for d in dims:
        layer = {0: 2} if d == 0 else {0: 1, d: 1}
        nxt: dict[int, int] = {}
        for a, ra in acc.items():
            for b, rb in layer.items():
                nxt[a + b] = nxt.get(a + b, 0) + ra * rb
        acc = nxt
    return acc


def connected_sum_ranks(summand_dims, dim) -> dict[int, int]:
    """Rank table of a connected sum of sphere products of the same dimension."""
    ranks = {0: 1, dim: 1}
    for dims in summand_dims:
        table = kunneth_sphere_ranks(dims)
        for d, r in table.items():
            if 0 < d < dim:
                ranks[d] = ranks.get(d, 0) + r
    return {d: r for d, r in ranks.items() if r}


def odd_compositions(total: int) -> list[tuple[int, ...]]:
    """All tuples of positive integers with odd length >= 3 summing to total."""
    out = []
    for count in range(3, total + 1, 2):
        out.extend(_compositions(total, count))
    return out


def _compositions(total, count):
    if count == 1:
        return [(total,)] if total >= 1 else []
    result = []
    for first in range(1, total - count + 2):
        result.extend((first,) + rest for rest in _compositions(total - first, count - 1))
    return result


def partitions_up_to(limit: int) -> list[tuple[int, ...]]:
    out = []
    for total in range(3, limit + 1):
        out.extend(odd_compositions(total))
    return out


def random_vectors(rng, k, n):
    out = []
    while len(out) < n:
        vec = tuple(Fraction(rng.randint(-9, 9)) for _ in range(k))
        if any(vec):
            out.append(vec)
    return out


def random_configuration(rng, k, n) -> qb.Configuration:
    """A raw random configuration; may or may not be weakly hyperbolic."""
    return qb.make_configuration(random_vectors(rng, k, n), k=k)


def random_valid_configuration(rng, k, n, require_nonempty=True) -> qb.Configuration:
    """Rejection-sample a weakly hyperbolic configuration, nonempty by default."""
    while True:
        vecs = random_vectors(rng, k, n)
        cfg = qb.make_configuration(vecs, k=k)
        if not qb.validate(cfg).ok:
            continue
        if require_nonempty and hull_support(cfg.class_rays) is None:
            continue
        return cfg


def with_repeated_rays(rng, cfg, copies):
    """Insert `copies` extra coordinates, each an exact or a scaled copy of an existing one."""
    vectors = list(cfg.lambdas)
    for _ in range(copies):
        i = rng.randrange(len(vectors))
        scale = rng.choice((1, 1, 2, 3))
        vectors.insert(i + 1, tuple(scale * x for x in vectors[i]))
    return qb.make_configuration(vectors, k=cfg.k)


def duality_corpus() -> list[qb.Configuration]:
    """Partitions up to 8, random k = 3..5 inputs with repeated rays, and general-position k = 3, 4."""
    configs = [qb.partition_configuration(p) for p in partitions_up_to(8)]
    rng = random.Random(41)
    for k in (3, 4, 5):
        for _ in range(8):
            cfg = random_valid_configuration(rng, k, rng.randint(k + 2, 9))
            configs.append(with_repeated_rays(rng, cfg, rng.randint(0, 11 - cfg.n)))
    # the dense-k34 shape: general position, where most restrictions are
    # simplices or cones and skip the reduction
    for k in (3, 3, 3, 4, 4, 4):
        configs.append(random_valid_configuration(rng, k, rng.randint(10, 11)))
    return configs
