"""Seeded input generators for the quadbook benchmark.

Nothing here imports quadbook: the inputs, and the facts the oracles need
about them, come from the construction alone.

Each workload has a fixed design: a cycle of strata drawn once from a constant
seed, which fixes sizes, partitions, ray multiplicities and coordinate order.
The run seed draws a fresh realisation of every stratum, a linear change of
coordinates (``realise``), so every seed does the same combinatorial work on
new exact inputs.  ``cases(workload, seed)`` is the endless request stream: request
i realises stratum ``i % cycle_length(workload)``.
"""

from __future__ import annotations

import math
import random
from itertools import combinations
from math import gcd

WORKLOADS = {
    "k2-session": (
        "the paper's main path: k = 2 normal form, homology, open book and dual complex; "
        "a third of the inputs repeat rays as distinct multiples"
    ),
    "dense-k34": (
        "k = 3 and 4 in general position, every ray distinct: LP dual enumeration and "
        "Morse/SNF, with the ray-class and normal-form code bypassed"
    ),
    "screen-large-n": (
        "check only on long configurations: validate alone, half full scans and half "
        "early exits at a planted antipodal pair"
    ),
}


def cases(workload: str, seed: int):
    """Endless stream of case dicts: ``doc`` (the input document) and ``expect``."""
    make, design = _DESIGNS[workload]
    rng = random.Random(f"{workload}:{seed}")
    i = 0
    while True:
        yield make(rng, design[i % len(design)])
        i += 1


def cycle_length(workload: str) -> int:
    return len(_DESIGNS[workload][1])


def document(k: int, vectors) -> dict:
    return {"schema": 1, "k": k, "n": len(vectors),
            "lambdas": [[int(x) for x in v] for v in vectors]}


def canonical_cycle(parts) -> tuple[int, ...]:
    """Least tuple over the rotations and reflections of a cyclic sequence."""
    parts = tuple(parts)
    return min(seq[r:] + seq[:r] for seq in (parts, parts[::-1]) for r in range(len(parts)))


def primitive(vec) -> tuple[int, ...]:
    g = 0
    for x in vec:
        g = gcd(g, int(x))
    return tuple(int(x) // g for x in vec)


def ray_dup_count(vectors) -> int:
    """Coordinates whose primitive ray is shared with a different exact vector."""
    exact_by_ray: dict[tuple, set] = {}
    for v in vectors:
        exact_by_ray.setdefault(primitive(v), set()).add(tuple(v))
    return sum(1 for v in vectors if len(exact_by_ray[primitive(v)]) > 1)


def det(rows) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for c in range(n - 1):
        if a[c][c] == 0:
            swap = next((r for r in range(c + 1, n) if a[r][c] != 0), None)
            if swap is None:
                return 0
            a[c], a[swap] = a[swap], a[c]
            sign = -sign
        for r in range(c + 1, n):
            for j in range(c + 1, n):
                a[r][j] = (a[r][j] * a[c][c] - a[r][c] * a[c][j]) // prev
        prev = a[c][c]
    return sign * a[n - 1][n - 1]


def general_position(vectors, k: int) -> bool:
    """Every k of the vectors are linearly independent (exact determinants)."""
    if k == 2:
        # the 2 x 2 case inlined: it runs over C(190, 2) pairs
        return all(a * d != b * c for (a, b), (c, d) in combinations(vectors, 2))
    return all(det(sub) != 0 for sub in combinations(vectors, k))


def _cross(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def realise(vectors, rng: random.Random) -> list[tuple[int, ...]]:
    """A fresh exact copy of a design configuration: lambda_i -> M lambda_i.

    M = 16 I + E with E in {-1, 0, 1}^(k x k) is invertible (diagonally
    dominant).  Whether the origin lies in the hull of a subset is invariant
    under M, so validity, the witness, the dual complex, every homology group
    and (for k = 2) the normal form are the design's, and exact copies and
    positive or negative multiples stay what they were.  M stays near a
    multiple of the identity, so the work the exact LP does barely depends on
    the seed; a far-off map changes its pivots and the cost of one request by
    up to half.
    """
    k = len(vectors[0])
    M = [[16 * (r == c) + rng.randint(-1, 1) for c in range(k)] for r in range(k)]
    return [tuple(sum(M[r][j] * v[j] for j in range(k)) for r in range(k)) for v in vectors]


# ---------------------------------------------------------------------------
# k2-session


def _k2_design() -> tuple:
    """Strata of (vectors, normal form) for k = 2.

    n runs over 5..9 with 3..7 classes.  Shapes with n <= 8 come three times
    each (with their own partitions and rays); n = 9 comes with 3 classes
    only, because one n = 9 request with 5 or more classes costs 3 to 5 s, as
    much as twenty small ones, and a run must hold enough requests for its
    percentiles to settle within its time budget.  Each class gets a random
    number of distinct rays; every third stratum writes repeated rays as
    distinct positive multiples instead of exact copies.
    """
    counts = {(5, 3): 3, (5, 5): 3, (6, 3): 3, (6, 5): 3, (7, 3): 3, (7, 5): 3, (7, 7): 3,
              (8, 3): 3, (8, 5): 3, (8, 7): 3, (9, 3): 2}
    shapes = [shape for shape, count in counts.items() for _ in range(count)]
    rng = random.Random("k2-design")
    out = []
    for n, m in shapes:
        cuts = sorted(rng.sample(range(1, n), m - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        scaled = len(out) % 3 == 0
        # Class c sits in a window of half-width pi/(4m) around vertex c of a
        # regular m-gon.  For odd m every antipode then lies near a midpoint
        # between vertices, so the classes are exactly the windows.
        phase = rng.uniform(0, 2 * math.pi)
        classes = []
        for c, size in enumerate(parts):
            centre = phase + 2 * math.pi * c / m
            rays: list[tuple[int, int]] = []
            distinct = rng.randint(1, size)
            while len(rays) < distinct:
                angle = centre + rng.uniform(-1, 1) * math.pi / (4 * m)
                ray = primitive((round(1000 * math.cos(angle)), round(1000 * math.sin(angle))))
                if ray not in rays:
                    rays.append(ray)
            rays.sort(key=lambda r: math.atan2(r[1], r[0]) - centre + 4 * math.pi)
            mult = [1] * len(rays)
            for _ in range(size - len(rays)):
                mult[rng.randrange(len(rays))] += 1
            vectors = [(x * f, y * f) for (x, y), copies in zip(rays, mult)
                       for f in (range(1, copies + 1) if scaled else [1] * copies)]
            classes.append((rays, vectors))
        _check_k2_classes([rays for rays, _ in classes])
        # Coordinates go class by class, which fixes coordinate 1, the
        # distinguished one that carries the open book.  Order changes how
        # much work the face search and Morse reduction do, so it belongs to
        # the design, not to the seed.
        book = rng.randrange(m)
        order = classes[book:] + classes[:book]
        out.append((tuple(v for _, vectors in order for v in vectors),
                    list(canonical_cycle(parts))))
    return _interleave(out)


def k2_case(rng: random.Random, stratum) -> dict:
    vectors, normal_form = stratum
    return {"doc": document(2, realise(vectors, rng)), "expect": {"normal_form": normal_form}}


def _check_k2_classes(classes) -> None:
    """Exact check that the windows are the classes the construction promises.

    No antipode may fall in the closed arc spanned by a class, and every gap
    between consecutive classes must hold one.
    """
    antipodes = [(-x, -y) for rays in classes for (x, y) in rays]
    for c, rays in enumerate(classes):
        lo, hi = rays[0], rays[-1]
        for a in antipodes:
            inside = _cross(lo, a) >= 0 and _cross(a, hi) >= 0
            if inside and lo[0] * a[0] + lo[1] * a[1] > 0:
                raise RuntimeError("k2 generator: an antipode fell inside a class")
        nxt = classes[(c + 1) % len(classes)][0]
        if not any(_cross(hi, a) > 0 and _cross(a, nxt) > 0 for a in antipodes):
            raise RuntimeError("k2 generator: no antipode between consecutive classes")


# ---------------------------------------------------------------------------
# dense-k34


def _dense_design() -> tuple:
    """Fixed general-position configurations whose variety is nonempty.

    Sizes span k = 3 with n 8..11 and k = 4 with n 9..11, weighted toward the
    smaller ones so that a run holds dozens of requests.  k = 4, n = 12 is
    left out: one such request takes 2 to 6 s, as long as forty small ones.
    """
    counts = {(3, 8): 6, (3, 9): 6, (3, 10): 4, (3, 11): 1,
              (4, 9): 6, (4, 10): 4, (4, 11): 1}
    rng = random.Random("dense-design")
    out = []
    for (k, n), count in counts.items():
        for _ in range(count):
            while True:
                base = [tuple(rng.randint(-30, 30) for _ in range(k)) for _ in range(k)]
                weights = [rng.randint(1, 3) for _ in range(k)]
                # minus a positive combination of the first k: the origin is in
                # the hull, so the variety is nonempty
                closing = tuple(-sum(w * v[r] for w, v in zip(weights, base)) for r in range(k))
                rest = [tuple(rng.randint(-30, 30) for _ in range(k)) for _ in range(n - k - 1)]
                vectors = base + [closing] + rest
                if general_position(vectors, k):
                    out.append(tuple(vectors))
                    break
    return _interleave(out)


def _interleave(strata: list) -> tuple:
    """Reorder a cycle so that any stretch of it mixes light and heavy strata."""
    step = next(s for s in (7, 11, 13) if gcd(s, len(strata)) == 1)
    return tuple(strata[(j * step) % len(strata)] for j in range(len(strata)))


def dense_case(rng: random.Random, stratum) -> dict:
    return {"doc": document(len(stratum[0]), realise(stratum, rng)), "expect": {}}


# ---------------------------------------------------------------------------
# screen-large-n


PLANT_BINS = 4


def _screen_design() -> tuple:
    """(vectors, planted pair or None): every size once clean and once planted.

    Clean inputs are points on the moment curve with random signs and
    positive scales: every k of them are independent (Vandermonde), so the set
    is weakly hyperbolic.  A planted input replaces vector b by a negative
    multiple of vector a, with a drawn from one of four bins along the
    coordinates; the k = 2 sizes take one bin each, so early exits and full
    scans mix alike in every run.  k = 2 sizes stop at 190: one full scan there
    takes about 2.5 s, and at n = 300 about 6 s.
    """
    sizes = ((2, 100, 3), (3, 25, 0), (2, 130, 2), (4, 14, 1), (3, 32, 2),
             (2, 160, 1), (4, 16, 3), (2, 190, 0))
    rng = random.Random("screen-design")
    out = []
    for k, n, bin_ in sizes:
        spread = {2: 10 ** 6, 3: 1000, 4: 100}[k]
        for planted in (False, True):
            vectors = []
            for t in rng.sample(range(-spread, spread + 1), n):
                scale = rng.choice((-1, 1)) * rng.randint(1, 5)
                vectors.append(tuple(scale * t ** p for p in range(k)))
            pair = None
            if planted:
                a = 1 + int((bin_ + rng.random()) / PLANT_BINS * (n - 1))
                b = rng.randint(a + 1, n)
                scale = rng.randint(1, 3)
                vectors[b - 1] = tuple(-scale * x for x in vectors[a - 1])
                pair = [a, b]
            out.append((tuple(vectors), pair))
    return tuple(out)


def screen_case(rng: random.Random, stratum) -> dict:
    vectors, pair = stratum
    return {"doc": document(len(vectors[0]), realise(vectors, rng)),
            "expect": {"planted": pair}}


def expected_witness(a: int, b: int, k: int) -> list[int]:
    """Lexicographically least sorted index tuple of size <= k holding a and b.

    When every set of at most k vectors that lacks the pair is independent,
    the subsets whose hull holds the origin are exactly those with {a, b}.
    """
    out: list[int] = []
    need = [a, b]
    nxt = 1
    while need:
        if k - len(out) > len(need) and nxt < need[0]:
            out.append(nxt)
            nxt += 1
        else:
            out.append(need.pop(0))
            nxt = out[-1] + 1
    return out


_DESIGNS = {
    "k2-session": (k2_case, _k2_design()),
    "dense-k34": (dense_case, _dense_design()),
    "screen-large-n": (screen_case, _screen_design()),
}
