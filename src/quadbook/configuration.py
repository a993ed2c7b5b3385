"""Exact configurations of quadric coefficient vectors and coordinate surgery on them.

A configuration holds the n rational vectors in Q^k that cut out a generic
intersection of quadrics, plus one distinguished coordinate used by the half
manifold and the open book constructions.  All arithmetic is exact rational;
floating point never enters any predicate.

Weak hyperbolicity and the dual complex rest on one face predicate: does the
origin lie in the convex hull of some primitive integer rays, those of
`Configuration.class_rays`?  `_phase_one` decides it by a phase-one simplex
with fraction-free integer pivoting and Bland's rule, exact and
deterministic.  The objective row is kept apart from the tableau, and one
fraction-free pivot step, `_pivot`, rewrites only the rows it changes.
`_vertices` takes one phase one on all the class rays, then walks the
vertices of their polytope with the same pivot step; the walk proves or
refutes weak hyperbolicity, and `complexes` reads the class complex off
its vertices.  `validate` takes the walk where the upper bound theorem
prices it below the top-size search, one phase one per class set of size
min(m, k) on a tableau built from columns set up once per input
(`_fresh_start`); the search also names the least witness after a fault
on the walk.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Sequence


# keys each package memo keeps; one CLI request uses at most 3 in any of them
MEMO_SIZE = 64


class QuadbookError(Exception):
    """Base error for this package."""


class ConfigurationError(QuadbookError):
    """Structurally malformed input: wrong shapes, bad indices, parse failures."""


class InvalidConfigurationError(QuadbookError):
    """An operation required weak hyperbolicity and the configuration lacks it."""

    def __init__(self, message: str, witness: tuple[int, ...] | None = None):
        super().__init__(message)
        self.witness = witness


class SizeCapError(QuadbookError):
    """Subset enumeration refused because the configuration exceeds the cap."""


class NormalFormError(QuadbookError):
    """No odd cyclic normal form exists for the given configuration."""


class OpenBookError(QuadbookError):
    """Open book construction rejected: the coordinate carries no book."""


class OracleMismatchError(QuadbookError):
    """An internal cross-check failed.  This signals a bug, not bad input."""


class ParseError(QuadbookError):
    """An external input document could not be parsed."""


def as_rational(value) -> Fraction:
    """Parse an exact rational from an int, a Fraction, or a string like '3/5'.

    Floats are rejected on purpose: every predicate in this package is a strict
    convex-position test and must stay exact.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ConfigurationError(f"not an exact rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if "e" in value.lower():
            # exponent notation lets a few characters denote an integer of any size
            raise ConfigurationError(f"not an exact rational: {value!r}")
        try:
            result = Fraction(value.strip())
            str(result)  # reports print every input rational; refuse one too long to print
            return result
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigurationError(f"not an exact rational: {value!r}") from exc
    raise ConfigurationError(f"not an exact rational: {value!r}")


@dataclass(frozen=True)
class Configuration:
    """n rational vectors in Q^k with one distinguished coordinate (1-based).

    The distinguished coordinate is the one the half manifold is cut along.
    It defaults to coordinate 1.  The constructor alone parses entries (ints,
    Fractions or rational strings, by `as_rational`), so each entry is one
    canonical `Fraction` and the dataclass fields compare and hash as they
    are.  In the same pass it groups the coordinates by primitive integer
    ray: ``class_rays`` holds each distinct ray in first-occurrence order and
    ``classes`` the coordinates on it.  Every predicate is invariant under
    positive scaling of a vector, so the coordinates of one class are
    interchangeable, and the class rays are the face predicate's only input.
    """

    k: int
    lambdas: tuple[tuple[Fraction, ...], ...]
    labels: tuple[str, ...] = ()
    distinguished: int = 1

    def __post_init__(self):
        if not _is_int(self.k) or self.k < 1:
            raise ConfigurationError(f"k must be a positive integer, got {self.k!r}")
        # every count is refused before any vector is parsed, so a long input is refused at once
        n = len(self.lambdas)
        if not _is_int(self.distinguished):
            raise ConfigurationError(
                f"distinguished coordinate must be an integer, got {self.distinguished!r}")
        if not 1 <= self.distinguished <= n:
            raise ConfigurationError(f"distinguished coordinate {self.distinguished} out of range")
        if n < self.k + 1:
            raise ConfigurationError(
                f"need n >= k + 1 (got n = {n}, k = {self.k}); "
                "otherwise the variety has negative dimension"
            )
        labels = tuple(self.labels) if self.labels else tuple(f"x{i}" for i in range(1, n + 1))
        if len(labels) != n:
            raise ConfigurationError(f"{len(labels)} labels for {n} coordinates")
        bad = next((label for label in labels if not isinstance(label, str)), None)
        if bad is not None:
            raise ConfigurationError(f"labels must be strings, got {bad!r}")
        # one walk: each distinct raw vector is checked, parsed and rayed at its
        # first coordinate; the key holds the entry types too, since
        # (1, 0) == (1.0, 0.0) and only one is exact
        seen: dict[tuple, tuple[tuple[Fraction, ...], list[int]]] = {}
        groups: dict[tuple[int, ...], list[int]] = {}
        vectors = [None] * n  # filled in place: grown by append, it peaks 8 MB higher at n = 10^6
        for pos, vec in enumerate(self.lambdas, start=1):
            raw = tuple(vec)
            key = (raw, tuple(map(type, raw)))
            try:
                hit = seen.get(key)
            except TypeError:  # an unhashable entry, which as_rational refuses
                hit = None
            if hit is None:
                if len(raw) != self.k:
                    raise ConfigurationError(f"vector {pos} has length {len(raw)}, expected k = {self.k}")
                vector = tuple(map(as_rational, raw))
                # as_rational takes only Fraction, int and str, all hashable, so
                # an unhashable key was refused on the line above
                hit = seen[key] = vector, groups.setdefault(_ray(vector), [])
            vectors[pos - 1] = hit[0]
            hit[1].append(pos)
        object.__setattr__(self, "lambdas", tuple(vectors))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "class_rays", tuple(groups))
        object.__setattr__(self, "classes", tuple(map(tuple, groups.values())))

    @property
    def n(self) -> int:
        return len(self.lambdas)

    @property
    def dim_Z(self) -> int:
        """Dimension of the real variety."""
        return self.n - self.k - 1

    @property
    def dim_ZC(self) -> int:
        """Dimension of the complex (moment-angle) variety."""
        return 2 * self.n - self.k - 1

    def vector(self, i: int) -> tuple[Fraction, ...]:
        """The i-th coefficient vector, 1-based."""
        if not 1 <= i <= self.n:
            raise ConfigurationError(f"coordinate {i} out of range 1..{self.n}")
        return self.lambdas[i - 1]

    def with_distinguished(self, i: int) -> "Configuration":
        if i == self.distinguished:
            return self
        return Configuration(self.k, self.lambdas, self.labels, i)

    def __repr__(self):
        vecs = ", ".join("(" + ",".join(str(x) for x in v) + ")" for v in self.lambdas)
        return f"Configuration(k={self.k}, n={self.n}, [{vecs}], distinguished={self.distinguished})"


def make_configuration(vectors: Iterable[Sequence], *, k: int | None = None,
                       labels: Sequence[str] | None = None,
                       distinguished: int = 1) -> Configuration:
    """Build a configuration from any iterable of rational vectors."""
    vecs = tuple(map(tuple, vectors))
    if not vecs:
        raise ConfigurationError("empty configuration")
    kk = k if k is not None else len(vecs[0])
    return Configuration(kk, vecs, tuple(labels) if labels else (), distinguished)


def _is_int(value) -> bool:
    # True and False (JSON true/false too) are ints to Python, but not indices
    return isinstance(value, int) and not isinstance(value, bool)


def _ray(vec: Sequence[Fraction]) -> tuple[int, ...]:
    """The primitive integer ray of vec: the positive multiple of it with coprime integer entries."""
    scale = math.lcm(*(x.denominator for x in vec))
    ints = [x.numerator * (scale // x.denominator) for x in vec]
    g = math.gcd(*ints)
    return tuple(a // g for a in ints) if g > 1 else tuple(ints)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the weak hyperbolicity check.

    ``witness`` is the lexicographically smallest subset J with |J| <= k whose
    convex hull contains the origin, or None when the configuration is valid.
    """

    ok: bool
    witness: tuple[int, ...] | None = None

    def __bool__(self):
        return self.ok


def _phase_one(tab: list[list[int]], basis: list[int],
               objective: list[int]) -> tuple[tuple[int, ...] | None, int]:
    """Find x >= 0 with Ax = b by Bland's rule, from [A | b] with b >= 0 on its artificial basis.

    The objective row, kept apart from `tab`, sums the rows whose basic
    variable is artificial (a column past A): all of them at the start, so
    it is passed in as the column sums.  The result is None iff no feasible
    point exists, else the columns of the positive basic variables at the
    end, ascending; it comes with D = det B > 0 for the final basis B.
    `tab` and `basis` are left in their final state, `tab` as D * B^-1
    [A | b], so that a walk over the vertices may go on from there with the
    same pivot step (`_pivot`).
    """
    width = len(tab[0]) - 1
    d = 1
    while True:
        # Bland: the first column with a negative reduced cost enters
        for entering in range(width):
            if objective[entering] > 0:
                break
        else:
            if objective[width]:
                return None, d
            return tuple(sorted([j for j, row in zip(basis, tab) if j < width and row[width] > 0])), d
        leave = None
        for i, row in enumerate(tab):
            a = row[entering]
            if a > 0:
                if leave is None:
                    leave, lead = i, row
                    continue
                # ratio b_i / a against the best b / a, by cross-multiplication
                cross = row[width] * lead[entering] - lead[width] * a
                if cross < 0 or (cross == 0 and basis[i] < basis[leave]):
                    leave, lead = i, row
        if leave is None:
            raise OracleMismatchError("phase-one simplex found an unbounded direction")
        # the objective row is a sum of rows, so it is pivoted as one; the
        # leaving row's term, if there, (p * lead - p * lead) / D cancels
        p, f = lead[entering], objective[entering]
        if d == 1:
            objective = [p * x - f * y for x, y in zip(objective, lead)]
        else:
            objective = [(p * x - f * y) // d for x, y in zip(objective, lead)]
        d = _pivot(tab, basis, leave, entering, d)


def _pivot(tab: list[list[int]], basis: list[int], leave: int, entering: int, d: int) -> int:
    """One fraction-free pivot: column `entering` replaces the basic variable of row `leave`.

    `tab` is D * B^-1 [A | b] for the basis B in `basis`, D = det B > 0, and
    the pivot p must be positive; it is returned as the new D.  Signs and
    ratios stay those of B^-1 [A | b], so the pivots are the rational
    simplex's, and entries stay integers: a row's division by the previous
    D is exact.  Rows are replaced, never edited, so a shallow copy of `tab`
    keeps its state; a row with a 0 in the entering column is left as it is
    while p = D, and no division is made while D = 1.
    """
    lead = tab[leave]
    p = lead[entering]
    for i, row in enumerate(tab):
        f = row[entering]
        if i == leave or (not f and p == d):
            continue
        if d == 1:
            tab[i] = [p * x - f * y for x, y in zip(row, lead)]
        else:
            tab[i] = [(p * x - f * y) // d for x, y in zip(row, lead)]
    basis[leave] = entering
    return p


def _fresh_start(rays: Sequence[Sequence[int]]) -> Callable[[Sequence[int]], tuple]:
    """Fresh phase ones on subsets of these rays, with their columns set up once.

    The result maps positions s to the arguments of `_phase_one` for the rays
    at s: [A | b] with a row of ones last, so that b = (0, ..., 0, 1), its
    artificial basis, and its objective row, the column sums.
    """
    columns = [(*ray, 1) for ray in rays]
    sums = [sum(column) for column in columns]
    b = (0,) * len(rays[0]) + (1,)

    def start(s: Sequence[int]) -> tuple[list[list[int]], list[int], list[int]]:
        tab = list(map(list, zip(*map(columns.__getitem__, s), b)))
        return tab, list(range(len(s), len(s) + len(b))), [*map(sums.__getitem__, s), 1]

    return start


@lru_cache(maxsize=MEMO_SIZE)
def _vertices(rays: tuple[tuple[int, ...], ...]) -> tuple[int, ...] | str:
    """The vertices of the class polytope as basis masks, () if it is empty, or the fault met on it.

    The class polytope is P = {x >= 0 : sum x_c (ray_c, 1) = (0, 1)}.  Its
    points with support in J make a face of P, so the rays are weakly
    hyperbolic iff every vertex has k + 1 positive coordinates.  One phase
    one on all the rays finds a first vertex.  From a vertex with k + 1
    positive basic values each class outside its basis names one edge, and
    one ratio test its far end, which is again such a vertex unless the
    test ties or finds no row (Avis-Fukuda, A pivoting algorithm for convex
    hulls and vertex enumeration, 1992).  Each unseen neighbour costs one
    pivot (`_pivot`): V - 1 pivots for V vertices, each kept as its basis,
    a class mask, in the order the walk meets it.  So a walk with no fault
    has met the whole graph of P and proves the rays valid, and a fault
    refutes them and is returned as a message: a first vertex on fewer than
    k + 1 classes, or a ratio test with a tie or with no row.
    """
    tab, basis, objective = _fresh_start(rays)(range(len(rays)))
    found, d = _phase_one(tab, basis, objective)
    if found is None:
        return ()
    if len(found) < len(basis):
        return f"the class polytope has a vertex on {len(found)} classes, not {len(basis)}"
    width = len(rays)
    keys = [sum(1 << j for j in basis)]
    seen = set(keys)
    pending = [(tab, basis, d, keys[0])]
    while pending:
        tab, basis, d, key = pending.pop()
        for entering in range(width):
            if key >> entering & 1:
                continue
            leave, tie = None, False
            for i, row in enumerate(tab):
                a = row[entering]
                if a > 0:
                    if leave is None:
                        leave, lead = i, row
                        continue
                    # ratio b_i / a against the best b / a, by cross-multiplication
                    cross = row[width] * lead[entering] - lead[width] * a
                    if cross < 0:
                        leave, lead, tie = i, row, False
                    elif cross == 0:
                        tie = True
            if leave is None or tie:
                return "a ratio test found no row or a tie on the class polytope"
            step = key ^ 1 << basis[leave] ^ 1 << entering
            if step not in seen:
                seen.add(step)
                keys.append(step)
                tab_next, basis_next = tab[:], basis[:]
                d_next = _pivot(tab_next, basis_next, leave, entering, d)
                pending.append((tab_next, basis_next, d_next, step))
    return tuple(keys)


def _vertex_bound(m: int, d: int) -> int:
    """The most vertices a simple d-polytope with m facets has, and 1 for d <= 0.

    McMullen's upper bound theorem (1970): the dual of the cyclic polytope
    attains it.  A valid input's class polytope has m facets or fewer and
    dimension m - k - 1, so it bounds the vertex walk before it starts.
    """
    if d <= 0:
        return 1
    return math.comb(m - (d + 1) // 2, d // 2) + math.comb(m - d // 2 - 1, (d + 1) // 2 - 1)


def _walk_is_cheaper(m: int, k: int) -> bool:
    """Whether the vertex walk on m classes in Q^k is priced below the top-size search.

    A vertex costs m - k ratio tests and pivots, of k + 1 rows each, at
    most; a top-size class set costs one phase one of k + 1 rows.
    """
    return _vertex_bound(m, m - k - 1) * (m - k) < math.comb(m, min(m, k)) * (k + 1)


@lru_cache(maxsize=MEMO_SIZE)
def _first_failure(rays: tuple[tuple[int, ...], ...]) -> tuple[int, ...] | None:
    """The least class subset of size <= k whose rays hold the origin, or None.

    Holding the origin passes to supersets, so the sets of size top = min(m, k)
    decide validity, and the least failing set is the first failing one of
    them, ``first``, unless a smaller one comes before it in tuple order.  A
    failing S that is not some (0, ..., j - 1) cannot: adding the least
    missing elements gives a failing top-size set before S.  And if
    (0, ..., j - 1) fails, so does (0, ..., top - 1), which is then
    ``first``.  So only that case tests the prefixes of ``first``: an
    invalid input costs at most top - 1 phase ones more than its top-size
    search.  Where the vertex walk is priced below that search
    (`_walk_is_cheaper`), it runs first: with no fault it proves the rays
    valid, and on a fault the search names the least witness, so a fault
    that the search does not confirm raises OracleMismatchError.  Keyed on
    the class rays alone, so labels, scale and multiplicity share one
    search.
    """
    m, k = len(rays), len(rays[0])
    walked = _vertices(rays) if _walk_is_cheaper(m, k) else None
    if walked is not None and not isinstance(walked, str):
        return None
    start = _fresh_start(rays)

    def holds(s: tuple[int, ...]) -> bool:
        return _phase_one(*start(s))[0] is not None

    top = min(m, k)
    first = next(filter(holds, itertools.combinations(range(m), top)), None)
    if first is None and walked is not None:
        raise OracleMismatchError(f"{walked}, but no class set of size {top} holds the origin")
    if first != tuple(range(top)):
        return first
    return next(filter(holds, (first[:j] for j in range(1, top))), first)


def validate(cfg: Configuration) -> ValidationReport:
    """Check weak hyperbolicity: no J with |J| <= k has the origin in conv(lambda_J).

    Whether conv(lambda_J) holds the origin depends only on the ray classes J
    meets, so the decision runs on class subsets (`_first_failure`): by the
    vertex walk of the class polytope where that is priced cheaper, else or
    on a fault by the class sets of size min(m, k).  Only a failure is
    mapped back to coordinates.
    """
    rays, classes, k = cfg.class_rays, cfg.classes, cfg.k
    first = _first_failure(rays)
    if first is None:
        return ValidationReport(True)
    if len(rays) == cfg.n:  # one coordinate per class: class c is coordinate c + 1
        return ValidationReport(False, tuple(c + 1 for c in first))
    start = _fresh_start(rays)

    @lru_cache(maxsize=None)
    def fails(s: tuple[int, ...]) -> bool:  # the class sets before `first` all hold up
        return s == first if s <= first else _phase_one(*start(s))[0] is not None

    def least(prefix: tuple[int, ...], class_set: tuple[int, ...]) -> tuple[int, ...] | None:
        """The least tuple of at most k coordinates extending prefix whose class set fails.

        A class offers only its least coordinate past the prefix: a later one
        gives the same class set in a larger tuple.
        """
        if prefix and fails(class_set):
            return prefix
        if len(prefix) == k:
            return None
        last = prefix[-1] if prefix else 0
        nxt = sorted((members[bisect.bisect(members, last)], c)
                     for c, members in enumerate(classes) if members[-1] > last)
        return next(filter(None, (least(prefix + (j,), tuple(sorted({*class_set, c})))
                                  for j, c in nxt)), None)

    return ValidationReport(False, least((), ()))


def require_valid(cfg: Configuration) -> None:
    report = validate(cfg)
    if not report.ok:
        raise InvalidConfigurationError(
            f"configuration is not weakly hyperbolic, witness J = {report.witness}",
            report.witness,
        )


def delete_coordinate(cfg: Configuration, i: int) -> Configuration:
    """Drop coordinate i.  Models the boundary slice when i is distinguished."""
    if not 1 <= i <= cfg.n:
        raise ConfigurationError(f"coordinate {i} out of range 1..{cfg.n}")
    labels = cfg.labels[: i - 1] + cfg.labels[i:]
    d = cfg.distinguished
    if d == i:
        d = 1
    elif d > i:
        d -= 1
    vectors = cfg.lambdas[: i - 1] + cfg.lambdas[i:]
    return Configuration(cfg.k, vectors, labels, d)


def duplicate_coordinate(cfg: Configuration, i: int) -> Configuration:
    """Insert a second copy of lambda_i right after position i.

    The new copy becomes the distinguished coordinate; the pair is labelled
    with 'a'/'b' suffixes derived from the parent label.
    """
    if not 1 <= i <= cfg.n:
        raise ConfigurationError(f"coordinate {i} out of range 1..{cfg.n}")
    vec = cfg.lambdas[i - 1]
    vectors = cfg.lambdas[:i] + (vec,) + cfg.lambdas[i:]
    parent = cfg.labels[i - 1]
    labels = cfg.labels[: i - 1] + (parent + "a", parent + "b") + cfg.labels[i:]
    return Configuration(cfg.k, vectors, labels, i + 1)


def complexify(cfg: Configuration) -> Configuration:
    """The 2n-vector configuration with every lambda_i doubled.

    The real variety of the result is diffeomorphic to the complex variety of
    the input, so this is the coordinate model of the moment-angle manifold.
    """
    vectors = tuple(vec for vec in cfg.lambdas for _ in "ab")
    labels = tuple(label + suffix for label in cfg.labels for suffix in "ab")
    return Configuration(cfg.k, vectors, labels, 2 * cfg.distinguished - 1)
