"""Exact configurations of quadric coefficient vectors and coordinate surgery on them.

A configuration holds the n rational vectors in Q^k that cut out a generic
intersection of quadrics, plus one distinguished coordinate used by the half
manifold and the open book constructions.  All arithmetic is exact rational;
floating point never enters any predicate.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence


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


@dataclass(frozen=True, eq=False)
class Configuration:
    """n rational vectors in Q^k with one distinguished coordinate (1-based).

    The distinguished coordinate is the one the half manifold is cut along.
    It defaults to coordinate 1.  The constructor alone parses entries (ints,
    Fractions or rational strings, by `as_rational`) and computes each
    coordinate's primitive integer ray once, in ``rays``; equality and the
    hash compare integers only.  In the same pass it groups the coordinates
    by ray: ``class_rays`` holds each distinct ray in first-occurrence order
    and ``classes`` the coordinates on it.  Every predicate is invariant under
    positive scaling of a vector, so the coordinates of one class are
    interchangeable, and the class rays are the face predicate's only input.
    """

    k: int
    lambdas: tuple[tuple[Fraction, ...], ...]
    labels: tuple[str, ...] = ()
    distinguished: int = 1

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 1:
            raise ConfigurationError(f"k must be a positive integer, got {self.k!r}")
        vectors = tuple(tuple(as_rational(x) for x in vec) for vec in self.lambdas)
        for pos, vec in enumerate(vectors, start=1):
            if len(vec) != self.k:
                raise ConfigurationError(
                    f"vector {pos} has length {len(vec)}, expected k = {self.k}"
                )
        n = len(vectors)
        if n < self.k + 1:
            raise ConfigurationError(
                f"need n >= k + 1 (got n = {n}, k = {self.k}); "
                "otherwise the variety has negative dimension"
            )
        labels = tuple(self.labels) if self.labels else tuple(f"x{i}" for i in range(1, n + 1))
        if len(labels) != n:
            raise ConfigurationError(f"{len(labels)} labels for {n} coordinates")
        if not 1 <= self.distinguished <= n:
            raise ConfigurationError(f"distinguished coordinate {self.distinguished} out of range")
        rays, coords = [], []
        groups: dict[tuple[int, ...], list[int]] = {}
        for i, vec in enumerate(vectors, start=1):
            ray, coord = _ray_and_key(vec)
            rays.append(ray)
            coords.append(coord)
            groups.setdefault(ray, []).append(i)
        key = (self.k, tuple(coords), labels, self.distinguished)
        object.__setattr__(self, "lambdas", vectors)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "rays", tuple(rays))
        object.__setattr__(self, "class_rays", tuple(groups))
        object.__setattr__(self, "classes", tuple(map(tuple, groups.values())))
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if not isinstance(other, Configuration):
            return NotImplemented
        return self._key == other._key

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


def _ray_and_key(vec: Sequence[Fraction]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The primitive integer ray of vec, and a key of integers: the ray, then g and s.

    vec = ray * g / s with g / s in lowest terms, so equal vectors, and only
    they, have equal keys.
    """
    scale = math.lcm(*(x.denominator for x in vec))
    ints = [x.numerator * (scale // x.denominator) for x in vec]
    g = math.gcd(*ints)
    ray = tuple(a // g for a in ints) if g > 1 else tuple(ints)
    return ray, (*ray, g, scale)


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


def _lex_subsets(m: int, k: int, prefix: tuple[int, ...] = ()):
    """Nonempty subsets of range(m) with at most k elements, lazily, in tuple order."""
    if len(prefix) < k:
        for c in range(prefix[-1] + 1 if prefix else 0, m):
            subset = prefix + (c,)
            yield subset
            yield from _lex_subsets(m, k, subset)


@lru_cache(maxsize=MEMO_SIZE)
def _first_failure(rays: tuple[tuple[int, ...], ...]) -> tuple[int, ...] | None:
    """The least class subset of size <= k whose rays hold the origin, or None.

    Holding the origin passes to supersets, so the sets of size min(m, k)
    decide validity.  The least failing set is the first of those or a smaller
    one before it in tuple order, which is then some (0, ..., j - 1): an
    invalid input costs at most one phase one more than a walk over every
    set.  Keyed on the class rays alone, so labels, scale and multiplicity
    share one walk.
    """
    from .feasibility import hull_support

    def holds(s: tuple[int, ...]) -> bool:
        return hull_support([rays[c] for c in s]) is not None

    top = min(len(rays), len(rays[0]))
    first = next(filter(holds, itertools.combinations(range(len(rays)), top)), None)
    before = itertools.takewhile(lambda s: s < first, _lex_subsets(len(rays), top - 1))
    return first and next(filter(holds, before), first)


def validate(cfg: Configuration) -> ValidationReport:
    """Check weak hyperbolicity: no J with |J| <= k has the origin in conv(lambda_J).

    Whether conv(lambda_J) holds the origin depends only on the ray classes J
    meets, so the search runs over class subsets, and a valid input tests only
    those of size min(m, k) (`_first_failure`).  Only a failure is mapped back
    to coordinates.
    """
    rays, classes, k = cfg.class_rays, cfg.classes, cfg.k
    first = _first_failure(rays)
    if first is None:
        return ValidationReport(True)
    if len(rays) == cfg.n:  # one coordinate per class: class c is coordinate c + 1
        return ValidationReport(False, tuple(c + 1 for c in first))
    from .feasibility import hull_support

    @lru_cache(maxsize=None)
    def fails(s: tuple[int, ...]) -> bool:  # the class sets before `first` all hold up
        return s == first if s <= first else hull_support([rays[c] for c in s]) is not None

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
    if cfg.n - 1 < cfg.k + 1:
        raise ConfigurationError(
            f"deleting coordinate {i} leaves n = {cfg.n - 1} < k + 1 = {cfg.k + 1}"
        )
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
