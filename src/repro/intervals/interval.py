"""Closed finite integer intervals and forward interval arithmetic.

An :class:`Interval` ``<lo, hi>`` denotes the set of integers ``v`` with
``lo <= v <= hi``.  Intervals are immutable value objects; every operation
returns a new interval.  The empty set is represented by ``None`` at call
sites (operations that can produce an empty result return ``Optional``),
which keeps the invariant ``lo <= hi`` unconditional and makes accidental
use of an empty interval an immediate error rather than a silent wrong
answer.

Forward operations compute the exact integer *hull* of the image set: the
smallest interval containing ``{x op y | x in X, y in Y}``.  For monotonic
operations (addition, subtraction, multiplication by a non-negative
constant, shifts) the hull equals the image, which is what makes interval
constraint propagation effective on RTL datapaths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

#: Interned-interval cache: (lo, hi) -> Interval.  Domains revisit the
#: same bounds constantly (booleans, points, full width domains), so the
#: solver trail mostly shares instances instead of allocating.  The cache
#: stops admitting new entries at the cap; lookups keep working either
#: way, and equality is by value so interned and direct instances mix.
_CACHE: "dict[Tuple[int, int], Interval]" = {}
_CACHE_MAX = 1 << 16
#: Hit/miss counters (read via :func:`interval_cache_stats`).
_CACHE_COUNTS = [0, 0]  # [hits, misses]


@dataclass(frozen=True, order=True, slots=True)
class Interval:
    """A closed integer interval ``<lo, hi>`` with ``lo <= hi``."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval <{self.lo}, {self.hi}>")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def make(lo: int, hi: int) -> "Interval":
        """Interning constructor — the hot-path way to build an interval."""
        key = (lo, hi)
        cached = _CACHE.get(key)
        if cached is not None:
            _CACHE_COUNTS[0] += 1
            return cached
        _CACHE_COUNTS[1] += 1
        interval = Interval(lo, hi)
        if len(_CACHE) < _CACHE_MAX:
            _CACHE[key] = interval
        return interval

    @staticmethod
    def point(value: int) -> "Interval":
        """The singleton interval ``<value, value>`` (interned)."""
        return Interval.make(value, value)

    # ------------------------------------------------------------------
    # Predicates and set queries
    # ------------------------------------------------------------------
    @property
    def is_point(self) -> bool:
        """True when the interval contains exactly one integer."""
        return self.lo == self.hi

    @property
    def size(self) -> int:
        """Number of integers in the interval."""
        return self.hi - self.lo + 1

    def __contains__(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.lo, self.hi + 1))

    def contains_interval(self, other: "Interval") -> bool:
        """True when ``other`` is a subset of this interval."""
        return self.lo <= other.lo and other.hi <= self.hi

    def intersects(self, other: "Interval") -> bool:
        """True when the two intervals share at least one integer."""
        return self.lo <= other.hi and other.lo <= self.hi

    # ------------------------------------------------------------------
    # Set operations
    # ------------------------------------------------------------------
    def intersect(self, other: "Interval") -> Optional["Interval"]:
        """Intersection, or ``None`` when the intervals are disjoint."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        return Interval.make(lo, hi)

    def union_hull(self, other: "Interval") -> "Interval":
        """Smallest interval containing both operands."""
        return Interval.make(min(self.lo, other.lo), max(self.hi, other.hi))

    def difference(self, other: "Interval") -> Optional["Interval"]:
        """Interval hull-preserving set difference ``self \\ other``.

        Returns the exact difference when it is itself an interval
        (``other`` covers a prefix or suffix of ``self``), returns ``self``
        unchanged when removing ``other`` would punch a hole (holes are not
        representable — this is the standard sound weakening used by
        interval constraint solvers), and ``None`` when ``other`` covers
        ``self`` entirely.
        """
        if not self.intersects(other):
            return self
        if other.lo <= self.lo and self.hi <= other.hi:
            return None
        if other.lo <= self.lo:
            return Interval.make(other.hi + 1, self.hi)
        if self.hi <= other.hi:
            return Interval.make(self.lo, other.lo - 1)
        return self

    # ------------------------------------------------------------------
    # Forward arithmetic (exact hulls)
    # ------------------------------------------------------------------
    def add(self, other: "Interval") -> "Interval":
        return Interval.make(self.lo + other.lo, self.hi + other.hi)

    def sub(self, other: "Interval") -> "Interval":
        return Interval.make(self.lo - other.hi, self.hi - other.lo)

    def neg(self) -> "Interval":
        return Interval.make(-self.hi, -self.lo)

    def mul(self, other: "Interval") -> "Interval":
        """General interval multiplication (Equation 1 of the paper)."""
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval.make(min(products), max(products))

    def mul_const(self, k: int) -> "Interval":
        if k >= 0:
            return Interval.make(self.lo * k, self.hi * k)
        return Interval.make(self.hi * k, self.lo * k)

    def floordiv_const(self, k: int) -> "Interval":
        """Image hull of ``x // k`` (Python floor division), ``k != 0``."""
        if k == 0:
            raise ZeroDivisionError("interval division by zero constant")
        if k > 0:
            return Interval.make(self.lo // k, self.hi // k)
        return Interval.make(self.hi // k, self.lo // k)

    def shift_left(self, k: int) -> "Interval":
        """Image of ``x << k`` for a constant non-negative shift."""
        if k < 0:
            raise ValueError("shift amount must be non-negative")
        return self.mul_const(1 << k)

    def shift_right(self, k: int) -> "Interval":
        """Image hull of logical ``x >> k`` for constant shifts."""
        if k < 0:
            raise ValueError("shift amount must be non-negative")
        return self.floordiv_const(1 << k)

    def clamp_to(self, bound: "Interval") -> Optional["Interval"]:
        """Alias for :meth:`intersect` that reads better at call sites."""
        return self.intersect(bound)

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_point:
            return f"<{self.lo}>"
        return f"<{self.lo}, {self.hi}>"


def interval_cache_stats() -> Tuple[int, int]:
    """Interning cache counters as ``(hits, misses)`` since import."""
    return _CACHE_COUNTS[0], _CACHE_COUNTS[1]


def reset_interval_cache() -> None:
    """Empty the interning cache and zero its counters.

    Harness runs call this once per task so the reported hit rate is a
    function of the task alone, not of which solves happened to warm
    the cache earlier in the same process — a pool worker (fresh
    process, cold cache) and a sequential run must report the same
    number.  The cache and counters are cleared in place, never
    rebound: the generated propagation kernels bind them once per
    process (see :mod:`repro.constraints.compile`).
    """
    _CACHE.clear()
    _CACHE_COUNTS[0] = 0
    _CACHE_COUNTS[1] = 0


#: Domain of a Boolean variable, per Section 2.1 of the paper.
BOOL_DOMAIN = Interval.make(0, 1)


def interval_for_width(width: int) -> Interval:
    """Full unsigned domain ``<0, 2**width - 1>`` of a word of ``width`` bits."""
    if width < 1:
        raise ValueError(f"width must be positive, got {width}")
    return Interval.make(0, (1 << width) - 1)


def full_interval(width: int) -> Interval:
    """Deprecated-style alias kept for symmetry with the paper's notation."""
    return interval_for_width(width)


def hull(values: "list[int]") -> Interval:
    """Smallest interval containing every integer in ``values``."""
    if not values:
        raise ValueError("hull of an empty value set")
    return Interval.make(min(values), max(values))
