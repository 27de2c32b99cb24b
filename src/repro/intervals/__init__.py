"""Integer interval arithmetic for RTL datapath reasoning.

This package implements the interval machinery of Section 2.2 of the paper:
closed finite integer intervals, forward evaluation of the RTL operator set
over intervals, and the backward *narrowing* rules used by interval
constraint propagation (Equations 2 and 3 of the paper and their analogues
for every supported operator).

The two halves are deliberately separate:

* :mod:`repro.intervals.interval` — the :class:`Interval` value type and
  forward (image) arithmetic.
* :mod:`repro.intervals.narrowing` — backward rules: given the interval on
  an operator's output, shrink the intervals on its inputs (and vice
  versa) without ever discarding a feasible integer point.
"""

from repro.intervals.interval import (
    BOOL_DOMAIN,
    Interval,
    full_interval,
    hull,
    interval_cache_stats,
    interval_for_width,
    reset_interval_cache,
)
from repro.intervals.narrowing import (
    narrow_add,
    narrow_concat,
    narrow_eq,
    narrow_le,
    narrow_lt,
    narrow_mul_const,
    narrow_ne,
    narrow_neg,
    narrow_shift_left,
    narrow_shift_right,
    narrow_sub,
)

__all__ = [
    "BOOL_DOMAIN",
    "Interval",
    "full_interval",
    "hull",
    "interval_cache_stats",
    "interval_for_width",
    "reset_interval_cache",
    "narrow_add",
    "narrow_concat",
    "narrow_eq",
    "narrow_le",
    "narrow_lt",
    "narrow_mul_const",
    "narrow_ne",
    "narrow_neg",
    "narrow_shift_left",
    "narrow_shift_right",
    "narrow_sub",
]
