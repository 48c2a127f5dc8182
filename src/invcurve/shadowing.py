"""Weighted orbit-separation metric and its one-step non-expansion check.

The metric (|x - xh| + x^-3 |y - yh|) / x^8 is non-increasing under one
application of the map whenever 0 < x <= delta, |y| <= x^N and the metric is
at most 1.  The exponents 3 and 8 are fixed constants of the statement being
verified, not knobs.

Separations of interest are far below the spacing of representable doubles
around the base orbit, so images of the two points are never subtracted
directly.  Instead the pair is carried as (base point, offset) and the offset
is propagated with exact divided differences of the polynomial components:
the difference of a monomial at the two points splits into terms carrying
the factors dx and dy, which keeps every digit of a separation of, say,
1e-40.  The image and its offset come from one call of the map's cached
evaluator (`series.MapEvaluator.pair_image`) per step, one pass over the
kept y-power rows of each component: one Horner chain in x per row, whose
partial sums also give the x-divided sums, and the y-divided sums in the
same pass.  A step whose pair differs only in the ordinate (dx = 0, as on
every step of an orbit pair on a map whose X has no y terms) takes the
value pass, without the x-divided sums.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, power_overflow, require_integers
from .mapdef import DEFAULT_DELTA, MapSpec, Point
from .normalform import DEFAULT_NORM_ORDER
from .series import PlanarSeriesMap

METRIC_Y_POWER = 3
METRIC_X_POWER = 8

# The non-expansion statement assumes the map is flattened (no pure-x terms
# in Y below the hypothesis power); on raw maps the check still runs and
# simply reports what it finds.
MapLike = MapSpec | PlanarSeriesMap

# how errors name a pair's base abscissa p.x
_BASE = "the pair's base abscissa x"


@dataclass(frozen=True)
class ShadowPair:
    """A base point and its shadowing partner (the hatted point)."""

    p: Point
    q: Point

    def __post_init__(self):
        if self.p.x <= 0.0:
            raise DomainError(f"the base point needs x > 0: x = {self.p.x:g}")

    @property
    def offset(self) -> tuple[float, float]:
        return self.q.x - self.p.x, self.q.y - self.p.y


def shadow_metric(pair: ShadowPair) -> float:
    """(|x - xh| + x^-3 |y - yh|) / x^8 for the pair."""
    dx, dy = pair.offset
    return _metric(pair.p.x, dx, dy, _BASE)


def _metric(x: float, dx: float, dy: float, name: str) -> float:
    """The metric at base abscissa x, `name` naming x in its errors."""
    if x <= 0.0:
        raise DomainError(f"metric needs a positive base abscissa: x = {x:g}")
    try:
        return (abs(dx) + abs(dy) / x**METRIC_Y_POWER) / x**METRIC_X_POWER
    except OverflowError:
        raise power_overflow(name, x, METRIC_X_POWER) from None
    except ZeroDivisionError:  # x^8, or x^3 too, underflowed to 0
        raise DomainError(
            f"{name} = {x:g} is too small: its power {METRIC_X_POWER} underflows to 0"
        ) from None


def shadow_step_check(
    m: MapLike,
    pair: ShadowPair,
    n_power: int = DEFAULT_NORM_ORDER,
    delta: float = DEFAULT_DELTA,
) -> tuple[float, float, bool]:
    """Apply the map to both points and compare the metric before and after.

    Rejects inputs outside the hypotheses (0 < x <= delta, |y| <= x^N,
    metric <= 1), naming the failed one.  Returns (before, after, ok) with
    ok true when the metric did not expand.
    """
    x, y = pair.p.x, pair.p.y
    if not 0.0 < x <= delta:
        raise DomainError(f"hypothesis 0 < x <= delta failed: x = {x}, delta = {delta}")
    try:
        bound = x**n_power
    except OverflowError:
        raise power_overflow(_BASE, x, n_power) from None
    if abs(y) > bound:
        raise DomainError(
            f"hypothesis |y| <= x^{n_power} failed: |y| = {abs(y):.3e}, x = {x:g}"
        )
    dx, dy = pair.offset
    before = _metric(x, dx, dy, _BASE)
    if before > 1.0:
        raise DomainError(f"hypothesis metric <= 1 failed: metric = {before:.6g}")
    xx, yy, ddx, ddy = m.evaluator.pair_image(x, y, dx, dy)
    after = _metric(xx, ddx, ddy, "the image abscissa X")
    return before, after, after <= before


@dataclass(frozen=True)
class OrbitTrace:
    metrics: np.ndarray
    xs: np.ndarray
    xhats: np.ndarray
    dxs: np.ndarray
    dys: np.ndarray
    truncated: bool

    def __len__(self) -> int:
        return self.metrics.size


def orbit_shadow_experiment(
    m: MapLike,
    x0: float,
    ytilde0: float,
    steps: int,
    n_power: int = DEFAULT_NORM_ORDER,
    delta: float = DEFAULT_DELTA,
) -> OrbitTrace:
    """Iterate the paired orbits from (x0, 0) and (x0, ytilde0).

    Records the separation metric along the way; the trace is truncated with
    a warning if the base orbit leaves (0, 2*delta].
    """
    require_integers(steps=steps)
    if steps < 0:
        raise DomainError(f"steps = {steps} must not be negative")
    if not (0.0 < delta < math.inf):
        raise DomainError(f"delta = {delta:g} must be finite and positive")
    if x0 <= 0.0:
        raise DomainError(f"x0 = {x0:g} must be positive")
    try:
        bound = x0**n_power
    except OverflowError:
        raise power_overflow("x0", x0, n_power) from None
    if abs(ytilde0) > bound:
        raise DomainError(
            f"|ytilde0| = {abs(ytilde0):g} must not exceed x0^{n_power} = {bound:g}"
        )
    x, y = x0, 0.0
    dx, dy = 0.0, ytilde0
    metrics = [_metric(x, dx, dy, "x0")]
    xs = [x]
    dxs = [dx]
    dys = [dy]
    truncated = False
    for _ in range(steps):
        x, y, dx, dy = m.evaluator.pair_image(x, y, dx, dy)
        if not (0.0 < x <= 2.0 * delta) or not math.isfinite(x):
            truncated = True
            warnings.warn(
                f"orbit left the working box at x = {x:.6g}; trace truncated",
                stacklevel=2,
            )
            break
        metrics.append(_metric(x, dx, dy, "the orbit's abscissa x"))
        xs.append(x)
        dxs.append(dx)
        dys.append(dy)
    xs_arr = np.array(xs)
    dxs_arr = np.array(dxs)
    return OrbitTrace(
        np.array(metrics), xs_arr, xs_arr + dxs_arr, dxs_arr, np.array(dys), truncated
    )
