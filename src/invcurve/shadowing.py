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
1e-40.  Both the image and its offset come from the map's cached evaluator
(`series.MapEvaluator.values` and `.offset`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .mapdef import MapSpec, Point
from .series import PlanarSeriesMap

METRIC_Y_POWER = 3
METRIC_X_POWER = 8

# The non-expansion statement assumes the map is flattened (no pure-x terms
# in Y below the hypothesis power); on raw maps the check still runs and
# simply reports what it finds.
MapLike = MapSpec | PlanarSeriesMap


@dataclass(frozen=True)
class ShadowPair:
    """A base point and its shadowing partner (the hatted point)."""

    p: Point
    q: Point

    def __post_init__(self):
        if self.p.x <= 0.0:
            raise ValueError("the base point needs x > 0")

    @property
    def offset(self) -> tuple[float, float]:
        return self.q.x - self.p.x, self.q.y - self.p.y


def shadow_metric(pair: ShadowPair) -> float:
    """(|x - xh| + x^-3 |y - yh|) / x^8 for the pair."""
    dx, dy = pair.offset
    return _metric(pair.p.x, dx, dy)


def _metric(x: float, dx: float, dy: float) -> float:
    if x <= 0.0:
        raise ValueError("metric needs a positive base abscissa")
    return (abs(dx) + abs(dy) / x**METRIC_Y_POWER) / x**METRIC_X_POWER


def _step(m: MapLike, x, y, dx, dy):
    ev = m.evaluator
    return (*ev.values(x, y), *ev.offset(x, y, dx, dy))


def shadow_step_check(
    m: MapLike,
    pair: ShadowPair,
    n_power: int,
    delta: float = 0.05,
) -> tuple[float, float, bool]:
    """Apply the map to both points and compare the metric before and after.

    Rejects inputs outside the hypotheses (0 < x <= delta, |y| <= x^N,
    metric <= 1), naming the failed one.  Returns (before, after, ok) with
    ok true when the metric did not expand.
    """
    x, y = pair.p.x, pair.p.y
    if not 0.0 < x <= delta:
        raise ValueError(f"hypothesis 0 < x <= delta failed: x = {x}, delta = {delta}")
    if abs(y) > x**n_power:
        raise ValueError(f"hypothesis |y| <= x^{n_power} failed: |y| = {abs(y):.3e}")
    dx, dy = pair.offset
    before = _metric(x, dx, dy)
    if before > 1.0:
        raise ValueError(f"hypothesis metric <= 1 failed: metric = {before:.6g}")
    xx, yy, ddx, ddy = _step(m, x, y, dx, dy)
    after = _metric(xx, ddx, ddy)
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
    n_power: int,
    delta: float = 0.05,
) -> OrbitTrace:
    """Iterate the paired orbits from (x0, 0) and (x0, ytilde0).

    Records the separation metric along the way; the trace is truncated with
    a warning if the base orbit leaves (0, 2*delta].
    """
    if x0 <= 0.0:
        raise ValueError("x0 must be positive")
    if abs(ytilde0) > x0**n_power:
        raise ValueError(f"|ytilde0| must not exceed x0^{n_power}")
    x, y = x0, 0.0
    dx, dy = 0.0, ytilde0
    metrics = [_metric(x, dx, dy)]
    xs = [x]
    dxs = [dx]
    dys = [dy]
    truncated = False
    for _ in range(steps):
        x, y, dx, dy = _step(m, x, y, dx, dy)
        if not (0.0 < x <= 2.0 * delta) or not math.isfinite(x):
            truncated = True
            warnings.warn(
                f"orbit left the working box at x = {x:.6g}; trace truncated",
                stacklevel=2,
            )
            break
        metrics.append(_metric(x, dx, dy))
        xs.append(x)
        dxs.append(dx)
        dys.append(dy)
    xs_arr = np.array(xs)
    dxs_arr = np.array(dxs)
    return OrbitTrace(
        np.array(metrics), xs_arr, xs_arr + dxs_arr, dxs_arr, np.array(dys), truncated
    )
