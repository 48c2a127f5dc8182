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
factors da and db, which keeps every digit of a separation of, say, 1e-40.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .mapdef import MapSpec, Point
from .series import PlanarSeriesMap, eval_terms

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


def _power_tables(a: float, da: float, n: int) -> tuple[list, list, list]:
    """a^i, (a + da)^i and the divided sums D_i, i = 0..n.

    D_i = sum_k (a + da)^k a^(i-1-k), built as D_0 = 0, D_i = a D_(i-1) +
    (a + da)^(i-1), so (a + da)^i - a^i = da D_i is an exact multiple of da.
    """
    b = a + da
    pa, pb, dd = [1.0], [1.0], [0.0]
    for _ in range(n):
        dd.append(a * dd[-1] + pb[-1])
        pa.append(pa[-1] * a)
        pb.append(pb[-1] * b)
    return pa, pb, dd


def _offset_image(terms, xtab, ytab, dx: float, dy: float) -> float:
    """Image offset sum c [((x+dx)^i - x^i)(y+dy)^j + x^i ((y+dy)^j - y^j)].

    xtab and ytab are the `_power_tables` of (x, dx) and (y, dy).
    """
    px, _, dpx = xtab
    _, pyh, dpy = ytab
    acc = 0.0
    for (i, j), c in terms:
        acc += c * (dx * dpx[i] * pyh[j] + px[i] * (dy * dpy[j]))
    return acc


def _step(m: MapLike, x, y, dx, dy):
    xt, yt = m.sorted_terms()
    keys = [k for k, _ in xt] + [k for k, _ in yt]
    xtab = _power_tables(x, dx, max(i for i, _ in keys))
    ytab = _power_tables(y, dy, max(j for _, j in keys))
    return (
        eval_terms(xt, x, y),
        eval_terms(yt, x, y),
        _offset_image(xt, xtab, ytab, dx, dy),
        _offset_image(yt, xtab, ytab, dx, dy),
    )


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
