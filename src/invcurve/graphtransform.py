"""Constructive invariant-curve solver: push a seed segment, re-graph, repeat.

The engine starts from the horizontal seed [0, rho] x {0}, pushes it forward
through the flattened map, re-graphs the image over the abscissa after every
step, and stops once the curve covers [0, delta].  Shrinking rho and repeating
gives a Cauchy sequence of curves whose limit is the invariant curve; the
solver stops when two successive final curves agree to tol_converge.

Numerics that matter here:

* Grids are geometric ("graded") with the smallest positive node a fixed
  fraction of x_max, because all the dynamics concentrates near the origin.
  Every grid of one size is x_max times the same unit grid.
* Re-graphing interpolates the tangency-scaled ordinate Y / X^3 with a
  monotone piecewise cubic (PCHIP) in X rather than Y itself.  The scaled
  ordinate is nearly constant for any curve tangent to order three, so the
  per-step interpolation error sits many orders below the curve instead of
  at a fixed relative level; without this the rho-refinement differences
  drown in interpolation noise.
* Monotonicity of the image abscissas is a hard guard: it is exactly the
  condition for the image to be a graph again.

The push kernel (`_PushKernel`) is the one push path, shared by `push_curve`
and the level loop.  Each push costs a few dozen NumPy calls on grid-sized
arrays; its largest temporaries are the power tables of x and y and their
product with the coefficients, a few dozen rows of grid size, so the
allocator reuses heap memory instead of mapping fresh pages every push:

* the map is evaluated by its cached dense-matrix evaluator
  (`series.MapEvaluator`, `m.evaluator`): one matrix product of the stacked
  components with the power table of x, weighted by the power table of y;
* the re-graph is a private Fritsch-Carlson PCHIP (Fritsch & Carlson, SIAM
  J. Numer. Anal. 17, 1980) that builds and evaluates in one pass, with the
  same slopes, coefficients and evaluation order as SciPy's
  `PchipInterpolator` (`_pchip_regraph`);
* the new grid is x_max times the unit grid computed once per solve, and a
  level carries raw (xs, fs) arrays, building one `Curve` when it ends.

`Curve.eval`, the certify and query path, keeps SciPy's interpolator.

Certificates are measured, not assumed: suprema of x^(m-N) |F^(m)(x)| on the
grid, the smallest observed dX/dx, and the drift constant
|X_max - (x_max + x_max^2)| / x_max^3.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from .errors import ConvergenceError, GuardError
from .mapdef import MapSpec
from .normalform import NormalFormResult, normalize_map, pullback_curve
from .series import PlanarSeriesMap

GRID_SPAN = 1e-6  # smallest positive node = GRID_SPAN * x_max
TANGENCY_POWER = 3


def graded_grid(x_max: float, size: int) -> np.ndarray:
    """Geometric grid on [0, x_max]: zero plus size-1 nodes down to GRID_SPAN*x_max.

    The grid is x_max times graded_grid(1.0, size), bit for bit.
    """
    if x_max <= 0.0 or not math.isfinite(x_max):
        raise ValueError(f"x_max must be positive and finite, got {x_max}")
    if size < 8:
        raise ValueError("grid needs at least 8 nodes")
    pos = np.geomspace(GRID_SPAN, 1.0, size - 1)
    pos[0] = GRID_SPAN
    pos[-1] = 1.0
    return x_max * np.concatenate(([0.0], pos))


@dataclass(frozen=True)
class Curve:
    """Sampled graph {(x, F(x))} on a strictly increasing grid starting at 0."""

    xs: np.ndarray
    fs: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float).copy()
        fs = np.asarray(self.fs, dtype=float).copy()
        if xs.ndim != 1 or xs.shape != fs.shape or xs.size < 4:
            raise ValueError("curve needs matching 1-d arrays with at least 4 nodes")
        if xs[0] != 0.0 or fs[0] != 0.0:
            raise ValueError("curve must start at the origin")
        if np.any(np.diff(xs) <= 0.0):
            raise ValueError("grid must be strictly increasing")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(fs))):
            raise ValueError("curve values must be finite")
        xs.setflags(write=False)
        fs.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "fs", fs)

    @property
    def x_max(self) -> float:
        return float(self.xs[-1])

    @cached_property
    def scaled(self) -> np.ndarray:
        """F / x^3 at the positive nodes."""
        return self.fs[1:] / self.xs[1:] ** TANGENCY_POWER

    @cached_property
    def _interp(self) -> PchipInterpolator:
        return PchipInterpolator(self.xs[1:], self.scaled, extrapolate=False)

    def check_tangency_cap(self, cap: float) -> None:
        worst = float(np.max(np.abs(self.scaled)))
        if worst > cap:
            raise GuardError(f"|F|/x^3 reached {worst:.3e}, above the cap {cap:.3e}")

    def eval(self, x):
        """Interpolated F(x) on [0, x_max].

        Below the smallest positive node the scaled ordinate is held
        constant, which preserves the cubic tangency.
        """
        scalar = np.ndim(x) == 0
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        if np.any(arr < 0.0) or np.any(arr > self.x_max * (1.0 + 1e-12)):
            raise ValueError("evaluation outside the curve domain")
        arr_c = np.minimum(arr, self.x_max)
        out = np.empty_like(arr_c)
        low = arr_c < self.xs[1]
        if np.any(low):
            g0 = self.scaled[0]
            out[low] = g0 * arr_c[low] ** TANGENCY_POWER
        if np.any(~low):
            out[~low] = self._interp(arr_c[~low]) * arr_c[~low] ** TANGENCY_POWER
        if scalar:
            return float(out[0])
        return out


def seed_curve(rho: float, grid_size: int) -> Curve:
    """The flat seed segment [0, rho] x {0} on the graded grid."""
    return Curve(graded_grid(rho, grid_size), np.zeros(grid_size))


# ---------------------------------------------------------------------------
# push kernel: map evaluation and re-graph
# ---------------------------------------------------------------------------


def _sign(v: float) -> int:
    return (v > 0.0) - (v < 0.0)


def _end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    # one-sided three-point estimate, clamped to keep the shape
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if _sign(d) != _sign(m0):
        return 0.0
    if _sign(m0) != _sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_regraph(xk: np.ndarray, yk: np.ndarray, q: np.ndarray) -> np.ndarray | None:
    """Monotone cubic (Fritsch-Carlson PCHIP) through (xk, yk), evaluated at q.

    Interior slopes are the weighted harmonic means of the neighbouring
    secants (zero at a sign change or a flat secant), end slopes the
    one-sided three-point estimates with SciPy's clamps; coefficients and
    the evaluation order are SciPy's, so the values match its
    PchipInterpolator.  q must be increasing; returns None when it leaves
    [xk[0], xk[-1]].
    """
    if not (xk[0] <= q[0] and q[-1] <= xk[-1]):
        return None
    h = xk[1:] - xk[:-1]
    m = (yk[1:] - yk[:-1]) / h
    d = np.empty_like(xk)
    w1 = 2.0 * h[1:] + h[:-1]
    w2 = h[1:] + 2.0 * h[:-1]
    sm = np.sign(m)
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
    d[1:-1] = np.where(sm[1:] * sm[:-1] > 0.0, inner, 0.0)
    d[0] = _end_slope(*h[:2].tolist(), *m[:2].tolist())
    d[-1] = _end_slope(*h[:-3:-1].tolist(), *m[:-3:-1].tolist())
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    c1 = (m - d[:-1]) / h - t
    c0 = t / h
    # interval k holds xk[k] <= q < xk[k+1]; q = xk[-1] falls in the last one
    k = np.searchsorted(xk, q, side="right") - 1
    np.minimum(k, xk.size - 2, out=k)
    s = q - xk[k]
    s2 = s * s
    return yk[k] + d[k] * s + c1[k] * s2 + c0[k] * (s2 * s)


class _PushKernel:
    """One push of a sampled graph through a map, re-graphed onto the graded grid."""

    def __init__(self, m: MapSpec | PlanarSeriesMap, grid_size: int):
        self._ev = m.evaluator
        self.unit = graded_grid(1.0, grid_size)

    def push(
        self, xs: np.ndarray, fs: np.ndarray, bound_cap: float | None
    ) -> tuple[np.ndarray, np.ndarray, float, float]:
        """Image (xs, fs) on the new grid, smallest secant dX/dx, drift constant."""
        big_x, big_y = self._ev.values(xs, fs)
        if big_x[0] != 0.0 or big_y[0] != 0.0:
            raise GuardError("image of the origin moved off the origin")
        dx = big_x[1:] - big_x[:-1]
        rising = dx > 0.0
        if not rising.all():
            bad = int(np.argmin(rising))
            raise GuardError(
                f"graph monotonicity guard failed: image abscissas stall at x = {xs[bad]:.6g}"
            )
        min_slope = float(np.min(dx / (xs[1:] - xs[:-1])))
        xm = float(xs[-1])
        drift_c = float(abs(big_x[-1] - (xm + xm * xm)) / xm**3)

        new_xs = float(big_x[-1]) * self.unit
        pos = big_x[1:]
        scaled = big_y[1:] / pos**TANGENCY_POWER
        new_scaled = _pchip_regraph(pos, scaled, new_xs[1:])
        if new_scaled is None or not np.all(np.isfinite(new_scaled)):
            raise GuardError("re-graph interpolation left the image range")
        if bound_cap is not None:
            worst = float(np.max(np.abs(new_scaled)))
            if worst > bound_cap:
                raise GuardError(
                    f"|F|/x^3 reached {worst:.3e} after the push, above the cap {bound_cap:.3e}"
                )
        new_fs = np.empty_like(new_xs)
        new_fs[0] = 0.0
        np.multiply(new_scaled, new_xs[1:] ** TANGENCY_POWER, out=new_fs[1:])
        return new_xs, new_fs, min_slope, drift_c


# ---------------------------------------------------------------------------
# push and certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundCertificate:
    """Measured grid suprema of x^(m - n_power) |F^(m)(x)| for m = 0..m_max."""

    ks: tuple[float, ...]
    n_power: int
    m_max: int
    min_dxdx: float | None = None
    xmax_drift_c: float | None = None


def _grid_derivative(xs: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # three-point central difference on a nonuniform grid; exact for quadratics
    hm = xs[1:-1] - xs[:-2]
    hp = xs[2:] - xs[1:-1]
    d = (
        vals[2:] * hm / (hp * (hm + hp))
        - vals[:-2] * hp / (hm * (hm + hp))
        + vals[1:-1] * (hp - hm) / (hm * hp)
    )
    return xs[1:-1], d


def bound_certificate(c: Curve, n_power: int, m_max: int) -> BoundCertificate:
    """Measure the derivative envelopes K_m = sup x^(m-N) |F^(m)(x)|."""
    if not 0 <= m_max <= 3:
        raise ValueError("m_max must be between 0 and 3")
    if c.xs.size < 8 * max(m_max, 1):
        raise ValueError(f"grid too sparse for m_max={m_max}: {c.xs.size} nodes")
    ks = []
    xs, vals = c.xs[1:], c.fs[1:]
    for m in range(m_max + 1):
        if m > 0:
            xs, vals = _grid_derivative(xs, vals)
        ks.append(float(np.max(np.abs(vals) * xs ** float(m - n_power))))
    return BoundCertificate(tuple(ks), n_power, m_max)


def push_curve(
    m: MapSpec | PlanarSeriesMap,
    c: Curve,
    *,
    n_power: int = 8,
    m_max: int = 2,
    grid_size: int | None = None,
    bound_cap: float | None = 100.0,
    max_x: float | None = None,
) -> tuple[Curve, BoundCertificate]:
    """One forward push of a curve, re-graphed onto the graded grid.

    Returns the image curve and its measured certificate (derivative
    envelopes, smallest secant slope of the abscissa map, and the drift
    constant of x_max).
    """
    if max_x is not None and c.x_max > max_x:
        raise GuardError(f"curve reaches {c.x_max:.6g}, past the working bound {max_x:.6g}")
    kernel = _PushKernel(m, grid_size or c.xs.size)
    xs, fs, min_slope, drift_c = kernel.push(c.xs, c.fs, bound_cap)
    out = Curve(xs, fs)
    cert = bound_certificate(out, n_power, m_max)
    return out, replace(cert, min_dxdx=min_slope, xmax_drift_c=drift_c)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


# Default seed length: the flat seed is off the curve by about
# C rho^(N+1) in flattened coordinates (N the flattening order), so the
# default rho0 puts that error at SEED_SAFETY * tol_converge, capped at
# SEED_CAP * delta.  The first refinement gap over rho^(N+1), measured on
# battery maps 1, 2, 5 and 8 (seed 1729) for N = 3, 4, 5, 6, 8 at
# rho = delta/2 .. delta/16, gave C <= 0.7 wherever the gap was above 1e-15;
# smaller gaps reach the map's round-off floor (1e-20 to about 5e-16) and
# stop shrinking.  The cap is the binding term at N = 8.
SEED_SAFETY = 1e-3
SEED_CAP = 0.25


@dataclass(frozen=True)
class SolverConfig:
    norm_order: int = 8  # flattening order N
    delta: float = 0.05
    rho0: float | None = None  # None: derived from the error model, see initial_rho
    rho_factor: float = 0.5
    grid_size: int = 512
    m_max: int = 2
    tol_converge: float = 1e-9
    tol_invariance: float = 1e-8
    max_levels: int = 8
    bound_cap: float = 100.0

    def initial_rho(self) -> float:
        """The first seed length: rho0 when given, else derived from the error model.

        The derived value is min(SEED_CAP * delta, (SEED_SAFETY *
        tol_converge)^(1/(N+1))) with N = norm_order.  It is computed from
        the current fields on every call, so a config made with
        `dataclasses.replace` never carries a stale value.
        """
        if self.rho0 is not None:
            return self.rho0
        model = (SEED_SAFETY * self.tol_converge) ** (1.0 / (self.norm_order + 1))
        return min(SEED_CAP * self.delta, model)

    def validate(self) -> None:
        # tolerance and order first: the derived rho0 is computed from them
        if self.tol_converge <= 0.0 or self.tol_invariance <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.norm_order < 3:
            raise ValueError("norm_order must be at least 3")
        if not (0.0 < self.initial_rho() < self.delta):
            raise ValueError("need 0 < rho0 < delta")
        if self.grid_size < 64:
            raise ValueError("grid_size must be at least 64")
        if not 0 <= self.m_max <= 3:
            raise ValueError("m_max must be between 0 and 3")
        if not (0.0 < self.rho_factor < 1.0):
            raise ValueError("rho_factor must lie in (0, 1)")
        if self.max_levels < 2:
            raise ValueError("need at least two refinement levels")


@dataclass(frozen=True)
class LevelResult:
    rho: float
    curve: Curve
    nu_bar: int
    x_max_trace: np.ndarray
    min_dxdx: float
    max_drift_c: float
    growth_margin_min: float


@dataclass(frozen=True)
class SolveDiagnostics:
    levels: tuple[LevelResult, ...]
    gaps: tuple[float, ...]
    converged: bool
    normal_form: NormalFormResult
    config: SolverConfig = field(repr=False)


def _prepare(m: MapSpec, cfg: SolverConfig) -> tuple[NormalFormResult, _PushKernel]:
    nf = normalize_map(m, cfg.norm_order)
    return nf, _PushKernel(nf.normalized, cfg.grid_size)


def _run_level(kernel: _PushKernel, rho: float, cfg: SolverConfig) -> LevelResult:
    xs = rho * kernel.unit
    fs = np.zeros_like(xs)
    x_max = float(xs[-1])
    trace = [x_max]
    min_slope = math.inf
    max_drift = 0.0
    margin = math.inf
    # the quadratic drift guarantees termination; the cap only catches stalls
    cap = int(2.0 / rho) * (int(math.log(cfg.delta / rho)) + 2) + 64
    while x_max <= cfg.delta:
        if len(trace) > cap:
            raise ConvergenceError(
                f"push iteration exceeded its step cap ({cap}) at rho={rho:g}",
                history=trace,
            )
        prev = x_max
        xs, fs, slope, drift = kernel.push(xs, fs, cfg.bound_cap)
        x_max = float(xs[-1])
        if x_max <= prev:
            raise GuardError("x_max failed to increase during a push")
        trace.append(x_max)
        min_slope = min(min_slope, slope)
        max_drift = max(max_drift, drift)
        margin = min(margin, x_max - (prev + 0.5 * prev * prev))
    return LevelResult(
        rho=rho,
        curve=Curve(xs, fs),
        nu_bar=len(trace) - 1,
        x_max_trace=np.array(trace),
        min_dxdx=min_slope,
        max_drift_c=max_drift,
        growth_margin_min=margin,
    )


def _comparison_grid(delta: float, size: int = 256) -> np.ndarray:
    return np.geomspace(delta * 1e-5, 0.5 * delta, size)


def _refine(
    kernel: _PushKernel, cfg: SolverConfig, levels: int
) -> Iterator[tuple[LevelResult, float | None]]:
    """Run the levels rho0 * rho_factor^k, k = 0..levels-1, one at a time.

    rho0 is `cfg.initial_rho()`, resolved here when the solve starts.
    Yields each level with the sup-norm gap between its final curve and the
    previous level's on [0, delta/2] (None for the first level).
    """
    grid = _comparison_grid(cfg.delta)
    rho = cfg.initial_rho()
    prev_vals = None
    for _ in range(levels):
        lv = _run_level(kernel, rho, cfg)
        vals = lv.curve.eval(grid)
        gap = None if prev_vals is None else float(np.max(np.abs(vals - prev_vals)))
        yield lv, gap
        prev_vals = vals
        rho *= cfg.rho_factor


def rho_refinement(
    m: MapSpec, cfg: SolverConfig, levels: int
) -> tuple[list[LevelResult], list[float]]:
    """Run a fixed schedule rho0 * rho_factor^k, k = 0..levels-1.

    Returns the per-level results (curves in flattened coordinates) and the
    sup-norm gaps between successive final curves on [0, delta/2].
    """
    cfg.validate()
    _, kernel = _prepare(m, cfg)
    results: list[LevelResult] = []
    gaps: list[float] = []
    for lv, gap in _refine(kernel, cfg, levels):
        results.append(lv)
        if gap is not None:
            gaps.append(gap)
    return results, gaps


def solve_manifold(
    m: MapSpec, cfg: SolverConfig | None = None
) -> tuple[Curve, BoundCertificate, SolveDiagnostics]:
    """Compute the invariant curve on [0, delta] by refined graph transport.

    Flattens the map to cfg.norm_order, runs the push loop for a shrinking
    sequence of seed lengths until two successive final curves agree to
    tol_converge on [0, delta/2], and returns the last curve mapped back to
    the original coordinates, together with its measured certificate and
    per-level diagnostics.
    """
    cfg = cfg or SolverConfig()
    cfg.validate()
    nf, kernel = _prepare(m, cfg)
    levels: list[LevelResult] = []
    gaps: list[float] = []
    converged = False
    for lv, gap in _refine(kernel, cfg, cfg.max_levels):
        levels.append(lv)
        if gap is not None:
            gaps.append(gap)
            if gap <= cfg.tol_converge:
                converged = True
                break
    if not converged:
        raise ConvergenceError(
            f"refinement gaps never reached {cfg.tol_converge:g} "
            f"after {cfg.max_levels} levels",
            history=gaps,
        )
    final = levels[-1].curve
    cert = bound_certificate(final, cfg.norm_order, cfg.m_max)
    cert = replace(
        cert,
        min_dxdx=min(lv.min_dxdx for lv in levels),
        xmax_drift_c=max(lv.max_drift_c for lv in levels),
    )
    out = pullback_curve(final, nf.shift)
    out.check_tangency_cap(cfg.bound_cap)
    diag = SolveDiagnostics(tuple(levels), tuple(gaps), converged, nf, cfg)
    return out, cert, diag


# ---------------------------------------------------------------------------
# measurements on a computed curve
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvarianceReport:
    max_residual: float
    xs: np.ndarray
    residuals: np.ndarray
    failures: tuple[float, ...]


def invariance_residual(
    m: MapSpec, c: Curve, samples: int = 200
) -> tuple[float, InvarianceReport]:
    """Defect of the invariance identity on [0, x_max/2].

    For each sample abscissa xbar, finds xhat with the X image of
    (xhat, F(xhat)) equal to xbar (monotone root find) and measures
    |F(xbar) - Y image|.  Samples where the root find fails are excluded
    from the maximum and reported.
    """
    half = c.x_max / 2.0
    nodes = c.xs[(c.xs > 0.0) & (c.xs <= half)]
    if nodes.size == 0:
        raise ValueError("curve has no positive nodes below x_max/2")
    if nodes.size > samples:
        idx = np.unique(np.linspace(0, nodes.size - 1, samples).astype(int))
        nodes = nodes[idx]
    ev = m.evaluator

    def image_x(t: float, xbar: float) -> float:
        return ev.values(t, c.eval(t))[0] - xbar

    xs_ok: list[float] = []
    res: list[float] = []
    failures: list[float] = []
    rtol = 4.0 * np.finfo(float).eps
    for xbar in nodes:
        if image_x(xbar, xbar) < 0.0:
            failures.append(float(xbar))
            continue
        try:
            xhat = brentq(image_x, 0.0, xbar, args=(xbar,), rtol=rtol, xtol=1e-300)
        except ValueError:
            failures.append(float(xbar))
            continue
        y_img = ev.values(xhat, c.eval(xhat))[1]
        xs_ok.append(float(xbar))
        res.append(abs(c.eval(xbar) - y_img))
    if failures:
        warnings.warn(
            f"{len(failures)} invariance samples had no preimage and were skipped",
            stacklevel=2,
        )
    res_arr = np.array(res)
    max_res = float(res_arr.max()) if res_arr.size else math.nan
    return max_res, InvarianceReport(max_res, np.array(xs_ok), res_arr, tuple(failures))


@dataclass(frozen=True)
class DecadeStats:
    lo: float
    hi: float
    count: int
    sup_cubic_ratio: float
    sup_scaled_23: float


@dataclass(frozen=True)
class TangencyReport:
    a3: float
    decades: tuple[DecadeStats, ...]
    cubic_bounded: bool
    vanishes_below_x23: bool


def tangency_fit(c: Curve) -> tuple[float, TangencyReport]:
    """Leading cubic coefficient and decay diagnostics near the origin.

    Fits F(x)/x^3 by least squares (a constant) over the smallest grid
    decade; the report tracks per-decade suprema of |F|/x^3 and |F|/x^(2/3)
    so growth of the cubic ratio toward 0 is flagged.
    """
    xs, fs = c.xs[1:], c.fs[1:]
    first = xs[0]
    small = xs <= first * 10.0 * (1.0 + 1e-12)
    if int(small.sum()) < 8:
        raise ValueError("need at least 8 samples in the smallest grid decade")
    ratio3 = fs / xs**3
    a3 = float(np.mean(ratio3[small]))

    rows: list[DecadeStats] = []
    lo = first
    while lo < c.x_max * (1.0 - 1e-12):
        hi = min(lo * 10.0, c.x_max)
        mask = (xs >= lo * (1.0 - 1e-12)) & (xs <= hi * (1.0 + 1e-12))
        if mask.any():
            rows.append(
                DecadeStats(
                    lo=float(lo),
                    hi=float(hi),
                    count=int(mask.sum()),
                    sup_cubic_ratio=float(np.max(np.abs(ratio3[mask]))),
                    sup_scaled_23=float(np.max(np.abs(fs[mask]) / xs[mask] ** (2.0 / 3.0))),
                )
            )
        lo = hi
    cubic_bounded = True
    if len(rows) >= 2:
        cubic_bounded = rows[0].sup_cubic_ratio <= 1.5 * rows[1].sup_cubic_ratio + 1e-300
    vanishes = True
    if len(rows) >= 2:
        vanishes = rows[0].sup_scaled_23 <= rows[-1].sup_scaled_23 + 1e-300
    return a3, TangencyReport(a3, tuple(rows), cubic_bounded, vanishes)
