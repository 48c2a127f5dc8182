"""Constructive invariant-curve solver: push a seed segment, carry it forward, re-graph.

The engine starts from the horizontal seed [0, rho] x {0}, pushes it forward
through F^2, the square of the flattened map F, and stops once the curve
covers [0, delta].  The curve is the unique invariant graph of F, so it is
also that of F^2, and one push of F^2 moves x_max as far as two of F: a
solve takes half the pushes, and the fixed cost of a push dominates it.  The
flattening runs at two series orders above normalize_map's rule (order 16
at the solver's N = 12; at order 14 the truncation of the square shows at
the nodes on (delta/2, delta], about 3e-14), and F^2 is composed from it
with `series.compose_maps` at that order; the flattening cut back to
normalize_map's order is normalize_map's, bit for bit, and it is what
`SolveDiagnostics.normal_form` carries.  The
image of a sampled graph that passes the push guards is again a sampled
graph, so each push carries the image points forward as the next curve;
the level re-graphs them onto the graded grid only when the widest
log-spacing of neighbouring abscissas has doubled against the unit grid
(REGRAPH_SPREAD), and once when it ends, so every level curve lies on the
graded grid.  Shrinking rho and repeating gives a Cauchy sequence of curves
whose limit is the invariant curve; the solver stops at the first level
whose final curve is within tol_converge of the previous level's on
[0, delta/2] and returns that level.

The refinement runs coarse first.  The flat seed is off the curve by about
C rho^(N+1) in flattened coordinates, and the solver flattens to N = 12
(SOLVER_NORM_ORDER), so even a seed reaching most of the way to delta is
close.  With the default schedule (rho0 = 0.9 delta, rho_factor = 1/3) the
first level takes 2 pushes, and its seed error sits above the interpolation
floor: on the acceptance battery the first gap is 6.8e-20 to 3.5e-18, 560
to 3200 times the gap between rho = 0.3 delta and 0.1 delta, so it is
evidence that the sequence contracts and not round-off.  That gap is far
below tol_converge, so the solver returns the second level (rho =
0.3 delta, about 24 pushes), whose seed error is the gap times
r / (1 - r) with the known ratio r = rho_factor^(N+1) (Richardson's step;
Sidi, Practical Extrapolation Methods, 2003).  That figure,
`SolveDiagnostics.seed_error_est`, is a model figure, not a bound, and it
sees neither the grid nor the interpolant.

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
(one push, re-graphed) and the level loop.  Its `image` step maps the points
and runs every per-push guard on the image: monotonicity, the smallest
dX/dx, the drift constant and the cap on |Y|/X^3 (the growth margin is
checked by the loop); its `regraph` step fits them back onto the grid.
Re-graphing is kept rare because each one adds interpolation error and
removes none.  Each push costs a few dozen NumPy calls on grid-sized arrays;
its largest temporaries are the power table of x and the product of the
coefficients with it, about two dozen rows of grid size, so the allocator
reuses heap memory instead of mapping fresh pages every push:

* the map is evaluated by its cached dense-matrix evaluator
  (`series.MapEvaluator`, `m.evaluator`): one matrix product of the stacked
  components with the power table of x, weighted by the power table of y.
  Only the rows of the powers of y that can change a value count, and in
  flattened coordinates the carried ordinate is F = O(x^(N+1)), below
  7.2e-14 on the acceptance battery, so a push of the order-16 square uses
  2 or 3 of its 17 powers of y (y^0 .. y^2 on most pushes);
* a re-graph's grid is x_max times the unit grid computed once per solve,
  and a level carries raw (xs, fs) arrays, building one `Curve` when it
  ends.

One monotone cubic (Fritsch & Carlson, SIAM J. Numer. Anal. 17, 1980),
`PchipInterpolator`, serves both the re-graph and `Curve.eval`, the certify
and query path, which caches one per curve.  The invariance check reads
forward: one array call of the original map's evaluator takes every sample
(x, F(x)) to (X, Y), and the defect is |F(X) - Y|, so it needs no root find
and skips no sample.  The module needs NumPy only.

Certificates are measured, not assumed: suprema of x^(m-N) |F^(m)(x)| on the
grid, the smallest observed dX/dx, and the drift constant
|X_max - (x_max + a_2 x_max^2)| / x_max^3, with a_2 the x^2 coefficient of X
in the pushed map (1 for a map, 2 for its square).

Independence: `compose_maps` also squares the map for the conjugacy
(`parameterization.square_map`), so a defect there could move both solvers
together.  Criterion 04's invariance residual evaluates the original
polynomial map, not any series of it, but it does not catch such a defect:
a 1e-9 or a 1e-12 change planted in one coefficient of `compose_maps`'
output passes all ten acceptance criteria.  The test that catches it is
`test_phi_matches_the_exact_jet_on_the_battery`, which holds phi to the
exact jet solved from the original map.  Neither solver seeds the other.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, DomainError, GuardError, require_integers
from .mapdef import DEFAULT_DELTA, MapSpec
from .normalform import DEFAULT_NORM_ORDER, NormalFormResult, normalize_map, pullback_curve
from .series import PlanarSeriesMap, compose_maps

GRID_SPAN = 1e-6  # smallest positive node = GRID_SPAN * x_max
TANGENCY_POWER = 3
BOUND_CAP = 100.0  # the tangency cap on |F|/x^3, at every image node and on the returned curve
MAX_LEVELS = 8  # the most rho-levels a solve runs
# the most pushes of F^2 the first two levels, which every solve runs, may
# each need; a push costs about 60 us at the default grid, so a level within
# the budget takes seconds, not hours
PUSH_BUDGET = 100_000
COMPARE_SPAN = 1e-5  # two levels are compared on [COMPARE_SPAN * delta, delta/2]
# the scalars that `Curve.eval` reads as one float, without arrays
_REAL_SCALARS = (float, int, np.floating, np.integer)
# a level re-graphs once the widest log-spacing of its carried abscissas
# exceeds this many log-steps of the unit grid
REGRAPH_SPREAD = 2.0
# brentq stops an element once its half-bracket is below
# (ROOT_XTOL + ROOT_RTOL |x|) / 2, or fails after ROOT_MAX_ITER steps
ROOT_XTOL = 1e-300
ROOT_RTOL = 4.0 * np.finfo(float).eps
ROOT_MAX_ITER = 100


def _require_normal(name: str, value: float, node: float, what: str) -> None:
    """Raise a `DomainError` naming `name` unless `node`, spelt `what`, is a
    normal float: below the smallest one, grid nodes lose bits or vanish."""
    if not node >= np.finfo(float).tiny:
        raise DomainError(f"{name} = {value} is too small: {what} = {node:g} is not a normal float")


def graded_grid(x_max: float, size: int) -> np.ndarray:
    """Geometric grid on [0, x_max]: zero plus size-1 nodes down to GRID_SPAN*x_max.

    The grid is x_max times graded_grid(1.0, size), bit for bit.
    """
    require_integers(size=size)
    if not (0.0 < x_max < math.inf):  # NaN fails it too
        raise DomainError(f"x_max = {x_max} must be positive and finite")
    _require_normal("x_max", x_max, x_max * GRID_SPAN, "x_max * GRID_SPAN")
    if size < 8:
        raise DomainError(f"grid size = {size} must be at least 8")
    pos = np.geomspace(GRID_SPAN, 1.0, size - 1)
    pos[0] = GRID_SPAN
    pos[-1] = 1.0
    return x_max * np.concatenate(([0.0], pos))


def _end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    # one-sided three-point estimate, clamped to keep the shape
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


class PchipInterpolator:
    """Monotone cubic (Fritsch-Carlson PCHIP) through (xk, yk), xk increasing.

    Interior slopes are the weighted harmonic means of the neighbouring
    secants (zero at a sign change or a flat secant), end slopes the
    one-sided three-point estimates with SciPy's clamps; coefficients and
    the evaluation order are SciPy's, so the values match its
    PchipInterpolator bit for bit.  Queries must lie in [xk[0], xk[-1]].
    """

    def __init__(self, xk: np.ndarray, yk: np.ndarray):
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
        # column k: left node, value, slope and the s^2, s^3 coefficients of interval k
        self._inner = xk[1:-1]
        self._cols = np.stack((xk[:-1], yk[:-1], d[:-1], c1, t / h))

    def __call__(self, q: np.ndarray) -> np.ndarray:
        # interval k holds xk[k] <= q < xk[k+1]; q = xk[-1] falls in the last one
        x0, y0, d0, c1, c0 = self._cols[:, np.searchsorted(self._inner, q, side="right")]
        s = q - x0
        s2 = s * s
        return y0 + d0 * s + c1 * s2 + c0 * (s2 * s)

    def at(self, q: float) -> float:
        """The value at one float q: the interval from one `bisect_right` on
        a view of the interior nodes, its column as Python floats, and the
        cubic of `__call__` in the same order, so the same bits."""
        x0, y0, d0, c1, c0 = self._cols[:, bisect_right(memoryview(self._inner), q)].tolist()
        s = q - x0
        s2 = s * s
        return y0 + d0 * s + c1 * s2 + c0 * (s2 * s)


@dataclass(frozen=True)
class Curve:
    """Sampled graph {(x, F(x))} on a strictly increasing grid starting at 0."""

    xs: np.ndarray
    fs: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float).copy()
        fs = np.asarray(self.fs, dtype=float).copy()
        if xs.ndim != 1 or xs.shape != fs.shape or xs.size < 4:
            raise DomainError(
                f"curve needs matching 1-d arrays with at least 4 nodes, "
                f"got shapes xs {xs.shape} and fs {fs.shape}"
            )
        if xs[0] != 0.0 or fs[0] != 0.0:
            raise DomainError(
                f"curve must start at the origin, starts at ({xs[0]:.6g}, {fs[0]:.6g})"
            )
        steps = np.diff(xs)
        if not steps.min() > 0.0:  # a NaN fails it too
            bad = int(np.argmin(steps > 0.0))
            raise DomainError(
                f"grid must be strictly increasing: xs[{bad + 1}] = {xs[bad + 1]:.6g} "
                f"after xs[{bad}] = {xs[bad]:.6g}"
            )
        bad = np.flatnonzero(~(np.isfinite(xs) & np.isfinite(fs)))
        if bad.size:
            i = int(bad[0])
            raise DomainError(f"curve values must be finite: F = {fs[i]} at x = {xs[i]:.6g}")
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
        return PchipInterpolator(self.xs[1:], self.scaled)

    def check_tangency_cap(self) -> None:
        """Raise a `GuardError` when |F|/x^3 exceeds BOUND_CAP at a positive node."""
        worst = float(np.max(np.abs(self.scaled)))
        if worst > BOUND_CAP:
            raise GuardError(f"|F|/x^3 reached {worst:.3e}, above the cap {BOUND_CAP:.3e}")

    @cached_property
    def _ends(self) -> tuple[float, float]:
        """(xs[1], x_max) as floats, for the scalar path of `eval`."""
        return float(self.xs[1]), self.x_max

    def eval(self, x):
        """Interpolated F(x) on [0, x_max].

        Below the smallest positive node the scaled ordinate is held
        constant, which preserves the cubic tangency: the PCHIP is read at
        xs[1], where the cubic at s = 0 returns scaled[0] exactly.

        A real scalar (a Python or NumPy number, or a 0-d array) skips the
        arrays: the same domain check, clamps and cubic on Python floats
        (`PchipInterpolator.at`), times x^3 from `np.power`, the ufunc the
        array path's `arr**3` runs.  Python's `x**3` and `np.float64(x)**3`
        call the C library's pow, which rounds differently from that ufunc
        on about 5 % of inputs where NumPy uses its own vector pow, so the
        cube stays with `np.power` and a scalar returns the bits of the
        array element.
        """
        if isinstance(x, _REAL_SCALARS) or (isinstance(x, np.ndarray) and x.ndim == 0):
            q = float(x)
            lo, x_max = self._ends
            # written so that NaN, which fails every comparison, fails the check
            if not 0.0 <= q <= x_max * (1.0 + 1e-12):
                raise DomainError(
                    f"evaluation outside the curve domain [0, x_max = {x_max:g}]: x = {q:g}"
                )
            q = min(q, x_max)
            return float(self._interp.at(max(q, lo)) * np.power(q, TANGENCY_POWER))
        arr = np.array(x, dtype=float, ndmin=1)
        top = self.x_max * (1.0 + 1e-12)  # NaN fails the check below too
        if arr.size and not (arr.min() >= 0.0 and arr.max() <= top):
            bad = arr[~((arr >= 0.0) & (arr <= top))][0]
            raise DomainError(
                f"evaluation outside the curve domain [0, x_max = {self.x_max:g}]: x = {bad:g}"
            )
        arr = np.minimum(arr, self.x_max)
        out = self._interp(np.maximum(arr, self.xs[1])) * arr**TANGENCY_POWER
        return float(out[0]) if np.ndim(x) == 0 else out


def seed_curve(rho: float, grid_size: int) -> Curve:
    """The flat seed segment [0, rho] x {0} on the graded grid."""
    require_integers(grid_size=grid_size)
    return Curve(graded_grid(rho, grid_size), np.zeros(grid_size))


# ---------------------------------------------------------------------------
# push kernel: map evaluation and re-graph
# ---------------------------------------------------------------------------


class _PushKernel:
    """One push of a sampled graph through a map, with its guards (`image`), and
    the re-graph of the image onto the graded grid (`regraph`)."""

    def __init__(self, m: MapSpec | PlanarSeriesMap, grid_size: int):
        self._ev = m.evaluator
        # the x^2 coefficient of X: 1 for an admissible map, 2 for its square
        self._a2 = float(self._ev._coef[0, 0, 2])
        self.unit = graded_grid(1.0, grid_size)
        self._max_ratio = float(self.unit[-1] / self.unit[-2]) ** REGRAPH_SPREAD

    def image(self, xs: np.ndarray, fs: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, float]:
        """Image points (X, Y), smallest secant dX/dx, drift constant."""
        big_x, big_y = self._ev.values(xs, fs)
        if big_x[0] != 0.0 or big_y[0] != 0.0:
            raise GuardError(
                f"image of the origin moved off the origin, to ({big_x[0]:.6g}, {big_y[0]:.6g})"
            )
        dx = big_x[1:] - big_x[:-1]
        if not dx.min() > 0.0:  # a NaN fails it too
            bad = int(np.argmin(dx > 0.0))
            raise GuardError(
                f"graph monotonicity guard failed: image abscissas stall at x = {xs[bad]:.6g}"
            )
        min_slope = float((dx / (xs[1:] - xs[:-1])).min())
        xm = float(xs[-1])
        drift_c = float(abs(big_x[-1] - (xm + self._a2 * xm * xm)) / xm**3)
        # the PCHIP re-graph is monotone between nodes, so the cap on the
        # image nodes also holds for any re-graph of them; X^3 as two
        # products, which cost less than a power
        pos = big_x[1:]
        ratio = big_y[1:] / (pos * pos * pos)
        worst = float(max(ratio.max(), -ratio.min()))  # NaN if any is NaN
        if not worst <= BOUND_CAP:
            raise GuardError(
                f"|F|/x^3 reached {worst:.3e} after the push, above the cap {BOUND_CAP:.3e}"
            )
        return big_x, big_y, min_slope, drift_c

    def spread_doubled(self, xs: np.ndarray) -> bool:
        """Whether some neighbouring abscissas are further apart, in log, than
        REGRAPH_SPREAD unit-grid steps."""
        return bool((xs[2:] / xs[1:-1]).max() > self._max_ratio)

    def regraph(self, big_x: np.ndarray, big_y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The sampled graph through (X, Y) on X_max times the unit grid."""
        new_xs = float(big_x[-1]) * self.unit
        pos = big_x[1:]
        if not (pos[0] <= new_xs[1] and new_xs[-1] <= pos[-1]):
            raise GuardError(
                f"re-graph interpolation left the image range: grid [{new_xs[1]:.6g}, "
                f"{new_xs[-1]:.6g}], image abscissas [{pos[0]:.6g}, {pos[-1]:.6g}]"
            )
        finite = np.isfinite(big_y)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise GuardError(
                f"image ordinate Y = {big_y[bad]} is not finite at X = {big_x[bad]:.3g}"
            )
        new_scaled = PchipInterpolator(pos, big_y[1:] / pos**TANGENCY_POWER)(new_xs[1:])
        finite = np.isfinite(new_scaled)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise GuardError(
                f"re-graph interpolation of Y/X^3 is not finite: "
                f"{new_scaled[bad]} at X = {new_xs[bad + 1]:.3g}"
            )
        new_fs = np.empty_like(new_xs)
        new_fs[0] = 0.0
        np.multiply(new_scaled, new_xs[1:] ** TANGENCY_POWER, out=new_fs[1:])
        return new_xs, new_fs


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
    require_integers(m_max=m_max)
    if not 0 <= m_max <= 3:
        raise DomainError(f"m_max = {m_max} must be between 0 and 3")
    if c.xs.size < 8 * max(m_max, 1):
        raise DomainError(
            f"grid too sparse for m_max = {m_max}: {c.xs.size} nodes, "
            f"need {8 * max(m_max, 1)}"
        )
    ks = []
    xs, vals = c.xs[1:], c.fs[1:]
    for m in range(m_max + 1):
        if m > 0:
            xs, vals = _grid_derivative(xs, vals)
        ks.append(float(np.max(np.abs(vals) * xs ** float(m - n_power))))
    return BoundCertificate(tuple(ks), n_power, m_max)


def push_curve(m: MapSpec | PlanarSeriesMap, c: Curve) -> tuple[Curve, BoundCertificate]:
    """One forward push of a curve, re-graphed onto the graded grid.

    A level's push, every guard and the cap BOUND_CAP included.  Returns the
    image curve and its certificate: derivative envelopes at N =
    DEFAULT_NORM_ORDER and m_max = 2, smallest secant dX/dx, drift constant.
    """
    kernel = _PushKernel(m, c.xs.size)
    big_x, big_y, min_slope, drift_c = kernel.image(c.xs, c.fs)
    out = Curve(*kernel.regraph(big_x, big_y))
    cert = bound_certificate(out, DEFAULT_NORM_ORDER, 2)
    return out, replace(cert, min_dxdx=min_slope, xmax_drift_c=drift_c)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


# The solver's flattening order N, four above normalize_map's
# DEFAULT_NORM_ORDER: the flat seed's error C rho^(N+1) then stays near
# 1e-18 for a seed reaching 0.9 delta, so two short levels settle a solve.
SOLVER_NORM_ORDER = 12

# Default seed length: the flat seed is off the curve by about
# C rho^(N+1) in flattened coordinates (N the flattening order), so the
# default rho0 puts that error at SEED_SAFETY * tol_converge, capped at
# SEED_CAP * delta.  The first refinement gap over rho^(N+1), measured on
# battery maps 1, 2, 5 and 8 (seed 1729) for N = 3, 4, 5, 6, 8 at
# rho = delta/2 .. delta/16, gave C <= 0.7 wherever the gap was above 1e-15;
# smaller gaps reach the map's round-off floor (1e-20 to about 5e-16) and
# stop shrinking.  At N = 12 the model asks for rho = 0.12, above delta, so
# the cap binds.  It sits at 0.9 delta, inside the (0, delta) that rho0
# must lie in, so the first level takes 2 pushes, and the confirming gap
# shows its seed error above the floor: 6.8e-20 to 3.5e-18 on the battery
# (seed 1729, C <= 1.2 against rho^13), 560 to 3200 times the gap
# between levels 2 and 3.  With rho_factor 1/3 the returned level,
# 0.3 delta, takes about 24 pushes.
SEED_SAFETY = 1e-3
SEED_CAP = 0.9


@dataclass(frozen=True)
class SolverConfig:
    """The graph-transform settings, one per solver flag of the CLI; the level
    cap MAX_LEVELS and the tangency cap BOUND_CAP are constants of the method."""

    norm_order: int = SOLVER_NORM_ORDER  # flattening order N
    delta: float = DEFAULT_DELTA
    rho0: float | None = None  # None: derived from the error model, see initial_rho
    rho_factor: float = 1.0 / 3.0
    grid_size: int = 512
    m_max: int = 2
    tol_converge: float = 1e-9

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

    def seed_error_est(self, gap: float) -> float:
        """Modelled seed error of the finer of two levels that are `gap` apart.

        With level errors C rho^(N+1), the gap is the finer level's error
        times (1 - r) / r, r = rho_factor^(N+1), so that error is
        gap * r / (1 - r).  A model figure, not a bound: the observed order
        of the gaps strays from N + 1 (3.5 to 4.5 against 4 at N = 3 on the
        battery, rho_factor 1/3), and the estimate was within a factor 1.9
        of the error there.
        """
        r = self.rho_factor ** (self.norm_order + 1)
        return gap * r / (1.0 - r)

    def validate(self) -> None:
        """Raise a `DomainError` naming the first field outside its domain; a
        field that puts a compared abscissa or the smallest grid node of some
        level below the smallest normal float is outside it, and so is a seed
        length rho whose level needs more than PUSH_BUDGET pushes of F^2 in
        one of the two levels every solve runs.  F^2 moves x to about
        x + 2 x^2, so 1/x falls by about 2 per push, and a level from rho to
        delta needs about (1/rho - 1/delta) / 2 pushes."""
        require_integers(norm_order=self.norm_order, grid_size=self.grid_size, m_max=self.m_max)
        # tolerance, order and delta before rho0, which is derived from them
        if not self.tol_converge > 0.0:
            raise DomainError(f"tol_converge = {self.tol_converge:g} must be positive")
        if self.norm_order < 3:
            raise DomainError(f"norm_order = {self.norm_order} must be at least 3")
        if not math.isfinite(self.delta):
            raise DomainError(f"delta = {self.delta:g} must be finite")
        if not self.delta > 0.0:
            raise DomainError(f"delta = {self.delta:g} must be positive")
        _require_normal("delta", self.delta, self.delta * COMPARE_SPAN, "delta * COMPARE_SPAN")
        rho0 = self.initial_rho()
        if not (0.0 < rho0 < self.delta):
            raise DomainError(f"rho0 = {rho0:g} must lie in (0, delta = {self.delta:g})")
        _require_normal("rho0", rho0, rho0 * GRID_SPAN, "rho0 * GRID_SPAN")
        if self.grid_size < 64:
            raise DomainError(f"grid_size = {self.grid_size} must be at least 64")
        if not 0 <= self.m_max <= 3:
            raise DomainError(f"m_max = {self.m_max} must be between 0 and 3")
        if not (0.0 < self.rho_factor < 1.0):
            raise DomainError(f"rho_factor = {self.rho_factor:g} must lie in (0, 1)")
        deepest = rho0 * self.rho_factor ** (MAX_LEVELS - 1) * GRID_SPAN
        what = f"the last level's rho0 * rho_factor^{MAX_LEVELS - 1} * GRID_SPAN"
        _require_normal("rho_factor", self.rho_factor, deepest, what)
        rho1 = rho0 * self.rho_factor
        first, second = ((1.0 / rho - 1.0 / self.delta) / 2.0 for rho in (rho0, rho1))
        if first > PUSH_BUDGET:
            raise DomainError(
                f"rho0 = {rho0:g} is too small: the first level needs about "
                f"{first:.3g} pushes, above PUSH_BUDGET = {PUSH_BUDGET}"
            )
        if second > PUSH_BUDGET:
            raise DomainError(
                f"rho_factor = {self.rho_factor:g} is too small for rho0 = {rho0:g}: the second "
                f"level, at rho0 * rho_factor = {rho1:g}, needs about {second:.3g} pushes, "
                f"above PUSH_BUDGET = {PUSH_BUDGET}"
            )


@dataclass(frozen=True)
class LevelResult:
    """One rho-level of the push loop.  `nu_bar` and `x_max_trace` count
    steps of the pushed map, the square of the flattened map in a solve."""

    rho: float
    curve: Curve
    nu_bar: int
    x_max_trace: np.ndarray
    min_dxdx: float
    max_drift_c: float
    growth_margin_min: float
    regraphs: int


@dataclass(frozen=True)
class SolveDiagnostics:
    levels: tuple[LevelResult, ...]
    gaps: tuple[float, ...]
    normal_form: NormalFormResult
    config: SolverConfig = field(repr=False)
    seed_error_est: float  # the returned level's, config.seed_error_est(gaps[-1])


# series orders of the flattened map kept above normalize_map's rule for its
# square, the push map: at two fewer its truncation shows at the nodes
PUSH_HEADROOM = 2


def _prepare(m: MapSpec, cfg: SolverConfig) -> tuple[NormalFormResult, _PushKernel]:
    """normalize_map's flattening F, and the kernel that pushes F^2, composed
    from the flattening at PUSH_HEADROOM more series orders."""
    wide = normalize_map(m, cfg.norm_order, headroom=PUSH_HEADROOM)
    f = wide.normalized
    nf = wide.truncate(f.order - PUSH_HEADROOM)
    return nf, _PushKernel(compose_maps(f, f), cfg.grid_size)


def _run_level(kernel: _PushKernel, rho: float, cfg: SolverConfig) -> LevelResult:
    xs = rho * kernel.unit
    fs = np.zeros_like(xs)
    x_max = float(xs[-1])
    trace = [x_max]
    min_slope = math.inf
    max_drift = 0.0
    margin = math.inf
    regraphs = 0
    # the quadratic drift guarantees termination; the cap only catches stalls
    # (a difference of logs: for a huge delta the quotient overflows)
    cap = int(2.0 / rho) * (int(math.log(cfg.delta) - math.log(rho)) + 2) + 64
    while x_max <= cfg.delta:
        if len(trace) > cap:
            raise ConvergenceError(
                f"push iteration exceeded its step cap ({cap}) at rho={rho:g}",
                history=trace,
            )
        prev = x_max
        xs, fs, slope, drift = kernel.image(xs, fs)
        x_max = float(xs[-1])
        if x_max <= prev:
            raise GuardError(
                f"x_max failed to increase during a push at rho={rho:g}: "
                f"{x_max!r} after {prev!r}"
            )
        # the image is carried as the next curve; the level's last one is
        # always re-graphed, so every level curve lies on the graded grid
        if x_max > cfg.delta or kernel.spread_doubled(xs):
            xs, fs = kernel.regraph(xs, fs)
            regraphs += 1
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
        regraphs=regraphs,
    )


def _comparison_grid(delta: float) -> np.ndarray:
    return np.geomspace(delta * COMPARE_SPAN, 0.5 * delta, 256)


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
    require_integers(levels=levels)
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
    for lv, gap in _refine(kernel, cfg, MAX_LEVELS):
        levels.append(lv)
        if gap is not None:
            gaps.append(gap)
            if gap <= cfg.tol_converge:
                break
    else:
        raise ConvergenceError(
            f"refinement gaps never reached {cfg.tol_converge:g} "
            f"after {MAX_LEVELS} levels",
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
    out.check_tangency_cap()
    diag = SolveDiagnostics(
        tuple(levels), tuple(gaps), nf, cfg, cfg.seed_error_est(gaps[-1])
    )
    return out, cert, diag


# ---------------------------------------------------------------------------
# measurements on a computed curve
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvarianceReport:
    """The invariance defect of a curve, sample by sample.

    `xs` holds the sample abscissas xhat and `residuals` the defects
    |F(X) - Y| of their images (X, Y) = m(xhat, F(xhat)).
    """

    max_residual: float
    xs: np.ndarray
    residuals: np.ndarray
    # always (): only the benchmark's certify check reads it; ROADMAP item 12 removes it
    failures: tuple[float, ...] = ()


# unused here; the benchmark's tracer binds it by name until ROADMAP item 12
def brentq(f, a, b) -> np.ndarray:
    """Roots of f in the brackets [a, b], one Brent-Dekker iteration per element.

    a and b are numbers or 1-d arrays, broadcast together; the roots come
    back as one 1-d array.  f(x, idx) returns f of the elements idx (an
    index array into the brackets) at their points x; it is called only on
    the elements still iterating.
    Each element takes the steps of SciPy's brentq (Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 4): keep the bracket
    [xcur, xblk] with |f(xcur)| the smaller, try the secant or inverse
    quadratic step, take it only under Brent's test (shorter than half the
    step before last and than 3/4 of the bracket), else bisect, and never
    move less than delta = (ROOT_XTOL + ROOT_RTOL |xcur|) / 2.  An element
    stops where f vanishes or the half-bracket is below delta; an end where
    f vanishes is the root.

    Raises DomainError when f(a) and f(b) have the same sign or f returns
    NaN, and ConvergenceError when elements still iterate after ROOT_MAX_ITER
    steps.
    """

    def values(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
        fx = f(x, idx)
        if np.isnan(fx).any():
            raise DomainError(f"f is NaN at x = {x[np.isnan(fx)][0]:.17g}")
        return fx

    xpre, xcur = (np.array(v, dtype=float, ndmin=1) for v in np.broadcast_arrays(a, b))
    n = xcur.size
    idx = np.arange(n)
    fpre, fcur = values(xpre, idx), values(xcur, idx)
    root = np.where(fpre == 0.0, xpre, xcur)
    live = (fpre != 0.0) & (fcur != 0.0)
    same = int(np.count_nonzero(live & (np.signbit(fpre) == np.signbit(fcur))))
    if same:
        raise DomainError(f"f(a) and f(b) have the same sign in {same} of {n} brackets")
    idx, xpre, xcur, fpre, fcur = idx[live], xpre[live], xcur[live], fpre[live], fcur[live]
    xblk, fblk, spre, scur = (np.zeros_like(xcur) for _ in range(4))
    for _ in range(ROOT_MAX_ITER):
        flip = (fpre != 0.0) & (fcur != 0.0) & (np.signbit(fpre) != np.signbit(fcur))
        step = xcur - xpre
        xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
        spre, scur = np.where(flip, step, spre), np.where(flip, step, scur)
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                            np.where(swap, xcur, xblk))
        fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                            np.where(swap, fcur, fblk))

        delta = (ROOT_XTOL + ROOT_RTOL * np.abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        done = (fcur == 0.0) | (np.abs(sbis) < delta)
        root[idx[done]] = xcur[done]
        if done.all():
            return root
        if done.any():
            live = ~done
            idx, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis = (
                v[live] for v in (idx, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis)
            )

        # both trial steps everywhere, as IEEE arithmetic gives them; a
        # degenerate one is inf or NaN and fails the acceptance test
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            secant = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            quad = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        stry = np.where(xpre == xblk, secant, quad)
        take = (
            (np.abs(spre) > delta)
            & (np.abs(fcur) < np.abs(fpre))
            & (2.0 * np.abs(stry) < np.minimum(np.abs(spre), 3.0 * np.abs(sbis) - delta))
        )
        spre, scur = np.where(take, scur, sbis), np.where(take, stry, sbis)
        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0.0, delta, -delta))
        fcur = values(xcur, idx)
    raise ConvergenceError(
        f"{idx.size} of {n} samples did not converge in {ROOT_MAX_ITER} iterations"
    )


def invariance_residual(
    m: MapSpec, c: Curve, samples: int = 200
) -> tuple[float, InvarianceReport]:
    """Defect of the invariance identity on [0, x_max/2], read forward.

    At up to `samples` nodes xhat of the curve in (0, x_max/2], spread
    evenly over the node indices, maps (xhat, F(xhat)) once with the map's
    own evaluator, not any series of it, and measures |F(X) - Y| at the
    image (X, Y).  An image abscissa X outside [0, x_max], or NaN, is a
    `DomainError` naming the sample and X; no sample is skipped.
    """
    require_integers(samples=samples)
    if samples < 1:
        raise DomainError(f"samples must be at least 1, got {samples}")
    half = c.x_max / 2.0
    nodes = c.xs[(c.xs > 0.0) & (c.xs <= half)]
    if nodes.size == 0:
        raise DomainError(f"curve has no positive nodes in (0, x_max/2 = {half:.6g}]")
    if nodes.size > samples:
        idx = np.unique(np.linspace(0, nodes.size - 1, samples).astype(int))
        nodes = nodes[idx]
    ys = c.eval(nodes)
    with np.errstate(over="ignore", invalid="ignore"):  # the domain test below names the sample
        big_x, big_y = m.evaluator.values(nodes, ys)
    inside = (big_x >= 0.0) & (big_x <= c.x_max)  # False for a NaN image too
    if not inside.all():
        bad = int(np.argmin(inside))
        raise DomainError(
            f"invariance sample x = {nodes[bad]:.6g} maps to X = {big_x[bad]:.6g}, "
            f"outside the curve domain [0, x_max = {c.x_max:g}]"
        )
    res = np.abs(c.eval(big_x) - big_y)
    max_res = float(res.max())
    return max_res, InvarianceReport(max_res, nodes, res)


def _decades(xs: np.ndarray) -> Iterator[tuple[float, float, np.ndarray]]:
    """(lo, hi, mask of the nodes within 1e-12 of [lo, hi]) for the decades
    [lo, 10 lo] from xs[0] to xs[-1], the last one cut at xs[-1]; empty ones skipped."""
    lo, top = xs[0], xs[-1]
    while lo < top * (1.0 - 1e-12):
        hi = min(lo * 10.0, top)
        mask = (xs >= lo * (1.0 - 1e-12)) & (xs <= hi * (1.0 + 1e-12))
        if mask.any():
            yield float(lo), float(hi), mask
        lo = hi


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
        raise DomainError(
            f"need at least 8 samples in the smallest grid decade, got {int(small.sum())}"
        )
    ratio3 = fs / xs**3
    a3 = float(np.mean(ratio3[small]))

    rows = [
        DecadeStats(
            lo=lo,
            hi=hi,
            count=int(mask.sum()),
            sup_cubic_ratio=float(np.max(np.abs(ratio3[mask]))),
            sup_scaled_23=float(np.max(np.abs(fs[mask]) / xs[mask] ** (2.0 / 3.0))),
        )
        for lo, hi, mask in _decades(xs)
    ]
    cubic_bounded = True
    if len(rows) >= 2:
        cubic_bounded = rows[0].sup_cubic_ratio <= 1.5 * rows[1].sup_cubic_ratio + 1e-300
    vanishes = True
    if len(rows) >= 2:
        vanishes = rows[0].sup_scaled_23 <= rows[-1].sup_scaled_23 + 1e-300
    return a3, TangencyReport(a3, tuple(rows), cubic_bounded, vanishes)
