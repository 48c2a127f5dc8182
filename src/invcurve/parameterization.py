"""Conjugacy route to the invariant curve.

Instead of transporting curves, conjugate the inverse second iterate to a
cubic one-dimensional model: find K = (K1, K2) and R(t) = t - 2t^2 + d t^3
with Psi(K(t)) = K(R(t)), where Psi is the series inverse of the squared map.
The image of K is the invariant curve; eliminating the parameter gives its
graph phi = K2(K1^-1).

Structure that the solver relies on (and asserts):

* the second component of the squared map has no pure x^3 term, so Psi2 has
  none either;
* Psi1 = x - 2x^2 + ..., Psi2 = y + 2 lambda xy + ...;
* the coefficient equations are staggered: the order-n equations of the
  residual Psi(K) - K(R) pin the order-(n-1) coefficients of K (and d at
  order three), while the order-n coefficients cancel identically.  The
  leftover freedom is the usual reparameterization of K; it is fixed by
  pinning the t^2 coefficient of K1 (zero by default), and the graph phi
  does not depend on it.

K's top-order coefficients are therefore only pinned by equations one order
beyond the requested residual order; the last phi coefficient inherits the
normalization choice and should be trusted one order below the solve order.

The stages run online, at longdouble (or wider) from psi to phi: stage n
needs only the t^n coefficient of the residual, which tables of the powers
of K and of R kept across the stages give without forming the rest, and its
two unknowns come from the 2x2 stage matrix in closed form.  The whole
residual is formed once, at the end, to certify the result.  Only phi is
rounded to binary64, once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConjugacyError, ConvergenceError, DomainError, power_overflow, require_integers
from .graphtransform import Curve
from .mapdef import DEFAULT_DELTA, MapSpec, Point, invert_point, to_planar_series
from .series import (
    PlanarSeriesMap,
    Series1,
    _mul1,
    _power_column,
    compose_maps,
    invert_map_series,
    reverse_series,
    substitute,
)

DEFAULT_CONJUGACY_ORDER = 10
_STRUCT_TOL = 1e-12
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class ConjugacyResult:
    K1: Series1
    K2: Series1
    d: np.floating
    phi: Series1
    residual_max: float

    @property
    def model(self) -> Series1:
        """The cubic one-dimensional model R(t) = t - 2 t^2 + d t^3, at d's dtype."""
        return Series1._wrap(np.array([0.0, 1.0, -2.0, self.d]), 3)


def square_map(m: MapSpec, order: int) -> PlanarSeriesMap:
    """The map composed with itself, as a truncated longdouble series pair."""
    sm = to_planar_series(m, order).astype(np.longdouble)
    return compose_maps(sm, sm)


def build_psi(m: MapSpec, order: int) -> PlanarSeriesMap:
    """Series inverse of the squared map, with its structure asserted.

    Squaring and inversion run at np.longdouble, the dtype psi is returned
    at, unrounded (binary64 inversion drifts by hundreds of ulps).  The
    pure x^2 coefficient of the first component must be -2 and the xy
    coefficient of the second must be 2*lambda; the squared map's second
    component must carry no pure x^3 term.
    """
    require_integers(order=order)
    if order < 4:
        raise ConjugacyError(f"psi needs order at least 4, got {order}")
    sq = square_map(m, order)
    stray = abs(float(sq.fy.coeff(3, 0)))
    if stray > _STRUCT_TOL:
        raise ConjugacyError(f"squared map has a pure x^3 term in Y ({stray:.3e})")
    psi = invert_map_series(sq)
    x2, xy = float(psi.fx.coeff(2, 0)), float(psi.fy.coeff(1, 1))
    if abs(x2 + 2.0) > _STRUCT_TOL:
        raise ConjugacyError(f"x^2 coefficient of the inverted square is {x2!r}, expected -2")
    if abs(xy - 2.0 * m.lam) > _STRUCT_TOL * max(1.0, m.lam):
        raise ConjugacyError(
            f"xy coefficient of the inverted square is {xy!r}, expected {2.0 * m.lam}"
        )
    return psi


# The residual of Psi(K) - K(R) sums products of inverse-series coefficients
# that reach 1e5 and cancel to ~1e-10 in binary64, which would drown the
# certified bound, so it runs at psi's extended dtype, and so do K and d: a
# K or d rounded to binary64 leaves its rounding in the residual (3.75e-10
# at order 10 on the battery).  The stage unknowns enter the order-n
# residual linearly, with a matrix read off Psi's low coefficients (the
# cohomological equation; Haro et al., The Parameterization Method, 2016),
# so a stage needs only the t^n coefficient of the residual.
# `_StageResidual` computes just that coefficient from tables kept across
# the stages.  `_conjugacy_residual` computes the whole residual through
# psi's order, independently of those tables, and certifies the solve once
# at its end.  Its substitution multiplies raw arrays with the series core's
# product kernels and skips the powers a substitute's valuation puts beyond
# the order: K2 = O(t^3), so its Horner chain takes n // 3 steps, 4 at
# order 12.


def _conjugacy_residual(psi: PlanarSeriesMap, a, b, d) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of t^0 .. t^order of Psi(K(t)) - K(R(t)), with K = (a, b)
    and R = t - 2 t^2 + d t^3 taken at psi's dtype, unrounded."""
    n, dtype = psi.order, psi.fx.dtype
    k1, k2, model = (
        Series1._wrap(np.array(c, dtype), len(c) - 1).truncate(n)
        for c in (a, b, (0.0, 1.0, -2.0, d))
    )
    lhs = substitute([psi.fx, psi.fy], k1, k2)
    return tuple(u._c - k.compose(model)._c for u, k in zip(lhs, (k1, k2)))


class _StageResidual:
    """The t^n coefficient of Psi(K) - K(R), online over the stages.

    Three tables at psi's dtype live across the stages of one solve: psi's
    coefficients c_ij (of x^i y^j), its layout `PlanarSeriesMap.coef`; the
    powers P_i = K1^i and Q_j = K2^j, through psi's order; and the powers of
    the model, with [k, m] the t^m coefficient of R^k.  Stage n sets only
    K's t^(n-1) coefficients, so the columns of P and Q below n - 1 are
    final by then.  A call at n refreshes the columns from n - 1 on, each
    with one matrix-vector product (P_i[m] is P_(i-1)[1..m-1] .
    K1[m-1..1]), and forms

        r_n = sum_j (sum_i c_ij P_i)[0..n] . Q_j[n..0]  -  sum_k K_k R^k[n].

    The powers of R are rebuilt only once, after stage 3 has set d.  Calls
    come with n nondecreasing, and between calls K changes only in its
    coefficients from t^(n-1) on.
    """

    def __init__(self, psi: PlanarSeriesMap):
        self._coef = psi.coef  # c_ij at [:, j, i]
        _, ny, nx = self._coef.shape
        # P_i at [0, i], Q_j at [1, j]; row 1 holds K itself
        self._powers = np.zeros((2, max(nx, ny, 2), psi.order + 1), dtype=self._coef.dtype)
        self._powers[:, 0, 0] = 1.0
        self._stale = 1  # the first column that is not final
        self._d = self._model_powers = None

    def __call__(self, n: int, a, b, d) -> np.ndarray:
        pw = self._powers
        if d != self._d:
            model = np.zeros(pw.shape[2], dtype=pw.dtype)
            model[1:4] = 1.0, -2.0, d
            table = np.zeros((model.size, model.size), dtype=pw.dtype)
            table[0, 0] = 1.0
            for k in range(1, model.size):
                table[k] = _mul1(table[k - 1], model, model.size - 1)
            self._d, self._model_powers = d, table
        for col in range(self._stale, n + 1):
            pw[:, 1, col] = a[col], b[col]
            _power_column(pw, col)
        self._stale = n - 1
        _, ny, nx = self._coef.shape
        rows = self._coef @ pw[0, :nx, : n + 1]  # sum_i c_ij P_i, at [:, j]
        lhs = np.einsum("cjm,jm->c", rows, pw[1, :ny, n::-1])
        return lhs - pw[:, 1, : n + 1] @ self._model_powers[: n + 1, n]


def _stage_matrix(psi: PlanarSeriesMap, n: int) -> np.ndarray:
    """Derivative of the order-n residual in the stage unknowns, at psi's dtype.

    Order 3 pins d, which enters only through -K1(R) with K1'(0) = 1.  Order
    n >= 4 pins a_(n-1), b_(n-1): with K1 = t + ..., K2 = O(t^3) and
    R^(n-1) = t^(n-1) - 2 (n-1) t^n + ..., they reach t^n through the x^2 and
    xy terms of Psi and through K(R).
    """
    if n == 3:
        return np.array([[-1.0], [0.0]])
    shift = 2.0 * (n - 1)
    p, q = psi.fx, psi.fy
    row1 = [2.0 * p.coeff(2, 0) + shift, p.coeff(1, 1)]
    row2 = [2.0 * q.coeff(2, 0), q.coeff(1, 1) + shift]
    return np.array([row1, row2])


def _coeff_scale(psi: PlanarSeriesMap) -> float:
    """max(1, the largest |coefficient| of psi): the scale of the stage and
    residual tolerances of a conjugacy solve."""
    return max(1.0, float(np.abs(psi.fx._c).max()), float(np.abs(psi.fy._c).max()))


def _graph(x_of_t: Series1, y_of_t: Series1, order: int) -> Series1:
    """The graph y(x^-1) of a parameterized curve through the given order:
    reverted and composed at longdouble, rounded to binary64 once."""
    graph = y_of_t.compose(reverse_series(x_of_t.astype(np.longdouble)))
    return graph.truncate(order).astype(np.float64)


def solve_conjugacy(
    psi: PlanarSeriesMap, order: int, t2_coefficient: float = 0.0
) -> ConjugacyResult:
    """Determine K1, K2 and d so that Psi(K) = K(R) through the given order.

    Works order by order.  Stage n solves the two t^n coefficient equations
    for the unknowns they pin: d at order three, where the second equation
    must already hold (an error naming |r2[3]| otherwise), then the
    order-(n-1) coefficients of K, by Cramer's rule on the 2x2 stage matrix
    (a singular one is an error naming the order and its determinant).  One
    sweep per stage, with psi, K, d and the stage matrix at the wider of
    psi's dtype and longdouble, which K1, K2 and d are returned at.  The
    whole residual of exactly those is computed once at the end, and its
    largest coefficient must stay within 1e-10 max(1, psi's largest
    coefficient).  The graph function phi = K2(K1^-1), reverted and composed
    at longdouble and rounded to binary64 once, is returned with its
    sub-cubic coefficients checked against 1e-12 and zeroed.
    """
    require_integers(order=order)
    if order < 3:
        raise ConjugacyError(f"conjugacy order must be at least 3, got {order}")
    if psi.order < order:
        raise ConjugacyError(f"psi order {psi.order} is below the requested order {order}")
    if psi.fx.coeff(2, 0) >= 0.0:
        raise ConjugacyError(
            f"sign condition failed: x^2 coefficient of psi1 = {psi.fx.coeff(2, 0):g} "
            "is not negative"
        )
    if psi.fy.coeff(1, 1) <= 0.0:
        raise ConjugacyError(
            f"sign condition failed: xy coefficient of psi2 = {psi.fy.coeff(1, 1):g} "
            "is not positive"
        )

    scale = _coeff_scale(psi)
    stage_tol = 1e-9 * scale

    dtype = np.result_type(psi.fx.dtype, np.longdouble)
    psi = psi.astype(dtype).truncate(order)
    a, b = np.zeros(order + 1, dtype), np.zeros(order + 1, dtype)
    a[1], a[2] = 1.0, t2_coefficient
    d = dtype.type(0.0)

    stage_residual = _StageResidual(psi)
    for n in range(3, order + 1):
        r1, r2 = stage_residual(n, a, b, d)
        if n == 3:  # the stage matrix is the column (-1, 0)
            if abs(r2) > stage_tol:
                raise ConjugacyError(
                    "order-3 coefficient equations are inconsistent: "
                    f"|r2[3]| = {abs(r2):.3e} exceeds the tolerance {stage_tol:.3e}"
                )
            d += r1
        else:  # Cramer's rule for the stage matrix times the increments = -(r1, r2)
            (m11, m12), (m21, m22) = _stage_matrix(psi, n)
            det = m11 * m22 - m12 * m21
            if abs(det) <= _EPS * (abs(m11 * m22) + abs(m12 * m21)):
                raise ConjugacyError(
                    f"stage matrix at order {n} is singular (determinant {det:.3e})"
                )
            a[n - 1] += (m12 * r2 - m22 * r1) / det
            b[n - 1] += (m21 * r1 - m11 * r2) / det

    r1, r2 = _conjugacy_residual(psi, a, b, d)
    residual_max = float(max(np.max(np.abs(r1)), np.max(np.abs(r2))))
    if residual_max > 1e-10 * scale:
        raise ConjugacyError(
            f"conjugacy residual {residual_max:.3e} exceeds tolerance through order {order}"
        )

    k1, k2 = Series1._wrap(a, order), Series1._wrap(b, order)
    phi = _graph(k1, k2, order)
    low = max(abs(c) for c in phi.coeffs[:3])
    if low > _STRUCT_TOL:
        raise ConjugacyError(f"graph function keeps sub-cubic terms ({low:.3e})")
    phi = Series1((0.0, 0.0, 0.0) + phi.coeffs[3:])
    return ConjugacyResult(k1, k2, d, phi, residual_max)


def parameterize_manifold(m: MapSpec, order: int = DEFAULT_CONJUGACY_ORDER) -> ConjugacyResult:
    """Full pipeline: square, invert, conjugate, return the graph function."""
    return solve_conjugacy(build_psi(m, order), order)


# ---------------------------------------------------------------------------
# cross checks on the computed graph, against the map itself: the graph check
# reads phi(X(x, phi(x))) = Y(x, phi(x)) forward, as `invariance_residual`
# does on a sampled curve, and the repulsion check iterates the exact inverse
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GraphInvarianceReport:
    """|t^k coefficient of phi(X) - Y| for k = 0 .. order, and their maximum."""

    max_coeff_diff: float
    coeff_diffs: tuple[float, ...]


def graph_invariance_check(m: MapSpec, phi: Series1, order: int) -> GraphInvarianceReport:
    """The invariance defect phi(X(t, phi(t))) - Y(t, phi(t)) through the
    given order, from one substitution of (t, phi(t)) into the map's own
    series, with no inverse map, reversion or image graph.  The series run
    at the larger of the order and the map's degree, so that the map embeds
    exactly; truncation commutes with substitution and composition, so the
    report does not depend on the working order.
    """
    require_integers(order=order)
    if order < 0:
        raise DomainError(f"order = {order} must not be negative")
    work = max(order, m.degree)
    sm, phi = to_planar_series(m, work), phi.truncate(work)
    big_x, big_y = substitute([sm.fx, sm.fy], Series1.identity(work), phi)
    diffs = tuple(abs(c) for c in (phi.compose(big_x) - big_y).coeffs[: order + 1])
    return GraphInvarianceReport(max(diffs), diffs)


@dataclass(frozen=True)
class RepulsionTrace:
    xs: np.ndarray
    deviations: np.ndarray
    truncated: bool


def repulsion_check(
    m: MapSpec,
    manifold: Curve | Series1,
    x0: float,
    offset: float,
    steps: int,
    delta: float = DEFAULT_DELTA,
) -> RepulsionTrace:
    """Iterate the inverse second iterate from a point displaced off the curve.

    Each step applies two pointwise Newton inversions of the map (exact
    dynamics, no series truncation) and records (x, vertical deviation from
    the manifold).  Backward in this direction the abscissa shrinks while
    the deviation cannot shrink, which is what makes the curve unique.
    """
    require_integers(steps=steps)
    if steps < 0:
        raise DomainError(f"steps = {steps} must not be negative")
    if not (0.0 < delta < math.inf):
        raise DomainError(f"delta = {delta:g} must be finite and positive")
    if isinstance(manifold, Curve):
        if x0 > manifold.x_max:
            raise DomainError(
                f"x0 outside the sampled curve domain: x0 = {x0:g}, x_max = {manifold.x_max:g}"
            )
        f = manifold.eval
    elif isinstance(manifold, Series1):
        f = manifold.eval
    else:
        raise DomainError(f"manifold must be a Curve or a Series1, got {type(manifold).__name__}")
    if not 0.0 < x0 <= delta / 2.0:
        raise DomainError(f"need 0 < x0 <= delta/2: x0 = {x0:g}, delta = {delta:g}")
    try:
        bound = x0**3
    except OverflowError:
        raise power_overflow("x0", x0, 3) from None
    if abs(offset) > bound:
        raise DomainError(
            f"offset must satisfy |offset| <= x0^3: offset = {offset:g}, x0 = {x0:g}"
        )
    x, y = x0, f(x0) + offset
    xs = [x0]
    devs = [offset]
    truncated = False
    for _ in range(steps):
        try:
            half = invert_point(m, Point(x, y))
            nxt = invert_point(m, half)
        except ConvergenceError as exc:
            truncated = True
            warnings.warn(f"pointwise inversion failed ({exc}); trace truncated", stacklevel=2)
            break
        x, y = nxt.x, nxt.y
        if x <= 0.0:
            truncated = True
            warnings.warn("orbit left x > 0; trace truncated", stacklevel=2)
            break
        xs.append(x)
        devs.append(y - f(x))
    return RepulsionTrace(np.array(xs), np.array(devs), truncated)
