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
  pinning the t^2 coefficient of K1 (minimum-norm choice zero), and the
  graph phi does not depend on it.

K's top-order coefficients are therefore only pinned by equations one order
beyond the requested residual order; the last phi coefficient inherits the
normalization choice and should be trusted one order below the solve order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConjugacyError, ConvergenceError
from .graphtransform import Curve
from .mapdef import MapSpec, Point, invert_point, to_planar_series
from .series import (
    PlanarSeriesMap,
    Series1,
    Series2,
    compose_maps,
    invert_map_series,
    reverse_series,
    substitute,
)

DEFAULT_CONJUGACY_ORDER = 10
_STRUCT_TOL = 1e-12


@dataclass(frozen=True)
class ConjugacyResult:
    K1: Series1
    K2: Series1
    d: float
    phi: Series1
    residual_order: int
    residual_max: float

    @property
    def model(self) -> Series1:
        """The cubic one-dimensional model R(t) = t - 2 t^2 + d t^3."""
        return Series1((0.0, 1.0, -2.0, self.d))


def square_map(m: MapSpec, order: int) -> PlanarSeriesMap:
    """The map composed with itself, as a truncated longdouble series pair."""
    sm = to_planar_series(m, order).astype(np.longdouble)
    return compose_maps(sm, sm)


def build_psi(m: MapSpec, order: int) -> PlanarSeriesMap:
    """Series inverse of the squared map, with its structure asserted.

    Squaring and inversion run at np.longdouble and the result is rounded
    to binary64 once, so every coefficient of psi is within about half a
    unit in the last place (binary64 inversion drifts by hundreds).  The
    pure x^2 coefficient of the first component must be -2 and the xy
    coefficient of the second must be 2*lambda; the squared map's second
    component must carry no pure x^3 term.
    """
    if order < 4:
        raise ValueError("psi needs order at least 4")
    sq = square_map(m, order)
    stray = abs(float(sq.fy.coeff(3, 0)))
    if stray > _STRUCT_TOL:
        raise ConjugacyError(f"squared map has a pure x^3 term in Y ({stray:.3e})")
    psi = invert_map_series(sq).astype(np.float64)
    if abs(psi.fx.coeff(2, 0) + 2.0) > _STRUCT_TOL:
        raise ConjugacyError(
            f"x^2 coefficient of the inverted square is {psi.fx.coeff(2, 0)!r}, expected -2"
        )
    if abs(psi.fy.coeff(1, 1) - 2.0 * m.lam) > _STRUCT_TOL * max(1.0, m.lam):
        raise ConjugacyError(
            f"xy coefficient of the inverted square is {psi.fy.coeff(1, 1)!r}, "
            f"expected {2.0 * m.lam}"
        )
    return psi


# The residual of Psi(K) - K(R) sums products of inverse-series coefficients
# that reach 1e5 and cancel to ~1e-10 in binary64, which would drown the
# certified bound, so it runs on the same series core at np.longdouble (K and
# R as series in x alone); the returned coefficients stay binary64.  The stage
# unknowns enter the order-n residual linearly, with a matrix read off Psi's
# low coefficients (the cohomological equation; Haro et al., The
# Parameterization Method, 2016): one residual evaluation per stage sweep.


def _conjugacy_residual(psi: PlanarSeriesMap, a, b, d: float) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of t^0 .. t^order of Psi(K(t)) - K(R(t)), at psi's dtype."""
    n, dtype = psi.order, psi.fx.dtype
    k1, k2 = Series2.in_x(a, n, dtype), Series2.in_x(b, n, dtype)
    lhs = substitute([psi.fx, psi.fy], k1, k2)
    model = Series2.in_x([0.0, 1.0, -2.0, d], n, dtype)
    rhs = substitute([k1, k2], model, Series2.zero(n, dtype))
    return tuple((u - v).x_coeffs() for u, v in zip(lhs, rhs))


def _stage_matrix(psi: PlanarSeriesMap, n: int) -> np.ndarray:
    """Derivative of the order-n residual in the stage unknowns.

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


def solve_conjugacy(
    psi: PlanarSeriesMap, order: int, t2_coefficient: float = 0.0
) -> ConjugacyResult:
    """Determine K1, K2 and d so that Psi(K) = K(R) through the given order.

    Works order by order; at each stage the two coefficient equations are
    solved by minimum-norm least squares for the unknowns they actually pin
    (d at order three, then the order-(n-1) coefficients of K).  Rank
    deficiency with an inconsistent right-hand side is an error naming the
    order.  The graph function phi = K2(K1^-1) is returned with its
    sub-cubic coefficients checked against 1e-12 and zeroed.
    """
    if order < 3:
        raise ValueError("conjugacy order must be at least 3")
    if psi.order < order:
        raise ValueError(f"psi order {psi.order} below requested order {order}")
    if psi.fx.coeff(2, 0) >= 0.0:
        raise ConjugacyError("sign condition failed: x^2 coefficient of psi1 not negative")
    if psi.fy.coeff(1, 1) <= 0.0:
        raise ConjugacyError("sign condition failed: xy coefficient of psi2 not positive")

    scale = max(1.0, *(abs(v) for s in (psi.fx, psi.fy) for v in s.coeffs.values()))
    stage_tol = 1e-9 * scale

    a, b = [0.0] * (order + 1), [0.0] * (order + 1)
    a[1], a[2] = 1.0, float(t2_coefficient)
    d = 0.0

    # the order-n equations involve nothing beyond order n, so each stage
    # works at its own order; two sweeps per order, the second polishes the
    # binary64 increments
    for n in range(3, order + 1):
        mat = _stage_matrix(psi, n)
        psi_n = psi.truncate(n).astype(np.longdouble)
        for _ in range(2):
            r1, r2 = _conjugacy_residual(psi_n, a, b, d)
            rhs = -np.array([r1[n], r2[n]], dtype=float)
            sol, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
            if np.max(np.abs(mat @ sol - rhs)) > stage_tol:
                raise ConjugacyError(
                    f"rank-deficient coefficient equations at order {n} "
                    "admit no minimum-norm solution"
                )
            if n == 3:
                d += float(sol[0])
            else:
                a[n - 1] += float(sol[0])
                b[n - 1] += float(sol[1])

    r1, r2 = _conjugacy_residual(psi.truncate(order).astype(np.longdouble), a, b, d)
    residual_max = float(max(np.max(np.abs(r1)), np.max(np.abs(r2))))
    if residual_max > 1e-10 * scale:
        raise ConjugacyError(
            f"conjugacy residual {residual_max:.3e} exceeds tolerance through order {order}"
        )

    k1, k2 = Series1(tuple(a)), Series1(tuple(b))
    phi = k2.compose(reverse_series(k1)).truncate(order)
    low = max(abs(c) for c in phi.coeffs[:3])
    if low > _STRUCT_TOL:
        raise ConjugacyError(f"graph function keeps sub-cubic terms ({low:.3e})")
    phi = Series1((0.0, 0.0, 0.0) + phi.coeffs[3:])
    return ConjugacyResult(k1, k2, float(d), phi, order, float(residual_max))


def parameterize_manifold(m: MapSpec, order: int = DEFAULT_CONJUGACY_ORDER) -> ConjugacyResult:
    """Full pipeline: square, invert, conjugate, return the graph function."""
    return solve_conjugacy(build_psi(m, order), order)


# ---------------------------------------------------------------------------
# cross checks on the computed graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GraphInvarianceReport:
    phi_tilde: Series1
    max_coeff_diff: float
    coeff_diffs: tuple[float, ...]
    subcubic_max: float


def graph_invariance_check(m: MapSpec, phi: Series1, order: int) -> GraphInvarianceReport:
    """Compare phi with the graph of the inverse image of its own graph.

    The image of {(x, phi(x))} under the inverse map is re-expressed as a
    graph by reverting its first coordinate; coefficient agreement with phi
    through the requested order certifies invariance, and the image's
    sub-cubic part is reported (it should vanish).
    """
    work = max(order + 2, phi.order)
    inv = invert_map_series(to_planar_series(m, work))
    t = Series1.identity(work)
    phi_w = phi.truncate(work)
    x_of_t, y_of_t = (s.eval_series(t, phi_w) for s in (inv.fx, inv.fy))
    phi_tilde = y_of_t.compose(reverse_series(x_of_t)).truncate(order)
    diffs = tuple(abs(phi.coeff(k) - phi_tilde.coeff(k)) for k in range(order + 1))
    subcubic = max(abs(phi_tilde.coeff(k)) for k in range(min(3, order + 1)))
    return GraphInvarianceReport(phi_tilde, max(diffs), diffs, subcubic)


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
    delta: float = 0.05,
) -> RepulsionTrace:
    """Iterate the inverse second iterate from a point displaced off the curve.

    Each step applies two pointwise Newton inversions of the map (exact
    dynamics, no series truncation) and records (x, vertical deviation from
    the manifold).  Backward in this direction the abscissa shrinks while
    the deviation cannot shrink, which is what makes the curve unique.
    """
    if isinstance(manifold, Curve):
        if x0 > manifold.x_max:
            raise ValueError("x0 outside the sampled curve domain")
        f = manifold.eval
    elif isinstance(manifold, Series1):
        f = manifold.eval
    else:
        raise TypeError("manifold must be a Curve or a Series1")
    if not 0.0 < x0 <= delta / 2.0:
        raise ValueError("need 0 < x0 <= delta/2")
    if abs(offset) > x0**3:
        raise ValueError("offset must satisfy |offset| <= x0^3")
    x, y = x0, f(x0) + offset
    xs = [x0]
    devs = [offset]
    truncated = False
    for _ in range(steps):
        try:
            half = invert_point(m, Point(x, y))
            nxt = invert_point(m, half)
        except ConvergenceError:
            truncated = True
            warnings.warn("pointwise inversion stalled; trace truncated", stacklevel=2)
            break
        x, y = nxt.x, nxt.y
        if x <= 0.0:
            truncated = True
            warnings.warn("orbit left x > 0; trace truncated", stacklevel=2)
            break
        xs.append(x)
        devs.append(y - f(x))
    return RepulsionTrace(np.array(xs), np.array(devs), truncated)
