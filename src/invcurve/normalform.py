"""Shear conjugations that flatten the Y component one order at a time.

A change of variables y -> y + gamma * x^n (applied on both sides of the map)
can remove the pure x^n term from the Y component: if beta is that
coefficient, the conjugated map carries (2 gamma + beta) x^n, so
gamma = -beta/2 kills it.  Iterating n = 3..N produces coordinates in which
the Y component has no pure-x terms through order N, leaving the x-axis
invariant up to O(x^(N+1)).  The accumulated shift s(x) = sum gamma_n x^n
maps results back: a curve y = F(x) in the new coordinates is
y = F(x) - s(x) in the original ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from .mapdef import MapSpec, to_planar_series
from .series import DEFAULT_ORDER, PlanarSeriesMap, Series1, Series2, compose_maps

# conjugation is exact through order n only when the shear's quadratic
# interactions stay representable; callers must leave two orders of headroom
_KILL_TOL = 1e-12


@dataclass(frozen=True)
class NormalFormResult:
    normalized: PlanarSeriesMap
    gammas: tuple[float, ...]
    shift: Series1
    order: int


def shear_map(gamma: float, n: int, order: int) -> PlanarSeriesMap:
    """(x, y) -> (x, y + gamma x^n)."""
    fy = Series2({(0, 1): 1.0, (n, 0): gamma}, order) if gamma != 0.0 else Series2.y(order)
    return PlanarSeriesMap(Series2.x(order), fy, order)


def _zero_pure_coeff(m: PlanarSeriesMap, n: int) -> PlanarSeriesMap:
    fy = m.fy - Series2({(n, 0): m.fy.coeff(n, 0)}, m.order)
    return PlanarSeriesMap(m.fx, fy, m.order)


def normalize_step(m: PlanarSeriesMap, n: int) -> tuple[PlanarSeriesMap, float]:
    """Remove the pure x^n coefficient from the Y component.

    Reads beta from the current series, conjugates with the shear for
    gamma = -beta/2, and returns the conjugated map together with gamma.
    The killed coefficient is checked against a 1e-12 residual and then
    zeroed exactly so later guards see a clean tail.
    """
    if n < 3:
        raise ValueError("flattening starts at the cubic term (n >= 3)")
    if n > m.order:
        raise ValueError(f"order {n} exceeds truncation order {m.order}")
    for k in range(3, n):
        left = abs(m.fy.coeff(k, 0))
        if left > _KILL_TOL:
            raise ValueError(
                f"map is not flattened below order {n}: Y keeps {left:.3e} * x^{k}"
            )
    beta = m.fy.coeff(n, 0)
    gamma = -beta / 2.0
    if gamma == 0.0:
        return m, 0.0
    fwd = shear_map(gamma, n, m.order)
    back = shear_map(-gamma, n, m.order)
    conj = compose_maps(fwd, compose_maps(m, back))
    leftover = abs(conj.fy.coeff(n, 0))
    if leftover > _KILL_TOL * max(1.0, abs(beta)):
        raise ArithmeticError(
            f"shear failed to cancel the x^{n} coefficient (residual {leftover:.3e})"
        )
    return _zero_pure_coeff(conj, n), gamma


def normalize_to_order(m: PlanarSeriesMap, order: int) -> NormalFormResult:
    """Flatten the Y component through the requested order.

    Needs truncation headroom: the map's series order must be at least
    order + 2 so every conjugation is exact on the tracked coefficients.
    """
    if order < 3:
        raise ValueError("normalization order must be at least 3")
    if m.order < order + 2:
        raise ValueError(
            f"series order {m.order} too small; need at least {order + 2} for order {order}"
        )
    gammas = []
    current = m
    for n in range(3, order + 1):
        current, gamma = normalize_step(current, n)
        gammas.append(gamma)
    shift_coeffs = [0.0] * (m.order + 1)
    for n, g in zip(range(3, order + 1), gammas):
        shift_coeffs[n] = g
    shift = Series1(tuple(shift_coeffs))
    return NormalFormResult(current, tuple(gammas), shift, order)


def normalize_map(m: MapSpec, order: int) -> NormalFormResult:
    """Flatten a polynomial map through `order` at the series order
    max(order + 2, degree, DEFAULT_ORDER): the headroom `normalize_to_order`
    needs, and never below the degree, so the map's own terms are exact."""
    series_order = max(order + 2, m.degree, DEFAULT_ORDER)
    return normalize_to_order(to_planar_series(m, series_order), order)


def pullback_curve(f_norm, shift: Series1):
    """Undo the accumulated shears: F_orig(x) = F_norm(x) - s(x).

    Accepts either a univariate series or a sampled curve and returns the
    same kind.  The shears fix x and stack additively in y, so a single
    subtraction of the shift reverses all of them.
    """
    if isinstance(f_norm, Series1):
        return f_norm - shift.truncate(f_norm.order)
    from .graphtransform import Curve

    if isinstance(f_norm, Curve):
        return Curve(f_norm.xs, f_norm.fs - shift.eval(f_norm.xs))
    raise TypeError(f"cannot pull back {type(f_norm).__name__}")
