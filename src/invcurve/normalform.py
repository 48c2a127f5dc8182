"""Flatten the Y component through order N with one shear conjugation.

The shear S(x, y) = (x, y + s(x)) conjugates the map f = (fx, fy) to
X' = fx(x, y - s(x)), Y' = fy(x, y - s(x)) + s(X').  The pure-x part
P(x) = fy(x, -s(x)) + s(fx(x, -s(x))) of Y' holds 2 s_k at x^k and
otherwise s_3 .. s_(k-1) only, so with s known through k - 1, the shift's
coefficient gamma_k = s_k is -P_k / 2, for k = 3..N: a solve on raw
univariate arrays at np.longdouble, rounded once to the map's precision
(binary64, or wider for a wider map).  The map is then conjugated once, at
that precision, and the pure-x terms of Y through order N, left at rounding
level, are checked and zeroed.  Both steps read the map's coefficient
layout (`PlanarSeriesMap.coef`), spread onto the slots of the powers of x,
run the series module's Horner in y (`series._horner`) and take s(X') with
`Series1.compose`.  So the x-axis is invariant up to
O(x^(N+1)), and -s is the N-jet of the map's invariant graph: a curve
y = F(x) in the new coordinates is y = F(x) - s(x) in the original ones.
`pure_row` sums P for the solve and, past x^N, for the graph transform's
push, which reads it where the conjugated map's ordinates cancel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SeriesError, require_integers
from .mapdef import MapSpec, to_planar_series
from .series import DEFAULT_ORDER, PlanarSeriesMap, Series1, Series2, _horner, _index, _mul1, _mul2

# the flattening order N when none is given: normalize_map's, the hypothesis
# power of the shadowing check and the power of push_curve's certificate; the
# graph-transform solver flattens to its own graphtransform.SOLVER_NORM_ORDER
DEFAULT_NORM_ORDER = 8

# the conjugated pure-x coefficients of Y through order N must cancel to
# this, relative to max(1, 2 |gamma_k|), before they are zeroed
_KILL_TOL = 1e-12


@dataclass(frozen=True)
class NormalFormResult:
    normalized: PlanarSeriesMap
    gammas: tuple[float, ...]
    shift: Series1
    order: int


def pure_row(coef: np.ndarray, s: np.ndarray, order: int) -> np.ndarray:
    """P_0 .. P_order of the pure-x part P(x) = fy(x, -s(x)) + s(fx(x, -s(x)))
    of the conjugated Y, from coef[j, c], the univariate series
    sum_i c_ij x^i of component c, and the shift s_0 .. s_order (the first
    three zero), at their dtype."""
    # y = -s(x) = O(x^3), so only y^j with j <= order // 3 reach x^order
    rows = coef[: order // 3 + 1, :, : order + 1].swapaxes(0, 1)
    big_x, big_y = (Series1._wrap(_horner(r, -s, _mul1, order), order) for r in rows)
    return (big_y + Series1._wrap(s.copy(), order).compose(big_x))._c


def _solve_shift(coef: np.ndarray, order: int) -> np.ndarray:
    """s_0 .. s_order (the first three zero) at np.longdouble, from coef[j, c]
    as in `pure_row`, through x^order."""
    s = np.zeros(order + 1, dtype=np.longdouble)
    for k in range(3, order + 1):
        s[k] = (0.0 - pure_row(coef, s[: k + 1], k)[k]) / 2
    return s


def normalize_to_order(m: PlanarSeriesMap, order: int) -> NormalFormResult:
    """Flatten the Y component through the requested order.

    Needs truncation headroom: the map's series order must be at least
    order + 2.  A map whose shift is zero (CANON) comes back unchanged.
    """
    if order < 3:
        raise SeriesError(f"normalization order must be at least 3, got {order}")
    n = m.order
    if n < order + 2:
        raise SeriesError(
            f"series order {n} too small; need at least {order + 2} for order {order}"
        )
    # the powers of x are unit rows: rows[j, c], the Horner row sum_i c_ij x^i
    # of component c, holds each c_ij of the map's layout in the slot of x^i
    size, x_slots = Series2._slots(n), _index(np.arange(n + 1), 0)
    coef = m.coef.swapaxes(0, 1)
    dtype = np.result_type(coef.dtype, np.float64)
    rows = np.zeros((coef.shape[0], 2, size), dtype)
    rows[:, :, x_slots[: coef.shape[2]]] = coef
    s = np.zeros(n + 1, dtype)
    s[: order + 1] = _solve_shift(rows[:, :, x_slots[: order + 1]].astype(np.longdouble), order)
    shift, gammas = Series1._wrap(s, n), tuple(s[3 : order + 1].tolist())
    if not s.any():
        return NormalFormResult(m, gammas, shift, order)

    sy = np.zeros(size, dtype)  # y - s(x)
    sy[_index(0, 1)] = 1.0
    sy[x_slots[3 : order + 1]] = -s[3 : order + 1]
    big_x, big_y = _horner(rows, sy, _mul2, n)
    big_y = big_y + shift.compose(Series2._wrap(big_x, n))._c
    for k, gamma in enumerate(gammas, start=3):
        left, bound = abs(big_y[x_slots[k]]), _KILL_TOL * max(1.0, 2.0 * abs(gamma))
        if left > bound:
            raise SeriesError(
                f"shear failed to cancel the x^{k} coefficient of Y: "
                f"residual {left:.3e} exceeds {bound:.3e}"
            )
    big_y[x_slots[3 : order + 1]] = 0.0
    normalized = PlanarSeriesMap(Series2._wrap(big_x, n), Series2._wrap(big_y, n), n)
    return NormalFormResult(normalized, gammas, shift, order)


def normalize_map(m: MapSpec, order: int = DEFAULT_NORM_ORDER) -> NormalFormResult:
    """Flatten a polynomial map through `order` at the series order
    max(order + 2, degree, DEFAULT_ORDER): the headroom `normalize_to_order`
    needs, and never below the degree, so the map's own terms are exact."""
    require_integers(order=order)
    series_order = max(order + 2, m.degree, DEFAULT_ORDER)
    return normalize_to_order(to_planar_series(m, series_order), order)


def pullback_curve(f_norm, shift: Series1):
    """Undo the flattening shear: F_orig(x) = F_norm(x) - s(x).

    Accepts either a univariate series or a sampled curve and returns the
    same kind.  The shear fixes x and shifts y by s(x), so a single
    subtraction of the shift reverses it.
    """
    if isinstance(f_norm, Series1):
        return f_norm - shift.truncate(f_norm.order)
    from .graphtransform import Curve

    if isinstance(f_norm, Curve):
        return Curve(f_norm.xs, f_norm.fs - shift.eval(f_norm.xs))
    raise DomainError(f"f_norm must be a Series1 or a Curve, got {type(f_norm).__name__}")
