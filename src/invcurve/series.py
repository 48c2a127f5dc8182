"""Truncated power-series arithmetic: univariate, bivariate, and planar maps.

Univariate series are dense coefficient tuples.  A bivariate series is one
dense triangular numpy array of the coefficients of x^i y^j, i + j <= order,
in graded order (1; x, y; x^2, xy, y^2; ...), so truncation keeps a prefix;
its dtype is a parameter (binary64 by default, `np.longdouble` where
cancellation needs extended precision).  A product is one vectorised
truncated 2-D convolution over a per-order table of term pairs (Brent &
Kung, J. ACM 1978); substitution is Horner in y over the powers of the x
substitute.  A planar map is a pair of bivariate series with no constant
term and an invertible linear part.  Every operation truncates to the
carrying order and returns a new immutable value, so series can be shared
freely across threads.

The module supplies the three nontrivial primitives the rest of the package
is built on: composition of planar maps, local inversion of a planar map near
the origin (order-by-order fixed-point correction around the inverted linear
part), and reversion of a univariate series.

It also holds the one evaluator of planar polynomial maps, `MapEvaluator`,
built once per map (`MapSpec.evaluator`, `PlanarSeriesMap.evaluator`): the
values, the Jacobian and exact image offsets, each one contraction of a dense
coefficient matrix with power tables of x and y.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, repeat
from operator import mul
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import SeriesError

DEFAULT_ORDER = 12


# ---------------------------------------------------------------------------
# univariate series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Series1:
    """Dense univariate series  c0 + c1 t + ... + c_order t^order."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple([float(c) for c in self.coeffs]))
        if len(self.coeffs) == 0:
            raise SeriesError("Series1 needs at least the constant coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls, order: int = DEFAULT_ORDER) -> Series1:
        return cls((0.0,) * (order + 1))

    @classmethod
    def identity(cls, order: int = DEFAULT_ORDER) -> Series1:
        c = [0.0] * (order + 1)
        c[1] = 1.0
        return cls(tuple(c))

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[float], order: int) -> Series1:
        c = list(float(v) for v in coeffs)[: order + 1]
        c += [0.0] * (order + 1 - len(c))
        return cls(tuple(c))

    def coeff(self, k: int) -> float:
        return self.coeffs[k] if 0 <= k <= self.order else 0.0

    def truncate(self, order: int) -> Series1:
        return Series1.from_coeffs(self.coeffs, order)

    def __add__(self, other: Series1) -> Series1:
        n = min(self.order, other.order)
        return Series1([self.coeffs[k] + other.coeffs[k] for k in range(n + 1)])

    def __sub__(self, other: Series1) -> Series1:
        n = min(self.order, other.order)
        return Series1([self.coeffs[k] - other.coeffs[k] for k in range(n + 1)])

    def __neg__(self) -> Series1:
        return Series1([-c for c in self.coeffs])

    def scale(self, factor: float) -> Series1:
        return Series1([factor * c for c in self.coeffs])

    def __mul__(self, other: Series1) -> Series1:
        n = min(self.order, other.order)
        return Series1(tuple(np.convolve(self.coeffs[: n + 1], other.coeffs[: n + 1])[: n + 1]))

    def compose(self, inner: Series1) -> Series1:
        """self(inner(t)); inner must have zero constant term."""
        if inner.coeff(0) != 0.0:
            raise SeriesError(f"composition needs inner(0) = 0, got {inner.coeff(0)!r}")
        n = min(self.order, inner.order)
        result = Series1.from_coeffs([self.coeff(n)], n)
        for k in range(n - 1, -1, -1):
            result = result * inner + Series1.from_coeffs([self.coeff(k)], n)
        return result

    def eval(self, x):
        """Horner evaluation; accepts scalars or numpy arrays."""
        acc = np.polyval(self.coeffs[::-1], np.asarray(x, dtype=float))
        return float(acc) if np.isscalar(x) else acc


def reverse_series(s: Series1) -> Series1:
    """Compositional inverse g with s(g(t)) = t up to the truncation order."""
    if s.coeff(0) != 0.0:
        raise SeriesError(f"series reversion needs s(0) = 0, got s(0) = {s.coeff(0)!r}")
    a1 = s.coeff(1)
    if a1 == 0.0:
        raise SeriesError("series reversion needs a nonzero linear coefficient s'(0), got 0")
    n = s.order
    g = Series1.from_coeffs([0.0, 1.0 / a1], 1)
    # h = s - a1 t starts at degree 2, so the order-k terms of s(g) need g
    # only through order k - 1: the sweep that extends g to order k runs at k
    for k in range(2, n + 1):
        g = g.truncate(k)
        err = s.compose(g) - Series1.identity(k)
        g = g - err.scale(1.0 / a1)
    return g


# ---------------------------------------------------------------------------
# bivariate series
# ---------------------------------------------------------------------------


def _size(order: int) -> int:
    return (order + 1) * (order + 2) // 2


def _index(i, j):
    """Array slot of x^i y^j (integers or integer arrays)."""
    return (i + j) * (i + j + 1) // 2 + j


# keys: exponent pair of each array slot; ii, jj: its exponents; the pairs
# (left[p], right[p]) whose exponents add up to slot k are the run
# starts[k] .. starts[k + 1] - 1 (the product table)
_Tables = namedtuple("_Tables", "keys ii jj left right starts")


@lru_cache(maxsize=None)
def _tables(order: int) -> _Tables:
    keys = tuple((d - j, j) for d in range(order + 1) for j in range(d + 1))
    ii = np.array([i for i, _ in keys])
    jj = np.array([j for _, j in keys])
    deg = ii + jj
    p, q = np.nonzero(deg[:, None] + deg[None, :] <= order)
    target = _index(ii[p] + ii[q], jj[p] + jj[q])
    perm = np.argsort(target, kind="stable")
    target = target[perm]
    starts = np.flatnonzero(np.r_[True, target[1:] != target[:-1]])
    tables = _Tables(keys, ii, jj, p[perm], q[perm], starts)
    for arr in (ii, jj, tables.left, tables.right, starts):
        arr.flags.writeable = False
    return tables


class Series2:
    """Dense bivariate series truncated at total degree `order`.

    `Series2(coeffs, order, dtype)` takes a mapping from (i, j) to the x^i
    y^j coefficient; keys beyond the order are an error.  `coeffs` is the
    canonical sparse view: no zero coefficients, no key beyond the order.
    """

    __slots__ = ("_c", "order")

    def __new__(cls, coeffs: Mapping[tuple[int, int], float], order: int, dtype=np.float64):
        arr = np.zeros(_size(order), dtype=dtype)
        for (i, j), val in coeffs.items():
            if min(i, j) < 0 or i + j > order:
                raise SeriesError(f"key {(i, j)} is negative or exceeds truncation order {order}")
            arr[_index(i, j)] = val
        return cls._wrap(arr, order)

    @classmethod
    def _wrap(cls, arr: np.ndarray, order: int) -> Series2:
        out = object.__new__(cls)
        arr.flags.writeable = False
        object.__setattr__(out, "_c", arr)
        object.__setattr__(out, "order", order)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("Series2 is immutable")

    def __reduce__(self):
        return Series2._wrap, (self._c, self.order)

    @classmethod
    def zero(cls, order: int = DEFAULT_ORDER, dtype=np.float64) -> Series2:
        return cls({}, order, dtype)

    @classmethod
    def constant(cls, value: float, order: int = DEFAULT_ORDER, dtype=np.float64) -> Series2:
        return cls({(0, 0): value}, order, dtype)

    @classmethod
    def x(cls, order: int = DEFAULT_ORDER) -> Series2:
        return cls({(1, 0): 1.0}, order)

    @classmethod
    def y(cls, order: int = DEFAULT_ORDER) -> Series2:
        return cls({(0, 1): 1.0}, order)

    @classmethod
    def from_terms(cls, terms: Mapping[tuple[int, int], float], order: int) -> Series2:
        """Build from a raw table, silently dropping terms beyond the order."""
        return cls({k: v for k, v in terms.items() if k[0] + k[1] <= order}, order)

    @classmethod
    def in_x(cls, coeffs: Sequence[float], order: int, dtype=np.float64) -> Series2:
        """The univariate series sum_k coeffs[k] x^k, truncated at the order."""
        return cls({(k, 0): c for k, c in enumerate(coeffs) if k <= order}, order, dtype)

    def x_coeffs(self) -> np.ndarray:
        """The coefficients of x^0 .. x^order."""
        return self._c[_index(np.arange(self.order + 1), 0)]

    @property
    def dtype(self) -> np.dtype:
        return self._c.dtype

    @property
    def coeffs(self) -> dict[tuple[int, int], float]:
        keys = _tables(self.order).keys
        nz = np.flatnonzero(self._c)
        return dict(zip([keys[k] for k in nz], self._c[nz].tolist()))

    def astype(self, dtype) -> Series2:
        return Series2._wrap(self._c.astype(dtype), self.order)

    def coeff(self, i: int, j: int) -> float:
        if i < 0 or j < 0 or i + j > self.order:
            return 0.0
        return self._c[_index(i, j)].item()

    def terms(self) -> list[tuple[tuple[int, int], float]]:
        return sorted(self.coeffs.items())

    def truncate(self, order: int) -> Series2:
        arr = np.zeros(_size(order), dtype=self.dtype)
        arr[: self._c.size] = self._c[: arr.size]  # the shorter prefix of the two
        return Series2._wrap(arr, order)

    def __eq__(self, other) -> bool:
        same_order = isinstance(other, Series2) and other.order == self.order
        return same_order and bool(np.array_equal(self._c, other._c))

    def __add__(self, other: Series2) -> Series2:
        n = min(self.order, other.order)
        return Series2._wrap(self._c[: _size(n)] + other._c[: _size(n)], n)

    def __sub__(self, other: Series2) -> Series2:
        return self + (-other)

    def __neg__(self) -> Series2:
        return Series2._wrap(-self._c, self.order)

    def scale(self, factor: float) -> Series2:
        return Series2._wrap(self._c * factor, self.order)

    def __mul__(self, other: Series2) -> Series2:
        n = min(self.order, other.order)
        t = _tables(n)
        prod = self._c[t.left] * other._c[t.right]
        return Series2._wrap(np.add.reduceat(prod, t.starts), n)

    def _by_powers(self, n: int) -> np.ndarray:
        """Coefficient matrix C[j, i] of x^i y^j through order n, trimmed to the
        highest powers present."""
        t = _tables(n)
        arr = self._c[: _size(n)]
        nz = np.flatnonzero(arr)
        ii, jj = t.ii[nz], t.jj[nz]
        mat = np.zeros((jj.max(initial=0) + 1, ii.max(initial=0) + 1), dtype=arr.dtype)
        mat[jj, ii] = arr[nz]
        return mat

    def subst(self, sx: Series2, sy: Series2) -> Series2:
        """Substitute x -> sx, y -> sy; both must have zero constant term."""
        return substitute([self], sx, sy)[0]

    def eval_series(self, sx: Series1, sy: Series1) -> Series1:
        """Substitute univariate series for x and y; zero constant terms required."""
        n = min(self.order, sx.order, sy.order)
        out = self.subst(Series2.in_x(sx.coeffs, n), Series2.in_x(sy.coeffs, n))
        return Series1(tuple(out.x_coeffs()))


def substitute(parts: Sequence[Series2], sx: Series2, sy: Series2) -> list[Series2]:
    """Each series of `parts` with x -> sx, y -> sy (zero constant terms).

    The powers of sx are formed once for all parts; each part is then Horner
    in y over the linear combinations sum_i c_ij sx^i.
    """
    cx, cy = sx.coeff(0, 0), sy.coeff(0, 0)
    if cx != 0.0 or cy != 0.0:
        raise SeriesError(
            f"substitution needs zero constant terms, got x -> {cx!r} and y -> {cy!r}"
        )
    n = min(sx.order, sy.order, *(p.order for p in parts))
    mats = [p._by_powers(n) for p in parts]
    dtype = np.result_type(sx.dtype, sy.dtype, *(p.dtype for p in parts))
    powers = [Series2.constant(1.0, n, dtype)]
    for _ in range(max(m.shape[1] for m in mats) - 1):
        powers.append(powers[-1] * sx)
    table = np.stack([p._c for p in powers])
    out = []
    for mat in mats:
        rows = mat @ table[: mat.shape[1]]
        acc = Series2._wrap(rows[-1], n)
        for row in rows[-2::-1]:
            acc = Series2._wrap((acc * sy)._c + row, n)
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# pointwise evaluation of planar polynomial maps
# ---------------------------------------------------------------------------


def _powers(v, n: int):
    """v^0 .. v^n, each power one multiplication from the last.

    A number gives a list of floats (a NumPy call per power would cost more
    than the power); a 1-d array gives the rows of one preallocated table.
    """
    if not isinstance(v, np.ndarray):
        return list(accumulate(repeat(float(v), n), mul, initial=1.0))
    table = np.empty((n + 1, v.size))
    table[0] = 1.0
    for d in range(1, n + 1):
        np.multiply(table[d - 1], v, out=table[d])
    return table


def _slopes(p: list) -> list:
    """The derivative powers i v^(i-1) from the powers p of v."""
    return [0.0] + [i * p[i - 1] for i in range(1, len(p))]


def _divided(a: float, pb: list) -> list:
    """The divided sums D_0 = 0, D_i = a D_(i-1) + b^(i-1) from the powers pb
    of b, so that b^i - a^i = (b - a) D_i is an exact multiple of b - a."""
    out = [0.0]
    for p in pb[:-1]:
        out.append(a * out[-1] + p)
    return out


class MapEvaluator:
    """Values, Jacobian and exact image offsets of a planar polynomial map.

    Built once per map from its two term lists.  Component k is a dense
    coefficient matrix C_k[j, i] of x^i y^j, trimmed to the highest powers
    present; both are stacked so row k * (ny + 1) + j holds the
    x-coefficients of y^j in component k.  Every operation is the one
    contraction sum_ij C_k[j, i] u_i v_j over power tables u of x and v of
    y: 1-d tables at a point, 2-d tables (one column per point) on arrays.
    """

    def __init__(self, parts):
        keys = [k for terms in parts for k, _ in terms]
        self._nx = max((i for i, _ in keys), default=0)
        self._ny = max((j for _, j in keys), default=0)
        coef = np.zeros((2, self._ny + 1, self._nx + 1))
        for comp, terms in zip(coef, parts):
            for (i, j), c in terms:
                comp[j, i] = c
        self._coef = coef.reshape(-1, self._nx + 1)

    def _contract(self, u, v) -> np.ndarray:
        acc = self._coef @ u
        if acc.ndim == 1:  # a point: one more matrix-vector product
            return acc.reshape(2, self._ny + 1) @ v
        acc = acc.reshape(2, self._ny + 1, -1)
        acc *= v
        return acc.sum(axis=1)

    def values(self, x, y):
        """(X, Y) at a point (floats) or at 1-d arrays of points (arrays)."""
        px, py = _powers(x, self._nx), _powers(y, self._ny)
        out = self._contract(px, py)
        return tuple(out.tolist()) if isinstance(px, list) else (out[0], out[1])

    def jacobian(self, x: float, y: float) -> np.ndarray:
        """The exact Jacobian [[dX/dx, dX/dy], [dY/dx, dY/dy]] at a point."""
        px, py = _powers(x, self._nx), _powers(y, self._ny)
        return np.stack([self._contract(_slopes(px), py), self._contract(px, _slopes(py))], axis=1)

    def offset(self, x: float, y: float, dx: float, dy: float) -> tuple[float, float]:
        """The image of (x + dx, y + dy) minus the image of (x, y), at a point.

        Each monomial difference is dx D_i(x) (y + dy)^j + x^i dy D_j(y), so
        the images are never subtracted and a separation far below the
        spacing of doubles around the point keeps every digit.
        """
        px, pxh = _powers(x, self._nx), _powers(x + dx, self._nx)
        py, pyh = _powers(y, self._ny), _powers(y + dy, self._ny)
        out = dx * self._contract(_divided(x, pxh), pyh) + dy * self._contract(px, _divided(y, pyh))
        return tuple(out.tolist())


# ---------------------------------------------------------------------------
# planar maps as series pairs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanarSeriesMap:
    """A pair of bivariate series (fx, fy) fixing the origin.

    The 2x2 linear part must be invertible so the map has a local inverse.
    """

    fx: Series2
    fy: Series2
    order: int

    def __post_init__(self):
        orders = (self.fx.order, self.fy.order)
        if orders != (self.order, self.order):
            raise SeriesError(f"component orders {orders} differ from map order {self.order}")
        constants = (self.fx.coeff(0, 0), self.fy.coeff(0, 0))
        if constants != (0.0, 0.0):
            raise SeriesError(f"a planar series map must fix the origin, got {constants}")
        if self.linear_determinant() == 0.0:
            raise SeriesError("linear part is singular (determinant 0)")

    def linear_part(self) -> np.ndarray:
        f, g = self.fx, self.fy
        return np.array([[f.coeff(1, 0), f.coeff(0, 1)], [g.coeff(1, 0), g.coeff(0, 1)]])

    def linear_determinant(self) -> float:
        a, b = self.fx.coeff(1, 0), self.fx.coeff(0, 1)
        c, d = self.fy.coeff(1, 0), self.fy.coeff(0, 1)
        return a * d - b * c

    @classmethod
    def identity(cls, order: int = DEFAULT_ORDER) -> PlanarSeriesMap:
        return cls(Series2.x(order), Series2.y(order), order)

    def truncate(self, order: int) -> PlanarSeriesMap:
        return PlanarSeriesMap(self.fx.truncate(order), self.fy.truncate(order), order)

    def astype(self, dtype) -> PlanarSeriesMap:
        return PlanarSeriesMap(self.fx.astype(dtype), self.fy.astype(dtype), self.order)

    @cached_property
    def evaluator(self) -> MapEvaluator:
        """The map's evaluator, built on first use."""
        return MapEvaluator(self.sorted_terms())

    def eval(self, x, y):
        """(X, Y) at a point or at 1-d arrays of points."""
        return self.evaluator.values(x, y)

    def sorted_terms(self) -> tuple[list, list]:
        """The term lists of both components, as `MapSpec.sorted_terms` gives them."""
        return self.fx.terms(), self.fy.terms()


def compose_maps(outer: PlanarSeriesMap, inner: PlanarSeriesMap) -> PlanarSeriesMap:
    """outer(inner(x, y)) truncated to the common order."""
    if outer.order != inner.order:
        raise SeriesError(f"order mismatch: {outer.order} vs {inner.order}")
    fx, fy = substitute([outer.fx, outer.fy], inner.fx, inner.fy)
    return PlanarSeriesMap(fx, fy, outer.order)


def invert_map_series(m: PlanarSeriesMap) -> PlanarSeriesMap:
    """Local inverse g with m(g) = identity up to the truncation order.

    The linear part is inverted exactly; higher orders are filled in by the
    fixed-point sweep g <- L^-1 (id - h(g)) with h the nonlinear part of m.
    The order-k terms of h(g) involve g only through order k - 1, so the
    sweep that extends g from order k - 1 to order k runs at order k.
    """
    det = m.linear_determinant()
    if det == 0.0:
        raise SeriesError("cannot invert a map with singular linear part (determinant 0)")
    a, b = m.fx.coeff(1, 0), m.fx.coeff(0, 1)
    c, d = m.fy.coeff(1, 0), m.fy.coeff(0, 1)
    ia, ib, ic, id_ = d / det, -b / det, -c / det, a / det
    n = m.order

    dtype = np.result_type(m.fx.dtype, m.fy.dtype)
    hx = m.fx - Series2({(1, 0): a, (0, 1): b}, n, dtype)
    hy = m.fy - Series2({(1, 0): c, (0, 1): d}, n, dtype)

    gx = Series2({(1, 0): ia, (0, 1): ib}, 1, dtype)
    gy = Series2({(1, 0): ic, (0, 1): id_}, 1, dtype)
    for k in range(2, n + 1):
        hgx, hgy = substitute([hx, hy], gx.truncate(k), gy.truncate(k))
        rx = Series2.x(k) - hgx
        ry = Series2.y(k) - hgy
        gx = rx.scale(ia) + ry.scale(ib)
        gy = rx.scale(ic) + ry.scale(id_)
    return PlanarSeriesMap(gx, gy, n)
