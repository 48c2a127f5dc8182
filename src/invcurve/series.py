"""Truncated power-series arithmetic: univariate, bivariate, and planar maps.

Both kinds of series share one dense core: an immutable numpy array of
coefficients whose dtype is a parameter (binary64 by default, `np.longdouble`
where cancellation needs extended precision).  A univariate series holds
c_0 .. c_order; a bivariate one the coefficients of x^i y^j, i + j <= order,
in graded order (1; x, y; x^2, xy, y^2; ...), so truncation keeps a prefix.
A univariate product is one `np.convolve`, a bivariate one a vectorised
truncated 2-D convolution over a per-order table of term pairs (Brent & Kung,
J. ACM 1978).  Both are raw kernels on coefficient arrays (`_mul1`, `_mul2`):
the `*` operators wrap them, and substitution calls them directly.  The pair
table is sorted by target slot, so the pairs of the slots of degrees low .. n
are a tail of it: `_mul2(a, b, n, low)` computes only those slots, each with
the same pairs in the same order and so the same bits, and takes a stack of
series as `a`.  Every reader of bivariate coefficients by power takes one
dense layout C[k, j, i], the x^i y^j coefficient of series k trimmed to the
highest powers present, built by `_coef_cube` and kept per planar map
(`PlanarSeriesMap.coef`).  Substitution is Horner in y (`_horner`) over
the powers of the x substitute, univariate or bivariate, on raw arrays; it
wraps only its results, apart from the powers of a bivariate substitute,
which are `Series2` products.  It skips the powers that cannot reach the
truncation order n: sx^i once i val(sx) > n and sy^j once j val(sy) > n,
where val is the degree of the lowest nonzero term (a substitute zero
everywhere keeps only the zeroth power).  The skipped terms would only add
exact zeros, so the results are unchanged up to the sign of a zero.
`Series1.compose` is Horner over the inner series' own product kernel, so
it composes into either kind.  A planar map is a pair of bivariate series
with finite coefficients, no constant term and an invertible linear part.
Every operation returns a new immutable value, so series can be shared
freely across threads.

The module supplies the three nontrivial primitives the rest of the package
is built on: composition of planar maps, local inversion of a planar map near
the origin, and reversion of a univariate series.  Local inversion is the
fixed-point sweep g <- L^-1 (id - h(g)) around the inverted linear part L,
run online (relaxed, in the sense of van der Hoeven, J. Symb. Comput. 2002):
the degree-k terms of h(g) need g only through degree k - 1, so sweep k
computes only degree k of the powers of gx and of the Horner accumulators
it keeps across sweeps, each product a tail of the pair table.  Reversion
is online too, at longdouble (or wider): a table of the powers of g gains
one column per coefficient, from one matrix-vector product
(`_power_column`, the update the conjugacy's stage residual also runs),
each coefficient of g is set once from the lower ones, and the result is
rounded to the input's dtype once.  So reversion commutes with truncation.

It also holds the one evaluator of planar polynomial maps, `MapEvaluator`,
built once per map from its layout (`PlanarSeriesMap.evaluator`, which
`MapSpec.evaluator` reaches through `to_planar_series`): the values on
arrays of points, one contraction of the layout with power tables of x
and y, and, at a point, the values, the Jacobian, or the image together
with the exact offset of a nearby point's image, from Horner chains in x
over the layout's rows held as Python floats.  Both use only the y-power
rows that can change a result at the points given, by one rule: it weights
each row, keeps one table of the weights and their suffix sums per
evaluator, and cuts at the first row where a bound on the weighted tail
falls below ROW_CUT.  For the small ordinates of a push or a shadowing
step that keeps the first two to four rows.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import isqrt
from numbers import Integral
from typing import Iterable, Mapping, Sequence, TypeVar

import numpy as np

from .errors import SeriesError, require_integers

DEFAULT_ORDER = 12
# the evaluator drops the y-power rows whose weighted tail is below ROW_CUT:
# they move a value by less than ROW_CUT |y|, too little to change one of
# size 2^-5 |y| or more
ROW_CUT = 2.0**-60
# an evaluator whose row weights sum above CUT_WEIGHT keeps every row: below
# it, the powers that underflow in the row rule's bound move it by less than
# 2^-560, far below ROW_CUT
CUT_WEIGHT = 2.0**512


# ---------------------------------------------------------------------------
# the dense core
# ---------------------------------------------------------------------------


S = TypeVar("S", bound="_Dense")


class _Dense:
    """What both series kinds do the same way on their coefficient array.

    A subclass says how many array slots an order needs (`_slots`) and
    supplies its constructor, coefficient access and product.
    """

    __slots__ = ("_c", "order")

    @classmethod
    def _wrap(cls: type[S], arr: np.ndarray, order: int) -> S:
        out = object.__new__(cls)
        arr.flags.writeable = False
        object.__setattr__(out, "_c", arr)
        object.__setattr__(out, "order", order)
        return out

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self)._wrap, (self._c, self.order)

    @classmethod
    def zero(cls: type[S], order: int = DEFAULT_ORDER, dtype=np.float64) -> S:
        require_integers(order=order)
        return cls._wrap(np.zeros(cls._slots(order), dtype=dtype), order)

    @classmethod
    def constant(cls: type[S], value: float, order: int = DEFAULT_ORDER, dtype=np.float64) -> S:
        require_integers(order=order)
        arr = np.zeros(cls._slots(order), dtype=dtype)
        arr[0] = value
        return cls._wrap(arr, order)

    @property
    def dtype(self) -> np.dtype:
        return self._c.dtype

    def astype(self: S, dtype) -> S:
        return self._wrap(self._c.astype(dtype), self.order)

    def truncate(self: S, order: int) -> S:
        require_integers(order=order)
        arr = np.zeros(self._slots(order), dtype=self.dtype)
        arr[: self._c.size] = self._c[: arr.size]  # the shorter prefix of the two
        return self._wrap(arr, order)

    def __eq__(self, other) -> bool:
        same_order = type(other) is type(self) and other.order == self.order
        return same_order and bool(np.array_equal(self._c, other._c))

    def __add__(self: S, other: S) -> S:
        n = min(self.order, other.order)
        size = self._slots(n)
        return self._wrap(self._c[:size] + other._c[:size], n)

    def __sub__(self: S, other: S) -> S:
        return self + (-other)

    def __neg__(self: S) -> S:
        return self._wrap(-self._c, self.order)

    def scale(self: S, factor: float) -> S:
        return self._wrap(self._c * factor, self.order)


# ---------------------------------------------------------------------------
# univariate series
# ---------------------------------------------------------------------------


def _mul1(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Raw univariate product kernel: c_0 .. c_n of a b."""
    return np.convolve(a[: n + 1], b[: n + 1])[: n + 1]


def _horner(rows: np.ndarray, t: np.ndarray, mul, n: int) -> np.ndarray:
    """sum_j rows[j] t^j through order n by `mul`, the raw product kernel of their kind."""
    acc = rows[-1]
    for row in rows[-2::-1]:
        acc = mul(acc, t, n) + row
    return acc


class Series1(_Dense):
    """Dense univariate series  c0 + c1 t + ... + c_order t^order.

    `Series1(coeffs)` takes the coefficients c0 .. c_order as binary64; a
    longdouble series is `.astype(np.longdouble)` of one.  `coeffs` is the
    tuple of all of them, Python floats at binary64.
    """

    __slots__ = ()
    _mul = staticmethod(_mul1)

    @staticmethod
    def _slots(order: int) -> int:
        return order + 1

    @staticmethod
    def _degree(slot: int) -> int:
        return slot

    def __new__(cls, coeffs: Iterable[float]):
        arr = np.array([float(c) for c in coeffs])
        if arr.size == 0:
            raise SeriesError("Series1 needs at least the constant coefficient")
        return cls._wrap(arr, arr.size - 1)

    @classmethod
    def identity(cls, order: int = DEFAULT_ORDER) -> Series1:
        return cls.from_coeffs([0.0, 1.0], order)

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[float], order: int) -> Series1:
        require_integers(order=order)
        c = [float(v) for v in coeffs][: order + 1]
        return cls(c + [0.0] * (order + 1 - len(c)))

    @property
    def coeffs(self) -> tuple:
        return tuple(self._c.tolist())

    def coeff(self, k: int) -> float:
        return self._c[k].item() if 0 <= k <= self.order else 0.0

    def __mul__(self, other: Series1) -> Series1:
        n = min(self.order, other.order)
        return Series1._wrap(_mul1(self._c, other._c, n), n)

    def compose(self, inner: S) -> S:
        """self(inner), Horner at the wider dtype over inner's product kernel
        from self's highest nonzero coefficient; inner is univariate or
        bivariate, with zero constant term, and the result is of its kind."""
        c0 = inner._c[0].item()
        if c0 != 0.0:
            raise SeriesError(f"composition needs inner(0) = 0, got {c0!r}")
        kind, n = type(inner), min(self.order, inner.order)
        c, top = self._c, n
        while top and c[top] == 0.0:
            top -= 1
        acc = np.zeros(kind._slots(n), dtype=np.result_type(self.dtype, inner.dtype))
        acc[0] = c[top]
        for k in range(top - 1, -1, -1):
            acc = kind._mul(acc, inner._c, n)
            acc[0] += c[k]
        return kind._wrap(acc, n)

    def eval(self, x):
        """Horner evaluation; accepts scalars or numpy arrays."""
        acc = np.polyval(self._c[::-1], np.asarray(x, dtype=float))
        return float(acc) if np.isscalar(x) else acc


def _power_column(pw: np.ndarray, col: int) -> None:
    """Fill column `col` of the power tables pw[..., j, m], the t^m
    coefficient of g^j with g in row 1, for every j >= 2, from the columns
    below it: pw[j, col] = pw[j - 1, 1..col-1] . g[col-1..1].  g has no
    constant term, so the columns below `col` are all it needs."""
    pw[..., 2:, col] = (pw[..., 1:-1, 1:col] @ pw[..., 1, col - 1 : 0 : -1, None])[..., 0]


def reverse_series(s: Series1) -> Series1:
    """Compositional inverse g with s(g(t)) = t up to the truncation order.

    Online, at the wider of s's dtype and longdouble: the t^k coefficient of
    s(g) is a_1 g_k + sum_(j>=2) a_j [g^j]_k, and [g^j]_k needs g only
    through g_(k-1), so each coefficient g_k is set once, after column k of
    the table of powers of g is filled (Brent & Kung, J. ACM 1978).  The
    result is rounded to s's dtype once.
    """
    if s.coeff(0) != 0.0:
        raise SeriesError(f"series reversion needs s(0) = 0, got s(0) = {s.coeff(0)!r}")
    if s.coeff(1) == 0.0:
        raise SeriesError("series reversion needs a nonzero linear coefficient s'(0), got 0")
    n = s.order
    a = s._c.astype(np.result_type(s.dtype, np.longdouble))
    pw = np.zeros((n + 1, n + 1), dtype=a.dtype)  # [j, m]: t^m coefficient of g^j
    pw[0, 0], pw[1, 1] = 1.0, 1.0 / a[1]
    for k in range(2, n + 1):
        _power_column(pw, k)
        pw[1, k] = -(a[2 : k + 1] @ pw[2 : k + 1, k]) / a[1]
    return Series1._wrap(pw[1].astype(s.dtype), n)


# ---------------------------------------------------------------------------
# bivariate series
# ---------------------------------------------------------------------------


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


@lru_cache(maxsize=None)
def _tail(n: int, low: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(left, right, run starts) of the pairs of `_tables(n)` whose target
    degree is low .. n: a tail of the table, which is sorted by target slot."""
    t = _tables(n)
    first = low * (low + 1) // 2  # slot of x^low, the first of degree low
    off = t.starts[first]
    tail = (t.left[off:], t.right[off:], t.starts[first:] - off)
    tail[2].flags.writeable = False
    return tail


def _mul2(a: np.ndarray, b: np.ndarray, n: int, low: int = 0) -> np.ndarray:
    """Raw bivariate product kernel: the slots of degrees low .. n of a b.

    `a` may be a stack of series (slots on its last axis), each multiplied by
    `b`.  Every slot sums the same pairs in the same order whatever `low`
    is, so it comes out with the same bits.
    """
    left, right, starts = _tail(n, low)
    return np.add.reduceat(a.take(left, axis=-1) * b.take(right), starts, axis=-1)


def _coef_cube(parts: Sequence[Series2], n: int) -> np.ndarray:
    """The coefficient layout C[k, j, i]: the x^i y^j coefficient of parts[k]
    through order n, trimmed to the highest powers of x and of y present in
    any part, at the parts' common dtype; read-only."""
    t = _tables(n)
    arr = np.stack([p._c[: t.ii.size] for p in parts])
    k, nz = np.nonzero(arr)
    ii, jj = t.ii[nz], t.jj[nz]
    cube = np.zeros((len(parts), jj.max(initial=0) + 1, ii.max(initial=0) + 1), dtype=arr.dtype)
    cube[k, jj, ii] = arr[k, nz]
    cube.flags.writeable = False
    return cube


class Series2(_Dense):
    """Dense bivariate series truncated at total degree `order`.

    `Series2(coeffs, order, dtype)` takes a mapping from (i, j) to the x^i
    y^j coefficient; keys beyond the order are an error.  `coeffs` is the
    canonical sparse view: no zero coefficients, no key beyond the order.
    """

    __slots__ = ()
    _mul = staticmethod(_mul2)

    @staticmethod
    def _slots(order: int) -> int:
        return (order + 1) * (order + 2) // 2

    @staticmethod
    def _degree(slot: int) -> int:
        return (isqrt(8 * slot + 1) - 1) // 2

    def __new__(cls, coeffs: Mapping[tuple[int, int], float], order: int, dtype=np.float64):
        require_integers(order=order)
        arr = np.zeros(cls._slots(order), dtype=dtype)
        for (i, j), val in coeffs.items():
            if not isinstance(i, Integral) or not isinstance(j, Integral):
                raise SeriesError(f"key {(i, j)} has a non-integer exponent")
            if min(i, j) < 0 or i + j > order:
                raise SeriesError(f"key {(i, j)} is negative or exceeds truncation order {order}")
            arr[_index(i, j)] = val
        return cls._wrap(arr, order)

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

    @property
    def coeffs(self) -> dict[tuple[int, int], float]:
        keys = _tables(self.order).keys
        nz = np.flatnonzero(self._c)
        return dict(zip([keys[k] for k in nz], self._c[nz].tolist()))

    def coeff(self, i: int, j: int) -> float:
        if i < 0 or j < 0 or i + j > self.order:
            return 0.0
        return self._c[_index(i, j)].item()

    def __mul__(self, other: Series2) -> Series2:
        n = min(self.order, other.order)
        return Series2._wrap(_mul2(self._c, other._c, n), n)


def _reach(s: _Dense, n: int) -> int:
    """The highest power of s (zero constant term) that is nonzero through
    order n: n // val(s), with val the degree of its lowest nonzero term, and
    0 for a series that is zero everywhere."""
    nz = np.flatnonzero(s._c)
    return n // s._degree(nz[0]) if nz.size else 0


def substitute(parts: Sequence[Series2], sx: S, sy: S) -> list[S]:
    """Each series of `parts` with x -> sx, y -> sy (zero constant terms).

    The substitutes are both univariate or both bivariate, and so is each
    result.  The coefficients of all parts are one layout C[k, j, i]
    (`_coef_cube`), and the powers of sx are formed once for all parts, as
    the rows of one array; each part is then Horner in y (`_horner`) over
    the linear combinations sum_i c_ij sx^i, on raw arrays, and only the
    results are wrapped (and the powers of a bivariate sx, which are
    `Series2` products).  Powers
    that start beyond the order are skipped: sx^i once i val(sx) > order,
    sy^j once j val(sy) > order.  They would only add exact zeros.
    """
    kind = type(sx)
    if type(sy) is not kind or kind not in (Series1, Series2):
        raise SeriesError(
            "substitution needs two univariate or two bivariate substitutes, "
            f"got x -> {kind.__name__} and y -> {type(sy).__name__}"
        )
    if not parts:
        raise SeriesError("substitution needs at least one series to substitute into")
    cx, cy = sx._c[0].item(), sy._c[0].item()
    if cx != 0.0 or cy != 0.0:
        raise SeriesError(
            f"substitution needs zero constant terms, got x -> {cx!r} and y -> {cy!r}"
        )
    n = min(sx.order, sy.order, *(p.order for p in parts))
    cube = _coef_cube(parts, n)
    dtype = np.result_type(sx.dtype, sy.dtype, cube.dtype)
    top_x = min(cube.shape[2] - 1, _reach(sx, n))
    table = np.zeros((top_x + 1, kind._slots(n)), dtype=dtype)
    table[0, 0] = 1.0
    for i in range(1, top_x + 1):
        if kind is Series1:
            table[i] = _mul1(table[i - 1], sx._c, n)
        else:  # bivariate powers go through the operator, which the benchmark
            # traces as the layer series.Series2.mul
            table[i] = (Series2._wrap(table[i - 1], n) * sx)._c
    rows = cube[:, : _reach(sy, n) + 1, : top_x + 1] @ table
    return [kind._wrap(_horner(r, sy._c, kind._mul, n), n) for r in rows]


# ---------------------------------------------------------------------------
# pointwise evaluation of planar polynomial maps
# ---------------------------------------------------------------------------


def _powers(v: np.ndarray, n: int) -> np.ndarray:
    """The table of v^0 .. v^n for a 1-d array v, one row per power, each
    one multiplication from the last."""
    table = np.empty((n + 1, v.size))
    table[0] = 1.0
    for d in range(1, n + 1):
        np.multiply(table[d - 1], v, out=table[d])
    return table


def _cut_table(weights: list) -> list | None:
    """The row rule's table for the row weights w_0 .. w_ny: (r, w_r,
    W_(r+1)) for r = 2 .. ny, with W_r = sum_(j >= r) w_j summed from the
    top row down.  None where fewer than 3 rows are held, or where W_2 is
    above CUT_WEIGHT or not finite: the rule then keeps every row."""
    table, rest = [], 0.0
    for r in range(len(weights) - 1, 1, -1):
        table.append((r, weights[r], rest))
        rest += weights[r]
    return table[::-1] if table and rest <= CUT_WEIGHT else None


def _cut(ymax: float, table: list | None, every: int) -> int:
    """The number of y-power rows to keep, for 0 <= ymax <= 1 and the table
    `_cut_table` made of the row weights w_j: the smallest r = 2 .. ny whose
    bound w_r ymax^(r-1) + W_(r+1) ymax^r is below ROW_CUT, and `every`
    (ny + 1) where none is, where the table is None, or where the top
    row's term w_ny ymax^(ny-1) alone reaches ROW_CUT (one test for the
    large ordinates of a raw map's Newton steps).  With ymax <= 1 the
    bound is at least the tail sum_(j >= r) w_j ymax^(j-1), so the rows
    from r on add less than ROW_CUT.  The powers are `**`, not repeated
    products, so that where rows r and r + 1 alone are nonzero the bound
    rounds as the tail itself does, and an ulp cannot put it below ROW_CUT
    where the tail is not.
    """
    if table is None:
        return every
    top, w_top, _ = table[-1]
    if w_top * ymax ** (top - 1) >= ROW_CUT:
        return every
    low = ymax  # ymax^(r-1)
    for r, w, rest in table:
        high = ymax**r
        if w * low + rest * high < ROW_CUT:
            return r
        low = high
    return every


def _high_first(row: list) -> list:
    """A coefficient row c_0 .. c_n as Horner reads it: c_n first, with the
    zeros above the highest nonzero power dropped."""
    while row and row[-1] == 0.0:
        row.pop()
    return row[::-1]


class MapEvaluator:
    """Values, Jacobian and exact image offsets of a planar polynomial map.

    Built once per map from its coefficient layout (`PlanarSeriesMap.coef`):
    component k is the dense matrix C_k[j, i] of x^i y^j, trimmed to the
    highest powers present, taken at binary64.  Every operation sums over
    the rows y^0 .. y^(r-1) that can change its result and drops the rest.
    With S_j = max_k sum_i |C_k[j, i]|, |x| <= 1 and ymax the largest |y|
    involved, a dropped row j adds at most S_j ymax^j to a value.

    One rule (`_cut`) sets r for every operation.  It weights row j by
    w_j = j S_j and takes the smallest r >= 2 whose bound
    w_r ymax^(r-1) + W_(r+1) ymax^r is below ROW_CUT = 2^-60, with W_r the
    suffix sums of the weights, read from a table built here
    (`_cut_table`).  With ymax <= 1 the bound is at least the tail
    sum_(j >= r) j S_j ymax^(j-1), so the dropped rows move a value by less
    than 2^-60 |y|: less than half an ulp of a value of size 2^-5 |y| or
    more, which comes out with the same bits as from every row.  The rule
    keeps every row where an |x| or an |y| exceeds 1 or is not finite,
    where the weights sum above CUT_WEIGHT, or where the top row's term
    w_ny ymax^(ny-1) alone reaches ROW_CUT (the ordinates of a raw map's
    Newton steps).  The cut bites where the push runs: in coordinates
    flattened to order N the carried ordinate is F = O(x^(N+1)), below
    7.2e-14 on the acceptance battery, so a push of the solver's order-16
    push map keeps 2 or 3 of its 17 rows.

    On arrays the points are columns of power tables of x and y, and an
    evaluation is one matrix product of the layout with them (`_contract`),
    over the rows `_rows` keeps.

    At a single point NumPy's dispatch costs more than the arithmetic, so
    the rows are lists of Python floats, highest x power first, and each
    row is one Horner chain in x: P_j(x) = sum_i C_k[j, i] x^i.  Two passes
    over the rows serve every point operation, each summing only what its
    callers read.  The value pass (`_value_sums`) sums the image
    sum_j P_j(x) y^j and the y-divided sum sum_j P_j(x) E_j with
    E_j = (yh^j - y^j) / (yh - y), built up as E_(j+1) = y E_j + yh^j.  The
    slope pass (`_slope_sums`) adds the x-divided sum
    Q_j = (P_j(xh) - P_j(x)) / (xh - x), taken from the same chain by
    synthetic division: Q_j is the polynomial whose coefficients are the
    chain's partial sums at x, evaluated at xh.  The offset of the image of
    (xh, yh) from that of (x, y) (`pair_image`) is
    dx sum_j Q_j yh^j + dy sum_j P_j(x) E_j, so no two images are
    subtracted, and a separation far below the spacing of doubles keeps
    every digit; with dx = 0 the first term is 0 and the value pass gives
    the offset.  With xh = x and yh = y the slope pass's sums are the image
    and the Jacobian's columns (`image_jacobian`, one pass per Newton
    iterate).  The value pass also serves `values`.  Both passes take the
    image's sum in the same order, so it has the same bits from either.
    The rule's weight j bounds these sums too, since
    |E_j| <= j ymax^(j-1): with |x|, |xh| <= 1 and nx the highest x power,
    |Q_j| <= nx S_j, so the rows `_point_rows` drops move a value or an
    image by less than ROW_CUT |y|, an x-slope by nx ROW_CUT |y|, a
    y-slope by ROW_CUT, and the two sums of an offset, sum_j Q_j yh^j and
    sum_j P_j(x) E_j, by nx ymax ROW_CUT and ROW_CUT.  Each sum over the
    rows adds the dropped rows last, to the float that holds the kept ones,
    so a sum 2^55 times its bound or more in size (a value of 2^-5 |y| or
    more) keeps every bit.
    """

    def __init__(self, coef: np.ndarray):
        self._coef = coef = np.asarray(coef, dtype=np.float64)
        self._ny, self._nx = coef.shape[1] - 1, coef.shape[2] - 1
        # the array path's matrix: row 2j + k is C_k[j], so the rows of the
        # powers y^0 .. y^(r-1) of both components are its first 2r rows
        self._by_row = coef.transpose(1, 0, 2).reshape(-1, self._nx + 1)
        # the row rule's table of the weights w_j = j S_j
        row_sums = np.abs(coef).sum(axis=2).max(axis=0).tolist()
        self._cut_table = _cut_table([j * s for j, s in enumerate(row_sums)])
        # the point path's Horner rows: [k][j] is C_k[j], highest power first
        self._horner = [[_high_first(row) for row in part] for part in coef.tolist()]

    def _rows(self, x: np.ndarray, y: np.ndarray) -> int:
        """The number r of y-power rows, from y^0, that can change the
        values at the points (x, y), by the rule in the class docstring."""
        every = self._ny + 1
        if not max(x.max(initial=0.0), -x.min(initial=0.0)) <= 1.0:
            return every
        # ymax <= 1 keeps the float powers in `_cut` from overflowing, which
        # raises; a NaN fails the test too
        ymax = float(max(y.max(initial=0.0), -y.min(initial=0.0)))
        if not ymax <= 1.0:
            return every
        return _cut(ymax, self._cut_table, every)

    def _point_rows(self, x: float, y: float, xh: float, yh: float) -> int:
        """The number r of y-power rows, from y^0, that can change an
        operation at the point (x, y) with its partner (xh, yh), by the rule
        in the class docstring."""
        ay, ayh = abs(y), abs(yh)
        if not (abs(x) <= 1.0 and abs(xh) <= 1.0 and ay <= 1.0 and ayh <= 1.0):
            return self._ny + 1
        return _cut(ay if ay >= ayh else ayh, self._cut_table, self._ny + 1)

    def _contract(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The sums of both components for the point columns of the power
        tables u and v (the rows y^0 .. y^(r-1) that count), shape (2, points)."""
        rows = v.shape[0]
        acc = self._by_row[: 2 * rows] @ u
        acc = acc.reshape(rows, 2, -1)
        acc *= v[:, None]
        return acc.sum(axis=0)

    def _value_sums(self, x: float, y: float, yh: float) -> list:
        """The value pass: (sum_j P_j(x) y^j, sum_j P_j(x) E_j) of each
        component, over the rows the point rule keeps for (x, y) and (x, yh)."""
        r = self._point_rows(x, y, x, yh)
        out = []
        for part in self._horner:
            v = b = e = 0.0  # e = E_j
            w = wh = 1.0  # y^j, yh^j
            for row in part[:r]:
                p = 0.0
                for c in row:
                    p = p * x + c
                v += p * w
                b += p * e
                e = e * y + wh
                w *= y
                wh *= yh
            out.append((v, b))
        return out

    def _slope_sums(self, x: float, y: float, xh: float, yh: float) -> list:
        """The slope pass: (sum_j P_j(x) y^j, sum_j Q_j yh^j,
        sum_j P_j(x) E_j) of each component, over the rows the point rule
        keeps for (x, y) and (xh, yh)."""
        r = self._point_rows(x, y, xh, yh)
        out = []
        for part in self._horner:
            v = a = b = e = 0.0  # e = E_j
            w = wh = 1.0  # y^j, yh^j
            for row in part[:r]:
                p = q = 0.0
                for c in row:
                    q = q * xh + p
                    p = p * x + c
                v += p * w
                a += q * wh
                b += p * e
                e = e * y + wh
                w *= y
                wh *= yh
            out.append((v, a, b))
        return out

    def values(self, x, y):
        """(X, Y) at a point (floats) or at 1-d arrays of points (arrays)."""
        if isinstance(x, np.ndarray):
            rows = self._rows(x, y)
            out = self._contract(_powers(x, self._nx), _powers(y, rows - 1))
            return out[0], out[1]
        x, y = float(x), float(y)
        (big_x, _), (big_y, _) = self._value_sums(x, y, y)
        return big_x, big_y

    def image_jacobian(self, x: float, y: float) -> tuple[tuple[float, float, float], ...]:
        """((X, dX/dx, dX/dy), (Y, dY/dx, dY/dy)) at a point, from one pass:
        the image and the exact Jacobian's rows."""
        x, y = float(x), float(y)
        return tuple(self._slope_sums(x, y, x, y))

    def pair_image(self, x: float, y: float, dx: float, dy: float) -> tuple[float, ...]:
        """(X, Y, dX, dY): the image of (x, y) and the offset from it of the
        image of (x + dx, y + dy), each difference an exact multiple of dx
        or dy (see the class docstring).  With dx = 0 the value pass gives
        it: the x-divided sums would only be multiplied by 0."""
        x, y, dx, dy = float(x), float(y), float(dx), float(dy)
        if dx == 0.0:
            (big_x, bx), (big_y, by) = self._value_sums(x, y, y + dy)
            return big_x, big_y, dy * bx, dy * by
        (big_x, ax, bx), (big_y, ay, by) = self._slope_sums(x, y, x + dx, y + dy)
        return big_x, big_y, dx * ax + dy * bx, dx * ay + dy * by


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
        for name, comp in (("fx", self.fx), ("fy", self.fy)):
            if not np.isfinite(comp._c).all():
                slot = np.flatnonzero(~np.isfinite(comp._c))[0]
                raise SeriesError(
                    f"{name} coefficient of term {_tables(self.order).keys[slot]} "
                    f"is not finite: {float(comp._c[slot])!r}"
                )
        constants = (self.fx.coeff(0, 0), self.fy.coeff(0, 0))
        if constants != (0.0, 0.0):
            raise SeriesError(f"a planar series map must fix the origin, got {constants}")
        if self.linear_determinant() == 0.0:
            raise SeriesError("linear part is singular (determinant 0)")

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
    def coef(self) -> np.ndarray:
        """The coefficient layout C[k, j, i] of (fx, fy) through the map's
        order (`_coef_cube`), built on first use."""
        return _coef_cube((self.fx, self.fy), self.order)

    @cached_property
    def evaluator(self) -> MapEvaluator:
        """The map's evaluator, built on first use."""
        return MapEvaluator(self.coef)

    def eval(self, x, y):
        """(X, Y) at a point or at 1-d arrays of points."""
        return self.evaluator.values(x, y)

    def sorted_terms(self) -> tuple[list, list]:
        """The term lists of both components, as `MapSpec.sorted_terms` gives them."""
        return sorted(self.fx.coeffs.items()), sorted(self.fy.coeffs.items())


def compose_maps(outer: PlanarSeriesMap, inner: PlanarSeriesMap) -> PlanarSeriesMap:
    """outer(inner(x, y)) truncated to the common order."""
    if outer.order != inner.order:
        raise SeriesError(f"order mismatch: {outer.order} vs {inner.order}")
    fx, fy = substitute([outer.fx, outer.fy], inner.fx, inner.fy)
    return PlanarSeriesMap(fx, fy, outer.order)


def invert_map_series(m: PlanarSeriesMap) -> PlanarSeriesMap:
    """Local inverse g with m(g) = identity up to the truncation order.

    The linear part L is inverted exactly; higher orders are filled in by
    the fixed-point sweep g <- L^-1 (id - h(g)) with h the nonlinear part of
    m.  The degree-k terms of h(g) involve g only through degree k - 1, so
    sweep k sets g's degree-k terms and leaves the lower ones as they are.

    The sweep is online: it keeps, over the slots through order n, the
    powers P_i = gx^i and the Horner accumulators A_j = A_(j+1) gy + R_j
    (A_(ny+1) = 0) of both components, with R_j = sum_i c_ij P_i and c_ij
    the x^i y^j coefficient of h.  Sweep k computes only their degree-k
    slots, each product a tail of the pair table (`_mul2` with low = k):
    P_2.. from P_1.. through degree k - 1; h(g) = A_1 gy + R_0 at degree k,
    which sets g there; then, with gx's new terms in P_1, the rows R_j and
    A_1 .. A_ny at degree k (A_j only while k <= n - j, the degrees later
    sweeps read).  Every product slot sums the same pairs in the same order
    as the full-order substitution of the plain sweep, so g equals its
    result by value; at binary64 the rows' matrix product may differ from it
    in summation order, by an ulp.
    """
    det = m.linear_determinant()
    if det == 0.0:
        raise SeriesError("cannot invert a map with singular linear part (determinant 0)")
    a, b = m.fx.coeff(1, 0), m.fx.coeff(0, 1)
    c, d = m.fy.coeff(1, 0), m.fy.coeff(0, 1)
    ia, ib, ic, id_ = d / det, -b / det, -c / det, a / det
    n = m.order

    coef = m.coef.copy()  # c_ij of h, at [:, j, i]
    coef[:, 0, 1] = coef[:, 1, 0] = 0.0  # L is not part of h
    ny, nx, dtype = coef.shape[1] - 1, coef.shape[2] - 1, coef.dtype

    size = Series2._slots(n)
    powers = np.zeros((nx + 1, size), dtype=dtype)  # P_i at [i]
    powers[0, 0] = 1.0
    gx, gy = powers[1], np.zeros(size, dtype=dtype)
    acc = np.zeros((2, ny + 2, size), dtype=dtype)  # A_j at [:, j]; A_0 unused
    acc[:, 1 : ny + 1, 0] = coef[:, 1:, 0]  # A_j = R_j = c_0j at degree 0
    for k in range(1, n + 1):
        new = slice(k * (k + 1) // 2, (k + 1) * (k + 2) // 2)  # the degree-k slots
        if k == 1:  # r = id - h(g) is the identity's linear part
            rx, ry = np.eye(2, dtype=dtype)
        else:
            top = min(nx, k)
            if top > 1:
                powers[2 : top + 1, new] = _mul2(powers[1:top], gx, k, low=k)
            h = _mul2(acc[:, 1], gy, k, low=k) + coef[:, 0] @ powers[:, new]
            rx, ry = 0.0 - h
        gx[new] = rx * ia + ry * ib
        gy[new] = rx * ic + ry * id_
        # A_j is read only through degree n - j; its row R_j needs gx's
        # degree-k terms, set just above
        live = min(ny, n - k)
        if live > 0:
            row = coef[:, 1 : live + 1] @ powers[:, new]
            acc[:, 1 : live + 1, new] = _mul2(acc[:, 2 : live + 2], gy, k, low=k) + row
    return PlanarSeriesMap(Series2._wrap(gx.copy(), n), Series2._wrap(gy, n), n)
