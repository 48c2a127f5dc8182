"""Independent oracles and shared helpers for the test suite.

The manifold jet oracle solves the invariance identity F(X(x, F)) = Y(x, F)
order by order in exact rational arithmetic on plain lists of Fractions,
completely apart from the package's own series machinery.  Closed forms for the perturbed
canonical map were derived by hand from the same identity:

    F(x + x^2) = -F(x) (1 - lam x) + c x^3   (mu = 0)

    a3 = c / 2
    a4 = a3 (lam - 3) / 2
    a5 = a3 ((lam - 4)(lam - 3) - 6) / 4
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from invcurve import ConvergenceError, MapSpec
from invcurve.mapdef import INVERT_MAX_ITER, INVERT_TOL, Point, eval_map
from invcurve.normalform import normalize_map
from invcurve.series import CUT_WEIGHT, ROW_CUT


def pert_jet_closed_form(lam: float, c: float) -> tuple[float, float, float]:
    """(a3, a4, a5) for the perturbed canonical map with mu = 0."""
    a3 = c / 2.0
    a4 = a3 * (lam - 3.0) / 2.0
    a5 = a3 * ((lam - 4.0) * (lam - 3.0) - 6.0) / 4.0
    return a3, a4, a5


def _poly_mul(a: list, b: list, order: int) -> list:
    """Product of two coefficient lists in x, truncated after x^order."""
    out = [Fraction(0)] * (order + 1)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b[: order + 1 - i]):
                out[i + j] += u * v
    return out


def reversion_exact(coeffs) -> list[Fraction]:
    """Compositional inverse g of s = sum coeffs[k] t^k (coeffs[0] = 0,
    coeffs[1] != 0) through the same order, in exact rationals.  Sweep k of
    the fixed point g <- g - (s(g) - t) / s_1 runs Horner through t^k; the
    lower coefficients are exact by then, so it sets g_k alone."""
    a = [Fraction(c) for c in coeffs]
    g = [Fraction(0), 1 / a[1]]
    for k in range(2, len(a)):
        g.append(Fraction(0))
        s_of_g = [a[k]]
        for c in a[k - 1 :: -1]:
            s_of_g = _poly_mul(s_of_g, g, k)
            s_of_g[0] += c
        g[k] = -s_of_g[k] / a[1]
    return g


def _jet_residual(m: MapSpec, a: list, order: int) -> list:
    """Coefficients of F(X(x, F(x))) - Y(x, F(x)) through x^order, F = sum a_k x^k."""
    one = [Fraction(1)] + [Fraction(0)] * order
    f_powers = [one]

    def on_graph(terms) -> list:
        out = [Fraction(0)] * (order + 1)
        for (i, j), c in terms.items():
            while len(f_powers) <= j:
                f_powers.append(_poly_mul(f_powers[-1], a, order))
            for k, v in enumerate(f_powers[j][: order + 1 - i]):
                out[i + k] += Fraction(c) * v
        return out

    big_x, big_y = on_graph(m.x_terms), on_graph(m.y_terms)
    f_of_x, x_power = [Fraction(0)] * (order + 1), one
    for k in range(1, order + 1):
        x_power = _poly_mul(x_power, big_x, order)
        if a[k]:
            f_of_x = [u + a[k] * v for u, v in zip(f_of_x, x_power)]
    return [u - v for u, v in zip(f_of_x, big_y)]


def manifold_jet(m: MapSpec, order: int) -> list[float]:
    """Taylor coefficients a_3..a_order of the invariant graph, in exact rationals.

    The order-k coefficient of F(X(x, F(x))) - Y(x, F(x)) holds a_3..a_k
    only, and a_k affinely, so two probes (a_k = 0 and a_k = 1) solve for it.
    """
    a = [Fraction(0)] * (order + 1)
    for k in range(3, order + 1):
        r0 = _jet_residual(m, a, k)[k]
        a[k] = Fraction(1)
        r1 = _jet_residual(m, a, k)[k]
        if r1 == r0:
            raise RuntimeError(f"jet equation at order {k} is not uniquely solvable")
        a[k] = r0 / (r0 - r1)
    return [float(v) for v in a[3:]]


def random_form2_map(rng: np.random.Generator, amplitude: float = 1.0) -> MapSpec:
    """A random admissible map with cubic/quartic coefficients in
    [-amplitude, amplitude]."""
    lam = float(rng.uniform(0.5, 2.0))
    mu = float(rng.uniform(-1.0, 1.0))
    x_terms = {(1, 0): 1.0, (2, 0): 1.0, (1, 1): mu}
    y_terms = {(0, 1): -1.0, (1, 1): lam}
    for table in (x_terms, y_terms):
        for deg in (3, 4):
            for i in range(deg + 1):
                table[(deg - i, i)] = float(rng.uniform(-amplitude, amplitude))
    return MapSpec(x_terms, y_terms)


def acceptance_battery(seed: int = 1729) -> list[MapSpec]:
    """The twelve-map battery: CANON, PERT(c=0.1) and ten random maps."""
    from invcurve import canon, pert

    rng = np.random.default_rng(seed)
    maps = [canon(1.0, 0.0), pert(1.0, 0.0, 0.1)]
    maps += [random_form2_map(rng) for _ in range(10)]
    return maps


def flatten_map(m: MapSpec, n_power: int = 8, headroom: int = 0):
    """The map in flattened coordinates (no pure-x terms in Y through n_power)."""
    return normalize_map(m, n_power, headroom).normalized


def sample_shadow_pair(rng: np.random.Generator, delta: float, n_power: int):
    """A random pair respecting the metric hypotheses, built from representable floats.

    Offsets scale like x^8 and x^11; below x ~ 0.02 an abscissa offset of
    that size falls under the spacing of doubles, so only ordinate offsets
    are drawn there.
    """
    from invcurve import Point, ShadowPair, shadow_metric

    while True:
        x = float(np.exp(rng.uniform(np.log(delta * 0.02), np.log(delta))))
        y = float(rng.uniform(-0.9, 0.9)) * x**n_power
        if x >= 0.02:
            t = rng.uniform(0.0, 0.9)
            s = rng.uniform(0.0, 1.0)
            dx = float(np.sign(rng.uniform(-1, 1))) * s * t * x**8
            dy = float(np.sign(rng.uniform(-1, 1))) * (1 - s) * t * x**11
        else:
            dx = 0.0
            dy = float(rng.uniform(-0.9, 0.9)) * x**11
        pair = ShadowPair(Point(x, y), Point(x + dx, y + dy))
        if abs(pair.q.y) <= pair.q.x**n_power and shadow_metric(pair) <= 1.0:
            return pair


# ---------------------------------------------------------------------------
# dict-keyed bivariate series: a reference for the dense series core
# ---------------------------------------------------------------------------


def dict_mul(a: dict, b: dict, order: int) -> dict:
    """Product of {(i, j): c} tables, truncated at total degree `order`."""
    out: dict = {}
    for (i1, j1), u in a.items():
        for (i2, j2), v in b.items():
            if i1 + i2 + j1 + j2 <= order:
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + u * v
    return out


def dict_subst(f: dict, sx: dict, sy: dict, order: int) -> dict:
    """f(sx, sy), one product chain per term."""
    out: dict = {}
    for (i, j), c in f.items():
        term = {(0, 0): c}
        for factor in [sx] * i + [sy] * j:
            term = dict_mul(term, factor, order)
        for key, v in term.items():
            out[key] = out.get(key, 0) + v
    return out


def dict_invert(fx: dict, fy: dict, order: int) -> tuple[dict, dict]:
    """Local inverse by the sweep g <- L^-1 (id - h(g)), one order per sweep."""
    a, b = fx.get((1, 0), 0), fx.get((0, 1), 0)
    c, d = fy.get((1, 0), 0), fy.get((0, 1), 0)
    det = a * d - b * c
    ia, ib, ic, id_ = d / det, -b / det, -c / det, a / det
    hx = {k: v for k, v in fx.items() if sum(k) >= 2}
    hy = {k: v for k, v in fy.items() if sum(k) >= 2}
    gx, gy = {(1, 0): ia, (0, 1): ib}, {(1, 0): ic, (0, 1): id_}
    for _ in range(order - 1):
        rx = {k: -v for k, v in dict_subst(hx, gx, gy, order).items()}
        ry = {k: -v for k, v in dict_subst(hy, gx, gy, order).items()}
        rx[(1, 0)] = rx.get((1, 0), 0) + 1
        ry[(0, 1)] = ry.get((0, 1), 0) + 1
        keys = set(rx) | set(ry)
        gx = {k: ia * rx.get(k, 0) + ib * ry.get(k, 0) for k in keys}
        gy = {k: ic * rx.get(k, 0) + id_ * ry.get(k, 0) for k in keys}
    return gx, gy


# ---------------------------------------------------------------------------
# earlier loop forms: references for their faster replacements
# ---------------------------------------------------------------------------


def reverse_series_full(s):
    """Series reversion with every fixed-point sweep at the full order."""
    from invcurve import Series1

    a1 = s.coeff(1)
    n = s.order
    g = Series1.identity(n).scale(1.0 / a1)
    for _ in range(max(n - 1, 0)):
        err = s.compose(g) - Series1.identity(n)
        g = g - err.scale(1.0 / a1)
    return g


def normalize_shear_steps(m, order: int):
    """`normalform.normalize_to_order` as the loop of one-term shears it
    replaced: step n reads beta, the x^n coefficient of Y, conjugates the map
    with (x, y) -> (x, y + gamma x^n), gamma = -beta/2, by two compositions
    of planar maps, and zeroes that coefficient.  Returns (normalized map,
    gammas)."""
    from invcurve import PlanarSeriesMap, Series2, compose_maps

    def shear(gamma, n):
        fy = Series2({(0, 1): 1.0, (n, 0): gamma}, m.order)
        return PlanarSeriesMap(Series2.x(m.order), fy, m.order)

    gammas = []
    for n in range(3, order + 1):
        gamma = -m.fy.coeff(n, 0) / 2.0
        gammas.append(gamma)
        if gamma != 0.0:
            m = compose_maps(shear(gamma, n), compose_maps(m, shear(-gamma, n)))
            fy = m.fy - Series2({(n, 0): m.fy.coeff(n, 0)}, m.order)
            m = PlanarSeriesMap(m.fx, fy, m.order)
    return m, tuple(gammas)


def invert_map_series_sweep(m):
    """`series.invert_map_series` as it was before its sweeps went online:
    sweep k substitutes h into g at the full order k, recomputing every
    coefficient of g through order k."""
    from invcurve import PlanarSeriesMap, Series2
    from invcurve.series import substitute

    det = m.linear_determinant()
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


def graph_at_longdouble(x_of_t, y_of_t, order: int):
    """The graph y(x^-1) through the given order, formed as the library
    forms phi: x reverted and y composed at longdouble, the result rounded
    to binary64 once."""
    from invcurve import reverse_series

    ld = np.longdouble
    graph = y_of_t.astype(ld).compose(reverse_series(x_of_t.astype(ld)))
    return graph.truncate(order).astype(np.float64)


def solve_conjugacy_full_residual(psi, order: int, t2_coefficient: float = 0.0):
    """`parameterization.solve_conjugacy` without its online tables: the one
    sweep of stage n evaluates the whole residual Psi(K) - K(R) through
    order n, reads its t^n coefficient and solves the stage system by
    Gaussian elimination with partial pivoting, all at the wider of psi's
    dtype and longdouble (`np.linalg` takes no longdouble).  phi is formed
    from K as the library forms it (`graph_at_longdouble`)."""
    from invcurve import ConjugacyError, ConjugacyResult, Series1
    from invcurve.parameterization import _STRUCT_TOL, _conjugacy_residual, _stage_matrix

    scale = max(1.0, *(abs(v) for s in (psi.fx, psi.fy) for v in s.coeffs.values()))
    stage_tol = 1e-9 * scale
    dtype = np.result_type(psi.fx.dtype, np.longdouble)
    a, b = np.zeros(order + 1, dtype), np.zeros(order + 1, dtype)
    a[1], a[2] = 1.0, t2_coefficient
    d = dtype.type(0.0)
    psi_ext = psi.astype(dtype)
    for n in range(3, order + 1):
        psi_n = psi_ext.truncate(n)
        r1, r2 = (r[n] for r in _conjugacy_residual(psi_n, a, b, d))
        if n == 3:  # the stage matrix is the column (-1, 0)
            if abs(r2) > stage_tol:
                raise ConjugacyError("inconsistent coefficient equations at order 3")
            d += r1
            continue
        mat = _stage_matrix(psi_ext, n)
        rhs = np.array([-r1, -r2], dtype=dtype)
        if abs(mat[1, 0]) > abs(mat[0, 0]):
            mat, rhs = mat[::-1], rhs[::-1]
        factor = mat[1, 0] / mat[0, 0]
        pivot = mat[1, 1] - factor * mat[0, 1]
        if abs(pivot) <= stage_tol * abs(mat).max():
            raise ConjugacyError(f"rank-deficient coefficient equations at order {n}")
        db = (rhs[1] - factor * rhs[0]) / pivot
        a[n - 1] += (rhs[0] - mat[0, 1] * db) / mat[0, 0]
        b[n - 1] += db

    r1, r2 = _conjugacy_residual(psi_n, a, b, d)
    residual_max = float(max(np.max(np.abs(r1)), np.max(np.abs(r2))))
    if residual_max > 1e-10 * scale:
        raise ConjugacyError(f"conjugacy residual {residual_max:.3e} exceeds tolerance")
    k1, k2 = Series1._wrap(a, order), Series1._wrap(b, order)
    phi = graph_at_longdouble(k1, k2, order)
    if max(abs(c) for c in phi.coeffs[:3]) > _STRUCT_TOL:
        raise ConjugacyError("graph function keeps sub-cubic terms")
    phi = Series1((0.0, 0.0, 0.0) + phi.coeffs[3:])
    return ConjugacyResult(k1, k2, d, phi, residual_max)


def _residual_sides(fx, fy, a, b, model) -> tuple[list, list]:
    """The x-coefficients of Psi(K) and of K(R), with K = (a, b) and R = model
    carried as bivariate series in x alone."""
    from invcurve.series import Series2, substitute

    n, dtype = fx.order, fx.dtype

    def on_x(coeffs):
        return Series2({(k, 0): c for k, c in enumerate(coeffs) if k <= n}, n, dtype)

    k1, k2 = on_x(a), on_x(b)
    lhs = substitute([fx, fy], k1, k2)
    rhs = substitute([k1, k2], on_x(model), Series2.zero(n, dtype))
    return [[np.array([s.coeff(k, 0) for k in range(n + 1)]) for s in side] for side in (lhs, rhs)]


def conjugacy_residual_bivariate(psi, a, b, d: float) -> tuple:
    """`parameterization._conjugacy_residual` with the univariate series K and R
    carried inside bivariate ones, the form it had before `Series1` shared the
    dense core."""
    lhs, rhs = _residual_sides(psi.fx, psi.fy, a, b, [0.0, 1.0, -2.0, d])
    return tuple(u - v for u, v in zip(lhs, rhs))


def conjugacy_residual_magnitude(psi, a, b, d: float) -> tuple:
    """Per coefficient of the residual, the sum of the magnitudes its rounding
    acts on: both sides evaluated on absolute values."""
    from invcurve import Series2

    def mag(s):
        return Series2({k: abs(v) for k, v in s.coeffs.items()}, s.order, s.dtype)

    absolute = [[abs(c) for c in cs] for cs in (a, b, [0.0, 1.0, -2.0, d])]
    lhs, rhs = _residual_sides(mag(psi.fx), mag(psi.fy), *absolute)
    return tuple(u + v for u, v in zip(lhs, rhs))


def graph_invariance_backward(m, phi, order: int):
    """`graph_invariance_check` as it read the invariance identity backward:
    the graph of phi pushed through the series inverse of the map, its image
    re-expressed as a graph phi_tilde by reverting the image's abscissa
    (`graph_at_longdouble`), and |phi - phi_tilde| reported coefficient by
    coefficient.  The series run at max(order + 2, the map's degree)."""
    from invcurve import GraphInvarianceReport, Series1, invert_map_series, to_planar_series
    from invcurve.series import substitute

    work = max(order + 2, m.degree)
    inv = invert_map_series(to_planar_series(m, work))
    x_of_t, y_of_t = substitute([inv.fx, inv.fy], Series1.identity(work), phi.truncate(work))
    phi_tilde = graph_at_longdouble(x_of_t, y_of_t, order)
    diffs = tuple(abs(phi.coeff(k) - phi_tilde.coeff(k)) for k in range(order + 1))
    return GraphInvarianceReport(max(diffs), diffs)


def run_level_regraph_every_push(kernel, rho: float, cfg):
    """The graph-transform level loop that re-graphs after every push.

    It pushes with the same kernel and stops by the same rule as
    `graphtransform._run_level`, which carries the image points instead and
    re-graphs only when their spacing has thinned out.  Returns (nu_bar,
    final curve).
    """
    from invcurve import Curve

    xs = rho * kernel.unit
    fs = np.zeros_like(xs)
    pushes = 0
    while float(xs[-1]) <= cfg.delta:
        big_x, big_y, _, _ = kernel.image(xs, fs)
        xs, fs = kernel.regraph(big_x, big_y)
        pushes += 1
    return pushes, Curve(xs, fs)


def invariance_residual_per_sample(m, c, samples: int):
    """The invariance defect read backward, one scalar SciPy brentq per sample.

    At each sample xbar (the samples of `graphtransform.invariance_residual`)
    solves X(xhat, F(xhat)) = xbar for xhat in [0, xbar], to 4 eps relative,
    and measures |F(xbar) - Y(xhat, F(xhat))|.  A sample without a preimage
    (SciPy's sign test on the bracket fails, or the image is NaN) is skipped
    and listed.  Returns (xs, residuals, failures).
    """
    from scipy.optimize import brentq

    half = c.x_max / 2.0
    nodes = c.xs[(c.xs > 0.0) & (c.xs <= half)]
    if nodes.size > samples:
        nodes = nodes[np.unique(np.linspace(0, nodes.size - 1, samples).astype(int))]
    ev = m.evaluator
    xs, res, failures = [], [], []
    for xbar in nodes:
        try:
            xhat = brentq(
                lambda t: ev.values(t, c.eval(t))[0] - xbar,
                0.0, xbar, rtol=4.0 * np.finfo(float).eps, xtol=1e-300,
            )
        except ValueError:
            failures.append(float(xbar))
            continue
        xs.append(float(xbar))
        res.append(abs(c.eval(xbar) - ev.values(xhat, c.eval(xhat))[1]))
    return np.array(xs), np.array(res), tuple(failures)


def invariance_residual_forward_per_sample(m, c, samples: int):
    """`graphtransform.invariance_residual` one sample at a time: the same
    samples xhat, each mapped by `eval_map` from (xhat, F(xhat)) with the
    scalar `Curve.eval`, and |F(X) - Y| read with the scalar `Curve.eval`
    too.  Returns (xs, residuals)."""
    from invcurve import Point, eval_map

    half = c.x_max / 2.0
    nodes = c.xs[(c.xs > 0.0) & (c.xs <= half)]
    if nodes.size > samples:
        nodes = nodes[np.unique(np.linspace(0, nodes.size - 1, samples).astype(int))]
    res = []
    for xhat in nodes.tolist():
        image = eval_map(m, Point(xhat, c.eval(xhat)))
        res.append(abs(c.eval(image.x) - image.y))
    return nodes, np.array(res)


def row_weights(ev) -> list:
    """The row weights w_j = j S_j, j = 0 .. ny, of an evaluator, with S_j
    the larger sum of |coefficients| of y^j of its two components."""
    return [j * s for j, s in enumerate(np.abs(ev._coef).sum(axis=2).max(axis=0).tolist())]


def row_cut_tail_loop(ymax: float, droppable: list) -> int:
    """The fewest rows a cut may keep, as a plain walk over the rows: for
    the pairs (j, w_j) of `droppable`, j = ny .. 2, the smallest r >= 2
    whose float tail sum_(j >= r) w_j ymax^(j-1), summed from the top down,
    is below ROW_CUT (a tail that is not finite is never below)."""
    tail = 0.0
    for j, w in droppable:
        tail += w * ymax ** (j - 1)
        if not tail < ROW_CUT:
            return j + 1
    return 2


def row_cut_bound_loop(ymax: float, weights: list) -> int:
    """The row rule as a plain loop over its bound: for the row weights
    w_0 .. w_ny, the smallest r = 2 .. ny with
    w_r ymax^(r-1) + (w_ny + ... + w_(r+1)) ymax^r below ROW_CUT, and
    ny + 1 where none is or where w_ny + ... + w_2 is above CUT_WEIGHT or
    not finite; the sums run from the top row down."""
    ny = len(weights) - 1
    if ny < 2 or not sum(weights[:1:-1]) <= CUT_WEIGHT:
        return ny + 1
    for r in range(2, ny + 1):
        if weights[r] * ymax ** (r - 1) + sum(weights[:r:-1]) * ymax**r < ROW_CUT:
            return r
    return ny + 1


def eval_fsum(terms, x: float, y: float) -> tuple[float, float]:
    """sum c x^i y^j, each term rounded on its own and the terms summed
    exactly, together with sum |c x^i y^j|, the scale of its rounding."""
    vals = [c * x**i * y**j for (i, j), c in terms]
    return math.fsum(vals), math.fsum(abs(v) for v in vals)


def jacobian_fsum(terms, x: float, y: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """(d/dx, d/dy) of sum c x^i y^j, each derivative term rounded on its own
    and the terms summed exactly, each paired with the sum of the terms'
    magnitudes, the scale of its rounding."""
    dx = [c * i * x ** (i - 1) * y**j for (i, j), c in terms if i > 0]
    dy = [c * j * x**i * y ** (j - 1) for (i, j), c in terms if j > 0]
    return tuple((math.fsum(v), math.fsum(abs(t) for t in v)) for v in (dx, dy))


def _power_diff_termwise(a: float, da: float, i: int) -> float:
    if i == 0:
        return 0.0
    b = a + da
    acc = 0.0
    for k in range(i):
        acc += b**k * a ** (i - 1 - k)
    return da * acc


def offset_image_termwise(terms, x: float, y: float, dx: float, dy: float) -> float:
    """Exact image offset with each power difference summed term by term."""
    acc = 0.0
    yh = y + dy
    for (i, j), c in terms:
        acc += c * (
            _power_diff_termwise(x, dx, i) * yh**j + x**i * _power_diff_termwise(y, dy, j)
        )
    return acc


# ---------------------------------------------------------------------------
# point inversion as it was before its Newton step ran on floats, and before
# each iterate took its image and its Jacobian from one evaluator pass
# ---------------------------------------------------------------------------


def _jacobian(m: MapSpec, x: float, y: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """((dX/dx, dX/dy), (dY/dx, dY/dy)) at a point, from the evaluator."""
    (_, a, b), (_, c, d) = m.evaluator.image_jacobian(x, y)
    return (a, b), (c, d)


def invert_point_two_pass(m: MapSpec, target: Point) -> Point:
    """`mapdef.invert_point` with each image from `eval_map` and the
    Jacobian from a second pass, taken only at the iterate a step leaves
    (kept verbatim, apart from reading the Jacobian through `_jacobian`)."""
    tx, ty = target.x, target.y
    p = Point(tx - tx**2, -ty)
    image = eval_map(m, p)
    rx, ry = image.x - tx, image.y - ty
    res_norm = max(abs(rx), abs(ry))
    for _ in range(INVERT_MAX_ITER):
        if res_norm <= INVERT_TOL:
            return p
        (a, b), (c, d) = _jacobian(m, p.x, p.y)
        det = a * d - b * c
        if det == 0.0:
            raise ConvergenceError(
                f"point inversion hit a singular Jacobian at ({p.x!r}, {p.y!r}) "
                f"(determinant {det!r})",
                history=res_norm,
            )
        sx, sy = (d * rx - b * ry) / det, (a * ry - c * rx) / det
        scale = 1.0
        for _ in range(40):
            cx, cy = p.x - scale * sx, p.y - scale * sy
            if not (math.isfinite(cx) and math.isfinite(cy)):
                raise ConvergenceError(
                    f"point inversion stepped from ({p.x!r}, {p.y!r}) to the non-finite "
                    f"candidate ({cx!r}, {cy!r}) (determinant {det!r})",
                    history=res_norm,
                )
            cand = Point(cx, cy)
            try:
                image = eval_map(m, cand)
            except ValueError:  # the image overflowed: Point rejects it
                raise ConvergenceError(
                    f"point inversion stepped from ({p.x!r}, {p.y!r}) to the candidate "
                    f"({cx!r}, {cy!r}), whose image is not finite",
                    history=res_norm,
                ) from None
            nrx, nry = image.x - tx, image.y - ty
            new_norm = max(abs(nrx), abs(nry))
            if new_norm < res_norm or new_norm <= INVERT_TOL:
                break
            scale *= 0.5
        p, rx, ry, res_norm = cand, nrx, nry, new_norm
    if res_norm <= INVERT_TOL:
        return p
    raise ConvergenceError(
        f"point inversion stalled with residual {res_norm:.3e} at target "
        f"({target.x}, {target.y})",
        history=res_norm,
    )


def invert_point_linalg(m: MapSpec, target: Point) -> Point:
    """`mapdef.invert_point` with NumPy arrays: the Jacobian at every
    candidate, the step by `np.linalg.solve` (kept verbatim, apart from
    reading the Jacobian from the evaluator)."""
    p = Point(target.x - target.x**2, -target.y)
    image, jac = eval_map(m, p), np.array(_jacobian(m, p.x, p.y))
    res = np.array([image.x - target.x, image.y - target.y])
    res_norm = float(np.max(np.abs(res)))
    for _ in range(INVERT_MAX_ITER):
        if res_norm <= INVERT_TOL:
            return p
        step = np.linalg.solve(jac, res)
        scale = 1.0
        for _ in range(40):
            cand = Point(p.x - scale * step[0], p.y - scale * step[1])
            image = eval_map(m, cand)
            jac_new = np.array(_jacobian(m, cand.x, cand.y))
            new_res = np.array([image.x - target.x, image.y - target.y])
            new_norm = float(np.max(np.abs(new_res)))
            if new_norm < res_norm or new_norm <= INVERT_TOL:
                break
            scale *= 0.5
        p, jac, res, res_norm = cand, jac_new, new_res, new_norm
    if res_norm <= INVERT_TOL:
        return p
    raise ConvergenceError(
        f"point inversion stalled with residual {res_norm:.3e} at target "
        f"({target.x}, {target.y})",
        history=res_norm,
    )
