"""Independent oracles and shared helpers for the test suite.

The manifold jet oracle solves the invariance identity F(X(x, F)) = Y(x, F)
order by order in exact rational arithmetic with sympy, completely apart
from the package's own series machinery.  Closed forms for the perturbed
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
import sympy as sp

from invcurve import MapSpec
from invcurve.normalform import normalize_map


def pert_jet_closed_form(lam: float, c: float) -> tuple[float, float, float]:
    """(a3, a4, a5) for the perturbed canonical map with mu = 0."""
    a3 = c / 2.0
    a4 = a3 * (lam - 3.0) / 2.0
    a5 = a3 * ((lam - 4.0) * (lam - 3.0) - 6.0) / 4.0
    return a3, a4, a5


def manifold_jet(m: MapSpec, order: int) -> list[float]:
    """Taylor coefficients a_3..a_order of the invariant graph, via sympy.

    Substitutes F = sum a_k x^k into F(X(x, F(x))) - Y(x, F(x)) and solves
    the coefficient equations sequentially in exact rationals.
    """
    x = sp.symbols("x")
    unknowns = {k: sp.symbols(f"a{k}") for k in range(3, order + 1)}
    f_poly = sum(unknowns[k] * x**k for k in unknowns)

    def on_curve(terms) -> sp.Expr:
        acc = sp.Integer(0)
        for (i, j), coeff in terms.items():
            acc += sp.Rational(Fraction(coeff)) * x**i * f_poly**j
        return acc

    def trunc(expr: sp.Expr) -> sp.Expr:
        expr = sp.expand(expr)
        kept = [t for t in sp.Add.make_args(expr) if sp.degree(t, x) <= order]
        return sp.Add(*kept)

    big_x = trunc(on_curve(m.x_terms))
    big_y = trunc(on_curve(m.y_terms))
    f_of_x = trunc(f_poly.subs(x, big_x))
    residual = sp.Poly(trunc(f_of_x - big_y), x)

    solution: dict[sp.Symbol, sp.Rational] = {}
    for k in range(3, order + 1):
        eq = residual.coeff_monomial(x**k).subs(solution)
        sol = sp.solve(sp.Eq(eq, 0), unknowns[k])
        if len(sol) != 1:
            raise RuntimeError(f"jet equation at order {k} is not uniquely solvable")
        solution[unknowns[k]] = sol[0]
    return [float(solution[unknowns[k]]) for k in range(3, order + 1)]


def random_form2_map(rng: np.random.Generator) -> MapSpec:
    """A random admissible map with cubic/quartic coefficients in [-1, 1]."""
    lam = float(rng.uniform(0.5, 2.0))
    mu = float(rng.uniform(-1.0, 1.0))
    x_terms = {(1, 0): 1.0, (2, 0): 1.0, (1, 1): mu}
    y_terms = {(0, 1): -1.0, (1, 1): lam}
    for table in (x_terms, y_terms):
        for deg in (3, 4):
            for i in range(deg + 1):
                table[(deg - i, i)] = float(rng.uniform(-1.0, 1.0))
    return MapSpec(x_terms, y_terms)


def acceptance_battery(seed: int = 1729) -> list[MapSpec]:
    """The twelve-map battery: CANON, PERT(c=0.1) and ten random maps."""
    from invcurve import canon, pert

    rng = np.random.default_rng(seed)
    maps = [canon(1.0, 0.0), pert(1.0, 0.0, 0.1)]
    maps += [random_form2_map(rng) for _ in range(10)]
    return maps


def flatten_map(m: MapSpec, n_power: int = 8):
    """The map in flattened coordinates (no pure-x terms in Y through n_power)."""
    return normalize_map(m, n_power).normalized


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


def eval_fsum(terms, x: float, y: float) -> tuple[float, float]:
    """sum c x^i y^j, each term rounded on its own and the terms summed
    exactly, together with sum |c x^i y^j|, the scale of its rounding."""
    vals = [c * x**i * y**j for (i, j), c in terms]
    return math.fsum(vals), math.fsum(abs(v) for v in vals)


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
