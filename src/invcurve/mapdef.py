"""Polynomial planar maps with a degenerate fixed point at the origin.

Accepted maps have the exact quadratic skeleton

    X = x + x^2 + mu * x y + (degree >= 3 terms)
    Y =   - y + lambda * x y + (degree >= 3 terms),      lambda > 0,

so the linearization is diag(1, -1) and all expansion/contraction comes from
the quadratic terms.  Components are sparse coefficient tables keyed by
exponent pairs; cubic and higher terms are unconstrained.

Two named maps cover the common experiments: CANON(lambda, mu) is
(x + x^2 + mu x y, -y (1 - lambda x)), whose invariant curve is exactly the
x-axis, and PERT(lambda, mu, c) adds c x^3 to the Y component, which tilts
the curve to c/2 x^3 + higher order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .errors import ConvergenceError, MapFormatError, MapValidationError
from .series import DEFAULT_ORDER, MapEvaluator, PlanarSeriesMap, Series2

# fixed entries of the quadratic skeleton; (1, 1) entries stay free
_X_FIXED = {(0, 0): 0.0, (1, 0): 1.0, (0, 1): 0.0, (2, 0): 1.0, (0, 2): 0.0}
_Y_FIXED = {(0, 0): 0.0, (1, 0): 0.0, (0, 1): -1.0, (2, 0): 0.0, (0, 2): 0.0}


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("point components must be finite")


@dataclass(frozen=True)
class MapSpec:
    """Validated sparse coefficient tables for the two map components."""

    x_terms: Mapping[tuple[int, int], float]
    y_terms: Mapping[tuple[int, int], float]

    def __post_init__(self):
        object.__setattr__(self, "x_terms", _clean_table(self.x_terms))
        object.__setattr__(self, "y_terms", _clean_table(self.y_terms))
        _check_fixed(self.x_terms, _X_FIXED, "X")
        _check_fixed(self.y_terms, _Y_FIXED, "Y")
        if self.lam <= 0.0:
            raise MapValidationError(f"lambda must be positive, got {self.lam}")

    @property
    def lam(self) -> float:
        return self.y_terms.get((1, 1), 0.0)

    @property
    def mu(self) -> float:
        return self.x_terms.get((1, 1), 0.0)

    @property
    def degree(self) -> int:
        return max(i + j for table in (self.x_terms, self.y_terms) for (i, j) in table)

    def sorted_terms(self) -> tuple[list, list]:
        return sorted(self.x_terms.items()), sorted(self.y_terms.items())

    @cached_property
    def evaluator(self) -> MapEvaluator:
        """The map's evaluator, built on first use."""
        return MapEvaluator(self.sorted_terms())


def _clean_table(table: Mapping[tuple[int, int], float]) -> dict[tuple[int, int], float]:
    out: dict[tuple[int, int], float] = {}
    for (i, j), v in table.items():
        if i < 0 or j < 0:
            raise MapValidationError(f"negative exponent in term ({i},{j})")
        v = float(v)
        if not math.isfinite(v):
            raise MapValidationError(f"non-finite coefficient at ({i},{j})")
        if v != 0.0:
            out[(int(i), int(j))] = v
    return out

def _check_fixed(table, fixed, name):
    for key, want in fixed.items():
        got = table.get(key, 0.0)
        if got != want:
            i, j = key
            if name == "Y" and key in {(2, 0), (0, 2)}:
                raise MapValidationError(
                    f"quadratic part of Y must be lambda*xy: coefficient ({i},{j}) is {got}"
                )
            if name == "X" and key in {(0, 2),}:
                raise MapValidationError(
                    f"quadratic part of X must be x^2 + mu*xy: coefficient ({i},{j}) is {got}"
                )
            raise MapValidationError(
                f"{name} coefficient ({i},{j}) must be {want}, got {got}"
            )


# ---------------------------------------------------------------------------
# named maps
# ---------------------------------------------------------------------------


def canon(lam: float = 1.0, mu: float = 0.0) -> MapSpec:
    """(x + x^2 + mu xy, -y(1 - lam x)); the x-axis is exactly invariant."""
    return MapSpec(
        {(1, 0): 1.0, (2, 0): 1.0, (1, 1): mu},
        {(0, 1): -1.0, (1, 1): lam},
    )


def pert(lam: float = 1.0, mu: float = 0.0, c: float = 0.1) -> MapSpec:
    """CANON plus c x^3 in the Y component; invariant curve (c/2) x^3 + ..."""
    return MapSpec(
        {(1, 0): 1.0, (2, 0): 1.0, (1, 1): mu},
        {(0, 1): -1.0, (1, 1): lam, (3, 0): c},
    )


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


def parse_map_spec(text: str | Iterable[str]) -> MapSpec:
    """Parse the line-oriented map-spec format.

    `X i j c` / `Y i j c` set the coefficient of x^i y^j in a component;
    '#' starts a comment, blank lines are skipped, duplicate keys are errors.
    """
    if isinstance(text, str):
        lines = text.splitlines()
    else:
        lines = list(text)
    tables: dict[str, dict[tuple[int, int], float]] = {"X": {}, "Y": {}}
    for no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4:
            raise MapFormatError(f"expected 'X|Y i j c', got {raw.strip()!r}", no)
        comp, si, sj, sc = parts
        if comp not in tables:
            raise MapFormatError(f"unknown component {comp!r}", no)
        try:
            i, j = int(si), int(sj)
            c = float(sc)
        except ValueError as exc:
            raise MapFormatError(str(exc), no) from exc
        if (i, j) in tables[comp]:
            raise MapFormatError(f"duplicate coefficient {comp} {i} {j}", no)
        tables[comp][(i, j)] = c
    return MapSpec(tables["X"], tables["Y"])


def format_map_spec(m: MapSpec) -> str:
    """Render a MapSpec back into the text format (sorted, 17 significant digits)."""
    pairs = zip("XY", m.sorted_terms())
    out = [f"{comp} {i} {j} {c:.17g}" for comp, terms in pairs for (i, j), c in terms]
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def eval_map(m: MapSpec, p: Point, with_jacobian: bool = False):
    """Evaluate the map at a point; optionally return the exact Jacobian."""
    image = Point(*m.evaluator.values(p.x, p.y))
    if not with_jacobian:
        return image
    return image, m.evaluator.jacobian(p.x, p.y)


def invert_point(
    m: MapSpec,
    target: Point,
    guess: Point | None = None,
    tol: float = 1e-13,
    max_iter: int = 50,
) -> Point:
    """Newton preimage: returns p with eval_map(m, p) = target.

    Damped steps (halving on residual increase) keep the iteration stable
    near the fixed point, where the Jacobian is close to diag(1, -1).
    """
    if guess is None:
        guess = Point(target.x - target.x**2, -target.y)
    p = guess
    image, jac = eval_map(m, p, with_jacobian=True)
    res = np.array([image.x - target.x, image.y - target.y])
    res_norm = float(np.max(np.abs(res)))
    for _ in range(max_iter):
        if res_norm <= tol:
            return p
        step = np.linalg.solve(jac, res)
        scale = 1.0
        for _ in range(40):
            cand = Point(p.x - scale * step[0], p.y - scale * step[1])
            image, jac_new = eval_map(m, cand, with_jacobian=True)
            new_res = np.array([image.x - target.x, image.y - target.y])
            new_norm = float(np.max(np.abs(new_res)))
            if new_norm < res_norm or new_norm <= tol:
                break
            scale *= 0.5
        p, jac, res, res_norm = cand, jac_new, new_res, new_norm
    if res_norm <= tol:
        return p
    raise ConvergenceError(
        f"point inversion stalled with residual {res_norm:.3e} at target "
        f"({target.x}, {target.y})",
        history=res_norm,
    )


def to_planar_series(m: MapSpec, order: int = DEFAULT_ORDER) -> PlanarSeriesMap:
    """Embed the polynomial map as a truncated series pair (exact if order >= degree)."""
    if m.degree > order:
        raise ValueError(f"map degree {m.degree} exceeds requested order {order}")
    fx = Series2.from_terms(m.x_terms, order)
    fy = Series2.from_terms(m.y_terms, order)
    return PlanarSeriesMap(fx, fy, order)
