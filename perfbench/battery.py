"""Seeded benchmark inputs: the map battery and shadowing pairs.

`battery(1729)` is the twelve-map acceptance battery: CANON, PERT(c=0.1) and
ten random admissible maps drawn exactly as the test suite's
`random_form2_map` draws them, so the same seed gives the same maps draw for
draw.  Nothing here imports the test suite or sympy.
"""

from __future__ import annotations

import numpy as np

import invcurve as ic

DELTA = 0.05
N_POWER = 8
ACCEPTANCE_SEED = 1729


def random_form2_map(rng: np.random.Generator) -> ic.MapSpec:
    """A random admissible map with cubic and quartic coefficients in [-1, 1]."""
    lam = float(rng.uniform(0.5, 2.0))
    mu = float(rng.uniform(-1.0, 1.0))
    x_terms = {(1, 0): 1.0, (2, 0): 1.0, (1, 1): mu}
    y_terms = {(0, 1): -1.0, (1, 1): lam}
    for table in (x_terms, y_terms):
        for deg in (3, 4):
            for i in range(deg + 1):
                table[(deg - i, i)] = float(rng.uniform(-1.0, 1.0))
    return ic.MapSpec(x_terms, y_terms)


def battery(seed: int) -> list[ic.MapSpec]:
    """CANON, PERT(c=0.1) and ten random maps drawn from `seed`."""
    rng = np.random.default_rng(seed)
    maps = [ic.canon(1.0, 0.0), ic.pert(1.0, 0.0, 0.1)]
    maps += [random_form2_map(rng) for _ in range(10)]
    return maps


def shadow_pairs(
    rng: np.random.Generator, count: int, delta: float = DELTA, n_power: int = N_POWER
) -> list[ic.ShadowPair]:
    """Pairs inside the hypotheses of `shadow_step_check`.

    Base points have 0 < x <= delta and |y| <= x^n_power, partners keep
    |yhat| <= xhat^n_power, and the separation metric is at most 1.  Offsets
    scale like x^8 and x^11; below x ~ 0.02 an abscissa offset that small
    falls under the spacing of doubles, so only ordinate offsets are drawn
    there.
    """
    out = []
    while len(out) < count:
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
        pair = ic.ShadowPair(ic.Point(x, y), ic.Point(x + dx, y + dy))
        if abs(pair.q.y) <= pair.q.x**n_power and ic.shadow_metric(pair) <= 1.0:
            out.append(pair)
    return out
