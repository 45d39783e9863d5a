"""Independent evaluation of the rank-two and rank-three contour recursions.

Used only by ``make_refs.py``.  The recursion writes the rank-(n-1)
transform as a Barnes-type integral, over one or two complex variables, of
Gamma factors that each depend on a single variable.  Every factor
Gamma(c + z) has poles running to the left and every Gamma(c - z) poles
running to the right; the correct contour passes between the two families.
For small Re s or real alpha no vertical line does, so this module
integrates over a straight line that stays far from every pole and adds
the residue of each pole that lies on the wrong side of it.

Because each factor depends on one variable, the correction factorises: for
every variable, either it runs along its line or it sits at one crossed pole
(the Gamma factor that owns the pole is dropped and replaced by its residue
weight (-1)^k / k!; the sign of the crossing and the orientation of the
residue cancel).  The full integral is the sum of all such terms.  Line
integrals use the trapezoidal rule, which for these analytic, doubly
exponentially decaying integrands converges like exp(-2 pi d / h) with d the
distance from the line to the nearest pole.

Nothing here calls the library: the inner rank-two transform is Barnes'
closed form with leading constant exactly 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import loggamma

# a term's box keeps the nodes whose log-modulus is within this of its peak
LOG_RANGE = 60.0
COARSE_STEP = 0.25
# a line may only cross poles this far from every pole of the other factors:
# the residue bookkeeping assumes simple poles
MIN_POLE_SEPARATION = 0.01
# lines keep at least this distance from every pole where they can
MIN_POLE_DISTANCE = 0.1
# trapezoid step as a share of the distance from the line to the nearest pole
STEP_SHARE = 1.0 / 6.0
MAX_STEP = 0.05
# where the straight lines may sit, and how far apart the two lines used for
# the cross-check must be
ABSCISSA_RANGE = (-0.95, 0.95)
MIN_LINE_GAP = 0.3
# poles per factor considered; lines stay within ABSCISSA_RANGE, so poles
# further out are never crossed or near
POLES_PER_FACTOR = 8


@dataclass(frozen=True)
class Factor:
    """Gamma(c + sign * z[var])."""

    var: int
    sign: int
    c: complex

    def poles(self):
        """(k, z) of the first poles: c + sign * z = -k."""
        return [(k, -self.sign * (self.c + k)) for k in range(POLES_PER_FACTOR)]


@dataclass(frozen=True)
class BarnesIntegral:
    """prefactor * (2 pi i)^-d * integral of prod Gamma(factor) / Gamma(z1 + z2)
    (the reciprocal only when d = 2) over the separating contour."""

    dim: int
    log_prefactor: complex
    factors: tuple[Factor, ...]

    def log_integrand(self, z: list, skip: frozenset) -> np.ndarray:
        out = 0.0
        for i, f in enumerate(self.factors):
            if i not in skip:
                out = out + loggamma(f.c + f.sign * z[f.var])
        if self.dim == 2:
            # 1/Gamma vanishes at its poles, where loggamma is not finite
            rec = np.asarray(loggamma(z[0] + z[1]))
            out = out - np.where(np.isfinite(rec), rec, complex(np.inf, 0.0))
        return out

    def _crossed(self, var: int, x: float):
        """Poles of variable ``var`` on the wrong side of the line Re z = x."""
        out = []
        for i, f in enumerate(self.factors):
            if f.var != var:
                continue
            for k, p in f.poles():
                wrong = p.real > x if f.sign > 0 else p.real < x
                if wrong:
                    out.append((i, k, p))
        return out

    def _pole_distance(self, var: int, x: float) -> float:
        return min(
            abs(p.real - x) for f in self.factors if f.var == var for _, p in f.poles()
        )

    def _simple_crossings(self, var: int, x: float) -> bool:
        for i, _, p in self._crossed(var, x):
            for j, f in enumerate(self.factors):
                if j != i and f.var == var and any(
                    abs(p - q) < MIN_POLE_SEPARATION for _, q in f.poles()
                ):
                    return False
        return True

    def best_abscissa(self, var: int, avoid: float | None = None) -> float:
        """Among the line positions that cross only simple poles (and lie
        MIN_LINE_GAP from ``avoid``), the one crossing the fewest poles while
        keeping MIN_POLE_DISTANCE from all of them, farthest from the poles.
        Each crossed pole adds a residue that the result partly cancels."""
        grid = np.arange(ABSCISSA_RANGE[0], ABSCISSA_RANGE[1] + 1e-9, 0.005)
        if avoid is not None:
            grid = grid[np.abs(grid - avoid) >= MIN_LINE_GAP]
        grid = [x for x in grid if self._simple_crossings(var, x)]
        if not grid:
            raise ValueError("no line crosses only simple poles")
        dist = [self._pole_distance(var, x) for x in grid]
        far = [j for j, d in enumerate(dist) if d >= MIN_POLE_DISTANCE] or range(len(grid))
        best = min(far, key=lambda j: (len(self._crossed(var, grid[j])), -dist[j]))
        return float(grid[best])

    def _line_term(self, fixed: dict, x: dict, skip: frozenset) -> complex:
        """Trapezoidal integral over the variables not in ``fixed``."""
        free = [v for v in range(self.dim) if v not in fixed]
        if not free:
            z = [fixed[v] for v in range(self.dim)]
            return complex(np.exp(self.log_integrand(z, skip)))
        half = 40.0 + max(abs(f.c.imag) for f in self.factors)

        def logs(axes):
            mesh = np.meshgrid(*axes, indexing="ij") if len(axes) > 1 else axes
            z = [None] * self.dim
            for v, t in zip(free, mesh):
                z[v] = x[v] + 1j * t
            for v, val in fixed.items():
                z[v] = np.full(mesh[0].shape, val)
            return self.log_integrand(z, skip)

        coarse = np.arange(-half, half + COARSE_STEP / 2, COARSE_STEP)
        lg = logs([coarse] * len(free)).real
        keep = lg > lg.max() - LOG_RANGE
        axes = []
        for dim_index, v in enumerate(free):
            other = tuple(a for a in range(len(free)) if a != dim_index)
            mask = keep.any(axis=other) if other else keep
            lo, hi = coarse[mask].min() - 1.0, coarse[mask].max() + 1.0
            h = min(MAX_STEP, STEP_SHARE * self._pole_distance(v, x[v]))
            n = int(math.ceil((hi - lo) / h))
            axes.append(lo + h * np.arange(n + 1))
        values = np.exp(logs(axes))
        weight = 1.0
        for a in axes:
            weight *= (a[1] - a[0]) / (2.0 * math.pi)
        return complex(values.sum() * weight)

    def evaluate(self, x: tuple[float, ...]) -> complex:
        """The integral, with straight lines at Re z_v = x[v] plus residues."""
        options = []
        for v in range(self.dim):
            options.append([None] + self._crossed(v, x[v]))
        total = 0.0 + 0.0j
        for choice in itertools.product(*options):
            fixed, skip, weight = {}, set(), 1.0
            for v, pick in enumerate(choice):
                if pick is None:
                    continue
                i, k, p = pick
                fixed[v] = p
                skip.add(i)
                weight *= (-1) ** k / math.factorial(k)
            total += weight * self._line_term(fixed, dict(enumerate(x)), frozenset(skip))
        return complex(np.exp(self.log_prefactor) * total)

    def value_and_check(self) -> tuple[complex, float]:
        """The integral on the best lines, and its relative change when every
        line moves to the best position at least MIN_LINE_GAP away (NaN when
        there is no such position)."""
        x1 = tuple(self.best_abscissa(v) for v in range(self.dim))
        v1 = self.evaluate(x1)
        try:
            x2 = tuple(self.best_abscissa(v, avoid=x1[v]) for v in range(self.dim))
        except ValueError:
            return v1, math.nan
        return v1, abs(v1 - self.evaluate(x2)) / abs(v1)


def rank2_recursion(alpha, s) -> BarnesIntegral:
    """The rank-two recursion peeling alpha[2]: Gamma(s1 + a) Gamma(s2 - a)
    times the line integral of Gamma(s1 - z - a/2) Gamma(s2 - z + a/2)
    Gamma(z + b) Gamma(z - b), b = (alpha1 - alpha2) / 2."""
    a = complex(alpha[2])
    b = (complex(alpha[0]) - complex(alpha[1])) / 2.0
    s1, s2 = (complex(v) for v in s)
    factors = (
        Factor(0, -1, s1 - a / 2.0),
        Factor(0, -1, s2 + a / 2.0),
        Factor(0, 1, b),
        Factor(0, 1, -b),
    )
    return BarnesIntegral(1, complex(loggamma(s1 + a) + loggamma(s2 - a)), factors)


def rank3_recursion(alpha, s) -> BarnesIntegral:
    """The rank-three recursion peeling alpha[3] = a onto the closed rank-two
    transform at beta_j = alpha_j + a/3, leading constant 1."""
    a = complex(alpha[3])
    beta = [complex(v) + a / 3.0 for v in alpha[:3]]
    s1, s2, s3 = (complex(v) for v in s)
    factors = (
        Factor(0, -1, s1 - a / 3.0),
        Factor(0, -1, s2 + 2.0 * a / 3.0),
        *(Factor(0, 1, bj) for bj in beta),
        Factor(1, -1, s2 - 2.0 * a / 3.0),
        Factor(1, -1, s3 + a / 3.0),
        *(Factor(1, 1, -bj) for bj in beta),
    )
    return BarnesIntegral(2, complex(loggamma(s1 + a) + loggamma(s3 - a)), factors)


def peel_orders(n: int):
    """Each parameter moved to the peeled (last) slot, the rest in order."""
    for j in reversed(range(n)):
        yield [k for k in range(n) if k != j] + [j]


def rank3_reference(alpha, s) -> dict:
    """Rank-three transform with its own consistency figures: the largest
    relative change over the other three peels (Weyl invariance of the true
    transform) and over a second set of lines (the residue bookkeeping)."""
    values, checks = [], []
    for order in peel_orders(4):
        value, check = rank3_recursion([alpha[k] for k in order], s).value_and_check()
        values.append(value)
        checks.append(check)
    ref = values[0]
    weyl = max(abs(v - ref) for v in values) / abs(ref)
    return {"ref": ref, "weyl_spread": weyl, "line_check": float(np.nanmax(checks))}
