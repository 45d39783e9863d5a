"""Spectral test functions, shifted-contour integrals, and scaling laws.

The central objects are the archimedean test function on the transform side
(a Gaussian times the auxiliary pair polynomial times a ring of Gamma
factors), its inverse-transform avatar evaluated on shifted vertical lines,
and the power-of-T scaling exponents that the desk-scale experiments verify:
the norm integral grows like T to R(2 D(n) + n(n-1)) + n - 1, and the
shifted-line integral like T to R + 3/2 minus the contour-dependent gain.

Every tempered density integrated here, the rank-one and rank-three
avatars' and the main term's |p_sharp|^2, is a power of |p_sharp| times
the Plancherel density, and all of them come from one function,
:func:`_log_weight`; :func:`p_sharp` and :func:`h_value` are the scalar
definitions it is tested against.  Every such density lives on an integer
grid t = step * m, given as its integer axes, so each of its log-Gamma,
log1p and square terms is a strided view of one row, over the integers
that term takes.

Everything integral-valued here runs in log space.  The shifted integrands
pair a Gamma ring that grows like exp(pi t) against an inner factor that
decays like exp(-pi max(|u|, t)); the exponential parts are combined before
exponentiation, so no intermediate overflows even at T in the hundreds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.special import loggamma, rgamma

from .combinatorics import degree_D, require_integer
from .quadrature import AccuracyError
from .special import bound_B, f_R_poly, require_positive, subset_pairs, validate_langlands


@dataclass(frozen=True)
class TestFunctionParams:
    """Spectral localization scale T and smoothing order R.

    They fix :func:`p_sharp`, and through it every density here: each is
    |p_sharp| (the main term: its square) times the Plancherel density,
    evaluated by :func:`_log_weight` at the tempered columns of its own
    variables, (2t, -2t) for the rank-one avatar, whose outer variable t
    is half the spectral parameter, and (t1, t2, -t1 - t2) for the
    rank-three one; each is given by its free integer axes, 2t / step and
    (t1 / step, t2 / step), the last column being minus their sum.
    """

    __test__ = False  # name collides with pytest's collection prefix

    T: float
    R: int

    def __post_init__(self) -> None:
        require_positive(self.T, "T")
        require_integer(self.R, "R", positive=True)


def p_sharp(alpha, params) -> complex:
    """Transform-side test function.

    Gaussian damp at scale T, the auxiliary polynomial at half argument, and
    one Gamma factor (1 + 2R + alpha_j - alpha_k)/4 per ordered pair.
    """
    a = np.asarray(alpha, dtype=np.complex128)
    n = a.size
    log = complex(np.sum(a**2)) / (2.0 * params.T**2)
    for j in range(n):
        for k in range(n):
            if j != k:
                log += loggamma((1.0 + 2.0 * params.R + a[j] - a[k]) / 4.0)
    return complex(f_R_poly(a / 2.0, params.R) * np.exp(log))


def h_value(alpha, params) -> float:
    """Spectral weight |p_sharp|^2 over the ring of Gamma((1+alpha_j-alpha_k)/2).

    Defined on the tempered line only; a parameter off the line is a domain
    error rather than an analytic continuation we silently trust.
    """
    a = validate_langlands(alpha, require_tempered=True)
    n = a.size
    log = 2.0 * math.log(abs(p_sharp(a, params)))
    for j in range(n):
        for k in range(n):
            if j != k:
                log -= float(loggamma((1.0 + a[j] - a[k]) / 2.0).real)
    return math.exp(log)


def _row_view(f, axes, coef, step: float) -> np.ndarray:
    """f(step * v) at every point of the grid of the integer axes (ranges),
    where v = sum_j coef[j] m_j, as a read-only strided view of one row.

    The row is f at step * v for v = lo, lo + g, ..., hi, the least and
    greatest v on the grid in steps of g, the gcd of v's strides, so f runs
    once per value of v and no index array is built.
    """
    shape = tuple(map(len, axes))
    strides = [c * a.step if len(a) > 1 else 0 for c, a in zip(coef, axes)]
    g = math.gcd(*strides) or 1
    first = sum(c * a[0] for c, a in zip(coef, axes))
    lo = first + sum(min(0, s * (n - 1)) for s, n in zip(strides, shape))
    hi = first + sum(max(0, s * (n - 1)) for s, n in zip(strides, shape))
    row = f(step * np.arange(lo, hi + 1, g))
    item = row.strides[0]
    return as_strided(row[(first - lo) // g :], shape, [s // g * item for s in strides], writeable=False)


def _log_weight(axes, step: float, params: TestFunctionParams, power: int) -> np.ndarray:
    """power log|p_sharp(alpha)| plus the log Plancherel density at the
    tempered alpha = i t, over the grid of the integer axes (ranges) m_j,
    one per axis: t_j = step * m_j for the n - 1 axes and t_n = -sum t_j.

    The Gaussian gives -power sum t^2 / (2 T^2); the pair polynomial at
    alpha/2, power (R/2) log(1 + Delta^2/4) per subset pair with
    Delta = sum_K t - sum_L t; and each unordered pair j < k, with
    d = t_j - t_k, the two conjugate p_sharp factors
    2 power Re log Gamma((1 + 2R + i d)/4) over the Plancherel pair
    |Gamma(i d/2)|^2.  Where two columns coincide the density has its
    zero, returned as -inf.  A grid with no finite value raises ValueError:
    off the zeros, that is a T so small that the Gaussian underflows.

    Every d, Delta and t is an integer combination of the axes times step,
    so each term is a strided view of one row, over the integers that term
    takes (:func:`_row_view`): on a plane of N points loggamma runs on
    O(sqrt N) of them.
    """
    n = len(axes) + 1
    # the columns t_j / step as coefficient vectors over the axes
    cols = np.vstack((np.eye(n - 1, dtype=int), np.full(n - 1, -1)))
    pairs = [cols[j] - cols[k] for j, k in itertools.combinations(range(n), 2)]
    shape = tuple(map(len, axes))
    # the ring is summed on its own and added last: on a dyadic step every
    # t, d and Delta is exact, and this fixed order gives bit for bit the
    # sums taken pointwise.  The three accumulators are the only arrays
    # with one value per grid point
    ring, poly, out = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for c in pairs:
            ring += _row_view(
                lambda d: 2.0 * power * loggamma((1.0 + 2.0 * params.R + 1j * d) / 4.0).real, axes, c, step
            )
            ring -= _row_view(lambda d: 2.0 * loggamma(0.5j * d).real, axes, c, step)
        for K, L in subset_pairs(n):
            delta = cols[list(K)].sum(axis=0) - cols[list(L)].sum(axis=0)
            poly += _row_view(lambda x: np.log1p(x**2 / 4.0), axes, delta, step)
        for c in cols:
            out += _row_view(lambda x: x**2, axes, c, step)
        out *= -power
        out /= 2.0 * params.T**2
        poly *= power * (params.R / 2.0)
        out += poly
        out += ring
        for c in pairs:
            np.copyto(out, -np.inf, where=_row_view(lambda d: d == 0, axes, c, step))
    if not out.max() > -np.inf:
        raise ValueError(
            f"T = {params.T}: the density has no finite value on this grid; the Gaussian "
            "exp(-t^2 / (2 T^2)) underflows at every point off the density's zeros"
        )
    return out


# ---------------------------------------------------------------------------
# the rank-one inverse-transform avatar on shifted lines


# step of the rank-one avatar's grids: midpoints (k + 1/2) _STEP, which miss
# t = 0, the pole of residue_term's Gamma(-delta - 2 i t)
_STEP = 1.0 / 16


def _outer_grid(p: TestFunctionParams) -> tuple[np.ndarray, np.ndarray]:
    """Midpoints t of the rank-one outer window |t| < 3.2 T + 12, where the
    Gaussian is below e^-40, and the density there."""
    n = int((3.2 * p.T + 12.0) / _STEP)
    return (np.arange(-n, n) + 0.5) * _STEP, _log_weight((range(-2 * n + 1, 2 * n, 2),), _STEP, p, 1)


def p_y_batch(y_values, params, line: float = 0.75) -> np.ndarray:
    """Rank-one avatar p(y) on the vertical line Re(s) = line, for many y.

    line must avoid the nonpositive integers where the inner Gamma factors
    put poles on the contour.  y enters only through a scalar prefactor and
    a phase linear in u, so one field, summed over t, serves every y.  With
    t = (k + 1/2) _STEP and u = (j + 1/2) _STEP, u + t and u - t are whole
    multiples of _STEP, so the Gamma factors at every (t, u) are strided
    views of two loggamma lines, over the integers j + k + 1 and j - k take
    (:func:`_row_view`), summed over t in blocks; the integrand is even in
    t, so t > 0 is summed twice.
    """
    if not math.isfinite(line) or (line <= 0 and abs(line - round(line)) < 1e-6):
        raise ValueError(f"contour line {line} must be finite and off the poles of the integrand")
    y_values = require_positive(y_values, "y")
    t, base = _outer_grid(params)
    base = base[t > 0]
    j = range(-base.size - 256, base.size + 256)
    plus = _row_view(lambda x: loggamma(line + 1j * x), (range(1, base.size + 1), j), (1, 1), _STEP)
    minus = _row_view(lambda x: loggamma(line + 1j * x), (range(base.size), j), (-1, 1), _STEP)
    col = np.zeros(len(j), dtype=np.complex128)
    for lo in range(0, base.size, 128):
        blk = slice(lo, lo + 128)
        col += np.sum(np.exp(base[blk, None] + (plus[blk] + minus[blk])), axis=0)
    u = (np.arange(j.start, j.stop) + 0.5) * _STEP
    out = np.empty(len(y_values))
    for i, y in enumerate(y_values):
        c = math.log(math.pi * y)
        pref = 2.0 * _STEP**2 * math.sqrt(y) * math.exp(-2.0 * line * c)
        val = pref * np.sum(col * np.exp(-2j * u * c)) / (2.0 * math.pi) ** 2
        out[i] = val.real
    return out


def _gl3_plane(log_py, tau1, tau2, weight, line: float, v: np.ndarray, rg: np.ndarray) -> np.ndarray:
    """Double Mellin integral of the closed rank-two transform, (2 pi i)^{-2}
    times the contour integral over two copies of Re(s) = line, summed over
    the spectral points (tau1, tau2) with their weights; one value per row
    (log pi y1, log pi y2) of log_py.

    Each line field is three Gamma(s + i w) at shifts w among +-tau1,
    +-tau2 and +-(tau1 + tau2): one loggamma row per distinct shift, gathered
    by index.  y enters only through the phases (pi y1)^{-2 s1} (pi y2)^{-2 s2},
    so the points are first summed into one field F = sum_k weight_k e1_k e2_k^T,
    one matmul per block of points.  The reciprocal coupling depends only on
    s1 + s2, so F is multiplied entrywise by the Hankel matrix H[a, b] =
    rg[a + b], with rg on the sum grid 2 v[0] + step * arange(2 len(v) - 1),
    and each y reads the field as phase1 (F H) phase2.
    """
    h = v[1] - v[0]
    s = line + 1j * v
    shifts = np.stack([tau1, tau2, -(tau1 + tau2), -tau1, -tau2, tau1 + tau2])
    w, row = np.unique(shifts, return_inverse=True)
    row = row.reshape(shifts.shape)
    lg = loggamma(s + 1j * w[:, None])
    field = np.zeros((v.size, v.size), dtype=np.complex128)
    # blocks of points keep each (points, v) field under 8 MB at any T
    block = max(1, 2**19 // v.size)
    for k in range(0, weight.size, block):
        r = row[:, k : k + block]
        e1, e2 = (np.exp(lg[r[j]] + lg[r[j + 1]] + lg[r[j + 2]]) for j in (0, 3))
        field += (weight[k : k + block, None] * e1).T @ e2
    field *= rg[np.add.outer(np.arange(v.size), np.arange(v.size))]
    phase1, phase2 = (np.exp(-2.0 * np.outer(c, s)) for c in np.asarray(log_py).T)
    return (h / (2.0 * math.pi)) ** 2 * np.sum((phase1 @ field) * phase2, axis=1)


def p_y_gl3(y, params, *, spectral_step: float = 0.5) -> np.ndarray:
    """Rank-three inverse-transform avatar, one value per pair y = (y1, y2).

    Four nested contours: the tempered spectral plane weighted by
    p_sharp times the Plancherel density (:func:`_log_weight` at
    (t1, t2, -t1 - t2)), times the double Mellin integral of the closed
    rank-two transform against y1 y2 (pi y1)^{-2 s1} (pi y2)^{-2 s2},
    with the overall 2^{-(n-1)}.  The spectral sum does not depend on y: it
    is one field per call, and every pair is read from it by its two phases
    (see _gl3_plane).  The quadrature is fixed-step with no adaptive
    refinement or error estimate, and unlike the rank-one avatar there is
    no shifted-contour decomposition here to check it against;
    ``spectral_step`` is exposed so the spectral sum can be compared at
    two steps.

    Each Mellin line is Re(s) = 3/4 with step 1/8.  Uniform-step aliasing
    there is controlled by the width of the pole-free strip, decaying like
    exp(-2 pi line / step), about 4e-17; the plane sums cancel by many
    orders, and the step keeps the aliasing below that floor.  y far from
    1/pi adds phase 2 v log(pi y) and may need a smaller step still.
    """
    y = require_positive(y, "y")
    if y.ndim != 2 or y.shape[1] != 2:
        raise ValueError(f"y must be a sequence of (y1, y2) pairs, got shape {y.shape}")
    line, step = 0.75, 0.125
    half_t = 3.2 * params.T + 4.0
    n_t = int(math.ceil(half_t / spectral_step))
    # the line fields peak near v = -shift with shifts up to twice the
    # Gaussian-supported spectral range
    half_v = 2.0 * (half_t - 4.0) + 10.0
    n_v = int(math.ceil(half_v / step))
    v = step * np.arange(-n_v, n_v + 1)
    u = 2.0 * v[0] + step * np.arange(2 * v.size - 1)
    rg = rgamma(2.0 * line + 1j * u)
    if not np.all(np.isfinite(rg)):
        raise AccuracyError(
            "reciprocal coupling overflows on the sum grid; the fixed-grid "
            "rank-three avatar is limited to moderate T"
        )
    m = range(-n_t, n_t + 1)
    dens = _log_weight((m, m), spectral_step, params, 1)
    keep = np.isfinite(dens)
    i1, i2 = np.nonzero(keep)
    t1, t2, weight = spectral_step * (i1 - n_t), spectral_step * (i2 - n_t), np.exp(dens[keep])
    total = _gl3_plane(np.log(np.pi * y), t1, t2, weight, line, v, rg)
    scale = y[:, 0] * y[:, 1] * spectral_step**2 / (4.0 * (2.0 * math.pi) ** 2)
    return (scale * total).real


def residue_term(y_values, params, delta: int = 0) -> np.ndarray:
    """Constant-free residue terms of the rank-one contour shift, one per y.

    The term picked up at the inner pole with displacement delta; the
    decomposition multiplies it by the composition constant.  Which delta
    are crossed is the caller's rule (:func:`residue_decomposition_check`
    states it).  The outer grid and its Gamma line Gamma(-delta - 2it) are
    built once and serve every y, which enters only through a prefactor and
    the phase 2 t log(pi y).
    """
    y_values = require_positive(y_values, "y")
    t, base = _outer_grid(params)
    g = loggamma(-delta - 2j * t)
    out = np.empty(len(y_values))
    for i, y in enumerate(y_values):
        c = math.log(math.pi * y)
        phase = np.exp(base + g.real + 1j * (g.imag + 2.0 * t * c))
        total = _STEP * np.sum(phase) * (-1.0) ** delta / math.factorial(delta)
        pref = math.sqrt(y) * math.exp(2.0 * delta * c) / (2.0 * math.pi)
        out[i] = (pref * total).real
    return out


def residue_decomposition_check(params, a: float = 0.75) -> dict:
    """Fit the single composition constant in the contour-shift decomposition.

    Computes p(y) on the unshifted line Re(s) = 3/4 and the shifted line
    Re(s) = -a over ten log-spaced y in [0.4, 2.5].  The shift crosses the
    displacements delta = 0, ..., floor(a), so a must be positive and
    nonintegral; the residue column sums one batched :func:`residue_term`
    per delta, and the one scalar kappa is solved for by least squares.  The
    relative residual measures how well the three-term decomposition closes;
    the constant should be the composition count 2.
    """
    a = require_positive(a, "shift a")
    if abs(a - round(a)) < 1e-9:
        raise ValueError("shift a must be nonintegral")
    line = 0.75
    y_values = np.geomspace(0.4, 2.5, 10)
    lhs = p_y_batch(y_values, params, line=line) - p_y_batch(y_values, params, line=-a)
    basis = sum(residue_term(y_values, params, delta) for delta in range(math.floor(a) + 1))
    kappa_fit = float(np.dot(lhs, basis) / np.dot(basis, basis))
    resid = lhs - kappa_fit * basis
    scale = float(np.abs(lhs).max())
    return {
        "a": a,
        "line": line,
        "y_values": y_values.tolist(),
        "kappa_fit": kappa_fit,
        "max_rel_residual": float(np.abs(resid).max() / scale),
        "expected_kappa": 2.0,
    }


# ---------------------------------------------------------------------------
# shifted-line norm integral and its scaling


def itr_log(a: float, params, grid_step: float = 1.0 / 16, t_factor: float = 2.7, pad: float = 14.0) -> float:
    """log of the shifted-line norm integral for the rank-one transform.

    Outer tempered integral over 0 < t < t_factor T + 12 against the
    rank-one density, :func:`_log_weight` at (2t, -2t), which carries
    |Gamma_R(2it)|^2; inner integral over all u of
    |Gamma(-a+i(u+t)) Gamma(-a+i(u-t))| along Re(s) = -a.

    With h(v) = |Gamma(-a+iv)| e^{pi |v|/2}, which is even, the inner
    integrand is e^{-pi t} h(u+t) h(u-t) e^{-pi max(0, |u|-t)}, and the
    inner integral splits into

    - the part |u| <= t, the self-convolution (h * h)(2t) on [0, 2t];
    - the part |u| > t, 2 int_0^inf h(w+2t) h(w) e^{-pi w} dw, a
      correlation of h with its own damped head.

    Both are taken by the trapezoidal rule on one grid v = j grid_step
    anchored at v = 0, with t = k grid_step so that 2t is a grid point:
    the convolution has half weights at v = 0 and 2t, so it is the full
    discrete convolution minus h(0) h(2t); the correlation runs over
    w in [0, pad] with half weights at both ends.  Together they give
    every inner integral at once from one spectrum, by two real FFTs of h
    (scaled to maximum 1) and of the damped head and one inverse FFT:
    O(N log N) time and O(N) memory for N = (2 t_max + pad) / grid_step.
    ``pad`` bounds only the damped correlation, whose kernel is below
    e^{-pi pad} at the end (8e-20 at the default 14); no u is cut off.

    FFT rounding errs by about machine epsilon times ||h||^2 in every
    output alike, which is large relative to the inner integral where
    h(2t) is small: at large a and T.  A worst-case bound on its effect
    on the log is checked, and the result raises :class:`AccuracyError`
    when that bound exceeds 1e-6.  For a = 1.25 the bound is 1e-10 at
    T = 512 and 6e-8 at T = 16384; it is exceeded from T = 2048 at
    a = 2.5 and from T = 1024 at a = 3.5.
    """
    if not math.isfinite(a) or (abs(a - round(a)) < 1e-9 and a >= 0):
        raise ValueError(f"shift a = {a} must be finite and off the pole set of the integrand")
    dv = grid_step
    n_t = math.ceil((t_factor * params.T + 12.0) / dv)
    k = np.arange(1, n_t)
    t = k * dv
    n_pad = int(round(pad / dv))
    v = dv * np.arange(2 * k[-1] + n_pad + 1)
    lh = loggamma(-a + 1j * v).real + np.pi * v / 2.0
    lh_max = lh.max()
    h = np.exp(lh - lh_max)
    head = h[: n_pad + 1] * np.exp(-np.pi * v[: n_pad + 1])
    head[[0, -1]] *= 0.5
    # a power of two of at least 2 v.size - 1, so the convolution does not wrap
    size = 1 << (2 * v.size - 2).bit_length()
    spec = np.fft.rfft(h, size)
    # convolution plus twice the correlation, read at the even index 2k
    both = np.fft.irfft(spec * (spec + 2.0 * np.conj(np.fft.rfft(head, size))), size)
    inner = both[2 * k] - h[0] * h[2 * k]
    lw = _log_weight((range(2, 2 * n_t, 2),), dv, params, 1) - np.pi * t
    mx = lw.max()
    w = np.exp(lw - mx)
    total = float(np.dot(w, inner))
    norm = np.linalg.norm(h)
    rounding = np.finfo(float).eps * math.log2(size) * norm * (norm + 2.0 * np.linalg.norm(head))
    if not rounding * w.sum() <= 1e-6 * total:
        raise AccuracyError(
            f"FFT rounding may move itr_log by more than 1e-6 at a = {a}, "
            f"T = {params.T}: the inner integral spans too many orders"
        )
    return float(mx + 2.0 * lh_max + math.log(2.0 * dv * dv * total))


# ---------------------------------------------------------------------------
# main-term norm integrals


def main_term_log(n: int, R: int, T: float) -> float:
    """log of the spectral norm integral whose T-growth is the main term.

    The integrand is |p_sharp|^2 times the Plancherel density on the
    tempered line, summed on a uniform grid: for n = 2 the midpoints of
    the half-line t > 0 at step 1/8, counted twice since the integrand is
    even; for n = 3 the square t1, t2 in 0.5 * {-N, ..., N} with
    N = floor(2 (3T + 15)), that is |t| <= 3T + 15 at step 1/2.  For
    integer T these are the points -3T - 15 + k/2; a non-integer T moves
    onto the same symmetric grid of halves.  The coincidence hyperplanes
    carry double zeros and are excised exactly.

    At n = 3 the density is computed on the rows m1 >= 0 only, the axes
    m1 in {0, ..., N} and m2 in {-N, ..., N}, and the rows m1 < 0 are their
    point reflection.  That reflection is exact: every row the density
    views is even bit for bit (Re log Gamma at conjugate points,
    log1p(x^2/4) and x^2, and step * -k = -(step * k)), so the plane, its
    maximum and its sum are those of the full computation, float for float.
    """
    params = TestFunctionParams(T=T, R=R)
    if n == 2:
        m = range(1, math.ceil(16.0 * (3.2 * T + 20.0)), 2)
        li, cell = _log_weight((m,), 1.0 / 16, params, 2), 2.0 / 8.0
    elif n == 3:
        half = math.floor(2.0 * (3.0 * T + 15.0))
        upper = _log_weight((range(half + 1), range(-half, half + 1)), 0.5, params, 2)
        li, cell = np.concatenate((upper[:0:-1, ::-1], upper)), 0.5 * 0.5
    else:
        raise NotImplementedError("main-term integral implemented for n = 2, 3")
    mx = li.max()
    li -= mx
    return float(mx + math.log(np.sum(np.exp(li, out=li)) * cell))


# ---------------------------------------------------------------------------
# scaling fits


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares slope of log(value) against log(T), with the prediction."""

    T_values: tuple[float, ...]
    log_values: tuple[float, ...]
    slope: float
    intercept: float
    predicted: float

    @property
    def residual(self) -> float:
        return self.slope - self.predicted

    @property
    def within(self) -> float:
        return abs(self.residual)

    @property
    def local_slopes(self) -> tuple[float, ...]:
        """Delta log(value) / Delta log(T) between consecutive scales."""
        steps = np.diff(self.log_values) / np.diff(np.log(self.T_values))
        return tuple(float(s) for s in steps)


def fit_scaling(T_values, log_values, predicted: float) -> ScalingFit:
    """Fit a power law from >= 4 distinct, log-spaced scales."""
    T_values = [float(v) for v in T_values]
    log_values = [float(v) for v in log_values]
    if len(T_values) < 4:
        raise ValueError("need at least 4 scales for a stable slope")
    if len(T_values) != len(log_values):
        raise ValueError("length mismatch")
    if not all(0.0 < t < math.inf for t in T_values) or not all(map(math.isfinite, log_values)):
        raise ValueError("scales must be positive and finite, log values finite")
    if len(set(T_values)) < len(T_values):
        raise ValueError(f"scales must be distinct, got {T_values}")
    slope, intercept = np.polyfit(np.log(T_values), log_values, 1)
    return ScalingFit(
        T_values=tuple(T_values),
        log_values=tuple(log_values),
        slope=float(slope),
        intercept=float(intercept),
        predicted=float(predicted),
    )


def itr_scaling(a: float, R: int, T_values=(16.0, 32.0, 64.0, 128.0)) -> ScalingFit:
    """Measured vs predicted growth of the shifted-line norm integral.

    Prediction R + 3/2 - B(a) with the piecewise contour gain B.
    """
    logs = [itr_log(a, TestFunctionParams(T=T, R=R)) for T in T_values]
    return fit_scaling(T_values, logs, R + 1.5 - bound_B(a))


def main_term_scaling(n: int, R: int) -> ScalingFit:
    """Measured vs predicted growth of the main-term norm integral.

    Prediction R (2 D(n) + n(n-1)) + n - 1.
    """
    T_values = (16.0, 32.0, 64.0, 128.0) if n == 2 else (8.0, 16.0, 32.0, 64.0)
    logs = [main_term_log(n, R, T) for T in T_values]
    predicted = R * (2 * degree_D(n) + n * (n - 1)) + n - 1
    return fit_scaling(T_values, logs, predicted)
