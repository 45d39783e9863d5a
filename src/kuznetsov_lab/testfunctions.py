"""Spectral test functions, shifted-contour integrals, and scaling laws.

The central objects are the archimedean test function on the transform side
(a Gaussian times the auxiliary pair polynomial times a ring of Gamma
factors), its inverse-transform avatar evaluated on shifted vertical lines,
and the power-of-T scaling exponents that the desk-scale experiments verify:
the norm integral grows like T to R(2 D(n) + n(n-1)) + n - 1, and the
shifted-line integral like T to R + 3/2 minus the contour-dependent gain.

Every tempered density integrated here, the rank-one and rank-three
avatars' and the main term's |p_sharp|^2, is a power of |p_sharp| times
the Plancherel density.  At n = 2 and 3 each of its terms splits over the
pairs j < k, so the density is the sum of one function of the pair
difference d = t_j - t_k, the pair share :func:`_pair_share`, and that is
its one definition.  Each integral evaluates it on one row of differences:
the rank-one grids on their own differences 4t, the rank-three ones on
d = step * k for the integer k, a row that the avatar reads at each node's
three pair differences and the main term sums as a one-dimensional
correlation.  :func:`p_sharp` and :func:`h_value` are the scalar
definitions they are tested against.

No integral here exponentiates a value that can overflow.  The shifted
integrands pair a Gamma ring that grows like exp(pi t) against an inner
factor that decays like exp(-pi max(|u|, t)); the exponential parts are
combined in log space before exponentiation, or, in the rank-one avatar,
split into lines bounded by Stirling and a weight scaled by its maximum, so
no intermediate overflows even at T in the hundreds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import loggamma, rgamma

from .combinatorics import degree_D, require_integer
from .quadrature import AccuracyError
from .special import bound_B, f_R_poly, require_positive, validate_langlands


@dataclass(frozen=True)
class TestFunctionParams:
    """Spectral localization scale T and smoothing order R.

    They fix :func:`p_sharp`, and through it every density here: each is
    |p_sharp| (the main term: its square) times the Plancherel density, the
    sum of :func:`_pair_share` over the pair differences of the tempered
    columns of its own variables: (2t, -2t) for the rank-one avatar and
    norm integral, whose variable t is half the spectral parameter, with
    the one difference 4t, and (t1, t2, -t1 - t2) for the rank-three
    avatar, with the three differences t1 - t2, 2 t1 + t2 and t1 + 2 t2.
    """

    __test__ = False  # name collides with pytest's collection prefix

    T: float
    R: int

    def __post_init__(self) -> None:
        require_positive(self.T, "T")
        require_integer(self.R, "R", positive=True)


def _p_sharp_factors(a: np.ndarray, params) -> tuple[complex, complex]:
    """p_sharp at alpha as F_R(alpha/2) times exp(log): the pair polynomial's
    value, and the log of the Gaussian damp times the Gamma factors."""
    n = a.size
    log = complex(np.sum(a**2)) / (2.0 * params.T**2)
    for j in range(n):
        for k in range(n):
            if j != k:
                log += loggamma((1.0 + 2.0 * params.R + a[j] - a[k]) / 4.0)
    return f_R_poly(a / 2.0, params.R), log


def p_sharp(alpha, params) -> complex:
    """Transform-side test function.

    Gaussian damp at scale T, the auxiliary polynomial at half argument, and
    one Gamma factor (1 + 2R + alpha_j - alpha_k)/4 per ordered pair.
    """
    a = np.asarray(alpha, dtype=np.complex128)
    f_r, log = _p_sharp_factors(a, params)
    with np.errstate(over="ignore", invalid="ignore"):
        value = complex(f_r * np.exp(log))
    if not np.isfinite(value):
        raise ValueError(f"p_sharp passes the float range at alpha = {a.tolist()}")
    return value


def h_value(alpha, params) -> float:
    """Spectral weight |p_sharp|^2 over the ring of Gamma((1+alpha_j-alpha_k)/2).

    Defined on the tempered line only; a parameter off the line is a domain
    error rather than an analytic continuation we silently trust.  Taken in
    log space, from log|F_R| and p_sharp's own log sum: far out on the line
    |p_sharp|^2 underflows while the ratio is still of moderate size (at
    T = 1e4, R = 1, alpha = (500i, -500i) it is about 1570), and a ratio
    below the float range is 0.0.
    """
    a = validate_langlands(alpha, require_tempered=True)
    n = a.size
    f_r, log = _p_sharp_factors(a, params)
    log = 2.0 * (math.log(abs(f_r)) + log.real)
    for j in range(n):
        for k in range(n):
            if j != k:
                log -= float(loggamma((1.0 + a[j] - a[k]) / 2.0).real)
    try:
        return math.exp(log)
    except OverflowError:
        raise ValueError(f"h passes the float range at alpha = {a.tolist()}: log h = {log:.6g}") from None


def _pair_share(n: int, d: np.ndarray, params: TestFunctionParams, power: int) -> np.ndarray:
    """One pair's share l_n of the log density at the pair differences
    d = t_j - t_k, at n = 2 and 3: the density at the tempered alpha = i t
    is the sum of l_n over the pairs j < k.

    l_n(d) = 2 power Re log Gamma((1 + 2R + i d)/4) - 2 Re log Gamma(i d/2)
    + [n = 3] power (R/2) log1p(d^2/4) - power d^2 / (2 n T^2): the pair's
    two conjugate p_sharp factors over its Plancherel pair |Gamma(i d/2)|^2;
    at n = 3 its subset pair of singletons, whose Delta is d (n = 2 has
    none); and its part of the Gaussian, since sum t^2 = (1/n) sum_{j<k} d^2
    when sum t = 0.  l_n is even, and -inf at d = 0, the zero of the density.
    """
    if n not in (2, 3):
        raise NotImplementedError(f"the density is a sum of pair shares at n = 2, 3, not n = {n}")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = d**2 / n
        out *= -power
        out /= 2.0 * params.T**2
        if n == 3:
            out += power * (params.R / 2.0) * np.log1p(d**2 / 4.0)
        gamma = 2.0 * power * loggamma((1.0 + 2.0 * params.R + 1j * d) / 4.0).real
        out += gamma - 2.0 * loggamma(0.5j * d).real
    out[d == 0] = -np.inf
    return out


def _require_finite(out: np.ndarray, params: TestFunctionParams) -> np.ndarray:
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
    t = (np.arange(-n, n) + 0.5) * _STEP
    return t, _require_finite(_pair_share(2, 4.0 * t, p, 1), p)


def p_y_batch(y_values, params, line: float = 0.75) -> np.ndarray:
    """Rank-one avatar p(y) on the vertical line Re(s) = line, for many y.

    line must avoid the nonpositive integers where the inner Gamma factors
    put poles on the contour.  The integrand at a node (t, u) is
    e^base(t) G(u + t) G(u - t) with G(x) = Gamma(line + i x), times a phase
    linear in u that carries y, so one column sum over t, col(u), serves
    every y.  It is even in t, so t > 0 is summed twice; and since
    conj G(x) = G(-x), col(-u) = conj col(u), so the sum over u is twice
    the real part of the sum over u > 0.

    No node is exponentiated.  The exact identity
    G(u + t) G(u - t) = A(u + t) B(u - t) e^(-pi t), with
    A(x) = G(x) e^(pi x / 2) and B(x) = G(x) e^(-pi x / 2), splits each node
    into bounded factors: for u, t > 0, A is read only at x > 0, where
    Stirling gives |A| ~ sqrt(2 pi) x^(line - 1/2), and B is
    G(x) e^(pi |x| / 2) at x < 0 and decays like e^(-pi x) at x > 0.  With
    G~(x) = G(x) e^(pi |x| / 2) it is G~(u + t) G~(u - t) e^(-pi t) F(u - t),
    with F(d) = e^(-pi max(d, 0)) folded into B.  With t = (k + 1/2) _STEP and
    u = (j + 1/2) _STEP, u + t and u - t are whole multiples of _STEP, so
    one loggamma line over x = (1 - b) _STEP, ..., (2b + 255) _STEP for the
    b nodes t > 0 gives both lines, each exponentiated once, and their
    sliding windows as long as the u grid give A(u + t) and B(u - t) at
    every t.  The weight W(t) = exp(base - pi t - M), scaled by its
    maximum M so that W <= 1, sums each block of 128 t rows of A B into
    col; e^M joins the prefactor, once per y.  A weight e^base(t) alone
    would overflow from R = 14 at T = 64 (base peaks at 654 at R = 3 and
    885 at (T, R) = (32, 120), where M is 526 and p(y) is finite).

    Both sums cancel, the one over u and, inside each col(u), the one over
    t: a value raises :class:`AccuracyError` when the machine epsilon times
    the cancellation ratio over every term summed,
    kappa = sum_t W(t) sum_u |A(u + t)| |B(u - t)| / |Re sum col phase|,
    exceeds 1e-6, or when the value is not finite.  Over ten y in
    [0.4, 2.5] on lines 0.75 and 1.0, eps kappa is at most 1e-13 at
    (T, R) = (4, 1), 1.3e-9 at (100, 1) and 2.4e-7 at (64, 3), where the
    two lines agree to 1.1e-11 relative to the peak; it passes 1e-6 at
    (10, 20), y = 1.107, where the lines differ by 1.06e-6, and far passes
    it at (64, 20).  At (10, 200) p(y) passes the float range.
    """
    if not math.isfinite(line) or (line <= 0 and abs(line - round(line)) < 1e-6):
        raise ValueError(f"contour line {line} must be finite and off the poles of the integrand")
    y_values = require_positive(y_values, "y")
    t, base = _outer_grid(params)
    t, base = t[t > 0], base[t > 0]
    b = base.size
    u = (np.arange(b + 256) + 0.5) * _STEP
    x = _STEP * np.arange(1 - b, 2 * b + 256)
    lg = loggamma(line + 1j * x)
    # window k of A starts at x = (k + 1) _STEP, window b - 1 - k of B at -k _STEP
    a_line = np.exp(lg[b:] + 0.5 * np.pi * x[b:])
    b_line = np.exp(lg[:-b] - 0.5 * np.pi * x[:-b])
    plus = sliding_window_view(a_line, u.size)
    minus = sliding_window_view(b_line, u.size)[::-1]
    lw = base - np.pi * t
    top = lw.max()
    w = np.exp(lw - top)
    # the guard's sum over every term, in the same windows of |A| and |B|
    abs_sum = float(w @ np.einsum(
        "kj,kj->k",
        sliding_window_view(np.abs(a_line), u.size),
        sliding_window_view(np.abs(b_line), u.size)[::-1],
    ))
    col = np.zeros(u.size, dtype=np.complex128)
    buf = np.empty((min(b, 128), u.size), dtype=np.complex128)
    for lo in range(0, b, 128):
        k = slice(lo, min(lo + 128, b))
        blk = buf[: k.stop - lo]
        col += w[k] @ np.multiply(plus[k], minus[k], out=blk)
    out = np.empty(len(y_values))
    for i, y in enumerate(y_values):
        c = math.log(math.pi * y)
        total = float(np.dot(col, np.exp(-2j * u * c)).real)
        if not np.finfo(float).eps * abs_sum <= 1e-6 * abs(total):
            raise AccuracyError(
                f"p(y) at y = {y:.6g}, T = {params.T}, R = {params.R}: the phase sum cancels by a "
                f"factor {abs_sum / abs(total):.2g}, so rounding may move it by more than 1e-6 relative"
            )
        with np.errstate(over="ignore"):
            out[i] = total * np.exp(top - 2.0 * line * c) * math.sqrt(y) * (_STEP / math.pi) ** 2
        if not math.isfinite(out[i]):
            raise AccuracyError(f"p(y) at y = {y:.6g}, T = {params.T}, R = {params.R} passes the float range")
    return out


def _gl3_plane(log_py, tau1, tau2, weight, line: float, v: np.ndarray, rg: np.ndarray) -> np.ndarray:
    """Double Mellin integral of the closed rank-two transform, (2 pi i)^{-2}
    times the contour integral over two copies of Re(s) = line, summed over
    the spectral points (tau1, tau2) with their weights; one value per row
    (log pi y1, log pi y2) of log_py.

    A point's row field is e1(s) = Gamma(s + i tau1) Gamma(s + i tau2)
    Gamma(s - i (tau1 + tau2)), the product of three Gamma rows gathered by
    index: one loggamma row per distinct shift, each exponentiated once
    (|Gamma(line + i x)| <= Gamma(line), so no row overflows).  Its column
    field has the negated shifts, so on a grid v symmetric about 0 it is conj(e1) read backwards:
    conj(Gamma(z)) = Gamma(conj z), and v[::-1] = -v exactly (ValueError
    otherwise).  y enters only through the phases (pi y1)^{-2 s1}
    (pi y2)^{-2 s2}, so the points are first summed into one field
    F = sum_k weight_k e1_k e2_k^T, one matmul per block of points.  The
    reciprocal coupling depends only on s1 + s2, so F is multiplied entrywise
    by the Hankel matrix H[a, b] = rg[a + b], the sliding windows of rg on
    the sum grid 2 v[0] + step * arange(2 len(v) - 1), and each y reads the
    field as phase1 (F H) phase2.
    """
    if not np.array_equal(v[::-1], -v):
        raise ValueError("the Mellin grid v must be symmetric about 0: the column field is the row field mirrored")
    h = v[1] - v[0]
    s = line + 1j * v
    shifts = np.stack([tau1, tau2, -(tau1 + tau2)])
    w, row = np.unique(shifts, return_inverse=True)
    row = row.reshape(shifts.shape)
    gamma = np.exp(loggamma(s + 1j * w[:, None]))
    field = np.zeros((v.size, v.size), dtype=np.complex128)
    # blocks of points keep each (points, v) field under 8 MB at any T
    block = max(1, 2**19 // v.size)
    for k in range(0, weight.size, block):
        r = row[:, k : k + block]
        e1 = gamma[r[0]] * gamma[r[1]]
        e1 *= gamma[r[2]]
        field += (weight[k : k + block, None] * e1).T @ np.conj(e1[:, ::-1])
    field *= sliding_window_view(rg, v.size)
    phase1, phase2 = (np.exp(-2.0 * np.outer(c, s)) for c in np.asarray(log_py).T)
    return (h / (2.0 * math.pi)) ** 2 * np.sum((phase1 @ field) * phase2, axis=1)


def p_y_gl3(y, params, *, spectral_step: float = 0.5) -> np.ndarray:
    """Rank-three inverse-transform avatar, one value per pair y = (y1, y2).

    Four nested contours: the tempered spectral plane weighted by
    p_sharp times the Plancherel density at the nodes
    t = spectral_step * (m1, m2, -m1 - m2), |m1|, |m2| <= n_t, three pair
    shares per node, read from one row of :func:`_pair_share` at
    d = spectral_step * k, |k| <= 3 n_t, times the double Mellin integral
    of the closed rank-two transform against y1 y2 (pi y1)^{-2 s1}
    (pi y2)^{-2 s2}, with the overall 2^{-(n-1)}.
    The spectral sum does not depend on y: it is one field per call, and
    every pair is read from it by its two phases (see _gl3_plane).

    A node's Mellin integrand depends only on the multiset {t1, t2, t3}, so
    the nodes are summed per S3 orbit: each kept node is keyed by its sorted
    integer triple (m1, m2, -m1 - m2), the weights of the orbit's members in
    the square window are added (np.bincount; never the orbit size times one
    weight, since the window is not S3-symmetric), and one representative
    per orbit goes to the plane: 324 orbits for 1296 nodes at T = 1.5.  The
    node set is the full window's; only the summation order differs from a
    sum over nodes.  The quadrature is fixed-step with no adaptive refinement or
    error estimate, and unlike the rank-one avatar there is no
    shifted-contour decomposition here to check it against;
    ``spectral_step`` is exposed so the spectral sum can be compared at two
    steps.

    Each Mellin line is Re(s) = 3/4 with step 1/8.  Uniform-step aliasing
    there is controlled by the width of the pole-free strip, decaying like
    exp(-2 pi line / step), about 4e-17; the plane sums cancel by many
    orders, and the step keeps the aliasing below that floor.  y far from
    1/pi adds phase 2 v log(pi y) and may need a smaller step still.

    The default spectral step 0.5 aliases unless y1, y2 >~ 0.8: at T = 1.5,
    R = 1, against step 1/16, it is off by at most 6e-13 relative at (1, 1),
    (0.8, 1.3) and (1.3, 0.8), but by 4.4e-10 at (0.6, 0.6), 5.5e-8 at
    (1/pi, 1/pi) (step 0.4: 3.9e-11), 7.6e-7 at (0.25, 0.25) and 3.3e-4 at
    (0.1, 0.1).  Further out it is wrong outright: 1.479e-6 at
    (2.479e-3, 1/pi), where steps 0.25 and 0.125 both give -6.5426e-11, and
    1.66e-9 at (2.479e-3, 2.479e-3) against 2.645e-12.
    """
    y = require_positive(y, "y")
    spectral_step = require_positive(spectral_step, "spectral_step")
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
    # the pair differences m1 - m2, 2 m1 + m2 and m1 + 2 m2, in steps
    row = _pair_share(3, spectral_step * np.arange(-3 * n_t, 3 * n_t + 1), params, 1)
    m1, m2 = np.ogrid[-n_t : n_t + 1, -n_t : n_t + 1]
    with np.errstate(over="ignore"):
        dens = row[3 * n_t + m1 - m2] + row[3 * n_t + 2 * m1 + m2] + row[3 * n_t + m1 + 2 * m2]
    keep = np.isfinite(_require_finite(dens, params))
    m1, m2 = (i - n_t for i in np.nonzero(keep))
    triples = np.sort(np.stack([m1, m2, -m1 - m2], axis=1), axis=1)
    orbits, member = np.unique(triples, axis=0, return_inverse=True)
    weight = np.bincount(member, weights=np.exp(dens[keep]))
    t1, t2 = spectral_step * orbits[:, 0], spectral_step * orbits[:, 1]
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
    delta = require_integer(delta, "delta")
    if delta < 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
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
    rank-one density, :func:`_pair_share` at the difference 4t of the
    columns (2t, -2t), which carries |Gamma_R(2it)|^2; inner integral over
    all u of |Gamma(-a+i(u+t)) Gamma(-a+i(u-t))| along Re(s) = -a.

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
    dv = require_positive(grid_step, "grid_step")
    t_factor = require_positive(t_factor, "t_factor")
    pad = require_positive(pad, "pad")
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
    lw = _require_finite(_pair_share(2, 4.0 * t, params, 1), params) - np.pi * t
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
    tempered line, summed on a uniform grid whose every pair difference
    d = t_j - t_k lies in |d| <= 4 (3T + 15) sqrt(max(R, 3) / 3): the
    density's peak moves outward with R, and the window with it.  Doubling
    that window moves no value by more than rounding (at n = 3, 3e-13 for
    R <= 7 at T <= 64 and for R <= 6 at T = 512), though a pair weight
    alone is not small at its edge (at n = 3, T = 128 it is within e^60 of
    its peak); only their product is.  The coincidence lines d = 0 carry
    double zeros and are excised exactly.

    For n = 2 the grid is the midpoints of t > 0 at step 1/8, where d = 2t,
    counted twice since the integrand is even.  For n = 3 it is the plane
    t = step * (m1, m2, -m1 - m2) at step 1/2, where the density is
    W(x) W(y) W(x + y) with W = exp(l), l the pair share
    :func:`_pair_share`, at the pair differences x = m1 - m2,
    y = m1 + 2 m2 and x + y (in steps).  The map (m1, m2) -> (x, y) is a
    bijection onto the pairs with x = y (mod 3), so the sum is
    sum_x W(x) sum_{y = x (mod 3)} W(y) W(x + y): for each residue class c,
    the correlation of W_c (W on the class, 0 elsewhere) with W, read on
    the class, by real FFTs over one row.

    FFT rounding errs by at most machine epsilon times log2 of the size
    times ||W|| ||W_c|| sum W_c, summed over the classes, and the result
    raises :class:`AccuracyError` when that exceeds 1e-10 of the sum: where
    the density's peak lies far below the pair weights' peaks, at T below
    about 0.2, at R = 7 with T = 512, and from R = 8 at T >= 8.
    """
    return _main_term_log(n, TestFunctionParams(T=T, R=R), 4.0 * (3.0 * T + 15.0) * math.sqrt(max(R, 3) / 3))


def _main_term_log(n: int, params: TestFunctionParams, window: float) -> float:
    """:func:`main_term_log` with every pair difference |d| <= window."""
    if n == 2:
        d = np.arange(1, math.floor(8.0 * window) + 1, 2) / 8.0
        li = _require_finite(_pair_share(2, d, params, 2), params)
        mx = li.max()
        li -= mx
        return float(mx + math.log(np.sum(np.exp(li, out=li)) * 2.0 / 8.0))
    if n != 3:
        raise NotImplementedError("main-term integral implemented for n = 2, 3")
    k = math.floor(2.0 * window)
    li = _require_finite(_pair_share(3, 0.5 * np.arange(-k, k + 1), params, 2), params)
    mx = li.max()
    w = np.exp(li - mx)
    # the correlation's lags run over [-2k, 2k]; a size above 3k keeps the
    # lags |x| <= k, read below from index x mod size, from wrapping onto
    # any other
    size = 1 << (3 * k).bit_length()
    spec = np.fft.rfft(w, size)
    total = rounding = 0.0
    for c in range(3):
        # entry j of w is W at j - k, so the class of x = c starts at (c + k) % 3
        wc = np.zeros_like(w)
        wc[(c + k) % 3 :: 3] = w[(c + k) % 3 :: 3]
        corr = np.fft.irfft(np.conj(np.fft.rfft(wc, size)) * spec, size)
        total += float(np.dot(wc, np.roll(corr, k)[: w.size]))
        rounding += np.linalg.norm(wc) * wc.sum()
    rounding *= np.finfo(float).eps * math.log2(size) * np.linalg.norm(w)
    if not rounding <= 1e-10 * total:
        raise AccuracyError(
            f"FFT rounding may move main_term_log by more than 1e-10 at R = {params.R}, "
            f"T = {params.T}: the density's peak lies too far below the pair weights' peaks"
        )
    return float(3.0 * mx + math.log(total * 0.5 * 0.5))


# ---------------------------------------------------------------------------
# scaling fits


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares slope of log(value) against log(T), with the prediction,
    the local slopes Delta log(value) / Delta log(T) between consecutive
    scales, and the residual slope - predicted."""

    T_values: tuple[float, ...]
    log_values: tuple[float, ...]
    slope: float
    intercept: float
    predicted: float
    local_slopes: tuple[float, ...]
    residual: float

    @property
    def within(self) -> float:
        return abs(self.residual)


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
    steps = np.diff(log_values) / np.diff(np.log(T_values))
    return ScalingFit(
        T_values=tuple(T_values),
        log_values=tuple(log_values),
        slope=float(slope),
        intercept=float(intercept),
        predicted=float(predicted),
        local_slopes=tuple(float(s) for s in steps),
        residual=float(slope) - float(predicted),
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
