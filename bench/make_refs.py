"""Generate the frozen oracle references under bench/refs/.

Run once from the repository root (it takes several minutes):

    python3 bench/make_refs.py [contour|kloosterman|scaling ...]

Timed benchmark runs only read these files, so no run pays for an oracle.
Each file records the route that produced its values.  The input pools are
drawn from fixed generator seeds; a benchmark seed picks its inputs from the
pools.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

import common

POOL_SEED = 20221229
RANK3_POOL = 1024
RANK4_POOL = 48
PAIR_POOL = 64
KLOOSTERMAN_C_MAX = 8000
PAIR_C_MAX = 4000
ITR_POINT = (1.25, 2)
ITR_LADDER = (32, 64, 128, 256, 512)
MAIN_TERM_LADDER = (16, 32, 64, 128)

# fixed contour probes: the sampling box's corners and the two defects the
# rank-two recursion is known to have (tiny Re s, real alpha)
RANK3_PROBES = [
    (alpha, (s, s))
    for alpha in ((0.4j, -0.4j, 0j), (0.4 + 0j, -0.4 + 0j, 0j))
    for s in (0.02, 0.1, 0.3, 0.7, 1.4)
]
RANK4_PROBES = [
    ((0.4j, -0.1j, -0.3j, 0j), (0.5, 0.5, 0.5)),
    ((0.4 + 0.2j, -0.4 + 0.1j, 0.2 - 0.3j, -0.2 + 0j), (0.5, 0.5, 0.5)),
]


def _round(z: complex) -> complex:
    return complex(round(z.real, 6), round(z.imag, 6))


def sample_point(rng: np.random.Generator, n: int, tempered: bool):
    """One transform point: alpha with |Re alpha_j| <= 0.4 summing to zero,
    |Im alpha_j| <= 1.5 for the free entries, Re s in [0.02, 1.4] and
    Im s in [-1, 1]."""
    t = rng.uniform(-1.5, 1.5, size=n - 1)
    r = np.zeros(n - 1)
    if not tempered:
        r = rng.uniform(-0.4, 0.4, size=n - 1)
        while abs(r.sum()) > 0.4:
            r = rng.uniform(-0.4, 0.4, size=n - 1)
    head = [_round(complex(a, b)) for a, b in zip(r, t)]
    alpha = tuple(head + [_round(-sum(head))])
    s = tuple(
        _round(complex(rng.uniform(0.02, 1.4), rng.uniform(-1.0, 1.0))) for _ in range(n - 1)
    )
    return alpha, s


def barnes_rank3(alpha, s) -> complex:
    """Barnes' first lemma evaluated in mpmath: the rank-two transform is
    prod_j Gamma(s1 + alpha_j) Gamma(s2 - alpha_j) / Gamma(s1 + s2), with
    leading constant exactly 1."""
    import mpmath

    with mpmath.workdps(30):
        a = [mpmath.mpc(z.real, z.imag) for z in alpha]
        s1 = mpmath.mpc(s[0].real, s[0].imag)
        s2 = mpmath.mpc(s[1].real, s[1].imag)
        log = -mpmath.loggamma(s1 + s2)
        for aj in a:
            log += mpmath.loggamma(s1 + aj) + mpmath.loggamma(s2 - aj)
        return complex(mpmath.exp(log))


def _point_record(alpha, s, ref, **extra) -> dict:
    return {
        "alpha": [common.from_complex(a) for a in alpha],
        "s": [common.from_complex(v) for v in s],
        "ref": common.from_complex(ref),
        **extra,
    }


def make_contour(lib) -> dict:
    import contour_oracle

    rng = np.random.default_rng([POOL_SEED, 3])
    rank3, cross_check = [], 0.0
    for i in range(RANK3_POOL):
        alpha, s = sample_point(rng, 3, tempered=i % 2 == 0)
        ref = barnes_rank3(alpha, s)
        # the residue-corrected quadrature used for rank four, against Barnes
        value, _ = contour_oracle.rank2_recursion(alpha, s).value_and_check()
        cross_check = max(cross_check, abs(value - ref) / abs(ref))
        rank3.append(_point_record(alpha, s, ref))
    rng = np.random.default_rng([POOL_SEED, 4])
    rank4_points = [sample_point(rng, 4, tempered=i % 2 == 0) for i in range(RANK4_POOL)]
    rank4_points += [(alpha, tuple(complex(v) for v in s)) for alpha, s in RANK4_PROBES]
    rank4 = []
    for alpha, s in rank4_points:
        r = contour_oracle.rank3_reference(alpha, s)
        rank4.append(_point_record(alpha, s, r["ref"], weyl_spread=r["weyl_spread"],
                                   line_check=r["line_check"]))
        print(f"rank four {len(rank4)}: Weyl spread {r['weyl_spread']:.1e}", file=sys.stderr, flush=True)
    probes = [
        _point_record(alpha, tuple(complex(v) for v in s), barnes_rank3(alpha, s))
        for alpha, s in RANK3_PROBES
    ] + rank4[RANK4_POOL:]
    rank4 = rank4[:RANK4_POOL]
    return {
        "routes": {
            "rank3": "Barnes' first lemma in mpmath at 30 digits, leading constant exactly 1",
            "rank4": "contour_oracle.rank3_reference: the plane-integral recursion over "
            "Barnes' closed rank-two form (constant exactly 1), on straight lines "
            "far from every pole plus the residues of the poles they cross, "
            "trapezoidal rule; 'weyl_spread' is the largest relative change over "
            "the other three Weyl peels of alpha, 'line_check' over a second set "
            "of lines",
        },
        "rank3_quadrature_vs_barnes": cross_check,
        "pool_seed": POOL_SEED,
        "rank3": rank3,
        "rank4": rank4,
        "probes": probes,
    }


def exact_kloosterman(m: int, l: int, c: int) -> float:
    """S(m, l; c) by the same exact integer binning as trace.kloosterman_gl2,
    with the root-of-unity pass in 80-bit extended precision."""
    counts = [0] * c
    for x in range(c):
        if math.gcd(x, c) == 1:
            counts[(m * x + l * pow(x, -1, c)) % c] += 1
    ks = np.flatnonzero(counts)
    weights = np.asarray(counts, dtype=np.longdouble)[ks]
    two_pi = np.longdouble("6.28318530717958647692528676655900577")
    return float(np.sum(weights * np.cos(two_pi * ks.astype(np.longdouble) / c)))


def make_kloosterman(lib) -> dict:
    if np.finfo(np.longdouble).eps > 1e-18:
        raise SystemExit("extended precision (long double) is needed for the Kloosterman oracle")
    table = [exact_kloosterman(1, 1, c) for c in range(1, KLOOSTERMAN_C_MAX + 1)]
    rng = np.random.default_rng([POOL_SEED, 5])
    pairs = []
    for _ in range(PAIR_POOL):
        m, l = (int(v) for v in rng.integers(1, 51, size=2))
        small = rng.choice(np.arange(1, 65), size=4, replace=False)
        large = np.unique(np.round(np.exp(rng.uniform(math.log(65), math.log(PAIR_C_MAX), size=28))))
        moduli = sorted(int(c) for c in np.concatenate([small, large]))
        pairs.append(
            {"m": m, "l": l, "moduli": moduli, "values": [exact_kloosterman(m, l, c) for c in moduli]}
        )
    return {
        "route": "exact integer binning of (m x + l x~) mod c as in trace.kloosterman_gl2, "
        "roots of unity summed in 80-bit extended precision",
        "pool_seed": POOL_SEED,
        "unit_pair": {"m": 1, "l": 1, "c_max": KLOOSTERMAN_C_MAX, "values": table},
        "pairs": pairs,
    }


def main_term_log3(T: float, R: int, h: float, half: float, rows: int = 64) -> float:
    """log of the rank-three main-term norm integral (the integrand of
    testfunctions.main_term_log(3, ...)) on a uniform grid of step h over
    [-half, half]^2, summed in row blocks with a running log-sum-exp."""
    from scipy.special import loggamma

    g = np.arange(-half, half + h / 2, h)
    total, peak = 0.0, -np.inf
    for lo in range(0, g.size, rows):
        t1 = g[lo : lo + rows, None]
        t2 = g[None, :]
        t3 = -t1 - t2
        li = -(t1**2 + t2**2 + t3**2) / T**2
        li = li + R * (np.log1p(((t1 - t2) / 2) ** 2) + np.log1p(((t1 - t3) / 2) ** 2)
                       + np.log1p(((t2 - t3) / 2) ** 2))
        with np.errstate(divide="ignore", invalid="ignore"):
            for x, y in ((t1, t2), (t1, t3), (t2, t3)):
                d = x - y
                zero = np.abs(d) < 1e-12
                li = li + 4.0 * loggamma((2.0 * R + 1.0 + 1j * d) / 4.0).real
                li = li - 2.0 * loggamma(1j * d / 2.0 + np.where(zero, 1.0, 0.0)).real
                li = np.where(zero, -np.inf, li)
        block_peak = li.max()
        if block_peak > peak:
            total *= math.exp(peak - block_peak) if np.isfinite(peak) else 0.0
            peak = block_peak
        total += float(np.sum(np.exp(li - peak)))
    return float(peak + math.log(total * h * h))


def make_scaling(lib) -> dict:
    from kuznetsov_lab import testfunctions as tf

    a, R = ITR_POINT
    itr = []
    for T in ITR_LADDER:
        params = tf.TestFunctionParams(T=float(T), R=R)
        kw = dict(t_factor=4.5, pad=24.0)
        ref = tf.itr_log(a, params, grid_step=1.0 / 64, **kw)
        ref_half = tf.itr_log(a, params, grid_step=1.0 / 32, **kw)
        itr.append({"T": T, "ref": ref, "ref_uncertainty": abs(ref - ref_half)})
        print(f"itr_log T={T} done", file=sys.stderr, flush=True)
    main = []
    for T in MAIN_TERM_LADDER:
        # the library uses h = 1/2 on [-3T-15, 3T+15]; refine 4x and widen
        ref = main_term_log3(float(T), 1, 0.125, 5.0 * T + 20.0)
        ref_half = main_term_log3(float(T), 1, 0.25, 5.0 * T + 20.0)
        main.append({"T": T, "ref": ref, "ref_uncertainty": abs(ref - ref_half)})
        print(f"main_term_log T={T} done", file=sys.stderr, flush=True)
    return {
        "routes": {
            "itr_log": "self-convergence: testfunctions.itr_log on a 4x refined grid "
            "(grid_step 1/64) over a wider window (t_factor 4.5, pad 24); "
            "ref_uncertainty is the change from the 2x refined grid",
            "main_term_log": "self-convergence: the same integrand summed blockwise on a 4x "
            "refined grid (h = 1/8) over [-(5T+20), 5T+20]^2; ref_uncertainty is "
            "the change from h = 1/4",
        },
        "itr_log": {"a": a, "R": R, "points": itr},
        "main_term_log": {"n": 3, "R": 1, "points": main},
    }


MAKERS = {"contour": make_contour, "kloosterman": make_kloosterman, "scaling": make_scaling}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help=f"any of {', '.join(MAKERS)} (default: all)")
    args = parser.parse_args(argv)
    unknown = set(args.names) - set(MAKERS)
    if unknown:
        parser.error(f"unknown reference set(s): {', '.join(sorted(unknown))}")
    lib = common.import_library()
    common.REFS.mkdir(exist_ok=True)
    for name in args.names or list(MAKERS):
        start = time.perf_counter()
        data = MAKERS[name](lib)
        with open(common.REFS / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"{name}: {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
