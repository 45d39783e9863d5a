"""Arithmetic-side checks: exact Kloosterman sums against classical
identities, modulus-sum convergence reports, the exponent ledger, divisor
sums against a brute-force oracle, the cuspidal quotient, and CSV ingest."""

import functools
import math
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from kuznetsov_lab import trace
from kuznetsov_lab.combinatorics import Composition, enumerate_compositions
from kuznetsov_lab.geometry import WeylElement
from kuznetsov_lab.special import bound_B
from kuznetsov_lab.testfunctions import TestFunctionParams
from kuznetsov_lab.trace import (
    CsvFormatError,
    HeckeConsistencyWarning,
    KloostermanQuery,
    MaassFormRecord,
    cuspidal_sum,
    hecke_divisor_sum,
    ingest_maass_csv,
    iwbounds_exponent,
    kloosterman_gl2,
    kloosterman_sweep,
    kloosterman_tail,
    modulus_exponents,
    random_sign_fixture,
    tail_from_rho,
    verify_aplusb,
    verify_aplusb_all,
)


def divisor_counts(n_max: int) -> np.ndarray:
    d = np.zeros(n_max + 1, dtype=int)
    for k in range(1, n_max + 1):
        d[k::k] += 1
    return d


def euler_phi_table(n_max: int) -> np.ndarray:
    phi = np.arange(n_max + 1)
    for p in range(2, n_max + 1):
        if phi[p] == p:  # p prime
            phi[p::p] -= phi[p::p] // p
    return phi


def prime_power_factors(c: int) -> list[tuple[int, int]]:
    # (p, p^e) for each prime power p^e exactly dividing c, by trial division
    out, p = [], 2
    while c > 1:
        if c % p == 0:
            q = 1
            while c % p == 0:
                q, c = q * p, c // p
            out.append((p, q))
        p += 1
    return out


def prime_power_mask(c_max: int) -> np.ndarray:
    # index c-1 is True when c is 1 or a prime power
    return np.array([len(prime_power_factors(c)) <= 1 for c in range(1, c_max + 1)])


# the (m, l) pairs the sweep is checked at against the oracle, modulus by
# modulus
SWEEP_PAIRS = [(1, 1), (2, 3), (0, 5), (0, 0), (12, 18), (-5, 9)]


def unit_residue_counts(m: int, l: int, c: int) -> Counter:
    return Counter((m * x + l * pow(x, -1, c)) % c for x in range(c) if math.gcd(x, c) == 1)


def cosine_sum_reference(m: int, l: int, c: int) -> float:
    # S(m, l; c) as the fsum of count * cos(2 pi k / c) over the full range
    # 0..c-1, with no use of the histogram's symmetry
    counts = unit_residue_counts(m, l, c)
    return math.fsum(n * math.cos(2 * math.pi * k / c) for k, n in counts.items())


class TestKloosterman:
    def test_named_values(self):
        assert kloosterman_gl2(1, 1, 1) == pytest.approx(1.0, abs=1e-12)
        assert kloosterman_gl2(1, 1, 2) == pytest.approx(1.0, abs=1e-12)
        assert kloosterman_gl2(1, 1, 3) == pytest.approx(-1.0, abs=1e-12)

    def test_closed_forms_small_moduli(self):
        # c=4: both units give phase 1/2; c=5: 2 + 2 cos(4 pi/5) = (3-sqrt5)/2
        assert kloosterman_gl2(1, 1, 4) == pytest.approx(-2.0, abs=1e-12)
        assert kloosterman_gl2(1, 1, 5) == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-12)

    def test_real_valued(self):
        sweep = kloosterman_sweep(300)
        assert np.all(sweep.imag == 0)

    def test_residue_histogram_is_symmetric(self, monkeypatch):
        # the cosine pass rests on counts[k] == counts[-k mod c]: x -> -x
        # sends the residue m x + l x~ to its negative
        seen = []
        root_sum = trace._root_sum

        def spy(counts, c):
            seen.append((np.array(counts), c))
            return root_sum(counts, c)

        monkeypatch.setattr(trace, "_root_sum", spy)
        for m, l in [(1, 1), (2, 3), (0, 0), (-5, 9), (10**17, 1)]:
            seen.clear()
            for c in range(1, 201):
                kloosterman_gl2(m, l, c)
            assert [c for _, c in seen] == list(range(1, 201))
            for counts, c in seen:
                assert np.array_equal(counts, counts[-np.arange(c) % c])

    def test_sweep_meets_exact_cosine_sum(self):
        # every c <= 300 at two pairs, plus sample moduli up to 8000: powers
        # of 2, twice a prime, even moduli whose residue c/2 is hit (at
        # (1, 1) also c = 4, 20, 52, ...), 7001 with residue 0 hit, a prime
        samples = [512, 1024, 2048, 4096, 7814, 7978, 7012, 7748, 7940, 7001, 7919]
        unit = kloosterman_sweep(8000)
        pair = kloosterman_sweep(300, 2, 3)
        for c in [*range(1, 301), *samples]:
            assert abs(unit[c - 1] - cosine_sum_reference(1, 1, c)) <= 1e-12, c
        for c in range(1, 301):
            assert abs(pair[c - 1] - cosine_sum_reference(2, 3, c)) <= 1e-12, c
        half_hit = [c for c in samples if c % 2 == 0 and unit_residue_counts(1, 1, c)[c // 2]]
        assert half_hit == [7012, 7748, 7940]

    def test_sweep_matches_scalar_path(self):
        # at a prime power the sweep bins the oracle's own integer residues,
        # so the two agree bit for bit; a composite modulus is a product of
        # prime-power sums and agrees to rounding, within the bound the exact
        # cosine sum is held to.  c <= 1100 reaches 2^10, 3^6, 5^4, 7^3 and
        # 31^2, and products of three or four prime powers (1020 = 4*3*5*17,
        # 1092 = 4*3*7*13); the whole sweeps to c_max = 1, 2 and 4 pin the
        # edges where no composite is assembled
        c_max = 1100
        powers = prime_power_mask(c_max)
        for m, l in SWEEP_PAIRS:
            scalar = np.array([kloosterman_gl2(m, l, c) for c in range(1, c_max + 1)])
            sweep = kloosterman_sweep(c_max, m, l)
            assert np.array_equal(sweep[powers], scalar[powers])
            assert np.max(np.abs(sweep - scalar)) <= 1e-12
            for short in (1, 2, 4):
                assert np.array_equal(kloosterman_sweep(short, m, l), scalar[:short])

    def test_sweep_reduces_huge_characters_exactly(self):
        # m x overflows int64 unless m is reduced mod q before numpy sees it
        powers = prime_power_mask(300)
        for m in (10**17, -(10**17), 2**70):
            sweep = kloosterman_sweep(300, m, 1)
            scalar = np.array([kloosterman_gl2(m, 1, c) for c in range(1, 301)])
            assert np.array_equal(sweep[powers], scalar[powers])
            assert np.max(np.abs(sweep - scalar)) <= 1e-12

    def test_discriminant_histogram_matches_unit_enumeration(self):
        # at an odd prime p not dividing m l the histogram is read off the
        # count of squares, k -> #{y : y^2 = k^2 - 4 m l}; it must be the
        # integer histogram the units give, and the pairs with p | m l, which
        # take the unit route, must come out the same through the dispatch
        primes = [p for p in range(3, 2000) if prime_power_factors(p) == [(p, p)]]
        for p in primes:
            for m, l in [(1, 1), (2, 3), (p, 1), (1, p), (10**17, 1), (-5, 9)]:
                assert np.array_equal(
                    trace._prime_power_histogram(m, l, p, p), trace._unit_histogram(m, l, p, p)
                ), (p, m, l)

    def test_sweep_sums_each_prime_power_once(self, monkeypatch):
        # the cosine pass runs once per prime power and never at a composite
        # modulus, which is assembled from the prime-power sums
        seen = []
        root_sum = trace._root_sum

        def spy(counts, c):
            seen.append(c)
            return root_sum(counts, c)

        monkeypatch.setattr(trace, "_root_sum", spy)
        kloosterman_sweep(1100)
        assert sorted(seen) == [c for c in range(2, 1101) if len(prime_power_factors(c)) == 1]

    def test_composites_are_twisted_products(self):
        # S(m, l; c) = prod_i S(m r~_i, l r~_i; q_i) over c's prime powers q_i,
        # r~_i the inverse of c / q_i mod q_i, each factor from the oracle
        c_max = 1100

        @functools.cache
        def factor(m, l, q):
            return kloosterman_gl2(m, l, q)

        for m, l in SWEEP_PAIRS:
            sweep = kloosterman_sweep(c_max, m, l)
            for c in range(2, c_max + 1):
                factors = prime_power_factors(c)
                if len(factors) < 2:
                    continue
                product = 1.0
                for _, q in factors:
                    rbar = pow(c // q, -1, q)
                    product *= factor(m * rbar % q, l * rbar % q, q)
                assert abs(sweep[c - 1] - product) <= 1e-12, (m, l, c)

    def test_weil_bound(self):
        c_max = 5000
        sizes = np.abs(kloosterman_sweep(c_max))
        d = divisor_counts(c_max)[1:]
        c = np.arange(1, c_max + 1)
        assert np.all(sizes <= d * np.sqrt(c) + 1e-9)

    def test_unit_count_bound(self):
        sizes = np.abs(kloosterman_sweep(300))
        phi = euler_phi_table(300)[1:]
        assert np.all(sizes <= phi + 1e-9)

    def test_twisted_multiplicativity(self):
        for (c1, c2) in [(3, 4), (5, 7), (4, 9), (8, 5)]:
            for (m, l) in [(1, 1), (2, 3)]:
                c2bar = pow(c2, -1, c1)
                c1bar = pow(c1, -1, c2)
                lhs = kloosterman_gl2(m, l, c1 * c2)
                rhs = kloosterman_gl2(m * c2bar * c2bar, l, c1) * kloosterman_gl2(
                    m * c1bar * c1bar, l, c2
                )
                assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_symmetry_in_m_l(self):
        # x -> x~ is a bijection on units
        assert kloosterman_gl2(2, 5, 13) == pytest.approx(
            kloosterman_gl2(5, 2, 13), abs=1e-12
        )

    def test_invalid_modulus(self):
        with pytest.raises(ValueError):
            kloosterman_gl2(1, 1, 0)
        with pytest.raises(ValueError):
            kloosterman_sweep(0)

    def test_oracle_rejects_non_integral_input(self):
        # these used to escape as TypeError from the residue arithmetic
        with pytest.raises(ValueError, match="modulus must be an integer"):
            kloosterman_gl2(1, 1, 2.5)
        with pytest.raises(ValueError, match="m must be an integer"):
            kloosterman_gl2(1.5, 1, 5)
        assert kloosterman_gl2(np.int64(2), 5, 13.0) == kloosterman_gl2(2, 5, 13)

    def test_sweep_rejects_non_integral_input(self):
        with pytest.raises(ValueError, match="m must be an integer"):
            kloosterman_sweep(10, 1.5, 1)
        assert np.array_equal(kloosterman_sweep(10.0), kloosterman_sweep(10))
        assert np.array_equal(kloosterman_sweep(np.int64(10), np.int64(2)), kloosterman_sweep(10, 2))


class TestKloostermanQuery:
    def test_rank_one_evaluates(self):
        q = KloostermanQuery(m=1, l=1, moduli=(3,))
        assert q.n == 2
        assert q.value() == pytest.approx(-1.0, abs=1e-12)

    def test_higher_rank_stored_not_evaluated(self):
        q = KloostermanQuery(m=1, l=2, moduli=(2, 3), weyl=WeylElement(Composition((1, 2))))
        assert q.n == 3
        assert q.trivial_bound() == 6
        with pytest.raises(NotImplementedError) as exc:
            q.value()
        assert "trivial_bound" in str(exc.value)
        assert "psi_" in str(exc.value)  # the compatibility condition is cited

    def test_validation(self):
        with pytest.raises(ValueError):
            KloostermanQuery(m=1, l=1, moduli=(0,))
        with pytest.raises(ValueError):
            KloostermanQuery(m=1, l=1, moduli=(2, 3), weyl=WeylElement(Composition((1, 1))))

    def test_non_integer_modulus_rejected(self):
        # 2.5 used to be truncated to the modulus 2
        with pytest.raises(ValueError, match="positive integers"):
            KloostermanQuery(m=1, l=1, moduli=(2.5,))
        q = KloostermanQuery(m=1, l=1, moduli=(np.int64(3),))
        assert q.moduli == (3,) and type(q.moduli[0]) is int
        assert q.value() == pytest.approx(-1.0, abs=1e-12)


class TestModulusTail:
    def test_exponent_bookkeeping(self):
        assert modulus_exponents([2.0]) == [9.0]
        a1, a2 = 1.7, 2.2
        e1, e2 = modulus_exponents([a1, a2])
        assert e1 == pytest.approx(1 + 4 * a1 - 2 * a2)
        assert e2 == pytest.approx(1 - 2 * a1 + 4 * a2)

    def test_canonical_shift_converges(self):
        rep = tail_from_rho(1.5, 0.01, 2000)
        assert rep.exponent == pytest.approx(1 + 4 * (1.5 + 0.505))
        assert rep.converged_geometric
        assert not rep.divergent
        assert max(rep.block_ratios) < 0.9

    def test_zero_shift_diverges(self):
        rep = kloosterman_tail(0.0, 2000)
        assert rep.divergent
        assert not rep.converged_geometric

    def test_trivial_comparison_series(self):
        from scipy.special import zeta

        rep = tail_from_rho(1.5, 0.01, 500)
        s = rep.exponent - 1
        assert rep.trivial_zeta == pytest.approx(float(zeta(s)), rel=1e-12)
        assert rep.trivial_block_ratio == pytest.approx(2.0 ** (1 - s))
        # |S| <= phi(c) < c makes the zeta series a true majorant
        assert rep.partial_sum < rep.trivial_zeta
        assert rep.trivial_tail_bound > 0

    def test_partial_sum_accumulates_blocks(self):
        rep = tail_from_rho(1.5, 0.01, 1000)
        assert sum(rep.block_sums) == pytest.approx(rep.partial_sum, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            kloosterman_tail(2.0, 2)

    def test_non_integral_c_max_rejected(self):
        # 10.5 used to escape as TypeError from the sweep's sieve
        with pytest.raises(ValueError, match="c_max must be an integer"):
            kloosterman_tail(1.0, 10.5)
        assert kloosterman_tail(1.0, 10.0) == kloosterman_tail(1.0, 10)


class TestExponentReports:
    def test_lm_exponent_rank_four(self):
        rep = iwbounds_exponent(1.5, Composition((1, 3)))
        assert rep.lm_exponent == pytest.approx(29 / 4)

    def test_slack_nonpositive_universally(self):
        for n in range(2, 13):
            for comp in enumerate_compositions(n, min_length=2):
                rep = iwbounds_exponent(1.5, comp)
                assert rep.slack <= 0, (n, comp.parts)

    def test_slack_hand_value(self):
        # n=2: 3 - 0 - 3 - 1 = -1
        assert iwbounds_exponent(1.5, Composition((1, 1))).slack == -1

    def test_phi_minimum(self):
        for n in (3, 4, 5, 6):
            phis = [
                iwbounds_exponent(1.5, c).phi
                for c in enumerate_compositions(n, min_length=2)
            ]
            assert min(phis) == n * (n - 1) // 2

    def test_rho_thresholds(self):
        assert iwbounds_exponent(1.5, Composition((1, 2))).rho_threshold == 1
        assert iwbounds_exponent(1.5, Composition((2, 2))).rho_threshold * 4 == 5
        assert iwbounds_exponent(1.5, Composition((1, 4))).rho_threshold * 5 == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            iwbounds_exponent(1.4, Composition((1, 2)))

    @pytest.mark.parametrize("n", range(2, 11))
    def test_ledger_equals_the_fraction_reference(self, n):
        # every field built from Fractions, as the docstring's formulas read
        for comp in enumerate_compositions(n, 2):
            nhat = comp.partial_sums
            phi = sum(
                Fraction(comp.parts[k] + comp.parts[k + 1], 2) * (n - nhat[k]) * nhat[k]
                for k in range(comp.r - 1)
            )
            for rho in (Fraction(k, 2) for k in (-1, 1, 3, 5, 7)):
                rep = iwbounds_exponent(rho, comp)
                slack = Fraction((n - 1) * (n + 4), 2) - Fraction((n - 1) // 2) - rho * n - phi
                lm = 2 * rho + Fraction(n * n + 1, 4)
                threshold = Fraction(3, 2) - (Fraction(3, 2 * n) if n % 2 else Fraction(1, n))
                assert (rep.phi, rep.slack, rep.lm_exponent, rep.rho_threshold) == (phi, slack, lm, threshold)
                fields = (rep.rho, rep.phi, rep.slack, rep.lm_exponent, rep.rho_threshold)
                assert all(type(f) is Fraction for f in fields)


class TestAplusB:
    def test_rank_two_by_hand(self):
        # a_1 = 2 + delta/2 with delta = 2 eps'/4; the region shift lands the
        # single b entry exactly on 2, where the floor B(x) >= x is charged:
        # lhs = (2 + delta) + 2 against target 0 + 3 + 1
        rep = verify_aplusb(1.5, Composition((1, 1)))
        delta = 2 * rep.eps_prime / 4
        assert rep.target == pytest.approx(4.0)
        assert rep.lhs == pytest.approx(4.0 + delta, abs=1e-12)
        assert rep.passed
        assert rep.floored_entries and rep.floored_entries[0][1] == pytest.approx(2.0)

    def test_rank_four_all_compositions(self):
        reps = verify_aplusb_all(4, 1.5)
        assert len(reps) == 7
        assert all(r.passed for r in reps)

    def test_all_ranks_through_seven(self):
        for rho in (1.5, 2.5):
            for n in range(2, 8):
                assert all(r.passed for r in verify_aplusb_all(n, rho)), (n, rho)

    def test_odd_rank_slack(self):
        for rep in verify_aplusb_all(5, 1.5):
            assert rep.lhs - rep.target >= 0

    def test_structural_landing_is_isolated(self):
        # only (1,4,1) needs the floor at n=6; every other composition
        # evaluates B cleanly
        reps = verify_aplusb_all(6, 1.5)
        floored = {r.composition.parts for r in reps if r.floored_entries}
        assert floored == {(1, 4, 1)}

    @pytest.mark.parametrize("rho", [Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)])
    def test_ledger_matches_block_enumeration(self, rho):
        # the block exponents enumerated by (i, j) directly:
        # b_{i,j} = a_{nhat_{i-1}} - a_{nhat_{i-1}+j} + a_{nhat_i} with
        # a_0 = a_n = 0, skipping the phantom entry at y-index n, each charged
        # at the worse of its two region offsets
        def charge(x):
            try:
                return bound_B(x)
            except ValueError:
                return max(x, 0.0)

        for n in range(2, 8):
            for comp in enumerate_compositions(n, min_length=2):
                rep = verify_aplusb(rho, comp)
                delta = 2.0 * rep.eps_prime / n**2
                a = [float(rho) + 0.5 * k * (n - k) * (1.0 + delta) for k in range(1, n)]
                a_ext = [0.0, *a, 0.0]
                nhat = (0,) + comp.partial_sums
                worst = []
                for i in range(1, comp.r + 1):
                    for j in range(1, comp.parts[i - 1] + 1):
                        if n - nhat[i] + j == n:
                            continue
                        base = a_ext[nhat[i - 1]] - a_ext[nhat[i - 1] + j] + a_ext[nhat[i]]
                        worst.append(min((charge(x), x) for x in (base + delta / 2, base - delta / 2)))
                assert rep.a == tuple(a), (n, comp.parts)
                assert sorted(rep.b_worst) == sorted(x for _, x in worst), (n, comp.parts)
                lhs = sum(map(charge, a)) + sum(v for v, _ in worst)
                assert rep.lhs == pytest.approx(lhs, rel=0.0, abs=1e-12), (n, comp.parts)

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_aplusb(1.5, Composition((4,)))
        with pytest.raises(ValueError):
            verify_aplusb(1.2, Composition((1, 3)))


class TestDivisorSums:
    def test_unit(self):
        assert hecke_divisor_sum(1, (0.5, -0.5), (None, None)) == pytest.approx(1.0)

    def test_rank_two_prime(self):
        for s in (0.3, 0.7j, 0.2 - 0.4j):
            assert hecke_divisor_sum(2, (s, -s), (None, None)) == pytest.approx(2**s + 2**-s, rel=1e-12)

    def test_against_divisor_oracle(self):
        m, s = 12, 0.41
        direct = sum(
            d**s * (m // d) ** -s for d in range(1, m + 1) if m % d == 0
        )
        assert hecke_divisor_sum(m, (s, -s), (None, None)) == pytest.approx(direct, rel=1e-12)

    def test_multiplicative_in_coprime_m(self):
        s = 0.37
        for m1, m2 in [(2, 3), (4, 9), (3, 8), (5, 49)]:
            prod = hecke_divisor_sum(m1, (s, -s), (None, None))
            prod *= hecke_divisor_sum(m2, (s, -s), (None, None))
            assert hecke_divisor_sum(m1 * m2, (s, -s), (None, None)) == pytest.approx(prod, rel=1e-12)

    def test_record_factor(self):
        rec = MaassFormRecord(r=2.0, hecke={1: 1.0, 2: 0.8, 4: -0.3}, adjoint_L=1.0)
        s = (0.1, -0.2)
        got = hecke_divisor_sum(4, s, (rec, None))
        expect = (
            1.0 * 1**0.1 * 4**-0.2
            + 0.8 * 2**0.1 * 2**-0.2
            + (-0.3) * 4**0.1 * 1**-0.2
        )
        assert got == pytest.approx(expect, rel=1e-12)

    def test_missing_eigenvalue_names_record(self):
        rec = MaassFormRecord(r=2.0, hecke={1: 1.0, 2: 0.8}, adjoint_L=1.0, source="probe")
        with pytest.raises(ValueError, match="probe"):
            hecke_divisor_sum(3, (0.1, -0.2), (rec, None))

    def test_balance_enforced(self):
        with pytest.raises(ValueError):
            hecke_divisor_sum(2, (0.5, -0.4), (None, None))

    def test_slot_count_must_match_exponents(self):
        with pytest.raises(ValueError, match="one spectral slot per exponent"):
            hecke_divisor_sum(2, (0.5, -0.5), (None,))

    def test_non_integer_m_rejected(self):
        # 6.5 has no divisor pair, so the sum used to come back as 0j
        with pytest.raises(ValueError, match="positive integer"):
            hecke_divisor_sum(6.5, (0.1, -0.1), (None, None))
        assert hecke_divisor_sum(np.int64(6), (0.1, -0.1), (None, None)) == pytest.approx(
            hecke_divisor_sum(6, (0.1, -0.1), (None, None)), rel=1e-15
        )


class TestCuspidalSum:
    PARAMS = TestFunctionParams(T=10.0, R=1)

    def test_diagonal_ratio_exact(self):
        forms = random_sign_fixture(self.PARAMS, count=12, seed=3)
        out = cuspidal_sum(forms, self.PARAMS, 2, 2)
        assert out.ratio == 1.0
        assert out.diagonal == out.off_diagonal

    def test_single_record_gives_sign_product(self):
        forms = random_sign_fixture(self.PARAMS, count=1, seed=5)
        out = cuspidal_sum(forms, self.PARAMS, 2, 3)
        product = forms[0].hecke[2] * forms[0].hecke[3]
        assert out.ratio == pytest.approx(product, abs=1e-12)

    def test_random_sign_cancellation(self):
        forms = random_sign_fixture(self.PARAMS, count=50, seed=0)
        out = cuspidal_sum(forms, self.PARAMS, 2, 3)
        assert abs(out.ratio) <= 3 / math.sqrt(50)

    def test_scale_free(self):
        forms = random_sign_fixture(self.PARAMS, count=20, seed=1)
        scaled = [
            MaassFormRecord(r=f.r, hecke=f.hecke, adjoint_L=f.adjoint_L * 7.3, source=f.source)
            for f in forms
        ]
        r0 = cuspidal_sum(forms, self.PARAMS, 2, 3).ratio
        r1 = cuspidal_sum(scaled, self.PARAMS, 2, 3).ratio
        assert r1 == pytest.approx(r0, abs=1e-12)

    def test_gaussian_truncation_drops_far_records(self):
        forms = random_sign_fixture(self.PARAMS, count=10, seed=2)
        far = MaassFormRecord(
            r=100 * self.PARAMS.T, hecke={1: 1.0, 2: 1.0, 3: 1.0}, adjoint_L=1.0
        )
        with_far = cuspidal_sum([*forms, far], self.PARAMS, 2, 3)
        without = cuspidal_sum(forms, self.PARAMS, 2, 3)
        assert with_far.ratio == without.ratio

    def test_all_truncated_is_an_error(self):
        far = MaassFormRecord(
            r=100 * self.PARAMS.T, hecke={1: 1.0, 2: 1.0, 3: 1.0}, adjoint_L=1.0
        )
        with pytest.raises(ValueError, match="truncation"):
            cuspidal_sum([far], self.PARAMS, 2, 3)

    def test_missing_hecke_names_record(self):
        rec = MaassFormRecord(r=5.0, hecke={1: 1.0, 2: 0.5}, adjoint_L=1.0, source="thin")
        with pytest.raises(ValueError, match="thin"):
            cuspidal_sum([rec], self.PARAMS, 2, 3)

    def test_empty_forms(self):
        with pytest.raises(ValueError):
            cuspidal_sum([], self.PARAMS, 2, 3)

    def test_vanishing_diagonal_is_an_error(self):
        # lambda(2) = 0 on every record: S(2, 2) = 0, so no ratio exists
        rec = MaassFormRecord(r=5.0, hecke={2: 0.0, 3: 0.5}, adjoint_L=1.0)
        with pytest.raises(ValueError, match=r"diagonal sum vanishes: no record has lambda\(2\)"):
            cuspidal_sum([rec], self.PARAMS, 2, 2)
        with pytest.raises(ValueError, match="diagonal normalizer vanishes"):
            cuspidal_sum([rec], self.PARAMS, 2, 3)


class TestMaassRecords:
    def test_lambda_one_enforced(self):
        with pytest.raises(ValueError):
            MaassFormRecord(r=1.0, hecke={1: 0.9}, adjoint_L=1.0)
        rec = MaassFormRecord(r=1.0, hecke={2: 0.5}, adjoint_L=1.0)
        assert rec.hecke[1] == 1.0

    def test_alpha_is_tempered_pair(self):
        rec = MaassFormRecord(r=9.5337, hecke={}, adjoint_L=1.23)
        assert rec.alpha == (9.5337j, -9.5337j)

    def test_adjoint_positive(self):
        with pytest.raises(ValueError):
            MaassFormRecord(r=1.0, hecke={}, adjoint_L=0.0)

    def test_non_integer_index_rejected(self):
        # 2.7 used to be stored as lambda(2)
        with pytest.raises(ValueError, match="positive integers"):
            MaassFormRecord(r=1.0, hecke={2.7: 0.5}, adjoint_L=1.0)
        rec = MaassFormRecord(r=1.0, hecke={np.int64(2): 0.5, 3.0: 0.25}, adjoint_L=1.0)
        assert rec.hecke == {1: 1.0, 2: 0.5, 3: 0.25}
        assert all(type(k) is int for k in rec.hecke)

    def test_multiplicativity_messages(self):
        rec = MaassFormRecord(
            r=1.0, hecke={2: 0.5, 3: 0.5, 6: 0.9}, adjoint_L=1.0, source="chk"
        )
        msgs = rec.multiplicativity_warnings()
        assert len(msgs) == 1 and "lambda(2)*lambda(3)" in msgs[0]
        clean = MaassFormRecord(r=1.0, hecke={2: 0.5, 3: 0.5, 6: 0.25}, adjoint_L=1.0)
        assert clean.multiplicativity_warnings() == []


class TestIngest:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        assert ingest_maass_csv(p) == []

    def test_round_trip(self, tmp_path):
        p = tmp_path / "forms.csv"
        p.write_text("r,lambda_2,lambda_3,adjoint_L\n9.5337,1.0,0.5,1.23\n13.78,-0.7,0.2,0.98\n")
        recs = ingest_maass_csv(p)
        assert len(recs) == 2
        assert recs[0].r == 9.5337
        assert recs[0].hecke == {1: 1.0, 2: 1.0, 3: 0.5}
        assert recs[0].adjoint_L == 1.23
        assert recs[0].source == str(p)

    def test_leading_comment_lines_skipped(self, tmp_path):
        p = tmp_path / "forms.csv"
        p.write_text('# source: hand-typed,"one row\nr,lambda_2,adjoint_L\n9.5,0.5,1.2\n')
        (rec,) = ingest_maass_csv(p)
        assert rec.r == 9.5 and rec.hecke == {1: 1.0, 2: 0.5}
        # line numbers still count the comment
        p.write_text("# source: x\nr,lambda_2,adjoint_L\n1.0,0.5,1.0\n2.0,xyz,1.0\n")
        with pytest.raises(CsvFormatError, match="line 4"):
            ingest_maass_csv(p)

    def test_parse_error_carries_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("r,lambda_2,adjoint_L\n1.0,0.5,1.0\n2.0,xyz,1.0\n")
        with pytest.raises(CsvFormatError, match="line 3"):
            ingest_maass_csv(p)

    def test_field_count_mismatch(self, tmp_path):
        p = tmp_path / "short.csv"
        p.write_text("r,lambda_2,lambda_3,adjoint_L\n1.0,0.5,1.0\n")
        with pytest.raises(CsvFormatError, match="line 2"):
            ingest_maass_csv(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "hdr.csv"
        p.write_text("spectral,lambda_2,adjoint_L\n1.0,0.5,1.0\n")
        with pytest.raises(CsvFormatError, match="line 1"):
            ingest_maass_csv(p)
        p.write_text("r,lambda_2,lambda_5,adjoint_L\n1.0,0.5,0.2,1.0\n")
        with pytest.raises(CsvFormatError, match="consecutive"):
            ingest_maass_csv(p)

    def test_explicit_lambda_one_column(self, tmp_path):
        p = tmp_path / "lam1.csv"
        p.write_text("r,lambda_1,lambda_2,adjoint_L\n1.0,1.0,0.5,1.0\n")
        assert ingest_maass_csv(p)[0].hecke == {1: 1.0, 2: 0.5}
        p.write_text("r,lambda_1,lambda_2,adjoint_L\n1.0,0.9,0.5,1.0\n")
        with pytest.raises(CsvFormatError, match="lambda_1"):
            ingest_maass_csv(p)

    def test_unexpected_column_names_it(self, tmp_path):
        p = tmp_path / "mu.csv"
        p.write_text("r,mu_2,adjoint_L\n1.0,0.5,1.0\n")
        with pytest.raises(CsvFormatError, match="line 1: unexpected column 'mu_2'"):
            ingest_maass_csv(p)

    def test_nonpositive_adjoint(self, tmp_path):
        p = tmp_path / "adj.csv"
        p.write_text("r,lambda_2,adjoint_L\n1.0,0.5,-1.0\n")
        with pytest.raises(CsvFormatError, match="line 2"):
            ingest_maass_csv(p)

    def test_multiplicativity_warning_on_ingest(self, tmp_path):
        p = tmp_path / "mult.csv"
        p.write_text(
            "r,lambda_2,lambda_3,lambda_4,lambda_5,lambda_6,adjoint_L\n"
            "1.0,0.5,0.5,0.25,0.1,0.9,1.0\n"
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            recs = ingest_maass_csv(p)
        assert len(recs) == 1
        hits = [w for w in caught if issubclass(w.category, HeckeConsistencyWarning)]
        assert len(hits) == 1
