import itertools
import math
from fractions import Fraction

import pytest

from kuznetsov_lab import combinatorics
from kuznetsov_lab.combinatorics import (
    Composition,
    admissible_compositions,
    count_nonintegral_exponents,
    degree_D,
    enumerate_compositions,
    even_odd_closed_form,
    even_odd_exact_form,
    exponent_vector_a,
    kappa,
    kappa_orbit,
    phi,
    verify_partition_identities,
)

# Frozen expected values, each re-derivable by hand from the defining sums.
DEGREE_TABLE = {2: 0, 3: 3, 4: 21, 5: 100}


def test_degree_table():
    for n, expected in DEGREE_TABLE.items():
        assert degree_D(n) == expected


def test_degree_dual_forms_agree_up_to_12():
    # degree_D raises internally if the two closed forms split; also recompute
    # the binomial form here so the test does not trust the implementation.
    for n in range(2, 13):
        value = degree_D(n)
        independent = math.comb(2 * n, n) // 2 - n * (n - 1) // 2 - 2 ** (n - 1)
        assert value == independent


def test_degree_domain_error():
    with pytest.raises(ValueError):
        degree_D(1)


def test_enumerate_small_cases():
    assert [c.parts for c in enumerate_compositions(2, 2)] == [(1, 1)]
    got = {c.parts for c in enumerate_compositions(3, 2)}
    assert got == {(1, 2), (2, 1), (1, 1, 1)}
    assert len(enumerate_compositions(4, 2)) == 7


def test_enumerate_lex_order_and_counts():
    for n in range(1, 13):
        for min_length in (1, 2):
            comps = enumerate_compositions(n, min_length)
            assert len(comps) == 2 ** (n - 1) - (min_length - 1)
            parts = [c.parts for c in comps]
            assert parts == sorted(parts)
            assert len(set(parts)) == len(parts)


def test_enumerate_domain_error():
    with pytest.raises(ValueError):
        enumerate_compositions(0, 1)


def test_admissible_filter():
    got = {c.parts for c in admissible_compositions([1.0, -1.0, 1.0])}
    assert got == {(1, 3), (3, 1), (1, 2, 1)}
    assert len(admissible_compositions([1.0, 1.0, 1.0])) == 7
    assert admissible_compositions([-1.0, -1.0]) == []


def test_phi_values():
    assert phi(Composition((1, 3))) == 6
    assert phi(Composition((3, 1))) == 6
    assert phi(Composition((2, 2))) == 8
    assert phi(Composition((1, 1, 2))) == 9
    assert phi(Composition((1, 2, 1))) == 9


def test_phi_permutation_invariance_small():
    import itertools

    for n in range(2, 7):
        for comp in enumerate_compositions(n, 2):
            base = phi(comp)
            for perm in itertools.permutations(comp.parts):
                assert phi(Composition(perm)) == base


def test_phi_minimum_small():
    for n in range(2, 7):
        values = [phi(c) for c in enumerate_compositions(n, 2)]
        assert min(values) == Fraction(n * (n - 1), 2)
        assert phi(Composition((1, n - 1))) == Fraction(n * (n - 1), 2)


def test_phi_refinement_rule():
    # Splitting one part n_k = p + q raises Phi by exactly n_k * p * q / 2.
    cases = [
        ((4,), 0, 1, 3),
        ((2, 3), 1, 1, 2),
        ((3, 1, 2), 0, 2, 1),
        ((2, 2, 2), 2, 1, 1),
    ]
    for parts, k, p, q in cases:
        assert parts[k] == p + q
        refined = parts[:k] + (p, q) + parts[k + 1 :]
        if len(parts) >= 2:
            base = phi(Composition(parts))
        else:
            # r=1 has no Phi; compare against the two-part refinement directly
            base = Fraction(0)
        gain = Fraction(parts[k] * p * q, 2)
        if len(parts) >= 2:
            assert phi(Composition(refined)) - base == gain


def test_kappa_factorial_formula():
    assert kappa(Composition((1, 3))) == 24
    assert kappa(Composition((2, 2))) == 12
    assert kappa(Composition((1, 1, 2))) == 24
    assert kappa(Composition((1, 1))) == 2


def test_kappa_orbit_is_full_multinomial():
    # The brute-force orbit count always equals n! / prod_i n_i! (all parts),
    # which matches kappa exactly when the last part is 1.
    for n in range(2, 7):
        for comp in enumerate_compositions(n, 2):
            orbit = kappa_orbit(comp)
            multinomial = math.factorial(n) // math.prod(
                math.factorial(p) for p in comp.parts
            )
            assert orbit == multinomial
            if comp.parts[-1] == 1:
                assert orbit == kappa(comp)
            else:
                assert kappa(comp) == orbit * math.factorial(comp.parts[-1])


def test_partition_identities():
    report = verify_partition_identities(8)
    assert report["passed"] is True
    assert report["first_counterexample"] is None
    # r=1 case by hand: composition (4) gives n^2 + (6 - 16) = 6 = n(n-1)/2
    assert 4 * 4 + (4 * 3 // 2 - 4 * 4) == 4 * 3 // 2


def test_part_tuples_are_every_composition_in_lexicographic_order():
    for n in range(1, 11):
        tuples = list(combinatorics._part_tuples(n))
        assert len(set(tuples)) == len(tuples) == 2 ** (n - 1)
        assert tuples == sorted(tuples)
        assert all(sum(t) == n and min(t) >= 1 for t in tuples)


def test_partition_identities_report_the_first_counterexample(monkeypatch):
    # (n, 1) sums to n + 1, so identity (i) fails on it
    real = combinatorics._part_tuples
    monkeypatch.setattr(combinatorics, "_part_tuples", lambda n: itertools.chain(real(n), [(n, 1)]))
    report = verify_partition_identities(8)
    assert report == {"passed": False, "checked": 3, "first_counterexample": (2, 1)}


def test_exponent_vector():
    a = exponent_vector_a(4, Fraction(3, 2))
    assert a == [Fraction(3), Fraction(7, 2), Fraction(3)]


def test_count_nonintegral_hand_cases():
    rho = Fraction(3, 2)
    assert count_nonintegral_exponents(Composition((1, 2)), rho) == 2
    assert count_nonintegral_exponents(Composition((1, 1)), rho) == 0
    assert count_nonintegral_exponents(Composition((2, 2)), rho) == 3


def test_count_nonintegral_matches_exact_form():
    for rho in [Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(5, 2)]:
        for n in range(2, 8):
            for comp in enumerate_compositions(n, 2):
                assert count_nonintegral_exponents(comp, rho) == even_odd_exact_form(
                    comp
                ), (comp.parts, rho)


def test_closed_form_exact_for_odd_n():
    for n in (3, 5, 7):
        for comp in enumerate_compositions(n, 2):
            assert even_odd_closed_form(comp) == even_odd_exact_form(comp)


def test_closed_form_even_n_divergence_is_understood():
    # The simple closed form overcounts exactly when an odd middle block sits
    # at an odd partial sum; first cases at n=4.
    diverging = []
    for n in (2, 4, 6):
        for comp in enumerate_compositions(n, 2):
            simple = even_odd_closed_form(comp)
            exact = even_odd_exact_form(comp)
            assert simple >= exact
            if simple != exact:
                diverging.append(comp.parts)
                nhat = (0,) + comp.partial_sums
                assert any(
                    comp.parts[i] % 2 == 1 and nhat[i] % 2 == 1
                    for i in range(1, comp.r - 1)
                )
    assert (1, 1, 2) in diverging
    assert (2, 2) not in diverging


def test_count_nonintegral_rejects_integer_rho():
    with pytest.raises(ValueError):
        count_nonintegral_exponents(Composition((1, 1)), Fraction(1))


# Exact-rational references for the doubled-integer exponent arithmetic:
# each builds the exponents as Fractions, as the definitions read.
HALF_INTEGER_RHOS = [Fraction(k, 2) for k in (-1, 1, 3, 5, 7)]


def _fraction_count_nonintegral(comp, rho):
    n = comp.n
    a = [Fraction(0)] + [rho + Fraction(k * (n - k), 2) for k in range(1, n)] + [Fraction(0)]
    count = sum(1 for k in range(1, n) if a[k].denominator != 1)
    nhat = (0,) + comp.partial_sums
    for i in range(1, comp.r + 1):
        for j in range(1, comp.parts[i - 1] + 1):
            if (i, j) != (comp.r, comp.parts[-1]):
                count += (a[nhat[i - 1]] - a[nhat[i - 1] + j] + a[nhat[i]]).denominator != 1
    return count


def _fraction_phi(comp):
    n, nhat = comp.n, comp.partial_sums
    total = Fraction(0)
    for k in range(comp.r - 1):
        total += Fraction(comp.parts[k] + comp.parts[k + 1], 2) * (n - nhat[k]) * nhat[k]
    return total


@pytest.mark.parametrize("n", range(1, 11))
def test_doubled_integer_exponents_equal_the_fraction_references(n):
    for comp in enumerate_compositions(n):
        for rho in HALF_INTEGER_RHOS:
            assert count_nonintegral_exponents(comp, rho) == _fraction_count_nonintegral(comp, rho)
        if comp.r >= 2:
            value = phi(comp)
            assert type(value) is Fraction and value == _fraction_phi(comp), comp.parts
