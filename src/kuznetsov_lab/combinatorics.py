"""Exact combinatorics of compositions and block Weyl elements.

Compositions (n_1,...,n_r) of n index the relevant Weyl elements and the
residue terms of the shifted contour expansion.  Everything in this module is
exact integer / rational arithmetic; floating point never enters.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence


@dataclass(frozen=True)
class Composition:
    """Ordered tuple of positive integers (n_1,...,n_r) summing to n."""

    parts: tuple[int, ...]
    n: int = field(init=False)
    r: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", require_integer(tuple(self.parts), "parts", positive=True))
        object.__setattr__(self, "n", sum(self.parts))
        object.__setattr__(self, "r", len(self.parts))

    @property
    def partial_sums(self) -> tuple[int, ...]:
        """(n-hat_1, ..., n-hat_r) with n-hat_r = n."""
        return tuple(itertools.accumulate(self.parts))


def enumerate_compositions(n: int, min_length: int = 1) -> list[Composition]:
    """All ordered compositions of n with at least min_length parts, in
    lexicographic order of the parts tuple."""
    n = require_integer(n, "n", positive=True)
    return [Composition(parts) for parts in _part_tuples(n) if len(parts) >= min_length]


def _part_tuples(n: int):
    """The part tuples of the compositions of n, in lexicographic order:
    from (1, ..., 1), each next one raises the second-to-last part by one
    and spreads the last part, less one, into ones, up to (n,)."""
    parts = (1,) * n
    yield parts
    while len(parts) > 1:
        parts = parts[:-2] + (parts[-2] + 1,) + (1,) * (parts[-1] - 1)
        yield parts


def admissible_compositions(a: Sequence[float]) -> list[Composition]:
    """Compositions of n = len(a)+1 with r >= 2 whose interior partial sums
    n-hat_i all land on strictly positive shift entries a_{n-hat_i}.

    Only these compositions contribute residue terms when the Mellin contour
    is moved from Re(s) = b > 0 to Re(s) = -a.
    """
    n = len(a) + 1
    keep = []
    for comp in enumerate_compositions(n, min_length=2):
        if all(a[k - 1] > 0 for k in comp.partial_sums[:-1]):
            keep.append(comp)
    return keep


def degree_D(n: int) -> int:
    """Degree count D(n) for the pair polynomial, via its two closed forms.

    The sum over subset sizes and the central-binomial form must agree; both
    are computed and cross-checked on every call.
    """
    n = require_integer(n, "n")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    by_sum = sum(
        math.comb(n, j) * (math.comb(n, j) - 1) // 2 for j in range(1, n - 1)
    )
    by_binom = math.comb(2 * n, n) // 2 - n * (n - 1) // 2 - 2 ** (n - 1)
    if by_sum != by_binom:
        raise AssertionError(f"D({n}) closed forms disagree: {by_sum} != {by_binom}")
    return by_sum


def phi(comp: Composition) -> Fraction:
    """The exponent functional Phi(n_1,...,n_r) = (1/2) sum_k (n_k+n_{k+1})
    (n - n-hat_k) n-hat_k, as an exact rational.

    Half-integer values occur (e.g. (1,2,1) has a 9/2 contribution), so the
    result is a Fraction: the integer sum over 2.
    """
    if comp.r < 2:
        raise ValueError("phi needs r >= 2")
    n, parts, nhat = comp.n, comp.parts, comp.partial_sums
    return Fraction(
        sum((parts[k] + parts[k + 1]) * (n - nhat[k]) * nhat[k] for k in range(comp.r - 1)), 2
    )


def kappa(comp: Composition) -> int:
    """Orbit constant kappa(C) = n! / (n_1! ... n_{r-1}!).

    Note the last part is absent from the denominator; see kappa_orbit for the
    brute-force orbit count, which divides by n_r! as well.  The two agree
    exactly when n_r = 1.
    """
    if comp.r < 2:
        raise ValueError("kappa needs r >= 2")
    denom = math.prod(math.factorial(p) for p in comp.parts[:-1])
    return math.factorial(comp.n) // denom


def kappa_orbit(comp: Composition) -> int:
    """Brute-force size of the S_n orbit of the interior partial-sum tuple.

    For generic parameters (injective subset sums) two orderings of the
    parameters give the same tuple of partial sums iff they put the same
    indices in each block, so the orbit is that of the block labelling: the
    distinct rearrangements of the word with n_i copies of label i, which
    number n! / (n_1! ... n_r!).  Counted by enumeration; feasible for n <= 8.
    """
    if comp.r < 2:
        raise ValueError("kappa_orbit needs r >= 2")
    if comp.n > 8:
        raise ValueError("orbit enumeration is exponential; use n <= 8")
    labels = [i for i, p in enumerate(comp.parts) for _ in range(p)]
    return len(set(itertools.permutations(labels)))


def verify_partition_identities(n_max: int) -> dict:
    """Exhaustively check the two exact composition identities for n <= n_max.

    For C = (n_1,...,n_r) of n:
      (i)  sum_{k<k'} n_k n_{k'} + sum_k n_k(n_k-1)/2             = n(n-1)/2
      (ii) n^2 + sum_l ( n_l(n_l-1)/2 - n_l n-hat_l )             = n(n-1)/2

    Returns {"passed": bool, "checked": int, "first_counterexample": ...}.
    """
    n_max = require_integer(n_max, "n_max")
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    checked = 0
    for n in range(2, n_max + 1):
        target = n * (n - 1) // 2
        for parts in _part_tuples(n):
            cross = sum(itertools.starmap(operator.mul, itertools.combinations(parts, 2)))
            within = sum(p * (p - 1) // 2 for p in parts)
            lhs2 = n * n + sum(
                p * (p - 1) // 2 - p * h for p, h in zip(parts, itertools.accumulate(parts))
            )
            checked += 1
            if cross + within != target or lhs2 != target:
                return {
                    "passed": False,
                    "checked": checked,
                    "first_counterexample": parts,
                }
    return {"passed": True, "checked": checked, "first_counterexample": None}


def require_integer(value, name: str, positive: bool = False):
    """``value`` as an int, or a nonempty tuple or list as a tuple of ints;
    ValueError unless every entry is integral (numpy integers and floats such
    as 10.0 pass; NaN, infinities, 2.5 and strings do not) and, with
    ``positive``, at least 1."""
    many = isinstance(value, (tuple, list))
    entries = tuple(value) if many else (value,)
    # plain ints (every Composition's parts) are decided in one pass
    if entries and set(map(type, entries)) == {int} and (not positive or min(entries) >= 1):
        return entries if many else value
    if not entries or not all(
        (type(v) is int or isinstance(v, numbers.Real) and math.isfinite(v) and v == int(v)) and (v >= 1 or not positive)
        for v in entries
    ):
        kind = "positive integer" if positive else "integer"
        kind = f"{kind}s" if many else ("a " if positive else "an ") + kind
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return tuple(map(int, entries)) if many else int(value)


def require_half_integer(rho) -> Fraction:
    """rho as an exact Fraction of denominator 2: 1.5 passes; 1.4, "1/0"
    and infinities raise ValueError."""
    try:
        rho_f = Fraction(rho)
    except (ZeroDivisionError, OverflowError):
        rho_f = None
    if rho_f is None or rho_f.denominator != 2:
        raise ValueError(f"rho must be a half-integer, got {rho}")
    return rho_f


def exponent_vector_a(n: int, rho: Fraction) -> list[Fraction]:
    """The canonical shift a_k = rho + k(n-k)/2, k = 1..n-1 (exact)."""
    n, rho = require_integer(n, "n"), Fraction(rho)
    return [rho + Fraction(k * (n - k), 2) for k in range(1, n)]


def count_nonintegral_exponents(comp: Composition, rho: Fraction) -> int:
    """Count the non-integral entries among the canonical a_k and the block
    exponents b_{i,j} = a_{n-hat_{i-1}} - a_{n-hat_{i-1}+j} + a_{n-hat_i}.

    The b-count runs over 1 <= i <= r, 1 <= j <= n_i with the boundary pair
    (i,j) = (r, n_r) excluded: that entry merely duplicates a_{n-hat_{r-1}},
    which is already counted among the a_k, and only n-1 of the b's are honest
    components.  (For odd n and r=2 the total must be n-1, which pins this
    convention down.)

    The count equals even_odd_exact_form for every composition.  The simpler
    even_odd_closed_form matches it for all odd n but overcounts some even-n
    compositions: a middle block of odd size sitting at an odd partial sum
    contributes floor(n_i/2), not ceil(n_i/2).  First divergence at n=4,
    C=(1,1,2): b_{2,1} = a_1 is an integer for every half-integer rho, so the
    middle block contributes 0 where the simple form claims 1.
    """
    # an entry is non-integral iff twice it, an integer, is odd
    n = comp.n
    two_rho = require_half_integer(rho).numerator
    a2 = [0] + [two_rho + k * (n - k) for k in range(1, n)] + [0]  # 2 a[0..n]
    count = sum(x % 2 for x in a2)
    nhat = (0,) + comp.partial_sums
    for lo, hi in zip(nhat, nhat[1:]):
        # q = n-hat_{i-1} + j, stopping short of the excluded q = n
        count += sum((a2[lo] - a2[q] + a2[hi]) % 2 for q in range(lo + 1, min(hi + 1, n)))
    return count


def even_odd_closed_form(comp: Composition) -> int:
    """Simple closed form for the nonintegral-exponent count (rho-free).

    Odd n: 2n - n_1 - n_r - 1.  Even n: n/2 - 1 + floor(n_1/2) + floor(n_r/2)
    + sum over middle blocks of ceil(n_i/2).  Exact for odd n.  For even n it
    overcounts by exactly one per odd-sized middle block that starts at an
    odd partial sum n-hat_{i-1}, where even_odd_exact_form takes floor(n_i/2)
    in place of ceil(n_i/2); first at n = 4, C = (1, 1, 2), which has 2
    non-integral exponents for every half-integer rho where this form gives 3.
    """
    n, parts, r = comp.n, comp.parts, comp.r
    if n % 2 == 1:
        return 2 * n - parts[0] - parts[-1] - 1
    middle = sum(-(-parts[i] // 2) for i in range(1, r - 1))  # ceil
    return n // 2 - 1 + parts[0] // 2 + parts[-1] // 2 + middle


def even_odd_exact_form(comp: Composition) -> int:
    """Cut-parity-aware closed form; agrees with count_nonintegral_exponents
    for every composition and every half-integer rho.

    Same as even_odd_closed_form except that for even n an odd-sized middle
    block contributes ceil(n_i/2) when its starting partial sum n-hat_{i-1}
    is even but floor(n_i/2) when it is odd (the parity of k+j, not j alone,
    decides integrality of b_{i,j}).
    """
    n, parts, r = comp.n, comp.parts, comp.r
    if n % 2 == 1:
        return 2 * n - parts[0] - parts[-1] - 1
    nhat = (0,) + comp.partial_sums
    middle = 0
    for i in range(1, r - 1):
        p = parts[i]
        if p % 2 == 0 or nhat[i] % 2 == 0:
            middle += -(-p // 2)  # ceil
        else:
            middle += p // 2
    return n // 2 - 1 + parts[0] // 2 + parts[-1] // 2 + middle
