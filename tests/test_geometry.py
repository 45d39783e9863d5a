"""Iwasawa coordinates, Weyl conjugation, modular characters."""

import numpy as np
import pytest

from kuznetsov_lab.combinatorics import Composition, enumerate_compositions, exponent_vector_a
from kuznetsov_lab.geometry import (
    DecompositionError,
    IwasawaPoint,
    WeylElement,
    delta_w,
    delta_w_identity_residual,
    iwasawa_decompose,
    modular_delta,
    modular_delta_diag,
    toric_matrix,
    weyl_conjugate_y,
    weyl_conjugate_y_oracle,
    weyl_norm_exponents,
    xi_polynomials_long_gl4,
    xi_values,
)


def _relevant_weyls(n):
    return [
        WeylElement(c) for c in enumerate_compositions(n, min_length=2)
    ]


def _random_unipotent(rng, n, pattern=None):
    u = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            if pattern is None or (i, j) in pattern:
                u[i, j] = rng.uniform(-2, 2)
    return u


def test_toric_matrix_shape():
    t = toric_matrix([2.0, 3.0, 5.0])
    assert np.allclose(np.diag(t), [30.0, 6.0, 2.0, 1.0])
    with pytest.raises(ValueError):
        toric_matrix([1.0, -1.0])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            toric_matrix([1.0, bad])


def test_iwasawa_identity_and_diagonal():
    p, k, c = iwasawa_decompose(np.eye(4))
    assert np.allclose(p.x, 0)
    assert np.allclose(p.y, 1)
    assert np.allclose(k, np.eye(4))
    assert abs(c - 1) < 1e-15
    a = np.array([2.0, 0.5, 3.0])
    p, k, c = iwasawa_decompose(toric_matrix(a))
    assert np.allclose(p.y, a, rtol=1e-14)
    assert np.allclose(k, np.eye(4))
    assert abs(c - 1) < 1e-14


def test_iwasawa_round_trip():
    rng = np.random.default_rng(101)
    for n in range(2, 7):
        for _ in range(40):
            g = rng.normal(size=(n, n))
            p, k, c = iwasawa_decompose(g)
            recon = p.matrix() @ k * c
            assert np.linalg.norm(recon - g) <= 1e-12 * np.linalg.norm(g)
            assert np.allclose(k @ k.T, np.eye(n), atol=1e-12)
            assert c > 0


def test_iwasawa_k_stays_orthogonal_when_g_is_ill_conditioned():
    # Householder QR keeps k orthogonal to rounding whatever the conditioning
    rng = np.random.default_rng(107)
    for n in range(3, 7):
        u, _ = np.linalg.qr(rng.normal(size=(n, n)))
        v, _ = np.linalg.qr(rng.normal(size=(n, n)))
        g = u @ np.diag(np.logspace(0, -8, n)) @ v
        p, k, c = iwasawa_decompose(g)
        assert np.abs(k @ k.T - np.eye(n)).max() < 1e-13
        assert np.linalg.norm(p.matrix() @ k * c - g) <= 1e-13 * np.linalg.norm(g)


def test_iwasawa_singular():
    g = np.ones((3, 3))
    with pytest.raises(DecompositionError):
        iwasawa_decompose(g)
    for bad in (np.nan, np.inf):
        g = np.eye(3)
        g[0, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            iwasawa_decompose(g)


def test_weyl_matrix_blocks():
    w = WeylElement(Composition((1, 1)))
    assert np.allclose(w.matrix(), [[0, 1], [1, 0]])
    w22 = WeylElement(Composition((2, 2)))
    m = w22.matrix()
    assert np.allclose(m[2:, :2], np.eye(2))  # I_{n_1} bottom-left
    assert np.allclose(m[:2, 2:], np.eye(2))  # I_{n_2} top-right
    long = WeylElement(Composition((1, 1, 1, 1)))
    assert np.allclose(long.matrix(), np.fliplr(np.eye(4)))
    # permutation matrices are orthogonal
    for n in range(2, 6):
        for w in _relevant_weyls(n):
            m = w.matrix()
            assert np.allclose(m @ m.T, np.eye(n))


def test_inversion_pattern():
    # long element: every pair inverts
    long = WeylElement(Composition((1, 1, 1)))
    assert len(long.inversion_pairs()) == 3
    # w_(2,1) on n=3: sigma = (1, 2, 0)
    w = WeylElement(Composition((2, 1)))
    assert w.permutation() == (1, 2, 0)
    assert w.inversion_pairs() == [(0, 2), (1, 2)]


def test_weyl_conjugate_y_gl2():
    w = WeylElement(Composition((1, 1)))
    out = weyl_conjugate_y(w, [3.0])
    assert np.allclose(out, [1 / 3.0])
    with pytest.raises(ValueError):
        weyl_conjugate_y(WeylElement(Composition((2,))), [3.0])


def test_weyl_conjugate_y_matches_matrix_oracle():
    rng = np.random.default_rng(31)
    for n in range(2, 7):
        ys = rng.uniform(0.2, 5.0, size=(5, n - 1))
        for w in _relevant_weyls(n):
            for y in ys:
                closed = weyl_conjugate_y(w, y)
                oracle = weyl_conjugate_y_oracle(w, y)
                assert np.allclose(closed, oracle, rtol=1e-12), w.composition


def test_weyl_norm_exponent_formula():
    rng = np.random.default_rng(37)
    for n in range(2, 7):
        a = rng.uniform(-2, 2, size=n - 1)
        y = rng.uniform(0.3, 4.0, size=n - 1)
        for w in _relevant_weyls(n):
            yprime = weyl_conjugate_y(w, y)
            direct = np.prod(yprime**a)
            via_exponents = np.prod(y**weyl_norm_exponents(w, a))
            assert abs(direct - via_exponents) < 1e-12 * abs(direct)


def test_modular_delta_examples():
    assert modular_delta([1.0, 1.0, 1.0]) == 1.0
    # n=2: delta^(-1/2)(y) = y^(1/2)
    assert abs(modular_delta([4.0]) ** -0.5 - 2.0) < 1e-14
    rng = np.random.default_rng(41)
    for n in range(2, 7):
        a = [float(f) for f in exponent_vector_a(n, 0)]
        for _ in range(10):
            y = rng.uniform(0.2, 5.0, size=n - 1)
            lhs = modular_delta(y) ** -0.5
            rhs = np.prod(y**a)
            assert abs(lhs - rhs) < 1e-12 * abs(lhs)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_iwasawa_point_rejects_nonfinite_y(bad):
    with pytest.raises(ValueError, match="finite"):
        IwasawaPoint(x=np.zeros((2, 2)), y=[bad])


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_modular_delta_diag_rejects_nonfinite_entries(bad):
    with pytest.raises(ValueError, match="finite"):
        modular_delta_diag([1.0, bad])


def test_delta_w_identity():
    rng = np.random.default_rng(43)
    for n in range(2, 7):
        for w in _relevant_weyls(n):
            for _ in range(5):
                y = rng.uniform(0.3, 4.0, size=n - 1)
                assert delta_w_identity_residual(w, y) < 1e-12, w.composition


def test_delta_w_long_element_value():
    # for the long element the pattern is all pairs and delta_w = delta
    rng = np.random.default_rng(47)
    for n in (2, 3, 4):
        w = WeylElement(Composition((1,) * n))
        y = rng.uniform(0.5, 2.0, size=n - 1)
        d = np.diag(toric_matrix(y))
        expect = np.prod([d[i] / d[j] for i in range(n) for j in range(i + 1, n)])
        assert abs(delta_w(w, y) - expect) < 1e-12 * abs(expect)


def test_xi_trivial_and_pattern_check():
    w = WeylElement(Composition((1, 1, 1, 1)))
    assert np.allclose(xi_values(w, np.eye(4)), 1.0)
    w21 = WeylElement(Composition((2, 1)))
    u = np.eye(3)
    u[0, 1] = 0.5  # (0,1) is not an inversion of w_(2,1)
    with pytest.raises(ValueError):
        xi_values(w21, u)


def test_xi_gl4_long_element_polynomials():
    rng = np.random.default_rng(53)
    w = WeylElement(Composition((1, 1, 1, 1)))
    for _ in range(25):
        u = _random_unipotent(rng, 4)
        xi = xi_values(w, u)
        expect = xi_polynomials_long_gl4(u)
        assert np.allclose(xi, expect, rtol=1e-10)
    # dyadic spot values expanded by hand, exact in floats
    u = np.eye(4)
    u[0, 1], u[0, 2], u[0, 3] = 0.5, -1.0, 2.0
    u[1, 2], u[1, 3] = 0.25, -0.5
    u[2, 3] = 3.0
    assert tuple(xi_polynomials_long_gl4(u)) == (6.25, 7.640625, 43.203125)
    assert np.allclose(xi_values(w, u), (6.25, 7.640625, 43.203125), rtol=1e-12)


def test_xi_at_least_one():
    rng = np.random.default_rng(59)
    for n in (3, 4, 5):
        for w in _relevant_weyls(n):
            pattern = set(w.inversion_pairs())
            for _ in range(5):
                u = _random_unipotent(rng, n, pattern)
                xi = xi_values(w, u)
                assert np.all(xi >= 1 - 1e-12), (w.composition, xi)
