import numpy as np
import pytest

from funquant import (
    ConfigError,
    ShapeError,
    SubspaceSplit,
    make_basis,
    random_orthogonal,
    write_curve_csv,
)
from funquant.basis import FOURIER, SYNTHETIC


def test_fourier_d1_is_constant_one():
    basis = make_basis(family=FOURIER, dimension=1)
    np.testing.assert_allclose(basis.to_curve([1.0]), np.ones(4))


def trapezoid_gram(basis):
    """The Gram matrix of the basis functions on the basis grid, by the trapezoid rule."""
    phi = basis.design_matrix()
    f = phi[:, :, None] * phi[:, None, :]
    return (np.diff(basis.grid)[:, None, None] * (f[1:] + f[:-1])).sum(axis=0) / 2.0


def test_fourier_gram_is_identity_on_512_grid():
    grid = np.linspace(0.0, 1.0, 512)
    basis = make_basis(family=FOURIER, dimension=3, grid=grid)
    np.testing.assert_allclose(trapezoid_gram(basis), np.eye(3), atol=1e-6)


@pytest.mark.parametrize("d", [1, 2, 5, 8])
def test_fourier_gram_identity_at_default_grid(d):
    basis = make_basis(family=FOURIER, dimension=d)
    assert basis.grid.size == 4 * d
    np.testing.assert_allclose(trapezoid_gram(basis), np.eye(d), atol=1e-6)


@pytest.mark.parametrize("family", [FOURIER, SYNTHETIC])
def test_to_curve_rejects_wrong_shape(family):
    basis = make_basis(family=family, dimension=3)
    for coeffs in ([1.0, 2.0], [[1.0, 2.0, 3.0]]):
        with pytest.raises(ShapeError):
            basis.to_curve(coeffs)


def test_synthetic_evaluation_is_identity():
    basis = make_basis(family=SYNTHETIC, dimension=5)
    e2 = np.zeros(5)
    e2[1] = 1.0
    np.testing.assert_array_equal(basis.to_curve(e2), e2)
    np.testing.assert_array_equal(basis.design_matrix(), np.eye(5))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"family": "wavelet", "dimension": 3},
        {"family": FOURIER, "dimension": 0},
        {"family": FOURIER, "dimension": 3, "grid": [0.5, 0.4, 0.6]},
        {"family": FOURIER, "dimension": 3, "grid": [0.0, 0.5, 1.2]},
        {"family": FOURIER, "dimension": 3, "grid": [0.0, float("nan"), 1.0]},
    ],
)
def test_invalid_basis_specs_rejected(kwargs):
    with pytest.raises(ConfigError):
        make_basis(**kwargs)


def test_split_canonical_directions_is_truncation_split():
    s = SubspaceSplit(u_basis=np.eye(5)[:2])
    v = np.arange(1.0, 6.0)
    np.testing.assert_array_equal(s.u_basis @ v, v[:2])
    np.testing.assert_array_equal(s.complement @ v, v[2:])


def test_split_norm_decomposition_and_roundtrip():
    rng = np.random.default_rng(11)
    q_mat = random_orthogonal(6, seed=5)
    s = SubspaceSplit(u_basis=q_mat[:2])
    for _ in range(1000):
        v = rng.standard_normal(6)
        w1, w2 = s.u_basis @ v, s.complement @ v
        assert abs(np.sum(w1**2) + np.sum(w2**2) - np.sum(v**2)) < 1e-10
        np.testing.assert_allclose(s.u_basis.T @ w1 + s.complement.T @ w2, v, atol=1e-10)


def test_split_rejects_non_orthonormal_rows():
    with pytest.raises(ShapeError):
        SubspaceSplit(u_basis=np.array([[1.0, 1.0, 0.0]]))


def test_random_orthogonal_properties():
    assert random_orthogonal(1, seed=0).shape == (1, 1)
    assert abs(abs(random_orthogonal(1, seed=0)[0, 0]) - 1.0) < 1e-12

    q = random_orthogonal(4, seed=42)
    np.testing.assert_allclose(q.T @ q, np.eye(4), atol=1e-10)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(4)
    assert abs(np.linalg.norm(q @ x) - np.linalg.norm(x)) < 1e-10

    np.testing.assert_array_equal(q, random_orthogonal(4, seed=42))
    assert not np.array_equal(q, random_orthogonal(4, seed=43))


def test_curve_csv_format(tmp_path):
    basis = make_basis(family=FOURIER, dimension=3, grid=np.linspace(0, 1, 17))
    path = tmp_path / "curve.csv"
    write_curve_csv(path, basis, [1.0, 0.5, -0.25])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,value"
    assert len(lines) == 18
    t, value = map(float, lines[1].split(","))
    assert t == 0.0
    assert value == pytest.approx(1.0 + 0.5 * np.sqrt(2.0), rel=1e-11)


def test_synthetic_curve_csv_lists_coordinates(tmp_path):
    coeffs = [1.0, -0.5, 0.25, 0.0]
    path = tmp_path / "curve.csv"
    write_curve_csv(path, make_basis(family=SYNTHETIC, dimension=4), coeffs)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,value"
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
    assert rows == [(float(i), c) for i, c in enumerate(coeffs)]
