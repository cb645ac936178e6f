import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schattenmc import sigma_max
from schattenmc.linalg import (
    NumericalError,
    frobenius_norm,
    nuclear_norm,
    singular_values,
    thin_svd,
)

from conftest import low_rank, philox


def svd_invariants(a, f, recon_rtol=1e-8):
    k = min(a.shape)
    assert f.singular_values.shape == (k,)
    assert np.all(np.diff(f.singular_values) <= 0)
    assert np.all(f.singular_values >= 0)
    assert np.abs(f.left.T @ f.left - np.eye(k)).max() < 1e-10
    assert np.abs(f.right.T @ f.right - np.eye(k)).max() < 1e-10
    recon = (f.left * f.singular_values) @ f.right.T
    scale = max(np.linalg.norm(a), 1e-30)
    assert np.linalg.norm(recon - a) / scale < recon_rtol


class TestThinSvd:
    def test_identity(self):
        f = thin_svd(np.eye(3))
        assert np.allclose(f.singular_values, [1.0, 1.0, 1.0])

    def test_diagonal(self):
        a = np.diag([3.0, 1.0])
        f = thin_svd(a)
        assert np.allclose(f.singular_values, [3.0, 1.0])
        assert np.allclose(np.abs(f.left), np.eye(2))
        assert np.allclose(np.abs(f.right), np.eye(2))

    def test_gram_eigenvalue_oracle_8x3(self):
        # independent oracle: roots of the characteristic polynomial of a^T a
        a = philox(101).standard_normal((8, 3))
        f = thin_svd(a)
        svd_invariants(a, f)
        g = a.T @ a
        c2 = -np.trace(g)
        c1 = 0.5 * (np.trace(g) ** 2 - np.trace(g @ g))
        c0 = -np.linalg.det(g)
        roots = np.roots([1.0, c2, c1, c0])
        expected = np.sqrt(np.sort(roots.real)[::-1])
        assert np.allclose(f.singular_values, expected, rtol=1e-8)

    def test_invariants_random_shapes(self):
        rng = philox(77)
        for _ in range(100):
            m = int(rng.integers(1, 51))
            n = int(rng.integers(1, 13))
            a = rng.standard_normal((m, n))
            svd_invariants(a, thin_svd(a))

    def test_rank_deficient(self):
        rng = philox(5)
        a = low_rank(rng, 12, 9, 3)
        f = thin_svd(a)
        svd_invariants(a, f)
        assert np.count_nonzero(singular_values(a)) == 3

    def test_zero_matrix(self):
        f = thin_svd(np.zeros((4, 2)))
        svd_invariants(np.zeros((4, 2)), f)
        assert np.all(f.singular_values == 0.0)

    def test_wide_matrix(self):
        a = philox(9).standard_normal((3, 10))
        svd_invariants(a, thin_svd(a))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            thin_svd(np.array([[1.0, np.nan]]))

    def test_deterministic(self):
        a = philox(33).standard_normal((10, 4))
        f1, f2 = thin_svd(a), thin_svd(a)
        assert np.array_equal(f1.left, f2.left)
        assert np.array_equal(f1.singular_values, f2.singular_values)


class TestSpectralNorm:
    def test_diagonal(self):
        assert sigma_max(np.diag([5.0, 2.0, 1.0])) == pytest.approx(5.0, rel=1e-10)

    def test_zero(self):
        assert sigma_max(np.zeros((4, 4))) == 0.0

    def test_empty(self):
        assert sigma_max(np.zeros((0, 3))) == 0.0
        assert sigma_max(np.zeros((3, 0))) == 0.0

    def test_matches_svd_oracle(self):
        a = philox(11).standard_normal((10, 4))
        top = thin_svd(a).singular_values[0]
        assert sigma_max(a) == pytest.approx(top, rel=1e-9)

    def test_transpose_symmetry(self):
        rng = philox(13)
        for _ in range(20):
            a = rng.standard_normal((int(rng.integers(2, 12)), int(rng.integers(2, 12))))
            assert sigma_max(a) == pytest.approx(sigma_max(a.T), rel=1e-10)

    def test_null_start_recovery(self):
        # rank 1, with the all-ones vector in the null space
        a = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert sigma_max(a) == pytest.approx(2.0, rel=1e-9)


class TestNuclearNorm:
    def test_diagonal(self):
        assert nuclear_norm(np.diag([3.0, 1.0])) == pytest.approx(4.0)

    def test_zero(self):
        assert nuclear_norm(np.zeros((3, 5))) == 0.0

    def test_gram_eigendecomposition_oracle(self):
        a = philox(17).standard_normal((6, 4))
        expected = np.sum(np.sqrt(np.maximum(np.linalg.eigvalsh(a.T @ a), 0.0)))
        assert nuclear_norm(a) == pytest.approx(expected, rel=1e-7)


class TestFrobeniusNorm:
    def test_closed_forms(self):
        assert frobenius_norm(np.diag([3.0, 4.0])) == pytest.approx(5.0)
        assert frobenius_norm(np.zeros((2, 2))) == 0.0
        assert frobenius_norm(np.ones((2, 2))) == pytest.approx(2.0)

    def test_matches_singular_values(self):
        a = philox(19).standard_normal((7, 5))
        s = np.linalg.svd(a, compute_uv=False)
        assert frobenius_norm(a) == pytest.approx(np.sqrt(np.sum(s**2)), rel=1e-10)


class TestNormOrdering:
    def test_frobenius_nuclear_sandwich(self):
        rng = philox(23)
        for _ in range(100):
            r = int(rng.integers(1, 6))
            a = low_rank(rng, 12, 8, r)
            fro = frobenius_norm(a)
            nuc = nuclear_norm(a)
            assert fro <= nuc * (1 + 1e-10)
            assert nuc <= np.sqrt(r) * fro * (1 + 1e-10)


class TestStackConsistency:
    def test_matches_scalar(self):
        rng = philox(29)
        stack = rng.standard_normal((40, 9, 5))
        batch = singular_values(stack)
        nuclear = nuclear_norm(stack)
        assert batch.shape == (40, 5) and nuclear.shape == (40,)
        for i in range(stack.shape[0]):
            assert np.array_equal(batch[i], singular_values(stack[i]))
            assert nuclear[i] == nuclear_norm(stack[i])

    def test_rejects_non_finite_stack(self):
        stack = np.ones((3, 4, 2))
        stack[1, 2, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            singular_values(stack)


@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=12),
    n=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_svd_invariants_property(m, n, seed):
    a = philox(seed).standard_normal((m, n))
    svd_invariants(a, thin_svd(a))


def test_numerical_error_is_runtime_error():
    assert issubclass(NumericalError, RuntimeError)


@pytest.mark.parametrize(
    "call",
    [
        thin_svd,
        singular_values,
        lambda a: singular_values(a[None]),
    ],
    ids=["thin_svd", "singular_values", "singular_values_stack"],
)
def test_lapack_failure_raises_numerical_error(monkeypatch, call):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    with pytest.raises(NumericalError, match="did not converge"):
        call(np.eye(3))
