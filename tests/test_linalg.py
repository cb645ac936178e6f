import math
import numbers
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schattenmc import (
    GrayImage,
    Regularizer,
    SolverConfig,
    SparseObservations,
    corrupt_image,
    frob_prox,
    gen_synthetic,
    psnr,
    run_property_suite,
    sample_mask,
    schatten_quasi_norm,
    sigma_max,
    split_train_test,
    svt_prox,
    trace_power,
)
from schattenmc.linalg import (
    NumericalError,
    _gram_svd,
    frobenius_norm,
    nuclear_norm,
    singular_values,
    thin_svd,
)
from schattenmc.quasinorm import spectrum_quasi_norm

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


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 30),
    n=st.integers(1, 30),
    rank=st.integers(0, 30),
    k=st.integers(0, 30),
    exponent=st.sampled_from([-500, 0, 500]),
    seed=st.integers(0, 2**32 - 1),
)
def test_gram_svd_matches_thin_svd(m, n, rank, k, exponent, seed):
    # singular values 2^e (1, 1/2, 1/4, ...) over `rank` directions, so the
    # leading-k truncation has a gap of half sigma_k and is well defined
    w = min(m, n)
    rank, k = min(rank, w), min(k, w)
    rng = philox(seed)
    left = np.linalg.qr(rng.standard_normal((m, w)))[0][:, :rank]
    right = np.linalg.qr(rng.standard_normal((n, w)))[0][:, :rank]
    a = np.ldexp((left * 0.5 ** np.arange(rank)) @ right.T, exponent)
    f = _gram_svd(a, k)
    want = thin_svd(a)
    assert f.left.shape == (m, k) and f.singular_values.shape == (k,) and f.right.shape == (n, k)
    eps = np.finfo(float).eps
    tol = math.sqrt(w * eps) * want.singular_values[0]
    assert np.all(np.abs(f.singular_values - want.singular_values[:k]) <= tol)
    # the eigh side (the right vectors of a tall block, the left of a wide
    # one) is orthonormal; the other side is a r / s, zero where s = 0
    basis, other = (f.right, f.left) if m >= n else (f.left, f.right)
    assert np.abs(basis.T @ basis - np.eye(k)).max(initial=0.0) <= 8 * w * eps
    assert not other[:, f.singular_values == 0.0].any()
    if rank == 0:
        assert not f.singular_values.any()
    rebuilt = (f.left * f.singular_values) @ f.right.T
    truncation = (want.left[:, :k] * want.singular_values[:k]) @ want.right[:, :k].T
    assert np.linalg.norm(rebuilt - truncation, 2) <= tol


@pytest.mark.parametrize("shape", [(5, 3), (3, 5)], ids=["tall", "wide"])
def test_gram_svd_of_a_zero_block_has_zero_vectors_off_the_eigh_side(shape):
    f = _gram_svd(np.zeros(shape), 3)
    basis, other = (f.right, f.left) if shape[0] >= shape[1] else (f.left, f.right)
    assert np.array_equal(f.singular_values, np.zeros(3))
    assert np.array_equal(other, np.zeros_like(other))
    assert np.abs(basis.T @ basis - np.eye(3)).max() <= 1e-15


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


def test_numpy_scalars_register_with_the_number_tower():
    # _as_count and _as_real read numpy's ints and floats through these ABCs,
    # and reject numpy's bool because it registers as neither
    for kind in (np.int8, np.int64, np.uint32, np.uint64):
        assert issubclass(kind, numbers.Integral), kind
    for kind in (np.float16, np.float32, np.float64, np.longdouble):
        assert issubclass(kind, numbers.Real) and not issubclass(kind, numbers.Integral), kind
    assert not issubclass(np.bool_, numbers.Real)
    assert not issubclass(np.bool_, numbers.Integral)


def _ratings():
    return SparseObservations(4, 4, np.arange(4).repeat(4), np.tile(np.arange(4), 4), np.ones(16))


_IMAGE = GrayImage(np.full((4, 4), 100, np.uint8))

# Every public real parameter: (call with the parameter set to x, the name
# its error gives, its interval).  The other arguments are valid.
_REAL_PARAMETERS = {
    "SolverConfig.lam": (lambda x: SolverConfig(Regularizer.FN, lam=x, d=1), "lam", "finite and >= 0"),
    "SolverConfig.epsilon": (
        lambda x: SolverConfig(Regularizer.FN, lam=1.0, d=1, epsilon=x), "epsilon", "finite and positive"
    ),
    "svt_prox.tau": (lambda x: svt_prox(np.eye(2), x), "tau", "finite and >= 0"),
    "frob_prox.l": (lambda x: frob_prox(np.eye(2), x, 1.0), "l", "finite and positive"),
    "frob_prox.lam": (lambda x: frob_prox(np.eye(2), 1.0, x), "lam", "finite and >= 0"),
    "gen_synthetic.nf": (lambda x: gen_synthetic(4, 4, 1, x, 0.5, 0), "noise factor", "finite and >= 0"),
    "gen_synthetic.sr": (lambda x: gen_synthetic(4, 4, 1, 0.0, x, 0), "sampling ratio", "in (0, 1]"),
    "sample_mask.sr": (lambda x: sample_mask(4, 4, x, 0), "sampling ratio", "in (0, 1]"),
    "split_train_test.train_fraction": (
        lambda x: split_train_test(_ratings(), x, 0), "train fraction", "in (0, 1)"
    ),
    "corrupt_image.fraction": (lambda x: corrupt_image(_IMAGE, x, 1.0, 0), "corruption fraction", "in [0, 1)"),
    "corrupt_image.noise_sigma": (lambda x: corrupt_image(_IMAGE, 0.5, x, 0), "noise sigma", "finite and >= 0"),
    "psnr.max_value": (lambda x: psnr(np.eye(2), np.zeros((2, 2)), x), "max_value", "finite and positive"),
    "schatten_quasi_norm.p": (lambda x: schatten_quasi_norm(np.eye(2), x), "p", "finite and positive"),
    "spectrum_quasi_norm.p": (lambda x: spectrum_quasi_norm(np.ones(2), x), "p", "finite and positive"),
    "trace_power.p": (lambda x: trace_power(np.eye(2), x), "p", "finite and positive"),
}

_TINY = 5e-324  # the smallest positive float
_ABOVE_ONE = float(np.nextafter(1.0, 2.0))
# Per interval: the values at and beyond its ends that it rejects, and ints,
# numpy ints and numpy floats inside it (no int lies in (0, 1)).
_BOUNDARIES = {
    "finite and >= 0": (
        [-_TINY, -1],
        [0, 0.0, -0.0, 2, np.int64(2), np.uint8(3), np.float64(0.0), np.float32(2.5)],
    ),
    "finite and positive": (
        [0, 0.0, -0.0, -_TINY],
        [_TINY, 3, np.int64(3), np.float64(0.5), np.float32(2.5)],
    ),
    "in (0, 1]": ([0, 0.0, -_TINY, _ABOVE_ONE, 2], [1, 1.0, np.int64(1), np.float64(0.5), np.float32(0.25)]),
    "in (0, 1)": ([0, 0.0, 1, 1.0, -_TINY], [0.75, np.float64(0.5), np.float32(0.25)]),
    "in [0, 1)": ([1, 1.0, -_TINY, _ABOVE_ONE], [0, 0.0, np.int64(0), np.float64(0.5), np.float32(0.25)]),
}
# rejected by every interval: bools (numpy's too), non-numbers, nan and both infinities
_NOT_REALS = [True, False, np.True_, np.False_, "0.5", None, math.nan, math.inf, -math.inf]

# The public functions that take a seed: call with the seed set to x.
_SEED_PARAMETERS = {
    "gen_synthetic": lambda x: gen_synthetic(4, 4, 1, 0.0, 0.5, x),
    "sample_mask": lambda x: sample_mask(4, 4, 0.5, x),
    "split_train_test": lambda x: split_train_test(_ratings(), 0.5, x),
    "corrupt_image": lambda x: corrupt_image(_IMAGE, 0.5, 1.0, x),
    "run_property_suite": lambda x: run_property_suite(1, x),
}


def _cases(accept: bool):
    for param, (call, name, rule) in _REAL_PARAMETERS.items():
        rejected, accepted = _BOUNDARIES[rule]
        for value in accepted if accept else rejected + _NOT_REALS:
            yield pytest.param(call, name, rule, value, id=f"{param}-{value!r}")


@pytest.mark.parametrize("call, name, rule, value", _cases(accept=False))
def test_real_parameter_rejects(call, name, rule, value):
    message = f"{name} must be {rule}, got {value}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("call, name, rule, value", _cases(accept=True))
def test_real_parameter_accepts(call, name, rule, value):
    call(value)


@pytest.mark.parametrize("value", [-1, 2.5, True, np.True_, "1", None, np.float64(1.0)], ids=repr)
@pytest.mark.parametrize("call", _SEED_PARAMETERS.values(), ids=list(_SEED_PARAMETERS))
def test_seed_rejects(call, value):
    with pytest.raises(ValueError, match=f"^seed must be a non-negative integer, got {re.escape(repr(value))}$"):
        call(value)


@pytest.mark.parametrize("value", [0, 7, np.int64(7), np.uint32(7), 2**64 - 1], ids=repr)
@pytest.mark.parametrize("call", _SEED_PARAMETERS.values(), ids=list(_SEED_PARAMETERS))
def test_seed_accepts(call, value):
    call(value)


def test_seed_of_numpy_int_draws_the_int_stream():
    assert sample_mask(8, 8, 0.5, np.uint32(7))[0].tolist() == sample_mask(8, 8, 0.5, 7)[0].tolist()
