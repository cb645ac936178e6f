import numpy as np
import pytest

from schattenmc.verify import (
    _TOLERANCES,
    PropertyResult,
    _mixing_stack,
    _random_orthogonal_stack,
    run_property_suite,
)

from conftest import philox


def test_all_properties_pass():
    results = run_property_suite(trials=20, seed=1)
    assert len(results) == 9
    for r in results:
        assert isinstance(r, PropertyResult)
        assert r.passed, f"{r.name}: violation {r.max_violation} > {r.tolerance}"
        assert r.trials == 20


def test_deterministic_per_seed():
    a = run_property_suite(trials=10, seed=5)
    b = run_property_suite(trials=10, seed=5)
    assert [(r.name, r.max_violation) for r in a] == [
        (r.name, r.max_violation) for r in b
    ]


def test_zero_tolerances_force_failure(monkeypatch):
    monkeypatch.setattr("schattenmc.verify._TOLERANCES", dict.fromkeys(_TOLERANCES, 0.0))
    results = run_property_suite(trials=5, seed=2)
    assert any(not r.passed for r in results)


def test_attainment_violations_are_tiny():
    results = {r.name: r for r in run_property_suite(trials=15, seed=3)}
    assert results["fn_attainment"].max_violation < 1e-10
    assert results["bin_attainment"].max_violation < 1e-10
    # inequality slacks should be at floating-point noise level
    assert results["sandwich_fn_sqrt_rank"].max_violation <= 1e-12
    assert results["trace_power_rotation"].max_violation <= 1e-12


def test_random_orthogonal_stack_is_orthogonal():
    q = _random_orthogonal_stack(philox(21), 50, 8)
    assert q.shape == (50, 8, 8)
    gram = np.matmul(q.transpose(0, 2, 1), q)
    assert np.max(np.abs(gram - np.eye(8))) <= 1e-12


def test_mixing_stack_inverts_and_is_conditioned():
    g, g_inv_t = _mixing_stack(philox(22), 50, 6)
    prod = np.matmul(g, g_inv_t.transpose(0, 2, 1))
    assert np.max(np.abs(prod - np.eye(6))) <= 1e-12
    assert np.max(np.linalg.cond(g)) <= 100.0 * (1.0 + 1e-12)


def test_results_follow_tolerance_order():
    results = run_property_suite(trials=3, seed=4)
    assert [r.name for r in results] == list(_TOLERANCES)
    assert [r.tolerance for r in results] == list(_TOLERANCES.values())
    assert all(r.trials == 3 for r in results)


@pytest.mark.parametrize("trials", [0, -1])
def test_rejects_fewer_than_one_trial(trials):
    with pytest.raises(ValueError):
        run_property_suite(trials=trials, seed=1)


@pytest.mark.parametrize("trials", [2.5, True])
def test_rejects_non_integer_trials(trials):
    with pytest.raises(ValueError, match="trials must be a positive integer"):
        run_property_suite(trials=trials, seed=1)
