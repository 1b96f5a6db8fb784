"""Certified trace distance: exact finite cases, thermal oracles, metric laws."""

import math

import numpy as np
import pytest

import bosonic as b
from conftest import random_state, random_symplectic, scale_blocks


def thermal_distance_oracle(n1: float, n2: float, terms: int = 6000) -> float:
    """Both states are diagonal in the Fock basis, so the distance is a
    half l1 norm of geometric distributions."""
    total = 0.0
    p, q = 1.0 / (n1 + 1.0), 1.0 / (n2 + 1.0)
    for _ in range(terms):
        total += abs(p - q)
        p *= n1 / (n1 + 1.0)
        q *= n2 / (n2 + 1.0)
    return total / 2.0


def test_finite_trace_distance_exact_case():
    # renormalized tau_1 truncation vs the vacuum projector
    t = b.truncate_normalize(b.fock_matrix_elements(b.thermal_state(1.0), 2))
    vac = np.diag([1.0, 0.0, 0.0])
    assert b.finite_trace_distance(t.matrix, vac) == pytest.approx(3.0 / 7.0, abs=1e-14)
    assert b.finite_trace_distance(t, t) == pytest.approx(0.0, abs=1e-15)


def test_finite_trace_distance_rejects_non_hermitian():
    m = np.array([[0.5, 1.0], [0.0, 0.5]])
    with pytest.raises(ValueError):
        b.finite_trace_distance(m, np.eye(2) / 2.0)


def test_vacuum_vs_thermal():
    res = b.gaussian_trace_distance(b.vacuum_state(), b.thermal_state(1.0), 1e-3)
    assert res.estimate == pytest.approx(0.5, abs=1e-3)
    assert res.certified_error <= 1e-3
    assert res.fock_dim == res.cutoff + 1


def test_thermal_pairs_within_certificate():
    pairs = [(0.2, 0.5), (0.5, 1.0), (1.0, 2.0), (1.5, 3.0), (2.0, 3.0)]
    for n1, n2 in pairs:
        res = b.gaussian_trace_distance(b.thermal_state(n1), b.thermal_state(n2), 1e-4)
        oracle = thermal_distance_oracle(n1, n2)
        assert abs(res.estimate - oracle) <= 1e-4
        assert abs(res.estimate - oracle) <= res.certified_error


def test_certificate_composition():
    a, c = b.thermal_state(0.5), b.thermal_state(1.2)
    eps = 1e-3
    res = b.gaussian_trace_distance(a, c, eps)
    tail_sum = sum(res.tail_bounds)
    assert res.certified_error >= tail_sum
    assert res.certified_error <= eps


def test_symmetry_range_and_identity():
    rng = np.random.default_rng(53)
    eps = 1e-3
    for _ in range(4):
        x = random_state(rng, 1, max_squeeze=1.4, max_shift=0.7)
        y = random_state(rng, 1, max_squeeze=1.4, max_shift=0.7)
        d_xy = b.gaussian_trace_distance(x, y, eps)
        d_yx = b.gaussian_trace_distance(y, x, eps)
        assert abs(d_xy.estimate - d_yx.estimate) <= 2 * eps
        assert 0.0 <= d_xy.estimate <= 1.0
        d_xx = b.gaussian_trace_distance(x, x, eps)
        assert d_xx.estimate <= eps


def test_triangle_inequality():
    rng = np.random.default_rng(59)
    eps = 1e-3
    for _ in range(3):
        sts = [random_state(rng, 1, max_squeeze=1.3, max_shift=0.5) for _ in range(3)]
        d_ab = b.gaussian_trace_distance(sts[0], sts[1], eps).estimate
        d_bc = b.gaussian_trace_distance(sts[1], sts[2], eps).estimate
        d_ac = b.gaussian_trace_distance(sts[0], sts[2], eps).estimate
        assert d_ac <= d_ab + d_bc + 3 * eps


def test_orthogonal_states_near_one():
    far = b.apply_transform(b.vacuum_state(), b.displacement([12.0, 0.0]))
    res = b.gaussian_trace_distance(b.vacuum_state(), far, 1e-2)
    assert res.estimate == pytest.approx(1.0, abs=1e-2)


def test_two_mode_distance():
    res = b.gaussian_trace_distance(b.tmsv_state(0.5), b.tmsv_state(0.8), 1e-2)
    # fidelity-based sanity: distance strictly between 0 and 1
    assert 0.05 < res.estimate < 0.95
    assert res.certified_error <= 1e-2


def test_domain_errors():
    with pytest.raises(ValueError):
        b.gaussian_trace_distance(b.vacuum_state(), b.tmsv_state(1.0), 1e-3)
    with pytest.raises(ValueError):
        b.gaussian_trace_distance(b.vacuum_state(), b.vacuum_state(), 0.0)
    with pytest.raises(ValueError):
        b.gaussian_trace_distance(b.vacuum_state(), b.vacuum_state(), 1.5)


def test_resource_cap_propagates():
    with pytest.raises(b.DimensionCapError):
        b.gaussian_trace_distance(b.thermal_state(1.0), b.thermal_state(2.0), 1e-4, cap=10)


def test_thermal_product_under_common_active_symplectic():
    # the true distance is invariant under a common Gaussian unitary; the
    # actively mixed pair must be computed, and agree within both certificates
    x = b.tensor([b.thermal_state(0.3), b.thermal_state(0.8)])
    y = b.tensor([b.thermal_state(0.6), b.thermal_state(0.2)])
    plain = b.gaussian_trace_distance(x, y, 1e-2)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        s = b.Transform(random_symplectic(rng, 2, 1.2), np.zeros(4))
        mixed = b.gaussian_trace_distance(b.apply_transform(x, s), b.apply_transform(y, s), 1e-2)
        slack = mixed.certified_error + plain.certified_error
        assert abs(mixed.estimate - plain.estimate) <= slack


def test_two_mode_pure_pairs_match_overlap_identity():
    # for pure states D = sqrt(1 - tr(rho sigma)) exactly
    rng = np.random.default_rng(7)
    for _ in range(4):
        x = random_state(rng, 2, pure=True, max_squeeze=1.3, max_shift=0.5)
        y = random_state(rng, 2, pure=True, max_squeeze=1.3, max_shift=0.5)
        res = b.gaussian_trace_distance(x, y, 1e-3)
        exact = math.sqrt(1.0 - b.gaussian_overlap(x, y))
        assert abs(res.estimate - exact) <= res.certified_error


@pytest.mark.parametrize("factor,defect", [(1.01, "exceeds 1"), (0.99, "falls below 1 - tail")])
def test_block_trace_invariant_both_sides(monkeypatch, factor, defect):
    # a block may neither hold more than the state nor lose more than the tail
    scale_blocks(monkeypatch, factor)
    with pytest.raises(b.FockTraceError, match=defect):
        b.gaussian_trace_distance(b.thermal_state(0.5), b.thermal_state(1.0), 1e-3)
