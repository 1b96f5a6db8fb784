"""Acceptance criteria, one test per criterion.

Run `pytest tests/test_acceptance.py -v` for one pass/fail line per criterion.
Each body enforces the stated tolerance and, where given, the runtime budget.
"""

import math
import time

import numpy as np
import pytest

import bosonic as b
from bosonic import PureAmplifier, PureLoss
from conftest import random_state, random_symplectic


def _done(num: int, label: str, elapsed: float | None = None) -> None:
    suffix = "" if elapsed is None else f" ({elapsed:.3f}s)"
    print(f"criterion {num:02d} {label}: PASS{suffix}")


def test_criterion_01_petz_closed_forms_match_pipeline():
    start = time.perf_counter()
    for lam in (0.3, 0.6, 0.9):
        for ns in (0.5, 2.0, 10.0):
            closed = b.petz_terms_pure_loss(lam, ns)
            out = b.stinespring_output(PureLoss(lam), b.tmsv_state(ns))
            cuts = {"A|B": [0, 1], "A|E": [0, 2], "B|A": [1, 0], "B|E": [1, 2]}
            for key, keep in cuts.items():
                pipe = b.petz_conditional_entropy_half(b.reduce_state(out, keep), [0])
                assert abs(closed[key] - pipe) <= 1e-8, (lam, ns, key)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _done(1, "Petz closed-form cross-validation", elapsed)


def test_criterion_02_infinite_energy_limits():
    start = time.perf_counter()
    ns = 1e4
    lam = 0.7
    t = b.petz_terms_pure_loss(lam, ns)
    assert abs(t["A|B"] - math.log2((1 - lam) / lam)) <= 1e-2
    assert abs(t["A|E"] + math.log2((1 - lam) / lam)) <= 1e-2
    assert abs(t["B|A"] - math.log2(1 - lam)) <= 1e-2
    assert abs(t["B|E"] + math.log2(1 - lam)) <= 1e-2
    g = 2.0
    ta = b.petz_terms_amplifier(g, ns)
    assert abs(ta["A|B"] - math.log2((g - 1) / g)) <= 1e-2
    assert abs(ta["A|E"] - math.log2(g / (g - 1))) <= 1e-2
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _done(2, "infinite-energy Petz limits", elapsed)


def test_criterion_03_tail_soundness_and_tightness():
    start = time.perf_counter()
    for n_mean in (0.5, 1.0, 5.0):
        st = b.thermal_state(n_mean)
        for cutoff in range(0, 101):
            exact = (n_mean / (n_mean + 1.0)) ** (cutoff + 1)
            opt = b.tail_bound_optimized(st, cutoff).bound
            closed = b.tail_bound_closed(st, cutoff).bound
            assert opt >= exact * (1 - 1e-12), (n_mean, cutoff)
            assert opt <= closed * (1 + 1e-12), (n_mean, cutoff)
    pinned = b.tail_bound_closed(b.thermal_state(1.0), 10).bound
    assert abs(pinned - 0.2088) <= 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _done(3, "tail soundness and tightness", elapsed)


def test_criterion_04_trace_distance_vs_oracle():
    start = time.perf_counter()
    res = b.gaussian_trace_distance(b.vacuum_state(), b.thermal_state(1.0), 1e-3)
    assert abs(res.estimate - 0.5) <= 1e-3

    def diagonal_oracle(n1, n2, terms=8000):
        acc = 0.0
        t1, t2 = 1.0 / (n1 + 1.0), 1.0 / (n2 + 1.0)
        for _ in range(terms):
            acc += abs(t1 - t2)
            t1 *= n1 / (n1 + 1.0)
            t2 *= n2 / (n2 + 1.0)
        return acc / 2.0

    pairs = [(0.2, 0.5), (0.5, 1.0), (1.0, 2.0), (1.5, 3.0), (2.0, 3.0)]
    for n1, n2 in pairs:
        res = b.gaussian_trace_distance(b.thermal_state(n1), b.thermal_state(n2), 1e-4)
        assert abs(res.estimate - diagonal_oracle(n1, n2)) <= 1e-4, (n1, n2)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _done(4, "trace-distance algorithm vs oracle", elapsed)


def test_criterion_05_fock_fidelity():
    f = b.fock_matrix_elements(b.thermal_state(1.0), 2)
    assert np.array_equal(np.diag(f.matrix).real, [0.5, 0.25, 0.125])
    assert np.count_nonzero(f.matrix - np.diag(np.diag(f.matrix))) == 0

    ftm = b.fock_matrix_elements(b.tmsv_state(1.0), 4)
    basis = b.enumerate_basis(ftm.modes, ftm.cutoff)
    for i, ka in enumerate(basis):
        for j, kb in enumerate(basis):
            expect = 0.0
            if ka[0] == ka[1] and kb[0] == kb[1]:
                expect = 2.0 ** (-(ka[0] + kb[0]) / 2.0 - 1.0)
            assert abs(ftm.matrix[i, j] - expect) <= 1e-12, (ka, kb)

    for lam in (0.3, 0.7):
        for n in range(11):
            coeffs = b.beam_splitter_fock_coeffs(n, 0, lam)
            for m, c in enumerate(coeffs):
                expect = ((-1.0) ** m * math.sqrt(math.comb(n, m))
                          * lam ** ((n - m) / 2.0) * (1 - lam) ** (m / 2.0))
                assert abs(c - expect) <= 1e-10, (lam, n, m)
    _done(5, "Fock matrix fidelity")


def test_criterion_06_entropy_variance():
    assert b.thermal_entropy_variance(1.0) == 2.0

    # independent Fock-truncated double-sum oracle at (lam, ns) = (0.5, 1)
    lam, ns, trunc = 0.5, 1.0, 60
    p = [ns**n / (ns + 1.0) ** (n + 1) for n in range(trunc + 1)]
    w = {(n, l): p[n] * math.comb(n, l) * lam ** (n - l) * (1 - lam) ** l
         for n in range(trunc + 1) for l in range(n + 1)}

    def geom(mean, j):
        return mean**j / (mean + 1.0) ** (j + 1)

    # direct cut: spectrum of the AE marginal is thermal at lam*ns over the
    # photon difference, the E letter sees thermal at (1-lam)*ns
    t1 = sum(geom(lam * ns, k) * math.log2(geom(lam * ns, k)) ** 2 for k in range(trunc + 1))
    t2 = sum(math.log2(geom(lam * ns, k))
             * sum(w[(n, n - k)] * math.log2(geom((1 - lam) * ns, n - k))
                   for n in range(k, trunc + 1))
             for k in range(trunc + 1))
    t3 = sum(sum(w[(n, l)] for n in range(l, trunc + 1))
             * math.log2(geom((1 - lam) * ns, l)) ** 2 for l in range(trunc + 1))
    mean_term = (sum(geom(lam * ns, k) * math.log2(geom(lam * ns, k)) for k in range(trunc + 1))
                 - sum(w[(n, l)] * math.log2(geom((1 - lam) * ns, l))
                       for n in range(trunc + 1) for l in range(n + 1)))
    oracle_ae = t1 - 2 * t2 + t3 - mean_term**2
    assert abs(b.entropy_variance_pure_loss(lam, ns, "A|E") - oracle_ae) <= 1e-6

    # reverse cut: spectrum of the BE marginal is the input thermal spectrum
    r1 = sum(p[n] * math.log2(p[n]) ** 2 for n in range(trunc + 1))
    r2 = sum(math.log2(p[n]) * w[(n, l)] * math.log2(geom((1 - lam) * ns, l))
             for n in range(trunc + 1) for l in range(n + 1))
    mean_r = (sum(p[n] * math.log2(p[n]) for n in range(trunc + 1))
              - sum(w[(n, l)] * math.log2(geom((1 - lam) * ns, l))
                    for n in range(trunc + 1) for l in range(n + 1)))
    oracle_be = r1 - 2 * r2 + t3 - mean_r**2
    assert abs(b.entropy_variance_pure_loss(lam, ns, "B|E") - oracle_be) <= 1e-6

    assert b.entropy_variance_pure_loss(0.5, 1e6, "A|E") <= 1e-3
    assert b.entropy_variance_pure_loss(0.5, 1e6, "B|E") <= 1e-3
    _done(6, "entropy variance closed forms")


def test_criterion_07_sandwich_and_constant_gap():
    for eps in (0.01, 0.1):
        gaps = []
        for lam in (0.3, 0.5, 0.75, 0.9):
            for n in (16, 100, 1000):
                upper = b.upper_bound_nshot(PureLoss(lam), n, eps, "Q2").value
                lows = [
                    b.improved_lower_bound_pure_loss(lam, n, eps, "Q2").value,
                    b.BOUND_FAMILIES["aep"].evaluate(PureLoss(lam), n, eps, "Q2").value,
                    b.ec_aep_lower_bound(PureLoss(lam), 100.0, n, eps, "Q2").value,
                    b.ec_variance_lower_bound(lam, 100.0, n, eps, "Q2").value,
                ]
                for low in lows:
                    assert low <= upper, (lam, eps, n)
                gaps.append(upper - lows[0])
        assert max(gaps) - min(gaps) <= 1e-12
    _done(7, "bound sandwich and constant gap")


def test_criterion_08_headline_numbers():
    improved = b.improved_lower_bound_pure_loss(0.5, 100, 0.1, "Q2")
    assert abs(improved.value - 79.44) <= 0.01
    assert b.channel_uses_sufficient(PureLoss(0.5), 100.0, 0.1, "Q2") == 121
    assert b.channel_uses_necessary(PureLoss(0.5), 100.0, 0.1) == 97
    _done(8, "headline numbers")


def test_criterion_09_energy_constrained_convergence():
    ec_var = b.ec_variance_lower_bound(0.5, 1e6, 100, 0.1, "Q2").value
    improved = b.improved_lower_bound_pure_loss(0.5, 100, 0.1, "Q2").value
    assert abs(ec_var - improved) <= 0.1
    ec_aep = b.ec_aep_lower_bound(PureLoss(0.5), 1e6, 100, 0.1, "Q2").value
    aep = b.BOUND_FAMILIES["aep"].evaluate(PureLoss(0.5), 100, 0.1, "Q2").value
    assert abs(ec_aep - aep) <= 0.1
    _done(9, "energy-constrained convergence")


def test_criterion_10_property_suites():
    rng = np.random.default_rng(2024)

    # uncertainty-relation validation
    for _ in range(10):
        st = random_state(rng, 2)
        assert b.validate_state(st).ok
    squeezed_too_far = b.GaussianState(np.zeros(2), 0.8 * np.eye(2))
    assert not b.validate_state(squeezed_too_far).ok

    # symplectic identities
    for modes in (1, 2, 3):
        om = b.symplectic_form(modes)
        for _ in range(5):
            s = random_symplectic(rng, modes)
            assert np.max(np.abs(s @ om @ s.T - om)) <= 1e-10

    # Williamson reconstruction
    for _ in range(8):
        st = random_state(rng, 2, max_squeeze=2.0)
        s, d = b.williamson(st.cov)
        rebuilt = s @ np.diag(np.repeat(d, 2)) @ s.T
        assert np.max(np.abs(rebuilt - st.cov)) <= 1e-8 * max(1.0, np.linalg.norm(st.cov, 2))

    # entropy invariance under Gaussian unitaries
    for _ in range(5):
        st = random_state(rng, 2)
        s = random_symplectic(rng, 2)
        moved = b.GaussianState(st.mean, s @ st.cov @ s.T)
        assert abs(b.von_neumann_entropy(moved) - b.von_neumann_entropy(st)) <= 1e-9

    # trace-distance symmetry, range, triangle
    eps = 1e-3
    sts = [random_state(rng, 1, max_squeeze=1.3, max_shift=0.6) for _ in range(3)]
    d_ab = b.gaussian_trace_distance(sts[0], sts[1], eps).estimate
    d_ba = b.gaussian_trace_distance(sts[1], sts[0], eps).estimate
    d_bc = b.gaussian_trace_distance(sts[1], sts[2], eps).estimate
    d_ac = b.gaussian_trace_distance(sts[0], sts[2], eps).estimate
    assert abs(d_ab - d_ba) <= 2 * eps
    for val in (d_ab, d_bc, d_ac):
        assert 0.0 <= val <= 1.0
    assert d_ac <= d_ab + d_bc + 3 * eps
    _done(10, "randomized property suites")
