"""Capacity formulas, n-shot bound families, and channel-use inversion."""

import math

import numpy as np
import pytest

import bosonic as b
from bosonic import PureAmplifier, PureLoss


# --------------------------------------------------------------- asymptotic


def test_asymptotic_loss():
    assert b.asymptotic_capacity(PureLoss(0.75), "Q") == pytest.approx(math.log2(3.0), rel=1e-14)
    assert b.asymptotic_capacity(PureLoss(0.3), "Q") == 0.0
    assert b.asymptotic_capacity(PureLoss(0.5), "Q2") == pytest.approx(1.0, rel=1e-14)
    assert b.asymptotic_capacity(PureLoss(0.5), "K") == pytest.approx(1.0, rel=1e-14)
    assert b.asymptotic_capacity(PureLoss(1.0), "Q") == math.inf
    assert b.asymptotic_capacity(PureLoss(0.0), "Q2") == 0.0


def test_asymptotic_amplifier():
    for task in ("Q", "Q2", "K"):
        assert b.asymptotic_capacity(PureAmplifier(2.0), task) == pytest.approx(1.0, rel=1e-14)
        assert b.asymptotic_capacity(PureAmplifier(1.0), task) == math.inf


def test_ec_asymptotic():
    lam, ns = 0.75, 5.0
    expect = b.h_function(lam * ns) - b.h_function((1 - lam) * ns)
    assert b.ec_asymptotic(PureLoss(lam), "Q", ns) == pytest.approx(expect, rel=1e-14)
    assert b.ec_asymptotic(PureLoss(0.4), "Q", ns) == 0.0  # clamped below half
    expect_r = b.h_function(ns) - b.h_function((1 - lam) * ns)
    assert b.ec_asymptotic(PureLoss(lam), "Q2", ns) == pytest.approx(expect_r, rel=1e-14)
    g = 2.0
    expect_a = b.h_function(g * ns + g - 1) - b.h_function((g - 1) * (ns + 1))
    for task in ("Q", "Q2", "K"):
        assert b.ec_asymptotic(PureAmplifier(g), task, ns) == pytest.approx(expect_a, rel=1e-14)
    assert b.ec_asymptotic(PureAmplifier(2.0), "Q", 0.0) == pytest.approx(0.0, abs=1e-14)


# -------------------------------------------------------------- Petz terms


def pipeline_terms_loss(lam, ns):
    out = b.stinespring_output(PureLoss(lam), b.tmsv_state(ns))
    cuts = {"A|B": [0, 1], "A|E": [0, 2], "B|A": [1, 0], "B|E": [1, 2]}
    return {k: b.petz_conditional_entropy_half(b.reduce_state(out, m), [0])
            for k, m in cuts.items()}


def pipeline_terms_amp(g, ns):
    out = b.stinespring_output(PureAmplifier(g), b.tmsv_state(ns))
    cuts = {"A|B": [0, 1], "A|E": [0, 2]}
    return {k: b.petz_conditional_entropy_half(b.reduce_state(out, m), [0])
            for k, m in cuts.items()}


def test_petz_terms_pure_loss_vs_pipeline():
    for lam in (0.3, 0.6, 0.9):
        for ns in (0.5, 2.0, 10.0):
            closed = b.petz_terms_pure_loss(lam, ns)
            pipe = pipeline_terms_loss(lam, ns)
            for key in ("A|B", "A|E", "B|A", "B|E"):
                assert closed[key] == pytest.approx(pipe[key], abs=1e-8)


def test_petz_terms_pure_loss_limits():
    lam, ns = 0.7, 1e4
    t = b.petz_terms_pure_loss(lam, ns)
    assert t["A|B"] == pytest.approx(math.log2((1 - lam) / lam), abs=1e-2)
    assert t["A|E"] == pytest.approx(-math.log2((1 - lam) / lam), abs=1e-2)
    assert t["B|A"] == pytest.approx(math.log2(1 - lam), abs=1e-2)
    assert t["B|E"] == pytest.approx(-math.log2(1 - lam), abs=1e-2)


def test_petz_terms_amplifier_vs_pipeline():
    for g in (1.2, 1.5, 2.0, 5.0):
        for ns in (0.5, 2.0, 10.0):
            closed = b.petz_terms_amplifier(g, ns)
            pipe = pipeline_terms_amp(g, ns)
            assert closed["A|B"] == pytest.approx(pipe["A|B"], abs=1e-8)
            assert closed["A|E"] == pytest.approx(pipe["A|E"], abs=1e-8)


def test_petz_terms_amplifier_limits_and_degenerate_gain():
    g, ns = 2.0, 1e4
    t = b.petz_terms_amplifier(g, ns)
    assert t["A|B"] == pytest.approx(math.log2((g - 1) / g), abs=1e-2)
    assert t["A|E"] == pytest.approx(math.log2(g / (g - 1)), abs=1e-2)
    # g = 1: identity channel, A|B collapses to the pure TMSV value
    t1 = b.petz_terms_amplifier(1.0, 1.0)
    assert t1["A|B"] == pytest.approx(-1.7412062532355603, abs=1e-10)
    with pytest.raises(ValueError):
        b.petz_terms_amplifier(0.5, 1.0)


# ------------------------------------------------------------- AEP bounds


def test_aep_loss_q_spec_point():
    lam, eps, n = 0.75, 0.01, 10**4
    oracle = (n * math.log2(3.0)
              - math.sqrt(n) * 4 * math.log2(math.sqrt(1 / 3) + math.sqrt(3.0) + 1)
              * math.sqrt(math.log2(2.0**9 / eps**2))
              - math.log2(2.0**18 / (3 * eps**4)))
    got = b.aep_lower_bound_pure_loss(lam, n, eps, "Q")
    assert got.value == pytest.approx(oracle, rel=1e-12)
    assert got.direction == "lower" and got.preconditions_met


def test_aep_loss_q2_headline():
    got = b.aep_lower_bound_pure_loss(0.5, 100, 0.1, "Q2")
    assert got.value == pytest.approx(-75.8017, abs=1e-3)
    assert got.vacuous
    # full sqrt(n) multiplier: 4 log2(sqrt(1-lam) + 1/sqrt(1-lam) + 1) * sqrt(log2(8/eps))
    coeff = 4 * math.log2(math.sqrt(0.5) + math.sqrt(2.0) + 1) * math.sqrt(math.log2(80.0))
    assert got.breakdown["sqrt_coefficient"] == pytest.approx(coeff, rel=1e-12)


def test_aep_amp_values():
    g, n, eps = 2.0, 100, 0.1
    coeff = 4 * math.log2(math.sqrt(0.5) + math.sqrt(2.0) + 1)
    oracle_q = (n * 1.0 - math.sqrt(n) * coeff * math.sqrt(math.log2(2.0**9 / eps**2))
                - math.log2(2.0**18 / (3 * eps**4)))
    got = b.aep_lower_bound_amplifier(g, n, eps, "Q")
    assert got.value == pytest.approx(oracle_q, rel=1e-12)
    oracle_q2 = (n * 1.0 - math.sqrt(n) * coeff * math.sqrt(math.log2(8.0 / eps))
                 - math.log2(16.0 / eps**2))
    assert b.aep_lower_bound_amplifier(g, n, eps, "Q2").value == pytest.approx(oracle_q2, rel=1e-12)


def test_aep_threshold_flag():
    # n >= 2 log2(2/eps^2) required; below it the value is still reported
    eps = 0.1
    thr = 2 * math.log2(2.0 / eps**2)
    low = b.aep_lower_bound_pure_loss(0.6, int(thr) - 2, eps, "Q")
    assert not low.preconditions_met
    high = b.aep_lower_bound_pure_loss(0.6, int(thr) + 2, eps, "Q")
    assert high.preconditions_met


def test_aep_boundaries_report_infinity():
    res = b.aep_lower_bound_pure_loss(1.0, 100, 0.1, "Q2")
    assert res.value == math.inf and "infinite" in res.note
    res_a = b.aep_lower_bound_amplifier(1.0, 100, 0.1, "Q")
    assert res_a.value == math.inf
    with pytest.raises(ValueError):
        b.aep_lower_bound_pure_loss(1.2, 100, 0.1, "Q")


def test_aep_per_use_converges_to_capacity():
    res = b.aep_lower_bound_pure_loss(0.75, 10**6, 0.1, "Q")
    assert res.value / 10**6 == pytest.approx(math.log2(3.0), abs=0.05)


def test_generic_aep_matches_closed_forms():
    tm = b.tmsv_state(1e6)
    for task in ("Q", "Q2", "K"):
        gen = b.aep_lower_bound_generic(PureLoss(0.5), tm, 100, 0.1, task)
        closed = b.aep_lower_bound_pure_loss(0.5, 100, 0.1, task)
        assert gen.value == pytest.approx(closed.value, abs=1e-2)
        gen_a = b.aep_lower_bound_generic(PureAmplifier(2.0), tm, 100, 0.1, task)
        closed_a = b.aep_lower_bound_amplifier(2.0, 100, 0.1, task)
        assert gen_a.value == pytest.approx(closed_a.value, abs=1e-2)


def test_generic_aep_uses_reverse_line_for_two_way():
    # for the loss channel the reverse line B|A, B|E is the better one
    tm = b.tmsv_state(2.0)
    q2 = b.aep_lower_bound_generic(PureLoss(0.6), tm, 1000, 0.1, "Q2")
    q = b.aep_lower_bound_generic(PureLoss(0.6), tm, 1000, 0.1, "Q")
    assert q2.value > q.value


def test_generic_aep_rejects_mixed_input():
    mixed = b.tensor([b.thermal_state(1.0), b.thermal_state(1.0)])
    with pytest.raises(ValueError):
        b.aep_lower_bound_generic(PureLoss(0.5), mixed, 100, 0.1, "Q")
    with pytest.raises(ValueError):
        b.aep_lower_bound_generic(PureLoss(0.5), b.vacuum_state(), 100, 0.1, "Q")


def test_generic_aep_below_threshold_flag():
    tm = b.tmsv_state(1.0)
    res = b.aep_lower_bound_generic(PureLoss(0.5), tm, 4, 0.1, "Q")
    assert not res.preconditions_met
    assert math.isfinite(res.value)


# ------------------------------------------------- improved and upper bound


def test_improved_constants():
    eps = 0.1
    q_const = math.log2(2.0**23 * (32 - eps) ** 2 / ((16 - eps) * eps**6))
    q2_const = math.log2(2.0**6 * 3 * (4 - math.sqrt(eps)) ** 2
                         / ((2 - math.sqrt(eps)) * eps**3))
    got_q = b.improved_lower_bound_pure_loss(0.75, 100, eps, "Q")
    assert got_q.value == pytest.approx(100 * math.log2(3.0) - q_const, rel=1e-12)
    got_q2 = b.improved_lower_bound_pure_loss(0.5, 100, eps, "Q2")
    assert got_q2.value == pytest.approx(100.0 - q2_const, rel=1e-12)
    assert q2_const == pytest.approx(20.5616, abs=1e-3)


def test_improved_headline_number():
    got = b.improved_lower_bound_pure_loss(0.5, 100, 0.1, "Q2")
    assert got.value == pytest.approx(79.44, abs=0.01)
    # no sqrt(n) term in this family
    assert got.breakdown["sqrt_coefficient"] == 0.0
    assert got.preconditions_met  # no blocklength threshold here


def test_improved_is_loss_only():
    # the improved family has no amplifier variant; best() falls back to aep
    got = b.best_lower_bound(PureAmplifier(2.0), 100, 0.1, "Q")
    assert got.method == "aep"


def test_upper_bound():
    n, eps = 100, 0.1
    got = b.upper_bound_nshot(PureLoss(0.5), n, eps, "Q2")
    expect = n * 1.0 + math.log2(6.0) + 2 * math.log2((1 + eps) / (1 - eps))
    assert got.value == pytest.approx(expect, rel=1e-13)
    assert got.value == pytest.approx(103.164, abs=1e-3)
    assert got.direction == "upper"
    got_a = b.upper_bound_nshot(PureAmplifier(2.0), n, eps, "K")
    assert got_a.value == pytest.approx(expect, rel=1e-13)  # same Q2 = 1
    with pytest.raises(ValueError):
        b.upper_bound_nshot(PureLoss(0.5), n, eps, "Q")


def test_sandwich_and_constant_gap():
    eps_grid = (0.01, 0.1)
    lam_grid = (0.3, 0.5, 0.75, 0.9)
    n_grid = (16, 100, 1000)
    for eps in eps_grid:
        gaps = []
        for lam in lam_grid:
            for n in n_grid:
                upper = b.upper_bound_nshot(PureLoss(lam), n, eps, "Q2").value
                improved = b.improved_lower_bound_pure_loss(lam, n, eps, "Q2").value
                aep = b.aep_lower_bound_pure_loss(lam, n, eps, "Q2").value
                assert improved <= upper
                assert aep <= upper
                gaps.append(upper - improved)
        assert max(gaps) - min(gaps) <= 1e-12


# ---------------------------------------------------- energy-constrained


def test_ec_aep_regressions():
    got_q = b.ec_aep_lower_bound(PureLoss(0.7), 5.0, 10**4, 0.05, "Q")
    assert got_q.value == pytest.approx(7183.198102655276, rel=1e-12)
    got_q2 = b.ec_aep_lower_bound(PureLoss(0.7), 5.0, 10**4, 0.05, "Q2")
    assert got_q2.value == pytest.approx(12823.917084571092, rel=1e-12)
    # amplifier family exists and is finite
    got_a = b.ec_aep_lower_bound(PureAmplifier(2.0), 5.0, 10**4, 0.05, "Q")
    assert math.isfinite(got_a.value)


def test_ec_aep_converges_to_unconstrained():
    a = b.ec_aep_lower_bound(PureLoss(0.5), 1e6, 100, 0.1, "Q2").value
    u = b.aep_lower_bound_pure_loss(0.5, 100, 0.1, "Q2").value
    assert a == pytest.approx(u, abs=0.1)


def test_ec_variance_formula():
    lam, ns, n, eps = 0.75, 2.0, 400, 0.05
    rate = b.h_function(lam * ns) - b.h_function((1 - lam) * ns)
    var = b.entropy_variance_pure_loss(lam, ns, "A|E")
    q_const = math.log2(2.0**23 * (32 - eps) ** 2 / ((16 - eps) * eps**6))
    oracle = n * rate - 4 * math.sqrt(n * var / eps) - q_const
    got = b.ec_variance_lower_bound(lam, ns, n, eps, "Q")
    assert got.value == pytest.approx(oracle, rel=1e-12)

    rate2 = b.h_function(ns) - b.h_function((1 - lam) * ns)
    var2 = b.entropy_variance_pure_loss(lam, ns, "B|E")
    q2_const = math.log2(2.0**6 * 3 * (4 - math.sqrt(eps)) ** 2
                         / ((2 - math.sqrt(eps)) * eps**3))
    oracle2 = n * rate2 - math.sqrt(2 * n * var2 / math.sqrt(eps)) - q2_const
    got2 = b.ec_variance_lower_bound(lam, ns, n, eps, "Q2")
    assert got2.value == pytest.approx(oracle2, rel=1e-12)


def test_ec_variance_q_not_clamped():
    # below half transmissivity the Q rate goes negative and stays reported
    got = b.ec_variance_lower_bound(0.3, 2.0, 100, 0.1, "Q")
    assert got.value < 0 and got.vacuous


def test_ec_variance_converges_to_improved():
    v = b.ec_variance_lower_bound(0.5, 1e6, 100, 0.1, "Q2").value
    i = b.improved_lower_bound_pure_loss(0.5, 100, 0.1, "Q2").value
    assert v == pytest.approx(i, abs=0.1)
    assert v <= i  # finite energy can only lose


# -------------------------------------------------------------- selection


def test_best_lower_bound_picks_maximum():
    best = b.best_lower_bound(PureLoss(0.5), 100, 0.1, "Q2")
    imp = b.improved_lower_bound_pure_loss(0.5, 100, 0.1, "Q2")
    assert best.value == imp.value and best.method == "improved"
    with_energy = b.best_lower_bound(PureLoss(0.5), 100, 0.1, "Q2", photons=1e6)
    assert with_energy.value >= max(
        b.ec_variance_lower_bound(0.5, 1e6, 100, 0.1, "Q2").value, imp.value) - 1e-12
    best_amp = b.best_lower_bound(PureAmplifier(2.0), 100, 0.1, "Q")
    assert best_amp.method == "aep"


def test_best_lower_bound_ties_go_to_table_order():
    # at lambda = 1 improved and aep both read +inf (aep through its
    # inf - inf boundary): the earlier family in the table wins
    for task in ("Q", "Q2", "K"):
        best = b.best_lower_bound(PureLoss(1.0), 100, 0.1, task, photons=1.0)
        assert best.value == math.inf and best.method == "improved"
        assert b.capacity.bound_value(math.inf, math.inf, 1.0, 100) == (math.inf, True)
    assert b.capacity.first_max([1.0, 3.0, 3.0, -math.inf]) == 1
    assert b.capacity.first_max([-0.0, 0.0]) == 0


def _scalar_bound(a, bq, c, n):
    """The per-row rule on Python floats: a n, then - b sqrt(n), then - c,
    with a NaN sum read as +inf and flagged."""
    value = a * n + -bq * math.sqrt(n) + -c
    return (math.inf, True) if math.isnan(value) else (value, False)


@pytest.mark.filterwarnings("error")  # the scalar rule overflows and meets NaN silently
def test_bound_value_on_arrays_has_the_scalar_bits():
    rng = np.random.default_rng(14)
    size = 3000
    a = rng.uniform(-4.0, 4.0, size) * 10.0 ** rng.integers(-9, 3, size)
    bq = rng.uniform(0.0, 60.0, size)
    c = rng.uniform(-40.0, 40.0, size)
    n = rng.integers(1, 10**9, size, endpoint=True)
    n[:3] = 1, 10**9, 2**30
    bq[::5] = 0.0  # a -0.0 sqrt(n) term
    a[1::13], bq[1::13] = math.inf, math.inf  # inf - inf: NaN, read as +inf
    a[2::17], bq[2::17] = -math.inf, math.inf
    a[3::19], c[3::19] = -0.0, 0.0  # -0.0 + -0.0 + -0.0 keeps its sign
    want = [_scalar_bound(*args) for args in zip(a.tolist(), bq.tolist(), c.tolist(), n.tolist())]
    want_hex = [value.hex() for value, _ in want]
    assert {"-0x0.0p+0", "inf"} <= set(want_hex) and any(flag for _, flag in want)

    values, boundary = b.capacity.bound_value(a, bq, c, n)
    assert [v.hex() for v in values.tolist()] == want_hex
    assert boundary.tolist() == [flag for _, flag in want]
    # broadcast as the sweep does: n along one axis, the coefficients along another
    grid, _ = b.capacity.bound_value(a[:60, None], bq[:60, None], c[:60, None], n[None, :50])
    assert [v.hex() for v in grid.ravel().tolist()] == [
        _scalar_bound(*args, m)[0].hex()
        for args in zip(a[:60].tolist(), bq[:60].tolist(), c[:60].tolist())
        for m in n[:50].tolist()]
    # the scalar callers get the same bits, also where a n overflows to inf
    huge = [(3.0, 0.0, 1.0, 10**308), (-3.0, 1e300, 1e308, 10**300), (2.0, 5.0, 1.0, 10**308)]
    for args, (value, flag) in zip(huge + list(zip(a[:300].tolist(), bq[:300].tolist(),
                                                   c[:300].tolist(), n[:300].tolist())),
                                   [_scalar_bound(*args) for args in huge] + want):
        got, got_flag = b.capacity.bound_value(*args)
        assert (float(got).hex(), bool(got_flag)) == (value.hex(), flag)


def test_first_max_takes_the_first_of_equal_values():
    rows = [[-0.0, 0.0, -1.0], [0.0, -0.0, -0.0], [math.inf, math.inf, 1.0],
            [0.3, 0.3, 0.3], [-math.inf, 2.5, 2.5], [1.0, 3.0, math.inf]]
    want = [0, 0, 0, 0, 1, 2]
    assert [int(b.capacity.first_max(row)) for row in rows] == want
    # along the last axis of a grid, as the sweep takes it over families
    grid = np.array(rows)
    assert b.capacity.first_max(grid).tolist() == want
    assert b.capacity.first_max(np.stack([grid, grid[::-1]])).tolist() == [want, want[::-1]]


def test_converse_has_the_bound_shape():
    # the weak converse as (a, 0, c): n Q2 + log2 6 + 2 log2((1+eps)/(1-eps))
    for channel in (PureLoss(0.3), PureLoss(1.0), PureAmplifier(2.5)):
        for n in (1, 7, 1000):
            a, bq, c, n_min = b.capacity.converse_coeffs(channel, 0.05, "K")
            up = b.upper_bound_nshot(channel, n, 0.05, "K")
            assert (bq, n_min) == (0.0, 0.0)
            assert up.value == b.asymptotic_capacity(channel, "Q2") * n + up.breakdown["constant"]
            assert up.breakdown["constant"] == -c
    with pytest.raises(ValueError, match="weak-converse"):
        b.capacity.converse_coeffs(PureLoss(0.3), 0.05, "Q")


def test_each_bound_is_an_eps_free_rate_plus_its_eps_terms():
    # evaluate = rate (no eps) then eps_terms (no channel), to the bit
    cases = [(PureLoss(0.7), None), (PureLoss(0.7), 1.5), (PureAmplifier(2.5), 1.5),
             (PureLoss(1.0), 2.0), (PureAmplifier(1.0), None)]
    for channel, photons in cases:
        for family in b.best_families(type(channel), photons is not None):
            for task in b.TASKS:
                a, spread = family.rate(channel, task, photons)
                for eps in (1e-4, 0.05, 0.3):
                    bq, c, n_min = family.eps_terms(spread, eps, task)
                    for n in (5, 2000):
                        got = family.evaluate(channel, n, eps, task, photons)
                        want = b.capacity.bound_value(a, bq, c, n)[0]
                        assert got.breakdown["per_use"] == a
                        assert got.breakdown["sqrt_coefficient"] == bq
                        assert got.breakdown["constant"] == -c
                        assert got.value == want
                        assert got.preconditions_met == (n >= n_min)
    # improved is ec-variance's eps rule with a zero spread
    improved, ec_variance = b.BOUND_FAMILIES["improved"], b.BOUND_FAMILIES["ec-variance"]
    for task in b.TASKS:
        assert improved.rate(PureLoss(0.7), task)[1] == 0.0
        _, c, n_min = ec_variance.eps_terms(0.0, 0.05, task)
        assert improved.eps_terms(0.0, 0.05, task) == (0.0, c, n_min)


_HUGE_INPUTS = [
    (lambda: b.ec_variance_lower_bound(0.5, 1e200, 100, 0.1, "Q2"),
     "method ec-variance cannot evaluate lambda = 0.5 with Ns = 1e+200"),
    (lambda: b.ec_variance_lower_bound(0.5, 1e308, 100, 0.1, "Q"),
     "method ec-variance cannot evaluate lambda = 0.5 with Ns = 1e+308"),
    (lambda: b.ec_aep_lower_bound(PureLoss(0.5), 1e200, 100, 0.1, "Q2"),
     "method ec-aep cannot evaluate lambda = 0.5 with Ns = 1e+200"),
    (lambda: b.ec_aep_lower_bound(PureAmplifier(1e200), 10.0, 100, 0.1, "Q2"),
     "method ec-aep cannot evaluate g = 1e+200 with Ns = 10.0"),
    (lambda: b.ec_asymptotic(PureAmplifier(1e308), "Q2", 10.0),
     "method asymptotic cannot evaluate g = 1e+308 with Ns = 10.0"),
    (lambda: b.channel_uses_sufficient(PureLoss(0.5), 100.0, 0.1, "Q2", photons=1e200),
     "method ec-aep cannot evaluate lambda = 0.5 with Ns = 1e+200"),
    (lambda: b.best_lower_bound(PureAmplifier(2.0), 100, 0.1, "K", photons=1e200),
     "method ec-aep cannot evaluate g = 2.0 with Ns = 1e+200"),
    # the public closed forms refuse by the same rule, naming themselves
    (lambda: b.petz_terms_pure_loss(0.5, 1e200),
     "petz_terms_pure_loss cannot evaluate lambda = 0.5 with Ns = 1e+200"),
    (lambda: b.petz_terms_amplifier(2.0, 1e200),
     "petz_terms_amplifier cannot evaluate g = 2.0 with Ns = 1e+200"),
    (lambda: b.entropy_variance_pure_loss(0.5, 1e200, "B|E"),
     "entropy_variance_pure_loss cannot evaluate lambda = 0.5 with Ns = 1e+200"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call,message", _HUGE_INPUTS)
def test_huge_photon_numbers_and_gains_are_refused(call, message):
    # these printed an Infinity lower bound, raised OverflowError or named
    # neither input ("argument must be finite, got inf")
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == f"{message}: an output mode would hold more than 1e+100 photons"


@pytest.mark.filterwarnings("error")
def test_photon_limit_is_inclusive_and_large_rates_are_accurate():
    # 1e100 photons in the fullest output mode is still evaluated, and finite
    for channel, photons in ((PureLoss(0.5), 1e100), (PureAmplifier(2.0), 4.9e99)):
        for family in b.best_families(type(channel), photons_given=True):
            for task in b.TASKS:
                assert math.isfinite(family.evaluate(channel, 100, 0.1, task, photons).value)
    terms = [*b.petz_terms_pure_loss(0.5, 1e100).values(),
             *b.petz_terms_amplifier(2.0, 4.9e99).values(),
             *(b.entropy_variance_pure_loss(0.5, 1e100, cut) for cut in ("A|E", "B|E"))]
    assert all(math.isfinite(term) for term in terms)
    # h no longer cancels: this read -4.0 where the rate is about 1 bit
    assert b.ec_asymptotic(PureLoss(0.5), "Q2", 1e15) == pytest.approx(1.0, rel=1e-12)
    assert b.ec_asymptotic(PureLoss(0.75), "K", 1e100) == pytest.approx(2.0, rel=1e-12)


def test_capacity_bound_record():
    res = b.improved_lower_bound_pure_loss(0.5, 100, 0.1, "Q2")
    d = res.to_dict()
    assert d["task"] == "Q2" and d["direction"] == "lower"
    assert d["vacuous"] is False
    assert set(d["breakdown"]) == {"linear", "sqrt", "constant", "per_use", "sqrt_coefficient"}
    with pytest.raises(ValueError):
        b.improved_lower_bound_pure_loss(0.5, 100, 0.1, "X")
    with pytest.raises(ValueError):
        b.improved_lower_bound_pure_loss(0.5, 0, 0.1, "Q")
    with pytest.raises(ValueError):
        b.improved_lower_bound_pure_loss(0.5, 100, 1.0, "Q")


# --------------------------------------------------------------- inversion


def test_invert_sqrt_bound():
    assert b.invert_sqrt_bound(1.0, 0.0, 20.5616, 100.0) == 121
    assert b.invert_sqrt_bound(1.0, 0.0, 0.0, 5.0) == 5
    n = b.invert_sqrt_bound(0.5, 3.0, 7.0, 40.0)
    f = lambda m: 0.5 * m - 3.0 * math.sqrt(m) - 7.0
    assert f(n) >= 40.0 and f(n - 1) < 40.0
    assert b.invert_sqrt_bound(1.0, 0.0, 0.0, 5.0, min_n=12) == 12
    assert b.invert_sqrt_bound(2.0, 1.0, 1.0, -math.inf) == 1
    # a -> 0+ puts n near 1e28, where a*n and b*sqrt(n) nearly cancel
    a, bb, c, k = 1e-12, 100.0, 30.0, 100.0
    n = b.invert_sqrt_bound(a, bb, c, k)
    f = lambda m: a * m - bb * math.sqrt(m) - c
    assert n > 1e28 and f(n) >= k and f(n - 1) < k
    with pytest.raises(ValueError):
        b.invert_sqrt_bound(0.0, 1.0, 1.0, 10.0)
    with pytest.raises(ValueError, match=r"^sqrt coefficient must be >= 0, got -0\.5$"):
        b.invert_sqrt_bound(1.0, -0.5, 1.0, 10.0)
    # an infinite rate clears any k at once
    assert b.invert_sqrt_bound(math.inf, 2.0, 1.0, 10.0) == 1
    assert b.invert_sqrt_bound(math.inf, 2.0, 1.0, 10.0, min_n=7) == 7


@pytest.mark.parametrize("n", [0, 2.5, math.inf, True, False])
def test_every_channel_use_count_must_be_a_positive_integer(n):
    # True was read as one channel use
    takers = [b.capacity.check_n, lambda n: b.upper_bound_nshot(PureLoss(0.5), n, 0.1),
              lambda n: b.aep_lower_bound_pure_loss(0.5, n, 0.1, "Q2")]
    for call in takers:
        with pytest.raises(ValueError, match=f"^n must be a positive integer, got {n}$"):
            call(n)


@pytest.mark.parametrize("k", [0.0, -3.0])
def test_channel_uses_sufficient_needs_positive_bits(k):
    with pytest.raises(ValueError, match=f"^target bits must be positive, got {k}$"):
        b.channel_uses_sufficient(PureLoss(0.5), k, 0.1, "Q2")


def test_channel_uses_sufficient_headline():
    assert b.channel_uses_sufficient(PureLoss(0.5), 100.0, 0.1, "Q2") == 121
    # Q at lam = 0.75: improved family, ceil((k + q_const)/log2(3)) uses
    eps = 0.1
    q_const = math.log2(2.0**23 * (32 - eps) ** 2 / ((16 - eps) * eps**6))
    expect = math.ceil((100.0 + q_const) / math.log2(3.0))
    got = b.channel_uses_sufficient(PureLoss(0.75), 100.0, eps, "Q")
    assert got == expect == 94
    # achieved rate really clears k at the returned n
    val = b.improved_lower_bound_pure_loss(0.75, got, eps, "Q").value
    assert val >= 100.0
    assert b.improved_lower_bound_pure_loss(0.75, got - 1, eps, "Q").value < 100.0


def test_channel_uses_sufficient_amplifier_and_energy():
    n_amp = b.channel_uses_sufficient(PureAmplifier(2.0), 50.0, 0.1, "Q2")
    assert b.aep_lower_bound_amplifier(2.0, n_amp, 0.1, "Q2").value >= 50.0
    thr = 2 * math.log2(2.0 / 0.1**2)
    assert n_amp >= thr
    n_ec = b.channel_uses_sufficient(PureLoss(0.5), 100.0, 0.1, "Q2", photons=1e6)
    assert b.best_lower_bound(PureLoss(0.5), n_ec, 0.1, "Q2", photons=1e6).value >= 100.0


def test_channel_uses_sufficient_unconstrained_loss_is_improved():
    # without photons the pure-loss count is the minimum over improved and
    # aep; aep's sqrt(n) penalty and n threshold mean improved always wins
    rng = np.random.default_rng(11)
    for _ in range(3000):
        task = str(rng.choice(["Q", "Q2", "K"]))
        lam = float(rng.uniform(0.5 if task == "Q" else 0.0, 1.0))
        eps = float(10.0 ** rng.uniform(-6, np.log10(0.5)))
        k = float(10.0 ** rng.uniform(0, 6))
        brk = b.improved_lower_bound_pure_loss(lam, 1, eps, task).breakdown
        if not brk["per_use"] > 0.0:
            continue
        expect = b.invert_sqrt_bound(brk["per_use"], brk["sqrt_coefficient"],
                                     -brk["constant"], k)
        assert b.channel_uses_sufficient(PureLoss(lam), k, eps, task) == expect
    # rates near zero, where the aep count is near 1e28 and improved's is
    # ceil((c + k)/a)
    for lam, task in ((1e-12, "Q2"), (0.5 + 1e-12, "Q")):
        brk = b.improved_lower_bound_pure_loss(lam, 1, 0.1, task).breakdown
        a, c = brk["per_use"], -brk["constant"]
        expect = math.ceil((c + 100.0) / a)
        assert b.invert_sqrt_bound(a, 0.0, c, 100.0) == expect
        assert b.channel_uses_sufficient(PureLoss(lam), 100.0, 0.1, task) == expect


def test_channel_uses_zero_capacity():
    with pytest.raises(ValueError):
        b.channel_uses_sufficient(PureLoss(0.3), 10.0, 0.1, "Q")


def test_channel_uses_necessary():
    assert b.channel_uses_necessary(PureLoss(0.5), 100.0, 0.1) == 97
    # converse really forbids k at fewer uses
    n = b.channel_uses_necessary(PureLoss(0.5), 100.0, 0.1)
    upper = b.upper_bound_nshot(PureLoss(0.5), n - 1, 0.1, "Q2").value
    assert upper < 100.0
    assert b.channel_uses_necessary(PureAmplifier(1.0), 10.0, 0.1) == 0  # infinite capacity
    with pytest.raises(ValueError):
        b.channel_uses_necessary(PureLoss(0.0), 10.0, 0.1)
