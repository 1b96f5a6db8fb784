"""Capacity formulas, n-shot bound families, and channel-use inversion."""

import collections
import dataclasses
import decimal
import math

import numpy as np
import pytest

import bosonic as b
from bosonic import PureAmplifier, PureLoss
from conftest import eigh_counter


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
    got = b.BOUND_FAMILIES["aep"].evaluate(PureLoss(lam), n, eps, "Q")
    assert got.value == pytest.approx(oracle, rel=1e-12)
    assert got.direction == "lower" and got.preconditions_met


def test_aep_loss_q2_headline():
    got = b.BOUND_FAMILIES["aep"].evaluate(PureLoss(0.5), 100, 0.1, "Q2")
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
    low = b.BOUND_FAMILIES["aep"].evaluate(PureLoss(0.6), int(thr) - 2, eps, "Q")
    assert not low.preconditions_met
    high = b.BOUND_FAMILIES["aep"].evaluate(PureLoss(0.6), int(thr) + 2, eps, "Q")
    assert high.preconditions_met


def test_aep_boundaries_report_infinity():
    res = b.BOUND_FAMILIES["aep"].evaluate(PureLoss(1.0), 100, 0.1, "Q2")
    assert res.value == math.inf and "infinite" in res.note
    res_a = b.aep_lower_bound_amplifier(1.0, 100, 0.1, "Q")
    assert res_a.value == math.inf and "infinite" in res_a.note
    # improved reads +inf with a finite sqrt(n) term, no inf - inf: the note
    # follows the infinite per-use rate, not a NaN sum
    for task in ("Q", "Q2", "K"):
        res_i = b.BOUND_FAMILIES["improved"].evaluate(PureLoss(1.0), 100, 0.1, task)
        assert res_i.value == math.inf and res_i.note == "boundary: capacity is infinite"
    with pytest.raises(ValueError):
        b.BOUND_FAMILIES["aep"].evaluate(PureLoss(1.2), 100, 0.1, "Q")


def test_aep_per_use_converges_to_capacity():
    res = b.BOUND_FAMILIES["aep"].evaluate(PureLoss(0.75), 10**6, 0.1, "Q")
    assert res.value / 10**6 == pytest.approx(math.log2(3.0), abs=0.05)


def test_generic_aep_matches_closed_forms():
    tm = b.tmsv_state(1e6)
    for task in ("Q", "Q2", "K"):
        gen = b.aep_lower_bound_generic(PureLoss(0.5), tm, 100, 0.1, task)
        closed = b.BOUND_FAMILIES["aep"].evaluate(PureLoss(0.5), 100, 0.1, task)
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


def test_generic_aep_names_its_gain_limit():
    # past g ~ 1e7 the smallest covariance eigenvalue of rho_BE (~1/g) sinks
    # into the rounding of its largest (~g), and spectral.williamson finds the
    # covariance not positive definite: refused by name, where the closed form
    # still answers
    tm = b.tmsv_state(1.0)
    for task in ("Q2", "K"):
        with pytest.raises(ValueError, match=r"cannot evaluate g = 100000000\.0: .* rho_BE .*not positive"):
            b.aep_lower_bound_generic(PureAmplifier(1e8), tm, 100, 0.1, task)
        assert math.isfinite(b.BOUND_FAMILIES["aep"].evaluate(PureAmplifier(1e8), 100, 0.1,
                                                               task).value)
    # the direct line reads no rho_BE, and a gain below the limit answers
    assert math.isfinite(b.aep_lower_bound_generic(PureAmplifier(1e8), tm, 100, 0.1, "Q").value)
    assert math.isfinite(b.aep_lower_bound_generic(PureAmplifier(1e6), tm, 100, 0.1, "Q2").value)


def test_generic_aep_below_threshold_flag():
    tm = b.tmsv_state(1.0)
    res = b.aep_lower_bound_generic(PureLoss(0.5), tm, 4, 0.1, "Q")
    assert not res.preconditions_met
    assert math.isfinite(res.value)


@pytest.mark.parametrize("channel", [PureLoss(0.7), PureAmplifier(1.5)])
@pytest.mark.parametrize("task, two_mode_states", [("Q", 3), ("Q2", 4), ("K", 4)])
def test_aep_generic_computes_the_joint_williamson_form_once(monkeypatch, channel, task,
                                                             two_mode_states):
    # rho_AB feeds two Petz entropies and two coherent informations (one each
    # for Q); it, like the input, rho_AE and rho_BE, is solved once per call
    rho_ab = b.reduce_state(b.stinespring_output(channel, b.tmsv_state(1.0)), [0, 1])
    calls = eigh_counter(monkeypatch, rho_ab.cov)
    b.aep_lower_bound_generic(channel, b.tmsv_state(1.0), 100, 0.1, task)
    assert calls == {"V": 1, "williamson": two_mode_states}


# aep_lower_bound_generic(channel, TMSV(1), 1000, 0.01, task) as recorded while
# each functional still reduced its own marginals: float.hex of the value, of
# the breakdown's linear, sqrt, constant, per_use and sqrt_coefficient, and of
# the winning line's two Petz entropies (Q2 and K agree)
_AEP_GENERIC_PINS = {
    ("loss", "Q"): ("-0x1.caa198b6cf700p+8", "0x1.443a4dde00635p+9", "-0x1.0a062960e423cp+10",
                    "-0x1.57ec7779fd3cdp+5", "0x1.4c025c062542ep-1", "0x1.0d328acd05d78p+5",
                    "-0x1.545723e88f71bp-3", "0x1.28efcd4c03a7cp+0"),
    ("loss", "Q2"): ("0x1.258a99220c28cp+8", "0x1.ed6c2fe41edf9p+9", "-0x1.52020f90ba625p+9",
                     "-0x1.149a784bcd1b9p+4", "0x1.f943c68b6332cp-1", "0x1.560a43d8c58abp+4",
                     "-0x1.991108a11a5a1p-1", "0x1.3e303ce99b8c7p+0"),
    ("amp", "Q"): ("-0x1.120e896238194p+8", "0x1.797199abbf9a6p+9", "-0x1.ecfa16e53bd33p+9",
                   "-0x1.57ec7779fd3cdp+5", "0x1.82809d5be7048p-1", "0x1.f2db890f3253fp+4",
                   "-0x1.557359984caa7p-1", "0x1.b8142f10dcd35p-1"),
    ("amp", "Q2"): ("0x1.642a39f81b66ap+6", "0x1.797199abbf9a6p+9", "-0x1.44477eaa5dc4bp+9",
                    "-0x1.149a784bcd1b9p+4", "0x1.82809d5be7048p-1", "0x1.4825c636f6799p+4",
                    "-0x1.557359984caa7p-1", "0x1.b8142f10dcd35p-1"),
}


@pytest.mark.parametrize("name, channel", [("loss", PureLoss(0.7)), ("amp", PureAmplifier(1.5))])
@pytest.mark.parametrize("task, eighs", [("Q", 10), ("Q2", 14), ("K", 14)])
def test_aep_generic_reduces_each_subsystem_once(monkeypatch, name, channel, task, eighs):
    # psi is reduced once to each of A, B, E, AB, AE and BE: the six one-mode
    # marginals the functionals rebuilt had three distinct covariances, and
    # eigh ran 12 times on Q and 20 on Q2 and K
    calls = collections.Counter()
    solve = np.linalg.eigh

    def spy(*args, **kwargs):
        calls["eigh"] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    res = b.aep_lower_bound_generic(channel, b.tmsv_state(1.0), 1000, 0.01, task)
    assert calls["eigh"] == eighs
    # bit for bit the public functionals, each reducing its own marginals
    psi = b.stinespring_output(channel, b.tmsv_state(1.0))
    rho_ab, rho_ae, rho_be = (b.reduce_state(psi, keep) for keep in ([0, 1], [0, 2], [1, 2]))
    if res.params.get("line", "direct") == "direct":
        h = {"H(A|B)": b.petz_conditional_entropy_half(rho_ab, [0]),
             "H(A|E)": b.petz_conditional_entropy_half(rho_ae, [0])}
        rate = b.coherent_information(rho_ab, [0])
    else:
        h = {"H(B|A)": b.petz_conditional_entropy_half(rho_ab, [1]),
             "H(B|E)": b.petz_conditional_entropy_half(rho_be, [0])}
        rate = b.coherent_information(rho_ab, [1])
    assert {key: res.params[key].hex() for key in h} == {key: v.hex() for key, v in h.items()}
    assert res.breakdown["per_use"].hex() == rate.hex()
    # and the recorded bits, up to the last digits another LAPACK may move
    got = (res.value, *(res.breakdown[key] for key in ("linear", "sqrt", "constant", "per_use",
                                                       "sqrt_coefficient")), *h.values())
    pins = _AEP_GENERIC_PINS[name, "Q" if task == "Q" else "Q2"]
    assert got == pytest.approx(tuple(map(float.fromhex, pins)), rel=1e-14, abs=0.0)


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
                aep = b.BOUND_FAMILIES["aep"].evaluate(PureLoss(lam), n, eps, "Q2").value
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
    u = b.BOUND_FAMILIES["aep"].evaluate(PureLoss(0.5), 100, 0.1, "Q2").value
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
        assert best.note == "boundary: capacity is infinite"
        assert b.capacity.bound_value(math.inf, math.inf, 1.0, 100) == math.inf
    assert b.capacity.first_max([1.0, 3.0, 3.0, -math.inf]) == 1
    assert b.capacity.first_max([-0.0, 0.0]) == 0


def _scalar_bound(a, bq, c, n):
    """The per-row rule on Python floats: a n, then - b sqrt(n), then - c,
    with a NaN sum read as +inf."""
    value = a * n + -bq * math.sqrt(n) + -c
    return math.inf if math.isnan(value) else value


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
    want_hex = [value.hex() for value in want]
    assert {"-0x0.0p+0", "inf"} <= set(want_hex)

    # one array of the bounds alone, the NaN sums of the inf - inf rows read as +inf
    values = b.capacity.bound_value(a, bq, c, n)
    assert isinstance(values, np.ndarray) and values.shape == (size,)
    assert [v.hex() for v in values.tolist()] == want_hex
    # broadcast as the sweep does: n along one axis, the coefficients along another
    grid = b.capacity.bound_value(a[:60, None], bq[:60, None], c[:60, None], n[None, :50])
    assert [v.hex() for v in grid.ravel().tolist()] == [
        _scalar_bound(*args, m).hex()
        for args in zip(a[:60].tolist(), bq[:60].tolist(), c[:60].tolist())
        for m in n[:50].tolist()]
    # the scalar callers get the same bits, also where a n overflows to inf
    huge = [(3.0, 0.0, 1.0, 10**308), (-3.0, 1e300, 1e308, 10**300), (2.0, 5.0, 1.0, 10**308)]
    for args, value in zip(huge + list(zip(a[:300].tolist(), bq[:300].tolist(),
                                           c[:300].tolist(), n[:300].tolist())),
                           [_scalar_bound(*args) for args in huge] + want):
        got = b.capacity.bound_value(*args)
        assert got.shape == () and float(got).hex() == value.hex()


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
                        want = b.capacity.bound_value(a, bq, c, n)
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


def _direct_eps_terms(aep: bool, spread: float, eps: float, task: str):
    """(b, c, n_min) by the direct power forms, which hold while every power
    of eps stays a normal float."""
    if aep:
        if task == "Q":
            sqrt_log = math.sqrt(math.log2(2.0**9 / eps**2))
            const = math.log2(2.0**18 / (3.0 * eps**4))
        else:
            sqrt_log, const = math.sqrt(math.log2(8.0 / eps)), math.log2(16.0 / eps**2)
        return spread * sqrt_log, const, 2.0 * math.log2(2.0 / eps**2)
    if task == "Q":
        return (4.0 * math.sqrt(spread / eps),
                math.log2(2.0**23 * (32.0 - eps) ** 2 / ((16.0 - eps) * eps**6)), 0.0)
    se = math.sqrt(eps)
    return (math.sqrt(2.0 * spread / se),
            math.log2(2.0**6 * 3.0 * (4.0 - se) ** 2 / ((2.0 - se) * eps**3)), 0.0)


def _decimal_eps_terms(aep: bool, spread: float, eps: float, task: str):
    """(b, c, n_min) in 80-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        e, v, two = decimal.Decimal(eps), decimal.Decimal(spread), decimal.Decimal(2)

        def log2(x):
            return x.ln() / two.ln()

        if aep:
            if task == "Q":
                terms = (v * log2(2**9 / e**2).sqrt(), log2(2**18 / (3 * e**4)))
            else:
                terms = (v * log2(8 / e).sqrt(), log2(16 / e**2))
            return tuple(float(x) for x in (*terms, 2 * log2(2 / e**2)))
        if task == "Q":
            terms = (4 * (v / e).sqrt(), log2(2**23 * (32 - e) ** 2 / ((16 - e) * e**6)))
        else:
            se = e.sqrt()
            terms = ((2 * v / se).sqrt(), log2(2**6 * 3 * (4 - se) ** 2 / ((2 - se) * e**3)))
        return (*(float(x) for x in terms), 0.0)


_TINY_EPS = (1e-50, 1e-53, 1e-60, 1e-78, 1e-82, 1e-109, 1e-155, 1e-163, 1e-300, 1e-308,
             1e-310, 5e-324)


def test_eps_terms_at_every_eps_against_decimal():
    # eps^6, eps^4, eps^3 and eps^2 left the normal float range: a constant of
    # inf or a ZeroDivisionError below ~1e-52 (Q, improved), ~1e-77 (Q, aep),
    # ~1e-103 (K, improved) and ~1e-154 (K, aep); 4 sqrt(V / eps) overflowed
    # at a subnormal eps
    for method in ("aep", "ec-variance"):
        family = b.BOUND_FAMILIES[method]
        for task in b.TASKS:
            for spread in (0.0, 1.7, 40.0):
                for eps in (0.3, 1e-4, 1e-40, *_TINY_EPS):
                    got = family.eps_terms(spread, eps, task)
                    want = _decimal_eps_terms(family.aep_threshold, spread, eps, task)
                    assert got == pytest.approx(want, rel=1e-13, abs=0.0), (method, task, eps)


def test_eps_terms_keep_their_bits_where_the_powers_are_normal():
    for method in ("aep", "ec-variance"):
        family = b.BOUND_FAMILIES[method]
        for task in b.TASKS:
            for spread in (0.0, 1.7, 40.0):
                for eps in (0.999, 0.3, 0.1, 0.05, 1e-3, 1e-12, 1e-40, 1e-45):
                    got = family.eps_terms(spread, eps, task)
                    want = _direct_eps_terms(family.aep_threshold, spread, eps, task)
                    assert [x.hex() for x in got] == [x.hex() for x in want], (method, eps)


def test_bounds_and_channel_uses_at_tiny_eps():
    # a ZeroDivisionError, or a bound of -inf, before
    for eps in _TINY_EPS:
        for task in b.TASKS:
            for bound in (b.improved_lower_bound_pure_loss(0.7, 100, eps, task),
                          b.aep_lower_bound_amplifier(2.5, 100, eps, task),
                          b.ec_variance_lower_bound(0.7, 1.5, 100, eps, task)):
                assert math.isfinite(bound.value), (bound.method, task, eps)
            assert b.channel_uses_sufficient(PureLoss(0.7), 100.0, eps, task) > 100
    # a guess past the float range is refused by name, not an OverflowError
    with pytest.raises(ValueError, match="^the inverted bound overflows a float: more than "
                                         "1e300 channel uses are needed$"):
        b.channel_uses_sufficient(PureLoss(0.9), 100.0, 1e-320, "Q", photons=1000.0)


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind,param", [
    pytest.param(kind, param, id=f"{kind.__name__}-{type(param).__name__}")
    for kind, values in ((PureLoss, (np.float32(0.7), 1, np.float64(0.7))),
                         (PureAmplifier, (np.float32(1.3), 2, np.float64(1.3))))
    for param in values])
def test_channels_keep_the_float_they_checked(kind, param):
    # the raw argument was stored: a float32 lambda = 0.7 computed aep in
    # float32 (1030.5939197084292 for 1030.5938992148958), params carried
    # np.float32(0.7), and ec-aep on a float32 gain warned "overflow
    # encountered in cast"
    channel, same = kind(param), kind(float(param))
    assert channel == same and type(dataclasses.astuple(channel)[0]) is float
    bounds = [(family.evaluate(channel, 1000, 0.01, task, 1.5),
               family.evaluate(same, 1000, 0.01, task, 1.5))
              for family in b.best_families(kind, True) for task in b.TASKS]
    bounds += [(b.upper_bound_nshot(channel, 1000, 0.01), b.upper_bound_nshot(same, 1000, 0.01))]
    for got, want in bounds:
        assert got.value.hex() == want.value.hex(), got.method
        assert got.params == want.params
        assert all(type(value) is float for value in got.params.values())


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
              lambda n: b.BOUND_FAMILIES["aep"].evaluate(PureLoss(0.5), n, 0.1, "Q2")]
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
