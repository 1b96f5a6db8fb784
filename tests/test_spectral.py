"""Williamson machinery, entropies, Petz conditional entropy, overlaps."""

import decimal
import math

import numpy as np
import pytest

import bosonic as b
from bosonic import spectral
from conftest import random_state, random_symplectic


def test_h_function_values():
    assert b.h_function(0.0) == 0.0
    assert b.h_function(1.0) == pytest.approx(2.0, abs=1e-15)
    assert b.h_function(3.0) == pytest.approx(8.0 - 3.0 * math.log2(3.0), abs=1e-14)
    with pytest.raises(ValueError, match=r"^argument must be >= 0, got -1\.0$"):
        b.h_function(-1.0)


def _h_oracle(x: float) -> float:
    # the defining expression in decimal, with enough digits that (x+1) is
    # exact and the cancellation of the two terms costs nothing
    with decimal.localcontext() as ctx:
        ctx.prec = 340
        d, one = decimal.Decimal(x), decimal.Decimal(1)
        return float(((d + one) * (d + one).ln() - d * d.ln()) / decimal.Decimal(2).ln())


def test_h_function_matches_a_decimal_oracle_up_to_1e300():
    # the direct form cancelled: 6% off at 1e15, 0.0 at 1e16 (true value 54.6)
    for x in np.geomspace(1e-2, 1e300, 303).tolist() + [99.99, 100.0, 1e15, 1e16]:
        assert b.h_function(x) == pytest.approx(_h_oracle(x), rel=2.5e-14, abs=0.0), x


def test_h_function_keeps_the_direct_form_below_100():
    # every pinned result evaluates h below 100, so its digits must not move
    for x in np.geomspace(1e-3, 99.999, 500).tolist():
        assert b.h_function(x) == float((x + 1.0) * np.log2(x + 1.0) - x * np.log2(x))


def test_williamson_reconstruction():
    rng = np.random.default_rng(17)
    for modes in (1, 2, 3):
        for _ in range(6):
            st = random_state(rng, modes, max_squeeze=2.0)
            s, d = b.williamson(st.cov)
            om = b.symplectic_form(modes)
            assert np.allclose(s @ om @ s.T, om, atol=1e-9)
            rebuilt = s @ np.diag(np.repeat(d, 2)) @ s.T
            scale = np.linalg.norm(st.cov, 2)
            assert np.max(np.abs(rebuilt - st.cov)) <= 1e-10 * scale
            assert np.all(np.diff(d) <= 1e-12)  # descending
            assert np.all(d >= 1.0 - 1e-9)


def _symplectic_eigenvalues_non_hermitian(cov):
    """Reference route: moduli of the eigenvalues of ``i V Omega``, pairs collapsed."""
    mags = np.abs(np.linalg.eigvals(1j * cov @ b.symplectic_form(cov.shape[0] // 2)))
    mags.sort()
    return mags[::2][::-1]


def test_symplectic_eigenvalues_match_williamson():
    rng = np.random.default_rng(19)
    for modes in (1, 2, 3, 4):
        for _ in range(5):
            st = random_state(rng, modes)
            _, d_w = b.williamson(st.cov)
            d_e = b.symplectic_eigenvalues(st.cov)
            assert np.allclose(d_w, d_e, atol=1e-10)
            assert np.allclose(d_e, _symplectic_eigenvalues_non_hermitian(st.cov),
                               rtol=0, atol=1e-10)


def test_williamson_degenerate_spectra():
    rng = np.random.default_rng(41)
    s3 = random_symplectic(rng, 3, max_squeeze=2.0)
    cases = [
        (b.tensor([b.thermal_state(1.5)] * 3).cov, [4.0, 4.0, 4.0]),
        (b.tmsv_state(2.0).cov, [1.0, 1.0]),
        (s3 @ np.diag(np.repeat([2.5, 2.5, 1.0], 2)) @ s3.T, [2.5, 2.5, 1.0]),
    ]
    for cov, expect in cases:
        s, d = b.williamson(cov)
        assert np.allclose(d, expect, rtol=1e-12, atol=0)
        om = b.symplectic_form(cov.shape[0] // 2)
        assert np.max(np.abs(s @ om @ s.T - om)) <= 1e-12 * np.linalg.norm(s, 2) ** 2
        rebuilt = s @ np.diag(np.repeat(d, 2)) @ s.T
        assert np.max(np.abs(rebuilt - cov)) <= 1e-12 * np.linalg.norm(cov, 2)


def test_symplectic_eigenvalues_reject_non_positive_definite():
    for cov in (np.diag([1.0, -0.5]), np.zeros((2, 2)), np.diag([2.0, 1.0, 1.0, 0.0])):
        with pytest.raises(ValueError, match="positive definite"):
            b.symplectic_eigenvalues(cov)


def test_entropy_known_values():
    assert b.von_neumann_entropy(b.vacuum_state()) == pytest.approx(0.0, abs=1e-12)
    assert b.von_neumann_entropy(b.thermal_state(1.0)) == pytest.approx(2.0, abs=1e-12)
    two = b.tensor([b.thermal_state(1.0), b.thermal_state(3.0)])
    expect = 2.0 + b.h_function(3.0)
    assert b.von_neumann_entropy(two) == pytest.approx(expect, abs=1e-12)
    # TMSV is pure
    assert b.von_neumann_entropy(b.tmsv_state(2.0)) == pytest.approx(0.0, abs=1e-9)


def test_entropy_symplectic_invariance():
    rng = np.random.default_rng(29)
    st = random_state(rng, 2)
    s_val = b.von_neumann_entropy(st)
    for _ in range(5):
        s = random_symplectic(rng, 2)
        moved = b.GaussianState(st.mean, s @ st.cov @ s.T)
        assert abs(b.von_neumann_entropy(moved) - s_val) <= 1e-9


def test_coherent_information_product_and_loss():
    two = b.tensor([b.thermal_state(1.0), b.thermal_state(1.0)])
    assert b.coherent_information(two, [0]) == pytest.approx(-2.0, abs=1e-12)
    # loss channel at lam, N_s: I_c = h(lam Ns) - h((1-lam) Ns)
    lam, ns = 0.75, 5.0
    out = b.stinespring_output(b.PureLoss(lam), b.tmsv_state(ns))
    rho_ab = b.reduce_state(out, [0, 1])
    expect = b.h_function(lam * ns) - b.h_function((1 - lam) * ns)
    assert b.coherent_information(rho_ab, [0]) == pytest.approx(expect, abs=1e-9)


def test_v_sqrt_thermal():
    w = b.v_sqrt(3.0 * np.eye(2))
    assert np.allclose(w, (3.0 + 2.0 * math.sqrt(2.0)) * np.eye(2), atol=1e-12)
    # pure covariance is a fixed point
    tm = b.tmsv_state(1.0)
    assert np.allclose(b.v_sqrt(tm.cov), tm.cov, atol=1e-9)


def test_trace_sqrt_thermal():
    # tr sqrt(rho) = det(v_sqrt(V))^(1/4); spectrum 2^-(n+1): the sum of
    # square roots is 1 + sqrt(2)
    def trace_sqrt(state):
        return np.linalg.det(b.v_sqrt(state.cov)) ** 0.25

    assert trace_sqrt(b.thermal_state(1.0)) == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-12)
    assert trace_sqrt(b.vacuum_state()) == pytest.approx(1.0, abs=1e-12)


def _petz_on_coords(state, bc):
    """H_{1/2}(A|B) with the B quadratures listed by hand as ``bc``: the
    same determinants, so the same bits as the library's index array."""
    w_ab = b.v_sqrt(state.cov)
    w_b = b.v_sqrt(state.cov[np.ix_(bc, bc)])
    _, logdet_ab = np.linalg.slogdet(w_ab)
    _, logdet_b = np.linalg.slogdet(w_b)
    _, logdet_mix = np.linalg.slogdet((w_ab[np.ix_(bc, bc)] + w_b) / 2.0)
    return float((0.5 * (logdet_ab + logdet_b) - logdet_mix) / np.log(2.0))


def test_petz_conditional_entropy_product_state():
    # product state: H(A|B) = 2 log2 Tr sqrt(rho_A)
    prod = b.tensor([b.thermal_state(1.0), b.vacuum_state()])
    got = b.petz_conditional_entropy_half(prod, [0])
    assert got == pytest.approx(2.0 * math.log2(1.0 + math.sqrt(2.0)), abs=1e-10)
    assert got.hex() == _petz_on_coords(prod, [2, 3]).hex()
    out = b.stinespring_output(b.PureLoss(0.3), b.tmsv_state(0.8))
    for a_modes, bc in [([0], [2, 3, 4, 5]), ([2], [0, 1, 2, 3]), ([0, 2], [2, 3])]:
        got = b.petz_conditional_entropy_half(out, a_modes)
        assert got.hex() == _petz_on_coords(out, bc).hex()


def test_petz_conditional_entropy_tmsv_schmidt_oracle():
    # Schmidt form: H_{1/2}(A|B) = 2 log2 sum_n p_n^{3/2} for |psi> with
    # Schmidt weights p_n (here geometric with N=1)
    got = b.petz_conditional_entropy_half(b.tmsv_state(1.0), [0])
    oracle = 2.0 * math.log2(sum(2.0 ** (-1.5 * (n + 1)) for n in range(400)))
    assert got == pytest.approx(oracle, abs=1e-10)
    assert got == pytest.approx(-1.7412062532355603, abs=1e-10)
    assert got.hex() == _petz_on_coords(b.tmsv_state(1.0), [2, 3]).hex()


def test_gaussian_overlap_values():
    t1 = b.thermal_state(1.0)
    assert b.gaussian_overlap(t1, t1) == pytest.approx(1.0 / 3.0, abs=1e-13)
    assert b.gaussian_overlap(t1, b.vacuum_state()) == pytest.approx(0.5, abs=1e-13)
    # displaced vacua: |<a|b>|^2 = exp(-|shift|^2/2) in this normalization
    ca = b.apply_transform(b.vacuum_state(), b.displacement([1.0, 0.5]))
    cb = b.vacuum_state()
    expect = math.exp(-(1.0**2 + 0.5**2) / 2.0)
    assert b.gaussian_overlap(ca, cb) == pytest.approx(expect, abs=1e-13)


def test_gaussian_overlap_symmetry():
    rng = np.random.default_rng(31)
    x = random_state(rng, 2)
    y = random_state(rng, 2)
    assert b.gaussian_overlap(x, y) == pytest.approx(b.gaussian_overlap(y, x), rel=1e-12)


def test_thermal_entropy_variance():
    assert b.thermal_entropy_variance(1.0) == 2.0
    assert b.thermal_entropy_variance(0.0) == 0.0
    n = 2.7
    expect = n * (n + 1) * math.log2(1.0 + 1.0 / n) ** 2
    assert b.thermal_entropy_variance(n) == pytest.approx(expect, rel=1e-14)


@pytest.mark.parametrize("y", [1e2, 1e8, 1e14, 1e16])
def test_log_ratio_and_thermal_variance_match_80_digit_decimal(y):
    # log2(y) - log2(1 + y) and log2(1 + 1/y) cancel at large y: the direct
    # forms were 1.2e-7 off at 1e8 and returned 0.0 at 1e16
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        d, ln2 = decimal.Decimal(y), decimal.Decimal(2).ln()
        log_ratio = (d / (d + 1)).ln() / ln2
        variance = d * (d + 1) * ((1 + 1 / d).ln() / ln2) ** 2
    assert float(log_ratio) == pytest.approx(spectral._log_ratio(y), rel=1e-15, abs=0.0)
    assert float(variance) == pytest.approx(b.thermal_entropy_variance(y), rel=1e-15, abs=0.0)


def test_log_ratio_keeps_the_direct_form_below_100():
    # pinned ec-variance results evaluate it below 100
    for y in np.geomspace(1e-3, 99.999, 500).tolist():
        assert spectral._log_ratio(y) == float(np.log2(y) - np.log2(1.0 + y))


def _variance_250_digits(lam, ns, cut):
    """V(A|E) or V(B|E) as the closed form's three terms, in 250 digits: at
    most 200 of them cancel up to Ns = 1e100."""
    with decimal.localcontext() as ctx:
        ctx.prec = 250
        lam, ns, ln2 = decimal.Decimal(lam), decimal.Decimal(ns), decimal.Decimal(2).ln()
        mu = 1 - lam

        def log_ratio(y):
            return (y / (1 + y)).ln() / ln2

        def var(y):
            return y * (1 + y) * log_ratio(y) ** 2

        if cut == "A|E":
            return var(lam * ns) + var(mu * ns) - 2 * mu * lam * ns * ns * log_ratio(mu * ns) * log_ratio(lam * ns)
        return var(ns) + var(mu * ns) - 2 * mu * ns * (1 + ns) * log_ratio(mu * ns) * log_ratio(ns)


@pytest.mark.parametrize("cut", ["A|E", "B|E"])
@pytest.mark.parametrize("lam", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("ns", [1e2, 1e4, 1e8, 1e14, 1e16, 1e50, 1e100])
def test_entropy_variance_matches_decimal_at_large_photon_numbers(ns, lam, cut):
    # t1 + t2 - cross cancels: at lambda = 0.5 V(A|E) was 6.7e-2 off at
    # Ns = 1e16, and V(B|E) 6.1e-2 off at 1e14 and 0.0 at 1e16.  From 1e32 on
    # the rounding of x1 - x2 alone would exceed V, were it not dropped
    value = b.entropy_variance_pure_loss(lam, ns, cut)
    assert value > 0.0
    assert value == pytest.approx(float(_variance_250_digits(lam, ns, cut)), rel=1e-12, abs=0.0)


def test_entropy_variance_cut_aliases_and_boundaries():
    lam, ns = 0.35, 1.4
    assert b.entropy_variance_pure_loss(lam, ns, "A|E") == b.entropy_variance_pure_loss(lam, ns, "A|B")
    assert b.entropy_variance_pure_loss(lam, ns, "B|E") == b.entropy_variance_pure_loss(lam, ns, "B|A")
    for cut in ("A|E", "B|E"):
        assert b.entropy_variance_pure_loss(1.0, ns, cut) == pytest.approx(
            b.thermal_entropy_variance(ns), rel=1e-12)
    assert b.entropy_variance_pure_loss(0.0, ns, "B|E") == 0.0
    # a vacuum input carries no entropy, so no variance, at any transmissivity
    for lam_0 in (0.0, 0.35, 1.0):
        for cut in ("A|E", "B|E"):
            assert b.entropy_variance_pure_loss(lam_0, 0.0, cut) == 0.0
    assert b.entropy_variance_pure_loss(0.0, ns, "A|E") == pytest.approx(
        b.thermal_entropy_variance(ns), rel=1e-12)
    with pytest.raises(ValueError):
        b.entropy_variance_pure_loss(lam, ns, "E|A")


def test_entropy_variance_is_not_negative_at_zero_transmissivity():
    # at lambda = 0 the three terms of V(B|E) cancel to the analytic 0, and
    # rounding may leave a few ulps below it, which ec-variance's square root
    # would refuse (e.g. Ns = 10, task Q2)
    for ns in np.geomspace(1e-3, 1e3, 121):
        for lam in (0.0, 1e-17):
            assert b.entropy_variance_pure_loss(lam, float(ns), "B|E") >= 0.0
    for task in b.TASKS:
        assert math.isfinite(b.ec_variance_lower_bound(0.0, 10.0, 100, 0.1, task).value)

