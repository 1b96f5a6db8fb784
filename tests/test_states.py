"""States, transforms, channels, and the serialization round trip."""

import math
import re
import warnings

import numpy as np
import pytest

import bosonic as b
from bosonic import GaussianState, InvalidStateError, PureAmplifier, PureLoss
from bosonic.cli import _encode
from bosonic.states import UNCERTAINTY_TOL
from conftest import random_state, random_symplectic

SZ = np.diag([1.0, -1.0])


def test_vacuum_and_thermal():
    vac = b.vacuum_state()
    assert np.array_equal(vac.cov, np.eye(2))
    assert np.array_equal(vac.mean, np.zeros(2))
    t = b.thermal_state(1.0)
    assert np.array_equal(t.cov, 3.0 * np.eye(2))
    assert b.thermal_state(0.0).cov[0, 0] == 1.0
    with pytest.raises(ValueError):
        b.thermal_state(-0.1)


def test_tmsv_structure():
    n = 1.0
    tm = b.tmsv_state(n)
    c = 2.0 * math.sqrt(n * (n + 1))
    expect = np.block([[3.0 * np.eye(2), c * SZ], [c * SZ, 3.0 * np.eye(2)]])
    assert np.allclose(tm.cov, expect, atol=0, rtol=0)
    assert b.mean_photon_number(tm) == pytest.approx(2.0, abs=1e-14)
    # purification of the thermal state
    red = b.reduce_state(tm, [0])
    assert np.array_equal(red.cov, b.thermal_state(n).cov)


def _physical(state: GaussianState) -> bool:
    """``validate_state(state).ok``, asserted to be ``require_valid``'s verdict too."""
    ok = b.validate_state(state).ok
    try:
        assert b.require_valid(state) is state
        valid = True
    except InvalidStateError:
        valid = False
    assert ok is valid
    return ok


def test_state_validation():
    assert _physical(b.vacuum_state())
    bad = GaussianState(np.zeros(2), 0.5 * np.eye(2))
    rep = b.validate_state(bad)
    assert not _physical(bad)
    assert rep.uncertainty_margin == pytest.approx(-0.5, abs=1e-12)
    with pytest.raises(InvalidStateError):
        b.require_valid(bad)
    # near-boundary dips only warn
    almost = GaussianState(np.zeros(2), (1.0 - 1e-10) * np.eye(2))
    rep2 = b.validate_state(almost)
    assert _physical(almost) and rep2.warnings
    # the floor UNCERTAINTY_TOL, far above the rounding of a vacuum-sized state
    for dip, ok in ((0.9 * UNCERTAINTY_TOL, True), (1.1 * UNCERTAINTY_TOL, False)):
        assert _physical(GaussianState(np.zeros(4), (1.0 - dip) * np.eye(4))) is ok


def test_uncertainty_tolerance_scales_with_the_state():
    # a pure state of entries near 1e9: its margin -1.196e-07 is eigensolver
    # noise, and a fixed tolerance of 1e-9 refused it
    squeezed = b.apply_transform(b.tmsv_state(1.0), b.two_mode_squeezer(1e8))
    top = np.linalg.eigvalsh(squeezed.cov + 1j * b.symplectic_form(2))[-1]
    tol = 64 * 4 * np.finfo(float).eps * top  # 64 ulps per dimension of the top eigenvalue
    assert 1.3e-4 < tol < 1.4e-4
    rep = b.validate_state(squeezed)
    assert _physical(squeezed) and -1e-6 < rep.uncertainty_margin < 0.0
    assert rep.warnings == (f"uncertainty margin {rep.uncertainty_margin:.3e} is negative but "
                            f"within tolerance {tol:.3e}, the rounding of the largest "
                            "eigenvalue of V + i*Omega",)
    # the margin pushed just inside the scaled tolerance passes, just past it fails
    for factor, ok in ((0.9, True), (1.1, False)):
        pushed = GaussianState(squeezed.mean, squeezed.cov - factor * tol * np.eye(4))
        assert _physical(pushed) is ok
    # a margin of -2.1 (negative covariance eigenvalues), a 5e8-photon mode next
    # to a sub-vacuum one, and a state whose top eigenvalue overflows, so that no
    # margin can be told from rounding: each is refused
    big = 0.9 * b.states.MAX_ENTRY
    overflowing = np.eye(6)
    overflowing[::2, ::2] += big  # three x quadratures correlated; V + i*Omega >= 0
    assert np.linalg.eigvalsh(overflowing + 1j * b.symplectic_form(3))[-1] == np.inf
    for cov in (squeezed.cov - 2.1 * np.eye(4), np.diag([1e9, 1e9, 0.5, 0.5]), overflowing):
        assert not _physical(GaussianState(np.zeros(len(cov)), cov))


def test_sub_vacuum_mode_next_to_a_huge_one_refused():
    # the normwise margin -0.5 lies within the 1e13 mode's rounding, 0.568;
    # the congruence by each mode's mean variance shows the sub-vacuum mode at -1
    hidden = GaussianState(np.zeros(4), np.diag([1e13, 1e13, 0.5, 0.5]))
    top = np.linalg.eigvalsh(hidden.cov + 1j * b.symplectic_form(2))[-1]
    assert 64 * 4 * np.finfo(float).eps * top > 0.5
    assert b.validate_state(hidden).to_dict() == {
        "ok": False, "modes": 2, "symmetry_defect": 0.0, "uncertainty_margin": -0.5,
        "warnings": []}
    assert not _physical(hidden)
    with pytest.raises(InvalidStateError, match="uncertainty margin -5.000e-01"):
        b.tail_bound_optimized(hidden, 10)
    # so is a sub-vacuum pair, each of whose modes alone is physical
    pair = np.zeros((6, 6))
    pair[:2, :2], pair[2:, 2:] = 1e13 * np.eye(2), b.tmsv_state(1.0).cov - 0.6 * np.eye(4)
    assert not _physical(GaussianState(np.zeros(6), pair))
    # beside a 1e14 mode (normwise tolerance 5.7) the normwise test passes; a
    # mode with a zero variance, a trace <= 0, or one so small that the scaled
    # matrix overflows then fails the scaled test, with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for low in ([0.0, 1.0], [-1.0, 1.0], [1e-320, 1e-320]):
            state = GaussianState(np.zeros(4), np.diag([1e14, 1e14] + low))
            assert -5.0 < b.validate_state(state).uncertainty_margin < 0.0
            assert not _physical(state)
    # scaling keeps every physical state physical: one squeezed to a diagonal
    # entry of 1e-8 and one amplified to 1.2e9 pass, and report the normwise margin
    rng = np.random.default_rng(27)
    squeezed = b.apply_transform(b.tensor([b.thermal_state(0.0), b.thermal_state(0.5)]),
                                 b.Transform(np.diag([1e4, 1e-4, 1e-4, 1e4]), np.zeros(4)))
    amplified = b.apply_transform(b.tmsv_state(1.0), b.two_mode_squeezer(1e8))
    for state in (squeezed, amplified, random_state(rng, 3, pure=True)):
        margin = np.linalg.eigvalsh(state.cov + 1j * b.symplectic_form(state.modes))[0]
        assert _physical(state) and b.validate_state(state).uncertainty_margin == margin


def test_cancelling_variance_stays_physical():
    # a balanced beam splitter leaves each mode of a TMSV with p = a - c ~
    # 1/(4N), whose rounding (an ulp of a ~ 2N) is far above an ulp of p: the
    # scaled test reads it against the mode's mean variance, not against p
    for photons in np.logspace(2.0, 6.0, 41):
        split = b.apply_transform(b.tmsv_state(photons), b.beam_splitter(0.5))
        assert split.cov[1, 1] < 1.0 / photons and _physical(split)
    # a squeezer that undoes the TMSV (after a phase flip of mode 1) leaves
    # the vacuum up to the rounding of its N^2 terms
    flip = b.Transform(np.diag([1.0, 1.0, -1.0, -1.0]), np.zeros(4))
    for photons in (1.0, 10.0, 100.0, 1000.0):
        undone = b.apply_transform(b.apply_transform(b.tmsv_state(photons), flip),
                                   b.two_mode_squeezer(photons + 1.0))
        assert np.max(np.abs(undone.cov - np.eye(4))) < 1e-9 and _physical(undone)


def test_a_transform_output_is_its_symmetric_part():
    # S V S^T rounds each entry with its terms, not with the result: undoing
    # a TMSV of 1e4 photons left a defect of 3.9e-9 beside entries of ~1,
    # which the state refused as "not symmetric".  The output is now the
    # symmetric part of the product, and the uncertainty test decides
    flip = b.Transform(np.diag([1.0, 1.0, -1.0, -1.0]), np.zeros(4))
    reports = {}
    for photons in (3e3, 1e4, 1e5, 1e6):
        undone = b.apply_transform(b.apply_transform(b.tmsv_state(photons), flip),
                                   b.two_mode_squeezer(photons + 1.0))
        assert np.array_equal(undone.cov, undone.cov.T)
        reports[photons] = b.validate_state(undone)
        assert reports[photons].symmetry_defect == 0.0
    # the rounding of ~N^2 terms sinks the vacuum below the tolerance: it
    # refuses these as it refused 3e3, whose product was symmetric enough
    for photons, margin in ((3e3, -1.3e-9), (1e4, -1.3e-8), (1e5, -7.7e-7)):
        report = reports[photons]
        assert not report.ok and report.uncertainty_margin == pytest.approx(margin, rel=0.2)


def test_asymmetric_covariance_rejected():
    skew = [[1.5, 5.0], [-5.0, 1.5]]
    with pytest.raises(InvalidStateError, match="not symmetric"):
        GaussianState(np.zeros(2), skew)
    with pytest.raises(InvalidStateError, match="not symmetric"):
        b.state_from_dict({"modes": 1, "mean": [0.0, 0.0], "cov": skew})
    # rounding-level asymmetry is accepted and stored symmetrized
    st = GaussianState(np.zeros(2), [[3.0, 1e-13], [0.0, 3.0]])
    assert np.array_equal(st.cov, st.cov.T)
    assert b.validate_state(st).symmetry_defect == 0.0


def test_state_shape_errors():
    with pytest.raises(InvalidStateError):
        GaussianState(np.zeros(3), np.eye(2))
    with pytest.raises(InvalidStateError):
        GaussianState(np.zeros(2), np.eye(3))
    with pytest.raises(InvalidStateError):
        GaussianState(np.array([np.nan, 0.0]), np.eye(2))


def test_symplectic_form_and_transform_check():
    om = b.symplectic_form(2)
    assert np.array_equal(om, -om.T)
    assert np.array_equal(om @ om, -np.eye(4))
    with pytest.raises(ValueError):
        b.Transform(np.diag([2.0, 1.0]), np.zeros(2))  # not symplectic


def test_non_finite_transforms_and_gains_rejected():
    # a NaN defect compares False with any tolerance: it must still fail
    with pytest.raises(ValueError, match="not symplectic"):
        b.Transform(np.full((2, 2), np.nan), np.zeros(2))
    # an infinite entry is rejected before S Omega S^T, where inf * 0 warns,
    # and an infinite shift before it reaches a state
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not symplectic: it has non-finite entries"):
            b.Transform(np.array([[np.inf, 0.0], [0.0, 1.0]]), np.zeros(2))
        with pytest.raises(ValueError, match="shift has non-finite entries"):
            b.Transform(np.eye(2), np.array([np.inf, 0.0]))
    for gain in (math.nan, math.inf):
        for make in (PureAmplifier, b.two_mode_squeezer,
                     lambda g: b.petz_terms_amplifier(g, 1.0)):
            with pytest.raises(ValueError, match="gain must be finite"):
                make(gain)


def test_symplectic_check_scales_with_the_matrix():
    # an absolute 1e-8 refused two_mode_squeezer(1e8) for rounding alone
    # (defect 1.490e-08), and with it the amplifier's dilation at that gain
    for gain in (1e8, 1e12):
        out = b.stinespring_output(PureAmplifier(gain), b.tmsv_state(1.0))
        assert np.allclose(b.reduce_state(out, [0]).cov, b.thermal_state(1.0).cov)
    # a perturbed symplectic is still refused at every scale, and so is one
    # whose scale hides a defect of its own size
    for gain in (2.0, 1e8, 1e12):
        s = b.two_mode_squeezer(gain).symplectic.copy()
        s[0, 0] *= 1.0 + 1e-6
        with pytest.raises(ValueError, match="^matrix is not symplectic"):
            b.Transform(s, np.zeros(4))
    with pytest.raises(ValueError, match=r"^matrix is not symplectic \(defect 1\.000e\+09\)$"):
        b.Transform(np.diag([1e9, 1.0]), np.zeros(2))
    # an overflowing product fails, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^matrix is not symplectic \(defect inf\)$"):
            b.Transform(np.diag([1e200, 1e200]), np.zeros(2))


def test_beam_splitter_action():
    # transmitted arm of a thermal state is thermal with lam*N photons
    lam, n = 0.7, 2.0
    joint = b.tensor([b.thermal_state(n), b.vacuum_state()])
    out = b.apply_transform(joint, b.beam_splitter(lam))
    trans = b.reduce_state(out, [0])
    assert np.allclose(trans.cov, b.thermal_state(lam * n).cov, atol=1e-12)
    refl = b.reduce_state(out, [1])
    assert np.allclose(refl.cov, b.thermal_state((1 - lam) * n).cov, atol=1e-12)


def test_two_mode_squeezer_on_vacuum_gives_tmsv():
    g = 2.0  # cosh^2 r with sinh^2 r = g - 1 photons per arm
    joint = b.tensor([b.vacuum_state(), b.vacuum_state()])
    out = b.apply_transform(joint, b.two_mode_squeezer(g))
    assert np.allclose(out.cov, b.tmsv_state(g - 1.0).cov, atol=1e-12)


def test_displacement():
    shift = [math.sqrt(2.0), 0.0]
    coh = b.apply_transform(b.vacuum_state(), b.displacement(shift))
    assert np.array_equal(coh.cov, np.eye(2))
    assert np.allclose(coh.mean, shift)
    assert b.mean_photon_number(coh) == pytest.approx(1.0, abs=1e-14)
    # a shift of odd length, or not flat, is named as given
    for bad, shown in (([0.3], "[0.3]"), ([0.1, 0.2, 0.3], "[0.1, 0.2, 0.3]"),
                       ([[0.1, 0.2]], "[[0.1, 0.2]]")):
        with pytest.raises(ValueError, match=re.escape(f"(length 2k), got {shown}")):
            b.displacement(bad)


def test_apply_transform_on_selected_modes():
    rng = np.random.default_rng(7)
    st = random_state(rng, 3)
    tr = b.beam_splitter(0.3)
    out = b.apply_transform(st, tr, modes=[2, 0])
    # untouched mode 1 keeps its marginal
    assert np.allclose(b.reduce_state(out, [1]).cov, b.reduce_state(st, [1]).cov, atol=1e-12)
    # explicit embedding oracle: permute (2,0,1) -> apply on first pair -> permute back
    with pytest.raises(ValueError):
        b.apply_transform(st, tr, modes=[0, 0])
    with pytest.raises(ValueError):
        b.apply_transform(st, tr, modes=[0])


def test_tensor_then_reduce_roundtrip():
    rng = np.random.default_rng(11)
    a = random_state(rng, 1)
    c = random_state(rng, 2)
    joint = b.tensor([a, c])
    assert joint.modes == 3
    back = b.reduce_state(joint, [0])
    assert np.allclose(back.cov, a.cov, atol=0)
    assert np.allclose(back.mean, a.mean, atol=0)
    swapped = b.reduce_state(joint, [2, 1])
    assert np.allclose(swapped.cov[:2, :2], c.cov[2:, 2:], atol=0)


def test_mean_photon_number_includes_displacement():
    st = GaussianState(np.array([2.0, 0.0]), 3.0 * np.eye(2))
    assert b.mean_photon_number(st) == pytest.approx(1.0 + 2.0, abs=1e-14)


def test_mean_photon_number_overflow_is_refused():
    # it was Infinity after a numpy RuntimeWarning
    huge = GaussianState(np.full(2, 1e200), np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^the mean photon number of this state overflows: "
                                             "got inf$"):
            b.mean_photon_number(huge)


@pytest.mark.parametrize("make,photons,fits", [(b.thermal_state, 1e308, 4.4e307),
                                               (b.thermal_state, 5e307, 4.4e307),
                                               (b.tmsv_state, 1e308, 1e154),
                                               (b.tmsv_state, 1e200, 1e154)])
def test_overflowing_photon_numbers_are_refused_by_name(make, photons, fits):
    # each raised a numpy RuntimeWarning, then "state contains non-finite
    # entries", or (thermal at 5e307) made a state with an infinite covariance
    message = f"mean photon number {photons!r} overflows the covariance matrix"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make(photons)
        assert np.all(np.isfinite(make(fits).cov))


def test_covariance_entries_past_half_the_float_range_are_refused():
    # the symmetric part (V + V^T) / 2 overflowed to an infinite covariance
    # after a numpy RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidStateError, match=r"^covariance entry 1\.000e\+308 exceeds "
                                                    r"8\.988e\+307, past which its symmetric "
                                                    r"part overflows$"):
            GaussianState(np.zeros(2), np.diag([1e308, 1.0]))
        edge = GaussianState(np.zeros(2), np.diag([b.states.MAX_ENTRY, 1.0]))
        # a transform's output is refused alike: it is halved before the sum
        # that symmetrizes it
        with pytest.raises(InvalidStateError, match=r"^covariance entry 1\.200e\+308 exceeds "):
            b.apply_transform(GaussianState(np.zeros(4), np.diag([8e307, 8e307, 1.0, 1.0])),
                              b.two_mode_squeezer(1.5))
    assert edge.cov[0, 0] == b.states.MAX_ENTRY


def test_cov_norm_bound_is_sharp_for_tmsv():
    n = 1.5
    tm = b.tmsv_state(n)
    top = np.linalg.norm(tm.cov, 2)
    bound = b.cov_norm_bound(b.mean_photon_number(tm) / 2.0)
    assert top <= bound + 1e-9
    assert bound == pytest.approx(1 + 2 * n + 2 * math.sqrt(n * n + n), abs=1e-12)


def test_channel_param_validation():
    with pytest.raises(ValueError):
        PureLoss(1.2)
    with pytest.raises(ValueError):
        PureLoss(-0.1)
    with pytest.raises(ValueError):
        PureAmplifier(0.9)


def test_pure_loss_channel_output():
    # loss dilation on tau_N: kept arm is tau_{lam N}
    for lam in (0.0, 0.3, 1.0):
        out = b.stinespring_output(PureLoss(lam), b.thermal_state(2.0))
        kept = b.reduce_state(out, [0])
        assert np.allclose(kept.cov, b.thermal_state(lam * 2.0).cov, atol=1e-12)


def test_pure_amplifier_channel_output():
    for g in (1.0, 2.5):
        out = b.stinespring_output(PureAmplifier(g), b.thermal_state(2.0))
        kept = b.reduce_state(out, [0])
        assert np.allclose(kept.cov, b.thermal_state(g * 2.0 + g - 1.0).cov, atol=1e-12)
    # amplifier on vacuum emits g-1 thermal photons
    out = b.stinespring_output(PureAmplifier(2.0), b.vacuum_state())
    assert np.allclose(b.reduce_state(out, [0]).cov, b.thermal_state(1.0).cov, atol=1e-12)


def test_stinespring_output_is_pure_and_ordered():
    tm = b.tmsv_state(1.0)
    out = b.stinespring_output(PureLoss(0.6), tm)
    assert out.modes == 3
    d = b.symplectic_eigenvalues(out.cov)
    assert np.max(np.abs(d - 1.0)) < 1e-9
    # reference arm A untouched
    assert np.allclose(b.reduce_state(out, [0]).cov, b.thermal_state(1.0).cov, atol=1e-12)


def test_dilation_symplectics():
    for ch in (PureLoss(0.42), PureAmplifier(1.7)):
        tr = b.dilation(ch)
        om = b.symplectic_form(2)
        assert np.allclose(tr.symplectic @ om @ tr.symplectic.T, om, atol=1e-12)


def test_serialization_roundtrip():
    rng = np.random.default_rng(23)
    st = random_state(rng, 2)
    d = b.state_to_dict(st)
    back = b.state_from_dict(d)
    assert np.array_equal(back.cov, st.cov)
    assert np.array_equal(back.mean, st.mean)
    with pytest.raises(ValueError):
        b.state_from_dict({"modes": 1, "mean": [0, 0]})


_EYE = [[1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("field,value,reason", [
    ("modes", 1.5, "'float' object cannot be interpreted as an integer"),
    ("modes", "1", "'str' object cannot be interpreted as an integer"),
    ("modes", True, "modes is True, not an integer"),
    ("mean", ["0", "0"], "mean has <U1 entries, not integers or floats"),
    ("mean", [True, False], "mean has bool entries, not integers or floats"),
    ("cov", [["1", "0"], ["0", "1"]], "cov has <U1 entries"),
    ("cov", [[True, False], [False, True]], "cov has bool entries"),
])
def test_state_from_dict_rejects_what_it_would_have_to_convert(field, value, reason):
    # each payload reads as the vacuum once converted; none is converted
    payload = {"modes": 1, "mean": [0, 0], "cov": _EYE} | {field: value}
    with pytest.raises(InvalidStateError, match="^malformed state payload: " + reason):
        b.state_from_dict(payload)


_TMSV = b.tmsv_state(1.0)
#: every reader of a mode list, each on the two-mode TMSV(1)
MODE_LIST_TAKERS = {
    "reduce_state": lambda modes: b.reduce_state(_TMSV, modes),
    "apply_transform": lambda modes: b.apply_transform(
        _TMSV, b.displacement([1.0, 0.0] * len(modes)), modes),
    "coherent_information": lambda modes: b.coherent_information(_TMSV, modes),
    "petz_conditional_entropy_half": lambda modes: b.petz_conditional_entropy_half(_TMSV, modes),
}


@pytest.mark.parametrize("taker", MODE_LIST_TAKERS)
@pytest.mark.parametrize("modes", [[0.5], [True], [-1], [5], [0, 0]], ids=str)
def test_every_mode_list_is_read_by_one_rule(taker, modes):
    # [0.5] was read as the (p_0, x_1) block, [True] as mode 1, [5] and [-1]
    # as an empty A (entropies of 0.0), [0, 0] as [0] by the Petz entropy,
    # and reduce_state(s, [1.5]) raised a bare IndexError
    with pytest.raises(ValueError, match=re.escape(str(modes))):
        MODE_LIST_TAKERS[taker](modes)


def test_numpy_integer_modes_are_modes():
    for call in MODE_LIST_TAKERS.values():
        got, want = call([np.int64(1)]), call([1])
        if isinstance(want, GaussianState):
            assert got.mean.tobytes() == want.mean.tobytes()
            assert got.cov.tobytes() == want.cov.tobytes()
        else:
            assert got.hex() == want.hex()


def test_random_symplectics_are_symplectic():
    rng = np.random.default_rng(3)
    for modes in (1, 2, 3):
        om = b.symplectic_form(modes)
        for _ in range(5):
            s = random_symplectic(rng, modes)
            assert np.allclose(s @ om @ s.T, om, atol=1e-10)


# ---------------------------------------------------------------------------
# one owner per domain rule: every public function applies the same check

_LOSS = PureLoss(0.5)

#: every public function that takes a mean photon number, as a function of it
PHOTON_TAKERS = {
    "thermal_state": b.thermal_state,
    "tmsv_state": b.tmsv_state,
    "cov_norm_bound": b.cov_norm_bound,
    "thermal_entropy_variance": b.thermal_entropy_variance,
    "entropy_variance_pure_loss": lambda n: b.entropy_variance_pure_loss(0.5, n),
    "petz_terms_pure_loss": lambda n: b.petz_terms_pure_loss(0.5, n),
    "petz_terms_amplifier": lambda n: b.petz_terms_amplifier(2.0, n),
    "cutoff_nongaussian": lambda n: b.cutoff_nongaussian(n, 0.1),
    "ec_asymptotic": lambda n: b.ec_asymptotic(_LOSS, "Q2", n),
    "ec_aep_lower_bound": lambda n: b.ec_aep_lower_bound(_LOSS, n, 100, 0.1, "Q2"),
    "ec_variance_lower_bound": lambda n: b.ec_variance_lower_bound(0.5, n, 100, 0.1, "Q2"),
    "best_lower_bound": lambda n: b.best_lower_bound(_LOSS, 100, 0.1, "Q2", photons=n),
    "channel_uses_sufficient": lambda n: b.channel_uses_sufficient(_LOSS, 10.0, 0.1, "Q2", n),
}

#: every public function that takes a transmissivity, as a function of it
TRANSMISSIVITY_TAKERS = {
    "beam_splitter": b.beam_splitter,
    "PureLoss": PureLoss,
    "petz_terms_pure_loss": lambda lam: b.petz_terms_pure_loss(lam, 1.0),
    "entropy_variance_pure_loss": lambda lam: b.entropy_variance_pure_loss(lam, 1.0),
    "beam_splitter_fock_coeffs": lambda lam: b.beam_splitter_fock_coeffs(1, 1, lam),
}

#: every function that checks a photon cutoff, as a function of it
CUTOFF_TAKERS = {
    "tail_bound_closed": lambda m: b.tail_bound_closed(b.thermal_state(0.5), m),
    "tail_bound_optimized": lambda m: b.tail_bound_optimized(b.thermal_state(0.5), m),
    "trace_distance_truncation_bound":
        lambda m: b.trace_distance_truncation_bound(b.thermal_state(0.5), m),
    "fock_matrix_elements": lambda m: b.fock_matrix_elements(b.thermal_state(0.5), m),
    "enumerate_basis": lambda m: b.enumerate_basis(1, m),
    "basis_dimension": lambda m: b.basis_dimension(1, m),
}

#: every public function that takes a number of modes, as a function of it
MODE_TAKERS = {
    "symplectic_form": b.symplectic_form,
    "enumerate_basis": lambda modes: b.enumerate_basis(modes, 2),
    "basis_dimension": lambda modes: b.basis_dimension(modes, 3),
}


@pytest.mark.parametrize("photons", [math.nan, math.inf])
def test_every_photon_number_must_be_finite(photons):
    # NaN used to come back as NaN, inf as OverflowError from cutoff_nongaussian
    # or InvalidStateError from the state constructors
    for name, call in PHOTON_TAKERS.items():
        with pytest.raises(ValueError, match=f"^mean photon number must be finite, got {photons}$"):
            call(photons)
            pytest.fail(f"{name} took {photons} photons")


@pytest.mark.parametrize("cutoff", [math.nan, 2.5, 3.0, True, False])
def test_every_cutoff_must_be_an_integer(cutoff):
    # a float cutoff used to give a bound (or NaN), a failed min() or a
    # TypeError from math.comb; an integral float is no integer either, and
    # True was read as cutoff 1
    for name, call in CUTOFF_TAKERS.items():
        with pytest.raises(ValueError, match=rf"^cutoff must be an integer, got {cutoff}$"):
            call(cutoff)
            pytest.fail(f"{name} took cutoff {cutoff}")


@pytest.mark.parametrize("modes", [0, -1, math.nan, 1.5, 2.0, True, False])
def test_every_mode_count_must_be_a_positive_integer(modes):
    # 0 modes used to give a dimension of 1, 1.5 a RecursionError or a
    # TypeError from numpy or math.comb, and True was read as one mode
    integral = modes < 1 and not isinstance(modes, bool)
    message = "need at least one mode" if integral else "modes must be an integer"
    for name, call in MODE_TAKERS.items():
        with pytest.raises(ValueError, match=rf"^{message}, got {modes}$"):
            call(modes)
            pytest.fail(f"{name} took {modes} modes")


@pytest.mark.parametrize("x", [math.nan, math.inf])
def test_h_function_argument_must_be_finite(x):
    # both used to come back as NaN
    with pytest.raises(ValueError, match=f"^argument must be finite, got {x}$"):
        b.h_function(x)


def test_domain_messages_are_shared():
    # one checker per rule, so every caller words a rejection alike
    for call in PHOTON_TAKERS.values():
        with pytest.raises(ValueError, match=r"^mean photon number must be >= 0, got -0\.5$"):
            call(-0.5)
    for call in TRANSMISSIVITY_TAKERS.values():
        for lam in (-0.1, 1.5, math.nan):
            message = rf"^transmissivity must lie in \[0, 1\], got {lam}$"
            with pytest.raises(ValueError, match=message):
                call(lam)
    eps_takers = [lambda eps: b.cutoff_for_error(b.vacuum_state(), eps),
                  lambda eps: b.cutoff_nongaussian(1.0, eps),
                  lambda eps: b.gaussian_trace_distance(b.vacuum_state(), b.vacuum_state(), eps)]
    for call in eps_takers:
        for eps in (0.0, 1.0, math.nan):
            with pytest.raises(ValueError, match=rf"^eps must lie in \(0, 1\), got {eps}$"):
                call(eps)
    for call in CUTOFF_TAKERS.values():
        with pytest.raises(ValueError, match="^cutoff must be >= 0, got -1$"):
            call(-1)
    # numpy integers are integers
    state = b.thermal_state(0.5)
    assert b.tail_bound_closed(state, np.int64(3)) == b.tail_bound_closed(state, 3)
    assert b.basis_dimension(np.int64(2), np.int64(3)) == b.basis_dimension(2, 3) == 10


_NOT_A_CHANNEL = object()
_ONE_MODE = b.thermal_state(0.5)


@pytest.mark.parametrize("call,error,message", [
    pytest.param(lambda: b.Transform(np.eye(3), np.zeros(3)), ValueError,
                 "symplectic matrix has bad shape (3, 3)", id="transform-matrix"),
    pytest.param(lambda: b.Transform(np.eye(2), np.zeros(3)), ValueError,
                 "shift shape (3,) does not match matrix (2, 2)", id="transform-shift"),
    pytest.param(lambda: b.apply_transform(_ONE_MODE, b.displacement([1.0, 0.0]), [1]),
                 ValueError, "target modes [1] out of range for 1-mode state", id="target-mode"),
    pytest.param(lambda: b.tensor([]), ValueError, "tensor needs at least one state",
                 id="tensor-empty"),
    pytest.param(lambda: b.reduce_state(_ONE_MODE, []), ValueError,
                 "must keep at least one mode", id="reduce-empty"),
    pytest.param(lambda: b.dilation(_NOT_A_CHANNEL), TypeError,
                 f"not a channel: {_NOT_A_CHANNEL!r}", id="dilation"),
    pytest.param(lambda: b.state_from_dict({"modes": 2, "mean": [0.0, 0.0],
                                            "cov": [[1.0, 0.0], [0.0, 1.0]]}),
                 InvalidStateError, "declared 2 modes but mean has length 2", id="declared-modes"),
    pytest.param(lambda: b.state_from_dict([1, 2]), InvalidStateError,
                 "malformed state payload: a state needs an object with modes, mean and cov, "
                 "got a list", id="state-not-object"),
    pytest.param(lambda: b.williamson(np.eye(3)), ValueError,
                 "covariance must be 2n x 2n, got (3, 3)", id="williamson-shape"),
    pytest.param(lambda: b.coherent_information(_ONE_MODE, [0]), ValueError,
                 "cut must leave both sides non-empty", id="coherent-information-cut"),
    pytest.param(lambda: b.petz_conditional_entropy_half(_ONE_MODE, []), ValueError,
                 "cut must leave both sides non-empty", id="petz-cut"),
    pytest.param(lambda: b.gaussian_overlap(_ONE_MODE, b.tmsv_state(0.5)), ValueError,
                 "states must have the same number of modes", id="overlap-modes"),
    pytest.param(lambda: b.beam_splitter_fock_coeffs(-1, 0, 0.5), ValueError,
                 "occupations must be >= 0, got (-1, 0)", id="fock-coeffs"),
    pytest.param(lambda: _encode({1j}), TypeError, "cannot serialize <class 'set'>",
                 id="cli-encode"),
])
def test_rejections_name_their_cause(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


# ---------------------------------------------------------------------------
# the package API: each module's __all__, re-exported as the same objects


def test_package_reexports_every_module_all():
    modules = [b.states, b.spectral, b.tail, b.fock, b.tracedist, b.capacity]
    stated = set()
    for module in modules:
        for name in module.__all__:
            assert name in b.__all__ and getattr(b, name) is getattr(module, name), name
        stated.update(module.__all__)
    # and nothing else but the modules themselves
    extra = set(b.__all__) - stated - {module.__name__.split(".")[-1] for module in modules}
    assert extra == set(), extra
