"""States, transforms, channels, and the serialization round trip."""

import math
import re
import warnings

import numpy as np
import pytest

import bosonic as b
from bosonic import GaussianState, InvalidStateError, PureAmplifier, PureLoss
from bosonic.cli import _encode
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


def test_state_validation():
    assert b.validate_state(b.vacuum_state()).ok
    bad = GaussianState(np.zeros(2), 0.5 * np.eye(2))
    rep = b.validate_state(bad)
    assert not rep.ok
    assert rep.uncertainty_margin == pytest.approx(-0.5, abs=1e-12)
    with pytest.raises(InvalidStateError):
        b.require_valid(bad)
    # near-boundary dips only warn
    almost = GaussianState(np.zeros(2), (1.0 - 1e-10) * np.eye(2))
    rep2 = b.validate_state(almost)
    assert rep2.ok and rep2.warnings


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
    with pytest.raises(ValueError, match=rf"^cap must be an integer, got {cutoff}$"):
        b.cutoff_for_error(b.thermal_state(0.5), 0.1, cap=cutoff)


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
    with pytest.raises(ValueError, match="^cap must be >= 0, got -1$"):
        b.cutoff_for_error(b.vacuum_state(), 0.1, cap=-1)
    # numpy integers are integers
    state = b.thermal_state(0.5)
    assert b.tail_bound_closed(state, np.int64(3)) == b.tail_bound_closed(state, 3)
    assert b.cutoff_for_error(state, 0.1, cap=np.int64(40)) == b.cutoff_for_error(state, 0.1)
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
