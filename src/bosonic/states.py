"""Gaussian states, symplectic transforms and channel dilations.

Conventions used throughout the package:

* Quadratures are interleaved, ``R = (x_1, p_1, ..., x_n, p_n)``.
* The vacuum covariance matrix is the identity, so a thermal state with
  mean photon number ``N`` has covariance ``(2N + 1) * I``.
* The mean is ``m = <R>`` with ``x = (a + a^dag)/sqrt(2)`` (``p`` alike) per
  mode, so ``|alpha>`` has ``m = sqrt(2) (Re alpha, Im alpha)`` and
  ``N = tr(V - I)/4 + |m|^2/2``.
* The symplectic form is ``Omega = direct_sum([[0, 1], [-1, 0]])`` and a
  physical covariance matrix satisfies ``V + i*Omega >= 0``.

States are value objects: every operation returns a new ``GaussianState``,
and each state computes its uncertainty verdict, V's eigendecomposition, its
mean photon number and its Williamson form once.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "GaussianState",
    "InvalidStateError",
    "PureAmplifier",
    "PureLoss",
    "Transform",
    "ValidationReport",
    "apply_transform",
    "beam_splitter",
    "check_cutoff",
    "check_eps",
    "check_gain",
    "check_modes",
    "check_photons",
    "check_transmissivity",
    "cov_norm_bound",
    "dilation",
    "displacement",
    "mean_photon_number",
    "reduce_state",
    "require_valid",
    "state_from_dict",
    "state_to_dict",
    "stinespring_output",
    "symplectic_form",
    "tensor",
    "thermal_state",
    "tmsv_state",
    "two_mode_squeezer",
    "vacuum_state",
    "validate_state",
]

#: slack of the symmetry check (times max(1, max|V|)) and least slack of the
#: uncertainty margin
UNCERTAINTY_TOL = 1e-9
#: the eigensolver's rounding on V + i*Omega, per dimension and per unit of its
#: largest eigenvalue: 64 ulps
_EIG_ROUNDING = 64 * sys.float_info.epsilon
#: the largest covariance entry: the sum of two, which symmetrizes V, stays finite
MAX_ENTRY = sys.float_info.max / 2.0
# the largest cutoff: 2M + 1, which the tail bound divides by, stays finite
_MAX_CUTOFF = int(sys.float_info.max / 2.0)


class InvalidStateError(ValueError):
    """Raised when a covariance matrix or mean vector is unphysical."""


def symplectic_form(modes: int) -> np.ndarray:
    """Return the 2n x 2n symplectic form for ``modes`` modes."""
    modes = check_modes(modes)
    omega = np.zeros((2 * modes, 2 * modes))
    for j in range(modes):
        omega[2 * j, 2 * j + 1] = 1.0
        omega[2 * j + 1, 2 * j] = -1.0
    return omega


@dataclass(frozen=True)
class GaussianState:
    """Mean vector and covariance matrix of an n-mode Gaussian state."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1 or mean.size % 2 != 0 or mean.size == 0:
            raise InvalidStateError(f"mean must have even length 2n, got shape {mean.shape}")
        if cov.shape != (mean.size, mean.size):
            raise InvalidStateError(
                f"covariance shape {cov.shape} does not match mean length {mean.size}"
            )
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise InvalidStateError("state contains non-finite entries")
        scale = float(np.max(np.abs(cov)))
        if scale > MAX_ENTRY:
            raise InvalidStateError(f"covariance entry {scale:.3e} exceeds {MAX_ENTRY:.3e}, "
                                    "past which its symmetric part overflows")
        # rounding-level asymmetry is removed below; anything larger is bad input
        defect = float(np.max(np.abs(cov - cov.T)))
        tol = UNCERTAINTY_TOL * max(1.0, scale)
        if defect > tol:
            raise InvalidStateError(
                f"covariance is not symmetric: defect {defect:.3e} exceeds {tol:.1e}"
            )
        mean = mean.copy()
        cov = (cov + cov.T) / 2.0  # store the symmetric part
        mean.flags.writeable = False
        cov.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def modes(self) -> int:
        return self.mean.size // 2

    @functools.cached_property
    def _verdict(self) -> tuple[bool, float, float]:
        """(passes, margin, tol) of ``validate_state``'s test: ``_margin_test`` on
        V + i*Omega, then on D^(-1/2) (V + i*Omega) D^(-1/2), D each mode's
        mean variance; margin and tol are the first's."""
        matrix = self.cov + 1j * symplectic_form(self.modes)
        ok, margin, tol = _margin_test(matrix)
        if ok:
            diag = np.diag(self.cov)
            with np.errstate(all="ignore"):  # a mode's trace <= 0 or an overflow: NaN or inf
                scale = np.repeat(1.0 / np.sqrt((diag[0::2] + diag[1::2]) / 2.0), 2)
                scaled = scale[:, None] * matrix * scale
            ok = bool(np.isfinite(scaled).all()) and _margin_test(scaled)[0]
        return ok, margin, tol

    @functools.cached_property
    def _photons(self) -> float:
        """``mean_photon_number``: ``tr(V - I)/4 + |m|^2 / 2``, refused if it overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            photons = float((np.trace(self.cov) - 2.0 * self.modes) / 4.0
                            + self.mean @ self.mean / 2.0)
        if not math.isfinite(photons):
            raise ValueError(f"the mean photon number of this state overflows: got {photons}")
        return photons

    @functools.cached_property
    def _eig(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """V's eigenvalues, ascending, the mean in its eigenbasis and the eigenbasis; read-only."""
        evals, evecs = np.linalg.eigh(self.cov)
        mean_rot = evecs.T @ self.mean
        evals.flags.writeable = mean_rot.flags.writeable = evecs.flags.writeable = False
        return evals, mean_rot, evecs

    @functools.cached_property
    def _williamson(self) -> tuple[np.ndarray, np.ndarray]:
        """``spectral.williamson``'s (S, d), read-only; ``ValueError`` unless V > 0."""
        evals, _, evecs = self._eig
        if evals[0] <= 0.0:
            raise ValueError(f"covariance not positive definite (min eigenvalue {evals[0]:.3e})")
        n = self.modes
        w = evecs @ np.diag(np.sqrt(evals)) @ evecs.T
        skew = w @ symplectic_form(n) @ w
        lam, vecs = np.linalg.eigh(1j * ((skew - skew.T) / 2.0))
        d = -lam[:n]
        q = np.empty((2 * n, 2 * n))
        q[:, 0::2] = np.sqrt(2.0) * vecs[:, :n].real
        q[:, 1::2] = np.sqrt(2.0) * vecs[:, :n].imag
        s = w @ q @ np.diag(np.repeat(1.0 / np.sqrt(d), 2))
        s.flags.writeable = d.flags.writeable = False
        return s, d


def _margin_test(matrix: np.ndarray) -> tuple[bool, float, float]:
    """(passes, margin, tol) of the Hermitian ``matrix``: its smallest
    eigenvalue, the margin, must lie above -tol, the eigensolver's rounding
    (64 ulps per dimension of its largest eigenvalue, at least
    ``UNCERTAINTY_TOL``); a NaN margin or an infinite tol fails."""
    eigs = np.linalg.eigvalsh(matrix).tolist()
    margin, tol = eigs[0], _EIG_ROUNDING * len(matrix) * eigs[-1]
    if tol < UNCERTAINTY_TOL:
        tol = UNCERTAINTY_TOL
    return -tol <= margin and tol < math.inf, margin, tol


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a physicality check, with margins for diagnostics.

    ``symmetry_defect`` is always 0.0: ``GaussianState`` rejects an
    asymmetric covariance and stores the symmetric part of the rest.  The
    field stays because CLI payloads carry it.
    """

    ok: bool
    modes: int
    symmetry_defect: float
    uncertainty_margin: float
    warnings: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return dataclasses.asdict(self) | {"warnings": list(self.warnings)}


def validate_state(state: GaussianState) -> ValidationReport:
    """Check the uncertainty relation ``V + i*Omega >= 0``, and again on its
    congruence ``D^(-1/2) (V + i*Omega) D^(-1/2)``, D holding each mode's
    mean variance ``tr V_j / 2`` on both its quadratures.  The congruence's
    rounding does not grow with a huge mode beside a sub-vacuum one, and a
    mode's own rounding stays an ulp of its mean variance, however small
    one quadrature is.

    Each smallest eigenvalue must lie above -tol, tol the eigensolver's
    rounding: 64 ulps per dimension of that matrix's largest eigenvalue, and
    at least ``UNCERTAINTY_TOL``.  A mode whose trace is <= 0 or an
    overflowing eigenvalue fails.  The margin reported is that of V + i*Omega; within
    ``[-tol, 0)`` it passes with a warning (eigensolver noise on pure states).
    """
    ok, margin, tol = state._verdict
    note = (f"uncertainty margin {margin:.3e} is negative but within tolerance {tol:.3e}, "
            "the rounding of the largest eigenvalue of V + i*Omega")
    return ValidationReport(ok, state.modes, symmetry_defect=0.0, uncertainty_margin=margin,
                            warnings=(note,) if ok and margin < 0.0 else ())


def require_valid(state: GaussianState) -> GaussianState:
    """Return ``state`` unchanged, raising ``InvalidStateError`` if unphysical:
    ``validate_state``'s test, without its report."""
    ok, margin, _ = state._verdict
    if not ok:
        raise InvalidStateError(f"unphysical state: uncertainty margin {margin:.3e}")
    return state


# ---------------------------------------------------------------------------
# domain checks: the one place each rule on a parameter is stated


def check_photons(photons: float) -> float:
    """``photons`` as a float; ``ValueError`` if it is negative or not finite."""
    if photons < 0:
        raise ValueError(f"mean photon number must be >= 0, got {photons}")
    if not math.isfinite(photons):
        raise ValueError(f"mean photon number must be finite, got {photons}")
    return float(photons)


def check_transmissivity(transmissivity: float) -> float:
    """``transmissivity`` as a float; ``ValueError`` unless it lies in [0, 1]."""
    lam = float(transmissivity)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {lam}")
    return lam


def check_gain(gain: float) -> float:
    """``gain`` as a float; ``ValueError`` if it is below 1 or not finite."""
    if gain < 1.0:
        raise ValueError(f"gain must be >= 1, got {gain}")
    if not math.isfinite(gain):
        raise ValueError(f"gain must be finite, got {gain}")
    return float(gain)


def check_eps(eps: float) -> float:
    """``eps`` as a float; ``ValueError`` unless 0 < eps < 1."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    return float(eps)


def _check_scale(who: str, channel: Channel, photons: float) -> None:
    """``ValueError`` naming ``who``, the channel parameter and ``photons`` if
    the fullest output mode of ``channel`` for ``photons`` input photons,
    Ns on the loss channel and g (Ns + 1) - 1 on the amplifier, would hold
    more than 1e100: the one home of the rule of every closed form that
    reads a photon number."""
    if isinstance(channel, PureLoss):
        name, value, fullest = "lambda", channel.transmissivity, photons
    else:
        name, value, fullest = "g", channel.gain, channel.gain * (photons + 1.0) - 1.0
    if fullest > 1e100:  # the closed forms cube it; 1e100 cubed is still a finite float64
        raise ValueError(f"{who} cannot evaluate {name} = {value!r} with Ns = {photons!r}: "
                         "an output mode would hold more than 1e+100 photons")


def _integer(value, name: str) -> int:
    """``value`` as an int; ``ValueError`` unless it is an integer
    (``operator.index``: no float, however integral, and no bool)."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def check_modes(modes: int) -> int:
    """``modes`` as an int; ``ValueError`` unless it is an integer >= 1."""
    if modes < 1 and not isinstance(modes, bool):
        raise ValueError(f"need at least one mode, got {modes}")
    return _integer(modes, "modes")


def check_cutoff(cutoff: int) -> int:
    """``cutoff`` as an int; ``ValueError`` unless it is an integer in [0, ``_MAX_CUTOFF``]."""
    if cutoff < 0 and not isinstance(cutoff, bool):
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    cutoff = _integer(cutoff, "cutoff")
    if cutoff > _MAX_CUTOFF:
        raise ValueError(f"cutoff {cutoff} exceeds {_MAX_CUTOFF:.3e}, past which 2M + 1 "
                         "overflows a float")
    return cutoff


# ---------------------------------------------------------------------------
# constructors


def vacuum_state(modes: int = 1) -> GaussianState:
    """n-mode vacuum: zero mean, identity covariance."""
    return GaussianState(np.zeros(2 * modes), np.eye(2 * modes))


def _checked_entry(photons: float, entry: float) -> float:
    """``entry``, the covariance entry a constructor makes of ``photons``
    that overflows first; ``ValueError`` naming ``photons`` if it exceeds
    ``MAX_ENTRY`` (inf included), before an array multiplies it by 0."""
    if not entry <= MAX_ENTRY:
        raise ValueError(f"mean photon number {photons!r} overflows the covariance matrix")
    return entry


def thermal_state(photons: float) -> GaussianState:
    """Single-mode thermal state with mean photon number ``photons``."""
    photons = check_photons(photons)
    a = _checked_entry(photons, 2.0 * photons + 1.0)
    return GaussianState(np.zeros(2), a * np.eye(2))


def tmsv_state(photons: float) -> GaussianState:
    """Two-mode squeezed vacuum purifying a thermal state.

    Args:
        photons: mean photon number of either reduced mode.

    Returns:
        Two-mode pure ``GaussianState`` whose single-mode marginals are
        ``thermal_state(photons)``.
    """
    photons = check_photons(photons)
    a = 2.0 * photons + 1.0
    # N (N + 1) overflows long before a does
    c = _checked_entry(photons, 2.0 * np.sqrt(photons * (photons + 1.0)))
    sz = np.diag([1.0, -1.0])
    eye = np.eye(2)
    cov = np.block([[a * eye, c * sz], [c * sz, a * eye]])
    return GaussianState(np.zeros(4), cov)


# ---------------------------------------------------------------------------
# transforms


@dataclass(frozen=True)
class Transform:
    """Affine Gaussian transform ``m -> S m + shift``, ``V -> S V S^T``."""

    symplectic: np.ndarray
    shift: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.symplectic, dtype=float)
        r = np.asarray(self.shift, dtype=float)
        if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] % 2 != 0:
            raise ValueError(f"symplectic matrix has bad shape {s.shape}")
        if r.shape != (s.shape[0],):
            raise ValueError(f"shift shape {r.shape} does not match matrix {s.shape}")
        # before the product, where inf * 0 would warn and turn into NaN
        if not np.all(np.isfinite(s)):
            raise ValueError("matrix is not symplectic: it has non-finite entries")
        if not np.all(np.isfinite(r)):
            raise ValueError("shift has non-finite entries")
        omega = symplectic_form(s.shape[0] // 2)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails below
            # each entry of S Omega S^T rounds in proportion to its terms |S| |Omega| |S|^T
            terms = np.abs(s) @ np.abs(omega) @ np.abs(s).T
            defect = np.abs(s @ omega @ s.T - omega)
        if not np.all(defect <= 1e-8 * np.maximum(1.0, terms)) or np.isinf(terms).any():
            raise ValueError(f"matrix is not symplectic (defect {np.max(defect):.3e})")
        object.__setattr__(self, "symplectic", s)
        object.__setattr__(self, "shift", r)

    @property
    def modes(self) -> int:
        return self.shift.size // 2


def displacement(shift: Sequence[float]) -> Transform:
    """Phase-space displacement by ``shift`` (length 2k)."""
    r = np.asarray(shift, dtype=float)
    if r.ndim != 1 or r.size % 2:
        raise ValueError("displacement shift must list an x and a p per mode (length 2k), "
                         f"got {r.tolist()}")
    return Transform(np.eye(r.size), r)


def beam_splitter(transmissivity: float) -> Transform:
    """Two-mode beam splitter of transmissivity ``transmissivity``.

    Mode 0 of the pair carries the transmitted signal.
    """
    lam = check_transmissivity(transmissivity)
    eye = np.eye(2)
    s = np.block(
        [
            [np.sqrt(lam) * eye, np.sqrt(1.0 - lam) * eye],
            [-np.sqrt(1.0 - lam) * eye, np.sqrt(lam) * eye],
        ]
    )
    return Transform(s, np.zeros(4))


def two_mode_squeezer(gain: float) -> Transform:
    """Two-mode squeezer of gain ``gain >= 1``; mode 0 carries the amplified signal."""
    g = check_gain(gain)
    sz = np.diag([1.0, -1.0])
    eye = np.eye(2)
    s = np.block(
        [
            [np.sqrt(g) * eye, np.sqrt(g - 1.0) * sz],
            [np.sqrt(g - 1.0) * sz, np.sqrt(g) * eye],
        ]
    )
    return Transform(s, np.zeros(4))


def _embedding_indices(modes: Sequence[int], total: int) -> np.ndarray:
    """The quadratures (2m, 2m + 1) of each of ``modes``, in the order given:
    the one reader of a mode list.  ``ValueError`` naming the list unless
    each mode is an integer (``_integer``: no float, however integral, and
    no bool), the modes are distinct and each lies in [0, ``total``)."""
    idx = list(modes)
    for m in idx:
        _integer(m, f"each of the modes {idx}")
    if len(set(idx)) != len(idx):
        raise ValueError(f"modes must be distinct, got {idx}")
    if any(m < 0 or m >= total for m in idx):
        raise ValueError(f"modes {idx} out of range for a {total}-mode state")
    coords = []
    for m in idx:
        coords.extend((2 * m, 2 * m + 1))
    return np.asarray(coords, dtype=int)


def apply_transform(
    state: GaussianState, transform: Transform, modes: Sequence[int] | None = None
) -> GaussianState:
    """Apply ``transform`` to a subset of modes of ``state``.

    The k-mode transform is embedded into the full register by conjugating
    with the permutation that moves ``modes`` (in the given order) to the
    front; all other modes are untouched.

    Args:
        state: input state.
        transform: k-mode affine transform.
        modes: the k target mode indices, distinct integers in
            [0, ``state.modes``) (no float, however integral, and no bool);
            defaults to ``range(k)``.

    Returns:
        The transformed ``GaussianState``.  Its covariance is the symmetric
        part of ``S V S^T``: the product's rounding is no asymmetry of the
        input, so it is not held to ``GaussianState``'s symmetry rule.
    """
    k = transform.modes
    if modes is None:
        modes = list(range(k))
    if len(modes) != k:
        raise ValueError(f"transform acts on {k} modes, got targets {list(modes)}")
    coords = _embedding_indices(modes, state.modes)
    full_s = np.eye(2 * state.modes)
    full_s[np.ix_(coords, coords)] = transform.symplectic
    full_r = np.zeros(2 * state.modes)
    full_r[coords] = transform.shift
    cov = full_s @ state.cov @ full_s.T
    # halved before the sum, which would overflow past MAX_ENTRY
    return GaussianState(full_s @ state.mean + full_r, cov / 2.0 + cov.T / 2.0)


def tensor(states: Iterable[GaussianState]) -> GaussianState:
    """Tensor product of states, modes concatenated in the given order."""
    states = list(states)
    if not states:
        raise ValueError("tensor needs at least one state")
    mean = np.concatenate([s.mean for s in states])
    blocks = [s.cov for s in states]
    dim = mean.size
    cov = np.zeros((dim, dim))
    off = 0
    for b in blocks:
        cov[off : off + b.shape[0], off : off + b.shape[0]] = b
        off += b.shape[0]
    return GaussianState(mean, cov)


def reduce_state(state: GaussianState, keep: Sequence[int]) -> GaussianState:
    """Partial trace keeping ``keep``; the order given becomes the new mode order.

    ``keep`` lists distinct integer modes in [0, ``state.modes``): a float,
    however integral, a bool, a repeat or a mode out of range is refused
    with a ``ValueError`` that names the list.
    """
    keep = list(keep)
    if not keep:
        raise ValueError("must keep at least one mode")
    coords = _embedding_indices(keep, state.modes)
    return GaussianState(state.mean[coords], state.cov[np.ix_(coords, coords)])


# ---------------------------------------------------------------------------
# photon statistics


def mean_photon_number(state: GaussianState) -> float:
    """Total mean photon number ``tr(V - I)/4 + |m|^2 / 2``; ``ValueError``
    if it overflows a float."""
    return state._photons


def cov_norm_bound(photons: float) -> float:
    """Upper bound on ``||V||_inf`` for any state of mean photon number ``photons``."""
    photons = check_photons(photons)
    return 1.0 + 2.0 * photons + 2.0 * np.sqrt(photons * (photons + 1.0))


# ---------------------------------------------------------------------------
# channels and dilations


@dataclass(frozen=True)
class PureLoss:
    """Pure loss channel: beam splitter of transmissivity ``transmissivity``
    with a vacuum environment."""

    transmissivity: float

    def __post_init__(self):
        object.__setattr__(self, "transmissivity", check_transmissivity(self.transmissivity))


@dataclass(frozen=True)
class PureAmplifier:
    """Quantum-limited amplifier: two-mode squeezer of gain ``gain`` with a
    vacuum environment."""

    gain: float

    def __post_init__(self):
        object.__setattr__(self, "gain", check_gain(self.gain))


Channel = PureLoss | PureAmplifier


def dilation(channel: Channel) -> Transform:
    """Stinespring dilation of ``channel``: (input, vacuum env) -> (output, env)."""
    if isinstance(channel, PureLoss):
        return beam_splitter(channel.transmissivity)
    if isinstance(channel, PureAmplifier):
        return two_mode_squeezer(channel.gain)
    raise TypeError(f"not a channel: {channel!r}")


def stinespring_output(channel: Channel, state: GaussianState) -> GaussianState:
    """Send the last mode of ``state`` through ``channel``, keeping the environment.

    The returned register is ordered (ancillas, channel output, environment),
    so for a k-mode input the output has k+1 modes with the environment last.
    """
    k = state.modes
    joint = tensor([state, vacuum_state(1)])
    return apply_transform(joint, dilation(channel), modes=[k - 1, k])


# ---------------------------------------------------------------------------
# JSON schema


def state_to_dict(state: GaussianState) -> dict:
    """Serialize to the shared schema {"modes", "mean", "cov"}."""
    return {
        "modes": state.modes,
        "mean": state.mean.tolist(),
        "cov": state.cov.tolist(),
    }


def state_from_dict(payload: dict) -> GaussianState:
    """Parse the shared schema; raises ``InvalidStateError`` on malformed payloads.

    ``modes`` must be an integer (not a bool), and ``mean`` and ``cov``
    arrays of integers or floats: strings, booleans and fractional mode
    counts are rejected, not converted, and so is a payload that is not a
    JSON object.
    """
    if not isinstance(payload, dict):
        raise InvalidStateError("malformed state payload: a state needs an object with "
                                f"modes, mean and cov, got a {type(payload).__name__}")
    try:
        modes = payload["modes"]
        if isinstance(modes, bool):
            raise TypeError(f"modes is {modes!r}, not an integer")
        modes = operator.index(modes)
        arrays = {key: np.asarray(payload[key]) for key in ("mean", "cov")}
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidStateError(f"malformed state payload: {exc}") from exc
    for key, arr in arrays.items():
        if arr.dtype.kind not in "iuf":
            raise InvalidStateError(f"malformed state payload: {key} has {arr.dtype} "
                                    "entries, not integers or floats")
    state = GaussianState(arrays["mean"], arrays["cov"])
    if state.modes != modes:
        raise InvalidStateError(
            f"declared {modes} modes but mean has length {state.mean.size}"
        )
    return state
