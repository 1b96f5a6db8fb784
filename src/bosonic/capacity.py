"""Non-asymptotic capacity bounds for pure loss and pure amplifier channels.

Tasks: "Q" (qubit transmission), "Q2" (two-way assisted qubits), "K"
(secret key).  Every n-shot bound has the shape

    value = a * n - b * sqrt(n) - c

and is reported with its breakdown, so bounds can be inverted for the
number of channel uses needed to reach a target.  Lower bounds may be
negative; they are reported raw and flagged vacuous.  Rates are in bits
(qubits, ebits or key bits) per the whole n-use block.

The closed-form lower bounds come in four families, listed once in
``BOUND_FAMILIES``: "improved" (pure loss, no sqrt(n) term), "aep" (loss
and amplifier), and the energy-constrained "ec-aep" (loss and amplifier)
and "ec-variance" (pure loss), which need a mean photon number.  Each
entry records the channels it covers, whether it needs photons, whether it
is an AEP family, and its eps-free rate (a, spread).  eps enters only in
``BoundFamily.eps_terms``, which turns the spread into (b, c, n_min) by the
AEP rule or the entropy-variance rule.  ``BoundFamily.evaluate`` turns an
entry into a ``CapacityBound``; the named bound functions,
``best_lower_bound``, ``channel_uses_sufficient`` and the CLI all read the
table.  The weak converse has the same shape with b = 0
(``converse_coeffs``).  The energy-constrained rates and the Petz terms
refuse an input that puts more than 1e100 photons in an output mode, where
float64 overflows (``states._check_scale``).

(a, b, c) do not depend on n.  ``bound_value`` is the one place a value
is summed from them and ``first_max`` the one tie rule of
``best_lower_bound``.  Both take arrays as well as scalars, so the CLI sweep
computes each family's rate once per (method, task, channel parameter, Ns),
or once per (method, task, channel parameter) for a family that does not
read Ns, and its eps terms once per eps, and evaluates the whole grid of n
and families in a few float64 array operations, to the same bits as the
per-call functions.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .spectral import (
    _cut,
    _petz_half,
    entropy_variance_pure_loss,
    h_function,
    von_neumann_entropy,
)
from .states import (
    Channel,
    GaussianState,
    PureAmplifier,
    PureLoss,
    _check_scale,
    check_eps,
    check_gain,
    check_photons,
    check_transmissivity,
    reduce_state,
    stinespring_output,
)
from .tail import smallest_passing

__all__ = [
    "BOUND_FAMILIES",
    "BoundFamily",
    "CONVERSE_TASKS",
    "CapacityBound",
    "TASKS",
    "aep_lower_bound_amplifier",
    "aep_lower_bound_generic",
    "asymptotic_capacity",
    "best_families",
    "best_lower_bound",
    "bound_value",
    "channel_uses_necessary",
    "channel_uses_sufficient",
    "check_eps",
    "check_n",
    "check_photons",
    "converse_coeffs",
    "ec_aep_lower_bound",
    "ec_asymptotic",
    "ec_variance_lower_bound",
    "first_max",
    "improved_lower_bound_pure_loss",
    "invert_sqrt_bound",
    "petz_terms_amplifier",
    "petz_terms_pure_loss",
    "upper_bound_nshot",
]

TASKS = ("Q", "Q2", "K")
#: the tasks the weak converse covers
CONVERSE_TASKS = ("Q2", "K")

_PURITY_TOL = 1e-6


@dataclass(frozen=True)
class CapacityBound:
    """One evaluated bound, with enough context to reproduce it."""

    value: float
    direction: str  # "lower" or "upper"
    task: str
    method: str
    n: int
    eps: float
    params: dict = field(default_factory=dict)
    breakdown: dict = field(default_factory=dict)
    preconditions_met: bool = True
    note: str = ""

    @property
    def vacuous(self) -> bool:
        return self.direction == "lower" and self.value < 0.0

    def to_dict(self) -> dict:
        payload = asdict(self)
        note = payload.pop("note")  # last, after the derived ``vacuous``
        return payload | {"vacuous": self.vacuous, "note": note}


def _check_task(task: str) -> str:
    if task not in TASKS:
        raise ValueError(f"task must be one of {TASKS}, got {task!r}")
    return task


def check_n(n: int) -> int:
    """``n`` as an int; ``ValueError`` unless it is a positive integer (a
    bool is not)."""
    if isinstance(n, bool) or not 1 <= n < math.inf or int(n) != n:
        raise ValueError(f"n must be a positive integer, got {n}")
    return int(n)


def _check_bits(k: float) -> float:
    """``k`` unless it is not a positive, finite number of target bits."""
    if k <= 0:
        raise ValueError(f"target bits must be positive, got {k}")
    if not math.isfinite(k):
        raise ValueError(f"target bits must be finite, got {k}")
    return k


def _channel_params(channel: Channel) -> dict:
    if isinstance(channel, PureLoss):
        return {"lambda": channel.transmissivity}
    return {"g": channel.gain}


# ---------------------------------------------------------------------------
# asymptotic rates


def asymptotic_capacity(channel: Channel, task: str) -> float:
    """Unconstrained capacity in bits per use; +inf at lambda = 1 or g = 1."""
    _check_task(task)
    return max(0.0, _per_use_rate(channel, task))


def _per_use_rate(channel: Channel, task: str) -> float:
    """The AEP family's per-use rate a, unclamped: below 0 for Q over loss
    under lambda = 1/2, -inf at lambda = 0; +inf at lambda = 1 or g = 1."""
    if isinstance(channel, PureLoss):
        lam = channel.transmissivity
        if lam == 1.0:
            return math.inf
        if task == "Q":
            return math.log2(lam / (1.0 - lam)) if lam > 0.0 else -math.inf
        return math.log2(1.0 / (1.0 - lam))
    g = channel.gain
    return math.inf if g == 1.0 else math.log2(g / (g - 1.0))


def ec_asymptotic(channel: Channel, task: str, photons: float) -> float:
    """Energy-constrained rate at input mean photon number ``photons``;
    ``ValueError`` above 1e100 photons in an output mode."""
    _check_task(task)
    ns = check_photons(photons)
    _check_scale("method asymptotic", channel, ns)
    if isinstance(channel, PureLoss):
        lam = channel.transmissivity
        if task == "Q":
            if lam <= 0.5:
                return 0.0
            return h_function(lam * ns) - h_function((1.0 - lam) * ns)
        return h_function(ns) - h_function((1.0 - lam) * ns)
    g = channel.gain
    return h_function(g * ns + g - 1.0) - h_function((g - 1.0) * (ns + 1.0))


# ---------------------------------------------------------------------------
# Petz-Renyi-1/2 conditional entropies of the channel purifications


def petz_terms_pure_loss(transmissivity: float, photons: float) -> dict[str, float]:
    """H_{1/2} terms of the pure-loss tripartite state for a TMSV input.

    Returns the four conditional entropies {"A|B", "A|E", "B|A", "B|E"}
    in bits, via closed forms in (lambda, N_s); ``ValueError`` above 1e100
    input photons.
    """
    lam = check_transmissivity(transmissivity)
    ns = check_photons(photons)
    _check_scale("petz_terms_pure_loss", PureLoss(lam), ns)
    mu = 1.0 - lam

    s_lam = math.sqrt(lam * ns * (1.0 + lam * ns))
    s_mu = math.sqrt(mu * ns * (1.0 + mu * ns))
    s_one = math.sqrt(ns * (1.0 + ns))
    top_mu = 1.0 + 2.0 * mu * ns + 2.0 * s_mu
    top_lam = 1.0 + 2.0 * lam * ns + 2.0 * s_lam
    top_one = 1.0 + 2.0 * ns + 2.0 * s_one

    den_ab = 1.0 + s_lam + lam * (2.0 * ns + math.sqrt(mu * ns**3 / (1.0 + mu * ns)))
    den_ae = 1.0 + s_mu + mu * (2.0 * ns + math.sqrt(lam * ns**3 / (1.0 + lam * ns)))
    den_ba = 1.0 + 2.0 * ns + s_one + (1.0 + ns) * math.sqrt(1.0 - 1.0 / (1.0 + mu * ns))
    den_be = 1.0 + mu * (2.0 * ns + s_one) + s_mu

    return {
        "A|B": math.log2(top_mu * top_lam / den_ab**2),
        "A|E": math.log2(top_mu * top_lam / den_ae**2),
        "B|A": math.log2(top_one * top_mu / den_ba**2),
        "B|E": math.log2(top_mu * top_one / den_be**2),
    }


def _petz_half_rank_one(alpha: float, beta: float, gamma: float,
                        nu: float, z_coupled: bool) -> float:
    """H_{1/2}(A|X) for a two-mode state [[a*I, c*K],[c*K, b*I]] with
    symplectic spectrum {nu, 1}, K = sigma_z (z_coupled) or the identity.

    The square-root covariance is (c0*I + c1*N)V with N = -(V Omega)^2,
    which only needs the X-block scalar here; the numerator collapses to
    f(nu)*f(beta) because the spectrum has a single nontrivial direction,
    f(x) = x + sqrt(x^2 - 1).
    """
    def f_pure(x: float) -> float:
        return x + math.sqrt(max(x * x - 1.0, 0.0))

    if nu <= 1.0 + 1e-12:
        w_beta = beta  # pure two-mode state: v_sqrt is the identity map
    else:
        c1 = 1.0 / (nu * math.sqrt(nu * nu - 1.0))
        c0 = 1.0 - c1
        cross = -2.0 if z_coupled else 2.0
        w_beta = c0 * beta + c1 * (beta**3 + cross * beta * gamma**2 + alpha * gamma**2)
    fb = f_pure(beta)
    return math.log2(f_pure(nu) * fb) - 2.0 * math.log2((w_beta + fb) / 2.0)


def petz_terms_amplifier(gain: float, photons: float) -> dict[str, float]:
    """H_{1/2} terms {"A|B", "A|E"} of the amplifier tripartite state, in bits;
    ``ValueError`` above 1e100 photons in an output mode, g (Ns + 1) - 1."""
    g = check_gain(float(gain))
    ns = check_photons(photons)
    _check_scale("petz_terms_amplifier", PureAmplifier(g), ns)

    alpha = 2.0 * ns + 1.0
    nu_b = 2.0 * g * (ns + 1.0) - 1.0       # variance of the amplified arm
    nu_e = 2.0 * (g - 1.0) * (ns + 1.0) + 1.0   # variance of the idler
    c_ab = 2.0 * math.sqrt(g * ns * (ns + 1.0))
    c_ae = 2.0 * math.sqrt((g - 1.0) * ns * (ns + 1.0))

    return {
        # rho_AB is sigma_z-coupled with spectrum {nu_e, 1}; rho_AE is
        # identity-coupled with spectrum {nu_b, 1} (purity complements).
        "A|B": _petz_half_rank_one(alpha, nu_b, c_ab, nu_e, z_coupled=True),
        "A|E": _petz_half_rank_one(alpha, nu_e, c_ae, nu_b, z_coupled=False),
    }


# ---------------------------------------------------------------------------
# shared pieces of the one-shot machinery


def _aep_coeff(r_first: float, r_second: float) -> float:
    """4 log2(r1 + r2 + 1), the AEP spread, with r = 2^(H_{1/2}/2)."""
    return 4.0 * math.log2(r_first + r_second + 1.0)


def _log2_over(numerator: float, factor: float, eps: float, power: int) -> float:
    """log2(numerator / (factor eps^power)) for positive numerator and factor:
    directly while eps^power is a normal float and the quotient is finite,
    else as log2(numerator) - log2(factor) - power log2(eps), whose terms
    stay in range at every eps in (0, 1)."""
    low = eps**power
    if low >= sys.float_info.min:
        ratio = numerator / (factor * low)
        if ratio < math.inf:
            return math.log2(ratio)
    return math.log2(numerator) - math.log2(factor) - power * math.log2(eps)


def _upper_const(eps: float) -> float:
    return math.log2(6.0) + 2.0 * math.log2((1.0 + eps) / (1.0 - eps))


def bound_value(a, b, c, n) -> tuple[np.ndarray, np.ndarray]:
    """``a n - b sqrt(n) - c``, and whether it fell on the boundary.

    The arguments are floats or float arrays that broadcast against each
    other; both results have the broadcast shape (0-d for scalars).  The
    terms a n, -b sqrt(n) and -c are summed in that order, one float64
    operation each with IEEE sqrt, so every entry has the bits of the scalar
    expression.  A NaN sum is only reachable at the lambda = 1 / g = 1
    boundary, where the linear term and the sqrt(n) coefficient both
    diverge (the rates refuse the huge inputs that could overflow to NaN
    elsewhere): it reads +inf, and the flag is set.
    """
    n = np.asarray(n, dtype=float)
    # silent, as Python floats are: an overflow reads inf, inf - inf NaN
    with np.errstate(over="ignore", invalid="ignore"):
        value = a * n + -b * np.sqrt(n) + -c
    boundary = np.isnan(value)
    return np.where(boundary, np.inf, value), boundary


def first_max(values) -> np.ndarray:
    """Index of the first largest value along the last axis: ties go to the
    earlier entry.  The values are never NaN (``bound_value`` reads NaN as
    +inf)."""
    return np.argmax(values, axis=-1)


def _assemble(*, a: float, b: float, c: float, n_min: float, n: int, eps: float, task: str,
              method: str, params: dict) -> CapacityBound:
    """The lower bound at ``n``; below ``n_min`` it is flagged and noted, and
    an infinite per-use rate ``a`` (lambda = 1, g = 1) is noted as well."""
    met = n >= n_min
    note = "" if met else f"needs n >= {n_min:.2f}"
    value = bound_value(a, b, c, n)[0]
    if a == math.inf:
        note = (note + "; " if note else "") + "boundary: capacity is infinite"
    breakdown = {"linear": a * n, "sqrt": -b * math.sqrt(n), "constant": -c,
                 "per_use": a, "sqrt_coefficient": b}
    return CapacityBound(value=float(value), direction="lower", task=task, method=method, n=n,
                         eps=eps, params=params, breakdown=breakdown,
                         preconditions_met=met, note=note)


# ---------------------------------------------------------------------------
# eps-free rates (a, spread) per bound family, all called as
# rate(channel, photons, task)


def _rate_aep(channel: Channel, photons, task: str):
    if isinstance(channel, PureLoss):
        lam = channel.transmissivity
        mu = 1.0 - lam
        if task == "Q":
            r = (math.sqrt(mu / lam) if lam > 0.0 else math.inf,
                 math.sqrt(lam / mu) if mu > 0.0 else math.inf)
        else:
            r = (math.sqrt(mu), math.inf if mu == 0.0 else math.sqrt(1.0 / mu))
    else:
        g = channel.gain
        gm = g - 1.0
        r = (math.sqrt(gm / g), math.inf if gm == 0.0 else math.sqrt(g / gm))
    return _per_use_rate(channel, task), _aep_coeff(*r)


def _rate_improved(channel: Channel, photons, task: str):
    return asymptotic_capacity(channel, task), 0.0


def _rate_ec_aep(channel: Channel, photons: float, task: str):
    a = ec_asymptotic(channel, task, photons)
    if isinstance(channel, PureLoss):
        terms = petz_terms_pure_loss(channel.transmissivity, photons)
        pair = ("A|B", "A|E") if task == "Q" else ("B|A", "B|E")
    else:
        terms = petz_terms_amplifier(channel.gain, photons)
        pair = ("A|B", "A|E")
    return a, _aep_coeff(*(2.0 ** (terms[h] / 2.0) for h in pair))


def _rate_ec_variance(channel: Channel, photons: float, task: str):
    lam = channel.transmissivity
    first, cut = (lam * photons, "A|E") if task == "Q" else (photons, "B|E")
    return (h_function(first) - h_function((1.0 - lam) * photons),
            entropy_variance_pure_loss(lam, photons, cut))


# ---------------------------------------------------------------------------
# the table of lower-bound families


@dataclass(frozen=True)
class BoundFamily:
    """One lower-bound family ``a n - b sqrt(n) - c`` and where it applies.

    ``noun`` names the bound in error messages.  ``formula(channel, photons,
    task)`` returns the eps-free (a, spread); ``rate`` calls it after the
    task and photon checks, and ``eps_terms`` turns the spread into (b, c,
    n_min) at one eps.  An AEP family (``aep_threshold``) is proven for
    n >= 2 log2(2/eps^2) only: below that it is reported with
    ``preconditions_met`` false, and its inversion starts there.
    """

    method: str
    noun: str
    channels: tuple[type, ...]
    needs_photons: bool
    aep_threshold: bool
    formula: Callable[..., tuple[float, float]]

    def covers(self, kind: type) -> bool:
        """Whether the family applies to channels of type ``kind``."""
        return issubclass(kind, self.channels)

    def check_applies(self, channel: Channel, photons: float | None) -> None:
        """``ValueError`` unless the family covers ``channel`` and is given
        the photon number it needs."""
        if not self.covers(type(channel)):
            # every family that leaves out a channel leaves out the amplifier
            raise ValueError(f"the {self.noun} bound covers the pure loss channel only")
        if self.needs_photons and photons is None:
            raise ValueError(f"method {self.method} needs --ns")

    def rate(self, channel: Channel, task: str,
             photons: float | None = None) -> tuple[float, float]:
        """The eps-free (a, spread) at ``task``, after the task, photon and
        photon-scale checks of ``evaluate``.  Call ``check_applies`` first."""
        _check_task(task)
        if self.needs_photons:
            photons = check_photons(photons)
            _check_scale(f"method {self.method}", channel, photons)
        return self.formula(channel, photons, task)

    def eps_terms(self, spread: float, eps: float, task: str) -> tuple[float, float, float]:
        """(b, c, n_min) at an eps that passed ``check_eps``: the one home of
        the lower bounds' eps formulas, with task Q's own under each rule.

        An AEP family scales its spread by the AEP factor, and n_min is
        2 log2(2/eps^2).  The others read it as the entropy variance V
        ("improved" has V = 0.0, so b = 0.0), and n_min is 0.0.
        """
        if self.aep_threshold:
            if task == "Q":
                sqrt_log = math.sqrt(_log2_over(2.0**9, 1.0, eps, 2))
                const = _log2_over(2.0**18, 3.0, eps, 4)
            else:
                sqrt_log = math.sqrt(_log2_over(8.0, 1.0, eps, 1))
                const = _log2_over(16.0, 1.0, eps, 2)
            return spread * sqrt_log, const, 2.0 * _log2_over(2.0, 1.0, eps, 2)
        if task == "Q":
            ratio = spread / eps  # overflows only at a subnormal eps: then root by root
            b = 4.0 * (math.sqrt(ratio) if ratio < math.inf else
                       math.sqrt(spread) / math.sqrt(eps))
            const = _log2_over(2.0**23 * (32.0 - eps) ** 2, 16.0 - eps, eps, 6)
        else:
            se = math.sqrt(eps)
            b = math.sqrt(2.0 * spread / se)
            const = _log2_over(2.0**6 * 3.0 * (4.0 - se) ** 2, 2.0 - se, eps, 3)
        return b, const, 0.0

    def evaluate(
        self, channel: Channel, n: int, eps: float, task: str, photons: float | None = None
    ) -> CapacityBound:
        """The bound at (n, eps, task).

        ``photons`` (``--ns`` on the command line) is ignored by a family
        that does not need it.
        """
        self.check_applies(channel, photons)
        n = check_n(n)
        eps = check_eps(eps)
        a, spread = self.rate(channel, task, photons)
        b, c, n_min = self.eps_terms(spread, eps, task)
        params = _channel_params(channel) | ({"Ns": float(photons)} if self.needs_photons else {})
        return _assemble(a=a, b=b, c=c, n_min=n_min, n=n, eps=float(eps), task=task,
                         method=self.method, params=params)


#: every lower-bound family by method name; ``best_lower_bound`` breaks ties
#: in this order
BOUND_FAMILIES: dict[str, BoundFamily] = {
    family.method: family
    for family in (
        BoundFamily("improved", "improved", (PureLoss,),
                    needs_photons=False, aep_threshold=False, formula=_rate_improved),
        BoundFamily("aep", "AEP", (PureLoss, PureAmplifier),
                    needs_photons=False, aep_threshold=True, formula=_rate_aep),
        BoundFamily("ec-aep", "EC-AEP", (PureLoss, PureAmplifier),
                    needs_photons=True, aep_threshold=True, formula=_rate_ec_aep),
        BoundFamily("ec-variance", "variance", (PureLoss,),
                    needs_photons=True, aep_threshold=False, formula=_rate_ec_variance),
    )
}


# ---------------------------------------------------------------------------
# public bound families


def aep_lower_bound_amplifier(gain: float, n: int, eps: float, task: str) -> CapacityBound:
    """Closed-form AEP lower bound for the pure amplifier channel."""
    return BOUND_FAMILIES["aep"].evaluate(PureAmplifier(gain), n, eps, task)


def aep_lower_bound_generic(
    channel: Channel, input_state: GaussianState, n: int, eps: float, task: str
) -> CapacityBound:
    """AEP lower bound evaluated numerically for an arbitrary pure input.

    The last mode of ``input_state`` is sent through the channel; the rest
    act as the reference system A.  For "Q" the direct line A>B is used; for
    "Q2"/"K" the better of the direct and reverse lines.  The reverse line
    refuses, naming the channel parameter, a channel whose rho_BE covariance
    the Williamson form finds not positive definite once rounded (an
    amplifier from g ~ 3e7 on a TMSV(1) input), where the closed forms
    still answer.
    """
    n = check_n(n)
    eps = check_eps(eps)
    _check_task(task)
    if input_state.modes < 2:
        raise ValueError("input must carry a reference system (at least 2 modes)")
    d = input_state._williamson[1]
    # eigensolver noise on the symplectic spectrum grows with the energy scale
    purity_defect = float(np.max(np.abs(d - 1.0)))
    if purity_defect > _PURITY_TOL * (1.0 + np.linalg.norm(input_state.cov, 2)):
        raise ValueError(
            f"input must be pure; symplectic eigenvalues deviate by {purity_defect:.3e}"
        )

    k = input_state.modes
    psi = stinespring_output(channel, input_state)
    a_modes = list(range(k - 1))
    b_mode, e_mode = k - 1, k
    # psi reduced once to each subsystem read; the functionals share the marginals
    rho_ab, rho_ae, rho_b, rho_e = (reduce_state(psi, keep) for keep in
                                    (a_modes + [b_mode], a_modes + [e_mode], [b_mode], [e_mode]))

    params = _channel_params(channel) | {"input_modes": k}

    def line(rate: float, extra: dict, h_pair: dict) -> CapacityBound:
        spread = _aep_coeff(*(2.0 ** (h / 2.0) for h in h_pair.values()))
        b, c, n_min = BOUND_FAMILIES["aep"].eps_terms(spread, eps, task)
        return _assemble(a=rate, b=b, c=c, n_min=n_min, n=n, eps=eps, task=task,
                         method="aep-generic", params=params | extra | h_pair)

    h_direct = {"H(A|B)": _petz_half(rho_ab, _cut(rho_ab, a_modes, rho_b)),
                "H(A|E)": _petz_half(rho_ae, _cut(rho_ae, a_modes, rho_e))}
    # coherent informations I_c(A>B) = S(B) - S(AB) and I_c(B>A) = S(A) - S(AB)
    ic_direct = von_neumann_entropy(rho_b) - von_neumann_entropy(rho_ab)
    if task == "Q":
        return line(ic_direct, {}, h_direct)

    rho_a, rho_be = reduce_state(psi, a_modes), reduce_state(psi, [b_mode, e_mode])
    try:
        h_be = _petz_half(rho_be, _cut(rho_be, [0], rho_e))
    except ValueError as exc:  # the Williamson form's rule: V_BE > 0 as computed
        name, value = _channel_params(channel).popitem()
        raise ValueError(f"aep_lower_bound_generic cannot evaluate {name} = {value!r}: the "
                         f"rounding of rho_BE leaves its {exc}; BOUND_FAMILIES['aep'] "
                         "answers") from exc
    h_reverse = {"H(B|A)": _petz_half(rho_ab, _cut(rho_ab, [k - 1], rho_a)), "H(B|E)": h_be}
    ic_reverse = von_neumann_entropy(rho_a) - von_neumann_entropy(rho_ab)
    direct = line(ic_direct, {"line": "direct"}, h_direct)
    reverse = line(ic_reverse, {"line": "reverse"}, h_reverse)
    return direct if direct.value >= reverse.value else reverse


def improved_lower_bound_pure_loss(
    transmissivity: float, n: int, eps: float, task: str
) -> CapacityBound:
    """Pure-loss lower bound with no sqrt(n) penalty and no n threshold."""
    return BOUND_FAMILIES["improved"].evaluate(PureLoss(transmissivity), n, eps, task)


def ec_aep_lower_bound(
    channel: Channel, photons: float, n: int, eps: float, task: str
) -> CapacityBound:
    """Energy-constrained AEP bound with a TMSV input of ``photons`` photons."""
    return BOUND_FAMILIES["ec-aep"].evaluate(channel, n, eps, task, photons)


def ec_variance_lower_bound(
    transmissivity: float, photons: float, n: int, eps: float, task: str
) -> CapacityBound:
    """Energy-constrained pure-loss bound via entropy variances; no n threshold."""
    return BOUND_FAMILIES["ec-variance"].evaluate(PureLoss(transmissivity), n, eps, task, photons)


def converse_coeffs(
    channel: Channel, eps: float, task: str
) -> tuple[float, float, float, float]:
    """(a, b, c, n_min) of the weak converse, after its eps and task checks.

    The converse n Q2 + log2(6) + 2 log2((1+eps)/(1-eps)) is the shape
    a n - b sqrt(n) - c with b = 0 and c the negated constant, and holds
    at every n.
    """
    eps = check_eps(eps)
    if task not in CONVERSE_TASKS:
        raise ValueError(
            f"the weak-converse bound covers tasks {'/'.join(CONVERSE_TASKS)}, got {task!r}")
    return asymptotic_capacity(channel, "Q2"), 0.0, -_upper_const(eps), 0.0


def upper_bound_nshot(channel: Channel, n: int, eps: float, task: str = "Q2") -> CapacityBound:
    """Converse: n Q2 + log2(6) + 2 log2((1+eps)/(1-eps)), for Q2/K only."""
    n = check_n(n)
    a, b, c, _ = converse_coeffs(channel, eps, task)
    return CapacityBound(
        value=float(bound_value(a, b, c, n)[0]),
        direction="upper",
        task=task,
        method="upper",
        n=n,
        eps=float(eps),
        params=_channel_params(channel),
        breakdown={"linear": a * n, "constant": -c, "per_use": a},
    )


def best_families(kind: type, photons_given: bool) -> list[BoundFamily]:
    """The families ``best_lower_bound`` compares on channels of type
    ``kind``, in table order; the energy-constrained ones only when a photon
    number is given."""
    return [family for family in BOUND_FAMILIES.values()
            if family.covers(kind) and (photons_given or not family.needs_photons)]


def best_lower_bound(
    channel: Channel, n: int, eps: float, task: str, photons: float | None = None
) -> CapacityBound:
    """Largest applicable lower bound; ``photons`` enables the EC families.

    Ties go to the family listed first in ``BOUND_FAMILIES``.
    """
    candidates = [family.evaluate(channel, n, eps, task, photons)
                  for family in best_families(type(channel), photons is not None)]
    return candidates[first_max([bound.value for bound in candidates])]


# ---------------------------------------------------------------------------
# inverting the bounds: channel complexity


def invert_sqrt_bound(a: float, b: float, c: float, k: float, min_n: int = 1) -> int:
    """Smallest integer n >= min_n with ``a n - b sqrt(n) - c >= k``.

    Solved through the quadratic in sqrt(n), then verified by substitution
    so rounding cannot produce an off-by-one.  ``smallest_passing`` brackets
    the answer with steps that double away from the estimate and bisects,
    so it stays short when a -> 0+ puts n near 1e30, where the two large
    terms cancel and the substituted value no longer moves by one unit.
    """
    if not a > 0.0:
        raise ValueError(f"per-use rate must be positive, got {a}")
    if b < 0.0:
        raise ValueError(f"sqrt coefficient must be >= 0, got {b}")
    min_n = max(int(min_n), 1)
    if math.isinf(a):
        return min_n

    def satisfied(m: int) -> bool:
        return bound_value(a, b, c, m)[0] >= k

    disc = b * b + 4.0 * a * (c + k)
    if disc < 0.0:
        guess = min_n
    else:
        root = (b + math.sqrt(disc)) / (2.0 * a)
        if root * root == math.inf:  # n > disc / (4 a^2), and every rate a is below 400
            raise ValueError("the inverted bound overflows a float: more than 1e300 channel "
                             "uses are needed")
        guess = math.ceil(root * root)
    return smallest_passing(satisfied, guess, min_n - 1)


def channel_uses_sufficient(
    channel: Channel, k: float, eps: float, task: str, photons: float | None = None
) -> int:
    """Channel uses guaranteed to suffice for k bits at error eps.

    The fewest uses over the families that cover ``channel``: the
    unconstrained ones without ``photons``, the energy-constrained ones with
    it.  Raises ``ValueError`` when every applicable rate is zero (the task
    is impossible).
    """
    eps = check_eps(eps)
    _check_task(task)
    k = _check_bits(k)
    if photons is not None:
        photons = check_photons(photons)

    best: int | None = None
    for family in BOUND_FAMILIES.values():
        if not family.covers(type(channel)) or family.needs_photons != (photons is not None):
            continue
        a, spread = family.rate(channel, task, photons)
        b, c, n_min = family.eps_terms(spread, eps, task)
        if not a > 0.0:
            continue
        n = invert_sqrt_bound(a, b, c, k, min_n=math.ceil(n_min))
        if best is None or n < best:
            best = n
    if best is None:
        raise ValueError(
            "the achievable rate is zero for this channel/task; "
            "no number of uses suffices"
        )
    return best


def channel_uses_necessary(channel: Channel, k: float, eps: float) -> int:
    """Channel uses below which k bits at error eps are impossible (Q2/K)."""
    eps = check_eps(eps)
    k = _check_bits(k)
    q2 = asymptotic_capacity(channel, "Q2")
    if q2 == 0.0:
        raise ValueError("channel has zero capacity; no finite n transmits k bits")
    if math.isinf(q2):
        return 0
    return max(0, math.ceil((k - _upper_const(eps)) / q2))
