"""Exponential tail bounds on the total-photon-number distribution.

For an n-mode Gaussian state with mean m, covariance V and mean photon
number N, the probability of measuring more than M photons in total obeys
a Chernoff-type bound

    P_{>M} <= p(x) * exp(-2 * arccoth(x) * M),      x > ||V||_inf,

with prefactor

    p(x) = exp(m^T (xI - V)^-1 m) / det((xI - V) / (x - 1))^(1/4).

For a coherent state the det factor is 1 and p(x) e^{-2 arccoth(x) M} is
exactly the Chernoff bound on the Poisson tail; keeping the exponential
term whole is what preserves soundness under displacement.
``tail_bound_closed`` evaluates this at x = 8N + 4, where the exponent
simplifies to M/(4N + 2) nats and p(x) <= 2^(n/2) e^(1/2);
``tail_bound_optimized`` minimizes over x numerically and is never worse.
The square root of the optimized bound certifies the trace-distance error
of a Fock-space truncation at cutoff M.

Each bound has one evaluator, which reads three facts of the
``GaussianState``: its mean photon number, the eigenvalues of V and the
mean rotated into V's eigenbasis, each computed once per state.
``_closed`` is the closed form, ``_optimized`` the search (with ``_closed``
as its only fallback), and ``_truncation`` its square root.  The public
functions and the cutoff search all go through these.

``_checked``, which every public function calls first, refuses a state that
violates the uncertainty relation (below the vacuum included;
``InvalidStateError``) and then one whose mean photon number overflows a
float (``ValueError``): the bound is proved for physical states only, and an
overflowing photon number leaves nothing finite to bound with.  Every other
state gets both bounds.  Past N ~ 2.25e14 photons the bracket start
arccoth(10 (8N + 4)) is taken as log1p(2 / (x - 1)) / 2, where the direct
log rounds to 0; below t ~ 2.8e-17, where exp(-2t) rounds to 1, the
objective takes ln(coth(t) - 1) as ln 2 - ln(expm1(2t)); and past N ~
2.2e307, where 8N + 4 overflows, the closed form reads 1.  Each form holds
only where the one before it fails, so every other bound keeps its bits.

The module owns the errors of a certified truncation: ``CutoffCapError``
(no cutoff up to ``_CUTOFF_CAP`` = 10^6 reaches eps), ``DimensionCapError``
(the Fock basis at the cutoff outgrows its cap) and ``FockTraceError`` (a
Fock block's trace fails its check).  ``bosonic.fock`` raises the last two and
re-exports them; here they can be named without loading the Fock build.

No cutoff certifies an eps, or a share of one, below sqrt(``TAIL_FLOOR``):
``_certifiable`` is that rule's one home.  ``cutoff_for_error`` inverts the
bound instead of searching M with it.  At
fixed t = arccoth(x) the log bound f(t) - 2tM is linear in M, so the
smallest cutoff whose bound reaches eps is the ceiling of the minimum over
t of M*(t) = (f(t) - 2 ln eps) / (2t): one golden search.  Two bound
evaluations confirm that guess -- it passes and one photon fewer fails --
so the cutoff is the one a search over M with the bound itself returns.
A failed check (the nat cap on t shrinks the bracket at large M, or the
minimum rounds the wrong way) only makes the search step outward.  So the
guess need not be sharp: any guess gives the same cutoff, and a wrong one
costs only extra checks.  The estimate therefore runs a short golden
search (``_ESTIMATE_ITERS``).

A check is ``_truncation(state, M, stop).bound <= eps``: the public
truncation bound, with one shortcut.  The search stops at the first t
whose log bound lies below stop = 2 ln eps - 1e-9.  That is exact.
Golden section keeps the smaller of its two inner values, so the kept
value never rises, and the minimum it returns is at most every value it
evaluated; a log bound that far below 2 ln eps leaves a square-rooted
bound below eps after rounding.  A failing check runs the whole search,
and a search with no finite value takes the closed-form point, as the
public bound does.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .states import (GaussianState, check_cutoff, check_eps, check_photons, mean_photon_number,
                     require_valid)

__all__ = [
    "CutoffCapError",
    "DimensionCapError",
    "FockTraceError",
    "TailBoundResult",
    "cutoff_for_error",
    "cutoff_nongaussian",
    "tail_bound_closed",
    "tail_bound_optimized",
    "trace_distance_truncation_bound",
]

# largest arccoth(x) explored, in nats per photon; 2 * cap * M <= 700 keeps
# exp() in the normal range while still reaching bounds below 1e-300
_T_CAP_NATS = 700.0
# golden-section iterations; shrinks the bracket by ~1e13
_GOLDEN_ITERS = 64
# iterations of the cutoff estimate, which is only rounded up and confirmed
_ESTIMATE_ITERS = 24
# a check passes early once a log bound lies this far below 2 ln eps
_EARLY_MARGIN = 1e-9
# the largest cutoff ``cutoff_for_error`` tries: its Fock basis would not fit in memory anyway
_CUTOFF_CAP = 10**6
_LN2 = math.log(2.0)
#: every photon-tail bound is at least this; no cutoff certifies eps below its root
TAIL_FLOOR = 1e-300


class CutoffCapError(RuntimeError):
    """Requested accuracy needs a photon cutoff above the configured cap."""


class DimensionCapError(RuntimeError):
    """Truncated basis would exceed the configured dimension cap."""


class FockTraceError(RuntimeError):
    """A Fock block's trace fails the block-trace rule, ``fock._checked_trace``."""


@dataclass(frozen=True)
class TailBoundResult:
    """A certified upper bound on P_{>M} (or on truncation trace distance).

    Attributes:
        bound: the certified value, clamped to [0, 1].
        decay_rate: asymptotic decay in bits per unit cutoff.
        optimizer_x: the minimizing x for the optimized bound, None for the
            closed form.
        fallback: True when the search failed and the closed-form point was
            used instead.
    """

    bound: float
    decay_rate: float
    optimizer_x: float | None = None
    fallback: bool = False


def _checked(state: GaussianState) -> GaussianState:
    """``state`` if it is physical and its photon number is finite;
    ``InvalidStateError``, then ``ValueError``, for any other.  Only the
    checks run here: the state computes its verdict and photon number once."""
    mean_photon_number(require_valid(state))
    return state


def _log_prefactor(evals: np.ndarray, mean_rot: np.ndarray, x: float) -> float:
    """ln p(x); +inf when x does not dominate the covariance spectrum."""
    gaps = x - evals
    if np.any(gaps <= 0.0):
        return math.inf
    quad = float(np.sum(mean_rot**2 / gaps))
    logdet = float(np.sum(np.log(gaps) - math.log(x - 1.0)))
    return quad - 0.25 * logdet


def tail_bound_closed(state: GaussianState, cutoff: int) -> TailBoundResult:
    """Closed-form tail bound at x = 8N + 4; no optimization.

    ``bound = p(8N+4) * exp(-M / (4N+2))`` with N the mean photon number.
    """
    cutoff = check_cutoff(cutoff)
    return _closed(_checked(state), cutoff)


def _closed(state: GaussianState, cutoff: int) -> TailBoundResult:
    """The closed-form bound at x = 8N + 4, also the optimized bound's fallback."""
    scale = 4.0 * state._photons + 2.0  # 1 / scale <= 2 arccoth(8N + 4), the exact exponent
    decay_rate = math.log2(math.e) / scale
    x = 8.0 * state._photons + 4.0
    if x == math.inf:  # N past ~2.2e307: p(x) has no float form, and 1 bounds every probability
        return TailBoundResult(bound=1.0, decay_rate=decay_rate)
    log_bound = _log_prefactor(*state._eig[:2], x) - cutoff / scale
    return TailBoundResult(bound=_clamp_exp(log_bound), decay_rate=decay_rate)


def _clamp_exp(log_bound: float) -> float:
    if log_bound >= 0.0:
        return 1.0
    # rounding a certified bound up to the floor is always sound, and the
    # result never collapses to an (unsound) exact zero
    return max(math.exp(log_bound), TAIL_FLOOR)


def _make_objective(evals: np.ndarray, mean_rot: np.ndarray, cutoff: int):
    """ln of the optimized-bound objective as a function of t = arccoth(x)."""
    # Python floats are numpy's float64 doubles, in the same order: same bits, no scalar dispatch
    # (1 - eval, rotated mean squared) per direction; 1 - eval > 0 on squeezed/vacuum ones
    terms = list(zip((1.0 - evals).tolist(), (mean_rot**2).tolist()))
    exp, expm1, log, log1p, inf = math.exp, math.expm1, math.log, math.log1p, math.inf

    def objective(t: float) -> float:
        try:
            log_s = _LN2 - 2.0 * t - log1p(-exp(-2.0 * t))  # ln(coth(t) - 1)
        except ValueError:  # exp(-2t) rounds to 1 below t ~ 2.8e-17
            log_s = _LN2 - log(expm1(2.0 * t))
        s = exp(log_s)  # x - 1; may underflow to 0 for huge t
        total = -2.0 * t * cutoff
        for lam_gap, m2 in terms:
            gap = s + lam_gap  # x - eval, computed without cancellation
            if lam_gap == 0.0:
                log_gap = log_s
            elif gap <= 0.0:
                return inf
            else:
                log_gap = log(gap)
            if m2 != 0.0:
                if gap <= 0.0:
                    return inf
                total += m2 / gap
            total -= 0.25 * (log_gap - log_s)
        return total

    return objective


def tail_bound_optimized(state: GaussianState, cutoff: int) -> TailBoundResult:
    """Tail bound minimized over x by golden-section search on t = arccoth(x).

    The bracket runs from arccoth(10 * (8N + 4)) up to arccoth(||V||_inf),
    backing off by a relative margin where the prefactor diverges and capped
    at 700/(2M + 1) nats to keep the exponential in range.  Falls back to the
    closed-form point x = 8N + 4 if the search returns nothing finite.
    """
    cutoff = check_cutoff(cutoff)
    return _optimized(_checked(state), cutoff)


def _optimized(state: GaussianState, cutoff: int, stop: float = -math.inf) -> TailBoundResult:
    """The optimized bound at the golden-section minimum, or at the first
    log bound below ``stop``; the closed form when nothing finite is found."""
    objective = _make_objective(*state._eig[:2], cutoff)
    t_best, log_best = _golden_min(objective, *_t_bracket(state, cutoff), stop=stop)
    if not math.isfinite(log_best):
        return replace(_closed(state, cutoff), optimizer_x=8.0 * state._photons + 4.0,
                       fallback=True)
    return TailBoundResult(
        bound=_clamp_exp(log_best),
        decay_rate=2.0 * t_best * math.log2(math.e),
        optimizer_x=_coth(t_best),
    )


def _t_bracket(state: GaussianState, cutoff: int) -> tuple[float, float]:
    """The t = arccoth(x) interval searched for the bound at ``cutoff``."""
    norm = float(state._eig[0][-1])  # ||V||_inf, V's largest eigenvalue
    t_cap = _T_CAP_NATS / (2.0 * cutoff + 1.0)
    t_lo = _arccoth(10.0 * (8.0 * state._photons + 4.0))
    delta = 1e-6 * (1.0 + norm)
    if norm > 1.0 + delta:
        t_hi = min(_arccoth(norm + delta), t_cap)
    else:
        # every direction is (numerically) vacuum-tight: the prefactor stays
        # bounded, so push the exponent to the cap
        t_hi = t_cap
    if not t_hi > t_lo:  # nat cap binds at very large cutoffs, or 10 (8N + 4) overflows (NaN)
        t_lo = t_hi / 2.0
    return t_lo, t_hi


def _arccoth(x: float) -> float:
    ratio = (x + 1.0) / (x - 1.0)
    if ratio == 1.0:  # x past ~1.8e16, where the log would read 0
        return 0.5 * math.log1p(2.0 / (x - 1.0))
    return 0.5 * math.log(ratio)


def _coth(t: float) -> float:
    if t > 20.0:  # 1 + 2 / expm1(2t) rounds to 1.0 here, and expm1 overflows past t ~ 354.9
        return 1.0
    return 1.0 / math.tanh(t)


def _golden_min(fun, t_low: float, t_high: float, iters: int = _GOLDEN_ITERS,
                stop: float = -math.inf) -> tuple[float, float]:
    """Golden-section minimum of ``fun`` on [t_low, t_high], endpoint-aware,
    after ``iters`` iterations.  The first inner value below ``stop`` is
    returned at once; the kept value never rises, so the full search would
    have returned a value at most as large."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = t_low, t_high
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fun(c), fun(d)
    if fc < stop or fd < stop:
        return (c, fc) if fc < stop else (d, fd)
    for _ in range(iters):
        if fc <= fd or math.isnan(fd):
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fun(c)
            if fc < stop:
                return c, fc
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fun(d)
            if fd < stop:
                return d, fd
    candidates = [(fun(t_low), t_low), (fc, c), (fd, d), (fun(t_high), t_high)]
    best = min((f, t) for f, t in candidates if not math.isnan(f))
    return best[1], best[0]


def trace_distance_truncation_bound(state: GaussianState, cutoff: int) -> TailBoundResult:
    """Certified bound on ``(1/2)||rho - rho_M||_1``: the square root of the
    optimized photon-number tail bound."""
    cutoff = check_cutoff(cutoff)
    return _truncation(_checked(state), cutoff)


def _truncation(state: GaussianState, cutoff: int, stop: float = -math.inf) -> TailBoundResult:
    """The square root of ``_optimized(state, cutoff, stop)``."""
    tail = _optimized(state, cutoff, stop)
    return replace(tail, bound=min(1.0, math.sqrt(tail.bound)), decay_rate=tail.decay_rate / 2.0)


def _estimate_cutoff(state: GaussianState, log_target: float) -> float:
    """About min over t of M*(t) = (f(t) - log_target) / (2t), the smallest
    real M whose log bound at some t reaches ``log_target``; f is the M = 0
    objective.  A short search: the guess is only rounded up and confirmed."""
    objective = _make_objective(*state._eig[:2], 0)

    def needed(t: float) -> float:
        return (objective(t) - log_target) / (2.0 * t)

    return _golden_min(needed, *_t_bracket(state, 0), iters=_ESTIMATE_ITERS)[1]


def _bound_passes(state: GaussianState, cutoff: int, eps: float) -> bool:
    """``trace_distance_truncation_bound(state, cutoff).bound <= eps``,
    passing at the first log bound below 2 ln eps by ``_EARLY_MARGIN`` (see
    the module docstring)."""
    return _truncation(state, cutoff, 2.0 * math.log(eps) - _EARLY_MARGIN).bound <= eps


def smallest_passing(ok, guess: int, floor: int, cap: int | None = None) -> int | None:
    """Smallest integer m in (floor, cap] with ``ok(m)``, or None when
    ``ok(cap)`` fails.  ``ok`` must be False up to the answer and True from
    it on; ``floor`` is known to fail and is never checked.  The search
    steps away from ``guess``, clamped into (floor, cap], by 1, 2, 4, ...
    and bisects the last step: a right guess costs two checks (one at
    floor + 1), a wrong one a logarithmic number more.
    """
    top = math.inf if cap is None else cap
    hi = min(max(guess, floor + 1), top)
    step = 1
    if ok(hi):
        while (lo := max(hi - step, floor)) > floor and ok(lo):
            hi, step = lo, 2 * step
    else:
        lo = hi
        while lo < top and not ok(hi := min(lo + step, top)):
            lo, step = hi, 2 * step
        if lo >= top:
            return None
    # ok(lo) is False (or lo is the floor), ok(hi) is True
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _certifiable(eps: float, parts: int) -> float:
    """``check_eps(eps)``, refused when its share eps / ``parts`` lies below
    sqrt(``TAIL_FLOOR``), which no cutoff certifies: the one floor rule."""
    eps, root = check_eps(eps), math.sqrt(TAIL_FLOOR)
    if eps / parts < root:
        share = "" if parts == 1 else f" gives each of {parts} parts {eps / parts}, which"
        raise ValueError(f"eps {eps}{share} lies below {root}, the square root of the floor "
                         f"{TAIL_FLOOR} on every tail bound; no cutoff certifies it")
    return eps


def cutoff_for_error(state: GaussianState, eps: float) -> int:
    """Smallest cutoff M with ``trace_distance_truncation_bound <= eps``:
    the inverted exponent (see the module docstring), confirmed by
    ``smallest_passing``.

    Raises ``ValueError`` for an eps below sqrt(``TAIL_FLOOR``), which no
    cutoff reaches, and ``CutoffCapError`` when even ``_CUTOFF_CAP`` (10^6)
    fails (the certified cutoff would not fit in memory anyway).
    """
    eps = _certifiable(eps, 1)
    state = _checked(state)
    estimate = _estimate_cutoff(state, 2.0 * math.log(eps))  # the photon tail must reach eps^2
    guess = math.ceil(estimate) if math.isfinite(estimate) else 0
    cutoff = smallest_passing(lambda m: _bound_passes(state, m, eps), guess, -1, _CUTOFF_CAP)
    if cutoff is None:
        raise CutoffCapError(f"no cutoff up to {_CUTOFF_CAP} reaches truncation error {eps}; "
                             "the state is too energetic for a certified truncation")
    return cutoff


def cutoff_nongaussian(photons: float, eps: float) -> int:
    """Cutoff certifying truncation error ``eps`` for an arbitrary state of
    mean photon number ``photons``, via the Markov bound sqrt(N/M) and a
    three-way error split: ``ceil(9 N / eps^2)``, refused if it overflows a float."""
    photons, eps = check_photons(photons), check_eps(eps)
    square = eps * eps  # below the normal range it loses digits: divide twice there
    ratio = 9.0 * photons / square if square >= sys.float_info.min else 9.0 * photons / eps / eps
    if ratio == math.inf:
        raise ValueError(f"cutoff_nongaussian cannot evaluate N = {photons!r} with eps = "
                         f"{eps!r}: 9 N / eps^2 overflows a float")
    return math.ceil(ratio)
