"""Photon-number tail bounds: soundness against exact tails, optimizer behavior."""

import decimal
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

import bosonic as b
from bosonic import states, tail
from conftest import full_search_cutoff, log_x_minus_one, numpy_scalar_objective, random_state


def exact_thermal_tail(n_mean: float, cutoff: int) -> float:
    return (n_mean / (n_mean + 1.0)) ** (cutoff + 1)


def test_closed_bound_thermal_formula():
    # closed bound at x = 8N+4: sqrt((8N+3)/(6N+3)) * exp(-M/(4N+2))
    for n_mean in (0.5, 1.0, 5.0):
        for cutoff in (0, 3, 10, 41):
            got = b.tail_bound_closed(b.thermal_state(n_mean), cutoff)
            expect = min(1.0, math.sqrt((8 * n_mean + 3) / (6 * n_mean + 3)) * math.exp(
                -cutoff / (4 * n_mean + 2)))
            assert got.bound == pytest.approx(expect, rel=1e-12)
            assert got.decay_rate == pytest.approx(math.log2(math.e) / (4 * n_mean + 2), rel=1e-12)


def test_bounds_dominate_exact_thermal_tail():
    for n_mean in (0.5, 1.0, 5.0):
        st = b.thermal_state(n_mean)
        for cutoff in range(0, 101):
            exact = exact_thermal_tail(n_mean, cutoff)
            opt = b.tail_bound_optimized(st, cutoff).bound
            closed = b.tail_bound_closed(st, cutoff).bound
            assert opt >= exact * (1.0 - 1e-12)
            assert opt <= closed * (1.0 + 1e-12)


def test_bounds_dominate_exact_tmsv_tail():
    # total-photon tail of the TMSV is (N/(N+1))^(floor(M/2)+1)
    for n_mean in (0.5, 2.0):
        st = b.tmsv_state(n_mean)
        for cutoff in range(0, 61):
            exact = (n_mean / (n_mean + 1.0)) ** (cutoff // 2 + 1)
            assert b.tail_bound_optimized(st, cutoff).bound >= exact * (1.0 - 1e-12)


def test_optimized_monotone_in_cutoff():
    st = b.thermal_state(2.0)
    prev = math.inf
    for cutoff in range(0, 51):
        cur = b.tail_bound_optimized(st, cutoff).bound
        assert cur <= prev * (1.0 + 1e-12)
        prev = cur


def test_optimized_near_pure_states():
    # vacuum truncated at 1 photon: essentially zero tail
    res = b.tail_bound_optimized(b.vacuum_state(), 1)
    assert res.bound <= 1e-12
    assert not res.fallback
    # pure coherent state keeps a positive but tiny bound
    coh = b.apply_transform(b.vacuum_state(), b.displacement([0.4, -0.2]))
    assert 0.0 < b.tail_bound_optimized(coh, 40).bound < 1e-12


def test_mean_shift_enters_bound():
    st_shift = b.GaussianState(np.array([2.0, 0.0]), 3.0 * np.eye(2))
    st_plain = b.thermal_state(1.0)
    assert b.tail_bound_closed(st_shift, 10).bound > b.tail_bound_closed(st_plain, 10).bound


def test_bound_dominates_exact_poisson_tail():
    # coherent states: the optimized bound is exactly the Chernoff bound on
    # the Poisson tail, so soundness here is razor thin
    for a2 in (0.3, 1.0, 2.5, 6.0):
        st = b.GaussianState(np.array([math.sqrt(2 * a2), 0.0]), np.eye(2))
        for cutoff in range(0, 60):
            term = math.exp(-a2)
            for k in range(cutoff + 1):
                term *= a2 / (k + 1)
            exact, t = 0.0, term  # forward tail sum, no cancellation
            for k in range(cutoff + 1, cutoff + 400):
                exact += t
                t *= a2 / (k + 1)
            opt = b.tail_bound_optimized(st, cutoff).bound
            assert opt >= exact * (1.0 - 1e-12), (a2, cutoff)


def test_bound_dominates_displaced_thermal_tail():
    for a2, n_mean in ((1.0, 0.5), (2.0, 1.0)):
        st = b.GaussianState(np.array([math.sqrt(2 * a2), 0.0]),
                             (2 * n_mean + 1) * np.eye(2))
        diag = np.real(np.diag(b.fock_matrix_elements(st, 250).matrix))
        for cutoff in range(0, 80):
            exact = float(np.sum(diag[cutoff + 1:]))
            opt = b.tail_bound_optimized(st, cutoff).bound
            assert opt >= exact * (1.0 - 1e-9), (a2, n_mean, cutoff)


def test_bound_never_exact_zero():
    # certified bound must stay positive even deep in the exponential regime
    assert b.tail_bound_optimized(b.vacuum_state(), 5000).bound > 0.0


def test_trace_distance_truncation_bound_is_sqrt():
    st = b.thermal_state(2.0)
    for cutoff in (5, 30):
        td = b.trace_distance_truncation_bound(st, cutoff)
        opt = b.tail_bound_optimized(st, cutoff)
        assert td.bound == pytest.approx(math.sqrt(opt.bound), rel=1e-12)
        assert td.decay_rate == pytest.approx(opt.decay_rate / 2.0, rel=1e-12)


def test_cutoff_for_error():
    st = b.thermal_state(1.0)
    for eps in (0.1, 0.01, 1e-4):
        m = b.cutoff_for_error(st, eps)
        assert b.trace_distance_truncation_bound(st, m).bound <= eps
        if m > 0:
            assert b.trace_distance_truncation_bound(st, m - 1).bound > eps
    assert b.cutoff_for_error(st, 0.01) <= 56
    assert b.cutoff_for_error(st, 0.1) <= 29


def test_cutoff_cap_raises(monkeypatch):
    monkeypatch.setattr(b.tail, "_CUTOFF_CAP", 10)
    with pytest.raises(b.CutoffCapError):
        b.cutoff_for_error(b.thermal_state(50.0), 1e-9)


def test_cutoff_at_the_cap_is_found(monkeypatch):
    # the answer 23 lies strictly between the powers of two 16 and 32:
    # a cap of exactly 23 returns it, one below raises
    st = b.thermal_state(1.0)
    assert b.cutoff_for_error(st, 1e-3) == 23
    for cap in (23, 24, 31):
        monkeypatch.setattr(b.tail, "_CUTOFF_CAP", cap)
        assert b.cutoff_for_error(st, 1e-3) == 23
    monkeypatch.setattr(b.tail, "_CUTOFF_CAP", 22)
    with pytest.raises(b.CutoffCapError, match="no cutoff up to 22"):
        b.cutoff_for_error(st, 1e-3)


def test_cutoff_cap_below_one(monkeypatch):
    # the bound at M = 0 is 1 for every state: cap 0 fails ...
    monkeypatch.setattr(b.tail, "_CUTOFF_CAP", 0)
    with pytest.raises(b.CutoffCapError, match="no cutoff up to 0 "):
        b.cutoff_for_error(b.thermal_state(0.001), 0.2)


def test_cutoff_zero_when_it_passes(monkeypatch):
    # ... unless the bound says otherwise; then 0 is the answer, cap 0 included
    monkeypatch.setattr(b.tail, "_bound_passes", lambda *args: True)
    for cap in (0, 10**6):
        monkeypatch.setattr(b.tail, "_CUTOFF_CAP", cap)
        assert b.cutoff_for_error(b.thermal_state(1.0), 1e-3) == 0


def test_cutoff_matches_linear_scan(monkeypatch):
    # the oracle: the first M of a linear scan whose bound reaches eps
    rng = np.random.default_rng(17)
    states = [b.vacuum_state(), b.thermal_state(20.0)]
    states += [random_state(rng, modes) for modes in (1, 2, 3) for _ in range(2)]
    cap = 300
    monkeypatch.setattr(b.tail, "_CUTOFF_CAP", cap)
    for st in states:
        bounds = [b.trace_distance_truncation_bound(st, m).bound for m in range(cap + 1)]
        for eps in (0.9, 0.5, 1e-3, 1e-10, 1e-100):
            passing = [m for m, bound in enumerate(bounds) if bound <= eps]
            if passing:
                assert b.cutoff_for_error(st, eps) == passing[0], (st, eps)
            else:
                with pytest.raises(b.CutoffCapError):
                    b.cutoff_for_error(st, eps)


def test_cutoff_inversion_needs_two_checks(monkeypatch):
    # the inverted exponent lands on the answer: one check passes M, one fails M - 1
    calls = []
    check = b.tail._bound_passes
    monkeypatch.setattr(b.tail, "_bound_passes",
                        lambda *args: calls.append(args[1]) or check(*args))
    assert b.cutoff_for_error(b.thermal_state(1.0), 1e-3) == 23
    assert calls and len(calls) <= 2


def test_cutoff_eps_below_the_tail_floor(monkeypatch):
    # every tail bound is at least TAIL_FLOOR = 1e-300, so no cutoff reaches a
    # truncation error below 1e-150: rejected before any check
    calls = []
    check = b.tail._bound_passes
    monkeypatch.setattr(b.tail, "_bound_passes", lambda *args: calls.append(args) or check(*args))
    bound = b.tail.trace_distance_truncation_bound
    with pytest.raises(ValueError, match="floor 1e-300"):
        b.cutoff_for_error(b.vacuum_state(), 1e-160)
    assert calls == []
    m = b.cutoff_for_error(b.vacuum_state(), 1e-149)
    assert bound(b.vacuum_state(), m).bound <= 1e-149 < bound(b.vacuum_state(), m - 1).bound


def test_smallest_passing_matches_linear_scan():
    from bosonic.tail import smallest_passing

    for answer in (0, 1, 2, 5, 23, 64, 1000):
        for floor in (-1, 0, 4):
            for cap in (None, 0, 5, 23, 30, 2000):
                if cap is not None and cap <= floor:
                    continue
                top = 5000 if cap is None else cap
                scan = next((m for m in range(floor + 1, top + 1) if m >= answer), None)
                guesses = {answer - 7, answer - 1, answer, answer + 1, answer + 9,
                           floor, floor + 1, top}
                for guess in guesses:
                    calls = []

                    def ok(m):
                        calls.append(m)
                        return m >= answer

                    assert smallest_passing(ok, guess, floor, cap) == scan, (answer, floor, cap)
                    assert all(floor < m <= top for m in calls)
                    if guess == answer and floor + 1 < answer <= top:
                        assert len(calls) == 2  # the guess passes, one below fails


def test_optimizer_fallback_is_the_closed_form(monkeypatch):
    # a search that finds nothing finite falls back to the closed-form point
    # x = 8N + 4, bit for bit
    rng = np.random.default_rng(5)
    states = [b.thermal_state(1.5), random_state(rng, 1), random_state(rng, 2)]
    monkeypatch.setattr(b.tail, "_golden_min", lambda fun, lo, hi, **kwargs: (lo, math.inf))
    for st in states:
        for cutoff in (0, 7, 40):
            got = b.tail_bound_optimized(st, cutoff)
            closed = b.tail_bound_closed(st, cutoff)
            assert (got.bound, got.decay_rate) == (closed.bound, closed.decay_rate)
            assert got.fallback and got.optimizer_x == 8.0 * b.mean_photon_number(st) + 4.0


def test_nat_cap_below_the_bracket_start():
    # at M = 10^6 the cap 700 / (2M + 1) on t lies below arccoth(10 (8 N + 4)),
    # so the bracket is [t_cap / 2, t_cap]: no fallback, the bound at the floor
    state = b.thermal_state(1.0)
    t_lo, t_hi = tail._t_bracket(state, 10**6)
    assert t_hi == tail._T_CAP_NATS / (2e6 + 1.0) and t_lo == t_hi / 2.0
    optimized = b.tail_bound_optimized(state, 10**6)
    assert not optimized.fallback
    assert optimized.bound == tail.TAIL_FLOOR
    assert optimized.bound <= b.tail_bound_closed(state, 10**6).bound


def test_bounds_where_arccoth_of_the_bracket_start_rounds_to_zero():
    # past N ~ 2.25e14 photons (x = 10 (8N + 4) ~ 1.8e16) the bracket started
    # at arccoth(x) = 0.0, where the objective took log1p(-1): every bound and
    # the cutoff search raised "math domain error"
    for state in (b.thermal_state(3e14), b.tmsv_state(1e150)):
        assert tail._t_bracket(state, 10)[0] > 0.0
        assert b.tail_bound_closed(state, 10).bound == 1.0
        assert b.tail_bound_optimized(state, 10).bound == 1.0
        with pytest.raises(b.CutoffCapError, match="^no cutoff up to 1000000 reaches"):
            b.cutoff_for_error(state, 0.1)


def test_arccoth_past_the_rounding_edge_against_decimal():
    # from x ~ 1.8e16 on, (x + 1) / (x - 1) rounds to 1 and its log to 0.0
    with decimal.localcontext() as ctx:
        ctx.prec = 400  # (x + 1) / (x - 1) - 1 is down to 1e-308
        for x in (1.8014398509481984e16, 2.4e16, 1e20, 1.6e152, 1e300, 1.7e308):
            exact = decimal.Decimal(x)
            want = float(((exact + 1) / (exact - 1)).ln() / 2)
            assert tail._arccoth(x) == pytest.approx(want, rel=1e-15, abs=0.0), x


def test_objective_where_exp_of_minus_two_t_rounds_to_one():
    # the objective took log1p(-exp(-2t)) = log1p(-1.0) below t ~ 2.8e-17:
    # "math domain error" at the nat cap of a cutoff of 10^23
    objective = tail._make_objective(*b.thermal_state(1.0)._eig[:2], 10**23)  # V = 3 I
    with decimal.localcontext() as ctx:
        ctx.prec = 400  # x is up to 1e300
        for t in (2e-17, 1e-20, 3.5e-21, 1e-100, 1e-300):
            dt = decimal.Decimal(t)
            x = 1 + 2 / ((2 * dt).exp() - 1)  # coth(t)
            want = -2 * dt * 10**23 - ((x - 3) / (x - 1)).ln() / 2
            assert objective(t) == pytest.approx(float(want), rel=1e-14), t


def test_bound_at_the_floor_for_a_cutoff_of_ten_to_the_23():
    # the nat cap 700 / (2M + 1) put t where exp(-2t) rounds to 1: a math
    # domain error, where M = 10^16 read the floor
    state = b.thermal_state(0.5)
    assert b.tail_bound_optimized(state, 10**23).bound == tail.TAIL_FLOOR
    assert b.tail_bound_closed(state, 10**23).bound == tail.TAIL_FLOOR
    assert b.trace_distance_truncation_bound(state, 10**23).bound == math.sqrt(tail.TAIL_FLOOR)


def test_coth_past_where_expm1_overflows():
    # 1 + 2 / expm1(2t) is 1.0 from t = 20 on; expm1 overflowed past t ~ 354.9
    assert tail._coth(20.0) == 1.0 / math.tanh(20.0)
    for t in (20.5, 354.0, 355.0, 700.0, 1e300):
        assert tail._coth(t) == 1.0


def test_distances_between_rounded_vacua_complete():
    # vacua through random passive symplectics, rounded below the vacuum: the
    # bound search reaches t = 700 at cutoff 0, where 58 of these 600
    # distances raised OverflowError from coth
    rng = np.random.default_rng(0)
    for i in range(300):
        pair = [random_state(rng, 1 + i % 3, pure=True, max_squeeze=1.0, max_shift=0.0)
                for _ in range(2)]
        for eps in (1e-3, 1e-8):
            result = b.gaussian_trace_distance(*pair, eps)
            assert result.estimate < 1e-12 and result.certified_error <= eps


def test_closed_bound_where_eight_n_plus_four_overflows():
    # past N ~ 2.2e307 the closed form's x = 8N + 4 is inf, and p(x) read NaN
    # after "invalid value encountered in subtract"
    for photons in (2.3e307, 4.4e307):
        state = b.thermal_state(photons)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert b.tail_bound_closed(state, 10).bound == 1.0
            assert b.tail_bound_optimized(state, 10).bound == 1.0


def test_cutoff_nongaussian():
    assert b.cutoff_nongaussian(1.0, 0.1) == 900
    assert b.cutoff_nongaussian(2.0, 0.05) == math.ceil(9 * 2.0 / 0.05**2)
    with pytest.raises(ValueError):
        b.cutoff_nongaussian(1.0, 0.0)


def test_cutoff_nongaussian_at_the_edges_of_the_float_range():
    # eps^2 underflowed to 0 (a ZeroDivisionError), and an overflowing
    # 9 N / eps^2 met math.ceil(inf) (an OverflowError)
    for photons, eps in ((1.0, 1e-200), (1e308, 0.5)):
        with pytest.raises(ValueError, match=re.escape(
                f"cannot evaluate N = {photons!r} with eps = {eps!r}: 9 N / eps^2 overflows")):
            b.cutoff_nongaussian(photons, eps)
    # a subnormal eps^2 keeps 3 digits; the answer keeps all of them
    exact = Fraction(9) * Fraction(1e-300) / Fraction(1e-160) ** 2
    assert abs(b.cutoff_nongaussian(1e-300, 1e-160) - exact) <= 1e-14 * exact
    assert b.cutoff_nongaussian(0.0, 1e-200) == 0


def test_bound_cutoffs_end_where_two_m_plus_one_overflows():
    state = b.thermal_state(1.0)
    calls = (b.tail_bound_closed, b.tail_bound_optimized, b.trace_distance_truncation_bound)
    for call in calls:  # the largest cutoff taken reads the floor
        assert call(state, states._MAX_CUTOFF).bound <= math.sqrt(tail.TAIL_FLOOR)
        for cutoff in (states._MAX_CUTOFF + 1, 10**308, 10**309):
            with pytest.raises(ValueError, match=f"^cutoff {cutoff} exceeds 8.988e\\+307, "):
                call(state, cutoff)


def test_random_states_bounded_by_one_at_zero_cutoff_decay():
    rng = np.random.default_rng(41)
    for _ in range(8):
        st = random_state(rng, 2, max_squeeze=1.8)
        res = b.tail_bound_optimized(st, 25)
        assert res.bound >= 0.0
        big = b.tail_bound_optimized(st, 60).bound
        assert big <= res.bound * (1 + 1e-9)


def test_invalid_cutoff():
    with pytest.raises(ValueError):
        b.tail_bound_closed(b.vacuum_state(), -1)


#: every public tail entry point, as a function of the state
_TAIL_CALLS = {
    "tail_bound_closed": lambda state: b.tail_bound_closed(state, 5),
    "tail_bound_optimized": lambda state: b.tail_bound_optimized(state, 3),
    "trace_distance_truncation_bound": lambda state: b.trace_distance_truncation_bound(state, 0),
    "cutoff_for_error": lambda state: b.cutoff_for_error(state, 1e-3),
}


@pytest.mark.parametrize("state,error,message", [
    pytest.param(b.GaussianState(np.zeros(2), np.diag([10.0, 0.01])), b.InvalidStateError,
                 "unphysical state: uncertainty margin -8.912e-02", id="uncertainty"),
    pytest.param(b.GaussianState(np.zeros(2), 0.5 * np.eye(2)), b.InvalidStateError,
                 "unphysical state: uncertainty margin -5.000e-01", id="below-vacuum"),
    pytest.param(b.GaussianState(np.full(2, 1e200), np.eye(2)), ValueError,
                 "the mean photon number of this state overflows: got inf", id="photon-overflow"),
])
def test_no_bound_for_a_refused_state(state, error, message):
    # these gave bounds (0.7033 closed at M = 5 on the first, the 1e-300
    # floor on the second), an OverflowError from _coth, or NaN after numpy
    # RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, call in _TAIL_CALLS.items():
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                call(state)
                pytest.fail(f"{name} bounded a refused state")


# ---------------------------------------------------------------------------
# the Python-float objective against the numpy-scalar one, bit for bit


def _objective_states():
    """Random mixed and pure states on 1-3 modes, displaced and not, and
    states with vacuum-tight directions (an eigenvalue of V exactly 1)."""
    rng = np.random.default_rng(2024)
    states = [random_state(rng, modes, pure=pure, max_shift=shift)
              for modes in (1, 2, 3) for pure in (False, True) for shift in (0.0, 1.5)]
    vacuum = b.vacuum_state()
    states += [
        vacuum,
        b.apply_transform(vacuum, b.displacement([0.7, -0.2])),
        b.tensor([vacuum, b.thermal_state(0.8)]),
        b.tensor([b.thermal_state(0.3), vacuum, vacuum]),
    ]
    return states


def _objective_points(state, cutoff):
    """Both ends of the bound's t bracket, points inside it, a t past the
    covariance spectrum (some gap <= 0), one where x - 1 underflows and one
    where exp(-2t) rounds to 1."""
    lo, hi = tail._t_bracket(state, cutoff)
    return [lo, hi, (lo + hi) / 2.0, lo + 1e-3 * (hi - lo), 2.0 * hi + 1.0, 400.0, 1e-20]


@pytest.mark.parametrize("cutoff", [0, 7, 60])
def test_objective_bit_equal_to_numpy_scalar_loop(cutoff):
    seen = {"vacuum-tight": 0, "gap <= 0": 0, "s underflows": 0}
    for state in _objective_states():
        evals, mean_rot, _ = state._eig
        fast = tail._make_objective(evals, mean_rot, cutoff)
        slow = numpy_scalar_objective(evals, mean_rot, cutoff)
        for t in _objective_points(state, cutoff):
            got, want = fast(t), slow(t)
            assert type(got) is float
            assert got.hex() == float(want).hex(), (state, t)
            seen["gap <= 0"] += got == math.inf
            seen["s underflows"] += math.exp(log_x_minus_one(t)) == 0.0
        seen["vacuum-tight"] += bool(np.any(1.0 - evals == 0.0))
    assert all(seen.values()), seen


def test_bounds_and_cutoffs_bit_equal_to_numpy_scalar_loop(monkeypatch):
    states = _objective_states()
    got = []
    for objective in (tail._make_objective, numpy_scalar_objective):
        monkeypatch.setattr(tail, "_make_objective", objective)
        got.append([])
        for state in states:
            for cutoff in (0, 5, 40):
                r = b.tail_bound_optimized(state, cutoff)
                got[-1].append((r.bound.hex(), float(r.decay_rate).hex(),
                                float(r.optimizer_x).hex(), r.fallback))
            got[-1] += [b.cutoff_for_error(state, eps) for eps in (1e-2, 1e-6, 1e-12)]
    assert got[0] == got[1]


# ---------------------------------------------------------------------------
# the shared-data, short-estimate, early-passing search against the full one


def _search_states():
    """The objective's states and 24 more random ones, squeezed up to 3x."""
    rng = np.random.default_rng(77)
    return _objective_states() + [
        random_state(rng, modes, pure=pure, max_squeeze=3.0, max_shift=shift)
        for modes in (1, 2, 3) for pure in (False, True) for shift in (0.0, 0.5, 2.0, 4.0)]


def test_cutoffs_equal_to_the_full_search(monkeypatch):
    rng = np.random.default_rng(78)
    cases = 0
    for state in _search_states():
        for eps in 10.0 ** -rng.uniform(0.05, 140.0, size=26):
            assert b.cutoff_for_error(state, eps) == full_search_cutoff(state, eps), (state, eps)
            cases += 1
        for cap in (0, 3, 40):  # the cap binds, or does not, alike
            outcomes = []
            with monkeypatch.context() as patch:
                patch.setattr(tail, "_CUTOFF_CAP", cap)
                for search in (b.cutoff_for_error,
                               lambda *args: full_search_cutoff(*args, cap=cap)):
                    try:
                        outcomes.append(search(state, 1e-6))
                    except b.CutoffCapError as err:
                        outcomes.append(str(err))
            assert outcomes[0] == outcomes[1], (state, cap)
    assert cases >= 1000


def _edges(bound: float) -> list[float]:
    """eps at, one step below and one step above ``bound``, and well above
    it, within (sqrt(TAIL_FLOOR), 1)."""
    near = [bound, math.nextafter(bound, 0.0), math.nextafter(bound, 1.0), 4.0 * bound]
    return [eps for eps in near if math.sqrt(tail.TAIL_FLOOR) <= eps < 1.0]


def _check_against_public_bound(monkeypatch, states, cutoffs) -> tuple[int, int]:
    """Assert the early-passing check equals ``bound <= eps`` at the edges of
    each bound; returns (checks, checks that stopped early)."""
    evaluations = []
    make = tail._make_objective

    def counted(*args):
        objective = make(*args)
        return lambda t: evaluations.append(t) or objective(t)

    monkeypatch.setattr(tail, "_make_objective", counted)
    checks = early = 0
    for state in states:
        for cutoff in cutoffs:
            bound = b.trace_distance_truncation_bound(state, cutoff).bound
            for eps in _edges(bound):
                evaluations.clear()
                got = tail._bound_passes(state, cutoff, eps)
                assert got == (bound <= eps), (state, cutoff, eps, bound)
                checks += 1
                early += len(evaluations) < tail._GOLDEN_ITERS + 2
    return checks, early


def test_early_passing_check_equals_the_public_bound(monkeypatch):
    checks, early = _check_against_public_bound(monkeypatch, _search_states(),
                                                (0, 1, 4, 15, 60, 250))
    assert checks > 500 and early > 100, (checks, early)


def test_early_passing_check_on_the_closed_form_fallback(monkeypatch):
    # a search that finds nothing finite: check and public bound both take
    # the closed-form point
    monkeypatch.setattr(tail, "_golden_min", lambda fun, lo, hi, **kwargs: (lo, math.inf))
    checks, _ = _check_against_public_bound(monkeypatch, _search_states()[::3], (0, 5, 40, 300))
    assert checks > 50, checks
