"""Photon-number tail bounds: soundness against exact tails, optimizer behavior."""

import math

import numpy as np
import pytest

import bosonic as b
from bosonic import tail
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


def test_cutoff_cap_raises():
    with pytest.raises(b.CutoffCapError):
        b.cutoff_for_error(b.thermal_state(50.0), 1e-9, cap=10)


def test_cutoff_at_the_cap_is_found():
    # the answer 23 lies strictly between the powers of two 16 and 32:
    # a cap of exactly 23 returns it, one below raises
    st = b.thermal_state(1.0)
    assert b.cutoff_for_error(st, 1e-3) == 23
    for cap in (23, 24, 31):
        assert b.cutoff_for_error(st, 1e-3, cap=cap) == 23
    with pytest.raises(b.CutoffCapError, match="no cutoff up to 22"):
        b.cutoff_for_error(st, 1e-3, cap=22)


def test_cutoff_cap_below_one():
    st = b.thermal_state(0.001)
    with pytest.raises(ValueError, match="cap must be >= 0"):
        b.cutoff_for_error(st, 0.2, cap=-5)
    # the bound at M = 0 is 1 for every state: cap 0 fails ...
    with pytest.raises(b.CutoffCapError, match="no cutoff up to 0 "):
        b.cutoff_for_error(st, 0.2, cap=0)


def test_cutoff_zero_when_it_passes(monkeypatch):
    # ... unless the bound says otherwise; then 0 is the answer, cap 0 included
    monkeypatch.setattr(b.tail, "_bound_passes", lambda *args: True)
    for cap in (0, 10**6):
        assert b.cutoff_for_error(b.thermal_state(1.0), 1e-3, cap=cap) == 0


def test_cutoff_matches_linear_scan():
    # the oracle: the first M of a linear scan whose bound reaches eps
    rng = np.random.default_rng(17)
    states = [b.vacuum_state(), b.thermal_state(20.0)]
    states += [random_state(rng, modes) for modes in (1, 2, 3) for _ in range(2)]
    cap = 300
    for st in states:
        bounds = [b.trace_distance_truncation_bound(st, m).bound for m in range(cap + 1)]
        for eps in (0.9, 0.5, 1e-3, 1e-10, 1e-100):
            passing = [m for m, bound in enumerate(bounds) if bound <= eps]
            if passing:
                assert b.cutoff_for_error(st, eps, cap=cap) == passing[0], (st, eps)
            else:
                with pytest.raises(b.CutoffCapError):
                    b.cutoff_for_error(st, eps, cap=cap)


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
    t_lo, t_hi = tail._t_bracket(tail._spectrum(state), 10**6)
    assert t_hi == tail._T_CAP_NATS / (2e6 + 1.0) and t_lo == t_hi / 2.0
    optimized = b.tail_bound_optimized(state, 10**6)
    assert not optimized.fallback
    assert optimized.bound == tail.TAIL_FLOOR
    assert optimized.bound <= b.tail_bound_closed(state, 10**6).bound


def test_cutoff_nongaussian():
    assert b.cutoff_nongaussian(1.0, 0.1) == 900
    assert b.cutoff_nongaussian(2.0, 0.05) == math.ceil(9 * 2.0 / 0.05**2)
    with pytest.raises(ValueError):
        b.cutoff_nongaussian(1.0, 0.0)


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
    covariance spectrum (some gap <= 0) and one where x - 1 underflows."""
    lo, hi = tail._t_bracket(tail._spectrum(state), cutoff)
    return [lo, hi, (lo + hi) / 2.0, lo + 1e-3 * (hi - lo), 2.0 * hi + 1.0, 400.0]


@pytest.mark.parametrize("cutoff", [0, 7, 60])
def test_objective_bit_equal_to_numpy_scalar_loop(cutoff):
    seen = {"vacuum-tight": 0, "gap <= 0": 0, "s underflows": 0}
    for state in _objective_states():
        _, evals, mean_rot = tail._spectrum(state)
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


def test_cutoffs_equal_to_the_full_search():
    rng = np.random.default_rng(78)
    cases = 0
    for state in _search_states():
        for eps in 10.0 ** -rng.uniform(0.05, 140.0, size=26):
            assert b.cutoff_for_error(state, eps) == full_search_cutoff(state, eps), (state, eps)
            cases += 1
        for cap in (0, 3, 40):  # the cap binds, or does not, alike
            outcomes = []
            for search in (b.cutoff_for_error, full_search_cutoff):
                try:
                    outcomes.append(search(state, 1e-6, cap=cap))
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
        spec = tail._spectrum(state)
        for cutoff in cutoffs:
            bound = b.trace_distance_truncation_bound(state, cutoff).bound
            for eps in _edges(bound):
                evaluations.clear()
                got = tail._bound_passes(spec, cutoff, eps)
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
