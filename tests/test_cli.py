"""Command-line interface: schemas, exit codes, determinism."""

import collections
import json
import math
import os
import pathlib
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

import bosonic
import bosonic.cli as cli_module
from bosonic import capacity, tracedist
from bosonic.cli import main
from conftest import scale_blocks


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


def write_state(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def thermal_file(tmp_path, runner, photons, name="state.json"):
    res = invoke(runner, "state", "thermal", "--n", str(photons))
    assert res.exit_code == 0
    p = tmp_path / name
    p.write_text(res.output)
    return str(p)


def test_state_thermal_payload(runner):
    res = invoke(runner, "state", "thermal", "--n", "1")
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload == {"modes": 1, "mean": [0.0, 0.0], "cov": [[3.0, 0.0], [0.0, 3.0]]}


def test_state_photon_tmsv(runner, tmp_path):
    res = invoke(runner, "state", "tmsv", "--n", "1")
    p = tmp_path / "tmsv.json"
    p.write_text(res.output)
    res2 = invoke(runner, "state", "photon", str(p))
    assert res2.exit_code == 0
    assert json.loads(res2.output) == 2.0


def test_state_validate_failure_exit_code(runner, tmp_path):
    # a sub-vacuum mode, alone and beside a 1e13 mode whose rounding hides it normwise
    for cov in ([[0.5, 0.0], [0.0, 0.5]], np.diag([1e13, 1e13, 0.5, 0.5]).tolist()):
        bad = write_state(tmp_path, "bad.json",
                          {"modes": len(cov) // 2, "mean": [0.0] * len(cov), "cov": cov})
        res = runner.invoke(main, ["state", "validate", bad])
        assert res.exit_code == 2
        report = json.loads(res.output)
        assert report["ok"] is False
        assert report["uncertainty_margin"] == pytest.approx(-0.5, abs=1e-12)


def test_one_verdict_and_one_spectrum_per_state(runner, tmp_path, monkeypatch):
    # each state runs its uncertainty test (the eigenvalues of V + i*Omega and
    # of its congruence by the modes' mean variances), the eigendecomposition
    # of V and its photon-number sum (the trace of V) once, however many
    # checks, bounds and Fock builds read them
    calls = collections.Counter()
    for owner, name in ((np.linalg, "eigvalsh"), (np.linalg, "eigh"), (np, "trace")):
        def spy(*args, _name=name, _solve=getattr(owner, name), **kwargs):
            calls[_name, sys._getframe(1).f_globals["__name__"]] += 1
            return _solve(*args, **kwargs)
        monkeypatch.setattr(owner, name, spy)

    def solves():
        counts = {key: n for key, n in calls.items() if key[1] != "bosonic.tracedist"}
        calls.clear()
        return counts

    rng = np.random.default_rng(7)
    pair = [bosonic.apply_transform(
        bosonic.tensor([bosonic.thermal_state(n), bosonic.thermal_state(2 * n)]),
        bosonic.beam_splitter(rng.uniform())) for n in (0.2, 0.4)]
    bosonic.gaussian_trace_distance(*pair, 1e-3)
    assert solves() == {("eigvalsh", "bosonic.states"): 4, ("eigh", "bosonic.states"): 2,
                        ("trace", "bosonic.states"): 2}
    path = write_state(tmp_path, "pair.json", bosonic.state_to_dict(pair[0]))
    invoke(runner, "tail", path, "--target-eps", "1e-3")  # the cutoff search, then both bounds
    assert solves() == {("eigvalsh", "bosonic.states"): 2, ("eigh", "bosonic.states"): 1,
                        ("trace", "bosonic.states"): 1}
    assert invoke(runner, "state", "validate", path).exit_code == 0
    assert solves() == {("eigvalsh", "bosonic.states"): 2}


def test_state_validate_rejects_asymmetric_covariance(runner, tmp_path):
    skew = write_state(tmp_path, "skew.json",
                       {"modes": 1, "mean": [0.0, 0.0], "cov": [[1.5, 5.0], [-5.0, 1.5]]})
    res = runner.invoke(main, ["state", "validate", skew])
    assert res.exit_code == 2
    assert "not symmetric" in res.output


def test_state_evolve_and_reduce(runner, tmp_path):
    tmsv = thermal_file(tmp_path, runner, 0.0)
    res = invoke(runner, "state", "evolve", tmsv, "--displace", "1.0,0.0")
    assert res.exit_code == 0
    moved = json.loads(res.output)
    assert moved["mean"] == [1.0, 0.0]
    # reduce on the tmsv gives the thermal marginal
    res_t = invoke(runner, "state", "tmsv", "--n", "1")
    p = tmp_path / "pair.json"
    p.write_text(res_t.output)
    res2 = invoke(runner, "state", "reduce", str(p), "--keep", "0")
    marg = json.loads(res2.output)
    assert marg["cov"] == [[3.0, 0.0], [0.0, 3.0]]
    # evolve with two transforms at once is a domain error
    res3 = runner.invoke(main, ["state", "evolve", str(p), "--beam-splitter", "0.5",
                                "--displace", "1,0"])
    assert res3.exit_code == 2


def test_state_evolve_two_mode_squeezer_and_beam_splitter_on_chosen_modes(runner, tmp_path):
    # each payload is the library transform of the loaded state, bit for bit
    # through the 17-digit JSON
    three = bosonic.tensor([bosonic.thermal_state(0.4), bosonic.tmsv_state(0.7)])
    path = write_state(tmp_path, "three.json", bosonic.state_to_dict(three))
    cases = [(("--two-mode-squeezer", "1.7"), bosonic.two_mode_squeezer(1.7), None),
             (("--two-mode-squeezer", "2.5", "--modes", "2,0"), bosonic.two_mode_squeezer(2.5),
              [2, 0]),
             (("--beam-splitter", "0.3", "--modes", "1,2"), bosonic.beam_splitter(0.3), [1, 2]),
             (("--beam-splitter", "0.8", "--modes", "2,0"), bosonic.beam_splitter(0.8), [2, 0])]
    for args, transform, modes in cases:
        res = invoke(runner, "state", "evolve", path, *args)
        assert res.exit_code == 0, args
        want = bosonic.apply_transform(three, transform, modes)
        assert json.loads(res.output) == json.loads(json.dumps(bosonic.state_to_dict(want))), args


def test_state_evolve_odd_shift_named(tmp_path):
    # a one-number shift on a one-mode state: the shift is named, not the
    # shape of the identity matrix built from it
    path = write_state(tmp_path, "one.json", bosonic.state_to_dict(bosonic.thermal_state(0.5)))
    res = _char_runner().invoke(main, ["state", "evolve", path, "--displace", "0.3"])
    assert res.exit_code == 2
    assert res.stderr == ("error: displacement shift must list an x and a p per mode "
                          "(length 2k), got [0.3]\n")
    assert res.stdout == ""


def test_parse_error_exit_one(runner, tmp_path):
    p = tmp_path / "garbage.json"
    p.write_text("{not json")
    res = runner.invoke(main, ["state", "photon", str(p)])
    assert res.exit_code == 1
    res2 = runner.invoke(main, ["state", "photon", str(tmp_path / "missing.json")])
    assert res2.exit_code == 1


def test_tail_command(runner, tmp_path):
    t1 = thermal_file(tmp_path, runner, 1.0)
    res = invoke(runner, "tail", t1, "--m", "10")
    payload = json.loads(res.output)
    assert payload["cutoff"] == 10
    assert payload["closed"] == pytest.approx(0.2088, abs=1e-3)
    assert payload["optimized"] <= payload["closed"]
    res2 = invoke(runner, "tail", t1, "--target-eps", "0.01")
    payload2 = json.loads(res2.output)
    assert payload2["optimized"] <= 0.01
    res3 = runner.invoke(main, ["tail", t1])
    assert res3.exit_code == 2
    res4 = runner.invoke(main, ["tail", t1, "--m", "5", "--target-eps", "0.1"])
    assert res4.exit_code == 2


def test_tracedist_command(runner, tmp_path):
    vac = thermal_file(tmp_path, runner, 0.0, "vac.json")
    t1 = thermal_file(tmp_path, runner, 1.0, "t1.json")
    res = invoke(runner, "tracedist", vac, t1, "--eps", "1e-3")
    payload = json.loads(res.output)
    assert set(payload) == {"estimate", "certified_error", "cutoff", "fock_dim", "seconds"}
    assert payload["estimate"] == pytest.approx(0.5, abs=1e-3)
    assert payload["certified_error"] <= 1e-3
    # byte-identical modulo the timing field
    res2 = invoke(runner, "tracedist", vac, t1, "--eps", "1e-3")
    a = json.loads(res.output)
    c = json.loads(res2.output)
    a.pop("seconds"), c.pop("seconds")
    assert a == c


def test_tracedist_dump_fock(runner, tmp_path):
    vac = thermal_file(tmp_path, runner, 0.0, "vac.json")
    t1 = thermal_file(tmp_path, runner, 1.0, "t1.json")
    prefix = str(tmp_path / "blocks")
    res = invoke(runner, "tracedist", vac, t1, "--eps", "1e-2", "--dump-fock", prefix)
    assert res.exit_code == 0
    cutoff = json.loads(res.output)["cutoff"]
    for suffix, photons in (("a", 0.0), ("b", 1.0)):
        blob = json.loads((tmp_path / f"blocks.{suffix}.json").read_text())
        assert (blob["modes"], blob["cutoff"]) == (1, cutoff)
        assert len(blob["entries"]) == (cutoff + 1) ** 2
        # the raw block, rebuilt bit for bit from its 17-digit [re, im] pairs
        block = np.array(blob["entries"], dtype=float).view(complex).reshape(cutoff + 1, -1)
        built = bosonic.fock_matrix_elements(bosonic.thermal_state(photons), cutoff)
        assert np.array_equal(block, built.matrix)


def test_tracedist_cap_exit_three(runner, tmp_path, monkeypatch):
    vac = thermal_file(tmp_path, runner, 0.0, "vac.json")
    t1 = thermal_file(tmp_path, runner, 1.0, "t1.json")
    monkeypatch.setenv("BOSONIC_FOCK_CAP", "5")
    res = runner.invoke(main, ["tracedist", vac, t1, "--eps", "1e-3"])
    assert res.exit_code == 3


def test_tracedist_out_of_memory_exit_three(runner, tmp_path, monkeypatch):
    # a Fock block that outgrows memory is a resource limit, not an I/O error
    vac = thermal_file(tmp_path, runner, 0.0, "vac.json")
    t1 = thermal_file(tmp_path, runner, 1.0, "t1.json")

    def exhausted(state, cutoff):
        raise MemoryError()

    monkeypatch.setattr(tracedist, "fock_matrix_elements", exhausted)
    res = _char_runner().invoke(main, ["tracedist", vac, t1, "--eps", "1e-3"])
    assert res.exit_code == 3
    assert res.stderr.startswith("error: out of memory") and "BOSONIC_FOCK_CAP" in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("factor,photons,eps,fault", [
    pytest.param(1.01, (0.0, 1.0), "1e-3", "exceeds 1 by more than",
                 id="1.01-exceeds 1 by more than"),
    pytest.param(0.99, (0.0, 1.0), "1e-3", "falls below 1 - tail bound",
                 id="0.99-falls below 1 - tail bound"),
    # 1e-9 off, where the certificate claims 7.4e-14
    pytest.param(1.0 + 1e-9, (0.01, 0.02), "1e-12", "exceeds 1 by more than its rounding slack",
                 id="1e-9-over"),
])
def test_tracedist_trace_error_exit_four(runner, tmp_path, monkeypatch, factor, photons, eps,
                                         fault):
    # a block whose trace fails its check has its own exit code, not the 2
    # of malformed input: a trace above 1 fails the build, one below
    # 1 - tail^2 the distance
    a = thermal_file(tmp_path, runner, photons[0], "a.json")
    c = thermal_file(tmp_path, runner, photons[1], "c.json")
    scale_blocks(monkeypatch, factor)
    res = _char_runner().invoke(main, ["tracedist", a, c, "--eps", eps])
    assert res.exit_code == 4
    assert res.stderr.startswith("error: Fock block trace ") and fault in res.stderr
    assert res.stdout == ""


# one row per kind of error of cli._EXIT_CODES, as (error, exit code, message)
_TABLE_ROWS = [
    pytest.param(bosonic.CutoffCapError("no cutoff"), 3, "no cutoff", id="cutoff-cap"),
    pytest.param(bosonic.DimensionCapError("too wide"), 3, "too wide", id="dimension-cap"),
    pytest.param(MemoryError(), 3, "out of memory", id="memory"),
    pytest.param(bosonic.FockTraceError("bad trace"), 4, "bad trace", id="fock-trace"),
    pytest.param(OSError("disk gone"), 1, "disk gone", id="os"),
    pytest.param(json.JSONDecodeError("bad", "{", 1), 1, "bad: line 1 column 2 (char 1)",
                 id="json"),
    pytest.param(ValueError("bad value"), 2, "bad value", id="value"),
    pytest.param(TypeError("bad type"), 2, "bad type", id="type"),
    pytest.param(RuntimeError("went wrong"), 2, "went wrong", id="runtime"),
]
# a command in the nested state group and a top-level one, each with the
# name of a call its body makes and the arguments that reach it
_GUARDED_CALLS = [
    pytest.param(cli_module, "thermal_state", ("state", "thermal", "--n", "1"), id="state"),
    pytest.param(capacity, "channel_uses_sufficient",
                 ("complexity", "--channel", "loss", "--lam", "0.5", "--task", "Q2", "--k", "100",
                  "--eps", "0.1"), id="complexity"),
]


def _raising(error):
    def call(*args, **kwargs):
        raise error

    return call


@pytest.mark.parametrize("module,name,args", _GUARDED_CALLS)
@pytest.mark.parametrize("error,code,message", _TABLE_ROWS)
def test_each_table_row_sets_the_exit_code(monkeypatch, module, name, args, error, code,
                                           message):
    monkeypatch.setattr(module, name, _raising(error))
    res = _char_runner().invoke(main, list(args))
    assert res.exit_code == code
    assert res.stderr == f"error: {message}\n"
    assert res.stdout == ""


@pytest.mark.parametrize("args", [("capacity", "--help"), ("state", "thermal", "--help")])
def test_help_exits_zero(args):
    # click's Exit is a RuntimeError, which the table would turn into exit 2
    res = _char_runner().invoke(main, list(args))
    assert res.exit_code == 0
    assert res.stdout.startswith("Usage: ")
    assert res.stderr == ""


@pytest.mark.parametrize("module,name,args", _GUARDED_CALLS)
def test_an_error_outside_the_table_propagates(monkeypatch, module, name, args):
    monkeypatch.setattr(module, name, _raising(ZeroDivisionError("division by zero")))
    with pytest.raises(ZeroDivisionError, match="^division by zero$"):
        _char_runner().invoke(main, list(args), catch_exceptions=False)


# a state that violates the uncertainty relation, one below the vacuum, and a
# physical one whose mean photon number overflows
_UNCERTAIN = {"modes": 1, "mean": [0, 0], "cov": [[10, 0], [0, 0.01]]}
_SUB_VACUUM = {"modes": 1, "mean": [0, 0], "cov": [[0.5, 0], [0, 0.5]]}
_HUGE_MEAN = {"modes": 1, "mean": [1e200, 1e200], "cov": [[1, 0], [0, 1]]}


@pytest.mark.parametrize("payload,args,message", [
    pytest.param(_UNCERTAIN, ("tail", "{path}", "--m", "5"),
                 "unphysical state: uncertainty margin -8.912e-02", id="uncertainty"),
    pytest.param(_SUB_VACUUM, ("tail", "{path}", "--m", "0"),
                 "unphysical state: uncertainty margin -5.000e-01", id="below-vacuum-m"),
    pytest.param(_SUB_VACUUM, ("tail", "{path}", "--target-eps", "1e-3"),
                 "unphysical state: uncertainty margin -5.000e-01", id="below-vacuum-eps"),
    pytest.param(_HUGE_MEAN, ("tail", "{path}", "--m", "5"),
                 "the mean photon number of this state overflows: got inf", id="huge-tail"),
    pytest.param(_HUGE_MEAN, ("state", "photon", "{path}"),
                 "the mean photon number of this state overflows: got inf", id="huge-photon"),
])
def test_no_tail_bound_for_a_refused_state(tmp_path, payload, args, message):
    # these printed closed 0.7033 and optimized 0.6414 (exit 0), died with an
    # OverflowError traceback, or printed NaN or Infinity after numpy warnings
    path = write_state(tmp_path, "state.json", payload)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = _char_runner().invoke(main, [arg.format(path=path) for arg in args])
    assert res.exit_code == 2
    assert res.stderr == f"error: {message}\n"
    assert res.stdout == ""


@pytest.mark.parametrize("kind,photons", [("thermal", "1e308"), ("tmsv", "1e308"),
                                          ("tmsv", "1e200")])
def test_overflowing_photon_numbers_named_without_warning(kind, photons):
    # these printed "RuntimeWarning: invalid value encountered in multiply"
    # before a refusal that named no input
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = _char_runner().invoke(main, ["state", kind, "--n", photons])
    assert res.exit_code == 2
    assert res.stderr == (f"error: mean photon number {float(photons)!r} overflows the "
                          "covariance matrix\n")
    assert res.stdout == ""


def test_capacity_command(runner):
    res = invoke(runner, "capacity", "--channel", "loss", "--lam", "0.5", "--task", "Q2",
                 "--method", "improved", "--n", "100", "--eps", "0.1")
    payload = json.loads(res.output)
    assert payload["value"] == pytest.approx(79.44, abs=0.01)
    assert payload["direction"] == "lower"
    res_u = invoke(runner, "capacity", "--channel", "loss", "--lam", "0.5", "--task", "Q2",
                   "--method", "upper", "--n", "100", "--eps", "0.1")
    assert json.loads(res_u.output)["value"] == pytest.approx(103.164, abs=1e-3)
    res_b = invoke(runner, "capacity", "--channel", "amp", "--g", "2", "--task", "Q",
                   "--method", "best", "--n", "1000", "--eps", "0.1")
    assert json.loads(res_b.output)["method"] == "aep"
    # asymptotic method needs no n/eps
    res_a = invoke(runner, "capacity", "--channel", "loss", "--lam", "0.75", "--task", "Q",
                   "--method", "asymptotic")
    assert json.loads(res_a.output)["value"] == pytest.approx(math.log2(3.0), rel=1e-12)
    # missing channel parameter is a domain error
    res_e = runner.invoke(main, ["capacity", "--channel", "loss", "--task", "Q",
                                 "--method", "aep", "--n", "10", "--eps", "0.1"])
    assert res_e.exit_code == 2


def test_capacity_infinity_token(runner):
    res = invoke(runner, "capacity", "--channel", "loss", "--lam", "1.0", "--task", "Q2",
                 "--method", "aep", "--n", "100", "--eps", "0.1")
    assert res.exit_code == 0
    assert "Infinity" in res.output


def test_complexity_command(runner):
    res = invoke(runner, "complexity", "--channel", "loss", "--lam", "0.5", "--task", "Q2",
                 "--k", "100", "--eps", "0.1")
    payload = json.loads(res.output)
    assert payload == {"sufficient_n": 121, "necessary_n": 97}
    res2 = runner.invoke(main, ["complexity", "--channel", "loss", "--lam", "0.3",
                                "--task", "Q", "--k", "10", "--eps", "0.1"])
    assert res2.exit_code == 2


def test_sweep_csv_schema_and_order(runner, tmp_path):
    out = str(tmp_path / "sweep.csv")
    res = invoke(runner, "sweep", "--channel", "loss", "--methods", "improved,upper",
                 "--tasks", "Q2", "--lam", "0.3:0.9:3", "--n", "100", "--eps", "0.1",
                 "--out", out)
    assert res.exit_code == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "method,task,direction,lambda,g,Ns,n,eps,value,vacuous,preconditions_met"
    assert len(lines) == 1 + 6
    methods = [ln.split(",")[0] for ln in lines[1:]]
    assert methods == ["improved"] * 3 + ["upper"] * 3
    # sandwich on the emitted values
    improved_vals = [float(ln.split(",")[8]) for ln in lines[1:4]]
    upper_vals = [float(ln.split(",")[8]) for ln in lines[4:7]]
    assert all(lo <= up for lo, up in zip(improved_vals, upper_vals))
    # amp rows leave the lambda column empty
    out2 = str(tmp_path / "amp.csv")
    invoke(runner, "sweep", "--channel", "amp", "--methods", "aep", "--tasks", "Q",
           "--g", "1.5:2.5:2", "--n", "100", "--eps", "0.1", "--out", out2)
    row = (tmp_path / "amp.csv").read_text().splitlines()[1].split(",")
    assert row[3] == "" and row[4] != ""


def test_sweep_skips_loss_only_families_on_amp(runner, tmp_path):
    # improved and ec-variance cover the pure loss channel only: an amp sweep
    # skips their rows instead of aborting
    grid = ["--channel", "amp", "--tasks", "Q2,K", "--g", "1.5:3:2", "--ns", "1",
            "--n", "100", "--eps", "0.1"]
    out = tmp_path / "amp.csv"
    res = invoke(runner, "sweep", *grid, "--methods", "improved,ec-variance,aep",
                 "--out", str(out))
    assert res.exit_code == 0, res.output
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 4 and {row.split(",")[0] for row in rows} == {"aep"}
    only = tmp_path / "aep.csv"
    invoke(runner, "sweep", *grid, "--methods", "aep", "--out", str(only))
    assert only.read_text() == out.read_text()


# --------------------------------------------------- sweep row oracle ---
#
# Every CSV line of a sweep must equal, as a string, the line built from
# the public per-row library calls.  The grids reach every method, task
# and channel, --ns given and absent, the boundaries lambda = 0, lambda = 1
# and g = 1 (where a bound's a n - b sqrt(n) is inf - inf and reads +inf),
# n on both sides of the AEP threshold 2 log2(2/eps^2), and single values.

_SWEEP_GRIDS = {
    "loss-ns": ("loss", "asymptotic,aep,improved,ec-aep,ec-variance,best,upper",
                "0:1:3", "0.5:2:2"),
    "amp-ns": ("amp", "asymptotic,aep,improved,ec-aep,ec-variance,best,upper",
               "1:3:3", "0.5:2:2"),
    # Ns-free families reused over many Ns; at lambda = 0, Ns = 10 ec-variance
    # once raised "math domain error"
    "loss-many-ns": ("loss", "asymptotic,aep,improved,ec-aep,ec-variance,best,upper",
                     "0:1:3", "0.1:10:7:log"),
    "loss": ("loss", "asymptotic,aep,improved,best,upper", "0:1:3", None),
    "amp": ("amp", "asymptotic,aep,improved,best,upper", "1:3:3", None),
}


def _oracle_line(method, task, kind, param, ns, n, eps):
    """One sweep CSV line from the library's per-row calls, or None where
    the sweep skips the combination."""
    from bosonic.cli import _fmt_float

    channel = bosonic.PureLoss(param) if kind == "loss" else bosonic.PureAmplifier(param)
    family = bosonic.capacity.BOUND_FAMILIES.get(method)
    if (family is not None and not family.covers(type(channel))) or (
            method == "upper" and task == "Q"):
        return None
    if method == "asymptotic":
        value = (bosonic.asymptotic_capacity(channel, task) if ns is None
                 else bosonic.ec_asymptotic(channel, task, ns))
        direction, vacuous, met = "exact", value < 0, True
    else:
        if method == "best":
            bound = bosonic.best_lower_bound(channel, n, eps, task, photons=ns)
        elif method == "upper":
            bound = bosonic.upper_bound_nshot(channel, n, eps, task)
        else:
            bound = family.evaluate(channel, n, eps, task, ns)
        direction, value = bound.direction, bound.value
        vacuous, met = bound.vacuous, bound.preconditions_met
    cells = [method, task, direction,
             _fmt_float(param) if kind == "loss" else "",
             _fmt_float(param) if kind == "amp" else "",
             "" if ns is None else _fmt_float(ns), str(n), _fmt_float(eps), _fmt_float(value),
             "true" if vacuous else "false", "true" if met else "false"]
    return ",".join(cells)


def _sweep_and_oracle(runner, out, kind, methods, tasks, params, ns, n, eps):
    from bosonic.cli import _parse_range

    args = ["sweep", "--channel", kind, "--methods", methods, "--tasks", tasks,
            "--lam" if kind == "loss" else "--g", params, "--n", n, "--eps", eps,
            "--out", str(out)]
    if ns is not None:
        args += ["--ns", ns]
    res = invoke(runner, *args)
    assert res.exit_code == 0, res.output
    expected = [
        _oracle_line(m, t, kind, p, s, nv, e)
        for m in methods.split(",")
        for t in tasks.split(",")
        for p in _parse_range("--lam", params)
        for s in ([None] if ns is None else _parse_range("--ns", ns))
        for nv in (int(v) for v in _parse_range("--n", n))
        for e in _parse_range("--eps", eps)
    ]
    expected = [line for line in expected if line is not None]
    lines = out.read_text().splitlines()
    assert lines[0] == "method,task,direction,lambda,g,Ns,n,eps,value,vacuous,preconditions_met"
    return lines[1:], expected


@pytest.mark.parametrize("grid", sorted(_SWEEP_GRIDS))
def test_sweep_rows_match_library_calls(runner, tmp_path, grid):
    kind, methods, params, ns = _SWEEP_GRIDS[grid]
    # n = 5 lies below the AEP threshold at both eps, n = 2000 above it
    rows, expected = _sweep_and_oracle(runner, tmp_path / "sweep.csv", kind, methods,
                                       "Q,Q2,K", params, ns, "5:2000:4:log", "0.01:0.2:2")
    assert len(rows) == len(expected)
    bad = [(got, want) for got, want in zip(rows, expected) if got != want]
    assert not bad, f"{len(bad)} rows differ, first: {bad[0]}"
    # the boundary rows were reached
    assert "Infinity" in {row.split(",")[8] for row in rows}
    thresholds = {row.split(",")[10] for row in rows if row.split(",")[0] == "aep"}
    assert thresholds == {"true", "false"}


@pytest.mark.parametrize("kind,param", [("loss", "0.7"), ("amp", "2.5")])
def test_sweep_single_values_match_library_calls(runner, tmp_path, kind, param):
    # n = 14 is exactly the AEP threshold 2 log2(2/eps^2) at eps = 1/8
    rows, expected = _sweep_and_oracle(
        runner, tmp_path / "one.csv", kind, "asymptotic,aep,improved,ec-aep,ec-variance,best,upper",
        "Q,Q2,K", param, "1.5", "14", "0.125")
    assert rows == expected
    assert all(row.endswith(",true") for row in rows)


def _random_spec(rng, lo, hi, log=False, integer=False, edges=False):
    """A seeded range of 1-4 points between lo and hi, as a sweep flag value;
    with ``edges`` an endpoint may sit on lo or hi."""
    count = int(rng.integers(1, 5))
    ends = [float(rng.uniform(lo, hi)) for _ in range(2)]
    if edges:
        ends = [float(rng.choice([lo, hi, end], p=[0.15, 0.15, 0.7])) for end in ends]
    if log:
        ends = [lo * (hi / lo) ** ((end - lo) / (hi - lo)) for end in ends]
    if count == 1:
        return str(int(ends[0])) if integer else repr(ends[0])
    return f"{ends[0]!r}:{ends[1]!r}:{count}" + (":log" if log else "")


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("with_ns", [True, False])
@pytest.mark.parametrize("kind", ["loss", "amp"])
def test_sweep_random_grids_match_library_calls(runner, tmp_path, kind, with_ns, seed):
    rng = np.random.default_rng([seed, int(with_ns), len(kind)])
    methods = ["asymptotic", "aep", "improved", "best", "upper"]
    methods += ["ec-aep", "ec-variance"] if with_ns else []
    tasks = [str(t) for t in rng.permutation(["Q", "Q2", "K"])[:int(rng.integers(1, 4))]]
    params = (_random_spec(rng, 0.0, 1.0, edges=True) if kind == "loss"
              else _random_spec(rng, 1.0, 4.0, edges=True))
    ns = _random_spec(rng, 0.0, 5.0, edges=True) if with_ns else None
    rows, expected = _sweep_and_oracle(
        runner, tmp_path / "sweep.csv", kind, ",".join(rng.permutation(methods)),
        ",".join(tasks), params, ns, _random_spec(rng, 2.0, 5000.0, log=True, integer=True),
        _random_spec(rng, 1e-3, 0.5, log=True))
    assert rows == expected


# a valid one-row grid; most cases below spoil one axis after a valid value,
# so a sweep that checked only the first value of an axis would pass
_GRID = ("--channel", "loss", "--methods", "aep", "--tasks", "Q2", "--lam", "0.5",
         "--n", "100", "--eps", "0.1")
_METHOD_NAMES = "('asymptotic', 'aep', 'improved', 'ec-aep', 'ec-variance', 'best', 'upper')"
_INVALID_GRIDS = [
    (("--methods", "aep,bogus"), f"method must be one of {_METHOD_NAMES}, got 'bogus'"),
    (("--tasks", "Q2,X"), "task must be one of ('Q', 'Q2', 'K'), got 'X'"),
    (("--methods", "upper", "--tasks", "Q2,X"),
     "the weak-converse bound covers tasks Q2/K, got 'X'"),
    (("--methods", "asymptotic", "--tasks", "K,X"), "task must be one of ('Q', 'Q2', 'K'), got 'X'"),
    (("--eps", "0.1:1.5:2"), "eps must lie in (0, 1), got 1.5"),
    (("--methods", "best,upper", "--eps", "0.1:1.5:2"), "eps must lie in (0, 1), got 1.5"),
    (("--n", "100:0:2"), "n must be a positive integer, got 0"),
    (("--methods", "upper", "--n", "100:0:2"), "n must be a positive integer, got 0"),
    (("--methods", "best", "--ns", "1:-1:2"), "mean photon number must be >= 0, got -1.0"),
    (("--methods", "asymptotic", "--ns", "1:-1:2"), "mean photon number must be >= 0, got -1.0"),
    (("--methods", "ec-aep"), "method ec-aep needs --ns"),
    (("--lam", "0.5:1.2:2"), "transmissivity must lie in [0, 1], got 1.2"),
    (("--channel", "amp", "--g", "2:0.5:2"), "gain must be >= 1, got 0.5"),
    # the asymptotic rate reads neither n nor eps, and aep/upper ignore --ns,
    # but every listed axis value is checked
    pytest.param(("--methods", "asymptotic", "--eps", "1.5"),
                 "eps must lie in (0, 1), got 1.5", id="asymptotic-eps"),
    pytest.param(("--methods", "asymptotic", "--n", "100:0:2"),
                 "n must be a positive integer, got 0", id="asymptotic-n"),
    pytest.param(("--methods", "aep,upper", "--ns", "1:-1:2"),
                 "mean photon number must be >= 0, got -1.0", id="aep-upper-ns"),
    # range points are truncated toward zero, a single n is not
    pytest.param(("--n", "2.5"), "n must be a positive integer, got 2.5", id="single-n"),
    # non-finite axis values
    pytest.param(("--ns", "nan"), "mean photon number must be finite, got nan", id="ns-nan"),
    pytest.param(("--channel", "amp", "--g", "inf"), "gain must be finite, got inf", id="g-inf"),
    pytest.param(("--n", "inf"), "n must be a positive integer, got inf", id="n-inf"),
    # a range endpoint is named as written, before numpy spaces the points
    pytest.param(("--lam", "0:inf:2"),
                 "--lam: range endpoints must be finite, got 'inf' in '0:inf:2'",
                 id="lam-range-inf"),
    pytest.param(("--n", "1:inf:2"), "--n: range endpoints must be finite, got 'inf' in '1:inf:2'",
                 id="n-range-inf"),
    # an empty list entry or a malformed range names its option
    pytest.param(("--methods", "aep,"), "--methods: empty entry in 'aep,'", id="methods-empty"),
    pytest.param(("--tasks", ",Q2"), "--tasks: empty entry in ',Q2'", id="tasks-empty"),
    pytest.param(("--eps", "0.1:0.2:0"), "--eps: range count must be >= 1, got 0",
                 id="eps-range-count"),
    pytest.param(("--ns", "1:x:2"), "--ns: could not convert string to float: 'x'",
                 id="ns-range-text"),
    pytest.param(("--n", "1:10:2.5"), "--n: invalid literal for int() with base 10: '2.5'",
                 id="n-range-count"),
    pytest.param(("--channel", "amp", "--g", "2:3:4:ln"),
                 "--g: range suffix must be 'log', got 'ln'", id="g-range-suffix"),
    # an empty value is given, not left at the default
    pytest.param(("--lam", ""), "--lam: could not convert string to float: ''", id="lam-empty"),
    # a given option of the other channel, even at its shown default, is
    # refused once every value passes its checks
    pytest.param(("--g", "2.0"), "--g does not apply to --channel loss, which reads --lam",
                 id="loss-given-g"),
    pytest.param(("--channel", "amp", "--g", "1.5:3:2"),
                 "--lam does not apply to --channel amp, which reads --g", id="amp-given-lam"),
    # a repeated list entry would write its rows twice
    pytest.param(("--tasks", "Q2,Q2"), "--tasks: 'Q2' is listed twice in 'Q2,Q2'",
                 id="tasks-repeated"),
    pytest.param(("--methods", "aep, upper,aep"),
                 "--methods: 'aep' is listed twice in 'aep, upper,aep'", id="methods-repeated"),
    # a photon number the closed forms would overflow on
    pytest.param(("--methods", "best", "--ns", "1e200"),
                 "method ec-aep cannot evaluate lambda = 0.5 with Ns = 1e+200: "
                 "an output mode would hold more than 1e+100 photons", id="ns-huge"),
    # the same after a valid Ns, whose Ns-free families are reused
    pytest.param(("--methods", "best", "--ns", "1:1e200:2"),
                 "method ec-aep cannot evaluate lambda = 0.5 with Ns = 1e+200: "
                 "an output mode would hold more than 1e+100 photons", id="ns-huge-later"),
]


@pytest.mark.parametrize("spoil,message", _INVALID_GRIDS)
def test_sweep_invalid_grid_writes_nothing(tmp_path, spoil, message):
    out = tmp_path / "sweep.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = _char_runner().invoke(main, ["sweep", *_GRID, *spoil, "--out", str(out)])
    assert [str(w.message) for w in caught] == []  # e.g. no RuntimeWarning from numpy
    assert res.exit_code == 2
    assert res.stderr == f"error: {message}\n"
    assert res.stdout == ""
    assert not out.exists()


def test_sweep_jobs_option_is_gone(tmp_path):
    out = tmp_path / "sweep.csv"
    res = _char_runner().invoke(main, ["sweep", *_GRID, "--jobs", "2", "--out", str(out)])
    assert res.exit_code == 2
    assert "--jobs" in res.stderr
    assert not out.exists()


def test_sweep_config_option_is_gone(tmp_path):
    # every sweep setting has one way in: its flag
    assert "--config" not in _char_runner().invoke(main, ["sweep", "--help"]).stdout
    out = tmp_path / "sweep.csv"
    conf = tmp_path / "c.json"
    conf.write_text(json.dumps({"channel": "loss", "out": str(out)}))
    res = _char_runner().invoke(main, ["sweep", "--config", str(conf)])
    assert res.exit_code == 2
    assert "--config" in res.stderr
    assert not out.exists()


def test_sweep_defaults(tmp_path):
    # what an option left out reads, byte for byte
    defaults = ("--methods", "best", "--tasks", "Q2", "--n", "100", "--eps", "0.1")
    for kind, param in (("loss", ("--lam", "0.5")), ("amp", ("--g", "2.0"))):
        bare, full = tmp_path / f"{kind}-bare.csv", tmp_path / f"{kind}-full.csv"
        assert _char_runner().invoke(main, ["sweep", "--channel", kind, "--out", str(bare)]
                                     ).exit_code == 0
        assert _char_runner().invoke(main, ["sweep", "--channel", kind, *defaults, *param,
                                            "--out", str(full)]).exit_code == 0
        assert bare.read_text() == full.read_text()
        assert len(bare.read_text().splitlines()) == 2


_ONE = ("--beam-splitter", "0.5")


@pytest.mark.parametrize("args,message", [
    (("reduce", "{two}", "--keep", "0,"), "--keep: empty entry in '0,'"),
    (("reduce", "{two}", "--keep", "0,x"), "--keep: cannot read 'x' as int"),
    (("evolve", "{two}", "--displace", "0.1,,0.2,0"), "--displace: empty entry in '0.1,,0.2,0'"),
    (("evolve", "{two}", "--displace", "0.3,"), "--displace: empty entry in '0.3,'"),
    (("evolve", "{two}", "--displace", ""), "--displace: empty entry in ''"),
    (("evolve", "{two}", "--displace", "0.3,p"), "--displace: cannot read 'p' as float"),
    (("evolve", "{two}", *_ONE, "--modes", "a"), "--modes: cannot read 'a' as int"),
    (("evolve", "{two}", *_ONE, "--modes", "0,1.0"), "--modes: cannot read '1.0' as int"),
    (("evolve", "{two}", *_ONE, "--modes", "0, ,1"), "--modes: empty entry in '0, ,1'"),
])
def test_state_list_options_name_themselves(tmp_path, args, message):
    # an empty or unreadable entry of a comma list is refused, not skipped
    two = write_state(tmp_path, "two.json", bosonic.state_to_dict(bosonic.tmsv_state(0.5)))
    res = _char_runner().invoke(main, ["state", *(arg.format(two=two) for arg in args)])
    assert res.exit_code == 2
    assert res.stderr == f"error: {message}\n"
    assert res.stdout == ""


def test_state_file_that_is_no_object_exit_two(tmp_path):
    # a JSON list used to fail with "list indices must be integers or slices, not str"
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    res = _char_runner().invoke(main, ["state", "validate", str(path)])
    assert res.exit_code == 2
    assert res.stderr == ("error: malformed state payload: a state needs an object with "
                          "modes, mean and cov, got a list\n")
    assert res.stdout == ""


@pytest.mark.parametrize("cap", ["abc", "-1", "0"])
def test_bad_fock_cap_setting_exit_two(runner, tmp_path, monkeypatch, cap):
    vac = thermal_file(tmp_path, runner, 0.0, "vac.json")
    prefix = tmp_path / "blocks"
    monkeypatch.setenv("BOSONIC_FOCK_CAP", cap)
    res = _char_runner().invoke(main, ["tracedist", vac, vac, "--eps", "1e-3",
                                       "--dump-fock", str(prefix)])
    assert res.exit_code == 2
    assert res.stderr == f"error: BOSONIC_FOCK_CAP must be a positive integer, got {cap!r}\n"
    assert res.stdout == ""
    assert list(tmp_path.iterdir()) == [tmp_path / "vac.json"]


def test_eps_below_the_tail_floor_exit_two(runner, tmp_path):
    # no cutoff certifies a truncation error below sqrt(1e-300) = 1e-150; the
    # library's refusal, whose one rule lives in bosonic.tail, is the CLI's
    a = thermal_file(tmp_path, runner, 0.5)
    s = bosonic.thermal_state(0.5)
    for args, call in ((["tail", a, "--target-eps", "1e-160"],
                        lambda: bosonic.cutoff_for_error(s, 1e-160)),
                       (["tracedist", a, a, "--eps", "1e-160"],
                        lambda: bosonic.gaussian_trace_distance(s, s, 1e-160))):
        with pytest.raises(ValueError) as refusal:
            call()
        res = _char_runner().invoke(main, args)
        assert res.exit_code == 2
        assert res.stderr == f"error: {refusal.value}\n"
        assert "floor 1e-300 on every tail bound" in res.stderr
        assert "1e-160" in res.stderr  # the eps as given, not a third of it
        assert res.stdout == ""


def test_tail_and_tracedist_of_huge_states(tmp_path):
    # each of these ended in "error: math domain error" (exit 2)
    runner = _char_runner()
    hot = thermal_file(tmp_path, runner, 3e14, "hot.json")
    cool = thermal_file(tmp_path, runner, 0.5, "cool.json")
    big = tmp_path / "big.json"
    big.write_text(invoke(runner, "state", "tmsv", "--n", "1e150").stdout)
    for path, cutoff, bound in ((hot, 10, 1.0), (cool, 10**23, 1e-300)):
        res = runner.invoke(main, ["tail", path, "--m", str(cutoff)])
        assert res.exit_code == 0 and res.stderr == ""
        payload = json.loads(res.stdout)
        assert (payload["closed"], payload["optimized"]) == (bound, bound)
    for args in (["tail", hot, "--target-eps", "0.1"], ["tracedist", str(big), str(big),
                                                        "--eps", "0.1"]):
        res = runner.invoke(main, args)
        assert res.exit_code == 3
        assert res.stderr.startswith("error: no cutoff up to 1000000 reaches truncation error")
        assert res.stdout == ""


@pytest.mark.parametrize("args", [
    ("capacity", "--channel", "loss", "--lam", "0.5", "--task", "Q", "--method", "improved",
     "--n", "100", "--eps", "1e-60"),
    ("capacity", "--channel", "loss", "--lam", "0.5", "--task", "Q", "--method", "improved",
     "--n", "100", "--eps", "1e-50"),
    ("capacity", "--channel", "amp", "--g", "2", "--task", "K", "--method", "aep",
     "--n", "100", "--eps", "1e-200"),
    ("complexity", "--channel", "loss", "--lam", "0.5", "--task", "K", "--k", "100",
     "--eps", "1e-300"),
    ("sweep", "--channel", "loss", "--methods", "improved,aep,best", "--tasks", "Q,K",
     "--eps", "1e-60", "--out", "{out}"),
])
def test_capacity_commands_at_tiny_eps(tmp_path, args):
    # a ZeroDivisionError traceback (exit 1), or "constant": -Infinity
    out = tmp_path / "sweep.csv"
    res = _char_runner().invoke(main, [arg.format(out=out) for arg in args])
    assert res.exit_code == 0, res.output
    text = res.stdout + (out.read_text() if out.exists() else "")
    assert "Infinity" not in text and "NaN" not in text


def test_state_evolve_two_mode_squeezer_of_gain_1e8(tmp_path):
    # refused as "matrix is not symplectic (defect 1.490e-08)" (exit 2)
    runner = _char_runner()
    pair = tmp_path / "pair.json"
    pair.write_text(invoke(runner, "state", "tmsv", "--n", "1").stdout)
    res = runner.invoke(main, ["state", "evolve", str(pair), "--two-mode-squeezer", "1e8"])
    assert res.exit_code == 0 and res.stderr == ""
    assert json.loads(res.stdout)["modes"] == 2


def test_squeezed_state_of_gain_1e8_is_validated_and_bounded(tmp_path):
    # refused by state validate (exit 2) and by tail ("unphysical state:
    # uncertainty margin -1.196e-07"): the tolerance was 1e-9, whatever ||V||
    runner = _char_runner()
    pair, squeezed, pushed = (tmp_path / name for name in ("pair.json", "squeezed.json",
                                                           "pushed.json"))
    pair.write_text(invoke(runner, "state", "tmsv", "--n", "1").stdout)
    squeezed.write_text(runner.invoke(main, ["state", "evolve", str(pair),
                                             "--two-mode-squeezer", "1e8"]).stdout)
    res = runner.invoke(main, ["state", "validate", str(squeezed)])
    assert res.exit_code == 0 and res.stderr == ""
    report = json.loads(res.stdout)
    assert report["ok"] is True
    [warning] = report["warnings"]
    assert "within tolerance 1.325e-04, the rounding of the largest eigenvalue" in warning
    res = runner.invoke(main, ["tail", str(squeezed), "--m", "10"])
    assert res.exit_code == 0 and res.stderr == ""
    assert json.loads(res.stdout)["cutoff"] == 10
    # the same state with its margin pushed 3 below, past the scaled tolerance
    payload = json.loads(squeezed.read_text())
    payload["cov"] = (np.array(payload["cov"]) - 3.0 * np.eye(4)).tolist()
    pushed.write_text(json.dumps(payload))
    with pytest.raises(bosonic.InvalidStateError, match="^unphysical state: uncertainty margin"):
        bosonic.require_valid(bosonic.state_from_dict(payload))
    res = runner.invoke(main, ["state", "validate", str(pushed)])
    assert res.exit_code == 2 and json.loads(res.stdout)["ok"] is False
    res = runner.invoke(main, ["tail", str(pushed), "--m", "10"])
    assert res.exit_code == 2
    assert res.stderr.startswith("error: unphysical state: uncertainty margin -3.000e+00")


@pytest.mark.parametrize("cutoff", [10**308, 10**309], ids=["1e308", "1e309"])
def test_tail_cutoffs_past_the_float_range_are_named(tmp_path, cutoff):
    # 10^308 ended in "error: math domain error" (2M + 1 overflowed in the
    # search bracket), 10^309 in an OverflowError traceback (exit 1)
    runner = _char_runner()
    path = thermal_file(tmp_path, runner, 1.0)
    res = runner.invoke(main, ["tail", path, "--m", str(cutoff)])
    assert res.exit_code == 2
    assert res.stderr == (f"error: cutoff {cutoff} exceeds 8.988e+307, past which 2M + 1 "
                          "overflows a float\n")
    assert res.stdout == ""


_LOSS = ("--channel", "loss", "--lam", "0.5", "--task", "Q2")
_AMP = ("--channel", "amp", "--task", "Q2")
_NSHOT = ("--method", "aep", "--n", "100", "--eps", "0.1")


_OUT = ("--out", "{out}")


@pytest.mark.parametrize("args,message", [
    pytest.param(("sweep", *_GRID, "--lam", "1:2", *_OUT),
                 "--lam: range must be start:stop:count[:log], got '1:2'", id="range-parts"),
    pytest.param(("sweep", *_GRID, "--lam", "0:1:0", *_OUT),
                 "--lam: range count must be >= 1, got 0", id="range-count"),
    pytest.param(("sweep", *_GRID, "--lam", "0.1:1:3:lin", *_OUT),
                 "--lam: range suffix must be 'log', got 'lin'", id="range-suffix"),
    pytest.param(("sweep", *_GRID, "--lam", "0:1:3:log", *_OUT),
                 "--lam: log spacing needs positive endpoints", id="range-log"),
    # click's own usage errors, not the "error: " of a domain check
    pytest.param(("sweep", *_GRID[2:], *_OUT), "Missing option '--channel'", id="sweep-channel"),
    pytest.param(("sweep", *_GRID), "Missing option '--out'", id="sweep-out"),
    pytest.param(("capacity", *_LOSS, "--method", "aep"), "method aep needs --n and --eps",
                 id="aep-no-n-eps"),
    pytest.param(("capacity", *_LOSS, "--method", "aep", "--n", "100"),
                 "method aep needs --n and --eps", id="aep-no-eps"),
    pytest.param(("capacity", *_LOSS, "--method", "aep", "--eps", "0.1"),
                 "method aep needs --n and --eps", id="aep-no-n"),
    # the other channel's parameter is refused, not dropped
    pytest.param(("capacity", *_AMP, "--g", "2", "--lam", "0.3", *_NSHOT),
                 "--lam does not apply to --channel amp, which reads --g", id="capacity-amp-lam"),
    pytest.param(("capacity", *_LOSS, "--g", "2", *_NSHOT),
                 "--g does not apply to --channel loss, which reads --lam", id="capacity-loss-g"),
    pytest.param(("complexity", *_LOSS, "--g", "2", "--k", "100", "--eps", "0.1"),
                 "--g does not apply to --channel loss, which reads --lam",
                 id="complexity-loss-g"),
    pytest.param(("complexity", *_AMP, "--lam", "0.3", "--g", "2", "--k", "100", "--eps", "0.1"),
                 "--lam does not apply to --channel amp, which reads --g",
                 id="complexity-amp-lam"),
    # every given --ns, --n and --eps is checked, as in sweep, whether or not
    # the method reads it: each of these printed a result
    pytest.param(("capacity", *_LOSS, "--method", "aep", "--n", "10", "--eps", "0.1",
                  "--ns", "-1"), "mean photon number must be >= 0, got -1.0", id="aep-ns-negative"),
    pytest.param(("capacity", *_LOSS, "--method", "aep", "--n", "10", "--eps", "0.1",
                  "--ns", "nan"), "mean photon number must be finite, got nan", id="aep-ns-nan"),
    pytest.param(("capacity", *_LOSS, "--method", "upper", "--n", "10", "--eps", "0.1",
                  "--ns", "inf"), "mean photon number must be finite, got inf", id="upper-ns-inf"),
    pytest.param(("capacity", *_LOSS, "--method", "asymptotic", "--n", "-5", "--eps", "7"),
                 "n must be a positive integer, got -5", id="asymptotic-n"),
    pytest.param(("capacity", *_LOSS, "--method", "asymptotic", "--eps", "7"),
                 "eps must lie in (0, 1), got 7.0", id="asymptotic-eps"),
    pytest.param(("capacity", *_LOSS, "--method", "improved", "--n", "0", "--eps", "0.1",
                  "--ns", "-1"), "mean photon number must be >= 0, got -1.0",
                 id="ns-before-n"),
])
def test_domain_errors_exit_two(tmp_path, args, message):
    out = tmp_path / "sweep.csv"
    res = _char_runner().invoke(main, [arg.format(out=out) for arg in args])
    assert res.exit_code == 2
    if message.startswith("Missing option"):
        assert f"Error: {message}" in res.stderr
    else:
        assert res.stderr == f"error: {message}\n"
    assert res.stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("args,message", [
    (("capacity", *_AMP, "--g", "nan", *_NSHOT), "gain must be finite, got nan"),
    (("capacity", *_AMP, "--g", "inf", *_NSHOT), "gain must be finite, got inf"),
    (("capacity", *_LOSS, "--method", "best", "--n", "100", "--eps", "0.1", "--ns", "nan"),
     "mean photon number must be finite, got nan"),
    (("capacity", *_LOSS, "--method", "asymptotic", "--ns", "inf"),
     "mean photon number must be finite, got inf"),
    (("complexity", *_LOSS, "--k", "inf", "--eps", "0.1"), "target bits must be finite, got inf"),
    (("complexity", *_LOSS, "--k", "nan", "--eps", "0.1"), "target bits must be finite, got nan"),
    (("complexity", *_AMP, "--g", "inf", "--k", "100", "--eps", "0.1"),
     "gain must be finite, got inf"),
    (("state", "thermal", "--n", "nan"), "mean photon number must be finite, got nan"),
    (("state", "tmsv", "--n", "inf"), "mean photon number must be finite, got inf"),
])
def test_non_finite_inputs_exit_two(args, message):
    res = _char_runner().invoke(main, list(args))
    assert res.exit_code == 2
    assert res.stderr == f"error: {message}\n"
    assert res.stdout == ""


_EC = ("--n", "100", "--eps", "0.1")
_TOO_MANY = "an output mode would hold more than 1e+100 photons"


@pytest.mark.parametrize("args,message", [
    (("capacity", *_LOSS, "--method", "ec-variance", *_EC, "--ns", "1e200"),
     "method ec-variance cannot evaluate lambda = 0.5 with Ns = 1e+200"),
    (("capacity", *_LOSS, "--method", "ec-variance", *_EC, "--ns", "1e308"),
     "method ec-variance cannot evaluate lambda = 0.5 with Ns = 1e+308"),
    (("capacity", *_LOSS, "--method", "ec-aep", *_EC, "--ns", "1e200"),
     "method ec-aep cannot evaluate lambda = 0.5 with Ns = 1e+200"),
    (("capacity", *_AMP, "--g", "1e200", "--method", "ec-aep", *_EC, "--ns", "10"),
     "method ec-aep cannot evaluate g = 1e+200 with Ns = 10.0"),
    (("capacity", *_AMP, "--g", "1e308", "--method", "asymptotic", "--ns", "10"),
     "method asymptotic cannot evaluate g = 1e+308 with Ns = 10.0"),
    (("complexity", *_LOSS, "--k", "100", "--eps", "0.1", "--ns", "1e200"),
     "method ec-aep cannot evaluate lambda = 0.5 with Ns = 1e+200"),
])
def test_huge_inputs_exit_two(args, message):
    # these printed an Infinity lower bound with a NaN breakdown, an
    # OverflowError traceback, or "argument must be finite, got inf"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = _char_runner().invoke(main, list(args))
    assert [str(w.message) for w in caught] == []
    assert res.exit_code == 2
    assert res.stderr == f"error: {message}: {_TOO_MANY}\n"
    assert res.stdout == ""


@pytest.mark.parametrize("kind,params,counted", [
    ("loss", "0.3:0.8:2", ("entropy_variance_pure_loss", "petz_terms_pure_loss")),
    ("amp", "1.5:3:2", ("petz_terms_amplifier",)),
])
def test_sweep_computes_each_rate_once_per_grid_point(tmp_path, monkeypatch, kind, params,
                                                       counted):
    # the eps-free part of ec-variance and ec-aep runs once per (channel
    # parameter, Ns, task), not once per eps as well
    calls = {name: 0 for name in counted}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in counted:
        monkeypatch.setattr(bosonic.capacity, name, counting(name, getattr(bosonic.capacity, name)))
    flag = "--lam" if kind == "loss" else "--g"
    res = _char_runner().invoke(main, [
        "sweep", "--channel", kind, "--methods", "ec-variance,ec-aep", "--tasks", "Q,K",
        flag, params, "--ns", "0.5:2:2", "--n", "10:1000:3:log", "--eps", "0.01:0.2:3",
        "--out", str(tmp_path / "sweep.csv")])
    assert res.exit_code == 0, res.stderr
    assert calls == {name: 2 * 2 * 2 for name in counted}  # parameters x Ns x tasks


def test_sweep_computes_ns_free_families_once_per_parameter(tmp_path, monkeypatch):
    # improved, aep and the converse ignore Ns: over 3 Ns each runs once per
    # (channel parameter, task), the converse once per eps as well
    rates, calls = collections.Counter(), collections.Counter()
    family_rate = bosonic.capacity.BoundFamily.rate

    def counted_rate(self, *args, **kwargs):
        rates[self.method] += 1
        return family_rate(self, *args, **kwargs)

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(bosonic.capacity.BoundFamily, "rate", counted_rate)
    for name in ("asymptotic_capacity", "converse_coeffs"):
        monkeypatch.setattr(bosonic.capacity, name, counting(name, getattr(bosonic.capacity, name)))
    res = _char_runner().invoke(main, [
        "sweep", "--channel", "loss", "--methods", "improved,aep,best,upper", "--tasks", "Q2,K",
        "--lam", "0.3:0.8:2", "--ns", "0.5:2:3", "--n", "10:1000:3:log", "--eps", "0.01:0.2:3",
        "--out", str(tmp_path / "sweep.csv")])
    assert res.exit_code == 0, res.stderr
    params, ns, tasks, eps = 2, 3, 2, 3
    # improved and aep alone and inside best; the EC families once per Ns
    assert rates == {"improved": 2 * params * tasks, "aep": 2 * params * tasks,
                     "ec-aep": params * ns * tasks, "ec-variance": params * ns * tasks}
    assert calls["converse_coeffs"] == params * tasks * eps
    # the rate of improved, and the converse's Q2 rate
    assert calls["asymptotic_capacity"] == 2 * params * tasks + params * tasks * eps


def test_fmt_floats_formats_each_distinct_value_once(monkeypatch):
    from bosonic import cli

    other_nan = np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)[0]
    values = np.array([1.5, 0.0, -0.0, math.inf, -math.inf, math.nan, 1.5, 0.1, -0.0,
                       5e-324, other_nan, 0.1, math.nan, 0.0, -math.inf, 1e20]).reshape(4, 4)
    want = [cli._fmt_float(v) for v in values.ravel().tolist()]
    formatted = []
    fmt_float = cli._fmt_float
    monkeypatch.setattr(cli, "_fmt_float", lambda x: formatted.append(x) or fmt_float(x))
    got = cli._fmt_floats(values)
    assert got.shape == values.shape
    assert got.ravel().tolist() == want
    # one call per distinct bit pattern: the two NaNs differ, 0.0 and -0.0 too
    assert len(formatted) == 10
    assert cli._fmt_floats(np.empty(0)).tolist() == []


def test_float_format_seventeen_digits(runner):
    res = invoke(runner, "capacity", "--channel", "loss", "--lam", "0.1", "--task", "Q2",
                 "--method", "upper", "--n", "7", "--eps", "0.1")
    payload = res.output
    # eps shows its shortest 17-digit form and round-trips exactly
    assert '"eps": 0.10000000000000001' in payload
    assert json.loads(payload)["eps"] == 0.1
    from bosonic.cli import _fmt_float

    cases = {100.0: "100.0", -0.0: "-0.0", 1e20: "1e+20", 2.5e-7: "2.4999999999999999e-07",
             123456789012345678.0: "1.2345678901234568e+17", 5e-324: "4.9406564584124654e-324",
             math.inf: "Infinity", -math.inf: "-Infinity", math.nan: "NaN"}
    assert {x: _fmt_float(x) for x in cases} == cases


_NO_SCIPY_SCRIPT = textwrap.dedent("""
    import sys
    sys.modules["scipy"] = None  # any scipy import now raises ImportError
    import bosonic as b
    from bosonic.cli import main
    assert "concurrent.futures" not in sys.modules, "bosonic.cli imported concurrent.futures"
    assert not [m for m in sys.modules if m.startswith("scipy.")], "bosonic loaded scipy"
    st = b.stinespring_output(b.PureLoss(0.6), b.tmsv_state(1.0))
    b.williamson(st.cov)
    b.symplectic_eigenvalues(st.cov)
    b.petz_conditional_entropy_half(b.reduce_state(st, [0, 1]), [0])
    b.aep_lower_bound_generic(b.PureLoss(0.6), b.tmsv_state(1.0), 100, 0.1, "Q2")
    main(["capacity", "--channel", "loss", "--lam", "0.5", "--task", "Q2",
          "--method", "improved", "--n", "100", "--eps", "0.1"], standalone_mode=False)
    main(["tracedist", sys.argv[1], sys.argv[1], "--eps", "1e-3"], standalone_mode=False)
""")


def test_runs_without_scipy(tmp_path):
    vac = write_state(tmp_path, "vac.json", {"modes": 1, "mean": [0.0, 0.0],
                                             "cov": [[1.0, 0.0], [0.0, 1.0]]})
    src = os.path.dirname(os.path.dirname(bosonic.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, vac],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert json.loads(lines[0])["value"] == pytest.approx(79.44, abs=0.01)
    assert json.loads(lines[1])["estimate"] == 0.0


_LAZY_FOCK_SCRIPT = textwrap.dedent("""
    import sys
    from bosonic.cli import main

    def loaded():
        return sorted(m for m in sys.modules if m in ("bosonic.fock", "bosonic.tracedist"))

    assert loaded() == [], loaded()
    state, out = sys.argv[1], sys.argv[2]
    for args in (["state", "thermal", "--n", "0.5"], ["state", "validate", state],
                 ["tail", state, "--m", "5"],
                 ["capacity", "--channel", "loss", "--lam", "0.5", "--task", "Q2",
                  "--method", "best", "--n", "100", "--eps", "0.1", "--ns", "1"],
                 ["complexity", "--channel", "amp", "--g", "2", "--task", "Q2", "--k", "100",
                  "--eps", "0.1"],
                 ["sweep", "--channel", "loss", "--methods", "best,upper", "--ns", "1",
                  "--out", out]):
        main(args, standalone_mode=False)
    assert loaded() == [], loaded()
    main(["tracedist", state, state, "--eps", "1e-3"], standalone_mode=False)
    assert loaded() == ["bosonic.fock", "bosonic.tracedist"], loaded()
""")


def test_only_tracedist_loads_the_fock_build(tmp_path):
    vac = write_state(tmp_path, "vac.json", {"modes": 1, "mean": [0.0, 0.0],
                                             "cov": [[1.0, 0.0], [0.0, 1.0]]})
    src = os.path.dirname(os.path.dirname(bosonic.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _LAZY_FOCK_SCRIPT, vac,
                           str(tmp_path / "sweep.csv")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["estimate"] == 0.0


# ------------------------------------------------------ characterization ---
#
# Every `capacity --method` x task x channel x (--ns given or absent), every
# `complexity` task x channel x --ns, and one sweep per channel, recorded as
# stdout (or exit code and stderr) in tests/data/cli_characterization.json.
# Strings, ints, bools, exit codes and messages compare exactly; floats at
# rel 1e-15, so another libm may move the last digit.  Re-record with
# `PYTHONPATH=src python tests/test_cli.py` only when a change is meant to
# alter CLI output.

_CHAR_PATH = pathlib.Path(__file__).parent / "data" / "cli_characterization.json"
_CHAR_CHANNELS = {"loss": ("--lam", "0.7"), "amp": ("--g", "2.5")}
_CHAR_METHODS = ("asymptotic", "aep", "improved", "ec-aep", "ec-variance", "best", "upper")
_CHAR_TASKS = ("Q", "Q2", "K")
# the amp sweep leaves out ec-variance, which aborted amp sweeps before it
# was skipped like improved (see test_sweep_skips_loss_only_families_on_amp)
_CHAR_SWEEPS = {
    "loss": ("--methods", ",".join(_CHAR_METHODS), "--lam", "0.3:0.9:3"),
    "amp": ("--methods", "asymptotic,aep,improved,ec-aep,best,upper", "--g", "1.5:4:3"),
}


def _char_calls():
    for channel, flag in _CHAR_CHANNELS.items():
        for task in _CHAR_TASKS:
            for ns in ((), ("--ns", "1.5")):
                for method in _CHAR_METHODS:
                    # n = 10 sits below the AEP threshold 2 log2(2/eps^2), n = 2000 above
                    for n in ("10", "2000"):
                        yield ("capacity", "--channel", channel, *flag, "--task", task,
                               "--method", method, "--n", n, "--eps", "0.05", *ns)
                yield ("complexity", "--channel", channel, *flag, "--task", task,
                       "--k", "500", "--eps", "0.05", *ns)


def _char_runner():
    try:
        return CliRunner(mix_stderr=False)  # click < 8.2 mixes stderr in by default
    except TypeError:
        return CliRunner()


def _char_record(runner, args):
    res = runner.invoke(main, list(args))
    return {"args": list(args), "exit_code": res.exit_code,
            "stdout": res.stdout, "stderr": res.stderr}


def _char_sweep(runner, tmp_dir, channel):
    out = os.path.join(tmp_dir, f"{channel}.csv")
    args = ["sweep", "--channel", channel, *_CHAR_SWEEPS[channel], "--tasks", "Q,Q2,K",
            "--ns", "0.5:2:2", "--n", "10:5000:3:log", "--eps", "0.01:0.1:2", "--out", out]
    rec = _char_record(runner, args)
    with open(out, encoding="utf-8") as fh:
        rec["csv"] = fh.read()
    rec["args"][-1] = rec["stdout"] = None  # both hold the temporary path
    return rec


def _char_capture(tmp_dir) -> dict:
    runner = _char_runner()
    return {"calls": [_char_record(runner, args) for args in _char_calls()],
            "sweeps": {ch: _char_sweep(runner, tmp_dir, ch) for ch in _CHAR_SWEEPS}}


def _same(actual, expected) -> bool:
    if isinstance(expected, float):
        return isinstance(actual, float) and (
            actual == expected or math.isclose(actual, expected, rel_tol=1e-15)
            or (math.isnan(actual) and math.isnan(expected)))
    if isinstance(expected, dict):
        return (isinstance(actual, dict) and list(actual) == list(expected)
                and all(_same(actual[k], expected[k]) for k in expected))
    if isinstance(expected, list):
        return (isinstance(actual, list) and len(actual) == len(expected)
                and all(_same(a, e) for a, e in zip(actual, expected)))
    return type(actual) is type(expected) and actual == expected


def _csv_cells(text: str) -> list:
    def cell(tok):
        for parse in (int, float):
            try:
                return parse(tok)
            except ValueError:
                pass
        return tok

    return [[cell(tok) for tok in line.split(",")] for line in text.splitlines()]


def _parsed(rec: dict) -> dict:
    out = dict(rec)
    if "csv" in out:
        out["csv"] = _csv_cells(out["csv"])
    elif out["stdout"]:
        out["stdout"] = json.loads(out["stdout"])
    return out


def test_cli_characterization(tmp_path):
    expected = json.loads(_CHAR_PATH.read_text())
    actual = _char_capture(str(tmp_path))
    assert [c["args"] for c in actual["calls"]] == [c["args"] for c in expected["calls"]]
    bad = [" ".join(e["args"]) for a, e in zip(actual["calls"], expected["calls"])
           if not _same(_parsed(a), _parsed(e))]
    bad += [f"sweep --channel {ch}" for ch in expected["sweeps"]
            if not _same(_parsed(actual["sweeps"][ch]), _parsed(expected["sweeps"][ch]))]
    assert not bad, f"{len(bad)} calls changed, first: {bad[:3]}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = _char_capture(tmp)
    _CHAR_PATH.parent.mkdir(exist_ok=True)
    _CHAR_PATH.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {len(record['calls'])} calls and {len(record['sweeps'])} sweeps to {_CHAR_PATH}")
