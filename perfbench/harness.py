"""Workloads, the timed and traced loops, and the environment record.

Every loop is closed with one client: an operation starts when the previous
one has returned.  Outputs are checked after the timed region, once per
distinct operation; a repeat of an operation must reproduce the first
output exactly, which doubles as the determinism self-check.

Operations are timed in CPU seconds, the benchmark process's own plus those
of the CLI children it has waited for: on a virtual machine whose kernel
accounts steal time, that leaves out the time the host ran other guests.
The host's load still moves CPU speed itself, by 10-30% over minutes, so the
gated timings are rescaled by a reference computation timed alongside
(``Reference``).  The report line keeps the CPU and wall-clock figures.
"""

from __future__ import annotations

import collections
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib import metadata

import numpy as np

import inputs
import oracles
import reference
from tracing import CLI_SPAN, Tracer, span_names

WORK_DIR = ".bench_work"
CHILD_TIMEOUT_S = 120
#: the seed whose CLI payloads and sweep CSV hashes goldens.json pins
GOLDEN_SEED = 0


@dataclass
class Outcome:
    """What one operation returned: a comparable record, or an error."""

    record: object = None
    error: str = ""
    units: int = 1  # operations it stands for (CSV rows for a sweep run)


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    report: dict = field(default_factory=dict)


def cpu_seconds() -> float:
    """CPU seconds of this process and of every child (and its children)
    that has been waited for."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


class Reference:
    """The machine's speed, sampled between operations.

    After every ``every`` CPU seconds of operations it times the fixed
    computation of reference.py: in a fresh process for workloads that start
    processes, in this process for those that do not.  ``slowdown`` is the
    median sample over its cost on the machine the benchmark was written on
    (``NOMINAL_S``).  CPU seconds divided by it are "reference seconds": what
    the operation would cost on that machine at its usual speed.

    While the host's speed drifted, five-seed spreads (quartile distance over
    median) fell from 10-17% in CPU seconds to 3-9% in reference seconds;
    while it held still, the samples' own noise added a few percent.
    """

    #: CPU seconds of one sample on a 2-vCPU Xeon VM (Python 3.11, numpy 2,
    #: OpenBLAS on one thread), in-process and fresh-process
    NOMINAL_S = {True: 0.015, False: 0.5}
    #: operation CPU seconds between two samples: the samples take a tenth
    #: (in-process) to a sixth (fresh-process) of the run
    EVERY_S = {True: 0.25, False: 2.5}

    def __init__(self, in_process: bool):
        self.in_process = in_process
        self.every = self.EVERY_S[in_process]
        self._owed = self.every / 2.0
        self.samples: list[float] = []

    def after(self, op_cpu_s: float) -> None:
        self._owed += op_cpu_s
        while self._owed >= self.every:
            self._owed -= self.every
            self.samples.append(self.sample())

    def sample(self) -> float:
        before = cpu_seconds()
        if self.in_process:
            reference.work()
        else:
            subprocess.run([sys.executable, reference.__file__], check=True,
                           timeout=CHILD_TIMEOUT_S, capture_output=True)
        return cpu_seconds() - before

    def slowdown(self) -> float:
        if not self.samples:
            self.samples.append(self.sample())
        return statistics.median(self.samples) / self.NOMINAL_S[self.in_process]


def child_env(root: str) -> dict:
    """Environment of every CLI child: this process's, which carries the BLAS
    pin run.py set, with the tree under test first on the import path."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _canonical(kind: str, stdout: str) -> str:
    """The CLI payload with the wall-clock ``seconds`` field of tracedist dropped."""
    text = stdout.strip()
    if kind != "tracedist":
        return text
    payload = json.loads(text)
    payload.pop("seconds", None)
    return json.dumps(payload, sort_keys=True)


def _load_goldens() -> dict:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class _Workload:
    """Shared plumbing: a scratch directory and the operation list."""

    in_process = True
    name = ""

    def __init__(self, seed: int, smoke: bool, root: str):
        self.seed = seed
        self.smoke = smoke
        self.root = root
        self.work = ""
        self.goldens = _load_goldens()

    def _make_work_dir(self) -> None:
        base = os.path.join(self.root, WORK_DIR)
        os.makedirs(base, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix=f"{self.name}-", dir=base)

    def close(self) -> None:
        if self.work:
            shutil.rmtree(self.work, ignore_errors=True)
            with contextlib.suppress(OSError):
                os.rmdir(os.path.join(self.root, WORK_DIR))

    def prepare_traced(self) -> None:
        """Anything the in-process path needs before its first timed pass."""

    def finish(self, index: int, out: Outcome) -> Outcome:
        """Turn a raw outcome into its comparable record, outside the timing."""
        return out


# ------------------------------------------------------------------ td-small/large


class TraceDistanceWorkload(_Workload):
    """In-process ``gaussian_trace_distance`` calls on seeded pairs."""

    def __init__(self, name: str, seed: int, smoke: bool, root: str):
        super().__init__(seed, smoke, root)
        self.name = name

    def setup(self) -> None:
        import bosonic.tracedist
        from bosonic import GaussianState

        self._td = bosonic.tracedist
        if self.smoke:
            self.pairs = inputs.tiny_pairs(self.seed)
        elif self.name == "td-small":
            self.pairs = inputs.td_small_pairs(self.seed)
        else:
            self.pairs = inputs.td_large_pairs(self.seed)
        self.states = [(GaussianState(p.mean_a, p.cov_a), GaussianState(p.mean_b, p.cov_b))
                       for p in self.pairs]
        for p in inputs.tiny_pairs(self.seed + 1):  # warm-up: every family, small dims
            with contextlib.suppress(RuntimeError, ValueError):
                self._td.gaussian_trace_distance(GaussianState(p.mean_a, p.cov_a),
                                                 GaussianState(p.mean_b, p.cov_b), p.eps)

    def __len__(self) -> int:
        return len(self.pairs)

    def family(self, index: int) -> str:
        pair = self.pairs[index]
        return f"{pair.family}/{pair.modes}"

    def run_op(self, index: int, tracer=None) -> Outcome:
        state_a, state_b = self.states[index]
        try:
            r = self._td.gaussian_trace_distance(state_a, state_b, self.pairs[index].eps)
        except Exception as exc:  # the operation boundary: count it, keep running
            return Outcome(error=f"{type(exc).__name__}: {exc}")
        return Outcome(record=(r.estimate, r.certified_error, r.cutoff, r.fock_dim,
                               tuple(r.tail_bounds)))

    run_in_process = run_op

    def check(self, index: int, record) -> list[str]:
        p = self.pairs[index]
        estimate, err, cutoff, _, tails = record
        states = ((p.mean_a, p.cov_a), (p.mean_b, p.cov_b))
        errors = oracles.distance_errors(estimate, err, *states, pure=p.pure)
        for (mean, cov), tail in zip(states, tails):
            exact = math.sqrt(max(oracles.exact_tail(mean, cov, cutoff) - oracles.TAIL_TOL, 0.0))
            if tail < exact:
                errors.append(f"truncation certificate {tail} below the exact {exact}")
        return errors

    def counts(self, record) -> list:
        return [record[2], record[3]]


# ---------------------------------------------------------------------- cli


class _CliBacked(_Workload):
    """Runs ``python -m bosonic.cli`` in a fresh process, or ``main`` in-process
    when traced."""

    in_process = False

    def _spawn(self, argv):
        return subprocess.run([sys.executable, "-m", "bosonic.cli", *argv], capture_output=True,
                              text=True, env=child_env(self.root), cwd=self.work,
                              timeout=CHILD_TIMEOUT_S)

    def prepare_traced(self) -> None:
        import bosonic.cli

        self._cli = bosonic.cli


class CliWorkload(_CliBacked):
    """Fresh-process CLI calls, one operation per call."""

    name = "cli"

    def setup(self) -> None:
        self._make_work_dir()
        self.calls, files = inputs.cli_mix(self.seed)
        self.states = files
        for fname, (mean, cov) in files.items():
            with open(os.path.join(self.work, fname), "w", encoding="utf-8") as fh:
                json.dump({"modes": mean.size // 2, "mean": mean.tolist(), "cov": cov.tolist()}, fh)
        self.argv = [[os.path.join(self.work, a) if a in files else a for a in call.args]
                     for call in self.calls]
        warm = self._spawn(["state", "validate", os.path.join(self.work, "s0.json")])
        if warm.returncode != 0:
            raise RuntimeError(f"warm-up CLI call failed: {warm.stderr}")

    def __len__(self) -> int:
        return len(self.calls)

    def family(self, index: int) -> str:
        return self.calls[index].kind

    def run_op(self, index: int, tracer=None) -> Outcome:
        done = self._spawn(self.argv[index])
        if done.returncode != 0:
            return Outcome(error=f"exit {done.returncode}: {done.stderr.strip()[-300:]}")
        return Outcome(record=done.stdout)

    def run_in_process(self, index: int, tracer=None) -> Outcome:
        code, out = _call_main(self._cli, self.argv[index], tracer)
        if code != 0:
            return Outcome(error=f"exit {code}")
        return Outcome(record=out)

    def finish(self, index: int, out: Outcome) -> Outcome:
        if out.error:
            return out
        return Outcome(record=_canonical(self.calls[index].kind, out.record))

    def check(self, index: int, record) -> list[str]:
        call = self.calls[index]
        errors = _check_cli_payload(call, record, self.states)
        golden = self.goldens.get("cli")
        if self.seed == GOLDEN_SEED and golden is not None and golden[index] != record:
            errors.append(f"payload differs from the golden: {record!r} != {golden[index]!r}")
        return errors

    def counts(self, record) -> str:
        return hashlib.sha256(record.encode()).hexdigest()[:12]


def _call_main(cli_module, argv, tracer) -> tuple[int | str, str]:
    """``bosonic.cli.main(argv, standalone_mode=False)`` with stdout captured;
    returns the exit code (or the exception that escaped) and the output."""
    buffer = io.StringIO()
    span = tracer.span(CLI_SPAN) if tracer is not None else contextlib.nullcontext()
    code = 0
    with span, contextlib.redirect_stdout(buffer):
        try:
            cli_module.main(list(argv), standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # the operation boundary: count it, keep running
            code = f"{type(exc).__name__}: {exc}"
    return code, buffer.getvalue()


def _opt(args, flag, cast=str):
    if flag not in args:
        return None
    return cast(args[args.index(flag) + 1])


def _channel(args):
    from bosonic import PureAmplifier, PureLoss

    if _opt(args, "--channel") == "loss":
        return PureLoss(_opt(args, "--lam", float))
    return PureAmplifier(_opt(args, "--g", float))


def _check_cli_payload(call, record: str, states) -> list[str]:
    import bosonic as b

    args = list(call.args)
    payload = json.loads(record)
    errors = []
    if call.kind == "capacity":
        method = _opt(args, "--method")
        if method == "asymptotic":
            if not payload["value"] >= 0.0:
                errors.append(f"negative asymptotic rate {payload['value']}")
            return errors
        direction, value = payload["direction"], payload["value"]
        if payload["vacuous"] != (direction == "lower" and value < 0.0):
            errors.append(f"vacuous flag {payload['vacuous']} disagrees with {direction} {value}")
        if direction == "lower":
            task = _opt(args, "--task")
            upper = b.upper_bound_nshot(_channel(args), _opt(args, "--n", int),
                                        _opt(args, "--eps", float), "Q2" if task == "Q" else task)
            if value > upper.value:
                errors.append(f"lower bound {value} above the converse {upper.value}")
    elif call.kind == "complexity":
        errors += _check_complexity(args, payload)
    elif call.kind in ("tail-m", "tail-eps"):
        mean, cov = states[os.path.basename(args[1])]
        cutoff = payload["cutoff"]
        exact = oracles.exact_tail(mean, cov, cutoff) - oracles.TAIL_TOL
        if payload["optimized"] > payload["closed"]:
            errors.append(f"optimized {payload['optimized']} worse than closed {payload['closed']}")
        if payload["optimized"] < exact:
            errors.append(f"tail bound {payload['optimized']} below the exact tail {exact}")
        if call.kind == "tail-m" and cutoff != _opt(args, "--m", int):
            errors.append(f"cutoff {cutoff} is not the requested --m")
        if call.kind == "tail-eps" and math.sqrt(payload["optimized"]) > _opt(args, "--target-eps", float):
            errors.append(f"cutoff {cutoff} does not certify the target eps")
    elif call.kind == "tracedist":
        pair = [states[os.path.basename(path)] for path in args[1:3]]
        pure = all(abs(np.linalg.det(cov) - 1.0) < 1e-9 for _, cov in pair)
        errors += oracles.distance_errors(payload["estimate"], payload["certified_error"], *pair,
                                          pure=pure)
    elif call.kind == "validate":
        if not payload["ok"] or payload["symmetry_defect"] != 0.0:
            errors.append(f"valid state reported as {payload}")
    elif call.kind == "evolve":
        errors += _check_evolve(args, payload, states)
    return errors


def _check_complexity(args, payload) -> list[str]:
    """sufficient >= necessary, and the sufficient n inverts the best family."""
    import bosonic as b

    errors = []
    if payload["sufficient_n"] < payload["necessary_n"]:
        errors.append(f"sufficient {payload['sufficient_n']} < necessary {payload['necessary_n']}")
    channel = _channel(args)
    k, eps, task = _opt(args, "--k", float), _opt(args, "--eps", float), _opt(args, "--task")
    ns = _opt(args, "--ns", float)
    threshold = math.ceil(2.0 * math.log2(2.0 / eps**2))
    if ns is None and isinstance(channel, b.PureLoss):
        families = [(b.improved_lower_bound_pure_loss(channel.transmissivity, 1, eps, task), 1)]
    elif ns is None:
        families = [(b.aep_lower_bound_amplifier(channel.gain, 1, eps, task), threshold)]
    else:
        families = [(b.ec_aep_lower_bound(channel, ns, 1, eps, task), threshold)]
        if isinstance(channel, b.PureLoss):
            families.append((b.ec_variance_lower_bound(channel.transmissivity, ns, 1, eps, task), 1))
    n = payload["sufficient_n"]
    matches = 0
    for bound, min_n in families:
        a, bb, c = (bound.breakdown["per_use"], bound.breakdown["sqrt_coefficient"],
                    -bound.breakdown["constant"])
        if not a > 0.0:
            continue
        if oracles.inversion_ok(a, bb, c, k, n, min_n):
            matches += 1
        elif n - 1 >= min_n and a * (n - 1) - bb * math.sqrt(n - 1) - c >= k:
            errors.append(f"n - 1 = {n - 1} already reaches k = {k} with per-use rate {a}")
    if matches == 0:
        errors.append(f"sufficient n = {n} is not the inversion of any applicable family")
    return errors


def _check_evolve(args, payload, states) -> list[str]:
    mean, cov = states[os.path.basename(args[2])]
    if "--beam-splitter" in args:
        lam = _opt(args, "--beam-splitter", float)
        eye = np.eye(2)
        s = np.block([[math.sqrt(lam) * eye, math.sqrt(1 - lam) * eye],
                      [-math.sqrt(1 - lam) * eye, math.sqrt(lam) * eye]])
        want_mean, want_cov = s @ mean, s @ cov @ s.T
    else:
        shift = np.array([float(x) for x in _opt(args, "--displace").split(",")])
        want_mean, want_cov = mean + shift, cov
    got_mean, got_cov = np.array(payload["mean"]), np.array(payload["cov"])
    if np.max(np.abs(got_mean - want_mean)) > 1e-12 or np.max(np.abs(got_cov - want_cov)) > 1e-12:
        return ["evolved state differs from S V S^T"]
    return []


# -------------------------------------------------------------------- sweep


class SweepWorkload(_CliBacked):
    """Fresh-process ``bosonic sweep`` runs over the seeded grids, serially;
    one operation per CSV row."""

    name = "sweep"

    def setup(self) -> None:
        self._make_work_dir()
        self.grids = inputs.sweep_grids(self.seed, scale=1 if self.smoke else 12)
        self.outs = [os.path.join(self.work, f"{g.name}.csv") for g in self.grids]
        warm = self._spawn(["sweep", "--channel", "amp", "--methods", "best", "--g", "2.0",
                            "--out", os.path.join(self.work, "warm.csv")])
        if warm.returncode != 0:
            raise RuntimeError(f"warm-up sweep failed: {warm.stderr}")

    def __len__(self) -> int:
        return len(self.grids)

    def family(self, index: int) -> str:
        return self.grids[index].name

    def _outcome(self, index: int, code, detail: str) -> Outcome:
        units = self.grids[index].rows
        if code != 0:
            return Outcome(error=f"exit {code}: {detail[-300:]}", units=units)
        return Outcome(units=units)

    def run_op(self, index: int, tracer=None) -> Outcome:
        done = self._spawn([*self.grids[index].args, "--out", self.outs[index]])
        return self._outcome(index, done.returncode, done.stderr)

    def run_in_process(self, index: int, tracer=None) -> Outcome:
        code, out = _call_main(self._cli, [*self.grids[index].args, "--out", self.outs[index]],
                               tracer)
        return self._outcome(index, code, out)

    def finish(self, index: int, out: Outcome) -> Outcome:
        if out.error:
            return out
        with open(self.outs[index], "rb") as fh:
            return Outcome(record=hashlib.sha256(fh.read()).hexdigest(), units=out.units)

    def check(self, index: int, record) -> list[str]:
        grid = self.grids[index]
        with open(self.outs[index], encoding="utf-8") as fh:
            text = fh.read()
        if hashlib.sha256(text.encode()).hexdigest() != record:
            return ["CSV on disk differs from the run being checked"]
        rows = text.count("\n") - 1
        errors = [] if rows == grid.rows else [f"{rows} rows, expected {grid.rows}"]
        errors += oracles.sweep_csv_errors(text)
        golden = self.goldens.get("sweep", {}).get(f"{grid.name}@{grid.rows}")
        if self.seed == GOLDEN_SEED and golden is not None and golden != record:
            errors.append(f"{grid.name} CSV hash differs from the golden")
        return errors

    def counts(self, record) -> str:
        return record[:12]


def make_workload(name: str, seed: int, smoke: bool, root: str):
    if name == "cli":
        return CliWorkload(seed, smoke, root)
    if name == "sweep":
        return SweepWorkload(seed, smoke, root)
    return TraceDistanceWorkload(name, seed, smoke, root)


# -------------------------------------------------------------- checking


def _score(workload, outcomes) -> dict:
    """Check every distinct operation once; repeats must match it exactly.

    ``attempted``/``failed`` count each distinct operation of the list once
    (in units: CSV rows for a sweep), failed if any of its executions raised,
    failed a check or did not reproduce its first output.  They do not depend
    on how many passes the run completed; ``executed`` counts every execution.
    """
    first: dict[int, tuple[object, list[str]]] = {}
    attempted = failed = 0
    units: dict[int, int] = {}
    bad_units: dict[int, int] = collections.Counter()
    check_errors: list[str] = []
    raised = collections.Counter()
    bad_by_family = collections.Counter()
    ok_units = []
    for index, out in outcomes:
        attempted += out.units
        units[index] = out.units
        if out.error:
            failed += out.units
            bad_units[index] = out.units
            raised[workload.family(index)] += 1
            bad_by_family[workload.family(index)] += 1
            ok_units.append(False)
            continue
        if index not in first:
            first[index] = (out.record, workload.check(index, out.record))
        record, errors = first[index]
        if out.record != record:
            errors = errors + [f"operation {index} did not reproduce its first output"]
        if errors:
            failed += min(out.units, len(errors))
            bad_units[index] = max(bad_units[index], min(out.units, len(errors)))
            check_errors.extend(f"op {index} ({workload.family(index)}): {e}" for e in errors[:3])
            bad_by_family[workload.family(index)] += 1
        ok_units.append(not errors)
    return {
        "attempted": sum(units.values()),
        "failed": sum(bad_units.values()),
        "executed": {"attempted": attempted, "failed": failed},
        "correct": not check_errors,
        "check_errors": check_errors[:20],
        "raised_by_family": dict(raised),
        "failed_by_family": dict(bad_by_family),
        "first_errors": sorted({o.error for _, o in outcomes if o.error})[:5],
        "counts": {str(i): workload.counts(rec) for i, (rec, _) in sorted(first.items())},
        "ok": ok_units,
    }


def _tail(samples: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


# --------------------------------------------------------------- timed run


def _pass(workload, run, tracer=None, gauge=None) -> tuple[list, list[float], list[float]]:
    """One closed-loop pass over the operation list.  Each operation is timed
    alone, in CPU and in wall seconds; turning its output into a record
    happens outside that timing."""
    outcomes, cpu, wall = [], [], []
    for index in range(len(workload)):
        if tracer is not None:
            tracer.op = index
        c0, t0 = cpu_seconds(), time.perf_counter()
        out = run(index, tracer)
        wall.append(time.perf_counter() - t0)
        cpu.append(cpu_seconds() - c0)
        outcomes.append((index, workload.finish(index, out)))
        if gauge is not None:
            gauge.after(cpu[-1])
    return outcomes, cpu, wall


def _timings(outcomes, ok, durations, pass_totals) -> dict:
    """Goodput, median and tail of one clock's per-unit operation times."""
    # goodput: units of operations that passed, per second of every operation
    # of the run (a few passes of a few long operations make a median over
    # passes jumpy; the whole run averages them)
    good_units = sum(out.units for (_, out), passed in zip(outcomes, ok) if passed)
    goodput = good_units / sum(pass_totals)
    # the median takes one time per operation, its median over the passes,
    # so it does not depend on how many passes the run completed; the tail
    # needs every sample to reach a high percentile, except with ten or fewer
    # distinct operations: there the tail of every sample is the extreme of a
    # few repeats of the slowest ones, and the slowest operation's median
    # time is the steadier tail
    per_op = collections.defaultdict(list)
    for (index, _), duration, passed in zip(outcomes, durations, ok):
        if passed:
            per_op[index].append(duration)
    samples = [d for times in per_op.values() for d in times] or durations
    op_medians = [statistics.median(times) for times in per_op.values()] or durations
    tail_samples = op_medians if len(op_medians) <= 10 else samples
    tail, pct = _tail(tail_samples)
    return {"goodput": goodput,
            "p50": statistics.median(op_medians), "p50_samples": len(op_medians),
            "tail": tail, "tail_percentile": pct, "tail_samples": len(tail_samples),
            "tail_sample_is": "operation median" if tail_samples is op_medians else "operation",
            "samples": len(samples)}


def run_timed(workload, seconds: float) -> RunResult:
    """Whole passes of the operation list until a pass ends after
    ``seconds`` of wall time; whole passes keep the mix of every run equal."""
    outcomes = []
    clocks = {"cpu": ([], []), "wall": ([], [])}  # clock -> (per-unit times, pass totals)
    gauge = Reference(workload.in_process)
    start = time.perf_counter()
    while True:
        outs, cpu, wall = _pass(workload, workload.run_op, gauge=gauge)
        outcomes += outs
        for clock, secs in (("cpu", cpu), ("wall", wall)):
            durations, pass_totals = clocks[clock]
            durations += [sec / out.units for (_, out), sec in zip(outs, secs)]
            pass_totals.append(sum(secs))
        if time.perf_counter() - start >= seconds:
            break
    wall_s = time.perf_counter() - start
    score = _score(workload, outcomes)
    ok = score.pop("ok")
    cpu_t = _timings(outcomes, ok, *clocks["cpu"])
    wall_t = _timings(outcomes, ok, *clocks["wall"])
    slowdown = gauge.slowdown()
    metrics = {
        "ops_per_ref_s": (cpu_t["goodput"] * slowdown, "1/s"),
        "op_p50_ref_s": (cpu_t["p50"] / slowdown, "s"),
        "op_tail_ref_s": (cpu_t["tail"] / slowdown, "s"),
    }
    report = dict(score)
    report.update({
        "wall_s": wall_s,
        "passes": len(clocks["cpu"][1]),
        "pass_cpu_s": clocks["cpu"][1],
        "pass_s": clocks["wall"][1],
        "operations_per_pass": len(workload),
        "fail_frac": {"value": score["failed"] / score["attempted"], "unit": "ratio",
                      "failed": score["failed"], "attempted": score["attempted"],
                      "executed_failed": score["executed"]["failed"],
                      "executed_attempted": score["executed"]["attempted"]},
        # the same figures before rescaling, in CPU and in wall-clock seconds
        "ops_per_cpu_s": {"value": cpu_t["goodput"], "unit": "1/s"},
        "op_p50_cpu_s": {"value": cpu_t["p50"], "unit": "s"},
        "op_tail_cpu_s": {"value": cpu_t["tail"], "unit": "s"},
        "ops_per_s": {"value": wall_t["goodput"], "unit": "1/s"},
        "op_p50_s": {"value": wall_t["p50"], "unit": "s"},
        "op_tail_s": {"value": wall_t["tail"], "unit": "s"},
        "op_p50_samples": cpu_t["p50_samples"],
        "op_p50_sample_is": "one passing operation, its median time over the passes",
        "latency_samples": cpu_t["samples"],
        "op_tail_percentile": cpu_t["tail_percentile"],
        "op_tail_samples": cpu_t["tail_samples"],
        "op_tail_sample_is": cpu_t["tail_sample_is"],
        "op_unit": "CSV row" if isinstance(workload, SweepWorkload) else "operation",
        "reference": {"in_process": gauge.in_process, "samples_cpu_s": gauge.samples,
                      "slowdown": slowdown},
    })
    return RunResult(score["correct"], score["attempted"], score["failed"], metrics, report)


# -------------------------------------------------------------- traced run


class _LayerCounts:
    """Exact counts gathered by the wrapper hooks during one traced pass."""

    def __init__(self):
        self.cutoff_sum = 0
        self.fallbacks = 0
        self.fock_elements = 0
        self.eig_work = 0
        self.blocks: list[tuple] = []

    def hooks(self) -> dict:
        return {
            "tail.cutoff_for_error": self._cutoff,
            "tail.trace_distance_truncation_bound": self._bound,
            "fock.fock_matrix_elements": self._block,
            "tracedist.finite_trace_distance": self._eig,
        }

    def _cutoff(self, args, kwargs, result):
        self.cutoff_sum += int(result)

    def _bound(self, args, kwargs, result):
        self.fallbacks += bool(result.fallback)

    def _block(self, args, kwargs, result):
        state = args[0] if args else kwargs["state"]
        dim = result.matrix.shape[0]
        self.fock_elements += dim * dim
        self.blocks.append((state.mean, state.cov, result.cutoff, result.trace))

    def _eig(self, args, kwargs, result):
        block = args[0]
        dim = (block.matrix if hasattr(block, "matrix") else np.asarray(block)).shape[0]
        self.eig_work += dim**3

    def trace_defect_max(self) -> float:
        return max((abs(trace - oracles.photons_at_most(mean, cov, cutoff))
                    for mean, cov, cutoff, trace in self.blocks), default=0.0)


def run_traced(workload, seconds: float) -> RunResult:
    """Alternate untraced and traced in-process passes over the operation list.

    Counts come from the first traced pass and repeat exactly; self times are
    wall seconds per pass, averaged over the traced passes.  The tracing
    overhead compares traced with untraced pass CPU time.
    """
    workload.prepare_traced()
    untraced_s, traced_s, outcomes = [], [], []
    first: tuple[Tracer, _LayerCounts] | None = None
    self_s = collections.Counter()
    start = time.perf_counter()
    while True:
        outs, cpu, _ = _pass(workload, workload.run_in_process)
        outcomes += outs
        untraced_s.append(sum(cpu))

        counts = _LayerCounts()
        with Tracer(counts.hooks()) as tracer:
            outs, cpu, _ = _pass(workload, workload.run_in_process, tracer)
        outcomes += outs
        traced_s.append(sum(cpu))
        for name, (_, seconds_in) in tracer.self_times().items():
            self_s[name] += seconds_in
        if first is None:
            first = (tracer, counts)  # later passes' spans are dropped
        if time.perf_counter() - start >= seconds:
            break

    first_tracer, first_counts = first
    calls = first_tracer.self_times()
    metrics: dict[str, tuple[float, str]] = {}
    for name in span_names():
        metrics[f"{name}.calls"] = (calls.get(name, (0, 0.0))[0], "count")
        metrics[f"{name}.self_s"] = (self_s[name] / len(traced_s), "s")
    import_s, scipy_s = import_times(workload.root)
    sweep_other = metrics[f"{CLI_SPAN}.self_s"][0] if isinstance(workload, SweepWorkload) else 0.0
    metrics.update({
        "cli.import_s": (import_s, "s"),
        "cli.import_scipy_s": (scipy_s, "s"),
        "cli.sweep_other_s": (sweep_other, "s"),
        "tail.bound_evals": (metrics["tail.trace_distance_truncation_bound.calls"][0], "count"),
        "tail.cutoff_sum": (first_counts.cutoff_sum, "count"),
        "tail.fallbacks": (first_counts.fallbacks, "count"),
        "fock.elements": (first_counts.fock_elements, "count"),
        "fock.trace_defect_max": (first_counts.trace_defect_max(), "ratio"),
        "tracedist.eig_work": (first_counts.eig_work, "count"),
        "trace_overhead_frac": (sum(traced_s) / sum(untraced_s) - 1.0, "ratio"),
    })
    bound_evals = collections.Counter(span.op for span in first_tracer.spans
                                      if span.name == "tail.trace_distance_truncation_bound")
    score = _score(workload, outcomes)
    score.pop("ok")
    report = dict(score)
    report.update({
        "passes": len(traced_s),
        "untraced_pass_cpu_s": untraced_s,
        "traced_pass_cpu_s": traced_s,
        "bound_evals_per_op": {str(k): v for k, v in sorted(bound_evals.items())},
        "counts_are": "computed from the first traced pass; self_s is per pass",
    })
    return RunResult(score["correct"], score["attempted"], score["failed"], metrics, report)


def import_times(root: str, samples: int = 3) -> tuple[float, float]:
    """Median fresh ``import bosonic.cli`` seconds, and scipy's share of one
    import as reported by ``-X importtime``."""
    env = child_env(root)
    code = "import time; t = time.perf_counter(); import bosonic.cli; print(time.perf_counter() - t)"
    runs = [float(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                 env=env, check=True, timeout=CHILD_TIMEOUT_S).stdout)
            for _ in range(samples)]
    profile = subprocess.run([sys.executable, "-X", "importtime", "-c", "import bosonic.cli"],
                             capture_output=True, text=True, env=env, check=True,
                             timeout=CHILD_TIMEOUT_S).stderr
    scipy_rows = []
    for line in profile.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[2].strip().startswith("scipy"):
            continue
        with contextlib.suppress(ValueError):
            depth = len(parts[2]) - len(parts[2].lstrip())
            scipy_rows.append((depth, int(parts[1])))
    top = min((d for d, _ in scipy_rows), default=0)
    scipy_us = sum(us for d, us in scipy_rows if d == top)
    return statistics.median(runs), scipy_us / 1e6


# ------------------------------------------------------------ environment


def _openblas_threads():
    """Threads OpenBLAS will use, read from the library numpy loaded."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(root: str) -> dict:
    """Machine, versions and source identity; fails loudly if BLAS is unpinned."""
    unpinned = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                               "MKL_NUM_THREADS") if os.environ.get(k) != "1"}
    threads = _openblas_threads()
    if unpinned or (threads is not None and threads != 1):
        raise SystemExit(f"BLAS thread pin not in effect: env {unpinned}, OpenBLAS threads {threads}")
    blas = {}
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "bosonic", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    commit = "unavailable"  # a checkout that is not a git repository
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        # the ceiling keeps git from reading repositories above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.path.abspath(root)))
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10, env=env)
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "click": _version("click"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "openblas_threads": threads,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


# ---------------------------------------------------------------- goldens


def capture_goldens(root: str, path: str) -> None:
    """Record the CLI payloads and sweep CSV hashes of ``GOLDEN_SEED``."""
    goldens = {"seed": GOLDEN_SEED, "cli": [], "sweep": {}}
    for workload in (CliWorkload(GOLDEN_SEED, False, root), SweepWorkload(GOLDEN_SEED, False, root),
                     SweepWorkload(GOLDEN_SEED, True, root)):
        try:
            workload.setup()
            outs, _, _ = _pass(workload, workload.run_op)
        finally:
            workload.close()
        bad = [out.error for _, out in outs if out.error]
        if bad:
            raise SystemExit(f"cannot capture goldens, {workload.name} failed: {bad}")
        if isinstance(workload, CliWorkload):
            goldens["cli"] = [out.record for _, out in outs]
        else:
            for grid, (_, out) in zip(workload.grids, outs):
                goldens["sweep"][f"{grid.name}@{grid.rows}"] = out.record
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
