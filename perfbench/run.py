"""The bosonic benchmark: one command, four workloads, oracle-checked.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload td-small --seed 3 --seconds 20 --trace 0

The tree under test is imported from ``src/`` (or run as
``python -m bosonic.cli`` with ``PYTHONPATH=src``).  One client runs a
closed loop over whole passes of the seeded operation list until a pass ends
after ``--seconds``; outputs are checked against oracles after the timed
region.  Times are CPU seconds of the benchmark process and of the CLI
children it waits for, rescaled by a reference computation timed alongside
(``harness.Reference``).  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it is a JSON report: fail_frac with its
counts, the timings unscaled in CPU and in wall-clock seconds, sample counts,
the tail percentile, failures per family, the exact per-operation counts and
the pinned environment.

Workloads (see BENCHMARK.json for the reason behind each):
  cli       fresh-process CLI calls, one operation per call
  td-small  in-process certified trace distances, Fock dims ~20..300
  td-large  in-process certified trace distances, Fock dims ~500..1540
  sweep     fresh-process ``bosonic sweep`` runs, one operation per CSV row

``python3 perfbench/harness_check.py`` is the benchmark's own smoke test.
"""

import os
import time

_T0 = time.perf_counter()
# BLAS threads are pinned before numpy is first imported, here and in every
# child (they inherit this environment): on a 2-core machine an unpinned
# eigensolve is far slower and noisier (dim-401 eigvalsh: 0.037 s on 1
# thread, 1.06 s on 4).
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

WORKLOADS = ("cli", "td-small", "td-large", "sweep")
SETUP_PROBES = 3
HERE = os.path.dirname(os.path.abspath(__file__))


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the harness check")
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: set up once, print the set-up seconds, exit")
    parser.add_argument("--capture-goldens", action="store_true",
                        help="rewrite goldens.json from this tree (seed 0)")
    args = parser.parse_args(argv)
    if args.workload is None and not args.capture_goldens:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bosonic", "__init__.py")):
        print("error: run from the root of a bosonic checkout (src/bosonic is missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))

    import harness  # noqa: E402  (imports numpy: after the pin)

    if args.capture_goldens:
        harness.capture_goldens(root, os.path.join(HERE, "goldens.json"))
        return 0
    workload = harness.make_workload(args.workload, args.seed, args.smoke, root)
    if args.setup_probe:
        try:
            workload.setup()
            print(json.dumps({"setup_s": time.perf_counter() - _T0}))
        finally:
            workload.close()
        return 0

    imported_s = time.perf_counter() - _T0
    env_record = harness.environment(root)
    gauge = harness.Reference(in_process=False)  # set-up is mostly process start and imports
    probes = []
    for _ in range(0 if args.trace else SETUP_PROBES):
        probes.append(_probe_setup(args))
        gauge.samples.append(gauge.sample())
    try:
        t_setup = time.perf_counter()
        workload.setup()
        main_setup = imported_s + time.perf_counter() - t_setup
        if args.trace:
            result = harness.run_traced(workload, args.seconds)
        else:
            result = harness.run_timed(workload, args.seconds)
    finally:
        workload.close()

    report = result.report
    report["workload"] = args.workload
    report["seed"] = args.seed
    report["environment"] = env_record
    report["setup"] = {"probes_cpu_s": [cpu for cpu, _ in probes],
                       "probes_wall_s": [wall for _, wall in probes], "main_wall_s": main_setup,
                       "reference_cpu_s": gauge.samples}
    if not args.trace:
        slowdown = gauge.slowdown()
        report["setup"]["slowdown"] = slowdown
        result.metrics["setup_s"] = (statistics.median(cpu for cpu, _ in probes) / slowdown, "s")
        result.metrics["peak_rss_mb"] = (_peak_rss_mb(workload.in_process), "MB")
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0


def _probe_setup(args) -> tuple[float, float]:
    """Set-up of one fresh process -- interpreter start, imports, inputs and
    warm-up, its warm-up CLI child included -- in CPU seconds, and the wall
    seconds it reports from its first import to the end of set-up."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    before = _children_cpu_s()
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
    cpu = _children_cpu_s() - before
    return cpu, float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def _children_cpu_s() -> float:
    """CPU seconds of every child (and its children) waited for so far."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def _peak_rss_mb(in_process: bool) -> float:
    """Peak resident set of this process, or of the largest child process."""
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


if __name__ == "__main__":
    sys.exit(main())
