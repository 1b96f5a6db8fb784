"""Smoke test of the benchmark itself; run from the root of a checkout:

    python3 perfbench/harness_check.py

Runs every workload on tiny inputs, untraced and traced, and asserts that
every metric BENCHMARK.json and layers.json name is printed with its unit,
that every oracle passes outside the known-failing family, that the exact
counts repeat between two runs of one seed, and that the benchmark refuses
to run without the source tree.  Exits non-zero on the first failure.
"""

import contextlib
import fnmatch
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
#: the actively mixed family fails on the multi-mode Fock kernel today
KNOWN_FAILING = {"active/2", "active/3"}
EXACT_COUNTS = ("tail.bound_evals", "tail.cutoff_sum", "fock.elements", "tracedist.eig_work")


def run(workload: str, trace: int, seed: int = 0) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {done.returncode}: {done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def check_result(spec: dict, layers: dict, workload: str, trace: int) -> dict:
    report, result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units, f"{workload}: metrics/units {sorted(set(got) ^ set(units))} differ"
    for row in layers["table"] if trace else []:
        for pattern in row["layer_metrics"]:
            assert fnmatch.filter(got, pattern), f"{workload}: layer metric {pattern} missing"
    assert result["correct"], f"{workload}: oracle failures {report['check_errors']}"
    assert result["attempted"] >= 1
    unexpected = set(report["failed_by_family"]) - KNOWN_FAILING
    assert not unexpected, f"{workload}: failures outside the known family: {report['failed_by_family']}"
    if not trace:
        frac = report["fail_frac"]
        assert frac["unit"] == "ratio" and frac["attempted"] == result["attempted"]
        assert report["latency_samples"] >= 1 and 0 < report["op_tail_percentile"] <= 100
    print(f"ok  {workload:8s} trace={trace}  attempted={result['attempted']} "
          f"failed={result['failed']}", flush=True)
    return {"report": report, "result": result}


def check_determinism(workload: str) -> None:
    first, _ = run(workload, 0, seed=5)
    second, _ = run(workload, 0, seed=5)
    common = set(first["counts"]) & set(second["counts"])
    assert common and all(first["counts"][k] == second["counts"][k] for k in common), \
        f"{workload}: per-operation counts differ between two runs of one seed"
    _, traced_a = run(workload, 1, seed=5)
    _, traced_b = run(workload, 1, seed=5)
    for name, metric in traced_a["metrics"].items():
        if name.endswith(".calls") or name in EXACT_COUNTS:
            assert metric["value"] == traced_b["metrics"][name]["value"], f"{workload}: {name} moved"
    print(f"ok  {workload:8s} exact counts repeat", flush=True)


def check_refuses_without_source() -> None:
    base = os.path.join(ROOT, ".bench_work")
    os.makedirs(base, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=base)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=bare,
                              capture_output=True, text=True, timeout=180)
        assert done.returncode != 0, "ran without the source tree"
        assert '"metrics"' not in done.stdout, "printed a result without the source tree"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(base)
    print("ok  refuses to run without src/", flush=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
        layers = json.load(fh)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            check_result(spec, layers, workload, trace)
    check_determinism("td-small")
    check_refuses_without_source()
    return 0


if __name__ == "__main__":
    sys.exit(main())
