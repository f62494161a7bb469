"""Benchmark of milvad: every workload in its own child process.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --record-references

Untraced (`--trace 0`), each workload reports the end-to-end metrics
named in BENCHMARK.json. Traced (`--trace 1`), the workload runs once
untraced and once with span wrappers installed, and reports the per-layer
metrics plus the tracing overhead (traced minus untraced end-to-end
values). Every metric is printed by name with its unit; the last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`. Full results, the environment and (traced) the spans are
written under `.bench_results/`. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = ROOT / ".bench_results"
WORKLOADS = ("desk-staged", "paper-joint", "paper-eval")
SIZES = ("full", "tiny")
WORKLOAD_TIMEOUT_S = 170   # for all children of one workload together


# One BLAS thread per child: single-threaded kernel times repeat from
# process to process far better than two-thread ones (see README.md).
BLAS_THREADS = "1"


def run_child(workload: str, seed: int, seconds: float, trace: int, size: str,
              deadline: float, record: bool = False) -> dict:
    RESULTS.mkdir(exist_ok=True)
    stem = "reference" if record else f"seed{seed}-trace{trace}"
    out = RESULTS / f"{workload}-{size}-{stem}.json"
    out.unlink(missing_ok=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(BENCH / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--size", size, "--out", str(out)]
    if record:
        cmd.append("--record")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{workload}: no result within {WORKLOAD_TIMEOUT_S} s")
    finally:
        work = ROOT / ".bench_work"
        if work.is_dir() and not any(work.iterdir()):
            work.rmdir()
    if proc.returncode != 0 or not out.is_file():
        raise SystemExit(f"{workload}: child exited with code {proc.returncode}")
    return json.loads(out.read_text())


def declared_metrics() -> dict:
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}} from BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in doc[key]} for key in ("end_to_end", "per_layer")}


def measure(workload: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    """One workload's result: end-to-end metrics, or per-layer ones when traced."""
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    plain = run_child(workload, seed, seconds, 0, size, deadline)
    results = [plain]
    metrics = plain["metrics"]
    if trace:
        traced = run_child(workload, seed, seconds, 1, size, deadline)
        results.append(traced)
        metrics = dict(traced["layers"])
        for name, entry in plain["metrics"].items():
            metrics[f"overhead.{name}"] = {
                "value": traced["metrics"][name]["value"] - entry["value"],
                "unit": entry["unit"],
            }
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
        "children": results,
    }


def check_declared(result: dict, trace: int) -> None:
    expected = declared_metrics()["per_layer" if trace else "end_to_end"]
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        raise SystemExit(f"metrics differ from BENCHMARK.json: missing {missing}, "
                         f"undeclared {extra}, unit mismatch {units}")


def report(name: str, result: dict) -> None:
    plain = result["children"][0]
    env = plain["environment"]
    print(f"== {name}  seed={plain['seed']}  seconds={plain['seconds']}  "
          f"correct={result['correct']}  attempted={result['attempted']}  "
          f"failed={result['failed']}")
    print("   env: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    samples = plain["samples"]
    print("   samples: " + "  ".join(f"{k}={v}" for k, v in samples.items()))
    print(f"   test_auc (checked against the reference): {plain['test_auc']:.6f}")
    for failure in (f for r in result["children"] for f in r["failures"]):
        print(f"   FAILED {failure}")
    for metric, entry in result["metrics"].items():
        print(f"   {metric:36s} {entry['value']:14.6g} {entry['unit']}")


def record_references() -> None:
    refs = {w: {size: run_child(w, 0, 0, 0, size, time.monotonic() + WORKLOAD_TIMEOUT_S,
                                record=True)
                for size in SIZES}
            for w in WORKLOADS}
    (BENCH / "references.json").write_text(json.dumps(refs, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="tiny shrinks every extent; for the benchmark's own tests")
    parser.add_argument("--record-references", action="store_true",
                        help="re-record references.json from this commit's outputs")
    args = parser.parse_args(argv)
    # turn SIGTERM into an exception, so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "milvad").is_dir():
        raise SystemExit(f"no milvad sources under {ROOT / 'src'}")
    if args.record_references:
        record_references()
        return 0
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = measure(name, args.seed, args.seconds, args.trace, args.size)
        check_declared(results[name], args.trace)
        report(name, results[name])
    if len(names) == 1:
        final = results[names[0]]
        metrics = final["metrics"]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values())}
        metrics = {f"{name}.{metric}": entry for name, r in results.items()
                   for metric, entry in r["metrics"].items()}
    print(json.dumps({"correct": final["correct"], "attempted": final["attempted"],
                      "failed": final["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
