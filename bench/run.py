"""Benchmark of the barrierwaves CLI: end-to-end metrics and a traced per-module split.

Run from the repository root.

    python3 bench/run.py                      # every workload, untraced and traced
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--workload`` it runs one workload once and prints, as the last
line of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-module metrics with ``--trace 1``.  Without it, it
runs every workload both ways and prints every metric by name and unit.

The workload runs in a child process (``worker.py``) with
``OPENBLAS_NUM_THREADS=1`` and ``OMP_NUM_THREADS=1``; it also measures
set-up time, the import of ``barrierwaves.cli`` in fresh interpreters.
Everything the run writes goes under ``.bench_out/`` in the working
directory: a JSON record per run (environment, metrics, details) and, for
traced runs, the spans.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"
SOURCE = os.path.join("src", "barrierwaves", "cli.py")
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
WORKER_TIMEOUT_S = 170.0


def load_spec() -> dict:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ, **PINNED)
    path = [os.path.abspath("src"), HERE]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "unknown"
    try:
        # the ceiling keeps git from reporting an enclosing repository
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd())))
        if out.returncode == 0:
            sha = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {"git_sha": sha, "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "cpu_model": model}


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; returns the record written under .bench_out/."""
    env = child_env()
    scratch = os.path.join(OUT_DIR, f"run-{os.getpid()}-{workload}-{seed}-{trace}")
    os.makedirs(scratch, exist_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
             "--outdir", scratch],
            env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with status {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    units = {m["name"]: m["unit"] for m in load_spec()["end_to_end" if not trace else "per_layer"]}
    metrics = {name: {"value": out["metrics"][name], "unit": units[name]}
               for name in units if name in out["metrics"]}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": out["failed"] == 0, "attempted": out["attempted"], "failed": out["failed"],
        "metrics": metrics, "details": out["details"],
        "env": {**machine(), **out["env"]},
    }
    stem = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if trace:
        with open(stem + ".spans.jsonl", "w", encoding="utf-8") as fh:
            fh.write("# thread, request, name, start, end, parent index\n")
            for span in out["spans"]:
                fh.write(json.dumps(span) + "\n")
    return record


def result_line(record: dict) -> str:
    return json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")})


def print_table(record: dict) -> None:
    head = (f"[{record['workload']} seed={record['seed']} trace={record['trace']}] "
            f"attempted={record['attempted']} failed={record['failed']}")
    print(head)
    for name, m in record["metrics"].items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    d = record["details"]
    if not record["trace"]:
        print(f"  {'failed_fraction':<48} {d['failed_fraction']:>14.6g} 1")
        print(f"  (tail = p{d['latency_tail_percentile']:.0f} of {d['latency_samples']} requests)")
    else:
        split = sorted(d["self_s_total"].items(), key=lambda kv: -kv[1])
        wall = d["traced_busy_s"]
        print("  self-time split of the traced pass: " + ", ".join(
            f"{name} {100 * s / wall:.0f}%" for name, s in split if s >= 0.01 * wall))
        if d["missing_targets"]:
            print(f"  absent wrap targets: {', '.join(d['missing_targets'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload; default: all of them")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(SOURCE):
        print(f"no {SOURCE} here: run from the root of a barrierwaves checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
        record = run_one(args.workload, args.seed, seconds, args.trace)
        print_table(record)
        print(result_line(record))
        return 0
    summary = {}
    for name in names:
        for trace in (0, 1):
            record = run_one(name, args.seed, seconds, trace)
            print_table(record)
            summary[f"{name}/trace{trace}"] = json.loads(result_line(record))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
