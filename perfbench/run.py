#!/usr/bin/env python3
"""The benchmark's one command.

    python3 perfbench/run.py --workload vl-bow-train --seed 0 --seconds 30 --trace 0

Generates the workload's seeded inputs in one process, runs the workload in
a second, fresh process (one at a time, BLAS capped at min(nproc, 2)
threads), and prints a report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
with ``--trace 1`` the per-layer ones.  Inputs are generated under
``.perfbench_runs/`` in the checkout and deleted afterwards; the result of
each run, spans included, stays there as JSON.  Run it from a checkout that
has ``src/imageqa``; without one it exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
DEADLINE_S = 170.0  # the whole command, generator and workload included


def fail(message: str, code: int = 1) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in declared["workloads"]}:
        return fail(f"unknown workload '{args.workload}'", 2)
    package = ROOT / "src" / "imageqa"
    if not (package / "__init__.py").is_file():
        return fail(f"no package at {package}; run from a checkout of the repository", 2)

    # a terminated benchmark ends its children too: SystemExit unwinds
    # through subprocess.run, which kills and waits for the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = RUNS / name
    inputs = work / "inputs"
    result_path = RUNS / f"{name}.json"
    threads = str(min(len(os.sched_getaffinity(0)), 2))
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
        TMPDIR=str(work),
    )
    common = ["--workload", args.workload]
    try:
        inputs.mkdir(parents=True, exist_ok=True)
        for script, extra in (
            ("generate.py", ["--seed", str(args.seed), "--out", str(inputs)]),
            ("workload.py", ["--inputs", str(inputs), "--seconds", str(args.seconds),
                             "--trace", str(args.trace), "--result", str(result_path)]),
        ):
            left = DEADLINE_S - (time.monotonic() - started)
            done = subprocess.run(
                [sys.executable, str(HERE / script), *common, *extra],
                env=env, cwd=ROOT, timeout=max(left, 1.0), stdout=sys.stderr,
            )
            if done.returncode != 0:
                return fail(f"{script} exited with status {done.returncode}")
    except subprocess.TimeoutExpired:
        return fail(f"over the {DEADLINE_S:.0f} s deadline")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = json.loads(result_path.read_text(encoding="utf-8"))
    if Path(result["package"]) != package.resolve():
        return fail(f"measured {result['package']} instead of {package}")
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in result["values"]]
    if missing:
        return fail(f"no value for {', '.join(missing)}")

    env_rec = result["environment"]
    failures = result["failures"]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={result['rounds']} measured_s={result['measured_s']:.2f}")
    print(" ".join(f"{k}={v}" for k, v in env_rec.items()))
    print(f"checks attempted={result['attempted']} failed={len(failures)}")
    for what in failures:
        print(f"  FAILED {what}")
    print(f"epoch losses {result['losses']}")
    for m in wanted:
        n = result["samples"].get(m["name"], result["samples"].get("rounds"))
        print(f"{m['name']:<40} {result['values'][m['name']]:>16.6g} {m['unit']:<6} "
              f"{m['better']} is better, samples {n}")
    print(json.dumps({
        "correct": not failures,
        "attempted": result["attempted"],
        "failed": len(failures),
        "metrics": {
            m["name"]: {"value": result["values"][m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
