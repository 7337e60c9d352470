"""chainqed benchmark driver.

Runs each requested workload in its own worker process, in sequence, with
BLAS threads pinned to min(nproc, 2), a fixed hash seed and ``src`` on the
path, then prints a readable report followed by one JSON line:

    python3 bench/run.py --workload compare-static --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

With ``--trace 0`` the JSON line carries the end-to-end metrics listed in
BENCHMARK.json, with ``--trace 1`` its per-layer metrics.  ``--workload all``
runs every workload untraced and traced and prints every metric, end to end
and per layer, with each name prefixed by its workload.  The exit code is
non-zero, and no JSON line is printed, when a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("compare-static", "compare-driven", "model-large", "mf-chain")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    threads = str(min(len(os.sched_getaffinity(0)), 2))
    env.update({var: threads for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"  # same dict and set layout in every worker
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_worker(workload: str, seed: int, seconds: float, trace: int, timeout: float, tiny: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + (["--tiny"] if tiny else [])
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout, text=True)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{workload}: worker exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def declared_metrics() -> tuple[list[str], list[str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]]


def report(res: dict) -> None:
    env = res["env"]
    print(f"== {res['workload']}  seed {res['seed']}  trace {res['trace']}")
    print(f"   python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  blas {env['blas']}  "
          f"nproc {env['nproc']}  threads {env['threads']}  import {env['import_s']:.3f} s (context)")
    print(f"   set-up: cold {res['setup_first_s']:.4g} s, {len(res['setup_samples'])} repeats; "
          f"solves: {len(res['solve_samples'])} " + " ".join(f"{t:.3f}" for t in res["solve_samples"]))
    for name, m in res["end_to_end"].items():
        print(f"   {name:<28} {m['value']:<14.6g} {m['unit']}")
    for name, m in res.get("per_layer", {}).items():
        print(f"   {name:<28} {m['value']:<14.6g} {m['unit']}")
    for gate in res["gates"]:
        status = "PASS" if gate["passed"] else "FAIL"
        print(f"   {status} {gate['name']}: {gate['value']:.3e} {gate['relation']} {gate['limit']:.1e}")


def summary_line(results: list[tuple[dict, list[str], str]]) -> dict:
    """The final JSON object; names get a workload prefix when several ran."""
    prefix = len(results) > 1
    metrics, attempted, failed = {}, 0, 0
    for res, names, section in results:
        attempted += len(res["gates"])
        failed += sum(not g["passed"] for g in res["gates"])
        for name in names:
            key = f"{res['workload']}.{name}" if prefix else name
            metrics[key] = res[section][name]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="chainqed benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "chainqed" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no chainqed sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    e2e, per_layer = declared_metrics()
    if args.workload == "all":
        jobs = [(w, t) for w in WORKLOADS for t in (0, 1)]
    else:
        jobs = [(args.workload, args.trace)]
    start = perf_counter()
    results = []
    try:
        for workload, trace in jobs:
            timeout = DEADLINE_S - (perf_counter() - start) if args.workload != "all" else DEADLINE_S
            res = run_worker(workload, args.seed, args.seconds, trace, timeout)
            report(res)
            results.append((res, per_layer if trace else e2e, "per_layer" if trace else "end_to_end"))
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary_line(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
