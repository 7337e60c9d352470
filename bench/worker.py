"""Run one workload in this process and print its measurements as JSON.

Started by ``run.py`` with BLAS threads pinned and ``src`` on the path;
run it directly only for debugging:

    PYTHONPATH=src python3 bench/worker.py --workload mf-chain --seed 1 --seconds 10 --trace 0

The run spends its ``--seconds`` budget as follows.  After one cold
set-up, solves repeat on that model while the next one is expected to end
within the budget, at least once; ``solve_s`` is their median.  A batch of
set-ups runs before every solve and after the last one, so that the set-up
samples span the same stretch of time as the solves and slow drifts of the
machine's speed reach both alike; ``setup_s`` is the median of all of them.
With ``--trace 1`` half of the budget runs untraced, and the other half runs
traced set-up + solve units, whose per-layer figures are medians over the
units.  Peak RSS is read before the gates run, so the references' dense
matrices do not count.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
OUT_ROOT = HERE / ".out"


def environment(seed: int, import_s: float) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
        "import_s": import_s,
    }


def setup_batch(wl, budget: float, max_reps: int = 500) -> list[float]:
    times: list[float] = []
    start = perf_counter()
    while len(times) < 3 or (perf_counter() - start < budget and len(times) < max_reps):
        t0 = perf_counter()
        wl.setup()
        times.append(perf_counter() - t0)
    return times


def timed_solves(wl, model, out_dir: Path, budget: float) -> tuple[object, list[float], list[float]]:
    """Set-up batches and solves, alternating, while the next solve should end within the budget."""
    batch_s = min(0.3, budget / 40.0)
    solves: list[float] = []
    setups: list[float] = []
    start = perf_counter()
    while True:
        setups += setup_batch(wl, batch_s)
        gc.collect()
        t0 = perf_counter()
        out = wl.solve(model, out_dir)
        solves.append(perf_counter() - t0)
        if perf_counter() - start + statistics.median(solves) + batch_s > budget:
            setups += setup_batch(wl, batch_s)
            return out, solves, setups


def layer_metrics(agg: dict, counters: dict, sizes: dict, setup_s: float, solve_s: float) -> dict:
    """Per-layer figures of one traced set-up + solve unit, keyed by metric name."""

    def cnt(name):
        return agg.get(name, (0, 0.0, 0.0))[0]

    def inc(name):
        return agg.get(name, (0, 0.0, 0.0))[1]

    m = {
        "runner.config_s": (inc("runner.config"), "s"),
        "runner.initial_state_s": (inc("runner.initial_state"), "s"),
        "runner.export_csv_s": (inc("runner.export_csv"), "s"),
        "runner.export_json_s": (inc("runner.export_json"), "s"),
        "runner.export_bytes": (counters.get("runner.export_bytes", 0.0), "B"),
        "runner.import_s": (inc("runner.import"), "s"),
        "hilbert.dim": (sizes["hilbert.dim"], "count"),
        "hilbert.matmul_calls": (cnt("hilbert.matmul"), "count"),
        "transition_ops.cross_s": (inc("transition_ops.cross"), "s"),
        "hamiltonian.cache_s": (inc("hamiltonian.cache"), "s"),
        "hamiltonian.cache_builds": (cnt("hamiltonian.cache"), "count"),
        "hamiltonian.cache_bytes": (counters.get("hamiltonian.cache_bytes", 0.0), "B"),
        "hamiltonian.total_s": (inc("hamiltonian.total"), "s"),
        "hamiltonian.h_nnz": (sizes["hamiltonian.h_nnz"], "count"),
        "hamiltonian.apply_calls": (cnt("hamiltonian.apply"), "count"),
        "hamiltonian.apply_s": (inc("hamiltonian.apply"), "s"),
        "hamiltonian.at_calls": (cnt("hamiltonian.at"), "count"),
        "hamiltonian.at_s": (inc("hamiltonian.at"), "s"),
        "trace.setup_s": (setup_s, "s"),
        "trace.solve_s": (solve_s, "s"),
    }
    ode = {"integrate": 0.0, "rhs": 0.0, "record": 0.0}
    for mod in ("dynamics", "meanfield"):
        integrate, rhs, calls = inc(f"{mod}.integrate"), inc(f"{mod}.rhs"), cnt(f"{mod}.rhs")
        record = inc(f"{mod}.propagate") - integrate
        m[f"{mod}.integrate_s"] = (integrate, "s")
        m[f"{mod}.rhs_calls"] = (calls, "count")
        m[f"{mod}.rhs_s"] = (rhs, "s")
        m[f"{mod}.rhs_us"] = (1e6 * rhs / calls if calls else 0.0, "us")
        m[f"{mod}.stepper_s"] = (integrate - rhs, "s")
        m[f"{mod}.record_s"] = (record, "s")
        ode["integrate"] += integrate
        ode["rhs"] += rhs
        ode["record"] += record
    m["dynamics.verify_eom_s"] = (inc("dynamics.verify_eom"), "s")
    m["dynamics.verify_compact_s"] = (inc("dynamics.verify_compact"), "s")
    m["ode.integrate_s"] = (ode["integrate"], "s")
    m["ode.rhs_s"] = (ode["rhs"], "s")
    m["ode.stepper_s"] = (ode["integrate"] - ode["rhs"], "s")
    m["ode.record_s"] = (ode["record"], "s")
    return m


def traced_units(wl, out_dir: Path, budget: float):
    """Traced set-up + solve units; per-layer medians, raw spans written at the end."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    units, solves, unit_s = [], [], []
    start = perf_counter()
    try:
        while True:
            lo = len(tracer.spans)
            tracer.counters.clear()
            gc.collect()
            t0 = perf_counter()
            model = wl.setup()
            t1 = perf_counter()
            out = wl.solve(model, out_dir)
            t2 = perf_counter()
            solves.append(t2 - t1)
            units.append(layer_metrics(tracer.summarize(lo), dict(tracer.counters), wl.sizes(model), t1 - t0, t2 - t1))
            unit_s.append(perf_counter() - t0)
            if perf_counter() - start + statistics.median(unit_s) > budget:
                break
    finally:
        tracer.uninstall()
    tracer.write(OUT_ROOT / f"spans-{wl.name}.npz")
    metrics = {}
    for name, (_, unit) in units[0].items():
        value = statistics.median(u[name][0] for u in units)
        metrics[name] = (int(value) if unit in ("count", "B") else value, unit)
    return model, out, metrics, solves


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink the workload (for the benchmark's tests)")
    args = parser.parse_args(argv)

    t0 = perf_counter()
    import chainqed  # noqa: F401  (timed: package import is reported as context)
    import_s = perf_counter() - t0
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    out_dir = OUT_ROOT / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": environment(args.seed, import_s)}
    try:
        start = perf_counter()
        model = wl.setup()
        cold = perf_counter() - start
        if args.trace == 0:
            out, solves, setups = timed_solves(wl, model, out_dir, args.seconds - cold)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            _, solves, setups = timed_solves(wl, model, out_dir, args.seconds / 2.0)
            model, out, layers, traced = traced_units(wl, out_dir, args.seconds - (perf_counter() - start))
            layers["trace.overhead_s"] = (statistics.median(traced) - statistics.median(solves), "s")
            result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
            result["traced_solve_s"] = traced
        gates, values = wl.gates(model, out)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    failed = sum(not g.passed for g in gates)
    result["gates"] = [vars(g) for g in gates]
    result["values"] = values
    result["setup_first_s"] = cold
    result["setup_samples"] = setups
    result["solve_samples"] = solves
    result["end_to_end"] = {
        "solve_s": {"value": statistics.median(solves), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "ops_failed_frac": {"value": failed / len(gates), "unit": "1"},
    }
    if args.trace == 0:
        result["end_to_end"]["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    if args.trace == 1:
        for name in ("dynamics.norm_drift", "dynamics.max_top_pop", "dynamics.ref_dev",
                     "meanfield.bloch_drift", "meanfield.closure_gap"):
            result["per_layer"][name] = {"value": values.get(name, 0.0), "unit": "1"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
