"""Tests of the benchmark itself: run with ``python3 -m pytest bench -q``.

Every workload runs at its tiny size with all gates passing, every gate
kind fails on a deliberately corrupted input, the tracer leaves nothing
installed, and the driver's output follows BENCHMARK.json.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
try:
    import chainqed  # noqa: F401
except ImportError:
    sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from chainqed import dynamics, hamiltonian, hilbert, meanfield, runner  # noqa: E402
from tracer import Tracer  # noqa: E402

SEED = 3


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """One tiny solve per workload: (workload, model, output)."""
    out = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(SEED, tiny=True)
        model = wl.setup()
        out[name] = (wl, model, wl.solve(model, tmp_path_factory.mktemp(name)))
    return out


def failing(wl, model, out) -> set[str]:
    gates, _ = wl.gates(model, out)
    return {g.name.split("@")[0] for g in gates if not g.passed}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_workload_passes_every_gate(solved, name):
    wl, model, out = solved[name]
    gates, values = wl.gates(model, out)
    assert gates
    assert [(g.name, g.value) for g in gates if not g.passed] == []
    assert all(v == v for v in values.values())  # no NaN


def _bump(traj, record, k, delta):
    traj.records[record] = traj.records[record].copy()
    traj.records[record][k] += delta


CORRUPTIONS = [
    # (workload, description, mutate(wl, out), gate that must fail)
    ("compare-static", "exact sample", lambda wl, o: _bump(o.exact, "sigma_z_0", wl.idx[0], 1e-3), "exact.ref"),
    ("compare-static", "norm", lambda wl, o: _bump(o.exact, "norm", 3, 1e-4), "exact.norm_drift"),
    ("compare-static", "energy", lambda wl, o: _bump(o.exact, "energy", 3, 1e-3), "exact.energy_drift"),
    ("compare-static", "mean-field sample", lambda wl, o: _bump(o.mf, "a_0", wl.idx[1], 1e-3), "meanfield.ref"),
    ("compare-static", "bloch length", lambda wl, o: _bump(o.mf, "sigma_z_0", 2, 1e-4), "meanfield.bloch_drift"),
    ("compare-static", "round trip", lambda wl, o: o.roundtrip.update({"exact.csv": False}), "roundtrip.exact.csv"),
    ("compare-driven", "stored exact sample", lambda wl, o: _bump(o.exact, "n_0", 100, 1e-3), "exact.ref"),
    ("compare-driven", "stored mean-field sample", lambda wl, o: _bump(o.mf, "sigma_minus_1", 200, 1e-3j),
     "meanfield.ref"),
    ("compare-driven", "norm", lambda wl, o: _bump(o.exact, "norm", 7, -1e-4), "exact.norm_drift"),
    ("compare-driven", "bloch length", lambda wl, o: _bump(o.mf, "sigma_minus_0", 9, 1e-4), "meanfield.bloch_drift"),
    ("model-large", "eom residual", lambda wl, o: o.residuals.__setitem__(0, (1e-9, 0.0, 1.0)), "draw0.eom_residual"),
    ("model-large", "compact residual", lambda wl, o: o.residuals.__setitem__(0, (0.0, 1e-8, 1.0)),
     "draw0.compact_residual"),
    ("model-large", "negative control", lambda wl, o: o.residuals.__setitem__(0, (0.0, 0.0, 1e-5)),
     "draw0.negative_control"),
    ("model-large", "exact sample", lambda wl, o: _bump(o.exact, "b_0", wl.idx[-1], 1e-3), "exact.ref"),
    ("model-large", "energy", lambda wl, o: _bump(o.exact, "energy", 1, 1e-3), "exact.energy_drift"),
    ("model-large", "leakage", lambda wl, o: _bump(o.exact, "top_field_0", 4, 1e-3), "exact.leakage"),
    ("mf-chain", "mean-field sample", lambda wl, o: _bump(o.mf, "sigma_minus_5", wl.idx[2], 1e-3), "meanfield.ref"),
    ("mf-chain", "bloch length", lambda wl, o: _bump(o.mf, "sigma_z_7", 4, 1e-4), "meanfield.bloch_drift"),
]


@pytest.mark.parametrize("name,what,mutate,gate", CORRUPTIONS, ids=[f"{c[0]}:{c[1]}" for c in CORRUPTIONS])
def test_gate_fails_on_corrupted_output(solved, name, what, mutate, gate):
    wl, model, out = solved[name]
    assert gate not in failing(wl, model, out)
    bad = copy.deepcopy(out)
    mutate(wl, bad)
    assert gate in failing(wl, model, bad)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_roundtrip_detects_a_flipped_value(solved, tmp_path, fmt):
    _, _, out = solved["compare-static"]
    assert workloads.export_and_check({"t": out.exact}, tmp_path) == {"t.csv": True, "t.json": True}
    path = tmp_path / f"t.{fmt}"
    text = path.read_text()
    value = repr(float(out.exact.records["sigma_z_0"][5]))
    assert value in text
    path.write_text(text.replace(value, repr(float(value) + 1e-15), 1))
    assert not workloads.roundtrip_equal(out.exact, path)
    assert not workloads.roundtrip_gates({"t": False})[0].passed


def test_tracer_restores_every_name_and_nests_spans(solved, tmp_path):
    originals = [dynamics.solve_ivp, meanfield.solve_ivp, dynamics.propagate, runner.export_trajectory,
                 hilbert.Operator.__matmul__, hamiltonian.TotalHamiltonian.apply, hamiltonian.OperatorCache.__init__]
    wl, _, _ = solved["compare-driven"]
    tracer = Tracer()
    tracer.install()
    try:
        model = wl.setup()
        wl.solve(model, tmp_path)
    finally:
        tracer.uninstall()
    assert [dynamics.solve_ivp, meanfield.solve_ivp, dynamics.propagate, runner.export_trajectory,
            hilbert.Operator.__matmul__, hamiltonian.TotalHamiltonian.apply,
            hamiltonian.OperatorCache.__init__] == originals
    agg = tracer.summarize()
    count, inclusive, own = agg["dynamics.integrate"]
    assert count == 1 and 0.0 < own < inclusive
    assert agg["dynamics.rhs"][0] == agg["hamiltonian.apply"][0] > 0
    assert agg["hamiltonian.at"][0] == model.cfg.integrate["n_out"]
    assert all(s[3] < i for i, s in enumerate(tracer.spans))  # parents precede children
    tracer.write(tmp_path / "spans.npz")
    assert (tmp_path / "spans.npz").stat().st_size > 0


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_worker_output_follows_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec[section]]
    first = run.run_worker("mf-chain", SEED, 1, trace, timeout=150, tiny=True)
    line = run.summary_line([(first, names, section)])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == names
    units = {m["name"]: m["unit"] for m in spec[section]}
    assert all(line["metrics"][n]["unit"] == units[n] for n in names)
    if trace:
        second = run.run_worker("mf-chain", SEED, 1, trace, timeout=150, tiny=True)
        counts = [n for n in names if units[n] in ("count", "B")]
        assert [first[section][n] for n in counts] == [second[section][n] for n in counts]


def test_driver_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mf-chain", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
