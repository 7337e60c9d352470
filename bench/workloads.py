"""The four benchmark workloads and their correctness gates.

Each workload draws its inputs from the seed in ``__init__`` and then
exposes three steps:

* ``setup()``: model set-up, timed as ``setup_s``;
* ``solve(model, out_dir)``: integration or verification, recording,
  export and the re-import check, timed as ``solve_s``;
* ``gates(model, out)``: correctness gates against references that do not
  come from the timed path, evaluated outside the timed region.

Every call into chainqed goes through a module attribute
(``dynamics.propagate``, ``runner.export_trajectory``, ...), so the traced
run can wrap those names from outside the package.  ``tiny=True`` shrinks
every workload to a size the benchmark's tests run in seconds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from chainqed import dynamics, hamiltonian, meanfield, runner
from chainqed.hamiltonian import FieldMode, PhononMode, SystemParams

import reference

HERE = Path(__file__).resolve().parent
DRIVEN_REFERENCE = HERE / "compare_driven_ref.json"

# Gate limits.  The exact and mean-field references are independent of the
# timed path; 1e-6 sits far above the integrators' accumulated error at
# tol 1e-10 (measured 1e-9 .. 1e-8) and far below any modelling defect.
REF_TOL = 1e-6
NORM_DRIFT_TOL = 1e-6
ENERGY_DRIFT_TOL = 1e-6
BLOCH_DRIFT_TOL = 1e-8
LEAKAGE_TOL = 1e-6
EOM_TOL = 1e-11
COMPACT_TOL = 1e-10
CONTROL_FLOOR = 1e-3
N_CHECKPOINTS = 4


@dataclass
class Gate:
    name: str
    value: float
    relation: str
    limit: float
    passed: bool


def below(name: str, value: float, limit: float) -> Gate:
    return Gate(name, float(value), "<=", limit, bool(value <= limit))


def above(name: str, value: float, floor: float) -> Gate:
    return Gate(name, float(value), ">", floor, bool(value > floor))


# -- shared checks ----------------------------------------------------------------


def roundtrip_equal(traj, path: Path) -> bool:
    """Re-import an exported file and require bit-identical times and records."""
    back = runner.import_trajectory(path)
    if set(back.records) != set(traj.records) or not np.array_equal(back.times, traj.times):
        return False
    return all(np.array_equal(back.records[k], traj.records[k]) for k in traj.records)


def export_and_check(trajs: dict, out_dir: Path) -> dict[str, bool]:
    paths = {}
    for label, traj in trajs.items():
        for fmt in ("csv", "json"):
            paths[f"{label}.{fmt}"] = (traj, runner.export_trajectory(traj, fmt, out_dir / f"{label}.{fmt}"))
    return {key: roundtrip_equal(traj, path) for key, (traj, path) in paths.items()}


def roundtrip_gates(flags: dict[str, bool]) -> list[Gate]:
    return [below(f"roundtrip.{key}", 0.0 if ok else 1.0, 0.0) for key, ok in sorted(flags.items())]


def checkpoints(rng: np.random.Generator, n_out: int) -> np.ndarray:
    """Seeded output indices to check, always including the last one."""
    picks = rng.choice(np.arange(1, n_out - 1), size=N_CHECKPOINTS - 1, replace=False)
    return np.sort(np.append(picks, n_out - 1))


def reference_gates(prefix: str, traj, ref: dict, idx, times=None) -> tuple[list[Gate], float]:
    """One gate per checkpoint: max deviation over every referenced record (and time)."""
    gates, worst = [], 0.0
    for i, k in enumerate(idx):
        dev = max(abs(traj.records[name][k] - np.asarray(vals)[i]) for name, vals in ref.items())
        if times is not None:
            dev = max(dev, abs(traj.times[k] - times[i]))
        worst = max(worst, float(dev))
        gates.append(below(f"{prefix}.ref@t={traj.times[k]:.4g}", dev, REF_TOL))
    return gates, worst


def norm_drift(traj) -> float:
    return float(np.max(np.abs(traj.records["norm"] - 1.0)))


def energy_drift(traj, e0: float) -> float:
    return float(np.max(np.abs(traj.records["energy"] - e0)) / max(1.0, abs(e0)))


def bloch_drift(traj) -> float:
    """Drift of the per-site invariant s_z^2 + 4 |s-|^2, from the recorded amplitudes."""
    drift = 0.0
    for name in traj.records:
        if name.startswith("sigma_z_"):
            l = name.rsplit("_", 1)[1]
            length = traj.records[name] ** 2 + 4.0 * np.abs(traj.records[f"sigma_minus_{l}"]) ** 2
            drift = max(drift, float(np.max(np.abs(length - length[0]))))
    return drift


def max_top_population(traj) -> float:
    tops = [np.max(v) for k, v in traj.records.items() if k.startswith(("top_field_", "top_phonon_"))]
    return float(max(tops)) if tops else 0.0


def closure_gap(exact, mf) -> float:
    """Max inversion gap |s_z exact - s_z mean field| / 2 over the first third of the run."""
    window = exact.times <= exact.times[-1] / 3.0
    return max(
        float(np.max(np.abs(exact.records[k] - mf.records[k])[window])) / 2.0
        for k in exact.records if k.startswith("sigma_z_")
    )


def _exact_reference(model, cfg_raw, idx, times) -> tuple[dict, float]:
    """Dense-eigendecomposition observables at the checkpoints, and <H> at t = 0."""
    params = model.cfg.params
    space_raw = cfg_raw["space"]
    field_cut = [m["cutoff"] for m in space_raw.get("field_modes", [])]
    phonon_cut = [m["cutoff"] for m in space_raw.get("phonon_modes", [])]
    dense = reference.DenseModel(params, field_cut, phonon_cut)
    init = cfg_raw["initial"]
    locals_ = [reference.site_state(s["kind"], s.get("theta", 0.0), s.get("phi", 0.0)) for s in init["sites"]]
    for st, c in zip(init.get("field_modes", []), field_cut):
        locals_.append(reference.coherent_state(complex(*st["alpha"]), c))
    for st, c in zip(init.get("phonon_modes", []), phonon_cut):
        locals_.append(reference.coherent_state(0.0, c))
    psi0 = dense.product_state(locals_)
    ref = dense.expectations(psi0, np.concatenate([[0.0], times[idx]]))
    e0 = float(ref["energy"][0].real)
    return {k: v[1:] for k, v in ref.items()}, e0


# -- exact workloads built from a run config ---------------------------------------------


class _ConfigWorkload:
    """Set-up shared by the workloads that start from a run config."""

    raw: dict

    def setup(self):
        cfg = runner.config_from_dict(self.raw)
        space = cfg.build_space()
        cache = hamiltonian.OperatorCache(space)
        ham = hamiltonian.TotalHamiltonian(space, cfg.params, cache)
        psi0 = runner.initial_state(cfg, space)
        mf0 = runner.initial_mean_field(cfg) if self.with_meanfield else None
        return SimpleNamespace(cfg=cfg, space=space, cache=cache, ham=ham, psi0=psi0, mf0=mf0)

    def sizes(self, model) -> dict:
        return {"hilbert.dim": model.space.dim, "hamiltonian.h_nnz": model.ham.static.matrix.nnz}

    def integrate(self, model, tol: float):
        integ = model.cfg.integrate
        exact = dynamics.propagate(
            model.space, model.cfg.params, model.psi0, integ["t_end"],
            tol=tol, n_out=integ["n_out"], hamiltonian=model.ham,
        )
        mf = None
        if self.with_meanfield:
            mf = meanfield.mf_propagate(model.mf0, model.cfg.params, integ["t_end"], tol=tol, n_out=integ["n_out"])
        return exact, mf


def _config(space: dict, params: dict, initial: dict, t_end: float, n_out: int, seed: int) -> dict:
    return {
        "task": "compare",
        "seed": seed,
        "space": space,
        "params": params,
        "initial": initial,
        "integrate": {"tol": 1e-10, "t_end": t_end, "n_out": n_out},
        "output": {"formats": ["csv", "json"]},
    }


class _Compare(_ConfigWorkload):
    """The compare task: exact and mean-field runs of one config, exported and re-imported."""

    with_meanfield = True

    def solve(self, model, out_dir: Path):
        exact, mf = self.integrate(model, model.cfg.integrate["tol"])
        return SimpleNamespace(exact=exact, mf=mf, roundtrip=export_and_check({"exact": exact, "meanfield": mf}, out_dir))

    def gates(self, model, out):
        exact_gates, ref_dev, mf_gates, extra = self.reference_checks(model, out)
        values = {
            "dynamics.norm_drift": norm_drift(out.exact),
            "dynamics.max_top_pop": max_top_population(out.exact),
            "dynamics.ref_dev": ref_dev,
            "meanfield.bloch_drift": bloch_drift(out.mf),
            "meanfield.closure_gap": closure_gap(out.exact, out.mf),
        }
        gates = exact_gates + [below("exact.norm_drift", values["dynamics.norm_drift"], NORM_DRIFT_TOL)] + extra
        gates += mf_gates + [below("meanfield.bloch_drift", values["meanfield.bloch_drift"], BLOCH_DRIFT_TOL)]
        return gates + roundtrip_gates(out.roundtrip), values


class CompareStatic(_Compare):
    """Criterion-08 physics run as the compare task: 1 site, field cutoff 30, nbar 9."""

    name = "compare-static"

    def __init__(self, seed: int, tiny: bool = False):
        rng = np.random.default_rng(seed)
        cutoff, nbar, g, cycles, n_out = (8, 1.0, 0.05, 1, 101) if tiny else (30, 9.0, 0.01, 3, 2001)
        alpha = np.sqrt(nbar) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        t_end = cycles * 2.0 * np.pi / (2.0 * g * np.sqrt(nbar))
        self.raw = _config(
            {"n_sites": 1, "field_modes": [{"cutoff": cutoff}]},
            {"omegas": [1.0], "field_modes": [{"omega": 1.0, "amplitude": g, "polarization_overlap": [1.0]}]},
            {"sites": [{"kind": "ground"}], "field_modes": [{"kind": "coherent", "alpha": [alpha.real, alpha.imag]}]},
            t_end, n_out, seed,
        )
        self.idx = checkpoints(rng, n_out)

    def reference_checks(self, model, out):
        ref, e0 = _exact_reference(model, self.raw, self.idx, out.exact.times)
        exact_gates, ref_dev = reference_gates("exact", out.exact, ref, self.idx)
        m = model.mf0
        mf_ref = reference.meanfield_reference(model.cfg.params, m.s_minus, m.s_z, m.a, m.b, out.mf.times[self.idx])
        mf_gates, _ = reference_gates("meanfield", out.mf, mf_ref, self.idx)
        energy = below("exact.energy_drift", energy_drift(out.exact, e0), ENERGY_DRIFT_TOL)
        return exact_gates, ref_dev, mf_gates, [energy]


class CompareDriven(_Compare):
    """Two sites, literal time-dependent coupling and one classical drive.

    The physics is fixed so that a stored reference can check it: the
    samples in ``compare_driven_ref.json`` were integrated at tol 1e-12 by
    ``make_reference.py``.  The seed does not change the inputs.  The energy
    is not conserved here, so the stored samples check it instead of a drift
    gate.
    """

    name = "compare-driven"

    def __init__(self, seed: int, tiny: bool = False):
        self.size = "tiny" if tiny else "full"
        t_end, n_out = (20.0, 201) if tiny else (250.0, 4001)
        self.raw = _config(
            {"n_sites": 2, "field_modes": [{"cutoff": 12}]},
            {
                "site_energies": [[-0.5, 0.5], [-0.48, 0.52]],
                "exchange_j": 0.02,
                "coupling_mode": "literal_time_dependent",
                "field_modes": [{"omega": 1.0, "wavevector": 0.3, "amplitude": 0.02, "polarization_overlap": [1.0, 0.8]}],
                "drives": [{"amplitude": 0.005, "frequency": 1.0, "sites": [0]}],
            },
            {"sites": [{"kind": "angles", "theta": 1.0, "phi": 0.0}, {"kind": "ground"}],
             "field_modes": [{"kind": "coherent", "alpha": [1.0, 0.0]}]},
            t_end, n_out, seed,
        )

    def reference_checks(self, model, out):
        stored = json.loads(DRIVEN_REFERENCE.read_text())[self.size]
        idx, times = stored["indices"], stored["times"]

        def decode(recs):
            return {k: np.array([complex(*v) for v in vals]) for k, vals in recs.items()}

        exact_gates, ref_dev = reference_gates("exact", out.exact, decode(stored["exact"]), idx, times)
        mf_gates, _ = reference_gates("meanfield", out.mf, decode(stored["meanfield"]), idx, times)
        return exact_gates, ref_dev, mf_gates, []


def verification_params(rng: np.random.Generator, n: int, n_field: int, n_phonon: int) -> SystemParams:
    """Random static parameters for the operator-identity draws (periodic chain)."""
    energies = []
    for _ in range(n):
        omega, shift = rng.uniform(0.5, 1.5), rng.uniform(-0.2, 0.2)
        energies.append((shift - 0.5 * omega, shift + 0.5 * omega))
    return SystemParams(
        site_energies=tuple(energies),
        exchange_j=rng.uniform(-0.3, 0.3),
        boundary="periodic",
        field_modes=tuple(
            FieldMode(omega=rng.uniform(0.6, 1.4), wavevector=rng.uniform(0.0, np.pi),
                      amplitude=rng.uniform(0.1, 0.4), polarization_overlap=tuple(rng.uniform(0.5, 1.0, size=n)))
            for _ in range(n_field)
        ),
        dipole=tuple(rng.uniform(0.5, 1.5, size=n)),
        phonon_modes=tuple(PhononMode(nu=rng.uniform(0.3, 1.0), coupling=rng.uniform(0.05, 0.3)) for _ in range(n_phonon)),
    )


class ModelLarge(_ConfigWorkload):
    """4 sites, field cutoff 12, phonon cutoff 6 (dim 1456): identity draws, then one propagation."""

    name = "model-large"
    with_meanfield = False

    def __init__(self, seed: int, tiny: bool = False):
        rng = np.random.default_rng(seed)
        n, f_cut, p_cut, t_end, n_out, draws = (3, 6, 4, 5.0, 21, 1) if tiny else (4, 12, 6, 150.0, 401, 3)
        # The seed draws only phases: drawing the tilts and frequencies too
        # moves the step count by up to 20% between seeds, phases by about 1%.
        sites = [{"kind": "angles", "theta": theta, "phi": rng.uniform(0.0, 2.0 * np.pi)} for theta in (1.0, 2.0, 0.7, 1.6)[:n]]
        alpha = 0.5 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        self.raw = _config(
            {"n_sites": n, "field_modes": [{"cutoff": f_cut}], "phonon_modes": [{"cutoff": p_cut}]},
            {
                "omegas": [1.0, 1.02, 0.98, 1.01][:n],
                "exchange_j": 0.03,
                "boundary": "periodic",
                "field_modes": [{"omega": 1.0, "wavevector": 0.5, "amplitude": 0.02, "polarization_overlap": 1.0}],
                "phonon_modes": [{"nu": 0.3, "coupling": 0.02}],
            },
            {"sites": sites, "field_modes": [{"kind": "coherent", "alpha": [alpha.real, alpha.imag]}],
             "phonon_modes": [{"kind": "vacuum"}]},
            t_end, n_out, seed,
        )
        self.draws = [verification_params(rng, n, 1, 1) for _ in range(draws)]
        self.idx = checkpoints(rng, n_out)

    def solve(self, model, out_dir: Path):
        space = model.space
        residuals = []
        for params in self.draws:
            eom = max(dynamics.verify_heisenberg_identities(space, params).values())
            compact = max(dynamics.verify_compact_form(space, params, l) for l in range(space.n_sites))
            control = min(
                dynamics.verify_compact_form(space, params, l, metric=(1.0, 1.0, 1.0)) for l in range(space.n_sites)
            )
            residuals.append((eom, compact, control))
        exact, _ = self.integrate(model, model.cfg.integrate["tol"])
        return SimpleNamespace(residuals=residuals, exact=exact, roundtrip=export_and_check({"exact": exact}, out_dir))

    def gates(self, model, out):
        gates = []
        for d, (eom, compact, control) in enumerate(out.residuals):
            gates += [
                below(f"draw{d}.eom_residual", eom, EOM_TOL),
                below(f"draw{d}.compact_residual", compact, COMPACT_TOL),
                above(f"draw{d}.negative_control", control, CONTROL_FLOOR),
            ]
        ref, e0 = _exact_reference(model, self.raw, self.idx, out.exact.times)
        exact_gates, ref_dev = reference_gates("exact", out.exact, ref, self.idx)
        values = {
            "dynamics.norm_drift": norm_drift(out.exact),
            "dynamics.max_top_pop": max_top_population(out.exact),
            "dynamics.ref_dev": ref_dev,
        }
        gates += exact_gates + [
            below("exact.norm_drift", values["dynamics.norm_drift"], NORM_DRIFT_TOL),
            below("exact.energy_drift", energy_drift(out.exact, e0), ENERGY_DRIFT_TOL),
            below("exact.leakage", values["dynamics.max_top_pop"], LEAKAGE_TOL),
        ] + roundtrip_gates(out.roundtrip)
        return gates, values


class MfChain:
    """Mean-field chain of 256 sites, built through the library API.

    ``config_from_dict`` refuses this system: it validates every config
    against the exact space, whose dimension 2^256 exceeds the 2^20 cap.
    """

    name = "mf-chain"

    def __init__(self, seed: int, tiny: bool = False):
        rng = np.random.default_rng(seed)
        self.n, self.t_end, self.n_out = (8, 2.0, 21) if tiny else (256, 15.0, 501)
        self.omegas = np.clip(1.0 + 0.05 * rng.standard_normal(self.n), 0.8, 1.2)
        self.theta = rng.uniform(0.2, 1.2, size=self.n)
        self.phi = rng.uniform(0.0, 2.0 * np.pi, size=self.n)
        self.idx = checkpoints(rng, self.n_out)

    def setup(self):
        n = self.n
        params = SystemParams(
            site_energies=tuple((-0.5 * w, 0.5 * w) for w in self.omegas),
            exchange_j=0.05,
            boundary="periodic",
            field_modes=(FieldMode(omega=1.0, wavevector=0.4, amplitude=0.02, polarization_overlap=(1.0,) * n),),
            phonon_modes=(PhononMode(nu=0.5, coupling=0.01),),
        )
        mf0 = meanfield.MeanFieldState(0.5 * np.sin(self.theta) * np.exp(1j * self.phi), -np.cos(self.theta), [1.0], [0.0])
        return SimpleNamespace(params=params, mf0=mf0)

    def sizes(self, model) -> dict:
        return {"hilbert.dim": 0, "hamiltonian.h_nnz": 0}

    def solve(self, model, out_dir: Path):
        mf = meanfield.mf_propagate(model.mf0, model.params, self.t_end, tol=1e-10, n_out=self.n_out)
        return SimpleNamespace(mf=mf)

    def gates(self, model, out):
        m = model.mf0
        ref = reference.meanfield_reference(model.params, m.s_minus, m.s_z, m.a, m.b, out.mf.times[self.idx])
        mf_gates, _ = reference_gates("meanfield", out.mf, ref, self.idx)
        values = {"meanfield.bloch_drift": bloch_drift(out.mf)}
        return mf_gates + [below("meanfield.bloch_drift", values["meanfield.bloch_drift"], BLOCH_DRIFT_TOL)], values


WORKLOADS = {wl.name: wl for wl in (CompareStatic, CompareDriven, ModelLarge, MfChain)}
