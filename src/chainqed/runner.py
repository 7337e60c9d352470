"""Configuration ingestion, experiment orchestration and persistence.

Runs are described by declarative YAML configs (archivable and diff-able);
command-line flags only select paths, verbosity, worker counts and task
overrides.  Every randomized check draws from a seeded generator and the
seed is echoed in the report, so a config (including its seed) determines
the outputs byte for byte -- trajectory files carry no timestamps.

Trajectory files come in two flavours: a columnar text format (CSV with a
fixed column order: time, per-site triples in site order, field modes,
phonon modes, norm, energy, then any extra records) and a self-describing
JSON format mirroring the Trajectory structure.  Both round-trip exactly
through :func:`import_trajectory` (floats are written in shortest
round-trip representation).
"""

from __future__ import annotations

import cmath
import concurrent.futures
import copy
import csv
import hashlib
import json
import math
import numbers
import time as _time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import dynamics, meanfield
from .hamiltonian import (
    COUPLING_MODES,
    ClassicalDrive,
    FieldMode,
    PhononMode,
    SystemParams,
)
from .hilbert import (
    ModeSpec,
    SpaceIndex,
    SpaceSpec,
    SpaceTooLargeError,
    build_space,
    coherent_local,
    fock_local,
    product_state,
    site_local_state,
)
from .meanfield import MeanFieldState, bloch_state

TASKS = ("propagate", "meanfield", "compare", "verify_eom", "verify_compact", "sweep")
MEAN_FIELD_TASKS = ("meanfield", "compare")
# initial-state key of the coherent amplitude, per bosonic mode section
_MODE_AMPLITUDE = {"field_modes": "alpha", "phonon_modes": "beta"}

DEFAULT_EOM_THRESHOLD = 1e-11
DEFAULT_COMPACT_THRESHOLD = 1e-10
NEGATIVE_CONTROL_FLOOR = 1e-3
# Output grid points per run: 10^6 points of a few dozen records already
# take hundreds of MB in the trajectory files.
N_OUT_MAX = 10**6


class ConfigError(ValueError):
    """Raised with the full list of validation problems."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("invalid configuration:\n" + "\n".join(f"- {p}" for p in problems))

    def __reduce__(self):
        # rebuilt from its problem list when a sweep worker sends it back
        return ConfigError, (self.problems,)


@dataclass
class RunConfig:
    """Validated run description plus the raw mapping it came from."""

    raw: dict
    task: str
    seed: int
    space_spec: SpaceSpec
    params: SystemParams
    integrate: dict
    initial: dict
    output: dict
    verify: dict
    sweep: dict | None = None

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True, default=str).encode()
        ).hexdigest()

    def build_space(self) -> SpaceIndex:
        return build_space(self.space_spec)


def _as_list(value, name: str, problems: list[str]) -> list:
    if value is None:
        return []
    if not isinstance(value, list):
        problems.append(f"{name} must be a list")
        return []
    return value


def _section(raw: dict, name: str, problems: list[str]) -> dict:
    """A top-level config section; absent or null reads as empty."""
    value = raw.get(name)
    if value is None:
        return {}
    if not isinstance(value, dict):
        problems.append(f"{name} must be a mapping, got {type(value).__name__}")
        return {}
    return value


def _mappings(value, name: str, problems: list[str]) -> list[dict]:
    """Entries of a list of mappings; any other entry is reported and read as empty."""
    entries = _as_list(value, name, problems)
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            problems.append(f"{name}[{i}] must be a mapping, got {entry!r}")
    return [entry if isinstance(entry, dict) else {} for entry in entries]


def _finite(value) -> bool:
    return isinstance(value, numbers.Real) and math.isfinite(value)


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _real(value, name: str, problems: list[str], default: float = 0.0) -> float:
    """``float(value)`` when that is a finite number; otherwise report it and return ``default``."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if math.isfinite(number):
        return number
    problems.append(f"{name} must be a finite number, got {value!r}")
    return default


def _complex(value, name: str, problems: list[str]) -> complex:
    """A finite complex number (see ``_parse_complex``); otherwise report it and return 0."""
    try:
        number = _parse_complex(value)
    except (TypeError, ValueError):
        number = complex(math.nan)
    if cmath.isfinite(number):
        return number
    problems.append(f"{name} must be a finite complex number, got {value!r}")
    return 0j


def _parse_complex(value) -> complex:
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    if isinstance(value, str):
        return complex(value.replace(" ", ""))
    return complex(value)


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a YAML config, aggregating all problems."""
    path = Path(path)
    if not path.exists():
        raise ConfigError([f"config file not found: {path}"])
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError([f"YAML parse error in {path}: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError([f"config root must be a mapping, got {type(raw).__name__}"])
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> RunConfig:
    problems: list[str] = []

    task = raw.get("task", "propagate")
    if task not in TASKS:
        problems.append(f"task must be one of {TASKS}, got {task!r}")
    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or seed < 0:
        problems.append(f"seed must be a non-negative integer, got {seed!r}")
        seed = 0

    # -- space ---------------------------------------------------------------
    space_raw = _section(raw, "space", problems)
    n_sites = space_raw.get("n_sites", 1)
    if not isinstance(n_sites, int) or n_sites < 1:
        problems.append(f"space.n_sites must be a positive integer, got {n_sites!r}")
        n_sites = 1
    mode_specs = {}
    for section in _MODE_AMPLITUDE:
        mode_specs[section] = []
        for k, mode in enumerate(_as_list(space_raw.get(section), f"space.{section}", problems)):
            cutoff = mode.get("cutoff", 1) if isinstance(mode, dict) else mode
            if not isinstance(cutoff, int) or cutoff < 1:
                problems.append(f"space.{section}[{k}].cutoff must be an integer >= 1")
                cutoff = 1
            mode_specs[section].append(ModeSpec(cutoff))
    field_specs, phonon_specs = mode_specs["field_modes"], mode_specs["phonon_modes"]
    space_spec = SpaceSpec(n_sites, tuple(field_specs), tuple(phonon_specs))
    try:
        build_space(space_spec)
    except SpaceTooLargeError as exc:
        problems.append(str(exc))

    # -- params ----------------------------------------------------------------
    params_raw = _section(raw, "params", problems)
    if "site_energies" in params_raw:
        energies = params_raw["site_energies"]
    elif "omegas" in params_raw:
        omegas = params_raw["omegas"]
        if isinstance(omegas, (int, float)):
            omegas = [omegas] * n_sites
        for v, w in enumerate(omegas):
            if not _finite(w):
                problems.append(f"params.omegas[{v}] must be a finite number, got {w!r}")
        energies = [[-0.5 * w, 0.5 * w] if _finite(w) else [-0.5, 0.5] for w in omegas]
    else:
        energies = [[-0.5, 0.5]] * n_sites
    if len(energies) != n_sites:
        problems.append(
            f"params.site_energies has {len(energies)} entries for {n_sites} sites"
        )
    for v, pair in enumerate(energies):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            problems.append(f"params.site_energies[{v}] must be [lower, upper]")
        elif not all(_finite(e) for e in pair):
            problems.append(f"params.site_energies[{v}] entries must be finite numbers, got {pair}")
        elif not pair[1] > pair[0]:
            problems.append(
                f"params.site_energies[{v}]: upper must exceed lower, got {pair}"
            )

    f_modes = []
    fm_raw = _mappings(params_raw.get("field_modes"), "params.field_modes", problems)
    if len(fm_raw) != len(field_specs):
        problems.append(
            f"params.field_modes has {len(fm_raw)} entries, "
            f"space declares {len(field_specs)} field modes"
        )
    for k, mode in enumerate(fm_raw):
        omega = mode.get("omega")
        if not _finite(omega) or omega <= 0:
            problems.append(f"params.field_modes[{k}].omega must be a positive finite number")
            omega = 1.0
        overlap = mode.get("polarization_overlap", [1.0] * n_sites)
        if isinstance(overlap, (int, float)):
            overlap = [overlap] * n_sites
        overlap = _as_list(overlap, f"params.field_modes[{k}].polarization_overlap", problems)
        if len(overlap) != n_sites:
            problems.append(
                f"params.field_modes[{k}].polarization_overlap needs one entry "
                f"per site ({n_sites})"
            )
        name = f"params.field_modes[{k}]"
        f_modes.append(
            FieldMode(
                omega=float(omega),
                wavevector=_real(mode.get("wavevector", 0.0), f"{name}.wavevector", problems),
                amplitude=_real(mode.get("amplitude", 0.0), f"{name}.amplitude", problems),
                polarization_overlap=tuple(
                    _real(x, f"{name}.polarization_overlap[{v}]", problems)
                    for v, x in enumerate(overlap)
                ),
            )
        )

    p_modes = []
    pm_raw = _mappings(params_raw.get("phonon_modes"), "params.phonon_modes", problems)
    if len(pm_raw) != len(phonon_specs):
        problems.append(
            f"params.phonon_modes has {len(pm_raw)} entries, "
            f"space declares {len(phonon_specs)} phonon modes"
        )
    for q, mode in enumerate(pm_raw):
        nu = mode.get("nu")
        if not _finite(nu) or nu <= 0:
            problems.append(f"params.phonon_modes[{q}].nu must be a positive finite number")
            nu = 1.0
        coupling = _real(mode.get("coupling", 0.0), f"params.phonon_modes[{q}].coupling", problems)
        p_modes.append(PhononMode(nu=float(nu), coupling=coupling))

    drives = []
    for d, drv in enumerate(_mappings(params_raw.get("drives"), "params.drives", problems)):
        amplitude = _complex(drv.get("amplitude", 0.0), f"params.drives[{d}].amplitude", problems)
        frequency = _real(drv.get("frequency", 0.0), f"params.drives[{d}].frequency", problems)
        sites = drv.get("sites")
        if sites is not None:
            if not isinstance(sites, list) or not all(_is_integer(s) for s in sites):
                problems.append(
                    f"params.drives[{d}].sites must be a list of site indices, got {sites!r}"
                )
                sites = []
            sites = tuple(int(s) for s in sites)
            for s in sites:
                if not 0 <= s < n_sites:
                    problems.append(f"params.drives[{d}] references missing site {s}")
        drives.append(ClassicalDrive(amplitude, frequency, sites))

    boundary = params_raw.get("boundary", "open")
    coupling_mode = params_raw.get("coupling_mode", "static_phase_at_t0")
    if coupling_mode not in COUPLING_MODES:
        problems.append(f"params.coupling_mode must be one of {COUPLING_MODES}")
        coupling_mode = "static_phase_at_t0"
    dipole = params_raw.get("dipole", [1.0] * n_sites)
    if isinstance(dipole, (int, float)):
        dipole = [dipole] * n_sites
    dipole = _as_list(dipole, "params.dipole", problems)
    if len(dipole) != n_sites:
        problems.append("params.dipole needs one entry per site")
    dipole = [_real(p, f"params.dipole[{v}]", problems, 1.0) for v, p in enumerate(dipole)]
    lattice_spacing = _real(
        params_raw.get("lattice_spacing", 1.0), "params.lattice_spacing", problems, 1.0
    )
    positions = _as_list(params_raw.get("site_positions"), "params.site_positions", problems)
    positions = [_real(x, f"params.site_positions[{v}]", problems) for v, x in enumerate(positions)]
    exchange_j = params_raw.get("exchange_j", 0.0)
    if not _finite(exchange_j):
        problems.append(f"params.exchange_j must be a finite number, got {exchange_j!r}")
        exchange_j = 0.0

    params = None
    try:
        params = SystemParams(
            site_energies=tuple((float(p[0]), float(p[1])) for p in energies),
            exchange_j=float(exchange_j),
            boundary=boundary,
            field_modes=tuple(f_modes),
            dipole=tuple(dipole),
            lattice_spacing=lattice_spacing,
            site_positions=tuple(positions) if positions else None,
            coupling_mode=coupling_mode,
            phonon_modes=tuple(p_modes),
            drives=tuple(drives),
        )
    except (ValueError, TypeError, IndexError) as exc:
        problems.append(str(exc))
    if params is not None:
        try:
            problems.extend(params.validate_against(build_space(space_spec)))
        except SpaceTooLargeError:
            pass

    # -- initial state ------------------------------------------------------------
    initial = _section(raw, "initial", problems)
    site_states = _mappings(initial.get("sites"), "initial.sites", problems)
    if site_states and len(site_states) != n_sites:
        problems.append(
            f"initial.sites has {len(site_states)} entries for {n_sites} sites"
        )
    checked = {section: _mappings(initial.get(section), f"initial.{section}", problems) for section in mode_specs}
    for section, states in checked.items():
        if states and len(states) != len(mode_specs[section]):
            problems.append(
                f"initial.{section} has {len(states)} entries, space declares {len(mode_specs[section])}"
            )
    for i, st in enumerate(site_states):
        kind = st.get("kind", "ground")
        if kind not in ("ground", "excited", "angles"):
            problems.append(f"initial.sites[{i}].kind must be ground/excited/angles")
        for angle in ("theta", "phi"):
            _real(st.get(angle, 0.0), f"initial.sites[{i}].{angle}", problems)
    for section, specs in mode_specs.items():
        for i, (kind, value) in enumerate(_mode_states(checked, section, len(specs))):
            name = f"initial.{section}[{i}]"
            if kind not in ("fock", "coherent"):
                problems.append(f"{name}.kind must be fock/coherent/vacuum")
            elif kind == "coherent":
                _complex(value, f"{name}.{_MODE_AMPLITUDE[section]}", problems)
            elif i < len(specs) and not (_is_integer(value) and 0 <= value <= specs[i].cutoff):
                problems.append(
                    f"{name}.n must be a Fock level from 0 to the cutoff {specs[i].cutoff}, got {value!r}"
                )

    # -- integration / output -------------------------------------------------------
    integrate_raw = _section(raw, "integrate", problems)
    integrate = {
        "tol": _real(integrate_raw.get("tol", 1e-10), "integrate.tol", problems, 1e-10),
        "t_end": _real(integrate_raw.get("t_end", 10.0), "integrate.t_end", problems, 10.0),
        "n_out": integrate_raw.get("n_out", 201),
        "keep_states": bool(integrate_raw.get("keep_states", False)),
    }
    for key in ("tol", "t_end"):
        if not integrate[key] > 0:
            problems.append(f"integrate.{key} must be positive and finite")
    try:
        integrate["n_out"] = int(integrate["n_out"])
    except (TypeError, ValueError, OverflowError):
        integrate["n_out"] = 0
    if not 2 <= integrate["n_out"] <= N_OUT_MAX:
        problems.append(f"integrate.n_out must be an integer between 2 and {N_OUT_MAX}")

    output = dict(_section(raw, "output", problems))
    output.setdefault("formats", ["csv", "json"])
    for fmt in output["formats"]:
        if fmt not in ("csv", "json"):
            problems.append(f"output format {fmt!r} not supported (csv, json)")
    output.setdefault("basename", "trajectory")

    verify = dict(_section(raw, "verify", problems))
    verify.setdefault("draws", 10)
    verify.setdefault("eom_threshold", DEFAULT_EOM_THRESHOLD)
    verify.setdefault("compact_threshold", DEFAULT_COMPACT_THRESHOLD)

    sweep = raw.get("sweep")
    runs_task = task
    if task == "sweep":
        if not isinstance(sweep, dict):
            problems.append("sweep task requires a sweep section")
        else:
            if "path" not in sweep:
                problems.append("sweep.path is required")
            values = sweep.get("values")
            if not values:
                problems.append("sweep.values must be a non-empty list")
            runs_task = sweep.get("task", "propagate")
            if runs_task not in TASKS or runs_task == "sweep":
                problems.append(f"sweep.task must be a non-sweep task, got {runs_task!r}")
    if runs_task in MEAN_FIELD_TASKS:
        problems.extend(_mean_field_problems(checked, space_spec))

    if problems:
        raise ConfigError(problems)
    return RunConfig(
        raw=raw,
        task=task,
        seed=seed,
        space_spec=space_spec,
        params=params,
        integrate=integrate,
        initial=initial,
        output=output,
        verify=verify,
        sweep=sweep,
    )


# -- initial state assembly ----------------------------------------------------------


def _mode_states(initial: dict, section: str, n_modes: int) -> list[tuple[str, object]]:
    """(kind, value) of each mode's entry in an ``initial`` field or phonon section.

    A missing section reads as vacuum for every mode, a missing kind as ``fock``
    and ``vacuum`` as Fock level 0.  The value is the Fock level ``n`` (default 0)
    or the coherent amplitude (``alpha`` for field, ``beta`` for phonon modes;
    default 0) as written in the config; other kinds are passed on as given.
    """
    states = []
    for st in initial.get(section) or [{}] * n_modes:
        kind = st.get("kind", "fock")
        if kind == "coherent":
            states.append((kind, st.get(_MODE_AMPLITUDE[section], 0.0)))
        elif kind == "vacuum":
            states.append(("fock", 0))
        else:
            states.append((kind, st.get("n", 0)))
    return states


def _mean_field_problems(initial: dict, space_spec: SpaceSpec) -> list[str]:
    """Mode entries that a mean-field run cannot start from: Fock states above the vacuum."""
    counts = {"field_modes": len(space_spec.field_modes), "phonon_modes": len(space_spec.phonon_modes)}
    return [
        f"initial.{section}[{i}]: a Fock state (n = {value}) has no mean-field amplitude; "
        f"the meanfield and compare tasks need coherent or vacuum mode states"
        for section, n_modes in counts.items()
        for i, (kind, value) in enumerate(_mode_states(initial, section, n_modes))
        if kind == "fock" and value != 0
    ]


def initial_state(config: RunConfig, space: SpaceIndex) -> np.ndarray:
    """Exact product initial state from the config's ``initial`` section."""
    locals_ = [
        site_local_state(st.get("kind", "ground"), float(st.get("theta", 0.0)), float(st.get("phi", 0.0)))
        for st in config.initial.get("sites") or [{"kind": "ground"}] * space.n_sites
    ]
    cutoffs = {
        "field_modes": [space.field_cutoff(k) for k in range(space.n_field_modes)],
        "phonon_modes": [space.phonon_cutoff(q) for q in range(space.n_phonon_modes)],
    }
    for section, cuts in cutoffs.items():
        for (kind, value), cutoff in zip(_mode_states(config.initial, section, len(cuts)), cuts):
            if kind == "coherent":
                locals_.append(coherent_local(_parse_complex(value), cutoff))
            else:
                locals_.append(fock_local(int(value), cutoff))
    return product_state(space, locals_)


def initial_mean_field(config: RunConfig) -> MeanFieldState:
    """Mean-field image of the same initial product state.

    Raises ``ConfigError`` for a Fock mode state above the vacuum, which has no
    c-number amplitude.
    """
    problems = _mean_field_problems(config.initial, config.space_spec)
    if problems:
        raise ConfigError(problems)
    n = config.space_spec.n_sites
    s_minus = np.zeros(n, dtype=complex)
    s_z = np.zeros(n)
    site_states = config.initial.get("sites") or [{"kind": "ground"}] * n
    for l, st in enumerate(site_states):
        kind = st.get("kind", "ground")
        if kind == "ground":
            s_minus[l], s_z[l] = 0.0, -1.0
        elif kind == "excited":
            s_minus[l], s_z[l] = 0.0, 1.0
        else:
            s_minus[l], s_z[l] = bloch_state(
                float(st.get("theta", 0.0)), float(st.get("phi", 0.0))
            )

    def amplitudes(section: str, n_modes: int) -> np.ndarray:
        states = _mode_states(config.initial, section, n_modes)
        return np.array([_parse_complex(v) if kind == "coherent" else 0.0 for kind, v in states], dtype=complex)

    a = amplitudes("field_modes", len(config.space_spec.field_modes))
    b = amplitudes("phonon_modes", len(config.space_spec.phonon_modes))
    return MeanFieldState(s_minus, s_z, a, b)


# -- trajectory persistence --------------------------------------------------------------


def _column_order(records: dict) -> list[str]:
    """Fixed column order: site triples, field modes, phonon modes, norm, energy."""
    names = set(records)
    ordered: list[str] = []

    def take(name: str):
        if name in names:
            ordered.append(name)
            names.remove(name)

    site_ids = sorted(
        int(n.rsplit("_", 1)[1]) for n in records if n.startswith("sigma_z_")
    )
    for l in site_ids:
        take(f"sigma_minus_{l}")
        take(f"sigma_plus_{l}")
        take(f"sigma_z_{l}")
    mode_ids = sorted(int(n.rsplit("_", 1)[1]) for n in records if n.startswith("a_"))
    for k in mode_ids:
        take(f"a_{k}")
        take(f"n_{k}")
        take(f"top_field_{k}")
    phonon_ids = sorted(int(n.rsplit("_", 1)[1]) for n in records if n.startswith("b_"))
    for q in phonon_ids:
        take(f"b_{q}")
        take(f"nb_{q}")
        take(f"top_phonon_{q}")
    take("norm")
    take("energy")
    ordered.extend(sorted(names))
    return ordered


def export_trajectory(traj: dynamics.Trajectory, fmt: str, path: str | Path) -> Path:
    """Write a trajectory to CSV or JSON (floats in round-trip precision)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    order = _column_order(traj.records)
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            header = ["time"]
            for name in order:
                if np.iscomplexobj(traj.records[name]):
                    header += [f"{name}_re", f"{name}_im"]
                else:
                    header.append(name)
            writer.writerow(header)
            for i in range(len(traj.times)):
                row = [repr(float(traj.times[i]))]
                for name in order:
                    val = traj.records[name][i]
                    if np.iscomplexobj(traj.records[name]):
                        row += [repr(float(val.real)), repr(float(val.imag))]
                    else:
                        row.append(repr(float(val)))
                writer.writerow(row)
    elif fmt == "json":
        payload = {
            "times": [float(t) for t in traj.times],
            "records": {},
            "meta": _jsonable(traj.meta),
        }
        for name in order:
            arr = traj.records[name]
            if np.iscomplexobj(arr):
                payload["records"][name] = {
                    "dtype": "complex",
                    "values": [[float(v.real), float(v.imag)] for v in arr],
                }
            else:
                payload["records"][name] = {
                    "dtype": "real",
                    "values": [float(v) for v in arr],
                }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
    else:
        raise ValueError(f"unknown trajectory format {fmt!r}")
    return path


def import_trajectory(path: str | Path) -> dynamics.Trajectory:
    """Read a trajectory written by :func:`export_trajectory`."""
    path = Path(path)
    if path.suffix == ".json":
        with open(path) as fh:
            payload = json.load(fh)
        records = {}
        for name, rec in payload["records"].items():
            if rec["dtype"] == "complex":
                records[name] = np.array(
                    [complex(re, im) for re, im in rec["values"]], dtype=np.complex128
                )
            else:
                records[name] = np.array(rec["values"], dtype=float)
        return dynamics.Trajectory(
            times=np.array(payload["times"], dtype=float),
            records=records,
            meta=payload.get("meta", {}),
        )
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [row for row in reader]
    times = np.array([float(r[0]) for r in rows])
    records: dict[str, np.ndarray] = {}
    col = 1
    while col < len(header):
        name = header[col]
        if name.endswith("_re") and col + 1 < len(header) and header[col + 1] == name[:-3] + "_im":
            base = name[:-3]
            records[base] = np.array(
                [complex(float(r[col]), float(r[col + 1])) for r in rows],
                dtype=np.complex128,
            )
            col += 2
        else:
            records[name] = np.array([float(r[col]) for r in rows])
            col += 1
    return dynamics.Trajectory(times=times, records=records, meta={})


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj


# -- run reports ------------------------------------------------------------------------


@dataclass
class Check:
    name: str
    tolerance: float
    measured: float
    passed: bool

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: measured {self.measured:.3e} vs tolerance {self.tolerance:.1e}"


@dataclass
class RunReport:
    task: str
    config_hash: str
    seed: int
    results: dict = field(default_factory=dict)
    checks: list[Check] = field(default_factory=list)
    trajectory_files: list[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "task": self.task,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "results": _jsonable(self.results),
            "checks": [
                {
                    "name": c.name,
                    "tolerance": c.tolerance,
                    "measured": c.measured,
                    "passed": c.passed,
                }
                for c in self.checks
            ],
            "trajectory_files": self.trajectory_files,
            "elapsed_seconds": self.elapsed_seconds,
        }

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        return path

    def summary(self) -> str:
        lines = [f"task: {self.task}  (config {self.config_hash[:12]}, seed {self.seed})"]
        lines += [c.line() for c in self.checks]
        lines += [f"wrote {f}" for f in self.trajectory_files]
        lines.append(f"elapsed: {self.elapsed_seconds:.2f} s")
        return "\n".join(lines)


# -- randomized parameter draws (verification tasks) ---------------------------------------


def draw_params(
    space: SpaceIndex,
    rng: np.random.Generator,
    *,
    coupling_mode: str = "static_phase_at_t0",
    boundary: str = "open",
    with_exchange: bool = True,
) -> SystemParams:
    """Random physical parameters on a given space (verification draws)."""
    n = space.n_sites
    energies = []
    for _ in range(n):
        omega = rng.uniform(0.5, 1.5)
        shift = rng.uniform(-0.2, 0.2)
        energies.append((shift - 0.5 * omega, shift + 0.5 * omega))
    f_modes = tuple(
        FieldMode(
            omega=rng.uniform(0.6, 1.4),
            wavevector=rng.uniform(0.0, np.pi),
            amplitude=rng.uniform(0.1, 0.4),
            polarization_overlap=tuple(rng.uniform(0.5, 1.0, size=n)),
        )
        for _ in range(space.n_field_modes)
    )
    p_modes = tuple(
        PhononMode(nu=rng.uniform(0.3, 1.0), coupling=rng.uniform(0.05, 0.3))
        for _ in range(space.n_phonon_modes)
    )
    return SystemParams(
        site_energies=tuple(energies),
        exchange_j=rng.uniform(-0.3, 0.3) if with_exchange else 0.0,
        boundary=boundary,
        field_modes=f_modes,
        dipole=tuple(rng.uniform(0.5, 1.5, size=n)),
        lattice_spacing=1.0,
        coupling_mode=coupling_mode,
        phonon_modes=p_modes,
    )


# -- task implementations --------------------------------------------------------------------


def _write_trajectory(config: RunConfig, traj, out_dir: Path, basename: str) -> list[str]:
    """Export in every configured format; paths are returned relative to ``out_dir``
    so that identical runs into different directories write identical reports."""
    files = []
    for fmt in config.output["formats"]:
        suffix = {"csv": ".csv", "json": ".json"}[fmt]
        path = export_trajectory(traj, fmt, out_dir / f"{basename}{suffix}")
        files.append(path.relative_to(out_dir).as_posix())
    return files


def _exact_run(config: RunConfig, keep_states: bool = False) -> dynamics.Trajectory:
    space, integ = config.build_space(), config.integrate
    return dynamics.propagate(space, config.params, initial_state(config, space), integ["t_end"],
                              tol=integ["tol"], n_out=integ["n_out"], keep_states=keep_states)


def _mean_field_run(config: RunConfig) -> dynamics.Trajectory:
    integ = config.integrate
    return meanfield.mf_propagate(initial_mean_field(config), config.params, integ["t_end"],
                                  tol=integ["tol"], n_out=integ["n_out"])


def _task_propagate(config: RunConfig, out_dir: Path, report: RunReport, verbose: bool):
    traj = _exact_run(config, config.integrate["keep_states"])
    report.results["meta"] = traj.meta
    report.trajectory_files += _write_trajectory(config, traj, out_dir, config.output["basename"])
    report.checks.append(
        Check("norm_drift", dynamics.NORM_DRIFT_WARNING, traj.meta["norm_drift"],
              traj.meta["norm_drift"] <= dynamics.NORM_DRIFT_WARNING)
    )


def _task_meanfield(config: RunConfig, out_dir: Path, report: RunReport, verbose: bool):
    traj = _mean_field_run(config)
    report.results["meta"] = traj.meta
    report.trajectory_files += _write_trajectory(
        config, traj, out_dir, config.output["basename"] + "_meanfield"
    )


def _task_compare(config: RunConfig, out_dir: Path, report: RunReport, verbose: bool):
    mf_traj = _mean_field_run(config)  # first: it refuses a state without a mean-field image
    exact = _exact_run(config)
    report.trajectory_files += _write_trajectory(
        config, exact, out_dir, config.output["basename"] + "_exact"
    )
    report.trajectory_files += _write_trajectory(
        config, mf_traj, out_dir, config.output["basename"] + "_meanfield"
    )
    shared = sorted(set(exact.records) & set(mf_traj.records) - {"energy", "norm"})
    report.results["deviations"] = {
        name: float(np.max(np.abs(exact.records[name] - mf_traj.records[name]))) for name in shared
    }
    report.results["exact_meta"] = exact.meta
    report.results["meanfield_meta"] = mf_traj.meta


def _task_verify_eom(config: RunConfig, out_dir: Path, report: RunReport, verbose: bool):
    space = config.build_space()
    rng = np.random.default_rng(config.seed)
    threshold = config.verify["eom_threshold"]
    draws = config.verify["draws"]
    worst: dict[str, float] = {}
    for _ in range(draws):
        params = draw_params(space, rng, coupling_mode=config.params.coupling_mode)
        residuals = dynamics.verify_heisenberg_identities(space, params)
        for name, value in residuals.items():
            worst[name] = max(worst.get(name, 0.0), value)
    report.results["max_residuals"] = worst
    report.results["draws"] = draws
    for name, value in sorted(worst.items()):
        report.checks.append(Check(f"eom_{name}", threshold, value, value <= threshold))


def _task_verify_compact(config: RunConfig, out_dir: Path, report: RunReport, verbose: bool):
    space = config.build_space()
    rng = np.random.default_rng(config.seed)
    threshold = config.verify["compact_threshold"]
    draws = config.verify["draws"]
    worst = 0.0
    control_min = np.inf
    for _ in range(draws):
        params = draw_params(space, rng, coupling_mode=config.params.coupling_mode)
        for l in range(space.n_sites):
            worst = max(worst, dynamics.verify_compact_form(space, params, l))
            control = dynamics.verify_compact_form(
                space, params, l, metric=(1.0, 1.0, 1.0)
            )
            control_min = min(control_min, control)
    report.results["max_residual"] = worst
    report.results["negative_control_min"] = float(control_min)
    report.results["draws"] = draws
    report.checks.append(Check("compact_residual", threshold, worst, worst <= threshold))
    report.checks.append(
        Check(
            "compact_negative_control",
            NEGATIVE_CONTROL_FLOOR,
            float(control_min),
            control_min > NEGATIVE_CONTROL_FLOOR,
        )
    )


def _set_by_path(raw: dict, dotted: str, value):
    keys = dotted.split(".")
    node = raw
    for key in keys[:-1]:
        node = node[int(key)] if isinstance(node, list) else node[key]
    last = keys[-1]
    if isinstance(node, list):
        node[int(last)] = value
    else:
        node[last] = value


def _run_sweep_point(args):
    raw, index, out_dir, verbose = args
    config = config_from_dict(raw)
    point_dir = Path(out_dir) / f"point_{index:03d}"
    report = run(config, out_dir=point_dir, verbose=verbose)
    return index, report.to_dict()


def _task_sweep(config: RunConfig, out_dir: Path, report: RunReport, verbose: bool, workers: int):
    sweep = config.sweep
    if not isinstance(sweep, dict) or "path" not in sweep or not sweep.get("values"):
        raise ConfigError(["sweep task requires a sweep section with path and values"])
    path, values = sweep["path"], sweep["values"]
    subtask = sweep.get("task", "propagate")
    jobs = []
    for i, value in enumerate(values):
        raw = copy.deepcopy(config.raw)
        raw["task"] = subtask
        raw.pop("sweep", None)
        try:
            _set_by_path(raw, path, value)
        except (KeyError, IndexError, TypeError) as exc:
            raise ConfigError([f"sweep.path {path!r} not resolvable: {exc}"]) from exc
        jobs.append((raw, i, str(out_dir), verbose))
    results = {}
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            for index, rep in pool.map(_run_sweep_point, jobs):
                results[index] = rep
    else:
        for job in jobs:
            index, rep = _run_sweep_point(job)
            results[index] = rep
    report.results["points"] = [
        {"value": values[i], "report": results[i]} for i in sorted(results)
    ]
    report.results["path"] = path


def run(
    config: RunConfig,
    out_dir: str | Path | None = None,
    workers: int = 1,
    verbose: bool = False,
    task_override: str | None = None,
) -> RunReport:
    """Execute a validated config and write its report and trajectory files."""
    task = task_override or config.task
    out_dir = Path(out_dir) if out_dir is not None else Path(config.output.get("directory", "out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    report = RunReport(task=task, config_hash=config.config_hash, seed=config.seed)
    started = _time.perf_counter()
    if task == "propagate":
        _task_propagate(config, out_dir, report, verbose)
    elif task == "meanfield":
        _task_meanfield(config, out_dir, report, verbose)
    elif task == "compare":
        _task_compare(config, out_dir, report, verbose)
    elif task == "verify_eom":
        _task_verify_eom(config, out_dir, report, verbose)
    elif task == "verify_compact":
        _task_verify_compact(config, out_dir, report, verbose)
    elif task == "sweep":
        _task_sweep(config, out_dir, report, verbose, workers)
    else:
        raise ConfigError([f"unknown task {task!r}"])
    report.elapsed_seconds = _time.perf_counter() - started
    report.save(out_dir / "report.json")
    if verbose:
        print(report.summary())
    return report
