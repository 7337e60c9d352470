"""Configuration ingestion, experiment orchestration and persistence.

Runs are described by declarative YAML configs (archivable and diff-able);
command-line flags only select paths, verbosity, worker counts and task
overrides.  Every randomized check draws from a seeded generator and the
seed is echoed in the report, so a config (including its seed) determines
the outputs byte for byte -- trajectory files carry no timestamps.

A trajectory file is one table of columns (``_columns``): time, then the
records in a fixed order (site triples, field modes, phonon modes, norm,
energy, any other records), a complex record as a real and an imaginary
column.  Two encodings write it: CSV, one row per time point, and JSON
mirroring the Trajectory.  Both round-trip bit for bit through
:func:`import_trajectory` (floats in shortest round-trip representation).
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
from .dynamics import TOL_MIN
from .hamiltonian import (
    BOUNDARIES,
    COUPLING_MODES,
    STATIC_PHASE,
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

NEGATIVE_CONTROL_FLOOR = 1e-3
# Output grid points per run: 10^6 points of a few dozen records already
# take hundreds of MB in the trajectory files.
N_OUT_MAX = 10**6
# Rows of a CSV trajectory formatted and written at once.
CSV_ROWS = 512


class ConfigError(ValueError):
    """Raised with the full list of validation problems."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("invalid configuration:\n" + "\n".join(f"- {p}" for p in problems))

    def __reduce__(self):
        # rebuilt from its problem list when unpickled
        return ConfigError, (self.problems,)


@dataclass
class RunConfig:
    """Validated run description plus the raw mapping it came from.

    The sections hold every key with its default filled in (see ``_ROWS``);
    ``raw`` stays as given, so ``config_hash`` depends only on what was written.
    """

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
        try:
            return build_space(self.space_spec)
        except SpaceTooLargeError as exc:
            raise ConfigError([str(exc)]) from exc


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
    """Check a raw config against ``_ROWS``, and refuse every key no row names; every
    problem found ends in one ``ConfigError``.

    The normalized config (every default filled in) is built only from a config
    without problems.
    """
    walk = _Walk(raw)
    problems = walk.problems + _unknown_keys(raw)
    if problems:
        raise ConfigError(problems)
    tree = walk.tree
    return RunConfig(
        raw=raw,
        task=tree["task"],
        seed=tree["seed"],
        space_spec=_space_spec(tree["space"]),
        params=_system_params(tree["params"]),
        integrate=tree["integrate"],
        initial=tree["initial"],
        output=tree["output"],
        verify=tree["verify"],
        sweep=tree["sweep"],
    )


def _space_spec(space: dict) -> SpaceSpec:
    return SpaceSpec(
        space["n_sites"],
        tuple(ModeSpec(mode["cutoff"]) for mode in space["field_modes"]),
        tuple(ModeSpec(mode["cutoff"]) for mode in space["phonon_modes"]),
    )


def _system_params(params: dict) -> SystemParams:
    positions, energies = params["site_positions"], params["site_energies"]
    return SystemParams(
        site_energies=energies or tuple((-0.5 * w, 0.5 * w) for w in params["omegas"]),
        exchange_j=params["exchange_j"],
        boundary=params["boundary"],
        field_modes=tuple(
            FieldMode(m["omega"], m["wavevector"], m["amplitude"], tuple(m["polarization_overlap"]))
            for m in params["field_modes"]
        ),
        dipole=tuple(params["dipole"]),
        lattice_spacing=params["lattice_spacing"],
        site_positions=None if positions is None else tuple(positions),
        coupling_mode=params["coupling_mode"],
        phonon_modes=tuple(PhononMode(m["nu"], m["coupling"]) for m in params["phonon_modes"]),
        drives=tuple(
            ClassicalDrive(d["amplitude"], d["frequency"], None if d["sites"] is None else tuple(d["sites"]))
            for d in params["drives"]
        ),
    )


# -- the config table ------------------------------------------------------------------

_REQUIRED = object()  # default of a key the config must give
_FAILED = object()  # left in the checked tree where a value failed its row


class _Bad(Exception):
    """A value that fails its row; the text follows the value's config path in the problem."""


class _Skip(Exception):
    """Raised by a constraint when a value it reads failed its own row: nothing more to report."""


def _must(ok: bool, text: str, value):
    if not ok:
        raise _Bad(f"must be {text}, got {value!r}")
    return value


def _real(value) -> float:
    """``float(value)`` when that is finite: YAML 1.1 loads ``1e-12`` as a string."""
    try:
        number = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        number = math.nan
    _must(math.isfinite(number), "a finite number", value)
    return number


def _complex(value) -> complex:
    """A number, a string such as ``"0.3-0.2j"``, or a pair ``[re, im]`` of numbers."""
    if isinstance(value, list) and len(value) == 2:
        return complex(_real(value[0]), _real(value[1]))
    try:
        number = complex(value.replace(" ", "") if isinstance(value, str) else value)
    except (TypeError, ValueError):
        number = complex(math.nan)
    _must(cmath.isfinite(number) and not isinstance(value, bool), "a finite complex number", value)
    return number


# A kind checks the type of a value and returns it normalized.
_KINDS = {
    "mapping": lambda v: _must(isinstance(v, dict), "a mapping", v),
    "list": lambda v: _must(isinstance(v, list), "a list", v),
    # a list, or one number that stands for every entry (see _per)
    "numbers": lambda v: v if isinstance(v, (list, float)) else _real(v),
    "str": lambda v: _must(isinstance(v, str), "a string", v),
    "int": lambda v: int(_must(isinstance(v, numbers.Integral) and not isinstance(v, bool), "an integer", v)),
    "real": _real,
    "complex": _complex,
}


# A constraint takes a value of its kind and the walk, and returns the value
# normalized or raises _Bad.


def _rule(text: str, ok):
    """Constraint that ``ok(value)`` holds; ``text`` says what the value must be."""
    return lambda value, at: _must(ok(value), text, value)


_POSITIVE = _rule("positive", lambda v: v > 0)


def _tolerance(value, at):
    """The tolerance of every ODE path: positive, at least ``dynamics.TOL_MIN`` and below 1."""
    _POSITIVE(value, at)
    return _must(TOL_MIN <= value < 1.0, f"at least {TOL_MIN:.3g} (1000 machine epsilons) and below 1", value)


def _per(value, at):
    """One entry per site, or in a mode section (``params.field_modes``, ...) one per
    mode that the space declares there.  One number stands for every entry; in the
    ``initial`` section, so does an empty list for entries of defaults.
    """
    section = at.keys[-1]
    if section in _MODE_AMPLITUDE:
        n, counted = len(at.get(f"space.{section}")), section.replace("_", " ")
    else:
        n, counted = at.get("space.n_sites"), "sites"
    if not isinstance(value, list):
        value = [value] * n
    elif at.keys[0] == "initial" and not value:
        value = [{} for _ in range(n)]
    if len(value) != n:
        raise _Bad(f"has {len(value)} entries, space declares {n} {counted}")
    return value


def _boundary(value, at):
    _must(value in BOUNDARIES, f"one of {BOUNDARIES}", value)
    if value == "periodic" and at.get("space.n_sites") < 3:
        raise _Bad("must be open below 3 sites, got 'periodic'")
    return value


def _site_index(site, at):
    if not 0 <= site < at.get("space.n_sites"):
        raise _Bad(f"references missing site {site}")
    return site


def _fock_level(n, at):
    cutoff = at.get(f"space.{at.keys[1]}.{at.idx[0]}.cutoff")
    return _must(0 <= n <= cutoff, f"a Fock level from 0 to the cutoff {cutoff}", n)


def _sweep_path(path, at):
    """A path to an entry of the config: each key but the last as written, the last
    one written or defaulted.  Resolved in the raw config, so ``params.omegas.0`` is
    refused where ``omegas`` is one number, and in the checked tree, where every
    defaulted key is present, so a misspelt last key is refused.
    """
    try:
        _set_by_path(copy.deepcopy(at.raw), path, None)
        at.get(path)
    except (LookupError, TypeError, ValueError):
        raise _Bad(f"must name an entry of the config, got {path!r}") from None
    return path


def _exact_space_fits(space, at):
    """The exact space of the run stays under the cap; a mean-field run builds none."""
    if at.run_task() != "meanfield":
        try:
            _space_spec(space).check_dimension()
        except SpaceTooLargeError as exc:
            raise _Bad(f"fails for an exact run: {exc}") from None
    return space


def _no_mean_field_image(state: dict) -> str | None:
    """Why a checked mode state has no c-number amplitude (a Fock state above the vacuum), if so."""
    if state["kind"] == "fock" and state["n"] != 0:
        return (f"is a Fock state (n = {state['n']}), which has no mean-field amplitude; "
                "the meanfield and compare tasks need coherent or vacuum mode states")
    return None


def _mean_field_start(state, at):
    if at.run_task() in MEAN_FIELD_TASKS and (text := _no_mean_field_image(state)):
        raise _Bad(text)
    return state


# The config table, walked in order: (dotted path, kind, constraint, default).
# "*" in a path stands for each entry of a list; a row with "{modes}" stands
# for one row per bosonic section (field_modes, phonon_modes), "{amplitude}"
# for the key of its coherent amplitude (alpha, beta).  A constraint is None,
# a tuple of allowed values or a function (see above).  A key left out takes
# the default; _REQUIRED makes that a problem and None leaves the key out.
# Null stands for a section or list whose default is empty.  A row that reads
# another key (a count, the cutoff of a mode, the task) comes after that key's
# rows, and the last rows check what depends on the task that runs.
_ROWS = (
    ("task", "str", TASKS, "propagate"),
    ("seed", "int", _rule("non-negative", lambda v: v >= 0), 0),
    ("space", "mapping", None, {}),
    ("space.n_sites", "int", _POSITIVE, 1),
    ("space.{modes}", "list", None, []),
    ("space.{modes}.*", "mapping", None, None),
    ("space.{modes}.*.cutoff", "int", _POSITIVE, 1),
    ("params", "mapping", None, {}),
    ("params.site_energies", "list", _per, None),  # left out: read from omegas
    ("params.site_energies.*", "list", _rule("[lower, upper]", lambda pair: len(pair) == 2), None),
    ("params.site_energies.*.*", "real", None, None),
    ("params.site_energies.*", "list", _rule("in rising order", lambda pair: pair[0] < pair[1]), None),
    ("params.omegas", "numbers", _per, 1.0),
    ("params.omegas.*", "real", _POSITIVE, None),
    ("params.exchange_j", "real", None, 0.0),
    ("params.boundary", "str", _boundary, "open"),
    ("params.lattice_spacing", "real", None, 1.0),
    ("params.site_positions", "list", _per, None),
    ("params.site_positions.*", "real", None, None),
    ("params.coupling_mode", "str", COUPLING_MODES, STATIC_PHASE),
    ("params.dipole", "numbers", _per, 1.0),
    ("params.dipole.*", "real", None, None),
    ("params.{modes}", "list", _per, []),
    ("params.{modes}.*", "mapping", None, None),
    ("params.field_modes.*.omega", "real", _POSITIVE, _REQUIRED),
    ("params.field_modes.*.wavevector", "real", None, 0.0),
    ("params.field_modes.*.amplitude", "real", None, 0.0),
    ("params.field_modes.*.polarization_overlap", "numbers", _per, 1.0),
    ("params.field_modes.*.polarization_overlap.*", "real", None, None),
    ("params.phonon_modes.*.nu", "real", _POSITIVE, _REQUIRED),
    ("params.phonon_modes.*.coupling", "real", None, 0.0),
    ("params.drives", "list", None, []),
    ("params.drives.*", "mapping", None, None),
    ("params.drives.*.amplitude", "complex", None, 0.0),
    ("params.drives.*.frequency", "real", None, 0.0),
    ("params.drives.*.sites", "list", None, None),  # left out: every site
    ("params.drives.*.sites.*", "int", _site_index, None),
    ("initial", "mapping", None, {}),
    ("initial.sites", "list", _per, []),
    ("initial.sites.*", "mapping", None, None),
    ("initial.sites.*.kind", "str", ("ground", "excited", "angles"), "ground"),
    ("initial.sites.*.theta", "real", None, 0.0),
    ("initial.sites.*.phi", "real", None, 0.0),
    ("initial.{modes}", "list", _per, []),
    ("initial.{modes}.*", "mapping", None, None),
    ("initial.{modes}.*.kind", "str", ("fock", "coherent", "vacuum"), "fock"),
    ("initial.{modes}.*.n", "int", _fock_level, 0),
    ("initial.{modes}.*.{amplitude}", "complex", None, 0.0),
    ("integrate", "mapping", None, {}),
    ("integrate.tol", "real", _tolerance, 1e-10),
    ("integrate.t_end", "real", _POSITIVE, 10.0),
    ("integrate.n_out", "int", _rule(f"between 2 and {N_OUT_MAX}", lambda v: 2 <= v <= N_OUT_MAX), 201),
    ("output", "mapping", None, {}),
    ("output.directory", "str", None, "out"),
    ("output.formats", "list", None, ["csv", "json"]),
    ("output.formats.*", "str", ("csv", "json"), None),
    ("output.basename", "str", None, "trajectory"),
    ("verify", "mapping", None, {}),
    ("verify.draws", "int", _POSITIVE, 10),
    ("verify.eom_threshold", "real", _POSITIVE, 1e-11),
    ("verify.compact_threshold", "real", _POSITIVE, 1e-10),
    ("sweep", "mapping", None, None),
    ("sweep.path", "str", _sweep_path, _REQUIRED),
    ("sweep.values", "list", _rule("non-empty", len), _REQUIRED),
    ("sweep.task", "str", tuple(t for t in TASKS if t != "sweep"), "propagate"),
    ("space", "mapping", _exact_space_fits, None),
    ("initial.{modes}.*", "mapping", _mean_field_start, None),
)
_STEPS = tuple(
    (tuple(path.format(modes=section, amplitude=amplitude).split(".")), *rest)
    for path, *rest in _ROWS
    for section, amplitude in (_MODE_AMPLITUDE.items() if "{modes}" in path else [(None, None)])
)


def _failed(value) -> bool:
    """Whether an earlier row failed ``value`` or a value inside it."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return any(_failed(v) for v in value)
    return value is _FAILED


class _Walk:
    """One pass of ``_ROWS`` over a copy of a raw config.

    Each row normalizes its value in ``tree``, the copy, or records a problem
    and leaves ``_FAILED`` there.  A row skips a value that holds an earlier
    failure, so every fault is reported once, under its config path.  For the
    constraints, ``keys`` is the path of the row being checked and ``idx`` the
    list indices of the place.
    """

    def __init__(self, raw: dict):
        self.raw, self.tree, self.problems = raw, copy.deepcopy(raw), []
        for self.keys, kind, constraint, default in _STEPS:
            for node, key, name, self.idx in self._places(self.keys):
                problem = self._check(node, key, kind, constraint, default)
                if problem:
                    self.problems.append(f"{name} {problem}")
                    node[key] = _FAILED

    def _places(self, keys: tuple) -> list[tuple]:
        """``(container, key, name, list indices)`` of every place a path reaches,
        resolved from the places of the path one key shorter."""
        if len(keys) == 1:
            return [(self.tree, keys[0], keys[0], ())]
        places, key = [], keys[-1]
        for node, k, name, idx in self._places(keys[:-1]):
            child = node[k] if isinstance(node, list) else node.get(k)
            if key == "*" and isinstance(child, list):
                places += [(child, i, f"{name}[{i}]", idx + (i,)) for i in range(len(child))]
            elif key != "*" and isinstance(child, dict):
                places.append((child, key, f"{name}.{key}", idx))
        return places

    def _check(self, node, key, kind: str, constraint, default) -> str | None:
        """Normalizes the value at one place; returns what is wrong with it, if anything."""
        if isinstance(node, dict) and (key not in node or node[key] is None and default in ([], {})):
            if default is _REQUIRED:
                return "is required"
            value = node[key] = copy.copy(default)
            if value is None:
                return None
        else:
            value = node[key]
        if self.problems and _failed(value):
            return None
        try:
            value = _KINDS[kind](value)
            if isinstance(constraint, tuple):
                _must(value in constraint, f"one of {constraint}", value)
            elif constraint is not None:
                value = constraint(value, self)
        except _Skip:
            return None
        except _Bad as bad:
            return str(bad)
        node[key] = value
        return None

    def get(self, dotted: str):
        """A value of the tree that passed its rows: ``_Skip`` where it or a value on
        its path failed (or is null), ``LookupError`` where the tree has no such key."""
        node = self.tree
        try:
            for key in dotted.split("."):
                node = node[int(key) if isinstance(node, list) else key]
        except TypeError:
            raise _Skip from None
        if node is _FAILED:
            raise _Skip
        return node

    def run_task(self) -> str:
        """The task a run of the config executes; for a sweep, the task of its points."""
        task = self.get("task")
        return self.get("sweep.task") if task == "sweep" else task


_KNOWN_PATHS = {keys for keys, *_ in _STEPS}
_CONTAINER_PATHS = {keys for keys, kind, *_ in _STEPS if kind in ("mapping", "list")}


def _unknown_keys(node, path: tuple = (), name: str = "") -> list[str]:
    """A problem for every mapping key of a raw config whose path no row names (a list
    entry reads as ``*``).  Only values with a mapping or list row are entered, so
    the entries of ``sweep.values`` are not read as keys."""
    if isinstance(node, dict):
        children = [(path + (str(key),), f"{name}.{key}" if name else str(key), value)
                    for key, value in node.items()]
        problems = [f"{at} is not a known key" for keys, at, _ in children if keys not in _KNOWN_PATHS]
    else:
        children, problems = [(path + ("*",), f"{name}[{i}]", value) for i, value in enumerate(node)], []
    for keys, at, value in children:
        if keys in _CONTAINER_PATHS and isinstance(value, (dict, list)):
            problems += _unknown_keys(value, keys, at)
    return problems


# -- initial state assembly ----------------------------------------------------------


def initial_state(config: RunConfig, space: SpaceIndex) -> np.ndarray:
    """Exact product initial state from the config's ``initial`` section."""
    locals_ = [site_local_state(st["kind"], st["theta"], st["phi"]) for st in config.initial["sites"]]
    for section, amplitude in _MODE_AMPLITUDE.items():
        for st, mode in zip(config.initial[section], getattr(config.space_spec, section)):
            if st["kind"] == "coherent":
                locals_.append(coherent_local(st[amplitude], mode.cutoff))
            else:
                locals_.append(fock_local(st["n"] if st["kind"] == "fock" else 0, mode.cutoff))
    return product_state(space, locals_)


def initial_mean_field(config: RunConfig) -> MeanFieldState:
    """Mean-field image of the same initial product state.

    Raises ``ConfigError`` for a Fock mode state above the vacuum, which has no
    c-number amplitude.
    """
    problems = [
        f"initial.{section}[{i}] {text}"
        for section in _MODE_AMPLITUDE
        for i, st in enumerate(config.initial[section])
        if (text := _no_mean_field_image(st))
    ]
    if problems:
        raise ConfigError(problems)
    sites = config.initial["sites"]
    s_minus = np.zeros(len(sites), dtype=complex)
    s_z = np.zeros(len(sites))
    for l, st in enumerate(sites):
        if st["kind"] == "ground":
            s_minus[l], s_z[l] = 0.0, -1.0
        elif st["kind"] == "excited":
            s_minus[l], s_z[l] = 0.0, 1.0
        else:
            s_minus[l], s_z[l] = bloch_state(st["theta"], st["phi"])

    def amplitudes(section: str) -> np.ndarray:
        amplitude = _MODE_AMPLITUDE[section]
        return np.array([st[amplitude] if st["kind"] == "coherent" else 0.0 for st in config.initial[section]], dtype=complex)

    a = amplitudes("field_modes")
    b = amplitudes("phonon_modes")
    return MeanFieldState(s_minus, s_z, a, b)


# -- trajectory persistence --------------------------------------------------------------


def _column_order(records: dict) -> list[str]:
    """Fixed record order: the records of ``dynamics.RECORD_NAMES``, each
    subsystem's together by label, then norm, energy, the rest by name."""
    ordered = []
    for prefixes in dynamics.RECORD_NAMES.values():
        labels = {int(name[len(p):]) for name in records for p in prefixes
                  if name.startswith(p) and name[len(p):].isdecimal()}
        ordered += [f"{p}{i}" for i in sorted(labels) for p in prefixes if f"{p}{i}" in records]
    ordered += [name for name in ("norm", "energy") if name in records]
    return ordered + sorted(set(records) - set(ordered))


def _columns(traj: dynamics.Trajectory) -> list[tuple[str, np.ndarray]]:
    """The columns of a trajectory file: ``(name, block)`` for ``time`` and each
    record in ``_column_order``.  A block holds one real row per file column:
    one for a real record, the real and imaginary parts for a complex one."""
    columns = [("time", np.array([traj.times], dtype=float))]
    for name in _column_order(traj.records):
        values = np.asarray(traj.records[name])
        parts = [values.real, values.imag] if np.iscomplexobj(values) else [values]
        columns.append((name, np.array(parts, dtype=float)))
    return columns


def _record(block: np.ndarray) -> np.ndarray:
    """A record rebuilt from its block; the imaginary part is set, not added, so a -0.0 stays."""
    if len(block) == 1:
        return block[0]
    values = block[0].astype(np.complex128)
    values.imag = block[1]
    return values


def export_trajectory(traj: dynamics.Trajectory, fmt: str, path: str | Path) -> Path:
    """Write a trajectory to CSV or JSON (floats in round-trip precision)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    columns = _columns(traj)
    if fmt == "csv":
        blocks = [block for _, block in columns]
        row = "%r," * (sum(map(len, blocks)) - 1) + "%r\r\n"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerow([name + part for name, block in columns
                                     for part in (("",) if len(block) == 1 else ("_re", "_im"))])
            # the rows csv.writer writes (repr of each float, "\r\n" line ends), from one template per
            # CSV_ROWS rows, so that the text and the values of only those rows are held at once
            for lo in range(0, len(traj.times), CSV_ROWS):
                rows = np.vstack([block[:, lo:lo + CSV_ROWS] for block in blocks])
                fh.write((row * rows.shape[1]) % tuple(rows.T.ravel().tolist()))
    elif fmt == "json":
        (_, times), *records = columns
        meta = json.dumps(_jsonable(traj.meta), indent=1).replace("\n", "\n ")
        # the layout of json.dump(..., indent=1), written one record at a time
        with open(path, "w") as fh:
            fh.write(f'{{\n "times": {_json_values(times, 1)},\n "records": {{')
            for k, (name, block) in enumerate(records):
                dtype = "real" if len(block) == 1 else "complex"
                fh.write(f'{"," if k else ""}\n  {json.dumps(name)}: {{\n   "dtype": "{dtype}",\n'
                         f'   "values": {_json_values(block, 3)}\n  }}')
            fh.write(("\n }" if records else "}") + f',\n "meta": {meta}\n}}\n')
    else:
        raise ValueError(f"unknown trajectory format {fmt!r}")
    return path


def _json_values(block: np.ndarray, level: int) -> str:
    """A record block as ``json.dump(..., indent=1)`` writes its values at nesting ``level``:
    a list of floats for one row, a list of ``[re, im]`` pairs for two.

    The C encoder that ``json`` uses without ``indent`` is not available with it, so the
    text is ``float.__repr__`` of each value, which is what ``json`` writes for a finite
    float, put in place by one ``%r`` template per block; in a block with a non-finite
    value ``nan`` and ``inf`` become ``NaN`` and ``Infinity`` as in ``json``.
    """
    if block.shape[1] == 0:
        return "[]"
    pad, close = "\n" + " " * (level + 1), "\n" + " " * level + "]"
    item = "%r"
    if len(block) == 2:  # re, im of each point
        inner = "\n" + " " * (level + 2)
        item = f"[{inner}%r,{inner}%r{pad}]"
    text = ("," + pad).join([item] * block.shape[1]) % tuple(block.T.ravel().tolist())
    if not np.isfinite(block).all():
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return "[" + pad + text + close


def import_trajectory(path: str | Path) -> dynamics.Trajectory:
    """Read a trajectory written by :func:`export_trajectory`."""
    path = Path(path)
    meta = {}
    if path.suffix == ".json":
        with open(path) as fh:
            payload = json.load(fh)
        meta = payload.get("meta", {})
        columns = [("time", np.array([payload["times"]], dtype=float))] + [
            (name, np.array(rec["values"], dtype=float).reshape(-1, 2).T if rec["dtype"] == "complex"
             else np.array([rec["values"]], dtype=float))
            for name, rec in payload["records"].items()
        ]
    else:
        with open(path, newline="") as fh:
            first, *rows = fh.readlines()
        header = next(csv.reader([first]))
        # numpy's C parser reads the body (a "#" is a bad cell, not a comment); it warns on no rows,
        # the file of a trajectory of no points
        table = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2) if rows else np.empty((0, len(header)))
        if table.shape != (len(rows), len(header)):  # loadtxt skips a blank line; csv.writer writes none
            raise ValueError(f"{path}: expected {len(rows)} rows of {len(header)} values, read {table.shape}")
        table = table.T.copy()
        columns, col = [], 0
        while col < len(header):
            name = header[col]
            pair = name.endswith("_re") and header[col + 1 : col + 2] == [name[:-3] + "_im"]
            columns.append((name[:-3] if pair else name, table[col : col + 1 + pair]))
            col += 1 + pair
    (_, times), *records = columns
    records = {name: _record(block) for name, block in records}
    return dynamics.Trajectory(times=times[0], records=records, meta=meta)


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
    reason: str = ""  # why the check could not run as asked; summary line only

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"{status} {self.name}: measured {self.measured:.3e} vs tolerance {self.tolerance:.1e}"
        return f"{line} -- {' '.join(self.reason.split())}" if self.reason else line


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
        exchange_j=rng.uniform(-0.3, 0.3),
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
        path = export_trajectory(traj, fmt, out_dir / f"{basename}.{fmt}")
        files.append(path.relative_to(out_dir).as_posix())
    return files


def _exact_run(config: RunConfig) -> dynamics.Trajectory:
    space, integ = config.build_space(), config.integrate
    return dynamics.propagate(space, config.params, initial_state(config, space), integ["t_end"],
                              tol=integ["tol"], n_out=integ["n_out"])


def _mean_field_run(config: RunConfig) -> dynamics.Trajectory:
    integ = config.integrate
    return meanfield.mf_propagate(initial_mean_field(config), config.params, integ["t_end"],
                                  tol=integ["tol"], n_out=integ["n_out"])


def _task_propagate(config: RunConfig, out_dir: Path, report: RunReport, **_):
    traj = _exact_run(config)
    report.results["meta"] = traj.meta
    report.trajectory_files += _write_trajectory(config, traj, out_dir, config.output["basename"])
    report.checks.append(
        Check("norm_drift", dynamics.NORM_DRIFT_WARNING, traj.meta["norm_drift"],
              traj.meta["norm_drift"] <= dynamics.NORM_DRIFT_WARNING)
    )


def _task_meanfield(config: RunConfig, out_dir: Path, report: RunReport, **_):
    traj = _mean_field_run(config)
    report.results["meta"] = traj.meta
    report.trajectory_files += _write_trajectory(
        config, traj, out_dir, config.output["basename"] + "_meanfield"
    )


def _task_compare(config: RunConfig, out_dir: Path, report: RunReport, **_):
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


def _task_verify_eom(config: RunConfig, out_dir: Path, report: RunReport, **_):
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


def _task_verify_compact(config: RunConfig, out_dir: Path, report: RunReport, **_):
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
    """(index, entry) of one point: its report, or the problem that stopped it."""
    raw, index, out_dir, verbose = args
    try:
        report = run(config_from_dict(raw), out_dir=Path(out_dir) / f"point_{index:03d}", verbose=verbose)
    except (ConfigError, dynamics.PropagationError) as exc:
        return index, {"error": str(exc)}
    return index, {"report": report.to_dict()}


def _task_sweep(config: RunConfig, out_dir: Path, report: RunReport, verbose: bool, workers: int):
    sweep = config.sweep
    if sweep is None:
        raise ConfigError(["the sweep task needs a sweep section"])
    jobs = []
    for i, value in enumerate(sweep["values"]):
        raw = copy.deepcopy(config.raw)
        raw["task"] = sweep["task"]
        _set_by_path(raw, sweep["path"], value)  # a path config_from_dict resolved
        raw.pop("sweep")
        jobs.append((raw, i, str(out_dir), verbose))
    results = {}
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            for index, rep in pool.map(_run_sweep_point, jobs):
                results[index] = rep
    else:
        for job in jobs:
            index, rep = _run_sweep_point(job)
            results[index] = rep
    report.results["points"] = [{"value": sweep["values"][i], **results[i]} for i in sorted(results)]
    report.results["path"] = sweep["path"]
    # one check per point, measuring how many of the point's checks failed; a point stopped
    # by a problem counts one, and its summary line gives the problem
    for i in sorted(results):
        failed = sum(not c["passed"] for c in results[i]["report"]["checks"]) if "report" in results[i] else 1
        report.checks.append(Check(f"point {i} ({sweep['path']} = {sweep['values'][i]})", 0, failed, failed == 0,
                                   results[i].get("error", "")))


# The function that executes each task, called with the run's worker count and
# verbosity; only a sweep reads them, for its points.
_TASK_FUNCTIONS = {
    "propagate": _task_propagate,
    "meanfield": _task_meanfield,
    "compare": _task_compare,
    "verify_eom": _task_verify_eom,
    "verify_compact": _task_verify_compact,
    "sweep": _task_sweep,
}


def run(
    config: RunConfig,
    out_dir: str | Path | None = None,
    workers: int = 1,
    verbose: bool = False,
    task_override: str | None = None,
) -> RunReport:
    """Run a validated config; write its report (also when a ``PropagationError`` stops it) and trajectory files."""
    task = task_override or config.task
    if task not in _TASK_FUNCTIONS:
        raise ConfigError([f"unknown task {task!r}"])
    out_dir = Path(out_dir) if out_dir is not None else Path(config.output["directory"])
    out_dir.mkdir(parents=True, exist_ok=True)
    report = RunReport(task=task, config_hash=config.config_hash, seed=config.seed)
    started, failure = _time.perf_counter(), None
    try:
        _TASK_FUNCTIONS[task](config, out_dir, report, workers=workers, verbose=verbose)
    except dynamics.PropagationError as exc:  # recorded as a failed sweep point is, then raised
        failure = exc
        report.results["error"] = str(exc)
        report.checks.append(Check("propagation", 0, 1, False, str(exc)))
    report.elapsed_seconds = _time.perf_counter() - started
    report.save(out_dir / "report.json")
    if verbose:
        print(report.summary())
    if failure is not None:
        raise failure
    return report
