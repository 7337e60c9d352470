import csv
import io
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from numpy.testing import assert_allclose

import chainqed
from chainqed import cli, runner
from chainqed.dynamics import Trajectory
from chainqed.runner import (
    ConfigError,
    config_from_dict,
    draw_params,
    export_trajectory,
    import_trajectory,
    initial_mean_field,
    initial_state,
    load_config,
    run,
)

MINIMAL = """
task: propagate
space:
  n_sites: 1
params:
  omegas: [1.0]
integrate:
  t_end: 2.0
  n_out: 11
"""

COUPLED = """
task: propagate
seed: 7
space:
  n_sites: 2
  field_modes:
    - {cutoff: 4}
params:
  site_energies: [[-0.5, 0.5], [-0.45, 0.55]]
  exchange_j: 0.05
  field_modes:
    - {omega: 1.0, amplitude: 0.1, polarization_overlap: [1.0, 0.8]}
initial:
  sites:
    - {kind: angles, theta: 1.0}
    - {kind: ground}
  field_modes:
    - {kind: coherent, alpha: 0.5}
integrate:
  tol: 1.0e-10
  t_end: 4.0
  n_out: 21
output:
  formats: [csv, json]
"""


def write_config(tmp_path, text, name="config.yaml") -> Path:
    path = tmp_path / name
    path.write_text(text)
    return path


def test_minimal_config_valid(tmp_path):
    config = load_config(write_config(tmp_path, MINIMAL))
    assert config.task == "propagate"
    assert config.space_spec.n_sites == 1
    assert config.params.omegas == (1.0,)


def test_missing_file_reported():
    with pytest.raises(ConfigError, match="not found"):
        load_config("does_not_exist.yaml")


def test_mode_reference_beyond_declared_is_named():
    raw = {
        "space": {"n_sites": 1, "field_modes": [{"cutoff": 2}]},
        "params": {
            "omegas": [1.0],
            "field_modes": [{"omega": 1.0}, {"omega": 2.0}],
        },
    }
    with pytest.raises(ConfigError, match="space declares 1 field modes"):
        config_from_dict(raw)


def test_validation_errors_aggregated():
    raw = {
        "task": "nonsense",
        "space": {"n_sites": 0},
        "params": {"site_energies": [[0.5, -0.5]]},
        "integrate": {"tol": -1.0, "t_end": 0.0},
    }
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw)
    text = str(err.value)
    assert "task" in text
    assert "n_sites" in text
    assert "tol" in text
    assert "t_end" in text
    assert len(err.value.problems) >= 4


def _valid_raw() -> dict:
    return {
        "space": {"n_sites": 2, "field_modes": [{"cutoff": 3}], "phonon_modes": [{"cutoff": 2}]},
        "params": {
            "omegas": [1.0, 1.0],
            "exchange_j": 0.05,
            "field_modes": [{"omega": 1.0, "amplitude": 0.1}],
            "phonon_modes": [{"nu": 0.5, "coupling": 0.1}],
        },
        "integrate": {"tol": 1e-10, "t_end": 5.0, "n_out": 11},
    }


NAN, INF = float("nan"), float("inf")
OUT_OF_RANGE = [
    # (section, key, value, text naming the problem)
    ("params", "omegas", [NAN, 1.0], "params.omegas[0]"),
    ("params", "omegas", [1.0, INF], "params.omegas[1]"),
    ("params", "site_energies", [[-0.5, 0.5], [NAN, 0.5]], "params.site_energies[1]"),
    ("params", "site_energies", [[-INF, 0.5], [-0.5, 0.5]], "params.site_energies[0]"),
    ("params", "site_energies", [[-0.5, 0.5], 0.3], "params.site_energies[1]"),
    ("params", "exchange_j", NAN, "params.exchange_j"),
    ("params", "exchange_j", -INF, "params.exchange_j"),
    ("params", "field_modes", [{"omega": NAN}], "params.field_modes[0].omega"),
    ("params", "field_modes", [{"omega": INF}], "params.field_modes[0].omega"),
    ("params", "phonon_modes", [{"nu": NAN}], "params.phonon_modes[0].nu"),
    ("integrate", "tol", INF, "integrate.tol"),
    ("integrate", "tol", NAN, "integrate.tol"),
    ("integrate", "t_end", INF, "integrate.t_end"),
    ("integrate", "n_out", 10**6 + 1, "integrate.n_out"),
]


@pytest.mark.parametrize("section,key,value,named", OUT_OF_RANGE,
                         ids=[f"{c[1]}={c[2]!r}" for c in OUT_OF_RANGE])
def test_non_finite_and_out_of_range_values_rejected(section, key, value, named):
    config_from_dict(_valid_raw())
    raw = _valid_raw()
    raw[section][key] = value
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw)
    assert any(named in problem for problem in err.value.problems), err.value.problems


@pytest.mark.parametrize("refused,accepted",
                         [(2.0, 0.5), (1.0, 0.999), (100 * float(np.finfo(float).eps), 1000 * float(np.finfo(float).eps))],
                         ids=["above-one", "one", "below-1000-eps"])
def test_integrator_tolerance_outside_its_range_refused(refused, accepted):
    # tol 2.0 once ran a compare with norm drift 0.13; LSODA refuses an rtol (tol / 10) below 100 eps
    raw = _valid_raw()
    raw["integrate"]["tol"] = accepted
    assert config_from_dict(raw).integrate["tol"] == accepted
    raw["integrate"]["tol"] = refused
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw)
    assert err.value.problems == [
        f"integrate.tol must be at least 2.22e-13 (1000 machine epsilons) and below 1, got {refused!r}"
    ]


MALFORMED = [
    # (dotted path into the valid config, value, text naming the problem)
    ("space", [{"n_sites": 2}], "space must be a mapping"),
    ("params.field_modes.0", 1.5, "params.field_modes[0] must be a mapping"),
    ("params.phonon_modes.0", "soft", "params.phonon_modes[0] must be a mapping"),
    ("initial.field_modes", [None], "initial.field_modes[0] must be a mapping"),
    ("integrate.tol", "abc", "integrate.tol"),
    ("integrate.n_out", "many", "integrate.n_out"),
    ("params.drives", [{"amplitude": 0.1, "frequency": 1.0, "sites": ["x"]}], "params.drives[0].sites"),
    ("initial.field_modes", [{"kind": "fock", "n": 4}], "initial.field_modes[0].n"),
    ("initial.phonon_modes", [{"kind": "fock", "n": 3}], "initial.phonon_modes[0].n"),
    ("initial.phonon_modes", [{"kind": "fock", "n": -1}], "initial.phonon_modes[0].n"),
    ("initial.field_modes", [{"kind": "coherent", "alpha": "abc"}], "initial.field_modes[0].alpha"),
    ("initial.sites", [{"kind": "angles", "theta": NAN}, {}], "initial.sites[0].theta"),
    ("params.field_modes.0.amplitude", NAN, "params.field_modes[0].amplitude"),
    ("params.field_modes.0.wavevector", INF, "params.field_modes[0].wavevector"),
    ("params.field_modes.0.polarization_overlap", [1.0, NAN],
     "params.field_modes[0].polarization_overlap[1]"),
    ("params.phonon_modes.0.coupling", -INF, "params.phonon_modes[0].coupling"),
    ("params.dipole", [1.0, INF], "params.dipole[1]"),
    ("params.dipole", NAN, "params.dipole[0]"),
    ("params.lattice_spacing", NAN, "params.lattice_spacing"),
    ("params.site_positions", [0.0, -INF], "params.site_positions[1]"),
    ("params.drives", [{"amplitude": [0.1, NAN], "frequency": 1.0}], "params.drives[0].amplitude"),
    ("params.drives", [{"amplitude": 0.1, "frequency": INF}], "params.drives[0].frequency"),
    ("params.omegas", None, "params.omegas"),
    ("params.site_energies", None, "params.site_energies"),
    ("params.site_energies", 5, "params.site_energies"),
    ("output.formats", None, "output.formats"),
    ("output.formats", 5, "output.formats"),
    ("sweep", {"path": 5, "values": [0.1]}, "sweep.path"),
    ("sweep", {"path": "params.omegas.x", "values": [0.1]}, "sweep.path"),
    ("sweep", {"path": "params.exchange_j", "values": 3}, "sweep.values"),
    ("sweep", {"path": "params.exchnage_j", "values": [0.1]}, "sweep.path"),
    ("verify.draws", 0, "verify.draws"),
    ("verify.draws", -3, "verify.draws"),
    ("verify.draws", "many", "verify.draws"),
    ("verify.eom_threshold", "x", "verify.eom_threshold"),
    ("verify.compact_threshold", 0.0, "verify.compact_threshold"),
    ("seed", True, "seed"),
    ("space.n_sites", True, "space.n_sites"),
    ("space.field_modes.0.cutoff", True, "space.field_modes[0].cutoff"),
    ("params.exchange_j", True, "params.exchange_j"),
    ("params.field_modes.0.omega", True, "params.field_modes[0].omega"),
    ("integrate.n_out", 2.7, "integrate.n_out"),
]


def _set(raw: dict, path: str, value) -> dict:
    """``raw`` with ``value`` at a dotted path; missing sections are created."""
    *parents, last = path.split(".")
    node = raw
    for key in parents:
        node = node[int(key)] if isinstance(node, list) else node.setdefault(key, {})
    node[int(last) if isinstance(node, list) else last] = value
    return raw


@pytest.mark.parametrize("path,value,named", MALFORMED,
                         ids=[f"{c[0]}={c[1]!r}" for c in MALFORMED])
def test_malformed_values_end_in_config_error(path, value, named):
    raw = _valid_raw()
    raw["initial"] = {}
    with pytest.raises(ConfigError) as err:
        config_from_dict(_set(raw, path, value))
    assert any(named in problem for problem in err.value.problems), err.value.problems


ONE_FAULT = [
    # (dotted path into the valid config, value with one fault, text naming it)
    ("params.drives", [{"amplitude": 0.1, "sites": [3]}], "missing site 3"),
    ("params.field_modes", [{"omega": 1.0}, {"omega": 2.0}], "space declares 1 field modes"),
    ("params.dipole", [1.0], "params.dipole"),
    ("params.field_modes.0.polarization_overlap", [1.0], "params.field_modes[0].polarization_overlap"),
    ("params.site_energies", [[0.5, -0.5], [-0.5, 0.5]], "params.site_energies[0]"),
]


@pytest.mark.parametrize("path,value,named", ONE_FAULT, ids=[c[0] for c in ONE_FAULT])
def test_each_fault_reported_once(path, value, named):
    with pytest.raises(ConfigError) as err:
        config_from_dict(_set(_valid_raw(), path, value))
    assert len(err.value.problems) == 1 and named in err.value.problems[0], err.value.problems


UNKNOWN_KEYS = [
    # (dotted path into the valid config, value holding a key no row names, that key's config path)
    ("integrate.t_ned", 5, "integrate.t_ned"),
    ("integrate.keep_states", "no", "integrate.keep_states"),
    ("params.drives", [{"amplitude": 0.1, "freq": 1.0}], "params.drives[0].freq"),
    ("initial.field_modes", [{"kind": "coherent", "beta": 0.5}], "initial.field_modes[0].beta"),
    # the entries of sweep.values are values, not keys
    ("sweep", {"path": "params.exchange_j", "values": [{"x": 1}], "points": 3}, "sweep.points"),
]


@pytest.mark.parametrize("path,value,named", UNKNOWN_KEYS, ids=[c[2] for c in UNKNOWN_KEYS])
def test_unknown_keys_refused(path, value, named):
    with pytest.raises(ConfigError) as err:
        config_from_dict(_set(_valid_raw(), path, value))
    assert err.value.problems == [f"{named} is not a known key"]


def test_unknown_key_reported_with_other_faults(tmp_path):
    text = MINIMAL.replace("t_end: 2.0", "t_ned: 5\n  tol: -1.0")
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, text))
    assert err.value.problems == ["integrate.tol must be positive, got -1.0", "integrate.t_ned is not a known key"]


def test_yaml_exponent_numbers_accepted(tmp_path):
    # YAML 1.1 loads an exponent without a dot (1e-12) as a string
    raw = _valid_raw()
    raw["integrate"].update(tol="1e-12", t_end="5e0")
    raw["params"]["field_modes"][0].update(amplitude="5e-3", polarization_overlap="1e0")
    raw["params"]["site_energies"] = [["-5e-1", "5e-1"], [-0.5, 0.5]]
    raw["verify"] = {"eom_threshold": "1e-11"}
    config = load_config(write_config(tmp_path, yaml.safe_dump(raw).replace("'", "")))
    assert config.integrate["tol"] == 1e-12 and config.integrate["t_end"] == 5.0
    assert config.params.field_modes[0].amplitude == 5e-3
    assert config.params.field_modes[0].polarization_overlap == (1.0, 1.0)
    assert config.params.site_energies[0] == (-0.5, 0.5)
    assert config.verify["eom_threshold"] == 1e-11
    with pytest.raises(ConfigError, match="params.exchange_j must be a finite number"):
        config_from_dict(_set(_valid_raw(), "params.exchange_j", "1e400"))


@pytest.mark.parametrize("path,omegas,ok", [
    ("params.exchange_j", [1.0, 1.0], True),
    ("params.lattice_spacing", [1.0, 1.0], True),  # left out, so defaulted
    ("params.site_energies.0.1", [1.0, 1.0], False),  # left out: no entry 0
    ("params.omegas.0", [1.0, 1.0], True),
    ("params.omegas.0", 1.0, False),  # one number stands for every site, but has no entry 0
    ("params.exchnage_j", [1.0, 1.0], False),
])
def test_sweep_path_names_an_entry_of_the_config(path, omegas, ok):
    raw = _set(_valid_raw(), "params.omegas", omegas)
    raw.update(task="sweep", sweep={"path": path, "values": [0.2]})
    if ok:
        assert config_from_dict(raw).sweep["path"] == path
    else:
        with pytest.raises(ConfigError) as err:
            config_from_dict(raw)
        assert err.value.problems == [f"sweep.path must name an entry of the config, got {path!r}"]


def test_sweep_over_a_level_pair_entry():
    raw = _valid_raw()
    raw["params"]["site_energies"] = [[-0.5, 0.5], [-0.5, 0.5]]
    raw.update(task="sweep", sweep={"path": "params.site_energies.0.1", "values": [0.6]})
    assert config_from_dict(raw).sweep["path"] == "params.site_energies.0.1"


def test_fock_levels_up_to_the_cutoff_accepted():
    raw = _valid_raw()
    raw["initial"] = {"field_modes": [{"kind": "fock", "n": 3}], "phonon_modes": [{"kind": "fock", "n": 2}]}
    config = config_from_dict(raw)
    psi = initial_state(config, config.build_space())
    assert_allclose(np.linalg.norm(psi), 1.0, atol=1e-14)


def test_drive_site_reference_checked():
    raw = {
        "space": {"n_sites": 1},
        "params": {"omegas": [1.0], "drives": [{"amplitude": 0.1, "frequency": 1.0, "sites": [3]}]},
    }
    with pytest.raises(ConfigError, match="missing site 3"):
        config_from_dict(raw)


def test_initial_state_builders(tmp_path):
    config = load_config(write_config(tmp_path, COUPLED))
    space = config.build_space()
    psi = initial_state(config, space)
    assert_allclose(np.linalg.norm(psi), 1.0, atol=1e-14)
    mf = initial_mean_field(config)
    assert mf.n_sites == 2
    assert_allclose(mf.a[0], 0.5)
    assert_allclose(mf.s_z[1], -1.0)


FOCK_FIELD = COUPLED.replace("{kind: coherent, alpha: 0.5}", "{kind: fock, n: 1}")


def _names_fock_field(problems) -> bool:
    return any(p.startswith("initial.field_modes[0]") and "Fock state (n = 1)" in p for p in problems)


@pytest.mark.parametrize("task", ["meanfield", "compare"])
def test_fock_field_state_refused_for_mean_field_tasks(tmp_path, task):
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, FOCK_FIELD.replace("task: propagate", f"task: {task}")))
    assert _names_fock_field(err.value.problems), err.value.problems
    # the exact task accepts the same state, and the mean-field reader refuses it
    config = load_config(write_config(tmp_path, FOCK_FIELD))
    with pytest.raises(ConfigError) as err:
        initial_mean_field(config)
    assert _names_fock_field(err.value.problems), err.value.problems


@pytest.mark.parametrize("command", ["meanfield", "compare", "run"])
def test_cli_fock_field_state_exits_2(tmp_path, capsys, command):
    text = FOCK_FIELD if command != "run" else FOCK_FIELD.replace("task: propagate", "task: compare")
    code = cli.main([command, "--config", str(write_config(tmp_path, text)), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "initial.field_modes[0]" in err and "Traceback" not in err
    assert not (tmp_path / "out" / "trajectory_exact.csv").exists()


@pytest.mark.parametrize("workers", [1, 2])
def test_cli_sweep_point_with_fock_field_state_fails_that_point(tmp_path, capsys, workers):
    text = FOCK_FIELD.replace("task: propagate", "task: sweep").replace("n: 1}", "n: 0}") + """
sweep:
  path: initial.field_modes.0.n
  values: [0, 1]
  task: meanfield
"""
    path = write_config(tmp_path, text)
    code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out"), "--workers", str(workers)])
    assert code == 1
    captured = capsys.readouterr()
    assert "PASS point 0 (initial.field_modes.0.n = 0)" in captured.out
    assert "FAIL point 1 (initial.field_modes.0.n = 1)" in captured.out
    assert "Traceback" not in captured.err
    points = json.loads((tmp_path / "out" / "report.json").read_text())["results"]["points"]
    assert "initial.field_modes[0]" in points[1]["error"]
    # a sweep whose subtask is mean-field is refused at validation
    path.write_text(text.replace("n: 0}", "n: 1}"))
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert _names_fock_field(exc.value.problems), exc.value.problems


def test_cli_sweep_prints_why_a_point_was_refused(tmp_path, capsys):
    text = """
task: sweep
space: {n_sites: 1}
integrate: {t_end: 1.0, n_out: 5}
sweep: {path: space.n_sites, values: [1, 0], task: propagate}
"""
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(write_config(tmp_path, text)), "--out", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if line.startswith("FAIL point 1 (space.n_sites = 0)")]
    assert len(failed) == 1
    assert "space.n_sites must be positive, got 0" in failed[0]
    point = json.loads((out / "report.json").read_text())["results"]["points"][1]
    assert "space.n_sites must be positive, got 0" in point["error"]


def test_sweep_task_without_sweep_section_exits_2(tmp_path, capsys):
    code = cli.main(["sweep", "--config", str(write_config(tmp_path, COUPLED)), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "needs a sweep section" in err and "Traceback" not in err


def test_config_error_survives_pickling():
    err = ConfigError(["first problem", "second problem"])
    back = pickle.loads(pickle.dumps(err))
    assert back.problems == err.problems and str(back) == str(err)


def test_mode_entries_read_alike_by_both_initial_states(tmp_path):
    raw = _valid_raw()
    raw["initial"] = {"field_modes": [{"kind": "coherent", "alpha": [0.3, -0.2]}],
                      "phonon_modes": [{"kind": "coherent", "beta": 0.4}]}
    config = config_from_dict(raw)
    space = config.build_space()
    psi = initial_state(config, space)
    mf = initial_mean_field(config)
    a_op = np.kron(np.eye(4), np.kron(np.diag(np.sqrt(np.arange(1, 4)), 1), np.eye(3)))
    b_op = np.kron(np.eye(16), np.diag(np.sqrt(np.arange(1, 3)), 1))
    assert_allclose(mf.a, [0.3 - 0.2j])
    assert_allclose(mf.b, [0.4])
    assert_allclose(np.vdot(psi, a_op @ psi), 0.3 - 0.2j, atol=0.05)
    assert_allclose(np.vdot(psi, b_op @ psi), 0.4, atol=0.05)
    # a missing kind reads as a Fock state in both, and vacuum as Fock level 0
    raw["initial"] = {"field_modes": [{"n": 2}], "phonon_modes": [{"kind": "vacuum", "n": 2}]}
    config = config_from_dict(raw)
    psi = initial_state(config, space)
    n_op = np.kron(np.eye(4), np.kron(np.diag(np.arange(4.0)), np.eye(3)))
    nb_op = np.kron(np.eye(16), np.diag(np.arange(3.0)))
    assert_allclose([np.vdot(psi, n_op @ psi), np.vdot(psi, nb_op @ psi)], [2.0, 0.0], atol=1e-14)
    with pytest.raises(ConfigError):
        initial_mean_field(config)


# -- trajectory persistence -------------------------------------------------------


def sample_trajectory(n=5):
    times = np.linspace(0.0, 1.0, n)
    rng = np.random.default_rng(12)
    return Trajectory(
        times=times,
        records={
            "sigma_minus_0": rng.normal(size=n) + 1j * rng.normal(size=n),
            "sigma_plus_0": rng.normal(size=n) + 1j * rng.normal(size=n),
            "sigma_z_0": rng.normal(size=n),
            "a_0": rng.normal(size=n) + 1j * rng.normal(size=n),
            "n_0": rng.uniform(size=n),
            "norm": np.ones(n),
            "energy": rng.normal(size=n),
        },
        meta={"tol": 1e-10},
    )


def golden_trajectory():
    """Three points with signed zeros, subnormals and NaN, records in no particular order."""
    return Trajectory(
        times=np.array([0.0, 0.1, 0.2]),
        records={
            "bloch_0": np.array([1.0, 1e-300, -0.0]),
            "energy": np.array([-0.5, NAN, 2.5e-16]),
            "a_0": np.array([complex(-0.0, 0.0), complex(5e-324, -0.0), complex(NAN, 1.0)]),
            "sigma_z_0": np.array([-1.0, -0.0, 5e-324]),
            "n_0": np.array([0.0, 1e-300, 1.0 / 3.0]),
            "sigma_minus_0": np.array([complex(0.1, -0.2), complex(-0.0, 1e-300), complex(1.0, NAN)]),
        },
        meta={"tol": 1e-10, "kind": "golden"},
    )


GOLDEN_CSV = "\r\n".join([
    "time,sigma_minus_0_re,sigma_minus_0_im,sigma_z_0,a_0_re,a_0_im,n_0,energy,bloch_0",
    "0.0,0.1,-0.2,-1.0,-0.0,0.0,0.0,-0.5,1.0",
    "0.1,-0.0,1e-300,-0.0,5e-324,-0.0,1e-300,nan,1e-300",
    "0.2,1.0,nan,5e-324,nan,1.0,0.3333333333333333,2.5e-16,-0.0",
    "",
])

GOLDEN_JSON = """\
{
 "times": [
  0.0,
  0.1,
  0.2
 ],
 "records": {
  "sigma_minus_0": {
   "dtype": "complex",
   "values": [
    [
     0.1,
     -0.2
    ],
    [
     -0.0,
     1e-300
    ],
    [
     1.0,
     NaN
    ]
   ]
  },
  "sigma_z_0": {
   "dtype": "real",
   "values": [
    -1.0,
    -0.0,
    5e-324
   ]
  },
  "a_0": {
   "dtype": "complex",
   "values": [
    [
     -0.0,
     0.0
    ],
    [
     5e-324,
     -0.0
    ],
    [
     NaN,
     1.0
    ]
   ]
  },
  "n_0": {
   "dtype": "real",
   "values": [
    0.0,
    1e-300,
    0.3333333333333333
   ]
  },
  "energy": {
   "dtype": "real",
   "values": [
    -0.5,
    NaN,
    2.5e-16
   ]
  },
  "bloch_0": {
   "dtype": "real",
   "values": [
    1.0,
    1e-300,
    -0.0
   ]
  }
 },
 "meta": {
  "tol": 1e-10,
  "kind": "golden"
 }
}
"""


@pytest.mark.parametrize("fmt,expected", [("csv", GOLDEN_CSV), ("json", GOLDEN_JSON)])
def test_trajectory_files_match_golden_text(tmp_path, fmt, expected):
    path = export_trajectory(golden_trajectory(), fmt, tmp_path / f"golden.{fmt}")
    assert path.read_bytes() == expected.encode()


@pytest.mark.filterwarnings("error")  # a trajectory of no points is a header alone: read without a warning
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_round_trip_bitwise(tmp_path, fmt):
    one_point = Trajectory(times=np.array([0.5]), records={"sigma_minus_0": np.array([complex(-0.0, 1e-300)]),
                                                           "sigma_z_0": np.array([-INF])})
    for traj in (sample_trajectory(), golden_trajectory(), JSON_DUMP_CASES["empty"], JSON_DUMP_CASES["no-records"],
                 one_point):
        path = export_trajectory(traj, fmt, tmp_path / f"t.{fmt}")
        back = import_trajectory(path)
        assert np.array_equal(back.times.view(np.uint64), traj.times.view(np.uint64))
        assert list(back.records) == runner._column_order(traj.records)
        for name, arr in traj.records.items():
            assert back.records[name].dtype == arr.dtype, name
            assert np.array_equal(back.records[name].view(np.uint64), arr.view(np.uint64)), name


@pytest.mark.parametrize("rows", [1, 2, 3, 512])
def test_csv_written_in_blocks_of_rows_is_csv_writer_text(tmp_path, monkeypatch, rows):
    # 7 rows: blocks of 1, 2 and 3 rows leave a short last block, 512 takes them at once
    traj = sample_trajectory(7)
    monkeypatch.setattr(runner, "CSV_ROWS", rows)
    path = export_trajectory(traj, "csv", tmp_path / "t.csv")
    columns = runner._columns(traj)
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow([name + part for name, block in columns for part in (("",) if len(block) == 1 else ("_re", "_im"))])
    writer.writerows(np.vstack([block for _, block in columns]).T.tolist())
    assert path.read_bytes() == text.getvalue().encode()


def _json_dump_text(traj) -> str:
    """The trajectory file as ``json.dump(..., indent=1)`` writes the same payload."""
    (_, times), *records = runner._columns(traj)
    payload = {
        "times": times[0].tolist(),
        "records": {
            name: {"dtype": "real", "values": block[0].tolist()} if len(block) == 1
            else {"dtype": "complex", "values": block.T.tolist()}
            for name, block in records
        },
        "meta": runner._jsonable(traj.meta),
    }
    return json.dumps(payload, indent=1) + "\n"


JSON_DUMP_CASES = {
    "non-finite": Trajectory(
        times=np.array([0.0, 0.5, 1.0]),
        records={
            "sigma_z_0": np.array([NAN, INF, -INF]),
            "a_0": np.array([complex(-0.0, INF), complex(-INF, NAN), complex(0.0, -0.0)]),
            "energy": np.array([-0.0, 1e300, -2.5e-16]),
        },
        # meta text that holds "nan" and "inf" stays as written
        meta={"backend_reason": "info: nan or inf", "drift": NAN, "bound": -INF, "steps": [1, 2]},
    ),
    "empty": Trajectory(
        times=np.array([]),
        records={"sigma_minus_0": np.array([], dtype=complex), "sigma_z_0": np.array([])},
    ),
    "no-records": Trajectory(times=np.array([0.0]), records={}, meta={"empty": {}}),
}


@pytest.mark.parametrize("case", list(JSON_DUMP_CASES))
def test_json_file_matches_json_dump(tmp_path, case):
    traj = JSON_DUMP_CASES[case]
    path = export_trajectory(traj, "json", tmp_path / "t.json")
    assert path.read_text() == _json_dump_text(traj)


@pytest.mark.parametrize("body", ["0.0,1.0,2.0\r\n0.5,1.0\r\n", "0.0,1.0,2.0\r\n0.5,1.0,x\r\n",
                                  "0.0,1.0\r\n0.5,1.0\r\n", "0.0,1.0,2.0\r\n\r\n0.5,1.0,2.0\r\n"],
                         ids=["ragged-row", "non-numeric-cell", "every-row-short", "blank-line"])
def test_malformed_csv_is_refused_with_value_error(tmp_path, body):
    path = tmp_path / "t.csv"
    path.write_text("time,sigma_z_0,energy\r\n" + body, newline="")
    with pytest.raises(ValueError):
        import_trajectory(path)


def test_csv_column_order(tmp_path):
    traj = sample_trajectory()
    path = export_trajectory(traj, "csv", tmp_path / "t.csv")
    header = path.read_text().splitlines()[0].split(",")
    assert header[0] == "time"
    assert header[1:7] == [
        "sigma_minus_0_re",
        "sigma_minus_0_im",
        "sigma_plus_0_re",
        "sigma_plus_0_im",
        "sigma_z_0",
        "a_0_re",
    ]
    assert header[-2:] == ["norm", "energy"]


def test_empty_trajectory_header_only(tmp_path):
    traj = Trajectory(
        times=np.array([]),
        records={"sigma_z_0": np.array([]), "norm": np.array([]), "energy": np.array([])},
    )
    path = export_trajectory(traj, "csv", tmp_path / "empty.csv")
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("time,")


# -- task execution ------------------------------------------------------------------


def test_every_task_has_a_function():
    assert tuple(runner._TASK_FUNCTIONS) == runner.TASKS


def test_unknown_task_override_refused(tmp_path):
    config = load_config(write_config(tmp_path, MINIMAL))
    with pytest.raises(ConfigError, match="unknown task 'simulate'"):
        run(config, out_dir=tmp_path / "out", task_override="simulate")


def test_propagate_task_writes_files_and_report(tmp_path):
    config = load_config(write_config(tmp_path, COUPLED))
    report = run(config, out_dir=tmp_path / "out")
    assert report.passed
    assert (tmp_path / "out" / "trajectory.csv").exists()
    assert (tmp_path / "out" / "trajectory.json").exists()
    saved = json.loads((tmp_path / "out" / "report.json").read_text())
    assert saved["task"] == "propagate"
    assert saved["checks"][0]["name"] == "norm_drift"


def test_repeated_runs_byte_identical(tmp_path):
    config_path = write_config(tmp_path, COUPLED)
    run(load_config(config_path), out_dir=tmp_path / "a")
    run(load_config(config_path), out_dir=tmp_path / "b")
    for name in ("trajectory.csv", "trajectory.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    # reports agree modulo timing
    first = json.loads((tmp_path / "a" / "report.json").read_text())
    second = json.loads((tmp_path / "b" / "report.json").read_text())
    first.pop("elapsed_seconds"), second.pop("elapsed_seconds")
    assert first == second


def test_verify_eom_task_reports_residual_table(tmp_path):
    text = """
task: verify_eom
seed: 11
space:
  n_sites: 2
  field_modes: [{cutoff: 3}]
params:
  omegas: [1.0, 1.0]
  field_modes: [{omega: 1.0}]
verify:
  draws: 3
"""
    config = load_config(write_config(tmp_path, text))
    report = run(config, out_dir=tmp_path / "out")
    assert report.passed
    table = report.results["max_residuals"]
    assert "sigma_minus_0" in table and "a_0" in table
    assert all(v <= 1e-11 for v in table.values())
    assert report.results["draws"] == 3


SWEEP_VERIFY_EOM = """
task: sweep
seed: 11
space:
  n_sites: 2
  field_modes: [{cutoff: 2}]
params:
  omegas: [1.0, 1.0]
  field_modes: [{omega: 1.0}]
verify:
  draws: 1
sweep:
  path: params.exchange_j
  values: [0.1, 0.2]
  task: verify_eom
"""


@pytest.mark.parametrize("threshold,code", [(1.0e-30, 1), (1.0e-11, 0)], ids=["failing", "passing"])
def test_cli_sweep_names_its_points_and_fails_with_them(tmp_path, capsys, threshold, code):
    text = SWEEP_VERIFY_EOM.replace("draws: 1", f"draws: 1\n  eom_threshold: {threshold!r}")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(write_config(tmp_path, text)), "--out", str(out)]) == code
    captured = capsys.readouterr()
    status = "FAIL" if code else "PASS"
    for i, value in enumerate([0.1, 0.2]):
        assert f"{status} point {i} (params.exchange_j = {value})" in captured.out
    assert "Traceback" not in captured.err
    saved = json.loads((out / "report.json").read_text())
    assert [c["passed"] for c in saved["checks"]] == [not code] * 2


def test_verify_compact_task_with_negative_control(tmp_path):
    text = """
task: verify_compact
seed: 4
space:
  n_sites: 2
  field_modes: [{cutoff: 2}]
params:
  omegas: [1.0, 1.0]
  field_modes: [{omega: 1.0}]
verify:
  draws: 3
"""
    config = load_config(write_config(tmp_path, text))
    report = run(config, out_dir=tmp_path / "out")
    assert report.passed
    assert report.results["max_residual"] <= 1e-10
    assert report.results["negative_control_min"] > 1e-3


def test_compare_task_emits_paired_files(tmp_path):
    text = COUPLED.replace("task: propagate", "task: compare")
    config = load_config(write_config(tmp_path, text))
    report = run(config, out_dir=tmp_path / "out")
    assert (tmp_path / "out" / "trajectory_exact.csv").exists()
    assert (tmp_path / "out" / "trajectory_meanfield.csv").exists()
    assert "sigma_z_0" in report.results["deviations"]


def test_sweep_derives_configs_and_runs_points(tmp_path):
    text = COUPLED.replace("task: propagate", "task: sweep") + """
sweep:
  path: params.field_modes.0.amplitude
  values: [0.02, 0.04, 0.06, 0.08, 0.1]
  task: propagate
"""
    config = load_config(write_config(tmp_path, text))
    report = run(config, out_dir=tmp_path / "out")
    points = report.results["points"]
    assert len(points) == 5
    assert [p["value"] for p in points] == [0.02, 0.04, 0.06, 0.08, 0.1]
    for i in range(5):
        assert (tmp_path / "out" / f"point_{i:03d}" / "trajectory.csv").exists()


def test_sweep_parallel_workers_match_serial(tmp_path):
    text = COUPLED.replace("task: propagate", "task: sweep") + """
sweep:
  path: params.field_modes.0.amplitude
  values: [0.02, 0.05]
  task: propagate
"""
    config_path = write_config(tmp_path, text)
    run(load_config(config_path), out_dir=tmp_path / "serial", workers=1)
    run(load_config(config_path), out_dir=tmp_path / "parallel", workers=2)
    for i in range(2):
        serial = (tmp_path / "serial" / f"point_{i:03d}" / "trajectory.csv").read_bytes()
        parallel = (tmp_path / "parallel" / f"point_{i:03d}" / "trajectory.csv").read_bytes()
        assert serial == parallel


@pytest.fixture
def serial_pool(monkeypatch):
    """Replaces the sweep's process pool by one that maps in this process; returns the worker counts asked for."""
    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(runner.concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return pools


def test_sweep_pool_has_no_more_workers_than_points(tmp_path, serial_pool):
    text = COUPLED.replace("task: propagate", "task: sweep") + """
sweep:
  path: params.field_modes.0.amplitude
  values: [0.02, 0.05, 0.08]
  task: propagate
"""
    config_path = write_config(tmp_path, text)
    for workers in (512, 2):
        report = run(load_config(config_path), out_dir=tmp_path / f"w{workers}", workers=workers)
        assert len(report.results["points"]) == 3
    assert serial_pool == [3, 2]


SWEEP_SITES = """
task: sweep
space: {n_sites: 1}
params: {omegas: 1.0}
integrate: {t_end: 2.0, n_out: 11}
sweep: {path: space.n_sites, values: [1, 0, 2, 3], task: propagate}
"""


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_reports_every_point_when_some_fail(tmp_path, capsys, monkeypatch, serial_pool, workers):
    propagate = runner.dynamics.propagate

    def failing_at_three_sites(space, *args, **kwargs):
        if space.n_sites == 3:
            raise runner.dynamics.PropagationError("propagation failed: step size underflow")
        return propagate(space, *args, **kwargs)

    monkeypatch.setattr(runner.dynamics, "propagate", failing_at_three_sites)
    path, out = write_config(tmp_path, SWEEP_SITES), tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out), "--workers", str(workers)]) == 1
    captured = capsys.readouterr()
    for i, (value, status) in enumerate([(1, "PASS"), (0, "FAIL"), (2, "PASS"), (3, "FAIL")]):
        assert f"{status} point {i} (space.n_sites = {value})" in captured.out
    assert "Traceback" not in captured.err
    points = json.loads((out / "report.json").read_text())["results"]["points"]
    assert [p["value"] for p in points] == [1, 0, 2, 3]
    assert "space.n_sites must be positive" in points[1]["error"]
    assert points[3]["error"] == "propagation failed: step size underflow"
    assert [p["report"]["task"] for p in (points[0], points[2])] == ["propagate"] * 2
    assert serial_pool == ([2] if workers > 1 else [])

    def broken(*args, **kwargs):
        raise ZeroDivisionError("not a problem of the point")

    monkeypatch.setattr(runner.dynamics, "propagate", broken)
    with pytest.raises(ZeroDivisionError):  # any other exception still ends the sweep
        run(load_config(path), out_dir=tmp_path / "again", workers=workers)


def test_draw_params_reproducible():
    space = config_from_dict(
        {"space": {"n_sites": 2, "field_modes": [{"cutoff": 2}]},
         "params": {"omegas": [1, 1], "field_modes": [{"omega": 1.0}]}}
    ).build_space()
    a = draw_params(space, np.random.default_rng(5))
    b = draw_params(space, np.random.default_rng(5))
    assert a == b


# -- CLI ---------------------------------------------------------------------------------


def test_cli_propagate(tmp_path, capsys):
    config_path = write_config(tmp_path, COUPLED)
    code = cli.main(
        ["propagate", "--config", str(config_path), "--out", str(tmp_path / "out")]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "task: propagate" in out
    assert (tmp_path / "out" / "trajectory.csv").exists()


def test_cli_rejects_bad_config(tmp_path, capsys):
    path = write_config(tmp_path, "task: [broken\n", name="bad.yaml")
    code = cli.main(["run", "--config", str(path)])
    assert code == 2
    assert "parse error" in capsys.readouterr().err.lower()



def test_cli_propagation_error_writes_the_report_and_exits_1(tmp_path, capsys):
    # q_jk overflows the compiled closure: the mean-field run of compare refuses the model
    text = ("task: compare\nspace: {n_sites: 1, field_modes: [{cutoff: 2}]}\n"
            "params: {field_modes: [{omega: 1.0, amplitude: 1.0e308}]}\nintegrate: {t_end: 1.0, n_out: 5}\n")
    path, out = write_config(tmp_path, text), tmp_path / "out"
    message = "model has non-finite frequencies, couplings or drives"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == message + "\n"
    saved = json.loads((out / "report.json").read_text())
    assert saved["results"]["error"] == message
    assert [(c["name"], c["passed"]) for c in saved["checks"]] == [("propagation", False)]
    with pytest.raises(runner.dynamics.PropagationError, match=message):  # the library call still raises
        run(load_config(path), out_dir=tmp_path / "again")
    assert json.loads((tmp_path / "again" / "report.json").read_text())["results"]["error"] == message


def _subprocess_env() -> dict:
    """The environment of a child Python process that imports this chainqed."""
    src = str(Path(chainqed.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


@pytest.mark.parametrize("params,initial,message", [
    # the field frequency overflows the diagonal of H
    ("{field_modes: [{omega: 1.0e308, amplitude: 0.1}]}", "{}", "Hamiltonian has non-finite entries or parameters"),
    # LSODA refuses the mean-field closure of this amplitude
    ("{field_modes: [{omega: 1.0, amplitude: 0.1}]}", "{field_modes: [{kind: coherent, alpha: [1.0e200, 0.0]}]}",
     "propagation failed: Illegal input detected (internal error)."),
])
def test_cli_overflowing_input_prints_its_message_and_no_warning(tmp_path, params, initial, message):
    # a child process: its stderr is what a user sees, with the warnings that pytest would otherwise capture
    text = (f"task: compare\nspace: {{n_sites: 1, field_modes: [{{cutoff: 2}}]}}\nparams: {params}\n"
            f"initial: {initial}\nintegrate: {{t_end: 1.0, n_out: 5}}\n")
    path, out = write_config(tmp_path, text), tmp_path / "out"
    done = subprocess.run([sys.executable, "-m", "chainqed.cli", "run", "--config", str(path), "--out", str(out)],
                          env=_subprocess_env(), capture_output=True, text=True)
    assert done.returncode == 1
    assert done.stderr == message + "\n"
    assert json.loads((out / "report.json").read_text())["results"]["error"] == message


@pytest.mark.parametrize("drives", ["", ", drives: [{amplitude: 0.01, frequency: 1.0}]"],
                         ids=["literal-only", "driven"])
def test_cli_propagate_of_an_overflowing_literal_coupling_names_the_overflow(tmp_path, drives):
    # every entry of H is finite (about 1e308), but its row sums overflow: refused before any backend runs
    text = ("task: propagate\nspace: {n_sites: 1, field_modes: [{cutoff: 2}]}\n"
            "params: {coupling_mode: literal_time_dependent, field_modes: [{omega: 1.0, amplitude: 1.0e308}]"
            f"{drives}}}\nintegrate: {{t_end: 1.0, n_out: 5}}\n")
    path, out = write_config(tmp_path, text), tmp_path / "out"
    done = subprocess.run([sys.executable, "-m", "chainqed.cli", "run", "--config", str(path), "--out", str(out)],
                          env=_subprocess_env(), capture_output=True, text=True)
    message = ("Hamiltonian overflows: the Gershgorin bound of its spectrum, the largest row sum of |H(t)|, "
               "is not finite")
    assert done.returncode == 1
    assert done.stderr == message + "\n"  # one line: no traceback and no warning
    assert json.loads((out / "report.json").read_text())["results"]["error"] == message


def test_cli_propagate_of_a_huge_coherent_amplitude_flags_truncation(tmp_path):
    # alpha^n / sqrt(n!) overflows for every n > 0; the state puts all its weight on the top level
    text = ("task: propagate\nspace: {n_sites: 1, field_modes: [{cutoff: 2}]}\n"
            "params: {field_modes: [{omega: 1.0, amplitude: 0.1}]}\n"
            "initial: {field_modes: [{kind: coherent, alpha: [1.0e200, 0.0]}]}\nintegrate: {t_end: 1.0, n_out: 5}\n")
    path, out = write_config(tmp_path, text), tmp_path / "out"
    done = subprocess.run([sys.executable, "-m", "chainqed.cli", "run", "--config", str(path), "--out", str(out)],
                          env=_subprocess_env(), capture_output=True, text=True)
    assert done.returncode == 0
    assert done.stderr == ""  # no traceback and no warning
    meta = json.loads((out / "report.json").read_text())["results"]["meta"]
    assert meta["truncation_flagged"] is True and meta["max_top_level_population"] == pytest.approx(1.0)


# (call, message): a propagation from a non-finite time, refused before any arithmetic on the times
NON_FINITE_TIMES = {
    "exact": [
        ("propagate(space, params, psi, nan)", "t_end nan is not finite"),
        ("propagate(space, params, psi, inf)", "t_end inf is not finite"),
        ("propagate(space, params, psi, -inf)", "t_end -inf is not finite"),
        ("propagate(space, params, StateVector(psi, nan), 1.0)", "start time nan is not finite"),
        ("propagate(space, params, StateVector(psi, -inf), 1.0)", "start time -inf is not finite"),
        ("propagate(space, params, psi, 1.0, t_eval=np.array([0.0, nan, 1.0]))",
         "`t_eval` holds the non-finite time nan"),
        ("propagate(space, params, psi, 1.0, t_eval=np.array([0.0, 0.5, inf]))",
         "`t_eval` holds the non-finite time inf"),
    ],
    "meanfield": [
        ("mf_propagate(mf, params, nan)", "t_end nan is not finite"),
        ("mf_propagate(mf, params, inf)", "t_end inf is not finite"),
        ("mf_propagate(mf, params, -inf)", "t_end -inf is not finite"),
        ("mf_propagate(replace(mf, time=nan), params, 1.0)", "start time nan is not finite"),
        ("mf_propagate(replace(mf, time=inf), params, 1.0)", "start time inf is not finite"),
    ],
}


@pytest.mark.parametrize("path", sorted(NON_FINITE_TIMES))
def test_cli_non_finite_time_is_refused_without_a_warning(path):
    # a child process under -W error: a numpy RuntimeWarning before the refusal would end it with a traceback
    code = (
        "from dataclasses import replace\n"
        "from math import inf, nan\n"
        "import numpy as np\n"
        "from chainqed.dynamics import StateVector, propagate\n"
        "from chainqed.hamiltonian import ClassicalDrive, SystemParams\n"
        "from chainqed.hilbert import SpaceSpec, build_space, product_state, site_local_state\n"
        "from chainqed.meanfield import MeanFieldState, mf_propagate\n"
        "space = build_space(SpaceSpec(1))\n"
        "params = SystemParams(site_energies=((-0.5, 0.5),), drives=(ClassicalDrive(0.01, 1.0),))\n"
        "psi, mf = product_state(space, [site_local_state('ground')]), MeanFieldState([0.0], [-1.0], [], [])\n"
        f"for call in {[call for call, _ in NON_FINITE_TIMES[path]]!r}:\n"
        "    try:\n"
        "        eval(call)\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    done = subprocess.run([sys.executable, "-W", "error", "-c", code], env=_subprocess_env(), capture_output=True,
                          text=True)
    assert done.stderr == ""
    assert done.returncode == 0
    assert done.stdout.splitlines() == [message for _, message in NON_FINITE_TIMES[path]]


def test_cli_mean_field_long_chain_has_no_exact_space_cap(tmp_path, capsys):
    raw = {
        "task": "meanfield",
        "space": {"n_sites": 64},
        "params": {"omegas": 1.0, "exchange_j": 0.05},
        "initial": {"sites": [{"kind": "angles", "theta": 1.0}] * 64},
        "integrate": {"t_end": 1.0, "n_out": 5},
    }
    path = write_config(tmp_path, yaml.safe_dump(raw))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "mf")]) == 0
    assert (tmp_path / "mf" / "trajectory_meanfield.csv").exists()
    capsys.readouterr()
    # the exact propagation of the same chain needs a space of dimension 2^64
    assert cli.main(["propagate", "--config", str(path), "--out", str(tmp_path / "exact")]) == 2
    err = capsys.readouterr().err
    assert "space too large" in err and "Traceback" not in err
    with pytest.raises(ConfigError, match="space too large"):
        config_from_dict(_set(raw, "task", "compare"))


def test_readme_config_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Config format (YAML)", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
    # loads, so every key the example shows is a row of the config table
    config = load_config(write_config(tmp_path, block))
    assert config.task == "compare" and config.sweep["task"] == "propagate"


def test_cli_seed_override(tmp_path):
    config_path = write_config(tmp_path, COUPLED)
    code = cli.main(
        ["verify-eom", "--config", str(config_path), "--out", str(tmp_path / "v"),
         "--seed", "99"]
    )
    assert code == 0
    saved = json.loads((tmp_path / "v" / "report.json").read_text())
    assert saved["seed"] == 99
    assert saved["task"] == "verify_eom"


def test_cli_seed_override_is_validated(tmp_path, capsys):
    code = cli.main(["verify-eom", "--config", str(write_config(tmp_path, COUPLED)), "--seed", "-1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "seed must be non-negative" in err and "Traceback" not in err


def test_import_leaves_the_heavy_scipy_subpackages_unloaded():
    # spectrum and memory_kernel_integral import them when called, so every other process is spared about 20 MB
    heavy = ("scipy.signal", "scipy.stats", "scipy.ndimage", "scipy.interpolate")
    code = f"import sys, chainqed; print(*(m for m in {heavy!r} if m in sys.modules))"
    loaded = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(), capture_output=True, text=True,
                            check=True)
    assert loaded.stdout.split() == []
