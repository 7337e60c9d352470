import math
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import DOP853, solve_ivp
from scipy.linalg import expm

from chainqed import dynamics
from chainqed.dynamics import (
    INTERACTION_MAX_DIM,
    SPECTRAL_MAX_DIM,
    PropagationError,
    StateVector,
    bulk_projector,
    build_g_vector,
    compact_rhs,
    ehrenfest_check,
    field_coupling_operator,
    heisenberg_commutator,
    heisenberg_rhs_field,
    heisenberg_rhs_phonon,
    heisenberg_rhs_sigma,
    memory_kernel_integral,
    propagate,
    sigma_phonon_correction,
    verify_compact_form,
    verify_heisenberg_identities,
)
from chainqed.hamiltonian import (
    LITERAL_TIME_DEPENDENT,
    ClassicalDrive,
    FieldMode,
    OperatorCache,
    PhononMode,
    SystemParams,
    TotalHamiltonian,
    build_hc,
    build_hcf,
    build_hcp,
    build_hdrive,
    build_hf,
    build_hp,
)
from chainqed.hilbert import (
    ModeSpec,
    Operator,
    SpaceSpec,
    build_space,
    coherent_local,
    commutator,
    embed_modes,
    fock_local,
    product_state,
    site_local_state,
    top_level_projector_local,
)
from chainqed.meanfield import MeanFieldState, mf_propagate, volterra_diagnostics
from chainqed.runner import draw_params


def single_site_params(omega=1.0, **kwargs):
    return SystemParams(site_energies=((-omega / 2, omega / 2),), **kwargs)


@pytest.fixture(scope="module")
def free_site():
    space = build_space(SpaceSpec(1))
    return space, single_site_params(omega=1.0)


# -- propagation basics -----------------------------------------------------------


def test_diagonal_hamiltonian_gives_pure_phases(free_site):
    space, params = free_site
    psi0 = product_state(space, [site_local_state("angles", theta=np.pi / 2)])
    traj = propagate(space, params, psi0, 8.0, tol=1e-12, n_out=41)
    # populations constant, coherence precesses at omega
    assert np.max(np.abs(traj.records["sigma_z_0"] - traj.records["sigma_z_0"][0])) <= 1e-10
    expected = traj.records["sigma_minus_0"][0] * np.exp(-1j * traj.times)
    assert_allclose(traj.records["sigma_minus_0"], expected, atol=1e-9)


def test_static_mode_conserves_energy_and_norm():
    space = build_space(SpaceSpec(2, (ModeSpec(10),)))
    params = SystemParams(
        site_energies=((-0.5, 0.5), (-0.45, 0.55)),
        exchange_j=0.04,
        field_modes=(FieldMode(omega=1.1, amplitude=0.05,
                               polarization_overlap=(1.0, 0.8)),),
    )
    psi0 = product_state(
        space,
        [site_local_state("angles", theta=1.0),
         site_local_state("ground"),
         coherent_local(1.0, 10)],
    )
    traj = propagate(space, params, psi0, 30.0, tol=1e-11, n_out=61)
    energy = traj.records["energy"]
    assert np.max(np.abs(energy - energy[0])) / abs(energy[0]) <= 1e-9
    assert traj.meta["norm_drift"] <= 1e-9
    assert not traj.meta["truncation_flagged"]


def test_trajectory_record_invariants():
    space = build_space(SpaceSpec(2, (ModeSpec(3),)))
    params = SystemParams(
        site_energies=((-0.5, 0.5), (-0.5, 0.5)),
        exchange_j=0.1,
        field_modes=(FieldMode(omega=1.0, amplitude=0.1,
                               polarization_overlap=(1.0, 1.0)),),
    )
    psi0 = product_state(
        space,
        [site_local_state("angles", theta=0.7, phi=0.3),
         site_local_state("excited"),
         fock_local(1, 3)],
    )
    traj = propagate(space, params, psi0, 5.0, tol=1e-10, n_out=21)
    for l in range(2):
        sm = traj.records[f"sigma_minus_{l}"]
        sp = traj.records[f"sigma_plus_{l}"]
        assert_array_equal(sp, np.conj(sm))
        sz = traj.records[f"sigma_z_{l}"]
        assert np.all(sz >= -1.0 - 1e-9) and np.all(sz <= 1.0 + 1e-9)
    for name in ("sigma_z_0", "sigma_z_1", "n_0", "top_field_0"):
        assert traj.records[name].dtype == np.float64, name


@pytest.mark.parametrize("psi0", [[1.0, 1.0], [np.nan, 0.0]], ids=["norm-sqrt2", "nan"])
def test_propagate_rejects_unnormalized_state(free_site, psi0):
    space, params = free_site
    with pytest.raises(ValueError, match="not normalized"):
        propagate(space, params, np.array(psi0, dtype=complex), 1.0)


def test_propagate_flags_truncation_leakage():
    # strong resonant coupling against a tiny Fock ladder leaks to the top
    space = build_space(SpaceSpec(1, (ModeSpec(2),)))
    params = single_site_params(
        field_modes=(FieldMode(omega=1.0, amplitude=0.3, polarization_overlap=(1.0,)),),
    )
    psi0 = product_state(space, [site_local_state("excited"), fock_local(1, 2)])
    traj = propagate(space, params, psi0, 20.0, tol=1e-10, n_out=51)
    assert traj.meta["max_top_level_population"] > 1e-6
    assert traj.meta["truncation_flagged"]


def test_state_vector_start_time(free_site):
    space, params = free_site
    psi0 = product_state(space, [site_local_state("angles", theta=1.2)])
    traj = propagate(space, params, StateVector(psi0, time=2.0), 4.0, n_out=11)
    assert traj.times[0] == 2.0
    assert traj.times[-1] == 4.0


# -- propagation backends ---------------------------------------------------------------


def criterion_06_system():
    """Two sites and a field mode of cutoff 10 (dim 44), horizon 50 periods."""
    space = build_space(SpaceSpec(2, (ModeSpec(10),)))
    params = SystemParams(
        site_energies=((-0.5, 0.5), (-0.45, 0.55)),
        exchange_j=0.05,
        field_modes=(FieldMode(omega=1.1, amplitude=0.06, polarization_overlap=(1.0, 0.8)),),
    )
    psi0 = product_state(
        space,
        [site_local_state("angles", theta=1.0), site_local_state("ground"), coherent_local(1.0, 10)],
    )
    return space, params, psi0, 50 * 2 * np.pi


def criterion_08_system():
    """One site and a coherent field (nbar 9, cutoff 30: dim 62), three Rabi cycles."""
    space = build_space(SpaceSpec(1, (ModeSpec(30),)))
    params = single_site_params(
        field_modes=(FieldMode(omega=1.0, amplitude=0.01, polarization_overlap=(1.0,)),),
    )
    psi0 = product_state(space, [site_local_state("ground"), coherent_local(3.0, 30)])
    return space, params, psi0, 3 * 2 * np.pi / (2 * 0.01 * 3.0)


STATIC_SYSTEMS = [criterion_06_system, criterion_08_system]


@pytest.mark.parametrize("system", STATIC_SYSTEMS)
def test_spectral_path_matches_matrix_exponential(system):
    space, params, psi0, t_end = system()
    rng = np.random.default_rng(2026)
    t_eval = np.sort(np.append(rng.uniform(0.0, t_end, size=5), t_end))
    traj = propagate(space, params, psi0, t_end, t_eval=t_eval, keep_states=True)
    assert traj.meta["method"] == "eigh"
    h = TotalHamiltonian(space, params).static.to_dense()
    for k, t in enumerate(t_eval):
        assert np.max(np.abs(traj.states[:, k] - expm(-1j * h * t) @ psi0)) <= 1e-9


@pytest.mark.parametrize("system", STATIC_SYSTEMS)
def test_spectral_path_matches_tight_dop853(system):
    space, params, psi0, _ = system()
    h = TotalHamiltonian(space, params).static.matrix
    t_eval = np.linspace(0.0, 5.0, 11)
    ref = solve_ivp(lambda t, psi: -1j * (h @ psi), (0.0, 5.0), psi0, method="DOP853",
                    t_eval=t_eval, rtol=1e-12, atol=1e-14)
    traj = propagate(space, params, psi0, 5.0, t_eval=t_eval, keep_states=True)
    assert np.max(np.abs(traj.states - ref.y)) <= 1e-8


def _vacuum_site_field(cutoff, **kwargs):
    space = build_space(SpaceSpec(1, (ModeSpec(cutoff),)))
    params = single_site_params(
        field_modes=(FieldMode(omega=1.0, amplitude=0.05, polarization_overlap=(1.0,)),), **kwargs
    )
    return space, params, product_state(space, [site_local_state("excited"), fock_local(0, cutoff)])


NON_UNIFORM = np.array([0.0, 0.1, 0.5])
DRIVE = (ClassicalDrive(amplitude=0.01, frequency=1.0),)


@pytest.mark.parametrize(
    "cutoff,kwargs,t_eval,method,reason",
    [
        (SPECTRAL_MAX_DIM // 2 - 1, {}, None, "eigh", "static, dim <= 512"),  # dim == SPECTRAL_MAX_DIM
        (SPECTRAL_MAX_DIM // 2, {}, None, "chebyshev", "static, dim > 512"),  # dim 514
        (SPECTRAL_MAX_DIM // 2, {}, NON_UNIFORM, "chebyshev", "static, dim > 512"),
        (2, {}, NON_UNIFORM, "eigh", "static, dim <= 512"),
        (2, {"drives": DRIVE}, None, "interaction+DOP853", "time-dependent, dim <= 128"),
        (2, {"coupling_mode": LITERAL_TIME_DEPENDENT}, None, "interaction+DOP853", "time-dependent, dim <= 128"),
        (INTERACTION_MAX_DIM // 2 - 1, {"drives": DRIVE}, None, "interaction+DOP853",
         "time-dependent, dim <= 128"),  # dim == INTERACTION_MAX_DIM
        (INTERACTION_MAX_DIM // 2, {"drives": DRIVE}, None, "DOP853", "time-dependent, dim > 128"),  # dim 130
    ],
    ids=["static-at-limit", "static-above-limit", "static-above-limit-nonuniform", "static-small-nonuniform",
         "driven-small", "literal-small", "driven-at-limit", "driven-above-limit"],
)
def test_backend_follows_from_the_hamiltonian(cutoff, kwargs, t_eval, method, reason):
    space, params, psi0 = _vacuum_site_field(cutoff, **kwargs)
    traj = propagate(space, params, psi0, 0.5, n_out=3, t_eval=t_eval)
    assert traj.meta["method"] == method
    assert traj.meta["backend_reason"] == reason
    exponential_method = method in ("eigh", "chebyshev")
    assert (traj.meta["rhs_evaluations"] == 0) == exponential_method


def large_static_system():
    """A site and a coherent field of cutoff 256: dim 514, one above the eigendecomposition limit."""
    cutoff = SPECTRAL_MAX_DIM // 2
    space = build_space(SpaceSpec(1, (ModeSpec(cutoff),)))
    params = single_site_params(
        field_modes=(FieldMode(omega=1.0, amplitude=0.05, polarization_overlap=(1.0,)),),
    )
    psi0 = product_state(space, [site_local_state("angles", theta=1.1, phi=0.4), coherent_local(2.0, cutoff)])
    return space, params, psi0


def _expm_states(space, params, psi0, elapsed):
    """exp(-iHt) psi0 on a uniform grid by ``scipy.linalg.expm``: one exponential to the first time, one per step."""
    h = TotalHamiltonian(space, params).static.to_dense()
    states = [expm(-1j * h * elapsed[0]) @ psi0]
    if elapsed.size > 1:
        step = expm(-1j * h * (elapsed[1] - elapsed[0]))
        for _ in elapsed[1:]:
            states.append(step @ states[-1])
    return np.stack(states, axis=1)


@pytest.mark.parametrize(
    "start,grid",
    [
        (0.0, {"n_out": 9}),
        (1.5, {"n_out": 9}),  # StateVector time != 0
        (0.0, {"n_out": 1}),
        (0.0, {"n_out": 2}),
        (-2.0, {"t_eval": "late"}),  # a short uniform grid long after the start
        (0.0, {"t_eval": "single"}),
    ],
    ids=["n_out-9", "start-1.5", "n_out-1", "n_out-2", "late-uniform-grid", "single-late-point"],
)
def test_exponential_path_matches_matrix_exponential(start, grid):
    space, params, psi0 = large_static_system()
    rng = np.random.default_rng(514)
    t_end = start + rng.uniform(4.0, 8.0)
    if grid.get("t_eval") == "late":
        grid = {"t_eval": np.linspace(t_end - rng.uniform(0.4, 0.5), t_end, 6)}
    elif grid.get("t_eval") == "single":
        grid = {"t_eval": np.array([t_end])}
    traj = propagate(space, params, StateVector(psi0, time=start), t_end, keep_states=True, **grid)
    assert traj.meta["method"] == "chebyshev"
    assert traj.meta["rhs_evaluations"] == 0
    assert traj.states.shape == (space.dim, traj.times.size)
    assert np.max(np.abs(traj.states - _expm_states(space, params, psi0, traj.times - start))) <= 1e-8
    assert traj.meta["norm_drift"] <= 1e-10


def test_exponential_path_matches_tight_dop853():
    space, params, psi0 = large_static_system()
    h = TotalHamiltonian(space, params).static.matrix
    t_eval = np.linspace(0.0, 6.0, 13)
    ref = solve_ivp(lambda t, psi: -1j * (h @ psi), (0.0, 6.0), psi0, method="DOP853",
                    t_eval=t_eval, rtol=1e-12, atol=1e-14)
    traj = propagate(space, params, psi0, 6.0, n_out=13, keep_states=True)
    assert traj.meta["method"] == "chebyshev"
    assert np.max(np.abs(traj.states - ref.y)) <= 1e-8
    # records come from the same states as on the other paths
    sz = np.einsum("ij,ij->j", ref.y.conj(), OperatorCache.for_space(space).sigma[0].z.matrix @ ref.y).real
    assert np.max(np.abs(traj.records["sigma_z_0"] - sz)) <= 1e-8


def test_exponential_path_without_keep_states_records_the_same():
    space, params, psi0 = large_static_system()
    kept = propagate(space, params, psi0, 3.0, n_out=7, keep_states=True)
    plain = propagate(space, params, psi0, 3.0, n_out=7)
    assert plain.states is None
    for name, values in kept.records.items():
        assert np.array_equal(values, plain.records[name])


def test_non_uniform_grid_above_the_limit_runs_chebyshev():
    space, params, psi0 = large_static_system()
    t_eval = np.array([0.0, 0.3, 1.0, 2.5, 3.0])
    traj = propagate(space, params, psi0, 3.0, t_eval=t_eval, tol=1e-12, keep_states=True)
    assert traj.meta["method"] == "chebyshev"
    assert traj.meta["backend_reason"] == "static, dim > 512"
    assert traj.meta["rhs_evaluations"] == 0
    energies, vecs = np.linalg.eigh(TotalHamiltonian(space, params).static.to_dense())
    exact = vecs @ (np.exp(-1j * np.outer(energies, t_eval)) * (vecs.conj().T @ psi0)[:, None])
    assert np.max(np.abs(traj.states - exact)) <= 1e-8


def test_chebyshev_windows_match_eigh():
    # three full windows; each window's order exceeds RECORD_CHUNK, so it flushes several blocks
    space, params, psi0 = large_static_system()
    h = TotalHamiltonian(space, params).static
    n_out = 3 * dynamics.RECORD_CHUNK
    _, half_width = dynamics._spectral_interval(h.matrix)
    step = 2.0 / (n_out - 1)
    assert dynamics._chebyshev_order(half_width * step * (dynamics.RECORD_CHUNK - 1)) > dynamics.RECORD_CHUNK
    traj = propagate(space, params, psi0, 2.0, n_out=n_out, keep_states=True)
    assert traj.meta["method"] == "chebyshev"
    energies, vecs = np.linalg.eigh(h.to_dense())
    exact = vecs @ (np.exp(-1j * np.outer(energies, traj.times)) * (vecs.conj().T @ psi0)[:, None])
    assert np.max(np.abs(traj.states - exact)) <= 1e-10


def test_bounded_chebyshev_windows_hop_long_gaps_and_match_eigh(monkeypatch):
    # span 50 at R = 129: windows close after 0.39 time units, and the gaps to 1.7 and 3.0 are crossed by hops
    space, params, psi0 = large_static_system()
    h = TotalHamiltonian(space, params).static
    span = 50.0
    monkeypatch.setattr(dynamics, "CHEBYSHEV_SPAN", span)
    expansions = []
    coefficients = dynamics._chebyshev_coefficients

    def spied(centre, half_width, tau, order):
        expansions.append((half_width * tau, order))
        return coefficients(centre, half_width, tau, order)

    monkeypatch.setattr(dynamics, "_chebyshev_coefficients", spied)
    times = np.concatenate([np.linspace(0.0, 0.5, 21), [1.7, 3.0]])
    traj = propagate(space, params, psi0, 3.0, t_eval=times, keep_states=True)
    assert traj.meta["method"] == "chebyshev"
    hops = [arg for arg, _ in expansions if arg.size == 1 and arg[0] == pytest.approx(span)]
    assert len(hops) == 6  # three before 1.7 and three before 3.0
    assert max(order for _, order in expansions) <= dynamics._chebyshev_order(span)
    assert max(arg[-1] for arg, _ in expansions) <= span * (1 + 1e-12)
    energies, vecs = np.linalg.eigh(h.to_dense())
    exact = vecs @ (np.exp(-1j * np.outer(energies, times)) * (vecs.conj().T @ psi0)[:, None])
    assert np.max(np.abs(traj.states - exact)) <= 1e-10


def test_unbounded_span_records_model_large_sized_windows_identically(monkeypatch):
    # R tau about 215 per window, as model-large's windows (about 220): the span never binds there
    space, params, psi0 = large_static_system()
    n_out = 3 * dynamics.RECORD_CHUNK + 1
    _, half_width = dynamics._spectral_interval(TotalHamiltonian(space, params).static.matrix)
    assert 200 < half_width * 5.0 / (n_out - 1) * dynamics.RECORD_CHUNK < dynamics.CHEBYSHEV_SPAN
    default = propagate(space, params, psi0, 5.0, n_out=n_out)
    monkeypatch.setattr(dynamics, "CHEBYSHEV_SPAN", math.inf)
    unbounded = propagate(space, params, psi0, 5.0, n_out=n_out)
    assert default.meta["method"] == unbounded.meta["method"] == "chebyshev"
    assert list(unbounded.records) == list(default.records)
    for name, values in default.records.items():
        assert_array_equal(unbounded.records[name], values, err_msg=name)


def test_chebyshev_zero_width_interval_is_a_phase():
    # levels one ulp apart round to H = 30 exactly: the Gershgorin interval has zero width
    n_sites = 10
    space = build_space(SpaceSpec(n_sites))
    params = SystemParams(site_energies=((3.0, np.nextafter(3.0, 4.0)),) * n_sites, exchange_j=0.0)
    h = TotalHamiltonian(space, params).static.matrix
    assert space.dim > SPECTRAL_MAX_DIM
    assert dynamics._spectral_interval(h) == (30.0, 0.0)
    rng = np.random.default_rng(1024)
    psi0 = product_state(space, [site_local_state("angles", theta=t, phi=p) for t, p in rng.uniform(0, 3, (n_sites, 2))])
    traj = propagate(space, params, psi0, 5.0, n_out=2 * dynamics.RECORD_CHUNK + 5, keep_states=True)
    assert traj.meta["method"] == "chebyshev"
    assert np.max(np.abs(traj.states - np.exp(-30j * traj.times) * psi0[:, None])) <= 1e-14


def _mixed_system(field_cutoffs, phonon_cutoff, drives=()):
    """Two sites, two field modes of different cutoffs and a phonon mode, each away from its ground level."""
    space = build_space(SpaceSpec(2, tuple(ModeSpec(c) for c in field_cutoffs), (ModeSpec(phonon_cutoff),)))
    params = SystemParams(
        site_energies=((-0.5, 0.5), (-0.45, 0.55)),
        exchange_j=0.07,
        field_modes=(FieldMode(omega=1.0, amplitude=0.08, polarization_overlap=(1.0, 0.8)),
                     FieldMode(omega=1.1, amplitude=0.06, polarization_overlap=(0.7, 1.0))),
        phonon_modes=(PhononMode(nu=0.5, coupling=0.1),),
        drives=drives,
    )
    psi0 = product_state(space, [site_local_state("angles", theta=0.7, phi=0.3),
                                 site_local_state("angles", theta=2.0, phi=1.0),
                                 *(coherent_local(0.6 + 0.2j, c) for c in field_cutoffs),
                                 coherent_local(0.4j, phonon_cutoff)])
    return space, params, psi0


@pytest.mark.parametrize(
    "field_cutoffs,phonon_cutoff,drives,method",
    [
        ((3, 2), 2, (), "eigh"),  # dim 144
        ((7, 5), 2, (), "chebyshev"),  # dim 576 > SPECTRAL_MAX_DIM
        ((2, 1), 1, DRIVE, "interaction+DOP853"),  # dim 48
        ((3, 2), 2, DRIVE, "DOP853"),  # dim 144 > INTERACTION_MAX_DIM
    ],
    ids=["eigh", "chebyshev", "interaction", "DOP853"],
)
def test_records_match_embedded_operator_expectations(field_cutoffs, phonon_cutoff, drives, method):
    space, params, psi0 = _mixed_system(field_cutoffs, phonon_cutoff, drives)
    # two record chunks
    traj = propagate(space, params, psi0, 3.0, n_out=dynamics.RECORD_CHUNK + 5, keep_states=True)
    assert traj.meta["method"] == method
    ops = OperatorCache(space)
    top = {kind: embed_modes(space, kind, top_level_projector_local) for kind in ("field", "phonon")}
    oracle = {}
    for l, sig in enumerate(ops.sigma):
        oracle.update({f"sigma_minus_{l}": sig.minus, f"sigma_plus_{l}": sig.plus, f"sigma_z_{l}": sig.z})
    for k, a in enumerate(ops.a):
        oracle.update({f"a_{k}": a, f"n_{k}": ops.a_num[k], f"top_field_{k}": top["field"][k]})
    for q, b in enumerate(ops.b):
        oracle.update({f"b_{q}": b, f"nb_{q}": ops.b_num[q], f"top_phonon_{q}": top["phonon"][q]})
    assert list(traj.records) == [*oracle, "norm", "energy"]
    for name, op in oracle.items():
        expected = np.array([op.expect(psi) for psi in traj.states.T])
        assert np.max(np.abs(traj.records[name] - expected)) <= 1e-12, name
        assert np.iscomplexobj(traj.records[name]) == name.startswith(("sigma_minus_", "sigma_plus_", "a_", "b_"))
    tops = [np.max(traj.records[name]) for name in oracle if name.startswith("top_")]
    assert min(tops) > 0.0 and traj.meta["max_top_level_population"] == max(tops)


@pytest.mark.parametrize(
    "field_cutoffs,phonon_cutoff,drives,method",
    [
        ((3, 2), 2, (), "eigh"),  # dim 144
        ((7, 5), 2, (), "chebyshev"),  # dim 576
        ((2, 1), 1, DRIVE, "interaction+DOP853"),  # dim 48
        ((3, 2), 2, DRIVE, "DOP853"),  # dim 144
    ],
    ids=["eigh", "chebyshev", "interaction", "DOP853"],
)
def test_a_byte_budget_records_the_same_in_smaller_chunks(monkeypatch, field_cutoffs, phonon_cutoff, drives, method):
    space, params, psi0 = _mixed_system(field_cutoffs, phonon_cutoff, drives)
    default = propagate(space, params, psi0, 3.0, n_out=11)
    widths = []
    slot_records = dynamics._slot_records

    def spied(space, block, block_conj):
        widths.append(block.shape[1])
        return slot_records(space, block, block_conj)

    monkeypatch.setattr(dynamics, "_slot_records", spied)
    monkeypatch.setattr(dynamics, "RECORD_BYTES", 3 * 16 * space.dim)
    small = propagate(space, params, psi0, 3.0, n_out=11)
    assert default.meta["method"] == small.meta["method"] == method
    assert widths == [3, 3, 3, 2]
    assert list(small.records) == list(default.records)
    for name, values in default.records.items():
        assert np.max(np.abs(small.records[name] - values)) <= 1e-12, name


def test_exponential_path_rejects_non_finite_hamiltonian():
    space, _, psi0 = large_static_system()
    params = single_site_params(
        field_modes=(FieldMode(omega=1.0, amplitude=float("nan"), polarization_overlap=(1.0,)),),
    )
    assert TotalHamiltonian(space, params).is_static
    with pytest.raises(PropagationError, match="non-finite entries"):
        propagate(space, params, psi0, 1.0)


def test_exponential_path_rejects_non_finite_states(monkeypatch):
    space, params, psi0 = large_static_system()
    # a Hermitian H has a unitary exponential; stand in for an overflow inside the expansion
    monkeypatch.setattr(dynamics, "dct", lambda samples, **kw: np.full(samples.shape, np.nan + 0j))
    with pytest.raises(PropagationError, match="non-finite states"):
        propagate(space, params, psi0, 1.0)


@pytest.mark.parametrize("path,repeats", [("exact", 30), ("meanfield", 30), ("lyapunov", 2)])
def test_finished_runs_leave_no_dop853_solver_alive(monkeypatch, path, repeats):
    # scipy's solver sits in a reference cycle; the runs free it without a
    # full collection, so a loop of short runs does not pile up work arrays
    solvers = []
    init = DOP853.__init__

    def tracked(self, *args, **kwargs):
        solvers.append(weakref.ref(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(DOP853, "__init__", tracked)
    space = build_space(SpaceSpec(2, (ModeSpec(2),)))
    params = SystemParams(
        site_energies=((-0.5, 0.5), (-0.5, 0.5)),
        exchange_j=0.05,
        field_modes=(FieldMode(omega=1.0, amplitude=0.05, polarization_overlap=(1.0, 1.0)),),
        drives=(ClassicalDrive(amplitude=0.05, frequency=1.0, sites=(0,)),),
    )
    psi0 = product_state(space, [site_local_state("excited"), site_local_state("ground"), fock_local(0, 2)])
    mf0 = MeanFieldState([0.0, 0.0], [1.0, -1.0], [0.0], [])
    run = {
        "exact": lambda: propagate(space, params, psi0, 5.0, n_out=11),
        "meanfield": lambda: mf_propagate(mf0, params, 5.0, n_out=11),
        # one probe: a base run plus one stacked solve per renormalization interval
        "lyapunov": lambda: volterra_diagnostics(params, mf0, 20.0, n_out=64),
    }[path]
    for _ in range(repeats):
        run()
    assert len(solvers) >= 30
    assert [ref for ref in solvers if ref() is not None] == []


@pytest.mark.parametrize("drives", [(), (ClassicalDrive(amplitude=0.01, frequency=1.0),)], ids=["eigh", "DOP853"])
@pytest.mark.parametrize("t_eval", [[0.0, 0.5, 1.5], [0.0, 0.7, 0.3, 1.0], [-0.1, 0.5, 1.0]],
                         ids=["beyond-end", "unsorted", "before-start"])
def test_bad_output_grid_raises_like_solve_ivp(drives, t_eval):
    space, params, psi0 = _vacuum_site_field(2, drives=drives)
    with pytest.raises(ValueError) as expected:
        solve_ivp(lambda t, y: y, (0.0, 1.0), psi0, t_eval=np.array(t_eval))
    with pytest.raises(ValueError) as raised:
        propagate(space, params, psi0, 1.0, t_eval=np.array(t_eval))
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("path,grid", [("exact", {"n_out": 0}), ("exact", {"t_eval": np.array([])}),
                                       ("meanfield", {"n_out": 0})],
                         ids=["n_out-0", "empty-t_eval", "meanfield-n_out-0"])
def test_empty_output_grid_is_refused(free_site, path, grid):
    space, params = free_site
    with pytest.raises(ValueError, match="output grid holds no time"):
        if path == "exact":
            propagate(space, params, product_state(space, [site_local_state("ground")]), 1.0, **grid)
        else:
            mf_propagate(MeanFieldState([0.0], [-1.0], [], []), params, 1.0, **grid)


def test_spectral_path_rejects_non_finite_hamiltonian():
    space = build_space(SpaceSpec(2))
    params = SystemParams(site_energies=((-0.5, 0.5), (-0.5, 0.5)), exchange_j=float("nan"))
    psi0 = product_state(space, [site_local_state("excited"), site_local_state("ground")])
    with pytest.raises(PropagationError, match="non-finite entries"):
        propagate(space, params, psi0, 1.0)


def test_spectral_path_rejects_non_finite_spectrum(free_site):
    space, params = free_site
    ham = TotalHamiltonian(space, params)
    ham.static = Operator(np.full((2, 2), 1e308))  # finite entries, eigenvalue 2e308 overflows
    psi0 = product_state(space, [site_local_state("ground")])
    with pytest.raises(PropagationError, match="non-finite eigenvalues"):
        propagate(space, params, psi0, 1.0, hamiltonian=ham)


# -- time-dependent runs in the interaction picture ---------------------------------------


def compare_driven_system():
    """The compare-driven benchmark physics, over a short time: 2 sites, literal coupling, a drive on site 0 (dim 52)."""
    space = build_space(SpaceSpec(2, (ModeSpec(12),)))
    params = SystemParams(
        site_energies=((-0.5, 0.5), (-0.48, 0.52)),
        exchange_j=0.02,
        coupling_mode=LITERAL_TIME_DEPENDENT,
        field_modes=(FieldMode(omega=1.0, wavevector=0.3, amplitude=0.02, polarization_overlap=(1.0, 0.8)),),
        drives=(ClassicalDrive(amplitude=0.005, frequency=1.0, sites=(0,)),),
    )
    psi0 = product_state(space, [site_local_state("angles", theta=1.0), site_local_state("ground"),
                                 coherent_local(1.0, 12)])
    return space, params, psi0, 4.0


def criterion_07_system():
    """A resonantly driven site: the criterion-07 drive, over a twentieth of the Rabi period."""
    space = build_space(SpaceSpec(1))
    params = single_site_params(drives=(ClassicalDrive(amplitude=0.005, frequency=1.0),))
    return space, params, product_state(space, [site_local_state("ground")]), 30.0


def literal_phonon_system():
    """Literal coupling with phonons and two drives, one on a subset of the sites."""
    space = build_space(SpaceSpec(2, (ModeSpec(3),), (ModeSpec(2),)))
    params = SystemParams(
        site_energies=((-0.5, 0.5), (-0.45, 0.55)),
        exchange_j=0.07,
        coupling_mode=LITERAL_TIME_DEPENDENT,
        field_modes=(FieldMode(omega=1.2, wavevector=0.9, amplitude=0.1, polarization_overlap=(1.0, 0.8)),),
        phonon_modes=(PhononMode(nu=0.5, coupling=0.1),),
        drives=(ClassicalDrive(0.03 - 0.01j, 0.9, (1,)), ClassicalDrive(0.02j, 1.3)),
    )
    psi0 = product_state(space, [site_local_state("angles", theta=0.7, phi=0.3), site_local_state("excited"),
                                 coherent_local(0.5, 3), fock_local(0, 2)])
    return space, params, psi0, 4.0


def _term_sum_parts(space, params):
    """The per-term builders' sum, independent of TotalHamiltonian: (fixed matrix, H_CF(t) + H_drive(t))."""
    fixed = (build_hc(space, params) + build_hf(space, params) + build_hp(space, params)
             + build_hcp(space, params)).matrix
    return fixed, lambda t: build_hcf(space, params, t) + build_hdrive(space, params, t)


@pytest.mark.parametrize(
    "system,start",
    [(compare_driven_system, 0.0), (criterion_07_system, 0.0), (literal_phonon_system, 0.0),
     (literal_phonon_system, 2.0)],  # StateVector time != 0
    ids=["compare-driven", "criterion-07", "literal-phonons", "literal-phonons-late-start"],
)
def test_interaction_path_matches_tight_dop853_of_the_term_sum(system, start):
    space, params, psi0, duration = system()
    fixed, varying = _term_sum_parts(space, params)
    t_eval = np.linspace(start, start + duration, 2 * dynamics.RECORD_CHUNK + 5)  # mapped back in three chunks
    ref = solve_ivp(lambda t, psi: -1j * (fixed @ psi + varying(t).matrix @ psi), (start, t_eval[-1]), psi0,
                    method="DOP853", t_eval=t_eval, rtol=1e-12, atol=1e-14)
    traj = propagate(space, params, StateVector(psi0, time=start), t_eval[-1], t_eval=t_eval, keep_states=True)
    assert traj.meta["method"] == "interaction+DOP853"
    assert traj.meta["rhs_evaluations"] > 0
    assert np.max(np.abs(traj.states - ref.y)) <= 1e-8


def test_interaction_path_without_keep_states_records_the_same():
    space, params, psi0, t_end = literal_phonon_system()
    # more points than one record chunk, so the states are mapped back in several
    kept = propagate(space, params, psi0, t_end, n_out=2 * dynamics.RECORD_CHUNK + 5, keep_states=True)
    plain = propagate(space, params, psi0, t_end, n_out=2 * dynamics.RECORD_CHUNK + 5)
    assert plain.states is None
    assert set(kept.records) == set(plain.records)
    for name, values in kept.records.items():
        assert np.array_equal(values, plain.records[name]), name


def test_time_dependent_energy_record_is_the_term_sum_expectation():
    space, params, psi0, t_end = literal_phonon_system()
    fixed, varying = _term_sum_parts(space, params)
    traj = propagate(space, params, psi0, t_end, n_out=11, keep_states=True)
    for k, t in enumerate(traj.times):
        psi = traj.states[:, k]
        expected = np.vdot(psi, fixed @ psi) + varying(t).expect(psi)
        assert abs(traj.records["energy"][k] - expected.real) <= 1e-12


NAN = float("nan")
NON_FINITE_MODELS = {
    "nan-drive": dict(
        field_modes=(FieldMode(omega=1.0, amplitude=0.05, polarization_overlap=(1.0,)),),
        drives=(ClassicalDrive(amplitude=NAN, frequency=1.0),),
    ),
    "nan-literal-coupling": dict(
        coupling_mode=LITERAL_TIME_DEPENDENT,
        field_modes=(FieldMode(omega=1.0, amplitude=NAN, polarization_overlap=(1.0,)),),
    ),
}


@pytest.mark.parametrize("cutoff", [2, SPECTRAL_MAX_DIM // 2], ids=["interaction", "DOP853"])
@pytest.mark.parametrize("model", list(NON_FINITE_MODELS))
def test_exact_path_refuses_a_non_finite_time_dependent_model(model, cutoff):
    space = build_space(SpaceSpec(1, (ModeSpec(cutoff),)))
    params = single_site_params(**NON_FINITE_MODELS[model])
    assert not TotalHamiltonian(space, params).is_static
    psi0 = product_state(space, [site_local_state("excited"), fock_local(0, cutoff)])
    with pytest.raises(PropagationError, match="non-finite"):
        propagate(space, params, psi0, 1.0)


@pytest.mark.parametrize("probe", ["mf_propagate", "volterra_diagnostics"])
@pytest.mark.parametrize("model", list(NON_FINITE_MODELS))
def test_mean_field_path_refuses_a_non_finite_model(model, probe):
    params = single_site_params(**NON_FINITE_MODELS[model])
    mf0 = MeanFieldState([0.0], [-1.0], [0.0], [])
    with pytest.raises(PropagationError, match="non-finite"):
        if probe == "mf_propagate":
            mf_propagate(mf0, params, 1.0)
        else:
            volterra_diagnostics(params, mf0, 10.0, n_out=64)


# -- Heisenberg right-hand sides ------------------------------------------------------


def test_free_precession_rhs(free_site):
    space, params = free_site
    cache = OperatorCache(space)
    rhs = heisenberg_rhs_sigma(space, params, 0)
    assert (rhs.minus - (-1j) * cache.sigma[0].minus).max_abs() <= 1e-15
    assert (rhs.plus - 1j * cache.sigma[0].plus).max_abs() <= 1e-15
    assert rhs.z.max_abs() == 0.0


def test_single_site_has_no_exchange_terms():
    space = build_space(SpaceSpec(1))
    params = single_site_params(exchange_j=0.5)
    rhs = heisenberg_rhs_sigma(space, params, 0)
    # open boundary: no neighbours, so the exchange contributes nothing
    assert rhs.z.max_abs() == 0.0


@pytest.mark.parametrize("coupling_mode", ["static_phase_at_t0", "literal_time_dependent"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rhs_equals_commutator_random_draws(coupling_mode, seed):
    space = build_space(SpaceSpec(2, (ModeSpec(3),), (ModeSpec(2),)))
    rng = np.random.default_rng(seed)
    params = draw_params(space, rng, coupling_mode=coupling_mode)
    t = float(rng.uniform(0.0, 5.0))
    residuals = verify_heisenberg_identities(space, params, t)
    worst = max(residuals.values())
    assert worst <= 1e-12, residuals


def test_field_rhs_free_oscillator():
    space = build_space(SpaceSpec(1, (ModeSpec(3),)))
    params = single_site_params(
        field_modes=(FieldMode(omega=0.9, amplitude=0.0),), dipole=(0.0,)
    )
    cache = OperatorCache(space)
    rhs_a, rhs_adag = heisenberg_rhs_field(space, params, 0)
    assert (rhs_a - (-0.9j) * cache.a[0]).max_abs() <= 1e-15
    assert (rhs_adag - rhs_a.dag()).max_abs() == 0.0


def test_field_rhs_adjoint_symmetry():
    space = build_space(SpaceSpec(2, (ModeSpec(2),)))
    params = SystemParams(
        site_energies=((-0.5, 0.5), (-0.5, 0.5)),
        field_modes=(FieldMode(omega=1.0, wavevector=0.7, amplitude=0.2,
                               polarization_overlap=(1.0, 0.6)),),
    )
    rhs_a, rhs_adag = heisenberg_rhs_field(space, params, 0)
    assert (rhs_adag - rhs_a.dag()).max_abs() <= 1e-15


def test_phonon_rhs_and_diagonal_source():
    space = build_space(SpaceSpec(2, (), (ModeSpec(2),)))
    params = SystemParams(
        site_energies=((-0.5, 0.5), (-0.5, 0.5)),
        phonon_modes=(PhononMode(nu=0.6, coupling=0.2),),
    )
    cache = OperatorCache(space)
    rhs_b, _ = heisenberg_rhs_phonon(space, params, 0)
    source = rhs_b - (-0.6j) * cache.b[0]
    dense = source.to_dense()
    assert np.count_nonzero(dense - np.diag(np.diag(dense))) == 0  # diagonal
    params_free = SystemParams(
        site_energies=params.site_energies,
        phonon_modes=(PhononMode(nu=0.6, coupling=0.0),),
    )
    rhs_free, _ = heisenberg_rhs_phonon(space, params_free, 0)
    assert (rhs_free - (-0.6j) * cache.b[0]).max_abs() <= 1e-15


def test_bulk_projector_removes_top_levels():
    space = build_space(SpaceSpec(1, (ModeSpec(2),)))
    proj = bulk_projector(space)
    dense = proj.to_dense()
    for i in range(space.dim):
        _, m = space.index_to_occupation(i)
        assert dense[i, i] == (0.0 if m == 2 else 1.0)


# -- phonon corrections ----------------------------------------------------------------


@pytest.fixture(scope="module")
def phonon_system():
    space = build_space(SpaceSpec(2, (), (ModeSpec(3),)))
    params = SystemParams(
        site_energies=((-0.5, 0.5), (-0.4, 0.6)),
        phonon_modes=(PhononMode(nu=0.7, coupling=0.12),),
    )
    return space, params


def test_phonon_correction_zero_without_coupling():
    space = build_space(SpaceSpec(1, (), (ModeSpec(2),)))
    params = single_site_params(phonon_modes=(PhononMode(nu=0.5, coupling=0.0),))
    corr = sigma_phonon_correction(space, params, 0, component="minus")
    assert corr.max_abs() == 0.0


@pytest.mark.parametrize("component", ["minus", "plus"])
def test_phonon_correction_direct_matches_commutator(phonon_system, component):
    space, params = phonon_system
    cache = OperatorCache(space)
    hcp = build_hcp(space, params)
    for l in range(2):
        direct = sigma_phonon_correction(space, params, l, component=component)
        sig = getattr(cache.sigma[l], component)
        oracle = 1j * commutator(hcp, sig)
        assert (direct - oracle).max_abs() <= 1e-12


def test_memory_kernel_constant_history_closed_form():
    nu, t_end = 0.7, 5.0
    times = np.linspace(0.0, t_end, 11)
    values = np.ones_like(times)
    for t in (1.0, 2.5, 5.0):
        got = memory_kernel_integral(times, values, nu, t)
        assert_allclose(got, (1.0 - np.cos(nu * t)) / nu, atol=1e-10)


def test_memory_kernel_oscillatory_history():
    # h(t) = cos(w t): closed form of int_0^t cos(w t') sin(nu (t-t')) dt'
    nu, w, t = 1.3, 0.4, 6.0
    times = np.linspace(0.0, 8.0, 4001)
    values = np.cos(w * times)
    expected = nu * (np.cos(w * t) - np.cos(nu * t)) / (nu**2 - w**2)
    assert_allclose(memory_kernel_integral(times, values, nu, t), expected, atol=1e-8)


def test_memory_path_requires_history(phonon_system):
    space, params = phonon_system
    with pytest.raises(ValueError, match="history"):
        sigma_phonon_correction(space, params, 0, path="memory")


def test_memory_path_structure(phonon_system):
    space, params = phonon_system
    cache = OperatorCache(space)
    times = np.linspace(0.0, 3.0, 31)
    history = (times, np.full_like(times, 0.5))
    t = 3.0
    corr = sigma_phonon_correction(
        space, params, 0, t, component="minus", path="memory",
        history=history,
    )
    lam, nu = params.phonon_modes[0].coupling, params.phonon_modes[0].nu
    free = (
        np.exp(-1j * nu * t) * cache.b[0] + np.exp(1j * nu * t) * cache.b_dag[0]
    )
    kernel = 0.5 * (1.0 - np.cos(nu * t)) / nu
    expected = (-2j * lam) * (free @ cache.sigma[0].minus) + (
        4j * lam**2 * kernel
    ) * cache.sigma[0].minus
    assert (corr - expected).max_abs() <= 1e-10


# -- G vector and compact form ------------------------------------------------------------


def test_g_vector_free_case(free_site):
    space, params = free_site
    g = build_g_vector(space, params, 0)
    assert g.minus.max_abs() == 0.0
    assert g.plus.max_abs() == 0.0
    dense = g.z.to_dense()
    assert_allclose(dense, -1.0 * np.eye(space.dim), atol=1e-15)


def test_g_vector_single_mode_no_exchange():
    space = build_space(SpaceSpec(1, (ModeSpec(2),)))
    params = single_site_params(
        field_modes=(FieldMode(omega=1.0, amplitude=0.3, polarization_overlap=(1.0,)),),
    )
    cache = OperatorCache(space)
    g = build_g_vector(space, params, 0)
    b = field_coupling_operator(space, params, 0, 0.0)
    assert (g.minus - (-1.0) * b).max_abs() <= 1e-15
    assert (g.plus - (-1.0) * b).max_abs() <= 1e-15
    assert g.z.is_hermitian()


def test_g_vector_conjugate_pairing():
    space = build_space(SpaceSpec(3, (ModeSpec(2),), (ModeSpec(1),)))
    rng = np.random.default_rng(31)
    params = draw_params(space, rng)
    for l in range(3):
        g = build_g_vector(space, params, l)
        assert (g.minus.dag() - g.plus).max_abs() <= 1e-14
        assert g.z.is_hermitian()


def test_rhs_conjugation_symmetry():
    # the minus equation is the adjoint of the plus equation
    space = build_space(SpaceSpec(2, (ModeSpec(2),), (ModeSpec(1),)))
    rng = np.random.default_rng(57)
    params = draw_params(space, rng)
    for l in range(2):
        rhs = heisenberg_rhs_sigma(space, params, l)
        assert (rhs.minus.dag() - rhs.plus).max_abs() <= 1e-13
        assert rhs.z.dag().max_abs() == rhs.z.max_abs()


def test_compact_form_free_precession(free_site):
    space, params = free_site
    assert verify_compact_form(space, params, 0) <= 1e-12


def test_compact_form_interior_site_exchange_only():
    space = build_space(SpaceSpec(3))
    params = SystemParams(
        site_energies=tuple((-0.5, 0.5) for _ in range(3)), exchange_j=0.2
    )
    assert verify_compact_form(space, params, 1) <= 1e-10


@pytest.mark.parametrize("seed", range(10))
def test_compact_form_random_draws(seed):
    space = build_space(SpaceSpec(3, (ModeSpec(2),), (ModeSpec(1),)))
    rng = np.random.default_rng(100 + seed)
    params = draw_params(space, rng)
    for l in range(3):
        assert verify_compact_form(space, params, l) <= 1e-10


def test_compact_form_identity_metric_negative_control():
    space = build_space(SpaceSpec(2, (ModeSpec(2),)))
    params = SystemParams(
        site_energies=((-0.5, 0.5), (-0.5, 0.5)),
        field_modes=(FieldMode(omega=1.0, amplitude=0.3,
                               polarization_overlap=(1.0, 1.0)),),
    )
    assert verify_compact_form(space, params, 0, metric=(1.0, 1.0, 1.0)) > 1e-3


def test_compact_rhs_matches_commutator_directly():
    space = build_space(SpaceSpec(2, (ModeSpec(2),)))
    rng = np.random.default_rng(42)
    params = draw_params(space, rng)
    cache = OperatorCache(space)
    rhs = compact_rhs(space, params, 0)
    for comp, op in (("minus", cache.sigma[0].minus),
                     ("plus", cache.sigma[0].plus),
                     ("z", cache.sigma[0].z)):
        oracle = heisenberg_commutator(space, params, op)
        assert (getattr(rhs, comp) - oracle).max_abs() <= 1e-12


def _cached_matrices(cache):
    """(name, CSR arrays) of every operator the cache holds, copied."""
    out = []
    for attr, value in vars(cache).items():
        for i, item in enumerate(value if isinstance(value, list) else [value]):
            ops = vars(item).items() if not isinstance(item, Operator) else [("", item)]
            for name, op in ops:
                if isinstance(op, Operator):
                    m = op.matrix
                    out.append((f"{attr}[{i}].{name}", m.data.copy(), m.indices.copy(), m.indptr.copy()))
    return out


def test_identity_draws_build_one_shared_cache_and_leave_it_unchanged(monkeypatch):
    builds = []
    init = OperatorCache.__init__

    def counted(self, space):
        builds.append(space)
        init(self, space)

    monkeypatch.setattr(OperatorCache, "__init__", counted)
    monkeypatch.setattr(OperatorCache, "_shared", {})
    space = build_space(SpaceSpec(3, (ModeSpec(2),), (ModeSpec(2),)))
    rng = np.random.default_rng(28)
    before = None
    for _ in range(3):
        params = draw_params(space, rng, boundary="periodic")
        assert max(verify_heisenberg_identities(space, params).values()) <= 1e-11
        if before is None:
            before = _cached_matrices(OperatorCache.for_space(space))
        assert max(verify_compact_form(space, params, l) for l in range(3)) <= 1e-10
        assert min(verify_compact_form(space, params, l, metric=(1.0, 1.0, 1.0)) for l in range(3)) > 1e-3
    assert len(builds) == 1
    psi0 = np.zeros(space.dim, dtype=complex)
    psi0[1] = 1.0
    propagate(space, params, psi0, 2.0, n_out=5)
    assert len(builds) == 1
    after = _cached_matrices(OperatorCache.for_space(space))
    assert [entry[0] for entry in after] == [entry[0] for entry in before]
    assert len(after) == 1 + 3 * 4 + 6  # unit; minus, plus, z, sigma_x per site; a, a_dag, n, b, b_dag, nb
    for old, new in zip(before, after):
        assert all(np.array_equal(x, y) for x, y in zip(old[1:], new[1:])), old[0]


def test_a_caller_built_cache_serves_the_hamiltonian_and_both_oracles(monkeypatch):
    builds = []
    init = OperatorCache.__init__

    def counted(self, space):
        builds.append(space)
        init(self, space)

    monkeypatch.setattr(OperatorCache, "__init__", counted)
    monkeypatch.setattr(OperatorCache, "_shared", {})
    space = build_space(SpaceSpec(2, (ModeSpec(3),), (ModeSpec(1),)))
    params = draw_params(space, np.random.default_rng(13))
    cache = OperatorCache(space)
    TotalHamiltonian(space, params, cache)
    assert len(builds) == 1  # the Hamiltonian builds no cache
    assert max(verify_heisenberg_identities(space, params).values()) <= 1e-11
    assert verify_compact_form(space, params, 0) <= 1e-10
    assert OperatorCache.for_space(space) is cache
    assert len(builds) == 1


# -- Ehrenfest consistency ------------------------------------------------------------------


def test_ehrenfest_free_precession(free_site):
    space, params = free_site
    psi0 = product_state(space, [site_local_state("angles", theta=np.pi / 3)])
    dt = 1e-3  # 1e-3 / omega with omega = 1
    t_eval = np.arange(0.0, 2.0 + dt / 2, dt)
    traj = propagate(space, params, psi0, 2.0, tol=1e-12, t_eval=t_eval, keep_states=True)
    report = ehrenfest_check(traj, space, params, "sigma_minus_0", tolerance=1e-6)
    assert report.passed, report.max_deviation
    # analytic phase oracle: d<sm>/dt = -i omega <sm>
    sm = traj.records["sigma_minus_0"][1:-1]
    fd = (traj.records["sigma_minus_0"][2:] - traj.records["sigma_minus_0"][:-2]) / (2 * dt)
    assert np.max(np.abs(fd - (-1j) * sm)) <= 1e-6


def test_ehrenfest_diagonal_observable_zero_derivative(free_site):
    space, params = free_site
    psi0 = product_state(space, [site_local_state("angles", theta=1.0)])
    t_eval = np.linspace(0.0, 1.0, 101)
    traj = propagate(space, params, psi0, 1.0, tol=1e-12, t_eval=t_eval, keep_states=True)
    report = ehrenfest_check(traj, space, params, "sigma_z_0")
    assert report.max_deviation <= 1e-9


def test_ehrenfest_full_system_within_truncation_bound():
    space = build_space(SpaceSpec(2, (ModeSpec(4),), (ModeSpec(3),)))
    params = SystemParams(
        site_energies=((-0.5, 0.5), (-0.45, 0.55)),
        exchange_j=0.05,
        field_modes=(FieldMode(omega=1.0, amplitude=0.08,
                               polarization_overlap=(1.0, 0.8)),),
        phonon_modes=(PhononMode(nu=0.6, coupling=0.08),),
    )
    psi0 = product_state(
        space,
        [site_local_state("angles", theta=0.9),
         site_local_state("ground"),
         coherent_local(1.0, 4),
         fock_local(0, 3)],
    )
    dt = 2 * np.pi * 1e-3
    t_eval = np.arange(0.0, 3.0, dt)
    traj = propagate(space, params, psi0, t_eval[-1], tol=1e-12, t_eval=t_eval,
                     keep_states=True)
    report = ehrenfest_check(traj, space, params, "sigma_z_0")
    series = traj.records["sigma_z_0"]
    third = np.gradient(np.gradient(np.gradient(series, dt), dt), dt)
    bound = 10.0 * dt**2 * np.max(np.abs(third)) / 6.0 + 1e-9
    assert report.max_deviation <= bound


def test_ehrenfest_needs_states_and_fine_grid(free_site):
    space, params = free_site
    psi0 = product_state(space, [site_local_state("angles", theta=1.0)])
    traj = propagate(space, params, psi0, 1.0, n_out=11)
    with pytest.raises(ValueError, match="keep_states"):
        ehrenfest_check(traj, space, params, "sigma_z_0")
    tiny = propagate(space, params, psi0, 1.0, n_out=2, keep_states=True)
    with pytest.raises(ValueError, match="grid too coarse"):
        ehrenfest_check(tiny, space, params, "sigma_z_0")
