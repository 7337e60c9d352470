import itertools
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chainqed import meanfield
from chainqed.dynamics import PropagationError, Trajectory, propagate
from chainqed.hamiltonian import (
    ClassicalDrive,
    FieldMode,
    PhononMode,
    SystemParams,
    TotalHamiltonian,
    coupling_q,
    drive_field,
)
from chainqed.hilbert import (
    ModeSpec,
    SpaceSpec,
    build_space,
    coherent_local,
    product_state,
    site_local_state,
)
from chainqed.meanfield import (
    MeanFieldState,
    bloch_state,
    close_rhs,
    mean_field_energy,
    mf_propagate,
    rabi_oracle,
    spectral_flatness,
    spectrum,
    volterra_diagnostics,
)
from chainqed.runner import draw_params
from chainqed.transition_ops import SIGMA_MINUS_LOCAL, SIGMA_PLUS_LOCAL, SIGMA_Z_LOCAL


def single_site_params(omega=1.0, **kwargs):
    return SystemParams(site_energies=((-omega / 2, omega / 2),), **kwargs)


def mf_single(theta=np.pi / 2, phi=0.0):
    sm, sz = bloch_state(theta, phi)
    return MeanFieldState([sm], [sz], [], [])


# -- closed equations --------------------------------------------------------------


def test_free_precession_rhs():
    params = single_site_params(omega=1.3)
    mf = mf_single(theta=0.9, phi=0.4)
    deriv = close_rhs(mf, params, 0.0)
    assert_allclose(deriv.s_minus[0], -1.3j * mf.s_minus[0], atol=1e-15)
    assert_allclose(deriv.s_z[0], 0.0, atol=1e-15)


def test_driven_site_reduces_to_landau_lifshitz_form():
    # In true spin components S = (Re s-, -Im s-, s_z / 2) the closed
    # equations are exactly dS/dt = H_eff x S with H_eff = (2 B(t), 0, omega).
    params = single_site_params(
        omega=1.1, drives=(ClassicalDrive(amplitude=0.2 + 0.1j, frequency=1.0),)
    )
    rng = np.random.default_rng(8)
    theta, phi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
    mf = mf_single(theta, phi)
    t = 0.73
    deriv = close_rhs(mf, params, t)
    s_true = np.array([mf.s_minus[0].real, -mf.s_minus[0].imag, mf.s_z[0] / 2.0])
    ds_true = np.array(
        [deriv.s_minus[0].real, -deriv.s_minus[0].imag, deriv.s_z[0] / 2.0]
    )
    h_eff = np.array([2.0 * drive_field(params, 0, t), 0.0, 1.1])
    assert_allclose(ds_true, np.cross(h_eff, s_true), atol=1e-14)


def test_two_site_exchange_conserves_total_inversion():
    params = SystemParams(
        site_energies=((-0.5, 0.5), (-0.5, 0.5)), exchange_j=0.3
    )
    rng = np.random.default_rng(3)
    mf = MeanFieldState(
        rng.normal(size=2) * 0.3 + 1j * rng.normal(size=2) * 0.3,
        rng.uniform(-0.5, 0.5, size=2),
        [],
        [],
    )
    deriv = close_rhs(mf, params, 0.0)
    assert abs(np.sum(deriv.s_z)) <= 1e-14


def test_bloch_length_conserved_over_100_periods():
    params = single_site_params(
        omega=1.0,
        drives=(ClassicalDrive(amplitude=0.02, frequency=1.0),),
    )
    mf0 = mf_single(theta=2.0, phi=1.0)
    t_end = 100 * 2 * np.pi
    traj = mf_propagate(mf0, params, t_end, tol=1e-11, n_out=401)
    assert traj.meta["bloch_drift"] <= 1e-8


@pytest.mark.parametrize("seed", range(5))
def test_bloch_invariant_random_draws(seed):
    space = build_space(SpaceSpec(2, (ModeSpec(2),), (ModeSpec(1),)))
    rng = np.random.default_rng(400 + seed)
    params = draw_params(space, rng)
    mf0 = MeanFieldState(
        [bloch_state(rng.uniform(0, np.pi))[0] for _ in range(2)],
        [bloch_state(th)[1] for th in rng.uniform(0, np.pi, size=2)],
        [0.5 + 0.2j],
        [0.1],
    )
    lengths0 = mf0.bloch_lengths()
    traj = mf_propagate(mf0, params, 40.0, tol=1e-11, n_out=101)
    for l in range(2):
        drift = np.max(np.abs(traj.records[f"bloch_{l}"] - lengths0[l]))
        assert drift <= 1e-8


def test_mean_field_energy_conserved_static():
    params = SystemParams(
        site_energies=((-0.5, 0.5), (-0.4, 0.6)),
        exchange_j=0.1,
        field_modes=(FieldMode(omega=0.9, amplitude=0.1,
                               polarization_overlap=(1.0, 0.7)),),
        phonon_modes=(PhononMode(nu=0.5, coupling=0.1),),
    )
    mf0 = MeanFieldState(
        [bloch_state(1.0)[0], bloch_state(2.2)[0]],
        [bloch_state(1.0)[1], bloch_state(2.2)[1]],
        [1.2],
        [0.3 - 0.1j],
    )
    traj = mf_propagate(mf0, params, 50.0, tol=1e-11, n_out=101)
    energy = traj.records["energy"]
    assert np.max(np.abs(energy - energy[0])) <= 1e-8 * max(1.0, abs(energy[0]))


# -- agreement with the per-site equations ---------------------------------------------


def _oracle_site_drive(params, mf, l, t):
    """Real driving field on site l: quantized-mode image plus classical drives."""
    total = drive_field(params, l, t)
    for k in range(len(params.field_modes)):
        total += 2.0 * (coupling_q(params, l, k, t) * mf.a[k]).real
    return total


def _oracle_rhs(mf, params, t):
    """The closed equations written site by site (the reference for ``close_rhs``)."""
    n = mf.n_sites
    ds_minus = np.zeros(n, dtype=np.complex128)
    ds_z = np.zeros(n, dtype=float)
    j = params.exchange_j
    lam_disp = 0.0
    for q, mode in enumerate(params.phonon_modes):
        lam_disp += mode.coupling * 2.0 * mf.b[q].real
    for l in range(n):
        b_l = _oracle_site_drive(params, mf, l, t)
        sm, sz = mf.s_minus[l], mf.s_z[l]
        ds_minus[l] = -1j * params.omegas[l] * sm + 1j * sz * b_l
        ds_z[l] = -4.0 * sm.imag * b_l
        if j != 0.0:
            s_minus_nb = sum(mf.s_minus[w] for w in params.neighbors(l))
            s_z_nb = sum(mf.s_z[w] for w in params.neighbors(l))
            ds_minus[l] += 2j * j * (sz * s_minus_nb - sm * s_z_nb)
            ds_z[l] += -8.0 * j * (sm * np.conj(s_minus_nb)).imag
        if lam_disp != 0.0:
            ds_minus[l] += -2j * lam_disp * sm
    da = np.zeros_like(mf.a)
    for k, mode in enumerate(params.field_modes):
        source = sum(
            2.0 * mf.s_minus[jj].real * np.conj(coupling_q(params, jj, k, t)) for jj in range(n)
        )
        da[k] = -1j * mode.omega * mf.a[k] - 1j * source
    db = np.zeros_like(mf.b)
    sz_total = float(np.sum(mf.s_z))
    for q, mode in enumerate(params.phonon_modes):
        db[q] = -1j * mode.nu * mf.b[q] - 1j * mode.coupling * sz_total
    return MeanFieldState(ds_minus, ds_z, da, db, t)


def _oracle_energy(mf, params, t):
    """The mean-field Hamiltonian function summed term by term."""
    e = 0.0
    for l, (e_low, e_up) in enumerate(params.site_energies):
        e += 0.5 * (e_up - e_low) * mf.s_z[l] + 0.5 * (e_low + e_up)
    j = params.exchange_j
    if j != 0.0:
        for v, w in params.bonds():
            e += 2.0 * j * (
                2.0 * (np.conj(mf.s_minus[v]) * mf.s_minus[w]).real
                + 0.5 * mf.s_z[v] * mf.s_z[w]
            )
    for k, mode in enumerate(params.field_modes):
        e += mode.omega * (abs(mf.a[k]) ** 2 + 0.5)
    for l in range(mf.n_sites):
        e += _oracle_site_drive(params, mf, l, t) * 2.0 * mf.s_minus[l].real
    for q, mode in enumerate(params.phonon_modes):
        e += mode.nu * (abs(mf.b[q]) ** 2 + 0.5)
        e += mode.coupling * 2.0 * mf.b[q].real * float(np.sum(mf.s_z))
    return float(e)


def _random_system(n, boundary, coupling_mode, drives, phonons, seed=0):
    rng = np.random.default_rng(seed)
    omegas = rng.uniform(0.8, 1.2, size=n)
    if drives == "subset":
        # duplicated and repeated sites count once, as in drive_field
        drive_set = (
            ClassicalDrive(0.07 - 0.03j, 0.95, tuple(range(0, n, 2)) + (0,)),
            ClassicalDrive(0.02j, 1.3, (n - 1,)),
        )
    elif drives == "all":
        drive_set = (ClassicalDrive(0.05 + 0.01j, 1.05),)
    else:
        drive_set = ()
    params = SystemParams(
        site_energies=tuple((-0.5 * w + 0.1, 0.5 * w + 0.1) for w in omegas),
        exchange_j=0.07,
        boundary=boundary,
        field_modes=tuple(
            FieldMode(omega=w, wavevector=kv, amplitude=amp,
                      polarization_overlap=tuple(rng.uniform(-1, 1, size=n)))
            for w, kv, amp in ((1.0, 0.4, 0.03), (0.7, -1.1, 0.05))
        ),
        dipole=tuple(rng.uniform(0.5, 1.5, size=n)),
        site_positions=tuple(np.cumsum(rng.uniform(0.5, 1.5, size=n))),
        coupling_mode=coupling_mode,
        phonon_modes=(PhononMode(0.5, 0.02), PhononMode(0.8, -0.03)) if phonons else (),
        drives=drive_set,
    )
    theta, phi = rng.uniform(0.2, 2.8, size=n), rng.uniform(0, 2 * np.pi, size=n)
    mf = MeanFieldState(
        0.5 * np.sin(theta) * np.exp(1j * phi),
        -np.cos(theta),
        rng.normal(size=2) + 1j * rng.normal(size=2),
        rng.normal(size=2) + 1j * rng.normal(size=2) if phonons else [],
    )
    return params, mf


AGREEMENT_CASES = list(
    itertools.product(
        ("open", "periodic"),
        (1, 2, 3, 16),
        ("static_phase_at_t0", "literal_time_dependent"),
        ("none", "subset", "all"),
        (False, True),
    )
)


@pytest.mark.parametrize("boundary,n,coupling_mode,drives,phonons", AGREEMENT_CASES)
def test_compiled_closure_matches_site_equations(boundary, n, coupling_mode, drives, phonons):
    params, mf = _random_system(n, boundary, coupling_mode, drives, phonons, seed=n)
    # late times too, where the literal phase and the drives have turned many times
    for t in (0.0, 0.37, 5.2, 250.0, 1000.0):
        got, want = close_rhs(mf, params, t).pack(), _oracle_rhs(mf, params, t).pack()
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        energy = _oracle_energy(mf, params, t)
        assert abs(mean_field_energy(mf, params, t) - energy) <= 1e-14 * max(1.0, abs(energy))


def test_compiled_rhs_returns_a_new_array_on_every_call():
    # an integrator may keep a returned derivative between calls (scipy's DOP853, the tests' reference, does)
    params, mf = _random_system(3, "periodic", "literal_time_dependent", "subset", True, seed=5)
    closure = meanfield.CompiledClosure(params)
    y = mf.pack()
    first, second = closure.rhs(0.0, y), closure.rhs(0.0, y)
    assert np.array_equal(first, second)
    assert not np.shares_memory(first, second)
    assert not np.shares_memory(first, y) and not np.shares_memory(second, y)


@pytest.mark.parametrize("coupling_mode,drives,phonons", [
    ("static_phase_at_t0", "none", False),
    ("static_phase_at_t0", "subset", True),
    ("literal_time_dependent", "none", True),
], ids=["static", "driven", "literal-phonons"])
def test_compiled_rhs_is_the_term_table_in_its_documented_order(coupling_mode, drives, phonons):
    params, mf = _random_system(3, "periodic", coupling_mode, drives, phonons, seed=11)
    closure = meanfield.CompiledClosure(params)
    o, i, j, m, c = closure._term_table()
    assert closure.is_static == (coupling_mode == "static_phase_at_t0" and drives == "none")
    y = mf.pack()
    for t in (0.0, 0.37, 250.0):
        x = np.concatenate((y, [1.0], closure.phasors(t).view(float)))
        want = np.zeros_like(y)
        for k, w in enumerate(c * x[i] * x[j] * x[m]):  # x[m] is the 1 for a term without a time factor
            want[o[k]] += w
        assert np.array_equal(closure.rhs(t, y), want), t


def test_a_static_closure_evaluates_no_phasor(monkeypatch):
    params, mf = _random_system(3, "periodic", "static_phase_at_t0", "none", True, seed=7)
    y = mf.pack()
    want = meanfield.CompiledClosure(params).rhs(0.4, y)

    def no_phasors(self, t):
        raise AssertionError("phasors evaluated")

    monkeypatch.setattr(meanfield.CompiledClosure, "phasors", no_phasors)
    assert np.array_equal(meanfield.CompiledClosure(params).rhs(0.4, y), want)
    driven, _ = _random_system(3, "periodic", "static_phase_at_t0", "all", True, seed=7)
    with pytest.raises(AssertionError, match="phasors evaluated"):
        meanfield.CompiledClosure(driven).rhs(0.4, y)


@pytest.mark.parametrize("coupling_mode", ["static_phase_at_t0", "literal_time_dependent"])
def test_closure_with_a_nan_coupling_is_refused_before_integrating(monkeypatch, coupling_mode):
    params = single_site_params(
        coupling_mode=coupling_mode,
        field_modes=(FieldMode(omega=1.0, amplitude=float("nan"), polarization_overlap=(1.0,)),),
    )
    mf0 = MeanFieldState([0.0], [-1.0], [0.0], [])

    def no_solve(*args, **kwargs):
        raise AssertionError("integration started")

    monkeypatch.setattr(meanfield, "solve_ivp", no_solve)
    with pytest.raises(PropagationError, match="non-finite"):
        mf_propagate(mf0, params, 1.0)
    with pytest.raises(PropagationError, match="non-finite"):
        volterra_diagnostics(params, mf0, 10.0, n_out=64)


def test_mf_propagate_records_match_oracle_integration():
    params, mf = _random_system(3, "open", "literal_time_dependent", "all", True, seed=21)
    traj = mf_propagate(mf, params, 6.0, tol=1e-10, n_out=61)

    def oracle(t, y):
        n, nf, nph = 3, 2, 2
        base = 3 * n + 2 * nf
        state = MeanFieldState(
            y[:n] + 1j * y[n:2 * n], y[2 * n:3 * n],
            y[3 * n:3 * n + nf] + 1j * y[3 * n + nf:base],
            y[base:base + nph] + 1j * y[base + nph:],
        )
        return _oracle_rhs(state, params, t).pack()

    # the same integrator at the same tolerance, on the oracle's right-hand side
    y = meanfield.solve_ivp(oracle, (0.0, 6.0), mf.pack(), traj.times, 1e-10)[0]
    want = {"norm": np.sqrt(np.mean(y[6:9] ** 2 + 4 * (y[0:3] ** 2 + y[3:6] ** 2), axis=0))}
    for l in range(3):
        want[f"sigma_minus_{l}"] = y[l] + 1j * y[3 + l]
        want[f"sigma_plus_{l}"] = y[l] - 1j * y[3 + l]
        want[f"sigma_z_{l}"] = y[6 + l]
        want[f"bloch_{l}"] = y[6 + l] ** 2 + 4 * (y[l] ** 2 + y[3 + l] ** 2)
    for k in range(2):
        want[f"a_{k}"] = y[9 + k] + 1j * y[11 + k]
        want[f"n_{k}"] = y[9 + k] ** 2 + y[11 + k] ** 2
        want[f"b_{k}"] = y[13 + k] + 1j * y[15 + k]
        want[f"nb_{k}"] = y[13 + k] ** 2 + y[15 + k] ** 2
    want["energy"] = np.array([
        _oracle_energy(MeanFieldState(want_sm, y[6:9, i], y[9:11, i] + 1j * y[11:13, i],
                                      y[13:15, i] + 1j * y[15:17, i]), params, t)
        for i, (t, want_sm) in enumerate(zip(traj.times, (y[0:3] + 1j * y[3:6]).T))
    ])
    assert set(traj.records) == set(want)
    for name, values in want.items():
        assert np.max(np.abs(traj.records[name] - values)) <= 1e-12, name


def test_mf_propagate_counts_rhs_evaluations(monkeypatch):
    params, mf = _random_system(2, "open", "static_phase_at_t0", "all", True, seed=4)
    calls = []
    solve = meanfield.solve_ivp

    def counting_solve_ivp(fun, *args, **kwargs):
        def counted(t, y):
            calls.append(t)
            return fun(t, y)
        return solve(counted, *args, **kwargs)

    monkeypatch.setattr(meanfield, "solve_ivp", counting_solve_ivp)
    traj = mf_propagate(mf, params, 3.0, n_out=11)
    assert traj.meta["method"] == "LSODA"
    assert traj.meta["rhs_evaluations"] >= traj.meta["steps"] > 0
    assert traj.meta["rhs_evaluations"] == len(calls)


def test_state_size_mismatch_refused():
    params, mf = _random_system(3, "open", "static_phase_at_t0", "none", False)
    short = MeanFieldState(mf.s_minus[:2], mf.s_z[:2], mf.a, mf.b)
    for call in (lambda: close_rhs(short, params, 0.0), lambda: mean_field_energy(short, params),
                 lambda: mf_propagate(short, params, 1.0)):
        with pytest.raises(ValueError, match=r"params declare \(3,"):
            call()


def test_single_site_periodic_chain_has_no_self_bond():
    # the exact Hamiltonian of one site has no exchange; the closure must not pair the site with itself
    mf0 = MeanFieldState([0.3 + 0.1j], [-0.8], [], [])
    energies = {}
    for boundary in ("open", "periodic"):
        params = single_site_params(exchange_j=0.2, boundary=boundary)
        energies[boundary] = mf_propagate(mf0, params, 5.0, n_out=11).observable("energy")
    h = TotalHamiltonian(build_space(SpaceSpec(1)), single_site_params(exchange_j=0.2, boundary="periodic"))
    # the one-site density matrix with <sigma-> = s- and <sigma_z> = s_z; s_z is conserved
    rho = 0.5 * (np.eye(2) - 0.8 * SIGMA_Z_LOCAL) + (0.3 + 0.1j) * SIGMA_PLUS_LOCAL + (0.3 - 0.1j) * SIGMA_MINUS_LOCAL
    exact = np.trace(rho @ h.static.to_dense()).real
    assert_allclose(energies["periodic"], energies["open"], rtol=0, atol=1e-12)
    assert_allclose(energies["periodic"], exact, rtol=0, atol=1e-12)


def test_long_periodic_chain_keeps_bloch_lengths():
    # 4096 sites: an n x n array of floats would take 134 MB
    n = 4096
    rng = np.random.default_rng(9)
    params = SystemParams(
        site_energies=tuple((-0.5 * w, 0.5 * w) for w in rng.uniform(0.9, 1.1, size=n)),
        exchange_j=0.05,
        boundary="periodic",
        field_modes=(FieldMode(omega=1.0, wavevector=0.4, amplitude=0.02),),
        phonon_modes=(PhononMode(nu=0.5, coupling=0.01),),
        drives=(ClassicalDrive(0.02, 1.0, tuple(range(0, n, 64))),),
    )
    theta, phi = rng.uniform(0.2, 1.2, size=n), rng.uniform(0, 2 * np.pi, size=n)
    mf0 = MeanFieldState(0.5 * np.sin(theta) * np.exp(1j * phi), -np.cos(theta), [1.0], [0.0])
    tracemalloc.start()
    try:
        traj = mf_propagate(mf0, params, 2.0, n_out=11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.meta["bloch_drift"] <= 1e-8
    assert peak < 8 * n * n / 4  # a quarter of one dense n x n float array
    assert len(traj.records) == 4 * n + 2 + 2 + 2


# -- Rabi oracle ----------------------------------------------------------------------


def test_rabi_oracle_zero_drive_constant():
    params = single_site_params(drives=(ClassicalDrive(amplitude=0.0, frequency=1.0),))
    oracle = rabi_oracle(params)
    assert_allclose(oracle.s_z([0.0, 1.0, 10.0]), -1.0)
    assert oracle.inversion_time == np.inf


def test_rabi_oracle_validity_window():
    strong = single_site_params(drives=(ClassicalDrive(amplitude=0.2, frequency=1.0),))
    with pytest.raises(ValueError, match="rotating-wave"):
        rabi_oracle(strong)
    detuned = single_site_params(drives=(ClassicalDrive(amplitude=0.01, frequency=1.5),))
    with pytest.raises(ValueError, match="detuning"):
        rabi_oracle(detuned)
    quantized = single_site_params(
        field_modes=(FieldMode(omega=1.0, amplitude=0.1, polarization_overlap=(1.0,)),),
        drives=(ClassicalDrive(amplitude=0.01, frequency=1.0),),
    )
    with pytest.raises(ValueError, match="classical"):
        rabi_oracle(quantized)


def test_resonant_inversion_and_amplitude_scaling():
    amp = 0.01
    params = single_site_params(drives=(ClassicalDrive(amplitude=amp, frequency=1.0),))
    oracle = rabi_oracle(params)
    assert oracle.omega_rabi == pytest.approx(2 * amp)
    assert oracle.s_z(oracle.inversion_time) == pytest.approx(1.0)
    doubled = rabi_oracle(
        single_site_params(drives=(ClassicalDrive(amplitude=2 * amp, frequency=1.0),))
    )
    assert doubled.inversion_time == pytest.approx(oracle.inversion_time / 2)


def test_mean_field_matches_rabi_oracle_resonant():
    amp = 0.01
    params = single_site_params(drives=(ClassicalDrive(amplitude=amp, frequency=1.0),))
    oracle = rabi_oracle(params)
    mf0 = MeanFieldState([0.0], [-1.0], [], [])
    t_end = 2 * oracle.inversion_time
    traj = mf_propagate(mf0, params, t_end, tol=1e-11, n_out=401)
    # counter-rotating terms put tiny fast wiggles on top of the RWA solution
    assert np.max(np.abs(traj.records["sigma_z_0"] - oracle.s_z(traj.times))) <= 5 * amp
    assert np.max(np.abs(traj.records["sigma_minus_0"] - oracle.s_minus(traj.times))) <= 5 * amp


def test_mean_field_matches_generalized_rabi_detuned():
    amp, delta = 0.01, 0.03
    params = single_site_params(
        drives=(ClassicalDrive(amplitude=amp, frequency=1.0 + delta),)
    )
    oracle = rabi_oracle(params)
    mf0 = MeanFieldState([0.0], [-1.0], [], [])
    t_end = 3 * oracle.inversion_time
    traj = mf_propagate(mf0, params, t_end, tol=1e-11, n_out=601)
    measured_amp = 0.5 * (np.max(traj.records["sigma_z_0"]) + 1.0)
    assert measured_amp == pytest.approx(oracle.oscillation_amplitude, rel=0.02)


def test_exact_propagation_matches_oracle_classical_drive():
    amp = 0.01
    params = single_site_params(drives=(ClassicalDrive(amplitude=amp, frequency=1.0),))
    oracle = rabi_oracle(params)
    space = build_space(SpaceSpec(1))
    psi0 = product_state(space, [site_local_state("ground")])
    traj = propagate(space, params, psi0, 1.2 * oracle.inversion_time,
                     tol=1e-11, n_out=601)
    deviation = np.max(np.abs(traj.records["sigma_z_0"] - oracle.s_z(traj.times)))
    assert deviation <= 5 * amp


# -- quantum-classical closure in its validity limit ---------------------------------------


def test_closure_tracks_exact_dynamics_large_field():
    # coherent field with mean photon number 100 (cutoff 3x mean): the
    # factorized flow follows the exact inversion through the first Rabi
    # cycle; collapse dephasing scales like pi^2/(2 nbar) and is small here.
    nbar = 100.0
    alpha = np.sqrt(nbar)
    cutoff = 300
    g = 0.004
    space = build_space(SpaceSpec(1, (ModeSpec(cutoff),)))
    params = single_site_params(
        field_modes=(FieldMode(omega=1.0, amplitude=g, polarization_overlap=(1.0,)),),
    )
    rabi_period = 2 * np.pi / (2 * g * alpha)
    psi0 = product_state(space, [site_local_state("ground"), coherent_local(alpha, cutoff)])
    exact = propagate(space, params, psi0, rabi_period, tol=1e-9, n_out=201)
    mf0 = MeanFieldState([0.0], [-1.0], [alpha], [])
    mf_traj = mf_propagate(mf0, params, rabi_period, tol=1e-10, n_out=201)
    gap = np.max(np.abs(exact.records["sigma_z_0"] - mf_traj.records["sigma_z_0"]))
    assert gap / 2.0 <= 0.05  # within 5% of the full inversion range
    assert not exact.meta["truncation_flagged"]


# -- spectrum -------------------------------------------------------------------------------


def _tone_trajectory(omega=1.0, t_end=200.0, n=4001, complex_series=True):
    times = np.linspace(0.0, t_end, n)
    if complex_series:
        series = 0.5 * np.exp(-1j * omega * times)
    else:
        series = np.cos(omega * times)
    return Trajectory(times=times, records={"obs": series})


def test_spectrum_free_precession_single_peak():
    omega = 1.0
    traj = _tone_trajectory(omega, complex_series=False)
    result = spectrum(traj, "obs")
    assert result.peaks
    bin_width = result.omegas[1] - result.omegas[0]
    assert abs(result.peaks[0].omega - omega) <= bin_width
    assert abs(result.parseval_ratio - 1.0) <= 0.01


def test_spectrum_complex_series_peaks_at_negative_frequency():
    # exp(-i omega t) lives at angular frequency -omega on the two-sided grid
    omega = 1.3
    result = spectrum(_tone_trajectory(omega), "obs")
    bin_width = result.omegas[1] - result.omegas[0]
    assert abs(result.peaks[0].omega + omega) <= bin_width


def test_spectrum_constant_series_all_power_at_zero():
    times = np.linspace(0.0, 10.0, 101)
    traj = Trajectory(times=times, records={"obs": np.full(101, 2.0)})
    result = spectrum(traj, "obs", window="rect")
    assert result.peaks[0].omega == 0.0
    assert result.power[0] == pytest.approx(np.sum(result.power), rel=1e-12)
    assert abs(result.parseval_ratio - 1.0) <= 1e-12


def test_spectrum_peak_location_invariant_under_rescaling():
    traj = _tone_trajectory(0.8, complex_series=False)
    scaled = Trajectory(times=traj.times, records={"obs": 17.3 * traj.records["obs"]})
    assert spectrum(traj, "obs").peaks[0].omega == spectrum(scaled, "obs").peaks[0].omega


def test_spectrum_rejects_nonuniform_grid_unless_resampled():
    times = np.concatenate([np.linspace(0, 1, 50), np.linspace(1.1, 5, 150)])
    traj = Trajectory(times=times, records={"obs": np.sin(times)})
    with pytest.raises(ValueError, match="non-uniform"):
        spectrum(traj, "obs")
    result = spectrum(traj, "obs", resample=True)
    assert result.power.size


def test_two_site_exchange_beat_splitting():
    # transition frequencies from the 4x4 spectrum: omega and omega -+ 4J
    omega, j = 1.0, 0.05
    space = build_space(SpaceSpec(2))
    params = SystemParams(
        site_energies=((-omega / 2, omega / 2), (-omega / 2, omega / 2)),
        exchange_j=j,
    )
    evals = np.linalg.eigvalsh(
        __import__("chainqed.hamiltonian", fromlist=["build_hc"]).build_hc(
            space, params
        ).to_dense()
    )
    psi0 = product_state(
        space,
        [site_local_state("angles", theta=np.pi / 2),
         site_local_state("angles", theta=np.pi / 2, phi=0.7)],
    )
    t_end = 800.0
    traj = propagate(space, params, psi0, t_end, tol=1e-9, n_out=8001)
    sx = Trajectory(
        times=traj.times,
        records={"sx": 2.0 * traj.records["sigma_minus_0"].real},
    )
    result = spectrum(sx, "sx", peak_rel_height=1e-4)
    bin_width = result.omegas[1] - result.omegas[0]
    expected_lines = {omega, omega + 4 * j, omega - 4 * j}
    found = result.peak_omegas()
    for line in expected_lines:
        assert np.min(np.abs(found - line)) <= bin_width
    # oracle cross-check: the lines are eigenvalue differences
    diffs = {round(abs(a - b), 9) for a in evals for b in evals if abs(a - b) > 0.5}
    for line in expected_lines:
        assert any(abs(line - d) < 1e-9 for d in diffs)


# -- regime diagnostics -----------------------------------------------------------------------


def test_spectral_flatness_extremes():
    line = np.zeros(100)
    line[10] = 1.0
    assert spectral_flatness(line) == pytest.approx(1.0)  # single nonzero bin
    assert spectral_flatness(np.ones(100)) == pytest.approx(1.0)
    mixed = np.full(100, 1e-12)
    mixed[10] = 1.0
    assert spectral_flatness(mixed) < 1e-3


def test_volterra_free_precession_classified_periodic():
    params = single_site_params(omega=1.0)
    report = volterra_diagnostics(params, mf_single(), 300.0, seed=1)
    assert report.classification == "periodic"
    assert report.lyapunov <= max(2.0 * report.lyapunov_stderr, 1e-6)
    assert max(report.flatness.values()) < 0.05


def test_volterra_field_only_classified_periodic():
    params = single_site_params(
        omega=1.0,
        field_modes=(FieldMode(omega=0.7, amplitude=0.2, polarization_overlap=(1.0,)),),
        dipole=(0.0,),
    )
    mf0 = MeanFieldState([0.0], [-1.0], [1.0 + 0.5j], [])
    report = volterra_diagnostics(
        params, mf0, 300.0, observables=("n_0", "sigma_z_0"), seed=2
    )
    assert report.classification == "periodic"


def test_volterra_refuses_an_unrecorded_observable_before_integrating(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("integrated before checking the observables")

    monkeypatch.setattr(meanfield, "solve_ivp", no_solve)
    with pytest.raises(ValueError, match=r"no record \['sigma_z_1'\].*available: .*'sigma_z_0'"):
        volterra_diagnostics(single_site_params(omega=1.0), mf_single(), 300.0, observables=("sigma_z_1",))


def test_volterra_driven_chain_emits_classification():
    # exploratory: a strongly driven exchange chain; the pipeline must
    # return a classification with confidence numbers, whatever the regime
    params = SystemParams(
        site_energies=((-0.5, 0.5), (-0.45, 0.55), (-0.55, 0.45)),
        exchange_j=0.2,
        drives=(ClassicalDrive(amplitude=0.15, frequency=0.9),),
    )
    mf0 = MeanFieldState(
        [bloch_state(0.4)[0], bloch_state(1.9, 0.5)[0], bloch_state(2.6, 1.0)[0]],
        [bloch_state(0.4)[1], bloch_state(1.9)[1], bloch_state(2.6)[1]],
        [],
        [],
    )
    report = volterra_diagnostics(params, mf0, 150.0, seed=3)
    assert report.classification in ("periodic", "quasiperiodic", "broadband")
    assert report.intervals >= 5
    assert np.isfinite(report.lyapunov_stderr)
    # the estimate of the two-solve probe (reference and perturbed state integrated apart)
    assert report.lyapunov == pytest.approx(0.0277, abs=1e-3)
    assert report.lyapunov_stderr == pytest.approx(0.0132, abs=1e-3)
    assert report.classification == "periodic"


def test_volterra_makes_one_solve_per_interval(monkeypatch):
    # the base run, then one solve of the stacked reference/perturbed pair per interval
    solves = []
    solve = meanfield.solve_ivp

    def counted(fun, t_span, y0, *args, **kwargs):
        solves.append((t_span, y0.size))
        return solve(fun, t_span, y0, *args, **kwargs)

    monkeypatch.setattr(meanfield, "solve_ivp", counted)
    report = volterra_diagnostics(single_site_params(), mf_single(), 20.0, n_out=64)
    assert report.intervals == 20
    assert len(solves) == 1 + report.intervals
    size = mf_single().pack().size
    assert [n for _, n in solves] == [size] + [2 * size] * report.intervals


@pytest.mark.parametrize("renorm_interval", [0.0, float("nan"), -1.0], ids=["zero", "nan", "negative"])
def test_volterra_refuses_a_bad_renormalization_interval(renorm_interval):
    with pytest.raises(ValueError, match="renorm_interval must be positive and finite"):
        volterra_diagnostics(single_site_params(), mf_single(), 10.0, renorm_interval=renorm_interval)


@pytest.mark.parametrize("t_end", [0.0, float("nan"), float("inf")], ids=["at-start", "nan", "inf"])
def test_volterra_refuses_a_bad_end_time(t_end):
    with pytest.raises(ValueError, match="must be finite and exceed start time"):
        volterra_diagnostics(single_site_params(), mf_single(), t_end)


def test_volterra_too_short_raises():
    params = single_site_params()
    with pytest.raises(ValueError, match="too short"):
        volterra_diagnostics(params, mf_single(), 1.0, renorm_interval=0.5)
