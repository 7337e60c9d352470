"""Acceptance suite.

One test per acceptance criterion; each prints a single PASS/FAIL line with
the measured value, its tolerance and the runtime, then asserts.  Run with
``pytest tests/test_acceptance.py -v -s`` to see every line; without ``-s``
the lines surface for failing criteria only.

Seeds for the randomized criteria are fixed module constants and echoed in
the printed lines.
"""

import time

import numpy as np
from scipy.special import ellipj, gammaln

from chainqed.dynamics import (
    ehrenfest_check,
    memory_kernel_integral,
    propagate,
    sigma_phonon_correction,
    verify_compact_form,
    verify_heisenberg_identities,
)
from chainqed.hamiltonian import (
    ClassicalDrive,
    FieldMode,
    OperatorCache,
    SystemParams,
    build_hcp,
)
from chainqed.hilbert import (
    ModeSpec,
    SpaceSpec,
    build_space,
    coherent_local,
    commutator,
    product_state,
    site_local_state,
)
from chainqed.meanfield import MeanFieldState, bloch_state, mf_propagate, rabi_oracle
from chainqed.runner import config_from_dict, draw_params, run
from chainqed.transition_ops import (
    build_transition_set,
    check_algebra_closure,
    check_pauli_isomorphism,
    transition_local,
)

EOM_SEED = 2024
COMPACT_SEED = 2024
INVARIANT_SEED = 777


def _report(name, passed, detail, started, budget):
    elapsed = time.perf_counter() - started
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {name}: {detail} (runtime {elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"{name} exceeded its runtime budget"
    return passed


def _uniform_site_energies(n, omega=1.0):
    return tuple((-omega / 2, omega / 2) for _ in range(n))


def test_criterion_01_algebra_closure():
    """All 16 commutators of the basic transition operators close per the
    algebra rule on an embedded site; the three named ladder relations hold
    exactly in integer arithmetic."""
    started = time.perf_counter()
    space = build_space(SpaceSpec(2, (ModeSpec(2),)))
    ts = build_transition_set(space, 0)
    report = check_algebra_closure(ts, tol=1e-13)

    # exact integer check of the named relations on the local matrices
    labels = ("a", "b")
    ints = {
        (j, m): transition_local(j, m).real.astype(np.int64)
        for j in labels
        for m in labels
    }
    minus, plus = ints[("a", "b")], ints[("b", "a")]
    z = ints[("b", "b")] - ints[("a", "a")]
    exact = (
        np.array_equal(minus @ z - z @ minus, 2 * minus)
        and np.array_equal(z @ plus - plus @ z, 2 * plus)
        and np.array_equal(plus @ minus - minus @ plus, z)
    )
    # and of the full 16-pair rule
    for (l, m), lm in ints.items():
        for (p, q), pq in ints.items():
            rhs = np.zeros((2, 2), dtype=np.int64)
            if m == p:
                rhs += transition_local(l, q).real.astype(np.int64)
            if q == l:
                rhs -= transition_local(p, m).real.astype(np.int64)
            exact = exact and np.array_equal(lm @ pq - pq @ lm, rhs)

    passed = report.passed and report.max_residual <= 1e-13 and exact
    assert _report(
        "criterion-01 algebra-closure",
        passed,
        f"embedded residual {report.max_residual:.2e} <= 1e-13, integer relations exact",
        started,
        1.0,
    )


def test_criterion_02_pauli_isomorphism():
    """Structure constants of the transition algebra match the extended
    Pauli algebra exhaustively."""
    started = time.perf_counter()
    space = build_space(SpaceSpec(2, (ModeSpec(2),)))
    report = check_pauli_isomorphism(build_transition_set(space, 0), tol=1e-13)
    assert _report(
        "criterion-02 pauli-isomorphism",
        report.passed and report.max_residual <= 1e-13,
        f"max structure-constant residual {report.max_residual:.2e} <= 1e-13",
        started,
        1.0,
    )


def _eom_space():
    return build_space(SpaceSpec(3, (ModeSpec(4),), (ModeSpec(3),)))


def test_criterion_03_heisenberg_eom_identity():
    """Every explicit equation-of-motion right-hand side (site, field,
    phonon, phonon corrections) equals i[H_total, O] on 10 random draws."""
    started = time.perf_counter()
    space = _eom_space()
    rng = np.random.default_rng(EOM_SEED)
    worst = 0.0
    for _ in range(10):
        params = draw_params(space, rng, coupling_mode="static_phase_at_t0")
        residuals = verify_heisenberg_identities(space, params)
        worst = max(worst, max(residuals.values()))
    assert _report(
        "criterion-03 heisenberg-eom-identity",
        worst <= 1e-11,
        f"worst operator residual {worst:.2e} <= 1e-11 over 10 draws (seed {EOM_SEED})",
        started,
        60.0,
    )


def test_criterion_04_compact_vector_form():
    """The metric-weighted symmetrized cross product of the site vector with
    the effective-field vector reproduces the site equations of motion; the
    identity metric fails whenever field coupling is present."""
    started = time.perf_counter()
    space = _eom_space()
    rng = np.random.default_rng(COMPACT_SEED)
    worst = 0.0
    control_min = np.inf
    for _ in range(10):
        params = draw_params(space, rng, coupling_mode="static_phase_at_t0")
        for l in range(space.n_sites):
            worst = max(worst, verify_compact_form(space, params, l))
            control_min = min(
                control_min,
                verify_compact_form(space, params, l, metric=(1.0, 1.0, 1.0)),
            )
    passed = worst <= 1e-10 and control_min > 1e-3
    assert _report(
        "criterion-04 compact-vector-form",
        passed,
        f"residual {worst:.2e} <= 1e-10, negative control {control_min:.2e} > 1e-3 "
        f"(seed {COMPACT_SEED})",
        started,
        30.0,
    )


def test_criterion_05_ehrenfest_consistency():
    """Centered-difference d<sigma_z>/dt matches the expectation of the
    operator right-hand side on a two-site, one-mode system with a coherent
    field (mean photon number 4, cutoff 16)."""
    started = time.perf_counter()
    space = build_space(SpaceSpec(2, (ModeSpec(16),)))
    params = SystemParams(
        site_energies=((-0.5, 0.5), (-0.55, 0.55)),
        exchange_j=0.02,
        field_modes=(FieldMode(omega=1.0, amplitude=0.02,
                               polarization_overlap=(1.0, 0.9)),),
    )
    psi0 = product_state(
        space,
        [site_local_state("angles", theta=0.8),
         site_local_state("ground"),
         coherent_local(2.0, 16)],
    )
    fastest_period = 2 * np.pi  # max frequency is 1
    dt = 1e-3 * fastest_period
    t_eval = np.arange(0.0, 3 * fastest_period, dt)
    traj = propagate(space, params, psi0, t_eval[-1], tol=1e-12, t_eval=t_eval,
                     keep_states=True)
    report = ehrenfest_check(traj, space, params, "sigma_z_0")
    assert _report(
        "criterion-05 ehrenfest-consistency",
        report.max_deviation <= 1e-5,
        f"max |d<z>/dt - <RHS>| = {report.max_deviation:.2e} <= 1e-5 at dt = 1e-3 T",
        started,
        120.0,
    )


def test_criterion_06_conservation():
    """Static-mode propagation conserves norm and energy to 1e-8 relative
    over 50 free-precession periods; exchange-only runs conserve the total
    inversion to 1e-9."""
    started = time.perf_counter()
    t_end = 50 * 2 * np.pi
    space = build_space(SpaceSpec(2, (ModeSpec(10),)))
    params = SystemParams(
        site_energies=((-0.5, 0.5), (-0.45, 0.55)),
        exchange_j=0.05,
        field_modes=(FieldMode(omega=1.1, amplitude=0.06,
                               polarization_overlap=(1.0, 0.8)),),
    )
    psi0 = product_state(
        space,
        [site_local_state("angles", theta=1.0),
         site_local_state("ground"),
         coherent_local(1.0, 10)],
    )
    traj = propagate(space, params, psi0, t_end, tol=1e-12, n_out=201)
    energy = traj.records["energy"]
    energy_drift = float(np.max(np.abs(energy - energy[0])) / abs(energy[0]))
    norm_drift = traj.meta["norm_drift"]

    space_x = build_space(SpaceSpec(3))
    params_x = SystemParams(site_energies=_uniform_site_energies(3), exchange_j=0.2)
    psi_x = product_state(
        space_x,
        [site_local_state("angles", theta=0.7),
         site_local_state("excited"),
         site_local_state("angles", theta=2.0, phi=1.0)],
    )
    traj_x = propagate(space_x, params_x, psi_x, t_end, tol=1e-12, n_out=201)
    total_z = sum(traj_x.records[f"sigma_z_{l}"] for l in range(3))
    z_drift = float(np.max(np.abs(total_z - total_z[0])))

    passed = energy_drift <= 1e-8 and norm_drift <= 1e-8 and z_drift <= 1e-9
    assert _report(
        "criterion-06 conservation",
        passed,
        f"energy {energy_drift:.2e} <= 1e-8, norm {norm_drift:.2e} <= 1e-8, "
        f"total inversion {z_drift:.2e} <= 1e-9",
        started,
        60.0,
    )


def _peak_time(times, series):
    i = int(np.argmax(series))
    if 0 < i < len(series) - 1:
        a, b, c = series[i - 1], series[i], series[i + 1]
        shift = 0.5 * (a - c) / (a - 2 * b + c)
        return times[i] + shift * (times[1] - times[0])
    return times[i]


def test_criterion_07_rabi_limit():
    """Exact propagation (classical-drive substitution) and mean field both
    reach full inversion at pi/Omega_R within 1% of the analytic oracle;
    the detuned oscillation amplitude matches the generalized Rabi formula
    within 2%."""
    started = time.perf_counter()
    amp = 0.005
    params = SystemParams(
        site_energies=_uniform_site_energies(1),
        drives=(ClassicalDrive(amplitude=amp, frequency=1.0),),
    )
    oracle = rabi_oracle(params)
    t_inv = oracle.inversion_time

    space = build_space(SpaceSpec(1))
    psi0 = product_state(space, [site_local_state("ground")])
    exact = propagate(space, params, psi0, 1.3 * t_inv, tol=1e-12, n_out=4001)
    t_exact = _peak_time(exact.times, exact.records["sigma_z_0"])
    err_exact = abs(t_exact - t_inv) / t_inv
    inv_exact = float(np.max(exact.records["sigma_z_0"]))

    mf_traj = mf_propagate(
        MeanFieldState([0.0], [-1.0], [], []), params, 1.3 * t_inv,
        tol=1e-12, n_out=4001,
    )
    t_mf = _peak_time(mf_traj.times, mf_traj.records["sigma_z_0"])
    err_mf = abs(t_mf - t_inv) / t_inv
    inv_mf = float(np.max(mf_traj.records["sigma_z_0"]))

    detuned = SystemParams(
        site_energies=_uniform_site_energies(1),
        drives=(ClassicalDrive(amplitude=amp, frequency=1.01),),
    )
    oracle_d = rabi_oracle(detuned)
    traj_d = propagate(space, detuned, psi0, 3 * oracle_d.inversion_time,
                       tol=1e-12, n_out=4001)
    amp_measured = 0.5 * (float(np.max(traj_d.records["sigma_z_0"])) + 1.0)
    amp_err = abs(amp_measured - oracle_d.oscillation_amplitude) / oracle_d.oscillation_amplitude

    passed = (
        err_exact <= 0.01
        and err_mf <= 0.01
        and inv_exact >= 0.99
        and inv_mf >= 0.99
        and amp_err <= 0.02
    )
    assert _report(
        "criterion-07 rabi-limit",
        passed,
        f"inversion-time error exact {err_exact:.2e} / mean-field {err_mf:.2e} <= 1e-2, "
        f"peaks {inv_exact:.4f}/{inv_mf:.4f}, detuned amplitude error {amp_err:.2e} <= 2e-2",
        started,
        10.0,
    )


def _jc_collapse_inversion(times, g, nbar):
    """Rotating-wave inversion of an atom that starts in its ground state
    in a coherent field of mean photon number ``nbar``: each photon number
    n Rabi-oscillates at 2 g sqrt(n) and the Poisson weights dephase the sum
    (Jaynes-Cummings collapse)."""
    n = np.arange(80)  # the Poisson tail beyond 80 is negligible for nbar <= 20
    weights = np.exp(n * np.log(nbar) - nbar - gammaln(n + 1))
    phases = 2.0 * g * np.sqrt(n)[:, None] * np.asarray(times)[None, :]
    return -np.sum(weights[:, None] * np.cos(phases), axis=0)


def _semiclassical_inversion(times, g, nbar):
    """Rotating-wave c-number closure with field back-reaction, from the
    ground state: the Bloch vector turns at theta' = 2 g |a| while
    |a|^2 + (1 + s_z)/2 = nbar, so theta' = 2 g sqrt(nbar - sin^2(theta/2))
    and s_z = -cos(theta).  Its solution is theta/2 = am(g sqrt(nbar) t | 1/nbar),
    i.e. s_z = 2 sn^2 - 1."""
    sn, _, _, _ = ellipj(g * np.sqrt(nbar) * np.asarray(times), 1.0 / nbar)
    return 2.0 * sn**2 - 1.0


def test_criterion_08_quantum_classical_closure_gap():
    """Mean-field inversion vs exact inversion for a coherent field with
    mean photon number 9 (cutoff 30) over the first Rabi period
    (2 pi / Omega with Omega = 2 g sqrt(nbar)); the deviation thereafter is
    reported, not bounded.

    At nbar = 9 the gap is a field-quantization effect: the Poissonian
    photon-number spread dephases the exact oscillation (collapse envelope
    exp(-pi^2 / (2 nbar))), which no c-number closure can show.  In the
    rotating-wave limit g / omega -> 0 the gap over the first period tends
    to max|W_JC - W_sc| / 2 = 0.208 for any coupling, where W_JC is the
    Poisson-weighted Rabi sum and W_sc the semiclassical closure with field
    back-reaction (both computed here without chainqed).  The test asserts,
    over the first period and normalized by the full inversion range (2):

    * the exact inversion follows W_JC (the collapse is there);
    * the closure inversion follows W_sc (back-reaction is there);
    * the measured closure gap matches the oracle gap.

    Each tolerance is g sqrt(nbar) / omega = 0.03, twice the counter-rotating
    ripple g sqrt(nbar) / (2 omega) that the rotating-wave oracles omit.
    Closure tracking within 5% holds only at large photon numbers; see
    test_meanfield.test_closure_tracks_exact_dynamics_large_field (nbar = 100).
    """
    started = time.perf_counter()
    nbar, cutoff, g = 9.0, 30, 0.01
    alpha = np.sqrt(nbar)
    space = build_space(SpaceSpec(1, (ModeSpec(cutoff),)))
    params = SystemParams(
        site_energies=_uniform_site_energies(1),
        field_modes=(FieldMode(omega=1.0, amplitude=g, polarization_overlap=(1.0,)),),
    )
    omega_rabi = 2 * g * alpha
    cycle = 2 * np.pi / omega_rabi
    horizon = 3 * cycle
    ripple_tol = g * alpha  # g sqrt(nbar) / omega, field omega = 1

    psi0 = product_state(space, [site_local_state("ground"), coherent_local(alpha, cutoff)])
    exact = propagate(space, params, psi0, horizon, tol=1e-10, n_out=1201)
    mf_traj = mf_propagate(
        MeanFieldState([0.0], [-1.0], [alpha], []), params, horizon,
        tol=1e-10, n_out=1201,
    )
    z_exact = exact.records["sigma_z_0"]
    z_mf = mf_traj.records["sigma_z_0"]
    gap = np.abs(z_exact - z_mf) / 2.0

    first = exact.times <= cycle
    w_jc = _jc_collapse_inversion(exact.times[first], g, nbar)
    w_sc = _semiclassical_inversion(exact.times[first], g, nbar)
    dev_exact = float(np.max(np.abs(z_exact[first] - w_jc))) / 2.0
    dev_mf = float(np.max(np.abs(z_mf[first] - w_sc))) / 2.0
    gap_oracle = float(np.max(np.abs(w_jc - w_sc))) / 2.0

    gap_first_period = float(np.max(gap[first]))
    growth = [float(np.max(gap[exact.times <= (k + 1) * cycle])) for k in range(3)]
    passed = (
        dev_exact <= ripple_tol
        and dev_mf <= ripple_tol
        and abs(gap_first_period - gap_oracle) <= ripple_tol
    )
    assert _report(
        "criterion-08 closure-gap",
        passed,
        f"gap over first Rabi period {gap_first_period:.3f} vs oracle gap {gap_oracle:.3f} "
        f"(within {ripple_tol:.2f}); exact vs collapse oracle {dev_exact:.4f}, "
        f"closure vs back-reaction oracle {dev_mf:.4f}, both <= {ripple_tol:.2f}; "
        f"growth per cycle, reported: {growth[0]:.3f}, {growth[1]:.3f}, {growth[2]:.3f}",
        started,
        300.0,
    )


def test_criterion_09_phonon_memory_kernel():
    """The retarded memory integral with a constant inversion history
    reproduces (1 - cos(nu t)) / nu; the instantaneous correction equals
    the phonon-coupling commutator."""
    started = time.perf_counter()
    nu = 0.7
    times = np.linspace(0.0, 6.0, 61)
    values = np.ones_like(times)
    kernel_err = max(
        abs(memory_kernel_integral(times, values, nu, t) - (1 - np.cos(nu * t)) / nu)
        for t in (1.5, 3.0, 6.0)
    )

    space = build_space(SpaceSpec(2, (), (ModeSpec(3),)))
    rng = np.random.default_rng(INVARIANT_SEED)
    params = draw_params(space, rng)
    cache = OperatorCache(space)
    hcp = build_hcp(space, params)
    direct_err = 0.0
    for l in range(2):
        for component in ("minus", "plus"):
            direct = sigma_phonon_correction(space, params, l, component=component)
            sig = getattr(cache.sigma[l], component)
            direct_err = max(
                direct_err, (direct - 1j * commutator(hcp, sig)).max_abs()
            )
    passed = kernel_err <= 1e-8 and direct_err <= 1e-12
    assert _report(
        "criterion-09 phonon-memory-kernel",
        passed,
        f"kernel integral error {kernel_err:.2e} <= 1e-8, "
        f"direct path vs commutator {direct_err:.2e} <= 1e-12",
        started,
        30.0,
    )


def test_criterion_10_mean_field_invariant():
    """The per-site Bloch length s_z^2 + 4 s+ s- drifts below 1e-8 over 100
    precession periods for 5 random parameter draws."""
    started = time.perf_counter()
    space = build_space(SpaceSpec(2, (ModeSpec(2),), (ModeSpec(1),)))
    rng = np.random.default_rng(INVARIANT_SEED)
    t_end = 100 * 2 * np.pi
    worst = 0.0
    for _ in range(5):
        params = draw_params(space, rng)
        mf0 = MeanFieldState(
            [bloch_state(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))[0]
             for _ in range(2)],
            [bloch_state(th)[1] for th in rng.uniform(0, np.pi, size=2)],
            [rng.normal() + 1j * rng.normal()],
            [0.2 * (rng.normal() + 1j * rng.normal())],
        )
        lengths0 = mf0.bloch_lengths()
        traj = mf_propagate(mf0, params, t_end, tol=1e-11, n_out=201)
        for l in range(2):
            drift = float(np.max(np.abs(traj.records[f"bloch_{l}"] - lengths0[l])))
            worst = max(worst, drift)
    assert _report(
        "criterion-10 mean-field-invariant",
        worst <= 1e-8,
        f"worst Bloch-length drift {worst:.2e} <= 1e-8 over 100 periods, "
        f"5 draws (seed {INVARIANT_SEED})",
        started,
        120.0,
    )


def test_criterion_11_determinism(tmp_path):
    """Identical configs (including seed) produce byte-identical trajectory
    files on repeated runs."""
    started = time.perf_counter()
    raw = {
        "task": "propagate",
        "seed": 5,
        "space": {"n_sites": 2, "field_modes": [{"cutoff": 4}]},
        "params": {
            "site_energies": [[-0.5, 0.5], [-0.45, 0.55]],
            "exchange_j": 0.05,
            "field_modes": [
                {"omega": 1.0, "amplitude": 0.1, "polarization_overlap": [1.0, 0.8]}
            ],
        },
        "initial": {
            "sites": [{"kind": "angles", "theta": 1.0}, {"kind": "ground"}],
            "field_modes": [{"kind": "coherent", "alpha": 0.5}],
        },
        "integrate": {"tol": 1e-10, "t_end": 5.0, "n_out": 41},
    }
    run(config_from_dict(raw), out_dir=tmp_path / "first")
    run(config_from_dict(raw), out_dir=tmp_path / "second")
    identical = all(
        (tmp_path / "first" / name).read_bytes()
        == (tmp_path / "second" / name).read_bytes()
        for name in ("trajectory.csv", "trajectory.json")
    )
    assert _report(
        "criterion-11 determinism",
        identical,
        "repeated runs byte-identical (csv and json)",
        started,
        60.0,
    )
