from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from chainqed.hamiltonian import (
    LITERAL_TIME_DEPENDENT,
    STATIC_PHASE,
    ClassicalDrive,
    CompiledModel,
    FieldMode,
    OperatorCache,
    PhononMode,
    SystemParams,
    TotalHamiltonian,
    build_exchange,
    build_h0,
    build_hc,
    build_hcf,
    build_hcp,
    build_hdrive,
    build_hf,
    build_hp,
    coupling_q,
    drive_field,
)
from chainqed import dynamics
from chainqed.dynamics import propagate
from chainqed.hilbert import ModeSpec, Operator, SpaceSpec, build_space, commutator, identity
from chainqed.transition_ops import build_transition_set


def uniform_params(n, omega=1.0, j=0.0, shift=0.0, **kwargs):
    return SystemParams(
        site_energies=tuple((shift - omega / 2, shift + omega / 2) for _ in range(n)),
        exchange_j=j,
        **kwargs,
    )


def two_site_xxz_eigenvalues(omega, j):
    """Analytic spectrum of the uniform two-site chain with doubled exchange.

    Basis {|aa>, triplet-0, singlet, |bb>}: the zz term gives +J on the
    aligned states and -J on the mixed ones; the flip-flop contributes
    +-2J on triplet/singlet.
    """
    return sorted([-omega + j, omega + j, j, -3 * j])


def test_h0_single_site_eigenvalues():
    space = build_space(SpaceSpec(1))
    params = SystemParams(site_energies=((0.0, 1.3),))
    evals = np.linalg.eigvalsh(build_h0(space, params).to_dense())
    assert_allclose(evals, [0.0, 1.3], atol=1e-14)


def test_h0_sigma_representation():
    # H0 equals (omega/2) sigma_z + (E_low + E_up)/2 per site, exactly
    space = build_space(SpaceSpec(2))
    params = SystemParams(site_energies=((0.2, 1.0), (-0.3, 0.9)))
    h0 = build_h0(space, params)
    rebuilt = None
    for v, (e_low, e_up) in enumerate(params.site_energies):
        ts = build_transition_set(space, v)
        term = 0.5 * (e_up - e_low) * ts.z + 0.5 * (e_low + e_up) * ts.unit
        rebuilt = term if rebuilt is None else rebuilt + term
    assert (h0 - rebuilt).max_abs() <= 1e-15


def test_h0_trace_oracle():
    # trace = 2^(n-1) * sum_v (E_low + E_up) on the site factor
    space = build_space(SpaceSpec(3))
    params = SystemParams(site_energies=((0.1, 0.9), (-0.2, 0.5), (0.0, 2.0)))
    trace = np.trace(build_h0(space, params).to_dense()).real
    expected = 2 ** (3 - 1) * sum(a + b for a, b in params.site_energies)
    assert_allclose(trace, expected, atol=1e-12)


def test_hc_reduces_to_h0_without_exchange():
    space = build_space(SpaceSpec(2))
    params = uniform_params(2, j=0.0)
    assert (build_hc(space, params) - build_h0(space, params)).max_abs() == 0.0


def test_two_site_exchange_spectrum_matches_analytic():
    space = build_space(SpaceSpec(2))
    params = uniform_params(2, omega=1.0, j=0.17)
    evals = np.linalg.eigvalsh(build_hc(space, params).to_dense())
    assert_allclose(sorted(evals), two_site_xxz_eigenvalues(1.0, 0.17), atol=1e-13)


def test_exchange_conserves_total_inversion():
    space = build_space(SpaceSpec(3))
    params = uniform_params(3, j=0.3)
    hc = build_hc(space, params)
    total_z = None
    for v in range(3):
        z = build_transition_set(space, v).z
        total_z = z if total_z is None else total_z + z
    assert commutator(hc, total_z).max_abs() <= 1e-13


def test_hc_zero_shift_is_half_omega_sigma_z():
    space = build_space(SpaceSpec(2))
    params = uniform_params(2, omega=0.8, j=0.0)
    expected = None
    for v in range(2):
        term = 0.4 * build_transition_set(space, v).z
        expected = term if expected is None else expected + term
    assert (build_hc(space, params) - expected).max_abs() == 0.0


def test_exchange_invariant_under_site_reversal():
    n = 4
    space = build_space(SpaceSpec(n))
    params = uniform_params(n, j=0.21)
    hj = build_exchange(space, params).to_dense()
    # permutation reversing the site order
    perm = np.zeros(space.dim, dtype=int)
    for i in range(space.dim):
        occ = space.index_to_occupation(i)
        perm[i] = space.occupation_to_index(tuple(reversed(occ)))
    assert_allclose(hj, hj[np.ix_(perm, perm)], atol=1e-14)


# -- coupling function ------------------------------------------------------------


@pytest.fixture
def coupled_params():
    return SystemParams(
        site_energies=((-0.5, 0.5),),
        field_modes=(FieldMode(omega=1.3, wavevector=0.0, amplitude=0.4,
                               polarization_overlap=(0.8,)),),
        dipole=(1.2,),
        coupling_mode="literal_time_dependent",
    )


def test_coupling_q_at_origin_is_real_negative(coupled_params):
    q = coupling_q(coupled_params, 0, 0, 0.0)
    assert_allclose(q.imag, 0.0, atol=1e-15)
    assert q.real == pytest.approx(-1.2 * 0.8 * 0.4)


def test_coupling_q_modulus_time_independent(coupled_params):
    mags = [abs(coupling_q(coupled_params, 0, 0, t)) for t in (0.0, 0.7, 13.9)]
    assert_allclose(mags, mags[0], rtol=1e-14)


def test_coupling_q_periodicity(coupled_params):
    period = 2 * np.pi / coupled_params.field_modes[0].omega
    assert coupling_q(coupled_params, 0, 0, period) == pytest.approx(
        coupling_q(coupled_params, 0, 0, 0.0), abs=1e-14
    )


def test_coupling_q_static_mode_freezes_phase(coupled_params):
    static = SystemParams(
        site_energies=coupled_params.site_energies,
        field_modes=coupled_params.field_modes,
        dipole=coupled_params.dipole,
        coupling_mode="static_phase_at_t0",
    )
    assert coupling_q(static, 0, 0, 5.0) == coupling_q(static, 0, 0, 0.0)


# -- interaction Hamiltonian -------------------------------------------------------


def test_hcf_without_modes_is_zero():
    space = build_space(SpaceSpec(2))
    params = uniform_params(2)
    assert build_hcf(space, params).max_abs() == 0.0


def test_hcf_sparsity_pattern_non_rwa():
    # single site, single mode: elements connect |site m> <-> |flipped m -+ 1>,
    # both rotating and counter-rotating blocks present
    space = build_space(SpaceSpec(1, (ModeSpec(3),)))
    params = SystemParams(
        site_energies=((-0.5, 0.5),),
        field_modes=(FieldMode(omega=1.0, amplitude=0.3, polarization_overlap=(1.0,)),),
    )
    h = build_hcf(space, params).to_dense()
    nonzero = np.argwhere(np.abs(h) > 1e-15)
    assert len(nonzero)
    for i, j in nonzero:
        occ_i = space.index_to_occupation(i)
        occ_j = space.index_to_occupation(j)
        assert occ_i[0] != occ_j[0]            # site always flips
        assert abs(occ_i[1] - occ_j[1]) == 1   # photon number changes by one
    # counter-rotating element: |lower, 1> <-> |upper, 2>
    i = space.occupation_to_index((1, 2))
    j = space.occupation_to_index((0, 1))
    assert abs(h[i, j]) > 1e-15


def test_hcf_scales_linearly_in_amplitude():
    space = build_space(SpaceSpec(1, (ModeSpec(2),)))

    def build(amp):
        params = SystemParams(
            site_energies=((-0.5, 0.5),),
            field_modes=(FieldMode(omega=1.0, amplitude=amp, polarization_overlap=(1.0,)),),
        )
        return build_hcf(space, params)

    assert (build(0.6) - 3.0 * build(0.2)).max_abs() <= 1e-14


def test_hcf_hermitian_at_random_times():
    space = build_space(SpaceSpec(2, (ModeSpec(2),)))
    params = SystemParams(
        site_energies=((-0.5, 0.5), (-0.6, 0.6)),
        field_modes=(FieldMode(omega=0.9, wavevector=1.1, amplitude=0.3,
                               polarization_overlap=(1.0, 0.7)),),
        coupling_mode="literal_time_dependent",
    )
    rng = np.random.default_rng(5)
    for t in rng.uniform(0, 20, size=4):
        assert build_hcf(space, params, t).hermiticity_defect() <= 1e-13


# -- field and phonon Hamiltonians ----------------------------------------------------


def test_hf_eigenvalues():
    space = build_space(SpaceSpec(1, (ModeSpec(2),)))
    omega = 0.7
    params = SystemParams(
        site_energies=((-0.5, 0.5),),
        field_modes=(FieldMode(omega=omega),),
    )
    hf = build_hf(space, params).to_dense()
    evals = sorted(set(np.round(np.linalg.eigvalsh(hf), 12)))
    assert_allclose(evals, [omega / 2, 3 * omega / 2, 5 * omega / 2], atol=1e-12)


def test_hf_commutes_with_number():
    space = build_space(SpaceSpec(1, (ModeSpec(3),)))
    params = SystemParams(
        site_energies=((-0.5, 0.5),), field_modes=(FieldMode(omega=1.1),)
    )
    cache = OperatorCache(space)
    assert commutator(build_hf(space, params), cache.a_num[0]).max_abs() == 0.0


def test_hp_hcp_basics():
    space = build_space(SpaceSpec(2, (), (ModeSpec(2),)))
    params_off = SystemParams(
        site_energies=((-0.5, 0.5), (-0.5, 0.5)),
        phonon_modes=(PhononMode(nu=0.4, coupling=0.0),),
    )
    assert build_hcp(space, params_off).max_abs() == 0.0
    params = SystemParams(
        site_energies=((-0.5, 0.5), (-0.5, 0.5)),
        phonon_modes=(PhononMode(nu=0.4, coupling=0.15),),
    )
    cache = OperatorCache(space)
    hcp = build_hcp(space, params)
    assert hcp.is_hermitian()
    for j in range(2):
        assert commutator(hcp, cache.sigma[j].z).max_abs() == 0.0
    # commutator with a raising operator: the basis of the transverse
    # phonon corrections
    expected = 2 * 0.15 * ((cache.b[0] + cache.b_dag[0]) @ cache.sigma[0].plus)
    assert (commutator(hcp, cache.sigma[0].plus) - expected).max_abs() <= 1e-14


def test_hp_ground_energy():
    space = build_space(SpaceSpec(1, (), (ModeSpec(2), ModeSpec(3))))
    params = SystemParams(
        site_energies=((-0.5, 0.5),),
        phonon_modes=(PhononMode(nu=0.3), PhononMode(nu=0.8)),
    )
    evals = np.linalg.eigvalsh(build_hp(space, params).to_dense())
    assert_allclose(evals[0], 0.5 * (0.3 + 0.8), atol=1e-13)


# -- total Hamiltonian -----------------------------------------------------------------


def term_sum(space, params, t):
    """Reference H(t): the sum of the independent per-term builders."""
    return (
        build_hc(space, params)
        + build_hf(space, params)
        + build_hcf(space, params, t)
        + build_hp(space, params)
        + build_hcp(space, params)
        + build_hdrive(space, params, t)
    )


COUPLING_CASES = [STATIC_PHASE, LITERAL_TIME_DEPENDENT]
DRIVE_CASES = {
    "undriven": (),
    "all-sites": (ClassicalDrive(amplitude=0.05 + 0.02j, frequency=1.0),),
    # a site listed twice in one drive counts once, as in drive_field
    "subset-repeated": (ClassicalDrive(0.03 - 0.01j, 0.9, (1, 1)), ClassicalDrive(0.02j, 1.3, (0,))),
}


def _driven_chain(coupling_mode, drives):
    space = build_space(SpaceSpec(2, (ModeSpec(2),), (ModeSpec(1),)))
    params = SystemParams(
        site_energies=((-0.5, 0.5), (-0.45, 0.55)),
        exchange_j=0.07,
        field_modes=(FieldMode(omega=1.2, wavevector=0.9, amplitude=0.2,
                               polarization_overlap=(1.0, 0.8)),),
        phonon_modes=(PhononMode(nu=0.5, coupling=0.1),),
        coupling_mode=coupling_mode,
        drives=drives,
    )
    return space, params


def test_total_decoupled_is_diagonal_with_additive_spectrum():
    space = build_space(SpaceSpec(1, (ModeSpec(2),), (ModeSpec(1),)))
    for coupling_mode in COUPLING_CASES:
        params = SystemParams(
            site_energies=((0.0, 1.0),),
            field_modes=(FieldMode(omega=0.7, amplitude=0.0),),
            phonon_modes=(PhononMode(nu=0.3, coupling=0.0),),
            coupling_mode=coupling_mode,
        )
        ham = TotalHamiltonian(space, params)
        assert ham.is_static
        h = ham.at(2.5)
        assert (h - term_sum(space, params, 2.5)).max_abs() == 0.0
        h = h.to_dense()
        assert np.count_nonzero(h - np.diag(np.diag(h))) == 0
        diag = np.diag(h).real
        for i in range(space.dim):
            site, m, q = space.index_to_occupation(i)
            expected = site * 1.0 + 0.7 * (m + 0.5) + 0.3 * (q + 0.5)
            assert_allclose(diag[i], expected, atol=1e-13)


def test_total_hermitian_at_random_t():
    rng = np.random.default_rng(17)
    for coupling_mode in COUPLING_CASES:
        for drives in DRIVE_CASES.values():
            space, params = _driven_chain(coupling_mode, drives)
            ham = TotalHamiltonian(space, params)
            for t in rng.uniform(0, 30, size=3):
                assert term_sum(space, params, t).hermiticity_defect() <= 1e-13
                assert ham.at(t).hermiticity_defect() <= 1e-13


def test_total_static_mode_time_independent():
    for coupling_mode, drives, static in [
        (STATIC_PHASE, (), True),
        (LITERAL_TIME_DEPENDENT, (), False),
        (STATIC_PHASE, DRIVE_CASES["all-sites"], False),
        # a zero-amplitude drive or a drive on no site leaves H static
        (STATIC_PHASE, (ClassicalDrive(0.0, 1.0), ClassicalDrive(0.1, 1.0, ())), True),
    ]:
        space, params = _driven_chain(coupling_mode, drives)
        ham = TotalHamiltonian(space, params)
        assert ham.is_static == static
        h1 = term_sum(space, params, 0.0)
        h2 = term_sum(space, params, 7.31)
        assert ((h1 - h2).max_abs() == 0.0) == static
        if static:
            assert (ham.static - h2).max_abs() == 0.0
            assert (ham.at(7.31) - h2).max_abs() == 0.0


def test_total_hamiltonian_precompiled_matches_builder():
    rng = np.random.default_rng(23)
    for coupling_mode in COUPLING_CASES:
        for case, drives in DRIVE_CASES.items():
            space, params = _driven_chain(coupling_mode, drives)
            ham = TotalHamiltonian(space, params)
            assert ham.is_static == (coupling_mode == STATIC_PHASE and case == "undriven")
            psi = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
            for t in (0.0, 0.83, 4.2):
                h_ref, h = term_sum(space, params, t), ham.at(t)
                assert (h - h_ref).max_abs() <= 1e-13, (coupling_mode, case, t)
                assert_allclose(ham.apply(t, psi), h_ref.to_dense() @ psi, atol=1e-12)
                # one H(t): ``apply`` gives the bits of the operator ``at`` returns
                assert np.array_equal(ham.apply(t, psi), h.apply(psi)), (coupling_mode, case, t)
                h.expect(psi)
                if not ham.is_static:  # ``at`` wraps the values at t; nothing builds a ``csr_matrix`` of them
                    assert h._matrix is None


def test_at_reads_one_pattern_and_matches_term_sum():
    rng = np.random.default_rng(31)
    # a purely imaginary amplitude makes the first drive's two conjugate columns cancel exactly at t = 0
    drives = (ClassicalDrive(0.04j, 1.1, (0,)), ClassicalDrive(0.03, 0.7))
    for coupling_mode in COUPLING_CASES:
        space, params = _driven_chain(coupling_mode, drives)
        ham = TotalHamiltonian(space, params)
        m, n_phasors = ham.model.n_phase, ham.model.phasor_amp.size
        drive = [1 + m, 1 + n_phasors + m]
        assert np.any(ham._values[:, drive] != 0)
        assert np.all(ham._values[:, drive] @ np.exp(ham._rates[drive] * 0.0) == 0.0)
        nnz = {ham.at(t).matrix.nnz for t in (0.0, 1.0)}
        assert len(nnz) == 1
        for t in (0.0, *rng.uniform(0, 30, size=4)):
            h = ham.at(t)
            assert h.matrix.nnz in nnz
            assert (h - term_sum(space, params, t)).max_abs() <= 1e-14, (coupling_mode, t)


def test_at_with_two_complex_drives_is_the_term_sum_and_hermitian():
    rng = np.random.default_rng(37)
    drives = (ClassicalDrive(0.04 - 0.03j, 1.1, (0,)), ClassicalDrive(-0.02 + 0.05j, 0.6))
    space, params = _driven_chain(LITERAL_TIME_DEPENDENT, drives)
    ham = TotalHamiltonian(space, params)
    assert ham._rates.size == 1 + 2 * (1 + len(drives))
    for t in rng.uniform(0, 30, size=6):
        h = ham.at(t)
        assert (h - term_sum(space, params, t)).max_abs() <= 1e-13, t
        dense = h.to_dense()
        assert np.max(np.abs(dense - dense.conj().T)) <= 1e-15, t


def test_at_of_a_static_hamiltonian_is_the_static_operator():
    space, params = _driven_chain(STATIC_PHASE, ())
    ham = TotalHamiltonian(space, params)
    assert ham.is_static
    assert ham.at(0.0) is ham.static
    assert ham.at(4.7) is ham.static


def test_one_table_holds_a_time_dependent_hamiltonian_and_none_a_static_one():
    space, params = _driven_chain(LITERAL_TIME_DEPENDENT, DRIVE_CASES["subset-repeated"])
    ham = TotalHamiltonian(space, params)
    assert not any(hasattr(ham, name) for name in ("_stacked", "_union"))
    # column 0 at rate 0, then one column per phasor and one per conjugate phasor
    n_phasors = ham.model.phasor_amp.size
    assert ham._values.shape == (ham._indices.size, 1 + 2 * n_phasors)
    assert np.array_equal(ham._rates, np.concatenate(([0.0], ham.model.phasor_rate, ham.model.phasor_rate.conj())))
    assert ham._indptr.dtype == ham._indices.dtype == np.int32
    # column 0 is ``static``: its values on the union pattern give back the static operator
    static = Operator._of(space.dim, ham._indptr, ham._indices, ham._values[:, 0])
    assert (static - ham.static).max_abs() == 0.0
    space, params = _driven_chain(STATIC_PHASE, ())
    assert not hasattr(TotalHamiltonian(space, params), "_values")


GRID_DRIVES = {
    "undriven": (),
    "all-sites": (ClassicalDrive(amplitude=0.05 + 0.02j, frequency=1.0),),
    "repeated-site": (ClassicalDrive(0.03 - 0.01j, 0.9, (1, 1)), ClassicalDrive(0.02j, 1.3, (0,))),
}


def _grid_system(n, boundary, exchange_j, n_phonon, coupling_mode, drives):
    space = build_space(SpaceSpec(n, (ModeSpec(2),), (ModeSpec(1),) * n_phonon))
    params = SystemParams(
        site_energies=tuple((-0.5 + 0.03 * v, 0.5 + 0.05 * v) for v in range(n)),
        exchange_j=exchange_j,
        boundary=boundary,
        field_modes=(FieldMode(omega=1.2, wavevector=0.9, amplitude=0.2,
                               polarization_overlap=tuple(1.0 - 0.2 * v for v in range(n))),),
        phonon_modes=tuple(PhononMode(nu=0.5 + 0.2 * q, coupling=0.1 * (1 - q)) for q in range(n_phonon)),
        coupling_mode=coupling_mode,
        drives=drives,
    )
    return space, params


@pytest.mark.parametrize("n_phonon", [0, 1, 2])
@pytest.mark.parametrize("n,boundary", [(2, "open"), (3, "open"), (2, "periodic"), (3, "periodic")])
@pytest.mark.parametrize("exchange_j", [0.0, 0.07])
@pytest.mark.parametrize("drives", list(GRID_DRIVES.values()), ids=list(GRID_DRIVES))
@pytest.mark.parametrize("coupling_mode", COUPLING_CASES)
def test_total_hamiltonian_built_from_local_factors_is_the_term_sum(coupling_mode, drives, exchange_j, n, boundary,
                                                                    n_phonon):
    # two independent builds: local factors summed at once, and the builders' embedded operators
    space, params = _grid_system(n, boundary, exchange_j, n_phonon, coupling_mode, drives)
    ham = TotalHamiltonian(space, params)
    for t in (0.6, 1.7):  # no coefficient is 0 here, which ``at`` would store on its union pattern
        h, ref = ham.at(t), term_sum(space, params, t)
        assert (h - ref).max_abs() <= 1e-14, t
        assert h.matrix.nnz == ref.matrix.nnz, t


@pytest.mark.parametrize("coupling_mode,drives,method", [
    (STATIC_PHASE, (), "eigh"),
    (LITERAL_TIME_DEPENDENT, GRID_DRIVES["all-sites"], "interaction+LSODA"),
], ids=["static", "driven"])
def test_total_hamiltonian_and_propagate_build_no_operator_cache(cache_builds, coupling_mode, drives, method):
    space, params = _grid_system(3, "periodic", 0.07, 1, coupling_mode, drives)
    TotalHamiltonian(space, params)
    psi0 = np.zeros(space.dim, dtype=complex)
    psi0[0] = 1.0
    traj = propagate(space, params, psi0, 2.0, n_out=5)
    assert traj.meta["method"] == method and traj.meta["norm_drift"] <= 1e-8
    assert cache_builds == []


def _phasor_params():
    return SystemParams(
        site_energies=((-0.5, 0.5),) * 3,
        field_modes=(FieldMode(1.2, wavevector=0.9, amplitude=0.2, polarization_overlap=(1.0, 0.0, -0.6)),
                     FieldMode(0.7, amplitude=0.1)),
        coupling_mode=LITERAL_TIME_DEPENDENT,
        # the zero-amplitude drive is left out of the table
        drives=(ClassicalDrive(0.03 - 0.01j, 0.9, (1, 1)), ClassicalDrive(0.0, 2.0), ClassicalDrive(0.02j, 1.3)),
    )


@pytest.mark.parametrize("coupling_mode", COUPLING_CASES)
@pytest.mark.parametrize("case", list(DRIVE_CASES))
def test_gershgorin_bound_is_the_largest_row_sum_over_every_column(coupling_mode, case):
    space, params = _driven_chain(coupling_mode, DRIVE_CASES[case])
    ham = TotalHamiltonian(space, params)
    if ham.is_static:
        rows = np.abs(ham.static.to_dense()).sum(axis=1)
    else:
        columns = [Operator._of(space.dim, ham._indptr, ham._indices, ham._values[:, c]).to_dense()
                   for c in range(ham._values.shape[1])]
        rows = sum(np.abs(c) for c in columns).sum(axis=1)
    assert ham.gershgorin_bound() == pytest.approx(rows.max(), rel=1e-14)
    for t in np.random.default_rng(53).uniform(0, 30, size=3):
        assert np.max(np.abs(np.linalg.eigvalsh(ham.at(t).to_dense()))) <= ham.gershgorin_bound()


def _frame_system(n_modes, case):
    if n_modes == 1:
        return _driven_chain(LITERAL_TIME_DEPENDENT, DRIVE_CASES[case])
    # two field modes (w 1.2 and 0.7, cutoffs 3 and 2) and a phonon
    params = _phasor_params()
    drives = () if case == "undriven" else params.drives
    space = build_space(SpaceSpec(3, (ModeSpec(3), ModeSpec(2)), (ModeSpec(1),)))
    return space, replace(params, phonon_modes=(PhononMode(nu=0.5, coupling=0.1),), drives=drives)


@pytest.mark.parametrize("n_modes,case", [(1, case) for case in DRIVE_CASES] + [(2, "undriven"), (2, "all-sites")])
def test_literal_hamiltonian_is_the_doubled_frozen_phase_model_in_the_field_number_frame(n_modes, case):
    # H(t) = W(t) (H'(t) - diag(d)) W(t)^dag, W(t) = diag(exp(i t d)), d = sum_k w_k (n_k + 1/2)
    space, params = _frame_system(n_modes, case)
    ham = TotalHamiltonian(space, params)
    prime, d = dynamics._field_number_frame(space, ham)
    assert prime.params.coupling_mode == STATIC_PHASE
    assert [m.omega for m in prime.params.field_modes] == [2.0 * m.omega for m in params.field_modes]
    assert prime.is_static == (ham.model.drive_table.size == 0)
    for i in range(space.dim):
        occupation = space.index_to_occupation(i)
        expected = sum(m.omega * (occupation[space.field_slot(k)] + 0.5) for k, m in enumerate(params.field_modes))
        assert abs(d[i] - expected) <= 1e-15
    for t in np.random.default_rng(47).uniform(0, 40, size=5):
        h = ham.at(t).to_dense()
        w = np.exp(1j * t * d)
        framed = w[:, None] * (prime.at(t).to_dense() - np.diag(d)) * w.conj()
        assert np.max(np.abs(h - framed)) <= 1e-13 * np.max(np.abs(h)), (case, t)


def test_phasors_on_a_grid_are_the_scalar_calls_column_by_column():
    model = CompiledModel(_phasor_params())
    times = np.random.default_rng(41).uniform(0, 30, size=9)
    grid = model.phasors(times)
    assert grid.shape == (4, times.size)
    for i, t in enumerate(times):
        assert np.array_equal(grid[:, i], model.phasors(t))


def test_phasors_are_the_mode_phases_and_the_drive_values():
    params = _phasor_params()
    model = CompiledModel(params)
    assert model.n_phase == 2 and not model.is_static
    for t in np.random.default_rng(43).uniform(0, 30, size=6):
        p = model.phasors(t)
        for j in range(params.n_sites):
            for k in range(model.n_field):
                if model.q0[j, k] != 0:
                    assert abs(p[k] - coupling_q(params, j, k, t) / model.q0[j, k]) <= 1e-13
            assert abs(model.drive_table[:, j] @ (2.0 * p[2:].real) - drive_field(params, j, t)) <= 1e-13
    static = CompiledModel(replace(params, coupling_mode=STATIC_PHASE, drives=()))
    assert static.is_static and static.phasors(1.0).size == 0


def _duplicate_drive_system():
    space = build_space(SpaceSpec(2, (ModeSpec(2),)))
    params = SystemParams(
        site_energies=((-0.5, 0.5), (-0.5, 0.5)),
        exchange_j=0.05,
        field_modes=(FieldMode(omega=1.0, amplitude=0.05, polarization_overlap=(1.0, 1.0)),),
        drives=(ClassicalDrive(amplitude=0.1, frequency=1.0, sites=(0, 0)),),
    )
    return space, params


def test_drive_listing_a_site_twice_counts_it_once():
    space, params = _duplicate_drive_system()
    ham = TotalHamiltonian(space, params)
    rng = np.random.default_rng(5)
    psi = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    for t in (0.0, 0.3, 2.9):
        h_ref = term_sum(space, params, t)
        assert (ham.at(t) - h_ref).max_abs() <= 1e-14
        assert_allclose(ham.apply(t, psi), h_ref.matrix @ psi, atol=1e-14)


def test_propagation_with_a_site_listed_twice_matches_term_sum():
    space, params = _duplicate_drive_system()
    psi0 = np.zeros(space.dim, dtype=complex)
    psi0[0] = 1.0
    times = np.linspace(0.0, 12.0, 7)
    traj = propagate(space, params, psi0, times[-1], t_eval=times, tol=1e-11, keep_states=True)
    assert traj.meta["method"] == "interaction+LSODA"
    # the term sum with its time-independent builders assembled once (static phase: H_CF is fixed)
    assert params.coupling_mode == STATIC_PHASE
    fixed = (build_hc(space, params) + build_hf(space, params) + build_hcf(space, params, 0.0)
             + build_hp(space, params) + build_hcp(space, params)).matrix
    ref = solve_ivp(lambda t, psi: -1j * (fixed @ psi + build_hdrive(space, params, t).matrix @ psi),
                    (0.0, times[-1]), psi0, method="DOP853", t_eval=times, rtol=1e-12, atol=1e-14)
    assert np.max(np.abs(traj.states - ref.y)) <= 1e-8


def test_drive_term():
    space = build_space(SpaceSpec(1))
    params = SystemParams(
        site_energies=((-0.5, 0.5),),
        drives=(ClassicalDrive(amplitude=0.1, frequency=1.0),),
    )
    h = build_hdrive(space, params, 0.0)
    cache = OperatorCache(space)
    assert (h - 0.2 * cache.sigma_x[0]).max_abs() <= 1e-15


def test_operator_cache_keeps_no_per_site_identity_or_zero():
    space = build_space(SpaceSpec(3, (ModeSpec(2),)))
    cache = OperatorCache(space)
    for ts in cache.sigma:
        stored = sorted(name for name, value in vars(ts).items() if isinstance(value, Operator))
        assert stored == ["minus", "plus", "z"]
        assert (ts.unit - identity(space)).max_abs() == 0.0
        assert ts.zero.matrix.nnz == 0 and ts.zero.dim == space.dim


def test_equal_spaces_share_one_cache():
    spec = SpaceSpec(2, (ModeSpec(2),))
    first, second = build_space(spec), build_space(spec)
    assert first is not second and first == second
    assert OperatorCache.for_space(first) is OperatorCache.for_space(second)


def test_a_cache_built_by_a_caller_is_not_shared(cache_builds):
    space = build_space(SpaceSpec(2, (ModeSpec(2),)))
    own = OperatorCache(space)
    shared = OperatorCache.for_space(space)
    assert shared is not own
    OperatorCache(space)
    assert OperatorCache.for_space(space) is shared
    assert cache_builds == [space] * 3


def test_shared_caches_stay_bounded(cache_builds):
    spaces = [build_space(SpaceSpec(n)) for n in (1, 2, 3)]
    caches = [OperatorCache.for_space(space) for space in spaces]
    assert OperatorCache.for_space.cache_info().currsize == 2
    assert OperatorCache.for_space(spaces[2]) is caches[2]
    assert OperatorCache.for_space(spaces[1]) is caches[1]
    assert OperatorCache.for_space(spaces[0]) is not caches[0]  # the oldest was evicted
    assert cache_builds == [spaces[0], spaces[1], spaces[2], spaces[0]]
    assert OperatorCache.for_space.cache_info()[:2] == (2, 4)  # hits, misses


def test_params_validation():
    with pytest.raises(ValueError, match="upper level"):
        SystemParams(site_energies=((0.5, -0.5),))
    with pytest.raises(ValueError, match="boundary"):
        SystemParams(site_energies=((-0.5, 0.5),), boundary="twisted")


@pytest.mark.parametrize(
    "field, bad, good",
    [
        ("dipole", {"dipole": (1.0,)}, {"dipole": (1.0, 0.9, 0.8)}),
        ("site_positions", {"site_positions": (0.0, 1.0)}, {"site_positions": (0.0, 1.0, 2.5)}),
        ("polarization_overlap",
         {"field_modes": (FieldMode(1.0, amplitude=0.1, polarization_overlap=(1.0,)),)},
         {"field_modes": (FieldMode(1.0, amplitude=0.1, polarization_overlap=(1.0, 0.5, 0.2)),)}),
        ("drive sites", {"drives": (ClassicalDrive(0.1, 1.0, (0, 5)),)}, {"drives": (ClassicalDrive(0.1, 1.0, (0, 2)),)}),
    ],
    ids=["dipole", "site_positions", "polarization_overlap", "drive_sites"],
)
def test_params_refuse_per_site_data_that_misses_the_chain(field, bad, good):
    uniform_params(3, **good)
    with pytest.raises(ValueError, match=field):
        uniform_params(3, **bad)


def test_periodic_neighbors():
    params = uniform_params(4, boundary="periodic")
    assert params.neighbors(0) == (3, 1)
    assert params.bonds() == ((0, 1), (1, 2), (2, 3), (3, 0))
    open_params = uniform_params(4)
    assert open_params.neighbors(0) == (1,)
    assert open_params.neighbors(3) == (2,)


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_a_single_site_has_no_bond(boundary):
    params = uniform_params(1, j=0.2, boundary=boundary)
    assert params.bonds() == ()
    assert params.neighbors(0) == ()
    assert CompiledModel(params).exchange_j == 0.0
