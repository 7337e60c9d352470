"""Hamiltonian builders for the dipole chain coupled to field and phonons.

Conventions
-----------
* hbar = 1 throughout: all energies are angular frequencies.
* Site basis order (lower, upper); ``E_upper > E_lower`` is required, with
  the transition frequency ``omega_v = E_upper - E_lower``.
* The exchange term is implemented literally with its Hermitian conjugate,
  which doubles the real coupling: the effective nearest-neighbour exchange
  is ``2 * exchange_j``.  Halve ``exchange_j`` to match conventions that
  write the exchange sum once.
* The site-field coupling keeps both rotating and counter-rotating terms
  (no rotating-wave approximation).
* ``coupling_mode`` selects how the plane-wave phase of the coupling is
  treated: ``static_phase_at_t0`` (default) freezes the exponential at
  t = 0, giving a time-independent, conservative total Hamiltonian;
  ``literal_time_dependent`` keeps the oscillating phase exp(-i omega_k t)
  in the coupling function, at the price of double-counting the free field
  evolution already generated by the field Hamiltonian.  The literal model
  is exactly the frozen-phase model with every field frequency doubled,
  seen in the frame ``exp(i t sum_k omega_k N_k)``: there its phase is
  gone, and only the drives depend on time (``dynamics.propagate``
  integrates it in that frame).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hilbert import (
    Operator,
    SpaceIndex,
    _index,
    annihilation_local,
    embed_local,
    embed_modes,
    embed_terms,
    identity,
    number_local,
    zero,
)
from .transition_ops import (
    SIGMA_MINUS_LOCAL,
    SIGMA_PLUS_LOCAL,
    SIGMA_X_LOCAL,
    SIGMA_Z_LOCAL,
    build_transition_set,
)

STATIC_PHASE = "static_phase_at_t0"
LITERAL_TIME_DEPENDENT = "literal_time_dependent"
COUPLING_MODES = (STATIC_PHASE, LITERAL_TIME_DEPENDENT)

BOUNDARIES = ("open", "periodic")


@dataclass(frozen=True)
class FieldMode:
    """One quantized field mode.

    ``amplitude`` is the field-strength scale multiplying the coupling;
    ``polarization_overlap`` is the per-site projection of the mode
    polarization on the site dipole direction.
    """

    omega: float
    wavevector: float = 0.0
    amplitude: float = 0.0
    polarization_overlap: tuple[float, ...] = ()


@dataclass(frozen=True)
class PhononMode:
    """One phonon mode with frequency ``nu`` and coupling ``coupling``."""

    nu: float
    coupling: float = 0.0


@dataclass(frozen=True)
class ClassicalDrive:
    """Prescribed classical drive on the site dipoles.

    Adds ``2 Re(amplitude * exp(-i frequency t))`` times ``sigma_x`` on each
    driven site (all sites when ``sites`` is None).  ``amplitude`` plays the
    role of the product of coupling and coherent field amplitude.
    """

    amplitude: complex
    frequency: float
    sites: tuple[int, ...] | None = None


@dataclass(frozen=True)
class SystemParams:
    """All physical parameters of the chain-field-phonon system."""

    site_energies: tuple[tuple[float, float], ...]
    exchange_j: float = 0.0
    boundary: str = "open"
    field_modes: tuple[FieldMode, ...] = ()
    dipole: tuple[float, ...] = ()
    lattice_spacing: float = 1.0
    site_positions: tuple[float, ...] | None = None
    coupling_mode: str = STATIC_PHASE
    phonon_modes: tuple[PhononMode, ...] = ()
    drives: tuple[ClassicalDrive, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "site_energies", tuple(map(tuple, self.site_energies)))
        object.__setattr__(self, "field_modes", tuple(self.field_modes))
        object.__setattr__(self, "phonon_modes", tuple(self.phonon_modes))
        object.__setattr__(self, "drives", tuple(self.drives))
        n = self.n_sites
        object.__setattr__(self, "dipole", tuple(self.dipole) or (1.0,) * n)
        if len(self.dipole) != n:
            raise ValueError(f"dipole has {len(self.dipole)} entries for {n} sites")
        if self.site_positions is not None and len(self.site_positions) != n:
            raise ValueError(f"site_positions has {len(self.site_positions)} entries for {n} sites")
        for v, (e_low, e_up) in enumerate(self.site_energies):
            if not e_up > e_low:
                raise ValueError(
                    f"site {v}: upper level must lie above lower "
                    f"(got E_low={e_low}, E_up={e_up})"
                )
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"boundary must be one of {BOUNDARIES}")
        if self.coupling_mode not in COUPLING_MODES:
            raise ValueError(f"coupling_mode must be one of {COUPLING_MODES}")
        for mode in self.field_modes:
            if mode.omega <= 0:
                raise ValueError("field mode frequencies must be positive")
            if len(mode.polarization_overlap) not in (0, n):
                raise ValueError(f"polarization_overlap has {len(mode.polarization_overlap)} entries for {n} sites")
        for drive in self.drives:
            if drive.sites is not None and not all(0 <= v < n for v in drive.sites):
                raise ValueError(f"drive sites {drive.sites} outside the {n} sites")
        for mode in self.phonon_modes:
            if mode.nu <= 0:
                raise ValueError("phonon mode frequencies must be positive")

    @property
    def n_sites(self) -> int:
        return len(self.site_energies)

    @property
    def omegas(self) -> tuple[float, ...]:
        """Per-site transition frequencies E_upper - E_lower."""
        return tuple(e_up - e_low for e_low, e_up in self.site_energies)

    def position(self, site: int) -> float:
        if self.site_positions is not None:
            return self.site_positions[site]
        return site * self.lattice_spacing

    def neighbors(self, site: int) -> tuple[int, ...]:
        """Nearest neighbours under the boundary policy; a single site has none, periodic or not."""
        n = self.n_sites
        if self.boundary == "periodic" and n > 1:
            return ((site - 1) % n, (site + 1) % n)
        out = []
        if site - 1 >= 0:
            out.append(site - 1)
        if site + 1 < n:
            out.append(site + 1)
        return tuple(out)

    def bonds(self) -> tuple[tuple[int, int], ...]:
        """Nearest-neighbour bonds summed once in the exchange Hamiltonian; none below two sites."""
        n = self.n_sites
        if self.boundary == "periodic" and n > 1:
            return tuple((v, (v + 1) % n) for v in range(n))
        return tuple((v, v + 1) for v in range(n - 1))

    @property
    def effective_exchange(self) -> float:
        """Exchange coupling after the literal Hermitian-conjugate doubling."""
        return 2.0 * self.exchange_j


def coupling_q(params: SystemParams, j: int, k: int, t: float) -> complex:
    """Site-mode coupling function q_jk(t).

    ``-p_j (e_k . e_Pj) E_k exp(-i omega_k t + i k r_j)`` with the
    exponential frozen at t = 0 in static mode.
    """
    mode = params.field_modes[k]
    overlap = mode.polarization_overlap[j] if mode.polarization_overlap else 1.0
    base = -params.dipole[j] * overlap * mode.amplitude
    phase = mode.wavevector * params.position(j)
    if params.coupling_mode == LITERAL_TIME_DEPENDENT:
        phase -= mode.omega * t
    return base * np.exp(1j * phase)


def drive_field(params: SystemParams, j: int, t: float) -> float:
    """Classical drive amplitude on site j at time t (real)."""
    total = 0.0
    for drive in params.drives:
        if drive.sites is None or j in drive.sites:
            total += 2.0 * (drive.amplitude * np.exp(-1j * drive.frequency * t)).real
    return total


class CompiledModel:
    """Arrays of one ``SystemParams``, read by ``TotalHamiltonian`` and the mean-field closure.

    ``q0[j, k]`` is ``coupling_q(j, k, 0)``.  Time enters only through the phasor table:
    ``phasors(t) = phasor_amp * exp(phasor_rate t)``, one rate per row, with ``phasor_rate =
    -i freq``.  It holds first the ``n_phase`` mode phases of the literal coupling (amplitude
    1; none otherwise), which ``q0`` picks up, then one phasor per drive, whose value is twice
    the real part: the phasor plus its conjugate, which ``TotalHamiltonian`` holds as two
    conjugate columns of one exponential each.  ``drive_table[d, j]`` is 1 where drive d acts
    on site j (a site listed twice counts once); drives with zero amplitude or no site are
    left out.  A model without phasors is static.  Exchange bonds are index arrays.
    """

    def __init__(self, params: SystemParams):
        n, nf = params.n_sites, len(params.field_modes)
        self.n, self.n_field, self.n_phonon = n, nf, len(params.phonon_modes)
        self.omega = np.array(params.omegas, dtype=float)
        self.level_shift = 0.5 * float(np.sum(params.site_energies))
        self.q0 = np.array([[coupling_q(params, j, k, 0.0) for k in range(nf)] for j in range(n)],
                           dtype=np.complex128).reshape(n, nf)
        self.w_field = np.array([m.omega for m in params.field_modes], dtype=float)
        literal = params.coupling_mode == LITERAL_TIME_DEPENDENT and bool(np.any(self.q0))
        self.n_phase = nf if literal else 0
        bonds = np.array(params.bonds(), dtype=np.intp).reshape(-1, 2)
        self.exchange_j = params.exchange_j if bonds.size else 0.0
        self.bond_v, self.bond_w = bonds.T
        self.nu = np.array([m.nu for m in params.phonon_modes], dtype=float)
        self.lam = np.array([m.coupling for m in params.phonon_modes], dtype=float)
        sites = np.arange(n)
        table = np.array(
            [np.ones(n) if d.sites is None else np.isin(sites, d.sites) for d in params.drives], dtype=float
        ).reshape(-1, n)
        amp = np.array([d.amplitude for d in params.drives], dtype=np.complex128)
        live = (amp != 0) & table.any(axis=1)
        self.drive_table = table[live]
        self.phasor_amp = np.concatenate((np.ones(self.n_phase, dtype=np.complex128), amp[live]))
        freq = np.array([d.frequency for d in params.drives], dtype=float)[live]
        self.phasor_rate = -1j * np.concatenate((self.w_field[: self.n_phase], freq))
        self.is_static = not self.phasor_rate.size

    def is_finite(self) -> bool:
        """Whether every compiled number (frequencies, couplings, drives, level shift) is finite."""
        return all(np.isfinite(v).all() for v in vars(self).values() if isinstance(v, (np.ndarray, float)))

    def phasors(self, t):
        """amp * exp(-i freq t) per row of the phasor table; one column per time for a time grid."""
        if isinstance(t, float) or np.ndim(t) == 0:  # a float (np.float64 too) skips ndim's array conversion
            return self.phasor_amp * np.exp(self.phasor_rate * t)
        return (self.phasor_amp * np.exp(np.multiply.outer(t, self.phasor_rate))).T


# -- cached per-space elementary operators ------------------------------------


class OperatorCache:
    """Embedded elementary operators for one (space, params-independent) layout.

    The cache serves only the per-term builders and the equation-of-motion
    oracles, the independent references that ``TotalHamiltonian`` (built
    without it) is tested against.  Its operators are shared, never modified
    in place.  Every builder and oracle reads the cache of its space from
    ``for_space``, so each space is built once while it stays among the two
    most recently used; a cache a caller builds is that caller's own.
    """

    def __init__(self, space: SpaceIndex):
        self.space = space
        self.unit = identity(space)  # one identity for every site and mode
        self.sigma = [build_transition_set(space, v) for v in range(space.n_sites)]
        self.sigma_x = [embed_local(space, space.site_slot(v), SIGMA_X_LOCAL) for v in range(space.n_sites)]
        self.a = embed_modes(space, "field", annihilation_local)
        self.a_dag = [op.dag() for op in self.a]
        self.a_num = embed_modes(space, "field", number_local)
        self.b = embed_modes(space, "phonon", annihilation_local)
        self.b_dag = [op.dag() for op in self.b]
        self.b_num = embed_modes(space, "phonon", number_local)

    @staticmethod
    @lru_cache(maxsize=2)  # a 16-site cache holds 77.5 MiB: keep few alive
    def for_space(space: SpaceIndex) -> "OperatorCache":
        """The one cache shared by every caller on an equal ``space``, built on first use."""
        return OperatorCache(space)


# -- Hamiltonian builders -------------------------------------------------------


def build_h0(space: SpaceIndex, params: SystemParams) -> Operator:
    """Bare chain Hamiltonian: per-site level energies, diagonal.

    Equals ``sum_v [ (omega_v / 2) sigma_z_v + (E_low + E_up)/2 * unit ]``.
    """
    ops = OperatorCache.for_space(space)
    h = zero(space)
    for v, (e_low, e_up) in enumerate(params.site_energies):
        omega_v = e_up - e_low
        shift = 0.5 * (e_low + e_up)
        h = h + 0.5 * omega_v * ops.sigma[v].z + shift * ops.unit
    return h


def build_exchange(space: SpaceIndex, params: SystemParams) -> Operator:
    """Isotropic nearest-neighbour exchange, Hermitian conjugate included.

    ``sum_bonds [ J (s+ s- + s- s+ + z z / 2) + H.c. ]`` -- the bracket is
    already Hermitian, so the conjugate doubles it (effective coupling 2J).
    """
    ops = OperatorCache.for_space(space)
    h = zero(space)
    j = params.exchange_j
    if j == 0.0:
        return h
    for v, w in params.bonds():
        sv, sw = ops.sigma[v], ops.sigma[w]
        term = j * (sv.plus @ sw.minus + sv.minus @ sw.plus + 0.5 * (sv.z @ sw.z))
        h = h + term + term.dag()
    return h


def build_hc(space: SpaceIndex, params: SystemParams) -> Operator:
    """Chain Hamiltonian: bare levels plus exchange."""
    return build_h0(space, params) + build_exchange(space, params)


def build_hf(space: SpaceIndex, params: SystemParams) -> Operator:
    """Free field Hamiltonian: sum_k omega_k (n_k + 1/2)."""
    ops = OperatorCache.for_space(space)
    h = zero(space)
    for k, mode in enumerate(params.field_modes):
        h = h + mode.omega * (ops.a_num[k] + 0.5 * ops.unit)
    return h


def build_hcf(space: SpaceIndex, params: SystemParams, t: float = 0.0) -> Operator:
    """Site-field coupling at time t (non-RWA).

    ``sum_jk [ q_jk(t) sigma_x_j a_k + sigma_x_j a_k^dag q_jk(t)^* ]``,
    Hermitian at every t.
    """
    ops = OperatorCache.for_space(space)
    h = zero(space)
    for k in range(len(params.field_modes)):
        for j in range(params.n_sites):
            q = coupling_q(params, j, k, t)
            if q == 0:
                continue
            term = q * (ops.sigma_x[j] @ ops.a[k])
            h = h + term + term.dag()
    return h


def build_hdrive(space: SpaceIndex, params: SystemParams, t: float = 0.0) -> Operator:
    """Classical drive term: sum_j drive_field(j, t) sigma_x_j."""
    ops = OperatorCache.for_space(space)
    h = zero(space)
    for j in range(params.n_sites):
        amp = drive_field(params, j, t)
        if amp != 0.0:
            h = h + amp * ops.sigma_x[j]
    return h


def build_hp(space: SpaceIndex, params: SystemParams) -> Operator:
    """Free phonon Hamiltonian: sum_q nu_q (n_q + 1/2)."""
    ops = OperatorCache.for_space(space)
    h = zero(space)
    for q, mode in enumerate(params.phonon_modes):
        h = h + mode.nu * (ops.b_num[q] + 0.5 * ops.unit)
    return h


def build_hcp(space: SpaceIndex, params: SystemParams) -> Operator:
    """Site-phonon coupling: sum_jq lambda_q (b_q^dag + b_q) sigma_z_j."""
    ops = OperatorCache.for_space(space)
    h = zero(space)
    for q, mode in enumerate(params.phonon_modes):
        lam = mode.coupling
        if lam == 0.0:
            continue
        b_plus_bdag = ops.b[q] + ops.b_dag[q]
        for j in range(params.n_sites):
            h = h + lam * (b_plus_bdag @ ops.sigma[j].z)
    return h


def _adjoint(terms: list) -> list:
    """The terms of the adjoint of a sum of local products (``embed_terms`` layout)."""
    return [(np.conj(c), {slot: m.conj().T for slot, m in factors.items()}) for c, factors in terms]


class TotalHamiltonian:
    """The total Hamiltonian HC + HF + HCF(t) + HP + HCP + drives, built from a ``CompiledModel``.

    Time-independent terms are summed once into ``static``.  The time-dependent part is
    ``sum_i p_i(t) X_i + conj(p_i(t)) X_i^dag`` over the model's phasors ``p_i``: ``X_k`` is
    the per-mode coupling block ``sum_j q_jk(0) sigma_x_j a_k`` (literal coupling), and
    ``X_d`` is ``sum_j sigma_x_j`` over drive d's sites, Hermitian, so that a drive is two
    conjugate columns.  A time-dependent H is held once, as one CSR pattern covering
    ``static`` and the terms, with a values table ``nnz x (1 + 2P)`` whose columns are
    scaled by their phasor amplitudes and carry one exponential each: column 0 ``static``
    at rate 0, then ``amp_i X_i`` at ``rate_i`` and ``conj(amp_i) X_i^dag`` at
    ``conj(rate_i)``, with ``rate_i = -i freq_i`` (``rates``).  ``at`` and ``apply`` both
    use the data ``values @ exp(rates t)``, built here; a static H builds no table.

    Each of these operators is one ``embed_terms`` sum of local factors; no
    embedded operator is built on the way.  The diagonal terms of ``static`` are
    folded in the order and the groups in which the builders add them (per site
    ``sigma_z`` and then its level shift, ``z z`` per bond, field modes, phonon
    modes), so its diagonal rounds as theirs does.  ``cache`` is not read; it
    stays so that callers that pass one keep working.
    """

    def __init__(self, space: SpaceIndex, params: SystemParams, cache: OperatorCache | None = None):
        model = CompiledModel(params)
        self.space, self.params, self.model = space, params, model
        site = [space.site_slot(v) for v in range(model.n)]
        field = [space.field_slot(k) for k in range(model.n_field)]
        phonon = [space.phonon_slot(q) for q in range(model.n_phonon)]

        def ladder(slot: int) -> np.ndarray:
            return annihilation_local(space.subsystems[slot].dim - 1)

        def quanta(slot: int) -> np.ndarray:  # n + 1/2
            return np.diag(np.arange(space.subsystems[slot].dim) + 0.5)

        j = model.exchange_j
        bonds = list(zip(model.bond_v, model.bond_w)) if j else []
        levels = [term for v, (e_low, e_up) in enumerate(params.site_energies)
                  for term in ((0.5 * (e_up - e_low), {site[v]: SIGMA_Z_LOCAL}), (0.5 * (e_low + e_up), {}))]
        # the exchange bracket plus its conjugate: half of J z z twice, and 2J on each flip-flop
        exchange = [(0.5 * j, {site[v]: SIGMA_Z_LOCAL, site[w]: SIGMA_Z_LOCAL}) for v, w in bonds for _ in range(2)]
        exchange += [(2.0 * j, {site[v]: left, site[w]: right}) for v, w in bonds
                     for left, right in ((SIGMA_PLUS_LOCAL, SIGMA_MINUS_LOCAL), (SIGMA_MINUS_LOCAL, SIGMA_PLUS_LOCAL))]
        # grouped as build_hc + build_hf + build_hp + build_hcp sums them
        static = [[levels, exchange],
                  [(w, {field[k]: quanta(field[k])}) for k, w in enumerate(model.w_field)],
                  [(nu, {phonon[q]: quanta(phonon[q])}) for q, nu in enumerate(model.nu)]]
        for q in np.flatnonzero(model.lam):
            b = ladder(phonon[q])
            static += [(model.lam[q], {phonon[q]: b + b.conj().T, site[v]: SIGMA_Z_LOCAL}) for v in range(model.n)]
        blocks = [[(model.q0[v, k], {site[v]: SIGMA_X_LOCAL, field[k]: ladder(field[k])})
                   for v in np.flatnonzero(model.q0[:, k])] for k in range(model.n_field)]
        terms = []
        if model.n_phase:
            terms += blocks
        else:
            static += [term for block in blocks for term in block + _adjoint(block)]
        terms += [[(row[v], {site[v]: SIGMA_X_LOCAL}) for v in np.flatnonzero(row)] for row in model.drive_table]
        self.static = embed_terms(space, static)
        if terms:
            ops = [embed_terms(space, term) for term in terms]
            # a drive's operator is Hermitian: its conjugate column holds the same operator
            adjoints = [embed_terms(space, _adjoint(block)) for block in terms[: model.n_phase]] + ops[model.n_phase :]
            ops = [self.static] + ops + adjoints
            keys = [np.repeat(np.arange(space.dim) * space.dim, np.diff(op.indptr)) + op.indices for op in ops]
            keys, slot = np.unique(np.concatenate(keys), return_inverse=True)
            column = np.repeat(np.arange(len(ops)), [op.data.size for op in ops])
            # column-major: its product with exp(rates t) takes 1.8 us, row-major 2.3 us (322 x 5, compare-driven)
            self._values = np.zeros((keys.size, len(ops)), dtype=np.complex128, order="F")
            self._values[slot, column] = np.concatenate([op.data for op in ops])
            with np.errstate(invalid="ignore"):  # inf * (1 + 0j) has a nan part; is_finite refuses it, unwarned
                self._values *= np.concatenate(([1.0], model.phasor_amp, model.phasor_amp.conj()))
            self._rates = np.concatenate(([0.0], model.phasor_rate, model.phasor_rate.conj()))
            index = _index(space.dim, keys.size)
            self._indptr = np.searchsorted(keys, np.arange(space.dim + 1) * space.dim).astype(index)
            self._indices = (keys % space.dim).astype(index)

    @property
    def is_static(self) -> bool:
        return self.model.is_static

    def is_finite(self) -> bool:
        """Whether every matrix entry and every compiled number behind the exponentials is finite."""
        return bool(np.isfinite(self.static.data if self.is_static else self._values).all() and self.model.is_finite())

    def gershgorin_bound(self) -> float:
        """The largest row sum of |entries| over every column of the values table (of ``static`` when H is static).

        Every column's exponential has modulus 1, so this bounds the spectrum of H(t) at every t.  It is
        inf when the sum overflows, although every entry is finite.
        """
        with np.errstate(over="ignore"):
            if self.is_static:
                indptr, magnitudes = self.static.indptr, np.abs(self.static.data)
            else:
                indptr, magnitudes = self._indptr, np.abs(self._values).sum(axis=1)
            filled = np.diff(indptr) > 0  # reduceat would give an empty row the first entry of the next one
            return float(np.add.reduceat(magnitudes, indptr[:-1][filled]).max(initial=0.0))

    def _operator(self, t: float) -> Operator:
        """H(t) on the one pattern, with no ``csr_matrix`` built (``static`` itself when H is static)."""
        if self.is_static:
            return self.static
        data = self._values @ np.exp(self._rates * t)
        return Operator._of(self.space.dim, self._indptr, self._indices, data)

    at = _operator  # ``apply`` calls ``_operator``, not ``at``: bench/tracer.py counts ``at`` calls as records

    def apply(self, t: float, psi: np.ndarray) -> np.ndarray:
        """H(t) |psi>: the operator that ``at`` returns, applied by ``Operator.apply``."""
        return self._operator(t).apply(psi)
