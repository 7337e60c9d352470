"""Semiclassical (mean-field) closure of the operator equations of motion.

Every operator is replaced by its expectation value and every symmetrized
product ``{A, B}/2`` by the product of expectations; the site equations
then collapse to the classical precession form ``ds/dt = g . (s x G)``
(the diagonal metric acting on the ordinary cross product), the field and
phonon equations become linear c-number oscillators driven by the site
coherences, and the per-site Bloch length ``s_z^2 + 4 s+ s-`` is an exact
invariant of the closed flow.

The module also houses the analytic Rabi oracle used to validate both the
exact propagator (classical-drive substitution) and the closure, a
windowed-FFT spectrum estimator with peak extraction, and trajectory
diagnostics (largest-Lyapunov estimate, spectral flatness, regime
classification) for probing driven regimes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import RECORD_CHUNK, PropagationError, Trajectory, _check_grid, solve_ivp
from .hamiltonian import CompiledModel, SystemParams

# The Rabi oracle refuses drive strengths and detunings beyond this fraction of the
# transition frequency, where the rotating-wave approximation stops holding.
RWA_VALIDITY_RATIO = 0.1
# Separation of the Lyapunov probe's perturbed state, restored after every interval.
LYAPUNOV_SEPARATION = 1e-8
# Spectral flatness below which a regime is periodic, and from which it is broadband.
FLATNESS_PERIODIC = 0.05
FLATNESS_BROADBAND = 0.25


@dataclass
class MeanFieldState:
    """c-number closure variables.

    ``s_minus`` per site (complex), ``s_z`` per site (real), ``a`` per field
    mode and ``b`` per phonon mode (complex).  ``s_plus`` is the conjugate
    of ``s_minus`` by construction.  The fields may also hold blocks with
    one column per time point; ``bloch_lengths`` then acts per column.
    """

    s_minus: np.ndarray
    s_z: np.ndarray
    a: np.ndarray
    b: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.s_minus = np.atleast_1d(np.asarray(self.s_minus, dtype=np.complex128))
        self.s_z = np.atleast_1d(np.asarray(self.s_z, dtype=float))
        self.a = np.atleast_1d(np.asarray(self.a, dtype=np.complex128))
        self.b = np.atleast_1d(np.asarray(self.b, dtype=np.complex128))

    @property
    def s_plus(self) -> np.ndarray:
        return np.conj(self.s_minus)

    @property
    def n_sites(self) -> int:
        return self.s_minus.size

    def bloch_lengths(self) -> np.ndarray:
        """Per-site invariant s_z^2 + 4 s+ s- (1 for pure product states)."""
        return self.s_z**2 + 4.0 * np.abs(self.s_minus) ** 2

    def pack(self) -> np.ndarray:
        """Flatten to the real vector integrated by the ODE solver."""
        return _pack(self.s_minus, self.s_z, self.a, self.b)


def _pack(s_minus, s_z, a, b) -> np.ndarray:
    """Real ODE vector: Re/Im s-, s_z, Re/Im a, Re/Im b (``CompiledClosure.split`` inverts it)."""
    return np.concatenate([s_minus.real, s_minus.imag, s_z, a.real, a.imag, b.real, b.imag])


def bloch_state(theta: float = 0.0, phi: float = 0.0) -> tuple[complex, float]:
    """(s_minus, s_z) of the pure state cos(t/2)|lower> + e^{i phi} sin(t/2)|upper>."""
    return 0.5 * np.sin(theta) * np.exp(1j * phi), -float(np.cos(theta))


_ONE = np.ones(1)


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """re + i im in one new array (no complex temporary)."""
    z = re.astype(np.complex128)
    z.imag = im
    return z


class CompiledClosure(CompiledModel):
    """The closed equations on the arrays of one ``SystemParams``, compiled once per run.

    The compiled model (``hamiltonian.CompiledModel``) holds the couplings and drives that
    ``TotalHamiltonian`` reads too; this class adds the packing of the state vector, the
    right-hand side and the energy.  State arrays are indexed site (or mode) first: one
    state, or a block with one column per time.

    The right-hand side is a quadratic polynomial in the packed state whose time
    dependence enters only through the model's phasors, so it is compiled once into a
    table of terms.  Term ``(o, i, j, m, c)`` adds ``c * x[i] * x[j] * x[m]``, multiplied in
    that order, to ``dy[o]``, where ``x = [y, f(t)]`` and the time factors are ``f(t) = [1,
    Re/Im of each row of phasors(t)]``: ``i`` and ``j`` index ``y1 = [y, 1]`` and ``m``
    indexes ``f(t)``.  A drive's terms read the Re slot of its phasor at twice their
    coefficient.  Terms with a zero coefficient are left out, and the terms whose ``m`` is
    the leading 1 come first, so only the rest gather a time factor.  A right-hand side is
    then one concatenation, one gather of both operands, the products over the table and
    one ``bincount``, whatever terms the model holds; a static model evaluates no phasor
    and gathers no time factor.
    """

    def __init__(self, params: SystemParams):
        super().__init__(params)
        # doubled: the site field is Re(2 q a)
        self._q2 = 2.0 * self.q0
        self._size = 3 * self.n + 2 * self.n_field + 2 * self.n_phonon
        self._o, i, j, m, self._c = self._term_table()
        self._ij = np.stack((i, j))  # both operands of every term from one gather
        self._timed = int(np.count_nonzero(m == self._size))  # first term with a time factor
        self._m = m[self._timed :]

    def _term_table(self):
        """(o, i, j, m, c) of the nonzero terms of the closed equations (``close_rhs``)."""
        n, nf, nph = self.n, self.n_field, self.n_phonon
        x, u, z = np.arange(n), np.arange(n, 2 * n), np.arange(2 * n, 3 * n)  # Re s-, Im s-, s_z
        a_re, a_im = np.arange(3 * n, 3 * n + nf), np.arange(3 * n + nf, 3 * n + 2 * nf)
        b_re = np.arange(3 * n + 2 * nf, 3 * n + 2 * nf + nph)
        b_im = b_re + nph
        one = self._size  # x[one] == y1[one] == f(t)[0] == 1
        # the mode phase p_k = f[re_k] + i f[im_k] under the literal coupling, else p = 1
        k = np.arange(nf)
        re, im, live = (one + 1 + 2 * k, one + 2 + 2 * k, 1.0) if self.n_phase else (one, one, 0.0)
        drive = one + 1 + 2 * (self.n_phase + np.arange(self.drive_table.shape[0]))  # Re slots
        q_re, q_im = self._q2.real, self._q2.imag
        blocks = []

        def add(o, i, j, c, m=one):
            blocks.append([np.ravel(v) for v in np.broadcast_arrays(o, i, j, m, c)])

        # precession: ds-/dt = -i omega s-
        add(x, u, one, self.omega)
        add(u, x, one, -self.omega)
        # site field B = Re(2 q a p) + drives: ds-/dt += i s_z B, ds_z/dt -= 4 Im(s-) B
        field = [(a_re, re, q_re), (a_re, im, -q_im * live), (a_im, im, -q_re * live),
                 (a_im, re, -q_im), (one, drive, 2.0 * self.drive_table.T)]
        for j, m, c in field:
            add(u[:, None], z[:, None], j, c, m)
            add(z[:, None], u[:, None], j, -4.0 * c, m)
        # exchange over both directions of every bond: l gets S = s of its neighbour w
        l, w = np.concatenate([self.bond_v, self.bond_w]), np.concatenate([self.bond_w, self.bond_v])
        jj = 2.0 * self.exchange_j
        add(x[l], z[l], u[w], -jj)  # ds-/dt += 2iJ (s_z S- - s- S_z)
        add(x[l], u[l], z[w], jj)
        add(u[l], z[l], x[w], jj)
        add(u[l], x[l], z[w], -jj)
        add(z[l], u[l], x[w], -4.0 * jj)  # ds_z/dt -= 8J Im(s- conj(S-))
        add(z[l], x[l], u[w], 4.0 * jj)
        # phonon shift: ds-/dt -= 4i (lambda . Re b) s-
        add(x[:, None], u[:, None], b_re, 4.0 * self.lam)
        add(u[:, None], x[:, None], b_re, -4.0 * self.lam)
        # modes: da/dt = -i w a - i Re(s-) . 2 q* conj(p), db/dt = -i (nu b + lambda sum s_z)
        add(a_re, a_im, one, self.w_field)
        add(a_im, a_re, one, -self.w_field)
        add(a_re, x[:, None], one, -q_im, re)
        add(a_re, x[:, None], one, -q_re * live, im)
        add(a_im, x[:, None], one, -q_re, re)
        add(a_im, x[:, None], one, q_im * live, im)
        add(b_re, b_im, one, self.nu)
        add(b_im, b_re, one, -self.nu)
        add(b_im, z[:, None], one, -self.lam)
        o, i, j, m, c = (np.concatenate(parts) for parts in zip(*blocks))
        # nonzero terms, those without a time factor first
        keep = np.flatnonzero(c != 0)
        keep = keep[np.argsort(m[keep] != one, kind="stable")]
        return o[keep], i[keep], j[keep], m[keep], c[keep]

    def check(self, mf: MeanFieldState) -> CompiledClosure:
        """This closure, after refusing a state whose sizes differ from the parameters."""
        have, want = (mf.n_sites, mf.a.size, mf.b.size), (self.n, self.n_field, self.n_phonon)
        if have != want:
            raise ValueError(f"state has {have} sites / field / phonon amplitudes, "
                             f"params declare {want}")
        return self

    def split(self, y: np.ndarray):
        """(s_minus, s_z, a, b) of a packed state or of a block of packed columns."""
        n, nf, nph = self.n, self.n_field, self.n_phonon
        base = 3 * n + 2 * nf
        return (_complex(y[:n], y[n : 2 * n]), y[2 * n : 3 * n],
                _complex(y[3 * n : 3 * n + nf], y[3 * n + nf : base]),
                _complex(y[base : base + nph], y[base + nph : base + 2 * nph]))

    def site_field(self, p, a):
        """Real field on every site at phasors ``p`` (``phasors(t)``): mode image plus drives."""
        m = self.n_phase
        a_t = a * p[:m] if m else a
        return (self._q2 @ a_t).real + self.drive_table.T @ (2.0 * p[m:].real)

    def rhs(self, t: float, y: np.ndarray) -> np.ndarray:
        """Time derivative of the packed state (the equations of ``close_rhs``), a new array."""
        if self.is_static:  # no time factor: f(t) is the 1 alone
            x = np.concatenate((y, _ONE))
        else:  # f(t) after its 1: Re and Im of each phasor, interleaved
            x = np.concatenate((y, _ONE, self.phasors(t).view(float)))
        pair = x.take(self._ij)
        # (c * x[i]) * x[j], then * f[m]: LSODA's call count moves with the last bit of that order
        weights = self._c * pair[0]
        weights *= pair[1]
        if not self.is_static:
            weights[self._timed :] *= x.take(self._m)
        return np.bincount(self._o, weights=weights, minlength=self._size)

    def energy(self, t, sm, sz, a, b):
        """Mean-field Hamiltonian function of one state, or per column of a block."""
        e = self.level_shift + (0.5 * self.omega) @ sz
        if self.exchange_j != 0.0:
            v, w = self.bond_v, self.bond_w
            bond = 2.0 * (np.conj(sm[v]) * sm[w]).real + 0.5 * sz[v] * sz[w]
            e = e + 2.0 * self.exchange_j * np.sum(bond, axis=0)
        e = e + self.w_field @ (np.abs(a) ** 2 + 0.5) + self.nu @ (np.abs(b) ** 2 + 0.5)
        e = e + np.sum(self.site_field(self.phasors(t), a) * 2.0 * sm.real, axis=0)
        return e + 2.0 * (self.lam @ b.real) * np.sum(sz, axis=0)


def _run_closure(params: SystemParams, mf: MeanFieldState) -> CompiledClosure:
    """The closure of a run, checked against the state and refusing non-finite parameters."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow ends in the refusal below, not a warning
        closure = CompiledClosure(params).check(mf)
    if not closure.is_finite():
        raise PropagationError("model has non-finite frequencies, couplings or drives")
    return closure


def close_rhs(mf: MeanFieldState, params: SystemParams, t: float) -> MeanFieldState:
    """Time derivative of the closed (factorized) equations.

    Site l (J the nominal exchange, B_l the real site drive, L the phonon
    displacement sum):

    * ds-/dt = -i w_l s- + i s_z B_l + 2iJ (s_z S- - s- S_z) - 2i L s-
    * ds_z/dt = -4 Im(s-) B_l - 8 J Im(s- conj(S-))

    with S the neighbour sums; field and phonon amplitudes follow their
    linear equations driven by ``sum_j 2 Re(s-_j) q*`` and
    ``lambda_q sum_j s_z_j``.
    """
    closure = CompiledClosure(params).check(mf)
    return MeanFieldState(*closure.split(closure.rhs(t, mf.pack())), t)


def mean_field_energy(mf: MeanFieldState, params: SystemParams, t: float = 0.0) -> float:
    """Mean-field Hamiltonian function (conserved under static coupling)."""
    closure = CompiledClosure(params).check(mf)
    return float(closure.energy(t, mf.s_minus, mf.s_z, mf.a, mf.b))


def mf_propagate(
    mf: MeanFieldState,
    params: SystemParams,
    t_end: float,
    *,
    tol: float = 1e-10,
    n_out: int = 201,
) -> Trajectory:
    """Integrate the closed equations by LSODA (``dynamics.solve_ivp``); records mirror the exact trajectory.

    ``norm`` records the root of the mean per-site Bloch length (the
    closure's analogue of state normalization) and ``bloch_l`` the per-site
    invariant itself; ``meta`` carries the right-hand-side calls
    (``rhs_evaluations``) and the accepted steps (``steps``).  Raises
    ``ValueError`` when ``t_end`` does not exceed the start time, ``n_out``
    is 0 or ``tol`` is below ``dynamics.TOL_MIN``, ``PropagationError``
    before integrating when a compiled frequency, coupling or drive is
    non-finite, and when the integration fails.
    """
    closure = _run_closure(params, mf)
    t_start = mf.time
    if t_end <= t_start:
        raise ValueError(f"t_end {t_end} must exceed start time {t_start}")
    times = _check_grid(np.linspace(t_start, t_end, n_out), t_start, t_end)
    y, rhs_evaluations, steps = solve_ivp(closure.rhs, (t_start, t_end), mf.pack(), times, tol)
    sm, sz, a, b = closure.split(y)
    sz = sz.copy()
    del y  # the solver's state block is not needed past this point
    records = _records(closure, times, sm, sz, a, b)
    bloch = (records[f"bloch_{l}"] for l in range(closure.n))
    meta = {"bloch_drift": max(float(np.max(np.abs(row - row[0]))) for row in bloch), "tol": tol,
            "method": "LSODA", "kind": "meanfield", "rhs_evaluations": rhs_evaluations, "steps": steps}
    return Trajectory(times=times, records=records, meta=meta)


def _records(closure: CompiledClosure, times, sm, sz, a, b) -> dict[str, np.ndarray]:
    """The records of closure states (one column per time), named per site and mode."""
    bloch, s_plus = MeanFieldState(sm, sz, a, b).bloch_lengths(), np.conj(sm)
    records: dict[str, np.ndarray] = {}
    for l in range(closure.n):
        records.update({f"sigma_minus_{l}": sm[l], f"sigma_plus_{l}": s_plus[l],
                        f"sigma_z_{l}": sz[l], f"bloch_{l}": bloch[l]})
    for k in range(closure.n_field):
        records.update({f"a_{k}": a[k], f"n_{k}": np.abs(a[k]) ** 2})
    for q in range(closure.n_phonon):
        records.update({f"b_{q}": b[q], f"nb_{q}": np.abs(b[q]) ** 2})
    records["norm"] = np.sqrt(np.mean(bloch, axis=0))
    chunks = (slice(lo, lo + RECORD_CHUNK) for lo in range(0, times.size, RECORD_CHUNK))
    records["energy"] = np.concatenate(
        [closure.energy(times[c], sm[:, c], sz[:, c], a[:, c], b[:, c]) for c in chunks]
    )
    return records


# -- analytic Rabi oracle ---------------------------------------------------------


@dataclass(frozen=True)
class RabiOracle:
    """Closed-form driven two-level solution (rotating-wave regime).

    Derived from the closed equations for a single site with one classical
    drive ``2 Re(A e^{-i w_d t})`` starting in the lower state: in the
    frame rotating at the drive frequency the Bloch vector precesses about
    ``(-Omega_R, 0, Delta)`` with ``Omega_R = 2 |A|``; resonantly the
    inversion is ``-cos(Omega_R t)``, reaching +1 at ``t = pi / Omega_R``,
    and detuning reduces the oscillation amplitude to
    ``Omega_R^2 / (Omega_R^2 + Delta^2)``.
    """

    omega_site: float
    drive_amplitude: complex
    drive_frequency: float

    @property
    def detuning(self) -> float:
        return self.drive_frequency - self.omega_site

    @property
    def omega_rabi(self) -> float:
        return 2.0 * abs(self.drive_amplitude)

    @property
    def omega_generalized(self) -> float:
        return float(np.hypot(self.omega_rabi, self.detuning))

    @property
    def inversion_time(self) -> float:
        """Time of first maximum inversion (full inversion on resonance)."""
        if self.omega_generalized == 0.0:
            return np.inf
        return np.pi / self.omega_generalized

    @property
    def oscillation_amplitude(self) -> float:
        """Peak-to-valley fraction of full inversion: Omega_R^2 / Omega_gen^2."""
        if self.omega_generalized == 0.0:
            return 0.0
        return (self.omega_rabi / self.omega_generalized) ** 2

    def s_z(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return -1.0 + 2.0 * self.oscillation_amplitude * np.sin(
            0.5 * self.omega_generalized * t
        ) ** 2

    def s_minus(self, t) -> np.ndarray:
        """Lab-frame coherence from the rotating-frame Rodrigues rotation."""
        t = np.asarray(t, dtype=float)
        omega_r, delta, omega_g = self.omega_rabi, self.detuning, self.omega_generalized
        if omega_g == 0.0:
            return np.zeros_like(t, dtype=complex)
        theta = omega_g * t
        x = omega_r * delta * (1.0 - np.cos(theta)) / omega_g**2
        y = -(omega_r / omega_g) * np.sin(theta)
        phase = np.exp(1j * np.angle(self.drive_amplitude)) if self.drive_amplitude else 1.0
        u = 0.5 * (x + 1j * y) * phase
        return u * np.exp(-1j * self.drive_frequency * t)


def rabi_oracle(params: SystemParams) -> RabiOracle:
    """Build the analytic oracle for a single-site, single-drive system.

    Refuses configurations outside the rotating-wave validity window
    (drive strength or detuning beyond ``RWA_VALIDITY_RATIO`` of the
    transition frequency), or with quantized field modes present.
    """
    if params.n_sites != 1:
        raise ValueError("Rabi oracle requires a single site")
    if params.field_modes:
        raise ValueError("Rabi oracle applies to a classical drive, not quantized modes")
    if len(params.drives) != 1:
        raise ValueError("Rabi oracle requires exactly one classical drive")
    drive = params.drives[0]
    omega0 = params.omegas[0]
    oracle = RabiOracle(omega0, drive.amplitude, drive.frequency)
    if oracle.omega_rabi > RWA_VALIDITY_RATIO * omega0:
        raise ValueError(
            f"drive too strong for the rotating-wave window: "
            f"Omega_R = {oracle.omega_rabi:.3g} > {RWA_VALIDITY_RATIO} * {omega0:.3g}"
        )
    if abs(oracle.detuning) > RWA_VALIDITY_RATIO * omega0:
        raise ValueError(
            f"detuning {oracle.detuning:.3g} outside the rotating-wave window"
        )
    return oracle


# -- spectrum ----------------------------------------------------------------------


@dataclass
class SpectrumPeak:
    omega: float
    height: float
    width: float


@dataclass
class SpectrumResult:
    """Power spectral density on an angular-frequency grid, with peaks."""

    omegas: np.ndarray
    power: np.ndarray
    peaks: list[SpectrumPeak]
    parseval_ratio: float
    window: str

    def peak_omegas(self) -> np.ndarray:
        return np.array([p.omega for p in self.peaks])


def spectrum(
    traj: Trajectory,
    observable: str,
    *,
    window: str = "hann",
    resample: bool = False,
    peak_rel_height: float = 1e-3,
) -> SpectrumResult:
    """Windowed FFT power spectrum of a recorded observable.

    Frequencies are angular.  Real series yield a one-sided spectrum,
    complex series a two-sided one.  Peaks are local maxima above
    ``peak_rel_height`` times the maximum power.

    A non-uniform time grid is refused unless ``resample=True``, in which
    case the series is linearly interpolated onto a uniform grid.
    """
    times = traj.times
    series = traj.observable(observable)
    steps = np.diff(times)
    if steps.size < 3:
        raise ValueError("series too short for a spectrum")
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        if not resample:
            raise ValueError("non-uniform time grid; pass resample=True to interpolate")
        uniform = np.linspace(times[0], times[-1], times.size)
        series = np.interp(uniform, times, series.real) + (
            1j * np.interp(uniform, times, series.imag)
            if np.iscomplexobj(series)
            else 0.0
        )
        times = uniform
        steps = np.diff(times)
    dt = float(steps[0])
    n = series.size

    if window == "hann":
        win = np.hanning(n)
    elif window in ("rect", "boxcar"):
        win = np.ones(n)
    else:
        raise ValueError(f"unknown window {window!r}")
    u = float(np.mean(win**2))
    windowed = series * win

    if np.iscomplexobj(series):
        spec_vals = np.fft.fftshift(np.fft.fft(windowed))
        freqs = np.fft.fftshift(np.fft.fftfreq(n, d=dt))
        power = np.abs(spec_vals) ** 2 * dt / (n * u)
    else:
        spec_vals = np.fft.rfft(windowed)
        freqs = np.fft.rfftfreq(n, d=dt)
        power = np.abs(spec_vals) ** 2 * dt / (n * u)
        # one-sided: double the shared bins
        if n % 2 == 0:
            power[1:-1] *= 2.0
        else:
            power[1:] *= 2.0
    omegas = 2.0 * np.pi * freqs

    # Parseval check: integrated density vs mean square of the raw series.
    total_spectral = float(np.sum(power)) * (1.0 / (n * dt))
    mean_square = float(np.mean(np.abs(series) ** 2))
    parseval_ratio = total_spectral / mean_square if mean_square > 0 else 1.0

    # imported here: scipy.signal loads scipy.stats and scipy.ndimage, about 20 MB for every process
    from scipy.signal import find_peaks, peak_widths

    floor = peak_rel_height * float(np.max(power)) if np.max(power) > 0 else 0.0
    idx, props = find_peaks(power, height=floor)
    peaks = []
    if idx.size:
        widths = peak_widths(power, idx, rel_height=0.5)[0]
        domega = omegas[1] - omegas[0] if omegas.size > 1 else 0.0
        order = np.argsort(props["peak_heights"])[::-1]
        for rank in order:
            i = idx[rank]
            peaks.append(
                SpectrumPeak(
                    omega=float(omegas[i]),
                    height=float(power[i]),
                    width=float(widths[rank] * domega),
                )
            )
    elif np.max(power) > 0 and np.argmax(power) == 0:
        # monotone spectra (e.g. constant series): report the DC maximum
        peaks.append(SpectrumPeak(omega=float(omegas[0]), height=float(power[0]), width=0.0))
    return SpectrumResult(
        omegas=omegas, power=power, peaks=peaks, parseval_ratio=parseval_ratio,
        window=window,
    )


# -- regime diagnostics --------------------------------------------------------------


@dataclass
class VolterraReport:
    """Regime diagnostics of the closed flow.

    ``lyapunov`` is the Benettin-style largest-exponent estimate with its
    per-interval standard error; ``flatness`` the spectral flatness (0 for
    a line spectrum, 1 for white noise) of the probed observables.  The
    classification is heuristic and exploratory.
    """

    lyapunov: float
    lyapunov_stderr: float
    flatness: dict[str, float]
    classification: str
    intervals: int


def spectral_flatness(power: np.ndarray) -> float:
    """Geometric over arithmetic mean of the nonzero spectral density."""
    p = np.asarray(power, dtype=float)
    p = p[p > 0]
    if p.size == 0:
        return 0.0
    return float(np.exp(np.mean(np.log(p))) / np.mean(p))


def volterra_diagnostics(
    params: SystemParams,
    mf0: MeanFieldState,
    t_end: float,
    *,
    observables: tuple[str, ...] = ("sigma_z_0",),
    renorm_interval: float | None = None,
    n_out: int = 1024,
    tol: float = 1e-10,
    seed: int = 0,
) -> VolterraReport:
    """Probe the closed flow for periodic / quasiperiodic / broadband regimes.

    The largest Lyapunov exponent is estimated from the regrowth of the
    separation between a reference and a perturbed state, renormalized to
    ``LYAPUNOV_SEPARATION`` every ``renorm_interval`` (default: one twentieth
    of the run).  The two states are integrated as one stacked vector, so
    the probe makes one LSODA solve (``dynamics.solve_ivp``, from the
    interval's start onto its end) per interval on top of the base run;
    spectral flatness is computed from the base trajectory and classified
    against ``FLATNESS_PERIODIC`` and ``FLATNESS_BROADBAND``.  Raises
    ``ValueError`` for a ``t_end`` that is non-finite or not past the start,
    a non-positive or non-finite ``renorm_interval``, and a run too short to
    fit at least five renormalization intervals; ``PropagationError`` before
    any integration when a compiled frequency, coupling or drive is
    non-finite; ``ValueError`` before any integration, too, for an
    observable that ``mf_propagate`` does not record.
    """
    t_span = t_end - mf0.time
    if not (np.isfinite(t_span) and t_span > 0.0):
        raise ValueError(f"t_end {t_end} must be finite and exceed start time {mf0.time}")
    if renorm_interval is None:
        renorm_interval = t_span / 20.0
    elif not (np.isfinite(renorm_interval) and renorm_interval > 0.0):
        raise ValueError(f"renorm_interval must be positive and finite, got {renorm_interval}")
    n_intervals = int(np.floor(t_span / renorm_interval))
    if n_intervals < 5:
        raise ValueError(
            "trajectory too short for a separation estimate "
            f"({n_intervals} renormalization intervals, need >= 5)"
        )

    closure = _run_closure(params, mf0)
    # the records of the start state alone name every record of the run
    recorded = _records(closure, np.array([mf0.time]), *closure.split(mf0.pack()[:, None]))
    unknown = [name for name in observables if name not in recorded]
    if unknown:
        raise ValueError(f"no record {unknown} in a mean-field run; available: {sorted(recorded)}")
    rhs = closure.rhs
    base = mf_propagate(mf0, params, t_end, tol=tol, n_out=n_out)
    flatness = {
        name: spectral_flatness(spectrum(base, name, window="hann").power)
        for name in observables
    }

    rng = np.random.default_rng(seed)
    y_ref = mf0.pack()
    size = y_ref.size
    direction = rng.normal(size=size)
    direction /= np.linalg.norm(direction)
    pair = np.concatenate([y_ref, y_ref + LYAPUNOV_SEPARATION * direction])

    def pair_rhs(t: float, y: np.ndarray) -> np.ndarray:
        return np.concatenate([rhs(t, y[:size]), rhs(t, y[size:])])

    logs = np.empty(n_intervals)
    t0 = mf0.time
    for i in range(n_intervals):
        t1 = t0 + renorm_interval
        y_end = solve_ivp(pair_rhs, (t0, t1), pair, None, tol)[0][:, -1]
        y_ref, grown = y_end[:size], y_end[size:] - y_end[:size]
        dist = max(float(np.linalg.norm(grown)), np.finfo(float).tiny)
        logs[i] = np.log(dist / LYAPUNOV_SEPARATION) / renorm_interval
        # renormalize the separation along the grown direction
        pair = np.concatenate([y_ref, y_ref + grown * (LYAPUNOV_SEPARATION / dist)])
        t0 = t1

    lyap = float(np.mean(logs))
    stderr = float(np.std(logs) / np.sqrt(n_intervals))

    max_flatness = max(flatness.values())
    growth_significant = lyap > max(3.0 * stderr, 2.0 / t_span)
    if growth_significant or max_flatness >= FLATNESS_BROADBAND:
        classification = "broadband"
    elif max_flatness < FLATNESS_PERIODIC:
        classification = "periodic"
    else:
        classification = "quasiperiodic"
    return VolterraReport(
        lyapunov=lyap,
        lyapunov_stderr=stderr,
        flatness=flatness,
        classification=classification,
        intervals=n_intervals,
    )
