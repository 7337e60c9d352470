"""Exact propagation and operator-level equations of motion.

Two independent routes to the same physics are kept side by side:

* :func:`propagate` evolves the state under the total Hamiltonian with one
  of four backends, picked from the input.  A time-independent
  Hamiltonian of dimension at most ``SPECTRAL_MAX_DIM`` is propagated by
  its dense eigendecomposition (``eigh``); a larger one, on any output
  grid, by a Chebyshev expansion of the propagator (Tal-Ezer & Kosloff,
  J. Chem. Phys. 81, 3967, 1984), one per window of output times.  A
  window is capped by columns (at most ``RECORD_CHUNK``, fewer where
  ``RECORD_BYTES`` binds) and by ``R tau`` (at most ``CHEBYSHEV_SPAN``,
  with R the half-width of the spectrum); a gap between output times
  longer than that span is crossed by hops that record nothing.  Both are
  exact to roundoff, with no step error.  An explicitly time-dependent
  generator of dimension at most ``INTERACTION_MAX_DIM`` is integrated by
  LSODA in the interaction picture of its static part, whose
  eigendecomposition removes the fast carrier from the integrated
  amplitudes; a larger one by plain LSODA.  The phases of the literal
  coupling are removed exactly first, in the field-number frame
  (:func:`_field_number_frame`), where the generator is the frozen-phase
  model at doubled field frequencies: without drives it is static and
  goes to ``eigh`` or Chebyshev.  Every ODE path, the mean-field
  closure's included, goes through :func:`solve_ivp`, one call of LSODA
  (adaptive Adams/BDF with automatic switching, stepped in compiled code,
  scipy's ``odeint``).  ``Trajectory.meta["method"]`` names the
  backend that ran and ``meta["backend_reason"]`` why.  The records
  (``RECORD_NAMES``) are contractions of the state block at each
  subsystem's tensor slot, with no embedded matrix; the embedded operators
  of ``OperatorCache`` are their test oracle,
* the ``heisenberg_rhs_*`` builders assemble, term by term, the explicit
  operator right-hand sides of the site, field and phonon equations of
  motion, which must coincide with ``i [H, O]`` as matrices.

Sign conventions in the right-hand sides follow the commutator ``i [H, O]``
(the master equation of motion), not any particular typeset form; every
builder is tested against that oracle.

Truncation note: with a hard Fock cutoff the bosonic commutation relation
acquires a defect at the top ladder level, so the field and phonon
equation identities hold exactly only away from the truncation boundary.
:func:`bulk_projector` builds the projector that excludes the top level of
every bosonic mode; identity residuals for the field/phonon equations are
evaluated under it.  Site-operator identities are exact without projection.

The compact vector form of the site equations is

    ``d sigma_l / dt = g . [ sigma_l  x  G_l ]``

with ``g = diag(1, 1, 4)`` and the symmetrized cross product of
``transition_ops.generalized_cross``.  The effective-field vector ``G_l``
carries the *effective* exchange coupling (twice the nominal one, matching
the Hermitian-conjugate doubling in the Hamiltonian), the field coupling
through ``b_lk = q_lk a_k + a_k^dag q_lk^*``, and a z-extension
``-2 sum_q lambda_q (b_q^dag + b_q)`` when phonons are enabled.  Written
with full anticommutators instead of symmetrized products, the same
identity reads "2 g [sigma (x) G]" with an overall one-half in the cross
product; the two factors cancel and the net normalization is fixed, as
implemented here, by requiring exact agreement with the commutator form.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.fft import dct
from scipy.integrate import ODEintWarning, odeint, quad
from scipy.linalg.blas import zaxpy, zgemm
from scipy.sparse._sparsetools import csr_matvec
from scipy.special import jv

from .hamiltonian import (
    STATIC_PHASE,
    CompiledModel,
    OperatorCache,
    SystemParams,
    TotalHamiltonian,
    build_hcp,
    coupling_q,
    drive_field,
)
from .hilbert import (
    DimensionMismatchError,
    Operator,
    SpaceIndex,
    anticommutator,
    commutator,
    embed_modes,
    identity,
    top_level_projector_local,
    zero,
)
from .transition_ops import COMPACT_METRIC, OpVector, generalized_cross, sigma_vector

NORM_DRIFT_WARNING = 1e-6
TOP_LEVEL_FLAG = 1e-6
# Largest dimension propagated by dense eigendecomposition.  Dense ``eigh``
# costs O(dim^3) time and O(dim^2) memory (2-vCPU x86, OpenBLAS, 2 threads:
# 0.15 s / +11 MB at 512, 1.1 s / +37 MB at 1024, 4.0 s / +72 MB at 1456).
# Above this size a static H goes to the Chebyshev expansion, whose cost
# grows with R t (R the half-width of the spectral interval) instead of
# dim^3.  propagate, 401 points, one site and a field mode (best to median
# of 5, same box): eigh at dim 512 0.16-0.18 s whatever the horizon;
# Chebyshev at dim 514 (R = 129) 0.17-0.18 s to t = 15 and 1.18-1.23 s to
# t = 150.  On model-large (dim 1456, R = 9.2, t = 150) it makes 1,814
# sparse products where ``expm_multiply`` made 8,708.
SPECTRAL_MAX_DIM = 512
# Largest time-dependent H integrated in the interaction picture of its static
# part.  The frame cuts LSODA's right-hand-side calls, but every call adds two
# dense dim x dim products.  propagate wall time, plain LSODA -> frame, median
# and quartiles of 8 rounds alternating in one process (2-vCPU x86): compare-
# driven (literal coupling plus a weak drive, dim 52, tol 1e-10) 40,193 ->
# 15,185 calls, 0.41 s (0.40-0.41) -> 0.33 s (0.33-0.34), records within
# 1.3e-10.  Where the drive is strong or the static carrier slow, the frame
# loses: one resonantly driven site (criterion 07, tol 1e-12) 14,402 ->
# 13,625 calls, 0.11 s (0.11-0.11) -> 0.19 s (0.18-0.19).  An open spin chain
# (J = 0.05, site 0 tilted by theta = 1 and driven at amplitude 0.01, t = 50,
# 201 points, tol 1e-10) gained from the frame at 128 (6,647 -> 1,510 calls,
# 0.083 -> 0.060 s) and still at 256 (7,370 -> 1,396 calls, 0.156 -> 0.114 s),
# so this limit is conservative for weak drives; it is not yet calibrated.
# Literal coupling is first taken to the field-number frame (propagate), where
# only the drives depend on time: there compare-driven's interaction picture
# makes 6,257 calls, not 15,185.  Plain LSODA meets doubled field carriers in
# that frame: the compare-driven physics at cutoff 35 (dim 144, t = 250, 4,001
# points) took 63,851 calls (1.1 s) in the lab frame and 128,578 (2.0 s) in the
# field-number frame, so a driven literal system above this limit stays in the
# lab frame.  So does the mean-field closure: on compare-driven it made 19,733
# calls in the field-number frame against 13,681 in the lab frame.
INTERACTION_MAX_DIM = 128
# State columns recorded at once: bounds the dim x chunk temporaries.
RECORD_CHUNK = 64
# Largest R tau of one Chebyshev expansion (R the half-width of the spectral
# interval): a window closes early where its next time would pass it, and a
# longer gap between output times is crossed by hops of this span.  The order,
# the coefficient table (order x columns) and the DCT of 2 order + 16 points per
# column all grow with R tau.  One site plus a field mode of cutoff 256 (dim
# 514, R = 129), 201 points to t = 1000, propagate after a warm-up run, median
# of 3 on a 2-vCPU x86 box, peak RSS over the RSS before the call: unbounded
# (R tau up to 41,000 in one window) 6.7 s and +75 MB; a span of 500 2.9 s,
# 1,000 1.8 s, 2,000 (this bound) 2.3 s and +0.6 MB, 4,000 2.1 s and +1.6 MB,
# 8,000 2.9 s and +2.7 MB, with states within 1e-11 of the unbounded run's.
# Every benchmark workload stays below it (model-large: R tau about 220).
CHEBYSHEV_SPAN = 2000.0
# Bytes of one block of states on the exact path: each Chebyshev window, its
# ring of polynomial vectors, each frame chunk and each block of slot records
# holds ``_record_columns(dim)`` columns, RECORD_CHUNK or fewer where dim forces
# it (at dim <= 32,768 every chunk keeps 64 columns).  The Chebyshev path holds
# two blocks at once, the ring and the window's states, and its records take at
# most one block-sized temporary besides the block.  Static 18-site spin chain
# (dim 262,144), 65 points to t = 20, Chebyshev: when about five blocks were
# held, 64 columns added 753 MB to the peak RSS of propagate and 8 columns (this
# budget) 117 MB, in the same 8.9 s; windows of 16-64 columns ran equally fast
# at 14 and 16 sites.  Holding two blocks and no second matrix, propagate adds 65 MB
# (18 sites, 8 columns) and 97 MB (16 sites, 32 columns) to the peak RSS (2-vCPU x86).
RECORD_BYTES = 2**25
# Records of each subsystem kind, in file order; each name is the prefix
# followed by the subsystem's label.  A site records its lowering
# expectation, that one's conjugate and p_1 - p_0; a field or phonon mode its
# lowering expectation, its mean occupation and its top-level population.
RECORD_NAMES = {
    "site": ("sigma_minus_", "sigma_plus_", "sigma_z_"),
    "field": ("a_", "n_", "top_field_"),
    "phonon": ("b_", "nb_", "top_phonon_"),
}


class PropagationError(RuntimeError):
    """Raised when the integrator fails (e.g. step-size underflow)."""


@dataclass
class StateVector:
    """Normalized amplitude vector over the composite space."""

    amplitudes: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass
class Trajectory:
    """Time grid plus recorded observables.

    ``records`` maps observable names to arrays over the grid; complex
    entries keep their phase (e.g. ``sigma_minus_0``), Hermitian
    observables are stored real.  An exact run records the names of
    ``RECORD_NAMES`` for each subsystem, taken from the level populations
    and the lowering sum at its tensor slot, then ``norm`` and ``energy``.
    ``meta`` carries norm drift, top-level Fock populations and any
    warnings.  ``states`` optionally holds the full state at every grid
    point (column per time).
    """

    times: np.ndarray
    records: dict[str, np.ndarray]
    meta: dict = field(default_factory=dict)
    states: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.times)

    def observable(self, name: str) -> np.ndarray:
        if name not in self.records:
            raise KeyError(
                f"no observable {name!r}; available: {sorted(self.records)}"
            )
        return self.records[name]


def _check_grid(t_start: float, t_end: float, n_out: int, t_eval=None) -> np.ndarray:
    """The output grid, ``t_eval`` or else ``n_out`` equally spaced times from the start to ``t_end``.

    Both ends must be finite, and ``t_end`` past the start; the grid is held to the contract
    scipy's ``solve_ivp`` enforces (same errors), must be finite and not empty.  Every refusal
    is a ``ValueError`` raised before any arithmetic on the times.
    """
    for name, value in (("start time", t_start), ("t_end", t_end)):
        if not math.isfinite(value):
            raise ValueError(f"{name} {value} is not finite")
    if t_end <= t_start:
        raise ValueError(f"t_end {t_end} must exceed start time {t_start}")
    t_eval = np.linspace(t_start, t_end, n_out) if t_eval is None else np.asarray(t_eval, dtype=float)
    if t_eval.ndim != 1:
        raise ValueError("`t_eval` must be 1-dimensional.")
    if t_eval.size == 0:
        raise ValueError("the output grid holds no time")
    bad = t_eval[~np.isfinite(t_eval)]
    if bad.size:
        raise ValueError(f"`t_eval` holds the non-finite time {bad[0]}")
    if np.any(t_eval < t_start) or np.any(t_eval > t_end):
        raise ValueError("Values in `t_eval` are not within `t_span`.")
    if np.any(np.diff(t_eval) <= 0):
        raise ValueError("Values in `t_eval` are not properly sorted.")
    return t_eval


def _record_columns(dim: int) -> int:
    """State columns held at once at this dimension: RECORD_CHUNK, fewer where RECORD_BYTES binds."""
    return max(1, min(RECORD_CHUNK, RECORD_BYTES // (16 * dim)))


def _column_chunks(states: np.ndarray):
    step = _record_columns(states.shape[0])
    return (states[:, lo:lo + step] for lo in range(0, states.shape[1], step))


def _eigensystem(h: Operator) -> tuple[np.ndarray, np.ndarray]:
    """Energies and eigenvector columns of a Hermitian operator, by dense ``eigh``."""
    energies, vecs = np.linalg.eigh(h.to_dense())
    if not np.isfinite(energies).all():
        raise PropagationError("eigendecomposition returned non-finite eigenvalues")
    return energies, vecs


def _frame_chunks(energies: np.ndarray, vecs: np.ndarray, elapsed: np.ndarray, amps: np.ndarray):
    """States ``V exp(-i E tau) amps(tau)`` at the elapsed times tau, in column chunks.

    ``amps`` has one column per time: eigenbasis amplitudes in the frame that
    rotates with the energies ``E`` (a broadcast column when they are constant).
    """
    step = _record_columns(len(vecs))
    return (
        vecs @ (np.exp(-1j * np.outer(energies, elapsed[lo:lo + step])) * amps[:, lo:lo + step])
        for lo in range(0, elapsed.size, step)
    )


# Tolerances of every ODE path (the interaction frame, plain LSODA, the mean-field
# closure and the Lyapunov probe): one LSODA solve (Petzold, SIAM J. Sci. Stat.
# Comput. 4, 136 (1983); ODEPACK, as scipy's odeint) at rtol = tol / 10 and
# atol = tol / 1000; at rtol = tol the closures came out 5-8x less accurate than
# DOP853 at rtol = tol, atol = tol / 100.  Largest deviation from a tol-1e-13 DOP853
# solve of the same right-hand side at tol 1e-10, DOP853 -> LSODA, with RHS calls
# (and LSODA's steps): compare-static closure 4.8e-9, 15,737 -> 8.4e-10, 13,260
# (6,509); compare-driven frame 7.8e-11, 17,942 -> 5.2e-13, 15,185 (7,592);
# compare-driven closure 5.3e-10, 15,626 -> 5.7e-10, 13,681 (6,763); mf-chain
# closure 3.7e-10, 857 -> 6.6e-12, 639 (319).
# ml = mu = 0: where LSODA switches to its stiff method, as it does now and then on
# these oscillatory systems at tight tolerances, it builds a diagonal Jacobian from
# one RHS call instead of a dense one from n calls, and it reserves no n x n work
# array (which raised mf-chain's peak RSS by 1-2.5 MB).  386 harmonic oscillators
# to t = 10 at rtol 1e-11 (n = 772): 35,433 RHS calls dense, 6,032 diagonal.
# LSODA refuses an rtol below 100 machine epsilons ("Illegal input detected"), so
# tol must be at least 1000 of them.
TOL_MIN = 1000 * np.finfo(float).eps
# Steps LSODA may take between two output times: its default of 500 would end a
# long gap between output times (one Lyapunov interval, a coarse grid) that any
# number of steps may cross.
MAX_STEPS = 2**31 - 1


def solve_ivp(fun, t_span: tuple[float, float], y0: np.ndarray, times: np.ndarray | None, tol: float):
    """One LSODA solve of ``dy/dt = fun(t, y)`` from ``y0`` at ``t_span[0]``:
    (states, right-hand-side calls, accepted steps).

    ``states`` holds one column per output time, ``times`` or ``t_span`` when
    ``times`` is None.  A complex state is integrated as its float view.
    Every ODE path calls it through its module's name ``solve_ivp``, so that
    wrapping one module's name sees that module's solves.
    """
    if not tol >= TOL_MIN:
        raise ValueError(f"integrator tolerance {tol!r} is below {TOL_MIN:.3g} (1000 machine epsilons)")
    t_start, t_end = t_span
    grid = np.asarray(t_span if times is None else times, dtype=float)
    # odeint starts at the first time of its grid; like scipy's solve_ivp, the solve spans t_span
    lead, tail = int(grid[0] > t_start), int(grid[-1] < t_end)
    grid = np.concatenate(([t_start] * lead, grid, [t_end] * tail))
    y0 = np.ascontiguousarray(y0)
    is_complex, rhs = np.iscomplexobj(y0), fun
    if is_complex:
        y0 = y0.view(float)

        def rhs(t, y):
            return fun(t, y.view(np.complex128)).view(float)

    with warnings.catch_warnings():  # a failed solve raises PropagationError with odeint's message below
        warnings.simplefilter("ignore", ODEintWarning)
        ys, info = odeint(rhs, y0, grid, tfirst=True, full_output=True, rtol=tol / 10, atol=tol / 1000,
                          mxstep=MAX_STEPS, ml=0, mu=0)
    if info["message"] != "Integration successful.":
        raise PropagationError(f"propagation failed: {info['message']}")
    # LSODA accepts steps whose error norm is NaN, so a non-finite state ends no solve by itself
    if not np.isfinite(ys).all():
        raise PropagationError("propagation returned non-finite states")
    ys = ys[lead:grid.size - tail]
    states = ys.view(np.complex128) if is_complex else ys
    return states.T, int(info["nfe"][-1]), int(info["nst"][-1])


def _interaction_rhs(ham: TotalHamiltonian, energies: np.ndarray, vecs: np.ndarray, t_start: float):
    """d phi/dt for ``phi = exp(i E (t - t_start)) V^dag psi``, with ``H_static = V E V^dag``.

    ``-i (exp(i E tau) V^dag H(t) V exp(-i E tau) phi - E phi)``: one
    ``ham.apply`` per call, and phi moves only as fast as the
    time-dependent terms, not at the static carrier frequencies.  The
    product ``V^dag H(t) psi`` is a new array per call, so the rest is
    done in place on it.
    """
    vecs_dag = np.ascontiguousarray(vecs.conj().T)
    minus_i_energies = -1j * energies

    def rhs(t: float, phi: np.ndarray) -> np.ndarray:
        rotation = np.exp(minus_i_energies * (t - t_start))
        out = vecs_dag @ ham.apply(t, vecs @ (rotation * phi))
        # conj(rotation) * out, not out * conj(rotation): the two round apart under FMA, and LSODA's
        # call count on one resonantly driven site (criterion 07, tol 1e-10) moves by 10% with that last bit
        np.multiply(np.conjugate(rotation, out=rotation), out, out=out)
        out -= energies * phi
        out *= -1j
        return out

    return rhs


def _field_number_frame(space: SpaceIndex, ham: TotalHamiltonian) -> tuple[TotalHamiltonian, np.ndarray]:
    """``(H', d)``: the generator of the field-number frame that removes the literal coupling's phases exactly.

    With ``U(t) = exp(i t sum_k w_k N_k)`` the literal H(t) is ``U(t) H_sp(t) U(t)^dag``, ``H_sp`` the same
    model with the phase frozen at t = 0, drives included: ``exp(i theta N) a exp(-i theta N) = a
    exp(-i theta)``, and every other term commutes with ``N_k``.  So ``chi = exp(-i t d) psi``, with
    ``d = sum_k w_k (n_k + 1/2)`` per basis state, obeys ``i dchi/dt = H'(t) chi``, ``H' = H_sp + diag(d)``:
    the frozen-phase model with every field frequency doubled, time-dependent only through its drives.
    """
    params = ham.params
    doubled = tuple(replace(mode, omega=2.0 * mode.omega) for mode in params.field_modes)
    d = np.zeros([sub.dim for sub in space.subsystems])
    for k, w in enumerate(ham.model.w_field):
        slot = space.field_slot(k)
        axis = [1] * d.ndim
        axis[slot] = -1
        d += (w * (np.arange(space.subsystems[slot].dim) + 0.5)).reshape(axis)
    return TotalHamiltonian(space, replace(params, coupling_mode=STATIC_PHASE, field_modes=doubled)), d.ravel()


def _lab_chunks(chunks, d: np.ndarray, times: np.ndarray):
    """Field-number-frame states chi mapped back to ``psi = exp(i t d) chi``, in place, chunk by chunk."""
    lo = 0
    for chi in chunks:
        hi = lo + chi.shape[1]
        chi *= np.exp(1j * np.outer(d, times[lo:hi]))
        yield chi
        lo = hi


def _refuse_non_finite(ham: TotalHamiltonian) -> None:
    """Raise ``PropagationError`` on a non-finite entry or parameter, or a Gershgorin bound that overflows."""
    if not ham.is_finite():
        raise PropagationError("Hamiltonian has non-finite entries or parameters")
    if not math.isfinite(ham.gershgorin_bound()):
        raise PropagationError("Hamiltonian overflows: the Gershgorin bound of its spectrum, "
                               "the largest row sum of |H(t)|, is not finite")


def _spectral_interval(matrix) -> tuple[float, float]:
    """Centre and half-width of the Gershgorin interval of a Hermitian CSR matrix, which holds its spectrum."""
    diag = matrix.diagonal()
    radius = -np.abs(diag)
    filled = np.diff(matrix.indptr) > 0  # reduceat would give an empty row the first entry of the next one
    radius[filled] += np.add.reduceat(np.abs(matrix.data), matrix.indptr[:-1][filled])
    lo, hi = np.min(diag.real - radius), np.max(diag.real + radius)
    return 0.5 * (hi + lo), 0.5 * (hi - lo)


def _chebyshev_order(x: float) -> int:
    """Smallest k > x with ``|J_k(x)| < 2^-53``, which bounds ``|J_j(x)|`` for every j >= k.

    Beyond x, ``J_j(x)`` is positive and falls with j, so the first such k is
    found by a scan up from ``floor(x) + 1`` (about 0.07 x steps at x = 2,000).
    """
    k = math.floor(x) + 1
    while abs(jv(k, x)) >= 2.0**-53:
        k += 1
    return k


def _chebyshev_coefficients(centre: float, half_width: float, tau: np.ndarray, order: int) -> np.ndarray:
    """``(2 - delta_k0) (-i)^k J_k(R tau) exp(-i c tau)`` for k < order, one column per tau.

    These are the Chebyshev coefficients of ``exp(-i (c + R y) tau)`` on
    ``y`` in [-1, 1], taken by one type-II DCT of its samples at
    ``2 order + 16`` Chebyshev points (Bessel functions one by one cost
    about 4 us each).  One tau at a time, so that the samples of a long
    window (order in the tens of thousands) are never held all at once.
    """
    n = 2 * order + 16
    cos_theta = np.cos(np.pi * (np.arange(n) + 0.5) / n)
    coeffs = np.empty((order, tau.size), dtype=np.complex128)
    for j, x in enumerate(half_width * tau):
        coeffs[:, j] = dct(np.exp(-1j * x * cos_theta), type=2)[:order]
    coeffs[0] /= 2
    coeffs *= np.exp(-1j * centre * tau) / n
    return coeffs


def _chebyshev_sum(matrix, centre: float, half_width: float, psi: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """``sum_k coeffs[k, j] T_k((H - c) / R) psi`` for every column j, H the CSR ``matrix`` and ``c +- R`` its interval.

    The recurrence ``T_{k+1} psi = 2 (H - c) / R T_k psi - T_{k-1} psi`` runs on ``matrix`` itself, ``H v``
    formed by scipy's compiled ``csr_matvec`` into one zeroed buffer (as ``matrix @ v`` forms it, without a
    new array per product), shifted by ``-c v`` (``zaxpy``) and scaled in place, in a ring of
    ``_record_columns`` rows (at least the two that the recurrence reads), contracted with their coefficient
    rows whenever the ring is full.  Each contraction is added into the states in place, by ``zgemm`` with
    ``beta = 1`` on the transposed (Fortran-ordered) views of the C-ordered ring, coefficients and states,
    so that neither the product nor an operand is copied.
    """
    order, dim = len(coeffs), psi.size
    ring = np.empty((min(order, max(2, _record_columns(dim))), dim), dtype=np.complex128)
    size = len(ring)
    states = np.zeros((dim, coeffs.shape[1]), dtype=np.complex128)
    hv = np.empty(dim, dtype=np.complex128)
    for k in range(order):
        row = k % size
        if k == 0:
            ring[row] = psi
        else:
            v = psi if k == 1 else ring[(k - 1) % size]
            hv.fill(0.0)
            csr_matvec(dim, dim, matrix.indptr, matrix.indices, matrix.data, v, hv)
            zaxpy(v, hv, a=-centre)
            if k == 1:
                np.multiply(hv, 1.0 / half_width, out=ring[row])
            else:
                hv *= 2.0 / half_width
                np.subtract(hv, ring[(k - 2) % size], out=ring[row])
        if row == size - 1 or k == order - 1:
            # states^T += coeffs[rows]^T ring[rows]
            zgemm(1.0, coeffs[k - row:k + 1].T, ring[:row + 1].T, 1.0, states.T, trans_b=1, overwrite_c=1)
    return states


def _chebyshev_chunks(h: Operator, psi0: np.ndarray, elapsed: np.ndarray):
    """States ``exp(-i H tau) psi0`` at the elapsed times tau, in chunks of at most ``_record_columns`` columns.

    Each chunk is one window: ``H`` is mapped onto [-1, 1] by its Gershgorin
    interval ``c +- R``, and ``exp(-i H tau)`` applied to the window's start
    state (``psi0``, then the last state produced) is expanded in the
    Chebyshev polynomials of ``(H - c) / R`` (formed in each update from H
    as built), to the order that ``R`` times the window's longest tau needs.
    One recurrence serves every time in the window.  A window closes early
    where the next time would take ``R tau`` past ``CHEBYSHEV_SPAN``; where
    the next time lies further than that from the start state, the state
    hops there by expansions of ``R tau = CHEBYSHEV_SPAN`` that record nothing.
    """
    centre, half_width = _spectral_interval(h.matrix)
    # a zero-width interval means H = c: every expansion has order 1, a phase with no product
    reach = CHEBYSHEV_SPAN / half_width if half_width > 0 else math.inf
    psi, start, step, lo = psi0, 0.0, _record_columns(h.dim), 0
    while lo < elapsed.size:
        tau = elapsed[lo:lo + step] - start
        tau = tau[:np.searchsorted(tau, reach, side="right")]
        hop = not tau.size  # the next time lies beyond reach
        if hop:
            tau = np.array([reach])
        order = _chebyshev_order(half_width * tau[-1])
        states = _chebyshev_sum(h.matrix, centre, half_width, psi,
                                _chebyshev_coefficients(centre, half_width, tau, order))
        if not np.isfinite(states).all():
            raise PropagationError("Chebyshev propagation returned non-finite states")
        psi = states[:, -1].copy()
        if hop:
            start += reach
        else:
            yield states
            lo += tau.size
            start = elapsed[lo - 1]
        del states  # the next window's states are the only block held while they expand


def _slot_records(space: SpaceIndex, block: np.ndarray):
    """``(name, values)`` of the records of every subsystem, in ``RECORD_NAMES`` order.

    The basis is row-major, first subsystem most significant, so a subsystem
    of local dimension d is axis 1 of the block reshaped to (before, d,
    after, columns).  Its level populations p_m and its lowering sum
    ``sum_m sqrt(m) conj(psi_{m-1}) psi_m`` give all of its records.  Besides
    the block, the populations (half a block) and the conjugate of one level
    (at most half a block) are held at once.
    """
    populations = block.real ** 2
    populations += block.imag ** 2
    before = 1
    for sub in space.subsystems:
        shape = (before, sub.dim, -1, block.shape[1])
        pops = np.einsum("idjc->dc", populations.reshape(shape))
        levels = block.reshape(shape)
        pairs = np.array([np.einsum("ijc,ijc->c", levels[:, m - 1].conj(), levels[:, m]) for m in range(1, sub.dim)])
        lower = np.sqrt(np.arange(1, sub.dim)) @ pairs
        if sub.kind == "site":
            values = (lower, lower.conj(), pops[1] - pops[0])
        else:
            values = (lower, np.arange(sub.dim) @ pops, pops[-1])
        for prefix, value in zip(RECORD_NAMES[sub.kind], values):
            yield f"{prefix}{sub.label}", value
        before *= sub.dim


def _static_energy(matrix, block: np.ndarray) -> np.ndarray:
    """``Re <psi|H|psi>`` of every column, with ``H @ block`` the only block-sized temporary.

    The sum runs over ``Re psi Re (H psi) + Im psi Im (H psi)``, formed in the
    real and imaginary views of that product.
    """
    product = matrix @ block
    real, imag = product.real, product.imag
    real *= block.real
    imag *= block.imag
    real += imag
    return real.sum(axis=0)


def _record(chunks, space: SpaceIndex, ham: TotalHamiltonian, times: np.ndarray) -> dict[str, np.ndarray]:
    """Observables, norm and energy from consecutive column chunks of the state block.

    Each chunk is dropped before the next one is produced, and each record
    is taken in turn with at most one block-sized temporary.
    """
    parts: dict[str, list[np.ndarray]] = {}
    lo = 0
    for block in chunks:
        hi = lo + block.shape[1]
        norm = np.linalg.norm(block, axis=0)
        if ham.is_static:
            energy = _static_energy(ham.static.matrix, block)
        else:
            energy = np.array([ham.at(t).expect(psi).real for t, psi in zip(times[lo:hi], block.T)])
        for name, values in (*_slot_records(space, block), ("norm", norm), ("energy", energy)):
            parts.setdefault(name, []).append(values)
        lo = hi
        del block
    return {name: np.concatenate(values) for name, values in parts.items()}


def propagate(
    space: SpaceIndex,
    params: SystemParams,
    state: StateVector | np.ndarray,
    t_end: float,
    *,
    tol: float = 1e-10,
    n_out: int = 201,
    t_eval: np.ndarray | None = None,
    keep_states: bool = False,
    hamiltonian: TotalHamiltonian | None = None,
) -> Trajectory:
    """Evolve d psi/dt = -i H(t) psi and record observables.

    The backend follows from the input, and ``meta["backend_reason"]`` says
    why it was chosen:

    * static H, dimension at most ``SPECTRAL_MAX_DIM``: dense
      eigendecomposition (``meta["method"] == "eigh"``);
    * static H above that size, on any output grid: a Chebyshev expansion
      of ``exp(-i H tau)`` per window of output times, with tau counted
      from the last state of the window before (``"chebyshev"``).  A window
      holds at most ``_record_columns`` times and closes early where ``R
      tau`` would pass ``CHEBYSHEV_SPAN``; where the next time lies further
      than that from the window's start state, the state hops there by
      expansions of that span, which record nothing;
    * time-dependent H (literal coupling phases, classical drives) of
      dimension at most ``INTERACTION_MAX_DIM``: LSODA in the interaction
      picture of ``ham.static = V E V^dag`` (``"interaction+LSODA"``).  It
      integrates ``phi = exp(i E (t - t0)) V^dag psi``, whose right-hand
      side makes one ``ham.apply`` call, and maps phi back to psi in chunks
      of ``_record_columns`` output points;
    * time-dependent H above ``INTERACTION_MAX_DIM``: LSODA (``"LSODA"``).

    Literal coupling (``ham.model.n_phase > 0``) is first taken to the
    field-number frame ``chi = exp(-i t d) psi``, ``d = sum_k w_k (n_k +
    1/2)``, whose generator ``H'`` is the frozen-phase model with every field
    frequency doubled (:func:`_field_number_frame`), built per call.  The
    backend is chosen as above on ``H'``, from ``exp(-i t0 d) psi0``, and
    each chunk of states is mapped back by ``exp(i t d)`` before it is
    recorded with the lab ``ham``.  Without drives ``H'`` is static: the
    literal model runs ``eigh`` or Chebyshev, exact to roundoff.  With
    drives above ``INTERACTION_MAX_DIM`` the run stays in the lab frame,
    where plain LSODA meets single, not doubled, field carriers.
    ``meta["backend_reason"]`` then starts with ``"literal coupling,
    field-number frame: "``.

    Both LSODA paths evaluate the generator wherever the integrator asks for
    it, not frozen per step, and record its right-hand-side calls
    (``meta["rhs_evaluations"]``) and accepted steps (``meta["steps"]``).
    The two static paths are exact to roundoff and make neither
    (both 0).

    Parameters
    ----------
    state:
        Initial state; ``state.time`` (0 for a bare array) is the start time.
    tol:
        Tolerance of the LSODA integrator, in either frame (rtol tol / 10,
        atol tol / 1000, see :func:`solve_ivp`); at least ``TOL_MIN``.
        Unused on both static paths.
    t_eval:
        Explicit output grid, strictly increasing within ``[start, t_end]``;
        overrides ``n_out`` equally spaced points.
    keep_states:
        Store the state at every output time (needed by
        :func:`ehrenfest_check`).

    Raises
    ------
    ValueError
        When the start time, ``t_end`` or a time of ``t_eval`` is not
        finite, ``t_end`` does not exceed the start time, the output grid is
        empty, or the initial state is not normalized (a NaN amplitude
        included); on an LSODA path, when ``tol`` is below ``TOL_MIN``.
    PropagationError
        Before any backend runs, when a matrix of the Hamiltonian or a
        compiled parameter behind its coefficients is non-finite, or when
        its Gershgorin bound (``TotalHamiltonian.gershgorin_bound``, also
        of ``H'``) overflows although every entry is finite; on
        integrator failure (repeated error test failures and the like) or
        non-finite integrated states; on a non-finite spectrum, or
        non-finite states from the Chebyshev expansion.
    """
    if isinstance(state, StateVector):
        psi0, t_start = state.amplitudes, state.time
    else:
        psi0, t_start = np.asarray(state, dtype=np.complex128), 0.0
    if psi0.shape[0] != space.dim:
        raise DimensionMismatchError(
            f"state dimension {psi0.shape[0]} != space dimension {space.dim}"
        )
    times = _check_grid(t_start, t_end, n_out, t_eval)
    norm0 = np.linalg.norm(psi0)
    if not abs(norm0 - 1.0) <= 1e-10:  # also refuses a NaN amplitude
        raise ValueError(f"initial state is not normalized: |psi| = {norm0}")

    ham = hamiltonian if hamiltonian is not None else TotalHamiltonian(space, params)
    _refuse_non_finite(ham)
    # the drives keep H' time-dependent: above INTERACTION_MAX_DIM plain LSODA runs in the lab frame, where the
    # field carriers are single, not doubled, and it makes fewer calls
    driven = ham.model.phasor_rate.size > ham.model.n_phase
    in_frame = ham.model.n_phase > 0 and (not driven or space.dim <= INTERACTION_MAX_DIM)
    generator, start = ham, psi0
    if in_frame:  # H' is built here, per call: a Hamiltonian that is never propagated pays nothing for it
        generator, d = _field_number_frame(space, ham)
        _refuse_non_finite(generator)
        start = np.exp(-1j * t_start * d) * psi0
    states, rhs_evaluations, steps = None, 0, 0
    limit = SPECTRAL_MAX_DIM if generator.is_static else INTERACTION_MAX_DIM
    kind = "static" if generator.is_static else "time-dependent"
    if space.dim <= limit:
        reason = f"{kind}, dim <= {limit}"
        energies, vecs = _eigensystem(generator.static)
        phi0 = vecs.conj().T @ start
        if generator.is_static:
            method = "eigh"
            amps = np.broadcast_to(phi0[:, None], (space.dim, times.size))
        else:
            method = "interaction+LSODA"
            rhs = _interaction_rhs(generator, energies, vecs, t_start)
            amps, rhs_evaluations, steps = solve_ivp(rhs, (t_start, t_end), phi0, times, tol)
        chunks = _frame_chunks(energies, vecs, times - t_start, amps)
    elif generator.is_static:
        method, reason = "chebyshev", f"{kind}, dim > {limit}"
        chunks = _chebyshev_chunks(generator.static, start, times - t_start)
    else:
        method, reason = "LSODA", f"{kind}, dim > {limit}"
        states, rhs_evaluations, steps = solve_ivp(lambda t, psi: -1j * generator.apply(t, psi), (t_start, t_end),
                                                   start, times, tol)
        chunks = _column_chunks(states)
    if in_frame:
        chunks, reason = _lab_chunks(chunks, d, times), f"literal coupling, field-number frame: {reason}"
    if keep_states and states is None:
        states = np.concatenate(list(chunks), axis=1)
        chunks = _column_chunks(states)

    records = _record(chunks, space, ham, times)
    norm_drift = float(np.max(np.abs(records["norm"] - 1.0)))
    # the last record of a field or phonon mode is its top-level population
    max_top = max((float(np.max(records[f"{RECORD_NAMES[sub.kind][-1]}{sub.label}"]))
                   for sub in space.subsystems if sub.kind != "site"), default=0.0)
    warnings = []
    if norm_drift > NORM_DRIFT_WARNING:
        warnings.append(f"norm drift {norm_drift:.3e} exceeds {NORM_DRIFT_WARNING:.1e}")
    meta = {
        "norm_drift": norm_drift,
        "max_top_level_population": max_top,
        "truncation_flagged": max_top > TOP_LEVEL_FLAG,
        "tol": tol,
        "method": method,
        "backend_reason": reason,
        "warnings": warnings,
        "rhs_evaluations": rhs_evaluations,
        "steps": steps,
    }
    return Trajectory(
        times=times.copy(),
        records=records,
        meta=meta,
        states=states if keep_states else None,
    )


# -- operator right-hand sides ---------------------------------------------------


def field_coupling_operator(space: SpaceIndex, params: SystemParams, l: int, t: float) -> Operator:
    """The site's local field operator B_l = sum_k (q_lk a_k + a_k^dag q_lk^*).

    Classical drives enter additively as multiples of the identity.
    """
    ops = OperatorCache.for_space(space)
    b = zero(space)
    for k in range(space.n_field_modes):
        q = coupling_q(params, l, k, t)
        b = b + q * ops.a[k] + np.conj(q) * ops.a_dag[k]
    d = drive_field(params, l, t)
    if d != 0.0:
        b = b + d * identity(space)
    return b


def phonon_displacement_operator(space: SpaceIndex, params: SystemParams) -> Operator:
    """sum_q lambda_q (b_q^dag + b_q): the phonon field seen by every site."""
    ops = OperatorCache.for_space(space)
    disp = zero(space)
    for q, mode in enumerate(params.phonon_modes):
        if mode.coupling != 0.0:
            disp = disp + mode.coupling * (ops.b[q] + ops.b_dag[q])
    return disp


def heisenberg_rhs_sigma(space: SpaceIndex, params: SystemParams, l: int, t: float = 0.0) -> OpVector:
    """Operator right-hand sides of the site equations of motion.

    Components (minus, plus, z), with J the nominal exchange coupling,
    B_l the site's field operator and D = sum_q lambda_q (b^dag + b):

    * d minus/dt = -i w_l minus + i z B_l
      + i J ({z, sum_nb minus} - {minus, sum_nb z}) - 2 i D minus
    * d plus/dt  = +i w_l plus  - i z B_l
      + i J ({plus, sum_nb z} - {z, sum_nb plus}) + 2 i D plus
    * d z/dt     = 2 i (minus - plus) B_l
      + 2 i J ({minus, sum_nb plus} - {plus, sum_nb minus})

    Neighbour sums follow the boundary policy; every component equals
    ``i [H_total, .]`` exactly (tested).
    """
    ops = OperatorCache.for_space(space)
    if not 0 <= l < space.n_sites:
        raise IndexError(f"site {l} out of range")
    sig = ops.sigma[l]
    omega_l = params.omegas[l]
    b_l = field_coupling_operator(space, params, l, t)
    nb = params.neighbors(l)
    nb_minus = zero(space)
    nb_plus = zero(space)
    nb_z = zero(space)
    for w in nb:
        nb_minus = nb_minus + ops.sigma[w].minus
        nb_plus = nb_plus + ops.sigma[w].plus
        nb_z = nb_z + ops.sigma[w].z
    j = params.exchange_j

    rhs_minus = -1j * omega_l * sig.minus + 1j * (sig.z @ b_l)
    rhs_plus = 1j * omega_l * sig.plus - 1j * (sig.z @ b_l)
    rhs_z = 2j * ((sig.minus - sig.plus) @ b_l)
    if j != 0.0 and nb:
        rhs_minus = rhs_minus + (1j * j) * (anticommutator(sig.z, nb_minus) - anticommutator(sig.minus, nb_z))
        rhs_plus = rhs_plus + (1j * j) * (anticommutator(sig.plus, nb_z) - anticommutator(sig.z, nb_plus))
        rhs_z = rhs_z + (2j * j) * (anticommutator(sig.minus, nb_plus) - anticommutator(sig.plus, nb_minus))
    if params.phonon_modes:
        disp = phonon_displacement_operator(space, params)
        rhs_minus = rhs_minus + (-2j) * (disp @ sig.minus)
        rhs_plus = rhs_plus + (2j) * (disp @ sig.plus)
    return OpVector(rhs_minus, rhs_plus, rhs_z)


def heisenberg_rhs_field(
    space: SpaceIndex,
    params: SystemParams,
    k: int,
    t: float = 0.0,
) -> tuple[Operator, Operator]:
    """Right-hand sides for (a_k, a_k^dag).

    ``da/dt = -i w_k a - i sum_j (plus_j + minus_j) q_jk^*`` and the
    Hermitian conjugate.  Valid away from the Fock truncation boundary.
    """
    ops = OperatorCache.for_space(space)
    if not 0 <= k < space.n_field_modes:
        raise IndexError(f"field mode {k} out of range")
    omega_k = params.field_modes[k].omega
    source = zero(space)
    for j in range(space.n_sites):
        source = source + np.conj(coupling_q(params, j, k, t)) * ops.sigma_x[j]
    rhs_a = -1j * omega_k * ops.a[k] - 1j * source
    return rhs_a, rhs_a.dag()


def heisenberg_rhs_phonon(space: SpaceIndex, params: SystemParams, q: int) -> tuple[Operator, Operator]:
    """Right-hand sides for (b_q, b_q^dag).

    ``db/dt = -i nu_q b - i lambda_q sum_j z_j`` and the conjugate; the
    source term is diagonal.  Valid away from the truncation boundary.
    """
    ops = OperatorCache.for_space(space)
    if not 0 <= q < space.n_phonon_modes:
        raise IndexError(f"phonon mode {q} out of range")
    mode = params.phonon_modes[q]
    z_total = zero(space)
    for j in range(space.n_sites):
        z_total = z_total + ops.sigma[j].z
    rhs_b = -1j * mode.nu * ops.b[q] - 1j * mode.coupling * z_total
    return rhs_b, rhs_b.dag()


def heisenberg_commutator(space: SpaceIndex, params: SystemParams, op: Operator, t: float = 0.0) -> Operator:
    """The oracle: i [H_total(t), O]."""
    return 1j * commutator(TotalHamiltonian(space, params).at(t), op)


def bulk_projector(space: SpaceIndex) -> Operator:
    """Projector excluding the top Fock level of every bosonic mode."""
    proj = identity(space)
    for kind in ("field", "phonon"):
        for top in embed_modes(space, kind, top_level_projector_local):
            proj = proj @ (identity(space) - top)
    return proj


def projected_residual(delta: Operator, projector: Operator) -> float:
    """Max-abs residual restricted to the projector's range."""
    return (projector @ delta @ projector).max_abs()


def verify_heisenberg_identities(space: SpaceIndex, params: SystemParams, t: float = 0.0) -> dict[str, float]:
    """Residuals of every explicit right-hand side against i [H, O].

    Site-equation residuals are unprojected; field and phonon residuals are
    evaluated under the bulk projector (see module docstring).
    """
    ops = OperatorCache.for_space(space)
    ham = TotalHamiltonian(space, params)
    proj = bulk_projector(space)
    res: dict[str, float] = {}
    h_t = ham.at(t)

    def oracle(op: Operator) -> Operator:
        return 1j * commutator(h_t, op)

    for l in range(space.n_sites):
        rhs = heisenberg_rhs_sigma(space, params, l, t)
        res[f"sigma_minus_{l}"] = (rhs.minus - oracle(ops.sigma[l].minus)).max_abs()
        res[f"sigma_plus_{l}"] = (rhs.plus - oracle(ops.sigma[l].plus)).max_abs()
        res[f"sigma_z_{l}"] = (rhs.z - oracle(ops.sigma[l].z)).max_abs()
    for k in range(space.n_field_modes):
        rhs_a, rhs_adag = heisenberg_rhs_field(space, params, k, t)
        res[f"a_{k}"] = projected_residual(rhs_a - oracle(ops.a[k]), proj)
        res[f"a_dag_{k}"] = projected_residual(rhs_adag - oracle(ops.a_dag[k]), proj)
    for q in range(space.n_phonon_modes):
        rhs_b, rhs_bdag = heisenberg_rhs_phonon(space, params, q)
        res[f"b_{q}"] = projected_residual(rhs_b - oracle(ops.b[q]), proj)
        res[f"b_dag_{q}"] = projected_residual(rhs_bdag - oracle(ops.b_dag[q]), proj)
    if params.phonon_modes:
        hcp = build_hcp(space, params)
        for l in range(space.n_sites):
            for component in ("minus", "plus"):
                direct = sigma_phonon_correction(space, params, l, component=component)
                sig_op = getattr(ops.sigma[l], component)
                res[f"phonon_correction_{component}_{l}"] = (
                    direct - 1j * commutator(hcp, sig_op)
                ).max_abs()
    return res


# -- phonon corrections -----------------------------------------------------------


def memory_kernel_integral(times: np.ndarray, values: np.ndarray, nu: float, t: float) -> float:
    """Quadrature of a recorded history against the sine memory kernel.

    Computes ``int_0^t h(t') sin(nu (t - t')) dt'`` from samples
    ``(times, values)`` of ``h`` covering ``[0, t]``, via an interpolating
    cubic spline and adaptive quadrature.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.size < 2:
        raise ValueError("history needs at least two samples")
    if t < times[0] or t > times[-1] + 1e-12:
        raise ValueError(f"time {t} outside recorded history [{times[0]}, {times[-1]}]")
    # imported here: only this quadrature needs scipy.interpolate, which import chainqed would load for every process
    from scipy.interpolate import CubicSpline

    spline = CubicSpline(times, values)
    result, _ = quad(
        lambda tp: spline(tp) * math.sin(nu * (t - tp)),
        0.0,
        t,
        limit=200,
        epsabs=1e-12,
        epsrel=1e-12,
    )
    return float(result)


def sigma_phonon_correction(
    space: SpaceIndex,
    params: SystemParams,
    l: int,
    t: float = 0.0,
    *,
    component: str = "minus",
    path: str = "direct",
    history: tuple[np.ndarray, np.ndarray] | None = None,
) -> Operator:
    """Phonon contribution to the site transverse equations of motion.

    ``path='direct'`` returns the instantaneous operator term
    ``-+ 2 i sum_q lambda_q (b^dag + b) sigma_{-+}`` (minus sign for the
    lowering component), which equals ``i [H_CP, sigma_{-+}]`` exactly.

    ``path='memory'`` substitutes the formally integrated phonon operator:
    the free part keeps the initial (b, b^dag) with their phase factors,
    while the back-action becomes a retarded integral of the recorded
    total-inversion history ``sum_j <z_j>(t')`` against the sine kernel,
    evaluated by quadrature:

        -+ 2 i sum_q lambda_q [b_q e^{-i nu t} + b_q^dag e^{+i nu t}] sigma
        +- 4 i sum_q lambda_q^2 K_q(t) sigma,

    with ``K_q(t) = int_0^t sum_j <z_j>(t') sin(nu_q (t - t')) dt'``.

    Parameters
    ----------
    history:
        ``(times, values)`` with ``values`` the recorded sum of the site
        inversions; required for the memory path.
    """
    if component not in ("minus", "plus"):
        raise ValueError("component must be 'minus' or 'plus'")
    ops = OperatorCache.for_space(space)
    sig_op = getattr(ops.sigma[l], component)
    sign = -1.0 if component == "minus" else 1.0

    if path == "direct":
        disp = phonon_displacement_operator(space, params)
        return (sign * 2j) * (disp @ sig_op)
    if path != "memory":
        raise ValueError("path must be 'direct' or 'memory'")
    if history is None:
        raise ValueError("memory path requires a recorded <sigma_z> history")
    times, values = history
    correction = zero(space)
    for q, mode in enumerate(params.phonon_modes):
        if mode.coupling == 0.0:
            continue
        free = (
            np.exp(-1j * mode.nu * t) * ops.b[q]
            + np.exp(1j * mode.nu * t) * ops.b_dag[q]
        )
        correction = correction + (sign * 2j) * mode.coupling * (free @ sig_op)
        kernel = memory_kernel_integral(times, values, mode.nu, t)
        correction = correction + (-sign * 4j) * mode.coupling**2 * kernel * sig_op
    return correction


# -- compact vector form -----------------------------------------------------------


def build_g_vector(space: SpaceIndex, params: SystemParams, l: int, t: float = 0.0) -> OpVector:
    """Effective-field operator vector G_l entering the compact form.

    Components (with J_eff the effective exchange, i.e. twice the nominal
    coupling, and B_l the site field operator including classical drives):

    * minus / plus: ``-B_l - J_eff sum_nb sigma^{-+}``
    * z: ``-w_l - J_eff sum_nb sigma^z - 2 sum_q lambda_q (b^dag + b)``

    The phonon term extends the z-component so that the compact form
    reproduces the transverse phonon corrections; it drops out of the
    inversion equation, which has no phonon contribution.
    """
    ops = OperatorCache.for_space(space)
    b_l = field_coupling_operator(space, params, l, t)
    j_eff = params.effective_exchange
    g_minus = -1.0 * b_l
    g_plus = -1.0 * b_l
    g_z = -params.omegas[l] * identity(space)
    for w in params.neighbors(l):
        g_minus = g_minus - j_eff * ops.sigma[w].minus
        g_plus = g_plus - j_eff * ops.sigma[w].plus
        g_z = g_z - j_eff * ops.sigma[w].z
    if params.phonon_modes:
        g_z = g_z - 2.0 * phonon_displacement_operator(space, params)
    return OpVector(g_minus, g_plus, g_z)


def compact_rhs(
    space: SpaceIndex,
    params: SystemParams,
    l: int,
    t: float = 0.0,
    *,
    metric: tuple[float, float, float] = COMPACT_METRIC,
) -> OpVector:
    """Site equations of motion in compact form: metric . (sigma_l x G_l)."""
    sig = sigma_vector(OperatorCache.for_space(space).sigma[l])
    return generalized_cross(sig, build_g_vector(space, params, l, t)).scaled(metric)


def verify_compact_form(
    space: SpaceIndex,
    params: SystemParams,
    l: int,
    t: float = 0.0,
    *,
    metric: tuple[float, float, float] = COMPACT_METRIC,
) -> float:
    """Max componentwise residual between compact and explicit site RHS.

    With the default metric the residual is a machine-precision identity
    check; substituting the identity metric breaks the inversion component
    whenever field coupling is present (negative control).
    """
    explicit = heisenberg_rhs_sigma(space, params, l, t)
    compact = compact_rhs(space, params, l, t, metric=metric)
    return (compact - explicit).max_abs()


# -- Ehrenfest consistency ----------------------------------------------------------


@dataclass
class EhrenfestReport:
    """Outcome of a finite-difference vs expectation-of-RHS comparison."""

    observable: str
    max_deviation: float
    deviations: np.ndarray
    times: np.ndarray
    tolerance: float | None = None

    @property
    def passed(self) -> bool:
        return self.tolerance is None or self.max_deviation <= self.tolerance


def _rhs_operator_for(space: SpaceIndex, params: SystemParams, name: str, t: float) -> Operator:
    if name.startswith(("sigma_minus_", "sigma_plus_", "sigma_z_")):
        l = int(name.rsplit("_", 1)[1])
        rhs = heisenberg_rhs_sigma(space, params, l, t)
        if name.startswith("sigma_minus_"):
            return rhs.minus
        if name.startswith("sigma_plus_"):
            return rhs.plus
        return rhs.z
    if name.startswith("a_"):
        return heisenberg_rhs_field(space, params, int(name[2:]), t)[0]
    if name.startswith("b_"):
        return heisenberg_rhs_phonon(space, params, int(name[2:]))[0]
    raise KeyError(f"no equation of motion for observable {name!r}")


def ehrenfest_check(
    traj: Trajectory,
    space: SpaceIndex,
    params: SystemParams,
    observable: str,
    tolerance: float | None = None,
) -> EhrenfestReport:
    """Compare d<O>/dt (centered differences) against <RHS_O> on a trajectory.

    The trajectory must have been recorded with ``keep_states=True`` on a
    uniform grid of at least three points.  Deviations are reported at the
    interior grid times.
    """
    if traj.states is None:
        raise ValueError("trajectory was recorded without states; rerun propagate "
                         "with keep_states=True")
    if len(traj) < 3:
        raise ValueError("grid too coarse for centered differences (need >= 3 points)")
    steps = np.diff(traj.times)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise ValueError("ehrenfest_check requires a uniform time grid")
    h = steps[0]
    series = traj.observable(observable)
    fd = (series[2:] - series[:-2]) / (2.0 * h)

    static = CompiledModel(params).is_static
    rhs_op = _rhs_operator_for(space, params, observable, traj.times[0])
    expectations = np.empty(len(traj) - 2, dtype=np.complex128)
    for i in range(1, len(traj) - 1):
        if not static:
            rhs_op = _rhs_operator_for(space, params, observable, traj.times[i])
        expectations[i - 1] = rhs_op.expect(traj.states[:, i])
    deviations = np.abs(fd - expectations)
    return EhrenfestReport(
        observable=observable,
        max_deviation=float(np.max(deviations)),
        deviations=deviations,
        times=traj.times[1:-1].copy(),
        tolerance=tolerance,
    )
