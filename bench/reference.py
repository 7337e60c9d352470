"""Reference solutions that share no code with the timed path.

The exact reference rebuilds the Hamiltonian from the model's written form
(README "Conventions") with Kronecker products of local matrices and evolves
the initial state through a dense eigendecomposition, so a static run is checked against
``V exp(-i E t) V^dag psi0`` at a few checkpoint times.  The mean-field
reference integrates the closed c-number equations with a vectorized
right-hand side written here from the equations in the ``close_rhs``
docstring, at a tighter tolerance than the timed run.

Only numpy and scipy are used; nothing from ``chainqed`` is imported, so a
defect in the package cannot also appear in its reference.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.integrate import solve_ivp

SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)  # (lower, upper) order
SIGMA_PLUS = SIGMA_MINUS.T.copy()
SIGMA_Z = np.diag([-1.0, 1.0]).astype(complex)
SIGMA_X = SIGMA_MINUS + SIGMA_PLUS


def _lowering(cutoff: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, cutoff + 1, dtype=float)), k=1).astype(complex)


def _coupling(params, j: int, k: int) -> complex:
    """q_jk at t = 0: -p_j (e_k . e_Pj) E_k exp(i k r_j)."""
    mode = params.field_modes[k]
    overlap = mode.polarization_overlap[j] if mode.polarization_overlap else 1.0
    r_j = params.site_positions[j] if params.site_positions else j * params.lattice_spacing
    return -params.dipole[j] * overlap * mode.amplitude * np.exp(1j * mode.wavevector * r_j)


def _neighbours(n: int, boundary: str) -> np.ndarray:
    adj = np.zeros((n, n))
    for v in range(n - 1):
        adj[v, v + 1] = adj[v + 1, v] = 1.0
    if boundary == "periodic" and n >= 3:
        adj[0, n - 1] = adj[n - 1, 0] = 1.0
    return adj


class DenseModel:
    """Static exact model on the tensor order sites, field modes, phonon modes."""

    def __init__(self, params, field_cutoffs, phonon_cutoffs):
        if params.coupling_mode != "static_phase_at_t0" or params.drives:
            raise ValueError("the dense reference covers static Hamiltonians only")
        n = len(params.site_energies)
        self.dims = [2] * n + [c + 1 for c in field_cutoffs] + [c + 1 for c in phonon_cutoffs]
        self.n_sites, self.field_cutoffs, self.phonon_cutoffs = n, field_cutoffs, phonon_cutoffs
        self.observables = {}
        for l in range(n):
            self.observables[f"sigma_minus_{l}"] = self.embed({l: SIGMA_MINUS})
            self.observables[f"sigma_z_{l}"] = self.embed({l: SIGMA_Z})
        for k, c in enumerate(field_cutoffs):
            a = _lowering(c)
            self.observables[f"a_{k}"] = self.embed({n + k: a})
            self.observables[f"n_{k}"] = self.embed({n + k: a.conj().T @ a})
        for q, c in enumerate(phonon_cutoffs):
            b = _lowering(c)
            slot = n + len(field_cutoffs) + q
            self.observables[f"b_{q}"] = self.embed({slot: b})
            self.observables[f"nb_{q}"] = self.embed({slot: b.conj().T @ b})
        self.h = self._hamiltonian(params)
        self.observables["energy"] = self.h

    def embed(self, factors: dict[int, np.ndarray]) -> sparse.csr_matrix:
        out = sparse.identity(1, dtype=complex, format="csr")
        for slot, d in enumerate(self.dims):
            out = sparse.kron(out, factors.get(slot, sparse.identity(d)), format="csr")
        return out

    def _hamiltonian(self, params) -> sparse.csr_matrix:
        n = self.n_sites
        eye = self.embed({})
        h = 0.0 * eye
        for v, (e_low, e_up) in enumerate(params.site_energies):
            h += 0.5 * (e_up - e_low) * self.embed({v: SIGMA_Z}) + 0.5 * (e_low + e_up) * eye
        adj = _neighbours(n, params.boundary)
        for v in range(n):
            for w in range(v + 1, n):
                if adj[v, w]:
                    # The written exchange carries its Hermitian conjugate: 2 J.
                    h += 2.0 * params.exchange_j * (
                        self.embed({v: SIGMA_PLUS, w: SIGMA_MINUS})
                        + self.embed({v: SIGMA_MINUS, w: SIGMA_PLUS})
                        + 0.5 * self.embed({v: SIGMA_Z, w: SIGMA_Z})
                    )
        for k, mode in enumerate(params.field_modes):
            a = _lowering(self.field_cutoffs[k])
            h += mode.omega * (self.embed({n + k: a.conj().T @ a}) + 0.5 * eye)
            for j in range(n):
                term = _coupling(params, j, k) * self.embed({j: SIGMA_X, n + k: a})
                h += term + term.conj().T
        for q, mode in enumerate(params.phonon_modes):
            slot = n + len(self.field_cutoffs) + q
            b = _lowering(self.phonon_cutoffs[q])
            h += mode.nu * (self.embed({slot: b.conj().T @ b}) + 0.5 * eye)
            for j in range(n):
                h += mode.coupling * self.embed({slot: b + b.conj().T, j: SIGMA_Z})
        return h

    def product_state(self, local_states) -> np.ndarray:
        psi = np.ones(1, dtype=complex)
        for vec in local_states:
            psi = np.kron(psi, np.asarray(vec, dtype=complex))
        return psi / np.linalg.norm(psi)

    def expectations(self, psi0: np.ndarray, times) -> dict[str, np.ndarray]:
        """Observables at ``times`` from the dense eigendecomposition."""
        energies, vecs = np.linalg.eigh(self.h.toarray())
        coeffs = vecs.conj().T @ psi0
        states = vecs @ (np.exp(-1j * np.outer(energies, times)) * coeffs[:, None])
        out = {
            name: np.sum(states.conj() * (op @ states), axis=0)
            for name, op in self.observables.items()
        }
        out["norm"] = np.linalg.norm(states, axis=0).astype(complex)
        return out


def site_state(kind: str, theta: float = 0.0, phi: float = 0.0) -> np.ndarray:
    if kind == "ground":
        return np.array([1.0, 0.0], dtype=complex)
    if kind == "excited":
        return np.array([0.0, 1.0], dtype=complex)
    return np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)], dtype=complex)


def coherent_state(alpha: complex, cutoff: int) -> np.ndarray:
    """Truncated coherent state, renormalized on the ladder."""
    amps = np.ones(cutoff + 1, dtype=complex)
    for m in range(1, cutoff + 1):
        amps[m] = amps[m - 1] * alpha / np.sqrt(m)
    return amps / np.linalg.norm(amps)


def meanfield_reference(params, s_minus, s_z, a, b, times, tol: float = 1e-12) -> dict[str, np.ndarray]:
    """Closed mean-field equations integrated with a vectorized right-hand side.

    Returns the site, field and phonon amplitudes at ``times`` under the
    record names of a mean-field trajectory.
    """
    n, nf, nph = len(s_minus), len(a), len(b)
    omega = np.array([e_up - e_low for e_low, e_up in params.site_energies])
    adj = _neighbours(n, params.boundary)
    q0 = np.array([[_coupling(params, j, k) for k in range(nf)] for j in range(n)]).reshape(n, nf)
    literal = params.coupling_mode == "literal_time_dependent"
    w_field = np.array([m.omega for m in params.field_modes])
    nu = np.array([m.nu for m in params.phonon_modes])
    lam = np.array([m.coupling for m in params.phonon_modes])
    drive_mask = np.array(
        [[1.0 if d.sites is None or j in d.sites else 0.0 for j in range(n)] for d in params.drives]
    ).reshape(len(params.drives), n)
    drive_amp = np.array([complex(d.amplitude) for d in params.drives])
    drive_freq = np.array([d.frequency for d in params.drives])
    jx = params.exchange_j

    def rhs(t, y):
        sm = y[:n] + 1j * y[n:2 * n]
        sz = y[2 * n:3 * n]
        fa = y[3 * n:3 * n + nf] + 1j * y[3 * n + nf:3 * n + 2 * nf]
        base = 3 * n + 2 * nf
        pb = y[base:base + nph] + 1j * y[base + nph:base + 2 * nph]
        q = q0 * np.exp(-1j * w_field * t) if literal else q0
        field = 2.0 * (q @ fa).real + 2.0 * ((drive_amp * np.exp(-1j * drive_freq * t)).real @ drive_mask)
        disp = 2.0 * np.sum(lam * pb.real)
        nb_m, nb_z = adj @ sm, adj @ sz
        dsm = -1j * omega * sm + 1j * sz * field + 2j * jx * (sz * nb_m - sm * nb_z) - 2j * disp * sm
        dsz = -4.0 * sm.imag * field - 8.0 * jx * (sm * np.conj(nb_m)).imag
        da = -1j * w_field * fa - 1j * (2.0 * sm.real) @ np.conj(q)
        db = -1j * nu * pb - 1j * lam * np.sum(sz)
        return np.concatenate([dsm.real, dsm.imag, dsz, da.real, da.imag, db.real, db.imag])

    y0 = np.concatenate([np.real(s_minus), np.imag(s_minus), s_z, np.real(a), np.imag(a), np.real(b), np.imag(b)])
    times = np.asarray(times, dtype=float)
    sol = solve_ivp(rhs, (0.0, float(times[-1])), y0, method="DOP853", t_eval=times, rtol=tol, atol=tol * 1e-2)
    if not sol.success:
        raise RuntimeError(f"mean-field reference failed: {sol.message}")
    y = sol.y
    out = {}
    for l in range(n):
        out[f"sigma_minus_{l}"] = y[l] + 1j * y[n + l]
        out[f"sigma_z_{l}"] = y[2 * n + l]
    for k in range(nf):
        out[f"a_{k}"] = y[3 * n + k] + 1j * y[3 * n + nf + k]
    base = 3 * n + 2 * nf
    for q in range(nph):
        out[f"b_{q}"] = y[base + q] + 1j * y[base + nph + q]
    return out
