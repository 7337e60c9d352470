"""Spectroscopic transition operators, their algebra, and operator vectors.

Per-site operators built from the outer products of the lower state ``|a>``
and upper state ``|b>``:

* ``sigma_minus = |a><b|``  (lowers),
* ``sigma_plus  = |b><a|``  (raises),
* ``sigma_z     = |b><b| - |a><a|``,
* ``sigma_e``   (unit) and ``sigma_0`` (zero) completing the set.

Local basis order is ``(lower, upper)``, so ``sigma_z = diag(-1, +1)``.
The set is closed under commutation, anticommutation and Hermitian
conjugation, and is isomorphic to the spin-1/2 Pauli algebra extended by
the unit and zero matrices.

Operator-valued vectors live in the complex basis

    ``e_plus = (e_x + i e_y)/2``, ``e_minus = (e_x - i e_y)/2``, ``e_z``,

with the *minus* operator multiplying ``e_plus`` and vice versa (the
convention in which the z-rotation matrices are diagonal).  The
generalized cross product of two such vectors replaces every component
product by half the anticommutator; for mutually commuting components it
degenerates exactly to the classical cross product.

Normalization convention.  Evaluating the direction entries of the
determinant form geometrically gives ``e_minus x e_z = -i e_minus``,
``e_z x e_plus = -i e_plus`` and ``e_plus x e_minus = -(i/2) e_z``; with
the half-anticommutator symmetrization this fixes the component formulas
in :func:`generalized_cross` uniquely.  The diagonal metric ``diag(1,1,4)``
applied on top of this cross product (see ``dynamics.compact_rhs``)
reproduces the site equations of motion exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import (
    Operator,
    SpaceIndex,
    anticommutator,
    commutator,
    embed_local,
    identity,
    zero,
)

# Local 2x2 matrices in (lower, upper) basis order.
SIGMA_MINUS_LOCAL = np.array([[0, 1], [0, 0]], dtype=complex)
SIGMA_PLUS_LOCAL = np.array([[0, 0], [1, 0]], dtype=complex)
SIGMA_Z_LOCAL = np.array([[-1, 0], [0, 1]], dtype=complex)
SIGMA_E_LOCAL = np.eye(2, dtype=complex)
SIGMA_X_LOCAL = SIGMA_MINUS_LOCAL + SIGMA_PLUS_LOCAL

# Pauli matrices in the conventional (up, down) basis.
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI_I = np.eye(2, dtype=complex)

# Local matrices of the extended set (minus, plus, z, unit, zero), and their
# images under the isomorphism to the extended Pauli algebra.
LOCAL_IMAGES = {
    "minus": SIGMA_MINUS_LOCAL,
    "plus": SIGMA_PLUS_LOCAL,
    "z": SIGMA_Z_LOCAL,
    "unit": SIGMA_E_LOCAL,
    "zero": np.zeros((2, 2), dtype=complex),
}
PAULI_IMAGES = {
    "minus": 0.5 * (PAULI_X - 1j * PAULI_Y),
    "plus": 0.5 * (PAULI_X + 1j * PAULI_Y),
    "z": PAULI_Z,
    "unit": PAULI_I,
    "zero": np.zeros((2, 2), dtype=complex),
}

# State labels for the basic transition operators |j><m|.
_LABELS = ("a", "b")


def transition_local(j: str, m: str) -> np.ndarray:
    """Local matrix of |j><m| with j, m in {'a' (lower), 'b' (upper)}."""
    mat = np.zeros((2, 2), dtype=complex)
    mat[_LABELS.index(j), _LABELS.index(m)] = 1.0
    return mat


@dataclass(frozen=True)
class TransitionSet:
    """Per-site transition operators embedded on the full space.

    ``unit`` and ``zero`` complete the set; they are built on use, so a set
    holds no full-dimension identity or zero matrix of its own.
    """

    site: int
    space: SpaceIndex
    minus: Operator
    plus: Operator
    z: Operator

    @property
    def unit(self) -> Operator:
        return identity(self.space)

    @property
    def zero(self) -> Operator:
        return zero(self.space)

    def extended(self) -> dict[str, Operator]:
        """The closed extended set keyed by name."""
        return {
            "minus": self.minus,
            "plus": self.plus,
            "z": self.z,
            "unit": self.unit,
            "zero": self.zero,
        }


def build_transition_set(space: SpaceIndex, site: int) -> TransitionSet:
    """Embed the site's transition operators on the full space."""
    if not 0 <= site < space.n_sites:
        raise IndexError(f"site {site} out of range 0..{space.n_sites - 1}")
    slot = space.site_slot(site)
    return TransitionSet(
        site=site,
        space=space,
        minus=embed_local(space, slot, SIGMA_MINUS_LOCAL),
        plus=embed_local(space, slot, SIGMA_PLUS_LOCAL),
        z=embed_local(space, slot, SIGMA_Z_LOCAL),
    )


# -- algebra verification -----------------------------------------------------


def _expand_in_basis(mat: np.ndarray, images: dict[str, np.ndarray]) -> np.ndarray:
    """Coefficients of a 2x2 matrix in the (minus, plus, z, unit) matrices of ``images``, a basis of 2x2 matrices."""
    basis = np.stack([images[name] for name in ("minus", "plus", "z", "unit")]).reshape(4, 4)
    return np.linalg.solve(basis.T, mat.reshape(4))


@dataclass
class AlgebraReport:
    """Outcome of an exhaustive algebra check (residuals, not exceptions)."""

    max_residual: float
    failures: list[str]

    @property
    def passed(self) -> bool:
        return not self.failures


def check_algebra_closure(ts: TransitionSet, tol: float = 1e-13) -> AlgebraReport:
    """Verify the transition-operator algebra at one site.

    Checks, on the full embedded space:

    * all 16 commutators of the basic operators |j><m| against
      ``[s^{lm}, s^{pq}] = s^{lq} d_mp - s^{pm} d_ql``,
    * the three named relations ``[minus, z] = 2 minus``,
      ``[z, plus] = 2 plus``, ``[plus, minus] = z``,
    * closure of the extended set under anticommutation and Hermitian
      conjugation (results expanded in the set's span).
    """
    failures: list[str] = []
    max_res = 0.0

    basic_local = {(j, m): transition_local(j, m) for j in _LABELS for m in _LABELS}

    # Any local 2x2 matrix decomposes exactly in the stored embedded set:
    # |a><b| = minus, |b><a| = plus, diag terms via (unit -+ z)/2.
    def embed_like(local: np.ndarray) -> Operator:
        return (
            local[0, 1] * ts.minus
            + local[1, 0] * ts.plus
            + 0.5 * (local[1, 1] - local[0, 0]) * ts.z
            + 0.5 * (local[1, 1] + local[0, 0]) * ts.unit
        )

    embedded = {lm: embed_like(mat) for lm, mat in basic_local.items()}

    for (l, m), op_lm in embedded.items():
        for (p, q), op_pq in embedded.items():
            expected_local = np.zeros((2, 2), dtype=complex)
            if m == p:
                expected_local += transition_local(l, q)
            if q == l:
                expected_local -= transition_local(p, m)
            res = (commutator(op_lm, op_pq) - embed_like(expected_local)).max_abs()
            max_res = max(max_res, res)
            if res > tol:
                failures.append(f"commutator [{l}{m},{p}{q}] residual {res:.3e}")

    named = [
        (commutator(ts.minus, ts.z) - 2.0 * ts.minus, "[minus,z]=2minus"),
        (commutator(ts.z, ts.plus) - 2.0 * ts.plus, "[z,plus]=2plus"),
        (commutator(ts.plus, ts.minus) - ts.z, "[plus,minus]=z"),
    ]
    for op, label in named:
        res = op.max_abs()
        max_res = max(max_res, res)
        if res > tol:
            failures.append(f"{label} residual {res:.3e}")

    # Commutation, anticommutation and conjugation closure of the extended
    # set (unit and zero included, so [unit, X] = 0 is exercised too).
    ext = ts.extended()

    for na, op_a in ext.items():
        for nb, op_b in ext.items():
            for sign, bracket, label in ((-1.0, commutator, "commutator"),
                                         (+1.0, anticommutator, "anticommutator")):
                target = (
                    LOCAL_IMAGES[na] @ LOCAL_IMAGES[nb]
                    + sign * LOCAL_IMAGES[nb] @ LOCAL_IMAGES[na]
                )
                res = (bracket(op_a, op_b) - embed_like(target)).max_abs()
                max_res = max(max_res, res)
                if res > tol:
                    failures.append(f"{label} ({na},{nb}) not in span ({res:.3e})")
        res = (op_a.dag() - embed_like(LOCAL_IMAGES[na].conj().T)).max_abs()
        max_res = max(max_res, res)
        if res > tol:
            failures.append(f"adjoint of {na} not in span ({res:.3e})")

    return AlgebraReport(max_residual=max_res, failures=failures)


def pauli_image(name: str) -> np.ndarray:
    """Image of a transition operator under the Pauli-algebra isomorphism."""
    return PAULI_IMAGES[name]


def check_pauli_isomorphism(ts: TransitionSet, tol: float = 1e-13) -> AlgebraReport:
    """Verify that the map to the extended Pauli algebra preserves structure.

    For every pair in the extended set, the commutator and anticommutator
    are expanded in the transition basis and in the Pauli-image basis; the
    structure constants must coincide.
    """
    local, pauli = LOCAL_IMAGES, PAULI_IMAGES
    failures: list[str] = []
    max_res = 0.0
    for na in local:
        for nb in local:
            for sign, kind in ((-1.0, "comm"), (+1.0, "anti")):
                ours = local[na] @ local[nb] + sign * local[nb] @ local[na]
                theirs = pauli[na] @ pauli[nb] + sign * pauli[nb] @ pauli[na]
                res = float(np.max(np.abs(_expand_in_basis(ours, local) - _expand_in_basis(theirs, pauli))))
                max_res = max(max_res, res)
                if res > tol:
                    failures.append(
                        f"structure constants differ for {kind}({na},{nb}): {res:.3e}"
                    )
    # Spot checks on the embedded operators: (sigma_z)^2 = unit and
    # minus+plus maps to Pauli X.
    res = (ts.z @ ts.z - ts.unit).max_abs()
    max_res = max(max_res, res)
    if res > tol:
        failures.append(f"z^2 != unit ({res:.3e})")
    res = float(np.max(np.abs(pauli["minus"] + pauli["plus"] - PAULI_X)))
    max_res = max(max_res, res)
    if res > tol:
        failures.append(f"minus+plus does not map to Pauli X ({res:.3e})")
    return AlgebraReport(max_residual=max_res, failures=failures)


# -- operator-valued vectors ---------------------------------------------------


@dataclass(frozen=True)
class OpVector:
    """Operator triple on the (e_plus, e_minus, e_z) basis.

    ``minus`` multiplies ``e_plus`` and ``plus`` multiplies ``e_minus``,
    matching the site vector convention.
    """

    minus: Operator
    plus: Operator
    z: Operator

    def __post_init__(self):
        if not (self.minus.dim == self.plus.dim == self.z.dim):
            raise ValueError("OpVector components live on different spaces")

    @property
    def dim(self) -> int:
        return self.minus.dim

    def __add__(self, other: "OpVector") -> "OpVector":
        return OpVector(self.minus + other.minus, self.plus + other.plus, self.z + other.z)

    def __sub__(self, other: "OpVector") -> "OpVector":
        return OpVector(self.minus - other.minus, self.plus - other.plus, self.z - other.z)

    def scaled(self, factors) -> "OpVector":
        """Componentwise scaling, e.g. by a diagonal metric (m, p, z)."""
        fm, fp, fz = factors
        return OpVector(fm * self.minus, fp * self.plus, fz * self.z)

    def max_abs(self) -> float:
        return max(self.minus.max_abs(), self.plus.max_abs(), self.z.max_abs())

    def to_cartesian(self) -> tuple[Operator, Operator, Operator]:
        """Components on (e_x, e_y, e_z): output-time transform."""
        vx = 0.5 * (self.minus + self.plus)
        vy = 0.5j * (self.minus - self.plus)
        return vx, vy, self.z


def sigma_vector(ts: TransitionSet) -> OpVector:
    """The site vector (minus, plus, z) as an :class:`OpVector`."""
    return OpVector(ts.minus, ts.plus, ts.z)


def symmetrized_product(a: Operator, b: Operator) -> Operator:
    """Half the anticommutator; equals the plain product for commuting inputs.

    Single source of truth for the symmetrization used by both the
    generalized cross product and the mean-field closure (where it becomes
    the product of expectations).
    """
    return 0.5 * anticommutator(a, b)


def generalized_cross(a: OpVector, b: OpVector) -> OpVector:
    """Cross product of operator vectors with symmetrized component products.

    Determinant expansion on the (e_plus, e_minus, e_z) basis with the
    direction entries evaluated geometrically (see module docstring);
    every product of two components is ``{x, y}/2``.  With all six
    components proportional to the identity this is exactly the classical
    cross product, and the result is independent of operand component
    ordering.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    sp = symmetrized_product
    c_minus = 1j * (sp(a.minus, b.z) - sp(a.z, b.minus))
    c_plus = -1j * (sp(a.plus, b.z) - sp(a.z, b.plus))
    c_z = -0.5j * (sp(a.minus, b.plus) - sp(a.plus, b.minus))
    return OpVector(c_minus, c_plus, c_z)


# Diagonal metric entering the compact form of the site equations of motion,
# ordered (minus, plus, z).
COMPACT_METRIC = (1.0, 1.0, 4.0)
