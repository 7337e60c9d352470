"""Truncated tensor-product Hilbert space and operator embedding.

The composite space is an ordered product of subsystems: first the two-level
sites (dimension 2 each), then the quantized field modes, then the phonon
modes.  Bosonic modes are hard-truncated Fock ladders: a mode declared with
``cutoff = m`` keeps the levels ``|0> .. |m>`` (local dimension ``m + 1``).
Basis states are enumerated in row-major (mixed-radix) order with the first
subsystem most significant: the order of the Kronecker product of the
local factors, which :func:`embed_terms` writes out by index arithmetic on
the slot strides and :func:`product_state` takes for states.

Operators are sparse complex CSR arrays held by :class:`Operator`, which
carries the algebra used throughout the package (products, adjoints,
commutators, anticommutators) on scipy's compiled sparse kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

DEFAULT_DIMENSION_CAP = 2**20

# Hermiticity tolerance for operators flagged as Hermitian.
HERMITICITY_TOL = 1e-12


class SpaceTooLargeError(ValueError):
    """Raised when the composite dimension exceeds the configured cap."""


class DimensionMismatchError(ValueError):
    """Raised when operators or states of incompatible dimension are combined."""


@dataclass(frozen=True)
class ModeSpec:
    """Fock truncation of one bosonic mode (local dimension ``cutoff + 1``)."""

    cutoff: int

    def __post_init__(self):
        if self.cutoff < 1:
            raise ValueError(f"mode cutoff must be >= 1, got {self.cutoff}")


@dataclass(frozen=True)
class SpaceSpec:
    """Declaration of the composite space: sites plus bosonic modes."""

    n_sites: int
    field_modes: tuple[ModeSpec, ...] = ()
    phonon_modes: tuple[ModeSpec, ...] = ()

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError(f"n_sites must be >= 1, got {self.n_sites}")
        object.__setattr__(self, "field_modes", tuple(self.field_modes))
        object.__setattr__(self, "phonon_modes", tuple(self.phonon_modes))

    @property
    def dimension(self) -> int:
        dim = 2**self.n_sites
        for mode in self.field_modes:
            dim *= mode.cutoff + 1
        for mode in self.phonon_modes:
            dim *= mode.cutoff + 1
        return dim

    def check_dimension(self) -> int:
        """The dimension; ``SpaceTooLargeError`` if it exceeds ``DEFAULT_DIMENSION_CAP``."""
        dim = self.dimension
        if dim > DEFAULT_DIMENSION_CAP:
            raise SpaceTooLargeError(
                f"space too large: dimension {dim} exceeds cap {DEFAULT_DIMENSION_CAP}"
            )
        return dim


@dataclass(frozen=True)
class Subsystem:
    """One tensor factor: ``kind`` is 'site', 'field' or 'phonon'."""

    kind: str
    label: int
    dim: int


@dataclass(frozen=True)
class SpaceIndex:
    """Indexed composite space with mixed-radix basis bookkeeping.

    Attributes
    ----------
    subsystems:
        Ordered tensor factors (sites, then field modes, then phonon modes).
    dim:
        Total dimension, product of the local dimensions.
    """

    subsystems: tuple[Subsystem, ...]
    dim: int
    _strides: tuple[int, ...] = field(repr=False, default=())

    @property
    def n_sites(self) -> int:
        return sum(1 for s in self.subsystems if s.kind == "site")

    @property
    def n_field_modes(self) -> int:
        return sum(1 for s in self.subsystems if s.kind == "field")

    @property
    def n_phonon_modes(self) -> int:
        return sum(1 for s in self.subsystems if s.kind == "phonon")

    def slot(self, kind: str, label: int) -> int:
        """Position of a subsystem in the tensor order."""
        for pos, sub in enumerate(self.subsystems):
            if sub.kind == kind and sub.label == label:
                return pos
        raise IndexError(f"no subsystem {kind}[{label}] in space")

    def site_slot(self, site: int) -> int:
        return self.slot("site", site)

    def field_slot(self, mode: int) -> int:
        return self.slot("field", mode)

    def phonon_slot(self, mode: int) -> int:
        return self.slot("phonon", mode)

    def index_to_occupation(self, index: int) -> tuple[int, ...]:
        """Decompose a basis index into per-subsystem occupations."""
        if not 0 <= index < self.dim:
            raise IndexError(f"basis index {index} out of range 0..{self.dim - 1}")
        occ = []
        for sub, stride in zip(self.subsystems, self._strides):
            occ.append((index // stride) % sub.dim)
        return tuple(occ)

    def occupation_to_index(self, occupation) -> int:
        """Inverse of :meth:`index_to_occupation` (exact round trip)."""
        if len(occupation) != len(self.subsystems):
            raise DimensionMismatchError(
                f"occupation tuple has {len(occupation)} entries, "
                f"space has {len(self.subsystems)} subsystems"
            )
        index = 0
        for occ, sub, stride in zip(occupation, self.subsystems, self._strides):
            if not 0 <= occ < sub.dim:
                raise IndexError(f"occupation {occ} out of range for {sub}")
            index += occ * stride
        return index


def build_space(spec: SpaceSpec) -> SpaceIndex:
    """Construct the indexed composite space for a :class:`SpaceSpec`.

    Raises
    ------
    SpaceTooLargeError
        If the total dimension exceeds ``DEFAULT_DIMENSION_CAP``.
    """
    dim = spec.check_dimension()
    subsystems = [Subsystem("site", i, 2) for i in range(spec.n_sites)]
    subsystems += [
        Subsystem("field", k, m.cutoff + 1) for k, m in enumerate(spec.field_modes)
    ]
    subsystems += [
        Subsystem("phonon", q, m.cutoff + 1) for q, m in enumerate(spec.phonon_modes)
    ]
    # Row-major strides: first subsystem most significant.
    strides = []
    run = dim
    for sub in subsystems:
        run //= sub.dim
        strides.append(run)
    return SpaceIndex(tuple(subsystems), dim, tuple(strides))


_INDEX_MAX = np.iinfo(np.int32).max


def _index(*sizes: int) -> type:
    """int32 where every size fits it, else int64."""
    return np.int32 if max(sizes) <= _INDEX_MAX else np.int64


def _kernel_index(a: "Operator", b: "Operator", bound: int = 0) -> type:
    """Index dtype of a kernel call on ``a`` and ``b``: int64 where an operand or ``bound`` needs it, as scipy picks it."""
    if a.indptr.dtype != np.int32 or b.indptr.dtype != np.int32:
        return np.int64
    return _index(bound)


def _trimmed(array: np.ndarray, size: int) -> np.ndarray:
    """``array[:size]``, copied when that is under half of it, as scipy trims a result."""
    if size == array.size:
        return array
    return array[:size].copy() if size < array.size // 2 else array[:size]


def _outputs(dim: int, size: int, index: type) -> tuple:
    """Empty ``indptr``, ``indices`` and ``data`` for a kernel to fill with at most ``size`` entries."""
    return np.empty(dim + 1, dtype=index), np.empty(size, dtype=index), np.empty(size, dtype=np.complex128)


def _result(dim: int, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray) -> "Operator":
    """The operator of kernel output arrays sized for a bound: trimmed to its entries, indices int32 where they fit.

    scipy takes that index dtype from the whole output it allocated, so an unused tail of uninitialized memory
    can keep int64 indices there; here it follows from the entries written.
    """
    nnz = int(indptr[-1])
    indices, data = _trimmed(indices, nnz), _trimmed(data, nnz)
    if indptr.dtype != np.int32 and _index(dim, nnz) == np.int32:
        indptr, indices = indptr.astype(np.int32), indices.astype(np.int32)
    return Operator._of(dim, indptr, indices, data)


class Operator:
    """Sparse complex operator on a composite space, held as CSR arrays.

    ``indptr``, ``indices`` and ``data`` are the CSR arrays; they are never
    written after construction, and results that keep an operand's sparsity
    (negation, scalar multiples) share its index arrays.  ``+``, ``-``, ``@``
    and :meth:`dag` call scipy's compiled kernels in
    ``scipy.sparse._sparsetools`` directly (``csr_plus_csr``,
    ``csr_minus_csr``, ``csr_matmat_maxnnz`` with ``csr_matmat``, and
    ``csr_tocsc`` for the transpose), and a scalar multiple scales ``data``.
    The operators of ``csr_matrix`` call the same kernels through a Python
    wrapper, which added 23-75 us to each operation at dim 1456 (about as
    much as the kernels take; ``timeit`` on a 2-vCPU x86 box), and the
    equation-of-motion checks make thousands of operations.  The arrays are
    the ones scipy's own operators give, bit for bit: the same kernel calls,
    the zeros that ``+`` and ``-`` produce dropped by the kernel, arrays
    trimmed as scipy trims them, and int32 indices unless the dimension or
    the entry count needs int64 (``tests/test_hilbert.py`` pins this against
    scipy).  :attr:`matrix` builds the ``csr_matrix`` on the
    same arrays when it is first read, and keeps it.  Instances are immutable
    by convention and safe to share across workers.
    """

    __slots__ = ("dim", "indptr", "indices", "data", "_matrix")
    __array_ufunc__ = None  # numpy scalars and arrays leave ``*`` to Operator, which takes scalars only

    def __init__(self, matrix):
        if not (isinstance(matrix, sparse.csr_matrix) and matrix.dtype == np.complex128):
            matrix = sparse.csr_matrix(matrix, dtype=np.complex128)
        if matrix.shape[0] != matrix.shape[1]:
            raise DimensionMismatchError(f"operator must be square, got {matrix.shape}")
        self.dim = matrix.shape[0]
        self.indptr, self.indices, self.data = matrix.indptr, matrix.indices, matrix.data
        self._matrix = matrix

    @classmethod
    def _of(cls, dim: int, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray) -> "Operator":
        op = cls.__new__(cls)
        op.dim, op.indptr, op.indices, op.data, op._matrix = dim, indptr, indices, data, None
        return op

    @property
    def matrix(self) -> sparse.csr_matrix:
        """The operator as ``scipy.sparse.csr_matrix`` on the same arrays, built on first read."""
        if self._matrix is None:
            self._matrix = sparse.csr_matrix((self.data, self.indices, self.indptr), shape=(self.dim, self.dim))
        return self._matrix

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Operator"):
        if self.dim != other.dim:
            raise DimensionMismatchError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def _arrays(self, index: type) -> tuple:
        return self.indptr.astype(index, copy=False), self.indices.astype(index, copy=False), self.data

    def _elementwise(self, other: "Operator", kernel) -> "Operator":
        self._check(other)
        bound = self.data.size + other.data.size
        index = _kernel_index(self, other, bound)
        indptr, indices, data = _outputs(self.dim, bound, index)
        kernel(self.dim, self.dim, *self._arrays(index), *other._arrays(index), indptr, indices, data)
        return _result(self.dim, indptr, indices, data)

    def __add__(self, other: "Operator") -> "Operator":
        return self._elementwise(other, _sparsetools.csr_plus_csr)

    def __sub__(self, other: "Operator") -> "Operator":
        return self._elementwise(other, _sparsetools.csr_minus_csr)

    def __neg__(self) -> "Operator":
        return _result(self.dim, self.indptr, self.indices, -self.data)

    def __mul__(self, scalar) -> "Operator":
        if not np.isscalar(scalar):
            return NotImplemented
        return _result(self.dim, self.indptr, self.indices, self.data * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check(other)
        dim, index = self.dim, _kernel_index(self, other)
        bound = _sparsetools.csr_matmat_maxnnz(dim, dim, *self._arrays(index)[:2], *other._arrays(index)[:2])
        if bound == 0:
            return _zero(dim)
        index = _kernel_index(self, other, bound)
        indptr, indices, data = _outputs(dim, bound, index)
        _sparsetools.csr_matmat(dim, dim, *self._arrays(index), *other._arrays(index), indptr, indices, data)
        return _result(dim, indptr, indices, data)

    def dag(self) -> "Operator":
        """Hermitian adjoint: the transpose by ``csr_tocsc``, then conjugated in place."""
        dim, nnz = self.dim, self.data.size
        index = _index(dim, nnz)
        indptr, indices, data = _outputs(dim, nnz, index)
        _sparsetools.csr_tocsc(dim, dim, *self._arrays(index), indptr, indices, data)
        np.conjugate(data, out=data)
        return Operator._of(dim, indptr, indices, data)

    # -- queries ------------------------------------------------------------

    def max_abs(self) -> float:
        """Largest absolute matrix entry (zero for the empty matrix)."""
        if self.data.size == 0:
            return 0.0
        return float(np.max(np.abs(self.data)))

    def hermiticity_defect(self) -> float:
        return (self - self.dag()).max_abs()

    def is_hermitian(self) -> bool:
        return self.hermiticity_defect() <= HERMITICITY_TOL

    def expect(self, psi: np.ndarray) -> complex:
        """Expectation value <psi|A|psi> (no normalization applied)."""
        if psi.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"state dimension {psi.shape[0]} != operator dimension {self.dim}"
            )
        return complex(np.vdot(psi, self.matrix @ psi))

    def apply(self, psi: np.ndarray) -> np.ndarray:
        return self.matrix @ psi

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def __repr__(self) -> str:
        return f"Operator(dim={self.dim}, nnz={self.data.size})"


def _zero(dim: int) -> Operator:
    index = _index(dim)
    return Operator._of(dim, np.zeros(dim + 1, dtype=index), np.zeros(0, dtype=index), np.zeros(0, dtype=np.complex128))


def identity(space: SpaceIndex) -> Operator:
    """The identity, with the arrays of ``sparse.identity(dim, format="csr")``."""
    dim, index = space.dim, _index(space.dim)
    return Operator._of(dim, np.arange(dim + 1, dtype=index), np.arange(dim, dtype=index),
                        np.ones(dim, dtype=np.complex128))


def zero(space: SpaceIndex) -> Operator:
    return _zero(space.dim)


def commutator(a: Operator, b: Operator) -> Operator:
    """[A, B] = AB - BA."""
    return a @ b - b @ a


def anticommutator(a: Operator, b: Operator) -> Operator:
    """{A, B} = AB + BA."""
    return a @ b + b @ a


def _local_factor(space: SpaceIndex, subsystem: int, local) -> np.ndarray:
    """A local operator as a dense complex matrix, checked against its tensor slot."""
    if not 0 <= subsystem < len(space.subsystems):
        raise IndexError(f"subsystem slot {subsystem} out of range")
    sub = space.subsystems[subsystem]
    local = np.asarray(local.toarray() if sparse.issparse(local) else local, dtype=np.complex128)
    if local.shape != (sub.dim, sub.dim):
        raise DimensionMismatchError(
            f"local operator shape {local.shape} does not match subsystem "
            f"{sub.kind}[{sub.label}] of dimension {sub.dim}"
        )
    return local


def _fold(space: SpaceIndex, terms, grid: np.ndarray, patterns: dict) -> np.ndarray | None:
    """The folded diagonal of ``terms`` (None if none is diagonal); their other entries go to ``patterns``."""
    diagonal = None
    for term in terms:
        part = _fold(space, term, grid, patterns) if isinstance(term, list) else _add(space, *term, grid, patterns)
        if part is None:
            continue
        if diagonal is None:
            diagonal = np.zeros(grid.shape, dtype=np.complex128)
        diagonal += part
    return diagonal


def _add(space: SpaceIndex, coefficient, factors: dict, grid: np.ndarray, patterns: dict):
    """One term: its diagonal values when every factor is diagonal, else None after adding it to ``patterns``."""
    dims = grid.shape
    factors = {slot: _local_factor(space, slot, local) for slot, local in sorted(factors.items())}
    moving = [s for s, m in factors.items() if np.count_nonzero(m) > np.count_nonzero(np.diagonal(m))]
    if not moving:
        value = coefficient
        for slot, m in factors.items():
            value = value * np.diagonal(m).reshape([-1 if s == slot else 1 for s in range(len(dims))])
        return value
    axes = [s for s in range(len(dims)) if s not in moving]  # the axes ``base`` runs over
    row, col, val, key = np.zeros(1, grid.dtype), np.zeros(1, grid.dtype), np.full(1, coefficient, np.complex128), []
    for slot in moving:
        r, c = np.nonzero(factors[slot])
        row = np.add.outer(row, (r * space._strides[slot]).astype(grid.dtype)).ravel()
        col = np.add.outer(col, (c * space._strides[slot]).astype(grid.dtype)).ravel()
        val = np.multiply.outer(val, factors[slot][r, c]).ravel()
        key.append((slot, r.tobytes(), c.tobytes()))
    values = val
    for slot in factors:
        if slot not in moving:
            values = values * np.diagonal(factors[slot]).reshape([-1 if s == slot else 1 for s in axes] + [1])
    values = np.broadcast_to(values, [dims[s] for s in axes] + [val.size]).reshape(-1, val.size)
    key = tuple(key)
    if key in patterns:
        patterns[key][3] = patterns[key][3] + values
    else:
        base = grid[tuple(0 if s in moving else slice(None) for s in range(len(dims)))].ravel()
        patterns[key] = [base, row, col, values]
    return None


def _csr(dim: int, parts: list) -> sparse.csr_matrix:
    """Canonical CSR of the entries ``(base + rows[k], base + cols[k]): values[:, k]`` of every part.

    Each part is written straight into its rows' slots and released, so that
    no index array over all entries exists besides the CSR's own.  Within a
    part, two entries share a row only where they share their base and their
    local row, and ``rows`` never falls (``_add`` takes the local entries
    row-major, most significant slot first), so a row meets them in the
    order of k; the parts follow one another.  That is the order in which a
    COO conversion of the parts' concatenation (each raveled base by base)
    leaves every row, so repeated entries sum in the same order.
    """
    counts = np.zeros(dim + 1, dtype=np.int64)
    for base, rows, _, _ in parts:
        counts[1:] += np.bincount(np.add.outer(base, rows).ravel(), minlength=dim)
    total = int(np.sum(counts))
    index = _index(dim, total)
    indptr = np.cumsum(counts, dtype=index)
    indices = np.empty(total, dtype=index)
    data = np.empty(total, dtype=np.complex128)
    free = indptr[:-1].copy()  # the next open slot of each row
    while parts:
        base, rows, cols, values = parts.pop(0)
        at = np.add.outer(base, rows)
        slots = free[at] + (np.arange(rows.size, dtype=index) - np.searchsorted(rows, rows))
        indices[slots] = np.add.outer(base, cols)
        data[slots] = values
        free += np.bincount(at.ravel(), minlength=dim).astype(index, copy=False)
        del base, rows, cols, values, at, slots
    matrix = sparse.csr_matrix((data, indices, indptr), shape=(dim, dim))
    matrix.sum_duplicates()
    return matrix


def embed_terms(space: SpaceIndex, terms) -> Operator:
    """``sum_i c_i (x)_s L_is`` as canonical CSR, one term ``(c, {slot: L})`` at a time.

    A term is its coefficient times the product of its local factors, each at
    its tensor slot, with the identity at every other slot.  The sum is built
    by index arithmetic on the slot strides.  A term whose factors are all
    diagonal is folded, in the given order, into one diagonal shaped by the
    subsystem dimensions.  Any other term gives ``base + local offset``
    entries from its off-diagonal factors, ``base`` running over the basis
    states at level 0 of their slots, and its diagonal factors scale the
    values along ``base``; terms with the same off-diagonal pattern add their
    values in the given order.  The patterns and the diagonal are written
    into one CSR (:func:`_csr`), which sums what is left of duplicate entries;
    exact zeros are dropped.  The build holds the patterns' values and the
    CSR at once, but no index array over all entries: a 20-site chain's
    (11.0 M entries, 214 MiB of CSR) raises peak RSS by 296 MB.

    An entry of ``terms`` that is a list is a group: its diagonal is folded
    from zero on its own and then added, so the diagonal rounds as a sum of
    separately built operators does.
    """
    index = _index(space.dim)
    grid = np.arange(space.dim, dtype=index).reshape([sub.dim for sub in space.subsystems])
    patterns: dict[tuple, list] = {}  # off-diagonal pattern: [base, local rows, local cols, values]
    with np.errstate(over="ignore", invalid="ignore"):  # callers check the result for non-finite entries
        diagonal = _fold(space, terms, grid, patterns)
    parts = list(patterns.values())
    patterns.clear()
    if diagonal is not None:
        at = np.flatnonzero(diagonal).astype(index)
        parts.append([at, np.zeros(1, index), np.zeros(1, index), diagonal.ravel()[at, None]])
        del diagonal
    matrix = _csr(space.dim, parts)
    matrix.eliminate_zeros()
    return Operator(matrix)


def embed_local(space: SpaceIndex, subsystem: int, local) -> Operator:
    """Embed a local operator at one tensor slot: I x .. x local x .. x I.

    Parameters
    ----------
    subsystem:
        Position in the declared subsystem order (see :meth:`SpaceIndex.slot`).
    local:
        Square matrix whose dimension matches the subsystem's local dimension.
    """
    return embed_terms(space, [(1.0, {subsystem: local})])


def embed_modes(space: SpaceIndex, kind: str, local) -> list[Operator]:
    """``local(cutoff)`` embedded at every mode of one kind ('field' or 'phonon'), in mode order."""
    return [embed_local(space, pos, local(sub.dim - 1))
            for pos, sub in enumerate(space.subsystems) if sub.kind == kind]


# -- local bosonic operators -------------------------------------------------


def annihilation_local(cutoff: int) -> np.ndarray:
    """Truncated annihilation operator: sqrt(m) on the superdiagonal."""
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    return np.diag(np.sqrt(np.arange(1, cutoff + 1, dtype=float)), k=1).astype(complex)


def creation_local(cutoff: int) -> np.ndarray:
    return annihilation_local(cutoff).conj().T


def number_local(cutoff: int) -> np.ndarray:
    return np.diag(np.arange(cutoff + 1, dtype=float)).astype(complex)


def top_level_projector_local(cutoff: int) -> np.ndarray:
    """|m><m| on the truncated ladder; monitors leakage into the top level."""
    proj = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    proj[cutoff, cutoff] = 1.0
    return proj


# -- state constructors -------------------------------------------------------


def site_local_state(kind: str = "ground", theta: float = 0.0, phi: float = 0.0) -> np.ndarray:
    """Local two-level state.

    ``ground``) the lower state, ``excited``) the upper state, ``angles``)
    cos(theta/2)|lower> + e^{i phi} sin(theta/2)|upper>.
    """
    if kind == "ground":
        return np.array([1.0, 0.0], dtype=complex)
    if kind == "excited":
        return np.array([0.0, 1.0], dtype=complex)
    if kind == "angles":
        return np.array(
            [np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)], dtype=complex
        )
    raise ValueError(f"unknown site state kind {kind!r}")


def fock_local(n: int, cutoff: int) -> np.ndarray:
    if not 0 <= n <= cutoff:
        raise ValueError(f"Fock level {n} outside truncation 0..{cutoff}")
    vec = np.zeros(cutoff + 1, dtype=complex)
    vec[n] = 1.0
    return vec


def coherent_local(alpha: complex, cutoff: int) -> np.ndarray:
    """Coherent state truncated to the ladder and renormalized.

    The truncation error is the dropped Poisson tail; callers should keep
    ``cutoff`` well above ``|alpha|^2`` (the propagator monitors the top
    level population).
    """
    if alpha == 0:
        return fock_local(0, cutoff)
    n = np.arange(cutoff + 1)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, cutoff + 1)))))
    amps = np.exp(n * np.log(complex(alpha)) - 0.5 * log_fact)
    amps /= np.linalg.norm(amps)
    return amps


def product_state(space: SpaceIndex, local_states) -> np.ndarray:
    """Kronecker product of per-subsystem local states, normalized."""
    if len(local_states) != len(space.subsystems):
        raise DimensionMismatchError(
            f"need {len(space.subsystems)} local states, got {len(local_states)}"
        )
    psi = np.array([1.0], dtype=complex)
    for vec, sub in zip(local_states, space.subsystems):
        vec = np.asarray(vec, dtype=complex)
        if vec.shape != (sub.dim,):
            raise DimensionMismatchError(
                f"local state of shape {vec.shape} does not match {sub}"
            )
        psi = np.kron(psi, vec)
    norm = np.linalg.norm(psi)
    if norm == 0:
        raise ValueError("product state has zero norm")
    return psi / norm
