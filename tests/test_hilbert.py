import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import sparse

from chainqed.hilbert import (
    DimensionMismatchError,
    ModeSpec,
    Operator,
    SpaceSpec,
    SpaceTooLargeError,
    annihilation_local,
    anticommutator,
    build_space,
    coherent_local,
    commutator,
    creation_local,
    embed_local,
    embed_terms,
    fock_local,
    identity,
    number_local,
    product_state,
    site_local_state,
    top_level_projector_local,
    zero,
)
from chainqed.transition_ops import SIGMA_PLUS_LOCAL, SIGMA_Z_LOCAL


@pytest.mark.parametrize(
    "spec,expected_dim",
    [
        (SpaceSpec(1), 2),
        (SpaceSpec(2, (ModeSpec(3),)), 16),
        (SpaceSpec(3), 8),
        (SpaceSpec(2, (ModeSpec(2),), (ModeSpec(1),)), 24),
    ],
)
def test_space_dimensions(spec, expected_dim):
    space = build_space(spec)
    assert space.dim == expected_dim
    assert space.dim == spec.dimension


def test_space_cap_enforced():
    # 2^4 * 2^17 = 2^21 > 2^20: the check raises before anything is allocated
    spec = SpaceSpec(4, (ModeSpec(2**17 - 1),))
    with pytest.raises(SpaceTooLargeError, match="space too large"):
        build_space(spec)


def test_invalid_spec_rejected():
    with pytest.raises(ValueError):
        SpaceSpec(0)
    with pytest.raises(ValueError):
        ModeSpec(0)


def test_index_occupation_round_trip():
    space = build_space(SpaceSpec(2, (ModeSpec(3),), (ModeSpec(2),)))
    for i in range(space.dim):
        occ = space.index_to_occupation(i)
        assert space.occupation_to_index(occ) == i
    # tuples respect local dimensions
    occs = [space.index_to_occupation(i) for i in range(space.dim)]
    assert len(set(occs)) == space.dim


def test_subsystem_ordering_sites_then_field_then_phonon():
    space = build_space(SpaceSpec(2, (ModeSpec(2),), (ModeSpec(1),)))
    kinds = [s.kind for s in space.subsystems]
    assert kinds == ["site", "site", "field", "phonon"]
    assert space.site_slot(1) == 1
    assert space.field_slot(0) == 2
    assert space.phonon_slot(0) == 3


def test_embed_identity_is_identity():
    space = build_space(SpaceSpec(2, (ModeSpec(2),)))
    op = embed_local(space, 1, np.eye(2))
    assert_allclose(op.to_dense(), np.eye(space.dim))


def test_embed_dimension_mismatch_names_subsystem():
    space = build_space(SpaceSpec(1, (ModeSpec(3),)))
    with pytest.raises(DimensionMismatchError, match=r"field\[0\]"):
        embed_local(space, 1, np.eye(2))


def _kron_embedding(space, slot, local):
    """``I x local x I`` by two Kronecker products: the reference embedding."""
    before = int(np.prod([sub.dim for sub in space.subsystems[:slot]]))
    after = int(np.prod([sub.dim for sub in space.subsystems[slot + 1:]]))
    mat = sparse.kron(sparse.identity(before, format="csr"), sparse.csr_matrix(local, dtype=complex), format="csr")
    return sparse.kron(mat, sparse.identity(after, format="csr"), format="csr")


def test_embed_local_is_the_kronecker_embedding_bit_for_bit():
    space = build_space(SpaceSpec(1, (ModeSpec(2),), (ModeSpec(3),)))
    rng = np.random.default_rng(5)
    for slot, sub in enumerate(space.subsystems):
        d = sub.dim
        dense = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        zero_row = dense.copy()
        zero_row[1] = 0.0
        a = annihilation_local(d - 1)
        for local in (number_local(d - 1), a + a.conj().T, dense, zero_row):
            got, ref = embed_local(space, slot, local).matrix, _kron_embedding(space, slot, local)
            assert got.has_canonical_format
            for field in ("indptr", "indices", "data"):
                assert_array_equal(getattr(got, field), getattr(ref, field))
                assert getattr(got, field).dtype == getattr(ref, field).dtype
    for slot in (-1, len(space.subsystems)):
        with pytest.raises(IndexError, match="out of range"):
            embed_local(space, slot, np.eye(2))
    with pytest.raises(DimensionMismatchError, match=r"phonon\[0\] of dimension 4"):
        embed_local(space, 2, np.eye(3))


def test_embed_terms_is_the_sum_of_embedded_products():
    space = build_space(SpaceSpec(2, (ModeSpec(2),)))
    rng = np.random.default_rng(9)
    dense = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    terms = [
        (0.7, {0: SIGMA_Z_LOCAL}),  # diagonal: folded
        (-0.2, {}),  # the identity
        (0.3 - 0.1j, {1: SIGMA_PLUS_LOCAL, 2: annihilation_local(2)}),
        (1.5, {0: SIGMA_Z_LOCAL, 2: dense}),  # diagonal entries off the folded vector
        (0.3 - 0.1j, {1: SIGMA_PLUS_LOCAL, 2: annihilation_local(2)}),  # a duplicate entry
    ]
    expected = np.zeros((space.dim, space.dim), dtype=complex)
    for c, factors in terms:
        product = np.eye(space.dim)
        for slot, m in factors.items():
            product = product @ embed_local(space, slot, m).to_dense()
        expected += c * product
    op = embed_terms(space, terms)
    assert op.matrix.has_canonical_format
    assert np.max(np.abs(op.to_dense() - expected)) <= 1e-15
    # an exact cancellation leaves no stored zero
    cancelled = embed_terms(space, [(1.0, {0: SIGMA_Z_LOCAL}), (-1.0, {0: SIGMA_Z_LOCAL}),
                                    (2.0, {1: SIGMA_PLUS_LOCAL}), (-2.0, {1: SIGMA_PLUS_LOCAL})])
    assert cancelled.matrix.nnz == 0
    assert embed_terms(space, []).matrix.nnz == 0


def test_embed_terms_sums_repeated_entries_as_a_coo_conversion():
    # three patterns at the mode's slot meet along its first row, where 1e16 + 1 - 1e16 rounds by the order of its
    # terms: the sum must round as a COO conversion of the terms' entries in order, each raveled base by base
    space = build_space(SpaceSpec(1, (ModeSpec(3),)))
    first_row = np.zeros((4, 4))
    first_row[0, 1:] = 1.0
    a = annihilation_local(3)
    terms = [(1e16, {1: first_row}), (1.0, {1: a + a.conj().T}), (-1e16, {1: np.ones((4, 4))})]
    rows, cols, values = [], [], []
    for c, factors in terms:
        local = factors[1]
        r, k = np.nonzero(local)
        for base in (0, space.dim // 2):  # the site's two levels
            rows.append(base + r)
            cols.append(base + k)
            values.append(c * local[r, k].astype(complex))
    ref = sparse.coo_matrix((np.concatenate(values), (np.concatenate(rows), np.concatenate(cols))),
                            (space.dim, space.dim)).tocsr()
    ref.eliminate_zeros()
    got = embed_terms(space, terms).matrix
    assert got[0, 1] == 0.0 and got[1, 0] == 1.0 - 1e16
    for field in ("indptr", "indices", "data"):
        assert_array_equal(getattr(got, field), getattr(ref, field))
        assert getattr(got, field).dtype == getattr(ref, field).dtype


def test_embed_terms_build_holds_less_than_twice_its_csr():
    # a 12-site exchange chain: no index array over all entries beside the CSR's own
    n = 12
    space = build_space(SpaceSpec(n))
    terms = [(0.5, {l: SIGMA_Z_LOCAL}) for l in range(n)]
    for l in range(n - 1):
        terms += [(0.1, {l: SIGMA_PLUS_LOCAL, l + 1: SIGMA_PLUS_LOCAL.T}), (0.1, {l: SIGMA_PLUS_LOCAL.T, l + 1: SIGMA_PLUS_LOCAL})]
    embed_terms(space, terms)  # the first build fills the caches of first use
    tracemalloc.start()
    try:
        matrix = embed_terms(space, terms).matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert matrix.nnz > 5 * space.dim
    assert peak <= 2 * (matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes)


def test_disjoint_embeddings_commute():
    space = build_space(SpaceSpec(2))
    z0 = embed_local(space, 0, SIGMA_Z_LOCAL)
    plus1 = embed_local(space, 1, SIGMA_PLUS_LOCAL)
    assert commutator(z0, plus1).max_abs() == 0.0


def test_embedding_is_algebra_homomorphism():
    space = build_space(SpaceSpec(1, (ModeSpec(3),)))
    rng = np.random.default_rng(11)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    slot = space.field_slot(0)
    lhs = embed_local(space, slot, a @ b)
    rhs = embed_local(space, slot, a) @ embed_local(space, slot, b)
    assert (lhs - rhs).max_abs() <= 1e-14
    lhs_sum = embed_local(space, slot, a + b)
    rhs_sum = embed_local(space, slot, a) + embed_local(space, slot, b)
    assert (lhs_sum - rhs_sum).max_abs() <= 1e-14


@pytest.mark.parametrize("cutoff", [1, 2, 5])
def test_annihilation_matrix_elements(cutoff):
    a = annihilation_local(cutoff)
    expected = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    for n in range(1, cutoff + 1):
        expected[n - 1, n] = np.sqrt(n)
    assert_allclose(a, expected)


def test_annihilation_small_cases():
    assert_allclose(annihilation_local(1), [[0, 1], [0, 0]])
    assert_allclose(np.diag(annihilation_local(2), k=1), [1, np.sqrt(2)])


def test_number_operator_diagonal():
    a = annihilation_local(4)
    assert_allclose(a.conj().T @ a, number_local(4), atol=1e-15)


def test_truncated_commutation_relation():
    # [a, a^dag] = 1 - (cutoff + 1) |top><top| on the truncated ladder
    cutoff = 2
    space = build_space(SpaceSpec(1, (ModeSpec(cutoff),)))
    slot = space.field_slot(0)
    a = embed_local(space, slot, annihilation_local(cutoff))
    expected = identity(space) - (cutoff + 1) * embed_local(
        space, slot, top_level_projector_local(cutoff)
    )
    assert (commutator(a, a.dag()) - expected).max_abs() <= 1e-14


def test_operator_arithmetic_identities():
    space = build_space(SpaceSpec(2))
    rng = np.random.default_rng(3)
    a = Operator(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    assert commutator(a, a).max_abs() == 0.0
    eye = identity(space)
    assert (anticommutator(eye, a) - 2.0 * a).max_abs() <= 1e-15


def test_operator_dimension_mismatch():
    a = Operator(np.eye(2))
    b = Operator(np.eye(4))
    with pytest.raises(DimensionMismatchError):
        a + b
    with pytest.raises(DimensionMismatchError):
        a @ b


def _kernel_operands():
    """Operators for the kernel test, each with the scipy matrix it stands for.

    ``a`` and ``b`` differ in their number of entries; ``product`` comes
    from ``csr_matmat``, which leaves its indices unsorted; ``upper64`` has
    int64 index arrays (as ``csr_array`` keeps them), ``lower`` and
    ``diagonal`` are int32 and share no entry with it.
    """
    rng = np.random.default_rng(11)
    n = 9

    def random(density):
        return np.where(rng.uniform(size=(n, n)) < density, rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), 0)

    full = random(1.0)
    upper = sparse.csr_matrix(np.triu(full, 1))
    upper64 = sparse.csr_matrix(sparse.csr_array(
        (upper.data, upper.indices.astype(np.int64), upper.indptr.astype(np.int64)), shape=(n, n)))
    refs = {
        "a": sparse.csr_matrix(random(0.5)),
        "b": sparse.csr_matrix(random(0.2)),
        "empty": sparse.csr_matrix((n, n), dtype=np.complex128),
        "upper64": upper64,
        "lower": sparse.csr_matrix(np.tril(full)),
        "diagonal": sparse.csr_matrix(np.diag(np.diag(full))),
    }
    ops = {name: Operator(matrix) for name, matrix in refs.items()}
    ops["product"], refs["product"] = ops["a"] @ ops["b"], refs["a"] @ refs["b"]
    assert refs["upper64"].indices.dtype == np.int64
    assert not refs["product"].has_sorted_indices
    return ops, refs


def _assert_same_arrays(op, ref, what):
    assert (op.indptr.dtype, op.indices.dtype) == (ref.indptr.dtype, ref.indices.dtype), what
    assert_array_equal(op.indptr, ref.indptr, err_msg=what)
    assert_array_equal(op.indices, ref.indices, err_msg=what)
    assert op.data.dtype == ref.data.dtype and op.data.tobytes() == ref.data.tobytes(), what


def test_operator_arithmetic_gives_scipys_arrays():
    # Operator calls scipy's compiled kernels itself; each result must hold the arrays that scipy's own operators
    # give, bit for bit and with the same index dtype.  scipy picks the index dtype of a kernel result from the
    # whole output it allocated for the bound on the entries, whose unused tail is uninitialized memory; so the
    # int64 operand meets only operands that leave no such tail (disjoint entries, products that never meet).
    ops, refs = _kernel_operands()
    for name, op in ops.items():
        ref = refs[name]
        _assert_same_arrays(-op, -ref, f"-{name}")
        _assert_same_arrays(op.dag(), ref.conjugate().transpose().tocsr(), f"{name}.dag()")
        for scalar in (0, 0.0, -1.5, np.float64(0.25), 2.0 - 0.5j, 1j):
            _assert_same_arrays(op * scalar, ref * scalar, f"{name} * {scalar}")
            _assert_same_arrays(scalar * op, scalar * ref, f"{scalar} * {name}")
    plain = [name for name in ops if name != "upper64"]
    pairs = [(x, y) for x in plain for y in plain]
    for x, y in pairs + [("upper64", "lower"), ("lower", "upper64")]:
        _assert_same_arrays(ops[x] + ops[y], refs[x] + refs[y], f"{x} + {y}")
        _assert_same_arrays(ops[x] - ops[y], refs[x] - refs[y], f"{x} - {y}")
    for x, y in pairs + [("upper64", "diagonal"), ("diagonal", "upper64")]:
        _assert_same_arrays(ops[x] @ ops[y], refs[x] @ refs[y], f"{x} @ {y}")
    _assert_same_arrays(ops["a"] - ops["a"], refs["a"] - refs["a"], "a - a")  # every entry cancels
    assert (ops["a"] - ops["a"]).data.size == 0


def test_operator_arithmetic_builds_no_csr_matrix_until_read(monkeypatch):
    space = build_space(SpaceSpec(2, (ModeSpec(2),)))
    a = embed_local(space, 2, annihilation_local(2))
    sigma = embed_local(space, 0, SIGMA_PLUS_LOCAL)
    built = []
    init = sparse.csr_matrix.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(sparse.csr_matrix, "__init__", counted)
    result = commutator(a.dag() @ a + 0.5 * identity(space), sigma.dag()) - (-sigma) * 2.0 + zero(space)
    assert built == []
    matrix = result.matrix
    assert len(built) == 1 and result.matrix is matrix
    assert all(np.shares_memory(x, y) for x, y in zip((matrix.indptr, matrix.indices, matrix.data),
                                                         (result.indptr, result.indices, result.data)))


def test_hermiticity_detection():
    herm = Operator(np.array([[1.0, 2.0 + 1j], [2.0 - 1j, -1.0]]))
    assert herm.is_hermitian()
    assert not Operator(np.array([[0, 1], [0, 0]])).is_hermitian()


def test_coherent_state_moments():
    alpha = 1.5 + 0.5j
    cutoff = 30
    vec = coherent_local(alpha, cutoff)
    assert_allclose(np.linalg.norm(vec), 1.0, atol=1e-14)
    n_op = number_local(cutoff)
    mean_n = np.vdot(vec, n_op @ vec).real
    assert_allclose(mean_n, abs(alpha) ** 2, rtol=1e-10)
    a = annihilation_local(cutoff)
    assert_allclose(np.vdot(vec, a @ vec), alpha, rtol=1e-10)


def test_product_state_assembly():
    space = build_space(SpaceSpec(1, (ModeSpec(2),)))
    psi = product_state(space, [site_local_state("excited"), fock_local(1, 2)])
    expected_index = space.occupation_to_index((1, 1))
    assert_allclose(abs(psi[expected_index]), 1.0)
    assert_allclose(np.linalg.norm(psi), 1.0)


def test_site_local_state_angles():
    vec = site_local_state("angles", theta=np.pi / 2, phi=np.pi / 4)
    assert_allclose(abs(vec[0]), abs(vec[1]), atol=1e-15)
    assert_allclose(np.angle(vec[1]), np.pi / 4)
