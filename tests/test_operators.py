import numpy as np
import pytest

from effham import (
    MAX_DIMENSION,
    DimensionCapError,
    DimensionMismatchError,
    OperatorValueError,
    adjoint,
    annihilate,
    as_operator,
    commutator,
    create,
    frobenius_norm,
    identity,
    matrix_exponential,
    projector,
    sigma_minus,
    sigma_plus,
    sigma_x,
    sigma_y,
    sigma_z,
    standard_operator,
    tensor_product,
    zero,
)


def test_adjoint_identity_fixed_point():
    assert np.array_equal(adjoint(identity(2)), identity(2))


def test_adjoint_swaps_raising_lowering():
    assert np.array_equal(adjoint(np.array([[0, 1], [0, 0]])), [[0, 0], [1, 0]])


def test_adjoint_conjugates_scalar_factor():
    assert np.allclose(adjoint(1j * sigma_x()), -1j * sigma_x())


def test_adjoint_is_involution(rng):
    for _ in range(25):
        dim = int(rng.integers(1, 9))
        A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        assert np.array_equal(adjoint(adjoint(A)), A)


def test_commutator_pauli_algebra():
    assert np.allclose(commutator(sigma_x(), sigma_y()), 2j * sigma_z())


def test_commutator_self_is_zero(rng):
    A = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    assert np.array_equal(commutator(A, A), zero(5))


def test_commutator_truncated_ladder():
    # direct matrix-product oracle on the 4-level truncated ladder
    a = annihilate(4)
    expected = a @ create(4) - create(4) @ a
    assert np.allclose(expected, np.diag([1, 1, 1, -3]))
    assert np.allclose(commutator(a, create(4)), np.diag([1, 1, 1, -3]))


def test_commutator_antisymmetry(rng):
    A = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    B = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    assert np.allclose(commutator(A, B), -commutator(B, A))


def test_commutator_adjoint_relation(rng):
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    B = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.allclose(adjoint(commutator(A, B)), commutator(adjoint(B), adjoint(A)))


def test_commutator_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        commutator(identity(2), identity(3))


def test_tensor_product_identities():
    assert np.array_equal(tensor_product(identity(2), identity(3)), identity(6))


def test_tensor_product_block_structure():
    assert np.allclose(tensor_product(sigma_z(), identity(2)), np.diag([1, 1, -1, -1]))


def test_tensor_product_squares_to_identity():
    M = tensor_product(sigma_x(), sigma_x())
    assert np.allclose(M @ M, identity(4))


def test_tensor_product_associative(rng):
    # integer entries keep every product exactly representable
    A = rng.integers(-9, 10, size=(2, 2)) + 1j * rng.integers(-9, 10, size=(2, 2))
    B = rng.integers(-9, 10, size=(4, 4)) + 1j * rng.integers(-9, 10, size=(4, 4))
    C = rng.integers(-9, 10, size=(4, 4)) + 1j * rng.integers(-9, 10, size=(4, 4))
    left = tensor_product(tensor_product(A, B), C)
    right = tensor_product(A, tensor_product(B, C))
    assert np.array_equal(left, right)


def test_tensor_product_dimension_cap():
    with pytest.raises(DimensionCapError):
        tensor_product(identity(100), identity(100))


def test_matrix_exponential_of_zero():
    assert np.allclose(matrix_exponential(zero(3)), identity(3))


def test_matrix_exponential_diagonal():
    theta = 0.3
    U = matrix_exponential(1j * theta * sigma_z())
    assert np.allclose(U, np.diag([np.exp(0.3j), np.exp(-0.3j)]))


@pytest.mark.parametrize("dim", [2, 8, 16, 32])
@pytest.mark.parametrize("scale", [1.0, 10.0, 100.0])
def test_matrix_exponential_unitary_for_anti_hermitian(rng, dim, scale):
    M = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    A = M - M.conj().T
    A *= scale / np.linalg.norm(A)
    U = matrix_exponential(A)
    assert np.linalg.norm(U.conj().T @ U - identity(dim)) < 1e-12


def test_matrix_exponential_rejects_non_finite():
    with pytest.raises(OperatorValueError):
        matrix_exponential(np.array([[np.nan, 0], [0, 0]]))


def test_standard_operator_sigma_plus():
    assert np.array_equal(standard_operator("sigma_plus", 2), [[0, 1], [0, 0]])


def test_standard_operator_annihilate():
    a = standard_operator("annihilate", 3)
    assert np.allclose(a, [[0, 1, 0], [0, 0, np.sqrt(2)], [0, 0, 0]])


def test_standard_operator_projector():
    assert np.array_equal(standard_operator("projector", 2, i=0, j=1), [[0, 1], [0, 0]])
    assert np.array_equal(projector(3, 2, 0), [[0, 0, 0], [0, 0, 0], [1, 0, 0]])


@pytest.mark.parametrize("call", [
    lambda: standard_operator("sigma_x", 1),
    lambda: standard_operator("no_such_kind", 2),
    lambda: projector(2, 0, 5),
    lambda: standard_operator("projector", 2),
    lambda: annihilate(2.5),
    lambda: annihilate(True),
    lambda: sigma_x(2.5),
    lambda: projector(3, 1.5, 0),
    lambda: identity(MAX_DIMENSION + 1),
], ids=["sigma_x_dim_1", "unknown_kind", "projector_index_range", "projector_no_indices",
        "annihilate_real_dim", "annihilate_bool_dim", "sigma_x_real_dim",
        "projector_real_index", "identity_past_cap"])
def test_standard_operator_bad_inputs(call):
    with pytest.raises(OperatorValueError):
        call()


def test_sigma_minus_is_adjoint_of_plus():
    assert np.array_equal(sigma_minus(), adjoint(sigma_plus()))


def test_frobenius_norm_values():
    assert frobenius_norm(identity(4)) == pytest.approx(2.0)
    assert frobenius_norm(zero(5)) == 0.0
    # entrywise sum oracle: sigma_x + i sigma_y = [[0, 2], [0, 0]]
    assert frobenius_norm(sigma_x() + 1j * sigma_y()) == pytest.approx(2.0)


def test_as_operator_validation():
    with pytest.raises(OperatorValueError):
        as_operator([[1, 2, 3]])
    with pytest.raises(OperatorValueError):
        as_operator([[np.inf, 0], [0, 1]])


@pytest.mark.parametrize("entries", [np.zeros((0, 0)), [[]], np.zeros((0, 0), dtype=complex)])
def test_as_operator_refuses_an_empty_matrix(entries):
    with pytest.raises(OperatorValueError, match=r"dimension >= 1, got shape \(\d, 0\)$"):
        as_operator(entries)


@pytest.mark.parametrize("entries", [[[1, 2j], [np.nan, 0]], [[1, 2j], [complex(0, np.inf), 0]]])
def test_as_operator_refuses_non_finite_complex_entries(entries):
    with pytest.raises(OperatorValueError, match="^operator has non-finite entries$"):
        as_operator(entries)
    with pytest.raises(OperatorValueError, match="^operator has non-finite entries$"):
        as_operator(np.array(entries).T)


@pytest.mark.parametrize("make", [
    lambda: (1j * sigma_plus()).T,
    lambda: np.arange(16.0).reshape(4, 4)[::2, ::2],
    lambda: np.asfortranarray(sigma_y(3)),
    lambda: sigma_y(),
    lambda: [[1, 2], [3, 4]],
], ids=["transposed", "strided", "fortran", "complex", "nested-list"])
def test_as_operator_returns_a_fresh_c_ordered_complex_copy(make):
    entries = make()
    A = as_operator(entries)
    assert A.dtype == complex and A.flags.c_contiguous and A.flags.writeable
    assert np.array_equal(A, np.asarray(entries))
    assert not np.shares_memory(A, np.asarray(entries))
