"""Pauli algebra and transfer-matrix layer, checked against dense matrices."""

import numpy as np
import pytest

from tetronsim.pauli import (
    PAULI_MATRICES,
    PauliString,
    Superoperator,
    average_gate_fidelity,
    channel_to_superop,
    choi_matrix,
    dense_to_pauli_vec,
    haar_average_fidelity,
    kraus_superop,
    pauli_matrix,
    pauli_vec_to_dense,
    projector,
    unitary_superop,
)

LETTERS = "IXYZ"


def test_letter_products_match_dense():
    for a in range(4):
        for b in range(4):
            pa, pb = PauliString(LETTERS[a]), PauliString(LETTERS[b])
            prod, phase = pa.mul_with_phase(pb)
            dense = PAULI_MATRICES[a] @ PAULI_MATRICES[b]
            np.testing.assert_allclose(dense, phase * prod.matrix(), atol=1e-15)


def test_multi_qubit_product_and_signs():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = rng.integers(1, 5)
        a = PauliString(
            "".join(LETTERS[d] for d in rng.integers(0, 4, n)), int(rng.choice([1, -1]))
        )
        b = PauliString(
            "".join(LETTERS[d] for d in rng.integers(0, 4, n)), int(rng.choice([1, -1]))
        )
        prod, phase = a.mul_with_phase(b)
        assert prod.sign == 1
        assert phase in (1, -1, 1j, -1j)
        np.testing.assert_allclose(a.matrix() @ b.matrix(), phase * prod.matrix(), atol=1e-12)
        # commutation agrees with the dense commutator
        comm = a.matrix() @ b.matrix() - b.matrix() @ a.matrix()
        assert a.commutes(b) == bool(np.allclose(comm, 0))


def test_mul_operator_keeps_real_signs_and_rejects_imaginary():
    assert str(PauliString("X") * PauliString("X")) == "I"
    assert str(PauliString("XZ") * PauliString("ZX")) == "YY"
    assert str(PauliString("XY") * PauliString("ZX")) == "-YZ"
    with pytest.raises(ValueError, match="phase"):
        PauliString("X") * PauliString("Z")


def test_text_round_trip_and_validation():
    for text in ("XI", "-ZY", "YXZI", "-I"):
        assert str(PauliString.from_text(text)) == text
    assert str(PauliString.from_text("+XZ")) == "XZ"
    with pytest.raises(ValueError):
        PauliString("AB")
    with pytest.raises(ValueError):
        PauliString("")
    with pytest.raises(ValueError):
        PauliString("X", sign=1j)  # type: ignore[arg-type]
    with pytest.raises(ValueError):
        PauliString("X", sign=0)


def test_index_convention_matches_reshape():
    p = PauliString("XZ")
    assert PauliString.from_index(p.index, 2) == p
    vec = np.zeros(16)
    vec[p.index] = 1.0
    axes = np.argwhere(vec.reshape(4, 4))[0]
    assert list(axes) == [1, 3]  # qubit 0 axis first, digits I=0 X=1 Y=2 Z=3


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dense_vec_round_trip(n):
    rng = np.random.default_rng(n)
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    h = a + a.conj().T
    vec = dense_to_pauli_vec(h)
    np.testing.assert_allclose(pauli_vec_to_dense(vec), h, atol=1e-12)
    # spot-check coefficients against explicit traces
    for idx in rng.integers(0, 4**n, size=5):
        p = PauliString.from_index(int(idx), n)
        assert vec[idx] == pytest.approx(np.trace(p.matrix() @ h).real, abs=1e-12)


def test_dense_to_pauli_vec_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="Hermitian"):
        dense_to_pauli_vec(m)


def test_projector_and_matrix_helpers():
    np.testing.assert_allclose(
        projector("Z", 1), np.array([[1.0, 0.0], [0.0, 0.0]]), atol=1e-15
    )
    np.testing.assert_allclose(pauli_matrix("-ZY"), -np.kron(PAULI_MATRICES[3], PAULI_MATRICES[2]))
    with pytest.raises(ValueError):
        projector("Z", 0)


def test_superoperator_composition_order():
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    s = np.diag([1.0, 1j])
    r_h, r_s = unitary_superop(h), unitary_superop(s)
    combined = r_s @ r_h  # apply H first, then S
    direct = unitary_superop(s @ h)
    np.testing.assert_allclose(combined.matrix, direct.matrix, atol=1e-12)
    assert combined.is_trace_preserving()


def test_hadamard_transfer_matrix():
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    want = np.zeros((4, 4))
    want[0, 0] = 1.0
    want[1, 3] = want[3, 1] = 1.0
    want[2, 2] = -1.0
    np.testing.assert_allclose(unitary_superop(h).matrix, want, atol=1e-12)


def test_tensor_follows_qubit_order():
    x = unitary_superop(PAULI_MATRICES[1])
    ident = Superoperator.identity(1)
    two = x.tensor(ident)
    vec = np.zeros(16)
    vec[PauliString("ZI").index] = 1.0
    out = two.apply_vec(vec)
    assert out[PauliString("ZI").index] == pytest.approx(-1.0)  # X on qubit 0 flips Z there
    vec = np.zeros(16)
    vec[PauliString("IZ").index] = 1.0
    assert two.apply_vec(vec)[PauliString("IZ").index] == pytest.approx(1.0)


def test_depolarizing_diagonal_and_subnormalized_projection():
    p = 0.3
    terms = [(1 - p, np.eye(2))] + [(p / 3, PAULI_MATRICES[k]) for k in (1, 2, 3)]
    dep = kraus_superop(terms)
    np.testing.assert_allclose(np.diag(dep.matrix), [1.0, 0.6, 0.6, 0.6], atol=1e-12)
    assert dep.is_trace_preserving()

    proj = channel_to_superop(lambda r: projector("X", 1) @ r @ projector("X", 1), 1)
    assert not proj.is_trace_preserving()
    assert proj.matrix[0, 0] == pytest.approx(0.5)


def test_average_gate_fidelity_known_values():
    p = 0.3
    dep = kraus_superop(
        [(1 - p, np.eye(2))] + [(p / 3, PAULI_MATRICES[k]) for k in (1, 2, 3)]
    )
    assert average_gate_fidelity(dep, np.eye(2)) == pytest.approx(0.8, abs=1e-12)
    full = kraus_superop([(0.25, PAULI_MATRICES[k]) for k in range(4)])
    assert average_gate_fidelity(full, np.eye(2)) == pytest.approx(0.5, abs=1e-12)
    ident = Superoperator.identity(1)
    assert average_gate_fidelity(ident, np.eye(2)) == pytest.approx(1.0)


def test_average_gate_fidelity_monte_carlo_cross_check():
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    theta = 0.23
    u = np.cos(theta) * np.eye(2) + 1j * np.sin(theta) * PAULI_MATRICES[3]
    chan = unitary_superop(u)
    exact = average_gate_fidelity(chan, h)
    mc = haar_average_fidelity(chan, h, num_states=20000, seed=11)
    assert abs(exact - mc) < 2e-3


def test_average_gate_fidelity_subnormalized_requires_opt_in():
    proj = channel_to_superop(lambda r: projector("X", 1) @ r @ projector("X", 1), 1)
    with pytest.raises(ValueError, match="trace-preserving"):
        average_gate_fidelity(proj, np.eye(2))


def test_average_gate_fidelity_sees_a_unitary_edited_in_place():
    # The target's transfer matrix is cached by value, never by array identity.
    chan = unitary_superop(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    u = np.eye(2, dtype=complex)
    before = average_gate_fidelity(chan, u)
    u[:] = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    after = average_gate_fidelity(chan, u)
    r_u = unitary_superop(u).matrix
    assert after == (2.0 * float(np.trace(r_u.T @ chan.matrix)) / 4.0 + 1.0) / 3.0
    assert after == pytest.approx(1.0, abs=1e-12) and before == pytest.approx(1 / 3)


def test_choi_positivity_detects_non_cp():
    p = 0.2
    dep = kraus_superop(
        [(1 - p, np.eye(2))] + [(p / 3, PAULI_MATRICES[k]) for k in (1, 2, 3)]
    )
    assert np.linalg.eigvalsh(choi_matrix(dep)).min() > -1e-12
    transpose = channel_to_superop(lambda r: r.T, 1)
    assert np.linalg.eigvalsh(choi_matrix(transpose)).min() < -0.5
