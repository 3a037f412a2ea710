"""Pauli algebra, dense operators, and transfer-matrix superoperators.

Conventions used throughout the package:

* Single-qubit Pauli letters are ``I``, ``X``, ``Y``, ``Z``. An n-qubit Pauli
  operator is a string of n letters with an optional leading ``-``, e.g.
  ``"XI"`` or ``"-ZY"``. Qubit 0 is the leftmost letter and the most
  significant tensor factor.
* Unsigned Pauli strings are indexed in base 4 with digits I=0, X=1, Y=2, Z=3
  and qubit 0 as the most significant digit, so an index array reshapes to
  ``(4,)*n`` with axis q addressing qubit q.
* A Hermitian operator rho on n qubits is expanded as
  ``rho = sum_P v_P P / 2**n`` with real coefficients ``v_P = tr(P rho)``.
  The length-4^n float64 vector v (the "Pauli vector") is the package's
  workhorse state representation: ``v[0]`` is the trace and Pauli expectation
  values are single lookups.
* A channel E is represented by its real transfer matrix
  ``R[a, b] = tr(P_a E(P_b)) / 2**n`` acting on Pauli vectors by matrix
  multiplication.  "Apply E2 after E1" composes as ``R2 @ R1``.  E is trace
  preserving iff the first row of R is (1, 0, ..., 0).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

LETTERS = "IXYZ"

_I2 = np.eye(2, dtype=complex)
_X2 = np.array([[0, 1], [1, 0]], dtype=complex)
_Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z2 = np.array([[1, 0], [0, -1]], dtype=complex)

# Stack indexed by the base-4 digit convention above.
PAULI_MATRICES = np.stack([_I2, _X2, _Y2, _Z2])

# Letter-product tables: sigma_a sigma_b = i**PHASE_EXP[a, b] * sigma_PROD[a, b].
PROD_DIGIT = np.zeros((4, 4), dtype=np.int64)
PHASE_EXP = np.zeros((4, 4), dtype=np.int64)
for _a in range(4):
    for _b in range(4):
        _m = PAULI_MATRICES[_a] @ PAULI_MATRICES[_b]
        for _c in range(4):
            for _k, _ph in enumerate([1, 1j, -1, -1j]):
                if np.allclose(_m, _ph * PAULI_MATRICES[_c]):
                    PROD_DIGIT[_a, _b] = _c
                    PHASE_EXP[_a, _b] = _k
del _a, _b, _c, _k, _m, _ph


def _validate_letters(letters: str) -> None:
    if not letters:
        raise ValueError("Pauli string must contain at least one letter")
    bad = set(letters) - set(LETTERS)
    if bad:
        raise ValueError(f"invalid Pauli letters {sorted(bad)!r}; expected I, X, Y, Z")


@dataclass(frozen=True)
class PauliString:
    """A signed n-qubit Pauli operator (sign restricted to +1 or -1).

    Products that would carry an imaginary overall phase must go through
    :meth:`mul_with_phase`, which reports the phase separately; ``*`` raises
    for those so that a +-i factor can never be silently dropped.
    """

    letters: str
    sign: int = 1

    def __post_init__(self):
        _validate_letters(self.letters)
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")

    @property
    def num_qubits(self) -> int:
        return len(self.letters)

    @property
    def weight(self) -> int:
        """Number of non-identity letters."""
        return sum(1 for c in self.letters if c != "I")

    @property
    def digits(self) -> tuple[int, ...]:
        return tuple(LETTERS.index(c) for c in self.letters)

    @property
    def index(self) -> int:
        """Base-4 index of the unsigned string (qubit 0 most significant)."""
        idx = 0
        for d in self.digits:
            idx = 4 * idx + d
        return idx

    @classmethod
    def from_text(cls, text: str) -> "PauliString":
        """Parse text such as ``"XI"`` or ``"-ZY"``."""
        text = text.strip()
        sign = 1
        if text.startswith("-"):
            sign = -1
            text = text[1:]
        elif text.startswith("+"):
            text = text[1:]
        return cls(text, sign)

    @classmethod
    def from_index(cls, index: int, num_qubits: int, sign: int = 1) -> "PauliString":
        digits = []
        for _ in range(num_qubits):
            digits.append(index % 4)
            index //= 4
        letters = "".join(LETTERS[d] for d in reversed(digits))
        return cls(letters, sign)

    def __str__(self) -> str:
        return ("-" if self.sign < 0 else "") + self.letters

    def to_text(self) -> str:
        return str(self)

    def commutes(self, other: "PauliString") -> bool:
        """True iff the two operators commute (even number of clashing letters)."""
        if other.num_qubits != self.num_qubits:
            raise ValueError("qubit count mismatch")
        clashes = sum(
            1
            for a, b in zip(self.letters, other.letters)
            if a != "I" and b != "I" and a != b
        )
        return clashes % 2 == 0

    def mul_with_phase(self, other: "PauliString") -> tuple["PauliString", complex]:
        """Return (unsigned product, overall phase in {1, i, -1, -i}).

        The phase includes both operands' signs, so
        ``phase * product == self @ other`` as matrices.
        """
        if other.num_qubits != self.num_qubits:
            raise ValueError("qubit count mismatch")
        k = 0
        out = []
        for a, b in zip(self.digits, other.digits):
            out.append(LETTERS[PROD_DIGIT[a, b]])
            k += PHASE_EXP[a, b]
        phase = (1j) ** (k % 4) * self.sign * other.sign
        return PauliString("".join(out)), complex(phase)

    def __mul__(self, other: "PauliString") -> "PauliString":
        prod, phase = self.mul_with_phase(other)
        if phase.imag != 0:
            raise ValueError(
                f"product {self} * {other} carries phase {phase:+.0f}; "
                "use mul_with_phase to keep it"
            )
        return PauliString(prod.letters, int(phase.real))

    def matrix(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix (including the sign)."""
        m = np.array([[self.sign]], dtype=complex)
        for d in self.digits:
            m = np.kron(m, PAULI_MATRICES[d])
        return m


def pauli_matrix(pauli: "PauliString | str") -> np.ndarray:
    if isinstance(pauli, str):
        pauli = PauliString.from_text(pauli)
    return pauli.matrix()


def projector(pauli: "PauliString | str", outcome: int) -> np.ndarray:
    """Dense projector (1 + outcome * P) / 2 onto the outcome eigenspace."""
    if outcome not in (1, -1):
        raise ValueError(f"outcome must be +1 or -1, got {outcome!r}")
    p = pauli_matrix(pauli)
    dim = p.shape[0]
    return (np.eye(dim, dtype=complex) + outcome * p) / 2


@dataclass
class DenseOperator:
    """A dense operator on n qubits with an optional Hermiticity assertion."""

    matrix: np.ndarray
    hermitian: bool = False

    _HERMITIAN_TOL = 1e-12

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        dim = self.matrix.shape[0]
        if self.matrix.ndim != 2 or self.matrix.shape[1] != dim:
            raise ValueError("matrix must be square")
        n = dim.bit_length() - 1
        if 2**n != dim:
            raise ValueError(f"dimension {dim} is not a power of two")
        if self.hermitian:
            dev = np.max(np.abs(self.matrix - self.matrix.conj().T))
            if dev > self._HERMITIAN_TOL:
                raise ValueError(f"matrix is not Hermitian (deviation {dev:.3e})")

    @property
    def num_qubits(self) -> int:
        return self.matrix.shape[0].bit_length() - 1

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))


def num_qubits_of(matrix: np.ndarray) -> int:
    dim = matrix.shape[-1]
    n = dim.bit_length() - 1
    if 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def embed_letters(num_qubits: int, letters: str, qubits: Sequence[int]) -> str:
    """Full-width letter string with ``letters[k]`` on ``qubits[k]``.

    >>> embed_letters(4, "XZ", (2, 0))
    'ZIXI'
    """
    if len(letters) != len(qubits):
        raise ValueError(f"{len(letters)} letters for {len(qubits)} qubits")
    out = ["I"] * num_qubits
    for letter, q in zip(letters, qubits):
        if not (0 <= q < num_qubits):
            raise ValueError(f"qubit q{q} outside 0..{num_qubits - 1}")
        if out[q] != "I":
            raise ValueError(f"qubit q{q} assigned twice")
        out[q] = letter
    return "".join(out)


# Per-qubit change-of-basis tensors between the matrix-unit pair index
# m = 2*row + col and the Pauli digit d.
#   _TO_PAULI[d, m]  contracts rho[..row..col..] pairs into tr(P_d .) factors
#   _FROM_PAULI[m, d] rebuilds matrix entries from Pauli coefficients (incl. 1/2)
_TO_PAULI = np.zeros((4, 4), dtype=complex)
_FROM_PAULI = np.zeros((4, 4), dtype=complex)
for _d in range(4):
    for _i in range(2):
        for _j in range(2):
            _TO_PAULI[_d, 2 * _j + _i] = PAULI_MATRICES[_d, _i, _j]
            _FROM_PAULI[2 * _i + _j, _d] = PAULI_MATRICES[_d, _i, _j] / 2
del _d, _i, _j


def _paired_axes(mat: np.ndarray, n: int) -> np.ndarray:
    """Reshape (2^n, 2^n) so axis q is the pair index m_q = 2*row_q + col_q."""
    t = mat.reshape((2,) * n + (2,) * n)
    order: list[int] = []
    for q in range(n):
        order.extend([q, n + q])
    t = np.transpose(t, order)
    return t.reshape((4,) * n)


def _unpaired_axes(t: np.ndarray, n: int) -> np.ndarray:
    t = t.reshape((2, 2) * n)
    rows = [2 * q for q in range(n)]
    cols = [2 * q + 1 for q in range(n)]
    t = np.transpose(t, rows + cols)
    return t.reshape(2**n, 2**n)


def _apply_per_axis(t: np.ndarray, m: np.ndarray, n: int) -> np.ndarray:
    for q in range(n):
        t = np.tensordot(m, t, axes=([1], [q]))
        t = np.moveaxis(t, 0, q)
    return t


def dense_to_pauli_vec(rho: np.ndarray, *, check: bool = True) -> np.ndarray:
    """Pauli coefficients v with v[a] = tr(P_a rho); real for Hermitian rho."""
    rho = np.asarray(rho, dtype=complex)
    n = num_qubits_of(rho)
    t = _apply_per_axis(_paired_axes(rho, n), _TO_PAULI, n).reshape(-1)
    if check:
        resid = np.max(np.abs(t.imag)) if t.size else 0.0
        if resid > 1e-9:
            raise ValueError(
                f"operator is not Hermitian (imaginary coefficient {resid:.3e})"
            )
        return np.ascontiguousarray(t.real)
    return t


def pauli_vec_to_dense(vec: np.ndarray) -> np.ndarray:
    """Inverse of :func:`dense_to_pauli_vec`: rho = sum_a v[a] P_a / 2^n."""
    vec = np.asarray(vec)
    size = vec.shape[-1]
    n = max(1, (size.bit_length() - 1) // 2)
    if 4**n != size:
        raise ValueError(f"length {size} is not a power of four")
    t = vec.astype(complex).reshape((4,) * n)
    t = _apply_per_axis(t, _FROM_PAULI, n)
    return _unpaired_axes(t, n)


class Superoperator:
    """A channel stored as its real transfer matrix in the Pauli basis."""

    def __init__(self, matrix: np.ndarray, *, copy: bool = True):
        matrix = np.array(matrix, dtype=float, copy=copy)
        size = matrix.shape[0]
        if matrix.ndim != 2 or matrix.shape[1] != size:
            raise ValueError("transfer matrix must be square")
        n = max(1, (size.bit_length() - 1) // 2)
        if 4**n != size:
            raise ValueError(f"transfer matrix size {size} is not a power of four")
        self.matrix = matrix
        self.num_qubits = n

    @classmethod
    def identity(cls, num_qubits: int) -> "Superoperator":
        return cls(np.eye(4**num_qubits), copy=False)

    def __matmul__(self, other: "Superoperator") -> "Superoperator":
        """self @ other applies ``other`` first, then ``self``."""
        if other.num_qubits != self.num_qubits:
            raise ValueError("qubit count mismatch")
        return Superoperator(self.matrix @ other.matrix, copy=False)

    def is_trace_preserving(self, tol: float = 1e-10) -> bool:
        row = self.matrix[0]
        dev = abs(row[0] - 1.0) + np.sum(np.abs(row[1:]))
        return bool(dev <= tol)

    def apply_vec(self, vec: np.ndarray) -> np.ndarray:
        return self.matrix @ vec

    def apply_dense(self, rho: np.ndarray) -> np.ndarray:
        return pauli_vec_to_dense(self.matrix @ dense_to_pauli_vec(rho, check=False))

    def tensor(self, other: "Superoperator") -> "Superoperator":
        """Tensor product; self acts on the leading (most significant) qubits."""
        return Superoperator(np.kron(self.matrix, other.matrix), copy=False)


def unitary_superop(u: np.ndarray) -> Superoperator:
    """Transfer matrix of rho -> U rho U^dagger."""
    u = np.asarray(u, dtype=complex)
    n = num_qubits_of(u)
    return channel_to_superop(lambda rho: u @ rho @ u.conj().T, n)


def kraus_superop(terms: Iterable[tuple[float, np.ndarray]]) -> Superoperator:
    """Transfer matrix of rho -> sum_k w_k K_k rho K_k^dagger."""
    terms = [(float(w), np.asarray(k, dtype=complex)) for w, k in terms]
    n = num_qubits_of(terms[0][1])

    def apply(rho: np.ndarray) -> np.ndarray:
        out = np.zeros_like(rho)
        for w, k in terms:
            out += w * (k @ rho @ k.conj().T)
        return out

    return channel_to_superop(apply, n)


def channel_to_superop(
    apply_channel: Callable[[np.ndarray], np.ndarray], num_qubits: int
) -> Superoperator:
    """Tomograph a black-box linear map into its transfer matrix.

    ``apply_channel`` receives each dense Pauli basis matrix and must return
    the mapped dense matrix; linearity is assumed, complete positivity is not.
    """
    size = 4**num_qubits
    r = np.zeros((size, size))
    scale = 1.0 / 2**num_qubits
    for b in range(size):
        p = PauliString.from_index(b, num_qubits).matrix()
        out = np.asarray(apply_channel(p), dtype=complex)
        r[:, b] = dense_to_pauli_vec(out, check=True) * scale
    return Superoperator(r, copy=False)


def choi_matrix(superop: Superoperator) -> np.ndarray:
    """Unnormalized Choi matrix sum_ij E(|i><j|) kron |i><j|.

    Eigenvalues are >= 0 exactly when the channel is completely positive.
    """
    n = superop.num_qubits
    dim = 2**n
    j = np.zeros((dim * dim, dim * dim), dtype=complex)
    for a in range(dim):
        for b in range(dim):
            unit = np.zeros((dim, dim), dtype=complex)
            unit[a, b] = 1.0
            vec = dense_to_pauli_vec(unit, check=False)
            mapped = pauli_vec_to_dense(superop.matrix.astype(complex) @ vec)
            j += np.kron(mapped, unit)
    return j


_TRACE_PRESERVING_TOL = 1e-9


def average_gate_fidelity(channel: Superoperator, target_unitary: np.ndarray) -> float:
    """Average fidelity of a single-qubit channel against a target unitary.

    Uses the entanglement-fidelity identity
    F = (d * F_pro + 1) / (d + 1) with d = 2 and
    F_pro = tr(R_U^T R) / d^2 in the Pauli transfer representation.
    The channel must be trace preserving to within
    ``_TRACE_PRESERVING_TOL``; a post-selected (subnormalized) one is an
    error.
    """
    if channel.num_qubits != 1:
        raise ValueError("average_gate_fidelity is defined here for one qubit")
    if not channel.is_trace_preserving(_TRACE_PRESERVING_TOL):
        raise ValueError("average gate fidelity needs a trace-preserving channel")
    u = np.asarray(target_unitary, dtype=complex)
    r_u = _unitary_transfer(u.tobytes(), u.shape)
    d = 2.0
    f_pro = float(np.trace(r_u.T @ channel.matrix)) / d**2
    return (d * f_pro + 1.0) / (d + 1.0)


@functools.lru_cache(maxsize=64)
def _unitary_transfer(data: bytes, shape: tuple) -> np.ndarray:
    """Read-only transfer matrix of the unitary with these bytes and shape;
    keyed by value, so editing an array in place cannot return a stale one."""
    matrix = unitary_superop(np.frombuffer(data, dtype=complex).reshape(shape)).matrix
    matrix.flags.writeable = False
    return matrix


def haar_average_fidelity(
    channel: Superoperator,
    target_unitary: np.ndarray,
    num_states: int,
    seed: int,
) -> float:
    """Monte-Carlo estimate of average gate fidelity over Haar-random states.

    Kept as an independent cross-check of :func:`average_gate_fidelity`.
    """
    rng = np.random.default_rng(seed)
    u = np.asarray(target_unitary, dtype=complex)
    total = 0.0
    for _ in range(num_states):
        raw = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi = raw / np.linalg.norm(raw)
        rho = np.outer(psi, psi.conj())
        mapped = channel.apply_dense(rho)
        ideal = u @ psi
        total += float(np.real(ideal.conj() @ mapped @ ideal))
    return total / num_states
