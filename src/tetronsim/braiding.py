"""Measurement-based synthesis of single-qubit Clifford gates.

A short sequence of one- and two-qubit parity measurements between an
auxiliary qubit (initialized and reset in the X basis) and a computational
qubit enacts a Clifford unitary on the computational qubit, up to a Pauli
correction determined by the random measurement outcomes.  Since any
Clifford is reachable from a Pauli-frame update, only the six Pauli
equivalence classes matter: identity, H, S, HSH, SH, and HS.

Sequences here are stored **left to right in application order**.  The
conventional operator notation reads right to left, so the phase-gate
sequence written conventionally as XI.YI.ZZ.XI appears here as
("XI", "ZZ", "YI", "XI").  In each two-letter token the first letter acts on
the auxiliary qubit, the second on the computational qubit.

Every sequence/correction pair is machine-checked by a dense projector
oracle (:func:`verify_sequence_identity`): for each outcome vector the
product of ideal projectors equals, up to a branch-dependent constant,
(|X_out><X_in| on the auxiliary) tensor (correction times class unitary).
The constant is generally complex; its phase cancels in rho -> M rho M+,
leaving a nonnegative density-level scalar |c|^2, which the report carries.

The correction rule is data: each letter is switched on by a signed product
of at most three outcomes, a :class:`~tetronsim.simulator.Parity` equal to
+1.  The noisy runs keep only those parities (at most two per class).
A class map is tomographed in one batched run: the four input states are
initial branches of one ensemble, and the run ends in a probe that reads,
per final branch, the computational qubit's Pauli vector with the auxiliary
traced out, next to the branch's kept parities and its input.  Each
branch's vector gets the signs of its Pauli frame correction, and each
input's branches are summed.  The gate-set suite reads its circuits the
same way, through an end probe of the identity that reads each branch's
trace.  Every run's plan is cached like every plan of the simulator, so a
noise scan lowers each circuit once per plan kind (theta zero or not).
Everything else that does not depend on the noise (circuits, the batched
input, ideal unitaries and their transfer matrices, the gate-set suite's
circuits and initial state) is computed once as well.  A class map is
always compiled first (:class:`_ClassRun`: the compiled read, the input and
frame signs of each final branch, the ideal unitary) and then walked at a
noise point.  A call by class name compiles and walks once; a fidelity scan
compiles once, and each point runs only the plan's numeric pass, the
readout and the fidelity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .channels import NoiseParams, grid_csv, walk_grid
from .pauli import (
    LETTERS,
    PauliString,
    Superoperator,
    average_gate_fidelity,
    pauli_matrix,
    projector,
    unitary_superop,
)
# run_circuit is unused here, but benchmarks/tracing.py wraps braiding.run_circuit by name.
from .simulator import (CircuitBuilder, Circuit, Parity, TrajectoryEnsemble, _CompiledRun,
                        _compile, read_branches, run_circuit)

CLIFFORD_CLASSES = ("identity", "H", "S", "HSH", "SH", "HS")

_TWO_QUBIT_BASES = frozenset({"ZZ", "YY", "YZ", "ZY"})

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
_S = np.diag([1.0, 1.0j])
_UNITARIES = {
    "identity": np.eye(2, dtype=complex),
    "H": _H,
    "S": _S,
    "HSH": _H @ _S @ _H,
    "SH": _S @ _H,
    "HS": _H @ _S,
}


def ideal_unitary(name: str) -> np.ndarray:
    """The class representative unitary (a fresh 2x2 matrix)."""
    _check_class(name)
    return _UNITARIES[name].copy()


def ideal_superop(name: str) -> Superoperator:
    return unitary_superop(ideal_unitary(name))


def _check_class(name: str) -> None:
    if name not in CLIFFORD_CLASSES:
        raise ValueError(f"unknown Clifford class {name!r}; choose from {CLIFFORD_CLASSES}")


# ---------------------------------------------------------------------------
# Sequences and outcome-dependent corrections
# ---------------------------------------------------------------------------

_SEQUENCES = {
    "identity": (),
    "H": ("XI", "ZY", "YI", "XI"),
    "S": ("XI", "ZZ", "YI", "XI"),
    "HSH": ("XI", "ZZ", "ZY", "XI"),
    "SH": ("XI", "ZZ", "ZY", "YI", "XI"),
    "HS": ("XI", "ZY", "ZZ", "YI", "XI"),
}

# Correction exponents: each entry (letter, positions, sign) applies the
# letter when the product of the outcomes at those sequence positions equals
# sign (the empty product is +1, so ("X", (), 1) always applies).  The
# correction operator is the left-to-right product of the applied letters,
# and the achieved computational-qubit action is correction . class-unitary.
_EXPONENTS = {
    "identity": (),
    "H": (("Y", (0, 1, 2), 1), ("X", (), 1)),
    "S": (("Z", (0, 1, 2), 1),),
    "HSH": (("Y", (0, 3), -1), ("X", (1, 2), 1)),
    "SH": (("Y", (0, 2, 3), -1), ("Z", (1, 2), -1)),
    "HS": (("X", (1, 2), 1), ("Z", (0, 1, 3), 1)),
}


@functools.lru_cache(maxsize=None)
def _parities(name: str, slots: tuple) -> tuple:
    """The parities of ``slots`` (the sequence's measurements) that switch on
    the letters of the correction rule of ``name`` reading an outcome."""
    return tuple(Parity([slots[i] for i in pos], sign) for _, pos, sign in _EXPONENTS[name] if pos)


@functools.lru_cache(maxsize=None)
def _correction(name: str, values: tuple) -> PauliString:
    """The correction of a branch whose :func:`_parities` of ``name`` came
    out as ``values``, in order: the left-to-right product of the letters
    that apply, phase dropped; a letter reading no outcome needs sign +1."""
    values = iter(values)
    result = PauliString("I")
    for letter, pos, sign in _EXPONENTS[name]:
        if (next(values) if pos else sign) == 1:
            result, _phase = result.mul_with_phase(PauliString(letter))
    return result


@dataclass(frozen=True)
class ClassSequence:
    """A measurement sequence together with its correction rule."""

    name: str
    measurements: tuple

    def __post_init__(self):
        _check_class(self.name)
        object.__setattr__(self, "measurements", tuple(self.measurements))
        if not self.measurements:
            return
        if self.measurements[0] != "XI" or self.measurements[-1] != "XI":
            raise ValueError("sequences must start and end with the auxiliary X reset")
        for m in self.measurements:
            if len(m) != 2 or any(c not in "IXYZ" for c in m):
                raise ValueError(f"bad measurement token {m!r}")
            if "I" not in m and m not in _TWO_QUBIT_BASES:
                raise ValueError(
                    f"two-qubit basis {m} not device-supported (only {sorted(_TWO_QUBIT_BASES)})"
                )


def sequence_for(name: str) -> ClassSequence:
    """The device-ready measurement sequence for a Clifford class."""
    _check_class(name)
    return ClassSequence(name, _SEQUENCES[name])


def pauli_correction(name: str, outcomes) -> PauliString:
    """Outcome-dependent Pauli frame correction on the computational qubit.

    The returned operator is signless (sign +1 by convention): only the
    conjugation action matters, and overall signs cancel in rho -> P rho P.
    """
    _check_class(name)
    outcomes = tuple(outcomes)
    expected = len(_SEQUENCES[name])
    if len(outcomes) != expected:
        raise ValueError(f"{name} needs {expected} outcomes, got {len(outcomes)}")
    if any(s not in (1, -1) for s in outcomes):
        raise ValueError("outcomes must be +1 or -1")
    return _correction(name, tuple(sign * math.prod(outcomes[i] for i in pos)
                                   for _, pos, sign in _EXPONENTS[name] if pos))


# ---------------------------------------------------------------------------
# Dense projector oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SequenceReport:
    """Exhaustive proportionality check over all outcome vectors.

    ``max_deviation`` is the largest Frobenius residual after fitting the
    branch constant; ``min_weight`` the smallest density-level scalar |c|^2
    over branches (a zero flags an impossible outcome chain, collected in
    ``zero_branches``).
    """

    name: str
    num_branches: int
    max_deviation: float
    min_weight: float
    zero_branches: tuple
    passed: bool


def _correction_matrix(name: str, outcomes) -> np.ndarray:
    m = np.eye(2, dtype=complex)
    for letter, pos, sign in _EXPONENTS[name]:
        if math.prod(outcomes[i] for i in pos) == sign:
            m = m @ pauli_matrix(letter)
    return m


_IDENTITY_TOL = 1e-12  # deviation and weight threshold of the sequence oracle


def verify_sequence_identity(name: str, *, correction_matrix=None) -> SequenceReport:
    """Check the sequence against its correction rule for every outcome.

    For each outcome vector s the product of ideal projectors (applied
    first measurement rightmost) must be proportional to
    |X_{s_last}><X_{s_first}| tensor (correction(s) . U_class).
    ``correction_matrix(name, s)`` can be overridden to probe wrong rules.
    """
    _check_class(name)
    seq = _SEQUENCES[name]
    if not seq:  # the empty identity sequence is vacuously correct
        return SequenceReport(name, 0, 0.0, 1.0, (), True)
    if correction_matrix is None:
        correction_matrix = _correction_matrix
    unitary = ideal_unitary(name)
    x_ket = {
        1: np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
        -1: np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0),
    }

    worst = 0.0
    min_weight = math.inf
    zero_branches = []
    passed = True
    count = 0
    for s in product((1, -1), repeat=len(seq)):
        count += 1
        m = np.eye(4, dtype=complex)
        for token, outcome in zip(seq, s):
            m = projector(token, outcome) @ m
        target = np.kron(
            np.outer(x_ket[s[-1]], x_ket[s[0]].conj()),
            correction_matrix(name, s) @ unitary,
        )
        norm_m = float(np.linalg.norm(m))
        if norm_m < _IDENTITY_TOL:
            zero_branches.append(s)
            continue
        constant = np.vdot(target, m) / np.vdot(target, target)
        deviation = float(np.linalg.norm(m - constant * target))
        weight = float(abs(constant)) ** 2
        worst = max(worst, deviation)
        min_weight = min(min_weight, weight)
        if deviation > _IDENTITY_TOL or weight <= _IDENTITY_TOL:
            passed = False
    return SequenceReport(
        name=name,
        num_branches=count,
        max_deviation=worst,
        min_weight=min_weight,
        zero_branches=tuple(zero_branches),
        passed=passed and not zero_branches,
    )


# ---------------------------------------------------------------------------
# Noisy simulation and tomography
# ---------------------------------------------------------------------------

AUX, COMP = 0, 1


def _measurement_steps(builder: CircuitBuilder, tokens) -> list:
    """Append one step per measurement token; returns the outcome slots."""
    slots = []
    for token in tokens:
        if token[1] == "I":
            slots.append(builder.meas1(AUX, token[0]))
        elif token[0] == "I":
            slots.append(builder.meas1(COMP, token[1]))
        else:
            slots.append(builder.meas2(AUX, COMP, token))
        builder.end_step()
    return slots


@functools.lru_cache(maxsize=None)
def class_circuit(name: str) -> Circuit:
    """The bare two-qubit measurement circuit for a class sequence
    (auxiliary = qubit 0, computational = qubit 1), one measurement per
    step so the idle channel acts on the untouched qubit each step."""
    builder = CircuitBuilder(2)
    _measurement_steps(builder, sequence_for(name).measurements)
    return builder.build()


_TOMO_INPUTS = ("0", "1", "+", "+i")


@functools.lru_cache(maxsize=None)
def _tomography_input() -> "tuple[np.ndarray, np.ndarray]":
    """Read-only support and coefficients of |+> (auxiliary) tensor each
    tomography input, one row per input on their shared support."""
    states = [TrajectoryEnsemble.from_product_state(["+", label]) for label in _TOMO_INPUTS]
    support = functools.reduce(np.union1d, (state.support for state in states))
    coeffs = np.zeros((len(states), support.size))
    for row, state in enumerate(states):
        coeffs[row, np.searchsorted(support, state.support)] = state.coeffs[0]
    support.flags.writeable = False
    coeffs.flags.writeable = False
    return support, coeffs


# The computational qubit's Pauli vector, the auxiliary traced out.
_COMPUTATIONAL_PAULIS = tuple(PauliString("I" + letter) for letter in LETTERS)


@functools.lru_cache(maxsize=None)
def _frame_signs(name: str) -> np.ndarray:
    """Read-only; row c holds, per computational Pauli I, X, Y, Z, -1.0
    where the correction anticommutes with it, else 1.0, for a branch whose
    i-th :func:`_parities` value of ``name`` is -1 iff bit i of c is set."""
    count = sum(1 for _, pos, _ in _EXPONENTS[name] if pos)
    frames = [_correction(name, tuple(1 - 2 * (code >> i & 1) for i in range(count)))
              for code in range(1 << count)]
    table = np.array([[1.0 if f.commutes(PauliString(x)) else -1.0 for x in LETTERS]
                      for f in frames])
    table.flags.writeable = False
    return table


def _branch_frames(name: str, records: np.ndarray) -> np.ndarray:
    """The :func:`_frame_signs` row of ``name`` of each branch, given its
    :func:`_parities` values, one row of ``records`` per branch."""
    return _frame_signs(name)[(records < 0) @ (1 << np.arange(records.shape[1]))]


def _class_transfer(values: np.ndarray, groups: np.ndarray, frames: np.ndarray) -> Superoperator:
    """The one-qubit transfer matrix of a class read, in a fresh array:
    ``values`` holds the computational Pauli vector of each final branch,
    ``groups`` its input and ``frames`` the signs of its frame correction.
    Each input's branches are summed in ascending order."""
    outputs = np.zeros((len(_TOMO_INPUTS), len(LETTERS)))
    np.add.at(outputs, groups, values * frames)
    matrix = np.empty((len(LETTERS), len(LETTERS)))
    np.add(outputs[0], outputs[1], out=matrix[:, 0])
    np.subtract(2.0 * outputs[2], matrix[:, 0], out=matrix[:, 1])
    np.subtract(2.0 * outputs[3], matrix[:, 0], out=matrix[:, 2])
    np.subtract(outputs[0], outputs[1], out=matrix[:, 3])
    matrix *= 0.5
    return Superoperator(matrix, copy=False)


def _tomography_ensemble() -> TrajectoryEnsemble:
    """|+> (auxiliary) tensor each tomography input, one initial branch
    tagged ``("in", label)`` per input, on read-only arrays."""
    support, coeffs = _tomography_input()
    return TrajectoryEnsemble(2, support, coeffs, [{("in", label): 1} for label in _TOMO_INPUTS])


def simulate_class(name: str, noise: NoiseParams = NoiseParams()) -> Superoperator:
    """Exact transfer matrix of the noisy, outcome-corrected class map.

    Runs the instrument sequence once on |+> (auxiliary) tensor the four
    informationally complete computational states |0>, |1>, |+>, |+i>, each
    an initial branch tagged ``("in", label)`` of one ensemble.  The run
    keeps only the record parities the correction rule reads (at most two,
    so at most four branches per input).  Each branch gets its Pauli frame
    correction, the auxiliary is traced out, each input's branches are
    summed, and the one-qubit transfer matrix is assembled from the four
    outputs.  No post-selection: every record is summed over, so the result
    is trace preserving up to numerical error.

    The run ends in a probe of the computational qubit's Pauli vector on
    every final branch (see :func:`~tetronsim.simulator.read_branches`), so
    it builds no ensemble, and its cached plan computes only the columns
    that probe reads.  Each input's branches are summed in ascending order.
    It is the :class:`_ClassRun` of ``name`` compiled for ``noise``'s theta
    kind, walked once.
    """
    return _ClassRun.compile(name, noise.theta).transfer(noise)


def average_class_fidelity(name: str, noise: NoiseParams = NoiseParams()) -> float:
    """Average gate fidelity of the noisy class map against the ideal
    unitary, uniformly over pure input states: the :class:`_ClassRun` of
    ``name`` compiled for ``noise``'s theta kind, walked once."""
    return _ClassRun.compile(name, noise.theta).fidelity(noise)


@dataclass(frozen=True)
class _ClassRun:
    """The class map of :func:`simulate_class`, compiled for every noise
    point of one theta kind: the compiled read (one plan walk per point),
    the input of each final branch, the frame signs of each final branch's
    kept parities and the ideal unitary, all read-only.  A scan builds it
    once and runs :meth:`fidelity` per point."""

    read: _CompiledRun
    groups: np.ndarray
    frames: np.ndarray
    ideal: np.ndarray

    @classmethod
    def compile(cls, name: str, theta: float) -> "_ClassRun":
        circuit = class_circuit(name)
        read = _compile(circuit, _tomography_ensemble(), _parities(name, circuit.slots), None,
                        _COMPUTATIONAL_PAULIS, theta != 0.0)
        groups = np.array(read.plan.groups)
        frames = _branch_frames(name, read.plan.records)
        ideal = ideal_unitary(name)
        for array in (groups, frames, ideal):
            array.flags.writeable = False
        return cls(read, groups, frames, ideal)

    def transfer(self, noise: NoiseParams) -> Superoperator:
        """The class map's transfer matrix at ``noise``, in a fresh array."""
        return _class_transfer(self.read.end_values(noise), self.groups, self.frames)

    def fidelity(self, noise: NoiseParams) -> float:
        # Called through the module global, not bound in the run, so a
        # wrapper set on braiding.average_gate_fidelity sees every point.
        return average_gate_fidelity(self.transfer(noise), self.ideal)


# ---------------------------------------------------------------------------
# Fidelity scans
# ---------------------------------------------------------------------------


@dataclass
class FidelityScan:
    """Average-fidelity grid over single-qubit error rate (rows) and
    assignment error rate (columns) at fixed two-qubit error rate."""

    name: str
    p1_grid: np.ndarray
    pa_grid: np.ndarray
    p2: float
    theta: float
    fidelity: np.ndarray


# The default map's p1 and p_a axes: 21 points in [0, 0.2].
FIDELITY_GRID = np.linspace(0.0, 0.2, 21)
FIDELITY_GRID.flags.writeable = False


def fidelity_scan(
    name: str,
    p1_grid=None,
    pa_grid=None,
    p2: float = 0.1,
    *,
    theta: float = 0.0,
    progress=None,
) -> FidelityScan:
    """Fidelity map of a class sequence; defaults to a 21 x 21 linear grid
    with p1, p_a in [0, 0.2] at p2 = 0.1.

    The class map is compiled once for the scan's theta kind, and each point
    walks it once: the value of :func:`average_class_fidelity` there."""
    _check_class(name)
    run = _ClassRun.compile(name, theta)

    def point(p1: float, pa: float) -> float:
        return run.fidelity(NoiseParams(p_a=pa, p1=p1, p2=p2, theta=theta))

    p1_grid, pa_grid, fidelity = walk_grid(point, p1_grid, pa_grid, FIDELITY_GRID, progress)
    return FidelityScan(name, p1_grid, pa_grid, p2, theta, fidelity)


def scan_to_csv(scan: FidelityScan) -> str:
    fixed = (scan.p2, scan.name)
    return grid_csv("p1,pa,p2,class,fidelity", scan.p1_grid, scan.pa_grid, fixed, (scan.fidelity,))


# ---------------------------------------------------------------------------
# Tomography experiment suite (self-calibrating, reference-corrected)
# ---------------------------------------------------------------------------

_PREP_BASES = ("X", "Y", "Z")
_RESET_ORDERS = ("XZ", "ZX")


def gateset_experiment_suite(name: str, *, reset_order: str = "XZ") -> list:
    """The 9 + 9 tomography circuits for one class.

    Each circuit: a two-measurement non-selective reset of the computational
    qubit (order ``reset_order``), a post-selected preparation measurement,
    then (for the first nine) the class sequence, and a final measurement.
    The last nine omit the class sequence and calibrate preparation and
    readout.  Prep and measure bases each range over X, Y, Z.
    """
    _check_class(name)
    if reset_order not in _RESET_ORDERS:
        raise ValueError(f"reset_order must be 'XZ' or 'ZX', got {reset_order!r}")
    return list(_suite_circuits(name, reset_order))


@functools.lru_cache(maxsize=None)
def _suite_circuits(name: str, reset_order: str) -> tuple:
    """The circuits of :func:`gateset_experiment_suite`, built once per
    class and reset order, as :func:`class_circuit` is."""
    circuits = []
    for with_class in (True, False):
        for meas_basis in _PREP_BASES:
            for prep_basis in _PREP_BASES:
                builder = CircuitBuilder(2)
                for letter in reset_order:
                    builder.meas1(COMP, letter)
                    builder.end_step()
                prep_slot = builder.meas1(COMP, prep_basis)
                builder.end_step()
                if with_class:
                    _measurement_steps(builder, sequence_for(name).measurements)
                builder.meas1(COMP, meas_basis)
                builder.end_step()
                builder.detector(Parity((prep_slot,)))
                circuits.append(builder.build())
    return tuple(circuits)


@dataclass(frozen=True)
class GatesetResult:
    """Conditional final-outcome expectations: rows = measurement basis,
    columns = preparation basis (X, Y, Z order), with and without the class
    sequence, plus the solved transfer matrix."""

    name: str
    with_class: np.ndarray
    reference: np.ndarray
    transfer: Superoperator


@functools.lru_cache(maxsize=None)
def _plus_plus() -> TrajectoryEnsemble:
    """The suite's initial state |+>|+>, on read-only arrays."""
    state = TrajectoryEnsemble.from_product_state(["+", "+"])
    state.support.flags.writeable = False
    state.coeffs.flags.writeable = False
    return state


def _run_tomography_circuit(name: str, circuit: Circuit, noise, with_class: bool) -> float:
    """The final outcome's expectation, frame corrected, given the preparation.

    The run keeps the correction rule's parities and the final record, and
    ends in a probe of the identity, which reads each branch's trace."""
    frame = name if with_class else "identity"  # a reference circuit has no class sequence
    slots = circuit.slots
    reads = read_branches(circuit, noise, _plus_plus(), ("II",),
                          keep_slots=_parities(frame, slots[3:-1]) + (slots[-1],))
    traces = reads.values[:, 0]
    total = sum(traces.tolist())  # summed in branch order, as simulate_class sums
    if total <= 0.0:
        raise ValueError("preparation post-selection left no acceptance")
    letter = LETTERS.index(circuit.steps[-1].ops[0].letter)
    signs = reads.records[:, -1] * _branch_frames(frame, reads.records[:, :-1])[:, letter]
    return sum((signs * traces).tolist()) / total


def run_gateset_suite(name: str, noise: NoiseParams = NoiseParams()) -> GatesetResult:
    """Run the 18-circuit suite exactly and solve for the class map.

    The randomized reset is realized by averaging the two measurement
    orders.  The solve is linear-inversion self-calibration: the raw 3x3
    expectation table of the class circuits times the inverse of the
    reference table.
    """
    tables = {True: np.zeros((3, 3)), False: np.zeros((3, 3))}
    for order in _RESET_ORDERS:
        circuits = gateset_experiment_suite(name, reset_order=order)
        for idx, circuit in enumerate(circuits):
            with_class = idx < 9
            i, j = divmod(idx % 9, 3)
            tables[with_class][i, j] += _run_tomography_circuit(
                name, circuit, noise, with_class
            ) / len(_RESET_ORDERS)
    transfer = solve_gateset(tables[True], tables[False])
    return GatesetResult(name, tables[True], tables[False], transfer)


def solve_gateset(with_class: np.ndarray, reference: np.ndarray) -> Superoperator:
    """Reference-corrected linear inversion.

    Both tables have entry (i, j) = expectation of measuring basis i after
    preparing basis j; the reference table absorbs preparation and readout
    imperfections, so ``with_class @ inv(reference)`` estimates the class
    map's Bloch block up to the usual self-calibration basis freedom.  The
    result is embedded as a unital trace-preserving transfer matrix.
    """
    reference = np.asarray(reference, float)
    with_class = np.asarray(with_class, float)
    if reference.shape != (3, 3) or with_class.shape != (3, 3):
        raise ValueError("expect 3x3 expectation tables")
    if np.linalg.cond(reference) > 1e8:
        raise ValueError("reference experiments are degenerate; cannot calibrate")
    block = with_class @ np.linalg.inv(reference)
    full = np.eye(4)
    full[1:, 1:] = block
    return Superoperator(full)
