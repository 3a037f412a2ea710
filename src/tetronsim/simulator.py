"""Step-clocked measurement circuits and an exact branching density-matrix
simulator.

A circuit is a sequence of steps; each step holds measurements and rotations
acting on disjoint qubits, and every qubit not touched by an operation idles
for that step (accruing the idle channel).  Measurements record a sign into a
numbered slot.  A :class:`Parity` is ``sign`` times the product of the records
of distinct slots; a detector is a parity whose value must be +1, and runs in
which a detector fires are discarded (post-selection), which is how error
detection enters.  A run can keep parities too, and read their values.

The simulator is exact: it propagates the conditional (subnormalized) density
matrix of every surviving record branch.  Three representation choices keep
this tractable:

* States live in the Pauli-coefficient picture (rho = sum_P v_P P / 2^n) and
  only the *support* -- the set of Pauli strings with nonzero coefficient --
  is stored.  Parity measurements and depolarizing never enlarge the support
  beyond the group generated by the initial state and the measured operators,
  so an eight-qubit code patch needs a few hundred coefficients, not 4^8.
  The support evolves identically in every branch, so branches share one
  support array next to a block of coefficients, one per branch and Pauli.
* Branches are merged whenever their future-relevant record information
  agrees.  The eager runner gives every branch a key, one bit per parity of
  a detector still in flight and per kept entry (a caller-requested record
  or :class:`Parity`), instead of its full record history, which
  keeps the branch count bounded by the detector window of the circuit
  rather than growing with circuit depth.  Keys are rows of an integer table
  with a column per bit, so their width has no limit.  Keys, supports and
  gather positions do not depend on the noise numbers, so the eager runner
  first lowers a circuit into a plan (the positions and depolarizing classes
  of every measurement, the split, pinned and pruned branch rows, the merge
  groups, the probe positions) and then runs the plan's numeric pass for the
  noise at hand.  Under a coherent rotation theta != 0 each qubit's Z
  rotation is carried along as a pending number of theta/2 steps and applied
  only before the next op that does not commute with Z there, which keeps
  the rotations few; the plan stores that number and the run resolves it
  against theta.  A plan thus depends only on whether theta is zero, and is
  cached, with no bound, per circuit, initial support, kept entries, probes
  and that flag, so a noise scan lowers each circuit once.
* Many support columns are zero in every branch once the branches are
  summed: a term of one record branch cancels against the same term of
  another.  Which ones does not depend on the noise either, so after a
  witness run at a generic noise point the circuit is lowered again,
  producing only the columns that can be nonzero.  Of those it keeps only
  the columns that the returned state or some probe reads through later
  ops, found by a backward pass over the plan; a pass that drops no
  column costs no lowering.  A run that reads only its
  probes (a decay experiment, a braiding class map, or the sampler, whose
  final observables are an end probe) never computes the columns that
  matter only to the final state.  Lowering fails loudly when a run would
  outgrow the branch or support budget.

Every runner executes such a plan, in two steps, and there is no other
way to a plan.  The compile step, :func:`_compile`, does what the noise
does not touch: it normalizes the kept entries and probes, groups the
initial branches by their tags, looks the plan up in the cache and builds
the entry block.  The walk, :meth:`_CompiledRun.walk`, builds the noise
tables of one point and runs the plan's ops.  :func:`run_circuit` sums the
branches and returns the final state, :func:`probe_circuit` returns only
the probes, :func:`read_branches` reads the final branches one by one
through an end probe, and :func:`sample_circuit` draws its shots from the
branches, at each probe step and at the end, in proportion to their
traces.  Each of them compiles and then walks once; a scan over the noise
points of one theta kind, such as a braiding-fidelity map, compiles once
and walks per point.

The test suite checks every kernel, and whole circuits, against the dense
channel constructors of :mod:`tetronsim.channels`.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .channels import NoiseParams
from .pauli import (
    LETTERS,
    PHASE_EXP,
    PauliString,
    DenseOperator,
    dense_to_pauli_vec,
    pauli_vec_to_dense,
)

# ---------------------------------------------------------------------------
# Circuit data model
# ---------------------------------------------------------------------------

_MEAS_LETTERS = "XYZ"


@dataclass(frozen=True)
class Meas1:
    """Single-qubit parity measurement of one Pauli letter."""

    qubit: int
    letter: str
    slot: int

    def __post_init__(self):
        if self.letter not in _MEAS_LETTERS:
            raise ValueError(f"measurement letter must be X, Y or Z, got {self.letter!r}")

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.qubit,)


@dataclass(frozen=True)
class Meas2:
    """Two-qubit parity measurement; ``letters[0]`` acts on ``qubit_a``."""

    qubit_a: int
    qubit_b: int
    letters: str
    slot: int

    def __post_init__(self):
        if len(self.letters) != 2 or any(c not in _MEAS_LETTERS for c in self.letters):
            raise ValueError(
                f"two-qubit measurement needs two letters from XYZ, got {self.letters!r}"
            )
        if self.qubit_a == self.qubit_b:
            raise ValueError("two-qubit measurement must touch two distinct qubits")

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.qubit_a, self.qubit_b)


@dataclass(frozen=True)
class Rotate:
    """Coherent rotation exp(+i * angle * P) on one qubit about axis P."""

    qubit: int
    axis: str
    angle: float

    def __post_init__(self):
        if self.axis not in _MEAS_LETTERS:
            raise ValueError(f"rotation axis must be X, Y or Z, got {self.axis!r}")
        if not math.isfinite(self.angle):
            raise ValueError(f"rotation angle must be finite, got {self.angle!r}")

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.qubit,)


@dataclass(frozen=True)
class Step:
    ops: tuple

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))


@dataclass(frozen=True, order=True)
class Parity:
    """A signed product of measurement records: its value is ``sign`` (+1 or
    -1) times the records in ``slots``, distinct slots stored sorted.  With
    no slots the value is the constant ``sign``."""

    slots: tuple
    sign: int = 1

    def __post_init__(self):
        slots = tuple(sorted(self.slots))
        if not all(isinstance(s, (int, np.integer)) for s in slots):
            raise TypeError(f"parity slots must be integers, got {slots!r}")
        if len(set(slots)) < len(slots):
            raise ValueError(f"parity {slots} repeats a slot")
        if self.sign not in (1, -1):
            raise ValueError(f"parity sign must be +1 or -1, got {self.sign!r}")
        object.__setattr__(self, "slots", slots)


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    steps: tuple
    detectors: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        object.__setattr__(self, "detectors", tuple(self.detectors))
        # Eager runs look their cached plan up by circuit, so hash it once.
        object.__setattr__(self, "_hash", hash((self.num_qubits, self.steps, self.detectors)))
        seen_slots: dict[int, None] = {}  # insertion-ordered
        for step in self.steps:
            if not isinstance(step, Step):
                raise TypeError(f"circuit steps must be Step instances, got {step!r}")
            used: set[int] = set()
            for op in step.ops:
                if not isinstance(op, (Meas1, Meas2, Rotate)):
                    raise TypeError(f"unknown operation {op!r}")
                for q in op.qubits:
                    if not (0 <= q < self.num_qubits):
                        raise ValueError(f"qubit q{q} outside 0..{self.num_qubits - 1}")
                    if q in used:
                        raise ValueError(f"qubit q{q} touched twice in one step")
                    used.add(q)
                if isinstance(op, (Meas1, Meas2)):
                    if op.slot in seen_slots:
                        raise ValueError(f"slot s{op.slot} recorded twice")
                    seen_slots[op.slot] = None
        for det in self.detectors:
            if not det.slots:
                raise ValueError("detector needs at least one slot")
            for s in det.slots:
                if s not in seen_slots:
                    raise ValueError(f"detector references unrecorded slot s{s}")
        object.__setattr__(self, "slots", tuple(seen_slots))  # in recording order

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # String hashes differ between processes: rebuild, do not copy _hash.
        return (type(self), (self.num_qubits, self.steps, self.detectors))

    # -- text form ---------------------------------------------------------

    def to_text(self) -> str:
        """The text form.  It states the register size on a ``qubits N``
        line only when the operations leave it open: when no operation
        touches the highest qubit."""
        top = max((q for step in self.steps for op in step.ops for q in op.qubits), default=-1)
        lines: list[str] = [] if top + 1 == self.num_qubits else [f"qubits {self.num_qubits}"]
        for step in self.steps:
            lines.append("step")
            for op in step.ops:
                if isinstance(op, Meas1):
                    lines.append(f"M1 {op.letter} q{op.qubit} -> s{op.slot}")
                elif isinstance(op, Meas2):
                    lines.append(
                        f"M2 {op.letters} q{op.qubit_a} q{op.qubit_b} -> s{op.slot}"
                    )
                elif isinstance(op, Rotate):
                    lines.append(f"ROT {op.axis} q{op.qubit} {op.angle!r}")
                else:  # pragma: no cover - constructor forbids this
                    raise TypeError(f"unknown op {op!r}")
        for det in self.detectors:
            slots = " ".join(f"s{s}" for s in det.slots)
            lines.append(f"DET {slots} = {det.sign:+d}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Circuit":
        steps: list[Step] = []
        detectors: list[Parity] = []
        ops: list = []
        in_circuit = False
        max_q = -1
        num_qubits = None

        def close_step():
            if in_circuit:
                steps.append(Step(tuple(ops)))
                ops.clear()

        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            head = parts[0]
            if head == "qubits":
                if len(parts) != 2 or not parts[1].isdigit() or num_qubits is not None:
                    raise ValueError(f"malformed or repeated qubits line: {raw!r}")
                num_qubits = int(parts[1])
            elif head == "step":
                close_step()
                in_circuit = True
            elif head == "M1":
                if len(parts) != 5 or parts[3] != "->":
                    raise ValueError(f"malformed M1 line: {raw!r}")
                q = _parse_ref(parts[2], "q", raw)
                max_q = max(max_q, q)
                ops.append(Meas1(q, parts[1], _parse_ref(parts[4], "s", raw)))
            elif head == "M2":
                if len(parts) != 6 or parts[4] != "->":
                    raise ValueError(f"malformed M2 line: {raw!r}")
                qa = _parse_ref(parts[2], "q", raw)
                qb = _parse_ref(parts[3], "q", raw)
                max_q = max(max_q, qa, qb)
                ops.append(Meas2(qa, qb, parts[1], _parse_ref(parts[5], "s", raw)))
            elif head == "ROT":
                if len(parts) != 4:
                    raise ValueError(f"malformed ROT line: {raw!r}")
                q = _parse_ref(parts[2], "q", raw)
                max_q = max(max_q, q)
                try:
                    angle = float(parts[3])
                except ValueError:
                    raise ValueError(f"bad ROT angle {parts[3]!r} in line {raw!r}") from None
                ops.append(Rotate(q, parts[1], angle))
            elif head == "DET":
                if len(parts) < 4 or parts[-2] != "=":
                    raise ValueError(f"malformed DET line: {raw!r}")
                slots = tuple(_parse_ref(p, "s", raw) for p in parts[1:-2])
                sign = {"+1": 1, "1": 1, "-1": -1}.get(parts[-1])
                if sign is None:
                    raise ValueError(f"bad detector sign {parts[-1]!r}")
                detectors.append(Parity(slots, sign))
            else:
                raise ValueError(f"unrecognized line: {raw!r}")
        close_step()
        if num_qubits is None:
            if max_q < 0:
                raise ValueError("circuit has no operations and no qubits line")
            num_qubits = max_q + 1
        return cls(num_qubits, tuple(steps), tuple(detectors))


def _parse_ref(token: str, prefix: str, raw: str) -> int:
    """The number of a ``q<int>`` or ``s<int>`` reference of line ``raw``:
    decimal digits only, so no sign and no underscore."""
    digits = token[len(prefix):]
    if not (token.startswith(prefix) and digits.isascii() and digits.isdigit()):
        raise ValueError(f"expected {prefix}<int>, got {token!r} in line {raw!r}")
    return int(digits)


class CircuitBuilder:
    """Convenience builder: slots are numbered in recording order."""

    def __init__(self, num_qubits: int):
        self.num_qubits = num_qubits
        self._steps: list[Step] = []
        self._ops: list = []
        self._detectors: list[Parity] = []
        self._next_slot = 0

    def meas1(self, qubit: int, letter: str) -> int:
        slot = self._next_slot
        self._next_slot += 1
        self._ops.append(Meas1(qubit, letter, slot))
        return slot

    def meas2(self, qubit_a: int, qubit_b: int, letters: str) -> int:
        slot = self._next_slot
        self._next_slot += 1
        self._ops.append(Meas2(qubit_a, qubit_b, letters, slot))
        return slot

    def rot(self, qubit: int, axis: str, angle: float) -> None:
        self._ops.append(Rotate(qubit, axis, angle))

    def end_step(self) -> None:
        self._steps.append(Step(tuple(self._ops)))
        self._ops = []

    def detector(self, parity: Parity) -> None:
        self._detectors.append(parity)

    def build(self) -> Circuit:
        if self._ops:
            self.end_step()
        return Circuit(self.num_qubits, tuple(self._steps), tuple(self._detectors))


# ---------------------------------------------------------------------------
# Sparse Pauli-support engine
# ---------------------------------------------------------------------------


def pauli_index(num_qubits: int, pauli: "PauliString | str") -> int:
    """Base-4 index of an unsigned Pauli on the full register."""
    if isinstance(pauli, str):
        pauli = PauliString.from_text(pauli)
    if pauli.num_qubits != num_qubits:
        raise ValueError(
            f"operator on {pauli.num_qubits} qubits does not fit register of {num_qubits}"
        )
    return pauli.index


def op_pauli_index(op, num_qubits: int) -> int:
    if isinstance(op, Meas1):
        return LETTERS.index(op.letter) << (2 * (num_qubits - 1 - op.qubit))
    if isinstance(op, Meas2):
        return (LETTERS.index(op.letters[0]) << (2 * (num_qubits - 1 - op.qubit_a))) | (
            LETTERS.index(op.letters[1]) << (2 * (num_qubits - 1 - op.qubit_b))
        )
    if isinstance(op, Rotate):
        return LETTERS.index(op.axis) << (2 * (num_qubits - 1 - op.qubit))
    raise TypeError(f"not an operation: {op!r}")


def _digit_column(indices: np.ndarray, num_qubits: int, qubit: int) -> np.ndarray:
    return (indices >> (2 * (num_qubits - 1 - qubit))) & 3


def _phase_exponents(p_index: int, indices: np.ndarray, num_qubits: int) -> np.ndarray:
    """Exponent k (mod 4) in P * Q = i^k * unsigned(P xor Q) for each Q."""
    k = np.zeros(indices.shape, dtype=np.int64)
    for q in range(num_qubits):
        pd = (p_index >> (2 * (num_qubits - 1 - q))) & 3
        if pd:
            k += PHASE_EXP[pd][_digit_column(indices, num_qubits, q)]
    return k & 3


def _positions(sorted_support: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Index of each query in the sorted support, or -1 if absent."""
    if sorted_support.size == 0:
        return np.full(queries.shape, -1, dtype=np.int64)
    idx = np.searchsorted(sorted_support, queries)
    idx = np.minimum(idx, sorted_support.size - 1)
    found = sorted_support[idx] == queries
    return np.where(found, idx, -1)


def _index32(pos: np.ndarray) -> np.ndarray:
    """Gather positions with absent entries (-1) pointed at column 0; the
    class arrays next to them zero whatever that column holds."""
    return np.maximum(pos, 0).astype(np.int32)


def _dep_class(indices: np.ndarray, num_qubits: int, qubits: Sequence[int]) -> np.ndarray:
    """Depolarizing class of each Pauli on the touched qubits: bit j is set
    when the Pauli acts nontrivially on ``qubits[j]``."""
    out = np.zeros(indices.shape, dtype=np.int64)
    for j, q in enumerate(qubits):
        out |= (_digit_column(indices, num_qubits, q) != 0).astype(np.int64) << j
    return out


# Measurements and rotations are split into noise-independent structure (a
# lowering) and a numeric pass over a support-major coefficient block: one
# row per Pauli, one column per branch.  The plan, which every runner
# executes, uses these pieces, and so do the ensemble methods, whose
# (branches x support) coefficients they read through a transpose.

_ABSENT_SELF = 4  # self_class of a measured element absent from the input
_CROSS = 5  # the first partner_class of a measurement: its weights follow the self weights
_ABSENT_CROSS = _CROSS + 32  # partner_class of a measured element whose partner is absent
_ROT_ABSENT_SELF = 2  # self_class of a rotated element absent from the input
_ROT_ABSENT_PARTNER = 0  # partner_class of a rotated element whose partner is absent


@dataclass(frozen=True)
class _Lowering:
    """A measurement or rotation lowered against one support.

    Output element j reads input positions ``pos_self[j]`` and
    ``pos_partner[j]``, the partner being the element times the op's Pauli:
    positions in the input support, or, in a plan op's ``reads``, rows of
    the block.  Its two terms are weighted by the entries ``self_class[j]``
    and ``partner_class[j]`` of weight tables that the noise point or the
    rotation angle supplies: one table for a measurement, whose partner
    entries follow its self entries (see :func:`_terms`).  ``pos`` holds
    ``pos_self`` then ``pos_partner``, and ``classes`` the two class
    arrays in the same layout, so a measurement gathers both terms of every
    output with one take; the four halves are views of them.
    """

    pos: np.ndarray  # int32
    classes: np.ndarray  # int8

    @property
    def size(self) -> int:
        """The number of output elements."""
        return len(self.pos) // 2

    @property
    def pos_self(self) -> np.ndarray:
        return self.pos[:self.size]

    @property
    def pos_partner(self) -> np.ndarray:
        return self.pos[self.size:]

    @property
    def self_class(self) -> np.ndarray:
        return self.classes[:self.size]

    @property
    def partner_class(self) -> np.ndarray:
        return self.classes[self.size:]


def _terms(block: np.ndarray, low: _Lowering, weights: np.ndarray, out: np.ndarray,
           signs=None) -> np.ndarray:
    """The outputs of a measurement lowering ``low`` from the rows of the
    support-major ``block``, written into ``out``, a row per output element.

    One take gathers the self and then the partner term of every element,
    and one multiply weights them by ``weights[low.classes]`` (see
    :func:`_meas_weights`).  When ``out`` has twice the columns of
    ``block``, both records are realized: the +1 block, self plus partner,
    fills its first half and the -1 block, self minus partner, its second.
    Otherwise the record is pinned: self plus partner times ``signs`` (one
    per branch; None: all +1)."""
    size, width = low.size, block.shape[1]
    terms = block.take(low.pos, axis=0)
    terms *= weights[low.classes][:, None]
    base, cross = terms[:size], terms[size:]
    if out.shape[1] > width:
        np.subtract(base, cross, out=out[:, width:])
    elif signs is not None:
        cross *= signs
    np.add(base, cross, out=out[:, :width])
    return out


def _lower_measurement(support: np.ndarray, op, num_qubits: int, new_support=None):
    """(support after the measurement, its lowering); the weight table is
    :func:`_meas_weights`.  A given ``new_support``, a subset of that
    support, restricts the output to those columns."""
    n = num_qubits
    p_index = op_pauli_index(op, n)
    if new_support is None:
        k = _phase_exponents(p_index, support, n)
        kept = support[(k & 1) == 0]
        new_support = np.unique(np.concatenate([kept, kept ^ p_index]))
    partner = new_support ^ p_index
    pos = _positions(support, np.concatenate([new_support, partner]))
    c_new = _dep_class(new_support, n, op.qubits)
    flip = _phase_exponents(p_index, new_support, n) != 0
    cross = _CROSS + 4 * c_new + _dep_class(partner, n, op.qubits) + 16 * flip
    absent = np.repeat([_ABSENT_SELF, _ABSENT_CROSS], new_support.size)
    classes = np.where(pos < 0, absent, np.concatenate([c_new, cross]))
    return new_support, _Lowering(_index32(pos), classes.astype(np.int8))


def _meas_weights(arity: int, noise: NoiseParams) -> np.ndarray:
    """Weight table of a one- or two-qubit measurement's terms: the self
    entries a (classes 0 to :data:`_ABSENT_SELF`), then the partner entries
    b (from :data:`_CROSS` on).

    Each sandwich half depolarizes by D1[p1/2] per touched qubit and, for
    two qubits, D2[p2/2]; ``dep[c]`` is the resulting factor of a Pauli of
    class ``c``.  The assignment error damps the cross term by 1 - 2 p_a.
    """
    lam1 = 1.0 - 4.0 * (noise.p1 / 2.0) / 3.0
    if arity == 1:
        dep = (1.0, lam1, 1.0, 1.0)
    else:
        lam2_1 = 1.0 - 4.0 * (noise.p2 / 2.0) / 3.0
        lam2_2 = 1.0 - 8.0 * (noise.p2 / 2.0) / 9.0
        dep = (1.0, lam1 * lam2_1, lam1 * lam2_1, lam1 * lam1 * lam2_2)
    damp = 1.0 - 2.0 * noise.p_a
    a = [0.5 * d * d for d in dep]
    # Entry 16 * flip + 4 * c_new + c_partner of b is the cross product of
    # the two classes, negated for a flipped sign (phi = -1): rounding is
    # symmetric in the sign, so negating equals multiplying by phi.
    cross = [damp * (0.5 * d_new * d_partner) for d_new in dep for d_partner in dep]
    return np.array(a + [0.0] + cross + [-b for b in cross] + [0.0])


def _lower_rotation(support: np.ndarray, p_index: int, num_qubits: int, new_support=None):
    """(support after the rotation exp(i phi P), its lowering); the weight
    tables are diag = (1, cos 2phi, 0) and off = (0, sin 2phi, -sin 2phi).
    A given ``new_support``, a subset of that support, restricts the output."""
    n = num_qubits
    if new_support is None:
        k = _phase_exponents(p_index, support, n)
        grown = support[(k & 1) == 1] ^ p_index
        new_support = np.unique(np.concatenate([support, grown]))
    pos = _positions(support, np.concatenate([new_support, new_support ^ p_index]))
    pos_self, pos_partner = np.split(pos, 2)
    k_new = _phase_exponents(p_index, new_support, n)
    anti = (k_new & 1) == 1
    diag = np.where(pos_self < 0, _ROT_ABSENT_SELF, np.where(anti, 1, 0))
    off = np.where(anti & (pos_partner >= 0), np.where(k_new == 1, 1, 2), _ROT_ABSENT_PARTNER)
    return new_support, _Lowering(_index32(pos), np.concatenate([diag, off]).astype(np.int8))


# The (diag, off) classes of the outputs that a rotation computes, in the
# order it lays their rows out.  Class (0, 0), an output that commutes with
# the axis and that the input holds, is its input column.
_ROTATION_RUNS = ((1, 0), (1, 1), (1, 2), (2, 1), (2, 2), (2, 0))


def _rotation_rows(low: _Lowering, rows: "np.ndarray | None", height: int) -> tuple:
    """What a rotation lowered as ``low`` reads and writes in a block whose
    first ``height`` rows are in use and whose row ``rows[j]`` holds input
    element j (None: row j): ``(pos_self, pos_partner, counts, out_rows)``.

    Only the outputs of the classes :data:`_ROTATION_RUNS` lists are
    computed, ``counts`` of each in that order, into the rows from
    ``height`` on; ``out_rows`` gives the block row of every output, and an
    output that is not computed keeps the row of its input.  The first
    three classes read the block rows ``pos_self``, the middle four the
    rows ``pos_partner``, and the last class reads none."""
    pair = 4 * low.self_class.astype(np.intp) + low.partner_class
    computed = [np.flatnonzero(pair == 4 * diag + off) for diag, off in _ROTATION_RUNS]
    counts = tuple(len(c) for c in computed)
    order = np.concatenate(computed)
    out_rows = _block_rows(rows, low.pos_self).copy()
    out_rows[order] = np.arange(height, height + order.size, dtype=np.int32)
    with_self, with_partner = order[:sum(counts[:3])], order[counts[0]:sum(counts[:5])]
    return (_block_rows(rows, low.pos_self[with_self]),
            _block_rows(rows, low.pos_partner[with_partner]), counts, out_rows)


def _rotate(block: np.ndarray, pos_self, pos_partner, counts: tuple, phi: float,
            out=None) -> np.ndarray:
    """The computed rows of a rotation exp(i phi P) (see :func:`_rotation_rows`)
    from the rows of the support-major ``block``, into ``out`` if given; it
    must not overlap ``block``.  A row with a self term x and a partner
    term y reads cos 2phi x + (+-sin 2phi) y; a row with one term, that term
    alone; a row with none, 0.0."""
    c, s = math.cos(2.0 * phi), math.sin(2.0 * phi)
    n10, n11, n12, n21, n22, n20 = counts
    both, alone = n11 + n12, n21 + n22
    if out is None:
        out = np.empty((sum(counts), block.shape[1]))
    # mode="clip" lets take write into ``out`` unbuffered; plan rows are in range.
    own = block.take(pos_self, axis=0, out=out[:n10 + both], mode="clip")
    own *= c
    partner = block.take(pos_partner[:both], axis=0, mode="clip")
    partner[:n11] *= s
    partner[n11:] *= -s
    own[n10:] += partner
    grown = block.take(pos_partner[both:], axis=0, out=out[n10 + both:n10 + both + alone],
                       mode="clip")
    grown[:n21] *= s
    grown[n21:] *= -s
    out[len(out) - n20:] = 0.0
    return out


def _rotated(coeffs: np.ndarray, low: _Lowering, phi: float) -> np.ndarray:
    """``coeffs`` (branches x support) after the rotation exp(i phi P) that
    ``low`` lowers: :func:`_rotate` through a transpose."""
    size = coeffs.shape[1]
    *reads, rows = _rotation_rows(low, None, size)
    block = _entry_block(coeffs, sum(reads[2]))
    _rotate(block[:size], *reads, phi, block[size:])
    return _support_rows(block, rows, len(low.pos_self)).T


def _sandwich_axes(op, theta: float, num_qubits: int) -> list:
    """Z axes of the coherent rotation halves around a two-qubit measurement
    (none for one-qubit measurements or theta = 0)."""
    if theta == 0.0 or not isinstance(op, Meas2):
        return []
    return [3 << (2 * (num_qubits - 1 - q)) for q in op.qubits]


def _idle_counts(support: np.ndarray, num_qubits: int, qubits: Iterable[int]) -> np.ndarray:
    """Number of idle qubits each Pauli acts on nontrivially."""
    out = np.zeros(support.shape, dtype=np.int8)
    for q in qubits:
        out += _digit_column(support, num_qubits, q) != 0
    return out


def _idle_table(p1: float, num_qubits: int) -> np.ndarray:
    """Idle depolarizing factor of a Pauli touching k idle qubits, indexed
    by k: (1 - 4 p1 / 3)^k."""
    lam = 1.0 - 4.0 * p1 / 3.0
    table = [1.0]
    for _ in range(num_qubits):
        table.append(table[-1] * lam)
    return np.array(table)


_STATE_LABELS = {
    "0": (0.0, 0.0, 1.0),
    "1": (0.0, 0.0, -1.0),
    "+": (1.0, 0.0, 0.0),
    "-": (-1.0, 0.0, 0.0),
    "+i": (0.0, 1.0, 0.0),
    "i": (0.0, 1.0, 0.0),
    "-i": (0.0, -1.0, 0.0),
    "mixed": (0.0, 0.0, 0.0),
}


class TrajectoryEnsemble:
    """All surviving record branches of a run, sharing one Pauli support.

    ``support`` is a sorted int64 array of base-4 Pauli indices; ``coeffs``
    has one row per branch with v_P = tr(P rho_branch).  Each branch's rho is
    subnormalized: its trace is the probability of that branch's records.
    ``tags`` carries per-branch bookkeeping: recorded slots as ("s", slot)
    keys, kept parities as ("s", parity) keys (see :func:`run_circuit`),
    and whatever tags the initial branches bring, such as ("in", label).
    """

    def __init__(self, num_qubits: int, support: np.ndarray, coeffs: np.ndarray, tags: list):
        self.num_qubits = num_qubits
        self.support = support
        self.coeffs = coeffs
        self.tags = tags

    # -- constructors --------------------------------------------------

    @classmethod
    def from_product_state(cls, labels: Sequence) -> "TrajectoryEnsemble":
        """Build from per-qubit labels ("0", "1", "+", "-", "+i", "-i",
        "mixed") or explicit (x, y, z) Bloch tuples."""
        support = np.array([0], dtype=np.int64)
        values = np.array([1.0])
        n = len(labels)
        for q, label in enumerate(labels):
            bloch = _STATE_LABELS.get(label, ()) if isinstance(label, str) else tuple(label)
            if len(bloch) != 3 or any(not math.isfinite(c) for c in bloch):
                raise ValueError(f"bad state spec for qubit {q}: {label!r}; labels are "
                                 f"{', '.join(_STATE_LABELS)} or an (x, y, z) Bloch tuple")
            comps = [(0, 1.0)] + [
                (d, c) for d, c in zip((1, 2, 3), bloch) if c != 0.0
            ]
            shift = 2 * (n - 1 - q)
            support = np.concatenate([support + (d << shift) for d, _ in comps])
            values = np.concatenate([values * c for _, c in comps])
        order = np.argsort(support)
        return cls(n, support[order], values[order][None, :].copy(), [{}])

    @classmethod
    def maximally_mixed(cls, num_qubits: int) -> "TrajectoryEnsemble":
        return cls.from_product_state(["mixed"] * num_qubits)

    @classmethod
    def from_density_matrix(cls, rho: np.ndarray) -> "TrajectoryEnsemble":
        """Single-branch ensemble of a Hermitian matrix of unit trace (to
        1e-9) that is positive semidefinite (no eigenvalue below -1e-10)."""
        rho = np.asarray(rho, dtype=complex)
        vec = dense_to_pauli_vec(rho)
        if abs(vec[0] - 1.0) > 1e-9:
            raise ValueError(f"density matrix has trace {vec[0]!r}, not 1")
        if np.linalg.eigvalsh(rho).min() < -1e-10:
            raise ValueError("density matrix is not positive semidefinite")
        n = max(1, (vec.size.bit_length() - 1) // 2)
        support = np.flatnonzero(vec).astype(np.int64)
        if 0 not in support:
            support = np.concatenate([[0], support])
            support.sort()
        return cls(n, support, vec[support][None, :].copy(), [{}])

    # -- inspection ------------------------------------------------------

    @property
    def num_branches(self) -> int:
        return self.coeffs.shape[0]

    @property
    def branch_traces(self) -> np.ndarray:
        # The support is sorted and non-negative: the identity can only lead it.
        if not self.support.size or self.support[0] != 0:
            return np.zeros(self.num_branches)
        return self.coeffs[:, 0].copy()

    @property
    def total_trace(self) -> float:
        return float(np.sum(self.branch_traces))

    @property
    def records(self) -> list:
        return [
            {key[1]: v for key, v in tag.items() if key[0] == "s"} for tag in self.tags
        ]

    def expectation(self, pauli: "PauliString | str") -> float:
        """tr(O rho) / tr(rho) over the whole surviving ensemble."""
        if isinstance(pauli, str):
            pauli = PauliString.from_text(pauli)
        idx = pauli_index(self.num_qubits, PauliString(pauli.letters))
        pos = _positions(self.support, np.array([idx]))[0]
        num = 0.0 if pos < 0 else float(np.sum(self.coeffs[:, pos])) * pauli.sign
        den = self.total_trace
        if den == 0.0:
            raise ValueError("no accepted weight left; expectation undefined")
        return num / den

    def branch_states(self) -> list:
        """Materialize (records, subnormalized DenseOperator) per branch."""
        out = []
        size = 4**self.num_qubits
        for row, rec in zip(self.coeffs, self.records):
            vec = np.zeros(size)
            vec[self.support] = row
            out.append((rec, DenseOperator(pauli_vec_to_dense(vec), hermitian=True)))
        return out

    def sum_pauli_vec(self) -> np.ndarray:
        """Record-summed state as a full-length Pauli vector."""
        vec = np.zeros(4**self.num_qubits)
        vec[self.support] = self.coeffs.sum(axis=0)
        return vec

    # -- state evolution ------------------------------------------------

    def apply_measurement(self, op: "Meas1 | Meas2", noise: NoiseParams, signs) -> None:
        """Apply one measurement with the given recorded sign(s).

        ``signs`` is +1, -1, or an array with one sign per branch.  The
        branch count is unchanged; use :meth:`split_measurement` to realize
        both records.
        """
        plus, minus, self.support = self._measurement_outputs(op, noise)
        svec = np.asarray(signs, dtype=np.int64)
        if svec.ndim == 0:
            svec = np.full(self.num_branches, int(svec))
        self.coeffs = np.where((svec == 1)[:, None], plus, minus)
        for tag, s in zip(self.tags, svec):
            tag[("s", op.slot)] = int(s)

    def split_measurement(self, op: "Meas1 | Meas2", noise: NoiseParams) -> None:
        """Realize both records of a measurement, doubling the branches.

        Branch order: all +1 children first, then all -1 children.
        """
        plus, minus, self.support = self._measurement_outputs(op, noise)
        self.coeffs = np.concatenate([plus, minus], axis=0)
        new_tags = []
        for s in (1, -1):
            for tag in self.tags:
                new_tags.append({**tag, ("s", op.slot): s})
        self.tags = new_tags

    def _measurement_outputs(self, op, noise: NoiseParams):
        """(+1 block, -1 block, support after the measurement).

        Under theta a two-qubit measurement sits between two halves of the
        coherent Z rotation on each of its qubits; the inner halves act on
        this ensemble, the outer halves on both record blocks.
        """
        n = self.num_qubits
        axes = _sandwich_axes(op, noise.theta, n)
        for axis in axes:
            self._rotate_by_index(axis, noise.theta / 2.0)
        support, low = _lower_measurement(self.support, op, n)
        out = np.empty((low.size, 2 * self.num_branches))
        # +1 branches, then -1 branches
        coeffs = _terms(self.coeffs.T, low, _meas_weights(len(op.qubits), noise), out).T
        if axes:
            self.support, self.coeffs = support, coeffs
            for axis in axes:
                self._rotate_by_index(axis, noise.theta / 2.0)
            support, coeffs = self.support, self.coeffs
        plus, minus = np.split(coeffs, 2)
        return plus, minus, support

    def _rotate_by_index(self, p_index: int, phi: float) -> None:
        if phi == 0.0:
            return
        self.support, low = _lower_rotation(self.support, p_index, self.num_qubits)
        self.coeffs = _rotated(self.coeffs, low, phi)

    def apply_idle(self, qubits: Iterable[int], noise: NoiseParams) -> None:
        """One idle step on the listed qubits: rotate by theta about Z, then
        depolarize by p1."""
        qubits = list(qubits)
        if not qubits:
            return
        n = self.num_qubits
        for q in qubits:
            self._rotate_by_index(3 << (2 * (n - 1 - q)), noise.theta)
        if noise.p1 != 0.0:
            table = _idle_table(noise.p1, len(qubits))
            self.coeffs = self.coeffs * table[_idle_counts(self.support, n, qubits)]

    def apply_pauli(self, pauli: "PauliString | str", rows=None) -> None:
        """Conjugate by a Pauli (frame correction): flips the sign of every
        support element that anticommutes with it."""
        if isinstance(pauli, str):
            pauli = PauliString.from_text(pauli)
        idx = pauli_index(self.num_qubits, PauliString(pauli.letters))
        k = _phase_exponents(idx, self.support, self.num_qubits)
        signs = np.where((k & 1) == 0, 1.0, -1.0)
        if rows is None:
            self.coeffs = self.coeffs * signs
        else:
            self.coeffs[rows] = self.coeffs[rows] * signs

    # -- branch bookkeeping ----------------------------------------------

    def prune(self, keep: np.ndarray) -> None:
        keep = np.asarray(keep, dtype=bool)
        self.coeffs = self.coeffs[keep]
        self.tags = [t for t, k in zip(self.tags, keep) if k]

    def merge(self) -> None:
        """Sum branches whose tags agree; canonical (sorted) branch order.

        A kept entry is a slot or a :class:`Parity`; within a tag kind, slot
        entries sort before parities, so mixed tags stay comparable.
        """
        keys = [
            tuple(sorted(((kind, isinstance(entry, Parity), entry), value)
                         for (kind, entry), value in t.items()))
            for t in self.tags
        ]
        order = sorted(range(len(keys)), key=lambda i: keys[i])
        if not order:
            return
        groups: list[list[int]] = []
        group_keys: list = []
        for i in order:
            if group_keys and keys[i] == group_keys[-1]:
                groups[-1].append(i)
            else:
                groups.append([i])
                group_keys.append(keys[i])
        coeffs = np.empty((len(groups), self.coeffs.shape[1]))
        tags = []
        for g, rows in enumerate(groups):
            coeffs[g] = self.coeffs[rows].sum(axis=0)
            tags.append(dict(self.tags[rows[0]]))
        self.coeffs = coeffs
        self.tags = tags

    def trace_out(self, qubits: Iterable[int]) -> "TrajectoryEnsemble":
        """Partial trace over the listed qubits."""
        drop = sorted(set(qubits))
        n = self.num_qubits
        for q in drop:
            if not 0 <= q < n:
                raise ValueError(f"cannot trace out qubit {q} of a {n}-qubit ensemble")
        keep_qubits = [q for q in range(n) if q not in drop]
        mask = np.ones(self.support.shape, dtype=bool)
        for q in drop:
            mask &= _digit_column(self.support, n, q) == 0
        columns = np.flatnonzero(mask)
        sel = self.support[columns]
        new_idx = np.zeros(sel.shape, dtype=np.int64)
        m = len(keep_qubits)
        for j, q in enumerate(keep_qubits):
            new_idx |= _digit_column(sel, n, q) << (2 * (m - 1 - j))
        order = np.argsort(new_idx)
        coeffs = np.ascontiguousarray(self.coeffs[:, columns[order]])
        return TrajectoryEnsemble(m, new_idx[order], coeffs, [dict(t) for t in self.tags])


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _CompiledDetector:
    """A detector (ident: its index), or a tracked parity (ident: its tag
    key, ``last_slot`` None), which never completes and is read out at the
    end."""

    ident: "int | tuple"
    parity: Parity
    last_slot: "int | None"


def _detectors_by_slot(circuit: Circuit, tracked: Iterable = ()) -> dict:
    """slot -> the detectors and ``tracked`` parities (kept entries, see
    :func:`_normalize_keep`; a slot stands for its record) that read it."""
    seq = {slot: i for i, slot in enumerate(circuit.slots)}
    compiled = [
        _CompiledDetector(i, d, max(d.slots, key=seq.__getitem__))
        for i, d in enumerate(circuit.detectors)
    ] + [
        _CompiledDetector(("s", e), e if isinstance(e, Parity) else Parity((e,)), None)
        for e in tracked
    ]
    by_slot: dict[int, list[_CompiledDetector]] = {}
    for det in compiled:
        for s in det.parity.slots:
            by_slot.setdefault(s, []).append(det)
    return by_slot


@dataclass
class RunResult:
    """Outcome of an exact run.

    ``acceptance`` is the probability that no detector fired.  ``probes``
    maps step index -> {pauli text -> conditional expectation at that step};
    ``probe_acceptance`` gives the acceptance up to the same step.
    """

    ensemble: TrajectoryEnsemble
    acceptance: float
    probes: dict = field(default_factory=dict)
    probe_acceptance: dict = field(default_factory=dict)
    peak_branches: int = 0


def _pauli_list(name: str, paulis) -> tuple:
    """``paulis`` as a tuple of :class:`PauliString`; a bare string or Pauli
    is refused, not read letter by letter."""
    if isinstance(paulis, (str, PauliString)):
        raise ValueError(f"{name} must be a list of Paulis, got the bare {paulis!r}")
    return tuple(PauliString.from_text(p) if isinstance(p, str) else p for p in paulis)


def _normalize_probes(probes, circuit: Circuit) -> tuple:
    """(step index, probed Paulis) pairs, hashable for the plan cache; every
    step must be an integer (not a bool) inside ``circuit``."""
    out: dict[int, tuple] = {}
    if probes:
        for step_i, paulis in probes.items():
            if isinstance(step_i, bool) or not isinstance(step_i, (int, np.integer)):
                raise ValueError(f"probe step {step_i!r} is not an integer")
            if not (0 <= step_i < len(circuit.steps)):
                raise ValueError(f"probe step {step_i} out of range")
            out[int(step_i)] = _pauli_list(f"probes[{step_i}]", paulis)
    return tuple(out.items())


def _normalize_keep(keep_slots, circuit: Circuit) -> tuple:
    """The kept entries, hashable for the plan cache: each a recorded slot
    or a :class:`Parity` of recorded slots, and one entry per slot for
    ``"all"``."""
    if isinstance(keep_slots, str):
        if keep_slots == "all":
            return circuit.slots
        raise ValueError(f"keep_slots must be 'all' or recorded slots, got {keep_slots!r}")
    keep = tuple(keep_slots)
    recorded = set(circuit.slots) if keep else set()
    for entry in keep:
        parity = isinstance(entry, Parity)
        problem = (
            "is neither a slot nor a Parity"
            if not (parity or isinstance(entry, (int, np.integer)))
            else "is an empty product" if parity and not entry.slots
            else "reads a slot the circuit never records"
            if not recorded.issuperset(entry.slots if parity else (entry,))
            else None
        )
        if problem:
            raise ValueError(f"keep_slots must be 'all' or recorded slots (or parities "
                             f"of them); entry {entry!r} {problem}")
    # Each entry is tracked once: a repeat would share, and XOR twice, its column.
    return tuple(dict.fromkeys(e if isinstance(e, Parity) else int(e) for e in keep))


def _check_size(circuit: Circuit, initial: TrajectoryEnsemble) -> None:
    if initial.num_qubits != circuit.num_qubits:
        raise ValueError("initial state size does not match circuit")


# -- the eager runner: a lowering and an executor ---------------------------
#
# The lowering walks the circuit once and records everything that does not
# depend on the noise numbers: supports, gather positions and classes, and
# the branch bookkeeping.  Branches are identified by keys, the rows of a
# small integer table: column 0 is the initial branch group a row descends
# from, every other column holds one bit, the parity so far of a detector in
# flight or of a tracked parity.  A tracked parity (a kept entry) is a
# detector that never completes, so its column lives to the end and is read
# out as the branch's sign for that entry.  The key table evolves the same
# way at every noise point, so the lowering turns it into row maps (splits,
# pinned record signs, pruned rows, merge groups) and the executor never
# looks at a key.

# Loud limits: lowering stops with a ValueError before a run's branch count
# or support grows past these.
_BRANCH_BUDGET = 1 << 16
_SUPPORT_BUDGET = 1 << 15

# The generic noise point of the witness pass (see :func:`_witness_masks`):
# no channel is off (p = 0) or saturated (p_a = 1/2, p1 = 3/4), and no
# rotation by a whole number of theta/2 steps is a quarter turn.
_WITNESS_NOISE = NoiseParams(p_a=0.0731, p1=0.0617, p2=0.0893, theta=0.2113)
_WITNESS_SEED = 1331


# The plan's ops pass one support-major block along: row r holds one Pauli
# of the current support in every branch, and the lowering gives each op the
# rows it reads.  Measurements and merges allocate a fresh block with spare
# rows at its end, which the rotations that follow fill; a rotation writes
# only its new rows, so the block's rows are the support in sorted order
# only until the first rotation after that block was allocated.


@dataclass(frozen=True)
class _RotateOp:
    """Rotation by ``angle`` (a ``Rotate``) plus ``half_turns`` theta/2 steps
    (a deferred coherent Z rotation), resolved against each run's theta.

    ``low`` lowers the rotation against the supports.  The op computes only
    the output columns that anticommute with the axis, and any the input
    lacks, reading the block rows ``pos_self`` and ``pos_partner``, and
    appends them, ``counts`` per class (see :func:`_rotation_rows`), as
    rows ``at`` onward of the block it reads, in spare rows that the
    lowering reserved.  Every other output column is its input column: it
    keeps its row and is never copied.  ``rows`` is the block row of each
    output column."""

    low: _Lowering
    pos_self: np.ndarray
    pos_partner: np.ndarray
    counts: tuple
    at: int
    rows: np.ndarray
    axis: int  # Pauli index of the rotation axis
    angle: float
    half_turns: int

    def run(self, block, tables, reads):
        phi = self.angle + self.half_turns * tables.half_theta
        _rotate(block[:self.at], self.pos_self, self.pos_partner, self.counts, phi,
                block[self.at:self.at + sum(self.counts)])
        return block


@dataclass(frozen=True)
class _MeasureOp:
    """A measurement on every branch, into a fresh block of the output
    support in sorted order plus ``spare`` rows.  ``low`` lowers it against
    the supports and ``reads`` holds the block rows it reads (``low``
    itself when the block holds the support in sorted order), self rows
    then partner rows, which :func:`_terms` gathers in one take.  With
    ``split`` both records are realized (+1 children first); otherwise a
    completing detector pins the record, ``branches`` lists the branches
    that pass the other detectors completing on the same slot (None: all;
    selected from the block's first ``height`` rows) and ``signs`` the
    pinned record of each (None: all +1)."""

    low: _Lowering
    reads: _Lowering
    arity: int
    split: bool
    branches: "np.ndarray | None"
    signs: "np.ndarray | None"
    height: int
    spare: int = 0

    rows = None  # the output column j is row j

    def run(self, block, tables, reads):
        if self.branches is not None:
            block = block[:self.height].take(self.branches, axis=1)
        size = self.reads.size
        out = np.empty((size + self.spare, (1 + self.split) * block.shape[1]))
        _terms(block, self.reads, tables.meas[self.arity], out[:size], self.signs)
        return out


@dataclass(frozen=True)
class _IdleOp:
    counts: np.ndarray  # idle qubits each block row acts on (0: a row no column holds)

    def run(self, block, tables, reads):
        if tables.idle is not None:
            block[:len(self.counts)] *= tables.idle[self.counts][:, None]
        return block


# The largest group that np.add.reduceat sums as a0 + ((a1 + a2) + ...): it
# adds the sum of the other members to the first, and sums up to seven
# terms left to right (more, pairwise).
_SEQUENTIAL_GROUP = 8


def _sum_groups(members: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[:, g]``, the sum of the k >= 2 members ``members[:, g, :]`` of
    group g, added as a0 + ((a1 + a2) + ...): bit for bit what
    np.add.reduceat gives for k up to :data:`_SEQUENTIAL_GROUP`."""
    k = members.shape[2]
    rest = members[:, :, 1]
    if k > 2:
        rest = np.add(rest, members[:, :, 2], out=out)
        for j in range(3, k):
            rest += members[:, :, j]
    return np.add(members[:, :, 0], rest, out=out)


@dataclass(frozen=True)
class _MergeOp:
    """Sum each group of branches: group g is branches
    ``order[starts[g]:starts[g+1]]``, over the block's first ``height``
    rows, into a fresh block with ``spare`` more.  When every group has
    ``k`` members, the member columns are added in np.add.reduceat's order
    (:func:`_sum_groups`); otherwise (``k`` = 0: groups of different sizes
    or of more than :data:`_SEQUENTIAL_GROUP`) reduceat sums them."""

    order: np.ndarray
    starts: np.ndarray
    k: int = 0
    height: int = 0
    spare: int = 0

    def run(self, block, tables, reads):
        out = np.empty((self.height + self.spare, len(self.starts)))
        members = block[:self.height].take(self.order, axis=1)
        if self.k:
            groups = members.reshape(self.height, len(self.starts), self.k)
            _sum_groups(groups, out[:self.height])
        else:
            np.add.reduceat(members, self.starts, axis=1, out=out[:self.height])
        return out


@dataclass(frozen=True)
class _ProbeOp:
    """Appends ``(step, names, block)`` to ``reads``.  The probe block has a
    row per branch: column 0 holds the branch's trace and column j the
    signed tr(P_j rho_b) of the j-th probed Pauli, +0.0 where the support
    lacks the identity or P_j."""

    step: "int | None"  # None: the end probe, after the last step
    names: tuple  # text of each probed Pauli
    columns: np.ndarray  # the probe block columns the support holds
    positions: np.ndarray  # their positions in the support
    rows: np.ndarray  # and their rows in the coefficient block
    signs: np.ndarray  # their signs, 1.0 or -1.0

    def run(self, block, tables, reads):
        out = np.zeros((block.shape[1], 1 + len(self.names)))
        out[:, self.columns] = (block.take(self.rows, axis=0) * self.signs[:, None]).T
        reads.append((self.step, self.names, out))
        return block


class _NoiseTables:
    """What one noise point feeds into the executor."""

    def __init__(self, noise: NoiseParams, num_qubits: int):
        self.meas = {arity: _meas_weights(arity, noise) for arity in (1, 2)}
        self.idle = _idle_table(noise.p1, num_qubits) if noise.p1 != 0.0 else None
        self.half_theta = noise.theta / 2.0


@dataclass(frozen=True)
class _Plan:
    """A lowered eager run.  Its ops pass a support-major block along (see
    :class:`_RotateOp`): the run enters with the initial coefficients
    transposed, in sorted-support order, plus ``spare`` rows, and its final
    column j is block row ``rows[j]`` (row j when ``rows`` is None)."""

    ops: tuple
    support: np.ndarray  # final support, shared read-only by every run
    groups: tuple  # per final branch: its initial branch group
    kept: tuple  # tag keys ("s", entry) of the tracked parities
    records: np.ndarray  # per final branch: each tracked entry's value, +1 or -1
    peak: int
    spare: int  # rows the entry block holds past the initial support
    rows: "np.ndarray | None"


def _merge_keys(keys: np.ndarray):
    """(merged key table, merge op or None when no two branches agree)."""
    if len(keys) < 2:
        return keys, None
    order = np.lexsort(keys.T[::-1])  # sorted rows; equal rows keep their order
    ordered = keys[order]
    starts = np.flatnonzero(np.r_[True, (ordered[1:] != ordered[:-1]).any(axis=1)])
    if len(starts) == len(keys):
        return keys, None
    sizes = np.diff(starts, append=len(keys))
    k = int(sizes[0]) if sizes[0] <= _SEQUENTIAL_GROUP and (sizes == sizes[0]).all() else 0
    return ordered[starts], _MergeOp(order, starts, k)


def _block_rows(rows: "np.ndarray | None", positions: np.ndarray) -> np.ndarray:
    """The block rows of the support ``positions`` (int32), given the block
    row of each support element (None: row j holds element j)."""
    return positions if rows is None else rows[positions]


def _probe_op(step_i: int, support: np.ndarray, rows, paulis, num_qubits: int) -> _ProbeOp:
    indices = [0] + [pauli_index(num_qubits, p) for p in paulis]
    positions = _positions(support, np.array(indices, dtype=np.int64))
    columns = np.flatnonzero(positions >= 0)
    signs = np.array([1.0] + [float(p.sign) for p in paulis])
    return _ProbeOp(step_i, tuple(str(p) for p in paulis), columns, positions[columns],
                    _block_rows(rows, positions[columns]), signs[columns])


def _xy_qubits(p_index: int, num_qubits: int) -> list:
    """Qubits on which a Pauli acts as X or Y, i.e. does not commute with Z."""
    return [q for q in range(num_qubits) if _digit_column(p_index, num_qubits, q) in (1, 2)]


def _lower(circuit: Circuit, support, groups, keep, probe_map, rotating: bool,
           outputs=None) -> "tuple[_Plan, list]":
    """Lower an eager run of ``circuit`` from ``support`` into a plan, and
    list the support each measurement and rotation produces, in walk order.

    ``groups`` gives the initial branch group of every input branch, ``keep``
    the kept entries (see :func:`_normalize_keep`), each tracked as a
    parity.  ``probe_map`` maps a step index to the Paulis probed after that
    step; a ``None`` key adds an end probe after the last step, for a run
    that reads its probes and not its final state.  With ``rotating``
    (theta != 0) the plan also holds the coherent rotation ops.  Their
    angles are whole numbers of theta/2 steps and their supports and gathers
    do not depend on the angle, so one plan serves every nonzero theta.

    ``outputs``, if given, restricts each measurement and rotation, in walk
    order, to a subset of the support it produces (see :func:`_cached_plan`).

    The coherent Z rotations (measurement sandwich halves, idle steps) are
    deferred: each qubit carries a pending number of theta/2 steps, emitted
    as one rotation only before something that does not commute with Z there
    (a measurement or probed Pauli with X or Y on the qubit, or a ``Rotate``
    on it) and at the end of the walk.  Pending qubits flush in ascending
    order: all of them at the end of a walk that returns its final state,
    and at a probe, the end probe included, those on which some probed
    Pauli has X or Y, so a probed column goes through the same rotations
    as the final state's.  This is exact: the depolarizing
    channels are invariant under local unitaries, assignment flips act on
    records only, and pins, prunes and merges act row by row.  A flushed
    rotation computes only its outputs that anticommute with Z there and
    appends them as rows of the block it reads (see :class:`_RotateOp`),
    so the lowering tracks the block row of every support element and
    reserves, in the block of the last measurement or merge before the
    rotations (or the entry block), the spare rows they append.
    """
    n = circuit.num_qubits
    dets_by_slot = _detectors_by_slot(circuit, keep)
    keys = np.array(groups, dtype=np.int32)[:, None]
    free: list = []  # key columns no detector holds
    det_col: dict = {}
    peak = len(keys)
    ops: list = []
    produced: list = []  # the support each measurement and rotation produces
    outputs = iter(() if outputs is None else outputs)
    pending = [0] * n  # deferred theta/2 steps of Z rotation per qubit
    step_i = 0  # the step being lowered; the closing rotations belong to the last
    # The block the run holds: the row of each support element (None: row j
    # holds element j), the rows in use, and the op that allocated it (None:
    # the entry) with the rows that op fills; spares[op] counts the rows the
    # rotations after it append.
    rows = None
    height = support.size
    block_op, filled = None, support.size
    spares: dict = {}
    # Once the support stops growing, a measurement, rotation or idle step
    # repeats against the same support, rows (and output) round after round;
    # those rounds share one lowering.
    lowered: dict = {}

    def column() -> int:
        nonlocal keys
        if free:
            return free.pop()
        keys = np.concatenate([keys, np.zeros((len(keys), 1), dtype=np.int32)], axis=1)
        return keys.shape[1] - 1

    def memoized(key: tuple, lower_fn):
        memo = (support.tobytes(), None if rows is None else rows.tobytes(), height) + key
        if memo not in lowered:
            lowered[memo] = lower_fn(support)
        return lowered[memo]

    def check_budget(branches: int) -> None:
        if branches > _BRANCH_BUDGET or support.size > _SUPPORT_BUDGET:
            raise ValueError(
                f"step {step_i}: the run would hold {branches} branches on {support.size} "
                f"support terms, over the budget of {_BRANCH_BUDGET} branches and "
                f"{_SUPPORT_BUDGET} terms"
            )

    def reads_of(low: _Lowering) -> _Lowering:
        """``low`` reading block rows in place of support positions."""
        if rows is None:
            return low
        return _Lowering(rows[low.pos], low.classes)

    def lower(key: tuple, lower_fn) -> list:
        """``lower_fn(input support, output subset or None)`` returns the
        support produced and what the op needs."""
        nonlocal support
        out = next(outputs, None)
        key += (None if out is None else out.tobytes(),)
        support, *lowering = memoized(key, lambda sup: lower_fn(sup, out))
        produced.append(support)
        check_budget(len(keys))
        return lowering

    def allocated(size: int) -> None:
        """The op just added allocates a fresh block and fills ``size`` rows."""
        nonlocal block_op, filled, height
        block_op, filled, height = len(ops) - 1, size, size

    def lower_rotation(axis: int, sup, out):
        new_support, low = _lower_rotation(sup, axis, n, out)
        return new_support, low, *_rotation_rows(low, rows, height)

    def rotate(axis: int, angle: float, half_turns: int) -> None:
        nonlocal rows, height
        low, pos_self, pos_partner, counts, new_rows = lower(
            (axis,), functools.partial(lower_rotation, axis))
        ops.append(_RotateOp(low, pos_self, pos_partner, counts, height, new_rows, axis, angle,
                             half_turns))
        rows, height = new_rows, height + sum(counts)
        spares[block_op] = height - filled

    def lower_measurement(op, sup, out):
        new_support, low = _lower_measurement(sup, op, n, out)
        return new_support, low, reads_of(low)

    def idle_counts(idle, sup):
        counts = _idle_counts(sup, n, idle)
        if rows is None:
            return counts
        by_row = np.zeros(height, dtype=counts.dtype)
        by_row[rows] = counts
        return by_row

    def flush(qubits) -> None:
        for q in qubits:
            if pending[q]:
                rotate(3 << (2 * (n - 1 - q)), 0.0, pending[q])
                pending[q] = 0

    def probe(at) -> None:
        paulis = probe_map[at]
        flush(sorted({q for p in paulis for q in _xy_qubits(pauli_index(n, p), n)}))
        ops.append(_probe_op(at, support, rows, paulis, n))

    check_budget(len(keys))
    for step_i, step in enumerate(circuit.steps):
        measured: set = set()
        for op in step.ops:
            if isinstance(op, Rotate):
                if op.angle != 0.0:
                    flush(op.qubits)
                    rotate(op_pauli_index(op, n), op.angle, 0)
                continue
            measured.update(op.qubits)
            p_index = op_pauli_index(op, n)
            half = int(rotating and isinstance(op, Meas2))  # one theta/2 step
            for q in op.qubits:
                pending[q] += half
            flush(_xy_qubits(p_index, n))
            low, reads = lower((p_index, op.qubits), functools.partial(lower_measurement, op))
            here = dets_by_slot.get(op.slot, ())
            for d in here:
                if d.ident not in det_col:
                    det_col[d.ident] = column()
            completing = [d for d in here if d.last_slot == op.slot]
            split = not completing
            if split:
                check_budget(2 * len(keys))
                neg = np.repeat([False, True], len(keys))
                keys = np.concatenate([keys, keys])
            else:
                # The first completing detector pins the record: its value
                # must come out +1.
                d0 = completing[0]
                neg = (keys[:, det_col[d0.ident]] != 0) ^ (d0.parity.sign == -1)
            for d in here:
                keys[:, det_col[d.ident]] ^= neg
            ok = np.ones(len(keys), dtype=bool)
            for d in completing:
                col = det_col.pop(d.ident)
                ok &= keys[:, col] == (d.parity.sign == -1)
                keys[:, col] = 0
                free.append(col)
            branches = signs = None
            if not ok.all():
                branches = np.flatnonzero(ok)
                keys, neg = keys[ok], neg[ok]
            if not split and neg.any():
                signs = np.where(neg, -1, 1).astype(np.int8)
            ops.append(_MeasureOp(low, reads, len(op.qubits), split, branches, signs, height))
            rows = None
            allocated(support.size)
            for q in op.qubits:
                pending[q] += half
            peak = max(peak, len(keys))
        idle = [q for q in range(n) if q not in measured]
        if rotating:
            for q in idle:
                pending[q] += 2  # a whole theta per idle step
        counts = memoized(("idle",) + tuple(idle), functools.partial(idle_counts, idle))
        if counts.any():
            ops.append(_IdleOp(counts))
        keys, merge = _merge_keys(keys)
        if merge is not None:
            ops.append(replace(merge, height=height))
            allocated(height)
        if step_i in probe_map:
            probe(step_i)

    if None in probe_map:
        probe(None)
    else:
        flush(range(n))

    for i, spare in spares.items():
        if i is not None:
            ops[i] = replace(ops[i], spare=spare)
    groups = tuple(int(g) for g in keys[:, 0])
    kept = tuple(("s", entry) for entry in keep)
    signs = np.array([e.sign if isinstance(e, Parity) else 1 for e in keep], dtype=np.int8)
    records = np.where(keys[:, [det_col[key] for key in kept]] != 0, -signs, signs)
    plan = _Plan(tuple(ops), support, groups, kept, records, max(peak, len(keys)),
                 spares.get(None, 0), rows)
    return plan, produced


def _entry_block(coeffs: np.ndarray, spare: int) -> np.ndarray:
    """The support-major block a plan starts from: ``coeffs`` (branches x
    support) transposed, plus ``spare`` rows."""
    block = np.empty((coeffs.shape[1] + spare, coeffs.shape[0]))
    block[:coeffs.shape[1]] = coeffs.T
    return block


def _support_rows(block: np.ndarray, rows: "np.ndarray | None", size: int) -> np.ndarray:
    """The rows of a support of ``size`` columns in sorted-support order,
    given the block row of each (None: row j holds column j)."""
    return block[:size] if rows is None else block.take(rows, axis=0)


def _walk(plan: _Plan, coeffs: np.ndarray, tables, reads: list):
    """Run ``plan`` from ``coeffs`` (branches x support), and yield the
    support-major rows of each support :func:`_witness_masks` lists, in
    sorted-support order, where they are next read: the initial support
    first, then the output of each measurement or rotation just before the
    next one, and the final support at the end."""
    block = _entry_block(coeffs, plan.spare)
    at, size = None, coeffs.shape[1]  # the block rows of the support read next, and its size
    for op in plan.ops:
        if isinstance(op, (_MeasureOp, _RotateOp)):
            yield _support_rows(block, at, size)
            at, size = op.rows, op.low.size
        block = op.run(block, tables, reads)
    yield _support_rows(block, at, size)


def _witness_masks(plan: _Plan, num_qubits: int, rows: int, columns: int) -> list:
    """Which columns of each support can be nonzero.

    Runs ``plan`` once at :data:`_WITNESS_NOISE` from random coefficients
    on ``rows`` x ``columns``.  Entry k marks the columns of the support the
    k-th measurement or rotation produces that are nonzero in some branch
    where they are next read: just before the next measurement or rotation,
    or at the end (see :func:`_walk`, which reads each column at its block
    row).  Entry 0, the initial support, keeps every column.  Every
    coefficient is a polynomial in the noise tables and the initial
    coefficients, so one that is exactly 0.0 at this generic point is zero
    at every point; one that is merely small is kept.  This forward pass
    finds the columns that can be nonzero; the backward pass
    :func:`_needed_masks` keeps those of them that some read depends on.
    """
    tables = _NoiseTables(_WITNESS_NOISE, num_qubits)
    # Uniform in [-1, 1) from the standard library's generator, which numpy
    # imports anyway; importing numpy.random would add megabytes to a run.
    bits = np.frombuffer(random.Random(_WITNESS_SEED).randbytes(8 * rows * columns), np.uint64)
    coeffs = ((bits >> np.uint64(11)) * 2.0**-52 - 1.0).reshape(rows, columns)
    # map, unlike a loop variable, drops each gathered support before the walk goes on.
    masks = list(map(lambda support_rows: support_rows.any(axis=1),
                     _walk(plan, coeffs, tables, [])))
    masks[0] = np.ones(columns, dtype=bool)
    return masks


_ABSENT_READS = {_MeasureOp: (_ABSENT_SELF, _ABSENT_CROSS),
                 _RotateOp: (_ROT_ABSENT_SELF, _ROT_ABSENT_PARTNER)}


def _needed_masks(plan: _Plan, witness: list) -> list:
    """The columns a restricted lowering keeps (see :func:`_cached_plan`):
    per support that :func:`_witness_masks` lists, the columns that
    ``witness`` marks as possibly nonzero (every column, or those the
    witness run finds) and that something the run returns depends on.

    A backward pass over ``plan``, the dual of the witness run.  A plan that
    returns its final state reads every final column; one that ends in an
    end probe (see :func:`_lower`) reads only what its probes read.  A probe
    reads the identity and its probed columns; a kept output column of a
    measurement or rotation reads the ``pos_self`` and ``pos_partner``
    inputs of the op's ``low``, except through the absent class, whose
    weight is 0.  A rotation output that commutes with the axis is its
    input column, so its need passes straight through to that column; one
    that anticommutes reads its input column and its partner.  Idle ops,
    merges and branch selection keep columns where they are.  Which columns
    are needed depends on the plan only, not on the noise.  Entry 0, the
    initial support, keeps every column, as in ``witness``.
    """
    k = len(witness) - 1
    last = plan.ops[-1] if plan.ops else None
    need = np.full(witness[k].size, not (isinstance(last, _ProbeOp) and last.step is None))
    masks = list(witness)
    for op in reversed(plan.ops):
        if isinstance(op, _ProbeOp):
            need[op.positions] = True
        elif isinstance(op, (_MeasureOp, _RotateOp)):
            kept = masks[k] = witness[k] & need
            k -= 1
            absent_self, absent_partner = _ABSENT_READS[type(op)]
            low = op.low
            need = np.zeros(witness[k].size, dtype=bool)
            need[low.pos_self[kept & (low.self_class != absent_self)]] = True
            need[low.pos_partner[kept & (low.partner_class != absent_partner)]] = True
    return masks


@functools.lru_cache(maxsize=None)
def _cached_plan(circuit, support: bytes, groups, keep, probes: tuple, rotating) -> _Plan:
    """The plan every runner executes; arguments are hashable stand-ins for
    those of :func:`_lower`, so a ``(None, Paulis)`` pair in ``probes``
    lowers an end probe in place of the final state.

    Two pruning passes follow the first lowering, and each restricts every
    measurement and rotation to a subset of the support it produced in the
    lowering before.  The first keeps the columns that the final state or a
    probe reads through later ops, taking every column as nonzero
    (:func:`_needed_masks`).  The second also drops every column that a
    witness run of the plan finds zero where it is next read
    (:func:`_witness_masks`), and what then goes unread.  A pass that drops
    no column would lower the same plan again, so the circuit is lowered
    again only after a pass that drops one.  A column that no kept column
    reads enters no kept number, so dropping it changes no value a run
    returns: each kept column goes through the same floating-point
    operations as it would with every column.  The witness runs the smaller
    plan, so it reserves and fills fewer rows.

    The cache has no bound.  A process holds one plan per distinct run it
    makes (the gate-set suite of :mod:`tetronsim.braiding` needs 108 per
    plan kind), and a count bound would not bound memory: a braiding class
    plan holds about a kilobyte of arrays, a forty-round theta != 0 logical
    decay plan over ten megabytes."""
    initial = np.frombuffer(support, np.int64)
    args = (circuit, initial, groups, keep, dict(probes), rotating)
    plan, produced = _lower(*args)
    for witnessed in (False, True):
        if witnessed:
            nonzero = _witness_masks(plan, circuit.num_qubits, len(groups), initial.size)
        else:
            nonzero = [np.ones(sup.size, dtype=bool) for sup in (initial, *produced)]
        masks = _needed_masks(plan, nonzero)[1:]
        if all(mask.all() for mask in masks):
            continue
        del plan  # hold one plan at a time
        plan, produced = _lower(*args, (sup[mask] for sup, mask in zip(produced, masks)))
    # Every run's ensemble, or branch reads, shares these.
    plan.support.flags.writeable = False
    plan.records.flags.writeable = False
    return plan


def _branch_groups(tags: list) -> "tuple[tuple, list]":
    """Group index of every branch by its tags, and the tags of each group."""
    index: dict = {}
    first: list = []
    groups = []
    for tag in tags:
        key = frozenset(tag.items())
        if key not in index:
            index[key] = len(first)
            first.append(tag)
        groups.append(index[key])
    return tuple(groups), first


@dataclass(frozen=True)
class _CompiledRun:
    """A run of one circuit from one initial ensemble, with its kept entries
    and probes, compiled for every noise point of one plan kind (theta zero
    or not): the cached plan, the entry block and the tags of each initial
    branch group.  :meth:`walk` runs the numeric pass for one noise point.

    The entry block is the initial coefficients transposed plus the plan's
    spare rows (see :class:`_Plan`), read-only: each walk starts from a copy,
    since the first ops may write into it.  Nothing a walk returns is shared
    with the run or with another walk, so one compiled run serves a whole
    scan."""

    plan: _Plan
    entry: np.ndarray
    group_tags: list
    num_qubits: int
    rotating: bool  # the plan kind: theta != 0

    def walk(self, noise: NoiseParams) -> "tuple[np.ndarray, list]":
        """The last block and the probe reads in walk order (see
        :class:`_ProbeOp`) at ``noise``, which must be of the plan's kind."""
        if (noise.theta != 0.0) != self.rotating:
            kind = "theta != 0" if self.rotating else "theta = 0"
            raise ValueError(f"a run compiled for {kind} cannot run theta = {noise.theta!r}")
        tables = _NoiseTables(noise, self.num_qubits)
        block = self.entry.copy()
        reads: list = []
        for op in self.plan.ops:
            block = op.run(block, tables, reads)
        return block, reads

    def end_values(self, noise: NoiseParams) -> np.ndarray:
        """The end probe's reads at ``noise``: per final branch, tr(P rho_b)
        of each of its Paulis, signed (the trace column left out)."""
        return self.walk(noise)[1][-1][2][:, 1:]


def _compile(circuit: Circuit, initial: TrajectoryEnsemble, keep_slots, probes,
             finals: "tuple | None", rotating: bool) -> _CompiledRun:
    """Compile a run of ``circuit`` from ``initial`` for the plan kind
    ``rotating`` (theta != 0), keeping ``keep_slots`` (see
    :func:`_normalize_keep`) and probing ``probes``.

    With ``finals`` (Paulis, possibly none) the run ends in a probe of them
    instead of returning its final state: the last read is that end probe,
    and the last block holds only the columns it reads.  Otherwise the last
    block holds the final state's columns, in the support-major layout of
    :class:`_Plan`."""
    keep = _normalize_keep(keep_slots, circuit)
    probes = _normalize_probes(probes, circuit)
    if finals is not None:
        probes += ((None, finals),)
    _check_size(circuit, initial)
    groups, group_tags = _branch_groups(initial.tags)
    plan = _cached_plan(circuit, initial.support.tobytes(), groups, keep, probes, rotating)
    entry = _entry_block(initial.coeffs, plan.spare)
    entry.flags.writeable = False
    return _CompiledRun(plan, entry, group_tags, circuit.num_qubits, rotating)


def _summed_probes(reads: list) -> "tuple[dict, dict]":
    """The ``probes`` and ``probe_acceptance`` of a :class:`RunResult`:
    each probe block column summed over the branches, over the summed
    trace."""
    probes, acceptance = {}, {}
    for step_i, names, block in reads:
        tr = float(np.sum(block[:, 0]))
        acceptance[step_i] = tr
        probes[step_i] = {name: float(np.sum(block[:, j])) / tr if tr > 0.0 else math.nan
                          for j, name in enumerate(names, 1)}
    return probes, acceptance


def run_circuit(
    circuit: Circuit,
    noise: NoiseParams,
    initial: TrajectoryEnsemble,
    *,
    keep_slots: "Iterable[int] | str" = (),
    probes: "Mapping[int, Iterable] | None" = None,
) -> RunResult:
    """Exact run: propagate every record branch, discard detected branches.

    Detectors are evaluated as soon as their last slot is recorded, the
    records of detector-determined measurements are forced, and branches that
    agree on all future-relevant information are merged.  The run follows a
    plan lowered from the circuit; the plan does not depend on the noise
    numbers and is cached, so repeated runs do only the numeric pass.

    Each call compiles the run (normalized entries and probes, branch
    groups, the cached plan, the entry block) and walks it once at
    ``noise``.  The plan computes only the Pauli columns that can be
    nonzero and that the final state or a probe reads.  Restricted first to
    the columns that some later op reads, it leaves out every column that a
    witness run of that plan, at a generic noise point and from random initial
    coefficients, finds exactly 0.0 in every branch just before the next
    measurement or rotation reads it (or at the end), and every column that
    then goes unread; it is lowered again only when a pass drops a column
    (see :func:`_cached_plan`).  Since the final state is
    returned, every final column that can be nonzero is computed;
    :func:`probe_circuit` gives the same probes from a plan that also leaves
    out the columns only the final state reads.  Each coefficient is a
    polynomial in the noise tables and the initial coefficients, and one
    that is not identically zero is exactly zero at a generic point only by
    accident (Schwartz-Zippel), so a dropped column is zero at every noise
    point; small values are never dropped.  The final ensemble's support
    therefore omits Paulis whose coefficient is zero in every branch, and
    its entries may differ from an unpruned run by the rounding residue the
    cancellations leave (about one ulp).  A run that would hold more than
    the branch or support budget raises ``ValueError`` while the plan is
    lowered.

    ``keep_slots`` lists what must remain distinguishable in the final
    ensemble, e.g. to drive outcome-dependent corrections afterwards.  An
    entry is a slot, or a :class:`Parity` with at least one slot; every slot
    must be one of ``circuit.slots``, and ``"all"`` keeps every slot.  Every
    final branch is tagged with each entry's value (the record of a slot) under
    ``("s", entry)``, so ``ensemble.records[Parity((0, 1, 2), -1)]`` is +1
    or -1; branches that agree on all entries are merged.
    """
    run = _compile(circuit, initial, keep_slots, probes, None, noise.theta != 0)
    block, reads = run.walk(noise)
    plan = run.plan
    # One row per final branch, one column per Pauli of the final support.
    coeffs = np.ascontiguousarray(_support_rows(block, plan.rows, plan.support.size).T)
    tags = []
    for group, records in zip(plan.groups, plan.records.tolist()):
        tag = dict(run.group_tags[group])
        tag.update(zip(plan.kept, records))
        tags.append(tag)
    ensemble = TrajectoryEnsemble(circuit.num_qubits, plan.support, coeffs, tags)
    probe_values, probe_acceptance = _summed_probes(reads)
    return RunResult(ensemble, ensemble.total_trace, probe_values, probe_acceptance, plan.peak)


def probe_circuit(
    circuit: Circuit,
    noise: NoiseParams,
    initial: TrajectoryEnsemble,
    probes: "Mapping[int, Iterable]",
) -> "tuple[dict, dict]":
    """The ``probes`` and ``probe_acceptance`` of :func:`run_circuit` with
    the same arguments, equal to them bit for bit, without the final state.

    Its plan computes only the Pauli columns that some probe reads, so a
    run that needs its probes alone (a decay experiment) skips the columns
    that matter only to the final state.  It is the plan of a
    :func:`sample_circuit` call with the same probes and no final
    observables, so exact and sampled runs of one circuit share it.
    """
    _, reads = _compile(circuit, initial, (), probes, (), noise.theta != 0).walk(noise)
    return _summed_probes(reads[:-1])  # the last read is the end probe


@dataclass(frozen=True)
class BranchReads:
    """The final branches of a run (see :func:`read_branches`).  Final
    branch b descends from initial branch group ``groups[b]``, the index of
    its tags among the distinct tags of the initial branches in order of
    first appearance.  ``records[b]`` holds each kept entry's value, +1 or
    -1 (read-only), and ``values[b]`` tr(P rho_b) for each observable P:
    the identity's is the branch's trace."""

    groups: np.ndarray
    records: np.ndarray
    values: np.ndarray


def read_branches(
    circuit: Circuit,
    noise: NoiseParams,
    initial: TrajectoryEnsemble,
    observables: Iterable,
    *,
    keep_slots: "Iterable[int] | str" = (),
) -> BranchReads:
    """The kept entries and the ``observables`` of each final branch of
    :func:`run_circuit` with the same arguments, without the final state:
    the values are the final ensemble's columns, signed, bit for bit (+0.0
    for a Pauli its support lacks).

    The run ends in a probe of ``observables``, as :func:`sample_circuit`
    does, so its plan computes only the columns that this probe reads, and
    ``values`` are the Pauli columns of that probe's block.
    """
    finals = _pauli_list("observables", observables)
    run = _compile(circuit, initial, keep_slots, None, finals, noise.theta != 0)
    return BranchReads(np.array(run.plan.groups), run.plan.records, run.end_values(noise))


@dataclass
class SampleResult:
    """Monte-Carlo estimate from sampled shots (see :func:`sample_circuit`).

    Each probe step and the end of the run draw their own ``shots`` shots;
    ``accepted`` counts the shots of the final draw that no detector
    rejected, and ``probe_accepted`` maps each probe step to the accepted
    shots of its draw.  Expectations are averages over accepted shots of
    each shot's branch-conditional expectation, with standard errors.
    """

    shots: int
    accepted: int
    probes: dict = field(default_factory=dict)
    probe_stderr: dict = field(default_factory=dict)
    final: dict = field(default_factory=dict)
    final_stderr: dict = field(default_factory=dict)
    probe_accepted: dict = field(default_factory=dict)

    @property
    def acceptance(self) -> float:
        return self.accepted / self.shots if self.shots else math.nan


def _require_count(name: str, value, least: int = 1) -> None:
    """Reject anything but an integer >= ``least`` (1 or 0), bools too."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        kind = "positive" if least else "non-negative"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")


def sample_circuit(
    circuit: Circuit,
    noise: NoiseParams,
    initial: TrajectoryEnsemble,
    shots: int,
    seed: int,
    *,
    probes: "Mapping[int, Iterable] | None" = None,
    final_observables: Iterable = (),
) -> SampleResult:
    """Draw ``shots`` shots from the branches of an exact run.

    The circuit runs exactly, through the plan of :func:`probe_circuit`
    with ``final_observables`` read by an end probe, so the plan computes
    only the columns that the probes and that end probe read.  At each
    probe step, in order, and at the end, ``shots`` shots are drawn from
    one ``np.random.default_rng(seed)``: a multinomial over the branches,
    each weighted by its trace over the initial trace, plus one category
    for the shots a detector rejected.  A shot's value is the
    conditional expectation of its branch, so the estimates are unbiased
    and spread only as much as the branches differ.  A branch stands for
    the parities of the detectors still in flight, not for the full record
    history; conditioning on either is unbiased.  Draws at different probe
    steps are independent, as if each probe step ended its own truncated
    circuit.
    """
    _require_count("shots", shots)
    _require_count("seed", seed, least=0)
    if initial.num_branches != 1:
        raise ValueError("sampling starts from a single-branch state")
    start_trace = initial.total_trace
    if not start_trace > 0.0:
        raise ValueError("initial state has no positive trace")
    finals = _pauli_list("final_observables", final_observables)
    _, reads = _compile(circuit, initial, (), probes, finals, noise.theta != 0).walk(noise)
    rng = np.random.default_rng(seed)
    result = SampleResult(shots=shots, accepted=0)
    for step_i, names, block in reads:
        trace = block[:, 0]
        # Rounding can leave a trace below zero, never drawn, or the traces
        # summing past the initial trace, which would make the draw raise.
        weights = np.maximum(trace, 0.0) / start_trace
        weights /= max(weights.sum(), 1.0)
        counts = rng.multinomial(shots, np.append(weights, max(1.0 - weights.sum(), 0.0)))
        drawn = np.flatnonzero(counts[:-1])
        counts = counts[drawn]
        accepted = int(counts.sum())
        if step_i is None:
            result.accepted = accepted
        else:
            result.probe_accepted[step_i] = accepted
        if not accepted:
            continue
        for j, name in enumerate(names, 1):
            values = block[drawn, j] / trace[drawn]
            mean = float(counts @ values) / accepted
            stderr = math.sqrt(max(float(counts @ values**2) / accepted - mean**2, 0.0)
                               / accepted)
            if step_i is None:
                result.final[name], result.final_stderr[name] = mean, stderr
            else:
                result.probes.setdefault(step_i, {})[name] = mean
                result.probe_stderr.setdefault(step_i, {})[name] = stderr
    return result
