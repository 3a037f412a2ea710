"""Symbolic stabilizer tracking with measurement-record tags.

In a measurement-only stabilizer circuit every outcome is either uniformly
random or forced by earlier records.  This module tracks, for each stabilizer
generator, the set of record slots whose signs multiply into the generator's
sign.  When a measurement turns out to be forced, the forcing relation *is* a
parity check over recorded slots -- exactly the detector that post-selection
needs -- so detectors can be derived from a schedule instead of hard-coded.

Generator representation: ``i^k * X^x * Z^z`` with ``x``/``z`` qubit bitmasks
(bit j = qubit j), ``k`` a phase exponent mod 4, and a frozen set of slot
tags.  Hermiticity pins ``k`` mod 2 to the Y-count ``popcount(x & z)``, so the
sign freedom lives in the even part of ``k``.  The generator asserts that the
state satisfies::

    i^k X^x Z^z  *  prod(record[t] for t in tags)  =  +1

The exact branching simulator cross-checks everything derived here; see the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from .pauli import PauliString
from .simulator import _STATE_LABELS, Parity

_LETTER_TO_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_TO_LETTER = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}


@dataclass(frozen=True)
class TaggedGenerator:
    """One stabilizer generator with its record-sign dependence."""

    x: int
    z: int
    k: int
    tags: frozenset

    def __post_init__(self):
        if self.k % 2 != (self.x & self.z).bit_count() % 2:
            raise ValueError("phase exponent breaks Hermiticity")

    def commutes_with(self, x: int, z: int) -> bool:
        return ((self.x & z).bit_count() + (self.z & x).bit_count()) % 2 == 0

    def times(self, other: "TaggedGenerator") -> "TaggedGenerator":
        """Group product; tags combine by symmetric difference (signs square
        away for slots appearing twice)."""
        k = (self.k + other.k + 2 * (self.z & other.x).bit_count()) % 4
        return TaggedGenerator(
            self.x ^ other.x, self.z ^ other.z, k, self.tags ^ other.tags
        )

    def to_pauli(self, num_qubits: int) -> PauliString:
        letters = []
        for q in range(num_qubits):
            bit = 1 << q
            letters.append(_BITS_TO_LETTER[(int(bool(self.x & bit)), int(bool(self.z & bit)))])
        k_std = (self.x & self.z).bit_count() % 4
        sign = 1 if (self.k - k_std) % 4 == 0 else -1
        return PauliString("".join(letters), sign=sign)


def _pauli_to_xzk(num_qubits: int, pauli: "PauliString | str") -> tuple:
    if isinstance(pauli, str):
        pauli = PauliString.from_text(pauli)
    if pauli.num_qubits != num_qubits:
        raise ValueError(
            f"operator acts on {pauli.num_qubits} qubits, tableau has {num_qubits}"
        )
    x = z = 0
    for q, letter in enumerate(pauli.letters):
        xb, zb = _LETTER_TO_BITS[letter]
        x |= xb << q
        z |= zb << q
    k = (x & z).bit_count() % 4
    if pauli.sign == -1:
        k = (k + 2) % 4
    return x, z, k


@dataclass(frozen=True)
class MeasureOutcome:
    """What the tableau learned from one scheduled measurement.

    ``kind`` is "random" when the record is uniformly distributed (it either
    anticommuted with a generator or probed an untracked direction) and
    "deterministic" when earlier records force it; in the latter case
    ``detector`` holds the implied check, a :class:`Parity` with the new slot.
    """

    kind: str
    detector: "Parity | None" = None


class TaggedTableau:
    """Mutable stabilizer tableau over untagged or slot-tagged generators."""

    def __init__(self, num_qubits: int, generators=()):
        self.num_qubits = num_qubits
        self._gens: list[TaggedGenerator] = []
        for gen in generators:
            if isinstance(gen, TaggedGenerator):
                self._gens.append(gen)
            else:
                pauli, tags = gen
                x, z, k = _pauli_to_xzk(num_qubits, pauli)
                self._gens.append(TaggedGenerator(x, z, k, frozenset(tags)))
        self._check_group()

    @classmethod
    def from_product_state(cls, labels) -> "TaggedTableau":
        """Tableau of a product of one-qubit Pauli eigenstates.

        Labels are those of :meth:`TrajectoryEnsemble.from_product_state`
        ("0", "1", "+", "-", "+i", "i", "-i", "mixed"): the Bloch vector of
        each has at most one nonzero component, +1 or -1, which gives the
        qubit's generator; "mixed" qubits contribute none.
        """
        gens = []
        n = len(labels)
        for q, label in enumerate(labels):
            bloch = _STATE_LABELS.get(label) if isinstance(label, str) else None
            if bloch is None:
                raise ValueError(f"bad state label for qubit {q}: {label!r}; labels are "
                                 f"{', '.join(_STATE_LABELS)}")
            for letter, component in zip("XYZ", bloch):
                if component:
                    letters = "".join(letter if j == q else "I" for j in range(n))
                    gens.append((PauliString(letters, sign=int(component)), frozenset()))
        return cls(n, gens)

    # -- inspection ------------------------------------------------------

    @property
    def generators(self) -> list:
        """Current generators as (PauliString with sign, tags) pairs."""
        return [(g.to_pauli(self.num_qubits), set(g.tags)) for g in self._gens]

    def _check_group(self) -> None:
        for i, a in enumerate(self._gens):
            if a.x == 0 and a.z == 0:
                raise ValueError("identity is not a valid generator")
            for b in self._gens[i + 1 :]:
                if not a.commutes_with(b.x, b.z):
                    raise ValueError("generators must pairwise commute")
        for i in range(len(self._gens)):
            rest = self._gens[:i] + self._gens[i + 1 :]
            if _solve_subset(rest, self._gens[i].x, self._gens[i].z) is not None:
                raise ValueError("generators must be independent")

    # -- group solving -----------------------------------------------------

    def _solve(self, x: int, z: int):
        return _solve_subset(self._gens, x, z)

    def _accumulate(self, subset) -> TaggedGenerator:
        acc = TaggedGenerator(0, 0, 0, frozenset())
        for i in subset:
            acc = acc.times(self._gens[i])
        return acc

    # -- evolution ---------------------------------------------------------

    def measure(self, pauli: "PauliString | str", slot: int) -> MeasureOutcome:
        """Record a projective measurement of ``pauli`` into ``slot``.

        The measured operator must carry sign +1 (the record reports its
        eigenvalue); the slot must be fresh.
        """
        x, z, k = _pauli_to_xzk(self.num_qubits, pauli)
        if isinstance(pauli, PauliString) and pauli.sign != 1:
            raise ValueError("measure the +1-signed operator; signs live in records")
        for g in self._gens:
            if slot in g.tags:
                raise ValueError(f"slot s{slot} already used")
        fresh = TaggedGenerator(x, z, k, frozenset({slot}))

        anti = [i for i, g in enumerate(self._gens) if not g.commutes_with(x, z)]
        if anti:
            pivot = self._gens[anti[0]]
            for i in anti[1:]:
                self._gens[i] = self._gens[i].times(pivot)
            self._gens[anti[0]] = fresh
            return MeasureOutcome("random")

        subset = self._solve(x, z)
        if subset is None:
            self._gens.append(fresh)
            return MeasureOutcome("random")

        acc = self._accumulate(subset)
        if (acc.x, acc.z) != (x, z) or (acc.k - k) % 2 != 0:
            raise AssertionError("generator algebra is inconsistent")
        detector = Parity(acc.tags ^ {slot}, 1 if (acc.k - k) % 4 == 0 else -1)
        # Refresh: the same group element is now vouched for by the new
        # record alone, so swap it in for the stalest member of the
        # expansion.  Future repetitions of this measurement then compare
        # against this round instead of ever-older history.
        stalest = min(subset, key=lambda i: (max(self._gens[i].tags, default=-1), i))
        self._gens[stalest] = fresh
        return MeasureOutcome("deterministic", detector)

    def express(self, pauli: "PauliString | str") -> "Parity | None":
        """A Pauli's forced value as a :class:`~tetronsim.simulator.Parity`:
        the value is the parity's sign times the product of the records in
        its slots (none when the value is a constant).  None if the value is
        not determined by the tracked group."""
        x, z, k = _pauli_to_xzk(self.num_qubits, pauli)
        subset = self._solve(x, z)
        if subset is None:
            return None
        acc = self._accumulate(subset)
        return Parity(acc.tags, 1 if (acc.k - k) % 4 == 0 else -1)


def _solve_subset(gens, x: int, z: int):
    """Indices of a subset of ``gens`` whose unsigned product is X^x Z^z,
    or None.  GF(2) elimination on (x|z) row vectors."""
    pivots: dict[int, tuple] = {}
    for i, g in enumerate(gens):
        vec = (g.x << 64) | g.z if max(g.x, g.z) < (1 << 64) else None
        if vec is None:  # pragma: no cover - >64 qubits unsupported upstream
            raise ValueError("tableau supports at most 64 qubits")
        mask = 1 << i
        while vec:
            bit = vec.bit_length() - 1
            if bit in pivots:
                pvec, pmask = pivots[bit]
                vec ^= pvec
                mask ^= pmask
            else:
                pivots[bit] = (vec, mask)
                break
    target = (x << 64) | z
    mask = 0
    while target:
        bit = target.bit_length() - 1
        if bit not in pivots:
            return None
        pvec, pmask = pivots[bit]
        target ^= pvec
        mask ^= pmask
    return [i for i in range(len(gens)) if (mask >> i) & 1]
