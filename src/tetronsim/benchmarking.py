"""Measurement-based qubit benchmarking (MBQB).

A qubit can be certified by alternating two nominally anticommuting
projective measurements, X and Z: repeating a basis must repeat its outcome,
while switching bases must give a fresh fair coin.  This module quantifies
deviations from that ideal with two operational error metrics,

* ``err_a`` — operational assignment error: the worst total-variation
  deviation of a repeated same-basis measurement from perfect agreement,
* ``err_b`` — operational bias: the worst deviation of a cross-basis
  outcome from an unbiased coin,

estimated from the conditional outcome statistics of four-measurement
subsequences (two-measurement unconditioned reset, a conditioning
measurement, and a final measurement).  Statistics come either from exact
channel composition or from sampling long pseudorandom measurement chains;
de Bruijn cycles guarantee every subsequence pattern is sampled equally
often.  The sampler first builds the chains' finite outcome automaton (a
node per sequence phase and chain state) and cuts every chain at a renewal
phase, where the measurement history is forgotten; then a block of steps
costs one sequence period of array operations on the node ids of every
segment of every chain.  Instruments whose states do not close, or that
never renew, get the matrix walk: every chain's state is a column of one
(4, chains) array, and each measurement step is one matrix product over all
chains.  Both walks draw each chain's own random stream in blocks of steps
and give identical outcomes; chain c is bit-exactly reproducible from
(seed, c).  The same experiment bank supports reconstruction of each
measurement outcome's action on the real slice of the Bloch sphere (a
"rebit"), and a same-basis repetition experiment with inserted idle periods
measures the qubit lifetime.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .channels import (
    NoiseParams,
    idle_superop,
    meas1_record_superop,
    projection_superop,
)
from .pauli import Superoperator
from .qed import fit_decay
from .simulator import _require_count

BASES = ("X", "Z")
RESET_ORDERS = ("XZ", "ZX")
OUTCOMES = (1, -1)

_MIXED = np.array([1.0, 0.0, 0.0, 0.0])
_REBIT_AXES = (0, 1, 3)  # Pauli-vector components (trace, x, z)
_REBIT_NAMES = ("trace", "x", "z")
_WILSON_95 = 1.959963984540054
_BLOCK = 512  # steps of uniforms drawn per chain at a time in sampled mode
_MAX_NODES = 16 * _BLOCK  # outcome automaton nodes built before the matrix walk runs instead
_RESIDUAL_TOLERANCE = 1e-6  # log-fit residual above which a lifetime is non-exponential


# ---------------------------------------------------------------------------
# Instruments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Instrument:
    """A binary-outcome measurement instrument on one qubit.

    ``plus`` and ``minus`` are the subnormalized transfer matrices of the
    two outcome operations; their sum is the trace-preserving non-selective
    channel.
    """

    plus: np.ndarray
    minus: np.ndarray

    def __post_init__(self):
        plus = np.asarray(self.plus, dtype=float)
        minus = np.asarray(self.minus, dtype=float)
        if plus.shape != (4, 4) or minus.shape != (4, 4):
            raise ValueError("instrument outcome maps must be 4x4 transfer matrices")
        object.__setattr__(self, "plus", plus)
        object.__setattr__(self, "minus", minus)
        total = Superoperator(plus + minus, copy=False)
        if not total.is_trace_preserving(tol=1e-9):
            raise ValueError("instrument outcome maps must sum to a trace-preserving channel")

    def outcome(self, sign: int) -> np.ndarray:
        if sign == 1:
            return self.plus
        if sign == -1:
            return self.minus
        raise ValueError(f"outcome sign must be +1 or -1, got {sign!r}")

    @property
    def nonselective(self) -> np.ndarray:
        return self.plus + self.minus


def tetron_instruments(noise: NoiseParams = NoiseParams()) -> dict:
    """The device noise model's X and Z instruments."""
    return {
        letter: Instrument(
            meas1_record_superop(letter, 1, noise).matrix,
            meas1_record_superop(letter, -1, noise).matrix,
        )
        for letter in BASES
    }


def ideal_instruments() -> dict:
    return tetron_instruments(NoiseParams())


def randomizing_instruments() -> dict:
    """Instruments that scramble the state and flip a fair coin: the
    recorded outcome carries no information and the post-measurement state
    is maximally mixed."""
    half_mix = np.zeros((4, 4))
    half_mix[0, 0] = 0.5
    return {letter: Instrument(half_mix, half_mix) for letter in BASES}


def readout_flip_instruments(p_f: float) -> dict:
    """Perfect projective measurements whose classical record is flipped
    with probability ``p_f`` (the state follows the true outcome)."""
    if not 0.0 <= p_f <= 1.0:
        raise ValueError(f"flip probability must lie in [0, 1], got {p_f}")
    return tetron_instruments(NoiseParams(p_a=p_f)) if p_f <= 0.5 else {
        letter: Instrument(
            (1.0 - p_f) * projection_superop(letter, 1).matrix
            + p_f * projection_superop(letter, -1).matrix,
            (1.0 - p_f) * projection_superop(letter, -1).matrix
            + p_f * projection_superop(letter, 1).matrix,
        )
        for letter in BASES
    }


def identical_instruments(letter: str = "X") -> dict:
    """Pathology probe: both the nominal X and the nominal Z instrument
    secretly measure the same basis, perfectly."""
    if letter not in BASES:
        raise ValueError(f"letter must be one of {BASES}, got {letter!r}")
    inst = Instrument(
        projection_superop(letter, 1).matrix,
        projection_superop(letter, -1).matrix,
    )
    return {basis: inst for basis in BASES}


def _as_instruments(source) -> dict:
    if isinstance(source, NoiseParams):
        return tetron_instruments(source)
    if isinstance(source, dict):
        missing = [b for b in BASES if b not in source]
        if missing:
            raise ValueError(f"instrument set is missing bases {missing}")
        return source
    raise TypeError(
        f"expected NoiseParams or a basis->Instrument mapping, got {type(source).__name__}"
    )


def reset_superop(source=NoiseParams(), order: "str | None" = None) -> Superoperator:
    """The unconditioned two-measurement state scrambler.

    Applies one X and one Z measurement ignoring both outcomes; with
    ``order=None`` the two application orders are averaged, which is the
    preparation assumed by the benchmarking metrics.  ``order="XZ"`` means
    X is applied first.
    """
    inst = _as_instruments(source)
    x, z = inst["X"].nonselective, inst["Z"].nonselective
    if order == "XZ":
        return Superoperator(z @ x, copy=False)
    if order == "ZX":
        return Superoperator(x @ z, copy=False)
    if order is None:
        return Superoperator(0.5 * (z @ x + x @ z), copy=False)
    raise ValueError(f"order must be 'XZ', 'ZX' or None, got {order!r}")


def reset_deviation(source=NoiseParams()) -> float:
    """Trace distance of the reset output from the maximally mixed state
    when fed the maximally mixed state (an honest self-audit of the
    'approximately maximally mixed' preparation)."""
    out = reset_superop(source).matrix @ _MIXED
    return 0.5 * float(np.linalg.norm(out[1:]))


# ---------------------------------------------------------------------------
# Measurement sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeasurementSequence:
    """An ordered program of X/Z measurement labels."""

    labels: tuple

    def __post_init__(self):
        labels = tuple(self.labels)
        if not labels:
            raise ValueError("measurement sequence must be nonempty")
        for lab in labels:
            if lab not in BASES:
                raise ValueError(f"sequence labels must be X or Z, got {lab!r}")
        object.__setattr__(self, "labels", labels)

    @classmethod
    def from_string(cls, text: str) -> "MeasurementSequence":
        return cls(tuple(text))

    def __len__(self) -> int:
        return len(self.labels)

    def cycled(self, total: int) -> tuple:
        """The sequence repeated cyclically out to ``total`` labels."""
        reps = -(-total // len(self.labels))
        return (self.labels * reps)[:total]


def generate_debruijn(k: int) -> MeasurementSequence:
    """A binary de Bruijn cycle over {X, Z} of length 2**k: cycled
    indefinitely, every length-``k`` word appears exactly once per period.
    Uses the standard Lyndon-word concatenation construction."""
    if k < 1:
        raise ValueError(f"subsequence length must be at least 1, got {k}")
    sequence: list[int] = []
    a = [0] * (k + 1)

    def db(t: int, p: int) -> None:
        if t > k:
            if k % p == 0:
                sequence.extend(a[1 : p + 1])
        else:
            a[t] = a[t - p]
            db(t + 1, p)
            for j in range(a[t - p] + 1, 2):
                a[t] = j
                db(t + 1, t)

    db(1, 1)
    return MeasurementSequence(tuple("XZ"[bit] for bit in sequence))


# ---------------------------------------------------------------------------
# Subsequence statistics
# ---------------------------------------------------------------------------


def _table_keys():
    return [(order, q, p) for order in RESET_ORDERS for q in BASES for p in BASES]


@dataclass
class ConditionalTable:
    """Conditional outcome probabilities of the benchmarking subsequences.

    Keys are ``(reset_order, conditioning_basis, final_basis)`` where the
    reset order lists the first-applied measurement first.  Each value is a
    2x2 array: rows index the conditioning outcome s (+1 then -1), columns
    the final outcome r (+1 then -1).  ``weights`` holds the conditioning
    row weight (probability in exact mode, window count in sampled mode);
    rows whose conditioning outcome never occurs are flagged and their
    probabilities set to NaN rather than silently propagated.
    """

    probs: dict
    weights: dict
    flags: dict
    mode: str
    shots: "int | None" = None
    seed: "int | None" = None

    def averaged(self, cond_basis: str, final_basis: str) -> np.ndarray:
        """Mean over the two reset orders (the metrics' preparation mean)."""
        return np.mean(
            [self.probs[(o, cond_basis, final_basis)] for o in RESET_ORDERS], axis=0
        )

    def pooled_counts(self, cond_basis: str, final_basis: str) -> "np.ndarray | None":
        if self.mode != "sampled":
            return None
        out = np.zeros((2, 2))
        for o in RESET_ORDERS:
            key = (o, cond_basis, final_basis)
            out += self.probs[key] * self.weights[key][:, None]
        return out

    def flagged_entries(self) -> list:
        return [key for key in _table_keys() if bool(np.any(self.flags[key]))]

    def to_jsonable(self) -> dict:
        return {
            "|".join(key): {
                "probs": self.probs[key].tolist(),
                "weights": self.weights[key].tolist(),
                "flags": self.flags[key].tolist(),
            }
            for key in _table_keys()
        }


def subsequence_statistics(
    source=NoiseParams(),
    *,
    mode: str = "exact",
    shots: int = 1_000_000,
    seed: int = 0,
    sequence: "MeasurementSequence | None" = None,
    chains: int = 256,
) -> ConditionalTable:
    """Conditional probabilities Pr(final r | conditioning s) after a reset.

    Exact mode composes the instrument transfer matrices on the maximally
    mixed state.  Sampled mode simulates ``chains`` parallel measurement
    chains following a cyclic pseudorandom label sequence (default: a
    de Bruijn cycle of subsequence length 4) and counts every overlapping
    four-label window whose first two labels differ; at least ``shots``
    windows are collected in total.  ``shots`` and ``chains`` must be
    positive integers in sampled mode.

    The chains advance together.  Where the chain's outcome automaton (a
    node per sequence phase and normalized state, with p(+1) and the two
    successors) closes within the chain's step count and has a renewal
    phase, a phase at which every node has the same p(+1) and successors,
    each chain is cut there into one-period segments, and every segment of
    every chain steps through the automaton's integer node ids at once.
    Otherwise the states are the columns of one (4, chains) array, and each
    step stacks the +1 and -1 outcome maps into one matrix product.  Both
    walks compute the same states with the same arithmetic, so they draw
    the same outcomes.  Chain c draws its uniforms from its own generator,
    seeded from ``SeedSequence(entropy=seed, spawn_key=(c,))``, in blocks of
    at most 512 steps; the blocks concatenate to the same stream,
    so chain c is bit-exactly reproducible from (seed, c) whatever the chain
    count.  Windows are counted block by block, so memory does not grow
    with ``shots``.
    """
    instruments = _as_instruments(source)
    if mode == "exact":
        return _exact_statistics(instruments)
    if mode != "sampled":
        raise ValueError(f"mode must be 'exact' or 'sampled', got {mode!r}")
    return _sampled_statistics(
        instruments,
        shots=shots,
        seed=seed,
        sequence=sequence or generate_debruijn(4),
        chains=chains,
    )


def _exact_statistics(instruments: dict) -> ConditionalTable:
    probs, weights, flags = {}, {}, {}
    for order in RESET_ORDERS:
        prep = reset_superop(instruments, order).matrix @ _MIXED
        for q in BASES:
            conditioned = {}
            for s in OUTCOMES:
                vec = instruments[q].outcome(s) @ prep
                conditioned[s] = (vec, vec[0])
            for p in BASES:
                table = np.full((2, 2), math.nan)
                weight = np.zeros(2)
                flag = np.zeros(2, dtype=bool)
                for si, s in enumerate(OUTCOMES):
                    vec, norm = conditioned[s]
                    weight[si] = norm
                    if norm <= 1e-15:
                        flag[si] = True
                        continue
                    for ri, r in enumerate(OUTCOMES):
                        table[si, ri] = (instruments[p].outcome(r) @ vec)[0] / norm
                key = (order, q, p)
                probs[key], weights[key], flags[key] = table, weight, flag
    return ConditionalTable(probs, weights, flags, mode="exact")


def _missing_windows(sequence: MeasurementSequence, window: int) -> list:
    """The table's windows (reset order, conditioning and final label) that
    the cyclic ``sequence`` never contains."""
    labels = sequence.cycled(len(sequence) + window - 1)
    seen = {"".join(labels[i : i + window]) for i in range(len(sequence))}
    return ["".join(key) for key in _table_keys() if "".join(key) not in seen]


def _stacked_maps(instruments: dict) -> dict:
    """Per basis, rows 0-3: the +1 outcome map, rows 4-7: the -1 outcome map."""
    return {
        letter: np.vstack([instruments[letter].plus, instruments[letter].minus])
        for letter in BASES
    }


def _matrix_walk(instruments: dict, labels: tuple, chains: int):
    """The general walk: every chain's state is a column of one (4, chains)
    array, and each step is one product of the stacked outcome maps with it.
    Returns ``walk(start, uniforms)``, which advances every chain through
    steps ``start, start + 1, ...`` (one column of ``uniforms`` per step) and
    returns the (steps, chains) outcome-+1 flags."""
    stacked = _stacked_maps(instruments)
    both = np.empty((8, chains))
    state = np.tile(_MIXED[:, None], (1, chains))  # column c is chain c

    def walk(start: int, uniforms: np.ndarray) -> np.ndarray:
        hits = np.empty(uniforms.shape[::-1], dtype=bool)
        for t, u in enumerate(np.ascontiguousarray(uniforms.T), start):
            np.matmul(stacked[labels[t % len(labels)]], state, out=both)
            hit = np.less(u, both[0], out=hits[t - start])
            np.copyto(state, both[4:])
            np.copyto(state, both[:4], where=hit)
            np.divide(state, state[0], out=state)
        return hits

    return walk


@dataclass(frozen=True)
class _OutcomeAutomaton:
    """The finite outcome automaton of a measurement chain.

    A node is a (sequence phase, normalized chain state) pair.  Node ids are
    stored doubled: ``prob[2i]`` and ``prob[2i + 1]`` hold node i's p(+1),
    ``successor[2i]`` twice the id of its successor after outcome -1 and
    ``successor[2i + 1]`` after outcome +1 (-2 for an outcome no uniform in
    [0, 1) selects).  At the ``renewal`` phase every node has the same p(+1)
    and successors, so a chain's walk from there depends only on its
    uniforms: ``cut`` (any node at that phase) starts every segment.
    """

    prob: np.ndarray
    successor: np.ndarray
    period: int
    renewal: int
    cut: int

    def walk(self, start: int, uniforms: np.ndarray) -> np.ndarray:
        """Outcome-+1 flags (steps, chains) of steps ``start, start + 1, ...``
        with one column of ``uniforms`` per step.  ``start`` is 0 for the
        steps before the first renewal phase, else a renewal step."""
        size = uniforms.shape[1]
        if start < self.renewal:
            return self._segments(0, uniforms, size)
        whole = size - size % self.period  # a tail only in the chain's last block
        parts = []
        if whole:
            parts.append(self._segments(self.cut, uniforms[:, :whole], self.period))
        if whole < size:
            parts.append(self._segments(self.cut, uniforms[:, whole:], size - whole))
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def _segments(self, node: int, uniforms: np.ndarray, length: int) -> np.ndarray:
        # Cut each chain's steps into segments of ``length`` steps from
        # ``node`` and walk every segment of every chain at once.
        chains, size = uniforms.shape
        runs = size // length
        u = uniforms.reshape(chains, runs, length).transpose(2, 1, 0).reshape(length, -1)
        hits = np.empty(u.shape, dtype=bool)
        at = np.full(u.shape[1], 2 * node, dtype=np.intp)
        for j in range(length):
            np.less(u[j], self.prob.take(at), out=hits[j])
            at = self.successor.take(at + hits[j])
        return hits.reshape(length, runs, chains).transpose(1, 0, 2).reshape(size, chains)


def _outcome_automaton(instruments: dict, labels: tuple, cap: int) -> "_OutcomeAutomaton | None":
    """Build the chain's outcome automaton from the maximally mixed start,
    with the matrix walk's arithmetic (the stacked maps times the state,
    then a divide by row 0).  Returns None when the states do not close
    within ``cap`` nodes, when no phase is a renewal phase, or when a period
    does not fit in one block of uniforms; the matrix walk runs instead."""
    period = len(labels)
    if period > _BLOCK:
        return None
    stacked = _stacked_maps(instruments)
    ids = {(0, _MIXED.tobytes()): 0}
    phases, prob, successor = [0], [], []
    level, phase = [_MIXED], 0  # the states of the newest nodes, in id order
    while level:
        block = stacked[labels[phase]] @ np.stack(level, axis=1)
        phase = (phase + 1) % period
        p = block[0]
        # u < p selects +1: a uniform u in [0, 1) can select +1 iff p > 0 and
        # -1 iff not p >= 1 (a NaN p always selects -1, as in the matrix walk)
        minus_drawable, plus_drawable = ~(p >= 1), p > 0
        minus = np.divide(block[4:], block[4], out=np.zeros((4, len(p))), where=minus_drawable).T
        plus = np.divide(block[:4], p, out=np.zeros((4, len(p))), where=plus_drawable).T
        level = []
        for j in range(len(p)):
            prob.append(p[j])
            for rows, drawable in ((minus, minus_drawable[j]), (plus, plus_drawable[j])):
                if not drawable:
                    successor.append(-2)
                    continue
                node = ids.setdefault((phase, rows[j].tobytes()), len(phases))
                if node == len(phases):
                    if node == cap:
                        return None
                    phases.append(phase)
                    level.append(rows[j])
                successor.append(2 * node)
    prob, successor, phases = np.array(prob), np.array(successor, dtype=np.intp), np.array(phases)
    pairs = successor.reshape(-1, 2)
    for renewal in range(period):
        nodes = np.flatnonzero(phases == renewal)
        if np.all(prob[nodes] == prob[nodes[0]]) and np.all(pairs[nodes] == pairs[nodes[0]]):
            return _OutcomeAutomaton(np.repeat(prob, 2), successor, period, renewal, int(nodes[0]))
    return None


def _sampled_statistics(
    instruments: dict,
    *,
    shots: int,
    seed: int,
    sequence: MeasurementSequence,
    chains: int,
) -> ConditionalTable:
    _require_count("shots", shots)
    _require_count("chains", chains)
    window = 4
    missing = _missing_windows(sequence, window)
    if missing:
        raise ValueError(
            f"sequence lacks the four-label windows {', '.join(missing)}: sampled mode "
            "counts each table entry from the windows that start with its reset order, "
            "so these entries would never be observed"
        )
    # round each chain up to whole sequence periods so every window pattern
    # is counted exactly equally often (the fair-sampling guarantee)
    period = len(sequence)
    per_chain = -(-shots // chains)
    per_chain = -(-per_chain // period) * period
    steps = window - 1 + per_chain

    # A build that does not close stops at the chain's step count, so it
    # costs about a sixth of the matrix walk that then runs (about 3 us a
    # node against 16 us a matrix step on a 2-vCPU Xeon), and at _MAX_NODES,
    # so it holds about 3 MB (some 400 B a node) whatever the shot count.
    automaton = _outcome_automaton(instruments, sequence.labels, cap=min(steps, _MAX_NODES))
    if automaton is None:
        walk, cut, span = _matrix_walk(instruments, sequence.labels, chains), 0, _BLOCK
    else:
        walk, cut, span = automaton.walk, automaton.renewal, _BLOCK // period * period
    starts = ([0] if cut else []) + list(range(cut, steps, span))

    # Table key of the window that ends at phase t: (reset order, q, p) as an
    # index into _table_keys(), or -1 where its first two labels agree.
    z = np.array(sequence.labels) == "Z"
    first, second, q, p = (np.roll(z, window - 1 - i) for i in range(window))
    phase_key = np.where(first != second, 4 * first + 2 * q + p, -1)
    counts = np.zeros((len(_table_keys()), 2, 2), dtype=np.int64)

    # one independent, splittable stream per chain: chain c, seeded from the
    # spawned child SeedSequence(entropy=seed, spawn_key=(c,)), is bit-exactly
    # reproducible from (seed, c) no matter how chains are batched, and
    # drawing it in blocks of any size yields the same numbers
    streams = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(chains)]
    drawn = np.empty((chains, _BLOCK))
    for start, stop in zip(starts, starts[1:] + [steps]):
        for rng, row in zip(streams, drawn):
            rng.random(out=row[: stop - start])
        hits = walk(start, drawn[:, : stop - start])  # row i: outcome +1 at step start + i
        if start:  # the block's first window reads the last outcome of the one before
            hits = np.concatenate([last[None], hits])
        last = hits[-1]
        # Window t reads s = outcome t - 1 and r = outcome t.  From the counts
        # of s = +1, r = +1 and both, the 2x2 cell is
        # [[both, s - both], [r - both, chains - s - r + both]].
        plus = np.count_nonzero(hits, axis=1)
        both = np.count_nonzero(hits[:-1] & hits[1:], axis=1)
        s, r = plus[:-1], plus[1:]
        cells = np.stack([both, s - both, r - both, chains - s - r + both], axis=1)
        t = np.arange(stop - len(cells), stop)
        entry = np.where(t >= window - 1, phase_key[t % period], -1)
        np.add.at(counts, entry[entry >= 0], cells[entry >= 0].reshape(-1, 2, 2))

    probs, weights, flags = {}, {}, {}
    for key, cell in zip(_table_keys(), counts.astype(float)):
        row_totals = cell.sum(axis=1)
        flag = row_totals == 0
        table = np.full((2, 2), math.nan)
        for si in range(2):
            if row_totals[si] > 0:
                table[si] = cell[si] / row_totals[si]
        probs[key], weights[key], flags[key] = table, row_totals, flag
    return ConditionalTable(probs, weights, flags, mode="sampled", shots=shots, seed=seed)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def wilson_interval(successes: float, total: float, z: float = _WILSON_95) -> tuple:
    """Wilson score interval for a binomial proportion (robust near 0/1)."""
    if total <= 0:
        raise ValueError("Wilson interval needs a positive trial count")
    phat = successes / total
    denom = 1.0 + z * z / total
    center = (phat + z * z / (2.0 * total)) / denom
    half = (z / denom) * math.sqrt(phat * (1.0 - phat) / total + z * z / (4.0 * total * total))
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == total else min(1.0, center + half)
    return lo, hi


def _require_complete(table: ConditionalTable, pairs) -> None:
    bad = []
    for q, p in pairs:
        for order in RESET_ORDERS:
            key = (order, q, p)
            if key not in table.probs:
                bad.append((key, "missing"))
            elif bool(np.any(table.flags[key])):
                bad.append((key, "conditioning outcome never observed"))
    if bad:
        raise ValueError(f"incomplete conditional table: {bad}")


def _metric(table: ConditionalTable, pairs, target) -> tuple:
    """Max over basis pairs and conditioning outcomes of
    |Pr(final +1 | s) - target(s)|, reset orders averaged.  Returns
    (value, 95% Wilson half-width or None, argmax key)."""
    _require_complete(table, pairs)
    best, best_arg = -1.0, None
    for q, p in pairs:
        avg = table.averaged(q, p)
        for si, s in enumerate(OUTCOMES):
            dev = abs(avg[si, 0] - target(s))
            if dev > best:
                best, best_arg = dev, (q, p, s)
    half = None
    if table.mode == "sampled":
        q, p, s = best_arg
        pooled = table.pooled_counts(q, p)
        si = OUTCOMES.index(s)
        row_total = pooled[si].sum()
        lo, hi = wilson_interval(pooled[si, 0], row_total)
        half = 0.5 * (hi - lo)
    return best, half, best_arg


def estimate_err_a(table: ConditionalTable, *, with_interval: bool = False):
    """Operational assignment error: worst deviation of a same-basis repeat
    from reproducing the conditioning outcome."""
    value, half, _ = _metric(
        table, [(b, b) for b in BASES], lambda s: 1.0 if s == 1 else 0.0
    )
    return (value, half) if with_interval else value


def estimate_err_b(table: ConditionalTable, *, with_interval: bool = False):
    """Operational bias: worst deviation of a cross-basis outcome from a
    fair coin."""
    value, half, _ = _metric(
        table, [(q, p) for q in BASES for p in BASES if q != p], lambda s: 0.5
    )
    return (value, half) if with_interval else value


@dataclass
class MetricEstimates:
    """Benchmarking metrics with their provenance.

    ``err_a_interval`` / ``err_b_interval`` are 95% Wilson half-widths of
    the maximizing table entry (sampled mode only).  ``reset_distance``
    audits how far the reset preparation is from maximally mixed.
    """

    err_a: float
    err_b: float
    table: ConditionalTable
    mode: str
    shots: "int | None"
    seed: "int | None"
    err_a_interval: "float | None" = None
    err_b_interval: "float | None" = None
    reset_distance: float = 0.0
    noise: "NoiseParams | None" = None

    def to_jsonable(self) -> dict:
        out = {
            "err_a": self.err_a,
            "err_b": self.err_b,
            "err_a_interval": self.err_a_interval,
            "err_b_interval": self.err_b_interval,
            "mode": self.mode,
            "shots": self.shots,
            "seed": self.seed,
            "reset_distance": self.reset_distance,
            "table": self.table.to_jsonable(),
        }
        if self.noise is not None:
            out["noise"] = asdict(self.noise)
        return out

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_jsonable(), indent=indent)


def benchmark_metrics(
    source=NoiseParams(),
    *,
    mode: str = "exact",
    shots: int = 1_000_000,
    seed: int = 0,
    sequence: "MeasurementSequence | None" = None,
    chains: int = 256,
) -> MetricEstimates:
    """One-call benchmarking: build the conditional table and aggregate it."""
    instruments = _as_instruments(source)
    table = subsequence_statistics(
        instruments, mode=mode, shots=shots, seed=seed, sequence=sequence, chains=chains
    )
    err_a, half_a = estimate_err_a(table, with_interval=True)
    err_b, half_b = estimate_err_b(table, with_interval=True)
    return MetricEstimates(
        err_a=err_a,
        err_b=err_b,
        table=table,
        mode=table.mode,
        shots=table.shots,
        seed=table.seed,
        err_a_interval=half_a,
        err_b_interval=half_b,
        reset_distance=reset_deviation(instruments),
        noise=source if isinstance(source, NoiseParams) else None,
    )


# ---------------------------------------------------------------------------
# Rebit gate-set reconstruction
# ---------------------------------------------------------------------------

_PREPS = tuple(
    (order, basis, s) for order in RESET_ORDERS for basis in BASES for s in OUTCOMES
)


def _ideal_prep_frame() -> np.ndarray:
    cols = []
    for _order, basis, s in _PREPS:
        cols.append([1.0, float(s) if basis == "X" else 0.0, float(s) if basis == "Z" else 0.0])
    return np.array(cols).T  # 3 x 8


def _axis_names(null_vector: np.ndarray) -> str:
    """Readable description of an unresolvable rebit combination.

    Confounded axes (e.g. when two instruments secretly measure the same
    basis, making x and z indistinguishable) are all listed.
    """
    mags = np.abs(null_vector)
    involved = [
        name for name, mag in zip(_REBIT_NAMES, mags) if mag >= 0.3 * mags.max()
    ]
    return "'" + "', '".join(involved) + "'"


def rebit_block(transfer: np.ndarray) -> np.ndarray:
    """Restrict a one-qubit transfer matrix to the (trace, x, z) slice."""
    transfer = np.asarray(transfer, dtype=float)
    if transfer.shape != (4, 4):
        raise ValueError("expected a one-qubit 4x4 transfer matrix")
    return transfer[np.ix_(_REBIT_AXES, _REBIT_AXES)]


@dataclass
class RebitGateSet:
    """Linear-inversion reconstruction of operations on the rebit.

    ``maps`` holds each operation's reconstructed 3x3 action on
    (trace, x, z); the no-op reference equals the identity by construction
    in this self-calibrating scheme, so its closeness to the identity checks
    the pipeline, not the device.  ``residuals`` carry the Frobenius misfit
    of each operation's overcomplete data.
    """

    maps: dict
    noop: np.ndarray
    residuals: dict
    observables: np.ndarray
    preparations: np.ndarray
    condition: float
    mode: str
    shots: "int | None" = None
    seed: "int | None" = None


def _accept_maps(instruments: dict, operations) -> dict:
    """Each operation's accept map as a matrix; a pair's reject map is not read."""
    if operations is None:
        return {
            f"{basis}{s:+d}": instruments[basis].outcome(s) for basis in BASES for s in OUTCOMES
        }
    out = {}
    for name, op in operations.items():
        if not isinstance(op, (Superoperator, np.ndarray)):
            op, _reject = op
        out[name] = op.matrix if isinstance(op, Superoperator) else np.asarray(op)
    return out


def _prep_vectors(instruments: dict) -> list:
    vecs = []
    for order, basis, s in _PREPS:
        raw = instruments[basis].outcome(s) @ (reset_superop(instruments, order).matrix @ _MIXED)
        if raw[0] <= 1e-15:
            raise ValueError(
                f"preparation {(order, basis, s)} is never accepted; cannot tomograph"
            )
        vecs.append(raw / raw[0])
    return vecs


def _exact_data(instruments: dict, accept: "np.ndarray | None", preps: list) -> np.ndarray:
    """Rows: (acceptance, outcome-weighted X, outcome-weighted Z); columns: preps."""
    diff = {q: instruments[q].plus - instruments[q].minus for q in BASES}
    m = np.empty((3, len(preps)))
    for j, vec in enumerate(preps):
        out = vec if accept is None else accept @ vec
        m[0, j] = out[0]
        m[1, j] = (diff["X"] @ out)[0]
        m[2, j] = (diff["Z"] @ out)[0]
    return m


def _sampled_data(
    instruments: dict,
    accept: "np.ndarray | None",
    preps: list,
    shots: int,
    seed_keys: tuple,
) -> np.ndarray:
    """Multinomial draws with the exact branch weights per experiment."""
    m = np.zeros((3, len(preps)))
    acc_estimates = np.zeros((2, len(preps)))
    for j, vec in enumerate(preps):
        out = vec if accept is None else accept @ vec
        reject_weight = max(0.0, vec[0] - out[0])  # vec[0] == 1
        for qi, q in enumerate(BASES):
            w_plus = max(0.0, (instruments[q].plus @ out)[0])
            w_minus = max(0.0, (instruments[q].minus @ out)[0])
            probs = np.array([w_plus, w_minus, reject_weight])
            total = probs.sum()
            if total <= 0:
                raise ValueError(f"experiment {(j, q)} has zero total probability")
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed_keys[0], spawn_key=seed_keys[1:] + (j, qi))
            )
            n = rng.multinomial(shots, probs / total)
            m[1 + qi, j] = (n[0] - n[1]) / shots
            acc_estimates[qi, j] = (n[0] + n[1]) / shots
    m[0] = 1.0 if accept is None else acc_estimates.mean(axis=0)
    return m


def rebit_gst(
    source=NoiseParams(),
    *,
    operations=None,
    mode: str = "exact",
    shots: int = 1_000_000,
    seed: int = 0,
) -> RebitGateSet:
    """Reconstruct operations on the rebit by self-calibrated linear inversion.

    Preparations are the eight reset-then-post-select states (two reset
    orders x two bases x two outcomes); observables are the acceptance
    fraction and the outcome-weighted X and Z expectations.  The no-op
    experiment bank calibrates both frames; each operation's 3x3 rebit map
    is then solved in the ideal-preparation gauge.  ``operations`` defaults
    to the four instrument outcome maps; entries may also be plain transfer
    matrices (trace-preserving probes) or (accept, reject) pairs.  Only the
    accept map is read: acceptance and the accepted state both follow from
    it, so a pair's reject map is ignored.

    Raises if the preparations/observables fail to span the rebit — the
    error names the direction that cannot be resolved.
    """
    if mode not in ("exact", "sampled"):
        raise ValueError(f"mode must be 'exact' or 'sampled', got {mode!r}")
    if mode == "sampled":
        _require_count("shots", shots)
    instruments = _as_instruments(source)
    accept_maps = _accept_maps(instruments, operations)
    preps = _prep_vectors(instruments)
    frame = _ideal_prep_frame()

    if mode == "exact":
        m0 = _exact_data(instruments, None, preps)
    else:
        m0 = _sampled_data(instruments, None, preps, shots, (seed, 0))

    b_hat = m0 @ np.linalg.pinv(frame)
    sing = np.linalg.svd(b_hat, compute_uv=False)
    if sing[-1] < 1e-8 * sing[0]:
        _, _, vt = np.linalg.svd(b_hat)
        raise ValueError(
            "degenerate design: the experiments cannot resolve the rebit "
            f"direction(s) {_axis_names(vt[-1])}"
        )
    b_inv = np.linalg.inv(b_hat)
    a_hat = b_inv @ m0
    a_sing = np.linalg.svd(a_hat, compute_uv=False)
    if a_sing[-1] < 1e-8 * a_sing[0]:
        u, _, _ = np.linalg.svd(a_hat)
        raise ValueError(
            "degenerate design: the preparations do not span the rebit "
            f"direction(s) {_axis_names(u[:, -1])}"
        )
    a_pinv = np.linalg.pinv(a_hat)

    maps, residuals = {}, {}
    for op_index, (name, accept_map) in enumerate(accept_maps.items(), start=1):
        if mode == "exact":
            m = _exact_data(instruments, accept_map, preps)
        else:
            m = _sampled_data(instruments, accept_map, preps, shots, (seed, op_index))
        g = b_inv @ m @ a_pinv
        maps[name] = g
        residuals[name] = float(np.linalg.norm(m - b_hat @ g @ a_hat))
    noop = b_inv @ m0 @ a_pinv
    residuals["noop"] = float(np.linalg.norm(m0 - b_hat @ noop @ a_hat))
    return RebitGateSet(
        maps=maps,
        noop=noop,
        residuals=residuals,
        observables=b_hat,
        preparations=a_hat,
        condition=float(np.linalg.cond(b_hat)),
        mode=mode,
        shots=shots if mode == "sampled" else None,
        seed=seed if mode == "sampled" else None,
    )


# ---------------------------------------------------------------------------
# Lifetime experiment
# ---------------------------------------------------------------------------


@dataclass
class LifetimeResult:
    """Same-basis repetition with inserted idles and its exponential fit.

    ``contrast`` is the signed agreement 2*Pr(agree) - 1; ``decay_rate`` the
    fitted per-idle-step contrast decay; ``flip_rate`` the equivalent
    per-step flip probability (1 - exp(-rate)) / 2.  ``flags`` is nonempty
    when the data are not consistent with a clean exponential.
    """

    basis: str
    idle_steps: tuple
    agreement: np.ndarray
    contrast: np.ndarray
    decay_rate: float
    flip_rate: float
    intercept: float
    residual: float
    flags: tuple


def lifetime_experiment(
    basis: str,
    idle_steps,
    noise: NoiseParams = NoiseParams(),
) -> LifetimeResult:
    """Exact agreement-vs-idle-count curve and its decay fit.

    Prepares the maximally mixed state, measures ``basis``, idles ``n``
    steps, measures ``basis`` again; the agreement contrast is fitted to a
    single exponential in ``n``.  Oscillatory or non-positive contrast data
    (e.g. coherent over-rotation in the X basis) are flagged.
    """
    if basis not in BASES:
        raise ValueError(f"basis must be one of {BASES}, got {basis!r}")
    steps = tuple(int(n) for n in idle_steps)
    if not steps:
        raise ValueError("idle-step grid must be nonempty")
    if any(n < 0 for n in steps):
        raise ValueError("idle-step counts must be nonnegative")
    if sorted(set(steps)) != list(steps):
        raise ValueError("idle-step grid must be strictly increasing")

    instrument = tetron_instruments(noise)[basis]
    idle = idle_superop(noise).matrix
    diff = instrument.plus - instrument.minus
    contrast = np.empty(len(steps))
    for i, n in enumerate(steps):
        propagated = np.linalg.matrix_power(idle, n)
        total = 0.0
        for s in OUTCOMES:
            vec = instrument.outcome(s) @ _MIXED
            total += s * (diff @ (propagated @ vec))[0]
        contrast[i] = total
    agreement = 0.5 * (1.0 + contrast)

    rate, intercept, residual, fit_flags = fit_decay(steps, contrast)
    flags = tuple(fit_flags)
    if math.isfinite(residual) and residual > _RESIDUAL_TOLERANCE:
        flags = flags + ("non-exponential decay",)
    flip = (1.0 - math.exp(-rate)) / 2.0 if math.isfinite(rate) else math.nan
    return LifetimeResult(
        basis=basis,
        idle_steps=steps,
        agreement=agreement,
        contrast=contrast,
        decay_rate=rate,
        flip_rate=flip,
        intercept=intercept,
        residual=residual,
        flags=flags,
    )
