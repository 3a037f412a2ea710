"""A dense whole-circuit reference for tetronsim's exact engine.

Every record branch is a full Pauli vector of length 4^n (v_P = tr(P rho),
qubit 0 the most significant base-4 digit), and every operation is the dense
transfer matrix that :mod:`tetronsim.channels` builds, applied with
``channels.apply_superop_to_axes``.  Nothing here calls the simulator's
sparse kernels, its lowering or its plan, so a wrong kernel shows up as a
disagreement with this reference instead of agreeing with itself.

A step applies its ops in listed order and then one idle step to every
qubit that no measurement of the step touches.  A branch is keyed by its
initial tags and by the running value of every tracked parity: each kept
entry (a slot, or a :class:`Parity` of slots), read at the end, and each
detector, whose value must come out +1 when its last slot in recording order
is recorded.  Branches with equal keys have the same future, which is
linear, so they are summed as they meet.  A probe is read after its step.

Memory is 4^n floats per branch: fine up to eight qubits and a few dozen
branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from tetronsim import channels
from tetronsim.pauli import PauliString
from tetronsim.simulator import Circuit, Meas1, Parity, Rotate


def _pauli(p) -> PauliString:
    return PauliString.from_text(p) if isinstance(p, str) else p


def _read(vec: np.ndarray, pauli) -> float:
    """tr(P rho) of a signed Pauli P."""
    p = _pauli(pauli)
    return float(vec[p.index]) * p.sign


def _add(branches: dict, key, vec: np.ndarray) -> None:
    branches[key] = branches[key] + vec if key in branches else vec


@dataclass
class OracleRun:
    """The accepted branches of a run.

    ``branches`` maps (frozenset of the initial branch's tag items, values
    of the ``kept`` entries, in order) to that branch's subnormalized Pauli
    vector.  ``probes`` and ``probe_acceptance`` read like those of
    :class:`tetronsim.RunResult`; ``probe_traces`` holds, per probe step,
    the trace of every branch held there; ``peak`` is the most branches held
    after any measurement.
    """

    num_qubits: int
    kept: tuple
    branches: dict
    probes: dict = field(default_factory=dict)
    probe_acceptance: dict = field(default_factory=dict)
    probe_traces: dict = field(default_factory=dict)
    peak: int = 0

    @property
    def state(self) -> np.ndarray:
        """The record-summed Pauli vector."""
        return sum(self.branches.values(), np.zeros(4**self.num_qubits))

    @property
    def acceptance(self) -> float:
        return float(self.state[0])

    def expectation(self, pauli) -> float:
        state = self.state
        return _read(state, pauli) / state[0]


def run(circuit: Circuit, noise: channels.NoiseParams, initial, *, keep=(),
        probes=None) -> OracleRun:
    """Run ``circuit`` from ``initial``, any object with the ``num_qubits``,
    ``support``, ``coeffs`` and ``tags`` of a ``TrajectoryEnsemble``.
    ``keep`` lists slots and parities (``"all"``: every slot) whose values
    key the final branches; ``probes`` maps a step index to Paulis."""
    n = circuit.num_qubits
    if initial.num_qubits != n:
        raise ValueError("initial state size does not match circuit")
    kept = circuit.slots if keep == "all" else tuple(keep)
    order = {slot: i for i, slot in enumerate(circuit.slots)}
    parities = [e if isinstance(e, Parity) else Parity((e,)) for e in kept]
    parities += circuit.detectors
    last = [None] * len(kept) + [max(d.slots, key=order.__getitem__) for d in circuit.detectors]
    start = tuple(p.sign for p in parities)
    branches: dict = {}
    for row, tag in zip(initial.coeffs, initial.tags):
        vec = np.zeros(4**n)
        vec[initial.support] = row
        _add(branches, (frozenset(tag.items()), start), vec)
    probes = {int(s): [_pauli(p) for p in ps] for s, ps in (probes or {}).items()}
    result = OracleRun(n, kept, {}, peak=len(branches))
    idle = channels.idle_superop(noise)

    def apply(superop, qubits, within):
        return {key: channels.apply_superop_to_axes(superop, vec, qubits, n)
                for key, vec in within.items()}

    for step_i, step in enumerate(circuit.steps):
        measured: set = set()
        for op in step.ops:
            if isinstance(op, Rotate):
                branches = apply(channels.rotation_superop(op.axis, op.angle), op.qubits, branches)
                continue
            measured.update(op.qubits)
            if isinstance(op, Meas1):
                superops = {r: channels.meas1_record_superop(op.letter, r, noise) for r in (1, -1)}
            else:
                superops = {r: channels.meas2_record_superop(op.letters, r, noise)
                            for r in (1, -1)}
            out: dict = {}
            for (tags, values), vec in branches.items():
                for record, superop in superops.items():
                    new = tuple(v * record if op.slot in p.slots else v
                                for v, p in zip(values, parities))
                    if all(v == 1 for v, at in zip(new, last) if at == op.slot):
                        _add(out, (tags, new),
                             channels.apply_superop_to_axes(superop, vec, op.qubits, n))
            branches = out
            result.peak = max(result.peak, len(branches))
        for q in range(n):
            if q not in measured:
                branches = apply(idle, (q,), branches)
        if step_i in probes:
            state = sum(branches.values(), np.zeros(4**n))
            trace = float(state[0])
            result.probe_acceptance[step_i] = trace
            result.probe_traces[step_i] = [float(vec[0]) for vec in branches.values()]
            result.probes[step_i] = {
                str(p): _read(state, p) / trace if trace > 0.0 else math.nan
                for p in probes[step_i]
            }
    # A completed detector reads +1 in every accepted branch, so the kept
    # values alone tell the final branches of one initial group apart.
    for (tags, values), vec in branches.items():
        _add(result.branches, (tags, values[: len(kept)]), vec)
    return result


def ensemble_branches(ensemble, kept=()) -> dict:
    """An engine ensemble's branches in the keys of :attr:`OracleRun.branches`:
    tags other than the ``kept`` entries' ``("s", entry)`` items form the
    initial tags, and rows with equal keys are summed."""
    kept = tuple(kept)
    names = {("s", entry) for entry in kept}
    out: dict = {}
    for row, tag in zip(ensemble.coeffs, ensemble.tags):
        vec = np.zeros(4**ensemble.num_qubits)
        vec[ensemble.support] = row
        key = (frozenset(item for item in tag.items() if item[0] not in names),
               tuple(tag[("s", entry)] for entry in kept))
        _add(out, key, vec)
    return out


def assert_same_branches(got: dict, want: dict, atol: float) -> None:
    """Every branch of ``want`` (oracle keys) is in ``got`` with the same
    vector up to ``atol``; a key of only one side must be zero there."""
    if not (got or want):
        return
    zero = np.zeros_like(next(iter({**got, **want}.values())))
    for key in got.keys() | want.keys():
        np.testing.assert_allclose(got.get(key, zero), want.get(key, zero), rtol=0, atol=atol,
                                   err_msg=f"branch {key}")
