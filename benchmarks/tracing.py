"""Span tracing of tetronsim's public callables, installed from outside the
package.

Every traced callable is replaced, for the duration of ``installed(...)``,
by a wrapper that records a span ``[name, start, end, parent]``.  The wrapper
is set on the name each caller binds (``qed.run_circuit``,
``braiding.average_gate_fidelity``, the ``TrajectoryEnsemble`` and
``TaggedTableau`` methods, ...), so ``src/`` stays untouched.  Spans stay in
memory and are written once, when the benchmark ends.

A span's self time is its duration minus the durations of its direct
children; the self times of all spans add up to the time covered by
top-level spans, and ``trace.outside_s`` is the rest of the traced wall time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

# (metric, unit, better) in the order BENCHMARK.json lists them.  Counts
# (unit "count" or "B") repeat exactly for a fixed seed; times do not.
METRICS = (
    ("tableau.calls", "count", "lower"),
    ("tableau.s", "s", "lower"),
    ("simulator.run_circuit.calls", "count", "lower"),
    ("simulator.run_circuit.self_s", "s", "lower"),
    ("simulator.measure.calls", "count", "lower"),
    ("simulator.measure.s", "s", "lower"),
    ("simulator.coeff_bytes", "B", "lower"),
    ("simulator.merge.calls", "count", "lower"),
    ("simulator.merge.s", "s", "lower"),
    ("simulator.idle.s", "s", "lower"),
    ("simulator.probe.s", "s", "lower"),
    ("simulator.trace_out.s", "s", "lower"),
    ("simulator.apply_pauli.calls", "count", "lower"),
    ("simulator.peak_branches", "count", "lower"),
    ("simulator.support_terms", "count", "lower"),
    ("simulator.sample_circuit.s", "s", "lower"),
    ("simulator.sample.accept_ratio", "ratio", "higher"),
    ("qed.decay_experiment.calls", "count", "lower"),
    ("qed.decay_experiment.self_s", "s", "lower"),
    ("qed.fit_decay.s", "s", "lower"),
    ("braiding.class_circuit.s", "s", "lower"),
    ("braiding.simulate_class.self_s", "s", "lower"),
    ("pauli.average_gate_fidelity.s", "s", "lower"),
    ("benchmarking.subsequence_statistics.s", "s", "lower"),
    ("benchmarking.estimate.s", "s", "lower"),
    ("pauli.self_s", "s", "lower"),
    ("tableau.self_s", "s", "lower"),
    ("simulator.self_s", "s", "lower"),
    ("benchmarking.self_s", "s", "lower"),
    ("braiding.self_s", "s", "lower"),
    ("qed.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.outside_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)

# Metrics that must repeat exactly between two traced runs of one seed.
COUNT_METRICS = tuple(name for name, unit, _ in METRICS if unit in ("count", "B"))

# Span names summed into each "<layer>.calls" / "<layer>.s" metric.
_GROUPS = {
    "tableau": ("tableau.measure", "tableau.express"),
    "simulator.measure": ("simulator.apply_measurement", "simulator.split_measurement"),
    "benchmarking.estimate": (
        "benchmarking.estimate_err_a",
        "benchmarking.estimate_err_b",
        "benchmarking.reset_deviation",
    ),
}


class Tracer:
    """In-memory span recorder plus the counters the spans cannot carry."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.counts = {"coeff_bytes": 0, "shots": 0, "accepted": 0}
        self.peak_branches = 0
        self.support_terms = 0

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()

        return traced

    # -- counters read off arguments and results ---------------------------

    def _counting_bytes(self, fn):
        """Coefficient bytes a measurement kernel reads and writes, computed
        from the block shapes before and after the call."""

        @functools.wraps(fn)
        def counted(ensemble, *args, **kwargs):
            before = ensemble.coeffs.nbytes
            result = fn(ensemble, *args, **kwargs)
            self.counts["coeff_bytes"] += before + ensemble.coeffs.nbytes
            return result

        return counted

    def _recording_run(self, fn):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.peak_branches = max(self.peak_branches, result.peak_branches)
            self.support_terms = max(self.support_terms, int(result.ensemble.support.size))
            return result

        return recorded

    def _recording_sample(self, fn):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts["shots"] += result.shots
            self.counts["accepted"] += result.accepted
            return result

        return recorded

    # -- aggregation -------------------------------------------------------

    def metrics(self, wall: float) -> dict:
        """Per-layer metrics of everything recorded, over ``wall`` seconds."""
        calls: dict = {}
        total: dict = {}
        own: dict = {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), inner in zip(self.spans, child):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            own[name] = own.get(name, 0.0) + (end - start - inner)

        def group(key):
            return _GROUPS.get(key, (key,))

        def n_calls(key):
            return sum(calls.get(n, 0) for n in group(key))

        def secs(key):
            return sum(total.get(n, 0.0) for n in group(key))

        def self_s(key):
            return sum(own.get(n, 0.0) for n in group(key))

        def layer_self(layer):
            return sum(v for n, v in own.items() if n.split(".")[0] == layer)

        covered = sum(own.values())
        shots = self.counts["shots"]
        out = {
            "tableau.calls": n_calls("tableau"),
            "tableau.s": secs("tableau"),
            "simulator.run_circuit.calls": n_calls("simulator.run_circuit"),
            "simulator.run_circuit.self_s": self_s("simulator.run_circuit"),
            "simulator.measure.calls": n_calls("simulator.measure"),
            "simulator.measure.s": secs("simulator.measure"),
            "simulator.coeff_bytes": self.counts["coeff_bytes"],
            "simulator.merge.calls": n_calls("simulator.merge"),
            "simulator.merge.s": secs("simulator.merge"),
            "simulator.idle.s": secs("simulator.idle"),
            "simulator.probe.s": secs("simulator.probe"),
            "simulator.trace_out.s": secs("simulator.trace_out"),
            "simulator.apply_pauli.calls": n_calls("simulator.apply_pauli"),
            "simulator.peak_branches": self.peak_branches,
            "simulator.support_terms": self.support_terms,
            "simulator.sample_circuit.s": secs("simulator.sample_circuit"),
            # 0 when the workload samples no circuit.
            "simulator.sample.accept_ratio": self.counts["accepted"] / shots if shots else 0.0,
            "qed.decay_experiment.calls": n_calls("qed.decay_experiment"),
            "qed.decay_experiment.self_s": self_s("qed.decay_experiment"),
            "qed.fit_decay.s": secs("qed.fit_decay"),
            "braiding.class_circuit.s": secs("braiding.class_circuit"),
            "braiding.simulate_class.self_s": self_s("braiding.simulate_class"),
            "pauli.average_gate_fidelity.s": secs("pauli.average_gate_fidelity"),
            "benchmarking.subsequence_statistics.s": secs("benchmarking.subsequence_statistics"),
            "benchmarking.estimate.s": secs("benchmarking.estimate"),
            "trace.wall_s": wall,
            "trace.outside_s": wall - covered,
        }
        for layer in ("pauli", "tableau", "simulator", "benchmarking", "braiding", "qed"):
            out[f"{layer}.self_s"] = layer_self(layer)
        return out

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "fields": ["name", "start_s", "end_s", "parent"],
            "names": names,
            "spans": [[index[n], a, b, p] for n, a, b, p in self.spans],
        }
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")


def _targets(tracer: Tracer, tetronsim) -> list:
    """(owner, attribute, replacement) for every traced callable."""
    qed, braiding, benchmarking = tetronsim.qed, tetronsim.braiding, tetronsim.benchmarking
    ens = tetronsim.simulator.TrajectoryEnsemble
    tab = tetronsim.tableau.TaggedTableau
    wrap = tracer.wrap

    plan = [
        (qed, "improvement_scan", "qed.improvement_scan"),
        (qed, "improvement_point", "qed.improvement_point"),
        (qed, "decay_experiment", "qed.decay_experiment"),
        (qed, "fit_decay", "qed.fit_decay"),
        (braiding, "fidelity_scan", "braiding.fidelity_scan"),
        (braiding, "average_class_fidelity", "braiding.average_class_fidelity"),
        (braiding, "simulate_class", "braiding.simulate_class"),
        (braiding, "class_circuit", "braiding.class_circuit"),
        (braiding, "average_gate_fidelity", "pauli.average_gate_fidelity"),
        (benchmarking, "benchmark_metrics", "benchmarking.benchmark_metrics"),
        (benchmarking, "subsequence_statistics", "benchmarking.subsequence_statistics"),
        (benchmarking, "estimate_err_a", "benchmarking.estimate_err_a"),
        (benchmarking, "estimate_err_b", "benchmarking.estimate_err_b"),
        (benchmarking, "reset_deviation", "benchmarking.reset_deviation"),
        (tab, "measure", "tableau.measure"),
        (tab, "express", "tableau.express"),
        (ens, "merge", "simulator.merge"),
        (ens, "prune", "simulator.prune"),
        (ens, "apply_idle", "simulator.idle"),
        (ens, "expectation", "simulator.probe"),
        (ens, "trace_out", "simulator.trace_out"),
        (ens, "apply_pauli", "simulator.apply_pauli"),
    ]
    out = [(owner, attr, wrap(name, getattr(owner, attr))) for owner, attr, name in plan]
    for attr in ("apply_measurement", "split_measurement"):
        kernel = tracer._counting_bytes(getattr(ens, attr))
        out.append((ens, attr, wrap(f"simulator.{attr}", kernel)))
    for owner in (qed, braiding):
        run = tracer._recording_run(owner.run_circuit)
        out.append((owner, "run_circuit", wrap("simulator.run_circuit", run)))
    sample = tracer._recording_sample(qed.sample_circuit)
    out.append((qed, "sample_circuit", wrap("simulator.sample_circuit", sample)))
    return out


@contextlib.contextmanager
def installed(tracer: Tracer, tetronsim):
    """Route the traced callables through ``tracer`` inside the block."""
    targets = _targets(tracer, tetronsim)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
    try:
        for owner, attr, replacement in targets:
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
