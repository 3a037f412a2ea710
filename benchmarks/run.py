"""tetronsim benchmark: time to figure, end to end and layer by layer.

Run from the root of a checkout::

    python3 benchmarks/run.py --workload qed_map --seed 1 --seconds 20 --trace 0

Workloads: ``qed_map``, ``braid_map``, ``theta_point``, ``sampled`` (see
``workloads.py`` and ``README.md``).  Each runs in one process on one thread.

``--trace 0`` times whole passes of fresh seeded inputs for about
``--seconds`` seconds with tracing off and reports the end-to-end metrics.
``--trace 1`` runs pass 0 of the seed once untraced and twice traced, and
reports the per-layer metrics of the traced passes; their counts must repeat
exactly.  Either way every output is checked outside the timed region, and
the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only when every pin and every point passed.  Span traces
and a full result record (environment, sample counts, failures) go to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread: the workloads are single-threaded by design.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
END_TO_END = (
    ("setup_s", "s"),
    ("points_per_s", "1/s"),
    ("point_p50_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _import_library():
    """Import tetronsim from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "tetronsim" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'tetronsim'} not found; run from a tetronsim checkout")
    sys.path.insert(0, str(SRC))
    import tetronsim

    if Path(tetronsim.__file__).resolve().parent != SRC / "tetronsim":
        sys.exit(f"error: imported tetronsim from {tetronsim.__file__}, not {SRC}")
    return tetronsim


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("qed_map", "braid_map", "theta_point", "sampled"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, make pass-0 inputs, verify the pins, exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def _read(path) -> "str | None":
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _cpu_model() -> "str | None":
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in range(8):
        level = _read(base / f"index{index}" / "level")
        kind = _read(base / f"index{index}" / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            out[f"L{level}"] = _read(base / f"index{index}" / "size")
    return out


def _git_commit() -> "str | None":
    """HEAD of the checkout, read from ``.git`` (None outside a clone)."""
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(ROOT / ".git" / ref)
    if direct:
        return direct
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup_times(args) -> "tuple[list, list]":
    """Wall time of fresh processes that import, make inputs and verify the
    pins; also the failures they report."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
    times, failures = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            failures.append(f"set-up process exited {done.returncode}: {done.stderr[-500:]}")
    return times, failures


def _one_pass(workload, inputs):
    """(outputs or None, latencies, failure messages, pass wall seconds)."""
    start = time.perf_counter()
    try:
        outputs, latencies = workload.run(inputs)
    except Exception as exc:  # a raising pass fails all of its points
        traceback.print_exc()
        wall = time.perf_counter() - start
        return None, [], [f"raised {type(exc).__name__}: {exc}"] * workload.count(inputs), wall
    return outputs, latencies, None, time.perf_counter() - start


def _tail(latencies) -> "dict | None":
    """Highest percentile with at least ten samples beyond it."""
    n = len(latencies)
    if n < 11:
        return None
    ranked = sorted(latencies)
    return {"percentile": 100.0 * (n - 10) / n, "value_s": ranked[n - 11], "samples": n}


def measure_untraced(args, workload, workloads_mod) -> dict:
    """Whole passes of fresh inputs, as many as end nearest ``--seconds``."""
    latencies, failures, walls, attempted = [], [], [], 0
    runs = []
    index = 0
    while True:
        inputs = workload.inputs(workloads_mod.pass_rng(args.seed, index))
        outputs, lat, raised, wall = _one_pass(workload, inputs)
        runs.append((inputs, outputs, raised))
        attempted += workload.count(inputs)
        latencies.extend(lat)
        walls.append(wall)
        index += 1
        spent = sum(walls)
        if spent + 0.5 * spent / index >= args.seconds:  # one more pass would overshoot more
            break
    for inputs, outputs, raised in runs:  # checks stay outside the timed passes
        failures.extend(raised if raised is not None else workload.check(inputs, outputs))
    return {
        "passes": index,
        "attempted": attempted,
        "failures": failures,
        "problems": [],
        "pass_wall_s": walls,
        "latencies": latencies,
    }


def measure_traced(args, workload, workloads_mod, tetronsim, tracing) -> dict:
    """Pass 0 four times, alternating untraced and traced; the counts of the
    two traced passes must repeat exactly."""
    inputs = workload.inputs(workloads_mod.pass_rng(args.seed, 0))
    untraced, traced, tracers = [], [], []
    for _ in range(2):
        untraced.append(_one_pass(workload, inputs))
        tracer = tracing.Tracer()
        with tracing.installed(tracer, tetronsim):
            traced.append(_one_pass(workload, inputs))
        tracers.append(tracer)
    failures, problems = [], []
    for outputs, _, raised, _ in untraced + traced:
        failures.extend(raised if raised is not None else workload.check(inputs, outputs))
    per_pass = [t.metrics(outcome[3]) for t, outcome in zip(tracers, traced)]
    for name in tracing.COUNT_METRICS:
        if per_pass[0][name] != per_pass[1][name]:
            problems.append(
                f"count {name} did not repeat: {per_pass[0][name]} vs {per_pass[1][name]}"
            )
    layer = {
        name: (per_pass[0][name] if name in tracing.COUNT_METRICS
               else 0.5 * (per_pass[0][name] + per_pass[1][name]))
        for name in per_pass[0]
    }
    untraced_wall = 0.5 * (untraced[0][3] + untraced[1][3])
    layer["trace.overhead"] = layer["trace.wall_s"] / untraced_wall
    OUT.mkdir(exist_ok=True)
    tracers[0].write(OUT / f"spans_{args.workload}_seed{args.seed}.json")
    return {
        "passes": 4,
        "attempted": 4 * workload.count(inputs),
        "failures": failures,
        "problems": problems,
        "untraced_wall_s": untraced_wall,
        "layer": layer,
    }


def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def main(argv=None) -> int:
    args = _parse(argv)
    tetronsim = _import_library()
    import checks
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workload.inputs(workloads.pass_rng(args.seed, 0))  # input generation is set-up work
    pin_failures = checks.verify_pins()  # the verified warm-up
    if args.setup_only:
        for message in pin_failures:
            print(message, file=sys.stderr)
        return 1 if pin_failures else 0
    if pin_failures:
        for message in pin_failures:
            print(f"PIN FAILED {message}", file=sys.stderr)
        print(_result(False, len(checks.PINS), len(pin_failures), {}))
        return 1

    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(args.seed)}
    if args.trace:
        run = measure_traced(args, workload, workloads, tetronsim, tracing)
        units = {name: unit for name, unit, _ in tracing.METRICS}
        metrics = {name: {"value": run["layer"][name], "unit": unit} for name, unit in units.items()}
    else:
        setup, setup_failures = _setup_times(args)
        run = measure_untraced(args, workload, workloads)
        run["problems"].extend(setup_failures)
        lat = run["latencies"]
        values = {
            "setup_s": statistics.median(setup),
            "points_per_s": run["attempted"] / sum(run["pass_wall_s"]),
            "point_p50_s": statistics.median(lat) if lat else float("nan"),
            "peak_rss_mb": _peak_rss_mb(),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        record.update(setup_s=setup, samples=len(lat), tail=_tail(lat))

    failures, problems = run.pop("failures"), run.pop("problems")
    run.pop("latencies", None)
    record.update(run, failures=failures, problems=problems, metrics=metrics)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for message in failures + problems:
        print(f"FAILED {message}", file=sys.stderr)
    correct = not failures and not problems
    print(json.dumps({"environment": record["environment"], "samples": record.get("samples"),
                      "tail": record.get("tail"), "passes": record["passes"]}))
    print(_result(correct, run["attempted"], len(failures), metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
