"""Batch experiment runner for the tetronsim toolkit.

Subcommands
-----------
``mbqb``
    Measurement-based qubit benchmarking: assignment-error and bias metrics
    from two-measurement subsequence statistics.
``braid``
    Average-fidelity scan of a measurement-braided Clifford class over the
    (p1, p_a) grid at fixed p2.
``qed``
    Ladder-code logical-improvement scan over the (p1, p2) grid plus the
    improvement = 1 contour.
``lifetime``
    Idle-lifetime decay experiment and exponential fit.
``tgate``
    Timed-coupling magic-state preparation fidelity under phase error.
``derive-noise``
    Resolve physical device parameters into simulator noise parameters.
``check``
    Embedded regression battery over all modules.

Configuration comes from an INI file (sections ``[noise]``, ``[run]``, and
one section per subcommand) with command-line flags taking precedence.
Exit codes: 0 success, 1 configuration error, 2 numerical invariant
failure, 3 regression check failure.

Sweeps check their axis once (``_noise_axis``) and run the library scan,
which walks its grid with ``channels.walk_grid``, one p1 row per task over a
fixed-size process pool (``_scan_by_rows``); rows are gathered in grid
order, so outputs are byte-identical for any worker count.

A subcommand is one ``_EXPERIMENTS`` entry (help, options, check group,
sampled mode) plus its ``cmd_<name>``, which computes and prints the
results and returns the artifact texts and manifest summary.  One runner
resolves the settings, times the run, runs the checks and writes the
outputs for every subcommand.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import json
import math
import multiprocessing
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, benchmarking, braiding, qed
from .channels import (
    NoiseParams,
    derive_noise,
    t_state_fidelity,
    timed_coupling_rotation,
)
from .simulator import CircuitBuilder, TrajectoryEnsemble, run_circuit


class ConfigError(Exception):
    """Unusable configuration: bad file, key, value, or flag combination."""


class NumericalError(Exception):
    """A computed result violated a numerical invariant (NaN, out of range)."""


# ---------------------------------------------------------------------------
# Value parsing
# ---------------------------------------------------------------------------


def _to_int(label: str, text: str) -> int:
    try:
        return int(str(text), 10)
    except ValueError as exc:
        raise ConfigError(f"{label} must be an integer, got {text!r}") from exc


def _to_float(label: str, text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"{label} must be a number, got {text!r}") from exc


def parse_grid(text: str) -> "np.ndarray | None":
    """Grid specification: ``default``, a comma list, ``lin:a:b:n``, or
    ``log:a:b:n`` (n points from a to b, linearly or geometrically)."""
    text = text.strip()
    if text == "default":
        return None
    parts = text.split(":")
    if parts[0] in ("lin", "log"):
        if len(parts) != 4:
            raise ConfigError(
                f"grid spec must look like {parts[0]}:start:stop:count, got {text!r}"
            )
        a = _to_float("grid start", parts[1])
        b = _to_float("grid stop", parts[2])
        n = _to_int("grid count", parts[3])
        if n < 1:
            raise ConfigError(f"grid count must be positive, got {n}")
        if parts[0] == "lin":
            return np.linspace(a, b, n)
        if a <= 0 or b <= 0:
            raise ConfigError("log grid endpoints must be positive")
        return np.geomspace(a, b, n)
    return np.array([_to_float("grid value", v) for v in text.split(",")])


def _list_of(parse):
    """A converter of a comma list (or ``default``) read by ``parse``."""

    def convert(text: str) -> "tuple | None":
        if text.strip() == "default":
            return None
        return tuple(parse("list entry", v) for v in text.split(","))

    return convert


def _conv_int(text: str) -> int:
    try:
        return int(str(text), 10)
    except ValueError as exc:
        raise ConfigError(f"must be an integer, got {text!r}") from exc


def _conv_posint(text: str) -> int:
    value = _to_int("value", text)
    if value < 1:
        raise ConfigError(f"must be a positive integer, got {value}")
    return value


_conv_float = functools.partial(_to_float, "value")


# ---------------------------------------------------------------------------
# Settings resolution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Opt:
    """One setting: its ``--flag`` (``_`` spelled ``-``), else its config key,
    else the ``noise`` parameter it names if the noise inputs set it, else
    ``default``, which a converted None (a ``default`` grid or list) stands for."""

    convert: "object"
    default: "object"
    help: str
    choices: "tuple | None" = None
    metavar: str = "VALUE"
    noise: "str | None" = None


# The [run] section.  Its only flags for ``mode`` are --exact and --shots,
# which also selects sampled mode.
_RUN: dict = {
    "seed": _Opt(_conv_int, 0, "base random seed", metavar="U64"),
    "workers": _Opt(_conv_int, 1, "process count for grid sweeps", metavar="N"),
    "out": _Opt(Path, None, "artifact output directory", metavar="DIR"),
    "mode": _Opt(str, "exact", "exact or sampled statistics", ("exact", "sampled")),
    "shots": _Opt(_conv_int, 1_000_000, "sampled statistics with N shots", metavar="N"),
}


@dataclass
class Settings:
    """Fully resolved run configuration (defaults < config file < flags)."""

    noise: NoiseParams
    noise_inputs: dict
    noise_audit: dict
    seed: int
    workers: int
    mode: str
    shots: int
    out: "Path | None"
    options: dict


def _read_ini(path: Path) -> dict:
    """Each section of the INI file at ``path``, as a dict of its keys.  A
    section that no setting reads is rejected."""
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # noise keys are case-sensitive
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    allowed = {"noise", "run"} | set(_EXPERIMENTS)
    unknown = set(parser.sections()) - allowed
    if unknown:
        raise ConfigError(
            f"unknown config section(s) {sorted(unknown)}; expected {sorted(allowed)}"
        )
    return {name: dict(parser.items(name)) for name in parser.sections()}


def _ini_section(config: dict, name: str, expected=None) -> dict:
    """The keys of section ``[name]`` of ``config`` (none if it is absent).
    With ``expected``, the keys it allows, a key outside it is rejected and
    the message lists ``expected`` as given."""
    section = dict(config.get(name, {}))
    unknown = set() if expected is None else set(section) - set(expected)
    if unknown:
        raise ConfigError(f"unknown [{name}] key(s) {sorted(unknown)}; expected {expected}")
    return section


def _resolve_options(table: dict, section: dict, args: argparse.Namespace, label: str,
                     given: dict) -> dict:
    """Every setting of ``table`` (see :class:`_Opt`), with ``section`` its
    config keys and ``given`` the noise parameters that the noise inputs set.
    A value that does not convert is named by ``label``, formatted with the
    setting's ``key`` and the ``source`` it came from: its flag or its key."""
    values = {}
    for key, opt in table.items():
        raw, source = getattr(args, "opt_" + key), "--" + key.replace("_", "-")
        if raw is None:
            raw, source = section.get(key), key
        if raw is None:
            values[key] = given.get(opt.noise, opt.default)
            continue
        try:
            if opt.choices and raw not in opt.choices:
                raise ConfigError(f"must be one of {', '.join(opt.choices)}; got {raw!r}")
            value = opt.convert(raw)
        except ConfigError as exc:
            raise ConfigError(label.format(key=key, source=source) + str(exc)) from exc
        values[key] = opt.default if value is None else value
    return values


def _resolve(args: argparse.Namespace, experiment: str) -> Settings:
    config = _read_ini(Path(args.config)) if args.config else {}

    # -- noise: any key, which derive_noise checks --------------------------
    noise_inputs = _ini_section(config, "noise")
    for item in args.noise or ():
        key, sep, value = item.partition("=")
        if not sep or not key.strip():
            raise ConfigError(f"--noise expects KEY=VALUE, got {item!r}")
        noise_inputs[key.strip()] = value.strip()
    try:
        noise, audit = derive_noise(noise_inputs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    noise_inputs = {key: float(value) for key, value in noise_inputs.items()}

    # -- [run] settings ---------------------------------------------------
    run = _resolve_options(_RUN, _ini_section(config, "run", tuple(_RUN)), args, "{source} ", {})
    if args.opt_shots is not None:  # --shots also selects sampled mode
        run["mode"] = "sampled"
    if not 0 <= run["seed"] < 2**64:
        raise ConfigError(f"seed must be in [0, 2^64), got {run['seed']}")
    for key in ("workers", "shots"):
        if run[key] < 1:
            raise ConfigError(f"{key} must be at least 1, got {run[key]}")
    if run["mode"] == "sampled" and not _EXPERIMENTS[experiment].sampled:
        chosen = "--shots" if args.opt_shots is not None else "[run] mode = sampled"
        raise ConfigError(f"{experiment} runs exactly; it has no sampled mode (drop {chosen})")

    # -- experiment options -------------------------------------------------
    spec = _EXPERIMENTS[experiment].options
    routes = audit.get("route", {})
    given = {param: value for param, value in dataclasses.asdict(noise).items()
             if routes.get(param, "default") != "default"}
    section = _ini_section(config, experiment, sorted(spec))
    options = _resolve_options(spec, section, args, "option {key!r}: ", given)

    return Settings(
        noise=noise,
        noise_inputs=noise_inputs,
        noise_audit=audit,
        options=options,
        **run,
    )


def _noise_axis(grid, default, swept: tuple, **fixed: float) -> np.ndarray:
    """The scan axis ``grid`` (``default`` when None), swept by every
    parameter in ``swept`` at once.  Its endpoints are checked against the
    noise-parameter domain up front, so worker processes never see an
    invalid point."""
    axis = np.asarray(default if grid is None else grid, float)
    for extreme in (axis.min(), axis.max()):
        try:
            NoiseParams(**dict.fromkeys(swept, float(extreme)), **fixed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return axis


# ---------------------------------------------------------------------------
# Numerical invariant checks on results
# ---------------------------------------------------------------------------


def _require_values(
    label: str,
    values,
    low: "float | None" = None,
    high: "float | None" = None,
    tol: float = 1e-9,
) -> None:
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    flat = arr.reshape(-1)
    for pos, value in enumerate(flat):
        where = f" at flat index {pos}" if flat.size > 1 else ""
        if math.isnan(value):
            raise NumericalError(f"{label} is NaN{where}")
        if math.isinf(value):
            raise NumericalError(f"{label} is infinite{where}")
        if low is not None and value < low - tol:
            raise NumericalError(f"{label} = {value!r}{where} is below {low}")
        if high is not None and value > high + tol:
            raise NumericalError(f"{label} = {value!r}{where} is above {high}")


# ---------------------------------------------------------------------------
# Deterministic parallel map
# ---------------------------------------------------------------------------


def _scan_by_rows(scan, p1_grid: np.ndarray, workers: int):
    """Run a library scan on one p1 row per task and stack the rows' 2-D
    result grids into one scan over ``p1_grid``.  With more than one worker
    the rows fan out to a process pool; either way they come back in grid
    order."""
    tasks = [[p1] for p1 in p1_grid]
    processes = min(workers, len(tasks))
    if processes <= 1:
        rows = [scan(task) for task in tasks]
    else:
        with multiprocessing.Pool(processes) as pool:
            rows = pool.map(scan, tasks, chunksize=max(1, len(tasks) // (4 * processes)))
    grids = {
        f.name: np.vstack([getattr(row, f.name) for row in rows])
        for f in dataclasses.fields(rows[0])
        if np.ndim(getattr(rows[0], f.name)) == 2
    }
    return dataclasses.replace(rows[0], p1_grid=p1_grid, **grids)


# ---------------------------------------------------------------------------
# Artifact emission
# ---------------------------------------------------------------------------


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


def _json_text(value) -> str:
    return json.dumps(_jsonable(value), indent=2) + "\n"


def _write_files(out: Path, files: dict) -> None:
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out / name).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write outputs to {out}: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommand implementations: each computes and prints its results and
# returns (artifact name -> text, manifest summary)
# ---------------------------------------------------------------------------


def cmd_mbqb(settings: Settings) -> tuple:
    order = settings.options["debruijn"]
    if settings.mode == "sampled" and order < 4:
        raise ConfigError(
            f"option 'debruijn': sampled mode needs order 4 or more, got {order}; "
            "a shorter de Bruijn cycle misses some of the four-measurement "
            "windows the conditional table needs"
        )
    try:
        metrics = benchmarking.benchmark_metrics(
            settings.noise,
            mode=settings.mode,
            shots=settings.shots,
            seed=settings.seed,
            sequence=benchmarking.generate_debruijn(order),
            chains=settings.options["chains"],
        )
    except ValueError as exc:  # a sampled table left an entry unobserved
        raise NumericalError(str(exc)) from exc
    _require_values("err_a", metrics.err_a, 0.0, 1.0)
    _require_values("err_b", metrics.err_b, 0.0, 1.0)

    if metrics.err_a_interval is None:
        print(f"err_a = {metrics.err_a:.9g}")
        print(f"err_b = {metrics.err_b:.9g}")
    else:
        print(f"err_a = {metrics.err_a:.9g} +- {metrics.err_a_interval:.3g} (95%)")
        print(f"err_b = {metrics.err_b:.9g} +- {metrics.err_b_interval:.3g} (95%)")
    print(f"reset_distance = {metrics.reset_distance:.3g}")

    summary = {
        "err_a": metrics.err_a,
        "err_b": metrics.err_b,
        "err_a_interval": metrics.err_a_interval,
        "err_b_interval": metrics.err_b_interval,
        "reset_distance": metrics.reset_distance,
    }
    return {"mbqb_metrics.json": metrics.to_json() + "\n"}, summary


def cmd_braid(settings: Settings) -> tuple:
    name = settings.options["class"]
    p2, theta = settings.options["p2"], settings.options["theta"]
    grid = _noise_axis(
        settings.options["grid"], braiding.FIDELITY_GRID, ("p1", "p_a"), p2=p2, theta=theta
    )
    row = functools.partial(braiding.fidelity_scan, name, pa_grid=grid, p2=p2, theta=theta)
    scan = _scan_by_rows(row, grid, settings.workers)
    fidelity = scan.fidelity
    _require_values("fidelity", fidelity, 0.0, 1.0)

    print(f"class = {name}")
    print(f"points = {fidelity.size}")
    print(f"fidelity(origin) = {fidelity[0, 0]:.9g}")
    print(f"fidelity(min) = {fidelity.min():.9g}")

    summary = {
        "class": name,
        "p2": p2,
        "theta": theta,
        "fidelity_origin": fidelity[0, 0],
        "fidelity_min": fidelity.min(),
    }
    return {f"braid_{name}.csv": braiding.scan_to_csv(scan)}, summary


def cmd_qed(settings: Settings) -> tuple:
    pa, theta = settings.options["pa"], settings.options["theta"]
    rounds = settings.options["rounds"]
    grid = _noise_axis(
        settings.options["scan"], qed.IMPROVEMENT_GRID, ("p1", "p2"), p_a=pa, theta=theta
    )
    try:
        qed.DecayExperimentSpec("physical", "XX", rounds, NoiseParams())
    except ValueError as exc:
        raise ConfigError(f"option 'rounds': {exc}") from exc

    row = functools.partial(
        qed.improvement_scan, p2_grid=grid, p_a=pa, theta=theta, rounds_grid=rounds
    )
    scan = _scan_by_rows(row, grid, settings.workers)
    for label, arr in (
        ("lambda", scan.lambda_avg),
        ("lambda_x", scan.lambda_x),
        ("lambda_z", scan.lambda_z),
    ):
        if np.isnan(arr).any():
            i, j = map(int, np.argwhere(np.isnan(arr))[0])
            raise NumericalError(
                f"{label} is NaN at p1={scan.p1_grid[i]:.6g}, p2={scan.p2_grid[j]:.6g}"
            )
    _require_values("accept_phys", scan.accept_phys, 0.0, 1.0)
    _require_values("accept_log", scan.accept_log, 0.0, 1.0)

    contour = scan.contour("avg", 1.0)
    improving = int(np.sum(scan.lambda_avg > 1.0))
    best = scan.best_p1("avg")
    print(f"points = {scan.lambda_avg.size}")
    print(f"lambda(max) = {np.max(scan.lambda_avg):.9g}")
    print(f"improving_points = {improving}")
    if best is not None:
        print(f"best_p1 = {best[0]:.9g} (max admissible p2 = {best[1]:.9g})")

    summary = {
        "p_a": pa,
        "theta": theta,
        "rounds": list(rounds),
        "lambda_max": float(np.max(scan.lambda_avg)),
        "improving_points": improving,
        "best_p1": list(best) if best is not None else None,
    }
    files = {
        "qed_scan.csv": qed.scan_to_csv(scan),
        "qed_contour.csv": qed.contour_to_csv(contour),
    }
    return files, summary


def cmd_lifetime(settings: Settings) -> tuple:
    basis = settings.options["basis"]
    steps = settings.options["idle_steps"]
    try:
        result = benchmarking.lifetime_experiment(basis, steps, settings.noise)
    except ValueError as exc:
        raise ConfigError(f"option 'idle_steps': {exc}") from exc
    if math.isnan(result.decay_rate):
        detail = "; ".join(result.flags) or "decay fit returned NaN"
        raise NumericalError(f"decay rate is NaN ({detail})")
    _require_values("agreement", result.agreement, 0.0, 1.0)

    print(f"basis = {basis}")
    print(f"decay_rate = {result.decay_rate:.9g}")
    print(f"flip_rate = {result.flip_rate:.9g}")
    print(f"intercept = {result.intercept:.9g}")
    for flag in result.flags:
        print(f"flag: {flag}")

    rows = ["idle_steps,agreement,contrast"]
    for n, agree, contrast in zip(result.idle_steps, result.agreement, result.contrast):
        rows.append(f"{n},{agree:.12g},{contrast:.12g}")
    report = {
        "basis": basis,
        "idle_steps": list(result.idle_steps),
        "decay_rate": result.decay_rate,
        "flip_rate": result.flip_rate,
        "intercept": result.intercept,
        "residual": result.residual,
        "flags": list(result.flags),
    }
    summary = {
        "basis": basis,
        "decay_rate": result.decay_rate,
        "flip_rate": result.flip_rate,
        "flags": list(result.flags),
    }
    files = {
        "lifetime.csv": "\n".join(rows) + "\n",
        "lifetime.json": _json_text(report),
    }
    return files, summary


def cmd_tgate(settings: Settings) -> tuple:
    phi = settings.options["phi"]
    deltas = settings.options["delta"]
    fidelities = [t_state_fidelity(delta, phi=phi) for delta in deltas]
    _require_values("fidelity", fidelities, 0.0, 1.0, tol=1e-12)

    print(f"phi = {phi:.9g}")
    for delta, fid in zip(deltas, fidelities):
        print(f"fidelity(delta={delta:.9g}) = {fid:.12g}")

    report = {
        "phi": phi,
        "axis": "Z",
        "points": [
            {"delta": d, "fidelity": f} for d, f in zip(deltas, fidelities)
        ],
    }
    summary = {"phi": phi, "fidelity_min": min(fidelities)}
    return {"tgate.json": _json_text(report)}, summary


def cmd_derive_noise(settings: Settings) -> tuple:
    derived = dataclasses.asdict(settings.noise)
    routes = settings.noise_audit.get("route", {})
    for param in derived:
        if routes.get(param) == "default":
            print(
                f"note: {param} not derivable from the given inputs; "
                "defaulted to 0",
                file=sys.stderr,
            )
    for param, value in derived.items():
        print(f"{param} = {value:.12g} (route: {routes.get(param, '?')})")

    report = {
        "noise": derived,
        "inputs": settings.noise_inputs,
        "audit": settings.noise_audit,
    }
    return {"derived_noise.json": _json_text(report)}, derived


# ---------------------------------------------------------------------------
# The experiment table and its runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Experiment:
    """One subcommand: ``run`` is its ``cmd_<name>``, ``options`` its
    ``--flag`` / config-key table, ``checks`` its ``--check`` group, and
    ``sampled`` whether it has a sampled mode."""

    run: "object"
    help: str
    options: dict
    checks: tuple
    sampled: bool = False


_GRID_HELP = "'default', a comma list, or lin:a:b:n / log:a:b:n"
_THETA = _Opt(_conv_float, 0.0, "coherent idle rotation angle (else [noise] theta)", noise="theta")

_EXPERIMENTS: dict = {
    "mbqb": _Experiment(
        cmd_mbqb,
        "measurement benchmarking metrics (err_a, err_b)",
        {
            "chains": _Opt(_conv_posint, 256, "independent chains in sampled mode"),
            "debruijn": _Opt(
                _conv_posint, 4, "de Bruijn order k; the basis sequence has period 2^k"
            ),
        },
        (
            "mbqb-randomizing-metrics",
            "mbqb-readout-flip-0.1",
            "mbqb-identical-instruments",
            "mbqb-device-pa-0.05",
        ),
        sampled=True,
    ),
    "braid": _Experiment(
        cmd_braid,
        "average-fidelity scan for a braided Clifford class",
        {
            "class": _Opt(str, "S", "Clifford class to braid", braiding.CLIFFORD_CLASSES),
            "p2": _Opt(
                _conv_float, 0.1,
                "two-qubit error rate held fixed (else [noise] p2, else 0.1)",
                noise="p2",
            ),
            "theta": _THETA,
            "grid": _Opt(parse_grid, None, f"p1 and p_a axis: {_GRID_HELP}"),
        },
        (
            "braid-sequence-identities",
            "braid-identity-noiseless",
            "braid-fidelity-pin",
        ),
    ),
    "qed": _Experiment(
        cmd_qed,
        "ladder-code logical-improvement scan",
        {
            "pa": _Opt(
                _conv_float, 0.01,
                "assignment error rate held fixed (else [noise] p_a, else 0.01)",
                noise="p_a",
            ),
            "theta": _THETA,
            "scan": _Opt(parse_grid, None, f"p1 and p2 axis: {_GRID_HELP}"),
            "rounds": _Opt(
                _list_of(_to_int), (2, 4, 6, 8, 10), "decay-experiment round counts"
            ),
        },
        ("qed-lambda-pin", "qed-theta-lambda-pin", "repcode-error-table",
         "simulator-trace-conservation"),
    ),
    "lifetime": _Experiment(
        cmd_lifetime,
        "idle-lifetime decay experiment",
        {
            "basis": _Opt(str, "Z", "measurement basis", ("X", "Z")),
            "idle_steps": _Opt(
                _list_of(_to_int),
                tuple(range(0, 31, 3)),
                "idle counts between measurements",
            ),
        },
        ("lifetime-flip-rate",),
    ),
    "tgate": _Experiment(
        cmd_tgate,
        "timed-coupling magic-state fidelity under phase error",
        {
            "phi": _Opt(_conv_float, math.pi / 8.0, "nominal rotation angle"),
            "delta": _Opt(
                _list_of(_to_float), (0.0, 0.05, 0.1), "injected phase errors to evaluate"
            ),
        },
        ("tgate-t-state",),
    ),
    "derive-noise": _Experiment(
        cmd_derive_noise,
        "resolve physical parameters into noise parameters",
        {},
        ("noise-derivation-anchors",),
    ),
}


def _run_experiment(args: argparse.Namespace) -> int:
    """Resolve the settings, time the experiment, run its check group under
    ``--check``, and write its artifacts and ``manifest.json``.  Returns the
    exit code: 0, or 3 if a check failed."""
    settings = _resolve(args, args.command)
    experiment = _EXPERIMENTS[args.command]
    start = time.perf_counter()
    files, summary = experiment.run(settings)
    wall = time.perf_counter() - start
    checks = run_checks(experiment.checks) if args.check else None
    if settings.out is not None:
        manifest = {
            "experiment": args.command,
            "version": __version__,
            "seed": settings.seed,
            "workers": settings.workers,
            "mode": settings.mode,
            "shots": settings.shots if settings.mode == "sampled" else None,
            "noise": dataclasses.asdict(settings.noise),
            "noise_inputs": _jsonable(settings.noise_inputs),
            "noise_audit": _jsonable(settings.noise_audit),
            "options": _jsonable(settings.options),
            "summary": _jsonable(summary),
            "artifacts": sorted(files),
            "wall_time_s": round(wall, 3),
            "checks": checks,
        }
        files["manifest.json"] = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        _write_files(settings.out, files)
    return 3 if checks and any(not c["passed"] for c in checks) else 0


def cmd_check(args: argparse.Namespace) -> int:
    results = run_checks(None)
    if args.out is not None:
        report = {"version": __version__, "checks": results}
        text = json.dumps(report, indent=2) + "\n"
        _write_files(Path(args.out), {"check_report.json": text})
    failed = sum(not r["passed"] for r in results)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 3 if failed else 0


# ---------------------------------------------------------------------------
# Embedded regression battery
# ---------------------------------------------------------------------------


def _expect(label: str, got: float, want: float, tol: float, rel: bool = False) -> None:
    close = (
        math.isclose(got, want, rel_tol=tol, abs_tol=0.0)
        if rel
        else math.isclose(got, want, rel_tol=0.0, abs_tol=tol)
    )
    assert close, f"{label}: got {got!r}, want {want!r} (tol {tol:g})"


def _check_mbqb_randomizing() -> None:
    m = benchmarking.benchmark_metrics(benchmarking.randomizing_instruments())
    _expect("err_a", m.err_a, 0.5, 1e-9)
    _expect("err_b", m.err_b, 0.0, 1e-9)


def _check_mbqb_readout_flip() -> None:
    m = benchmarking.benchmark_metrics(benchmarking.readout_flip_instruments(0.1))
    _expect("err_a", m.err_a, 0.18, 1e-9)
    _expect("err_b", m.err_b, 0.0, 1e-9)


def _check_mbqb_identical() -> None:
    m = benchmarking.benchmark_metrics(benchmarking.identical_instruments())
    _expect("err_a", m.err_a, 0.0, 1e-9)
    _expect("err_b", m.err_b, 0.5, 1e-9)


def _check_mbqb_device() -> None:
    m = benchmarking.benchmark_metrics(NoiseParams(p_a=0.05))
    _expect("err_a", m.err_a, 0.095, 1e-9)
    _expect("err_b", m.err_b, 0.0, 1e-9)


def _check_lifetime_flip_rate() -> None:
    result = benchmarking.lifetime_experiment("Z", (0, 2, 4), NoiseParams(p1=0.03))
    _expect("flip_rate", result.flip_rate, 0.02, 1e-9, rel=True)
    assert not result.flags, f"unexpected fit flags: {result.flags}"


def _check_braid_sequences() -> None:
    for name in braiding.CLIFFORD_CLASSES:
        report = braiding.verify_sequence_identity(name)
        assert report.passed, f"{name}: sequence identity failed"
        assert report.max_deviation < 1e-12, (
            f"{name}: deviation {report.max_deviation:g}"
        )


def _check_braid_noiseless() -> None:
    for name in braiding.CLIFFORD_CLASSES:
        fid = braiding.average_class_fidelity(name)
        _expect(f"fidelity[{name}]", fid, 1.0, 1e-10)


def _check_braid_pin() -> None:
    fid = braiding.average_class_fidelity(
        "S", NoiseParams(p_a=0.02, p1=0.05, p2=0.1)
    )
    _expect("fidelity[S]", fid, 0.7889412158951682, 1e-9, rel=True)


def _check_qed_pin() -> None:
    metrics, _ = qed.improvement_point(NoiseParams(p_a=0.01, p1=0.005, p2=0.0005))
    _expect("lambda_avg", metrics.lambda_avg, 3.305454741264978, 1e-9, rel=True)
    _expect("lambda_x", metrics.lambda_x, 3.0966384948588646, 1e-9, rel=True)
    _expect("lambda_z", metrics.lambda_z, 822.886764894882, 1e-9, rel=True)


def _check_qed_theta_pin() -> None:
    # At theta != 0 lambda_z holds about 8 digits (see qed.scan_to_csv).
    metrics, _ = qed.improvement_point(NoiseParams(p_a=0.01, p1=0.005, p2=0.0005, theta=0.01))
    _expect("lambda_avg", metrics.lambda_avg, 5.257434292319962, 1e-9, rel=True)
    _expect("lambda_x", metrics.lambda_x, 5.057093065652833, 1e-9, rel=True)
    _expect("lambda_z", metrics.lambda_z, 801.024206858028, 1e-7, rel=True)


def _check_repcode_table() -> None:
    bell = qed.prepare_repcode_state("XX", "physical")
    bell.apply_pauli("ZI")
    _expect("bell <ZZ>", bell.expectation("ZZ"), 1.0, 1e-10)
    _expect("bell <ZI>", bell.expectation("ZI"), 0.0, 1e-10)
    _expect("bell <XX>", bell.expectation("XX"), -1.0, 1e-10)

    zeros = qed.prepare_repcode_state("ZZ", "physical")
    zeros.apply_pauli("XX")
    _expect("zeros <ZZ>", zeros.expectation("ZZ"), 1.0, 1e-10)
    _expect("zeros <ZI>", zeros.expectation("ZI"), -1.0, 1e-10)
    _expect("zeros <XX>", zeros.expectation("XX"), 0.0, 1e-10)


def _check_noise_anchors() -> None:
    params, _ = derive_noise(
        {
            "snr": 3.7,
            "delta_over_kT": 12,
            "L_over_xi": 20,
            "delta_eV": 50e-6,
            "tau_elph_s": 50e-9,
            "tau_meas_s": 1e-6,
        }
    )
    _expect("p_a", params.p_a, 1.0779973347738823e-4, 1e-9, rel=True)
    _expect("p1", params.p1, 9.21575228300664e-5, 1e-9, rel=True)
    _expect("theta", params.theta, 1.5657218019451006e-4, 1e-9, rel=True)
    _expect("p2", params.p2, 0.0, 0.0)


def _check_tgate() -> None:
    _expect("fidelity(0)", t_state_fidelity(0.0), 1.0, 1e-12)
    for delta in (0.05, 0.1):
        _expect(
            f"fidelity({delta})",
            t_state_fidelity(delta),
            1.0 - math.sin(delta) ** 2,
            1e-10,
        )
    identity_dev = float(
        np.max(np.abs(timed_coupling_rotation("Z", 0.0).matrix - np.eye(4)))
    )
    _expect("zero-angle deviation", identity_dev, 0.0, 1e-14)


def _check_trace_conservation() -> None:
    builder = CircuitBuilder(3)
    builder.meas1(0, "X")
    builder.end_step()
    builder.meas2(1, 2, "ZZ")
    builder.end_step()
    builder.meas1(2, "Z")
    builder.end_step()
    circuit = builder.build()
    noise = NoiseParams(p_a=0.02, p1=0.01, p2=0.03, theta=0.05)
    initial = TrajectoryEnsemble.from_product_state(["0", "+", "1"])
    result = run_circuit(circuit, noise, initial, keep_slots="all")
    _expect("total trace", result.acceptance, 1.0, 1e-12)


_CHECKS: tuple = (
    ("mbqb-randomizing-metrics", _check_mbqb_randomizing),
    ("mbqb-readout-flip-0.1", _check_mbqb_readout_flip),
    ("mbqb-identical-instruments", _check_mbqb_identical),
    ("mbqb-device-pa-0.05", _check_mbqb_device),
    ("lifetime-flip-rate", _check_lifetime_flip_rate),
    ("braid-sequence-identities", _check_braid_sequences),
    ("braid-identity-noiseless", _check_braid_noiseless),
    ("braid-fidelity-pin", _check_braid_pin),
    ("qed-lambda-pin", _check_qed_pin),
    ("qed-theta-lambda-pin", _check_qed_theta_pin),
    ("repcode-error-table", _check_repcode_table),
    ("noise-derivation-anchors", _check_noise_anchors),
    ("tgate-t-state", _check_tgate),
    ("simulator-trace-conservation", _check_trace_conservation),
)

def run_checks(names: "tuple | None") -> list:
    """Run the embedded regression battery (all checks when ``names`` is
    None) and print one PASS/FAIL line per check."""
    selected = (
        _CHECKS if names is None else tuple(c for c in _CHECKS if c[0] in names)
    )
    results = []
    for name, func in selected:
        try:
            func()
            passed, detail = True, ""
        except AssertionError as exc:
            passed, detail = False, str(exc)
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append({"name": name, "passed": passed, "detail": detail})
        line = f"{'PASS' if passed else 'FAIL'} {name}"
        print(line if passed else f"{line}: {detail}")
    return results


# ---------------------------------------------------------------------------
# Argument parsing and entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports errors as ConfigError (exit code 1)
    instead of exiting the process directly."""

    def error(self, message: str):
        raise ConfigError(message)


def _add_flags(parser, table: dict) -> None:
    """The ``--flag`` of every setting in ``table``, read back by
    :func:`_resolve_options`."""
    for key, opt in table.items():
        parser.add_argument(
            "--" + key.replace("_", "-"),
            dest="opt_" + key,
            metavar=opt.metavar,
            choices=opt.choices,
            help=opt.help,
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tetronsim", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--version", action="version", version=f"tetronsim {__version__}"
    )
    subparsers = parser.add_subparsers(
        dest="command", required=True, parser_class=_Parser
    )

    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="INI configuration file")
    common.add_argument(
        "--noise",
        action="append",
        metavar="KEY=VALUE",
        help="noise or physical parameter (repeatable; overrides [noise])",
    )
    _add_flags(common, {key: _RUN[key] for key in ("seed", "workers", "out")})
    common.add_argument(
        "--check",
        action="store_true",
        help="also run this module's embedded regression checks",
    )
    mode_group = common.add_mutually_exclusive_group()
    mode_group.add_argument(
        "--exact", dest="opt_mode", action="store_const", const="exact",
        help="exact trajectory statistics",
    )
    _add_flags(mode_group, {"shots": _RUN["shots"]})

    for name, experiment in _EXPERIMENTS.items():
        sub = subparsers.add_parser(name, parents=[common], help=experiment.help)
        _add_flags(sub, experiment.options)
        sub.set_defaults(func=_run_experiment)

    check = subparsers.add_parser(
        "check", help="run the full embedded regression battery"
    )
    check.add_argument("--out", metavar="DIR", help="directory for check_report.json")
    check.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help / --version
        code = exc.code if isinstance(exc.code, int) else 0
        return code
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical invariant failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
