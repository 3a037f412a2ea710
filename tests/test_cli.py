"""Command-line runner: configuration layering, exit codes, artifacts,
and byte-identical outputs across worker counts."""

import hashlib
import json
import math

import numpy as np
import pytest

from tetronsim import cli, qed
from tetronsim.cli import ConfigError, main, parse_grid


# ---------------------------------------------------------------------------
# Grid / option parsing units
# ---------------------------------------------------------------------------


def test_parse_grid_forms():
    assert parse_grid("default") is None
    np.testing.assert_allclose(parse_grid("lin:0:1:5"), np.linspace(0, 1, 5))
    np.testing.assert_allclose(
        parse_grid("log:1e-3:1e-1:3"), np.geomspace(1e-3, 1e-1, 3)
    )
    np.testing.assert_allclose(parse_grid("0,0.05,0.1"), [0.0, 0.05, 0.1])
    np.testing.assert_allclose(parse_grid("0.07"), [0.07])


def test_parse_grid_rejects_malformed_specs():
    for bad in ("lin:0:1", "log:0:1:4", "lin:a:b:3", "lin:0:1:0", "1,two,3"):
        with pytest.raises(ConfigError):
            parse_grid(bad)


# ---------------------------------------------------------------------------
# mbqb subcommand
# ---------------------------------------------------------------------------


def test_mbqb_exact_anchor(capsys):
    assert main(["mbqb", "--noise", "p_a=0.05", "--exact"]) == 0
    out = capsys.readouterr().out
    assert "err_a = 0.095" in out
    assert "err_b = 0" in out


def test_mbqb_artifacts_and_manifest(tmp_path):
    out = tmp_path / "run"
    rc = main(
        ["mbqb", "--noise", "p_a=0.05", "--exact", "--out", str(out), "--seed", "9"]
    )
    assert rc == 0
    metrics = json.loads((out / "mbqb_metrics.json").read_text())
    assert metrics["err_a"] == pytest.approx(0.095, abs=1e-12)
    assert metrics["mode"] == "exact"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["experiment"] == "mbqb"
    assert manifest["noise"]["p_a"] == pytest.approx(0.05)
    assert manifest["seed"] == 9
    assert manifest["artifacts"] == ["mbqb_metrics.json"]
    assert manifest["summary"]["err_a"] == pytest.approx(0.095, abs=1e-12)
    assert manifest["checks"] is None
    assert manifest["wall_time_s"] >= 0.0


def test_mbqb_too_few_shots_is_numerical_failure(capsys):
    """A sampled table with an unobserved conditioning outcome exits 2 and
    names the entry instead of raising a traceback."""
    assert main(["mbqb", "--shots", "5", "--chains", "3", "--seed", "0"]) == 2
    err = capsys.readouterr().err
    assert "numerical invariant failure" in err
    assert "conditioning outcome never observed" in err
    assert "('XZ', 'Z', 'X')" in err


@pytest.mark.parametrize(
    "mode,order,code",
    [(["--shots", "20000"], 3, 1), (["--exact"], 3, 0), (["--shots", "20000"], 4, 0)],
)
def test_mbqb_sampled_mode_needs_debruijn_order_four(mode, order, code, capsys):
    """A de Bruijn cycle of order below 4 misses some four-measurement
    windows, so sampled mode rejects it before sampling; exact mode does not
    read the sequence."""
    assert main(["mbqb", *mode, "--debruijn", str(order), "--seed", "1"]) == code
    if code == 1:
        assert "needs order 4 or more" in capsys.readouterr().err


# sha256 of mbqb_metrics.json, on x86-64 with numpy 2.x: the sampled MBQB
# statistics of the default chains (a period of 16) and of an odd chain count
# on an order-5 de Bruijn cycle (a period of 32).
MBQB_SAMPLED_SHA256 = {
    ("--noise", "p_a=0.05", "--shots", "1000000", "--seed", "7"):
        "befae0a992590cd777427c04c8ac747f9999bbee1ef2127a323994ae576f3eab",
    ("--noise", "p_a=0.02", "--noise", "p1=0.01", "--shots", "200000", "--seed", "3",
     "--debruijn", "5", "--chains", "7"):
        "55c0aca1dac21148e1c7d58c52f1619ca1728523b9bfded49ebc04c4a618b428",
}


def test_mbqb_sampled_rerun_is_identical(tmp_path):
    args = ["mbqb", "--shots", "20000", "--seed", "11"]
    first, second = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert (first / "mbqb_metrics.json").read_bytes() == (
        second / "mbqb_metrics.json"
    ).read_bytes()
    for i, (pinned, digest) in enumerate(MBQB_SAMPLED_SHA256.items()):
        out = tmp_path / f"pin{i}"
        assert main(["mbqb", *pinned, "--out", str(out)]) == 0
        text = (out / "mbqb_metrics.json").read_bytes()
        assert hashlib.sha256(text).hexdigest() == digest, pinned


# ---------------------------------------------------------------------------
# braid subcommand
# ---------------------------------------------------------------------------


def test_braid_zero_noise_corner(tmp_path, capsys):
    out = tmp_path / "braid"
    rc = main(
        ["braid", "--class", "S", "--p2", "0", "--grid", "0,0.1", "--out", str(out)]
    )
    assert rc == 0
    lines = (out / "braid_S.csv").read_text().splitlines()
    assert lines[0] == "p1,pa,p2,class,fidelity"
    first = lines[1].split(",")
    assert first[:4] == ["0", "0", "0", "S"]
    assert float(first[4]) == pytest.approx(1.0, abs=1e-9)
    assert "fidelity(origin) = 1" in capsys.readouterr().out


def test_braid_byte_identical_across_worker_counts(tmp_path):
    base = ["braid", "--grid", "lin:0:0.1:3", "--p2", "0.05"]
    one, three = tmp_path / "w1", tmp_path / "w3"
    assert main(base + ["--workers", "1", "--out", str(one)]) == 0
    assert main(base + ["--workers", "3", "--out", str(three)]) == 0
    assert (one / "braid_S.csv").read_bytes() == (three / "braid_S.csv").read_bytes()


def test_braid_noise_inputs_feed_fixed_parameters(tmp_path):
    """[noise]/--noise p2 is the fixed scan p2 unless --p2 overrides it, and
    the manifest's options record the value that ran."""
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(
        ["braid", "--noise", "p2=0", "--grid", "0,0.1", "--out", str(out_a)]
    ) == 0
    assert main(
        ["braid", "--noise", "p2=0", "--p2", "0.1", "--grid", "0,0.1", "--out",
         str(out_b)]
    ) == 0
    row_a = (out_a / "braid_S.csv").read_text().splitlines()[1]
    row_b = (out_b / "braid_S.csv").read_text().splitlines()[1]
    assert float(row_a.split(",")[4]) == pytest.approx(1.0, abs=1e-9)
    assert float(row_b.split(",")[4]) == pytest.approx(0.9495473251028806, rel=1e-9)
    out_c = tmp_path / "c"
    assert main(
        ["braid", "--noise", "p2=0.05", "--grid", "0,0.1", "--out", str(out_c)]
    ) == 0
    options = [json.loads((out / "manifest.json").read_text())["options"]
               for out in (out_a, out_b, out_c)]
    assert [(o["p2"], o["theta"]) for o in options] == [(0.0, 0.0), (0.1, 0.0), (0.05, 0.0)]


def test_braid_rejects_unknown_class():
    assert main(["braid", "--class", "Q"]) == 1


def test_braid_rejects_out_of_range_grid(capsys):
    assert main(["braid", "--grid", "0,0.6"]) == 1
    assert "p_a" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# qed subcommand
# ---------------------------------------------------------------------------


def test_qed_artifacts_match_library_scan(tmp_path):
    out = tmp_path / "qed"
    rc = main(
        [
            "qed", "--scan", "0.003,0.01", "--pa", "0.01", "--rounds", "2,4,6",
            "--workers", "2", "--out", str(out),
        ]
    )
    assert rc == 0
    want = qed.scan_to_csv(
        qed.improvement_scan(
            np.array([0.003, 0.01]), np.array([0.003, 0.01]), 0.01,
            rounds_grid=(2, 4, 6),
        )
    )
    assert (out / "qed_scan.csv").read_text() == want
    contour = (out / "qed_contour.csv").read_text().splitlines()
    assert contour[0] == "p1,p2"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["summary"]["lambda_max"] > 1.0
    assert manifest["artifacts"] == ["qed_contour.csv", "qed_scan.csv"]


def test_qed_theta_scan_byte_identical_across_worker_counts(tmp_path):
    base = ["qed", "--scan", "0.003,0.01", "--theta", "0.01", "--rounds", "2,4,6"]
    one, two = tmp_path / "w1", tmp_path / "w2"
    assert main(base + ["--workers", "1", "--out", str(one)]) == 0
    assert main(base + ["--workers", "2", "--out", str(two)]) == 0
    assert (one / "qed_scan.csv").read_bytes() == (two / "qed_scan.csv").read_bytes()


def test_qed_rejects_short_rounds_list(capsys):
    assert main(["qed", "--scan", "0.01", "--rounds", "2,4"]) == 1
    assert "rounds" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# lifetime subcommand
# ---------------------------------------------------------------------------


def test_lifetime_artifacts(tmp_path):
    out = tmp_path / "life"
    rc = main(
        [
            "lifetime", "--noise", "p1=0.03", "--basis", "Z",
            "--idle-steps", "0,2,4", "--out", str(out),
        ]
    )
    assert rc == 0
    report = json.loads((out / "lifetime.json").read_text())
    assert report["flip_rate"] == pytest.approx(0.02, rel=1e-9)
    assert report["flags"] == []
    rows = (out / "lifetime.csv").read_text().splitlines()
    assert rows[0] == "idle_steps,agreement,contrast"
    assert len(rows) == 4
    assert float(rows[1].split(",")[1]) == pytest.approx(0.9802, abs=1e-12)


def test_lifetime_underdetermined_fit_is_numerical_failure(capsys):
    assert main(["lifetime", "--idle-steps", "0"]) == 2
    err = capsys.readouterr().err
    assert "numerical invariant failure" in err
    assert "NaN" in err


# ---------------------------------------------------------------------------
# tgate subcommand
# ---------------------------------------------------------------------------


def test_tgate_fidelities(tmp_path):
    out = tmp_path / "tgate"
    rc = main(["tgate", "--delta", "0,0.05,0.1", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "tgate.json").read_text())
    assert report["phi"] == pytest.approx(math.pi / 8)
    got = [point["fidelity"] for point in report["points"]]
    want = [1.0 - math.sin(d) ** 2 for d in (0.0, 0.05, 0.1)]
    np.testing.assert_allclose(got, want, atol=1e-10)


# ---------------------------------------------------------------------------
# derive-noise subcommand
# ---------------------------------------------------------------------------


def test_derive_noise_chain_anchors(tmp_path):
    out = tmp_path / "noise"
    rc = main(
        [
            "derive-noise",
            "--noise", "snr=3.7",
            "--noise", "delta_over_kT=12",
            "--noise", "L_over_xi=20",
            "--noise", "delta_eV=50e-6",
            "--noise", "tau_elph_s=50e-9",
            "--noise", "tau_meas_s=1e-6",
            "--out", str(out),
        ]
    )
    assert rc == 0
    report = json.loads((out / "derived_noise.json").read_text())
    assert report["noise"]["p_a"] == pytest.approx(1.0779973347738823e-4, rel=1e-9)
    assert report["noise"]["p1"] == pytest.approx(9.21575228300664e-5, rel=1e-9)
    assert report["noise"]["theta"] == pytest.approx(1.5657218019451006e-4, rel=1e-9)
    assert report["audit"]["route"]["p_a"] == "snr"
    assert report["audit"]["route"]["p1"] == "lifetime"
    assert report["audit"]["route"]["theta"] == "splitting"


def test_derive_noise_warns_about_defaults(capsys):
    assert main(["derive-noise", "--noise", "snr=3.7"]) == 0
    err = capsys.readouterr().err
    assert "p1" in err and "defaulted" in err


# ---------------------------------------------------------------------------
# check battery
# ---------------------------------------------------------------------------


def test_check_battery_passes(tmp_path, capsys):
    out = tmp_path / "report"
    assert main(["check", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "FAIL" not in stdout
    assert stdout.count("PASS") == len(cli._CHECKS)
    report = json.loads((out / "check_report.json").read_text())
    assert all(entry["passed"] for entry in report["checks"])


def test_check_failure_exits_three(monkeypatch, capsys):
    def broken():
        raise AssertionError("embedded expectation violated")

    monkeypatch.setattr(cli, "_CHECKS", (("always-fails", broken),))
    assert main(["check"]) == 3
    assert "FAIL always-fails" in capsys.readouterr().out


_TINY_RUNS = {
    "mbqb": ["--exact", "--debruijn", "2"],
    "braid": ["--grid", "0.05"],
    "qed": ["--scan", "0.01", "--rounds", "2,4,6"],
    "lifetime": ["--noise", "p1=0.03", "--idle-steps", "0,2,4"],
    "tgate": ["--delta", "0"],
    "derive-noise": ["--noise", "snr=3.7"],
}


@pytest.mark.parametrize("name", sorted(cli._EXPERIMENTS))
def test_check_flag_records_results_in_manifest(tmp_path, name):
    out = tmp_path / "run"
    rc = main([name, *_TINY_RUNS[name], "--check", "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["experiment"] == name
    names = [entry["name"] for entry in manifest["checks"]]
    assert names == list(cli._EXPERIMENTS[name].checks)
    assert all(entry["passed"] for entry in manifest["checks"])


@pytest.mark.parametrize("name", sorted(cli._EXPERIMENTS))
def test_subcommand_help_lists_its_options(name, capsys):
    assert main([name, "--help"]) == 0
    out = capsys.readouterr().out
    for key in cli._EXPERIMENTS[name].options:
        assert "--" + key.replace("_", "-") in out


# ---------------------------------------------------------------------------
# configuration file handling
# ---------------------------------------------------------------------------


def _write_ini(tmp_path, text):
    path = tmp_path / "config.ini"
    path.write_text(text)
    return str(path)


_RUN_INI = "[run]\nseed = 4\nworkers = 2\nout = {out}\nmode = sampled\nshots = 20000\n"


def test_config_file_sets_noise_run_and_options(tmp_path, capsys):
    out = tmp_path / "from_ini"
    path = _write_ini(
        tmp_path,
        "[noise]\np_a = 0.05\n\n" + _RUN_INI.format(out=out) + "\n"
        "[mbqb]\nchains = 32\n\n[braid]\np2 = 0.0\n",
    )
    assert main(["mbqb", "--config", path]) == 0
    assert "+-" in capsys.readouterr().out  # sampled metrics print their intervals
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["noise"]["p_a"] == pytest.approx(0.05)
    assert (manifest["seed"], manifest["workers"]) == (4, 2)
    assert (manifest["mode"], manifest["shots"]) == ("sampled", 20000)
    assert manifest["options"]["chains"] == 32


def test_cli_flags_override_config(tmp_path):
    ini_out, out, sampled = tmp_path / "ini", tmp_path / "override", tmp_path / "sampled"
    path = _write_ini(tmp_path, "[noise]\np_a = 0.05\n\n" + _RUN_INI.format(out=ini_out))
    rc = main(
        ["mbqb", "--config", path, "--noise", "p_a=0.02", "--seed", "8", "--workers", "1",
         "--out", str(out), "--exact"]
    )
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["noise"]["p_a"] == pytest.approx(0.02)
    assert (manifest["seed"], manifest["workers"]) == (8, 1)
    assert (manifest["mode"], manifest["shots"]) == ("exact", None)
    # 2 * 0.02 * 0.98, the closed-form assignment error
    assert manifest["summary"]["err_a"] == pytest.approx(0.0392, abs=1e-12)
    assert main(["mbqb", "--config", path, "--shots", "5000", "--out", str(sampled)]) == 0
    manifest = json.loads((sampled / "manifest.json").read_text())
    assert (manifest["mode"], manifest["shots"]) == ("sampled", 5000)
    assert not ini_out.exists()


def test_config_unknown_section_rejected(tmp_path, capsys):
    path = _write_ini(tmp_path, "[nope]\nx = 1\n")
    assert main(["mbqb", "--config", path]) == 1
    assert "unknown config section" in capsys.readouterr().err


def test_config_unknown_keys_rejected(tmp_path):
    assert main(["mbqb", "--config", _write_ini(tmp_path, "[mbqb]\nbogus = 1\n")]) == 1
    assert main(["mbqb", "--config", _write_ini(tmp_path, "[run]\nbogus = 1\n")]) == 1
    assert (
        main(["mbqb", "--config", _write_ini(tmp_path, "[noise]\nbogus = 1\n")]) == 1
    )


def test_config_unknown_keys_list_the_expected_keys_sorted(tmp_path, capsys):
    for section, expected in (
        ("run", "['mode', 'out', 'seed', 'shots', 'workers']"),
        ("mbqb", "['chains', 'debruijn']"),
    ):
        assert main(["mbqb", "--config", _write_ini(tmp_path, f"[{section}]\nbogus = 1\n")]) == 1
        assert (f"configuration error: unknown [{section}] key(s) ['bogus']; "
                f"expected {expected}") in capsys.readouterr().err


def test_config_bad_run_values_name_their_key(tmp_path, capsys):
    for text, message in (("mode = bogus", "mode must be one of exact, sampled; got 'bogus'"),
                          ("seed = x", "seed must be an integer, got 'x'")):
        assert main(["mbqb", "--config", _write_ini(tmp_path, f"[run]\n{text}\n")]) == 1
        assert f"configuration error: {message}" in capsys.readouterr().err


def test_config_missing_file_and_parse_error(tmp_path, capsys):
    assert main(["mbqb", "--config", str(tmp_path / "absent.ini")]) == 1
    assert "not found" in capsys.readouterr().err
    path = _write_ini(tmp_path, "no section header here\n")
    assert main(["mbqb", "--config", path]) == 1
    assert "line" in capsys.readouterr().err


def test_config_preserves_case_of_noise_keys(tmp_path, capsys):
    path = _write_ini(
        tmp_path, "[noise]\ndelta_eV = 50e-6\nL_over_xi = 20\ntau_meas_s = 1e-6\n"
    )
    assert main(["derive-noise", "--config", path]) == 0
    assert "route: splitting" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# flag validation and exit codes
# ---------------------------------------------------------------------------


def test_bad_noise_values_are_config_errors(capsys):
    assert main(["mbqb", "--noise", "p_a=banana"]) == 1
    assert main(["mbqb", "--noise", "p_a"]) == 1
    assert main(["mbqb", "--noise", "p_a=0.9"]) == 1
    assert main(["mbqb", "--noise", "unknown_key=1"]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err


def test_seed_bounds():
    assert main(["mbqb", "--seed", "-1"]) == 1
    assert main(["mbqb", "--seed", str(2**64)]) == 1
    assert main(["mbqb", "--seed", "abc"]) == 1


def test_workers_and_shots_bounds():
    assert main(["mbqb", "--workers", "0"]) == 1
    assert main(["mbqb", "--shots", "0"]) == 1


def test_exact_and_shots_are_mutually_exclusive():
    assert main(["mbqb", "--exact", "--shots", "100"]) == 1


def test_sampled_mode_rejected_for_exact_only_experiments():
    for name in ("braid", "qed", "lifetime", "tgate", "derive-noise"):
        assert main([name, "--shots", "100"]) == 1


def test_sampled_mode_rejection_names_what_selected_it(tmp_path, capsys):
    path = _write_ini(tmp_path, "[run]\nmode = sampled\n")
    for args, chosen in ((["--config", path], "[run] mode = sampled"),
                         (["--config", path, "--shots", "100"], "--shots")):
        assert main(["braid", *args, "--grid", "0,0.1"]) == 1
        assert capsys.readouterr().err == (
            f"configuration error: braid runs exactly; it has no sampled mode (drop {chosen})\n"
        )


def test_unknown_or_missing_subcommand():
    assert main(["bogus"]) == 1
    assert main([]) == 1


def test_help_and_version_exit_zero(capsys):
    assert main(["--help"]) == 0
    assert "mbqb" in capsys.readouterr().out
    assert main(["--version"]) == 0
