"""The command-line front end: exit codes, run directories, plot data."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from extomo import cli
from extomo.cli import run
from extomo.experiments import (isometry_constancy, necessity_band_example,
                                radon_growth_sweep, radon_outside_range_probe,
                                xray_multiscale_lower_bound)
from extomo.extension import extend
from extomo.reports import ExperimentReport
from extomo.sphere import make_circle_grid, perp_basis, preset_density
from extomo.tomography import SampledField


@pytest.fixture(autouse=True)
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    yield tmp_path


class TestUsage:
    def test_no_args_is_usage_error(self, capsys):
        assert run([]) == 2
        assert "usage" in capsys.readouterr().out

    def test_help(self, capsys):
        assert run(["--help"]) == 0
        assert "subcommands" in capsys.readouterr().out

    def test_list(self, capsys):
        assert run(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("t-delta", "radon-identity", "randomized"):
            assert name in out
        listed = [line.split()[:2] for line in out.splitlines()]
        for name in ("xray", "radon", "funk"):
            assert ["transform", name] in listed

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2
        assert "unknown-subcommand" in capsys.readouterr().err

    def test_unknown_experiment(self, capsys):
        assert run(["verify", "no-such-thing"]) == 2
        assert "unknown-experiment" in capsys.readouterr().err

    def test_experiment_group_mismatch(self, capsys):
        # t-delta is a sweep, not a verify
        assert run(["verify", "t-delta"]) == 2

    def test_unknown_parameter(self, capsys):
        assert run(["sweep", "t-delta", "--bogus", "1"]) == 2
        err = capsys.readouterr().err
        assert "unknown-parameter" in err and "allowed" in err

    def test_missing_value(self, capsys):
        assert run(["sweep", "t-delta", "--delta_list"]) == 2

    def test_bad_tolerance_shape(self, capsys):
        assert run(["sweep", "t-delta", "--tol.slope", "1,2,3"]) == 2

    def test_unknown_preset(self, capsys):
        assert run(["verify", "xray-identity", "--preset", "nope"]) == 2
        assert "unknown preset" in capsys.readouterr().err

    def test_reduce_lemma_preset_runs_one_density(self, in_tmp, capsys):
        # without --preset the five-density family runs; with it, the one
        # preset density; there is no family switch
        assert run(["verify", "reduce-lemma", "--family", "0"]) == 2
        assert "unknown-parameter ['family']" in capsys.readouterr().err
        for preset, name in ((None, "reduce_lemma_family"),
                             ("band", "reduce_lemma")):
            out = in_tmp / str(preset)
            flags = ["--preset", preset] if preset else []
            assert run(["verify", "reduce-lemma", *flags,
                        "--out", str(out)]) == 0
            assert json.loads((out / "report.json").read_text())["name"] \
                == name

    def test_funk_needs_n3(self, capsys):
        # the Funk transform is on the 2-sphere only, so it has no --n
        assert run(["transform", "funk", "--n", "2"]) == 2
        assert "unknown-parameter ['n']" in capsys.readouterr().err

    @pytest.mark.parametrize("transform, key", [
        ("funk", "samples"), ("funk", "half_width"), ("funk", "truncation"),
        ("funk", "t_extent"), ("funk", "t_pitch"), ("xray", "t_extent"),
        ("xray", "t_pitch"), ("radon", "half_width")])
    def test_dump_rejects_a_key_its_transform_does_not_read(
            self, transform, key, capsys):
        n = [] if transform == "funk" else ["--n", "3"]
        assert run(["transform", transform, *n, f"--{key}", "9"]) == 2
        assert f"unknown-parameter ['{key}']" in capsys.readouterr().err

    @pytest.mark.parametrize("sweep", ["radon-growth", "outside-range"])
    def test_line_sweep_needs_R_at_least_1875(self, sweep, capsys):
        # a line of B_R at spacing 0.25 has int(8 R) + 1 < 16 samples
        assert run(["sweep", sweep, "--R_list", "1.5,"]) == 2
        assert "R = 1.5" in capsys.readouterr().err

    @pytest.mark.parametrize("sweep", ["radon-growth", "outside-range"])
    @pytest.mark.parametrize("R_list", ["16", "16,"])
    def test_line_sweep_needs_two_R(self, sweep, R_list, capsys):
        # a single R, with or without the list comma, is one point: no fit
        assert run(["sweep", sweep, "--R_list", R_list]) == 2
        assert "two distinct abscissae" in capsys.readouterr().err

    def test_single_R_list_value_runs(self, capsys):
        # a scalar reaches the experiment as a one-element list, which its
        # stability check over R rejects: max/min of one ratio is 1
        for name in ("mollified-radon", "wstein"):
            assert run(["verify", name, "--R_list", "16"]) == 2
            assert "R_list = [16]" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--R_list", "1,16"), ("--R_list", "0.5,16"), ("--q_probe", "1"),
        ("--q_probe", "2")])
    def test_wmiztak_needs_R_above_1_and_q_probe_above_2(self, flag, value,
                                                         capsys):
        # C2 divides by log R (0 at R = 1, negative below), and part (c)
        # is the probe q > 2
        assert run(["verify", "wmiztak", flag, value]) == 2
        assert "need R > 1" in capsys.readouterr().err

    def test_wmiztak_probe_at_q_infinity(self, in_tmp, capsys):
        # q' = 1 at q = inf: the order-1/2 L^1 probe grows like R^0.49
        assert run(["verify", "wmiztak", "--q_probe", "inf",
                    "--out", "r"]) == 0
        report = json.loads((in_tmp / "r" / "report.json").read_text())
        assert report["params"]["q_probe"] == math.inf
        assert math.isfinite(report["metrics"]["probe_slope"])
        assert report["metrics"]["probe_slope"] >= 0.1

    @pytest.mark.parametrize("flag, value", [
        ("--seed", "abc"), ("--seed", "1.5"), ("--tol.slope", "a,b"),
        ("--tol.slope", "a"), ("--tol.slope", "nan"),
        ("--tol.slope", "0,nan")])
    def test_bad_seed_or_tolerance(self, flag, value, capsys):
        assert run(["sweep", "t-delta", flag, value]) == 2
        assert "error: bad-" in capsys.readouterr().err

    def test_dimension_must_be_2_or_3(self, capsys):
        assert run(["verify", "xray-identity", "--n", "4"]) == 2
        assert "bad-dimension n = 4" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, text, value", [
        ("number", "inf", math.inf), ("number", "+inf", math.inf),
        ("number", "-inf", -math.inf), ("numbers", "1,inf", [1, math.inf])])
    def test_numbers_read_infinities(self, kind, text, value):
        assert getattr(cli, f"_{kind}")(text) == value

    @pytest.mark.parametrize("args", [
        ["verify", "wstein", "--C_max", "nan"],
        ["sweep", "radon-growth", "--q", "nan"],
        ["sweep", "t-delta", "--delta_list", "nan,0.1"]])
    def test_nan_is_a_bad_value(self, args, capsys):
        # a number or a number list reads inf but not nan
        assert run(args) == 2
        assert f"bad-value {args[2]} {args[3]!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(cli.REGISTRY))
    def test_a_value_its_type_rejects_is_a_usage_error(self, name, in_tmp,
                                                       capsys):
        # each key's declared type converts its value before any experiment
        # runs: a rejected value is exit 2, on the command line or in a file
        group, _, keys, _ = cli.REGISTRY[name]
        rejected = {int: ["abc", "2.5", "3.0"], cli._number: ["abc", "1,2"],
                    cli._numbers: ["abc", "0.1,abc"]}
        cfg = in_tmp / "bad.cfg"
        for key, kind in keys.items():
            for text in rejected.get(kind, []):
                cfg.write_text(f"{key} = {text}\n")
                for flags in ([f"--{key}", text], ["--config", str(cfg)]):
                    assert run([group, name, *flags]) == 2
                    assert f"bad-value --{key} {text!r}" in \
                        capsys.readouterr().err

    @pytest.mark.parametrize("n_trials", ["0", "1", "3", "29"])
    def test_randomized_needs_two_trials(self, n_trials, capsys):
        # the Khintchine check takes its standard error from the trials:
        # 3 trials failed it at 4 of seeds 0-19 (up to 8.04 SE at R = 16)
        assert run(["tubes", "randomized", "--R", "16",
                    "--n-trials", n_trials]) == 2
        err = capsys.readouterr().err
        assert "PreconditionError" in err
        assert f"n_trials = {n_trials} is below 30" in err

    @pytest.mark.parametrize("n_funcs", ["1", "0"])
    def test_isometry_needs_two_functions(self, n_funcs, capsys):
        # one ratio has a coefficient of variation of 0; none has no mean
        assert run(["verify", "isometry", "--n_funcs", n_funcs]) == 2
        assert f"n_funcs = {n_funcs}" in capsys.readouterr().err

    def test_power_weight_grid_must_resolve_radius(self, capsys):
        # the 16 x 32 grid has exactness degree 31; |x| reaches 63.75
        assert run(["sweep", "power-weight", "--preset", "cap"]) == 2
        err = capsys.readouterr().err
        assert "PreconditionError" in err and "31" in err and "63.75" in err

    def test_mollified_radon_n3_grid_must_resolve_largest_R(self, capsys):
        # the 96 x 192 grid has exactness degree 191; the R = 256 patch is
        # masked to the disc of radius 256
        assert run(["verify", "mollified-radon", "--n", "3"]) == 2
        err = capsys.readouterr().err
        assert "PreconditionError" in err and "191" in err and "256" in err


class TestRunDirectory:
    def test_sweep_writes_artifacts(self, in_tmp, capsys):
        out = in_tmp / "rundir"
        assert run(["sweep", "t-delta", "--out", str(out)]) == 0
        for name in ("config.txt", "version.txt", "report.json",
                     "summary.txt", "sweep.csv"):
            assert (out / name).exists(), name
        summary = (out / "summary.txt").read_text()
        assert summary.startswith("[PASS]")
        config = (out / "config.txt").read_text()
        assert "experiment = t-delta" in config
        assert "seed = 0" in config

    def test_tolerance_override_forces_failure(self, in_tmp, capsys):
        out = in_tmp / "fail"
        code = run(["sweep", "t-delta", "--out", str(out),
                    "--tol.slope", "0,0.1"])
        assert code == 1
        report = json.loads((out / "report.json").read_text())
        assert report["pass"] is False
        assert report["tolerances"]["slope"] == [0.0, 0.1]

    def test_default_run_directory(self, in_tmp, capsys):
        assert run(["sweep", "t-delta"]) == 0
        assert os.path.isdir("runs/t-delta")

    @pytest.mark.parametrize("out", ["7", "1e3", "runs/a,b"])
    def test_out_is_a_path_whatever_it_looks_like(self, in_tmp, out, capsys):
        # a number or a comma in --out is still a directory name
        assert run(["sweep", "t-delta", "--out", out]) == 0
        assert (in_tmp / out / "report.json").exists()
        assert f"out = {out}\n" in (in_tmp / out / "config.txt").read_text()

    def test_out_and_config_are_text_in_a_config_file(self, in_tmp, capsys):
        (in_tmp / "7").write_text("out = 1e3\n")
        assert run(["sweep", "t-delta", "--config", "7"]) == 0
        assert (in_tmp / "1e3" / "report.json").exists()

    def test_config_file_merged_below_flags(self, in_tmp, capsys):
        cfg = in_tmp / "exp.cfg"
        cfg.write_text("R = 16            # comment survives parsing\n"
                       "n_trials = 30\n")
        out = in_tmp / "tubes"
        code = run(["tubes", "randomized", "--config", str(cfg),
                    "--n_trials", "40", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["params"]["R"] == 16
        assert report["params"]["n_trials"] == 40  # flag wins over file

    def test_config_file_keys_take_dashes_like_flags(self, in_tmp, capsys):
        cfg = in_tmp / "exp.cfg"
        cfg.write_text("R = 16\nn-trials = 30\n")
        out = in_tmp / "tubes"
        # the key must be accepted, not rejected as unknown (exit 2)
        assert run(["tubes", "randomized", "--config", str(cfg),
                    "--out", str(out)]) in (0, 1)
        report = json.loads((out / "report.json").read_text())
        assert report["params"]["n_trials"] == 30

    @pytest.mark.parametrize("args", [
        ["sweep", "bt-bounds", "--family", "cap",
         "--delta_list", "0.1,0.03,0.01"],
        ["sweep", "t-delta", "--tol.slope", "0,inf"],
        ["tubes", "randomized", "--R", "16", "--n_trials", "40"]])
    def test_echoed_config_reproduces_the_report(self, args, in_tmp, capsys):
        # config.txt read back as a --config file types a list, a one-sided
        # tolerance and an int key as the flags did
        first, again = in_tmp / "first", in_tmp / "again"
        code = run(args + ["--out", str(first)])
        assert run(args[:2] + ["--config", str(first / "config.txt"),
                               "--out", str(again)]) == code
        assert (again / "report.json").read_text() == \
            (first / "report.json").read_text()

    def test_config_syntax_error(self, in_tmp, capsys):
        cfg = in_tmp / "bad.cfg"
        cfg.write_text("this line has no equals sign\n")
        assert run(["sweep", "t-delta", "--config", str(cfg)]) == 2
        assert "config-syntax" in capsys.readouterr().err

    def test_missing_config_file(self, in_tmp, capsys):
        assert run(["sweep", "t-delta", "--config", "nope.cfg"]) == 2


class TestDeterminism:
    def test_same_config_same_seed_identical_metrics(self, in_tmp, capsys):
        args = ["tubes", "randomized", "--R", "16", "--n_trials", "50",
                "--seed", "3"]
        assert run(args + ["--out", str(in_tmp / "a")]) == 0
        assert run(args + ["--out", str(in_tmp / "b")]) == 0
        rep_a = (in_tmp / "a" / "report.json").read_text()
        rep_b = (in_tmp / "b" / "report.json").read_text()
        assert rep_a == rep_b

    def test_seed_changes_randomized_metrics(self, in_tmp, capsys):
        args = ["tubes", "randomized", "--R", "16", "--n_trials", "50"]
        run(args + ["--seed", "1", "--out", str(in_tmp / "a")])
        run(args + ["--seed", "2", "--out", str(in_tmp / "b")])
        a = json.loads((in_tmp / "a" / "report.json").read_text())
        b = json.loads((in_tmp / "b" / "report.json").read_text())
        assert a["metrics"]["khintchine_ratio"] != b["metrics"]["khintchine_ratio"]


class TestSeed:
    def test_seed_is_recorded_for_an_experiment_without_one(self, in_tmp,
                                                             capsys):
        out = in_tmp / "sharp"
        assert run(["verify", "sharp-constant", "--seed", "5",
                    "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["params"]["seed"] == 5

    def test_seed_reaches_an_experiment_that_takes_one(self, in_tmp, capsys):
        out = in_tmp / "isometry"
        assert run(["verify", "isometry", "--seed", "5", "--n_funcs", "2",
                    "--out", str(out)]) in (0, 1)
        saved = ExperimentReport.from_json((out / "report.json").read_text())
        assert saved.metrics == isometry_constancy(n_funcs=2, seed=5).metrics


class TestTransformDump:
    def test_radon_n3_is_one_plane_field_per_offset(self, in_tmp, monkeypatch,
                                                    capsys):
        extend_plane_field = cli.extend_plane_field
        planes, points = [], []

        def counted_plane(*args):
            planes.append(args)
            return extend_plane_field(*args)

        def counted_extend(g, x):
            points.append(x)
            return extend(g, x)

        monkeypatch.setattr(cli, "extend_plane_field", counted_plane)
        monkeypatch.setattr(cli, "extend", counted_extend)
        out = in_tmp / "radon3"
        assert run(["transform", "radon", "--n", "3", "--samples", "64",
                    "--t_extent", "0.5", "--out", str(out)]) == 0
        raw = json.loads((out / "report.json").read_text())["raw_data"]
        assert [args[2] for args in planes] == raw["abscissa"]
        assert len(planes) == 5 and not points
        # reference: each row of the patch as its own uniform line
        for (g, omega, t, L, M), val in zip(planes, raw["ordinate"]):
            u = np.linspace(-L, L, M)
            e1, e2 = perp_basis(omega)
            rows = [np.abs(extend(g, t * omega + u1 * e1 + u[:, None] * e2)) ** 2
                    for u1 in u]
            ref = SampledField(L, np.array(rows)).integrate()
            assert val == pytest.approx(ref, rel=1e-12, abs=0)


def _radon_growth_at_cli_defaults():
    grid = make_circle_grid(2560)
    return radon_growth_sweep(preset_density(grid, "constant", None), 2.0,
                              (16, 32, 64, 128, 256, 512, 1024))


LIBRARY_SWEEPS = {"radon-growth": _radon_growth_at_cli_defaults,
                  "outside-range": radon_outside_range_probe,
                  "multiscale": xray_multiscale_lower_bound,
                  "necessity": lambda: necessity_band_example()[0]}


class TestLibraryVerdicts:
    @pytest.mark.parametrize("sweep", sorted(LIBRARY_SWEEPS))
    def test_sweep_verdict_is_the_library_report(self, sweep, in_tmp, capsys):
        # the CLI adds no check of its own to these sweeps
        assert run(["sweep", sweep, "--out", str(in_tmp / "r")]) == 0
        saved = ExperimentReport.from_json(
            (in_tmp / "r" / "report.json").read_text())
        expected = LIBRARY_SWEEPS[sweep]()
        assert saved.metrics == expected.metrics
        assert saved.tolerances == expected.tolerances


class TestPlotData:
    def test_round_trip_is_bit_exact(self, in_tmp, capsys):
        out = in_tmp / "rundir"
        assert run(["sweep", "t-delta", "--out", str(out)]) == 0
        csv = in_tmp / "plot.csv"
        assert run(["plot-data", str(out / "report.json"),
                    "--out", str(csv)]) == 0
        report = json.loads((out / "report.json").read_text())
        lines = csv.read_text().splitlines()
        assert lines[0] == "abscissa,ordinate,fit_value"
        for line, x, y in zip(lines[1:], report["raw_data"]["abscissa"],
                              report["raw_data"]["ordinate"]):
            cx, cy, _ = line.split(",")
            assert float(cx) == x and float(cy) == y

    def test_plot_data_without_sweep(self, in_tmp, capsys):
        # a report with no sweep-shaped raw data is a usage error
        path = in_tmp / "r.json"
        path.write_text(json.dumps({"name": "x", "params": {}, "metrics": {},
                                    "seed": 0, "tolerances": {},
                                    "raw_data": {}, "notes": []}))
        assert run(["plot-data", str(path)]) == 2

    def test_missing_path(self, capsys):
        assert run(["plot-data"]) == 2

    def test_unreadable_report(self, in_tmp, capsys):
        (in_tmp / "bad.json").write_text("{not json")
        for path in ("nope.json", "bad.json"):
            assert run(["plot-data", path]) == 2
            assert f"report-unreadable {path}" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "[]", "{}", '{"name": "x", "tolerances": 5}',
        '{"name": "x", "raw_data": {"abscissa": [1]}}'])
    def test_json_that_is_not_a_report(self, text, in_tmp, capsys):
        # nor is an object of report keys with the wrong shapes
        (in_tmp / "r.json").write_text(text)
        assert run(["plot-data", "r.json"]) == 2
        assert "report-unreadable r.json" in capsys.readouterr().err

    def test_only_out_is_a_flag(self, in_tmp, capsys):
        out = in_tmp / "rundir"
        assert run(["sweep", "t-delta", "--out", str(out)]) == 0
        assert run(["plot-data", str(out / "report.json"), "--foo", "1"]) == 2
        assert "unknown-parameter ['foo']" in capsys.readouterr().err


class TestClosedPipe:
    @pytest.mark.parametrize("unbuffered", ["1", ""])
    @pytest.mark.parametrize("args, code", [(["help"], 0), ([], 2)])
    def test_a_reader_gone_before_the_output_ends_quietly(
            self, args, code, unbuffered):
        # ``extomo help | head -1`` at its extreme: the pipe's read end is
        # closed before the first write, with stdout buffered or not; the
        # command exits with its own code and writes no traceback
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered}
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "extomo.cli", *args],
                                  stdout=write, stderr=subprocess.PIPE,
                                  env=env, timeout=120)
        finally:
            os.close(write)
        assert proc.returncode == code
        assert proc.stderr == b""
