import argparse
import contextlib
import io
import json
import re
import shlex
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minfer import assure as assure_mod
from minfer import cli


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(name: str) -> dict:
    text = resources.files("minfer.schemas").joinpath(name).read_text(encoding="utf-8")
    return json.loads(text)


TRIAL = ["--setting", "missing", "--counts", "32,54,24"]


class TestAnalyze:
    def test_running_example(self, capsys):
        code, out, err = run_cli(["analyze", *TRIAL], capsys)
        assert code == 0 and err == ""
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("analyze.schema.json"))
        assert payload["ml_region"] == {"lower": 0.290909, "upper": 0.509091}
        assert payload["n"] == 110
        assert payload["mcar_mle"] == 0.372093

    def test_matched(self, capsys):
        code, out, _ = run_cli(
            ["analyze", "--setting", "matched", "--counts", "100,1000,450,500"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("analyze.schema.json"))
        assert payload["ml_region"] == {"lower": 0.0, "upper": 0.1}

    def test_seed_is_ignored(self, capsys):
        # analyze draws nothing, yet takes --seed like every subcommand
        outputs = {run_cli(["analyze", *TRIAL, "--seed", seed], capsys) for seed in ("0", "7")}
        assert len(outputs) == 1
        code, out, err = outputs.pop()
        assert (code, err) == (0, "") and json.loads(out)["n"] == 110

    def test_writes_file(self, capsys, tmp_path):
        out_path = tmp_path / "analyze.json"
        code, out, _ = run_cli(["analyze", *TRIAL, "--out", str(out_path)], capsys)
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text(encoding="utf-8"))["n"] == 110


class TestExitCodes:
    def test_validation_error_is_one(self, capsys):
        code, _, err = run_cli(["analyze", "--setting", "missing", "--counts=-1,2,3"], capsys)
        assert code == 1
        assert "negative" in err

    def test_inconsistent_margins(self, capsys):
        code, _, err = run_cli(
            ["analyze", "--setting", "matched", "--counts", "5,3,2,4"], capsys
        )
        assert code == 1
        assert "exceeds" in err

    def test_usage_error_is_one(self, capsys):
        code, _, err = run_cli(["analyze", "--no-such-flag"], capsys)
        assert code == 1

    def test_missing_subcommand(self, capsys):
        code, _, _ = run_cli([], capsys)
        assert code == 1

    def test_unknown_setting(self, capsys):
        code, _, _ = run_cli(["analyze", "--setting", "weird", "--counts", "1,2,3"], capsys)
        assert code == 1

    def test_bad_grid(self, capsys):
        code, _, err = run_cli(["curve", *TRIAL, "--grid", "0:1"], capsys)
        assert code == 1
        assert "start:stop:step" in err

    def test_grid_point_cap_counts_both_ends(self, monkeypatch):
        # checked on a small cap, so no test builds a grid near the real one
        monkeypatch.setattr(cli, "GRID_MAX_POINTS", 11)
        assert cli.parse_grid("0:1:0.1").size == 11
        for spec in ("0:1:0.09", "0:5.25:0.5"):  # 12 points each; the second's span is 10.5
            with pytest.raises(cli.ValidationError, match="at most 11 points"):
                cli.parse_grid(spec)

    @pytest.mark.parametrize("spec", ["0:1:nan", "nan:1:0.1", "0:inf:0.1"])
    def test_non_finite_grid_is_one(self, capsys, spec):
        # was exit 2: "internal error: cannot convert float NaN to integer"
        code, out, err = run_cli(["curve", *TRIAL, "--method", "normal", "--grid", spec], capsys)
        assert (code, out) == (1, "")
        assert err == f"minfer: error: --grid expects finite start:stop:step, got {spec!r}\n"

    @pytest.mark.parametrize("h", ["nan", "inf", "1.0", "5.0", "-0.1"])
    def test_non_finite_offset_is_one(self, capsys, h):
        # NaN and inf were exit 0 with "level": NaN / Infinity (invalid JSON)
        # and the whole grid; h >= 1 was exit 0 with the whole grid
        code, out, err = run_cli(["levelset", *TRIAL, "--method", "normal", "--h", h], capsys)
        assert (code, out) == (1, "")
        assert err == f"minfer: error: --h {h} must lie in [0, 1)\n"

    @pytest.mark.parametrize("argv", [
        ["analyze", *TRIAL],
        ["curve", *TRIAL, "--method", "normal", "--grid", "0:1:0.5"],
        ["assure", *TRIAL, "--h", "0.05,0.3", "--B-outer", "5", "--grid", "0:1:0.1"],
        ["simulate", "--setting", "missing", "--psi", "0.3,0.5,0.2", "--sizes", "50",
         "--reps", "10", "--grid", "0:1:0.5"],
    ])
    def test_unwritable_out_is_one(self, capsys, tmp_path, argv):
        # was exit 2: "internal error: [Errno 2] No such file or directory"
        for target in (tmp_path / "no-such-dir" / "x.out", tmp_path):
            code, out, err = run_cli([*argv, "--out", str(target)], capsys)
            assert (code, out) == (1, ""), target
            assert err.startswith(f"minfer: error: cannot write {target}: "), err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("tau", ["nan", "-0.1", "1.5"])
    def test_tau_min_outside_unit_interval_is_one(self, capsys, tau):
        # nan and 1.5 ran the sweep and ended in NoQualifyingH; -0.1 exited 0
        code, out, err = run_cli(
            ["assure", *TRIAL, "--h", "0.01,0.06", "--tau-min", tau, "--B-outer", "5",
             "--grid", "0:1:0.1"], capsys)
        assert (code, out) == (1, "")
        assert err == f"minfer: error: --tau-min {float(tau)} must lie in [0, 1]\n"

    @pytest.mark.parametrize("B", ["0", "-3"])
    @pytest.mark.parametrize("argv", [
        ["curve", *TRIAL, "--method", "normal"],
        ["levelset", *TRIAL, "--method", "normal", "--alpha", "0.5"],
        ["test", *TRIAL, "--method", "normal", "--theta-star", "0.3"],
    ])
    def test_replicate_count_below_one_is_one_on_normal_curves(self, capsys, argv, B):
        # was exit 0: the normal curve never read B
        code, out, err = run_cli([*argv, "--B", B], capsys)
        assert (code, out) == (1, "")
        assert err == f"minfer: error: --B {B} must be at least 1\n"

    def test_numeric_failure_is_two(self, capsys):
        # degenerate cell estimate: the normal approximation cannot run
        code, _, err = run_cli(
            ["curve", "--setting", "missing", "--counts", "0,5,5",
             "--method", "normal", "--grid", "0:1:0.5"],
            capsys,
        )
        assert code == 2
        assert "numeric failure" in err

    def test_negative_seed_is_one(self, capsys):
        for argv in (
            ["curve", *TRIAL, "--method", "bootstrap", "--B", "20", "--seed", "-1"],
            ["assure", *TRIAL, "--h", "0.1", "--B-outer", "5", "--seed", "-5"],
            ["assure", *TRIAL, "--ml-region", "--B-outer", "5", "--seed", "-5"],
            ["test", *TRIAL, "--theta-star", "0.3", "--method", "bootstrap",
             "--B", "20", "--seed", "-1"],
            ["simulate", "--setting", "missing", "--psi", "0.3,0.5,0.2", "--sizes", "50",
             "--reps", "10", "--grid", "0:1:0.5", "--seed", "-1"],
        ):
            code, out, err = run_cli(argv, capsys)
            assert code == 1 and out == "", argv
            assert err.startswith("minfer: error: --seed -"), argv

    def test_negative_seed_is_one_on_normal_curves(self, capsys):
        # the normal curve draws nothing, but the seed is checked as on the bootstrap
        for argv in (
            ["curve", *TRIAL, "--method", "normal", "--seed", "-1"],
            ["levelset", *TRIAL, "--alpha", "0.5", "--method", "normal", "--seed", "-1"],
            ["test", *TRIAL, "--theta-star", "0.3", "--method", "normal", "--seed", "-1"],
            ["test", *TRIAL, "--theta-star", "0.3", "--seed", "-1"],
        ):
            code, out, err = run_cli(argv, capsys)
            assert code == 1 and out == "", argv
            assert err == "minfer: error: --seed -1 must be at least 0\n", argv


class TestCurve:
    def test_missing_columns(self, capsys):
        code, out, _ = run_cli(
            ["curve", *TRIAL, "--method", "normal", "--grid", "0:1:0.1"], capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "theta,corroboration,profile_std,mcar_std"
        assert len(lines) == 12
        assert all(len(line.split(",")) == 4 for line in lines[1:])

    def test_matched_columns(self, capsys):
        code, out, _ = run_cli(
            [
                "curve", "--setting", "matched", "--counts", "30,100,40,120",
                "--grid", "0:1:0.25", "--B", "200", "--seed", "5",
            ],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[0] == "theta,corroboration"

    def test_profile_peak_inside_region(self, capsys):
        code, out, _ = run_cli(
            ["curve", *TRIAL, "--method", "normal", "--grid", "0.3:0.5:0.1"], capsys
        )
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert all(row[2] == "1.000000" for row in rows)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ["curve", *TRIAL, "--method", "bootstrap", "--B", "500",
                "--seed", "42", "--grid", "0:1:0.01"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli([*args, "--out", str(a)], capsys)[0] == 0
        assert run_cli([*args, "--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()


class TestLevelset:
    def test_alpha_set(self, capsys):
        code, out, _ = run_cli(
            ["levelset", *TRIAL, "--method", "normal", "--alpha", "0.5"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("levelset.schema.json"))
        assert payload["empty"] is False
        assert payload["lower"] <= 0.3 <= 0.5 <= payload["upper"]

    def test_h_offset_set(self, capsys):
        code, out, _ = run_cli(
            ["levelset", *TRIAL, "--method", "normal", "--h", "0.01"], capsys
        )
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("levelset.schema.json"))
        assert payload["kind"] == "h_offset"
        assert payload == {
            "kind": "h_offset", "level": 0.01, "empty": False,
            "lower": 0.377, "upper": 0.415,
        }

    def test_empty_set(self, capsys):
        code, out, _ = run_cli(
            ["levelset", *TRIAL, "--method", "normal", "--alpha", "1.0"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("levelset.schema.json"))
        assert payload["empty"] is True

    def test_requires_exactly_one_selector(self, capsys):
        assert run_cli(["levelset", *TRIAL], capsys)[0] == 1
        assert run_cli(
            ["levelset", *TRIAL, "--alpha", "0.5", "--h", "0.1"], capsys
        )[0] == 1


class TestAssure:
    def test_single_h_json(self, capsys):
        code, out, _ = run_cli(
            ["assure", *TRIAL, "--h", "0.05", "--B-outer", "50",
             "--grid", "0:1:0.005", "--seed", "1"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("assurance_report.schema.json"))
        assert payload["inner_method"] == "normal"

    def test_empty_h_list_names_the_flag(self, capsys, tmp_path):
        # was "h_list must be nonempty", the library's parameter name
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"h": []}), encoding="utf-8")
        for extra in (["--h", ","], ["--config", str(config)],
                      ["--h", ",", "--tau-min", "0.5"]):
            code, out, err = run_cli(["assure", *TRIAL, "--B-outer", "5", *extra], capsys)
            assert (code, out) == (1, ""), extra
            assert err == ("minfer: error: assure needs --h (one value or a comma list) "
                           "or --ml-region\n")

    @pytest.mark.parametrize("key, flag, extra", [
        ("B_outer", "--B-outer", ["--h", "0.1"]),
        ("B_outer", "--B-outer", ["--ml-region"]),
        ("inner_B", "--inner-B", ["--h", "0.1"]),
        ("threads", "--threads", ["--h", "0.1"]),
        ("threads", "--threads", ["--ml-region"]),
    ])
    def test_counts_below_one_name_the_flag(self, capsys, tmp_path, key, flag, extra):
        # were "B_outer = 0 ...", "inner_B = 0 ..." and "thread count 0 ...",
        # the library's names
        config = tmp_path / "run.json"
        config.write_text(json.dumps({key: 0}), encoding="utf-8")
        for given in ([flag, "0"], ["--config", str(config)]):
            code, out, err = run_cli(["assure", *TRIAL, *extra, *given], capsys)
            assert (code, out) == (1, ""), given
            assert err == f"minfer: error: {flag} 0 must be at least 1\n"

    def test_multi_h_csv(self, capsys):
        code, out, _ = run_cli(
            ["assure", *TRIAL, "--h", "0.05,0.3", "--B-outer", "40",
             "--grid", "0:1:0.005", "--seed", "1"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "h,tau,L_bar,U_bar"
        assert len(lines) == 3

    def test_ml_region_variant(self, capsys):
        code, out, _ = run_cli(
            ["assure", *TRIAL, "--ml-region", "--B-outer", "400", "--seed", "0"], capsys
        )
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("assurance_report.schema.json"))
        assert payload["h"] is None
        assert payload["inner_method"] == "ml_region"

    def test_tau_min_selection(self, capsys):
        code, out, _ = run_cli(
            ["assure", *TRIAL, "--h", "0.01,0.06", "--tau-min", "0.9",
             "--B-outer", "300", "--grid", "0:1:0.005", "--seed", "2"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["chosen_h"] == 0.01
        jsonschema.validate(payload["report"], load_schema("assurance_report.schema.json"))

    def test_no_qualifying_h(self, capsys):
        code, _, err = run_cli(
            ["assure", *TRIAL, "--h", "0.5,0.8", "--tau-min", "0.99",
             "--B-outer", "60", "--grid", "0:1:0.01", "--seed", "2"],
            capsys,
        )
        assert code == 1
        assert "assurance" in err

    def test_grid_must_cover_plugin_region(self, capsys):
        code, out, err = run_cli(
            ["assure", *TRIAL, "--h", "0.1", "--B-outer", "5", "--grid", "0.6:1:0.01"], capsys
        )
        assert code == 1 and out == ""
        assert "plug-in region" in err

    def test_threads_flag_stable(self, tmp_path, capsys):
        base = ["assure", *TRIAL, "--h", "0.02,0.2", "--B-outer", "60",
                "--grid", "0:1:0.01", "--seed", "9"]
        a, b = tmp_path / "t1.csv", tmp_path / "t4.csv"
        assert run_cli([*base, "--threads", "1", "--out", str(a)], capsys)[0] == 0
        assert run_cli([*base, "--threads", "4", "--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()


    def test_threads_flag_stable_on_nested_bootstrap(self, tmp_path, capsys, monkeypatch):
        # a matched table has a nested-bootstrap inner curve, the one that
        # runs on worker threads; two usable CPUs make the pool start anywhere
        monkeypatch.setattr(assure_mod, "_usable_cpus", lambda: 2)
        base = ["assure", "--setting", "matched", "--counts", "30,100,40,120",
                "--h", "0,0.02,0.2", "--B-outer", "41", "--inner-B", "200",
                "--grid", "0:1:0.01", "--seed", "9"]
        a, b = tmp_path / "t1.csv", tmp_path / "t2.csv"
        assert run_cli([*base, "--threads", "1", "--out", str(a)], capsys)[0] == 0
        assert run_cli([*base, "--threads", "2", "--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_thread_count_reaches_the_sweep(self, tmp_path, capsys, monkeypatch):
        # the flag, then --config, else 1; the environment is not read
        seen = []
        blocks = assure_mod._blocks

        def recording(replicates, threads):
            seen.append(threads)
            return blocks(replicates, 1)

        monkeypatch.setattr(assure_mod, "_blocks", recording)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"threads": 3}), encoding="utf-8")
        args = ["assure", "--setting", "matched", "--counts", "30,100,40,120", "--h", "0.1",
                "--B-outer", "3", "--inner-B", "20", "--grid", "0:1:0.1"]
        monkeypatch.setenv("MINFER_THREADS", "5")
        assert run_cli(args, capsys)[0] == 0
        assert run_cli([*args, "--config", str(config)], capsys)[0] == 0
        assert run_cli([*args, "--config", str(config), "--threads", "2"], capsys)[0] == 0
        assert seen == [1, 3, 2]

class TestTestCommand:
    def test_single_theta(self, capsys):
        code, out, _ = run_cli(
            ["test", *TRIAL, "--theta-star", "0.2", "--method", "normal"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("test_result.schema.json"))
        assert payload["decision"] == "reject_HA"
        assert payload["observed_power"] == 0.982105

    def test_multiple_thetas(self, capsys):
        code, out, _ = run_cli(
            ["test", *TRIAL, "--theta-star", "0.2,0.4,0.6", "--method", "normal"], capsys
        )
        payload = json.loads(out)
        assert isinstance(payload, list) and len(payload) == 3
        schema = load_schema("test_result.schema.json")
        for item in payload:
            jsonschema.validate(item, schema)

    def test_normal_many_equals_single_runs(self, capsys):
        # one normal curve on all four values prints what four runs print
        thetas = ["0.2", "0.3", "0.5", "0.6"]
        code, out, _ = run_cli(
            ["test", *TRIAL, "--theta-star", ",".join(thetas), "--method", "normal"], capsys
        )
        assert code == 0
        singles = []
        for theta in thetas:
            single_code, single_out, _ = run_cli(
                ["test", *TRIAL, "--theta-star", theta, "--method", "normal"], capsys
            )
            assert single_code == 0
            singles.append(json.loads(single_out))
        assert json.loads(out) == singles

    def test_requires_theta(self, capsys):
        assert run_cli(["test", *TRIAL], capsys)[0] == 1

    def test_empty_theta_list_is_one(self, capsys, tmp_path):
        # was exit 0 with "[]" on stdout, by the flag and by --config alike
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"theta-star": []}), encoding="utf-8")
        for extra in (["--theta-star", ","], ["--config", str(config)]):
            code, out, err = run_cli(["test", *TRIAL, "--method", "normal", *extra], capsys)
            assert (code, out) == (1, ""), extra
            assert err == "minfer: error: test needs --theta-star (one value or a comma list)\n"


class TestSimulate:
    def test_matched_curve(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--setting", "matched", "--psi", "0.3,0.3",
             "--sizes", "200,300", "--reps", "500", "--grid", "0:1:0.25", "--seed", "7"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "theta,corroboration"
        first = float(lines[1].split(",")[1])
        assert first > 0.95

    def test_missing_curve(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--setting", "missing", "--psi", "0.3,0.5,0.2",
             "--sizes", "200", "--reps", "300", "--grid", "0:1:0.5", "--seed", "3"],
            capsys,
        )
        assert code == 0
        assert len(out.splitlines()) == 4

    @pytest.mark.parametrize("reps", [0, -3])
    def test_reps_below_one_names_the_flag(self, capsys, tmp_path, reps):
        # was "replicate count B = 0 ...", and simulate has no --B
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"reps": reps}), encoding="utf-8")
        for extra in (["--reps", str(reps)], ["--config", str(config)]):
            code, out, err = run_cli(
                ["simulate", "--setting", "missing", "--psi", "0.3,0.5,0.2",
                 "--sizes", "50", *extra], capsys)
            assert (code, out) == (1, ""), extra
            assert err == f"minfer: error: --reps {reps} must be at least 1\n"

    def test_size_psi_mismatch(self, capsys):
        code, _, err = run_cli(
            ["simulate", "--setting", "matched", "--psi", "0.3,0.3,0.4",
             "--sizes", "200,300", "--reps", "10", "--grid", "0:1:0.5"],
            capsys,
        )
        assert code == 1

    def test_sizes_below_one_rejected(self, capsys):
        for setting, psi, sizes in (("missing", "0.3,0.5,0.2", "0"),
                                    ("missing", "0.3,0.5,0.2", "-3"),
                                    ("matched", "0.3,0.3", "0,5")):
            code, out, err = run_cli(
                ["simulate", "--setting", setting, "--psi", psi, "--sizes", sizes,
                 "--reps", "10", "--grid", "0:1:0.5"],
                capsys,
            )
            assert code == 1 and out == ""
            assert "must be at least 1" in err

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ["simulate", "--setting", "matched", "--psi", "0.1,0.9",
                "--sizes", "100,50", "--reps", "400", "--grid", "0:1:0.02", "--seed", "11"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli([*args, "--out", str(a)], capsys)[0] == 0
        assert run_cli([*args, "--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()


class TestConfigAndEnv:
    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps({"setting": "missing", "counts": "32,54,24"}), encoding="utf-8"
        )
        code, out, _ = run_cli(["analyze", "--config", str(config)], capsys)
        assert code == 0
        assert json.loads(out)["n"] == 110

    def test_flags_override_config(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps({"setting": "missing", "counts": "1,1,1"}), encoding="utf-8"
        )
        code, out, _ = run_cli(
            ["analyze", "--config", str(config), "--counts", "32,54,24"], capsys
        )
        assert code == 0
        assert json.loads(out)["n"] == 110

    def test_config_list_values(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps({"setting": "missing", "counts": [32, 54, 24]}), encoding="utf-8"
        )
        code, out, _ = run_cli(["analyze", "--config", str(config)], capsys)
        assert code == 0
        assert json.loads(out)["n"] == 110

    def test_unknown_config_key_warns(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"seeed": 3}), encoding="utf-8")
        code, out, err = run_cli(["analyze", *TRIAL, "--config", str(config)], capsys)
        assert code == 0
        assert out == run_cli(["analyze", *TRIAL], capsys)[1]
        assert err == "minfer: warning: config key 'seeed' is not an option of analyze; ignored\n"

    def test_threads_only_on_assure(self, tmp_path, capsys):
        # the flag is a usage error elsewhere, a config key is ignored there
        for argv in (["curve", *TRIAL, "--method", "normal"], ["analyze", *TRIAL],
                     ["test", *TRIAL, "--theta-star", "0.3", "--method", "normal"]):
            code, out, err = run_cli([*argv, "--threads", "2"], capsys)
            assert code == 1 and out == ""
            assert "unrecognized arguments: --threads 2" in err
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"threads": 2}), encoding="utf-8")
        code, out, err = run_cli(["analyze", *TRIAL, "--config", str(config)], capsys)
        assert code == 0
        assert out == run_cli(["analyze", *TRIAL], capsys)[1]
        assert err == "minfer: warning: config key 'threads' is not an option of analyze; ignored\n"

    def test_bad_config(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text("[1,2]", encoding="utf-8")
        assert run_cli(["analyze", "--config", str(config)], capsys)[0] == 1

    def test_config_values_are_parsed_like_flags(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"B": "abc"}), encoding="utf-8")
        code, _, err = run_cli(["curve", *TRIAL, "--config", str(config)], capsys)
        assert code == 1
        assert "internal error" not in err

    def test_config_string_threads(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"threads": "4"}), encoding="utf-8")
        args = ["assure", *TRIAL, "--h", "0.1", "--B-outer", "5", "--grid", "0:1:0.1"]
        code, out, _ = run_cli([*args, "--config", str(config)], capsys)
        assert code == 0
        assert out == run_cli([*args, "--threads", "4"], capsys)[1]


class TestConsoleScript:
    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "minfer.cli", "analyze", *TRIAL],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["n"] == 110

    def test_import_skips_numerical_integration(self):
        # numpy is the only runtime dependency: importing the CLI, a normal
        # curve and an assurance sweep load no scipy module, in a fresh
        # process; a sweep on one worker loads no thread pool either
        runs = [["curve", *TRIAL, "--method", "normal"],
                ["assure", *TRIAL, "--h", "0,0.01", "--B-outer", "20", "--threads", "2"]]
        code = ("import json, sys, minfer.cli as cli\n"
                "def unwanted(): return sorted(m for m in sys.modules\n"
                "                              if m.startswith(('scipy', 'concurrent.futures')))\n"
                "loaded = [unwanted()]\n"
                f"for argv in {runs!r}:\n"
                "    assert cli.main(argv) == 0\n"
                "    loaded.append(unwanted())\n"
                "print(json.dumps(loaded), file=sys.stderr)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("theta,corroboration,") and "\nh,tau," in proc.stdout
        assert json.loads(proc.stderr.splitlines()[-1]) == [[], [], []]

    def test_entry_point_error_path(self):
        proc = subprocess.run(
            [sys.executable, "-m", "minfer.cli", "analyze", "--setting", "missing",
             "--counts", "a,b,c"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr


def _numeric_options():
    """(subcommand, option, takes a list) for every value-taking option of
    ``build_parser()``'s subcommands, apart from choices (argparse checks
    them) and the files ``--config`` and ``--out``."""
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command, subparser in subparsers.choices.items():
        for action in subparser._actions:
            if action.nargs == 0 or action.choices or action.dest in ("config", "out"):
                continue
            yield command, action.option_strings[0], action.type in (cli._int_list,
                                                                     cli._float_list)


NUMERIC_OPTIONS = list(_numeric_options())

# values outside each numeric flag's domain: below its range, nan and +-inf,
# and above its upper end where the domain has one (sample sizes past int64,
# replicate counts past 2**32, grids of more than cli.GRID_MAX_POINTS
# points); a flag that takes a list also gets the empty list
REPLICATE_FLAGS = ("--B", "--B-outer", "--inner-B", "--reps")
OUTSIDE = {
    "--counts": ["-1,54,24", "nan,54,24", "inf,54,24", "-inf,54,24",
                 "100000000000000000000,1,2"],
    "--grid": ["-0.5:1:0.5", "nan:1:0.5", "0:inf:0.5", "-inf:1:0.5", "0:1:1e-300"],
    "--psi": ["-0.1,0.5,0.6", "nan,0.5,0.2", "inf,0.5,0.2", "-inf,0.5,0.2"],
    "--sizes": ["0", "nan", "inf", "-inf", "9223372036854775808"],
    **{flag: [below, "nan", "inf", "-inf"] for flag, below in [
        ("--seed", "-1"), ("--B", "0"), ("--B-outer", "0"), ("--inner-B", "0"),
        ("--threads", "0"), ("--reps", "0"), ("--alpha", "0"),
        ("--h", "-0.1"), ("--tau-min", "-0.1"), ("--theta-star", "-0.1"),
    ]},
}
for flag in REPLICATE_FLAGS:
    OUTSIDE[flag] += [str(2**32 + 1), str(10**20)]

# valid flags each case starts from; the flag under test replaces its own
VALID = {
    "analyze": {"--setting": "missing", "--counts": "32,54,24"},
    "curve": {"--setting": "missing", "--counts": "32,54,24", "--method": "normal",
              "--grid": "0:1:0.5"},
    "levelset": {"--setting": "missing", "--counts": "32,54,24", "--method": "normal",
                 "--grid": "0:1:0.5", "--alpha": "0.5"},
    "assure": {"--setting": "missing", "--counts": "32,54,24", "--h": "0.1", "--B-outer": "5",
               "--grid": "0:1:0.1"},
    "test": {"--setting": "missing", "--counts": "32,54,24", "--method": "normal",
             "--theta-star": "0.3"},
    "simulate": {"--setting": "missing", "--psi": "0.3,0.5,0.2", "--sizes": "50",
                 "--reps": "10", "--grid": "0:1:0.5"},
}

# analyze draws nothing, so its --seed reaches no check
INERT = {("analyze", "--seed")}

OUTSIDE_CASES = [
    (command, flag, value)
    for command, flag, takes_list in NUMERIC_OPTIONS if (command, flag) not in INERT
    for value in OUTSIDE[flag] + ([","] if takes_list else [])
]


class TestFlagNames:
    """Every value outside a numeric flag's domain exits 1 with a message
    that names the flag, given as a flag or through --config."""

    @pytest.mark.parametrize("command, flag, value", OUTSIDE_CASES)
    @pytest.mark.parametrize("given", ["flag", "config"])
    def test_outside_the_domain(self, capsys, tmp_path, command, flag, value, given):
        valid = {key: v for key, v in VALID[command].items() if key != flag}
        if command == "levelset" and flag == "--h":
            del valid["--alpha"]  # levelset takes exactly one of them
        argv = [command, *(f"{key}={v}" for key, v in valid.items())]
        if given == "flag":
            argv.append(f"{flag}={value}")
        else:
            config = tmp_path / "run.json"
            config.write_text(json.dumps({flag[2:]: [] if value == "," else value}),
                              encoding="utf-8")
            argv += ["--config", str(config)]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("minfer: error: ") and err.count("\n") == 1, err
        assert re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", err), err

    def test_every_checked_flag_has_a_table_entry(self):
        # a new flag whose value reaches a library check needs a _FLAGS entry,
        # or its errors would name the library's parameter
        options = {flag for _, flag, _ in NUMERIC_OPTIONS}
        assert options == set(cli._FLAGS.values())
        assert options == set(OUTSIDE)
        assert {command for command, _, _ in NUMERIC_OPTIONS} == set(VALID)

    @pytest.mark.parametrize("argv, message", [
        (["levelset", *TRIAL, "--alpha", "1.5"], "--alpha 1.5 must lie in (0, 1]"),
        (["test", *TRIAL, "--theta-star", "nan"], "--theta-star nan must lie in [0, 1]"),
        (["simulate", "--setting", "missing", "--psi", "0.3,0.5,nan", "--sizes", "50"],
         "--psi nan must lie in [0, 1]"),
        (["curve", *TRIAL, "--B", "0"], "--B 0 must be at least 1"),
        (["curve", *TRIAL, "--seed", "-1"], "--seed -1 must be at least 0"),
        (["simulate", "--setting", "missing", "--psi", "0.3,0.5,0.2", "--sizes", "0"],
         "--sizes 0 must be at least 1"),
        (["curve", *TRIAL, "--grid", "0:2:0.5"], "--grid must be strictly increasing within [0, 1]"),
        (["assure", *TRIAL, "--h", "0.3,0.1", "--tau-min", "0.5"],
         "--h [0.3, 0.1] must be sorted ascending"),
        (["analyze", "--setting", "matched", "--counts", "1,2,3"],
         "--counts [1, 2, 3] must be 4 matched-data counts (nx, n1, ny, n2)"),
        (["analyze", "--setting", "missing", "--counts=-1,2,3"], "--counts -1 is negative"),
        (["analyze", "--setting", "missing", "--counts", "0,0,0"], "--counts must total at least 1"),
        (["analyze", "--setting", "matched", "--counts", "5,3,2,4"],
         "--counts nx = 5 exceeds n1 = 3"),
        (["simulate", "--setting", "missing", "--psi", "0.3,0.3,0.3", "--sizes", "50"],
         "--psi components sum to 0.8999999999999999, not 1"),
        (["simulate", "--setting", "missing", "--psi", "0.3,0.5,0.2", "--sizes", str(2**63),
          "--reps", "3", "--grid", "0:1:0.5"], f"--sizes {2**63} must be at most {2**63 - 1}"),
        (["assure", "--setting", "missing", "--counts", f"{10**20},1,2", "--B-outer", "3",
          "--h", "0.1"], f"--counts must total at most {2**63 - 1}"),
        (["curve", "--setting", "matched", "--counts", f"1,{10**20},1,2"],
         f"--counts must have n1 and n2 at most {2**63 - 1}"),
        (["curve", *TRIAL, "--grid", "0:1:1e-300"],
         "--grid expects at most 10000000 points, got '0:1:1e-300'"),
        (["curve", *TRIAL, "--grid", "0:1:1e-8"],
         "--grid expects at most 10000000 points, got '0:1:1e-8'"),
        (["curve", *TRIAL, "--B", str(10**20)], f"--B {10**20} must be at most {2**32}"),
        (["assure", "--setting", "matched", "--counts", "30,100,40,120", "--h", "0.1",
          "--B-outer", "3", "--inner-B", str(10**20)], f"--inner-B {10**20} must be at most {2**32}"),
        (["assure", *TRIAL, "--h", "0.1", "--B-outer", str(2**32 + 1)],
         f"--B-outer {2**32 + 1} must be at most {2**32}"),
        (["simulate", "--setting", "missing", "--psi", "0.3,0.5,0.2", "--sizes", "50",
          "--reps", str(10**20)], f"--reps {10**20} must be at most {2**32}"),
        (["test", *TRIAL, "--theta-star", "0.3", "--method", "bootstrap", "--B", str(10**20)],
         f"--B {10**20} must be at most {2**32}"),
    ])
    def test_messages(self, capsys, argv, message):
        # were "level alpha = 1.5 ...", "theta_star = nan ...", "l_plus0 = nan ...",
        # "replicate count B = 0 ...", "master seed -1 ...", "sample sizes 0 ...",
        # "grid '0:2:0.5' leaves [0, 1]", "candidates must be ...", "matched-data
        # input needs 4 counts ...", "n11 = -1 is negative", "total count n must be
        # at least 1", "nx = 5 exceeds n1 = 3" and "components sum to 0.89..., not 1";
        # the sizes past int64 and the grids past the point cap were "minfer:
        # internal error: ..." with exit 2 (the grids are refused before any point
        # is allocated); replicate counts past 2**32 printed "replicate indices
        # 0..99999999999999999999 must lie below 2**32", naming no flag, or, for
        # --inner-B, "internal error: Maximum allowed dimension exceeded"
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (1, "", f"minfer: error: {message}\n")


# --- hostile command lines: exit 0, 1 or 2, and no internal error

HOSTILE = ["nan", "inf", "-inf", "0", "-1", str(2**63), str(10**20)]
# valid entries of each list flag, for hostile entries among valid ones
LIST_ENTRIES = {"--counts": ["1", "5", "24"], "--sizes": ["1", "20"],
                "--psi": ["0.2", "0.3", "0.5"], "--h": ["0.01", "0.1"], "--theta-star": ["0.3"]}
GRID_PARTS = [*HOSTILE, "1", "0.5", "1e-300"]
# replicate counts kept tiny, so that a valid case runs in milliseconds
SMALL = {"--B": "10", "--reps": "10", "--B-outer": "4", "--inner-B": "10"}
MATCHED_VALID = {"--counts": "30,100,40,120", "--psi": "0.3,0.5", "--sizes": "20,30",
                 "--method": "bootstrap"}


def _hostile_value(flag, takes_list):
    if flag == "--grid":
        return st.lists(st.sampled_from(GRID_PARTS), min_size=3, max_size=3).map(":".join)
    if takes_list:
        entries = st.sampled_from([*HOSTILE, *LIST_ENTRIES[flag]])
        return st.lists(entries, max_size=4).map(",".join)
    return st.sampled_from(HOSTILE)


@st.composite
def _hostile_argv(draw):
    """A subcommand's valid tiny flags, in either setting, with one to three
    of its numeric flags given hostile values (none an in-domain huge
    replicate count, which would allocate; a huge --threads is clamped to
    the usable CPUs)."""
    command = draw(st.sampled_from(sorted(VALID)))
    options = {flag: takes_list for name, flag, takes_list in NUMERIC_OPTIONS if name == command}
    flags = {**VALID[command], **{flag: SMALL[flag] for flag in options if flag in SMALL}}
    if draw(st.booleans()):
        flags["--setting"] = "matched"
        flags.update((flag, value) for flag, value in MATCHED_VALID.items() if flag in flags)
    for flag in draw(st.lists(st.sampled_from(sorted(options)), min_size=1, max_size=3,
                              unique=True)):
        flags[flag] = draw(_hostile_value(flag, options[flag]))
        if command == "levelset" and flag == "--h":
            flags.pop("--alpha", None)  # levelset takes exactly one of them
    return [command, *(f"{flag}={value}" for flag, value in flags.items())]


@settings(max_examples=300, deadline=None)
@given(argv=_hostile_argv())
def test_hostile_command_lines(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2), argv
    assert code == 0 or out.getvalue() == "", argv
    assert "minfer: internal error" not in err.getvalue(), (argv, err.getvalue())
    if code == 0:
        assert _written_by_the_one_writer(out.getvalue()), (argv, out.getvalue())


def _written_by_the_one_writer(text):
    """JSON whose every float is rounded to 6 decimal places (no NaN or
    infinity), or CSV whose every nonempty data field has 6 decimals."""
    if text.startswith(("{", "[")):
        floats = []

        def parse(token):
            floats.append(float(token))
            return floats[-1]

        json.loads(text, parse_float=parse, parse_constant=parse)
        return all(v == round(v, 6) for v in floats)
    return all(re.fullmatch(r"-?\d+\.\d{6}", field)
               for row in text.splitlines()[1:] for field in row.split(",") if field)


# --- the README's command block runs as written

def _readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## Command line\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("minfer ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[1])
def test_readme_command_runs(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(argv[1:], capsys)
    assert code == 0, err
    if "--out" in argv:
        out = (tmp_path / argv[argv.index("--out") + 1]).read_text(encoding="utf-8")
    assert out != ""
