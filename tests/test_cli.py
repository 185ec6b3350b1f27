import json
import subprocess
import sys
from importlib import resources

import jsonschema

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
            assert err.startswith("minfer: error: master seed -"), argv


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
        # flag, then --config, then the environment, else 1
        seen = []
        blocks = assure_mod._blocks

        def recording(B_outer, threads):
            seen.append(threads)
            return blocks(B_outer, 1)

        monkeypatch.setattr(assure_mod, "_blocks", recording)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"threads": 3}), encoding="utf-8")
        args = ["assure", "--setting", "matched", "--counts", "30,100,40,120", "--h", "0.1",
                "--B-outer", "3", "--inner-B", "20", "--grid", "0:1:0.1"]
        monkeypatch.delenv(cli.THREADS_ENV, raising=False)
        assert run_cli(args, capsys)[0] == 0
        monkeypatch.setenv(cli.THREADS_ENV, "5")
        assert run_cli(args, capsys)[0] == 0
        assert run_cli([*args, "--config", str(config)], capsys)[0] == 0
        assert run_cli([*args, "--config", str(config), "--threads", "2"], capsys)[0] == 0
        assert seen == [1, 5, 3, 2]

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

    def test_threads_env(self, monkeypatch, capsys):
        monkeypatch.setenv(cli.THREADS_ENV, "not-a-number")
        code, _, err = run_cli(
            ["assure", *TRIAL, "--h", "0.1", "--B-outer", "5", "--grid", "0:1:0.1"], capsys
        )
        assert code == 1
        assert cli.THREADS_ENV in err
        monkeypatch.setenv(cli.THREADS_ENV, "2")
        code, out, _ = run_cli(
            ["assure", *TRIAL, "--h", "0.1", "--B-outer", "5", "--grid", "0:1:0.1"], capsys
        )
        assert code == 0


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
