"""Command-line interface tests: subcommands, exit codes, output artifacts."""

import json

import pytest
import yaml

from funnelnav.cli import main

from conftest import SCENARIO_DIR


def small_config(tmp_path, **overrides):
    """A fast straight-corridor scenario written to a temp file."""
    d = {
        "name": "cli_unit",
        "world": {
            "bounds": [-5, -5, 20, 5],
            "generated": [
                {"line": {"x0": 0.5, "y0": -2.0, "x1": 12.0, "y1": -2.0, "n": 12}},
                {"line": {"x0": 0.5, "y0": 2.0, "x1": 12.0, "y1": 2.0, "n": 12}},
            ],
        },
        "teach": {
            "start": [0.0, 0.0, 0.0],
            "dt": 0.1,
            "steps": [{"v": 0.5, "omega": 0.0, "duration": 6.0}],
        },
        "repeat": {"start": [0.0, 0.0, 0.0], "runs": 2, "seed": 0, "tolerance": 0.3},
        "noise": {"dropout_prob": 0.05, "pixel_sigma": 0.5},
    }
    d.update(overrides)
    f = tmp_path / "scenario.yaml"
    f.write_text(yaml.safe_dump(d))
    return f


class TestTeach:
    def test_writes_path_and_keyframe_table(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "out"
        assert main(["teach", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "visual_path.json").exists()
        assert (out / "meta.json").exists()
        table = (out / "keyframes.txt").read_text().splitlines()
        assert len(table) >= 3  # header plus at least two keyframes

    def test_degenerate_world_exits_3(self, tmp_path):
        cfg = small_config(
            tmp_path, world={"bounds": [-5, -5, 20, 5], "landmarks": [[1, 10.0, 0.0]]}
        )
        out = tmp_path / "out"
        assert main(["teach", "--config", str(cfg), "--out", str(out)]) == 3


class TestExitCodes:
    def test_malformed_yaml_exits_2(self, tmp_path):
        f = tmp_path / "bad.yaml"
        f.write_text("world: [unclosed\n")
        assert main(["teach", "--config", str(f), "--out", str(tmp_path / "o")]) == 2

    def test_missing_key_exits_2(self, tmp_path):
        f = tmp_path / "bad.yaml"
        f.write_text("name: x\n")
        assert main(["teach", "--config", str(f), "--out", str(tmp_path / "o")]) == 2

    def test_non_empty_out_dir_without_force_exits_2(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        (out / "junk.txt").write_text("x")
        assert main(["teach", "--config", str(cfg), "--out", str(out)]) == 2
        assert main(["teach", "--config", str(cfg), "--out", str(out), "--force"]) == 0

    @pytest.mark.parametrize(
        "overrides, named",
        [
            ({"repeat": [1]}, "repeat"),
            ({"controllers": [1]}, "controllers"),
            ({"navigatr": {"max_ticks": 5}}, "navigatr"),
        ],
        ids=["repeat-list", "controllers-list", "misspelled-navigator"],
    )
    def test_malformed_section_exits_2(self, tmp_path, capsys, overrides, named):
        cfg = small_config(tmp_path, **overrides)
        out = tmp_path / "out"
        assert main(["repeat", "--config", str(cfg), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, extra",
        [({}, ["--seed", "-1"]), ({"repeat": {"start": [0.0, 0.0, 0.0], "seed": -2}}, [])],
        ids=["option", "config"],
    )
    def test_negative_seed_exits_2(self, tmp_path, capsys, overrides, extra):
        cfg = small_config(tmp_path, **overrides)
        out = tmp_path / "out"
        assert main(["repeat", "--config", str(cfg), "--out", str(out), *extra]) == 2
        assert "seed" in capsys.readouterr().err

    def test_empty_landmark_world_oracle_check_exits_3(self, tmp_path):
        cfg = small_config(tmp_path, world={"bounds": [-5, -5, 20, 5], "landmarks": []})
        out = tmp_path / "out"
        assert main(["oracle-check", "--config", str(cfg), "--out", str(out)]) == 3


class TestRepeatAndCompare:
    def test_repeat_writes_traces_and_metrics(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "out"
        assert main(["repeat", "--config", str(cfg), "--out", str(out)]) == 0
        sub = out / "sloped"
        runs = sorted(sub.glob("run_*.jsonl"))
        assert len(runs) == 2
        metrics = json.loads((sub / "metrics.json").read_text())
        assert metrics["scenario"] == "cli_unit"
        assert metrics["runs"] == 2
        csv = (sub / "trajectories.csv").read_text().splitlines()
        assert csv[0] == "kind,run,step,x,y"
        assert any(line.startswith("teach,") for line in csv[1:])
        assert any(line.startswith("repeat,1,") for line in csv[1:])

    def test_controller_override(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "out"
        rc = main(
            ["repeat", "--config", str(cfg), "--out", str(out), "--controller", "standard"]
        )
        assert rc == 0
        assert (out / "standard" / "metrics.json").exists()
        meta = json.loads((out / "meta.json").read_text())
        assert meta["controller_override"] == "standard"

    def test_compare_writes_both_controllers(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "out"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        for sub in ("standard", "sloped"):
            assert (out / sub / "metrics.json").exists()
            assert len(list((out / sub).glob("run_*.jsonl"))) == 2

    def test_seed_override_recorded_and_applied(self, tmp_path):
        cfg = small_config(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["repeat", "--config", str(cfg), "--out", str(out_a), "--seed", "5"])
        main(["repeat", "--config", str(cfg), "--out", str(out_b), "--seed", "6"])
        meta = json.loads((out_a / "meta.json").read_text())
        assert meta["seed_override"] == 5
        a = (out_a / "sloped" / "run_000.jsonl").read_bytes()
        b = (out_b / "sloped" / "run_000.jsonl").read_bytes()
        assert a != b


class TestOracleCheck:
    def test_two_feature_world_agreement(self, tmp_path):
        cfg = SCENARIO_DIR / "funnel_two_features.yaml"
        out = tmp_path / "out"
        assert main(["oracle-check", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "agreement.json").read_text())
        assert summary["agreement"] >= 0.99
        assert summary["n_inside_oracle"] > 0
        lines = (out / "disagreements.csv").read_text().splitlines()
        assert lines[0] == "x,y,oracle,controller"
        assert len(lines) - 1 == summary["n_disagreements"]

    def test_empty_grid_exits_2(self, tmp_path, capsys):
        cfg = small_config(tmp_path, oracle={"grid": {"nx": 0}})
        out = tmp_path / "out"
        assert main(["oracle-check", "--config", str(cfg), "--out", str(out)]) == 2
        assert "grid" in capsys.readouterr().err

    def test_keyframe_out_of_range_exits_2(self, tmp_path, capsys):
        cfg = small_config(tmp_path, oracle={"keyframe": 99, "grid": {"nx": 2, "ny": 2}})
        out = tmp_path / "out"
        assert main(["oracle-check", "--config", str(cfg), "--out", str(out)]) == 2
        assert "keyframe 99" in capsys.readouterr().err


class TestMetricsCommand:
    def test_recomputes_from_traces(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        out = tmp_path / "out"
        main(["repeat", "--config", str(cfg), "--out", str(out)])
        assert main(["metrics", "--config", str(cfg), "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "sloped" in text
        assert "acc" in text

    @pytest.mark.parametrize(
        "cut",
        [
            lambda text: "",
            lambda text: text[: len(text) // 2],
            lambda text: "".join(text.splitlines(keepends=True)[:-1]),
        ],
        ids=["empty", "mid-line", "no-summary"],
    )
    def test_truncated_trace_exits_2(self, tmp_path, capsys, cut):
        cfg = small_config(tmp_path)
        out = tmp_path / "out"
        main(["repeat", "--config", str(cfg), "--out", str(out)])
        run = out / "sloped" / "run_000.jsonl"
        run.write_text(cut(run.read_text()))
        capsys.readouterr()
        assert main(["metrics", "--config", str(cfg), "--out", str(out)]) == 2
        assert "run_000.jsonl" in capsys.readouterr().err

    def test_no_traces_exits_2(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "empty"
        out.mkdir()
        assert main(["metrics", "--config", str(cfg), "--out", str(out)]) == 2

    def test_missing_out_dir_exits_2(self, tmp_path):
        cfg = small_config(tmp_path)
        assert main(["metrics", "--config", str(cfg), "--out", str(tmp_path / "nope")]) == 2
