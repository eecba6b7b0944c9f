"""Command-line interface tests: subcommands, exit codes, output artifacts."""

import copy
import json
import math
import time

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from funnelnav import cli
from funnelnav.cli import main
from funnelnav.evaluate import MAX_DEPTH, controller_inside_grid, load_scenario, report
from funnelnav.navigate import RunTrace, read_run
from funnelnav.teach import record

from conftest import SCENARIO_DIR, nest

LINE = {"x0": 0.5, "y0": -2.0, "x1": 12.0, "y1": -2.0, "n": 12}
TEACH = {"steps": [{"v": 0.5, "omega": 0.0, "duration": 6.0}]}
BOUNDS = [-5, -5, 20, 5]


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
        "teach": TEACH,
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


# an output that a command writes under --force, with something else in its place
OUTPUT_IN_THE_WAY = {
    "repeat-sub-is-a-file": ("repeat", "sloped"),
    "repeat-trace-is-a-directory": ("repeat", "sloped/run_000.jsonl"),
    "teach-path-is-a-directory": ("teach", "visual_path.json"),
    "oracle-meta-is-a-directory": ("oracle-check", "meta.json"),
    "oracle-csv-is-a-directory": ("oracle-check", "disagreements.csv"),
}


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
            ({"noise": {"seed": 7}}, "noise: unknown key 'seed'"),
            ({"navigator": {"sloped": {"v_max": 0.5, "omega_max": 0.5}}}, "'sloped'"),
            ({"world": {"bounds": [-5, -5, 20, 5], "generated": [{"line": {**LINE, "m": 3}}]}},
             "'m'"),
            ({"world": {"bounds": [-5, -5, 20, 5], "generated": [{"line": LINE, "ring": {}}]}},
             "'line', 'ring'"),
            ({"navigator": {"max_ticks": 1.5}}, "max_ticks"),
            ({"navigator": {"max_ticks": True}}, "navigator.max_ticks"),
            ({"navigator": {"threshold2_features": 2.5}}, "navigator.threshold2_features"),
            ({"navigator": {"threshold3_time": 0.5}},
             "navigator: unknown key 'threshold3_time'"),
            ({"repeat": {"runs": 2.7}}, "repeat.runs"),
            ({"repeat": {"runs": "2"}}, "repeat.runs"),
            ({"repeat": {"seed": 1.5}}, "repeat.seed"),
            ({"repeat": {"seed": True}}, "repeat.seed"),
            ({"repeat": {"remove_landmarks": [999]}}, "repeat.remove_landmarks"),
            ({"teach": {**TEACH, "min_features": 2.9}}, "teach.min_features"),
            ({"teach": {**TEACH, "steps": [{"v": 0.5, "omega": 0.0, "duration": 1e308}]}},
             "duration / DT"),
            ({"teach": {**TEACH, "dt": 1e-320}}, "teach: unknown key 'dt'"),
            ({"oracle": {"keyframe": -1.5}}, "oracle.keyframe"),
            ({"oracle": {"grid": {"nx": 2.5}}}, "oracle.grid.nx"),
            ({"world": {"bounds": BOUNDS, "landmarks": [[1.5, 1.0, 2.0]]}}, "world.landmarks"),
            ({"world": {"bounds": BOUNDS, "generated": [{"line": {**LINE, "n": 12.5}}]}},
             "world.generated.line.n"),
            ({"teach": {**TEACH, "start": [0, 0]}}, "teach: unknown key 'start'"),
            ({"repeat": {"start": [0.0, 0.0, 0.0, 0.0]}}, "repeat.start"),
            ({"world": {"bounds": BOUNDS, "landmarks": [[1, 0.0]]}}, "world.landmarks"),
            ({"teach": {**TEACH, "steps": [{"v": 0.5, "omega": 0.0}]}},
             "teach.steps: missing required key 'duration'"),
            ({"world": {"bounds": BOUNDS, "generated": [{"line": {"x0": 0.5, "y0": -2.0,
                                                                  "x1": 12.0, "n": 12}}]}},
             "world.generated.line: missing required key 'y1'"),
            ({"teach": {**TEACH, "steps": 5}}, "teach.steps: must be a list, not int 5"),
            ({"repeat": {"remove_landmarks": 5}},
             "repeat.remove_landmarks: must be a list, not int 5"),
            ({"navigator": {"controller": "standard"}}, "navigator: unknown key 'controller'"),
            ({"world": {"bounds": [20, 5, -5, -5], "generated": [{"line": LINE}]}},
             "world.bounds: must have xmin <= xmax"),
            ({"repeat": {"tolerance": -1.0}}, "tolerance must be non-negative, got -1.0"),
            ({"navigator": {"threshold1_ed": 0}}, "threshold1_ed must be positive and finite"),
            ({"camera": {"half_width": -1.0}}, "half_width must be positive and finite, not -1.0"),
            ({"controllers": {"sloped": {"v_max": 0.5, "omega_max": 0.0}}},
             "omega_max must be positive and finite, not 0.0"),
            ({"controllers": {"sloped": {"v_max": 0.5, "omega_max": 0.5, "norm_floor": 0.0}}},
             "controllers.sloped: unknown key 'norm_floor'"),
            ({"controllers": {"sloped": {"v_max": 0.5, "omega_max": 0.5, "sx_epsilon": 0.1}}},
             "controllers.sloped: unknown key 'sx_epsilon'"),
            ({"world": {"bounds": BOUNDS, "generated": [
                {"grid": {"x0": 0, "x1": 2, "nx": 3, "y0": 0, "y1": 1, "ny": 2}}]}},
             "world.generated: unknown key 'grid'"),
            ({"oracle": {"grid": {"x0": -1e308, "x1": 1e308, "nx": 3, "ny": 3}}},
             "oracle.grid: grid bounds and their spans"),
            ({"controllers": {"sloped": {"omega_max": 0.9}}},
             "controllers.sloped: missing required key 'v_max'"),
            ({"controllers": {"standard": {"v0": 0.5}}},
             "controllers.standard: missing required key 'omega0'"),
            ({"teach": {**TEACH, "steps": [{"v": -0.5, "omega": 0.0, "duration": 1.0}]}},
             "teach.steps: translational speed must be non-negative"),
            ({"oracle": {"grid": {"nx": 0}}}, "oracle.grid.nx: must be at least 1, not 0"),
            ({"oracle": {"grid": {"nx": 1_000_000, "ny": 1_000_000}}},
             "oracle.grid: a grid has at most 1000000 poses"),
            ({"repeat": {"runs": 1_000_000_000}},
             "repeat: repeat.runs * navigator.max_ticks is at most 1000000, "
             "not 1000000000 * 5000"),
            ({"navigator": {"max_ticks": 10**12}},
             "repeat: repeat.runs * navigator.max_ticks is at most 1000000, "
             "not 2 * 1000000000000"),
        ],
        ids=["repeat-list", "controllers-list", "misspelled-navigator", "noise-seed",
             "navigator-sloped", "generator-unknown-key", "two-generators", "max-ticks-1.5",
             "max-ticks-bool", "threshold2-2.5", "threshold3-0.5", "runs-2.7", "runs-string",
             "seed-1.5", "seed-bool", "remove-unknown-id", "min-features-2.9",
             "teach-frames-overflow-duration", "teach-frames-overflow-dt",
             "keyframe-minus-1.5", "grid-nx-2.5", "landmark-id-1.5", "line-n-12.5",
             "teach-start-2-entries", "repeat-start-4-entries", "landmark-2-entries",
             "step-without-duration", "line-without-y1", "steps-int", "remove-landmarks-int",
             "navigator-controller", "swapped-bounds", "negative-tolerance", "threshold1-zero",
             "half-width-negative", "omega-max-zero", "norm-floor-zero", "sx-epsilon",
             "grid-generator", "grid-span-overflow",
             "sloped-without-v-max", "standard-without-omega0", "step-v-negative",
             "grid-nx-0", "grid-over-pose-cap", "runs-over-run-tick-cap",
             "max-ticks-over-run-tick-cap"],
    )
    def test_malformed_section_exits_2(self, tmp_path, capsys, overrides, named):
        cfg = small_config(tmp_path, **overrides)
        out = tmp_path / "out"
        assert main(["repeat", "--config", str(cfg), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err

    def test_landmark_count_over_cap_exits_2_at_once(self, tmp_path, capsys):
        # the cap is checked before the generator builds a landmark
        cfg = small_config(tmp_path, world={"bounds": BOUNDS,
                                            "generated": [{"line": {**LINE, "n": 10**9}}]})
        start = time.process_time()
        assert main(["teach", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert time.process_time() - start < 1.0
        assert "world.generated.line.n: a world has at most" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "anchor, key",
        [("name: cli_unit\n", "name"), ("  runs: 2\n", "runs"), ("    omega: 0.0\n", "omega")],
        ids=["top-level", "repeat-block", "teach-step-entry"],
    )
    def test_repeated_key_exits_2_naming_it_and_its_line(self, tmp_path, capsys, anchor, key):
        cfg = small_config(tmp_path)
        text = cfg.read_text()
        assert text.count(anchor) == 1
        head = text[: text.index(anchor) + len(anchor)]
        cfg.write_text(head + anchor + text[len(head):])  # the key again, on the next line
        assert main(["teach", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        line = head.count("\n") + 1
        assert f"{cfg}: YAML parse error at line {line}: duplicate key '{key}'" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize(
        "text, line, problem",
        [("name: a\nname: b\n", 2, "duplicate key 'name'"), ("name: a\nworld: [1, 2\n", 3, "")],
        ids=["duplicate-key", "unclosed-flow-sequence"],
    )
    def test_yaml_error_is_one_line_naming_the_file(self, tmp_path, capsys, text, line, problem):
        # PyYAML's own message adds a line naming "<unicode string>", not the file
        cfg = tmp_path / "scenario.yaml"
        cfg.write_text(text)
        assert main(["teach", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "<unicode string>" not in err
        assert err.startswith(f"config error: {cfg}: YAML parse error at line {line}: {problem}")

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

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("teach", ["--seed", "1"]),
            ("compare", ["--controller", "sloped"]),
            ("oracle-check", ["--controller", "sloped"]),
            ("metrics", ["--force"]),
        ],
    )
    def test_flag_the_subcommand_does_not_read_exits_2(self, tmp_path, command, flag):
        cfg = small_config(tmp_path)
        with pytest.raises(SystemExit) as e:
            main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), *flag])
        assert e.value.code == 2

    @pytest.mark.parametrize(
        "case",
        ["config-missing", "config-is-a-directory", "config-not-utf8", "config-nested-too-deep",
         "config-nested-100000-deep", "config-block-nested-past-max-depth", "out-is-a-file",
         "trace-is-a-directory", "trace-nested-too-deep", *OUTPUT_IN_THE_WAY],
    )
    def test_unreadable_path_exits_2(self, tmp_path, capsys, case):
        cfg = small_config(tmp_path)
        out = tmp_path / "out"
        command, named, force = "teach", cfg, []
        if case == "config-missing":
            cfg = named = tmp_path / "missing.yaml"
        elif case == "config-is-a-directory":
            cfg = named = tmp_path
        elif case == "config-not-utf8":
            cfg.write_bytes(b"name: caf\xe9\n")
        elif case == "config-nested-too-deep":
            cfg.write_text("name: " + "[" * 3000 + "]" * 3000 + "\n")
        elif case == "config-nested-100000-deep":
            cfg.write_text("name: " + "[" * 100_000 + "]" * 100_000 + "\n")
        elif case == "config-block-nested-past-max-depth":
            cfg.write_text(nest(MAX_DEPTH + 1, block=True))
        elif case == "out-is-a-file":
            out.write_text("x")
            named = out
        elif case.startswith("trace-"):
            trace = out / "sloped" / "run_000.jsonl"
            if case == "trace-is-a-directory":
                trace.mkdir(parents=True)
            else:
                trace.parent.mkdir(parents=True)
                trace.write_text("[" * 100_000 + "]" * 100_000 + "\n")
            command, named = "metrics", "run_000.jsonl"
        else:
            command, rel = OUTPUT_IN_THE_WAY[case]
            force, named = ["--force"], out / rel
            named.parent.mkdir(parents=True, exist_ok=True)
            if case.endswith("is-a-file"):
                named.write_text("x")
            else:
                named.mkdir()
        assert main([command, "--config", str(cfg), "--out", str(out), *force]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(named) in err

    def test_alias_nest_exits_2_with_a_short_message(self, tmp_path, capsys):
        # seven levels of ten aliases: about 1 KB of file, and a value whose
        # full repr is 33 MB
        nested = "&a0 [" + ", ".join(["1"] * 10) + "]"
        for k in range(1, 8):
            nested = f"&a{k} [{nested}" + f", *a{k - 1}" * 9 + "]"
        cfg = small_config(tmp_path)
        text = cfg.read_text()
        assert text.count("runs: 2\n") == 1
        cfg.write_text(text.replace("runs: 2\n", f"runs: {nested}\n"))
        assert len(cfg.read_bytes()) < 1500
        t0 = time.perf_counter()
        assert main(["teach", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert "config error" in err and "repeat.runs" in err
        assert len(err.encode()) < 1000

    @pytest.mark.parametrize("value", ["1" * 5000, "2020-13-45"], ids=["int-5000-digits", "date"])
    def test_value_python_refuses_exits_2(self, tmp_path, capsys, value):
        # an int past Python's 4300-digit limit and an impossible date raise
        # ValueError while YAML builds the document
        cfg = tmp_path / "scenario.yaml"
        cfg.write_text(f"name: {value}\n")
        assert main(["teach", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(cfg) in err

    def test_empty_landmark_world_oracle_check_exits_3(self, tmp_path):
        cfg = small_config(tmp_path, world={"bounds": [-5, -5, 20, 5], "landmarks": []})
        out = tmp_path / "out"
        assert main(["oracle-check", "--config", str(cfg), "--out", str(out)]) == 3


def contract_base() -> dict:
    """funnel_two_features plus one generator of each kind, an obstacle and a camera."""
    d = yaml.safe_load((SCENARIO_DIR / "funnel_two_features.yaml").read_text())
    d["world"]["generated"] = [
        {"line": {"x0": 7.0, "y0": 3.0, "x1": 7.5, "y1": 3.0, "n": 2}},
        {"ring": {"cx": 7.0, "cy": -3.0, "radius": 0.5, "n": 3, "phase": 0.1}},
    ]
    d["world"]["obstacles"] = [[3.0, 2.5, 3.5, 3.0]]  # beside the taught path
    d["camera"] = {"focal_length": 277.0, "half_width": 160.0, "min_depth": 0.1}
    return d


def leaves(node, prefix=()):
    """The path of every dict value and list element, at any depth."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from leaves(value, prefix + (key,))


CONTRACT_BASE = contract_base()


def replaced(leaf, value) -> dict:
    """A deep copy of CONTRACT_BASE with the value at leaf replaced."""
    d = copy.deepcopy(CONTRACT_BASE)
    node = d
    for key in leaf[:-1]:
        node = node[key]
    node[leaf[-1]] = value
    return d


# sampled, not arbitrary floats: a step duration may still ask for up to
# 100,000 teach frames, too slow for one example
ODD_VALUES = [None, True, -1, 0, 1, 2, 1.5, -0.5, math.nan, math.inf, "x", [], {}, [1, 2, 3]]


class TestExitCodeContract:
    @settings(max_examples=150, deadline=None)
    @given(leaf=st.sampled_from(list(leaves(CONTRACT_BASE))), value=st.sampled_from(ODD_VALUES))
    @example(leaf=("repeat", "runs"), value=math.inf)  # int() overflow
    @example(leaf=("repeat", "start", 0), value="x")  # non-numeric start
    @example(leaf=("teach", "steps", 0, "duration"), value=math.nan)  # round() of NaN
    @example(leaf=("teach", "steps", 0, "duration"), value=1e300)  # finite, too many frames
    @example(leaf=("navigator", "max_ticks"), value=1.5)  # range() of a float
    @example(leaf=("world", "obstacles", 0), value=[1, 2, 3])  # unpacked on each tick
    def test_one_replaced_leaf_exits_0_2_3_or_4(self, tmp_path_factory, leaf, value):
        tmp = tmp_path_factory.mktemp("leaf")
        cfg = tmp / "scenario.yaml"
        cfg.write_text(yaml.safe_dump(replaced(leaf, value)))
        assert main(["repeat", "--config", str(cfg), "--out", str(tmp / "out")]) in (0, 2, 3, 4)


def leaf_value(leaf):
    node = CONTRACT_BASE
    for key in leaf:
        node = node[key]
    return node


# every number in the file, of which none is a bool
NUMERIC_LEAVES = [leaf for leaf in leaves(CONTRACT_BASE) if type(leaf_value(leaf)) in (int, float)]
# the numbers that the simulator fixes (geometry.DT, navigate.STOP_LIMIT and
# teach.START): a file that sets one names it as an unknown key, whatever its value
REMOVED_LEAVES = [("teach", "dt"), *(("teach", "start", i) for i in range(3)),
                  ("navigator", "dt"), ("navigator", "threshold3_time")]
NUMBER_KEYS = [*NUMERIC_LEAVES, *REMOVED_LEAVES]


def assert_exits_2_naming_key(tmp_path, capsys, leaf, value):
    """A scenario with value at leaf exits 2 with an error that names the key."""
    if leaf in REMOVED_LEAVES:
        d = copy.deepcopy(CONTRACT_BASE)
        block, key, *index = leaf
        d[block][key] = [value if [i] == index else 0.0 for i in range(3)] if index else value
        named = f"{block}: unknown key {key!r}"
    else:
        d = replaced(leaf, value)
        # the key's name is its path of mapping keys: list indices are not part of it
        named = ".".join(k for k in leaf if isinstance(k, str))
    cfg = tmp_path / "scenario.yaml"
    cfg.write_text(yaml.safe_dump(d))
    assert main(["repeat", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and named in err


# a number key refuses a bool (YAML's true is 1 to Python), NaN (every range
# check is false for it) and a quoted number (float() would parse it)
by_key = pytest.mark.parametrize("leaf", NUMBER_KEYS, ids=lambda leaf: ".".join(map(str, leaf)))


@by_key
def test_bool_value_exits_2(tmp_path, capsys, leaf):
    assert_exits_2_naming_key(tmp_path, capsys, leaf, True)


@by_key
def test_nan_value_exits_2(tmp_path, capsys, leaf):
    assert_exits_2_naming_key(tmp_path, capsys, leaf, math.nan)


@by_key
def test_quoted_number_exits_2(tmp_path, capsys, leaf):
    quoted = str(leaf_value(leaf)) if leaf in NUMERIC_LEAVES else "1"
    assert_exits_2_naming_key(tmp_path, capsys, leaf, quoted)


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
        assert meta["seed_override"] is None

    def test_compare_writes_both_controllers(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "out"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        for sub in ("standard", "sloped"):
            assert (out / sub / "metrics.json").exists()
            assert len(list((out / sub).glob("run_*.jsonl"))) == 2
        meta = json.loads((out / "meta.json").read_text())
        assert meta["controller_override"] is None

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

    def test_disagreement_row_names_its_grid_cell(self, tmp_path, monkeypatch):
        grid = {"x0": 0.0, "x1": 2.9, "nx": 7, "y0": -0.6, "y1": 0.6, "ny": 5}
        cfg = small_config(tmp_path, oracle={"grid": grid})
        flipped = []

        def one_cell_flipped(kf, world, cam, g):
            verdicts = controller_inside_grid(kf, world, cam, g)
            i = verdicts.index(True)  # the controller agrees with the oracle here
            flipped.append(i)
            return verdicts[:i] + [False] + verdicts[i + 1:]

        monkeypatch.setattr(cli, "controller_inside_grid", one_cell_flipped)
        out = tmp_path / "out"
        assert main(["oracle-check", "--config", str(cfg), "--out", str(out)]) == 0
        (i,) = flipped
        x = float(np.linspace(grid["x0"], grid["x1"], grid["nx"])[i % grid["nx"]])
        y = float(np.linspace(grid["y0"], grid["y1"], grid["ny"])[i // grid["nx"]])
        lines = (out / "disagreements.csv").read_text().splitlines()
        assert lines == ["x,y,oracle,controller", f"{x!r},{y!r},1,0"]
        assert json.loads((out / "agreement.json").read_text())["n_disagreements"] == 1

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


def rewrite_text(edit):
    """A trace cut that replaces the file's text with edit(text)."""
    return lambda run: run.write_text(edit(run.read_text()))


def rewrite_records(edit):
    """A trace cut that writes edit(records) back through RunTrace.write with the
    same seed, so the summary agrees with the records that are left."""
    def cut(run):
        trace = read_run(run)
        RunTrace(edit(trace.records), trace.seed).write(run)
    return cut


class TestMetricsCommand:
    def test_recomputes_from_traces(self, tmp_path, capsys):
        # metrics.json and the printed rows, from the runs just made and from
        # the same runs read back, are one and the same
        cfg = small_config(tmp_path)
        out = tmp_path / "out"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]  # past the two header lines
        scn = load_scenario(cfg)
        path = record(scn.world, scn.camera, scn.script, scn.min_teach_features)
        for controller in ("standard", "sloped"):
            sub = out / controller
            traces = [read_run(f) for f in sorted(sub.glob("run_*.jsonl"))]
            written = json.loads((sub / "metrics.json").read_text())
            assert report(scn, controller, path, traces).metrics == written
        assert main(["metrics", "--config", str(cfg), "--out", str(out)]) == 0
        # metrics walks the controller directories in name order
        assert capsys.readouterr().out.splitlines() == sorted(rows, key=lambda r: r.split()[0])

    def test_force_replaces_the_run_traces(self, tmp_path, capsys):
        out = tmp_path / "out"
        for runs, force in ((4, []), (1, ["--force"])):
            cfg = small_config(tmp_path, repeat={"start": [0.0, 0.0, 0.0], "runs": runs})
            assert main(["repeat", "--config", str(cfg), "--out", str(out), *force]) == 0
        assert [f.name for f in (out / "sloped").glob("run_*.jsonl")] == ["run_000.jsonl"]
        row = capsys.readouterr().out.splitlines()[-1]
        assert main(["metrics", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines() == [row]

    @pytest.mark.parametrize(
        "cut",
        [
            rewrite_text(lambda text: ""),
            rewrite_text(lambda text: text[: len(text) // 2]),
            rewrite_text(lambda text: "".join(text.splitlines(keepends=True)[:-1])),
            rewrite_text(lambda text: text.replace('"outcome": "done"', '"outcome": "lost"')),
            rewrite_records(lambda records: records[:-1]),
            rewrite_records(lambda records: ({**records[0], "event": "done"}, *records[1:])),
            rewrite_records(lambda records: (*records[:-1], {**records[-1], "theta": "abc"})),
            rewrite_records(lambda records: (*records[:-1], {**records[-1], "x": None})),
            rewrite_records(lambda records: (*records[:-1], {**records[-1], "x": True})),
            rewrite_records(lambda records: (*records[:-1], {**records[-1], "theta": math.nan})),
            rewrite_records(lambda records: (*records[:-1], {**records[-1], "y": 10**400})),
        ],
        ids=["empty", "mid-line", "no-summary", "summary-disagrees", "no-terminal-record",
             "early-terminal-record", "theta-string", "x-null", "x-bool", "theta-nan",
             "y-huge-int"],
    )
    def test_truncated_trace_exits_2(self, tmp_path, capsys, cut):
        cfg = small_config(tmp_path)
        out = tmp_path / "out"
        main(["repeat", "--config", str(cfg), "--out", str(out)])
        run = out / "sloped" / "run_000.jsonl"
        text = run.read_text()
        cut(run)
        assert run.read_text() != text
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
