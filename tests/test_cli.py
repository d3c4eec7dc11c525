"""Command line verbs: scenario loading, artifacts, sweeps, and reports."""

import filecmp
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from iiorbit import cli, plants
from iiorbit.cli import METRIC_KEYS, ScenarioError, _eval_check, load_scenario
from iiorbit.odesim import Trajectory

TINY_LTI = {
    "name": "tiny-lti",
    "bundle": {"preset": "lti-identity"},
    "x0": [1.0, 0.0, 0.1, -1.0],
    "t_span": [0.0, 2.0],
    "integrator": {"method": "fixed", "dt": 0.001},
    "outputs": [
        "trajectory_csv",
        "metrics_csv",
        {"phase_plot": [0, 1]},
        {"timeseries_plot": [0, "z"]},
    ],
    "checks": [
        {"metric": "aborted", "equals": False},
        {"metric": "u_abs_max", "max": 10.0},
    ],
}


def write_scenario(tmp_path: Path, doc: dict, filename: str = "scn.yaml") -> Path:
    path = tmp_path / filename
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return path


def scenario_text(**changes) -> str:
    """TINY_LTI with some keys replaced, as YAML."""
    return yaml.safe_dump(dict(TINY_LTI, **changes))


SWEEP_X0 = {"parameter": "x0[0]", "values": [1.0, 2.0]}


@pytest.mark.parametrize(
    "verb,content",
    [
        ("validate", ["--set", "k=abc"]),
        ("validate", ["--grid-size", "0"]),
        ("run", ""),
        ("run", "- 1.0\n- 2.0\n"),
        ("run", scenario_text(integrator={"method": "fixed", "dt": "abc"})),
        ("run", scenario_text(integrator={"method": "fixed", "dt": -1})),
        ("run", scenario_text(integrator={"method": "adaptive", "rtol": 0.0})),
        ("run", scenario_text(t_span=[1.0, 0.0])),
        ("sweep", scenario_text(sweep=dict(SWEEP_X0, values=3))),
        ("sweep", scenario_text(sweep=dict(SWEEP_X0, values=[]))),
        ("sweep", scenario_text(sweep=SWEEP_X0, integrator={"method": "fixed", "dt": "abc"})),
        ("sweep", scenario_text(sweep=SWEEP_X0, t_span=[1.0, 0.0])),
    ],
    ids=[
        "validate-non-numeric-set",
        "validate-zero-grid-size",
        "run-empty-file",
        "run-non-mapping",
        "run-non-numeric-dt",
        "run-negative-dt",
        "run-non-positive-rtol",
        "run-reversed-t-span",
        "sweep-scalar-values",
        "sweep-empty-values",
        "sweep-non-numeric-dt",
        "sweep-reversed-t-span",
    ],
)
def test_malformed_input_exits_2_without_traceback(tmp_path, verb, content):
    if verb == "validate":
        argv = ["validate", "iwp-default", *content]
    else:
        path = tmp_path / "bad.yaml"
        path.write_text(content, encoding="utf-8")
        argv = [verb, str(path), "--out", str(tmp_path / "out")]
    # a fresh interpreter, so an uncaught exception shows up as a traceback
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "iiorbit.cli", *argv], capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_control_history_is_nan_outside_the_cone():
    # the link angle sweeps across the cone edge; u holds v's exact value on
    # the rows inside and NaN on the rows outside
    bundle = plants.make_preset("cartpend-lin-default")
    beta_star = bundle.info["beta_star"]
    rng = np.random.default_rng(4)
    states = rng.uniform(-1.0, 1.0, size=(200, 6))
    states[:, 0] = np.linspace(beta_star - 0.2, beta_star + 0.2, 200)
    u = cli._control_history(bundle, Trajectory(np.arange(200.0), states))
    inside = states[:, 0] < beta_star
    assert 0 < inside.sum() < 200
    assert np.isnan(u[~inside]).all()
    for row, value in zip(states[inside], u[inside, 0]):
        x, z = tuple(row[:4].tolist()), tuple(row[4:].tolist())
        assert value == bundle.controller.v(x, z)[0]


class TestLoadScenario:
    def test_by_shipped_name(self):
        scn = load_scenario("iwp-lift")
        assert scn.bundle["preset"] == "iwp-default"
        assert len(scn.x0) == 4

    def test_by_path(self, tmp_path):
        path = write_scenario(tmp_path, TINY_LTI)
        scn = load_scenario(str(path))
        assert scn.name == "tiny-lti"
        assert scn.t_span == (0.0, 2.0)

    def test_unknown_name_lists_shipped(self):
        with pytest.raises(ScenarioError, match="iwp-lift"):
            load_scenario("no-such-scenario")

    def test_missing_required_key(self, tmp_path):
        doc = dict(TINY_LTI)
        del doc["x0"]
        path = write_scenario(tmp_path, doc)
        with pytest.raises(ScenarioError, match="bad scenario"):
            load_scenario(str(path))

    def test_all_shipped_scenarios_parse(self):
        names = cli.shipped_scenarios()
        assert len(names) == 11
        for name in names:
            scn = load_scenario(name)
            assert scn.t_span[1] > scn.t_span[0]


class TestValidateCommand:
    def test_preset_passes(self, capsys):
        rc = cli.main(["validate", "iwp-default", "--grid-size", "50"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.strip().endswith("status: pass")

    def test_constraint_violation_exits_1(self, capsys):
        rc = cli.main(["validate", "iwp-default", "--set", "k=-0.05"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "k must satisfy" in err

    def test_unknown_target_exits_2(self):
        assert cli.main(["validate", "no-such-bundle"]) == 2

    def test_scenario_target(self, tmp_path):
        path = write_scenario(tmp_path, TINY_LTI)
        assert cli.main(["validate", str(path), "--grid-size", "50"]) == 0


class TestRunCommand:
    def test_artifact_layout(self, tmp_path, capsys):
        path = write_scenario(tmp_path, TINY_LTI)
        rc = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
        assert rc == 0
        outdir = tmp_path / "out" / "tiny-lti"
        assert (outdir / "trajectory.csv").is_file()
        assert (outdir / "metrics.csv").is_file()
        assert list(outdir.glob("*.svg")), "expected at least one plot"
        first = (outdir / "scenario.yaml").read_text().splitlines()[0]
        assert first.startswith("# sha256: ") and len(first) == len("# sha256: ") + 64

        header = (outdir / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,x1,x2,x3,x4,z1,z2,u1,u2"

        keys = [
            line.split(",")[0]
            for line in (outdir / "metrics.csv").read_text().splitlines()[1:]
        ]
        assert tuple(keys) == METRIC_KEYS

        printed = capsys.readouterr().out
        assert "period_est" in printed and str(outdir) in printed

    def test_runs_are_byte_deterministic(self, tmp_path):
        path = write_scenario(tmp_path, TINY_LTI)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["run", str(path), "--out", str(tmp_path / "b")]) == 0
        for fname in ("trajectory.csv", "metrics.csv"):
            assert filecmp.cmp(
                tmp_path / "a" / "tiny-lti" / fname,
                tmp_path / "b" / "tiny-lti" / fname,
                shallow=False,
            ), f"{fname} differs between identical runs"

    def test_out_root_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("IIORBIT_OUT", str(tmp_path / "env-out"))
        path = write_scenario(tmp_path, TINY_LTI)
        assert cli.main(["run", str(path)]) == 0
        assert (tmp_path / "env-out" / "tiny-lti" / "metrics.csv").is_file()

    def test_unknown_scenario_exits_2(self):
        assert cli.main(["run", "no-such-scenario"]) == 2

    def test_wrong_x0_length_exits_2(self, tmp_path, capsys):
        doc = dict(TINY_LTI)
        doc["x0"] = [1.0, 0.0, 0.1]
        path = write_scenario(tmp_path, doc)
        rc = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "x0 has 3 entries" in capsys.readouterr().err

    def test_constraint_violation_exits_1(self, tmp_path):
        doc = dict(TINY_LTI)
        doc["bundle"] = {
            "kind": "iwp",
            "params": {"m": 1.962, "b": 10.0, "k": -0.05, "gamma1": 2.0, "gamma2": 1.0},
        }
        path = write_scenario(tmp_path, doc)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 1


class TestSweepCommand:
    SWEEP_DOC = {
        "name": "tiny-sweep",
        "bundle": {"preset": "iwp-default"},
        "x0": [2.356194490192345, 1.0471975511965976, 0.0, 0.0],
        "t_span": [0.0, 20.0],
        "integrator": {"method": "fixed", "dt": 0.001},
        "sweep": {"parameter": "k", "values": [-1.4, -2.0]},
    }

    def test_comparison_table(self, tmp_path, capsys):
        path = write_scenario(tmp_path, self.SWEEP_DOC)
        rc = cli.main(["sweep", str(path), "--out", str(tmp_path / "out")])
        assert rc == 0
        root = tmp_path / "out" / "tiny-sweep"
        assert (root / "value-0" / "metrics.csv").is_file()
        assert (root / "value-1" / "metrics.csv").is_file()
        lines = (root / "comparison.csv").read_text().splitlines()
        assert lines[0] == "value,period_est,amplitude,decay_rate"
        assert len(lines) == 3
        assert lines[1].startswith("-1.4,")
        assert lines[2].startswith("-2.0,")

    def test_invalid_value_stops_before_any_run(self, tmp_path, capsys):
        doc = dict(self.SWEEP_DOC)
        doc["sweep"] = {"parameter": "k", "values": [-1.4, -0.05]}
        path = write_scenario(tmp_path, doc)
        rc = cli.main(["sweep", str(path), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "k must satisfy" in capsys.readouterr().err
        assert not (tmp_path / "out" / "tiny-sweep").exists()

    def test_inadmissible_x0_value_stops_before_any_run(self, tmp_path, capsys):
        doc = {
            "name": "cone-sweep",
            "bundle": {"preset": "cartpend-lin-default"},
            "x0": [0.3, 0.0, 0.0, 0.0],
            "t_span": [0.0, 5.0],
            "integrator": {"method": "fixed", "dt": 0.001},
            # 1.5 rad sits outside the admissible cone (half width ~1.318)
            "sweep": {"parameter": "x0[0]", "values": [0.3, 1.5]},
        }
        path = write_scenario(tmp_path, doc)
        rc = cli.main(["sweep", str(path), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "outside the admissible set" in capsys.readouterr().err
        assert not (tmp_path / "out" / "cone-sweep").exists()

    def test_amplitude_does_not_depend_on_outputs(self, tmp_path):
        doc = dict(self.SWEEP_DOC, t_span=[0.0, 5.0])
        amplitudes = []
        for outputs in (["metrics_csv"], ["trajectory_csv", "metrics_csv"]):
            out = tmp_path / "-".join(outputs)
            path = write_scenario(tmp_path, dict(doc, outputs=outputs))
            assert cli.main(["sweep", str(path), "--out", str(out)]) == 0
            lines = (out / "tiny-sweep" / "comparison.csv").read_text().splitlines()
            amplitudes.append([line.split(",")[2] for line in lines[1:]])
        assert all(amplitudes[0]), amplitudes
        assert amplitudes[0] == amplitudes[1]

    def test_unknown_integrator_stops_before_any_run(self, tmp_path, capsys):
        doc = dict(self.SWEEP_DOC, integrator={"method": "euler", "dt": 0.001})
        path = write_scenario(tmp_path, doc)
        rc = cli.main(["sweep", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "unknown integrator method 'euler'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_x0_index_out_of_range_stops_before_any_run(self, tmp_path, capsys):
        doc = dict(self.SWEEP_DOC, sweep={"parameter": "x0[9]", "values": [0.1, 0.2]})
        path = write_scenario(tmp_path, doc)
        rc = cli.main(["sweep", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "x0[9]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_scenario_without_sweep_exits_2(self, tmp_path):
        path = write_scenario(tmp_path, TINY_LTI)
        assert cli.main(["sweep", str(path), "--out", str(tmp_path / "out")]) == 2


class TestReportCommand:
    def run_tiny(self, tmp_path, checks, name="tiny-lti"):
        doc = dict(TINY_LTI)
        doc["name"] = name
        doc["checks"] = checks
        path = write_scenario(tmp_path, doc, filename=f"{name}.yaml")
        assert cli.main(["run", str(path), "--out", str(tmp_path / "tree")]) == 0

    def test_passing_tree_exits_0(self, tmp_path, capsys):
        self.run_tiny(tmp_path, [{"metric": "aborted", "equals": False}])
        rc = cli.main(["report", str(tmp_path / "tree")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "pass" in out
        assert (tmp_path / "tree" / "report.csv").is_file()

    def test_failing_check_exits_1(self, tmp_path, capsys):
        self.run_tiny(tmp_path, [{"metric": "u_abs_max", "max": 1e-12}], name="doomed")
        rc = cli.main(["report", str(tmp_path / "tree")])
        out = capsys.readouterr().out
        assert rc == 1
        assert "fail" in out
        report = (tmp_path / "tree" / "report.csv").read_text()
        assert "doomed,u_abs_max,fail" in report

    def test_checkless_artifacts_are_skipped(self, tmp_path, capsys):
        self.run_tiny(tmp_path, [], name="silent")
        rc = cli.main(["report", str(tmp_path / "tree")])
        out = capsys.readouterr().out
        # nothing evaluated -> failure exit so CI cannot silently pass
        assert rc == 1
        assert "skipped" in out

    def test_empty_directory_exits_1(self, tmp_path, capsys):
        rc = cli.main(["report", str(tmp_path)])
        assert rc == 1
        assert "nothing to evaluate" in capsys.readouterr().out


    def test_unreadable_artifact_is_an_error_row(self, tmp_path, capsys):
        self.run_tiny(tmp_path, [{"metric": "aborted", "equals": False}])
        broken = tmp_path / "tree" / "broken"
        broken.mkdir()
        (broken / "metrics.csv").write_text("key,value\naborted,false\n")
        (broken / "scenario.yaml").write_text("checks: [unclosed\nname: x\n")
        rc = cli.main(["report", str(tmp_path / "tree")])
        assert rc == 1
        rows = (tmp_path / "tree" / "report.csv").read_text().splitlines()
        assert any(
            row.startswith(f"{broken},-,error,while parsing a flow sequence") for row in rows
        ), rows
        assert f"{tmp_path / 'tree' / 'tiny-lti'},aborted,pass,value=false" in rows


class TestEvalCheck:
    METRICS = {"u_abs_max": 0.5, "aborted": False, "period_est": None}

    def test_comparisons(self):
        assert _eval_check({"metric": "u_abs_max", "max": 1.0}, self.METRICS)[0] == "pass"
        assert _eval_check({"metric": "u_abs_max", "max": 0.1}, self.METRICS)[0] == "fail"
        assert _eval_check({"metric": "u_abs_max", "min": 0.1}, self.METRICS)[0] == "pass"
        assert _eval_check({"metric": "u_abs_max", "abs_max": 0.4}, self.METRICS)[0] == "fail"
        assert _eval_check({"metric": "u_abs_max", "within": [0.45, 0.1]}, self.METRICS)[0] == "pass"
        assert _eval_check({"metric": "aborted", "equals": False}, self.METRICS)[0] == "pass"
        assert _eval_check({"metric": "aborted", "equals": True}, self.METRICS)[0] == "fail"

    def test_skip_paths(self):
        assert _eval_check({"metric": "bogus", "max": 1.0}, self.METRICS)[0] == "skipped"
        assert _eval_check({"metric": "period_est", "max": 1.0}, self.METRICS)[0] == "skipped"
        assert _eval_check({"metric": "u_abs_max"}, self.METRICS)[0] == "skipped"


class TestListPresets:
    def test_lists_everything(self, capsys):
        assert cli.main(["list-presets"]) == 0
        out = capsys.readouterr().out
        for name in ("lti-identity", "iwp-default", "cartpend-lin-default",
                     "cartpend-nl-default", "dcac-default"):
            assert name in out
        assert "iwp-lift" in out
