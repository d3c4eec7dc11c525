"""Command line verbs: scenario loading, artifacts, sweeps, and reports."""

import copy
import dataclasses
import filecmp
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from iiorbit import analysis, cli, plants
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
NOT_UTF8 = b"\xff\xfe\x00bad"
# one of each malformed check, paired with its case id
BAD_CHECKS, BAD_CHECK_IDS = zip(
    ({"metric": "u_abs_max", "maxx": 0.001}, "check-misspelled-bound-key"),
    ({"metric": "u_abs_mx", "max": 0.001}, "check-unknown-metric"),
    ({"metric": "u_abs_max", "max": 1.0, "min": 0.0}, "check-two-comparisons"),
    ({"metric": "u_abs_max", "max": "abc"}, "check-non-numeric-bound"),
    ({"metric": "decay_rate", "within": [-1.0]}, "check-within-one-entry"),
    ("u_abs_max <= 0.001", "check-not-a-mapping"),
)
IWP_PARAMS = {"m": 1.962, "b": 10.0, "k": -1.6, "gamma1": 2.0, "gamma2": 1.0}
INLINE_IWP = {"kind": "iwp", "params": IWP_PARAMS}


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
        ("run", scenario_text(bundle={"preset": "nope"})),
        ("run", scenario_text(bundle={"kind": "foo"})),
        ("run", scenario_text(bundle=dict(INLINE_IWP, params=dict(IWP_PARAMS, q=1.0)))),
        ("run", scenario_text(bundle=dict(INLINE_IWP, params=dict(IWP_PARAMS, k="abc")))),
        ("sweep", scenario_text(sweep=SWEEP_X0, bundle={"preset": "nope"})),
        ("run", scenario_text(outputs=["metrics_csv", {"phase_plot": [0, 9]}])),
        ("run", scenario_text(outputs=["metrics_csv", {"phase_plot": [0]}])),
        ("run", scenario_text(outputs=["metrics_csv", {"timeseries_plot": ["q"]}])),
        ("run", scenario_text(outputs="trajectory_csv")),
        ("sweep", scenario_text(sweep=SWEEP_X0, outputs=[{"phase_plot": [0, 9]}])),
        ("sweep", scenario_text(sweep=SWEEP_X0, outputs="trajectory_csv")),
        ("run", scenario_text(x0="1234")),
        ("run", scenario_text(x0=[1.0, 0.0, float("nan"), -1.0])),
        ("run", scenario_text(t_span="12")),
        ("run", scenario_text(t_span=[0.0, 2.0, 9.0])),
        ("run", scenario_text(checks="abc")),
        ("run", scenario_text(name="../escape")),
        ("run", scenario_text(bundle={"preset": "lti-identity", "kind": "lti"})),
        ("run", scenario_text(bundle={"preset": "lti-identity", "overrides": {"zz": 1.0}})),
        ("validate", ["--set", "zz=1"]),
        ("sweep", scenario_text(sweep=dict(SWEEP_X0, parameter="x0[-1]"))),
        ("sweep", scenario_text(sweep={"values": [1.0, 2.0]})),
        ("sweep", scenario_text(sweep=dict(SWEEP_X0, parameter=0))),
        ("sweep", scenario_text(sweep=dict(SWEEP_X0, values=[1.0, float("nan")]))),
        ("sweep", scenario_text(sweep={"parameter": "zz", "values": [1.0]})),
        ("run", scenario_text(bundle={"preset": "iwp-default", "overrides": {"m": True}})),
        ("run", scenario_text(bundle=dict(INLINE_IWP, params=dict(IWP_PARAMS, b=True)))),
        ("validate", ["--seed", "-1"]),
        ("run", NOT_UTF8),
        ("sweep", NOT_UTF8),
        ("validate", NOT_UTF8),
        ("run", scenario_text(name="a\0b")),
        ("sweep", scenario_text(sweep=SWEEP_X0, name="a\0b")),
        ("run", scenario_text(name="n" * 300)),
        ("sweep", scenario_text(sweep=SWEEP_X0, name="n" * 300)),
        ("run", scenario_text(output=["metrics_csv"])),
        ("run", scenario_text(check=[])),
        ("run", scenario_text(bundle={"preset": "lti-identity", "overide": {"gamma1": 3.0}})),
        ("run", scenario_text(bundle={"preset": "lti-identity", "params": {"gamma1": 3.0}})),
        ("run", scenario_text(integrator={"method": "fixed", "dtt": 0.1})),
        ("run", scenario_text(integrator={"method": "adaptive", "dt": 0.01})),
        ("sweep", scenario_text(sweep=dict(SWEEP_X0, valuse=[3.0]))),
        ("run", scenario_text(sweep=dict(SWEEP_X0, valuse=[3.0]))),
        *[
            (verb, scenario_text(sweep=SWEEP_X0, checks=[check]))
            for verb in ("run", "sweep") for check in BAD_CHECKS
        ],
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
        "run-unknown-preset",
        "run-unknown-kind",
        "run-unknown-inline-param",
        "run-non-numeric-inline-param",
        "sweep-unknown-preset",
        "run-phase-plot-column-out-of-range",
        "run-phase-plot-one-column",
        "run-timeseries-plot-unknown-column",
        "run-outputs-string",
        "sweep-phase-plot-column-out-of-range",
        "sweep-outputs-string",
        "run-x0-string",
        "run-x0-nan",
        "run-t-span-string",
        "run-t-span-three-entries",
        "run-checks-string",
        "run-name-escapes-out",
        "run-preset-and-kind",
        "run-unknown-override",
        "validate-unknown-set",
        "sweep-negative-x0-index",
        "sweep-without-parameter",
        "sweep-parameter-not-a-string",
        "sweep-nan-value",
        "sweep-unknown-parameter",
        "run-bool-override",
        "run-bool-inline-param",
        "validate-negative-seed",
        "run-not-utf8",
        "sweep-not-utf8",
        "validate-not-utf8",
        "run-name-with-nul",
        "sweep-name-with-nul",
        "run-name-over-255-bytes",
        "sweep-name-over-255-bytes",
        "run-unknown-top-level-key",
        "run-unknown-top-level-key-check",
        "run-unknown-bundle-key",
        "run-params-beside-preset",
        "run-unknown-fixed-integrator-key",
        "run-dt-for-adaptive-integrator",
        "sweep-unknown-sweep-key",
        "run-unknown-sweep-key",
        *[f"{verb}-{name}" for verb in ("run", "sweep") for name in BAD_CHECK_IDS],
    ],
)
def test_malformed_input_exits_2_without_traceback(tmp_path, verb, content):
    """content is a list of validate flags for the iwp-default preset, or
    the text or bytes of a scenario file."""
    if isinstance(content, list):
        argv = ["validate", "iwp-default", *content]
    else:
        path = tmp_path / "bad.yaml"
        path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
        argv = [verb, str(path)]
        if verb != "validate":
            argv += ["--out", str(tmp_path / "out")]
    # a fresh interpreter, so an uncaught exception shows up as a traceback
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "iiorbit.cli", *argv], capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    # nothing written under out or beside it
    assert [p.name for p in tmp_path.iterdir()] == ([] if isinstance(content, list) else ["bad.yaml"])


FUZZ_BASE = {
    "name": "fuzz",
    "bundle": {"preset": "lti-identity"},
    "x0": [1.0, 0.0, 0.1, -1.0],
    "t_span": [0.0, 0.05],
    "integrator": {"method": "fixed", "dt": 0.01},
    "outputs": ["trajectory_csv", "metrics_csv", {"phase_plot": [0, 1]}],
    "checks": [{"metric": "aborted", "equals": False}],
}
FUZZ_SWEEP = {"parameter": "x0[0]", "values": [1.0, 0.5]}
# where junk goes: a top-level field or one entry inside it
FUZZ_PATHS = [
    ("name",), ("bundle",), ("bundle", "preset"), ("bundle", "overrides"), ("x0",),
    ("x0", 0), ("t_span",), ("t_span", 1), ("integrator",), ("integrator", "method"),
    ("integrator", "dt"), ("outputs",), ("outputs", 2), ("checks",), ("checks", 0), ("sweep",),
    ("sweep", "parameter"), ("sweep", "values"),
]
# leaves stay small, so no junk asks for a long run
JUNK_LEAF = st.sampled_from(
    [None, True, False, math.nan, math.inf, -math.inf, 0, 1, -1, 0.5, "", "../x", "abc",
     "z", "k", "x0[1]", "fixed", "lti-identity", "phase_plot"]
)
JUNK_KEY = st.sampled_from(["preset", "kind", "params", "overrides", "P", "k", "dt", "x"])
JUNK = st.recursive(
    JUNK_LEAF,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JUNK_KEY, inner, max_size=3),
    max_leaves=8,
)


@pytest.mark.parametrize("verb", ["run", "sweep"])
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_exit_code_contract_holds_for_junk(verb, data):
    doc = copy.deepcopy(FUZZ_BASE)
    if data.draw(st.booleans()):
        doc["sweep"] = copy.deepcopy(FUZZ_SWEEP)
    for *head, key in data.draw(st.lists(st.sampled_from(FUZZ_PATHS), min_size=1, max_size=2)):
        parent = doc
        for k in head:
            parent = parent.get(k) if isinstance(parent, dict) else None
        if isinstance(parent, dict) or (isinstance(parent, list) and key in range(len(parent))):
            parent[key] = data.draw(JUNK)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "fuzz.yaml", Path(tmp) / "out"
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        rc = cli.main([verb, str(path), "--out", str(out)])
        assert rc in (0, 1, 2)
        if rc == 2:
            assert sorted(p.name for p in Path(tmp).iterdir()) == ["fuzz.yaml"]


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


def test_sing_margin_min_reads_negative_after_a_cone_exit(tmp_path, capsys):
    # fixed RK4 stores a state once its four stages have evaluated, so a run
    # can store one state outside the cone before the next step aborts; the
    # margin there is negative and the shipped check on it fails
    doc = {
        "name": "cone-exit",
        "bundle": {"preset": "cartpend-lin-default"},
        "x0": [0.0, 0.0, 5.0, 0.0],
        "t_span": [0.0, 2.0],
        "integrator": {"method": "fixed", "dt": 0.05},
        "checks": [{"metric": "sing_margin_min", "min": 1.0e-9}],
    }
    path = write_scenario(tmp_path, doc)
    assert cli.main(["run", str(path), "--out", str(tmp_path / "tree")]) == 1
    artifact = tmp_path / "tree" / "cone-exit"
    metrics = cli.read_metrics_csv(artifact / "metrics.csv")
    assert metrics["aborted"] is True
    params = plants.preset_params("cartpend-lin-default")
    last = np.loadtxt(artifact / "trajectory.csv", delimiter=",", skiprows=1)[-1]
    assert abs(last[1]) > params.beta_star  # column 0 is time
    assert metrics["sing_margin_min"] < 0.0
    assert metrics["sing_margin_min"] == -(1.0 + params.k * params.a2 * np.cos(last[1]))
    capsys.readouterr()
    assert cli.main(["report", str(tmp_path / "tree")]) == 1
    assert "fail" in capsys.readouterr().out
    rows = (tmp_path / "tree" / "report.csv").read_text().splitlines()
    assert any(row.startswith(f"{artifact},sing_margin_min,fail,") for row in rows), rows


def test_orbit_distance_metric_matches_library_path(tmp_path):
    # the CLI metric is the library call on the run's final projected state
    # and its own period estimate, bit for bit: the seed's angle wrap belongs
    # to orbit_samples alone
    scn = load_scenario("iwp-transient")
    artifact = cli.run_scenario(dataclasses.replace(scn, outputs=["metrics_csv"]), tmp_path)
    bundle = cli.build_bundle(scn.bundle)
    xpart = artifact.trajectory.restrict(range(bundle.plant.n))
    seed = bundle.project_xi(xpart.final_state)
    orbit = analysis.orbit_samples(bundle, seed, artifact.metrics["period_est"])
    expected = analysis.orbital_distance_tail(xpart, orbit)
    assert artifact.metrics["orbital_dist_tail_max"] == expected


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

    def test_narrow_cone_exits_with_a_status(self, capsys):
        # the cone's half-width is about 0.045, less than the sample boxes'
        # usual 0.05 clearance from its edge
        rc = cli.main(["validate", "cartpend-lin-default", "--set", "k=-1.001"])
        assert rc in (0, 1)
        assert "status: " in capsys.readouterr().out

    @pytest.mark.parametrize(
        "target,setting", [("iwp-default", "k=nan"), ("dcac-default", "R=nan")]
    )
    def test_nan_parameter_exits_1(self, capsys, target, setting):
        assert cli.main(["validate", target, "--set", setting]) == 1
        assert "must be finite" in capsys.readouterr().err

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

    def test_inadmissible_x0_stops_before_integrating(self, tmp_path, capsys):
        # 1.5 rad sits outside the admissible cone (half width ~1.318)
        doc = dict(
            TINY_LTI, bundle={"preset": "cartpend-lin-default"}, x0=[1.5, 0.0, 0.0, 0.0],
            outputs=["trajectory_csv", "metrics_csv"],
        )
        path = write_scenario(tmp_path, doc)
        rc = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "outside the admissible set" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("verb", ["run", "sweep"])
    def test_unwritable_out_stops_before_integrating(self, tmp_path, capsys, monkeypatch, verb):
        def never(*args, **kwargs):
            raise AssertionError("integrated despite an unwritable output root")

        monkeypatch.setattr(cli, "integrate_fixed", never)
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file, not a directory\n", encoding="utf-8")
        path = write_scenario(tmp_path, dict(TINY_LTI, sweep=SWEEP_X0))
        assert cli.main([verb, str(path), "--out", str(blocker)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write artifacts under ")
        assert blocker.read_text(encoding="utf-8") == "a regular file, not a directory\n"

    def test_constraint_violation_exits_1(self, tmp_path):
        doc = dict(TINY_LTI)
        doc["bundle"] = {
            "kind": "iwp",
            "params": {"m": 1.962, "b": 10.0, "k": -0.05, "gamma1": 2.0, "gamma2": 1.0},
        }
        path = write_scenario(tmp_path, doc)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 1


def _csv_table(rows: int) -> tuple[Trajectory, np.ndarray]:
    """A trajectory of n = 2, z_dim = 1 and its m = 1 inputs, with the
    floats whose repr is easy to get wrong among seeded random ones."""
    rng = np.random.default_rng(rows)
    states = rng.standard_normal((rows, 3)) * 10.0 ** rng.integers(-300, 300, (rows, 3))
    u = rng.standard_normal((rows, 1))
    special = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1]
    u[: len(special), 0] = special[:rows]
    return Trajectory(np.arange(rows) * 1e-3, states), u


def _csv_reference(traj: Trajectory, u: np.ndarray) -> str:
    """trajectory.csv of a (2, 1, 1) trajectory, formatted row by row."""
    table = np.column_stack((traj.times, traj.states, u)).tolist()
    return "t,x1,x2,z1,u1\n" + "".join(",".join(map(repr, row)) + "\n" for row in table)


@pytest.mark.skipif(cli._fork_context() is None, reason="needs the fork start method")
class TestTrajectoryCsvSplit:
    """trajectory.csv written by a forked child and the parent together."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        """Set the usable CPU count the writer sees (two by default)."""
        def set_cpus(count: int):
            monkeypatch.setattr(cli, "_usable_cpus", lambda: count)

        set_cpus(2)
        return set_cpus

    @staticmethod
    def write(path: Path, traj: Trajectory, u: np.ndarray, meanwhile=lambda: None):
        return cli._write_trajectory_csv(path, traj, 2, 1, 1, u, meanwhile=meanwhile)

    @pytest.mark.parametrize("rows", [1, 2, 3, 4095, 4096, 4097, 40001])
    def test_bytes_equal_the_in_process_write(self, tmp_path, cpus, rows):
        import multiprocessing

        traj, u = _csv_table(rows)
        split, single = tmp_path / "split.csv", tmp_path / "single.csv"
        assert self.write(split, traj, u, meanwhile=lambda: "metrics") == "metrics"
        assert multiprocessing.active_children() == []
        cpus(1)
        self.write(single, traj, u)
        assert split.read_bytes() == single.read_bytes()
        assert split.read_text(encoding="utf-8") == _csv_reference(traj, u)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["single.csv", "split.csv"]

    def test_aborted_run_matches_the_in_process_write(self, tmp_path, cpus):
        # the cone-exit run: its last stored state is outside the cone, so u
        # ends in NaN
        doc = {
            "name": "cone-exit",
            "bundle": {"preset": "cartpend-lin-default"},
            "x0": [0.0, 0.0, 5.0, 0.0],
            "t_span": [0.0, 2.0],
            "integrator": {"method": "fixed", "dt": 0.05},
        }
        scn = load_scenario(str(write_scenario(tmp_path, doc)))
        split = cli.run_scenario(scn, tmp_path / "split")
        cpus(1)
        single = cli.run_scenario(scn, tmp_path / "single")
        assert split.metrics["aborted"] and split.metrics == single.metrics
        assert split.trajectory_csv.read_bytes() == single.trajectory_csv.read_bytes()
        assert b"nan\n" in split.trajectory_csv.read_bytes()
        assert sorted(p.name for p in split.directory.iterdir()) == [
            "metrics.csv", "scenario.yaml", "trajectory.csv"
        ]

    def test_child_failure_raises_and_leaves_no_file(self, tmp_path, cpus, monkeypatch):
        import multiprocessing

        parent, write_rows = os.getpid(), cli._write_csv_rows

        def fail_in_child(path, head, columns, lo, hi):
            if os.getpid() != parent:
                raise OSError("disk full")
            write_rows(path, head, columns, lo, hi)

        monkeypatch.setattr(cli, "_write_csv_rows", fail_in_child)
        traj, u = _csv_table(3000)
        with pytest.raises(RuntimeError, match="exited with code 1"):
            self.write(tmp_path / "trajectory.csv", traj, u)
        assert list(tmp_path.iterdir()) == []
        assert multiprocessing.active_children() == []

    def test_parent_failure_waits_and_leaves_no_file(self, tmp_path, cpus):
        import multiprocessing

        def fail():
            raise ValueError("metrics failed")

        traj, u = _csv_table(3000)
        with pytest.raises(ValueError, match="metrics failed"):
            self.write(tmp_path / "trajectory.csv", traj, u, meanwhile=fail)
        assert list(tmp_path.iterdir()) == []
        assert multiprocessing.active_children() == []

    def test_nothing_prints_twice(self, tmp_path, cpus, capfd, monkeypatch):
        # stdout block-buffered, as under a pipe: a child that inherited
        # unflushed text would write it again when it exits
        buffered = open(os.dup(1), "w", buffering=1 << 16, encoding="utf-8")
        monkeypatch.setattr(sys, "stdout", buffered)
        try:
            print("before the split")
            traj, u = _csv_table(3000)
            self.write(tmp_path / "trajectory.csv", traj, u, meanwhile=lambda: print("meanwhile"))
            print("after the split")
        finally:
            buffered.close()
        captured = capfd.readouterr()
        assert captured.out == "before the split\nmeanwhile\nafter the split\n"
        assert captured.err == ""

    def test_one_usable_cpu_writes_in_process(self, tmp_path, cpus, monkeypatch):
        cpus(1)

        def no_fork():
            raise AssertionError("forked a child")

        monkeypatch.setattr(cli, "_fork_context", no_fork)
        traj, u = _csv_table(3000)
        path = tmp_path / "trajectory.csv"
        # in process, meanwhile runs before anything is written
        assert self.write(path, traj, u, meanwhile=path.exists) is False
        assert path.read_text(encoding="utf-8") == _csv_reference(traj, u)

    def test_in_process_failure_leaves_no_file(self, tmp_path, cpus, monkeypatch):
        cpus(1)
        write_rows = cli._write_csv_rows

        def fail_halfway(path, head, columns, lo, hi):
            write_rows(path, head, columns, lo, (lo + hi) // 2)
            raise OSError("disk full")

        monkeypatch.setattr(cli, "_write_csv_rows", fail_halfway)
        traj, u = _csv_table(3000)
        with pytest.raises(OSError, match="disk full"):
            self.write(tmp_path / "trajectory.csv", traj, u)
        assert list(tmp_path.iterdir()) == []


def test_import_does_not_load_process_pools():
    src = Path(cli.__file__).resolve().parents[1]
    code = "import sys, iiorbit; print(sorted({'multiprocessing', 'concurrent'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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

    def test_value_scenario_reruns_that_value(self, tmp_path):
        # each value's scenario.yaml holds its k, so running it reproduces the value
        doc = dict(self.SWEEP_DOC, t_span=[0.0, 2.0], outputs=["trajectory_csv"])
        path = write_scenario(tmp_path, doc)
        assert cli.main(["sweep", str(path), "--out", str(tmp_path / "out")]) == 0
        value = tmp_path / "out" / "tiny-sweep" / "value-1"
        assert load_scenario(str(value / "scenario.yaml")).bundle == {
            "preset": "iwp-default", "overrides": {"k": -2.0}
        }
        rerun = ["run", str(value / "scenario.yaml"), "--out", str(tmp_path / "rerun")]
        assert cli.main(rerun) == 0
        assert filecmp.cmp(
            value / "trajectory.csv", tmp_path / "rerun" / "tiny-sweep" / "trajectory.csv",
            shallow=False,
        )

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

    THREE_VALUES = dict(
        TINY_LTI, t_span=[0.0, 1.0], outputs=["metrics_csv"],
        sweep={"parameter": "x0[0]", "values": [1.0, 2.0, 3.0]},
    )

    @staticmethod
    def sweep_in_fresh_interpreter(path: Path, out: Path, **popen) -> subprocess.CompletedProcess:
        # piped stdout is block-buffered, so a buffer a forked worker copied
        # and flushed again would show as a repeated line
        src = Path(cli.__file__).resolve().parents[1]
        return subprocess.run(
            [sys.executable, "-m", "iiorbit.cli", "sweep", str(path), "--out", str(out)],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(src)), **popen,
        )

    def test_each_value_prints_once_in_value_order(self, tmp_path):
        path = write_scenario(tmp_path, self.THREE_VALUES)
        proc = self.sweep_in_fresh_interpreter(path, tmp_path / "out")
        assert proc.returncode == 0, proc.stderr
        root = tmp_path / "out" / "tiny-lti"
        assert proc.stdout.splitlines() == [
            f"value 1.0 -> {root / 'value-0'}",
            f"value 2.0 -> {root / 'value-1'}",
            f"value 3.0 -> {root / 'value-2'}",
            f"comparison table: {root / 'comparison.csv'}",
        ]

    def test_no_worker_outlives_the_sweep(self, tmp_path):
        import multiprocessing

        path = write_scenario(tmp_path, self.THREE_VALUES)
        assert cli.main(["sweep", str(path), "--out", str(tmp_path / "out")]) == 0
        assert multiprocessing.active_children() == []

    def test_failing_value_keeps_the_exit_code_contract(self, tmp_path):
        # a regular file where value-1's directory goes: its run raises
        # ScenarioError wherever it runs
        root = tmp_path / "out" / "tiny-lti"
        root.mkdir(parents=True)
        (root / "value-1").write_text("a regular file\n", encoding="utf-8")
        path = write_scenario(tmp_path, self.THREE_VALUES)
        proc = self.sweep_in_fresh_interpreter(path, tmp_path / "out")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: cannot write artifacts under ")
        assert "Traceback" not in proc.stderr
        assert proc.stdout.splitlines() == [f"value 1.0 -> {root / 'value-0'}"]
        assert not (root / "comparison.csv").exists()

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
    def test_values_not_started_before_a_failure_never_run(self, tmp_path):
        # value-0 fails at once; on two CPUs value-1 runs beside it and
        # value-2 may already be taken, but value-3 and value-4 never start
        doc = dict(
            self.SWEEP_DOC, name="five", outputs=["metrics_csv"],
            sweep={"parameter": "k", "values": [-1.4, -1.6, -1.8, -2.0, -2.2]},
        )
        root = tmp_path / "out" / "five"
        root.mkdir(parents=True)
        (root / "value-0").write_text("a regular file\n", encoding="utf-8")
        path = write_scenario(tmp_path, doc)
        two_cpus = set(sorted(os.sched_getaffinity(0))[:2])
        proc = self.sweep_in_fresh_interpreter(
            path, tmp_path / "out", preexec_fn=lambda: os.sched_setaffinity(0, two_cpus)
        )
        assert proc.returncode == 2, proc.stderr
        assert not (root / "value-3").exists()
        assert not (root / "value-4").exists()


class TestReportCommand:
    @staticmethod
    def edit_copy(artifact: Path, old: str, new: str):
        """Hand-edit an artifact's copy of its scenario."""
        copy_path = artifact / "scenario.yaml"
        text = copy_path.read_text(encoding="utf-8")
        assert old in text, text
        copy_path.write_text(text.replace(old, new), encoding="utf-8")

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

    def test_missing_copy_is_an_error_row(self, tmp_path, capsys):
        # an aborted run whose copy of its scenario is gone must not pass
        # the tree on the strength of the runs next to it
        tree = tmp_path / "tree"
        for name in ("lti-circle", "iwp-transient"):
            scn = dataclasses.replace(load_scenario(name), outputs=["metrics_csv"])
            cli.run_scenario(scn, tree)
        lost = tree / "iwp-transient"
        (lost / "scenario.yaml").unlink()
        metrics = (lost / "metrics.csv").read_text()
        assert "aborted,false\n" in metrics
        (lost / "metrics.csv").write_text(metrics.replace("aborted,false\n", "aborted,true\n"))
        assert cli.main(["report", str(tree)]) == 1
        rows = (tree / "report.csv").read_text().splitlines()[1:]
        assert rows[0] == f"{lost},-,error,scenario.yaml missing", rows
        checked = ["aborted", "decay_rate", "period_est", "orbital_dist_tail_max"]
        assert [row.split(",")[:3] for row in rows[1:]] == [
            [str(tree / "lti-circle"), metric, "pass"] for metric in checked
        ], rows

    def test_every_row_has_four_fields(self, tmp_path, capsys):
        # a copy whose check names the metric "a,b" is one error row, and the
        # commas of its detail reach report.csv as ";"
        self.run_tiny(tmp_path, [{"metric": "aborted", "equals": False}])
        self.edit_copy(tmp_path / "tree" / "tiny-lti", "metric: aborted", "metric: a,b")
        assert cli.main(["report", str(tmp_path / "tree")]) == 1
        rows = (tmp_path / "tree" / "report.csv").read_text().splitlines()
        assert all(len(row.split(",")) == 4 for row in rows), rows
        assert rows[1].startswith(f"{tmp_path / 'tree' / 'tiny-lti'},-,error,"), rows
        assert "'metric': 'a;b'" in rows[1], rows

    def test_misspelled_bound_in_copy_is_one_error_row(self, tmp_path, capsys):
        self.run_tiny(tmp_path, [{"metric": "aborted", "equals": False},
                                 {"metric": "u_abs_max", "max": 10.0}])
        self.edit_copy(tmp_path / "tree" / "tiny-lti", "max: 10.0", "maxx: 10.0")
        assert cli.main(["report", str(tmp_path / "tree")]) == 1
        rows = (tmp_path / "tree" / "report.csv").read_text().splitlines()
        assert len(rows) == 2, rows
        assert rows[1].startswith(f"{tmp_path / 'tree' / 'tiny-lti'},-,error,"), rows
        assert "unknown key 'maxx'" in rows[1], rows

    def test_sweep_tree_reads_each_copy(self, tmp_path, capsys, monkeypatch):
        doc = dict(TINY_LTI, t_span=[0.0, 0.5], outputs=["metrics_csv"], sweep=SWEEP_X0)
        path = write_scenario(tmp_path, doc)
        assert cli.main(["sweep", str(path), "--out", str(tmp_path / "tree")]) == 0
        read = []

        def spy(target):
            read.append(target)
            return load_scenario(target)

        monkeypatch.setattr(cli, "load_scenario", spy)
        root = tmp_path / "tree" / "tiny-lti"
        assert cli.main(["report", str(root)]) == 0
        copies = [str(root / f"value-{i}" / "scenario.yaml") for i in range(2)]
        assert read == copies
        rows = (root / "report.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:3] for row in rows] == [
            [str(root / f"value-{i}"), check["metric"], "pass"]
            for i in range(2) for check in TINY_LTI["checks"]
        ]

    @pytest.mark.parametrize(
        "checks",
        [
            5,
            [5],
            [{"metric": "u_abs_max", "max": "abc"}],
            [{"metric": "u_abs_max", "within": [1]}],
        ],
        ids=["checks-scalar", "check-not-a-mapping", "max-not-a-number", "within-one-entry"],
    )
    def test_malformed_check_is_one_error_row(self, tmp_path, capsys, checks):
        self.run_tiny(tmp_path, [{"metric": "aborted", "equals": False}])
        broken = tmp_path / "tree" / "broken"
        broken.mkdir()
        (broken / "metrics.csv").write_text("key,value\nu_abs_max,0.5\n")
        (broken / "scenario.yaml").write_text(yaml.safe_dump(dict(TINY_LTI, checks=checks)))
        rc = cli.main(["report", str(tmp_path / "tree")])
        assert rc == 1
        rows = (tmp_path / "tree" / "report.csv").read_text().splitlines()
        broken_rows = [row for row in rows if row.startswith(f"{broken},")]
        assert len(broken_rows) == 1, rows
        assert broken_rows[0].split(",")[2] == "error", rows
        assert "check" in broken_rows[0].split(",")[3], rows
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

    def test_check_without_comparison_is_malformed(self):
        with pytest.raises(ScenarioError, match="must hold exactly one of equals, max"):
            cli.Scenario.from_dict(dict(TINY_LTI, checks=[{"metric": "u_abs_max"}]))


class TestListPresets:
    def test_lists_everything(self, capsys):
        assert cli.main(["list-presets"]) == 0
        out = capsys.readouterr().out
        for name in ("lti-identity", "iwp-default", "cartpend-lin-default",
                     "cartpend-nl-default", "dcac-default"):
            assert name in out
        assert "iwp-lift" in out
