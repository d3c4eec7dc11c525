"""Command-line front end: validate bundles, run scenarios, sweep
parameters, and summarize artifacts.

Verbs: validate, run, sweep, report, list-presets. Exit codes: 0 success,
1 validation or run failure, 2 usage/parse error. Output root comes from
--out, then the IIORBIT_OUT environment variable, then ./artifacts.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from . import analysis, plants, svgplot
from .core import (
    FieldEvaluationError,
    IandIBundle,
    ParameterError,
    admissible_mask,
    augmented_field,
    evaluate,
    validate_bundle,
)
from .odesim import IntegrationAbort, Trajectory, integrate_adaptive, integrate_fixed

METRIC_KEYS = (
    "period_est",
    "decay_rate",
    "decay_residual",
    "orbital_dist_tail_max",
    "energy_drift_tail",
    "u_abs_max",
    "sing_margin_min",
    "aborted",
    "abort_time",
)


@dataclass
class Scenario:
    """One simulation experiment, loaded from a YAML file."""

    name: str
    bundle: dict
    x0: list
    t_span: tuple[float, float]
    integrator: dict
    outputs: list = field(default_factory=lambda: ["trajectory_csv", "metrics_csv"])
    sweep: Optional[dict] = None
    checks: list = field(default_factory=list)

    @staticmethod
    def from_dict(raw: dict, fallback_name: str = "scenario") -> "Scenario":
        if not isinstance(raw, dict):
            raise ScenarioError(f"bad scenario: expected a mapping, got {type(raw).__name__}")
        try:
            return Scenario(
                name=str(raw.get("name", fallback_name)),
                bundle=dict(raw["bundle"]),
                x0=[float(v) for v in raw["x0"]],
                t_span=(float(raw["t_span"][0]), float(raw["t_span"][1])),
                integrator=dict(raw.get("integrator", {"method": "fixed", "dt": 1e-3})),
                outputs=list(raw.get("outputs", ["trajectory_csv", "metrics_csv"])),
                sweep=dict(raw["sweep"]) if raw.get("sweep") else None,
                checks=list(raw.get("checks", [])),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioError(f"bad scenario: {exc}") from exc

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "bundle": self.bundle,
            "x0": self.x0,
            "t_span": list(self.t_span),
            "integrator": self.integrator,
            "outputs": self.outputs,
        }
        if self.sweep:
            d["sweep"] = self.sweep
        if self.checks:
            d["checks"] = self.checks
        return d


@dataclass
class RunArtifact:
    """Where a run landed on disk, its metric summary and the integrated
    (x, z) trajectory."""

    directory: Path
    scenario_hash: str
    metrics: dict
    trajectory: Trajectory
    trajectory_csv: Optional[Path] = None


class ScenarioError(ValueError):
    pass


def _scenario_dir():
    return resources.files("iiorbit") / "scenarios"


def shipped_scenarios() -> list[str]:
    names = [p.name[:-5] for p in _scenario_dir().iterdir() if p.name.endswith(".yaml")]
    return sorted(names)


def load_scenario(target: str) -> Scenario:
    """Load a scenario from a file path or a shipped scenario name."""
    path = Path(target)
    if path.is_file():
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
        return Scenario.from_dict(raw, fallback_name=path.stem)
    candidate = _scenario_dir() / f"{target}.yaml"
    if candidate.is_file():
        raw = yaml.safe_load(candidate.read_text(encoding="utf-8"))
        return Scenario.from_dict(raw, fallback_name=target)
    raise ScenarioError(
        f"no scenario file or shipped scenario named {target!r}; "
        f"shipped: {', '.join(shipped_scenarios())}"
    )


def build_bundle(block: dict, extra_overrides: Optional[dict] = None) -> IandIBundle:
    """Materialize a bundle from a scenario's bundle block.

    The block holds either {preset: name} or {kind: ..., params: {...}},
    plus an optional overrides mapping merged with extra_overrides.
    """
    overrides = dict(block.get("overrides", {}))
    if extra_overrides:
        overrides.update(extra_overrides)
    if "preset" in block:
        return plants.make_preset(block["preset"], **overrides)
    if "kind" in block:
        params = dict(block.get("params", {}))
        params.update(overrides)
        return plants.make_inline(block["kind"], **params)
    raise ScenarioError("bundle block needs either 'preset' or 'kind'")


def _out_root(flag: Optional[str]) -> Path:
    if flag:
        return Path(flag)
    env = os.environ.get("IIORBIT_OUT")
    if env:
        return Path(env)
    return Path("artifacts")


def _fmt_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return repr(float(v))


def _write_trajectory_csv(
    path: Path, traj: Trajectory, n: int, z_dim: int, m: int, u: np.ndarray
) -> None:
    cols = (
        ["t"]
        + [f"x{i + 1}" for i in range(n)]
        + [f"z{i + 1}" for i in range(z_dim)]
        + [f"u{i + 1}" for i in range(m)]
    )
    lines = [",".join(cols)]
    times = traj.times
    states = traj.states
    for i in range(len(times)):
        row = [repr(float(times[i]))]
        row += [repr(float(v)) for v in states[i]]
        row += [repr(float(v)) for v in u[i]]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_metrics_csv(path: Path, metrics: dict) -> None:
    lines = ["key,value"]
    for key in METRIC_KEYS:
        lines.append(f"{key},{_fmt_value(metrics.get(key))}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_metrics_csv(path: Path) -> dict:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        key, _, raw = line.partition(",")
        if raw == "":
            out[key] = None
        elif raw in ("true", "false"):
            out[key] = raw == "true"
        else:
            out[key] = float(raw)
    return out


def _control_history(bundle: IandIBundle, traj: Trajectory) -> np.ndarray:
    """The feedback along the stored states, NaN where it is not defined."""
    n = bundle.plant.n
    ok = admissible_mask(bundle.plant, traj.states[:, :n])
    u = np.full((len(traj), bundle.plant.m), np.nan)
    u[ok] = evaluate(bundle.controller.v, traj.states[ok, :n], traj.states[ok, n:])
    return u


def tail_amplitude(bundle: IandIBundle, traj: Trajectory, fraction: float = 0.2) -> float:
    """Max |first target-projected coordinate| over the run tail, wrapped to
    the principal value when that coordinate is an angle."""
    col = bundle.xi_projection[0]
    vals = traj.tail(fraction).states[:, col]
    if col in bundle.angle_indices:
        vals = analysis.wrap_angle(vals)
    return float(np.max(np.abs(vals)))


def compute_metrics(
    bundle: IandIBundle,
    traj: Trajectory,
    u: np.ndarray,
    aborted: bool,
    abort_time: Optional[float],
) -> dict:
    n = bundle.plant.n
    xpart = traj.restrict(range(n))
    zpart = traj.restrict(range(n, n + bundle.z_dim))
    metrics: dict = {key: None for key in METRIC_KEYS}
    metrics["aborted"] = aborted
    metrics["abort_time"] = abort_time
    metrics["u_abs_max"] = float(np.nanmax(np.abs(u))) if len(u) else None

    sec = bundle.section_index
    metrics["period_est"] = analysis.estimate_period(xpart, lambda s: s[sec])

    try:
        fit = analysis.fit_decay(zpart)
        metrics["decay_rate"] = fit.rate
        metrics["decay_residual"] = fit.residual
    except ValueError:
        pass

    try:
        xi0 = bundle.project_xi(xpart.final_state).astype(float)
        for j, col in enumerate(bundle.xi_projection):
            if col in bundle.angle_indices:
                xi0[j] = float(analysis.wrap_angle(xi0[j]))
        orbit = analysis.orbit_samples(bundle, xi0)
        metrics["orbital_dist_tail_max"] = analysis.orbital_distance_tail(xpart, orbit)
    except (ValueError, IntegrationAbort, FieldEvaluationError):
        pass

    if bundle.target.first_integral is not None:
        try:
            metrics["energy_drift_tail"] = analysis.energy_drift(bundle, xpart)
        except (ValueError, FieldEvaluationError):
            pass

    if bundle.singularity_margin is not None:
        metrics["sing_margin_min"] = float(evaluate(bundle.singularity_margin, xpart.states).min())
    return metrics


def _check_x0(bundle: IandIBundle, x0) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (bundle.plant.n,):
        raise ScenarioError(
            f"x0 has {x0.size} entries, bundle {bundle.name} needs {bundle.plant.n}"
        )
    return x0


def _integrator_settings(scn: Scenario) -> tuple[str, dict]:
    """The integrator method and its step settings, with the time span
    checked too, so a malformed number stops the scenario before any run."""
    method = scn.integrator.get("method", "fixed")
    defaults = {"fixed": {"dt": 1e-3}, "adaptive": {"rtol": 1e-8, "atol": 1e-10}}.get(method)
    if defaults is None:
        raise ScenarioError(f"unknown integrator method {method!r}")
    t0, t1 = scn.t_span
    if not (math.isfinite(t0) and math.isfinite(t1) and t1 > t0):
        raise ScenarioError(f"t_span [{t0!r}, {t1!r}] must be finite and end after it starts")
    settings = {}
    for key, default in defaults.items():
        raw = scn.integrator.get(key, default)
        try:
            value = float(raw)
        except (TypeError, ValueError):
            value = math.nan
        if not (math.isfinite(value) and value > 0):
            raise ScenarioError(f"integrator.{key} must be a positive number, got {raw!r}")
        settings[key] = value
    if settings.get("dt", 0.0) > t1 - t0:
        raise ScenarioError(f"integrator.dt {settings['dt']!r} exceeds the time span")
    return method, settings


def _integrate_scenario(bundle: IandIBundle, scn: Scenario):
    method, settings = _integrator_settings(scn)
    x0 = _check_x0(bundle, scn.x0)
    y0 = np.concatenate([x0, evaluate(bundle.manifold.phi, x0)])
    fld = augmented_field(bundle)
    t0, t1 = scn.t_span
    aborted, abort_time = False, None
    try:
        if method == "fixed":
            traj = integrate_fixed(fld, y0, t0, t1, settings["dt"])
        else:
            traj = integrate_adaptive(fld, y0, t0, t1, **settings)
    except IntegrationAbort as exc:
        traj = exc.trajectory
        aborted, abort_time = True, exc.abort_time
    return traj, aborted, abort_time


def _plot_outputs(bundle: IandIBundle, scn: Scenario, traj: Trajectory, outdir: Path):
    n = bundle.plant.n

    def col(i):
        vals = traj.states[:, i]
        if i in bundle.angle_indices:
            vals = analysis.wrap_angle(vals)
        return vals

    for spec_item in scn.outputs:
        if not isinstance(spec_item, dict):
            continue
        if "phase_plot" in spec_item:
            i, j = (int(v) for v in spec_item["phase_plot"])
            svgplot.phase_plot(
                str(outdir / f"phase_x{i + 1}_x{j + 1}.svg"),
                col(i),
                col(j),
                title=f"{scn.name}: x{j + 1} vs x{i + 1}",
                xlabel=f"x{i + 1}",
                ylabel=f"x{j + 1}",
            )
        elif "timeseries_plot" in spec_item:
            series = []
            tokens = []
            for c in spec_item["timeseries_plot"]:
                if c == "z":
                    znorm = np.linalg.norm(traj.states[:, n:], axis=1)
                    series.append(("|z|", traj.times, znorm))
                    tokens.append("z")
                else:
                    i = int(c)
                    series.append((f"x{i + 1}", traj.times, col(i)))
                    tokens.append(f"x{i + 1}")
            svgplot.line_plot(
                str(outdir / ("timeseries_" + "-".join(tokens) + ".svg")),
                series,
                title=scn.name,
                xlabel="t",
            )


def run_scenario(
    scn: Scenario, out_root: Path, extra_overrides: Optional[dict] = None,
    subdir: Optional[str] = None,
) -> RunArtifact:
    """Integrate one scenario and write its artifact directory."""
    bundle = build_bundle(scn.bundle, extra_overrides)
    traj, aborted, abort_time = _integrate_scenario(bundle, scn)
    u = _control_history(bundle, traj)
    metrics = compute_metrics(bundle, traj, u, aborted, abort_time)

    outdir = out_root / (subdir or scn.name)
    outdir.mkdir(parents=True, exist_ok=True)
    doc = yaml.safe_dump(scn.to_dict(), sort_keys=True)
    digest = hashlib.sha256(doc.encode("utf-8")).hexdigest()
    (outdir / "scenario.yaml").write_text(f"# sha256: {digest}\n{doc}", encoding="utf-8")

    artifact = RunArtifact(
        directory=outdir, scenario_hash=digest, metrics=metrics, trajectory=traj
    )
    if "trajectory_csv" in scn.outputs:
        artifact.trajectory_csv = outdir / "trajectory.csv"
        _write_trajectory_csv(
            artifact.trajectory_csv, traj, bundle.plant.n, bundle.z_dim,
            bundle.plant.m, u,
        )
    if "metrics_csv" in scn.outputs:
        _write_metrics_csv(outdir / "metrics.csv", metrics)
    _plot_outputs(bundle, scn, traj, outdir)

    limit = bundle.info.get("u_limit")
    if limit is not None and metrics["u_abs_max"] is not None and metrics["u_abs_max"] > limit:
        print(
            f"warning: max |u| = {metrics['u_abs_max']:.4g} exceeds the "
            f"monitored limit {limit:g}",
            file=sys.stderr,
        )
    return artifact


def _sweep_overrides(scn: Scenario, value):
    """Translate one sweep value into parameter overrides and the run's x0."""
    param = str(scn.sweep["parameter"])
    try:
        value = float(value)
        if param == "pole":
            return {"gamma1": 2.0 * value, "gamma2": value**2}, scn.x0
        if param.startswith("x0[") and param.endswith("]"):
            x0 = list(scn.x0)
            x0[int(param[3:-1])] = value
            return {}, x0
    except (TypeError, ValueError, IndexError) as exc:
        raise ScenarioError(f"sweep parameter {param!r}, value {value!r}: {exc}") from None
    return {param: value}, scn.x0


def cmd_validate(args) -> int:
    try:
        if args.grid_size < 1:
            raise ScenarioError(f"--grid-size must be at least 1, got {args.grid_size}")
        overrides = _parse_sets(args.set or [])
        target = args.target
        if target in plants.PRESETS:
            bundle = plants.make_preset(target, **overrides)
        else:
            scn = load_scenario(target)
            bundle = build_bundle(scn.bundle, overrides)
    except ParameterError as exc:
        print(f"constraint violated: {exc}", file=sys.stderr)
        return 1
    except (ScenarioError, KeyError, yaml.YAMLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = validate_bundle(bundle, grid_size=args.grid_size, seed=args.seed)
    print(report.to_text())
    return 0 if report.passed else 1


def _parse_sets(pairs) -> dict:
    out = {}
    for item in pairs:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ScenarioError(f"--set expects key=value, got {item!r}")
        try:
            out[key] = float(raw)
        except ValueError:
            raise ScenarioError(f"--set {key} expects a number, got {raw!r}") from None
    return out


def cmd_run(args) -> int:
    try:
        scn = load_scenario(args.target)
        artifact = run_scenario(scn, _out_root(args.out))
    except ParameterError as exc:
        print(f"constraint violated: {exc}", file=sys.stderr)
        return 1
    except FieldEvaluationError as exc:
        print(f"inadmissible initial state: {exc}", file=sys.stderr)
        return 1
    except (ScenarioError, yaml.YAMLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"artifact: {artifact.directory}")
    for key in METRIC_KEYS:
        print(f"  {key} = {_fmt_value(artifact.metrics.get(key))}")
    return 1 if artifact.metrics["aborted"] else 0


def cmd_sweep(args) -> int:
    try:
        scn = load_scenario(args.target)
        if not scn.sweep:
            raise ScenarioError(f"scenario {scn.name!r} has no sweep block")
        values = scn.sweep.get("values")
        if not (isinstance(values, list) and values):
            raise ScenarioError(f"sweep values must be a non-empty list, got {values!r}")
        _integrator_settings(scn)
        prepared = []
        for value in values:
            overrides, x0 = _sweep_overrides(scn, value)
            bundle = build_bundle(scn.bundle, overrides)
            if not bundle.plant.admissible(_check_x0(bundle, x0)):
                raise ParameterError(
                    f"sweep value {value!r} puts x0 outside the admissible set"
                )
            prepared.append((value, overrides, x0, bundle))
    except ParameterError as exc:
        print(f"constraint violated: {exc}", file=sys.stderr)
        return 1
    except (ScenarioError, KeyError, yaml.YAMLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out_root = _out_root(args.out)
    rows = []
    failed = False
    for i, (value, overrides, x0, bundle) in enumerate(prepared):
        sub = Scenario(
            name=scn.name,
            bundle=scn.bundle,
            x0=x0,
            t_span=scn.t_span,
            integrator=scn.integrator,
            outputs=scn.outputs,
            checks=scn.checks,
        )
        artifact = run_scenario(
            sub, out_root / scn.name, extra_overrides=overrides, subdir=f"value-{i}"
        )
        rows.append(
            (
                value,
                artifact.metrics.get("period_est"),
                tail_amplitude(bundle, artifact.trajectory),
                artifact.metrics.get("decay_rate"),
            )
        )
        failed = failed or artifact.metrics["aborted"]
        print(f"value {value!r} -> {artifact.directory}")

    cmp_path = out_root / scn.name / "comparison.csv"
    lines = ["value,period_est,amplitude,decay_rate"]
    for value, period, amp, rate in rows:
        lines.append(
            ",".join(
                [
                    _fmt_value(float(value)),
                    _fmt_value(period),
                    _fmt_value(amp),
                    _fmt_value(rate),
                ]
            )
        )
    cmp_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"comparison table: {cmp_path}")
    return 1 if failed else 0


def _eval_check(check: dict, metrics: dict):
    """Evaluate one check block against a metrics mapping.

    Returns (status, detail) with status in {pass, fail, skipped}.
    """
    metric = check.get("metric")
    if metric not in METRIC_KEYS:
        return "skipped", f"unknown metric {metric!r}"
    value = metrics.get(metric)
    if value is None:
        return "skipped", "metric not available"
    if "equals" in check:
        ok = value == check["equals"]
        return ("pass" if ok else "fail"), f"value={_fmt_value(value)}"
    if "max" in check:
        ok = float(value) <= float(check["max"])
        return ("pass" if ok else "fail"), f"value={_fmt_value(value)} max={check['max']}"
    if "min" in check:
        ok = float(value) >= float(check["min"])
        return ("pass" if ok else "fail"), f"value={_fmt_value(value)} min={check['min']}"
    if "abs_max" in check:
        ok = abs(float(value)) <= float(check["abs_max"])
        return ("pass" if ok else "fail"), f"|value|={abs(float(value))!r} abs_max={check['abs_max']}"
    if "within" in check:
        target, tol = (float(v) for v in check["within"])
        ok = abs(float(value) - target) <= tol
        return ("pass" if ok else "fail"), f"value={_fmt_value(value)} target={target} tol={tol}"
    return "skipped", "no recognized comparison in check"


def cmd_report(args) -> int:
    root = Path(args.directory)
    rows = []
    metric_files = sorted(root.rglob("metrics.csv")) if root.is_dir() else []
    for mpath in metric_files:
        scn_path = mpath.parent / "scenario.yaml"
        if not scn_path.is_file():
            rows.append((str(mpath.parent), "-", "skipped", "scenario.yaml missing"))
            continue
        try:
            raw = yaml.safe_load(scn_path.read_text(encoding="utf-8"))
            if not isinstance(raw, dict):
                raise ValueError("scenario.yaml does not hold a mapping")
            checks = raw.get("checks", [])
            metrics = read_metrics_csv(mpath)
        except (OSError, ValueError, yaml.YAMLError) as exc:
            rows.append((str(mpath.parent), "-", "error", " ".join(str(exc).split())))
            continue
        if not checks:
            rows.append((str(mpath.parent), "-", "skipped", "no checks declared"))
            continue
        for check in checks:
            status, detail = _eval_check(check, metrics)
            rows.append((str(mpath.parent), str(check.get("metric")), status, detail))
    if not rows:
        print("no artifacts found; nothing to evaluate")
        return 1

    lines = ["artifact,metric,status,detail"]
    evaluated = 0
    failed = 0
    for artifact_dir, metric, status, detail in rows:
        print(f"{status:7s} {artifact_dir} {metric} ({detail})")
        lines.append(",".join([artifact_dir, metric, status, detail.replace(",", ";")]))
        if status != "skipped":
            evaluated += 1
        if status in ("fail", "error"):
            failed += 1
    if root.is_dir():
        (root / "report.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0 if evaluated > 0 and failed == 0 else 1


def cmd_list_presets(_args) -> int:
    print("bundle presets:")
    for name in plants.PRESETS:
        params = plants.preset_params(name)
        parts = []
        for f in params.__dataclass_fields__:
            value = getattr(params, f)
            if isinstance(value, np.ndarray):
                parts.append(f"{f}={value.tolist()!r}")
            else:
                parts.append(f"{f}={value!r}")
        print(f"  {name}: {', '.join(parts)}")
    print("scenario files:")
    for name in shipped_scenarios():
        print(f"  {name}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iiorbit",
        description="Orbital stabilization toolbox: validate controller "
        "bundles, run simulation scenarios, and summarize artifacts.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", help="check a bundle's construction identities")
    p.add_argument("target", help="preset name, scenario name, or scenario file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a bundle parameter (repeatable)")
    p.add_argument("--grid-size", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="integrate one scenario and emit artifacts")
    p.add_argument("target", help="scenario name or scenario file")
    p.add_argument("--out", help="output root (default $IIORBIT_OUT or ./artifacts)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="run a scenario across its sweep values")
    p.add_argument("target", help="scenario name or scenario file")
    p.add_argument("--out", help="output root (default $IIORBIT_OUT or ./artifacts)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="evaluate declared checks over artifacts")
    p.add_argument("directory")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("list-presets", help="list bundle presets and scenarios")
    p.set_defaults(func=cmd_list_presets)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
