"""Command-line front end: validate bundles, run scenarios, sweep
parameters, and summarize artifacts.

Verbs: validate, run, sweep, report, list-presets. Exit codes: 0 success,
1 validation or run failure, 2 usage/parse error. Output root comes from
--out, then the IIORBIT_OUT environment variable, then ./artifacts.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import math
import os
import re
import sys
from dataclasses import dataclass, fields, replace
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
from .odesim import (
    MAX_STEPS, IntegrationAbort, Trajectory, estimate_period, integrate_adaptive, integrate_dense,
    integrate_fixed,
)

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
    outputs: list
    sweep: Optional[dict]
    checks: list

    @staticmethod
    def from_dict(raw: dict, fallback_name: str = "scenario") -> "Scenario":
        """Read a scenario mapping, checking each field's shape as it is
        read; the bundle, integrator and outputs are checked before a run."""
        if not isinstance(raw, dict):
            raise ScenarioError(f"bad scenario: expected a mapping, got {type(raw).__name__}")
        try:
            _known_keys(raw, [f.name for f in fields(Scenario)], "the scenario")
            name, x0, t_span = raw.get("name", fallback_name), raw["x0"], raw["t_span"]
            checks = raw.get("checks", [])
            if not (
                isinstance(name, str)
                and name not in ("", ".", "..")
                and not any(c in name for c in "/\\\0")
                and len(name.encode("utf-8")) <= 255
            ):
                raise ScenarioError(
                    f"name must be a single path component of at most 255 bytes, got {name!r}"
                )
            if not isinstance(x0, list):
                raise ScenarioError(f"x0 must be a list of numbers, got {x0!r}")
            if not isinstance(checks, list):
                raise ScenarioError(f"checks must be a list, got {checks!r}")
            for check in checks:
                _read_check(check)
            sweep = dict(raw["sweep"]) if raw.get("sweep") else None
            _known_keys(sweep or {}, ["parameter", "values"], "the sweep block")
            return Scenario(
                name=name,
                bundle=dict(raw["bundle"]),
                x0=[_finite(v, "x0 entry") for v in x0],
                t_span=_time_span(t_span),
                integrator=dict(raw.get("integrator", {"method": "fixed", "dt": 1e-3})),
                outputs=raw.get("outputs", ["trajectory_csv", "metrics_csv"]),
                sweep=sweep,
                checks=checks,
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
    """Where a run landed on disk, its metric summary, the integrated
    (x, z) trajectory and the bundle that drove it."""

    directory: Path
    metrics: dict
    trajectory: Trajectory
    bundle: IandIBundle
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
    path, name = Path(target), Path(target).stem
    if not path.is_file():
        path, name = _scenario_dir() / f"{target}.yaml", target
    if not path.is_file():
        raise ScenarioError(
            f"no scenario file or shipped scenario named {target!r}; "
            f"shipped: {', '.join(shipped_scenarios())}"
        )
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"scenario {target!r} is not UTF-8 text: {exc}") from None
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {target!r}: {exc}") from None
    return Scenario.from_dict(raw, fallback_name=name)


def build_bundle(block: dict) -> IandIBundle:
    """Materialize a bundle from a scenario's bundle block.

    The block holds exactly one of {preset: name} and {kind: ..., params:
    {...}}, plus an optional overrides mapping.
    """
    if ("preset" in block) == ("kind" in block):
        raise ScenarioError("bundle block needs exactly one of 'preset' and 'kind'")
    allowed = ["preset", "overrides"] if "preset" in block else ["kind", "params", "overrides"]
    _known_keys(block, allowed, "the bundle block")
    try:
        overrides = dict(block.get("overrides", {}))
        if "preset" in block:
            return plants.make_preset(block["preset"], **overrides)
        return plants.make_inline(block["kind"], **{**block.get("params", {}), **overrides})
    except ParameterError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"bad bundle block: {exc}") from None


def _with_overrides(block: dict, overrides: dict) -> dict:
    """A copy of a bundle block with overrides merged over its own."""
    own = block.get("overrides", {})
    if not isinstance(own, dict):
        raise ScenarioError(f"bad bundle block: overrides must be a mapping, got {own!r}")
    return {**block, "overrides": {**own, **overrides}}


def _known_keys(block: dict, allowed: list, where: str) -> None:
    """Raise ScenarioError naming the first key of block outside allowed."""
    unknown = [key for key in block if key not in allowed]
    if unknown:
        raise ScenarioError(
            f"unknown key {unknown[0]!r} in {where}; allowed keys: {', '.join(allowed)}"
        )


def _finite(raw, what: str) -> float:
    """raw as a finite float; a bool, a non-number, NaN or inf is malformed."""
    try:
        value = math.nan if isinstance(raw, bool) else float(raw)
    except (TypeError, ValueError, OverflowError):
        value = math.nan
    if not math.isfinite(value):
        raise ScenarioError(f"{what} must be a finite number, got {raw!r}")
    return value


def _time_span(raw) -> tuple[float, float]:
    """raw as (t0, t1), two finite numbers with t1 > t0 and a finite
    length t1 - t0."""
    if not (isinstance(raw, list) and len(raw) == 2):
        raise ScenarioError(f"t_span must be two numbers [t0, t1], got {raw!r}")
    t0, t1 = _finite(raw[0], "t_span[0]"), _finite(raw[1], "t_span[1]")
    if not t1 > t0:
        raise ScenarioError(f"t_span [{t0!r}, {t1!r}] must end after it starts")
    if not math.isfinite(t1 - t0):
        raise ScenarioError(f"t_span [{t0!r}, {t1!r}] is longer than a float holds")
    return t0, t1


def _flag(raw, what: str) -> bool:
    if not isinstance(raw, bool):
        raise ScenarioError(f"{what} must be true or false, got {raw!r}")
    return raw


def _tolerance(raw, what: str) -> float:
    """raw as a finite float of at least zero, as a tolerance must be."""
    value = _finite(raw, what)
    if value < 0:
        raise ScenarioError(f"{what} must not be negative, got {raw!r}")
    return value


def _target_tol(raw, what: str) -> tuple[float, float]:
    if not (isinstance(raw, list) and len(raw) == 2):
        raise ScenarioError(f"{what} must be [target, tol], got {raw!r}")
    return _finite(raw[0], f"{what} target"), _tolerance(raw[1], f"{what} tol")


# Each comparison a check may hold: its bound reader, its test of a metric
# value against the read bound, and its detail text.
COMPARISONS = {
    "equals": (_flag, lambda v, b: v == b, "value={shown}"),
    "max": (_finite, lambda v, b: float(v) <= b, "value={shown} max={raw}"),
    "min": (_finite, lambda v, b: float(v) >= b, "value={shown} min={raw}"),
    "abs_max": (_tolerance, lambda v, b: abs(float(v)) <= b, "|value|={abs_value!r} abs_max={raw}"),
    "within": (
        _target_tol,
        lambda v, b: abs(float(v) - b[0]) <= b[1],
        "value={shown} target={bound[0]} tol={bound[1]}",
    ),
}


def _read_check(check) -> tuple[str, object, object]:
    """A check's comparison name, its bound as written and its bound as
    read; ScenarioError naming the check unless it is a mapping of one
    known metric and exactly one comparison with a well-formed bound."""
    if not isinstance(check, dict):
        raise ScenarioError(f"check {check!r} must be a mapping")
    _known_keys(check, ["metric", *COMPARISONS], f"check {check!r}")
    if check.get("metric") not in METRIC_KEYS:
        raise ScenarioError(
            f"check {check!r} names no known metric; known: {', '.join(METRIC_KEYS)}"
        )
    if len(check) != 2:
        raise ScenarioError(f"check {check!r} must hold exactly one of {', '.join(COMPARISONS)}")
    (name, raw), = ((k, v) for k, v in check.items() if k != "metric")
    return name, raw, COMPARISONS[name][0](raw, f"check {check!r}: {name}")


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


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform has one, the machine's count otherwise."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _fork_context():
    """multiprocessing's fork context, or None where fork is not available.
    Imported here: `import iiorbit` loads no multiprocessing."""
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


def _write_trajectory_csv(path: Path, traj: Trajectory, n: int, z_dim: int, m: int, u: np.ndarray):
    """Write trajectory.csv: the header t, x1.., z1.., u1.., then one line
    per stored state, each float as repr gives it. A failed write leaves no
    file."""
    cols = (
        ["t"]
        + [f"x{i + 1}" for i in range(n)]
        + [f"z{i + 1}" for i in range(z_dim)]
        + [f"u{i + 1}" for i in range(m)]
    )
    try:
        with path.open("w", encoding="utf-8") as fh:
            fh.write(",".join(cols) + "\n")
            for lo in range(0, len(traj), 4096):  # a slice at a time bounds the memory
                hi = lo + 4096
                rows = np.column_stack((traj.times[lo:hi], traj.states[lo:hi], u[lo:hi])).tolist()
                fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)
    except BaseException:
        with contextlib.suppress(OSError):  # a directory stays, and the write's error is raised
            path.unlink(missing_ok=True)
        raise


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
    n = bundle.n
    ok = admissible_mask(bundle, traj.states[:, :n])
    u = np.full((len(traj), bundle.m), np.nan)
    u[ok] = evaluate(bundle.v, traj.states[ok, :n], traj.states[ok, n:])
    return u


def compute_metrics(
    bundle: IandIBundle,
    traj: Trajectory,
    u: np.ndarray,
    aborted: bool,
    abort_time: Optional[float],
) -> dict:
    n = bundle.n
    xpart = traj.restrict(range(n))
    zpart = traj.restrict(range(n, n + bundle.z_dim))
    metrics: dict = {key: None for key in METRIC_KEYS}
    metrics["aborted"] = aborted
    metrics["abort_time"] = abort_time
    metrics["u_abs_max"] = float(np.nanmax(np.abs(u))) if len(u) else None

    sec = bundle.section_index
    metrics["period_est"] = estimate_period(xpart, lambda s: s[sec])

    try:
        fit = analysis.fit_decay(zpart)
        metrics["decay_rate"] = fit.rate
        metrics["decay_residual"] = fit.residual
    except ValueError:
        pass

    try:
        orbit = analysis.orbit_samples(
            bundle, bundle.project_xi(xpart.final_state), metrics["period_est"]
        )
        metrics["orbital_dist_tail_max"] = analysis.orbital_distance_tail(xpart, orbit)
    except (ValueError, IntegrationAbort, FieldEvaluationError):
        pass

    try:
        metrics["energy_drift_tail"] = analysis.energy_drift(bundle, xpart)
    except (ValueError, FieldEvaluationError):
        pass

    if bundle.singularity_margin is not None:
        metrics["sing_margin_min"] = float(evaluate(bundle.singularity_margin, xpart.states).min())
    return metrics


def _integrator_settings(scn: Scenario) -> tuple[str, dict]:
    """The integrator method and its step settings, with dt kept within
    the time span and a dt grid (fixed or dense) of at most MAX_STEPS steps."""
    method = scn.integrator.get("method", "fixed")
    defaults = {
        "fixed": {"dt": 1e-3}, "dense": {"dt": 1e-3}, "adaptive": {"rtol": 1e-8, "atol": 1e-10}
    }
    if not (isinstance(method, str) and method in defaults):
        raise ScenarioError(f"unknown integrator method {method!r}")
    _known_keys(scn.integrator, ["method", *defaults[method]], f"the {method} integrator block")
    settings = {}
    for key, default in defaults[method].items():
        raw = scn.integrator.get(key, default)
        settings[key] = _finite(raw, f"integrator.{key}")
        if settings[key] <= 0:
            raise ScenarioError(f"integrator.{key} must be positive, got {raw!r}")
    span = scn.t_span[1] - scn.t_span[0]
    if settings.get("dt", 0.0) > span:
        raise ScenarioError(f"integrator.dt {settings['dt']!r} exceeds the time span")
    if "dt" in settings and span / settings["dt"] > MAX_STEPS:
        raise ScenarioError(
            f"integrator.dt {settings['dt']!r} takes {span / settings['dt']:.6g} steps "
            f"over the time span, more than {MAX_STEPS}"
        )
    return method, settings


def _plots(scn: Scenario, bundle: IandIBundle) -> list[tuple[str, list]]:
    """The scenario's plots as (kind, columns) pairs, with every entry of
    outputs checked."""
    if not isinstance(scn.outputs, list):
        raise ScenarioError(f"outputs must be a list, got {scn.outputs!r}")
    width = bundle.n + bundle.z_dim
    plots = []
    for item in scn.outputs:
        if item in ("trajectory_csv", "metrics_csv"):
            continue
        pairs = item.items() if isinstance(item, dict) else [(item, None)]
        kind, cols = next(iter(pairs), (None, None))
        phase = kind == "phase_plot"
        if not (
            kind in ("phase_plot", "timeseries_plot")
            and len(item) == 1
            and isinstance(cols, list)
            and (len(cols) == 2 if phase else len(cols) > 0)
            and all((c == "z" and not phase) or (type(c) is int and 0 <= c < width) for c in cols)
        ):
            raise ScenarioError(
                f"bad output {item!r}: expected trajectory_csv, metrics_csv, phase_plot: "
                f"[i, j] or timeseries_plot: [i, ...] with columns in 0..{width - 1} or 'z'"
            )
        plots.append((kind, cols))
    return plots


@dataclass
class RunPlan:
    """What a checked scenario needs to run: its bundle, the initial (x, z),
    the integrator method and settings, and the checked plots."""

    bundle: IandIBundle
    y0: np.ndarray
    method: str
    settings: dict
    plots: list


def check_scenario(scn: Scenario) -> RunPlan:
    """Check the whole scenario before any run: a malformed field raises
    ScenarioError (exit 2), a parameter or an x0 outside its admissible
    set ParameterError (exit 1)."""
    method, settings = _integrator_settings(scn)
    bundle = build_bundle(scn.bundle)
    plots = _plots(scn, bundle)
    if scn.checks and "metrics_csv" not in scn.outputs:
        # report evaluates checks against metrics.csv, and never sees a run without one
        raise ScenarioError("a scenario that declares checks needs metrics_csv in its outputs")
    x0 = np.asarray(scn.x0, dtype=float)
    if x0.shape != (bundle.n,):
        raise ScenarioError(
            f"x0 has {x0.size} entries, bundle {bundle.name} needs {bundle.n}"
        )
    if not admissible_mask(bundle, x0):
        raise ParameterError(f"x0 {scn.x0} is outside the admissible set of bundle {bundle.name} "
                             f"(singularity margin {evaluate(bundle.singularity_margin, x0):.6g})")
    y0 = np.concatenate([x0, evaluate(bundle.phi, x0)])
    return RunPlan(bundle, y0, method, settings, plots)


def _integrate(plan: RunPlan, t_span):
    fld = augmented_field(plan.bundle)
    t0, t1 = t_span
    try:
        integrate = {
            "fixed": integrate_fixed, "dense": integrate_dense, "adaptive": integrate_adaptive
        }[plan.method]
        return integrate(fld, plan.y0, t0, t1, **plan.settings), False, None
    except IntegrationAbort as exc:
        return exc.trajectory, True, exc.abort_time


def _plot_outputs(bundle: IandIBundle, name: str, plots: list, traj: Trajectory, outdir: Path):
    n = bundle.n

    def col(i):
        if i == "z":
            return np.linalg.norm(traj.states[:, n:], axis=1)
        vals = traj.states[:, i]
        if i in bundle.angle_indices:
            vals = analysis.wrap_angle(vals)
        return vals

    for kind, cols in plots:
        if kind == "phase_plot":
            i, j = cols
            svgplot.phase_plot(
                str(outdir / f"phase_x{i + 1}_x{j + 1}.svg"),
                col(i),
                col(j),
                title=f"{name}: x{j + 1} vs x{i + 1}",
                xlabel=f"x{i + 1}",
                ylabel=f"x{j + 1}",
            )
        else:
            tokens = ["z" if c == "z" else f"x{c + 1}" for c in cols]
            series = [("|z|" if c == "z" else t, traj.times, col(c)) for c, t in zip(cols, tokens)]
            svgplot.line_plot(
                str(outdir / ("timeseries_" + "-".join(tokens) + ".svg")),
                series,
                title=name,
                xlabel="t",
            )


def run_scenario(scn: Scenario, out_root: Path, subdir: Optional[str] = None) -> RunArtifact:
    """Check one scenario, write its copy into the artifact directory, then
    integrate it and write the rest; an unwritable directory is malformed
    (ScenarioError) and stops before the integration. An artifact that
    cannot be written raises its OSError; trajectory.csv is written last,
    and a failed write leaves none."""
    plan = check_scenario(scn)
    bundle = plan.bundle
    outdir = out_root / (subdir or scn.name)
    doc = yaml.safe_dump(scn.to_dict(), sort_keys=True)
    digest = hashlib.sha256(doc.encode("utf-8")).hexdigest()
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "scenario.yaml").write_text(f"# sha256: {digest}\n{doc}", encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot write artifacts under {outdir}: {exc}") from None

    traj, aborted, abort_time = _integrate(plan, scn.t_span)
    u = _control_history(bundle, traj)
    csv_path = outdir / "trajectory.csv" if "trajectory_csv" in scn.outputs else None
    metrics = compute_metrics(bundle, traj, u, aborted, abort_time)
    if "metrics_csv" in scn.outputs:
        _write_metrics_csv(outdir / "metrics.csv", metrics)
    _plot_outputs(bundle, scn.name, plan.plots, traj, outdir)
    if csv_path is not None:
        # the file comes last: the other order raised the peak RSS of a
        # 40 s iwp-lift run by about 1 MB
        _write_trajectory_csv(csv_path, traj, bundle.n, bundle.z_dim, bundle.m, u)
    artifact = RunArtifact(
        directory=outdir, metrics=metrics, trajectory=traj, trajectory_csv=csv_path,
        bundle=bundle,
    )

    limit = bundle.u_limit
    if limit is not None and metrics["u_abs_max"] is not None and metrics["u_abs_max"] > limit:
        print(
            f"warning: max |u| = {metrics['u_abs_max']:.4g} exceeds the "
            f"monitored limit {limit:g}",
            file=sys.stderr,
        )
    return artifact


def expand_sweep(scn: Scenario) -> list[tuple[float, Scenario]]:
    """One complete scenario per sweep value, paired with the value. A
    parameter value goes into the bundle block's overrides ("pole" p sets
    gamma1 = 2p and gamma2 = p^2); an "x0[i]" value replaces that entry."""
    if not scn.sweep:
        raise ScenarioError(f"scenario {scn.name!r} has no sweep block")
    param, values = scn.sweep.get("parameter"), scn.sweep.get("values")
    if not isinstance(param, str):
        raise ScenarioError(f"sweep parameter must be a string, got {param!r}")
    if not (isinstance(values, list) and values):
        raise ScenarioError(f"sweep values must be a non-empty list, got {values!r}")
    index = None
    if param.startswith("x0["):
        match = re.fullmatch(r"x0\[([0-9]+)\]", param)
        index = int(match[1]) if match else -1
        if not 0 <= index < len(scn.x0):
            raise ScenarioError(f"sweep parameter {param!r} must index x0 in 0..{len(scn.x0) - 1}")
    runs = []
    for raw in values:
        value = _finite(raw, f"sweep value of {param!r}")
        if index is not None:
            sub = replace(scn, x0=scn.x0[:index] + [value] + scn.x0[index + 1 :], sweep=None)
        else:
            overrides = {param: value}
            if param == "pole":
                overrides = {"gamma1": 2.0 * value, "gamma2": value**2}
            sub = replace(scn, bundle=_with_overrides(scn.bundle, overrides), sweep=None)
        runs.append((value, sub))
    return runs


# about 0.45 GB of validation grids at ~0.4 KB per sample point; a larger
# grid would end in numpy's memory or dimension errors
MAX_GRID_SIZE = 1_000_000


def cmd_validate(args) -> int:
    if not 1 <= args.grid_size <= MAX_GRID_SIZE:
        raise ScenarioError(
            f"--grid-size must be between 1 and {MAX_GRID_SIZE}, got {args.grid_size}"
        )
    if args.seed < 0:
        raise ScenarioError(f"--seed must be non-negative, got {args.seed}")
    target = args.target
    block = {"preset": target} if target in plants.PRESETS else load_scenario(target).bundle
    bundle = build_bundle(_with_overrides(block, _parse_sets(args.set or [])))
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
    artifact = run_scenario(load_scenario(args.target), _out_root(args.out))
    print(f"artifact: {artifact.directory}")
    for key in METRIC_KEYS:
        print(f"  {key} = {_fmt_value(artifact.metrics.get(key))}")
    return 1 if artifact.metrics["aborted"] else 0


# Set only in a sweep's worker processes: the event the parent sets once
# the sweep is over, so that a value still queued does not run.
_sweep_over = None


def _join_sweep(over) -> None:
    """Worker initializer: keep the sweep's end event."""
    global _sweep_over
    _sweep_over = over


def _sweep_value(sub: Scenario, root: Path, subdir: str) -> Optional[tuple[tuple, bool, Path]]:
    """Run one checked sweep value: its comparison row (period_est,
    amplitude, decay_rate), its aborted flag and its artifact directory.
    Only these return from a worker process; the trajectory stays there.
    A worker that takes the value after the sweep is over returns None."""
    if _sweep_over is not None and _sweep_over.is_set():
        return None
    artifact = run_scenario(sub, root, subdir=subdir)
    metrics = artifact.metrics
    amplitude = analysis.tail_amplitude(artifact.bundle, artifact.trajectory)
    row = (metrics["period_est"], amplitude, metrics["decay_rate"])
    return row, metrics["aborted"], artifact.directory


def cmd_sweep(args) -> int:
    """Run every value of a sweep, in forked worker processes when more than
    one value and more than one usable CPU allow it, in process otherwise;
    the printed lines and comparison.csv follow value order either way."""
    scn = load_scenario(args.target)
    runs = expand_sweep(scn)
    for _, sub in runs:  # every value is checked before the first run
        check_scenario(sub)
    root = _out_root(args.out) / scn.name
    workers = min(len(runs), _usable_cpus())
    fork = _fork_context() if workers > 1 else None
    pool, spread = None, map
    if fork is not None:
        # imported here: `import iiorbit` does not load it
        from concurrent.futures import ProcessPoolExecutor

        # Fork, not spawn: a spawned worker imports the package again.
        # The pool forks all its workers before it starts its manager
        # thread, and multiprocessing flushes stdout and stderr before
        # each fork, so no worker writes the parent's buffer again.
        over = fork.Event()
        pool = ProcessPoolExecutor(
            workers, mp_context=fork, initializer=_join_sweep, initargs=(over,)
        )
        spread = pool.map
    rows = []
    failed = False
    try:
        results = spread(
            _sweep_value,
            [sub for _, sub in runs],
            [root] * len(runs),
            [f"value-{i}" for i in range(len(runs))],
        )
        for (value, _), (row, aborted, directory) in zip(runs, results):
            rows.append((value, *row))
            failed = failed or aborted
            print(f"value {value!r} -> {directory}")
    finally:
        if pool is not None:
            # After an error, values not yet started never run. The pool
            # cancels the calls it still holds; the event stops those it
            # has already queued to the workers (up to workers + 1).
            over.set()
            pool.shutdown(cancel_futures=True)

    cmp_path = root / "comparison.csv"
    lines = ["value,period_est,amplitude,decay_rate"]
    lines += [",".join(map(_fmt_value, row)) for row in rows]
    cmp_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"comparison table: {cmp_path}")
    return 1 if failed else 0


def _eval_check(check: dict, metrics: dict) -> tuple[str, str]:
    """Evaluate one check, as read by Scenario.from_dict, against a metrics
    mapping: (status, detail) with status pass or fail; a check on an empty
    metric fails."""
    value = metrics.get(check["metric"])
    if value is None:
        return "fail", "metric not available"
    name, raw, bound = _read_check(check)
    _, test, detail = COMPARISONS[name]
    text = detail.format(shown=_fmt_value(value), abs_value=abs(float(value)), raw=raw, bound=bound)
    return ("pass" if test(value, bound) else "fail"), text


def cmd_report(args) -> int:
    root = Path(args.directory)
    rows = []
    metric_files = sorted(root.rglob("metrics.csv")) if root.is_dir() else []
    for mpath in metric_files:
        scn_path = mpath.parent / "scenario.yaml"
        if not scn_path.is_file():
            rows.append((str(mpath.parent), "-", "error", "scenario.yaml missing"))
            continue
        try:
            checks = load_scenario(str(scn_path)).checks
            metrics = read_metrics_csv(mpath)
        except (OSError, ValueError, yaml.YAMLError) as exc:
            rows.append((str(mpath.parent), "-", "error", " ".join(str(exc).split())))
            continue
        if not checks:
            rows.append((str(mpath.parent), "-", "skipped", "no checks declared"))
            continue
        for check in checks:
            status, detail = _eval_check(check, metrics)
            rows.append((str(mpath.parent), check["metric"], status, detail))
    if not rows:
        print("no artifacts found; nothing to evaluate")
        return 1

    lines = ["artifact,metric,status,detail"]
    evaluated = 0
    failed = 0
    for artifact_dir, metric, status, detail in rows:
        print(f"{status:7s} {artifact_dir} {metric} ({detail})")
        lines.append(",".join(f.replace(",", ";") for f in (artifact_dir, metric, status, detail)))
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
    """Run one verb; the exceptions that end a verb become exit codes here."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"constraint violated: {exc}", file=sys.stderr)
        return 1
    except (ScenarioError, yaml.YAMLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a scenario file that cannot be read raises ScenarioError
        print(f"error: cannot write artifacts: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
