"""iiorbit benchmark: one workload per invocation, timed end to end or traced
layer by layer.

    python3 benchmarks/run.py --workload lift --seed 1 --seconds 18 --trace 0

Run it from the root of a source checkout; the package is imported from
./src. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The full record (host, input sizes,
every timing) goes to .bench_build/benchmarks/, and a traced run also writes
its spans there.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from importlib import metadata
from pathlib import Path
from time import perf_counter

import numpy as np
import yaml

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCENARIOS = SRC / "iiorbit" / "scenarios"
OUT = ROOT / ".bench_build" / "benchmarks"

sys.path.insert(0, str(HERE))
from spans import Tracer  # noqa: E402
from speed import SpeedSampler  # noqa: E402

# Scenario workloads: (shipped scenario, horizon, quick-mode horizon). The
# horizons are cut from the shipped ones so that one operation takes a few
# seconds and a run holds several; 40 s is the shortest iwp-lift horizon on
# which its decay-rate check still passes, and 12 s gives every sweep value
# the two section crossings its period estimate needs.
SCENARIO_WORKLOADS = {
    "lift": ("iwp-lift", 40.0, 1.0),
    "converter": ("dcac-steady", None, 0.005),
    "sweep": ("cartpend-lin-k-sweep", 12.0, 2.0),
}
VALIDATE_GRID, VALIDATE_GRID_QUICK = 2000, 20
WORKLOADS = (*SCENARIO_WORKLOADS, "validate")

# Relative size of the seeded initial-state perturbation.
X0_PERTURBATION = 1e-3
SETUP_SAMPLES = 5
MIN_TIMED_OPS = 3

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("import.s", "s"),
    ("plants.make_preset.s", "s"),
    ("plants.make_preset.calls", "count"),
    ("plants.field_eval.calls", "count"),
    ("plants.field_eval.us", "us"),
    ("odesim.integrate_fixed.s", "s"),
    ("odesim.integrate_fixed.self_s", "s"),
    ("odesim.integrate_fixed.steps", "count"),
    ("odesim.integrate_adaptive.s", "s"),
    ("odesim.integrate_adaptive.accepted", "count"),
    ("odesim.integrate_adaptive.field_evals", "count"),
    ("odesim.detect_crossings.s", "s"),
    ("odesim.section.calls", "count"),
    ("analysis.orbit_samples.s", "s"),
    ("analysis.orbit_samples.scout_calls", "count"),
    ("analysis.orbital_distance_tail.s", "s"),
    ("analysis.orbital_distance_tail.pairs", "count"),
    ("analysis.fit_decay.s", "s"),
    ("analysis.energy_drift.s", "s"),
    ("cli.control_history.s", "s"),
    ("cli.trajectory_csv.s", "s"),
    ("cli.trajectory_csv.bytes", "bytes"),
    ("cli.compute_metrics.s", "s"),
    ("cli.run_scenario.s", "s"),
    ("cli.sweep.self_s", "s"),
    ("svgplot.s", "s"),
    ("svgplot.bytes", "bytes"),
    ("core.validate_bundle.s", "s"),
    ("core.validate_bundle.points", "count"),
    ("core.validate_bundle.skipped", "count"),
    ("plants.self_s", "s"),
    ("core.self_s", "s"),
    ("odesim.self_s", "s"),
    ("analysis.self_s", "s"),
    ("cli.self_s", "s"),
    ("svgplot.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.uncovered_s", "s"),
)

# A fresh interpreter pays this before its first operation: import the
# package, load the scenario, build its bundle (every preset for validate).
SETUP_CODE = """
import sys
from time import perf_counter
sys.path.insert(0, sys.argv[1])
from speed import SpeedSampler
del sys.path[0]
with SpeedSampler() as speed:
    t0 = perf_counter()
    import iiorbit
    t1 = perf_counter()
    from iiorbit import cli, plants
    if len(sys.argv) > 2:
        cli.build_bundle(cli.load_scenario(sys.argv[2]).bundle)
    else:
        for name in plants.PRESETS:
            cli.build_bundle({"preset": name})
    t2 = perf_counter()
print(t1 - t0, t2 - t0, speed.scaled(t2 - t0))
"""


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no source tree, broken set-up)."""


def _quiet(fn, *args):
    """Call fn with its standard output discarded (report and sweep print
    one line per artifact)."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _artifact_hashes(root: Path) -> dict:
    """sha256 of every deterministic artifact under root, by relative path."""
    files = [
        p for p in sorted(root.rglob("*"))
        if p.name in ("trajectory.csv", "metrics.csv", "comparison.csv") or p.suffix == ".svg"
    ]
    return {str(p.relative_to(root)): _sha256(p) for p in files}


def _artifact_sizes(root: Path) -> dict:
    """Bases for the ratios of a scenario workload: RK4 steps (one per
    trajectory row after the first), field evaluations (four per RK4 step),
    CSV and SVG bytes."""
    steps = csv_bytes = svg_bytes = 0
    for p in root.rglob("trajectory.csv"):
        with p.open("rb") as fh:
            steps += sum(1 for _ in fh) - 2
        csv_bytes += p.stat().st_size
    for p in root.rglob("*.svg"):
        svg_bytes += p.stat().st_size
    return {
        "rk4_steps": steps,
        "field_evals_computed": 4 * steps,
        "trajectory_csv_bytes": csv_bytes,
        "svg_bytes": svg_bytes,
    }


class ScenarioWorkload:
    """A shipped scenario with a seeded initial-state perturbation, run
    through cli.run_scenario or, for a sweep, through `iiorbit sweep`."""

    def __init__(self, name: str, seed: int, quick: bool):
        shipped, horizon, quick_horizon = SCENARIO_WORKLOADS[name]
        self.name = name
        scenario = yaml.safe_load((SCENARIOS / f"{shipped}.yaml").read_text(encoding="utf-8"))
        horizon = quick_horizon if quick else horizon
        if horizon is not None:
            scenario["t_span"] = [scenario["t_span"][0], horizon]
        rng = np.random.default_rng(seed)
        x0 = np.asarray(scenario["x0"], dtype=float)
        noise = rng.uniform(-1.0, 1.0, x0.size) * X0_PERTURBATION * np.maximum(1.0, np.abs(x0))
        scenario["x0"] = [float(v) for v in x0 + noise]
        self.scenario = scenario
        self.is_sweep = "sweep" in scenario
        self.path = None

    def write_inputs(self, workdir: Path) -> None:
        self.path = workdir / f"{self.name}.yaml"
        self.path.write_text(yaml.safe_dump(self.scenario, sort_keys=True), encoding="utf-8")

    def setup_args(self) -> list[str]:
        return [str(self.path)]

    def sizes(self, pkg: dict, outdir: Path) -> dict:
        return _artifact_sizes(outdir)

    def op(self, pkg: dict, outdir: Path):
        cli = pkg["cli"]
        if self.is_sweep:
            return _quiet(cli.main, ["sweep", str(self.path), "--out", str(outdir)])
        return cli.run_scenario(cli.load_scenario(str(self.path)), outdir)

    def check(self, pkg: dict, outdir: Path, result) -> list[str]:
        cli = pkg["cli"]
        problems = []
        if self.is_sweep:
            if result != 0:
                problems.append(f"sweep exited {result}")
            problems += self._check_comparison(outdir / self.scenario["name"] / "comparison.csv")
            report_dir = outdir / self.scenario["name"]
        else:
            if result.metrics.get("aborted"):
                problems.append(f"aborted at t={result.metrics.get('abort_time')}")
            report_dir = result.directory
        rc = _quiet(cli.main, ["report", str(report_dir)])
        if rc != 0:
            problems.append(f"report on the declared checks exited {rc}")
        return problems

    def _check_comparison(self, path: Path) -> list[str]:
        if not path.is_file():
            return ["comparison.csv missing"]
        lines = path.read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        problems = []
        if len(rows) != len(self.scenario["sweep"]["values"]):
            problems.append(
                f"comparison.csv has {len(rows)} rows for "
                f"{len(self.scenario['sweep']['values'])} sweep values"
            )
        for row in rows:
            for key in ("period_est", "amplitude"):
                if not row.get(key):
                    problems.append(f"comparison.csv row {row.get('value')} lacks {key}")
        return problems


class ValidateWorkload:
    """core.validate_bundle on every preset, on a grid seeded from the
    benchmark seed."""

    name = "validate"

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.grid = VALIDATE_GRID_QUICK if quick else VALIDATE_GRID

    def write_inputs(self, workdir: Path) -> None:
        pass

    def setup_args(self) -> list[str]:
        return []

    def sizes(self, pkg: dict, outdir: Path) -> dict:
        return {"grid_points": 2 * self.grid * len(pkg["plants"].PRESETS)}

    def op(self, pkg: dict, outdir: Path):
        cli, core = pkg["cli"], pkg["core"]
        return [
            core.validate_bundle(cli.build_bundle({"preset": name}), grid_size=self.grid, seed=self.seed)
            for name in pkg["plants"].PRESETS
        ]

    def check(self, pkg: dict, outdir: Path, result) -> list[str]:
        return [f"{r.bundle_name}: {'; '.join(r.failures())}" for r in result if not r.passed]


def make_workload(name: str, seed: int, quick: bool = False):
    if name == "validate":
        return ValidateWorkload(seed, quick)
    return ScenarioWorkload(name, seed, quick)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(workload, samples: int) -> list[tuple[float, float, float]]:
    """(import seconds, set-up seconds, set-up seconds at the reference
    speed) from fresh interpreters."""
    out = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(HERE), *workload.setup_args()],
            cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up interpreter failed:\n{proc.stderr.strip()}")
        out.append(tuple(float(v) for v in proc.stdout.split()))
    return out


def import_package() -> dict:
    sys.path.insert(0, str(SRC))
    import iiorbit
    from iiorbit import analysis, cli, core, odesim, plants, svgplot

    if not Path(iiorbit.__file__).resolve().is_relative_to(SRC):
        raise BenchmarkError(f"imported iiorbit from {iiorbit.__file__}, not from {SRC}")
    return {"cli": cli, "core": core, "plants": plants, "odesim": odesim,
            "analysis": analysis, "svgplot": svgplot}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _version(dist: str):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def host_record(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "commit": _git_commit(),
        "seed": seed,
    }


def run(name: str, seed: int, seconds: float, trace: bool, quick: bool = False,
        workload=None) -> dict:
    """Measure one workload; returns the full record, including the result
    line under "result"."""
    workload = workload or make_workload(name, seed, quick)
    workdir = OUT / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload.write_inputs(workdir)
        setup = measure_setup(workload, 1 if quick else SETUP_SAMPLES)
        pkg = import_package()
        tracer = Tracer(pkg) if trace else None
        return _measure(workload, pkg, tracer, workdir, seed, seconds, setup,
                        1 if quick else MIN_TIMED_OPS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(workload, pkg, tracer, workdir, seed, seconds, setup, min_ops) -> dict:
    attempted = failed = 0
    reference = None
    sizes = None
    walls = {False: [], True: []}
    scaled = {False: [], True: []}
    traced_runs = []
    problems_seen = []

    def one(index: int, traced: bool):
        nonlocal attempted, failed, reference, sizes
        outdir = workdir / f"op-{index}"
        if traced:
            tracer.begin_run(index)
            tracer.install()
        attempted += 1
        problems = []
        with SpeedSampler() as sampler:
            t0 = perf_counter()
            try:
                result = workload.op(pkg, outdir)
            except Exception:  # an operation that raises is counted, not fatal
                result = None
                problems.append("raised:\n" + traceback.format_exc())
            finally:
                wall = perf_counter() - t0
                if traced:
                    tracer.remove()
        if result is not None:
            try:
                problems += workload.check(pkg, outdir, result)
                sizes = sizes or workload.sizes(pkg, outdir)
            except Exception:
                problems.append("check raised:\n" + traceback.format_exc())
        if outdir.is_dir():
            hashes = _artifact_hashes(outdir)
            if reference is None:
                reference = hashes
            elif hashes != reference:
                changed = sorted(k for k in set(hashes) | set(reference)
                                 if hashes.get(k) != reference.get(k))
                problems.append(f"rerun is not byte-identical: {', '.join(changed)}")
            shutil.rmtree(outdir, ignore_errors=True)
        if problems:
            failed += 1
            problems_seen.append(f"op {index}: " + "; ".join(problems))
            print(f"operation {index} failed: {'; '.join(problems)}", file=sys.stderr)
        walls[traced].append(wall)
        scaled[traced].append(sampler.scaled(wall))
        if traced:
            traced_runs.append(index)

    # No separate warm-up: the package is imported before timing starts, and
    # the first operation measured within noise of the later ones. The first
    # operation's artifacts are the reference every rerun must reproduce.
    start = perf_counter()
    index = 0
    if tracer:
        min_ops *= 2
    while index < min_ops or perf_counter() - start < seconds:
        one(index, traced=tracer is not None and index % 2 == 1)
        index += 1

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = {
        "workload": workload.name,
        "host": host_record(seed),
        "sizes": sizes or {},
        "setup_samples": setup,
        "walls": {"untraced": walls[False], "traced": walls[True]},
        "scaled_walls": {"untraced": scaled[False], "traced": scaled[True]},
        "fail_ratio": failed / attempted,
        "problems": problems_seen,
    }
    if tracer is None:
        metrics = {
            "wall_s": statistics.median(scaled[False]),
            "setup_s": statistics.median(s for _, _, s in setup),
            "peak_rss_mb": peak_rss_mb,
        }
        record["raw"] = {
            "wall_s": statistics.median(walls[False]),
            "setup_s": statistics.median(s for _, s, _ in setup),
        }
        units = dict(END_TO_END)
    else:
        summary = tracer.summary(traced_runs, walls[True])
        metrics = dict(summary["layer"])
        metrics["import.s"] = statistics.median(i for i, _, _ in setup)
        metrics["trace.wall_s"] = statistics.median(scaled[True])
        metrics["trace.untraced_wall_s"] = statistics.median(scaled[False])
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
        record["self_s_by_span"] = summary["self_s_by_span"]
        record["missing"] = tracer.missing
        record["spans"] = tracer.span_records()
        units = dict(PER_LAYER)
    record["metrics"] = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
    record["result"] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }
    return record


def print_summary(record: dict) -> None:
    walls = record["walls"]
    print(f"workload {record['workload']}  host {json.dumps(record['host'])}")
    print(f"sizes per operation {json.dumps(record['sizes'])}")
    print(f"timed operations: {len(walls['untraced'])} untraced, {len(walls['traced'])} traced")
    for name, m in record["metrics"].items():
        value = "missing" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:42s} {value:>14s} {m['unit']}")
    for name, value in record.get("raw", {}).items():
        print(f"  {name + ' (measured)':42s} {value:>14.6g} s")
    res = record["result"]
    print(f"  {'fail_ratio':42s} {record['fail_ratio']:>14.6g} ratio "
          f"({res['failed']} of {res['attempted']} operations failed)")
    if "self_s_by_span" in record:
        print("self time per span, s per operation:")
        for name, s in record["self_s_by_span"].items():
            print(f"  {name:42s} {s:>14.6g}")
        for metric, reason in record["missing"].items():
            print(f"  missing {metric}: {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="short horizons and one set-up sample, for the self-check")
    args = parser.parse_args(argv)
    if not (SRC / "iiorbit" / "__init__.py").is_file():
        print(f"error: no iiorbit source tree at {SRC}", file=sys.stderr)
        return 2
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print_summary(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
