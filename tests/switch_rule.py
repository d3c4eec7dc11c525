"""The switch rule: which shipped scenarios may take `method: dense`.

A scenario takes the dense integrator only where it is measurably more
accurate than RK4 on the same dt grid. Both are measured, row by row over
the full span, against a reference: RK4 on the same grid with SUBSTEPS
sub-steps per row, whose state increments are accumulated with a
compensated (Kahan) sum, so that its rounding error does not grow with its
step count (Kahan 1965; Hairer, Lubich & Wanner, *Geometric Numerical
Integration*, sec. VIII.5). The same reference at SUBSTEPS // 2 sub-steps
gives its resolution delta, the largest difference between the two. A
scenario passes only if

    e_dense + delta <= e_rk4 - delta,

so a comparison that the reference cannot resolve fails. A sweep switches
only if every one of its values passes.

Run from the repository root:

    PYTHONPATH=src python -W error tests/switch_rule.py [NAME ...]

Without names it checks every shipped scenario whose integrator is dense,
and exits 1 if there is none. It prints delta, both errors and their ratio
for each scenario or sweep value, and exits 1 naming those that fail. The
values run in forked worker processes, one per usable CPU. pytest does not
collect this file; tests import it.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

import numpy as np

from iiorbit import cli
from iiorbit.core import augmented_field
from iiorbit.odesim import _grid, _kernels, integrate_dense, integrate_fixed

SUBSTEPS = 8


def compensated_reference(field, x0, times, substeps: int) -> np.ndarray:
    """RK4 with `substeps` equal sub-steps per interval of `times`, the
    state kept as a rounded sum plus its compensation e (Hairer, Lubich &
    Wanner, GNI, Algorithm VIII.5.1); returns the rows at `times`. Each
    sub-step is odesim's generated straight-line rk4_kahan kernel."""
    rows = np.empty((len(times), len(x0)))
    rows[0] = x0
    y = tuple(map(float, x0))
    e = (0.0,) * len(y)
    step = _kernels(len(y)).rk4_kahan
    for i in range(1, len(times)):
        h = (times[i] - times[i - 1]) / substeps
        for _ in range(substeps):
            y, e = step(field, y, e, h)
        rows[i] = y
    return rows


class Verdict(NamedTuple):
    """The reference's resolution delta and the largest grid errors of RK4
    and of the dense integrator against it."""

    delta: float
    e_rk4: float
    e_dense: float

    @property
    def passed(self) -> bool:
        return self.e_dense + self.delta <= self.e_rk4 - self.delta

    @property
    def ratio(self) -> float:
        return self.e_rk4 / self.e_dense if self.e_dense > 0 else float("inf")


def judge(field, y0, t0: float, t1: float, dt: float) -> Verdict:
    """Measure RK4 and dense at dt against the compensated reference."""
    times = _grid(t0, t1, dt)
    ref = compensated_reference(field, y0, times, SUBSTEPS)
    coarse = compensated_reference(field, y0, times, SUBSTEPS // 2)
    rk4 = integrate_fixed(field, y0, t0, t1, dt)
    dense = integrate_dense(field, y0, t0, t1, dt)
    rows = (coarse, rk4.states, dense.states)
    return Verdict(*(float(np.max(np.abs(r - ref))) for r in rows))


def cases(names) -> list[tuple[str, cli.Scenario]]:
    """(label, scenario) for each named scenario, one per value of a sweep."""
    out = []
    for name in names:
        scn = cli.load_scenario(name)
        if scn.sweep:
            out += [(f"{name}[{value!r}]", sub) for value, sub in cli.expand_sweep(scn)]
        else:
            out.append((name, scn))
    return out


def judge_scenario(scn: cli.Scenario) -> Verdict:
    """judge on a scenario's augmented field, start and dt grid."""
    plan = cli.check_scenario(scn)
    return judge(augmented_field(plan.bundle), plan.y0, *scn.t_span, plan.settings["dt"])


def dense_scenarios() -> list[str]:
    """Every shipped scenario whose integrator is dense, sweeps included."""
    names = cli.shipped_scenarios()
    return [n for n in names if cli.load_scenario(n).integrator.get("method") == "dense"]


def main(argv) -> int:
    names = argv or dense_scenarios()
    if not names:
        print("no shipped scenario has a dense integrator", file=sys.stderr)
        return 1
    todo = cases(names)
    scenarios = [scn for _, scn in todo]
    fork = cli._fork_context()
    workers = min(cli._usable_cpus(), len(todo))
    if fork is None or workers < 2:
        verdicts = list(map(judge_scenario, scenarios))
    else:
        with fork.Pool(workers) as pool:
            verdicts = pool.map(judge_scenario, scenarios, chunksize=1)
    width = max(len(label) for label, _ in todo)
    print(f"{'scenario':<{width}} {'delta':>9} {'RK4':>9} {'dense':>9} {'ratio':>6}")
    for (label, _), v in zip(todo, verdicts):
        mark = "" if v.passed else "  FAIL"
        print(f"{label:<{width}} {v.delta:9.2e} {v.e_rk4:9.2e} {v.e_dense:9.2e} "
              f"{v.ratio:6.1f}{mark}")
    bad = [label for (label, _), v in zip(todo, verdicts) if not v.passed]
    if bad:
        print(f"fails the switch rule (e_dense + delta <= e_rk4 - delta): {', '.join(bad)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
