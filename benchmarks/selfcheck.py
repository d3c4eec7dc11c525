"""Self-check of the benchmark on short horizons.

    python3 benchmarks/selfcheck.py

1. Runs every workload in quick mode, untraced and traced, through the same
   command line the benchmark is driven by, and confirms that the last line
   is a result whose metrics are exactly the ones BENCHMARK.json lists, each
   with its unit. Quick horizons are too short for some declared checks, so
   failures are printed here, not asserted.
2. Runs a scenario copy whose only check cannot hold (max |u| <= -1) and
   confirms that every operation is counted as failed instead of crashing
   the benchmark, next to a copy whose only check always holds, where none
   may fail.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

GATE_WORKLOAD = "lift"


def check_metric_names(spec: dict) -> list[str]:
    problems = []
    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--quick"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            label = f"{workload} trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{label}: metrics {got} differ from BENCHMARK.json {want}")
            for name, m in result["metrics"].items():
                if m["value"] is None:
                    print(f"{label}: {name} is missing")
                elif not isinstance(m["value"], (int, float)):
                    problems.append(f"{label}: {name} value {m['value']!r} is not a number")
            print(f"{label}: {len(got)} metrics, {result['failed']} of "
                  f"{result['attempted']} operations failed")
    return problems


def check_failure_gate() -> list[str]:
    problems = []
    for label, check, expect_all_failed in (
        ("always-true check", {"metric": "aborted", "equals": False}, False),
        ("impossible check", {"metric": "u_abs_max", "max": -1.0}, True),
    ):
        workload = run.make_workload(GATE_WORKLOAD, 1, quick=True)
        workload.scenario["checks"] = [check]
        try:
            res = run.run(GATE_WORKLOAD, 1, 0.0, False, quick=True, workload=workload)["result"]
        except Exception as exc:  # the point of the check: the benchmark must not crash
            problems.append(f"{label}: benchmark raised {exc!r}")
            continue
        want = res["attempted"] if expect_all_failed else 0
        if res["failed"] != want or res["correct"] == expect_all_failed:
            problems.append(f"{label}: {res['failed']} of {res['attempted']} failed, expected {want}")
        print(f"{label}: {res['failed']} of {res['attempted']} operations failed")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_metric_names(spec) + check_failure_gate()
    for p in problems:
        print(f"FAIL {p}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
