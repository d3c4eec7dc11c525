"""End-to-end acceptance checks, one test per criterion.

Run with -v to get one pass/fail line per criterion. The numbered order
follows the project checklist: structural identities first, then the worked
control designs, then the two energy-bound harnesses, then infrastructure.
"""

import csv
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from iiorbit import cli, plants
from iiorbit.analysis import (
    Lemma2Setup,
    lemma1_check,
    lemma2_F,
    lemma2_l2min,
    lemma2_r0,
    lemma2_check,
    wrap_angle,
)
from iiorbit.core import closed_loop_field, evaluate, immersion
from iiorbit.odesim import integrate_fixed

ROTATION = lambda y: np.array([y[1], -y[0]])


def sample_xi(bundle, count, seed):
    rng = np.random.default_rng(seed)
    lo, hi = bundle.xi_sample_box[:, 0], bundle.xi_sample_box[:, 1]
    return lo + (hi - lo) * rng.random((count, bundle.p))


def read_trajectory(path: Path):
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    header = path.read_text().splitlines()[0].split(",")
    return header, data


def read_comparison(path: Path):
    rows = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            rows.append(
                {k: (float(v) if v else None) for k, v in row.items()}
            )
    return rows


def z_rate(bundle) -> float:
    """The design's off-manifold decay rate, max Re eig of its z matrix."""
    return float(np.max(np.linalg.eigvals(np.array(bundle.z_matrix)).real))


def test_criterion_01_defining_identities_on_seeded_grids(bundles):
    for i, (name, bundle) in enumerate(sorted(bundles.items())):
        worst_fbi = worst_phi = worst_bc = 0.0
        z0 = np.zeros(bundle.z_dim)
        for xi in sample_xi(bundle, 1000, seed=100 + i):
            x, c, residual = immersion(bundle, xi)
            worst_fbi = max(worst_fbi, float(np.max(np.abs(residual))))
            worst_phi = max(worst_phi, float(np.max(np.abs(evaluate(bundle.phi, x)))))
            worst_bc = max(worst_bc, float(np.max(np.abs(evaluate(bundle.v, x, z0) - c))))
        assert worst_fbi <= 1e-9, f"{name}: immersion residual {worst_fbi}"
        assert worst_phi <= 1e-12, f"{name}: manifold residual {worst_phi}"
        assert worst_bc <= 1e-10, f"{name}: boundary residual {worst_bc}"


def test_criterion_02_lti_spectrum_and_analytic_trajectory(bundles):
    bundle = bundles["lti-identity"]
    field = closed_loop_field(bundle)
    A = np.column_stack([field(e) for e in np.eye(4)])
    eigs = np.sort_complex(np.linalg.eigvals(A))
    expected = np.sort_complex(np.array([1j, -1j, -1.0, -1.0]))
    assert np.max(np.abs(eigs - expected)) <= 1e-10

    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    T = np.column_stack([bundle.pi(e) for e in np.eye(2)])
    xi0 = np.array([0.8, -0.6])
    traj = integrate_fixed(field, T @ xi0, 0.0, 4 * math.pi, 1e-3)
    worst = 0.0
    for idx in range(0, len(traj), 100):
        t = traj.times[idx]
        rot = np.array([[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]])
        exact = T @ (rot @ xi0)
        worst = max(worst, float(np.max(np.abs(traj.states[idx] - exact))))
    assert worst <= 1e-7, f"closed loop drifted {worst} from the analytic orbit"


def test_criterion_03_pseudoinverse_matches_closed_form_input(bundles):
    # the least-squares c against the feedback on the manifold, v(pi(xi), 0),
    # on whole stacks of points (criterion 01 takes them one at a time)
    for i, (name, bundle) in enumerate(sorted(bundles.items())):
        x, c, _ = immersion(bundle, sample_xi(bundle, 1000, seed=200 + i))
        worst = float(np.max(np.abs(evaluate(bundle.v, x, np.zeros((len(x), bundle.z_dim))) - c)))
        assert worst <= 1e-10, f"{name}: least-squares c vs v(pi(xi), 0) {worst}"


def test_criterion_04_wheel_pendulum_lift_metrics(lift_artifact):
    m = lift_artifact.metrics
    assert m["aborted"] is False
    assert abs(m["decay_rate"] - z_rate(lift_artifact.bundle)) <= 0.1, m["decay_rate"]
    assert m["energy_drift_tail"] <= 1e-2
    assert m["orbital_dist_tail_max"] <= 0.01
    _, data = read_trajectory(lift_artifact.trajectory_csv)
    tail = data[int(0.8 * len(data)):]
    mean_angle = float(np.mean(wrap_angle(tail[:, 1])))
    assert abs(mean_angle) <= 0.05, f"tail swings about {mean_angle}, not 0"


def test_criterion_05_sweep_monotonicity(tmp_path):
    out = str(tmp_path)

    assert cli.main(["sweep", "iwp-k-sweep", "--out", out]) == 0
    rows = read_comparison(tmp_path / "iwp-k-sweep" / "comparison.csv")
    by_a = sorted(rows, key=lambda r: abs(-1.962 / (1.0 + 10.0 * r["value"])))
    periods = [r["period_est"] for r in by_a]
    assert all(p is not None for p in periods)
    assert all(a > b for a, b in zip(periods, periods[1:])), periods

    assert cli.main(["sweep", "iwp-x0-sweep", "--out", out]) == 0
    rows = read_comparison(tmp_path / "iwp-x0-sweep" / "comparison.csv")
    amplitudes = [r["amplitude"] for r in rows]
    assert all(a is not None for a in amplitudes)
    assert all(a < b for a, b in zip(amplitudes, amplitudes[1:])), amplitudes

    assert cli.main(["sweep", "iwp-pole-sweep", "--out", out]) == 0
    rows = read_comparison(tmp_path / "iwp-pole-sweep" / "comparison.csv")
    rates = [abs(r["decay_rate"]) for r in rows]
    assert all(a < b for a, b in zip(rates, rates[1:])), rates


def test_criterion_06_cartpend_linear_design(tmp_path):
    scn = cli.load_scenario("cartpend-lin-swing")
    artifact = cli.run_scenario(scn, tmp_path)
    m = artifact.metrics
    assert m["aborted"] is False
    assert m["sing_margin_min"] > 0.0
    assert abs(m["decay_rate"] - z_rate(artifact.bundle)) <= 0.1, m["decay_rate"]
    header, data = read_trajectory(artifact.trajectory_csv)
    beta_star = math.acos(0.25)
    x1 = data[:, 1]
    assert np.max(np.abs(x1)) < beta_star, "link angle left the admissible cone"


def test_criterion_07_cartpend_nonlinear_design(tmp_path, bundles):
    scn = cli.load_scenario("cartpend-nl-swing")
    artifact = cli.run_scenario(scn, tmp_path)
    m = artifact.metrics
    assert m["aborted"] is False
    assert m["energy_drift_tail"] <= 1e-2
    _, data = read_trajectory(artifact.trajectory_csv)
    assert np.all(np.isfinite(data))
    x1 = data[:, 1]
    assert np.max(np.abs(x1)) <= math.pi / 2 - 1e-3
    pi = bundles["cartpend-nl-default"].pi
    for s in x1[::100]:
        kprime = pi((s, 1.0))[3]  # k'(s), the slope of the slaving curve
        assert abs(1.0 + kprime * math.cos(s) + 2.0) <= 1e-12


def test_criterion_08_converter_steady_state(tmp_path):
    scn = cli.load_scenario("dcac-steady")
    artifact = cli.run_scenario(scn, tmp_path)
    m = artifact.metrics
    assert m["aborted"] is False
    assert m["u_abs_max"] <= 1.0
    assert abs(m["period_est"] - 0.02) <= 2e-4
    assert abs(m["decay_rate"] - z_rate(artifact.bundle)) <= 4.8, m["decay_rate"]
    _, data = read_trajectory(artifact.trajectory_csv)
    tail = data[int(0.8 * len(data)):]
    radius = np.hypot(tail[:, 1], tail[:, 2])
    assert np.max(np.abs(radius - 12.0)) <= 0.12, "tail left the 1% amplitude band"


def test_criterion_09_decaying_disturbance_energy_bound():
    rng = np.random.default_rng(2026)
    conserved = 0
    for i in range(20):
        a = 0.05 + 1.95 * rng.random()
        l1 = 0.0 if i % 4 == 0 else 0.05 + 0.95 * rng.random()
        l2 = 0.1 + 1.9 * rng.random()
        x0 = (float(rng.uniform(-2.0, 2.0)), float(rng.uniform(-1.0, 1.0)))
        # the iwp design whose target pendulum has a = -m/(1 + b k) = m
        design = plants.IwpParams(m=a, b=1.0, k=-2.0, gamma1=1.0, gamma2=1.0)
        rep = lemma1_check(design, l1, l2, x0, horizon=100.0, dt=2e-3)
        assert rep.bound_holds, (a, l1, l2, x0, rep.max_r, rep.bound)
        if l1 == 0.0:
            conserved += 1
            assert abs(rep.max_r - rep.r0) <= 1e-8
    assert conserved == 5


def test_criterion_10_cone_trapping_threshold():
    setup = Lemma2Setup(plants.preset_params("cartpend-lin-default"), l1=0.1, w0=(0.3, 0.0))
    r0 = lemma2_r0(setup)
    assert abs(lemma2_F(setup, r0)) <= 1e-10
    for r in np.linspace(r0, r0 + 50.0, 100):
        assert lemma2_F(setup, r) >= -1e-9
    l2 = 2.0 * lemma2_l2min(setup, r0)
    rep = lemma2_check(setup, l2, horizon=60.0)
    assert rep.stayed_in_cone
    assert rep.min_margin > 0.0


def test_criterion_11_integrator_oracles():
    traj = integrate_fixed(ROTATION, [1.0, 0.0], 0.0, 2 * math.pi, 1e-3)
    assert np.max(np.abs(traj.final_state - [1.0, 0.0])) < 1e-8

    decay = lambda y: (-y[0],)
    traj = integrate_fixed(decay, [1.0], 0.0, 5.0, 1e-3)
    assert abs(traj.final_state[0] - math.exp(-5.0)) < 1e-10

    errs = []
    for dt in (2e-2, 1e-2, 5e-3):
        tr = integrate_fixed(ROTATION, [1.0, 0.0], 0.0, 2 * math.pi, dt)
        errs.append(np.max(np.abs(tr.final_state - [1.0, 0.0])))
    for coarse, fine in zip(errs, errs[1:]):
        assert 12.0 < coarse / fine < 20.0, errs


def test_criterion_12_rerun_is_byte_identical(lift_artifact, tmp_path):
    # iwp-lift takes the dense path; a 10 s RK4 copy of cartpend-lin-swing
    # (shipped dense) keeps a fixed-step rerun under the same check
    scn = cli.load_scenario("iwp-lift")
    rerun = cli.run_scenario(scn, tmp_path)
    first = lift_artifact.trajectory_csv.read_bytes()
    second = rerun.trajectory_csv.read_bytes()
    assert first == second, "identical scenario produced different trajectory bytes"

    swing = cli.load_scenario("cartpend-lin-swing")
    swing = replace(
        swing, t_span=(0.0, 10.0), integrator={"method": "fixed", "dt": 0.001},
        outputs=["trajectory_csv"], checks=[],
    )
    first, second = (
        cli.run_scenario(swing, tmp_path / f"swing-{i}").trajectory_csv.read_bytes() for i in (1, 2)
    )
    assert first == second, "identical RK4 scenario produced different trajectory bytes"
