"""Orbit sampling, distance/decay metrics, and the two energy-bound checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iiorbit import plants
from iiorbit.analysis import (
    Lemma2Setup,
    OrbitSet,
    energy_drift,
    fit_decay,
    lemma1_check,
    lemma2_F,
    lemma2_check,
    lemma2_l2min,
    lemma2_r0,
    orbit_samples,
    orbital_distance,
    orbital_distance_tail,
    wrap_angle,
)
from iiorbit.core import ParameterError
from iiorbit.odesim import Trajectory, integrate_adaptive, integrate_fixed

TWO_PI = 2.0 * math.pi


class TestWrapAngle:
    @given(st.floats(min_value=-1e6, max_value=1e6))
    def test_lands_in_halfopen_interval(self, x):
        w = wrap_angle(x)
        assert -math.pi < w <= math.pi

    @given(
        st.floats(min_value=-100.0, max_value=100.0),
        st.integers(min_value=-5, max_value=5),
    )
    def test_periodic(self, x, k):
        assert abs(wrap_angle(x + TWO_PI * k) - wrap_angle(x)) < 1e-9

    @given(st.floats(min_value=-1e4, max_value=1e4))
    def test_shift_is_whole_number_of_turns(self, x):
        turns = (wrap_angle(x) - x) / TWO_PI
        assert abs(turns - round(turns)) < 1e-9

    def test_branch_points(self):
        assert wrap_angle(math.pi) == math.pi
        assert wrap_angle(-math.pi) == math.pi
        assert wrap_angle(0.0) == 0.0
        assert abs(wrap_angle(3 * math.pi / 2) + math.pi / 2) < 1e-15
        assert np.allclose(wrap_angle(np.array([0.1, TWO_PI + 0.1])), 0.1)


class TestOrbitSamples:
    def test_lti_circle(self, bundles):
        orb = orbit_samples(bundles["lti-identity"], [1.0, 0.0])
        assert abs(orb.period - TWO_PI) < 1e-9
        radii = np.linalg.norm(orb.samples[:, :2], axis=1)
        assert np.max(np.abs(radii - 1.0)) < 1e-7
        # the fixed resampling pass must close onto its own start
        assert np.max(np.abs(orb.samples[-1] - orb.samples[0])) < 1e-9

    def test_equilibrium_rejected(self, bundles):
        with pytest.raises(ValueError, match="equilibrium"):
            orbit_samples(bundles["iwp-default"], [0.0, 0.0])

    def test_attractive_orbit_reached_from_off_orbit_seed(self, bundles):
        # the converter target pulls every nonzero seed onto the circle of
        # radius A, so the scouting pass may start well inside it
        bundle = bundles["dcac-default"]
        orb = orbit_samples(bundle, [3.0, 0.0])
        A = bundle.info["A"]
        radii = np.linalg.norm(orb.samples[:, :2], axis=1)
        assert np.max(np.abs(radii - A)) < 1e-6
        assert abs(orb.period - 0.02) < 1e-9

    def test_pendulum_amplitude_is_preserved(self, bundles):
        bundle = bundles["iwp-default"]
        orb = orbit_samples(bundle, [1.0, 0.0])
        # swings through +-1 radian: the sampled link angle peaks there
        assert abs(np.max(orb.samples[:, 0]) - 1.0) < 1e-6
        assert abs(np.min(orb.samples[:, 0]) + 1.0) < 1e-6


class TestOrbitalDistance:
    def _unit_circle_orbit(self, n=512, roll=0):
        th = np.linspace(0.0, TWO_PI, n, endpoint=False)
        samples = np.column_stack([np.cos(th), np.sin(th)])
        return OrbitSet(
            samples=np.roll(samples, roll, axis=0), period=TWO_PI, angle_indices=()
        )

    def test_distance_from_outside_point(self):
        orbit = self._unit_circle_orbit()
        traj = Trajectory(np.array([0.0]), np.array([[1.5, 0.0]]))
        d = orbital_distance(traj, orbit, 0.0)
        # exact distance 0.5, quantized by the half chord of 512 samples
        assert abs(d - 0.5) < (math.pi / 512) ** 2

    def test_sample_order_is_irrelevant(self):
        traj = Trajectory(np.array([0.0]), np.array([[0.3, -1.2]]))
        d0 = orbital_distance(traj, self._unit_circle_orbit(), 0.0)
        d7 = orbital_distance(traj, self._unit_circle_orbit(roll=7), 0.0)
        assert d0 == d7

    def test_angle_coordinates_wrap(self):
        orbit = OrbitSet(
            samples=np.array([[math.pi - 0.01, 0.0]]),
            period=1.0,
            angle_indices=(0,),
        )
        traj = Trajectory(np.array([0.0]), np.array([[-math.pi + 0.01, 0.0]]))
        assert abs(orbital_distance(traj, orbit, 0.0) - 0.02) < 1e-12

    def test_tail_maximum(self):
        orbit = self._unit_circle_orbit()
        times = np.linspace(0.0, 10.0, 101)
        # radius shrinks from 2 toward 1: the last 10% sits near 1 + 0.1 e^-t
        radii = 1.0 + np.exp(-times)
        states = np.column_stack([radii, np.zeros_like(times)])
        d = orbital_distance_tail(Trajectory(times, states), orbit, fraction=0.1)
        assert abs(d - math.exp(-9.0)) < 1e-4


class TestFitDecay:
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 5.0])
    def test_pure_exponential(self, lam):
        times = np.linspace(0.0, 12.0 / lam, 3001)
        states = np.outer(np.exp(-lam * times), np.array([2.0, -1.0]))
        fit = fit_decay(Trajectory(times, states))
        assert abs(fit.rate + lam) < 1e-3 * lam
        assert fit.residual < 1e-10
        assert fit.amplitude > 0.0

    def test_two_pole_block_bias_is_bounded(self):
        # repeated pole at -1: |z| ~ t e^-t, so the log-linear fit reads a
        # slightly slow rate; it must still land within 10% of the pole
        field = lambda z: np.array([z[1], -z[0] - 2.0 * z[1]])
        traj = integrate_fixed(field, [1.0, 0.0], 0.0, 30.0, 1e-3)
        fit = fit_decay(traj)
        assert abs(fit.rate + 1.0) < 0.1

    def test_zero_start_rejected(self):
        times = np.linspace(0.0, 1.0, 50)
        with pytest.raises(ValueError, match="starts at zero"):
            fit_decay(Trajectory(times, np.zeros((50, 2))))

    def test_window_too_small_rejected(self):
        # a non-decaying signal never enters the window |z| <= 0.5 |z(0)|
        times = np.linspace(0.0, 1.0, 50)
        states = np.ones((50, 1))
        with pytest.raises(ValueError, match="need at least 10"):
            fit_decay(Trajectory(times, states))


class TestEnergyDrift:
    def test_target_trajectory_conserves(self, bundles):
        bundle = bundles["iwp-default"]
        field = bundle.target.alpha
        traj_xi = integrate_adaptive(field, [1.0, 0.0], 0.0, 40.0, rtol=1e-11, atol=1e-13)
        states = np.array([bundle.immersion.pi(xi) for xi in traj_xi.states])
        drift = energy_drift(bundle, Trajectory(traj_xi.times, states))
        assert drift < 1e-7

    def test_no_first_integral_raises(self, bundles):
        times = np.linspace(0.0, 1.0, 20)
        traj = Trajectory(times, np.ones((20, 4)))
        with pytest.raises(ValueError, match="no first integral"):
            energy_drift(bundles["dcac-default"], traj)


class TestLemma1:
    def test_reference_case_bound_holds(self):
        rep = lemma1_check(0.1308, 0.5, 1.0, (0.5, 0.0), 100.0)
        assert rep.bound_holds
        assert rep.max_r <= rep.bound

    def test_unforced_energy_is_conserved(self):
        rep = lemma1_check(0.1308, 0.0, 1.0, (0.5, 0.0), 100.0)
        assert rep.bound_holds
        assert abs(rep.max_r - rep.r0) < 1e-8

    def test_slower_decay_pumps_more_energy(self):
        reports = [
            lemma1_check(0.1308, 0.5, l2, (0.5, 0.0), 100.0)
            for l2 in (0.1, 0.5, 1.0, 5.0)
        ]
        assert all(r.bound_holds for r in reports)
        peaks = [r.max_r for r in reports]
        assert all(a > b for a, b in zip(peaks, peaks[1:]))

    def test_signed_perturbation_within_envelope(self):
        rep = lemma1_check(
            0.1308, 0.5, 1.0, (0.5, 0.0), 100.0,
            perturbation=lambda tau: 0.5 * math.exp(-tau) * math.cos(5.0 * tau),
        )
        assert rep.bound_holds

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            lemma1_check(0.0, 0.5, 1.0, (0.5, 0.0), 100.0)
        with pytest.raises(ValueError):
            lemma1_check(0.1308, 0.5, 0.0, (0.5, 0.0), 100.0)
        with pytest.raises(ValueError):
            lemma1_check(0.1308, -0.5, 1.0, (0.5, 0.0), 100.0)


@pytest.fixture(scope="module")
def lemma2_setup():
    return Lemma2Setup(k=-4.0, a1=9.8, a2=1.0, l1=0.1, w0=(0.3, 0.0))


class TestLemma2:
    def test_derived_quantities(self, lemma2_setup):
        s = lemma2_setup
        assert s.k0 == -2.0 * (-4.0) * 1.0 / 9.8
        assert s.Hw_min == -2.45 * math.log(3.0)
        assert s.beta_star == math.acos(0.25)
        # the recorded energy minimum is the energy at rest at the bottom
        assert abs(s.hw(0.0, 0.0) - s.Hw_min) < 1e-15

    def test_setup_rejects_degenerate_slope(self):
        for k in (-1.0, -0.5, -1.0 - 1e-9):
            with pytest.raises(ParameterError, match="k must satisfy"):
                Lemma2Setup(k=k, a1=9.8, a2=1.0, l1=0.1, w0=(0.3, 0.0))

    def test_setup_rejects_start_outside_cone(self):
        with pytest.raises(ParameterError, match="outside the cone"):
            Lemma2Setup(k=-4.0, a1=9.8, a2=1.0, l1=0.1, w0=(1.4, 0.0))

    def test_root_function_domain(self, lemma2_setup):
        with pytest.raises(ValueError, match="below the domain edge"):
            lemma2_F(lemma2_setup, lemma2_setup.Hw_min - 0.1)

    def test_largest_root(self, lemma2_setup):
        r0 = lemma2_r0(lemma2_setup)
        assert 2.9 < r0 < 3.0
        assert abs(lemma2_F(lemma2_setup, r0)) < 1e-10
        # beyond the largest root the exponential term dominates
        for r in np.linspace(r0, r0 + 50.0, 100):
            assert lemma2_F(lemma2_setup, r) > -1e-9

    def test_no_root_reported(self):
        s = Lemma2Setup(k=-50.0, a1=0.1, a2=1.0, l1=0.1, w0=(0.01, 0.0))
        with pytest.raises(ValueError, match="no sign change"):
            lemma2_r0(s, scan_limit=1e6)

    def test_threshold_value(self, lemma2_setup):
        r0 = lemma2_r0(lemma2_setup)
        l2min = lemma2_l2min(lemma2_setup, r0)
        assert abs(l2min - 0.92494615) < 1e-6
        # the start (0.3, 0) sits far below the root level, so the rate
        # threshold is set by r0 alone
        assert l2min == lemma2_setup.k0 * 0.1 * math.exp(lemma2_setup.k0 * r0)

    def test_threshold_scales_linearly_with_disturbance_size(self, lemma2_setup):
        doubled = Lemma2Setup(k=-4.0, a1=9.8, a2=1.0, l1=0.2, w0=(0.3, 0.0))
        assert lemma2_l2min(doubled) == 2.0 * lemma2_l2min(lemma2_setup)

    def test_threshold_grows_with_start_energy(self):
        thresholds = [
            lemma2_l2min(Lemma2Setup(k=-4.0, a1=9.8, a2=1.0, l1=0.1, w0=(0.3, w2)))
            for w2 in (0.0, 5.0, 7.0)
        ]
        assert thresholds[0] < thresholds[1] < thresholds[2]

    def test_fast_decay_keeps_cone(self, lemma2_setup):
        l2 = 2.0 * lemma2_l2min(lemma2_setup)
        rep = lemma2_check(lemma2_setup, l2, horizon=60.0)
        assert rep.stayed_in_cone
        assert rep.min_margin > 0.5
        assert rep.max_abs_w2 < 1.0

    def test_undisturbed_motion_keeps_cone(self):
        s = Lemma2Setup(k=-4.0, a1=9.8, a2=1.0, l1=0.0, w0=(0.3, 0.0))
        rep = lemma2_check(s, l2=1.0, horizon=60.0)
        assert rep.stayed_in_cone

    def test_large_slow_disturbance_escapes(self):
        # near the far cone edge a large positive forcing term divided by the
        # vanishing denominator points outward, so the barrier fails
        s = Lemma2Setup(k=-4.0, a1=9.8, a2=1.0, l1=400.0, w0=(0.3, 0.0))
        rep = lemma2_check(s, l2=0.01, horizon=20.0)
        assert not rep.stayed_in_cone
        assert rep.min_margin < 0.0

    def test_check_rejects_bad_arguments(self, lemma2_setup):
        with pytest.raises(ValueError):
            lemma2_check(lemma2_setup, l2=0.0, horizon=10.0)
        with pytest.raises(ValueError):
            lemma2_check(lemma2_setup, l2=1.0, horizon=-1.0)
