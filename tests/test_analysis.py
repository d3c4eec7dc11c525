"""Orbit sampling, distance/decay metrics, and the two energy-bound checks."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iiorbit import analysis, plants
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
    orbital_distance_tail,
    wrap_angle,
)
from iiorbit.core import ParameterError, admissible_mask, augmented_field, evaluate
from iiorbit.odesim import Trajectory, integrate_adaptive, integrate_fixed
from iiorbit.plants import IwpParams, make_preset, preset_params

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

    @pytest.mark.parametrize("xi0", [[math.nan, 0.0], [0.3, math.inf]])
    def test_non_finite_seed_rejected(self, bundles, xi0):
        # named before the equilibrium test, which an inf seed would fool
        with pytest.raises(ValueError, match="is not finite"):
            orbit_samples(bundles["iwp-default"], xi0)

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

    def test_seed_angle_is_wrapped(self, bundles):
        # a seed wound by a full turn of the link angle samples the same orbit
        bundle = bundles["iwp-default"]
        plain = orbit_samples(bundle, [1.0, 0.0])
        wound = orbit_samples(bundle, [1.0 + TWO_PI, 0.0])
        assert abs(wound.period - plain.period) <= 1e-12
        assert np.max(np.abs(wound.samples - plain.samples)) <= 1e-12

    def test_one_crossing_search_per_integration(self, bundles, monkeypatch):
        # every scouting pass and every probe is searched for crossings
        # once; the final resampling pass is not searched
        from iiorbit import analysis, odesim

        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        for module, name in [
            (analysis, "integrate_adaptive"),
            (analysis, "integrate_fixed"),
            (analysis, "detect_crossings"),
            (odesim, "detect_crossings"),
        ]:
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        orbit_samples(bundles["iwp-default"], [1.0, 0.0])
        integrations = [c for c in calls if c != "detect_crossings"]
        searched = [c for name in integrations[:-1] for c in (name, "detect_crossings")]
        assert calls == searched + ["integrate_fixed"]

    @staticmethod
    def scouted(monkeypatch):
        """Record the horizon of every scouting pass orbit_samples makes."""
        horizons = []

        def recorded(field, x0, t0, t1, **kwargs):
            horizons.append(t1)
            return integrate_adaptive(field, x0, t0, t1, **kwargs)

        monkeypatch.setattr(analysis, "integrate_adaptive", recorded)
        return horizons

    def test_no_hint_scouts_from_one_second(self, bundles, monkeypatch):
        bundle = bundles["lti-identity"]
        plain = orbit_samples(bundle, [1.0, 0.0])
        horizons = self.scouted(monkeypatch)
        unhinted = orbit_samples(bundle, [1.0, 0.0], period=None)
        assert horizons == [1.0, 4.0, 16.0]
        assert unhinted.period == plain.period
        assert np.array_equal(unhinted.samples, plain.samples)

    def test_period_hint_sizes_the_scouting(self, bundles, dcac_unhinted, monkeypatch):
        horizons = self.scouted(monkeypatch)
        hinted = orbit_samples(bundles["dcac-default"], dcac_unhinted.seed, period=0.02)
        assert max(horizons) <= 0.06
        assert abs(hinted.period - dcac_unhinted.orbit.period) <= 1e-12
        assert np.max(np.abs(hinted.samples - dcac_unhinted.orbit.samples)) <= 1e-9

    @pytest.mark.parametrize("hint", [1e-5, 50 * 0.02])
    def test_wrong_hint_still_finds_the_period(self, bundles, dcac_unhinted, hint):
        orb = orbit_samples(bundles["dcac-default"], dcac_unhinted.seed, period=hint)
        assert abs(orb.period - 0.02) <= 1e-9

    @pytest.mark.parametrize("hint", [0.0, float("nan"), -0.02])
    def test_unusable_hint_scouts_as_unhinted(self, bundles, dcac_unhinted, hint):
        orb = orbit_samples(bundles["dcac-default"], dcac_unhinted.seed, period=hint)
        assert abs(orb.period - 0.02) <= 1e-9
        assert orb.period == dcac_unhinted.orbit.period
        assert np.array_equal(orb.samples, dcac_unhinted.orbit.samples)

    def test_hint_above_a_third_of_the_longest_horizon_is_capped(
        self, bundles, dcac_unhinted, monkeypatch
    ):
        # the longest horizon is lowered to 0.25 s so the capped pass stays
        # short; uncapped, a start of 0.3 s would skip the scouting loop
        monkeypatch.setattr(analysis, "ORBIT_MAX_HORIZON", 0.25)
        horizons = self.scouted(monkeypatch)
        orb = orbit_samples(bundles["dcac-default"], dcac_unhinted.seed, period=0.1)
        assert horizons == [0.25]
        assert abs(orb.period - 0.02) <= 1e-9

    def test_no_period_names_the_horizons_and_hint(self, bundles, monkeypatch):
        # the 17.65 s pendulum swing cannot show a period within 4 s
        monkeypatch.setattr(analysis, "ORBIT_MAX_HORIZON", 4.0)
        bundle = bundles["iwp-default"]
        no_hint = r"no period detected .* over horizons 1\.0 to 4\.0 s$"
        with pytest.raises(ValueError, match=no_hint):
            orbit_samples(bundle, [1.0, 0.0])
        with pytest.raises(
            ValueError, match=r"over horizons 0\.75 to 3\.0 s, period hint 0\.25$"
        ):
            orbit_samples(bundle, [1.0, 0.0], period=0.25)


@pytest.fixture(scope="module")
def dcac_unhinted(bundles):
    """The converter target sampled without a period hint, from a seed on
    its circle of radius A."""
    bundle = bundles["dcac-default"]
    seed = [bundle.info["A"], 0.0]
    return SimpleNamespace(seed=seed, orbit=orbit_samples(bundle, seed))


def _brute_min_distance(points, samples, angle_indices):
    """The all-pairs search, as the pruned one must reproduce it."""
    diff = points[:, None, :] - samples[None, :, :]
    for ai in angle_indices:
        diff[:, :, ai] = (diff[:, :, ai] + np.pi) % TWO_PI - np.pi
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff).min(axis=1))


def _resting_at(state):
    """A two-knot trajectory that stays at one state."""
    return Trajectory(np.array([0.0, 1.0]), np.array([state, state], dtype=float))


class TestOrbitalDistance:
    def _unit_circle_orbit(self, n=512, roll=0):
        th = np.linspace(0.0, TWO_PI, n, endpoint=False)
        samples = np.column_stack([np.cos(th), np.sin(th)])
        return OrbitSet(
            samples=np.roll(samples, roll, axis=0), period=TWO_PI, angle_indices=()
        )

    def test_distance_from_outside_point(self):
        orbit = self._unit_circle_orbit()
        d = orbital_distance_tail(_resting_at([1.5, 0.0]), orbit)
        # exact distance 0.5, quantized by the half chord of 512 samples
        assert abs(d - 0.5) < (math.pi / 512) ** 2

    def test_sample_order_is_irrelevant(self):
        traj = _resting_at([0.3, -1.2])
        d0 = orbital_distance_tail(traj, self._unit_circle_orbit())
        d7 = orbital_distance_tail(traj, self._unit_circle_orbit(roll=7))
        assert d0 == d7

    def test_angle_coordinates_wrap(self):
        orbit = OrbitSet(
            samples=np.array([[math.pi - 0.01, 0.0]]),
            period=1.0,
            angle_indices=(0,),
        )
        traj = _resting_at([-math.pi + 0.01, 0.0])
        assert abs(orbital_distance_tail(traj, orbit) - 0.02) < 1e-12

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(["near", "on", "far"]),
    )
    def test_pruned_search_equals_all_pairs(self, S, n, seed, where):
        # S covers counts below and off multiples of the block size; angle
        # columns carry whole turns, so their values go beyond +-pi
        rng = np.random.default_rng(seed)
        th = np.linspace(0.0, TWO_PI, S, endpoint=False)[:, None]
        samples = rng.uniform(0.1, 3.0, n) * np.sin(rng.integers(1, 3, n) * th + rng.uniform(0, 6, n))
        angles = tuple(int(i) for i in np.flatnonzero(rng.random(n) < 0.5))
        for ai in angles:
            samples[:, ai] += TWO_PI * rng.integers(-2, 3, size=S)
        points = samples[rng.integers(0, S, size=40)]
        if where != "on":
            points = points + rng.normal(size=points.shape) * (1e-3 if where == "near" else 50.0)
            for ai in angles:
                points[:, ai] += TWO_PI * rng.integers(-2, 3, size=len(points))
        got = analysis._min_distance(points, samples, angles)
        assert np.array_equal(got, _brute_min_distance(points, samples, angles))

    def test_pruned_search_equals_all_pairs_across_chunks(self):
        # more points than one chunk holds, near and far from the orbit
        rng = np.random.default_rng(3)
        th = np.linspace(0.0, TWO_PI, 2048, endpoint=False)
        samples = np.column_stack([np.sin(th), 2.0 * np.cos(th), np.sin(2.0 * th), th])
        points = samples[rng.integers(0, 2048, size=1500)] + rng.normal(size=(1500, 4)) * 1e-2
        points[::97] *= 30.0
        got = analysis._min_distance(points, samples, (3,))
        assert np.array_equal(got, _brute_min_distance(points, samples, (3,)))

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


def closed_loop_link_motion(name: str, count: int = 2000, seed: int = 2026):
    """On seeded admissible points x of the preset's sample box, with
    z = phi(x): the link angle, the closed loop's link acceleration x3' and
    the off-manifold rate z2', as read off the augmented field."""
    bundle = make_preset(name)
    box = bundle.x_sample_box
    x = np.random.default_rng(seed).uniform(box[:, 0], box[:, 1], size=(count, 4))
    x = x[admissible_mask(bundle, x)]
    z = evaluate(bundle.manifold.phi, x)
    rates = evaluate(augmented_field(bundle), np.hstack([x, z]))
    return x[:, 0], rates[:, 2], rates[:, 5]


class TestClosedLoopsAreTheLemmaSystems:
    """The closed loop's link moves by the lemma's reduced field, with the
    off-manifold motion as its disturbance eps. The error is relative to
    the size of the field's terms, which cancel near the upright."""

    def test_cartpend_linear_is_lemma2(self):
        p = preset_params("cartpend-lin-default")
        x1, accel, dz2 = closed_loop_link_motion("cartpend-lin-default")
        assert len(x1) == 2000
        eps = -p.a2 * np.cos(x1) * dz2
        den = 1.0 + p.k * p.a2 * np.cos(x1)
        want = (p.a1 * np.sin(x1) + eps) / den
        scale = (np.abs(p.a1 * np.sin(x1)) + np.abs(eps)) / np.abs(den)
        assert np.max(np.abs(accel - want) / scale) <= 1e-13

    def test_iwp_is_lemma1(self):
        p = preset_params("iwp-default")
        x1, accel, dz2 = closed_loop_link_motion("iwp-default")
        eps = -p.b * dz2 / (1.0 + p.b * p.k)
        want = -p.a * np.sin(x1) + eps
        scale = np.abs(p.a * np.sin(x1)) + np.abs(eps)
        assert np.max(np.abs(accel - want) / scale) <= 1e-13


# an iwp design whose target pendulum has a = -m/(1 + b k) = 0.1308 exactly
IWP_A = IwpParams(m=0.1308, b=1.0, k=-2.0, gamma1=1.0, gamma2=1.0)


class TestLemma1:
    def test_reference_case_bound_holds(self):
        rep = lemma1_check(IWP_A, 0.5, 1.0, (0.5, 0.0), 100.0)
        assert rep.bound_holds
        assert rep.max_r <= rep.bound

    def test_unforced_energy_is_conserved(self):
        rep = lemma1_check(IWP_A, 0.0, 1.0, (0.5, 0.0), 100.0)
        assert rep.bound_holds
        assert abs(rep.max_r - rep.r0) < 1e-8

    def test_slower_decay_pumps_more_energy(self):
        reports = [
            lemma1_check(IWP_A, 0.5, l2, (0.5, 0.0), 100.0)
            for l2 in (0.1, 0.5, 1.0, 5.0)
        ]
        assert all(r.bound_holds for r in reports)
        peaks = [r.max_r for r in reports]
        assert all(a > b for a, b in zip(peaks, peaks[1:]))

    def test_signed_perturbation_within_envelope(self):
        rep = lemma1_check(
            IWP_A, 0.5, 1.0, (0.5, 0.0), 100.0,
            perturbation=lambda tau: 0.5 * math.exp(-tau) * math.cos(5.0 * tau),
        )
        assert rep.bound_holds

    def test_bad_arguments_rejected(self):
        # a = 0 is no iwp design: its record rejects m = 0
        with pytest.raises(ParameterError):
            lemma1_check(replace(IWP_A, m=0.0), 0.5, 1.0, (0.5, 0.0), 100.0)
        with pytest.raises(ValueError):
            lemma1_check(IWP_A, 0.5, 0.0, (0.5, 0.0), 100.0)
        with pytest.raises(ValueError):
            lemma1_check(IWP_A, -0.5, 1.0, (0.5, 0.0), 100.0)

    @pytest.mark.parametrize(
        "name,value",
        [("l1", math.nan), ("l1", math.inf), ("l2", math.nan), ("horizon", math.inf),
         ("dt", math.nan), ("x0", (math.nan, 0.0)), ("x0", (0.5, math.inf))],
    )
    def test_non_finite_argument_rejected(self, name, value):
        args = {"l1": 0.5, "l2": 1.0, "x0": (0.5, 0.0), "horizon": 1.0, "dt": 1e-3, name: value}
        with pytest.raises(ValueError, match="must be finite"):
            lemma1_check(IWP_A, **args)


# a1 = 9.8, a2 = 1, k = -4
CARTPEND_LIN = preset_params("cartpend-lin-default")


@pytest.fixture(scope="module")
def lemma2_setup():
    return Lemma2Setup(CARTPEND_LIN, l1=0.1, w0=(0.3, 0.0))


class TestLemma2:
    def test_derived_quantities(self, lemma2_setup):
        s = lemma2_setup
        assert s.k0 == -2.0 * (-4.0) * 1.0 / 9.8
        assert s.Hw_min == -2.45 * math.log(3.0)
        assert s.beta_star == math.acos(0.25)
        # the recorded energy minimum is the energy at rest at the bottom
        assert abs(s.hw(0.0, 0.0) - s.Hw_min) < 1e-15

    def test_setup_rejects_degenerate_slope(self):
        for k in (-1.0, -0.5):
            with pytest.raises(ParameterError, match="k must satisfy"):
                Lemma2Setup(replace(CARTPEND_LIN, k=k), l1=0.1, w0=(0.3, 0.0))
        # a valid design (1 + k a2 is about -1e-9, Hw_min about 203) whose
        # cone's half-width is about 4.5e-5, so the start lies outside it
        with pytest.raises(ParameterError, match="outside the cone"):
            Lemma2Setup(replace(CARTPEND_LIN, k=-1.0 - 1e-9), l1=0.1, w0=(0.3, 0.0))

    @pytest.mark.parametrize(
        "l1,w0",
        [(math.nan, (0.3, 0.0)), (math.inf, (0.3, 0.0)), (0.1, (math.nan, 0.0)),
         (0.1, (0.3, math.inf)), (0.1, (0.3, -math.inf))],
    )
    def test_setup_rejects_non_finite_input(self, l1, w0):
        # a NaN angle used to pass the cone check, and max(r0, NaN) is r0
        with pytest.raises(ParameterError, match="must be finite"):
            Lemma2Setup(CARTPEND_LIN, l1=l1, w0=w0)

    def test_setup_rejects_start_outside_cone(self):
        with pytest.raises(ParameterError, match="outside the cone"):
            Lemma2Setup(CARTPEND_LIN, l1=0.1, w0=(1.4, 0.0))

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
        # F is positive at its minimizer (about 0.696 at r = 7.02), so it
        # has no zero at all
        s = Lemma2Setup(replace(CARTPEND_LIN, k=-1.5), l1=0.1, w0=(0.01, 0.0))
        with pytest.raises(ValueError, match="no sign change .* minimum is 6.96"):
            lemma2_r0(s, scan_limit=1e6)

    def test_roots_below_abs_hw_min_are_found(self):
        # both zeros (about -0.00751 and -0.00531) lie between Hw_min and
        # |Hw_min| and only 0.0022 apart; the larger one is r0
        s = Lemma2Setup(replace(CARTPEND_LIN, k=-50.0, a1=0.1), l1=0.1, w0=(0.01, 0.0))
        assert -0.0078 < s.Hw_min < -0.0077
        r0 = lemma2_r0(s)
        assert abs(r0 - (-0.00531)) < 1e-5
        assert abs(lemma2_F(s, r0)) < 1e-10
        assert lemma2_F(s, r0 - 1e-4) < 0.0 < lemma2_F(s, r0 + 1e-4)
        # the smaller zero lies below the minimizer
        assert lemma2_F(s, -0.0076) > 0.0 > lemma2_F(s, -0.0074)

    def test_threshold_value(self, lemma2_setup):
        r0 = lemma2_r0(lemma2_setup)
        l2min = lemma2_l2min(lemma2_setup, r0)
        assert abs(l2min - 0.92494615) < 1e-6
        # the start (0.3, 0) sits far below the root level, so the rate
        # threshold is set by r0 alone
        assert l2min == lemma2_setup.k0 * 0.1 * math.exp(lemma2_setup.k0 * r0)

    def test_threshold_scales_linearly_with_disturbance_size(self, lemma2_setup):
        doubled = Lemma2Setup(CARTPEND_LIN, l1=0.2, w0=(0.3, 0.0))
        assert lemma2_l2min(doubled) == 2.0 * lemma2_l2min(lemma2_setup)

    def test_threshold_grows_with_start_energy(self):
        thresholds = [
            lemma2_l2min(Lemma2Setup(CARTPEND_LIN, l1=0.1, w0=(0.3, w2)))
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
        s = Lemma2Setup(CARTPEND_LIN, l1=0.0, w0=(0.3, 0.0))
        rep = lemma2_check(s, l2=1.0, horizon=60.0)
        assert rep.stayed_in_cone

    def test_large_slow_disturbance_escapes(self):
        # near the far cone edge a large positive forcing term divided by the
        # vanishing denominator points outward, so the barrier fails
        s = Lemma2Setup(CARTPEND_LIN, l1=400.0, w0=(0.3, 0.0))
        rep = lemma2_check(s, l2=0.01, horizon=20.0)
        assert not rep.stayed_in_cone
        assert rep.min_margin < 0.0

    @pytest.mark.parametrize(
        "l1,l2,escapes", [(0.1, 1.0, False), (0.0, 1.0, False), (400.0, 0.01, True)]
    )
    def test_report_stops_at_the_first_sample_outside(self, l1, l2, escapes):
        # past the cone edge the design is undefined, so an escaping run is
        # reported up to its first sample outside; an in-cone run over all
        # of its samples, as before
        s = Lemma2Setup(CARTPEND_LIN, l1=l1, w0=(0.3, 0.0))
        alpha, margin_of = s.bundle.target.alpha, s.bundle.singularity_margin

        def rhs(y):
            rate, accel = alpha(y)
            return (rate, accel - l1 * math.exp(-l2 * y[2]) / margin_of(y), 1.0)

        traj = integrate_fixed(rhs, [0.3, 0.0, 0.0], 0.0, 20.0, 1e-3)
        margin = s.beta_star - np.abs(traj.states[:, 0])
        outside = np.flatnonzero(margin <= 0.0)
        assert bool(len(outside)) == escapes
        end = outside[0] + 1 if escapes else len(traj)
        if escapes:
            # the motion goes on well past the edge; the report ignores it
            assert end < len(traj) and margin.min() < 100.0 * margin[outside[0]]
        rep = lemma2_check(s, l2, horizon=20.0)
        assert rep.stayed_in_cone != escapes
        assert rep.min_margin == margin[:end].min()
        assert rep.max_abs_w2 == np.abs(traj.states[:end, 1]).max()

    def test_check_rejects_bad_arguments(self, lemma2_setup):
        with pytest.raises(ValueError):
            lemma2_check(lemma2_setup, l2=0.0, horizon=10.0)
        with pytest.raises(ValueError):
            lemma2_check(lemma2_setup, l2=1.0, horizon=-1.0)

    @pytest.mark.parametrize(
        "name,value", [("l2", math.nan), ("l2", math.inf), ("horizon", math.inf), ("dt", math.nan)]
    )
    def test_check_rejects_non_finite_argument(self, lemma2_setup, name, value):
        # a NaN or infinite l2 used to read as a cone exit at a positive margin
        args = {"l2": 1.0, "horizon": 1.0, "dt": 1e-3, name: value}
        with pytest.raises(ValueError, match="must be finite"):
            lemma2_check(lemma2_setup, **args)
