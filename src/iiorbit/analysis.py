"""Post-run metrics and the two perturbation-bound harnesses.

Metrics: sampled limit orbits, distance-to-orbit, exponential decay fitting
of the off-manifold coordinate, and first-integral drift. Harnesses: the
energy bound for the pendulum under an exponentially decaying disturbance,
and the cone-invariance bound for the cart-pendulum's reduced dynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import IandIBundle, ParameterError, UNIQUE_ATTRACTIVE_ORBIT, evaluate
from .odesim import (
    IntegrationAbort,
    Trajectory,
    estimate_period,
    detect_crossings,
    integrate_adaptive,
    integrate_fixed,
    rk4_step,
)

TWO_PI = 2.0 * math.pi


def wrap_angle(x):
    """Principal value in (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(x), TWO_PI)


@dataclass(frozen=True)
class OrbitSet:
    """One period of a limit orbit, densely and uniformly sampled in time.

    samples has shape (N, n) with the last sample closing onto the first;
    angle_indices mark coordinates whose differences live on the circle.
    """

    samples: np.ndarray
    period: float
    angle_indices: tuple[int, ...] = ()


@dataclass(frozen=True)
class DecayFit:
    """Log-linear least-squares fit of an exponentially decaying norm.

    rate is the fitted slope of log|z| (negative for decay), amplitude the
    fitted value at t = 0, residual the RMS misfit of the line.
    """

    rate: float
    amplitude: float
    residual: float


@dataclass
class Lemma1Report:
    bound_holds: bool
    max_r: float
    bound: float
    r0: float


@dataclass
class Lemma2Report:
    stayed_in_cone: bool
    max_abs_w2: float
    min_margin: float


def _refine_crossing(field, y_knot, gap, section):
    """Zero of section(flow(y_knot, dt)) for dt in [0, gap], located by
    bisection on single RK4 steps. Returns (dt, state at dt)."""
    s_lo = section(y_knot)
    if s_lo == 0.0:
        return 0.0, np.asarray(y_knot, dtype=float).copy()
    lo, hi = 0.0, gap
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        s_mid = section(rk4_step(field, y_knot, mid))
        if s_mid == 0.0:
            lo = hi = mid
            break
        if (s_mid > 0) == (s_lo > 0):
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * gap:
            break
    dt = 0.5 * (lo + hi)
    return dt, np.asarray(rk4_step(field, y_knot, dt)) if dt > 0 else y_knot.copy()


def orbit_samples(
    bundle: IandIBundle,
    xi0: Sequence[float],
    samples_per_period: int = 2048,
    max_horizon: float = 1e4,
) -> OrbitSet:
    """Sample one period of the target orbit through xi0, mapped into the
    plant's state space.

    The target is integrated until a period shows up in its section
    crossings (targets with a single attractive orbit relax onto it during
    this scouting pass). The orbit is then anchored on a refined crossing,
    its period measured crossing-to-crossing, and one fixed-step pass lays
    down samples_per_period uniform samples whose last state closes onto
    the first to integrator accuracy.
    """
    xi0 = np.asarray(xi0, dtype=float)
    field = bundle.target.alpha
    speed0 = float(np.max(np.abs(field(xi0))))
    if speed0 <= 1e-12 * max(1.0, float(np.max(np.abs(xi0)))):
        # an equilibrium never crosses the section transversally; without
        # this guard the identically-zero section signal reads as a chain
        # of spurious crossings
        raise ValueError(
            f"xi0={xi0.tolist()} is an equilibrium of the target of "
            f"{bundle.name}; no periodic orbit passes through it"
        )
    section_index = min(1, bundle.target.p - 1)
    section = lambda s: s[section_index]

    horizon = 1.0
    anchor = None
    period = None
    while horizon <= max_horizon:
        traj = integrate_adaptive(field, xi0, 0.0, horizon, rtol=1e-11, atol=1e-13)
        period0 = estimate_period(traj, section)
        if period0 is not None:
            events = [e for e in detect_crossings(traj, section) if e.direction > 0]
            direction = 1
            if not events:
                events = detect_crossings(traj, section)
                direction = events[-1].direction
            # anchor on the stored knot just before the last crossing, then
            # localize the crossing itself with single RK4 steps
            i = int(np.searchsorted(traj.times, events[-1].time, side="right")) - 1
            i = min(i, len(traj) - 2)
            gap = float(traj.times[i + 1] - traj.times[i])
            _, y1 = _refine_crossing(field, traj.states[i], gap, section)
            probe = integrate_fixed(
                field, y1, 0.0, 1.3 * period0, period0 / samples_per_period
            )
            returns = [
                e
                for e in detect_crossings(probe, section, min_separation=0.2 * period0)
                if e.direction == direction and e.time > 0.25 * period0
            ]
            if returns:
                j = int(np.searchsorted(probe.times, returns[0].time, side="right")) - 1
                j = min(j, len(probe) - 2)
                pgap = float(probe.times[j + 1] - probe.times[j])
                dt2, y2 = _refine_crossing(field, probe.states[j], pgap, section)
                scale = max(1.0, float(np.max(np.abs(y1))))
                if float(np.max(np.abs(y2 - y1))) <= 1e-6 * scale:
                    anchor = y1
                    period = float(probe.times[j]) + dt2
                    break
        horizon *= 4.0
    if anchor is None:
        raise ValueError(
            f"no period detected for target of {bundle.name} from xi0={xi0.tolist()}"
        )

    fine = integrate_fixed(field, anchor, 0.0, period, period / samples_per_period)
    samples = evaluate(bundle.immersion.pi, fine.states)
    return OrbitSet(
        samples=samples, period=float(period), angle_indices=bundle.angle_indices
    )


def _min_distance(
    points: np.ndarray, samples: np.ndarray, angle_indices: tuple[int, ...]
) -> np.ndarray:
    """Min Euclidean distance from each point to the sample cloud, with
    circle-aware differences on angle coordinates. Chunked to bound memory."""
    points = np.atleast_2d(points)
    out = np.empty(len(points))
    for lo in range(0, len(points), 256):
        chunk = points[lo : lo + 256]
        diff = chunk[:, None, :] - samples[None, :, :]
        for ai in angle_indices:
            diff[:, :, ai] = (diff[:, :, ai] + np.pi) % TWO_PI - np.pi
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        out[lo : lo + 256] = np.sqrt(d2.min(axis=1))
    return out


def orbital_distance(traj: Trajectory, orbit: OrbitSet, t: float) -> float:
    """Distance from the interpolated state at time t to the sampled orbit."""
    state = traj.interpolate(t)
    return float(_min_distance(state[None, :], orbit.samples, orbit.angle_indices)[0])


def orbital_distance_tail(
    traj: Trajectory,
    orbit: OrbitSet,
    fraction: float = 0.1,
    max_points: int = 8192,
) -> float:
    """Max distance to the orbit over the final `fraction` of the run,
    evaluated on at most max_points stored samples."""
    tail = traj.tail(fraction)
    idx = np.unique(np.linspace(0, len(tail) - 1, min(len(tail), max_points)).astype(int))
    d = _min_distance(tail.states[idx], orbit.samples, orbit.angle_indices)
    return float(d.max())


def fit_decay(traj_z: Trajectory) -> DecayFit:
    """Least-squares line through log|z(t)| over the window
    1e-10 <= |z| <= 0.5 |z(0)|.

    Raises ValueError when z starts at zero or fewer than 10 samples fall in
    the window.
    """
    norms = np.linalg.norm(traj_z.states, axis=1)
    z0 = norms[0]
    if z0 <= 0.0:
        raise ValueError("off-manifold coordinate starts at zero; nothing to fit")
    mask = (norms >= 1e-10) & (norms <= 0.5 * z0)
    if int(mask.sum()) < 10:
        raise ValueError(
            f"only {int(mask.sum())} samples inside the fit window; need at least 10"
        )
    t = traj_z.times[mask]
    y = np.log(norms[mask])
    slope, intercept = np.polyfit(t, y, 1)
    resid = y - (slope * t + intercept)
    return DecayFit(
        rate=float(slope),
        amplitude=float(np.exp(intercept)),
        residual=float(np.sqrt(np.mean(resid**2))),
    )


def energy_drift(bundle: IandIBundle, traj: Trajectory, tail_fraction: float = 0.2) -> float:
    """Relative spread of the target's first integral along the projected
    trajectory tail: (max - min) / max(|mean|, 1e-9)."""
    H = bundle.target.first_integral
    if H is None:
        raise ValueError(f"bundle {bundle.name} has no first integral")
    tail = traj.tail(tail_fraction)
    vals = evaluate(H, bundle.project_xi(tail.states))
    return float((vals.max() - vals.min()) / max(abs(float(vals.mean())), 1e-9))


def lemma1_check(
    a: float,
    l1: float,
    l2: float,
    x0: Sequence[float],
    horizon: float,
    dt: float = 1e-3,
    perturbation: Optional[Callable[[float], float]] = None,
) -> Lemma1Report:
    """Energy bound for the pendulum x1'' = -a sin(x1) + eps(t) under
    |eps(t)| <= l1 exp(-l2 t).

    Simulates the fixed-sign worst case eps(t) = l1 exp(-l2 t) (or a caller
    supplied signed perturbation within the same envelope) and checks
    r(t) = x3^2/2 - a cos(x1) against
    r(0) + l1 |x3(0)| / l2 + l1 (a + l1) / l2^2.
    """
    if a <= 0 or l1 < 0 or l2 <= 0 or horizon <= 0:
        raise ValueError("need a > 0, l1 >= 0, l2 > 0, horizon > 0")
    x1_0, x3_0 = float(x0[0]), float(x0[1])
    eps = perturbation if perturbation is not None else (lambda tau: l1 * math.exp(-l2 * tau))

    def rhs(y):
        return (y[1], -a * math.sin(y[0]) + eps(y[2]), 1.0)

    traj = integrate_fixed(rhs, [x1_0, x3_0, 0.0], 0.0, horizon, dt)
    r = 0.5 * traj.states[:, 1] ** 2 - a * np.cos(traj.states[:, 0])
    r0 = 0.5 * x3_0**2 - a * math.cos(x1_0)
    l3 = l1 * abs(x3_0)
    l4 = l1 * (a + l1)
    bound = r0 + l3 / l2 + l4 / l2**2
    max_r = float(r.max())
    return Lemma1Report(
        bound_holds=max_r <= bound + 1e-9, max_r=max_r, bound=bound, r0=r0
    )


@dataclass
class Lemma2Setup:
    """Reduced cart-pendulum dynamics with a decaying disturbance.

    The motion w1'' = (a1 sin(w1) + eps(t)) / (1 + k a2 cos(w1)) lives in the
    angle cone (-beta_star, beta_star). Derived quantities:
      k0        = -2 k a2 / a1
      Hw_min    = (a1/(k a2)) ln(-1 - k a2), the potential's minimum
      beta_star = arccos(-1/(k a2)), the cone half-width
    """

    k: float
    a1: float
    a2: float
    l1: float
    w0: tuple[float, float]

    def __post_init__(self):
        if self.a1 <= 0 or self.a2 <= 0:
            raise ParameterError("a1 and a2 must be positive")
        if self.l1 < 0:
            raise ParameterError("l1 must be nonnegative")
        if self.k >= -1.0 / self.a2 - 1e-6:
            raise ParameterError(
                f"k must satisfy k < -1/a2 with margin 1e-6 (got k={self.k}); "
                "the cone width and Hw_min degenerate at the boundary"
            )
        self.k0 = -2.0 * self.k * self.a2 / self.a1
        self.Hw_min = (self.a1 / (self.k * self.a2)) * math.log(-1.0 - self.k * self.a2)
        self.beta_star = math.acos(-1.0 / (self.k * self.a2))
        self.w0 = (float(self.w0[0]), float(self.w0[1]))
        if abs(self.w0[0]) >= self.beta_star:
            raise ParameterError(
                f"w0[0]={self.w0[0]} outside the cone (-{self.beta_star}, {self.beta_star})"
            )

    def hw(self, w1: float, w2: float) -> float:
        """Energy 0.5 w2^2 + (a1/(k a2)) ln|1 + k a2 cos(w1)|."""
        return 0.5 * w2**2 + (self.a1 / (self.k * self.a2)) * math.log(
            abs(1.0 + self.k * self.a2 * math.cos(w1))
        )


def lemma2_F(setup: Lemma2Setup, r: float) -> float:
    """Root function exp(-(k a2/a1) r) - sqrt(2 (r - Hw_min)).

    The exponent is positive (k < 0), so the exponential wins for large r;
    below the largest root the square root dominates.
    """
    arg = 2.0 * (r - setup.Hw_min)
    if arg < 0:
        raise ValueError(f"r={r} below the domain edge Hw_min={setup.Hw_min}")
    return math.exp(-(setup.k * setup.a2 / setup.a1) * r) - math.sqrt(arg)


def lemma2_r0(setup: Lemma2Setup, scan_limit: float = 1e9) -> float:
    """Largest zero of the root function, by scan-bracketing plus bisection.

    Scans a linear grid from |Hw_min| upward, then doubles; keeps the last
    sign change and bisects it to 1e-12 relative width. Raises ValueError
    (reporting the function's range) if no sign change is found.
    """
    start = abs(setup.Hw_min) + 1e-9 * max(1.0, abs(setup.Hw_min))
    rs = [start + 0.01 * j for j in range(5001)]
    r = rs[-1] * 2.0
    while r <= scan_limit:
        rs.append(r)
        r *= 2.0

    def F(r: float) -> float:
        # the exponential term overflows long after it has won; treat that
        # as +inf so the scan over large r keeps the right sign
        try:
            return lemma2_F(setup, r)
        except OverflowError:
            return math.inf

    bracket = None
    f_prev = F(rs[0])
    f_min, f_max = f_prev, f_prev
    for rl, rr in zip(rs[:-1], rs[1:]):
        f_next = F(rr)
        f_min, f_max = min(f_min, f_next), max(f_max, f_next)
        if f_prev == 0.0:
            bracket = (rl, rl)
        elif f_prev * f_next < 0.0:
            bracket = (rl, rr)
        f_prev = f_next
    if bracket is None:
        raise ValueError(
            "no sign change of the root function up to "
            f"{scan_limit:g} (F ranges over [{f_min:.3e}, {f_max:.3e}])"
        )
    rl, rr = bracket
    if rl == rr:
        return rl
    fl = F(rl)
    while rr - rl > 1e-12 * max(1.0, abs(rr)):
        rm = 0.5 * (rl + rr)
        fm = F(rm)
        if fm == 0.0:
            return rm
        if (fm > 0) == (fl > 0):
            rl, fl = rm, fm
        else:
            rr = rm
    return 0.5 * (rl + rr)


def lemma2_l2min(setup: Lemma2Setup, r0: Optional[float] = None) -> float:
    """Sufficient disturbance decay rate
    k0 l1 exp(k0 max{r0, Hw_min + Hw(w0)})."""
    if r0 is None:
        r0 = lemma2_r0(setup)
    level = max(r0, setup.Hw_min + setup.hw(*setup.w0))
    return setup.k0 * setup.l1 * math.exp(setup.k0 * level)


def lemma2_check(
    setup: Lemma2Setup,
    l2: float,
    horizon: float,
    dt: float = 1e-3,
) -> Lemma2Report:
    """Simulate the reduced dynamics under eps(t) = l1 exp(-l2 t) and report
    whether w1 stayed strictly inside the cone.

    An integrator abort (blow-up at the cone edge) is reported as a cone
    exit, not raised.
    """
    if l2 <= 0 or horizon <= 0:
        raise ValueError("need l2 > 0 and horizon > 0")
    k, a1, a2, l1 = setup.k, setup.a1, setup.a2, setup.l1
    ka2 = k * a2

    def rhs(y):
        return (
            y[1],
            (a1 * math.sin(y[0]) + l1 * math.exp(-l2 * y[2]))
            / (1.0 + ka2 * math.cos(y[0])),
            1.0,
        )

    aborted = False
    try:
        traj = integrate_fixed(rhs, [setup.w0[0], setup.w0[1], 0.0], 0.0, horizon, dt)
    except IntegrationAbort as exc:
        traj = exc.trajectory
        aborted = True
    margin = setup.beta_star - np.abs(traj.states[:, 0])
    min_margin = float(margin.min()) if len(traj) else 0.0
    return Lemma2Report(
        stayed_in_cone=(not aborted) and min_margin > 0.0,
        max_abs_w2=float(np.max(np.abs(traj.states[:, 1]))),
        min_margin=min_margin,
    )
