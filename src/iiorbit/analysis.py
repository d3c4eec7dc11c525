"""Post-run metrics and the two perturbation-bound harnesses.

Metrics: sampled limit orbits, distance-to-orbit, exponential decay fitting
of the off-manifold coordinate, and first-integral drift. Harnesses, each
built from the design it is about: the energy bound for the iwp target
pendulum under an exponentially decaying disturbance, and the
cone-invariance bound for the linear cart-pendulum's reduced dynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import IandIBundle, ParameterError, evaluate
from .odesim import (
    IntegrationAbort,
    Trajectory,
    detect_crossings,
    integrate_adaptive,
    integrate_fixed,
    period_from_events,
    rk4_step,
)
from .plants import CartPendLinearParams, IwpParams, make_cartpend_linear, make_iwp

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


def _bisect(fun, lo: float, hi: float, tol: float) -> float:
    """A zero of fun in [lo, hi], where fun changes sign: lo itself when
    fun(lo) is zero, the first midpoint where fun is exactly zero, or the
    midpoint of the bracket once it is at most tol wide."""
    f_lo = fun(lo)
    if f_lo == 0.0:
        return lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = fun(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _refine_crossing(field, traj: Trajectory, event, section):
    """The crossing of a section event located on the flow: bisection on
    single RK4 steps from the event's knot. Returns (time, state)."""
    y = traj.states[event.knot]
    gap = float(traj.times[event.knot + 1] - traj.times[event.knot])
    flow = lambda h: np.array(rk4_step(field, y, h) if h > 0 else y)
    dt = _bisect(lambda h: section(flow(h)), 0.0, gap, 1e-14 * gap)
    return float(traj.times[event.knot]) + dt, flow(dt)


# Uniform samples on one period of the target orbit, and the longest
# scouting horizon orbit_samples tries before it gives up.
ORBIT_SAMPLES_PER_PERIOD = 2048
ORBIT_MAX_HORIZON = 1e4


def orbit_samples(
    bundle: IandIBundle, xi0: Sequence[float], period: Optional[float] = None
) -> OrbitSet:
    """Sample one period of the target orbit through xi0, mapped into the
    plant's state space.

    The angle coordinates of xi0 are wrapped to their principal values, and
    the section is the bundle's own section_index, read in target
    coordinates. The target is integrated until a period shows up in its
    section crossings (targets with a single attractive orbit relax onto it
    during this scouting pass). Scouting starts at a horizon of three times
    the period hint when that is a positive finite number (at most
    ORBIT_MAX_HORIZON), and at 1 s otherwise; each failed horizon is
    quadrupled. The hint only sizes the scouting: the period is always
    measured on the target. The orbit is then anchored on a refined
    crossing, its period measured crossing-to-crossing, and one fixed-step
    pass lays down ORBIT_SAMPLES_PER_PERIOD uniform samples whose last
    state closes onto the first to integrator accuracy. A non-finite xi0
    raises ValueError.
    """
    xi0 = np.array(xi0, dtype=float)
    if not np.all(np.isfinite(xi0)):
        raise ValueError(f"xi0={xi0.tolist()} is not finite; no orbit passes through it")
    angles = [j for j, col in enumerate(bundle.xi_projection) if col in bundle.angle_indices]
    xi0[angles] = wrap_angle(xi0[angles])
    field = bundle.alpha
    speed0 = float(np.max(np.abs(field(xi0))))
    if speed0 <= 1e-12 * max(1.0, float(np.max(np.abs(xi0)))):
        # an equilibrium never crosses the section transversally; without
        # this guard the identically-zero section signal reads as a chain
        # of spurious crossings
        raise ValueError(
            f"xi0={xi0.tolist()} is an equilibrium of the target of "
            f"{bundle.name}; no periodic orbit passes through it"
        )
    section_index = bundle.xi_projection.index(bundle.section_index)
    section = lambda s: s[section_index]

    hinted = period is not None and math.isfinite(period) and period > 0
    horizon = first = min(3.0 * period, ORBIT_MAX_HORIZON) if hinted else 1.0
    while horizon <= ORBIT_MAX_HORIZON:
        traj = integrate_adaptive(field, xi0, 0.0, horizon, rtol=1e-11, atol=1e-13)
        events = detect_crossings(traj, section)
        period0 = period_from_events(events)
        if period0 is not None:
            rising = [e for e in events if e.direction > 0]
            last = rising[-1] if rising else events[-1]
            _, anchor = _refine_crossing(field, traj, last, section)
            probe = integrate_fixed(
                field, anchor, 0.0, 1.3 * period0, period0 / ORBIT_SAMPLES_PER_PERIOD
            )
            returns = [
                e
                for e in detect_crossings(probe, section, min_separation=0.2 * period0)
                if e.direction == last.direction and e.time > 0.25 * period0
            ]
            if returns:
                measured, back = _refine_crossing(field, probe, returns[0], section)
                scale = max(1.0, float(np.max(np.abs(anchor))))
                if float(np.max(np.abs(back - anchor))) <= 1e-6 * scale:
                    break
        horizon *= 4.0
    else:
        hint = f", period hint {period!r}" if period is not None else ""
        raise ValueError(
            f"no period detected for target of {bundle.name} from xi0={xi0.tolist()}"
            f" over horizons {first!r} to {horizon / 4.0!r} s{hint}"
        )

    fine = integrate_fixed(field, anchor, 0.0, measured, measured / ORBIT_SAMPLES_PER_PERIOD)
    samples = evaluate(bundle.pi, fine.states)
    return OrbitSet(samples=samples, period=measured, angle_indices=bundle.angle_indices)


def _sq_distances(points: np.ndarray, samples: np.ndarray, angle_indices) -> np.ndarray:
    """Squared distance from each of the N points to each sample, with
    circle-aware differences on angle coordinates; samples is one (S, n)
    set shared by every point or an (N, S, n) set per point."""
    diff = points[:, None, :] - samples
    for ai in angle_indices:
        diff[:, :, ai] = (diff[:, :, ai] + np.pi) % TWO_PI - np.pi
    return np.einsum("ijk,ijk->ij", diff, diff)


# Consecutive orbit samples per block of the pruned search, and the largest
# point-sample pair count held in memory at once.
DISTANCE_BLOCK = 32
DISTANCE_CHUNK_PAIRS = 256 * 2048


def _min_distance(points: np.ndarray, samples: np.ndarray, angle_indices) -> np.ndarray:
    """Min distance from each point to the sample cloud, equal bit for bit
    to the all-pairs minimum.

    The samples are cut into blocks of DISTANCE_BLOCK consecutive samples
    (the last one wraps), each with its first sample as centre and the
    largest distance from there to its samples as radius. The nearest
    centre bounds a point's answer from above by u, and a block whose
    centre lies more than its radius plus u away holds no sample within u
    (triangle inequality on the torus), so only the remaining blocks are
    searched, with the all-pairs arithmetic, in chunks of points that hold
    at most DISTANCE_CHUNK_PAIRS pairs even when every block stays. The
    slack covers rounding in the bounds, which the angle wrap makes
    absolute, on the scale of the coordinates; NaN bounds keep every block.
    """
    S = len(samples)
    starts = np.arange(0, S, DISTANCE_BLOCK)
    blocks = (starts[:, None] + np.arange(DISTANCE_BLOCK)) % S
    centres = samples[starts]
    radii = np.sqrt(_sq_distances(centres, samples[blocks], angle_indices).max(axis=1))
    slack = 1e-12 * (np.abs(points).max() + np.abs(samples).max() + np.pi)
    out = np.empty(len(points))
    step = max(1, DISTANCE_CHUNK_PAIRS // blocks.size)
    for lo in range(0, len(points), step):
        chunk = points[lo : lo + step]
        d_c = np.sqrt(_sq_distances(chunk, centres, angle_indices))
        lower = d_c - radii
        u = d_c.min(axis=1, keepdims=True)
        k = int((~(lower > u * (1 + 1e-9) + slack)).sum(axis=1).max())
        live = blocks[np.argpartition(lower, k - 1, axis=1)[:, :k]]
        d2 = _sq_distances(chunk, samples[live.reshape(len(chunk), -1)], angle_indices)
        out[lo : lo + step] = np.sqrt(d2.min(axis=1))
    return out


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


# Share of the run that energy_drift and tail_amplitude read.
TAIL_FRACTION = 0.2


def energy_drift(bundle: IandIBundle, traj: Trajectory) -> float:
    """Relative spread of the target's first integral along the projected
    trajectory tail: (max - min) / max(|mean|, 1e-9)."""
    H = bundle.first_integral
    if H is None:
        raise ValueError(f"bundle {bundle.name} has no first integral")
    tail = traj.tail(TAIL_FRACTION)
    vals = evaluate(H, bundle.project_xi(tail.states))
    return float((vals.max() - vals.min()) / max(abs(float(vals.mean())), 1e-9))


def tail_amplitude(bundle: IandIBundle, traj: Trajectory) -> float:
    """Max |first target-projected coordinate| over the run tail, wrapped to
    the principal value when that coordinate is an angle."""
    col = bundle.xi_projection[0]
    vals = traj.tail(TAIL_FRACTION).states[:, col]
    if col in bundle.angle_indices:
        vals = wrap_angle(vals)
    return float(np.max(np.abs(vals)))


def lemma1_check(
    design: IwpParams,
    l1: float,
    l2: float,
    x0: Sequence[float],
    horizon: float,
    dt: float = 1e-3,
    perturbation: Optional[Callable[[float], float]] = None,
) -> Lemma1Report:
    """Energy bound for the design's target pendulum under a disturbance:
    x1'' = -a sin(x1) + eps(t), with a = design.a and
    |eps(t)| <= l1 exp(-l2 t).

    Simulates the target's own field plus the fixed-sign worst case
    eps(t) = l1 exp(-l2 t) (or a caller supplied signed perturbation within
    the same envelope) and checks the target's first integral
    r(t) = x3^2/2 - a cos(x1) against
    r(0) + l1 |x3(0)| / l2 + l1 (a + l1) / l2^2.
    """
    x1_0, x3_0 = float(x0[0]), float(x0[1])
    if not all(map(math.isfinite, (l1, l2, horizon, dt, x1_0, x3_0))):
        raise ValueError("l1, l2, horizon, dt and x0 must be finite")
    if l1 < 0 or l2 <= 0 or horizon <= 0:
        raise ValueError("need l1 >= 0, l2 > 0, horizon > 0")
    iwp = make_iwp(design)
    a = design.a
    eps = perturbation if perturbation is not None else (lambda tau: l1 * math.exp(-l2 * tau))

    def rhs(y):
        rate, accel = iwp.alpha(y)
        return (rate, accel + eps(y[2]), 1.0)

    traj = integrate_fixed(rhs, [x1_0, x3_0, 0.0], 0.0, horizon, dt)
    r = evaluate(iwp.first_integral, traj.states[:, :2])
    r0 = float(iwp.first_integral((x1_0, x3_0)))
    l3 = l1 * abs(x3_0)
    l4 = l1 * (a + l1)
    bound = r0 + l3 / l2 + l4 / l2**2
    max_r = float(r.max())
    return Lemma1Report(
        bound_holds=max_r <= bound + 1e-9, max_r=max_r, bound=bound, r0=r0
    )


@dataclass
class Lemma2Setup:
    """The design's reduced cart-pendulum dynamics with a decaying
    disturbance of size l1, started at w0.

    The motion w1'' = (a1 sin(w1) + eps(t)) / (1 + k a2 cos(w1)) is the
    design's target field plus eps over its control denominator, and lives
    in the angle cone (-design.beta_star, design.beta_star). Derived
    quantities:
      bundle = make_cartpend_linear(design), whose alpha, first_integral
               and singularity_margin the harness reads
      k0     = -2 k a2 / a1
      Hw_min = (a1/(k a2)) ln(-1 - k a2), the potential's minimum
    The energy hw is the target's first integral, which is zero at rest at
    the bottom, plus Hw_min.
    """

    design: CartPendLinearParams
    l1: float
    w0: tuple[float, float]

    def __post_init__(self):
        self.w0 = (float(self.w0[0]), float(self.w0[1]))
        if not all(map(math.isfinite, (self.l1, *self.w0))):
            raise ParameterError("l1 and w0 must be finite")
        if self.l1 < 0:
            raise ParameterError("l1 must be nonnegative")
        d = self.design
        self.bundle = make_cartpend_linear(d)
        self.k0 = -2.0 * d.k * d.a2 / d.a1
        self.Hw_min = (d.a1 / (d.k * d.a2)) * math.log(-1.0 - d.k * d.a2)
        if abs(self.w0[0]) >= d.beta_star:
            raise ParameterError(
                f"w0[0]={self.w0[0]} outside the cone (-{d.beta_star}, {d.beta_star})"
            )

    def hw(self, w1: float, w2: float) -> float:
        """Energy 0.5 w2^2 + (a1/(k a2)) ln|1 + k a2 cos(w1)|."""
        return float(self.bundle.first_integral((w1, w2))) + self.Hw_min


def lemma2_F(setup: Lemma2Setup, r: float) -> float:
    """Root function exp(-(k a2/a1) r) - sqrt(2 (r - Hw_min)).

    The exponent is positive (k < 0), so the exponential wins for large r;
    below the largest root the square root dominates.
    """
    arg = 2.0 * (r - setup.Hw_min)
    if arg < 0:
        raise ValueError(f"r={r} below the domain edge Hw_min={setup.Hw_min}")
    d = setup.design
    return math.exp(-(d.k * d.a2 / d.a1) * r) - math.sqrt(arg)


def lemma2_r0(setup: Lemma2Setup, scan_limit: float = 1e9) -> float:
    """Largest zero of the root function F.

    F is an exponential minus a square root, so it is convex on
    [Hw_min, inf) and has at most two zeros, one on each side of its
    minimizer. The minimizer is bisected as the zero of the increasing F';
    if F is negative there, the largest zero is bracketed to its right by
    doubling the step until F turns positive, then bisected to 1e-12
    relative width. Raises ValueError (with F's minimum) when F is positive
    at its minimizer or stays negative up to scan_limit.
    """
    c = -setup.design.k * setup.design.a2 / setup.design.a1

    def F(r: float) -> float:
        # the exponential term overflows long after it has won; treat that
        # as +inf so the bracket search over large r keeps the right sign
        try:
            return lemma2_F(setup, r)
        except OverflowError:
            return math.inf

    def dF(r: float) -> float:
        arg = 2.0 * (r - setup.Hw_min)
        if arg <= 0.0:
            return -math.inf
        try:
            return c * math.exp(c * r) - 1.0 / math.sqrt(arg)
        except OverflowError:
            return math.inf

    def first_positive(fun, lo: float) -> float:
        """lo + w for the first w in max(1, |lo|) * (1, 2, 4, ...) where
        fun is positive, or NaN once lo + w passes scan_limit."""
        width = max(1.0, abs(lo))
        while not fun(lo + width) > 0.0:
            if lo + width > scan_limit:
                return math.nan
            width *= 2.0
        return lo + width

    lo = setup.Hw_min
    r_min = _bisect(dF, lo, first_positive(dF, lo), 1e-12 * max(1.0, abs(lo)))
    f_min = F(r_min)
    hi = first_positive(F, r_min) if f_min <= 0.0 else math.nan
    if not hi <= scan_limit:
        raise ValueError(
            f"no sign change of the root function up to {scan_limit:g} "
            f"(its minimum is {f_min:.3e} at r = {r_min:.6g})"
        )
    return _bisect(F, r_min, hi, 1e-12 * max(1.0, abs(hi)))


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
    if not all(map(math.isfinite, (l2, horizon, dt))):
        raise ValueError("l2, horizon and dt must be finite")
    if l2 <= 0 or horizon <= 0:
        raise ValueError("need l2 > 0 and horizon > 0")
    alpha, sing_margin, l1 = setup.bundle.alpha, setup.bundle.singularity_margin, setup.l1

    def rhs(y):
        # the singularity margin is minus the control denominator
        rate, accel = alpha(y)
        return (rate, accel - l1 * math.exp(-l2 * y[2]) / sing_margin(y), 1.0)

    aborted = False
    try:
        traj = integrate_fixed(rhs, [setup.w0[0], setup.w0[1], 0.0], 0.0, horizon, dt)
    except IntegrationAbort as exc:
        traj = exc.trajectory
        aborted = True
    margin = setup.design.beta_star - np.abs(traj.states[:, 0])
    # past the first sample outside the cone the design is undefined, so the
    # report describes the motion up to that sample only
    outside = np.flatnonzero(margin <= 0.0)
    end = outside[0] + 1 if len(outside) else len(margin)
    min_margin = float(margin[:end].min()) if end else 0.0
    return Lemma2Report(
        stayed_in_cone=(not aborted) and min_margin > 0.0,
        max_abs_w2=float(np.max(np.abs(traj.states[:end, 1]))),
        min_margin=min_margin,
    )
