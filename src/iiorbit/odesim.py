"""Initial-value-problem integration, trajectory storage, and section crossings.

All fields are autonomous: time-dependent terms are handled upstream by
augmenting the state with a clock coordinate. Two integrators are provided,
a classical fixed-step RK4 (the default for reproducible runs) and an
embedded Dormand-Prince 5(4) pair with adaptive step size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np


class FieldEvaluationError(RuntimeError):
    """Raised by a vector field evaluated outside its admissible region."""


class IntegrationAbort(RuntimeError):
    """Integration stopped before reaching t1.

    Carries the partial trajectory accumulated so far and the time at which
    the abort happened, so callers can inspect or save what was computed.
    """

    def __init__(self, message: str, trajectory: "Trajectory", abort_time: float):
        super().__init__(message)
        self.trajectory = trajectory
        self.abort_time = abort_time


# An autonomous vector field x' = F(x): state components in, one component
# per coordinate out.
Field = Callable[[Sequence[float]], Sequence[float]]


class Trajectory:
    """Time-stamped state samples.

    times must be strictly increasing; states is an (N, dimension) array.
    """

    def __init__(self, times: Sequence[float], states: Sequence[Sequence[float]]):
        self.times = np.asarray(times, dtype=float)
        self.states = np.asarray(states, dtype=float)
        if self.states.ndim == 1:
            self.states = self.states.reshape(len(self.times), -1)
        if self.times.ndim != 1 or len(self.times) != len(self.states):
            raise ValueError("times and states must have the same length")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        self.dimension = self.states.shape[1]

    def __len__(self) -> int:
        return len(self.times)

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def t1(self) -> float:
        return float(self.times[-1])

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def component(self, index: int) -> np.ndarray:
        return self.states[:, index]

    def restrict(self, columns: Sequence[int]) -> "Trajectory":
        """A view-like copy keeping only the given state columns."""
        return Trajectory(self.times, self.states[:, list(columns)])

    def tail(self, fraction: float) -> "Trajectory":
        """The final `fraction` of the time span as a sub-trajectory."""
        if not 0 < fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        t_cut = self.times[-1] - fraction * (self.times[-1] - self.times[0])
        i = int(np.searchsorted(self.times, t_cut))
        i = min(i, len(self.times) - 2)
        return Trajectory(self.times[i:], self.states[i:])


@dataclass(frozen=True)
class SectionEvent:
    """A sign change of a section function along a trajectory."""

    time: float
    state: np.ndarray
    direction: int  # +1 if the section function increases through zero
    knot: int  # index of the stored state at or before the crossing


def _initial_state(x0: Sequence[float], field: Field) -> np.ndarray:
    """x0 as a float vector, checked against the field's output length; a
    field that fails at x0 is left for the first step to report."""
    y = np.asarray(x0, dtype=float)
    try:
        dim = len(field(y))
    except (FieldEvaluationError, OverflowError):
        dim = len(y)
    if y.shape != (dim,):
        raise ValueError(f"state has shape {y.shape}, the field returns {dim} components")
    return y


def rk4_step(field: Field, y: tuple, h: float) -> tuple:
    """One classical RK4 step of size h from the state y, a tuple of floats
    (any sequence of floats works); returns the new state as a tuple."""
    k1 = field(y)
    k2 = field(tuple([a + (0.5 * h) * b for a, b in zip(y, k1)]))
    k3 = field(tuple([a + (0.5 * h) * b for a, b in zip(y, k2)]))
    k4 = field(tuple([a + h * b for a, b in zip(y, k3)]))
    return tuple([
        a + (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
    ])


def integrate_fixed(
    field: Field,
    x0: Sequence[float],
    t0: float,
    t1: float,
    dt: float,
) -> Trajectory:
    """Classical RK4 on a fixed grid t0, t0+dt, ...; the last step is
    shortened to land exactly on t1.

    Raises IntegrationAbort (with the partial trajectory attached) if the
    field raises FieldEvaluationError or produces a non-finite value (a
    Python float overflow counts as one).
    """
    if t1 <= t0:
        raise ValueError("t1 must exceed t0")
    if dt <= 0 or dt > t1 - t0:
        raise ValueError("dt must be positive and at most t1 - t0")
    x0 = _initial_state(x0, field)

    n_full = int(np.floor((t1 - t0) / dt + 1e-12))
    # grid times; append t1 when the last full step falls short of it
    times = [t0 + i * dt for i in range(n_full + 1)]
    if times[-1] < t1 - 1e-12 * max(1.0, abs(t1)):
        times.append(t1)
    else:
        times[-1] = t1

    out = np.empty((len(times), len(x0)))
    out[0] = x0
    y = tuple(x0.tolist())
    for i in range(1, len(times)):
        try:
            y = rk4_step(field, y, times[i] - times[i - 1])
            finite = all(map(math.isfinite, y))
        except OverflowError:
            finite = False
        except FieldEvaluationError as exc:
            raise IntegrationAbort(
                f"field evaluation failed at t={times[i - 1]!r}: {exc}",
                Trajectory(times[:i], out[:i]),
                times[i - 1],
            ) from exc
        if not finite:
            raise IntegrationAbort(
                f"non-finite state at t={times[i]!r}",
                Trajectory(times[:i], out[:i]),
                times[i],
            )
        out[i] = y
    return Trajectory(np.asarray(times), out)


# Dormand-Prince 5(4) tableau. b5 propagates; err = (b5 - b4) . k.
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_DP_E = _DP_B5 - _DP_B4

# Step attempts before integrate_adaptive gives up, and its smallest step
# as a fraction of the time span.
ADAPTIVE_MAX_STEPS = 10_000_000
ADAPTIVE_MIN_STEP_FACTOR = 1e-12


def integrate_adaptive(
    field: Field,
    x0: Sequence[float],
    t0: float,
    t1: float,
    rtol: float = 1e-8,
    atol: float = 1e-10,
) -> Trajectory:
    """Dormand-Prince 5(4) with standard error-per-step control.

    Accepted states are stored; step size underflow (below
    ADAPTIVE_MIN_STEP_FACTOR*(t1-t0)) raises IntegrationAbort, which usually
    signals stiffness or an approach to a singularity.
    """
    if t1 < t0:
        raise ValueError("t1 must not precede t0")
    if rtol <= 0 or atol <= 0:
        raise ValueError("rtol and atol must be positive")
    y = _initial_state(x0, field)
    if t1 == t0:
        return Trajectory([t0], [y])

    span = t1 - t0
    h_min = ADAPTIVE_MIN_STEP_FACTOR * span
    times = [t0]
    states = [y.copy()]
    t = t0

    def abort(msg: str, at: float) -> IntegrationAbort:
        return IntegrationAbort(msg, Trajectory(times, np.array(states)), at)

    try:
        f0 = np.asarray(field(y), dtype=float)
    except FieldEvaluationError as exc:
        raise abort(f"field evaluation failed at t={t0!r}: {exc}", t0) from exc
    # first trial step sized from the state's own timescale, so stiff fields
    # do not blow up before error control gets a chance to engage
    y_scale = max(float(np.max(np.abs(y))), 1e-3)
    f_scale = max(float(np.max(np.abs(f0))), 1e-9)
    h = max(min(span / 10.0, 0.01 * y_scale / f_scale), h_min)
    k = np.empty((7, len(y)))

    for _ in range(ADAPTIVE_MAX_STEPS):
        if t >= t1:
            break
        h = min(h, t1 - t)
        if h < h_min:
            raise abort(f"step size underflow at t={t!r}", t)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                k[0] = field(y)
                for s in range(1, 7):
                    k[s] = field(y + h * (_DP_A[s] @ k[:s]))
                y_new = y + h * (_DP_B5 @ k)
        except (FieldEvaluationError, OverflowError) as exc:
            # a trial stage left the admissible region; retry with a shorter
            # step, and only give up once the step cannot shrink further
            h *= 0.2
            if h < h_min:
                raise abort(f"field evaluation failed at t={t!r}: {exc}", t) from exc
            continue
        if not np.isfinite(y_new).all():
            h *= 0.2
            if h < h_min:
                raise abort(f"non-finite state near t={t!r}", t)
            continue
        err_vec = h * (_DP_E @ k)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
        if err <= 1.0:
            t = t + h
            y = y_new
            times.append(t)
            states.append(y.copy())
        # standard 5th-order step-size update, clipped to [0.2, 5] growth
        factor = 0.9 * (err**-0.2) if err > 0 else 5.0
        h = h * min(5.0, max(0.2, factor))
    else:
        raise abort(f"{ADAPTIVE_MAX_STEPS} step attempts exhausted at t={t!r}", t)
    return Trajectory(np.asarray(times), np.asarray(states))


def detect_crossings(
    traj: Trajectory,
    section: Callable[[np.ndarray], np.ndarray],
    min_separation: Optional[float] = None,
) -> list[SectionEvent]:
    """All sign changes of a section kernel, called once on the (n, N)
    state stack, at the exact roots of its linear interpolant; a knot where
    the section is zero is an event at that knot. Events closer than
    min_separation to the previously accepted one are discarded (default
    1e-3 of the span, which suppresses chatter near tangential crossings).
    """
    if len(traj) < 2:
        return []
    if min_separation is None:
        min_separation = 1e-3 * (traj.t1 - traj.t0)
    values = np.broadcast_to(
        np.asarray(section(traj.states.T), dtype=float), traj.times.shape
    )
    sl, sr = values[:-1], values[1:]
    i = np.flatnonzero((sl == 0.0) | (sl * sr < 0.0))
    sl, sr = sl[i], sr[i]
    w = np.divide(sl, sl - sr, out=np.zeros_like(sl), where=sl != 0.0)
    tl, tr = traj.times[i], traj.times[i + 1]
    times = tl + w * (tr - tl)
    states = (1.0 - w)[:, None] * traj.states[i] + w[:, None] * traj.states[i + 1]
    # sl is zero or has the opposite sign, so sr's sign is the direction
    directions = np.where(sr > 0.0, 1, -1)
    events: list[SectionEvent] = []
    for event in map(SectionEvent, times.tolist(), states, directions.tolist(), i.tolist()):
        if events and event.time - events[-1].time < min_separation:
            continue
        events.append(event)
    return events


def period_from_events(events: Sequence[SectionEvent]) -> Optional[float]:
    """Mean gap between same-direction section crossings.

    Uses the direction with the most events (ties go to the positive-going
    set) and averages the gaps over the final half of those events. Returns
    None when fewer than two same-direction crossings exist.
    """
    pos = [e.time for e in events if e.direction > 0]
    neg = [e.time for e in events if e.direction < 0]
    times = pos if len(pos) >= len(neg) else neg
    if len(times) < 2:
        return None
    start = min(len(times) // 2, len(times) - 2)
    tail = times[start:]
    return float((tail[-1] - tail[0]) / (len(tail) - 1))


def estimate_period(
    traj: Trajectory, section: Callable[[np.ndarray], np.ndarray]
) -> Optional[float]:
    """Period from the section crossings along the trajectory; see
    period_from_events."""
    return period_from_events(detect_crossings(traj, section))
