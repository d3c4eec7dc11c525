"""Initial-value-problem integration, trajectory storage, and section crossings.

All fields are autonomous: time-dependent terms are handled upstream by
augmenting the state with a clock coordinate. Two integrators are provided,
a classical fixed-step RK4 (the default for reproducible runs) and an
embedded Dormand-Prince 5(4) pair with adaptive step size. Both advance the
state as a tuple of Python floats and hand the field that tuple. The
adaptive pair reuses its last stage as the next step's first and sums its
stage terms in a fixed left-to-right order, so its output does not depend on
the BLAS build.
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
# per coordinate out. Both integrators pass the state as a tuple of floats.
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
    """x0 as a float vector, checked against the field's output length (the
    field gets x0 as a tuple of floats, as every later call does); a field
    that fails at x0 is left for the first step to report."""
    y = np.asarray(x0, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"state has shape {y.shape}, not one vector")
    try:
        dim = len(field(tuple(y.tolist())))
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


def _require_finite(**values: float) -> None:
    """Raise ValueError naming the first argument that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite (got {value!r})")


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
    _require_finite(t0=t0, t1=t1, dt=dt)
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


# Dormand-Prince 5(4) tableau (Dormand & Prince, J. Comput. Appl. Math. 6(1),
# 1980). _DP_A holds the rows of stages 2-6. _DP_B5 weights k1, k3, k4, k5
# and k6 (the weights of k2 and k7 are zero); it is also the row of stage 7,
# so that stage is the field at the new state, which the next step reuses as
# its first (FSAL). _DP_E = b5 - b4 weights k1, k3, ..., k7 in the error
# estimate.
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B5 = (35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_B4 = (5179 / 57600, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
_DP_E = tuple([b5 - b4 for b5, b4 in zip(_DP_B5 + (0.0,), _DP_B4)])

# Step attempts before integrate_adaptive gives up, and its smallest step
# as a fraction of the time span.
ADAPTIVE_MAX_STEPS = 10_000_000
ADAPTIVE_MIN_STEP_FACTOR = 1e-12


def _dp_step(field: Field, y: tuple, k1: Sequence[float], h: float, rtol: float, atol: float):
    """One Dormand-Prince attempt of size h from the state y, a tuple of
    floats whose field value is k1. Returns the new state (a tuple), the
    field there (k7) and the RMS of the error estimate scaled by
    atol + rtol * max(|y|, |y_new|) per component. Every stage sum runs left
    to right over the nonzero weights, so the result does not depend on the
    BLAS build or the Python version."""
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), (a61, a62, a63, a64, a65) = _DP_A
    b1, b3, b4, b5, b6 = _DP_B5
    e1, e3, e4, e5, e6, e7 = _DP_E
    k2 = field(tuple([a + h * (a21 * c1) for a, c1 in zip(y, k1)]))
    k3 = field(tuple([a + h * (a31 * c1 + a32 * c2) for a, c1, c2 in zip(y, k1, k2)]))
    k4 = field(tuple([
        a + h * (a41 * c1 + a42 * c2 + a43 * c3) for a, c1, c2, c3 in zip(y, k1, k2, k3)
    ]))
    k5 = field(tuple([
        a + h * (a51 * c1 + a52 * c2 + a53 * c3 + a54 * c4)
        for a, c1, c2, c3, c4 in zip(y, k1, k2, k3, k4)
    ]))
    k6 = field(tuple([
        a + h * (a61 * c1 + a62 * c2 + a63 * c3 + a64 * c4 + a65 * c5)
        for a, c1, c2, c3, c4, c5 in zip(y, k1, k2, k3, k4, k5)
    ]))
    y_new = tuple([
        a + h * (b1 * c1 + b3 * c3 + b4 * c4 + b5 * c5 + b6 * c6)
        for a, c1, c3, c4, c5, c6 in zip(y, k1, k3, k4, k5, k6)
    ])
    k7 = field(y_new)
    total = 0.0
    for a, b, c1, c3, c4, c5, c6, c7 in zip(y, y_new, k1, k3, k4, k5, k6, k7):
        q = h * (e1 * c1 + e3 * c3 + e4 * c4 + e5 * c5 + e6 * c6 + e7 * c7) / (
            atol + rtol * max(abs(a), abs(b))
        )
        total += q * q
    return y_new, k7, math.sqrt(total / len(y))


def integrate_adaptive(
    field: Field,
    x0: Sequence[float],
    t0: float,
    t1: float,
    rtol: float = 1e-8,
    atol: float = 1e-10,
) -> Trajectory:
    """Dormand-Prince 5(4) with standard error-per-step control.

    The state advances as a tuple of floats, as in integrate_fixed, and each
    attempt evaluates the field six times: the first stage is the last stage
    of the previous accepted step, or of the same state after a rejection.
    Accepted states are stored; step size underflow (below
    ADAPTIVE_MIN_STEP_FACTOR*(t1-t0)) raises IntegrationAbort, which usually
    signals stiffness or an approach to a singularity.
    """
    _require_finite(t0=t0, t1=t1, rtol=rtol, atol=atol)
    if t1 < t0:
        raise ValueError("t1 must not precede t0")
    if rtol <= 0 or atol <= 0:
        raise ValueError("rtol and atol must be positive")
    x0 = _initial_state(x0, field)
    if t1 == t0:
        return Trajectory([t0], [x0])

    span = t1 - t0
    h_min = ADAPTIVE_MIN_STEP_FACTOR * span
    y = tuple(x0.tolist())
    times = [t0]
    states = [y]
    t = t0

    def abort(msg: str, at: float) -> IntegrationAbort:
        return IntegrationAbort(msg, Trajectory(times, np.array(states)), at)

    with np.errstate(over="ignore", invalid="ignore"):
        try:
            k1 = field(y)
        except FieldEvaluationError as exc:
            raise abort(f"field evaluation failed at t={t0!r}: {exc}", t0) from exc
        except OverflowError:
            raise abort(f"non-finite state near t={t0!r}", t0) from None
        # first trial step sized from the state's own timescale, so stiff
        # fields do not blow up before error control gets a chance to engage
        y_scale = max(float(np.max(np.abs(x0))), 1e-3)
        f_scale = max(float(np.max(np.abs(np.asarray(k1, dtype=float)))), 1e-9)
        h = max(min(span / 10.0, 0.01 * y_scale / f_scale), h_min)

        for _ in range(ADAPTIVE_MAX_STEPS):
            if t >= t1:
                break
            h = min(h, t1 - t)
            if h < h_min:
                raise abort(f"step size underflow at t={t!r}", t)
            try:
                y_new, k7, err = _dp_step(field, y, k1, h, rtol, atol)
                # k7 has no weight in y_new, so a non-finite k7 shows only in err
                finite = math.isfinite(err) and all(map(math.isfinite, y_new))
            except FieldEvaluationError as exc:
                # a trial stage left the admissible region; retry with a
                # shorter step, and only give up once the step cannot shrink
                h *= 0.2
                if h < h_min:
                    raise abort(f"field evaluation failed at t={t!r}: {exc}", t) from exc
                continue
            except OverflowError:
                finite = False
            if not finite:
                h *= 0.2
                if h < h_min:
                    raise abort(f"non-finite state near t={t!r}", t)
                continue
            if err <= 1.0:
                t = t + h
                y, k1 = y_new, k7
                times.append(t)
                states.append(y)
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
