"""Initial-value-problem integration, trajectory storage, and section crossings.

All fields are autonomous: time-dependent terms are handled upstream by
augmenting the state with a clock coordinate. Three integrators are
provided: a classical fixed-step RK4 (the default for reproducible runs),
an embedded Dormand-Prince 5(4) pair with adaptive step size, and fixed
Dormand-Prince steps of DENSE_STEPS grid intervals whose dense output fills
the RK4 grid. All advance the state as a tuple of Python floats and hand
the field that tuple. The Dormand-Prince steps reuse their last stage as
the next step's first and sum their stage terms in a fixed left-to-right
order, so their output does not depend on the BLAS build.

A step is straight-line code generated and compiled once per state size
(see _kernels): the state and each stage are unpacked into names, and each
component's expression is written out with the operations, and the order,
of a per-component loop over the tuple, so the results are those of that
loop bit for bit. Each integrator looks its kernel up once per call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

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
# per coordinate out. Every integrator passes the state as a tuple of floats.
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
    return _kernels(len(y)).rk4(field, y, h)


def _require_finite(**values: float) -> None:
    """Raise ValueError naming the first argument that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite (got {value!r})")


def _grid(t0: float, t1: float, dt: float) -> list:
    """The grid times t0, t0+dt, ..., with t1 last, of integrate_fixed and
    integrate_dense: the last interval is shortened to land exactly on t1.
    Raises ValueError for a non-finite or empty span, a dt outside
    (0, t1 - t0], or a grid of more than MAX_STEPS steps."""
    _require_finite(t0=t0, t1=t1, dt=dt)
    if t1 <= t0:
        raise ValueError("t1 must exceed t0")
    if dt <= 0 or dt > t1 - t0:
        raise ValueError("dt must be positive and at most t1 - t0")
    if (t1 - t0) / dt > MAX_STEPS:
        raise ValueError(f"dt={dt!r} takes {(t1 - t0) / dt:.6g} steps, more than {MAX_STEPS}")
    n_full = int(np.floor((t1 - t0) / dt + 1e-12))
    # append t1 when the last full step falls short of it
    times = [t0 + i * dt for i in range(n_full + 1)]
    if times[-1] < t1 - 1e-12 * max(1.0, abs(t1)):
        times.append(t1)
    else:
        times[-1] = t1
    return times


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
    Python float overflow counts as one), and ValueError, before anything
    is built, for a grid of more than MAX_STEPS steps.
    """
    times = _grid(t0, t1, dt)
    x0 = _initial_state(x0, field)
    out = np.empty((len(times), len(x0)))
    out[0] = x0
    y = tuple(x0.tolist())
    rk4 = _kernels(len(y)).rk4
    for i in range(1, len(times)):
        try:
            y = rk4(field, y, times[i] - times[i - 1])
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
# estimate. _DP_D holds the dense-output weights d1, d3, ..., d7 of Hairer's
# dopri5 (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.6; d2 is zero).
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
_DP_D = (
    -12715105075 / 11282082432,
    87487479700 / 32700410799,
    -10690763975 / 1880347072,
    701980252875 / 199316789632,
    -1453857185 / 822651844,
    69997945 / 29380423,
)

# The most steps integrate_fixed takes and the most step attempts
# integrate_adaptive makes, and the latter's smallest step as a fraction of
# the time span.
MAX_STEPS = 10_000_000
ADAPTIVE_MIN_STEP_FACTOR = 1e-12


# The step kernels. For states of d components, _kernels generates and
# compiles, once, straight-line code for the RK4 step and the Dormand-Prince
# stages: the text unpacks the state and every stage into names (y0, y1,
# ..., k1_0, k1_1, ...) and writes each stage argument as one tuple display.
# Every component's expression is that of the per-component loop it
# replaces, with the same operations in the same order, so the results are
# the same bit for bit, and the Dormand-Prince sums run left to right over
# the nonzero weights, independent of the BLAS build and the Python version.
# The text holds only names and integer indices: every float, and
# math.sqrt, is an argument of the factory `make` that defines the kernel.
_STEP_CONSTANTS = {
    "half": 0.5, "two": 2.0, "six": 6.0, "zero": 0.0, "sqrt": math.sqrt,
    **{f"a{s}{j}": w for s, row in enumerate(_DP_A, 2) for j, w in enumerate(row, 1)},
    **{f"b{s}": w for s, w in zip((1, 3, 4, 5, 6), _DP_B5)},
    **{f"e{s}": w for s, w in zip((1, 3, 4, 5, 6, 7), _DP_E)},
    **{f"d{s}": w for s, w in zip((1, 3, 4, 5, 6, 7), _DP_D)},
}


class _Kernels(NamedTuple):
    rk4: Callable  # rk4_step
    dp_stages: Callable  # _dp_stages
    dp_step: Callable  # _dp_step
    dp_dense: Callable  # (field, y, k1, h) -> (y_new, k7, the d-weighted stage sum)


def _compile_factory(source: str, filename: str) -> Callable:
    """The function `make` that source defines, compiled under filename, so
    that a traceback through the code it makes names it."""
    namespace: dict = {}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["make"]


def _each(pattern: str, count: int) -> str:
    """pattern with {i} set to 0, 1, ..., count - 1, each followed by a
    comma, in parentheses: a tuple display, or a target list that unpacks
    count components."""
    return "(" + "".join(pattern.format(i=i) + ", " for i in range(count)) + ")"


def _kernel_sources(d: int) -> dict:
    """The source of each _Kernels function for states of d components: a
    factory make(**_STEP_CONSTANTS) that defines the kernel and returns it."""

    def tup(pattern: str) -> str:
        return _each(pattern, d)

    def weighted(prefix: str, stages) -> str:
        # the pattern of the stage sum prefix1 * k1_{i} + prefix3 * k3_{i} ...
        return " + ".join(f"{prefix}{s} * k{s}_{{i}}" for s in stages)

    dp = [f"{tup('y{i}')} = y", f"{tup('k1_{i}')} = k1"]
    for s in range(2, 7):
        dp += [
            f"k{s} = field({tup('y{i} + h * (' + weighted(f'a{s}', range(1, s)) + ')')})",
            f"{tup(f'k{s}_{{i}}')} = k{s}",
        ]
    dp += [
        f"y_new = {tup('y{i} + h * (' + weighted('b', (1, 3, 4, 5, 6)) + ')')}",
        "k7 = field(y_new)",
    ]
    k1_k3_to_k7 = (1, 3, 4, 5, 6, 7)  # the stages the error and dense sums weight
    kernels = {
        "rk4": ("field, y, h", [
            f"{tup('y{i}')} = y",
            f"{tup('k1_{i}')} = field(y)",
            "hh = half * h",
            f"{tup('k2_{i}')} = field({tup('y{i} + hh * k1_{i}')})",
            f"{tup('k3_{i}')} = field({tup('y{i} + hh * k2_{i}')})",
            f"{tup('k4_{i}')} = field({tup('y{i} + h * k3_{i}')})",
            "h6 = h / six",
            f"return {tup('y{i} + h6 * (k1_{i} + two * k2_{i} + two * k3_{i} + k4_{i})')}",
        ]),
        "dp_stages": ("field, y, k1, h", [*dp, "return y_new, k3, k4, k5, k6, k7"]),
        "dp_step": ("field, y, k1, h, rtol, atol", [
            *dp,
            f"{tup('k7_{i}')} = k7",
            f"{tup('n{i}')} = y_new",
            *[
                f"q{i} = h * ({weighted('e', k1_k3_to_k7)}) / "
                "(atol + rtol * max(abs(y{i}), abs(n{i})))".format(i=i)
                for i in range(d)
            ],
            "return y_new, k7, sqrt((zero" + "".join(f" + q{i} * q{i}" for i in range(d))
            + f") / {d})",
        ]),
        "dp_dense": ("field, y, k1, h", [
            *dp, f"{tup('k7_{i}')} = k7", f"return y_new, k7, {tup(weighted('d', k1_k3_to_k7))}",
        ]),
    }
    return {
        name: f"def make({', '.join(_STEP_CONSTANTS)}):\n    def {name}({args}):\n"
        + "".join(f"        {line}\n" for line in body)
        + f"    return {name}\n"
        for name, (args, body) in kernels.items()
    }


@functools.lru_cache(maxsize=None)
def _kernels(d: int) -> _Kernels:
    """The step kernels for states of d components, compiled on first use
    under file names such as <iiorbit rk4 d=6>."""
    return _Kernels(**{
        name: _compile_factory(source, f"<iiorbit {name} d={d}>")(**_STEP_CONSTANTS)
        for name, source in _kernel_sources(d).items()
    })


def _dp_stages(field: Field, y: tuple, k1: Sequence[float], h: float) -> tuple:
    """The stages of one Dormand-Prince step of size h from the state y, a
    tuple of floats whose field value is k1. Returns the new state (a tuple)
    and the stages k3, k4, k5, k6 and k7, the field at the new state; k2
    has no weight in the new state, the error estimate or the dense output."""
    return _kernels(len(y)).dp_stages(field, y, k1, h)


def _dp_step(field: Field, y: tuple, k1: Sequence[float], h: float, rtol: float, atol: float):
    """One Dormand-Prince attempt of size h from the state y, a tuple of
    floats whose field value is k1. Returns the new state (a tuple), the
    field there (k7) and the RMS of the error estimate scaled by
    atol + rtol * max(|y|, |y_new|) per component, summed left to right."""
    return _kernels(len(y)).dp_step(field, y, k1, h, rtol, atol)


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
    signals stiffness or an approach to a singularity. A span t1 - t0 that
    overflows a float raises ValueError before the field is called.
    """
    _require_finite(t0=t0, t1=t1, rtol=rtol, atol=atol)
    if t1 < t0:
        raise ValueError("t1 must not precede t0")
    if not math.isfinite(t1 - t0):
        raise ValueError(f"the span t1 - t0 = {t1 - t0!r} is not finite")
    if rtol <= 0 or atol <= 0:
        raise ValueError("rtol and atol must be positive")
    x0 = _initial_state(x0, field)
    if t1 == t0:
        return Trajectory([t0], [x0])

    span = t1 - t0
    h_min = ADAPTIVE_MIN_STEP_FACTOR * span
    y = tuple(x0.tolist())
    dp_step = _kernels(len(y)).dp_step
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

        for _ in range(MAX_STEPS):
            if t >= t1:
                break
            h = min(h, t1 - t)
            if h < h_min:
                raise abort(f"step size underflow at t={t!r}", t)
            try:
                y_new, k7, err = dp_step(field, y, k1, h, rtol, atol)
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
            raise abort(f"{MAX_STEPS} step attempts exhausted at t={t!r}", t)
    return Trajectory(np.asarray(times), np.asarray(states))


# A dense step is DENSE_STEPS grid intervals long, and its interpolant is
# evaluated _DENSE_CHUNK grid rows at a time.
DENSE_STEPS = 5
_DENSE_CHUNK = 4096


def _dense_rows(times: np.ndarray, knots: np.ndarray, data: np.ndarray, q: int) -> np.ndarray:
    """Grid rows 0 to knots[q] from integrate_dense's knot data. A knot row
    is its stored state; a row between knots is the continuous extension
    (Hairer's contd5) of the step it falls in, evaluated with elementwise
    operations in a fixed order, _DENSE_CHUNK rows at a time."""
    out = np.empty((knots[q] + 1, data.shape[2]))
    for start in range(0, len(out) if q else 0, _DENSE_CHUNK):
        rows = np.arange(start, min(start + _DENSE_CHUNK, len(out)))
        j = np.minimum(rows // DENSE_STEPS, q - 1)
        ta = times[knots[j]]
        h = times[knots[j + 1]] - ta
        theta = ((times[rows] - ta) / h)[:, None]
        h = h[:, None]
        y0, k1, dsum = data[j, 0], data[j, 1], data[j, 2]
        y1, k7 = data[j + 1, 0], data[j + 1, 1]
        ydiff = y1 - y0
        bspl = h * k1 - ydiff
        theta1 = 1.0 - theta
        out[rows] = y0 + theta * (
            ydiff + theta1 * (bspl + theta * ((ydiff - h * k7 - bspl) + theta1 * (h * dsum)))
        )
    out[knots[: q + 1]] = data[: q + 1, 0]
    return out


def integrate_dense(
    field: Field,
    x0: Sequence[float],
    t0: float,
    t1: float,
    dt: float,
) -> Trajectory:
    """Fixed Dormand-Prince steps of H = DENSE_STEPS * dt, with every row of
    integrate_fixed's grid (the same times, bit for bit) filled from the
    steps' dense output.

    Knots fall every DENSE_STEPS grid rows and on the last row, so the last
    step may be shorter. A step evaluates the field six times: its first
    stage is the last stage of the step before. A knot row is the step's
    state, and the rows between knots come from the fourth-order continuous
    extension of their step.

    Raises IntegrationAbort with the rows up to the start knot of the
    failing step: its abort_time is that knot when the field raises
    FieldEvaluationError, and the step's end knot when the step's data is
    not finite (a Python float overflow counts as non-finite), as
    integrate_fixed does per RK4 step. Raises ValueError, before anything
    is built, for a grid of more than MAX_STEPS steps.
    """
    times = _grid(t0, t1, dt)
    x0 = _initial_state(x0, field)
    knots = np.array([*range(0, len(times) - 1, DENSE_STEPS), len(times) - 1])
    # per knot: the state, the field there, and the d-weighted stage sum of
    # the step that starts there (not set at the last knot)
    data = np.empty((len(knots), 3, len(x0)))
    data[0, 0] = x0
    y = tuple(x0.tolist())
    dp_dense = _kernels(len(y)).dp_dense
    k1 = None
    for j, (a, b) in enumerate(zip(knots.tolist(), knots[1:].tolist())):
        try:
            if k1 is None:
                k1 = data[0, 1] = field(y)
            y_new, k7, dsum = dp_dense(field, y, k1, times[b] - times[a])
            # d7 is nonzero, so a non-finite k7 shows in dsum
            finite = all(map(math.isfinite, y_new)) and all(map(math.isfinite, dsum))
        except OverflowError:
            finite = False
        except FieldEvaluationError as exc:
            raise IntegrationAbort(
                f"field evaluation failed at t={times[a]!r}: {exc}",
                Trajectory(times[: a + 1], _dense_rows(np.asarray(times), knots, data, j)),
                times[a],
            ) from exc
        if not finite:
            raise IntegrationAbort(
                f"non-finite state at t={times[b]!r}",
                Trajectory(times[: a + 1], _dense_rows(np.asarray(times), knots, data, j)),
                times[b],
            )
        data[j, 2] = dsum
        data[j + 1, 0] = y_new
        data[j + 1, 1] = k7
        y, k1 = y_new, k7
    times = np.asarray(times)
    return Trajectory(times, _dense_rows(times, knots, data, len(knots) - 1))


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
