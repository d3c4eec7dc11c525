"""Initial-value-problem integration, trajectory storage, and section crossings.

All fields are autonomous: time-dependent terms are handled upstream by
augmenting the state with a clock coordinate. Three integrators are
provided: a classical fixed-step RK4 (the default for reproducible runs),
an embedded Dormand-Prince 5(4) pair with adaptive step size, and fixed
Dormand-Prince 8(5,3) (DOP853) steps of DENSE_STEPS grid intervals whose
dense output fills the RK4 grid. All advance the state as a tuple of Python
floats and hand the field that tuple. The Dormand-Prince steps reuse their
last stage as the next step's first and sum their stage terms in a fixed
left-to-right order, so their output does not depend on the BLAS build.

A step is straight-line code generated from its tableau and compiled once
per state size (see _kernels): the state and each stage are unpacked into
names, and each component's expression is written out with the operations,
and the order, of a per-component loop over the tuple, so the results are
those of that loop bit for bit. Each integrator looks its kernel up once per
call.
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
    _rk4_rows(field, times, out, 1, len(times))
    return Trajectory(np.asarray(times), out)


def _rk4_rows(field: Field, times: list, out: np.ndarray, start: int, stop: int) -> None:
    """Fill rows start to stop - 1 of out with RK4 steps along the grid
    times, from the state in row start - 1; integrate_fixed's loop, which a
    caller may run in chunks with the same results. Raises IntegrationAbort
    as integrate_fixed does, with the rows before the failing step."""
    y = tuple(out[start - 1].tolist())
    rk4 = _kernels(len(y)).rk4
    for i in range(start, stop):
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


class _Tableau(NamedTuple):
    """An explicit Runge-Kutta step whose last stage is the field at the new
    state, which the next step reuses as its first (FSAL).

    Stage 1 is the field at y. With S = len(b), stage s = 2, ..., S is the
    field at y + h * (A[s - 2] . (k1, ..., k_{s-1})), the new state is
    y + h * (b . (k1, ..., k_S)), and stage S + 1 the field there. Each row
    of extra defines one more stage after that, in the same way. e weights
    the error estimate, and each row of dense one dense-output sum, over the
    stages. c holds every stage's node; an autonomous field does not read
    it, and the tests check A's rows against it.
    """

    c: tuple
    A: tuple
    b: tuple
    e: tuple = ()
    extra: tuple = ()
    dense: tuple = ()


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
_DP5 = _Tableau(
    c=(0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0),
    A=_DP_A,
    b=(_DP_B5[0], 0.0, *_DP_B5[1:]),
    e=(_DP_E[0], 0.0, *_DP_E[1:]),
)

# Dormand-Prince 8(5,3) with its seventh-order continuous extension (Prince &
# Dormand, "High order embedded Runge-Kutta formulae", J. Comput. Appl. Math.
# 7(1), 1981; Hairer, Norsett & Wanner, Solving ODEs I, 2nd ed., sec. II.10,
# code DOP853 and its contd8). Twelve stages; stage 13 is the field at the new
# state, and stages 14-16 (extra) serve the dense output only. The dense rows
# are the last four of contd8's eight coefficient vectors, each h times a
# stage sum; the first four come from y, y_new and the fields there. The
# numbers are copied from scipy 1.17.1's
# scipy/integrate/_ivp/dop853_coefficients.py, which takes them from
# Hairer's dop853.f; scipy is not a dependency.
_DOP853 = _Tableau(
    c=(
        0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
        0.118350341907227396726757197510, 0.281649658092772603273242802490,
        0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
        0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0, 1.0, 0.1,
        0.2, 0.777777777777777777777777777778,
    ),
    A=(
        (
            5.26001519587677318785587544488e-2,
        ),
        (
            1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2,
        ),
        (
            2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2,
        ),
        (
            2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
            9.24834003261792003115737966543e-1,
        ),
        (
            3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
            1.25467687566822425016691814123e-1,
        ),
        (
            3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
            6.02165389804559606850219397283e-2, -1.7578125e-2,
        ),
        (
            3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
            1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
            8.27378916381402288758473766002e-3,
        ),
        (
            6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
            -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
            2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1,
        ),
        (
            4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
            -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
            1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
            -2.03312017085086261358222928593e-2,
        ),
        (
            -9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
            1.09143734899672957818500254654, -8.14978701074692612513997267357,
            -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
            2.49360555267965238987089396762, -3.0467644718982195003823669022,
        ),
        (
            2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
            -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
            2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
            -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
            6.43392746015763530355970484046e-1,
        ),
    ),
    b=(
        5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0, 4.45031289275240888144113950566,
        1.89151789931450038304281599044, -5.8012039600105847814672114227,
        3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
        2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2,
    ),
    extra=(
        (
            5.61675022830479523392909219681e-2, 0.0, 0.0, 0.0, 0.0, 0.0,
            2.53500210216624811088794765333e-1, -2.46239037470802489917441475441e-1,
            -1.24191423263816360469010140626e-1, 1.5329179827876569731206322685e-1,
            8.20105229563468988491666602057e-3, 7.56789766054569976138603589584e-3, -8.298e-3,
        ),
        (
            3.18346481635021405060768473261e-2, 0.0, 0.0, 0.0, 0.0,
            2.83009096723667755288322961402e-2, 5.35419883074385676223797384372e-2,
            -5.49237485713909884646569340306e-2, 0.0, 0.0, -1.08347328697249322858509316994e-4,
            3.82571090835658412954920192323e-4, -3.40465008687404560802977114492e-4,
            1.41312443674632500278074618366e-1,
        ),
        (
            -4.28896301583791923408573538692e-1, 0.0, 0.0, 0.0, 0.0,
            -4.69762141536116384314449447206, 7.68342119606259904184240953878,
            4.06898981839711007970213554331, 3.56727187455281109270669543021e-1, 0.0, 0.0, 0.0,
            -1.39902416515901462129418009734e-3, 2.9475147891527723389556272149,
            -9.15095847217987001081870187138,
        ),
    ),
    dense=(
        (
            -0.84289382761090128651353491142e+1, 0.0, 0.0, 0.0, 0.0,
            0.56671495351937776962531783590, -0.30689499459498916912797304727e+1,
            0.23846676565120698287728149680e+1, 0.21170345824450282767155149946e+1,
            -0.87139158377797299206789907490, 0.22404374302607882758541771650e+1,
            0.63157877876946881815570249290, -0.88990336451333310820698117400e-1,
            0.18148505520854727256656404962e+2, -0.91946323924783554000451984436e+1,
            -0.44360363875948939664310572000e+1,
        ),
        (
            0.10427508642579134603413151009e+2, 0.0, 0.0, 0.0, 0.0,
            0.24228349177525818288430175319e+3, 0.16520045171727028198505394887e+3,
            -0.37454675472269020279518312152e+3, -0.22113666853125306036270938578e+2,
            0.77334326684722638389603898808e+1, -0.30674084731089398182061213626e+2,
            -0.93321305264302278729567221706e+1, 0.15697238121770843886131091075e+2,
            -0.31139403219565177677282850411e+2, -0.93529243588444783865713862664e+1,
            0.35816841486394083752465898540e+2,
        ),
        (
            0.19985053242002433820987653617e+2, 0.0, 0.0, 0.0, 0.0,
            -0.38703730874935176555105901742e+3, -0.18917813819516756882830838328e+3,
            0.52780815920542364900561016686e+3, -0.11573902539959630126141871134e+2,
            0.68812326946963000169666922661e+1, -0.10006050966910838403183860980e+1,
            0.77771377980534432092869265740, -0.27782057523535084065932004339e+1,
            -0.60196695231264120758267380846e+2, 0.84320405506677161018159903784e+2,
            0.11992291136182789328035130030e+2,
        ),
        (
            -0.25693933462703749003312586129e+2, 0.0, 0.0, 0.0, 0.0,
            -0.15418974869023643374053993627e+3, -0.23152937917604549567536039109e+3,
            0.35763911791061412378285349910e+3, 0.93405324183624310003907691704e+2,
            -0.37458323136451633156875139351e+2, 0.10409964950896230045147246184e+3,
            0.29840293426660503123344363579e+2, -0.43533456590011143754432175058e+2,
            0.96324553959188282948394950600e+2, -0.39177261675615439165231486172e+2,
            -0.14972683625798562581422125276e+3,
        ),
    ),
)

# The most steps integrate_fixed takes and the most step attempts
# integrate_adaptive makes, and the latter's smallest step as a fraction of
# the time span.
MAX_STEPS = 10_000_000
ADAPTIVE_MIN_STEP_FACTOR = 1e-12


# The step kernels. For states of d components, _kernels generates and
# compiles, once and on first use, straight-line code for each kernel: the
# text unpacks the state and every stage into names (y0, y1, ..., k1_0,
# k1_1, ...) and writes each stage argument as one tuple display. The
# Runge-Kutta stages come from a tableau: stage s's argument is
# y_i + h * (a_s1 * k1_i + ...), summed left to right over the nonzero
# weights, independent of the BLAS build and the Python version. RK4 keeps
# its own text, whose stages scale by 0.5 * h and whose last line is
# y + h / 6 * (k1 + 2 k2 + 2 k3 + k4); each operation of every kernel is
# that of the per-component loop the tests keep as its reference, in the
# same order, so the results are that loop's bit for bit.
# The text holds only names and integer indices: every float, and math.sqrt,
# is an argument of the factory `make` that defines the kernel.
_RK4_CONSTANTS = {"half": 0.5, "two": 2.0, "six": 6.0}


def _tableau_constants(tab: _Tableau) -> dict:
    """The nonzero weights of a tableau under the names its kernel text uses:
    a{s}{j} (stage s, weight of k_j; j < s keeps the name unambiguous below
    100 stages), b{j}, e{j} and d{r}_{j} (dense row r)."""
    last = len(tab.b) + 1  # the field at the new state; the extra stages follow it
    stages = [*range(2, last), *range(last + 1, last + 1 + len(tab.extra))]
    rows = zip(stages, (*tab.A, *tab.extra))
    names = {f"a{s}{j}": w for s, row in rows for j, w in enumerate(row, 1)}
    names.update({f"b{j}": w for j, w in enumerate(tab.b, 1)})
    names.update({f"e{j}": w for j, w in enumerate(tab.e, 1)})
    names.update({
        f"d{r}_{j}": w for r, row in enumerate(tab.dense, 1) for j, w in enumerate(row, 1)
    })
    return {"zero": 0.0, "sqrt": math.sqrt, **{k: w for k, w in names.items() if w}}


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


def _kernel_source(name: str, d: int) -> tuple:
    """The source and constants of the kernel name for states of d
    components: (text of a factory make(**constants) that defines the
    kernel and returns it, constants)."""

    def tup(pattern: str) -> str:
        return _each(pattern, d)

    def weighted(prefix: str, weights) -> str:
        # the pattern of the stage sum prefix1 * k1_{i} + prefix3 * k3_{i} ...
        # over the nonzero weights
        return " + ".join(f"{prefix}{s} * k{s}_{{i}}" for s, w in enumerate(weights, 1) if w)

    def stage(s: int, row) -> list:
        return [
            f"k{s} = field({tup('y{i} + h * (' + weighted(f'a{s}', row) + ')')})",
            f"{tup(f'k{s}_{{i}}')} = k{s}",
        ]

    def steps(tab: _Tableau) -> list:
        # from the state y and its field k1 to y_new and the field there
        lines = [f"{tup('y{i}')} = y", f"{tup('k1_{i}')} = k1"]
        for s, row in enumerate(tab.A, 2):
            lines += stage(s, row)
        return lines + [
            f"y_new = {tup('y{i} + h * (' + weighted('b', tab.b) + ')')}",
            f"k{len(tab.b) + 1} = field(y_new)",
        ]

    rk4_stages = [
        f"{tup('y{i}')} = y",
        f"{tup('k1_{i}')} = field(y)",
        "hh = half * h",
        f"{tup('k2_{i}')} = field({tup('y{i} + hh * k1_{i}')})",
        f"{tup('k3_{i}')} = field({tup('y{i} + hh * k2_{i}')})",
        f"{tup('k4_{i}')} = field({tup('y{i} + h * k3_{i}')})",
        "h6 = h / six",
    ]
    last = len(_DOP853.b) + 1  # the FSAL stage, the field at y_new
    # each body is built only for the kernel asked for
    kernels = {
        "rk4": lambda: ("field, y, h", _RK4_CONSTANTS, [
            *rk4_stages,
            f"return {tup('y{i} + h6 * (k1_{i} + two * k2_{i} + two * k3_{i} + k4_{i})')}",
        ]),
        # the increment goes into the compensation e, and what the rounded
        # state drops of it stays there (Kahan's sum; Hairer, Lubich & Wanner,
        # Geometric Numerical Integration, Algorithm VIII.5.1)
        "rk4_kahan": lambda: ("field, y, e, h", _RK4_CONSTANTS, [
            *rk4_stages,
            f"{tup('e{i}')} = e",
            f"{tup('s{i}')} = "
            f"{tup('e{i} + h6 * (k1_{i} + two * k2_{i} + two * k3_{i} + k4_{i})')}",
            f"{tup('n{i}')} = {tup('y{i} + s{i}')}",
            f"return {tup('n{i}')}, {tup('s{i} + (y{i} - n{i})')}",
        ]),
        "dp_step": lambda: ("field, y, k1, h, rtol, atol", _tableau_constants(_DP5), [
            *steps(_DP5),
            f"{tup('k7_{i}')} = k7",
            f"{tup('n{i}')} = y_new",
            *[
                f"q{i} = h * ({weighted('e', _DP5.e)}) / "
                "(atol + rtol * max(abs(y{i}), abs(n{i})))".format(i=i)
                for i in range(d)
            ],
            "return y_new, k7, sqrt((zero" + "".join(f" + q{i} * q{i}" for i in range(d))
            + f") / {d})",
        ]),
        "dop853_dense": lambda: ("field, y, k1, h", _tableau_constants(_DOP853), [
            *steps(_DOP853),
            f"{tup(f'k{last}_{{i}}')} = k{last}",
            *[line for s, row in enumerate(_DOP853.extra, last + 1) for line in stage(s, row)],
            f"return y_new, k{last}, ("
            + "".join(
                tup(weighted(f"d{r}_", row)) + ", " for r, row in enumerate(_DOP853.dense, 1)
            )
            + ")",
        ]),
    }
    args, constants, body = kernels[name]()
    source = (
        f"def make({', '.join(constants)}):\n    def {name}({args}):\n"
        + "".join(f"        {line}\n" for line in body)
        + f"    return {name}\n"
    )
    return source, constants


class _Compiled:
    """A _Kernels attribute whose kernel is compiled from _kernel_source on
    first access and stored in the instance's __dict__, where every later
    lookup finds it first (the descriptor defines no __set__)."""

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, kernels: "_Kernels", owner=None) -> Callable:
        if kernels is None:
            return self
        source, constants = _kernel_source(self.name, kernels.d)
        kernel = _compile_factory(source, f"<iiorbit {self.name} d={kernels.d}>")(**constants)
        kernels.__dict__[self.name] = kernel
        return kernel


class _Kernels:
    """The step kernels for states of d components, each compiled on first
    use under a file name such as <iiorbit rk4 d=6>, so that a run compiles
    only the kernels it calls."""

    rk4 = _Compiled()  # rk4_step
    rk4_kahan = _Compiled()  # (field, y, e, h) -> (y_new, e_new), the compensated RK4 step
    dp_step = _Compiled()  # _dp_step
    dop853_dense = _Compiled()  # (field, y, k1, h) -> (y_new, k13, the four dense-row stage sums)

    def __init__(self, d: int):
        self.d = d


@functools.lru_cache(maxsize=None)
def _kernels(d: int) -> _Kernels:
    """The step kernels for states of d components (see _Kernels)."""
    return _Kernels(d)


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
    max_attempts: int = MAX_STEPS,
) -> Trajectory:
    """Dormand-Prince 5(4) with standard error-per-step control.

    The state advances as a tuple of floats, as in integrate_fixed, and each
    attempt evaluates the field six times: the first stage is the last stage
    of the previous accepted step, or of the same state after a rejection.
    Accepted states are stored; step size underflow (below
    ADAPTIVE_MIN_STEP_FACTOR*(t1-t0)) raises IntegrationAbort, which usually
    signals stiffness or an approach to a singularity, and so does a run
    that has made max_attempts step attempts short of t1. A span t1 - t0
    that overflows a float raises ValueError before the field is called.
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

        for _ in range(max_attempts):
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
            raise abort(f"{max_attempts} step attempts exhausted at t={t!r}", t)
    return Trajectory(np.asarray(times), np.asarray(states))


# A dense step is DENSE_STEPS grid intervals long, and its interpolant is
# evaluated on at most _DENSE_CHUNK grid rows at a time. 20 is the longest
# step with which every shipped dense scenario meets the switch rule of
# tests/switch_rule.py (README, "Numerical notes").
DENSE_STEPS = 20
_DENSE_CHUNK = 4096


def _contd8_terms(h, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """The per-step terms of Hairer's contd8 for DOP853 steps of sizes h:
    start holds the knot data where each step begins (the state, the field
    there and the four dense-row stage sums) and end the state and field
    where it ends, indexed [..., row, component]. Returns the terms that
    _contd8 weights, stacked on a new first axis."""
    y0, k1, d1, d2, d3, d4 = (start[..., r, :] for r in range(6))
    y1, k13 = end[..., 0, :], end[..., 1, :]
    ydiff = y1 - y0
    bspl = h * k1 - ydiff
    return np.stack((y0, ydiff, bspl, ydiff - h * k13 - bspl, h * d1, h * d2, h * d3, h * d4))


def _contd8(theta, terms: np.ndarray):
    """Hairer's contd8: the seventh-degree continuous extension of a DOP853
    step, at the fractions theta of the step whose _contd8_terms are terms,
    with elementwise operations in a fixed order."""
    y0, ydiff, bspl, c, hd1, hd2, hd3, hd4 = terms
    theta1 = 1.0 - theta
    tail = hd1 + theta * (hd2 + theta1 * (hd3 + theta * hd4))
    return y0 + theta * (ydiff + theta1 * (bspl + theta * (c + theta1 * tail)))


def _dense_rows(times: np.ndarray, knots: np.ndarray, data: np.ndarray, q: int) -> np.ndarray:
    """Grid rows 0 to knots[q] from integrate_dense's knot data. A knot row
    is its stored state; a row between knots is the continuous extension
    (_contd8) of the step it falls in. The terms of each step are computed
    once and broadcast over its rows, in blocks of steps that hold at most
    _DENSE_CHUNK rows and have one row count: every step has DENSE_STEPS
    rows but the last, which may be shorter and is a block of its own."""
    out = np.empty((knots[q] + 1, data.shape[2]))
    ta = times[knots[:q]]
    h = times[knots[1 : q + 1]] - ta
    terms = _contd8_terms(h[:, None], data[:q], data[1 : q + 1])
    edges = [*range(0, q - 1, max(1, _DENSE_CHUNK // DENSE_STEPS)), q - 1, q] if q else []
    for s0, s1 in zip(edges, edges[1:]):
        a, b = knots[s0], knots[s1]
        theta = (times[a:b].reshape(s1 - s0, -1) - ta[s0:s1, None]) / h[s0:s1, None]
        out[a:b] = _contd8(theta[..., None], terms[:, s0:s1, None]).reshape(b - a, -1)
    out[knots[: q + 1]] = data[: q + 1, 0]
    return out


def integrate_dense(
    field: Field,
    x0: Sequence[float],
    t0: float,
    t1: float,
    dt: float,
) -> Trajectory:
    """Fixed DOP853 steps of H = DENSE_STEPS * dt, with every row of
    integrate_fixed's grid (the same times, bit for bit) filled from the
    steps' dense output.

    Knots fall every DENSE_STEPS grid rows and on the last row, so the last
    step may be shorter. A step evaluates the field 15 times: eleven more
    stages, the field at the new state, which is the next step's first
    stage, and three stages for the dense output. A knot row is the step's
    state, and the rows between knots come from the seventh-order
    continuous extension of their step.

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
    # per knot: the state, the field there, and the four dense-row stage
    # sums of the step that starts there (not set at the last knot)
    data = np.empty((len(knots), 6, len(x0)))
    data[0, 0] = x0
    y = tuple(x0.tolist())
    dense_step = _kernels(len(y)).dop853_dense
    k1 = None
    for j, (a, b) in enumerate(zip(knots.tolist(), knots[1:].tolist())):
        try:
            if k1 is None:
                k1 = data[0, 1] = field(y)
            y_new, k13, sums = dense_step(field, y, k1, times[b] - times[a])
            data[j, 2:] = sums
            # every dense row weights k13 and the extra stages, so a
            # non-finite value there shows in the sums
            finite = all(map(math.isfinite, y_new)) and bool(np.isfinite(data[j, 2:]).all())
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
        data[j + 1, 0] = y_new
        data[j + 1, 1] = k13
        y, k1 = y_new, k13
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
