"""Realized trajectories of finite-activity jump local martingales.

A :class:`JumpPath` is one observed trajectory up to a realized stopping
time: an ordered list of jumps and a piecewise-smooth finite-variation
drift (the compensator of compensated Poisson integrals).  Every path is
purely discontinuous, so its continuous martingale part and ``<M^c>``
vanish.  Drifts are closed-form functions of time, not grid
discretizations, so the algebraic identities checked elsewhere hold to
rounding error only.

The three example models are built here, each driven by one or two scalar
laws from :mod:`doleans.distributions` through inverse-transform sampling.
"""

from __future__ import annotations

import math
import operator
import threading
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .distributions import (
    InverseCdfDistribution,
    make_eta_distribution,
    make_first_jump_time,
    make_xi_distribution,
)
from .transcendental import exp, expm1, log1p

__all__ = [
    "ZeroDrift",
    "ExpCompensatorDrift",
    "ScaledDrift",
    "JumpPath",
    "PathBatch",
    "PredictableControl",
    "control_indicator_after",
    "integrate_control",
    "Driver",
    "ProcessModel",
    "check_seed",
    "stream_generator",
    "example1_model",
    "example2_model",
    "example3_model",
    "path_to_json",
    "path_from_json",
    "EXAMPLE_MODELS",
]

# Smallest uniform admitted by samplers; keeps inverse CDFs off the 0 endpoint.
_MIN_UNIFORM = 1e-300

#: Cap on exponentially distributed jump times.  Jump sizes are
#: e^{tau}, and e^{700} ~ 1.01e304 is the largest power that stays well
#: inside float64 range for every downstream functional.  Inverse-CDF
#: draws from 53-bit uniforms never reach it (tau <= 53 ln 2 ~ 36.7);
#: importance-sampling proposals, which reach tau = 2^60, do.
_JUMP_TIME_CAP = 700.0


def check_seed(seed: int) -> int:
    """``seed`` as a Python int, or ``ValueError`` unless it is in ``[0, 2^64)``."""
    seed = operator.index(seed)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 bits")
    return seed


def _philox_key_counter(seed: int, stream: int) -> tuple[int, int]:
    """Philox key and counter of stream ``stream`` of ``seed``.

    Both arguments go through ``operator.index`` first, so a NumPy integer
    index cannot overflow the shift.
    """
    seed = check_seed(seed)
    stream = operator.index(stream)
    if stream < 0:
        raise ValueError(f"stream index must be non-negative, got {stream}")
    return seed, (stream << 128) % 2**256


def stream_generator(seed: int, stream: int) -> np.random.Generator:
    """Generator of stream ``stream`` of ``seed``: Philox key ``seed`` at
    counter ``stream * 2^128`` (mod 2^256).

    This is the state ``Philox(key=seed).jumped(stream)`` reaches, built
    directly.
    """
    key, counter = _philox_key_counter(seed, stream)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


_U64 = 2**64 - 1
_THREAD = threading.local()


def _stream_uniforms(seed: int, stream: int, count: int) -> list[float]:
    """The first ``count`` uniforms of ``stream_generator(seed, stream)``.

    Each thread keeps one Philox generator and re-keys it by assigning the
    state that generator would start from.  Building a new one per call
    costs several times more: the constructor also draws OS entropy for a
    seed sequence that the explicit key then overrides.
    """
    key, counter = _philox_key_counter(seed, stream)
    rng = getattr(_THREAD, "rng", None)
    if rng is None:
        rng = _THREAD.rng = np.random.Generator(np.random.Philox(0))
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, counter >> 128 & _U64, counter >> 192],
                  "key": [key, 0]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng.random(count).tolist()


# ----------------------------------------------------------------------
# Drift components (closed form).
# ``array(t)`` evaluates a drift at every element of a float array,
# bit-identical to calling it element by element.
# ----------------------------------------------------------------------

class ZeroDrift:
    """Identically zero finite-variation part."""

    __slots__ = ()
    kind = "zero"

    def __call__(self, t: float) -> float:
        return 0.0

    def array(self, t: np.ndarray) -> np.ndarray:
        return np.zeros(np.shape(t))

    def derivative(self, t: float) -> float:
        return 0.0


class ExpCompensatorDrift:
    """Compensator ``-(e^{t - start} - 1)`` of a stopped exponential Poisson integral.

    Zero before ``start``; the path's horizon bounds evaluation, so no
    explicit stopping is applied here.
    """

    __slots__ = ("start",)

    def __init__(self, start: float = 0.0):
        self.start = float(start)

    @property
    def kind(self) -> str:
        return f"exp_compensator:{self.start!r}"

    def __call__(self, t: float) -> float:
        if t <= self.start:
            return 0.0
        return -expm1(t - self.start)

    def array(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape)
        live = ~(t <= self.start)
        out[live] = -np.expm1(t[live] - self.start)
        return out

    def derivative(self, t: float) -> float:
        if t <= self.start:
            return 0.0
        return -exp(t - self.start)


class ScaledDrift:
    """A drift multiplied by a constant factor."""

    __slots__ = ("base", "factor")
    kind = "derived"

    def __init__(self, base, factor: float):
        self.base = base
        self.factor = float(factor)

    def __call__(self, t: float) -> float:
        return self.factor * self.base(t)

    def array(self, t: np.ndarray) -> np.ndarray:
        return self.factor * self.base.array(t)

    def derivative(self, t: float) -> float:
        return self.factor * self.base.derivative(t)


_ZERO_DRIFT = ZeroDrift()


# ----------------------------------------------------------------------
# JumpPath
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class JumpPath:
    """One cadlag trajectory observed on ``[0, horizon]``.

    ``jumps`` holds ``(time, size)`` pairs with strictly increasing times in
    ``(0, horizon]`` and every size ``> -1``; ``drift`` is the continuous
    finite-variation part between jumps, evaluated in closed form.  The
    path value is ``drift(t) + sum of jump sizes up to t``; the path has no
    continuous martingale part, so ``<M^c> = 0``.
    """

    horizon: float
    jumps: tuple[tuple[float, float], ...] = ()
    drift: Callable = _ZERO_DRIFT

    def __post_init__(self):
        if not (self.horizon >= 0.0):
            raise ValueError(f"horizon must be nonnegative, got {self.horizon}")
        prev = 0.0
        for t, dm in self.jumps:
            if not (prev < t <= self.horizon):
                raise ValueError(
                    f"jump times must be strictly increasing in (0, horizon], got {t}"
                )
            if not (dm > -1.0):
                raise ValueError(f"jump sizes must exceed -1, got {dm}")
            prev = t

    def value_at(self, t: float) -> float:
        """Path value ``M_t`` for ``t <= horizon``."""
        self._check_time(t)
        s = self.drift(t)
        for ti, dm in self.jumps:
            if ti > t:
                break
            s += dm
        return s

    def _check_time(self, t: float) -> None:
        if not (0.0 <= t <= self.horizon):
            raise ValueError(f"time {t} outside [0, {self.horizon}]")


@dataclass(frozen=True, eq=False)
class PathBatch:
    """``n`` paths with ``k`` jumps each, as a struct of arrays.

    Row ``i`` is the :class:`JumpPath` with horizon ``horizon[i]``, jumps
    ``zip(jump_t[i], jump_dm[i])`` and the shared ``drift``; the same
    invariants are checked for every row.  Batch kernels evaluate
    functionals at each row's horizon.
    """

    horizon: np.ndarray
    jump_t: np.ndarray
    jump_dm: np.ndarray
    drift: Callable = _ZERO_DRIFT

    def __post_init__(self):
        n = len(self.horizon)
        if self.jump_t.ndim != 2 or self.jump_t.shape != self.jump_dm.shape \
                or self.jump_t.shape[0] != n:
            raise ValueError("jump arrays must both have shape (len(horizon), k)")
        bad = ~(self.horizon >= 0.0)
        if bad.any():
            raise ValueError(
                f"horizon must be nonnegative, got {self.horizon[bad][0]}"
            )
        prev = np.zeros(n)
        for t in self.jump_t.T:
            bad = ~((prev < t) & (t <= self.horizon))
            if bad.any():
                raise ValueError(
                    "jump times must be strictly increasing in (0, horizon], "
                    f"got {t[bad][0]}"
                )
            prev = t
        bad = ~(self.jump_dm > -1.0)
        if bad.any():
            raise ValueError(f"jump sizes must exceed -1, got {self.jump_dm[bad][0]}")

    def __len__(self) -> int:
        return len(self.horizon)

    def path(self, i: int) -> JumpPath:
        """Row ``i`` as a :class:`JumpPath`."""
        return JumpPath(
            horizon=float(self.horizon[i]),
            jumps=tuple(zip(self.jump_t[i].tolist(), self.jump_dm[i].tolist())),
            drift=self.drift,
        )


# ----------------------------------------------------------------------
# Predictable controls: left-continuous piecewise-constant a_s in [0, 1].
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PredictableControl:
    """Left-continuous piecewise-constant process with values in [0, 1].

    ``values[k]`` applies on the interval ``(breaks[k-1], breaks[k]]``
    (with ``breaks[-1] = 0`` and ``breaks[len] = inf`` implied), so the
    value *at* a breakpoint is the one from the left --- the canonical
    predictability surrogate for piecewise-constant processes.
    """

    breaks: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != len(self.breaks) + 1:
            raise ValueError("need exactly one more value than breakpoints")
        prev = -math.inf
        for b in self.breaks:
            if not (b >= 0.0 and b > prev):
                raise ValueError("breakpoints must be strictly increasing and >= 0")
            prev = b
        for v in self.values:
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"control values must lie in [0, 1], got {v}")

    @classmethod
    def constant(cls, value: float) -> "PredictableControl":
        return cls((), (float(value),))

    def value_at(self, s: float) -> float:
        return self.values[bisect_left(self.breaks, s)]

    def segments_until(self, t: float) -> Iterator[tuple[float, float, float]]:
        """Yield ``(lo, hi, value)`` with value held on ``(lo, hi]``, partitioning ``(0, t]``:
        the nonempty slots ``(0, b0], (b0, b1], ..., (b_last, inf)`` that start
        before ``t``, in order, each end clipped to ``t``."""
        for lo, hi, v in zip((0.0, *self.breaks), (*self.breaks, math.inf), self.values):
            if lo >= t:
                return
            if hi > lo:
                yield (lo, min(hi, t), v)

    def label(self) -> str:
        """Short parseable description, e.g. ``0.5`` or ``indicator:1.0``."""
        if not self.breaks:
            return repr(self.values[0])
        if self.values == (0.0, 1.0) and len(self.breaks) == 1:
            return f"indicator:{self.breaks[0]!r}"
        return f"piecewise:{self.breaks!r}:{self.values!r}"


def control_indicator_after(t0: float) -> PredictableControl:
    """Control equal to 0 on ``[0, t0]`` and 1 on ``(t0, inf)``.

    Left-continuity makes a jump occurring exactly at ``t0`` see the value 0.
    A negative ``t0`` is a ``ValueError``.
    """
    return PredictableControl((float(t0),), (0.0, 1.0))


def integrate_control(path: JumpPath, a: PredictableControl, t: float) -> float:
    """Stochastic integral ``int_0^t a dM`` of a piecewise-constant control.

    Equals the jump sum ``sum a(t_i) dM_i`` plus the drift part, both in
    closed form: the drift is exact on each constant segment of the control.
    """
    path._check_time(t)
    jump_sum = math.fsum(a.value_at(ti) * dm for ti, dm in path.jumps if ti <= t)
    return jump_sum + math.fsum(
        v * (path.drift(hi) - path.drift(lo)) for lo, hi, v in a.segments_until(t))


# ----------------------------------------------------------------------
# Process models
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Driver:
    """One scalar law driving a model, with its divergence-probe policy.

    ``truncate(level)`` maps a probe level to a ``(lo, hi)`` clip of the
    driver's domain (``None`` meaning unbounded), or raises ``ValueError``
    for a level the model cannot probe, and ``growth`` names the
    growth model of truncated expectations: ``"log"`` (value against
    ``ln(1/level)``) or ``"linear"`` (value against ``level``).
    ``start`` is set for a waiting-time driver: the time at which its
    clock starts, so that its jump happens at ``start + value``; a time
    ``b`` on the path is the point ``b - start`` in driver coordinates.
    It is ``None`` for a driver that is not a waiting time.
    """

    name: str
    dist: InverseCdfDistribution
    anchor: float
    levels: tuple[float, ...]
    growth: str
    truncate: Callable[[float], tuple[float | None, float | None]]
    start: float | None = None

    def __post_init__(self):
        if self.growth not in ("log", "linear"):
            raise ValueError(f"unknown growth model {self.growth!r}")


@dataclass(frozen=True)
class ProcessModel:
    """A law of jump-martingale paths: driver laws plus a path builder.

    ``build(*driver_values)`` maps realized driver values to a
    :class:`JumpPath`; sampling composes it with inverse-transform draws.
    ``build_batch(*driver_columns)`` maps equal-length arrays of driver
    values to a :class:`PathBatch` whose row ``i`` equals
    ``build(*(col[i] for col in driver_columns))`` bit for bit; the
    condition cross-check evaluates whole streams through it.
    ``disc_qv`` and ``lm_compensator``, when present, give the closed-form
    predictable quadratic variation of the purely discontinuous part and
    the compensator used by the compensator-based integrability condition,
    both as functions ``(path, t) -> float``.
    """

    name: str
    drivers: tuple[Driver, ...]
    build: Callable[..., JumpPath]
    build_batch: Callable[..., PathBatch]
    disc_qv: Callable[[JumpPath, float], float] | None = None
    lm_compensator: Callable[[JumpPath, float], float] | None = None

    def sampler(self, seed: int, stream_index: int) -> JumpPath:
        """Deterministic path for ``(seed, stream_index)``: row 0 of that
        stream's draws (see :func:`stream_generator`).

        The row is drawn on floats, with no one-row batch: each driver's
        uniform goes alone through its inverse CDF, whose branch table
        takes the same float route as the densities (see
        :mod:`doleans.distributions`) and gives the bits of
        :meth:`driver_columns`.
        """
        u = _stream_uniforms(seed, stream_index, len(self.drivers))
        return self.build(*(d.dist.inverse_cdf(max(v, _MIN_UNIFORM))
                            for d, v in zip(self.drivers, u)))

    def driver_columns(self, rng: np.random.Generator, count: int) -> list[np.ndarray]:
        """Inverse-transform draws of every driver for ``count`` paths.

        Uniforms are consumed row by row (one per driver per path), so the
        draws do not depend on how paths are built from them.
        """
        u = rng.random((count, len(self.drivers)))
        np.maximum(u, _MIN_UNIFORM, out=u)
        return [d.dist.inverse_cdf(u[:, i]) for i, d in enumerate(self.drivers)]


def example1_model() -> ProcessModel:
    """Discrete-time martingale with a single jump of size xi at time 1."""
    xi = make_xi_distribution()
    drivers = (
        Driver(
            name="xi",
            dist=xi,
            anchor=0.0,
            levels=(1e-2, 1e-3, 1e-4, 1e-5),
            growth="log",
            truncate=lambda delta: (-1.0 + delta, None),
        ),
    )

    def build(x: float) -> JumpPath:
        return JumpPath(horizon=1.0, jumps=((1.0, x),))

    def build_batch(x: np.ndarray) -> PathBatch:
        n = len(x)
        return PathBatch(
            horizon=np.ones(n),
            jump_t=np.ones((n, 1)),
            jump_dm=np.asarray(x, dtype=float).reshape(n, 1),
        )

    return ProcessModel(
        name="example1",
        drivers=drivers,
        build=build,
        build_batch=build_batch,
    )


def _truncate_jump_time(T: float) -> tuple[None, float]:
    # build caps the jump time, so past the cap the integrand is no longer
    # the model's and a truncated family there stops growing
    if T > _JUMP_TIME_CAP:
        raise ValueError(
            f"jump-time level {T!r} exceeds the jump-time cap {_JUMP_TIME_CAP!r}")
    return None, T


def _waiting_time(name: str, start: float) -> tuple[Driver, ExpCompensatorDrift]:
    """The unit-exponential waiting-time driver whose clock starts at
    ``start``, and the compensator of the Poisson integral it stops."""
    driver = Driver(
        name=name,
        dist=make_first_jump_time(),
        anchor=1.0,
        levels=(10.0, 20.0, 40.0, 80.0),
        growth="linear",
        truncate=_truncate_jump_time,
        start=start,
    )
    return driver, ExpCompensatorDrift(start)


def _ps_disc_qv(path: JumpPath, t: float) -> float:
    # int_0^{t ^ horizon} e^{2s} ds
    return 0.5 * expm1(2.0 * min(t, path.horizon))


# Cephes ``spence`` rational approximation of the dilogarithm on [0.5, 1.5]
_SPENCE_A = (
    4.65128586073990045278e-5, 7.31589045238094711071e-3,
    1.33847639578309018650e-1, 8.79691311754530315341e-1,
    2.71149851196553469920e0, 4.25697156008121755724e0,
    3.29771340985225106936e0, 1.00000000000000000126e0,
)
_SPENCE_B = (
    6.90990488912553276999e-4, 2.54043763932544379113e-2,
    2.82974860602568089943e-1, 1.41172597751831069617e0,
    3.63800533345137075418e0, 5.03278880143316990390e0,
    3.54771340985225096217e0, 9.99999999999999998740e-1,
)


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def spence(x: float) -> float:
    """Spence's function ``int_1^x log(t) / (1 - t) dt = Li2(1 - x)`` for
    ``x >= 0`` (``nan`` below): the Cephes algorithm, operation for
    operation, so it equals ``scipy.special.spence`` bit for bit.  Its
    logarithms are ``math.log``, the C library's, as in Cephes: NumPy's
    dispatched ``log`` would move those bits on some CPUs."""
    if x < 0.0:
        return math.nan
    if x == 1.0:
        return 0.0
    if x == 0.0:
        return math.pi * math.pi / 6.0
    flag = 0
    if x > 2.0:
        x = 1.0 / x
        flag |= 2
    if x > 1.5:
        w = (1.0 / x) - 1.0
        flag |= 2
    elif x < 0.5:
        w = -x
        flag |= 1
    else:
        w = x - 1.0
    y = -w * _polevl(w, _SPENCE_A) / _polevl(w, _SPENCE_B)
    if flag & 1:
        y = (math.pi * math.pi) / 6.0 - math.log(x) * math.log(1.0 - x) - y
    if flag & 2:
        z = math.log(x)
        y = -0.5 * z * z - y
    return y


def _lm_primitive(u: float) -> float:
    # antiderivative of (1+u) ln(1+u) / u in u: -Li2(-u) + (1+u) ln(1+u) - u
    return -spence(1.0 + u) + (1.0 + u) * log1p(u) - u


_LM_AT_ONE = _lm_primitive(1.0)


def _lm_profile(T: float) -> float:
    # int_0^T ((1+e^s) ln(1+e^s) - e^s) ds, elementary up to a dilogarithm
    if T <= 0.0:
        return 0.0
    u = exp(T)
    return (_lm_primitive(u) - _LM_AT_ONE) - (u - 1.0)


def _lm_compensator(path: JumpPath, t: float) -> float:
    return _lm_profile(min(t, path.horizon))


def example2_model() -> ProcessModel:
    """Compensated Poisson integral of e^s stopped at the first jump.

    The path has one jump of size ``e^{tau}`` at the exponential time
    ``tau`` and drift ``-(e^t - 1)``; its value at the horizon is exactly 1
    for every realization.  ``disc_qv`` and ``lm_compensator`` are the
    closed forms ``int e^{2s} ds`` and
    ``int ((1+e^s) ln(1+e^s) - e^s) ds`` on ``[0, t ^ tau]``.
    """
    tau1, drift = _waiting_time("tau1", 0.0)

    def build(e: float) -> JumpPath:
        # floor keeps the horizon strictly positive in float; the cap keeps
        # e^tau finite for proposal draws far out in the tail
        tau = min(max(e, 1e-300), _JUMP_TIME_CAP)
        return JumpPath(
            horizon=tau,
            jumps=((tau, exp(tau)),),
            drift=drift,
        )

    def build_batch(e: np.ndarray) -> PathBatch:
        tau = np.minimum(np.maximum(e, 1e-300), _JUMP_TIME_CAP)
        return PathBatch(
            horizon=tau,
            jump_t=tau[:, None],
            jump_dm=np.exp(tau)[:, None],
            drift=drift,
        )

    return ProcessModel(
        name="example2",
        drivers=(tau1,),
        build=build,
        disc_qv=_ps_disc_qv,
        lm_compensator=_lm_compensator,
        build_batch=build_batch,
    )


def example3_model() -> ProcessModel:
    """Two-jump local martingale: an eta jump at time 1, then a restarted
    compensated Poisson integral of ``e^{s-1}`` stopped at its first jump.

    The two drivers (eta and the post-1 exponential waiting time) are
    sampled independently.
    """
    start = 1.0
    eta = Driver(
        name="eta",
        dist=make_eta_distribution(),
        anchor=0.0,
        levels=(1e-2, 1e-3, 1e-4, 1e-5),
        growth="log",
        truncate=lambda delta: (None, 1.0 / delta),
    )
    tau1_hat, drift = _waiting_time("tau1_hat", start)

    def build(x: float, e: float) -> JumpPath:
        # floor keeps start + e strictly above start in float so the two
        # jump times stay ordered; the displaced mass is ~1e-15
        tau_hat = start + min(max(e, 1e-15), _JUMP_TIME_CAP)
        return JumpPath(
            horizon=tau_hat,
            jumps=((start, x), (tau_hat, exp(tau_hat - start))),
            drift=drift,
        )

    def build_batch(x: np.ndarray, e: np.ndarray) -> PathBatch:
        tau_hat = start + np.minimum(np.maximum(e, 1e-15), _JUMP_TIME_CAP)
        return PathBatch(
            horizon=tau_hat,
            jump_t=np.column_stack((np.full(len(tau_hat), start), tau_hat)),
            jump_dm=np.column_stack((x, np.exp(tau_hat - start))),
            drift=drift,
        )

    return ProcessModel(
        name="example3",
        drivers=(eta, tau1_hat),
        build=build,
        build_batch=build_batch,
    )


EXAMPLE_MODELS: dict[str, Callable[[], ProcessModel]] = {
    "example1": example1_model,
    "example2": example2_model,
    "example3": example3_model,
}


# ----------------------------------------------------------------------
# JSON round-tripping for sampled paths
# ----------------------------------------------------------------------

#: The keys of a serialized path and of each of its jumps, part of the
#: CLI contract.
_PATH_KEYS = frozenset({"horizon", "jumps", "drift_kind"})
_JUMP_KEYS = frozenset({"t", "dm"})


def path_to_json(path: JumpPath) -> dict:
    """Serialize a sampled path as ``{horizon, jumps: [{t, dm}], drift_kind}``."""
    if path.drift.kind == "derived":
        raise ValueError("derived drift components are not serializable")
    return {
        "horizon": path.horizon,
        "jumps": [{"t": t, "dm": dm} for t, dm in path.jumps],
        "drift_kind": path.drift.kind,
    }


def _drift_from_kind(kind: str):
    if kind == "zero":
        return _ZERO_DRIFT
    if isinstance(kind, str) and kind.startswith("exp_compensator:"):
        start = float(kind.split(":", 1)[1])
        if math.isfinite(start):
            return ExpCompensatorDrift(start)
    raise ValueError(f"unknown drift_kind {kind!r}: need 'zero' or "
                     "'exp_compensator:<finite start>'")


def _finite_number(value, what: str) -> float:
    """``value`` as a float; ``ValueError`` unless a finite int or float (not a bool)."""
    try:
        if not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except (TypeError, OverflowError):
        pass
    raise ValueError(f"{what} must be a finite number, got {value!r}")


def _with_keys(doc, keys: frozenset, what: str) -> dict:
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be an object, got {type(doc).__name__}")
    missing, extra = sorted(keys - set(doc)), sorted(set(doc) - keys)
    if missing or extra:
        raise ValueError(f"{what}: missing keys {missing}, unknown keys {extra}")
    return doc


def path_from_json(doc: dict) -> JumpPath:
    """Rebuild a path serialized by :func:`path_to_json`.  A document or jump
    without exactly its keys, a ``jumps`` that is not a list, a ``horizon``,
    ``t`` or ``dm`` that is not a finite number, or an unknown ``drift_kind``
    is a ``ValueError``."""
    _with_keys(doc, _PATH_KEYS, "path document")
    if not isinstance(doc["jumps"], list):
        raise ValueError(f"jumps must be a list, got {type(doc['jumps']).__name__}")
    jumps = (_with_keys(j, _JUMP_KEYS, "jump") for j in doc["jumps"])
    return JumpPath(
        horizon=_finite_number(doc["horizon"], "horizon"),
        jumps=tuple((_finite_number(j["t"], "jump t"), _finite_number(j["dm"], "jump dm"))
                    for j in jumps),
        drift=_drift_from_kind(doc["drift_kind"]),
    )
