"""Activation dispatch: rate-limited plant response and delivery checking.

Sign convention, used throughout: power is plant consumption in MW.  A
positive reserve supports the grid by *reducing* consumption, so a full
positive activation corresponds to a negative power offset.  For the FCR
droop response this means an under-frequency event (negative deviation)
pulls the electrolyzer down and an over-frequency event pushes it up, at
full activation for deviations of +/-0.2 Hz and beyond.

The plant model is a pure rate limiter: no actuation lag, no setpoint
filtering.  Anything slower in reality only adds to the delays computed
here.

Signals and trajectories are held as read-only float64 arrays and handled
as whole arrays: requests, the grading of every activation onset and the
hydrogen output are each one array pass.  Only the rate limiter steps
through the samples, each depending on the one before, and it copies a
held request it has reached.  Array sums add in another order than a
sequential loop, so energies and hydrogen masses may differ from one at
the 1e-15 relative level; verdicts and delays do not.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .markets import BalancingProduct, Direction, TableError
from .model import SLACK_MW, EfficiencyCurve, ElectrolyzerUnit, check_range, specific_energy_at

DROOP_FULL_ACTIVATION_HZ = 0.2
DELIVERY_TOLERANCE = 0.005  # fraction of the bid
SLACK_FULL = 1e-9  # share of the bid a full request may fall short by: droop math rounds
DEFAULT_TIMESTEP_S = 1.0
SLACK_S = 1e-9  # how far apart two times (s) still count as one, per second of scale above 1 s
# shortest run copied: a copied run costs ~1.4 us with the step onto it, ~13 clamp steps of
# ~110 ns (measured on a week of held runs, 2-core x86-64, best of 7)
_MIN_RUN = 16


def _slack_s(scale_s: float = 0.0) -> float:  # the one time slack, at a time scale (s)
    return SLACK_S * max(1.0, scale_s)


class SignalKind(str, Enum):
    FREQUENCY_DEVIATION = "frequency"  # Hz offset from 50 Hz
    SETPOINT_REQUEST = "setpoint"  # requested power offset in MW


@dataclass(frozen=True, eq=False)
class ActivationSignal:
    """Uniformly sampled activation request starting at t = 0.

    ``values`` is a read-only float64 copy of the samples given.
    """

    kind: SignalKind
    values: np.ndarray
    timestep_s: float = DEFAULT_TIMESTEP_S

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=np.float64)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        check_range("timestep_s", self.timestep_s, "(0, inf)")
        if values.ndim != 1 or values.size == 0:
            raise ValueError("signal needs a one-dimensional array of at least one sample")
        finite = np.isfinite(values)
        if not finite.all():
            raise ValueError(f"signal sample {np.argmin(finite)} is not finite")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ActivationSignal):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.timestep_s == other.timestep_s
            and np.array_equal(self.values, other.values)
        )

    @classmethod
    def from_rows(
        cls, kind: SignalKind, rows: np.ndarray | list[tuple[float, float]]
    ) -> "ActivationSignal":
        """Build from (time_s, value) rows, an (n, 2) array, enforcing t0 = 0
        and uniform spacing; a time fault is a ``TableError`` in ``time_s``."""
        rows = np.asarray(rows, dtype=float)
        if len(rows) < 2:
            raise TableError("signal file needs at least two rows to fix the timestep",
                             None, "time_s")
        times = rows[:, 0]
        if abs(times[0]) > _slack_s():
            raise TableError(f"signal must start at t = 0 s, got {times[0]}", 0, "time_s")
        dt = float(times[1] - times[0])
        if dt <= 0:
            raise TableError("signal times must be strictly increasing", 1, "time_s")
        off_grid = ~(np.abs(np.diff(times) - dt) <= _slack_s(dt))  # NaN is off too
        if off_grid.any():
            i = int(np.argmax(off_grid))
            raise TableError("non-uniform timestep", i + 1, "time_s",
                             f"non-uniform timestep between rows {i} and {i + 1}")
        return cls(kind, rows[:, 1], dt)


@dataclass(frozen=True, eq=False)
class PowerTrajectory:
    """Simulated plant consumption, one sample per timestep.

    ``powers_mw`` is a read-only float64 copy of the samples given, so the
    band and ramp checks made here hold for the trajectory's lifetime.
    """

    timestep_s: float
    powers_mw: np.ndarray = field(repr=False)
    unit: ElectrolyzerUnit

    def __post_init__(self) -> None:
        powers = np.array(self.powers_mw, dtype=np.float64)
        powers.setflags(write=False)
        object.__setattr__(self, "powers_mw", powers)
        if powers.ndim != 1 or powers.size == 0:
            raise ValueError("trajectory needs a one-dimensional, non-empty sample array")
        if not np.isfinite(powers).all():
            raise ValueError("trajectory has non-finite power samples")
        check_range("timestep_s", self.timestep_s, "(0, inf)")
        lo = self.unit.min_power_mw - SLACK_MW
        hi = self.unit.rated_power_mw + SLACK_MW
        if powers.min() < lo or powers.max() > hi:
            raise ValueError("trajectory leaves the operating band of the unit")
        steps = np.diff(powers)
        up_lim = self.unit.ramp_up_mw_per_s * self.timestep_s + SLACK_MW
        down_lim = self.unit.ramp_down_mw_per_s * self.timestep_s + SLACK_MW
        if steps.size and (steps.max() > up_lim or steps.min() < -down_lim):
            raise ValueError("trajectory violates the ramp limits of the unit")

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.powers_mw)) * self.timestep_s


@dataclass(frozen=True)
class ComplianceResult:
    compliant: bool
    first_violation_time_s: float | None
    max_delivery_delay_s: float
    delivered_energy_mwh: float  # signed, relative to the setpoint

    def to_dict(self) -> dict:
        return {
            "compliant": self.compliant,
            "first_violation_time_s": self.first_violation_time_s,
            "max_delivery_delay_s": self.max_delivery_delay_s,
            "delivered_energy_mwh": self.delivered_energy_mwh,
        }


def _requested_offsets(kind: SignalKind, values, bid_mw: float, direction: Direction) -> np.ndarray:
    """Power offsets (MW) the signal samples request from a ``bid_mw`` bid,
    clipped to the bid's band: one-sided products only activate into their own."""
    check_range("bid_mw", bid_mw, "[0, inf)")
    values = np.asarray(values, dtype=float)
    if kind is SignalKind.FREQUENCY_DEVIATION:
        return np.clip(values / DROOP_FULL_ACTIVATION_HZ, *direction.band(0.0, 1.0)) * bid_mw
    return np.clip(values, *direction.band(0.0, bid_mw))


def _check_band(
    unit: ElectrolyzerUnit, setpoint_mw: float, bid_mw: float, direction: Direction
) -> None:
    unit.check_setpoint(setpoint_mw)
    min_p, max_p = unit.min_power_mw, unit.rated_power_mw
    lo, hi = direction.band(setpoint_mw, bid_mw)
    if lo < min_p - SLACK_MW:
        raise TableError(f"setpoint {setpoint_mw} MW cannot host a {bid_mw} MW downward "
                         f"activation above the minimum load {min_p} MW", None, "setpoint_mw")
    if hi > max_p + SLACK_MW:
        raise TableError(f"setpoint {setpoint_mw} MW cannot host a {bid_mw} MW upward "
                         f"activation below the rated power {max_p} MW", None, "setpoint_mw")


def _clamp(p: float, targets: memoryview, up_step: float, max_down: float, append) -> float:
    """The rate limiter: from ``p``, step toward each target in turn, appending each state."""
    for target in targets:  # yields Python floats
        step = target - p
        if step > up_step:
            step = up_step
        elif step < max_down:
            step = max_down
        p += step
        append(p)
    return p


def simulate(
    unit: ElectrolyzerUnit,
    setpoint_mw: float,
    bid_mw: float,
    signal: ActivationSignal,
    direction: Direction = Direction.SYM,
) -> PowerTrajectory:
    """Rate-limited plant response to an activation signal.

    The output starts at the setpoint and chases the requested level with
    at most ramp * rated_power per second of movement, using the ramp rate
    of the respective direction.  Requests are clipped to the bid and to
    the product direction before being applied; sample k reacts to the
    request at k - 1.  Only the clamp on the previous sample is a loop,
    over plain floats.  Once the output equals a run of ``_MIN_RUN`` or more
    equal targets, the rest of the run is copied: each clamp step there would
    be 0.0, which both ramps allow, and p + 0.0 == p as targets exceed 0 MW.
    """
    offsets = _requested_offsets(signal.kind, signal.values, bid_mw, direction)
    _check_band(unit, setpoint_mw, bid_mw, direction)
    dt = signal.timestep_s
    up_step = unit.ramp_up_mw_per_s * dt
    down_step = unit.ramp_down_mw_per_s * dt
    targets = np.clip(setpoint_mw + offsets[:-1], unit.min_power_mw, unit.rated_power_mw)
    # runs of equal targets, [start, stop): the edges of same pair up as (start, stop - 1)
    same = np.concatenate(([False], targets[1:] == targets[:-1], [False]))
    starts, stops = (np.flatnonzero(same[1:] != same[:-1]).reshape(-1, 2) + (0, 1)).T
    held = stops - starts >= _MIN_RUN
    max_down = -down_step
    p = float(setpoint_mw)
    powers = array("d", [p])
    append = powers.append
    fastest = max(up_step, down_step)
    tv, k = memoryview(targets), 0  # k: targets stepped so far, to the state p
    for start, stop in zip(starts[held].tolist(), stops[held].tolist()):
        x = tv[start]
        if abs(x - p) > fastest * (stop - k):  # out of reach (always at 0 MW/step): clamp it later
            continue
        p = _clamp(p, tv[k:start], up_step, max_down, append)
        k = start
        while p != x and k < stop:  # whole steps, then single ones: rounding may leave p by x
            n = min(int(abs(x - p) / fastest) or 1, stop - k)
            p = _clamp(p, tv[k:k + n], up_step, max_down, append)
            k += n
        powers.frombytes(tv[k:stop].cast("B"))  # on x, each step is 0.0 and p + 0.0 == p
        k = stop
    _clamp(p, tv[k:], up_step, max_down, append)
    return PowerTrajectory(dt, np.frombuffer(powers), unit)


def check_compliance(
    trajectory: PowerTrajectory,
    signal: ActivationSignal,
    product: BalancingProduct,
    setpoint_mw: float,
    bid_mw: float,
) -> ComplianceResult:
    """Grade a delivered trajectory against the product's deadline.

    Every sustained full-activation request must be met, within 0.5 % of
    the bid, no later than the availability deadline after its onset.  A
    request that ends before both delivery and deadline is not graded.
    The delivered energy integrates the offset from the setpoint over the
    whole horizon (trapezoidal, in MWh).  Onsets start runs of full
    activation of one sign; all onsets are graded in one pass over the
    full-activation samples, with no loop in Python.  A setpoint that
    cannot host the bid in the product's direction, as ``simulate``
    requires, is an input error, not a failed verdict.
    """
    offsets = _requested_offsets(signal.kind, signal.values, bid_mw, product.direction)
    _check_band(trajectory.unit, setpoint_mw, bid_mw, product.direction)
    n = len(trajectory.powers_mw)
    if n != len(signal.values):
        raise ValueError(
            f"trajectory ({n} samples) and signal ({len(signal.values)}) differ in horizon"
        )
    if abs(trajectory.timestep_s - signal.timestep_s) > _slack_s(signal.timestep_s):
        raise ValueError("trajectory and signal timesteps differ")
    dt = trajectory.timestep_s
    powers = trajectory.powers_mw
    energy = float(np.trapezoid(powers - setpoint_mw, dx=dt)) / 3600.0

    if bid_mw == 0:
        return ComplianceResult(True, None, 0.0, energy)

    full = np.abs(offsets) >= bid_mw * (1.0 - SLACK_FULL)
    same = np.zeros(n, dtype=bool)  # continues the run of the sample before
    same[1:] = full[1:] & full[:-1] & (offsets[:-1] * offsets[1:] > 0)
    onsets = np.flatnonzero(full & ~same)
    tol = DELIVERY_TOLERANCE * bid_mw

    # the graded samples are the full ones, each in the run of the last
    # onset at or before it: run k is graded[start[k]:stop[k]]
    graded = np.flatnonzero(full)
    start = np.searchsorted(graded, onsets)
    stop = np.append(start[1:], graded.size)
    required = np.repeat(setpoint_mw + offsets[onsets], stop - start)
    hits = np.flatnonzero(np.abs(powers[graded] - required) <= tol)
    # the first hit at or after each run's start; graded.size when none is left
    first_hit = np.append(hits, graded.size)[np.searchsorted(hits, start)]
    delivered = first_hit < stop
    # undelivered, the delay is the time observed; it counts once the
    # deadline passed while the request was still standing
    delays = (graded[np.where(delivered, first_hit, stop - 1)] - onsets) * dt
    late = delays > product.availability_s + _slack_s()
    graded_delays = delays[delivered | late]
    violations = onsets[late] * dt + product.availability_s

    return ComplianceResult(
        compliant=not violations.size,
        first_violation_time_s=float(violations.min()) if violations.size else None,
        max_delivery_delay_s=float(graded_delays.max()) if graded_delays.size else 0.0,
        delivered_energy_mwh=energy,
    )


def hydrogen_output(trajectory: PowerTrajectory, curve: EfficiencyCurve | None) -> float:
    """Hydrogen produced over a trajectory, in kg.

    Power is averaged per interval (trapezoidal) and converted with the
    specific energy at that interval's load fraction, all intervals in one
    array.  Raises when the curve is missing or the trajectory leaves its
    domain: datasheet efficiency curves are not extrapolated.
    """
    powers = trajectory.powers_mw
    p_avg = 0.5 * (powers[:-1] + powers[1:])
    se = specific_energy_at(curve, p_avg / trajectory.unit.rated_power_mw)
    energy_kwh = p_avg * trajectory.timestep_s / 3600.0 * 1000.0
    return float(np.sum(energy_kwh / se))
