"""Eligibility rules: can a unit carry a balancing bid, and how much.

The central idea is that the traded capacity is decoupled from the rated
power of the plant: a slow-ramping electrolyzer can still firm up a small
bid, because the deadline applies to the offered megawatts, not to the
full nameplate range.  ``eq1_gradient`` and its inverses quantify that
trade-off; ``check_eligibility`` applies the market rules one by one, and
``capacity_limit_mw`` gives the largest bid they admit at a setpoint.  A bid
fits when it is on the trading grid, at or above the minimum bid and within
min(headroom, ramp x deadline) + ``SLACK_MW`` (1e-9 MW).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .markets import BalancingProduct, Direction
from .model import SLACK_MW, ElectrolyzerUnit, check_range

# constraint names, in evaluation order
MIN_BID = "min_bid"
GRANULARITY = "granularity"
HEADROOM = "headroom"
RAMP_DEADLINE = "ramp_deadline"
DURATION = "duration"


@dataclass(frozen=True)
class ConstraintCheck:
    """Outcome of one market rule: slack >= 0 means satisfied."""

    name: str
    required: float
    actual: float
    margin: float
    passed: bool


@dataclass(frozen=True)
class EligibilityReport:
    product: BalancingProduct
    bid_mw: float
    setpoint_mw: float
    constraints: tuple[ConstraintCheck, ...]
    eligible: bool
    limiting_constraint: str | None

    def constraint(self, name: str) -> ConstraintCheck:
        for check in self.constraints:
            if check.name == name:
                return check
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "product": self.product.label,
            "bid_mw": self.bid_mw,
            "setpoint_mw": self.setpoint_mw,
            "eligible": self.eligible,
            "limiting_constraint": self.limiting_constraint,
            "constraints": [vars(c).copy() for c in self.constraints],  # flat fields: no deep copy
        }


@dataclass(frozen=True)
class Eq1Inputs:
    """Inputs of the capacity/ramp decoupling relation.

    p_anc_mw is the total procured ancillary capacity of the product and
    p_ts_mw its trading size; delta_el is the unit ramp capability as a
    fraction of rated power per second.
    """

    p_el_mw: float
    u: float  # share of rated power that must keep running
    delta_el: float  # fraction of rated power per second
    p_anc_mw: float
    p_ts_mw: float

    def __post_init__(self) -> None:
        _check_eq1_inputs(**vars(self))


def _check_eq1_inputs(**inputs: float) -> None:
    """Eq. 1's input rule: ``u`` in [0, 1), leaving a flexible band, all else in (0, inf)."""
    for name, value in inputs.items():
        check_range(name, value, "[0, 1)" if name == "u" else "(0, inf)")


def eq1_gradient(inputs: Eq1Inputs) -> float:
    """Deliverable power gradient (MW/s) per traded slice of the product.

    The flexible band of the plant, p_el * (1 - u), ramps at delta_el; the
    procured capacity is split into p_anc / p_ts tradable slices, so each
    slice sees the plant gradient scaled down by that count.
    """
    slices = inputs.p_anc_mw / inputs.p_ts_mw
    return inputs.p_el_mw * (1.0 - inputs.u) * inputs.delta_el / slices


def eq1_min_ramp(
    p_el_mw: float, u: float, p_anc_mw: float, p_ts_mw: float, required_mw_per_s: float
) -> float:
    """Minimum unit ramp capability (fraction of rated per second).

    Inverts the gradient relation: the plant must deliver
    ``required_mw_per_s`` on every one of the p_anc/p_ts slices.
    """
    _check_eq1_inputs(**locals())  # every argument is an input of Eq. 1
    return required_mw_per_s * (p_anc_mw / p_ts_mw) / (p_el_mw * (1.0 - u))


def min_rated_power(
    per_direction_capacity_mw: float, delta_el: float, availability_s: float
) -> float:
    """Smallest rated power able to firm up the capacity within the deadline."""
    _check_eq1_inputs(**locals())  # every argument is an input of Eq. 1
    return per_direction_capacity_mw / (delta_el * availability_s)


def _headroom_mw(
    unit: ElectrolyzerUnit, product: BalancingProduct, setpoint_mw: float | np.ndarray
) -> float | np.ndarray:
    """Room the activation can move into from the setpoint, on the side that binds."""
    return product.direction.binding(lambda: setpoint_mw - unit.min_power_mw,
                                     lambda: unit.rated_power_mw - setpoint_mw)


def _ramp_mw_per_s(unit: ElectrolyzerUnit, product: BalancingProduct) -> float:
    """Ramp that paces the delivery: the ramp toward the side that binds."""
    return product.direction.binding(lambda: unit.ramp_down_mw_per_s,
                                     lambda: unit.ramp_up_mw_per_s)


def _reach_mw(unit: ElectrolyzerUnit, product: BalancingProduct) -> float:
    """Largest move the pacing ramp makes within the product deadline."""
    return _ramp_mw_per_s(unit, product) * product.availability_s


def _float_or_array(values: np.ndarray) -> float | np.ndarray:
    return float(values) if values.ndim == 0 else values


def capacity_limit_mw(
    unit: ElectrolyzerUnit, product: BalancingProduct, setpoint_mw: float | np.ndarray
) -> float | np.ndarray:
    """Largest bid, in MW off the trading grid, that fits the headroom at
    the setpoint and that the ramp delivers within the product deadline.

    This is the capacity/ramp decoupling: the deadline bounds the offered
    megawatts, not the rated power.  Outside the operating band (and at a
    NaN setpoint) the limit is 0.  A float gives a float, an array an
    array of the same shape.
    """
    sp = np.asarray(setpoint_mw, dtype=float)
    in_band = (unit.min_power_mw - SLACK_MW <= sp) & (sp <= unit.rated_power_mw + SLACK_MW)
    limit = np.minimum(_headroom_mw(unit, product, sp), _reach_mw(unit, product))
    return _float_or_array(np.where(in_band, limit, 0.0))


def tradable_mw(limit_mw: float | np.ndarray, product: BalancingProduct) -> float | np.ndarray:
    """Largest bid on the trading grid up to ``limit_mw`` + ``SLACK_MW``, or
    0 when that falls short of the minimum bid (or the limit is NaN).  A
    float gives a float, an array an array of the same shape."""
    inc = product.trade_increment_mw
    bid = np.floor((np.asarray(limit_mw, dtype=float) + SLACK_MW) / inc) * inc
    return _float_or_array(np.where(bid >= product.min_bid_mw - SLACK_MW, bid, 0.0))


def _rule_checks(
    unit: ElectrolyzerUnit, product: BalancingProduct, bid_mw: float, setpoint_mw: float
) -> tuple[tuple[str, float, float, float, bool], ...]:
    """The market rules for one bid in evaluation order, each as the fields
    of its ``ConstraintCheck``: (name, required, actual, margin, passed)."""
    check_range("bid_mw", bid_mw, "(0, inf)")
    unit.check_setpoint(setpoint_mw)
    inc = product.trade_increment_mw
    lots = bid_mw / inc
    off_grid = abs(lots - round(lots)) * inc
    room = float(_headroom_mw(unit, product, setpoint_mw))
    headroom_ok = bid_mw <= room + SLACK_MW
    delivery_s = bid_mw / _ramp_mw_per_s(unit, product)
    return (
        # C1: minimum bid size
        (MIN_BID, product.min_bid_mw, bid_mw, bid_mw - product.min_bid_mw,
         bid_mw >= product.min_bid_mw - SLACK_MW),
        # C2: bid on the trading-size grid
        (GRANULARITY, inc, off_grid, -off_grid, off_grid <= SLACK_MW),
        # C3: headroom around the setpoint
        (HEADROOM, bid_mw, room, room - bid_mw, headroom_ok),
        # C4: full delivery within the availability deadline
        (RAMP_DEADLINE, product.availability_s, delivery_s, product.availability_s - delivery_s,
         bid_mw <= _reach_mw(unit, product) + SLACK_MW),
        # C5: sustaining the activation for the block.  A steady-state load
        # can hold any in-band operating point indefinitely, so this follows
        # the headroom check.
        (DURATION, product.duration_h, product.duration_h if headroom_ok else 0.0,
         0.0 if headroom_ok else -product.duration_h, headroom_ok),
    )


def _limiting(checks: tuple[tuple[str, float, float, float, bool], ...]) -> str | None:
    """Name of the first rule that fails, None when all pass."""
    return next((name for name, *_, passed in checks if not passed), None)


def check_eligibility(
    unit: ElectrolyzerUnit,
    product: BalancingProduct,
    bid_mw: float,
    setpoint_mw: float,
) -> EligibilityReport:
    """Apply the market admission rules to one bid at one operating point.

    A positive reserve is a load decrease for a consuming asset, so POS
    bids lean on the ramp-down rate and on the headroom below the
    setpoint; NEG bids mirror that.  Symmetric products need both sides
    and are paced by the slower ramp direction.  Landing exactly on the
    deadline still qualifies: the bid fits when it is on the trading grid,
    at or above the minimum bid and within min(headroom, ramp x deadline)
    + ``SLACK_MW``, the limit ``capacity_limit_mw`` takes; the deadline
    check reports seconds.
    """
    checks = _rule_checks(unit, product, bid_mw, setpoint_mw)
    limiting = _limiting(checks)
    return EligibilityReport(
        product=product,
        bid_mw=bid_mw,
        setpoint_mw=setpoint_mw,
        constraints=tuple(ConstraintCheck(*c) for c in checks),
        eligible=limiting is None,
        limiting_constraint=limiting,
    )


def _round_half_up(value: float, step: float) -> float:
    return math.floor(value / step + 0.5) * step


def default_setpoint(unit: ElectrolyzerUnit, product: BalancingProduct) -> float:
    """Operating point used when the caller does not fix one.

    Symmetric products get the midpoint of the operating band, rounded to
    the trading-size grid (half up, i.e. toward higher hydrogen output);
    one-sided products park at the band edge that leaves the whole band
    available for the activation.
    """
    if not product.direction.raises_load:
        return unit.rated_power_mw
    if not product.direction.lowers_load:
        return unit.min_power_mw
    mid = 0.5 * (unit.min_power_mw + unit.rated_power_mw)
    rounded = _round_half_up(mid, product.trade_increment_mw)
    return min(max(rounded, unit.min_power_mw), unit.rated_power_mw)


def max_offerable(
    unit: ElectrolyzerUnit,
    product: BalancingProduct,
    setpoint_mw: float | None = None,
) -> tuple[float, float]:
    """Largest eligible bid for the product, with the setpoint that hosts it.

    The bid is the tradable part of ``capacity_limit_mw`` at the given
    setpoint.  Without one it is taken at the widest setpoint (the band
    midpoint for SYM, rated power for POS, minimum load for NEG) and then
    hosted at the setpoint nearest ``default_setpoint`` that leaves it
    headroom.  Returns (0.0, setpoint) when no bid fits; a non-finite
    setpoint is an error.
    """
    if setpoint_mw is None:
        d, parked = product.direction, default_setpoint(unit, product)
        widest = 0.5 * (unit.min_power_mw + unit.rated_power_mw) if d is Direction.SYM else parked
        bid = tradable_mw(capacity_limit_mw(unit, product, widest), product)
        down, up = d.band(0.0, bid)  # the bid's offsets from the setpoint that hosts it
        sp = min(max(parked, unit.min_power_mw - down), unit.rated_power_mw - up)
    else:
        check_range("setpoint_mw", setpoint_mw, "(-inf, inf)")
        sp = setpoint_mw
        bid = tradable_mw(capacity_limit_mw(unit, product, sp), product)
    # the check states the closed form's rule in MW, so it confirms the bid
    if bid > 0.0 and not check_eligibility(unit, product, bid, sp).eligible:
        bid = tradable_mw(bid - product.trade_increment_mw, product)
    return bid, sp
