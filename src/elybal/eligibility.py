"""Eligibility rules: can a unit carry a balancing bid, and how much.

The central idea is that the traded capacity is decoupled from the rated
power of the plant: a slow-ramping electrolyzer can still firm up a small
bid, because the deadline applies to the offered megawatts, not to the
full nameplate range.  ``eq1_gradient`` and its inverses quantify that
trade-off; ``check_eligibility`` applies the market rules one by one, and
``capacity_limit_mw`` gives the largest bid they admit at a setpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .markets import BalancingProduct, Direction
from .model import ElectrolyzerUnit

_TOL = 1e-9

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
            "constraints": [
                {
                    "name": c.name,
                    "required": c.required,
                    "actual": c.actual,
                    "margin": c.margin,
                    "passed": c.passed,
                }
                for c in self.constraints
            ],
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
        if self.p_el_mw <= 0:
            raise ValueError("p_el_mw must be > 0")
        if not 0 <= self.u < 1:
            raise ValueError(f"u must be in [0, 1), got {self.u}")
        if self.delta_el <= 0:
            raise ValueError("delta_el must be > 0")
        if self.p_anc_mw <= 0 or self.p_ts_mw <= 0:
            raise ValueError("p_anc_mw and p_ts_mw must be > 0")


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
    if p_el_mw <= 0 or p_anc_mw <= 0 or p_ts_mw <= 0 or required_mw_per_s <= 0:
        raise ValueError("all inputs must be > 0")
    if not 0 <= u < 1:
        raise ValueError(f"u must be in [0, 1), got {u}: no flexible band left")
    return required_mw_per_s * (p_anc_mw / p_ts_mw) / (p_el_mw * (1.0 - u))


def min_rated_power(
    per_direction_capacity_mw: float, delta_el: float, availability_s: float
) -> float:
    """Smallest rated power able to firm up the capacity within the deadline."""
    if per_direction_capacity_mw <= 0:
        raise ValueError("per_direction_capacity_mw must be > 0")
    if delta_el <= 0 or availability_s <= 0:
        raise ValueError("delta_el and availability_s must be > 0")
    return per_direction_capacity_mw / (delta_el * availability_s)


def time_to_deliver(unit: ElectrolyzerUnit, delta_p_mw: float, direction: str) -> float:
    """Seconds to move the unit output by ``delta_p_mw`` in one direction."""
    if delta_p_mw < 0:
        raise ValueError(f"delta_p_mw must be >= 0, got {delta_p_mw}")
    if delta_p_mw == 0:
        return 0.0
    return delta_p_mw / unit.ramp_mw_per_s(direction)


def _headroom_mw(unit: ElectrolyzerUnit, product: BalancingProduct, setpoint_mw: float) -> float:
    """Room the activation can move into: below the setpoint for POS (a
    load decrease), above it for NEG, the narrower side for SYM."""
    room_down = setpoint_mw - unit.min_power_mw
    room_up = unit.rated_power_mw - setpoint_mw
    if product.direction is Direction.SYM:
        return min(room_down, room_up)
    if product.direction is Direction.POS:
        return room_down
    return room_up


def _ramp_mw_per_s(unit: ElectrolyzerUnit, product: BalancingProduct) -> float:
    """Ramp that paces the delivery: down for POS, up for NEG, the slower
    direction for SYM."""
    if product.direction is Direction.SYM:
        return min(unit.ramp_up_mw_per_s, unit.ramp_down_mw_per_s)
    if product.direction is Direction.POS:
        return unit.ramp_down_mw_per_s
    return unit.ramp_up_mw_per_s


def capacity_limit_mw(
    unit: ElectrolyzerUnit, product: BalancingProduct, setpoint_mw: float
) -> float:
    """Largest bid, in MW off the trading grid, that fits the headroom at
    the setpoint and that the ramp delivers within the product deadline.

    This is the capacity/ramp decoupling: the deadline bounds the offered
    megawatts, not the rated power.  Outside the operating band the limit
    is 0.
    """
    if not unit.min_power_mw - _TOL <= setpoint_mw <= unit.rated_power_mw + _TOL:
        return 0.0
    return min(
        _headroom_mw(unit, product, setpoint_mw),
        _ramp_mw_per_s(unit, product) * product.availability_s,
    )


def tradable_mw(limit_mw: float, product: BalancingProduct) -> float:
    """Largest bid on the trading grid up to ``limit_mw``, or 0 when that
    falls short of the minimum bid."""
    inc = product.trade_increment_mw
    bid = math.floor(limit_mw / inc + _TOL) * inc
    return bid if bid >= product.min_bid_mw - _TOL else 0.0


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
    deadline still qualifies.
    """
    if bid_mw <= 0:
        raise ValueError(f"bid must be > 0 MW, got {bid_mw}")
    min_p = unit.min_power_mw
    max_p = unit.rated_power_mw
    if setpoint_mw < min_p - _TOL or setpoint_mw > max_p + _TOL:
        raise ValueError(
            f"setpoint {setpoint_mw} MW outside operating band [{min_p}, {max_p}] MW"
        )

    checks: list[ConstraintCheck] = []

    # C1: minimum bid size
    checks.append(
        ConstraintCheck(
            MIN_BID,
            required=product.min_bid_mw,
            actual=bid_mw,
            margin=bid_mw - product.min_bid_mw,
            passed=bid_mw >= product.min_bid_mw - _TOL,
        )
    )

    # C2: bid on the trading-size grid
    inc = product.trade_increment_mw
    lots = bid_mw / inc
    off_grid = abs(lots - round(lots)) * inc
    checks.append(
        ConstraintCheck(
            GRANULARITY,
            required=inc,
            actual=off_grid,
            margin=-off_grid,
            passed=off_grid <= _TOL,
        )
    )

    # C3: headroom around the setpoint
    room = _headroom_mw(unit, product, setpoint_mw)
    headroom_ok = room >= bid_mw - _TOL
    checks.append(
        ConstraintCheck(
            HEADROOM,
            required=bid_mw,
            actual=room,
            margin=room - bid_mw,
            passed=headroom_ok,
        )
    )

    # C4: full delivery within the availability deadline
    delivery_s = bid_mw / _ramp_mw_per_s(unit, product)
    checks.append(
        ConstraintCheck(
            RAMP_DEADLINE,
            required=product.availability_s,
            actual=delivery_s,
            margin=product.availability_s - delivery_s,
            passed=delivery_s <= product.availability_s + _TOL,
        )
    )

    # C5: sustaining the activation for the block.  A steady-state load
    # can hold any in-band operating point indefinitely, so this follows
    # the headroom check.
    checks.append(
        ConstraintCheck(
            DURATION,
            required=product.duration_h,
            actual=product.duration_h if headroom_ok else 0.0,
            margin=0.0 if headroom_ok else -product.duration_h,
            passed=headroom_ok,
        )
    )

    limiting = next((c.name for c in checks if not c.passed), None)
    return EligibilityReport(
        product=product,
        bid_mw=bid_mw,
        setpoint_mw=setpoint_mw,
        constraints=tuple(checks),
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
    if product.direction is Direction.POS:
        return unit.rated_power_mw
    if product.direction is Direction.NEG:
        return unit.min_power_mw
    mid = 0.5 * (unit.min_power_mw + unit.rated_power_mw)
    rounded = _round_half_up(mid, product.trade_increment_mw)
    return min(max(rounded, unit.min_power_mw), unit.rated_power_mw)


def _setpoint_for_bid(
    unit: ElectrolyzerUnit, product: BalancingProduct, bid_mw: float
) -> float:
    """``default_setpoint`` moved just far enough to leave the bid headroom."""
    min_p, max_p = unit.min_power_mw, unit.rated_power_mw
    if product.direction is Direction.SYM:
        lo, hi = min_p + bid_mw, max_p - bid_mw
    elif product.direction is Direction.POS:
        lo, hi = min_p + bid_mw, max_p
    else:
        lo, hi = min_p, max_p - bid_mw
    return min(max(default_setpoint(unit, product), lo), hi)


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
    headroom.  Returns (0.0, setpoint) when no bid fits.
    """
    if setpoint_mw is None:
        widest = {
            Direction.SYM: 0.5 * (unit.min_power_mw + unit.rated_power_mw),
            Direction.POS: unit.rated_power_mw,
            Direction.NEG: unit.min_power_mw,
        }[product.direction]
        bid = tradable_mw(capacity_limit_mw(unit, product, widest), product)
        sp = _setpoint_for_bid(unit, product, bid)
    else:
        sp = setpoint_mw
        bid = tradable_mw(capacity_limit_mw(unit, product, sp), product)
    # the closed form and the check state one rule; at a float-tolerance
    # edge of a lot boundary the check has the last word
    if bid > 0.0 and not check_eligibility(unit, product, bid, sp).eligible:
        bid = tradable_mw(bid - product.trade_increment_mw, product)
    return bid, sp
