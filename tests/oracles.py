"""Reference searches the fast code paths are checked against.

Both are deliberately naive: ``brute_force_oracle`` tries every integer
(FCR, aFRR) pair at every setpoint and states the bid rules on its own,
and ``max_offerable_scan`` walks the bids down from rated power through
``check_eligibility``.  Keep them plain; their job is to be obviously
right, not fast.
"""

from __future__ import annotations

import math

from elybal.allocate import (
    AllocationOptions,
    AllocationResult,
    BidSchedule,
    ScheduleEntry,
    _better,
    _grid_points,
    _hydrogen_loss_kg,
    _split_products,
)
from elybal.eligibility import check_eligibility, default_setpoint
from elybal.markets import (
    CANONICAL_BLOCKS,
    BalancingProduct,
    CapacityPriceTable,
    Direction,
    TimeBlock,
)
from elybal.model import ElectrolyzerUnit

_EPS = 1e-9


def brute_force_oracle(
    unit: ElectrolyzerUnit,
    products: list[BalancingProduct] | tuple[BalancingProduct, ...],
    fcr_prices: CapacityPriceTable | None,
    afrr_price_per_block_eur: float | None,
    options: AllocationOptions | None = None,
    blocks: tuple[TimeBlock, ...] | None = None,
    max_combinations: int = 10**6,
) -> AllocationResult:
    """Reference optimizer: plain cross product over all integer bids.

    Shares only the objective and the tie-break order with ``optimize_day``.
    Refuses to run when the search space exceeds ``max_combinations``.
    """
    options = options or AllocationOptions()
    blocks = blocks if blocks is not None else CANONICAL_BLOCKS
    fcr_prod, afrr_prod = _split_products(tuple(products))

    min_p, max_p = unit.min_power_mw, unit.rated_power_mw
    h2_value = options.hydrogen_value_eur_per_kg
    lowest_sp = min_p
    if h2_value is not None:
        # forgone production is only known where the efficiency curve is
        lowest_sp = max(min_p, unit.efficiency_curve.domain[0] * max_p)
    setpoints = _grid_points(lowest_sp, max_p, options.setpoint_grid_mw)
    n_quant = int(math.floor(max_p / 1.0 + _EPS)) + 1
    space = len(blocks) * len(setpoints) * n_quant * n_quant
    if space > max_combinations:
        raise ValueError(
            f"search space of {space} combinations exceeds the oracle bound {max_combinations}"
        )

    def feasible(sp: float, q_f: float, q_a: float) -> bool:
        if options.pre_reserved_fcr_mw is not None:
            if abs(q_f - options.pre_reserved_fcr_mw) > _EPS:
                return False
        if q_f > 0:
            if fcr_prod is None or q_f < fcr_prod.min_bid_mw - _EPS:
                return False
            lots = q_f / fcr_prod.trade_increment_mw
            if abs(lots - round(lots)) > _EPS:
                return False
            if sp - q_f < min_p - _EPS or sp + q_f > max_p + _EPS:
                return False
            slowest = min(unit.ramp_up_mw_per_s, unit.ramp_down_mw_per_s)
            if q_f / slowest > fcr_prod.availability_s + _EPS:
                return False
        if q_a > 0:
            if afrr_prod is None or q_a < afrr_prod.min_bid_mw - _EPS:
                return False
            lots = q_a / afrr_prod.trade_increment_mw
            if abs(lots - round(lots)) > _EPS:
                return False
            if sp - q_f - q_a < min_p - _EPS:
                return False
            if q_a / unit.ramp_down_mw_per_s > afrr_prod.availability_s + _EPS:
                return False
        return True

    duration = fcr_prod.duration_h if fcr_prod else afrr_prod.duration_h
    entries: list[ScheduleEntry] = []
    revenue = 0.0
    h2_loss_total = 0.0
    for block in blocks:
        fcr_price = fcr_prices.price(block) if fcr_prod is not None else 0.0
        afrr_price = afrr_price_per_block_eur if afrr_prod is not None else 0.0
        best_key = None
        best = (0.0, 0.0, max_p)
        for sp in setpoints:
            if h2_value is not None:
                h2_cost = h2_value * _hydrogen_loss_kg(unit, sp, duration)
            else:
                h2_cost = 0.0
            for qf_lots in range(n_quant):
                q_f = float(qf_lots)
                for qa_lots in range(n_quant):
                    q_a = float(qa_lots)
                    if not feasible(sp, q_f, q_a):
                        continue
                    score = q_f * fcr_price + q_a * afrr_price - h2_cost
                    if _better(score, q_f + q_a, q_f, sp, best_key):
                        best_key = (score, q_f + q_a, q_f, sp)
                        best = (q_f, q_a, sp)
        q_f, q_a, sp = best
        if q_f > 0:
            entries.append(ScheduleEntry(block, fcr_prod, q_f, Direction.SYM, sp))
            revenue += q_f * fcr_price
        if q_a > 0:
            entries.append(ScheduleEntry(block, afrr_prod, q_a, Direction.POS, sp))
            revenue += q_a * afrr_price
        if h2_value is not None and (q_f > 0 or q_a > 0):
            h2_loss_total += _hydrogen_loss_kg(unit, sp, duration)

    objective = revenue
    if h2_value is not None:
        objective -= h2_loss_total * h2_value
    return AllocationResult(BidSchedule(tuple(entries)), revenue, h2_loss_total, objective)


def max_offerable_scan(
    unit: ElectrolyzerUnit,
    product: BalancingProduct,
    setpoint_mw: float | None = None,
) -> tuple[float, float]:
    """Reference for ``max_offerable``: try every lot from rated power down.

    Without a setpoint each candidate bid is hosted at ``default_setpoint``
    moved just far enough to leave the bid headroom, if such a point exists.
    """
    min_p, max_p = unit.min_power_mw, unit.rated_power_mw
    inc = product.trade_increment_mw
    max_lots = int(math.floor(max_p / inc + _EPS))
    for lots in range(max_lots, 0, -1):
        bid = lots * inc
        if bid < product.min_bid_mw - _EPS:
            break
        if setpoint_mw is not None:
            sp = setpoint_mw
        else:
            if product.direction is Direction.SYM:
                lo, hi = min_p + bid, max_p - bid
            elif product.direction is Direction.POS:
                lo, hi = min_p + bid, max_p
            else:
                lo, hi = min_p, max_p - bid
            if lo > hi + _EPS:
                continue
            sp = min(max(default_setpoint(unit, product), lo), hi)
        try:
            report = check_eligibility(unit, product, bid, sp)
        except ValueError:
            continue
        if report.eligible:
            return bid, sp
    fallback = setpoint_mw if setpoint_mw is not None else default_setpoint(unit, product)
    return 0.0, fallback
