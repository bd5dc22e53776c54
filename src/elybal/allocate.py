"""Daily bid allocation across the six 4 h capacity auction blocks.

The symmetric FCR band is reserved around the setpoint; an aFRR (positive)
activation then starts below that band, so both products can be carried at
once without double-counting headroom.  Blocks are independent, and at a
fixed setpoint the block score is linear in the FCR quantity except where
the aFRR bid below the band stops being capped by its ramp or drops under
its minimum bid, so the optimum sits at a corner: aFRR bids nothing or its
tradable top, and FCR bids 0, a tradable end or a lot at one of those kinks.
Each point of the setpoint grid therefore costs a handful of candidate
pairs, not an enumeration of quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .eligibility import capacity_limit_mw, check_eligibility, tradable_mw
from .markets import (
    CANONICAL_BLOCKS,
    BalancingProduct,
    CapacityPriceTable,
    Direction,
    ProductKind,
    TimeBlock,
)
from .model import ElectrolyzerUnit, specific_energy_at

_EPS = 1e-9


@dataclass(frozen=True)
class AllocationOptions:
    hydrogen_value_eur_per_kg: float | None = None
    pre_reserved_fcr_mw: float | None = None  # pin the FCR quantity instead of optimizing it
    setpoint_grid_mw: float = 1.0

    def __post_init__(self) -> None:
        if not self.setpoint_grid_mw > 0:
            raise ValueError("setpoint_grid_mw must be > 0")
        if self.hydrogen_value_eur_per_kg is not None and not self.hydrogen_value_eur_per_kg >= 0:
            raise ValueError("hydrogen_value_eur_per_kg must be >= 0")
        if self.pre_reserved_fcr_mw is not None and not self.pre_reserved_fcr_mw >= 0:
            raise ValueError("pre_reserved_fcr_mw must be >= 0")


@dataclass(frozen=True)
class ScheduleEntry:
    block: TimeBlock
    product: BalancingProduct
    quantity_mw: float
    direction: Direction
    setpoint_mw: float


@dataclass(frozen=True)
class BidSchedule:
    entries: tuple[ScheduleEntry, ...]

    def for_block(self, block: TimeBlock) -> tuple[ScheduleEntry, ...]:
        return tuple(e for e in self.entries if e.block == block)


@dataclass(frozen=True)
class AllocationResult:
    schedule: BidSchedule
    capacity_revenue_eur: float
    hydrogen_loss_kg: float
    objective_eur: float

    def to_dict(self) -> dict:
        return {
            "capacity_revenue_eur": self.capacity_revenue_eur,
            "hydrogen_loss_kg": self.hydrogen_loss_kg,
            "objective_eur": self.objective_eur,
            "schedule": [
                {
                    "block": e.block.label,
                    "product": e.product.kind.value,
                    "direction": e.direction.value,
                    "quantity_mw": e.quantity_mw,
                    "setpoint_mw": e.setpoint_mw,
                }
                for e in self.schedule.entries
            ],
        }


def _split_products(
    products: tuple[BalancingProduct, ...] | list[BalancingProduct],
) -> tuple[BalancingProduct | None, BalancingProduct | None]:
    if not products:
        raise ValueError("at least one product is required")
    fcr_prod = None
    afrr_prod = None
    for p in products:
        if p.kind is ProductKind.FCR:
            fcr_prod = p
        elif p.kind is ProductKind.AFRR and p.direction is Direction.POS:
            afrr_prod = p
        else:
            raise ValueError(
                f"cannot allocate revenue for {p.label}: only FCR and aFRR POS carry "
                "capacity prices here"
            )
    return fcr_prod, afrr_prod


def _grid_points(lo: float, hi: float, step: float) -> list[float]:
    first = math.ceil(lo / step - _EPS)
    last = math.floor(hi / step + _EPS)
    return [i * step for i in range(first, last + 1)]


def _min_tradable_mw(product: BalancingProduct) -> float:
    """Smallest bid on the trading grid at or above the minimum bid."""
    inc = product.trade_increment_mw
    return max(1, math.ceil(product.min_bid_mw / inc - _EPS)) * inc


def _hydrogen_loss_kg(unit: ElectrolyzerUnit, setpoint_mw: float, hours: float) -> float:
    """Production forgone by holding the setpoint instead of full load."""

    def production_kg(power_mw: float) -> float:
        se = specific_energy_at(unit.efficiency_curve, power_mw / unit.rated_power_mw)
        return power_mw * hours * 1000.0 / se

    return production_kg(unit.rated_power_mw) - production_kg(setpoint_mw)


def _better(
    score: float,
    reserved: float,
    q_fcr: float,
    setpoint: float,
    best: tuple[float, float, float, float] | None,
) -> bool:
    """Tie-break order: score, then less reserved capacity, then less FCR,
    then the higher setpoint (more hydrogen)."""
    if best is None:
        return True
    b_score, b_reserved, b_fcr, b_sp = best
    if score > b_score + _EPS:
        return True
    if score < b_score - _EPS:
        return False
    if reserved < b_reserved - _EPS:
        return True
    if reserved > b_reserved + _EPS:
        return False
    if q_fcr < b_fcr - _EPS:
        return True
    if q_fcr > b_fcr + _EPS:
        return False
    return setpoint > b_sp + _EPS


def _fcr_choices(
    fcr_prod: BalancingProduct, fcr_top: float, room: float, afrr_levels: tuple[float, ...]
) -> list[float]:
    """0 plus the FCR quantities where the block score can peak.

    Each FCR lot moves the aFRR origin down, out of ``room``, the headroom
    below the setpoint.  So the aFRR top falls in steps as q_fcr grows:
    flat while the aFRR ramp reach caps it, then one aFRR lot at a time,
    then 0 below the aFRR minimum bid.  Along a step the score rises with
    q_fcr, and across the last FCR lots of the steps it is linear, so the
    optimum is 0, a tradable end, or the last lot of a step (or the lot
    after it) whose aFRR top is in ``afrr_levels``.  That holds when one
    trading increment is a multiple of the other.
    """
    lo = _min_tradable_mw(fcr_prod)
    if fcr_top < lo - _EPS:
        return [0.0]
    candidates = {0.0, lo, fcr_top}
    for level in afrr_levels:
        if level > 0.0:
            last = tradable_mw(room - level, fcr_prod)
            for q in (last, last + fcr_prod.trade_increment_mw):
                candidates.add(min(max(q, lo), fcr_top))
    return sorted(candidates)


def _best_for_block(
    unit: ElectrolyzerUnit,
    fcr_prod: BalancingProduct | None,
    fcr_price: float,
    afrr_prod: BalancingProduct | None,
    afrr_price_block: float,
    pinned: float | None,
    setpoint_costs: list[tuple[float, float]],
) -> tuple[float, float, float, float]:
    """Returns (q_fcr, q_afrr, setpoint, score) for one block.

    ``pinned`` fixes the FCR quantity; ``setpoint_costs`` pairs each
    candidate setpoint with its hydrogen cost.
    """

    def afrr_top(origin_mw: float) -> float:
        if afrr_prod is None:
            return 0.0
        return tradable_mw(capacity_limit_mw(unit, afrr_prod, origin_mw), afrr_prod)

    # aFRR tops that end a linear stretch of the score in q_fcr: the ramp
    # reach, the smallest bid, the top at the lowest FCR lot and the step
    # above the top at the highest
    afrr_reach = afrr_top(unit.rated_power_mw)
    afrr_min = _min_tradable_mw(afrr_prod) if afrr_reach > 0.0 else 0.0
    afrr_step = afrr_prod.trade_increment_mw if afrr_reach > 0.0 else 0.0
    fcr_lowest = _min_tradable_mw(fcr_prod) if fcr_prod is not None else 0.0

    best_key = None
    best_choice = (0.0, 0.0, unit.rated_power_mw, 0.0)
    for sp, h2_cost in setpoint_costs:
        if fcr_prod is None:
            fcr_choices = [0.0]
        else:
            fcr_top = tradable_mw(capacity_limit_mw(unit, fcr_prod, sp), fcr_prod)
            if pinned is not None:
                fcr_choices = [pinned] if pinned <= fcr_top + _EPS else []
            else:
                levels = (
                    afrr_reach,
                    afrr_min,
                    afrr_top(sp - fcr_lowest),
                    afrr_top(sp - fcr_top) + afrr_step,
                )
                fcr_choices = _fcr_choices(fcr_prod, fcr_top, sp - unit.min_power_mw, levels)
        for q_fcr in fcr_choices:
            top = afrr_top(sp - q_fcr)
            for q_afrr in (0.0, top) if top > 0.0 else (0.0,):
                score = q_fcr * fcr_price + q_afrr * afrr_price_block - h2_cost
                if _better(score, q_fcr + q_afrr, q_fcr, sp, best_key):
                    best_key = (score, q_fcr + q_afrr, q_fcr, sp)
                    best_choice = (q_fcr, q_afrr, sp, score)
    return best_choice


def optimize_day(
    unit: ElectrolyzerUnit,
    products: list[BalancingProduct] | tuple[BalancingProduct, ...],
    fcr_prices: CapacityPriceTable | None,
    afrr_price_per_block_eur: float | None,
    options: AllocationOptions | None = None,
    blocks: tuple[TimeBlock, ...] | None = None,
) -> AllocationResult:
    """Revenue-maximal bid schedule for one delivery day.

    Each block is solved independently.  The objective per block is the
    capacity revenue minus, when ``hydrogen_value_eur_per_kg`` is set, the
    value of production forgone at the reduced setpoint.  An infeasible
    block simply carries no bid; it is never an error.
    """
    options = options or AllocationOptions()
    blocks = blocks if blocks is not None else CANONICAL_BLOCKS
    fcr_prod, afrr_prod = _split_products(tuple(products))

    if fcr_prod is not None:
        if fcr_prices is None:
            raise ValueError("FCR is offered but no capacity price table was given")
        missing = [b.label for b in blocks if b.label not in fcr_prices.prices]
        if missing:
            raise ValueError(f"capacity price table missing blocks: {', '.join(missing)}")
    if afrr_prod is not None:
        if afrr_price_per_block_eur is None:
            raise ValueError("aFRR is offered but no capacity price was given")
        if not afrr_price_per_block_eur >= 0:
            raise ValueError("afrr_price_per_block_eur must be >= 0")
    if fcr_prod is not None and afrr_prod is not None:
        small, big = sorted((fcr_prod.trade_increment_mw, afrr_prod.trade_increment_mw))
        if abs(big / small - round(big / small)) > _EPS:
            raise ValueError(
                "FCR and aFRR trading increments must be whole multiples of one "
                f"another, got {fcr_prod.trade_increment_mw:g} and "
                f"{afrr_prod.trade_increment_mw:g} MW"
            )
    pinned = options.pre_reserved_fcr_mw
    if pinned is not None:
        if fcr_prod is None:
            raise ValueError("pre_reserved_fcr_mw given but FCR is not among the products")
        if abs(pinned - tradable_mw(pinned, fcr_prod)) > _EPS:
            raise ValueError(
                f"pre_reserved_fcr_mw = {pinned:g} MW is not a tradable FCR quantity: "
                f"it must be 0 or on the {fcr_prod.trade_increment_mw:g} MW trading grid "
                f"at or above the {fcr_prod.min_bid_mw:g} MW minimum bid"
            )
    h2_value = options.hydrogen_value_eur_per_kg
    duration = fcr_prod.duration_h if fcr_prod else afrr_prod.duration_h
    curve = unit.efficiency_curve
    if h2_value is not None and (curve is None or curve.domain[1] < 1.0 - _EPS):
        have = "none" if curve is None else "domain [{:g}, {:g}]".format(*curve.domain)
        raise ValueError(
            "hydrogen_value_eur_per_kg prices production forgone against full load and "
            f"needs an efficiency curve that reaches load fraction 1; the unit's curve: {have}"
        )
    lowest_sp = unit.min_power_mw
    if h2_value is not None:  # forgone production is only known on the curve
        lowest_sp = max(lowest_sp, curve.domain[0] * unit.rated_power_mw)
    setpoint_costs = [
        (sp, h2_value * _hydrogen_loss_kg(unit, sp, duration) if h2_value is not None else 0.0)
        for sp in _grid_points(lowest_sp, unit.rated_power_mw, options.setpoint_grid_mw)
    ]

    entries: list[ScheduleEntry] = []
    revenue = 0.0
    h2_loss = 0.0
    for block in blocks:
        q_fcr, q_afrr, sp, _ = _best_for_block(
            unit,
            fcr_prod,
            fcr_prices.price(block) if fcr_prod is not None else 0.0,
            afrr_prod,
            afrr_price_per_block_eur if afrr_prod is not None else 0.0,
            pinned,
            setpoint_costs,
        )
        if q_fcr > 0:
            entries.append(ScheduleEntry(block, fcr_prod, q_fcr, Direction.SYM, sp))
            revenue += q_fcr * fcr_prices.price(block)
        if q_afrr > 0:
            entries.append(ScheduleEntry(block, afrr_prod, q_afrr, Direction.POS, sp))
            revenue += q_afrr * afrr_price_per_block_eur
        if h2_value is not None and (q_fcr > 0 or q_afrr > 0):
            h2_loss += _hydrogen_loss_kg(unit, sp, duration)

    schedule = BidSchedule(tuple(entries))
    validate_schedule(unit, schedule)
    objective = revenue
    if h2_value is not None:
        objective -= h2_loss * h2_value
    return AllocationResult(schedule, revenue, h2_loss, objective)


def validate_schedule(unit: ElectrolyzerUnit, schedule: BidSchedule) -> None:
    """Re-check a schedule from first principles.

    Every entry must pass ``check_eligibility``, with aFRR evaluated from
    the lower edge of any FCR band reserved in the same block, and the
    reserved power ranges per block must not overlap.
    """
    by_block: dict[str, list[ScheduleEntry]] = {}
    for entry in schedule.entries:
        by_block.setdefault(entry.block.label, []).append(entry)
    for label, block_entries in by_block.items():
        fcr_entries = [e for e in block_entries if e.product.kind is ProductKind.FCR]
        afrr_entries = [e for e in block_entries if e.product.kind is ProductKind.AFRR]
        if len(fcr_entries) > 1:
            raise ValueError(f"block {label} carries more than one FCR entry")
        for direction in (Direction.POS, Direction.NEG):
            if len([e for e in afrr_entries if e.direction is direction]) > 1:
                raise ValueError(f"block {label} carries duplicate aFRR {direction.value} entries")
        setpoints = {e.setpoint_mw for e in block_entries}
        if len(setpoints) > 1:
            raise ValueError(f"block {label} mixes setpoints {sorted(setpoints)}")
        q_fcr = fcr_entries[0].quantity_mw if fcr_entries else 0.0
        ranges: list[tuple[float, float]] = []
        for entry in block_entries:
            sp = entry.setpoint_mw
            if entry.product.kind is ProductKind.FCR:
                report = check_eligibility(unit, entry.product, entry.quantity_mw, sp)
                ranges.append((sp - entry.quantity_mw, sp + entry.quantity_mw))
            elif entry.direction is Direction.POS:
                origin = sp - q_fcr
                report = check_eligibility(unit, entry.product, entry.quantity_mw, origin)
                ranges.append((origin - entry.quantity_mw, origin))
            else:
                origin = sp + q_fcr
                report = check_eligibility(unit, entry.product, entry.quantity_mw, origin)
                ranges.append((origin, origin + entry.quantity_mw))
            if not report.eligible:
                raise ValueError(
                    f"block {label}: {entry.product.label} {entry.quantity_mw} MW fails "
                    f"{report.limiting_constraint}"
                )
        ranges.sort()
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            if lo < hi - _EPS:
                raise ValueError(f"block {label}: reserved capacity ranges overlap")
