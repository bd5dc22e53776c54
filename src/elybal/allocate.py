"""Daily bid allocation across the six 4 h capacity auction blocks.

The symmetric FCR band is reserved around the setpoint; an aFRR (positive)
activation then starts below that band, so both products can be carried at
once without double-counting headroom.  Blocks are independent, and at a
fixed setpoint the block score is linear in the FCR quantity except where
the aFRR bid below the band stops being capped by its ramp or drops under
its minimum bid, so the optimum sits at a corner: aFRR bids nothing or its
tradable top, and FCR bids 0, a tradable end or a lot at one of those kinks.

None of those corners depends on the block, only the FCR price does.  So
``optimize_day`` builds one candidate table per day with numpy over the
whole setpoint grid (``_day_table``: setpoint, FCR and aFRR quantity, and
the hydrogen forgone at the setpoint), and one score matrix per day, blocks
x candidates, ``fcr_price * q_fcr + q_afrr * afrr_price - hydrogen_cost``,
with one pick per row (``_pick``) by one tie rule: the score within ``_EPS``
of the best, then the least reserved capacity, then the least FCR (each
within ``_EPS``), then the highest setpoint, the first candidate on exact ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    setpoint_mw: float


@dataclass(frozen=True)
class BidSchedule:
    entries: tuple[ScheduleEntry, ...]


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
                    "direction": e.product.direction.value,
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


def _grid_points(lo: float, hi: float, step: float) -> np.ndarray:
    first = math.ceil(lo / step - _EPS)
    last = math.floor(hi / step + _EPS)
    return np.arange(first, last + 1) * step


def _min_tradable_mw(product: BalancingProduct) -> float:
    """Smallest bid on the trading grid at or above the minimum bid."""
    inc = product.trade_increment_mw
    return max(1, math.ceil(product.min_bid_mw / inc - _EPS)) * inc


def _hydrogen_loss_kg(
    unit: ElectrolyzerUnit, setpoint_mw: float | np.ndarray, hours: float
) -> float | np.ndarray:
    """Production forgone by holding the setpoint(s) instead of full load."""

    def production_kg(power_mw: float | np.ndarray) -> float | np.ndarray:
        se = specific_energy_at(unit.efficiency_curve, power_mw / unit.rated_power_mw)
        return power_mw * hours * 1000.0 / se

    return production_kg(unit.rated_power_mw) - production_kg(setpoint_mw)


def _top_mw(
    unit: ElectrolyzerUnit, product: BalancingProduct | None, setpoint_mw: float | np.ndarray
) -> float | np.ndarray:
    """Largest tradable bid of the product at the setpoint(s); 0 without it."""
    if product is None:
        return np.zeros_like(setpoint_mw)
    return tradable_mw(capacity_limit_mw(unit, product, setpoint_mw), product)


def _day_table(
    unit: ElectrolyzerUnit,
    fcr_prod: BalancingProduct | None,
    afrr_prod: BalancingProduct | None,
    pinned: float | None,
    setpoints: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The candidates of a day as (setpoint index, q_fcr, q_afrr) arrays,
    ordered by setpoint, then FCR ascending, then aFRR 0 before its top.

    Each FCR lot moves the aFRR origin down, out of the room below the
    setpoint, so the aFRR top falls in steps as q_fcr grows: flat while the
    aFRR ramp reach caps it, then one aFRR lot at a time, then 0 below the
    aFRR minimum bid.  Along a step the score rises with q_fcr, and across
    the last FCR lots of the steps it is linear, so the optimum is 0, a
    tradable end, or the last lot of a step (or the lot after it) whose
    aFRR top is one of four levels: the ramp reach, the smallest bid, the
    top at the lowest FCR lot and the step above the top at the highest.
    That holds when one trading increment is a multiple of the other.  A
    pin is the single FCR candidate where it fits.  NaN marks an empty slot.
    """
    n = len(setpoints)
    if fcr_prod is None:
        q_fcr = np.zeros((n, 1))
    else:
        fcr_top = _top_mw(unit, fcr_prod, setpoints)
        if pinned is not None:
            q_fcr = np.where(pinned <= fcr_top + _EPS, pinned, np.nan)[:, None]
        else:
            lo = _min_tradable_mw(fcr_prod)
            origins = np.concatenate([[unit.rated_power_mw], setpoints - lo, setpoints - fcr_top])
            tops = _top_mw(unit, afrr_prod, origins)
            reach = tops[0]
            levels = np.column_stack([
                np.full(n, reach),
                np.full(n, _min_tradable_mw(afrr_prod) if reach > 0.0 else 0.0),
                tops[1 : n + 1],
                tops[n + 1 :] + (afrr_prod.trade_increment_mw if reach > 0.0 else 0.0),
            ])
            last = tradable_mw((setpoints - unit.min_power_mw)[:, None] - levels, fcr_prod)
            kinks = np.hstack([last, last + fcr_prod.trade_increment_mw])
            kinks = np.minimum(np.maximum(kinks, lo), fcr_top[:, None])
            kinks[np.hstack([levels, levels]) <= 0.0] = np.nan
            q_fcr = np.column_stack([np.zeros(n), np.full(n, lo), fcr_top, kinks])
            q_fcr[fcr_top < lo - _EPS, 1:] = np.nan
            q_fcr.sort(axis=1)
            q_fcr[:, 1:][q_fcr[:, 1:] == q_fcr[:, :-1]] = np.nan
    top = _top_mw(unit, afrr_prod, setpoints[:, None] - q_fcr)
    q_afrr = np.stack([np.zeros_like(top), top], axis=-1)
    keep = ~np.isnan(q_fcr)[..., None] & np.stack([np.ones_like(top, bool), top > 0.0], axis=-1)
    rows = np.broadcast_to(np.arange(n)[:, None, None], keep.shape)
    return rows[keep], np.broadcast_to(q_fcr[..., None], keep.shape)[keep], q_afrr[keep]


def _pick(
    score: np.ndarray, reserved: np.ndarray, q_fcr: np.ndarray, setpoint: np.ndarray
) -> np.ndarray:
    """Index of the best candidate in each row (last axis) of ``score``, a
    blocks x candidates matrix or one row; the other arrays broadcast.
    Masks apply the tie rule in turn: the score within ``_EPS`` of the row
    max, the reserved capacity and then the FCR quantity within ``_EPS`` of
    their min, then the highest setpoint, the first candidate on exact ties.
    """
    keep = score >= score.max(axis=-1, keepdims=True) - _EPS
    for key in (reserved, q_fcr):
        values = np.where(keep, key, np.inf)
        keep &= values <= values.min(axis=-1, keepdims=True) + _EPS
    return np.where(keep, setpoint, -np.inf).argmax(axis=-1)


def optimize_day(
    unit: ElectrolyzerUnit,
    products: list[BalancingProduct] | tuple[BalancingProduct, ...],
    fcr_prices: CapacityPriceTable | None,
    afrr_price_per_block_eur: float | None,
    options: AllocationOptions | None = None,
) -> AllocationResult:
    """Revenue-maximal bid schedule for one delivery day.

    Each block is solved independently.  The objective per block is the
    capacity revenue minus, when ``hydrogen_value_eur_per_kg`` is set, the
    value of production forgone at the reduced setpoint.  An infeasible
    block simply carries no bid; it is never an error.
    """
    options = options or AllocationOptions()
    fcr_prod, afrr_prod = _split_products(tuple(products))

    if fcr_prod is not None and fcr_prices is None:
        raise ValueError("FCR is offered but no capacity price table was given")
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
        if not abs(pinned - tradable_mw(pinned, fcr_prod)) <= _EPS:
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
    setpoints = _grid_points(lowest_sp, unit.rated_power_mw, options.setpoint_grid_mw)
    rows, q_fcr, q_afrr = _day_table(unit, fcr_prod, afrr_prod, pinned, setpoints)
    setpoint = setpoints[rows]
    h2_kg = np.zeros(rows.size)
    if h2_value is not None:
        h2_kg = _hydrogen_loss_kg(unit, setpoints, duration)[rows]
    h2_cost = h2_kg * (h2_value or 0.0)

    entries: list[ScheduleEntry] = []
    revenue = 0.0
    h2_loss = 0.0
    afrr_price = afrr_price_per_block_eur if afrr_prod is not None else 0.0
    fcr_price = [fcr_prices.price(b) if fcr_prod is not None else 0.0 for b in CANONICAL_BLOCKS]
    score = np.array(fcr_price, dtype=float)[:, None] * q_fcr + q_afrr * afrr_price - h2_cost
    best = _pick(score, q_fcr + q_afrr, q_fcr, setpoint) if rows.size else []  # no candidate, no bid
    picked = (q_fcr[best].tolist(), q_afrr[best].tolist(), setpoint[best].tolist(), h2_kg[best].tolist())
    for block, price, qf, qa, sp, kg in zip(CANONICAL_BLOCKS, fcr_price, *picked):
        if qf > 0:
            entries.append(ScheduleEntry(block, fcr_prod, qf, sp))
            revenue += qf * price
        if qa > 0:
            entries.append(ScheduleEntry(block, afrr_prod, qa, sp))
            revenue += qa * afrr_price
        if qf > 0 or qa > 0:
            h2_loss += kg

    schedule = BidSchedule(tuple(entries))
    validate_schedule(unit, schedule)
    objective = revenue
    if h2_value is not None:
        objective -= h2_loss * h2_value
    return AllocationResult(schedule, revenue, h2_loss, objective)


def validate_schedule(unit: ElectrolyzerUnit, schedule: BidSchedule) -> None:
    """Re-check a schedule from first principles.

    Every entry must pass ``check_eligibility``, a one-sided entry evaluated
    from the edge of any FCR band reserved in the same block on the side
    its product moves the load to (below for POS, above for NEG), and the
    reserved power ranges per block must not overlap.  A block whose entries
    (product, quantity, setpoint, in order) equal a checked block's
    gets the same verdict and is skipped; the error names the first failing block.
    """
    by_block: dict[str, list[ScheduleEntry]] = {}
    for entry in schedule.entries:
        by_block.setdefault(entry.block.label, []).append(entry)
    checked: list[list[tuple]] = []
    for label, block_entries in by_block.items():
        key = [(e.product, e.quantity_mw, e.setpoint_mw) for e in block_entries]
        if key in checked:
            continue
        checked.append(key)
        fcr_entries = [e for e in block_entries if e.product.kind is ProductKind.FCR]
        afrr_entries = [e for e in block_entries if e.product.kind is ProductKind.AFRR]
        if len(fcr_entries) > 1:
            raise ValueError(f"block {label} carries more than one FCR entry")
        for direction in Direction:
            if [e.product.direction for e in afrr_entries].count(direction) > 1:
                raise ValueError(f"block {label} carries duplicate aFRR {direction.value} entries")
        setpoints = {e.setpoint_mw for e in block_entries}
        if len(setpoints) > 1:
            raise ValueError(f"block {label} mixes setpoints {sorted(setpoints)}")
        q_fcr = fcr_entries[0].quantity_mw if fcr_entries else 0.0
        ranges: list[tuple[float, float]] = []
        for entry in block_entries:
            sp, q, d = entry.setpoint_mw, entry.quantity_mw, entry.product.direction
            if d is Direction.SYM:  # the FCR band, around the setpoint
                origin = sp
            else:  # stacked outside the FCR band, on the side it moves the load to
                origin = sp - q_fcr if d.lowers_load else sp + q_fcr
            band = (origin - q if d.lowers_load else origin, origin + q if d.raises_load else origin)
            report = check_eligibility(unit, entry.product, q, origin)
            ranges.append(band)
            if not report.eligible:
                raise ValueError(
                    f"block {label}: {entry.product.label} {q} MW fails "
                    f"{report.limiting_constraint}"
                )
        ranges.sort()
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            if lo < hi - _EPS:
                raise ValueError(f"block {label}: reserved capacity ranges overlap")
