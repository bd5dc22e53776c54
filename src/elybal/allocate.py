"""Daily bid allocation across the six 4 h capacity auction blocks.

The symmetric FCR band is reserved around the setpoint; an aFRR (positive)
activation then starts below that band, so both products can be carried at
once without double-counting headroom.  Blocks are independent, and at a
fixed setpoint the block score is linear in the FCR quantity except where
the aFRR bid below the band stops being capped by its ramp or drops under
its minimum bid, so the optimum sits at a corner: aFRR bids nothing or its
tradable top, and FCR bids 0, a tradable end or a lot at one of those kinks.

None of those corners depends on the block, only the FCR price does.  So
``optimize_day`` builds one candidate table per day in a fixed number of
array passes (``_day_table``), scores it as one blocks x candidates matrix
and picks per row (``_pick``) the score within ``_EPS`` of the best, then
the least reserved capacity, then the least FCR (each within ``_EPS``), then
the highest setpoint, then the first candidate in table order.
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
        if not 0 < self.setpoint_grid_mw < math.inf:
            raise ValueError(f"setpoint_grid_mw must be in (0, inf), got {self.setpoint_grid_mw}")
        for name in ("hydrogen_value_eur_per_kg", "pre_reserved_fcr_mw"):
            value = getattr(self, name)
            if value is not None and not 0 <= value < math.inf:
                raise ValueError(f"{name} must be in [0, inf), got {value}")


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
    pin is the single FCR candidate where it fits.  Free choices fill one
    11 x setpoints array in place; NaN marks an empty or repeated choice.
    """
    n = len(setpoints)
    if fcr_prod is None:
        q = np.zeros((n, 1))
    else:
        fcr_top = _top_mw(unit, fcr_prod, setpoints)
        if pinned is not None:
            q = np.where(pinned <= fcr_top + _EPS, pinned, np.nan)[:, None]
        else:
            lo = _min_tradable_mw(fcr_prod)
            c = np.empty((11, n))  # the FCR choices, one row each
            c[0], c[2], c[3:5] = 0.0, fcr_top, unit.rated_power_mw
            c[1] = np.where(fcr_top < lo - _EPS, np.nan, lo)
            levels = c[3:7]  # the aFRR origins of the four levels, then the levels
            np.subtract(setpoints, c[1:3], out=c[5:7])
            levels[...] = _top_mw(unit, afrr_prod, levels)
            if n and c[3, 0] > 0.0:  # the aFRR ramp reach
                c[4] = _min_tradable_mw(afrr_prod)
                c[6] += afrr_prod.trade_increment_mw
            empty = levels <= 0.0
            levels[...] = tradable_mw(setpoints - unit.min_power_mw - levels, fcr_prod)
            np.copyto(levels, np.nan, where=empty)
            np.add(levels, fcr_prod.trade_increment_mw, out=c[7:])
            np.maximum(c[3:], c[1], out=c[3:])
            np.minimum(c[3:], c[2], out=c[3:])
            q = c.T.copy()
            q.sort(axis=1)
            np.copyto(q[:, 1:], np.nan, where=q[:, 1:] == q[:, :-1])
    live = q == q
    rows, q_fcr = np.nonzero(live)[0], q[live]
    top = _top_mw(unit, afrr_prod, setpoints[rows] - q_fcr)
    count = 1 + (top > 0.0)
    q_afrr = np.zeros(count.sum())
    q_afrr[count.cumsum() - 1] = top
    return rows.repeat(count), q_fcr.repeat(count), q_afrr


def _pick(
    score: np.ndarray, reserved: np.ndarray, q_fcr: np.ndarray, setpoint: np.ndarray
) -> np.ndarray:
    """Index of the best candidate in each row (last axis) of ``score``, a
    blocks x candidates matrix or one row; the other arrays broadcast.
    Masks apply the tie rule in turn: the score within ``_EPS`` of the row
    max, then on columns near some row's max the reserved capacity and FCR
    within ``_EPS`` of their min, the highest setpoint, the first on ties.
    """
    keep = score >= score.max(axis=-1, keepdims=True) - _EPS
    near = np.flatnonzero(keep.reshape(-1, keep.shape[-1]).any(axis=0))
    keep = keep[..., near]
    for key in (reserved, q_fcr):
        values = np.where(keep, key[..., near], np.inf)
        keep &= values <= values.min(axis=-1, keepdims=True) + _EPS
    return near[np.where(keep, setpoint[..., near], -np.inf).argmax(axis=-1)]


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
        if not 0 <= afrr_price_per_block_eur < math.inf:
            raise ValueError("afrr_price_per_block_eur must be in [0, inf)")
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
    afrr_price = afrr_price_per_block_eur if afrr_prod is not None else 0.0
    fcr_price = [fcr_prices.price(b) if fcr_prod is not None else 0.0 for b in CANONICAL_BLOCKS]
    score = np.multiply.outer(fcr_price, q_fcr) + q_afrr * afrr_price
    h2_kg = np.zeros(rows.size)
    if h2_value is not None:
        h2_kg = _hydrogen_loss_kg(unit, setpoints, duration)[rows]
        score -= h2_kg * h2_value
    entries: list[ScheduleEntry] = []
    revenue = h2_loss = 0.0
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
    objective = revenue - h2_loss * h2_value if h2_value is not None else revenue
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
