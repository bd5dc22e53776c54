"""Daily bid allocation across the six 4 h capacity auction blocks.

The symmetric FCR band is reserved around the setpoint; an aFRR (positive)
activation then starts below that band, so both products can be carried at
once without double-counting headroom.  The score of a block is linear in
the aFRR bid, so aFRR bids nothing or its tradable top.

The search goes by FCR lot.  For a fixed lot, a higher setpoint leaves at
least as much room below the band for aFRR and, while hydrogen production
rises with load (``optimize_day`` checks the efficiency curve), forgoes no
more hydrogen; the tie rule prefers it anyway.  So each lot is tried only
at its host, found by rule: the highest multiple of ``setpoint_grid_mw``
whose FCR band ends within ``SLACK_MW`` of rated power.  None of that
depends on the block, only the FCR price does, so ``optimize_day`` builds
one candidate table per day (``_day_table``), scores it as one blocks x
candidates matrix and picks per row (``_pick``) the score within the tie
slack of the best, then the least reserved capacity, then the least FCR
(each within ``SLACK_MW``), then the first in table order: the lots ascend,
so the setpoints never rise and the first is the highest.  When one
candidate alone comes within the slack of any row's best, it is every
row's pick.  The slack is ``_EPS`` of what a row scores: its best score
plus the hydrogen value of a block at full load, the most a candidate can
forgo, so the sum is never negative.  So on a GW plant, whose productions
round in the last bit by more than 1e-9 EUR, rounding cannot decide a tie.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eligibility import _limiting, _rule_checks, capacity_limit_mw, tradable_mw
from .markets import (
    CANONICAL_BLOCKS,
    BalancingProduct,
    CapacityPriceTable,
    Direction,
    ProductKind,
    TableError,
    TimeBlock,
)
from .model import SLACK_LOAD, SLACK_MW, ElectrolyzerUnit, check_range, specific_energy_at

_EPS = 1e-9  # relative slack of the score tie and of ratios; powers take SLACK_MW, loads SLACK_LOAD


@dataclass(frozen=True)
class AllocationOptions:
    hydrogen_value_eur_per_kg: float | None = None
    pre_reserved_fcr_mw: float | None = None  # pin the FCR quantity instead of optimizing it
    setpoint_grid_mw: float = 1.0

    def __post_init__(self) -> None:
        check_range("setpoint_grid_mw", self.setpoint_grid_mw, "(0, inf)")
        for name in ("hydrogen_value_eur_per_kg", "pre_reserved_fcr_mw"):
            if (value := getattr(self, name)) is not None:
                check_range(name, value, "[0, inf)")


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
        raise TableError("at least one product is required", None, "products")
    fcr_prod = None
    afrr_prod = None
    for row, p in enumerate(products):
        if p.kind is ProductKind.FCR:
            before, fcr_prod = fcr_prod, p
        elif p.kind is ProductKind.AFRR and p.direction is Direction.POS:
            before, afrr_prod = afrr_prod, p
        else:  # an aFRR's fault is its direction, any other product's its kind
            raise TableError(f"cannot allocate revenue for {p.label}: only FCR and aFRR POS "
                             "carry capacity prices here", row,
                             "direction" if p.kind is ProductKind.AFRR else "kind")
        if before is not None:
            raise TableError(f"{p.label} is offered twice; allocate takes it once", row, "kind")
    return fcr_prod, afrr_prod


_MAX_LOTS = 1_000_000  # most FCR lots a day lists; a unit rated 1e12 MW would list 1e12
_MAX_STEPS = 2.0**22  # most setpoint steps in R: the float error of R / step stays below _EPS


def _production_kg(
    unit: ElectrolyzerUnit, power_mw: float | np.ndarray, hours: float
) -> float | np.ndarray:
    """Hydrogen made at the power(s) over ``hours``."""
    se = specific_energy_at(unit.efficiency_curve, power_mw / unit.rated_power_mw)
    return power_mw * hours * 1000.0 / se


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
    lowest_sp: float,
    step: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The candidates of a day as (setpoint, q_fcr, q_afrr) arrays: one FCR
    lot each, lots ascending (setpoints never rise), aFRR 0 before its top.

    The setpoints are the multiples of ``step`` from ``lowest_sp`` to R,
    the rated power, each end ``_EPS`` of a step out; R spans at most 2^22
    steps, so the float error of R / step stays below ``_EPS``.  The lots
    are 0 and every tradable lot up to half the band above the minimum load
    (no symmetric FCR band holds more), or the pin alone.  Each sits at its
    host, the highest setpoint whose FCR band ends within ``SLACK_MW`` of
    R, if its FCR top holds the lot (lower setpoints have less room below
    and the same ramp reach).  The aFRR top is taken below the band.
    """
    rated = unit.rated_power_mw
    if not rated / step <= _MAX_STEPS:
        raise TableError(f"setpoint_grid_mw = {step:g} MW is too fine for rated power {rated:g} "
                         f"MW: it spans {rated / step:.3g} steps, more than the 2^22 floats place "
                         "exactly", None, "setpoint_grid_mw")
    lots = np.array([0.0 if pinned is None else pinned])
    if fcr_prod is not None and pinned is None:
        inc = fcr_prod.trade_increment_mw
        if not (n_lots := (rated - unit.min_power_mw) / 2.0 / inc + 1) <= _MAX_LOTS:
            raise TableError(f"rated_power_mw = {rated:g} MW gives {n_lots:.3g} FCR lots of "
                             f"{inc:g} MW in half its band above minimum load, more than the "
                             f"{_MAX_LOTS} a day may search", None, "rated_power_mw")
        first = max(1, math.ceil((fcr_prod.min_bid_mw - SLACK_MW) / inc))  # the least bid
        lots = np.concatenate((lots, np.arange(first, math.ceil(n_lots)) * inc))
    # the band may pass R by SLACK_MW; the host may not pass the grid's top, R + _EPS of a step
    k = np.minimum(np.floor((rated - lots) / step + SLACK_MW / step),
                   math.floor(rated / step + _EPS))
    host = k * step
    kept = (k >= math.ceil(lowest_sp / step - _EPS)) & (
        lots <= _top_mw(unit, fcr_prod, host) + SLACK_MW)
    lots, setpoint = lots[kept], host[kept]
    top = _top_mw(unit, afrr_prod, setpoint - lots)
    count = 1 + (top > 0.0)
    q_afrr = np.zeros(count.sum())
    q_afrr[count.cumsum() - 1] = top
    return setpoint.repeat(count), lots.repeat(count), q_afrr


def _pick(
    score: np.ndarray, reserved: np.ndarray, q_fcr: np.ndarray, full_value: float
) -> np.ndarray:
    """Index of the best candidate in each row (last axis) of ``score``, a
    blocks x candidates matrix or one row; the other arrays broadcast.
    Masks apply the tie rule in turn: the score within ``_EPS`` x (row max
    + ``full_value``) of the row max, where no score is below
    ``-full_value``, then on columns near some row's max the reserved
    capacity and FCR within ``SLACK_MW`` of their min, the first (the
    highest setpoint) on ties.
    """
    best = score.max(axis=-1, keepdims=True)
    keep = score >= best * (1.0 - _EPS) - _EPS * full_value
    near = np.flatnonzero(keep.reshape(-1, keep.shape[-1]).any(axis=0))
    if near.size == 1:  # the best of every row: no tie to break
        return near[np.zeros(score.shape[:-1], dtype=np.intp)]
    keep = keep[..., near]
    for key in (reserved, q_fcr):
        values = np.where(keep, key[..., near], np.inf)
        keep &= values <= values.min(axis=-1, keepdims=True) + SLACK_MW
    return near[keep.argmax(axis=-1)]


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
    block simply carries no bid; it is never an error.  A faulty input is a
    ``TableError`` at its scenario key, a product's at its row.
    """
    options = options or AllocationOptions()
    fcr_prod, afrr_prod = _split_products(tuple(products))

    if fcr_prod is not None and fcr_prices is None:
        raise TableError("FCR is offered but no capacity price table was given", None,
                         "fcr_capacity_csv")
    if afrr_prod is not None:
        if afrr_price_per_block_eur is None:
            raise TableError("aFRR is offered but no capacity price was given", None,
                             "afrr_price_eur_per_mw_h")
        check_range("afrr_price_per_block_eur", afrr_price_per_block_eur, "[0, inf)",
                    "afrr_price_eur_per_mw_h")
    if fcr_prod is not None and afrr_prod is not None:
        small, big = sorted((fcr_prod.trade_increment_mw, afrr_prod.trade_increment_mw))
        if abs(big / small - round(big / small)) > _EPS:
            raise TableError("FCR and aFRR trading increments must be whole multiples of one "
                             f"another, got {fcr_prod.trade_increment_mw:g} and "
                             f"{afrr_prod.trade_increment_mw:g} MW", None, "products")
    pinned = options.pre_reserved_fcr_mw
    if pinned is not None:
        if fcr_prod is None:
            raise TableError("pre_reserved_fcr_mw given but FCR is not among the products",
                             None, "pre_reserved_fcr_mw")
        if not abs(pinned - tradable_mw(pinned, fcr_prod)) <= SLACK_MW:
            raise TableError(f"pre_reserved_fcr_mw = {pinned:g} MW is not a tradable FCR "
                             f"quantity: it must be 0 or on the {fcr_prod.trade_increment_mw:g} "
                             f"MW trading grid at or above the {fcr_prod.min_bid_mw:g} MW "
                             "minimum bid", None, "pre_reserved_fcr_mw")
    h2_value = options.hydrogen_value_eur_per_kg
    curve = unit.efficiency_curve
    if h2_value is not None and (curve is None or curve.domain[1] < 1.0 - SLACK_LOAD):
        have = "none" if curve is None else "domain [{:g}, {:g}]".format(*curve.domain)
        raise TableError("hydrogen_value_eur_per_kg prices production forgone against full load "
                         "and needs an efficiency curve that reaches load fraction 1; the unit's "
                         f"curve: {have}", None, "hydrogen_value_eur_per_kg")
    lowest_sp = unit.min_power_mw
    if h2_value is not None:  # forgone production is only known on the curve
        lowest_sp = max(lowest_sp, curve.domain[0] * unit.rated_power_mw)
        # a lot's highest host forgoes the least hydrogen only while production x / SE(x)
        # rises with load; it is monotone on each linear piece of the curve, and the curve
        # spans the setpoints, so its breakpoints tell
        loads = np.array(curve.breakpoints)[:, 0]
        kg_h = _production_kg(unit, loads * unit.rated_power_mw, 1.0)
        if (falls := np.flatnonzero(kg_h[1:] < kg_h[:-1] * (1.0 - _EPS))).size:
            k = falls[0]
            raise TableError("hydrogen_value_eur_per_kg needs production that rises with load; "
                             f"the unit's curve makes {kg_h[k]:.6g} kg/h at load fraction "
                             f"{loads[k]:g} but {kg_h[k + 1]:.6g} kg/h at {loads[k + 1]:g}",
                             None, "hydrogen_value_eur_per_kg")
    setpoint, q_fcr, q_afrr = _day_table(unit, fcr_prod, afrr_prod, pinned, lowest_sp,
                                         options.setpoint_grid_mw)
    afrr_price = afrr_price_per_block_eur if afrr_prod is not None else 0.0
    fcr_price = list(fcr_prices.prices.values()) if fcr_prod else [0.0] * len(CANONICAL_BLOCKS)
    score = np.multiply.outer(fcr_price, q_fcr) + q_afrr * afrr_price
    full_value = 0.0
    if h2_value is not None:
        hours = (fcr_prod or afrr_prod).duration_h
        full_kg = _production_kg(unit, unit.rated_power_mw, hours)
        h2_kg = full_kg - _production_kg(unit, setpoint, hours)  # forgone against full load
        score -= h2_kg * h2_value
        full_value = full_kg * h2_value
    entries: list[ScheduleEntry] = []
    revenue = h2_loss = 0.0
    best = _pick(score, q_fcr + q_afrr, q_fcr, full_value) if q_fcr.size else []  # no candidate
    picked = (q_fcr[best].tolist(), q_afrr[best].tolist(), setpoint[best].tolist(),
              h2_kg[best].tolist() if h2_value is not None else [0.0] * len(best))
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
        if len(fcr_entries) > 1:
            raise ValueError(f"block {label} carries more than one FCR entry")
        afrr = [e.product.direction for e in block_entries if e.product.kind is ProductKind.AFRR]
        if len(set(afrr)) < len(afrr):
            twice = next(d for d in Direction if afrr.count(d) > 1)
            raise ValueError(f"block {label} carries duplicate aFRR {twice.value} entries")
        setpoints = {e.setpoint_mw for e in block_entries}
        if len(setpoints) > 1:
            raise ValueError(f"block {label} mixes setpoints {sorted(setpoints)}")
        q_fcr = fcr_entries[0].quantity_mw if fcr_entries else 0.0
        ranges: list[tuple[float, float]] = []
        for entry in block_entries:
            sp, q, d = entry.setpoint_mw, entry.quantity_mw, entry.product.direction
            # a one-sided entry starts at the FCR band's edge on its side; for the
            # FCR entry itself the band's two offsets cancel, leaving the setpoint
            origin = sp + sum(d.band(0.0, q_fcr))
            failed = _limiting(_rule_checks(unit, entry.product, q, origin))
            ranges.append(d.band(origin, q))
            if failed is not None:
                raise ValueError(f"block {label}: {entry.product.label} {q} MW fails {failed}")
        ranges.sort()
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            if lo < hi - SLACK_MW:
                raise ValueError(f"block {label}: reserved capacity ranges overlap")
