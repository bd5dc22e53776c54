"""Balancing products, auction time blocks and price containers.

Product parameters follow the German/European market design: FCR is a
symmetric product with a 30 s full-activation deadline, aFRR and mFRR are
direction-specific with 5 min / 12.5 min deadlines.  All three are traded
in 1 MW steps over 4 h blocks.

The price containers check their own rows: a ``TableError`` names the row
and column of a fault, which a CSV reader maps to a file line.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from datetime import datetime
from enum import Enum

import numpy as np

from .model import TableError, check_range, in_range


class ProductKind(str, Enum):
    FCR = "FCR"
    AFRR = "aFRR"
    MFRR = "mFRR"


class Direction(str, Enum):
    SYM = "SYM"  # symmetric band around the setpoint
    POS = "POS"  # positive reserve: the grid gains power, a load sheds
    NEG = "NEG"  # negative reserve: the grid loses power, a load absorbs

    def __init__(self, value: str) -> None:
        # the one direction rule for a load: a POS activation moves it below the
        # setpoint, on the ramp-down, a NEG one above it, on the ramp-up, SYM both;
        # ``band`` and ``binding`` state what follows from it for a bid.  Member
        # attributes, not properties: the allocator reads them on its hot path
        self.lowers_load = value != "NEG"
        self.raises_load = value != "POS"

    def band(self, origin: float | np.ndarray, q: float) -> tuple[float | np.ndarray, ...]:
        """The power range (lo, hi) a ``q`` MW activation from ``origin`` moves the load through."""
        return (origin - q if self.lowers_load else origin,
                origin + q if self.raises_load else origin)

    def binding(self, below: Callable[[], float | np.ndarray],
                above: Callable[[], float | np.ndarray]) -> float | np.ndarray:
        """The bound of the side that binds: ``below()`` for POS, ``above()`` for
        NEG, the smaller of the two for SYM, elementwise on arrays.  Only the
        side(s) the load moves to are evaluated."""
        if not self.raises_load:
            return below()
        if not self.lowers_load:
            return above()
        lo, hi = below(), above()
        return np.minimum(lo, hi) if isinstance(lo, np.ndarray) else min(lo, hi)


@dataclass(frozen=True)
class BalancingProduct:
    kind: ProductKind
    min_bid_mw: float  # smallest tradable offer
    trade_increment_mw: float  # bid granularity (product trading size)
    availability_s: float  # latest full-delivery time after activation
    duration_h: float  # auction block length
    direction: Direction

    def __post_init__(self) -> None:
        # Both enums mix in str, so callers may pass plain strings ("POS").
        # Normalize here: downstream code compares identity, not equality.
        object.__setattr__(self, "kind", ProductKind(self.kind))
        object.__setattr__(self, "direction", Direction(self.direction))
        for field_name in ("min_bid_mw", "trade_increment_mw", "availability_s", "duration_h"):
            check_range(field_name, getattr(self, field_name), "(0, inf)")
        if (self.kind is ProductKind.FCR) != (self.direction is Direction.SYM):
            raise TableError(f"no {self.kind.value} {self.direction.value} product: "
                             "FCR is SYM, aFRR and mFRR are POS or NEG", None, "direction")

    @property
    def label(self) -> str:
        if self.direction is Direction.SYM:
            return self.kind.value
        return f"{self.kind.value} {self.direction.value}"


def fcr() -> BalancingProduct:
    return BalancingProduct(ProductKind.FCR, 1.0, 1.0, 30.0, 4.0, Direction.SYM)


def afrr(direction: Direction | str = Direction.POS) -> BalancingProduct:
    return BalancingProduct(ProductKind.AFRR, 1.0, 1.0, 300.0, 4.0, direction)


def mfrr(direction: Direction | str = Direction.POS) -> BalancingProduct:
    return BalancingProduct(ProductKind.MFRR, 1.0, 1.0, 750.0, 4.0, direction)


_PRODUCT_NAMES = {
    "fcr": fcr,
    "afrr-pos": lambda: afrr(Direction.POS),
    "afrr-neg": lambda: afrr(Direction.NEG),
    "mfrr-pos": lambda: mfrr(Direction.POS),
    "mfrr-neg": lambda: mfrr(Direction.NEG),
}


def product_from_name(name: str) -> BalancingProduct:
    """Build a product from its CLI/scenario name, e.g. "fcr" or "afrr-pos"."""
    key = name.strip().lower()
    if key == "afrr" or key == "mfrr":
        key = f"{key}-pos"
    if key not in _PRODUCT_NAMES:
        known = ", ".join(sorted(_PRODUCT_NAMES))
        raise ValueError(f"unknown product {name!r}, expected one of: {known}")
    return _PRODUCT_NAMES[key]()


def required_gradient(product: BalancingProduct) -> float:
    """Power gradient (MW/s) needed to deliver one traded unit on time."""
    return product.trade_increment_mw / product.availability_s


@dataclass(frozen=True)
class TimeBlock:
    """One 4 h capacity auction block of the delivery day."""

    label: str
    start_hour: int
    end_hour: int

    def __post_init__(self) -> None:
        check_range("start_hour", self.start_hour, "[0, 24)")
        if self.end_hour != self.start_hour + 4:
            raise ValueError("blocks span exactly four hours")


CANONICAL_BLOCKS: tuple[TimeBlock, ...] = tuple(
    TimeBlock(f"NEGPOS_{h:02d}_{h + 4:02d}", h, h + 4) for h in range(0, 24, 4)
)

_BLOCK_BY_START = {b.start_hour: b for b in CANONICAL_BLOCKS}


def normalize_block_label(label: str) -> str:
    """Map a block label onto the canonical NEGPOS_hh_hh scheme.

    Accepts any label carrying the two block hours as digits, e.g.
    "NEGPOS_00_04", "00-04" or "neg_pos_8_12".
    """
    numbers = [int(n) for n in re.findall(r"\d+", label)]
    if len(numbers) >= 2:
        start, end = numbers[0], numbers[1]
        if start in _BLOCK_BY_START and end == start + 4:
            return _BLOCK_BY_START[start].label
    raise ValueError(f"unrecognized block label {label!r}")


@dataclass(frozen=True)
class CapacityPriceTable:
    """Capacity prices in euro per MW per 4 h block, one for each of the
    six blocks of the day, keyed by block label in block order.  Given as
    (label, price) rows, two rows of one raw label are a repeat, not merged.
    """

    prices: Mapping[str, float] | Iterable[tuple[str, float]]

    def __post_init__(self) -> None:
        rows = self.prices.items() if isinstance(self.prices, Mapping) else self.prices
        normalized = {}
        for row, (label, price) in enumerate(rows):
            try:
                canonical = normalize_block_label(label)
            except ValueError as exc:
                raise TableError(str(exc), row, "block") from None
            if canonical in normalized:
                raise TableError(f"duplicate price for block {canonical}", row, "block")
            if not in_range(price := float(price), "[0, inf)"):  # CSV cells are finite
                fault = "negative" if price < 0 else "non-finite"
                raise TableError(f"{fault} capacity price {price} for block {canonical}",
                                 row, "price_eur_per_mw")
            normalized[canonical] = price
        missing = [b.label for b in CANONICAL_BLOCKS if b.label not in normalized]
        if missing:
            raise TableError(f"capacity price table missing blocks: {', '.join(missing)}",
                             None, "block")
        object.__setattr__(self, "prices", {b.label: normalized[b.label] for b in CANONICAL_BLOCKS})

    def price(self, block: TimeBlock | str) -> float:
        label = block.label if isinstance(block, TimeBlock) else normalize_block_label(block)
        return self.prices[label]


def day_capacity_price_sum(table: CapacityPriceTable) -> float:
    """Sum of the six block prices: euro per MW for a full delivery day."""
    return sum(table.prices.values())


@dataclass(frozen=True)
class SpotPriceSeries:
    """Hourly day-ahead prices as (timestamp, euro/MWh) pairs, the price finite;
    a timestamp may be a datetime or ISO text.  The first faulty row is reported."""

    samples: tuple[tuple[datetime, float], ...]

    def __post_init__(self) -> None:
        samples: list[tuple[datetime, float]] = []
        for row, (t, p) in enumerate(self.samples):
            try:
                t = datetime.fromisoformat(t) if isinstance(t, str) else t
                in_order = not samples or samples[-1][0] < t
            except ValueError:
                raise TableError(f"invalid ISO timestamp '{t}'", row, "timestamp") from None
            except TypeError:  # a UTC offset on one side only
                raise TableError(f"timestamps mix ones with and without a UTC offset: "
                                 f"{samples[-1][0]} then {t}", row, "timestamp") from None
            if not in_order:
                raise TableError(f"timestamps must be strictly increasing, got "
                                 f"{samples[-1][0]} then {t}", row, "timestamp")
            if not in_range(p := float(p), "(-inf, inf)"):  # CSV cells are finite
                raise TableError(f"non-finite spot price {p} at {t}", row, "price_eur_per_mwh")
            samples.append((t, p))
        object.__setattr__(self, "samples", tuple(samples))


def avg_price_below_threshold(
    series: SpotPriceSeries, threshold_eur_per_mwh: float
) -> tuple[float, int]:
    """Mean price and sample count over hours priced strictly below the threshold."""
    if not series.samples:
        raise TableError("spot price series is empty", None, "spot_csv")
    selected = [p for _, p in series.samples if p < threshold_eur_per_mwh]
    if not selected:
        raise TableError(f"no samples below {threshold_eur_per_mwh} euro/MWh in series of "
                         f"{len(series.samples)}", None, "spot_threshold_eur_per_mwh")
    return sum(selected) / len(selected), len(selected)


def apply_grid_fee(price_eur_per_mwh: float, fee_fraction: float) -> float:
    """Add proportional grid fees and surcharges to an energy price."""
    check_range("price_eur_per_mwh", price_eur_per_mwh, "(-inf, inf)")
    check_range("fee_fraction", fee_fraction, "[0, inf)")
    return price_eur_per_mwh * (1.0 + fee_fraction)

