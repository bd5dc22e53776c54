"""Revenue, cost and fleet coverage arithmetic, and the [economics] report."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .markets import (
    CapacityPriceTable,
    SpotPriceSeries,
    apply_grid_fee,
    avg_price_below_threshold,
    day_capacity_price_sum,
)
from .model import TableError, check_range


def fcr_day_revenue(bid_mw: float, prices: CapacityPriceTable) -> float:
    """Capacity revenue of a constant FCR bid held over all six blocks."""
    check_range("bid_mw", bid_mw, "[0, inf)")
    return bid_mw * day_capacity_price_sum(prices)


def afrr_day_capacity_revenue(
    quantity_mw: float, hours: float, price_eur_per_mw_h: float
) -> float:
    """Capacity revenue of an aFRR quantity held for a number of hours."""
    check_range("quantity_mw", quantity_mw, "[0, inf)")
    check_range("hours", hours, "[0, inf)")
    check_range("price_eur_per_mw_h", price_eur_per_mw_h, "[0, inf)")
    return quantity_mw * hours * price_eur_per_mw_h


def electricity_cost(setpoint_mw: float, hours: float, price_eur_per_mwh: float) -> float:
    """Energy bill for holding a setpoint, fees already included in the price."""
    check_range("setpoint_mw", setpoint_mw, "[0, inf)")
    check_range("hours", hours, "[0, inf)")
    check_range("price_eur_per_mwh", price_eur_per_mwh, "(-inf, inf)")
    return setpoint_mw * hours * price_eur_per_mwh


def savings_ratio(
    fcr_revenue_eur: float, afrr_revenue_eur: float, electricity_cost_eur: float
) -> float:
    """Capacity revenue as a share of the electricity bill."""
    check_range("fcr_revenue_eur", fcr_revenue_eur, "(-inf, inf)")
    check_range("afrr_revenue_eur", afrr_revenue_eur, "(-inf, inf)")
    check_range("electricity_cost_eur", electricity_cost_eur, "(0, inf)")
    return (fcr_revenue_eur + afrr_revenue_eur) / electricity_cost_eur


@dataclass(frozen=True)
class CoverageResult:
    """Share of a fleet needed to carry a reserve requirement."""

    share: float
    symmetric: bool
    headroom_band: float | None  # 2x share for symmetric products

    def to_dict(self) -> dict:
        return {
            "share": self.share,
            "symmetric": self.symmetric,
            "headroom_band": self.headroom_band,
        }


def fleet_coverage(
    required_reserve_mw: float, fleet_power_mw: float, symmetric: bool
) -> CoverageResult:
    """How much of a fleet a per-direction reserve requirement ties up.

    A symmetric product needs the requirement in both directions, so the
    operating band it claims is twice the per-direction share.
    """
    check_range("required_reserve_mw", required_reserve_mw, "[0, inf)")
    check_range("fleet_power_mw", fleet_power_mw, "(0, inf)")
    share = required_reserve_mw / fleet_power_mw
    band = 2.0 * share if symmetric else None
    return CoverageResult(share=share, symmetric=symmetric, headroom_band=band)


def round_to_sig_figs(value: float, figures: int = 2) -> float:
    """Round to significant figures, for headline-style reporting."""
    check_range("value", value, "(-inf, inf)")
    if value == 0:
        return 0.0
    digits = figures - 1 - math.floor(math.log10(abs(value)))
    return round(value, digits)


@dataclass(frozen=True)
class EconomicReport:
    """Bundle of the daily balancing economics of one unit or fleet.

    ``savings_ratio`` uses the exact electricity cost; the variant against
    the 2-significant-figure cost is carried alongside because headline
    summaries tend to quote rounded bills.  aFRR activation revenue is not
    modeled.
    """

    fcr_revenue_eur: float | None = None
    afrr_capacity_revenue_eur: float | None = None
    electricity_cost_eur: float | None = None
    electricity_cost_rounded_eur: float | None = None
    savings_ratio: float | None = None
    savings_ratio_vs_rounded_cost: float | None = None
    coverage: CoverageResult | None = None
    assumptions: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "fcr_revenue_eur": self.fcr_revenue_eur,
            "afrr_capacity_revenue_eur": self.afrr_capacity_revenue_eur,
            "electricity_cost_eur": self.electricity_cost_eur,
            "electricity_cost_rounded_eur": self.electricity_cost_rounded_eur,
            "savings_ratio": self.savings_ratio,
            "savings_ratio_vs_rounded_cost": self.savings_ratio_vs_rounded_cost,
            "coverage": self.coverage.to_dict() if self.coverage else None,
            "assumptions": self.assumptions,
        }


@dataclass(frozen=True)
class EconomicsSettings:
    """The [economics] keys of a scenario, each as written (``grid_fee_pct`` in percent)."""

    setpoint_mw: float | None = None
    hours_per_day: float = 24.0
    electricity_price_eur_per_mwh: float | None = None
    spot_threshold_eur_per_mwh: float | None = None
    grid_fee_pct: float = 0.0
    fcr_bid_mw: float | None = None
    afrr_quantity_mw: float | None = None
    required_reserve_mw: float | None = None
    fleet_power_mw: float | None = None
    coverage_symmetric: bool = True


def build_report(
    settings: EconomicsSettings,
    fcr_prices: CapacityPriceTable | None = None,
    afrr_price_eur_per_mw_h: float | None = None,
    spot_prices: SpotPriceSeries | None = None,
) -> EconomicReport:
    """The daily economics ``settings`` ask for, from the prices on hand.

    The electricity price is ``electricity_price_eur_per_mwh``, else the
    mean of the spot prices below ``spot_threshold_eur_per_mwh``; the grid
    fee is added to it.  ``assumptions`` records both prices and what chose
    them.  Each result needs a pair of inputs and stays None without it;
    the savings ratios need a positive cost and at least one revenue.
    Settings that complete no pair are a ``TableError`` at ``settings``, a
    revenue or cost that overflows one at the result's name.
    """
    s = settings
    assumptions: dict = {"hours_per_day": s.hours_per_day,
                         "grid_fee_pct": s.grid_fee_pct}
    price = s.electricity_price_eur_per_mwh
    threshold = s.spot_threshold_eur_per_mwh
    if price is None and spot_prices is not None and threshold is not None:
        price, hours = avg_price_below_threshold(spot_prices, threshold)
        assumptions["spot_threshold_eur_per_mwh"] = threshold
        assumptions["qualifying_hours"] = hours
    if price is not None:
        assumptions["electricity_price_eur_per_mwh"] = price
        price = apply_grid_fee(price, s.grid_fee_pct / 100.0)
        assumptions["electricity_price_with_fees_eur_per_mwh"] = price
    fcr_rev = None
    if s.fcr_bid_mw is not None and fcr_prices is not None:
        fcr_rev = fcr_day_revenue(s.fcr_bid_mw, fcr_prices)
    afrr_rev = None
    if s.afrr_quantity_mw is not None and afrr_price_eur_per_mw_h is not None:
        afrr_rev = afrr_day_capacity_revenue(
            s.afrr_quantity_mw, s.hours_per_day, afrr_price_eur_per_mw_h
        )
    cost = None
    if s.setpoint_mw is not None and price is not None:
        cost = electricity_cost(s.setpoint_mw, s.hours_per_day, price)
    for name, value in (("fcr_revenue_eur", fcr_rev), ("afrr_capacity_revenue_eur", afrr_rev),
                        ("electricity_cost_eur", cost)):
        if value is not None:
            check_range(name, value, "(-inf, inf)")
    cost_rounded = None if cost is None else round_to_sig_figs(cost, 2)
    coverage = None
    if s.required_reserve_mw is not None and s.fleet_power_mw is not None:
        coverage = fleet_coverage(s.required_reserve_mw, s.fleet_power_mw, s.coverage_symmetric)
    if fcr_rev is None and afrr_rev is None and cost is None and coverage is None:
        raise TableError(
            "[economics] computes nothing; each result needs a pair of keys: fcr_bid_mw with "
            "[prices] fcr_capacity_csv, afrr_quantity_mw with an aFRR price, setpoint_mw with "
            "electricity_price_eur_per_mwh (or [prices] spot_csv with spot_threshold_eur_per_mwh), "
            "required_reserve_mw with fleet_power_mw", None, "settings")
    ratio = None
    ratio_rounded = None
    if cost is not None and cost > 0 and (fcr_rev is not None or afrr_rev is not None):
        ratio = savings_ratio(fcr_rev or 0.0, afrr_rev or 0.0, cost)
        if cost_rounded and cost_rounded > 0:
            ratio_rounded = savings_ratio(fcr_rev or 0.0, afrr_rev or 0.0, cost_rounded)
    return EconomicReport(
        fcr_revenue_eur=fcr_rev,
        afrr_capacity_revenue_eur=afrr_rev,
        electricity_cost_eur=cost,
        electricity_cost_rounded_eur=cost_rounded,
        savings_ratio=ratio,
        savings_ratio_vs_rounded_cost=ratio_rounded,
        coverage=coverage,
        assumptions=assumptions,
    )
