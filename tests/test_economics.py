"""Revenue, electricity cost, savings ratios and fleet coverage."""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from elybal.economics import (
    EconomicsSettings,
    afrr_day_capacity_revenue,
    build_report,
    electricity_cost,
    fcr_day_revenue,
    fleet_coverage,
    round_to_sig_figs,
    savings_ratio,
)
from elybal.markets import CapacityPriceTable

TABLE = CapacityPriceTable({
    "NEGPOS_00_04": 14.71,
    "NEGPOS_04_08": 21.92,
    "NEGPOS_08_12": 62.00,
    "NEGPOS_12_16": 78.00,
    "NEGPOS_16_20": 51.00,
    "NEGPOS_20_24": 36.00,
})


class TestRevenueArithmetic:
    def test_fcr_day_revenue_exact(self):
        # 5 MW held across all six blocks of the reference auction day
        assert fcr_day_revenue(5.0, TABLE) == 1318.15

    def test_fcr_zero_bid_earns_nothing(self):
        assert fcr_day_revenue(0.0, TABLE) == 0.0

    def test_fcr_negative_bid_rejected(self):
        with pytest.raises(ValueError):
            fcr_day_revenue(-1.0, TABLE)

    @given(st.floats(min_value=0.0, max_value=500.0, allow_nan=False))
    def test_fcr_revenue_linear_in_the_bid(self, bid):
        assert fcr_day_revenue(bid, TABLE) == pytest.approx(bid * 263.63, rel=1e-12)

    def test_afrr_day_revenue_exact(self):
        assert afrr_day_capacity_revenue(40.0, 24.0, 20.0) == 19200.0

    def test_afrr_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            afrr_day_capacity_revenue(-1.0, 24.0, 20.0)

    def test_electricity_cost(self):
        assert electricity_cost(95.0, 24.0, 65.0) == 148200.0

    def test_electricity_cost_rejects_nan(self):
        with pytest.raises(ValueError, match="setpoint_mw"):
            electricity_cost(math.nan, 24.0, 50.0)


class TestSavingsRatio:
    def test_afrr_only_against_rounded_bill(self):
        assert savings_ratio(0.0, 19200.0, 150000.0) == pytest.approx(0.128)

    def test_combined_against_exact_bill(self):
        ratio = savings_ratio(1318.15, 19200.0, 148200.0)
        assert ratio == pytest.approx(0.1384, abs=5e-4)

    def test_cost_must_be_positive(self):
        with pytest.raises(ValueError):
            savings_ratio(1000.0, 0.0, 0.0)


class TestRounding:
    @pytest.mark.parametrize(
        "value,figures,expected",
        [
            (148200.0, 2, 150000.0),
            (263.63, 2, 260.0),
            (263.63, 3, 264.0),
            (0.00852, 2, 0.0085),
            (0.0, 2, 0.0),
            (-148200.0, 2, -150000.0),
        ],
    )
    def test_round_to_sig_figs(self, value, figures, expected):
        assert round_to_sig_figs(value, figures) == expected


class TestFleetCoverage:
    def test_national_fcr_share(self):
        result = fleet_coverage(500.0, 10000.0, symmetric=True)
        assert result.share == 0.05
        assert result.headroom_band == 0.10

    def test_continental_fcr_share(self):
        result = fleet_coverage(3000.0, 40000.0, symmetric=True)
        assert result.share == 0.075
        assert result.headroom_band == 0.15

    def test_one_sided_product_has_no_band(self):
        result = fleet_coverage(500.0, 10000.0, symmetric=False)
        assert result.headroom_band is None
        assert result.to_dict()["headroom_band"] is None

    def test_validation(self):
        with pytest.raises(ValueError):
            fleet_coverage(-1.0, 100.0, True)
        with pytest.raises(ValueError):
            fleet_coverage(1.0, 0.0, True)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="required_reserve_mw"):
            fleet_coverage(math.nan, 100.0, True)


class TestBuildReport:
    def test_full_assembly(self):
        report = build_report(
            EconomicsSettings(fcr_bid_mw=5.0, afrr_quantity_mw=40.0, setpoint_mw=95.0,
                              electricity_price_eur_per_mwh=50.0, grid_fee_pct=30.0),
            fcr_prices=TABLE,
            afrr_price_eur_per_mw_h=20.0,
        )
        assert report.fcr_revenue_eur == 1318.15
        assert report.afrr_capacity_revenue_eur == 19200.0
        assert report.electricity_cost_eur == 148200.0
        assert report.electricity_cost_rounded_eur == 150000.0
        assert report.savings_ratio == pytest.approx(20518.15 / 148200.0)
        assert report.savings_ratio_vs_rounded_cost == pytest.approx(20518.15 / 150000.0)
        assert list(report.assumptions.items()) == [
            ("hours_per_day", 24.0), ("grid_fee_pct", 30.0),
            ("electricity_price_eur_per_mwh", 50.0),
            ("electricity_price_with_fees_eur_per_mwh", 65.0),
        ]

    def test_afrr_only_report(self):
        report = build_report(
            EconomicsSettings(afrr_quantity_mw=40.0, setpoint_mw=95.0,
                              electricity_price_eur_per_mwh=65.0),
            afrr_price_eur_per_mw_h=20.0,
        )
        assert report.fcr_revenue_eur is None
        # the headline combination: aFRR revenue over the rounded bill
        assert report.savings_ratio_vs_rounded_cost == pytest.approx(0.128)

    def test_missing_inputs_stay_none(self):
        fcr_without_prices = EconomicsSettings(fcr_bid_mw=5.0)
        report = build_report(dataclasses.replace(
            fcr_without_prices, required_reserve_mw=500.0, fleet_power_mw=10000.0))
        assert report.fcr_revenue_eur is None
        assert report.savings_ratio is None
        assert report.electricity_cost_eur is None
        # with nothing else to compute, the settings are an error
        with pytest.raises(ValueError, match=r"\[economics\] computes nothing"):
            build_report(fcr_without_prices)

    @pytest.mark.parametrize("settings, named", [
        (EconomicsSettings(afrr_quantity_mw=40.0), "afrr_capacity_revenue_eur"),
        (EconomicsSettings(fcr_bid_mw=1e307), "fcr_revenue_eur"),
        (EconomicsSettings(setpoint_mw=1e307, electricity_price_eur_per_mwh=50.0),
         "electricity_cost_eur"),
    ])
    def test_a_revenue_or_cost_that_overflows_is_refused(self, settings, named):
        # each input lies in its range; the product does not
        with pytest.raises(ValueError, match=rf"^{named} must be in \(-inf, inf\), got inf$"):
            build_report(settings, fcr_prices=TABLE, afrr_price_eur_per_mw_h=1e308)

    def test_coverage_block(self):
        report = build_report(EconomicsSettings(required_reserve_mw=500.0, fleet_power_mw=10000.0))
        assert report.coverage is not None
        assert report.coverage.share == 0.05

    def test_to_dict_round_trip_keys(self):
        d = build_report(EconomicsSettings(fcr_bid_mw=5.0), fcr_prices=TABLE).to_dict()
        assert d["fcr_revenue_eur"] == 1318.15
        assert d["coverage"] is None
        assert "assumptions" in d
