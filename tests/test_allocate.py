"""Daily block allocation: optimizer, validator and brute-force cross-check."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from elybal.allocate import (
    AllocationOptions,
    BidSchedule,
    ScheduleEntry,
    optimize_day,
    validate_schedule,
)
from elybal.markets import (
    CANONICAL_BLOCKS,
    BalancingProduct,
    CapacityPriceTable,
    Direction,
    ProductKind,
    afrr,
    fcr,
    mfrr,
)
from elybal.model import EfficiencyCurve, ElectrolyzerUnit, Technology
from oracles import brute_force_oracle

PRICES = CapacityPriceTable({
    "NEGPOS_00_04": 14.71,
    "NEGPOS_04_08": 21.92,
    "NEGPOS_08_12": 62.00,
    "NEGPOS_12_16": 78.00,
    "NEGPOS_16_20": 51.00,
    "NEGPOS_20_24": 36.00,
})

# 100 MW plant, 50 % minimum load, 0.167 %/s: carries 5 MW FCR per block
BIG_UNIT = ElectrolyzerUnit(
    name="big", technology=Technology.AEL, rated_power_mw=100.0,
    min_load_fraction=0.5, ramp_up=0.00167,
)


def flat_prices(value: float) -> CapacityPriceTable:
    return CapacityPriceTable({b.label: value for b in CANONICAL_BLOCKS})


class TestOptimizeDay:
    def test_fcr_only_day(self):
        result = optimize_day(BIG_UNIT, [fcr()], PRICES, None)
        assert result.capacity_revenue_eur == pytest.approx(5 * 263.63)
        assert len(result.schedule.entries) == 6
        for entry in result.schedule.entries:
            assert entry.quantity_mw == 5.0
            # revenue ties are broken toward the higher setpoint (more hydrogen)
            assert entry.setpoint_mw == 95.0

    def test_combined_day_with_pinned_fcr(self):
        options = AllocationOptions(pre_reserved_fcr_mw=5.0)
        result = optimize_day(
            BIG_UNIT, [fcr(), afrr()], PRICES, afrr_price_per_block_eur=80.0,
            options=options,
        )
        # 5 MW FCR plus 40 MW aFRR POS in every block
        assert result.capacity_revenue_eur == pytest.approx(5 * 263.63 + 40 * 80.0 * 6)
        per_block = {}
        for e in result.schedule.entries:
            per_block.setdefault(e.block.label, []).append(e)
        for entries in per_block.values():
            quantities = {e.product.kind.value: e.quantity_mw for e in entries}
            assert quantities == {"FCR": 5.0, "aFRR": 40.0}
            assert all(e.setpoint_mw == 95.0 for e in entries)

    def test_afrr_alone_uses_the_full_band(self):
        result = optimize_day(BIG_UNIT, [afrr()], None, afrr_price_per_block_eur=80.0)
        for entry in result.schedule.entries:
            # free setpoint climbs to rated power; 50 MW of room below it
            assert entry.setpoint_mw == 100.0
            assert entry.quantity_mw == 50.0

    def test_zero_prices_mean_no_bids(self):
        result = optimize_day(BIG_UNIT, [fcr()], flat_prices(0.0), None)
        assert result.schedule.entries == ()
        assert result.capacity_revenue_eur == 0.0

    def test_infeasible_blocks_carry_no_bid_without_error(self):
        # too slow for FCR at any setpoint
        slow = ElectrolyzerUnit("slow", Technology.SOEC, 4.0, 0.25, 0.0016)
        result = optimize_day(slow, [fcr()], flat_prices(100.0), None)
        assert result.schedule.entries == ()

    def test_fcr_needs_a_price_table(self):
        with pytest.raises(ValueError, match="price table"):
            optimize_day(BIG_UNIT, [fcr()], None, None)

    def test_incomplete_price_table_is_named(self):
        partial = CapacityPriceTable({"NEGPOS_00_04": 10.0})
        with pytest.raises(ValueError, match="NEGPOS_04_08"):
            optimize_day(BIG_UNIT, [fcr()], partial, None)

    def test_afrr_needs_a_price(self):
        with pytest.raises(ValueError, match="aFRR"):
            optimize_day(BIG_UNIT, [afrr()], None, None)

    def test_pinning_fcr_requires_offering_it(self):
        with pytest.raises(ValueError, match="pre_reserved_fcr_mw"):
            optimize_day(
                BIG_UNIT, [afrr()], None, 80.0,
                options=AllocationOptions(pre_reserved_fcr_mw=5.0),
            )

    def test_only_fcr_and_afrr_pos_are_priced(self):
        with pytest.raises(ValueError, match="mFRR"):
            optimize_day(BIG_UNIT, [mfrr()], None, 80.0)
        with pytest.raises(ValueError, match="aFRR NEG"):
            optimize_day(BIG_UNIT, [afrr(Direction.NEG)], None, 80.0)

    def test_options_validation(self):
        with pytest.raises(ValueError):
            AllocationOptions(setpoint_grid_mw=0.0)
        with pytest.raises(ValueError):
            AllocationOptions(hydrogen_value_eur_per_kg=-1.0)

    def test_result_to_dict_is_flat_data(self):
        result = optimize_day(BIG_UNIT, [fcr()], PRICES, None)
        d = result.to_dict()
        assert d["capacity_revenue_eur"] == pytest.approx(1318.15)
        assert d["schedule"][0]["block"] == "NEGPOS_00_04"
        assert d["schedule"][0]["product"] == "FCR"


class TestPinnedFcr:
    @pytest.mark.parametrize("pin", [2.5, 0.5])
    def test_untradable_pin_is_an_input_error(self, pin):
        # 2.5 MW is off the 1 MW grid, 0.5 MW below the 1 MW minimum bid
        with pytest.raises(ValueError, match=r"pre_reserved_fcr_mw.*1 MW trading grid"):
            optimize_day(
                BIG_UNIT, [fcr(), afrr()], PRICES, 80.0,
                options=AllocationOptions(pre_reserved_fcr_mw=pin),
            )

    def test_tradable_pin_above_the_ramp_cap_is_a_day_without_bids(self):
        # 6 MW FCR needs 36 s at 0.167 MW/s; no setpoint hosts it
        result = optimize_day(
            BIG_UNIT, [fcr(), afrr()], PRICES, 80.0,
            options=AllocationOptions(pre_reserved_fcr_mw=6.0),
        )
        assert result.schedule.entries == ()


def test_trading_increments_must_nest():
    odd = BalancingProduct(ProductKind.AFRR, 1.0, 1.5, 300.0, False, 4.0, Direction.POS)
    with pytest.raises(ValueError, match="whole multiples"):
        optimize_day(BIG_UNIT, [fcr(), odd], PRICES, 80.0)


class TestHydrogenOpportunityCost:
    # constant 50 kWh/kg makes the forgone production linear in the setpoint
    CURVE = EfficiencyCurve(((0.2, 50.0), (1.0, 50.0)))
    UNIT = ElectrolyzerUnit("h2", Technology.AEL, 10.0, 0.2, 0.05,
                            efficiency_curve=CURVE)

    def test_cheap_hydrogen_still_worth_bidding(self):
        result = optimize_day(
            self.UNIT, [fcr()], flat_prices(10.0), None,
            options=AllocationOptions(hydrogen_value_eur_per_kg=0.1),
        )
        # 4 MW at setpoint 6: forgone 320 kg/block, 32 euro against 40 revenue
        for entry in result.schedule.entries:
            assert entry.quantity_mw == 4.0
            assert entry.setpoint_mw == 6.0
        assert result.hydrogen_loss_kg == pytest.approx(6 * 320.0)
        assert result.objective_eur == pytest.approx(6 * (40.0 - 32.0))

    def test_expensive_hydrogen_shuts_the_bids_off(self):
        result = optimize_day(
            self.UNIT, [fcr()], flat_prices(10.0), None,
            options=AllocationOptions(hydrogen_value_eur_per_kg=0.2),
        )
        assert result.schedule.entries == ()
        assert result.objective_eur == 0.0

    @pytest.mark.parametrize("points, error", [
        # starts above the 50 % minimum load: setpoints start at 70 %
        (((0.7, 52.0), (1.0, 55.0)), None),
        # stops short of full load, which the forgone production is measured against
        (((0.5, 52.0), (0.9, 55.0)), r"hydrogen_value_eur_per_kg.*\[0\.5, 0\.9\]"),
    ])
    def test_setpoints_stay_on_the_efficiency_curve(self, points, error):
        unit = ElectrolyzerUnit("h2", Technology.AEL, 10.0, 0.5, 0.05,
                                efficiency_curve=EfficiencyCurve(points))
        options = AllocationOptions(hydrogen_value_eur_per_kg=0.01)
        if error is not None:
            with pytest.raises(ValueError, match=error):
                optimize_day(unit, [fcr(), afrr()], PRICES, 30.0, options)
            return
        result = optimize_day(unit, [fcr(), afrr()], PRICES, 30.0, options)
        assert result.schedule.entries
        assert all(e.setpoint_mw >= 7.0 for e in result.schedule.entries)
        slow = brute_force_oracle(unit, [fcr(), afrr()], PRICES, 30.0, options)
        assert result.schedule.entries == slow.schedule.entries

    def test_missing_curve_is_an_error(self):
        bare = ElectrolyzerUnit("bare", Technology.AEL, 10.0, 0.2, 0.05)
        with pytest.raises(ValueError, match="efficiency curve"):
            optimize_day(
                bare, [fcr()], flat_prices(10.0), None,
                options=AllocationOptions(hydrogen_value_eur_per_kg=0.1),
            )


class TestValidateSchedule:
    def afrr_entry(self, block, quantity, setpoint):
        return ScheduleEntry(block, afrr(), quantity, Direction.POS, setpoint)

    def test_accepts_the_optimizer_output(self):
        result = optimize_day(BIG_UNIT, [fcr(), afrr()], PRICES, 80.0)
        validate_schedule(BIG_UNIT, result.schedule)  # no raise

    def test_headroom_is_not_double_counted(self):
        block = CANONICAL_BLOCKS[0]
        ok = BidSchedule((
            ScheduleEntry(block, fcr(), 5.0, Direction.SYM, 95.0),
            self.afrr_entry(block, 40.0, 95.0),
        ))
        # aFRR occupies [50, 90], directly below the FCR band [90, 100]
        validate_schedule(BIG_UNIT, ok)
        crowded = BidSchedule((
            ScheduleEntry(block, fcr(), 5.0, Direction.SYM, 95.0),
            self.afrr_entry(block, 41.0, 95.0),
        ))
        with pytest.raises(ValueError, match="headroom"):
            validate_schedule(BIG_UNIT, crowded)

    def test_rejects_duplicate_fcr_entries(self):
        block = CANONICAL_BLOCKS[0]
        schedule = BidSchedule((
            ScheduleEntry(block, fcr(), 2.0, Direction.SYM, 70.0),
            ScheduleEntry(block, fcr(), 3.0, Direction.SYM, 70.0),
        ))
        with pytest.raises(ValueError, match="more than one FCR"):
            validate_schedule(BIG_UNIT, schedule)

    def test_rejects_mixed_setpoints_in_a_block(self):
        block = CANONICAL_BLOCKS[0]
        schedule = BidSchedule((
            ScheduleEntry(block, fcr(), 2.0, Direction.SYM, 70.0),
            self.afrr_entry(block, 5.0, 80.0),
        ))
        with pytest.raises(ValueError, match="mixes setpoints"):
            validate_schedule(BIG_UNIT, schedule)

    def test_rejects_an_ineligible_entry(self):
        block = CANONICAL_BLOCKS[0]
        schedule = BidSchedule((
            # 20 MW FCR needs 20/0.167 = 120 s, way past the 30 s deadline
            ScheduleEntry(block, fcr(), 20.0, Direction.SYM, 75.0),
        ))
        with pytest.raises(ValueError, match="ramp_deadline"):
            validate_schedule(BIG_UNIT, schedule)


class TestBruteForceOracle:
    def test_matches_optimizer_on_the_pinned_day(self):
        small = ElectrolyzerUnit("s", Technology.PEM, 12.0, 0.25, 0.02)
        options = AllocationOptions(pre_reserved_fcr_mw=2.0)
        fast = optimize_day(small, [fcr(), afrr()], PRICES, 30.0, options)
        slow = brute_force_oracle(small, [fcr(), afrr()], PRICES, 30.0, options)
        assert fast.objective_eur == pytest.approx(slow.objective_eur)
        assert fast.capacity_revenue_eur == pytest.approx(slow.capacity_revenue_eur)

    def test_matches_on_randomized_small_instances(self):
        rng = random.Random(20240725)
        for _ in range(10):
            rated = rng.randint(3, 14)
            u = rng.choice([0.1, 0.2, 0.25, 0.4])
            ramp = rng.choice([0.002, 0.01, 0.05, 0.1])
            unit = ElectrolyzerUnit("r", Technology.AEL, float(rated), u, ramp)
            prices = CapacityPriceTable(
                {b.label: round(rng.uniform(0, 90), 2) for b in CANONICAL_BLOCKS}
            )
            afrr_price = round(rng.uniform(0, 120), 2)
            fast = optimize_day(unit, [fcr(), afrr()], prices, afrr_price)
            slow = brute_force_oracle(unit, [fcr(), afrr()], prices, afrr_price)
            assert fast.objective_eur == pytest.approx(slow.objective_eur)
            assert fast.schedule.entries == slow.schedule.entries

    def test_refuses_oversized_search_spaces(self):
        with pytest.raises(ValueError, match="exceeds"):
            brute_force_oracle(BIG_UNIT, [fcr()], PRICES, None)


CENTS = st.integers(min_value=0, max_value=12000).map(lambda c: c / 100)


def _day(unit, fcr_prod, afrr_prod, block_prices, afrr_price, options, offered="both"):
    products = {"both": [fcr_prod, afrr_prod], "fcr": [fcr_prod], "afrr": [afrr_prod]}[offered]
    prices = CapacityPriceTable(dict(zip((b.label for b in CANONICAL_BLOCKS), block_prices)))
    return (
        unit,
        products,
        prices if offered != "afrr" else None,
        afrr_price if offered != "fcr" else None,
        options,
    )


@st.composite
def allocation_days(draw):
    """Small plants with custom FCR and aFRR POS grids, cent prices and
    every option: free, pinned FCR, hydrogen value, coarse setpoint grids."""
    rated = float(draw(st.integers(2, 10)))
    u = draw(st.sampled_from([0.1, 0.2, 0.25, 0.4, 0.5]))
    ramp_up = draw(st.sampled_from([0.002, 0.005, 0.02, 0.05, 0.1]))
    ramp_down = draw(st.sampled_from([None, 0.005, 0.05]))
    fcr_prod = BalancingProduct(ProductKind.FCR, draw(st.integers(1, 3)),
                                draw(st.integers(1, 2)), 30.0, True, 4.0, Direction.SYM)
    afrr_prod = BalancingProduct(ProductKind.AFRR, draw(st.integers(1, 3)),
                                 draw(st.integers(1, 2)), 300.0, False, 4.0, Direction.POS)
    block_prices = draw(st.lists(CENTS, min_size=6, max_size=6))
    # an aFRR price equal to an FCR block price makes the products tie
    afrr_price = draw(st.one_of(CENTS, st.sampled_from(block_prices)))
    mode = draw(st.sampled_from(["free", "pinned", "hydrogen", "grid"]))
    offered = draw(st.sampled_from(["both", "fcr", "afrr"]))
    curve = None
    options = AllocationOptions()
    if mode == "pinned":
        offered = draw(st.sampled_from(["both", "fcr"]))
        inc = fcr_prod.trade_increment_mw
        lots = [0.0] + [k * inc for k in range(1, 5) if k * inc >= fcr_prod.min_bid_mw]
        options = AllocationOptions(pre_reserved_fcr_mw=draw(st.sampled_from(lots)))
    elif mode == "hydrogen":
        start = max(u, draw(st.sampled_from([0.0, 0.6, 0.7])))
        curve = EfficiencyCurve(((start, draw(st.sampled_from([48.0, 52.0]))), (1.0, 55.0)))
        options = AllocationOptions(
            hydrogen_value_eur_per_kg=draw(st.sampled_from([0.0, 0.02, 0.1])))
    elif mode == "grid":
        # a step above half the rated power leaves one setpoint: the step itself
        lowest = math.floor(max(u * rated, rated / 2) * 4) + 1
        single = draw(st.integers(lowest, int(rated * 4))) / 4
        options = AllocationOptions(
            setpoint_grid_mw=draw(st.sampled_from([0.25, 0.5, 2.0, single])))
    unit = ElectrolyzerUnit("day", Technology.AEL, rated, u, ramp_up, ramp_down,
                            efficiency_curve=curve)
    return _day(unit, fcr_prod, afrr_prod, block_prices, afrr_price, options, offered)


def _one_setpoint_day(rated, u, ramp_up, ramp_down, fcr_bid_grid, afrr_bid_grid,
                      fcr_price, afrr_price, setpoint):
    """A day whose setpoint grid holds only ``setpoint`` (above half the
    rated power), with (minimum bid, increment) pairs for both products."""
    return _day(
        ElectrolyzerUnit("one", Technology.AEL, rated, u, ramp_up, ramp_down),
        BalancingProduct(ProductKind.FCR, *fcr_bid_grid, 30.0, True, 4.0, Direction.SYM),
        BalancingProduct(ProductKind.AFRR, *afrr_bid_grid, 300.0, False, 4.0, Direction.POS),
        [fcr_price] * 6, afrr_price, AllocationOptions(setpoint_grid_mw=setpoint),
    )


# The min-bid kink.  At 11 MW the 16 MW plant has 7.8 MW below the setpoint
# and 5 MW above it; aFRR trades from 4 MW (3 MW minimum, 2 MW grid).
# 3 MW FCR leaves 4.8 MW, i.e. 4 MW aFRR: 261 euro beats 1 MW FCR with
# 6 MW aFRR (255) and 5 MW FCR alone (195).
MIN_BID_KINK = _one_setpoint_day(16.0, 0.2, 0.02, None, (1.0, 1.0), (3.0, 2.0),
                                 39.0, 36.0, 11.0)


@settings(max_examples=150, deadline=None)
@given(day=allocation_days())
@example(day=MIN_BID_KINK)
# the last FCR lot of the aFRR step reached from the lowest FCR lot
@example(day=_one_setpoint_day(28.0, 0.2, 0.1, 0.01, (2.0, 1.0), (2.0, 2.0),
                               59.0, 73.0, 21.25))
# the last FCR lot of the aFRR step above the one at the highest FCR lot
@example(day=_one_setpoint_day(27.0, 0.2, 0.02, 0.01, (1.0, 1.0), (1.0, 2.0),
                               47.0, 37.0, 22.5))
# the FCR lot just past the aFRR ramp reach, on a coarser FCR grid
@example(day=_one_setpoint_day(110.0, 0.1, 0.0025, None, (2.0, 2.0), (1.0, 1.0),
                               70.0, 100.0, 96.5))
def test_optimizer_matches_the_brute_force_oracle(day):
    fast = optimize_day(*day)
    slow = brute_force_oracle(*day)
    assert fast.schedule.entries == slow.schedule.entries
    assert fast.objective_eur == pytest.approx(slow.objective_eur, rel=1e-12, abs=1e-9)
