"""Daily block allocation: optimizer, validator and brute-force cross-check."""

from __future__ import annotations

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from elybal import allocate
from elybal.allocate import (
    AllocationOptions,
    BidSchedule,
    ScheduleEntry,
    _EPS,
    _day_table,
    _pick,
    _split_products,
    optimize_day,
    validate_schedule,
)
from elybal.markets import (
    CANONICAL_BLOCKS,
    BalancingProduct,
    CapacityPriceTable,
    Direction,
    ProductKind,
    TableError,
    afrr,
    fcr,
    mfrr,
)
from elybal.model import EfficiencyCurve, ElectrolyzerUnit, Technology
from oracles import (
    brute_force_oracle,
    capacity_limit_scalar,
    optimize_day_loop,
    pick_row,
    tradable_scalar,
)

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
        # a table holds all six blocks, so no partial one reaches optimize_day
        with pytest.raises(ValueError, match="NEGPOS_04_08"):
            optimize_day(BIG_UNIT, [fcr()], CapacityPriceTable({"NEGPOS_00_04": 10.0}), None)

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

    @pytest.mark.parametrize("products, row", [
        ([fcr(), fcr()], 1),
        ([fcr(), afrr(), afrr()], 2),
        ([afrr(), fcr(), afrr(), fcr()], 2),
    ])
    def test_a_product_offered_twice_is_a_fault_of_the_second(self, products, row):
        with pytest.raises(TableError, match="offered twice") as info:
            optimize_day(BIG_UNIT, products, PRICES, 80.0)
        assert (info.value.row, info.value.key) == (row, "kind")

    def test_options_validation(self):
        with pytest.raises(ValueError):
            AllocationOptions(setpoint_grid_mw=0.0)
        with pytest.raises(ValueError):
            AllocationOptions(hydrogen_value_eur_per_kg=-1.0)

    @pytest.mark.parametrize(
        "field", ["hydrogen_value_eur_per_kg", "pre_reserved_fcr_mw", "setpoint_grid_mw"]
    )
    def test_options_reject_nan(self, field):
        with pytest.raises(ValueError, match=field):
            AllocationOptions(**{field: math.nan})

    @pytest.mark.parametrize(
        "field", ["hydrogen_value_eur_per_kg", "pre_reserved_fcr_mw", "setpoint_grid_mw"]
    )
    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_options_reject_infinity(self, field, value):
        with pytest.raises(ValueError, match=field):
            AllocationOptions(**{field: value})

    def test_nan_afrr_price_rejected(self):
        with pytest.raises(ValueError, match="afrr_price_per_block_eur"):
            optimize_day(BIG_UNIT, [afrr()], None, afrr_price_per_block_eur=math.nan)

    def test_infinite_afrr_price_rejected(self):
        # an infinite price would score the aFRR-free candidates 0 * inf = NaN
        with pytest.raises(ValueError, match=r"afrr_price_per_block_eur must be in \[0, inf\)"):
            optimize_day(BIG_UNIT, [afrr()], None, afrr_price_per_block_eur=math.inf)

    def test_a_fine_setpoint_grid_costs_no_memory(self):
        # 5e5 setpoints of 1e-4 MW: each FCR lot is hosted by rule, so no array spans them
        tracemalloc.start()
        try:
            fine = optimize_day(BIG_UNIT, [fcr()], PRICES, None,
                                AllocationOptions(setpoint_grid_mw=1e-4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert fine.to_dict() == optimize_day(BIG_UNIT, [fcr()], PRICES, None).to_dict()

    def test_too_many_fcr_lots_are_refused_before_any_array(self):
        # 1.35e6 lots of 1 MW in half the band from the 3e5 MW minimum load to the 3e6 MW rating
        huge = ElectrolyzerUnit("huge", Technology.AEL, 3e6, 0.1, 0.001)
        tracemalloc.start()
        try:
            with pytest.raises(TableError, match=r"rated_power_mw = 3e\+06 MW gives 1\.35e\+06 FCR "
                                                 r"lots of 1 MW in half its band") as info:
                optimize_day(huge, [fcr(), afrr()], PRICES, 80.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert info.value.key == "rated_power_mw"

    def test_the_lot_cap_counts_lots_in_half_the_band(self, monkeypatch):
        # a symmetric FCR band holds at most (rated - minimum load) / 2, so that many lots
        # of the increment, plus lot 0, are listed; a day that lists one lot is not capped
        monkeypatch.setattr(allocate, "_MAX_LOTS", 100)
        optimize_day(ElectrolyzerUnit("at", Technology.AEL, 396.0, 0.5, 0.01), [fcr()],
                     PRICES, None)
        over = ElectrolyzerUnit("over", Technology.AEL, 400.0, 0.5, 0.01)
        with pytest.raises(TableError, match="gives 101 FCR lots of 1 MW in half its band above "
                                             "minimum load, more than the 100 a day"):
            optimize_day(over, [fcr()], PRICES, None)
        optimize_day(over, [fcr()], PRICES, None, AllocationOptions(pre_reserved_fcr_mw=1.0))
        optimize_day(over, [afrr()], None, 80.0)

    @pytest.mark.parametrize("unit, products, step", [
        # bid 132.4 MW at 264.999999998 MW, not 132.5 MW at 265 MW: floor(R / step + _EPS)
        # landed a step low
        (ElectrolyzerUnit("fine", Technology.AEL, 265.0, 0.5, 0.1),
         [BalancingProduct(ProductKind.AFRR, 1.0, 0.1, 300.0, 4.0, Direction.POS)], 2e-9),
        # validate_schedule rejected the allocator's own aFRR top of 57.9 MW
        (ElectrolyzerUnit("fine", Technology.AEL, 193.0, 0.1, 0.01),
         [BalancingProduct(ProductKind.FCR, 1.0, 0.1, 30.0, 4.0, Direction.SYM),
          BalancingProduct(ProductKind.AFRR, 1.0, 0.1, 300.0, 4.0, Direction.POS)], 1e-9),
    ])
    def test_a_grid_finer_than_floats_place_is_refused(self, unit, products, step):
        prices = flat_prices(30.0) if products[0].kind is ProductKind.FCR else None
        with pytest.raises(TableError, match=f"setpoint_grid_mw = {step:g} MW is too fine for "
                                             f"rated power {unit.rated_power_mw:g} MW") as info:
            optimize_day(unit, products, prices, 10.0, AllocationOptions(setpoint_grid_mw=step))
        assert info.value.key == "setpoint_grid_mw"

    def test_rated_power_may_span_2_to_the_22_steps(self):
        # 2^22 quarter-MW steps, exactly: the last setpoint is rated power itself
        edge = 2.0**22 * 0.25
        for rated in (edge, math.nextafter(edge, math.inf)):
            unit = ElectrolyzerUnit("edge", Technology.AEL, rated, 0.5, 0.1)
            options = AllocationOptions(setpoint_grid_mw=0.25)
            if rated == edge:
                result = optimize_day(unit, [afrr()], None, 80.0, options)
                assert {e.setpoint_mw for e in result.schedule.entries} == {rated}
            else:
                with pytest.raises(TableError, match=r"spans 4\.19e\+06 steps, more than"):
                    optimize_day(unit, [afrr()], None, 80.0, options)

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
        # (an infinite pin is refused by AllocationOptions)
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

    def test_a_pin_within_the_slack_of_the_top_is_carried(self):
        # 5 MW + 5e-10 MW lies within the 1e-9 MW slack of the 5 MW FCR top
        pin = 5.0 + 5e-10
        result = optimize_day(BIG_UNIT, [fcr()], PRICES, None,
                              options=AllocationOptions(pre_reserved_fcr_mw=pin))
        carried = [(e.quantity_mw, e.setpoint_mw) for e in result.schedule.entries]
        assert carried == [(pin, 95.0)] * 6


def test_trading_increments_must_nest():
    odd = BalancingProduct(ProductKind.AFRR, 1.0, 1.5, 300.0, 4.0, Direction.POS)
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

    @pytest.mark.parametrize("points, falls", [
        (((0.5, 25.0), (0.7, 20.0), (1.0, 60.0)), True),  # 20, 35 then 16.7 kg/h per MW
        (((0.2, 10.0), (1.0, 100.0)), True),  # one piece: 20 down to 10 kg/h per MW
        (((0.5, 25.0), (1.0, 50.0)), False),  # flat: 20 kg/h per MW from half load up
        (((0.6, 6.6), (1.0, 11.0)), False),  # flat, though 1 ulp lower at full load
    ])
    def test_hydrogen_value_needs_production_that_rises_with_load(self, points, falls):
        unit = ElectrolyzerUnit("h2", Technology.AEL, 100.0, 0.2, 0.05,
                                efficiency_curve=EfficiencyCurve(points))
        day = (unit, [fcr(), afrr()], PRICES, 30.0,
               AllocationOptions(hydrogen_value_eur_per_kg=0.1))
        optimize_day(*day[:4])  # without a hydrogen value the curve is not read
        if not falls:
            optimize_day(*day)
            return
        with pytest.raises(TableError, match="needs production that rises with load") as info:
            optimize_day(*day)
        assert (info.value.row, info.value.key) == (None, "hydrogen_value_eur_per_kg")

    def test_missing_curve_is_an_error(self):
        bare = ElectrolyzerUnit("bare", Technology.AEL, 10.0, 0.2, 0.05)
        with pytest.raises(ValueError, match="efficiency curve"):
            optimize_day(
                bare, [fcr()], flat_prices(10.0), None,
                options=AllocationOptions(hydrogen_value_eur_per_kg=0.1),
            )


class TestValidateSchedule:
    def afrr_entry(self, block, quantity, setpoint):
        return ScheduleEntry(block, afrr(), quantity, setpoint)

    def test_accepts_the_optimizer_output(self):
        result = optimize_day(BIG_UNIT, [fcr(), afrr()], PRICES, 80.0)
        validate_schedule(BIG_UNIT, result.schedule)  # no raise

    def test_headroom_is_not_double_counted(self):
        block = CANONICAL_BLOCKS[0]
        ok = BidSchedule((
            ScheduleEntry(block, fcr(), 5.0, 95.0),
            self.afrr_entry(block, 40.0, 95.0),
        ))
        # aFRR occupies [50, 90], directly below the FCR band [90, 100]
        validate_schedule(BIG_UNIT, ok)
        crowded = BidSchedule((
            ScheduleEntry(block, fcr(), 5.0, 95.0),
            self.afrr_entry(block, 41.0, 95.0),
        ))
        with pytest.raises(ValueError, match="headroom"):
            validate_schedule(BIG_UNIT, crowded)

    @pytest.mark.parametrize("direction, setpoint", [
        (Direction.POS, 95.0),  # FCR band [90, 100]; aFRR POS from 90 down to 50
        (Direction.NEG, 55.0),  # FCR band [50, 60]; aFRR NEG from 60 up to 100
    ])
    def test_one_sided_entries_start_at_the_fcr_band_edge_on_their_side(
        self, direction, setpoint
    ):
        block = CANONICAL_BLOCKS[0]
        for quantity, fits in ((40.0, True), (41.0, False)):
            schedule = BidSchedule((
                ScheduleEntry(block, fcr(), 5.0, setpoint),
                ScheduleEntry(block, afrr(direction), quantity, setpoint),
            ))
            if fits:
                validate_schedule(BIG_UNIT, schedule)
            else:
                with pytest.raises(ValueError, match=f"aFRR {direction.value} 41.0 MW fails headroom"):
                    validate_schedule(BIG_UNIT, schedule)

    def test_fcr_and_both_afrr_bands_touch_without_overlapping(self):
        block = CANONICAL_BLOCKS[0]
        # [50, 70] POS, [70, 80] FCR, [80, 100] NEG
        validate_schedule(BIG_UNIT, BidSchedule((
            ScheduleEntry(block, fcr(), 5.0, 75.0),
            ScheduleEntry(block, afrr(Direction.POS), 20.0, 75.0),
            ScheduleEntry(block, afrr(Direction.NEG), 20.0, 75.0),
        )))

    def test_the_product_direction_sets_the_side(self):
        block = CANONICAL_BLOCKS[0]
        # 10 MW below 95 MW fits; 10 MW above it would pass rated power
        validate_schedule(BIG_UNIT, BidSchedule((self.afrr_entry(block, 10.0, 95.0),)))
        upward = BidSchedule((ScheduleEntry(block, afrr(Direction.NEG), 10.0, 95.0),))
        with pytest.raises(ValueError, match="aFRR NEG 10.0 MW fails headroom"):
            validate_schedule(BIG_UNIT, upward)

    def test_rejects_duplicate_fcr_entries(self):
        block = CANONICAL_BLOCKS[0]
        schedule = BidSchedule((
            ScheduleEntry(block, fcr(), 2.0, 70.0),
            ScheduleEntry(block, fcr(), 3.0, 70.0),
        ))
        with pytest.raises(ValueError, match="more than one FCR"):
            validate_schedule(BIG_UNIT, schedule)

    def test_rejects_mixed_setpoints_in_a_block(self):
        block = CANONICAL_BLOCKS[0]
        schedule = BidSchedule((
            ScheduleEntry(block, fcr(), 2.0, 70.0),
            self.afrr_entry(block, 5.0, 80.0),
        ))
        with pytest.raises(ValueError, match="mixes setpoints"):
            validate_schedule(BIG_UNIT, schedule)

    def test_rejects_an_ineligible_entry(self):
        block = CANONICAL_BLOCKS[0]
        schedule = BidSchedule((
            # 20 MW FCR needs 20/0.167 = 120 s, way past the 30 s deadline
            ScheduleEntry(block, fcr(), 20.0, 75.0),
        ))
        with pytest.raises(ValueError, match="ramp_deadline"):
            validate_schedule(BIG_UNIT, schedule)

    def test_identical_failing_blocks_name_the_first(self):
        schedule = BidSchedule(tuple(
            ScheduleEntry(block, fcr(), 20.0, 75.0) for block in CANONICAL_BLOCKS
        ))
        with pytest.raises(ValueError, match="block NEGPOS_00_04: FCR 20.0 MW fails ramp_deadline"):
            validate_schedule(BIG_UNIT, schedule)

    # a 5 MW FCR band at 95 MW is valid; each variant breaks it in one field
    SLOW_FCR = BalancingProduct(ProductKind.FCR, 1.0, 1.0, 20.0, 4.0, Direction.SYM)

    @pytest.mark.parametrize("product, quantity, setpoint", [
        (fcr(), 6.0, 95.0),  # quantity: past the ramp deadline and the headroom
        (fcr(), 5.0, 97.0),  # setpoint: the band reaches above rated power
        (SLOW_FCR, 5.0, 95.0),  # product: 30 s of ramp against a 20 s deadline
    ])
    def test_a_block_differing_from_checked_ones_is_checked(self, product, quantity, setpoint):
        *same, last = CANONICAL_BLOCKS
        schedule = BidSchedule(
            tuple(ScheduleEntry(b, fcr(), 5.0, 95.0) for b in same)
            + (ScheduleEntry(last, product, quantity, setpoint),)
        )
        with pytest.raises(ValueError, match="block NEGPOS_20_24: FCR"):
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
    """Small plants, rated whole or not, with custom FCR and aFRR POS grids,
    cent prices and every option: free, pinned FCR, hydrogen value on rising
    or flat production, coarse setpoint grids."""
    rated = draw(st.integers(20, 100)) / 10
    u = draw(st.sampled_from([0.1, 0.2, 0.25, 0.4, 0.5]))
    ramp_up = draw(st.sampled_from([0.002, 0.005, 0.02, 0.05, 0.1]))
    ramp_down = draw(st.sampled_from([None, 0.005, 0.05]))
    fcr_prod = BalancingProduct(ProductKind.FCR, draw(st.integers(1, 3)),
                                draw(st.integers(1, 2)), 30.0, 4.0, Direction.SYM)
    afrr_prod = BalancingProduct(ProductKind.AFRR, draw(st.integers(1, 3)),
                                 draw(st.integers(1, 2)), 300.0, 4.0, Direction.POS)
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
        mid = (start + 1.0) / 2.0
        curve = EfficiencyCurve(draw(st.sampled_from([
            ((start, 48.0), (1.0, 55.0)),
            ((start, 52.0), (1.0, 55.0)),
            ((start, 50.0 * start), (1.0, 50.0)),  # production flat at every load
            ((start, 52.0), (mid, 50.0 * mid), (1.0, 50.0)),  # rising, then flat
        ])))
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
        BalancingProduct(ProductKind.FCR, *fcr_bid_grid, 30.0, 4.0, Direction.SYM),
        BalancingProduct(ProductKind.AFRR, *afrr_bid_grid, 300.0, 4.0, Direction.POS),
        [fcr_price] * 6, afrr_price, AllocationOptions(setpoint_grid_mw=setpoint),
    )


# The min-bid kink.  At 11 MW the 16 MW plant has 7.8 MW below the setpoint
# and 5 MW above it; aFRR trades from 4 MW (3 MW minimum, 2 MW grid).
# 3 MW FCR leaves 4.8 MW, i.e. 4 MW aFRR: 261 euro beats 1 MW FCR with
# 6 MW aFRR (255) and 5 MW FCR alone (195).
MIN_BID_KINK = _one_setpoint_day(16.0, 0.2, 0.02, None, (1.0, 1.0), (3.0, 2.0),
                                 39.0, 36.0, 11.0)
# the last FCR lot of the aFRR step reached from the lowest FCR lot
LOWEST_LOT_KINK = _one_setpoint_day(28.0, 0.2, 0.1, 0.01, (2.0, 1.0), (2.0, 2.0),
                                    59.0, 73.0, 21.25)
# the last FCR lot of the aFRR step above the one at the highest FCR lot
STEP_ABOVE_KINK = _one_setpoint_day(27.0, 0.2, 0.02, 0.01, (1.0, 1.0), (1.0, 2.0),
                                    47.0, 37.0, 22.5)
# the FCR lot just past the aFRR ramp reach, on a coarser FCR grid
RAMP_REACH_KINK = _one_setpoint_day(110.0, 0.1, 0.0025, None, (2.0, 2.0), (1.0, 1.0),
                                    70.0, 100.0, 96.5)


UNIT_GRID = BalancingProduct(ProductKind.FCR, 1.0, 1.0, 30.0, 4.0, Direction.SYM)
UNIT_GRID_AFRR = BalancingProduct(ProductKind.AFRR, 1.0, 1.0, 300.0, 4.0, Direction.POS)
FLAT_CURVE = EfficiencyCurve(((0.2, 50.0), (1.0, 50.0)))  # 80 kg per MW and 4 h block
# R lies 1.6e-9 MW below 10 MW: within _EPS of a 2 MW step, so the grid ends at 10 MW, but
# past SLACK_MW, so 10 MW is out of band; the one lot, 0, sits at 8 MW and carries aFRR
TOP_PAST_SLACK = _day(ElectrolyzerUnit("out", Technology.AEL, 10.0 - 1.6e-9, 0.1, 0.1),
                      UNIT_GRID, UNIT_GRID_AFRR, [10.0] * 6, 10.0,
                      AllocationOptions(setpoint_grid_mw=2.0), "afrr")


@settings(max_examples=150, deadline=None)
@given(day=allocation_days())
@example(day=MIN_BID_KINK)
# tie rule, level by level.  Setpoint: 1 MW FCR scores 30 euro at every
# setpoint from 3 to 9 MW; 9 MW wins.
@example(day=_day(ElectrolyzerUnit("tie", Technology.AEL, 10.0, 0.2, 0.005), UNIT_GRID,
                  UNIT_GRID_AFRR, [30.0] * 6, 0.0, AllocationOptions(), "fcr"))
# reserved: 2 MW FCR and 1 MW FCR + 2 MW aFRR both score 80 euro; 2 MW wins
@example(day=_one_setpoint_day(10.0, 0.5, 0.02, None, (1.0, 1.0), (2.0, 1.0),
                               40.0, 20.0, 8.0))
# FCR: 0 + 3, 1 + 2 and 2 + 1 MW all score 90 euro on 3 MW; no FCR wins
@example(day=_one_setpoint_day(10.0, 0.5, 0.02, None, (1.0, 1.0), (1.0, 1.0),
                               30.0, 30.0, 8.0))
# hydrogen: 1 MW FCR at 29 MW earns its 8 euro of forgone hydrogen plus
# 1e-12, so it outscores 12 MW aFRR alone at 30 MW by less than the tie slack;
# the less reserved 30 MW wins
@example(day=_day(ElectrolyzerUnit("h2tie", Technology.AEL, 30.0, 0.2, 0.05, 0.0014,
                                   efficiency_curve=FLAT_CURVE),
                  UNIT_GRID, UNIT_GRID_AFRR, [8.0 + 1e-12] * 6, 30.0,
                  AllocationOptions(hydrogen_value_eur_per_kg=0.1)))
@example(day=LOWEST_LOT_KINK)
@example(day=STEP_ABOVE_KINK)
@example(day=RAMP_REACH_KINK)
@example(day=TOP_PAST_SLACK)
def test_optimizer_matches_the_brute_force_oracle(day):
    fast = optimize_day(*day)
    slow = brute_force_oracle(*day)
    assert fast.schedule.entries == slow.schedule.entries
    assert fast.objective_eur == pytest.approx(slow.objective_eur, rel=1e-12, abs=1e-9)


LOTS = st.sampled_from([0.5, 1.0, 2.0])


@st.composite
def table_days(draw):
    """Plants of 2-40 MW, rated on a 0.1 MW grid or anywhere, whose FCR and
    aFRR POS trade in 0.5, 1 or 2 MW lots: free, pinned, FCR-only and
    aFRR-only, on 0.01-2 MW setpoint grids."""
    unit = ElectrolyzerUnit(
        "table", Technology.AEL,
        draw(st.one_of(st.integers(20, 400).map(lambda n: n / 10), st.floats(2.0, 40.0))),
        draw(st.sampled_from([0.1, 0.2, 0.4, 0.5])),
        draw(st.sampled_from([0.002, 0.005, 0.02, 0.1])),
        draw(st.sampled_from([None, 0.005, 0.05])),
    )
    min_bids = st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0])
    fcr_prod = BalancingProduct(ProductKind.FCR, draw(min_bids), draw(LOTS), 30.0, 4.0,
                                Direction.SYM)
    afrr_prod = BalancingProduct(ProductKind.AFRR, draw(min_bids), draw(LOTS), 300.0, 4.0,
                                 Direction.POS)
    mode = draw(st.sampled_from(["free", "pinned", "fcr", "afrr"]))
    pinned = None
    if mode == "pinned":
        inc = fcr_prod.trade_increment_mw
        pinned = draw(st.sampled_from(
            [0.0] + [k * inc for k in range(1, 9) if k * inc >= fcr_prod.min_bid_mw]))
    options = AllocationOptions(pre_reserved_fcr_mw=pinned, setpoint_grid_mw=draw(
        st.sampled_from([0.01, 0.1, 0.25, 0.3, 0.5, 1.0, 2.0])))
    offered = mode if mode in ("fcr", "afrr") else "both"
    return _day(unit, fcr_prod, afrr_prod, [10.0] * 6, 10.0, options, offered)


# R - 2 MW lies 1.5e-9 MW below the 8 MW setpoint: within _EPS of a 2 MW step, but past
# SLACK_MW, so the 2 MW pin does not fit at 8 MW and sits at 6 MW
PIN_PAST_SLACK = _day(ElectrolyzerUnit("edge", Technology.AEL, 10.0 - 1.5e-9, 0.1, 0.1),
                      UNIT_GRID, UNIT_GRID_AFRR, [10.0] * 6, 10.0,
                      AllocationOptions(pre_reserved_fcr_mw=2.0, setpoint_grid_mw=2.0))
# R lies 5e-10 MW below 10 MW: within SLACK_MW, but past _EPS of a 0.1 MW step, so the
# grid ends at 9.9 MW and the one lot, 0, sits there
TOP_PAST_EPS = _day(ElectrolyzerUnit("top", Technology.AEL, 10.0 - 5e-10, 0.1, 0.1),
                    UNIT_GRID, UNIT_GRID_AFRR, [10.0] * 6, 10.0,
                    AllocationOptions(setpoint_grid_mw=0.1), "afrr")


@settings(max_examples=200, deadline=None)
@given(day=table_days())
@example(day=MIN_BID_KINK)
@example(day=LOWEST_LOT_KINK)
@example(day=STEP_ABOVE_KINK)
@example(day=RAMP_REACH_KINK)
@example(day=PIN_PAST_SLACK)
@example(day=TOP_PAST_EPS)
@example(day=TOP_PAST_SLACK)
def test_each_lot_sits_at_the_highest_setpoint_that_holds_it(day):
    unit, products, _, _, options = day
    fcr_prod, afrr_prod = _split_products(products)
    pinned = options.pre_reserved_fcr_mw
    lo, step = unit.min_power_mw, options.setpoint_grid_mw
    setpoints = np.arange(math.ceil(lo / step - 1e-9),
                          math.floor(unit.rated_power_mw / step + 1e-9) + 1) * step
    setpoints = setpoints[setpoints <= unit.rated_power_mw + 1e-9]  # in the operating band

    def top(product, sp):
        return 0.0 if product is None else tradable_scalar(
            capacity_limit_scalar(unit, product, sp), product)

    fcr_tops = [top(fcr_prod, sp) for sp in setpoints.tolist()]
    lots = [0.0] if pinned is None else [pinned]
    if pinned is None and fcr_prod is not None:
        inc, k = fcr_prod.trade_increment_mw, 1
        while k * inc <= max(fcr_tops, default=0.0) + 1e-9:
            if k * inc >= fcr_prod.min_bid_mw - 1e-9:
                lots.append(k * inc)
            k += 1
    expected = []
    for lot in lots:  # the last setpoint whose FCR top holds the lot, by a scan of the grid
        hosts = [sp for sp, held in zip(setpoints.tolist(), fcr_tops) if lot <= held + 1e-9]
        if hosts:
            afrr_top = top(afrr_prod, hosts[-1] - lot)
            expected += [(hosts[-1], lot, 0.0)] + [(hosts[-1], lot, afrr_top)] * (afrr_top > 0.0)
    got = _day_table(unit, fcr_prod, afrr_prod, pinned, lo, step)
    np.testing.assert_array_equal(np.array(got), np.array(expected).reshape(-1, 3).T)
    # so the first candidate is also the highest, and _pick needs no setpoint key
    assert (np.diff(got[0]) <= 0.0).all()


# jittered by half the tie tolerance, so ties at every stage of the rule are common;
# the score's is _EPS x (row max + full value), at least 0.25e-9 from any jitter step
TIE_PRONE = st.builds(lambda v, j: v + j * _EPS / 2, st.sampled_from([0.0, 1.0, 2.0]),
                      st.sampled_from([-1, 0, 1]))


@st.composite
def pick_matrices(draw):
    """(score, reserved, q_fcr, setpoint) as blocks x candidates matrices,
    sometimes with a first row where every candidate ties on every key.
    Setpoints never increase along a row, as in ``_day_table``."""
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 8)))
    values = st.lists(TIE_PRONE, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1])
    arrays = [np.reshape(draw(values), shape) for _ in range(4)]
    arrays[3] = -np.sort(-arrays[3], axis=-1)
    if draw(st.booleans()):
        for a in arrays:
            a[0] = a[0, 0]
    return arrays


# one column the best of every row (no tie left to break), the same with a
# second column within _EPS in one row, and a single row
ONE_WINNER = np.array([[0.0, 2.0, 1.0], [1.0, 3.0, 0.0]])
NEAR_WINNER = ONE_WINNER + [[0.0, 0.0, 1.0 - _EPS / 2], [0.0, 0.0, 0.0]]
FEWER_RESERVED = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]])


@settings(max_examples=300, deadline=None)
@given(arrays=pick_matrices(), full_value=st.sampled_from([0.25, 1.5]))
@example(arrays=[np.zeros((6, 5))] * 4, full_value=0.25)
@example(arrays=[ONE_WINNER, FEWER_RESERVED, np.zeros((2, 3)), np.zeros((2, 3))], full_value=1.5)
@example(arrays=[NEAR_WINNER, FEWER_RESERVED, np.zeros((2, 3)), np.zeros((2, 3))], full_value=1.5)
@example(arrays=[ONE_WINNER[:1], FEWER_RESERVED[:1], np.zeros((1, 3)), np.zeros((1, 3))],
         full_value=1.5)
def test_pick_applies_the_row_tie_rule_to_every_row(arrays, full_value):
    score, reserved, q_fcr, setpoint = arrays
    rows = [pick_row(*(a[r] for a in arrays), full_value) for r in range(len(score))]
    assert _pick(score, reserved, q_fcr, full_value).tolist() == rows
    assert _pick(score[0], reserved[0], q_fcr[0], full_value) == rows[0]
    # as optimize_day calls it: per-candidate keys shared by every block
    shared = [pick_row(s, reserved[0], q_fcr[0], setpoint[0], full_value) for s in score]
    assert _pick(score, reserved[0], q_fcr[0], full_value).tolist() == shared


@st.composite
def large_days(draw):
    """100 MW to 2 GW plants on 0.25-2 MW setpoint grids and 1-12 GW plants
    on grids of 10 MW or coarser, rated whole or not, with the shipped FCR
    and aFRR POS products: free, pinned FCR or hydrogen-valued on a curve
    whose production rises or ends flat; at most 1,000 setpoints, so that
    the loop stays quick."""
    if draw(st.booleans()):
        rated, grids = draw(st.integers(1000, 20000)) / 10, (0.25, 0.5, 1.0, 2.0)
    else:
        rated = draw(st.integers(1000, 12000)) + draw(st.sampled_from([0.0, 0.3, 0.75]))
        grids = (10.0, 20.0, 50.0)
    u = draw(st.sampled_from([0.1, 0.2, 0.4, 0.5]))
    ramp_up = draw(st.sampled_from([0.000167, 0.001, 0.005, 0.01]))
    ramp_down = draw(st.sampled_from([None, 0.0005, 0.002]))
    grid = draw(st.sampled_from([g for g in grids if rated * (1 - u) / g <= 1000]))
    block_prices = draw(st.lists(CENTS, min_size=6, max_size=6))
    afrr_price = draw(st.one_of(CENTS, st.sampled_from(block_prices)))
    mode = draw(st.sampled_from(["free", "pinned", "hydrogen"]))
    curve = None
    options = AllocationOptions(setpoint_grid_mw=grid)
    if mode == "pinned":
        pin = draw(st.integers(0, 40 if rated < 1000 else 4000))
        options = AllocationOptions(pre_reserved_fcr_mw=float(pin), setpoint_grid_mw=grid)
    elif mode == "hydrogen":
        # (0.7, 35) to (1.0, 50) makes 20 kg/h per MW at both ends: flat production
        upper = draw(st.sampled_from([((0.7, 50.0), (1.0, 55.0)), ((0.7, 35.0), (1.0, 50.0))]))
        curve = EfficiencyCurve(((u, draw(st.sampled_from([48.0, 52.0]))), *upper))
        options = AllocationOptions(
            hydrogen_value_eur_per_kg=draw(st.sampled_from([0.0, 0.5, 2.0, 5.0])),
            setpoint_grid_mw=grid)
    unit = ElectrolyzerUnit("large", Technology.AEL, rated, u, ramp_up, ramp_down,
                            efficiency_curve=curve)
    return _day(unit, fcr(), afrr(), block_prices, afrr_price, options)


# production flat from load 0.7 up: the forgone hydrogen differs between setpoints by
# rounding alone, in steps of about 6e-10 euro at 5 euro/kg, more than 1e-9 euro across
# the upper grid; the tie slack of about 5e-3 euro, scaled to the block, holds them all
FLAT_TOP_DAY = _day(
    ElectrolyzerUnit("flat", Technology.AEL, 11999.0, 0.1, 0.000167,
                     efficiency_curve=EfficiencyCurve(((0.1, 48.0), (0.7, 35.0), (1.0, 50.0)))),
    fcr(), afrr(), [0.0] * 5 + [0.01], 0.0,
    AllocationOptions(hydrogen_value_eur_per_kg=5.0, setpoint_grid_mw=20.0))


@settings(max_examples=20, deadline=None)
@given(day=large_days())
@example(day=FLAT_TOP_DAY)
def test_optimizer_matches_the_setpoint_loop_on_large_days(day):
    fast = optimize_day(*day)
    slow = optimize_day_loop(*day)
    assert fast.schedule.entries == slow.schedule.entries
    assert fast.objective_eur == slow.objective_eur
    assert fast.hydrogen_loss_kg == slow.hydrogen_loss_kg
