"""Product definitions, auction blocks and price containers."""

from __future__ import annotations

import math
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from elybal import model
from elybal.markets import (
    CANONICAL_BLOCKS,
    BalancingProduct,
    CapacityPriceTable,
    Direction,
    ProductKind,
    SpotPriceSeries,
    TableError,
    afrr,
    apply_grid_fee,
    avg_price_below_threshold,
    day_capacity_price_sum,
    fcr,
    mfrr,
    normalize_block_label,
    product_from_name,
    required_gradient,
)

# the capacity auction day used throughout the README examples
PRICES_2024_07_25 = {
    "NEGPOS_00_04": 14.71,
    "NEGPOS_04_08": 21.92,
    "NEGPOS_08_12": 62.00,
    "NEGPOS_12_16": 78.00,
    "NEGPOS_16_20": 51.00,
    "NEGPOS_20_24": 36.00,
}


class TestProductDefinitions:
    def test_fcr_is_symmetric_30s(self):
        p = fcr()
        assert p.kind is ProductKind.FCR
        assert p.direction is Direction.SYM
        assert p.availability_s == 30.0
        assert p.min_bid_mw == 1.0
        assert p.trade_increment_mw == 1.0
        assert p.duration_h == 4.0

    def test_afrr_is_directional_300s(self):
        p = afrr(Direction.POS)
        assert p.direction is Direction.POS
        assert p.availability_s == 300.0
        assert p.label == "aFRR POS"

    def test_mfrr_is_directional_750s(self):
        p = mfrr(Direction.NEG)
        assert p.availability_s == 750.0
        assert p.label == "mFRR NEG"

    def test_direction_sym_reserved_for_symmetric(self):
        with pytest.raises(ValueError, match="no aFRR SYM product: FCR is SYM") as exc:
            BalancingProduct(ProductKind.AFRR, 1.0, 1.0, 300.0, 4.0, Direction.SYM)
        assert exc.value.key == "direction"
        with pytest.raises(ValueError, match="no FCR POS product: FCR is SYM"):
            BalancingProduct(ProductKind.FCR, 1.0, 1.0, 30.0, 4.0, Direction.POS)
        with pytest.raises(ValueError, match="no mFRR SYM product"):
            BalancingProduct(ProductKind.MFRR, 1.0, 1.0, 750.0, 4.0, Direction.SYM)

    def test_the_fault_type_is_the_models(self):
        assert TableError is model.TableError

    def test_which_side_of_the_setpoint_each_direction_moves_the_load(self):
        # POS sheds load, NEG absorbs power, SYM does both
        assert (Direction.SYM.lowers_load, Direction.SYM.raises_load) == (True, True)
        assert (Direction.POS.lowers_load, Direction.POS.raises_load) == (True, False)
        assert (Direction.NEG.lowers_load, Direction.NEG.raises_load) == (False, True)
        # the band a 2 MW activation moves the load through, from 5 MW and from
        # [5, 1] MW, and the bound that binds, of (4, 1) and of ([1, 4], [4, 1])
        origins = np.array([5.0, 1.0])
        below, above = np.array([1.0, 4.0]), np.array([4.0, 1.0])
        for d, band, bands, bound, bounds in (
            (Direction.SYM, (3.0, 7.0), ([3.0, -1.0], [7.0, 3.0]), 1.0, [1.0, 1.0]),
            (Direction.POS, (3.0, 5.0), ([3.0, -1.0], [5.0, 1.0]), 4.0, [1.0, 4.0]),
            (Direction.NEG, (5.0, 7.0), ([5.0, 1.0], [7.0, 3.0]), 1.0, [4.0, 1.0]),
        ):
            assert d.band(5.0, 2.0) == band
            assert all(type(end) is float for end in d.band(5.0, 2.0))
            np.testing.assert_array_equal(d.band(origins, 2.0), bands)
            assert d.binding(lambda: 4.0, lambda: 1.0) == bound
            assert type(d.binding(lambda: 4.0, lambda: 1.0)) is float
            np.testing.assert_array_equal(d.binding(lambda: below, lambda: above), bounds)
        # the side the load does not move to is never evaluated
        assert Direction.POS.binding(lambda: 4.0, lambda: 1 / 0) == 4.0
        assert Direction.NEG.binding(lambda: 1 / 0, lambda: 1.0) == 1.0

    def test_plain_strings_coerce_to_enums(self):
        # the enums mix in str, so "POS" == Direction.POS; construction must
        # normalize to the enum member or identity checks downstream misfire
        p = afrr("POS")
        assert p.direction is Direction.POS
        assert p.label == "aFRR POS"
        q = BalancingProduct("mFRR", 1.0, 1.0, 750.0, 4.0, "NEG")
        assert q.kind is ProductKind.MFRR and q.direction is Direction.NEG
        assert afrr("NEG") == afrr(Direction.NEG)

    @pytest.mark.parametrize("bad", ["up", "pos", "sym", ""])
    def test_invalid_direction_strings_rejected(self, bad):
        with pytest.raises(ValueError, match="not a valid Direction"):
            afrr(bad)

    def test_string_direction_cannot_dodge_symmetry_rule(self):
        with pytest.raises(ValueError, match="FCR is SYM"):
            BalancingProduct(ProductKind.FCR, 1.0, 1.0, 30.0, 4.0, "POS")

    @pytest.mark.parametrize(
        "name,kind,direction",
        [
            ("fcr", ProductKind.FCR, Direction.SYM),
            ("FCR", ProductKind.FCR, Direction.SYM),
            ("afrr-pos", ProductKind.AFRR, Direction.POS),
            ("afrr", ProductKind.AFRR, Direction.POS),  # bare name defaults to POS
            ("mfrr-neg", ProductKind.MFRR, Direction.NEG),
        ],
    )
    def test_product_from_name(self, name, kind, direction):
        p = product_from_name(name)
        assert p.kind is kind and p.direction is direction

    def test_product_from_name_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown product"):
            product_from_name("fcr-neg")

    def test_required_gradient_per_trading_slice(self):
        # 1 MW within the deadline: 33.3 kW/s, 3.3 kW/s, 1.3 kW/s
        assert required_gradient(fcr()) == pytest.approx(1.0 / 30.0)
        assert required_gradient(afrr()) == pytest.approx(1.0 / 300.0)
        assert required_gradient(mfrr()) == pytest.approx(1.0 / 750.0)


class TestBlocks:
    def test_six_canonical_blocks(self):
        assert len(CANONICAL_BLOCKS) == 6
        assert CANONICAL_BLOCKS[0].label == "NEGPOS_00_04"
        assert CANONICAL_BLOCKS[-1].label == "NEGPOS_20_24"
        assert all(b.end_hour - b.start_hour == 4 for b in CANONICAL_BLOCKS)

    @pytest.mark.parametrize(
        "raw", ["NEGPOS_08_12", "08-12", "neg_pos_8_12", "block 8 to 12"]
    )
    def test_label_normalization_accepts_variants(self, raw):
        assert normalize_block_label(raw) == "NEGPOS_08_12"

    @pytest.mark.parametrize("raw", ["NEGPOS_01_05", "morning", "8", "NEGPOS_08_16"])
    def test_label_normalization_rejects_off_grid(self, raw):
        with pytest.raises(ValueError):
            normalize_block_label(raw)


class TestCapacityPriceTable:
    def test_day_sum_is_exact(self):
        table = CapacityPriceTable(PRICES_2024_07_25)
        # this sum happens to be float-exact; the revenue tests rely on it
        assert day_capacity_price_sum(table) == 263.63

    def test_blocks_reordered_canonically(self):
        scrambled = dict(reversed(list(PRICES_2024_07_25.items())))
        table = CapacityPriceTable(scrambled)
        assert list(table.prices) == [b.label for b in CANONICAL_BLOCKS]

    def test_price_lookup_normalizes(self):
        table = CapacityPriceTable(PRICES_2024_07_25)
        assert table.price("12-16") == 78.00
        with pytest.raises(ValueError):
            CapacityPriceTable({"NEGPOS_00_04": 1.0}).price("04-08")

    def test_rejects_duplicates_and_negative(self):
        with pytest.raises(ValueError, match="duplicate"):
            CapacityPriceTable({"00-04": 1.0, "NEGPOS_00_04": 2.0})
        with pytest.raises(ValueError, match="negative"):
            CapacityPriceTable({"NEGPOS_00_04": -0.01})

    def test_rows_with_a_repeated_raw_label_are_refused(self):
        # a dict would merge the two rows; rows in file order keep both
        rows = [("NEGPOS_00_04", 1.0), ("NEGPOS_00_04", 1.0)]
        with pytest.raises(TableError, match="duplicate price for block NEGPOS_00_04") as exc:
            CapacityPriceTable(rows)
        assert (exc.value.row, exc.value.key) == (1, "block")

    def test_rows_and_mapping_build_the_same_table(self):
        rows = CapacityPriceTable(list(reversed(PRICES_2024_07_25.items())))
        assert rows == CapacityPriceTable(PRICES_2024_07_25)
        assert list(rows.prices.items()) == list(PRICES_2024_07_25.items())

    @pytest.mark.parametrize("price", [float("nan"), float("inf")])
    def test_rejects_non_finite_price(self, price):
        # the CSV loader rejects these; a table built in Python must too
        with pytest.raises(ValueError, match="non-finite"):
            CapacityPriceTable({b.label: price for b in CANONICAL_BLOCKS})

    def test_day_sum_requires_all_blocks(self):
        with pytest.raises(ValueError, match="NEGPOS_04_08"):
            day_capacity_price_sum(CapacityPriceTable({"00-04": 5.0}))

    def test_a_missing_block_is_a_fault_of_the_whole_table(self):
        with pytest.raises(TableError, match="missing blocks") as exc:
            CapacityPriceTable({"00-04": 5.0})
        assert (exc.value.row, exc.value.key) == (None, "block")

    @given(st.floats(min_value=0.0, max_value=1000.0, allow_nan=False))
    def test_day_sum_scales_linearly(self, scale):
        base = CapacityPriceTable(PRICES_2024_07_25)
        scaled = CapacityPriceTable(
            {k: v * scale for k, v in PRICES_2024_07_25.items()}
        )
        assert day_capacity_price_sum(scaled) == pytest.approx(
            scale * day_capacity_price_sum(base), rel=1e-9, abs=1e-9
        )


def hourly_series(prices):
    t0 = datetime(2024, 7, 25)
    return SpotPriceSeries(
        tuple((t0 + timedelta(hours=i), p) for i, p in enumerate(prices))
    )


class TestSpotPrices:
    def test_timestamps_must_increase(self):
        t0 = datetime(2024, 7, 25)
        with pytest.raises(ValueError):
            SpotPriceSeries(((t0, 10.0), (t0, 12.0)))

    def test_timestamps_with_and_without_offset_are_a_value_error(self):
        offset = datetime.fromisoformat("2024-07-25T01:00+01:00")
        with pytest.raises(ValueError, match="with and without a UTC offset"):
            SpotPriceSeries(((datetime(2024, 7, 25), 10.0), (offset, 12.0)))

    def test_iso_text_reads_as_its_datetime(self):
        text = SpotPriceSeries((("2024-07-25T00:00:00", 10.0), ("2024-07-25T01:00:00", 12.0)))
        assert text == hourly_series([10.0, 12.0])

    def test_faults_name_row_and_column(self):
        with pytest.raises(TableError, match="invalid ISO timestamp 'noon'") as exc:
            SpotPriceSeries(((datetime(2024, 7, 25), 10.0), ("noon", 12.0)))
        assert (exc.value.row, exc.value.key) == (1, "timestamp")

    @pytest.mark.parametrize("prices, row", [
        ([-math.inf, 40.0, math.nan], 0),  # averaged as (-inf, 2) if kept
        ([40.0, math.nan], 1),
        ([40.0, 41.0, math.inf], 2),
    ])
    def test_rejects_non_finite_price(self, prices, row):
        # the CSV loader reads finite cells only; a series built in Python must check too
        with pytest.raises(TableError, match="non-finite spot price") as exc:
            hourly_series(prices)
        assert (exc.value.row, exc.value.key) == (row, "price_eur_per_mwh")

    def test_avg_below_threshold_is_strict(self):
        series = hourly_series([10.0, 50.0, 50.0, 90.0])
        avg, n = avg_price_below_threshold(series, 50.0)
        assert (avg, n) == (10.0, 1)  # 50.0 itself excluded

    def test_avg_below_threshold_mean(self):
        series = hourly_series([10.0, 20.0, 90.0])
        avg, n = avg_price_below_threshold(series, 60.0)
        assert avg == pytest.approx(15.0)
        assert n == 2

    def test_no_qualifying_hours_is_a_fault_of_the_threshold(self):
        series = hourly_series([80.0, 90.0])
        with pytest.raises(TableError, match="no samples below 50.0") as exc:
            avg_price_below_threshold(series, 50.0)
        assert (exc.value.row, exc.value.key) == (None, "spot_threshold_eur_per_mwh")

    def test_empty_series_raises(self):
        with pytest.raises(TableError, match="spot price series is empty") as exc:
            avg_price_below_threshold(SpotPriceSeries(()), 50.0)
        assert (exc.value.row, exc.value.key) == (None, "spot_csv")


def test_grid_fee_is_proportional():
    assert apply_grid_fee(50.0, 0.30) == pytest.approx(65.0)
    assert apply_grid_fee(50.0, 0.0) == 50.0
    with pytest.raises(ValueError):
        apply_grid_fee(50.0, -0.1)


def test_grid_fee_rejects_nan():
    with pytest.raises(ValueError, match="fee_fraction"):
        apply_grid_fee(50.0, math.nan)
