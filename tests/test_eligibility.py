"""Market admission rules and the capacity/ramp decoupling relation."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from elybal.eligibility import (
    DURATION,
    GRANULARITY,
    HEADROOM,
    MIN_BID,
    RAMP_DEADLINE,
    Eq1Inputs,
    capacity_limit_mw,
    check_eligibility,
    default_setpoint,
    eq1_gradient,
    eq1_min_ramp,
    max_offerable,
    min_rated_power,
    time_to_deliver,
    tradable_mw,
)
from elybal.markets import BalancingProduct, Direction, ProductKind, afrr, fcr, mfrr
from elybal.model import ElectrolyzerUnit, Technology
from oracles import max_offerable_scan

# the 4 MW demonstration-scale alkaline unit used in the worked examples
DEMO_UNIT = ElectrolyzerUnit(
    name="demo", technology=Technology.AEL, rated_power_mw=4.0,
    min_load_fraction=0.25, ramp_up=0.0061,
)


class TestDecouplingRelation:
    def test_gradient_hand_computed(self):
        # flexible band 100*(1-0.5)=50 MW at 1 %/s, split over 100 slices
        inputs = Eq1Inputs(p_el_mw=100.0, u=0.5, delta_el=0.01, p_anc_mw=100.0, p_ts_mw=1.0)
        assert eq1_gradient(inputs) == pytest.approx(0.005)

    def test_gradient_scales_with_fewer_slices(self):
        a = Eq1Inputs(100.0, 0.5, 0.01, 100.0, 1.0)
        b = Eq1Inputs(100.0, 0.5, 0.01, 100.0, 2.0)  # 2 MW slices: half as many
        assert eq1_gradient(b) == pytest.approx(2 * eq1_gradient(a))

    def test_min_ramp_inverts_gradient(self):
        grad = eq1_gradient(Eq1Inputs(9000.0, 0.56, 0.00085858585858585859, 2000.0, 2.0))
        back = eq1_min_ramp(9000.0, 0.56, 2000.0, 2.0, grad)
        assert back == pytest.approx(0.00085858585858585859, rel=1e-12)

    @given(
        p_el=st.floats(min_value=1.0, max_value=50000.0),
        u=st.floats(min_value=0.0, max_value=0.95),
        delta=st.floats(min_value=1e-5, max_value=0.5),
        p_anc=st.floats(min_value=1.0, max_value=10000.0),
        p_ts=st.floats(min_value=0.5, max_value=10.0),
    )
    def test_round_trip_identity(self, p_el, u, delta, p_anc, p_ts):
        grad = eq1_gradient(Eq1Inputs(p_el, u, delta, p_anc, p_ts))
        assert eq1_min_ramp(p_el, u, p_anc, p_ts, grad) == pytest.approx(delta, rel=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            Eq1Inputs(0.0, 0.5, 0.01, 100.0, 1.0)
        with pytest.raises(ValueError):
            Eq1Inputs(100.0, 1.0, 0.01, 100.0, 1.0)  # u=1 leaves no band
        with pytest.raises(ValueError):
            eq1_min_ramp(100.0, 0.5, 100.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            eq1_min_ramp(100.0, 1.2, 100.0, 1.0, 0.01)

    def test_min_rated_power_closes_the_loop(self):
        # the returned plant ramps exactly the capacity within the deadline
        rated = min_rated_power(1.0, 0.0061, 30.0)
        assert rated * 0.0061 * 30.0 == pytest.approx(1.0, rel=1e-12)

    def test_min_rated_power_validation(self):
        with pytest.raises(ValueError):
            min_rated_power(0.0, 0.01, 30.0)
        with pytest.raises(ValueError):
            min_rated_power(1.0, -0.01, 30.0)


def test_time_to_deliver():
    assert time_to_deliver(DEMO_UNIT, 0.0, "up") == 0.0
    # 0.0244 MW/s -> 1 MW takes 40.98... s
    assert time_to_deliver(DEMO_UNIT, 1.0, "up") == pytest.approx(40.9836, abs=1e-3)
    with pytest.raises(ValueError):
        time_to_deliver(DEMO_UNIT, -1.0, "up")


class TestCheckEligibility:
    def test_constraints_reported_in_rule_order(self):
        report = check_eligibility(DEMO_UNIT, afrr(), 1.0, 3.0)
        assert [c.name for c in report.constraints] == [
            MIN_BID, GRANULARITY, HEADROOM, RAMP_DEADLINE, DURATION,
        ]

    def test_slow_unit_fails_fcr_on_the_ramp(self):
        report = check_eligibility(DEMO_UNIT, fcr(), 1.0, 3.0)
        assert not report.eligible
        assert report.limiting_constraint == RAMP_DEADLINE
        ramp = report.constraint(RAMP_DEADLINE)
        assert ramp.actual == pytest.approx(40.9836, abs=5e-3)
        assert ramp.required == 30.0
        assert ramp.margin < 0
        # headroom itself was fine at this operating point
        assert report.constraint(HEADROOM).passed

    def test_same_unit_carries_afrr(self):
        report = check_eligibility(DEMO_UNIT, afrr(), 1.0, 3.0)
        assert report.eligible
        assert report.limiting_constraint is None
        assert report.constraint(RAMP_DEADLINE).margin == pytest.approx(300 - 40.9836, abs=5e-3)

    def test_mfrr_even_easier(self):
        assert check_eligibility(DEMO_UNIT, mfrr(), 1.0, 3.0).eligible

    def test_min_bid_is_the_first_gate(self):
        report = check_eligibility(DEMO_UNIT, afrr(), 0.5, 3.0)
        assert not report.eligible
        assert report.limiting_constraint == MIN_BID

    def test_off_grid_bid_fails_granularity(self):
        report = check_eligibility(DEMO_UNIT, afrr(), 1.5, 3.0)
        assert not report.eligible
        assert report.limiting_constraint == GRANULARITY

    def test_pos_reserve_needs_room_below_the_setpoint(self):
        # POS = load decrease; at 1.5 MW the unit is only 0.5 MW above minimum
        report = check_eligibility(DEMO_UNIT, afrr(Direction.POS), 1.0, 1.5)
        assert report.limiting_constraint == HEADROOM
        assert report.constraint(HEADROOM).actual == pytest.approx(0.5)

    def test_neg_reserve_needs_room_above_the_setpoint(self):
        report = check_eligibility(DEMO_UNIT, afrr(Direction.NEG), 1.0, 3.5)
        assert report.limiting_constraint == HEADROOM
        ok = check_eligibility(DEMO_UNIT, afrr(Direction.NEG), 1.0, 3.0)
        assert ok.eligible

    def test_duration_follows_headroom(self):
        report = check_eligibility(DEMO_UNIT, afrr(Direction.POS), 1.0, 1.5)
        assert not report.constraint(DURATION).passed
        report = check_eligibility(DEMO_UNIT, afrr(Direction.POS), 1.0, 3.0)
        assert report.constraint(DURATION).passed

    def test_landing_exactly_on_the_deadline_qualifies(self):
        # 0.1 MW/s, 3 MW move: 30 s on the nose
        unit = ElectrolyzerUnit("edge", Technology.PEM, 10.0, 0.1, 0.01)
        report = check_eligibility(unit, fcr(), 3.0, 5.0)
        assert report.eligible
        assert report.constraint(RAMP_DEADLINE).margin == pytest.approx(0.0, abs=1e-9)

    def test_symmetric_product_paced_by_the_slower_ramp(self):
        unit = ElectrolyzerUnit("asym", Technology.PEM, 10.0, 0.1, ramp_up=0.1, ramp_down=0.001)
        report = check_eligibility(unit, fcr(), 1.0, 5.0)
        # down leg: 1 / 0.01 MW/s = 100 s
        assert report.constraint(RAMP_DEADLINE).actual == pytest.approx(100.0)
        assert not report.eligible

    def test_directional_products_use_their_own_ramp(self):
        # ramp-down delivers 1 MW in 333 s, past the 300 s aFRR deadline
        unit = ElectrolyzerUnit("asym", Technology.PEM, 10.0, 0.1, ramp_up=0.1, ramp_down=0.0003)
        # POS leans on ramp-down (slow): fails. NEG on ramp-up (fast): passes.
        assert not check_eligibility(unit, afrr(Direction.POS), 1.0, 5.0).eligible
        assert check_eligibility(unit, afrr(Direction.NEG), 1.0, 5.0).eligible

    def test_setpoint_outside_band_rejected(self):
        with pytest.raises(ValueError):
            check_eligibility(DEMO_UNIT, afrr(), 1.0, 0.5)
        with pytest.raises(ValueError):
            check_eligibility(DEMO_UNIT, afrr(), 1.0, 4.5)

    def test_nonpositive_bid_rejected(self):
        with pytest.raises(ValueError):
            check_eligibility(DEMO_UNIT, afrr(), 0.0, 3.0)

    def test_report_round_trips_to_dict(self):
        report = check_eligibility(DEMO_UNIT, fcr(), 1.0, 3.0)
        d = report.to_dict()
        assert d["product"] == "FCR"
        assert d["eligible"] is False
        assert d["limiting_constraint"] == RAMP_DEADLINE
        assert len(d["constraints"]) == 5
        with pytest.raises(KeyError):
            report.constraint("no_such_rule")


class TestSetpointSelection:
    def test_symmetric_default_is_the_rounded_midpoint(self):
        # band [1, 4] -> midpoint 2.5, rounded half-up on the 1 MW grid
        assert default_setpoint(DEMO_UNIT, fcr()) == 3.0

    def test_one_sided_defaults_park_at_the_band_edges(self):
        assert default_setpoint(DEMO_UNIT, afrr(Direction.POS)) == 4.0
        assert default_setpoint(DEMO_UNIT, afrr(Direction.NEG)) == 1.0

    def test_midpoint_clamped_into_the_band(self):
        narrow = ElectrolyzerUnit("n", Technology.AEL, 1.5, 0.8, 0.05)
        sp = default_setpoint(narrow, fcr())
        assert narrow.min_power_mw <= sp <= narrow.rated_power_mw


class TestMaxOfferable:
    def test_afrr_at_full_load_is_headroom_limited(self):
        bid, sp = max_offerable(DEMO_UNIT, afrr(Direction.POS), setpoint_mw=4.0)
        assert (bid, sp) == (3.0, 4.0)

    def test_fcr_impossible_for_the_slow_unit(self):
        bid, sp = max_offerable(DEMO_UNIT, fcr(), setpoint_mw=3.0)
        assert bid == 0.0
        assert sp == 3.0

    def test_free_setpoint_moves_to_the_pos_edge(self):
        bid, sp = max_offerable(DEMO_UNIT, afrr(Direction.POS))
        assert (bid, sp) == (3.0, 4.0)

    def test_string_built_product_behaves_like_enum_built(self):
        # regression: "POS" used to slip past the Direction identity checks
        # and land the bid in the NEG headroom window
        unit = ElectrolyzerUnit("plant", Technology.PEM, 100.0, 0.1, 0.01)
        assert max_offerable(unit, afrr("POS")) == (90.0, 100.0)
        assert max_offerable(unit, afrr("POS")) == max_offerable(unit, afrr(Direction.POS))

    def test_fast_unit_fcr_limited_by_symmetric_headroom(self):
        # 16 MW at 5 %/s: ramp allows 24 MW in 30 s, the band [1.6, 16] does not
        unit = ElectrolyzerUnit("fast", Technology.AEL, 16.0, 0.1, 0.05)
        bid, sp = max_offerable(unit, fcr())
        assert bid == 7.0
        assert sp == 9.0

    def test_result_is_maximal(self):
        """One more lot must be ineligible everywhere, not just at the chosen point."""
        unit = ElectrolyzerUnit("fast", Technology.AEL, 16.0, 0.1, 0.05)
        product = fcr()
        bid, sp = max_offerable(unit, product)
        assert check_eligibility(unit, product, bid, sp).eligible
        bigger = bid + product.trade_increment_mw
        grid = [unit.min_power_mw + 0.1 * k for k in range(int(16 / 0.1))]
        for candidate in grid:
            if candidate > unit.rated_power_mw:
                break
            try:
                report = check_eligibility(unit, product, bigger, candidate)
            except ValueError:
                continue
            assert not report.eligible


class TestCapacityLimit:
    # 100 MW, 50 % minimum load, 0.167 MW/s both ways
    UNIT = ElectrolyzerUnit("big", Technology.AEL, 100.0, 0.5, 0.00167)

    def test_symmetric_limit_is_the_narrower_side_or_the_ramp(self):
        assert capacity_limit_mw(self.UNIT, fcr(), 97.0) == pytest.approx(3.0)
        # 0.167 MW/s for 30 s caps FCR at 5.01 MW mid-band
        assert capacity_limit_mw(self.UNIT, fcr(), 75.0) == pytest.approx(5.01)

    def test_one_sided_limits_look_down_for_pos_and_up_for_neg(self):
        assert capacity_limit_mw(self.UNIT, afrr(Direction.POS), 90.0) == pytest.approx(40.0)
        assert capacity_limit_mw(self.UNIT, afrr(Direction.NEG), 90.0) == pytest.approx(10.0)

    def test_no_capacity_outside_the_operating_band(self):
        assert capacity_limit_mw(self.UNIT, afrr(Direction.POS), 101.0) == 0.0
        assert capacity_limit_mw(self.UNIT, afrr(Direction.NEG), 49.0) == 0.0

    def test_tradable_bid_is_on_the_grid_and_at_least_the_minimum(self):
        assert tradable_mw(5.01, fcr()) == 5.0
        assert tradable_mw(0.9, fcr()) == 0.0
        coarse = BalancingProduct(ProductKind.AFRR, 3.0, 2.0, 300.0, False, 4.0, Direction.POS)
        assert tradable_mw(5.9, coarse) == 4.0
        assert tradable_mw(3.5, coarse) == 0.0


PRODUCTS = (fcr(), afrr(Direction.POS), afrr(Direction.NEG), mfrr(Direction.POS),
            mfrr(Direction.NEG))


@st.composite
def offer_cases(draw):
    """Plants of 1-300 MW, every product, and a free, in-band or
    out-of-band setpoint."""
    rated = draw(st.integers(2, 600)) / 2
    u = draw(st.integers(5, 90)) / 100
    ramp_up = draw(st.integers(5, 2000)) / 10000
    ramp_down = draw(st.one_of(st.none(), st.integers(5, 2000).map(lambda k: k / 10000)))
    unit = ElectrolyzerUnit("offer", Technology.PEM, rated, u, ramp_up, ramp_down)
    low = unit.min_power_mw
    setpoint = draw(st.one_of(
        st.none(),
        st.integers(0, 100).map(lambda k: low + (rated - low) * k / 100),
        st.sampled_from([low - 0.5, rated + 1.0]),
    ))
    return unit, draw(st.sampled_from(PRODUCTS)), setpoint


@settings(max_examples=200, deadline=None)
@given(case=offer_cases())
# 9 MW of ramp reach, less 5e-10 MW: the grid rounds it to 9 MW, but 9 MW
# takes 1.7e-8 s too long, so the check has the last word and 8 MW remain
@example(case=(ElectrolyzerUnit("edge", Technology.AEL, 100.0, 0.1, (9 - 5e-10) / 30000),
               afrr(Direction.NEG), None))
def test_max_offerable_matches_the_descending_scan(case):
    assert max_offerable(*case) == max_offerable_scan(*case)
