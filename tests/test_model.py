"""Tests for units, fleets and the partial-load efficiency curve."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from elybal.model import (
    EfficiencyCurve,
    ElectrolyzerUnit,
    Fleet,
    Technology,
    aggregate,
    specific_energy_at,
)
from elybal.scenario_io import PRESETS

# AEL-flavored curve: specific energy rises toward full load
CURVE = EfficiencyCurve(((0.25, 49.0), (0.5, 50.5), (1.0, 54.0)))


def make_unit(**overrides) -> ElectrolyzerUnit:
    params = dict(
        name="unit",
        technology=Technology.AEL,
        rated_power_mw=10.0,
        min_load_fraction=0.25,
        ramp_up=0.0061,
    )
    params.update(overrides)
    return ElectrolyzerUnit(**params)


class TestEfficiencyCurve:
    def test_needs_two_breakpoints(self):
        with pytest.raises(ValueError):
            EfficiencyCurve(((0.5, 50.0),))

    def test_breakpoints_must_increase(self):
        with pytest.raises(ValueError):
            EfficiencyCurve(((0.5, 50.0), (0.5, 51.0)))
        with pytest.raises(ValueError):
            EfficiencyCurve(((0.8, 50.0), (0.5, 51.0)))

    def test_energies_must_be_positive(self):
        with pytest.raises(ValueError):
            EfficiencyCurve(((0.25, 49.0), (1.0, -1.0)))

    def test_domain(self):
        assert CURVE.domain == (0.25, 1.0)

    def test_exact_breakpoints_returned_verbatim(self):
        assert specific_energy_at(CURVE, 0.25) == 49.0
        assert specific_energy_at(CURVE, 0.5) == 50.5
        assert specific_energy_at(CURVE, 1.0) == 54.0

    def test_midpoint_interpolation(self):
        # halfway between (0.5, 50.5) and (1.0, 54.0)
        assert specific_energy_at(CURVE, 0.75) == pytest.approx(52.25)

    def test_no_extrapolation(self):
        with pytest.raises(ValueError):
            specific_energy_at(CURVE, 0.1)
        with pytest.raises(ValueError):
            specific_energy_at(CURVE, 1.2)

    @given(st.floats(min_value=0.25, max_value=1.0, allow_nan=False))
    def test_interpolation_stays_within_segment_bounds(self, f):
        value = specific_energy_at(CURVE, f)
        assert 49.0 <= value <= 54.0


class TestElectrolyzerUnit:
    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            make_unit(rated_power_mw=0.0)

    @pytest.mark.parametrize("u", [0.0, 1.0, -0.2, 1.5])
    def test_min_load_fraction_is_open_interval(self, u):
        with pytest.raises(ValueError):
            make_unit(min_load_fraction=u)

    def test_rejects_nonpositive_ramp(self):
        with pytest.raises(ValueError):
            make_unit(ramp_up=0.0)
        with pytest.raises(ValueError):
            make_unit(ramp_down=-0.01)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["rated_power_mw", "ramp_up", "ramp_down"])
    def test_rejects_non_finite_power_and_ramps(self, field, value):
        with pytest.raises(ValueError, match=rf"{field} must be in \(0, inf\), got {value}"):
            make_unit(**{field: value})

    def test_ramp_down_defaults_to_ramp_up(self):
        unit = make_unit(ramp_up=0.0061)
        assert unit.ramp_down == 0.0061

    def test_asymmetric_ramps_kept(self):
        unit = make_unit(ramp_up=0.01, ramp_down=0.02)
        assert unit.ramp_up_mw_per_s == pytest.approx(0.1)
        assert unit.ramp_down_mw_per_s == pytest.approx(0.2)

    def test_derived_quantities(self):
        unit = make_unit(rated_power_mw=4.0, min_load_fraction=0.25, ramp_up=0.0061)
        assert unit.min_power_mw == 1.0
        assert unit.ramp_up_mw_per_s == pytest.approx(0.0244)

    @pytest.mark.parametrize("setpoint", [2.5 - 1e-9, 2.5, 10.0, 10.0 + 1e-9])
    def test_setpoint_band_holds_its_edges_with_slack(self, setpoint):
        make_unit().check_setpoint(setpoint)

    @pytest.mark.parametrize("setpoint", [2.5 - 1e-6, 10.0 + 1e-6, math.nan, -math.inf])
    def test_setpoint_outside_the_band_is_named(self, setpoint):
        with pytest.raises(ValueError) as exc:
            make_unit().check_setpoint(setpoint)
        assert str(exc.value) == f"setpoint {setpoint} MW outside operating band [2.5, 10.0] MW"
        assert (exc.value.row, exc.value.key) == (None, "setpoint_mw")  # a TableError

    def test_curve_must_cover_only_the_operating_band(self):
        # breakpoints starting below the minimum load are rejected
        low = EfficiencyCurve(((0.1, 48.0), (1.0, 54.0)))
        with pytest.raises(ValueError, match="efficiency breakpoints must lie within") as exc:
            make_unit(min_load_fraction=0.25, efficiency_curve=low)
        assert exc.value.key == "efficiency_points"
        make_unit(min_load_fraction=0.25, efficiency_curve=CURVE)  # fits


def test_fleet_sums_capacity_and_ramps():
    a = make_unit(name="a", rated_power_mw=10.0, min_load_fraction=0.25, ramp_up=0.0061)
    b = make_unit(name="b", rated_power_mw=16.0, min_load_fraction=0.10, ramp_up=0.05)
    fleet = Fleet((a, b))
    assert fleet.rated_power_mw == 26.0
    assert fleet.min_power_mw == pytest.approx(2.5 + 1.6)
    assert fleet.ramp_up_mw_per_s == pytest.approx(0.061 + 0.8)


def test_aggregate_empty_fleet_errors():
    with pytest.raises(ValueError):
        aggregate(Fleet(()))


def test_aggregate_power_weights_the_fractions():
    a = make_unit(name="a", rated_power_mw=10.0, min_load_fraction=0.25, ramp_up=0.0061)
    b = make_unit(name="b", rated_power_mw=16.0, min_load_fraction=0.10, ramp_up=0.05)
    agg = aggregate(Fleet((a, b)))
    assert agg.rated_power_mw == 26.0
    # absolute quantities are conserved exactly
    assert agg.min_power_mw == pytest.approx(4.1)
    assert agg.ramp_up_mw_per_s == pytest.approx(0.861)
    # fractions are the power-weighted means
    assert agg.min_load_fraction == pytest.approx((2.5 + 1.6) / 26.0)
    assert agg.efficiency_curve is None


def test_aggregate_dominant_technology_by_capacity():
    small_pem = make_unit(name="p", technology=Technology.PEM, rated_power_mw=2.0)
    big_ael = make_unit(name="a", technology=Technology.AEL, rated_power_mw=20.0)
    assert aggregate(Fleet((small_pem, big_ael))).technology is Technology.AEL


@given(
    n=st.integers(min_value=1, max_value=8),
    power=st.floats(min_value=0.5, max_value=50.0, allow_nan=False),
    u=st.floats(min_value=0.05, max_value=0.9, allow_nan=False),
    ramp=st.floats(min_value=1e-4, max_value=0.2, allow_nan=False),
)
def test_homogeneous_fleet_aggregates_to_scaled_unit(n, power, u, ramp):
    """n identical units pool into one unit with the same per-unit fractions."""
    unit = make_unit(rated_power_mw=power, min_load_fraction=u, ramp_up=ramp)
    agg = aggregate(Fleet(tuple(unit for _ in range(n))))
    assert agg.rated_power_mw == pytest.approx(n * power, rel=1e-12)
    assert agg.min_load_fraction == pytest.approx(u, rel=1e-9)
    assert agg.ramp_up == pytest.approx(ramp, rel=1e-9)


def test_fleet_counts_are_whole_and_one_per_unit():
    a, b = make_unit(name="a"), make_unit(name="b")
    assert Fleet((a, b)).counts == (1, 1)
    for counts in ((1,), (1, 0), (2, 1.5), (1, 2, 3)):
        with pytest.raises(ValueError, match="one whole count >= 1 per unit"):
            Fleet((a, b), counts)


_MEMBER = st.tuples(
    st.builds(
        make_unit,
        technology=st.sampled_from(Technology),
        rated_power_mw=st.floats(min_value=0.5, max_value=50.0),
        min_load_fraction=st.floats(min_value=0.01, max_value=0.9),
        ramp_up=st.floats(min_value=1e-4, max_value=0.2),
        ramp_down=st.floats(min_value=1e-4, max_value=0.2),
    ),
    st.integers(min_value=1, max_value=2000),
)


@settings(deadline=None)  # the 100,000-copy example sums 100,000 terms per field
@given(members=st.lists(_MEMBER, min_size=1, max_size=3))
@example(members=[(make_unit(), 1)])
@example(members=[(make_unit(rated_power_mw=2.0, ramp_up=0.1), 100_000)])
@example(members=[(PRESETS["sunfire-ael"].to_unit(), 550), (PRESETS["questone"].to_unit(), 450)])
@example(members=[(PRESETS[k].to_unit(), 1) for k in ("enapter", "elyzer", "sunfire-soec")])
def test_count_weighted_fleet_matches_the_expanded_fleet(members):
    """A member of count n aggregates like n copies of its unit.

    Rated power, min power and both ramp rates agree within 1e-12 relative
    with the copies summed exactly (``math.fsum``), and are bit-identical
    to the expanded fleet's aggregate when every count is 1.  The expanded
    fleet's own sequential sums are no reference at large n: they drift
    by up to n·2⁻⁵³ relative (2e-12 at 100,000 copies of 0.2 MW/s).
    Name and technology are those of the expanded fleet; the technology
    up to capacities tied within that tolerance.
    """
    units, counts = zip(*members)
    weighted = aggregate(Fleet(units, counts))
    copies = tuple(u for u, n in members for _ in range(n))
    expanded = aggregate(Fleet(copies))
    if set(counts) == {1}:
        assert weighted == expanded
    for name in ("rated_power_mw", "min_power_mw", "ramp_up_mw_per_s", "ramp_down_mw_per_s"):
        exact = math.fsum(getattr(u, name) for u in copies)
        assert getattr(weighted, name) == pytest.approx(exact, rel=1e-12)
    assert weighted.name == expanded.name
    share = {t: math.fsum(u.rated_power_mw for u in copies if u.technology is t)
             for t in (weighted.technology, expanded.technology)}
    assert math.isclose(share[weighted.technology], share[expanded.technology], rel_tol=1e-12)
