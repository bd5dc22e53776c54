"""The one range rule: ``model.in_range`` and ``model.check_range``, and every
library guard that applies it to a number it is given."""

from __future__ import annotations

import math
import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from elybal.allocate import AllocationOptions, optimize_day
from elybal.dispatch import ActivationSignal, PowerTrajectory, SignalKind, simulate
from elybal.economics import (
    afrr_day_capacity_revenue,
    electricity_cost,
    fcr_day_revenue,
    fleet_coverage,
    round_to_sig_figs,
    savings_ratio,
)
from elybal.eligibility import (
    Eq1Inputs,
    check_eligibility,
    eq1_min_ramp,
    max_offerable,
    min_rated_power,
)
from elybal.markets import (
    CANONICAL_BLOCKS,
    BalancingProduct,
    CapacityPriceTable,
    TimeBlock,
    afrr,
    apply_grid_fee,
    fcr,
)
from elybal.model import (
    EfficiencyCurve,
    ElectrolyzerUnit,
    TableError,
    Technology,
    check_range,
    in_range,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "elybal"
POS = "(0, inf)"
NON_NEG = "[0, inf)"
ANY = "(-inf, inf)"
UNIT = ElectrolyzerUnit("plant", Technology.PEM, 10.0, 0.1, 0.01)
PRICES = CapacityPriceTable({b.label: 10.0 for b in CANONICAL_BLOCKS})


def curve(energy: float) -> EfficiencyCurve:
    return EfficiencyCurve(((0.5, energy), (1.0, 54.0)))


def block(start_hour: float) -> TimeBlock:
    return TimeBlock("block", start_hour, start_hour + 4)


def guards(fn, valid: dict, **intervals: str) -> list:
    """One row per guarded parameter of ``fn``: called with ``valid`` and
    that parameter replaced, it must hold the parameter to its interval."""
    return [pytest.param(fn, valid, name, interval, name, id=f"{fn.__name__}-{name}")
            for name, interval in intervals.items()]


# Every one-number range guard of the library.  Before the guards shared
# ``check_range``, 47 of the (row, NaN/+inf/-inf) cases passed silently:
# NaN and +inf at the four positive inputs of Eq1Inputs and of eq1_min_ramp,
# the three of min_rated_power, the four BalancingProduct fields, the curve
# energies, fcr_day_revenue and afrr_day_capacity_revenue, and savings_ratio's
# cost; +inf at electricity_cost, fleet_coverage and apply_grid_fee.
GUARDS = [
    *guards(Eq1Inputs, dict(p_el_mw=100.0, u=0.1, delta_el=0.01, p_anc_mw=600.0, p_ts_mw=1.0),
            p_el_mw=POS, u="[0, 1)", delta_el=POS, p_anc_mw=POS, p_ts_mw=POS),
    *guards(eq1_min_ramp, dict(p_el_mw=100.0, u=0.1, p_anc_mw=600.0, p_ts_mw=1.0,
                               required_mw_per_s=0.03),
            p_el_mw=POS, u="[0, 1)", p_anc_mw=POS, p_ts_mw=POS, required_mw_per_s=POS),
    *guards(min_rated_power, dict(per_direction_capacity_mw=5.0, delta_el=0.01,
                                  availability_s=30.0),
            per_direction_capacity_mw=POS, delta_el=POS, availability_s=POS),
    *guards(BalancingProduct, dict(kind="FCR", min_bid_mw=1.0, trade_increment_mw=1.0,
                                   availability_s=30.0, duration_h=4.0, direction="SYM"),
            min_bid_mw=POS, trade_increment_mw=POS, availability_s=POS, duration_h=POS),
    pytest.param(curve, {}, "energy", POS, "specific energy (kWh/kg) at load fraction 0.5",
                 id="EfficiencyCurve-energy"),
    *guards(fcr_day_revenue, dict(bid_mw=5.0, prices=PRICES), bid_mw=NON_NEG),
    *guards(afrr_day_capacity_revenue, dict(quantity_mw=40.0, hours=24.0,
                                            price_eur_per_mw_h=20.0),
            quantity_mw=NON_NEG, hours=NON_NEG, price_eur_per_mw_h=NON_NEG),
    *guards(electricity_cost, dict(setpoint_mw=95.0, hours=24.0, price_eur_per_mwh=65.0),
            setpoint_mw=NON_NEG, hours=NON_NEG, price_eur_per_mwh=ANY),
    *guards(fleet_coverage, dict(required_reserve_mw=573.0, fleet_power_mw=10000.0,
                                 symmetric=True),
            required_reserve_mw=NON_NEG, fleet_power_mw=POS),
    *guards(apply_grid_fee, dict(price_eur_per_mwh=50.0, fee_fraction=0.2),
            price_eur_per_mwh=ANY, fee_fraction=NON_NEG),
    *guards(savings_ratio, dict(fcr_revenue_eur=1.0, afrr_revenue_eur=1.0,
                                electricity_cost_eur=100.0),
            fcr_revenue_eur=ANY, afrr_revenue_eur=ANY, electricity_cost_eur=POS),
    *guards(round_to_sig_figs, dict(value=148200.0, figures=2), value=ANY),
    *guards(ElectrolyzerUnit, dict(name="plant", technology=Technology.PEM, rated_power_mw=10.0,
                                   min_load_fraction=0.1, ramp_up=0.01, ramp_down=0.01),
            min_load_fraction="(0, 1)", rated_power_mw=POS, ramp_up=POS, ramp_down=POS),
    pytest.param(block, {}, "start_hour", "[0, 24)", "start_hour", id="TimeBlock-start_hour"),
    *guards(ActivationSignal, dict(kind=SignalKind.SETPOINT_REQUEST, values=(0.0, 1.0)),
            timestep_s=POS),
    *guards(PowerTrajectory, dict(powers_mw=(5.0, 5.0), unit=UNIT), timestep_s=POS),
    *guards(simulate, dict(unit=UNIT, setpoint_mw=5.0, bid_mw=1.0,
                           signal=ActivationSignal(SignalKind.FREQUENCY_DEVIATION, (0.1, 0.1))),
            bid_mw=NON_NEG),
    *guards(check_eligibility, dict(unit=UNIT, product=fcr(), bid_mw=1.0, setpoint_mw=5.0),
            bid_mw=POS),
    *guards(max_offerable, dict(unit=UNIT, product=fcr()), setpoint_mw=ANY),
    *guards(AllocationOptions, {}, hydrogen_value_eur_per_kg=NON_NEG,
            pre_reserved_fcr_mw=NON_NEG, setpoint_grid_mw=POS),
    *guards(optimize_day, dict(unit=UNIT, products=(afrr(),), fcr_prices=None,
                               afrr_price_per_block_eur=80.0),
            afrr_price_per_block_eur=NON_NEG),
]


def refused(named: str, interval: str, value: float):
    message = f"{named} must be in {interval}, got {value}"
    return pytest.raises(ValueError, match=f"^{re.escape(message)}$")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("fn, valid, param, interval, named", GUARDS)
def test_a_non_finite_input_is_refused_naming_it(fn, valid, param, interval, named, value):
    with refused(named, interval, value):
        fn(**{**valid, param: value})


@pytest.mark.parametrize("fn, valid, param, interval, named", GUARDS)
def test_a_closed_end_is_accepted_and_an_open_end_refused(fn, valid, param, interval, named):
    lo, hi = interval[1:-1].split(", ")
    for end, closed in ((lo, interval[0] == "["), (hi, interval[-1] == "]")):
        if math.isinf(value := float(end)):
            continue
        if closed:
            fn(**{**valid, param: value})
        else:
            with refused(named, interval, value):
                fn(**{**valid, param: value})


def test_the_message_names_the_input_its_interval_and_its_value():
    with pytest.raises(ValueError, match=r"^hours must be in \(0, 24\], got 25$"):
        check_range("hours", 25, "(0, 24]")
    check_range("hours", 24, "(0, 24]")


def test_the_fault_is_keyed_by_the_name_unless_a_key_is_given():
    with pytest.raises(TableError) as exc:
        check_range("hours", 25, "(0, 24]")
    assert (exc.value.reason, exc.value.row, exc.value.key) == (
        "hours must be in (0, 24], got 25", None, "hours")
    with pytest.raises(TableError, match="^afrr_price_per_block_eur must be") as exc:
        check_range("afrr_price_per_block_eur", math.inf, "[0, inf)", "afrr_price_eur_per_mw_h")
    assert exc.value.key == "afrr_price_eur_per_mw_h"


# in_range held to comparisons written out by hand, one per interval the
# library writes
BY_HAND = {
    "(0, inf)": lambda x: 0 < x < math.inf,
    "[0, inf)": lambda x: 0 <= x < math.inf,
    "(-inf, inf)": lambda x: -math.inf < x < math.inf,
    "(0, 1)": lambda x: 0 < x < 1,
    "[0, 1)": lambda x: 0 <= x < 1,
    "(0, 100)": lambda x: 0 < x < 100,
    "[0, 24)": lambda x: 0 <= x < 24,
    "(0, 24]": lambda x: 0 < x <= 24,
    "[1, 100000]": lambda x: 1 <= x <= 100000,
}
ENDS = [x for interval in BY_HAND for end in interval[1:-1].split(", ")
        for x in (float(end), math.nextafter(float(end), -math.inf),
                  math.nextafter(float(end), math.inf))]


def test_every_interval_the_library_writes_is_held_by_hand():
    interval = re.compile(r'"([(\[]-?\w+, -?\w+[)\]])"')
    written = {m for path in SRC.glob("*.py")
               for m in interval.findall(path.read_text(encoding="utf-8"))}
    assert written == set(BY_HAND)


@given(st.sampled_from(sorted(BY_HAND)), st.one_of(st.floats(), st.sampled_from(ENDS)))
def test_in_range_is_the_comparisons_written_out(interval, value):
    assert in_range(value, interval) is BY_HAND[interval](value)
