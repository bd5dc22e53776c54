"""Scenario grammar, preset catalog, CSV loaders and report emitters."""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import os
import re
import threading
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from elybal import allocate, scenario_io
from elybal.cli import main
from elybal.dispatch import PowerTrajectory, SignalKind
from elybal.markets import (
    CapacityPriceTable,
    Direction,
    ProductKind,
    SpotPriceSeries,
    product_from_name,
)
from elybal.model import ElectrolyzerUnit, Fleet, Technology
from elybal.scenario_io import (
    _SCHEMA,
    PRESETS,
    Scenario,
    ScenarioError,
    emit_report,
    load_capacity_prices,
    load_scenario,
    load_signal,
    load_spot_prices,
    preset,
    write_trajectory_csv,
)
from oracles import load_signal_rows

REPO_SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def write(tmp_path: Path, name: str, text: str) -> Path:
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


PRICES_CSV = """block,price_eur_per_mw
NEGPOS_00_04,14.71
NEGPOS_04_08,21.92
NEGPOS_08_12,62.00
NEGPOS_12_16,78.00
NEGPOS_16_20,51.00
NEGPOS_20_24,36.00
"""

SIGNAL_CSV = "time_s,value\n" + "\n".join(
    f"{t},-1" for t in range(0, 5)
) + "\n"


class TestPresetCatalog:
    def test_eleven_catalog_units(self):
        assert len(PRESETS) == 11

    def test_datasheet_values_kept_verbatim(self):
        entry = preset("sunfire-ael")
        assert entry.power_mw == 10.0
        assert entry.range_min_pct == 25.0
        assert entry.ramp_pct_per_s == 0.61
        assert entry.technology is Technology.AEL
        assert not entry.estimated

    def test_estimated_ramps_flagged(self):
        assert preset("ecolyzer").estimated
        assert preset("thyssenkrupp").estimated
        assert preset("questone").estimated
        assert not preset("mcphy").estimated

    def test_overload_range_not_modeled(self):
        entry = preset("trina")
        assert entry.range_max_pct == 110.0
        unit = entry.to_unit()
        # the short-time overload band is cut off at rated power
        assert unit.rated_power_mw == 15.0
        assert unit.min_load_fraction == pytest.approx(0.30)

    def test_to_unit_converts_percent_to_fractions(self):
        unit = preset("demo4grid").to_unit()
        assert unit.rated_power_mw == 4.0
        assert unit.ramp_up == pytest.approx(0.0061)
        assert unit.ramp_down == unit.ramp_up

    def test_unknown_preset(self):
        with pytest.raises(ScenarioError, match="unknown preset"):
            preset("not-a-unit")


class TestScenarioParsing:
    def full_scenario(self, tmp_path: Path) -> Path:
        write(tmp_path, "prices.csv", PRICES_CSV)
        write(tmp_path, "signal.csv", SIGNAL_CSV)
        return write(tmp_path, "full.scenario", """
# reference plant with everything switched on
[scenario]
name = full-run

[unit]
name = plant
technology = AEL
rated_power_mw = 100
min_load_pct = 50
ramp_up_pct_per_s = 0.167
efficiency_points = 50:50.5, 100:54

[product]
kind = fcr

[product]
kind = afrr
direction = pos

[prices]
fcr_capacity_csv = prices.csv
afrr_price_eur_per_mw_h = 20

[dispatch]
setpoint_mw = 95
bid_mw = 5
product = fcr

[signal]
kind = setpoint
csv = signal.csv

[allocate]
pre_reserved_fcr_mw = 5

[economics]
setpoint_mw = 95
electricity_price_eur_per_mwh = 50
grid_fee_pct = 30
fcr_bid_mw = 5
afrr_quantity_mw = 40

[output]
formats = json, csv
""")

    def test_full_scenario_materializes(self, tmp_path):
        scenario = load_scenario(self.full_scenario(tmp_path))
        assert scenario.name == "full-run"
        unit = scenario.primary_unit()
        assert unit.rated_power_mw == 100.0
        assert unit.min_load_fraction == 0.5
        assert unit.ramp_up == pytest.approx(0.00167)
        assert unit.efficiency_curve.breakpoints == ((0.5, 50.5), (1.0, 54.0))
        assert [p.kind for p in scenario.products] == [ProductKind.FCR, ProductKind.AFRR]
        assert scenario.products[1].direction is Direction.POS
        # the aFRR price stays per MW and hour, as written (80 euro per 4 h block)
        assert scenario.afrr_price_eur_per_mw_h == 20.0
        assert scenario.fcr_prices.price("00-04") == 14.71
        assert scenario.dispatch.setpoint_mw == 95.0
        assert scenario.dispatch.product == scenario.products[0]
        assert scenario.signal.kind is SignalKind.SETPOINT_REQUEST
        assert scenario.allocate_options.pre_reserved_fcr_mw == 5.0
        assert scenario.economics.grid_fee_pct == 30.0
        assert scenario.output_formats == ("json", "csv")

    def test_unit_count_weighs_one_unit(self, tmp_path):
        path = write(tmp_path, "fleet.scenario", """
[unit]
preset = sunfire-ael
count = 3
""")
        scenario = load_scenario(path)
        assert scenario.fleet.counts == (3,)
        assert [u.name for u in scenario.fleet.units] == ["Sunfire AEL"]
        assert scenario.primary_unit().rated_power_mw == 30.0
        assert scenario.primary_unit().name == "aggregate(3 units, 30 MW)"

    def test_largest_count_holds_one_unit_object(self, tmp_path):
        path = write(tmp_path, "fleet.scenario", "[unit]\npreset = neptun-itm\ncount = 100000\n")
        scenario = load_scenario(path)
        assert len(scenario.fleet.units) == 1
        assert scenario.fleet.counts == (100000,)
        assert scenario.primary_unit().rated_power_mw == 200000.0

    def test_preset_fields_can_be_overridden(self, tmp_path):
        path = write(tmp_path, "override.scenario", """
[unit]
preset = sunfire-ael
rated_power_mw = 20
""")
        unit = load_scenario(path).primary_unit()
        assert unit.rated_power_mw == 20.0
        assert unit.min_load_fraction == 0.25  # from the preset

    def test_name_defaults_to_the_file_stem(self, tmp_path):
        path = write(tmp_path, "stem_name.scenario", "[unit]\npreset = mcphy\n")
        assert load_scenario(path).name == "stem_name"

    # ---- error reporting: every message carries the offending location

    def test_key_outside_section(self, tmp_path):
        path = write(tmp_path, "bad.scenario", "name = x\n")
        with pytest.raises(ScenarioError, match="line 1") as exc:
            load_scenario(path)
        assert exc.value.line == 1

    def test_missing_equals_sign(self, tmp_path):
        path = write(tmp_path, "bad.scenario", "[scenario]\njust words\n")
        with pytest.raises(ScenarioError, match="key = value"):
            load_scenario(path)

    def test_unknown_section(self, tmp_path):
        path = write(tmp_path, "bad.scenario", "[plant]\nx = 1\n")
        with pytest.raises(ScenarioError, match=r"unknown section \[plant\]"):
            load_scenario(path)

    def test_unknown_key_named_with_line(self, tmp_path):
        path = write(tmp_path, "bad.scenario", "[unit]\npreset = mcphy\nrampp = 5\n")
        with pytest.raises(ScenarioError, match="line 3") as exc:
            load_scenario(path)
        assert exc.value.key == "rampp"

    def test_non_numeric_value(self, tmp_path):
        path = write(tmp_path, "bad.scenario",
                     "[unit]\npreset = mcphy\nrated_power_mw = big\n")
        with pytest.raises(ScenarioError, match="expected a number"):
            load_scenario(path)
        for value in ("nan", "inf", "-inf"):
            path = write(tmp_path, "bad.scenario",
                         f"[unit]\npreset = mcphy\nrated_power_mw = {value}\n")
            with pytest.raises(ScenarioError, match="expected a finite number") as exc:
                load_scenario(path)
            assert (exc.value.key, exc.value.line) == ("rated_power_mw", 3)

    def test_min_load_bounds_enforced_at_the_boundary(self, tmp_path):
        path = write(tmp_path, "bad.scenario", """
[unit]
technology = AEL
rated_power_mw = 10
min_load_pct = 100
ramp_up_pct_per_s = 1
""")
        with pytest.raises(ScenarioError, match=r"min_load_pct must be in \(0, 100\)") as exc:
            load_scenario(path)
        assert exc.value.key == "min_load_pct"
        assert exc.value.line == 5

    def test_unit_without_preset_needs_all_fields(self, tmp_path):
        path = write(tmp_path, "bad.scenario", "[unit]\ntechnology = AEL\n")
        with pytest.raises(ScenarioError, match="rated_power_mw"):
            load_scenario(path)

    def test_unknown_technology(self, tmp_path):
        path = write(tmp_path, "bad.scenario", """
[unit]
technology = FUSION
rated_power_mw = 10
min_load_pct = 20
ramp_up_pct_per_s = 1
""")
        with pytest.raises(ScenarioError, match="unknown technology"):
            load_scenario(path)

    def test_unknown_product(self, tmp_path):
        path = write(tmp_path, "bad.scenario", "[product]\nkind = xcr\n")
        with pytest.raises(ScenarioError, match="unknown product"):
            load_scenario(path)

    @pytest.mark.parametrize("direction", [None, "sym", "pos", "neg"])
    @pytest.mark.parametrize("kind", ["fcr", "afrr", "mfrr"])
    def test_each_product_word_is_read_at_its_key(self, tmp_path, kind, direction):
        text = f"[product]\nkind = {kind}\n"
        if direction is not None:
            text += f"direction = {direction}\n"
        path = write(tmp_path, "product.scenario", text)
        if direction is not None and (kind == "fcr") != (direction == "sym"):
            with pytest.raises(ScenarioError, match=r"no \w+ \w+ product: FCR is SYM") as exc:
                load_scenario(path)
            assert (exc.value.key, exc.value.line) == ("direction", 3)
        else:
            name = kind if direction in (None, "sym") else f"{kind}-{direction}"
            assert load_scenario(path).products == (product_from_name(name),)

    @pytest.mark.parametrize("text, key, message", [
        ("[product]\nkind = afrr-pos\n", "kind", "unknown product kind 'afrr-pos'"),
        ("[product]\ndirection = up\nkind = afrr\n", "direction", "unknown direction 'up'"),
    ], ids=["glued-kind", "unknown-direction"])
    def test_a_product_word_outside_its_grammar_is_located(self, tmp_path, text, key, message):
        path = write(tmp_path, "product.scenario", text)
        with pytest.raises(ScenarioError, match=message) as exc:
            load_scenario(path)
        assert (exc.value.key, exc.value.line) == (key, 2)

    @pytest.mark.parametrize("name_line, kinds, message, line", [
        ("product = xyz", ["fcr"], "unknown product 'xyz'", 4),
        ("product = afrr-neg", ["fcr", "afrr"], r"scenario has no \[product\] aFRR NEG", 4),
        ("", ["fcr", "afrr"], r"scenario has 2 \[product\] sections; \[dispatch\] product "
                              "must pick one", 1),
    ], ids=["unknown", "not-among", "unnamed"])
    def test_dispatch_product_faults_are_located_at_load(self, tmp_path, name_line, kinds,
                                                         message, line):
        text = (f"[dispatch]\nsetpoint_mw = 9\nbid_mw = 1\n{name_line}\n"
                + "".join(f"[product]\nkind = {kind}\n" for kind in kinds))
        path = write(tmp_path, "dispatch.scenario", text)
        with pytest.raises(ScenarioError, match=message) as exc:
            load_scenario(path)
        assert (exc.value.key, exc.value.line) == ("product", line)

    def test_dispatch_without_a_product_name_takes_the_only_one(self, tmp_path):
        path = write(tmp_path, "one.scenario", "[dispatch]\nsetpoint_mw = 9\nbid_mw = 1\n"
                     "[product]\nkind = mfrr\ndirection = neg\n")
        assert load_scenario(path).dispatch.product == product_from_name("mfrr-neg")

    @pytest.mark.parametrize("count, setpoint, product, message", [
        (1, "4", "", None),  # no product: the band alone
        (1, "4.5", "", r"setpoint 4.5 MW outside operating band \[1.0, 4.0\] MW"),
        (2, "8", "", None),  # a fleet: the aggregate's band
        (1, "1.5", "kind = afrr", r"setpoint 1.5 MW cannot host a 1.0 MW downward activation "
                                  r"above the minimum load 1.0 MW"),
        (1, "1", "kind = afrr\ndirection = neg", None),
        (1, "3.5", "kind = fcr", r"setpoint 3.5 MW cannot host a 1.0 MW upward activation "
                                 r"below the rated power 4.0 MW"),
    ], ids=["band-edge", "out-of-band", "fleet", "pos-no-room", "neg", "sym-no-room"])
    def test_dispatch_setpoint_is_held_to_the_unit_at_load(self, tmp_path, count, setpoint,
                                                          product, message):
        path = write(tmp_path, "dispatch.scenario",
                     f"[unit]\npreset = demo4grid\ncount = {count}\n[dispatch]\n"
                     f"setpoint_mw = {setpoint}\nbid_mw = 1\n"
                     + (f"[product]\n{product}\n" if product else ""))
        if message is None:
            assert load_scenario(path).dispatch.setpoint_mw == float(setpoint)
            return
        with pytest.raises(ScenarioError, match=message) as exc:
            load_scenario(path)
        assert (exc.value.key, exc.value.line) == ("setpoint_mw", 5)

    def test_bad_efficiency_point(self, tmp_path):
        path = write(tmp_path, "bad.scenario", """
[unit]
preset = mcphy
efficiency_points = 50-55
""")
        with pytest.raises(ScenarioError, match="load_pct:kwh_per_kg"):
            load_scenario(path)
        path = write(tmp_path, "bad.scenario",
                     "[unit]\npreset = mcphy\nefficiency_points = 10:nan, 100:54\n")
        with pytest.raises(ScenarioError, match="finite"):
            load_scenario(path)

    def test_bad_signal_kind(self, tmp_path):
        write(tmp_path, "signal.csv", SIGNAL_CSV)
        path = write(tmp_path, "bad.scenario", "[signal]\nkind = morse\ncsv = signal.csv\n")
        with pytest.raises(ScenarioError, match="frequency"):
            load_scenario(path)

    def test_unknown_output_format(self, tmp_path):
        path = write(tmp_path, "bad.scenario", "[output]\nformats = pdf\n")
        with pytest.raises(ScenarioError, match="unknown output format"):
            load_scenario(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read scenario"):
            load_scenario(tmp_path / "nope.scenario")

    def test_count_must_be_at_least_one(self, tmp_path):
        for count, message in (
            ("0", r"count must be in \[1, 100000\], got 0"),
            ("2.7", "expected a whole number, got '2.7'"),
            ("inf", "expected a finite number"),
        ):
            path = write(tmp_path, "bad.scenario", f"[unit]\npreset = mcphy\ncount = {count}\n")
            with pytest.raises(ScenarioError, match=message) as exc:
                load_scenario(path)
            assert (exc.value.key, exc.value.line) == ("count", 3)

    @pytest.mark.parametrize("section, first, again", [
        ("scenario", "name = x", "name = y"),
        ("prices", "afrr_price_eur_per_mw_h = 20", "afrr_price_eur_per_mw_h = 5"),
    ])
    def test_once_only_section_may_not_repeat(self, tmp_path, section, first, again):
        path = write(tmp_path, "twice.scenario", f"[{section}]\n{first}\n\n[{section}]\n{again}\n")
        with pytest.raises(ScenarioError, match=rf"section \[{section}\] may appear once, "
                                                r"first at line 1") as exc:
            load_scenario(path)
        assert exc.value.line == 4

    def test_units_and_products_may_repeat(self, tmp_path):
        path = write(tmp_path, "fleet.scenario", "[unit]\npreset = mcphy\n[unit]\npreset = trina\n"
                     "[product]\nkind = fcr\n[product]\nkind = afrr\ndirection = pos\n")
        scenario = load_scenario(path)
        assert [u.name for u in scenario.fleet.units] == ["McPhy", "Trina"]
        assert scenario.fleet.counts == (1, 1)
        assert len(scenario.products) == 2

    def test_repeated_key_is_located(self, tmp_path):
        path = write(tmp_path, "twice.scenario",
                     "[dispatch]\nsetpoint_mw = 3\nbid_mw = 1\nsetpoint_mw = 99\n")
        with pytest.raises(ScenarioError, match=r"key given twice in \[dispatch\]") as exc:
            load_scenario(path)
        assert (exc.value.key, exc.value.line) == ("setpoint_mw", 4)

    def test_count_is_capped(self, tmp_path):
        # checked before any unit is built: 1e8 units would exhaust memory
        path = write(tmp_path, "big.scenario", "[unit]\npreset = mcphy\ncount = 100001\n")
        with pytest.raises(ScenarioError, match=r"count must be in \[1, 100000\]") as exc:
            load_scenario(path)
        assert (exc.value.key, exc.value.line) == ("count", 3)


# Free text carries no decimal digits, so no generated line asks for a
# fleet of millions of units; numbers come from the bounded strategies.
# Surrogates (Cs) cannot be written to a UTF-8 file at all.
_TEXT = st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=16)
_BAD = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e309", "2.7", "0", "-1", ""]), _TEXT
)
_NUMBER = st.one_of(
    st.integers(min_value=1, max_value=100).map(str),
    st.floats(min_value=0.5, max_value=1e3).map(repr),
)
_WORDS = {
    "preset": ["demo4grid", "mcphy"], "technology": ["AEL", "PEM"],
    "kind": ["fcr", "afrr", "frequency", "setpoint"], "direction": ["pos", "sym"],
    "product": ["fcr"], "efficiency_points": ["50:50.5, 100:54"], "formats": ["json, csv"],
    "fcr_capacity_csv": ["prices.csv"], "spot_csv": ["spot.csv"], "csv": ["signal.csv"],
    "coverage_symmetric": ["true"], "name": ["x"], "description": ["x"],
}


def _entry(key: str):
    good = st.sampled_from(_WORDS[key]) if key in _WORDS else _NUMBER
    return st.one_of(good, _BAD).map(lambda value: f"{key} = {value}")


def _section(name: str, entry=_entry, extra: tuple[str, ...] = ("bogus",)):
    keys = sorted(_SCHEMA[name][1]) + list(extra)
    return st.lists(st.sampled_from(keys).flatmap(entry), max_size=len(keys)).map(
        lambda lines: "\n".join([f"[{name}]", *lines])
    )


_SCENARIO_TEXT = st.tuples(
    st.lists(st.sampled_from(sorted(_SCHEMA)).flatmap(_section), max_size=5),
    st.one_of(st.just(""), _TEXT),
).map(lambda parts: "\n".join([*parts[0], parts[1]]))


def _write_fuzz_files(tmp_path: Path, text: str) -> Path:
    """The scenario text and the CSVs its file keys may name, in one folder."""
    write(tmp_path, "prices.csv", PRICES_CSV)
    write(tmp_path, "signal.csv", SIGNAL_CSV)
    write(tmp_path, "spot.csv", "timestamp,price_eur_per_mwh\n2024-07-25T00:00:00,43.5\n")
    return write(tmp_path, "fuzz.scenario", text)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_SCENARIO_TEXT)
@example(text="[unit]\npreset = mcphy\ncount = inf\n")
@example(text="[dispatch]\nsetpoint_mw = 3\nbid_mw = 1\n[dispatch]\nsetpoint_mw = 4\nbid_mw = 1\n")
@example(text="[unit]\npreset = mcphy\ncount = 2\ncount = 3\n")
@example(text="[signal]\nkind = frequency\ncsv = a\x00b\n")
def test_any_scenario_text_loads_or_raises_scenario_error(tmp_path, text):
    path = _write_fuzz_files(tmp_path, text)
    try:
        assert isinstance(load_scenario(path), Scenario)
    except ScenarioError:
        pass


# Texts that mostly load: a shipped scenario, its CSV paths made absolute,
# with some of its lines dropped, some values replaced by a well-formed one
# (a small number or one at the edge of what a float holds or a search
# takes) and well-formed sections added.
_EDGE = st.one_of(_NUMBER, st.sampled_from(["0", "1e-12", "0.3", "1e306", "1e308"]))
_SHIPPED = [path.read_text(encoding="utf-8").replace("= prices/", f"= {REPO_SCENARIOS}/prices/")
            .replace("= signals/", f"= {REPO_SCENARIOS}/signals/")
            for path in sorted(REPO_SCENARIOS.glob("*.scenario"))]


def _good_entry(key: str):
    good = st.sampled_from(_WORDS[key]) if key in _WORDS else _EDGE
    return good.map(lambda value: f"{key} = {value}")


@st.composite
def _shipped_variant(draw) -> str:
    lines = []
    for line in draw(st.sampled_from(_SHIPPED)).splitlines():
        key, is_entry, _ = line.partition(" = ")
        change = draw(st.sampled_from(["keep"] * 12 + ["drop", "replace"])) if is_entry else "keep"
        if change != "drop":
            lines.append(draw(_good_entry(key)) if change == "replace" else line)
    added = st.sampled_from(sorted(_SCHEMA)).flatmap(lambda name: _section(name, _good_entry, ()))
    return "\n".join([*lines, *draw(st.lists(added, max_size=2))])


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_shipped_variant())
@example(text="[unit]\npreset = mcphy\n[product]\nkind = afrr\ndirection = pos\n"
              "[prices]\nafrr_price_eur_per_mw_h = 1e300\n[allocate]\n")
@example(text="[unit]\npreset = mcphy\ncount = 2\nefficiency_points = 50:50.5, 100:54\n"
              "[product]\nkind = fcr\n[prices]\nfcr_capacity_csv = prices.csv\n"
              "[allocate]\nhydrogen_value_eur_per_kg = 2\n")
@example(text="[prices]\nspot_csv = spot.csv\n[economics]\nsetpoint_mw = 3\n"
              "spot_threshold_eur_per_mwh = 1\n")
@example(text="[unit]\npreset = mcphy\nrated_power_mw = 1e308\ncount = 2\n[product]\nkind = fcr\n")
def test_any_loadable_text_runs_or_raises_scenario_error(tmp_path, text):
    """simulate, allocate and economics run through ``main()`` on every text
    that loads.  Each ends in a result (0), a negative verdict (2) or an
    input error naming a file of the scenario's folder (1): a ScenarioError,
    never another ValueError, which would print without a file."""
    path = _write_fuzz_files(tmp_path, text)
    try:
        load_scenario(path)
    except ScenarioError:
        return
    # the allocator's own FCR lot cap, lowered so that no generated fleet
    # takes more than a few MB; a larger search is refused like any other
    with mock.patch.object(allocate, "_MAX_LOTS", 10_000):
        for command in ("simulate", "allocate", "economics"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, "--scenario", str(path)])
            assert code in (0, 1, 2)
            if code == 1:
                assert err.getvalue().startswith(f"error: {tmp_path}{os.sep}"), err.getvalue()
            event(f"{command}: exit {code}")


def test_a_fleet_built_in_python_aggregates_and_locates_an_overflow_at_its_file():
    unit = ElectrolyzerUnit("big", Technology.PEM, 1e308, 0.1, 0.01)
    fleet = Scenario("f", Path("f.scenario"), Fleet((unit,), (1,)), ())
    assert fleet.primary_unit() is unit
    two = Scenario("f", Path("f.scenario"), Fleet((unit,), (2,)), ())
    with pytest.raises(ScenarioError) as exc:
        two.primary_unit()
    assert str(exc.value) == ("f.scenario, key 'rated_power_mw': rated_power_mw must be in "
                              "(0, inf), got inf")


class TestScenarioRoundTrip:
    def test_shipped_scenarios_all_load(self):
        for path in sorted(REPO_SCENARIOS.glob("*.scenario")):
            scenario = load_scenario(path)
            assert scenario.name

    def test_shipped_demo_scenario_contents(self):
        scenario = load_scenario(REPO_SCENARIOS / "demo4grid.scenario")
        assert scenario.primary_unit().rated_power_mw == 4.0
        assert len(scenario.products) == 2
        assert scenario.afrr_price_eur_per_mw_h == 20.0
        assert scenario.signal is not None


def test_readme_key_table_matches_the_schema():
    text = (REPO_SCENARIOS / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `\[(\w+)\]` \| `(\w+)` \| (?:`([^`]*)`)? *\|", text, re.M)
    documented = sorted((section, key, interval or None) for section, key, interval in rows)
    assert documented == sorted(
        (section, key, spec.range)
        for section, (_, keys) in _SCHEMA.items() for key, spec in keys.items()
    )


class TestByteOrderMark:
    """Excel's "CSV UTF-8" export starts a file with the UTF-8 byte-order
    mark; every reader skips it and loads what the file without it loads."""

    BOM = b"\xef\xbb\xbf"

    def copies(self, tmp_path: Path, text: str, plain: str, marked: str) -> tuple[Path, Path]:
        write(tmp_path, plain, text)
        (tmp_path / marked).write_bytes(self.BOM + text.encode("utf-8"))
        return tmp_path / plain, tmp_path / marked

    def test_a_scenario(self, tmp_path):
        text = (REPO_SCENARIOS / "revenue_100mw.scenario").read_text(encoding="utf-8")
        text = text.replace("= prices/", f"= {REPO_SCENARIOS}/prices/")
        text = text.replace("= signals/", f"= {REPO_SCENARIOS}/signals/")
        plain, marked = self.copies(tmp_path, text, "plain.scenario", "marked.scenario")
        assert text.startswith("#")  # the mark stands before a comment
        assert dataclasses.replace(load_scenario(marked), path=plain) == load_scenario(plain)

    def test_a_capacity_price_file(self, tmp_path):
        plain, marked = self.copies(tmp_path, PRICES_CSV, "plain.csv", "marked.csv")
        assert load_capacity_prices(marked) == load_capacity_prices(plain)

    def test_a_spot_price_file(self, tmp_path):
        text = "timestamp,price_eur_per_mwh\n2024-07-25T00:00:00,43.5\n2024-07-25T01:00:00,-2\n"
        plain, marked = self.copies(tmp_path, text, "plain.csv", "marked.csv")
        assert load_spot_prices(marked) == load_spot_prices(plain)

    @pytest.mark.parametrize("name, by_numpy", [("marked.csv", True), ("marked.csv.gz", False)],
                             ids=["numpy", "row-walk"])
    def test_a_signal_file(self, tmp_path, name, by_numpy):
        # numpy decompresses a path named *.gz, so that plain text goes to the row walk
        plain, marked = self.copies(tmp_path, SIGNAL_CSV, "plain.csv", name)
        assert (scenario_io._loadtxt_signal_rows(marked) is not None) == by_numpy
        kind = SignalKind.SETPOINT_REQUEST
        assert load_signal(marked, kind) == load_signal(plain, kind)
        assert load_signal_rows(marked, kind) == load_signal(plain, kind)


class TestCsvLoaders:
    def test_capacity_prices(self, tmp_path):
        table = load_capacity_prices(write(tmp_path, "p.csv", PRICES_CSV))
        assert isinstance(table, CapacityPriceTable)
        assert table.price("NEGPOS_12_16") == 78.0

    def test_capacity_prices_header_checked(self, tmp_path):
        path = write(tmp_path, "p.csv", "block,eur\nNEGPOS_00_04,5\n")
        with pytest.raises(ScenarioError, match="expected header"):
            load_capacity_prices(path)

    def test_capacity_prices_bad_row_is_located(self, tmp_path):
        for price in ("abc", "nan", "inf"):
            path = write(tmp_path, "p.csv", f"block,price_eur_per_mw\nNEGPOS_00_04,{price}\n")
            with pytest.raises(ScenarioError, match="line 2"):
                load_capacity_prices(path)

    def test_capacity_prices_bad_row_after_a_two_line_cell_names_its_file_line(self, tmp_path):
        path = write(tmp_path, "p.csv",
                     'block,price_eur_per_mw\n"NEGPOS_00_04\n",14\nNEGPOS_04_08,x\n')
        with pytest.raises(ScenarioError, match="line 4") as exc:
            load_capacity_prices(path)
        assert (exc.value.line, exc.value.key) == (4, "price_eur_per_mw")

    @pytest.mark.parametrize("rows,line,key,message", [
        ("NEGPOS_00_04,5\nNEGPOS_02_06,5\n", 3, "block", "unrecognized block label"),
        ("NEGPOS_00_04,5\n00-04,6\n", 3, "block", "duplicate price for block NEGPOS_00_04"),
        ("NEGPOS_00_04,5\nNEGPOS_04_08,-5\n", 3, "price_eur_per_mw",
         "negative capacity price -5.0 for block NEGPOS_04_08"),
        ("NEGPOS_00_04,5\n08-12,5\n12-16,5\n16-20,5\n20-24,5\n", None, "block",
         "missing blocks: NEGPOS_04_08$"),
    ])
    def test_capacity_price_faults_name_line_and_key(self, tmp_path, rows, line, key, message):
        path = write(tmp_path, "p.csv", "block,price_eur_per_mw\n" + rows)
        with pytest.raises(ScenarioError, match=message) as exc:
            load_capacity_prices(path)
        assert (exc.value.source, exc.value.line, exc.value.key) == (str(path), line, key)

    @pytest.mark.parametrize("rows,line,message", [
        # a repeated raw label before a negative price, then the other way round
        ("NEGPOS_00_04,5\nNEGPOS_00_04,5\nNEGPOS_04_08,-5\n", 3, "duplicate price"),
        ("NEGPOS_00_04,-5\nNEGPOS_04_08,5\nNEGPOS_04_08,5\n", 2, "negative capacity price"),
    ])
    def test_capacity_prices_with_two_faults_name_the_first(self, tmp_path, rows, line,
                                                             message):
        path = write(tmp_path, "p.csv", "block,price_eur_per_mw\n" + rows)
        with pytest.raises(ScenarioError, match=message) as exc:
            load_capacity_prices(path)
        assert exc.value.line == line

    def test_capacity_prices_column_count(self, tmp_path):
        path = write(tmp_path, "p.csv", "block,price_eur_per_mw\nNEGPOS_00_04,5,6\n")
        with pytest.raises(ScenarioError, match="expected 2 columns"):
            load_capacity_prices(path)

    def test_spot_prices(self, tmp_path):
        path = write(tmp_path, "spot.csv", (
            "timestamp,price_eur_per_mwh\n"
            "2024-07-25T00:00:00,43.5\n"
            "2024-07-25T01:00:00,39.1\n"
        ))
        series = load_spot_prices(path)
        assert isinstance(series, SpotPriceSeries)
        assert [p for _, p in series.samples] == [43.5, 39.1]

    def test_spot_prices_non_finite_price_is_located(self, tmp_path):
        path = write(tmp_path, "spot.csv",
                     "timestamp,price_eur_per_mwh\n2024-07-25T00:00:00,nan\n")
        with pytest.raises(ScenarioError, match="line 2") as exc:
            load_spot_prices(path)
        assert exc.value.key == "price_eur_per_mwh"

    @pytest.mark.parametrize("second,message", [
        ("2024-07-25T00:00:00", "strictly increasing"),
        ("2024-07-25T01:00:00+02:00", "with and without a UTC offset"),
    ])
    def test_spot_price_timestamp_out_of_order_names_line_and_key(self, tmp_path, second,
                                                                  message):
        path = write(tmp_path, "spot.csv", "timestamp,price_eur_per_mwh\n"
                     f"2024-07-25T00:00:00,43.5\n{second},39.1\n")
        with pytest.raises(ScenarioError, match=message) as exc:
            load_spot_prices(path)
        assert (exc.value.source, exc.value.line, exc.value.key) == (str(path), 3, "timestamp")

    def test_spot_prices_with_two_faults_name_the_first(self, tmp_path):
        path = write(tmp_path, "spot.csv", "timestamp,price_eur_per_mwh\n"
                     "2024-07-25T01:00:00,43.5\n2024-07-25T00:00:00,39.1\nyesterday,40\n")
        with pytest.raises(ScenarioError, match="strictly increasing") as exc:
            load_spot_prices(path)
        assert (exc.value.line, exc.value.key) == (3, "timestamp")

    def test_spot_prices_bad_timestamp(self, tmp_path):
        path = write(tmp_path, "spot.csv",
                     "timestamp,price_eur_per_mwh\nyesterday,43.5\n")
        with pytest.raises(ScenarioError, match="ISO timestamp") as exc:
            load_spot_prices(path)
        assert (exc.value.line, exc.value.key) == (2, "timestamp")

    def test_signal(self, tmp_path):
        sig = load_signal(write(tmp_path, "s.csv", SIGNAL_CSV), SignalKind.SETPOINT_REQUEST)
        assert sig.timestep_s == 1.0
        assert np.array_equal(sig.values, (-1.0,) * 5)

    def test_signal_must_start_at_zero(self, tmp_path):
        path = write(tmp_path, "s.csv", "time_s,value\n5,-1\n6,-1\n")
        with pytest.raises(ScenarioError, match="t = 0") as exc:
            load_signal(path, SignalKind.SETPOINT_REQUEST)
        assert (exc.value.line, exc.value.key) == (2, "time_s")

    def test_signal_non_numeric_row(self, tmp_path):
        for row in ("1,x", "1,nan", "nan,-1", "inf,-1"):
            path = write(tmp_path, "s.csv", f"time_s,value\n0,-1\n{row}\n")
            with pytest.raises(ScenarioError, match="line 3"):
                load_signal(path, SignalKind.SETPOINT_REQUEST)

    def test_one_row_is_a_fault_of_the_whole_time_column(self, tmp_path):
        path = write(tmp_path, "s.csv", "time_s,value\n0,-1\n")
        for load in (load_signal, load_signal_rows):
            with pytest.raises(ScenarioError, match="at least two rows") as exc:
                load(path, SignalKind.SETPOINT_REQUEST)
            assert (exc.value.line, exc.value.key) == (None, "time_s")

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "s.csv", "")
        with pytest.raises(ScenarioError, match="empty"):
            load_signal(path, SignalKind.SETPOINT_REQUEST)

    @pytest.mark.parametrize("rows, line, message", [
        ("0,-1\n1,-1\n2.5,-1\n", 4, "non-uniform timestep"),
        ("0,-1\n\n1,-1\n\n2.5,-1\n", 6, "non-uniform timestep"),
        ('"0",-1\n1,-1\n2.5,-1\n', 4, "non-uniform timestep"),  # quotes: row walk only
        ("0,-1\n\n0,-1\n", 4, "strictly increasing"),
        # a quoted cell spanning two lines: later rows keep their file line
        ('"0\n",-1\n1,-1\n2.5,-1\n', 5, "non-uniform timestep"),
        ('0,"-1\n"\n\n1,-1\n2.5,-1\n', 6, "non-uniform timestep"),
    ])
    def test_signal_time_faults_name_the_file_line(self, tmp_path, rows, line, message):
        path = write(tmp_path, "s.csv", "time_s,value\n" + rows)
        with pytest.raises(ScenarioError, match=message) as exc:
            load_signal(path, SignalKind.SETPOINT_REQUEST)
        assert (exc.value.source, exc.value.line, exc.value.key) == (str(path), line, "time_s")
        assert str(exc.value).startswith(f"{path}, line {line}, key 'time_s': ")
        with pytest.raises(ScenarioError, match=message) as ref:
            load_signal_rows(path, SignalKind.SETPOINT_REQUEST)
        assert ref.value.line == line

    @pytest.mark.parametrize("load, header", [
        (load_capacity_prices, "block,price_eur_per_mw"),
        (load_spot_prices, "timestamp,price_eur_per_mwh"),
        (lambda path: load_signal(path, SignalKind.SETPOINT_REQUEST), "time_s,value"),
    ])
    @pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"], ids=["plain", "byte-order-mark"])
    def test_non_utf8_csv_names_the_file(self, tmp_path, load, header, mark):
        # the offset counts from the start of the file, a byte-order mark included
        path = tmp_path / "latin1.csv"
        path.write_bytes(mark + header.encode() + b"\n0,\xff\n")
        with pytest.raises(ScenarioError, match="not UTF-8 text") as exc:
            load(path)
        at = len(mark) + len(header) + 3
        assert str(exc.value) == f"{path}: not UTF-8 text (invalid start byte at byte {at})"


# Cells the two readers must agree on: plain floats in several spellings
# and long decimals that round; odd spellings that float accepts, some of
# them only after csv (quotes) or only in Python (underscores, non-ASCII
# digits); and cells the row walk refuses ("#", empty, non-finite, a
# third column).
_CELL = st.one_of(
    st.floats(-1e6, 1e6).map(repr),
    st.floats(-1e6, 1e6).map(lambda x: f"{x:.17g}"),
    st.tuples(st.integers(-10**22, 10**22), st.integers(0, 10**22), st.integers(-330, 330))
    .map(lambda parts: "{}.{}e{}".format(*parts)),
)
_ODD_CELL = st.sampled_from(["1_000", '"1.5"', '" -2"', "\u0661", " 3 ", "+.5", "5.", "-0"])
_BAD_CELL = st.sampled_from([
    "1#2", "#", "", " ", "x", "nan", "-NaN", "inf", "-Infinity", "1e400", "-1e400", "0x10",
    "1,5", "\x00", "\x0c7", '"1', "1e5e5",
])
_HEADER = st.sampled_from([
    "TIME_S,Value", " time_s , value ", '"time_s","value"', "\ntime_s,value",
    "time_s,value,", "time,value", "time_s;value", "", "\ufefftime_s,value",
])


@st.composite
def signal_csv(draw) -> bytes:
    """Signal CSV text.  A quarter of the files get an odd header; each
    file draws how often its rows are bent (none in about half the files):
    a time or value cell, the column count, or a blank or whitespace line
    before a row.  Each file spells its clock one way, or row by row."""
    lines = [draw(_HEADER) if draw(st.integers(0, 3)) == 0 else "time_s,value"]
    percent = draw(st.sampled_from([0, 0, 3, 10, 40]))
    bent = st.integers(0, 99).map(lambda k: k < percent)
    dt = draw(st.sampled_from([1.0, 0.5, 0.1, 4.0]))
    spellings = [repr, "{:g}".format]  # "1.0" or "1": numpy's float or integer clock reader
    spell = draw(st.sampled_from([*spellings, None]))  # None: drawn row by row
    for k in range(draw(st.integers(0, 12))):
        time_s = (spell or draw(st.sampled_from(spellings)))(k * dt)
        if draw(bent):
            time_s = draw(st.one_of(st.sampled_from([f'"{time_s}"', f" {time_s}\t"]),
                                    st.sampled_from([f"{k * dt + 0.5:g}", "", "nan", "x"])))
        value = draw(st.one_of(_ODD_CELL, _BAD_CELL)) if draw(bent) else draw(_CELL)
        row = f"{time_s},{value}"
        if draw(bent):
            row += draw(st.sampled_from([",", ",1", " #x"]))
        if draw(bent):
            lines.append(draw(st.sampled_from(["", "", " ", "\t", ","])))
        lines.append(row)
    eol = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    return (eol.join(lines) + draw(st.sampled_from(["", eol, eol * 2]))).encode("utf-8")


def _load_outcome(load, path: Path):
    """What a loader gives: the signal bit for bit, or the error with its
    location."""
    try:
        sig = load(path, SignalKind.FREQUENCY_DEVIATION)
    except Exception as exc:  # the readers must fail alike, whatever the error
        return ("error", type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "key", None), getattr(exc, "source", None))
    return ("signal", sig.kind, sig.timestep_s.hex(), sig.values.dtype, sig.values.tobytes())


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=signal_csv())
@example(data=b"time_s,value\n0,1_000\n1_0,2\n")
@example(data=b'time_s,value\n"0","1.5"\n1,2\n')
@example(data=b"time_s,value\n\n0,1\n\n1,2\n\n")
@example(data=b"time_s,value\n0,1\n   \n1,2\n")
@example(data=b"time_s,value\n0,1,\n1,2,\n")
@example(data=b"time_s,value\n0,1,5\n1,2,5\n")
@example(data=b"time_s,value\n0,1#x\n1,2\n")
@example(data=b"time_s,value\n0,nan\n1,2\n")
@example(data=b"time_s,value\n0,1\ninf,2\n")
@example(data=b"time_s,value\n0,1e400\n1,2\n")
@example(data=b" TIME_S , Value \n0,1\n1,2\n")
@example(data=b"time,value\n0,1\n1,2\n")
@example(data=b"time_s,value\r\n0,0.1\r\n1,-0.2\r\n")
@example(data=b"time_s,value\n0,1\n")
@example(data=b"time_s,value\n")
@example(data=b"")
@example(data=b"time_s,value\n0,\xff\n1,2\n")
@example(data=b"time_s,value\n0,1\n\n1,2\n2.5,3\n")
@example(data=b"time_s,value\n0,1\r\n1,2\r\n1,3\r\n")
@example(data=b"\xef\xbb\xbftime_s,value\n0,1\n1,2\n")
@example(data=b"\xef\xbb\xbftime_s,value")
@example(data=b"\xef\xbb\xbf\xef\xbb\xbftime_s,value\n0,1\n1,2\n")
@example(data=b"time_s,value\xff\n0,1\n1,2\n")
@example(data=b"time_s,value\n0,1\n1,2\xff\n")
# the integer clock reader: cells it takes read as the float reader's, the rest fall through
@example(data=b"time_s,value\n-0,1\n1,2\n")
@example(data=b"time_s,value\n0,1\n01,2\n+2,3\n")
@example(data=b"time_s,value\n 0 ,1\n\t1\t,2\n 2 ,3\n")
@example(data=b"time_s,value\n0,1\n9007199254740993,2\n")
@example(data=b"time_s,value\n0,1\n9223372036854775808,2\n")
@example(data=b"time_s,value\n0,1\n1,2\n2.0,3\n")
@example(data=b"time_s,value\n0,1\n1,2\n2.5,3\n")
@example(data=b"time_s,value\n0,1\n1e3,2\n2e3,3\n")
def test_load_signal_matches_the_row_walk(tmp_path, data):
    path = tmp_path / "signal.csv"
    path.write_bytes(data)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _load_outcome(load_signal, path)
    assert not caught, [str(w.message) for w in caught]
    assert got == _load_outcome(load_signal_rows, path)
    event(f"numpy read: {scenario_io._loadtxt_signal_rows(path) is not None}, {got[0]}")


def test_plain_signal_files_skip_the_row_walk(monkeypatch):
    def no_walk(*args):
        raise AssertionError("row walk used")

    monkeypatch.setattr(scenario_io, "_read_csv_rows", no_walk)
    for path in sorted((REPO_SCENARIOS / "signals").glob("*.csv")):
        assert load_signal(path, SignalKind.SETPOINT_REQUEST).values.size > 1


def test_a_fractional_clock_skips_the_row_walk(tmp_path, monkeypatch):
    def no_walk(*args):
        raise AssertionError("row walk used")

    path = tmp_path / "half_second.csv"
    path.write_text("time_s,value\n0,1\n0.5,2\n1,3\n", encoding="utf-8")
    monkeypatch.setattr(scenario_io, "_read_csv_rows", no_walk)
    sig = load_signal(path, SignalKind.SETPOINT_REQUEST)
    assert sig.timestep_s == 0.5 and sig.values.tolist() == [1.0, 2.0, 3.0]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_signal_from_a_pipe_is_opened_once(tmp_path):
    pipe = tmp_path / "signal.csv"
    os.mkfifo(pipe)
    got = []
    reader = threading.Thread(target=lambda: got.append(
        load_signal(pipe, SignalKind.SETPOINT_REQUEST)), daemon=True)
    reader.start()
    pipe.write_text(SIGNAL_CSV, encoding="utf-8")
    reader.join(timeout=10)
    if reader.is_alive():  # blocked opening the pipe a second time: release it
        pipe.write_text("", encoding="utf-8")
    assert got and np.array_equal(got[0].values, (-1.0,) * 5)



@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_time_fault_in_a_piped_signal_is_located_without_reopening_it(tmp_path):
    pipe = tmp_path / "signal.csv"
    os.mkfifo(pipe)
    got = []

    def read():
        try:
            load_signal(pipe, SignalKind.SETPOINT_REQUEST)
        except ScenarioError as exc:
            got.append(exc)
    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    pipe.write_text("time_s,value\n0,-1\n1,-1\n2.5,-1\n", encoding="utf-8")
    reader.join(timeout=10)
    if reader.is_alive():  # blocked opening the pipe a second time: release it
        pipe.write_text("", encoding="utf-8")
    assert got and (got[0].line, got[0].key) == (4, "time_s")

@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma", ".GZ", ".csv.xz"])
@pytest.mark.parametrize("text", [
    SIGNAL_CSV,
    "time_s,value\n0,-1\n1,x\n",
    "time_s,value\n0,-1\n1,-1\n2.5,-1\n",
    "time,value\n0,-1\n1,-1\n",
])
def test_plain_signals_with_a_compressed_suffix_read_as_text(tmp_path, suffix, text):
    """numpy would decompress these names; they hold plain text, read as such."""
    path = write(tmp_path, "s" + suffix, text)
    got = _load_outcome(load_signal, path)
    assert got == _load_outcome(load_signal_rows, path)
    if text == SIGNAL_CSV:
        plain = _load_outcome(load_signal, write(tmp_path, "s.csv", text))
        assert got == plain and got[0] == "signal"


UNIT = ElectrolyzerUnit("io", Technology.AEL, 4.0, 0.25, 0.0061)


class TestEmitters:
    def test_json_report_is_deterministic(self, tmp_path):
        payload = {"b": 2.5, "a": {"nested": True, "x": None}}
        first = emit_report(payload, "json", tmp_path / "one.json")[0]
        second = emit_report(payload, "json", tmp_path / "two.json")[0]
        assert first.read_bytes() == second.read_bytes()
        parsed = json.loads(first.read_text())
        assert parsed == payload
        assert first.read_text().endswith("\n")
        # keys come out sorted, so diffs between runs stay clean
        assert first.read_text().index('"a"') < first.read_text().index('"b"')

    def test_csv_report_flattens_nested_keys(self, tmp_path):
        payload = {"compliance": {"compliant": True, "delay_s": 41.0}, "runs": [1, 2]}
        path = emit_report(payload, "csv", tmp_path / "r.csv")[0]
        lines = path.read_text().splitlines()
        assert lines[0] == "field,value"
        assert "compliance.compliant,true" in lines
        assert "compliance.delay_s,41.0" in lines
        assert "runs[0],1" in lines

    def test_csv_report_quotes_cells_that_hold_a_separator(self, tmp_path):
        payload = {"scenario": "plant, 100 MW", "note": 'a "quoted"\nline', "runs": [1]}
        path = emit_report(payload, "csv", tmp_path / "r.csv")[0]
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["field", "value"], ["scenario", "plant, 100 MW"],
                        ["note", 'a "quoted"\nline'], ["runs[0]", "1"]]

    def test_csv_report_writes_numpy_scalars_as_json_does(self, tmp_path):
        payload = {"x": np.float64(0.1), "n": np.int64(3), "b": np.bool_(True)}
        path = emit_report(payload, "csv", tmp_path / "r.csv")[0]
        assert path.read_text().splitlines()[1:] == ["x,0.1", "n,3", "b,true"]
        doc = json.loads(emit_report(payload, "json", tmp_path / "r.json")[0].read_text())
        assert doc == {"x": 0.1, "n": 3, "b": True}

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown report format"):
            emit_report({}, "xml", tmp_path / "r.xml")

    def test_plotdata_is_not_a_report_format(self, tmp_path):
        # the CLI copies trajectories for plotdata itself; emit_report writes documents only
        with pytest.raises(ValueError, match="expected json or csv"):
            emit_report({}, "plotdata", tmp_path / "plots")
        assert not (tmp_path / "plots").exists()

    def test_trajectory_csv_round_trips_through_the_signal_loader(self, tmp_path):
        traj = PowerTrajectory(1.0, np.array([3.0, 2.9756, 2.9512]), UNIT)
        path = write_trajectory_csv(traj, tmp_path / "t.csv")
        text = path.read_text()
        assert text.splitlines()[0] == "time_s,power_mw"
        # repr() floats: reading the file back loses nothing
        values = [float(line.split(",")[1]) for line in text.splitlines()[1:]]
        assert values == [3.0, 2.9756, 2.9512]


    def test_trajectory_csv_keeps_times_past_six_digits(self, tmp_path):
        dt = 123456.5
        traj = PowerTrajectory(dt, np.full(12, 3.0), UNIT)
        path = write_trajectory_csv(traj, tmp_path / "t.csv")
        times = np.loadtxt(path, delimiter=",", skiprows=1)[:, 0]
        assert np.array_equal(times, np.arange(12) * dt)

    def test_trajectory_csv_writes_the_same_text_to_its_copies(self, tmp_path):
        traj = PowerTrajectory(1.0, np.array([3.0, 2.9756]), UNIT)
        (tmp_path / "plot").mkdir()
        (tmp_path / "plot" / "t.csv").write_text("x" * 500, encoding="utf-8")
        path = write_trajectory_csv(traj, tmp_path / "t.csv", tmp_path / "plot" / "t.csv",
                                    tmp_path / "new" / "t.csv")
        assert path == tmp_path / "t.csv"
        for copy in (tmp_path / "plot" / "t.csv", tmp_path / "new" / "t.csv"):
            assert copy.read_bytes() == path.read_bytes()


class TestReportWriter:
    """``_write_text`` rewrites a file in place and leaves what ``Path.write_text`` does."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(old=st.none() | st.binary(max_size=300), text=st.text(max_size=200))
    @example(old=b"x" * 100, text="short\n")
    @example(old=b"\xff\xfe", text="caf\u00e9 \u20ac\r\nzw\u00f6lf\n\U0001f600")
    @example(old=None, text="")
    def test_the_file_left_is_the_one_write_text_leaves(self, tmp_path, old, text):
        ours, theirs = tmp_path / "ours.txt", tmp_path / "theirs.txt"
        for path in (ours, theirs):
            path.unlink(missing_ok=True)
            if old is not None:
                path.write_bytes(old)
        scenario_io._write_text(text, ours)
        theirs.write_text(text, encoding="utf-8")
        assert ours.read_bytes() == theirs.read_bytes()

    @pytest.mark.skipif(not hasattr(os, "symlink"), reason="no symbolic links")
    def test_a_linked_report_is_written_through_its_link(self, tmp_path):
        target = tmp_path / "kept" / "r.json"
        target.parent.mkdir()
        target.write_text("{\"old\": " + "1" * 200 + "}\n", encoding="utf-8")
        link = tmp_path / "out" / "r.json"
        link.parent.mkdir()
        try:
            link.symlink_to(target)
        except OSError:
            pytest.skip("symbolic links need a privilege here")
        assert emit_report({"new": 2}, "json", link) == [link]
        assert link.is_symlink() and link.resolve() == target.resolve()
        assert target.read_text(encoding="utf-8") == '{\n  "new": 2\n}\n'


def test_scenario_error_carries_location():
    err = ScenarioError("boom", key="ramp", line=7, source="x.scenario")
    assert err.key == "ramp"
    assert err.line == 7
    assert "x.scenario" in str(err)
    assert "line 7" in str(err)
    assert "key 'ramp'" in str(err)
