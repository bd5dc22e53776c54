"""The package namespace: every public name resolves from its home module on
first access, and an import loads only the modules it needs."""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import elybal
from elybal import allocate

SRC = Path(__file__).resolve().parent.parent / "src"
SCENARIO = SRC.parent / "scenarios" / "revenue_100mw.scenario"

# each home module and the names the package exports from it
HOMES = {
    "allocate": "AllocationOptions AllocationResult BidSchedule ScheduleEntry optimize_day "
                "validate_schedule",
    "dispatch": "ActivationSignal ComplianceResult PowerTrajectory SignalKind check_compliance "
                "hydrogen_output simulate",
    "economics": "CoverageResult EconomicReport EconomicsSettings afrr_day_capacity_revenue "
                 "build_report electricity_cost fcr_day_revenue fleet_coverage savings_ratio",
    "eligibility": "ConstraintCheck EligibilityReport Eq1Inputs capacity_limit_mw "
                   "check_eligibility default_setpoint eq1_gradient eq1_min_ramp max_offerable "
                   "min_rated_power tradable_mw",
    "markets": "CANONICAL_BLOCKS BalancingProduct CapacityPriceTable Direction ProductKind "
               "SpotPriceSeries TimeBlock afrr apply_grid_fee avg_price_below_threshold "
               "day_capacity_price_sum fcr mfrr product_from_name required_gradient",
    "model": "EfficiencyCurve ElectrolyzerUnit Fleet Technology aggregate specific_energy_at",
    "scenario_io": "PRESETS PresetEntry Scenario ScenarioError emit_report load_capacity_prices "
                   "load_scenario load_signal load_spot_prices preset write_trajectory_csv",
}
EXPORTS = {name: home for home, names in HOMES.items() for name in names.split()}


def fresh(code: str, then: str = "") -> list:
    """Run ``code`` in a fresh interpreter on this checkout, then ``then``:
    the sorted ``elybal`` modules and whether numpy were loaded after
    ``code``, followed by the JSON values of the lines ``then`` prints."""
    script = (f"{code}\nimport json, sys\n"
              "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'elybal')))\n"
              f"print(json.dumps('numpy' in sys.modules))\n{then}\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, cwd=SRC, check=True)
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_import_elybal_loads_no_module_and_not_numpy():
    assert fresh("import elybal") == [["elybal"], False]


def test_import_allocate_loads_only_what_it_imports():
    modules, numpy = fresh("import elybal.allocate")
    assert modules == ["elybal", "elybal.allocate", "elybal.eligibility", "elybal.markets",
                       "elybal.model"]
    assert numpy


def test_import_scenario_io_loads_no_allocation_economics_or_cli():
    modules, _, options = fresh(
        "import elybal.scenario_io",
        f"scenario = elybal.scenario_io.load_scenario({str(SCENARIO)!r})\n"
        "print(json.dumps(repr(scenario.allocate_options)))")
    assert "elybal.scenario_io" in modules
    assert not {"elybal.allocate", "elybal.eligibility", "elybal.economics",
                "elybal.cli"} & set(modules)
    assert options == repr(allocate.AllocationOptions(pre_reserved_fcr_mw=5.0))


def test_import_cli_loads_every_module():
    modules, _ = fresh("import elybal.cli")
    assert modules == ["elybal"] + [f"elybal.{m}" for m in sorted([*HOMES, "cli"])]


def test_a_submodule_resolves_after_a_bare_import():
    modules, _, name = fresh("import elybal", "print(json.dumps(elybal.allocate.__name__))")
    assert modules == ["elybal"]
    assert name == "elybal.allocate"


def test_all_lists_every_export_and_submodule():
    assert elybal.__all__ == sorted([*EXPORTS, *HOMES])
    assert len(elybal.__all__) == 72


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_each_name_is_the_object_of_its_home_module(name):
    home = importlib.import_module(f"elybal.{EXPORTS[name]}")
    assert getattr(elybal, name) is getattr(home, name)


def test_each_submodule_is_its_module():
    for home in HOMES:
        assert getattr(elybal, home) is importlib.import_module(f"elybal.{home}")


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from elybal import *", namespace)
    assert {name: namespace[name] for name in elybal.__all__} == {
        name: getattr(elybal, name) for name in elybal.__all__}


def test_a_name_is_read_from_its_home_module_each_time(monkeypatch):
    def stand_in(*args, **kwargs):
        raise AssertionError("not called")

    monkeypatch.setattr(allocate, "optimize_day", stand_in)
    assert elybal.optimize_day is stand_in
    monkeypatch.undo()
    assert elybal.optimize_day is allocate.optimize_day
    assert "optimize_day" not in vars(elybal)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'elybal' has no attribute 'x'$"):
        elybal.x  # noqa: B018
    assert not hasattr(elybal, "import_module")


def test_dir_lists_the_public_names():
    assert set(elybal.__all__) | {"__version__"} <= set(dir(elybal))
