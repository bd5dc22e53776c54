"""Balancing-capacity analysis for ramp-limited electrolyzers.

Quantifies how much FCR, aFRR and mFRR capacity an electrolyzer unit or
fleet can offer, simulates activation delivery against the product
deadlines, allocates bids over the daily auction blocks and prices the
result against the electricity bill.

Each public name is imported from its home module on first access (PEP 562),
so a caller loads only the modules it uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "allocate": ("AllocationOptions", "AllocationResult", "BidSchedule", "ScheduleEntry",
                 "optimize_day", "validate_schedule"),
    "dispatch": ("ActivationSignal", "ComplianceResult", "PowerTrajectory", "SignalKind",
                 "check_compliance", "hydrogen_output", "simulate"),
    "economics": ("CoverageResult", "EconomicReport", "EconomicsSettings",
                  "afrr_day_capacity_revenue", "build_report", "electricity_cost",
                  "fcr_day_revenue", "fleet_coverage", "savings_ratio"),
    "eligibility": ("ConstraintCheck", "EligibilityReport", "Eq1Inputs", "capacity_limit_mw",
                    "check_eligibility", "default_setpoint", "eq1_gradient", "eq1_min_ramp",
                    "max_offerable", "min_rated_power", "tradable_mw"),
    "markets": ("CANONICAL_BLOCKS", "BalancingProduct", "CapacityPriceTable", "Direction",
                "ProductKind", "SpotPriceSeries", "TimeBlock", "afrr", "apply_grid_fee",
                "avg_price_below_threshold", "day_capacity_price_sum", "fcr", "mfrr",
                "product_from_name", "required_gradient"),
    "model": ("EfficiencyCurve", "ElectrolyzerUnit", "Fleet", "Technology", "aggregate",
              "specific_energy_at"),
    "scenario_io": ("PRESETS", "PresetEntry", "Scenario", "ScenarioError", "emit_report",
                    "load_capacity_prices", "load_scenario", "load_signal", "load_spot_prices",
                    "preset", "write_trajectory_csv"),
}
# public name -> home module; a submodule is its own home
_HOME = {name: home for home, names in _EXPORTS.items() for name in (home, *names)}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # not stored in the package: a wrapper patched onto the home module is what callers get
    if (home := _HOME.get(name)) is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{home}")
    return module if name == home else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
