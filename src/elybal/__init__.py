"""Balancing-capacity analysis for ramp-limited electrolyzers.

Quantifies how much FCR, aFRR and mFRR capacity an electrolyzer unit or
fleet can offer, simulates activation delivery against the product
deadlines, allocates bids over the daily auction blocks and prices the
result against the electricity bill.
"""

__version__ = "0.1.0"

from .allocate import (
    AllocationOptions,
    AllocationResult,
    BidSchedule,
    ScheduleEntry,
    optimize_day,
    validate_schedule,
)
from .dispatch import (
    ActivationSignal,
    ComplianceResult,
    PowerTrajectory,
    SignalKind,
    check_compliance,
    hydrogen_output,
    simulate,
)
from .economics import (
    CoverageResult,
    EconomicReport,
    EconomicsSettings,
    afrr_day_capacity_revenue,
    build_report,
    electricity_cost,
    fcr_day_revenue,
    fleet_coverage,
    savings_ratio,
)
from .eligibility import (
    ConstraintCheck,
    EligibilityReport,
    Eq1Inputs,
    capacity_limit_mw,
    check_eligibility,
    default_setpoint,
    eq1_gradient,
    eq1_min_ramp,
    max_offerable,
    min_rated_power,
    tradable_mw,
)
from .markets import (
    CANONICAL_BLOCKS,
    BalancingProduct,
    CapacityPriceTable,
    Direction,
    ProductKind,
    SpotPriceSeries,
    TimeBlock,
    afrr,
    apply_grid_fee,
    avg_price_below_threshold,
    day_capacity_price_sum,
    fcr,
    mfrr,
    product_from_name,
    required_gradient,
)
from .model import (
    EfficiencyCurve,
    ElectrolyzerUnit,
    Fleet,
    Technology,
    aggregate,
    specific_energy_at,
)
from .scenario_io import (
    PRESETS,
    PresetEntry,
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

__all__ = [name for name in dir() if not name.startswith("_")]
