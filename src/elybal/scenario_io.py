"""Scenario files, preset catalog, price/signal CSVs and report emitters.

Scenario format: flat key-value text, UTF-8, "." decimal separator, LF
line endings.  ``#`` starts a comment, ``[section]`` opens a section and
``key = value`` lines fill it.  Sections: [scenario], [unit] (repeatable),
[product] (repeatable), [prices], [dispatch], [signal], [allocate],
[economics], [output].  Ramp rates and load bounds are written in percent
of rated power, as on manufacturer datasheets, and converted to fractions
at the boundary.  Relative file references resolve against the scenario
file's directory.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path

import numpy as np

from .allocate import AllocationOptions, AllocationResult
from .dispatch import ActivationSignal, ComplianceResult, PowerTrajectory, SignalKind
from .economics import EconomicReport
from .eligibility import EligibilityReport
from .markets import (
    BalancingProduct,
    CapacityPriceTable,
    Direction,
    ProductKind,
    SpotPriceSeries,
    price_table_from_pairs,
    product_from_name,
)
from .model import EfficiencyCurve, ElectrolyzerUnit, Fleet, Technology, aggregate


class ScenarioError(ValueError):
    """Input error in a scenario or data file, pointing at key and line."""

    def __init__(self, message: str, *, key: str | None = None, line: int | None = None,
                 source: str | None = None):
        self.key = key
        self.line = line
        self.source = source
        where = []
        if source:
            where.append(str(source))
        if line is not None:
            where.append(f"line {line}")
        if key is not None:
            where.append(f"key '{key}'")
        super().__init__(f"{', '.join(where)}: {message}" if where else message)


# ---------------------------------------------------------------- presets

@dataclass(frozen=True)
class PresetEntry:
    """Catalog entry for a commercially offered MW-scale electrolyzer.

    Values are kept exactly as published (power range and ramp in percent);
    ``estimated`` marks ramp figures from manufacturer discussions or own
    calculations rather than datasheets.  Operation above 100 % rated power
    (short-time overload, e.g. 110 %) is not modeled: ``to_unit`` caps the
    band at rated power.
    """

    key: str
    manufacturer: str
    power_mw: float
    range_min_pct: float
    range_max_pct: float
    ramp_pct_per_s: float
    technology: Technology
    estimated: bool = False

    def to_unit(
        self, rated_power_mw: float | None = None, name: str | None = None
    ) -> ElectrolyzerUnit:
        return ElectrolyzerUnit(
            name=name or self.manufacturer,
            technology=self.technology,
            rated_power_mw=rated_power_mw if rated_power_mw is not None else self.power_mw,
            min_load_fraction=self.range_min_pct / 100.0,
            ramp_up=self.ramp_pct_per_s / 100.0,
        )


PRESETS: dict[str, PresetEntry] = {
    p.key: p
    for p in (
        PresetEntry("ecolyzer", "Ecolyzer (2Elektrik)", 3.0, 10.0, 100.0, 0.5, Technology.AEL, estimated=True),
        PresetEntry("sunfire-ael", "Sunfire AEL", 10.0, 25.0, 100.0, 0.61, Technology.AEL),
        PresetEntry("sunfire-soec", "Sunfire SOEC", 10.0, 50.0, 100.0, 0.16, Technology.SOEC),
        PresetEntry("mcphy", "McPhy", 16.0, 10.0, 100.0, 5.0, Technology.AEL),
        PresetEntry("thyssenkrupp", "ThyssenKrupp", 20.0, 10.0, 100.0, 3.0, Technology.AEL, estimated=True),
        PresetEntry("trina", "Trina", 15.0, 30.0, 110.0, 5.0, Technology.AEL),
        PresetEntry("questone", "QuestOne", 10.0, 10.0, 100.0, 3.0, Technology.PEM, estimated=True),
        PresetEntry("elyzer", "Elyzer (Siemens Energy)", 17.5, 40.0, 100.0, 10.0, Technology.PEM),
        PresetEntry("neptun-itm", "Neptun (ITM)", 2.0, 25.0, 100.0, 10.0, Technology.PEM),
        PresetEntry("enapter", "Enapter AEM Nexus", 2.5, 1.0, 100.0, 0.73, Technology.AEM),
        # the 4 MW alkaline unit of the Demo4Grid project, same stack family
        # as the Sunfire AEL entry but at demonstration scale
        PresetEntry("demo4grid", "Demo4Grid 4 MW AEL", 4.0, 25.0, 100.0, 0.61, Technology.AEL),
    )
}


def preset(key: str) -> PresetEntry:
    k = key.strip().lower()
    if k not in PRESETS:
        raise ScenarioError(f"unknown preset '{key}', known: {', '.join(sorted(PRESETS))}")
    return PRESETS[k]


# ------------------------------------------------------- scenario parsing

@dataclass
class _Item:
    key: str
    value: str
    line: int | None  # None for values given on the command line


@dataclass
class _Section:
    name: str
    line: int | None
    items: list[_Item]

    def get(self, key: str) -> _Item | None:
        for item in self.items:
            if item.key == key:
                return item
        return None


def _parse_sections(text: str, source: str) -> list[_Section]:
    sections: list[_Section] = []
    current: _Section | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = _Section(line[1:-1].strip().lower(), lineno, [])
            sections.append(current)
            continue
        if "=" not in line:
            raise ScenarioError("expected 'key = value'", line=lineno, source=source)
        if current is None:
            raise ScenarioError("key outside any [section]", line=lineno, source=source)
        key, value = line.split("=", 1)
        current.items.append(_Item(key.strip().lower(), value.strip(), lineno))
    return sections


# one object per unit; the largest paper case (40 GW of 2 MW units) needs 20,000
_MAX_UNIT_COUNT = 100_000

_SECTION_KEYS = {
    "scenario": {"name", "description"},
    "unit": {
        "preset", "count", "name", "technology", "rated_power_mw", "min_load_pct",
        "ramp_up_pct_per_s", "ramp_down_pct_per_s", "efficiency_points",
    },
    "product": {"kind", "direction"},
    "prices": {
        "fcr_capacity_csv", "afrr_price_eur_per_mw_h", "afrr_price_eur_per_mw_block",
        "spot_csv",
    },
    "dispatch": {"setpoint_mw", "bid_mw", "product"},
    "signal": {"kind", "csv"},
    "allocate": {"pre_reserved_fcr_mw", "hydrogen_value_eur_per_kg", "setpoint_grid_mw"},
    "economics": {
        "setpoint_mw", "hours_per_day", "electricity_price_eur_per_mwh",
        "spot_threshold_eur_per_mwh", "grid_fee_pct", "fcr_bid_mw", "afrr_quantity_mw",
        "required_reserve_mw", "fleet_power_mw", "coverage_symmetric",
        "afrr_activation_revenue_eur",
    },
    "output": {"formats"},
}


def _check_keys(section: _Section, source: str) -> None:
    if section.name not in _SECTION_KEYS:
        raise ScenarioError(
            f"unknown section [{section.name}]", line=section.line, source=source
        )
    allowed = _SECTION_KEYS[section.name]
    for item in section.items:
        if item.key not in allowed:
            raise ScenarioError(
                f"unknown key in [{section.name}]", key=item.key, line=item.line,
                source=source,
            )


def _float(item: _Item, source: str) -> float:
    try:
        value = float(item.value)
    except ValueError:
        raise ScenarioError(
            f"expected a number, got '{item.value}'", key=item.key, line=item.line,
            source=source,
        ) from None
    if not math.isfinite(value):
        raise ScenarioError(
            f"expected a finite number, got '{item.value}'", key=item.key, line=item.line,
            source=source,
        )
    return value


def _bool(item: _Item, source: str) -> bool:
    v = item.value.strip().lower()
    if v in ("true", "yes", "1"):
        return True
    if v in ("false", "no", "0"):
        return False
    raise ScenarioError(
        f"expected true/false, got '{item.value}'", key=item.key, line=item.line,
        source=source,
    )


def _required(section: _Section, key: str, source: str) -> _Item:
    item = section.get(key)
    if item is None:
        raise ScenarioError(
            f"missing required key '{key}' in [{section.name}]", key=key,
            line=section.line, source=source,
        )
    return item


def _parse_efficiency_points(item: _Item, source: str) -> EfficiencyCurve:
    points = []
    for part in item.value.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ScenarioError(
                f"expected 'load_pct:kwh_per_kg' pairs, got '{part}'", key=item.key,
                line=item.line, source=source,
            )
        load_s, energy_s = part.split(":", 1)
        points.append((
            _float(_Item(item.key, load_s.strip(), item.line), source) / 100.0,
            _float(_Item(item.key, energy_s.strip(), item.line), source),
        ))
    try:
        return EfficiencyCurve(tuple(points))
    except ValueError as exc:
        raise ScenarioError(str(exc), key=item.key, line=item.line, source=source) from None


def _build_units(section: _Section, source: str) -> list[ElectrolyzerUnit]:
    preset_item = section.get("preset")
    entry = preset(preset_item.value) if preset_item is not None else None

    name_item = section.get("name")
    power_item = section.get("rated_power_mw")
    tech_item = section.get("technology")
    min_load_item = section.get("min_load_pct")
    ramp_up_item = section.get("ramp_up_pct_per_s")
    ramp_down_item = section.get("ramp_down_pct_per_s")
    curve_item = section.get("efficiency_points")

    if entry is None:
        for required_key, item in (
            ("technology", tech_item),
            ("rated_power_mw", power_item),
            ("min_load_pct", min_load_item),
            ("ramp_up_pct_per_s", ramp_up_item),
        ):
            if item is None:
                raise ScenarioError(
                    f"missing required key '{required_key}' in [unit] without preset",
                    key=required_key, line=section.line, source=source,
                )

    if tech_item is not None:
        try:
            technology = Technology(tech_item.value.strip().upper())
        except ValueError:
            raise ScenarioError(
                f"unknown technology '{tech_item.value}', expected AEL/PEM/SOEC/AEM",
                key=tech_item.key, line=tech_item.line, source=source,
            ) from None
    else:
        technology = entry.technology

    rated = _float(power_item, source) if power_item is not None else entry.power_mw
    if min_load_item is not None:
        min_load_pct = _float(min_load_item, source)
        if not 0 < min_load_pct < 100:
            raise ScenarioError(
                f"min_load_pct must be in (0, 100), got {min_load_pct}",
                key=min_load_item.key, line=min_load_item.line, source=source,
            )
        min_load = min_load_pct / 100.0
    else:
        min_load = entry.range_min_pct / 100.0
    ramp_up = (
        _float(ramp_up_item, source) / 100.0 if ramp_up_item is not None
        else entry.ramp_pct_per_s / 100.0
    )
    ramp_down = _float(ramp_down_item, source) / 100.0 if ramp_down_item is not None else None
    curve = _parse_efficiency_points(curve_item, source) if curve_item is not None else None
    name = name_item.value if name_item is not None else (
        entry.manufacturer if entry is not None else "unit"
    )

    count_item = section.get("count")
    count = 1
    if count_item is not None:
        value = _float(count_item, source)
        if not 1 <= value <= _MAX_UNIT_COUNT or not value.is_integer():
            raise ScenarioError(
                f"count must be >= 1 and whole, at most {_MAX_UNIT_COUNT}, "
                f"got {count_item.value}", key=count_item.key,
                line=count_item.line, source=source,
            )
        count = int(value)

    def make(unit_name: str) -> ElectrolyzerUnit:
        try:
            return ElectrolyzerUnit(
                name=unit_name, technology=technology, rated_power_mw=rated,
                min_load_fraction=min_load, ramp_up=ramp_up, ramp_down=ramp_down,
                efficiency_curve=curve,
            )
        except ValueError as exc:
            raise ScenarioError(str(exc), line=section.line, source=source) from None

    if count == 1:
        return [make(name)]
    return [make(f"{name} #{i + 1}") for i in range(count)]


def _build_product(section: _Section, source: str) -> BalancingProduct:
    kind_item = _required(section, "kind", source)
    direction_item = section.get("direction")
    label = kind_item.value.strip().lower()
    if direction_item is not None:
        label = f"{label}-{direction_item.value.strip().lower()}"
        if label.endswith("-sym"):
            label = label[: -len("-sym")]
    try:
        return product_from_name(label)
    except ValueError as exc:
        raise ScenarioError(
            str(exc), key=kind_item.key, line=kind_item.line, source=source
        ) from None


def _one_unit(units: tuple[ElectrolyzerUnit, ...]) -> ElectrolyzerUnit:
    """The single unit, or the aggregate of a fleet."""
    if len(units) == 1:
        return units[0]
    return aggregate(Fleet(units))


@dataclass(frozen=True)
class DispatchSettings:
    setpoint_mw: float
    bid_mw: float
    product_name: str | None = None  # which [product] the bid belongs to


@dataclass(frozen=True)
class EconomicsSettings:
    setpoint_mw: float | None = None
    hours_per_day: float = 24.0
    electricity_price_eur_per_mwh: float | None = None
    spot_threshold_eur_per_mwh: float | None = None
    grid_fee_fraction: float = 0.0
    fcr_bid_mw: float | None = None
    afrr_quantity_mw: float | None = None
    required_reserve_mw: float | None = None
    fleet_power_mw: float | None = None
    coverage_symmetric: bool = True
    afrr_activation_revenue_eur: float | None = None


@dataclass(frozen=True)
class Scenario:
    """Everything one analysis run needs, with file references resolved."""

    name: str
    units: tuple[ElectrolyzerUnit, ...]
    products: tuple[BalancingProduct, ...]
    fcr_prices: CapacityPriceTable | None = None
    fcr_prices_path: Path | None = None
    afrr_price_eur_per_mw_block: float | None = None
    spot_prices: SpotPriceSeries | None = None
    spot_prices_path: Path | None = None
    signal: ActivationSignal | None = None
    signal_path: Path | None = None
    dispatch: DispatchSettings | None = None
    allocate_options: AllocationOptions | None = None
    economics: EconomicsSettings | None = None
    output_formats: tuple[str, ...] = ("json",)
    path: Path | None = None

    def primary_unit(self) -> ElectrolyzerUnit:
        """The single unit, or the aggregate when the scenario holds a fleet."""
        if not self.units:
            source = str(self.path) if self.path is not None else None
            raise ScenarioError("scenario defines no [unit]", source=source)
        return _one_unit(self.units)

    def product(self, name: str | None = None) -> BalancingProduct:
        if not self.products:
            raise ScenarioError("scenario defines no [product]")
        if name is None:
            return self.products[0]
        wanted = product_from_name(name)
        for p in self.products:
            if p.kind is wanted.kind and p.direction is wanted.direction:
                return p
        raise ScenarioError(f"scenario has no product '{name}'")


def _resolve(base: Path | None, value: str) -> Path:
    p = Path(value)
    if not p.is_absolute() and base is not None:
        p = base / p
    return p


def _load_referenced(load, path: Path, item: _Item, source: str, *args):
    """``load(path, *args)``, with a file that cannot be opened reported at ``item``."""
    try:
        return load(path, *args)
    except ScenarioError:
        raise
    except (OSError, ValueError) as exc:  # ValueError: e.g. a NUL byte in the path
        raise ScenarioError(
            f"cannot read file: {exc}", key=item.key, line=item.line, source=source
        ) from None


def _read_sections(path: Path) -> list[_Section]:
    """The sections of a scenario file, keys checked."""
    source = str(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}", source=source) from None
    sections = _parse_sections(text, source)
    for section in sections:
        _check_keys(section, source)
    return sections


def load_scenario(path: str | Path) -> Scenario:
    """Parse and materialize a scenario file, loading referenced CSVs."""
    path = Path(path)
    source = str(path)
    base = path.parent
    sections = _read_sections(path)

    name = path.stem
    units: list[ElectrolyzerUnit] = []
    products: list[BalancingProduct] = []
    fcr_prices = fcr_prices_path = None
    afrr_block = None
    spot = spot_path = None
    signal = signal_path = None
    dispatch_settings = None
    allocate_options = None
    economics_settings = None
    output_formats: tuple[str, ...] = ("json",)

    for section in sections:
        if section.name == "scenario":
            item = section.get("name")
            if item is not None:
                name = item.value
        elif section.name == "unit":
            units.extend(_build_units(section, source))
        elif section.name == "product":
            products.append(_build_product(section, source))
        elif section.name == "prices":
            csv_item = section.get("fcr_capacity_csv")
            if csv_item is not None:
                fcr_prices_path = _resolve(base, csv_item.value)
                fcr_prices = _load_referenced(
                    load_capacity_prices, fcr_prices_path, csv_item, source
                )
            hourly = section.get("afrr_price_eur_per_mw_h")
            per_block = section.get("afrr_price_eur_per_mw_block")
            if hourly is not None and per_block is not None:
                raise ScenarioError(
                    "give exactly one aFRR price source (hourly or per block)",
                    key=per_block.key, line=per_block.line, source=source,
                )
            if hourly is not None:
                afrr_block = _float(hourly, source) * 4.0  # 4 h blocks
            elif per_block is not None:
                afrr_block = _float(per_block, source)
            spot_item = section.get("spot_csv")
            if spot_item is not None:
                spot_path = _resolve(base, spot_item.value)
                spot = _load_referenced(load_spot_prices, spot_path, spot_item, source)
        elif section.name == "dispatch":
            product_item = section.get("product")
            dispatch_settings = DispatchSettings(
                setpoint_mw=_float(_required(section, "setpoint_mw", source), source),
                bid_mw=_float(_required(section, "bid_mw", source), source),
                product_name=product_item.value if product_item is not None else None,
            )
        elif section.name == "signal":
            kind_item = _required(section, "kind", source)
            try:
                kind = SignalKind(kind_item.value.strip().lower())
            except ValueError:
                raise ScenarioError(
                    f"signal kind must be 'frequency' or 'setpoint', got '{kind_item.value}'",
                    key=kind_item.key, line=kind_item.line, source=source,
                ) from None
            csv_item = _required(section, "csv", source)
            signal_path = _resolve(base, csv_item.value)
            signal = _load_referenced(load_signal, signal_path, csv_item, source, kind)
        elif section.name == "allocate":
            pre_item = section.get("pre_reserved_fcr_mw")
            h2_item = section.get("hydrogen_value_eur_per_kg")
            grid_item = section.get("setpoint_grid_mw")
            try:
                allocate_options = AllocationOptions(
                    hydrogen_value_eur_per_kg=_float(h2_item, source) if h2_item else None,
                    pre_reserved_fcr_mw=_float(pre_item, source) if pre_item else None,
                    setpoint_grid_mw=_float(grid_item, source) if grid_item else 1.0,
                )
            except ValueError as exc:
                raise ScenarioError(str(exc), line=section.line, source=source) from None
        elif section.name == "economics":
            def opt_float(key: str) -> float | None:
                item = section.get(key)
                return _float(item, source) if item is not None else None

            fee_pct = opt_float("grid_fee_pct")
            hours_item = section.get("hours_per_day")
            hours = _float(hours_item, source) if hours_item is not None else 24.0
            if not 0 < hours <= 24:
                raise ScenarioError(
                    f"hours_per_day must be in (0, 24], got {hours_item.value}",
                    key=hours_item.key, line=hours_item.line, source=source,
                )
            sym_item = section.get("coverage_symmetric")
            economics_settings = EconomicsSettings(
                setpoint_mw=opt_float("setpoint_mw"),
                hours_per_day=hours,
                electricity_price_eur_per_mwh=opt_float("electricity_price_eur_per_mwh"),
                spot_threshold_eur_per_mwh=opt_float("spot_threshold_eur_per_mwh"),
                grid_fee_fraction=(fee_pct / 100.0) if fee_pct is not None else 0.0,
                fcr_bid_mw=opt_float("fcr_bid_mw"),
                afrr_quantity_mw=opt_float("afrr_quantity_mw"),
                required_reserve_mw=opt_float("required_reserve_mw"),
                fleet_power_mw=opt_float("fleet_power_mw"),
                coverage_symmetric=_bool(sym_item, source) if sym_item is not None else True,
                afrr_activation_revenue_eur=opt_float("afrr_activation_revenue_eur"),
            )
        elif section.name == "output":
            item = _required(section, "formats", source)
            formats = tuple(f.strip().lower() for f in item.value.split(",") if f.strip())
            for f in formats:
                if f not in ("json", "csv", "plotdata"):
                    raise ScenarioError(
                        f"unknown output format '{f}'", key=item.key, line=item.line,
                        source=source,
                    )
            output_formats = formats

    return Scenario(
        name=name,
        units=tuple(units),
        products=tuple(products),
        fcr_prices=fcr_prices,
        fcr_prices_path=fcr_prices_path,
        afrr_price_eur_per_mw_block=afrr_block,
        spot_prices=spot,
        spot_prices_path=spot_path,
        signal=signal,
        signal_path=signal_path,
        dispatch=dispatch_settings,
        allocate_options=allocate_options,
        economics=economics_settings,
        output_formats=output_formats,
        path=path,
    )


@dataclass(frozen=True)
class Fragment:
    """Scenario sections given outside a scenario file, for command line flags.

    Built by ``read_fragment`` from the sections of one name in a file, or
    by ``flag_fragment`` from a flag value.  Either way the keys are the
    scenario keys of that section and go through the scenario parser.
    """

    source: str  # file or flag, named in errors
    sections: tuple[_Section, ...]

    def unit(self) -> ElectrolyzerUnit:
        """The [unit] sections as one unit, aggregated when they hold a fleet."""
        return _one_unit(tuple(u for s in self.sections for u in _build_units(s, self.source)))

    def product(self) -> BalancingProduct:
        return _build_product(self.sections[0], self.source)

    def number(self, key: str) -> float:
        return _float(_required(self.sections[0], key, self.source), self.source)


def read_fragment(path: str | Path, name: str) -> Fragment:
    """The [name] sections of a scenario file or fragment."""
    path = Path(path)
    sections = tuple(s for s in _read_sections(path) if s.name == name)
    if not sections:
        raise ScenarioError(f"fragment has no [{name}] section", source=str(path))
    return Fragment(str(path), sections)


def flag_fragment(flag: str, name: str, value: str, key: str | None = None) -> Fragment:
    """A flag value as one [name] section.

    ``value`` holds comma-separated ``key=value`` pairs, or, when ``key``
    is given, the bare value of that one key.
    """
    if key is not None:
        items = [_Item(key, value.strip(), None)]
    else:
        items = []
        for part in value.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ScenarioError(f"expected key=value, got '{part}'", source=flag)
            k, v = part.split("=", 1)
            items.append(_Item(k.strip().lower(), v.strip(), None))
    section = _Section(name, None, items)
    _check_keys(section, flag)
    return Fragment(flag, (section,))


def dump_scenario(scenario: Scenario) -> str:
    """Serialize a scenario back to the key-value format.

    File references are written as absolute paths so the dump loads from
    anywhere; units are written in explicit numeric form (the preset they
    came from is not remembered).
    """
    out: list[str] = ["[scenario]", f"name = {scenario.name}", ""]
    for unit in scenario.units:
        out.append("[unit]")
        out.append(f"name = {unit.name}")
        out.append(f"technology = {unit.technology.value}")
        out.append(f"rated_power_mw = {unit.rated_power_mw!r}")
        out.append(f"min_load_pct = {unit.min_load_fraction * 100.0!r}")
        out.append(f"ramp_up_pct_per_s = {unit.ramp_up * 100.0!r}")
        out.append(f"ramp_down_pct_per_s = {unit.ramp_down * 100.0!r}")
        if unit.efficiency_curve is not None:
            pts = ", ".join(
                f"{f * 100.0!r}:{e!r}" for f, e in unit.efficiency_curve.breakpoints
            )
            out.append(f"efficiency_points = {pts}")
        out.append("")
    for product in scenario.products:
        out.append("[product]")
        out.append(f"kind = {product.kind.value.lower()}")
        out.append(f"direction = {product.direction.value.lower()}")
        out.append("")
    price_lines = []
    if scenario.fcr_prices_path is not None:
        price_lines.append(f"fcr_capacity_csv = {Path(scenario.fcr_prices_path).resolve()}")
    if scenario.afrr_price_eur_per_mw_block is not None:
        price_lines.append(
            f"afrr_price_eur_per_mw_block = {scenario.afrr_price_eur_per_mw_block!r}"
        )
    if scenario.spot_prices_path is not None:
        price_lines.append(f"spot_csv = {Path(scenario.spot_prices_path).resolve()}")
    if price_lines:
        out.append("[prices]")
        out.extend(price_lines)
        out.append("")
    if scenario.dispatch is not None:
        out.append("[dispatch]")
        out.append(f"setpoint_mw = {scenario.dispatch.setpoint_mw!r}")
        out.append(f"bid_mw = {scenario.dispatch.bid_mw!r}")
        if scenario.dispatch.product_name is not None:
            out.append(f"product = {scenario.dispatch.product_name}")
        out.append("")
    if scenario.signal is not None and scenario.signal_path is not None:
        out.append("[signal]")
        out.append(f"kind = {scenario.signal.kind.value}")
        out.append(f"csv = {Path(scenario.signal_path).resolve()}")
        out.append("")
    if scenario.allocate_options is not None:
        opts = scenario.allocate_options
        out.append("[allocate]")
        if opts.pre_reserved_fcr_mw is not None:
            out.append(f"pre_reserved_fcr_mw = {opts.pre_reserved_fcr_mw!r}")
        if opts.hydrogen_value_eur_per_kg is not None:
            out.append(f"hydrogen_value_eur_per_kg = {opts.hydrogen_value_eur_per_kg!r}")
        out.append(f"setpoint_grid_mw = {opts.setpoint_grid_mw!r}")
        out.append("")
    if scenario.economics is not None:
        eco = scenario.economics
        out.append("[economics]")
        pairs: list[tuple[str, object]] = [
            ("setpoint_mw", eco.setpoint_mw),
            ("hours_per_day", eco.hours_per_day),
            ("electricity_price_eur_per_mwh", eco.electricity_price_eur_per_mwh),
            ("spot_threshold_eur_per_mwh", eco.spot_threshold_eur_per_mwh),
            ("grid_fee_pct", eco.grid_fee_fraction * 100.0),
            ("fcr_bid_mw", eco.fcr_bid_mw),
            ("afrr_quantity_mw", eco.afrr_quantity_mw),
            ("required_reserve_mw", eco.required_reserve_mw),
            ("fleet_power_mw", eco.fleet_power_mw),
            ("afrr_activation_revenue_eur", eco.afrr_activation_revenue_eur),
        ]
        for key, value in pairs:
            if value is not None:
                out.append(f"{key} = {value!r}")
        out.append(f"coverage_symmetric = {'true' if eco.coverage_symmetric else 'false'}")
        out.append("")
    out.append("[output]")
    out.append(f"formats = {', '.join(scenario.output_formats)}")
    out.append("")
    return "\n".join(out)


# ------------------------------------------------------------ CSV loaders

def _read_csv_rows(path: Path, expected_header: list[str]) -> list[tuple[int, str, float]]:
    """Data rows of a two-column CSV as (line, first cell, second cell as a finite number)."""
    source = str(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = [(lineno, row) for lineno, row in enumerate(reader, start=1) if row]
    if not rows:
        raise ScenarioError("file is empty", source=source)
    header_line, header = rows[0]
    if [h.strip().lower() for h in header] != expected_header:
        raise ScenarioError(
            f"expected header '{','.join(expected_header)}', got '{','.join(header)}'",
            line=header_line, source=source,
        )
    parsed: list[tuple[int, str, float]] = []
    for lineno, row in rows[1:]:
        if len(row) != 2:
            raise ScenarioError(f"expected 2 columns, got {len(row)}", line=lineno, source=source)
        try:
            value = float(row[1])
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ScenarioError(
                f"expected a finite number, got '{row[1].strip()}'", key=expected_header[1],
                line=lineno, source=source,
            )
        parsed.append((lineno, row[0].strip(), value))
    return parsed


def load_capacity_prices(path: str | Path) -> CapacityPriceTable:
    """Read a block,price_eur_per_mw CSV into a capacity price table."""
    path = Path(path)
    rows = _read_csv_rows(path, ["block", "price_eur_per_mw"])
    try:
        return price_table_from_pairs((label, price) for _, label, price in rows)
    except ValueError as exc:
        raise ScenarioError(str(exc), source=str(path)) from None


def load_spot_prices(path: str | Path) -> SpotPriceSeries:
    """Read a timestamp,price_eur_per_mwh CSV into a spot price series."""
    path = Path(path)
    source = str(path)
    samples: list[tuple[datetime, float]] = []
    for lineno, ts_s, price in _read_csv_rows(path, ["timestamp", "price_eur_per_mwh"]):
        try:
            ts = datetime.fromisoformat(ts_s)
        except ValueError:
            raise ScenarioError(
                f"invalid ISO timestamp '{ts_s}'", line=lineno, source=source
            ) from None
        samples.append((ts, price))
    try:
        return SpotPriceSeries(tuple(samples))
    except ValueError as exc:
        raise ScenarioError(str(exc), source=source) from None


def _loadtxt_signal_rows(path: Path) -> np.ndarray | None:
    """The (time_s, value) data rows as an (n, 2) array when numpy alone
    reads the file: the header on line 1 and two finite plain numbers per
    line.  None sends the file to the row walk."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            header = fh.readline()
            if [h.strip().lower() for h in header.split(",")] != ["time_s", "value"]:
                return None
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # e.g. "input contained no data"
                rows = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except (ValueError, Warning):
            return None
    if rows.shape[1] != 2 or not np.isfinite(rows).all():
        return None
    return rows


def load_signal(path: str | Path, kind: SignalKind) -> ActivationSignal:
    """Read a time_s,value CSV into an activation signal.

    One ``np.loadtxt`` call reads a plain file.  Whatever it rejects
    (quoted cells, ``1_000``, a bad, missing or non-finite cell, a header
    off line 1) is read again by the row walk, which alone decides what
    is accepted and where an error is reported; both give the same floats.
    """
    path = Path(path)
    source = str(path)
    samples = _loadtxt_signal_rows(path)
    if samples is None:
        samples = []
        for lineno, time_s, value in _read_csv_rows(path, ["time_s", "value"]):
            try:
                t = float(time_s)
            except ValueError:
                t = math.nan
            if not math.isfinite(t):
                raise ScenarioError(
                    f"expected a finite number, got '{time_s}'", key="time_s", line=lineno,
                    source=source,
                )
            samples.append((t, value))
    try:
        return ActivationSignal.from_rows(kind, samples)
    except ValueError as exc:
        raise ScenarioError(str(exc), source=source) from None


# --------------------------------------------------------------- emitters

def _jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if hasattr(obj, "to_dict"):
        return _jsonable(obj.to_dict())
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Path):
        return str(obj)
    if isinstance(obj, datetime):
        return obj.isoformat()
    if isinstance(obj, PowerTrajectory):
        return {
            "timestep_s": obj.timestep_s,
            "powers_mw": [float(p) for p in obj.powers_mw],
        }
    if hasattr(obj, "value"):  # enums
        return obj.value
    if hasattr(obj, "item"):  # numpy scalars
        return obj.item()
    return str(obj)


def write_trajectory_csv(trajectory: PowerTrajectory, path: str | Path) -> Path:
    """Two-column time_s,power_mw CSV of a simulated trajectory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["time_s,power_mw"]
    for t, p in zip(trajectory.times, trajectory.powers_mw):
        lines.append(f"{float(t):g},{float(p)!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _flat_rows(payload: dict, prefix: str = "") -> list[tuple[str, str]]:
    rows: list[tuple[str, str]] = []
    for key, value in payload.items():
        dotted = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_flat_rows(value, f"{dotted}."))
        elif isinstance(value, list):
            for i, element in enumerate(value):
                if isinstance(element, dict):
                    rows.extend(_flat_rows(element, f"{dotted}[{i}]."))
                else:
                    rows.append((f"{dotted}[{i}]", _csv_scalar(element)))
        else:
            rows.append((dotted, _csv_scalar(value)))
    return rows


def _csv_scalar(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_report(results, fmt: str, dest: str | Path) -> list[Path]:
    """Write an analysis result to disk; returns the files written.

    ``fmt`` is one of json, csv or plotdata.  json and csv treat ``dest``
    as the output file; plotdata treats it as a directory and writes one
    two-column CSV per plottable component (trajectories and price
    series).  An empty result still produces a valid skeleton document.
    """
    dest = Path(dest)
    fmt = fmt.lower()

    if fmt == "json":
        dest.parent.mkdir(parents=True, exist_ok=True)
        dest.write_text(
            json.dumps(_jsonable(results), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return [dest]

    if fmt == "csv":
        dest.parent.mkdir(parents=True, exist_ok=True)
        payload = _jsonable(results)
        flat = _flat_rows(payload) if isinstance(payload, dict) else []
        lines = ["field,value"] + [f"{k},{v}" for k, v in flat]
        dest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return [dest]

    if fmt == "plotdata":
        dest.mkdir(parents=True, exist_ok=True)
        written: list[Path] = []
        items = results.items() if isinstance(results, dict) else []
        for key, value in items:
            if isinstance(value, PowerTrajectory):
                written.append(write_trajectory_csv(value, dest / f"{key}.csv"))
            elif isinstance(value, CapacityPriceTable):
                target = dest / f"{key}.csv"
                lines = ["block,price_eur_per_mw"]
                lines += [f"{label},{price!r}" for label, price in value.prices.items()]
                target.write_text("\n".join(lines) + "\n", encoding="utf-8")
                written.append(target)
            elif isinstance(value, SpotPriceSeries):
                target = dest / f"{key}.csv"
                lines = ["timestamp,price_eur_per_mwh"]
                lines += [f"{ts.isoformat()},{price!r}" for ts, price in value.samples]
                target.write_text("\n".join(lines) + "\n", encoding="utf-8")
                written.append(target)
        return written

    raise ValueError(f"unknown report format '{fmt}', expected json, csv or plotdata")
