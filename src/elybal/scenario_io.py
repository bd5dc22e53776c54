"""Scenario files, preset catalog, price/signal CSVs and report emitters.

Scenario format: flat key-value text, UTF-8 (a leading byte-order mark is
skipped), "." decimal separator, LF line endings.  ``#`` starts a comment,
``[section]`` opens a section and ``key = value`` lines fill it.  One
table, ``_SCHEMA``, holds every section and key; ``_value`` reads a file's
key and a flag by it alike, a range by the library's own rule,
``model.in_range``.  A library rule names the key of a fault (a
``TableError``), which ``_Section.run`` turns into an input error naming
file (or flag), line and key, at the section header when the key is absent.
Ramps and load bounds are in percent of rated power, as on datasheets, and
stored as fractions.  Relative file references resolve against the
scenario's directory.

A CSV loader reads cells (header, two columns, a finite number) and builds
a type that checks its rows; ``_located`` maps a faulty row to its line.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .allocate import AllocationOptions
from .dispatch import ActivationSignal, PowerTrajectory, SignalKind, _check_band
from .economics import EconomicsSettings
from .markets import (
    BalancingProduct,
    CapacityPriceTable,
    Direction,
    SpotPriceSeries,
    TableError,
    product_from_name,
)
from .model import EfficiencyCurve, ElectrolyzerUnit, Fleet, Technology, aggregate, in_range


class ScenarioError(ValueError):
    """Input error in a scenario or data file, pointing at key and line."""

    def __init__(self, message: str, *, key: str | None = None, line: int | None = None,
                 source: str | None = None):
        self.key = key
        self.line = line
        self.source = source
        where = [str(source)] if source else []
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

    def to_unit(self) -> ElectrolyzerUnit:
        return ElectrolyzerUnit(
            name=self.manufacturer,
            technology=self.technology,
            rated_power_mw=self.power_mw,
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
class _Section:
    """One [section] of a scenario file, or the keys of one flag."""

    name: str
    line: int | None  # None for values given on the command line
    source: str  # file or flag, named in errors
    items: list[tuple[str, str, int | None]] = field(default_factory=list)  # key, text, line
    values: dict = field(default_factory=dict)  # by stored name, from ``_check`` or the defaults

    def error(self, message: str, key: str | None = None) -> ScenarioError:
        """An input error at the first line of ``key``, else at the section header."""
        line = next((line for k, _, line in self.items if k == key), self.line)
        return ScenarioError(message, key=key, line=line, source=self.source)

    def run(self, build: Callable[[], object], among: tuple[_Section, ...] = ()):
        """``build()``; a ValueError it raises is an input error at its key (a
        ``TableError``'s) in the first of this section and ``among`` with that key,
        the ``row``-th for a fault in a row; at this section's header when none has it."""
        try:
            return build()
        except ValueError as exc:
            fault = exc if isinstance(exc, TableError) else TableError(str(exc), None, None)
            holders = [s for s in (self, *among) if fault.key in _SCHEMA[s.name][1]]
            at = next(iter(holders[fault.row or 0:]), self)
            raise at.error(fault.reason, fault.key if at in holders else None) from None


def _number(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"expected a number, got '{text}'") from None
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got '{text}'")
    return value


def _whole(text: str) -> int:
    if not (value := _number(text)).is_integer():
        raise ValueError(f"expected a whole number, got '{text}'")
    return int(value)


def _choice(noun: str, options: dict[str, object]) -> Callable[[str], object]:
    """Converter to the option a word names, ignoring case."""
    by_word = {word.lower(): option for word, option in options.items()}

    def convert(text: str) -> object:
        if text.lower() not in by_word:
            raise ValueError(f"unknown {noun} '{text}', expected {'/'.join(options)}")
        return by_word[text.lower()]
    return convert


_format = _choice("output format", {f: f for f in ("json", "csv", "plotdata")})


def _file_name(text: str) -> str:
    """A scenario name, which names its report files inside ``--out`` verbatim."""
    if text in ("", ".", "..") or any(c in text for c in "/\\\0"):
        raise ValueError(f"expected a file name without '/', '\\' or NUL, not '.' or '..', "
                         f"got '{text}'")
    return text


def _efficiency_points(text: str) -> EfficiencyCurve:
    points = []
    for part in filter(None, (part.strip() for part in text.split(","))):
        if ":" not in part:
            raise ValueError(f"expected 'load_pct:kwh_per_kg' pairs, got '{part}'")
        load_pct, energy = part.split(":", 1)
        points.append((_number(load_pct.strip()) / 100.0, _number(energy.strip())))
    return EfficiencyCurve(tuple(points))


@dataclass(frozen=True)
class _Key:
    """How one scenario key is read: ``convert`` turns the text into a value
    (raising ValueError), ``range`` bounds it as written, ``percent`` names
    the field a percentage is stored in as a fraction, ``default`` stands
    in when it is absent."""

    convert: Callable[[str], object] = _number
    range: str | None = None
    percent: str | None = None
    default: object = None
    required: bool = False


# Every section and key a scenario may hold: section -> (whether the
# section may repeat, key -> how it is read).  A range is given only where
# the code that uses the value rejects it anyway; checked here, the error
# names the line that holds the value, whichever command runs.
_SCHEMA: dict[str, tuple[bool, dict[str, _Key]]] = {
    "scenario": (False, {"name": _Key(_file_name), "description": _Key(str)}),
    "unit": (True, {
        "preset": _Key(preset),
        # identical units, weighing one object; the paper's 40 GW of 2 MW units is 20,000
        "count": _Key(_whole, "[1, 100000]", default=1),
        "name": _Key(str),
        "technology": _Key(_choice("technology", {t.value: t for t in Technology})),
        "rated_power_mw": _Key(range="(0, inf)"),
        "min_load_pct": _Key(range="(0, 100)", percent="min_load_fraction"),
        "ramp_up_pct_per_s": _Key(range="(0, inf)", percent="ramp_up"),
        "ramp_down_pct_per_s": _Key(range="(0, inf)", percent="ramp_down"),
        "efficiency_points": _Key(_efficiency_points),
    }),
    "product": (True, {  # a kind reads as its own product, aFRR and mFRR POS
        "kind": _Key(_choice("product kind", {k: product_from_name(k)
                                              for k in ("fcr", "afrr", "mfrr")}), required=True),
        "direction": _Key(_choice("direction", {d.value.lower(): d for d in Direction})),
    }),
    "prices": (False, {
        "fcr_capacity_csv": _Key(Path),
        "afrr_price_eur_per_mw_h": _Key(range="[0, inf)"),
        "spot_csv": _Key(Path),
    }),
    "dispatch": (False, {
        "setpoint_mw": _Key(range="[0, inf)", required=True),
        "bid_mw": _Key(range="(0, inf)", required=True),
        "product": _Key(product_from_name),
    }),
    "signal": (False, {
        "kind": _Key(_choice("signal kind", {k.value: k for k in SignalKind}), required=True),
        "csv": _Key(Path, required=True),
    }),
    "allocate": (False, {
        "pre_reserved_fcr_mw": _Key(range="[0, inf)"),
        "hydrogen_value_eur_per_kg": _Key(range="[0, inf)"),
        "setpoint_grid_mw": _Key(range="(0, inf)", default=1.0),
    }),
    "economics": (False, {
        "setpoint_mw": _Key(range="[0, inf)"),
        "hours_per_day": _Key(range="(0, 24]", default=24.0),
        "electricity_price_eur_per_mwh": _Key(),
        "spot_threshold_eur_per_mwh": _Key(),
        "grid_fee_pct": _Key(range="[0, inf)", default=0.0),
        "fcr_bid_mw": _Key(range="[0, inf)"),
        "afrr_quantity_mw": _Key(range="[0, inf)"),
        "required_reserve_mw": _Key(range="[0, inf)"),
        "fleet_power_mw": _Key(range="(0, inf)"),
        "coverage_symmetric": _Key(_choice("truth value", {
            "true": True, "false": False, "yes": True, "no": False, "1": True, "0": False,
        }), default=True),
    }),
    "output": (False, {"formats": _Key(
        lambda text: tuple(_format(f.strip()) for f in text.split(",") if f.strip()),
        required=True, default=("json",),
    )}),
}


def _value(section: _Section, key: str, text: str, line: int | None):
    """``text`` read as ``key`` of the section by ``_SCHEMA``, in its stored
    unit.  An unknown key and a value its converter or range rejects are
    input errors at ``line`` and ``key``."""
    where = {"key": key, "line": line, "source": section.source}
    spec = _SCHEMA[section.name][1].get(key)
    if spec is None:
        raise ScenarioError(f"unknown key in [{section.name}]", **where)
    try:
        value = spec.convert(text)
    except ValueError as exc:
        raise ScenarioError(str(exc), **where) from None
    if spec.range is not None and not in_range(value, spec.range):
        raise ScenarioError(f"{key} must be in {spec.range}, got {text}", **where)
    return value if spec.percent is None else value / 100.0


def _check(section: _Section) -> _Section:
    """The section with ``values`` filled from its items by ``_value``, a
    percent key under its ``percent`` field.  A repeated key and a missing
    required key are input errors at their line and key; absent keys get
    their default."""
    keys = _SCHEMA[section.name][1]
    values: dict = {}
    for key, text, line in section.items:
        if key in values:
            raise ScenarioError(f"key given twice in [{section.name}]", key=key, line=line,
                                source=section.source)
        values[key] = _value(section, key, text, line)
    for key, spec in keys.items():
        if spec.required and key not in values:
            raise section.error(f"missing required key '{key}' in [{section.name}]", key)
    section.values = {spec.percent or key: values.get(key, spec.default)
                      for key, spec in keys.items()}
    return section


def _read_text(path: Path) -> str:
    """A file's text; bytes that are not UTF-8 are an input error naming the file."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")  # a byte-order mark
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"not UTF-8 text ({exc.reason} at byte {exc.start})",
                            source=str(path)) from None


def _read_sections(path: Path) -> list[_Section]:
    """The sections of a scenario file; an unknown or repeated once-only section is an error."""
    source = str(path)
    try:
        text = _read_text(path)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}", source=source) from None
    sections: list[_Section] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _SCHEMA:
                raise ScenarioError(f"unknown section [{name}]", line=lineno, source=source)
            first = next((s.line for s in sections if s.name == name), None)
            if first is not None and not _SCHEMA[name][0]:
                raise ScenarioError(f"section [{name}] may appear once, first at line {first}",
                                    line=lineno, source=source)
            sections.append(_Section(name, lineno, source))
        elif "=" not in line:
            raise ScenarioError("expected 'key = value'", line=lineno, source=source)
        elif not sections:
            raise ScenarioError("key outside any [section]", line=lineno, source=source)
        else:
            key, value = line.split("=", 1)
            sections[-1].items.append((key.strip().lower(), value.strip(), lineno))
    return sections


def _build_unit(section: _Section) -> ElectrolyzerUnit:
    """The unit of a [unit] section, a preset filling in absent keys; ``count`` weighs it."""
    v = section.values
    base = v["preset"].to_unit() if v["preset"] is not None else None
    fields = {}
    for key, field_name in (
        ("technology", "technology"), ("rated_power_mw", "rated_power_mw"),
        ("min_load_pct", "min_load_fraction"), ("ramp_up_pct_per_s", "ramp_up"),
    ):
        value = v[field_name]
        if value is None and base is None:
            raise section.error(f"missing required key '{key}' in [unit] without preset", key)
        fields[field_name] = value if value is not None else getattr(base, field_name)
    name = v["name"] if v["name"] is not None else (base.name if base else "unit")
    return section.run(lambda: ElectrolyzerUnit(name=name, ramp_down=v["ramp_down"],
                                                efficiency_curve=v["efficiency_points"], **fields))


def _build_product(section: _Section) -> BalancingProduct:
    """The product of a [product] section: its kind's, turned to ``direction``."""
    product, direction = section.values["kind"], section.values["direction"]
    # the product's own rule: FCR is SYM, aFRR and mFRR are not
    return section.run(lambda: product if direction is None
                       else dataclasses.replace(product, direction=direction))


@dataclass(frozen=True)
class DispatchSettings:
    setpoint_mw: float
    bid_mw: float
    product: BalancingProduct | None  # the [product] the bid belongs to, if there is one


def _build_dispatch(section: _Section, products: tuple[BalancingProduct, ...]) -> DispatchSettings:
    """[dispatch] with its product resolved among ``products``: the one it
    names, else the only one.  A name not among them, and no name with
    several, are input errors at key ``product``."""
    v = section.values
    if v["product"] is None and len(products) > 1:
        raise section.error(f"scenario has {len(products)} [product] sections; "
                            "[dispatch] product must pick one", "product")
    product = v["product"] or (products[0] if products else None)
    if product not in (None, *products):
        raise section.error(f"scenario has no [product] {product.label}", "product")
    return DispatchSettings(v["setpoint_mw"], v["bid_mw"], product)


@dataclass(frozen=True)
class Scenario:
    """Everything one analysis run needs, with file references loaded."""

    name: str
    path: Path  # the scenario file
    fleet: Fleet  # one member per [unit] section, weighted by its count
    products: tuple[BalancingProduct, ...]
    fcr_prices: CapacityPriceTable | None = None
    afrr_price_eur_per_mw_h: float | None = None
    spot_prices: SpotPriceSeries | None = None
    signal: ActivationSignal | None = None
    dispatch: DispatchSettings | None = None
    allocate_options: AllocationOptions | None = None
    economics: EconomicsSettings | None = None
    output_formats: tuple[str, ...] = ("json",)
    sections: tuple[_Section, ...] = field(default=(), repr=False, compare=False)

    def run(self, name: str, build: Callable[[], object]):
        """``build()`` by [name]'s ``_Section.run``, then ``sections`` (units, products first)."""
        own = [s for s in self.sections if s.name == name] or [_Section(name, None, str(self.path))]
        return own[0].run(build, self.sections)

    def primary_unit(self) -> ElectrolyzerUnit:
        """The single unit, or the aggregate when the scenario holds a fleet."""
        if not self.fleet.units:
            raise ScenarioError("scenario defines no [unit]", source=str(self.path))
        return self.fleet.units[0] if self.fleet.counts == (1,) else self.run(
            "unit", lambda: aggregate(self.fleet))  # a total may overflow


def load_scenario(path: str | Path) -> Scenario:
    """Parse and materialize a scenario file, loading the CSVs it names."""
    path = Path(path)
    sections = [_check(s) for s in _read_sections(path)]
    given = {s.name: s for s in sections if not _SCHEMA[s.name][0]}
    # an absent once-only section reads as its defaults
    once = {name: given.get(name) or _Section(name, None, str(path), values={
        spec.percent or key: spec.default for key, spec in keys.items()})
        for name, (repeats, keys) in _SCHEMA.items() if not repeats}
    prices = once["prices"]

    def load(section: _Section, key: str, loader, *args):
        """The file a key names, loaded; None when the key is not given."""
        if section.values[key] is None:
            return None
        try:
            return loader(path.parent / section.values[key], *args)
        except ScenarioError:
            raise
        except (OSError, ValueError) as exc:  # ValueError: e.g. a NUL byte in the path
            raise section.error(f"cannot read file: {exc}", key) from None

    name = once["scenario"].values["name"]
    units = [s for s in sections if s.name == "unit"]
    products = tuple(_build_product(s) for s in sections if s.name == "product")
    scenario = Scenario(
        name=name if name is not None else path.stem,
        path=path,
        fleet=Fleet(tuple(_build_unit(s) for s in units), tuple(s.values["count"] for s in units)),
        products=products,
        fcr_prices=load(prices, "fcr_capacity_csv", load_capacity_prices),
        afrr_price_eur_per_mw_h=prices.values["afrr_price_eur_per_mw_h"],
        spot_prices=load(prices, "spot_csv", load_spot_prices),
        signal=load(once["signal"], "csv", load_signal, once["signal"].values["kind"]),
        dispatch=_build_dispatch(once["dispatch"], products) if "dispatch" in given else None,
        allocate_options=(AllocationOptions(**once["allocate"].values)
                          if "allocate" in given else None),
        economics=(EconomicsSettings(**once["economics"].values)
                   if "economics" in given else None),
        output_formats=once["output"].values["formats"],
        sections=(*(s for s in sections if _SCHEMA[s.name][0]), *once.values()),
    )
    if (settings := scenario.dispatch) is not None and units:
        unit = scenario.primary_unit()  # simulate's rule, checked here for every command
        sp, bid, product = settings.setpoint_mw, settings.bid_mw, settings.product
        scenario.run("dispatch", lambda: unit.check_setpoint(sp) if product is None
                     else _check_band(unit, sp, bid, product.direction))
    return scenario


def flag_value(flag: str, name: str, key: str, text: str, check: Callable = lambda value: None):
    """A flag's bare value read as ``key`` of [name] and held to ``check``; errors name the flag."""
    section = _Section(name, None, flag)
    value = _value(section, key, text, None)
    section.run(lambda: check(value))
    return value


def flag_unit(text: str) -> ElectrolyzerUnit:
    """``--unit key=value,...`` read as one [unit] section; ``count`` aggregates it."""
    section = _Section("unit", None, "--unit")
    for part in filter(None, (p.strip() for p in text.split(","))):
        if "=" not in part:
            raise ScenarioError(f"expected key=value, got '{part}'", source="--unit")
        key, value = part.split("=", 1)
        section.items.append((key.strip().lower(), value.strip(), None))
    unit, count = _build_unit(_check(section)), section.values["count"]
    return unit if count == 1 else aggregate(Fleet((unit,), (count,)))


# ------------------------------------------------------------ CSV loaders

def _csv_number(cell: str, key: str, line: int, source: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ScenarioError(f"expected a finite number, got '{cell.strip()}'", key=key,
                            line=line, source=source)
    return value


def _read_csv_rows(path: Path, expected_header: list[str]) -> list[tuple[int, str, float]]:
    """Data rows of a two-column CSV as (line, first cell, second cell as a
    finite number); a row's line is the file line it starts on, so a quoted
    cell spanning lines does not shift the rows after it."""
    source = str(path)
    reader = csv.reader(io.StringIO(_read_text(path), newline=""))
    rows, start = [], 1
    for row in reader:
        if row:
            rows.append((start, row))
        start = reader.line_num + 1
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
        parsed.append((lineno, row[0].strip(),
                       _csv_number(row[1], expected_header[1], lineno, source)))
    return parsed


def _located(path: Path, rows: Callable[[], list[tuple]], build: Callable, *args):
    """``build(*args)``, a ``TableError`` made an input error of the file at
    its key and at the line of its row in ``rows()``."""
    try:
        return build(*args)
    except TableError as exc:
        line = None if exc.row is None else rows()[exc.row][0]
        raise ScenarioError(exc.reason, key=exc.key, line=line, source=str(path)) from None


def load_capacity_prices(path: str | Path) -> CapacityPriceTable:
    """Read a block,price_eur_per_mw CSV into a capacity price table."""
    path = Path(path)
    rows = _read_csv_rows(path, ["block", "price_eur_per_mw"])
    return _located(path, lambda: rows, CapacityPriceTable, [row[1:] for row in rows])


def load_spot_prices(path: str | Path) -> SpotPriceSeries:
    """Read a timestamp,price_eur_per_mwh CSV into a spot price series."""
    path = Path(path)
    rows = _read_csv_rows(path, ["timestamp", "price_eur_per_mwh"])
    return _located(path, lambda: rows, SpotPriceSeries, [row[1:] for row in rows])


# numpy opens a path whose name ends in one of these as compressed data
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _loadtxt_signal_rows(path: Path) -> np.ndarray | None:
    """The (time_s, value) data rows as an (n, 2) array when numpy alone
    reads the file: a regular file not named as compressed, the header on
    line 1 and two finite plain numbers per line.  The file is opened twice
    (header, then numpy), so a pipe goes to the row walk, as does anything
    else this returns None for."""
    if not path.is_file() or path.suffix.lower() in _COMPRESSED_SUFFIXES:
        return None
    with open(path, newline="", encoding="utf-8", errors="replace") as fh:
        header = fh.readline().removeprefix("\ufeff")  # bytes not UTF-8 fail here or in numpy
    if [h.strip().lower() for h in header.split(",")] != ["time_s", "value"]:
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. "input contained no data"
            rows = np.loadtxt(path, delimiter=",", comments=None, ndmin=2,
                              skiprows=1, encoding="utf-8")
    except (ValueError, Warning):
        return None
    if rows.shape[1] != 2 or not np.isfinite(rows).all():
        return None
    return rows


def load_signal(path: str | Path, kind: SignalKind) -> ActivationSignal:
    """Read a time_s,value CSV into an activation signal.

    One ``np.loadtxt`` call reads a plain file, given its path so that numpy
    reads in chunks rather than line by line.  numpy decompresses a path by
    its suffix, so a file named ``*.gz``, ``*.bz2``, ``*.xz`` or ``*.lzma``
    goes to the row walk, which reads every file as plain text.  So does
    whatever numpy rejects (quoted cells, ``1_000``, a bad, missing or
    non-finite cell, a header off line 1).  The row walk alone decides
    which cells are accepted and on which line a fault is reported;
    ``ActivationSignal.from_rows`` checks the time column.  Both give the
    same floats.
    """
    path = Path(path)
    header = ["time_s", "value"]
    samples, rows = _loadtxt_signal_rows(path), None
    if samples is None:  # the time column is checked once every value is
        rows = _read_csv_rows(path, header)
        samples = [(_csv_number(time_s, "time_s", line, str(path)), value)
                   for line, time_s, value in rows]
    # numpy keeps no line numbers; the row walk has them
    return _located(path, lambda: _read_csv_rows(path, header) if rows is None else rows,
                    ActivationSignal.from_rows, kind, samples)


# --------------------------------------------------------------- emitters

def _jsonable(obj):
    if isinstance(obj, np.generic):  # numpy scalars; np.float64 is a float, but reprs apart
        return obj.item()
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if hasattr(obj, "to_dict"):
        return _jsonable(obj.to_dict())
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return str(obj)


def write_trajectory_csv(trajectory: PowerTrajectory, path: str | Path) -> Path:
    """Two-column time_s,power_mw CSV of a simulated trajectory: times to 15
    significant digits, which keeps every stamp distinct but hides the float
    noise of ``i * timestep_s``, powers as their ``repr``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = map("{:.15g},{!r}\n".format, trajectory.times.tolist(), trajectory.powers_mw.tolist())
    path.write_text("time_s,power_mw\n" + "".join(rows), encoding="utf-8")
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
    """Write an analysis result to the file ``dest`` as json or csv; returns
    the files written.  An empty result still produces a valid skeleton
    document.  A trajectory goes to ``write_trajectory_csv`` instead.
    """
    dest = Path(dest)
    fmt = fmt.lower()
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown report format '{fmt}', expected json or csv")
    dest.parent.mkdir(parents=True, exist_ok=True)
    payload = _jsonable(results)
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(("field", "value"))
        writer.writerows(_flat_rows(payload) if isinstance(payload, dict) else [])
        text = buffer.getvalue()
    dest.write_text(text, encoding="utf-8")
    return [dest]
