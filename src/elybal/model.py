"""Domain model: units, fleets, partial-load efficiency and the one range rule."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property

import numpy as np

SLACK_MW = 1e-9  # how far past a MW bound a power still counts as on it
SLACK_LOAD = 1e-9  # how far past a load-fraction bound a load still counts as on it


@cache
def _ends(interval: str) -> tuple[float, float, bool, bool]:  # lo, hi, lo open, hi open
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    return lo, hi, interval[0] == "(", interval[-1] == ")"


def in_range(value: float, interval: str) -> bool:
    """Whether ``value`` lies in an interval written like "(0, 24]"; NaN lies in none."""
    lo, hi, open_lo, open_hi = _ends(interval)
    return (lo < value if open_lo else lo <= value) and (value < hi if open_hi else value <= hi)


class TableError(ValueError):
    """A fault in the input or table column ``key`` names, at ``row`` (from 0;
    None: all of it); ``reason`` leaves the row out, ``message`` may add it."""

    def __init__(self, reason: str, row: int | None, key: str, message: str | None = None):
        super().__init__(message or reason)
        self.reason, self.row, self.key = reason, row, key


def check_range(name: str, value: float, interval: str, key: str | None = None) -> None:
    """Raise ``<name> must be in <interval>, got <value>`` unless ``value`` lies
    in it, a ``TableError`` keyed ``key``, by default ``name``."""
    if not in_range(value, interval):
        raise TableError(f"{name} must be in {interval}, got {value}", None, key or name)


class Technology(str, Enum):
    """Electrolysis technology families available at MW scale."""

    AEL = "AEL"
    PEM = "PEM"
    SOEC = "SOEC"
    AEM = "AEM"


@dataclass(frozen=True)
class EfficiencyCurve:
    """Piecewise-linear specific energy demand across the load range.

    Breakpoints map load fraction (share of rated power) to specific energy
    in kWh per kg H2.  Datasheet curves are only trusted inside their stated
    range, so queries outside the breakpoints raise instead of extrapolating.
    """

    breakpoints: tuple[tuple[float, float], ...]  # (load fraction, kWh/kg)

    def __post_init__(self) -> None:
        pts = tuple((float(f), float(e)) for f, e in self.breakpoints)
        object.__setattr__(self, "breakpoints", pts)
        if len(pts) < 2:
            raise ValueError("efficiency curve needs at least two breakpoints")
        for (f0, _), (f1, _) in zip(pts, pts[1:]):
            if not f0 < f1:
                raise ValueError("breakpoint load fractions must be strictly increasing")
        for f, e in pts:
            check_range(f"specific energy (kWh/kg) at load fraction {f}", e, "(0, inf)")

    @property
    def domain(self) -> tuple[float, float]:
        """Lowest and highest load fraction covered by the curve."""
        return self.breakpoints[0][0], self.breakpoints[-1][0]

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        """Breakpoints widened by ``SLACK_LOAD`` at both ends, which take the edge values."""
        fractions, energies = zip(*self.breakpoints)
        return (np.array([fractions[0] - SLACK_LOAD, *fractions, fractions[-1] + SLACK_LOAD]),
                np.array([energies[0], *energies, energies[-1]]))


def specific_energy_at(
    curve: EfficiencyCurve | None, load_fraction: float | np.ndarray
) -> float | np.ndarray:
    """Specific energy (kWh/kg) at ``load_fraction``, linearly interpolated.

    ``load_fraction`` is a float or an array of them; a float gives a
    float, an array an array of the same shape.  Raises ValueError when
    there is no curve and outside the curve domain, ``SLACK_LOAD`` slack:
    no extrapolation.
    """
    if curve is None:
        raise ValueError("no efficiency curve: hydrogen accounting needs efficiency_points")
    se = np.interp(load_fraction, *curve._table, left=np.nan, right=np.nan)
    outside = se != se  # NaN marks a query beyond the widened domain
    if np.count_nonzero(outside):
        bad = np.ravel(load_fraction)[np.ravel(outside)][0]
        raise ValueError(
            f"load fraction {float(bad)} outside efficiency curve domain {list(curve.domain)}"
        )
    return float(se) if se.ndim == 0 else se


@dataclass(frozen=True)
class ElectrolyzerUnit:
    """A single electrolyzer plant as seen by the balancing market.

    Ramp rates are stored as fraction of rated power per second (0.0061,
    not "0.61 %"); file parsers convert from the percent notation used by
    manufacturer datasheets.  ``ramp_down`` defaults to ``ramp_up`` when a
    datasheet quotes only one figure.
    """

    name: str
    technology: Technology
    rated_power_mw: float
    min_load_fraction: float  # u: lowest safe continuous load, share of rated
    ramp_up: float  # fraction of rated power per second (load increase)
    ramp_down: float | None = None  # defaults to ramp_up
    efficiency_curve: EfficiencyCurve | None = None

    def __post_init__(self) -> None:
        if self.ramp_down is None:
            object.__setattr__(self, "ramp_down", self.ramp_up)
        for name in ("rated_power_mw", "ramp_up", "ramp_down"):
            check_range(name, getattr(self, name), "(0, inf)")
        check_range("min_load_fraction", self.min_load_fraction, "(0, 1)")
        if self.efficiency_curve is not None:
            lo, hi = self.efficiency_curve.domain
            if lo < self.min_load_fraction - SLACK_LOAD or hi > 1.0 + SLACK_LOAD:
                raise TableError("efficiency breakpoints must lie within "
                                 f"[{self.min_load_fraction}, 1.0], curve covers [{lo}, {hi}]",
                                 None, "efficiency_points")

    @property
    def min_power_mw(self) -> float:
        return self.min_load_fraction * self.rated_power_mw

    def check_setpoint(self, setpoint_mw: float) -> None:
        """Raise a ``TableError`` at ``setpoint_mw`` unless it lies in [min
        load, rated power], ``SLACK_MW`` slack; NaN lies outside."""
        min_p, max_p = self.min_power_mw, self.rated_power_mw
        if not min_p - SLACK_MW <= setpoint_mw <= max_p + SLACK_MW:
            raise TableError(f"setpoint {setpoint_mw} MW outside operating band "
                             f"[{min_p}, {max_p}] MW", None, "setpoint_mw")

    @property
    def ramp_up_mw_per_s(self) -> float:
        return self.ramp_up * self.rated_power_mw

    @property
    def ramp_down_mw_per_s(self) -> float:
        return self.ramp_down * self.rated_power_mw


def _fleet_sum(name: str) -> property:
    """A fleet total, ``Σ count·value``: the plain sum when every count is 1."""
    return property(lambda fleet: sum(n * getattr(u, name)
                                      for u, n in zip(fleet.units, fleet.counts)))


@dataclass(frozen=True)
class Fleet:
    """A pool of electrolyzer units marketed together: ``counts[i]``
    identical copies of ``units[i]``, one of each unless given."""

    units: tuple[ElectrolyzerUnit, ...]
    counts: tuple[int, ...] = ()

    rated_power_mw = _fleet_sum("rated_power_mw")
    min_power_mw = _fleet_sum("min_power_mw")
    ramp_up_mw_per_s = _fleet_sum("ramp_up_mw_per_s")
    ramp_down_mw_per_s = _fleet_sum("ramp_down_mw_per_s")

    def __post_init__(self) -> None:
        units = tuple(self.units)
        counts = tuple(self.counts) or (1,) * len(units)
        if len(counts) != len(units) or not all(isinstance(n, int) and n >= 1 for n in counts):
            raise ValueError(f"need one whole count >= 1 per unit, got {counts} "
                             f"for {len(units)} units")
        object.__setattr__(self, "units", units)
        object.__setattr__(self, "counts", counts)


def aggregate(fleet: Fleet) -> ElectrolyzerUnit:
    """Collapse a fleet into a single equivalent unit.

    Rated power and absolute ramp rates add up across units; the minimum
    load fraction and the per-unit ramp fractions are power-weighted
    averages.  No fleet efficiency curve is synthesized: the aggregate
    carries ``efficiency_curve=None`` and hydrogen accounting has to be
    done per unit.
    """
    if not fleet.units:
        raise ValueError("cannot aggregate an empty fleet")
    total = fleet.rated_power_mw
    share_by_tech: dict[Technology, float] = {}
    for u, n in zip(fleet.units, fleet.counts):
        share_by_tech[u.technology] = share_by_tech.get(u.technology, 0.0) + n * u.rated_power_mw
    # dominant technology by installed capacity; insertion order breaks ties
    tech = max(share_by_tech, key=lambda t: share_by_tech[t])
    return ElectrolyzerUnit(
        name=f"aggregate({sum(fleet.counts)} units, {total:g} MW)",
        technology=tech,
        rated_power_mw=total,
        min_load_fraction=fleet.min_power_mw / total,
        ramp_up=fleet.ramp_up_mw_per_s / total,
        ramp_down=fleet.ramp_down_mw_per_s / total,
        efficiency_curve=None,
    )
