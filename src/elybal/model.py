"""Domain model: electrolyzer units, fleets and partial-load efficiency."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np


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
            if e <= 0:
                raise ValueError(f"specific energy must be > 0, got {e} kWh/kg at load fraction {f}")

    @property
    def domain(self) -> tuple[float, float]:
        """Lowest and highest load fraction covered by the curve."""
        return self.breakpoints[0][0], self.breakpoints[-1][0]

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        """Breakpoints widened by the 1e-12 domain band, which takes the edge values."""
        fractions, energies = zip(*self.breakpoints)
        return (np.array([fractions[0] - 1e-12, *fractions, fractions[-1] + 1e-12]),
                np.array([energies[0], *energies, energies[-1]]))


def specific_energy_at(
    curve: EfficiencyCurve | None, load_fraction: float | np.ndarray
) -> float | np.ndarray:
    """Specific energy (kWh/kg) at ``load_fraction``, linearly interpolated.

    ``load_fraction`` is a float or an array of them; a float gives a
    float, an array an array of the same shape.  Raises ValueError when
    there is no curve and outside the curve domain: no extrapolation.
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
        if not 0 < self.min_load_fraction < 1:
            raise ValueError(
                f"min_load_fraction must be in (0, 1), got {self.min_load_fraction}"
            )
        if self.ramp_down is None:
            object.__setattr__(self, "ramp_down", self.ramp_up)
        for name in ("rated_power_mw", "ramp_up", "ramp_down"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if self.efficiency_curve is not None:
            lo, hi = self.efficiency_curve.domain
            if lo < self.min_load_fraction - 1e-9 or hi > 1.0 + 1e-9:
                raise ValueError(
                    "efficiency breakpoints must lie within "
                    f"[{self.min_load_fraction}, 1.0], curve covers [{lo}, {hi}]"
                )

    @property
    def min_power_mw(self) -> float:
        return self.min_load_fraction * self.rated_power_mw

    def check_setpoint(self, setpoint_mw: float) -> None:
        """Raise ValueError unless ``setpoint_mw`` lies in [min load, rated
        power], 1e-9 MW slack; NaN lies outside."""
        min_p, max_p = self.min_power_mw, self.rated_power_mw
        if not min_p - 1e-9 <= setpoint_mw <= max_p + 1e-9:
            raise ValueError(
                f"setpoint {setpoint_mw} MW outside operating band [{min_p}, {max_p}] MW"
            )

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
