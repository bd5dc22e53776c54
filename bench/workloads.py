"""The four benchmark workloads: seeded inputs, one op each, output checks.

Each workload turns ``--seed`` into a fixed sequence of inputs, cycled by
the benchmark loop.  The program receives only the generated objects and
files.  Inputs follow a fixed design (size strata, command mix) and the
seed jitters values inside it and shuffles the order, so every seed has
the same cost profile and run-to-run spread stays small.

Outputs of the default seed are compared with ``reference_seed0.json``,
recorded from the package as it was when the benchmark was defined; any
other seed is checked against invariants instead.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from elybal import allocate, cli, dispatch, markets, scenario_io
from elybal.model import EfficiencyCurve, ElectrolyzerUnit, Technology

# Captured before any tracing wrapper is installed: checks must not show
# up as program work in the traced run.
_validate_schedule = allocate.validate_schedule

BASE_BLOCK_PRICES = (14.71, 21.92, 62.0, 78.0, 51.0, 36.0)  # shipped capacity-price day


# ------------------------------------------------------------- checking

def compare(ref, got, path: str = "") -> list[str]:
    """Differences of ``got`` from ``ref``; keys only in ``got`` are allowed.

    Floats match within 1e-9 relative, everything else exactly.
    """
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected a mapping, got {got!r}"]
        out = []
        for key, value in ref.items():
            if key not in got:
                out.append(f"{path}.{key}: missing")
            else:
                out.extend(compare(value, got[key], f"{path}.{key}"))
        return out
    if isinstance(ref, list):
        if not isinstance(got, (list, tuple)) or len(got) != len(ref):
            return [f"{path}: expected {len(ref)} items, got {got!r}"]
        out = []
        for i, (r, g) in enumerate(zip(ref, got)):
            out.extend(compare(r, g, f"{path}[{i}]"))
        return out
    if isinstance(ref, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if math.isclose(ref, got, rel_tol=1e-9, abs_tol=1e-12):
            return []
        return [f"{path}: expected {ref!r}, got {got!r}"]
    if ref != got:
        return [f"{path}: expected {ref!r}, got {got!r}"]
    return []


def request_offsets(values, kind: dispatch.SignalKind, bid: float,
                    direction: markets.Direction) -> np.ndarray:
    """Requested power offsets of a signal, as the dispatch model reads it."""
    v = np.asarray(values, dtype=float)
    if kind is dispatch.SignalKind.FREQUENCY_DEVIATION:
        off = np.clip(v / dispatch.DROOP_FULL_ACTIVATION_HZ, -1.0, 1.0) * bid
    else:
        off = np.clip(v, -bid, bid)
    if direction is markets.Direction.POS:
        off = np.minimum(off, 0.0)
    elif direction is markets.Direction.NEG:
        off = np.maximum(off, 0.0)
    return off


def activation_onsets(off: np.ndarray, bid: float) -> int:
    """Starts of sustained full activations, the events compliance grades."""
    full = np.abs(off) >= bid * (1.0 - 1e-9)
    same = np.zeros_like(full)
    same[1:] = full[:-1] & (off[:-1] * off[1:] > 0)
    return int(np.count_nonzero(full & ~same))


def _efficiency_curve(rng: random.Random, min_load: float) -> EfficiencyCurve:
    """Datasheet-like curve from min load to 100 %, best near mid load."""
    return EfficiencyCurve((
        (min_load, round(rng.uniform(52.0, 58.0), 2)),
        (round((min_load + 1.0) / 2.0, 4), round(rng.uniform(47.0, 51.0), 2)),
        (1.0, round(rng.uniform(50.0, 54.0), 2)),
    ))


def _write_signal(path: Path, values, fmt: str) -> None:
    lines = ["time_s,value"] + [f"{k},{v:{fmt}}" for k, v in enumerate(values)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass
class Item:
    """One input of a workload's sequence."""

    label: str
    data: dict
    counts: dict = field(default_factory=dict)  # input properties for the traced run


class Workload:
    name = ""
    why = ""
    setup_code = "import elybal"  # program-side preparation timed by setup_s

    def __init__(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}/{seed}")
        self.items: list[Item] = []

    def run(self, item: Item):
        raise NotImplementedError

    def summary(self, item: Item, out) -> object:
        """Reference-comparable, JSON-able view of an op's output."""
        raise NotImplementedError

    def invariants(self, item: Item, out) -> list[str]:
        raise NotImplementedError

    def properties(self) -> dict:
        raise NotImplementedError


# ---------------------------------------------------------- alloc-sweep

# (rated MW, min load fraction, ramp %/s): one plant per size stratum.
# Large plants sit at the slow, high-min-load end so that a single
# trading day stays below about 0.2 s at the seed; the cubic growth of
# the search still dominates the tail.  19 plants x 3 option sets makes
# an odd cycle, so p50 and p90 fall inside a run of repeats of one input
# rather than on the edge between two.
ALLOC_PLANTS = (
    (5, 0.25, 0.61), (8, 0.10, 1.0), (12, 0.30, 0.50), (18, 0.15, 0.80), (25, 0.40, 0.30),
    (35, 0.20, 0.70), (45, 0.50, 0.25), (60, 0.30, 0.50), (75, 0.45, 0.30), (90, 0.35, 0.40),
    (110, 0.50, 0.167), (130, 0.60, 0.40), (155, 0.50, 0.25), (180, 0.45, 0.20),
    (205, 0.55, 0.15), (220, 0.50, 0.14), (235, 0.50, 0.13), (265, 0.55, 0.12), (295, 0.60, 0.10),
)
OPTION_SETS = ("free", "pinned", "hydrogen")


class AllocSweep(Workload):
    name = "alloc-sweep"
    why = ("one op is one optimize_day trading day for a 4-300 MW plant; the allocate "
           "search does nearly all the work and its cubic cost sits in the 200-300 MW tail")
    setup_code = (
        "import elybal\n"
        "from elybal import allocate, markets\n"
        "products = [markets.fcr(), markets.afrr('POS')]\n"
        "allocate.AllocationOptions()\n"
    )

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        rng = self.rng
        self.products = (markets.fcr(), markets.afrr(markets.Direction.POS))
        self.prices = markets.CapacityPriceTable({
            block.label: round(base * rng.uniform(0.8, 1.2), 2)
            for block, base in zip(markets.CANONICAL_BLOCKS, BASE_BLOCK_PRICES)
        })
        self.afrr_block = round(4.0 * rng.uniform(15.0, 25.0), 2)
        for i, (rated, min_load, ramp_pct) in enumerate(ALLOC_PLANTS):
            for option_set in OPTION_SETS:
                p = min(300.0, max(4.0, round(rated * rng.uniform(0.98, 1.02), 1)))
                u = round(min(0.60, max(0.10, min_load + rng.uniform(-0.01, 0.01))), 3)
                r = round(min(1.0, max(0.10, ramp_pct * rng.uniform(0.98, 1.02))), 3)
                unit = ElectrolyzerUnit(
                    name=f"plant-{i}", technology=(Technology.AEL, Technology.PEM)[i % 2],
                    rated_power_mw=p, min_load_fraction=u, ramp_up=r / 100.0,
                    efficiency_curve=_efficiency_curve(rng, u),
                )
                if option_set == "pinned":
                    cap = math.floor(min(unit.ramp_up_mw_per_s * 30.0, p * (1 - u) / 2) + 1e-9)
                    options = allocate.AllocationOptions(pre_reserved_fcr_mw=float(max(1, cap // 2)))
                elif option_set == "hydrogen":
                    options = allocate.AllocationOptions(
                        hydrogen_value_eur_per_kg=round(rng.uniform(1.5, 4.0), 2)
                    )
                else:
                    options = allocate.AllocationOptions()
                self.items.append(Item(f"{p:g}MW/{option_set}",
                                       {"unit": unit, "options": options, "set": option_set}))
        rng.shuffle(self.items)

    def run(self, item):
        return allocate.optimize_day(item.data["unit"], self.products, self.prices,
                                     self.afrr_block, item.data["options"])

    def summary(self, item, out):
        return out.to_dict()

    def invariants(self, item, out):
        problems = []
        try:
            _validate_schedule(item.data["unit"], out.schedule)
        except ValueError as exc:
            problems.append(f"schedule rejected: {exc}")
        revenue = sum(
            e.quantity_mw * (self.prices.price(e.block) if e.product.kind is markets.ProductKind.FCR
                             else self.afrr_block)
            for e in out.schedule.entries
        )
        if not math.isclose(revenue, out.capacity_revenue_eur, rel_tol=1e-9, abs_tol=1e-9):
            problems.append(f"revenue {out.capacity_revenue_eur} != sum of bids {revenue}")
        return problems

    def properties(self):
        from tracing import setpoint_grid_size

        hist: dict[str, int] = {}
        blocks = []
        for item in self.items:
            unit = item.data["unit"]
            lo = int(unit.rated_power_mw // 50) * 50
            key = f"{lo}-{lo + 50}MW"
            hist[key] = hist.get(key, 0) + 1
            blocks.append(setpoint_grid_size(unit.min_power_mw, unit.rated_power_mw, 1.0) * 6)
        return {
            "ops_per_cycle": len(self.items),
            "plant_size_histogram": dict(sorted(hist.items(), key=lambda kv: int(kv[0].split("-")[0]))),
            "option_sets": {s: sum(1 for i in self.items if i.data["set"] == s) for s in OPTION_SETS},
            "setpoint_blocks": {"min": min(blocks), "median": float(np.median(blocks)),
                                "max": max(blocks), "per_cycle": sum(blocks)},
        }


# -------------------------------------------------------------- replay-*

class _Replay(Workload):
    """Signal file -> load_signal -> simulate -> check_compliance -> hydrogen_output."""

    n_inputs = 13  # odd, for the same reason as ALLOC_PLANTS
    samples = 14_400  # one 4 h delivery block of 1 s samples
    setup_code = (
        "import elybal\n"
        "from elybal import dispatch, markets, model, scenario_io\n"
        "products = [markets.fcr(), markets.afrr('POS')]\n"
    )
    kind = dispatch.SignalKind.FREQUENCY_DEVIATION

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        rng = self.rng
        for i in range(self.n_inputs):
            p = round(rng.uniform(80.0, 120.0), 1)
            u = round(rng.uniform(0.10, 0.40), 3)
            r = round(rng.uniform(0.20, 1.00), 3)
            unit = ElectrolyzerUnit(
                name=f"plant-{i}", technology=Technology.PEM, rated_power_mw=p,
                min_load_fraction=u, ramp_up=r / 100.0,
                efficiency_curve=_efficiency_curve(rng, u),
            )
            bid = float(rng.randint(2, 12))
            setpoint = float(round((unit.min_power_mw + p) / 2.0))
            values = self._signal(rng, bid)
            path = workdir / f"{self.name}-{i}.csv"
            _write_signal(path, values, self.value_format)
            # the generated text is what the program reads
            values = [float(line.split(",")[1]) for line in
                      path.read_text(encoding="utf-8").splitlines()[1:]]
            gradings = [(prod, setpoint) for prod in self.products()]
            counts = {"onsets": 0, "signal_changes": 0, "signal_samples": 0}
            for j, (prod, _) in enumerate(gradings):
                off = request_offsets(values, self.kind, bid, prod.direction)
                counts["onsets"] += activation_onsets(off, bid)
                if j == 0:
                    counts["signal_changes"] += int(np.count_nonzero(off[1:] != off[:-1]))
                    counts["signal_samples"] += len(off) - 1
            self.items.append(Item(
                f"{p:g}MW/bid{bid:g}",
                {"unit": unit, "bid": bid, "path": path, "gradings": gradings},
                counts,
            ))

    def products(self):
        return [markets.fcr()]

    def run(self, item):
        d = item.data
        signal = scenario_io.load_signal(d["path"], self.kind)
        graded = []
        for product, setpoint in d["gradings"]:
            trajectory = dispatch.simulate(d["unit"], setpoint, d["bid"], signal, product.direction)
            compliance = dispatch.check_compliance(trajectory, signal, product, setpoint, d["bid"])
            kg = dispatch.hydrogen_output(trajectory, d["unit"].efficiency_curve)
            graded.append((product, setpoint, trajectory, compliance, kg))
        return signal, graded

    def summary(self, item, out):
        _, graded = out
        rows = []
        for product, _, _, compliance, kg in graded:
            row = {"product": product.label, "hydrogen_kg": float(kg)}
            row.update(compliance.to_dict())
            rows.append(row)
        return rows

    def invariants(self, item, out):
        signal, graded = out
        problems = []
        for product, setpoint, trajectory, compliance, kg in graded:
            powers = np.asarray(trajectory.powers_mw, dtype=float)
            if len(powers) != len(signal.values):
                problems.append(f"{product.label}: {len(powers)} samples for {len(signal.values)}")
                continue
            dev = powers - setpoint
            energy = float(np.trapezoid(dev, dx=trajectory.timestep_s)) / 3600.0
            scale = float(np.sum(np.abs(dev))) * trajectory.timestep_s / 3600.0
            if abs(energy - compliance.delivered_energy_mwh) > 1e-9 * max(scale, 1e-9):
                problems.append(f"{product.label}: energy {compliance.delivered_energy_mwh} "
                                f"!= trapezoid {energy}")
            if not kg > 0:
                problems.append(f"{product.label}: hydrogen output {kg} kg")
        return problems

    def properties(self):
        changes = sum(i.counts["signal_changes"] for i in self.items)
        samples = sum(i.counts["signal_samples"] for i in self.items)
        return {
            "ops_per_cycle": len(self.items),
            "samples_per_signal": self.samples,
            "gradings_per_op": [p.label for p in self.products()],
            "change_ratio": changes / samples,
            "onsets_per_op": sum(i.counts["onsets"] for i in self.items) / len(self.items),
        }


class ReplayFrequency(_Replay):
    name = "replay-frequency"
    why = ("one op replays a 4 h FCR block of 1 s frequency samples; the request changes "
           "almost every sample, so a path for piecewise-constant signals is bypassed here")
    value_format = ".4f"

    def _signal(self, rng, bid):
        # mean-reverting walk (about 0.1 Hz spread, 200 s memory) that
        # leaves the +/-0.2 Hz droop band a few percent of the time,
        # reflected at +/-0.3 Hz
        f, values = 0.0, []
        for _ in range(self.samples):
            f += -0.005 * f + rng.gauss(0.0, 0.01)
            if f > 0.3:
                f = 0.6 - f
            elif f < -0.3:
                f = -0.6 - f
            values.append(f)
        return values


class ReplaySteps(_Replay):
    name = "replay-steps"
    why = ("same pipeline and block length on setpoint requests held 1-15 min, graded as FCR "
           "and as aFRR POS; piecewise-constant input with many activation onsets")
    kind = dispatch.SignalKind.SETPOINT_REQUEST
    value_format = "g"

    def products(self):
        return [markets.fcr(), markets.afrr(markets.Direction.POS)]

    def _signal(self, rng, bid):
        # fixed time per level class (full +bid, full -bid, zero, in
        # between), so every signal grades the same amount of activation;
        # the seed orders the holds and picks the in-between levels
        holds = []
        for levels in ([bid] * 8, [-bid] * 8, [0.0] * 6,
                       [round(rng.uniform(-bid, bid), 2) for _ in range(8)]):
            holds += zip(levels, np.linspace(60, 900, len(levels)).round().astype(int))
        rng.shuffle(holds)
        values: list[float] = []
        for level, length in holds:
            values.extend([level] * int(length))
        return values[: self.samples]


# ------------------------------------------------------------ cli-batch

# the fixed command mix of one cycle: (command, output format, count).
# 45 ops: cheap preset checks and economics reports are 60 %, so p50 falls
# among them; the fleet checks are 20 %, so p90 is the median fleet (5.5 GW).
CLI_MIX = (
    ("eligibility-preset", "text", 11), ("eligibility-preset", "json", 7),
    ("economics", "text", 9), ("allocate", "json", 4), ("simulate", "json", 5),
    ("eligibility-fleet", "text", 5), ("eligibility-fleet", "json", 4),
)
FLEET_PRESETS = (("sunfire-ael", 10.0), ("questone", 10.0))
# (rated MW, min load %, ramp %/s, options) for the allocate commands
CLI_PLANTS = (
    (4, 25, 0.61, "free"), (25, 30, 0.5, "hydrogen"), (50, 40, 0.3, "pinned"),
    (100, 50, 0.167, "pinned"),
)
# (preset, rated MW, min load fraction) for the simulate commands
CLI_SIM_UNITS = (("demo4grid", 4.0, 0.25), ("sunfire-ael", 10.0, 0.25), ("questone", 10.0, 0.10),
                 ("elyzer", 17.5, 0.40), ("thyssenkrupp", 20.0, 0.10))

_NUM = r"(-?[0-9.]+(?:e[-+]?[0-9]+)?)"


def _search(pattern: str, text: str):
    m = re.search(pattern, text, re.MULTILINE)
    return m.groups() if m else None


def _num(pattern: str, text: str):
    g = _search(pattern, text)
    return float(g[0]) if g else None


class CliBatch(Workload):
    name = "cli-batch"
    why = ("in-process elybal.cli.main calls over a fixed mix of eligibility, allocate, simulate "
           "and economics commands; parsing, CLI dispatch and report writing dominate")
    setup_code = "import elybal\nimport elybal.cli\nelybal.cli.build_parser()\n"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        rng = self.rng
        self.out_dir = workdir / "out"
        prices = workdir / "prices.csv"
        prices.write_text("block,price_eur_per_mw\n" + "".join(
            f"{b.label},{round(base * rng.uniform(0.8, 1.2), 2)}\n"
            for b, base in zip(markets.CANONICAL_BLOCKS, BASE_BLOCK_PRICES)
        ), encoding="utf-8")
        mix = [(c, f) for c, f, n in CLI_MIX for _ in range(n)]
        rng.shuffle(mix)
        # fleet sizes evenly spaced over 1-10 GW, each jittered by 1 %
        n_fleets = sum(n for c, _, n in CLI_MIX if c == "eligibility-fleet")
        fleet_mw = [(1000.0 + 9000.0 * k / (n_fleets - 1)) * rng.uniform(0.99, 1.01)
                    for k in range(n_fleets)]
        plants = list(CLI_PLANTS)
        sim_units = list(CLI_SIM_UNITS)
        for pool in (fleet_mw, plants, sim_units):
            rng.shuffle(pool)
        for i, (command, fmt) in enumerate(mix):
            if command == "eligibility-preset":
                argv, counts = self._preset_eligibility(rng, fmt), {}
            elif command == "eligibility-fleet":
                argv, counts = self._fleet_eligibility(rng, i, fleet_mw.pop(), fmt), {}
            elif command == "allocate":
                argv, counts = self._allocate(rng, i, plants.pop()), {}
            elif command == "simulate":
                argv, counts = self._simulate(rng, i, sim_units.pop())
            else:
                argv, counts = self._economics(rng, i), {}
            self.items.append(Item(f"{command}/{fmt}",
                                   {"argv": argv, "command": command, "format": fmt}, counts))

    # ---- input generation

    def _preset_eligibility(self, rng, fmt):
        key = rng.choice(sorted(scenario_io.PRESETS))
        entry = scenario_io.PRESETS[key]
        product = rng.choice(("fcr", "afrr-pos", "afrr-neg", "mfrr-pos", "mfrr-neg"))
        argv = ["eligibility", "--preset", key, "--product", product,
                "--bid", str(rng.randint(1, max(1, int(entry.power_mw / 3))))]
        if rng.random() < 0.3:
            lo = entry.power_mw * entry.range_min_pct / 100.0
            setpoint = min(entry.power_mw, max(lo, round(rng.uniform(lo, entry.power_mw), 3)))
            argv += ["--setpoint", str(setpoint)]
        if fmt == "json":
            argv += ["--format", "json"]
        return argv

    def _fleet_eligibility(self, rng, i, total_mw, fmt):
        share = rng.uniform(0.5, 0.7)
        (a, pa), (b, pb) = FLEET_PRESETS
        path = self.workdir / f"fleet-{i}.scenario"
        path.write_text(
            f"[scenario]\nname = fleet-{i}\n\n"
            f"[unit]\npreset = {a}\ncount = {max(1, round(total_mw * share / pa))}\n\n"
            f"[unit]\npreset = {b}\ncount = {max(1, round(total_mw * (1 - share) / pb))}\n",
            encoding="utf-8",
        )
        argv = ["eligibility", "--fleet", str(path), "--product", "fcr",
                "--bid", str(rng.randint(10, 500))]
        if fmt == "json":
            argv += ["--format", "json"]
        return argv

    def _unit_section(self, rng, i, rated, min_pct, ramp, with_curve):
        p = round(rated * rng.uniform(0.95, 1.05), 1)
        u = round(min_pct + rng.uniform(-2.0, 2.0), 1)
        r = round(ramp * rng.uniform(0.95, 1.05), 3)
        text = (f"[unit]\nname = plant {i}\ntechnology = AEL\nrated_power_mw = {p}\n"
                f"min_load_pct = {u}\nramp_up_pct_per_s = {r}\n")
        if with_curve:
            text += (f"efficiency_points = {u}:{rng.uniform(52, 58):.2f}, "
                     f"{(u + 100) / 2:.2f}:{rng.uniform(47, 51):.2f}, "
                     f"100:{rng.uniform(50, 54):.2f}\n")
        return text, p, u / 100.0, r / 100.0

    def _allocate(self, rng, i, plant):
        rated, min_pct, ramp, options = plant
        unit_text, p, u, r = self._unit_section(rng, i, rated, min_pct, ramp,
                                                options == "hydrogen")
        if options == "pinned":
            cap = math.floor(min(r * p * 30.0, p * (1 - u) / 2) + 1e-9)
            alloc = f"[allocate]\npre_reserved_fcr_mw = {max(1, cap // 2)}\n"
        elif options == "hydrogen":
            alloc = f"[allocate]\nhydrogen_value_eur_per_kg = {rng.uniform(1.5, 4.0):.2f}\n"
        else:
            alloc = ""
        formats = rng.choice(("json", "json, csv"))
        path = self.workdir / f"alloc-{i}.scenario"
        path.write_text(
            f"[scenario]\nname = alloc-{i}\n\n{unit_text}\n"
            "[product]\nkind = fcr\n\n[product]\nkind = afrr\ndirection = pos\n\n"
            f"[prices]\nfcr_capacity_csv = prices.csv\n"
            f"afrr_price_eur_per_mw_h = {rng.uniform(15, 25):.2f}\n\n"
            f"{alloc}\n[output]\nformats = {formats}\n",
            encoding="utf-8",
        )
        return ["allocate", "--scenario", str(path), "--out", str(self.out_dir)]

    def _simulate(self, rng, i, sim_unit):
        preset_key, rated, min_load = sim_unit
        product = rng.choice(("fcr", "afrr-pos"))
        bid = max(1, int(rng.uniform(0.1, 0.3) * rated))
        lo = rated * min_load
        setpoint = round((lo + rated) / 2.0, 1) if product == "fcr" else rated
        n = rng.randint(120, 600)  # at most 10 min of 1 s samples
        if rng.random() < 0.5:
            kind = dispatch.SignalKind.SETPOINT_REQUEST
            hold = rng.randint(20, 120)
            values = [(-bid if (k // hold) % 2 == 0 else 0.0) for k in range(n)]
            signal_path = self.workdir / f"sim-{i}.csv"
            _write_signal(signal_path, values, "g")
        else:
            kind = dispatch.SignalKind.FREQUENCY_DEVIATION
            f, values = 0.0, []
            for _ in range(n):
                f = max(-0.3, min(0.3, f - 0.02 * f + rng.gauss(0.0, 0.02)))
                values.append(f)
            signal_path = self.workdir / f"sim-{i}.csv"
            _write_signal(signal_path, values, ".4f")
            values = [float(f"{v:.4f}") for v in values]
        direction = markets.product_from_name(product).direction
        off = request_offsets(values, kind, bid, direction)
        counts = {"onsets": activation_onsets(off, bid),
                  "signal_changes": int(np.count_nonzero(off[1:] != off[:-1])),
                  "signal_samples": len(off) - 1}
        formats = rng.choice(("json", "json, csv", "json, plotdata"))
        path = self.workdir / f"sim-{i}.scenario"
        kind_name = "setpoint" if kind is dispatch.SignalKind.SETPOINT_REQUEST else "frequency"
        path.write_text(
            f"[scenario]\nname = sim-{i}\n\n[unit]\npreset = {preset_key}\n\n"
            f"[product]\nkind = {product.split('-')[0]}\n"
            + (f"direction = pos\n" if product == "afrr-pos" else "")
            + f"\n[dispatch]\nsetpoint_mw = {setpoint}\nbid_mw = {bid}\nproduct = {product}\n\n"
            f"[signal]\nkind = {kind_name}\ncsv = {signal_path.name}\n\n"
            f"[output]\nformats = {formats}\n",
            encoding="utf-8",
        )
        return ["simulate", "--scenario", str(path), "--out", str(self.out_dir)], counts

    def _economics(self, rng, i):
        path = self.workdir / f"eco-{i}.scenario"
        if rng.random() < 0.5:  # fleet coverage, like the shipped fleet scenarios
            body = (f"[economics]\nrequired_reserve_mw = {rng.randint(300, 3000)}\n"
                    f"fleet_power_mw = {rng.randint(5, 40) * 1000}\n"
                    f"coverage_symmetric = {rng.choice(('true', 'false'))}\n")
        else:  # plant revenue, like revenue_100mw
            sp = rng.randint(50, 95)
            body = (f"[prices]\nfcr_capacity_csv = prices.csv\n"
                    f"afrr_price_eur_per_mw_h = {rng.uniform(15, 25):.2f}\n\n"
                    f"[economics]\nsetpoint_mw = {sp}\nhours_per_day = 24\n"
                    f"electricity_price_eur_per_mwh = {rng.uniform(30, 90):.2f}\n"
                    f"grid_fee_pct = {rng.randint(0, 40)}\nfcr_bid_mw = {rng.randint(1, 10)}\n"
                    f"afrr_quantity_mw = {rng.randint(5, 40)}\n")
        path.write_text(f"[scenario]\nname = eco-{i}\n\n{body}", encoding="utf-8")
        return ["economics", "--scenario", str(path)]

    # ---- op and checks

    def run(self, item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(item.data["argv"]))
        return code, out.getvalue(), err.getvalue()

    def _read_json(self, name: str):
        path = self.out_dir / name
        return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else None

    def summary(self, item, out):
        code, stdout, _ = out
        command, fmt = item.data["command"], item.data["format"]
        s: dict = {"exit": code}
        if command.startswith("eligibility"):
            if fmt == "json":
                start, end = stdout.find("{"), stdout.rfind("}")
                s["report"] = json.loads(stdout[start:end + 1]) if start >= 0 else None
            else:
                verdict = _search(r"^(eligible|ineligible \(limiting constraint: (\w+)\))$", stdout)
                s["eligible"] = verdict[0] == "eligible" if verdict else None
                s["limiting"] = verdict[1] if verdict else None
                bid = _search(rf"^bid: {_NUM} MW at setpoint {_NUM} MW$", stdout)
                s["bid_mw"] = float(bid[0]) if bid else None
                s["setpoint_mw"] = float(bid[1]) if bid else None
                s["max_offerable_mw"] = _num(rf"max offerable at this setpoint: {_NUM} MW", stdout)
        elif command == "allocate":
            name = Path(item.data["argv"][2]).stem
            s["capacity_revenue_eur"] = _num(rf"capacity revenue {_NUM} euro/day", stdout)
            s["allocation"] = self._read_json(f"{name}.allocation.json")
        elif command == "simulate":
            name = Path(item.data["argv"][2]).stem
            compliant = _search(r"compliant: (True|False)", stdout)
            s["compliant"] = compliant[0] == "True" if compliant else None
            s["max_delivery_delay_s"] = _num(rf"max delivery delay: {_NUM} s", stdout)
            s["delivered_energy_mwh"] = _num(rf"delivered energy: {_NUM} MWh", stdout)
            s["compliance"] = self._read_json(f"{name}.compliance.json")
        else:
            for key, pattern in (("fcr_eur", rf"FCR {_NUM} euro/day"),
                                 ("afrr_eur", rf"aFRR {_NUM} euro/day"),
                                 ("savings_ratio_pct", rf"savings ratio {_NUM}%"),
                                 ("fleet_share_pct", rf"fleet share {_NUM}%"),
                                 ("band_pct", rf"band {_NUM}%")):
                s[key] = _num(pattern, stdout)
        return s

    def invariants(self, item, out):
        code, stdout, stderr = out
        if code not in (0, 2):
            return [f"exit {code}: {stderr.strip()[:200]}"]
        if not stdout.strip():
            return ["empty stdout"]
        return []

    def properties(self):
        mix: dict[str, int] = {}
        fleets = []
        for item in self.items:
            key = f"{item.data['command']}/{item.data['format']}"
            mix[key] = mix.get(key, 0) + 1
            if item.data["command"] == "eligibility-fleet":
                text = Path(item.data["argv"][2]).read_text(encoding="utf-8")
                counts = [int(c) for c in re.findall(r"count = (\d+)", text)]
                fleets.append(sum(c * p for c, (_, p) in zip(counts, FLEET_PRESETS)))
        sim = [i for i in self.items if i.data["command"] == "simulate"]
        changes = sum(i.counts["signal_changes"] for i in sim)
        samples = sum(i.counts["signal_samples"] for i in sim)
        return {
            "ops_per_cycle": len(self.items),
            "command_mix": dict(sorted(mix.items())),
            "fleet_mw": sorted(fleets),
            "simulate_change_ratio": changes / samples if samples else 0.0,
            "simulate_onsets_per_op": sum(i.counts["onsets"] for i in sim) / max(1, len(sim)),
        }


WORKLOADS = {cls.name: cls for cls in (AllocSweep, ReplayFrequency, ReplaySteps, CliBatch)}
