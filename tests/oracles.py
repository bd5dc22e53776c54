"""Reference implementations the fast code paths are checked against.

All are deliberately naive: ``brute_force_oracle`` tries every integer
(FCR, aFRR) pair at every setpoint and states the bid rules on its own,
``optimize_day_loop`` scores the allocator's corner candidates
(``corner_candidates``) one setpoint at a time, ``pick_row`` applies the
allocator's tie rule to one row of candidates one stage at a time,
``capacity_limit_scalar`` and ``tradable_scalar`` state the bid caps in
Python floats, and ``max_offerable_scan`` walks the bids down from rated
power through ``check_eligibility``.  The dispatch references
(``simulate_loop``, ``check_compliance_loop``, ``hydrogen_output_loop``
and ``specific_energy_at_scalar``) step through the samples one at a
time with the scalar request rule ``requested_offset``.  ``load_signal_rows``
reads a signal CSV row by row through its own ``csv.reader`` loop and
``float``, sharing no code with the loader.  Keep them
plain; their job is to be obviously right, not fast.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

import numpy as np

from elybal.allocate import (
    AllocationOptions,
    AllocationResult,
    BidSchedule,
    ScheduleEntry,
    _grid_points,
    _hydrogen_loss_kg,
    _min_tradable_mw,
    _pick,
    _split_products,
)
from elybal.dispatch import (
    DELIVERY_TOLERANCE,
    DROOP_FULL_ACTIVATION_HZ,
    ActivationSignal,
    ComplianceResult,
    PowerTrajectory,
    SignalKind,
)
from elybal.eligibility import (
    capacity_limit_mw,
    check_eligibility,
    default_setpoint,
    tradable_mw,
)
from elybal.markets import (
    CANONICAL_BLOCKS,
    BalancingProduct,
    CapacityPriceTable,
    Direction,
    TableError,
)
from elybal.model import EfficiencyCurve, ElectrolyzerUnit
from elybal.scenario_io import ScenarioError

_EPS = 1e-9


def brute_force_oracle(
    unit: ElectrolyzerUnit,
    products: list[BalancingProduct] | tuple[BalancingProduct, ...],
    fcr_prices: CapacityPriceTable | None,
    afrr_price_per_block_eur: float | None,
    options: AllocationOptions | None = None,
    max_combinations: int = 10**6,
) -> AllocationResult:
    """Reference optimizer: plain cross product over all integer bids.

    Shares only the objective and the tie rule (``_pick``, applied to all
    feasible pairs of a block) with ``optimize_day``.  Refuses to run when
    the search space exceeds ``max_combinations``.
    """
    options = options or AllocationOptions()
    fcr_prod, afrr_prod = _split_products(tuple(products))

    min_p, max_p = unit.min_power_mw, unit.rated_power_mw
    h2_value = options.hydrogen_value_eur_per_kg
    lowest_sp = min_p
    if h2_value is not None:
        # forgone production is only known where the efficiency curve is
        lowest_sp = max(min_p, unit.efficiency_curve.domain[0] * max_p)
    setpoints = _grid_points(lowest_sp, max_p, options.setpoint_grid_mw).tolist()
    n_quant = int(math.floor(max_p / 1.0 + _EPS)) + 1
    space = len(CANONICAL_BLOCKS) * len(setpoints) * n_quant * n_quant
    if space > max_combinations:
        raise ValueError(
            f"search space of {space} combinations exceeds the oracle bound {max_combinations}"
        )

    def feasible(sp: float, q_f: float, q_a: float) -> bool:
        if options.pre_reserved_fcr_mw is not None:
            if abs(q_f - options.pre_reserved_fcr_mw) > _EPS:
                return False
        if q_f > 0:
            if fcr_prod is None or q_f < fcr_prod.min_bid_mw - _EPS:
                return False
            lots = q_f / fcr_prod.trade_increment_mw
            if abs(lots - round(lots)) > _EPS:
                return False
            if sp - q_f < min_p - _EPS or sp + q_f > max_p + _EPS:
                return False
            slowest = min(unit.ramp_up_mw_per_s, unit.ramp_down_mw_per_s)
            if q_f > slowest * fcr_prod.availability_s + _EPS:
                return False
        if q_a > 0:
            if afrr_prod is None or q_a < afrr_prod.min_bid_mw - _EPS:
                return False
            lots = q_a / afrr_prod.trade_increment_mw
            if abs(lots - round(lots)) > _EPS:
                return False
            if sp - q_f - q_a < min_p - _EPS:
                return False
            if q_a > unit.ramp_down_mw_per_s * afrr_prod.availability_s + _EPS:
                return False
        return True

    duration = fcr_prod.duration_h if fcr_prod else afrr_prod.duration_h
    entries: list[ScheduleEntry] = []
    revenue = 0.0
    h2_loss_total = 0.0
    for block in CANONICAL_BLOCKS:
        fcr_price = fcr_prices.price(block) if fcr_prod is not None else 0.0
        afrr_price = afrr_price_per_block_eur if afrr_prod is not None else 0.0
        candidates = []  # (score, reserved, q_f, sp, q_a)
        for sp in setpoints:
            if h2_value is not None:
                h2_cost = h2_value * _hydrogen_loss_kg(unit, sp, duration)
            else:
                h2_cost = 0.0
            for qf_lots in range(n_quant):
                q_f = float(qf_lots)
                for qa_lots in range(n_quant):
                    q_a = float(qa_lots)
                    if feasible(sp, q_f, q_a):
                        score = q_f * fcr_price + q_a * afrr_price - h2_cost
                        candidates.append((score, q_f + q_a, q_f, sp, q_a))
        q_f, q_a, sp = 0.0, 0.0, max_p
        if candidates:
            score, reserved, fcr_q, setpoint, _ = np.array(candidates).T
            best = _pick(score, reserved, fcr_q, setpoint)
            _, _, q_f, sp, q_a = candidates[best]
        if q_f > 0:
            entries.append(ScheduleEntry(block, fcr_prod, q_f, sp))
            revenue += q_f * fcr_price
        if q_a > 0:
            entries.append(ScheduleEntry(block, afrr_prod, q_a, sp))
            revenue += q_a * afrr_price
        if h2_value is not None and (q_f > 0 or q_a > 0):
            h2_loss_total += _hydrogen_loss_kg(unit, sp, duration)

    objective = revenue
    if h2_value is not None:
        objective -= h2_loss_total * h2_value
    return AllocationResult(BidSchedule(tuple(entries)), revenue, h2_loss_total, objective)


def pick_row(
    score: np.ndarray, reserved: np.ndarray, q_fcr: np.ndarray, setpoint: np.ndarray
) -> int | None:
    """Reference for ``_pick`` on one row: index of the best candidate, or
    None when there is none.

    The tie rule, applied in turn: the score within ``_EPS`` of the max,
    then the reserved capacity within ``_EPS`` of the min, then the FCR
    quantity within ``_EPS`` of the min, then the highest setpoint (more
    hydrogen), the first candidate on exact ties.
    """
    if not score.size:
        return None
    idx = np.flatnonzero(score >= score.max() - _EPS)
    for key in (reserved, q_fcr):
        values = key[idx]
        idx = idx[values <= values.min() + _EPS]
    return int(idx[np.argmax(setpoint[idx])])


def _better(
    score: float,
    reserved: float,
    q_fcr: float,
    setpoint: float,
    best: tuple[float, float, float, float] | None,
) -> bool:
    """Tie-break order: score, then less reserved capacity, then less FCR,
    then the higher setpoint (more hydrogen)."""
    if best is None:
        return True
    b_score, b_reserved, b_fcr, b_sp = best
    if score > b_score + _EPS:
        return True
    if score < b_score - _EPS:
        return False
    if reserved < b_reserved - _EPS:
        return True
    if reserved > b_reserved + _EPS:
        return False
    if q_fcr < b_fcr - _EPS:
        return True
    if q_fcr > b_fcr + _EPS:
        return False
    return setpoint > b_sp + _EPS


def _fcr_choices(
    fcr_prod: BalancingProduct, fcr_top: float, room: float, afrr_levels: tuple[float, ...]
) -> list[float]:
    """0 plus the FCR quantities where the block score can peak.

    Each FCR lot moves the aFRR origin down, out of ``room``, the headroom
    below the setpoint.  So the aFRR top falls in steps as q_fcr grows:
    flat while the aFRR ramp reach caps it, then one aFRR lot at a time,
    then 0 below the aFRR minimum bid.  Along a step the score rises with
    q_fcr, and across the last FCR lots of the steps it is linear, so the
    optimum is 0, a tradable end, or the last lot of a step (or the lot
    after it) whose aFRR top is in ``afrr_levels``.  That holds when one
    trading increment is a multiple of the other.
    """
    lo = _min_tradable_mw(fcr_prod)
    if fcr_top < lo - _EPS:
        return [0.0]
    candidates = {0.0, lo, fcr_top}
    for level in afrr_levels:
        if level > 0.0:
            last = tradable_mw(room - level, fcr_prod)
            for q in (last, last + fcr_prod.trade_increment_mw):
                candidates.add(min(max(q, lo), fcr_top))
    return sorted(candidates)


def _afrr_top(
    unit: ElectrolyzerUnit, afrr_prod: BalancingProduct | None, origin_mw: float
) -> float:
    if afrr_prod is None:
        return 0.0
    return tradable_mw(capacity_limit_mw(unit, afrr_prod, origin_mw), afrr_prod)


def corner_candidates(
    unit: ElectrolyzerUnit,
    fcr_prod: BalancingProduct | None,
    afrr_prod: BalancingProduct | None,
    pinned: float | None,
    sp: float,
) -> list[tuple[float, float]]:
    """The (q_fcr, q_afrr) corners of one setpoint: FCR ascending, then
    aFRR 0 before its top.  ``pinned`` fixes the FCR quantity."""
    if fcr_prod is None:
        fcr_choices = [0.0]
    else:
        fcr_top = tradable_mw(capacity_limit_mw(unit, fcr_prod, sp), fcr_prod)
        if pinned is not None:
            fcr_choices = [pinned] if pinned <= fcr_top + _EPS else []
        else:
            # aFRR tops that end a linear stretch of the score in q_fcr: the
            # ramp reach, the smallest bid, the top at the lowest FCR lot and
            # the step above the top at the highest
            reach = _afrr_top(unit, afrr_prod, unit.rated_power_mw)
            levels = (
                reach,
                _min_tradable_mw(afrr_prod) if reach > 0.0 else 0.0,
                _afrr_top(unit, afrr_prod, sp - _min_tradable_mw(fcr_prod)),
                _afrr_top(unit, afrr_prod, sp - fcr_top)
                + (afrr_prod.trade_increment_mw if reach > 0.0 else 0.0),
            )
            fcr_choices = _fcr_choices(fcr_prod, fcr_top, sp - unit.min_power_mw, levels)
    corners = []
    for q_fcr in fcr_choices:
        top = _afrr_top(unit, afrr_prod, sp - q_fcr)
        corners += [(q_fcr, 0.0), (q_fcr, top)] if top > 0.0 else [(q_fcr, 0.0)]
    return corners


def _best_for_block(
    unit: ElectrolyzerUnit,
    fcr_prod: BalancingProduct | None,
    fcr_price: float,
    afrr_prod: BalancingProduct | None,
    afrr_price_block: float,
    pinned: float | None,
    setpoint_costs: list[tuple[float, float]],
) -> tuple[float, float, float, float]:
    """Returns (q_fcr, q_afrr, setpoint, score) for one block.

    ``pinned`` fixes the FCR quantity; ``setpoint_costs`` pairs each
    candidate setpoint with its hydrogen cost.
    """
    best_key = None
    best_choice = (0.0, 0.0, unit.rated_power_mw, 0.0)
    for sp, h2_cost in setpoint_costs:
        for q_fcr, q_afrr in corner_candidates(unit, fcr_prod, afrr_prod, pinned, sp):
            score = q_fcr * fcr_price + q_afrr * afrr_price_block - h2_cost
            if _better(score, q_fcr + q_afrr, q_fcr, sp, best_key):
                best_key = (score, q_fcr + q_afrr, q_fcr, sp)
                best_choice = (q_fcr, q_afrr, sp, score)
    return best_choice


def optimize_day_loop(
    unit: ElectrolyzerUnit,
    products: list[BalancingProduct] | tuple[BalancingProduct, ...],
    fcr_prices: CapacityPriceTable | None,
    afrr_price_per_block_eur: float | None,
    options: AllocationOptions | None = None,
) -> AllocationResult:
    """Reference for ``optimize_day`` on days too large for the brute force:
    the same corner candidates, scored one setpoint at a time and kept by
    the sequential comparison ``_better``.  Takes valid inputs only."""
    options = options or AllocationOptions()
    fcr_prod, afrr_prod = _split_products(tuple(products))
    h2_value = options.hydrogen_value_eur_per_kg
    duration = fcr_prod.duration_h if fcr_prod else afrr_prod.duration_h
    lowest_sp = unit.min_power_mw
    if h2_value is not None:
        lowest_sp = max(lowest_sp, unit.efficiency_curve.domain[0] * unit.rated_power_mw)
    setpoint_costs = [
        (sp, h2_value * _hydrogen_loss_kg(unit, sp, duration) if h2_value is not None else 0.0)
        for sp in _grid_points(lowest_sp, unit.rated_power_mw, options.setpoint_grid_mw).tolist()
    ]

    entries: list[ScheduleEntry] = []
    revenue = 0.0
    h2_loss = 0.0
    for block in CANONICAL_BLOCKS:
        q_fcr, q_afrr, sp, _ = _best_for_block(
            unit,
            fcr_prod,
            fcr_prices.price(block) if fcr_prod is not None else 0.0,
            afrr_prod,
            afrr_price_per_block_eur if afrr_prod is not None else 0.0,
            options.pre_reserved_fcr_mw,
            setpoint_costs,
        )
        if q_fcr > 0:
            entries.append(ScheduleEntry(block, fcr_prod, q_fcr, sp))
            revenue += q_fcr * fcr_prices.price(block)
        if q_afrr > 0:
            entries.append(ScheduleEntry(block, afrr_prod, q_afrr, sp))
            revenue += q_afrr * afrr_price_per_block_eur
        if h2_value is not None and (q_fcr > 0 or q_afrr > 0):
            h2_loss += _hydrogen_loss_kg(unit, sp, duration)

    objective = revenue
    if h2_value is not None:
        objective -= h2_loss * h2_value
    return AllocationResult(BidSchedule(tuple(entries)), revenue, h2_loss, objective)


def capacity_limit_scalar(
    unit: ElectrolyzerUnit, product: BalancingProduct, setpoint_mw: float
) -> float:
    """Reference for ``capacity_limit_mw`` at one setpoint: the narrowest
    side the product moves the load to, capped by the slowest ramp's reach
    by the deadline; 0 outside the band (widened by 1e-9 MW) and at NaN."""
    if not unit.min_power_mw - _EPS <= setpoint_mw <= unit.rated_power_mw + _EPS:
        return 0.0
    rooms, ramps = [], []
    if product.direction.lowers_load:
        rooms.append(setpoint_mw - unit.min_power_mw)
        ramps.append(unit.ramp_down_mw_per_s)
    if product.direction.raises_load:
        rooms.append(unit.rated_power_mw - setpoint_mw)
        ramps.append(unit.ramp_up_mw_per_s)
    return min(min(rooms), min(ramps) * product.availability_s)


def tradable_scalar(limit_mw: float, product: BalancingProduct) -> float:
    """Reference for ``tradable_mw`` on one limit: whole lots (a lot short
    by 1e-9 MW counts), kept from the minimum bid on; +inf stays, NaN is 0."""
    if limit_mw != limit_mw:
        return 0.0
    lots = (limit_mw + _EPS) / product.trade_increment_mw
    bid = (math.floor(lots) if math.isfinite(lots) else lots) * product.trade_increment_mw
    return bid if bid >= product.min_bid_mw - _EPS else 0.0


def max_offerable_scan(
    unit: ElectrolyzerUnit,
    product: BalancingProduct,
    setpoint_mw: float | None = None,
) -> tuple[float, float]:
    """Reference for ``max_offerable``: try every lot from rated power down.

    Without a setpoint each candidate bid is hosted at ``default_setpoint``
    moved just far enough to leave the bid headroom, if such a point exists.
    """
    min_p, max_p = unit.min_power_mw, unit.rated_power_mw
    inc = product.trade_increment_mw
    max_lots = int(math.floor(max_p / inc + _EPS))
    for lots in range(max_lots, 0, -1):
        bid = lots * inc
        if bid < product.min_bid_mw - _EPS:
            break
        if setpoint_mw is not None:
            sp = setpoint_mw
        else:
            if product.direction is Direction.SYM:
                lo, hi = min_p + bid, max_p - bid
            elif product.direction is Direction.POS:
                lo, hi = min_p + bid, max_p
            else:
                lo, hi = min_p, max_p - bid
            if lo > hi + _EPS:
                continue
            sp = min(max(default_setpoint(unit, product), lo), hi)
        try:
            report = check_eligibility(unit, product, bid, sp)
        except ValueError:
            continue
        if report.eligible:
            return bid, sp
    fallback = setpoint_mw if setpoint_mw is not None else default_setpoint(unit, product)
    return 0.0, fallback


def requested_offset(
    kind: SignalKind, value: float, bid_mw: float, direction: Direction
) -> float:
    """Power offset (MW) one signal sample requests from a ``bid_mw`` bid."""
    if kind is SignalKind.FREQUENCY_DEVIATION:
        offset = max(-1.0, min(1.0, value / DROOP_FULL_ACTIVATION_HZ)) * bid_mw
    else:
        offset = max(-bid_mw, min(bid_mw, value))
    # one-sided products only ever activate into their own band
    if direction is Direction.POS:
        offset = min(offset, 0.0)
    elif direction is Direction.NEG:
        offset = max(offset, 0.0)
    return offset


def check_band_loop(
    unit: ElectrolyzerUnit, setpoint_mw: float, bid_mw: float, direction: Direction
) -> None:
    """Reference for ``dispatch``'s band check: the setpoint and each power a
    full activation reaches lie in [min load, rated power], 1e-9 MW slack."""
    reach = {Direction.SYM: (-bid_mw, bid_mw), Direction.POS: (-bid_mw, 0.0),
             Direction.NEG: (0.0, bid_mw)}[direction]
    for power in (setpoint_mw, setpoint_mw + reach[0], setpoint_mw + reach[1]):
        if not unit.min_power_mw - 1e-9 <= power <= unit.rated_power_mw + 1e-9:
            raise ValueError(f"setpoint {setpoint_mw} MW cannot host a {bid_mw} MW "
                             f"{direction.value} bid within the operating band")


def simulate_loop(
    unit: ElectrolyzerUnit,
    setpoint_mw: float,
    bid_mw: float,
    signal: ActivationSignal,
    direction: Direction = Direction.SYM,
) -> PowerTrajectory:
    """Reference for ``dispatch.simulate``: one clamp per sample."""
    if bid_mw < 0:
        raise ValueError(f"bid must be >= 0, got {bid_mw}")
    check_band_loop(unit, setpoint_mw, bid_mw, direction)
    dt = signal.timestep_s
    up_step = unit.ramp_up_mw_per_s * dt
    down_step = unit.ramp_down_mw_per_s * dt
    lo, hi = unit.min_power_mw, unit.rated_power_mw
    powers = np.empty(len(signal.values))
    powers[0] = setpoint_mw
    for k in range(1, len(signal.values)):
        offset = requested_offset(signal.kind, signal.values[k - 1], bid_mw, direction)
        target = min(max(setpoint_mw + offset, lo), hi)
        step = target - powers[k - 1]
        step = min(max(step, -down_step), up_step)
        powers[k] = powers[k - 1] + step
    return PowerTrajectory(dt, powers, unit)


def check_compliance_loop(
    trajectory: PowerTrajectory,
    signal: ActivationSignal,
    product: BalancingProduct,
    setpoint_mw: float,
    bid_mw: float,
) -> ComplianceResult:
    """Reference for ``dispatch.check_compliance``: a sequential energy sum
    and, for each onset, a scan to the end of its run."""
    n = len(trajectory.powers_mw)
    if n != len(signal.values):
        raise ValueError(
            f"trajectory ({n} samples) and signal ({len(signal.values)}) differ in horizon"
        )
    if abs(trajectory.timestep_s - signal.timestep_s) > 1e-9 * max(1.0, signal.timestep_s):
        raise ValueError("trajectory and signal timesteps differ")
    dt = trajectory.timestep_s
    powers = trajectory.powers_mw

    energy = 0.0
    for k in range(n - 1):
        energy += 0.5 * ((powers[k] - setpoint_mw) + (powers[k + 1] - setpoint_mw)) * dt
    energy = float(energy) / 3600.0

    if bid_mw <= 0:
        return ComplianceResult(True, None, 0.0, energy)

    offsets = [
        requested_offset(signal.kind, v, bid_mw, product.direction) for v in signal.values
    ]
    full = [abs(o) >= bid_mw * (1.0 - 1e-9) for o in offsets]
    tol = DELIVERY_TOLERANCE * bid_mw

    delays: list[float] = []
    violations: list[float] = []
    for i in range(n):
        same_request = (
            i > 0 and full[i - 1] and offsets[i - 1] * offsets[i] > 0
        )
        if not full[i] or same_request:
            continue
        # onset of a sustained full activation at index i
        required = setpoint_mw + offsets[i]
        end = i
        while end < n and full[end] and offsets[end] * offsets[i] > 0:
            end += 1
        delivered_at = None
        for j in range(i, end):
            if abs(powers[j] - required) <= tol:
                delivered_at = j
                break
        onset_s = i * dt
        if delivered_at is not None:
            delay = (delivered_at - i) * dt
            delays.append(delay)
            if delay > product.availability_s + 1e-9:
                violations.append(onset_s + product.availability_s)
        else:
            observed = (end - 1 - i) * dt
            if observed > product.availability_s + 1e-9:
                # deadline passed while the request was still standing
                delays.append(observed)
                violations.append(onset_s + product.availability_s)

    return ComplianceResult(
        compliant=not violations,
        first_violation_time_s=min(violations) if violations else None,
        max_delivery_delay_s=max(delays, default=0.0),
        delivered_energy_mwh=energy,
    )


def specific_energy_at_scalar(curve: EfficiencyCurve, load_fraction: float) -> float:
    """Reference for ``model.specific_energy_at``: a walk over the segments."""
    lo, hi = curve.domain
    if not (lo - 1e-9 <= load_fraction <= hi + 1e-9):
        raise ValueError(
            f"load fraction {load_fraction} outside efficiency curve domain [{lo}, {hi}]"
        )
    pts = curve.breakpoints
    # exact breakpoint hits are returned verbatim
    for f, e in pts:
        if load_fraction == f:
            return e
    for (f0, e0), (f1, e1) in zip(pts, pts[1:]):
        if f0 <= load_fraction <= f1:
            t = (load_fraction - f0) / (f1 - f0)
            return e0 + t * (e1 - e0)
    # only reachable for queries within the 1e-9 tolerance band at the edges
    return pts[0][1] if load_fraction < lo else pts[-1][1]


def hydrogen_output_loop(trajectory: PowerTrajectory, curve: EfficiencyCurve) -> float:
    """Reference for ``dispatch.hydrogen_output``: one interval at a time."""
    powers = trajectory.powers_mw
    if len(powers) < 2:
        return 0.0
    dt = trajectory.timestep_s
    rated = trajectory.unit.rated_power_mw
    kg = 0.0
    for k in range(len(powers) - 1):
        p_avg = 0.5 * (powers[k] + powers[k + 1])
        energy_kwh = p_avg * dt / 3600.0 * 1000.0
        kg += energy_kwh / specific_energy_at_scalar(curve, p_avg / rated)
    return kg


def _finite_cell(cell: str, key: str, line: int, source: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ScenarioError(f"expected a finite number, got '{cell.strip()}'", key=key,
                            line=line, source=source)
    return value


def load_signal_rows(path: str | Path, kind: SignalKind) -> ActivationSignal:
    """Reference for ``scenario_io.load_signal``: the row walk alone, on its
    own ``csv.reader`` loop.  A row is numbered by the physical file line it
    starts on, counted here as the lines are handed to the reader.  Every
    value cell is checked before any time cell, as the loader does, and a
    leading UTF-8 byte-order mark is skipped."""
    path = Path(path)
    source = str(path)
    try:
        text = path.read_bytes().decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"not UTF-8 text ({exc.reason} at byte {exc.start})",
                            source=source) from None
    handed = 0

    def physical_lines():
        nonlocal handed
        for line in io.StringIO(text, newline=""):
            handed += 1
            yield line

    rows = []
    first_line = 1
    for row in csv.reader(physical_lines()):
        if row:
            rows.append((first_line, row))
        first_line = handed + 1
    if not rows:
        raise ScenarioError("file is empty", source=source)
    header_line, header = rows[0]
    if [cell.strip().lower() for cell in header] != ["time_s", "value"]:
        raise ScenarioError(f"expected header 'time_s,value', got '{','.join(header)}'",
                            line=header_line, source=source)
    values = []
    for lineno, row in rows[1:]:
        if len(row) != 2:
            raise ScenarioError(f"expected 2 columns, got {len(row)}", line=lineno, source=source)
        values.append(_finite_cell(row[1], "value", lineno, source))
    samples = [(_finite_cell(row[0].strip(), "time_s", lineno, source), value)
               for (lineno, row), value in zip(rows[1:], values)]
    try:
        return ActivationSignal.from_rows(kind, samples)
    except TableError as exc:
        line = None if exc.row is None else rows[1 + exc.row][0]
        raise ScenarioError(exc.reason, key="time_s", line=line, source=source) from None
    except ValueError as exc:
        raise ScenarioError(str(exc), source=source) from None
