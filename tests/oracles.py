"""Reference implementations the fast code paths are checked against.

All are deliberately naive: their job is to be obviously right, not fast.
Each states its rule on its own.  Every oracle may share the result types,
the product definitions and the spec constants of ``src/elybal``
(``CANONICAL_BLOCKS``, ``DELIVERY_TOLERANCE``, ``DROOP_FULL_ACTIVATION_HZ``);
each docstring names anything else it shares, and why.

Allocation: ``brute_force_oracle`` tries every integer (FCR, aFRR) pair at
every setpoint, ``optimize_day_loop`` every tradable FCR lot at every
setpoint, and ``pick_row`` applies the tie rule to one row of candidates.
Bids: ``capacity_limit_scalar`` and ``tradable_scalar`` state the caps in
Python floats, and ``max_offerable_scan`` walks the bids down from rated
power.  Dispatch: ``simulate_loop``, ``check_compliance_loop``,
``hydrogen_output_loop`` and ``specific_energy_at_scalar`` step through the
samples one at a time with the scalar request rule ``requested_offset``.
Input: ``load_signal_rows`` reads a signal CSV row by row.
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
    _production_kg,
)
from elybal.dispatch import (
    DELIVERY_TOLERANCE,
    DROOP_FULL_ACTIVATION_HZ,
    ActivationSignal,
    ComplianceResult,
    PowerTrajectory,
    SignalKind,
)
from elybal.eligibility import check_eligibility, default_setpoint
from elybal.markets import (
    CANONICAL_BLOCKS,
    BalancingProduct,
    CapacityPriceTable,
    Direction,
    ProductKind,
    TableError,
)
from elybal.model import EfficiencyCurve, ElectrolyzerUnit
from elybal.scenario_io import ScenarioError

_EPS = 1e-9


def _day_products(
    products: list[BalancingProduct] | tuple[BalancingProduct, ...],
) -> tuple[BalancingProduct | None, BalancingProduct | None]:
    """The day's FCR and aFRR POS products, None for one not offered
    (valid inputs only: each at most once, no other product)."""
    fcr_prod = next((p for p in products if p.kind is ProductKind.FCR), None)
    afrr_prod = next((p for p in products if p.kind is ProductKind.AFRR), None)
    return fcr_prod, afrr_prod


def _setpoints(unit: ElectrolyzerUnit, options: AllocationOptions) -> list[float]:
    """Every multiple of ``setpoint_grid_mw`` from the lowest setpoint (with a
    hydrogen value, on the curve) to rated power, 1e-9 steps of slack; none
    past rated power by more than 1e-9 MW, where the operating band ends."""
    lo, hi, step = unit.min_power_mw, unit.rated_power_mw, options.setpoint_grid_mw
    if options.hydrogen_value_eur_per_kg is not None:
        lo = max(lo, unit.efficiency_curve.domain[0] * hi)
    grid = range(math.ceil(lo / step - _EPS), math.floor(hi / step + _EPS) + 1)
    return [k * step for k in grid if k * step <= hi + _EPS]


def _day_result(
    picks: list[tuple[float, float, float]], products, fcr_prices: CapacityPriceTable | None,
    afrr_price_per_block_eur: float | None, h2_value: float | None, hydrogen_loss_kg,
) -> AllocationResult:
    """The day of one (q_fcr, q_afrr, setpoint) pick per block: a block
    with a bid forgoes ``hydrogen_loss_kg(setpoint)``."""
    fcr_prod, afrr_prod = _day_products(products)
    entries: list[ScheduleEntry] = []
    revenue = h2_loss = 0.0
    for block, (q_f, q_a, sp) in zip(CANONICAL_BLOCKS, picks):
        if q_f > 0:
            entries.append(ScheduleEntry(block, fcr_prod, q_f, sp))
            revenue += q_f * fcr_prices.price(block)
        if q_a > 0:
            entries.append(ScheduleEntry(block, afrr_prod, q_a, sp))
            revenue += q_a * afrr_price_per_block_eur
        if h2_value is not None and (q_f > 0 or q_a > 0):
            h2_loss += hydrogen_loss_kg(sp)
    objective = revenue - h2_loss * h2_value if h2_value is not None else revenue
    return AllocationResult(BidSchedule(tuple(entries)), revenue, h2_loss, objective)


def brute_force_oracle(
    unit: ElectrolyzerUnit,
    products: list[BalancingProduct] | tuple[BalancingProduct, ...],
    fcr_prices: CapacityPriceTable | None,
    afrr_price_per_block_eur: float | None,
    options: AllocationOptions | None = None,
    max_combinations: int = 10**6,
) -> AllocationResult:
    """Reference optimizer: every integer (FCR, aFRR) pair at every grid
    setpoint, held to the bid rules stated here and kept per block by
    ``pick_row``.  The hydrogen loss goes through
    ``specific_energy_at_scalar``.  It shares no code of ``src/elybal``
    beyond the types and product definitions.  Refuses to run when the
    search space exceeds ``max_combinations``; takes valid inputs only.
    """
    options = options or AllocationOptions()
    fcr_prod, afrr_prod = _day_products(products)

    min_p, max_p = unit.min_power_mw, unit.rated_power_mw
    h2_value = options.hydrogen_value_eur_per_kg
    setpoints = _setpoints(unit, options)
    n_quant = int(math.floor(max_p / 1.0 + _EPS)) + 1
    space = len(CANONICAL_BLOCKS) * len(setpoints) * n_quant * n_quant
    if space > max_combinations:
        raise ValueError(
            f"search space of {space} combinations exceeds the oracle bound {max_combinations}"
        )

    pinned = options.pre_reserved_fcr_mw
    slowest = min(unit.ramp_up_mw_per_s, unit.ramp_down_mw_per_s)

    def tradable(q: float, product: BalancingProduct | None) -> bool:
        """0, or a bid of an offered product: on its grid, from its minimum bid."""
        if q == 0.0 or product is None:
            return q == 0.0
        lots = q / product.trade_increment_mw
        return abs(lots - round(lots)) <= _EPS and q >= product.min_bid_mw - _EPS

    def feasible(sp: float, q_f: float, q_a: float) -> bool:
        """The FCR band inside [min, rated] power and reached by the slower ramp
        by its deadline, the aFRR band below it and reached by the down ramp."""
        return (tradable(q_f, fcr_prod) and tradable(q_a, afrr_prod)
                and (pinned is None or abs(q_f - pinned) <= _EPS)
                and (q_f == 0.0 or (sp - q_f >= min_p - _EPS and sp + q_f <= max_p + _EPS
                                    and q_f <= slowest * fcr_prod.availability_s + _EPS))
                and (q_a == 0.0 or (sp - q_f - q_a >= min_p - _EPS and q_a
                                    <= unit.ramp_down_mw_per_s * afrr_prod.availability_s + _EPS)))

    duration = (fcr_prod or afrr_prod).duration_h

    def production_kg(power: float) -> float:
        """Hydrogen made at ``power`` over one block."""
        return power * duration * 1000.0 / specific_energy_at_scalar(
            unit.efficiency_curve, power / max_p)

    def hydrogen_loss_kg(sp: float) -> float:
        """Production forgone at ``sp`` against full load over one block."""
        return production_kg(max_p) - production_kg(sp)

    h2_cost = {sp: h2_value * hydrogen_loss_kg(sp) if h2_value is not None else 0.0
               for sp in setpoints}
    full_value = h2_value * production_kg(max_p) if h2_value is not None else 0.0
    bids = [(sp, q_f, q_a) for sp in setpoints for q_f in map(float, range(n_quant))
            for q_a in map(float, range(n_quant)) if feasible(sp, q_f, q_a)]
    picks = []
    for block in CANONICAL_BLOCKS:
        fcr_price = fcr_prices.price(block) if fcr_prod is not None else 0.0
        afrr_price = afrr_price_per_block_eur if afrr_prod is not None else 0.0
        candidates = [(q_f * fcr_price + q_a * afrr_price - h2_cost[sp], q_f + q_a, q_f, sp)
                      for sp, q_f, q_a in bids]  # (score, reserved, q_fcr, setpoint)
        sp, q_f, q_a = (bids[pick_row(*np.array(candidates).T, full_value)] if bids
                        else (max_p, 0.0, 0.0))
        picks.append((q_f, q_a, sp))
    return _day_result(picks, products, fcr_prices, afrr_price_per_block_eur, h2_value,
                       hydrogen_loss_kg)


def score_slack(best_score_eur: float, full_value_eur: float) -> float:
    """The score tie of one block: ``_EPS`` of what it scores, its best
    score plus the hydrogen value of a block at full load
    (``full_value_eur``, 0 without a hydrogen value).  No candidate forgoes
    more than full-load production, so no score is below
    ``-full_value_eur`` and the slack is never negative."""
    return _EPS * (best_score_eur + full_value_eur)


def pick_row(
    score: np.ndarray, reserved: np.ndarray, q_fcr: np.ndarray, setpoint: np.ndarray,
    full_value_eur: float,
) -> int | None:
    """Reference for ``_pick`` on one row: index of the best candidate, or
    None when there is none.

    The tie rule, applied in turn: the score within ``score_slack`` of the
    max, then the reserved capacity within ``_EPS`` of the min, then the
    FCR quantity within ``_EPS`` of the min, then the highest setpoint (more
    hydrogen), the first candidate on exact ties.  ``_pick`` drops the
    setpoint key, as its candidates' setpoints never rise.
    """
    if not score.size:
        return None
    best = score.max()
    idx = np.flatnonzero(score >= best - score_slack(best, full_value_eur))
    for key in (reserved, q_fcr):
        values = key[idx]
        idx = idx[values <= values.min() + _EPS]
    return int(idx[np.argmax(setpoint[idx])])


def optimize_day_loop(
    unit: ElectrolyzerUnit,
    products: list[BalancingProduct] | tuple[BalancingProduct, ...],
    fcr_prices: CapacityPriceTable | None,
    afrr_price_per_block_eur: float | None,
    options: AllocationOptions | None = None,
) -> AllocationResult:
    """Reference for ``optimize_day`` on days too large for the brute force.

    At every grid setpoint it tries 0 and every tradable FCR lot up to the
    FCR top there (or the pin alone, where the top holds it), each with
    aFRR 0 and with aFRR's top below the FCR band.  The FCR top is
    ``capacity_limit_scalar`` floored to lots by ``tradable_scalar``; the
    aFRR tops, one per lot, are min(room below the band, ramp down x
    deadline) floored to lots in numpy.  Each block takes the global pick
    of ``pick_row`` over all of them.  A first pass finds each block's best
    score, and the second keeps only the candidates within ``score_slack``
    of it, the ones ``pick_row`` keeps first, so a GW day never holds
    millions of candidates at once.  It shares no search, grid, cap or tie
    rule with ``optimize_day``, which tries each lot only at the highest
    setpoint that holds it.

    It shares ``_production_kg``: the large-day test holds hydrogen loss
    and objective bit-equal, and the array interpolation behind it can
    differ from ``specific_energy_at_scalar`` in the last bit.  Takes valid
    inputs only.
    """
    options = options or AllocationOptions()
    fcr_prod, afrr_prod = _day_products(products)
    h2_value = options.hydrogen_value_eur_per_kg
    duration = (fcr_prod or afrr_prod).duration_h
    pinned = options.pre_reserved_fcr_mw
    fcr_price = np.array([fcr_prices.price(b) if fcr_prod else 0.0 for b in CANONICAL_BLOCKS])
    afrr_price = afrr_price_per_block_eur if afrr_prod else 0.0
    full_kg = _production_kg(unit, unit.rated_power_mw, duration) if h2_value is not None else 0.0

    def hydrogen_loss_kg(sp: float) -> float:
        return full_kg - _production_kg(unit, sp, duration)

    def candidates():
        """Per setpoint with a candidate: (setpoint, q_fcr, q_afrr) and the
        blocks x candidates scores."""
        for sp in _setpoints(unit, options):
            fcr_top = 0.0
            if fcr_prod is not None:
                fcr_top = tradable_scalar(capacity_limit_scalar(unit, fcr_prod, sp), fcr_prod)
            if pinned is not None:
                lots = np.array([pinned] if pinned <= fcr_top + _EPS else [])
            else:
                lots = np.array([0.0])
                if fcr_prod is not None:
                    inc = fcr_prod.trade_increment_mw
                    k = np.arange(1, round(fcr_top / inc) + 1)
                    lots = np.concatenate((lots, k[k * inc >= fcr_prod.min_bid_mw - _EPS] * inc))
            q_afrr = np.zeros_like(lots)
            if afrr_prod is not None:
                limit = np.minimum(sp - lots - unit.min_power_mw,
                                   unit.ramp_down_mw_per_s * afrr_prod.availability_s)
                inc = afrr_prod.trade_increment_mw
                q_afrr = np.floor((limit + _EPS) / inc) * inc
                q_afrr[q_afrr < afrr_prod.min_bid_mw - _EPS] = 0.0
            # each lot with aFRR 0, and with its top where that is a bid
            q_fcr = np.concatenate((lots, lots[q_afrr > 0.0]))
            q_afrr = np.concatenate((np.zeros_like(lots), q_afrr[q_afrr > 0.0]))
            if q_fcr.size:
                h2_cost = h2_value * hydrogen_loss_kg(sp) if h2_value is not None else 0.0
                score = np.multiply.outer(fcr_price, q_fcr) + q_afrr * afrr_price - h2_cost
                yield sp, q_fcr, q_afrr, score

    best = np.full(len(CANONICAL_BLOCKS), -np.inf)
    for *_, score in candidates():
        best = np.maximum(best, score.max(axis=1))
    full_value = full_kg * h2_value if h2_value is not None else 0.0
    floor = [b - score_slack(b, full_value) for b in best.tolist()]
    near = [[] for _ in CANONICAL_BLOCKS]  # per block, (score, reserved, q_fcr, setpoint, q_afrr)
    for sp, q_fcr, q_afrr, score in candidates():
        for b, row in enumerate(score):
            keep = row >= floor[b]
            if keep.any():
                near[b].append(np.stack((row, q_fcr + q_afrr, q_fcr, np.full(q_fcr.size, sp),
                                         q_afrr))[:, keep])
    picks = []
    for b, columns in enumerate(near):
        if not columns:
            picks.append((0.0, 0.0, unit.rated_power_mw))
            continue
        rows = np.concatenate(columns, axis=1)
        column = rows[:, pick_row(*rows[:4], full_value)]
        picks.append((float(column[2]), float(column[4]), float(column[3])))
    return _day_result(picks, products, fcr_prices, afrr_price_per_block_eur, h2_value,
                       hydrogen_loss_kg)


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
    It shares ``check_eligibility`` and ``default_setpoint`` on purpose: it
    cross-checks two public functions, ``max_offerable``'s closed form
    against the rule-by-rule verdict, from the setpoint the command line
    picks.
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
    leading UTF-8 byte-order mark is skipped.  It shares
    ``ActivationSignal.from_rows``, the signal's one constructor, and
    ``ScenarioError``: what it checks is the row walk, not the time rules."""
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
