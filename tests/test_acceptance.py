"""Headline acceptance checks, one per published figure or invariant.

Each test prints a single verdict line, so ``pytest -v -s`` (or the pytest
summary itself) reads as a checklist of the claims this package is built
around: the worked 4 MW example, the sizing rules, the reference revenue
day, the fleet coverage shares and the randomized property sweeps.
"""

from __future__ import annotations

import random
from pathlib import Path

import numpy as np
import pytest

from elybal.allocate import optimize_day
from elybal.dispatch import ActivationSignal, SignalKind, simulate
from elybal.economics import (
    afrr_day_capacity_revenue,
    fcr_day_revenue,
    fleet_coverage,
    round_to_sig_figs,
    savings_ratio,
)
from elybal.eligibility import (
    RAMP_DEADLINE,
    Eq1Inputs,
    check_eligibility,
    eq1_gradient,
    eq1_min_ramp,
    max_offerable,
    min_rated_power,
)
from elybal.markets import (
    CANONICAL_BLOCKS,
    CapacityPriceTable,
    Direction,
    afrr,
    fcr,
    mfrr,
    required_gradient,
)
from elybal.model import ElectrolyzerUnit, Fleet, Technology, aggregate
from elybal.scenario_io import load_capacity_prices, preset
from oracles import brute_force_oracle

REPO = Path(__file__).resolve().parents[1]
PRICES = load_capacity_prices(REPO / "scenarios" / "prices" / "capacity_2024_07_25.csv")

DEMO = preset("demo4grid").to_unit()


def test_criterion_01_demo_unit_rejected_from_fcr():
    report = check_eligibility(DEMO, fcr(), bid_mw=1.0, setpoint_mw=3.0)
    delivery = report.constraint(RAMP_DEADLINE).actual
    assert not report.eligible
    assert report.limiting_constraint == RAMP_DEADLINE
    assert delivery == pytest.approx(40.98, abs=0.05)
    print(f"criterion 1 PASS: 1 MW FCR rejected, delivery {delivery:.2f} s > 30 s")


def test_criterion_02_demo_unit_accepted_for_afrr():
    report = check_eligibility(DEMO, afrr(), bid_mw=1.0, setpoint_mw=3.0)
    assert report.eligible
    bid, sp = max_offerable(DEMO, afrr(Direction.POS), setpoint_mw=4.0)
    assert (bid, sp) == (3.0, 4.0)
    print("criterion 2 PASS: 1 MW aFRR POS eligible; max 3 MW at full load")


def test_criterion_03_minimum_rated_power_for_one_mw_fcr():
    rated = min_rated_power(1.0, 0.0061, 30.0)
    assert rated == pytest.approx(5.46, abs=0.01)
    print(f"criterion 3 PASS: 1 MW FCR at 0.61 %/s needs {rated:.2f} MW rated")


def test_criterion_04_national_afrr_ramp_requirement():
    delta = eq1_min_ramp(
        p_el_mw=9000.0, u=0.56, p_anc_mw=2000.0, p_ts_mw=2.0,
        required_mw_per_s=0.0034,
    )
    assert delta * 100.0 == pytest.approx(0.086, abs=0.001)
    print(f"criterion 4 PASS: fleet-wide aFRR needs {delta * 100:.4f} %/s")


def test_criterion_05_per_unit_gradients():
    grads_kw = {p.label: required_gradient(p) * 1000.0 for p in (fcr(), afrr(), mfrr())}
    assert grads_kw["FCR"] == pytest.approx(33.34, abs=0.01)
    assert grads_kw["aFRR POS"] == pytest.approx(3.34, abs=0.01)
    assert grads_kw["mFRR POS"] == pytest.approx(1.34, abs=0.01)
    print(
        "criterion 5 PASS: gradients "
        f"{grads_kw['FCR']:.2f} / {grads_kw['aFRR POS']:.2f} / "
        f"{grads_kw['mFRR POS']:.2f} kW/s"
    )


def test_criterion_06_fcr_reference_day_revenue():
    revenue = fcr_day_revenue(5.0, PRICES)
    assert revenue == 1318.15  # exact: six block prices times 5 MW
    print("criterion 6 PASS: 5 MW FCR day revenue 1318.15 euro, exact")


def test_criterion_07_afrr_revenue_and_savings_ratios():
    afrr_rev = afrr_day_capacity_revenue(40.0, 24.0, 20.0)
    assert afrr_rev == 19200.0
    cost_exact = 95.0 * 24.0 * 65.0
    assert cost_exact == 148200.0
    cost_rounded = round_to_sig_figs(cost_exact, 2)
    assert cost_rounded == 150000.0
    afrr_only = savings_ratio(0.0, afrr_rev, cost_rounded)
    assert afrr_only == pytest.approx(0.128, abs=1e-12)
    combined = savings_ratio(1318.15, afrr_rev, cost_exact)
    assert round(combined * 100.0, 1) == 13.8
    print(
        "criterion 7 PASS: aFRR 19200 euro/day; ratios "
        f"{afrr_only * 100:.1f}% (aFRR vs rounded bill) / "
        f"{combined * 100:.1f}% (combined vs exact bill)"
    )


def test_criterion_08_fleet_coverage_shares():
    national = fleet_coverage(500.0, 10000.0, symmetric=True)
    assert national.share == 0.05
    assert national.headroom_band == 0.10
    continental = fleet_coverage(3000.0, 40000.0, symmetric=True)
    assert continental.share == 0.075
    assert continental.headroom_band == 0.15
    print("criterion 8 PASS: coverage 5%/10% band and 7.5%/15% band")


def test_criterion_09_capacity_decoupling_on_a_100mw_unit():
    unit = ElectrolyzerUnit("decouple", Technology.PEM, 100.0, 0.1, 0.01)
    big = check_eligibility(unit, fcr(), bid_mw=40.0, setpoint_mw=60.0)
    assert not big.eligible
    assert big.constraint(RAMP_DEADLINE).actual == pytest.approx(40.0)
    small = check_eligibility(unit, fcr(), bid_mw=5.0, setpoint_mw=95.0)
    assert small.eligible
    assert small.constraint(RAMP_DEADLINE).actual == pytest.approx(5.0)
    print("criterion 9 PASS: 40 MW needs 40 s (rejected), 5 MW needs 5 s (accepted)")


# ---------------------------------------------------------------------------
# criterion 10: randomized property sweeps, deterministic via fixed seeds


def _random_unit(rng: random.Random) -> ElectrolyzerUnit:
    return ElectrolyzerUnit(
        name="rnd",
        technology=rng.choice(list(Technology)),
        rated_power_mw=rng.uniform(1.0, 50.0),
        min_load_fraction=rng.uniform(0.05, 0.9),
        ramp_up=rng.uniform(1e-4, 0.2),
        ramp_down=rng.uniform(1e-4, 0.2) if rng.random() < 0.5 else None,
    )


def test_criterion_10a_rate_limiter_invariants_1000_cases():
    rng = random.Random(101)
    for _ in range(1000):
        unit = _random_unit(rng)
        lo, hi = unit.min_power_mw, unit.rated_power_mw
        setpoint = rng.uniform(lo, hi)
        bid = rng.uniform(0.0, min(setpoint - lo, hi - setpoint))
        n = rng.randint(2, 120)
        if rng.random() < 0.5:
            kind = SignalKind.SETPOINT_REQUEST
            values = [rng.uniform(-2 * bid - 1, 2 * bid + 1) for _ in range(n)]
        else:
            kind = SignalKind.FREQUENCY_DEVIATION
            values = [rng.uniform(-0.4, 0.4) for _ in range(n)]
        signal = ActivationSignal(kind, tuple(values), timestep_s=rng.choice([0.5, 1.0, 2.0]))
        trajectory = simulate(unit, setpoint, bid, signal)
        powers = trajectory.powers_mw
        assert powers.min() >= lo - 1e-9
        assert powers.max() <= hi + 1e-9
        steps = np.diff(powers)
        if steps.size:
            assert steps.max() <= unit.ramp_up_mw_per_s * signal.timestep_s + 1e-9
            assert steps.min() >= -unit.ramp_down_mw_per_s * signal.timestep_s - 1e-9
    print("criterion 10a PASS: 1000 random activations stayed in band and slew")


def test_criterion_10b_decoupling_round_trip_1e12():
    rng = random.Random(202)
    worst = 0.0
    for _ in range(1000):
        p_el = rng.uniform(1.0, 50000.0)
        u = rng.uniform(0.0, 0.95)
        delta = rng.uniform(1e-5, 0.5)
        p_anc = rng.uniform(1.0, 10000.0)
        p_ts = rng.uniform(0.5, 10.0)
        grad = eq1_gradient(Eq1Inputs(p_el, u, delta, p_anc, p_ts))
        back = eq1_min_ramp(p_el, u, p_anc, p_ts, grad)
        worst = max(worst, abs(back - delta) / delta)
    assert worst <= 1e-12
    print(f"criterion 10b PASS: round-trip identity, worst relative error {worst:.2e}")


def test_criterion_10c_optimizer_matches_oracle_200_instances():
    rng = random.Random(303)
    for _ in range(200):
        rated = float(rng.randint(2, 20))
        unit = ElectrolyzerUnit(
            "inst",
            Technology.AEL,
            rated,
            rng.choice([0.1, 0.2, 0.25, 0.4, 0.5]),
            rng.choice([0.001, 0.005, 0.02, 0.05, 0.1]),
        )
        prices = CapacityPriceTable(
            {b.label: round(rng.uniform(0.0, 100.0), 2) for b in CANONICAL_BLOCKS}
        )
        afrr_price = round(rng.uniform(0.0, 150.0), 2)
        fast = optimize_day(unit, [fcr(), afrr()], prices, afrr_price)
        slow = brute_force_oracle(unit, [fcr(), afrr()], prices, afrr_price)
        assert fast.objective_eur == pytest.approx(slow.objective_eur, rel=1e-9, abs=1e-9)
        assert fast.schedule.entries == slow.schedule.entries
    print("criterion 10c PASS: optimizer equals brute force on 200 instances")


def test_criterion_10d_homogeneous_fleet_equivalence_100_fleets():
    rng = random.Random(404)
    for _ in range(100):
        n = rng.randint(1, 20)
        rated = float(rng.randint(2, 30))
        u = rng.choice([0.1, 0.2, 0.25, 0.4, 0.5])
        ramp = rng.choice([0.001, 0.005, 0.02, 0.05, 0.1])
        unit = ElectrolyzerUnit("one", Technology.PEM, rated, u, ramp)
        agg = aggregate(Fleet(tuple(unit for _ in range(n))))
        assert agg.rated_power_mw == pytest.approx(n * rated, rel=1e-12)
        assert agg.min_load_fraction == pytest.approx(u, rel=1e-9)
        assert agg.ramp_up == pytest.approx(ramp, rel=1e-9)
        # a per-unit bid scales to the fleet bid with the same verdict
        per_unit_bid = float(rng.randint(1, max(1, int(rated * (1 - u) / 2))))
        setpoint = rated - per_unit_bid  # leaves exactly the bid of headroom up top
        if setpoint - per_unit_bid < unit.min_power_mw:
            continue
        single = check_eligibility(unit, afrr(), per_unit_bid, setpoint)
        pooled = check_eligibility(agg, afrr(), n * per_unit_bid, n * setpoint)
        assert pooled.eligible == single.eligible
        assert pooled.limiting_constraint == single.limiting_constraint
    print("criterion 10d PASS: 100 homogeneous fleets pool without distortion")


def test_criterion_11_ramp_figure_discrepancy_is_documented():
    # literal inversion of the decoupling relation for the national FCR case
    literal = eq1_min_ramp(
        p_el_mw=10000.0, u=0.9, p_anc_mw=2000.0, p_ts_mw=2.0,
        required_mw_per_s=0.034,
    )
    assert literal * 100.0 == pytest.approx(3.4, abs=1e-9)
    # the reconstruction that lands near the often-quoted 0.0945 %/s figure
    reconstruction = 0.034 * (500.0 / 2.0) / (10000.0 * 0.9)
    assert reconstruction * 100.0 == pytest.approx(0.0944, abs=1e-4)
    docs = (REPO / "scenarios" / "README.md").read_text(encoding="utf-8")
    assert "3.4" in docs
    assert "0.0944" in docs
    assert "discrepancy" in docs.lower()
    print(
        "criterion 11 PASS: literal 3.40 %/s and reconstruction "
        f"{reconstruction * 100:.4f} %/s both documented"
    )
