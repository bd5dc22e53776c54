"""Rate-limited activation response, droop mapping and delivery grading."""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from elybal.dispatch import (
    DELIVERY_TOLERANCE,
    ActivationSignal,
    PowerTrajectory,
    SignalKind,
    _requested_offsets,
    check_compliance,
    hydrogen_output,
    simulate,
)
from elybal.markets import Direction, TableError, afrr, fcr
from elybal.model import EfficiencyCurve, ElectrolyzerUnit, Technology, specific_energy_at
from elybal.scenario_io import load_signal
from oracles import (
    check_compliance_loop,
    hydrogen_output_loop,
    simulate_loop,
    specific_energy_at_scalar,
)

SIGNALS = Path(__file__).resolve().parents[1] / "scenarios" / "signals"

DEMO_UNIT = ElectrolyzerUnit(
    name="demo", technology=Technology.AEL, rated_power_mw=4.0,
    min_load_fraction=0.25, ramp_up=0.0061,
)


def step_signal(value: float, hold_s: int, total_s: int, kind=SignalKind.SETPOINT_REQUEST):
    values = [value] * hold_s + [0.0] * (total_s - hold_s + 1)
    return ActivationSignal(kind, tuple(values))


def droop(freq_deviation_hz: float, bid_mw: float) -> float:
    """The FCR offset one frequency deviation requests from a symmetric bid."""
    kind = SignalKind.FREQUENCY_DEVIATION
    return float(_requested_offsets(kind, freq_deviation_hz, bid_mw, Direction.SYM))


class TestDroop:
    def test_full_activation_at_minus_200_mhz(self):
        # under-frequency pulls a consuming asset down by the full bid
        assert droop(-0.2, 5.0) == -5.0

    def test_full_activation_at_plus_200_mhz(self):
        assert droop(0.2, 5.0) == 5.0

    def test_proportional_inside_the_band(self):
        assert droop(-0.1, 5.0) == pytest.approx(-2.5)
        assert droop(0.05, 4.0) == pytest.approx(1.0)

    def test_saturates_beyond_the_band(self):
        assert droop(-0.5, 5.0) == -5.0
        assert droop(1.0, 5.0) == 5.0

    def test_negative_bid_rejected(self):
        with pytest.raises(ValueError):
            droop(-0.1, -1.0)


class TestActivationSignal:
    def test_must_start_at_zero(self):
        with pytest.raises(ValueError, match="t = 0"):
            ActivationSignal.from_rows(SignalKind.SETPOINT_REQUEST, [(1.0, 0.0), (2.0, 0.0)])

    def test_uniform_spacing_enforced(self):
        for third in (3.0, math.nan):
            with pytest.raises(ValueError, match="non-uniform timestep between rows 1 and 2"):
                ActivationSignal.from_rows(
                    SignalKind.SETPOINT_REQUEST, [(0.0, 0.0), (1.0, 0.0), (third, 0.0)]
                )

    def test_non_finite_sample_rejected(self):
        # min(bid, nan) is bid: this signal used to drive a 100 MW unit at
        # 60 MW with a 5 MW bid up to 61 MW
        with pytest.raises(ValueError, match="sample 1 is not finite"):
            ActivationSignal(SignalKind.SETPOINT_REQUEST, (0.0, math.nan, -5.0, -5.0))

    @pytest.mark.parametrize("timestep_s", [math.nan, math.inf])
    def test_non_finite_timestep_rejected(self, timestep_s):
        message = rf"timestep_s must be in \(0, inf\), got {timestep_s}"
        with pytest.raises(ValueError, match=message):
            ActivationSignal(SignalKind.SETPOINT_REQUEST, (0.0, 1.0), timestep_s)

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            ActivationSignal.from_rows(SignalKind.SETPOINT_REQUEST, [(0.0, 0.0)])

    def test_timestep_taken_from_rows(self):
        sig = ActivationSignal.from_rows(
            SignalKind.FREQUENCY_DEVIATION, [(0.0, 0.0), (0.5, -0.1), (1.0, -0.2)]
        )
        assert sig.timestep_s == 0.5
        assert np.array_equal(sig.values, (0.0, -0.1, -0.2))

    def test_values_are_a_read_only_float64_copy(self):
        samples = np.array([0.0, -0.1, -0.2])
        sig = ActivationSignal(SignalKind.FREQUENCY_DEVIATION, samples)
        samples[0] = 1.0
        assert sig.values.dtype == np.float64
        assert sig.values[0] == 0.0
        with pytest.raises(ValueError, match="read-only"):
            sig.values[0] = 1.0

    def test_equality_compares_kind_timestep_and_samples(self):
        sig = ActivationSignal(SignalKind.SETPOINT_REQUEST, (0.0, -1.0), 0.5)
        assert sig == ActivationSignal(SignalKind.SETPOINT_REQUEST, np.array([0.0, -1.0]), 0.5)
        assert sig != ActivationSignal(SignalKind.FREQUENCY_DEVIATION, (0.0, -1.0), 0.5)
        assert sig != ActivationSignal(SignalKind.SETPOINT_REQUEST, (0.0, -1.0), 1.0)
        assert sig != ActivationSignal(SignalKind.SETPOINT_REQUEST, (0.0, -1.0, -1.0), 0.5)
        assert sig != ActivationSignal(SignalKind.SETPOINT_REQUEST, (0.0, -0.5), 0.5)


class TestTimeSlack:
    """One time slack: two times count as one within 1e-9 s, relative to a
    step above 1 s; the signal's start and the deadline take it absolute."""

    KIND = SignalKind.SETPOINT_REQUEST

    def test_a_signal_starts_at_zero_within_the_slack(self):
        assert ActivationSignal.from_rows(self.KIND, [(1e-9, 0.0), (1.0, 0.0)]).timestep_s > 0
        with pytest.raises(TableError, match="must start at t = 0 s") as exc:
            ActivationSignal.from_rows(self.KIND, [(2e-9, 0.0), (1.0, 0.0)])
        assert (exc.value.row, exc.value.key) == (0, "time_s")

    @pytest.mark.parametrize("dt", [0.1, 1.0, 100.0])
    def test_a_step_is_uniform_within_the_slack_at_its_scale(self, dt):
        slack = 1e-9 * max(1.0, dt)
        ActivationSignal.from_rows(self.KIND, [(0.0, 0.0), (dt, 0.0), (2 * dt + slack / 2, 0.0)])
        with pytest.raises(TableError, match="non-uniform timestep") as exc:
            ActivationSignal.from_rows(self.KIND, [(0.0, 0.0), (dt, 0.0), (2 * dt + 2 * slack, 0.0)])
        assert (exc.value.row, exc.value.key) == (2, "time_s")

    @pytest.mark.parametrize("dt, compliant", [(1.0 + 1e-11, True), (1.0 + 1e-10, False)])
    def test_a_delivery_is_on_time_within_the_slack_of_the_deadline(self, dt, compliant):
        # the 1 MW step lands 30 samples after the onset: 30 dt against FCR's 30 s
        unit = ElectrolyzerUnit("fast", Technology.PEM, 10.0, 0.1, 0.5)
        powers = [5.0] * 30 + [4.0] * 10
        signal = ActivationSignal(self.KIND, [-1.0] * 40, dt)
        result = check_compliance(PowerTrajectory(dt, powers, unit), signal, fcr(), 5.0, 1.0)
        assert result.compliant is compliant
        assert result.max_delivery_delay_s == 30 * dt


class TestSimulate:
    def test_starts_at_the_setpoint(self):
        sig = step_signal(-1.0, 60, 120)
        traj = simulate(DEMO_UNIT, 3.0, 1.0, sig)
        assert traj.powers_mw[0] == 3.0

    def test_response_is_causal(self):
        # the request at t=0 is only visible in the step taken at t=1
        sig = ActivationSignal(SignalKind.SETPOINT_REQUEST, (0.0, -1.0, -1.0, -1.0))
        traj = simulate(DEMO_UNIT, 3.0, 1.0, sig)
        assert traj.powers_mw[1] == 3.0  # reacting to signal[0] == 0
        assert traj.powers_mw[2] < 3.0

    def test_rate_limited_descent_to_the_target(self):
        sig = step_signal(-1.0, 120, 120)
        traj = simulate(DEMO_UNIT, 3.0, 1.0, sig)
        # 0.0244 MW/s: passes 2.024 after 40 steps, lands exactly at 41
        assert traj.powers_mw[40] == pytest.approx(3.0 - 40 * 0.0244)
        assert traj.powers_mw[41] == pytest.approx(2.0)
        assert traj.powers_mw[60] == pytest.approx(2.0)

    def test_requests_clipped_to_the_bid(self):
        sig = step_signal(-3.0, 120, 120)  # asks for three times the bid
        traj = simulate(DEMO_UNIT, 3.0, 1.0, sig)
        assert traj.powers_mw.min() == pytest.approx(2.0)

    def test_pos_product_ignores_upward_requests(self):
        sig = step_signal(+1.0, 60, 120)
        traj = simulate(DEMO_UNIT, 3.0, 1.0, sig, Direction.POS)
        assert np.all(traj.powers_mw == 3.0)

    def test_neg_product_ignores_downward_requests(self):
        sig = step_signal(-1.0, 60, 120)
        traj = simulate(DEMO_UNIT, 3.0, 1.0, sig, Direction.NEG)
        assert np.all(traj.powers_mw == 3.0)

    def test_frequency_signal_drives_both_directions(self):
        over = ActivationSignal(SignalKind.FREQUENCY_DEVIATION, (0.3,) * 80)
        traj = simulate(DEMO_UNIT, 3.0, 1.0, over)
        assert traj.powers_mw[-1] == pytest.approx(4.0)

    def test_setpoint_that_cannot_host_the_bid_rejected(self):
        sig = step_signal(-1.0, 10, 20)
        with pytest.raises(ValueError, match="downward activation"):
            simulate(DEMO_UNIT, 1.5, 1.0, sig, Direction.POS)
        with pytest.raises(ValueError, match="upward activation"):
            simulate(DEMO_UNIT, 3.5, 1.0, sig, Direction.NEG)

    @pytest.mark.parametrize("setpoint, bid, named", [
        (math.nan, 1.0, "setpoint nan MW"),
        (3.0, math.nan, "got nan"),
        (3.0, math.inf, "got inf"),
    ])
    def test_non_finite_setpoint_or_bid_rejected(self, setpoint, bid, named):
        with pytest.raises(ValueError, match=named):
            simulate(DEMO_UNIT, setpoint, bid, step_signal(-1.0, 10, 20))

    @settings(max_examples=60)
    @given(
        values=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=120),
        setpoint=st.floats(2.0, 3.0),
        bid=st.floats(0.0, 1.0),
    )
    def test_trajectory_invariants_hold_for_any_signal(self, values, setpoint, bid):
        sig = ActivationSignal(SignalKind.SETPOINT_REQUEST, tuple(values))
        traj = simulate(DEMO_UNIT, setpoint, bid, sig)
        lo, hi = DEMO_UNIT.min_power_mw, DEMO_UNIT.rated_power_mw
        assert traj.powers_mw.min() >= lo - 1e-9
        assert traj.powers_mw.max() <= hi + 1e-9
        steps = np.diff(traj.powers_mw)
        assert np.all(steps <= DEMO_UNIT.ramp_up_mw_per_s + 1e-9)
        assert np.all(steps >= -DEMO_UNIT.ramp_down_mw_per_s - 1e-9)


class TestPowerTrajectory:
    def test_rejects_out_of_band_samples(self):
        with pytest.raises(ValueError, match="operating band"):
            PowerTrajectory(1.0, np.array([3.0, 0.5]), DEMO_UNIT)

    def test_rejects_impossible_slew(self):
        with pytest.raises(ValueError, match="ramp limits"):
            PowerTrajectory(1.0, np.array([3.0, 2.0]), DEMO_UNIT)

    def test_times(self):
        traj = PowerTrajectory(2.0, np.array([3.0, 3.0, 3.0]), DEMO_UNIT)
        assert list(traj.times) == [0.0, 2.0, 4.0]

    def test_samples_are_a_read_only_float64_copy(self):
        samples = np.array([3.0, 3.0, 3.0])
        traj = PowerTrajectory(1.0, samples, DEMO_UNIT)
        samples[1] = 1e9
        assert traj.powers_mw.dtype == np.float64
        assert traj.powers_mw[1] == 3.0
        with pytest.raises(ValueError, match="read-only"):
            traj.powers_mw[1] = 1e9
        simulated = simulate(DEMO_UNIT, 3.0, 1.0, step_signal(-1.0, 10, 20))
        with pytest.raises(ValueError, match="read-only"):
            simulated.powers_mw[3] = 1e9

    def test_rejects_non_finite_samples(self):
        # every band and slew comparison with NaN is false
        with pytest.raises(ValueError, match="non-finite"):
            PowerTrajectory(1.0, np.array([3.0, math.nan, 3.0]), DEMO_UNIT)


class TestCompliance:
    def test_fcr_violation_recorded_at_the_deadline(self):
        sig = ActivationSignal(SignalKind.FREQUENCY_DEVIATION, (-0.2,) * 60 + (0.0,) * 61)
        traj = simulate(DEMO_UNIT, 3.0, 1.0, sig)
        result = check_compliance(traj, sig, fcr(), 3.0, 1.0)
        assert not result.compliant
        # onset at t=0 plus the 30 s availability window
        assert result.first_violation_time_s == 30.0
        assert result.max_delivery_delay_s == pytest.approx(41.0)

    def test_same_activation_compliant_under_afrr(self):
        sig = step_signal(-1.0, 120, 240)
        traj = simulate(DEMO_UNIT, 3.0, 1.0, sig, Direction.POS)
        result = check_compliance(traj, sig, afrr(), 3.0, 1.0)
        assert result.compliant
        assert result.max_delivery_delay_s == pytest.approx(41.0)

    def test_one_trajectory_graded_as_fcr_and_as_afrr(self):
        # a sustained 1 MW load cut: delivered after 41 s, past the 30 s FCR
        # deadline and well within the aFRR one
        sig = ActivationSignal(SignalKind.SETPOINT_REQUEST, (-1.0,) * 121)
        traj = simulate(DEMO_UNIT, 3.0, 1.0, sig)
        as_fcr = check_compliance(traj, sig, fcr(), 3.0, 1.0)
        as_afrr = check_compliance(traj, sig, afrr(), 3.0, 1.0)
        assert not as_fcr.compliant
        assert as_fcr.first_violation_time_s == 30.0
        assert as_afrr.compliant
        assert as_fcr.max_delivery_delay_s == as_afrr.max_delivery_delay_s == pytest.approx(41.0)
        assert as_fcr.delivered_energy_mwh == as_afrr.delivered_energy_mwh

    def test_short_request_is_not_graded(self):
        # the request disappears before both delivery and deadline: censored
        sig = step_signal(-1.0, 20, 120)
        traj = simulate(DEMO_UNIT, 3.0, 1.0, sig, Direction.POS)
        result = check_compliance(traj, sig, fcr(), 3.0, 1.0)
        assert result.compliant
        assert result.max_delivery_delay_s == 0.0

    def test_delivery_tolerance_band(self):
        # 0.996 MW/s leaves the plant at 4.004 MW after one step: within
        # 0.5 % of the 1 MW bid, so that sample already counts as delivered
        unit = ElectrolyzerUnit("fast", Technology.PEM, 10.0, 0.1, 0.0996)
        sig = step_signal(-1.0, 40, 60)
        traj = simulate(unit, 5.0, 1.0, sig, Direction.POS)
        result = check_compliance(traj, sig, fcr(), 5.0, 1.0)
        assert result.compliant
        assert result.max_delivery_delay_s == 1.0
        assert abs(traj.powers_mw[1] - 4.0) > 1e-6  # not an exact landing

    def test_zero_bid_trivially_compliant(self):
        sig = step_signal(0.0, 10, 20)
        traj = simulate(DEMO_UNIT, 3.0, 0.0, sig)
        assert check_compliance(traj, sig, fcr(), 3.0, 0.0).compliant

    def test_delivered_energy_matches_trapezoid(self):
        sig = step_signal(-1.0, 120, 120)
        traj = simulate(DEMO_UNIT, 3.0, 1.0, sig, Direction.POS)
        result = check_compliance(traj, sig, afrr(), 3.0, 1.0)
        expected = np.trapezoid(traj.powers_mw - 3.0, dx=1.0) / 3600.0
        assert result.delivered_energy_mwh == pytest.approx(expected, rel=1e-12)
        assert result.delivered_energy_mwh < 0  # load reduction

    def test_energy_is_plain_float(self):
        sig = step_signal(-1.0, 10, 20)
        traj = simulate(DEMO_UNIT, 3.0, 1.0, sig, Direction.POS)
        result = check_compliance(traj, sig, afrr(), 3.0, 1.0)
        assert type(result.delivered_energy_mwh) is float

    def test_negative_bid_rejected(self):
        sig = step_signal(-1.0, 10, 20)
        traj = simulate(DEMO_UNIT, 3.0, 1.0, sig)
        with pytest.raises(ValueError, match=r"bid_mw must be in \[0, inf\), got -1.0"):
            check_compliance(traj, sig, fcr(), 3.0, -1.0)

    @pytest.mark.parametrize("setpoint, bid, named", [
        (math.nan, 1.0, "setpoint nan MW outside operating band"),
        (math.inf, 1.0, "setpoint inf MW outside operating band"),
        (3.0, math.nan, r"bid_mw must be in \[0, inf\), got nan"),
    ])
    def test_non_finite_setpoint_or_bid_is_not_a_verdict(self, setpoint, bid, named):
        sig = step_signal(-1.0, 10, 20)
        traj = simulate(DEMO_UNIT, 3.0, 1.0, sig)
        with pytest.raises(ValueError, match=named):
            check_compliance(traj, sig, fcr(), setpoint, bid)

    def test_setpoint_that_cannot_host_the_bid_is_not_a_verdict(self):
        # simulated as aFRR POS at full load, then graded as symmetric FCR:
        # 4 MW cannot host the 1 MW upward half of the FCR band
        sig = load_signal(SIGNALS / "step_down_1mw.csv", SignalKind.SETPOINT_REQUEST)
        traj = simulate(DEMO_UNIT, 4.0, 1.0, sig, Direction.POS)
        with pytest.raises(ValueError, match="cannot host a 1.0 MW upward activation") as exc:
            check_compliance(traj, sig, fcr(), 4.0, 1.0)
        assert exc.value.key == "setpoint_mw"

    def test_mismatched_horizons_rejected(self):
        sig = step_signal(-1.0, 10, 20)
        traj = simulate(DEMO_UNIT, 3.0, 1.0, sig)
        shorter = ActivationSignal(SignalKind.SETPOINT_REQUEST, sig.values[:-1])
        with pytest.raises(ValueError, match="horizon"):
            check_compliance(traj, shorter, fcr(), 3.0, 1.0)


class TestHydrogenOutput:
    CURVE = EfficiencyCurve(((0.25, 49.0), (1.0, 54.0)))

    def test_constant_full_load_hand_value(self):
        unit = ElectrolyzerUnit("h2", Technology.AEL, 4.0, 0.25, 0.01,
                                efficiency_curve=self.CURVE)
        traj = PowerTrajectory(3600.0, np.array([4.0, 4.0]), unit)
        # 4 MWh = 4000 kWh at 54 kWh/kg
        assert hydrogen_output(traj, self.CURVE) == pytest.approx(4000.0 / 54.0)

    def test_interval_midpoint_load_sets_the_rate(self):
        unit = ElectrolyzerUnit("h2", Technology.AEL, 4.0, 0.25, 0.001,
                                efficiency_curve=self.CURVE)
        traj = PowerTrajectory(1000.0, np.array([2.0, 4.0]), unit)
        # mean power 3 MW -> load 0.75 -> interpolated 52.333... kWh/kg
        se = 49.0 + (0.75 - 0.25) / 0.75 * 5.0
        expected = (3.0 * 1000.0 / 3600.0 * 1000.0) / se
        assert hydrogen_output(traj, self.CURVE) == pytest.approx(expected)

    def test_single_sample_produces_nothing(self):
        unit = ElectrolyzerUnit("h2", Technology.AEL, 4.0, 0.25, 0.01)
        traj = PowerTrajectory(1.0, np.array([4.0]), unit)
        assert hydrogen_output(traj, self.CURVE) == 0.0

    def test_missing_curve_is_named(self):
        # aggregated fleet units carry no efficiency curve
        traj = PowerTrajectory(1.0, np.array([3.0, 3.0]), DEMO_UNIT)
        with pytest.raises(ValueError, match="no efficiency curve"):
            hydrogen_output(traj, None)


@st.composite
def curves(draw, lo: float = 0.05):
    """Efficiency curves with two to five breakpoints from ``lo`` to 1."""
    inner = draw(st.lists(st.floats(lo, 1.0, exclude_min=True, exclude_max=True),
                          max_size=3, unique=True))
    fractions = [lo, *sorted(inner), 1.0]
    energies = draw(st.lists(st.floats(40.0, 70.0), min_size=len(fractions),
                             max_size=len(fractions)))
    return EfficiencyCurve(tuple(zip(fractions, energies)))


@st.composite
def dispatch_cases(draw):
    """A unit, operating point, signal and product the dispatch code accepts.

    Signals are piecewise constant (levels around the full-activation
    threshold held 1-600 samples, many of them shorter than the time the
    unit needs to ramp between them), saturating (plateaus beyond full
    activation joined by a random walk, at the widest bid, so targets also
    clip at the band edges), noisy (a random walk plus noise) or flipping
    (full activation from the first sample to the last, changing sign every
    1-3 samples, so nearly every sample is an onset), of either kind; bids
    run from 0 to the widest the direction allows and setpoints across the
    band that hosts the bid.
    """
    min_load = draw(st.floats(0.05, 0.6))
    unit = ElectrolyzerUnit(
        "case", Technology.AEL, draw(st.floats(1.0, 500.0)), min_load,
        ramp_up=draw(st.floats(5e-4, 0.2)),
        ramp_down=draw(st.one_of(st.none(), st.floats(5e-4, 0.2))),
        efficiency_curve=draw(curves(min_load)),
    )
    direction = draw(st.sampled_from(list(Direction)))
    shape = draw(st.sampled_from(["piecewise constant", "saturating", "noisy", "flipping"]))
    event(shape)
    band = unit.rated_power_mw - unit.min_power_mw
    widest = band / 2 if direction is Direction.SYM else band
    # 0 is among the floats drawn
    bid = widest if shape == "saturating" else draw(st.floats(0.0, 1.0)) * widest
    sp_lo = unit.min_power_mw + (bid if direction is not Direction.NEG else 0.0)
    sp_hi = unit.rated_power_mw - (bid if direction is not Direction.POS else 0.0)
    setpoint = min(sp_lo + draw(st.floats(0.0, 1.0)) * (sp_hi - sp_lo), sp_hi)

    kind = draw(st.sampled_from(list(SignalKind)))
    full = 0.2 if kind is SignalKind.FREQUENCY_DEVIATION else (bid or 1.0)
    if shape == "piecewise constant":
        levels = [full * f for f in (-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5)]
        holds = draw(st.lists(st.tuples(st.sampled_from(levels), st.integers(1, 600)),
                              min_size=1, max_size=10))
        values = [level for level, hold in holds for _ in range(hold)]
    elif shape == "saturating":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        plateaus = draw(st.lists(st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(1.0, 3.0),
                                           st.integers(1, 600)), min_size=1, max_size=8))
        values = []
        for sign, level, hold in plateaus:
            values += [sign * level * full] * hold
            values += list(sign * level * full
                           + np.cumsum(rng.normal(0.0, 0.2 * full, rng.integers(60))))
    elif shape == "flipping":
        sign = draw(st.sampled_from([-1.0, 1.0]))
        holds = draw(st.lists(st.tuples(st.sampled_from([1.0, 1.5]), st.integers(1, 3)),
                              min_size=1, max_size=200))
        values = [(-1) ** k * sign * full * level
                  for k, (level, hold) in enumerate(holds) for _ in range(hold)]
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        n = draw(st.integers(1, 600))
        values = (np.cumsum(rng.normal(0.0, 0.2 * full, n)) + rng.normal(0.0, 0.1 * full, n))
    signal = ActivationSignal(kind, tuple(values), draw(st.sampled_from([0.5, 1.0, 4.0])))
    product = fcr() if direction is Direction.SYM else afrr(direction)
    availability = draw(st.sampled_from([1.0, 10.0, product.availability_s]))
    return unit, setpoint, bid, signal, dataclasses.replace(product, availability_s=availability)


class TestAgainstSampleLoops:
    """The array code against the per-sample loops kept in ``oracles``.

    Tolerances: trajectories exactly, and within 1e-9 MW so a failure
    shows its size (the arithmetic is the same);
    verdicts, first violations and delays exactly; energy and hydrogen
    1e-9 relative or 1e-12 absolute (array sums add in another order).
    """

    @settings(max_examples=200, deadline=None)
    @given(case=dispatch_cases(), at_top=st.booleans(), miss_mw=st.sampled_from(
        [sign * size for sign in (-1.0, 1.0) for size in (1.0, 0.3, 1e-3, 1e-6, 1e-9, 1e-12)]))
    def test_band_faults_match_the_sample_loop(self, case, at_top, miss_mw):
        """Setpoints at the lowest or highest that hosts the bid, moved either
        way by 1 MW down to 1e-12 MW, across the 1e-9 MW slack: both paths
        reject the same ones."""
        unit, _, bid, signal, product = case
        down = 0.0 if product.direction is Direction.NEG else bid
        up = 0.0 if product.direction is Direction.POS else bid
        edge = unit.rated_power_mw - up if at_top else unit.min_power_mw + down
        setpoint = edge + miss_mw
        rejected = []
        for run in (simulate, simulate_loop):
            try:
                run(unit, setpoint, bid, signal, product.direction)
            except ValueError:
                rejected.append(True)
            else:
                rejected.append(False)
        event("rejected" if rejected[1] else "accepted")
        assert rejected[0] == rejected[1]

    @settings(max_examples=300, deadline=None)
    @given(case=dispatch_cases())
    def test_dispatch_matches_the_sample_loops(self, case):
        unit, setpoint, bid, signal, product = case
        traj = simulate(unit, setpoint, bid, signal, product.direction)
        ref = simulate_loop(unit, setpoint, bid, signal, product.direction)
        np.testing.assert_allclose(traj.powers_mw, ref.powers_mw, rtol=0.0, atol=1e-9)
        assert np.array_equal(traj.powers_mw, ref.powers_mw)

        got = check_compliance(traj, signal, product, setpoint, bid)
        want = check_compliance_loop(traj, signal, product, setpoint, bid)
        event("violation" if not want.compliant else "compliant")
        assert got.compliant == want.compliant
        assert got.first_violation_time_s == want.first_violation_time_s
        assert got.max_delivery_delay_s == want.max_delivery_delay_s
        assert math.isclose(got.delivered_energy_mwh, want.delivered_energy_mwh,
                            rel_tol=1e-9, abs_tol=1e-12)

        kg = hydrogen_output(traj, unit.efficiency_curve)
        kg_ref = hydrogen_output_loop(traj, unit.efficiency_curve)
        assert math.isclose(kg, kg_ref, rel_tol=1e-9, abs_tol=1e-12)

    def test_an_afrr_step_day_matches_the_sample_loop(self):
        """A day of 1 s aFRR POS requests held 1-15 min, on revenue_100mw's
        unit (100 MW, 50 % min load, 0.167 %/s) bidding 40 MW at 95 MW: the
        plant sits on most holds and is still moving when others end."""
        unit = ElectrolyzerUnit("revenue", Technology.AEL, 100.0, 0.5, ramp_up=0.00167)
        rng = np.random.default_rng(0)
        values: list[float] = []
        while len(values) < 86_400:
            level = rng.choice([-40.0, 0.0, round(rng.uniform(-40.0, 0.0), 2)])
            values += [float(level)] * int(rng.integers(60, 901))
        signal = ActivationSignal(SignalKind.SETPOINT_REQUEST, values[:86_400])
        powers = simulate(unit, 95.0, 40.0, signal, Direction.POS).powers_mw
        ref = simulate_loop(unit, 95.0, 40.0, signal, Direction.POS).powers_mw
        assert np.array_equal(powers, ref)
        targets = 95.0 + signal.values[:-1]
        on_target = powers[1:] == targets
        run_ends = np.flatnonzero(targets[1:] != targets[:-1])
        assert on_target.mean() > 0.5 and not on_target[run_ends].all()

    @pytest.mark.parametrize("rated, ramp_up, dt",
                             [(1e-8, 1e-3, 1.0), (100.0, 5.0, 2.0), (1e-200, 1e-200, 1.0)],
                             ids=["band within SLACK_MW", "landing step off the target",
                                  "ramp below the smallest float"])
    def test_held_requests_match_the_sample_loop_at_any_scale(self, rated, ramp_up, dt):
        """NEG holds from the minimum load across the band, at 1e-6 to 1 of its
        width, after 20 samples of no request, which the unit starts on: a unit
        whose whole band is within ``SLACK_MW`` is on target only when equal to
        it; a unit ramping 10 times its rating a step lands on a target at
        p + (x - p), which can round off x, and only then on it; a unit whose
        ramp rounds to 0 MW a step never moves."""
        unit = ElectrolyzerUnit("edge", Technology.AEL, rated, 0.001, ramp_up=ramp_up)
        band = rated - unit.min_power_mw
        rng = np.random.default_rng(0)
        levels = rng.uniform(0.0, band, 40) * rng.choice([1e-6, 1e-3, 1.0], 40)
        values = np.r_[np.zeros(20), np.repeat(levels, rng.integers(1, 100, 40))]
        signal = ActivationSignal(SignalKind.SETPOINT_REQUEST, values, dt)
        traj = simulate(unit, unit.min_power_mw, band, signal, Direction.NEG)
        ref = simulate_loop(unit, unit.min_power_mw, band, signal, Direction.NEG)
        assert np.array_equal(traj.powers_mw, ref.powers_mw)

    @settings(max_examples=200, deadline=None)
    @given(curve=curves(), shares=st.lists(st.floats(0.0, 1.0), max_size=50))
    def test_specific_energy_matches_the_scalar_walk(self, curve, shares):
        lo, hi = curve.domain
        xs = np.array([lo + f * (hi - lo) for f in shares]
                      + [f for f, _ in curve.breakpoints] + [lo - 5e-10, hi + 5e-10])
        want = [specific_energy_at_scalar(curve, x) for x in xs.tolist()]
        np.testing.assert_allclose(specific_energy_at(curve, xs), want, rtol=1e-13, atol=0.0)
        assert type(specific_energy_at(curve, float(xs[0]))) is float
        for outside in (lo - 2e-9, hi + 2e-9, math.nan):
            with pytest.raises(ValueError, match="outside efficiency curve domain"):
                specific_energy_at(curve, np.append(xs, outside))
