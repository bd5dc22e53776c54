"""End-to-end command line behaviour, including exit codes."""

from __future__ import annotations

import errno
import json
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from elybal import __version__, cli
from elybal.cli import _unit_from_args, build_parser, main
from elybal.eligibility import default_setpoint
from elybal.markets import afrr
from elybal.scenario_io import emit_report, preset

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
DEMO = str(SCENARIOS / "demo4grid.scenario")
REVENUE = str(SCENARIOS / "revenue_100mw.scenario")
GERMAN = str(SCENARIOS / "german_fleet_2030.scenario")
EU = str(SCENARIOS / "eu_fleet_2030.scenario")
README = SCENARIOS.parent / "README.md"


def revenue_copy(tmp_path: Path, filename: str, *replacements: tuple[str, str]) -> str:
    """The 100 MW revenue scenario with absolute CSV paths and the given text replaced."""
    return scenario_copy(tmp_path, REVENUE, filename, *replacements)


def scenario_copy(tmp_path: Path, source: str, filename: str,
                  *replacements: tuple[str, str]) -> str:
    """A shipped scenario with absolute CSV paths and the given text replaced."""
    text = Path(source).read_text(encoding="utf-8")
    text = text.replace("prices/", str(SCENARIOS / "prices") + "/")
    text = text.replace("signals/", str(SCENARIOS / "signals") + "/")
    for old, new in replacements:
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / filename
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestPresets:
    def test_list(self, capsys):
        assert main(["presets", "list"]) == 0
        out = capsys.readouterr().out
        assert "sunfire-ael" in out
        assert "demo4grid" in out
        assert "3*" in out  # estimated ramp figures are starred

    def test_show(self, capsys):
        assert main(["presets", "show", "sunfire-soec"]) == 0
        out = capsys.readouterr().out
        assert "SOEC" in out
        assert "0.16" in out

    def test_show_estimated_footnote(self, capsys):
        main(["presets", "show", "ecolyzer"])
        assert "not a datasheet" in capsys.readouterr().out

    def test_show_overload_note(self, capsys):
        main(["presets", "show", "trina"])
        assert "above 100 % rated power is not modeled" in capsys.readouterr().out

    def test_show_unknown_is_an_input_error(self, capsys):
        assert main(["presets", "show", "warp-core"]) == 1
        assert "error:" in capsys.readouterr().err


class TestEligibilityCommand:
    def test_rejection_exits_2(self, capsys):
        code = main([
            "eligibility", "--preset", "demo4grid", "--product", "fcr",
            "--bid", "1", "--setpoint", "3",
        ])
        assert code == 2
        out = capsys.readouterr().out
        assert "ineligible" in out
        assert "ramp_deadline" in out

    def test_acceptance_exits_0(self, capsys):
        code = main([
            "eligibility", "--preset", "demo4grid", "--product", "afrr-pos",
            "--bid", "1", "--setpoint", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "eligible" in out
        assert "max offerable at this setpoint: 2 MW" in out

    def test_default_setpoint_maximizes_pos_headroom(self, capsys):
        code = main([
            "eligibility", "--preset", "demo4grid", "--product", "afrr-pos",
            "--bid", "1",
        ])
        assert code == 0
        assert "max offerable at this setpoint: 3 MW" in capsys.readouterr().out

    def test_json_output(self, capsys):
        main([
            "eligibility", "--preset", "demo4grid", "--product", "fcr",
            "--bid", "1", "--setpoint", "3", "--format", "json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert payload["eligible"] is False
        assert payload["limiting_constraint"] == "ramp_deadline"
        assert payload["max_offerable_mw"] == 0.0

    def test_out_file_written(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        main([
            "eligibility", "--preset", "demo4grid", "--product", "afrr-pos",
            "--bid", "1", "--out", str(out),
        ])
        capsys.readouterr()
        assert json.loads(out.read_text())["eligible"] is True

    def test_inline_unit_spec(self, capsys):
        code = main([
            "eligibility",
            "--unit", "rated_power_mw=10,min_load_pct=10,ramp_up_pct_per_s=5,technology=PEM",
            "--product", "fcr", "--bid", "4",
        ])
        assert code == 0
        assert "eligible" in capsys.readouterr().out

    @pytest.mark.parametrize("keys, rated_mw", [
        ({"preset": "demo4grid", "count": "10"}, 40.0),
        ({"technology": "PEM", "rated_power_mw": "10", "min_load_pct": "10",
          "ramp_up_pct_per_s": "5", "ramp_down_pct_per_s": "4"}, 10.0),
        ({"preset": "sunfire-ael", "efficiency_points": "25:55, 100:52"}, 10.0),
    ], ids=["count", "explicit", "efficiency-points"])
    def test_inline_unit_and_fleet_give_one_unit(self, tmp_path, keys, rated_mw):
        fleet = tmp_path / "plant.scenario"
        fleet.write_text("[unit]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()),
                         encoding="utf-8")
        forms = [["--fleet", str(fleet)]]
        if "efficiency_points" not in keys:  # the inline form splits on commas
            forms.append(["--unit", ",".join(f"{k}={v}" for k, v in keys.items())])
        units = [
            _unit_from_args(build_parser().parse_args(
                ["eligibility", *form, "--product", "fcr", "--bid", "1"]
            ))
            for form in forms
        ]
        assert all(unit == units[0] for unit in units[1:])
        assert units[0].rated_power_mw == rated_mw
        if "efficiency_points" in keys:
            assert units[0].efficiency_curve.breakpoints == ((0.25, 55.0), (1.0, 52.0))

    def test_inline_unknown_key_is_named(self, capsys):
        code = main([
            "eligibility", "--unit", "preset=demo4grid,bogus=1", "--product", "fcr",
            "--bid", "1",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "--unit" in err
        assert "key 'bogus'" in err

    def test_nan_ramp_is_an_input_error_not_a_verdict(self, capsys):
        code = main([
            "eligibility", "--unit", "preset=demo4grid,ramp_up_pct_per_s=nan",
            "--product", "fcr", "--bid", "1",
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert "ineligible" not in captured.out
        assert "--unit, key 'ramp_up_pct_per_s'" in captured.err

    def test_infinite_rated_power_is_located(self, tmp_path, capsys):
        fleet = tmp_path / "plant.scenario"
        fleet.write_text("[unit]\npreset = demo4grid\nrated_power_mw = inf\n", encoding="utf-8")
        code = main(["eligibility", "--fleet", str(fleet), "--product", "fcr", "--bid", "1"])
        assert code == 1
        assert f"{fleet}, line 3, key 'rated_power_mw'" in capsys.readouterr().err

    def test_nan_bid_is_located(self, capsys):
        code = main(["eligibility", "--preset", "demo4grid", "--product", "fcr", "--bid", "nan"])
        assert code == 1
        assert "--bid, key 'bid_mw': expected a finite number" in capsys.readouterr().err

    def test_zero_bid_is_located(self, capsys):
        code = main(["eligibility", "--preset", "demo4grid", "--product", "fcr", "--bid", "0"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --bid, key 'bid_mw': bid_mw must be in (0, inf), got 0\n"

    def test_out_of_band_setpoint_is_located(self, capsys):
        code = main(["eligibility", "--preset", "demo4grid", "--product", "fcr", "--bid", "1",
                     "--setpoint", "99"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --setpoint, key 'setpoint_mw': setpoint 99.0 MW outside "
                                "operating band [1.0, 4.0] MW\n")

    def test_non_numeric_bid_is_located(self, capsys):
        code = main(["eligibility", "--preset", "demo4grid", "--product", "fcr", "--bid", "abc"])
        assert code == 1
        assert "--bid, key 'bid_mw': expected a number, got 'abc'" in capsys.readouterr().err

    def test_fleet_flag_aggregates(self, capsys):
        code = main([
            "eligibility", "--fleet", DEMO, "--product", "afrr-pos", "--bid", "1",
        ])
        assert code == 0

    def test_large_count_fleet_offers_its_whole_headroom(self, tmp_path, capsys):
        # min power 5885·1.6 + 4901·1.0 = 14,317 MW exactly, so 122,362 - 14,317 = 108,045 MW
        # of downward room; 10,786 sequential adds put min power 1e-9 MW high, offering 108,044
        fleet = tmp_path / "fleet.scenario"
        fleet.write_text("[unit]\npreset = mcphy\ncount = 5885\n\n"
                         "[unit]\npreset = questone\ncount = 4901\n", encoding="utf-8")
        assert main(["eligibility", "--fleet", str(fleet), "--product", "afrr-pos",
                     "--bid", "1310", "--setpoint", "122362"]) == 0
        out = capsys.readouterr().out
        assert "unit: aggregate(10786 units, 143170 MW)" in out
        assert "max offerable at this setpoint: 108045 MW" in out

    def test_no_unit_is_an_input_error(self, capsys):
        code = main(["eligibility", "--product", "fcr", "--bid", "1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "one of the arguments --preset --unit --fleet is required" in captured.err

    def test_default_preset_variable_is_ignored(self, capsys, monkeypatch):
        monkeypatch.setenv("ELYBAL_DEFAULT_PRESET", "demo4grid")
        code = main(["eligibility", "--product", "afrr-pos", "--bid", "1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "one of the arguments --preset --unit --fleet is required" in captured.err

    @pytest.mark.parametrize("units, message", [
        (["--preset", "demo4grid", "--unit", "preset=mcphy"],
         "argument --unit: not allowed with argument --preset"),
        (["--unit", "preset=mcphy", "--fleet", DEMO],
         "argument --fleet: not allowed with argument --unit"),
        (["--fleet", DEMO, "--preset", "demo4grid"],
         "argument --preset: not allowed with argument --fleet"),
    ], ids=["preset-unit", "unit-fleet", "fleet-preset"])
    def test_two_unit_flags_are_an_input_error(self, capsys, units, message):
        code = main(["eligibility", *units, "--product", "afrr-pos", "--bid", "1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("flag, message", [
        ("--unit", "--unit: expected key=value, got '@plant.scenario'"),
        ("--product", "--product, key 'product': unknown product '@plant.scenario', expected one "
                      "of: afrr-neg, afrr-pos, fcr, mfrr-neg, mfrr-pos"),
        ("--bid", "--bid, key 'bid_mw': expected a number, got '@plant.scenario'"),
        ("--setpoint", "--setpoint, key 'setpoint_mw': expected a number, "
                       "got '@plant.scenario'"),
    ], ids=["unit", "product", "bid", "setpoint"])
    def test_a_file_reference_is_not_a_flag_value(self, tmp_path, capsys, monkeypatch,
                                                  flag, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "plant.scenario").write_text(
            "[unit]\npreset = mcphy\n\n[product]\nkind = fcr\n\n"
            "[dispatch]\nsetpoint_mw = 9\nbid_mw = 1\n", encoding="utf-8")
        args = {"--preset": "demo4grid", "--product": "fcr", "--bid": "1", flag: "@plant.scenario"}
        if flag == "--unit":
            del args["--preset"]
        code = main(["eligibility", *(x for kv in args.items() for x in kv)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestSimulateCommand:
    def test_fcr_activation_fails_compliance(self, capsys):
        code = main(["simulate", "--scenario", DEMO])
        assert code == 2
        out = capsys.readouterr().out
        assert "compliant: False" in out

    def test_output_files(self, tmp_path, capsys):
        code = main(["simulate", "--scenario", DEMO, "--out", str(tmp_path)])
        assert code == 2
        capsys.readouterr()
        compliance = json.loads((tmp_path / "demo4grid.compliance.json").read_text())
        assert compliance["compliance"]["compliant"] is False
        assert compliance["compliance"]["first_violation_time_s"] == 30.0
        trajectory = (tmp_path / "demo4grid.trajectory.csv").read_text().splitlines()
        assert trajectory[0] == "time_s,power_mw"
        assert trajectory[1] == "0,3.0"

    def test_plotdata_copies_the_trajectory_csv(self, tmp_path, capsys):
        path = scenario_copy(tmp_path, DEMO, "demo4grid.scenario",
                             ("formats = json", "formats = json, plotdata"))
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", path, "--out", str(out)]) == 2
        capsys.readouterr()
        assert sorted(p.name for p in (out / "demo4grid_plot").iterdir()) == ["trajectory.csv"]
        plot = (out / "demo4grid_plot" / "trajectory.csv").read_bytes()
        assert plot == (out / "demo4grid.trajectory.csv").read_bytes()

    def test_missing_scenario_is_an_input_error(self, capsys):
        code = main(["simulate", "--scenario", "drifting.scenario"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestInputFiles:
    def test_non_utf8_inputs_name_their_file(self, tmp_path, capsys):
        scenario = tmp_path / "latin1.scenario"
        scenario.write_bytes(b"[unit]\npreset = demo4grid\nname = R\xe9seau\n")
        prices = tmp_path / "latin1.csv"
        prices.write_bytes(b"block,price_eur_per_mw\nNEGPOS_00_04,\xff\n")
        for argv, path in ((["simulate", "--scenario", str(scenario)], scenario),
                           (["allocate", "--scenario", REVENUE, "--prices", str(prices)], prices)):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: not UTF-8 text"), err

    def test_a_one_row_signal_names_the_time_column(self, tmp_path, capsys):
        signal = tmp_path / "one_row.csv"
        signal.write_text("time_s,value\n0,-1\n", encoding="utf-8")
        shipped = str(SCENARIOS / "signals" / "step_down_1mw.csv")
        scenario = scenario_copy(tmp_path, DEMO, "demo4grid.scenario", (shipped, str(signal)))
        assert main(["simulate", "--scenario", scenario]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {signal}, key 'time_s': "
                       "signal file needs at least two rows to fix the timestep\n")

    @pytest.mark.parametrize("name", ["s.csv.gz", "s.csv.bz2", "s.csv.xz", "s.lzma"])
    def test_plain_signal_with_a_compressed_suffix(self, tmp_path, capsys, name):
        results = []
        for signal_name in ("s.csv", name):
            folder = tmp_path / signal_name
            folder.mkdir()
            signal = folder / signal_name
            signal.write_bytes((SCENARIOS / "signals" / "step_down_1mw.csv").read_bytes())
            shipped = str(SCENARIOS / "signals" / "step_down_1mw.csv")
            scenario = scenario_copy(folder, DEMO, "demo4grid.scenario", (shipped, str(signal)))
            code = main(["simulate", "--scenario", scenario, "--out", str(folder / "out")])
            results.append((code, capsys.readouterr(),
                            (folder / "out" / "demo4grid.compliance.json").read_bytes()))
        assert results[1] == results[0]
        assert results[0][0] == 2 and results[0][1].err == ""


class TestAllocateCommand:
    def test_reference_day_revenue(self, capsys):
        code = main(["allocate", "--scenario", REVENUE])
        assert code == 0
        out = capsys.readouterr().out
        assert "20518.15" in out

    def test_allocation_report_written(self, tmp_path, capsys):
        main(["allocate", "--scenario", REVENUE, "--out", str(tmp_path)])
        capsys.readouterr()
        payload = json.loads((tmp_path / "revenue_100mw.allocation.json").read_text())
        assert payload["capacity_revenue_eur"] == pytest.approx(20518.15)
        assert len(payload["schedule"]) == 12
        # csv is in the scenario's output formats too
        assert (tmp_path / "revenue_100mw.allocation.csv").exists()

    def test_price_override(self, tmp_path, capsys):
        cheap = tmp_path / "flat.csv"
        lines = ["block,price_eur_per_mw"]
        lines += [f"NEGPOS_{h:02d}_{h + 4:02d},10" for h in range(0, 24, 4)]
        cheap.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["allocate", "--scenario", REVENUE, "--prices", str(cheap)])
        assert code == 0
        # 5 MW * 60 euro FCR + 40 MW * 480 euro aFRR
        assert "19500.00" in capsys.readouterr().out


    def test_untradable_fcr_pin_is_an_input_error(self, tmp_path, capsys):
        text = Path(REVENUE).read_text(encoding="utf-8")
        text = text.replace("pre_reserved_fcr_mw = 5", "pre_reserved_fcr_mw = 2.5")
        text = text.replace("prices/", str(SCENARIOS / "prices") + "/")
        text = text.replace("signals/", str(SCENARIOS / "signals") + "/")
        scenario = tmp_path / "pinned.scenario"
        scenario.write_text(text, encoding="utf-8")
        assert main(["allocate", "--scenario", str(scenario)]) == 1
        assert "pre_reserved_fcr_mw" in capsys.readouterr().err

    @pytest.mark.parametrize("points", ["50.0000000005:55, 100:50", "50:55, 99.99999995:50"])
    def test_a_curve_within_the_load_slack_of_the_band_prices_hydrogen(self, tmp_path, capsys,
                                                                       points):
        # each curve end lies within 1e-9 of the unit's load band, which the unit admits;
        # the allocator's lookups at the band edge accept it too
        scenario = tmp_path / "edge.scenario"
        scenario.write_text(
            "[unit]\nname = edge\ntechnology = AEL\nrated_power_mw = 100\nmin_load_pct = 50\n"
            "ramp_up_pct_per_s = 0.167\n"
            f"efficiency_points = {points}\n\n[product]\nkind = fcr\n\n"
            f"[prices]\nfcr_capacity_csv = {SCENARIOS / 'prices' / 'capacity_2024_07_25.csv'}\n\n"
            "[allocate]\nhydrogen_value_eur_per_kg = 3\n", encoding="utf-8")
        assert main(["allocate", "--scenario", str(scenario)]) == 0
        captured = capsys.readouterr()
        assert "capacity revenue" in captured.out
        assert captured.err == ""

    def test_too_fine_a_setpoint_grid_is_an_input_error(self, tmp_path, capsys):
        fine = scenario_copy(tmp_path, DEMO, "fine.scenario",
                             ("[output]", "[allocate]\nsetpoint_grid_mw = 1e-12\n\n[output]"))
        assert main(["allocate", "--scenario", fine]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {fine}, line 31, key 'setpoint_grid_mw': "
                                       "setpoint_grid_mw = 1e-12 MW gives ")
        assert "Traceback" not in captured.err

    def test_a_failing_scenario_leaves_no_output(self, tmp_path, capsys):
        bad = revenue_copy(tmp_path, "bad.scenario",
                           ("pre_reserved_fcr_mw = 5", "pre_reserved_fcr_mw = 2.5"))
        out = tmp_path / "out"
        assert main(["allocate", "--scenario", REVENUE, bad, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "pre_reserved_fcr_mw" in captured.err
        assert captured.out == ""
        assert not out.exists() or not any(out.iterdir())


class TestEconomicsCommand:
    def test_revenue_day_report(self, capsys):
        code = main(["economics", "--scenario", REVENUE])
        assert code == 0
        out = capsys.readouterr().out
        assert "FCR 1318.15" in out
        assert "aFRR 19200.00" in out
        assert "savings ratio 13.8%" in out

    def test_economics_json_payload(self, tmp_path, capsys):
        main(["economics", "--scenario", REVENUE, "--out", str(tmp_path)])
        capsys.readouterr()
        payload = json.loads((tmp_path / "revenue_100mw.economics.json").read_text())
        assert payload["electricity_cost_eur"] == 148200.0
        assert payload["electricity_cost_rounded_eur"] == 150000.0
        assert payload["assumptions"]["electricity_price_with_fees_eur_per_mwh"] == 65.0

    def test_the_grid_fee_is_reported_as_written(self, tmp_path, capsys):
        # the fee is applied as 7 / 100 but reported as the 7 % the file gives
        path = revenue_copy(tmp_path, "fee.scenario", ("grid_fee_pct = 30", "grid_fee_pct = 7"))
        assert main(["economics", "--scenario", path, "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        payload = json.loads((tmp_path / "out" / "revenue_100mw.economics.json").read_text())
        assert payload["assumptions"]["grid_fee_pct"] == 7.0
        assert payload["assumptions"]["electricity_price_with_fees_eur_per_mwh"] == 53.5
        rows = (tmp_path / "out" / "revenue_100mw.economics.csv").read_text().splitlines()
        assert "assumptions.grid_fee_pct,7.0" in rows

    def test_economics_json_report_carries_no_activation_revenue(self, tmp_path, capsys):
        # aFRR activation revenue is not modeled, so the report has no field for it
        main(["economics", "--scenario", REVENUE, "--out", str(tmp_path)])
        capsys.readouterr()
        payload = json.loads((tmp_path / "revenue_100mw.economics.json").read_text())
        assert sorted(payload) == [
            "afrr_capacity_revenue_eur", "assumptions", "coverage", "electricity_cost_eur",
            "electricity_cost_rounded_eur", "fcr_revenue_eur", "savings_ratio",
            "savings_ratio_vs_rounded_cost",
        ]

    def test_fleet_coverage_report(self, capsys):
        code = main(["economics", "--scenario", GERMAN])
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet share 5%" in out
        assert "band 10%" in out

    def test_scenarios_print_in_argument_order(self, capsys):
        code = main(["economics", "--scenario", GERMAN, EU])
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert lines[0].startswith("german_fleet_2030")
        assert lines[1].startswith("eu_fleet_2030")

    def test_an_overflowing_revenue_is_an_input_error(self, tmp_path, capsys):
        # 1e308 lies in the key's range, but 40 MW of it over 24 h does not fit a float;
        # no single key overflows, so the error stands at the [economics] header
        path = revenue_copy(tmp_path, "huge.scenario", ("afrr_price_eur_per_mw_h = 20",
                                                        "afrr_price_eur_per_mw_h = 1e308"))
        assert main(["economics", "--scenario", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {path}, line 37: afrr_capacity_revenue_eur must be in "
                                "(-inf, inf), got inf\n")

    @pytest.mark.parametrize("hours", ["0", "-1", "24.5"])
    def test_hours_per_day_outside_a_day_is_located(self, tmp_path, capsys, hours):
        path = revenue_copy(tmp_path, "hours.scenario",
                            ("hours_per_day = 24", f"hours_per_day = {hours}"))
        assert main(["economics", "--scenario", path]) == 1
        err = capsys.readouterr().err
        assert "line 39, key 'hours_per_day'" in err
        assert "(0, 24]" in err

    def test_zero_spot_threshold_is_a_threshold(self, tmp_path, capsys):
        (tmp_path / "spot.csv").write_text(
            "timestamp,price_eur_per_mwh\n2024-07-25T00:00:00,-5\n2024-07-25T01:00:00,40\n",
            encoding="utf-8",
        )
        scenario = tmp_path / "spot.scenario"
        scenario.write_text(
            "[scenario]\nname = spot\n\n[prices]\nspot_csv = spot.csv\n\n"
            "[economics]\nsetpoint_mw = 10\nspot_threshold_eur_per_mwh = 0\n",
            encoding="utf-8",
        )
        assert main(["economics", "--scenario", str(scenario), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        payload = json.loads((tmp_path / "spot.economics.json").read_text())
        assert payload["assumptions"]["spot_threshold_eur_per_mwh"] == 0.0
        assert payload["assumptions"]["qualifying_hours"] == 1
        assert payload["assumptions"]["electricity_price_eur_per_mwh"] == -5.0
        assert payload["electricity_cost_eur"] == -1200.0

    def test_nothing_to_compute_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "e.scenario"
        path.write_text("[scenario]\nname = e\n\n[unit]\npreset = demo4grid\n\n"
                        "[economics]\nsetpoint_mw = 3\n", encoding="utf-8")
        assert main(["economics", "--scenario", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path}, line 7: [economics] computes nothing" in captured.err
        for pair in ("fcr_bid_mw with [prices] fcr_capacity_csv",
                     "afrr_quantity_mw with an aFRR price",
                     "setpoint_mw with electricity_price_eur_per_mwh",
                     "[prices] spot_csv with spot_threshold_eur_per_mwh",
                     "required_reserve_mw with fleet_power_mw"):
            assert pair in captured.err

    def test_negative_bid_without_prices_is_located(self, tmp_path, capsys):
        path = tmp_path / "h.scenario"
        path.write_text("[scenario]\nname = h\n\n[economics]\nfcr_bid_mw = -5\n",
                        encoding="utf-8")
        assert main(["economics", "--scenario", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"{path}, line 5, key 'fcr_bid_mw': fcr_bid_mw must be in [0, inf), got -5"
                in captured.err)

    @pytest.mark.parametrize("old, new, line", [
        ("grid_fee_pct = 30", "grid_fee_pct = -200", 41),
        ("setpoint_mw = 95\nhours_per_day", "setpoint_mw = -3\nhours_per_day", 38),
        ("afrr_price_eur_per_mw_h = 20", "afrr_price_eur_per_mw_h = -5", 23),
    ], ids=["grid-fee", "setpoint", "afrr-price"])
    def test_out_of_range_economics_input_is_located(self, tmp_path, capsys, old, new, line):
        path = revenue_copy(tmp_path, "range.scenario", (old, new))
        assert main(["economics", "--scenario", path]) == 1
        key, value = new.split("\n")[0].split(" = ")
        assert (f"line {line}, key '{key}': {key} must be in [0, inf), got {value}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("after, key, section, line", [
        ("afrr_price_eur_per_mw_h = 20", "afrr_price_eur_per_mw_block = 80", "prices", 24),
        ("afrr_quantity_mw = 40", "afrr_activation_revenue_eur = 100", "economics", 44),
    ], ids=["block-price", "activation-revenue"])
    def test_removed_keys_are_unknown(self, tmp_path, capsys, after, key, section, line):
        path = revenue_copy(tmp_path, "removed.scenario", (after, f"{after}\n{key}"))
        assert main(["economics", "--scenario", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        name = key.split(" = ")[0]
        assert (f"{path}, line {line}, key '{name}': unknown key in [{section}]"
                in captured.err)


class TestRepeats:
    def test_repeated_dispatch_section_is_an_input_error(self, tmp_path, capsys):
        # the appended section would pass where the shipped one fails
        path = scenario_copy(tmp_path, DEMO, "twice.scenario", (
            "formats = json",
            "formats = json\n\n[dispatch]\nsetpoint_mw = 4\nbid_mw = 1\nproduct = afrr-pos",
        ))
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        first = lines.index("[dispatch]") + 1
        again = len(lines) - lines[::-1].index("[dispatch]")
        assert main(["simulate", "--scenario", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"{path}, line {again}: section [dispatch] may appear once, first at line "
                f"{first}" in captured.err)

    def test_repeated_key_is_an_input_error(self, tmp_path, capsys):
        path = scenario_copy(tmp_path, DEMO, "twice.scenario",
                             ("setpoint_mw = 3", "setpoint_mw = 3\nsetpoint_mw = 99"))
        line = Path(path).read_text(encoding="utf-8").splitlines().index("setpoint_mw = 99") + 1
        assert main(["simulate", "--scenario", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"{path}, line {line}, key 'setpoint_mw': key given twice in [dispatch]"
                in captured.err)

    def test_repeated_flag_key_is_an_input_error(self, capsys):
        code = main([
            "eligibility", "--unit", "preset=demo4grid,rated_power_mw=4,rated_power_mw=40",
            "--product", "afrr-pos", "--bid", "1",
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--unit, key 'rated_power_mw': key given twice in [unit]" in captured.err

    def test_dispatch_must_name_one_of_several_products(self, tmp_path, capsys):
        path = scenario_copy(tmp_path, DEMO, "unnamed.scenario", ("product = fcr\n", ""))
        line = Path(path).read_text(encoding="utf-8").splitlines().index("[dispatch]") + 1
        assert main(["simulate", "--scenario", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"{path}, line {line}, key 'product': scenario has 2 [product] sections; "
                "[dispatch] product must pick one" in captured.err)

    @pytest.mark.parametrize("command", ["simulate", "economics"])
    @pytest.mark.parametrize("given, at, message", [
        ("product = xyz\n", "product = xyz", "unknown product 'xyz'"),
        ("product = afrr-neg\n", "product = afrr-neg", "scenario has no [product] aFRR NEG"),
        ("", "[dispatch]", "scenario has 2 [product] sections; [dispatch] product must pick one"),
    ], ids=["unknown", "not-among", "unnamed"])
    def test_dispatch_product_faults_are_located_whichever_command_runs(
            self, tmp_path, capsys, command, given, at, message):
        path = scenario_copy(tmp_path, DEMO, "bad.scenario", ("product = fcr\n", given))
        line = Path(path).read_text(encoding="utf-8").splitlines().index(at) + 1
        assert main([command, "--scenario", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path}, line {line}, key 'product': {message}" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["simulate", "allocate", "economics"])
    @pytest.mark.parametrize("setpoint, message", [
        ("99", "setpoint 99.0 MW outside operating band [1.0, 4.0] MW"),
        ("3.9", "setpoint 3.9 MW cannot host a 1.0 MW upward activation below the rated "
                "power 4.0 MW"),
    ], ids=["out-of-band", "no-room"])
    def test_dispatch_setpoint_faults_are_located_whichever_command_runs(
            self, tmp_path, capsys, command, setpoint, message):
        path = scenario_copy(tmp_path, DEMO, "bad.scenario",
                             ("setpoint_mw = 3", f"setpoint_mw = {setpoint}"))
        line = Path(path).read_text(encoding="utf-8").splitlines().index(
            f"setpoint_mw = {setpoint}") + 1
        assert main([command, "--scenario", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}, line {line}, key 'setpoint_mw': {message}\n"

    def test_dispatch_without_any_product_cannot_simulate(self, tmp_path, capsys):
        path = scenario_copy(tmp_path, DEMO, "none.scenario",
                             ("[product]\nkind = fcr\n\n[product]\nkind = afrr\ndirection = pos\n",
                              ""), ("product = fcr\n", ""))
        assert main(["simulate", "--scenario", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: scenario has no [product] section\n"

    def test_a_symmetric_afrr_product_is_an_input_error(self, tmp_path, capsys):
        path = scenario_copy(tmp_path, DEMO, "sym.scenario",
                             ("direction = pos", "direction = sym"))
        line = Path(path).read_text(encoding="utf-8").splitlines().index("direction = sym") + 1
        assert main(["simulate", "--scenario", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"{path}, line {line}, key 'direction': no aFRR SYM product: FCR is SYM, "
                "aFRR and mFRR are POS or NEG" in captured.err)


class TestScenarioCommands:
    @pytest.mark.parametrize("command, kinds", [
        ("simulate", ("compliance.json", "compliance.csv", "trajectory.csv")),
        ("allocate", ("allocation.json", "allocation.csv")),
        ("economics", ("economics.json", "economics.csv")),
    ])
    def test_dotted_names_keep_their_files_apart(self, tmp_path, capsys, command, kinds):
        names = ("x.a", "x.b")
        paths = [
            revenue_copy(tmp_path, f"{n}.scenario", ("name = revenue_100mw", f"name = {n}"))
            for n in names
        ]
        out = tmp_path / "out"
        assert main([command, "--scenario", *paths, "--out", str(out)]) == 0
        capsys.readouterr()
        assert sorted(p.name for p in out.iterdir()) == sorted(
            f"{n}.{kind}" for n in names for kind in kinds
        )

    @pytest.mark.parametrize("name", ["../escaped", "sub/x", "sub\\x", "..", ".", "", "a\0b"])
    def test_a_name_that_leaves_the_out_directory_is_located(self, tmp_path, capsys, name):
        path = scenario_copy(tmp_path, DEMO, "demo.scenario",
                             ("name = demo4grid", f"name = {name}"))
        line = Path(path).read_text(encoding="utf-8").splitlines().index(f"name = {name}") + 1
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", path, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {path}, line {line}, key 'name': expected a file name "
                                f"without '/', '\\' or NUL, not '.' or '..', got '{name}'\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["demo.scenario"]

    @pytest.mark.parametrize("out", [True, False], ids=["out", "no-out"])
    def test_one_name_twice_is_an_input_error_with_out(self, tmp_path, capsys, out):
        paths = []
        for folder in ("a", "b"):
            (tmp_path / folder).mkdir()
            paths.append(scenario_copy(tmp_path / folder, GERMAN, f"{folder}.scenario",
                                       ("name = german_fleet_2030", "name = x")))
        argv = ["economics", "--scenario", *paths]
        if not out:
            assert main(argv) == 0
            assert capsys.readouterr().out.count("x: fleet share") == 2
            return
        assert main([*argv, "--out", str(tmp_path / "dup")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"error: {paths[0]} and {paths[1]} are both named 'x'; their reports would "
                "overwrite each other" in captured.err)
        assert not (tmp_path / "dup").exists()

    def test_a_failed_write_keeps_no_report_and_names_the_scenario(self, tmp_path, capsys):
        first = revenue_copy(tmp_path, "f.scenario", ("name = revenue_100mw", "name = first"))
        # a 300-character file name is longer than file systems allow
        long = revenue_copy(tmp_path, "long.scenario", ("name = revenue_100mw", "name = " + "x" * 300))
        out = tmp_path / "out"
        assert main(["economics", "--scenario", first, long, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {long}: cannot write its reports, so none are kept: ")
        assert [p for p in out.rglob("*") if p.is_file()] == []

    def test_a_half_written_report_is_deleted_too(self, tmp_path, capsys, monkeypatch):
        def disk_full_on_csv(payload, fmt, dest):
            if fmt == "csv":
                Path(dest).write_text("field,val")
                raise OSError(errno.ENOSPC, "No space left on device")
            return emit_report(payload, fmt, dest)

        monkeypatch.setattr(cli, "emit_report", disk_full_on_csv)
        out = tmp_path / "out"
        assert main(["allocate", "--scenario", REVENUE, "--out", str(out)]) == 1
        assert f"error: {REVENUE}: cannot write" in capsys.readouterr().err
        assert [p for p in out.rglob("*") if p.is_file()] == []

    # Each runner fault, on a copy of a shipped scenario: the command, the text
    # replaced, the key the error names (None: no single key, as in an
    # overflow) and the line it stands at, given by that line's text.  A key
    # the file leaves out stands at its section header.
    @pytest.mark.parametrize("command, source, replacements, key, at", [
        ("allocate", DEMO, (("[signal]", "[allocate]\npre_reserved_fcr_mw = 1.5\n\n[signal]"),),
         "pre_reserved_fcr_mw", "pre_reserved_fcr_mw = 1.5"),
        ("economics", DEMO, (("afrr_price_eur_per_mw_h = 20", "spot_csv = spot.csv"),
                             ("[output]", "[economics]\nsetpoint_mw = 3\n"
                                          "spot_threshold_eur_per_mwh = -100\n\n[output]")),
         "spot_threshold_eur_per_mwh", "spot_threshold_eur_per_mwh = -100"),
        ("allocate", REVENUE, (("[product]\nkind = fcr\n\n", ""),
                               ("product = fcr", "product = afrr")),
         "pre_reserved_fcr_mw", "pre_reserved_fcr_mw = 5"),
        ("allocate", REVENUE, (("pre_reserved_fcr_mw = 5", "hydrogen_value_eur_per_kg = 5"),),
         "hydrogen_value_eur_per_kg", "hydrogen_value_eur_per_kg = 5"),
        ("allocate", REVENUE, (("ramp_up_pct_per_s = 0.167", "ramp_up_pct_per_s = 0.167\n"
                                "efficiency_points = 50:55, 100:50\ncount = 2"),
                               ("setpoint_mw = 95\nbid_mw", "setpoint_mw = 190\nbid_mw"),
                               ("pre_reserved_fcr_mw = 5", "hydrogen_value_eur_per_kg = 5")),
         "hydrogen_value_eur_per_kg", "hydrogen_value_eur_per_kg = 5"),
        ("allocate", REVENUE, (("fcr_capacity_csv = ", "# fcr_capacity_csv = "),),
         "fcr_capacity_csv", "[prices]"),
        ("allocate", REVENUE, (("afrr_price_eur_per_mw_h = 20", "# no aFRR price"),),
         "afrr_price_eur_per_mw_h", "[prices]"),
        ("allocate", REVENUE, (("direction = pos", "direction = neg"),),
         "direction", "direction = neg"),
        ("allocate", REVENUE, (("kind = afrr", "kind = mfrr"),), "kind", "kind = mfrr"),
        ("allocate", REVENUE, (("[product]\nkind = fcr\n\n[product]\nkind = afrr\n"
                                "direction = pos\n\n", ""),
                               ("[output]", "[product]\nkind = fcr\n\n[product]\nkind = mfrr\n\n"
                                "[output]")),
         "kind", "kind = mfrr"),
        ("allocate", REVENUE, (("= 20", "= 1e308"),),
         "afrr_price_eur_per_mw_h", "afrr_price_eur_per_mw_h = 1e308"),
        ("economics", REVENUE, (("fcr_bid_mw = 5", "fcr_bid_mw = 1e306"),), None, "[economics]"),
        ("economics", DEMO, (("afrr_price_eur_per_mw_h = 20", "spot_csv = empty.csv"),
                             ("[output]", "[economics]\nsetpoint_mw = 3\n"
                                          "spot_threshold_eur_per_mwh = 50\n\n[output]")),
         "spot_csv", "spot_csv = empty.csv"),
        ("allocate", REVENUE, (("ramp_up_pct_per_s = 0.167", "ramp_up_pct_per_s = 0.167\n"
                                "efficiency_points = 40:55, 100:50"),),
         "efficiency_points", "efficiency_points = 40:55, 100:50"),
        ("allocate", REVENUE, (("rated_power_mw = 100", "rated_power_mw = 1e308\ncount = 2"),),
         "rated_power_mw", "rated_power_mw = 1e308"),
    ], ids=["untradable-pin", "no-spot-hour", "pin-without-fcr", "hydrogen-without-curve",
            "hydrogen-on-a-fleet", "no-fcr-prices", "no-afrr-price", "afrr-neg", "mfrr",
            "mfrr-after-signal", "afrr-block-overflow", "fcr-revenue-overflow",
            "empty-spot-file", "curve-outside-the-band", "fleet-power-overflow"])
    def test_a_runner_error_names_the_scenario(self, tmp_path, capsys, command, source,
                                               replacements, key, at):
        (tmp_path / "spot.csv").write_text(
            "timestamp,price_eur_per_mwh\n2024-07-25T00:00:00,40\n", encoding="utf-8")
        (tmp_path / "empty.csv").write_text("timestamp,price_eur_per_mwh\n", encoding="utf-8")
        path = scenario_copy(tmp_path, source, "fault.scenario", *replacements)
        line = Path(path).read_text(encoding="utf-8").splitlines().index(at) + 1
        assert main([command, "--scenario", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        where = f"line {line}" + ("" if key is None else f", key '{key}'")
        assert captured.err.startswith(f"error: {path}, {where}: "), captured.err
        assert "Traceback" not in captured.err

    def test_a_key_of_an_absent_section_is_named_without_a_line(self, tmp_path, capsys):
        path = tmp_path / "bare.scenario"
        path.write_text("[unit]\npreset = demo4grid\n\n[product]\nkind = fcr\n", encoding="utf-8")
        assert main(["allocate", "--scenario", str(path)]) == 1
        assert capsys.readouterr().err == (f"error: {path}, key 'fcr_capacity_csv': FCR is "
                                           "offered but no capacity price table was given\n")

    def test_simulate_mixed_verdicts_exit_2_in_argument_order(self, capsys):
        assert main(["simulate", "--scenario", REVENUE, DEMO]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert [l.split(":")[0] for l in lines if not l.startswith(" ")] == [
            "revenue_100mw", "demo4grid",
        ]
        assert [l.strip() for l in lines if "compliant" in l] == [
            "compliant: True", "compliant: False",
        ]


class TestArgumentHandling:
    def test_usage_error_exits_1(self, capsys):
        assert main(["eligibility", "--bid", "1"]) == 1  # --product missing
        assert "error" in capsys.readouterr().err

    def test_unknown_command_exits_1(self, capsys):
        assert main(["trade"]) == 1
        capsys.readouterr()

    def test_version_exits_0(self, capsys):
        assert main(["--version"]) == 0
        assert "elybal" in capsys.readouterr().out


class TestSharedParser:
    """``main`` reuses one parser per process; no call may see another's arguments."""

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_an_omitted_setpoint_is_the_default_again(self, capsys):
        argv = ["eligibility", "--preset", "demo4grid", "--product", "afrr-pos", "--bid", "1",
                "--format", "json"]
        unit = preset("demo4grid").to_unit()
        assert main([*argv, "--setpoint", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["setpoint_mw"] == 2.0
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["setpoint_mw"] == default_setpoint(unit, afrr())

    def test_error_version_and_command_each_give_their_own_result(self, capsys):
        assert main(["eligibility", "--bid", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "--product" in captured.err
        assert main(["--version"]) == 0
        assert capsys.readouterr().out == f"elybal {__version__}\n"
        assert main(["presets", "show", "mcphy"]) == 0
        assert capsys.readouterr().out.startswith("name: McPhy\n")


def test_console_entry_point_runs():
    # run from src/ so `-m` imports this checkout, installed or not
    proc = subprocess.run(
        [sys.executable, "-m", "elybal.cli", "presets", "list"],
        capture_output=True, text=True, timeout=60, cwd=SCENARIOS.parent / "src",
    )
    assert proc.returncode == 0
    assert "sunfire-ael" in proc.stdout


def readme_transcripts() -> list[list]:
    """The README's ``$ elybal ...`` lines inside code fences, each as
    [arguments, lines shown after it, exit code]: the code a following
    ``$ echo $?`` shows, else 0."""
    runs, current, fenced = [], None, False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced, current = not fenced, None
        elif not fenced:
            continue
        elif line.startswith("$ elybal "):
            current = [line.removeprefix("$ elybal "), [], 0]
            runs.append(current)
        elif current is None:
            continue
        elif current[2] is None:
            current[2] = int(line)
        elif line == "$ echo $?":
            current[2] = None
        else:
            current[1].append(line)
    for run in runs:
        while run[1] and not run[1][-1]:
            run[1].pop()
    return runs


def shown_lines_match(shown: list[str], printed: list[str]) -> bool:
    """Line by line equality, where a shown ``...`` line matches any lines."""
    if not shown:
        return not printed
    if shown[0] == "...":
        return any(shown_lines_match(shown[1:], printed[i:]) for i in range(len(printed) + 1))
    return bool(printed) and shown[0] == printed[0] and shown_lines_match(shown[1:], printed[1:])


def test_readme_shows_its_transcripts():
    assert len(readme_transcripts()) >= 5


@pytest.mark.parametrize("arguments, shown, code",
                         [pytest.param(*run, id=run[0]) for run in readme_transcripts()])
def test_readme_transcript(arguments, shown, code, tmp_path, monkeypatch, capsys):
    shutil.copytree(SCENARIOS, tmp_path / "scenarios")
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(arguments)) == code
    captured = capsys.readouterr()
    printed = (captured.out + captured.err).splitlines()
    assert shown_lines_match(shown, printed), "\n".join(printed)
