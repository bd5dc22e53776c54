"""End-to-end command line behaviour, including exit codes."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from elybal.cli import _unit_from_args, build_parser, main

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
DEMO = str(SCENARIOS / "demo4grid.scenario")
REVENUE = str(SCENARIOS / "revenue_100mw.scenario")
GERMAN = str(SCENARIOS / "german_fleet_2030.scenario")
EU = str(SCENARIOS / "eu_fleet_2030.scenario")


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

    def test_unit_fragment_reference(self, tmp_path, capsys):
        frag = tmp_path / "plant.scenario"
        frag.write_text("[unit]\npreset = mcphy\n", encoding="utf-8")
        code = main([
            "eligibility", "--unit", f"@{frag}", "--product", "fcr", "--bid", "2",
        ])
        assert code == 0
        assert "McPhy" in capsys.readouterr().out

    @pytest.mark.parametrize("keys, rated_mw", [
        ({"preset": "demo4grid", "count": "10"}, 40.0),
        ({"technology": "PEM", "rated_power_mw": "10", "min_load_pct": "10",
          "ramp_up_pct_per_s": "5", "ramp_down_pct_per_s": "4"}, 10.0),
        ({"preset": "sunfire-ael", "efficiency_points": "25:55, 100:52"}, 10.0),
    ], ids=["count", "explicit", "efficiency-points"])
    def test_inline_fragment_and_fleet_give_one_unit(self, tmp_path, keys, rated_mw):
        frag = tmp_path / "plant.scenario"
        frag.write_text("[unit]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()),
                        encoding="utf-8")
        forms = [["--unit", f"@{frag}"], ["--fleet", str(frag)]]
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
        frag = tmp_path / "plant.scenario"
        frag.write_text("[unit]\npreset = demo4grid\nrated_power_mw = inf\n", encoding="utf-8")
        code = main(["eligibility", "--unit", f"@{frag}", "--product", "fcr", "--bid", "1"])
        assert code == 1
        assert f"{frag}, line 3, key 'rated_power_mw'" in capsys.readouterr().err

    def test_nan_bid_is_located(self, capsys):
        code = main(["eligibility", "--preset", "demo4grid", "--product", "fcr", "--bid", "nan"])
        assert code == 1
        assert "--bid, key 'bid_mw': expected a finite number" in capsys.readouterr().err

    def test_non_numeric_bid_fragment_is_located(self, tmp_path, capsys):
        frag = tmp_path / "bid.scenario"
        frag.write_text("[dispatch]\nbid_mw = abc\n", encoding="utf-8")
        code = main([
            "eligibility", "--preset", "demo4grid", "--product", "fcr", "--bid", f"@{frag}",
        ])
        assert code == 1
        assert f"{frag}, line 2, key 'bid_mw': expected a number" in capsys.readouterr().err

    def test_fleet_flag_aggregates(self, capsys):
        code = main([
            "eligibility", "--fleet", DEMO, "--product", "afrr-pos", "--bid", "1",
        ])
        assert code == 0

    def test_no_unit_is_an_input_error(self, capsys, monkeypatch):
        monkeypatch.delenv("ELYBAL_DEFAULT_PRESET", raising=False)
        code = main(["eligibility", "--product", "fcr", "--bid", "1"])
        assert code == 1
        assert "no unit given" in capsys.readouterr().err

    def test_default_preset_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("ELYBAL_DEFAULT_PRESET", "demo4grid")
        code = main(["eligibility", "--product", "afrr-pos", "--bid", "1"])
        assert code == 0


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

    def test_scenario_dir_env_fallback(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("ELYBAL_SCENARIO_DIR", str(SCENARIOS))
        code = main(["simulate", "--scenario", "demo4grid.scenario"])
        assert code == 2
        assert "demo4grid" in capsys.readouterr().out

    def test_missing_scenario_is_an_input_error(self, capsys):
        code = main(["simulate", "--scenario", "drifting.scenario"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


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

    def test_fleet_coverage_report(self, capsys):
        code = main(["economics", "--scenario", GERMAN])
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet share 5%" in out
        assert "band 10%" in out

    def test_jobs_preserve_scenario_order(self, capsys):
        code = main(["economics", "--scenario", GERMAN, EU])
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert lines[0].startswith("german_fleet_2030")
        assert lines[1].startswith("eu_fleet_2030")


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


def test_console_entry_point_runs():
    # run from src/ so `-m` imports this checkout, installed or not
    proc = subprocess.run(
        [sys.executable, "-m", "elybal.cli", "presets", "list"],
        capture_output=True, text=True, timeout=60, cwd=SCENARIOS.parent / "src",
    )
    assert proc.returncode == 0
    assert "sunfire-ael" in proc.stdout
