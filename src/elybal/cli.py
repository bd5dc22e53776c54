"""Command line front end.

Exit codes: 0 on success (and on an eligible/compliant verdict), 2 when
the analysis itself is negative (ineligible bid, failed compliance), 1 on
input errors of any kind.

Each flag value is read and checked as the scenario key that holds it in
a file: ``--unit key=value,...`` as one [unit] section, ``--product``,
``--bid`` and ``--setpoint`` as [dispatch] product, bid_mw and
setpoint_mw, and ``--prices`` as [prices] fcr_capacity_csv.  Exactly one
of ``--preset``, ``--unit`` and ``--fleet FILE`` names the unit.  Relative
paths resolve against the working directory.

In-process ``main`` calls share one parser, built once by ``build_parser``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from pathlib import Path

from . import __version__
from .allocate import optimize_day
from .dispatch import PowerTrajectory, check_compliance, simulate
from .economics import build_report
from .eligibility import check_eligibility, default_setpoint, max_offerable
from .model import ElectrolyzerUnit
from .scenario_io import (
    PRESETS,
    Scenario,
    ScenarioError,
    emit_report,
    flag_file,
    flag_unit,
    flag_value,
    load_capacity_prices,
    load_scenario,
    preset,
    write_trajectory_csv,
)


class _Parser(argparse.ArgumentParser):
    # input errors exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _unit_from_args(args) -> ElectrolyzerUnit:
    if args.fleet is not None:
        return load_scenario(args.fleet).primary_unit()
    if args.unit is not None:
        return flag_unit(args.unit)
    return preset(args.preset).to_unit()


def cmd_eligibility(args) -> int:
    unit = _unit_from_args(args)
    product = flag_value("--product", "dispatch", "product", args.product)
    bid = flag_value("--bid", "dispatch", "bid_mw", args.bid)
    setpoint = (default_setpoint(unit, product) if args.setpoint is None  # in the band
                else flag_value("--setpoint", "dispatch", "setpoint_mw", args.setpoint,
                                unit.check_setpoint))
    report = check_eligibility(unit, product, bid, setpoint)
    max_bid, max_sp = max_offerable(unit, product, setpoint)
    if args.format == "json" or args.out:
        payload = {**report.to_dict(), "max_offerable_mw": max_bid,
                   "max_offerable_setpoint_mw": max_sp}

    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(
            f"unit: {unit.name} ({unit.rated_power_mw:g} MW, "
            f"min load {unit.min_load_fraction * 100:g}%, "
            f"ramp {unit.ramp_up * 100:g}%/s up, {unit.ramp_down * 100:g}%/s down)"
        )
        print(
            f"product: {product.label} (min bid {product.min_bid_mw:g} MW, "
            f"availability {product.availability_s:g} s)"
        )
        print(f"bid: {bid:g} MW at setpoint {setpoint:g} MW")
        for c in report.constraints:
            flag = "PASS" if c.passed else "FAIL"
            print(f"  [{flag}] {c.name:<13} required {c.required:>10.3f}  actual {c.actual:>10.3f}")
        verdict = "eligible" if report.eligible else (
            f"ineligible (limiting constraint: {report.limiting_constraint})"
        )
        print(verdict)
        print(f"max offerable at this setpoint: {max_bid:g} MW")
    if args.out:
        emit_report(payload, "json", Path(args.out))
    return 0 if report.eligible else 2


def _section(scenario: Scenario, value, name: str):
    """``value``, the scenario's [name] section; an input error when it is absent."""
    if not value:
        raise ScenarioError(f"scenario has no [{name}] section", source=str(scenario.path))
    return value


def _simulate(scenario: Scenario, args) -> tuple[str, bool, dict]:
    settings = _section(scenario, scenario.dispatch, "dispatch")
    signal = _section(scenario, scenario.signal, "signal")
    unit = scenario.primary_unit()
    product = _section(scenario, settings.product, "product")
    setpoint, bid = settings.setpoint_mw, settings.bid_mw
    trajectory = simulate(unit, setpoint, bid, signal, product.direction)
    compliance = check_compliance(trajectory, signal, product, setpoint, bid)
    text = "\n".join([
        f"{scenario.name}: {product.label} {bid:g} MW at setpoint {setpoint:g} MW",
        f"  compliant: {compliance.compliant}",
        f"  max delivery delay: {compliance.max_delivery_delay_s:g} s "
        f"(deadline {product.availability_s:g} s)",
        f"  delivered energy: {compliance.delivered_energy_mwh:.6f} MWh",
    ])
    report = {"compliance": compliance.to_dict(), "scenario": scenario.name}
    return text, compliance.compliant, {"compliance": report, "trajectory": trajectory}


def _allocate(scenario: Scenario, args) -> tuple[str, bool, dict]:
    unit = scenario.primary_unit()
    _section(scenario, scenario.products, "product")
    fcr_prices = scenario.fcr_prices
    if args.prices is not None:
        fcr_prices = flag_file("--prices", "prices", "fcr_capacity_csv", args.prices,
                               load_capacity_prices)
    afrr_hourly = scenario.afrr_price_eur_per_mw_h
    afrr_block = None if afrr_hourly is None else afrr_hourly * 4.0  # held over a 4 h block
    result = scenario.run("allocate", lambda: optimize_day(unit, scenario.products, fcr_prices,
                                                           afrr_block, scenario.allocate_options))
    reserved = {}
    for e in result.schedule.entries:
        reserved[e.product.label] = reserved.get(e.product.label, 0.0) + e.quantity_mw
    summary = ", ".join(f"{k}: {v:g} MW-blocks" for k, v in sorted(reserved.items()))
    text = (
        f"{scenario.name}: capacity revenue {result.capacity_revenue_eur:.2f} euro/day"
        + (f" ({summary})" if summary else " (no bids)")
    )
    return text, True, {"allocation": result}


def _economics(scenario: Scenario, args) -> tuple[str, bool, dict]:
    settings = _section(scenario, scenario.economics, "economics")
    report = scenario.run("economics", lambda: build_report(
        settings, scenario.fcr_prices, scenario.afrr_price_eur_per_mw_h, scenario.spot_prices))
    parts = [f"{scenario.name}:"]
    if report.fcr_revenue_eur is not None:
        parts.append(f"FCR {report.fcr_revenue_eur:.2f} euro/day")
    if report.afrr_capacity_revenue_eur is not None:
        parts.append(f"aFRR {report.afrr_capacity_revenue_eur:.2f} euro/day")
    if report.savings_ratio is not None:
        parts.append(f"savings ratio {report.savings_ratio * 100:.1f}%")
    if report.coverage is not None:
        parts.append(f"fleet share {report.coverage.share * 100:g}%")
        if report.coverage.headroom_band is not None:
            parts.append(f"band {report.coverage.headroom_band * 100:g}%")
    return " ".join(parts), True, {"economics": report}


def _write_reports(scenario: Scenario, reports: dict, out_dir: Path, written: list[Path]) -> None:
    """Write ``<out_dir>/<name>.<kind>.<fmt>`` for json and csv in ``[output] formats``.

    A trajectory is always written as ``<name>.<kind>.csv``, and under ``plotdata`` the same
    text to ``<name>_plot/<kind>.csv``.  The scenario name is used verbatim, dots included.
    A report is rewritten in place, through a link if it is one, and not synced to disk.  Each
    path is added to ``written`` before its file is written, so a write that fails part way
    still names the file it may have left.
    """
    for kind, payload in reports.items():
        base = f"{scenario.name}.{kind}"
        if isinstance(payload, PowerTrajectory):
            paths = [out_dir / f"{base}.csv"]
            if "plotdata" in scenario.output_formats:
                paths.append(out_dir / f"{scenario.name}_plot" / f"{kind}.csv")
            written.extend(paths)
            write_trajectory_csv(payload, *paths)
            continue
        for fmt in ("json", "csv"):
            if fmt in scenario.output_formats:
                written.append(out_dir / f"{base}.{fmt}")
                emit_report(payload, fmt, written[-1])


def cmd_scenarios(args) -> int:
    """Run a scenario command on every ``--scenario``, then write the reports
    and print the texts in argument order.  The command's runner maps one
    scenario to its text, its verdict and its reports, keyed by report kind,
    calling the library through ``Scenario.run``.  Nothing is written or
    printed until every scenario has run, so a run that fails on a later
    scenario writes no file.  With ``--out``, two scenarios of one name are
    an input error, and a write that fails (an ``OSError``) deletes every
    file this call has written, for a link also the regular file it points
    to (never a device), prints nothing and raises a ``ScenarioError``
    naming the failing scenario's file; the directories it made stay."""
    runs = []
    for value in args.scenario:
        scenario = load_scenario(value)
        runs.append((scenario, *args.runner(scenario, args)))
    if args.out:
        paths: dict[str, Path] = {}
        for scenario, *_ in runs:
            if scenario.name in paths:
                raise ScenarioError(
                    f"{paths[scenario.name]} and {scenario.path} are both named "
                    f"'{scenario.name}'; their reports would overwrite each other")
            paths[scenario.name] = scenario.path
        written: list[Path] = []
        for scenario, _, _, reports in runs:
            try:
                _write_reports(scenario, reports, Path(args.out), written)
            except OSError as exc:
                for path in written:  # through a link its file goes too, unless not a regular one
                    for name in (os.path.realpath(path), path):
                        with contextlib.suppress(OSError):  # the failed one may not exist
                            if os.path.islink(name) or os.path.isfile(name):
                                os.unlink(name)
                raise ScenarioError(f"cannot write its reports, so none are kept: {exc}",
                                    source=scenario.path) from exc
    for _, text, _, _ in runs:
        print(text)
    return 0 if all(ok for _, _, ok, _ in runs) else 2


def cmd_presets(args) -> int:
    if args.action == "list":
        width = max(len(k) for k in PRESETS)
        for key, entry in PRESETS.items():
            star = "*" if entry.estimated else ""
            print(
                f"{key:<{width}}  {entry.power_mw:>5g} MW  "
                f"{entry.range_min_pct:g}-{entry.range_max_pct:g} %  "
                f"{entry.ramp_pct_per_s:g}{star} %/s  {entry.technology.value}"
            )
        return 0
    entry = preset(args.name)
    star = "*" if entry.estimated else ""
    print(f"name: {entry.manufacturer}")
    print(f"technology: {entry.technology.value}")
    print(f"rated power: {entry.power_mw:g} MW")
    print(f"power range: {entry.range_min_pct:g}-{entry.range_max_pct:g} %")
    print(f"ramp rate: {entry.ramp_pct_per_s:g}{star} %/s")
    if entry.estimated:
        print("(*) ramp from manufacturer discussion or calculation, not a datasheet")
    if entry.range_max_pct > 100:
        print("note: operation above 100 % rated power is not modeled")
    return 0


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="elybal", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_el = sub.add_parser("eligibility", help="check one bid against the market rules")
    unit_flags = p_el.add_mutually_exclusive_group(required=True)
    unit_flags.add_argument("--preset", help="catalog unit (see: elybal presets list)")
    unit_flags.add_argument("--unit", help="unit spec key=value,... with the [unit] keys")
    unit_flags.add_argument("--fleet", help="scenario file whose units are aggregated")
    p_el.add_argument("--product", required=True, help="fcr, afrr-pos, afrr-neg, mfrr-pos, mfrr-neg")
    p_el.add_argument("--bid", required=True, help="bid size in MW")
    p_el.add_argument("--setpoint", help="operating point in MW; default picks one")
    p_el.add_argument("--format", choices=("text", "json"), default="text")
    p_el.add_argument("--out", help="also write the report as JSON to this file")
    p_el.set_defaults(func=cmd_eligibility)

    for name, runner, help_text, out_help in (
        ("simulate", _simulate, "rate-limited response to an activation signal",
         "output directory for trajectory and compliance files"),
        ("allocate", _allocate, "revenue-maximal daily bid schedule", "output directory"),
        ("economics", _economics, "revenue, cost and coverage report", "output directory"),
    ):
        p_cmd = sub.add_parser(name, help=help_text)
        p_cmd.add_argument("--scenario", required=True, nargs="+", help="scenario file(s)")
        if name == "allocate":
            p_cmd.add_argument("--prices", help="override FCR capacity price CSV")
        p_cmd.add_argument("--out", help=out_help)
        p_cmd.set_defaults(func=cmd_scenarios, runner=runner)

    p_pre = sub.add_parser("presets", help="browse the unit catalog")
    pre_sub = p_pre.add_subparsers(dest="action", required=True)
    pre_sub.add_parser("list", help="one line per catalog unit")
    p_show = pre_sub.add_parser("show", help="datasheet values of one unit")
    p_show.add_argument("name")
    p_pre.set_defaults(func=cmd_presets)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except (ScenarioError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
