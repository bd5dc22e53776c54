"""Self-tests of the benchmark.

    python3 -m pytest -q bench/test_bench.py

Each workload runs for a fraction of a second (a handful of ops) with
the default seed, so its outputs are checked against the reference.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name, capsys):
    result = run.run_workload(name, run.DEFAULT_SEED, 0.05, trace=False, setup_repeats=1)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"]
    out = capsys.readouterr().out
    ratio_line = next(line for line in out.splitlines() if line.startswith("ops_failed_ratio"))
    assert float(ratio_line.split()[1]) == 0.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_layer_metric(name):
    import elybal.allocate
    import elybal.model

    originals = (elybal.allocate.optimize_day, elybal.model.specific_energy_at)
    result = run.run_workload(name, run.DEFAULT_SEED, 0.05, trace=True)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    assert result["failed"] == 0 and result["correct"]
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    # the wrappers are gone after the traced phase
    assert (elybal.allocate.optimize_day, elybal.model.specific_energy_at) == originals


def test_benchmark_file_names_the_workloads():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: cls.why for name, cls in WORKLOADS.items()
    }


def test_self_time_subtracts_the_union_of_overlapping_children():
    # op [0, 10] with children a [1, 4] and b [3, 6] (overlapping) and
    # c [8, 12] (sticking out); a has child d [2, 3]
    start = [0.0, 1.0, 3.0, 8.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    own = self_times(start, end, parent)
    # covered part of the op: [1, 6] and [8, 10] -> 7 of 10
    assert own == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])


def test_self_time_of_nested_and_disjoint_children():
    start = [0.0, 1.0, 1.5, 5.0]
    end = [10.0, 3.0, 2.5, 9.0]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent) == pytest.approx([4.0, 1.0, 1.0, 4.0])


def _union_self_times(start, end, parent):
    own = []
    for i in range(len(start)):
        kids = sorted((max(start[k], start[i]), min(end[k], end[i]))
                      for k in range(len(start)) if parent[k] == i)
        covered, reach = 0.0, start[i]
        for lo, hi in kids:
            if hi > max(lo, reach):
                covered += hi - max(lo, reach)
                reach = hi
        own.append(end[i] - start[i] - covered)
    return own


def test_self_time_matches_a_plain_interval_union_on_random_trees():
    rng = random.Random(7)
    for _ in range(50):
        start, end, parent = [], [], []
        for i in range(rng.randint(1, 30)):
            s = rng.uniform(0.0, 100.0)
            start.append(s)
            end.append(s + rng.uniform(0.0, 40.0))
            parent.append(rng.randrange(-1, i) if i else -1)
        assert list(self_times(start, end, parent)) == pytest.approx(
            _union_self_times(start, end, parent), abs=1e-9)


def test_tracer_records_parents_at_every_bound_name():
    import elybal.eligibility
    from elybal import markets
    from elybal.scenario_io import preset

    unit = preset("demo4grid").to_unit()
    tracer = Tracer()
    tracer.install()
    try:
        span = tracer.begin_op(0)
        bid, _ = elybal.eligibility.max_offerable(unit, markets.afrr("POS"), 3.0)
        tracer.end_op(span)
    finally:
        tracer.uninstall()
    names = [tracer.names[i] for i in tracer.name]
    assert names[:2] == ["op", "eligibility.max_offerable"]
    # max_offerable resolves check_eligibility in its own module
    checks = [i for i, n in enumerate(names) if n == "eligibility.check_eligibility"]
    assert checks and all(tracer.parent[i] == 1 for i in checks)
    assert bid == 2.0
    assert not hasattr(elybal.eligibility.check_eligibility, "__wrapped__")
