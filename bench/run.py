"""elybal benchmark: four seeded workloads, one closed-loop client.

Run from the repository root:

    python3 bench/run.py --workload alloc-sweep --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 25

One client sends each op only after the previous one returned; no extra
threads or processes take part in the timed loop.  With ``--trace 0`` the
run reports the end-to-end metrics; with ``--trace 1`` it runs half the
time untraced and half with span wrappers installed, and reports the
per-layer metrics.  Op timings are in reference units (see
``calibration.py``), with raw wall time printed alongside.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

The package is imported from ``src/`` of the checkout; the benchmark
exits with code 2 when it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from calibration import scale_factors, time_kernel

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"  # generated inputs and CLI outputs, removed after each run
SPANS_DIR = ROOT / ".bench_out"  # spans of the last traced run per workload

DEFAULT_SEED = 0  # the seed whose outputs are compared with reference_seed0.json
SETUP_REPEATS = 11
WARMUP_OPS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# layers whose self time should make up most of an op, per workload
NAMED_LAYERS = {
    "alloc-sweep": ("allocate.",),
    "replay-frequency": ("dispatch.", "scenario_io.load_signal."),
    "replay-steps": ("dispatch.", "scenario_io.load_signal."),
    "cli-batch": ("cli.", "scenario_io.", "eligibility."),
}
DOMINANCE_CHECKED = ("alloc-sweep", "replay-frequency", "replay-steps")


def machine_facts() -> dict:
    import numpy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": affinity,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def measure_setup(code: str, repeats: int) -> list[float]:
    """Import plus program-side preparation, each in a fresh interpreter.

    Wall seconds: the calibration kernel does not track import time (it
    is mostly file reads and module execution), so setup is not scaled.
    """
    script = (
        "import time\n_t0 = time.perf_counter()\n" + code
        + "\nprint(repr(time.perf_counter() - _t0))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def tail_quantile(n: int) -> float:
    """p90, or the highest percentile with at least 10 samples beyond it."""
    return 0.9 if n >= 100 else max(0.5, 1.0 - 10.0 / n)


def percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q * 100.0))


class Loop:
    """Closed-loop run of one workload for a fixed wall time."""

    def __init__(self, workload, reference) -> None:
        self.workload = workload
        self.reference = reference
        self.latencies: list[float] = []  # wall seconds
        self.kernel_times: list[float] = []  # calibration kernel before the first op and after each
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.input_counts: dict[str, float] = {}

    def check(self, index: int, item, out, error) -> list[str]:
        from workloads import compare

        if error is not None:
            return [f"raised {type(error).__name__}: {error}"]
        if self.reference is not None:
            got = json.loads(json.dumps(self.workload.summary(item, out)))
            return compare(self.reference[index], got, item.label)
        return self.workload.invariants(item, out)

    def run(self, seconds: float, tracer=None, warmup: int = 0) -> None:
        items = self.workload.items
        for item in items[:warmup]:
            try:
                self.workload.run(item)
            except Exception:  # the same input fails, and is counted, in the loop
                pass
        self.kernel_times.append(time_kernel())
        deadline = perf_counter() + seconds
        i = 0
        while i == 0 or perf_counter() < deadline:
            index = i % len(items)
            item = items[index]
            span = tracer.begin_op(i) if tracer is not None else None
            t0 = perf_counter()
            error = out = None
            try:
                out = self.workload.run(item)
            except Exception as exc:  # a failed op is counted, the run goes on
                error = exc
            t1 = perf_counter()
            if tracer is not None:
                tracer.end_op(span)
            self.kernel_times.append(time_kernel())
            self.latencies.append(t1 - t0)
            self.attempted += 1
            problems = self.check(index, item, out, error)
            if problems:
                self.failed += 1
                if len(self.failures) < 5:
                    self.failures.append(f"op {i} ({item.label}): {'; '.join(problems[:3])}")
            for key, value in item.counts.items():
                self.input_counts[key] = self.input_counts.get(key, 0.0) + value
            i += 1

    def scaled(self) -> list[float]:
        """Op latencies in reference seconds (see calibration.py)."""
        return [x * f for x, f in zip(self.latencies, scale_factors(self.kernel_times))]

    def ops_per_s(self, latencies: list[float]) -> tuple[float, str]:
        """Median throughput of the completed cycles through the input
        sequence (pooled over all ops when fewer than three completed)."""
        n_items = len(self.workload.items)
        cycles = len(latencies) // n_items
        if cycles >= 3:
            rates = [n_items / sum(latencies[c * n_items:(c + 1) * n_items])
                     for c in range(cycles)]
            return statistics.median(rates), f"median of {cycles} cycles of {n_items} ops"
        return len(latencies) / sum(latencies), f"{len(latencies)} ops pooled"


def print_table(rows: list[tuple[str, float, str, str]]) -> None:
    print(f"{'metric':<52} {'value':>14}  {'unit':<10} samples")
    for name, value, unit, samples in rows:
        print(f"{name:<52} {value:>14.6g}  {unit:<10} {samples}")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 setup_repeats: int = SETUP_REPEATS) -> dict:
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    reference = None
    if seed == DEFAULT_SEED:
        with open(HERE / "reference_seed0.json", encoding="utf-8") as fh:
            reference = json.load(fh)[name]

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    try:
        workload = cls(seed, workdir)
        if reference is not None and len(reference) != len(workload.items):
            raise RuntimeError(f"reference holds {len(reference)} outputs for "
                               f"{len(workload.items)} inputs of {name}")
        print(f"workload: {name} seed={seed} seconds={seconds:g} trace={int(trace)} "
              "client=closed-loop x1")
        print(f"why: {cls.why}")
        print("inputs: " + json.dumps(workload.properties(), sort_keys=True))
        if trace:
            return _traced(workload, reference, seconds)
        return _untraced(workload, reference, seconds, setup_repeats)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _untraced(workload, reference, seconds: float, setup_repeats: int) -> dict:
    setups = measure_setup(workload.setup_code, setup_repeats)
    loop = Loop(workload, reference)
    loop.run(seconds, warmup=WARMUP_OPS)
    n = len(loop.latencies)
    q = tail_quantile(n)
    ms = [x * 1e3 for x in loop.scaled()]
    wall_ms = [x * 1e3 for x in loop.latencies]
    rate, rate_samples = loop.ops_per_s(loop.scaled())
    wall_rate, _ = loop.ops_per_s(loop.latencies)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": rate,
        "op_p50_ms": percentile(ms, 0.5),
        "op_p90_ms": percentile(ms, q),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    beyond = sum(1 for x in ms if x > values["op_p90_ms"])
    print("op timings in reference units: wall time scaled so that the calibration kernel "
          "run around each op takes 2 ms (wall values in the samples column)")
    print_table([
        ("setup_s", values["setup_s"], "s", f"median of {len(setups)} fresh interpreters, wall time"),
        ("ops_per_s", rate, "1/s", f"{rate_samples}; wall {wall_rate:.4g}"),
        ("op_p50_ms", values["op_p50_ms"], "ms", f"{n} ops; wall {percentile(wall_ms, 0.5):.4g}"),
        ("op_p90_ms", values["op_p90_ms"], "ms",
         f"{n} ops, p{q * 100:.1f}, {beyond} beyond; wall {percentile(wall_ms, q):.4g}"),
        ("ops_failed_ratio", loop.failed / loop.attempted, "ratio", f"{loop.attempted} ops"),
        ("peak_rss_mb", values["peak_rss_mb"], "MB", "1 process"),
    ])
    print(f"calibration kernel: median {statistics.median(loop.kernel_times) * 1e3:.4g} ms "
          f"wall over {n} runs")
    for line in loop.failures:
        print(f"FAILED {line}", file=sys.stderr)
    return {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()},
    }


def _traced(workload, reference, seconds: float) -> dict:
    from tracing import Tracer, layer_metrics

    plain = Loop(workload, reference)
    plain.run(seconds / 2.0, warmup=WARMUP_OPS)
    plain_rate, _ = plain.ops_per_s(plain.scaled())

    tracer = Tracer()
    tracer.install()
    try:
        traced = Loop(workload, reference)
        traced.run(seconds / 2.0, tracer=tracer)
    finally:
        tracer.uninstall()
    traced_rate, _ = traced.ops_per_s(traced.scaled())

    metrics = layer_metrics(tracer, traced.attempted, traced.input_counts)
    metrics["trace.overhead_ratio"] = traced_rate / plain_rate
    named = NAMED_LAYERS[workload.name]
    share_s = sum(v for k, v in metrics.items()
                  if k.endswith(".self_s") and k.startswith(named))
    metrics["trace.named_layer_share"] = share_s / metrics["trace.op_s"] if metrics["trace.op_s"] else 0.0

    units = layer_units()
    print(f"traced ops: {traced.attempted}, untraced ops: {plain.attempted}, "
          f"spans: {len(tracer.start)}")
    print_table([(k, metrics[k], units[k], f"{traced.attempted} traced ops") for k in units])
    print("note: markets has no span; it holds only constructors and lookups without loops, "
          "so its cost lands in its callers' self_s")
    for missing in tracer.missing:
        print(f"note: {missing} not found in the package; reported as 0")
    share = metrics["trace.named_layer_share"]
    verdict = "ok" if share > 0.5 else "NOT MET"
    if workload.name in DOMINANCE_CHECKED:
        print(f"check: self time of {', '.join(p.rstrip('.') for p in named)} is "
              f"{share:.1%} of op time (expected most): {verdict}")
    spans_path = SPANS_DIR / f"spans-{workload.name}.npz"
    tracer.save(str(spans_path))
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    for line in plain.failures + traced.failures:
        print(f"FAILED {line}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    from tracing import SIZE_BUCKETS, TRACED

    units: dict[str, str] = {}
    extra = {
        "scenario_io.load_signal": (("rows", "rows/op"),),
        "scenario_io.emit_report": (("bytes", "B/op"),),
        "scenario_io.write_trajectory_csv": (("bytes", "B/op"),),
        "eligibility.max_offerable": (("checks_per_call", "count"),),
        "allocate.optimize_day": (("setpoint_blocks", "blocks/op"), ("us_per_setpoint_block", "us"))
        + tuple((f"us_per_setpoint_block.{label}", "us") for _, label in SIZE_BUCKETS),
        "dispatch.simulate": (("samples", "samples/op"), ("ns_per_sample", "ns")),
        "dispatch.check_compliance": (("onsets", "onsets/op"),),
    }
    for mod, funcs in TRACED.items():
        for func in funcs:
            q = f"{mod}.{func}"
            units[f"{q}.calls"] = "calls/op"
            units[f"{q}.self_s"] = "s/op"
            for stat, unit in extra.get(q, ()):
                units[f"{q}.{stat}"] = unit
    units["dispatch.signal.change_ratio"] = "ratio"
    units["trace.op_s"] = "s/op"
    units["trace.named_layer_share"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    return units


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, one after the other."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        print()
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="alloc-sweep, replay-frequency, replay-steps, cli-batch or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "elybal" / "__init__.py").is_file():
        print(f"error: no elybal package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import elybal

    if Path(elybal.__file__).resolve().parent != (SRC / "elybal").resolve():
        print(f"error: elybal imported from {elybal.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    print("machine: " + json.dumps(machine_facts(), sort_keys=True))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
