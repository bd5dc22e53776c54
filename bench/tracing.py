"""Span tracer for the traced benchmark run.

Wrappers are installed from the benchmark's side, around the public
functions of each elybal module, at every name a caller resolves (the
defining module and every module that imported the function).  The
package source is never modified.  The untraced run never installs them.

Each span records its name, start, end, parent span and op id.  Spans
are kept in compact in-memory arrays and turned into per-layer metrics
(and written to an ``.npz`` file) only after the timed loop.
"""

from __future__ import annotations

import os
import sys
from array import array
from time import perf_counter

import numpy as np

# Layer boundaries: module -> public functions that get a span.  ``markets``
# gets none on purpose: it only holds constructors and lookups without
# loops, so its cost lands in its callers' self time.
TRACED = {
    "scenario_io": ("load_scenario", "load_signal", "emit_report", "write_trajectory_csv"),
    "cli": ("main",),
    "eligibility": ("check_eligibility", "max_offerable"),
    "allocate": ("optimize_day", "validate_schedule"),
    "dispatch": ("simulate", "check_compliance", "hydrogen_output"),
    "model": ("specific_energy_at",),
    "economics": ("build_report",),
}

OP = "op"  # root span of one benchmark op, opened by the benchmark loop


def self_times(start, end, parent):
    """Self time of every span: its duration minus the union of its
    children's intervals, each clipped to the parent's interval.

    Children of one parent may overlap (the union counts shared time
    once) and may stick out of the parent (the part outside is ignored).
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    own = end - start
    kids = np.flatnonzero(parent >= 0)
    if kids.size == 0:
        return own
    par = parent[kids]
    t0 = start.min()
    lo = np.maximum(start[kids], start[par]) - t0
    hi = np.minimum(end[kids], end[par]) - t0
    keep = hi > lo
    par, lo, hi = par[keep], lo[keep], hi[keep]
    order = np.lexsort((lo, par))
    par, lo, hi = par[order], lo[order], hi[order]
    # shift each parent's children by a per-group offset larger than the
    # whole time range, so one running maximum never crosses groups
    group = np.cumsum(np.r_[0, par[1:] != par[:-1]])
    shift = group * (float(end.max() - t0) + 1.0)
    lo, hi = lo + shift, hi + shift
    reach = np.maximum.accumulate(hi)  # furthest end among children so far
    prev = np.r_[-np.inf, reach[:-1]]
    covered = np.maximum(hi - np.maximum(lo, prev), 0.0)
    return own - np.bincount(par, weights=covered, minlength=own.size)


class Tracer:
    """Records spans around wrapped calls; one instance per traced phase."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self._stack = [-1]
        self._op_id = -1
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        # span index -> (setpoint_blocks, rated_power_mw) of optimize_day calls
        self.optimize_day_sizes: dict[int, tuple[int, float]] = {}
        self.counters: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(self._stack[-1])
        self.name.append(nid)
        self.op.append(self._op_id)
        self._stack.append(idx)
        return idx

    def begin_op(self, op_id: int) -> int:
        self._op_id = op_id
        idx = self._open(self.name_id(OP))
        self.start[idx] = perf_counter()
        return idx

    def end_op(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()
        self._op_id = -1

    def count(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def _wrap(self, qualname: str, fn):
        nid = self.name_id(qualname)
        counter = _COUNTERS.get(qualname)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if counter is not None:
                counter(tracer, idx, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", qualname)
        return traced

    def install(self) -> None:
        """Wrap every traced function at each elybal name bound to it."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "elybal" or k.startswith("elybal."))]
        for mod_name, funcs in TRACED.items():
            home = sys.modules.get(f"elybal.{mod_name}")
            for func in funcs:
                qualname = f"{mod_name}.{func}"
                original = getattr(home, func, None) if home is not None else None
                if original is None:
                    self.missing.append(qualname)
                    continue
                wrapper = self._wrap(qualname, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def save(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
        )


# ----------------------------------------------------------- counters
# Counters read only cheap facts off a call's arguments and result; input
# properties that need a pass over the data (onsets, change ratio) come
# from the generated inputs instead, so they add no time inside spans.

def _file_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.isfile(p))


def _count_load_signal(tracer, idx, args, kwargs, result):
    tracer.count("scenario_io.load_signal.rows", len(result.values))


def _count_emit_report(tracer, idx, args, kwargs, result):
    tracer.count("scenario_io.emit_report.bytes", _file_bytes(result))


def _count_write_trajectory(tracer, idx, args, kwargs, result):
    tracer.count("scenario_io.write_trajectory_csv.bytes", _file_bytes([result]))


def _count_simulate(tracer, idx, args, kwargs, result):
    tracer.count("dispatch.simulate.samples", len(result.powers_mw))


def setpoint_grid_size(lo: float, hi: float, step: float) -> int:
    """Number of points on the setpoint grid of ``optimize_day``."""
    import math

    eps = 1e-9
    return max(0, math.floor(hi / step + eps) - math.ceil(lo / step - eps) + 1)


def _count_optimize_day(tracer, idx, args, kwargs, result):
    unit = args[0] if args else kwargs["unit"]
    options = args[4] if len(args) > 4 else kwargs.get("options")
    blocks = args[5] if len(args) > 5 else kwargs.get("blocks")
    step = options.setpoint_grid_mw if options is not None else 1.0
    n_blocks = len(blocks) if blocks is not None else 6
    size = setpoint_grid_size(unit.min_power_mw, unit.rated_power_mw, step) * n_blocks
    tracer.optimize_day_sizes[idx] = (size, unit.rated_power_mw)


_COUNTERS = {
    "scenario_io.load_signal": _count_load_signal,
    "scenario_io.emit_report": _count_emit_report,
    "scenario_io.write_trajectory_csv": _count_write_trajectory,
    "dispatch.simulate": _count_simulate,
    "allocate.optimize_day": _count_optimize_day,
}

# plant-size buckets for us_per_setpoint_block, upper edge in MW
SIZE_BUCKETS = ((50.0, "le50mw"), (150.0, "le150mw"), (300.0, "le300mw"))


def size_bucket(rated_mw: float) -> str | None:
    for edge, label in SIZE_BUCKETS:
        if rated_mw <= edge + 1e-9:
            return label
    return None


def layer_metrics(tracer: Tracer, n_ops: int, input_counts: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced phase, normalized per op.

    ``calls``, ``self_s`` and the work counters are per traced op, so they
    compare across runs of different length; the ratios are pooled over
    the phase.  ``input_counts`` carries the input properties summed over
    the traced ops (onsets, signal samples and changes).
    """
    names = tracer.names
    start = np.frombuffer(tracer.start, dtype=np.float64)
    end = np.frombuffer(tracer.end, dtype=np.float64)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    name = np.frombuffer(tracer.name, dtype=np.int64)
    own = self_times(start, end, parent)
    k = len(names)
    call_counts = np.bincount(name, minlength=k)
    own_sums = np.bincount(name, weights=own, minlength=k)
    incl_sums = np.bincount(name, weights=end - start, minlength=k)
    calls = {names[i]: int(call_counts[i]) for i in range(k)}
    self_s = {names[i]: float(own_sums[i]) for i in range(k)}
    incl = {names[i]: float(incl_sums[i]) for i in range(k)}

    per_op = 1.0 / max(n_ops, 1)
    out: dict[str, float] = {}
    for mod, funcs in TRACED.items():
        for func in funcs:
            q = f"{mod}.{func}"
            out[f"{q}.calls"] = calls.get(q, 0) * per_op
            out[f"{q}.self_s"] = self_s.get(q, 0.0) * per_op

    c = tracer.counters
    out["scenario_io.load_signal.rows"] = c.get("scenario_io.load_signal.rows", 0.0) * per_op
    out["scenario_io.emit_report.bytes"] = c.get("scenario_io.emit_report.bytes", 0.0) * per_op
    out["scenario_io.write_trajectory_csv.bytes"] = (
        c.get("scenario_io.write_trajectory_csv.bytes", 0.0) * per_op
    )

    # eligibility checks made inside max_offerable, per max_offerable call
    mo_id = tracer._name_ids.get("eligibility.max_offerable")
    ce_id = tracer._name_ids.get("eligibility.check_eligibility")
    checks = 0
    if mo_id is not None and ce_id is not None:
        inner = (name == ce_id) & (parent >= 0)
        checks = int(np.count_nonzero(name[parent[inner]] == mo_id))
    mo_calls = calls.get("eligibility.max_offerable", 0)
    out["eligibility.max_offerable.checks_per_call"] = checks / mo_calls if mo_calls else 0.0

    blocks_total = 0
    by_bucket: dict[str, list[float]] = {label: [0.0, 0.0] for _, label in SIZE_BUCKETS}
    for idx, (size, rated) in tracer.optimize_day_sizes.items():
        blocks_total += size
        bucket = size_bucket(rated)
        if bucket is not None:
            by_bucket[bucket][0] += float(end[idx] - start[idx])
            by_bucket[bucket][1] += size
    od_time = incl.get("allocate.optimize_day", 0.0)
    out["allocate.optimize_day.setpoint_blocks"] = blocks_total * per_op
    out["allocate.optimize_day.us_per_setpoint_block"] = (
        od_time / blocks_total * 1e6 if blocks_total else 0.0
    )
    for _, label in SIZE_BUCKETS:
        t, n = by_bucket[label]
        out[f"allocate.optimize_day.us_per_setpoint_block.{label}"] = t / n * 1e6 if n else 0.0

    samples = c.get("dispatch.simulate.samples", 0.0)
    out["dispatch.simulate.samples"] = samples * per_op
    out["dispatch.simulate.ns_per_sample"] = (
        incl.get("dispatch.simulate", 0.0) / samples * 1e9 if samples else 0.0
    )
    out["dispatch.check_compliance.onsets"] = input_counts.get("onsets", 0.0) * per_op
    sig_samples = input_counts.get("signal_samples", 0.0)
    out["dispatch.signal.change_ratio"] = (
        input_counts.get("signal_changes", 0.0) / sig_samples if sig_samples else 0.0
    )

    out["trace.op_s"] = incl.get(OP, 0.0) * per_op
    return out
