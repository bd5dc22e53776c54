"""Machine-speed calibration for the timing metrics.

The benchmark runs on shared machines whose CPU throughput swings by up
to 1.7x between contention regimes lasting seconds to tens of seconds.
A fixed pure-Python kernel of about 2 ms, run between ops (outside their
timing), measures the speed of the moment.  Timing metrics are reported
in reference units: wall time scaled by ``REFERENCE_S`` over the mean of
the kernel runs just before and just after the op, i.e. the time the op
would take on a machine where the kernel takes exactly 2 ms.  Raw wall
times are printed alongside.
"""

from __future__ import annotations

from time import perf_counter

REFERENCE_S = 2e-3  # kernel time that defines the reference speed


def kernel() -> float:
    """Interpreter-bound mix of float math, calls, list and dict access."""
    d: dict[int, float] = {}
    xs = [0.0] * 64
    acc = 0.0
    for i in range(4200):
        v = (i % 97) * 0.5
        xs[i & 63] = max(v - acc * 1e-9, min(v, 3.0))
        d[i & 255] = xs[(i * 7) & 63]
        acc += d.get((i * 3) & 255, 0.0)
    return acc


def time_kernel() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def scale_factors(kernel_times: list[float]) -> list[float]:
    """Factor per op from the kernel runs just before and just after it.

    ``kernel_times`` holds one run before the first op and one after each
    op, so op ``i`` is bracketed by entries ``i`` and ``i + 1``.
    """
    return [2.0 * REFERENCE_S / (before + after)
            for before, after in zip(kernel_times, kernel_times[1:])]
