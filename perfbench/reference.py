"""A fixed reference kernel that measures the machine's speed during a run.

On a shared host the CPU time of the same work moves with what other
tenants run: a busy sibling hyperthread roughly doubles it, and the share of
time spent in that state drifts from second to second and from minute to
minute.  The workload process therefore times this kernel between answers,
for about ``SHARE`` of the answering time, and every reported time is
rescaled to the speed at which the kernel takes ``SPEED_S`` of CPU:

    scaled time = measured time * SPEED_S / mean(kernel times around it)

The kernel does not call riskshare, so a change to the program moves the
scaled times exactly as it moves the measured ones.  It mixes the three
kinds of work the workloads do: a dense inverse (the simplex), JSON
round trips (the CLI) and small numpy operations in a Python loop (the
sharing map).  The garbage collector is off while it runs and the first
call of a burst is not timed, so the objects and cache lines an answer
leaves behind do not change its time.
"""

from __future__ import annotations

import bisect
import gc
import json
import time

import numpy as np

#: CPU seconds the kernel takes at the speed times are reported at.
SPEED_S = 0.004
#: Share of the answering time spent timing the kernel.
SHARE = 0.05
#: Kernel samples taken on each side of an answer that rescale its time;
#: twice this many are timed after set-up to rescale it.
WINDOW = 12

_MATRIX = np.sin(np.arange(120.0 * 120.0)).reshape(120, 120) + 120 * np.eye(120)
_DOC = {"dim": 2, "atoms": [{"x": [[0.5 * i, -0.25 * i]], "w": 0.025} for i in range(40)]}
_VEC = np.arange(3.0)


def kernel() -> None:
    for _ in range(4):
        np.linalg.inv(_MATRIX)
    for _ in range(5):
        json.loads(json.dumps(_DOC))
    v = _VEC
    for _ in range(250):
        v = np.maximum(v * 0.5, _VEC) + float(np.dot(v, _VEC)) * 1e-9


def burst(count: int = 1, seconds: float = 0.0) -> list:
    """CPU times of at least ``count`` warm kernel calls lasting ``seconds``."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        kernel()
        times: list = []
        while len(times) < count or sum(times) < seconds:
            t0 = time.process_time()
            kernel()
            times.append(time.process_time() - t0)
        return times
    finally:
        if enabled:
            gc.enable()


def scale_factor(times) -> float:
    return SPEED_S * len(times) / sum(times)


def scaled_latencies(latencies, samples) -> list:
    """Each answer's time rescaled by the kernel samples nearest to it.

    ``samples`` are ``(i, seconds)`` pairs in the order taken, ``i`` being
    the index of the answer the sample followed.
    """
    after = [i for i, _ in samples]
    out = []
    for i, t in enumerate(latencies):
        j = bisect.bisect_left(after, i)
        near = [s for _, s in samples[max(0, j - WINDOW) : j + WINDOW]]
        out.append(t * scale_factor(near))
    return out
