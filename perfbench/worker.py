"""The workload process: set up, warm up, then answer in a closed loop.

Run by ``run.py``, once per set-up probe and once for the measured run:

    python3 perfbench/worker.py INPUTS.json OUT.json SECONDS TRACE [--probe]

Times are CPU time of this process (all its threads), which on a
paravirtualised guest leaves out time the hypervisor gave to other tenants;
wall time is recorded beside them.  Between answers, and once after
set-up, the process times the reference kernel of ``reference.py``, which
``run.py`` uses to rescale the times to one machine speed.  The BLAS and
OpenMP pools are pinned to one thread here, before numpy loads, whatever
the caller's environment says.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv) -> int:
    inputs_path, out_path, seconds, trace = argv[:4]
    probe = "--probe" in argv[4:]
    seconds, trace = float(seconds), trace == "1"

    import riskshare  # noqa: F401
    import riskshare.cli  # noqa: F401

    imported = time.process_time()  # CPU time since the process started
    import reference
    import tracing
    import workloads

    inputs = json.loads(Path(inputs_path).read_text())
    answerer = workloads.Answerer(inputs)
    loaded = time.process_time()
    answerer.answer(inputs["warmup"])
    setup_s = imported + (time.process_time() - loaded)
    out = {
        "setup_s": setup_s,
        "setup_reference_s": reference.burst(count=2 * reference.WINDOW),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if probe:
        Path(out_path).write_text(json.dumps(out))
        return 0

    recorder = None
    answer = answerer.answer
    if trace:
        recorder = tracing.Recorder()
        tracing.install(recorder)
        answer = lambda task: recorder.answer(answerer.answer, task)  # noqa: E731

    tasks = inputs["tasks"]
    latencies = []
    samples = []  # (index of the answer before, kernel seconds)
    answered = spent = 0.0
    wall = 0.0
    failed = 0
    errors = []
    seen: dict = {}  # task id -> distinct JSON answers
    rounds = 0
    steal0 = _steal()
    start = time.perf_counter()
    while True:
        for task in tasks:
            w0, t0 = time.perf_counter(), time.process_time()
            try:
                result = answer(task)
            except Exception as exc:  # a raising program is a failed answer
                result = None
                failed += 1
                errors.append(f"{task['id']}: {type(exc).__name__}: {exc}")
            latencies.append(time.process_time() - t0)
            wall += time.perf_counter() - w0
            answered += latencies[-1]
            if spent < reference.SHARE * answered:
                times = reference.burst(seconds=reference.SHARE * answered - spent)
                samples += [(len(latencies) - 1, t) for t in times]
                spent += sum(times)
            if result is None:
                continue
            if answerer.failed(result):
                failed += 1
                errors.append(f"{task['id']}: exit code 2")
            text = json.dumps(answerer.summary(result))
            kept = seen.setdefault(task["id"], [])
            if text not in kept:
                kept.append(text)
        rounds += 1
        if time.perf_counter() - start >= seconds:
            break
    steal1 = _steal()

    out.update(
        {
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "rounds": rounds,
            "latencies_s": latencies,
            "reference_s": samples,
            "wall_s": wall,
            "steal_share": (steal1[0] - steal0[0]) / max(steal1[1] - steal0[1], 1),
            "failed": failed,
            "errors": errors[:20],
            "answers": {k: [json.loads(t) for t in v] for k, v in seen.items()},
            "environment": _environment(),
        }
    )
    if recorder is not None:
        out["layers"] = tracing.layer_metrics(recorder)
    Path(out_path).write_text(json.dumps(out))
    return 0


def _steal() -> tuple:
    """(steal ticks, all ticks) of the machine, from /proc/stat."""
    with open("/proc/stat") as fh:
        ticks = [int(v) for v in fh.readline().split()[1:]]
    return ticks[7], sum(ticks)


def _blas_threads():
    """Thread count reported by the OpenBLAS library numpy has loaded."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _environment() -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
