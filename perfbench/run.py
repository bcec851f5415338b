"""Benchmark of riskshare: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The inputs are made from the seed, set-up
is measured in fresh processes, the workload runs in its own process with
one BLAS thread, times are rescaled to one machine speed by the reference
kernel timed beside them (``reference.py``), every distinct answer is
checked apart from the program, and the last line of standard output is
one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

#: Fresh processes that only set up and warm up; with the measured run's
#: own set-up they give the median setup_s.
SETUP_PROBES = 4
#: Longest a workload process may take beyond the requested seconds.
GRACE_S = 120.0


def _launch(inputs_path: Path, out_path: Path, seconds: float, trace: bool, probe: bool) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), str(inputs_path), str(out_path)]
    argv += [repr(seconds), "1" if trace else "0"] + (["--probe"] if probe else [])
    proc = subprocess.run(
        argv,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=seconds + GRACE_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(out_path.read_text())


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    if not (ROOT / "src" / "riskshare" / "__init__.py").is_file():
        raise FileNotFoundError(f"no riskshare sources under {ROOT / 'src'}")
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        inputs = workloads.make_inputs(workload, seed, workdir)
        inputs_path = workdir / "inputs.json"
        inputs_path.write_text(json.dumps(inputs))
        probes = []
        if not trace:
            for k in range(SETUP_PROBES):
                probes.append(_launch(inputs_path, workdir / f"probe{k}.json", seconds, False, True))
        out = _launch(inputs_path, workdir / "out.json", seconds, trace, False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    import checks
    import reference

    problems, sandwich_gap = checks.check_run(inputs, out["answers"])
    for line in problems[:50]:
        print(f"check failed: {line}", file=sys.stderr)
    for line in out["errors"]:
        print(f"failed answer: {line}", file=sys.stderr)

    env = out["environment"]
    print(
        f"env: python {env['python']}, numpy {env['numpy']}, {env['blas']}, "
        f"blas threads {env['blas_threads']}, nproc {env['nproc']}, seed {seed}, "
        f"workload {workload}, rounds {out['rounds']}, answers {len(out['latencies_s'])}"
    )
    raw = out["latencies_s"]
    lat = reference.scaled_latencies(raw, out["reference_s"])
    attempted, failed = len(lat), out["failed"]
    answers_per_s = (attempted - failed) / sum(lat)
    kernel = [t for _, t in out["reference_s"]]
    print(
        f"wall: answers_per_s {(attempted - failed) / out['wall_s']:.4f}, "
        f"CPU/wall {sum(raw) / out['wall_s']:.4f}, steal {100 * out['steal_share']:.2f}%"
    )
    print(
        f"unscaled: answers_per_s {(attempted - failed) / sum(raw):.4f}, "
        f"latency_p50_ms {1e3 * statistics.median(raw):.4f}, "
        f"latency_p90_ms {1e3 * statistics.quantiles(raw, n=10)[8]:.4f}; reference kernel "
        f"{1e3 * statistics.fmean(kernel):.3f} ms mean over {len(kernel)} samples "
        f"({1e3 * reference.SPEED_S:g} ms is the reported speed)"
    )
    if trace:
        print(
            f"traced: answers_per_s {answers_per_s:.4f}, "
            f"latency_p50_ms {1e3 * statistics.median(lat):.4f}"
        )
        metrics = out["layers"]
    else:
        setups = [
            p["setup_s"] * reference.scale_factor(p["setup_reference_s"]) for p in [*probes, out]
        ]
        print(f"unscaled: setup_s {statistics.median(p['setup_s'] for p in [*probes, out]):.4f}")
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "answers_per_s": _metric(answers_per_s, "1/s"),
            "latency_p50_ms": _metric(1e3 * statistics.median(lat), "ms"),
            "latency_p90_ms": _metric(1e3 * statistics.quantiles(lat, n=10)[8], "ms"),
            "peak_rss_mb": _metric(out["maxrss_kb"] / 1024.0, "MB"),
            "sandwich_gap": _metric(sandwich_gap, "1"),
        }
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (OSError, RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        traceback.print_exc()
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
