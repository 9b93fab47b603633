"""anchorperms benchmark: one command for the dp_sweep, mine and oracle_small
workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload dp_sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1        # every workload
    python3 bench/run.py --workload all --smoke         # one tiny op each

The load is a closed loop with one caller: anchorperms is a batch library
and each call waits for its result. With ``--trace 0`` the seeded batch runs
again and again, each time in a fresh child process, until ``--seconds``
have passed; set-up is measured separately as fresh interpreter starts up to
``import anchorperms.cli``. With ``--trace 1`` one untraced and one traced
batch run, and the traced one reports per-layer self times and exact counts.

Every output is checked; an op that raises or fails its check is counted
in ``failed``. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The benchmark builds
nothing: it imports the package from ``src/`` of the checkout, and exits
with code 2, printing no result, when that is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

SETUP_STARTS = 7
DEADLINE_S = 170.0  # the run must end within 180 s
OUT_DIR = ROOT / ".bench_out"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for section in ("end_to_end", "per_layer") for m in SPEC[section]}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # The oeis suite must read the packaged fixture; an unreachable local
    # base URL keeps any fetch it might attempt inside this machine.
    env.pop("OEIS_CACHE_DIR", None)
    env["OEIS_BASE_URL"] = "http://127.0.0.1:9"
    return env


def remaining(started: float) -> float:
    left = DEADLINE_S - (time.perf_counter() - started)
    if left <= 0:
        raise BenchError("out of time")
    return left


def setup_times(started: float) -> list[float]:
    """Seconds from spawning a fresh interpreter to `import anchorperms.cli`
    having finished. The first start, which may compile bytecode, is not
    counted."""
    code = "import anchorperms.cli, time; print(repr(time.perf_counter()))"
    times = []
    for i in range(SETUP_STARTS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=remaining(started),
        )
        if proc.returncode != 0:
            raise BenchError(f"interpreter start failed: {proc.stderr.strip()}")
        if i > 0:
            times.append(float(proc.stdout.split()[-1]) - t0)
    return times


def run_batch(config: dict, started: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(config)],
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=remaining(started),
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"workload process failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentiles(values: list[float]) -> tuple[float, float]:
    if len(values) == 1:
        return values[0], values[0]
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return statistics.median(values), deciles[8]


def measure(args, started: float) -> tuple[dict, list[dict], list[str]]:
    """End-to-end metrics from repeated untraced batches."""
    setup = setup_times(started)
    config = batch_config(args, trace=False)
    batches = []
    loop_start = time.perf_counter()
    while not batches or time.perf_counter() - loop_start < args.seconds:
        # Stop early rather than overrun the deadline with one more batch.
        if batches and remaining(started) < 2.5 * max(b["wall_s"] for b in batches) + 10:
            break
        batches.append(run_batch(config, started))
    n_ops = len(batches[0]["op_times"])
    # One latency per op: its median over the batches, which repeat the
    # same inputs.
    per_op = [statistics.median(b["op_times"][i] for b in batches) for i in range(n_ops)]
    p50, p90 = percentiles(per_op)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(b["wall_s"] for b in batches),
        "op_p50_s": p50,
        "op_p90_s": p90,
        "peak_rss_mb": statistics.median(b["peak_rss_mb"] for b in batches),
    }
    notes = [
        f"setup_s: median of {len(setup)} interpreter starts",
        f"wall_s: median of {len(batches)} batches, each in a fresh process",
        f"op_p50_s/op_p90_s: over {n_ops} ops, each the median of its {len(batches)} runs",
    ]
    if n_ops < 100:
        notes.append(f"op_p90_s: only {n_ops} ops, fewer than 10 lie beyond p90; indicative only")
    return metrics, batches, notes


def trace_layers(args, started: float) -> tuple[dict, list[dict], list[str]]:
    """Per-layer metrics from one traced batch, against one untraced batch."""
    plain = run_batch(batch_config(args, trace=False), started)
    traced = run_batch(batch_config(args, trace=True), started)
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    shares = traced["shares"]
    top = max(shares, key=shares.get)
    notes = [
        f"traced wall {traced['wall_s']:.4f} s, untraced {plain['wall_s']:.4f} s, "
        f"{traced['spans']} spans written to {OUT_DIR.name}/trace-{args.workload}.spans",
        "self-time shares: "
        + ", ".join(f"{g} {s:.1%}" for g, s in sorted(shares.items(), key=lambda x: -x[1])),
        f"largest self-time share: {top}",
    ]
    return metrics, [plain, traced], notes


def batch_config(args, trace: bool) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "trace": trace,
        "corrupt": args.corrupt,
        "out_dir": str(OUT_DIR),
    }


def run_workload(args, started: float) -> dict:
    if args.trace:
        metrics, batches, notes = trace_layers(args, started)
    else:
        metrics, batches, notes = measure(args, started)
    attempted = sum(len(b["errors"]) for b in batches)
    failures = [
        (op, err) for b in batches for op, err in zip(b["ops"], b["errors"]) if err is not None
    ]
    print(f"== {args.workload} seed={args.seed} trace={int(args.trace)}")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>16.6f} {UNITS[name]}")
    ratio = len(failures) / attempted
    print(f"  {'failed_ops_ratio':<40} {ratio:>16.6f} ratio ({len(failures)} of {attempted} ops)")
    for note in notes:
        print(f"  # {note}")
    for op, err in failures[:10]:
        print(f"  FAILED {json.dumps(op)}: {err}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=workloads.DEV_SEED)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one tiny op per workload")
    ap.add_argument(
        "--corrupt",
        action="store_true",
        help="corrupt the reference of each batch's first op (self-test)",
    )
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "anchorperms" / "__init__.py").is_file():
        print(f"error: no anchorperms sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            args.workload = name
            results[name] = run_workload(args, time.perf_counter())
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
