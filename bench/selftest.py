"""Self-test of the benchmark, at smoke size (one tiny op per workload).

    python3 bench/selftest.py

Checks that:
- a second seed (workloads.HELD_OUT_SEED) gives different inputs with the
  same op mix, at full and at smoke size;
- every metric in BENCHMARK.json is printed with its unit, in both modes;
- an op whose reference was deliberately corrupted counts as failed;
- the exact counts repeat across runs of one seed, and the input-independent
  ones (op-level call counts, recurrence order) across seeds too;
- in a directory holding only BENCHMARK.json and bench/, the benchmark exits
  non-zero and prints no result.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Counts fixed by the op mix; the others depend on the drawn inputs.
SEED_INDEPENDENT = (
    "profile_dp.term_table.calls",
    "profile_dp.count_dp.calls",
    "seqmine.find_recurrence.calls",
    "seqmine.to_gf.calls",
    "polys.poly_gcd.calls",
    "backtrack.count_brute.calls",
    "seqmine.recurrence_order",
)
EXACT = SEED_INDEPENDENT + (
    "core.Permutation.calls",
    "structure.classify_departure.calls",
    "profile_dp.peak_profiles",
    "backtrack.nodes",
    "backtrack.perms_yielded",
    "seqmine.max_term_bits",
)


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok: {what}")


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )
    return proc.returncode, proc.stdout


def smoke(seed: int, trace: int, *extra: str) -> tuple[dict, str]:
    code, out = bench(
        "--workload", "all", "--smoke", "--seed", str(seed),
        "--seconds", "1", "--trace", str(trace), *extra,
    )
    check(code == 0, f"smoke run seed={seed} trace={trace} {' '.join(extra)} exits 0")
    return json.loads(out.strip().splitlines()[-1]), out


def check_op_mix() -> None:
    for name in workloads.WORKLOADS:
        for size in (False, True):
            a = workloads.make_ops(name, workloads.DEV_SEED, size)
            b = workloads.make_ops(name, workloads.HELD_OUT_SEED, size)
            label = f"{name}{' smoke' if size else ''}"
            check(a == workloads.make_ops(name, workloads.DEV_SEED, size), f"{label}: same seed, same inputs")
            check(
                Counter(map(workloads.op_shape, a)) == Counter(map(workloads.op_shape, b)),
                f"{label}: held-out seed keeps the op mix",
            )
            key = lambda ops: sorted(json.dumps(op, sort_keys=True) for op in ops)  # noqa: E731
            check(key(a) != key(b), f"{label}: held-out seed changes the inputs")
    check(len(workloads.make_ops("oracle_small", 1)) >= 100, "oracle_small has at least 100 ops")


def check_metrics(results: dict, text: str, section: str) -> None:
    lines = text.splitlines()
    for name, result in results.items():
        metrics = result["metrics"]
        check(set(metrics) == {m["name"] for m in SPEC[section]}, f"{name}: every {section} metric reported")
        wrong_unit = [m["name"] for m in SPEC[section] if metrics[m["name"]]["unit"] != m["unit"]]
        check(not wrong_unit, f"{name}: {section} units as in BENCHMARK.json {wrong_unit}")
        unprinted = [
            m["name"]
            for m in SPEC[section]
            if not any(m["name"] in ln and ln.rstrip().endswith(m["unit"]) for ln in lines)
        ]
        check(not unprinted, f"{name}: {section} metrics printed with units {unprinted}")
        check(result["correct"] and result["failed"] == 0, f"{name}: smoke ops pass their checks")


def main() -> int:
    check_op_mix()

    results, text = smoke(workloads.DEV_SEED, 0)
    check_metrics(results, text, "end_to_end")
    check("failed_ops_ratio" in text, "failed_ops_ratio printed")

    corrupted, _ = smoke(workloads.DEV_SEED, 0, "--corrupt")
    for name, result in corrupted.items():
        check(
            not result["correct"] and result["failed"] == result["attempted"] >= 1,
            f"{name}: op with a corrupted reference counts as failed",
        )

    first, text = smoke(workloads.DEV_SEED, 1)
    check_metrics(first, text, "per_layer")
    again, _ = smoke(workloads.DEV_SEED, 1)
    held_out, _ = smoke(workloads.HELD_OUT_SEED, 1)
    for name in workloads.WORKLOADS:
        a, b, c = (r[name]["metrics"] for r in (first, again, held_out))
        check(all(a[k] == b[k] for k in EXACT), f"{name}: exact counts repeat on one seed")
        check(all(a[k] == c[k] for k in SEED_INDEPENDENT), f"{name}: op-mix counts repeat across seeds")
        unaccounted = a["trace.unaccounted_s"]["value"]
        check(0 <= unaccounted < 0.01, f"{name}: top-level spans cover the traced wall")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    code, out = bench("--workload", "dp_sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    check(code != 0 and not out.strip(), "without the sources: non-zero exit, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
