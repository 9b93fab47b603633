"""One batch of one workload, in a fresh interpreter.

run.py starts this as ``python3 bench/child.py '<config json>'`` with
PYTHONPATH set to the checkout's ``src``, and reads one JSON object from
its standard output. The config keys are ``workload``, ``seed``, ``smoke``,
``trace``, ``corrupt`` (corrupt the reference of the first op, for the
self-test) and ``out_dir`` (where a traced batch writes its spans).

Every op is timed from outside through the package's public functions.
All ops run first; their outputs are checked afterwards, outside the timed
region. A traced batch then runs an untimed exact-count pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import workloads
from spans import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json"


def load_package():
    import anchorperms
    from anchorperms import (
        backtrack,
        cli,
        closed_form,
        core,
        oeis,
        polys,
        profile_dp,
        seqmine,
        structure,
        verify,
    )

    expected = (ROOT / "src" / "anchorperms").resolve()
    found = Path(anchorperms.__file__).resolve().parent
    if found != expected:
        raise SystemExit(f"anchorperms imported from {found}, expected {expected}")
    return {
        "backtrack": backtrack,
        "cli": cli,
        "closed_form": closed_form,
        "core": core,
        "oeis": oeis,
        "polys": polys,
        "profile_dp": profile_dp,
        "seqmine": seqmine,
        "structure": structure,
        "verify": verify,
    }


def closed_count(m, k: int, n: int) -> int:
    cf = m["closed_form"]
    return {1: cf.count_k1, 2: cf.count_k2, 3: cf.count_k3}[k](n)


# Ops. Every call goes through a module attribute, so a traced batch sees it.


def run_op(m, op: dict):
    kind = op["kind"]
    if kind == "term_table":
        return m["profile_dp"].term_table(op["k"], m["core"].ANCHORED, op["max_n"]).values()
    if kind == "cli_table":
        buf = io.StringIO()
        argv = ["table", "--k", str(op["k"]), "--max-n", str(op["max_n"])]
        with contextlib.redirect_stdout(buf):
            code = m["cli"].main(argv)
        return code, buf.getvalue()
    if kind == "probe":
        return m["seqmine"].conjecture_probe(op["k"], op["terms"], op["holdout"])
    if kind == "mine_endpoints":
        seqmine = m["seqmine"]
        variant = m["core"].endpoints(op["s"], op["e"])
        values = m["profile_dp"].term_table(op["k"], variant, op["terms"] + op["holdout"]).values()
        mined = values[: op["terms"]]
        rec = seqmine.find_recurrence(mined, op["max_order"])
        gf = seqmine.to_gf(rec, mined)
        predicted = seqmine.predict(rec, mined, op["holdout"])
        return values, rec, gf, predicted
    if kind == "cross_count":
        k, n = op["k"], op["n"]
        variant = m["cli"].parse_variant(op["variant"])
        brute = m["backtrack"].count_brute(k, n, variant)
        dp = m["profile_dp"].count_dp(k, n, variant)
        closed = closed_count(m, k, n) if k <= 3 and op["variant"] == "anchored" else None
        return brute, dp, closed
    if kind == "brute":
        return m["backtrack"].count_brute(op["k"], op["n"], m["core"].ANCHORED)
    if kind == "suite":
        return m["verify"].SUITES[op["name"]]()
    raise ValueError(f"unknown op kind {kind!r}")


# Checks. Each returns a list of (label, actual, expected); `corrupt`
# replaces the first expected value by one that matches nothing.


def term_digests(values) -> list[str]:
    return [hashlib.sha256(f"{n}:{v}".encode()).hexdigest()[:16] for n, v in enumerate(values, 1)]


def check_op(m, op: dict, out, reference: dict) -> list[tuple]:
    kind = op["kind"]
    cf = m["closed_form"]
    if kind == "term_table":
        frozen = reference["anchored"][str(op["k"])][: op["max_n"]]
        if len(frozen) < op["max_n"]:
            raise ValueError(f"no frozen digests beyond n={len(frozen)} for k={op['k']}")
        return [("unchanged vs seed (frozen digests)", term_digests(out), frozen)]
    if kind == "cli_table":
        code, text = out
        values = [int(line.split()[1]) for line in text.splitlines()]
        return [
            ("table equals closed form", values, cf.k3_table(op["max_n"])),
            ("exit code", code, 0),
        ]
    if kind == "probe":
        total = op["terms"] + op["holdout"]
        terms = m["profile_dp"].term_table(op["k"], m["core"].ANCHORED, total).values()
        return [
            ("GF expands to the mined and held-out DP terms", cf.expand_gf(out.gf, total), terms),
            ("frozen order", out.order, workloads.K4_ANCHORED_ORDER),
            ("holdout reported matching", out.holdout_match, True),
        ]
    if kind == "mine_endpoints":
        values, rec, gf, predicted = out
        mined = values[: op["terms"]]
        return [
            ("held-out terms match", predicted, values[op["terms"] :]),
            ("GF expands to the mined terms", cf.expand_gf(gf, op["terms"]), mined),
            ("frozen order", rec.order, workloads.K5_ENDPOINTS_ORDER),
        ]
    if kind == "cross_count":
        brute, dp, closed = out
        checks = [("dp equals brute force", dp, brute)]
        if closed is not None:
            checks.append(("closed form equals brute force", closed, brute))
        return checks
    if kind == "brute":
        return [("equals closed form", out, closed_count(m, op["k"], op["n"]))]
    if kind == "suite":
        failed = [name for name, ok in out if not ok]
        return [("suite checks pass", failed, [])]
    raise ValueError(f"unknown op kind {kind!r}")


CORRUPTED = object()  # equal to nothing but itself


def verdict(m, op, out, reference, corrupt: bool) -> str | None:
    """None when the op's output is correct, else the reason."""
    try:
        checks = check_op(m, op, out, reference)
    except Exception as exc:  # a check that cannot run counts as failed
        return f"check raised {type(exc).__name__}: {exc}"
    for i, (label, actual, expected) in enumerate(checks):
        if corrupt and i == 0:
            expected = CORRUPTED
        if actual != expected:
            return f"{label}: mismatch"
    return None


# Tracing.

TRACED = {
    "cli": ["main"],
    "profile_dp": ["term_table", "count_dp", "state_space_size"],
    "seqmine": ["conjecture_probe", "find_recurrence", "to_gf", "predict"],
    "backtrack": ["count_brute", "count_classes_fgh", "brute_table"],
    "structure": [
        "validate_lemma33",
        "decompose_k2",
        "classify_departure",
        "reconstruct_k2",
        "find_joker",
    ],
    "oeis": ["serialize_bfile", "fetch_terms", "parse_bfile", "compare"],
}
CLOSED_FORM_TABLES = [
    "count_k1",
    "count_k2",
    "count_k3",
    "k2_table",
    "k3_table",
    "fgh_table",
    "fg_two_term_table",
    "h_eliminated",
    "expand_gf",
]
RECORDED = {"profile_dp.term_table", "profile_dp.count_dp", "seqmine.find_recurrence"}


def install_tracer(m) -> Tracer:
    tracer = Tracer()
    for mod, names in TRACED.items():
        for name in names:
            span = f"{mod}.{name}"
            original = getattr(m[mod], name)
            tracer.replace_everywhere(original, tracer.wrap(span, original, span in RECORDED))
    for name in CLOSED_FORM_TABLES:
        original = getattr(m["closed_form"], name)
        tracer.replace_everywhere(original, tracer.wrap("closed_form.tables", original))
    # closed_form binds poly_gcd from polys; both bindings are replaced.
    poly_gcd = m["polys"].poly_gcd
    tracer.replace_everywhere(poly_gcd, tracer.wrap("polys.poly_gcd", poly_gcd))
    enum = m["backtrack"].enumerate_perms
    tracer.replace_everywhere(enum, tracer.wrap_generator("backtrack.enumerate_perms", enum))
    gf_cls = m["closed_form"].RationalGF
    reduced = gf_cls.__dict__["reduced"].__func__
    tracer.replace_attr(
        gf_cls, "reduced", staticmethod(tracer.wrap("closed_form.RationalGF.reduced", reduced))
    )
    perm_cls = m["core"].Permutation
    tracer.replace_attr(perm_cls, "__init__", tracer.wrap("core.Permutation", perm_cls.__init__))
    suites = m["verify"].SUITES
    for key, fn in list(suites.items()):
        tracer.replace_item(suites, key, tracer.wrap("verify.suites", fn))
    return tracer


SELF_TIMED = [
    "profile_dp.term_table",
    "profile_dp.count_dp",
    "profile_dp.state_space_size",
    "seqmine.conjecture_probe",
    "seqmine.find_recurrence",
    "seqmine.to_gf",
    "seqmine.predict",
    "closed_form.RationalGF.reduced",
    "polys.poly_gcd",
    "closed_form.tables",
    "backtrack.count_brute",
    "backtrack.enumerate_perms",
    "backtrack.count_classes_fgh",
    "core.Permutation",
    "structure.validate_lemma33",
    "structure.decompose_k2",
    "structure.classify_departure",
    "verify.suites",
    "cli.main",
    "oeis.serialize_bfile",
]
COUNTED = [
    "profile_dp.term_table",
    "profile_dp.count_dp",
    "seqmine.find_recurrence",
    "seqmine.to_gf",
    "polys.poly_gcd",
    "backtrack.count_brute",
    "core.Permutation",
    "structure.classify_departure",
]
# Module groups for the self-time shares.
GROUPS = {
    "profile_dp": ("profile_dp",),
    "seqmine+closed_form/polys": ("seqmine", "closed_form", "polys"),
    "backtrack+core+structure": ("backtrack", "core", "structure"),
    "verify": ("verify",),
    "cli/oeis": ("cli", "oeis"),
}


def layer_metrics(m, tracer: Tracer, wall: float) -> tuple[dict, dict]:
    """Per-layer metrics from the spans, then the untimed exact counts."""
    self_s, calls, top = tracer.self_times()
    metrics = {f"{name}.self_s": self_s.get(name, 0.0) for name in SELF_TIMED}
    metrics.update({f"{name}.calls": calls.get(name, 0) for name in COUNTED})
    metrics["trace.unaccounted_s"] = wall - top

    profile_dp, backtrack = m["profile_dp"], m["backtrack"]
    peak = 0
    for args, _ in tracer.recorded.get("profile_dp.term_table", []):
        _, p = profile_dp.term_table_stats(args["k"], args["variant"], args["max_n"])
        peak = max(peak, p)
    for args, _ in tracer.recorded.get("profile_dp.count_dp", []):
        _, p = profile_dp.term_table_stats(args["k"], args["variant"], args["n"])
        peak = max(peak, p)
    metrics["profile_dp.peak_profiles"] = peak

    nodes = perms = 0
    for args, yielded in tracer.recorded.get("backtrack.enumerate_perms", []):
        if not args["prune"]:
            raise ValueError("count_brute_stats models the pruned search only")
        count, n_nodes = backtrack.count_brute_stats(args["k"], args["n"], args["variant"])
        if count != yielded:
            raise ValueError(f"stream yielded {yielded}, count_brute_stats counts {count}")
        nodes += n_nodes
        perms += yielded
    metrics["backtrack.perms_yielded"] = perms
    metrics["backtrack.nodes"] = nodes
    metrics["backtrack.yield_ratio"] = perms / nodes if nodes else 0.0

    mined = tracer.recorded.get("seqmine.find_recurrence", [])
    metrics["seqmine.recurrence_order"] = max(
        (rec.order for _, rec in mined if rec is not None), default=0
    )
    metrics["seqmine.max_term_bits"] = max(
        (max(abs(t).bit_length() for t in args["terms"]) for args, _ in mined if args["terms"]),
        default=0,
    )

    group_self = {g: 0.0 for g in GROUPS}
    for name, s in self_s.items():
        module = name.split(".")[0]
        for group, modules in GROUPS.items():
            if module in modules:
                group_self[group] += s
    total = sum(group_self.values()) or 1.0
    shares = {g: s / total for g, s in group_self.items()}
    return metrics, shares


def main() -> int:
    config = json.loads(sys.argv[1])
    m = load_package()
    ops = workloads.make_ops(config["workload"], config["seed"], config["smoke"])
    tracer = install_tracer(m) if config["trace"] else None

    outputs, errors, times = [], [], []
    clock = time.perf_counter
    batch_start = clock()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        t0 = clock()
        try:
            outputs.append(run_op(m, op))
            errors.append(None)
        except Exception as exc:  # an op that raises counts as failed
            outputs.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
        times.append(clock() - t0)
    wall = clock() - batch_start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"wall_s": wall, "op_times": times, "peak_rss_mb": rss_mb}
    if tracer is not None:
        tracer.uninstall()
        out_dir = Path(config["out_dir"])
        tracer.write(out_dir, f"trace-{config['workload']}")
        result["layers"], result["shares"] = layer_metrics(m, tracer, wall)
        result["spans"] = len(tracer.start)

    reference = json.loads(REFERENCE.read_text())
    for i, op in enumerate(ops):
        if errors[i] is None:
            errors[i] = verdict(m, op, outputs[i], reference, config["corrupt"] and i == 0)
    result["errors"] = errors
    result["ops"] = ops
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
