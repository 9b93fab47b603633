"""Seeded op lists for the three benchmark workloads.

An op is a JSON-serialisable dict with a ``kind`` and its inputs. The seed
chooses the inputs; the op mix (how many ops of each kind and size class)
is fixed, so that runs on different seeds do the same amount of work and
their timings can be compared. Where an input sets the cost of an op, the
seed moves it by a few steps only, and paired ops move in opposite
directions so that the batch's total work stays the same.

Importing this module does not import ``anchorperms``.
"""

from __future__ import annotations

import random

WORKLOADS = ("dp_sweep", "mine", "oracle_small")

# Seed 1 is the development seed; claims are re-checked on HELD_OUT_SEED.
DEV_SEED = 1
HELD_OUT_SEED = 2

# Frozen recurrence orders: anchored k = 4, and k = 5 with pinned endpoints.
K4_ANCHORED_ORDER = 31
K5_ENDPOINTS_ORDER = 62

# Endpoint pairs for the k = 5 mining ops. The recurrence's transient, and
# with it the cost of to_gf, grows with max(s, e): pairs with max(s, e) = 4
# cost within a few per cent of each other, which keeps the batch's work
# seed-independent.
K5_MINING_PAIRS = tuple((s, 4) for s in (1, 2, 3)) + tuple((4, e) for e in (1, 2, 3))

# oracle_small cells (k, n, variant kind) whose brute-force count takes
# more than about a second.
ORACLE_TOO_SLOW = {(5, 10, "free"), (6, 9, "free"), (6, 10, "free")}


def make_ops(workload: str, seed: int, smoke: bool = False) -> list[dict]:
    """The workload's batch for this seed, in the order it runs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "dp_sweep":
        ops = _dp_sweep(rng, smoke)
    elif workload == "mine":
        ops = _mine(rng, smoke)
    elif workload == "oracle_small":
        ops = _oracle_small(rng, smoke)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def op_shape(op: dict) -> tuple:
    """The size class of an op: equal across seeds for the same op mix."""
    if op["kind"] == "cross_count":
        return (op["kind"], op["k"], op["n"], op["variant"].split(":")[0])
    if op["kind"] in ("term_table", "mine_endpoints", "probe"):
        return (op["kind"], op["k"])
    return tuple(sorted(op.items()))


def _term_table(k: int, max_n: int) -> dict:
    return {"kind": "term_table", "k": k, "max_n": max_n}


def _dp_sweep(rng: random.Random, smoke: bool) -> list[dict]:
    if smoke:
        return [_term_table(5, 20 + rng.randrange(5))]
    # Sweeps come in sets of lengths c - d, (c,) c + d: the seed picks d, and
    # each set's total DP steps stay fixed. Eight ops put the median between
    # the two k = 6 sweeps, so op_p50_s reads their mean, whatever d is.
    ops = [{"kind": "cli_table", "k": 3, "max_n": 200}]
    for k, centre, spread, middle in ((5, 100, 10, False), (6, 60, 3, False), (7, 22, 1, True)):
        d = rng.randint(0, spread)
        ops += [_term_table(k, centre - d), _term_table(k, centre + d)]
        if middle:
            ops.append(_term_table(k, centre))
    return ops


def _probe(terms: int) -> dict:
    return {"kind": "probe", "k": 4, "terms": terms, "holdout": 20}


def _mine(rng: random.Random, smoke: bool) -> list[dict]:
    if smoke:
        return [_probe(80 + rng.randrange(5))]
    # Probe lengths cover [80, 200]: both ends, plus four seeded draws
    # within 3 of evenly spaced centres.
    ops = [_probe(80), _probe(200)]
    ops += [_probe(c + rng.randint(-3, 3)) for c in (104, 128, 152, 176)]
    for s, e in rng.sample(K5_MINING_PAIRS, 2):
        ops.append(
            {
                "kind": "mine_endpoints",
                "k": 5,
                "s": s,
                "e": e,
                "terms": 160,
                "holdout": 20,
                "max_order": 70,
            }
        )
    return ops


def _variant(rng: random.Random, kind: str, n: int) -> str:
    if kind != "endpoints":
        return kind
    s, e = rng.sample(range(1, n + 1), 2)
    return f"endpoints:{s},{e}"


def _oracle_small(rng: random.Random, smoke: bool) -> list[dict]:
    if smoke:
        return [{"kind": "cross_count", "k": 3, "n": 7, "variant": _variant(rng, "endpoints", 7)}]
    # Every (k, n, variant kind) cell twice; the seed draws the endpoint
    # pairs and the order.
    ops = [
        {"kind": "cross_count", "k": k, "n": n, "variant": _variant(rng, kind, n)}
        for k in range(2, 7)
        for n in range(2, 11)
        for kind in ("anchored", "free", "endpoints")
        for _ in range(2)
        if (k, n, kind) not in ORACLE_TOO_SLOW
    ]
    ops.append({"kind": "brute", "k": 3, "n": 13})
    for name in ("lemma2", "lemma33", "fgh", "recurrences", "gf", "oeis"):
        ops.append({"kind": "suite", "name": name})
    return ops
