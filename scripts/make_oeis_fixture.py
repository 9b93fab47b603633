#!/usr/bin/env python3
"""Regenerate the packaged A249665 b-file fixture in src/anchorperms/data.

The anchored k=3 sequence is exactly what that entry enumerates, so the
fixture is produced from the proven depth-8 recurrence (offset 1). When a
network is available, pass --fetch to pull the live b-file instead.
"""

import argparse
from pathlib import Path

from anchorperms.closed_form import k3_table
from anchorperms.oeis import fetch_terms

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "src" / "anchorperms" / "data"


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--terms", type=int, default=60)
    ap.add_argument("--fetch", action="store_true", help="pull the live b-file")
    args = ap.parse_args()

    if args.fetch:
        table = fetch_terms("A249665", FIXTURE_DIR, refresh=True)
        text = "".join(f"{i} {table[i]}\n" for i in sorted(table.terms))
    else:
        text = "".join(f"{n} {v}\n" for n, v in enumerate(k3_table(args.terms), start=1))
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    (FIXTURE_DIR / "A249665.txt").write_text(text)
    print(f"wrote {FIXTURE_DIR / 'A249665.txt'}")


if __name__ == "__main__":
    main()
