#!/usr/bin/env python3
"""Regenerate the packaged A249665 b-file fixture in src/anchorperms/data.

The anchored k=3 sequence is exactly what that entry enumerates, so the
fixture is produced from the proven depth-8 recurrence (offset 1). When a
network is available, pass --fetch to pull the live b-file instead. The
first line names the source, "generated from closed_form.k3_table" or
"fetched from <url>", so `anchorperms verify --suite oeis` can say which.

    PYTHONPATH=src python3 scripts/make_oeis_fixture.py [--terms 60] [--fetch]
"""

import argparse
from pathlib import Path

from anchorperms.closed_form import closed_table
from anchorperms.oeis import SOURCE_TAG, bfile_url, fetch_terms, serialize_bfile

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "src" / "anchorperms" / "data"


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--terms", type=int, default=60)
    ap.add_argument("--fetch", action="store_true", help="pull the live b-file")
    args = ap.parse_args()

    if args.fetch:
        table = fetch_terms("A249665", FIXTURE_DIR, refresh=True)
        source, body = f"fetched from {bfile_url('A249665')}", serialize_bfile(table)
    else:
        source = "generated from closed_form.k3_table"
        body = serialize_bfile(closed_table(3, args.terms))
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    (FIXTURE_DIR / "A249665.txt").write_text(f"{SOURCE_TAG}{source}\n{body}")
    print(f"wrote {FIXTURE_DIR / 'A249665.txt'}")


if __name__ == "__main__":
    main()
