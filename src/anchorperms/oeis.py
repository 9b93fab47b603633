"""OEIS b-file parsing, cached fetching, and table comparison.

The test suite runs against a vendored fixture; live fetching is only
exercised when a network (or local fixture server) is available. Base URL
and cache directory are configurable through the OEIS_BASE_URL and
OEIS_CACHE_DIR environment variables. The network stack (`urllib.request`,
with `http.client`, `email` and `ssl`) is imported only on a cache miss.
"""

from __future__ import annotations

import os
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .core import FREE, CountTable

DEFAULT_BASE_URL = "https://oeis.org"
_ID_RE = re.compile(r"^A\d{6}$")
# The comment line that says where a cached b-file came from, as written by
# fetch_terms ("fetched from <url>") and scripts/make_oeis_fixture.py.
SOURCE_TAG = "# source: "


class BFileParseError(ValueError):
    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class OeisFetchError(RuntimeError):
    pass


class OfflineCacheMissError(OeisFetchError):
    """No network and nothing cached for the requested sequence."""


@contextmanager
def no_digit_limit():
    """Lift Python's int/str conversion limit of 4300 digits, which exact
    counts pass, and restore the caller's limit on exit."""
    if not hasattr(sys, "set_int_max_str_digits"):  # before 3.10.7
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def parse_bfile(text: str) -> CountTable:
    """Parse OEIS b-file text into a CountTable, preserving the offset. The
    table's provenance is what the first `# source: ` line says."""
    counts: list[int] = []
    offset = source = None
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            if source is None and line.startswith(SOURCE_TAG):
                source = line[len(SOURCE_TAG):].strip()
            continue
        fields = line.split()
        if len(fields) != 2:
            raise BFileParseError(f"expected two fields, got {len(fields)}", line_number)
        try:
            with no_digit_limit():
                idx, value = int(fields[0]), int(fields[1])
        except ValueError:
            raise BFileParseError(f"non-integer field in {line!r}", line_number) from None
        if offset is None:
            offset = idx
        elif idx != offset + len(counts):
            raise BFileParseError(
                f"non-contiguous index {idx} after {offset + len(counts) - 1}", line_number
            )
        counts.append(value)
    return CountTable(
        k=0,
        variant=FREE,
        counts=counts,
        provenance=source or "b-file, source not stated",
        offset=offset if offset is not None else 1,
    )


def serialize_bfile(table: CountTable) -> str:
    with no_digit_limit():
        return "".join(f"{i} {v}\n" for i, v in enumerate(table.values(), table.offset))


def _cache_path(cache_dir: Path, sequence_id: str) -> Path:
    return Path(cache_dir) / f"{sequence_id}.txt"


def bfile_url(sequence_id: str) -> str:
    base = os.environ.get("OEIS_BASE_URL", DEFAULT_BASE_URL)
    return f"{base.rstrip('/')}/{sequence_id}/b{sequence_id[1:]}.txt"


def default_oeis_cache_dir() -> Path:
    env = os.environ.get("OEIS_CACHE_DIR")
    if env:
        return Path(env)
    return Path(resources.files("anchorperms") / "data")


def fetch_terms(sequence_id: str, cache_dir, *, refresh: bool = False) -> CountTable:
    """Return the cached b-file for the id, fetching it once if absent."""
    if not _ID_RE.match(sequence_id):
        raise ValueError(f"bad sequence id {sequence_id!r} (want A followed by 6 digits)")
    cache_dir = Path(cache_dir)
    path = _cache_path(cache_dir, sequence_id)
    if path.exists() and not refresh:
        return parse_bfile(path.read_text())
    import tempfile
    import urllib.error
    import urllib.request
    url = bfile_url(sequence_id)
    try:
        with urllib.request.urlopen(url, timeout=30) as resp:
            status, text = resp.status, resp.read().decode()
    except urllib.error.HTTPError as exc:
        raise OeisFetchError(f"HTTP {exc.code} fetching {sequence_id}") from exc
    except OSError as exc:  # URLError, timeouts and refused connections
        if path.exists():
            return parse_bfile(path.read_text())
        raise OfflineCacheMissError(
            f"offline and no cached b-file for {sequence_id}"
        ) from exc
    if status != 200:
        raise OeisFetchError(f"HTTP {status} fetching {sequence_id}")
    cache_dir.mkdir(parents=True, exist_ok=True)
    # Write-to-temp plus atomic rename so concurrent fetches cannot
    # corrupt the cache.
    fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=f".{sequence_id}.")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(f"{SOURCE_TAG}fetched from {url}\n{text}")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return parse_bfile(path.read_text())


@dataclass(frozen=True)
class CompareReport:
    overlap_length: int
    first_mismatch: int | None  # index in a's convention, shift 0
    best_shift: int
    best_shift_match_length: int
    full_match_at_best_shift: bool


def _agreement(a: CountTable, b: CountTable, shift: int) -> tuple[int, int | None, int]:
    """(overlap, first mismatch index in a's indexing, leading agreement)
    comparing a[i] with b[i + shift]."""
    lo = max(a.offset, b.offset - shift)
    hi = min(a.offset + len(a), b.offset + len(b) - shift)  # one past the last
    overlap = max(0, hi - lo)
    mismatch = next((i for i in range(lo, hi) if a[i] != b[i + shift]), None)
    return overlap, mismatch, overlap if mismatch is None else mismatch - lo


_SHIFTS = (0, -1, 1, -2, 2, -3, 3)  # -3..3 in tie-breaking order


def compare(a: CountTable, b: CountTable) -> CompareReport:
    """Compare overlapping terms, then search the shifts -3..3 for the
    longest leading agreement (reported, never silently applied); ties go
    to the smallest |shift|, the negative one first."""
    overlap, mismatch, _ = _agreement(a, b, 0)
    (best_overlap, _, agreement), shift = max(
        ((_agreement(a, b, s), s) for s in _SHIFTS), key=lambda run: run[0][2]
    )
    return CompareReport(
        overlap_length=overlap,
        first_mismatch=mismatch,
        best_shift=shift,
        best_shift_match_length=agreement,
        full_match_at_best_shift=0 < agreement == best_overlap,
    )
