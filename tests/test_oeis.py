import sys
import urllib.error
import urllib.request
from importlib import resources

import pytest

from anchorperms.closed_form import k3_table
from anchorperms.core import ANCHORED, CountTable
from anchorperms.oeis import (
    BFileParseError,
    OeisFetchError,
    OfflineCacheMissError,
    bfile_url,
    compare,
    fetch_terms,
    no_digit_limit,
    parse_bfile,
    serialize_bfile,
)

FIXTURE = resources.files("anchorperms") / "data" / "A249665.txt"


def table(values, offset=1, k=3):
    return CountTable(k=k, variant=ANCHORED, counts=values, offset=offset)


def test_parse_round_trip():
    text = "1 1\n2 1\n3 2\n"
    t = parse_bfile(text)
    assert t.values() == [1, 1, 2]
    assert t.offset == 1
    assert serialize_bfile(t) == text


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
def test_bfile_round_trips_terms_past_4300_digits_and_restores_the_limit():
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        text = "1 1" + "0" * 4998 + "7\n"  # one 5000-digit term
        big = 10**4999 + 7
        assert serialize_bfile(table([big])) == text
        assert sys.get_int_max_str_digits() == 4300
        assert parse_bfile(text)[1] == big
        assert sys.get_int_max_str_digits() == 4300
        with pytest.raises(RuntimeError):
            with no_digit_limit():
                assert sys.get_int_max_str_digits() == 0
                raise RuntimeError
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(saved)


def test_parse_comments_blanks_and_offset():
    t = parse_bfile("# header\n\n0 5\n1 7\n\n# trailing\n")
    assert t.offset == 0
    assert t.values() == [5, 7]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(BFileParseError) as e:
        parse_bfile("1 1\n2 1 9\n")
    assert e.value.line_number == 2
    with pytest.raises(BFileParseError) as e:
        parse_bfile("1 1\n3 1\n")
    assert e.value.line_number == 2
    with pytest.raises(BFileParseError) as e:
        parse_bfile("1 x\n")
    assert e.value.line_number == 1


def test_parse_empty_file():
    t = parse_bfile("# nothing but comments\n")
    assert len(t) == 0


def test_bfile_url(monkeypatch):
    monkeypatch.delenv("OEIS_BASE_URL", raising=False)
    assert bfile_url("A249665") == "https://oeis.org/A249665/b249665.txt"
    monkeypatch.setenv("OEIS_BASE_URL", "http://x/")
    assert bfile_url("A000045") == "http://x/A000045/b000045.txt"


def test_fetch_rejects_bad_ids(tmp_path):
    with pytest.raises(ValueError):
        fetch_terms("249665", tmp_path)
    with pytest.raises(ValueError):
        fetch_terms("A24966", tmp_path)


def test_fetch_uses_cache_without_network(tmp_path):
    (tmp_path / "A249665.txt").write_text(FIXTURE.read_text())
    t = fetch_terms("A249665", tmp_path)
    assert t.values() == k3_table(60)


def test_fetch_offline_without_cache_raises(tmp_path, monkeypatch):
    def no_network(*a, **kw):
        raise urllib.error.URLError("no route")

    monkeypatch.setattr(urllib.request, "urlopen", no_network)
    with pytest.raises(OfflineCacheMissError):
        fetch_terms("A000045", tmp_path)


def test_fetch_via_local_server(tmp_path, monkeypatch):
    class FakeResponse:
        status = 200

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def read(self):
            return FIXTURE.read_bytes()

    calls = []

    def fake_urlopen(url, timeout):
        calls.append(url)
        return FakeResponse()

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    monkeypatch.setenv("OEIS_BASE_URL", "http://mirror")
    t = fetch_terms("A249665", tmp_path)
    assert calls == ["http://mirror/A249665/b249665.txt"]
    assert t.values() == k3_table(60)
    assert (tmp_path / "A249665.txt").exists()
    # The cached copy says where it came from.
    assert t.provenance == "fetched from http://mirror/A249665/b249665.txt"
    # Second call is served from cache, no network.
    monkeypatch.setattr(urllib.request, "urlopen", None)
    assert fetch_terms("A249665", tmp_path).values() == k3_table(60)


def test_fetch_maps_http_errors_and_timeouts(tmp_path, monkeypatch):
    def not_found(url, timeout):
        raise urllib.error.HTTPError(url, 404, "Not Found", {}, None)

    monkeypatch.setattr(urllib.request, "urlopen", not_found)
    with pytest.raises(OeisFetchError, match="HTTP 404") as e:
        fetch_terms("A000045", tmp_path)
    assert not isinstance(e.value, OfflineCacheMissError)

    def timed_out(url, timeout):
        raise TimeoutError("timed out")

    monkeypatch.setattr(urllib.request, "urlopen", timed_out)
    (tmp_path / "A249665.txt").write_text(FIXTURE.read_text())
    assert fetch_terms("A249665", tmp_path, refresh=True).values() == k3_table(60)


def test_compare_identical():
    t = table(k3_table(20))
    r = compare(t, t)
    assert r.overlap_length == 20
    assert r.first_mismatch is None
    assert r.best_shift == 0
    assert r.full_match_at_best_shift


def test_compare_reports_first_mismatch():
    a = table([1, 1, 1, 2, 6])
    b = table([1, 1, 1, 2, 7])
    r = compare(a, b)
    assert r.first_mismatch == 5
    assert not r.full_match_at_best_shift


def test_compare_detects_offset_shift():
    vals = k3_table(20)
    a = table(vals)
    b = table(vals, offset=3)  # same terms, indices start at 3
    r = compare(a, b)
    assert r.best_shift == 2
    assert r.full_match_at_best_shift
    assert r.best_shift_match_length == 20


def test_compare_without_overlap():
    a = table([1, 1, 1, 2])
    b = table([1, 1, 1, 2], offset=20)
    r = compare(a, b)
    assert r.overlap_length == 0
    assert r.first_mismatch is None
    assert r.best_shift == 0
    assert r.best_shift_match_length == 0
    assert not r.full_match_at_best_shift
    assert not compare(a, table([])).full_match_at_best_shift


def test_fixture_matches_proven_k3_sequence():
    t = parse_bfile(FIXTURE.read_text())
    assert t.offset == 1
    assert t.values() == k3_table(60)
    assert compare(table(k3_table(60)), t).full_match_at_best_shift


def test_provenance_is_the_first_source_line():
    assert parse_bfile(FIXTURE.read_text()).provenance == "generated from closed_form.k3_table"
    assert parse_bfile("# A249665\n1 1\n").provenance == "b-file, source not stated"
    assert parse_bfile("# source: a\n# source: b\n1 1\n").provenance == "a"
