import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from anchorperms.cli import PARSER, main, parse_variant
from anchorperms.closed_form import closed_table
from anchorperms.core import ANCHORED, FREE
from anchorperms.oeis import no_digit_limit
from anchorperms.profile_dp import count_dp
from anchorperms.verify import SUITES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_auto_uses_closed_form(capsys):
    code, out, _ = run(capsys, "count", "--k", "3", "--n", "9")
    assert code == 0
    assert out.strip() == "118"
    # Past the closed forms' reach, auto counts with the DP.
    for k, variant, spec in ((4, ANCHORED, "anchored"), (3, FREE, "free")):
        code, out, _ = run(capsys, "count", "--k", str(k), "--n", "9", "--variant", spec)
        assert (code, out.strip()) == (0, str(count_dp(k, 9, variant)))


def test_count_methods_agree(capsys):
    results = []
    for method in ("brute", "dp", "closed"):
        code, out, _ = run(capsys, "count", "--k", "2", "--n", "10", "--method", method)
        assert code == 0
        results.append(out.strip())
    assert results == ["19"] * 3


def test_count_dp_handles_large_k(capsys):
    code, out, _ = run(capsys, "count", "--k", "4", "--n", "30", "--method", "dp")
    assert code == 0
    assert int(out) > 0


def test_dp_past_the_profile_offset_limit_is_usage_error(capsys):
    for argv in (
        ("count", "--k", "33", "--n", "33", "--method", "dp"),
        ("table", "--k", "40", "--max-n", "33"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "" and "min(k, n - 1) <= 31" in err, argv


def test_count_closed_rejects_unsupported_combinations(capsys):
    code, _, err = run(capsys, "count", "--k", "4", "--n", "5", "--method", "closed")
    assert code == 2
    assert "closed-form" in err
    code, _, err = run(
        capsys, "count", "--k", "2", "--n", "5", "--variant", "free", "--method", "closed"
    )
    assert code == 2
    for variant in ("free", "endpoints:1,4"):
        code, out, err = run(
            capsys, "table", "--k", "3", "--max-n", "5", "--variant", variant, "--method", "closed"
        )
        assert (code, out) == (2, ""), variant
        assert "closed-form" in err, variant


def test_count_rejects_k_below_one(capsys):
    for argv in (
        ("count", "--k", "0", "--n", "5"),
        ("count", "--k", "-1", "--n", "5", "--method", "closed"),
        ("count", "--k", "0", "--n", "5", "--method", "brute"),
        ("count", "--k", "0", "--n", "5", "--method", "dp"),
        ("enumerate", "--k", "0", "--n", "3"),
        ("table", "--k", "0", "--max-n", "4", "--method", "brute"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "", argv
        assert "k must be >= 1" in err, argv


@pytest.fixture
def int_str_limit():
    """Python's default int-to-str digit limit for the test, then the old one."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("no digit limit")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(saved)


def test_count_and_table_print_counts_past_4300_digits(capsys, int_str_limit):
    table = closed_table(3, 20000)
    with no_digit_limit():
        expected, row = str(table[20000]), str(table[13300])
    assert len(expected) == 6501 and len(row) > 4300
    code, out, err = run(capsys, "count", "--k", "3", "--n", "20000")
    assert (code, err) == (0, "")
    assert out.strip() == expected
    code, out, err = run(
        capsys, "table", "--k", "3", "--max-n", "13300", "--method", "closed", "--format", "csv"
    )
    assert (code, err) == (0, "")
    assert out.endswith(f"\n13300,{row}\n")
    assert sys.get_int_max_str_digits() == 4300  # main restores the caller's limit


def test_count_variant_endpoints(capsys):
    code, out, _ = run(
        capsys, "count", "--k", "3", "--n", "6", "--variant", "endpoints:2,6"
    )
    assert code == 0
    assert int(out) >= 1


def test_bad_variant_spec(capsys):
    code, _, err = run(capsys, "count", "--k", "2", "--n", "5", "--variant", "bogus")
    assert code == 2
    code, _, err = run(
        capsys, "count", "--k", "2", "--n", "5", "--variant", "endpoints:1"
    )
    assert code == 2
    for text in ("bogus", "endpoints:1"):
        with pytest.raises(ValueError):
            parse_variant(text)


def test_enumerate_lines(capsys):
    code, out, _ = run(capsys, "enumerate", "--k", "2", "--n", "5")
    assert code == 0
    assert out.splitlines() == ["1,2,3,4,5", "1,2,4,3,5", "1,3,2,4,5"]


def test_enumerate_long_identity(capsys):
    code, out, _ = run(capsys, "enumerate", "--k", "1", "--n", "1200")
    assert code == 0
    assert out.splitlines() == [",".join(map(str, range(1, 1201)))]


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--k", "2", "--n", "5", "--format", "json")
    assert code == 0
    assert json.loads(out) == [[1, 2, 3, 4, 5], [1, 2, 4, 3, 5], [1, 3, 2, 4, 5]]


def test_table_bfile(capsys):
    code, out, _ = run(capsys, "table", "--k", "3", "--max-n", "8")
    assert code == 0
    assert out == "1 1\n2 1\n3 1\n4 2\n5 6\n6 14\n7 28\n8 56\n"


def test_table_csv_and_json(capsys):
    code, out, _ = run(capsys, "table", "--k", "2", "--max-n", "4", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["1,1", "2,1", "3,1", "4,2"]
    code, out, _ = run(capsys, "table", "--k", "2", "--max-n", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 2
    assert payload["offset"] == 1
    assert payload["terms"] == [1, 1, 1, 2]


def test_table_methods_agree(capsys):
    outs = []
    for method in ("dp", "closed", "brute"):
        code, out, _ = run(
            capsys, "table", "--k", "3", "--max-n", "10", "--method", method
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


def test_table_endpoints_brute_matches_dp(capsys):
    # Both methods check the pinned ends at max_n and print 0 below them.
    outs = []
    for method in ("dp", "brute"):
        argv = ("table", "--k", "3", "--max-n", "7", "--variant", "endpoints:3,4")
        code, out, _ = run(capsys, *argv, "--method", method)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == "1 0\n2 0\n3 0\n4 2\n5 2\n6 2\n7 3\n"


def test_table_max_n_zero_is_empty(capsys):
    code, out, _ = run(capsys, "table", "--k", "2", "--max-n", "0")
    assert code == 0
    assert out == ""
    for method in ("closed", "brute"):
        code, out, _ = run(capsys, "table", "--k", "3", "--max-n", "0", "--method", method)
        assert code == 0
        assert out == ""


def test_table_negative_max_n_is_usage_error(capsys):
    for method in ("dp", "closed", "brute"):
        code, out, err = run(
            capsys, "table", "--k", "3", "--max-n", "-2", "--method", method
        )
        assert code == 2
        assert out == ""
        assert "n must be >= 1" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["table", "--k", "0", "--max-n", "0"], "k must be >= 1"),
        (["table", "--k", "4", "--max-n", "0", "--method", "closed"], "closed-form"),
        (["table", "--k", "3", "--max-n", "0", "--variant", "endpoints:5,9"], "out of range"),
        (
            ["table", "--k", "3", "--max-n", "0", "--variant", "endpoints:5,9",
             "--method", "brute"],
            "out of range",
        ),
    ],
)
def test_empty_ranges_still_check_the_request(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_mine_k3_reports_proven_recurrence(capsys):
    code, out, _ = run(capsys, "mine", "--k", "3", "--terms", "40", "--holdout", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 8
    assert payload["coefficients"] == [2, -1, 2, 1, 1, 0, -1, -1]
    assert payload["gf_denominator"] == [1, -2, 1, -2, -1, -1, 0, 1, 1]
    assert payload["holdout_match"] is True
    assert payload["state_space_size"] == 26
    assert "not a proof" in payload["note"]


def test_mine_insufficient_data_is_usage_error(capsys):
    code, _, err = run(
        capsys, "mine", "--k", "3", "--terms", "10", "--holdout", "2",
        "--max-order", "8",
    )
    assert code == 2
    assert "insufficient data" in err
    # At the default order, a window too short for order 1 reads the same.
    code, out, err = run(capsys, "mine", "--k", "3", "--terms", "5", "--holdout", "2")
    assert code == 2
    assert out == ""
    assert "insufficient data" in err


@pytest.mark.parametrize("holdout", ["0", "-1"])
def test_mine_holdout_below_one_is_usage_error(capsys, holdout):
    code, out, err = run(capsys, "mine", "--k", "3", "--terms", "40", "--holdout", holdout)
    assert code == 2
    assert out == ""
    assert "holdout must be >= 1" in err


def test_verify_suites_pass(capsys):
    for suite in ("lemma2", "lemma33", "fgh", "recurrences", "gf"):
        code, out, _ = run(capsys, "verify", "--suite", suite, "--max-n", "10")
        assert code == 0, f"suite {suite} failed:\n{out}"
        lines = out.splitlines()
        assert lines and all(line.startswith("PASS") for line in lines)


@pytest.mark.parametrize(
    "suite, least",
    [("lemma2", 1), ("lemma33", 1), ("fgh", 6), ("recurrences", 8), ("gf", 1), ("oeis", 1)],
)
def test_verify_rejects_a_range_that_leaves_a_check_empty(capsys, suite, least):
    code, out, err = run(capsys, "verify", "--suite", suite, "--max-n", str(least - 1))
    assert (code, out) == (2, "")
    assert f"max_n must be >= {least}" in err


def test_verify_oeis_uses_packaged_cache(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "oeis")
    assert code == 0
    assert out.startswith("PASS")


def test_verify_oeis_offline_without_cache_is_env_error(capsys, tmp_path, monkeypatch):
    import urllib.error
    import urllib.request

    monkeypatch.setenv("OEIS_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(
        urllib.request, "urlopen", lambda *a, **kw: (_ for _ in ()).throw(
            urllib.error.URLError("no route")
        )
    )
    code, _, err = run(capsys, "verify", "--suite", "oeis")
    assert code == 3
    assert "skip" in err


def test_unknown_subcommand_exits_with_usage():
    for argv in (["bogus"], ["bench", "--k", "3", "--max-n", "5"]):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2, argv


def test_the_shared_parser_leaks_no_default_between_subcommands(capsys):
    brute = PARSER.parse_args(["table", "--k", "3", "--max-n", "5", "--method", "brute"])
    assert brute.method == "brute"
    assert PARSER.parse_args(["count", "--k", "3", "--n", "5"]).method == "auto"
    args = PARSER.parse_args(["table", "--k", "3", "--max-n", "5"])
    assert (args.method, args.format) == ("dp", "bfile")
    first = run(capsys, "table", "--k", "3", "--max-n", "30")
    assert first[0] == 0 and first == run(capsys, "table", "--k", "3", "--max-n", "30")


# Modules only a cache-miss fetch (the network stack) or the exact
# polynomial gcd (fractions, which loads decimal) needs.
RARE_PATH_MODULES = ("urllib.request", "http.client", "ssl", "email", "fractions", "decimal")


def test_cli_runs_load_no_rare_path_module():
    """Importing the package and running table, mine and every verify suite
    (the oeis suite through fetch_terms' cache hit) loads none of them."""
    package = Path(__file__).resolve().parent.parent / "src" / "anchorperms"
    modules = sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__")
    runs = [["table", "--k", "3", "--max-n", "20"]]
    runs += [["mine", "--k", "4", "--terms", "80", "--holdout", "5"]]
    runs += [["verify", "--suite", suite] for suite in SUITES]
    code = f"""
import contextlib, importlib, io, sys
before = set(sys.modules)
for name in {modules!r}:
    importlib.import_module("anchorperms." + name)
from anchorperms.cli import main
for argv in {runs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print(sorted(m for m in {RARE_PATH_MODULES!r} if m in set(sys.modules) - before))
"""
    env = {k: v for k, v in os.environ.items() if k != "OEIS_CACHE_DIR"}
    env["PYTHONPATH"] = str(package.parent)
    env["OEIS_BASE_URL"] = "http://127.0.0.1:9"  # a miss would fail here, not reach out
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
