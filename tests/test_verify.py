from importlib import resources

from anchorperms import verify
from anchorperms.backtrack import count_brute, count_classes_fgh
from anchorperms.core import ANCHORED, LemmaViolationError
from anchorperms.structure import classify_departure


def test_depth8_check_reads_brute_force_values(monkeypatch):
    # The check must evaluate the relation on brute-force counts, not on
    # the table generated from the relation itself.
    def wrong_at_11(k, n, variant=ANCHORED):
        return count_brute(k, n, variant) + (n == 11)

    monkeypatch.setattr(verify, "count_brute", wrong_at_11)
    checks = dict(verify.suite_recurrences())
    assert checks["k=3 depth-8 recurrence holds for 8 <= n <= 13"] is False


def test_fgh_checks_read_brute_force_values(monkeypatch):
    # The class relations must be evaluated on brute-force counts, so a
    # wrong H at n = 9 fails the checks that read it and no earlier one.
    def wrong_h_at_9(n):
        f, g, h = count_classes_fgh(n)
        return f, g, h + (n == 9)

    monkeypatch.setattr(verify, "count_classes_fgh", wrong_h_at_9)
    checks = verify.suite_fgh()
    named = dict(checks)
    assert named["H recurrence at n=9"] is False
    assert named["F recurrence at n=10"] is False
    early = [ok for name, ok in checks if "n=" in name and int(name.split("n=")[1]) <= 8]
    assert len(early) == 12 and all(early)


def test_lemma33_counterexample_fails_its_check(monkeypatch):
    # A departure that fits neither pattern is a FAIL for its n, not an
    # exception out of the suite.
    def fails_on_one(p, i):
        if p.entries == (1, 4, 2, 5, 3, 6) and i == 1:
            raise LemmaViolationError("not Joker, not cascading")
        return classify_departure(p, i)

    monkeypatch.setattr(verify, "classify_departure", fails_on_one)
    checks = verify.suite_lemma33(7)
    failed = [name for name, ok in checks if not ok]
    assert failed == ["lemma 3.3 dichotomy holds on full sweep, n=6"]
    assert len(checks) == 14


def test_oeis_check_names_the_source_of_its_b_file(tmp_path, monkeypatch):
    # The packaged fixture is generated from the k = 3 recurrence, so its
    # check is a consistency check, not an OEIS match.
    [(name, ok)] = verify.suite_oeis()
    assert ok
    assert name.startswith("consistency check: the local A249665 fixture")
    assert "(generated from closed_form.k3_table)" in name
    # A b-file whose header says it was fetched is named as an OEIS match.
    fixture = (resources.files("anchorperms") / "data" / "A249665.txt").read_text()
    url = "https://oeis.org/A249665/b249665.txt"
    body = fixture.split("\n", 1)[1]
    (tmp_path / "A249665.txt").write_text(f"# source: fetched from {url}\n{body}")
    monkeypatch.setenv("OEIS_CACHE_DIR", str(tmp_path))
    [(name, ok)] = verify.suite_oeis()
    assert ok
    assert name == f"A249665 (fetched from {url}) fully matches the k=3 anchored table at shift 0"
