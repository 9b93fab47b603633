from anchorperms import verify
from anchorperms.backtrack import count_brute
from anchorperms.core import ANCHORED


def test_depth8_check_reads_brute_force_values(monkeypatch):
    # The check must evaluate the relation on brute-force counts, not on
    # the table generated from the relation itself.
    def wrong_at_11(k, n, variant=ANCHORED):
        return count_brute(k, n, variant) + (n == 11)

    monkeypatch.setattr(verify, "count_brute", wrong_at_11)
    checks = dict(verify.suite_recurrences())
    assert checks["k=3 depth-8 recurrence holds for 8 <= n <= 13"] is False
