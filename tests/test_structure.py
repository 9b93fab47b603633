import pytest

from anchorperms.backtrack import enumerate_perms
from anchorperms.core import ANCHORED, LemmaViolationError, Permutation
from anchorperms.structure import (
    JOKER,
    NOT_APPLICABLE,
    DepartureClassification,
    K2Decomposition,
    cascading,
    cascading_gap_word,
    classify_departure,
    decompose_k2,
    find_joker,
    reconstruct_k2,
    validate_lemma33,
)


def test_decompose_known_values():
    assert decompose_k2(Permutation((1, 3, 2, 4, 5))).indices == {2}
    assert decompose_k2(Permutation(tuple(range(1, 7)))).indices == set()
    assert decompose_k2(Permutation((1, 3, 2, 4, 6, 5, 7))).indices == {2, 5}


def test_decompose_rejects_bad_input():
    with pytest.raises(ValueError):
        decompose_k2(Permutation((1, 4, 2, 3)))  # not 2-bounded
    with pytest.raises(ValueError):
        decompose_k2(Permutation((2, 1, 3)))  # not anchored


def test_decompose_reconstruct_roundtrip_exhaustive():
    for n in range(1, 13):
        for p in enumerate_perms(2, n, ANCHORED):
            dec = decompose_k2(p)
            assert reconstruct_k2(dec).entries == p.entries


def test_decomposition_index_constraints():
    with pytest.raises(ValueError):
        K2Decomposition(frozenset({1}), 5)  # too close to the left anchor
    with pytest.raises(ValueError):
        K2Decomposition(frozenset({4}), 5)  # too close to the right anchor
    with pytest.raises(ValueError):
        K2Decomposition(frozenset({2, 4}), 7)  # spacing below 3
    K2Decomposition(frozenset({2, 5}), 7)


def test_find_joker_known_values():
    assert find_joker(Permutation((1, 4, 2, 5, 3, 6))) == [2]
    assert find_joker(Permutation(tuple(range(1, 7)))) == []
    assert find_joker(Permutation((3, 1, 4, 2, 5))) == [1]


def test_cascading_gap_word_examples():
    assert cascading_gap_word(1, -2) == (3, -2, 1)
    assert cascading_gap_word(1, -1) == (3, -1, -1)
    assert cascading_gap_word(1, 1) == (3, 1, -3, 1, 3)
    assert cascading_gap_word(1, 2) == (3, 2, -3, -1, 3)
    assert cascading_gap_word(3, -1) == (3, 3, 3, -1, -3, -3, -1, 3, 3)


def test_cascading_gap_word_visits_a_contiguous_block():
    # Starting from value v, the word visits distinct values forming a
    # contiguous integer block; the +3/-3 runs interleave three residue
    # chains without collision.
    for m in range(1, 6):
        for d in (-2, -1, 1, 2):
            word = cascading_gap_word(m, d)
            values = [0]
            for g in word:
                values.append(values[-1] + g)
            assert len(set(values)) == len(values)
            assert set(values) == set(range(min(values), max(values) + 1))
            assert min(values) == 0  # never dips below the start


def test_cascading_gap_word_rejects_bad_parameters():
    with pytest.raises(ValueError):
        cascading_gap_word(0, 1)
    with pytest.raises(ValueError):
        cascading_gap_word(2, 3)


def test_classify_departure_known_values():
    assert classify_departure(Permutation((1, 4, 2, 5, 3, 6)), 1) is JOKER
    assert classify_departure(Permutation((1, 4, 2, 3, 5)), 1) == cascading(1, -2)
    assert classify_departure(Permutation((1, 4, 3, 2, 5)), 1) == cascading(1, -1)
    assert classify_departure(Permutation((1, 2, 3, 4)), 2) is NOT_APPLICABLE
    assert (
        classify_departure(Permutation((1, 2, 5, 3, 4, 6)), 2) == cascading(1, -2)
    )


def test_classify_departure_rejects_bad_positions():
    p = Permutation((1, 4, 2, 5, 3, 6))
    with pytest.raises(ValueError):
        classify_departure(p, 2)  # entries 1..2 are not an anchored prefix
    with pytest.raises(ValueError):
        classify_departure(p, 0)


def test_classification_dichotomy_exhaustive():
    # Every +3 departure from an anchored prefix in every 3-bounded
    # anchored permutation up to n = 11 is Joker or cascading.
    for n in range(1, 12):
        for p in enumerate_perms(3, n, ANCHORED):
            assert validate_lemma33(p)


def test_classification_counts_are_stable():
    jokers = cascadings = 0
    for n in range(1, 12):
        for p in enumerate_perms(3, n, ANCHORED):
            for i in range(1, p.n):
                if p[i] != i or max(p.entries[:i]) != i or p[i + 1] - p[i] != 3:
                    continue
                c = classify_departure(p, i)
                if c is JOKER:
                    jokers += 1
                else:
                    cascadings += 1
    assert (jokers, cascadings) == (73, 564)


def test_classification_type_invariants():
    with pytest.raises(ValueError):
        DepartureClassification("bogus")
    with pytest.raises(ValueError):
        DepartureClassification("cascading", m=0, d=1)
    with pytest.raises(ValueError):
        DepartureClassification("joker", m=1, d=1)
