"""Exact enumeration and counting of bounded-gap anchored permutations."""

from .core import (
    ANCHORED,
    FREE,
    CountTable,
    LemmaViolationError,
    Permutation,
    Variant,
    endpoints,
    gaps,
    is_anchored,
    is_k_bounded,
)
from .backtrack import count_brute, count_classes_fgh, enumerate_perms
from .closed_form import (
    RationalGF,
    Recurrence,
    count_k1,
    count_k2,
    count_k3,
    expand_gf,
    fg_two_term_table,
    fgh_table,
    gf_k2,
    gf_k3,
    h_eliminated,
)
from .profile_dp import count_dp, state_space_size, term_table
from .seqmine import (
    InsufficientDataError,
    ProbeReport,
    conjecture_probe,
    find_recurrence,
    predict,
    to_gf,
)
from .structure import (
    DepartureClassification,
    K2Decomposition,
    cascading_gap_word,
    classify_departure,
    decompose_k2,
    departure_points,
    find_joker,
    reconstruct_k2,
    validate_lemma33,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
