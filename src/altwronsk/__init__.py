"""Exact universal constants of alternating weighted-derivative compositions.

Composing 2p derivative operators of strict order p, each weighted by a
function, and summing over all orderings with permutation signs yields a
single operator: a universal constant times the Wronskian of the weights
times the p-th derivative. This package computes those constants exactly
with a dynamic program over the sets of placed values (``subset_dp``),
cross-checks it with a pruned backtracking walk that evaluates a
falling-factorial product per contributing permutation, and verifies both
against a literal symbolic-operator expansion.
"""

from .engine import (
    ConstReport,
    ExactDivisionError,
    const_of_p,
    ratios,
    render_ratio,
    subset_dp,
    term_coefficient,
    wronskian_of_monomials,
)
from .oracle import (
    VerificationRecord,
    alternating_composition,
    brute_force_const,
    monomial_weights,
    random_polynomial,
    symbolic_wronskian,
    verify_theorem,
)
from .parallel import PartialResult
from .permutations import (
    count_late_growing,
    enumerate_backtracking,
    enumerate_backtracking_signed,
    enumerate_filtered,
    format_permutation,
    is_contributing,
    is_late_growing,
    is_permutation,
    parse_permutation,
    sign,
    suffix_partial_sums,
)
from .polynomial import Polynomial, monomial

__version__ = "0.1.0"

__all__ = [
    "ConstReport",
    "ExactDivisionError",
    "PartialResult",
    "Polynomial",
    "VerificationRecord",
    "alternating_composition",
    "brute_force_const",
    "const_of_p",
    "count_late_growing",
    "enumerate_backtracking",
    "enumerate_backtracking_signed",
    "enumerate_filtered",
    "format_permutation",
    "is_contributing",
    "is_late_growing",
    "is_permutation",
    "monomial",
    "monomial_weights",
    "parse_permutation",
    "random_polynomial",
    "ratios",
    "render_ratio",
    "sign",
    "subset_dp",
    "suffix_partial_sums",
    "symbolic_wronskian",
    "term_coefficient",
    "verify_theorem",
    "wronskian_of_monomials",
]
