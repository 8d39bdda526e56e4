"""Exact universal constants of alternating weighted-derivative compositions.

Composing 2p derivative operators of strict order p, each weighted by a
function, and summing over all orderings with permutation signs yields a
single operator: a universal constant times the Wronskian of the weights
times the p-th derivative. This package computes those constants exactly
with a dynamic program over the sets of placed values (``subset_dp``),
cross-checks it with a pruned backtracking walk that evaluates a
falling-factorial product per contributing permutation, and verifies both
against a literal symbolic-operator expansion.

The verification side (``oracle`` and the exact ``polynomial`` arithmetic it
runs on) is imported on first use of one of its names, so a process that
only computes constants never loads it.
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

__version__ = "0.1.0"

# Name -> the module that defines it, for the names loaded on first use.
_ON_FIRST_USE = {
    "oracle": None,
    "polynomial": None,
    "VerificationRecord": "oracle",
    "alternating_composition": "oracle",
    "brute_force_const": "oracle",
    "monomial_weights": "oracle",
    "random_polynomial": "oracle",
    "symbolic_wronskian": "oracle",
    "verify_theorem": "oracle",
    "Polynomial": "polynomial",
    "monomial": "polynomial",
}

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


def __getattr__(name: str):
    # Called only for names not found in the module (PEP 562).
    if name not in _ON_FIRST_USE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    owner = _ON_FIRST_USE[name]
    if owner is None:
        return importlib.import_module(f"{__name__}.{name}")
    return getattr(importlib.import_module(f"{__name__}.{owner}"), name)
