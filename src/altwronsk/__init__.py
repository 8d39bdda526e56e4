"""Exact universal constants of alternating weighted-derivative compositions.

Composing 2p derivative operators of strict order p, each weighted by a
function, and summing over all orderings with permutation signs yields a
single operator: a universal constant times the Wronskian of the weights
times the p-th derivative. This package computes those constants exactly
with a dynamic program over the sets of placed values (``subset_dp``),
cross-checks it with a pruned backtracking walk that evaluates a
falling-factorial product per contributing permutation, and verifies both
against a literal symbolic-operator expansion.

A bare ``import altwronsk`` loads no submodule. Every public name, and each
submodule named in ``_OWNER``, loads on first use (PEP 562), so a process
that only computes constants never loads the oracle side.
"""

__version__ = "0.1.0"

# Public name -> the module that defines it, in ``__all__`` order. The
# submodules map to None, so ``altwronsk.engine`` resolves after a bare import.
_OWNER = {
    "ConstReport": "engine",
    "ExactDivisionError": "engine",
    "PartialResult": "parallel",
    "Polynomial": "polynomial",
    "VerificationRecord": "oracle",
    "alternating_composition": "oracle",
    "brute_force_const": "oracle",
    "const_of_p": "engine",
    "count_late_growing": "permutations",
    "enumerate_backtracking": "permutations",
    "enumerate_backtracking_signed": "permutations",
    "enumerate_filtered": "permutations",
    "format_permutation": "permutations",
    "is_contributing": "permutations",
    "is_late_growing": "permutations",
    "is_permutation": "permutations",
    "monomial": "polynomial",
    "monomial_weights": "oracle",
    "parse_permutation": "permutations",
    "random_polynomial": "oracle",
    "ratios": "engine",
    "render_ratio": "engine",
    "sign": "permutations",
    "subset_dp": "engine",
    "suffix_partial_sums": "permutations",
    "symbolic_wronskian": "oracle",
    "term_coefficient": "engine",
    "verify_theorem": "oracle",
    "wronskian_of_monomials": "engine",
    "engine": None, "oracle": None, "parallel": None, "permutations": None,
    "polynomial": None,
}

__all__ = [name for name, owner in _OWNER.items() if owner]


def __getattr__(name: str):
    # Called only for names not found in the module (PEP 562).
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    owner = _OWNER[name]
    module = import_module(f"{__name__}.{owner or name}")
    return getattr(module, name) if owner else module
