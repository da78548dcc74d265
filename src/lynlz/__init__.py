"""Lyndon and non-overlapping LZ factorizations, with the full domain
machinery that relates their sizes and an empirical verifier for every
structural guarantee.

Importing the package loads only the two parses.  The names of ``domains``
and ``bounds`` are loaded on first access (PEP 562), and then bound here, so
later reads are plain attribute reads."""

import importlib

from .errors import IntegrityError
from .lyndon import LyndonFactorization, lyndon_factorize, oracle_lyndon_dp
from .lz import LZFactorization, lz_factorize, oracle_lz_naive
from .text import Span

__version__ = "0.1.0"

# The module that defines each name loaded on first access.
_LAZY = {
    **dict.fromkeys(
        (
            "FamilyCounts",
            "SearchRecord",
            "exhaustive_search",
            "expected_counts",
            "expected_lz_phrases",
            "generate_family",
            "iter_search",
        ),
        "bounds",
    ),
    **dict.fromkeys(
        (
            "BoundaryBudget",
            "CanonicalDecomposition",
            "Domain",
            "DomainLayer",
            "ExtdomPartition",
            "LemmaCheck",
            "LemmaReport",
            "PGroup",
            "TheoremReport",
            "all_domains",
            "boundary_budget",
            "canonical_decomposition",
            "check_theorem",
            "compute_domain",
            "extdom_partition",
            "extended_domain",
            "find_p_groups",
            "find_tandem_domains",
            "verify_lemmas",
        ),
        "domains",
    ),
}

# Classes first, then functions, each in case-blind alphabetical order.
__all__ = sorted(
    [
        "IntegrityError",
        "LyndonFactorization",
        "LZFactorization",
        "Span",
        "lyndon_factorize",
        "lz_factorize",
        "oracle_lyndon_dp",
        "oracle_lz_naive",
        *_LAZY,
    ],
    key=lambda name: (name[0].islower(), name.lower()),
)


def __getattr__(name: str):
    if name in _LAZY.values():  # a submodule not imported yet
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
