"""Lyndon and non-overlapping LZ factorizations, with the full domain
machinery that relates their sizes and an empirical verifier for every
structural guarantee."""

from .bounds import (
    ExtdomPartition,
    FamilyCounts,
    SearchRecord,
    TheoremReport,
    check_theorem,
    exhaustive_search,
    expected_counts,
    expected_lz_phrases,
    extdom_partition,
    generate_family,
    iter_search,
)
from .domains import (
    BoundaryBudget,
    CanonicalDecomposition,
    Domain,
    DomainLayer,
    LemmaCheck,
    LemmaReport,
    PGroup,
    all_domains,
    boundary_budget,
    canonical_decomposition,
    compute_domain,
    extended_domain,
    find_p_groups,
    find_tandem_domains,
    verify_lemmas,
)
from .errors import IntegrityError
from .lyndon import LyndonFactorization, lyndon_factorize, oracle_lyndon_dp
from .lz import LZFactorization, lz_factorize, oracle_lz_naive
from .text import Span

__version__ = "0.1.0"

__all__ = [
    "BoundaryBudget",
    "CanonicalDecomposition",
    "Domain",
    "DomainLayer",
    "ExtdomPartition",
    "FamilyCounts",
    "IntegrityError",
    "LemmaCheck",
    "LemmaReport",
    "LyndonFactorization",
    "LZFactorization",
    "PGroup",
    "SearchRecord",
    "Span",
    "TheoremReport",
    "all_domains",
    "boundary_budget",
    "canonical_decomposition",
    "check_theorem",
    "compute_domain",
    "exhaustive_search",
    "expected_counts",
    "expected_lz_phrases",
    "extdom_partition",
    "extended_domain",
    "find_p_groups",
    "find_tandem_domains",
    "generate_family",
    "iter_search",
    "lyndon_factorize",
    "lz_factorize",
    "oracle_lyndon_dp",
    "oracle_lz_naive",
    "verify_lemmas",
]
