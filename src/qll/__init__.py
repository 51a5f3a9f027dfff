"""Exact link invariants from braid closures.

Links are given as braid words; the package evaluates quantum invariants
(Jones at roots of unity through Temperley-Lieb representations), classical
invariants (Alexander polynomial, determinant, Arf, double-branched-cover
homology ranks), counts homomorphisms from the link group into finite
groups, and classifies images of braid-group representations with exact
finite/infinite certificates.  All arithmetic is exact: cyclotomic integers,
rationals, and integer linear algebra throughout.
"""
from .algebra import (
    BudgetError,
    CyclotomicNumber,
    LaurentPoly,
    UsageError,
)
from .braid import (
    BraidWord,
    Permutation,
    closure_components,
    conjugate,
    linking_matrix,
    parse_braid,
    stabilize,
    underlying_permutation,
    writhe,
)
from .burau import (
    alexander_poly,
    arf_knot,
    burau_mod_p,
    determinant,
    double_cover_homology,
    reduced_burau,
)
from .homcount import (
    FiniteGroup,
    builtin_group,
    hom_count_estimate,
    hom_count_exact,
    wirtinger_hom_count,
)
from .image import ImageReport, RepSpec, classify_image, quotient_dimension
from .tl_jones import jones_at_root, kauffman_bracket_statesum, markov_trace

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "BraidWord",
    "CyclotomicNumber",
    "FiniteGroup",
    "ImageReport",
    "LaurentPoly",
    "Permutation",
    "RepSpec",
    "UsageError",
    "__version__",
    "alexander_poly",
    "arf_knot",
    "builtin_group",
    "burau_mod_p",
    "classify_image",
    "closure_components",
    "conjugate",
    "determinant",
    "double_cover_homology",
    "hom_count_estimate",
    "hom_count_exact",
    "jones_at_root",
    "kauffman_bracket_statesum",
    "linking_matrix",
    "markov_trace",
    "parse_braid",
    "quotient_dimension",
    "reduced_burau",
    "stabilize",
    "underlying_permutation",
    "wirtinger_hom_count",
    "writhe",
]
