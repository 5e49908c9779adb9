"""Exact counting and bound verification on finite abelian groups.

The toolkit computes sum-closure probabilities, three-term progression
counts and Cayley-graph triangle counts exactly, cross-validates them
against a spectral route, and exhaustively verifies the closed-form
ceilings over every small group.
"""

from .bounds import (
    GAMMA0,
    BoundValue,
    SizeProfile,
    base_case_bound,
    bound_term1,
    bound_term2,
    closure_bound,
    gls_bound,
    gls_sufficiency,
    gls_threshold_holds,
    lemma2_check,
    lemma2_scan,
    size_profile,
)
from .counting import (
    SubsetMask,
    cayley_triangles_direct,
    cayley_triangles_formula,
    direct_prob,
    direct_t3,
    prob_from_s0,
    sum_closure_count,
)
from .errors import (
    ApxError,
    EmptySetError,
    InvalidConnectionSetError,
    MuUndefinedError,
    NoNonzeroFrequencyError,
    OddOrderRequiredError,
    OutOfLemmaRangeError,
    SymmetryRequiredError,
)
from .fourier import (
    StructureReport,
    WeightSeq,
    dft_indicator,
    prob_spectral,
    random_crosscheck,
    residue_weights,
    structure_report,
    t3_spectral,
    top_nonzero_coefficient,
)
from .group import (
    GroupSpec,
    enumerate_abelian_groups,
    make_group,
    parse_group,
)
from .lemma1 import (
    IntWeightSeq,
    bruteforce_scan,
    implication_check,
    min_product_sum,
)
from .search import (
    SearchReport,
    extremal_search,
    verify_gls,
    verify_theorem1,
    verify_theorem2,
)

__version__ = "0.1.0"
