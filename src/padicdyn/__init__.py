"""Exact p-adic analysis of polynomial self-maps of affine space near fixed points.

The package computes linearizing conjugacies (order-by-order and by a
quadratically convergent Newton scheme with norm certificates), certifies
invariant p-adic neighbourhoods, runs the constructive coefficient
recursion for algebraic power series with denominator-prime analysis, and
probes Zariski density of orbits through vanishing-sum and relation-kernel
machinery.  All arithmetic is exact: rationals, capped-precision p-adics,
and truncated power series over them.
"""

from .dynamics import (
    AnalyticMap,
    DiophantineParams,
    EigenData,
    RelationLattice,
    Resonance,
    choose_prime,
    enumerate_resonances,
    jacobian_at_origin,
    rational_eigenvalues,
    relation_lattice,
    symplectic_scaling_check,
)
from .eisenstein import (
    AlgebraicSeriesSpec,
    XPolynomial,
    coefficients_up_to,
    denominator_support,
    detect_vanishing_order,
)
from .errors import (
    DivisionFailureError,
    DocumentError,
    DomainError,
    EigenvalueVariationError,
    IntegralityError,
    IrrationalEigenvalueError,
    NotSemisimpleError,
    PadicDynError,
    PrecisionError,
    ResonantMonomialError,
    SingularBlockError,
    TorsionError,
)
from .linearize import (
    ConjugacyResult,
    NewtonTrace,
    check_norm_bound,
    linearize_newton,
    linearize_order_by_order,
    normalize_fixed_locus,
    solve_homological,
)
from .orbit import (
    Neighbourhood,
    VanishingSumInstance,
    closure_dimension_estimate,
    interpolation_reduction,
    iterate_in_neighbourhood,
    relation_probe,
    separating_polynomial,
    union_closure_compare,
    vanishing_exponents,
)
from .padic import PAdic, padic_exp, padic_log, stabilizing_exponent
from .series import (
    GaussNorm,
    MultiSeries,
    SeriesTuple,
    gauss_norm,
    in_subspace_ar,
    tuple_gauss_norm,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
