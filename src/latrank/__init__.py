"""latrank: exact counting of fixed-rank integral matrices over number fields,
the echelon-matrix series for the leading constant, and Hecke-neighbor
lattice-sum moment experiments."""

__version__ = "0.1.0"

from .counting import (
    C1Estimate,
    RankCountReport,
    TestFunction,
    ball,
    c1_estimate,
    custom,
    koecher_identity_check,
    lhs_count,
    primitive_zeta_check,
    product_of_balls,
    term_value,
    zeta,
)
from .errors import (
    EnumerationCapError,
    ExactNormUnavailableError,
    FieldMismatchError,
    InvariantError,
    LatrankError,
    NotIntegralError,
    PrecisionError,
    ReduciblePolynomialError,
    SingularBasisError,
    ValidationError,
)
from .exactval import PowerProduct
from .hecke import (
    FiniteSubspace,
    HeckeLattice,
    MomentReport,
    containment_probability,
    convergence_table,
    enumerate_subspaces,
    gaussian_binomial,
    hecke_neighbor,
    lattice_sum,
    moment_lhs,
    moment_rhs_limit,
    moment_stratified,
    rank_drop_check,
)
from .modules import (
    EchelonMatrix,
    ModuleSet,
    PrimitiveModule,
    denominator,
    echelon_of_module,
    enumerate_primitive_modules,
    lambda_of,
    rank_factorize,
    schmidt_count,
    to_echelon,
)
from .numfield import (
    FieldElement,
    NumberField,
    PrimeIdealData,
    field_arith,
    make_field,
    parse_field_file,
    rank_over_K,
    rationals,
    trace_and_twisted_norm,
)
from .zlattice import (
    Ambient,
    MinimaReport,
    ZLattice,
    covering_radius_bound,
    direct_sum,
    hadamard_ratio,
    height,
    integer_lattice,
    lll_reduce,
    okn_lattice,
    saturate,
    short_vectors,
    successive_k_minima,
    unit_ball_volume,
)
