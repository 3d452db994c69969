"""Exact star-product calculus for symmetric pairs.

The package computes, in exact rational arithmetic: PBW normal forms and
symmetrization in enveloping algebras, the Rouviere and Duflo-Kontsevich
star products, the truncated two-argument expansion driving the invariant
star product on S(p)^k, Harish-Chandra restriction for generalized
Iwasawa decompositions, symmetric-space Campbell-Hausdorff series, and
characters from sigma-stable polarizations.  A colored-graph kernel
estimates configuration-space weights by Monte Carlo.
"""

from .errors import SympairError
from .liealg import (
    Character,
    LieAlgebraDef,
    PolarizationCandidate,
    SymmetricPair,
    build_symmetric_pair,
    coadjoint_semidirect,
    group_type,
    pair_from_matrices,
    polarization_check,
    sl_so,
    trace_alternation,
    trace_word,
)
from .series import TraceSeries, density_series
from .freelie import FreeAssocSeries, FreeLieSeries, bch, sym_factorize, z_sym
from .poly import Poly
from .polyops import (
    BlockPolynomial,
    CEChain,
    apply_series_operator,
    cartan_eilenberg_diff,
    invariant_subspace,
    is_invariant,
)
from .uea import (
    PBWContext,
    UEAElement,
    beta,
    beta_inverse,
    duflo_relation_check,
    hc_projection_uea,
    pbw_multiply,
    project_mod_k_lambda,
    rouviere_sharp,
    star_dk,
)
from .starprod import (
    character_sigma_stable,
    exp_coord_operator,
    h_component,
    ln_e_scalar,
    star_cf,
    wheel_factor_A,
    wheel_factor_B,
)
from .graphs import (
    ColoredGraph,
    WeightEstimate,
    angle,
    compile_operator,
    enumerate_graphs,
    mirror_orientation_sign,
    weight_mc,
    zero_weight_predicate,
)
from .hc import IwasawaData, hc_restrict, validate_iwasawa, weyl_invariance_check

__version__ = "0.1.0"
