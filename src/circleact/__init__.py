"""circleact: exact-arithmetic decision procedure for free circle actions
on (n-1)-connected (2n+1)-manifolds with torsion-free homology, together
with every numeric ingredient of the computation (Bernoulli numbers,
image-of-J indices, the A-hat multiplicative sequence, Smith normal form,
and Gysin-sequence cohomology of circle bundles)."""

from __future__ import annotations

__version__ = "0.1.0"

from .bernoulli import (
    BernoulliTable,
    bernoulli_ms,
    im_j_order,
    odd_half_denominator,
)
from .classifier import (
    ClassificationResult,
    DivisorReport,
    InvalidInvariantsError,
    ManifoldInvariants,
    OrbitRecipe,
    ReasonCode,
    Witness,
    classify,
    euler_char_cp,
    kervaire_coefficient,
    required_divisor,
    surgery_obstruction_vanishes,
    validate,
)
from .genus import (
    Partition,
    PontrjaginPolynomial,
    ahat_char_coeff,
    alpha,
    integrality_bound,
    multiplicative_sequence,
    twisted_pairing,
)
from .gradedtop import (
    Family,
    GradedGroup,
    IntMatrix,
    OrbitModel,
    SNFResult,
    check_highly_connected,
    cokernel,
    divisibility_transfer,
    gysin_total_space,
    smith_normal_form,
    standard_orbit_model,
)

__all__ = [
    "__version__",
    # bernoulli
    "BernoulliTable", "bernoulli_ms", "im_j_order", "odd_half_denominator",
    # genus
    "Partition", "PontrjaginPolynomial", "ahat_char_coeff",
    "multiplicative_sequence", "alpha", "twisted_pairing", "integrality_bound",
    # gradedtop
    "IntMatrix", "SNFResult", "smith_normal_form", "cokernel",
    "GradedGroup", "Family", "OrbitModel", "standard_orbit_model",
    "gysin_total_space", "check_highly_connected", "divisibility_transfer",
    # classifier
    "ManifoldInvariants", "DivisorReport", "ReasonCode", "Witness",
    "OrbitRecipe", "ClassificationResult", "InvalidInvariantsError",
    "kervaire_coefficient", "required_divisor", "validate", "classify",
    "euler_char_cp", "surgery_obstruction_vanishes",
]
