"""conecheck: property testing and numeric certification for
subadditivity-type inequalities of functions on convex cones."""

from .catalog import (
    CatalogEntry,
    PropertyLabel,
    SourceStatus,
    builtin_entries,
    instantiate,
    lookup,
)
from .certify import (
    LaplaceCertificate,
    certify_differential_monotone,
    certify_hessian_sign,
    certify_topkis,
    laplace_as_handle,
)
from .checkers import (
    CheckConfig,
    CheckReport,
    Claim,
    MajorizationPair,
    Witness,
    check,
    check_chebyshev,
    check_claims,
    check_popoviciu,
    refute,
    reevaluate_witness,
    tomic_weyl,
)
from .cones import (
    ConeSpec,
    Point,
    Rng,
    comonotonic,
    full_space,
    member,
    nonneg_orthant,
    positive_orthant,
    psd_cone,
)
from .diffops import FunctionHandle, compose, delta, kth_diff, second_diff, shift_and_center
from .numkernel import ScalarFunction, gamma

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
