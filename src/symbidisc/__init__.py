"""Geometry of the symmetrized bidisc and its automorphism group.

The symmetrized bidisc is the image of the unit bidisc under
(lam1, lam2) -> (lam1 + lam2, lam1 * lam2). Its automorphisms are exactly the lifts
of disc automorphisms acting on both roots at once; this package provides that group
in canonical coordinates together with a numerical lab that enacts every computable
step of the characterization argument. The lab's names load on first access.
"""

from .disc_moebius import (
    DiscAutomorphism,
    apply_moebius,
    compose,
    invert,
    make_moebius,
)
from .errors import (
    DenominatorDegenerate,
    NotNormalized,
    NotOnRoyalVariety,
    NotWeightedHomogeneous,
    ParameterOutOfDomain,
    PoleEncountered,
    PreconditionUnmet,
    SingularJacobian,
)
from .g2_group import (
    G2Automorphism,
    Jacobian2,
    apply_g2,
    apply_g2_via_roots,
    compose_g2,
    invert_g2,
    jacobian_at,
    lift,
    rotation,
    transport_to_origin,
)
from .sym_geometry import (
    ORIGIN,
    MembershipVerdict,
    RootPair,
    SymPoint,
    desymmetrize,
    in_g2,
    in_sigma2,
    royal_param,
    symmetrize,
)

__version__ = "0.3.0"

# the lab's names, imported on first access (PEP 562): the scalar commands load
# neither module, and commutator loads candidates without proof_lab, numpy or the
# dataclasses module that proof_lab needs
_CANDIDATE_NAMES = frozenset({
    "CandidateMap", "CommutatorReport", "cauchy_bound_check", "commutator_experiment",
    "commutator_jacobian", "evaluate_candidate", "iterate_commutator", "make_candidate",
    "origin_jacobian", "weighted_form_extract",
})
_PROOF_LAB_NAMES = frozenset({
    "PipelineReport", "fit_candidate", "force_c_zero", "normalize_and_extract", "orbit_sample",
})


def __getattr__(name: str):
    if name in _CANDIDATE_NAMES:
        from . import candidates as lab
    elif name in _PROOF_LAB_NAMES:
        from . import proof_lab as lab
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(lab, name)
