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

# the lazy names (PEP 562), each imported on first access from the module it maps to:
# the scalar commands load none of the three, commutator loads candidates alone, and only
# proof_lab's own names load proof_lab and the dataclasses module that the pipeline needs
_LAZY = {
    **dict.fromkeys((
        "CandidateMap", "CommutatorReport", "cauchy_bound_check", "commutator_experiment",
        "commutator_jacobian", "evaluate_candidate", "iterate_commutator", "make_candidate",
        "origin_jacobian", "weighted_form_extract"), "candidates"),
    **dict.fromkeys((
        "PipelineReport", "fit_candidate", "force_c_zero", "normalize_and_extract"), "proof_lab"),
    "orbit_sample": "sampling",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f".{_LAZY[name]}", __name__), name)
