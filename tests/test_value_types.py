"""The value types' contract, and a guard that keeps dataclasses off the import path.

The point and group value types are typing.NamedTuples: immutable, without a
__dict__, and printed as Name(field=value, ...). Error messages embed that repr, so
it is pinned here on one seeded instance of each type.
"""

import ast
from pathlib import Path

import pytest

from symbidisc import (
    SymPoint,
    commutator_experiment,
    desymmetrize,
    in_g2,
    jacobian_at,
    lift,
    make_candidate,
)
from symbidisc.sampling import random_interior, random_moebius, rng_from_seed

SRC = Path(__file__).resolve().parents[1] / "src" / "symbidisc"


def seeded_values() -> dict:
    rng = rng_from_seed(2024)
    pt = random_interior(rng)
    h = random_moebius(rng)
    H = lift(h)
    F = make_candidate({(1, 0): (1, 0), (0, 1): (h.a, h.tau)})
    return {
        "SymPoint": pt,
        "RootPair": desymmetrize(pt),
        "MembershipVerdict": in_g2(pt),
        "DiscAutomorphism": h,
        "G2Automorphism": H,
        "Jacobian2": jacobian_at(H, pt),
        "CandidateMap": F,
        "CommutatorReport": commutator_experiment(F, h.tau),
    }


TAU = "(0.999652168447636-0.026373132501448883j)"
A = "(0.3153348045207783+0.17008284554325068j)"
REPRS = {
    "SymPoint": "SymPoint(s=(0.3525159989427439+0.27161796008242745j), "
                "p=(0.45468928946421994+0.039493475232933506j))",
    "RootPair": "RootPair(first=(0.169955376191391-0.5291016975739183j), "
                "second=(0.18256062275135293+0.8007196576563456j))",
    "MembershipVerdict": "MembershipVerdict(region='interior', margin=0.17873247285877847)",
    "DiscAutomorphism": f"DiscAutomorphism(tau={TAU}, a={A})",
    "G2Automorphism": f"G2Automorphism(h=DiscAutomorphism(tau={TAU}, a={A}))",
    "Jacobian2": "Jacobian2(m11=(1.0631137283671281+0.19791434407534636j), "
                 "m12=(-0.6893490217168338+0.2691322975842289j), "
                 "m21=(-0.1551748662341138-0.282094325488847j), "
                 "m22=(1.0849176856851914+0.0908486151638798j))",
    "CandidateMap": f"CandidateMap(terms={{(0, 1): ({A}, {TAU}), (1, 0): ((1+0j), 0j)}}, "
                    "degree_cap=4)",
    "CommutatorReport": f"CommutatorReport(tau={TAU}, b={A}, "
                        "jacobian_of_g=Jacobian2(m11=(0.9999999999999999+0j), "
                        "m12=(0.004375934027164723-0.008375526762140798j), m21=0j, "
                        "m22=(1+6.938893903907228e-18j)), n_star=212, bound=2.0)",
}


@pytest.mark.parametrize("name", sorted(REPRS))
def test_repr_keeps_the_field_form(name):
    value = seeded_values()[name]
    assert type(value).__name__ == name
    assert repr(value) == REPRS[name]


@pytest.mark.parametrize("name", sorted(REPRS))
def test_fields_cannot_be_assigned(name):
    value = seeded_values()[name]
    for field in type(value)._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, 0)


@pytest.mark.parametrize("name", sorted(REPRS))
def test_no_instance_dict(name):
    value = seeded_values()[name]
    assert not hasattr(value, "__dict__")
    with pytest.raises(AttributeError):
        value.extra = 0


def test_replace_builds_a_new_value():
    pt = SymPoint(0.5, 0.1)
    assert pt._replace(p=0.2j) == SymPoint(0.5, 0.2j)
    assert pt == SymPoint(0.5, 0.1)


# ---------------------------------------------------------------------------
# Guard: dataclasses, which pulls in inspect, stays out of the scalar import path
# ---------------------------------------------------------------------------

def parsed_modules() -> dict:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def imports_dataclasses(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "dataclasses" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses"


def is_dataclass_decorator(node) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    return ((isinstance(target, ast.Name) and target.id == "dataclass")
            or (isinstance(target, ast.Attribute) and target.attr == "dataclass"))


def test_only_proof_lab_imports_dataclasses():
    importers = {name for name, tree in parsed_modules().items()
                 if any(imports_dataclasses(node) for node in ast.walk(tree))}
    assert importers == {"proof_lab"}


def test_pipeline_report_is_the_only_dataclass():
    decorated = {f"{name}.{node.name}"
                 for name, tree in parsed_modules().items()
                 for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef)
                 and any(is_dataclass_decorator(d) for d in node.decorator_list)}
    assert decorated == {"proof_lab.PipelineReport"}
