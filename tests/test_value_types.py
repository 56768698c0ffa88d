"""The value types' contract, guards that keep typing, dataclasses and the proof lab off
the import path, and a guard that keeps each float constant of the package defined once.

The point and group value types are collections.namedtuple subclasses with
__slots__ = (): immutable, without a __dict__, and printed as Name(field=value, ...).
Error messages embed that repr, so it is pinned here on one seeded instance of each
type. None of them defines __new__, so the per-point kernels' _box gives the value
that the constructor gives; a test pins that too.
"""

import ast
import cmath
import math
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from symbidisc import (
    MembershipVerdict,
    SymPoint,
    apply_g2,
    apply_g2_via_roots,
    commutator_experiment,
    desymmetrize,
    in_g2,
    jacobian_at,
    lift,
    make_candidate,
    make_moebius,
    symmetrize,
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
    "CandidateMap": f"CandidateMap(terms={{(0, 1): ({A}, {TAU}), (1, 0): ((1+0j), 0j)}})",
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
# The per-point kernels box their results with tuple.__new__, the C call that a
# namedtuple's generated __new__ ends in, and so give the values it would give
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(REPRS))
def test_value_type_keeps_the_generated_new(name):
    # a __new__ of its own would make _box(cls, fields) differ from cls(*fields)
    assert "__new__" not in vars(type(seeded_values()[name]))


def root_cloud(count: int = 100, seed: int = 2020) -> list:
    """Seeded (lam1, lam2, SymPoint) triples; lam1 runs through |lam1| = 0.6, 1, 1.4,
    so the points fall in all three membership regions; |lam2| < 0.5."""
    rng = random.Random(seed)
    cloud = []
    for i in range(count):
        lam1 = cmath.rect((0.6, 1.0, 1.4)[i % 3], rng.uniform(0.0, 2.0 * math.pi))
        lam2 = cmath.rect(0.5 * rng.random(), rng.uniform(0.0, 2.0 * math.pi))
        cloud.append((lam1, lam2, SymPoint(lam1 + lam2, lam1 * lam2)))
    return cloud


H = lift(make_moebius(cmath.exp(0.7j), 0.3 - 0.2j))
# name -> (the type it returns, the kernel called on one triple of root_cloud)
PRODUCERS = {
    "apply_g2": (SymPoint, lambda lam1, lam2, pt: apply_g2(H, pt)),
    "apply_g2_via_roots": (SymPoint, lambda lam1, lam2, pt: apply_g2_via_roots(H, pt)),
    "symmetrize": (SymPoint, lambda lam1, lam2, pt: symmetrize(lam1, lam2)),
    "in_g2": (MembershipVerdict, lambda lam1, lam2, pt: in_g2(pt)),
}


def test_per_point_kernels_box_without_a_python_call(monkeypatch):
    cloud = root_cloud()
    calls = []
    for cls in (SymPoint, MembershipVerdict):
        def counting(cls, *fields, generated=cls.__new__):
            calls.append(cls.__name__)
            return generated(cls, *fields)

        monkeypatch.setattr(cls, "__new__", counting)
    values = {name: [produce(*triple) for triple in cloud]
              for name, (_, produce) in PRODUCERS.items()}
    assert {verdict.region for verdict in values["in_g2"]} == {"interior", "boundary",
                                                               "exterior"}
    assert calls == []
    # the counters do count a constructor call
    SymPoint(0j, 0j)
    MembershipVerdict("interior", 1.0)
    assert calls == ["SymPoint", "MembershipVerdict"]


@pytest.mark.parametrize("name", sorted(PRODUCERS))
def test_kernel_values_behave_as_constructed_ones(name):
    cls, produce = PRODUCERS[name]
    last = cls._fields[-1]
    for triple in root_cloud():
        value = produce(*triple)
        built = cls(*value)
        assert type(value) is cls and value == built
        assert hash(value) == hash(built) and repr(value) == repr(built)
        back = pickle.loads(pickle.dumps(value))
        assert type(back) is cls and back == built
        moved = value._replace(**{last: 0.0})
        assert type(moved) is cls and moved == built._replace(**{last: 0.0})


# ---------------------------------------------------------------------------
# Guard: typing, and dataclasses, which pulls in inspect, stay out of the scalar
# import path
# ---------------------------------------------------------------------------

def parsed_modules() -> dict:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def imports_module(node, module: str) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == module for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == module


def importers_of(module: str) -> set:
    return {name for name, tree in parsed_modules().items()
            if any(imports_module(node, module) for node in ast.walk(tree))}


def test_no_module_imports_typing():
    # annotations stay unevaluated under `from __future__ import annotations`, so the
    # ABCs come from collections.abc and the value types from collections.namedtuple
    assert importers_of("typing") == set()


def is_dataclass_decorator(node) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    return ((isinstance(target, ast.Name) and target.id == "dataclass")
            or (isinstance(target, ast.Attribute) and target.attr == "dataclass"))


def test_only_proof_lab_imports_dataclasses():
    assert importers_of("dataclasses") == {"proof_lab"}


def test_pipeline_report_is_the_only_dataclass():
    decorated = {f"{name}.{node.name}"
                 for name, tree in parsed_modules().items()
                 for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef)
                 and any(is_dataclass_decorator(d) for d in node.decorator_list)}
    assert decorated == {"proof_lab.PipelineReport"}


# ---------------------------------------------------------------------------
# Guard: proof_lab, the one module that needs dataclasses, loads only on use
# ---------------------------------------------------------------------------

# the proof-lab names the package served eagerly before they became lazy
LAZY_NAMES = [
    "CandidateMap", "CommutatorReport", "PipelineReport", "cauchy_bound_check",
    "commutator_experiment", "commutator_jacobian", "evaluate_candidate", "fit_candidate",
    "force_c_zero", "iterate_commutator", "make_candidate", "normalize_and_extract",
    "orbit_sample", "origin_jacobian", "weighted_form_extract",
]


def test_proof_lab_names_load_on_first_access():
    script = "\n".join([
        "import sys",
        "import symbidisc",
        "assert 'symbidisc.proof_lab' not in sys.modules, 'imported with the package'",
        "assert 'symbidisc.candidates' not in sys.modules, 'imported with the package'",
        "symbidisc.make_candidate",
        "assert 'symbidisc.candidates' in sys.modules, 'make_candidate did not load candidates'",
        "assert 'symbidisc.proof_lab' not in sys.modules, 'make_candidate loaded proof_lab'",
        "orbit_sample = symbidisc.orbit_sample",
        "assert 'symbidisc.sampling' in sys.modules, 'orbit_sample did not load sampling'",
        "assert 'symbidisc.proof_lab' not in sys.modules, 'orbit_sample loaded proof_lab'",
        "assert 'dataclasses' not in sys.modules, 'orbit_sample loaded dataclasses'",
        "assert orbit_sample is symbidisc.sampling.orbit_sample",
        "from symbidisc import normalize_and_extract",
        "import symbidisc.proof_lab as pl",
        "assert normalize_and_extract is pl.normalize_and_extract",
        "assert all(getattr(symbidisc, n) is getattr(getattr(symbidisc, m), n)"
        "           for n, m in symbidisc._LAZY.items())",
        # the names the benchmark reads through proof_lab
        "assert all(getattr(pl, n) is getattr(symbidisc, n) for n in ('commutator_experiment',"
        "           'evaluate_candidate', 'orbit_sample', 'weighted_form_extract'))",
        f"assert sorted(symbidisc._LAZY) == {sorted(LAZY_NAMES)!r}",
        "try:",
        "    symbidisc.no_such_name",
        "except AttributeError as exc:",
        "    print(exc)",
    ])
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "module 'symbidisc' has no attribute 'no_such_name'\n"


def imports_proof_lab(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name == "symbidisc.proof_lab" for alias in node.names)
    if not isinstance(node, ast.ImportFrom):
        return False
    module = node.module or ""
    return (module in ("proof_lab", "symbidisc.proof_lab")
            or (module in ("", "symbidisc") and any(a.name == "proof_lab" for a in node.names)))


def import_time_statements(body):
    """The statements run on import: all but function bodies."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from import_time_statements(getattr(node, field, []))


def module_level_proof_lab_importers(trees: dict) -> set:
    return {name for name, tree in trees.items()
            if any(imports_proof_lab(node) for node in import_time_statements(tree.body))}


def test_no_module_imports_proof_lab_on_import():
    assert module_level_proof_lab_importers(parsed_modules()) == set()


def test_proof_lab_guard_sees_only_import_time_statements():
    trees = {name: ast.parse(code) for name, code in {
        "top": "from .proof_lab import make_candidate",
        "absolute": "import symbidisc.proof_lab as pl",
        "from_package": "from . import proof_lab",
        "class_body": "class A:\n    from .proof_lab import DEGREE_CAP",
        "else_branch": "if flag:\n    pass\nelse:\n    from .proof_lab import X",
        "if_branch": "if flag:\n    from .proof_lab import CandidateMap",
        "in_function": "def f():\n    from .proof_lab import make_candidate",
        "other_module": "from .g2_group import lift",
    }.items()}
    assert module_level_proof_lab_importers(trees) == {
        "top", "absolute", "from_package", "class_body", "else_branch", "if_branch"}


# ---------------------------------------------------------------------------
# Guard: a tolerance or threshold value is one module-level constant, not two
# ---------------------------------------------------------------------------

ARITHMETIC = (ast.Expression, ast.Constant, ast.BinOp, ast.UnaryOp, ast.operator, ast.unaryop)


def float_constants(trees: dict) -> dict:
    """{value: [module.NAME, ...]} over module-level names bound to float arithmetic."""
    found = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target = node.target
            else:
                continue
            expr = ast.Expression(node.value)
            if isinstance(target, ast.Name) and all(isinstance(part, ARITHMETIC)
                                                    for part in ast.walk(expr)):
                value = eval(compile(expr, module, "eval"), {"__builtins__": {}})
                if isinstance(value, float):
                    found.setdefault(value, []).append(f"{module}.{target.id}")
    return found


def test_no_two_float_constants_share_a_value():
    shared = {value: names for value, names in float_constants(parsed_modules()).items()
              if len(names) > 1}
    assert shared == {}


def test_float_constant_guard_sees_only_module_level_floats():
    trees = {name: ast.parse(code) for name, code in {
        "a": "FLOOR = 1e-14\nLIMIT = 1.0 - 1e-12\nCOUNT = 4\nNAME = 'x'",
        "b": "OTHER: float = 1e-14\nNEAR = 1e-12\nX, Y = 2.0, 2.0",
        "c": "def f():\n    LOCAL = 1e-14\nclass C:\n    FIELD = 1e-14\nTOL = -(2 * 0.5e-14)",
        "d": "import math\nSCALED = math.pi * 2.0\nCOUNT = 4",
    }.items()}
    assert float_constants(trees) == {
        1e-14: ["a.FLOOR", "b.OTHER"], 1.0 - 1e-12: ["a.LIMIT"], 1e-12: ["b.NEAR"],
        -1e-14: ["c.TOL"]}
