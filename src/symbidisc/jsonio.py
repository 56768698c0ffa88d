"""JSON encoding of the domain types.

Complex numbers are always emitted as {"re": x, "im": y}; on input a bare number is
accepted as shorthand for a real value. Encoders produce plain dicts with a fixed
key order so serialized output is byte-stable. Every decoder reads its objects with
`_fields`, which rejects a missing key and any key the object does not define.
"""

from __future__ import annotations

import cmath
import json

from .disc_moebius import DiscAutomorphism, make_moebius
from .g2_group import G2Automorphism, Jacobian2, lift
from .sym_geometry import MembershipVerdict, SymPoint


def complex_to_json(z: complex) -> dict:
    # adding 0.0 flushes negative zeros
    return {"re": z.real + 0.0, "im": z.imag + 0.0}


def _fields(obj: object, name: str, /, *required: str, **optional: object) -> list:
    """obj's values of the required keys, then of the optional keys or their defaults."""
    if not isinstance(obj, dict) or not set(required) <= obj.keys():
        keys = " and ".join(map(repr, required))
        raise ValueError(f"{name} needs key{'s' * (len(required) > 1)} {keys}")
    extra = obj.keys() - required - optional.keys()
    if extra:
        raise ValueError(f"unexpected keys {sorted(extra)} in {name}")
    return [*map(obj.__getitem__, required), *map(obj.get, optional, optional.values())]


def complex_from_json(obj: object) -> complex:
    re, im = _fields(obj, "complex value", re=0.0, im=0.0) if isinstance(obj, dict) else (obj, 0.0)
    # each part is a JSON number: float() would read "0.5" and true, and fail on null
    if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in (re, im)):
        raise ValueError(f"expected a complex number, got {obj!r}")
    try:
        z = complex(float(re), float(im))
    except OverflowError as exc:  # an integer beyond the float range
        raise ValueError(f"complex value out of range: {exc}") from exc
    if not cmath.isfinite(z):
        raise ValueError(f"non-finite complex value {obj!r}")
    return z


def moebius_to_json(h: DiscAutomorphism) -> dict:
    return {"tau": complex_to_json(h.tau), "a": complex_to_json(h.a)}


def moebius_from_json(obj: object) -> DiscAutomorphism:
    tau, a = _fields(obj, "disc automorphism", "tau", "a")
    return make_moebius(complex_from_json(tau), complex_from_json(a))


def sympoint_to_json(pt: SymPoint) -> dict:
    return {"s": complex_to_json(pt.s), "p": complex_to_json(pt.p)}


def sympoint_from_json(obj: object) -> SymPoint:
    s, p = _fields(obj, "point", "s", "p")
    return SymPoint(complex_from_json(s), complex_from_json(p))


def g2_to_json(H: G2Automorphism) -> dict:
    return {"h": moebius_to_json(H.h)}


def g2_from_json(obj: object) -> G2Automorphism:
    (h,) = _fields(obj, "group element", "h")
    return lift(moebius_from_json(h))


def verdict_to_json(v: MembershipVerdict) -> dict:
    return {"region": v.region, "margin": v.margin}


def jacobian_to_json(J: Jacobian2) -> list:
    return [
        [complex_to_json(J.m11), complex_to_json(J.m12)],
        [complex_to_json(J.m21), complex_to_json(J.m22)],
    ]


def candidate_from_json(obj: object) -> CandidateMap:
    from .candidates import DEGREE_CAP, make_candidate

    terms, cap = _fields(obj, "candidate", "terms", degree_cap=DEGREE_CAP)
    if not isinstance(terms, list):
        raise ValueError("'terms' must be a list")
    if _exponent(cap) != DEGREE_CAP:
        raise ValueError(f"degree cap {cap} is not {DEGREE_CAP}")
    table = {}
    for entry in terms:
        j, k, cs, cp = _fields(entry, f"term {entry!r}", "j", "k", S=0.0, P=0.0)
        key = (_exponent(j), _exponent(k))
        if key in table:
            raise ValueError(f"duplicate monomial {key}")
        table[key] = (complex_from_json(cs), complex_from_json(cp))
    return make_candidate(table)


def _exponent(obj: object) -> int:
    # int() would truncate 1.7 to 1 and read true as 1
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ValueError(f"expected an integer, got {obj!r}")
    return obj


def report_to_json(r: CommutatorReport) -> dict:
    return {
        "tau": complex_to_json(r.tau),
        "b": complex_to_json(r.b),
        "jacobian_of_G": jacobian_to_json(r.jacobian_of_g),
        "n_star": r.n_star,
        "bound": r.bound,
    }


def dumps(obj: object) -> str:
    """One-line compact JSON; a non-finite float raises ValueError instead of printing NaN."""
    return json.dumps(obj, separators=(",", ":"), allow_nan=False)
