"""JSON encoding of the domain types.

Complex numbers are always emitted as {"re": x, "im": y}; on input a bare number is
accepted as shorthand for a real value. Encoders produce plain dicts with a fixed
key order so serialized output is byte-stable.
"""

from __future__ import annotations

import cmath
import json
from typing import TYPE_CHECKING, Any

from .disc_moebius import DiscAutomorphism, make_moebius
from .g2_group import G2Automorphism, Jacobian2, lift
from .sym_geometry import MembershipVerdict, SymPoint

if TYPE_CHECKING:  # proof_lab is imported only by the decoder that needs it
    from .proof_lab import CandidateMap, CommutatorReport


def complex_to_json(z: complex) -> dict:
    # adding 0.0 flushes negative zeros
    return {"re": z.real + 0.0, "im": z.imag + 0.0}


def complex_from_json(obj: Any) -> complex:
    if isinstance(obj, dict):
        extra = set(obj) - {"re", "im"}
        if extra:
            raise ValueError(f"unexpected keys {sorted(extra)} in complex value")
        re, im = obj.get("re", 0.0), obj.get("im", 0.0)
    else:
        re, im = obj, 0.0
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


def moebius_from_json(obj: Any) -> DiscAutomorphism:
    if not isinstance(obj, dict) or "tau" not in obj or "a" not in obj:
        raise ValueError("disc automorphism needs keys 'tau' and 'a'")
    return make_moebius(complex_from_json(obj["tau"]), complex_from_json(obj["a"]))


def sympoint_to_json(pt: SymPoint) -> dict:
    return {"s": complex_to_json(pt.s), "p": complex_to_json(pt.p)}


def sympoint_from_json(obj: Any) -> SymPoint:
    if not isinstance(obj, dict) or "s" not in obj or "p" not in obj:
        raise ValueError("point needs keys 's' and 'p'")
    return SymPoint(complex_from_json(obj["s"]), complex_from_json(obj["p"]))


def g2_to_json(H: G2Automorphism) -> dict:
    return {"h": moebius_to_json(H.h)}


def g2_from_json(obj: Any) -> G2Automorphism:
    if not isinstance(obj, dict) or "h" not in obj:
        raise ValueError("group element needs key 'h'")
    return lift(moebius_from_json(obj["h"]))


def verdict_to_json(v: MembershipVerdict) -> dict:
    return {"region": v.region, "margin": v.margin}


def jacobian_to_json(J: Jacobian2) -> list:
    return [
        [complex_to_json(J.m11), complex_to_json(J.m12)],
        [complex_to_json(J.m21), complex_to_json(J.m22)],
    ]


def candidate_from_json(obj: Any) -> CandidateMap:
    from .proof_lab import DEGREE_CAP, make_candidate

    if not isinstance(obj, dict) or "terms" not in obj:
        raise ValueError("candidate needs key 'terms'")
    if not isinstance(obj["terms"], list):
        raise ValueError("'terms' must be a list")
    table = {}
    for entry in obj["terms"]:
        if not isinstance(entry, dict) or "j" not in entry or "k" not in entry:
            raise ValueError(f"term {entry!r} needs keys 'j' and 'k'")
        key = (_exponent(entry["j"]), _exponent(entry["k"]))
        if key in table:
            raise ValueError(f"duplicate monomial {key}")
        table[key] = (
            complex_from_json(entry.get("S", 0.0)),
            complex_from_json(entry.get("P", 0.0)),
        )
    return make_candidate(table, _exponent(obj.get("degree_cap", DEGREE_CAP)))


def _exponent(obj: Any) -> int:
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


def dumps(obj: Any) -> str:
    """One-line compact JSON; a non-finite float raises ValueError instead of printing NaN."""
    return json.dumps(obj, separators=(",", ":"), allow_nan=False)
