"""Golden digest of the per-point kernels' output bits.

in_g2 (region and margin), in_sigma2 (flag and residual), desymmetrize's roots and
apply_g2_via_roots' image are hashed over float.hex of every output part, or the
exception type where a kernel raises, on a seeded cloud that reaches every branch of
the root extraction; the closed form apply_g2 has its own digest over the cloud's
finite part, and compose and invert of disc automorphisms have a third, over seeded
pairs up to |a| = 1 - 1e-6 whose products reach A_MODULUS_LIMIT. Any change to the
kernels' arithmetic that moves a last bit, a signed zero or a raised type changes the
digest, where the other tests bound errors or compare two routes through the same code.
The points and maps are built from the generator's doubles with Python arithmetic and
abs alone, so numpy's vectorized transcendentals play no part.
"""

import hashlib
import math

import numpy as np

from symbidisc import SymPoint, compose, desymmetrize, in_g2, in_sigma2, invert, lift, make_moebius
from symbidisc.g2_group import apply_g2, apply_g2_via_roots

SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e154, 1.7e308]
GAPS = [1e-12, 3e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3]
EDGES = [0.0, 1e-10, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3]
ELEMENTS = [lift(make_moebius(1, 0j)), lift(make_moebius(1j, 0.3)),
            lift(make_moebius(-1, -0.5 + 0.5j)), lift(make_moebius(0.6 - 0.8j, 0.9j))]


FINITE = 12_000 + 21  # the root pairs and ties of _points(), before the special values


def _points() -> list[SymPoint]:
    """Generic, near-royal and near-boundary root pairs with roots in the square
    |re|, |im| <= 0.9 (so |root| up to 1.27, exterior points included), the tie
    |s + d| = |s - d| at s = 0, and every pairing of the special values."""
    rng = np.random.default_rng(2203)
    pairs = []
    for i, (a, b, c, d) in enumerate(rng.random((12_000, 4)).tolist()):
        lam1 = complex(1.8 * a - 0.9, 1.8 * b - 0.9)
        lam2 = complex(1.8 * c - 0.9, 1.8 * d - 0.9)
        kind = i % 3
        if kind == 1:  # a second root 1e-12 to 1e-3 from the first
            lam2 = lam1 + GAPS[i % len(GAPS)] * complex(2.0 * c - 1.0, 2.0 * d - 1.0)
        elif kind == 2:  # a first root on, or up to 1e-3 inside or outside, the unit circle
            edge = EDGES[i % len(EDGES)] * (1.0 if i // len(EDGES) % 2 else -1.0)
            lam1 = lam1 / abs(lam1) * (1.0 + edge)
        pairs.append(SymPoint(lam1 + lam2, lam1 * lam2))
    ties = [SymPoint(z, p) for z in (0j, complex(-0.0, 0.0), complex(0.0, -0.0))
            for p in (0j, 0.25, -0.25, 0.25j, 0.3 - 0.4j, 1.44, -2j)]
    values = [complex(x, y) for x in SPECIAL for y in SPECIAL]
    specials = [SymPoint(s, p) for s in values for p in values]
    return pairs + ties + specials


def _bits(kernel, *args) -> str:
    """float.hex of every float in kernel(*args), other parts by str, or the type raised."""
    try:
        out = kernel(*args)
    except (ArithmeticError, ValueError) as exc:  # ValueError: make_moebius's domain check
        return type(exc).__name__
    parts = []
    for part in out:
        if isinstance(part, complex):
            parts += [part.real.hex(), part.imag.hex()]
        elif isinstance(part, float):
            parts.append(part.hex())
        else:
            parts.append(str(part))
    return ",".join(parts)


def test_kernel_output_bits_are_pinned():
    points = _points()
    assert len(points) == FINITE + 49 * 49
    digest = hashlib.sha256()
    for i, pt in enumerate(points):
        line = ";".join([_bits(in_g2, pt), _bits(in_sigma2, pt), _bits(desymmetrize, pt),
                         _bits(apply_g2_via_roots, ELEMENTS[i % len(ELEMENTS)], pt)])
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == (
        "a779d03f9b65cdadde914e86a27891ca13476a2da6c0ff24f6cfe97308eec712")


def test_closed_form_output_bits_are_pinned():
    # the finite part only: on a NaN part the closed form's outcome depends on whether
    # an earlier abs() in the interpreter overflowed (CPython leaves errno set)
    digest = hashlib.sha256()
    for i, pt in enumerate(_points()[:FINITE]):
        digest.update(_bits(apply_g2, ELEMENTS[i % len(ELEMENTS)], pt).encode() + b"\n")
    assert digest.hexdigest() == (
        "309e742601d54c25eb835db0bee9b7b52afbd319cd8c5bdc579fb82550c93a15")


# 1 - |a| of the aligned pairs' factors; their products land on both sides of
# A_MODULUS_LIMIT, where 1 - |a| of the product is about the factors' product over 2
RIMS = [1e-6, 1.4e-6, 2e-6, 3e-6, 1e-3]


def _pairs() -> list[tuple]:
    """Generic pairs with |a| up to 1 - 1e-6, aligned pairs near the rim whose product
    reaches A_MODULUS_LIMIT, and rotations with signed zeros."""
    rng = np.random.default_rng(3311)
    pairs = []
    for i, (t1, t2, u1, u2, v1, v2, r1, r2) in enumerate(rng.random((20_000, 8)).tolist()):
        tau_h = complex(2.0 * t1 - 1.0, 2.0 * t2 - 1.0)
        tau_g = complex(2.0 * u1 - 1.0, 2.0 * u2 - 1.0)
        tau_h, tau_g = tau_h / abs(tau_h), tau_g / abs(tau_g)
        unit = complex(2.0 * v1 - 1.0, 2.0 * v2 - 1.0)
        unit = unit / abs(unit)
        if i % 2:  # a_h / tau_g and a_g share a ray: g^-1 carries h's zero toward the rim
            a_h = (1.0 - RIMS[i % len(RIMS)]) * unit * tau_g
            a_g = (1.0 - RIMS[i // 2 % len(RIMS)]) * unit
        else:  # |a| uniform in radius up to 1 - 1e-6, directions independent
            a_h = (1.0 - 1e-6) * r1 * unit
            a_g = (1.0 - 1e-6) * r2 * unit.conjugate() * tau_h
        pairs.append((make_moebius(tau_h, a_h), make_moebius(tau_g, a_g)))
    zeros = [complex(x, y) for x in (0.0, -0.0) for y in (0.0, -0.0)]
    rotations = [make_moebius(t, z) for t in (1, -1, 1j, -1j, 0.6 - 0.8j) for z in zeros]
    return pairs + [(h, g) for h in rotations for g in rotations]


def test_compose_and_invert_output_bits_are_pinned():
    pairs = _pairs()
    lines = [";".join([_bits(compose, h, g), _bits(invert, h)]) for h, g in pairs]
    # both sides of the limit are reached: some products raise, most do not
    assert 0 < sum(line.startswith("ParameterOutOfDomain") for line in lines) < len(lines) // 4
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == (
        "ebbc4fdc24f502dadc2d4046c63afd611481e7817099307d5eaee5a627cfc858")
