"""Golden digest of the per-point kernels' output bits.

in_g2 (region and margin), in_sigma2 (flag and residual), desymmetrize's roots and
apply_g2_via_roots' image are hashed over float.hex of every output part, or the
exception type where a kernel raises, on a seeded cloud that reaches every branch of
the root extraction; the closed form apply_g2 has its own digest over the cloud's
finite part. Any change to the kernels' arithmetic that moves a last bit, a
signed zero or a raised type changes the digest, where the other tests bound errors
or compare two routes through the same code.
The points are built from the generator's doubles with Python arithmetic and abs
alone, so numpy's vectorized transcendentals play no part.
"""

import hashlib
import math

import numpy as np

from symbidisc import SymPoint, desymmetrize, in_g2, in_sigma2, lift, make_moebius
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
    except ArithmeticError as exc:
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
