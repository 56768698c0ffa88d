"""Reference pace: how fast the host runs right now, measured by fixed kernels.

On a shared host the CPU runs at speeds up to 1.7x apart, switching every few
tens of milliseconds to minutes, so raw times of the same code move by 20-26%
between runs minutes apart. The runner times both kernels below between every
two steps; a step's time is then read as if the host ran at the reference pace,
by scaling it with REF_S / (the kernel's mean time just before and after it).

The kernels are the benchmark's own code, so a change to the library cannot
move them. Each kind of step is read against the kernel whose slowdown under
host load matched its own on the development machine: over 5-second windows of
150 s, log certify time rose 1.00x as fast as log `object_kernel` time and 1.34x
as fast as log `arith_kernel` time, while a scalar cli subprocess rose 0.84x as
fast as `arith_kernel` and 0.64x as fast as `object_kernel`.
"""

from __future__ import annotations

import math
import time


def arith_kernel() -> complex:
    """A tight loop of complex arithmetic."""
    z, acc = 0.3 + 0.1j, 0j
    for _ in range(1200):
        z = (z * z + 0.2j) / (1.0 + abs(z))
        acc += z
    return acc


class _Pair:
    __slots__ = ("s", "p")

    def __init__(self, s: complex, p: complex):
        self.s = s
        self.p = p


def object_kernel() -> float:
    """Small objects, attribute access, math calls, a list and a dict: the mix
    of the library's scalar kernels."""
    out, z = [], 0.2 + 0.1j
    for i in range(200):
        q = _Pair(z, z * z * 0.5)
        r = _Pair((q.s + 0.1) / (1 + 0.1 * q.s), q.p * 0.9)
        out.append(abs(r.s - r.p) + math.atan2(r.s.imag, r.s.real))
        z = complex(math.sin(i), math.cos(i)) * 0.5
    buckets: dict = {}
    for i, v in enumerate(out):
        buckets[i % 97] = buckets.get(i % 97, 0.0) + v
    return sum(sorted(out)) + sum(buckets.values())


KERNELS = {"arith": arith_kernel, "object": object_kernel}
# CPU seconds of each kernel on the development machine (Intel Xeon, CPU model
# 207) at its faster speed; every timing is reported as if the host ran at this pace.
REF_S = {"arith": 0.00022, "object": 0.00028}
# Kernels each sample kind is read against; a step that is part interpreter start
# and imports, part library compute, takes the geometric mean of both scalings.
READ_AGAINST = {"orbit": ("object",), "apply": ("object",), "membership": ("object",),
                "certify": ("object",), "cli": ("arith",),
                "cli_orbit": ("arith", "object"), "setup": ("arith", "object")}
RATES = ("orbit", "apply", "membership")  # samples that are rates, not times


def measure() -> dict:
    """CPU seconds of each kernel, run once now."""
    out = {}
    for name, kernel in KERNELS.items():
        t0 = time.thread_time()
        kernel()
        out[name] = time.thread_time() - t0
    return out


def mean(a: dict, b: dict) -> dict:
    return {name: (a[name] + b[name]) / 2 for name in a}


def at_pace(key: str, samples: list, paces: list) -> list:
    """The samples of `key` read at the reference pace."""
    kernels = READ_AGAINST[key]
    out = []
    for value, pace in zip(samples, paces, strict=True):
        slow = math.prod(pace[k] / REF_S[k] for k in kernels) ** (1 / len(kernels))
        out.append(value * slow if key in RATES else value / slow)
    return out
