"""Command-line front end with deterministic, machine-readable output.

Subcommands: membership, apply, transport, orbit, commutator. JSON results are one
line per object on stdout; CSV output has a fixed header row and 17-significant-digit
floats. stderr carries diagnostics only.

Exit codes:
  membership   0 interior, 1 boundary, 2 exterior
  transport    3 when the point is not on the royal variety
  commutator   0 when no bound violation exists, 4 when one is found
  64           malformed or out-of-domain input, NaN and Infinity included
  65           the requested operation failed on valid-looking input, or its
               arrays could not be allocated
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .disc_moebius import make_moebius
from .errors import NotOnRoyalVariety
from .g2_group import apply_g2, apply_g2_via_roots, transport_to_origin
from .jsonio import (
    complex_from_json,
    candidate_from_json,
    dumps,
    g2_from_json,
    g2_to_json,
    report_to_json,
    sympoint_from_json,
    sympoint_to_json,
    verdict_to_json,
)
from .sym_geometry import DEFAULT_TOL, in_g2, in_sigma2

EXIT_USAGE = 64
EXIT_FAILED = 65

CSV_HEADER = "re_s,im_s,re_p,im_p,sigma2_residual"
CSV_ROW = "%.17g,%.17g,%.17g,%.17g,%.17g"
# sympoint_to_json plus the residual, as dumps prints it: floats by repr, no spaces
JSON_ROW = '{"s":{"re":%r,"im":%r},"p":{"re":%r,"im":%r},"sigma2_residual":%r}'


class _InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are malformed input, not exit 2
        raise _InputError(message)


def _load_json(text: str):
    if text == "-":
        text = sys.stdin.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _InputError(f"invalid JSON: {exc}") from exc


def _parse(text: str, decode):
    try:
        return decode(_load_json(text))
    except ValueError as exc:  # domain-type decoders raise ValueError subclasses
        raise _InputError(str(exc)) from exc


def _cmd_membership(args) -> int:
    pt = _parse(args.point, sympoint_from_json)
    verdict = in_g2(pt, args.tol)
    _, residual = in_sigma2(pt, args.tol)
    out = verdict_to_json(verdict)
    out["sigma2_residual"] = residual
    print(dumps(out))
    return {"interior": 0, "boundary": 1, "exterior": 2}[verdict.region]


def _cmd_apply(args) -> int:
    H = _parse(args.automorphism, g2_from_json)
    pt = _parse(args.point, sympoint_from_json)
    image = apply_g2(H, pt)
    via_roots = apply_g2_via_roots(H, pt)
    out = sympoint_to_json(image)
    out["check"] = max(abs(image.s - via_roots.s), abs(image.p - via_roots.p))
    print(dumps(out))
    return 0


def _cmd_transport(args) -> int:
    pt = _parse(args.point, sympoint_from_json)
    try:
        H = transport_to_origin(pt, args.tol)
    except NotOnRoyalVariety as exc:
        print(f"not on the royal variety: {exc}", file=sys.stderr)
        return 3
    print(dumps(g2_to_json(H)))
    return 0


def _cmd_orbit(args) -> int:
    import numpy as np

    from .sampling import _orbit_arrays

    pt = _parse(args.point, sympoint_from_json)
    S, P = _orbit_arrays(pt, args.samples, args.seed)
    sr, si, pr, pi = S.real, S.imag, P.real, P.imag
    # in_sigma2's |s*s - 4p| in real parts, rounded as CPython's complex arithmetic is
    residual = np.hypot((sr * sr - si * si) - 4.0 * pr, (sr * si + si * sr) - 4.0 * pi)
    table = np.stack([sr, si, pr, pi, residual], axis=1)
    if not np.isfinite(table).all():
        raise ArithmeticError("an orbit image is not finite")
    if args.format == "csv":
        sys.stdout.write(CSV_HEADER + "\n" + (CSV_ROW + "\n") * len(table)
                         % tuple(table.ravel().tolist()))
    else:  # adding 0.0 flushes negative zeros, as complex_to_json does
        sys.stdout.write((JSON_ROW + "\n") * len(table) % tuple((table + 0.0).ravel().tolist()))
    return 0


def _rotation_from_json(obj) -> complex:
    """A JSON complex that passes make_moebius's |tau| = 1 check, returned as parsed."""
    tau = complex_from_json(obj)
    make_moebius(tau, 0j)
    return tau


def _cmd_commutator(args) -> int:
    from .candidates import commutator_experiment

    F = _parse(args.candidate, candidate_from_json)
    tau = _parse(args.tau, _rotation_from_json)
    report = commutator_experiment(F, tau, args.n_max)
    print(dumps(report_to_json(report)))
    return 0 if report.n_star is None else 4


def _count_from(low: int):
    """argparse type for an integer count of at least `low`."""
    def parse(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"{n} is below {low}")
        return n
    return parse


def _tolerance(text: str) -> float:
    """argparse type for a finite tolerance of at least 0."""
    tol = float(text)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise argparse.ArgumentTypeError(f"{text} is not a finite tolerance >= 0")
    return tol


def _build_parser() -> _Parser:
    parser = _Parser(prog="symbidisc", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    p = add("membership", _cmd_membership, "classify a point against the domain")
    p.add_argument("point", help="point JSON (or '-' for stdin)")
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)

    p = add("apply", _cmd_apply, "apply a group element to a point, with cross-route check")
    p.add_argument("automorphism", help="group element JSON (or '-' for stdin)")
    p.add_argument("point", help="point JSON")

    p = add("transport", _cmd_transport, "group element sending a royal point to the origin")
    p.add_argument("point", help="point JSON (or '-' for stdin)")
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)

    p = add("orbit", _cmd_orbit, "images of a point under seeded random group elements")
    p.add_argument("point", help="point JSON (or '-' for stdin)")
    p.add_argument("--seed", type=_count_from(0), default=42)
    p.add_argument("--samples", type=_count_from(0), default=1000)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = add("commutator", _cmd_commutator, "rotation-commutator growth experiment")
    p.add_argument("candidate", help="candidate map JSON (or '-' for stdin)")
    p.add_argument("--tau", required=True, help="unit-modulus rotation, JSON complex")
    p.add_argument("--n-max", type=_count_from(1), default=64)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # the package's errors derive from the first two; MemoryError is an orbit too large
    except (ArithmeticError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
