"""Command-line front end with deterministic, machine-readable output.

Subcommands: membership, apply, transport, orbit, commutator. JSON results are one
line per object on stdout; CSV output has a fixed header row and 17-significant-digit
floats. stderr carries diagnostics only.

Exit codes:
  membership   0 interior, 1 boundary, 2 exterior
  transport    3 when the point is not on the royal variety
  commutator   0 when no bound violation exists, 4 when one is found
  64           malformed or out-of-domain input, NaN and Infinity included; stderr
               carries argparse's usage line and the reason
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
# orbit formats and writes this many rows at a time, so that its whole text is never
# held in memory at once
ORBIT_CHUNK = 4096


def _json(decode):
    """argparse type for a JSON argument ('-' reads stdin) that `decode` turns into a value."""
    def parse(text: str):
        if text == "-":
            text = sys.stdin.read()
        try:
            return decode(json.loads(text))
        except (ValueError, RecursionError) as exc:  # bad JSON or value; too deep a nesting
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return parse


def _cmd_membership(args) -> int:
    verdict = in_g2(args.point, args.tol)
    _, residual = in_sigma2(args.point, args.tol)
    if not (math.isfinite(verdict.margin) and math.isfinite(residual)):
        raise ArithmeticError(f"the roots of {args.point} or its sigma2 residual overflow: "
                              f"margin {verdict.margin}, sigma2_residual {residual}")
    out = verdict_to_json(verdict)
    out["sigma2_residual"] = residual
    print(dumps(out))
    return {"interior": 0, "boundary": 1, "exterior": 2}[verdict.region]


def _cmd_apply(args) -> int:
    image = apply_g2(args.automorphism, args.point)
    via_roots = apply_g2_via_roots(args.automorphism, args.point)
    out = sympoint_to_json(image)
    out["check"] = max(abs(image.s - via_roots.s), abs(image.p - via_roots.p))
    print(dumps(out))
    return 0


def _cmd_transport(args) -> int:
    try:
        H = transport_to_origin(args.point, args.tol)
    except NotOnRoyalVariety as exc:
        print(f"not on the royal variety: {exc}", file=sys.stderr)
        return 3
    print(dumps(g2_to_json(H)))
    return 0


def _cmd_orbit(args) -> int:
    import numpy as np

    from .sampling import _orbit_arrays

    S, P = _orbit_arrays(args.point, args.samples, args.seed)
    sr, si, pr, pi = S.real, S.imag, P.real, P.imag
    # in_sigma2's |s*s - 4p| in real parts, rounded as CPython's complex arithmetic is
    residual = np.hypot((sr * sr - si * si) - 4.0 * pr, (sr * si + si * sr) - 4.0 * pi)
    table = np.stack([sr, si, pr, pi, residual], axis=1)
    if not np.isfinite(table).all():
        raise ArithmeticError("an orbit image is not finite")
    if args.format == "csv":
        sys.stdout.write(CSV_HEADER + "\n")
        row = CSV_ROW + "\n"
    else:
        table += 0.0  # flushes negative zeros, as complex_to_json does
        row = JSON_ROW + "\n"
    for chunk in np.split(table, range(ORBIT_CHUNK, len(table), ORBIT_CHUNK)):
        sys.stdout.write(row * len(chunk) % tuple(chunk.ravel().tolist()))
    return 0


def _rotation_from_json(obj) -> complex:
    """A JSON complex that passes make_moebius's |tau| = 1 check, returned as parsed."""
    tau = complex_from_json(obj)
    make_moebius(tau, 0j)
    return tau


def _cmd_commutator(args) -> int:
    from .candidates import commutator_experiment

    report = commutator_experiment(args.candidate, args.tau, args.n_max)
    print(dumps(report_to_json(report)))
    return 0 if report.n_star is None else 4


def _at_least(convert, low: int, noun: str):
    """argparse type for a finite number that `convert` reads, of at least `low`."""
    def parse(text: str):
        reason = f"is not {noun} >= {low}"
        try:
            value = convert(text)
            if low <= value < math.inf:  # false for NaN and +-inf
                return value
        except ValueError:  # not such a number; int() reads at most 4,300 digits
            if text.strip().removeprefix("+").isdecimal():
                reason = "has too many digits"
        if len(text) > 40:  # echo a bounded prefix of an over-long argument
            text = f"{text[:40]}... ({len(text):,} characters)"
        raise argparse.ArgumentTypeError(f"{text} {reason}")
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="symbidisc", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    point = _json(sympoint_from_json)
    tolerance = _at_least(float, 0, "a finite tolerance")
    count = _at_least(int, 0, "an integer")

    p = add("membership", _cmd_membership, "classify a point against the domain")
    p.add_argument("point", type=point, help="point JSON (or '-' for stdin)")
    p.add_argument("--tol", type=tolerance, default=DEFAULT_TOL)

    p = add("apply", _cmd_apply, "apply a group element to a point, with cross-route check")
    p.add_argument("automorphism", type=_json(g2_from_json),
                   help="group element JSON (or '-' for stdin)")
    p.add_argument("point", type=point, help="point JSON (or '-' for stdin)")

    p = add("transport", _cmd_transport, "group element sending a royal point to the origin")
    p.add_argument("point", type=point, help="point JSON (or '-' for stdin)")
    p.add_argument("--tol", type=tolerance, default=DEFAULT_TOL)

    p = add("orbit", _cmd_orbit, "images of a point under seeded random group elements")
    p.add_argument("point", type=point, help="point JSON (or '-' for stdin)")
    p.add_argument("--seed", type=count, default=42)
    p.add_argument("--samples", type=count, default=1000)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = add("commutator", _cmd_commutator, "rotation-commutator growth experiment")
    p.add_argument("candidate", type=_json(candidate_from_json),
                   help="candidate map JSON (or '-' for stdin)")
    p.add_argument("--tau", type=_json(_rotation_from_json), required=True,
                   help="unit-modulus rotation, JSON complex")
    p.add_argument("--n-max", type=_at_least(int, 1, "an integer"), default=64)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse exits 2 on malformed input, 0 after --help
        return EXIT_USAGE if exc.code else 0
    # the package's errors derive from the first two; MemoryError is an orbit too large
    except (ArithmeticError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED
