#!/usr/bin/env python3
"""Drive seeded group elements through the forcing pipeline.

Every genuine group element should come out certified as the identity after the
royal transport and rotation division, with extracted form (alpha, d, C) = (1, 1, 0).
An injected candidate with a stray s**2 coefficient survives extraction but fails
the royal fixed-point check, showing the rejection path.
"""

import argparse

from symbidisc import lift, make_candidate, normalize_and_extract
from symbidisc.sampling import random_moebius, rng_from_seed


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--count", type=int, default=25)
    ap.add_argument("--inject-c", type=float, default=0.1,
                    help="s**2 coefficient of the injected counterexample candidate")
    args = ap.parse_args()

    rng = rng_from_seed(args.seed)
    print(f"{'|a|':>8}  {'|alpha-1|':>10}  {'|d-1|':>10}  {'|C|':>10}  "
          f"{'royal':>10}  {'grid':>10}  certified")
    worst = 0.0
    for _ in range(args.count):
        h = random_moebius(rng)
        rep = normalize_and_extract(lift(h))
        worst = max(worst, rep.identity_deviation, rep.royal_residual, rep.grid_residual)
        print(f"{abs(h.a):8.4f}  {abs(rep.alpha - 1):10.2e}  {abs(rep.d - 1):10.2e}  "
              f"{abs(rep.c):10.2e}  {rep.royal_residual:10.2e}  {rep.grid_residual:10.2e}  "
              f"{rep.identity_certified}")
    print(f"\nworst deviation over {args.count} group elements: {worst:.3e}")

    injected = make_candidate({(1, 0): (1, 0), (0, 1): (0, 1), (2, 0): (0, args.inject_c)})
    rep = normalize_and_extract(injected)
    print(f"\ninjected candidate with C = {args.inject_c}:")
    print(f"  extracted C = {rep.c:.6g}, royal residual = {rep.royal_residual:.3e}, "
          f"certified = {rep.identity_certified}")


if __name__ == "__main__":
    main()
