#!/usr/bin/env python3
"""A guided tour of the invariant on one twist family.

Computes the four-point value of the radial twist by all three methods,
walks the tuple through the 24 permutations to show the sign pattern, and
finishes with a blow-up estimate converging to an irrational limit.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rotquad import (  # noqa: E402
    INFINITY,
    MarkedTuple,
    RfEvaluator,
    connecting_path,
    rf_blowup,
    rf_lift,
    rf_loop,
    rf_trace,
    synthesize_twist_trace,
)
from rotquad.algebra import all_permutations, act_on_tuple
from rotquad.catalog import golden_twist_spec, sqrt2_blowup_spec


def main() -> int:
    spec = golden_twist_spec(2)
    t = MarkedTuple(0j, INFINITY, 0.5 + 0j, 3 + 0j)
    beta = connecting_path(0.5 + 0j, 3 + 0j, avoid=(0j,))

    print("twist by 2 between the circles |z|=1 and |z|=2")
    print(f"  rf_loop  = {rf_loop(spec, t, beta)}")
    print(f"  rf_lift  = {rf_lift(spec, t, beta)}")
    trace = synthesize_twist_trace(spec, t)
    print(f"  rf_trace = {rf_trace(trace)}")

    print("\nvalues over the 24 orderings of the same four points:")
    ev = RfEvaluator(spec)
    base = (0j, INFINITY, 0.5 + 0j, 3 + 0j)
    seen = {}
    for sigma in all_permutations():
        x = act_on_tuple(base, sigma)
        seen.setdefault(ev.value(*x), []).append(sigma.cycle_notation())
    for value in sorted(seen):
        print(f"  {value:+d}  from {len(seen[value])} orderings")

    print("\nblow-up at the origin of a twist with rho(0) = sqrt(2) - 1:")
    for n in (100, 1000, 10_000):
        est = rf_blowup(sqrt2_blowup_spec(), 0j, INFINITY, 3 + 0j, n_iters=n)
        print(f"  n = {n:>6d}  value = {est.value:+.9f}  bound = {est.error_bound:.1e}")
    exact = -(2.0 ** 0.5 - 1.0)
    print(f"  limit       value = {exact:+.9f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
