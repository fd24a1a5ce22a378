"""
Which (r, a) pairs are practical at deployment scale?
=====================================================

Every known generalized quadrangle parameter pair is a candidate code
family; most die on sheer length.  The catalog walks all of them (and
their duals), applies a block-length budget and a rate floor, and keeps
the survivors.  This script shows the shortlist, how it shrinks with a
tighter budget, and how the verdict depends on the rate estimator.
"""

from fractions import Fraction

from pgblrc import build_code, catalog, rate, surviving_keys, symplectic_gq

entries = catalog(max_n=100, min_rate=Fraction(1, 3))
print("survivors with n <= 100 and rate > 1/3:")
for entry in entries:
    if not entry.passes_filter:
        continue
    if entry.family_r_range:
        lo, hi = entry.family_r_range
        print(f"  (r, 2), r = {lo}..{hi}: grid codes, rate up from "
              f"{entry.rate_estimate}")
    else:
        tag = " (dual)" if entry.via_dual else ""
        print(f"  ({entry.r}, {entry.a}): n = {entry.n}, "
              f"rate {entry.rate_estimate}{tag}")

dropped = [e for e in entries if not e.passes_filter]
print(f"\n{len(dropped)} candidates rejected; the nearest misses:")
for entry in dropped[:3]:
    print(f"  ({entry.r}, {entry.a}): {entry.exclusion}")

print("\nwith a tighter budget of n <= 40:")
print(f"  {sorted(surviving_keys(catalog(max_n=40)), key=str)}")

# the default estimator is the optimistic upper value; measuring the
# real rank instead evicts the (2, 3) quadrangle, whose actual rate
# lands exactly on the 1/3 floor
w2 = build_code(symplectic_gq(2))
print(f"\nmeasured rate of the (2, 3) candidate: {rate(w2)}")
for estimator in ("theorem-upper-bound", "exact-rank"):
    keys = surviving_keys(catalog(estimator=estimator))
    print(f"  {estimator}: (2, 3) {'kept' if (2, 3) in keys else 'dropped'}")
