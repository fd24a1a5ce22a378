"""
What rate can a code with repair degree r and alternativity a reach?
====================================================================
"""

# For each (r, a) pair the theory gives a guaranteed rate floor and, when
# r + a - 1 is even, an upper value: the rate at incidence rank vartheta,
# so a ceiling only for codes of rank >= vartheta.  W(8), W(16),
# hyperoval(8) and hyperoval(16) fall below that rank: W(8)'s rate 287/585
# is above the upper value 29/65 at (r, a) = (8, 9).  The floor rests on
# the proven rank ceiling vartheta + 1, so it stays a floor.  This script
# prints the full table as CSV (the same output as `pgblrc bounds`) and
# then a compact matrix of the floors to show the shape: the floor rises
# with r and falls as more repair alternatives are demanded.

from fractions import Fraction

from pgblrc import bounds_table, bounds_table_csv, rate_lower

rows = bounds_table(range(2, 11), range(2, 11))
print(bounds_table_csv(rows))

print("rate floors (as fractions, r down, a across)")
header = "r\\a " + "".join(f"{a:>8}" for a in range(2, 8))
print(header)
for r in range(2, 8):
    cells = "".join(f"{str(rate_lower(r, a)):>8}" for a in range(2, 8))
    print(f"{r:>3} {cells}")

print()
best = max(rows, key=lambda row: row.lower)
print(f"largest floor in the table: rate {best.lower} "
      f"= {float(best.lower):.4f} at (r, a) = ({best.r}, {best.a})")
worst_gap = max(
    (row for row in rows if row.applicable),
    key=lambda row: row.upper - row.lower,
)
print(f"widest bracket: [{worst_gap.lower}, {worst_gap.upper}] at "
      f"(r, a) = ({worst_gap.r}, {worst_gap.a}), width "
      f"{Fraction(worst_gap.upper - worst_gap.lower)}")
