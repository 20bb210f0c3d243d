"""Query the packaged tables for the exceptional groups.

Each stratum of an exceptional group is named d_n: the degree and
n-invariant of its 2-special representation.  Rows starred *_r only
contain unipotent classes in characteristic r.  The class-to-stratum
map, its fibers, and the cross-sections all come from one audited
data file.
"""

from weylstrata import load_atlas

atlas = load_atlas()
print(f"data checksum: {atlas.checksum()[:16]}...\n")

print("The full G2 table:")
for row in atlas.rows("G2"):
    classes = ", ".join(c.raw for c in row.classes)
    print(f"  {atlas.format_rep(row.rep):>7}  dim {row.class_dim:>2}  "
          f"classes: {classes}")

print()
row = atlas.row("E8", atlas.rep_of_class("E8", "D_7(a_1)"))
print(f"E8 class D_7(a_1) lies in stratum {atlas.format_rep(row.rep)} "
      f"(class_dim {row.class_dim})")
print(f"  note: {row.note}")

print()
print("How many E8 strata contain unipotent classes, by characteristic:")
for char in (0, 2, 3, 5):
    count = len(atlas.strata_for_characteristic("E8", char))
    print(f"  char {char}: {count} of {len(atlas.rows('E8'))}")

print()
row = atlas.row("E7", atlas.rep_of_class("E7", "7A_1"))
print(f"The fiber over E7 stratum {atlas.format_rep(row.rep)} has {len(row.classes)} classes:")
print("  " + ", ".join(c.raw for c in row.classes))
print(f"  cross-section: {atlas.cross_section('E7', row.rep).raw}")
