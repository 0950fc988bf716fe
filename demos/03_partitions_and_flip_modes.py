"""Parallel partitions and flip-mode schedules.

Max-diversity relaying in a distributed network comes from routing the
signal over edge-disjoint AF paths; flip-and-forward then converts the
partition into sign patterns that keep the full channel width.
"""

from relaydmt import (
    DecodeSet,
    cutset_bound,
    dmt_rp,
    dmt_serial_partition,
    ff_schedule,
    is_full_diversity,
    is_independent,
    max_partition,
    min_full_div_partition_2hop,
)
from relaydmt.dmt_core import as_dimension
from relaydmt.partition import partition_to_json

dim = (2, 4, 3)
print(f"channel {dim}: cut-set diversity {cutset_bound(dim).d_max}")

p_max = max_partition(dim)
print(f"maximum partition: {p_max.size} single-antenna paths, "
      f"independent = {is_independent(dim, p_max)}")

k, p_min = min_full_div_partition_2hop(*dim)
print(f"minimum full-diversity partition: {k} paths of widths {p_min.path_dims()}")
print(f"  full diversity: {is_full_diversity(dim, p_min)} "
      f"(per-path diversities {[int(dmt_rp(w).d_max) for w in p_min.path_dims()]})")
print()

print("flip schedule derived from the partition:")
sched = ff_schedule(as_dimension(dim), p_min)
print(f"  relay-layer supernode counts {sched.layer_counts}, {sched.mode_count} modes")
for mode in range(1, sched.mode_count + 1):
    print(f"  mode {mode}: relay signs {sched.mode_flips(mode)}")
print()

print("the (2,2,2) schedule reproduces the textbook sign pair:")
sched2 = ff_schedule(as_dimension((2, 2, 2)), min_full_div_partition_2hop(2, 2, 2)[1])
for mode in range(1, 3):
    print(f"  mode {mode}: {sched2.mode_flips(mode)}")
print()

print("non-independent single-antenna selection at one relay layer of (3,2,2,2,3):")
# Cycling through the antennas of relay layer 2 has the diversity of decoding
# there: the smaller AF diversity of (3,2,2) and (2,2,3), the pivot in both.
d = dmt_serial_partition((3, 2, 2, 2, 3), DecodeSet((2, 4))).d_max
print(f"  diversity {d} == cut-set maximum {cutset_bound((3, 2, 2, 2, 3)).d_max}, "
      "with only 2 modes instead of 8 paths")
print()

print("partitions serialize to JSON for the simulator:")
print(partition_to_json(dim, p_min))
