"""Exact diversity-multiplexing tradeoff curves of multihop relay channels.

Walks through the analytic toolbox: the amplify-and-forward (AF) curve,
the cut-set upper bound, symmetric chains, serial
(decode-and-forward) partitions, and the flip-and-forward lower bound.
"""

from fractions import Fraction

from relaydmt import (
    DecodeSet,
    cutset_bound,
    dmt_ff_lower_bound,
    dmt_parallel_af,
    dmt_rp,
    dmt_serial_partition,
    where_to_decode,
)


def show(label, curve):
    pts = ", ".join(f"({x}, {y})" for x, y in curve.vertices)
    print(f"  {label:<28} {pts}")


print("Two-hop symmetric channel (2,2,2)")
show("AF tradeoff", dmt_rp((2, 2, 2)))
show("cut-set bound", cutset_bound((2, 2, 2)))
print("  -> AF reaches diversity 3 but the bound allows 4: the two hops")
print("     can be individually fine yet mismatched end to end.\n")

print("Asymmetric two-hop channel (2,4,3)")
show("AF tradeoff", dmt_rp((2, 4, 3)))
show("cut-set bound", cutset_bound((2, 4, 3)))
print()

print("Symmetric channels: adding hops stops hurting after n of them")
for hops in (1, 2, 3, 5, 8):
    d0 = dmt_rp((5,) * (hops + 1)).d_max
    print(f"  5-antenna chain, {hops} hops: maximum diversity {d0}")
print()

print("Serial partitions of (3,1,4,2): where to decode?")
for decode in [(3,), (1, 3), (2, 3), (1, 2, 3)]:
    curve = dmt_serial_partition((3, 1, 4, 2), DecodeSet(decode))
    print(f"  decode at layers {decode}: diversity {curve.d_max}")
best = where_to_decode((3, 1, 4, 2), 3)
print(f"  smallest decode set reaching diversity 3: {best.indices}")
print("  -> one decoding cluster is enough, and it must be the 4-antenna one.\n")

print("Flip-and-forward closes the gap on (2,2,2)")
ff = dmt_ff_lower_bound((2, 2, 2), k_modes=2)
show("FF achievable curve", ff)
print(f"  d(0) = {ff.evaluate(0)} (cut-set maximum), d(1/2) = {ff.evaluate(Fraction(1, 2))},")
print("  and beyond r = 1/2 it rides the AF curve to full multiplexing.\n")

print("Parallel AF over two (2,2,3) paths inside (2,4,3)")
par = dmt_parallel_af((2, 4, 3), [(2, 2, 3), (2, 2, 3)])
show("parallel AF", par)
print("  -> per-path diversities add: 4 + 4 = 8, the cut-set maximum.")
