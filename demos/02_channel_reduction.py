"""Channel reduction: how many relay antennas actually matter.

Every multihop channel is tradeoff-equivalent to a unique minimal form,
and extra antennas beyond a computable per-layer count contribute
nothing but amplified noise.  One ``analyze`` call reports it all.
"""

from relaydmt import analyze, dmt_rp

for counts in [(1, 4, 1), (3, 1, 4, 2), (2, 2, 2), (4, 6, 6, 4)]:
    rep = analyze(counts)
    print(f"channel {counts}")
    print(f"  order {rep.order}, minimal form {rep.minimal_form.counts}")
    print(f"  per-layer antennas needed: {rep.n_bar}")
    print(f"  minimal vertical form     {rep.minimal_vertical_form.counts}")
    print(f"  practical reduction       {rep.practical_vertical_form.counts}")
    assert dmt_rp(rep.practical_vertical_form) == dmt_rp(counts)
    print()

print("(1,4,1) keeps diversity 1 with a single relay antenna; the other")
print("three only forward noise, which is why trimming them buys power gain.")
print()

print("Equivalence is decided by minimal forms:")
pairs = [((3, 1, 4, 2), (3, 1, 2, 2)), ((2, 2, 2), (2, 2)), ((1, 7, 2), (2, 9, 1))]
for a, b in pairs:
    same = analyze(a).minimal_form == analyze(b).minimal_form
    print(f"  {a} vs {b}: {'equivalent' if same else 'different'}")
