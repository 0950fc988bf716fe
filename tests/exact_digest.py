"""Digests of the package's exact outputs over every dimension up to (5,4).

Criterion 11 of ``tests/test_acceptance.py`` asserts the digests; run as a
script, this prints them::

    PYTHONPATH=src python tests/exact_digest.py

For each dimension with 2 to 5 layers of 1 to 5 antennas (3900 in all)
it computes the analytic results below, writes each as its ``repr`` (or
JSON) on one line, and prints one SHA-256 digest per family with its
line count:

- ``dmt_rp`` and ``cutset_bound``;
- ``where_to_decode`` for every ``d`` from 1 to the cut-set ``d_max``;
- ``dmt_serial_partition`` over every decode set;
- ``dmt_ff_lower_bound`` for 1, 2, 3 and 5 modes;
- ``max_partition`` as JSON, and the two-hop minimum partition as JSON;
- ``analyze``;
- the ``mode_map`` and every ``mode_flips`` of ``ff_schedule(max_partition(dim))``.

Equal digests mean every line is the same.  It takes about 4–5 s (Python
3.11, 2 shared x86 cores).
"""

from __future__ import annotations

import hashlib
import itertools
import warnings
from collections.abc import Callable, Iterable

from relaydmt.dmt_core import (
    DecodeSet,
    cutset_bound,
    dmt_ff_lower_bound,
    dmt_rp,
    dmt_serial_partition,
    where_to_decode,
)
from relaydmt.partition import (
    ff_schedule,
    max_partition,
    min_full_div_partition_2hop,
    partition_to_json,
)
from relaydmt.reduction import analyze

DIMS = [d for hops in range(1, 5) for d in itertools.product(range(1, 6), repeat=hops + 1)]


def _decode_sets(dim: tuple[int, ...]) -> Iterable[DecodeSet]:
    hops = len(dim) - 1
    for r in range(hops):
        for inner in itertools.combinations(range(1, hops), r):
            yield DecodeSet(inner + (hops,))


def _where_to_decode(dim: tuple[int, ...]) -> Iterable[object]:
    d_max = min(a * b for a, b in zip(dim, dim[1:]))
    return (where_to_decode(dim, d) for d in range(1, d_max + 1))


def _schedule(dim: tuple[int, ...]) -> Iterable[object]:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # ff_schedule warns on a partition short of full diversity
        sched = ff_schedule(dim, max_partition(dim))
    yield sched.mode_map
    yield from (sched.mode_flips(m) for m in range(1, sched.mode_count + 1))


FAMILIES: dict[str, Callable[[tuple[int, ...]], Iterable[object]]] = {
    "dmt_rp": lambda dim: [dmt_rp(dim)],
    "cutset_bound": lambda dim: [cutset_bound(dim)],
    "where_to_decode": _where_to_decode,
    "dmt_serial_partition": lambda dim: (dmt_serial_partition(dim, s) for s in _decode_sets(dim)),
    "dmt_ff_lower_bound": lambda dim: (dmt_ff_lower_bound(dim, k) for k in (1, 2, 3, 5)),
    "max_partition": lambda dim: [partition_to_json(dim, max_partition(dim))],
    "min_full_div_partition_2hop": lambda dim: (
        [partition_to_json(dim, min_full_div_partition_2hop(*dim)[1])] if len(dim) == 3 else []
    ),
    "analyze": lambda dim: [analyze(dim)],
    "ff_schedule": _schedule,
}


def digest(family: Callable[[tuple[int, ...]], Iterable[object]]) -> tuple[int, str]:
    """Line count and SHA-256 of ``dim: value`` lines over every dimension."""
    h, lines = hashlib.sha256(), 0
    for dim in DIMS:
        for value in family(dim):
            text = value if isinstance(value, str) else repr(value)
            h.update(f"{dim}: {text}\n".encode())
            lines += 1
    return lines, h.hexdigest()


if __name__ == "__main__":
    for name, family in FAMILIES.items():
        lines, hexdigest = digest(family)
        print(f"{name}: {lines} lines, sha256 {hexdigest}")
