"""
Write ``reference.json``: one pass of every workload part per seed, as run now.

    python3 relaybench/make_reference.py

Run it on a commit whose outputs are trusted; later runs compare their
outputs against the file (see ``README.md`` for the tolerances).
"""

from __future__ import annotations

import json
import sys

import run

REFERENCE_SEEDS = 20  # seeds 0 .. 19 are stored


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import workloads

    reference = {}
    for w_class in workloads.PARTS:
        name = w_class.name
        # The analytic outputs do not depend on the seed: one pass serves all.
        seeds = [0] if name == "exact-analytic" else range(REFERENCE_SEEDS)
        for seed in seeds:
            w = w_class(seed, run.ROOT / ".relaybench_tmp" / "reference")
            try:
                w.prepare()
                first = w.run_round()
            finally:
                w.close()
            if first.errors:
                raise SystemExit(f"{name} seed {seed} failed: {first.errors}")
            key, value = w.reference_entry(first)
            reference.setdefault(name, {})[key] = value
            print(f"{name} seed {seed}: {len(first.outputs)} outputs", file=sys.stderr)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
