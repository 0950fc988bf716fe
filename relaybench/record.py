"""
Run every workload over several seeds and write one trajectory entry.

    python3 relaybench/record.py --label seed

Each workload runs on seeds 0 .. RUNS-1, each a separate ``run.py``
process.  For each
end-to-end metric the entry keeps the values, their median and
quartiles, and the spread ``(q3 - q1) / median``; one traced run per
workload adds the per-layer metrics.  The entry is written to
``trajectory/BENCH_<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import run

RUNS = 10


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT, timeout=600)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    env["process_s"] = elapsed  # the whole process, set-up probes and checks included
    return json.loads(lines[-1]), env


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
    }


def main(argv=None) -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    entry = {"label": args.label, "run_seconds": args.seconds,
             "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results, seeds, process_s = [], range(RUNS), []
        for seed in seeds:
            result, env = one_run(workload, seed, args.seconds, 0)
            process_s.append(env.pop("process_s"))
            entry.setdefault("environment", env)
            results.append(result)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()
            ) + f" correct={result['correct']}", file=sys.stderr)
        doc = {
            "seeds": list(seeds),
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {
                m["name"]: dict(unit=m["unit"], bound=m["bound"], **summarize(
                    [r["metrics"][m["name"]]["value"] for r in results]
                ))
                for m in spec["end_to_end"]
            },
        }
        traced, traced_env = one_run(workload, 0, args.seconds, 1)
        doc["process_s"] = {"untraced": process_s, "traced": traced_env["process_s"]}
        doc["per_layer"] = {k: m["value"] for k, m in traced["metrics"].items()}
        doc["traced_correct"] = traced["correct"]
        entry["workloads"][workload] = doc
        for name, s in doc["end_to_end"].items():
            flag = "" if s["spread"] < s["bound"] / 3 else "  (above bound/3)"
            print(f"{workload:15s} {name:13s} median {s['median']:.5g} "
                  f"spread {s['spread']:.3f}{flag}", file=sys.stderr)
    out = run.HERE / "trajectory" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(entry, indent=1) + "\n")
    print(out, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
