"""
relaydmt benchmark: one named workload, one seed, one result line.

    python3 relaybench/run.py --workload monte-carlo --seed 0 --seconds 55 --trace 0

Runs from the root of a source checkout and imports ``relaydmt`` from
its ``src/`` directory.  After one untimed warm-up pass, passes over the
workload repeat until ``--seconds`` have elapsed; each pass is split
into fixed chunks, and one pass's time is the sum over chunks of each
chunk's trimmed mean time.  Every operation's output is checked (see
``README.md``).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
WORKLOAD_NAMES = ("monte-carlo", "exact-analytic")
SETUP_REPEATS = 9
TRIM = 0.1  # share of a chunk's samples dropped at each end before averaging
PROBE_TIMEOUT_S = 60
COUNT_TOLERANCE = 1  # a count may move by this much from the reference and still pass
FLOAT_RTOL = 1e-9

# (span, unit, self time?) reported by the traced run.  Units are ms for
# per-block stages and us for the per-dimension analytic calls.
SPANS = (
    ("channel_sim.sample_block", "ms", False),
    ("channel_sim.af_effective", "ms", False),
    ("channel_sim.ff_effective", "ms", False),
    ("channel_sim.pf_effective", "ms", False),
    ("channel_sim.df_outage", "ms", True),
    ("channel_sim.mutual_info", "ms", False),
    ("channel_sim.estimate_outage", "ms", True),
    ("stbc.simulate_ser", "ms", True),
    ("stbc.codebook", "ms", False),
    ("stbc.verify_nvd", "ms", False),
    ("dmt_core.dmt_rp", "us", False),
    ("dmt_core.cutset_bound", "us", False),
    ("dmt_core.where_to_decode", "us", False),
    ("recursion.dmt_recursive", "us", False),
    ("partition.max_partition", "us", False),
    ("reduction.analyze", "us", False),
    ("cli.main", "ms", True),
)
_NS_PER = {"ms": 1e6, "us": 1e3}


def span_metric_names(span: str, unit: str, self_time: bool) -> dict:
    """Metric name -> unit for one span: median, tail, sample count, calls per pass."""
    key = f"{span}.{'self_' if self_time else ''}{unit}"
    return {key: unit, key + "_tail": unit, span + ".samples": "count", span + ".calls": "count"}


def per_layer_units() -> dict:
    units = {}
    for span, unit, self_time in SPANS:
        units.update(span_metric_names(span, unit, self_time))
    units["channel_sim.pool_starts"] = "count"
    units["stbc.verify_nvd.tuples_per_s"] = "1/s"
    units["trace_overhead_s"] = "s"
    return units


END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "trials_per_s": "1/s", "peak_rss_mb": "MB"}


# --------------------------------------------------------------------------
# Environment
# --------------------------------------------------------------------------


def environment() -> dict:
    import numpy
    import relaydmt

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        cmd = ["git", "-C", str(ROOT), "rev-parse", "HEAD"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "relaydmt").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in threads},
        "relaydmt": relaydmt.__version__,
        "git_commit": commit,
        "src_sha256": src_digest.hexdigest(),
    }


# --------------------------------------------------------------------------
# Set-up time
# --------------------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> int:
    """Child side: import, build the workload, then say so."""
    import workloads

    w = workloads.WORKLOADS[workload](seed)
    w.prepare()
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    return 0


class SetupProbes:
    """Set-up times of fresh interpreters, spread evenly over the run.

    The host's speed drifts over tens of seconds, so probes taken at
    ``SETUP_REPEATS`` evenly spaced moments give a median that does not
    hang on the moment the run started.  Probes run between timed
    chunks and are not part of any chunk's time.
    """

    def __init__(self, workload: str, seed: int, seconds: float):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(seed), "--setup-probe"]
        self.seconds = seconds
        self.times = []

    def probe(self) -> None:
        """Seconds from starting a fresh interpreter until the workload is ready."""
        start = time.perf_counter()
        with subprocess.Popen(self.cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        self.times.append(elapsed)

    def __call__(self, elapsed: float) -> None:
        """At a chunk boundary, ``elapsed`` seconds into the run: take a probe if one is due."""
        due = len(self.times) * self.seconds / SETUP_REPEATS
        if len(self.times) < SETUP_REPEATS and elapsed >= due:
            self.probe()

    def finish(self) -> list[float]:
        while len(self.times) < SETUP_REPEATS:
            self.probe()
        return self.times


# --------------------------------------------------------------------------
# Correctness
# --------------------------------------------------------------------------


def compare(want, got) -> str:
    """``same``, ``moved`` (a count within tolerance) or ``failed``."""
    if isinstance(want, bool) or isinstance(want, str):
        return "same" if got == want else "failed"
    if isinstance(want, int):
        delta = abs(got - want)
        return "same" if delta == 0 else "moved" if delta <= COUNT_TOLERANCE else "failed"
    return "same" if math.isclose(got, want, rel_tol=FLOAT_RTOL) else "failed"


class Ledger:
    """Attempted and failed operations, with one message per failed or moved op."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.failures = {}
        self.moved = {}

    def _fail(self, op: str, message: str) -> None:
        self.failed += 1
        self.failures.setdefault(op, message)

    def check_round(self, rnd) -> None:
        for op in sorted(set(rnd.outputs) | set(rnd.errors)):
            self.attempted += 1
            if op in rnd.errors:
                self._fail(op, rnd.errors[op])
                continue
            got = rnd.outputs[op]
            first = self.first.setdefault(op, got)
            status = "same"
            if got != first:
                status, message = "failed", f"output {got!r} differs from the warm-up pass {first!r}"
            elif op in self.expected:
                status = compare(self.expected[op], got)
                message = f"reference {self.expected[op]!r}, got {got!r}"
            if status == "moved":
                self.moved.setdefault(op, message)
            elif status == "failed":
                self._fail(op, message)

    def check_final(self, results: dict) -> None:
        for op, (ok, message) in sorted(results.items()):
            self.attempted += 1
            if not ok:
                self._fail(op, message)


# --------------------------------------------------------------------------
# Timed passes
# --------------------------------------------------------------------------


def install_spans(tracer):
    from relaydmt import channel_sim, cli, dmt_core, partition, recursion, reduction, stbc

    p = spans.Patches(tracer)
    for name in ("sample_block", "af_effective", "ff_effective", "pf_effective", "df_outage",
                 "mutual_info", "estimate_outage"):
        p.wrap(channel_sim, name, "channel_sim." + name)
    # stbc binds the effective-channel builders by name at import.
    p.wrap(stbc, "af_effective", "channel_sim.af_effective")
    p.wrap(stbc, "ff_effective", "channel_sim.ff_effective")
    p.wrap(stbc, "simulate_ser", "stbc.simulate_ser")
    p.wrap(stbc, "alamouti", "stbc.codebook")
    p.wrap(stbc, "golden", "stbc.codebook")

    def count_tuples(tr, args, kwargs):
        cb = args[0] if args else kwargs["cb"]
        points = args[1] if len(args) > 1 else kwargs["difference_points"]
        tr.count("stbc.verify_nvd.tuples", len(points) ** cb.num_symbols)

    p.wrap(stbc, "verify_nvd", "stbc.verify_nvd", on_call=count_tuples)
    for name in ("dmt_rp", "cutset_bound", "where_to_decode"):
        p.wrap(dmt_core, name, "dmt_core." + name)
    p.wrap(recursion, "dmt_recursive", "recursion.dmt_recursive")
    p.wrap(partition, "max_partition", "partition.max_partition")
    p.wrap(reduction, "analyze", "reduction.analyze")
    p.wrap(cli, "main", "cli.main")
    p.count_instances(channel_sim, "ProcessPoolExecutor", "channel_sim.pool_starts")
    p.count_instances(stbc, "ProcessPoolExecutor", "channel_sim.pool_starts")
    return p


def trimmed_mean(samples) -> float:
    """Mean of the samples after dropping ``TRIM`` of them (rounded down) at each end.

    The host's speed moves between steady levels every few tens of
    seconds; a mean follows the share of time spent at each level
    smoothly, where a median jumps from one level to the next.  The
    trim drops one-off stalls.
    """
    ordered = sorted(samples)
    k = int(len(ordered) * TRIM)
    kept = ordered[k : len(ordered) - k]
    return sum(kept) / len(kept)


@dataclass
class Timings:
    """Seconds per timed run of each chunk, plain and traced, and the warm-up's outputs."""

    plain: list
    traced: list
    trials: list  # trials in each chunk
    first: object  # a workloads.Round: the outputs of the warm-up pass
    passes: int = 0  # whole timed passes run

    def wall_s(self, traced: bool = False) -> float:
        """One pass: the sum over chunks of each chunk's trimmed mean time."""
        return sum(trimmed_mean(t) for t in (self.traced if traced else self.plain))


def run_passes(w, seconds: float, ledger: Ledger, patches=None, between=None) -> Timings:
    """Time every chunk of the workload, pass after pass, until ``seconds`` elapse.

    The first pass is an untimed warm-up (caches, first-call costs); its
    outputs are kept as the run's first outputs.  Untraced, the run
    stops at the first chunk boundary after ``seconds`` once a whole
    timed pass is done.  With patches, each chunk runs once plain and
    once traced (the order alternating by pass), each pass first
    rebuilds the workload's objects under the patches so set-up calls
    are traced, and the run stops at a pass boundary so per-pass counts
    are whole.  ``between(elapsed)`` is called before every chunk.
    """
    from workloads import Round

    chunks = w.chunks()
    t = Timings([[] for _ in chunks], [[] for _ in chunks], [0] * len(chunks), Round())
    start = time.perf_counter()
    for i, key in enumerate(chunks):
        if between is not None:
            between(time.perf_counter() - start)
        part = Round()
        w.run_chunk(key, part)
        ledger.check_round(part)
        t.first.outputs.update(part.outputs)
        t.first.errors.update(part.errors)
        t.trials[i] = part.trials
    while True:
        if patches is not None:
            with patches.installed():
                w.prepare()
        if patches is None:
            modes = (False,)
        else:
            modes = (True, False) if t.passes % 2 == 0 else (False, True)
        for i, key in enumerate(chunks):
            if between is not None:
                between(time.perf_counter() - start)
            for trace_this in modes:
                part = Round()
                with patches.installed() if trace_this else contextlib.nullcontext():
                    t0 = time.perf_counter()
                    w.run_chunk(key, part)
                    wall = time.perf_counter() - t0
                (t.traced if trace_this else t.plain)[i].append(wall)
                ledger.check_round(part)
            if patches is None and t.passes > 0 and time.perf_counter() - start >= seconds:
                return t
        t.passes += 1
        if time.perf_counter() - start >= seconds:
            return t


def per_layer_metrics(tracer, t: Timings) -> dict:
    values = {}
    for span, unit, self_time in SPANS:
        scale = _NS_PER[unit]
        samples = [ns / scale for ns in tracer.samples(span, self_time)]
        names = list(span_metric_names(span, unit, self_time))
        values[names[0]] = float(statistics.median(samples)) if samples else 0.0
        values[names[1]] = spans.tail_percentile(samples)[0]
        values[names[2]] = len(samples)
        values[names[3]] = len(samples) / t.passes
    values["channel_sim.pool_starts"] = tracer.counters.get("channel_sim.pool_starts", 0) / t.passes
    nvd_s = sum(tracer.samples("stbc.verify_nvd")) / 1e9
    tuples = tracer.counters.get("stbc.verify_nvd.tuples", 0)
    values["stbc.verify_nvd.tuples_per_s"] = tuples / nvd_s if nvd_s > 0 else 0.0
    values["trace_overhead_s"] = t.wall_s(traced=True) - t.wall_s()
    return values


def traced_span_checks(w, tracer) -> dict:
    """Every span the workload must enter recorded something: ``{op: (ok, message)}``."""
    out = {}
    for name in w.TRACED:
        seen = tracer.counters.get(name, 0) + len(tracer.samples(name))
        out["traced:" + name] = (seen > 0, f"span {name} recorded nothing")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "relaydmt" / "__init__.py").is_file():
        print(f"error: no relaydmt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    import workloads

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))

    workdir = ROOT / ".relaybench_tmp" / f"run-{os.getpid()}"
    w = workloads.WORKLOADS[args.workload](args.seed, workdir)
    ledger = Ledger(w.expected(json.loads(REFERENCE.read_text())))
    try:
        w.prepare()
        if args.trace:
            tracer = spans.Tracer()
            t = run_passes(w, args.seconds, ledger, install_spans(tracer))
            ledger.check_final(traced_span_checks(w, tracer))
            values = per_layer_metrics(tracer, t)
            units = per_layer_units()
        else:
            probes = SetupProbes(args.workload, args.seed, args.seconds)
            t = run_passes(w, args.seconds, ledger, between=probes)
            setup_times = probes.finish()
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            wall_s = t.wall_s()
            values = {
                "setup_s": statistics.median(setup_times),
                "wall_s": wall_s,
                "trials_per_s": sum(t.trials) / wall_s,
                "peak_rss_mb": peak_rss_mb,
            }
            units = END_TO_END_UNITS
        ledger.check_final(w.final_checks(t.first))
    finally:
        w.close()

    runs = sum(map(len, t.plain)) + sum(map(len, t.traced))
    print(f"workload {args.workload} seed {args.seed}: {t.passes} whole timed passes, "
          f"{len(t.plain)} chunks, {runs} chunk runs, "
          f"{ledger.attempted} ops attempted, {ledger.failed} failed, "
          f"ops_failed_frac {ledger.failed / max(ledger.attempted, 1):.6g}")
    for op, message in sorted(ledger.moved.items()):
        print(f"moved {op}: {message}")
    for op, message in sorted(ledger.failures.items()):
        print(f"FAILED {op}: {message}")
    for name, value in values.items():
        print(f"{name:44s} {value:.6g} {units[name]}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
