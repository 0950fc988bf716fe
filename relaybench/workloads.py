"""
The benchmark's two workloads and the four parts they are made of.

``monte-carlo`` runs three parts in one pass (the uncoded outage
curves, the coded error rates and the command line with a worker
pool); ``exact-analytic`` is one part.  Each part turns the seed into
plain inputs (dimensions, grids, Monte-Carlo seeds), builds the library
objects it needs in :meth:`Workload.prepare` (the set-up that
``setup_s`` covers) and splits one pass over its inputs into fixed
chunks (:meth:`Workload.chunks`), each run by
:meth:`Workload.run_chunk`.  The benchmark times every chunk on its
own, so a long pass still gives many timed samples.  A chunk records
one output per operation: an outage or error count per SNR point, or
one digest or minimum per exact check.  The library is reached through
module attributes (``channel_sim.estimate_outage``, not a name bound at
import), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from relaydmt import channel_sim, cli, dmt_core, partition, recursion, reduction, stbc

RATE_BPCU = 2.0


@dataclass
class Round:
    """Outputs of one pass: ``outputs[op]`` on success, ``errors[op]`` on failure."""

    trials: int = 0
    outputs: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)

    def fail(self, ops, exc: BaseException) -> None:
        for op in ops:
            self.errors[op] = f"{type(exc).__name__}: {exc}"


def derive_seed(seed: int, label: str) -> int:
    """Independent 32-bit Monte-Carlo seed per curve, fixed by the workload seed."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def point_op(label: str, snr_db: float) -> str:
    return f"{label}@{snr_db:g}dB"


def _db_range(start: float, step: float, count: int) -> list[float]:
    return [start + step * i for i in range(count)]


class Workload:
    name = ""
    # Spans (and the pool counter) a traced pass of this workload must record.
    TRACED: tuple = ()

    def __init__(self, seed: int, workdir: Path | None = None):
        self.seed = seed
        self.workdir = workdir  # where a workload may write files

    def prepare(self) -> None:
        """Build schemes, partitions and codebooks."""

    def chunks(self) -> list:
        """Keys of the fixed chunks one pass is split into, in run order."""
        raise NotImplementedError

    def run_chunk(self, key, rnd: Round) -> None:
        """Run one chunk, adding its outputs (or errors) and trials to ``rnd``."""
        raise NotImplementedError

    def run_round(self) -> Round:
        """One whole pass, untimed."""
        rnd = Round()
        for key in self.chunks():
            self.run_chunk(key, rnd)
        return rnd

    def final_checks(self, first: Round) -> dict:
        """Invariants checked once after timing: ``{op: (ok, message)}``."""
        return {}

    def expected(self, reference: dict) -> dict:
        """Reference outputs for this seed, ``{op: value}`` (empty if none stored)."""
        return reference.get(self.name, {}).get(str(self.seed), {})

    def reference_entry(self, first: Round) -> tuple[str, object]:
        """Key and value under which ``first`` is stored as a reference."""
        return str(self.seed), dict(sorted(first.outputs.items()))

    def close(self) -> None:
        """Remove whatever the workload wrote."""


# --------------------------------------------------------------------------
# Monte-Carlo outage curves
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Curve:
    label: str
    dim: tuple
    kind: str  # af, ff, pf or df
    grid: tuple


def build_scheme(curve: Curve):
    if curve.kind == "af":
        return channel_sim.AfScheme()
    if curve.kind == "pf":
        return channel_sim.PfScheme()
    if curve.kind == "ff":
        return channel_sim.default_ff_scheme(curve.dim)
    if curve.kind == "df":
        return channel_sim.DfScheme(dmt_core.DecodeSet((2, 3)))
    raise ValueError(curve.kind)


def replay_count(dim, kind, scheme, rate, snr_db, trials, seed) -> int:
    """Outage count rebuilt from the public per-block stages.

    Mirrors the runner: blocks keyed ``(seed, block)``, the scheme's
    effective channel(s), ``mutual_info`` against the rate (flip modes
    averaged), and only the first ``trials`` draws counted.
    """
    dim = dmt_core.as_dimension(dim)
    snr = 10.0 ** (snr_db / 10.0)
    block_size = channel_sim.BLOCK_SIZE
    count = 0
    for block in range(math.ceil(trials / block_size)):
        real = channel_sim.sample_block(dim, seed, block)
        if kind == "df":
            mask = channel_sim.df_outage(real, scheme.decode, snr, rate)
        elif kind == "ff":
            effs = channel_sim.ff_effective(real, scheme.schedule, snr)
            mi = sum(channel_sim.mutual_info(e, snr, dim[0]) for e in effs) / len(effs)
            mask = mi < rate
        else:
            build = {"af": channel_sim.af_effective, "pf": channel_sim.pf_effective}[kind]
            mask = channel_sim.mutual_info(build(real, snr), snr, dim[0]) < rate
        live = min(trials - block * block_size, block_size)
        count += int(np.count_nonzero(mask[:live]))
    return count


class OutageGrid(Workload):
    """Uncoded outage curves of the diversity and PF-gain acceptance criteria."""

    name = "outage-grid"
    TRACED = (
        "channel_sim.sample_block", "channel_sim.af_effective", "channel_sim.ff_effective",
        "channel_sim.pf_effective", "channel_sim.df_outage", "channel_sim.mutual_info",
        "channel_sim.estimate_outage",
    )
    TRIALS = 8192
    CURVES = (
        Curve("af(2,2,2)", (2, 2, 2), "af", tuple(_db_range(14, 2, 5))),
        Curve("ff(2,2,2)", (2, 2, 2), "ff", tuple(_db_range(14, 2, 5))),
        Curve("af(3,1,4,2)", (3, 1, 4, 2), "af", tuple(_db_range(14, 2, 8))),
        Curve("df23(3,1,4,2)", (3, 1, 4, 2), "df", tuple(_db_range(10, 2, 6))),
        Curve("af(1,4,1)", (1, 4, 1), "af", tuple(_db_range(20, 3, 10))),
        Curve("pf(1,4,1)", (1, 4, 1), "pf", tuple(_db_range(20, 3, 10))),
    )

    def __init__(self, seed: int, workdir: Path | None = None):
        super().__init__(seed, workdir)
        self.mc_seeds = {c.label: derive_seed(seed, c.label) for c in self.CURVES}
        self.schemes = {}

    def prepare(self) -> None:
        self.schemes = {c.label: build_scheme(c) for c in self.CURVES}

    def chunks(self) -> list:
        return [(c, s) for c in self.CURVES for s in c.grid]

    def run_chunk(self, key, rnd: Round) -> None:
        c, snr_db = key
        ops = [point_op(c.label, snr_db)]
        rnd.trials += self.TRIALS
        try:
            points = channel_sim.outage_curve(
                c.dim, self.schemes[c.label], RATE_BPCU, [snr_db],
                self.TRIALS, self.mc_seeds[c.label], workers=1,
            )
            for op, p in zip(ops, points, strict=True):
                rnd.outputs[op] = p.outage_count
        except Exception as exc:  # one failed curve fails its points, not the run
            rnd.fail(ops, exc)

    def final_checks(self, first: Round) -> dict:
        out = {}
        for c in self.CURVES:
            for s in c.grid:
                op = point_op(c.label, s)
                try:
                    got = replay_count(
                        c.dim, c.kind, self.schemes[c.label], RATE_BPCU, s,
                        self.TRIALS, self.mc_seeds[c.label],
                    )
                except Exception as exc:
                    out["replay:" + op] = (False, f"{type(exc).__name__}: {exc}")
                    continue
                want = first.outputs.get(op)
                out["replay:" + op] = (got == want, f"replay {got} != estimate_outage {want}")
        return out


# --------------------------------------------------------------------------
# Coded symbol-error rates
# --------------------------------------------------------------------------


class CodedSer(Workload):
    """Coded error rates with the golden and orthogonal codes."""

    name = "coded-ser"
    TRACED = (
        "channel_sim.af_effective", "channel_sim.ff_effective", "stbc.simulate_ser",
        "stbc.codebook",
    )
    TRIALS = 2 * 2048
    CURVES = (
        Curve("golden1-ff(2,2,2)", (2, 2, 2), "ff", tuple(_db_range(16, 1.5, 5))),
        Curve("alamouti-af(2,1,2,2)", (2, 1, 2, 2), "af", tuple(_db_range(14, 2, 7))),
    )

    def __init__(self, seed: int, workdir: Path | None = None):
        super().__init__(seed, workdir)
        self.mc_seeds = {c.label: derive_seed(seed, c.label) for c in self.CURVES}
        self.schemes, self.codebooks = {}, {}

    def prepare(self) -> None:
        q4 = stbc.QamAlphabet.qam(4)
        self.schemes = {c.label: build_scheme(c) for c in self.CURVES}
        self.codebooks = {
            "golden1-ff(2,2,2)": stbc.golden(q4, m=1),
            "alamouti-af(2,1,2,2)": stbc.alamouti(q4),
        }

    def chunks(self) -> list:
        return [(c, s) for c in self.CURVES for s in c.grid]

    def run_chunk(self, key, rnd: Round) -> None:
        c, snr_db = key
        ops = [point_op(c.label, snr_db)]
        rnd.trials += self.TRIALS
        try:
            points = stbc.simulate_ser(
                c.dim, self.schemes[c.label], self.codebooks[c.label], [snr_db],
                self.TRIALS, self.mc_seeds[c.label], workers=1,
            )
            for op, p in zip(ops, points, strict=True):
                rnd.outputs[op] = p.outage_count
        except Exception as exc:
            rnd.fail(ops, exc)


# --------------------------------------------------------------------------
# Exact analytic sweeps
# --------------------------------------------------------------------------


def all_dims(max_count: int, max_hops: int) -> list[tuple]:
    return [
        counts
        for hops in range(1, max_hops + 1)
        for counts in itertools.product(range(1, max_count + 1), repeat=hops + 1)
    ]


def short_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:6]


def _curve_text(curve) -> str:
    return " ".join(f"{r}:{d}" for r, d in curve.vertices)


class ExactAnalytic(Workload):
    """Exact Fraction sweeps, partitions, reductions and NVD enumeration."""

    name = "exact-analytic"
    DIMS_DMT = all_dims(5, 4)
    DIMS_PARTITION = all_dims(3, 3)
    DMT_CHUNK = 25  # dimensions per timed chunk of the dmt sweep (about 0.05 s)
    PARTITION_CHUNK = 30  # dimensions per timed chunk of the partition checks
    TRACED = (
        "stbc.codebook", "stbc.verify_nvd", "dmt_core.dmt_rp", "dmt_core.cutset_bound",
        "dmt_core.where_to_decode", "recursion.dmt_recursive", "partition.max_partition",
        "reduction.analyze",
    )
    # A boxed 16-QAM case follows the 4-QAM case of the same code, whose
    # minimum it must agree with.
    NVD_LABELS = (
        "alamouti/qam4", "golden0/qam4", "golden0/qam16box4", "golden1/qam4", "golden1/qam16box4",
    )

    def __init__(self, seed: int, workdir: Path | None = None):
        super().__init__(seed, workdir)
        rng = random.Random(seed)
        self.order_dmt = rng.sample(self.DIMS_DMT, len(self.DIMS_DMT))
        self.order_partition = rng.sample(self.DIMS_PARTITION, len(self.DIMS_PARTITION))
        self.nvd_cases = {}
        self.nvd_minima = {}  # label -> minimum of the latest pass

    def prepare(self) -> None:
        q4, q16 = stbc.QamAlphabet.qam(4), stbc.QamAlphabet.qam(16)
        diff4, diff16 = q4.difference_points(), q16.difference_points(max_coord=4)
        orthogonal, golden0, golden1 = stbc.alamouti(q4), stbc.golden(q4, m=0), stbc.golden(q4, m=1)
        self.nvd_cases = {
            "alamouti/qam4": (orthogonal, diff4),
            "golden0/qam4": (golden0, diff4),
            "golden0/qam16box4": (golden0, diff16),
            "golden1/qam4": (golden1, diff4),
            "golden1/qam16box4": (golden1, diff16),
        }

    @staticmethod
    def dmt_check(counts) -> str:
        """``dmt_rp`` against the recursion at every integer gain, then cut-set and decode set."""
        curve = dmt_core.dmt_rp(counts)
        for k in range(min(counts) + 1):
            rec, closed = recursion.dmt_recursive(counts, k), curve.evaluate(k)
            if rec != closed:
                raise AssertionError(f"recursion {rec} != dmt_rp {closed} at k={k}")
        cut = dmt_core.cutset_bound(counts)
        decode = dmt_core.where_to_decode(counts, int(cut.d_max))
        return short_digest(f"{_curve_text(curve)}|{_curve_text(cut)}|{decode.indices}")

    @staticmethod
    def partition_check(counts) -> str:
        d_max = int(dmt_core.cutset_bound(counts).d_max)
        p = partition.max_partition(counts)
        if p.size != d_max or not partition.is_independent(counts, p):
            raise AssertionError("max partition is not d_max independent paths")
        text = partition.partition_to_json(counts, p)
        if len(counts) == 3:
            k, q = partition.min_full_div_partition_2hop(*counts)
            if not partition.is_full_diversity(counts, q):
                raise AssertionError("minimum partition is not full-diversity")
            text += f"|{k}|" + partition.partition_to_json(counts, q)
        rep = reduction.analyze(counts)
        text += (
            f"|{rep.order}|{rep.minimal_form.counts}|{rep.minimal_vertical_form.counts}|{rep.n_bar}"
        )
        return short_digest(text)

    def chunks(self) -> list:
        def split(kind, n, size):
            return [(kind, i, min(i + size, n)) for i in range(0, n, size)]

        return (
            split("dmt", len(self.order_dmt), self.DMT_CHUNK)
            + split("partition", len(self.order_partition), self.PARTITION_CHUNK)
            + split("nvd", len(self.NVD_LABELS), 1)
        )

    def run_chunk(self, key, rnd: Round) -> None:
        kind, lo, hi = key
        before = len(rnd.outputs) + len(rnd.errors)
        if kind == "nvd":
            for label in self.NVD_LABELS[lo:hi]:
                self._nvd_check(label, rnd)
        else:
            check, order = (
                (self.dmt_check, self.order_dmt) if kind == "dmt"
                else (self.partition_check, self.order_partition)
            )
            for counts in order[lo:hi]:
                op = kind + ":" + ",".join(map(str, counts))
                try:
                    rnd.outputs[op] = check(counts)
                except Exception as exc:
                    rnd.fail([op], exc)
        rnd.trials += len(rnd.outputs) + len(rnd.errors) - before

    def _nvd_check(self, label: str, rnd: Round) -> None:
        """One NVD minimum; after a boxed 16-QAM case, its agreement with 4-QAM."""
        cb, diffs = self.nvd_cases[label]
        op = "nvd:" + label
        self.nvd_minima.pop(label, None)
        try:
            minimum, _ = stbc.verify_nvd(cb, diffs)
            if not minimum > 0:
                raise AssertionError(f"minimum determinant {minimum} is not positive")
            rnd.outputs[op] = self.nvd_minima[label] = minimum
        except Exception as exc:
            rnd.fail([op], exc)
        if label.endswith("/qam16box4"):
            code = label.split("/")[0]
            op = f"nvd-agree:{code}"
            small, large = self.nvd_minima.get(code + "/qam4"), self.nvd_minima.get(label)
            if small is None or large is None:
                rnd.errors[op] = "a minimum is missing"
            elif not math.isclose(small, large, rel_tol=1e-9):
                rnd.errors[op] = f"4-QAM minimum {small} != boxed 16-QAM minimum {large}"
            else:
                rnd.outputs[op] = True

    # The analytic results do not depend on the seed (it only orders the
    # sweep), so one reference serves every seed.  Per-dimension digests
    # are packed as fixed-width hex in the canonical dimension order.

    def expected(self, reference: dict) -> dict:
        doc = reference.get(self.name, {}).get("any")
        if not doc:
            return {}
        out = dict(doc["nvd"])
        for prefix, dims in (("dmt", self.DIMS_DMT), ("partition", self.DIMS_PARTITION)):
            packed = doc[prefix + "_digests"]
            for i, counts in enumerate(dims):
                out[prefix + ":" + ",".join(map(str, counts))] = packed[6 * i : 6 * i + 6]
        return out

    def reference_entry(self, first: Round) -> tuple[str, object]:
        doc = {"nvd": {k: v for k, v in first.outputs.items() if k.startswith("nvd:")}}
        for prefix, dims in (("dmt", self.DIMS_DMT), ("partition", self.DIMS_PARTITION)):
            doc[prefix + "_digests"] = "".join(
                first.outputs[prefix + ":" + ",".join(map(str, c))] for c in dims
            )
        return "any", doc


# --------------------------------------------------------------------------
# The command line, in process, with a worker pool
# --------------------------------------------------------------------------


class CliParallel(Workload):
    """``relaydmt simulate`` through ``cli.main``: many short points, two workers."""

    name = "cli-parallel"
    TRACED = ("channel_sim.estimate_outage", "cli.main", "channel_sim.pool_starts")
    LABEL = "cli-ff(2,2,2)"
    GRID = (8, 2, 30)  # start:step:stop in dB
    TRIALS = 2 * 8192
    WORKERS = 2

    def __init__(self, seed: int, workdir: Path | None = None):
        super().__init__(seed, workdir)
        self.mc_seed = derive_seed(seed, self.LABEL)
        self.last_csv = b""

    def argv(self, output: Path, workers: int) -> list[str]:
        return [
            "simulate", "--dim", "2,2,2", "--scheme", "ff", "--rate", f"{RATE_BPCU:g}",
            "--snr", ":".join(map(str, self.GRID)), "--trials", str(self.TRIALS),
            "--seed", str(self.mc_seed), "--workers", str(workers), "--output", str(output),
        ]

    def _simulate(self, workers: int) -> tuple[bytes, dict]:
        if self.workdir is None:
            raise RuntimeError("cli-parallel needs a working directory")
        self.workdir.mkdir(parents=True, exist_ok=True)
        out = self.workdir / f"points-w{workers}.csv"
        code = cli.main(self.argv(out, workers))
        if code != 0:
            raise RuntimeError(f"relaydmt simulate exited with {code}")
        data = out.read_bytes()
        rows = csv.DictReader(io.StringIO(data.decode()))
        counts = {point_op(self.LABEL, float(r["snr_db"])): int(r["outages"]) for r in rows}
        return data, counts

    def chunks(self) -> list:
        return ["simulate"]  # one command is the smallest unit a user times

    def run_chunk(self, key, rnd: Round) -> None:
        start, step, stop = self.GRID
        grid = range(start, stop + 1, step)
        ops = [point_op(self.LABEL, s) for s in grid]
        rnd.trials += len(grid) * self.TRIALS
        try:
            self.last_csv, counts = self._simulate(self.WORKERS)
            if sorted(counts) != sorted(ops):
                raise RuntimeError(f"CSV rows {sorted(counts)} do not match the grid")
            rnd.outputs.update(counts)
        except Exception as exc:
            rnd.fail(ops, exc)

    def final_checks(self, first: Round) -> dict:
        out = {}
        try:
            single, _ = self._simulate(1)
            out["cli:csv-workers-1-vs-2"] = (
                single == self.last_csv, "CSV bytes differ between --workers 1 and 2"
            )
            manifest = self.workdir / "points-w1.csv.manifest.json"
            doc = json.loads(manifest.read_text())
            out["cli:manifest"] = (
                doc.get("seed") == self.mc_seed and "config_hash" in doc,
                "manifest lacks the seed or the config hash",
            )
        except Exception as exc:
            out["cli:csv-workers-1-vs-2"] = (False, f"{type(exc).__name__}: {exc}")
        return out

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            try:
                self.workdir.parent.rmdir()
            except OSError:  # another run still uses it
                pass


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------


class MonteCarlo(Workload):
    """The three Monte-Carlo parts, one after the other in every pass."""

    name = "monte-carlo"
    PARTS = (OutageGrid, CodedSer, CliParallel)
    TRACED = tuple(dict.fromkeys(span for part in PARTS for span in part.TRACED))

    def __init__(self, seed: int, workdir: Path | None = None):
        super().__init__(seed, workdir)
        self.parts = [part(seed, workdir) for part in self.PARTS]

    def prepare(self) -> None:
        for part in self.parts:
            part.prepare()

    def chunks(self) -> list:
        return [(i, key) for i, part in enumerate(self.parts) for key in part.chunks()]

    def run_chunk(self, key, rnd: Round) -> None:
        i, part_key = key
        self.parts[i].run_chunk(part_key, rnd)

    def final_checks(self, first: Round) -> dict:
        out = {}
        for part in self.parts:
            out.update(part.final_checks(first))
        return out

    def expected(self, reference: dict) -> dict:
        out = {}
        for part in self.parts:
            out.update(part.expected(reference))
        return out

    def close(self) -> None:
        for part in self.parts:
            part.close()


WORKLOADS = {w.name: w for w in (MonteCarlo, ExactAnalytic)}
# Reference outputs are stored per part, under the part's name.
PARTS = (OutageGrid, CodedSer, ExactAnalytic, CliParallel)
