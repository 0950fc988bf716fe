"""
Command-line front end: analytic curves, channel reduction, partitions,
and reproducible Monte-Carlo runs.

Exit codes: 0 success, 2 usage error, 3 numerical failure.  Every
simulation writes a CSV of points plus a JSON manifest recording the
full configuration and seed; re-running the same command with the same
seed produces byte-identical CSV regardless of the worker count.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import channel_sim, dmt_core, partition, reduction, stbc
from .dmt_core import DecodeSet, as_dimension

SEED_ENV_VAR = "RELAYDMT_SEED"

_SIM_SCHEMES = ("af", "pf", "df", "parallel-af", "ff", "svd-align", "coded-af", "coded-ff")
_PARTITION_SCHEMES = ("parallel-af", "ff", "coded-ff")
_CURVES = ("rp", "cutset", "df", "serial", "ff-bound", "parallel-af")
# The option each curve reads; no other curve accepts it.
_CURVE_OPTIONS = {"serial": "decode", "ff-bound": "k_modes", "parallel-af": "paths"}


class UsageError(Exception):
    pass


def _parse_dim(text: str):
    try:
        counts = tuple(int(tok) for tok in text.split(","))
        return as_dimension(counts)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"malformed dimension {text!r}: {exc}") from None


def _parse_decode(text: str, dim) -> DecodeSet:
    try:
        decode = DecodeSet(tuple(int(tok) for tok in text.split(",")))
        decode.validate_for(dim)
        return decode
    except ValueError as exc:
        raise UsageError(f"bad decode set {text!r}: {exc}") from None


def _parse_grid(text: str) -> list[float]:
    try:
        start, step, stop = (float(tok) for tok in text.split(":"))
    except ValueError:
        raise UsageError(f"SNR grid must be start:step:stop, got {text!r}") from None
    if step <= 0 or stop < start:
        raise UsageError("SNR grid must be strictly increasing")
    grid = []
    value = start
    while value <= stop + 1e-9:
        grid.append(round(value, 9))
        value += step
    return grid


def _parse_trials(text: str) -> int:
    try:
        value = float(text)
    except ValueError:
        raise UsageError(f"--trials must be a number, got {text!r}") from None
    if not value.is_integer() or value < 1:
        raise UsageError(f"--trials must be a whole number of at least 1, got {text!r}")
    return int(value)


def _fmt(value) -> str:
    f = Fraction(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


@contextlib.contextmanager
def _output(path: str | None):
    """Stdout for ``None`` or ``-``, else the file at ``path``, closed on exit."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def cmd_dmt(args) -> int:
    dim = _parse_dim(args.dim)
    names = [name.strip() for name in args.curve.split(",")]
    for curve, option in _CURVE_OPTIONS.items():
        if getattr(args, option) is not None and curve not in names:
            raise UsageError(f"--{option.replace('_', '-')} applies only to the {curve} curve")
    rows = []
    for name in names:
        if name not in _CURVES:
            raise UsageError(f"unknown curve {name!r} (choose from {', '.join(_CURVES)})")
        if name == "rp":
            curve = dmt_core.dmt_rp(dim)
        elif name == "cutset":
            curve = dmt_core.cutset_bound(dim)
        elif name == "df":
            curve = dmt_core.dmt_serial_partition(dim, DecodeSet(tuple(range(1, dim.hops + 1))))
        elif name == "serial":
            if not args.decode:
                raise UsageError("--decode is required for the serial curve")
            curve = dmt_core.dmt_serial_partition(dim, _parse_decode(args.decode, dim))
        elif name == "ff-bound":
            if args.k_modes is None:
                raise UsageError("--k-modes is required for the ff-bound curve")
            if args.k_modes < 1:
                raise UsageError(f"--k-modes must be at least 1, got {args.k_modes}")
            curve = dmt_core.dmt_ff_lower_bound(dim, args.k_modes)
        else:  # parallel-af
            dims = [_parse_dim(p) for p in args.paths.split(";")] if args.paths else [dim]
            curve = dmt_core.dmt_parallel_af(dim, dims)
        for r, d in curve.vertices:
            rows.append((name, _fmt(r), _fmt(d)))
        if curve.partial:
            rows.append((name, "partial", "only d(0) is known for heterogeneous paths"))
    with _output(args.output) as out:
        if args.format == "json":
            doc = {}
            for name, r, d in rows:
                doc.setdefault(name, []).append([r, d])
            out.write(json.dumps({"dim": list(dim.counts), "curves": doc}, indent=2) + "\n")
        else:
            out.write("curve,r,d\n")
            for row in rows:
                out.write(",".join(row) + "\n")
    return 0


def cmd_reduce(args) -> int:
    dim = _parse_dim(args.dim)
    report = reduction.analyze(dim)
    practical = reduction.practical_vertical_reduction(dim)
    doc = {
        "dim": list(dim.counts),
        "order": report.order,
        "minimal_form": list(report.minimal_form.counts),
        "minimal_vertical_form": list(report.minimal_vertical_form.counts),
        "n_bar": report.n_bar,
        "practical_vertical_reduction": list(practical.counts),
    }
    with _output(args.output) as out:
        if args.format == "json":
            out.write(json.dumps(doc, indent=2) + "\n")
        else:
            for key, value in doc.items():
                out.write(f"{key},{' '.join(map(str, value)) if isinstance(value, list) else value}\n")
    return 0


def cmd_partition(args) -> int:
    dim = _parse_dim(args.dim)
    if args.max:
        part = partition.max_partition(dim)
    elif args.min_full_div:
        if dim.hops != 2:
            raise UsageError("--min-full-div applies to two-hop channels")
        _, part = partition.min_full_div_partition_2hop(*dim.counts)
    else:
        raise UsageError("choose one of --max or --min-full-div")
    text = partition.partition_to_json(dim, part)
    with _output(args.output) as out:
        out.write(text + "\n")
    return 0


def _build_scheme(args, dim):
    kind = args.scheme
    if kind not in _PARTITION_SCHEMES:
        if args.partition is not None:
            raise UsageError(
                f"--partition applies only to {', '.join(_PARTITION_SCHEMES)}, not {kind!r}"
            )
        if kind == "df":
            if not args.decode:
                raise UsageError("--decode is required for the df scheme")
            return channel_sim.DfScheme(_parse_decode(args.decode, dim))
        simple = {"af": channel_sim.AfScheme, "coded-af": channel_sim.AfScheme,
                  "pf": channel_sim.PfScheme, "svd-align": channel_sim.SvdAlignScheme}
        return simple[kind]()
    if args.partition:
        with open(args.partition) as fh:
            pdim, part = partition.partition_from_json(fh.read())
        if pdim != dim:
            raise UsageError("partition file was built for a different dimension")
    elif dim.hops == 2:
        _, part = partition.min_full_div_partition_2hop(*dim.counts)
    else:
        raise UsageError(
            f"scheme {kind!r} needs --partition for channels with more than two hops"
        )
    if kind == "parallel-af":
        return channel_sim.ParallelAfScheme(part)
    return channel_sim.FfScheme(partition.ff_schedule(dim, part))


def _build_codebook(args):
    q = stbc.QamAlphabet.qam(args.qam)
    if args.code == "alamouti":
        return stbc.alamouti(q)
    return stbc.golden(q, m=1 if args.code == "parallel-golden" else 0)


def cmd_simulate(args) -> int:
    dim = _parse_dim(args.dim)
    grid = _parse_grid(args.snr)
    trials = _parse_trials(args.trials)
    if args.workers < 1:
        raise UsageError("--workers must be at least 1")
    if args.rate is not None and not math.isfinite(args.rate):
        raise UsageError(f"--rate must be finite, got {args.rate}")
    coded = args.scheme.startswith("coded-")
    if args.decode is not None and args.scheme != "df":
        raise UsageError(f"--decode applies only to the df scheme, not {args.scheme!r}")
    if coded and args.rate_policy == "multiplexing":
        raise UsageError("--rate-policy multiplexing does not apply to coded schemes")
    seed = args.seed
    if seed is None:
        env = os.environ.get(SEED_ENV_VAR)
        seed = int(env) if env else 0
    scheme = _build_scheme(args, dim)
    if coded:
        if args.rate is not None:
            raise UsageError("--rate does not apply to coded schemes; the code sets the rate")
        cb = _build_codebook(args)
        points = stbc.simulate_ser(dim, scheme, cb, grid, trials, seed, workers=args.workers)
        rate = points[0].rate_bpcu
        extra = {"code": cb.describe(), "block_size": stbc.CODED_BLOCK_SIZE}
    else:
        if args.rate is None:
            raise UsageError("--rate is required for outage simulations")
        rate = args.rate
        points = channel_sim.outage_curve(
            dim, scheme, rate, grid, trials, seed,
            workers=args.workers, rate_policy=args.rate_policy,
        )
        extra = {"rate_policy": args.rate_policy}
    with _output(args.output) as out:
        channel_sim.write_outage_csv(points, out)
    manifest = channel_sim.run_manifest(
        command="simulate",
        dim=dim,
        scheme_desc=scheme.describe(),
        rate=rate,
        snr_grid_db=grid,
        trials=trials,
        seed=seed,
        block_size=stbc.CODED_BLOCK_SIZE if coded else channel_sim.BLOCK_SIZE,
        extra=extra,
    )
    manifest_path = args.manifest
    if manifest_path is None and args.output not in (None, "-"):
        manifest_path = args.output + ".manifest.json"
    if manifest_path:
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        # CSV owns stdout; the reproducibility record goes to stderr.
        json.dump(manifest, sys.stderr, indent=2, sort_keys=True)
        sys.stderr.write("\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaydmt",
        description="Diversity-multiplexing analysis and simulation of multihop relay channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dmt = sub.add_parser("dmt", help="analytic tradeoff curves")
    p_dmt.add_argument("--dim", required=True, help="antenna counts, e.g. 2,2,2")
    p_dmt.add_argument("--curve", default="rp", help=f"comma list from {', '.join(_CURVES)}")
    p_dmt.add_argument("--decode", help="decode layers for the serial curve, e.g. 2,3")
    p_dmt.add_argument("--k-modes", type=int, help="mode count for the ff-bound curve")
    p_dmt.add_argument("--paths", help="semicolon list of path dims for parallel-af")
    p_dmt.add_argument("--output", help="output file (default stdout)")
    p_dmt.add_argument("--format", choices=("csv", "json"), default="csv")
    p_dmt.set_defaults(func=cmd_dmt)

    p_red = sub.add_parser("reduce", help="channel order and minimal forms")
    p_red.add_argument("--dim", required=True)
    p_red.add_argument("--output")
    p_red.add_argument("--format", choices=("csv", "json"), default="csv")
    p_red.set_defaults(func=cmd_reduce)

    p_part = sub.add_parser("partition", help="construct parallel partitions")
    p_part.add_argument("--dim", required=True)
    p_part.add_argument("--max", action="store_true", help="maximum single-antenna partition")
    p_part.add_argument(
        "--min-full-div", action="store_true", help="minimum full-diversity partition (2 hops)"
    )
    p_part.add_argument("--output")
    p_part.set_defaults(func=cmd_partition)

    p_sim = sub.add_parser("simulate", help="Monte-Carlo outage / SER")
    p_sim.add_argument("--dim", required=True)
    p_sim.add_argument("--scheme", required=True, choices=_SIM_SCHEMES)
    p_sim.add_argument("--rate", type=float, help="target rate (bits/use), or r under --rate-policy multiplexing")
    p_sim.add_argument("--rate-policy", choices=("fixed", "multiplexing"), default="fixed")
    p_sim.add_argument("--snr", required=True, help="dB grid start:step:stop")
    p_sim.add_argument("--trials", default="1e5", help="trials per point (accepts 1e6)")
    p_sim.add_argument("--seed", type=int, help=f"RNG seed (default ${SEED_ENV_VAR} or 0)")
    p_sim.add_argument("--workers", type=int, default=1)
    p_sim.add_argument("--decode", help="decode layers for the df scheme")
    p_sim.add_argument("--partition", help="partition JSON file for ff / parallel-af")
    p_sim.add_argument(
        "--code", default="alamouti", choices=("alamouti", "golden", "parallel-golden"),
        help="space-time code for the coded schemes",
    )
    p_sim.add_argument("--qam", type=int, default=4, choices=(4, 16))
    p_sim.add_argument("--output", help="CSV output (default stdout)")
    p_sim.add_argument("--manifest", help="manifest path (default <output>.manifest.json)")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
