"""
Command-line front end: analytic curves, channel reduction, partitions,
and reproducible Monte-Carlo runs.

Exit codes: 0 success, 2 usage error, 3 numerical failure.  Every
simulation writes a CSV of points plus a JSON manifest recording the
full configuration and seed; re-running the same command with the same
seed produces byte-identical CSV regardless of the worker count.  This
module alone writes manifests: :func:`run_manifest` adds the
configuration hash and the versions to the record a run builds.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import sys

import numpy as np

from . import __version__, channel_sim, dmt_core, partition, reduction, stbc
from .dmt_core import DecodeSet, as_dimension

SEED_ENV_VAR = "RELAYDMT_SEED"
MAX_GRID_POINTS = 10_000
# Every worker is a forked process; a bound keeps a typo from forking thousands.
MAX_WORKERS = 64

# Each --scheme: the options it reads beyond those every run reads, and its
# constructor from the parsed arguments and the dimension.  An option in the
# table that the chosen scheme does not read is refused (``_refuse_unread``).
_OUTAGE = ("rate", "rate_policy")
_CODED = ("code", "qam")
_SCHEMES = {
    "af": (_OUTAGE, lambda args, dim: channel_sim.AfScheme()),
    "pf": (_OUTAGE, lambda args, dim: channel_sim.PfScheme()),
    "df": (_OUTAGE + ("decode",), lambda args, dim: channel_sim.DfScheme(
        _parse_decode(_required(args, "decode", "the df scheme"), dim))),
    "parallel-af": (_OUTAGE + ("partition",),
                    lambda args, dim: channel_sim.ParallelAfScheme(_partition(args, dim))),
    "ff": (_OUTAGE + ("partition",), lambda args, dim: _ff_scheme(args, dim)),
    "svd-align": (_OUTAGE, lambda args, dim: channel_sim.SvdAlignScheme()),
    "coded-af": (_CODED, lambda args, dim: channel_sim.AfScheme()),
    "coded-ff": (_CODED + ("partition",), lambda args, dim: _ff_scheme(args, dim)),
}
# Each dmt --curve: the options it reads, and the curve of the dimension.
_CURVES = {
    "rp": ((), lambda args, dim: dmt_core.dmt_rp(dim)),
    "cutset": ((), lambda args, dim: dmt_core.cutset_bound(dim)),
    # DF at every relay layer is full cooperation: the cut-set bound.
    "df": ((), lambda args, dim: dmt_core.cutset_bound(dim)),
    "serial": (("decode",), lambda args, dim: dmt_core.dmt_serial_partition(
        dim, _parse_decode(_required(args, "decode", "the serial curve"), dim))),
    "ff-bound": (("k_modes",), lambda args, dim: dmt_core.dmt_ff_lower_bound(
        dim, _required(args, "k_modes", "the ff-bound curve"))),
    "parallel-af": (("paths",), lambda args, dim: dmt_core.dmt_parallel_af(dim, args.paths or [dim])),
}


def _required(args, option: str, user: str):
    """The value of ``option``, without which ``user`` cannot run."""
    value = getattr(args, option)
    if value is None:
        raise ValueError(f"--{option.replace('_', '-')} is required for {user}")
    return value


def _refuse_unread(args, table: dict, chosen: list[str]) -> None:
    """Refuse every option of ``table`` that is set but read by none of ``chosen``."""
    read = {option for name in chosen for option in table[name][0]}
    unread = [
        "--" + option.replace("_", "-")
        for option in dict.fromkeys(o for options, _ in table.values() for o in options)
        if option not in read and getattr(args, option) is not None
    ]
    if unread:
        raise ValueError(f"{', '.join(unread)} not read by {', '.join(chosen)}")


def _parse_decode(text: str, dim) -> DecodeSet:
    try:
        decode = DecodeSet(tuple(int(tok) for tok in text.split(",")))
        decode.segments(dim)  # refuses a last index other than the destination layer
        return decode
    except ValueError as exc:
        raise ValueError(f"bad decode set {text!r}: {exc}") from None


# The argparse types: each turns one option's text into its value, or raises
# ArgumentTypeError, which argparse reports as a usage error naming the option.
def _parse_dim(text: str):
    try:
        counts = tuple(int(tok) for tok in text.split(","))
        return as_dimension(counts)
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"malformed dimension {text!r}: {exc}") from None


def _parse_grid(text: str) -> list[float]:
    try:
        start, step, stop = (float(tok) for tok in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"SNR grid must be start:step:stop, got {text!r}") from None
    if not (math.isfinite(start) and math.isfinite(stop) and 0 < step < math.inf and start <= stop):
        raise argparse.ArgumentTypeError(f"SNR grid must be finite and increasing, got {text!r}")
    # Points are counted before any is built (a running sum stalls where the
    # step is below the float spacing); 1e-9 of a step keeps a stop that
    # division leaves just short, as in 0:0.1:0.3, on the grid.
    span = (stop - start) / step + 1e-9
    if span >= MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(f"SNR grid {text!r} has more than {MAX_GRID_POINTS} points")
    grid = [round(start + k * step, 9) for k in range(int(span) + 1)]
    if len(set(grid)) < len(grid):
        raise argparse.ArgumentTypeError(f"SNR grid {text!r} repeats points at 9 decimals")
    return grid


def _parse_count(text: str) -> int:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a number, got {text!r}") from None
    if not value.is_integer() or value < 1:
        raise argparse.ArgumentTypeError(f"must be a whole number of at least 1, got {text!r}")
    return int(value)


def _parse_paths(text: str) -> list:
    """Path dimensions separated by ``;``."""
    return [_parse_dim(p) for p in text.split(";")]


def _output(path: str | None):
    """Stdout for ``None`` or ``-``, else the file at ``path``, closed on exit."""
    return contextlib.nullcontext(sys.stdout) if path in (None, "-") else open(path, "w")


def cmd_dmt(args) -> int:
    names = [name.strip() for name in args.curve.split(",")]
    if not set(names) <= set(_CURVES) or len(set(names)) < len(names):
        raise ValueError(f"--curve takes distinct names from {', '.join(_CURVES)}, got {args.curve!r}")
    _refuse_unread(args, _CURVES, names)
    rows = []
    for name in names:
        curve = _CURVES[name][1](args, args.dim)
        for r, d in curve.vertices:
            rows.append((name, str(r), str(d)))
        if curve.partial:
            rows.append((name, "partial", "only d(0) is known for heterogeneous paths"))
    with _output(args.output) as out:
        if args.format == "json":
            doc = {}
            for name, r, d in rows:
                doc.setdefault(name, []).append([r, d])
            out.write(json.dumps({"dim": list(args.dim.counts), "curves": doc}, indent=2) + "\n")
        else:
            out.write("curve,r,d\n")
            for row in rows:
                out.write(",".join(row) + "\n")
    return 0


def cmd_reduce(args) -> int:
    report = reduction.analyze(args.dim)
    doc = {
        "dim": list(args.dim.counts),
        "order": report.order,
        "minimal_form": list(report.minimal_form.counts),
        "minimal_vertical_form": list(report.minimal_vertical_form.counts),
        "n_bar": report.n_bar,
        "practical_vertical_reduction": list(report.practical_vertical_form.counts),
    }
    with _output(args.output) as out:
        if args.format == "json":
            out.write(json.dumps(doc, indent=2) + "\n")
        else:
            for key, value in doc.items():
                out.write(f"{key},{' '.join(map(str, value)) if isinstance(value, list) else value}\n")
    return 0


def cmd_partition(args) -> int:
    dim = args.dim
    if args.max:
        part = partition.max_partition(dim)
    elif dim.hops != 2:
        raise ValueError("--min-full-div applies to two-hop channels")
    else:
        _, part = partition.min_full_div_partition_2hop(*dim.counts)
    text = partition.partition_to_json(dim, part)
    with _output(args.output) as out:
        out.write(text + "\n")
    return 0


def _partition(args, dim):
    """The ``--partition`` file's partition, else the two-hop minimum full-diversity one."""
    if args.partition:
        with open(args.partition) as fh:
            pdim, part = partition.partition_from_json(fh.read())
        if pdim != dim:
            raise ValueError("partition file was built for a different dimension")
        return part
    if dim.hops == 2:
        return partition.min_full_div_partition_2hop(*dim.counts)[1]
    raise ValueError(f"scheme {args.scheme!r} needs --partition; a default exists only for two-hop channels")


def _ff_scheme(args, dim):
    return channel_sim.FfScheme(partition.FlipSchedule(dim, _partition(args, dim)))


def run_manifest(record: dict) -> dict:
    """``record`` plus ``config_hash``, the SHA-1 of its sorted-key JSON, and ``versions``.

    The hash leaves the versions out, so a run keeps its hash across upgrades.
    """
    canon = json.dumps(record, sort_keys=True, separators=(",", ":"))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    versions = {"relaydmt": __version__, "numpy": np.__version__,
                "python": platform.python_version(), "blas": blas}
    return {**record, "config_hash": hashlib.sha1(canon.encode()).hexdigest(), "versions": versions}


def cmd_simulate(args) -> int:
    dim = args.dim
    if not 1 <= args.workers <= MAX_WORKERS:
        raise ValueError(f"--workers must be in 1..{MAX_WORKERS}, got {args.workers}")
    _refuse_unread(args, _SCHEMES, [args.scheme])
    scheme = _SCHEMES[args.scheme][1](args, dim)
    record = {"command": "simulate", "dim": list(dim.counts), "scheme": scheme.describe(),
              "snr_grid_db": args.snr, "trials": args.trials, "seed": args.seed}
    if "code" in _SCHEMES[args.scheme][0]:
        cb = stbc.Codebook(args.code or "alamouti", stbc.QamAlphabet.qam(args.qam or 4))
        points = stbc.simulate_ser(dim, scheme, cb, args.snr, args.trials, args.seed, workers=args.workers)
        record.update(rate_bpcu=points[0].rate_bpcu, block_size=stbc.CODED_BLOCK_SIZE,
                      code=cb.describe())
    else:
        if not math.isfinite(_required(args, "rate", "outage simulations")):
            raise ValueError(f"--rate must be finite, got {args.rate}")
        record.update(rate_bpcu=args.rate, block_size=channel_sim.BLOCK_SIZE,
                      rate_policy=args.rate_policy or "fixed")
        points = channel_sim.outage_curve(dim, scheme, args.rate, args.snr, args.trials, args.seed,
                                          workers=args.workers, rate_policy=record["rate_policy"])
    with _output(args.output) as out:
        channel_sim.write_outage_csv(points, out)
    manifest = run_manifest(record)
    manifest_path = args.manifest
    if manifest_path is None and args.output not in (None, "-"):
        manifest_path = args.output + ".manifest.json"
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    if manifest_path:
        with open(manifest_path, "w") as fh:
            fh.write(text)
    else:
        # CSV owns stdout; the reproducibility record goes to stderr.
        sys.stderr.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaydmt",
        description="Diversity-multiplexing analysis and simulation of multihop relay channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    channel = argparse.ArgumentParser(add_help=False)  # options of every command
    channel.add_argument("--dim", required=True, type=_parse_dim, help="antenna counts, e.g. 2,2,2")
    channel.add_argument("--output", help="output file (default stdout)")
    formats = argparse.ArgumentParser(add_help=False)
    formats.add_argument("--format", choices=("csv", "json"), default="csv")

    p_dmt = sub.add_parser("dmt", parents=[channel, formats], help="analytic tradeoff curves")
    p_dmt.add_argument("--curve", default="rp", help=f"comma list from {', '.join(_CURVES)}")
    p_dmt.add_argument("--decode", help="decode layers for the serial curve, e.g. 2,3")
    p_dmt.add_argument("--k-modes", type=_parse_count, help="mode count for the ff-bound curve")
    p_dmt.add_argument("--paths", type=_parse_paths, help="semicolon list of path dims for parallel-af")
    p_dmt.set_defaults(func=cmd_dmt)

    p_red = sub.add_parser("reduce", parents=[channel, formats], help="channel order and minimal forms")
    p_red.set_defaults(func=cmd_reduce)

    p_part = sub.add_parser("partition", parents=[channel], help="construct parallel partitions")
    mode = p_part.add_mutually_exclusive_group(required=True)
    mode.add_argument("--max", action="store_true", help="maximum single-antenna partition")
    mode.add_argument(
        "--min-full-div", action="store_true", help="minimum full-diversity partition (2 hops)"
    )
    p_part.set_defaults(func=cmd_partition)

    p_sim = sub.add_parser("simulate", parents=[channel], help="Monte-Carlo outage / SER")
    p_sim.add_argument("--scheme", required=True, choices=_SCHEMES)
    p_sim.add_argument("--rate", type=float, help="target rate (bits/use), or r under --rate-policy multiplexing")
    p_sim.add_argument("--rate-policy", choices=("fixed", "multiplexing"), help="outage schemes (default fixed)")
    p_sim.add_argument("--snr", required=True, type=_parse_grid, help="dB grid start:step:stop")
    p_sim.add_argument("--trials", default="1e5", type=_parse_count, help="trials per point (accepts 1e6)")
    p_sim.add_argument("--seed", type=int, default=os.environ.get(SEED_ENV_VAR) or "0",
                       help=f"RNG seed (default ${SEED_ENV_VAR} or 0)")
    p_sim.add_argument("--workers", type=int, default=1)
    p_sim.add_argument("--decode", help="decode layers for the df scheme")
    p_sim.add_argument("--partition", help="partition JSON file for parallel-af, ff and coded-ff")
    p_sim.add_argument(
        "--code", choices=tuple(stbc._CODES),
        help="space-time code for the coded schemes (default alamouti)",
    )
    p_sim.add_argument("--qam", type=int, choices=(4, 16), help="coded schemes (default 4)")
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
    # LinAlgError subclasses ValueError, so it must be caught first.
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
