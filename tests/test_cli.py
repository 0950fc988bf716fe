import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shutil
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from relaydmt import cli, partition
from relaydmt.cli import MAX_GRID_POINTS, SEED_ENV_VAR, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDmtCommand:
    def test_rp_222(self, capsys):
        code, out, _ = run(capsys, "dmt", "--dim", "2,2,2", "--curve", "rp")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "curve,r,d"
        assert lines[1:] == ["rp,0,3", "rp,1,1", "rp,2,0"]

    def test_cutset_243(self, capsys):
        code, out, _ = run(capsys, "dmt", "--dim", "2,4,3", "--curve", "cutset")
        assert code == 0
        assert "cutset,0,8" in out.splitlines()

    def test_trivial_rayleigh(self, capsys):
        code, out, _ = run(capsys, "dmt", "--dim", "1,1")
        assert code == 0
        assert out.splitlines()[1:] == ["rp,0,1", "rp,1,0"]

    def test_multiple_curves_json(self, capsys):
        code, out, _ = run(
            capsys, "dmt", "--dim", "2,2,2", "--curve", "rp,cutset,ff-bound",
            "--k-modes", "2", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["curves"]["ff-bound"][0] == ["0", "4"]
        assert doc["curves"]["ff-bound"][1] == ["1/2", "2"]

    def test_malformed_dimension(self, capsys):
        code, _, err = run(capsys, "dmt", "--dim", "2,x,2")
        assert code == 2
        assert "malformed" in err

    def test_serial_requires_decode(self, capsys):
        code, _, err = run(capsys, "dmt", "--dim", "2,2,2", "--curve", "serial")
        assert code == 2

    @pytest.mark.parametrize(
        "decode,message",
        [
            ("3,2", "decode indices must be strictly increasing"),
            ("0,3", "decode indices start at layer 1"),
            ("1,2", "last decode index must be the destination layer 3"),
        ],
    )
    def test_malformed_decode_set(self, decode, message, capsys):
        code, out, err = run(
            capsys, "dmt", "--dim", "3,1,4,2", "--curve", "serial", "--decode", decode
        )
        assert code == 2 and out == ""
        assert f"bad decode set {decode!r}: {message}" in err

    @pytest.mark.parametrize(
        "option,value,curves",
        [
            ("--decode", "1,2", "rp"),
            ("--decode", "1,2", "rp,cutset,df,ff-bound,parallel-af"),
            ("--k-modes", "2", "rp,cutset"),
            ("--k-modes", "2", "serial"),
            ("--paths", "1,1,1;1,1,1", "rp"),
            ("--paths", "1,1,1;1,1,1", "ff-bound"),
        ],
    )
    def test_option_rejected_without_its_curve(self, option, value, curves, capsys):
        code, out, err = run(
            capsys, "dmt", "--dim", "2,2,2", "--curve", curves, option, value
        )
        assert code == 2 and out == ""
        assert option in err

    @pytest.mark.parametrize(
        "k_modes,message",
        [
            ("0", "must be a whole number of at least 1"),
            ("-1", "must be a whole number of at least 1"),
            ("2.5", "must be a whole number of at least 1"),
            ("x", "must be a number"),
        ],
        ids=["0", "-1", "2.5", "x"],
    )
    def test_k_modes_must_be_positive(self, k_modes, message, capsys):
        code, out, err = run(
            capsys, "dmt", "--dim", "2,2,2", "--curve", "ff-bound", "--k-modes", k_modes
        )
        assert code == 2 and out == ""
        assert f"argument --k-modes: {message}, got {k_modes!r}" in err

    def test_k_modes_reads_exponent_counts(self, capsys):
        argv = ("dmt", "--dim", "3,1,4,2", "--curve", "rp,ff-bound", "--k-modes")
        code, out, _ = run(capsys, *argv, "2")
        assert code == 0 and "ff-bound,1/2," in out
        assert run(capsys, *argv, "2e0") == (0, out, "")

    def test_ff_bound_requires_k_modes(self, capsys):
        code, out, err = run(capsys, "dmt", "--dim", "2,2,2", "--curve", "ff-bound")
        assert code == 2 and out == ""
        assert "--k-modes is required" in err

    @pytest.mark.parametrize(
        "paths,message",
        [
            ("5,5,5;5,5,5", "wider than the channel"),
            ("2,2,2;2,2,2", "above the cut-set d_max 4"),
            ("2,2", "does not span the 2-hop channel"),
        ],
    )
    def test_parallel_af_paths_must_fit_the_channel(self, paths, message, capsys):
        code, out, err = run(
            capsys, "dmt", "--dim", "2,2,2", "--curve", "parallel-af", "--paths", paths
        )
        assert code == 2 and out == ""
        assert message in err

    @pytest.mark.parametrize("curves", ["rp,rp", "rp,cutset,rp", "serial, serial"])
    def test_duplicate_curves_rejected(self, curves, capsys):
        code, out, err = run(
            capsys, "dmt", "--dim", "2,2,2", "--curve", curves, "--decode", "1", "--format", "json"
        )
        assert code == 2 and out == ""
        assert "--curve takes distinct names" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_heterogeneous_parallel_af_is_partial(self, fmt, capsys):
        code, out, _ = run(
            capsys, "dmt", "--dim", "2,4,3", "--curve", "parallel-af",
            "--paths", "2,2,3;2,1,3", "--format", fmt,
        )
        assert code == 0
        rows = [["0", "6"], ["partial", "only d(0) is known for heterogeneous paths"]]
        if fmt == "csv":
            assert out == "curve,r,d\n" + "".join(f"parallel-af,{r},{d}\n" for r, d in rows)
        else:
            doc = {"dim": [2, 4, 3], "curves": {"parallel-af": rows}}
            assert out == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_df_curve_is_the_cutset_bound(self, fmt, capsys, dims_to_4_3):
        # DF at every relay layer is full cooperation, so the two curves print the same rows.
        for counts in dims_to_4_3:
            dim = ",".join(map(str, counts))
            code, out, _ = run(capsys, "dmt", "--dim", dim, "--curve", "df,cutset", "--format", fmt)
            assert code == 0
            if fmt == "csv":
                rows = [line.split(",", 1) for line in out.splitlines()[1:]]
                df, cutset = ([row for name, row in rows if name == curve] for curve in ("df", "cutset"))
            else:
                df, cutset = (json.loads(out)["curves"][curve] for curve in ("df", "cutset"))
            assert df == cutset and df, counts

    def test_options_accepted_with_their_curves(self, capsys):
        code, out, _ = run(
            capsys, "dmt", "--dim", "2,2,2", "--curve", "serial,ff-bound,parallel-af",
            "--decode", "1,2", "--k-modes", "2", "--paths", "1,1,1;1,1,1",
        )
        assert code == 0
        names = {line.split(",")[0] for line in out.splitlines()[1:]}
        assert names == {"serial", "ff-bound", "parallel-af"}


class TestReduceCommand:
    def test_141(self, capsys):
        code, out, _ = run(capsys, "reduce", "--dim", "1,4,1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["minimal_vertical_form"] == [1, 1, 1]

    def test_3142(self, capsys):
        code, out, _ = run(capsys, "reduce", "--dim", "3,1,4,2", "--format", "json")
        doc = json.loads(out)
        assert doc["n_bar"] == 2
        assert doc["practical_vertical_reduction"] == [3, 1, 2, 2]

    def test_self_minimal(self, capsys):
        code, out, _ = run(capsys, "reduce", "--dim", "2,3", "--format", "json")
        doc = json.loads(out)
        assert doc["practical_vertical_reduction"] == [2, 3]
        assert doc["order"] == 1


class TestPartitionCommand:
    def test_min_full_div(self, capsys):
        code, out, _ = run(capsys, "partition", "--dim", "2,4,3", "--min-full-div")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["paths"]) == 2

    def test_max(self, capsys):
        code, out, _ = run(capsys, "partition", "--dim", "2,2,2", "--max")
        doc = json.loads(out)
        assert len(doc["paths"]) == 4

    def test_max_all_ones(self, capsys):
        code, out, _ = run(capsys, "partition", "--dim", "1,1,1", "--max")
        doc = json.loads(out)
        assert len(doc["paths"]) == 1

    def test_requires_mode(self, capsys):
        code, _, err = run(capsys, "partition", "--dim", "2,2,2")
        assert code == 2

    def test_rejects_both_modes(self, capsys):
        code, out, err = run(capsys, "partition", "--dim", "2,2,2", "--max", "--min-full-div")
        assert code == 2
        assert out == ""
        assert "not allowed with" in err


class TestSimulateCommand:
    def test_af_csv_and_manifest(self, tmp_path, capsys):
        out_csv = tmp_path / "af.csv"
        code, _, _ = run(
            capsys, "simulate", "--dim", "2,2,2", "--scheme", "af", "--rate", "2",
            "--snr", "6:4:14", "--trials", "2e4", "--seed", "7",
            "--output", str(out_csv),
        )
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "snr_db,rate,trials,outages,p_hat,ci_lo,ci_hi"
        assert len(lines) == 4
        manifest = json.loads((tmp_path / "af.csv.manifest.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["scheme"] == {"kind": "af"}
        assert "config_hash" in manifest

    def test_rerun_byte_identical_any_workers(self, tmp_path, capsys, pool_sizes):
        args = [
            "simulate", "--dim", "2,2,2", "--scheme", "ff", "--rate", "2",
            "--snr", "8:4:16", "--trials", "2e4", "--seed", "11",
        ]
        paths = []
        runs = [("a.csv", []), ("b.csv", []), ("c.csv", ["--workers", "3"]),
                ("d.csv", ["--workers", "2"])]
        for name, extra in runs:
            out = tmp_path / name
            code, _, _ = run(capsys, *args, "--output", str(out), *extra)
            assert code == 0
            paths.append(out.read_bytes())
        assert paths[0] == paths[1] == paths[2] == paths[3]
        # One pool per pooled run, shared by its three SNR points.
        assert pool_sizes == [3, 2]

    def test_ff_without_partition_beyond_two_hops(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--dim", "2,2,2,2", "--scheme", "ff", "--rate", "2",
            "--snr", "10:2:12", "--trials", "1000",
        )
        assert code == 2
        assert "--partition" in err

    def test_ff_with_partition_file(self, tmp_path, capsys):
        part_file = tmp_path / "p.json"
        code, out, _ = run(capsys, "partition", "--dim", "2,2,2,2", "--max",
                           "--output", str(part_file))
        assert code == 0
        out_csv = tmp_path / "ff.csv"
        code, _, _ = run(
            capsys, "simulate", "--dim", "2,2,2,2", "--scheme", "ff", "--rate", "2",
            "--snr", "10:2:12", "--trials", "4096", "--seed", "3",
            "--partition", str(part_file), "--output", str(out_csv),
        )
        assert code == 0
        assert len(out_csv.read_text().splitlines()) == 3

    @pytest.mark.parametrize(
        "doc,message",
        [
            ({}, "'dim', 'layers' and 'paths'"),
            ({"dim": [2, 2, 2], "layers": [[[0, 1]], [[0], [1]], [[0, 1]]], "paths": [[0, 5, 0]]},
             "supernode 5 of layer 1, which has 2"),
            ({"dim": [2, 2, 2], "layers": [[[0, 1]], [[]], [[0, 1]]], "paths": [[0, 0, 0]]},
             "supernode cannot be empty"),
            ({"dim": [2, 2, 2], "layers": [[[0, 1]], [[-1, 0]], [[0, 1]]], "paths": [[0, 0, 0]]},
             "antenna indices are non-negative integers"),
            ({"dim": [2, 2, 2], "layers": [[[0, 1]], [[0], [1.5]], [[0, 1]]],
              "paths": [[0, 0, 0], [0, 1, 0]]},
             "antenna indices are non-negative integers"),
            ({"dim": [2, 2, 2], "layers": [[[0, 1]], [[0, 1]], [[0, 1]]], "paths": [[0]]},
             "a path spans at least two layers"),
            ({"dim": [2, 2, 2], "layers": [[[0, 1]], [[0, 1]], [[0, 1]]], "paths": []},
             "partition needs at least one path"),
            ({"dim": [2, 2, 2], "layers": [[[0, 1]], [[0, 1]], [[0, 1]]], "paths": [[0, 0]]},
             "path spans 2 layers, channel has 3"),
            # JSON true is not antenna, supernode or count 1, and 2.5 is not 2.
            ({"dim": [2, 2, 2], "layers": [[[0, 1]], [[0], [True]], [[0, 1]]],
              "paths": [[0, 0, 0], [0, 1, 0]]},
             "antenna indices are non-negative integers"),
            ({"dim": [2, 2, 2], "layers": [[[0, 1]], [[0], [1]], [[0, 1]]],
              "paths": [[0, 0, 0], [0, True, 0]]},
             "supernode True of layer 1, which has 2"),
            ({"dim": [True, 2, 2], "layers": [[[0]], [[0, 1]], [[0, 1]]], "paths": [[0, 0, 0]]},
             "antenna counts must be positive integers"),
            ({"dim": [2.5, 2, 2], "layers": [[[0, 1]], [[0, 1]], [[0, 1]]], "paths": [[0, 0, 0]]},
             "antenna counts must be positive integers"),
            # A repeated antenna, also as JSON true (== 1), is refused, not merged.
            ({"dim": [2, 2, 2], "layers": [[[0, 1]], [[0], [1, 1]], [[0, 1]]],
              "paths": [[0, 0, 0], [0, 1, 0]]},
             "supernode [1, 1] names antenna 1 twice"),
            ({"dim": [2, 2, 2], "layers": [[[0, 1]], [[0], [1, True]], [[0, 1]]],
              "paths": [[0, 0, 0], [0, 1, 0]]},
             "supernode [1, true] names antenna 1 twice"),
            # Every listed supernode obeys the rule, also one that no path refers to.
            ({"dim": [2, 2, 2], "layers": [[[0, 1]], [[0, 1], []], [[0, 1]]], "paths": [[0, 0, 0]]},
             "supernode cannot be empty"),
            ({"dim": [2, 2, 2], "layers": [[[0, 1]], [[0, 1], [-1]], [[0, 1]]], "paths": [[0, 0, 0]]},
             "antenna indices are non-negative integers"),
        ],
    )
    def test_malformed_partition_file(self, doc, message, tmp_path, capsys):
        part_file = tmp_path / "p.json"
        part_file.write_text(json.dumps(doc))
        code, out, err = run(
            capsys, "simulate", "--dim", "2,2,2", "--scheme", "ff", "--rate", "2",
            "--snr", "10:2:12", "--trials", "1000", "--partition", str(part_file),
        )
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("scheme", ["pf", "svd-align", "parallel-af"])
    def test_other_schemes_parse_and_run(self, scheme, capsys):
        code, out, _ = run(
            capsys, "simulate", "--dim", "2,2,2", "--scheme", scheme, "--rate", "2",
            "--snr", "10:4:14", "--trials", "2048", "--seed", "4",
        )
        assert code == 0
        assert len(out.splitlines()) == 3

    def test_multiplexing_rate_policy(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--dim", "2,2", "--scheme", "af", "--rate", "0.5",
            "--rate-policy", "multiplexing", "--snr", "10:6:22", "--trials", "2048",
            "--seed", "4",
        )
        assert code == 0
        rates = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
        assert rates[0] < rates[1] < rates[2]

    def test_df_scheme(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--dim", "3,1,4,2", "--scheme", "df", "--rate", "2",
            "--snr", "10:5:15", "--trials", "4096", "--seed", "1", "--decode", "2,3",
        )
        assert code == 0
        assert out.splitlines()[0].startswith("snr_db")

    def test_coded_ff(self, tmp_path, capsys):
        out_csv = tmp_path / "ser.csv"
        code, _, _ = run(
            capsys, "simulate", "--dim", "2,2,2", "--scheme", "coded-ff",
            "--code", "parallel-golden", "--snr", "10:4:14", "--trials", "2048",
            "--seed", "2", "--output", str(out_csv),
        )
        assert code == 0
        manifest = json.loads((tmp_path / "ser.csv.manifest.json").read_text())
        assert manifest["code"]["code"] == "parallel-golden"

    def test_rate_rejected_for_coded_schemes(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--dim", "2,2,2", "--scheme", "coded-ff", "--rate", "3",
            "--snr", "10:4:14", "--trials", "100",
        )
        assert code == 2 and out == ""
        assert "--rate" in err

    @pytest.mark.parametrize("scheme", ["af", "pf", "ff", "svd-align", "parallel-af", "coded-af"])
    def test_decode_rejected_outside_df(self, scheme, capsys):
        code, out, err = run(
            capsys, "simulate", "--dim", "2,2,2", "--scheme", scheme, "--rate", "2",
            "--snr", "10:4:14", "--trials", "100", "--decode", "1,2",
        )
        assert code == 2 and out == ""
        assert "--decode" in err

    @pytest.mark.parametrize("scheme", ["af", "pf", "svd-align", "df", "coded-af"])
    def test_partition_rejected_for_schemes_without_one(self, scheme, tmp_path, capsys):
        part_file = tmp_path / "p.json"
        assert run(capsys, "partition", "--dim", "2,2,2", "--max", "--output", str(part_file))[0] == 0
        extra = {"df": ["--rate", "2", "--decode", "2"], "coded-af": []}.get(scheme, ["--rate", "2"])
        code, out, err = run(
            capsys, "simulate", "--dim", "2,2,2", "--scheme", scheme, *extra,
            "--snr", "10:4:14", "--trials", "100", "--partition", str(part_file),
        )
        assert code == 2 and out == ""
        assert "--partition" in err

    @pytest.mark.parametrize("scheme", ["coded-af", "coded-ff"])
    def test_multiplexing_rate_policy_rejected_for_coded_schemes(self, scheme, capsys):
        code, out, err = run(
            capsys, "simulate", "--dim", "2,2,2", "--scheme", scheme,
            "--rate-policy", "multiplexing", "--snr", "10:4:14", "--trials", "100",
        )
        assert code == 2 and out == ""
        assert "--rate-policy" in err

    @pytest.mark.parametrize("scheme", ["coded-af", "coded-ff"])
    def test_fixed_rate_policy_rejected_for_coded_schemes(self, scheme, capsys):
        code, out, err = run(
            capsys, "simulate", "--dim", "2,2,2", "--scheme", scheme,
            "--rate-policy", "fixed", "--snr", "10:4:14", "--trials", "100",
        )
        assert code == 2 and out == ""
        assert f"--rate-policy not read by {scheme}" in err

    @pytest.mark.parametrize("scheme", ["af", "pf", "ff", "svd-align", "parallel-af"])
    @pytest.mark.parametrize("option,value", [("--qam", "16"), ("--qam", "4"), ("--code", "golden")])
    def test_coded_options_rejected_for_outage_schemes(self, scheme, option, value, capsys):
        code, out, err = run(
            capsys, "simulate", "--dim", "2,2,2", "--scheme", scheme, "--rate", "2",
            "--snr", "10:4:14", "--trials", "100", option, value,
        )
        assert code == 2 and out == ""
        assert f"{option} not read by {scheme}" in err

    def test_every_unread_option_named(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--dim", "2,2,2", "--scheme", "coded-af", "--rate", "2",
            "--decode", "1", "--snr", "10:4:14", "--trials", "100",
        )
        assert code == 2 and out == ""
        assert "--rate, --decode not read by coded-af" in err

    def test_coded_defaults_are_alamouti_and_4qam(self, tmp_path, capsys):
        """Omitting --code and --qam is the same run as naming alamouti and 4-QAM."""
        outputs = []
        for extra in ([], ["--code", "alamouti", "--qam", "4"]):
            out_csv = tmp_path / f"{len(extra)}.csv"
            code, _, _ = run(
                capsys, "simulate", "--dim", "2,2", "--scheme", "coded-af", "--snr", "10:4:14",
                "--trials", "256", "--seed", "3", "--output", str(out_csv), *extra,
            )
            manifest = tmp_path / f"{out_csv.name}.manifest.json"
            outputs.append((code, out_csv.read_bytes(), manifest.read_bytes()))
        assert outputs[0] == outputs[1] and outputs[0][0] == 0
        assert json.loads(outputs[0][2])["code"] == {
            "code": "alamouti", "k_sub": 1, "n_t": 2, "time_span": 2, "qam": 4
        }

    def test_unknown_code_rejected(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--dim", "2,2", "--scheme", "coded-af", "--code", "stacked-golden",
            "--snr", "10:4:14", "--trials", "100",
        )
        assert code == 2 and out == ""
        assert "--code" in err

    def test_bad_grid(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--dim", "2,2", "--scheme", "af", "--rate", "1",
            "--snr", "20:-2:10", "--trials", "100",
        )
        assert code == 2

    @pytest.mark.parametrize("grid", ["1:2", "1:2:3:4", "a:1:2"])
    def test_malformed_grid_rejected(self, grid, capsys):
        code, out, err = run(
            capsys, "simulate", "--dim", "2,2", "--scheme", "af", "--rate", "1",
            "--snr", grid, "--trials", "100",
        )
        assert code == 2 and out == ""
        assert f"SNR grid must be start:step:stop, got {grid!r}" in err

    @pytest.mark.parametrize("grid", ["nan:1:3", "0:nan:3", "0:1:nan", "-inf:1:0", "0:1:inf", "0:inf:3"])
    @pytest.mark.parametrize("scheme", ["af", "coded-af"])
    def test_non_finite_grid_rejected(self, grid, scheme, capsys):
        # A nan bound compares false and an infinite one is never reached.
        rate = ["--rate", "1"] if scheme == "af" else []
        code, out, err = run(
            capsys, "simulate", "--dim", "2,2", "--scheme", scheme, *rate,
            f"--snr={grid}", "--trials", "100",
        )
        assert code == 2 and out == ""
        assert "SNR grid must be finite and increasing" in err

    @pytest.mark.parametrize("grid", ["1e20:1:2e20", "0:1:10000", "0:1e-300:1"])
    def test_grid_over_point_limit_rejected(self, grid, capsys):
        # 1e20 + 1 == 1e20, so a running sum of steps never reached 2e20.
        code, out, err = run(
            capsys, "simulate", "--dim", "2,2", "--scheme", "af", "--rate", "1",
            f"--snr={grid}", "--trials", "1",
        )
        assert code == 2 and out == ""
        assert f"more than {MAX_GRID_POINTS} points" in err

    def test_grid_repeating_points_rejected(self, capsys):
        # At 9 decimals the points 0, 1e-10, ..., 4e-10 are all 0.
        code, out, err = run(
            capsys, "simulate", "--dim", "2,2", "--scheme", "af", "--rate", "1",
            "--snr=0:1e-10:1e-9", "--trials", "1",
        )
        assert code == 2 and out == ""
        assert "repeats points" in err

    def test_one_point_grid_at_huge_snr_ends(self, capsys):
        # The grid is the one point 1e20 dB, whose linear SNR overflows a float.
        code, out, err = run(
            capsys, "simulate", "--dim", "2,2", "--scheme", "af", "--rate", "1",
            "--snr=1e20:1:1e20", "--trials", "1",
        )
        assert code == 2 and out == ""
        assert "out of range" in err

    # At 3081 dB the linear SNR is finite but the relay chain overflows.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "scheme,trials,message",
        [
            (["af", "--rate", "1"], "1", "matrix has non-finite entries"),
            (["coded-af"], "100", "codeword scores are not finite"),
        ],
        ids=["af", "coded-af"],
    )
    def test_overflowing_snr_exits_3(self, scheme, trials, message, capsys):
        code, out, err = run(
            capsys, "simulate", "--dim", "2,2", "--scheme", *scheme,
            "--snr", "3081:1:3081", "--trials", trials,
        )
        assert code == 3 and out == ""
        assert f"numerical failure: {message}" in err

    @pytest.mark.parametrize(
        "grid,points",
        [
            ("8:2:30", [float(v) for v in range(8, 31, 2)]),
            ("0:0.1:0.3", [0.0, 0.1, 0.2, 0.3]),
            ("10:1:10", [10.0]),
            ("1e20:1:1e20", [1e20]),
            ("0:1:9999", [float(v) for v in range(MAX_GRID_POINTS)]),
        ],
    )
    def test_grid_points(self, grid, points):
        assert cli._parse_grid(grid) == points

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_rejected(self, workers, capsys):
        code, out, err = run(
            capsys, "simulate", "--dim", "2,2", "--scheme", "af", "--rate", "1",
            "--snr", "10:2:12", "--trials", "100", "--workers", workers,
        )
        assert code == 2 and out == ""
        assert "--workers" in err

    def test_workers_above_bound_rejected(self, capsys, pool_sizes):
        code, out, err = run(
            capsys, "simulate", "--dim", "2,2", "--scheme", "af", "--rate", "1",
            "--snr", "10:2:12", "--trials", "1e6", "--workers", str(cli.MAX_WORKERS + 1),
        )
        assert code == 2 and out == ""
        assert "--workers must be in 1..64" in err
        assert pool_sizes == []

    def test_fractional_trials_rejected(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--dim", "2,2", "--scheme", "af", "--rate", "1",
            "--snr", "10:2:12", "--trials", "2.9",
        )
        assert code == 2 and out == ""
        assert "--trials" in err

    def test_non_numeric_trials_rejected(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--dim", "2,2", "--scheme", "af", "--rate", "1",
            "--snr", "10:2:12", "--trials", "1e",
        )
        assert code == 2 and out == ""
        assert "error: argument --trials: must be a number, got '1e'" in err

    def test_exponent_trials_accepted(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--dim", "2,2", "--scheme", "af", "--rate", "1",
            "--snr", "10:2:10", "--trials", "2e3",
        )
        assert code == 0
        assert out.splitlines()[1].split(",")[2] == "2000"

    @pytest.mark.parametrize("rate", ["nan", "inf", "-inf"])
    def test_non_finite_rate_rejected(self, rate, capsys):
        code, out, err = run(
            capsys, "simulate", "--dim", "2,2", "--scheme", "af", "--rate", rate,
            "--snr", "10:2:12", "--trials", "100",
        )
        assert code == 2 and out == ""
        assert "--rate" in err

    # A valid run: each case below appends one malformed option, which argparse reads last.
    _RUN = ["simulate", "--dim", "2,2", "--scheme", "af", "--rate", "1",
            "--snr", "10:2:12", "--trials", "100"]

    @pytest.mark.parametrize(
        "argv,seed_env,option,reason",
        [
            (["dmt", "--dim", "0,2"], None, "--dim", "malformed dimension '0,2': antenna counts"),
            (["reduce", "--dim", "2,x"], None, "--dim", "malformed dimension '2,x'"),
            (["partition", "--max", "--dim", "2"], None, "--dim", "malformed dimension '2'"),
            (_RUN + ["--dim", ""], None, "--dim", "malformed dimension ''"),
            (_RUN + ["--snr", "1:2"], None, "--snr", "SNR grid must be start:step:stop, got '1:2'"),
            (_RUN + ["--snr=0:1:inf"], None, "--snr", "SNR grid must be finite and increasing"),
            (_RUN + ["--trials", "x"], None, "--trials", "must be a number, got 'x'"),
            (_RUN + ["--trials", "2.5"], None, "--trials", "must be a whole number of at least 1"),
            (["dmt", "--dim", "2,2,2", "--curve", "parallel-af", "--paths", "1,1,1;x"], None, "--paths",
             "malformed dimension 'x'"),
            (_RUN, "abc", "--seed", "invalid int value: 'abc'"),
        ],
    )
    def test_malformed_argument_is_a_usage_error(
        self, argv, seed_env, option, reason, capsys, monkeypatch
    ):
        """argparse refuses it before any command runs: usage, then the option and the reason."""
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        if seed_env is not None:
            monkeypatch.setenv(SEED_ENV_VAR, seed_env)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"usage: relaydmt {argv[0]} ")
        assert f"relaydmt {argv[0]}: error: argument {option}: {reason}" in err

    def test_unknown_scheme(self, capsys):
        code, _, _ = run(
            capsys, "simulate", "--dim", "2,2", "--scheme", "warp", "--rate", "1",
            "--snr", "10:2:12", "--trials", "100",
        )
        assert code == 2

    def test_seed_from_environment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RELAYDMT_SEED", "41")
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(
                capsys, "simulate", "--dim", "2,2", "--scheme", "af", "--rate", "1",
                "--snr", "10:2:12", "--trials", "4096", "--output", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("seed", ["18446744073709551616", "-18446744073709551616", "-1"])
    def test_seed_outside_64_bits_rejected(self, seed, capsys, monkeypatch):
        # Philox keys are 64-bit words; a wider seed would alias one inside.
        argv = ["simulate", "--dim", "2,2", "--scheme", "af", "--rate", "1",
                "--snr", "10:2:12", "--trials", "100"]
        code, out, err = run(capsys, *argv, "--seed", seed)
        assert code == 2 and out == ""
        assert "seed must be an integer in 0..2**64-1" in err
        monkeypatch.setenv("RELAYDMT_SEED", seed)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "seed must be an integer in 0..2**64-1" in err

    def test_largest_seed_accepted(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--dim", "2,2", "--scheme", "af", "--rate", "1",
            "--snr", "10:2:12", "--trials", "100", "--seed", "18446744073709551615",
        )
        assert code == 0
        assert json.loads(err)["seed"] == 2**64 - 1


# sha256 of the `simulate --seed 7 --trials 8192` CSV, one run per scheme,
# then the manifest's `config_hash`.  The digests depend on the installed
# numpy's `Generator` streams (numpy does not promise them stable across
# releases); a different numpy may need them recorded again, but a code
# change must leave them alone.  The `config_hash` leaves out the versions,
# so it holds on any host; it pins each scheme's and code's description.
_PINNED_CSV = {
    "af": (
        ["--dim", "2,2,2", "--scheme", "af", "--rate", "2", "--snr", "6:4:14"],
        "6531e4a1d878912b20bab65d4c3bc55acfb66258cb23bbaa41cc50b991650df7",
        "da70e70a66b1a08218a3fb576e2f203d68107825",
    ),
    "pf": (
        ["--dim", "1,4,2,1", "--scheme", "pf", "--rate", "1", "--snr", "4:4:12"],
        "73624ab78a6993fa677a28b9e063970d7a448a7d081f484cb00263d5ba794012",
        "3ad3875ea767ae0fc307797d812fee61af253213",
    ),
    "ff": (
        ["--dim", "2,2,2", "--scheme", "ff", "--rate", "2", "--snr", "6:4:14"],
        "9a92191a11b90b54107abd84dcf9a3c50463844abe1718c0512662f7af0bfb28",
        "61677e4ead73b93775440d4180705af86abb01ba",
    ),
    "df": (
        ["--dim", "3,1,4,2", "--scheme", "df", "--decode", "2,3", "--rate", "1", "--snr", "4:4:12"],
        "9aadf7cadd66b460c49823cf43ae73bbb787aea2eba092064a1e0220a7bc99ea",
        "1e5c53959596a1b95999db354106abe9614623e6",
    ),
    "parallel-af": (
        ["--dim", "2,2,2", "--scheme", "parallel-af", "--rate", "2", "--snr", "6:4:14"],
        "121eec6a9e33a38ace2090ebf9d8d1b7af2cecf9ba06c28bd1eee2db73a98687",
        "236559c3205b031afe21c3b249fa01b2cd19fedb",
    ),
    "svd-align": (
        ["--dim", "2,2,2", "--scheme", "svd-align", "--rate", "2", "--snr", "2:4:10"],
        "834cff137116d978bb631b61527e7f87a3851e398d22cacc50d47c3c4c87c206",
        "ea72e0f19ef6a9fd9d2de0dd23f4f465f468fde7",
    ),
    "coded-ff": (
        ["--dim", "2,2,2", "--scheme", "coded-ff", "--code", "parallel-golden", "--snr", "6:4:14"],
        "c3f5d2024e3268abac2bd6612ef082f60e2be32de2b34b444b10db3ad1000818",
        "1f145bb12ecfc573ea8794f45db89b6a363a30e0",
    ),
    "coded-af": (
        ["--dim", "2,1,2,2", "--scheme", "coded-af", "--snr", "6:4:14"],
        "5eb59065c827f5720e94103d6eb206767061f0d9c14d7cd73369a5cc6f11c36a",
        "42d1cab2d21ec6b1a94f15d56628e9aba6fd9b66",
    ),
    "coded-af-golden": (
        ["--dim", "2,2", "--scheme", "coded-af", "--code", "golden", "--snr", "6:4:14"],
        "d66becf8d2592d57864449f555d2a3b5bc9006ab0c370f44b4adf82bc6fc3f1a",
        "bbf91ba26067462ec2c57f61c6a778846d31fcf3",
    ),
}


@pytest.mark.parametrize("scheme", list(_PINNED_CSV))
def test_fixed_seed_csv_digest(scheme, tmp_path, capsys):
    """A fixed-seed CSV and its manifest's digest are what they were when pinned."""
    argv, digest, config_hash = _PINNED_CSV[scheme]
    out_csv = tmp_path / "run.csv"
    code, _, _ = run(
        capsys, "simulate", *argv, "--trials", "8192", "--seed", "7", "--output", str(out_csv)
    )
    assert code == 0
    assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == digest
    manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
    assert manifest["config_hash"] == config_hash


# --------------------------------------------------------------------------
# Every accepted option is honoured
# --------------------------------------------------------------------------
#
# The property builds argv for every subcommand from `build_parser()`'s
# actions: an option's choices, or values of its type, with malformed and
# out-of-range strings mixed in.  An option the parser types only as a
# string takes its values from `_STRING_VALUES`, so a new string option
# without an entry there fails the property.  Valid grids have one point
# and valid trial counts are at most 3, so a command takes milliseconds.

# Options whose value may leave every output byte unchanged, and why.
_EXEMPT = {
    "output": "it says where the CSV or JSON goes, not what it holds",
    "manifest": "it says where the manifest goes, not what it holds",
    "workers": "a run's results are the same for every worker count by design",
}
# Each option's valid values, then its malformed ones.  The dimensions are
# multi-hop: on one hop AF already meets the cut-set bound, so every FF mode
# count gives the same curve, a fact of the channel, not an ignored option.
_STRING_VALUES = {
    "dim": (("2,2,2", "2,4,3", "3,1,4,2"), ("2,x", "0,2", "")),
    "curve": (
        ("rp", "cutset", "df", "serial", "ff-bound", "parallel-af", "rp,ff-bound", "serial,df"),
        ("rp,rp", "warp"),
    ),
    "decode": (("2", "1,2", "3", "2,3"), ("0", "x")),
    "paths": (("1,1,1", "1,1,1;1,1,1", "1,2,1;1,1,1"), ("5,5,5", "1;x")),
    "snr": (("10:1:10", "14:1:14"), ("nan:1:3", "-inf:1:0", "0:1:inf", "20:-2:10", "1:2")),
    "trials": (("1", "3"), ("2.5", "0", "x")),
    "k_modes": (("1", "2", "3"), ("0", "-1", "2.5", "x")),
    "partition": (("min-2,2,2.json", "max-2,2,2.json", "max-2,4,3.json"),
                  ("empty.json", "missing.json")),
    "output": (("-", "out.txt"), ()),
    "manifest": (("manifest.json",), ()),
}
_TYPED_VALUES = {
    int: (("1", "2", "3"), ("0", "-1", str(2**64), "x")),
    float: (("0.5", "2", "-1"), ("nan", "inf", "x")),
}


def _option_values(action, dirs) -> tuple[list[str], list[str]]:
    """The valid and the malformed values of one option, as argv strings."""
    if action.choices is not None:
        return [str(c) for c in action.choices], ["bogus"]
    typed = _TYPED_VALUES.get(action.type)  # argparse's own types; the CLI's parsers are by name
    valid, bad = typed or _STRING_VALUES[action.dest]
    folder = {"partition": dirs[0], "output": dirs[1], "manifest": dirs[1]}.get(action.dest)
    if folder is not None:
        valid, bad = ([v if v == "-" else str(folder / v) for v in vs] for vs in (valid, bad))
    return list(valid), list(bad)


def _subcommands() -> dict:
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _slots(dirs) -> dict:
    """Per subcommand, ``{key: (flags, required, valid, malformed)}``; values are argv lists.

    A mutually exclusive group of flags is one slot whose values are its flags.
    """
    slots = {}
    for command, sub in _subcommands().items():
        slots[command] = {}
        grouped = set()
        for group in sub._mutually_exclusive_groups:
            flags = [a.option_strings[0] for a in group._group_actions]
            assert all(a.nargs == 0 for a in group._group_actions), "extend the property"
            slots[command]["/".join(flags)] = (flags, group.required, [[f] for f in flags], [flags])
            grouped.update(group._group_actions)
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction) or action in grouped:
                continue
            valid, bad = _option_values(action, dirs)
            flag = action.option_strings[0]
            slots[command][action.dest] = (
                [flag], action.required, [[f"{flag}={v}"] for v in valid], [[f"{flag}={v}"] for v in bad]
            )
    return slots


def _argv(command, chosen) -> list[str]:
    return [command] + [token for tokens in chosen.values() for token in tokens]


def _run_in(run_dir, argv):
    """Exit code, output bytes (stdout, the manifest on stderr, written files) and stderr."""
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (argv, code)
    files = tuple((p.name, p.read_bytes()) for p in sorted(run_dir.iterdir()))
    return code, (out.getvalue(), err.getvalue() if code == 0 else "", files), err.getvalue()


@pytest.fixture(scope="module")
def cli_slots(tmp_path_factory):
    """The slots of every subcommand, and the folder each command runs in.

    ``--partition`` values are files of a folder holding partitions of two
    dimensions and one empty document.
    """
    parts = tmp_path_factory.mktemp("partitions")
    for counts in ((2, 2, 2), (2, 4, 3)):
        name = ",".join(map(str, counts))
        (parts / f"max-{name}.json").write_text(
            partition.partition_to_json(counts, partition.max_partition(counts))
        )
    min_222 = partition.min_full_div_partition_2hop(2, 2, 2)[1]
    (parts / "min-2,2,2.json").write_text(partition.partition_to_json((2, 2, 2), min_222))
    (parts / "empty.json").write_text("{}")
    run_dir = tmp_path_factory.mktemp("run") / "out"
    return _slots((parts, run_dir)), run_dir


@pytest.mark.parametrize("command", sorted(_subcommands()))
@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rng=st.randoms(use_true_random=False))
def test_every_accepted_option_is_honoured(command, cli_slots, rng):
    """Exit 0, 2 or 3; an accepted command is repeatable, and each option it names matters.

    A command draws each optional option with probability 1/3 and a
    malformed value with probability 1/6.  One that exits 2 is repaired a
    few times toward one that is accepted: each option its error names is
    dropped if optional and drawn again if not, and an error naming none
    does the same to one drawn option.  For each option of an accepted
    command, other than those in `_EXEMPT`, some other valid value must
    change the output bytes or exit 2; an option that no value moves is
    ignored.  Not every value need move it: with `--paths`, the
    parallel-af curve reads the dimension only to check that the paths fit.
    """
    slots, run_dir = cli_slots[0][command], cli_slots[1]
    by_flag = {flag: key for key, (flags, *_) in slots.items() for flag in flags}
    # --trials is always given: a run of the default 10^5 trials takes seconds.
    kept = {key for key, (_, required, *_) in slots.items() if required or key == "trials"}

    def value(key, malformed_ok=True):
        _, _, valid, bad = slots[key]
        return rng.choice(bad if malformed_ok and bad and rng.random() < 1 / 6 else valid)

    chosen = {key: value(key) for key in slots if key in kept or rng.random() < 1 / 3}
    with mock.patch.dict(os.environ):
        os.environ.pop(SEED_ENV_VAR, None)
        for _ in range(6):
            code, output, err = _run_in(run_dir, _argv(command, chosen))
            if code != 2:
                break
            # Only the error line: a usage line before it names every option.
            message = err.rpartition("error:")[2]
            named = {by_flag[f] for f in re.findall(r"--[a-z][a-z-]*", message) if f in by_flag}
            for key in named or [rng.choice(sorted(chosen))]:
                if key in chosen and key not in kept:
                    del chosen[key]
                else:
                    chosen[key] = value(key, malformed_ok=False)
        if code != 0:
            return
        assert _run_in(run_dir, _argv(command, chosen))[:2] == (0, output)
        for key in chosen:
            if key in _EXEMPT:
                continue
            others = [v for v in slots[key][2] if v != chosen[key]]
            assert any(
                changed_code == 2 or changed != output
                for changed_code, changed, _ in (
                    _run_in(run_dir, _argv(command, {**chosen, key: v})) for v in others
                )
            ), f"no other value of {key} changes the output of {' '.join(_argv(command, chosen))}"
