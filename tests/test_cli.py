import hashlib
import json

import pytest

from relaydmt.cli import main


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

    @pytest.mark.parametrize("k_modes", ["0", "-1"])
    def test_k_modes_must_be_positive(self, k_modes, capsys):
        code, out, err = run(
            capsys, "dmt", "--dim", "2,2,2", "--curve", "ff-bound", "--k-modes", k_modes
        )
        assert code == 2 and out == ""
        assert "--k-modes must be at least 1" in err

    def test_ff_bound_requires_k_modes(self, capsys):
        code, out, err = run(capsys, "dmt", "--dim", "2,2,2", "--curve", "ff-bound")
        assert code == 2 and out == ""
        assert "--k-modes is required" in err

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

    def test_rerun_byte_identical_any_workers(self, tmp_path, capsys):
        args = [
            "simulate", "--dim", "2,2,2", "--scheme", "ff", "--rate", "2",
            "--snr", "8:4:16", "--trials", "2e4", "--seed", "11",
        ]
        paths = []
        for name, extra in [("a.csv", []), ("b.csv", []), ("c.csv", ["--workers", "3"])]:
            out = tmp_path / name
            code, _, _ = run(capsys, *args, "--output", str(out), *extra)
            assert code == 0
            paths.append(out.read_bytes())
        assert paths[0] == paths[1] == paths[2]

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

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_rejected(self, workers, capsys):
        code, out, err = run(
            capsys, "simulate", "--dim", "2,2", "--scheme", "af", "--rate", "1",
            "--snr", "10:2:12", "--trials", "100", "--workers", workers,
        )
        assert code == 2 and out == ""
        assert "--workers" in err

    def test_fractional_trials_rejected(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--dim", "2,2", "--scheme", "af", "--rate", "1",
            "--snr", "10:2:12", "--trials", "2.9",
        )
        assert code == 2 and out == ""
        assert "--trials" in err

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


# sha256 of the `simulate --seed 7 --trials 8192` CSV, one run per scheme.
# The digests depend on the installed numpy's `Generator` streams (numpy
# does not promise them stable across releases); a different numpy may
# need them recorded again, but a code change must leave them alone.
_PINNED_CSV = {
    "af": (
        ["--dim", "2,2,2", "--scheme", "af", "--rate", "2", "--snr", "6:4:14"],
        "6531e4a1d878912b20bab65d4c3bc55acfb66258cb23bbaa41cc50b991650df7",
    ),
    "pf": (
        ["--dim", "1,4,2,1", "--scheme", "pf", "--rate", "1", "--snr", "4:4:12"],
        "73624ab78a6993fa677a28b9e063970d7a448a7d081f484cb00263d5ba794012",
    ),
    "ff": (
        ["--dim", "2,2,2", "--scheme", "ff", "--rate", "2", "--snr", "6:4:14"],
        "9a92191a11b90b54107abd84dcf9a3c50463844abe1718c0512662f7af0bfb28",
    ),
    "df": (
        ["--dim", "3,1,4,2", "--scheme", "df", "--decode", "2,3", "--rate", "1", "--snr", "4:4:12"],
        "9aadf7cadd66b460c49823cf43ae73bbb787aea2eba092064a1e0220a7bc99ea",
    ),
    "parallel-af": (
        ["--dim", "2,2,2", "--scheme", "parallel-af", "--rate", "2", "--snr", "6:4:14"],
        "121eec6a9e33a38ace2090ebf9d8d1b7af2cecf9ba06c28bd1eee2db73a98687",
    ),
    "svd-align": (
        ["--dim", "2,2,2", "--scheme", "svd-align", "--rate", "2", "--snr", "2:4:10"],
        "834cff137116d978bb631b61527e7f87a3851e398d22cacc50d47c3c4c87c206",
    ),
    "coded-ff": (
        ["--dim", "2,2,2", "--scheme", "coded-ff", "--code", "parallel-golden", "--snr", "6:4:14"],
        "c3f5d2024e3268abac2bd6612ef082f60e2be32de2b34b444b10db3ad1000818",
    ),
}


@pytest.mark.parametrize("scheme", list(_PINNED_CSV))
def test_fixed_seed_csv_digest(scheme, tmp_path, capsys):
    """A fixed-seed CSV is byte-for-byte what it was when the digest was pinned."""
    argv, digest = _PINNED_CSV[scheme]
    out_csv = tmp_path / "run.csv"
    code, _, _ = run(
        capsys, "simulate", *argv, "--trials", "8192", "--seed", "7", "--output", str(out_csv)
    )
    assert code == 0
    assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == digest
