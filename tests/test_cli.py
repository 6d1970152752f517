import json
import time

import pytest

from modgrid import cli
from modgrid.cli import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    main,
)
from modgrid.errors import OutOfRange
from modgrid.verification import CheckResult, run_verification


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


def test_count_transversal(capsys):
    code, report, err = run_json(
        capsys, "count", "--n", "7", "--transversal", "[0,1,4,5,2,3,6]"
    )
    assert code == EXIT_OK
    assert report["command"] == "count"
    assert report["result"]["triples"] == 3
    assert report["result"]["quadruples"] == 0
    assert "slope_histogram" in report["result"]
    assert "triples=3" in err


def test_count_rejects_non_permutation(capsys):
    code, out, err = run_cli(capsys, "count", "--n", "5", "--transversal", "[0,0,1,2,3]")
    assert code == EXIT_USAGE
    assert "error:" in err


def test_count_points_file(capsys, tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("0 0\n1 1  # diagonal\n2 2\n")
    code, report, _ = run_json(capsys, "count", "--n", "5", "--points", str(path))
    assert code == EXIT_OK
    assert report["result"]["triples"] == 1


def test_count_points_file_duplicate(capsys, tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("0 0\n1 1\n0 0\n")
    code, _, err = run_cli(capsys, "count", "--n", "5", "--points", str(path))
    assert code == EXIT_USAGE
    assert ":3:" in err and "duplicate" in err


def test_count_rejects_n_below_one(capsys, tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("0 0\n1 1\n2 2\n")
    for source in (["--points", str(path)], ["--transversal", "[]"]):
        code, out, err = run_cli(capsys, "count", "--n", "0", *source)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error:") and "Traceback" not in err


def test_count_at_a_large_prime_n(capsys, tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("0 0\n1 1\n2 2\n")
    start = time.perf_counter()
    code, report, _ = run_json(capsys, "count", "--n", str(2**61 - 1), "--points", str(path))
    assert time.perf_counter() - start < 1
    assert code == EXIT_OK and report["result"]["triples"] == 1


def test_psi_command(capsys):
    code, report, err = run_json(capsys, "psi", "--n", "7")
    assert code == EXIT_OK
    assert report["result"]["value"] == 3
    assert report["result"]["exact"] is True
    assert "psi(7) = 3" in err


def test_psi_mode_flag(capsys):
    code, report, _ = run_json(capsys, "psi", "--n", "9", "--mode", "any")
    assert code == EXIT_OK
    assert report["result"]["value"] == 12


def test_psi_budget_exit_code(capsys):
    code, report, err = run_json(capsys, "psi", "--n", "9", "--budget-nodes", "100")
    assert code == EXIT_BUDGET
    assert report["exact"] is False
    assert "upper bound" in err


def test_psi_rejects_n_below_one(capsys):
    code, out, err = run_cli(capsys, "psi", "--n", "0")
    assert code == EXIT_USAGE
    assert out == "" and "error:" in err


def test_psi_rejects_a_negative_budget(capsys):
    code, out, err = run_cli(capsys, "psi", "--n", "7", "--budget-nodes", "-1")
    assert code == EXIT_USAGE
    assert out == "" and "error:" in err


@pytest.mark.parametrize("flag,value", [("--workers", "0"), ("--workers", "-2"),
                                        ("--budget-seconds", "nan")])
def test_psi_rejects_a_budget_out_of_range(capsys, flag, value):
    code, out, err = run_cli(capsys, "psi", "--n", "5", flag, value)
    assert code == EXIT_USAGE
    assert out == "" and "error:" in err


def test_psi_rejects_a_bad_checkpoint(capsys, tmp_path):
    ckpt = tmp_path / "ckpt.json"
    # not JSON, and nested too deep for the parser
    for text in ("{", "[" * 100_000):
        ckpt.write_text(text)
        code, out, err = run_cli(capsys, "psi", "--n", "5", "--checkpoint", str(ckpt))
        assert code == EXIT_USAGE
        assert out == "" and "error:" in err and "Traceback" not in err


def test_unwritable_output_paths_fail_before_the_search(capsys, tmp_path, monkeypatch):
    def no_psi(*args, **kwargs):
        raise AssertionError("psi was called")

    missing = tmp_path / "missing"
    code, out, err = run_cli(capsys, "psi", "--n", "7",
                             "--checkpoint", str(missing / "ckpt.json"))
    assert code == EXIT_USAGE
    assert out == "" and "error:" in err
    monkeypatch.setattr(cli, "psi", no_psi)
    code, out, err = run_cli(capsys, "table", "--max-n", "3", "--out", str(missing / "t.csv"))
    assert code == EXIT_USAGE
    assert out == "" and "error:" in err


def test_psi_rejects_a_checkpoint_whose_branches_hold_no_transversal(capsys, tmp_path):
    # the remaining branch (0, 2, 3) at n = 10 is below its floor 2
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(json.dumps({
        "version": 2, "n": 10, "mode": "unit", "reduction": "canonical", "best": None,
        "witness": None, "remaining": [{"anchor": 2, "prefix": [0, 2, 3]}],
    }))
    code, out, err = run_cli(capsys, "psi", "--n", "10", "--checkpoint", str(ckpt))
    assert code == EXIT_USAGE
    assert out == "" and "error:" in err and "Traceback" not in err


def test_psi_checkpoint_resume(capsys, tmp_path):
    ckpt = str(tmp_path / "ckpt.json")
    code, _, _ = run_json(capsys, "psi", "--n", "9",
                          "--budget-nodes", "500", "--checkpoint", ckpt)
    assert code == EXIT_BUDGET
    code, report, _ = run_json(capsys, "psi", "--n", "9", "--checkpoint", ckpt)
    assert code == EXIT_OK
    assert report["result"]["value"] == 5


def test_table_command(capsys, tmp_path):
    out_file = tmp_path / "table.csv"
    code, report, _ = run_json(capsys, "table", "--max-n", "8", "--out", str(out_file))
    assert code == EXIT_OK
    values = [row["psi"] for row in report["result"]["rows"]]
    assert values == [0, 0, 1, 0, 2, 0, 3, 0]
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "n,psi,exact"
    assert lines[3] == "3,1,true"


def test_table_past_the_search_bound_fails_before_any_psi_call(capsys, monkeypatch):
    def no_psi(*args, **kwargs):
        raise AssertionError("psi was called")

    monkeypatch.setattr(cli, "psi", no_psi)
    code, out, err = run_cli(capsys, "table", "--max-n", "129", "--budget-nodes", "1")
    assert code == EXIT_USAGE
    assert out == "" and "error:" in err and "129" in err


def test_table_csv_format(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-n", "5", "--format", "csv")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "n,psi,exact"
    assert "5,2,true" in out


def test_construct_then_count_roundtrip(capsys):
    code, report, _ = run_json(capsys, "construct", "--family", "inverse", "--n", "11")
    assert code == EXIT_OK
    assert report["result"]["match"] is True
    sigma = report["result"]["sigma"]
    literal = ",".join(str(v) for v in sigma)
    code, count_report, _ = run_json(
        capsys, "count", "--n", "11", "--transversal", literal
    )
    assert code == EXIT_OK
    assert count_report["result"]["triples"] == 5


def test_construct_mobius(capsys):
    code, report, _ = run_json(
        capsys, "construct", "--family", "mobius", "--n", "11",
        "--params", "2", "3", "5", "1",
    )
    assert code == EXIT_OK
    assert report["result"]["counted"]["triples"] == 5


def test_construct_invalid_inputs(capsys):
    code, _, err = run_cli(capsys, "construct", "--family", "cubic", "--n", "7")
    assert code == EXIT_USAGE and "error:" in err
    code, _, _ = run_cli(capsys, "construct", "--family", "mobius", "--n", "7")
    assert code == EXIT_USAGE
    code, _, _ = run_cli(capsys, "construct", "--family", "inverse", "--n", "9")
    assert code == EXIT_USAGE


def test_pack_subcommands(capsys):
    code, report, _ = run_json(capsys, "pack", "exact", "26", "2")
    assert code == EXIT_OK
    assert report["result"]["value"] == 39
    assert [21, 5] in report["result"]["optima"]

    code, report, _ = run_json(capsys, "pack", "closed", "9", "3")
    assert code == EXIT_OK
    assert report["result"]["value"] == 3 and report["result"]["closed_form_matches"]

    code, report, _ = run_json(capsys, "pack", "greedy", "26", "2")
    assert code == EXIT_OK
    assert report["result"]["partition"] == [15, 11]
    assert report["result"]["cost"] == 40 > report["result"]["exact_value"]

    code, report, _ = run_json(capsys, "pack", "jensen", "30", "3")
    assert code == EXIT_OK
    assert report["result"]["bound"] <= report["result"]["exact_value"]

    code, report, _ = run_json(capsys, "pack", "canonical", "7", "3")
    assert code == EXIT_OK
    assert sum(report["result"]["partition"]) == 7


def test_pack_jensen_rejects_a_float_overflow(capsys):
    code, out, err = run_cli(capsys, "pack", "jensen", str(10**400), "1")
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_pack_exact_at_the_bounds(capsys):
    # the largest input the CLI accepts, K = K_BOUND and L = L_BOUND
    code, report, _ = run_json(capsys, "pack", "exact", "2000", "200")
    assert code == EXIT_OK
    assert report["result"]["value"] == 2000
    assert report["result"]["optima"] == [[10] * 200]
    assert report["result"]["optima_truncated"] is False


def test_pack_out_of_range(capsys):
    code, _, err = run_cli(capsys, "pack", "closed", "10", "3")
    assert code == EXIT_USAGE and "error:" in err


def test_verify_quick(capsys):
    code, report, err = run_json(capsys, "verify", "--level", "quick")
    assert code == EXIT_OK
    assert report["result"]["passed"] is True
    assert all(c["passed"] for c in report["result"]["checks"])
    assert "[PASS]" in err and "[FAIL]" not in err


def test_verify_failure_exit_code(capsys, monkeypatch):
    checks = [CheckResult("one", "1", "1", True), CheckResult("two", "2", "3", False)]
    monkeypatch.setattr(cli, "run_verification", lambda level: (checks, False))
    code, report, err = run_json(capsys, "verify")
    assert code == EXIT_VERIFY_FAILED
    assert report["exact"] is True and report["result"]["passed"] is False
    assert err.splitlines() == ["[PASS] one: expected 1, observed 1",
                                "[FAIL] two: expected 2, observed 3",
                                "verify quick: 1/2 checks passed"]


def test_run_verification_rejects_unknown_level():
    with pytest.raises(OutOfRange):
        run_verification("slow")


def test_unknown_arguments(capsys):
    assert run_cli(capsys, "nonsense")[0] == EXIT_USAGE
    assert run_cli(capsys, "psi")[0] == EXIT_USAGE
    assert run_cli(capsys, "psi", "--n", "7", "--mode", "bogus")[0] == EXIT_USAGE
    # every family is prime-only, and at prime n the two modes coincide
    assert run_cli(capsys, "construct", "--family", "inverse", "--n", "11",
                   "--mode", "unit")[0] == EXIT_USAGE


REPORT_KEYS = ["command", "parameters", "result", "exact", "elapsed_seconds", "version"]


@pytest.mark.parametrize("argv,command,params", [
    (["count", "--n", "7", "--transversal", "[0,1,4,5,2,3,6]"], "count", ["n", "mode"]),
    (["psi", "--n", "7"], "psi", ["n", "mode", "workers"]),
    (["table", "--max-n", "5"], "table", ["max_n", "mode"]),
    (["construct", "--family", "inverse", "--n", "11"], "construct", ["family", "n"]),
    (["pack", "exact", "26", "2"], "pack exact", ["K", "L"]),
    (["pack", "closed", "9", "3"], "pack closed", ["K", "L"]),
    (["pack", "greedy", "26", "2"], "pack greedy", ["K", "L"]),
    (["pack", "jensen", "30", "3"], "pack jensen", ["K", "L"]),
    (["pack", "canonical", "7", "3"], "pack canonical", ["K", "L"]),
    (["verify", "--level", "quick"], "verify", ["level"]),
])
def test_report_shape_of_every_subcommand(capsys, argv, command, params):
    code, report, _ = run_json(capsys, *argv)
    assert code == EXIT_OK
    assert list(report) == REPORT_KEYS + (["csv"] if command == "table" else [])
    assert report["command"] == command and report["exact"] is True
    assert list(report["parameters"]) == params
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == EXIT_OK
    rows = out.splitlines()
    if command == "table":
        assert rows == report["csv"]
    else:
        assert rows[0] == "key,value"
        assert [row.split(",", 1)[0] for row in rows[1:]] == list(report["result"])
