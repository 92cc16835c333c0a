import json
from pathlib import Path

import jsonschema
import pytest

from hslattice.cli import main
from hslattice.experiments import run_hsp_experiment, run_shift_experiment

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "report-schema-v1.json").read_text()
)


@pytest.fixture
def matrix_file(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write


def test_lattice_hnf_identity(matrix_file, capsys):
    f = matrix_file("id.txt", "2 2\n1 0\n0 1\n")
    assert main(["lattice", "hnf", f]) == 0
    assert capsys.readouterr().out == "2 2\n1 0\n0 1\n"


def test_lattice_snf(matrix_file, capsys):
    f = matrix_file("m.txt", "2 2\n2 0\n0 3\n")
    assert main(["lattice", "snf", f]) == 0
    assert capsys.readouterr().out == "2 2\n1 0\n0 6\n"


def test_lattice_lll_identity(matrix_file, capsys):
    f = matrix_file("id.txt", "2 2\n1 0\n0 1\n")
    assert main(["lattice", "lll", f]) == 0
    assert capsys.readouterr().out == "2 2\n1 0\n0 1\n"


def test_lattice_reciprocal_and_saturate(matrix_file, capsys):
    f = matrix_file("m.txt", "1 1\n2\n")
    assert main(["lattice", "reciprocal", f]) == 0
    assert capsys.readouterr().out == "1 1\n1/2\n"
    assert main(["lattice", "saturate", f]) == 0
    assert capsys.readouterr().out == "1 1\n1\n"


@pytest.mark.parametrize("argv,text", [
    (["lattice", "hnf"], "2 2\n1 2\n"),
    (["lattice", "snf"], "0 -1\n"),
    (["lattice", "snf"], "1 -1\n"),
], ids=["short", "negative-cols", "negative-entries"])
def test_lattice_parse_failure(matrix_file, capsys, argv, text):
    assert main(argv + [matrix_file("bad.txt", text)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_pf_example(capsys):
    assert main(["pf", "1/360"]) == 0
    assert capsys.readouterr().out.strip() == "-2 + 1/2 + 1/8 + 2/3 + 1/9 + 3/5"
    assert main(["pf", "1/360", "--abbrev"]) == 0
    assert capsys.readouterr().out.strip() == "-2 + 5/8 + 7/9 + 3/5"
    assert main(["pf", "7"]) == 0
    assert capsys.readouterr().out.strip() == "7"


@pytest.mark.parametrize("argv", [["pf", "1/0"], ["oracle", "rational", "3/0", "--accepted", "5"],
                                  ["lattice", "lll", "MATRIX"]],
                         ids=["pf", "oracle-rational", "matrix-entry"])
def test_zero_denominator(matrix_file, capsys, argv):
    argv = [matrix_file("z.txt", "1 1\n1/0\n") if a == "MATRIX" else a for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_oracle_brick(matrix_file, capsys):
    f = matrix_file("b.txt", "2 1\n7\n1\n")
    assert main(["oracle", "brick", "5 7", "--basis", f]) == 0
    out = capsys.readouterr().out.strip()
    assert out.split() == ["-44", "0"]


def test_oracle_rational(capsys):
    assert main(["oracle", "rational", "1/5", "--accepted", "5"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_oracle_sparse(capsys):
    assert main(["oracle", "sparse-simon", "e2+e5", "--accepted", "0,2,4,6"]) == 0
    assert capsys.readouterr().out.strip() == "e5"


def test_oracle_check_flags(matrix_file, capsys):
    f = matrix_file("b.txt", "2 2\n3 0\n0 3\n")
    assert main(["oracle", "brick", "1 2", "--basis", f, "--check"]) == 0
    assert main(["oracle", "rational", "1/6", "--accepted", "3", "--check"]) == 0
    assert main(["oracle", "sparse-simon", "e1", "--accepted", "0,2", "--check"]) == 0
    assert main(["oracle", "shift-pair", "1 2 0", "--basis", f, "--shift", "1 1",
                 "--check"]) == 0


def test_oracle_missing_basis(capsys):
    assert main(["oracle", "brick", "1 2"]) == 1
    assert "basis" in capsys.readouterr().err


def test_oracle_shift_pair(matrix_file, capsys):
    f = matrix_file("b.txt", "2 2\n3 0\n0 3\n")
    assert main(["oracle", "shift-pair", "1 2 1", "--basis", f, "--shift", "1 2"]) == 0
    tok1 = capsys.readouterr().out.strip()
    assert main(["oracle", "shift-pair", "0 0 0", "--basis", f, "--shift", "1 2"]) == 0
    tok0 = capsys.readouterr().out.strip()
    assert tok1 == tok0  # f(x, 1) = f(x - s, 0)


class TestReports:
    def test_hsp_schema_and_determinism(self):
        descriptor = {"k": 2, "secret": {"random_rank": "random", "entry_bound": 16}}
        r1 = run_hsp_experiment(descriptor, seed=5, trials=4)
        r2 = run_hsp_experiment(descriptor, seed=5, trials=4)
        jsonschema.validate(r1, SCHEMA)
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_shift_schema_and_determinism(self):
        descriptor = {"k": 1, "basis": [[8]], "t": 2, "shift": [3], "shift_bound": 3}
        r1 = run_shift_experiment(descriptor, seed=5, trials=3)
        r2 = run_shift_experiment(descriptor, seed=5, trials=3)
        jsonschema.validate(r1, SCHEMA)
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
        assert all(rec["qubits"] > 0 for rec in r1["trials"])

    def test_timing_optional(self):
        descriptor = {"k": 1, "secret": {"basis": [[2]]}}
        r = run_hsp_experiment(descriptor, seed=1, trials=1, timing=True)
        assert "wall_time_s" in r["trials"][0]
        r2 = run_hsp_experiment(descriptor, seed=1, trials=1)
        assert "wall_time_s" not in r2["trials"][0]

    def test_cli_json_output(self, tmp_path, capsys):
        d = tmp_path / "d.json"
        d.write_text(json.dumps({"k": 1, "secret": {"basis": [[4]]}}))
        assert main(["hsp-recover", str(d), "--seed", "3", "--trials", "2", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, SCHEMA)
        assert report["success_rate"] == 1.0

    def test_cli_shift_json(self, tmp_path, capsys):
        d = tmp_path / "s.json"
        d.write_text(json.dumps({"k": 1, "basis": [[8]], "t": 2, "shift": [3],
                                 "shift_bound": 3}))
        assert main(["shift-recover", str(d), "--seed", "3", "--trials", "2", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, SCHEMA)
        assert report["success_rate"] == 1.0

    def test_debug_trace(self, tmp_path, capsys):
        d = tmp_path / "d.json"
        d.write_text(json.dumps({"k": 2, "secret": {"basis": [[2, 0], [0, 2]]}}))
        assert main(["hsp-recover", str(d), "--seed", "1", "--trials", "1",
                     "--json", "--debug-trace"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "trace" in report["trials"][0]
        assert report["trials"][0]["trace"]["E"].startswith("3 3")

    def test_cli_huge_basis_entry(self, tmp_path, capsys):
        """A squared basis norm past the float range still gives a report."""
        d = tmp_path / "d.json"
        d.write_text(json.dumps({"k": 1, "secret": {"basis": [[10 ** 200]]}}))
        assert main(["hsp-recover", str(d), "--trials", "1", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["success_rate"] == 1.0

    def test_cli_descriptor_without_k(self, tmp_path, capsys):
        d = tmp_path / "d.json"
        d.write_text(json.dumps({"secret": {"basis": [[4]]}}))
        assert main(["hsp-recover", str(d), "--json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "'k'" in err

    def test_cli_negative_trials(self, tmp_path, capsys):
        d = tmp_path / "d.json"
        d.write_text(json.dumps({"k": 1, "secret": {"basis": [[4]]}}))
        assert main(["hsp-recover", str(d), "--trials", "-3", "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("command,descriptor,needle", [
        ("hsp-recover", {"k": 1, "secret": 5}, "secret"),
        ("hsp-recover", {"k": 1, "basis": [[4]]}, "basis"),
        ("shift-recover", {"k": 1, "basis": [[8]], "t": 2, "shift": [1, 2]}, "shift"),
        ("shift-recover", {"k": 2, "basis": [[8]], "t": 2}, "basis"),
        ("shift-recover", {"k": 1, "basis": [[8]], "t": 2, "m": 0}, "m"),
        ("shift-recover", {"k": 1, "basis": [[8]], "t": 2, "shift_bound": -1}, "shift_bound"),
        ("hsp-recover", {"k": 2, "secret": {"random_rank": 3}}, "random_rank"),
        ("hsp-recover", {"k": 1, "secret": {"random_rank": -1}}, "random_rank"),
        ("hsp-recover", {"k": 1, "secret": {"random_rank": 1, "entry_bound": 0}}, "entry_bound"),
        ("hsp-recover", {"k": 1, "retries": 0}, "retries"),
        ("hsp-recover", {"k": 1, "retries": 2, "t": 1}, "'t'"),
        ("hsp-recover", {"k": 1, "secret": {"basis": [[4]], "rank": 1}}, "'rank'"),
        ("shift-recover", {"k": 1, "basis": [[8]], "t": 2, "max_retries": 3}, "'max_retries'"),
        ("hsp-recover", [1], "object"),
        ("shift-recover", 5, "object"),
    ], ids=["secret-not-object", "hsp-top-level-basis", "shift-length-vs-k",
            "shift-rows-vs-k", "m-zero", "shift-bound-negative", "random-rank-above-k",
            "random-rank-negative", "entry-bound-zero", "retries-zero", "hsp-unknown-key",
            "secret-unknown-key", "shift-unknown-key", "hsp-not-object", "shift-not-object"])
    def test_cli_inconsistent_descriptor(self, tmp_path, capsys, command, descriptor, needle):
        d = tmp_path / "d.json"
        d.write_text(json.dumps(descriptor))
        assert main([command, str(d), "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert needle in captured.err

    @pytest.mark.parametrize("field,value", [
        ("shift", [[1]]),
        ("m", "2"),
        ("shift_bound", "3"),
        ("check", 1),
        ("t", True),
        ("basis", [["8"]]),
        ("basis", [[True]]),
        ("basis", [[8.5]]),
    ], ids=["shift-entry-list", "m-string", "shift-bound-string",
            "check-int", "t-bool", "basis-string", "basis-bool", "basis-float"])
    def test_cli_wrong_type_descriptor(self, tmp_path, capsys, field, value):
        d = tmp_path / "d.json"
        d.write_text(json.dumps({"k": 1, "basis": [[8]], "t": 2, field: value}))
        assert main(["shift-recover", str(d), "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert repr(field) in captured.err

    @pytest.mark.parametrize("descriptor,field", [
        ({"k": 1, "n": [1]}, "n"),
        ({"k": 1, "n": True}, "n"),
        ({"k": 1, "retries": "8"}, "retries"),
        ({"k": 1, "secret": {"entry_bound": [2]}}, "entry_bound"),
        ({"k": 1, "secret": {"random_rank": [1]}}, "random_rank"),
        ({"k": 2, "secret": {"basis": [[1.5, 2], [2, 4]]}}, "basis"),
        ({"k": 2, "secret": {"basis": [1, 2]}}, "basis"),
    ], ids=["n-list", "n-bool", "retries-string", "entry-bound-list", "random-rank-list",
            "basis-float", "basis-row-not-list"])
    def test_cli_hsp_wrong_type_descriptor(self, tmp_path, capsys, descriptor, field):
        d = tmp_path / "d.json"
        d.write_text(json.dumps(descriptor))
        assert main(["hsp-recover", str(d), "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert repr(field) in captured.err
