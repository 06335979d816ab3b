import json
import tracemalloc
import warnings

import pytest

from lexineq import cli, oracle
from lexineq.oracle import Membership, VerificationReport
from lexineq.region import Invert, Region, Rotate, Scale, Sqrt, Translate


def run(capsys, *argv):
    status = cli.main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


class TestSolve:
    def test_disc_solution(self, capsys):
        status, out, _ = run(capsys, "solve", "1/Z >= 1", "--verify")
        assert status == 0
        doc = json.loads(out)
        assert doc["schema"] == "lexineq/1"
        assert doc["problem"]["kind"] == "fractional"
        assert doc["classification"][0]["kind"] == "disc"
        assert doc["classification"][0]["center"] == {"re": 0.5, "im": 0.0}
        assert doc["classification"][0]["radius"] == 0.5
        assert doc["verification"]["passed"] is True
        assert doc["verification"]["mismatch_count"] == 0
        assert doc["solution"]["excluded_points"] == [{"re": 0.0, "im": 0.0}]

    def test_quadratic_chain_in_construction_order(self, capsys):
        status, out, _ = run(capsys, "solve", "(1i)*Z^2 + 2*Z + 1i >= 0")
        assert status == 0
        doc = json.loads(out)
        kinds = [t["kind"] for t in doc["solution"]["regions"][0]["transforms"]]
        assert kinds == ["sqrt", "rotate", "translate"]

    def test_system(self, capsys):
        status, out, _ = run(capsys, "solve", "Z >= 0 && (1i)*Z >= 0")
        assert status == 0
        doc = json.loads(out)
        assert doc["problem"]["kind"] == "linear-system"
        assert doc["solution"]["kind"] == "intersection"
        assert len(doc["solution"]["regions"]) == 2
        assert len(doc["classification"]) == 2

    def test_mixed_system(self, capsys):
        status, out, _ = run(capsys, "solve", "Z >= 0 && 1/(2*Z - 2) >= 1 && Z >= -1",
                             "--verify")
        assert status == 0
        doc = json.loads(out)
        assert doc["normalized_input"] == "Z >= 0.0 && 1.0 / (2.0 * Z - 2.0) >= 1.0 && Z >= -1.0"
        problem = doc["problem"]
        assert list(problem) == ["kind", "constraints"] and problem["kind"] == "system"
        assert [list(c) for c in problem["constraints"]] == [
            ["kind", "a", "b"], ["kind", "a", "b", "c", "d"], ["kind", "a", "b"]]
        assert [c["kind"] for c in problem["constraints"]] == ["linear", "fractional", "linear"]
        assert problem["constraints"][1]["c"] == {"re": -1.0, "im": 0.0}
        assert doc["denominator_scale"] is None  # the fraction's own scale is 2
        assert doc["solution"]["excluded_points"] == [{"re": 1.0, "im": 0.0}]
        assert len(doc["classification"]) == 3
        assert doc["verification"]["passed"] and doc["verification"]["skipped_pole"] == 1

    def test_strict_system(self, capsys):
        text = "Z >= 0 && (Z + 1)/(Z + 1) >= 0"
        status, out, err = run(capsys, "solve", text, "--strict")
        assert (status, out) == (1, "") and "B - A*C = 0" in err
        status, out, _ = run(capsys, "solve", text)
        assert status == 0
        assert json.loads(out)["solution"]["excluded_points"] == [{"re": -1.0, "im": 0.0}]

    def test_json_file_output(self, capsys, tmp_path):
        path = tmp_path / "doc.json"
        status, out, _ = run(capsys, "solve", "Z >= 1", "--json", str(path))
        assert status == 0
        assert out == ""
        doc = json.loads(path.read_text())
        assert doc["solution"]["regions"][0]["base"] == {"re": 1.0, "im": 0.0}

    def test_unwritable_json_path(self, capsys, tmp_path):
        path = tmp_path / "missing" / "doc.json"
        status, out, err = run(capsys, "solve", "Z >= 0", "--json", str(path))
        assert status == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("lexineq: error:")
        assert str(path) in lines[0]

    def test_parse_error_exit_code(self, capsys):
        status, _, err = run(capsys, "solve", "Z >=")
        assert status == 1
        assert "error" in err

    def test_unsupported_form_exit_code(self, capsys):
        status, _, err = run(capsys, "solve", "Z^3 >= 0")
        assert status == 1
        assert "solvable" in err or "degree" in err

    def test_folding_overflow_exit_code(self, capsys):
        status, out, err = run(capsys, "solve", "2^1024 >= Z")
        assert status == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("lexineq: error:")
        assert "overflows the float range" in lines[0]

    @pytest.mark.parametrize("text", ["(1e-300)*Z >= 1e300", "(1e-300)/(Z-1) >= 1e300"])
    def test_threshold_overflow_exit_code(self, capsys, text):
        # the threshold is 1e600: refused as out of the float range, not as a bad region field
        status, out, err = run(capsys, "solve", text)
        assert status == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("lexineq: error:")
        assert "float range" in lines[0]

    def test_fraction_numerator_overflow_refused(self, capsys):
        # B - A*C = 1e308 + 1e308 is beyond the float range: the refusal names it
        status, out, err = run(capsys, "solve", "(Z+(1e308))/(Z-(1e308)) >= 0")
        assert status == 1 and out == ""
        assert err == ("lexineq: error: computing the solution B - A*C overflows the "
                       "float range (about 1.8e308)\n")

    @pytest.mark.parametrize("flags", [(), ("--verify",)], ids=["plain", "verify"])
    def test_threshold_underflow_refused(self, capsys, flags):
        # 4|A|A underflows to 0 for |A| = 1e-170: refused as out of the float
        # range, not as the division by zero that would follow
        status, out, err = run(capsys, "solve", "(1e-170)*Z^2 + (1e-170)*Z + 1e-170 >= 0", *flags)
        assert status == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("lexineq: error:")
        assert "underflows the float range" in lines[0]
        assert "division by zero" not in lines[0]

    @pytest.mark.parametrize("text", ["(1.5e308+1.5e308i)*Z >= 1e308",
                                      "(1.5e308+1.5e308i)/Z >= 1"])
    @pytest.mark.parametrize("flags", [(), ("--verify",)], ids=["plain", "verify"])
    def test_modulus_overflow_refused(self, capsys, text, flags):
        # |A| (|B - A*C|) is beyond the float range although both components
        # are finite; dividing by it used to give the base anchor 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            status, out, err = run(capsys, "solve", text, *flags)
        assert status == 1 and out == "" and caught == []
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("lexineq: error:")
        assert "overflows the float range" in lines[0]

    def test_strict_degenerate(self, capsys):
        status, _, err = run(capsys, "solve", "(Z + 1)/(Z + 1) >= 0", "--strict")
        assert status == 1
        status, out, _ = run(capsys, "solve", "(Z + 1)/(Z + 1) >= 0")
        assert status == 0
        doc = json.loads(out)
        assert doc["solution"]["kind"] == "all"
        assert doc["solution"]["note"]

    def test_verification_failure_exit_code(self, capsys, monkeypatch):
        failing = VerificationReport(
            total=1, skipped_boundary=0, skipped_pole=0,
            mismatches=(oracle.Mismatch(0j, Membership.IN, Membership.OUT),),
            passed=False,
        )
        monkeypatch.setattr("lexineq.oracle.verify", lambda *a, **k: failing)
        status, out, _ = run(capsys, "solve", "Z >= 0", "--verify")
        assert status == 2
        doc = json.loads(out)
        assert doc["verification"]["passed"] is False
        assert doc["verification"]["mismatches"][0]["expected"] == "in"

    @pytest.mark.parametrize("argv", [
        ["Z >= 0", "--eps", "1e300"],
        ["Z >= 0", "--eps", "inf"],
        ["(1e-8)*Z - (1e-8) >= 0"],
    ], ids=["huge-eps", "inf-eps", "tiny-coefficients"])
    def test_verify_that_asserts_nothing_fails(self, capsys, argv):
        status, out, err = run(capsys, "solve", *argv, "--verify")
        assert status == 2
        v = json.loads(out)["verification"]
        assert list(v) == ["total", "skipped_boundary", "skipped_pole", "asserted",
                           "mismatch_count", "mismatches", "passed"]
        assert v["asserted"] == 0 and v["mismatch_count"] == 0 and v["passed"] is False
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("lexineq: verify asserted no probe")
        assert str(v["skipped_boundary"]) in lines[0]


class TestVerificationJson:
    def test_asserted_count(self, capsys):
        status, out, _ = run(capsys, "solve", "1/Z >= 1", "--verify")
        assert status == 0
        v = json.loads(out)["verification"]
        assert list(v)[:4] == ["total", "skipped_boundary", "skipped_pole", "asserted"]
        assert v["asserted"] == v["total"] - v["skipped_boundary"] - v["skipped_pole"]
        assert v["skipped_pole"] == 1


class TestRasterLimits:
    def test_oversized_grid_is_refused(self, capsys, tmp_path):
        out_path = tmp_path / "big.pgm"
        status, out, err = run(capsys, "raster", "Z >= 0", "--res", "100000,100000",
                               "--out", str(out_path))
        assert status == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("lexineq: error:")
        assert str(oracle.MAX_CELLS) in lines[0]
        assert not out_path.exists()


class TestCheck:
    @pytest.mark.parametrize(
        "expr,at,expected",
        [
            ("Z^2 >= 0", "i", "out"),
            ("Z^2 >= 0", "1", "in"),
            ("1/Z >= 1", "0", "pole"),
            ("1/Z >= 1", "0.5", "in"),
            ("Z >= 1+2i", "1+1.9i", "out"),
        ],
    )
    def test_check(self, capsys, expr, at, expected):
        status, out, _ = run(capsys, "check", expr, "--at", at)
        assert status == 0
        assert out.strip() == expected

    def test_bad_point(self, capsys):
        status, _, err = run(capsys, "check", "Z >= 0", "--at", "Z")
        assert status == 1


class TestRaster:
    def test_pgm(self, capsys, tmp_path):
        path = tmp_path / "out.pgm"
        status, _, _ = run(capsys, "raster", "Z >= 0", "--window=-1,1,-1,1",
                           "--res", "3,3", "--out", str(path))
        assert status == 0
        assert path.read_text() == "P2\n3 3\n2\n0 2 2\n0 2 2\n0 0 2\n"

    def test_pgm_memory_is_the_cells_and_the_buffer(self, capsys, tmp_path):
        # 1 byte per cell of codes and the 2-byte buffer written as it is:
        # no str decoded from the buffer, no bytes encoded back from it
        path = tmp_path / "out.pgm"
        args = ["raster", "1/Z >= 1", "--out", str(path)]
        assert cli.main(args + ["--res", "3,3"]) == 0  # imports out of the trace
        tracemalloc.start()
        try:
            status = cli.main(args + ["--res", "2000,2000"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert status == 0
        assert peak < 4 * 2000 * 2000
        assert path.stat().st_size == len("P2\n2000 2000\n2\n") + 2 * 2000 * 2000

    def test_csv(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        status, _, _ = run(capsys, "raster", "1/Z >= 1", "--window=-1,1,-1,1",
                           "--res", "3,3", "--out", str(path), "--format", "csv")
        assert status == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "re,im,state"
        assert "0.0,0.0,pole" in lines

    def test_bad_window(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["raster", "Z >= 0", "--window", "1,2,3", "--out", "x.pgm"])

    @pytest.mark.parametrize("window", ["-inf,1,-1,1", "-1,1,-1,inf"])
    def test_non_finite_window(self, capsys, tmp_path, window):
        path = tmp_path / "out.pgm"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status, out, err = run(capsys, "raster", "Z >= 0", f"--window={window}",
                                   "--res", "5,5", "--out", str(path))
        assert status == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("lexineq: error:")
        assert "finite" in lines[0]
        assert not path.exists()

    def test_unwritable_output_path(self, capsys, tmp_path):
        path = tmp_path / "missing" / "out.pgm"
        status, out, err = run(capsys, "raster", "Z >= 0", "--res", "3,3", "--out", str(path))
        assert status == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("lexineq: error:")
        assert str(path) in lines[0]


class TestLaws:
    def test_laws_json_and_exit(self, capsys):
        status, out, err = run(capsys, "laws", "--seed", "42", "--samples", "2000")
        assert status == 0 and err == ""
        reports = json.loads(out)
        assert len(reports) == 10
        by_id = {r["law_id"]: r for r in reports}
        assert by_id["Transitivity"]["outcome"] == "pass"
        assert by_id["ComplexScalarMonotonicity"]["outcome"] == "counterexample"
        assert by_id["ComplexScalarMonotonicity"]["is_law"] is False
        assert by_id["ComplexScalarMonotonicity"]["witness"] is not None

    def test_laws_not_as_expected_message(self, capsys):
        # one sample draws no counterexample to the non-law: exit 1 names it
        status, out, err = run(capsys, "laws", "--samples", "1")
        assert status == 1
        assert len(json.loads(out)) == 10
        assert err == ("lexineq: laws not as expected at --seed 0 --samples 1: "
                       "ComplexScalarMonotonicity (a law must pass; a non-law must yield "
                       "a counterexample that rechecks)\n")

    @pytest.mark.parametrize("seed", ["-1", "-42"])
    def test_negative_seed_refused(self, capsys, seed):
        status, out, err = run(capsys, "laws", "--seed", seed)
        assert status == 1 and out == ""
        assert err == f"lexineq: error: seed must be >= 0, got {seed}\n"


class TestEntryPoints:
    def test_module_invocation(self):
        import subprocess
        import sys

        out = subprocess.run([sys.executable, "-m", "lexineq", "--help"],
                             capture_output=True, text=True)
        assert out.returncode == 0
        assert "solve" in out.stdout and "laws" in out.stdout

    def test_console_script(self):
        """The ``[project.scripts]`` entry runs ``check``: the installed
        script when it is on PATH, else the ``module:attr`` that
        pyproject.toml names, called as the script would call it."""
        import os
        import shutil
        import subprocess
        import sys

        import lexineq

        exe = shutil.which("lexineq")
        if exe is not None:
            cmd = [exe]
        else:
            try:
                import tomllib
            except ModuleNotFoundError:  # Python 3.10
                pytest.skip("console script not on PATH and no tomllib to read pyproject.toml")
            root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
            with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
                target = tomllib.load(fh)["project"]["scripts"]["lexineq"]
            module, attr = target.split(":")
            src = os.path.dirname(os.path.dirname(lexineq.__file__))
            cmd = [sys.executable, "-c",
                   f"import sys; sys.path.insert(0, {src!r}); "
                   f"from {module} import {attr}; sys.exit({attr}())"]
        out = subprocess.run([*cmd, "check", "Z >= 0", "--at", "1"],
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0
        assert out.stdout.strip() == "in"


class TestRegionJson:
    def test_roundtrip(self):
        region = Region(1.5 - 0.25j, (Invert(), Rotate(0.75), Scale(2.0),
                                      Translate(1 + 2j), Sqrt()))
        doc = cli.region_to_json(region)
        assert cli.region_from_json(doc) == region

    def test_schema_shape(self):
        doc = cli.region_to_json(Region(0.5 + 0j, (Rotate(1.0),)))
        assert doc == {"base": {"re": 0.5, "im": 0.0},
                       "transforms": [{"kind": "rotate", "theta": 1.0}]}

    @pytest.mark.parametrize("where, what", [
        ('"base": {"re": BIG, "im": 0}, "transforms": []', "base anchor"),
        ('"base": {"re": 0, "im": 0}, "transforms": [{"kind": "scale", "r": BIG}]',
         "scale factor"),
        ('"base": {"re": 0, "im": 0}, "transforms": [{"kind": "rotate", "theta": BIG}]',
         "angle"),
        ('"base": {"re": 0, "im": 0}, "transforms": [{"kind": "translate", "re": 0, "im": BIG}]',
         "translation offset"),
    ])
    def test_int_beyond_float_range_refused(self, where, what):
        # JSON reads a 401-digit number as an int, which no float holds
        doc = json.loads("{" + where.replace("BIG", "9" * 401) + "}")
        with pytest.raises(ValueError, match=f"^{what} lies outside the float range$"):
            cli.region_from_json(doc)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            cli.region_from_json({"base": {"re": 0, "im": 0},
                                  "transforms": [{"kind": "shear"}]})
