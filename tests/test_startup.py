"""Start-up cost: the scalar commands run without importing numpy, and no
command imports ``dataclasses`` (or, for the scalar ones, ``inspect``).

Each CLI case runs ``cli.main`` in a fresh interpreter, so modules loaded
by earlier tests cannot hide an import.
"""

import json
import subprocess
import sys

import pytest

import lexineq
from lexineq.laws import LAW_IDS

# Modules too costly to import for a one-inequality call.  numpy itself
# imports inspect, so the array commands can only be asked to skip
# dataclasses.
_WATCHED = ("numpy", "dataclasses", "inspect")

# Runs cli.main on the given arguments, then reports which watched modules
# were loaded.
_PROBE = (
    "import sys\n"
    "from lexineq import cli\n"
    "status = cli.main(sys.argv[1:])\n"
    f"sys.stderr.write(' '.join(m for m in {_WATCHED!r} if m in sys.modules) + '\\n')\n"
    "sys.exit(status)\n"
)


def _run(*argv):
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv],
                          capture_output=True, text=True, timeout=60)
    *messages, loaded = proc.stderr.splitlines()
    return proc.returncode, proc.stdout, messages, loaded.split()


class TestScalarCommandsSkipNumpy:
    @pytest.mark.parametrize("text", [
        "(2+1i)*Z - 3 >= 0",
        "Z >= 1 && (1i)*Z >= 0",
        "1/Z >= 1",
        "Z^2 + 1 >= 0",
    ], ids=["linear", "system", "fractional", "quadratic"])
    def test_solve(self, text):
        status, out, messages, loaded = _run("solve", text)
        assert (status, messages, loaded) == (0, [], [])
        assert json.loads(out)["input"] == text

    def test_check(self):
        status, out, messages, loaded = _run("check", "1/Z >= 1", "--at", "0.5+0.1i")
        assert (status, out, messages, loaded) == (0, "in\n", [], [])

    @pytest.mark.parametrize("text", ["Z >= ", "Z^3 >= 1", "2^1024 >= Z"],
                             ids=["parse-error", "unsupported", "overflow"])
    def test_refused_input(self, text):
        status, out, messages, loaded = _run("solve", text)
        assert (status, out, loaded) == (1, "", [])
        assert len(messages) == 1 and messages[0].startswith("lexineq: error:")


class TestArrayCommandsStillWork:
    def test_solve_verify(self):
        status, out, messages, loaded = _run("solve", "1/Z >= 1", "--verify")
        assert (status, messages, loaded[0]) == (0, [], "numpy")
        assert "dataclasses" not in loaded
        report = json.loads(out)["verification"]
        assert report["passed"] and report["asserted"] > 0

    def test_raster(self, tmp_path):
        path = tmp_path / "r.pgm"
        status, out, messages, loaded = _run("raster", "1/Z >= 1", "--res", "5,3",
                                             "--out", str(path))
        assert (status, out, messages, loaded[0]) == (0, "", [], "numpy")
        assert "dataclasses" not in loaded
        assert path.read_text().startswith("P2\n5 3\n2\n")

    def test_laws(self):
        status, out, messages, loaded = _run("laws", "--samples", "100")
        assert (status, messages, loaded[0]) == (0, [], "numpy")
        assert "dataclasses" not in loaded
        assert [r["law_id"] for r in json.loads(out)] == list(LAW_IDS)


class TestLazyPackageNames:
    def test_laws_names_importable(self):
        from lexineq import LAW_IDS as package_ids
        from lexineq import check_all, check_law, recheck
        assert package_ids is LAW_IDS
        assert callable(check_all) and callable(check_law) and callable(recheck)

    def test_attribute_access(self):
        from lexineq import laws
        assert lexineq.LawReport is laws.LawReport
        assert lexineq.check_all is laws.check_all

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            lexineq.no_such_name
        with pytest.raises(ImportError):
            from lexineq import no_such_name
