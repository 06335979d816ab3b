"""Start-up cost: the scalar commands run without importing numpy, no
command imports ``dataclasses`` (or, for the scalar ones, ``inspect`` and
``typing``), and each command loads only the lexineq modules it runs.

Each CLI case runs ``cli.main`` in a fresh interpreter, so modules loaded
by earlier tests cannot hide an import.
"""

import json
import os
import subprocess
import sys

import pytest

import lexineq
from lexineq.laws import LAW_IDS

# Modules too costly to import for a one-inequality call.  numpy itself
# imports inspect and typing, so the array commands can only be asked to
# skip dataclasses.
_WATCHED = ("numpy", "dataclasses", "inspect", "typing")

# Runs cli.main on the given arguments, then reports on two lines which
# watched modules, and which lexineq modules (by their names in the package)
# and json, were loaded after the probe started: the interpreter's start-up
# may already have imported some (typing, through a site-packages .pth
# file).  lexineq is imported from where this process found it, so that the
# scalar commands can run with -S, which skips the site module altogether.
_PROBE = (
    "import sys\n"
    "before = set(sys.modules)\n"
    f"sys.path.insert(0, {os.path.dirname(os.path.dirname(lexineq.__file__))!r})\n"
    "from lexineq import cli\n"
    "try:\n"
    "    status = cli.main(sys.argv[1:])\n"
    "except SystemExit as exc:  # --help\n"
    "    status = exc.code\n"
    "new = [m for m in sys.modules if m not in before]\n"
    f"loaded = [m for m in {_WATCHED!r} if m in new]\n"
    "package = sorted(m[len('lexineq.'):] for m in new if m.startswith('lexineq.'))\n"
    "sys.stderr.write(' '.join(loaded) + '\\n')\n"
    "sys.stderr.write(' '.join(package + ['json'] * ('json' in new)) + '\\n')\n"
    "sys.exit(status)\n"
)


def _run(*argv, site=False):
    """Run the probe; with ``site``, as the array commands need to find numpy.

    Returns the exit status, stdout, the other stderr lines, the watched
    modules loaded and the set of lexineq modules (and json) loaded.
    """
    proc = subprocess.run([sys.executable, *([] if site else ["-S"]), "-c", _PROBE, *argv],
                          capture_output=True, text=True, timeout=60)
    *messages, loaded, modules = proc.stderr.splitlines()
    return proc.returncode, proc.stdout, messages, loaded.split(), set(modules.split())


# The lexineq modules (and json) that each command loads, and no others.
# Where no bytecode cache is written, each one is compiled on every call.
_COMMON = {"cli", "lexorder", "_kernels", "_record", "errors"}
REFUSED_AT_PARSE = _COMMON | {"parser"}
REFUSED_AT_NORMALIZE = REFUSED_AT_PARSE | {"normalize"}
CHECK = REFUSED_AT_NORMALIZE | {"oracle"}
SOLVE = REFUSED_AT_NORMALIZE | {"solver", "region", "json"}
SOLVE_VERIFY = SOLVE | {"oracle", "_grid"}
RASTER = CHECK | {"_grid"}
LAWS = _COMMON | {"laws", "json"}


class TestScalarCommandsSkipNumpy:
    @pytest.mark.parametrize("text", [
        "(2+1i)*Z - 3 >= 0",
        "Z >= 1 && (1i)*Z >= 0",
        "1/Z >= 1",
        "Z^2 + 1 >= 0",
        "1/Z >= 1 && Z >= 0 && (1i)*Z >= -1",
    ], ids=["linear", "system", "fractional", "quadratic", "mixed-system"])
    def test_solve(self, text):
        status, out, messages, loaded, modules = _run("solve", text)
        assert (status, messages, loaded, modules) == (0, [], [], SOLVE)
        assert json.loads(out)["input"] == text

    def test_check(self):
        status, out, messages, loaded, modules = _run("check", "1/Z >= 1", "--at", "0.5+0.1i")
        assert (status, out, messages, loaded, modules) == (0, "in\n", [], [], CHECK)

    def test_check_system(self):
        status, out, messages, loaded, modules = _run("check", "1/Z >= 1 && Z >= 0",
                                                      "--at", "0.5+0.1i")
        assert (status, out, messages, loaded, modules) == (0, "in\n", [], [], CHECK)

    @pytest.mark.parametrize("text, expected", [
        ("Z >= ", REFUSED_AT_PARSE),
        ("Z^3 >= 1", REFUSED_AT_NORMALIZE),
        ("2^1024 >= Z", REFUSED_AT_NORMALIZE),
        ("Z >= 1 && Z^2 >= 1", REFUSED_AT_NORMALIZE),
    ], ids=["parse-error", "unsupported", "overflow", "quadratic-in-system"])
    def test_refused_input(self, text, expected):
        status, out, messages, loaded, modules = _run("solve", text)
        assert (status, out, loaded, modules) == (1, "", [], expected)
        assert len(messages) == 1 and messages[0].startswith("lexineq: error:")

    def test_help_loads_cli_only(self):
        status, out, messages, loaded, modules = _run("solve", "--help")
        assert (status, messages, loaded, modules) == (0, [], [], {"cli"})
        assert "--eps EPS" in out and "(default 1e-6)" in out


class TestArrayCommandsStillWork:
    def test_solve_verify(self):
        status, out, messages, loaded, modules = _run("solve", "1/Z >= 1", "--verify",
                                                      site=True)
        assert (status, messages, loaded[0], modules) == (0, [], "numpy", SOLVE_VERIFY)
        assert "dataclasses" not in loaded
        report = json.loads(out)["verification"]
        assert report["passed"] and report["asserted"] > 0

    def test_raster(self, tmp_path):
        path = tmp_path / "r.pgm"
        status, out, messages, loaded, modules = _run("raster", "1/Z >= 1", "--res", "5,3",
                                                      "--out", str(path), site=True)
        assert (status, out, messages, loaded[0], modules) == (0, "", [], "numpy", RASTER)
        assert "dataclasses" not in loaded
        assert path.read_text().startswith("P2\n5 3\n2\n")

    def test_laws(self):
        status, out, messages, loaded, modules = _run("laws", "--samples", "100", site=True)
        assert (status, messages, loaded[0], modules) == (0, [], "numpy", LAWS)
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
