import json
import subprocess
import sys

import pytest

from lexineq.errors import UnknownLawError
from lexineq.laws import (
    LAW_IDS,
    MAX_SAMPLES,
    all_as_expected,
    check_all,
    check_law,
    is_law,
    recheck,
)

GENUINE = [law for law in LAW_IDS if is_law(law)]
NON_LAWS = [law for law in LAW_IDS if not is_law(law)]


def test_registry_contents():
    assert LAW_IDS == (
        "Reflexivity",
        "Antisymmetry",
        "Transitivity",
        "Totality",
        "TranslationInvariance",
        "TermMoving",
        "Additivity",
        "PositiveScaling",
        "NegativeScalingReversal",
        "ComplexScalarMonotonicity",
    )
    assert NON_LAWS == ["ComplexScalarMonotonicity"]


@pytest.mark.parametrize("law_id", GENUINE)
def test_laws_pass(law_id):
    report = check_law(law_id, samples=10_000, seed=42)
    assert report.outcome == "pass"
    assert report.witness is None
    assert report.samples == 10_000


def test_transitivity_spec_run():
    assert check_law("Transitivity", samples=10_000, seed=42).outcome == "pass"


def test_positive_scaling_spec_run():
    assert check_law("PositiveScaling", samples=10_000, seed=7).outcome == "pass"


def test_non_law_yields_verified_counterexample():
    report = check_law("ComplexScalarMonotonicity", samples=10_000, seed=0)
    assert report.outcome == "counterexample"
    assert report.witness is not None and len(report.witness) == 3
    # re-checking the emitted witness must violate the claim deterministically
    assert recheck("ComplexScalarMonotonicity", report.witness) is False


def test_hand_counterexample():
    # 0 <= i, but multiplying both sides by i maps them to 0 and -1,
    # which reverses the comparison
    assert recheck("ComplexScalarMonotonicity", (0j, 1j, 1j)) is False


def test_reports_are_deterministic():
    a = check_all(samples=2_000, seed=42)
    b = check_all(samples=2_000, seed=42)
    assert a == b
    # byte-level equality of a JSON rendering
    def render(reports):
        return json.dumps(
            [
                {
                    "law_id": r.law_id,
                    "samples": r.samples,
                    "outcome": r.outcome,
                    "witness": None if r.witness is None
                    else [[w.real, w.imag] for w in r.witness],
                }
                for r in reports
            ]
        ).encode()

    assert render(a) == render(b)


def test_different_seeds_still_expected():
    for seed in (0, 1, 2, 3):
        assert all_as_expected(check_all(samples=2_000, seed=seed))


def test_unknown_law():
    with pytest.raises(UnknownLawError):
        check_law("Commutativity", samples=10, seed=0)
    with pytest.raises(UnknownLawError):
        recheck("nope", (0j,))


def test_bad_samples():
    with pytest.raises(ValueError):
        check_law("Reflexivity", samples=0, seed=0)


@pytest.mark.parametrize("samples", [MAX_SAMPLES + 1, 10_000_000_000_000])
def test_samples_over_cap(samples):
    # refused before any allocation: 10^13 samples would need tens of TiB
    with pytest.raises(ValueError, match=f"<= {MAX_SAMPLES}"):
        check_law("Reflexivity", samples=samples, seed=0)
    with pytest.raises(ValueError, match=f"<= {MAX_SAMPLES}"):
        check_all(samples=samples, seed=0)


def test_cli_refuses_samples_over_cap():
    proc = subprocess.run([sys.executable, "-m", "lexineq", "laws", "--samples", "10000000000000"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("lexineq: error:"), proc.stderr
    assert str(MAX_SAMPLES) in lines[0]


@pytest.mark.parametrize("law_id", GENUINE)
def test_recheck_accepts_law_on_samples(law_id):
    # scalar recheck agrees with the vector verdict on arbitrary tuples
    tuples = {
        "Reflexivity": (1.5 - 2j,),
        "Antisymmetry": (1 + 2j, 1 + 2j),
        "Transitivity": (1 + 0j, 1 + 1j, 2 + 0j),
        "Totality": (0.5 + 1j, 0.5 - 1j),
        "TranslationInvariance": (1 + 1j, 2 - 1j, -3 + 0.5j),
        "TermMoving": (1 + 1j, 2 - 1j, -3 + 0.5j),
        "Additivity": (1 + 0j, 2 + 0j, -1 + 1j, -1 + 2j),
        "PositiveScaling": (1 + 1j, 1 + 2j, 2.5 + 0j),
        "NegativeScalingReversal": (1 + 1j, 1 + 2j, -2.5 + 0j),
    }
    assert recheck(law_id, tuples[law_id]) is True
