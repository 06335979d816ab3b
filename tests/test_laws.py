import json
import subprocess
import sys

import numpy as np
import pytest

from lexineq.errors import UnknownLawError
from lexineq.laws import (
    LAW_IDS,
    MAX_SAMPLES,
    all_as_expected,
    check_all,
    check_law,
    is_law,
    le,
    lt,
    recheck,
)
from lexineq.lexorder import Ordering, lex_cmp, lex_le

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


@pytest.mark.parametrize("seed, witness", [
    (0, (-3.75 + 3.125j, 7.5 - 4j, -3.125 - 3j)),
    (42, (-1.125 - 3.875j, 1 - 6.25j, -5 - 7.625j)),
])
def test_reports_pinned(seed, witness):
    # fixed across commits, not only between two runs: the sampling order is part of the output
    reports = check_all(samples=10_000, seed=seed)
    assert [r.outcome for r in reports if is_law(r.law_id)] == ["pass"] * len(GENUINE)
    (non_law,) = [r for r in reports if not is_law(r.law_id)]
    assert non_law.law_id == "ComplexScalarMonotonicity"
    assert non_law.outcome == "counterexample" and non_law.witness == witness


@pytest.mark.parametrize("law_id, witness, match", [
    ("Reflexivity", (1j, 2j), "takes 1 operands"),
    ("Additivity", (0j, 1j, 2j), "takes 4 operands"),
    ("PositiveScaling", (1 + 1j, 1 + 2j, complex(2, float("inf"))), "finite"),
    ("TermMoving", (complex(float("nan"), 0), 1j, 2j), "finite"),
    ("PositiveScaling", (1 + 1j, 1 + 2j, 2.5 + 7j), "positive real factor"),
    ("PositiveScaling", (1 + 1j, 1 + 2j, 0j), "positive real factor"),
    ("PositiveScaling", (1 + 1j, 1 + 2j, -2.5 + 0j), "positive real factor"),
    ("NegativeScalingReversal", (1 + 1j, 1 + 2j, 2.5 + 0j), "negative real factor"),
    ("NegativeScalingReversal", (1 + 1j, 1 + 2j, -2.5 - 1j), "negative real factor"),
])
def test_recheck_refuses_witness_outside_domain(law_id, witness, match):
    with pytest.raises(ValueError, match=match):
        recheck(law_id, witness)


def test_shared_comparison_agrees_with_lexorder():
    # every ordered pair of a 5x5 lattice: real ties, full ties and signed zeros
    coords = (-1.0, -0.0, 0.0, 0.5, 1.0)
    points = [complex(x, y) for x in coords for y in coords]
    pairs = [(a, b) for a in points for b in points]
    want_le = [lex_le(a, b) for a, b in pairs]
    want_lt = [lex_cmp(a, b) is Ordering.LESS for a, b in pairs]
    assert [le((a.real, a.imag), (b.real, b.imag)) for a, b in pairs] == want_le
    assert [lt((a.real, a.imag), (b.real, b.imag)) for a, b in pairs] == want_lt
    a = (np.array([p[0].real for p in pairs]), np.array([p[0].imag for p in pairs]))
    b = (np.array([p[1].real for p in pairs]), np.array([p[1].imag for p in pairs]))
    assert le(a, b).tolist() == want_le
    assert lt(a, b).tolist() == want_lt
