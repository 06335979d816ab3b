"""Randomized checker for the order laws (and one deliberate non-law).

Each law is checked on vectorized batches of seeded random samples and,
when a violation is found, re-confirmed on the single witness tuple with
the scalar comparison, so every counterexample is reproducible in
isolation.

Samples are dyadic rationals k/8 with |k| <= 64.  At that granularity
every sum, difference and scaling the laws perform is exact in binary
floating point, so rounding can never fabricate a counterexample.
Real-part and full ties are injected with fixed probability to exercise
the tie-breaking branches, which uniform sampling would almost never
hit.  The PRNG is numpy's seeded PCG64, so reports are byte-identical
across runs for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import UnknownLawError
from .lexorder import Ordering, lex_cmp, lex_le

__all__ = ["LawReport", "LAW_IDS", "MAX_SAMPLES", "check_law", "check_all", "recheck", "is_law",
           "all_as_expected"]

# Largest sample count per law, checked before anything is allocated.  A
# law holds up to about twenty float64 arrays of length n at once:
# check_all peaks near 180 MB RSS at 2^20 samples, so the cap keeps it
# near 0.6 GB.
MAX_SAMPLES = 1 << 22


@dataclass(frozen=True)
class LawReport:
    law_id: str
    samples: int
    outcome: str  # "pass" | "counterexample"
    witness: tuple[complex, ...] | None

    def __post_init__(self):
        if self.outcome not in ("pass", "counterexample"):
            raise ValueError(f"bad outcome {self.outcome!r}")
        if self.outcome == "counterexample" and self.witness is None:
            raise ValueError("counterexample reports carry a witness")


def _coords(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    re = rng.integers(-64, 65, size=n).astype(np.float64) / 8.0
    im = rng.integers(-64, 65, size=n).astype(np.float64) / 8.0
    return re, im


def _tied_pair(rng, n, ar, ai):
    """Second operand with real-part / full ties injected at fixed rates."""
    br, bi = _coords(rng, n)
    tie_re = rng.random(n) < 0.25
    br = np.where(tie_re, ar, br)
    tie_im = rng.random(n) < 0.25
    bi = np.where(tie_im & tie_re, ai, bi)
    return br, bi


def _vcmp(ar, ai, br, bi):
    """Vectorized dictionary comparison: -1 / 0 / +1 per lane."""
    less = (ar < br) | ((ar == br) & (ai < bi))
    greater = (ar > br) | ((ar == br) & (ai > bi))
    return greater.astype(np.int8) - less.astype(np.int8)


def _vle(ar, ai, br, bi):
    return (ar < br) | ((ar == br) & (ai <= bi))


class _Law(NamedTuple):
    law_id: str
    is_law: bool
    description: str
    vector_check: Callable[[np.random.Generator, int], tuple[np.ndarray, tuple[np.ndarray, ...]]]
    scalar_check: Callable[..., bool]


def _check_reflexivity(rng, n):
    ar, ai = _coords(rng, n)
    ok = _vcmp(ar, ai, ar, ai) == 0
    return ok, (ar + 1j * ai,)


def _scalar_reflexivity(a):
    return lex_cmp(a, a) is Ordering.EQUAL


def _check_antisymmetry(rng, n):
    ar, ai = _coords(rng, n)
    br, bi = _tied_pair(rng, n, ar, ai)
    both = _vle(ar, ai, br, bi) & _vle(br, bi, ar, ai)
    equal = (ar == br) & (ai == bi)
    ok = both == equal
    return ok, (ar + 1j * ai, br + 1j * bi)


def _scalar_antisymmetry(a, b):
    return (lex_le(a, b) and lex_le(b, a)) == (a == b)


def _check_transitivity(rng, n):
    ar, ai = _coords(rng, n)
    br, bi = _tied_pair(rng, n, ar, ai)
    cr, ci = _tied_pair(rng, n, br, bi)
    premise = _vle(ar, ai, br, bi) & _vle(br, bi, cr, ci)
    ok = ~premise | _vle(ar, ai, cr, ci)
    return ok, (ar + 1j * ai, br + 1j * bi, cr + 1j * ci)


def _scalar_transitivity(a, b, c):
    if lex_le(a, b) and lex_le(b, c):
        return lex_le(a, c)
    return True


def _check_totality(rng, n):
    ar, ai = _coords(rng, n)
    br, bi = _tied_pair(rng, n, ar, ai)
    less = (ar < br) | ((ar == br) & (ai < bi))
    greater = (ar > br) | ((ar == br) & (ai > bi))
    equal = (ar == br) & (ai == bi)
    exactly_one = (
        less.astype(np.int8) + greater.astype(np.int8) + equal.astype(np.int8)
    ) == 1
    mirrored = _vcmp(ar, ai, br, bi) == -_vcmp(br, bi, ar, ai)
    ok = exactly_one & mirrored
    return ok, (ar + 1j * ai, br + 1j * bi)


def _scalar_totality(a, b):
    c1 = lex_cmp(a, b)
    c2 = lex_cmp(b, a)
    return int(c1) == -int(c2)


def _check_translation_invariance(rng, n):
    ar, ai = _coords(rng, n)
    br, bi = _tied_pair(rng, n, ar, ai)
    cr, ci = _coords(rng, n)
    ok = _vcmp(ar, ai, br, bi) == _vcmp(ar + cr, ai + ci, br + cr, bi + ci)
    return ok, (ar + 1j * ai, br + 1j * bi, cr + 1j * ci)


def _scalar_translation_invariance(a, b, c):
    return lex_cmp(a, b) is lex_cmp(a + c, b + c)


def _check_term_moving(rng, n):
    ar, ai = _coords(rng, n)
    br, bi = _coords(rng, n)
    cr, ci = _coords(rng, n)
    ok = _vle(ar + br, ai + bi, cr, ci) == _vle(ar, ai, cr - br, ci - bi)
    return ok, (ar + 1j * ai, br + 1j * bi, cr + 1j * ci)


def _scalar_term_moving(a, b, c):
    return lex_le(a + b, c) == lex_le(a, c - b)


def _check_additivity(rng, n):
    ar, ai = _coords(rng, n)
    br, bi = _tied_pair(rng, n, ar, ai)
    cr, ci = _coords(rng, n)
    dr, di = _tied_pair(rng, n, cr, ci)
    premise = _vle(ar, ai, br, bi) & _vle(cr, ci, dr, di)
    ok = ~premise | _vle(ar + cr, ai + ci, br + dr, bi + di)
    return ok, (ar + 1j * ai, br + 1j * bi, cr + 1j * ci, dr + 1j * di)


def _scalar_additivity(a, b, c, d):
    if lex_le(a, b) and lex_le(c, d):
        return lex_le(a + c, b + d)
    return True


def _positive_factor(rng, n):
    return rng.integers(1, 65, size=n).astype(np.float64) / 8.0


def _check_positive_scaling(rng, n):
    ar, ai = _coords(rng, n)
    br, bi = _tied_pair(rng, n, ar, ai)
    r = _positive_factor(rng, n)
    ok = _vcmp(ar, ai, br, bi) == _vcmp(r * ar, r * ai, r * br, r * bi)
    return ok, (ar + 1j * ai, br + 1j * bi, r + 0j)


def _scalar_positive_scaling(a, b, r):
    k = r.real
    return lex_cmp(a, b) is lex_cmp(complex(k * a.real, k * a.imag), complex(k * b.real, k * b.imag))


def _check_negative_scaling_reversal(rng, n):
    ar, ai = _coords(rng, n)
    br, bi = _tied_pair(rng, n, ar, ai)
    r = -_positive_factor(rng, n)
    ok = _vcmp(r * ar, r * ai, r * br, r * bi) == -_vcmp(ar, ai, br, bi)
    return ok, (ar + 1j * ai, br + 1j * bi, r + 0j)


def _scalar_negative_scaling_reversal(a, b, r):
    k = r.real
    scaled = lex_cmp(complex(k * a.real, k * a.imag), complex(k * b.real, k * b.imag))
    return int(scaled) == -int(lex_cmp(a, b))


def _check_complex_scalar_monotonicity(rng, n):
    ar, ai = _coords(rng, n)
    br, bi = _tied_pair(rng, n, ar, ai)
    cr, ci = _coords(rng, n)
    premise = _vle(ar, ai, br, bi)
    acr = ar * cr - ai * ci
    aci = ar * ci + ai * cr
    bcr = br * cr - bi * ci
    bci = br * ci + bi * cr
    ok = ~premise | _vle(acr, aci, bcr, bci)
    return ok, (ar + 1j * ai, br + 1j * bi, cr + 1j * ci)


def _scalar_complex_scalar_monotonicity(a, b, c):
    if lex_le(a, b):
        return lex_le(a * c, b * c)
    return True


_REGISTRY: dict[str, _Law] = {}


def _register(law_id, is_law, description, vector_check, scalar_check):
    _REGISTRY[law_id] = _Law(law_id, is_law, description, vector_check, scalar_check)


_register("Reflexivity", True, "every value compares equal to itself",
          _check_reflexivity, _scalar_reflexivity)
_register("Antisymmetry", True, "mutual <= holds exactly for identical values",
          _check_antisymmetry, _scalar_antisymmetry)
_register("Transitivity", True, "A <= B and B <= C imply A <= C",
          _check_transitivity, _scalar_transitivity)
_register("Totality", True, "exactly one of <, =, > holds and swapping operands mirrors it",
          _check_totality, _scalar_totality)
_register("TranslationInvariance", True, "adding the same value to both sides preserves the comparison",
          _check_translation_invariance, _scalar_translation_invariance)
_register("TermMoving", True, "a term moves across the relation with its sign flipped",
          _check_term_moving, _scalar_term_moving)
_register("Additivity", True, "inequalities add side by side",
          _check_additivity, _scalar_additivity)
_register("PositiveScaling", True, "scaling both sides by a positive real preserves the comparison",
          _check_positive_scaling, _scalar_positive_scaling)
_register("NegativeScalingReversal", True, "scaling both sides by a negative real reverses the comparison",
          _check_negative_scaling_reversal, _scalar_negative_scaling_reversal)
_register("ComplexScalarMonotonicity", False,
          "multiplying both sides by a complex factor would preserve <= (it does not)",
          _check_complex_scalar_monotonicity, _scalar_complex_scalar_monotonicity)

LAW_IDS: tuple[str, ...] = tuple(_REGISTRY)


def is_law(law_id: str) -> bool:
    """True when the registry expects the law to hold."""
    if law_id not in _REGISTRY:
        raise UnknownLawError(f"unknown law id {law_id!r}; known: {', '.join(LAW_IDS)}")
    return _REGISTRY[law_id].is_law


def law_description(law_id: str) -> str:
    if law_id not in _REGISTRY:
        raise UnknownLawError(f"unknown law id {law_id!r}; known: {', '.join(LAW_IDS)}")
    return _REGISTRY[law_id].description


def check_law(law_id: str, samples: int = 10_000, seed: int = 0) -> LawReport:
    """Run one law over ``samples`` seeded random tuples.

    For a genuine law the outcome is "pass" unless a bug breaks it; for
    the registered non-law the outcome is "counterexample" with the
    first violating tuple as witness.  The same seed always yields the
    same report.
    """
    if law_id not in _REGISTRY:
        raise UnknownLawError(f"unknown law id {law_id!r}; known: {', '.join(LAW_IDS)}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if samples > MAX_SAMPLES:
        raise ValueError(f"samples must be <= {MAX_SAMPLES} (laws.MAX_SAMPLES), got {samples}")
    law = _REGISTRY[law_id]
    rng = np.random.default_rng(seed)
    ok, tuples = law.vector_check(rng, samples)
    if bool(ok.all()):
        return LawReport(law_id, samples, "pass", None)
    idx = int(np.argmax(~ok))
    witness = tuple(complex(t[idx]) for t in tuples)
    # confirm deterministically on the scalar path before reporting
    if law.scalar_check(*witness):
        raise AssertionError(
            f"vector check of {law_id} flagged a witness the scalar check accepts: {witness!r}"
        )
    return LawReport(law_id, samples, "counterexample", witness)


def recheck(law_id: str, witness: tuple[complex, ...]) -> bool:
    """Re-evaluate one law on a single tuple; True means the law holds there."""
    if law_id not in _REGISTRY:
        raise UnknownLawError(f"unknown law id {law_id!r}; known: {', '.join(LAW_IDS)}")
    return bool(_REGISTRY[law_id].scalar_check(*witness))


def check_all(samples: int = 10_000, seed: int = 0) -> list[LawReport]:
    """Check every registered law with the same seed, in registry order."""
    return [check_law(law_id, samples, seed) for law_id in LAW_IDS]


def all_as_expected(reports: list[LawReport]) -> bool:
    """True when genuine laws passed and non-laws produced verified witnesses."""
    for rep in reports:
        if is_law(rep.law_id):
            if rep.outcome != "pass":
                return False
        else:
            if rep.outcome != "counterexample":
                return False
            if recheck(rep.law_id, rep.witness):
                return False
    return True
