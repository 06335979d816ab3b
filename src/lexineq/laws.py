"""Randomized checker for the order laws (and one deliberate non-law).

Each law is one predicate over operands given as (re, im) component
pairs, built from the dictionary comparison ``_kernels.at_least``.  The
same predicate runs on float64 lanes of seeded random samples in
:func:`check_law` and on a witness's Python floats in :func:`recheck`:
a violation found on the lanes is re-confirmed on the single witness
tuple, so every counterexample is reproducible in isolation.

A law's operands are declared by a draw spec, one character per
operand: ``a`` fresh coordinates, ``t`` coordinates tied to the
previous operand (real-part and full ties injected at fixed rates to
exercise the tie-breaking branches, which uniform sampling would almost
never hit), ``+`` / ``-`` a positive / negative real factor.
:func:`recheck` refuses a witness outside that spec.

Samples are dyadic rationals k/8 with |k| <= 64.  At that granularity
every sum, difference and scaling the laws perform is exact in binary
floating point, so rounding can never fabricate a counterexample.  The
PRNG is numpy's seeded PCG64 and each spec draws in a fixed order, so
reports are byte-identical across runs for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import at_least
from .errors import UnknownLawError
from .lexorder import require_finite

__all__ = ["LawReport", "LAW_IDS", "MAX_SAMPLES", "check_law", "check_all", "recheck", "is_law",
           "all_as_expected"]

# Largest sample count per law, checked before anything is allocated.  A
# law holds up to about twenty float64 arrays of length n at once:
# check_all peaks near 135 MB RSS at 2^20 samples, so the cap keeps it
# under 0.6 GB.
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


def _draw(rng, n, draws):
    """Operand lanes for a draw spec, one (re, im) pair per character."""
    operands = []
    for kind in draws:
        if kind == "a":
            operands.append(_coords(rng, n))
        elif kind == "t":
            operands.append(_tied_pair(rng, n, *operands[-1]))
        else:
            r = rng.integers(1, 65, size=n) / 8.0
            operands.append((r if kind == "+" else -r, np.zeros(n)))
    return operands


# Predicates take operands as (re, im) pairs of floats or of float64
# lanes.  They combine comparisons only with & | ^ == <= >, which mean
# the same on Python bools and on numpy bool arrays; ``not``, ``~`` and
# ``.astype`` do not, so no predicate uses them.

def le(a, b):
    """a <= b in dictionary order."""
    return at_least(b[0], b[1], a[0], a[1])


def lt(a, b):
    """a < b in dictionary order."""
    return le(a, b) > le(b, a)


def _same(a, b):
    return (a[0] == b[0]) & (a[1] == b[1])


def _exactly_one(x, y, z):
    return (x ^ y ^ z) > (x & y & z)


def _same_order(a, b, c, d):
    """a, b compare as c, d do."""
    return (le(a, b) == le(c, d)) & (le(b, a) == le(d, c))


def _add(a, b):
    return a[0] + b[0], a[1] + b[1]


def _sub(a, b):
    return a[0] - b[0], a[1] - b[1]


def _mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


# law id -> (expected to hold, draw spec, predicate)
_LAWS = {
    "Reflexivity": (True, "a", lambda a: le(a, a)),
    "Antisymmetry": (True, "at", lambda a, b: (le(a, b) & le(b, a)) == _same(a, b)),
    "Transitivity": (True, "att", lambda a, b, c: (le(a, b) & le(b, c)) <= le(a, c)),
    "Totality": (True, "at", lambda a, b: _exactly_one(lt(a, b), lt(b, a), _same(a, b))),
    "TranslationInvariance": (True, "ata",
                              lambda a, b, c: _same_order(a, b, _add(a, c), _add(b, c))),
    "TermMoving": (True, "aaa", lambda a, b, c: le(_add(a, b), c) == le(a, _sub(c, b))),
    "Additivity": (True, "atat",
                   lambda a, b, c, d: (le(a, b) & le(c, d)) <= le(_add(a, c), _add(b, d))),
    "PositiveScaling": (True, "at+",
                        lambda a, b, r: _same_order(a, b, _mul(r, a), _mul(r, b))),
    "NegativeScalingReversal": (True, "at-",
                                lambda a, b, r: _same_order(a, b, _mul(r, b), _mul(r, a))),
    "ComplexScalarMonotonicity": (False, "ata",
                                  lambda a, b, c: le(a, b) <= le(_mul(a, c), _mul(b, c))),
}

LAW_IDS: tuple[str, ...] = tuple(_LAWS)


def _law(law_id: str):
    if law_id not in _LAWS:
        raise UnknownLawError(f"unknown law id {law_id!r}; known: {', '.join(LAW_IDS)}")
    return _LAWS[law_id]


def is_law(law_id: str) -> bool:
    """True when the registry expects the law to hold."""
    return _law(law_id)[0]


def check_law(law_id: str, samples: int = 10_000, seed: int = 0) -> LawReport:
    """Run one law over ``samples`` seeded random tuples.

    For a genuine law the outcome is "pass" unless a bug breaks it; for
    the registered non-law the outcome is "counterexample" with the
    first violating tuple as witness.  The same seed always yields the
    same report.
    """
    _, draws, holds = _law(law_id)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if samples > MAX_SAMPLES:
        raise ValueError(f"samples must be <= {MAX_SAMPLES} (laws.MAX_SAMPLES), got {samples}")
    operands = _draw(np.random.default_rng(seed), samples, draws)
    ok = holds(*operands)
    if bool(ok.all()):
        return LawReport(law_id, samples, "pass", None)
    idx = int(np.argmax(~ok))
    witness = tuple(complex(re[idx], im[idx]) for re, im in operands)
    # confirm on the witness's own floats before reporting
    if recheck(law_id, witness):
        raise AssertionError(
            f"lane check of {law_id} flagged a witness its float check accepts: {witness!r}"
        )
    return LawReport(law_id, samples, "counterexample", witness)


def recheck(law_id: str, witness: tuple[complex, ...]) -> bool:
    """Re-evaluate one law on a single tuple; True means the law holds there.

    The witness must lie in the law's domain: one finite operand per
    draw, and each factor real with the sign its law assumes.  A
    ValueError refuses anything else.
    """
    _, draws, holds = _law(law_id)
    if len(witness) != len(draws):
        raise ValueError(f"{law_id} takes {len(draws)} operands, got {len(witness)}")
    for k, (kind, w) in enumerate(zip(draws, witness)):
        require_finite(w, f"{law_id} operand {k}")
        if kind in "+-" and (w.imag != 0.0 or w.real == 0.0 or (w.real > 0.0) != (kind == "+")):
            sign = "positive" if kind == "+" else "negative"
            raise ValueError(f"{law_id} operand {k} must be a {sign} real factor, got {w!r}")
    return bool(holds(*((w.real, w.imag) for w in witness)))


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
