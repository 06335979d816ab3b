"""Seeded inequality texts for the benchmark workloads.

Everything here is plain Python and numpy: the library under test sees
only the texts, never the generator.  One seed gives one corpus.

Coefficients are multiples of 1/8 with both parts drawn from [-3, 3], so
literals print short and exact.  Each class has several templates with
varied nesting (redundant parentheses) and small integer exponents that
cancel during normalization.  The generator rejects draws whose
normalized leading coefficient would vanish or whose fraction would be
degenerate, so every text classifies into the class it was built for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CLASSES = ("linear", "linear-system", "fractional", "quadratic")

WINDOW = (-5.0, 5.0, -5.0, 5.0)

# |k| bound of the 2^k coefficient scaling in the known-defect set: the
# order is invariant under positive scaling, so every scaled problem has
# the same solution set as its unscaled twin.
SCALE_EXP_MAX = 600


@dataclass(frozen=True)
class Problem:
    text: str
    kind: str          # one of CLASSES: what the text must classify as
    scale_exp: int = 0  # coefficients were multiplied by 2**scale_exp


def _coef(rng: np.random.Generator, floor: float = 0.0) -> complex:
    while True:
        c = complex(int(rng.integers(-24, 25)) / 8.0, int(rng.integers(-24, 25)) / 8.0)
        if abs(c) > floor:
            return c


def lit(c: complex) -> str:
    """A parenthesized complex literal the lexineq grammar folds to one node."""
    re, im = c.real + 0.0, c.imag + 0.0
    sign = "-" if im < 0 else "+"
    return f"({re!r}{sign}{abs(im)!r}i)"


def _nest(rng: np.random.Generator, s: str) -> str:
    depth = int(rng.integers(0, 3))
    return "(" * depth + s + ")" * depth


def _linear(rng: np.random.Generator) -> str:
    form = int(rng.integers(0, 4))
    n = lambda s: _nest(rng, s)  # noqa: E731
    if form == 0:
        a, b, c = _coef(rng, 0.25), _coef(rng), _coef(rng)
        return f"{n(f'{lit(a)}*Z')} + {lit(b)} >= {lit(c)}"
    if form == 1:
        a, b, c = _coef(rng, 0.25), _coef(rng), _coef(rng)
        return f"{lit(a)}*{n(f'(Z - {lit(b)})')} <= {lit(c)}"
    if form == 2:
        # (Z+b)^2 - (Z+c)^2 = 2(b-c) Z + b^2 - c^2
        while True:
            b, c = _coef(rng), _coef(rng)
            if abs(b - c) > 0.25:
                break
        d = _coef(rng)
        return f"{n(f'(Z + {lit(b)})^2')} - (Z + {lit(c)})^2 >= {lit(d)}"
    # a*Z - (b*Z - c) >= d*(Z + e): leading coefficient a - b - d
    while True:
        a, b, d = _coef(rng), _coef(rng), _coef(rng)
        if abs(a - b - d) > 0.25:
            break
    c, e = _coef(rng), _coef(rng)
    return f"{lit(a)}*Z - {n(f'({lit(b)}*Z - {lit(c)})')} >= {lit(d)}*(Z + {lit(e)})"


def _fractional(rng: np.random.Generator) -> str:
    form = int(rng.integers(0, 3))
    while True:
        a, b, c, d = _coef(rng), _coef(rng), _coef(rng), _coef(rng)
        if form == 0:
            # (a Z + b)/(Z + c): degenerate when b - a c = 0
            w, text = b - a * c, f"{_nest(rng, f'({lit(a)}*Z + {lit(b)})')}/(Z + {lit(c)}) >= {lit(d)}"
        elif form == 1:
            s = float(2.0 ** int(rng.integers(-2, 3))) * (1.0 if rng.random() < 0.5 else -1.0)
            # (a Z + b)/(s Z + c): monic form has w = (b s - a c)/s^2
            w = b * s - a * c
            text = f"{lit(d)} <= ({lit(a)}*Z + {lit(b)})/({lit(complex(s, 0.0))}*Z + {lit(c)})"
        else:
            # a (Z + b)/(Z - c) = (a Z + a b)/(Z - c): w = a b + a c
            w = a * (b + c)
            text = f"({lit(a)}*{_nest(rng, f'(Z + {lit(b)})')})/(Z - {lit(c)}) >= {lit(d)}"
        if abs(w) > 0.25:
            return text


def _quadratic(rng: np.random.Generator) -> str:
    form = int(rng.integers(0, 4))
    a = _coef(rng, 0.25)
    b, c, d = _coef(rng), _coef(rng), _coef(rng)
    if form == 0:
        return f"{lit(a)}*Z^2 + {_nest(rng, f'{lit(b)}*Z')} + {lit(c)} >= {lit(d)}"
    if form == 1:
        return f"{lit(a)}*{_nest(rng, f'(Z + {lit(b)})^2')} >= {lit(c)}"
    if form == 2:
        return f"(Z + {lit(b)})*{_nest(rng, f'({lit(a)}*Z + {lit(c)})')} <= {lit(d)}*Z"
    # Z^3 - Z*(Z^2 - a Z) + b = a Z^2 + b
    return f"Z^3 - Z*{_nest(rng, f'(Z^2 - {lit(a)}*Z)')} + {lit(b)} >= {lit(c)}"


def generate(rng: np.random.Generator, kind: str) -> Problem:
    if kind == "linear":
        text = _linear(rng)
    elif kind == "linear-system":
        text = f"{_linear(rng)} && {_linear(rng)}"
    elif kind == "fractional":
        text = _fractional(rng)
    else:
        text = _quadratic(rng)
    return Problem(text, kind)


def corpus(rng: np.random.Generator, n: int, rotation: tuple[str, ...]) -> list[Problem]:
    """n problems whose classes follow ``rotation`` cyclically.

    A fixed rotation, rather than a seeded draw, keeps the class mix
    identical across seeds, so the seed moves coefficients and shapes but
    not the share of slow and fast classes.
    """
    return [generate(rng, rotation[i % len(rotation)]) for i in range(n)]


def scaled(rng: np.random.Generator, kind: str, k: int) -> Problem:
    """A problem whose solution set is scale-free, with coefficients times 2^k.

    Templates keep every scaled coefficient homogeneous, so the scaled
    inequality is the unscaled one multiplied by 2^k > 0.
    """
    f = 2.0 ** k
    s = lambda c: lit(c * f)  # noqa: E731
    if kind == "linear":
        text = f"{s(_coef(rng, 0.25))}*Z + {s(_coef(rng))} >= {s(_coef(rng))}"
    elif kind == "linear-system":
        text = (f"{s(_coef(rng, 0.25))}*Z - {s(_coef(rng))} >= 0 && "
                f"{s(_coef(rng, 0.25))}*Z - {s(_coef(rng))} >= 0")
    elif kind == "fractional":
        while True:
            a, b, c, d = _coef(rng), _coef(rng), _coef(rng), _coef(rng)
            if abs(b - a * c) > 0.25:
                break
        # the pole -c stays unscaled; numerator and threshold carry 2^k
        text = f"({s(a)}*Z + {s(b)})/(Z + {lit(c)}) >= {s(d)}"
    else:
        text = f"{s(_coef(rng, 0.25))}*Z^2 + {s(_coef(rng))}*Z + {s(_coef(rng))} >= {s(_coef(rng))}"
    return Problem(text, kind, k)


def scale_tail(rng: np.random.Generator, per_class: int) -> list[Problem]:
    """Exponents evenly spaced over [-SCALE_EXP_MAX, SCALE_EXP_MAX] for every class.

    The exponents are fixed, including both ends, so the share of
    extreme scales is the same for every seed; the seed draws the
    coefficients.
    """
    exps = [SCALE_EXP_MAX] if per_class == 1 else [
        round(-SCALE_EXP_MAX + 2 * SCALE_EXP_MAX * j / (per_class - 1)) for j in range(per_class)]
    return [scaled(rng, kind, k) for kind in CLASSES for k in exps]


def probes(rng: np.random.Generator, n: int) -> list[complex]:
    """Probe points inside WINDOW."""
    re_min, re_max, im_min, im_max = WINDOW
    re = rng.uniform(re_min, re_max, n)
    im = rng.uniform(im_min, im_max, n)
    return [complex(x, y) for x, y in zip(re.tolist(), im.tolist())]


# Inputs the CLI must refuse with exit 1 at every commit: each is outside
# the grammar or the four solvable classes.
REFUSED_TEMPLATES = (
    "{a}*Z^3 + Z >= {b}",               # degree 3
    "{a}*Z*W >= {b}",                   # second variable
    "Z^0.5 >= {a}",                     # non-integer exponent
    "{a}*Z + >= {b}",                   # missing operand
    "{a}/(Z^2 + {b}) >= 0",             # denominator degree 2
    "Z >= {a} && Z^2 >= {b}",           # non-linear system
)


def refused(rng: np.random.Generator) -> str:
    template = REFUSED_TEMPLATES[int(rng.integers(0, len(REFUSED_TEMPLATES)))]
    return template.format(a=lit(_coef(rng, 0.25)), b=lit(_coef(rng, 0.25)))


# ROADMAP item 5 inputs: known defects at the seed commit (a multi-second
# run or a RecursionError traceback).  Each must end with exit 1 and a
# message within the per-call limit.
UNBOUNDED_INPUTS = (
    "2^3000000 >= Z",
    "(Z-Z+1)^3000000 >= Z",
    "(" * 5000 + "Z" + ")" * 5000 + " >= 0",
)
