import numpy as np
import pytest

from exprgen import gen_source, gen_system, probe
from lexineq import normalize
from lexineq.errors import UnsupportedFormError
from lexineq.normalize import classify_problem, classify_problem_ex, problem_kind
from lexineq.oracle import _values
from lexineq.parser import eval_expr, parse, parse_input
from lexineq.solver import Fractional, Linear, Quadratic, System


class TestClassify:
    def test_quadratic(self):
        p = classify_problem(parse("Z^2 + 1 >= 0"))
        assert p == Quadratic(1 + 0j, 0j, 1 + 0j)

    def test_reciprocal_keeps_threshold(self):
        p = classify_problem(parse("1/Z >= 1"))
        assert p == Fractional(0j, 1 + 0j, 0j, 1 + 0j)

    def test_linear_collects_terms(self):
        p = classify_problem(parse("2*Z + 1 - Z >= 3"))
        assert p == Linear(1 + 0j, 2 + 0j)  # Z - 2 >= 0

    def test_linear_shaped_input(self):
        p = classify_problem(parse("(2i)*Z - (1+1i) >= 0"))
        assert p == Linear(2j, 1 + 1j)

    def test_cubic_rejected(self):
        with pytest.raises(UnsupportedFormError):
            classify_problem(parse("Z^3 >= 0"))

    def test_quadratic_over_linear_rejected(self):
        with pytest.raises(UnsupportedFormError):
            classify_problem(parse("(Z^2 + 1)/(Z + 1) >= 0"))

    def test_quadratic_denominator_rejected(self):
        with pytest.raises(UnsupportedFormError) as exc:
            classify_problem(parse("1/Z + 1/Z >= 0"))
        assert "denominator degree 2" in str(exc.value)

    def test_nowhere_defined_rejected(self):
        with pytest.raises(UnsupportedFormError):
            classify_problem(parse("Z/(Z - Z) >= 0"))
        with pytest.raises(UnsupportedFormError):
            classify_problem(parse("Z/0 >= 0"))

    def test_constant_inequality(self):
        p = classify_problem(parse("1 >= 0"))
        assert p == Linear(0j, -1 + 0j)

    def test_monic_scaling_recorded(self):
        p, scale = classify_problem_ex(parse("1/(2*Z) >= 1"))
        assert scale == 2 + 0j
        assert p == Fractional(0j, 0.5 + 0j, 0j, 1 + 0j)

    def test_monic_denominator_reports_no_scale(self):
        p, scale = classify_problem_ex(parse("1/Z >= 1"))
        assert scale is None

    def test_fraction_with_constant_arithmetic_threshold(self):
        # general rational shape still lands in the fractional class
        p = classify_problem(parse("(Z + 1)/(Z - 1) >= 1 + 1"))
        assert p == Fractional(1 + 0j, 1 + 0j, -1 + 0j, 2 + 0j)

    def test_fraction_plus_constant_moves_left(self):
        p = classify_problem(parse("2/Z + 1 >= 0"))
        assert p == Fractional(1 + 0j, 2 + 0j, 0j, 0j)

    def test_unreduced_quotient_rejected(self):
        # Z/Z is not simplified to 1: no float polynomial gcd is attempted
        with pytest.raises(UnsupportedFormError):
            classify_problem(parse("(Z + 1)/(Z - 1) >= Z/Z"))

    def test_system(self):
        p = classify_problem(parse_input("Z >= 0 && (1i)*Z >= 1"))
        assert p == System((Linear(1 + 0j, 0j), Linear(1j, 1 + 0j)))

    def test_mixed_systems_classify(self):
        p = classify_problem(parse_input("1/Z >= 1 && Z >= 0 && 1/(Z - 1) >= 2i"))
        assert p == System((Fractional(0j, 1 + 0j, 0j, 1 + 0j), Linear(1 + 0j, 0j),
                            Fractional(0j, 1 + 0j, -1 + 0j, 2j)))
        assert problem_kind(p) == "system"
        assert problem_kind(System((Linear(1 + 0j, 0j), Quadratic(1 + 0j, 0j, 0j)))) == "system"
        assert problem_kind(System((Linear(1 + 0j, 0j),) * 3)) == "system"
        # a member's denominator scale is not the system's
        _, scale = classify_problem_ex(parse_input("1/(2*Z) >= 1 && Z >= 0"))
        assert scale is None

    @pytest.mark.parametrize("text", ["Z >= 0 && Z^2 >= 1", "1/Z >= 1 && Z >= 0 && Z^2 >= 0"])
    def test_quadratic_constraint_refused_from_text(self, text):
        with pytest.raises(UnsupportedFormError, match="got a quadratic constraint"):
            classify_problem(parse_input(text))

    @pytest.mark.parametrize("count", [0, 9, 12])
    def test_system_size_refused(self, count):
        # an empty sequence, and more inequalities than a system holds
        with pytest.raises(UnsupportedFormError, match="a system joins 2 to 8 inequalities"):
            classify_problem_ex([parse("Z >= 0")] * count)

    def test_system_holds_two_or_more_constraints(self):
        with pytest.raises(UnsupportedFormError, match="got 1"):
            System([Linear(1 + 0j, 0j)])
        assert System([Linear(1 + 0j, 0j)] * 2).constraints == (Linear(1 + 0j, 0j),) * 2

    def test_problem_kind_names(self):
        assert problem_kind(Linear(1 + 0j, 0j)) == "linear"
        assert problem_kind(System((Linear(1 + 0j, 0j), Linear(1j, 0j)))) == "linear-system"
        assert problem_kind(Fractional(0j, 1 + 0j, 0j, 0j)) == "fractional"
        assert problem_kind(Quadratic(1 + 0j, 0j, 0j)) == "quadratic"


class TestPowerDegreeCheck:
    @pytest.mark.parametrize("text", ["(Z+1)^1024 >= 0", "(1/Z)^65 >= 1"])
    def test_refused_before_expanding(self, monkeypatch, text):
        calls = []
        real = normalize._pmul
        monkeypatch.setattr(normalize, "_pmul", lambda p, q: calls.append(1) or real(p, q))
        with pytest.raises(UnsupportedFormError, match="degree exceeds 64"):
            classify_problem(parse(text))
        assert len(calls) < 8

    def test_degree_at_cap_expands(self):
        with pytest.raises(UnsupportedFormError, match="polynomial degree 64 is outside"):
            classify_problem(parse("(Z^8)^8 >= 0"))

    def test_constant_power_keeps_linear_product(self):
        # the loop multiplies left to right; squaring would round differently
        base = 1.1 + 0.3j
        acc = base
        for _ in range(36):
            acc = acc * base
        p = classify_problem(parse("(1.1+0.3i)^37 >= Z"))
        assert p == Linear(-1 + 0j, -acc)


class TestFoldingOverflow:
    @pytest.mark.parametrize("text", [
        "2^1024 >= Z",
        "(2^1024)*Z >= 1",
        "Z^2 * 2^1024 >= 1",
        "1/(Z + 2^1024) >= 1",
        "1/(Z + 1) >= 2^1024",
        "(1e300)*Z*(1e300) >= 1",
        "(Z + 1e300)/(1e-300) >= 0",
        "2^1024 >= Z && Z >= 0",
    ], ids=["linear", "leading", "quadratic", "fraction-pole", "fraction-threshold",
            "product", "quotient", "system"])
    def test_non_finite_coefficient_is_refused(self, text):
        with pytest.raises(UnsupportedFormError, match="overflows the float range"):
            classify_problem(parse_input(text))

    def test_largest_finite_power_is_kept(self):
        assert classify_problem(parse("2^1023 >= Z")) == Linear(-1 + 0j, -(2.0 ** 1023) + 0j)

    def test_degree_error_still_wins(self):
        with pytest.raises(UnsupportedFormError, match="polynomial degree 3"):
            classify_problem(parse("Z^3 * 2^1024 >= 1"))


def _hex(z: complex) -> tuple[str, str]:
    return (z.real.hex(), z.imag.hex())


def _classified_bits(text: str):
    """Every coefficient of ``classify_problem_ex`` as ``float.hex`` pairs
    (signed zeros included), or the refusal as (class, message)."""
    try:
        problem, scale = classify_problem_ex(parse_input(text))
    except UnsupportedFormError as exc:
        return (type(exc).__name__, str(exc))
    return (type(problem).__name__, tuple(_hex(c) for c in _coefficients(problem)),
            None if scale is None else _hex(scale))


def _coefficients(problem):
    """A problem's coefficients in field order, a system's members' in turn."""
    if isinstance(problem, System):
        return [c for member in problem.constraints for c in _coefficients(member)]
    return [getattr(problem, f) for f in problem._fields]


# Inputs whose sides fold over unit denominators (every literal and Z has
# denominator 1), with the exact bits their coefficients have always had:
# the signs of zero parts depend on the order of the complex products.
FOLDED_BITS = [
    ('-Z >= 0',
     ('Linear', (('-0x1.0000000000000p+0', '0x0.0p+0'), ('-0x0.0p+0', '-0x0.0p+0')), None)),
    ('-(Z*i) >= -(1-1i)',
     ('Linear', (('0x0.0p+0', '-0x1.0000000000000p+0'), ('-0x1.0000000000000p+0', '0x1.0000000000000p+0')), None)),
    ('Z*(0+1i) - (1+2i) >= (-3-0.5i)',
     ('Linear', (('0x0.0p+0', '0x1.0000000000000p+0'), ('-0x1.0000000000000p+1', '0x1.8000000000000p+0')), None)),
    ('0*Z + Z >= 0',
     ('Linear', (('0x1.0000000000000p+0', '0x0.0p+0'), ('-0x0.0p+0', '-0x0.0p+0')), None)),
    ('i*i*Z >= -0.0',
     ('Linear', (('-0x1.0000000000000p+0', '0x0.0p+0'), ('-0x0.0p+0', '-0x0.0p+0')), None)),
    ('Z^2 - Z^2 + Z >= 0',
     ('Linear', (('0x1.0000000000000p+0', '0x0.0p+0'), ('-0x0.0p+0', '-0x0.0p+0')), None)),
    ('(Z - (1+2i))^2 >= (0.5-0.25i)',
     ('Quadratic', (('0x1.0000000000000p+0', '0x0.0p+0'), ('-0x1.0000000000000p+1', '-0x1.0000000000000p+2'), ('-0x1.c000000000000p+1', '0x1.1000000000000p+2')), None)),
    ('(Z + (0-1i))*(Z - (0-1i)) >= 0',
     ('Quadratic', (('0x1.0000000000000p+0', '0x0.0p+0'), ('0x0.0p+0', '0x0.0p+0'), ('0x1.0000000000000p+0', '0x0.0p+0')), None)),
    ('(1.1+0.3i)^3 >= Z',
     ('Linear', (('-0x1.0000000000000p+0', '0x0.0p+0'), ('-0x1.08b4395810626p+0', '-0x1.0fdf3b645a1cbp+0')), None)),
    ('Z/2 >= 1e-310',
     ('Linear', (('0x1.0000000000000p-1', '0x0.0p+0'), ('0x0.012688b70e62bp-1022', '-0x0.0p+0')), None)),
    ('(1e300)*Z >= 1e-300',
     ('Linear', (('0x1.7e43c8800759cp+996', '0x0.0p+0'), ('0x1.56e1fc2f8f359p-997', '-0x0.0p+0')), None)),
    ('1/(Z - (1+1i)) >= (2-1i)',
     ('Fractional', (('0x0.0p+0', '0x0.0p+0'), ('0x1.0000000000000p+0', '0x0.0p+0'), ('-0x1.0000000000000p+0', '-0x1.0000000000000p+0'), ('0x1.0000000000000p+1', '-0x1.0000000000000p+0')), None)),
    ('(2*Z + 1)/(Z - 1) >= 1i',
     ('Fractional', (('0x1.0000000000000p+1', '0x0.0p+0'), ('0x1.0000000000000p+0', '0x0.0p+0'), ('-0x1.0000000000000p+0', '0x0.0p+0'), ('0x0.0p+0', '0x1.0000000000000p+0')), None)),
    ('((1+2i)*Z + 3)/(2i*Z - 1) >= 0',
     ('Fractional', (('0x1.0000000000000p+0', '-0x1.0000000000000p-1'), ('0x0.0p+0', '-0x1.8000000000000p+0'), ('0x0.0p+0', '0x1.0000000000000p-1'), ('0x0.0p+0', '0x0.0p+0')), ('0x0.0p+0', '0x1.0000000000000p+1'))),
    ('1/Z + 1 >= 0',
     ('Fractional', (('0x1.0000000000000p+0', '0x0.0p+0'), ('0x1.0000000000000p+0', '0x0.0p+0'), ('0x0.0p+0', '0x0.0p+0'), ('0x0.0p+0', '0x0.0p+0')), None)),
    ('-Z >= 0 && Z*(-1) <= (0-1i)',
     ('System', (('-0x1.0000000000000p+0', '0x0.0p+0'), ('-0x0.0p+0', '-0x0.0p+0'), ('0x1.0000000000000p+0', '0x0.0p+0'), ('-0x0.0p+0', '0x1.0000000000000p+0')), None)),
    ('2^1024 >= Z',
     ('UnsupportedFormError', 'a constant overflows the float range (about 1.8e308) while the coefficients are folded')),
    ('Z^3 * 2^1024 >= 1',
     ('UnsupportedFormError', 'polynomial degree 3 is outside the solvable classes (max 2)')),
    ('2^1024*Z^64*Z >= 1',
     ('UnsupportedFormError', 'intermediate polynomial degree exceeds 64')),
    # signed zeros in the literals, over the shared unit denominator and
    # over denominators that equal 1 without being it
    ('(-0.0+1i)*Z >= 0',
     ('Linear', (('0x0.0p+0', '0x1.0000000000000p+0'), ('-0x0.0p+0', '-0x0.0p+0')), None)),
    ('(-0.0-1i)*Z + (-0.0-0.0i) >= (0.0-0.0i)',
     ('Linear', (('0x0.0p+0', '-0x1.0000000000000p+0'), ('-0x0.0p+0', '-0x0.0p+0')), None)),
    ('(-0.0+1i)*Z^2 + (0-0.0i)*Z >= (-0.0-0.0i)',
     ('Quadratic', (('0x0.0p+0', '0x1.0000000000000p+0'), ('0x0.0p+0', '0x0.0p+0'), ('0x0.0p+0', '0x0.0p+0')), None)),
    ('(-0.0+1i) >= (-0.0+1i)*Z',
     ('Linear', (('0x0.0p+0', '-0x1.0000000000000p+0'), ('-0x0.0p+0', '-0x1.0000000000000p+0')), None)),
    ('Z/1 >= (-0.0+0i)',
     ('Linear', (('0x1.0000000000000p+0', '0x0.0p+0'), ('-0x0.0p+0', '-0x0.0p+0')), None)),
    ('(-0.0+1i)*Z/(1-0.0i) >= (0-0.0i)',
     ('Linear', (('0x0.0p+0', '0x1.0000000000000p+0'), ('-0x0.0p+0', '-0x0.0p+0')), None)),
    ('((-0.0-1i)*Z^2 - (-0.0+0i))/(1-0.0i) >= 0',
     ('Quadratic', (('0x0.0p+0', '-0x1.0000000000000p+0'), ('0x0.0p+0', '0x0.0p+0'), ('0x0.0p+0', '0x0.0p+0')), None)),
    ('(1-0.0i)*Z - (-0.0+0.0i) >= 0 && (-0.0-2i)*Z >= (-0.0+0i)',
     ('System', (('0x1.0000000000000p+0', '0x0.0p+0'), ('-0x0.0p+0', '-0x0.0p+0'), ('0x0.0p+0', '-0x1.0000000000000p+1'), ('-0x0.0p+0', '-0x0.0p+0')), None)),
]


@pytest.mark.parametrize("text, expected", FOLDED_BITS)
def test_folded_coefficient_bits(text, expected):
    assert _classified_bits(text) == expected


def _problem_value(problem, z):
    values = _values(problem, z)
    assert len(values) == 1
    return values[0]


class TestNormalizationSoundness:
    """The classified canonical form evaluates exactly equal to the
    original tree on dyadic inputs."""

    def test_generated_expressions(self):
        rng = np.random.default_rng(555)
        checked = 0
        for _ in range(250):
            src = gen_source(rng)
            problem = classify_problem(src)
            if isinstance(problem, System):
                continue
            for _ in range(10):
                z = probe(rng)
                try:
                    ast_value = eval_expr(src.lhs, z) - eval_expr(src.rhs, z)
                except ZeroDivisionError:
                    continue
                if isinstance(problem, Fractional) and z + problem.c == 0:
                    continue
                canonical = _problem_value(problem, z)
                if isinstance(problem, Fractional):
                    # the natural-threshold form keeps D on the right:
                    # compare expression values, not the same spelling
                    assert canonical == ast_value, (src.text, z)
                else:
                    assert canonical == ast_value, (src.text, z)
                checked += 1
        assert checked > 1000

    def test_system_sides(self):
        rng = np.random.default_rng(556)
        for _ in range(50):
            pair = gen_system(rng)
            problem = classify_problem(pair)
            assert problem_kind(problem) == "linear-system"
            for _ in range(5):
                z = probe(rng)
                v1 = eval_expr(pair[0].lhs, z) - eval_expr(pair[0].rhs, z)
                v2 = eval_expr(pair[1].lhs, z) - eval_expr(pair[1].rhs, z)
                got = _values_pair(problem, z)
                assert got == (v1, v2)


def _values_pair(problem, z):
    return _values(problem, z)
