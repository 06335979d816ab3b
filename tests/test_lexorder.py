import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lexineq.lexorder import (
    Ordering,
    complex_div,
    lex_cmp,
    lex_ge,
    lex_le,
    polar_decompose,
)

dyadic = st.integers(-64, 64).map(lambda k: k / 8.0)
dyadic_complex = st.builds(complex, dyadic, dyadic)
finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
finite_complex = st.builds(complex, finite_floats, finite_floats)


# Signed zeros, the smallest subnormal and normal, 1 and the largest float
LATTICE = [s * x for x in (0.0, 5e-324, 2.2250738585072014e-308, 1.0, 1.7976931348623157e308)
           for s in (1.0, -1.0)]


def tuple_cmp(a: complex, b: complex) -> int:
    """Independent oracle: Python tuple comparison is lexicographic."""
    ta, tb = (a.real, a.imag), (b.real, b.imag)
    return (ta > tb) - (ta < tb)


class TestLexCmp:
    def test_first_coordinate_strict(self):
        assert lex_cmp(1 + 5j, 2 - 7j) is Ordering.LESS

    def test_equal(self):
        assert lex_cmp(3 + 2j, 3 + 2j) is Ordering.EQUAL

    def test_tie_breaks_on_imaginary(self):
        assert lex_cmp(3 + 2j, 3 + 5j) is Ordering.LESS

    @given(finite_complex, finite_complex)
    def test_agrees_with_tuple_comparison(self, a, b):
        assert int(lex_cmp(a, b)) == tuple_cmp(a, b)

    def test_agrees_with_tuple_comparison_on_the_lattice(self):
        points = [complex(x, y) for x in LATTICE for y in LATTICE]
        for a in points:
            for b in points:
                assert int(lex_cmp(a, b)) == tuple_cmp(a, b), (a, b)

    @pytest.mark.parametrize("scalar", [np.complex128, np.float64])
    def test_numpy_scalar_operands(self, scalar):
        # their parts are numpy floats, so each test answers np.bool_
        ys = LATTICE[:3] if scalar is np.complex128 else [0.0]
        points = [scalar(complex(x, y) if y else x) for x in LATTICE for y in ys]
        for a in points:
            for b in points:
                assert lex_cmp(a, b) is Ordering(tuple_cmp(complex(a), complex(b))), (a, b)

    @given(finite_complex)
    def test_reflexivity(self, a):
        assert lex_cmp(a, a) is Ordering.EQUAL

    @given(dyadic_complex, dyadic_complex)
    def test_antisymmetry(self, a, b):
        assert (lex_le(a, b) and lex_le(b, a)) == (a == b)

    @given(dyadic_complex, dyadic_complex, dyadic_complex)
    def test_transitivity(self, a, b, c):
        if lex_le(a, b) and lex_le(b, c):
            assert lex_le(a, c)

    @given(dyadic_complex, dyadic_complex)
    def test_totality_mirror(self, a, b):
        assert int(lex_cmp(a, b)) == -int(lex_cmp(b, a))

    @given(finite_floats, finite_floats)
    def test_extends_real_order(self, x, y):
        expected = Ordering.LESS if x < y else Ordering.GREATER if x > y else Ordering.EQUAL
        assert lex_cmp(complex(x, 0), complex(y, 0)) is expected

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            lex_cmp(complex(float("nan"), 0), 0j)

    def test_rejects_infinity(self):
        with pytest.raises(ValueError):
            lex_cmp(0j, complex(float("inf"), 1))

    def test_le_ge(self):
        assert lex_le(1 + 9j, 2 + 0j)
        assert lex_ge(2 + 0j, 1 + 9j)
        assert lex_le(3 + 2j, 3 + 2j) and lex_ge(3 + 2j, 3 + 2j)


class TestPolar:
    def test_unit_imaginary(self):
        p = polar_decompose(1j)
        assert p.r == 1.0 and p.theta == pytest.approx(math.pi / 2)

    def test_negative_real_axis(self):
        p = polar_decompose(-2 + 0j)
        assert p.r == 2.0 and p.theta == math.pi

    def test_zero_convention(self):
        assert polar_decompose(0j) == polar_decompose(-0.0 - 0.0j)
        p = polar_decompose(0j)
        assert p.r == 0.0 and p.theta == 0.0

    def test_negative_zero_imaginary_stays_principal(self):
        p = polar_decompose(complex(-1.0, -0.0))
        assert p.theta == math.pi

    @given(dyadic_complex.filter(lambda z: z != 0))
    def test_roundtrip(self, z):
        p = polar_decompose(z)
        assert p.r >= 0.0 and -math.pi < p.theta <= math.pi
        back = p.to_complex()
        assert abs(back - z) <= 1e-12 * abs(z)


class TestArithmetic:
    def test_reciprocal_of_i(self):
        assert complex_div(1 + 0j, 1j) == -1j

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            complex_div(1 + 0j, 0j)

    @given(finite_complex, finite_complex.filter(lambda z: z != 0))
    def test_division_matches_python(self, a, b):
        # the Smith helper mirrors CPython's algorithm expression for
        # expression, so results are bit-identical, not merely close
        try:
            expected = a / b
        except OverflowError:
            return
        got = complex_div(a, b)
        assert (got == expected) or (got != got and expected != expected)
