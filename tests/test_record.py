"""Value semantics of lexineq's frozen record classes.

These pin what the package's value classes promise: field-wise equality
and hashing within one class, keyword and default construction,
validation in ``__post_init__``, immutability, and byte-stable reprs
(reprs reach error messages).
"""

import copy
import pickle

import numpy as np
import pytest

from lexineq import cli, parse
from lexineq.errors import NonPositiveScaleError
from lexineq.lexorder import Polar
from lexineq.oracle import Bitmap, GridSpec, VerificationReport
from lexineq.parser import Add, Lit, Sub, Var
from lexineq.region import (
    Disc,
    Generic,
    HyperbolaDomain,
    Invert,
    ObliqueHalfPlane,
    Region,
    Rotate,
    Scale,
    Translate,
    VerticalHalfPlane,
)
from lexineq.solver import (
    Fractional,
    Linear,
    Quadratic,
    SolutionKind,
    SolutionSet,
    System,
    solve,
)


class TestEquality:
    def test_equal_fields_equal_objects(self):
        a = Region(1 + 2j, (Invert(), Rotate(0.5)))
        b = Region(1 + 2j, (Invert(), Rotate(0.5)))
        assert a is not b
        assert a == b and not (a != b)
        assert hash(a) == hash(b)

    def test_hash_is_hash_of_field_tuple(self):
        assert hash(Region(1j, (Invert(),))) == hash((1j, (Invert(),)))
        assert hash(Translate(2j)) == hash((2j,))
        assert hash(Invert()) == hash(())

    def test_different_fields_differ(self):
        assert Region(1j) != Region(2j)
        assert Polar(1.0, 0.5) != Polar(1.0, 0.25)

    def test_same_fields_other_class_differ(self):
        x, y = Lit(1j), Var()
        assert Add(x, y) != Sub(x, y)
        assert Linear(1, 2) != Quadratic(1, 2, 0) and Invert() != Var()

    def test_non_record_comparison_is_not_implemented(self):
        assert Add(Lit(1), Var()).__eq__((Lit(1), Var())) is NotImplemented
        assert Region(0j).__eq__(0j) is NotImplemented
        assert Region(0j) != 0j

    def test_signed_zero_anchor(self):
        assert Region(0j) == Region(complex(-0.0, -0.0))
        assert hash(Region(0j)) == hash(Region(complex(-0.0, -0.0)))

    def test_usable_as_keys(self):
        seen = {Region(1j): "a", Translate(1j): "b"}
        assert seen[Region(1j)] == "a" and seen[Translate(1j)] == "b"

    def test_bitmap_equality_is_identity(self):
        grid = GridSpec(-1.0, 1.0, -1.0, 1.0, 2, 2)
        cells = np.zeros(4, dtype=np.uint8)
        a, b = Bitmap(grid, cells), Bitmap(grid, cells)
        assert a == a and a != b
        assert hash(a) == object.__hash__(a)


class TestConstruction:
    def test_keywords_and_defaults(self):
        assert Region(base=1) == Region(1, ())
        assert Region(1, transforms=[Invert()]).transforms == (Invert(),)
        empty = SolutionSet(SolutionKind.EMPTY)
        assert (empty.regions, empty.excluded_points, empty.note) == ((), (), None)
        assert SolutionSet(kind=SolutionKind.ALL, note="n").note == "n"

    def test_argument_errors(self):
        with pytest.raises(TypeError):
            Region()
        with pytest.raises(TypeError):
            Region(1, (), 3)
        with pytest.raises(TypeError):
            Region(1, base=2)
        with pytest.raises(TypeError):
            Translate(offset=1, scale=2)

    def test_post_init_validates(self):
        with pytest.raises(NonPositiveScaleError):
            Scale(-1)
        with pytest.raises(ValueError, match="single solutions"):
            SolutionSet(SolutionKind.SINGLE)

    def test_post_init_normalizes(self):
        lit = Lit(complex(-0.0, -0.0))
        assert repr(lit) == "Lit(value=0j)"
        assert Rotate(7.0).theta == pytest.approx(7.0 - 2 * np.pi)

    def test_match_args(self):
        match Add(Lit(2), Var()):
            case Add(Lit(v), Var()):
                assert v == 2
            case _:
                pytest.fail("positional pattern did not match")


class TestFrozen:
    @pytest.mark.parametrize("value", [Region(1j), Invert(), Polar(1.0, 0.0),
                                       VerificationReport(0, 0, 0, (), True)],
                             ids=["region", "no-fields", "polar", "report"])
    def test_assignment_and_deletion_raise(self, value):
        with pytest.raises(AttributeError, match="cannot assign to field 'x'"):
            value.x = 1
        with pytest.raises(AttributeError, match="cannot delete field 'x'"):
            del value.x

    def test_field_assignment_raises(self):
        region = Region(1j)
        with pytest.raises(AttributeError, match="cannot assign to field 'base'"):
            region.base = 2j
        with pytest.raises(AttributeError, match="cannot delete field 'base'"):
            del region.base
        assert region.base == 1j

    def test_copy_and_pickle_round_trip(self):
        solution = solve(Fractional(2, 1, -1, 1j))
        assert copy.copy(solution) == solution
        assert copy.deepcopy(solution) == solution
        assert pickle.loads(pickle.dumps(solution)) == solution


class TestRepr:
    def test_solution_repr(self):
        assert repr(solve(Fractional(2, 1, -1, 1j))) == (
            "SolutionSet(kind=<SolutionKind.SINGLE: 'single'>, regions=(Region("
            "base=(-0.6666666666666666+0.3333333333333333j), transforms=(Invert(), "
            "Translate(offset=(1+0j)))),), excluded_points=((1+0j),), note=None)"
        )

    def test_parsed_quadratic_repr(self):
        assert repr(parse("(2+1i)*Z^2 - Z >= -0.5")) == (
            "SourceExpr(text='(2+1i)*Z^2 - Z >= -0.5', lhs=Sub(lhs=Mul(lhs=Lit(value=(2+1j)), "
            "rhs=Pow(base=Var(), exponent=2)), rhs=Var()), rhs=Neg(operand=Lit(value=(0.5+0j))), "
            "relation='>=')"
        )


@pytest.mark.parametrize("problem, keys", [
    (Linear(1, 2), ["kind", "a", "b"]),
    (System((Linear(1, 2), Linear(3, 4))), ["kind", "a", "b", "c", "d"]),
    (Fractional(1, 2, 3, 4), ["kind", "a", "b", "c", "d"]),
    (Quadratic(1, 2, 3), ["kind", "a", "b", "c"]),
], ids=["linear", "system", "fractional", "quadratic"])
def test_problem_to_json_key_order(problem, keys):
    doc = cli.problem_to_json(problem)
    assert list(doc) == keys
    assert doc["b"] == {"re": 2.0, "im": 0.0}


@pytest.mark.parametrize("classification, expected", [
    (VerticalHalfPlane(1.5, "n"),
     {"kind": "vertical-half-plane", "boundary_re": 1.5, "boundary_note": "n"}),
    (ObliqueHalfPlane(0.5, -2.0, "n"),
     {"kind": "oblique-half-plane", "normal_angle": 0.5, "offset": -2.0, "boundary_note": "n"}),
    (Disc(0.5 - 1j, 2.0, "n"),
     {"kind": "disc", "center": {"re": 0.5, "im": -1.0}, "radius": 2.0, "boundary_note": "n"}),
    (HyperbolaDomain(-1.0, False, True, "n"),
     {"kind": "hyperbola-domain", "a1": -1.0, "connected": False, "contains_origin": True,
      "boundary_note": "n"}),
    (Generic("n"), {"kind": "generic", "boundary_note": "n"}),
], ids=["vertical", "oblique", "disc", "hyperbola", "generic"])
def test_classification_to_json_fields_in_order(classification, expected):
    doc = cli.classification_to_json(classification)
    assert doc == expected and list(doc) == list(expected)


@pytest.mark.parametrize("obj", [Region(0j), Linear(1, 2), None])
def test_classification_to_json_refuses_other_objects(obj):
    with pytest.raises(TypeError, match="not a classification"):
        cli.classification_to_json(obj)
