import json
import subprocess
import sys

import numpy as np
import pytest

from exprgen import gen_source, probe
from lexineq import cli
from lexineq import parser as parser_module
from lexineq.errors import MultipleVariablesError, NonIntegerExponentError, ParseError
from lexineq.parser import (
    MAX_EXPONENT,
    _Parser,
    Add,
    Div,
    Lit,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    eval_expr,
    parse,
    parse_complex,
    parse_input,
    source_to_text,
    to_text,
)


class TestParse:
    def test_variable_and_literal(self):
        e = parse("Z >= 1+2i")
        assert e.lhs == Var()
        assert e.rhs == Lit(1 + 2j)
        assert e.relation == ">="

    def test_linear_shape(self):
        e = parse("(2i)*Z - (1+1i) >= 0")
        assert e.lhs == Sub(Mul(Lit(2j), Var()), Lit(1 + 1j))
        assert e.rhs == Lit(0j)

    def test_quadratic_shape(self):
        e = parse("Z^2 + 1 >= 0")
        assert e.lhs == Add(Pow(Var(), 2), Lit(1 + 0j))

    def test_reciprocal(self):
        e = parse("1/Z >= 1")
        assert e.lhs == Div(Lit(1 + 0j), Var())

    def test_case_insensitive_variable(self):
        assert parse("z >= 0").lhs == Var()

    def test_other_variable_rejected(self):
        with pytest.raises(MultipleVariablesError):
            parse("Z + W >= 0")
        with pytest.raises(MultipleVariablesError):
            parse("w >= 0")

    def test_le_normalizes_by_swapping(self):
        le = parse("Z <= 1")
        ge = parse("1 >= Z")
        assert (le.lhs, le.rhs, le.relation) == (ge.lhs, ge.rhs, ">=")

    def test_syntax_error_carries_byte_offset(self):
        with pytest.raises(ParseError) as exc:
            parse("Z >= $1")
        assert exc.value.offset == 5

    def test_missing_relation(self):
        with pytest.raises(ParseError):
            parse("Z + 1")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("Z >= 1 1")

    def test_non_integer_exponent(self):
        with pytest.raises(NonIntegerExponentError):
            parse("Z^2.5 >= 0")
        with pytest.raises(NonIntegerExponentError):
            parse("Z^-1 >= 0")
        with pytest.raises(NonIntegerExponentError):
            parse("Z^0 >= 0")

    def test_overflowing_literal(self):
        with pytest.raises(ParseError):
            parse("Z >= 1e999")

    def test_imaginary_forms(self):
        assert parse("i >= 0").lhs == Lit(1j)
        assert parse("2.5i >= 0").lhs == Lit(2.5j)
        assert parse("I >= 0").lhs == Lit(1j)

    def test_literal_folding_in_parens(self):
        assert parse("(1+2i) >= 0").lhs == Lit(1 + 2j)
        assert parse("(1-2i) >= 0").lhs == Lit(1 - 2j)
        assert parse("(-1+2i) >= 0").lhs == Lit(-1 + 2j)
        assert parse("(-3) >= 0").lhs == Lit(-3 + 0j)
        assert parse("(-2i) >= 0").lhs == Lit(-2j)

    def test_unparenthesized_literal_also_folds(self):
        assert parse("1+2i >= Z").lhs == Lit(1 + 2j)

    def test_real_plus_real_is_arithmetic(self):
        assert parse("1 + 2 >= 0").lhs == Add(Lit(1 + 0j), Lit(2 + 0j))

    def test_negation_binds_inside_power(self):
        # grammar: factor := primary ('^' INT)?, primary := '-' primary | ...
        assert parse("-Z^2 >= 0").lhs == Pow(Neg(Var()), 2)


LIMIT = _Parser.MAX_DEPTH


def _nested(levels: int, pattern: str) -> str:
    text = "Z"
    for _ in range(levels):
        text = pattern.format(text)
    return text + " >= 1"


def _outcome(fn: str, text: str):
    """A parser call's result as text, or its error as (class, message, offset)."""
    try:
        result = getattr(parser_module, fn)(text)
    except ParseError as exc:
        return (type(exc).__name__, str(exc), exc.offset)
    if fn == "parse_complex":
        return repr(result)
    if fn == "parse":
        result = (result,)
    return " && ".join(f"{e.lhs!r} >= {e.rhs!r}" for e in result)


# Edge cases of the scanner and of the (a+bi) literal folding, with the
# outcomes the grammar has always given them: trees that must not fold,
# whitespace and non-ASCII input, and error messages with their byte offsets.
EDGE_CASES = [
    ('parse_input', '(1+0i) >= Z',
     'Add(lhs=Lit(value=(1+0j)), rhs=Lit(value=0j)) >= Var()'),
    ('parse_input', '(1+-2i) >= Z',
     'Add(lhs=Lit(value=(1+0j)), rhs=Neg(operand=Lit(value=2j))) >= Var()'),
    ('parse_input', '(- 1 - 2 I) >= Z',
     'Lit(value=(-1-2j)) >= Var()'),
    ('parse_input', '(-0+1i) >= Z',
     'Lit(value=1j) >= Var()'),
    ('parse_input', '(-(1+2i)) >= Z',
     'Lit(value=(-1-2j)) >= Var()'),
    ('parse_input', '-(1+2i) >= Z',
     'Neg(operand=Lit(value=(1+2j))) >= Var()'),
    ('parse_input', '(1+i) >= Z',
     'Lit(value=(1+1j)) >= Var()'),
    ('parse_input', '(-1-1e-320i) >= Z',
     'Lit(value=(-1-1e-320j)) >= Var()'),
    ('parse_input', '(1-0.0i) >= Z',
     'Sub(lhs=Lit(value=(1+0j)), rhs=Lit(value=0j)) >= Var()'),
    ('parse_input', '(1+2i+3i) >= Z',
     'Add(lhs=Lit(value=(1+2j)), rhs=Lit(value=3j)) >= Var()'),
    ('parse_input', '(1+2i*Z) >= Z',
     'Add(lhs=Lit(value=(1+0j)), rhs=Mul(lhs=Lit(value=2j), rhs=Var())) >= Var()'),
    ('parse_input', '(i+2i) >= Z',
     'Add(lhs=Lit(value=1j), rhs=Lit(value=2j)) >= Var()'),
    ('parse_input', '(1 + (2i)) >= Z',
     'Lit(value=(1+2j)) >= Var()'),
    ('parse_input', '(1+2ii) >= Z',
     ('ParseError', "expected ')', found 'ii' (at byte 4)", 4)),
    ('parse_input', '(1 +2i',
     ('ParseError', "expected ')', found 'end of input' (at byte 6)", 6)),
    ('parse_input', '(1e999+1i) >= Z',
     ('ParseError', 'numeric literal overflows to infinity (at byte 1)', 1)),
    ('parse_input', '(1+1e999i) >= Z',
     ('ParseError', 'numeric literal overflows to infinity (at byte 3)', 3)),
    ('parse_input', '(1+2i)^2 >= Z',
     'Pow(base=Lit(value=(1+2j)), exponent=2) >= Var()'),
    ('parse_input', '-1-2i >= Z',
     'Lit(value=(-1-2j)) >= Var()'),
    ('parse_input', '1 i >= Z',
     'Lit(value=1j) >= Var()'),
    ('parse_input', 'Z >= 1e5i',
     'Var() >= Lit(value=100000j)'),
    ('parse_input', 'Z >= 1e',
     ('ParseError', "unexpected trailing input 'e' (at byte 6)", 6)),
    ('parse_input', 'Z >= ２',
     'Var() >= Lit(value=(2+0j))'),
    ('parse_input', 'Z >= ２ + é',
     ('ParseError', "unexpected character 'é' (at byte 11)", 11)),
    ('parse_input', '',
     ('ParseError', "expected a value, found 'end of input' (at byte 0)", 0)),
    ('parse_input', ' ',
     ('ParseError', "expected a value, found 'end of input' (at byte 1)", 1)),
    ('parse_input', '\tZ\t>=\t1\t',
     'Var() >= Lit(value=(1+0j))'),
    ('parse_input', 'Z >= 1 \t\n',
     'Var() >= Lit(value=(1+0j))'),
    ('parse_input', 'Z\xa0>= 1',
     'Var() >= Lit(value=(1+0j))'),
    ('parse_input', 'Z >= 1\u200b',
     ('ParseError', "unexpected character '\\u200b' (at byte 6)", 6)),
    ('parse_input', 'Z >= é',
     ('ParseError', "unexpected character 'é' (at byte 5)", 5)),
    ('parse_input', 'é',
     ('ParseError', "unexpected character 'é' (at byte 0)", 0)),
    ('parse_input', 'Zé >= 1',
     ('MultipleVariablesError', "unsupported variable 'Zé'; the only variable is Z (at byte 0)", 0)),
    ('parse_input', 'Z ) >= é',
     ('ParseError', "unexpected character 'é' (at byte 7)", 7)),
    ('parse_input', 'Z (1+2i)',
     ('ParseError', "expected '>=' or '<=', found '(' (at byte 2)", 2)),
    ('parse_input', 'Z^(2) >= 0',
     ('NonIntegerExponentError', 'exponent must be a positive integer literal (at byte 2)', 2)),
    ('parse_input', 'Z^01 >= 0',
     'Pow(base=Var(), exponent=1) >= Lit(value=0j)'),
    ('parse_input', 'Z >= 1 &&',
     ('ParseError', "expected a value, found 'end of input' (at byte 9)", 9)),
    ('parse_input', '&& Z >= 1',
     ('ParseError', "expected a value, found '&&' (at byte 0)", 0)),
    ('parse_input', 'Z && Z >= 1',
     ('ParseError', "expected '>=' or '<=', found '&&' (at byte 2)", 2)),
    ('parse_input', 'Z >= 1 && Z >= 2 && Z >= 3',
     ('ParseError', "at most two inequalities may be joined by '&&' (at byte 17)", 17)),
    ('parse_input', 'Z >= 1 & Z >= 2',
     ('ParseError', "unexpected character '&' (at byte 7)", 7)),
    ('parse', 'Z >= 1 && Z >= 0',
     ('ParseError', "'&&' joins two inequalities; use parse_input for systems (at byte 7)", 7)),
    ('parse_complex', '1+2i',
     '(1+2j)'),
    ('parse_complex', ' -0.5i ',
     '(-0-0.5j)'),
    ('parse_complex', '(1+2i) Z',
     ('ParseError', "unexpected trailing input 'Z' (at byte 7)", 7)),
    ("parse_input", "(" * (LIMIT - 2) + "(-1+2i)" + ")" * (LIMIT - 2) + " >= Z",
     "Lit(value=(-1+2j)) >= Var()"),
    ("parse_input", "(" * (LIMIT - 1) + "(1+2i)" + ")" * (LIMIT - 1) + " >= Z",
     "Lit(value=(1+2j)) >= Var()"),
    # a literal's sign is not a level of nesting
    ("parse_input", "(" * (LIMIT - 1) + "(-1+2i)" + ")" * (LIMIT - 1) + " >= Z",
     "Lit(value=(-1+2j)) >= Var()"),
    ("parse_input", "(" * (LIMIT - 1) + "(-3)" + ")" * (LIMIT - 1) + " >= Z",
     "Lit(value=(-3+0j)) >= Var()"),
    ("parse_input", "(" * (LIMIT - 1) + "(-2i)" + ")" * (LIMIT - 1) + " >= Z",
     "Lit(value=-2j) >= Var()"),
    ("parse_input", "(" * (LIMIT - 1) + "(-1e999)" + ")" * (LIMIT - 1) + " >= Z",
     ("ParseError", "numeric literal overflows to infinity (at byte 101)", 101)),
    ("parse_input", "(" * LIMIT + "(-1+2i)" + ")" * LIMIT + " >= Z",
     ("ParseError", "expression nests deeper than 100 levels of parentheses and unary minus "
      "(at byte 100)", 100)),
]


@pytest.mark.parametrize("fn, text, expected", EDGE_CASES)
def test_edge_case_outcomes(fn, text, expected):
    assert _outcome(fn, text) == expected


class TestNestingLimit:
    @pytest.mark.parametrize("pattern, per_level", [
        ("({})", 1),
        ("-{}", 1),
        ("-({})", 2),
        # three tree nodes per '(': the deepest tree a level can build
        ("({})^1*1+1", 1),
    ])
    def test_depth_at_limit_parses(self, capsys, pattern, per_level):
        text = _nested(LIMIT // per_level, pattern)
        src = parse(text)
        eval_expr(src.lhs, 0.5 + 0.25j)
        to_text(src.lhs)
        assert cli.main(["solve", text]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("prefix", ["(", "-"])
    def test_one_past_limit_is_parse_error_at_offending_byte(self, prefix):
        closing = ")" * (LIMIT + 1) if prefix == "(" else ""
        with pytest.raises(ParseError) as exc:
            parse("1 + " + prefix * (LIMIT + 1) + "Z" + closing + " >= 1")
        assert exc.value.offset == len("1 + ") + LIMIT
        assert "nests deeper" in str(exc.value)

    @pytest.mark.parametrize("text", [
        _nested(LIMIT + 1, "({})"),
        _nested(LIMIT + 1, "-{}"),
        _nested(5000, "({})"),
        _nested(5000, "-{}"),
    ], ids=["parens-limit+1", "minus-limit+1", "parens-5000", "minus-5000"])
    def test_cli_refuses_deep_nesting(self, text):
        proc = subprocess.run([sys.executable, "-m", "lexineq", "solve", text],
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("lexineq: error:"), proc.stderr


HEIGHT = _Parser.MAX_HEIGHT


def _chain(op: str, terms: int) -> str:
    return op.join(["Z"] * terms) + " >= 1"


class TestChainLimit:
    """A flat chain of binary operators counts one tree level per operator."""

    @pytest.mark.parametrize("op", ["+", "-", "*", "/"])
    def test_chain_at_limit_parses(self, op):
        src = parse(_chain(op, HEIGHT))
        eval_expr(src.lhs, 0.5 + 0.25j)
        # a left-deep chain prints without parentheses, and re-parses; the
        # trees are compared by printing, since == on trees this deep
        # exceeds the recursion limit
        printed = source_to_text(src)
        assert printed == f" {op} ".join(["Z"] * HEIGHT) + " >= 1.0"
        assert source_to_text(parse(printed)) == printed

    @pytest.mark.parametrize("text", [
        _chain("+", HEIGHT),
        # nesting and chains together: each of the 50 levels adds a negation,
        # a power, a product and a sum over a 200-term chain
        _nested(LIMIT // 2, "-({})^1*1+1").replace("Z", "+".join(["Z"] * (HEIGHT - 200)), 1),
        # a unary minus at the deepest level, printed as the literal
        # (-1.0+2.0i) inside as many parentheses: its sign is no level
        "Z-(" * (LIMIT - 1) + "-1+2i+Z" + ")" * (LIMIT - 1) + " >= 0",
        # printed as (-1.0i)
        "Z-(" * (LIMIT - 1) + "-0-1i+Z" + ")" * (LIMIT - 1) + " >= 0",
    ], ids=["sum-chain", "nested-chains", "signed-literal-at-depth-limit",
            "negative-imaginary-at-depth-limit"])
    def test_deepest_trees_solve(self, capsys, text):
        assert cli.main(["solve", text]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        normalized = json.loads(out)["normalized_input"]
        assert normalized == source_to_text(parse(text))
        assert source_to_text(parse(normalized)) == normalized

    @pytest.mark.parametrize("op", ["+", "-", "*", "/"])
    def test_one_past_limit_is_parse_error_at_operator(self, op):
        with pytest.raises(ParseError) as exc:
            parse(_chain(op, HEIGHT + 1))
        assert exc.value.offset == len(_chain(op, HEIGHT)) - len(" >= 1")
        assert "deeper than" in str(exc.value)

    def test_limit_applies_to_subtrees(self):
        # a chain inside parentheses raises the height of the enclosing chain
        inner = "(" + "+".join(["Z"] * (HEIGHT - 1)) + ")"
        parse(inner + "*Z >= 1")
        with pytest.raises(ParseError) as exc:
            parse(inner + "*Z*Z >= 1")
        assert exc.value.offset == len(inner) + 2

    def test_cli_refuses_thousand_term_chain(self):
        proc = subprocess.run([sys.executable, "-m", "lexineq", "solve", _chain("+", 1000)],
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("lexineq: error:"), proc.stderr


class TestExponentCap:
    def test_cap_accepted(self):
        assert parse(f"1^{MAX_EXPONENT} >= Z").lhs == Pow(Lit(1 + 0j), MAX_EXPONENT)

    @pytest.mark.parametrize("exponent", [str(MAX_EXPONENT + 1), "3000000", "9" * 5000])
    def test_past_cap_is_parse_error_at_exponent(self, exponent):
        with pytest.raises(ParseError) as exc:
            parse(f"2^{exponent} >= Z")
        assert exc.value.offset == 2
        assert str(MAX_EXPONENT) in str(exc.value)

    def test_leading_zeros(self):
        assert parse("Z^0002 >= 1").lhs == Pow(Var(), 2)
        with pytest.raises(NonIntegerExponentError):
            parse("Z^000 >= 1")

    @pytest.mark.parametrize("text", ["2^3000000 >= Z", "(Z-Z+1)^3000000 >= Z"])
    def test_cli_refuses_huge_exponents(self, text):
        proc = subprocess.run([sys.executable, "-m", "lexineq", "solve", text],
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and "exponent exceeds" in lines[0], proc.stderr


class TestParseInput:
    def test_single(self):
        assert len(parse_input("Z >= 0")) == 1

    def test_system(self):
        pair = parse_input("Z >= 0 && 2*Z >= 1")
        assert len(pair) == 2
        assert pair[1].lhs == Mul(Lit(2 + 0j), Var())

    def test_three_rejected(self):
        with pytest.raises(ParseError):
            parse_input("Z >= 0 && Z >= 1 && Z >= 2")

    def test_parse_rejects_system(self):
        with pytest.raises(ParseError):
            parse("Z >= 0 && Z >= 1")


class TestParseComplex:
    def test_forms(self):
        assert parse_complex("1+2i") == 1 + 2j
        assert parse_complex("-0.5i") == -0.5j
        assert parse_complex("3") == 3 + 0j
        assert parse_complex("-(1+1i)") == -1 - 1j

    def test_rejects_variable(self):
        with pytest.raises(ParseError):
            parse_complex("Z")


class TestPrinting:
    cases = [
        "Z >= 1+2i",
        "(2i)*Z - (1+1i) >= 0",
        "Z^2 + 1 >= 0",
        "1/Z >= 1",
        "-Z^2 >= (-3)",
        "(1.5-0.25i)*(Z + 2) >= Z/4",
        "-(Z + 1) >= -2i",
        # a power or a negation takes Z, a literal or a negation bare: -Z^2
        # is (-Z)^2, so -(Z^2) keeps its parentheses
        "-(Z^2) >= 0",
        "(Z^2)^3 >= 0",
        "--Z >= 0",
        "2*(Z^2) >= 0",
        "(2*Z)^2 >= 0",
    ]

    @pytest.mark.parametrize("text", cases)
    def test_roundtrip_fixed_cases(self, text):
        first = parse(text)
        printed = source_to_text(first)
        second = parse(printed)
        assert (first.lhs, first.rhs) == (second.lhs, second.rhs)
        # printing is idempotent from the first reprint on
        assert source_to_text(second) == printed

    def test_roundtrip_generated(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            src = gen_source(rng)
            printed = source_to_text(src)
            back = parse(printed)
            assert (back.lhs, back.rhs) == (src.lhs, src.rhs), printed

    def test_negative_lit_components(self):
        for v in (-3 + 0j, -2j, -1 - 2j, -1 + 2j, 1 - 2j, 0.125 + 0j):
            printed = to_text(Lit(v))
            assert parse(f"{printed} >= 0").lhs == Lit(v)


class TestEval:
    def test_matches_python_complex(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            src = gen_source(rng)
            z = probe(rng)
            try:
                lhs = eval_expr(src.lhs, z)
                rhs = eval_expr(src.rhs, z)
            except ZeroDivisionError:
                continue
            assert lhs == lhs and rhs == rhs  # no NaNs from finite inputs

    def test_power_is_repeated_multiplication(self):
        z = 1.5 - 2j
        assert eval_expr(Pow(Var(), 3), z) == (z * z) * z

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            eval_expr(Div(Lit(1 + 0j), Var()), 0j)


class TestComplementRelation:
    def test_le_is_complement_of_ge_off_boundary(self):
        from lexineq.normalize import classify_problem
        from lexineq.oracle import boundary_margin, eval_direct

        rng = np.random.default_rng(23)
        texts = ["Z^2 + 1", "(2+1i)*Z - 3", "Z*Z - 2*Z + 1"]
        for body in texts:
            ge = classify_problem(parse(f"{body} >= 0"))
            le = classify_problem(parse(f"{body} <= 0"))
            for _ in range(100):
                z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                if boundary_margin(ge, z) < 1e-6 or boundary_margin(le, z) < 1e-6:
                    continue
                a = eval_direct(ge, z)
                b = eval_direct(le, z)
                assert {a.name, b.name} == {"IN", "OUT"}
