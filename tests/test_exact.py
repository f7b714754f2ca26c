"""Exact quadratic arithmetic: spot values, field laws, sign, serialization."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from friezes import LAMBDA_RADICAND, QuadNum, RadicandMismatchError, lambda_value
from friezes.exact import _is_coefficient

from oracle import decimal_value


# ---------------------------------------------------------------------------
# construction and canonicalization


def test_radicand_must_be_supported():
    with pytest.raises(ValueError):
        QuadNum(5, 1, 1)
    with pytest.raises(ValueError):
        QuadNum(True, 1)


def test_m1_folds_radical_into_rational():
    x = QuadNum(1, 2, 3)  # 2 + 3·√1
    assert x.rat == 5 and x.rad == 0
    assert x == 5
    y = QuadNum(1, "1/2", Fraction(1, 2))  # an integral sum is held as an int
    assert (y.rat, y.rad) == (1, 0) and type(y.rat) is int and type(y.rad) is int


def test_string_fractions_accepted():
    assert QuadNum(2, "3/2") == Fraction(3, 2)
    assert QuadNum(2, "4/6") == QuadNum(2, Fraction(2, 3))
    x = QuadNum(2, "7")  # an integral string is read as an int, as from_json reads it
    assert x.rat == 7 and type(x.rat) is int


def test_constructors():
    assert QuadNum.zero(3).is_zero()
    assert QuadNum.one(2) == 1
    s = QuadNum.sqrt(2)
    assert s.rat == 0 and s.rad == 1 and s.m == 2


def test_lambda_value_per_face_size():
    assert lambda_value(3) == 1
    assert lambda_value(4) == QuadNum.sqrt(2)
    assert lambda_value(6) == QuadNum.sqrt(3)
    with pytest.raises(ValueError):
        lambda_value(5)
    assert LAMBDA_RADICAND == {3: 1, 4: 2, 6: 3}


# ---------------------------------------------------------------------------
# arithmetic spot checks


def test_add():
    assert QuadNum(2, 1) + QuadNum.sqrt(2) == QuadNum(2, 1, 1)
    assert QuadNum(3, 0, 1) + QuadNum(3, 0, 2) == QuadNum(3, 0, 3)
    assert QuadNum(2, Fraction(3, 2)) + QuadNum(2, Fraction(-3, 2)) == 0


def test_mul():
    assert QuadNum.sqrt(2) * QuadNum.sqrt(2) == 2
    assert QuadNum.sqrt(3) * QuadNum.sqrt(3) == 3
    assert QuadNum(2, 1, 1) * QuadNum(2, 1, -1) == -1


def test_div():
    assert QuadNum(2, 8) / QuadNum(2, 0, 2) == QuadNum(2, 0, 2)
    x = QuadNum(2, 1, 1)
    assert x / x == 1
    assert QuadNum(3, 3) / QuadNum(3, 1) == 3


def test_division_is_exact():
    # int / int is a float in Python; division must stay in Fraction
    assert QuadNum(2, 1) / 3 == Fraction(1, 3)
    assert 2 / QuadNum(2, 3) == Fraction(2, 3)
    x = QuadNum(2, 1, 1) / QuadNum(2, 3)
    assert (x.rat, x.rad) == (Fraction(1, 3), Fraction(1, 3))
    assert x == QuadNum(2, "1/3", "1/3")
    y = QuadNum(2, 6, 3) / 3
    assert (y.rat, y.rad) == (2, 1) and type(y.rat) is int and type(y.rad) is int


def test_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        QuadNum(2, 1) / QuadNum.zero(2)


def test_int_and_fraction_coercion():
    assert 1 + QuadNum.sqrt(2) == QuadNum(2, 1, 1)
    assert 2 * QuadNum.sqrt(3) == QuadNum(3, 0, 2)
    assert 1 - QuadNum.sqrt(2) == QuadNum(2, 1, -1)
    assert 2 / QuadNum.sqrt(2) == QuadNum.sqrt(2)
    assert QuadNum(2, 1) + Fraction(1, 2) == Fraction(3, 2)


def test_negation_and_foreign_operands():
    # -x negates both coefficients; an operand that is no QuadNum, int or
    # Fraction gets NotImplemented from every operator, so Python raises
    # TypeError, and equality with it is False
    import operator

    assert -QuadNum(2, 1, 1) == QuadNum(2, -1, -1)
    assert -QuadNum(3, Fraction(1, 2), -2) == QuadNum(3, Fraction(-1, 2), 2)
    x = QuadNum(2, 1)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for a, b in ((x, "a"), ("a", x), (x, 1.5), (1.5, x)):
            with pytest.raises(TypeError):
                op(a, b)
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__eq__"):
        assert getattr(x, name)("a") is NotImplemented
    assert (x == "a") is False and (x != "a") is True and ("a" == x) is False
    assert (x == 1.0) is False  # a float is no coefficient, though 1.0 == 1


def test_float_coefficients_are_refused_as_float_operands_are():
    # a float's binary value is rarely the one written: QuadNum(2, 0.1) would hold
    # 3602879701896397/36028797018963968, so every float coefficient raises
    for rat, rad in ((0.1, 0), (0, 0.5), (1.0, 0), (0, -2.0), (float("inf"), 0)):
        with pytest.raises(TypeError, match="^a coefficient must be exact, got the float"):
            QuadNum(2, rat, rad)
        with pytest.raises(ValueError, match="^malformed quadratic value"):
            QuadNum.from_json({"m": 2, "rat": rat, "rad": rad})
    assert QuadNum(2, "0.1") == QuadNum(2, Fraction(1, 10))  # the decimal text is exact


def test_mixed_radicands_never_combine():
    with pytest.raises(RadicandMismatchError):
        QuadNum.sqrt(2) + QuadNum.sqrt(3)
    with pytest.raises(RadicandMismatchError):
        QuadNum.sqrt(2) * QuadNum(3, 1)
    # equality across fields is simply False, not an error
    assert QuadNum.sqrt(2) != QuadNum.sqrt(3)
    assert QuadNum(2, 1, 1) != QuadNum(3, 1, 1)
    # rational values compare by value in any field, so equality stays transitive
    assert QuadNum(2, 1) == 1 == QuadNum(3, 1)
    assert QuadNum(2, 1) == QuadNum(3, 1) == QuadNum(1, 1)
    assert QuadNum(2, Fraction(1, 2)) == QuadNum(3, Fraction(1, 2))
    assert hash(QuadNum(2, 1)) == hash(QuadNum(3, 1))


# ---------------------------------------------------------------------------
# sign and the integer/radical views


def test_sign_spot_values():
    assert QuadNum(2, 3, -2).sign() == 1  # 3 - 2√2: 9 > 8
    assert QuadNum(2, 1, -1).sign() == -1  # 1 - √2
    assert QuadNum(3, 0, 0).sign() == 0
    assert QuadNum(3, -1, 1).sign() == 1  # √3 - 1
    assert QuadNum(2, -3, 2).sign() == -1


def test_as_integer():
    assert QuadNum(2, 11).as_integer() == 11
    assert QuadNum(2, 0, 3).as_integer() is None
    assert QuadNum(2, Fraction(5, 2)).as_integer() is None
    assert QuadNum(1, 2, 3).as_integer() == 5


def test_as_radical_multiple():
    assert QuadNum(2, 0, 3).as_radical_multiple() == 3
    assert QuadNum(2, 2).as_radical_multiple() is None
    assert QuadNum(2, 0, 0).as_radical_multiple() == 0
    assert QuadNum(2, 0, Fraction(1, 2)).as_radical_multiple() is None


def test_render():
    assert QuadNum(2, 0, 0).render() == "0"
    assert QuadNum(2, 1).render() == "1"
    assert QuadNum(2, Fraction(5, 2)).render() == "5/2"
    assert QuadNum(2, 0, 3).render() == "3√2"
    assert QuadNum(2, 1, 1).render() == "1+√2"
    assert QuadNum(2, 1, -1).render() == "1-√2"
    assert QuadNum(3, 0, -1).render() == "-√3"
    assert QuadNum(3, 2, -3).render() == "2-3√3"


def test_json_round_trip():
    x = QuadNum(2, Fraction(3, 2), Fraction(-1, 4))
    assert x.to_json() == {"m": 2, "rat": "3/2", "rad": "-1/4"}
    assert QuadNum.from_json(x.to_json()) == x
    with pytest.raises(ValueError):
        QuadNum.from_json({"m": 2, "rat": "1"})


def test_exponent_test_copies_no_string():
    # a coefficient string with an exponent is refused; the test looks for
    # "e" and "E" instead of lowercasing a copy, which is the same rule
    # because no other code point lowercases to a string holding "e" (and a
    # string lowercases one code point at a time, but for a final sigma)
    chars = [chr(code) for code in range(sys.maxunicode + 1)]
    with_e = [c for c in chars if "e" in c.lower()]
    assert with_e == ["E", "e"]
    assert [c for c in chars if not _is_coefficient(c)] == with_e


def test_hashable_and_consistent_with_numbers():
    assert hash(QuadNum(2, 5)) == hash(5)
    assert hash(QuadNum(3, Fraction(1, 2))) == hash(Fraction(1, 2))
    assert len({QuadNum(2, 1, 1), QuadNum(2, 1, 1), QuadNum(2, 1, -1)}) == 2


# ---------------------------------------------------------------------------
# randomized algebraic laws

fractions = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)
radicands = st.sampled_from((1, 2, 3))


@st.composite
def quadnums(draw, nonzero=False):
    x = QuadNum(draw(radicands), draw(fractions), draw(fractions))
    if nonzero and x.is_zero():
        x = x + 1
    return x


@st.composite
def same_field_triples(draw):
    m = draw(radicands)
    return tuple(
        QuadNum(m, draw(fractions), draw(fractions)) for _ in range(3)
    )


@given(same_field_triples())
def test_ring_laws(xyz):
    x, y, z = xyz
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(quadnums(), quadnums(nonzero=True).filter(lambda y: not y.is_zero()))
def test_division_inverts_multiplication(x, y):
    if x.m != y.m:
        return
    assert (x * y) / y == x


@given(quadnums())
def test_sign_matches_decimal_evaluation(x):
    approx = decimal_value(x.rat, x.rad, x.m)
    assert x.sign() == (approx > 0) - (approx < 0)


@given(quadnums())
def test_json_round_trip_random(x):
    assert QuadNum.from_json(x.to_json()) == x


def assert_exact_coefficients(x):
    for c in (x.rat, x.rad):
        assert type(c) is (int if c.denominator == 1 else Fraction), repr(x)


@given(same_field_triples(), st.integers(-20, 20))
def test_arithmetic_keeps_coefficients_exact(xyz, k):
    x, y, _ = xyz
    results = [x + y, x - y, x * y, x + k, k - x, k * x]
    if y:
        results += [x / y, k / y]
        assert (x / y) * y == x and (k / y) * y == k
    if k:
        results.append(x / k)
        assert (x / k) * k == x
    for r in results:
        assert_exact_coefficients(r)


# digits, every other character Fraction's string form uses, an exponent
# letter and a non-ASCII digit
coefficient_strings = st.text(alphabet="0123456789+-/._ \teE\u0663", max_size=12)


@given(coefficient_strings)
def test_from_json_parses_strings_like_fraction(text):
    data = {"m": 2, "rat": text, "rad": text}
    if "e" in text.lower():
        with pytest.raises(ValueError, match="malformed quadratic value"):
            QuadNum.from_json(data)
        return
    try:
        expected = Fraction(text)
    except ZeroDivisionError:
        with pytest.raises(ValueError, match="malformed quadratic value"):
            QuadNum.from_json(data)
        return
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            QuadNum.from_json(data)
        assert str(raised.value) == str(exc)
        return
    x = QuadNum.from_json(data)
    assert x.rat == x.rad == expected
    assert_exact_coefficients(x)


@given(fractions, fractions, radicands)
def test_construction_canonicalizes(a, b, m):
    scaled = QuadNum(m, Fraction(3 * a.numerator, 3 * a.denominator), b)
    assert scaled == QuadNum(m, a, b)
    assert_exact_coefficients(scaled)
