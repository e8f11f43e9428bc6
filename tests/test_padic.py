"""Unit tests for capped-precision p-adic arithmetic."""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padicdyn import orbit, padic
from padicdyn.arith import is_prime
from padicdyn.dynamics import AnalyticMap
from padicdyn.errors import DomainError, PrecisionError
from padicdyn.padic import INFINITY, PAdic, padic_exp, padic_log, stabilizing_exponent
from padicdyn.series import MultiSeries, SeriesTuple


def embed(value, p=5, prec=4):
    return PAdic.from_rational(Fraction(value), p, prec)


class TestFromRational:
    def test_one_third_base_five(self):
        # oracle: modular inverse of 3 mod 5**4
        x = embed(Fraction(1, 3))
        assert x.valuation == 0
        assert x.unit_digits == pow(3, -1, 5**4)
        assert x.unit_digits == 417

    def test_zero(self):
        x = embed(0)
        assert x.is_exact_zero()
        assert x.valuation == INFINITY

    def test_fifty_base_five(self):
        x = PAdic.from_rational(50, 5, 3)
        assert x.valuation == 2
        assert x.unit_digits == 2

    def test_negative_valuation(self):
        x = embed(Fraction(1, 5))
        assert x.valuation == -1
        assert x.unit_digits == 1

    def test_rejects_even_prime(self):
        with pytest.raises(DomainError):
            PAdic.from_rational(1, 2, 4)

    def test_rejects_composite(self):
        with pytest.raises(DomainError):
            PAdic.from_rational(1, 9, 4)

    def test_rejects_nonpositive_precision(self):
        with pytest.raises(DomainError):
            PAdic.from_rational(1, 5, 0)

    @pytest.mark.parametrize("precision", [2.5, 4.0, True, "4", None])
    def test_rejects_a_non_int_precision(self, precision):
        with pytest.raises(DomainError):
            PAdic.from_rational(1, 5, precision)

    @pytest.mark.parametrize("value", [0.1, 0.5, 2.0, "1/3"])
    def test_rejects_a_float_value(self, value):
        # Fraction(0.1) would embed 3602879701896397/36028797018963968
        with pytest.raises(DomainError, match="rational"):
            PAdic.from_rational(value, 5, 4)

    def test_small_rational_round_trip(self):
        for num in range(-20, 21):
            for den in (1, 2, 3, 7):
                x = PAdic.from_rational(Fraction(num, den), 5, 12)
                assert x.lift() % 5**10 == Fraction(num, den) % 5**10 or x.is_zero() or (
                    PAdic.from_rational(Fraction(num, den), 5, 12) - Fraction(num, den)
                ).is_zero()


class TestConstructor:
    def test_rejected_primes_stay_rejected_after_valid_primes(self):
        for p in (3, 5, 7, 101):
            PAdic(p, 0, 1, 4)
            PAdic(p, 0, 1, 4)
        for bad in (9, 2, 1, 9, 2, 1):
            with pytest.raises(DomainError):
                PAdic(bad, 0, 1, 4)

    @pytest.mark.parametrize(
        "valuation, unit, precision",
        [
            (0, 3, 2.5),
            (0.5, 3, 4),
            (0, 3, 4.0),
            (1.0, 0, 0),
            (0, 0, 2.5),
            (True, 3, 4),
            (0, 3, True),
            (0, 3.0, 4),
            (INFINITY, 3, 4),
            (2, 0, INFINITY),
            ("1", 3, 4),
        ],
    )
    def test_rejects_fields_outside_the_canonical_form(self, valuation, unit, precision):
        with pytest.raises(DomainError):
            PAdic(5, valuation, unit, precision)

    def test_immutable(self):
        x = PAdic(5, 0, 1, 4)
        with pytest.raises(AttributeError):
            x.valuation = 3
        assert (x.prime, x.valuation, x.unit_digits, x.precision) == (5, 0, 1, 4)


def _digits_by_divmod(u, p, n):
    """The n lowest base-p digits of u, one divmod each: the reference."""
    out = []
    for _ in range(n):
        u, d = divmod(u, p)
        out.append(d)
    return out


class TestDigits:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_per_digit_loop(self, data):
        # precisions and counts on both sides of the split threshold, and
        # counts below and above the precision
        p = data.draw(st.sampled_from([3, 5, 7, 101]))
        precision = data.draw(st.integers(1, 400))
        unit = data.draw(st.integers(1, p**precision - 1).filter(lambda u: u % p))
        x = PAdic(p, data.draw(st.integers(-3, 3)), unit, precision)
        count = data.draw(st.none() | st.integers(0, 2 * precision + 70))
        assert x.digits(count) == _digits_by_divmod(unit, p, precision if count is None else count)

    @pytest.mark.parametrize("count", [2.5, 2.0, True, -1])
    def test_a_bad_digit_count_is_refused(self, count):
        with pytest.raises(DomainError, match="int"):
            PAdic(3, 0, 5, 4).digits(count)

    @pytest.mark.parametrize("k", [1.5, 2.0, True, -1])
    def test_a_bad_residue_count_is_refused(self, k):
        # residue(1.5) returned the float 5.0, residue(-1) the residue 0
        for x in (PAdic(3, 0, 5, 4), PAdic.from_rational(0, 3, 4)):
            with pytest.raises(DomainError, match="int"):
                x.residue(k)
        assert PAdic(3, 0, 5, 4).residue(2) == 5

    def test_long_digit_string_in_bounded_time(self):
        # -1 at p = 3 is 2 in every digit; one divmod per digit took seconds
        x = PAdic.from_rational(-1, 3, 200_000)
        started = time.perf_counter()
        text = x.digit_string()
        elapsed = time.perf_counter() - started
        assert text == "-".join(["2"] * 200_000) + "e0"
        assert elapsed < 2.0, f"{elapsed:.2f} s"


def _integer_valuation(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _reference(p, value, cap):
    """(valuation, unit_digits, precision) of a rational known modulo p**cap."""
    if cap == INFINITY:
        return (INFINITY, 0, INFINITY)
    if value == 0:
        return (cap, 0, 0)
    v = _integer_valuation(value.numerator, p) - _integer_valuation(value.denominator, p)
    if v >= cap:
        return (cap, 0, 0)
    unit = value / Fraction(p) ** v
    modulus = p ** (cap - v)
    return (v, unit.numerator * pow(unit.denominator, -1, modulus) % modulus, cap - v)


def _fields(x):
    return (x.valuation, x.unit_digits, x.precision)


@st.composite
def _elements(draw, p):
    kind = draw(st.sampled_from(["unit", "unit", "unit", "inexact zero", "exact zero"]))
    valuation = draw(st.integers(-3, 3))
    if kind == "exact zero":
        return PAdic.zero(p)
    if kind == "inexact zero":
        return PAdic(p, valuation, 0, 0)
    return PAdic(p, valuation, draw(st.integers(1, p**8)), draw(st.integers(1, 8)))


@st.composite
def _operand_pairs(draw):
    """Two elements of Q_p; often the second cancels leading digits of the first."""
    p = draw(st.sampled_from([3, 5, 7]))
    a = draw(_elements(p))
    kind = draw(st.sampled_from(["free", "cancel sum", "cancel difference"]))
    if kind == "free" or a.unit_digits == 0:
        return p, a, draw(_elements(p))
    k = draw(st.integers(1, a.precision))
    lead = -a.unit_digits if kind == "cancel sum" else a.unit_digits
    unit = lead + p**k * draw(st.integers(0, p**8))
    return p, a, PAdic(p, a.valuation, unit, draw(st.integers(1, 8)))


def _absolute_precision(x):
    return INFINITY if x.is_exact_zero() else x.valuation + x.precision


def _assert_matches_reference(case, op):
    """a op b, for op in "+-*/", against exact lifts reduced modulo p**N."""
    p, a, b = case
    lift_a, lift_b = a.lift(), b.lift()
    if op in "+-":
        result = a + b if op == "+" else a - b
        value = lift_a + lift_b if op == "+" else lift_a - lift_b
        expected = _reference(p, value, min(_absolute_precision(a), _absolute_precision(b)))
    elif op == "*":
        result = a * b
        if a.is_exact_zero() or b.is_exact_zero():
            expected = _reference(p, Fraction(0), INFINITY)
        else:
            cap = a.valuation + b.valuation + min(a.precision, b.precision)
            expected = _reference(p, lift_a * lift_b, cap)
    else:
        if b.unit_digits == 0:
            with pytest.raises(PrecisionError):
                a / b
            return
        result = a / b
        if a.is_exact_zero():
            expected = _reference(p, Fraction(0), INFINITY)
        else:
            cap = a.valuation - b.valuation + min(a.precision, b.precision)
            expected = _reference(p, lift_a / lift_b, cap)
    assert _fields(result) == expected


REFERENCE_EXAMPLES = [
    example((5, PAdic(5, 0, 126, 4), PAdic(5, 0, 1, 4)), "-"),  # three digits cancel
    example((3, PAdic(3, 1, 0, 0), PAdic(3, -1, 2, 5)), "+"),  # inexact zero operand
    example((7, PAdic(7, 0, 3, 2), PAdic(7, 0, 3, 2)), "-"),  # complete cancellation
]


def _with_reference_examples(test):
    for add_example in REFERENCE_EXAMPLES:
        test = add_example(test)
    return test


class TestAgainstIntegerReference:
    """+, -, *, / against exact lifts reduced modulo the absolute precision p**N."""

    @settings(max_examples=400, deadline=None)
    @given(_operand_pairs(), st.sampled_from("+-*/"))
    @_with_reference_examples
    def test_matches_reference(self, case, op):
        _assert_matches_reference(case, op)

    @settings(max_examples=200, deadline=None)
    @given(_operand_pairs(), st.integers(-(5**6), 5**6))
    @example((5, PAdic(5, 0, 1, 4), PAdic(5, 0, 1, 4)), 126)  # three digits cancel
    @example((3, PAdic(3, 0, 1, 4), PAdic.zero(3)), 0)  # exact zero minus exact zero
    def test_integer_minus_element(self, case, k):
        # k - b coerces k to b's precision (at least 1 digit) and subtracts
        p, _, b = case
        digits = 1 if b.is_exact_zero() else max(b.precision, 1)
        k_padic = PAdic.from_rational(k, p, digits)
        cap = min(_absolute_precision(k_padic), _absolute_precision(b))
        assert _fields(k - b) == _reference(p, k_padic.lift() - b.lift(), cap)
        assert _fields(k - b) == _fields(k_padic - b)


def _assert_canonical(prime, valuation, unit_digits, precision):
    """The form padic._canonical may assume: int fields, an odd prime, and
    either an inexact zero or a unit prime to p reduced below p**precision."""
    assert all(type(f) is int for f in (prime, valuation, unit_digits, precision))
    assert prime != 2 and is_prime(prime)
    if unit_digits == 0:
        assert precision == 0
    else:
        assert precision >= 1
        assert 0 < unit_digits < prime**precision
        assert unit_digits % prime != 0


@contextmanager
def checked_canonical():
    """padic._canonical, wherever it is bound, asserting that every result
    is canonical; yields the list of the fields it was given."""
    trusted = padic._canonical
    calls = []

    def checked(prime, valuation, unit_digits, precision):
        _assert_canonical(prime, valuation, unit_digits, precision)
        calls.append((prime, valuation, unit_digits, precision))
        return trusted(prime, valuation, unit_digits, precision)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(padic, "_canonical", checked)
        patch.setattr(orbit, "_canonical", checked)
        yield calls


class TestCanonicalConstructor:
    """Every result built by the unchecked constructor is canonical."""

    @settings(max_examples=400, deadline=None)
    @given(_operand_pairs(), st.sampled_from("+-*/"))
    @_with_reference_examples
    def test_arithmetic_on_reference_inputs(self, case, op):
        with checked_canonical():
            _assert_matches_reference(case, op)
            p, a, _ = case
            assert _fields(-a) == _reference(p, -a.lift(), _absolute_precision(a))

    def test_orbit_and_padic_relation_probe(self):
        f = AnalyticMap(SeriesTuple([
            MultiSeries(2, 2, [((1, 0), Fraction(6)), ((0, 2), Fraction(5))]),
            MultiSeries(2, 2, [((0, 1), Fraction(11)), ((2, 0), Fraction(5))]),
        ]))
        nbhd = orbit.Neighbourhood(prime=5, level=1, dim=2)

        def probe():
            result = orbit.iterate_in_neighbourhood(f, [Fraction(5), Fraction(10)], 30, nbhd, precision=40)
            found = orbit.relation_probe(result.points, 3)
            return [[_fields(x) for x in pt] for pt in result.points], [[_fields(x) for x in v] for v in found.kernel]

        with checked_canonical() as calls:
            checked = probe()
        assert len(calls) > 1000
        assert checked == probe()


class TestArithmetic:
    def test_ring_axioms_randomized(self):
        rng = random.Random(7)
        for _ in range(200):
            p = rng.choice((3, 5, 7))
            xs = [
                PAdic.from_rational(
                    Fraction(rng.randint(-50, 50), rng.choice((1, 2, 3, p))), p, 10
                )
                for _ in range(3)
            ]
            a, b, c = xs
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a

    def test_norm_multiplicative_and_ultrametric(self):
        rng = random.Random(11)
        for _ in range(200):
            p = rng.choice((3, 5, 7))
            vals = []
            for _ in range(2):
                q = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
                if q == 0:
                    q = Fraction(1)
                vals.append(q)
            x = PAdic.from_rational(vals[0], p, 14)
            y = PAdic.from_rational(vals[1], p, 14)
            assert (x * y).abs_value() == x.abs_value() * y.abs_value()
            assert (x + y).abs_value() <= max(x.abs_value(), y.abs_value())

    def test_precision_shrinks_on_cancellation(self):
        x = embed(1 + 125, prec=4)
        y = embed(1, prec=4)
        d = x - y  # = 125, three digits eaten by cancellation
        assert d.valuation == 3
        assert d.precision == 1

    def test_homomorphism_from_rationals(self):
        rng = random.Random(13)
        for _ in range(100):
            p = rng.choice((3, 5))
            a = Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3)))
            b = Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3)))
            fa, fb = (PAdic.from_rational(v, p, 12) for v in (a, b))
            assert fa + fb == PAdic.from_rational(a + b, p, 12)
            assert fa * fb == PAdic.from_rational(a * b, p, 12)

    def test_division_tracks_valuation(self):
        x = embed(5, prec=6)
        y = embed(25, prec=6)
        assert (x / y).valuation == -1
        assert (y / x).valuation == 1


class TestLog:
    def test_log_of_one(self):
        assert padic_log(embed(1)).is_zero()

    def test_log_one_plus_p_matches_partial_sum_oracle(self):
        # oracle: direct partial sums of the alternating series at higher precision
        u = embed(6, prec=4)  # 1 + 5
        got = padic_log(u)
        oracle = Fraction(0)
        for k in range(1, 30):
            oracle += Fraction((-1) ** (k + 1) * 5**k, k)
        expected = PAdic.from_rational(oracle, 5, 8)
        assert (got - expected).is_zero()
        assert got.valuation == 1

    def test_exp_log_round_trip(self):
        u = embed(6, prec=6)
        assert padic_exp(padic_log(u)) == u

    def test_log_rejects_units_away_from_one(self):
        with pytest.raises(DomainError):
            padic_log(embed(2))

    def test_log_is_additive(self):
        rng = random.Random(17)
        for _ in range(50):
            p = rng.choice((3, 5, 7))
            u = PAdic.from_rational(1 + p * rng.randint(1, 30), p, 10)
            v = PAdic.from_rational(1 + p * rng.randint(1, 30), p, 10)
            lhs = padic_log(u * v)
            rhs = padic_log(u) + padic_log(v)
            assert (lhs - rhs).is_zero()


class TestStabilizingExponent:
    def test_one(self):
        assert stabilizing_exponent(embed(1)) == 1

    def test_two_mod_five(self):
        # oracle: brute-force order of 2 in (Z/5)*
        order = next(m for m in range(1, 5) if pow(2, m, 5) == 1)
        assert order == 4
        assert stabilizing_exponent(embed(2)) == 4

    def test_six_mod_five(self):
        assert stabilizing_exponent(embed(6)) == 1

    def test_divides_p_minus_one(self):
        for p in (3, 5, 7, 11, 13):
            for b in range(1, p):
                m = stabilizing_exponent(PAdic.from_rational(b, p, 6))
                assert (p - 1) % m == 0
                assert pow(b, m, p) == 1

    def test_rejects_non_units(self):
        with pytest.raises(DomainError):
            stabilizing_exponent(embed(5))

    def test_log_defined_after_stabilizing(self):
        for b in (2, 3, 4, 6, 7):
            x = embed(b, prec=8)
            m = stabilizing_exponent(x)
            assert not padic_log(x**m).is_exact_zero() or b == 1 or (x**m - 1).is_zero()


def _update_entry(draw, p, a):
    """(x, b) for the update x - a * b: units, inexact and exact zeros in
    each slot, valuations -3..3 and unequal precisions; often x agrees with
    a * b in its leading digits, so the sum cancels."""
    b = draw(_elements(p))
    product = a * b
    if product.unit_digits and draw(st.booleans()):
        k = draw(st.integers(1, product.precision))
        unit = product.unit_digits + p**k * draw(st.integers(0, p**8))
        return PAdic(p, product.valuation, unit, draw(st.integers(1, 8))), b
    return draw(_elements(p)), b


@st.composite
def _row_updates(draw):
    """(x, a, b) over one prime for one entry of a row update."""
    p = draw(st.sampled_from([3, 5, 7]))
    a = draw(_elements(p))
    x, b = _update_entry(draw, p, a)
    return x, a, b


@st.composite
def _update_rows(draw):
    """(xs, a, ys), rows of 1 to 8 entries over one prime for the update
    xs - a * ys; entries of the inline digit step and of the operators mix."""
    p = draw(st.sampled_from([3, 5, 7]))
    a = draw(_elements(p))
    pairs = [_update_entry(draw, p, a) for _ in range(draw(st.integers(1, 8)))]
    return [x for x, _ in pairs], a, [b for _, b in pairs]


def _minus_multiple(xs, a, ys):
    """padic._minus_multiple with the powers of p up to the largest precision
    of the entries, and no further."""
    top = max((e.precision for e in (*xs, a, *ys) if e.precision != INFINITY), default=0)
    return padic._minus_multiple(xs, a, ys, [a.prime**k for k in range(top + 1)])


class TestMinusProduct:
    """padic._minus_multiple, the row update of an elimination, gives each
    entry the fields of x - a * b and builds only canonical results."""

    @settings(max_examples=500, deadline=None)
    @given(_row_updates())
    # the product's precision 2, not the larger 6, caps the sum
    @example((PAdic(5, 0, 1, 8), PAdic(5, 0, 2, 2), PAdic(5, 0, 3, 6)))
    # the product sits one digit above x, so its unit is shifted by p
    @example((PAdic(5, 0, 1, 4), PAdic(5, 1, 1, 4), PAdic(5, 0, 1, 4)))
    # an unreduced product unit 8 * 8 = 64 > 7**2, with a negative valuation
    @example((PAdic(7, -2, 3, 5), PAdic(7, -1, 8, 2), PAdic(7, -1, 8, 3)))
    @example((PAdic.zero(3), PAdic(3, 0, 2, 4), PAdic(3, 1, 1, 2)))  # exact zero x
    @example((PAdic(3, 0, 2, 4), PAdic.zero(3), PAdic(3, 1, 1, 2)))  # exact zero a
    @example((PAdic(3, 0, 2, 4), PAdic(3, 1, 1, 2), PAdic(3, 2, 0, 0)))  # inexact zero b
    def test_equals_the_two_operations(self, case):
        x, a, b = case
        with checked_canonical():
            (got,) = _minus_multiple([x], a, [b])
            assert _fields(got) == _fields(x - a * b)

    @settings(max_examples=300, deadline=None)
    @given(_update_rows())
    # in order: inline; exact zero x; zero-unit b (inexact, then exact);
    # an inexact zero x, inline; the product's term shifted past the cap;
    # x's term shifted past the cap; leading digits that cancel
    @example((
        [PAdic(5, 0, 1, 6), PAdic.zero(5), PAdic(5, 1, 3, 4), PAdic(5, 0, 7, 5), PAdic(5, 2, 0, 0),
         PAdic(5, -1, 3, 2), PAdic(5, 6, 1, 4), PAdic(5, 0, 31, 4)],
        PAdic(5, 0, 2, 4),
        [PAdic(5, 0, 3, 3), PAdic(5, 1, 1, 2), PAdic(5, 1, 0, 0), PAdic.zero(5), PAdic(5, 0, 4, 4),
         PAdic(5, 3, 1, 4), PAdic(5, 0, 1, 2), PAdic(5, 0, 3, 4)],
    ))
    def test_rows_equal_the_operations_entry_by_entry(self, case):
        xs, a, ys = case
        with checked_canonical():
            expected = [_fields(x - a * y) for x, y in zip(xs, ys)]
            assert [_fields(x) for x in _minus_multiple(xs, a, ys)] == expected
            # the elimination's table, which computes each power on first use
            got = padic._minus_multiple(xs, a, ys, padic._Powers(a.prime))
            assert [_fields(x) for x in got] == expected
