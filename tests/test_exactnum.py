import math
import operator
import random
import re
import sys
from fractions import Fraction
from unittest.mock import ANY

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracmul.exactnum import (
    FLOAT,
    FORMS,
    INTS,
    Counter,
    CountingRing,
    CountingScalar,
    DYADIC,
    DyadicRational,
    Half,
    LinearForm,
    LinearFormError,
    dyadic_add,
    dyadic_mul,
    dyadic_sub,
    lf_from_b,
    parse_dyadic,
)

from diracmul.algebra import DIM, DiracNumber, runs_natively
from diracmul.fastmult import _Box, assemble_pipeline, mul_fast, precompute
from diracmul.slpgen import flatten, interpret

from helpers import as_int, evaluate, is_integer


def as_fraction(d: DyadicRational) -> Fraction:
    return Fraction(d.num, 1 << d.exp)


class TestDyadic:
    def test_canonical_form(self):
        assert DyadicRational(4, 2).normalized().key() == (1, 0)
        assert DyadicRational(6, 1).normalized().key() == (3, 0)
        assert DyadicRational(3, 2).normalized().key() == (3, 2)
        assert DyadicRational(0, 7).normalized().key() == (0, 0)

    @given(st.builds(lambda odd, tz: odd << tz, st.integers(-(1 << 70), 1 << 70), st.integers(0, 5000))
           | st.just(0), st.integers(0, 5000) | st.just(0))
    @settings(max_examples=200)
    def test_normalized_agrees_with_the_bitwise_loop(self, num, exp):
        def by_loop(num, exp):  # the earlier implementation, one bit per step
            if num == 0:
                return (0, 0)
            while exp > 0 and num % 2 == 0:
                num //= 2
                exp -= 1
            return (num, exp)

        n = DyadicRational(num, exp).normalized()
        assert (n.num, n.exp) == by_loop(num, exp)

    @pytest.mark.parametrize("num, exp", [(0, 0), (5, 0), (-5, 0), (3, 1), (-7, 3), (1, 64), (-3, 64),
                                          ((1 << 80) + 1, 70), (-(1 << 90) - 3, 200)])
    def test_float_is_num_over_two_to_the_exp(self, num, exp):
        assert float(DyadicRational(num, exp)) == num / 2**exp

    def test_equality_is_value_equality(self):
        assert DyadicRational(4, 2) == DyadicRational(1, 0)
        assert DyadicRational(-8, 3) == DyadicRational(-1, 0)
        assert DyadicRational(1, 1) != DyadicRational(1, 0)
        assert hash(DyadicRational(4, 2)) == hash(DyadicRational(1, 0))

    def test_agrees_with_big_rationals(self):
        # independent oracle: stdlib Fraction
        rng = random.Random(123)
        for _ in range(1000):
            a = DyadicRational(rng.randint(-10**9, 10**9), rng.randint(0, 30))
            b = DyadicRational(rng.randint(-10**9, 10**9), rng.randint(0, 30))
            assert as_fraction(dyadic_add(a, b)) == as_fraction(a) + as_fraction(b)
            assert as_fraction(dyadic_sub(a, b)) == as_fraction(a) - as_fraction(b)
            assert as_fraction(dyadic_mul(a, b)) == as_fraction(a) * as_fraction(b)
            assert as_fraction(DYADIC.halve(a)) == as_fraction(a) / 2
            assert as_fraction(DYADIC.neg(a)) == -as_fraction(a)

    @given(st.builds(DyadicRational, st.integers(-(1 << 100), 1 << 100), st.integers(0, 80)),
           st.builds(DyadicRational, st.integers(-(1 << 100), 1 << 100), st.integers(0, 80)))
    @settings(max_examples=200)
    def test_operators_are_the_ring_operations(self, a, b):
        # generated code writes x + y where the ring-generic helpers call DYADIC.add(x, y)
        for got, want in ((a + b, DYADIC.add(a, b)), (a - b, DYADIC.sub(a, b)), (a * b, DYADIC.mul(a, b)),
                          (-a, DYADIC.neg(a))):
            assert type(got) is DyadicRational
            assert (got.num, got.exp) == (want.num, want.exp)
        assert as_fraction(a - b) == as_fraction(a) - as_fraction(b)

    @pytest.mark.parametrize("other", (2, 1.5, None), ids=("int", "float", "none"))
    def test_a_foreign_operand_is_refused_by_the_numeric_protocol(self, other):
        # the ring's operations too, which DiracNumber.add and scale call on every coefficient
        x = DyadicRational(3, 1)
        for op, method, ring_op in ((operator.add, DyadicRational.__add__, DYADIC.add),
                                    (operator.sub, DyadicRational.__sub__, DYADIC.sub),
                                    (operator.mul, DyadicRational.__mul__, DYADIC.mul)):
            assert method(x, other) is NotImplemented
            for left, right in ((x, other), (other, x)):
                for call in (op, ring_op):
                    with pytest.raises(TypeError, match="unsupported operand type"):
                        call(left, right)

    def test_a_foreign_operand_gets_its_reflected_turn(self):
        # the other operand's __rmul__ runs once __mul__ declines, as Half relies on
        assert DyadicRational(6) * Half(lambda v: ("halved", v)) == ("halved", DyadicRational(6))

    def test_negative_exponent_is_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            DyadicRational(1, -1)

    @given(st.integers(-(1 << 80), 1 << 80), st.integers(-(1 << 80), 1 << 80), st.integers(0, 60),
           st.integers(1, 60), st.booleans())
    @settings(max_examples=200)
    def test_results_keep_the_raw_representation(self, na, nb, low, gap, a_is_lower):
        # + and - at the larger exponent, * at the sum, negation at its own; nothing normalized
        ea, eb = (low, low + gap) if a_is_lower else (low + gap, low)
        a, b = DyadicRational(na, ea), DyadicRational(nb, eb)
        top = max(ea, eb)
        raw = {"+": (a + b, ((na << (top - ea)) + (nb << (top - eb)), top)),
               "-": (a - b, ((na << (top - ea)) - (nb << (top - eb)), top)),
               "*": (a * b, (na * nb, ea + eb)),
               "neg": (-a, (-na, ea))}
        for name, (got, want) in raw.items():
            assert type(got) is DyadicRational, name
            assert (got.num, got.exp) == want, name

    def test_operators_call_no_constructor(self):
        a, b = DyadicRational(12, 3), DyadicRational(-5, 1)
        calls = []

        def profile(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code)

        ops = [(DyadicRational.__add__, lambda: a + b), (DyadicRational.__sub__, lambda: a - b),
               (DyadicRational.__mul__, lambda: a * b), (DyadicRational.__neg__, lambda: -a),
               (DyadicRational.__add__, lambda: DYADIC.add(a, b)), (DyadicRational.__sub__, lambda: DYADIC.sub(a, b)),
               (DyadicRational.__mul__, lambda: DYADIC.mul(a, b)), (DyadicRational.__neg__, lambda: DYADIC.neg(a))]
        for method, run in ops:
            calls.clear()
            sys.setprofile(profile)
            try:
                run()
            finally:
                sys.setprofile(None)
            assert calls == [run.__code__, method.__code__]

    @given(st.integers(-10**12, 10**12), st.integers(0, 40))
    @settings(max_examples=60)
    def test_halve_and_neg_involutions(self, num, exp):
        x = DyadicRational(num, exp)
        assert DYADIC.halve(DYADIC.halve(x)) == dyadic_mul(x, DyadicRational(1, 2))
        assert DYADIC.neg(DYADIC.neg(x)) == x

    def test_parse(self):
        assert parse_dyadic("42") == DyadicRational(42)
        assert parse_dyadic("-7/2^3") == DyadicRational(-7, 3)
        assert repr(parse_dyadic("-7/2^3")) == "-7/2^3"
        with pytest.raises(ValueError):
            parse_dyadic("1/3")

    @pytest.mark.parametrize("token, bad", [("1_5", "1_5"), ("+3", "+3"), ("\u0663", "\u0663"), ("03", "03"),
                                            ("1/2^0_3", "0_3"), ("1/2^+3", "+3"), ("1_0/2^3", "1_0")])
    def test_parse_reads_integers_only_as_written(self, token, bad):
        with pytest.raises(ValueError, match=re.escape(f"expected an integer, got {bad!r}")):
            parse_dyadic(token)

    @given(st.builds(DyadicRational, st.integers(-(1 << 100), 1 << 100), st.integers(0, 80)))
    @settings(max_examples=60)
    def test_parse_reads_what_repr_writes(self, x):
        assert parse_dyadic(repr(x)).key() == x.key()

    def test_int_conversions(self):
        assert is_integer(DyadicRational(6, 1))
        assert as_int(DyadicRational(6, 1)) == 3
        with pytest.raises(ValueError):
            as_int(DyadicRational(3, 1))


class TestLinearForm:
    def test_basis_forms(self):
        assert repr(lf_from_b(0)) == "b0"
        assert repr(lf_from_b(15)) == "b15"
        assert repr(lf_from_b(4) + lf_from_b(10)) == "b4+b10"
        with pytest.raises(LinearFormError):
            lf_from_b(16)

    def test_evaluation_homomorphism(self):
        rng = random.Random(5)
        for _ in range(50):
            f = _random_form(rng)
            g = _random_form(rng)
            vals = [DyadicRational(rng.randint(-99, 99)) for _ in range(16)]
            assert evaluate(f + g, vals) == dyadic_add(evaluate(f, vals), evaluate(g, vals))
            c = LinearForm.constant(DyadicRational(rng.randint(-9, 9)))
            assert evaluate(f * c, vals) == dyadic_mul(evaluate(f, vals), c.coeffs[0])
            assert evaluate(FORMS.halve(f), vals) == DYADIC.halve(evaluate(f, vals))
            assert evaluate(-f, vals) == DYADIC.neg(evaluate(f, vals))

    def test_repr_writes_the_constant_and_each_coefficient(self):
        zero = DyadicRational(0)
        coeffs = [DyadicRational(3, 1), DyadicRational(6, 1), DyadicRational(-1, 2), DyadicRational(-1)]
        assert repr(LinearForm(coeffs + [zero] * 13)) == "3/2^1+3*b0-1/2^2*b1-b2"
        assert repr(LinearForm([zero, zero, DyadicRational(5, 3)] + [zero] * 14)) == "5/2^3*b1"
        assert repr(LinearForm.constant(DyadicRational(-5))) == "-5"
        assert repr(FORMS.zero()) == "0"

    def test_hash_agrees_with_equality(self):
        # the same coefficients, raw exponents apart: equal forms, one hash
        f = LinearForm([DyadicRational(k) for k in range(17)])
        g = LinearForm([DyadicRational(k << 3, 3) for k in range(17)])
        assert f == g and hash(f) == hash(g) and len({f, g}) == 1

    @pytest.mark.parametrize("n", (16, 18))
    def test_seventeen_coefficients_or_an_error(self, n):
        with pytest.raises(LinearFormError, match="a linear form has 17 coefficients"):
            LinearForm([DyadicRational(0)] * n)

    def test_equality_with_another_type_defers_to_it(self):
        # NotImplemented lets the right operand's reflected __eq__ answer
        assert lf_from_b(0) == ANY and not lf_from_b(0) != ANY
        assert lf_from_b(0) != 0

    def test_nonconstant_product_rejected(self):
        with pytest.raises(LinearFormError):
            lf_from_b(1) * lf_from_b(2)

    def test_constant_product_allowed_on_either_side(self):
        two = LinearForm.constant(DyadicRational(2))
        f = lf_from_b(3)
        assert (f * two) == (two * f)


def _random_form(rng):
    coeffs = [DyadicRational(rng.randint(-9, 9), rng.randint(0, 3)) for _ in range(17)]
    return LinearForm(coeffs)


class TestCounting:
    def test_generic_product_counts_once(self):
        ring = CountingRing()
        ring.mul(ring.wrap(3), ring.wrap(5))
        assert ring.counter.as_dict() == {
            "nontrivial_mults": 1, "additions": 0, "negations": 0, "shifts": 0,
        }

    def test_power_of_two_product_is_a_shift(self):
        ring = CountingRing()
        ring.mul(ring.wrap(7), ring.wrap(2))
        assert ring.counter.as_dict() == {
            "nontrivial_mults": 0, "additions": 0, "negations": 0, "shifts": 1,
        }

    @pytest.mark.parametrize("k", range(21))
    def test_trivial_factors_never_count_as_mults(self, k):
        for factor in (0, 1, -1, 1 << k, -(1 << k)):
            ring = CountingRing()
            ring.mul(ring.wrap(factor), ring.wrap(12345))
            ring.mul(ring.wrap(12345), ring.wrap(factor))
            assert ring.counter.nontrivial_mults == 0

    def test_halved_unit_is_a_shift_factor(self):
        ring = CountingRing()
        half = ring.from_dyadic(1, 1)
        ring.mul(half, ring.wrap(9))
        assert ring.counter.nontrivial_mults == 0
        assert ring.counter.shifts == 1

    def test_data_zero_additions_still_count(self):
        # structural zeros are skipped by the matrix kernels and never reach
        # the ring; zero *values* that do reach it are real additions
        ring = CountingRing()
        ring.add(ring.wrap(0), ring.wrap(7))
        assert ring.counter.additions == 1

    def test_subtraction_counts_as_one_addition(self):
        ring = CountingRing()
        ring.sub(ring.wrap(3), ring.wrap(4))
        assert ring.counter.additions == 1
        assert ring.counter.negations == 0

    def test_negation_and_halving_tracked_separately(self):
        ring = CountingRing()
        x = ring.wrap(3)
        ring.halve(ring.neg(x))
        assert ring.counter.as_dict() == {
            "nontrivial_mults": 0, "additions": 0, "negations": 1, "shifts": 1,
        }

    def test_counting_never_perturbs_values(self):
        rng = random.Random(9)
        ring = CountingRing()
        for _ in range(200):
            x, y = rng.randint(-999, 999), rng.randint(-999, 999)
            got = ring.halve(ring.mul(ring.add(ring.wrap(x), ring.wrap(y)), ring.wrap(3)))
            want = DYADIC.halve(DYADIC.mul(DYADIC.add(DYADIC.wrap(x), DYADIC.wrap(y)), DYADIC.wrap(3)))
            assert got.value == want

    def test_report_serialization(self):
        counter = Counter(nontrivial_mults=88, additions=264, negations=77, shifts=84)
        assert counter.report() == (
            "nontrivial_mults=88\nadditions=264\nnegations=77\nshifts=84"
        )
        assert counter.as_dict()["additions"] == 264
        assert counter.snapshot() == (88, 264, 77, 84)


# the surface every ring exposes; a wrapper ring (such as a timing one) reads all of it
RING_SURFACE = ("wrap", "from_dyadic", "zero", "one", "add", "sub", "neg", "mul", "halve", "eq")
RINGS = {"float": FLOAT, "dyadic": DYADIC, "int": INTS, "linear-form": FORMS, "counting": CountingRing()}


class TestRingSurface:
    @pytest.mark.parametrize("name", RINGS)
    def test_every_ring_exposes_the_surface(self, name):
        ring = RINGS[name]
        assert ring.name == name
        for attr in RING_SURFACE:
            assert callable(getattr(ring, attr)), attr

    @pytest.mark.parametrize("name", RINGS)
    def test_constants_and_arithmetic(self, name):
        ring = RINGS[name]
        three = ring.wrap(3)
        assert ring.eq(ring.add(ring.zero(), three), three)
        assert ring.eq(ring.mul(ring.one(), three), three)
        assert ring.eq(ring.sub(three, three), ring.zero())
        assert ring.eq(ring.neg(ring.neg(three)), three)
        assert ring.eq(ring.halve(ring.wrap(6)), three)
        if ring is not INTS:
            half = ring.from_dyadic(1, 1)
            assert ring.eq(ring.add(half, half), ring.one())

    def test_constants_keep_their_types(self):
        assert type(FLOAT.wrap(3)) is float and FLOAT.wrap(3) == 3.0
        assert (FLOAT.zero(), FLOAT.one()) == (0.0, 1.0) and type(FLOAT.zero()) is float
        assert type(INTS.wrap(3)) is int and (INTS.zero(), INTS.one()) == (0, 1)
        assert type(DYADIC.wrap(3)) is DyadicRational and DYADIC.wrap(3).key() == (3, 0)
        assert (DYADIC.zero().key(), DYADIC.one().key()) == ((0, 0), (1, 0))
        assert FORMS.zero() == LinearForm.constant(DyadicRational(0))
        assert FORMS.one() == LinearForm.constant(DyadicRational(1))
        assert FORMS.wrap(3) == LinearForm.constant(DyadicRational(3))

    @pytest.mark.parametrize("n", [0, 1, -7, -(1 << 20), 2**100])
    def test_dyadic_wrap_keeps_the_raw_integer(self, n):
        raw = (DYADIC.wrap(n).num, DYADIC.wrap(n).exp)
        assert raw == (n, 0) and type(raw[0]) is int
        x = DiracNumber.from_ints([n] * DIM, DYADIC)
        assert [(c.num, c.exp) for c in x.coeffs] == [(n, 0)] * DIM

    def test_dyadic_constants_are_raw_integers(self):
        raw = lambda x: [(c.num, c.exp) for c in x.coeffs]  # noqa: E731
        assert raw(DiracNumber.zero(DYADIC)) == [(0, 0)] * DIM
        assert raw(DiracNumber.basis(5, DYADIC)) == [(0, 0)] * 5 + [(1, 0)] + [(0, 0)] * 10
        assert [(c.num, c.exp) for c in (DYADIC.zero(), DYADIC.one())] == [(0, 0), (1, 0)]

    def test_int_ring_takes_only_integral_dyadics(self):
        assert INTS.from_dyadic(-12, 2) == -3
        assert INTS.from_dyadic(5, 0) == 5
        with pytest.raises(ValueError):
            INTS.from_dyadic(3, 1)

    def test_counting_constants_carry_the_ring_counter(self):
        ring = CountingRing()
        for value in (ring.wrap(3), ring.from_dyadic(3, 2), ring.zero(), ring.one()):
            assert type(value) is CountingScalar and value.counter is ring.counter
        assert ring.zero().value.key() == (0, 0) and ring.one().value.key() == (1, 0)

    def test_counting_eq_ignores_the_counter(self):
        one, other = CountingRing(), CountingRing()
        other.counter.additions = 5
        assert one.eq(one.wrap(7), other.wrap(7))
        assert not one.eq(one.wrap(7), other.wrap(8))

    @pytest.mark.parametrize("name", RINGS)
    def test_operator_rings_run_the_compiled_product_natively(self, name):
        # DYADIC keeps the dyadic_* functions: mul_fast and the operator run
        # the compiled product on integers, slpgen.interpret on DyadicRationals
        assert runs_natively(RINGS[name]) == (name != "dyadic")

    def test_dyadic_products_never_box_their_values(self):
        box_codes = {f.__code__ for f in vars(_Box).values() if hasattr(f, "__code__")}
        program = flatten(assemble_pipeline(3))
        rng = random.Random(29)
        a, b = (DiracNumber.from_ints([rng.randint(-99, 99) for _ in range(DIM)], DYADIC) for _ in range(2))

        def calls_of(run):
            calls = []
            sys.setprofile(lambda frame, event, _arg: event == "call" and calls.append(frame.f_code))
            try:
                out = run()
            finally:
                sys.setprofile(None)
            return out, set(calls)

        fast, fast_calls = calls_of(lambda: mul_fast(a, b))
        applied, apply_calls = calls_of(lambda: precompute(b).apply(a))
        interpreted, interpret_calls = calls_of(lambda: interpret(program, a.coeffs, b.coeffs, DYADIC))
        assert fast.coeffs == applied.coeffs == interpreted
        for calls in (fast_calls, apply_calls, interpret_calls):
            assert calls and calls.isdisjoint(box_codes)
        # a ring that is DYADIC's but not DYADIC itself goes through the boxes
        other = type(DYADIC)()
        a2, b2 = (DiracNumber(x.coeffs, other) for x in (a, b))
        boxed, boxed_calls = calls_of(lambda: precompute(b2).apply(a2))
        assert boxed.coeffs == fast.coeffs and box_codes & boxed_calls


def raw(x: DyadicRational) -> tuple:
    """Numerator and exponent as held, not normalized."""
    return (x.num, x.exp)


class TestHalf:
    """``x * ring.half`` is ``ring.halve(x)`` exactly on every shipped ring:
    the compiled fast product halves that way."""

    def test_floats_by_their_bits(self):
        edges = (5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308, 0.0, -0.0,
                 math.inf, -math.inf, math.nan, 1.0, -3.0, 0.1)
        rng = random.Random(12)
        for x in edges + tuple(rng.uniform(-1e6, 1e6) for _ in range(200)):
            assert (x * FLOAT.half).hex() == FLOAT.halve(x).hex()

    def test_dyadics_by_numerator_and_exponent(self):
        for num, exp in ((0, 0), (0, 5), (1, 0), (-1, 0), (6, 1), (-7, 3), (4, 2), ((1 << 300) + 1, 40)):
            x = DyadicRational(num, exp)
            assert raw(x * DYADIC.half) == raw(DYADIC.halve(x))

    def test_linear_forms_by_their_coefficients(self):
        form = lf_from_b(3) + lf_from_b(7) - lf_from_b(0) * FORMS.from_dyadic(3, 2) + FORMS.from_dyadic(-5, 1)
        for x in (form, -form, FORMS.zero(), FORMS.one(), lf_from_b(15)):
            assert [raw(c) for c in FORMS.halve(x).coeffs] == [raw(c) for c in (x * FORMS.half).coeffs]
            assert [raw(c) for c in FORMS.halve(x).coeffs] == [(c.num, c.exp + 1) for c in x.coeffs]

    def test_integers_shift_as_halve_does(self):
        for x in (0, -2, 6, -8, 1 << 100, -(1 << 100) - 2):
            assert x * INTS.half == INTS.halve(x) == x // 2
        for x in (1, -1, -7, (1 << 100) + 1, -(1 << 100) - 1):  # an odd value has no integer half
            with pytest.raises(ValueError, match="odd"):
                INTS.halve(x)
            with pytest.raises(ValueError, match="odd"):
                x * INTS.half

    @pytest.mark.parametrize("num, exp", ((0, 0), (1, 0), (-1, 0), (4, 0), (-1, 3), (7, 0), (-9, 5)))
    def test_counting_half_counts_one_shift_whatever_it_halves(self, num, exp):
        # a plain 1/2 would count nothing for a zero or unit value
        ring = CountingRing()
        x = ring.from_dyadic(num, exp)
        got = x * ring.half
        assert type(got) is CountingScalar and raw(got.value) == raw(DYADIC.halve(x.value))
        assert ring.counter.snapshot() == (0, 0, 0, 1)

    def test_counting_ring_counts_a_halved_entry_that_is_exactly_zero(self):
        rng = random.Random(410)
        av, bv = ([rng.randint(3, 1 << 19) * 2 + 1 for _ in range(DIM)] for _ in range(2))
        bv[5], bv[15] = -bv[0], -bv[10]
        prog = assemble_pipeline(3).program
        assert prog.bind(DYADIC.half, [DYADIC.wrap(v) for v in bv]).count(DyadicRational(0)) == 2
        # one shift per halving, as a call of halve counts them
        want = {1: (104, 192, 8, 16), 2: (84, 202, 8, 24), 3: (80, 196, 8, 32)}
        for level, counts in want.items():
            ring = CountingRing()
            mul_fast(DiracNumber.from_ints(av, ring), DiracNumber.from_ints(bv, ring), level)
            assert ring.counter.snapshot() == counts
        # a plain 1/2 counts no shift for the two zero entries
        ring = CountingRing()
        ring.half = CountingScalar(DyadicRational(1, 1), ring.counter)
        prog.apply([ring.wrap(v) for v in av], prog.bind(ring.half, [ring.wrap(v) for v in bv]))
        assert ring.counter.shifts == 30
