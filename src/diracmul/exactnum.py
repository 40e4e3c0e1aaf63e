"""Scalar rings used throughout the package.

One generic pipeline serves five purposes depending on the ring it runs
over:

* ``FloatRing``     -- machine reals, for benchmarking;
* ``DyadicRing``    -- exact numbers of the form n / 2**k, for bit-exact
                       verification;
* ``IntRing``       -- plain Python integers, the ring the fast product
                       runs dyadic operands on once they share one
                       exponent, and the proof runs packed basis
                       vectors on (see ``proof``);
* ``LinearFormRing``-- degree-one symbolic forms in the sixteen right-hand
                       coefficients, for deriving stage matrices (a
                       failed proof also reports its cells as forms);
* ``CountingRing``  -- dyadic values plus an operation tally, for
                       reproducing arithmetic-cost claims.

Every ring exposes the same small surface: ``wrap``, ``from_dyadic``,
``zero``, ``one``, ``add``, ``sub``, ``neg``, ``mul``, ``halve``, ``eq``.
The values of every ring here carry the operators ``+``, ``-``, ``*`` and
unary ``-``, and every ring here also supplies ``half``, a value for which
``x * half`` equals ``halve(x)`` exactly: ``0.5`` on floats, the dyadic or
constant form 1/2 on dyadics and linear forms, and a :class:`Half` where
no value of the ring halves by multiplication (integers, which halve only
even values) or where each halving must be seen (the counting ring, where
each counts a shift).  The compiled fast product is written with those
operators and halves as ``x * half``, so on floats it makes no call at
all (see ``fastmult``).  The base class :class:`OperatorRing` makes
``add``/``sub``/``neg``/``mul``/``eq`` the ``operator`` builtins, builds
``wrap``, ``zero`` and ``one`` from ``from_dyadic`` and halves as
``x * half``; each ring supplies ``name``, ``from_dyadic`` and ``half``.
Only ``IntRing`` (an exact shift) and ``CountingRing`` (which counts a
shift) define their own ``halve``, the one their ``Half`` calls.  ``FloatRing``,
``IntRing`` and ``DyadicRing`` also set ``wrap`` to the type itself
(``float``, ``int``, ``DyadicRational``), so wrapping an integer is one
call.  Products over ``DYADIC`` make no ``DyadicRational`` but their
outputs: schoolbook and the fast product bring each operand to one
exponent with :func:`exact_ints`, multiply plain integers and build the
outputs with :func:`exact_values`.  ``DyadicRing``'s ``add``/``sub``/``mul``
are the ``operator`` builtins, so a ring-generic helper
(``DiracNumber.add``/``scale``, ``linalg.structural_apply``) given a
coefficient that is no dyadic raises ``TypeError``; its ``neg`` and
:class:`LinearForm` and :class:`CountingScalar`, whose values are
dyadics, call the ``dyadic_*`` functions directly.  Those are
:class:`DyadicRational`'s operators, and
each builds its result with ``object.__new__`` and two slot stores, not
through the class call, whose ``__init__`` frame and negative-exponent
check would cost more than the arithmetic on small numerators: a sum or
difference is left at the larger exponent, a product at the sum of the
exponents and a negation at its operand's, so a result's exponent is
never negative when its operands' are not, and no result is normalized.
Values are immutable; the one mutable object is the :class:`Counter`
handle, which is meant for single-threaded measurement runs.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import asdict, astuple, dataclass, field


class LinearFormError(ValueError):
    """Raised for operations that would leave the degree<=1 carrier."""


# bound once: CPython 3.11 leaves the load of ``object.__new__`` unspecialized, the generic lookup each time
_new = object.__new__


class DyadicRational:
    """Exact number num / 2**exp with arbitrary-precision numerator.

    Instances are kept lazily normalized: ``num`` may be even with
    ``exp > 0`` internally, but equality, hashing and formatting always
    use the canonical form (odd numerator or zero exponent).

    The constructor rejects a negative exponent.  ``+``, ``-``, ``*`` and
    unary ``-`` build their results without it (``object.__new__`` and two
    slot stores): a result's exponent is the larger of its operands', their
    sum or the operand's own, never negative since theirs are not.  Binary
    ``+``, ``-`` and ``*`` return ``NotImplemented`` for an operand without
    ``num`` and ``exp``, from a ``try`` that costs nothing on 3.11+.
    """

    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int = 0):
        if exp < 0:
            raise ValueError("exponent must be non-negative")
        self.num = num
        self.exp = exp

    def normalized(self) -> "DyadicRational":
        num, exp = self.num, self.exp
        if num == 0:
            return DyadicRational(0, 0)
        # the trailing zero bits of num, as many as the exponent allows
        tz = min(exp, (num & -num).bit_length() - 1)
        return DyadicRational(num >> tz, exp - tz)

    def key(self) -> tuple[int, int]:
        n = self.normalized()
        return (n.num, n.exp)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DyadicRational):
            return NotImplemented
        return self.num << other.exp == other.num << self.exp

    def __hash__(self):
        return hash(self.key())

    def __float__(self) -> float:
        return self.num / (1 << self.exp)

    def is_zero(self) -> bool:
        return self.num == 0

    def __add__(self, other: "DyadicRational") -> "DyadicRational":
        try:
            ea, eb = self.exp, other.exp
            r = _new(DyadicRational)
            if ea == eb:
                r.num = self.num + other.num
                r.exp = ea
            elif ea < eb:
                r.num = (self.num << (eb - ea)) + other.num
                r.exp = eb
            else:
                r.num = self.num + (other.num << (ea - eb))
                r.exp = ea
            return r
        except AttributeError:  # an operand without num or exp
            return NotImplemented

    def __sub__(self, other: "DyadicRational") -> "DyadicRational":
        try:
            ea, eb = self.exp, other.exp
            r = _new(DyadicRational)
            if ea == eb:
                r.num = self.num - other.num
                r.exp = ea
            elif ea < eb:
                r.num = (self.num << (eb - ea)) - other.num
                r.exp = eb
            else:
                r.num = self.num - (other.num << (ea - eb))
                r.exp = ea
            return r
        except AttributeError:
            return NotImplemented

    def __mul__(self, other: "DyadicRational") -> "DyadicRational":
        try:
            r = _new(DyadicRational)
            r.num = self.num * other.num
            r.exp = self.exp + other.exp
            return r
        except AttributeError:
            return NotImplemented

    def __neg__(self) -> "DyadicRational":
        r = _new(DyadicRational)
        r.num = -self.num
        r.exp = self.exp
        return r

    def __repr__(self) -> str:
        n = self.normalized()
        if n.exp == 0:
            return format_int(n.num)
        return f"{format_int(n.num)}/2^{n.exp}"


# the ring operations, callable without the operator dispatch
dyadic_add = DyadicRational.__add__
dyadic_sub = DyadicRational.__sub__
dyadic_mul = DyadicRational.__mul__
dyadic_neg = DyadicRational.__neg__


_INT = re.compile(r"0|-?[1-9][0-9]*")

# Decimal digits converted at once.  CPython refuses to convert an int of
# more than sys.get_int_max_str_digits() digits to or from text (4,300 by
# default, 640 at the least), a process-wide setting this package leaves
# alone: longer integers are converted in pieces of at most this many.
_PIECE_DIGITS = 600
_PIECE_BITS = 1900  # 2**1900 has 572 digits

# the widest integer parse_int reads, so that no token costs more than a few
# milliseconds; parse_dyadic reads n/2^k with n that wide and k of at most 16 bits
MAX_INT_BITS = 1 << 16
MAX_EXP_BITS = 16


def shown(token: str) -> str:
    """``repr(token)`` for an error message; a token longer than 32
    characters as its first 24 and its length."""
    if len(token) <= 32:
        return repr(token)
    return f"{token[:24]!r}... ({len(token)} characters)"


def format_int(n: int) -> str:
    """``str(n)`` for an integer of any size, converted in pieces so that
    CPython's limit on integer-to-text conversion never applies."""
    if n.bit_length() <= _PIECE_BITS:
        return str(n)
    if n < 0:
        return "-" + format_int(-n)
    k = int(n.bit_length() * math.log10(2)) // 2  # about half the digits, so that hi is at least 1
    hi, lo = divmod(n, 10**k)
    return format_int(hi) + format_int(lo).zfill(k)


def _digits_value(digits: str) -> int:
    """The value of a string of ASCII digits, converted in pieces."""
    if len(digits) <= _PIECE_DIGITS:
        return int(digits)
    k = len(digits) // 2
    return _digits_value(digits[:-k]) * 10**k + _digits_value(digits[-k:])


def parse_int(token: str, bits: int = MAX_INT_BITS, what: str = "integer") -> int:
    """The integer ``token`` as the package writes integers, ASCII
    ``0|-?[1-9][0-9]*``: no ``+``, no ``_``, no leading zero, no ``-0``, no
    other digits, past CPython's conversion limit too (:func:`format_int`
    writes it).  ``ValueError`` for any other token and for an integer
    wider than ``bits``, called ``what`` in the message; a token too long
    for one is refused before it is converted."""
    if not _INT.fullmatch(token):
        raise ValueError(f"expected an integer, got {shown(token)}")
    if len(token) > int(bits * math.log10(2)) + 2:  # more digits than any integer that fits
        raise ValueError(f"{what} is wider than {bits} bits")
    value = -_digits_value(token[1:]) if token[0] == "-" else _digits_value(token)
    if value.bit_length() > bits:
        raise ValueError(f"{what} is wider than {bits} bits")
    return value


def parse_dyadic(token: str) -> DyadicRational:
    """The number ``token`` as ``repr`` writes a :class:`DyadicRational`:
    ``n``, or ``n/2^k`` in lowest terms (``n`` odd, ``k`` at least 1),
    each integer read by :func:`parse_int` -- the number-file grammar.
    ``ValueError`` for any other token, and for one beyond the bound: ``n``
    wider than :data:`MAX_INT_BITS` bits or ``k`` wider than
    :data:`MAX_EXP_BITS`."""
    num_s, slash, den_s = token.partition("/")
    num = parse_int(num_s, what="numerator")
    if not slash:
        return DyadicRational(num)
    if not den_s.startswith("2^"):
        raise ValueError(f"bad dyadic token {shown(token)}: denominator must be 2^k")
    exp = parse_int(den_s[2:], MAX_EXP_BITS, "exponent")
    if exp < 1:
        raise ValueError(f"bad dyadic token {shown(token)}: the k of n/2^k must be at least 1")
    if not num & 1:
        raise ValueError(f"dyadic token {shown(token)} is not in lowest terms: n/2^k takes an odd n")
    return DyadicRational(num, exp)


class LinearForm:
    """c0 + sum(c[m] * b_m) with dyadic coefficients, m = 0..15.

    Closed under addition, negation and halving, which is ``x * FORMS.half``
    (the constant form 1/2).  Multiplication is only defined when at least
    one factor is a pure constant, which keeps the degree at most one.
    """

    __slots__ = ("coeffs",)
    NVARS = 16

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != self.NVARS + 1:
            raise LinearFormError("a linear form has 17 coefficients")
        self.coeffs = coeffs

    @staticmethod
    def constant(value: DyadicRational) -> "LinearForm":
        zero = DyadicRational(0)
        return LinearForm((value,) + (zero,) * LinearForm.NVARS)

    @staticmethod
    def variable(index: int) -> "LinearForm":
        if not 0 <= index < LinearForm.NVARS:
            raise LinearFormError(f"variable index {index} out of range 0..15")
        zero = DyadicRational(0)
        coeffs = [zero] * (LinearForm.NVARS + 1)
        coeffs[index + 1] = DyadicRational(1)
        return LinearForm(coeffs)

    def is_constant(self) -> bool:
        return all(c.is_zero() for c in self.coeffs[1:])

    def __add__(self, other: "LinearForm") -> "LinearForm":
        return LinearForm(tuple(dyadic_add(a, b) for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "LinearForm") -> "LinearForm":
        return LinearForm(tuple(dyadic_sub(a, b) for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "LinearForm":
        return LinearForm(tuple(DyadicRational(-c.num, c.exp) for c in self.coeffs))

    def __mul__(self, other: "LinearForm") -> "LinearForm":
        if other.is_constant():
            k = other.coeffs[0]
            return LinearForm(tuple(dyadic_mul(c, k) for c in self.coeffs))
        if self.is_constant():
            k = self.coeffs[0]
            return LinearForm(tuple(dyadic_mul(k, c) for c in other.coeffs))
        raise LinearFormError("product of two non-constant forms leaves degree <= 1")

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearForm):
            return NotImplemented
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash(tuple(c.key() for c in self.coeffs))

    def __repr__(self) -> str:
        parts = []
        if not self.coeffs[0].is_zero():
            parts.append(repr(self.coeffs[0]))
        for m, c in enumerate(self.coeffs[1:]):
            if c.is_zero():
                continue
            cn = c.normalized()
            if cn.num == 1 and cn.exp == 0:
                parts.append(f"+b{m}")
            elif cn.num == -1 and cn.exp == 0:
                parts.append(f"-b{m}")
            else:
                sign = "+" if cn.num > 0 else "-"
                mag = DyadicRational(abs(cn.num), cn.exp)
                parts.append(f"{sign}{mag!r}*b{m}")
        if not parts:
            return "0"
        text = "".join(parts)
        return text[1:] if text.startswith("+") else text


class Half:
    """A ring's ``half`` where no value of the ring halves by
    multiplication: ``x * half`` is ``halve(x)``, called through
    ``__rmul__``.  The values' own ``__mul__`` returns ``NotImplemented``
    for it, as ``int``'s does."""

    __slots__ = ("halve",)

    def __init__(self, halve):
        self.halve = halve

    def __rmul__(self, x):
        return self.halve(x)


@dataclass
class Counter:
    """Mutable tally of the cost model: generic multiplications and
    additions are the priced operations, negations and power-of-two
    shifts are tracked but free."""

    nontrivial_mults: int = 0
    additions: int = 0
    negations: int = 0
    shifts: int = 0

    def as_dict(self) -> dict:
        return asdict(self)

    def report(self) -> str:
        """Flat key=value text block (the CLI interchange format)."""
        return "\n".join(f"{k}={v}" for k, v in self.as_dict().items())

    def snapshot(self) -> tuple[int, int, int, int]:
        return astuple(self)


def _is_pow2_magnitude(n: int) -> bool:
    n = abs(n)
    return n != 0 and (n & (n - 1)) == 0


def _mul_kind(v: DyadicRational) -> str:
    n = v.normalized()
    if n.num == 0:
        return "zero"
    if n.num in (1, -1) and n.exp == 0:
        return "unit"
    if _is_pow2_magnitude(n.num):
        return "pow2"
    return "generic"


@dataclass(frozen=True)
class CountingScalar:
    """A dyadic value whose arithmetic feeds a shared :class:`Counter`.

    Its operators are the cost model: multiplication is free when either
    factor is 0 or +-1 and a shift when either factor is another signed
    power of two; additions always count (structural zeros never reach
    the ring because matrix kernels skip zero entries); negation is
    tracked separately.
    """

    value: DyadicRational
    counter: Counter = field(compare=False)

    def __add__(self, other: "CountingScalar") -> "CountingScalar":
        self.counter.additions += 1
        return CountingScalar(dyadic_add(self.value, other.value), self.counter)

    def __sub__(self, other: "CountingScalar") -> "CountingScalar":
        # subtraction = addition plus a free negation
        self.counter.additions += 1
        return CountingScalar(dyadic_sub(self.value, other.value), self.counter)

    def __neg__(self) -> "CountingScalar":
        self.counter.negations += 1
        return CountingScalar(dyadic_neg(self.value), self.counter)

    def __mul__(self, other: "CountingScalar") -> "CountingScalar":
        if not isinstance(other, CountingScalar):
            return NotImplemented
        ka, kb = _mul_kind(self.value), _mul_kind(other.value)
        if ka == "generic" and kb == "generic":
            self.counter.nontrivial_mults += 1
        elif "zero" not in (ka, kb) and "unit" not in (ka, kb):
            self.counter.shifts += 1
        return CountingScalar(dyadic_mul(self.value, other.value), self.counter)


class OperatorRing:
    """The shared ring surface: the ``operator`` builtins, halving as
    ``x * half``, and constants built through the ring's ``from_dyadic``."""

    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    neg = staticmethod(operator.neg)
    mul = staticmethod(operator.mul)
    eq = staticmethod(operator.eq)

    def wrap(self, n):
        return self.from_dyadic(n, 0)

    def zero(self):
        return self.wrap(0)

    def one(self):
        return self.wrap(1)

    def halve(self, x):
        return x * self.half


class FloatRing(OperatorRing):
    """Machine reals; halving is exact in binary floating point."""

    name = "float"
    wrap = float

    @staticmethod
    def from_dyadic(num, exp):
        return num / (1 << exp)

    half = 0.5


class DyadicRing(OperatorRing):
    name = "dyadic"
    wrap = from_dyadic = DyadicRational
    # add/sub/mul are the inherited operators, through which an operand that is no dyadic
    # raises TypeError (the methods return NotImplemented for it); neg is the function, so
    # this ring does not run the compiled code natively: its products run on integers
    # (exact_ints)
    neg = staticmethod(dyadic_neg)
    half = DyadicRational(1, 1)


class IntRing(OperatorRing):
    """Plain Python integers.

    ``halve`` is the shift ``x >> 1`` of an even value and raises
    ``ValueError`` on an odd one, whose half is no integer; no integer
    halves by multiplication, so ``half`` is a :class:`Half` that shifts.
    The fast product over this ring never halves: it runs ``bind`` with the
    halvings kept in an exponent and shifts the exact outputs back (see
    ``fastmult``), and ``slpgen.interpret`` runs on ``DYADIC``.
    """

    name = "int"
    wrap = int

    @staticmethod
    def from_dyadic(num, exp):
        if num & ((1 << exp) - 1):
            raise ValueError(f"{num}/2^{exp} is not an integer")
        return num >> exp

    @staticmethod
    def halve(x):
        if x & 1:
            raise ValueError(f"{x} is odd; its half is not an integer")
        return x >> 1

    half = Half(halve)


class LinearFormRing(OperatorRing):
    name = "linear-form"
    half = LinearForm.constant(DyadicRational(1, 1))

    @staticmethod
    def from_dyadic(num, exp):
        return LinearForm.constant(DyadicRational(num, exp))


class CountingRing(OperatorRing):
    """Dyadic arithmetic instrumented per the cost model.

    ``add``/``sub``/``neg``/``mul`` are the operators of
    :class:`CountingScalar`, which hold the cost model; ``halve`` counts a
    shift, and so does ``x * half``, whatever ``x`` is (a plain 1/2 would
    count nothing for a zero or unit ``x``).  ``eq`` compares values and
    ignores the counter.
    """

    name = "counting"

    def __init__(self):
        self.counter = Counter()
        self.half = Half(self.halve)

    def from_dyadic(self, num, exp):
        return CountingScalar(DyadicRational(num, exp), self.counter)

    def halve(self, a):
        self.counter.shifts += 1
        return CountingScalar(DyadicRational(a.value.num, a.value.exp + 1), self.counter)


FLOAT = FloatRing()
DYADIC = DyadicRing()
INTS = IntRing()
FORMS = LinearFormRing()


def exact_ints(values, ring):
    """``(nums, exp)`` with ``values[k] == nums[k] / 2**exp``: values of
    ``DYADIC`` at their largest exponent, values of ``INTS`` at exponent 0.
    ``TypeError`` names the ring and the type of a coefficient of ``DYADIC``
    that is no :class:`DyadicRational`."""
    if ring is INTS:
        return values, 0
    try:
        nums = [v.num for v in values]
        exps = [v.exp for v in values]
    except AttributeError:
        bad = next(v for v in values if not isinstance(v, DyadicRational))
        raise TypeError(f"a coefficient over the {ring.name} ring has type {type(bad).__name__}, "
                        "not DyadicRational") from None
    exp = max(exps)
    if exp:
        nums = [n << (exp - e) for n, e in zip(nums, exps)]
    return nums, exp


def exact_values(nums, exp: int, ring) -> list:
    """Each ``nums[k] / 2**exp`` over ``DYADIC``, or over ``INTS``, where it
    must be an integer: the inverse of :func:`exact_ints`.  The dyadics are
    built as ``DyadicRational``'s operators build theirs, without the
    constructor's frame: ``exp`` is a sum of exponents and halvings, never
    negative."""
    if ring is INTS:
        return [n >> exp for n in nums]
    out = []
    for n in nums:
        r = _new(DyadicRational)
        r.num = n
        r.exp = exp
        out.append(r)
    return out


def lf_from_b(index: int) -> LinearForm:
    """The basis form b_index."""
    return LinearForm.variable(index)
