"""Exact numbers of any size in and out: the writer, the bound, and fuzzed readers."""

import random
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from diracmul.algebra import DIM, DiracNumber, build_table_from_generators, mul_schoolbook
from diracmul.cli import NumberFileError, main, read_number_file
from diracmul.exactnum import (DYADIC, MAX_EXP_BITS, MAX_INT_BITS, DyadicRational, format_int, parse_dyadic,
                               parse_int)
from diracmul.slpgen import SLPError, parse_text

# the two inputs whose products have more digits than CPython converts to text at once (4,300)
WIDE = {"4000-digit integer": "1" + "7" * 3999, "1/2^15000": "1/2^15000"}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def number_file(tmp_path, tokens, name="a.txt") -> str:
    path = tmp_path / name
    path.write_text("\n".join(tokens) + "\n", encoding="ascii")
    return str(path)


@pytest.mark.parametrize("method", ["fast", "schoolbook"])
@pytest.mark.parametrize("first", list(WIDE.values()), ids=list(WIDE))
def test_mul_prints_a_product_too_wide_for_one_conversion(capsys, tmp_path, first, method):
    tokens = [first] + ["1"] * (DIM - 1)
    path = number_file(tmp_path, tokens)
    code, out, err = run(capsys, "mul", "--method", method, path, path)
    assert (code, err) == (0, "")
    a = DiracNumber([parse_dyadic(t) for t in tokens], DYADIC)
    want = mul_schoolbook(a, a, build_table_from_generators()).coeffs
    assert [parse_dyadic(t) for t in out.split()] == want
    assert max(len(t) for t in out.split()) > 4300


def test_a_token_over_the_bound_exits_2_with_one_short_error_line(capsys, tmp_path):
    for first in ("1/2^1000000000", "3" * 30000):
        a, b = number_file(tmp_path, [first] + ["1"] * (DIM - 1)), number_file(tmp_path, ["1"] * DIM, "b.txt")
        code, out, err = run(capsys, "mul", a, b)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {a}: token 1 (") and err.count("\n") == 1 and len(err) < len(a) + 120


def test_the_bound_admits_its_widest_numerator_and_exponent_and_nothing_wider():
    widest = format_int((1 << MAX_INT_BITS) - 1)
    largest_exp = (1 << MAX_EXP_BITS) - 1
    assert parse_dyadic(widest) == DyadicRational((1 << MAX_INT_BITS) - 1)
    assert parse_dyadic(f"-{widest}/2^{largest_exp}") == DyadicRational(1 - (1 << MAX_INT_BITS), largest_exp)
    for token, part in ((format_int((1 << MAX_INT_BITS) + 1), "numerator"), (f"1/2^{largest_exp + 1}", "exponent")):
        with pytest.raises(ValueError, match=f"^{part} is wider than"):
            parse_dyadic(token)
    # exact-wide's operands: 4,096-bit numerators over 2**0 .. 2**64
    x = DyadicRational(-((1 << 4096) - 1), 64)
    assert parse_dyadic(repr(x)) == x


@pytest.mark.parametrize("line, message", [
    (f"v0 = const {format_int((1 << MAX_INT_BITS) + 1)}", "numerator is wider than 65536 bits"),
    ("v0 = const 1/2^65536", "exponent is wider than 16 bits"),
    (f"v0 = load_a {'1' * 100000}", "integer is wider than 65536 bits"),
])
def test_a_program_reads_its_integers_within_the_same_bound(line, message):
    with pytest.raises(SLPError, match=f": {message}$"):
        parse_text(line + "\n")


def decimal_text(n: int) -> str:
    """``str(n)`` the long way, 100 digits at a time from the right."""
    sign, n, pieces = "-" if n < 0 else "", abs(n), []
    while n >= 10**100:
        n, low = divmod(n, 10**100)
        pieces.append(str(low).zfill(100))
    return sign + str(n) + "".join(reversed(pieces))


@given(st.integers(-(1 << 40000), 1 << 40000) | st.integers(-(10**700), 10**700))
@settings(max_examples=60, deadline=None)
def test_integers_of_any_size_are_written_and_read_in_pieces(n):
    text = format_int(n)
    assert text == decimal_text(n)
    assert parse_int(text) == n


def test_pieces_meet_at_every_boundary():
    rng = random.Random(27)
    values = [rng.getrandbits(bits) * sign for bits in (1, 1899, 1900, 1901, 14000, 60000) for sign in (1, -1)]
    values += [(10**k + d) * sign for k in (571, 572, 599, 600, 601, 1200, 9000) for d in (-1, 0) for sign in (1, -1)]
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    texts = [format_int(n) for n in values]
    assert texts == [decimal_text(n) for n in values]
    assert [parse_int(t) for t in texts] == values
    if limit is not None:  # the process-wide limit is left as it was
        assert sys.get_int_max_str_digits() == limit


# ---------------------------------------------------------------------------
# fuzzed readers: each call returns what repr writes back, or raises the reader's error

_dyadics = st.builds(lambda num, exp: DyadicRational(num, exp).normalized(),
                     st.integers(-(1 << 80), 1 << 80) | st.integers(-3, 3), st.integers(0, 70))
_near_tokens = st.text(alphabet="-0123456789/^2+_ .", max_size=12)


def _mutated(token: str, data) -> str:
    """``token`` with one character replaced, dropped or inserted."""
    i = data.draw(st.integers(0, len(token)))
    char = data.draw(st.sampled_from("-0123456789/^2+_ x٣"))
    edit = data.draw(st.sampled_from(["replace", "drop", "insert"]))
    if edit == "insert" or i == len(token):
        return token[:i] + char + token[i:]
    return token[:i] + (char if edit == "replace" else "") + token[i + 1:]


def check_dyadic_token(token: str) -> None:
    try:
        value = parse_dyadic(token)
    except ValueError:
        return
    assert repr(value) == token


@given(st.text() | _near_tokens)
@settings(max_examples=300, deadline=None)
def test_parse_dyadic_reads_only_what_repr_writes(token):
    check_dyadic_token(token)


@given(_dyadics, st.data())
@settings(max_examples=300, deadline=None)
def test_parse_dyadic_on_a_mutated_token(x, data):
    check_dyadic_token(_mutated(repr(x), data))


@pytest.fixture(scope="module")
def scratch_file():
    with tempfile.TemporaryDirectory() as tmp:
        yield f"{tmp}/numbers.txt"


def check_number_file(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)
    try:
        values = read_number_file(path, "exact")
    except NumberFileError:
        return
    assert [repr(v) for v in values] == data.decode("ascii").split()


@given(st.binary(max_size=200) | _near_tokens.map(str.encode))
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_read_number_file_on_arbitrary_bytes(scratch_file, data):
    check_number_file(scratch_file, data)


@given(st.lists(_dyadics, min_size=DIM, max_size=DIM), st.data())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_read_number_file_with_one_token_mutated(scratch_file, values, data):
    tokens = [repr(x) for x in values]
    i = data.draw(st.integers(0, DIM - 1))
    edit = data.draw(st.sampled_from(["change", "replace", "drop", "repeat"]))
    if edit == "change":
        tokens[i] = _mutated(tokens[i], data)
    elif edit == "replace":
        tokens[i] = data.draw(_near_tokens | st.text(max_size=8))
    elif edit == "drop":
        del tokens[i]
    else:
        tokens.insert(i, tokens[i])
    sep = data.draw(st.sampled_from([" ", "\n", "\t", "  "]))
    text = sep.join(tokens) + "\n"
    check_number_file(scratch_file, text.encode("utf-8"))
