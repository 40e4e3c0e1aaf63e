"""The 16-dimensional hypercomplex algebra and its ground-truth product.

The algebra has a real unit (index 0) and fifteen imaginary units
i1..i15.  The four generators satisfy i1^2 = +1, i2^2 = i3^2 = i4^2 = -1
and anti-commute pairwise; composite units are ascending ordered products
(i5 = i1*i2, ..., i15 = i1*i2*i3*i4).  Everything else in the package is
checked against the table built here and against the schoolbook product.
"""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple

from .exactnum import DYADIC, FORMS, INTS, exact_ints, exact_values, lf_from_b, parse_int
from .linalg import Mat
from .program import Recorder, copy_function, function_source, load_source

DIM = 16

# composite-unit layout: index -> generator bitmask (bit g-1 for generator g)
_INDEX_TO_MASK = (
    0b0000,
    0b0001, 0b0010, 0b0100, 0b1000,
    0b0011, 0b0101, 0b1001, 0b0110, 0b1010, 0b1100,
    0b0111, 0b1011, 0b1101, 0b1110,
    0b1111,
)
_MASK_TO_INDEX = {m: i for i, m in enumerate(_INDEX_TO_MASK)}

# squares of the generators i1..i4
_GEN_SQUARE = {1: 1, 2: -1, 3: -1, 4: -1}


class SignedBasis(NamedTuple):
    """A product result +-i_index; index 0 is the real unit.

    :class:`MultTable` stores each cell as the plain tuple ``(sign,
    index)``, which compares equal to this.
    """

    sign: int
    index: int


@dataclass(frozen=True)
class MultTable:
    """16x16 grid of ``(sign, index)`` cells; entries[p][q] = i_p * i_q.

    A frozen value: ``entries`` and ``gathers`` are tuples, built once
    here, and no attribute can be rebound, so the gathers always describe
    the rows they were built from.  Tables compare by ``entries``.
    Each cell is a plain tuple, converted once here: CPython unpacks an
    exact tuple on its fast path but a :class:`SignedBasis` on the generic
    one, and the schoolbook product unpacks 256 cells per call.

    ``gathers`` holds, once per table, where each cell of the product
    matrix comes from: row k of M_b is ``gathers[k](values)`` with
    ``values = b.coeffs + [-b_m for each m]`` (see :func:`gather_rows`).
    A table whose row n sends two columns to one output has no such matrix;
    it still constructs, so that a faulty transcription can be reported,
    and ``repeated_row`` is the first such n (None for a sound table).
    """

    entries: tuple
    gathers: tuple = field(init=False, repr=False, compare=False)
    repeated_row: int | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        entries = tuple(tuple(map(_cell, row)) for row in self.entries)
        if len(entries) != DIM or any(len(r) != DIM for r in entries):
            raise ValueError("table must be 16x16")
        # i_n * i_m = sign * i_k puts b_m (index m) or -b_m (index m + DIM) at row k, column n
        source = [[None] * DIM for _ in range(DIM)]
        for n, row in enumerate(entries):
            for m, (sign, k) in enumerate(row):
                source[k][n] = m if sign > 0 else m + DIM
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "gathers", tuple(itemgetter(*cols) for cols in source))
        object.__setattr__(self, "repeated_row",
                           next((n for n, row in enumerate(entries) if len({k for _, k in row}) < DIM), None))

    def __getitem__(self, p: int):
        return self.entries[p]

    @cached_property
    def schoolbook(self):
        """``schoolbook(a, b)``, the sixteen sums of :func:`mul_schoolbook`
        for coefficient lists ``a`` and ``b``: :func:`record_schoolbook`
        rendered by the generator of the fast product's code, with Python's
        operators and no call, and loaded as ``<diracmul schoolbook
        product>``.  Built on the first product and kept with the table;
        None for a table none of whose cells writes some output, which
        runs the loop on the ring's own operations instead."""
        tape, outputs = record_schoolbook(self)
        if None in outputs:
            return None
        source = function_source("schoolbook(a, b)", tape, outputs, "[]")
        return load_source(source, "schoolbook product")[1]["schoolbook"]

    @cached_property
    def schoolbook_ints(self):
        """:attr:`schoolbook`'s twin for plain integers, ``DYADIC``'s
        lowering and ``INTS``: the same generated code, compiled once, in a
        code object of its own (see :func:`~diracmul.program.copy_function`),
        so that integer products between float ones leave the float
        specializations of CPython's interpreter in place.  None when
        :attr:`schoolbook` is."""
        return None if self.schoolbook is None else copy_function(self.schoolbook)

    def associativity_failures(self) -> list[tuple[int, int, int]]:
        """All basis triples (p, q, r) with (i_p i_q) i_r != i_p (i_q i_r)."""
        bad = []
        t = self.entries
        for p in range(DIM):
            for q in range(DIM):
                s1, k1 = t[p][q]
                for r in range(DIM):
                    sl, kl = t[k1][r]
                    s2, k2 = t[q][r]
                    sr, kr = t[p][k2]
                    if kl != kr or s1 * sl != s2 * sr:
                        bad.append((p, q, r))
        return bad


def _cell(entry) -> tuple:
    """``entry``, unpacked, as a plain ``(sign, index)`` tuple;
    ``ValueError`` unless the sign is the ``int`` +-1 and the index an
    ``int`` in [0, 16) (a ``bool`` or a ``float`` is neither)."""
    sign, index = entry
    if type(sign) is not int or type(index) is not int or sign not in (-1, 1) or not 0 <= index < DIM:
        raise ValueError(f"bad table entry {SignedBasis(sign, index)}")
    return (sign, index)


def _blade_mul(mask1: int, mask2: int) -> SignedBasis:
    # reorder the concatenated generator strings into ascending order,
    # one sign flip per transposition, then cancel squared generators
    sign = 1
    for g in range(1, 5):
        if mask2 & (1 << (g - 1)):
            higher = mask1 >> g  # generators in mask1 strictly greater than g
            if bin(higher).count("1") % 2 == 1:
                sign = -sign
    common = mask1 & mask2
    for g in range(1, 5):
        if common & (1 << (g - 1)):
            sign *= _GEN_SQUARE[g]
    return SignedBasis(sign, _MASK_TO_INDEX[mask1 ^ mask2])


def build_table_from_generators() -> MultTable:
    """Ground-truth table: associative by construction."""
    entries = [
        [_blade_mul(_INDEX_TO_MASK[p], _INDEX_TO_MASK[q]) for q in range(DIM)]
        for p in range(DIM)
    ]
    return MultTable(entries)


_SHIPPED_ASSET_DIR = os.path.join(os.path.dirname(__file__), "assets")


_ASSET_DIR_VARIABLE = "DIRAC_ASSET_DIR"
_ASSET_DIR_KEY = os.environ.encodekey(_ASSET_DIR_VARIABLE)  # as os.environ stores it


def default_asset_dir() -> str:
    """The directory every asset reader uses (``mul_fast`` alone also takes
    one as an argument): ``DIRAC_ASSET_DIR``, read on every call so that a
    change takes effect at once, or the shipped one if it is unset or empty."""
    # Every public read of an unset variable (os.environ.get, `in`,
    # os.getenv) raises and catches a KeyError inside os.environ: about
    # 0.8 us on CPython 3.11, a tenth of a float product.  os.environ keeps
    # its values in a dict that every set and delete through it updates;
    # testing the encoded key there takes about 40 ns.  That dict is a
    # CPython detail, so a mapping without it is read the public way.
    data = getattr(os.environ, "_data", None)
    if data is not None and _ASSET_DIR_KEY not in data:
        return _SHIPPED_ASSET_DIR
    return os.environ.get(_ASSET_DIR_VARIABLE) or _SHIPPED_ASSET_DIR


def read_asset_lines(path: str) -> list:
    """The lines of an asset file, stripped, without blank lines and ``#``
    comment lines.  The file must be ASCII text: ``ValueError`` naming the
    file and line for any other byte, ``OSError`` if it cannot be read."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}: line {line}: byte 0x{data[exc.start]:02x} is not ASCII") from exc
    return [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]


def parse_printed_table() -> MultTable:
    """The reference table shipped as a static asset, no corrections applied:
    16 lines of 16 tokens, each an optional sign followed by an index 0..15
    ('-5' means -i5)."""
    grid = parse_signed_index_matrix(read_asset_lines(os.path.join(default_asset_dir(), "table_printed.txt")))
    return MultTable([[SignedBasis(*cell) for cell in row] for row in grid])


def cell_diffs(got, want) -> list:
    """Cells where two grids of one shape disagree, sorted by (row, col), as
    ``(row, col, got cell, want cell)``; each grid is anything whose
    ``entries`` are its rows (a :class:`MultTable`, a ``Mat``)."""
    return [(r, c, x, y)
            for r, (got_row, want_row) in enumerate(zip(got.entries, want.entries, strict=True))
            for c, (x, y) in enumerate(zip(got_row, want_row, strict=True)) if x != y]


def table_errata(printed: MultTable, derived: MultTable):
    """:func:`cell_diffs` of two tables, each cell a :class:`SignedBasis`."""
    return [(p, q, SignedBasis(*x), SignedBasis(*y)) for p, q, x, y in cell_diffs(printed, derived)]


class RingMismatchError(ValueError):
    """The two operands of a product are over different scalar rings."""

    def __init__(self, left, right):
        super().__init__(f"operands are over different rings: left {_ring_name(left)}, "
                         f"right {_ring_name(right)}")


def _ring_name(ring) -> str:
    return getattr(ring, "name", type(ring).__name__)


def runs_natively(ring) -> bool:
    """Whether ``ring``'s ``add``/``sub``/``neg``/``mul`` are the
    ``operator`` builtins, so that generated code written with ``+``,
    ``-``, unary ``-`` and ``*`` runs on the ring's values: the compiled
    schoolbook product here and the compiled fast product (``fastmult``)."""
    return (ring.add is operator.add and ring.sub is operator.sub
            and ring.neg is operator.neg and ring.mul is operator.mul)


class DiracNumber:
    """16 coefficients over a scalar ring; coeffs[0] is the real part."""

    __slots__ = ("coeffs", "ring")

    def __init__(self, coeffs, ring):
        coeffs = list(coeffs)
        if len(coeffs) != DIM:
            raise ValueError("a Dirac number has exactly 16 coefficients")
        self.coeffs = coeffs
        self.ring = ring

    @classmethod
    def from_ints(cls, values, ring) -> "DiracNumber":
        return cls(map(ring.wrap, values), ring)

    @classmethod
    def basis(cls, index: int, ring) -> "DiracNumber":
        coeffs = [ring.zero()] * DIM
        coeffs[index] = ring.one()
        return cls(coeffs, ring)

    @classmethod
    def zero(cls, ring) -> "DiracNumber":
        return cls([ring.zero()] * DIM, ring)

    def add(self, other: "DiracNumber") -> "DiracNumber":
        r = self.ring
        return DiracNumber([r.add(a, b) for a, b in zip(self.coeffs, other.coeffs)], r)

    def neg(self) -> "DiracNumber":
        r = self.ring
        return DiracNumber([r.neg(a) for a in self.coeffs], r)

    def scale(self, k) -> "DiracNumber":
        r = self.ring
        return DiracNumber([r.mul(k, a) for a in self.coeffs], r)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiracNumber):
            return NotImplemented
        return all(self.ring.eq(a, b) for a, b in zip(self.coeffs, other.coeffs))

    def __repr__(self) -> str:
        return f"DiracNumber({self.coeffs!r})"


def mul_schoolbook(a: DiracNumber, b: DiracNumber, table: MultTable) -> DiracNumber:
    """Direct product: one 16-term accumulation chain per output.

    Issues exactly 256 scalar multiplications and 240 additions; sign
    flips are negations, never multiplications.  Accumulation order is
    fixed (ascending left index) so exact results and operation counts
    are deterministic.

    The loop (:func:`_schoolbook_loop`) defines the product.  A ring whose
    ``add``/``sub``/``neg``/``mul`` are Python's operators (``FLOAT``,
    ``FORMS``, ``CountingRing``; see :func:`runs_natively`) runs
    ``table.schoolbook``, that loop recorded once per table and generated
    as straight-line code, on its own values: the same operations on the
    same operands, so the counts and every non-NaN float bit are the
    loop's.  ``DYADIC`` and ``INTS`` run ``table.schoolbook_ints``, the
    same code in a code object of its own, on plain integers: each operand
    is lowered to its largest exponent by
    :func:`~diracmul.exactnum.exact_ints` (an ``INTS`` one is at exponent
    0), as the fast product lowers them, and the sums are the exact
    product times ``2**(ea + eb)``.  CPython 3.11 and later specialize each
    operator per code object for the values it runs on, so with one code
    object the first few dozen float products after integer ones would run
    on the generic path.  Any other ring, such as a :class:`Recorder
    <diracmul.program.Recorder>` or a timing wrapper, and a table none of
    whose cells writes some output run the loop with the ring's own
    operations.  On the benchmark's ``float-stream`` workload this makes
    about 172k products/s against 37.6k for the loop (126k while one code
    object ran both kinds of value), and on ``prove``'s small dyadics
    about 51k against 25k.
    """
    ring = a.ring
    if b.ring is not ring:
        raise RingMismatchError(ring, b.ring)
    if ring is DYADIC or ring is INTS:
        school = table.schoolbook_ints
        if school is not None:
            (ac, ea), (bc, eb) = exact_ints(a.coeffs, ring), exact_ints(b.coeffs, ring)
            return DiracNumber(exact_values(school(ac, bc), ea + eb, ring), ring)
    elif runs_natively(ring):
        school = table.schoolbook
        if school is not None:
            return DiracNumber(school(a.coeffs, b.coeffs), ring)
    return DiracNumber(_schoolbook_loop(a.coeffs, b.coeffs, table.entries, ring), ring)


def _schoolbook_loop(ac, bc, entries, ops) -> list:
    """The schoolbook sums of coefficients ``ac`` and ``bc`` over the cells
    ``entries``, with ``ops``' ``mul``/``add``/``sub``/``neg``: output k
    starts at the first term that lands on it and adds (or subtracts) each
    later one, left index ascending, then right.  An output no cell writes
    stays None."""
    mul, add, sub, neg = ops.mul, ops.add, ops.sub, ops.neg
    out = [None] * DIM
    for an, row in zip(ac, entries):
        for (sign, k), bm in zip(row, bc):
            p = mul(an, bm)
            acc = out[k]
            if acc is None:
                out[k] = neg(p) if sign < 0 else p
            elif sign < 0:
                out[k] = sub(acc, p)
            else:
                out[k] = add(acc, p)
    return out


def record_schoolbook(table: MultTable) -> tuple:
    """``(tape, outputs)``: :func:`_schoolbook_loop` over ``table`` run once
    on a :class:`~diracmul.program.Recorder` with inputs ``a<k>`` and then
    ``b<k>``, and the tape positions of its sixteen outputs (None for an
    output no cell writes).  ``MultTable.schoolbook`` and
    ``slpgen.schoolbook_program`` are both made from it."""
    rec = Recorder()
    a, b = rec.inputs("a", DIM), rec.inputs("b", DIM)
    return rec.tape, _schoolbook_loop(a, b, table.entries, rec)


def gather_rows(table: MultTable, values) -> list:
    """The 16 rows of the product matrix M_b, each a tuple, gathered by
    ``table.gathers`` from ``values = b.coeffs + [-b_m for each m]``.

    Row k, column n holds sign * b_m where i_n * i_m = sign * i_k.
    ``ValueError`` names the table row if some (k, n) has no such m.
    """
    if table.repeated_row is not None:
        raise ValueError(f"table row {table.repeated_row} maps two columns to one output: "
                         "the product matrix has a hole")
    return [row(values) for row in table.gathers]


def derive_b_matrix(b: DiracNumber, table: MultTable) -> Mat:
    """The 16x16 matrix M with M . a = a * b for every a, from
    :func:`gather_rows` with each b_m negated once."""
    neg = b.ring.neg
    return Mat(DIM, DIM, gather_rows(table, b.coeffs + [neg(v) for v in b.coeffs]))


def symbolic_b() -> DiracNumber:
    """The fully symbolic right-hand operand over linear forms."""
    return DiracNumber([lf_from_b(m) for m in range(DIM)], FORMS)


def symbolic_b_matrix() -> Mat:
    return derive_b_matrix(symbolic_b(), build_table_from_generators())


_SIGNS = {"+": 1, "-": -1}


def parse_term(tok: str):
    """``(sign, index)`` of a term such as ``-3``: at most one sign, then an
    index as :func:`~diracmul.exactnum.parse_int` reads it."""
    sign, digits = (tok[0], tok[1:]) if tok[:1] in _SIGNS else ("+", tok)
    if digits[:1] not in _SIGNS:
        try:
            return (_SIGNS[sign], parse_int(digits))
        except ValueError:
            pass
    raise ValueError(f"bad term {tok!r}")


def format_term(sign: int, index: int) -> str:
    """A term as the assets write it and :func:`parse_term` reads it: ``-3``, ``+0``."""
    return f"{'+' if sign > 0 else '-'}{index}"


def parse_signed_index_matrix(lines: list):
    """Parse a 16x16 grid of signed indices ('-5' = -1 at index 5), one row
    per line of :func:`read_asset_lines`; ``ValueError`` names a token that
    is not a term (see :func:`parse_term`)."""
    if len(lines) != DIM:
        raise ValueError(f"expected {DIM} rows, got {len(lines)}")
    out = []
    for ln in lines:
        tokens = ln.split()
        if len(tokens) != DIM:
            raise ValueError(f"expected {DIM} tokens per row: {ln!r}")
        out.append([parse_term(tok) for tok in tokens])
    return out


def parse_printed_b_matrix() -> Mat:
    """The reference product matrix transcription, as linear forms."""
    grid = parse_signed_index_matrix(read_asset_lines(os.path.join(default_asset_dir(), "b16_printed.txt")))
    entries = []
    for row in grid:
        entries.append([
            -lf_from_b(m) if sign < 0 else lf_from_b(m) for sign, m in row
        ])
    return Mat(DIM, DIM, entries)

