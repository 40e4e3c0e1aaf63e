"""The proof that a compiled program computes the algebra's product.

:func:`prove` takes any :class:`~diracmul.program.CompiledProgram` -- a
pipeline's, the schoolbook's, one recorded by hand -- and checks it against
the generator-built multiplication table: one run of the program's own
``bind`` and ``apply``, on integers that pack every pair of basis vectors
into lanes.  Compilation has already checked that the program is bilinear
and that bind halves exactly, so that one run settles the identity for
every operand.  This module is the trusted base: what it does not check,
nothing checks.  ``fastmult.verify_pipeline`` reports its result for a
pipeline, and ``slpgen.flatten`` refuses a pipeline it fails.
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import DIM, build_table_from_generators
from .exactnum import DyadicRational, LinearForm
from .linalg import Mat
from .program import CompiledProgram, bind_ints


def _packed_products(prog: CompiledProgram, w: int) -> list:
    """The program's sixteen outputs from one run of :func:`~diracmul.program.bind_ints`
    on ``b_m = 2**(16*w*m)`` and of ``apply`` on ``a_n = 2**(w*n)``.

    The program is bilinear, so output ``k`` is the sum, over every basis
    pair ``(e_n, e_m)``, of ``2**(w*(n + 16*m))`` times output ``k`` of
    ``apply(e_n, bind_ints(prog, e_m))`` (``2**halvings`` times the
    product's): that output is lane ``n + 16*m``, read back by :func:`_lanes`.
    """
    a = [1 << (w * n) for n in range(DIM)]
    b = [1 << (DIM * w * m) for m in range(DIM)]
    return prog.apply(a, bind_ints(prog, b))


def _lanes(x: int, w: int) -> list:
    """The 256 signed ``w``-bit lanes of ``x``, lane ``L`` the coefficient of
    ``2**(w*L)``, for each lane strictly between ``-2**(w-1)`` and
    ``2**(w-1)``: biased by ``2**(w-1)``, every lane is a plain ``w``-bit
    digit."""
    half = 1 << (w - 1)
    x += half * (((1 << (DIM * DIM * w)) - 1) // ((1 << w) - 1))  # half in every lane
    mask = (1 << w) - 1
    return [((x >> (w * lane)) & mask) - half for lane in range(DIM * DIM)]


def _form(lanes: list, halvings: int, col: int) -> LinearForm:
    """Column ``col`` of one output's :func:`_lanes` as a linear form in b:
    the coefficient of ``b_m`` is lane ``col + 16*m`` over ``2**halvings``."""
    return LinearForm((DyadicRational(0),) + tuple(DyadicRational(c, halvings) for c in lanes[col::DIM]))


def pipeline_matrix(pipeline) -> Mat:
    """The 16x16 matrix the compiled ``pipeline.program`` computes, symbolic
    in b, decoded from the one evaluation :func:`prove` runs.

    No caller in the package: acceptance criterion 1 (``tests/test_acceptance.py``)
    reads every cell of it as one signed coefficient."""
    prog = pipeline.program
    w = prog.lane_width
    rows = [_lanes(y, w) for y in _packed_products(prog, w)]
    return Mat(DIM, DIM, [[_form(rows[k], prog.halvings, n) for n in range(DIM)] for k in range(DIM)])


@lru_cache(maxsize=None)
def _generator_table():
    """The ground-truth table :func:`prove` checks against, built once per
    process and passed to no caller, so none can change it."""
    return build_table_from_generators()


@lru_cache(maxsize=None)
def _packed_table(w: int, halvings: int) -> tuple:
    """The table's products packed as :func:`_packed_products` packs a
    program's: where ``table[n][m] == (sign, k)``, lane ``n + 16*m`` of
    output ``k`` is ``sign * 2**halvings``.  Built once per process for each
    width and depth, all from the one :func:`_generator_table`."""
    table = _generator_table()
    want = [0] * DIM
    for n in range(DIM):
        for m in range(DIM):
            sign, k = table[n][m]
            want[k] += sign << (halvings + w * (n + DIM * m))
    return tuple(want)


def prove(program: CompiledProgram) -> list:
    """Prove ``program`` computes the product of the generator table.

    The proof runs the compiled ``bind`` and ``apply`` once, on integers
    that pack every pair of basis vectors into lanes (:func:`_packed_products`),
    and compares the sixteen outputs with the table packed the same way:
    where ``table[n][m] == (sign, k)``, ``apply(e_n, bind(2**h e_m))`` must
    be ``2**h * sign * e_k``, ``h`` the program's ``halvings``.  Sixteen
    integer comparisons check all 16 x 16 x 16 values, because every lane
    of either side lies strictly between ``-2**(w-1)`` and ``2**(w-1)``,
    ``w`` the program's ``lane_width``, so equal packed integers have equal
    lanes.  The width is found from the program's own tapes, a bound that
    holds for a wrong program too.  That settles the identity for every
    ``a`` and ``b`` because:

    * compilation gives every value its degree in ``a`` and in ``b``, and
      checks that bind is linear in ``b`` and every output bilinear;
    * every sum in bind combines values of one halving depth (compilation
      checks it), so run with ``half = 1`` bind gives each value times
      ``2**depth``, with no rounding, and
      :func:`~diracmul.program.bind_ints` gives the entries exactly
      ``2**halvings`` times the dyadic values.

    So the program computes a bilinear map, and a bilinear map is fixed by
    its values on basis pairs.  Returns the mismatching cells of the
    product matrix, sorted, as ``(row, col, got, want)`` with ``got`` and
    ``want`` linear forms in b, decoded lane by lane from a mismatching
    output only.  Runs the whole proof on every call; the width is found
    once per program and the packed table built once per width and depth.
    """
    w, halvings = program.lane_width, program.halvings
    mismatches = []
    for k, (x, y) in enumerate(zip(_packed_products(program, w), _packed_table(w, halvings))):
        if x != y:
            got, want = _lanes(x, w), _lanes(y, w)
            cols = sorted({lane % DIM for lane, (g, t) in enumerate(zip(got, want)) if g != t})
            mismatches += [(k, n, _form(got, halvings, n), _form(want, halvings, n)) for n in cols]
    return mismatches
