"""Queries on the package's values that only the tests make."""

import dataclasses
from fractions import Fraction

from diracmul.algebra import DIM, MultTable, SignedBasis, build_table_from_generators, derive_b_matrix, symbolic_b
from diracmul.exactnum import FORMS, DyadicRational, LinearForm, dyadic_add, dyadic_mul
from diracmul.linalg import Mat, SignedPermutation


def compose(p: SignedPermutation, q: SignedPermutation) -> SignedPermutation:
    """p after q: its matrix is matrix(p) . matrix(q)."""
    if p.size != q.size:
        raise ValueError("size mismatch")
    src = [q.src[p.src[i]] for i in range(p.size)]
    signs = [p.signs[i] * q.signs[p.src[i]] for i in range(p.size)]
    return SignedPermutation(src, signs)


def is_identity(p: SignedPermutation) -> bool:
    return p.src == tuple(range(p.size)) and all(s == 1 for s in p.signs)


def transpose(m: Mat) -> Mat:
    return Mat(m.cols, m.rows, [[m.entries[r][c] for r in range(m.rows)] for c in range(m.cols)])


def flipped_table(table):
    """``table`` with the sign of cell (3, 3) flipped: still a product matrix, a wrong one."""
    entries = [list(row) for row in table.entries]
    s, k = entries[3][3]
    entries[3][3] = SignedBasis(-s, k)
    return MultTable(entries)


def holed_table(table):
    """``table`` with cell (3, 5) a copy of cell (3, 6): row 3 sends two columns
    to one output, so the table has no product matrix."""
    entries = [list(row) for row in table.entries]
    entries[3][5] = entries[3][6]
    return MultTable(entries)


class LoopingRing:
    """``ring``'s values and operations, with ``add``/``sub``/``neg``/``mul``
    methods of its own that call the ring's: no ``operator`` builtin, so
    ``mul_schoolbook`` runs its loop on it, over the same values with the
    same operations as on ``ring``."""

    def __init__(self, ring):
        self.ring = ring
        self.name = f"{ring.name} (looping)"

    def add(self, x, y):
        return self.ring.add(x, y)

    def sub(self, x, y):
        return self.ring.sub(x, y)

    def neg(self, x):
        return self.ring.neg(x)

    def mul(self, x, y):
        return self.ring.mul(x, y)


def brute_force_product(a_vals, b_vals, table):
    """Independent oracle: plain dict accumulation over all 256 pairs, read
    straight from the table's cells, each value converted by ``Fraction``."""
    out = {k: Fraction(0) for k in range(DIM)}
    for n in range(DIM):
        for m in range(DIM):
            sign, k = table[n][m]
            out[k] += sign * Fraction(a_vals[n]) * Fraction(b_vals[m])
    return [out[k] for k in range(DIM)]


def is_integer(x: DyadicRational) -> bool:
    return x.normalized().exp == 0


def as_int(x: DyadicRational) -> int:
    n = x.normalized()
    if n.exp != 0:
        raise ValueError(f"{x} is not an integer")
    return n.num


def evaluate(form: LinearForm, values) -> DyadicRational:
    """The form at b_m = values[m] (dyadic)."""
    acc = form.coeffs[0]
    for coeff, val in zip(form.coeffs[1:], values):
        if not coeff.is_zero():
            acc = dyadic_add(acc, dyadic_mul(coeff, val))
    return acc


def is_unital(table: MultTable) -> bool:
    return all(
        table.entries[0][q] == SignedBasis(1, q) and table.entries[p][0] == SignedBasis(1, p)
        for p in range(DIM)
        for q in range(DIM)
    )


def rows_are_permutations(table: MultTable) -> bool:
    for p in range(DIM):
        if sorted(k for _, k in table.entries[p]) != list(range(DIM)):
            return False
    for q in range(DIM):
        if sorted(k for _, k in (row[q] for row in table.entries)) != list(range(DIM)):
            return False
    return True


def diagonal_signs(table: MultTable) -> list:
    """Signs of the unit squares i_p^2 (+-1)."""
    return [s for s, _ in (table.entries[p][p] for p in range(DIM))]


def formula_forms(block) -> list:
    """A core block's cells as linear forms in b, row-major."""
    out = []
    for terms in block.formulas:
        acc = FORMS.zero()
        for s, m in terms:
            v = LinearForm.variable(m)
            acc = acc + (-v if s < 0 else v)
        out.append(acc)
    return out


def replace_stage(pipeline, index: int, stage):
    """``pipeline`` with stage ``index`` replaced by ``stage``, compiled anew."""
    return dataclasses.replace(pipeline, stages=pipeline.stages[:index] + (stage,) + pipeline.stages[index + 1:])


def dims(pipeline) -> list:
    """The widths along the stage chain: its input, then each stage's output."""
    return [pipeline.stages[0].in_dim] + [s.out_dim for s in pipeline.stages]


def linear_form_matrix(pipeline) -> Mat:
    """The pipeline's compiled program run over linear forms: bind on the
    fully symbolic b, then apply on each unit a (the proof's former path)."""
    prog = pipeline.program
    entries = prog.bind(FORMS.half, symbolic_b().coeffs)
    cols = []
    for n in range(DIM):
        a = [FORMS.one() if k == n else FORMS.zero() for k in range(DIM)]
        cols.append(prog.apply(a, entries))
    return Mat(DIM, DIM, [[cols[n][k] for n in range(DIM)] for k in range(DIM)])


def linear_form_mismatches(pipeline) -> list:
    """``(row, col, got, want)`` for every cell where :func:`linear_form_matrix`
    differs from the table-derived product matrix, row by row."""
    got = linear_form_matrix(pipeline)
    want = derive_b_matrix(symbolic_b(), build_table_from_generators())
    return [(r, c, got.entries[r][c], want.entries[r][c])
            for r in range(DIM) for c in range(DIM) if got.entries[r][c] != want.entries[r][c]]
