"""Small dense matrix toolkit over any entries with ``+``, ``-`` and unary
``-``: a matrix's own ``+``, ``-`` and unary ``-`` apply them elementwise.

Covers exactly what the factorized pipeline needs: Kronecker products,
direct sums, signed permutations, the 2x2 Hadamard matrix, the 2x3/3x2
combiners, and the two block-decomposition templates.  Structural
matrices (entries in {-1, 0, +1}) are applied to vectors by skipping
zero entries and folding +-1 into copy/negate/add/subtract, which is
what makes operation counting faithful.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce


@dataclass(frozen=True)
class Mat:
    """Row-major rows x cols grid; entries belong to whatever ring the
    caller is working over (plain ints for structural matrices).

    A frozen value: ``entries`` is a tuple of row tuples, copied from the
    rows given, and no attribute can be assigned, so no holder of a matrix
    can change it.  Every builder here makes its rows first and constructs
    the matrix once."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        entries = tuple(map(tuple, self.entries))
        if len(entries) != self.rows or any(len(r) != self.cols for r in entries):
            raise ValueError(f"shape mismatch: want {self.rows}x{self.cols}")
        object.__setattr__(self, "entries", entries)

    def block(self, r0: int, c0: int, rows: int, cols: int) -> "Mat":
        return Mat(rows, cols, [row[c0 : c0 + cols] for row in self.entries[r0 : r0 + rows]])

    def map(self, fn) -> "Mat":
        return Mat(self.rows, self.cols, [[fn(e) for e in row] for row in self.entries])

    def _zip(self, other: "Mat", fn) -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("size mismatch")
        return Mat(self.rows, self.cols, [list(map(fn, ra, rb)) for ra, rb in zip(self.entries, other.entries)])

    def __add__(self, other: "Mat") -> "Mat":
        return self._zip(other, operator.add)

    def __sub__(self, other: "Mat") -> "Mat":
        return self._zip(other, operator.sub)

    def __neg__(self) -> "Mat":
        return self.map(operator.neg)

    def serialize(self) -> str:
        """Plain text grid: header 'rows cols', then row-major entries."""
        lines = [f"{self.rows} {self.cols}"]
        for row in self.entries:
            lines.append(" ".join(str(e) for e in row))
        return "\n".join(lines) + "\n"


def eye(n: int) -> Mat:
    return Mat(n, n, [[1 if r == c else 0 for c in range(n)] for r in range(n)])


H2 = Mat(2, 2, [[1, 1], [1, -1]])
T2X3 = Mat(2, 3, [[1, 0, 1], [0, 1, 1]])
T3X2 = Mat(3, 2, [[1, 0], [0, 1], [1, 1]])


def kron(a: Mat, b: Mat) -> Mat:
    return Mat(a.rows * b.rows, a.cols * b.cols,
               [[x * y for x in ra for y in rb] for ra in a.entries for rb in b.entries])


def dirsum(blocks) -> Mat:
    blocks = list(blocks)
    if not blocks:
        raise ValueError("direct sum of no blocks")
    cols = sum(b.cols for b in blocks)
    rows, c0 = [], 0
    for b in blocks:
        rows += [(0,) * c0 + row + (0,) * (cols - c0 - b.cols) for row in b.entries]
        c0 += b.cols
    return Mat(len(rows), cols, rows)


def int_mat_mul(a: Mat, b: Mat) -> Mat:
    if a.cols != b.rows:
        raise ValueError("size mismatch")
    cols = list(zip(*b.entries))
    return Mat(a.rows, b.cols, [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a.entries])


def structural_apply(ring, m: Mat, vec):
    """Matrix-vector product for a {-1,0,+1} matrix over ring scalars.

    Zero entries are skipped (structurally free), +-1 entries fold into
    copy/negate for the first term and add/subtract afterwards, so the
    ring only ever sees genuine two-operand additions.
    """
    if len(vec) != m.cols:
        raise ValueError("vector length mismatch")
    out = []
    for row in m.entries:
        acc = None
        for c, e in enumerate(row):
            if e == 0:
                continue
            if acc is None:
                acc = ring.neg(vec[c]) if e < 0 else vec[c]
            elif e < 0:
                acc = ring.sub(acc, vec[c])
            else:
                acc = ring.add(acc, vec[c])
        out.append(ring.zero() if acc is None else acc)
    return out


@dataclass(frozen=True)
class SignedPermutation:
    """output[i] = signs[i] * input[src[i]]; zero-based internally.  A
    frozen value of two tuples; ``signs`` defaults to all +1."""

    src: tuple
    signs: tuple | None = None

    def __post_init__(self):
        src = tuple(self.src)
        n = len(src)
        if sorted(src) != list(range(n)):
            raise ValueError("src is not a permutation of 0..n-1")
        signs = (1,) * n if self.signs is None else tuple(self.signs)
        if len(signs) != n or any(s not in (-1, 1) for s in signs):
            raise ValueError("signs must be +-1, one per coordinate")
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "signs", signs)

    @property
    def size(self) -> int:
        return len(self.src)

    @classmethod
    def identity(cls, n: int) -> "SignedPermutation":
        return cls(list(range(n)))

    @classmethod
    def from_one_based(cls, order, neg_positions=()) -> "SignedPermutation":
        """Reference index lists are one-based; negations name output slots."""
        src = [o - 1 for o in order]
        signs = [1] * len(src)
        for pos in neg_positions:
            signs[pos - 1] = -1
        return cls(src, signs)

    def inverse(self) -> "SignedPermutation":
        src = [self.src.index(j) for j in range(self.size)]
        return SignedPermutation(src, [self.signs[i] for i in src])

    def concat(self, other: "SignedPermutation") -> "SignedPermutation":
        """Direct sum: this permutation on the first block, other on the rest."""
        return SignedPermutation(self.src + tuple(s + self.size for s in other.src), self.signs + other.signs)


def signed_perm_matrix(p: SignedPermutation) -> Mat:
    """Matrix form: exactly one +-1 per row and column."""
    return Mat(p.size, p.size, [[sign if c == src else 0 for c in range(p.size)]
                                for src, sign in zip(p.src, p.signs)])


def perm_concat(perms) -> SignedPermutation:
    return reduce(SignedPermutation.concat, perms)


def _check_blocks(a: Mat, b: Mat) -> int:
    if a.rows != a.cols or b.rows != b.cols or a.rows != b.rows:
        raise ValueError("blocks must be square and equally sized")
    return a.rows


def template_AB(a: Mat, b: Mat) -> Mat:
    """[[A, B], [B, A]]: one halved butterfly sandwich multiplies it."""
    n = _check_blocks(a, b)
    return Mat(2 * n, 2 * n, [x + y for x, y in zip(a.entries, b.entries)]
               + [y + x for x, y in zip(a.entries, b.entries)])


def template_EF(e: Mat, f: Mat) -> Mat:
    """[[E, F], [F, -E]]: one 2x3/3x2 combiner sandwich multiplies it."""
    n = _check_blocks(e, f)
    return Mat(2 * n, 2 * n, [x + y for x, y in zip(e.entries, f.entries)]
               + [y + x for x, y in zip((-e).entries, f.entries)])
