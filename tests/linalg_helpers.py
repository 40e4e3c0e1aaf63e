"""Ring-valued matrix arithmetic the tests check the factorizations with."""

from diracmul.linalg import H2, T2X3, T3X2, Mat, eye, kron


def mat_mul(ring, a: Mat, b: Mat) -> Mat:
    if a.cols != b.rows:
        raise ValueError("size mismatch")
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = ring.zero()
            for k in range(a.cols):
                acc = ring.add(acc, ring.mul(a.entries[i][k], b.entries[k][j]))
            row.append(acc)
        out.append(row)
    return Mat(a.rows, b.cols, out)


def lift(ring, a: Mat) -> Mat:
    """Turn an integer matrix into a ring-valued one."""
    return a.map(ring.wrap)


def dirsum_ring(blocks, ring) -> Mat:
    blocks = list(blocks)
    cols = sum(b.cols for b in blocks)
    rows, c0 = [], 0
    for b in blocks:
        rows += [[ring.zero()] * c0 + list(row) + [ring.zero()] * (cols - c0 - b.cols) for row in b.entries]
        c0 += b.cols
    return Mat(len(rows), cols, rows)


def template_AB_factored(ring, a: Mat, b: Mat) -> Mat:
    """(H2 (x) I_n) . 1/2 (A+B (+) A-B) . (H2 (x) I_n), evaluated entrywise."""
    n = a.rows
    h = lift(ring, kron(H2, eye(n)))
    mid = dirsum_ring([(a + b).map(ring.halve), (a - b).map(ring.halve)], ring)
    return mat_mul(ring, mat_mul(ring, h, mid), h)


def template_EF_factored(ring, e: Mat, f: Mat) -> Mat:
    """(T2x3 (x) I_n) . (E-F (+) -(E+F) (+) F) . (T3x2 (x) I_n)."""
    n = e.rows
    left = lift(ring, kron(T2X3, eye(n)))
    right = lift(ring, kron(T3X2, eye(n)))
    mid = dirsum_ring([e - f, -(e + f), f], ring)
    return mat_mul(ring, mat_mul(ring, left, mid), right)
