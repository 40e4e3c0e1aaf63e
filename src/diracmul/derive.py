"""Reconstruction of the factorized pipeline from its seed data.

The constant stages of the fast product are only partially pinned down by
the reference material: the combiner matrices are given explicitly, but
the outer signed permutations and some block reorderings have to be
recovered.  This module rebuilds everything from first principles:

* the ground-truth product matrix (from the generator-built table);
* the two transcribed 8x8 seed matrices (``m8_diff``/``m8_negsum``);
* the stated row/column shuffles for each recursion branch.

The recursion applies two block templates.  A shuffled matrix of the form
[[A,B],[B,A]] splits into the half-size blocks A+B and A-B; one of the
form [[E,F],[F,-E]] splits into E-F, -(E+F) and F.  Eight such steps take
the two seed matrices down to the diagonal blocks of all three refinement
levels.  The module solves for the outer signed permutations, checks
every intermediate block structure, rebuilds the final level's input side
with fewer additions than the displayed chain, and regenerates the
plain-text stage assets shipped with the package.  The symbolic pipeline
identity (see ``fastmult.verify_pipeline``) is the final arbiter for all
of it.

The combiner stages, the stage chains and the pool pairs are design, not
derivation: they are defined once, in ``fastmult`` (``COMBINERS``,
``CHAINS``, ``POOLS``), and this module reads them from there.

Run ``python -m diracmul.derive --out DIR`` to regenerate the derived
assets into ``DIR``; the test suite re-derives them into a scratch
directory and asserts they match what is shipped.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .algebra import DIM, default_asset_dir, parse_term, read_asset_lines, symbolic_b_matrix
from .exactnum import FORMS, LinearForm, lf_from_b, parse_int
from .fastmult import CHAINS, COMBINERS, CoreBlock, decompose_terms, format_blocks, format_stage
from .linalg import Mat, SignedPermutation, int_mat_mul, perm_concat, signed_perm_matrix, template_EF


# Row/column shuffles of the recursion branches, exactly as stated for the
# reference decomposition: (order, negated positions), both one-based; the
# negations apply to positions of the shuffled matrix.
BRANCH_A = {  # first 8x8 block-pair target [[A,B],[B,A]]
    "cols": ([1, 2, 4, 7, 5, 3, 8, 6], [6, 8]),
    "rows": ([1, 7, 3, 4, 5, 6, 2, 8], [6, 7]),
}
BRANCH_B = {  # second 8x8 block-pair target [[A,B],[B,A]]
    # The stated row order {1,7,3,4,5,6,2,8} does not produce the displayed
    # matrix (or any [[A,B],[B,A]] shape); the displayed result pins the row
    # order to the same list as the columns.  Recorded in the errata notes.
    "cols": ([1, 2, 4, 7, 5, 3, 8, 6], [6, 8]),
    "rows": ([1, 2, 4, 7, 5, 3, 8, 6], [6, 8]),
}
BRANCH_C = {  # third 8x8 target [[E,F],[F,-E]]
    "cols": ([4, 2, 3, 8, 1, 6, 7, 5], []),
    "rows": ([1, 6, 7, 5, 4, 2, 3, 8], [5, 6, 7, 8]),
}
BRANCH_D = {  # 4x4 -> [[A,B],[B,A]] (used twice)
    "cols": ([1, 2, 4, 3], [4]),
    "rows": ([1, 2, 4, 3], [4]),
}
BRANCH_E = {  # 4x4 -> [[E,F],[F,-E]]
    "cols": ([1, 4, 3, 2], []),
    "rows": ([1, 2, 3, 4], [4]),
}
BRANCH_F = {  # 2x2 sign fix before the final butterfly
    "cols": ([1, 2], []),
    "rows": ([1, 2], [2]),
}


class ReconstructionError(RuntimeError):
    """A block failed to take the structure the factorization requires."""


# ---------------------------------------------------------------------------
# linear-form helpers


def form_to_signed_terms(form: LinearForm):
    """Decompose a +-1-coefficient form into a tuple of (sign, index)."""
    if not form.coeffs[0].is_zero():
        raise ReconstructionError("form has a constant term")
    terms = []
    for m, c in enumerate(form.coeffs[1:]):
        if c.is_zero():
            continue
        cn = c.normalized()
        if cn.exp != 0 or cn.num not in (1, -1):
            raise ReconstructionError(f"non-unit coefficient {cn} on b{m}")
        terms.append((cn.num, m))
    return tuple(terms)


def single_signed_entry(form: LinearForm):
    """(sign, index) for a form that is exactly one +-b_m."""
    terms = form_to_signed_terms(form)
    if len(terms) != 1:
        raise ReconstructionError(f"expected a single-term form, got {form!r}")
    return terms[0]


# ---------------------------------------------------------------------------
# seed-matrix loading


def _cell_form(cell: str) -> LinearForm:
    acc = FORMS.zero()
    for sign, idx in map(parse_term, cell.split()):
        acc = acc + (lf_from_b(idx) if sign > 0 else -lf_from_b(idx))
    return acc


def load_cell_grid(path: str) -> Mat:
    """Cell-per-line grid of signed index lists, as linear forms."""
    lines = read_asset_lines(path)
    if not lines:
        raise ValueError(f"{path}: no '<rows> <cols>' line; the file holds no cells")
    try:
        rows, cols = map(parse_int, lines[0].split())
    except ValueError as exc:
        raise ValueError(f"{path}: expected a '<rows> <cols>' line, got {lines[0]!r}") from exc
    if rows < 1 or cols < 1:
        raise ValueError(f"{path}: rows and cols must be at least 1, got {lines[0]!r}")
    if len(lines) - 1 != rows * cols:
        raise ValueError(f"{path}: expected {rows * cols} cells, got {len(lines) - 1}")
    forms = []
    for k, cell in enumerate(lines[1:]):
        try:
            forms.append(_cell_form(cell))
        except ValueError as exc:
            raise ValueError(f"{path}: row {k // cols} column {k % cols} line {cell!r}: {exc}") from exc
    return Mat(rows, cols, [forms[r * cols:(r + 1) * cols] for r in range(rows)])


def load_seed_matrices():
    """(m8_diff, m8_negsum) from the asset directory."""
    d = default_asset_dir()
    return load_cell_grid(os.path.join(d, "m8_diff.txt")), load_cell_grid(os.path.join(d, "m8_negsum.txt"))


# ---------------------------------------------------------------------------
# reorder machinery


def reorder_perms(branch):
    row_order, row_negs = branch["rows"]
    col_order, col_negs = branch["cols"]
    return (
        SignedPermutation.from_one_based(row_order, row_negs),
        SignedPermutation.from_one_based(col_order, col_negs),
    )


def apply_reorder(m: Mat, branch) -> Mat:
    """Shuffle rows/columns and apply the stated negations (new positions)."""
    rp, cp = reorder_perms(branch)
    rows = []
    for r, rs in zip(rp.src, rp.signs):
        row = m.entries[r]
        rows.append([row[c] if rs * cs > 0 else -row[c] for c, cs in zip(cp.src, cp.signs)])
    return Mat(m.rows, m.cols, rows)


def split_ab(m: Mat):
    """Check [[A,B],[B,A]] structure and return (A, B)."""
    n = m.rows // 2
    a = m.block(0, 0, n, n)
    b = m.block(0, n, n, n)
    if m.block(n, 0, n, n) != b or m.block(n, n, n, n) != a:
        raise ReconstructionError("matrix does not have the [[A,B],[B,A]] structure")
    return a, b


def split_ef(m: Mat):
    """Check [[E,F],[F,-E]] structure and return (E, F)."""
    n = m.rows // 2
    e = m.block(0, 0, n, n)
    f = m.block(0, n, n, n)
    if m.block(n, 0, n, n) != f or m.block(n, n, n, n) != -e:
        raise ReconstructionError("matrix does not have the [[E,F],[F,-E]] structure")
    return e, f


def _ab(m: Mat, branch=None):
    """Shuffle by ``branch``, split [[A,B],[B,A]] and return (A+B, A-B)."""
    a, b = split_ab(m if branch is None else apply_reorder(m, branch))
    return a + b, a - b


def _ef(m: Mat, branch):
    """Shuffle by ``branch``, split [[E,F],[F,-E]] and return (E-F, -(E+F), F)."""
    e, f = split_ef(apply_reorder(m, branch))
    return e - f, -(e + f), f


# ---------------------------------------------------------------------------
# top-level signed-permutation solver


def _signed_entry_grid(m: Mat):
    return [[single_signed_entry(m.entries[r][c]) for c in range(m.cols)] for r in range(m.rows)]


def solve_outer_permutations(m16: Mat, b16: Mat):
    """Find signed permutations R, C with  B16 = R . M16 . C.

    Both matrices have one +-b_m per row and column.  Sending row 0 of M16
    to target row r0 with sign rho0 forces the column map; column 0 then
    forces the row map, and one pass over all cells accepts or refutes
    the candidate.
    """
    gm, gb = _signed_entry_grid(m16), _signed_entry_grid(b16)
    # b-index -> (column, sign) in each target row, -> (row, sign) in each target column
    in_row = [{m: (c, s) for c, (s, m) in enumerate(row)} for row in gb]
    in_col = [{gb[r][c][1]: (r, gb[r][c][0]) for r in range(DIM)} for c in range(DIM)]
    col0 = [row[0] for row in gm]
    # a solution has B16[rowmap[i]][pi[j]] = rho[i] * kappa[j] * M16[i][j]
    for r0 in range(DIM):
        for rho0 in (1, -1):
            hits = [in_row[r0].get(m) for _, m in gm[0]]
            if None in hits:
                continue
            pi = [c for c, _ in hits]
            kappa = [rho0 * s * s_b for (s, _), (_, s_b) in zip(gm[0], hits)]
            hits = [in_col[pi[0]].get(m) for _, m in col0]
            if None in hits:
                continue
            rowmap = [r for r, _ in hits]
            rho = [s_b * kappa[0] * s for (s, _), (_, s_b) in zip(col0, hits)]
            if len(set(rowmap)) == DIM and all(
                    in_row[rowmap[i]].get(m) == (pi[j], rho[i] * kappa[j] * s)
                    for i in range(DIM) for j, (s, m) in enumerate(gm[i])):
                return SignedPermutation(rowmap, rho).inverse(), SignedPermutation(pi, kappa)
    raise ReconstructionError("no signed permutations link the seed blocks to the product matrix")


# ---------------------------------------------------------------------------
# block-formula derivation


def _blocks(family: str, halved: bool, names: str, *mats) -> tuple:
    """One core block per matrix of linear forms, as ``fastmult.parse_blocks``
    builds it: each cell's recipe by ``decompose_terms``."""
    blocks = []
    for name, m in zip(names.split(), mats):
        formulas = tuple(form_to_signed_terms(cell) for row in m.entries for cell in row)
        recipes = tuple(decompose_terms(terms, family) for terms in formulas)
        blocks.append(CoreBlock(name, m.rows, halved, family, formulas, recipes))
    return tuple(blocks)


@dataclass
class Derivation:
    """Everything reconstructed from the seed data."""

    outer_rows: SignedPermutation  # R with B16 = R . M16 . C
    outer_cols: SignedPermutation
    blocks_level1: tuple  # of fastmult.CoreBlock
    blocks_level2: tuple
    blocks_level3: tuple
    perm_in_24: SignedPermutation
    perm_out_24: SignedPermutation
    perm_in_28: SignedPermutation
    perm_out_28: SignedPermutation
    perm_out_30: SignedPermutation
    perm_pairs_16: SignedPermutation  # level-3 input side, see synthesize_level3_input
    perm_in_30: SignedPermutation
    m16: Mat


def derive_all() -> Derivation:
    diff, negsum = load_seed_matrices()
    # seed blocks:  diff = A8 - B8,  negsum = -(A8 + B8)
    a8 = (diff - negsum).map(FORMS.halve)
    b8 = -(diff + negsum).map(FORMS.halve)
    m16 = template_EF(a8, b8)
    outer_rows, outer_cols = solve_outer_permutations(m16, symbolic_b_matrix())

    # the recursion; every shuffled matrix must expose its block template
    q0, q1 = _ab(diff, BRANCH_A)
    q2, q3 = _ab(negsum, BRANCH_B)
    t0, t1, t2 = _ef(b8, BRANCH_C)
    d0, d1 = _ab(t0, BRANCH_D)
    d2, d3 = _ab(t1, BRANCH_D)
    e0, e1, f = _ef(t2, BRANCH_E)
    u0, u1 = _ab(e0)
    u2, u3 = _ab(e1, BRANCH_F)

    quads = _blocks("quad", True, "q0 q1 q2 q3", q0, q1, q2, q3)
    duos = _blocks("duo", True, "d0 d1 d2 d3", d0, d1, d2, d3)
    blocks_level1 = quads + _blocks("direct", False, "t0 t1 t2", t0, t1, t2)
    blocks_level2 = quads + duos + _blocks("direct", False, "e0 e1 f", e0, e1, f)
    # halved f: the level-3 input side delivers twice the block's inputs
    blocks_level3 = (quads + duos + _blocks("mixed", True, "u0 u1 u2 u3", u0, u1, u2, u3)
                     + _blocks("direct", True, "f", f))

    # composed permutation stages; for a stated shuffle the input-side stage
    # is the column op inverse (= the shuffle read as a signed permutation)
    # and the output-side stage is the row op inverse.
    (rp_a, cp_a), (rp_b, cp_b), (rp_c, cp_c), (rp_d, cp_d), (rp_e, cp_e), (rp_f, _) = (
        reorder_perms(br) for br in (BRANCH_A, BRANCH_B, BRANCH_C, BRANCH_D, BRANCH_E, BRANCH_F))
    ident = SignedPermutation.identity
    perm_in_24 = perm_concat([cp_a, cp_b, cp_c])
    perm_in_28 = perm_concat([ident(16), cp_d, cp_d, cp_e])
    perm_pairs_16, perm_in_30 = synthesize_level3_input(
        displayed_level3_input(outer_cols, perm_in_24, perm_in_28))

    return Derivation(
        outer_rows=outer_rows,
        outer_cols=outer_cols,
        blocks_level1=blocks_level1,
        blocks_level2=blocks_level2,
        blocks_level3=blocks_level3,
        perm_in_24=perm_in_24,
        perm_out_24=perm_concat([rp_a.inverse(), rp_b.inverse(), rp_c.inverse()]),
        perm_in_28=perm_in_28,
        perm_out_28=perm_concat([ident(16), rp_d.inverse(), rp_d.inverse(), rp_e.inverse()]),
        perm_out_30=perm_concat([ident(26), rp_f.inverse(), ident(2)]),
        perm_pairs_16=perm_pairs_16,
        perm_in_30=perm_in_30,
        m16=m16,
    )


# ---------------------------------------------------------------------------
# level-3 input side
#
# The displayed level-3 input side forms the eight sums x_i + x_{i+8}
# before its butterflies and spends 8+20+10+4 = 42 additions.  The 30x16
# map it composes to factors with the butterflies first: one butterfly per
# input pair (16 additions), three rounds of sums that each halve the
# number of value pairs (8+4+2), and a closing butterfly (2) that yields
# twice the two inputs of the final core block, which is halved instead.
# That is 32 additions, with signed permutations before and after.

# the combiners of the final level's input side, between its two permutations
LEVEL3_INPUT_STAGES = CHAINS[3][1:6]


def _compose(mats) -> Mat:
    """The product of integer matrices given in the order they apply."""
    acc = None
    for m in mats:
        acc = m if acc is None else int_mat_mul(m, acc)
    return acc


def displayed_level3_input(outer_cols, perm_in_24, perm_in_28) -> Mat:
    """The 30x16 map of the displayed input side, left-hand coefficients
    to the inputs of the 30-wide core."""
    return _compose([
        signed_perm_matrix(outer_cols),
        COMBINERS["expand_16_24"],
        signed_perm_matrix(perm_in_24),
        COMBINERS["expand_24_28"],
        signed_perm_matrix(perm_in_28),
        COMBINERS["expand_28_30"],
        COMBINERS["reduce_30_30"],  # the displayed 30-wide input butterfly, the output side's form
    ])


def _support(row) -> list:
    return [k for k, c in enumerate(row) if c]


def _split_pair(u, v, rows):
    """Split u and v over one halving of their common support.

    Returns ((u1, v1), (u2, v2)) with u = u1 + u2 and v = v1 + v2, each
    part a member of ``rows`` (a list of signed rows); the first part
    holds the lowest coordinate.
    """
    support = _support(u)
    if _support(v) != support:
        raise ReconstructionError("value pair with different supports")
    members = set(rows)
    for row in rows:
        half = set(_support(row))
        if 2 * len(half) != len(support) or support[0] not in half or not half <= set(support):
            continue
        firsts = [tuple(c if k in half else 0 for k, c in enumerate(w)) for w in (u, v)]
        seconds = [tuple(c - d for c, d in zip(w, f)) for w, f in zip((u, v), firsts)]
        if all(part in members for part in firsts + seconds):
            return tuple(firsts), tuple(seconds)
    raise ReconstructionError("value pair does not split into core inputs")


def synthesize_level3_input(target: Mat):
    """Signed permutations that turn LEVEL3_INPUT_STAGES into ``target``.

    ``target`` maps the sixteen left-hand coefficients to the thirty core
    inputs; its last two rows feed the final block.  Working down from
    the closing butterfly, every value pair is split over a halving of
    its support into two pairs of (signed) core inputs; the eight pairs
    at the bottom are the input butterflies.  Returns the input
    permutation and the permutation into core order; the chain between
    them computes ``target`` except that it doubles the last two rows.
    """
    rows = list(target.entries)
    neg = lambda w: tuple(-c for c in w)
    inner = [w for r in rows[:-2] for w in (r, neg(r))]
    f0, f1 = rows[-2:]
    level = [(tuple(x + y for x, y in zip(f0, f1)), tuple(x - y for x, y in zip(f0, f1)))]
    for _ in range(3):
        # each of the three sums stages adds value k to value k + n, so
        # the halves of value pair j become value pairs j and j + n
        halves = [_split_pair(u, v, inner) for u, v in level]
        level = [h[0] for h in halves] + [h[1] for h in halves]
    src, signs = [], []
    for p, m in level:
        # p = x + y and m = x - y for the signed inputs x, y of one butterfly
        for twice in (tuple(x + y for x, y in zip(p, m)), tuple(x - y for x, y in zip(p, m))):
            support = _support(twice)
            if len(support) != 1 or abs(twice[support[0]]) != 2:
                raise ReconstructionError("bottom value pair is not a butterfly of two inputs")
            src.append(support[0])
            signs.append(1 if twice[support[0]] > 0 else -1)
    try:
        pairs = SignedPermutation(src, signs)
    except ValueError as exc:
        raise ReconstructionError(f"input butterflies do not cover the inputs once: {exc}") from exc
    chain = _compose([signed_perm_matrix(pairs)] + [COMBINERS[name] for name in LEVEL3_INPUT_STAGES])
    found = {}
    for j, row in enumerate(chain.entries):
        found[row] = (j, 1)
        found[neg(row)] = (j, -1)
    want = rows[:-2] + [tuple(2 * c for c in r) for r in rows[-2:]]
    try:
        hits = [found[w] for w in want]
        to_core = SignedPermutation([j for j, _ in hits], [s for _, s in hits])
    except (KeyError, ValueError) as exc:
        raise ReconstructionError("the level-3 input chain does not reach the core inputs") from exc
    return pairs, to_core


# ---------------------------------------------------------------------------
# asset writing


def generated_asset_texts() -> dict:
    """filename -> text for every derived (non-transcribed) asset, each
    written by ``fastmult.format_stage`` or ``fastmult.format_blocks``."""
    d = derive_all()

    # split the outer row operation into a pure permutation followed by a
    # sign diagonal, mirroring the two named output stages
    perm_part = SignedPermutation(d.outer_rows.src)
    sign_part = SignedPermutation(list(range(DIM)), d.outer_rows.signs)

    return {
        "perm_in_16.txt": format_stage(d.outer_cols, "input shuffle of the left-hand coefficients"),
        "perm_in_24.txt": format_stage(d.perm_in_24, "per-branch input column ops, 8+8+8"),
        "perm_in_28.txt": format_stage(d.perm_in_28, "second-level input column ops, 16+4+4+4"),
        "perm_pairs_16.txt": format_stage(d.perm_pairs_16, "final-level input pairs, one butterfly each"),
        "perm_in_30.txt": format_stage(d.perm_in_30, "final-level input side into core order"),
        "perm_out_30.txt": format_stage(d.perm_out_30, "final-level output sign fix"),
        "perm_out_28.txt": format_stage(d.perm_out_28, "second-level output row ops, 16+4+4+4"),
        "perm_out_24.txt": format_stage(d.perm_out_24, "per-branch output row ops, 8+8+8"),
        "perm_out_16.txt": format_stage(perm_part, "output shuffle (permutation part)"),
        "signs_out_16.txt": format_stage(sign_part, "output sign diagonal"),
        "blocks_level1.txt": format_blocks(d.blocks_level1, "diagonal blocks, first refinement (28-wide core)"),
        "blocks_level2.txt": format_blocks(d.blocks_level2, "diagonal blocks, second refinement (30-wide core)"),
        "blocks_level3.txt": format_blocks(d.blocks_level3, "diagonal blocks, final refinement (30-wide core)"),
    }


def write_assets(dest_dir: str) -> list:
    os.makedirs(dest_dir, exist_ok=True)
    texts = generated_asset_texts()
    for name, text in sorted(texts.items()):
        with open(os.path.join(dest_dir, name), "w", encoding="ascii") as fh:
            fh.write(text)
    return sorted(texts)


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description="regenerate derived pipeline assets")
    parser.add_argument("--out", required=True, help="the directory to write into")
    args = parser.parse_args(argv)
    names = write_assets(args.out)
    print(f"wrote {len(names)} assets to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
