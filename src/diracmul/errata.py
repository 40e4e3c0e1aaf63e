"""Deterministic report of reference-material discrepancies.

The package ships verbatim transcriptions of its reference data (the
multiplication table, the product matrix, the seed block matrices) and
reconstructs everything else.  This module diffs the transcriptions
against the derived ground truth and records where the reconstruction had
to depart from, or decide between, conflicting reference displays.  The
derived, symbolically verified artifacts always win; the report only
documents the differences.
"""

from __future__ import annotations

from .algebra import (
    b_matrix_errata,
    build_table_from_generators,
    parse_printed_table,
    parse_printed_b_matrix,
    symbolic_b_matrix,
    table_errata,
)
from .cli import count_operations
from .derive import DISPLAYED_MIX_30
from .fastmult import assemble_pipeline, parse_expr
from .linalg import Mat, SignedPermutation, dirsum, eye, signed_perm_matrix


def _diag(signs) -> Mat:
    return signed_perm_matrix(SignedPermutation(range(len(signs)), signs))


# The 28-wide permutation stages as displayed in the reference material.
# Both displays share a degenerate last block (two entries in one column,
# none in another), reproduced here verbatim.
_PRINTED_LAST_BLOCK_IN = Mat(4, 4, [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]])
_PRINTED_LAST_BLOCK_OUT = Mat(4, 4, [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 0, 0, -1]])

PRINTED_PERM_IN_28 = dirsum([eye(16), _diag([1, 1, 1, -1]), _diag([1, 1, 1, -1]), _PRINTED_LAST_BLOCK_IN])
PRINTED_PERM_OUT_28 = dirsum([eye(16), _diag([1, 1, 1, -1]), _diag([1, 1, 1, -1]), _PRINTED_LAST_BLOCK_OUT])
PRINTED_PERM_OUT_30 = dirsum([eye(27), _diag([-1]), eye(2)])
PRINTED_MIX_30 = parse_expr(DISPLAYED_MIX_30)

STATIC_NOTES = [
    "second seed branch: the stated row order {1,7,3,4,5,6,2,8} does not yield"
    " any [[A,B],[B,A]] block shape; the displayed shuffled matrix pins the"
    " actual row order to {1,2,4,7,5,3,8,6} with rows 6 and 8 negated, and the"
    " assets use that.",
    "one displayed 4x4 intermediate carries the fused coefficient token 'b912'"
    " where the derived cell reads -b12+b15; the derived formula is used.",
    "one displayed 4x4 block cell combines the shared pair terms as"
    " -(-b6+b7)-(-b8+b9); the derived cell needs -(-b6+b7)+(-b8+b9)"
    " (block q1, row 1, column 4 of the final core).",
    "the display naming reuses one label for two different 8x8 matrices and"
    " once numbers the final core stage inconsistently with its definition"
    " list; assets use unambiguous names (q*/d*/u*/f and per-level manifests).",
    "the 30-wide butterfly stages on the input and output sides are printed"
    " with identical definitions; the output side uses that form (the sign"
    " fix lives in the output-side 30-wide permutation), the input side is"
    " rebuilt at the final level (see the cost note).",
    "displayed 28-wide permutation stages carry a degenerate last 4x4 block"
    " (two entries in its fourth column, none in its second); the derived"
    " stages are proper signed permutations, diffed below.",
]


def _cost_note() -> str:
    """The note on the additions budget, with the measured figures."""
    counts = count_operations()
    fast, core, per_block = counts["fast"][3], counts["core_additions"], counts["per_block_core_additions"]
    mults, structural = fast["nontrivial_mults"], fast["additions"] - core
    return (
        "the displayed cost summary books 90 additions for the constant stages,"
        " but the displayed stage chain issues 98 (8+20+10+4 on the input side,"
        " 4+12+24+16 on the output side) and contains no duplicate values to"
        " share. The package builds the same final-level input map in 32"
        " additions instead of 42: butterflies of the eight input pairs, then"
        " sums (16+8+4+2+2); its last butterfly yields twice the inputs of the"
        " final core block, which is halved instead (4 shifts). The constant"
        f" stages then issue {structural} additions and, with the {per_block} core additions"
        f" of the per-block recipes, the product costs {mults} multiplications and"
        f" {structural + per_block} additions, inside the displayed 256; which 90"
        " additions the displayed summary counts cannot be traced from the"
        " displayed chain. The compiled product also shares core entries: many"
        " entries repeat, up to sign, across blocks, and each distinct one is"
        f" bound once, so its core costs {core} additions against the per-block"
        f" {per_block} and the product {mults} multiplications and {fast['additions']}"
        " additions."
    )


def _stage_matrix(pipeline, name: str) -> Mat:
    for stage in pipeline.stages:
        if stage.name == name:
            return stage.mat
    raise KeyError(name)


def _mat_diff(got: Mat, want: Mat):
    cells = []
    for r in range(got.rows):
        for c in range(got.cols):
            if got.entries[r][c] != want.entries[r][c]:
                cells.append((r, c, want.entries[r][c], got.entries[r][c]))
    return cells


def stage_comparisons() -> list:
    """(stage name, printed form, cell list) tuples."""
    # the final level builds its own input side; the second level still
    # loads the displayed 28-wide input permutation
    level2, level3 = assemble_pipeline(2), assemble_pipeline(3)
    return [
        (name, printed, _mat_diff(_stage_matrix(pipe, name), printed))
        for pipe, name, printed in (
            (level2, "perm_in_28", PRINTED_PERM_IN_28),
            (level3, "perm_out_28", PRINTED_PERM_OUT_28),
            (level3, "perm_out_30", PRINTED_PERM_OUT_30),
            (level3, "reduce_30_30", PRINTED_MIX_30),
        )
    ]


def build_report() -> str:
    lines = []
    derived_table = build_table_from_generators()
    printed_table = parse_printed_table()
    diffs = table_errata(printed_table, derived_table)
    lines.append("== multiplication table: transcription vs derived ==")
    if not diffs:
        lines.append("identical in all 256 cells")
    else:
        lines.append(f"{len(diffs)} differing cells")
        for p, q, got, want in diffs:
            lines.append(f"  row {p} col {q}: transcribed {got} derived {want}")

    lines.append("")
    lines.append("== product matrix: transcription vs derived ==")
    bdiffs = b_matrix_errata(parse_printed_b_matrix(), symbolic_b_matrix(derived_table))
    if not bdiffs:
        lines.append("identical in all 256 cells")
    else:
        lines.append(f"{len(bdiffs)} differing cells (derived matrix is ground truth)")
        for r, c, got, want in bdiffs:
            lines.append(f"  row {r} col {c}: transcribed {got!r} derived {want!r}")

    lines.append("")
    lines.append("== constant stages: derived vs displayed forms ==")
    for name, printed, cells in stage_comparisons():
        if not cells:
            lines.append(f"{name}: matches the displayed form")
        else:
            lines.append(f"{name}: {len(cells)} cells differ from the displayed form")
            for r, c, want, got in cells:
                lines.append(f"  row {r} col {c}: displayed {want} derived {got}")

    lines.append("")
    lines.append("== reconstruction notes ==")
    for note in STATIC_NOTES + [_cost_note()]:
        lines.append(f"- {note}")
    lines.append("")
    lines.append(
        "the derived pipeline is the operative artifact; it is proven equal to"
        " the table-derived product matrix symbolically at every level."
    )
    return "\n".join(lines) + "\n"
