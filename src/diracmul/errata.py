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
    build_table_from_generators,
    cell_diffs,
    parse_printed_table,
    parse_printed_b_matrix,
    symbolic_b_matrix,
    table_errata,
)
from .fastmult import COMBINERS, AssetError, assemble_pipeline, count_operations
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
PRINTED_MIX_30 = COMBINERS["reduce_30_30"]  # the output side uses the displayed form

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
        " displayed chain. The compiled product also shares values: many core"
        " entries repeat, up to sign, across blocks, as do pool sums of the two"
        " families, and each distinct value is computed once, so its core costs"
        f" {core} additions against the per-block"
        f" {per_block} and the product {mults} multiplications and {fast['additions']}"
        " additions."
    )


def _transcription(parse, name: str):
    """``parse()`` of the shipped transcription ``name``; a file that is
    missing or malformed is an :class:`AssetError` naming it."""
    try:
        return parse()
    except (OSError, ValueError) as exc:
        raise AssetError(f"{name}: {exc}") from exc


def stage_comparisons() -> list:
    """(stage name, printed form, cell list) tuples."""
    # the final level builds its own input side; the second level still
    # loads the displayed 28-wide input permutation
    level2, level3 = assemble_pipeline(2), assemble_pipeline(3)
    return [
        (name, printed, cell_diffs(printed, {s.name: s.mat for s in pipe.stages}[name]))
        for pipe, name, printed in (
            (level2, "perm_in_28", PRINTED_PERM_IN_28),
            (level3, "perm_out_28", PRINTED_PERM_OUT_28),
            (level3, "perm_out_30", PRINTED_PERM_OUT_30),
            (level3, "reduce_30_30", PRINTED_MIX_30),
        )
    ]


def _transcription_section(title: str, diffs: list, note: str = "") -> list:
    """The report lines of one transcription-vs-derived comparison."""
    lines = [f"== {title}: transcription vs derived =="]
    if not diffs:
        return lines + ["identical in all 256 cells"]
    lines.append(f"{len(diffs)} differing cells{note}")
    return lines + [f"  row {r} col {c}: transcribed {got!r} derived {want!r}" for r, c, got, want in diffs]


def build_report() -> str:
    derived_table = build_table_from_generators()
    printed_table = _transcription(parse_printed_table, "table_printed.txt")
    printed_b = _transcription(parse_printed_b_matrix, "b16_printed.txt")
    lines = _transcription_section("multiplication table", table_errata(printed_table, derived_table))
    lines.append("")
    lines += _transcription_section("product matrix", cell_diffs(printed_b, symbolic_b_matrix()),
                                    " (derived matrix is ground truth)")

    lines.append("")
    lines.append("== constant stages: derived vs displayed forms ==")
    for name, printed, cells in stage_comparisons():
        if not cells:
            lines.append(f"{name}: matches the displayed form")
        else:
            lines.append(f"{name}: {len(cells)} cells differ from the displayed form")
            for r, c, shown, derived in cells:
                lines.append(f"  row {r} col {c}: displayed {shown} derived {derived}")

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
