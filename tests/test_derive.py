import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diracmul
from diracmul.algebra import default_asset_dir
from diracmul.derive import (
    BRANCH_A,
    BRANCH_C,
    LEVEL3_INPUT_STAGES,
    ReconstructionError,
    apply_reorder,
    derive_all,
    displayed_level3_input,
    form_to_signed_terms,
    generated_asset_texts,
    load_cell_grid,
    load_seed_matrices,
    main,
    solve_outer_permutations,
    split_ab,
    split_ef,
    synthesize_level3_input,
)
from diracmul.exactnum import FORMS
from diracmul.fastmult import (CHAINS, COMBINERS, LEVELS, format_blocks, format_stage, parse_blocks, parse_stage,
                               read_stage)
from diracmul.linalg import Mat, SignedPermutation, int_mat_mul, signed_perm_matrix


def grid(block):
    n = block.size
    return [
        [block.formulas[i * n + j] for j in range(n)]
        for i in range(n)
    ]


def t(*tokens):
    # expected cell: tuple of (sign, coefficient index); tokens are ints or,
    # where index 0 needs a sign, strings like "-0"
    out = []
    for tok in tokens:
        if isinstance(tok, str):
            out.append((-1 if tok.startswith("-") else 1, int(tok.lstrip("+-"))))
        else:
            out.append((-1, -tok) if tok < 0 else (1, tok))
    return tuple(out)


# transcribed displays of the reference decomposition, used as independent
# expected values for the derived block formulas
EXPECTED_Q0 = [
    [t(0, 5, 10, 15), t(1, 2, 13, 14), t(-3, 4, -11, 12), t(-6, 7, -8, 9)],
    [t(-6, -7, 8, 9), t(-3, -4, 11, 12), t(1, -2, -13, 14), t(0, -5, -10, 15)],
    [t(-1, 2, -13, 14), t("-0", 5, -10, 15), t(-6, 7, 8, -9), t(-3, 4, 11, -12)],
    [t(3, 4, 11, 12), t(6, 7, 8, 9), t(0, 5, -10, -15), t(1, 2, -13, -14)],
]
EXPECTED_T0 = [
    [t(-4, 10), t(-7, -13), t(9, 14), t(-12, 15)],
    [t(7, -13), t(-4, -10), t(-12, -15), t(-9, 14)],
    [t(9, -14), t(-12, -15), t(-4, -10), t(-7, 13)],
    [t(-12, 15), t(-9, -14), t(7, 13), t(-4, 10)],
]
EXPECTED_T2 = [
    [t(-10), t(7), t(-9), t(-15)],
    [t(-7), t(10), t(15), t(9)],
    [t(-9), t(15), t(10), t(7)],
    [t(-15), t(9), t(-7), t(-10)],
]


@pytest.fixture(scope="module")
def derivation():
    return derive_all()


class TestDerivedBlocks:
    def test_first_quad_matches_display(self, derivation):
        q0 = derivation.blocks_level1[0]
        assert grid(q0) == [[cell for cell in row] for row in EXPECTED_Q0]

    def test_first_plain_level1_block_matches_display(self, derivation):
        t0 = derivation.blocks_level1[4]
        assert t0.name == "t0"
        assert grid(t0) == EXPECTED_T0

    def test_third_plain_level1_block_matches_display(self, derivation):
        t2 = derivation.blocks_level1[6]
        assert t2.name == "t2"
        assert grid(t2) == EXPECTED_T2

    def test_levels_share_the_quad_blocks(self, derivation):
        for i in range(4):
            assert derivation.blocks_level1[i] == derivation.blocks_level3[i]

    def test_expected_cells_are_well_formed(self):
        for row in EXPECTED_Q0 + EXPECTED_T0 + EXPECTED_T2:
            for cell in row:
                for sign, idx in cell:
                    assert sign in (-1, 1) and 0 <= idx <= 15


class TestReorders:
    def test_branch_a_produces_block_pair_structure(self):
        diff, _ = load_seed_matrices()
        shuffled = apply_reorder(diff, BRANCH_A)
        a4, b4 = split_ab(shuffled)  # raises if the structure is absent
        assert a4.rows == b4.rows == 4

    def test_branch_c_produces_ef_structure(self):
        diff, negsum = load_seed_matrices()
        b8 = -(diff + negsum).map(FORMS.halve)
        shuffled = apply_reorder(b8, BRANCH_C)
        e4, f4 = split_ef(shuffled)
        assert grid_of(f4) == EXPECTED_T2

    def test_wrong_reorder_fails_structure_check(self):
        diff, _ = load_seed_matrices()
        bad = dict(BRANCH_A)
        bad["rows"] = ([1, 2, 3, 4, 5, 6, 7, 8], [])
        with pytest.raises(ReconstructionError):
            split_ab(apply_reorder(diff, bad))


def grid_of(mat: Mat):
    return [
        [form_to_signed_terms(mat.entries[i][j]) for j in range(mat.cols)]
        for i in range(mat.rows)
    ]


class TestSolver:
    def test_tampered_target_is_rejected(self, derivation):
        from diracmul.algebra import symbolic_b_matrix

        b16 = symbolic_b_matrix()
        entries = [list(row) for row in b16.entries]
        entries[4][9] = FORMS.neg(entries[4][9])
        with pytest.raises(ReconstructionError):
            solve_outer_permutations(derivation.m16, Mat(16, 16, entries))

    def test_outer_column_permutation_is_signless(self, derivation):
        assert all(s == 1 for s in derivation.outer_cols.signs)

    def test_outer_row_signs_are_mixed(self, derivation):
        signs = set(derivation.outer_rows.signs)
        assert signs == {-1, 1}


class TestLevel3InputSide:
    @pytest.fixture(scope="class")
    def displayed(self, derivation):
        return displayed_level3_input(derivation.outer_cols, derivation.perm_in_24,
                                      derivation.perm_in_28)

    def test_chain_computes_the_displayed_map(self, derivation, displayed):
        acc = signed_perm_matrix(derivation.perm_pairs_16)
        for name in LEVEL3_INPUT_STAGES:
            acc = int_mat_mul(COMBINERS[name], acc)
        acc = int_mat_mul(signed_perm_matrix(derivation.perm_in_30), acc)
        # the final block is halved, so its two inputs arrive doubled
        want = tuple(row if i < 28 else tuple(2 * c for c in row) for i, row in enumerate(displayed.entries))
        assert acc.entries == want

    def test_additions_drop_from_42_to_32(self):
        def additions(names):
            return sum(sum(1 for e in row if e) - 1 for name in names for row in COMBINERS[name].entries)

        # the displayed input side ends in the butterfly the output side starts with
        assert additions(("expand_16_24", "expand_24_28", "expand_28_30", "reduce_30_30")) == 8 + 20 + 10 + 4
        assert additions(LEVEL3_INPUT_STAGES) == 16 + 8 + 4 + 2 + 2

    def test_tampered_target_is_rejected(self, displayed):
        entries = [list(row) for row in displayed.entries]
        col = next(c for c, e in enumerate(entries[20]) if e)
        entries[20][col] = -entries[20][col]
        with pytest.raises(ReconstructionError):
            synthesize_level3_input(Mat(30, 16, entries))


@pytest.mark.parametrize("text", ("", "# m8_diff: cells follow\n\n# none do\n"), ids=("empty", "comments-only"))
def test_seed_file_without_cells_names_the_file(tmp_path, text):
    path = tmp_path / "seed.txt"
    path.write_text(text, encoding="ascii")
    with pytest.raises(ValueError, match=re.escape(f"{path}: no '<rows> <cols>' line")):
        load_cell_grid(str(path))


@pytest.mark.parametrize("text, message", (
    ("8 8 8\n", "expected a '<rows> <cols>' line, got '8 8 8'"),
    ("a b\n", "expected a '<rows> <cols>' line, got 'a b'"),
    ("1 +2\n+0 +3\n+0\n", "expected a '<rows> <cols>' line, got '1 +2'"),
    ("1 2\n+0 +3\n+x\n", "row 0 column 1 line '+x': bad term '+x'"),
    ("-1 -1\n+0\n", "rows and cols must be at least 1, got '-1 -1'"),
    ("0 5\n", "rows and cols must be at least 1, got '0 5'"),
    ("2 2\n+0\n+1\n-2\n", "expected 4 cells, got 3"),
), ids=("three-numbers", "not-numbers", "plus-sign", "bad-cell", "negative-sizes", "no-rows", "too-few-cells"))
def test_malformed_seed_file_names_the_file(tmp_path, text, message):
    path = tmp_path / "seed.txt"
    path.write_text(text, encoding="ascii")
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        load_cell_grid(str(path))


def test_main_without_a_destination_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert "error: the following arguments are required: --out" in capsys.readouterr().err


def test_out_is_the_only_destination(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["--write", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "error: unrecognized arguments: --write" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("module", ["diracmul", "diracmul.errata"])
def test_importing_does_not_load_derive(module):
    # derive imports fastmult, never the other way; errata takes the combiners from fastmult
    code = f"import sys, {module}; sys.exit('diracmul.derive' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(diracmul.__file__))}
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


@pytest.fixture(scope="module")
def derived_names():
    return set(generated_asset_texts())


@pytest.mark.parametrize("level", LEVELS)
def test_a_chain_reads_only_files_that_derive_writes(derived_names, level):
    # a stage the design does not define in code is derived, the core among them
    read = {f"{name}.txt" for name in CHAINS[level] if name not in COMBINERS}
    assert f"blocks_level{level}.txt" in read
    assert read <= derived_names


def test_every_derived_file_is_read_by_a_chain(derived_names):
    assert derived_names == {f"{name}.txt" for chain in CHAINS.values() for name in chain if name not in COMBINERS}


# ---------------------------------------------------------------------------
# round trips: derive's writer, fastmult's reader, then the writer again
#
# The reader drops comment lines, so the second writing is given the first
# one's comment.


@pytest.fixture(scope="module")
def asset_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("round-trip")


def reread(directory, name: str, text: str, parse):
    path = directory / name
    path.write_text(text, encoding="ascii")
    return read_stage(str(path), parse)


def perm_of(mat: Mat) -> SignedPermutation:
    """The signed permutation whose matrix ``mat`` is (one +-1 per row)."""
    cols = [next(c for c, e in enumerate(row) if e) for row in mat.entries]
    return SignedPermutation(cols, [row[c] for row, c in zip(mat.entries, cols)])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30).flatmap(lambda n: st.tuples(
    st.permutations(range(n)), st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))))
def test_a_signed_permutation_stage_round_trips(asset_dir, perm):
    p = SignedPermutation(*perm)
    text = format_stage(p, "a signed permutation")
    mat = reread(asset_dir, "perm.txt", text, parse_stage)
    assert mat == signed_perm_matrix(p)
    assert format_stage(perm_of(mat), "a signed permutation") == text


def test_every_derived_signed_permutation_round_trips(asset_dir):
    texts = generated_asset_texts()
    perms = [name for name in texts if not name.startswith("blocks_")]
    assert len(perms) == 10
    for name in perms:
        lines = texts[name].splitlines()
        assert len(lines) == 2 and lines[0].startswith("# ")  # one comment line and one line of terms
        comment = lines[0].removeprefix("# ")
        assert format_stage(perm_of(reread(asset_dir, name, texts[name], parse_stage)), comment) == texts[name]


@pytest.mark.parametrize("level", (1, 2, 3))
def test_the_blocks_round_trip(asset_dir, derivation, level):
    comment = "diagonal blocks"
    text = format_blocks(getattr(derivation, f"blocks_level{level}"), comment)
    blocks = reread(asset_dir, f"blocks_level{level}.txt", text, parse_blocks)
    assert format_blocks(blocks, comment) == text


@pytest.mark.parametrize("level", (1, 2, 3))
def test_derived_and_shipped_core_blocks_are_equal_values(derivation, level):
    # one block type: the blocks derive builds are the values the pipeline loads
    path = os.path.join(default_asset_dir(), f"blocks_level{level}.txt")
    loaded = read_stage(path, parse_blocks)
    assert loaded == getattr(derivation, f"blocks_level{level}")
