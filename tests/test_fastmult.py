import os
import random
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracmul.algebra import DIM, DiracNumber, build_table_from_generators, mul_schoolbook
from diracmul.derive import derive_all, generated_asset_texts
from diracmul.exactnum import CountingRing, DYADIC, FORMS, lf_from_b
from diracmul.fastmult import (
    AssetError,
    assemble_pipeline,
    bind_block,
    block_matvec,
    default_asset_dir,
    load_pools,
    mul_fast,
    parse_expr,
    precompute,
    verify_pipeline,
)
from helpers import evaluate, formula_forms
from linalg_helpers import lift, mat_mul


def rand_number(rng, ring=DYADIC, lo=-1000, hi=1000):
    return DiracNumber.from_ints([rng.randint(lo, hi) for _ in range(DIM)], ring)


def generic_number(rng, ring):
    return DiracNumber.from_ints([rng.randint(3, 1 << 19) * 2 + 1 for _ in range(DIM)], ring)


def form(*signed_indices):
    acc = FORMS.zero()
    for t in signed_indices:
        v = lf_from_b(abs(t))
        acc = acc + (-v if t < 0 else v)
    return acc


class TestAssembly:
    def test_dimension_chains(self, verified_pipelines):
        assert verified_pipelines[1].dims() == [16, 16, 24, 24, 28, 28, 24, 24, 16, 16, 16]
        assert verified_pipelines[2].dims() == [
            16, 16, 24, 24, 28, 28, 30, 30, 28, 28, 24, 24, 16, 16, 16,
        ]
        # level 3 input side: pairs, butterflies, three rounds of sums,
        # closing butterfly, core order
        assert verified_pipelines[3].dims() == [
            16, 16, 16, 24, 28, 30, 30, 30, 30, 30, 30, 28, 28, 24, 24, 16, 16, 16,
        ]

    def test_core_widths_per_level(self, verified_pipelines):
        assert verified_pipelines[1].core.in_dim == 28
        assert verified_pipelines[2].core.in_dim == 30
        assert verified_pipelines[3].core.in_dim == 30

    def test_level2_core_block_mix(self, verified_pipelines):
        blocks = verified_pipelines[2].core.blocks
        assert [(b.size, b.halved) for b in blocks] == [
            (4, True), (4, True), (4, True), (4, True),
            (2, True), (2, True), (2, True), (2, True),
            (2, False), (2, False), (2, False),
        ]

    def test_structural_stages_are_sign_limited(self, verified_pipelines):
        for pipe in verified_pipelines.values():
            for stage in pipe.stages:
                if stage.blocks is None:
                    assert stage.mat.is_structural()

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            assemble_pipeline(4)

    def test_corrupted_asset_names_the_stage(self, tmp_path):
        src = default_asset_dir()
        dst = tmp_path / "assets"
        shutil.copytree(src, dst)
        (dst / "perm_out_24.txt").write_text("kind signed_perm\nsize 24\nsrc 1 2 3\nsigns + + +\n")
        with pytest.raises(AssetError, match="perm_out_24"):
            assemble_pipeline(3, str(dst))

    @pytest.mark.parametrize("text", [
        "kron(T3x2, I8",             # unbalanced parentheses
        "kron(T3x2, I8))",
        "kron(T3x2, I8) I2",         # trailing text
        "kron(T3x2, I8)[0]",         # subscript
        "kron(T3x2, b=I8)",          # keyword argument
        "dirsum(*(I2, I2))",         # starred argument
        "linalg.H2",                 # attribute access
        "kron(linalg.H2, I2)",
        '__import__("os")',
        "Q2",                        # unknown atom
        "kron(H2, Ix)",
        "transpose(H2)",             # unknown function
        "kron(H2)",                  # kron takes two
        "kron(H2, I2, I2)",
        "dirsum()",
        "",
    ])
    def test_parse_expr_rejects(self, text):
        with pytest.raises(ValueError):
            parse_expr(text)

    def test_malformed_expr_names_the_stage(self, tmp_path):
        dst = tmp_path / "assets"
        shutil.copytree(default_asset_dir(), dst)
        (dst / "expand_16_24.txt").write_text("kind structural\nexpr kron(T3x2, I8\n")
        with pytest.raises(AssetError, match="stage expand_16_24.txt: malformed expression"):
            assemble_pipeline(3, str(dst))


class TestBlockFormulas:
    def test_first_quad_corner(self, verified_pipelines):
        q0 = verified_pipelines[3].core.blocks[0]
        assert q0.name == "q0"
        assert formula_forms(q0)[0] == form(0, 5, 10, 15)

    def test_first_duo_block(self, verified_pipelines):
        d0 = verified_pipelines[3].core.blocks[4]
        assert formula_forms(d0) == [
            form(-4, 10, -12, 15),
            form(-7, -9, -13, -14),
            form(7, -9, -13, 14),
            form(-4, -10, 12, 15),
        ]

    def test_level2_plain_duo(self, verified_pipelines):
        e0 = verified_pipelines[2].core.blocks[8]
        assert e0.name == "e0"
        assert formula_forms(e0) == [
            form(9, -10), form(-7, -15), form(-7, -15), form(9, -10),
        ]

    def test_singleton_blocks(self, verified_pipelines):
        singles = verified_pipelines[3].core.blocks[8:12]
        assert [formula_forms(b)[0] for b in singles] == [
            form(-7, 9, -10, -15),
            form(7, 9, -10, 15),
            form(-7, 9, 10, 15),
            form(7, 9, 10, -15),
        ]

    def test_final_block(self, verified_pipelines):
        f = verified_pipelines[3].core.blocks[12]
        assert f.halved  # the input side delivers twice its inputs
        assert formula_forms(f) == [form(-9), form(7), form(15), form(10)]

    def test_formulas_at_unit_operand(self, verified_pipelines):
        unit = [DYADIC.one() if m == 0 else DYADIC.zero() for m in range(DIM)]
        q0 = verified_pipelines[3].core.blocks[0]
        vals = [evaluate(c, unit) for c in formula_forms(q0)]
        assert vals[0] == DYADIC.one()
        f = verified_pipelines[3].core.blocks[12]
        assert all(evaluate(c, unit).is_zero() for c in formula_forms(f))


class TestVerification:
    def test_symbolic_identity_all_levels(self, verified_pipelines):
        # assembled via the session fixture, which asserts every report
        for level, pipe in verified_pipelines.items():
            assert verify_pipeline(pipe).ok, level

    def test_planted_sign_fault_localizes(self, planted_fault):
        bad_pipe, affected_column = planted_fault
        report = verify_pipeline(bad_pipe)
        assert not report.ok
        assert {(r, c) for r, c, _, _ in report.mismatches} == {
            (r, affected_column) for r in range(DIM)
        }

    def test_report_summary_format(self, verified_pipelines):
        report = verify_pipeline(verified_pipelines[3])
        assert report.summary() == "level 3: symbolic 256/256 entries match"


class TestMulFast:
    def test_unit_right_operand(self, verified_pipelines):
        rng = random.Random(12)
        a = rand_number(rng)
        e0 = DiracNumber.basis(0, DYADIC)
        assert mul_fast(a, e0) == a

    def test_basis_product(self):
        i1 = DiracNumber.basis(1, DYADIC)
        i2 = DiracNumber.basis(2, DYADIC)
        assert mul_fast(i1, i2) == DiracNumber.basis(5, DYADIC)

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_matches_schoolbook(self, table, level, verified_pipelines):
        rng = random.Random(level)
        for _ in range(100):
            a = rand_number(rng)
            b = rand_number(rng)
            assert mul_fast(a, b, level) == mul_schoolbook(a, b, table)

    def test_levels_agree(self, verified_pipelines):
        rng = random.Random(9)
        for _ in range(25):
            a = rand_number(rng)
            b = rand_number(rng)
            r3 = mul_fast(a, b, 3)
            assert mul_fast(a, b, 1) == r3
            assert mul_fast(a, b, 2) == r3

    def test_bilinearity(self, table):
        rng = random.Random(21)
        for _ in range(10):
            a1, a2, b = (rand_number(rng) for _ in range(3))
            lam = DYADIC.wrap(rng.randint(-9, 9))
            assert mul_fast(a1.add(a2), b) == mul_fast(a1, b).add(mul_fast(a2, b))
            assert mul_fast(a1.scale(lam), b) == mul_fast(a1, b).scale(lam)
            assert mul_fast(b, a1.add(a2)) == mul_fast(b, a1).add(mul_fast(b, a2))


_coeff_lists = st.lists(st.integers(-(1 << 20), 1 << 20), min_size=DIM, max_size=DIM)


@given(_coeff_lists, _coeff_lists)
@settings(max_examples=30, deadline=None)
def test_fast_equals_schoolbook_property(av, bv):
    table = build_table_from_generators()
    a = DiracNumber.from_ints(av, DYADIC)
    b = DiracNumber.from_ints(bv, DYADIC)
    assert mul_fast(a, b, 3) == mul_schoolbook(a, b, table)


# measured operation counts of the assembled pipelines (the nominal
# reference budget is 256 additions; level 3 issues 110 core additions,
# 52 binding its distinct entries and 58 in the block mat-vecs, then
# 16+8+4+2+2 = 32 on the input side and 4+12+24+16 = 56 on the output
# side, see the errata notes and the acceptance suite)
MEASURED = {
    1: {"nontrivial_mults": 112, "additions": 192},
    2: {"nontrivial_mults": 92, "additions": 204},
    3: {"nontrivial_mults": 88, "additions": 52 + 58 + 32 + 56},
}


class TestCounts:
    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_full_product_counts(self, level, verified_pipelines):
        rng = random.Random(40 + level)
        ring = CountingRing()
        a = generic_number(rng, ring)
        b = generic_number(rng, ring)
        mul_fast(a, b, level)
        got = ring.counter.as_dict()
        assert got["nontrivial_mults"] == MEASURED[level]["nontrivial_mults"]
        assert got["additions"] == MEASURED[level]["additions"]
        assert got["shifts"] > 0  # halvings are shifts, never multiplications

    def test_mult_counts_strictly_improve_with_level(self):
        assert (
            MEASURED[3]["nontrivial_mults"]
            < MEASURED[2]["nontrivial_mults"]
            < MEASURED[1]["nontrivial_mults"]
            < 256
        )

    def test_precompute_apply_split(self, verified_pipelines):
        rng = random.Random(50)
        ring = CountingRing()
        b = generic_number(rng, ring)
        op = precompute(b, 3)
        assert ring.counter.nontrivial_mults == 0
        assert ring.counter.additions == 52
        before = ring.counter.snapshot()
        a = generic_number(rng, ring)
        op.apply(a)
        after = ring.counter.snapshot()
        mults, adds, _, shifts = (q - p for p, q in zip(before, after))
        assert (mults, adds) == (88, 58 + 32 + 56)  # core mat-vec + structural
        assert shifts == 0  # halvings are folded into the precomputed entries

    def test_second_apply_costs_the_same(self, verified_pipelines):
        rng = random.Random(51)
        ring = CountingRing()
        op = precompute(generic_number(rng, ring), 3)
        deltas = []
        for _ in range(2):
            before = ring.counter.snapshot()
            op.apply(generic_number(rng, ring))
            after = ring.counter.snapshot()
            deltas.append(tuple(q - p for p, q in zip(before, after)))
        assert deltas[0] == deltas[1]

    def test_zero_data_still_issues_every_addition(self, verified_pipelines):
        ring = CountingRing()
        a = DiracNumber.zero(ring)
        b = DiracNumber.zero(ring)
        mul_fast(a, b, 3)
        # multiplications become trivial on zero values, additions do not
        assert ring.counter.nontrivial_mults == 0
        assert ring.counter.additions == MEASURED[3]["additions"]

    def test_core_subcounts_in_isolation(self, verified_pipelines):
        rng = random.Random(60)
        pipe = verified_pipelines[3]
        pools = load_pools(os.path.join(pipe.asset_dir, "pool_pairs.txt"))
        ring = CountingRing()
        b = [ring.wrap(rng.randint(3, 1 << 19) * 2 + 1) for _ in range(DIM)]
        pool_cache = {}
        per_block = {}
        for blk in pipe.core.blocks:
            before = ring.counter.snapshot()
            entries = bind_block(blk, b, ring, pools, pool_cache)
            x = [ring.wrap(rng.randint(3, 1 << 19) * 2 + 1) for _ in range(blk.size)]
            block_matvec(blk, entries, x, ring)
            after = ring.counter.snapshot()
            per_block[blk.name] = tuple(q - p for p, q in zip(before, after))[:2]
        assert per_block["q0"] == (16, 44)
        for name in ("q1", "q2", "q3"):
            assert per_block[name] == (16, 28)
        assert per_block["d0"] == (4, 14)
        for name in ("d1", "d2", "d3"):
            assert per_block[name] == (4, 6)
        assert sum(per_block[f"u{i}"][1] for i in range(4)) == 4
        assert per_block["f"] == (4, 2)
        total_mults = sum(v[0] for v in per_block.values())
        total_adds = sum(v[1] for v in per_block.values())
        assert (total_mults, total_adds) == (88, 166)


class TestPrecomputedOperator:
    def test_unit_operator_is_identity(self, verified_pipelines):
        rng = random.Random(70)
        op = precompute(DiracNumber.basis(0, DYADIC), 3)
        for _ in range(10):
            a = rand_number(rng)
            assert op.apply(a) == a

    def test_apply_matches_schoolbook(self, table, verified_pipelines):
        rng = random.Random(71)
        b = rand_number(rng)
        op = precompute(b, 3)
        for _ in range(100):
            a = rand_number(rng)
            assert op.apply(a) == mul_schoolbook(a, b, table)


class TestAssetRegeneration:
    def test_shipped_assets_match_rederivation(self):
        texts = generated_asset_texts(derive_all())
        asset_dir = default_asset_dir()
        for name, text in texts.items():
            with open(os.path.join(asset_dir, name), encoding="ascii") as fh:
                assert fh.read() == text, f"asset {name} does not match its derivation"

    def test_outer_permutation_solution_reproduces_product_matrix(self, table):
        from diracmul.algebra import symbolic_b_matrix
        from diracmul.linalg import signed_perm_matrix

        d = derive_all()
        r_mat = lift(FORMS, signed_perm_matrix(d.outer_rows))
        c_mat = lift(FORMS, signed_perm_matrix(d.outer_cols))
        recombined = mat_mul(FORMS, mat_mul(FORMS, r_mat, d.m16), c_mat)
        assert recombined == symbolic_b_matrix(table)


class TestDeriveEndToEnd:
    def test_derive_cli_writes_the_shipped_assets(self, tmp_path, capsys):
        from diracmul import derive

        assert derive.main(["--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out == f"wrote 28 assets to {tmp_path}\n"
        written = sorted(os.listdir(tmp_path))
        assert len(written) == 28
        for name in written:
            with open(os.path.join(default_asset_dir(), name), encoding="ascii") as fh:
                assert (tmp_path / name).read_text(encoding="ascii") == fh.read(), name

    def test_repeated_index_in_a_target_row_is_a_reconstruction_error(self, table):
        from diracmul.algebra import symbolic_b_matrix
        from diracmul.derive import ReconstructionError, solve_outer_permutations
        from diracmul.linalg import Mat

        entries = [list(row) for row in symbolic_b_matrix(table).entries]
        entries[3][7] = entries[3][8]
        with pytest.raises(ReconstructionError):
            solve_outer_permutations(derive_all().m16, Mat(16, 16, entries))
