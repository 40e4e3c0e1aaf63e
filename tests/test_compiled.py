"""The compiled pipeline programs: counts, exactness, proof coverage, tooling."""

import ast
import collections
import dataclasses
import gc
import linecache
import math
import operator
import os
import random
import re
import shutil
import sys
import traceback
import types
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from diracmul import fastmult, proof
from diracmul.algebra import (DIM, DiracNumber, RingMismatchError, _schoolbook_loop, build_table_from_generators,
                              mul_schoolbook, symbolic_b)
from diracmul.cli import main
from diracmul.exactnum import (CountingRing, CountingScalar, DYADIC, FLOAT, FORMS, INTS, DyadicRational, LinearForm,
                               exact_ints)
from diracmul.fastmult import (
    LEVELS,
    AssetError,
    PrecomputedOperator,
    Stage,
    assemble_pipeline,
    bind_block,
    decompose_terms,
    index_pools,
    mul_fast,
    precompute,
    verify_pipeline,
)
from diracmul.linalg import Mat, SignedPermutation
from diracmul.program import RING_OPS, CompiledProgram, Recorder, bind_ints, fold_signs, settle_signs
from diracmul.slpgen import emit_text, flatten, interpret, schoolbook_program
from helpers import brute_force_product, flipped_table, linear_form_matrix, linear_form_mismatches, replace_stage

TABLE = build_table_from_generators()
COUNT_KEYS = (("nontrivial_mults", "mul"), ("additions", "add_total"), ("negations", "neg"), ("shifts", "shift"))


def generic_ints(rng):
    return [rng.randint(3, 1 << 19) * 2 + 1 for _ in range(DIM)]


def as_histogram(counts: dict) -> dict:
    return {hist_key: counts[ring_key] for ring_key, hist_key in COUNT_KEYS}


def keys(x: DiracNumber):
    return [c.key() for c in x.coeffs]


# ---------------------------------------------------------------------------
# assembly


def brute_force_recipe(terms, family):
    """The exhaustive search assembly used before the pool index (reference)."""
    terms = tuple(terms)
    if len(terms) == 1:
        s, m = terms[0]
        return ("copy", s, m)
    if len(terms) == 2:
        return ("sum2", terms[0], terms[1])
    if len(terms) != 4:
        raise AssetError(f"core cell has {len(terms)} terms")
    families = {"quad": ["quad"], "duo": ["duo"], "mixed": ["duo", "quad"]}.get(family)
    if families is None:
        raise AssetError(f"unknown pool family {family!r}")
    searchable = [(fam, i, pair) for fam in families for i, pair in enumerate(fastmult.POOLS[fam])]
    target = {m: s for s, m in terms}
    for fam1, i1, p1 in searchable:
        for s1 in (1, -1):
            part1 = [(s1 * s, m) for s, m in p1]
            if not all(target.get(m) == s for s, m in part1):
                continue
            rest = {m: s for m, s in target.items() if m not in {m for _, m in part1}}
            for fam2, i2, p2 in searchable:
                for s2 in (1, -1):
                    part2 = [(s2 * s, m) for s, m in p2]
                    if len(rest) == 2 and all(rest.get(m) == s for s, m in part2):
                        return ("pair", (s1, fam1, i1), (s2, fam2, i2))
    raise AssetError(f"core cell {terms} does not split over the {family} pools")


@pytest.mark.parametrize("level", LEVELS)
def test_indexed_decomposition_matches_brute_force(level, verified_pipelines):
    pipe = verified_pipelines[level]
    cells = 0
    for blk in pipe.core.blocks:
        for terms in blk.formulas:
            assert decompose_terms(terms, blk.family) == brute_force_recipe(terms, blk.family)
            cells += 1
    assert cells == sum(blk.size ** 2 for blk in pipe.core.blocks)


def test_a_cell_that_splits_two_ways_takes_the_first_split_found(monkeypatch):
    # +0 +1 +2 +3 is (+0 +2) + (+1 +3) and (+0 +1) + (+2 +3); the first term pairs with the second first.
    # No two shipped pool pairs share a coefficient within a family, so a pool table of its own is indexed.
    pools = {"quad": [((1, 0), (1, 2)), ((1, 1), (1, 3)), ((1, 0), (1, 1)), ((1, 2), (1, 3))], "duo": []}
    monkeypatch.setattr(fastmult, "POOLS", pools)
    monkeypatch.setattr(fastmult, "_POOL_INDEX", index_pools())
    cell = [(1, 0), (1, 1), (1, 2), (1, 3)]
    assert decompose_terms(cell, "quad") == ("pair", (1, "quad", 2), (1, "quad", 3))


def test_changed_asset_dir_reassembles(tmp_path, monkeypatch):
    monkeypatch.delenv("DIRAC_ASSET_DIR", raising=False)
    shipped_dir = fastmult.default_asset_dir()
    dst, broken = tmp_path / "assets", tmp_path / "broken"
    shutil.copytree(shipped_dir, dst)
    shutil.copytree(shipped_dir, broken)
    (broken / "perm_in_30.txt").write_text("# no line of terms\n", encoding="ascii")
    shipped = assemble_pipeline(3)
    a, b = DiracNumber.basis(2, FLOAT), DiracNumber.basis(7, FLOAT)
    want = mul_fast(a, b)

    monkeypatch.setenv("DIRAC_ASSET_DIR", str(dst))
    assert fastmult.default_asset_dir() == str(dst)
    moved = assemble_pipeline(3)
    assert moved is not shipped
    assert moved.asset_dir == str(dst)
    assert precompute(b).pipeline is moved
    assert verify_pipeline(3).ok
    # the product path, the operator and the proof read the variable on every call
    monkeypatch.setenv("DIRAC_ASSET_DIR", str(broken))
    with pytest.raises(AssetError, match="perm_in_30"):
        mul_fast(a, b)
    with pytest.raises(AssetError, match="perm_in_30"):
        precompute(b).apply(a)
    with pytest.raises(AssetError, match="perm_in_30"):
        verify_pipeline(3)
    # a directory given to mul_fast takes the variable's place
    assert mul_fast(a, b, 3, str(dst)) == want
    monkeypatch.delenv("DIRAC_ASSET_DIR")
    assert fastmult.default_asset_dir() == shipped_dir
    assert assemble_pipeline(3) is shipped
    assert mul_fast(a, b) == want
    assert precompute(b).apply(a) == want
    assert precompute(b).pipeline is shipped
    # an empty value means the shipped directory
    monkeypatch.setenv("DIRAC_ASSET_DIR", "")
    assert fastmult.default_asset_dir() == shipped_dir
    assert assemble_pipeline(3) is shipped
    assert mul_fast(a, b) == want
    # an environment mapping without CPython's backing dict is read through get
    monkeypatch.setattr(os, "environ", {"DIRAC_ASSET_DIR": str(broken)})
    assert fastmult.default_asset_dir() == str(broken)
    with pytest.raises(AssetError, match="perm_in_30"):
        mul_fast(a, b)


def test_a_pipeline_is_assembled_once_per_directory_string(tmp_path, monkeypatch):
    dst = tmp_path / "assets"
    shutil.copytree(fastmult.default_asset_dir(), dst)
    monkeypatch.setenv("DIRAC_ASSET_DIR", str(dst))
    plain = assemble_pipeline(3)
    assert assemble_pipeline(3) is plain
    # another spelling of the same directory is another key: an equal pipeline, assembled again
    monkeypatch.setenv("DIRAC_ASSET_DIR", str(dst) + os.sep)
    slashed = assemble_pipeline(3)
    assert slashed is not plain and slashed.asset_dir == str(dst) + os.sep
    assert slashed.program.source == plain.program.source
    assert assemble_pipeline(3) is slashed


# ---------------------------------------------------------------------------
# counts of the compiled functions


@pytest.mark.parametrize("level", LEVELS)
def test_compiled_counts_equal_program_histogram(level, verified_pipelines):
    pipe = verified_pipelines[level]
    rng = random.Random(300 + level)
    ring = CountingRing()
    prog = pipe.program
    entries = prog.bind(ring.half, [ring.wrap(v) for v in generic_ints(rng)])
    prog.apply([ring.wrap(v) for v in generic_ints(rng)], entries)
    want = flatten(pipe).histogram()
    assert as_histogram(ring.counter.as_dict()) == {k: want[k] for _, k in COUNT_KEYS}


def test_compiled_precompute_and_apply_counts_equal_program_histograms(verified_pipelines):
    pipe = verified_pipelines[3]
    rng = random.Random(310)
    ring = CountingRing()
    op = precompute(DiracNumber.from_ints(generic_ints(rng), ring), 3)
    bind_counts = as_histogram(ring.counter.as_dict())
    before = ring.counter.snapshot()
    op.apply(DiracNumber.from_ints(generic_ints(rng), ring))
    apply_counts = dict(zip((k for _, k in COUNT_KEYS),
                            (q - p for p, q in zip(before, ring.counter.snapshot()))))
    full = flatten(pipe).histogram()
    apply_only = flatten(pipe, include_precompute=False, operator=op).histogram()
    assert apply_counts == {k: apply_only[k] for _, k in COUNT_KEYS}
    assert bind_counts == {k: full[k] - apply_only[k] for _, k in COUNT_KEYS}
    assert (bind_counts["mul"], bind_counts["add_total"]) == (0, 50)
    assert (apply_counts["mul"], apply_counts["add_total"]) == (88, 146)


# ---------------------------------------------------------------------------
# core entries shared across blocks


def per_block_entries(pipe, b) -> list:
    """The core entries by each block's own recipes, nothing shared between blocks."""
    return [v for blk in pipe.core.blocks for v in bind_block(blk, b, INTS, {})]


def assert_bind_follows_the_block_recipes(pipe, rng):
    """Every core cell its block's own recipe builds is plus or minus one of
    bind's values, and every value of bind is plus or minus such a cell."""
    prog = pipe.program
    for _ in range(20):
        # scaled so that every halving is exact over the integers
        b = [rng.randint(-(1 << 40), 1 << 40) << prog.halvings for _ in range(DIM)]
        values = prog.bind(INTS.half, b)
        assert {abs(v) for v in per_block_entries(pipe, b)} == {abs(v) for v in values}


@pytest.mark.parametrize("level", LEVELS)
def test_shared_bind_equals_the_per_block_recipes(level, verified_pipelines):
    assert_bind_follows_the_block_recipes(verified_pipelines[level], random.Random(315 + level))


def test_shared_bind_keeps_halved_and_plain_entries_apart(verified_pipelines):
    # level 2 has both kinds; a plain block's first cell becomes a copy of a
    # halved block's first cell, so the two entries have the same terms
    pipe = verified_pipelines[2]
    blocks = list(pipe.core.blocks)
    halved = next(blk for blk in blocks if blk.halved)
    k = next(i for i, blk in enumerate(blocks) if not blk.halved)
    blocks[k] = dataclasses.replace(blocks[k], formulas=(halved.formulas[0],) + blocks[k].formulas[1:],
                                    recipes=(halved.recipes[0],) + blocks[k].recipes[1:])
    twin = replace_stage(pipe, pipe.core_index, dataclasses.replace(pipe.core, blocks=blocks))
    b = [1 << twin.program.halvings] * DIM
    twice = 2 * bind_block(halved, b, INTS, {})[0]
    assert bind_block(blocks[k], b, INTS, {})[0] == twice != 0
    assert_bind_follows_the_block_recipes(twin, random.Random(319))


@pytest.mark.parametrize("level, distinct", ((1, 28), (2, 32), (3, 32)))
def test_bind_returns_each_distinct_value_once_and_never_negates(level, distinct, verified_pipelines):
    prog = verified_pipelines[level].program
    assert len(prog.entries) == len(set(prog.entries)) == distinct
    assert not any(op == "neg" for op, _ in prog.bind_tape)


@pytest.mark.parametrize("level", LEVELS)
def test_full_product_negates_only_eight_outputs(level, verified_pipelines):
    prog = verified_pipelines[level].program
    negations = [i for i, (op, _) in enumerate(prog.apply_tape) if op == "neg"]
    assert len(negations) == 8
    assert set(negations) <= set(prog.outputs)
    assert flatten(verified_pipelines[level]).histogram()["neg"] == 8


def test_fold_carries_signs_into_the_operations_that_use_them():
    x, y, z = ("x", (0,)), ("y", (0,)), ("z", (0,))
    tape = [x, y, ("neg", (0,)), ("neg", (1,)),
            ("add", (2, 1)),   # 4: (-x) + y
            ("sub", (2, 1)),   # 5: (-x) - y
            ("sub", (0, 3)),   # 6: x - (-y), the value 5 negated
            ("mul", (2, 1)),   # 7: (-x) * y
            ("halve", (2,)),   # 8: halve(-x)
            ("add", (1, 0)),   # 9: y + x, 6 commuted
            ("mul", (1, 2)),   # 10: y * (-x), 7 commuted
            ("sub", (0, 1)),   # 11: x - y, 4 reversed
            ("halve", (9,)),   # 12: halve(y + x)
            ("halve", (6,)),   # 13: halve(x - (-y)), the same halving as 12
            z,                 # 14: an input of another name than x
            ("add", (0, 14))]  # 15: x + z
    folded, signed = fold_signs(tape)
    assert folded == [x, y, ("sub", (1, 0)), ("add", (0, 1)), ("mul", (0, 1)), ("halve", (0,)), ("halve", (3,)),
                      z, ("add", (0, 7))]
    assert signed == [(1, 0), (1, 1), (-1, 0), (-1, 1), (1, 2), (-1, 3), (1, 3), (-1, 4), (-1, 5),
                      (1, 3), (-1, 4), (-1, 2), (1, 6), (1, 6), (1, 7), (1, 8)]
    # a negative output is negated once, at the end; a positive one is read as it is
    outputs = settle_signs(folded, [signed[k] for k in (4, 5, 8)])
    assert folded[9:] == [("neg", (3,)), ("neg", (5,))] and outputs == [2, 9, 10]
    for xv, yv, zv in ((6, 10, 3), (-4, 5, -7), (8, 8, 8)):  # over DYADIC, where halving y + x is exact
        inputs = {"x": [DYADIC.wrap(xv)], "y": [DYADIC.wrap(yv)], "z": [DYADIC.wrap(zv)]}
        recorded = tape_values(tape, DYADIC, inputs)
        values = tape_values(folded, DYADIC, inputs)
        assert [values[k] if s > 0 else -values[k] for s, k in signed] == recorded
        assert [values[k] for k in outputs] == [recorded[k] for k in (4, 5, 8)]


@pytest.mark.parametrize("level", LEVELS)
def test_folded_tapes_compute_each_value_once(level, verified_pipelines):
    prog = verified_pipelines[level].program
    for tape in (prog.bind_tape, prog.apply_tape):
        steps = [(op, tuple(sorted(args))) for op, args in tape]
        assert len(set(steps)) == len(steps)


@pytest.mark.parametrize("level", LEVELS)
def test_bind_halves_each_distinct_entry_once(level, verified_pipelines):
    pipe = verified_pipelines[level]
    distinct = {min(tuple(sorted(terms)), tuple(sorted((-s, m) for s, m in terms)))
                for blk in pipe.core.blocks if blk.halved for terms in blk.formulas}
    assert sum(op == "halve" for op, _ in pipe.program.bind_tape) == len(distinct)


# ---------------------------------------------------------------------------
# exactness

# numerators up to about 4096 bits with random high and low words (a full-width
# draw for 32 coefficients exceeds the entropy hypothesis allows per example)
_numerator = st.builds(lambda hi, shift, lo: (hi << shift) + lo, st.integers(-(1 << 256), 1 << 256),
                       st.integers(0, 3840), st.integers(-(1 << 64), 1 << 64))
_wide = st.builds(DyadicRational, _numerator, st.integers(0, 64))
_operand = st.lists(_wide, min_size=DIM, max_size=DIM).map(lambda cs: DiracNumber(cs, DYADIC))

# shrinking examples this wide takes minutes on a faulty pipeline; the
# first failing example is reported as drawn
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target)


@pytest.mark.parametrize("level", LEVELS)
@given(a=_operand, b=_operand)
@settings(max_examples=25, deadline=None, phases=NO_SHRINK)
def test_fast_is_bit_exact_on_wide_dyadics(level, a, b):
    assert keys(mul_fast(a, b, level)) == keys(mul_schoolbook(a, b, TABLE))


@pytest.mark.parametrize("level", LEVELS)
@given(a=_operand, b=_operand)
@settings(max_examples=25, deadline=None, phases=NO_SHRINK)
def test_precompute_apply_is_bit_exact_on_wide_dyadics(level, a, b):
    assert keys(precompute(b, level).apply(a)) == keys(mul_schoolbook(a, b, TABLE))


def test_float_products_are_exact_on_small_integers():
    rng = random.Random(320)
    for _ in range(50):
        av = [rng.randint(-(1 << 20), 1 << 20) for _ in range(DIM)]
        bv = [rng.randint(-(1 << 20), 1 << 20) for _ in range(DIM)]
        want = [float(c.num) for c in mul_schoolbook(DiracNumber.from_ints(av, DYADIC),
                                                     DiracNumber.from_ints(bv, DYADIC), TABLE).coeffs]
        a, b = DiracNumber.from_ints(av, FLOAT), DiracNumber.from_ints(bv, FLOAT)
        assert mul_fast(a, b).coeffs == want
        assert precompute(b).apply(a).coeffs == want
        assert mul_schoolbook(a, b, TABLE).coeffs == want


def test_float_outputs_equal_schoolbook_where_many_are_exactly_zero():
    # the sign of an exactly-zero float output is not specified: == holds, -0.0 == 0.0
    rng = random.Random(325)
    zeros = 0
    for level in LEVELS:
        for _ in range(200):
            a, b = (DiracNumber([float(rng.choice((-2, -1, 1, 2))) if rng.random() < 0.25 else 0.0
                                 for _ in range(DIM)], FLOAT) for _ in range(2))
            want = mul_schoolbook(a, b, TABLE).coeffs
            assert mul_fast(a, b, level).coeffs == want
            assert precompute(b, level).apply(a).coeffs == want
            zeros += want.count(0.0)
    assert zeros > len(LEVELS) * 200 * DIM // 4


# the non-finite contract: one inf or nan anywhere in either operand makes all
# sixteen outputs non-finite on every path, but which are inf and which nan
# may differ between them (every output reads every input, and non-finite
# values are absorbing under add/sub/neg/mul/halve)
_finite = st.lists(st.floats(-1e6, 1e6), min_size=DIM, max_size=DIM)
_placements = st.lists(st.tuples(st.sampled_from("ab"), st.integers(0, DIM - 1),
                                 st.sampled_from([math.inf, -math.inf, math.nan])), min_size=1, max_size=3)


@pytest.mark.parametrize("level", LEVELS)
@given(av=_finite, bv=_finite, placements=_placements)
@settings(max_examples=40, deadline=None)
def test_non_finite_input_makes_every_output_non_finite(level, av, bv, placements):
    coeffs = {"a": list(av), "b": list(bv)}
    for operand, k, value in placements:
        coeffs[operand][k] = value
    a, b = DiracNumber(coeffs["a"], FLOAT), DiracNumber(coeffs["b"], FLOAT)
    for product in (mul_schoolbook(a, b, TABLE), mul_fast(a, b, level), precompute(b, level).apply(a)):
        assert not any(math.isfinite(c) for c in product.coeffs)


def test_non_finite_outputs_may_differ_in_kind():
    a = DiracNumber([math.inf if k == 3 else 0.0 for k in range(DIM)], FLOAT)
    b = DiracNumber.basis(0, FLOAT)
    school = mul_schoolbook(a, b, TABLE).coeffs
    assert school[3] == math.inf
    for fast in (mul_fast(a, b).coeffs, precompute(b).apply(a).coeffs):
        assert math.isnan(fast[3])
        assert all(math.isnan(fast[k]) and math.isnan(school[k]) for k in range(DIM) if k != 3)


# ---------------------------------------------------------------------------
# dyadic products on integers at one common exponent

# odd, even, negative and zero numerators; exponents anywhere in 0..max_exp,
# so that one operand mixes small and large ones
_mixed_numerator = st.one_of(st.just(0), st.integers(-(1 << 80), 1 << 80).map(lambda n: 2 * n + 1),
                             st.integers(-(1 << 300), 1 << 300))


def _mixed_operand(max_exp):
    coeff = st.builds(DyadicRational, _mixed_numerator, st.integers(0, max_exp))
    return st.lists(coeff, min_size=DIM, max_size=DIM).map(lambda cs: DiracNumber(cs, DYADIC))


@pytest.mark.parametrize("max_exp", (64, 2000))
@pytest.mark.parametrize("level", LEVELS)
@given(data=st.data())
@settings(max_examples=20, deadline=None, phases=NO_SHRINK)
def test_int_lowering_is_bit_exact(level, max_exp, data):
    a = data.draw(_mixed_operand(max_exp))
    b = data.draw(_mixed_operand(max_exp))
    want = keys(mul_schoolbook(a, b, TABLE))
    op = precompute(b, level)
    assert all(isinstance(e, DyadicRational) for e in op.entries)
    assert len({e.exp for e in op.entries}) == 1
    assert keys(mul_fast(a, b, level)) == want
    assert keys(op.apply(a)) == want


def test_every_dyadic_product_equals_the_fraction_product():
    rng = random.Random(35)

    def operand():
        coeffs = [DyadicRational(rng.choice((-1, 1)) * rng.getrandbits(rng.randint(1, 4096)), rng.randint(0, 64))
                  for _ in range(DIM)]
        assert len({c.exp for c in coeffs}) > 1
        return DiracNumber(coeffs, DYADIC)

    def fractions(x):
        return [Fraction(c.num, 1 << c.exp) for c in x.coeffs]

    # the reference shares no lowering with the package: it reads num and exp alone
    for _ in range(3):
        a, b = operand(), operand()
        want = brute_force_product(fractions(a), fractions(b), TABLE)
        assert fractions(mul_schoolbook(a, b, TABLE)) == want
        for level in LEVELS:
            assert fractions(mul_fast(a, b, level)) == want
            assert fractions(precompute(b, level).apply(a)) == want


def shifted_raw(a_coeffs, b_coeffs, level, ring):
    """Raw outputs of the integer path with each operand brought to its
    largest exponent as ``num << (exp - e)``, shifting every coefficient."""
    def lowered(values):
        if ring is INTS:
            return values, 0
        exp = max(v.exp for v in values)
        return [v.num << (exp - v.exp) for v in values], exp

    prog = assemble_pipeline(level).program
    (a_ints, ea), (b_ints, eb) = lowered(a_coeffs), lowered(b_coeffs)
    out, exp = prog.apply(a_ints, bind_ints(prog, b_ints)), ea + eb + prog.halvings
    return [n >> exp for n in out] if ring is INTS else [(n, exp) for n in out]


@pytest.mark.parametrize("exponents", ("zero", "equal", "mixed"))
@pytest.mark.parametrize("level", LEVELS)
@given(data=st.data())
@settings(max_examples=10, deadline=None, phases=NO_SHRINK)
def test_lowering_keeps_the_raw_outputs_of_the_shifting_formula(level, exponents, data):
    def operand():
        if exponents == "mixed":
            exps = st.integers(0, 64)
        else:
            exps = st.just(0 if exponents == "zero" else data.draw(st.integers(1, 64)))
        coeffs = data.draw(st.lists(st.builds(DyadicRational, _numerator, exps), min_size=DIM, max_size=DIM))
        return DiracNumber(coeffs, DYADIC)

    a, b = operand(), operand()
    want = shifted_raw(a.coeffs, b.coeffs, level, DYADIC)
    assert raw(mul_fast(a, b, level).coeffs) == want
    assert raw(precompute(b, level).apply(a).coeffs) == want


@pytest.mark.parametrize("level", LEVELS)
@given(data=st.data())
@settings(max_examples=10, deadline=None, phases=NO_SHRINK)
def test_int_operands_pass_through_the_lowering(level, data):
    av, bv = (data.draw(st.lists(_numerator, min_size=DIM, max_size=DIM)) for _ in range(2))
    nums, exp = exact_ints(av, INTS)
    assert nums is av and exp == 0
    a, b = DiracNumber(av, INTS), DiracNumber(bv, INTS)
    want = shifted_raw(av, bv, level, INTS)
    assert mul_fast(a, b, level).coeffs == want
    assert precompute(b, level).apply(a).coeffs == want


def test_precomputed_operator_keeps_the_integers_of_its_bind(monkeypatch):
    rng = random.Random(375)
    a, b = (DiracNumber([DyadicRational(rng.randint(-999, 999), rng.randint(0, 30)) for _ in range(DIM)], DYADIC)
            for _ in range(2))
    assert len({c.exp for c in a.coeffs}) > 1 and len({c.exp for c in b.coeffs}) > 1
    ops = {level: precompute(b, level) for level in LEVELS}
    for op in ops.values():
        nums, exp = op.lowered
        assert [(e.num, e.exp) for e in op.entries] == [(n, exp) for n in nums]
    lowered = []
    monkeypatch.setattr(fastmult, "exact_ints",
                        lambda values, ring: lowered.append(len(values)) or exact_ints(values, ring))
    got = {level: op.apply(a) for level, op in ops.items()}
    assert lowered == [DIM] * len(LEVELS)  # each apply lowers a, never the entries
    for level in LEVELS:
        assert [(c.num, c.exp) for c in got[level].coeffs] == [(c.num, c.exp) for c in mul_fast(a, b, level).coeffs]


@pytest.mark.parametrize("level, lifted", ((1, 12), (2, 8), (3, 0)))
def test_integer_bind_keeps_its_halvings_in_the_exponent(level, lifted, verified_pipelines):
    prog = verified_pipelines[level].program
    # the plain blocks' values are lifted to the halved ones' exponent; level 3 has none
    assert len(prog.lifts) == lifted and all(shift == prog.halvings for _, shift in prog.lifts)
    rng = random.Random(378 + level)
    for _ in range(20):
        b = [rng.randint(-(1 << 40), 1 << 40) for _ in range(DIM)]
        # the same values as halving b scaled by 2**halvings with x >> 1, which is exact on it
        assert list(bind_ints(prog, b)) == list(prog.bind(INTS.half, [x << prog.halvings for x in b]))


def test_integer_bind_lifts_entries_of_two_nonzero_depths_to_the_deepest():
    # no pipeline has entries at two nonzero depths, so this program is recorded by hand
    rec = fastmult.Recorder()
    b, a = rec.inputs("b", 2), rec.inputs("a", 2)
    once = rec.halve(rec.add(b[0], b[1]))
    twice = rec.halve(rec.halve(rec.sub(b[0], b[1])))
    prog = CompiledProgram(rec.tape, [rec.mul(a[0], once), rec.mul(a[1], twice)], "two depths")
    assert (prog.halvings, prog.lifts) == (2, ((0, 1),))
    rng = random.Random(479)
    for _ in range(20):
        bv = [rng.randint(-(1 << 40), 1 << 40) for _ in range(2)]
        # each integer entry is 2**halvings times its dyadic value
        want = prog.bind(DYADIC.half, [DyadicRational(v) for v in bv])
        assert [DyadicRational(e, prog.halvings) for e in bind_ints(prog, bv)] == list(want)


# ---------------------------------------------------------------------------
# products over the integers


def test_int_products_equal_schoolbook_where_a_shift_would_floor():
    # small coefficients make odd sums in bind, which x >> 1 would round down
    rng = random.Random(1)
    a, b = (DiracNumber([rng.randint(-9, 9) for _ in range(DIM)], INTS) for _ in range(2))
    want = mul_schoolbook(a, b, TABLE).coeffs
    assert want[0] == -201
    for level in LEVELS:
        assert mul_fast(a, b, level).coeffs == want
        assert precompute(b, level).apply(a).coeffs == want


_int_operand = st.lists(st.integers(-9, 9) | st.integers(-(1 << 200), 1 << 200), min_size=DIM,
                        max_size=DIM).map(lambda cs: DiracNumber(cs, INTS))


@pytest.mark.parametrize("level", LEVELS)
@given(a=_int_operand, b=_int_operand)
@settings(max_examples=40, deadline=None, phases=NO_SHRINK)
def test_int_products_are_exact(level, a, b):
    want = mul_schoolbook(a, b, TABLE).coeffs
    got = mul_fast(a, b, level).coeffs
    assert got == want and all(type(c) is int for c in got)
    assert precompute(b, level).apply(a).coeffs == want


def tape_values(tape, ring, inputs):
    """Every value of a recorded tape, run over ``ring``; ``inputs`` maps input names to values."""
    values = []
    for op, args in tape:
        if op in RING_OPS:
            values.append(getattr(ring, op)(*(values[x] for x in args)))
        else:
            values.append(inputs[op][args[0]])
    return values


def test_halving_depth_is_the_largest_denominator_of_bind(verified_pipelines, planted_fault):
    pipelines = list(verified_pipelines.values()) + [planted_fault[0]]
    for pipe in pipelines:
        prog = pipe.program
        forms = tape_values(prog.bind_tape, FORMS, {"b": symbolic_b().coeffs})
        largest = max(c.normalized().exp for form in forms for c in form.coeffs)
        assert prog.halvings == largest == 1


def test_compilation_rejects_tapes_the_lowering_cannot_run_exactly(verified_pipelines, monkeypatch):
    prog = verified_pipelines[3].program
    with monkeypatch.context() as patch:  # the recording compile_pipeline hands to CompiledProgram
        patch.setattr(fastmult, "CompiledProgram", lambda *recording: recording)
        tape, results, name = fastmult.compile_pipeline(verified_pipelines[3])
    first_b, first_a, appended = tape.index(("b", (0,))), tape.index(("a", (0,))), len(tape)
    with pytest.raises(ValueError, match="bind tape multiplies"):
        CompiledProgram(tape + [("mul", (first_b, first_b))], results, name)
    with pytest.raises(ValueError, match="apply tape halves"):
        CompiledProgram(tape + [("halve", (results[0],))], results[1:] + [appended], name)
    with pytest.raises(ValueError, match="different degrees"):
        CompiledProgram(tape + [("add", (results[0], first_a))], results[1:] + [appended], name)
    with pytest.raises(ValueError, match="not bilinear"):
        CompiledProgram(tape, results[1:] + [first_a], name)
    first_halve = next(i for i, (op, _) in enumerate(tape) if op == "halve")
    with pytest.raises(ValueError, match="different halving depths"):  # a halved core cell plus b0
        CompiledProgram(tape + [("add", (first_halve, first_b))], results, name)
    rebuilt = CompiledProgram(tape, results, name)
    assert (rebuilt.source, rebuilt.halvings) == (prog.source, prog.halvings)


def test_compilation_rejects_inputs_bind_and_apply_do_not_take(verified_pipelines):
    b = DiracNumber.from_ints(generic_ints(random.Random(316)), DYADIC)
    apply_only = flatten(verified_pipelines[3], include_precompute=False, operator=precompute(b, 3))
    with pytest.raises(ValueError, match=r"^input c0 is neither"):
        CompiledProgram(apply_only.instrs, apply_only.outputs, "apply only")
    school = schoolbook_program(TABLE)
    tape = [("e", (0,)) if step == ("b", (0,)) else step for step in school.instrs]
    with pytest.raises(ValueError, match=r"^input e0 is neither"):
        CompiledProgram(tape, school.outputs, "schoolbook over e0")


# ---------------------------------------------------------------------------
# the proof covers the code that runs


def calls_per_code_object(fn, *args) -> collections.Counter:
    calls = collections.Counter()

    def profile(frame, event, _arg):
        if event == "call":
            calls[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def code_objects_called(fn, *args) -> set:
    return set(calls_per_code_object(fn, *args))


def test_proof_runs_the_functions_products_run(verified_pipelines):
    pipe = verified_pipelines[3]
    assert assemble_pipeline(3) is pipe
    prog = pipe.program
    compiled = {prog.bind.__code__, prog.apply.__code__}
    rng = random.Random(330)
    a, b = (DiracNumber.from_ints(generic_ints(rng), DYADIC) for _ in range(2))
    op = precompute(b)
    assert compiled <= code_objects_called(verify_pipeline, pipe)
    assert compiled <= code_objects_called(mul_fast, a, b)
    assert prog.bind.__code__ in code_objects_called(precompute, b)
    assert prog.apply.__code__ in code_objects_called(op.apply, a)
    assert pipe.program is prog


def test_planted_fault_compiles_its_own_program(verified_pipelines, planted_fault):
    pipe = verified_pipelines[3]
    bad, column = planted_fault
    assert bad.program is not pipe.program
    assert bad.program.source != pipe.program.source
    assert bad.program.filename != pipe.program.filename

    report = verify_pipeline(bad)
    assert not report.ok
    assert {(r, c) for r, c, _, _ in report.mismatches} == {(r, column) for r in range(DIM)}

    rng = random.Random(340)
    a, b = (DiracNumber.from_ints(generic_ints(rng), DYADIC) for _ in range(2))
    prog = bad.program
    faulty = DiracNumber(prog.apply(a.coeffs, prog.bind(DYADIC.half, b.coeffs)), DYADIC)
    assert faulty != mul_schoolbook(a, b, TABLE)
    assert mul_fast(a, b) == mul_schoolbook(a, b, TABLE)
    assert verify_pipeline(pipe).ok


def test_mul_fast_on_unverified_pipeline_never_runs_the_proof(tmp_path, monkeypatch):
    dst = tmp_path / "assets"
    shutil.copytree(fastmult.default_asset_dir(), dst)

    def no_proof(*_args):
        raise AssertionError("the product path ran the proof")

    for module, name in ((fastmult, "verify_pipeline"), (fastmult, "prove"), (proof, "pipeline_matrix"), (proof, "prove"),
                         (proof, "_packed_products"), (proof, "_packed_table")):
        monkeypatch.setattr(module, name, no_proof)
    monkeypatch.setenv("DIRAC_ASSET_DIR", str(dst))
    rng = random.Random(350)
    a, b = (DiracNumber.from_ints(generic_ints(rng), DYADIC) for _ in range(2))
    assert mul_fast(a, b) == mul_schoolbook(a, b, TABLE)
    assert precompute(b).apply(a) == mul_schoolbook(a, b, TABLE)


def unhalved_f(pipe):
    """Level 3 with the ``halved`` flag of its core block ``f`` cleared."""
    core = pipe.core
    blocks = [dataclasses.replace(blk, halved=False) if blk.name == "f" else blk for blk in core.blocks]
    return replace_stage(pipe, pipe.core_index, Stage(core.name, blocks=blocks))


def test_basis_proof_matrix_equals_the_linear_form_run(verified_pipelines, planted_fault):
    pipelines = list(verified_pipelines.values()) + [planted_fault[0], unhalved_f(verified_pipelines[3])]
    for pipe in pipelines:
        assert proof.pipeline_matrix(pipe) == linear_form_matrix(pipe)


def test_faulty_pipelines_report_the_linear_form_mismatches(verified_pipelines, planted_fault):
    for pipe in (planted_fault[0], unhalved_f(verified_pipelines[3])):
        mismatches = verify_pipeline(pipe).mismatches
        assert mismatches and mismatches == linear_form_mismatches(pipe)


def compiled_schoolbook(table) -> CompiledProgram:
    """The schoolbook product over ``table``, recorded once, as a program with no core."""
    recorded = schoolbook_program(table)
    return CompiledProgram(recorded.instrs, recorded.outputs, "schoolbook")


def test_prove_checks_a_program_that_is_no_pipeline():
    prog = compiled_schoolbook(TABLE)
    assert (prog.halvings, prog.filename) == (0, "<diracmul schoolbook>")
    assert proof.prove(prog) == []
    mismatches = proof.prove(compiled_schoolbook(flipped_table(TABLE)))
    assert [(r, c) for r, c, _, _ in mismatches] == [(0, 3)]  # i3 * i3 = -1 with its sign flipped
    assert mismatches[0][2:] == (LinearForm.variable(3), -LinearForm.variable(3))


def recorded_schoolbook() -> tuple:
    """``(rec, a, b, outputs)``: the schoolbook loop over ``TABLE`` on a fresh
    :class:`Recorder`, for a test to add terms to before compiling."""
    rec = Recorder()
    a, b = rec.inputs("a", DIM), rec.inputs("b", DIM)
    return rec, a, b, _schoolbook_loop(a, b, TABLE.entries, rec)


def test_the_lane_width_holds_for_a_program_built_to_fool_it():
    # 2**w * a0*b0 - a1*b0 packs to 0 at the width w of the schoolbook it is added to, where a0 = 1
    # and a1 = 2**w: only a width found from the faulty program itself can see it
    w = compiled_schoolbook(TABLE).lane_width
    assert w == 6  # 2**5 above 16, the bound on an output that sums sixteen products of units
    rec, a, b, out = recorded_schoolbook()
    term = rec.mul(a[0], b[0])
    for _ in range(w):
        term = rec.add(term, term)
    out[0] = rec.add(out[0], rec.sub(term, rec.mul(a[1], b[0])))
    faulty = CompiledProgram(rec.tape, out, "schoolbook with a packed-away fault")
    assert faulty.lane_width == 8  # 2**7 above 16 + 2**6 + 1
    mismatches = proof.prove(faulty)
    assert [(r, c, repr(got), repr(want)) for r, c, got, want in mismatches] == [
        (0, 0, "65*b0", "b0"), (0, 1, "-b0+b1", "b1")]


def times(rec, x, c: int):
    """``c * x`` on the recorder, ``c > 0``, by doubling and adding."""
    acc = None
    while c:
        if c & 1:
            acc = x if acc is None else rec.add(acc, x)
        c >>= 1
        if c:
            x = rec.add(x, x)
    return acc


# added terms: output k gains (+-ca * a_n) * (cb * b_m / 2**halvings)
_added_terms = st.lists(st.tuples(st.integers(0, DIM - 1), st.integers(0, DIM - 1), st.integers(0, DIM - 1),
                                  st.integers(-(1 << 20), 1 << 20).filter(bool), st.integers(1, 1 << 20),
                                  st.integers(0, 2)),
                        min_size=1, max_size=4)


@given(terms=_added_terms)
@settings(max_examples=25, deadline=None, phases=NO_SHRINK)
def test_the_packed_proof_reports_what_the_linear_form_run_finds(terms):
    # wrong programs whose values reach 2**40, with halved operands, so lanes and lifts of every size
    rec, a, b, out = recorded_schoolbook()
    for k, n, m, ca, cb, halvings in terms:
        bm = times(rec, b[m], cb)
        for _ in range(halvings):
            bm = rec.halve(bm)
        term = rec.mul(times(rec, a[n], abs(ca)), bm)
        out[k] = rec.add(out[k], term) if ca > 0 else rec.sub(out[k], term)
    prog = CompiledProgram(rec.tape, out, "schoolbook with added terms")
    assert proof.prove(prog) == linear_form_mismatches(types.SimpleNamespace(program=prog))


def test_the_proof_runs_bind_once_and_apply_once(verified_pipelines, planted_fault):
    pipelines = list(verified_pipelines.values()) + [planted_fault[0]]
    runs = [(proof.prove, pipe.program, pipe.program) for pipe in pipelines]
    runs += [(proof.pipeline_matrix, pipe, pipe.program) for pipe in pipelines]
    school = compiled_schoolbook(flipped_table(TABLE))
    runs.append((proof.prove, school, school))
    for fn, arg, prog in runs:
        calls = calls_per_code_object(fn, arg)
        assert (calls[prog.bind.__code__], calls[prog.apply.__code__]) == (1, 1), fn.__name__


def test_pipeline_is_frozen_and_compiled_at_assembly(tmp_path, monkeypatch):
    dst = tmp_path / "assets"
    shutil.copytree(fastmult.default_asset_dir(), dst)
    monkeypatch.setenv("DIRAC_ASSET_DIR", str(dst))
    pipe = assemble_pipeline(3)
    assert isinstance(pipe.program, fastmult.CompiledProgram)
    for target, name in ((pipe, "program"), (pipe, "stages"), (pipe, "level"), (pipe.core, "blocks")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(target, name, None)
    assert assemble_pipeline(3).program is pipe.program

    def no_compile(*_args):
        raise AssertionError("a product compiled the pipeline")

    monkeypatch.setattr(fastmult, "compile_pipeline", no_compile)
    rng = random.Random(360)
    a, b = (DiracNumber.from_ints(generic_ints(rng), DYADIC) for _ in range(2))
    assert mul_fast(a, b) == mul_schoolbook(a, b, TABLE)
    assert precompute(b).apply(a) == mul_schoolbook(a, b, TABLE)
    with pytest.raises(dataclasses.FrozenInstanceError):
        assemble_pipeline(3).verified = True


def test_an_assembled_core_cannot_be_changed():
    # the cached pipeline's compiled program was built from these blocks
    blocks = assemble_pipeline(3).core.blocks
    with pytest.raises(dataclasses.FrozenInstanceError):
        blocks[0].halved = False
    with pytest.raises(AttributeError):
        blocks.append(blocks[0])
    for blk in blocks:
        with pytest.raises(AttributeError):
            blk.formulas.append(blk.formulas[0])
        with pytest.raises(AttributeError):
            blk.recipes.append(blk.recipes[0])
    assert all(blk.halved for blk in assemble_pipeline(3).core.blocks)


def test_an_assembled_pipeline_cannot_be_changed_in_place():
    # what the cached pipeline shows (its matrices, the pools, tapes) is what its program was built from
    pipe = assemble_pipeline(3)
    text = emit_text(flatten(pipe))
    with pytest.raises(TypeError):
        pipe.stages[0].mat.entries[0][0] = 7
    with pytest.raises(TypeError):
        pipe.stages[0].mat.entries[0] = pipe.stages[0].mat.entries[1]
    with pytest.raises(AttributeError):
        fastmult.POOLS["quad"].append(None)
    with pytest.raises(TypeError):
        fastmult.POOLS["quad"] = ()
    prog = pipe.program
    for held in (prog.apply_tape, prog.bind_tape, prog.entries, prog.outputs):
        with pytest.raises(TypeError):
            held[0] = held[1]
    with pytest.raises(TypeError):
        PrecomputedOperator(pipe, DiracNumber.from_ints(range(DIM), DYADIC)).lowered[0][0] = 0
    table = build_table_from_generators()
    with pytest.raises(TypeError):
        table.entries[1] = table.entries[0]
    with pytest.raises(TypeError):
        table.gathers[1] = table.gathers[0]
    # nor can an attribute be rebound
    mat = pipe.stages[0].mat
    with pytest.raises(AttributeError):
        mat.entries = tuple(reversed(mat.entries))
    with pytest.raises(AttributeError):
        prog.outputs = prog.outputs[::-1]
    with pytest.raises(AttributeError):
        prog.apply_tape = prog.apply_tape[:-1]
    with pytest.raises(AttributeError):
        table.entries = table.entries[::-1]
    program = flatten(pipe)
    with pytest.raises(AttributeError):
        program.instrs = program.instrs[:-1]
    for value in (mat, SignedPermutation.identity(4), table, prog, program):
        for name in (f.name for f in dataclasses.fields(value)):
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
    assert assemble_pipeline(3) is pipe and emit_text(flatten(assemble_pipeline(3))) == text
    assert verify_pipeline(pipe).ok and build_table_from_generators() == table


def test_assigning_a_name_that_is_not_a_field_raises_attribute_error():
    # a new name is refused as a rebound field is, so a caller catching AttributeError sees either
    pipe = assemble_pipeline(3)
    core = next(stage for stage in pipe.stages if stage.blocks is not None)
    values = (pipe.stages[0].mat, SignedPermutation.identity(4), build_table_from_generators(), core.blocks[0],
              core, pipe, pipe.program, flatten(pipe))
    assert [type(v).__name__ for v in values] == ["Mat", "SignedPermutation", "MultTable", "CoreBlock", "Stage",
                                                  "Pipeline", "CompiledProgram", "SLProgram"]
    for value in values:
        with pytest.raises(AttributeError):
            value.foo = 1
        with pytest.raises(AttributeError):
            value.size = 4
        assert not hasattr(value, "foo")


# ---------------------------------------------------------------------------
# the rings the generated code runs over


def test_float_products_make_no_ring_or_operator_calls(verified_pipelines):
    prog = verified_pipelines[3].program
    rng = random.Random(380)
    a, b = (DiracNumber([rng.uniform(-1, 1) for _ in range(DIM)], FLOAT) for _ in range(2))
    python_calls, operator_calls = [], []

    def profile(frame, event, arg):
        if event == "call":
            python_calls.append(frame.f_code)
        elif event == "c_call" and arg in (operator.add, operator.sub, operator.neg, operator.mul):
            operator_calls.append(arg)

    sys.setprofile(profile)
    try:
        mul_fast(a, b)
    finally:
        sys.setprofile(None)
    assert sum(op == "halve" for op, _ in prog.bind_tape) == 32
    # the 32 halvings are multiplications by FLOAT.half; the program is found with one call
    assert python_calls == [mul_fast.__code__, fastmult.default_asset_dir.__code__, prog.bind.__code__,
                            prog.apply.__code__]
    assert operator_calls == []


def test_float_operator_calls_only_the_compiled_apply(verified_pipelines):
    rng = random.Random(381)
    a, b = (DiracNumber([rng.uniform(-1, 1) for _ in range(DIM)], FLOAT) for _ in range(2))
    op = precompute(b)
    python_calls, operator_calls = [], []

    def profile(frame, event, arg):
        if event == "call":
            python_calls.append(frame.f_code)
        elif event == "c_call" and arg in (operator.add, operator.sub, operator.neg, operator.mul):
            operator_calls.append(arg)

    sys.setprofile(profile)
    try:
        first = op.apply(a)
    finally:
        sys.setprofile(None)
    assert python_calls == [PrecomputedOperator.apply.__code__, op.pipeline.program.apply.__code__]
    assert operator_calls == []
    second = op.apply(a)
    assert first.coeffs is not second.coeffs and first.coeffs == second.coeffs == mul_fast(a, b).coeffs


SPECIAL_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072014e-308, 1e300, -1.5)


@pytest.mark.parametrize("level", LEVELS)
def test_float_operator_is_bit_exact_with_mul_fast_on_special_operands(level, verified_pipelines):
    rng = random.Random(382 + level)
    for _ in range(30):
        a, b = (DiracNumber([rng.choice(SPECIAL_FLOATS) if rng.random() < 0.3 else rng.uniform(-1, 1)
                             for _ in range(DIM)], FLOAT) for _ in range(2))
        assert bits(precompute(b, level).apply(a).coeffs) == bits(mul_fast(a, b, level).coeffs)


@pytest.mark.parametrize("level", LEVELS)
def test_generated_functions_contain_no_call(level, verified_pipelines):
    tree = ast.parse(verified_pipelines[level].program.source)
    functions = [node.name for node in tree.body if isinstance(node, ast.FunctionDef)]
    assert functions == ["bind", "apply"]
    assert not any(isinstance(node, ast.Call) for node in ast.walk(tree))


class CallCountingRing:
    """Delegates to a base ring and counts the calls to each ring operation."""

    def __init__(self, base):
        self.base = base
        self.name = f"calls({base.name})"
        self.calls = dict.fromkeys(RING_OPS, 0)
        self.wrap, self.zero, self.one, self.eq = base.wrap, base.zero, base.one, base.eq

    def _call(self, op, *args):
        self.calls[op] += 1
        return getattr(self.base, op)(*args)

    def add(self, x, y):
        return self._call("add", x, y)

    def sub(self, x, y):
        return self._call("sub", x, y)

    def neg(self, x):
        return self._call("neg", x)

    def mul(self, x, y):
        return self._call("mul", x, y)

    def halve(self, x):
        return self._call("halve", x)


def bits(coeffs) -> list:
    return [c.hex() if isinstance(c, float) else c.key() for c in coeffs]


def as_calls(histogram: dict) -> dict:
    return {op: histogram["shift" if op == "halve" else op] for op in RING_OPS}


def operands_over(base, rng):
    if base is FLOAT:
        return [DiracNumber([rng.uniform(-1, 1) for _ in range(DIM)], FLOAT) for _ in range(2)]
    return [DiracNumber([DyadicRational(rng.randint(-(1 << 40), 1 << 40), rng.randint(0, 12)) for _ in range(DIM)],
                        DYADIC) for _ in range(2)]


@pytest.mark.parametrize("base", (FLOAT, DYADIC), ids=("float", "dyadic"))
@pytest.mark.parametrize("level", LEVELS)
def test_a_foreign_ring_sees_every_recorded_operation(level, base, verified_pipelines):
    pipe = verified_pipelines[level]
    a, b = operands_over(base, random.Random(390 + level))
    full = flatten(pipe).histogram()
    apply_only = flatten(pipe, include_precompute=False,
                         operator=precompute(DiracNumber.from_ints(range(DIM), DYADIC), level)).histogram()
    if level == 3:
        assert [full[k] for k in ("mul", "add_total", "neg", "shift")] == [88, 196, 8, 32]
        assert [apply_only[k] for k in ("mul", "add_total")] == [88, 146]
    full, apply_only = as_calls(full), as_calls(apply_only)

    ring = CallCountingRing(base)
    fa, fb = DiracNumber(a.coeffs, ring), DiracNumber(b.coeffs, ring)
    assert bits(mul_fast(fa, fb, level).coeffs) == bits(mul_fast(a, b, level).coeffs)
    assert ring.calls == full

    ring = CallCountingRing(base)
    fa, fb = DiracNumber(a.coeffs, ring), DiracNumber(b.coeffs, ring)
    op = precompute(fb, level)
    assert ring.calls == {name: n - apply_only[name] for name, n in full.items()}
    ring.calls = dict.fromkeys(RING_OPS, 0)
    assert bits(op.apply(fa).coeffs) == bits(precompute(b, level).apply(a).coeffs)
    assert ring.calls == apply_only


@pytest.mark.parametrize("base", (FLOAT, DYADIC), ids=("float", "dyadic"))
def test_a_foreign_operator_boxes_its_entries_once(base, verified_pipelines, monkeypatch):
    rng = random.Random(395)
    ring = CallCountingRing(base)
    b = DiracNumber(operands_over(base, rng)[1].coeffs, ring)
    boxed = []
    box = fastmult._boxed
    monkeypatch.setattr(fastmult, "_boxed", lambda values, r: boxed.append(len(values)) or box(values, r))
    op = precompute(b)
    assert boxed == [DIM]  # b, once: the operator keeps the boxes bind returns
    for _ in range(3):
        a = DiracNumber(operands_over(base, rng)[0].coeffs, ring)
        boxed.clear()
        ring.calls = dict.fromkeys(RING_OPS, 0)
        got = op.apply(a)
        assert boxed == [DIM]  # a alone
        calls = ring.calls
        assert (calls["mul"], calls["add"] + calls["sub"], calls["neg"], calls["halve"]) == (88, 146, 8, 0)
        assert bits(got.coeffs) == bits(mul_fast(a, b).coeffs)


def raw(values) -> list:
    """Values as exact keys: a float's bits, a dyadic's (num, exp) unnormalized."""
    out = []
    for v in values:
        v = v.value if isinstance(v, CountingScalar) else v
        out.append(v.hex() if isinstance(v, float) else (v.num, v.exp) if isinstance(v, DyadicRational) else v)
    return out


def tally(ring):
    """(mul, add + sub, neg, halve) a counting ring has seen so far, or None."""
    if isinstance(ring, CountingRing):
        return ring.counter.snapshot()
    if isinstance(ring, CallCountingRing):
        calls = ring.calls
        return (calls["mul"], calls["add"] + calls["sub"], calls["neg"], calls["halve"])
    return None


def since(before, after):
    return None if before is None else tuple(q - p for p, q in zip(before, after))


@pytest.mark.parametrize("make_ring", (lambda: FLOAT, lambda: DYADIC, lambda: INTS, CountingRing,
                                       lambda: CallCountingRing(DYADIC)),
                         ids=("float", "dyadic", "ints", "counting", "calls"))
def test_precompute_is_the_operator_bound_to_b(make_ring, verified_pipelines):
    ring = make_ring()
    rng = random.Random(396)
    for level in LEVELS:
        a, b = (DiracNumber.from_ints(generic_ints(rng), ring) for _ in range(2))
        start = tally(ring)
        op = precompute(b, level)
        mid = tally(ring)
        twin = PrecomputedOperator(assemble_pipeline(level), b)
        end = tally(ring)
        assert twin.pipeline is op.pipeline is verified_pipelines[level]
        assert raw(twin.entries) == raw(op.entries)
        assert twin.lowered == op.lowered
        assert (op.lowered is None) == (ring is not DYADIC and ring is not INTS)
        got = op.apply(a)
        after_apply = tally(ring)
        assert raw(twin.apply(a).coeffs) == raw(got.coeffs) == raw(mul_fast(a, b, level).coeffs)
        if level == 3 and start is not None:
            # each operator binds b once, and apply never binds again
            assert since(start, mid) == since(mid, end) == (0, 50, 0, 32)
            assert since(end, after_apply) == (88, 146, 8, 0)


# ---------------------------------------------------------------------------
# mixed rings


def test_mixed_rings_raise_a_typed_error_at_every_entry_point():
    d = DiracNumber.basis(1, DYADIC)
    f = DiracNumber.basis(2, FLOAT)
    calls = (lambda: mul_fast(d, f), lambda: mul_fast(f, d), lambda: precompute(f).apply(d),
             lambda: mul_schoolbook(d, f, TABLE))
    for call in calls:
        with pytest.raises(RingMismatchError) as exc:
            call()
        assert isinstance(exc.value, ValueError)
        assert "float" in str(exc.value) and "dyadic" in str(exc.value)


@pytest.mark.parametrize("foreign", (3, 0.5))
def test_a_foreign_coefficient_of_an_exact_ring_raises_a_type_error_at_every_entry_point(foreign):
    a = DiracNumber.from_ints(range(DIM), DYADIC)
    bad = DiracNumber(a.coeffs[:5] + [foreign] + a.coeffs[6:], DYADIC)
    calls = (lambda: mul_fast(a, bad), lambda: mul_fast(bad, a), lambda: precompute(bad),
             lambda: precompute(a).apply(bad), lambda: mul_schoolbook(a, bad, TABLE),
             lambda: mul_schoolbook(bad, a, TABLE))
    for call in calls:
        with pytest.raises(TypeError, match=f"dyadic ring has type {type(foreign).__name__}, not DyadicRational"):
            call()


def test_a_dyadic_coefficient_of_a_float_number_raises_a_type_error():
    # the generated code meets the dyadic on either side of an operator, by its position;
    # both operands' methods decline, whichever comes first
    a = DiracNumber.from_ints(range(DIM), FLOAT)
    for k in range(DIM):
        bad = DiracNumber(a.coeffs[:k] + [DyadicRational(3, 1)] + a.coeffs[k + 1:], FLOAT)
        calls = (lambda: mul_fast(a, bad), lambda: mul_fast(bad, a), lambda: precompute(bad),
                 lambda: precompute(a).apply(bad))
        for call in calls:
            with pytest.raises(TypeError, match="unsupported operand type.*DyadicRational"):
                call()


def test_distinct_counting_rings_are_different_rings():
    a = DiracNumber.basis(1, CountingRing())
    b = DiracNumber.basis(2, CountingRing())
    with pytest.raises(RingMismatchError, match="counting"):
        mul_fast(a, b)


# ---------------------------------------------------------------------------
# tooling


def test_generated_source_is_registered_with_linecache(verified_pipelines):
    for level, pipe in verified_pipelines.items():
        prog = pipe.program
        assert prog.filename == f"<diracmul pipeline level {level}>"
        assert linecache.getline(prog.filename, 1) == "def bind(half, b):\n"
        assert "".join(linecache.getlines(prog.filename)) == prog.source


def pipeline_source_lines() -> int:
    return sum(len(entry[2]) for name, entry in linecache.cache.items() if name.startswith("<diracmul pipeline"))


def test_dropped_pipelines_release_their_source(verified_pipelines):
    pipe = verified_pipelines[3]
    first = pipe.stages[0]
    gc.collect()
    baseline = pipeline_source_lines()
    variants = []
    for row in range(8):
        entries = [list(r) for r in first.mat.entries]
        column = next(c for c, e in enumerate(entries[row]) if e)
        entries[row][column] = -entries[row][column]
        stage = Stage(first.name, mat=Mat(first.out_dim, first.in_dim, entries))
        variants.append(replace_stage(pipe, 0, stage))
    assert pipeline_source_lines() > baseline
    assert all(linecache.getlines(v.program.filename) for v in variants)
    del variants
    gc.collect()
    assert pipeline_source_lines() == baseline
    assert "".join(linecache.getlines(pipe.program.filename)) == pipe.program.source


def test_a_shared_source_keeps_its_lines_until_its_last_owner_goes():
    table = flipped_table(TABLE)  # a source of its own, which no other live program shares
    first, second = schoolbook_program(table), schoolbook_program(table)
    filename = first.compiled.__code__.co_filename
    assert second.compiled.__code__.co_filename == filename
    lines = linecache.getlines(filename)
    assert len(lines) == 21
    del first
    gc.collect()
    assert linecache.getlines(filename) == lines
    del second
    gc.collect()
    assert linecache.getlines(filename) == []


def test_a_generated_function_keeps_its_lines_while_it_lives():
    # its program is dropped at once; a table of its own, so that no other live program shares its source
    school = schoolbook_program(flipped_table(TABLE)).compiled
    filename = school.__code__.co_filename
    gc.collect()
    assert linecache.getline(filename, 1) == "def program(half, a, b, c):\n"
    assert len(linecache.getlines(filename)) == 21
    del school
    gc.collect()
    assert linecache.getlines(filename) == []


def test_a_pipeline_function_keeps_its_lines_until_the_last_one_goes(verified_pipelines):
    pipe = verified_pipelines[3]
    first = pipe.stages[0]
    entries = [list(r) for r in first.mat.entries]
    column = next(c for c, e in enumerate(entries[0]) if e)
    entries[0][column] = -entries[0][column]
    stage = Stage(first.name, mat=Mat(first.out_dim, first.in_dim, entries))
    variant = replace_stage(pipe, 0, stage).program
    bind, apply, filename, source = variant.bind, variant.apply, variant.filename, variant.source
    del variant
    gc.collect()
    assert "".join(linecache.getlines(filename)) == source
    del bind
    gc.collect()
    assert "".join(linecache.getlines(filename)) == source
    del apply
    gc.collect()
    assert linecache.getlines(filename) == []


def test_traceback_shows_generated_lines():
    class FailingMul(type(DYADIC)):
        name = "failing"

        @staticmethod
        def mul(x, y):
            raise ArithmeticError("planted")

    ring = FailingMul()
    a = DiracNumber([DYADIC.one()] * DIM, ring)
    with pytest.raises(ArithmeticError) as exc:
        mul_fast(a, a)
    text = "".join(traceback.format_exception(exc.value))
    assert 'File "<diracmul pipeline level 3>"' in text
    assert "in apply" in text and re.search(r"\(e\d+ \* ", text)


def test_straight_line_program_traceback_shows_generated_lines():
    class FailingFloat(float):
        def __mul__(self, other):
            raise ArithmeticError("planted")

        __rmul__ = __mul__

    program = schoolbook_program(TABLE)
    operand = [FailingFloat(k + 1) for k in range(DIM)]
    with pytest.raises(ArithmeticError) as exc:
        interpret(program, operand, operand, FLOAT)
    frames = [f for f in traceback.extract_tb(exc.value.__traceback__)
              if f.filename.startswith("<diracmul straight-line program")]
    assert len(frames) == 1 and frames[0].name == "program"
    assert re.search(r"a\d+ \* b\d+", frames[0].line)


# ---------------------------------------------------------------------------
# CLI

COUNT_OUTPUT = """\
schoolbook: mul=256 add=240
fast (level 1): mul=112 add=192 neg=8 shift=16
fast (level 2): mul=92 add=202 neg=8 shift=24
fast (level 3): mul=88 add=196 neg=8 shift=32
precompute: mul=0 add=50 neg=0 shift=32
apply: mul=88 add=146 neg=8 shift=0
core stage: mul=88 add=108
structural stages: add=88
savings vs schoolbook: 168 multiplications
savings vs the earlier published scheme (128 multiplications): 40 multiplications
total ops fast=284, schoolbook=496, ratio=0.57
nominal budget mul=88 add=256: measured mul=88 add=196 (108 core + 88 structural), within budget
"""


def test_count_output_is_unchanged(capsys):
    assert main(["count"]) == 0
    assert capsys.readouterr().out == COUNT_OUTPUT
