import math
import random
import re

import pytest

from diracmul.algebra import DIM, DiracNumber, mul_schoolbook
from diracmul.exactnum import CountingRing, DYADIC, FLOAT
from diracmul.fastmult import PrecomputedOperator, mul_fast, precompute
from diracmul.linalg import H2, eye, kron
from diracmul.slpgen import (
    SLPError,
    SLPInstr,
    SLProgram,
    emit_text,
    flatten,
    interpret,
    parse_text,
    schoolbook_program,
    structural_program,
)


def rand_vec(rng, lo=-1000, hi=1000):
    return [DYADIC.wrap(rng.randint(lo, hi)) for _ in range(DIM)]


@pytest.fixture(scope="module")
def fast_program(verified_pipelines):
    return flatten(verified_pipelines[3])


class TestFlatten:
    def test_fast_histogram(self, fast_program):
        h = fast_program.histogram()
        assert h["mul"] == 88
        assert h["add_total"] == 198  # nominal reference budget is 256
        assert h["shift"] == 32  # 28 distinct halved entries of the halved blocks plus 4 for f
        assert h["load_a"] == 16 and h["load_b"] == 16 and h["store_y"] == 16

    def test_schoolbook_histogram(self, table):
        h = schoolbook_program(table).histogram()
        assert h["mul"] == 256
        assert h["add_total"] == 240
        assert h["neg"] == 0

    def test_single_butterfly_stage(self):
        prog = structural_program(kron(H2, eye(1)))
        h = prog.histogram()
        assert h["add_total"] == 2
        assert h["mul"] == 0

    def test_flatten_proves_the_pipeline_it_renders(self, fast_program, verified_pipelines, planted_fault):
        bad, _ = planted_fault
        with pytest.raises(SLPError, match="does not verify"):
            flatten(bad)
        b = DiracNumber.from_ints(range(DIM), DYADIC)
        op = PrecomputedOperator(bad, bad.program.bind(DYADIC, b.coeffs), DYADIC)
        with pytest.raises(SLPError, match="does not verify"):
            flatten(bad, include_precompute=False, operator=op)
        # a correct pipeline that verify_pipeline never saw renders as the shipped one
        fresh = verified_pipelines[3].replace_stage(0, verified_pipelines[3].stages[0])
        assert emit_text(flatten(fresh)) == emit_text(fast_program)

    def test_histogram_matches_counting_ring(self, fast_program, verified_pipelines):
        rng = random.Random(14)
        ring = CountingRing()
        a = DiracNumber.from_ints([rng.randint(3, 1 << 19) * 2 + 1 for _ in range(DIM)], ring)
        b = DiracNumber.from_ints([rng.randint(3, 1 << 19) * 2 + 1 for _ in range(DIM)], ring)
        mul_fast(a, b, 3)
        h = fast_program.histogram()
        counts = ring.counter.as_dict()
        assert h["mul"] == counts["nontrivial_mults"]
        assert h["add_total"] == counts["additions"]
        assert h["neg"] == counts["negations"]
        assert h["shift"] == counts["shifts"]

    def test_apply_only_program(self, verified_pipelines):
        rng = random.Random(15)
        b = DiracNumber.from_ints([rng.randint(-500, 500) for _ in range(DIM)], DYADIC)
        op = precompute(b, 3)
        prog = flatten(verified_pipelines[3], include_precompute=False, operator=op)
        h = prog.histogram()
        assert h["mul"] == 88
        assert h["add_total"] == 146
        assert h["const"] == sum(blk.size ** 2 for blk in verified_pipelines[3].core.blocks)
        assert prog.b_arity == 0
        a = DiracNumber.from_ints([rng.randint(-500, 500) for _ in range(DIM)], DYADIC)
        got = interpret(prog, a.coeffs, [], DYADIC)
        assert got == mul_fast(a, b, 3).coeffs

    def test_apply_only_requires_matching_operator(self, verified_pipelines):
        with pytest.raises(SLPError):
            flatten(verified_pipelines[3], include_precompute=False)


class TestInterpret:
    def test_unit_right_operand(self, fast_program):
        rng = random.Random(3)
        a = rand_vec(rng)
        b = [DYADIC.one()] + [DYADIC.zero()] * 15
        assert interpret(fast_program, a, b, DYADIC) == a

    def test_matches_schoolbook(self, fast_program, table):
        rng = random.Random(4)
        for _ in range(100):
            a, b = rand_vec(rng), rand_vec(rng)
            got = interpret(fast_program, a, b, DYADIC)
            want = mul_schoolbook(DiracNumber(a, DYADIC), DiracNumber(b, DYADIC), table)
            assert got == want.coeffs

    def test_levels_agree(self, verified_pipelines):
        progs = [flatten(verified_pipelines[level]) for level in (1, 3)]
        rng = random.Random(5)
        for _ in range(25):
            a, b = rand_vec(rng), rand_vec(rng)
            out = [interpret(p, a, b, DYADIC) for p in progs]
            assert out[0] == out[1]

    def test_arity_mismatch_rejected(self, fast_program):
        with pytest.raises(SLPError):
            interpret(fast_program, [DYADIC.zero()] * 3, [DYADIC.zero()] * 16, DYADIC)

    @pytest.mark.parametrize("level", (1, 2, 3))
    def test_apply_only_program_of_a_float_operator_is_bit_exact(self, verified_pipelines, level):
        rng = random.Random(40 + level)
        floats = lambda: [rng.uniform(-1, 1) for _ in range(DIM)]
        op = precompute(DiracNumber(floats(), FLOAT), level)
        prog = flatten(verified_pipelines[level], include_precompute=False, operator=op)
        for _ in range(20):
            a = floats()
            want = op.apply(DiracNumber(a, FLOAT)).coeffs
            assert [v.hex() for v in interpret(prog, a, [], FLOAT)] == [v.hex() for v in want]

    @pytest.mark.parametrize("bad", (math.inf, math.nan))
    def test_non_finite_float_operator_is_not_baked(self, verified_pipelines, bad):
        op = precompute(DiracNumber([bad] + [0.0] * (DIM - 1), FLOAT), 3)
        with pytest.raises(SLPError, match="cannot bake"):
            flatten(verified_pipelines[3], include_precompute=False, operator=op)


class TestProgramStructure:
    def test_loads_and_stores_only(self):
        instrs = [SLPInstr("load_a", i, (), i) for i in range(16)]
        instrs += [SLPInstr("load_b", 16 + i, (), i) for i in range(16)]
        instrs += [SLPInstr("store_y", None, (k,), k) for k in range(16)]
        prog = SLProgram(instrs)
        h = prog.histogram()
        assert h["load_a"] == 16 and h["load_b"] == 16 and h["store_y"] == 16
        assert h["add_total"] == 0 and h["mul"] == 0

    def test_forward_reference_rejected(self):
        instrs = [SLPInstr("add", 0, (0, 1))]
        with pytest.raises(SLPError):
            SLProgram(instrs)

    def test_double_store_rejected(self):
        instrs = [SLPInstr("load_a", i, (), i) for i in range(16)]
        instrs += [SLPInstr("store_y", None, (0,), 0) for _ in range(2)]
        with pytest.raises(SLPError):
            SLProgram(instrs)

    def test_missing_output_rejected(self):
        instrs = [SLPInstr("load_a", i, (), i) for i in range(16)]
        instrs += [SLPInstr("store_y", None, (k,), k) for k in range(15)]
        with pytest.raises(SLPError):
            SLProgram(instrs)

    @staticmethod
    def _text_with(line):
        """Sixteen loads, then ``line`` defining v16, then the sixteen stores."""
        body = [f"v{i} = load_a {i}" for i in range(16)] + [line]
        return "\n".join(body + [f"store_y {k} v{k}" for k in range(16)]) + "\n"

    def test_out_of_range_load_rejected(self):
        assert parse_text(self._text_with("v16 = load_a 15")).a_arity == 16
        with pytest.raises(SLPError, match="load_a -1"):
            parse_text(self._text_with("v16 = load_a -1"))
        with pytest.raises(SLPError, match="load_b -1"):
            parse_text(self._text_with("v16 = load_b -1"))
        instrs = [SLPInstr("load_a", i, (), i) for i in range(16)] + [SLPInstr("load_b", 16, (), 16)]
        instrs += [SLPInstr("store_y", None, (k,), k) for k in range(16)]
        with pytest.raises(SLPError, match="load_b 16"):
            SLProgram(instrs)

    def test_negative_shift_rejected(self):
        assert parse_text(self._text_with("v16 = shift v0 0")).histogram()["shift"] == 1
        with pytest.raises(SLPError, match="negative shift"):
            parse_text(self._text_with("v16 = shift v0 -1"))

    def test_single_assignment_by_construction(self, fast_program):
        seen = set()
        for ins in fast_program.instrs:
            if ins.dest is not None:
                assert ins.dest not in seen
                seen.add(ins.dest)


class TestEmit:
    def test_header_reports_histogram(self, fast_program):
        text = emit_text(fast_program)
        assert text.splitlines()[0] == "# mul=88 add=198 neg=67 shift=32"

    def test_round_trip_is_byte_identical(self, fast_program):
        text = emit_text(fast_program)
        assert emit_text(parse_text(text)) == text

    def test_emitted_twice_is_identical(self, verified_pipelines):
        a = emit_text(flatten(verified_pipelines[3]))
        b = emit_text(flatten(verified_pipelines[3]))
        assert a == b

    def test_round_trip_preserves_semantics(self, fast_program, table):
        rng = random.Random(6)
        reparsed = parse_text(emit_text(fast_program))
        a, b = rand_vec(rng), rand_vec(rng)
        assert interpret(reparsed, a, b, DYADIC) == interpret(fast_program, a, b, DYADIC)

    @pytest.mark.parametrize("line", (
        "v0 = const 3/ab5",
        "v1 = add v0 v0 v0",
        "v0 = add v1",
        "v0 = load_a",
        "store_y 0",
        "v0 = shift v1",
        "v0 = frob v1",
        "v0 = neg x1",
    ))
    def test_malformed_line_names_itself(self, line):
        with pytest.raises(SLPError, match=re.escape(f"cannot parse line {line!r}")):
            parse_text("v0 = load_a 0\n" + line + "\n")

    def test_const_round_trip(self, verified_pipelines):
        rng = random.Random(7)
        b = DiracNumber.from_ints([rng.randint(-99, 99) for _ in range(DIM)], DYADIC)
        op = precompute(b, 3)
        prog = flatten(verified_pipelines[3], include_precompute=False, operator=op)
        text = emit_text(prog)
        assert emit_text(parse_text(text)) == text
