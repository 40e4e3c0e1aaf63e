import hashlib
import math
import operator
import random
import re
import sys
from fractions import Fraction

import pytest

from diracmul import exactnum
from diracmul.algebra import DIM, DiracNumber, mul_schoolbook
from diracmul.exactnum import CountingRing, DYADIC, FLOAT, INTS, DyadicRational, FloatRing
from diracmul.fastmult import PrecomputedOperator, mul_fast, precompute
from diracmul.program import RING_OPS, Recorder, function_source
from diracmul.slpgen import SLPError, emit_text, flatten, interpret, parse_text, schoolbook_program
from helpers import replace_stage


def rand_vec(rng, lo=-1000, hi=1000):
    return [DYADIC.wrap(rng.randint(lo, hi)) for _ in range(DIM)]


def _render(tape, inputs, lines):
    """Append the line ``emit_text`` writes for each step of ``tape`` to
    ``lines``, naming the step ``v<len(lines)>``; ``inputs`` names the
    positions that are not steps.  Returns the name of each position."""
    names = []
    for x, (op, args) in enumerate(tape):
        if x in inputs:
            names.append(inputs[x])
            continue
        if op in ("a", "b"):
            rhs = f"load_{op} {args[0]}"
        elif op == "halve":
            rhs = f"shift {names[args[0]]} 1"
        else:
            rhs = " ".join([op] + [names[y] for y in args])
        names.append(f"v{len(lines)}")
        lines.append(f"{names[-1]} = {rhs}")
    return names


def _body(program):
    return [line for line in emit_text(program).splitlines() if not line.startswith("#")]


@pytest.fixture(scope="module")
def fast_program(verified_pipelines):
    return flatten(verified_pipelines[3])


class TestFlatten:
    def test_fast_histogram(self, fast_program):
        h = fast_program.histogram()
        assert h["mul"] == 88
        assert h["add_total"] == 196  # nominal reference budget is 256
        assert h["shift"] == 32  # 28 distinct halved entries of the halved blocks plus 4 for f
        assert h["load_a"] == 16 and h["load_b"] == 16 and h["store_y"] == 16

    def test_schoolbook_histogram(self, table):
        h = schoolbook_program(table).histogram()
        assert h["mul"] == 256
        assert h["add_total"] == 240
        assert h["neg"] == 0

    def test_flatten_proves_the_pipeline_it_renders(self, fast_program, verified_pipelines, planted_fault):
        bad, _ = planted_fault
        with pytest.raises(SLPError, match="does not verify"):
            flatten(bad)
        b = DiracNumber.from_ints(range(DIM), DYADIC)
        op = PrecomputedOperator(bad, b)
        with pytest.raises(SLPError, match="does not verify"):
            flatten(bad, include_precompute=False, operator=op)
        # a correct pipeline that verify_pipeline never saw renders as the shipped one
        fresh = replace_stage(verified_pipelines[3], 0, verified_pipelines[3].stages[0])
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
        assert h["const"] == len(op.entries) == 32  # each distinct core value once
        assert prog.b_arity == 0
        a = DiracNumber.from_ints([rng.randint(-500, 500) for _ in range(DIM)], DYADIC)
        got = interpret(prog, a.coeffs, [], DYADIC)
        assert got == mul_fast(a, b, 3).coeffs

    def test_apply_only_requires_matching_operator(self, verified_pipelines):
        with pytest.raises(SLPError):
            flatten(verified_pipelines[3], include_precompute=False)

    @pytest.mark.parametrize("level", (1, 2, 3))
    def test_steps_are_bind_then_apply_renumbered(self, verified_pipelines, level):
        compiled = verified_pipelines[level].program
        lines = []
        a = _render([("a", (k,)) for k in range(DIM)], {}, lines)
        bind = _render(compiled.bind_tape, {}, lines)
        inputs = {x: a[k] if op == "a" else bind[compiled.entries[k]]
                  for x, (op, (k, *_)) in enumerate(compiled.apply_tape) if op in ("a", "e")}
        names = _render(compiled.apply_tape, inputs, lines)
        lines += [f"store_y {k} {names[x]}" for k, x in enumerate(compiled.outputs)]
        assert _body(flatten(verified_pipelines[level])) == lines

    def test_schoolbook_program_is_its_recording(self, table):
        rec = Recorder()
        y = mul_schoolbook(DiracNumber(rec.inputs("a", DIM), rec), DiracNumber(rec.inputs("b", DIM), rec), table)
        lines = []
        names = _render(rec.tape, {}, lines)
        lines += [f"store_y {k} {names[x]}" for k, x in enumerate(y.coeffs)]
        program = schoolbook_program(table)
        assert _body(program) == lines
        assert (program.instrs, program.outputs) == (tuple(rec.tape), tuple(y.coeffs))


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

    @pytest.mark.parametrize("level", (1, 2, 3))
    def test_programs_over_ints_equal_schoolbook(self, verified_pipelines, table, level):
        # bind halves odd sums: a flooring shift would be off by a half in each of them
        rng = random.Random(1)
        full = flatten(verified_pipelines[level])
        for _ in range(10):
            a, b = ([rng.randint(-9, 9) for _ in range(DIM)] for _ in range(2))
            want = mul_schoolbook(DiracNumber(a, INTS), DiracNumber(b, INTS), table).coeffs
            op = precompute(DiracNumber(b, INTS), level)
            apply_only = flatten(verified_pipelines[level], include_precompute=False, operator=op)
            for got in (interpret(full, a, b, INTS), interpret(apply_only, a, [], INTS)):
                assert got == want and all(type(y) is int for y in got)

    def test_a_fractional_output_over_ints_is_an_error(self, fast_program):
        program = parse_text(emit_text(fast_program).replace("load_b 0\n", "const 1/2^1\n", 1))
        with pytest.raises(ValueError, match="not an integer"):
            interpret(program, [1] + [0] * (DIM - 1), [0] * DIM, INTS)

    @pytest.mark.parametrize("bad", (math.inf, math.nan))
    def test_non_finite_float_operator_is_not_baked(self, verified_pipelines, bad):
        op = precompute(DiracNumber([bad] + [0.0] * (DIM - 1), FLOAT), 3)
        with pytest.raises(SLPError, match="cannot bake"):
            flatten(verified_pipelines[3], include_precompute=False, operator=op)

    def test_an_operator_over_another_ring_of_ints_bakes_its_ints(self, verified_pipelines, table):
        # a ring of Python ints that is not INTS: its operator keeps bind's ints as they are
        rng = random.Random(19)
        b = [2 * rng.randint(-50, 50) for _ in range(DIM)]  # even, so bind's halvings stay integers
        op = precompute(DiracNumber(b, exactnum.IntRing()), 3)
        assert all(type(v) is int for v in op.entries)
        program = flatten(verified_pipelines[3], include_precompute=False, operator=op)
        assert program.consts == tuple((v, 0) for v in op.entries)
        a = [rng.randint(-50, 50) for _ in range(DIM)]
        want = mul_schoolbook(DiracNumber(a, INTS), DiracNumber(b, INTS), table).coeffs
        assert interpret(program, a, [], INTS) == want

    def test_an_operator_over_a_ring_of_fractions_is_not_baked(self, verified_pipelines):
        # Fraction has Python's operators, so bind keeps its values, but a const holds dyadics only
        class FractionRing(exactnum.OperatorRing):
            name = "fraction"
            half = Fraction(1, 2)

            @staticmethod
            def from_dyadic(num, exp):
                return Fraction(num, 1 << exp)

        op = precompute(DiracNumber([Fraction(k, 3) for k in range(DIM)], FractionRing()), 3)
        assert all(type(v) is Fraction for v in op.entries)
        with pytest.raises(SLPError, match=re.escape("cannot bake value Fraction(")):
            flatten(verified_pipelines[3], include_precompute=False, operator=op)


class TestExecutor:
    """``interpret`` runs the code each program generates once, from its
    instructions."""

    def test_float_runs_generate_once_and_call_no_ring_method(self, verified_pipelines):
        program = flatten(verified_pipelines[3])  # fresh, so not yet generated
        rng = random.Random(21)
        pairs = [([rng.uniform(-1, 1) for _ in range(DIM)], [rng.uniform(-1, 1) for _ in range(DIM)])
                 for _ in range(3)]
        calls, operator_calls = [], []

        def profile(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code)
            elif event == "c_call" and arg in (operator.add, operator.sub, operator.neg, operator.mul):
                operator_calls.append(arg)

        sys.setprofile(profile)
        try:
            outs = [interpret(program, a, b, FLOAT) for a, b in pairs]
        finally:
            sys.setprofile(None)
        run = program.compiled
        assert sum(code is function_source.__code__ for code in calls) == 1
        assert sum(code is run.__code__ for code in calls) == len(pairs)
        assert [code for code in calls if code.co_filename == exactnum.__file__] == []
        assert operator_calls == []
        for (a, b), out in zip(pairs, outs):
            want = mul_fast(DiracNumber(a, FLOAT), DiracNumber(b, FLOAT), 3).coeffs
            assert [y.hex() for y in out] == [y.hex() for y in want]

    def test_hand_written_program_over_dyadics(self):
        # a0 is never loaded and a1 twice; shift 0 is the value itself
        text = "\n".join(["v0 = load_a 1", "v1 = load_a 1", "v2 = load_b 0", "v3 = shift v2 0", "v4 = shift v0 2",
                          "v5 = mul v1 v3", "v6 = add v4 v5", "v7 = const 3/2^1", "v8 = sub v6 v7", "v9 = neg v8",
                          "store_y 0 v9", "store_y 1 v3", "store_y 2 v4", "store_y 3 v1"]
                         + [f"store_y {k} v7" for k in range(4, DIM)])
        program = parse_text(text)
        assert (program.a_arity, program.b_arity) == (2, 1)
        out = interpret(program, [DyadicRational(7), DyadicRational(5, 1)], [DyadicRational(3, 2)], DYADIC)
        # 5/2 / 4 = 5/8; 5/8 + 5/2 * 3/4 = 20/8; 20/8 - 3/2 = 8/8, negated
        assert [(y.num, y.exp) for y in out] == [(-8, 3), (3, 2), (5, 3), (5, 1)] + [(3, 1)] * 12

    def test_a_ring_with_its_own_methods_is_refused_by_name(self, fast_program):
        class MethodRing(FloatRing):
            name = "float-by-methods"

            @staticmethod
            def add(x, y):
                return x + y

        with pytest.raises(TypeError, match="float-by-methods"):
            interpret(fast_program, [0.0] * DIM, [0.0] * DIM, MethodRing())

    def test_counting_ring_tallies_the_histogram(self, fast_program):
        rng = random.Random(22)
        ring = CountingRing()
        a, b = ([ring.wrap(rng.randint(3, 1 << 19) * 2 + 1) for _ in range(DIM)] for _ in range(2))
        interpret(fast_program, a, b, ring)
        h = fast_program.histogram()
        assert ring.counter.snapshot() == (88, 196, 8, 32) == (h["mul"], h["add_total"], h["neg"], h["shift"])

    def test_a_long_chain_of_single_use_values_runs(self):
        # each sum is used once, by the next: inlined whole, it would nest 1000 deep
        text = "\n".join(["v0 = load_a 0"] + [f"v{i} = add v{i - 1} v0" for i in range(1, 1001)]
                         + [f"store_y {k} v1000" for k in range(DIM)])
        assert interpret(parse_text(text), [DYADIC.wrap(3)], [], DYADIC) == [DYADIC.wrap(3003)] * DIM


class TestProgramStructure:
    LOADS = [f"v{i} = load_a {i}" for i in range(16)]

    def test_loads_and_stores_only(self):
        lines = self.LOADS + [f"v{16 + i} = load_b {i}" for i in range(16)]
        prog = parse_text("\n".join(lines + [f"store_y {k} v{k}" for k in range(16)]))
        h = prog.histogram()
        assert h["load_a"] == 16 and h["load_b"] == 16 and h["store_y"] == 16
        assert h["add_total"] == 0 and h["mul"] == 0

    def test_forward_reference_rejected(self):
        with pytest.raises(SLPError):
            parse_text("v0 = add v0 v1\n")

    def test_double_store_rejected(self):
        with pytest.raises(SLPError):
            parse_text("\n".join(self.LOADS + ["store_y 0 v0"] * 2))

    def test_missing_output_rejected(self):
        with pytest.raises(SLPError):
            parse_text("\n".join(self.LOADS + [f"store_y {k} v{k}" for k in range(15)]))

    @classmethod
    def _text_with(cls, line):
        """Sixteen loads, then ``line`` defining v16, then the sixteen stores."""
        return "\n".join(cls.LOADS + [line] + [f"store_y {k} v{k}" for k in range(16)]) + "\n"

    @pytest.mark.parametrize("operands", ("", " 1 2"), ids=("none", "two"))
    def test_const_takes_one_number(self, operands):
        line = f"v16 = const{operands}"
        message = f"cannot parse line {line!r}: const takes one number, got {len(operands.split())} operands"
        with pytest.raises(SLPError, match=re.escape(message)):
            parse_text(self._text_with(line))

    def test_out_of_range_load_rejected(self):
        assert parse_text(self._text_with("v16 = load_a 15")).a_arity == 16
        with pytest.raises(SLPError, match="load_a -1"):
            parse_text(self._text_with("v16 = load_a -1"))
        with pytest.raises(SLPError, match="load_b -1"):
            parse_text(self._text_with("v16 = load_b -1"))
        with pytest.raises(SLPError, match="load_b 16"):
            parse_text(self._text_with("v16 = load_b 16"))
        with pytest.raises(SLPError, match="load_a 99999999"):
            parse_text(self._text_with("v16 = load_a 99999999"))

    @pytest.mark.parametrize("line, spelled", [
        ("v15 = load_a 15", "v15 = load_a 1_5"),
        ("v16 = load_b 3", "v16 = load_b \u0663"),
        ("v16 = load_b 3", "v16 = load_b +3"),
        ("v16 = neg v3", "v016 = neg v3"),
        ("v16 = neg v3", "v16 = neg v+3"),
        ("v16 = shift v0 1", "v16 = shift v0 0_1"),
        ("store_y 15 v15", "store_y 1_5 v15"),
    ], ids=("underscore-load", "arabic-indic-digit", "plus-sign", "leading-zero-id", "plus-sign-id",
            "underscore-shift", "underscore-output"))
    def test_numbers_are_read_only_as_emitted(self, line, spelled):
        text = self._text_with(line if line.startswith("v16 ") else "v16 = neg v0")
        parse_text(text)
        respelled = text.replace(line + "\n", spelled + "\n")
        assert respelled != text
        with pytest.raises(SLPError, match=re.escape(f"cannot parse line {spelled!r}: expected ")):
            parse_text(respelled)

    def test_negative_shift_rejected(self):
        assert parse_text(self._text_with("v16 = shift v0 0")).histogram()["shift"] == 0
        with pytest.raises(SLPError, match="negative shift"):
            parse_text(self._text_with("v16 = shift v0 -1"))

    def test_shift_amount_is_bounded(self):
        assert parse_text(self._text_with("v16 = shift v0 64")).histogram()["shift"] == 64
        for amount in (65, 1000000000):
            with pytest.raises(SLPError, match=f"shift {amount} above 64"):
                parse_text(self._text_with(f"v16 = shift v0 {amount}"))

    def test_histogram_counts_each_halving_the_counting_ring_does(self):
        lines = self.LOADS + ["v16 = shift v0 3", "v17 = shift v0 0", "store_y 0 v16", "store_y 1 v17"]
        program = parse_text("\n".join(lines + [f"store_y {k} v{k}" for k in range(2, 16)]))
        ring = CountingRing()
        interpret(program, [ring.wrap(2 * k + 3) for k in range(16)], [], ring)
        h = program.histogram()
        assert ring.counter.snapshot() == (h["mul"], h["add_total"], h["neg"], h["shift"]) == (0, 0, 0, 3)

    def test_single_assignment_by_construction(self, fast_program):
        # the inputs come first, and each step reads only values defined before it
        ops = [op for op, _ in fast_program.instrs]
        assert ops[:32] == ["a"] * 16 + ["b"] * 16 and not {"a", "b"} & set(ops[32:])
        for i, (op, args) in enumerate(fast_program.instrs[32:], 32):
            assert op in RING_OPS and all(x < i for x in args)


class TestEmit:
    def test_header_reports_histogram(self, fast_program):
        text = emit_text(fast_program)
        assert text.splitlines()[0] == "# mul=88 add=196 neg=8 shift=32"

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
        "v1 = const 1_5",
        "v1 = const 3/2^0_1",
        "v1 = add v0 v0 v0",
        "v0 = add v1",
        "v0 = load_a",
        "store_y 0",
        "v0 = shift v1",
        "v0 = frob v1",
        "v0 = neg x1",
        "v1 = add v0 v5",
        "v1 = neg v-1",
        "v2 = neg v0",
        "v1 = load_a 16",
        "v1 = load_b -1",
        "v1 = shift v0 -1",
        "v1 = shift v0 65",
        "store_y 0 v0",
        "store_y 16 v0",
    ))
    def test_malformed_line_names_itself(self, line):
        with pytest.raises(SLPError, match=re.escape(f"cannot parse line {line!r}")):
            parse_text("v0 = load_a 0\nstore_y 0 v0\n" + line + "\n")

    GOLDEN = {  # sha256 of each emitted text
        "schoolbook": "b89eee54667aed3260cb2790e702b451ab4d9de70648b0d881c5ec08e6a16c66",
        "l1": "e0a171041e7f0726d7d8a3eb94eaef3afea32d1f2b369e8db6f1849f701ec195",
        "l1-apply": "89403e4c50175b84b73ed259245adc69ac02d7f5c05a88fe764c4b34c4526394",
        "l2": "b2e86c4431de97b7ad9498de11cac5346fc4603ca995fe3df0959895af8b8a00",
        "l2-apply": "ab75472e229de0eafd001ed623d9614cbfa0691bfd6094cd639ef95e0bae8ab8",
        "l3": "50f465399af9e9eaed1f38134c7f69f8bec3d3c8727dc52d203ad1d95a2c444b",
        "l3-apply": "ca245366d7b3af05d30c587ef84a32ead13421abe2491b67efbde2be6fac0a79",
    }

    @pytest.mark.parametrize("name", GOLDEN)
    def test_emitted_text_is_golden(self, verified_pipelines, table, name):
        if name == "schoolbook":
            program = schoolbook_program(table)
        else:
            pipeline = verified_pipelines[int(name[1])]
            b = DiracNumber.from_ints([k * k - 7 * k + 3 for k in range(DIM)], DYADIC)
            op = PrecomputedOperator(pipeline, b) if name.endswith("apply") else None
            program = flatten(pipeline, include_precompute=op is None, operator=op)
        assert hashlib.sha256(emit_text(program).encode()).hexdigest() == self.GOLDEN[name]

    def test_const_round_trip(self, verified_pipelines):
        rng = random.Random(7)
        b = DiracNumber.from_ints([rng.randint(-99, 99) for _ in range(DIM)], DYADIC)
        op = precompute(b, 3)
        prog = flatten(verified_pipelines[3], include_precompute=False, operator=op)
        text = emit_text(prog)
        assert emit_text(parse_text(text)) == text
