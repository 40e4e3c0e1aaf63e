import dis
import hashlib
import linecache
import math
import os
import random
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from unittest.mock import ANY

import pytest

from diracmul import algebra, derive
from diracmul.algebra import (
    DIM,
    DiracNumber,
    MultTable,
    SignedBasis,
    build_table_from_generators,
    cell_diffs,
    default_asset_dir,
    derive_b_matrix,
    mul_schoolbook,
    parse_printed_b_matrix,
    parse_printed_table,
    read_asset_lines,
    symbolic_b,
    symbolic_b_matrix,
    table_errata,
)
from diracmul.exactnum import FLOAT, CountingRing, DYADIC, DyadicRational, exact_ints, lf_from_b
from diracmul.fastmult import count_operations
from diracmul.program import Recorder
from diracmul.slpgen import emit_text, schoolbook_program

from diracmul.exactnum import INTS
from helpers import (LoopingRing, as_int, brute_force_product, diagonal_signs, flipped_table, holed_table,
                     is_unital, rows_are_permutations)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

# sha256 of emit_text(schoolbook_program(build_table_from_generators()))
SCHOOLBOOK_PROGRAM_SHA256 = "b89eee54667aed3260cb2790e702b451ab4d9de70648b0d881c5ec08e6a16c66"

SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300]


def rand_number(rng, ring=INTS, lo=-1000, hi=1000):
    return DiracNumber.from_ints([rng.randint(lo, hi) for _ in range(DIM)], ring)


class TestTable:
    def test_generator_entries(self, table):
        assert table[1][2] == SignedBasis(1, 5)
        assert table[0][9] == SignedBasis(1, 9)
        assert table[2][1] == SignedBasis(-1, 5)
        assert table[15][15] == SignedBasis(-1, 0)

    def test_printed_entries(self):
        printed = parse_printed_table()
        assert printed[1][1] == SignedBasis(1, 0)
        assert printed[2][5] == SignedBasis(1, 1)
        assert printed[14][14] == SignedBasis(1, 0)

    def test_unit_rows_and_permutation_property(self, table):
        assert is_unital(table)
        assert rows_are_permutations(table)

    def test_full_associativity(self, table):
        assert table.associativity_failures() == []

    def test_errata_of_identical_tables_is_empty(self, table):
        assert table_errata(table, table) == []

    def test_errata_against_transcription_matches_golden(self, table):
        diffs = table_errata(parse_printed_table(), table)
        with open(os.path.join(GOLDEN, "table_errata.txt"), encoding="ascii") as fh:
            golden = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
        if golden == ["(no differences)"]:
            assert diffs == []
        else:
            assert len(diffs) == len(golden)

    def test_planted_difference_is_reported(self, table):
        tweaked = flipped_table(table)
        s, k = table[3][3]
        assert table_errata(tweaked, table) == [(3, 3, SignedBasis(-s, k), SignedBasis(s, k))]

    def test_diagonal_signs(self, table):
        assert diagonal_signs(table) == [1, 1, -1, -1, -1, 1, 1, 1, -1, -1, -1, -1, -1, -1, 1, -1]

    @pytest.mark.parametrize("build", [
        lambda t: t, lambda t: parse_printed_table(), flipped_table, holed_table, lambda t: MultTable(t.entries),
    ], ids=("generators", "printed", "flipped", "holed", "from-cells"))
    def test_cells_are_plain_tuples(self, table, build):
        # the schoolbook loop unpacks each cell; CPython's fast path takes an exact tuple only
        assert all(type(cell) is tuple for row in build(table).entries for cell in row)

    def test_cells_compare_equal_to_signed_basis(self, table):
        assert MultTable(table.entries) == table
        assert MultTable([[SignedBasis(*cell) for cell in row] for row in table.entries]) == table

    @pytest.mark.parametrize("cell", [(0, 3), (2, 3), (1, -1), (-1, 16), (1.0, 1), (True, 1), (1, 3.0)])
    @pytest.mark.parametrize("kind", [SignedBasis, tuple])
    def test_bad_entry_is_rejected(self, table, cell, kind):
        # a SignedBasis from the parsers or a plain tuple from another table's cells
        entries = [list(row) for row in table.entries]
        entries[4][7] = SignedBasis(*cell) if kind is SignedBasis else cell
        with pytest.raises(ValueError, match=re.escape(f"bad table entry {SignedBasis(*cell)}")):
            MultTable(entries)

    @pytest.mark.parametrize("shape", ("a-row-short", "a-row-long", "15-rows"))
    def test_a_table_not_16x16_is_rejected(self, table, shape):
        entries = [list(row) for row in table.entries]
        if shape == "15-rows":
            del entries[-1]
        else:
            entries[3] = entries[3][:-1] if shape == "a-row-short" else entries[3] + [entries[3][0]]
        with pytest.raises(ValueError, match="table must be 16x16"):
            MultTable(entries)


class TestSchoolbook:
    def test_unit_element(self, table):
        rng = random.Random(0)
        b = rand_number(rng)
        e0 = DiracNumber.basis(0, INTS)
        assert mul_schoolbook(e0, b, table) == b
        assert mul_schoolbook(b, e0, table) == b

    def test_basis_product(self, table):
        i2 = DiracNumber.basis(2, INTS)
        i3 = DiracNumber.basis(3, INTS)
        out = mul_schoolbook(i2, i3, table)
        assert out == DiracNumber.basis(8, INTS)

    def test_against_brute_force(self, table):
        rng = random.Random(17)
        for _ in range(50):
            a = rand_number(rng)
            b = rand_number(rng)
            got = mul_schoolbook(a, b, table)
            want = brute_force_product(a.coeffs, b.coeffs, table)
            assert [Fraction(v) for v in got.coeffs] == want

    def test_bilinearity(self, table):
        rng = random.Random(3)
        for _ in range(20):
            a1, a2, b = (rand_number(rng) for _ in range(3))
            lam = rng.randint(-9, 9)
            left = mul_schoolbook(a1.add(a2), b, table)
            right = mul_schoolbook(a1, b, table).add(mul_schoolbook(a2, b, table))
            assert left == right
            assert mul_schoolbook(a1.scale(lam), b, table) == mul_schoolbook(a1, b, table).scale(lam)
            assert mul_schoolbook(b, a1.add(a2), table) == mul_schoolbook(b, a1, table).add(
                mul_schoolbook(b, a2, table)
            )

    def test_element_associativity(self, table):
        rng = random.Random(11)
        for _ in range(100):
            x, y, z = (rand_number(rng, lo=-50, hi=50) for _ in range(3))
            assert mul_schoolbook(mul_schoolbook(x, y, table), z, table) == mul_schoolbook(
                x, mul_schoolbook(y, z, table), table
            )

    def test_anticommutation_witness(self, table):
        i1 = DiracNumber.basis(1, INTS)
        i2 = DiracNumber.basis(2, INTS)
        i5 = DiracNumber.basis(5, INTS)
        assert mul_schoolbook(i1, i2, table) == i5
        assert mul_schoolbook(i2, i1, table) == i5.neg()

    def test_operation_counts(self, table):
        rng = random.Random(8)
        ring = CountingRing()
        a = DiracNumber.from_ints([rng.randint(3, 500) * 2 + 1 for _ in range(DIM)], ring)
        b = DiracNumber.from_ints([rng.randint(3, 500) * 2 + 1 for _ in range(DIM)], ring)
        mul_schoolbook(a, b, table)
        assert ring.counter.nontrivial_mults == 256
        assert ring.counter.additions == 240
        assert ring.counter.shifts == 0

    def test_recorded_program_is_pinned(self, table):
        # the accumulation order, operands and operations of every term, as emitted
        text = emit_text(schoolbook_program(table))
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == SCHOOLBOOK_PROGRAM_SHA256

    @pytest.mark.parametrize("ring", ["float", "dyadic"])
    def test_same_results_as_the_indexed_loop(self, table, ring):
        assert_same_results_as_the_indexed_loop(table, ring)

    @pytest.mark.parametrize("ring", ["float", "dyadic"])
    @pytest.mark.parametrize("faulty", [flipped_table, holed_table], ids=("flipped", "holed"))
    def test_same_results_as_the_indexed_loop_on_a_faulty_table(self, table, faulty, ring):
        assert_same_results_as_the_indexed_loop(faulty(table), ring)

    def test_same_tape_as_the_indexed_loop(self, table):
        tapes = []
        for loop in (lambda a, b: mul_schoolbook(a, b, table).coeffs, lambda a, b: indexed_schoolbook(a, b, table)):
            rec = Recorder()
            out = loop(DiracNumber(rec.inputs("a", DIM), rec), DiracNumber(rec.inputs("b", DIM), rec))
            tapes.append((rec.tape, out))
        assert tapes[0] == tapes[1]

    @pytest.mark.parametrize("ring", ["float", "int", "dyadic", "counting"])
    def test_compiled_product_equals_the_loop(self, table, ring):
        # the ring's own mul_schoolbook runs table.schoolbook (over DYADIC on its integer lowering),
        # the looping twin the loop, on the same values with the same operations
        rng = random.Random(41)
        base = CountingRing() if ring == "counting" else {"float": FLOAT, "int": INTS, "dyadic": DYADIC}[ring]
        loop = LoopingRing(base)
        for _ in range(20 if ring == "dyadic" else 200):  # 4096-bit loops over DyadicRational objects are slow
            if ring == "float":
                share = rng.choice((0.02, 0.1, 0.25))
                av, bv = ([rng.choice(SPECIAL_FLOATS) if rng.random() < share else rng.uniform(-1e3, 1e3)
                           for _ in range(DIM)] for _ in range(2))
            elif ring == "dyadic":
                av, bv = ([DyadicRational(rng.getrandbits(4096) - (1 << 4095), rng.randint(0, 64))
                           for _ in range(DIM)] for _ in range(2))
            elif ring == "int":
                av, bv = ([rng.randint(-1 << 80, 1 << 80) for _ in range(DIM)] for _ in range(2))
            else:
                av, bv = ([base.wrap(rng.randint(3, 1 << 20) * 2 + 1) for _ in range(DIM)] for _ in range(2))
            before = base.counter.snapshot() if ring == "counting" else None
            got = mul_schoolbook(DiracNumber(av, base), DiracNumber(bv, base), table).coeffs
            middle = base.counter.snapshot() if ring == "counting" else None
            want = mul_schoolbook(DiracNumber(av, loop), DiracNumber(bv, loop), table).coeffs
            if ring == "float":
                # NaN exactly where the loop gives NaN, its sign bit unpinned: which C code of
                # CPython adds two NaNs decides it; every other output bit for bit
                assert [math.isnan(x) for x in got] == [math.isnan(y) for y in want]
                assert [x.hex() for x in got if not math.isnan(x)] == [y.hex() for y in want if not math.isnan(y)]
            else:
                assert got == want
            if ring == "counting":
                after = base.counter.snapshot()
                compiled, looped = ([q - p for p, q in zip(x, y)] for x, y in ((before, middle), (middle, after)))
                assert compiled == looped == [256, 240, 0, 0]
        if ring == "counting":
            school = count_operations()["schoolbook"]
            assert (school["nontrivial_mults"], school["additions"]) == (256, 240)

    def test_compiled_product_is_built_once_per_table(self, monkeypatch):
        built = {"record": [], "source": [], "load": []}
        for module, name, key in ((algebra, "record_schoolbook", "record"), (algebra, "function_source", "source"),
                                  (algebra, "load_source", "load")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, real=real, key=key: built[key].append(args) or real(*args))
        tables = [build_table_from_generators() for _ in range(2)]
        assert built == {"record": [], "source": [], "load": []}  # a table that never multiplies builds nothing
        a = DiracNumber.from_ints(range(DIM), FLOAT)
        for t in tables:
            for ring in (FLOAT, DYADIC, INTS):
                for _ in range(2):
                    mul_schoolbook(DiracNumber.from_ints(range(DIM), ring), DiracNumber.from_ints(range(DIM), ring), t)
        assert [id(args[0]) for args in built["record"]] == [id(t) for t in tables]
        assert len(built["source"]) == len(built["load"]) == len(tables)
        assert tables[0].schoolbook is tables[0].schoolbook is not tables[1].schoolbook
        assert tables[0].schoolbook_ints is tables[0].schoolbook_ints is not tables[1].schoolbook_ints
        for t in tables:
            native, ints = t.schoolbook, t.schoolbook_ints
            assert ints is not native and ints.__code__ is not native.__code__
            assert ints.__code__ == native.__code__
            for f in (native, ints):
                assert linecache.getline(f.__code__.co_filename, 1) == "def schoolbook(a, b):\n"
        assert mul_schoolbook(a, a, tables[1]) == mul_schoolbook(a, a, tables[0])

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="CPython 3.10 does not specialize")
    @pytest.mark.parametrize("first", [DYADIC, FLOAT], ids=("dyadic_first", "float_first"))
    def test_float_and_integer_products_specialize_apart(self, first):
        # each copy of the generated code keeps the specializations of the values it runs on
        if sys.gettrace() is not None:
            pytest.skip("CPython does not specialize code that runs under a tracer")
        table = build_table_from_generators()
        rng = random.Random(17)
        for ring in (first, FLOAT if first is DYADIC else DYADIC):
            for _ in range(128):
                a, b = (DiracNumber([ring.wrap(rng.randint(-99, 99)) for _ in range(DIM)], ring) for _ in range(2))
                mul_schoolbook(a, b, table)
        floats, ints = ({i.opname for i in dis.get_instructions(f, adaptive=True)}
                        for f in (table.schoolbook, table.schoolbook_ints))
        # both copies did specialize, each to its own kind of value alone
        assert any(op.endswith("_FLOAT") for op in floats) and any(op.endswith("_INT") for op in ints)
        assert not {op for op in floats if op.startswith("BINARY_OP_") and op.endswith("_INT")}
        assert not {op for op in ints if op.endswith("_FLOAT")}

    @pytest.mark.parametrize("ring", [INTS, FLOAT, DYADIC], ids=("int", "float", "dyadic"))
    def test_an_output_no_cell_writes_stays_none_as_in_the_loop(self, ring):
        # every cell i0: the table constructs, so that errata can report it, and writes output 0 alone
        table = MultTable([[(1, 0)] * DIM] * DIM)
        av, bv = [ring.wrap(k + 1) for k in range(DIM)], [ring.wrap(k + 2) for k in range(DIM)]
        got = mul_schoolbook(DiracNumber(av, ring), DiracNumber(bv, ring), table).coeffs
        loop = LoopingRing(ring)
        assert got == mul_schoolbook(DiracNumber(av, loop), DiracNumber(bv, loop), table).coeffs
        assert got == [sum(av[1:], av[0]) * sum(bv[1:], bv[0])] + [None] * (DIM - 1)

    def test_a_product_loads_no_slpgen(self):
        # the first product records and compiles through program alone, so set-up stays small
        code = ("import sys, diracmul as d; t = d.build_table_from_generators(); a = d.DiracNumber([1.5] * 16, d.FLOAT); "
                "e = d.DiracNumber.from_ints(range(16), d.DYADIC); d.mul_schoolbook(a, a, t); d.mul_schoolbook(e, e, t); "
                "sys.exit('diracmul.slpgen' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(algebra.__file__))}
        assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def assert_same_results_as_the_indexed_loop(table, ring):
    """``mul_schoolbook`` and :func:`indexed_schoolbook` agree on 200 random
    pairs over ``"float"`` (special operands included, compared bit for
    bit) or ``"dyadic"`` (compared by raw numerator and exponent, the
    indexed loop run on the operands lowered to integers and its sums
    lifted at ``ea + eb``, as ``mul_schoolbook`` runs over ``DYADIC``)."""
    rng = random.Random(23)
    for _ in range(200):
        if ring == "float":
            a, b = (DiracNumber([rng.choice(SPECIAL_FLOATS) if rng.random() < 0.25 else rng.uniform(-1e3, 1e3)
                                 for _ in range(DIM)], FLOAT) for _ in range(2))
            got = [float.hex(v) for v in mul_schoolbook(a, b, table).coeffs]
            assert got == [float.hex(v) for v in indexed_schoolbook(a, b, table)]
        else:
            a, b = (DiracNumber([DyadicRational(rng.randint(-1 << 70, 1 << 70), rng.randint(0, 9))
                                 for _ in range(DIM)], DYADIC) for _ in range(2))
            (an, ea), (bn, eb) = exact_ints(a.coeffs, DYADIC), exact_ints(b.coeffs, DYADIC)
            want = [(n, ea + eb) for n in indexed_schoolbook(DiracNumber(an, INTS), DiracNumber(bn, INTS), table)]
            assert [(v.num, v.exp) for v in mul_schoolbook(a, b, table).coeffs] == want


def indexed_schoolbook(a, b, table):
    """The schoolbook loop with an index and a ring lookup per term: the
    reference for the order of ``mul_schoolbook``'s operations."""
    ring = a.ring
    out = [None] * DIM
    for n in range(DIM):
        an = a.coeffs[n]
        row = table[n]
        for m in range(DIM):
            sign, k = row[m]
            p = ring.mul(an, b.coeffs[m])
            acc = out[k]
            if acc is None:
                out[k] = ring.neg(p) if sign < 0 else p
            elif sign < 0:
                out[k] = ring.sub(acc, p)
            else:
                out[k] = ring.add(acc, p)
    return out


def looped_b_matrix(b, table):
    """The product matrix as a double loop, one ``neg`` per negative cell:
    the reference for the entries of ``derive_b_matrix``."""
    ring = b.ring
    entries = [[None] * DIM for _ in range(DIM)]
    for n in range(DIM):
        for m in range(DIM):
            sign, k = table[n][m]
            val = b.coeffs[m]
            entries[k][n] = ring.neg(val) if sign < 0 else val
    return entries



class TestProductMatrix:
    @pytest.mark.parametrize("flipped", [False, True], ids=["shipped", "flipped"])
    @pytest.mark.parametrize("ring", ["ints", "dyadic", "float", "forms"])
    def test_same_entries_as_the_double_loop(self, table, ring, flipped):
        if flipped:
            table = flipped_table(table)
        rng = random.Random(29)
        if ring == "ints":
            operands, key = [rand_number(rng, INTS, -1 << 70, 1 << 70) for _ in range(50)], repr
        elif ring == "dyadic":  # raw numerators and exponents, not just values
            operands = [DiracNumber([DyadicRational(rng.randint(-1 << 70, 1 << 70), rng.randint(0, 9))
                                     for _ in range(DIM)], DYADIC) for _ in range(50)]
            key = lambda v: (v.num, v.exp)  # noqa: E731
        elif ring == "float":  # special coefficients included, compared bit for bit
            operands = [DiracNumber(SPECIAL_FLOATS + SPECIAL_FLOATS[:6], FLOAT)]
            operands += [DiracNumber([rng.choice(SPECIAL_FLOATS) if rng.random() < 0.3 else rng.uniform(-1e3, 1e3)
                                      for _ in range(DIM)], FLOAT) for _ in range(50)]
            key = float.hex
        else:
            operands, key = [symbolic_b()], repr
        for b in operands:
            got = [[key(v) for v in row] for row in derive_b_matrix(b, table).entries]
            assert got == [[key(v) for v in row] for row in looped_b_matrix(b, table)]

    def test_a_repeated_output_is_an_error_naming_the_row(self, table):
        holed = holed_table(table)  # constructs, so that errata can report it
        assert [(p, q) for p, q, _, _ in table_errata(holed, table)] == [(3, 5)]
        with pytest.raises(ValueError, match="table row 3 "):
            derive_b_matrix(DiracNumber.basis(0, INTS), holed)
        assert table.repeated_row is None

    def test_unit_gives_identity(self, table):
        b = DiracNumber.basis(0, INTS)
        mat = derive_b_matrix(b, table)
        for r in range(DIM):
            for c in range(DIM):
                assert mat.entries[r][c] == (1 if r == c else 0)

    def test_first_row_of_symbolic_matrix(self):
        mat = symbolic_b_matrix()
        signs = [1, 1, -1, -1, -1, 1, 1, 1, -1, -1, -1, -1, -1, -1, 1, -1]
        for n in range(DIM):
            expected = lf_from_b(n) if signs[n] > 0 else -lf_from_b(n)
            assert mat.entries[0][n] == expected

    def test_first_row_signs_equal_table_diagonal(self, table):
        mat = symbolic_b_matrix()
        diag = diagonal_signs(table)
        for n in range(DIM):
            assert mat.entries[0][n] == (lf_from_b(n) if diag[n] > 0 else -lf_from_b(n))

    def test_matrix_times_vector_equals_schoolbook(self, table):
        rng = random.Random(23)
        for _ in range(100):
            a = rand_number(rng)
            b = rand_number(rng)
            mat = derive_b_matrix(b, table)
            prod = [
                sum(mat.entries[k][n] * a.coeffs[n] for n in range(DIM)) for k in range(DIM)
            ]
            assert prod == mul_schoolbook(a, b, table).coeffs

    def test_each_coefficient_once_per_row_and_column(self):
        mat = symbolic_b_matrix()

        def index_of(form):
            terms = [(m, c) for m, c in enumerate(form.coeffs[1:]) if not c.is_zero()]
            assert len(terms) == 1
            return terms[0][0]

        for r in range(DIM):
            assert sorted(index_of(mat.entries[r][c]) for c in range(DIM)) == list(range(DIM))
        for c in range(DIM):
            assert sorted(index_of(mat.entries[r][c]) for r in range(DIM)) == list(range(DIM))

    def test_transcribed_matrix_first_row_matches(self):
        printed = parse_printed_b_matrix()
        derived = symbolic_b_matrix()
        assert printed.entries[0] == derived.entries[0]

    def test_transcribed_matrix_diff_matches_golden(self):
        diffs = cell_diffs(parse_printed_b_matrix(), symbolic_b_matrix())
        with open(os.path.join(GOLDEN, "b16_errata.txt"), encoding="ascii") as fh:
            golden = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
        got = [f"{r} {c} transcribed={p!r} derived={d!r}" for r, c, p, d in diffs]
        assert got == golden


class TestDiracNumber:
    def test_exactly_sixteen_coefficients(self):
        import pytest

        with pytest.raises(ValueError):
            DiracNumber([0] * 15, INTS)
        with pytest.raises(ValueError):
            DiracNumber([0] * 17, INTS)

    def test_repr_shows_the_coefficients(self):
        assert repr(DiracNumber.basis(2, INTS)) == f"DiracNumber({[0, 0, 1] + [0] * 13!r})"

    def test_equality_with_another_type_defers_to_it(self):
        # NotImplemented lets the right operand's reflected __eq__ answer
        x = DiracNumber.basis(2, INTS)
        assert x == ANY and not x != ANY
        assert x != x.coeffs

    def test_basis_and_zero_constructors(self):
        e3 = DiracNumber.basis(3, INTS)
        assert e3.coeffs[3] == 1 and sum(map(abs, e3.coeffs)) == 1
        assert all(v == 0 for v in DiracNumber.zero(INTS).coeffs)


class TestSymbolicHelpers:
    def test_symbolic_b_coefficients(self):
        b = symbolic_b()
        assert repr(b.coeffs[7]) == "b7"

    def test_schoolbook_over_dyadics_matches_ints(self, table):
        rng = random.Random(4)
        vals_a = [rng.randint(-99, 99) for _ in range(DIM)]
        vals_b = [rng.randint(-99, 99) for _ in range(DIM)]
        d = mul_schoolbook(
            DiracNumber.from_ints(vals_a, DYADIC), DiracNumber.from_ints(vals_b, DYADIC), table
        )
        i = mul_schoolbook(
            DiracNumber.from_ints(vals_a, INTS), DiracNumber.from_ints(vals_b, INTS), table
        )
        assert [as_int(v) for v in d.coeffs] == i.coeffs


def test_every_asset_reader_honours_the_asset_dir_override(tmp_path, monkeypatch):
    copy = tmp_path / "assets"
    shutil.copytree(default_asset_dir(), copy)
    monkeypatch.setenv("DIRAC_ASSET_DIR", str(copy))
    assert default_asset_dir() == str(copy)

    table_path = copy / "table_printed.txt"
    lines = table_path.read_text(encoding="ascii").splitlines()
    data = [i for i, ln in enumerate(lines) if ln.strip() and not ln.startswith("#")]
    row = lines[data[1]].split()
    assert row[2] == "5"
    row[2] = "-5"
    lines[data[1]] = " ".join(row)
    table_path.write_text("\n".join(lines) + "\n", encoding="ascii")
    assert parse_printed_table()[1][2] == SignedBasis(-1, 5)

    # derive reads its seeds from the override and writes where --out says
    (copy / "perm_in_16.txt").unlink()
    assert derive.main(["--out", str(copy)]) == 0
    assert (copy / "perm_in_16.txt").exists()

    assert len(derive.load_seed_matrices()) == 2
    (copy / "m8_diff.txt").unlink()
    with pytest.raises(OSError):
        derive.load_seed_matrices()

    (copy / "b16_printed.txt").unlink()
    with pytest.raises(OSError):
        parse_printed_b_matrix()


@pytest.mark.parametrize("token", ["-+5", "--5", "+-5", "5-"])
@pytest.mark.parametrize("name, parse", [("table_printed.txt", parse_printed_table),
                                         ("b16_printed.txt", parse_printed_b_matrix)])
def test_a_malformed_signed_index_is_an_error_naming_it(tmp_path, monkeypatch, token, name, parse):
    copy = tmp_path / "assets"
    shutil.copytree(default_asset_dir(), copy)
    monkeypatch.setenv("DIRAC_ASSET_DIR", str(copy))
    path = copy / name
    lines = path.read_text(encoding="ascii").splitlines()
    first = next(i for i, ln in enumerate(lines) if ln.strip() and not ln.startswith("#"))
    lines[first] = " ".join([token] + lines[first].split()[1:])
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    with pytest.raises(ValueError, match=re.escape(f"bad term '{token}'")):
        parse()


def test_asset_lines_drop_blank_and_comment_lines(tmp_path):
    path = tmp_path / "asset.txt"
    path.write_text("# head\n\n  a b  \n   # indented comment\r\nc\n", encoding="ascii")
    assert read_asset_lines(str(path)) == ["a b", "c"]


@pytest.mark.parametrize("name, read", [
    ("table_printed.txt", parse_printed_table),
    ("b16_printed.txt", parse_printed_b_matrix),
    ("m8_diff.txt", lambda: derive.load_cell_grid(os.path.join(default_asset_dir(), "m8_diff.txt"))),
])
def test_a_non_ascii_byte_is_an_error_naming_the_file(tmp_path, monkeypatch, name, read):
    copy = tmp_path / "assets"
    shutil.copytree(default_asset_dir(), copy)
    monkeypatch.setenv("DIRAC_ASSET_DIR", str(copy))
    path = copy / name
    lines = path.read_bytes().splitlines(keepends=True)
    lines.insert(2, b"# caf\xc3\xa9\n")
    path.write_bytes(b"".join(lines))
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 3: byte 0xc3 is not ASCII")):
        read()


def test_every_package_export_resolves():
    import diracmul

    assert [name for name in diracmul.__all__ if not hasattr(diracmul, name)] == []
