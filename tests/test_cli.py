import hashlib
import os
import random
import shutil

import pytest

from diracmul import cli, fastmult
from diracmul.algebra import DIM, DiracNumber, derive_b_matrix, mul_schoolbook
from diracmul.cli import bench_pairs, main, matrix_reference, random_coeffs
from diracmul.exactnum import DYADIC, FLOAT, INTS, DyadicRational
from helpers import LoopingRing, flipped_table, holed_table


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_number_file(path, values):
    path.write_text(" ".join(str(v) for v in values) + "\n", encoding="ascii")
    return str(path)


BASIS = [0] * 16


def basis_file(tmp_path, name, index):
    values = list(BASIS)
    values[index] = 1
    return write_number_file(tmp_path / name, values)


class TestVerify:
    def test_level3_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--level", "3", "--seed", "42", "--iters", "50")
        assert code == 0
        assert "level 3: symbolic 256/256 entries match" in out
        assert "table associativity: 4096/4096" in out
        assert out.strip().endswith("OK")

    def test_all_levels_agree(self, capsys):
        code, out, _ = run(capsys, "verify", "--level", "all", "--iters", "5")
        assert code == 0
        for level in (1, 2, 3):
            assert f"level {level}: symbolic 256/256 entries match" in out

    def test_corrupted_asset_fails_naming_stage(self, capsys, tmp_path, monkeypatch):
        from diracmul import fastmult

        src = fastmult.default_asset_dir()
        dst = tmp_path / "assets"
        shutil.copytree(src, dst)
        (dst / "perm_out_28.txt").write_text("+0\n", encoding="ascii")
        monkeypatch.setenv("DIRAC_ASSET_DIR", str(dst))
        code, out, err = run(capsys, "verify", "--level", "3", "--iters", "1")
        assert code == 1
        assert "perm_out_28" in out + err

    def test_a_second_line_of_terms_fails_naming_the_stage(self, capsys, tmp_path, monkeypatch):
        from diracmul import fastmult

        dst = tmp_path / "assets"
        shutil.copytree(fastmult.default_asset_dir(), dst)
        path = dst / "signs_out_16.txt"
        path.write_text(path.read_text(encoding="ascii") + " ".join(f"+{i}" for i in range(16)) + "\n",
                        encoding="ascii")
        monkeypatch.setenv("DIRAC_ASSET_DIR", str(dst))
        code, _, err = run(capsys, "verify", "--level", "3")
        assert code == 1
        assert err == "FAIL: stage signs_out_16.txt: expected one line of terms, got 2 lines\n"

    def test_a_non_ascii_byte_in_a_stage_fails_naming_it(self, capsys, tmp_path, monkeypatch):
        dst = tmp_path / "assets"
        shutil.copytree(fastmult.default_asset_dir(), dst)
        path = dst / "signs_out_16.txt"
        path.write_text(path.read_text(encoding="ascii") + "# caf\u00e9\n", encoding="utf-8")
        monkeypatch.setenv("DIRAC_ASSET_DIR", str(dst))
        code, _, err = run(capsys, "verify", "--level", "3", "--iters", "1")
        assert code == 1
        assert err.startswith("FAIL: stage signs_out_16.txt: ")
        assert err.endswith(": byte 0xc3 is not ASCII\n")

    @pytest.mark.parametrize("token", ["+1_1", "+01"], ids=["underscore", "leading-zero"])
    def test_a_stage_integer_not_as_written_fails_naming_it(self, capsys, tmp_path, monkeypatch, token):
        dst = tmp_path / "assets"
        shutil.copytree(fastmult.default_asset_dir(), dst)
        path = dst / "perm_in_16.txt"
        text = path.read_text(encoding="ascii")
        assert " +1 " in text
        path.write_text(text.replace(" +1 ", f" {token} ", 1), encoding="ascii")
        monkeypatch.setenv("DIRAC_ASSET_DIR", str(dst))
        code, _, err = run(capsys, "verify", "--level", "1", "--iters", "1")
        assert code == 1
        assert err == f"FAIL: stage perm_in_16.txt: bad term {token!r}\n"

    @pytest.mark.parametrize("old, new, message", [
        ("+0 +5 +10 +15\n", "+0 +5 +10\n", "core cell has 3 terms"),
        ("+0 +5 +10 +15\n", "+0 +1 +2 +3\n", "core cell +0 +1 +2 +3 does not split over the quad pools"),
        ("block q0 4 halved quad", "block q0 4 halved quint", "unknown pool family 'quint'"),
        ("+0 +5 +10 +15\n", "+0 +5 +10 +16\n", "core cell +0 +5 +10 +16 draws on a coefficient outside b0..b15"),
    ], ids=["three-terms", "no-split", "unknown-family", "outside-b"])
    def test_a_bad_core_cell_fails_naming_its_block(self, capsys, tmp_path, monkeypatch, old, new, message):
        dst = tmp_path / "assets"
        shutil.copytree(fastmult.default_asset_dir(), dst)
        path = dst / "blocks_level3.txt"
        path.write_text(path.read_text(encoding="ascii").replace(old, new, 1), encoding="ascii")
        monkeypatch.setenv("DIRAC_ASSET_DIR", str(dst))
        code, _, err = run(capsys, "verify", "--level", "3", "--iters", "1")
        assert code == 1
        assert err == f"FAIL: stage blocks_level3.txt: block q0: {message}\n"

    def test_a_non_associative_table_fails(self, capsys, monkeypatch):
        build = cli.build_table_from_generators
        monkeypatch.setattr(cli, "build_table_from_generators", lambda: flipped_table(build()))
        code, out, _ = run(capsys, "verify", "--level", "3", "--iters", "5")
        assert code == 1
        assert "table associativity: 4040/4096 triples pass\n" in out
        assert out.endswith("FAIL: table associativity\n")

    def test_zero_iters_skips_the_oracle(self, capsys):
        code, out, _ = run(capsys, "verify", "--level", "1", "--iters", "0")
        assert code == 0
        assert "level 1: oracle equivalence 0/0 products match" in out

    def test_exact_stdout(self, capsys):
        code, out, _ = run(capsys, "verify", "--level", "all", "--seed", "42", "--iters", "20")
        assert code == 0
        assert out == (
            "table associativity: 4096/4096 triples pass\n"
            "level 1: symbolic 256/256 entries match\n"
            "level 2: symbolic 256/256 entries match\n"
            "level 3: symbolic 256/256 entries match\n"
            "level 1: oracle equivalence 20/20 products match\n"
            "level 2: oracle equivalence 20/20 products match\n"
            "level 3: oracle equivalence 20/20 products match\n"
            "OK\n"
        )

    def test_all_levels_share_one_reference_per_pair(self, capsys, monkeypatch):
        calls, school = [], []
        monkeypatch.setattr(cli, "matrix_reference", lambda *args: calls.append(args) or matrix_reference(*args))
        monkeypatch.setattr(cli, "mul_schoolbook", lambda *args: school.append(args) or mul_schoolbook(*args))
        code, _, _ = run(capsys, "verify", "--level", "all", "--iters", "5")
        assert code == 0
        assert len(calls) == 5
        assert school == []

    @pytest.mark.parametrize("iters", ["-3", "x"])
    def test_bad_iters_is_a_usage_error(self, capsys, iters):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--iters", iters])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage: diracmul verify" in err and "--iters" in err


def dyadic_reference_mismatches(level, n, seed, table):
    """``oracle_compare`` with a ``DYADIC`` reference, whose counts it must equal."""
    rng = random.Random(seed)
    mismatches = 0
    for _ in range(n):
        a = DiracNumber.from_ints(random_coeffs(rng), DYADIC)
        b = DiracNumber.from_ints(random_coeffs(rng), DYADIC)
        mismatches += not cli.mul_fast(a, b, level) == mul_schoolbook(a, b, table)
    return mismatches


def flip_sign(asset_dir, name, position):
    """Flip the sign of one term of the signed permutation stored in ``name``."""
    path = asset_dir / name
    comment, line = path.read_text(encoding="ascii").splitlines()
    terms = line.split()
    terms[position] = {"+": "-", "-": "+"}[terms[position][0]] + terms[position][1:]
    path.write_text(f"{comment}\n{' '.join(terms)}\n", encoding="ascii")


class TestOracle:
    # the seeds of verify (its default and the documented 42) and of the
    # benchmark verdict (seed + 10 * level + chunk)
    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_integer_reference_is_the_dyadic_one(self, table, level):
        for seed in [0, 42] + [7 + 10 * level + chunk for chunk in range(10)]:
            rng = random.Random(seed)
            for _ in range(5):
                av, bv = random_coeffs(rng), random_coeffs(rng)
                ints = matrix_reference(av, bv, table)
                dyadic = mul_schoolbook(DiracNumber.from_ints(av, DYADIC), DiracNumber.from_ints(bv, DYADIC),
                                        table).coeffs
                assert [(c.num, c.exp) for c in dyadic] == [(v, 0) for v in ints]
                assert all(type(v) is int for v in ints)

    def test_draws_are_those_of_randint(self):
        seeds = [0, 42] + [s + 10 * level + chunk for s in (7, 987654321) for level in (1, 2, 3) for chunk in range(10)]
        for seed in seeds:
            drawn, called = random.Random(seed), random.Random(seed)
            for _ in range(40):
                assert random_coeffs(drawn) == [called.randint(-(1 << 20), 1 << 20) for _ in range(16)]

    def test_draws_at_the_edges_of_the_span_are_those_of_randint(self):
        class Replayed(random.Random):
            """getrandbits replays bits at and just past the span's ends."""

            def __init__(self):
                super().__init__(0)
                self.bits = iter([(1 << 21) + 1, (1 << 22) - 1, 1 << 21, 0, 1 << 20] * 6)

            def getrandbits(self, k):
                return next(self.bits)

        called = Replayed()
        want = [called.randint(-(1 << 20), 1 << 20) for _ in range(16)]
        assert random_coeffs(Replayed()) == want
        assert set(want) == {-(1 << 20), 0, 1 << 20}

    def test_reference_is_the_derived_matrix_times_a(self, table):
        rng = random.Random(31)
        for _ in range(20):
            av, bv = random_coeffs(rng), random_coeffs(rng)
            rows = derive_b_matrix(DiracNumber(bv, INTS), table).entries
            assert matrix_reference(av, bv, table) == [sum(m * x for m, x in zip(row, av)) for row in rows]

    def test_reference_on_a_holed_table_names_the_row(self, table):
        holed = holed_table(table)
        with pytest.raises(ValueError, match="table row 3 ") as reference:
            matrix_reference(list(range(16)), list(range(16)), holed)
        with pytest.raises(ValueError) as derived:
            derive_b_matrix(DiracNumber(list(range(16)), INTS), holed)
        assert str(reference.value) == str(derived.value)

    def test_counts_equal_on_the_shipped_assets(self, table):
        for level in (1, 2, 3):
            assert cli.oracle_compare(level, 10, 5, table) == dyadic_reference_mismatches(level, 10, 5, table) == 0

    @pytest.mark.parametrize("name, position", [("signs_out_16.txt", 1), ("perm_in_30.txt", 5)])
    def test_counts_equal_on_a_faulty_asset(self, table, tmp_path, monkeypatch, name, position):
        dst = tmp_path / "assets"
        shutil.copytree(fastmult.default_asset_dir(), dst)
        flip_sign(dst, name, position)
        monkeypatch.setenv("DIRAC_ASSET_DIR", str(dst))
        assert not fastmult.verify_pipeline(3).ok  # it assembles and runs, and is wrong
        got = cli.oracle_compare(3, 20, 11, table)
        assert got == dyadic_reference_mismatches(3, 20, 11, table) > 0

    def test_verify_all_reports_each_level_s_count_on_a_faulty_asset(self, capsys, table, tmp_path, monkeypatch):
        dst = tmp_path / "assets"
        shutil.copytree(fastmult.default_asset_dir(), dst)
        flip_sign(dst, "signs_out_16.txt", 1)
        monkeypatch.setenv("DIRAC_ASSET_DIR", str(dst))
        code, out, _ = run(capsys, "verify", "--level", "all", "--seed", "11", "--iters", "20")
        assert code == 1
        lines = out.splitlines()
        assert lines[-1] == "FAIL: symbolic identity level 1"
        wrong = [dyadic_reference_mismatches(level, 20, 11, table) for level in (1, 2, 3)]
        assert all(wrong)
        assert lines[4:7] == [f"level {level}: oracle equivalence {20 - n}/20 products match"
                              for level, n in zip((1, 2, 3), wrong)]

    def test_a_float_coefficient_is_a_mismatch(self, table, monkeypatch):
        fast = fastmult.mul_fast

        def faulty(a, b, level):  # the right value, as a float, when a0 is odd
            out = fast(a, b, level)
            if a.coeffs[0].num % 2:
                out.coeffs[3] = float(out.coeffs[3])
            return out

        monkeypatch.setattr(cli, "mul_fast", faulty)
        got = cli.oracle_compare(2, 40, 3, table)
        assert 0 < got < 40
        assert got == dyadic_reference_mismatches(2, 40, 3, table)

    def test_counts_equal_when_only_some_products_are_wrong(self, table, monkeypatch):
        fast = fastmult.mul_fast

        def faulty(a, b, level):  # wrong exactly when a0 is odd
            out = fast(a, b, level)
            if a.coeffs[0].num % 2:
                out.coeffs[3] = -out.coeffs[3]
            return out

        monkeypatch.setattr(cli, "mul_fast", faulty)
        got = cli.oracle_compare(2, 40, 3, table)
        assert 0 < got < 40
        assert got == dyadic_reference_mismatches(2, 40, 3, table)

    def test_counts_exactly_the_corrupted_pairs_at_each_level(self, table, monkeypatch):
        fast = fastmult.mul_fast
        pairs = dict.fromkeys((1, 2, 3), 0)  # per level, the pairs multiplied so far
        corrupted = dict.fromkeys((1, 2, 3), 0)

        def faulty(a, b, level):  # every third pair, a different third at each level, one coefficient off
            out = fast(a, b, level)
            if pairs[level] % 3 == level - 1:
                out.coeffs[pairs[level] % DIM] += DyadicRational(1, 30)
                corrupted[level] += 1
            pairs[level] += 1
            return out

        monkeypatch.setattr(cli, "mul_fast", faulty)
        assert cli.oracle_mismatches((1, 2, 3), 20, 5, table) == corrupted == {1: 7, 2: 7, 3: 6}
        assert pairs == dict.fromkeys((1, 2, 3), 20)


class TestCount:
    def test_reports_measured_counts(self, capsys):
        # the whole report: a count changes only with an edit here
        code, out, _ = run(capsys, "count")
        assert code == 0
        assert out == (
            "schoolbook: mul=256 add=240\n"
            "fast (level 1): mul=112 add=192 neg=8 shift=16\n"
            "fast (level 2): mul=92 add=202 neg=8 shift=24\n"
            "fast (level 3): mul=88 add=196 neg=8 shift=32\n"
            "precompute: mul=0 add=50 neg=0 shift=32\n"
            "apply: mul=88 add=146 neg=8 shift=0\n"
            "core stage: mul=88 add=108\n"
            "structural stages: add=88\n"
            "savings vs schoolbook: 168 multiplications\n"
            "savings vs the earlier published scheme (128 multiplications): 40 multiplications\n"
            "total ops fast=284, schoolbook=496, ratio=0.57\n"
            "nominal budget mul=88 add=256: measured mul=88 add=196 (108 core + 88 structural), within budget\n"
        )

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "count")
        _, second, _ = run(capsys, "count")
        assert first == second

    def test_the_benchmark_reads_the_counts_through_the_cli(self):
        # bench/run.py calls cli.count_operations(), which the CLI imports from fastmult
        assert cli.count_operations is fastmult.count_operations


class TestMul:
    def test_unit_times_anything(self, capsys, tmp_path):
        a = basis_file(tmp_path, "a.txt", 0)
        b = write_number_file(tmp_path / "b.txt", list(range(16)))
        code, out, _ = run(capsys, "mul", a, b)
        assert code == 0
        assert out.split() == [str(v) for v in range(16)]

    def test_basis_product(self, capsys, tmp_path):
        a = basis_file(tmp_path, "i2.txt", 2)
        b = basis_file(tmp_path, "i3.txt", 3)
        code, out, _ = run(capsys, "mul", a, b)
        assert code == 0
        expected = list(BASIS)
        expected[8] = 1
        assert out.split() == [str(v) for v in expected]

    def test_methods_agree_exactly(self, capsys, tmp_path):
        rng = random.Random(33)
        a = write_number_file(tmp_path / "a.txt", [rng.randint(-9999, 9999) for _ in range(16)])
        b = write_number_file(tmp_path / "b.txt", [rng.randint(-9999, 9999) for _ in range(16)])
        _, fast_out, _ = run(capsys, "mul", a, b, "--method", "fast")
        _, school_out, _ = run(capsys, "mul", a, b, "--method", "schoolbook")
        assert fast_out == school_out

    def test_dyadic_tokens(self, capsys, tmp_path):
        values = ["3/2^1"] + ["0"] * 15
        a = write_number_file(tmp_path / "a.txt", values)
        b = basis_file(tmp_path, "b.txt", 0)
        code, out, _ = run(capsys, "mul", a, b)
        assert code == 0
        assert out.split()[0] == "3/2^1"

    def test_float_mode_methods_agree_within_tolerance(self, capsys, tmp_path):
        rng = random.Random(7)
        a = write_number_file(tmp_path / "a.txt", [round(rng.uniform(-10, 10), 6) for _ in range(16)])
        b = write_number_file(tmp_path / "b.txt", [round(rng.uniform(-10, 10), 6) for _ in range(16)])
        _, fast_out, _ = run(capsys, "mul", a, b, "--mode", "float", "--method", "fast")
        _, school_out, _ = run(capsys, "mul", a, b, "--mode", "float", "--method", "schoolbook")
        fast_vals = [float(t) for t in fast_out.split()]
        school_vals = [float(t) for t in school_out.split()]
        for x, y in zip(fast_vals, school_vals):
            assert abs(x - y) / max(1.0, abs(y)) <= 1e-12

    def test_parse_error_exit_code(self, capsys, tmp_path):
        a = write_number_file(tmp_path / "a.txt", ["x"] + ["0"] * 15)
        b = basis_file(tmp_path, "b.txt", 0)
        code, _, err = run(capsys, "mul", a, b)
        assert code == 2
        assert "token 1" in err

    @pytest.mark.parametrize("token", ["1_5", "+3", "1/2^0_3"])
    def test_a_dyadic_token_not_as_written_is_a_parse_error(self, capsys, tmp_path, token):
        a = write_number_file(tmp_path / "a.txt", ["0"] * 15 + [token])
        b = basis_file(tmp_path, "b.txt", 0)
        code, out, err = run(capsys, "mul", a, b)
        assert (code, out) == (2, "")
        assert f"token 16 ({token!r})" in err

    def test_a_non_ascii_byte_is_a_parse_error(self, capsys, tmp_path):
        a = tmp_path / "a.txt"
        a.write_bytes(b"1 2 3\xff" + b" 0" * 13 + b"\n")
        b = basis_file(tmp_path, "b.txt", 0)
        code, out, err = run(capsys, "mul", str(a), b)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {a}: ") and "0xff" in err

    def test_wrong_arity_exit_code(self, capsys, tmp_path):
        a = write_number_file(tmp_path / "a.txt", [1, 2, 3])
        b = basis_file(tmp_path, "b.txt", 0)
        code, _, err = run(capsys, "mul", a, b)
        assert code == 2
        assert "expected 16 numbers" in err

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mul", "--method", "bogus", "a", "b"])
        assert exc.value.code == 2


class TestBench:
    def test_smoke_run(self, capsys):
        code, out, _ = run(capsys, "bench", "--iters", "1")
        assert code == 0
        assert "schoolbook:" in out
        assert "fast:" in out
        assert "apply (amortized):" in out
        assert "counting cross-check" in out
        assert "50 fewer adds" in out

    @pytest.mark.parametrize("iters", ["0", "-1"])
    def test_iters_below_one_is_a_usage_error(self, capsys, iters):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--iters", iters])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage: diracmul bench" in err and "must be at least 1" in err

    def test_compiled_schoolbook_equals_the_loop(self, table):
        loop = LoopingRing(FLOAT)
        for av, bv in bench_pairs(50, 0):
            got = mul_schoolbook(DiracNumber(av, FLOAT), DiracNumber(bv, FLOAT), table).coeffs  # the code bench times
            want = mul_schoolbook(DiracNumber(av, loop), DiracNumber(bv, loop), table).coeffs
            assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_input_stream_is_seed_deterministic(self):
        from diracmul.cli import random_coeffs

        assert random_coeffs(random.Random(9)) == random_coeffs(random.Random(9))
        assert random_coeffs(random.Random(9)) != random_coeffs(random.Random(10))


class TestErrata:
    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "errata")
        _, second, _ = run(capsys, "errata")
        assert first == second

    def test_committed_document_is_current(self, capsys):
        errata_path = os.path.join(os.path.dirname(__file__), "..", "ERRATA.txt")
        with open(errata_path, encoding="ascii") as fh:
            committed = fh.read()
        _, live, _ = run(capsys, "errata")
        assert committed == live

    @pytest.mark.parametrize("edit, message", [
        (lambda path: path.unlink(), "table_printed.txt: [Errno 2] No such file"),
        (lambda path: path.write_text(path.read_text(encoding="ascii").replace("\n0 1 2 3 ", "\n-+5 1 2 3 ", 1),
                                      encoding="ascii"),
         "table_printed.txt: bad term '-+5'\n"),
        (lambda path: path.write_text(path.read_text(encoding="ascii").rsplit("\n15 ", 1)[0] + "\n",
                                      encoding="ascii"),
         "table_printed.txt: expected 16 rows, got 15\n"),
        (lambda path: path.write_text(path.read_text(encoding="ascii").replace(" 13 14 15\n", " 13 14\n", 1),
                                      encoding="ascii"),
         "table_printed.txt: expected 16 tokens per row: '0 1 2 3 4 5 6 7 8 9 10 11 12 13 14'\n"),
    ], ids=("missing", "malformed", "a-row-short", "a-token-short"))
    def test_a_bad_transcription_fails_naming_it(self, capsys, tmp_path, monkeypatch, edit, message):
        dst = tmp_path / "assets"
        shutil.copytree(fastmult.default_asset_dir(), dst)
        edit(dst / "table_printed.txt")
        monkeypatch.setenv("DIRAC_ASSET_DIR", str(dst))
        code, out, err = run(capsys, "errata")
        assert (code, out) == (1, "")
        assert err.startswith(f"FAIL: {message}") and err.count("\n") == 1

    def test_a_flipped_transcription_cell_is_reported_as_signed_bases(self, capsys, tmp_path, monkeypatch):
        dst = tmp_path / "assets"
        shutil.copytree(fastmult.default_asset_dir(), dst)
        path = dst / "table_printed.txt"
        path.write_text(path.read_text(encoding="ascii").replace("\n0 1 2 3 ", "\n0 1 2 -3 ", 1), encoding="ascii")
        monkeypatch.setenv("DIRAC_ASSET_DIR", str(dst))
        code, out, _ = run(capsys, "errata")
        assert code == 0
        assert ("1 differing cells\n"
                "  row 0 col 3: transcribed SignedBasis(sign=-1, index=3) derived SignedBasis(sign=1, index=3)\n") in out

    def test_sections_present(self, capsys):
        _, out, _ = run(capsys, "errata")
        assert "multiplication table: transcription vs derived" in out
        assert "identical in all 256 cells" in out
        assert "product matrix: transcription vs derived" in out
        assert "constant stages: derived vs displayed forms" in out
        assert "reconstruction notes" in out


class TestEmit:
    def test_slp_header(self, capsys, tmp_path):
        out_file = tmp_path / "program.slp"
        code, _, _ = run(capsys, "emit", "slp", str(out_file))
        assert code == 0
        header = out_file.read_text(encoding="ascii").splitlines()[0]
        assert header == "# mul=88 add=196 neg=8 shift=32"

    @pytest.mark.parametrize("level,mul", [(1, 112), (2, 92)])
    def test_slp_lower_levels(self, capsys, tmp_path, level, mul):
        out_file = tmp_path / f"program{level}.slp"
        code, _, _ = run(capsys, "emit", "slp", str(out_file), "--level", str(level))
        assert code == 0
        header = out_file.read_text(encoding="ascii").splitlines()[0]
        adds = {1: 192, 2: 202}[level]
        assert header.startswith(f"# mul={mul} add={adds} ")

    def test_slp_refuses_a_pipeline_that_fails_its_proof(self, capsys, tmp_path, monkeypatch):
        from diracmul import fastmult

        dst = tmp_path / "assets"
        shutil.copytree(fastmult.default_asset_dir(), dst)
        perm = dst / "perm_in_16.txt"
        comment, line = perm.read_text(encoding="ascii").splitlines()
        assert line.startswith("+0 ")
        perm.write_text(f"{comment}\n-{line[1:]}\n", encoding="ascii")
        monkeypatch.setenv("DIRAC_ASSET_DIR", str(dst))
        out_file = tmp_path / "program.slp"
        # level 1 loads perm_in_16; the flip still parses as a signed permutation
        code, out, err = run(capsys, "emit", "slp", str(out_file), "--level", "1")
        assert code == 1
        assert err == "FAIL: pipeline does not verify; refusing to emit\n"
        assert out == ""
        assert not out_file.exists()

    def test_matrices_dimensions(self, capsys, tmp_path):
        out_dir = tmp_path / "stages"
        code, _, _ = run(capsys, "emit", "matrices", str(out_dir))
        assert code == 0
        files = sorted(os.listdir(out_dir))
        assert len(files) == 17
        dims = []
        for name in files:
            header = (out_dir / name).read_text(encoding="ascii").splitlines()[0]
            rows, cols = (int(t) for t in header.split())
            dims.append((rows, cols))
        assert dims[0] == (16, 16)
        assert (30, 30) in dims
        # input side: pairs, butterflies, sums 24, 28, 30, closing butterfly, core order
        assert dims[:8] == [(16, 16), (16, 16), (24, 16), (28, 24), (30, 28), (30, 30), (30, 30), (30, 30)]
        assert dims[-1] == (16, 16)
        # the chain composes: each stage consumes what the previous produced
        for earlier, later in zip(dims[:-1], dims[1:]):
            assert later[1] == earlier[0]

    GOLDEN = {  # sha256 of the files emit matrices writes (each name, then its text), and of program.source
        1: ("dd8d8efa843d046213bdd86cd480ff2647287211713170d9124432c68c3c8430",
            "02ee1b75c2f6aa6f629321e41a71c4e4e56e05f8b4fb2d9a49437e76d3cea813"),
        2: ("87641dc6bdb6a3478093f49ec6eaf7bdea627b747c9ce692d0a4c8562ac0ab9c",
            "84b7b2eab98b041be2c5ab5f6b7d0c34bbd27acbdc1d0763d2b58dbac9250f97"),
        3: ("3ab09c4708b4894c8bd2d25d075b2369d5d61d06459f920cfe454ef1225541e3",
            "024261a4c4931ca0d1a1e692484f1909377046672a11abdd716f87f5c5edc7e0"),
    }

    @pytest.mark.parametrize("level", GOLDEN)
    def test_stage_matrices_and_program_source_are_golden(self, capsys, tmp_path, level):
        out_dir = tmp_path / "stages"
        assert run(capsys, "emit", "matrices", str(out_dir), "--level", str(level))[0] == 0
        files = hashlib.sha256()
        for name in sorted(os.listdir(out_dir)):
            files.update(f"{name}\n".encode("ascii") + (out_dir / name).read_bytes())
        source = hashlib.sha256(fastmult.assemble_pipeline(level).program.source.encode("ascii"))
        assert (files.hexdigest(), source.hexdigest()) == self.GOLDEN[level]

    def test_slp_into_a_missing_directory_is_a_usage_error(self, capsys, tmp_path):
        out_file = tmp_path / "missing" / "program.slp"
        code, out, err = run(capsys, "emit", "slp", str(out_file), "--level", "1")
        assert code == 2
        assert err.startswith("error: ") and str(out_file) in err
        assert out == ""

    def test_matrices_onto_an_existing_file_is_a_usage_error(self, capsys, tmp_path):
        out_file = tmp_path / "stages"
        out_file.write_text("not a directory\n", encoding="ascii")
        code, out, err = run(capsys, "emit", "matrices", str(out_file), "--level", "1")
        assert code == 2
        assert err.startswith("error: ") and str(out_file) in err
        assert out == ""
