import os
import random
import shutil

import pytest

from diracmul.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_number_file(path, values):
    path.write_text(" ".join(str(v) for v in values) + "\n")
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
        (dst / "perm_out_28.txt").write_text("kind signed_perm\nsize 28\nsrc 1\nsigns +\n")
        monkeypatch.setenv("DIRAC_ASSET_DIR", str(dst))
        code, out, err = run(capsys, "verify", "--level", "3", "--iters", "1")
        assert code == 1
        assert "perm_out_28" in out + err

    def test_zero_iters_skips_the_oracle(self, capsys):
        code, out, _ = run(capsys, "verify", "--level", "1", "--iters", "0")
        assert code == 0
        assert "level 1: oracle equivalence 0/0 products match" in out

    @pytest.mark.parametrize("iters", ["-3", "x"])
    def test_bad_iters_is_a_usage_error(self, capsys, iters):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--iters", iters])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage: diracmul verify" in err and "--iters" in err


class TestCount:
    def test_reports_measured_counts(self, capsys):
        code, out, _ = run(capsys, "count")
        assert code == 0
        assert "schoolbook: mul=256 add=240" in out
        assert "fast (level 3): mul=88 add=198" in out
        assert "precompute: mul=0 add=52" in out
        assert "apply: mul=88 add=146" in out
        assert "core stage: mul=88 add=110" in out
        assert "structural stages: add=88" in out
        assert "savings vs schoolbook: 168 multiplications" in out
        assert "40 multiplications" in out
        assert "total ops fast=286, schoolbook=496, ratio=0.58" in out
        assert "measured mul=88 add=198 (110 core + 88 structural), within budget" in out

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "count")
        _, second, _ = run(capsys, "count")
        assert first == second


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
        assert "52 fewer adds" in out

    @pytest.mark.parametrize("iters", ["0", "-1"])
    def test_iters_below_one_is_a_usage_error(self, capsys, iters):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--iters", iters])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage: diracmul bench" in err and "must be at least 1" in err

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
        header = out_file.read_text().splitlines()[0]
        assert header == "# mul=88 add=198 neg=67 shift=32"

    @pytest.mark.parametrize("level,mul", [(1, 112), (2, 92)])
    def test_slp_lower_levels(self, capsys, tmp_path, level, mul):
        out_file = tmp_path / f"program{level}.slp"
        code, _, _ = run(capsys, "emit", "slp", str(out_file), "--level", str(level))
        assert code == 0
        header = out_file.read_text().splitlines()[0]
        adds = {1: 192, 2: 204}[level]
        assert header.startswith(f"# mul={mul} add={adds} ")

    def test_slp_refuses_a_pipeline_that_fails_its_proof(self, capsys, tmp_path, monkeypatch):
        from diracmul import fastmult

        dst = tmp_path / "assets"
        shutil.copytree(fastmult.default_asset_dir(), dst)
        perm = dst / "perm_in_16.txt"
        lines = perm.read_text().splitlines()
        signs = next(i for i, ln in enumerate(lines) if ln.startswith("signs "))
        assert lines[signs].startswith("signs + ")
        lines[signs] = "signs - " + lines[signs][len("signs + "):]
        perm.write_text("\n".join(lines) + "\n")
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
            header = (out_dir / name).read_text().splitlines()[0]
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

    def test_slp_into_a_missing_directory_is_a_usage_error(self, capsys, tmp_path):
        out_file = tmp_path / "missing" / "program.slp"
        code, out, err = run(capsys, "emit", "slp", str(out_file), "--level", "1")
        assert code == 2
        assert err.startswith("error: ") and str(out_file) in err
        assert out == ""

    def test_matrices_onto_an_existing_file_is_a_usage_error(self, capsys, tmp_path):
        out_file = tmp_path / "stages"
        out_file.write_text("not a directory\n")
        code, out, err = run(capsys, "emit", "matrices", str(out_file), "--level", "1")
        assert code == 2
        assert err.startswith("error: ") and str(out_file) in err
        assert out == ""
