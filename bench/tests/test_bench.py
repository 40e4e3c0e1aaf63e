"""Smoke tests of the benchmark itself.

    python3 -m pytest -q bench/tests

Tiny runs of every workload print every metric named in BENCHMARK.json
with its unit and no mismatch; a deliberately wrong output is caught and
fails the run; the operation counts repeat and match the flattened
programs; and without the package beside it the benchmark refuses to run.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run as R  # noqa: E402
import workloads as W  # noqa: E402

from diracmul import algebra, fastmult  # noqa: E402
from diracmul.algebra import DiracNumber  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
    SPEC = json.load(fh)


def run_bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "7", "--seconds", "0.5", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_names_the_benchmarks_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(W.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(W.WORKLOADS))
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert re.search(rf"^ +{re.escape(name)} +\S+ {re.escape(unit)}$", proc.stdout, re.M), name
    assert re.search(r"^ +mismatch_share +0 share", proc.stdout, re.M)


def test_a_wrong_output_is_caught():
    table = algebra.build_table_from_generators()
    wl = W.WORKLOADS["float-stream"]
    pairs = wl.batch(random.Random(3))[:4]
    run = W.run_batch(wl, pairs, table)
    refs = W.references(pairs, run.school, table)
    assert W.count_mismatches(run.outs, refs) == 0
    wrong = list(run.outs)
    coeffs = list(wrong[2].coeffs)
    coeffs[5] += 0.5
    wrong[2] = DiracNumber(coeffs, wl.ring)
    assert W.count_mismatches(wrong, refs) == 1
    assert W.count_mismatches(wrong[:3], refs) == 2  # a missing output counts too


def test_a_wrong_product_fails_the_run(monkeypatch, capsys):
    real = fastmult.mul_fast
    calls = []

    def one_wrong_product(a, b, level=3, asset_dir=None):
        out = real(a, b, level, asset_dir)
        calls.append(1)
        if len(calls) == 5:
            out = DiracNumber([out.coeffs[0] + 1] + out.coeffs[1:], out.ring)
        return out

    monkeypatch.setattr(fastmult, "mul_fast", one_wrong_product)
    code = R.main(["--workload", "float-stream", "--seed", "1", "--seconds", "0.2"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1


def test_counts_repeat_and_match_the_program_histograms():
    first_tally, second_tally = R.Tally(), R.Tally()
    first, table = R.count_section(random.Random(1), first_tally)
    second, _ = R.count_section(random.Random(2), second_tally)
    assert first == second
    assert first_tally.failed == 0 and first_tally.attempted == 24
    # values measured at the commit that added the benchmark (264, not the nominal 256)
    assert first["exactnum.mults_per_product.fast_l3"][0] == 88
    assert first["exactnum.adds_per_product.fast_l3"][0] == 264
    assert first["exactnum.mults_per_product.schoolbook"][0] == 256
    assert first["exactnum.adds_per_product.schoolbook"][0] == 240
    assert table["fast_l3"]["adds"] == {"counting_ring": 264, "slp_histogram": 264}


def test_refuses_to_run_without_the_package():
    stripped = os.path.join(BENCH, "results", "stripped-checkout")
    shutil.rmtree(stripped, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(stripped, "bench"),
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), stripped)
    try:
        proc = run_bench(stripped, "float-stream", 0)
    finally:
        shutil.rmtree(stripped)
    assert proc.returncode != 0
    assert proc.stdout == ""
