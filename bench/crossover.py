"""Informational crossover sweep: where do 88 multiplications beat 256?

    python3 bench/crossover.py --seed 1 --seconds 3

Times the level-3 fast product against the schoolbook product, pair by
pair, on floats and on DYADIC with full-width signed numerators of 64,
1024, 4096 and 16384 bits (exponents 0..64).  Every output is checked
bit-exact.  This is not one of the benchmark's workloads and has no
bound; the fast/schoolbook time ratio is the result.  Writes
``bench/results/crossover.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
from functools import partial

import workloads as W
from run import RESULTS, Tally, provenance

from diracmul import algebra
from diracmul.exactnum import DYADIC, FLOAT

WIDTHS = (64, 1024, 4096, 16384)


def sweep(seed: int, seconds: float) -> list[dict]:
    table = algebra.build_table_from_generators()
    cases = [("float", FLOAT, W.float_coeffs, 64)]
    cases += [(f"dyadic-{bits}", DYADIC, partial(W.wide_dyadic_coeffs, bits=bits), 4) for bits in WIDTHS]
    rows = []
    for label, ring, coeffs, per_batch in cases:
        wl = W.Workload(label, ring, coeffs, per_batch, False, 1.0, 1, 1.0)
        rng, tally = random.Random(seed), Tally()
        fast, school = [], []
        deadline = W.perf_counter() + seconds
        while not fast or W.perf_counter() < deadline:
            pairs = wl.batch(rng)
            run = W.run_batch(wl, pairs, table)
            refs = W.references(pairs, run.school, table)
            tally.products(run.outs, refs)
            tally.products(run.school, refs)
            fast.extend(run.fast_s)
            school.extend(run.school_s)
        f, s = statistics.median(fast), statistics.median(school)
        rows.append({"input": label, "fast_us": f * 1e6, "schoolbook_us": s * 1e6,
                     "fast_over_schoolbook": f / s, "products": len(fast),
                     "mismatches": tally.failed})
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=3.0, help="timing per input kind")
    args = p.parse_args(argv)
    rows = sweep(args.seed, args.seconds)
    print(f"{'input':14s} {'fast us':>12s} {'schoolbook us':>14s} {'fast/school':>12s} {'products':>9s}")
    for r in rows:
        print(f"{r['input']:14s} {r['fast_us']:12.1f} {r['schoolbook_us']:14.1f} "
              f"{r['fast_over_schoolbook']:12.3f} {r['products']:9d}")
    paying = [r["input"] for r in rows if r["fast_over_schoolbook"] < 1]
    print(f"fast product is faster on: {', '.join(paying) or 'none'}")
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, "crossover.json"), "w", encoding="ascii") as fh:
        json.dump({"rows": rows, "fast_faster_on": paying,
                   "provenance": provenance(args.seed, {"seconds_per_input": args.seconds})}, fh, indent=1)
    return 1 if any(r["mismatches"] for r in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main())
