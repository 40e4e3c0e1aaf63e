"""Command-line front end.

Subcommands: ``verify`` (symbolic identity, table soundness, randomized
oracle equivalence), ``count`` (operation-count table), ``mul`` (ad-hoc
products from number files), ``bench`` (informational timings), ``errata``
(reference-discrepancy report) and ``emit`` (straight-line program or
stage matrices).  Exit codes: 0 success, 1 verification failure, 2
usage or parse error.
"""

from __future__ import annotations

import argparse
import os
import random
import statistics
import sys
import time

from .algebra import (
    DIM,
    DiracNumber,
    build_table_from_generators,
    mul_schoolbook,
)
from .exactnum import CountingRing, DYADIC, FLOAT, parse_dyadic
from .fastmult import (
    AssetError,
    LEVELS,
    assemble_pipeline,
    bind_block,
    block_matvec,
    mul_fast,
    precompute,
    verify_pipeline,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2

# the cost the reference states for the fast product: at most this many
NOMINAL_MULTS = 88
NOMINAL_ADDS = 256


class NumberFileError(ValueError):
    """A number file failed to parse; carries the token position."""


def read_number_file(path: str, mode: str):
    """16 whitespace-separated numbers; exact mode takes ints and n/2^k."""
    try:
        with open(path, encoding="ascii") as fh:
            tokens = fh.read().split()
    except OSError as exc:
        raise NumberFileError(f"{path}: {exc}") from exc
    if len(tokens) != DIM:
        raise NumberFileError(f"{path}: expected 16 numbers, got {len(tokens)}")
    values = []
    for pos, tok in enumerate(tokens):
        try:
            values.append(float(tok) if mode == "float" else parse_dyadic(tok))
        except ValueError as exc:
            raise NumberFileError(f"{path}: token {pos + 1} ({tok!r}): {exc}") from exc
    return values


def format_number(value, mode: str) -> str:
    if mode == "float":
        return repr(value)
    return repr(value.normalized())


def random_coeffs(rng: random.Random):
    """Test vectors: integers in [-2^20, 2^20] (dyadic-exact, no overflow)."""
    return [rng.randint(-(1 << 20), 1 << 20) for _ in range(DIM)]


def oracle_compare(level: int, n: int, seed: int, table=None) -> int:
    """Number of mismatches between the fast and schoolbook products."""
    if table is None:
        table = build_table_from_generators()
    rng = random.Random(seed)
    mismatches = 0
    for _ in range(n):
        a = DiracNumber.from_ints(random_coeffs(rng), DYADIC)
        b = DiracNumber.from_ints(random_coeffs(rng), DYADIC)
        if not mul_fast(a, b, level) == mul_schoolbook(a, b, table):
            mismatches += 1
    return mismatches


def _generic_vector(rng: random.Random):
    # odd and away from +-1 so every product is a generic multiplication
    return [rng.randint(3, 1 << 19) * 2 + 1 for _ in range(DIM)]


def count_operations(seed: int = 2024) -> dict:
    """Counting-ring measurements used by ``count`` and the tests."""
    table = build_table_from_generators()
    rng = random.Random(seed)
    av, bv = _generic_vector(rng), _generic_vector(rng)

    ring = CountingRing()
    mul_schoolbook(DiracNumber.from_ints(av, ring), DiracNumber.from_ints(bv, ring), table)
    school = ring.counter.as_dict()

    per_level = {}
    for level in LEVELS:
        ring = CountingRing()
        mul_fast(DiracNumber.from_ints(av, ring), DiracNumber.from_ints(bv, ring), level)
        per_level[level] = ring.counter.as_dict()

    ring = CountingRing()
    op = precompute(DiracNumber.from_ints(bv, ring), 3)
    pre = ring.counter.as_dict()
    before = ring.counter.snapshot()
    op.apply(DiracNumber.from_ints(av, ring))
    after = ring.counter.snapshot()
    apply_counts = dict(zip(("nontrivial_mults", "additions", "negations", "shifts"),
                            (q - p for p, q in zip(before, after))))
    # the level-3 core: bind's additions plus the mat-vec, size-1 additions per row of each block
    pipe = assemble_pipeline(3)
    core_adds = pre["additions"] + sum(blk.size * (blk.size - 1) for blk in pipe.core.blocks)
    # the same core run block by block, each bound by its own recipes (pool terms still shared)
    ring, pool_cache = CountingRing(), {}
    b, x = [ring.wrap(v) for v in bv], [ring.wrap(v) for v in av]
    for blk in pipe.core.blocks:
        block_matvec(blk, bind_block(blk, b, ring, pipe.pools, pool_cache), x[:blk.size], ring)
    return {"schoolbook": school, "fast": per_level, "precompute": pre, "apply": apply_counts,
            "core_additions": core_adds, "per_block_core_additions": ring.counter.additions}


def cmd_verify(args) -> int:
    levels = LEVELS if args.level == "all" else (int(args.level),)
    table = build_table_from_generators()
    failures = []

    bad_triples = table.associativity_failures()
    print(f"table associativity: {4096 - len(bad_triples)}/4096 triples pass")
    if bad_triples:
        failures.append("table associativity")

    for level in levels:
        report = verify_pipeline(level)
        print(report.summary())
        if not report.ok:
            failures.append(f"symbolic identity level {level}")

    for level in levels:
        mismatches = oracle_compare(level, args.iters, args.seed, table)
        print(f"level {level}: oracle equivalence {args.iters - mismatches}/{args.iters} products match")
        if mismatches:
            failures.append(f"oracle equivalence level {level}")

    if failures:
        print(f"FAIL: {failures[0]}")
        return EXIT_VERIFY
    print("OK")
    return EXIT_OK


def cmd_count(args) -> int:
    counts = count_operations()
    school = counts["schoolbook"]
    fast = counts["fast"][3]
    print(f"schoolbook: mul={school['nontrivial_mults']} add={school['additions']}")
    for level in LEVELS:
        c = counts["fast"][level]
        print(f"fast (level {level}): mul={c['nontrivial_mults']} add={c['additions']}")
    pre, app = counts["precompute"], counts["apply"]
    print(f"precompute: mul={pre['nontrivial_mults']} add={pre['additions']}")
    print(f"apply: mul={app['nontrivial_mults']} add={app['additions']}")
    core_adds = counts["core_additions"]
    print(f"core stage: mul={fast['nontrivial_mults']} add={core_adds}")
    print(f"structural stages: add={fast['additions'] - core_adds}")
    saved = school["nontrivial_mults"] - fast["nontrivial_mults"]
    print(f"savings vs schoolbook: {saved} multiplications")
    print(f"savings vs the earlier published scheme (128 multiplications): "
          f"{128 - fast['nontrivial_mults']} multiplications")
    total_fast = fast["nontrivial_mults"] + fast["additions"]
    total_school = school["nontrivial_mults"] + school["additions"]
    print(f"total ops fast={total_fast}, schoolbook={total_school}, "
          f"ratio={total_fast / total_school:.2f}")
    mul, add = fast["nontrivial_mults"], fast["additions"]
    within = mul <= NOMINAL_MULTS and add <= NOMINAL_ADDS
    print(f"nominal budget mul={NOMINAL_MULTS} add={NOMINAL_ADDS}: measured mul={mul} add={add} "
          f"({core_adds} core + {add - core_adds} structural), {'within' if within else 'over'} budget")
    return EXIT_OK


def cmd_mul(args) -> int:
    try:
        a_vals = read_number_file(args.a_file, args.mode)
        b_vals = read_number_file(args.b_file, args.mode)
    except NumberFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    ring = FLOAT if args.mode == "float" else DYADIC
    a = DiracNumber(a_vals, ring)
    b = DiracNumber(b_vals, ring)
    if args.method == "fast":
        result = mul_fast(a, b, args.level)
    else:
        result = mul_schoolbook(a, b, build_table_from_generators())
    print(" ".join(format_number(v, args.mode) for v in result.coeffs))
    return EXIT_OK


def cmd_bench(args) -> int:
    rng = random.Random(args.seed)
    batches = 5
    data = [
        (
            [float(v) for v in random_coeffs(rng)],
            [float(v) for v in random_coeffs(rng)],
        )
        for _ in range(args.iters)
    ]
    table = build_table_from_generators()
    assemble_pipeline(3)  # assemble and compile before timing

    def run_school():
        for av, bv in data:
            mul_schoolbook(DiracNumber(av, FLOAT), DiracNumber(bv, FLOAT), table)

    def run_fast():
        for av, bv in data:
            mul_fast(DiracNumber(av, FLOAT), DiracNumber(bv, FLOAT), 3)

    ops = [precompute(DiracNumber(bv, FLOAT), 3) for _, bv in data]

    def run_amortized():
        for (av, _), op in zip(data, ops):
            op.apply(DiracNumber(av, FLOAT))

    rows = []
    for name, fn in (("schoolbook", run_school), ("fast", run_fast), ("apply (amortized)", run_amortized)):
        times = []
        for _ in range(batches):
            t0 = time.perf_counter()
            fn()
            times.append((time.perf_counter() - t0) / args.iters * 1e9)
        rows.append((name, statistics.mean(times), statistics.stdev(times) if batches > 1 else 0.0))
    for name, mean, std in rows:
        print(f"{name}: {mean:.0f} ns/product (std {std:.0f})")
    counts = count_operations()
    fast, app, pre = counts["fast"][3], counts["apply"], counts["precompute"]
    print(f"counting cross-check: full product mul={fast['nontrivial_mults']} "
          f"add={fast['additions']}; amortized apply mul={app['nontrivial_mults']} "
          f"add={app['additions']} ({pre['additions']} fewer adds after the first use)")
    return EXIT_OK


def cmd_errata(args) -> int:
    from .errata import build_report

    print(build_report(), end="")
    return EXIT_OK


def cmd_emit(args) -> int:
    pipeline = assemble_pipeline(args.level)
    if args.what == "slp":
        from .slpgen import SLPError, emit_text, flatten

        try:  # flatten runs the proof and refuses a pipeline that fails it
            files = {args.out: emit_text(flatten(pipeline))}
        except SLPError as exc:
            print(f"FAIL: {exc}", file=sys.stderr)
            return EXIT_VERIFY
        done = f"wrote {args.out}"
    else:
        files = {os.path.join(args.out, f"{i:02d}_{stage.name}.txt"):
                 stage.mat.serialize() if stage.blocks is None else _core_grid_text(stage)
                 for i, stage in enumerate(pipeline.stages)}
        done = f"wrote {len(files)} stage files to {args.out}"
    try:
        if args.what == "matrices":
            os.makedirs(args.out, exist_ok=True)
        for path, text in files.items():
            with open(path, "w", encoding="ascii") as fh:
                fh.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(done)
    return EXIT_OK


def _core_grid_text(stage) -> str:
    dim = stage.in_dim
    grid = [["0"] * dim for _ in range(dim)]
    offset = 0
    for blk in stage.blocks:
        n = blk.size
        for i in range(n):
            for j in range(n):
                terms = blk.formulas[i * n + j]
                token = "".join(f"{'+' if s > 0 else '-'}b{m}" for s, m in terms)
                if blk.halved:
                    token = f"({token})/2"
                grid[offset + i][offset + j] = token
        offset += n
    lines = [f"{dim} {dim}"] + [" ".join(row) for row in grid]
    return "\n".join(lines) + "\n"


def _at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""
    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diracmul",
        description="16-dimensional hypercomplex multiplication: verification, counting, benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="symbolic identity + table soundness + oracle equivalence")
    p.add_argument("--level", choices=["1", "2", "3", "all"], default="3")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iters", type=_at_least(0), default=10000,
                   help="random oracle comparisons per level (0 runs none)")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("count", help="operation-count table")
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("mul", help="multiply two number files")
    p.add_argument("a_file")
    p.add_argument("b_file")
    p.add_argument("--method", choices=["fast", "schoolbook"], default="fast")
    p.add_argument("--mode", choices=["exact", "float"], default="exact")
    p.add_argument("--level", type=int, choices=list(LEVELS), default=3)
    p.set_defaults(fn=cmd_mul)

    p = sub.add_parser("bench", help="informational wall-clock timings")
    p.add_argument("--iters", type=_at_least(1), default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("errata", help="reference-discrepancy report")
    p.set_defaults(fn=cmd_errata)

    p = sub.add_parser("emit", help="emit artifacts")
    p.add_argument("what", choices=["slp", "matrices"])
    p.add_argument("out")
    p.add_argument("--level", type=int, choices=list(LEVELS), default=3)
    p.set_defaults(fn=cmd_emit)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except AssetError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    raise SystemExit(main())
