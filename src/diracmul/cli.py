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
import operator
import os
import random
import statistics
import sys
import time

from .algebra import (
    DIM,
    DiracNumber,
    build_table_from_generators,
    gather_rows,
    mul_schoolbook,
)
from .exactnum import DYADIC, FLOAT, DyadicRational, exact_values, parse_dyadic, shown
from .fastmult import (
    AssetError,
    LEVELS,
    assemble_pipeline,
    count_operations,
    mul_fast,
    precompute,
    verify_pipeline,
)
from .linalg import Mat

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2

# the cost the reference states for the fast product: at most this many
NOMINAL_MULTS = 88
NOMINAL_ADDS = 256


class NumberFileError(ValueError):
    """A number file failed to parse; carries the token position."""


def read_number_file(path: str, mode: str):
    """16 whitespace-separated numbers; exact mode takes ``n`` and ``n/2^k``
    as :func:`~diracmul.exactnum.parse_dyadic` reads them, within its bound,
    float mode what ``float()`` reads, ``inf`` and ``nan`` included.
    :class:`NumberFileError` for anything else, a long token shown cut."""
    try:
        with open(path, encoding="ascii") as fh:
            tokens = fh.read().split()
    except (OSError, UnicodeDecodeError) as exc:
        raise NumberFileError(f"{path}: {exc}") from exc
    if len(tokens) != DIM:
        raise NumberFileError(f"{path}: expected 16 numbers, got {len(tokens)}")
    values = []
    for pos, tok in enumerate(tokens):
        try:
            values.append(float(tok) if mode == "float" else parse_dyadic(tok))
        except ValueError as exc:
            raise NumberFileError(f"{path}: token {pos + 1} ({shown(tok)}): {exc}") from exc
    return values


def random_coeffs(rng: random.Random):
    """Test vectors: integers in [-2^20, 2^20] (dyadic-exact, no overflow).

    The values are those of 16 ``rng.randint(-(1 << 20), 1 << 20)`` calls:
    CPython's randint draws ``getrandbits(22)`` until the value is at most
    2^21 and subtracts 2^20, and this runs that loop without randint's
    call chain."""
    getrandbits = rng.getrandbits
    out = []
    for _ in range(DIM):
        r = getrandbits(22)
        while r > 1 << 21:
            r = getrandbits(22)
        out.append(r - (1 << 20))
    return out


def matrix_reference(av, bv, table) -> list:
    """a * b for integer coefficients as the paper writes it, M_b . a, with
    the rows of M_b gathered from the table by ``gather_rows``: exact
    Python ints."""
    mul = operator.mul
    return [sum(map(mul, row, av)) for row in gather_rows(table, bv + [-v for v in bv])]


def oracle_mismatches(levels, n: int, seed: int, table) -> dict:
    """Per level, the number of fast products that differ from the
    product matrix's.

    Each of the ``n`` pairs is drawn from ``seed`` by :func:`random_coeffs`
    and its reference is computed once for all ``levels``.  The fast
    product runs over ``DYADIC``, the path under test, on operands lifted
    as :func:`~diracmul.exactnum.exact_values` lifts the fast path's
    outputs, with no constructor call per coefficient.  The reference is
    :func:`matrix_reference` on the same integers: the ground truth of the
    symbolic proof, read from the table alone and sharing nothing with the
    fast path.  Each fast coefficient ``c`` is compared with its reference
    ``w`` by value, as ``c.num == w << c.exp``; one that is not a
    ``DyadicRational`` is a mismatch.
    """
    rng = random.Random(seed)
    mismatches = dict.fromkeys(levels, 0)
    for _ in range(n):
        av, bv = random_coeffs(rng), random_coeffs(rng)
        a, b = (DiracNumber(exact_values(v, 0, DYADIC), DYADIC) for v in (av, bv))
        want = matrix_reference(av, bv, table)
        for level in mismatches:
            if not all(isinstance(c, DyadicRational) and c.num == w << c.exp
                       for c, w in zip(mul_fast(a, b, level).coeffs, want)):
                mismatches[level] += 1
    return mismatches


def oracle_compare(level: int, n: int, seed: int, table) -> int:
    """:func:`oracle_mismatches` at one level."""
    return oracle_mismatches((level,), n, seed, table)[level]


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

    for level, mismatches in oracle_mismatches(levels, args.iters, args.seed, table).items():
        print(f"level {level}: oracle equivalence {args.iters - mismatches}/{args.iters} products match")
        if mismatches:
            failures.append(f"oracle equivalence level {level}")

    if failures:
        print(f"FAIL: {failures[0]}")
        return EXIT_VERIFY
    print("OK")
    return EXIT_OK


def _tally(c: dict) -> str:
    return f"mul={c['nontrivial_mults']} add={c['additions']} neg={c['negations']} shift={c['shifts']}"


def cmd_count(args) -> int:
    counts = count_operations()
    school = counts["schoolbook"]
    fast = counts["fast"][3]
    print(f"schoolbook: mul={school['nontrivial_mults']} add={school['additions']}")
    for level in LEVELS:
        print(f"fast (level {level}): {_tally(counts['fast'][level])}")
    print(f"precompute: {_tally(counts['precompute'])}")
    print(f"apply: {_tally(counts['apply'])}")
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
    print(" ".join(map(repr, result.coeffs)))  # a dyadic's repr is in lowest terms, of any size
    return EXIT_OK


def bench_pairs(iters: int, seed: int) -> list:
    """The coefficient lists ``bench`` multiplies: ``iters`` pairs of
    :func:`random_coeffs` as floats."""
    rng = random.Random(seed)
    return [([float(v) for v in random_coeffs(rng)], [float(v) for v in random_coeffs(rng)])
            for _ in range(iters)]


def cmd_bench(args) -> int:
    batches = 5
    data = bench_pairs(args.iters, args.seed)
    table = build_table_from_generators()
    assemble_pipeline(3)  # assemble and compile before timing
    table.schoolbook  # generate the schoolbook code before timing

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
        for k, terms in enumerate(blk.formulas):  # row-major
            token = "".join(f"{'+' if s > 0 else '-'}b{m}" for s, m in terms)
            grid[offset + k // blk.size][offset + k % blk.size] = f"({token})/2" if blk.halved else token
        offset += blk.size
    return Mat(dim, dim, grid).serialize()


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
