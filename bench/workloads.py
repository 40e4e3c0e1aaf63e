"""Seeded workload inputs, the timed calls into the package, and the output check.

Every workload is a closed loop: one caller in one process, and the next
product starts when the previous one returns.  Inputs come only from the
seed, so the same seed gives the same inputs.  The package is imported
from ``src/`` of the checkout this file sits in, never from an installed
copy.
"""

from __future__ import annotations

import marshal
import os
import random
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_package():
    """Import diracmul from this checkout; SystemExit(2) when it is absent."""
    if not os.path.isfile(os.path.join(SRC, "diracmul", "__init__.py")):
        raise SystemExit(f"error: no diracmul package under {SRC}; run from a full checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import diracmul

    if os.path.dirname(os.path.dirname(os.path.abspath(diracmul.__file__))) != SRC:
        raise SystemExit(f"error: diracmul was imported from {diracmul.__file__}, not {SRC}")


import_package()

from diracmul import algebra, cli, fastmult  # noqa: E402
from diracmul.algebra import DIM, DiracNumber  # noqa: E402
from diracmul.exactnum import DYADIC, FLOAT, DyadicRational  # noqa: E402

LEVEL = 3
SMALL = 1 << 20        # float and small-dyadic coefficients are integers in [-SMALL, SMALL]
WIDE_BITS = 4096       # exact-wide numerators are full-width signed 4096-bit integers
WIDE_MAX_EXP = 64      # ... over 2^k with k drawn from 0..64 per coefficient
ORACLE_PRODUCTS = 100  # oracle comparisons per level in one verdict (verify --iters 100) ...
ORACLE_CHUNKS = 10     # ... made in this many calls, so that times can be scaled finely

perf_counter = time.perf_counter


def timed(fn, *args):
    t0 = perf_counter()
    out = fn(*args)
    return out, perf_counter() - t0


# ---------------------------------------------------------------------------
# reference kernel
#
# A shared virtual machine changes speed by up to 2.5x for seconds at a time
# when other tenants load its cores.  Every timed call is therefore paired with
# a run of this kernel on the same values, and times are reported at the
# kernel's nominal speed: measured * nominal / kernel.  The kernel is the
# benchmark's own code, so a change to the package cannot move it: a 16x16
# product through ring-style method calls, on floats or on a small dyadic
# class with the same arithmetic as the package's, so that it allocates
# and slows down the way the products do.

_KERNEL_TABLE = tuple(
    tuple((-1 if bin(n & m).count("1") % 2 else 1, n ^ m) for m in range(DIM)) for n in range(DIM)
)


class _FloatKernelRing:
    @staticmethod
    def add(x, y):
        return x + y

    @staticmethod
    def sub(x, y):
        return x - y

    @staticmethod
    def mul(x, y):
        return x * y

    @staticmethod
    def neg(x):
        return -x


class _KernelDyadic:
    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int):
        self.num = num
        self.exp = exp


class _DyadicKernelRing:
    @staticmethod
    def add(a, b):
        ea, eb = a.exp, b.exp
        if ea == eb:
            return _KernelDyadic(a.num + b.num, ea)
        if ea < eb:
            return _KernelDyadic((a.num << (eb - ea)) + b.num, eb)
        return _KernelDyadic(a.num + (b.num << (ea - eb)), ea)

    @staticmethod
    def sub(a, b):
        return _DyadicKernelRing.add(a, _DyadicKernelRing.neg(b))

    @staticmethod
    def mul(a, b):
        return _KernelDyadic(a.num * b.num, a.exp + b.exp)

    @staticmethod
    def neg(a):
        return _KernelDyadic(-a.num, a.exp)


def kernel_operand(x: DiracNumber) -> list:
    """The coefficients as the kernel's own scalars."""
    return [c if isinstance(c, float) else _KernelDyadic(c.num, c.exp) for c in x.coeffs]


def reference_kernel(a: list, b: list, rows: int = DIM) -> list:
    ring = _FloatKernelRing if isinstance(a[0], float) else _DyadicKernelRing
    out = [None] * DIM
    for n in range(rows):
        an, row = a[n], _KERNEL_TABLE[n]
        for m in range(DIM):
            s, k = row[m]
            p = ring.mul(an, b[m])
            acc = out[k]
            if acc is None:
                out[k] = ring.neg(p) if s < 0 else p
            elif s < 0:
                out[k] = ring.sub(acc, p)
            else:
                out[k] = ring.add(acc, p)
    return out


def _standard_pair() -> tuple:
    rng = random.Random(0)
    return tuple([_KernelDyadic(rng.randint(-SMALL, SMALL), 0) for _ in range(DIM)] for _ in range(2))


STANDARD_PAIR = _standard_pair()
STANDARD_NOMINAL_S = 177e-6  # nominal time of the standard kernel (see WORKLOADS)


def standard_kernel_s(runs: int = 9) -> float:
    """Median time of the kernel on one fixed small-dyadic pair, for
    scaling times that are not per product (verdict steps, flattening)."""
    return statistics.median(timed(reference_kernel, *STANDARD_PAIR)[1] for _ in range(runs))


# Set-up is mostly import work (unmarshalling code, running module bodies,
# generating dataclass methods), which slows down less than arithmetic does,
# so it is scaled by a kernel of that kind: running a fixed block of
# dataclass and function definitions from marshalled code.
_IMPORT_KERNEL_CODE = marshal.dumps(compile(
    "from dataclasses import dataclass\n" + "".join(
        f"@dataclass\nclass C{i}:\n    a: int = 0\n    b: str = ''\n    c: float = 0.0\n\n"
        f"    def f(self, x):\n        return [self.a + x * k for k in range(3)]\n" for i in range(6))
    + "".join(f"def g{i}(x, y=2):\n    z = x * y + {i}\n    return {{'k': z, 'l': [z] * 3}}\n"
              for i in range(30)),
    "<import kernel>", "exec", dont_inherit=True))
IMPORT_NOMINAL_S = 1.9e-3  # about its time on the quiet reference machine (see WORKLOADS)


def import_kernel_s(runs: int = 9) -> float:
    """Median time of the import kernel."""
    return statistics.median(
        timed(exec, marshal.loads(_IMPORT_KERNEL_CODE), {"__name__": "import_kernel"})[1] for _ in range(runs))


# ---------------------------------------------------------------------------
# workloads


def float_coeffs(rng: random.Random) -> list:
    # integers below 2^20 keep every intermediate of both products exact in binary64
    return [float(rng.randint(-SMALL, SMALL)) for _ in range(DIM)]


def small_dyadic_coeffs(rng: random.Random) -> list:
    return [DYADIC.wrap(rng.randint(-SMALL, SMALL)) for _ in range(DIM)]


def wide_dyadic_coeffs(rng: random.Random, bits: int = WIDE_BITS) -> list:
    out = []
    for _ in range(DIM):
        mag = rng.getrandbits(bits - 1) | (1 << (bits - 1))
        num = -mag if rng.getrandbits(1) else mag
        out.append(DyadicRational(num, rng.randint(0, WIDE_MAX_EXP)))
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    ring: object
    coeffs: Callable[[random.Random], list]
    pairs_per_batch: int
    shared_b: bool          # one right-hand operand serves the whole batch through precompute/apply
    product_share: float    # share of a run spent on products; the rest goes to verdicts
    kernel_rows: int        # rows of the reference kernel paired with each product
    kernel_nominal_s: float  # that kernel's time on a quiet machine of the reference type

    def batch(self, rng: random.Random) -> list:
        """One batch of (a, b) pairs, made from ``rng`` only."""
        if self.shared_b:
            b = DiracNumber(self.coeffs(rng), self.ring)
            return [(DiracNumber(self.coeffs(rng), self.ring), b) for _ in range(self.pairs_per_batch)]
        return [(DiracNumber(self.coeffs(rng), self.ring), DiracNumber(self.coeffs(rng), self.ring))
                for _ in range(self.pairs_per_batch)]


# Why each workload exists is in BENCHMARK.json; README.md says which metric
# each layer should move on which of them.  The nominal kernel times are the
# 10th percentile of the kernel's time over 40 s on a 2-vCPU Intel Xeon
# virtual machine under CPython 3.11.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("float-stream", FLOAT, float_coeffs, 128, False, 0.7, DIM, 40e-6),
        Workload("float-shared-b", FLOAT, float_coeffs, 256, True, 0.7, DIM, 40e-6),
        Workload("exact-wide", DYADIC, wide_dyadic_coeffs, 8, False, 0.7, 2, 460e-6),
        Workload("prove", DYADIC, small_dyadic_coeffs, 128, False, 0.3, DIM, 178e-6),
    )
}


def with_ring(pairs: list, ring) -> list:
    """The same pairs over another ring (used to run a batch through a wrapper ring)."""
    return [(DiracNumber(a.coeffs, ring), DiracNumber(b.coeffs, ring)) for a, b in pairs]


@dataclass
class BatchRun:
    outs: list
    school: list
    kernel_s: list
    fast_s: list       # per product: mul_fast, or apply on shared-b
    school_s: list
    precompute_s: float  # the batch's one precompute on shared-b, else 0

    def scale(self, wl: Workload) -> float:
        """Factor that takes this batch's times to the kernel's nominal speed."""
        return wl.kernel_nominal_s / statistics.median(self.kernel_s)

    def scaled(self, wl: Workload, times: list) -> list:
        """Per-product times at the kernel's nominal speed, each scaled by
        the median kernel time of its own pair and its two neighbours."""
        k = self.kernel_s
        return [t * wl.kernel_nominal_s / statistics.median(k[max(0, i - 1):i + 2])
                for i, t in enumerate(times)]


def run_batch(wl: Workload, pairs: list, table) -> BatchRun:
    """One batch pair by pair: the reference kernel, the level-3 fast
    product and the schoolbook product, each timed alone."""
    operands = [(kernel_operand(a), kernel_operand(b)) for a, b in pairs]
    op, pre_s = timed(fastmult.precompute, pairs[0][1], LEVEL) if wl.shared_b else (None, 0.0)
    run = BatchRun([], [], [], [], [], pre_s)
    for (a, b), (pa, pb) in zip(pairs, operands):
        run.kernel_s.append(timed(reference_kernel, pa, pb, wl.kernel_rows)[1])
        out, s = timed(op.apply, a) if op else timed(fastmult.mul_fast, a, b, LEVEL)
        run.outs.append(out)
        run.fast_s.append(s)
        out, s = timed(algebra.mul_schoolbook, a, b, table)
        run.school.append(out)
        run.school_s.append(s)
    return run


def to_dyadic(x) -> DyadicRational:
    """The exact dyadic value of a ring element; floats convert without rounding."""
    if isinstance(x, DyadicRational):
        return x
    num, den = float(x).as_integer_ratio()  # raises on inf/nan
    return DyadicRational(num, den.bit_length() - 1)


def references(pairs: list, school_outs: list, table) -> list:
    """The schoolbook product over DYADIC of every pair.

    Over DYADIC the timed schoolbook outputs already are that product.
    """
    if all(a.ring is DYADIC for a, _ in pairs):
        return school_outs
    refs = []
    for a, b in pairs:
        da = DiracNumber([to_dyadic(x) for x in a.coeffs], DYADIC)
        db = DiracNumber([to_dyadic(x) for x in b.coeffs], DYADIC)
        refs.append(algebra.mul_schoolbook(da, db, table))
    return refs


def bit_exact(out, ref) -> bool:
    coeffs = getattr(out, "coeffs", out)
    if len(coeffs) != DIM:
        return False
    try:
        return all(to_dyadic(x) == y for x, y in zip(coeffs, ref.coeffs))
    except (OverflowError, ValueError, TypeError, AttributeError):
        return False


def count_mismatches(outs: list, refs: list) -> int:
    """Outputs that are not bit-equal to their reference (a missing output counts)."""
    missing = abs(len(outs) - len(refs))
    return missing + sum(not bit_exact(o, r) for o, r in zip(outs, refs))


def verdict(seed: int, on_step=None):
    """The work of ``diracmul verify --level all --iters 100``: (checks, failures).

    Table associativity over 4096 triples, the symbolic identity at each
    level (256 entries), then ``oracle_compare`` of ``ORACLE_PRODUCTS``
    small dyadic products per level, in ``ORACLE_CHUNKS`` calls.
    ``on_step(name, fn, *args)`` makes each call when given; timing and
    tracing hook in there.
    """
    step = on_step or (lambda _name, fn, *args: fn(*args))
    table = step("algebra.build_table", algebra.build_table_from_generators)
    bad = step("algebra.associativity", table.associativity_failures)
    checks, failures = DIM ** 3, len(bad)
    for level in fastmult.LEVELS:
        report = step(f"fastmult.verify_pipeline.level{level}", fastmult.verify_pipeline, level)
        checks += report.total
        failures += len(report.mismatches)
    per_call = ORACLE_PRODUCTS // ORACLE_CHUNKS
    for level in fastmult.LEVELS:
        for chunk in range(ORACLE_CHUNKS):
            failures += step(f"cli.oracle_compare.level{level}", cli.oracle_compare,
                             level, per_call, seed + ORACLE_CHUNKS * level + chunk, table)
            checks += per_call
    return checks, failures
