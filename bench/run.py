"""The repo benchmark: one workload per run, every metric printed with its unit.

    python3 bench/run.py --workload float-stream --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.  ``--trace 1``
is a separate run that records spans around every call into a layer and
reports the per-layer metrics.  Every output is checked bit-exact against
the schoolbook product over DYADIC; any mismatch makes the run exit 1.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with provenance, goes to ``bench/results/``.  Metric definitions and the
layer each one belongs to are in ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

import workloads as W  # imports diracmul from this checkout, or exits with an error
from tracing import TimedRing, Tracer, duration, ring_busy, self_times, timer_floor

from diracmul import algebra, cli, fastmult, slpgen
from diracmul.algebra import DiracNumber
from diracmul.exactnum import CountingRing

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results")
SETUP_PROBES = 15  # fresh processes per run; setup_s is their median
MIN_VERDICTS = 3
perf_counter = time.perf_counter

COUNT_COLUMNS = (("mults", "nontrivial_mults", "mul"), ("adds", "additions", "add_total"),
                 ("negs", "negations", "neg"), ("shifts", "shifts", "shift"))


class Tally:
    """Checks attempted and failed over one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def products(self, outs, refs) -> None:
        self.attempted += len(refs)
        self.failed += W.count_mismatches(outs, refs)

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


# ---------------------------------------------------------------------------
# shared pieces


def setup_probes(name: str, seed: int, n: int) -> list[dict]:
    """Run ``setup_probe.py`` in n fresh processes, after one uncounted run
    that writes the bytecode caches."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), name, str(seed)]
    results = []
    for i in range(n + 1):
        proc = subprocess.run(cmd, cwd=W.ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed ({proc.returncode}):\n{proc.stderr}{proc.stdout}")
        if i:
            results.append(json.loads(proc.stdout.splitlines()[-1]))
    return results


class VerdictClock:
    """Times the steps of verdicts at the kernel's nominal speed.

    After each step the standard kernel runs a few times; a step is scaled
    by the kernel runs just before and just after it.
    """

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.steps: dict = {}   # step name -> scaled seconds, summed over one verdict
        self._kernel = self._sample()

    @staticmethod
    def _sample() -> list:
        return [W.timed(W.reference_kernel, *W.STANDARD_PAIR)[1] for _ in range(3)]

    def step(self, name, fn, *args):
        if self.tracer is None:
            out, s = W.timed(fn, *args)
        else:
            out, s = W.timed(self.tracer.call, "verdict", name, fn, *args)
        after = self._sample()
        scaled = s * W.STANDARD_NOMINAL_S / statistics.median(self._kernel + after)
        self._kernel = after
        self.steps[name] = self.steps.get(name, 0.0) + scaled
        return out

    def verdict(self, seed: int, tally: Tally) -> dict:
        """One full verdict; its scaled step times by name."""
        self.steps = {}
        tally.add(*W.verdict(seed, self.step))
        return self.steps


def verdict_phase(rng: random.Random, seconds: float, tally: Tally, min_runs: int = MIN_VERDICTS) -> list:
    """Full verdicts back to back for ``seconds`` (at least ``min_runs``);
    their durations at the kernel's nominal speed."""
    clock, times = VerdictClock(), []
    deadline = perf_counter() + seconds
    while len(times) < min_runs or perf_counter() < deadline:
        times.append(sum(clock.verdict(rng.randrange(1 << 30), tally).values()))
    return times


def p90(samples: list) -> float:
    return statistics.quantiles(samples, n=10)[8]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' where there is none."""
    git = os.path.join(W.ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int, samples: dict) -> dict:
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "seed": seed,
        "samples": samples,
        "git_commit": git_commit(),
        "machine_settings": "none changed: no CPU pinning, frequency or scheduler settings, so the "
                            "benchmark runs unprivileged on shared machines; single process, single thread",
    }


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics


def product_phase(wl: W.Workload, rng: random.Random, table, seconds: float, tally: Tally):
    """Timed batches for ``seconds`` (at least one), every output checked after its batch.

    Returns per-batch fast and schoolbook rates, per-product fast times and
    per-batch slowdowns (kernel time over nominal); times are at the
    kernel's nominal speed.
    """
    fast_rates, school_rates, each, slowdowns = [], [], [], []
    deadline = perf_counter() + seconds
    while not fast_rates or perf_counter() < deadline:
        pairs = wl.batch(rng)
        run = W.run_batch(wl, pairs, table)
        refs = W.references(pairs, run.school, table)
        tally.products(run.outs, refs)
        tally.products(run.school, refs)
        scale = run.scale(wl)
        fast = run.scaled(wl, run.fast_s)
        fast_rates.append(len(pairs) / (sum(fast) + run.precompute_s * scale))
        school_rates.append(len(pairs) / sum(run.scaled(wl, run.school_s)))
        each.extend(fast)
        slowdowns.append(1 / scale)
    return fast_rates, school_rates, each, slowdowns


def measure_end_to_end(wl: W.Workload, seed: int, seconds: float):
    probes = setup_probes(wl.name, seed, SETUP_PROBES)
    tally = Tally()
    tally.add(len(probes), sum(not p["ok"] for p in probes))
    rng = random.Random(seed)
    table = algebra.build_table_from_generators()
    # warm-up, not timed: assembles every level and reaches steady state
    product_phase(wl, rng, table, 0, tally)
    verdict_phase(rng, 0, tally, min_runs=1)
    gc.collect()
    fast_rates, school_rates, each, slowdowns = product_phase(wl, rng, table, seconds * wl.product_share, tally)
    verdicts = verdict_phase(rng, seconds * (1 - wl.product_share), tally)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "fast_products_per_s": (statistics.median(fast_rates), "1/s"),
        "fast_product_us_p90": (p90(each) * 1e6, "us"),
        "schoolbook_products_per_s": (statistics.median(school_rates), "1/s"),
        "verdict_s": (statistics.median(verdicts), "s"),
        "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
    }
    slowdown = statistics.median(slowdowns)
    info = {
        "fast_over_schoolbook_time": metrics["schoolbook_products_per_s"][0] / metrics["fast_products_per_s"][0],
        "fast_product_us_median": statistics.median(each) * 1e6,
        "machine_slowdown": slowdown,
        "raw_fast_products_per_s": metrics["fast_products_per_s"][0] / slowdown,
        "raw_schoolbook_products_per_s": metrics["schoolbook_products_per_s"][0] / slowdown,
        "raw_setup_s": statistics.median(p["raw_setup_s"] for p in probes),
    }
    samples = {"fast_batches": len(fast_rates), "schoolbook_batches": len(school_rates),
               "fast_products_timed": len(each), "pairs_per_batch": wl.pairs_per_batch,
               "verdicts": len(verdicts), "setup_probes": len(probes)}
    return metrics, tally, info, samples


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics


def generic_coeffs(rng: random.Random) -> list:
    # odd and away from +-1, so the counting ring sees only generic multiplications
    return [rng.randint(3, 1 << 19) * 2 + 1 for _ in range(16)]


def count_section(rng: random.Random, tally: Tally):
    """CountingRing counts per product next to the flattened-program histograms.

    Schoolbook pairs with ``schoolbook_program``, each fast level with
    ``flatten`` of that level, apply with the apply-only flattening, and
    precompute with the level-3 program minus the apply-only one.
    """
    counts = cli.count_operations()
    ring_counts = {"schoolbook": counts["schoolbook"], "precompute": counts["precompute"],
                   "apply": counts["apply"]}
    programs = {"schoolbook": slpgen.schoolbook_program(algebra.build_table_from_generators()).histogram()}
    for level in fastmult.LEVELS:
        ring_counts[f"fast_l{level}"] = counts["fast"][level]
        pipeline = fastmult.assemble_pipeline(level)
        fastmult.verify_pipeline(pipeline)
        programs[f"fast_l{level}"] = slpgen.flatten(pipeline).histogram()
    op = fastmult.precompute(DiracNumber.from_ints(generic_coeffs(rng), CountingRing()), W.LEVEL)
    apply_hist = slpgen.flatten(op.pipeline, include_precompute=False, operator=op).histogram()
    programs["apply"] = apply_hist
    programs["precompute"] = {k: programs["fast_l3"][k] - apply_hist[k] for k in apply_hist}

    metrics, table = {}, {}
    for column, counts_of in ring_counts.items():
        row = {}
        for short, ring_key, op_key in COUNT_COLUMNS:
            got, want = counts_of[ring_key], programs[column][op_key]
            metrics[f"exactnum.{short}_per_product.{column}"] = (got, "count")
            row[short] = {"counting_ring": got, "slp_histogram": want}
            tally.add(1, int(got != want))
        table[column] = row
    return metrics, table


def slp_section(wl: W.Workload, pairs: list, refs: list, tally: Tally, tracer: Tracer):
    """Flatten level 3 and interpret it on the workload's pairs; times at nominal speed."""
    pipeline = fastmult.assemble_pipeline(W.LEVEL)
    fastmult.verify_pipeline(pipeline)
    flatten_times, program = [], None
    for _ in range(5):
        program, s = W.timed(tracer.call, "slpgen", "slpgen.flatten", slpgen.flatten, pipeline)
        flatten_times.append(s * W.STANDARD_NOMINAL_S / W.standard_kernel_s())
    interpret_times, outs = [], []
    for k, (a, b) in enumerate(pairs):
        out, s = W.timed(tracer.call, f"slpgen.{k}", "slpgen.interpret", slpgen.interpret,
                         program, a.coeffs, b.coeffs, wl.ring)
        kernel = W.timed(W.reference_kernel, W.kernel_operand(a), W.kernel_operand(b), wl.kernel_rows)[1]
        outs.append(out)
        interpret_times.append(s * wl.kernel_nominal_s / kernel)
    tally.products(outs, refs)
    return {
        "slpgen.flatten_ms": (statistics.median(flatten_times) * 1e3, "ms"),
        "slpgen.instructions": (len(program.instrs), "count"),
        "slpgen.interpret_us": (statistics.median(interpret_times) * 1e6, "us"),
    }


def reference_batch(pairs: list, table) -> list:
    return W.references(pairs, [algebra.mul_schoolbook(a, b, table) for a, b in pairs], table)


def untraced_calls(wl: W.Workload, pairs: list, table, refs: list, tally: Tally, t: dict) -> None:
    """Each public call on each pair, timed alone; appends seconds to ``t``.

    ``t["fast_path"]`` holds the workload's own fast path per product: the
    ``mul_fast`` call, or on shared-b the ``apply`` call with the batch's
    one ``precompute`` added to its first product.
    """
    fast, apply_outs, school = [], [], []
    for k, (a, b) in enumerate(pairs):
        t["kernel"].append(W.timed(W.reference_kernel, W.kernel_operand(a), W.kernel_operand(b), wl.kernel_rows)[1])
        out, fast_s = W.timed(fastmult.mul_fast, a, b, W.LEVEL)
        fast.append(out)
        t["mul_fast"].append(fast_s)
        op, pre_s = W.timed(fastmult.precompute, b, W.LEVEL)
        t["precompute"].append(pre_s)
        out, apply_s = W.timed(op.apply, a)
        apply_outs.append(out)
        t["apply"].append(apply_s)
        t["fast_path"].append(apply_s + (pre_s if k == 0 else 0.0) if wl.shared_b else fast_s)
        out, s = W.timed(algebra.mul_schoolbook, a, b, table)
        school.append(out)
        t["schoolbook"].append(s)
    for outs in (fast, apply_outs, school):
        tally.products(outs, refs)


def traced_calls(wl: W.Workload, pairs: list, table, refs: list, tally: Tally,
                 tracer: Tracer, batch: int) -> None:
    """The workload's fast path and the schoolbook product over the timed ring,
    one root span per product."""
    timed_pairs = W.with_ring(pairs, tracer.ring)
    shared_op = None
    if wl.shared_b:
        shared_op = tracer.call(f"{batch}.b", "fastmult.precompute", fastmult.precompute,
                                timed_pairs[0][1], W.LEVEL)
    fast, school = [], []

    def product(a, b):
        if shared_op is not None:
            fast.append(tracer.call(trace_id, "fastmult.apply", shared_op.apply, a))
        else:
            fast.append(tracer.call(trace_id, "fastmult.mul_fast", fastmult.mul_fast, a, b, W.LEVEL))
        school.append(tracer.call(trace_id, "algebra.mul_schoolbook", algebra.mul_schoolbook, a, b, table))

    for k, (a, b) in enumerate(timed_pairs):
        trace_id = f"{batch}.{k}"
        tracer.call(trace_id, "bench.product", product, a, b)
    tally.products(fast, refs)
    tally.products(school, refs)


def measure_traced(wl: W.Workload, seed: int, seconds: float):
    probes = setup_probes(wl.name, seed, 5)
    tally = Tally()
    tally.add(len(probes), sum(not p["ok"] for p in probes))
    rng = random.Random(seed)
    table = algebra.build_table_from_generators()
    metrics = {
        "fastmult.assemble_ms": (statistics.median(p["assemble_ms"] for p in probes), "ms"),
        "algebra.build_table_ms": (statistics.median(p["build_table_ms"] for p in probes), "ms"),
    }
    count_metrics, count_table = count_section(rng, tally)
    metrics.update(count_metrics)

    floor = timer_floor()
    tracer = Tracer(TimedRing(wl.ring))
    t = {k: [] for k in ("mul_fast", "precompute", "apply", "schoolbook", "fast_path", "kernel")}
    warm = wl.batch(rng)
    warm_refs = reference_batch(warm, table)
    metrics.update(slp_section(wl, warm[:16], warm_refs[:16], tally, tracer))
    untraced_calls(wl, warm, table, warm_refs, tally, {k: [] for k in t})
    first_span = len(tracer.spans)
    deadline = perf_counter() + seconds * 0.7
    batch = 0
    while batch == 0 or perf_counter() < deadline:
        pairs = wl.batch(rng)
        refs = reference_batch(pairs, table)
        untraced_calls(wl, pairs, table, refs, tally, t)
        traced_calls(wl, pairs, table, refs, tally, tracer, batch)
        batch += 1
    product_spans = tracer.spans[first_span:]

    clock, steps = VerdictClock(tracer), {}
    for _ in range(MIN_VERDICTS):
        times = tracer.call("verdict", "bench.verdict", clock.verdict, rng.randrange(1 << 30), tally)
        for name, s in times.items():
            steps.setdefault(name, []).append(s)

    def med(name):
        return statistics.median(steps[name])

    fast_names = {"fastmult.mul_fast", "fastmult.apply", "fastmult.precompute"}
    fast_spans = [s for s in product_spans if s["name"] in fast_names]
    school_spans = [s for s in product_spans if s["name"] == "algebra.mul_schoolbook"]
    untraced_fast, untraced_school = sum(t["fast_path"]), sum(t["schoolbook"])
    traced_fast = sum(duration(s) for s in fast_spans)
    n_products = len(t["schoolbook"])
    overhead_s = (traced_fast - untraced_fast) / n_products
    scale = wl.kernel_nominal_s / statistics.median(t["kernel"])  # product times to nominal speed

    def us(name):
        return statistics.median(t[name]) * scale * 1e6, "us"

    layer_self = self_times(product_spans, floor)
    total_self = sum(layer_self.values())

    def busy(spans, which, base):
        return sum(ring_busy(s, floor)[which] for s in spans) / base

    metrics.update({
        "fastmult.precompute_us": us("precompute"),
        "fastmult.apply_us": us("apply"),
        "fastmult.mul_fast_us": us("mul_fast"),
        "fastmult.verify_ms.level1": (med("fastmult.verify_pipeline.level1") * 1e3, "ms"),
        "fastmult.verify_ms.level2": (med("fastmult.verify_pipeline.level2") * 1e3, "ms"),
        "fastmult.verify_ms.level3": (med("fastmult.verify_pipeline.level3") * 1e3, "ms"),
        "algebra.mul_schoolbook_us": us("schoolbook"),
        "algebra.associativity_ms": (med("algebra.associativity") * 1e3, "ms"),
        "exactnum.mul_busy_share.fast": (busy(fast_spans, 0, untraced_fast), "share"),
        "exactnum.mul_busy_share.schoolbook": (busy(school_spans, 0, untraced_school), "share"),
        "exactnum.add_busy_share.fast": (busy(fast_spans, 1, untraced_fast), "share"),
        "exactnum.add_busy_share.schoolbook": (busy(school_spans, 1, untraced_school), "share"),
        "cli.oracle_compare_s.level1": (med("cli.oracle_compare.level1"), "s"),
        "cli.oracle_compare_s.level2": (med("cli.oracle_compare.level2"), "s"),
        "cli.oracle_compare_s.level3": (med("cli.oracle_compare.level3"), "s"),
        "trace.self_share.fastmult": (layer_self.get("fastmult", 0.0) / total_self, "share"),
        "trace.self_share.algebra": (layer_self.get("algebra", 0.0) / total_self, "share"),
        "trace.self_share.exactnum": (layer_self.get("exactnum", 0.0) / total_self, "share"),
        "trace.overhead_us": (overhead_s * scale * 1e6, "us"),
        "trace.overhead_share": (overhead_s * n_products / untraced_fast, "share"),
    })
    os.makedirs(RESULTS, exist_ok=True)
    spans_path = os.path.join(RESULTS, f"{wl.name}-seed{seed}-spans.jsonl")
    tracer.write(spans_path)
    info = {
        "spans_file": os.path.relpath(spans_path, W.ROOT),
        "self_ms_per_layer.products": {k: v * 1e3 for k, v in sorted(layer_self.items())},
        "self_ms_per_layer.all_spans": {k: v * 1e3 for k, v in sorted(self_times(tracer.spans, floor).items())},
        "tracing_overhead_per_fast_product_us": {"traced": traced_fast / n_products * 1e6,
                                                 "untraced": untraced_fast / n_products * 1e6,
                                                 "traced_minus_untraced": overhead_s * 1e6},
        "timer_floor_ns": floor * 1e9,
        "machine_slowdown": 1 / scale,
        "counts": count_table,
    }
    samples = {"products_traced": n_products, "batches": batch, "spans": len(tracer.spans),
               "verdicts": MIN_VERDICTS, "setup_probes": len(probes)}
    return metrics, tally, info, samples


# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = W.WORKLOADS[args.workload]
    measure = measure_traced if args.trace else measure_end_to_end
    metrics, tally, info, samples = measure(wl, args.seed, args.seconds)
    correct = tally.failed == 0
    mismatch_share = tally.failed / tally.attempted

    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:.6g} {unit}")
    print(f"  {'mismatch_share':44s} {mismatch_share:.6g} share ({tally.failed} of {tally.attempted} checks)")
    for name, value in info.items():
        if isinstance(value, float):
            print(f"  info {name:39s} {value:.6g}")
    prov = provenance(args.seed, samples)
    for name, value in prov.items():
        print(f"  provenance {name:33s} {value}")

    result = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    os.makedirs(RESULTS, exist_ok=True)
    result_path = os.path.join(RESULTS, f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w", encoding="ascii") as fh:
        json.dump({"workload": wl.name, "trace": args.trace, "seconds": args.seconds,
                   "mismatch_share": mismatch_share, **result, "info": info, "provenance": prov},
                  fh, indent=1)
    if not correct:
        print(f"FAIL: {tally.failed} of {tally.attempted} checks did not match the reference", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
