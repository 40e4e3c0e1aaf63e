"""Set-up time of a fresh process, printed as one JSON line.

    python3 bench/setup_probe.py <workload> <seed>

Times importing the package, building the table, ``assemble_pipeline(3)``
and the workload's first product checked against the schoolbook product
over DYADIC.  Interpreter start-up is not included.  Times are scaled to
the import kernel's nominal speed, measured in this process afterwards.
"""

import time

_start = time.perf_counter()

import json  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402

import workloads as W  # noqa: E402  (imports diracmul from the checkout)

from diracmul import algebra, fastmult  # noqa: E402
from diracmul.algebra import DiracNumber  # noqa: E402


def main(argv) -> int:
    imported = time.perf_counter()
    wl = W.WORKLOADS[argv[0]]
    rng = random.Random(int(argv[1]))
    table = algebra.build_table_from_generators()
    built = time.perf_counter()
    fastmult.assemble_pipeline(W.LEVEL)
    assembled = time.perf_counter()
    a, b = (DiracNumber(wl.coeffs(rng), wl.ring) for _ in range(2))
    made = time.perf_counter()
    if wl.shared_b:
        out = fastmult.precompute(b, W.LEVEL).apply(a)
    else:
        out = fastmult.mul_fast(a, b, W.LEVEL)
    school = algebra.mul_schoolbook(a, b, table)
    ok = W.count_mismatches([out], W.references([(a, b)], [school], table)) == 0
    done = time.perf_counter()
    scale = W.IMPORT_NOMINAL_S / W.import_kernel_s()
    raw_setup_s = (done - _start) - (made - assembled)  # input generation is the benchmark's
    print(json.dumps({
        "setup_s": raw_setup_s * scale,
        "raw_setup_s": raw_setup_s,
        "import_ms": (imported - _start) * 1e3 * scale,
        "build_table_ms": (built - imported) * 1e3 * scale,
        "assemble_ms": (assembled - built) * 1e3 * scale,
        "first_product_ms": (done - made) * 1e3 * scale,
        "ok": ok,
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
