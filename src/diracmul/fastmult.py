"""The factorized fast product.

A pipeline is a chain of constant {-1,0,+1} stages (signed permutations
and structural combiners, both held as matrices) around one b-dependent
block-diagonal core.  Three refinement levels exist; the final one spends
88 generic multiplications inside a 30-wide core.  The fixed design is
defined here, once: the combiners (:data:`COMBINERS`), each level's chain
of stage names (:data:`CHAINS`) and the pool pairs the core recipes draw
from (:data:`POOLS`).  What ``derive`` computes from the seed data -- the
signed permutations and the core blocks -- is read from plain-text assets,
every file through :func:`read_stage`, every signed index a term of
``algebra.format_term`` (``+0 -5``); the writers of both stage formats are
here too (:func:`format_stage`, :func:`format_blocks`).

An assembled pipeline is an immutable value, compiled as it is built:
:func:`compile_pipeline` records the product M_b . a once on a
``program.Recorder``, through two kernels -- ``linalg.structural_apply``
for every constant stage and, per core block, :func:`bind_block` (the
paper's recipe) and :func:`block_matvec` -- and ``program.CompiledProgram``
folds the signs and splits the recording into ``bind(half, b)``, the 32
distinct core values at level 3, and ``apply(a, e)``, the rest of the
chain.  Every part of a pipeline is built once as a frozen value, and the
pools are a read-only constant, so what a pipeline shows is what it runs.

The products run those two functions.  A ring whose
``add``/``sub``/``neg``/``mul`` are ``operator.add`` etc. runs them on its
own values and ``ring.half``; any other ring's values are boxed, so that
each operator calls the ring's method, and halving by an
:class:`~diracmul.exactnum.Half` calls its ``halve``: the ring sees every
recorded operation once.  Over ``DYADIC`` and ``INTS`` they run on plain
integers: each operand is brought to one common exponent by
``exactnum.exact_ints``, the lowering ``mul_schoolbook`` uses too, and
``program.bind_ints`` runs bind with ``half = 1``, every halving kept in
the exponent, so apply's outputs are the exact product times
``2**(ea + eb + halvings)``.  :func:`verify_pipeline` reports
``proof.prove`` for a pipeline; no product runs the proof.
"""

from __future__ import annotations

import operator
import os
import random
import types
from dataclasses import dataclass, field
from functools import lru_cache

from .algebra import (
    DIM,
    DiracNumber,
    RingMismatchError,
    build_table_from_generators,
    default_asset_dir,
    format_term,
    mul_schoolbook,
    parse_term,
    read_asset_lines,
    runs_natively,
)
from .exactnum import DYADIC, INTS, CountingRing, DyadicRational, Half, exact_ints, exact_values, parse_int
from .linalg import (H2, T2X3, T3X2, Mat, SignedPermutation, dirsum, eye, kron, signed_perm_matrix,
                     structural_apply)
from .program import CompiledProgram, Recorder, bind_ints
from .proof import prove


class AssetError(RuntimeError):
    """An asset is missing, malformed, or fails validation."""


# ---------------------------------------------------------------------------
# the pipeline's fixed design

# The constant combiner stages, each a Kronecker product or direct sum of
# identities, the 2x2 Hadamard matrix H2 and the 2x3/3x2 combiners.  Every
# factor has entries in {-1, 0, +1} and no zero row, and so does each stage.
COMBINERS = types.MappingProxyType({
    # the displayed input side: 16 -> 24 -> 28 -> 30
    "expand_16_24": kron(T3X2, eye(8)),
    "expand_24_28": dirsum([kron(eye(2), kron(H2, eye(4))), kron(T3X2, eye(4))]),
    "expand_28_30": dirsum([eye(16), kron(eye(2), kron(H2, eye(2))), kron(T3X2, eye(2))]),
    # the final level's rebuilt input side (see derive.synthesize_level3_input)
    "butterfly_16": kron(eye(8), H2),
    "sums_24_28": dirsum([eye(16), kron(T3X2, eye(4))]),
    "sums_28_30": dirsum([eye(24), kron(T3X2, eye(2))]),
    "butterfly_30": dirsum([eye(28), H2]),
    # the output side: 30 -> 30 -> 28 -> 24 -> 16; reduce_30_30 is also the
    # displayed 30-wide input butterfly
    "reduce_30_30": dirsum([eye(24), kron(eye(2), H2), eye(2)]),
    "reduce_30_28": dirsum([eye(16), kron(eye(2), kron(H2, eye(2))), kron(T2X3, eye(2))]),
    "reduce_28_24": dirsum([kron(eye(2), kron(H2, eye(4))), kron(T2X3, eye(4))]),
    "reduce_24_16": kron(T2X3, eye(8)),
})

# Each level's stage chain, input side first: combiners by name, the core
# ``blocks_level<L>`` and signed permutations, read from ``<name>.txt``.
CHAINS = types.MappingProxyType({
    1: ("perm_in_16", "expand_16_24", "perm_in_24", "expand_24_28", "blocks_level1",
        "reduce_28_24", "perm_out_24", "reduce_24_16", "perm_out_16", "signs_out_16"),
    2: ("perm_in_16", "expand_16_24", "perm_in_24", "expand_24_28", "perm_in_28", "expand_28_30",
        "blocks_level2", "reduce_30_28", "perm_out_28", "reduce_28_24", "perm_out_24", "reduce_24_16",
        "perm_out_16", "signs_out_16"),
    3: ("perm_pairs_16", "butterfly_16", "expand_16_24", "sums_24_28", "sums_28_30", "butterfly_30",
        "perm_in_30", "blocks_level3", "reduce_30_30", "perm_out_30", "reduce_30_28", "perm_out_28",
        "reduce_28_24", "perm_out_24", "reduce_24_16", "perm_out_16", "signs_out_16"),
})
LEVELS = tuple(CHAINS)

# Shared two-term combinations of the right-hand coefficients, as (sign,
# index) terms.  Every 4x4-block cell is one addition of two "quad" terms,
# every 2x2-block cell one addition of two "duo" terms, each 1x1 block one
# addition of a duo and a quad term.  Keeping the two families separate
# (even where contents coincide up to sign) is what reproduces the
# published cost accounting.
POOLS = types.MappingProxyType({
    family: tuple(tuple((1 if t >= 0 else -1, abs(t)) for t in pair) for pair in pairs)
    for family, pairs in (
        ("quad", [(0, 5), (10, 15), (1, 2), (13, 14), (-3, 4), (-11, 12), (-6, 7), (-8, 9),
                  (6, 7), (8, 9), (3, 4), (11, 12), (1, -2), (13, -14), (0, -5), (10, -15)]),
        ("duo", [(-4, 10), (-12, 15), (-7, -9), (-13, -14), (7, -9), (-13, 14), (-4, -10), (12, 15)]),
    )
})

_WIDEST = max(max(m.rows, m.cols) for m in COMBINERS.values())


# ---------------------------------------------------------------------------
# stage assets, read and written


def read_stage(path: str, parse):
    """``parse(lines)`` of the lines of the stage-asset file ``path``.
    A file that cannot be read or that ``parse`` refuses (``OSError``,
    ``ValueError``) is an ``AssetError("stage <file>: …")``."""
    try:
        return parse(read_asset_lines(path))
    except (OSError, ValueError) as exc:
        raise AssetError(f"stage {os.path.basename(path)}: {exc}") from exc


def parse_stage(lines) -> Mat:
    """The +-1 matrix of a signed-permutation stage: one line of terms,
    term ``i`` the signed input that output ``i`` takes (``-4`` sends minus
    input 4 to output ``i``); ``ValueError`` for any other line count, a bad
    term or terms that are no permutation."""
    if len(lines) != 1:
        raise ValueError(f"expected one line of terms, got {len(lines)} lines")
    terms = [parse_term(t) for t in lines[0].split()]
    _check_size(len(terms), f"size {len(terms)}")
    signs, src = zip(*terms)
    return signed_perm_matrix(SignedPermutation(src, signs))


def format_stage(p: SignedPermutation, comment: str) -> str:
    """The text of a signed-permutation stage, as :func:`parse_stage` reads it."""
    return f"# {comment}\n{_terms_text(zip(p.signs, p.src))}\n"


def _terms_text(terms) -> str:
    """``(sign, index)`` terms as an asset writes them: ``+0 -5``."""
    return " ".join(format_term(s, m) for s, m in terms)


def _check_size(n: int, what: str) -> None:
    """``ValueError`` naming ``what`` if an ``n`` x ``n`` matrix is smaller
    than 1x1 or wider than any stage, so that no such matrix is ever
    allocated."""
    if not 1 <= n <= _WIDEST:
        problem = "smaller than 1x1" if n < 1 else f"wider than the widest stage ({_WIDEST})"
        raise ValueError(f"{what} would be {n}x{n}, {problem}")


# the pool families a block family draws its four-term cells from, in search order
_POOL_SEARCH = {"quad": ("quad",), "duo": ("duo",), "mixed": ("duo", "quad")}


def index_pools() -> dict:
    """Per block family: signed two-term set -> ``(sign, pool family, index)``,
    the first pair of :data:`POOLS` that gives the set in search order (pool
    family, index, then sign +1 before -1)."""
    index = {}
    for family, searched in _POOL_SEARCH.items():
        found: dict = {}
        for fam in searched:
            for i, pair in enumerate(POOLS[fam]):
                for sign in (1, -1):
                    found.setdefault(frozenset((sign * s, m) for s, m in pair), (sign, fam, i))
        index[family] = found
    return index


_POOL_INDEX = index_pools()


def decompose_terms(terms, family: str):
    """Build the construction recipe of one core cell from its terms.

    One- and two-term cells are built directly.  A four-term cell splits
    as written: the pool pair of its first two terms plus that of its last
    two, both found by :func:`index_pools` under the block's family, where
    the singleton blocks mix the two.  ``ValueError`` for a term outside
    ``b0`` .. ``b15``, and for a four-term cell that does not split so,
    even where another split of the four terms exists.
    """
    cell = _terms_text(terms)
    if not all(0 <= m < DIM for _, m in terms):
        raise ValueError(f"core cell {cell} draws on a coefficient outside b0..b{DIM - 1}")
    if len(terms) == 1:
        s, m = terms[0]
        return ("copy", s, m)
    if len(terms) == 2:
        return ("sum2", terms[0], terms[1])
    if len(terms) != 4:
        raise ValueError(f"core cell has {len(terms)} terms")
    pairs = _POOL_INDEX.get(family)
    if pairs is None:
        raise ValueError(f"unknown pool family {family!r}")
    first, second = pairs.get(frozenset(terms[:2])), pairs.get(frozenset(terms[2:]))
    if first and second:
        return ("pair", first, second)
    raise ValueError(f"core cell {cell} does not split over the {family} pools")


@dataclass(frozen=True)
class CoreBlock:
    """One b-dependent diagonal block of the core stage, as
    :func:`parse_blocks` reads it and ``derive`` builds it."""

    name: str
    size: int
    halved: bool
    family: str
    formulas: tuple  # row-major tuples of (sign, b_index)
    recipes: tuple   # construction recipes, same order


def parse_blocks(lines) -> tuple:
    """The core blocks of a ``blocks_level*.txt`` file: a ``block <name>
    <size> <halved|plain> <family>`` line, then one line of terms per cell,
    each cell's recipe by :func:`decompose_terms`; ``ValueError`` naming
    the block for a bad cell."""
    blocks = []
    i = 0
    while i < len(lines):
        head = lines[i].split()
        if head[0] != "block" or len(head) != 5:
            raise ValueError(f"expected block header, got {lines[i]!r}")
        _, name, size, mode, family = head
        if mode not in ("halved", "plain"):
            raise ValueError(f"bad mode {mode!r}")
        size = parse_int(size)
        _check_size(size, f"block {name}")
        cells = lines[i + 1 : i + 1 + size * size]
        if len(cells) != size * size:
            raise ValueError(f"block {name} is short of cells")
        formulas = tuple(tuple(parse_term(t) for t in ln.split()) for ln in cells)
        try:
            recipes = tuple(decompose_terms(terms, family) for terms in formulas)
        except ValueError as exc:
            raise ValueError(f"block {name}: {exc}") from exc
        blocks.append(CoreBlock(name, size, mode == "halved", family, formulas, recipes))
        i += 1 + size * size
    return tuple(blocks)


def format_blocks(blocks, comment: str) -> str:
    """The text of a ``blocks_level*.txt`` file, as :func:`parse_blocks` reads it."""
    lines = [f"# {comment}",
             "# block <name> <size> <halved|plain> <pool family>; then size^2 cells"]
    for blk in blocks:
        lines.append(f"block {blk.name} {blk.size} {'halved' if blk.halved else 'plain'} {blk.family}")
        lines += map(_terms_text, blk.formulas)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# pipeline


@dataclass(frozen=True)
class Stage:
    """One link of the chain: a constant {-1,0,+1} matrix ``mat``, or the
    b-dependent core, which is the one stage with ``blocks``.  Its widths
    are read from them."""

    name: str
    mat: Mat | None = None
    blocks: tuple | None = None

    @property
    def in_dim(self) -> int:
        return self.mat.cols if self.blocks is None else sum(b.size for b in self.blocks)

    @property
    def out_dim(self) -> int:
        return self.mat.rows if self.blocks is None else self.in_dim


@dataclass(frozen=True)
class Pipeline:
    """An assembled stage chain and its compiled ``program``.

    Built once from immutable parts and compiled when it is built, so one
    cached pipeline can be shared by any number of callers and threads, and
    what it shows is what it runs.
    """

    level: int
    stages: tuple
    asset_dir: str
    program: CompiledProgram = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "program", compile_pipeline(self))

    @property
    def core_index(self) -> int:
        return next(i for i, s in enumerate(self.stages) if s.blocks is not None)

    @property
    def core(self) -> Stage:
        return self.stages[self.core_index]


@lru_cache(maxsize=None)
def _assemble(level: int, asset_dir: str) -> Pipeline:
    if level not in CHAINS:
        raise ValueError(f"level must be 1, 2 or 3, not {level!r}")
    stages = []
    for name in CHAINS[level]:
        path = os.path.join(asset_dir, f"{name}.txt")
        if name in COMBINERS:
            stages.append(Stage(name, mat=COMBINERS[name]))
        elif name == f"blocks_level{level}":
            stages.append(Stage(name, blocks=read_stage(path, parse_blocks)))
        else:
            stages.append(Stage(name, mat=read_stage(path, parse_stage)))
    # checked before Pipeline() compiles the chain, so a bad asset fails with its name
    for prev, cur in zip(stages, stages[1:]):
        if prev.out_dim != cur.in_dim:
            raise AssetError(f"stage {cur.name}: expects {cur.in_dim} inputs, gets {prev.out_dim}")
    return Pipeline(level, tuple(stages), asset_dir)


def assemble_pipeline(level: int) -> Pipeline:
    """The level's pipeline from :func:`default_asset_dir`, assembled once
    per level and directory string: two spellings of one directory give
    two equal pipelines."""
    return _assemble(level, default_asset_dir())


# ---------------------------------------------------------------------------
# binding the core to a right-hand operand, and running the chain


def _signed_sum(ring, x, sx, y, sy):
    first = ring.neg(x) if sx < 0 else x
    return ring.sub(first, y) if sy < 0 else ring.add(first, y)


def bind_block(block: CoreBlock, b, ring, pool_cache) -> list:
    """Evaluate one block's entries by the paper's per-block recipe.

    A pool term is evaluated once per ``pool_cache``, keyed by pool family
    and index, and reused by every block that shares the cache.
    """
    entries = []
    for recipe in block.recipes:
        kind = recipe[0]
        if kind == "copy":
            _, s, m = recipe
            val = ring.neg(b[m]) if s < 0 else b[m]
        elif kind == "sum2":
            _, (s1, m1), (s2, m2) = recipe
            val = _signed_sum(ring, b[m1], s1, b[m2], s2)
        else:
            _, (s1, f1, i1), (s2, f2, i2) = recipe
            for fam, idx in ((f1, i1), (f2, i2)):
                if (fam, idx) not in pool_cache:
                    (sx, mx), (sy, my) = POOLS[fam][idx]
                    pool_cache[fam, idx] = _signed_sum(ring, b[mx], sx, b[my], sy)
            val = _signed_sum(ring, pool_cache[f1, i1], s1, pool_cache[f2, i2], s2)
        entries.append(ring.halve(val) if block.halved else val)
    return entries


def block_matvec(block: CoreBlock, entries, x, ring):
    """Dense block times vector: size-1 additions per output row."""
    n = block.size
    out = []
    for i in range(n):
        acc = ring.mul(entries[i * n], x[0])
        for j in range(1, n):
            acc = ring.add(acc, ring.mul(entries[i * n + j], x[j]))
        out.append(acc)
    return out


# the seed of the operands count_operations multiplies
COUNT_SEED = 2024


def _generic_vector(rng: random.Random):
    # odd and away from +-1 so every product is a generic multiplication
    return [rng.randint(3, 1 << 19) * 2 + 1 for _ in range(DIM)]


def count_operations() -> dict:
    """Counting-ring measurements used by ``count``, the errata report and the tests."""
    table = build_table_from_generators()
    rng = random.Random(COUNT_SEED)
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
        block_matvec(blk, bind_block(blk, b, ring, pool_cache), x[:blk.size], ring)
    return {"schoolbook": school, "fast": per_level, "precompute": pre, "apply": apply_counts,
            "core_additions": core_adds, "per_block_core_additions": ring.counter.additions}


# ---------------------------------------------------------------------------
# compilation to straight-line Python


def compile_pipeline(pipeline: Pipeline) -> CompiledProgram:
    """Record the product M_b . a once, on one :class:`~diracmul.program.Recorder` with
    inputs ``b`` and then ``a``, and compile it.  The recording runs
    :func:`~diracmul.linalg.structural_apply` for each constant stage, and
    for each core block :func:`bind_block`, sharing nothing with the other
    blocks, and :func:`block_matvec`; :class:`~diracmul.program.CompiledProgram`'s folding
    computes each repeated value once and finds the bind/apply split.
    """
    rec = Recorder()
    b, vec = rec.inputs("b", DIM), rec.inputs("a", DIM)
    for stage in pipeline.stages:
        if stage.blocks is None:
            vec = structural_apply(rec, stage.mat, vec)
            continue
        out: list = []
        for blk in stage.blocks:
            entries = bind_block(blk, b, rec, {})
            out += block_matvec(blk, entries, vec[len(out) : len(out) + blk.size], rec)
        vec = out
    return CompiledProgram(rec.tape, vec, f"pipeline level {pipeline.level}")


# ---------------------------------------------------------------------------
# running the compiled functions over a ring


class _Box:
    """A value of a ring whose ``add``/``sub``/``neg``/``mul`` are methods
    of its own: each operator calls the ring's method."""

    __slots__ = ("value", "ring")

    def __init__(self, value, ring):
        self.value = value
        self.ring = ring

    def __add__(self, other):
        return _Box(self.ring.add(self.value, other.value), self.ring)

    def __sub__(self, other):
        return _Box(self.ring.sub(self.value, other.value), self.ring)

    def __neg__(self):
        return _Box(self.ring.neg(self.value), self.ring)

    def __mul__(self, other):
        if type(other) is not _Box:
            return NotImplemented  # a Half, which halves through its __rmul__
        return _Box(self.ring.mul(self.value, other.value), self.ring)


# the ``half`` bind takes over boxes: ``box * _BOX_HALF`` calls the ring's ``halve``
_BOX_HALF = Half(lambda box: _Box(box.ring.halve(box.value), box.ring))


def _boxed(values, ring) -> list:
    return [_Box(v, ring) for v in values]


# ---------------------------------------------------------------------------
# public operations


# the operators the generated code is written with, one global lookup each
_add, _sub, _neg, _mul = operator.add, operator.sub, operator.neg, operator.mul


def mul_fast(a: DiracNumber, b: DiracNumber, level: int = 3, asset_dir: str | None = None) -> DiracNumber:
    """Product a*b through the factorized pipeline; exact on exact rings.

    A ring whose operators are Python's runs the compiled functions on its
    own values and ``half``.  Over ``DYADIC`` and ``INTS`` they run on plain
    integers, each operand at its largest exponent (0 over ``INTS``), and
    bind keeps its halvings in the exponent, so the outputs are the exact
    product times ``2**(ea + eb + halvings)``; over ``INTS`` they are
    shifted back, exactly.  Any other ring goes through a
    :class:`PrecomputedOperator`.  The pipeline is read from ``asset_dir``
    if given, else from :func:`default_asset_dir`.
    """
    ring = a.ring
    if b.ring is not ring:
        raise RingMismatchError(ring, b.ring)
    pipeline = _assemble(level, asset_dir or default_asset_dir())
    prog = pipeline.program
    if ring.add is _add and ring.sub is _sub and ring.neg is _neg and ring.mul is _mul and ring is not INTS:
        out = prog.apply(a.coeffs, prog.bind(ring.half, b.coeffs))
    elif ring is DYADIC or ring is INTS:
        a_ints, ea = exact_ints(a.coeffs, ring)
        b_ints, eb = exact_ints(b.coeffs, ring)
        out = exact_values(prog.apply(a_ints, bind_ints(prog, b_ints)), ea + eb + prog.halvings, ring)
    else:
        return PrecomputedOperator(pipeline, b).apply(a)
    product = object.__new__(DiracNumber)  # around the fresh 16-list, not a copy
    product.coeffs, product.ring = out, ring
    return product


class PrecomputedOperator:
    """Multiplication by a fixed right-hand operand ``b``, bound once.

    The constructor is the one place the operator's path is chosen, from
    ``b``'s ring, and it keeps what that path's ``apply`` runs on.  Over
    ``DYADIC`` and ``INTS`` bind runs on integers, as in :func:`mul_fast`,
    and ``lowered`` holds its results as ``(nums, exp)``, ``nums`` a
    tuple; ``apply`` brings ``a`` to one exponent and runs the compiled
    apply on integers.  A ring
    whose operators are Python's keeps bind's values; any other ring keeps
    the boxes bind returns, given a ``Half`` that calls the ring's
    ``halve``, and ``apply`` boxes ``a`` alone.  ``entries``
    holds the distinct core values (32 at level 3) as values of the ring,
    ``DyadicRational``s over ``INTS`` too (a core value of integers need
    not be an integer), for ``slpgen.flatten`` and callers.
    """

    __slots__ = ("pipeline", "entries", "ring", "lowered", "_apply", "_boxes")

    def __init__(self, pipeline: Pipeline, b: DiracNumber):
        prog = pipeline.program
        ring = b.ring
        self.pipeline, self.ring, self._apply = pipeline, ring, prog.apply
        self.lowered = self._boxes = None
        if ring is DYADIC or ring is INTS:
            b_ints, eb = exact_ints(b.coeffs, ring)
            nums, exp = tuple(bind_ints(prog, b_ints)), eb + prog.halvings
            self.lowered = (nums, exp)
            self.entries = tuple(DyadicRational(n, exp) for n in nums)
        elif runs_natively(ring):
            self.entries = prog.bind(ring.half, b.coeffs)
        else:
            self._boxes = prog.bind(_BOX_HALF, _boxed(b.coeffs, ring))
            self.entries = tuple(box.value for box in self._boxes)

    def apply(self, a: DiracNumber) -> DiracNumber:
        ring = self.ring
        if a.ring is not ring:
            raise RingMismatchError(a.ring, ring)
        lowered = self.lowered
        if lowered is not None:
            a_ints, ea = exact_ints(a.coeffs, ring)
            nums, exp = lowered
            out = exact_values(self._apply(a_ints, nums), ea + exp, ring)
        elif self._boxes is None:
            out = self._apply(a.coeffs, self.entries)
        else:
            out = [y.value for y in self._apply(_boxed(a.coeffs, ring), self._boxes)]
        product = object.__new__(DiracNumber)  # around the fresh 16-list, not a copy
        product.coeffs, product.ring = out, ring
        return product


def precompute(b: DiracNumber, level: int = 3) -> PrecomputedOperator:
    """The operator a -> a*b: the level's pipeline bound to ``b``, on the
    path :func:`mul_fast` takes for ``b``'s ring."""
    return PrecomputedOperator(assemble_pipeline(level), b)


# ---------------------------------------------------------------------------
# the proof, reported per pipeline


@dataclass
class VerifyReport:
    level: int
    mismatches: list  # (row, col, got LinearForm, want LinearForm)

    @property
    def total(self) -> int:
        return DIM * DIM

    @property
    def matches(self) -> int:
        return self.total - len(self.mismatches)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        return f"level {self.level}: symbolic {self.matches}/{self.total} entries match"


def verify_pipeline(pipeline: Pipeline | int) -> VerifyReport:
    """:func:`~diracmul.proof.prove` the pipeline's compiled program (a level is assembled
    first, by :func:`assemble_pipeline`), as a report for its level."""
    if isinstance(pipeline, int):
        pipeline = assemble_pipeline(pipeline)
    return VerifyReport(pipeline.level, prove(pipeline.program))
