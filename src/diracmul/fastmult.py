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

An assembled pipeline is an immutable value, compiled as it is built into
two straight-line Python functions, which follow the paper's product
M_b . a: ``bind(half, b)`` evaluates the distinct core values for a
right-hand operand and ``apply(a, e)`` runs the whole stage chain on the
left-hand operand and those values ``e``.  ``compile_pipeline`` records
the product once, through two kernels: ``linalg.structural_apply`` for
every constant stage and, per core block, ``bind_block`` (the paper's
recipe) and ``block_matvec``.  ``fold_signs`` carries every negation as a
sign into the operation that uses the value and computes each value once,
so level 3's 88 core entries take 32 values up to sign, and
``CompiledProgram`` splits the folded recording: the values of ``b``
alone are bind, the rest apply.  So bind returns the 32 values without
negating any, apply fans them out to the 88 cells with the signs folded
into its sums, and only an output that ends negative is negated (8
negations per product).
Every part of a pipeline is built once as a frozen value -- stage
matrices of tuple rows, tuple tapes, no attribute that can be rebound --
and the pools are a read-only constant, so what a pipeline shows is what
it runs.
The generated code writes additions, subtractions, negations and
multiplications with Python's operators (``x + y``, ``x - y``, ``-x``,
``x * y``) and each halving as ``x * half``, ``half`` being the one
constant bind takes; apply never halves.  So they call nothing, and run
on any values with those operators -- floats, integers, dyadics, counting
scalars and linear forms, whose rings each supply a ``half`` with
``x * half`` equal to ``halve(x)``.  A ring whose
``add``/``sub``/``neg``/``mul`` are ``operator.add`` etc. runs them on its
own values and ``ring.half``; any other ring's values are boxed, so that
each operator calls the ring's method, and halving by an
:class:`~diracmul.exactnum.Half` calls its ``halve``: the ring sees every
recorded operation once.  ``mul_fast``,
``PrecomputedOperator.apply`` and ``verify_pipeline`` all call them:
:func:`prove` checks exactly this code against the ground-truth table.
The code is bilinear, which compilation checks, so the proof runs it once,
over integers that pack every pair of basis vectors into lanes; it runs on
every call.

Over ``DYADIC`` and ``INTS`` the products run those functions on plain
integers rather than on ``DyadicRational`` objects.  Each operand is
brought to one common exponent by ``exactnum.exact_ints``, the lowering
``mul_schoolbook`` uses too, and bind runs with ``half = 1``: every
halving is kept in the exponent instead of performed.  Bind only adds,
subtracts and halves, and each sum combines values of one halving depth,
so a value of depth ``d`` comes out exactly ``2**d`` times its dyadic
value; the entries shallower than the deepest, ``halvings``, are shifted
left to it (none at level 3).  Apply only adds, subtracts, negates and
multiplies, bilinearly, so its outputs are the exact product times
``2**(ea + eb + halvings)``.  Compilation checks all three conditions.
"""

from __future__ import annotations

import linecache
import math
import operator
import os
import random
import types
import weakref
import zlib
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .algebra import (
    DIM,
    DiracNumber,
    RingMismatchError,
    _parse_term,
    build_table_from_generators,
    default_asset_dir,
    format_term,
    mul_schoolbook,
    read_asset_lines,
    runs_natively,
)
from .exactnum import (DYADIC, INTS, CountingRing, DyadicRational, Half, LinearForm, exact_ints, exact_values,
                       parse_int)
from .linalg import (H2, T2X3, T3X2, Mat, SignedPermutation, dirsum, eye, kron, signed_perm_matrix,
                     structural_apply)


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
    terms = [_parse_term(t) for t in lines[0].split()]
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
        formulas = tuple(tuple(_parse_term(t) for t in ln.split()) for ln in cells)
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


RING_OPS = ("add", "sub", "neg", "mul", "halve")


class Recorder:
    """A ring whose values are positions on a tape.

    Each ring operation appends ``(op, args)``; an input appends
    ``(name, (k,))`` and stands for the variable ``<name><k>``.  A
    straight-line program (``slpgen.SLProgram``) is such a tape.
    """

    def __init__(self):
        self.tape: list = []

    def _push(self, op: str, args: tuple) -> int:
        self.tape.append((op, args))
        return len(self.tape) - 1

    def inputs(self, name: str, n: int) -> list:
        return [self._push(name, (k,)) for k in range(n)]

    def add(self, x, y):
        return self._push("add", (x, y))

    def sub(self, x, y):
        return self._push("sub", (x, y))

    def neg(self, x):
        return self._push("neg", (x,))

    def mul(self, x, y):
        return self._push("mul", (x, y))

    def halve(self, x):
        return self._push("halve", (x,))


_INFIX = {"add": "+", "sub": "-", "mul": "*"}
_MAX_NESTING = 50  # operators an inlined value nests at most; Python's parser takes 200 parentheses


def _function_source(signature: str, tape: list, results: list, brackets: str) -> str:
    """``def <signature>:`` computing ``results`` from the tape's inputs.

    The signature names a list per input name, and ``half`` if the tape
    halves: ``bind(half, b)``.  ``add``/``sub``/``mul`` are written as
    infix operators, ``neg`` as unary minus and ``halve`` as
    ``x * half``, so the function calls nothing.  A value used once is
    inlined where it is used unless it nests ``_MAX_NESTING`` operators;
    any other value gets a local.  Every recorded operation runs exactly
    once; the locals in recording order, an inlined value where it is used.
    """
    uses = [0] * len(tape)
    for op, args in tape:
        if op in RING_OPS:
            for x in args:
                uses[x] += 1
    for x in results:
        uses[x] += 1
    params: dict = {}  # input name -> count
    text, body = [], []  # each value as an expression, and the local assignments
    operand = []  # each value as an operand of an operator: parenthesized unless atomic
    nesting = [0] * len(tape)  # the operators nested in each inlined value's text
    for i, (op, args) in enumerate(tape):
        if op not in RING_OPS:
            params[op] = params.get(op, 0) + 1
            text.append(f"{op}{args[0]}")
            operand.append(text[-1])
            continue
        if op == "halve":
            expr = f"{operand[args[0]]} * half"
        elif op == "neg":
            expr = f"-{operand[args[0]]}"
        else:
            expr = f"{operand[args[0]]} {_INFIX[op]} {operand[args[1]]}"
        depth = 1 + max(nesting[x] for x in args)
        if uses[i] == 1 and depth < _MAX_NESTING:
            text.append(expr)
            operand.append(f"({expr})")
            nesting[i] = depth
        else:
            body.append(f"    v{i} = {expr}")
            text.append(f"v{i}")
            operand.append(text[-1])
    lines = [f"def {signature}:"]
    lines += [f"    {', '.join(f'{p}{k}' for k in range(n))}, = {p}" for p, n in params.items()]
    lines += body
    lines.append(f"    return {brackets[0]}")
    lines += [f"        {text[x]}," for x in results]
    lines.append(f"    {brackets[1]}")
    return "\n".join(lines) + "\n"


def _renumbered(tape: list, order: list, position: dict) -> list:
    """The steps of ``tape`` at ``order``, their operands at ``position``."""
    return [(op, tuple(position[x] for x in args) if op in RING_OPS else args)
            for op, args in (tape[i] for i in order)]


_SOURCE_OWNERS: dict = {}  # filename -> how many live functions show their source under it


def _release_source(filename: str) -> None:
    _SOURCE_OWNERS[filename] -= 1
    if not _SOURCE_OWNERS[filename]:
        del _SOURCE_OWNERS[filename]
        linecache.cache.pop(filename, None)


def load_source(source: str, name: str) -> tuple:
    """``(filename, namespace)`` of generated ``source`` run as the file
    ``<diracmul {name}>``, its CRC-32 appended if another source holds that
    name; ``linecache`` shows its lines for as long as any function defined
    from that file lives."""
    filename = f"<diracmul {name}>"
    held = linecache.cache.get(filename)
    if held is not None and "".join(held[2]) != source:
        filename = f"<diracmul {name} {zlib.crc32(source.encode()):08x}>"
    namespace: dict = {}
    exec(compile(source, filename, "exec"), namespace)
    functions = [f for f in namespace.values() if isinstance(f, types.FunctionType)]
    # counted before the entry is made, so that no function collected meanwhile removes it
    _SOURCE_OWNERS[filename] = _SOURCE_OWNERS.get(filename, 0) + len(functions)
    for f in functions:
        weakref.finalize(f, _release_source, filename)
    linecache.cache.setdefault(filename, (len(source), None, source.splitlines(True), filename))
    return filename, namespace


def copy_function(f: types.FunctionType) -> types.FunctionType:
    """A twin of ``f``, a function :func:`load_source` defined: equal code
    in a code object of its own, and one more owner of that source's
    ``linecache`` lines.  CPython 3.11 and later specialize each operator
    of a code object for the values it last ran on, so a twin given only
    integers keeps ``f``'s float specializations from being undone."""
    twin = types.FunctionType(f.__code__.replace(), f.__globals__, f.__name__, f.__defaults__, f.__closure__)
    filename = f.__code__.co_filename
    _SOURCE_OWNERS[filename] += 1  # f lives, so its file has an owner
    weakref.finalize(twin, _release_source, filename)
    return twin


@dataclass(frozen=True, init=False, eq=False, repr=False)
class CompiledProgram:
    """A recorded product as two generated straight-line functions.

    ``tape`` records one product on a :class:`Recorder` with inputs ``b``
    and ``a``; ``results`` are the positions of its sixteen outputs.
    :func:`fold_signs` folds it once, which alone decides what is shared,
    and one pass gives every folded value its degree in ``a``, its degree
    in ``b`` and its halving depth, and splits the program.  ``bind_tape``
    holds the values of ``b`` alone, and ``entries`` the positions of those
    that apply uses, in order of first use.  ``apply_tape`` holds the
    inputs ``a``, one input ``e<k>`` per entry, then the other steps; its
    outputs are the positions ``outputs``.  A frozen value: all four are
    tuples, built once, and no attribute can be rebound, so they stay the
    record of the code that runs.

    ``bind(half, b)`` returns the entries, as a tuple, for right-hand
    coefficients ``b``; ``apply(a, e)`` returns the sixteen output
    coefficients for left-hand coefficients ``a`` and bind's values ``e``.
    Both compute with ``+``, ``-``, ``*`` and unary ``-``, bind halving as
    ``x * half``: a ring's own ``half``, ``1`` on the integer path, a
    :class:`~diracmul.exactnum.Half` over boxes (see
    :class:`PrecomputedOperator`).  ``source`` is their text, loaded by
    :func:`load_source` under ``filename``.

    ``ValueError`` for an input other than ``a<k>`` and ``b<k>``, and
    unless bind is linear in ``b`` (no product of two values
    of ``b`` alone), each sum in it combines values of one halving depth,
    and apply is bilinear in ``a`` and ``b`` (no halving, sums of one
    degree, outputs of degree one in each).  ``halvings`` is the deepest
    entry's depth and ``lifts`` holds ``(index, halvings - depth)`` for each
    shallower entry, so that :func:`_bind_ints` puts every entry at
    ``2**halvings`` times its value.
    """

    bind_tape: tuple
    entries: tuple
    apply_tape: tuple
    outputs: tuple
    halvings: int
    lifts: tuple
    source: str
    filename: str
    bind: types.FunctionType
    apply: types.FunctionType

    def __init__(self, tape: list, results: list, name: str):
        folded, signed = fold_signs(tape)
        kind: list = []  # per folded value: degree in a, degree in b, halving depth (0 in apply)
        used: dict = {}  # value of b alone that apply uses -> its index among the entries
        for i, (op, args) in enumerate(folded):
            operands = [kind[x] for x in args] if op in RING_OPS else []
            if op == "mul":
                (a1, b1, _), (a2, b2, _) = operands
                if not a1 + a2:
                    raise ValueError(f"bind tape multiplies at position {i}; bind must be linear in b")
                kind.append((a1 + a2, b1 + b2, 0))
                for x, (deg_a, _, _) in zip(args, operands):  # a value of b alone enters apply only here
                    if not deg_a:
                        used.setdefault(x, len(used))
            elif op == "halve":
                deg_a, deg_b, depth = operands[0]
                if deg_a:
                    raise ValueError(f"apply tape halves at position {i}; halvings belong in bind")
                kind.append((0, deg_b, depth + 1))
            elif operands:  # add, sub
                if len(set(operands)) != 1:
                    if any(deg_a for deg_a, _, _ in operands):
                        raise ValueError(f"apply tape adds values of different degrees at position {i}")
                    raise ValueError(f"bind tape combines values of different halving depths at position {i}")
                kind.append(operands[0])
            elif op in ("a", "b"):
                kind.append((1, 0, 0) if op == "a" else (0, 1, 0))
            else:
                raise ValueError(f"input {op}{args[0]} is neither a<k> nor b<k>; bind and apply take no other")
        results = [signed[y] for y in results]
        if any(kind[x][:2] != (1, 1) for _, x in results):
            raise ValueError("apply tape has an output that is not bilinear in a and b")
        bind = [i for i, (deg_a, _, _) in enumerate(kind) if not deg_a]
        position = {x: k for k, x in enumerate(bind)}
        bind_tape, entries = tuple(_renumbered(folded, bind, position)), tuple(position[x] for x in used)
        a_inputs = [i for i, (op, _) in enumerate(folded) if op == "a"]
        steps = [i for i, (deg_a, _, _) in enumerate(kind) if deg_a and folded[i][0] in RING_OPS]
        position = {x: k for k, x in enumerate(a_inputs + list(used) + steps)}
        apply_tape = (_renumbered(folded, a_inputs, position) + [("e", (k,)) for k in range(len(used))]
                      + _renumbered(folded, steps, position))
        outputs = tuple(settle_signs(apply_tape, [(sign, position[x]) for sign, x in results]))
        depths = [kind[x][2] for x in used]
        halvings = max(depths, default=0)
        source = (_function_source("bind(half, b)", bind_tape, entries, "()") + "\n\n"
                  + _function_source("apply(a, e)", apply_tape, outputs, "[]"))
        filename, namespace = load_source(source, name)
        for key, value in dict(
                bind_tape=bind_tape, entries=entries, apply_tape=tuple(apply_tape), outputs=outputs,
                halvings=halvings, lifts=tuple((k, halvings - d) for k, d in enumerate(depths) if d < halvings),
                source=source, filename=filename, bind=namespace["bind"], apply=namespace["apply"]).items():
            object.__setattr__(self, key, value)

    @cached_property
    def lane_width(self) -> int:
        """The width ``w`` of the lanes :func:`prove` packs this program's
        basis products into, found on first use: the least ``w`` with
        ``2**(w-1)`` above ``2**halvings`` and above a bound on every output
        of :func:`_bind_ints` and ``apply`` run on unit vectors.  The bound
        holds whatever the program computes, right or wrong: it walks the
        tapes the code was generated from, each input 1, a sum or
        difference the sum of its operands' bounds, a product their product,
        a negation or halving its operand's, and each lifted entry shifted
        as :func:`_bind_ints` shifts it."""
        units = [1] * DIM
        bound = _magnitudes(self.bind_tape, {"b": units})
        entries = [bound[x] for x in self.entries]
        for k, shift in self.lifts:
            entries[k] <<= shift
        bound = _magnitudes(self.apply_tape, {"a": units, "e": entries})
        return max(max(bound[x] for x in self.outputs), 1 << self.halvings).bit_length() + 1


def _magnitudes(tape, inputs: dict) -> list:
    """A bound on the magnitude of each value of ``tape``, given a bound
    ``inputs[name][k]`` on each input ``<name><k>``."""
    bound: list = []
    for op, args in tape:
        if op in ("add", "sub"):
            bound.append(bound[args[0]] + bound[args[1]])
        elif op == "mul":
            bound.append(bound[args[0]] * bound[args[1]])
        elif op in ("neg", "halve"):
            bound.append(bound[args[0]])
        else:
            bound.append(inputs[op][args[0]])
    return bound


def fold_signs(tape: list) -> tuple:
    """``tape`` with every sign carried on its value instead of negated, and
    each value computed once.

    Returns the folded tape and, for each position of ``tape``, its value
    as ``(sign, position in the folded tape)``.  A ``neg`` flips the sign
    and emits nothing.  ``add`` and ``sub`` choose the operator and operand
    order from their operands' signs: ``(-x) + y`` becomes ``y - x`` and
    ``(-x) - y`` becomes ``x + y`` with sign -1.  ``mul`` multiplies the
    signs and ``halve`` keeps its operand's.  A folded step already on the
    folded tape reuses its position, ``add`` and ``mul`` with their operands
    in either order, and ``y - x`` reuses ``x - y`` with sign -1 (only when
    ``x - y`` is already there).  Every folded value equals the recorded one
    up to its sign, exactly: over the floats only the sign of an exact zero
    can differ.
    """
    folded: list = []
    signed: list = []
    seen: dict = {}  # folded step, with sorted operands for add and mul -> its position
    for op, args in tape:
        operands = [signed[x] for x in args] if op in RING_OPS else []
        if op == "neg":
            sign, x = operands[0]
            signed.append((-sign, x))
            continue
        if op in ("add", "sub"):
            (sx, x), (sy, y) = operands
            if op == "sub":
                sy = -sy
            if sx == sy:  # x + y, or -(x + y)
                sign, step = sx, ("add", (x, y))
            else:  # x - y, or y - x
                sign, step = 1, ("sub", (x, y) if sx > 0 else (y, x))
        elif operands:  # mul, halve
            sign, step = math.prod(s for s, _ in operands), (op, tuple(x for _, x in operands))
        else:  # an input
            sign, step = 1, (op, args)
        key = (step[0], tuple(sorted(step[1]))) if step[0] in ("add", "mul") else step
        if key not in seen and step[0] == "sub" and ("sub", step[1][::-1]) in seen:
            sign, key = -sign, ("sub", step[1][::-1])
        if key not in seen:
            folded.append(step)
            seen[key] = len(folded) - 1
        signed.append((sign, seen[key]))
    return folded, signed


def settle_signs(tape: list, values: list) -> list:
    """The positions on ``tape`` of the signed ``values`` that
    :func:`fold_signs` gives: a value with sign -1 gets a ``neg`` appended."""
    positions = []
    for sign, x in values:
        if sign < 0:
            tape.append(("neg", (x,)))
            x = len(tape) - 1
        positions.append(x)
    return positions


def compile_pipeline(pipeline: Pipeline) -> CompiledProgram:
    """Record the product M_b . a once, on one :class:`Recorder` with
    inputs ``b`` and then ``a``, and compile it.  The recording runs
    :func:`~diracmul.linalg.structural_apply` for each constant stage, and
    for each core block :func:`bind_block`, sharing nothing with the other
    blocks, and :func:`block_matvec`; :class:`CompiledProgram`'s folding
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


def _bind_ints(prog: CompiledProgram, b_ints) -> list:
    """The compiled ``bind`` on integers with ``half = 1``, so that each
    halving is left out and kept in the exponent: each distinct core value
    times ``2**halvings``, exactly."""
    entries = prog.bind(1, b_ints)
    if prog.lifts:
        entries = list(entries)
        for k, shift in prog.lifts:
            entries[k] <<= shift
    return entries


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
        out = exact_values(prog.apply(a_ints, _bind_ints(prog, b_ints)), ea + eb + prog.halvings, ring)
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
            nums, exp = tuple(_bind_ints(prog, b_ints)), eb + prog.halvings
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
# symbolic verification


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


def _packed_products(prog: CompiledProgram, w: int) -> list:
    """The program's sixteen outputs from one run of :func:`_bind_ints` on
    ``b_m = 2**(16*w*m)`` and of ``apply`` on ``a_n = 2**(w*n)``.

    The program is bilinear, so output ``k`` is the sum, over every basis
    pair ``(e_n, e_m)``, of ``2**(w*(n + 16*m))`` times output ``k`` of
    ``apply(e_n, _bind_ints(prog, e_m))`` (``2**halvings`` times the
    product's): that output is lane ``n + 16*m``, read back by :func:`_lanes`.
    """
    a = [1 << (w * n) for n in range(DIM)]
    b = [1 << (DIM * w * m) for m in range(DIM)]
    return prog.apply(a, _bind_ints(prog, b))


def _lanes(x: int, w: int) -> list:
    """The 256 signed ``w``-bit lanes of ``x``, lane ``L`` the coefficient of
    ``2**(w*L)``, for each lane strictly between ``-2**(w-1)`` and
    ``2**(w-1)``: biased by ``2**(w-1)``, every lane is a plain ``w``-bit
    digit."""
    half = 1 << (w - 1)
    x += half * (((1 << (DIM * DIM * w)) - 1) // ((1 << w) - 1))  # half in every lane
    mask = (1 << w) - 1
    return [((x >> (w * lane)) & mask) - half for lane in range(DIM * DIM)]


def _form(lanes: list, halvings: int, col: int) -> LinearForm:
    """Column ``col`` of one output's :func:`_lanes` as a linear form in b:
    the coefficient of ``b_m`` is lane ``col + 16*m`` over ``2**halvings``."""
    return LinearForm((DyadicRational(0),) + tuple(DyadicRational(c, halvings) for c in lanes[col::DIM]))


def pipeline_matrix(pipeline: Pipeline) -> Mat:
    """The 16x16 matrix the pipeline's compiled program computes, symbolic in b,
    decoded from the one evaluation :func:`prove` runs.

    No caller in the package: acceptance criterion 1 (``tests/test_acceptance.py``)
    reads every cell of it as one signed coefficient."""
    prog = pipeline.program
    w = prog.lane_width
    rows = [_lanes(y, w) for y in _packed_products(prog, w)]
    return Mat(DIM, DIM, [[_form(rows[k], prog.halvings, n) for n in range(DIM)] for k in range(DIM)])


@lru_cache(maxsize=None)
def _generator_table():
    """The ground-truth table :func:`prove` checks against, built once per
    process and passed to no caller, so none can change it."""
    return build_table_from_generators()


@lru_cache(maxsize=None)
def _packed_table(w: int, halvings: int) -> tuple:
    """The table's products packed as :func:`_packed_products` packs a
    program's: where ``table[n][m] == (sign, k)``, lane ``n + 16*m`` of
    output ``k`` is ``sign * 2**halvings``.  Built once per process for each
    width and depth, all from the one :func:`_generator_table`."""
    table = _generator_table()
    want = [0] * DIM
    for n in range(DIM):
        for m in range(DIM):
            sign, k = table[n][m]
            want[k] += sign << (halvings + w * (n + DIM * m))
    return tuple(want)


def prove(program: CompiledProgram) -> list:
    """Prove ``program`` computes the product of the generator table.

    The proof runs the compiled ``bind`` and ``apply`` once, on integers
    that pack every pair of basis vectors into lanes (:func:`_packed_products`),
    and compares the sixteen outputs with the table packed the same way:
    where ``table[n][m] == (sign, k)``, ``apply(e_n, bind(2**h e_m))`` must
    be ``2**h * sign * e_k``, ``h`` the program's ``halvings``.  Sixteen
    integer comparisons check all 16 x 16 x 16 values, because every lane
    of either side lies strictly between ``-2**(w-1)`` and ``2**(w-1)``,
    ``w`` the program's ``lane_width``, so equal packed integers have equal
    lanes.  The width is found from the program's own tapes, a bound that
    holds for a wrong program too.  That settles the identity for every
    ``a`` and ``b`` because:

    * compilation gives every value its degree in ``a`` and in ``b``, and
      checks that bind is linear in ``b`` and every output bilinear;
    * every sum in bind combines values of one halving depth (compilation
      checks it), so run with ``half = 1`` bind gives each value times
      ``2**depth``, with no rounding, and :func:`_bind_ints` gives the
      entries exactly ``2**halvings`` times the dyadic values.

    So the program computes a bilinear map, and a bilinear map is fixed by
    its values on basis pairs.  Returns the mismatching cells of the
    product matrix, sorted, as ``(row, col, got, want)`` with ``got`` and
    ``want`` linear forms in b, decoded lane by lane from a mismatching
    output only.  Runs the whole proof on every call; the width is found
    once per program and the packed table built once per width and depth.
    """
    w, halvings = program.lane_width, program.halvings
    mismatches = []
    for k, (x, y) in enumerate(zip(_packed_products(program, w), _packed_table(w, halvings))):
        if x != y:
            got, want = _lanes(x, w), _lanes(y, w)
            cols = sorted({lane % DIM for lane, (g, t) in enumerate(zip(got, want)) if g != t})
            mismatches += [(k, n, _form(got, halvings, n), _form(want, halvings, n)) for n in cols]
    return mismatches


def verify_pipeline(pipeline: Pipeline | int) -> VerifyReport:
    """:func:`prove` the pipeline's compiled program (a level is assembled
    first, by :func:`assemble_pipeline`), as a report for its level."""
    if isinstance(pipeline, int):
        pipeline = assemble_pipeline(pipeline)
    return VerifyReport(pipeline.level, prove(pipeline.program))
