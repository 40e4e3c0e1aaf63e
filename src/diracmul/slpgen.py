"""Straight-line programs.

A program is a :class:`~diracmul.program.Recorder` tape, the form the
compiled product is generated from: the inputs ``a<k>`` and ``b<k>`` in
index order, then the steps, a baked-in constant as an input ``c<j>`` and
each halving as one ``halve`` step.  ``flatten`` joins the sign-folded
tapes a pipeline's compiled ``bind``/``apply`` were generated from,
renumbering positions only, so the program is the code that runs: it
shares the pooled two-term combinations exactly the way the cost
accounting does, and its opcode histogram agrees with the counting ring.
It proves the pipeline first and refuses to render one whose proof fails.
``interpret`` runs a program as the code ``program.function_source``
generates from its tape, once per program.  Only ``emit_text`` and
``parse_text`` know the text syntax.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property

from .algebra import DIM, MultTable, record_schoolbook, runs_natively
from .exactnum import DYADIC, INTS, CountingScalar, DyadicRational, parse_dyadic, parse_int
from .fastmult import Pipeline, PrecomputedOperator, verify_pipeline
from .program import RING_OPS, function_source, load_source, renumbered

OPCODES = ("load_a", "load_b", "const", "add", "sub", "neg", "mul", "shift", "store_y")
_OPCODE = {"a": "load_a", "b": "load_b", "c": "const", "halve": "shift"}  # tape op -> text opcode, if renamed
_MAX_SHIFT = 64  # halvings one parsed shift may stand for
_VID = re.compile(r"v(?:0|[1-9][0-9]*)")


class SLPError(ValueError):
    """Malformed straight-line program."""


@dataclass(frozen=True)
class SLProgram:
    """Branch-free single-assignment program computing a 16-wide product.

    ``instrs`` is its tape: the inputs ``a<k>``, then ``b<k>``, then the
    steps, among them ``c<j>``, the constant ``consts[j]`` as ``(num,
    exp)``.  ``outputs`` holds the positions of the sixteen output
    coordinates.  A frozen value of tuples: ``compiled`` is generated from
    them once.
    """

    instrs: tuple
    outputs: tuple
    consts: tuple = ()
    a_arity: int = field(init=False, repr=False, compare=False)
    b_arity: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for key in ("instrs", "outputs", "consts"):
            object.__setattr__(self, key, tuple(getattr(self, key)))
        object.__setattr__(self, "a_arity", sum(op == "a" for op, _ in self.instrs))
        object.__setattr__(self, "b_arity", sum(op == "b" for op, _ in self.instrs))

    def histogram(self) -> dict:
        """Tape entries per text opcode, each ``halve`` one ``shift``."""
        counts = dict.fromkeys(OPCODES, 0)
        for op, _ in self.instrs:
            counts[_OPCODE.get(op, op)] += 1
        counts["store_y"] = len(self.outputs)
        counts["add_total"] = counts["add"] + counts["sub"]
        return counts

    @cached_property
    def compiled(self):
        """``run(half, a, b, c)``, generated from the tape on first use:
        the outputs for inputs ``a`` and ``b`` and constants ``c``, each
        ``halve`` as ``x * half``; :func:`~diracmul.program.load_source` runs it."""
        source = function_source("program(half, a, b, c)", self.instrs, self.outputs, "[]")
        return load_source(source, "straight-line program")[1]["program"]


def flatten(pipeline: Pipeline, include_precompute: bool = True,
            operator: PrecomputedOperator | None = None) -> SLProgram:
    """The pipeline's compiled program as a straight-line program.

    Joins the sign-folded tapes ``bind`` and ``apply`` were generated
    from, so the steps are the operations that run.  With
    ``include_precompute`` the program takes both operands and its steps
    are ``bind_tape``'s, rebuilding the distinct core values (sharing the
    pooled terms once, as the accounting does), then apply's.  Without it,
    a precomputed operator must be given and its distinct core values are
    baked in as constants, leaving only the apply phase.

    Runs :func:`~diracmul.fastmult.verify_pipeline` on ``pipeline`` and
    raises :class:`SLPError` unless the proof passes.
    """
    if not include_precompute and (operator is None or operator.pipeline is not pipeline):
        raise SLPError("apply-only flattening needs a precomputed operator for this pipeline")
    if not verify_pipeline(pipeline).ok:
        raise SLPError("pipeline does not verify; refusing to emit")
    compiled = pipeline.program
    tape = [("a", (k,)) for k in range(DIM)]
    if include_precompute:
        bind = compiled.bind_tape
        tape += renumbered(bind, range(len(bind)), range(DIM, DIM + len(bind)))
        entries, consts = [DIM + x for x in compiled.entries], ()
    else:
        consts = [_as_dyadic_pair(val) for val in operator.entries]
        entries = range(DIM, DIM + len(consts))
        tape += [("c", (k,)) for k in range(len(consts))]
    # apply's inputs a<k> and e<k>, then its steps, at their positions in the joined tape
    position = [args[0] if op == "a" else entries[args[0]] for op, args in compiled.apply_tape if op not in RING_OPS]
    steps = range(len(position), len(compiled.apply_tape))
    position += range(len(tape), len(tape) + len(steps))
    tape += renumbered(compiled.apply_tape, steps, position)
    return SLProgram(tape, [position[x] for x in compiled.outputs], consts)


def _as_dyadic_pair(val):
    if isinstance(val, CountingScalar):
        val = val.value
    if isinstance(val, float):
        if not math.isfinite(val):
            raise SLPError(f"cannot bake value {val!r} into a constant")
        num, den = val.as_integer_ratio()  # in lowest terms, den a power of two
        return num, den.bit_length() - 1
    if isinstance(val, DyadicRational):
        n = val.normalized()
        return n.num, n.exp
    if isinstance(val, int):
        return val, 0
    raise SLPError(f"cannot bake value {val!r} into a constant")


def schoolbook_program(table: MultTable) -> SLProgram:
    """The naive product as a reference program: :func:`~diracmul.algebra.mul_schoolbook`'s
    loop recorded once by :func:`~diracmul.algebra.record_schoolbook`, 256 muls and 240 adds."""
    return SLProgram(*record_schoolbook(table))


def interpret(program: SLProgram, a_vals, b_vals, ring):
    """Run :attr:`SLProgram.compiled` on values of ``DYADIC`` or of a ring
    whose ``add``/``sub``/``neg``/``mul`` are Python's operators (else
    ``TypeError``), halving by ``ring.half``.  ``INTS`` runs on ``DYADIC``,
    each output converted back exactly; ``ValueError`` if one is not an
    integer."""
    if len(a_vals) != program.a_arity or len(b_vals) != program.b_arity:
        raise SLPError("operand arity mismatch")
    if ring is INTS:
        out = interpret(program, [DyadicRational(v) for v in a_vals], [DyadicRational(v) for v in b_vals], DYADIC)
        return [INTS.from_dyadic(y.num, y.exp) for y in out]
    if ring is not DYADIC and not runs_natively(ring):
        raise TypeError(f"ring {ring.name!r} does not compute with Python's operators; interpret cannot run on it")
    return program.compiled(ring.half, a_vals, b_vals, [ring.from_dyadic(num, exp) for num, exp in program.consts])


def emit_text(program: SLProgram) -> str:
    """Deterministic, diff-stable rendering with a histogram header: tape
    position ``i`` is the value ``v<i>``, and each ``halve`` a ``shift`` by 1."""
    h = program.histogram()
    lines = [
        f"# mul={h['mul']} add={h['add_total']} neg={h['neg']} shift={h['shift']}",
        f"# inputs: a={program.a_arity} b={program.b_arity} const={h['const']} outputs=16",
    ]
    for i, (op, args) in enumerate(program.instrs):
        if op == "c":
            operands = [repr(DyadicRational(*program.consts[args[0]]))]
        elif op in RING_OPS:
            operands = [f"v{x}" for x in args] + (["1"] if op == "halve" else [])
        else:
            operands = [str(args[0])]
        lines.append(f"v{i} = {' '.join([_OPCODE.get(op, op), *operands])}")
    lines += [f"store_y {k} v{x}" for k, x in enumerate(program.outputs)]
    return "\n".join(lines) + "\n"


# per opcode after "v<id> = ": the number of value operands, then of integers
_OPERANDS = {"load_a": (0, 1), "load_b": (0, 1), "neg": (1, 0), "shift": (1, 1),
             "add": (2, 0), "sub": (2, 0), "mul": (2, 0)}


def parse_text(text: str) -> SLProgram:
    """Inverse of :func:`emit_text` (header lines are ignored).

    A load's index is in [0, 16), and ``shift v<id> k`` stands for ``k``
    halvings, ``0 <= k <= 64`` (emitted programs shift by 1).  Indices,
    output numbers and shift amounts are read as ``emit_text`` writes
    them, by :func:`~diracmul.exactnum.parse_int`, and value ids as
    ``v(0|[1-9][0-9]*)``; a ``const`` reads its number with
    :func:`~diracmul.exactnum.parse_dyadic`, the number-file grammar.
    Each value is defined once, in order, before it is read, and each of
    the sixteen outputs is stored once.  A line that breaks a rule raises
    :class:`SLPError` naming that line.
    """
    lines = [line for line in map(str.strip, text.splitlines()) if line and not line.startswith("#")]
    try:
        parsed = []
        for line in lines:
            parsed.append(_parse_line(line))
        arity = {op: max((n + 1 for _, o, _, n in parsed if o == op), default=0) for op in ("load_a", "load_b")}
        tape = [("a", (k,)) for k in range(arity["load_a"])] + [("b", (k,)) for k in range(arity["load_b"])]
        values, outputs, consts = [], [None] * DIM, []  # values: tape position of each v<id>
        for line, (dest, op, args, n) in zip(lines, parsed):
            for v in args:
                if not 0 <= v < len(values):
                    raise SLPError(f"reads undefined value v{v}")
            if op == "store_y":
                if outputs[n] is not None:
                    raise SLPError(f"output {n} stored twice")
                outputs[n] = values[args[0]]
                continue
            if dest != len(values):
                raise SLPError(f"expected destination v{len(values)}")
            if op in ("load_a", "load_b"):
                x = n + (arity["load_a"] if op == "load_b" else 0)
            elif op == "shift":
                x = values[args[0]]
                for _ in range(n):
                    tape.append(("halve", (x,)))
                    x = len(tape) - 1
            else:
                if op == "const":
                    tape.append(("c", (len(consts),)))
                    consts.append(n)
                else:
                    tape.append((op, tuple(values[v] for v in args)))
                x = len(tape) - 1
            values.append(x)
    except ValueError as exc:
        raise SLPError(f"cannot parse line {line!r}: {exc}") from exc
    if None in outputs:
        raise SLPError("program must store each of the 16 outputs exactly once")
    return SLProgram(tape, outputs, consts)


def _parse_line(line: str) -> tuple:
    """``(dest, opcode, value operands, integer or const (num, exp))``; no
    dest for ``store_y``."""
    lhs, eq, rhs = line.partition(" = ")
    op, *operands = (rhs if eq else lhs).split()
    if not eq:
        if op != "store_y" or len(operands) != 2:
            raise SLPError("expected 'store_y <k> v<id>' or 'v<id> = <op> ...'")
        k = parse_int(operands[0])
        if not 0 <= k < DIM:
            raise SLPError(f"output {k} outside [0, {DIM})")
        return None, op, (_vid(operands[1]),), k
    dest = _vid(lhs)
    if op == "const":
        if len(operands) != 1:
            raise SLPError(f"const takes one number, got {len(operands)} operands")
        value = parse_dyadic(operands[0])
        return dest, op, (), (value.num, value.exp)
    if op not in _OPERANDS:
        raise SLPError(f"unknown opcode {op!r}")
    n_vals, n_ints = _OPERANDS[op]
    if len(operands) != n_vals + n_ints:
        raise SLPError(f"{op} takes {n_vals + n_ints} operands, got {len(operands)}")
    n = parse_int(operands[n_vals]) if n_ints else None
    if op == "shift" and not 0 <= n <= _MAX_SHIFT:
        raise SLPError(f"negative shift {n}" if n < 0 else f"shift {n} above {_MAX_SHIFT}")
    if op in ("load_a", "load_b") and not 0 <= n < DIM:
        raise SLPError(f"{op} {n} outside [0, {DIM})")
    return dest, op, tuple(_vid(t) for t in operands[:n_vals]), n


def _vid(token: str) -> int:
    if not _VID.fullmatch(token):
        raise SLPError(f"expected a value token, got {token!r}")
    return int(token[1:])
