"""Straight-line program generation.

Renders recorded operation tapes as branch-free, single-assignment
sequences of scalar instructions and interprets or pretty-prints them.
``flatten`` renders the recording a pipeline's compiled ``bind``/``apply``
were generated from, so the program is the code that runs: it shares the
pooled two-term combinations exactly the way the cost accounting does, and
its opcode histogram agrees with the counting ring.  It proves the
pipeline first and refuses to render one whose proof fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra import DIM, DiracNumber, MultTable, mul_schoolbook
from .exactnum import CountingScalar, DyadicRational, parse_dyadic
from .fastmult import RING_OPS, Pipeline, PrecomputedOperator, Recorder, verify_pipeline
from .linalg import Mat

OPCODES = ("load_a", "load_b", "const", "add", "sub", "neg", "mul", "shift", "store_y")


class SLPError(ValueError):
    """Malformed straight-line program."""


@dataclass(frozen=True)
class SLPInstr:
    """One instruction; dest is None only for store_y."""

    op: str
    dest: int | None
    args: tuple = ()
    aux: object = None  # input/output index, shift amount, or const (num, exp)


class SLProgram:
    """Branch-free single-assignment program computing a 16-wide product.

    Inputs are the left-hand coefficients (``load_a``) plus either the
    right-hand coefficients (``load_b``) or baked-in constants; outputs
    are the sixteen ``store_y`` coordinates.
    """

    def __init__(self, instrs, a_arity: int = DIM, b_arity: int = DIM):
        self.instrs = list(instrs)
        self.a_arity = a_arity
        self.b_arity = b_arity
        self.validate()

    def histogram(self) -> dict:
        counts = {op: 0 for op in OPCODES}
        for i in self.instrs:
            counts[i.op] += 1
        counts["add_total"] = counts["add"] + counts["sub"]
        return counts

    def validate(self) -> None:
        """Single assignment, topological operand order, loads within the
        operand arities, non-negative shifts, 16 stores."""
        arity = {"load_a": self.a_arity, "load_b": self.b_arity}
        next_id = 0
        stores = set()
        for pos, ins in enumerate(self.instrs):
            if ins.op not in OPCODES:
                raise SLPError(f"unknown opcode {ins.op!r} at {pos}")
            for a in ins.args:
                if not 0 <= a < next_id:
                    raise SLPError(f"instruction {pos} reads undefined value v{a}")
            if ins.op in arity and not 0 <= ins.aux < arity[ins.op]:
                raise SLPError(f"instruction {pos}: {ins.op} {ins.aux} outside [0, {arity[ins.op]})")
            if ins.op == "shift" and ins.aux < 0:
                raise SLPError(f"instruction {pos}: negative shift {ins.aux}")
            if ins.op == "store_y":
                if ins.dest is not None:
                    raise SLPError("store_y carries no destination")
                if ins.aux in stores:
                    raise SLPError(f"output {ins.aux} stored twice")
                stores.add(ins.aux)
            else:
                if ins.dest != next_id:
                    raise SLPError(f"instruction {pos}: expected destination v{next_id}")
                next_id += 1
        if stores != set(range(DIM)):
            raise SLPError("program must store each of the 16 outputs exactly once")


class _Builder:
    """Collects instructions, numbering values in order of definition."""

    def __init__(self):
        self.instrs: list[SLPInstr] = []
        self.next_id = 0

    def push(self, op: str, args=(), aux=None) -> int:
        vid = self.next_id
        self.next_id += 1
        self.instrs.append(SLPInstr(op, vid, tuple(args), aux))
        return vid

    def tape(self, tape: list, load) -> list:
        """Append a :class:`~diracmul.fastmult.Recorder` tape; ``load(name,
        k)`` gives the value of input ``<name><k>``.  Returns the value of
        each tape position."""
        ids: list = []
        for op, args in tape:
            if op == "halve":
                ids.append(self.push("shift", (ids[args[0]],), 1))
            elif op in RING_OPS:
                ids.append(self.push(op, [ids[x] for x in args]))
            else:
                ids.append(load(op, args[0]))
        return ids

    def program(self, outputs, a_arity: int, b_arity: int) -> SLProgram:
        for k, src in enumerate(outputs):
            self.instrs.append(SLPInstr("store_y", None, (src,), k))
        return SLProgram(self.instrs, a_arity, b_arity)


def _tape_program(rec: Recorder, outputs, a_arity: int, b_arity: int) -> SLProgram:
    """The program of a recording whose inputs are ``a`` and ``b``."""
    out = _Builder()
    ids = out.tape(rec.tape, lambda name, k: out.push(f"load_{name}", aux=k))
    return out.program([ids[x] for x in outputs], a_arity, b_arity)


def flatten(pipeline: Pipeline, include_precompute: bool = True,
            operator: PrecomputedOperator | None = None) -> SLProgram:
    """The pipeline's compiled program as a straight-line program.

    Renders the recording ``bind`` and ``apply`` were generated from, so
    the instructions are the operations that run.  With
    ``include_precompute`` the program takes both operands and rebuilds
    the core entries (sharing the pooled terms once, as the accounting
    does).  Without it, a precomputed operator must be given and its core
    entries are baked in as constants, leaving only the apply phase.

    Runs :func:`~diracmul.fastmult.verify_pipeline` on ``pipeline`` and
    raises :class:`SLPError` unless the proof passes.
    """
    if not include_precompute and (operator is None or operator.pipeline is not pipeline):
        raise SLPError("apply-only flattening needs a precomputed operator for this pipeline")
    if not verify_pipeline(pipeline).ok:
        raise SLPError("pipeline does not verify; refusing to emit")
    compiled = pipeline.program
    out = _Builder()
    a_ids = [out.push("load_a", aux=k) for k in range(DIM)]
    if include_precompute:
        bind_ids = out.tape(compiled.bind_tape, lambda _name, k: out.push("load_b", aux=k))
        entries = [bind_ids[x] for x in compiled.entries]
        b_arity = DIM
    else:
        entries = [out.push("const", aux=_as_dyadic_pair(val)) for val in operator.entries]
        b_arity = 0
    ids = out.tape(compiled.apply_tape, lambda name, k: a_ids[k] if name == "a" else entries[k])
    return out.program([ids[x] for x in compiled.outputs], DIM, b_arity)


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
    """The naive product as a reference program: :func:`~diracmul.algebra.mul_schoolbook`
    recorded once, 256 muls and 240 adds."""
    rec = Recorder()
    a = DiracNumber(rec.inputs("a", DIM), rec)
    b = DiracNumber(rec.inputs("b", DIM), rec)
    return _tape_program(rec, mul_schoolbook(a, b, table).coeffs, DIM, DIM)


def structural_program(mat: Mat) -> SLProgram:
    """Flatten one structural stage alone (inputs via load_a).

    Pads the outputs onto the 16 store slots so the result is still a
    well-formed program; only the add/sub/neg histogram is interesting.
    """
    from .linalg import structural_apply

    if mat.rows > DIM:
        raise SLPError("structural_program only handles stages up to 16 outputs")
    if not all(any(row) for row in mat.entries):
        raise SLPError("pipeline stages must not produce structurally zero outputs")
    rec = Recorder()
    out = structural_apply(rec, mat, rec.inputs("a", mat.cols))
    return _tape_program(rec, [out[k] if k < len(out) else out[0] for k in range(DIM)], mat.cols, 0)


def interpret(program: SLProgram, a_vals, b_vals, ring):
    """Evaluate in instruction order; exact on exact rings."""
    if len(a_vals) != program.a_arity or len(b_vals) != program.b_arity:
        raise SLPError("operand arity mismatch")
    values = []
    out = [None] * DIM
    for ins in program.instrs:
        if ins.op == "load_a":
            values.append(a_vals[ins.aux])
        elif ins.op == "load_b":
            values.append(b_vals[ins.aux])
        elif ins.op == "const":
            num, exp = ins.aux
            values.append(ring.from_dyadic(num, exp))
        elif ins.op == "add":
            values.append(ring.add(values[ins.args[0]], values[ins.args[1]]))
        elif ins.op == "sub":
            values.append(ring.sub(values[ins.args[0]], values[ins.args[1]]))
        elif ins.op == "neg":
            values.append(ring.neg(values[ins.args[0]]))
        elif ins.op == "mul":
            values.append(ring.mul(values[ins.args[0]], values[ins.args[1]]))
        elif ins.op == "shift":
            v = values[ins.args[0]]
            for _ in range(ins.aux):
                v = ring.halve(v)
            values.append(v)
        else:  # store_y
            out[ins.aux] = values[ins.args[0]]
    return out


def emit_text(program: SLProgram) -> str:
    """Deterministic, diff-stable rendering with a histogram header."""
    h = program.histogram()
    lines = [
        f"# mul={h['mul']} add={h['add_total']} neg={h['neg']} shift={h['shift']}",
        f"# inputs: a={program.a_arity} b={program.b_arity} const={h['const']} outputs=16",
    ]
    for ins in program.instrs:
        if ins.op in ("load_a", "load_b"):
            lines.append(f"v{ins.dest} = {ins.op} {ins.aux}")
        elif ins.op == "const":
            num, exp = ins.aux
            token = str(num) if exp == 0 else f"{num}/2^{exp}"
            lines.append(f"v{ins.dest} = const {token}")
        elif ins.op == "shift":
            lines.append(f"v{ins.dest} = shift v{ins.args[0]} {ins.aux}")
        elif ins.op == "neg":
            lines.append(f"v{ins.dest} = neg v{ins.args[0]}")
        elif ins.op == "store_y":
            lines.append(f"store_y {ins.aux} v{ins.args[0]}")
        else:
            lines.append(f"v{ins.dest} = {ins.op} v{ins.args[0]} v{ins.args[1]}")
    return "\n".join(lines) + "\n"


# per opcode after "v<id> = ": the number of value operands, then of integers
_OPERANDS = {"load_a": (0, 1), "load_b": (0, 1), "neg": (1, 0), "shift": (1, 1),
             "add": (2, 0), "sub": (2, 0), "mul": (2, 0)}


def parse_text(text: str) -> SLProgram:
    """Inverse of :func:`emit_text` (header lines are ignored).

    A malformed line raises :class:`SLPError` naming that line.
    """
    instrs = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            try:
                instrs.append(_parse_line(line))
            except ValueError as exc:
                raise SLPError(f"cannot parse line {line!r}: {exc}") from exc
    arity = lambda op: max((i.aux + 1 for i in instrs if i.op == op), default=0)
    return SLProgram(instrs, arity("load_a"), arity("load_b"))


def _parse_line(line: str) -> SLPInstr:
    lhs, eq, rhs = line.partition(" = ")
    op, *operands = (rhs if eq else lhs).split()
    if not eq:
        if op != "store_y" or len(operands) != 2:
            raise SLPError("expected 'store_y <k> v<id>' or 'v<id> = <op> ...'")
        return SLPInstr(op, None, (_vid(operands[1]),), int(operands[0]))
    dest = _vid(lhs)
    if op == "const":
        if len(operands) != 1:
            raise SLPError(f"const takes one number, got {len(operands)} operands")
        value = parse_dyadic(operands[0])
        return SLPInstr(op, dest, (), (value.num, value.exp))
    if op not in _OPERANDS:
        raise SLPError(f"unknown opcode {op!r}")
    n_vals, n_ints = _OPERANDS[op]
    if len(operands) != n_vals + n_ints:
        raise SLPError(f"{op} takes {n_vals + n_ints} operands, got {len(operands)}")
    aux = int(operands[n_vals]) if n_ints else None
    return SLPInstr(op, dest, tuple(_vid(t) for t in operands[:n_vals]), aux)


def _vid(token: str) -> int:
    if not token.startswith("v"):
        raise SLPError(f"expected a value token, got {token!r}")
    return int(token[1:])
