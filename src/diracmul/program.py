"""Straight-line programs: recording, code generation and compilation.

A program is a tape: run any ring-generic code on a :class:`Recorder` and
each ring operation it makes is appended as ``(op, args)``, each input as
``(name, (k,))``.  :func:`function_source` writes a tape as one Python
function with Python's operators (``x + y``, ``x - y``, ``-x``, ``x * y``,
each halving ``x * half``), so it calls nothing; :func:`load_source` runs
that text under a file name ``linecache`` shows for as long as a function
from it lives, and :func:`copy_function` gives a function a twin code
object.  :class:`CompiledProgram` compiles the recording of one bilinear
product ``a * b``: :func:`fold_signs` carries every negation as a sign and
computes each value once, and the folded tape splits into ``bind(half,
b)``, the values of ``b`` alone, and ``apply(a, e)``, the rest.

The schoolbook product (``algebra``), the fast pipeline (``fastmult``) and
the text programs (``slpgen``) are all generated here, and ``proof``
checks a compiled program against the algebra's table.  This module
imports only the standard library, so each of them can build on it.
"""

from __future__ import annotations

import linecache
import math
import types
import weakref
import zlib
from dataclasses import dataclass
from functools import cached_property

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


def function_source(signature: str, tape: list, results: list, brackets: str) -> str:
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


def renumbered(tape: list, order: list, position: dict) -> list:
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
    ``fastmult.PrecomputedOperator``).  ``source`` is their text, loaded by
    :func:`load_source` under ``filename``.

    ``ValueError`` for an input other than ``a<k>`` and ``b<k>``, and
    unless bind is linear in ``b`` (no product of two values
    of ``b`` alone), each sum in it combines values of one halving depth,
    and apply is bilinear in ``a`` and ``b`` (no halving, sums of one
    degree, outputs of degree one in each).  ``halvings`` is the deepest
    entry's depth and ``lifts`` holds ``(index, halvings - depth)`` for each
    shallower entry, so that :func:`bind_ints` puts every entry at
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
        bind_tape, entries = tuple(renumbered(folded, bind, position)), tuple(position[x] for x in used)
        a_inputs = [i for i, (op, _) in enumerate(folded) if op == "a"]
        steps = [i for i, (deg_a, _, _) in enumerate(kind) if deg_a and folded[i][0] in RING_OPS]
        position = {x: k for k, x in enumerate(a_inputs + list(used) + steps)}
        apply_tape = (renumbered(folded, a_inputs, position) + [("e", (k,)) for k in range(len(used))]
                      + renumbered(folded, steps, position))
        outputs = tuple(settle_signs(apply_tape, [(sign, position[x]) for sign, x in results]))
        depths = [kind[x][2] for x in used]
        halvings = max(depths, default=0)
        source = (function_source("bind(half, b)", bind_tape, entries, "()") + "\n\n"
                  + function_source("apply(a, e)", apply_tape, outputs, "[]"))
        filename, namespace = load_source(source, name)
        for key, value in dict(
                bind_tape=bind_tape, entries=entries, apply_tape=tuple(apply_tape), outputs=outputs,
                halvings=halvings, lifts=tuple((k, halvings - d) for k, d in enumerate(depths) if d < halvings),
                source=source, filename=filename, bind=namespace["bind"], apply=namespace["apply"]).items():
            object.__setattr__(self, key, value)

    @cached_property
    def lane_width(self) -> int:
        """The width ``w`` of the lanes ``proof.prove`` packs this program's
        basis products into, found on first use: the least ``w`` with
        ``2**(w-1)`` above ``2**halvings`` and above a bound on every output
        of :func:`bind_ints` and ``apply`` run on unit vectors.  The bound
        holds whatever the program computes, right or wrong: it walks the
        tapes the code was generated from, each input 1, a sum or
        difference the sum of its operands' bounds, a product their product,
        a negation or halving its operand's, and each lifted entry shifted
        as :func:`bind_ints` shifts it."""
        bound = _magnitudes(self.bind_tape, ())
        entries = [bound[x] for x in self.entries]
        for k, shift in self.lifts:
            entries[k] <<= shift
        bound = _magnitudes(self.apply_tape, entries)
        return max(max(bound[x] for x in self.outputs), 1 << self.halvings).bit_length() + 1


def bind_ints(prog: CompiledProgram, b_ints) -> list:
    """The compiled ``bind`` on integers with ``half = 1``, so that each
    halving is left out and kept in the exponent: each distinct core value
    times ``2**halvings``, exactly."""
    entries = prog.bind(1, b_ints)
    if prog.lifts:
        entries = list(entries)
        for k, shift in prog.lifts:
            entries[k] <<= shift
    return entries


def _magnitudes(tape, entries) -> list:
    """A bound on the magnitude of each value of ``tape``, given a bound
    ``entries[k]`` on each input ``e<k>`` and 1 on every other input."""
    bound: list = []
    for op, args in tape:
        if op in ("add", "sub"):
            bound.append(bound[args[0]] + bound[args[1]])
        elif op == "mul":
            bound.append(bound[args[0]] * bound[args[1]])
        elif op in ("neg", "halve"):
            bound.append(bound[args[0]])
        else:
            bound.append(entries[args[0]] if op == "e" else 1)
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
