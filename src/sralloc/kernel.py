"""Loop-nest intermediate representation and the ``.knl`` kernel DSL.

A kernel is a single perfectly nested loop with compile-time constant
bounds; the innermost body is a list of statements whose array subscripts
are integer-linear in the enclosing loop indices.  Params come first, then
the nest, in which each loop holds exactly one loop or the statements.
Comments run from ``#`` to end of line; newlines are otherwise just
whitespace::

    # comment
    param N = 16;
    loop i = 0..N {
      loop j = 0..N {
        S1: c[i][j] += a[i][j] * b[j][i];
      }
    }

A loop is ``loop index = lower..upper [step s] {``: the bounds are integers
or params, ``upper`` is exclusive, and the integer step ``s`` is >= 1.
Statements are ``label: ref (=|+=) term [(*|+|-|==) term];`` where a term
is an array reference and every subscript is an integer-linear combination
of enclosing indices and params.  ``+=`` marks a reduction; it contributes
an implicit read of the written element.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import count


class KernelError(ValueError):
    """Base class for kernel parsing and validation failures."""


class KernelSyntaxError(KernelError):
    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column


class KernelValidationError(KernelError):
    pass


@dataclass(frozen=True)
class AffineExpr:
    """constant + sum(coef * index); zero coefficients are never stored."""

    const: int = 0
    terms: tuple[tuple[str, int], ...] = ()

    @staticmethod
    def make(const: int, coeffs: dict[str, int]) -> "AffineExpr":
        return AffineExpr(const, tuple(sorted((n, c) for n, c in coeffs.items() if c)))

    def indices(self) -> frozenset[str]:
        return frozenset(n for n, _ in self.terms)

    def coeff(self, name: str) -> int:
        for n, c in self.terms:
            if n == name:
                return c
        return 0

    def __str__(self) -> str:
        """Terms in name order, then a nonzero constant, joined by `` + `` or `` - ``."""
        terms = [(n if abs(c) == 1 else f"{abs(c)}*{n}", c < 0) for n, c in self.terms]
        if self.const or not terms:
            terms.append((str(abs(self.const)), self.const < 0))
        text = "-" * terms[0][1] + terms[0][0]
        for mag, neg in terms[1:]:
            text += f" {'-' if neg else '+'} {mag}"
        return text


@dataclass(frozen=True)
class ArrayRef:
    """One static array reference; ``ref_id`` is unique within the kernel."""

    ref_id: int
    array: str
    subscripts: tuple[AffineExpr, ...]
    access: str  # "read" | "write"
    implicit: bool = False  # synthesized read of a reduction target

    def __str__(self) -> str:
        subs = "".join(f"[{e}]" for e in self.subscripts)
        return f"{self.array}{subs}"


_OP_TOKEN = {"*": "multiply", "+": "add", "-": "subtract", "==": "compare"}
_TOKEN_OP = {v: k for k, v in _OP_TOKEN.items()}


@dataclass(frozen=True)
class Statement:
    stmt_id: int
    label: str
    write: ArrayRef
    reads: tuple[ArrayRef, ...]  # explicit reads first, implicit reduction read last
    op: str  # "copy" or a value of _OP_TOKEN
    accumulate: bool = False

    @property
    def explicit_reads(self) -> tuple[ArrayRef, ...]:
        return tuple(r for r in self.reads if not r.implicit)

    @property
    def refs(self) -> tuple[ArrayRef, ...]:
        return (self.write,) + self.reads


@dataclass(frozen=True)
class Loop:
    index: str
    lower: int
    upper: int  # exclusive
    step: int = 1

    @cached_property  # kept in the instance dict; == and hash read only the fields
    def trip(self) -> int:
        return len(range(self.lower, self.upper, self.step))

    @property
    def range(self) -> range:
        return range(self.lower, self.upper, self.step)


@dataclass(frozen=True)
class Kernel:
    name: str
    params: tuple[tuple[str, int], ...]
    loops: tuple[Loop, ...]
    statements: tuple[Statement, ...]

    def __hash__(self) -> int:  # the dataclass hash of the fields, computed once per object
        if (h := self.__dict__.get("_hash")) is None:
            h = hash((self.name, self.params, self.loops, self.statements))
            object.__setattr__(self, "_hash", h)
        return h

    @property
    def depth(self) -> int:
        return len(self.loops)

    @cached_property  # kept in the instance dict, like the hash
    def refs(self) -> tuple[ArrayRef, ...]:
        out: list[ArrayRef] = []
        for s in self.statements:
            out.extend(s.refs)
        return tuple(sorted(out, key=lambda r: r.ref_id))

    @cached_property
    def arrays(self) -> tuple[str, ...]:
        """Array names in first-appearance order (write target first per statement)."""
        return tuple(dict.fromkeys(r.array for r in self.refs))


def iteration_space_size(kernel: Kernel, level: int) -> int:
    """Product of trip counts of loops at depth >= level; level 0 is the whole nest."""
    if not 0 <= level <= kernel.depth:
        raise KernelValidationError(f"level {level} out of range 0..{kernel.depth}")
    n = 1
    for lp in kernel.loops[level:]:
        n *= lp.trip
    return n


# ---------------------------------------------------------------------------
# DSL parsing

#: one token per match; whitespace matches no branch, and ``bad`` is any other character
_TOKEN_RE = re.compile(r"(?P<int>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
                       r"|(?P<sym>==|\+=|\.\.|[][{}+\-*=;:])|(?P<bad>\S)")


def _tokenize(source: str) -> list[tuple[str, str, int, int]]:
    """(kind, text, line, column) tokens; # comments run to end of line."""
    tokens = []
    for line_no, text in enumerate(source.splitlines(), start=1):
        for m in _TOKEN_RE.finditer(text.split("#", 1)[0]):
            if m.lastgroup == "bad":
                raise KernelSyntaxError(f"unexpected character {m[0]!r}", line_no, m.start() + 1)
            tokens.append((m.lastgroup, m[0], line_no, m.start() + 1))
    return tokens


class _TokenParser:
    """Recursive descent over the token stream; newlines are whitespace.

    Each check reads the current token before ``take`` consumes it, so
    ``error`` alone places a syntax error: at that token, or at the last
    token once the input has ended.
    """

    def __init__(self, tokens):
        end = tokens[-1][2:] if tokens else (0, 0)  # the eof token sits at the last token
        self.toks = tokens + [("eof", "", *end)]
        self.i = 0
        self.params: dict[str, int] = {}
        self.indices: tuple[str, ...] = ()  # enclosing loop indices
        self.dims: dict[str, int] = {}  # subscript count of each array seen
        self.ref_ids = count()

    def error(self, msg: str):
        _, _, line, col = self.toks[self.i]
        raise KernelSyntaxError(msg, line, col)

    def peek(self) -> tuple[str, str, int, int]:
        return self.toks[self.i]

    def take(self, kind=None, value=None) -> tuple[str, str, int, int]:
        tok = self.toks[self.i]
        if kind and tok[0] != kind:
            self.error(f"expected {value or kind}, found {tok[1]!r}"
                       if tok[0] != "eof" else f"expected {value or kind}")
        if value and tok[1] != value:
            self.error(f"expected {value!r}, found {tok[1]!r}")
        self.i += 1
        return tok

    # --- affine expressions -------------------------------------------------

    def sign(self) -> int:
        """-1 after a '-', else 1; consumes an optional '+' or '-'."""
        if self.peek()[1] in ("+", "-"):
            return -1 if self.take()[1] == "-" else 1
        return 1

    def affine(self) -> AffineExpr:
        """A sum of products.  Each term takes up to two signs; after the first
        term, the first of them is the ``+`` or ``-`` that joins it on."""
        const, coeffs = 0, {}
        while True:
            value, index = self.product(self.sign() * self.sign())
            if index is None:
                const += value
            else:
                coeffs[index] = coeffs.get(index, 0) + value
            if self.peek()[1] not in ("+", "-"):
                return AffineExpr.make(const, coeffs)

    def product(self, value: int) -> tuple[int, str | None]:
        """``value`` times a product of integers, params and at most one loop
        index; returns the coefficient and the index, or the constant and None."""
        index = None
        while True:
            kind, text, _, _ = self.peek()
            if kind == "int":
                value *= int(text)
            elif kind != "name":
                self.error("expected integer or identifier")
            elif text in self.params:
                value *= self.params[text]
            elif text not in self.indices:
                self.error(f"undefined identifier {text!r}")
            elif index is not None:
                self.error(f"non-affine subscript: product of indices {index!r} and {text!r}")
            else:
                index = text
            self.take()
            if self.peek()[1] != "*":
                return value, index
            self.take()

    # --- references and statements ------------------------------------------

    def array_ref(self) -> tuple[str, tuple[AffineExpr, ...]]:
        name = self.peek()[1]
        if name in self.params or name in self.indices:
            self.error(f"{name!r} is not an array")
        self.take("name")
        subs = []
        while self.peek()[1] == "[":
            self.take()
            subs.append(self.affine())
            self.take("sym", "]")
        if not subs:
            self.error(f"array reference {name!r} needs at least one subscript")
        return name, tuple(subs)

    def bound(self) -> int:
        kind, text, _, _ = self.peek()
        if kind not in ("int", "name"):
            self.error("expected integer or param name")
        if text in self.indices:
            self.error(f"non-constant bound {text!r}")
        if kind == "name" and text not in self.params:
            self.error(f"undefined identifier {text!r}")
        self.take()
        return int(text) if kind == "int" else self.params[text]

    # --- params, loop headers and statements ---------------------------------

    def param(self) -> None:
        line = self.take()[2]
        pname = self.take("name")[1]
        if pname in self.params:
            raise KernelValidationError(f"line {line}: duplicate param {pname!r}")
        self.take("sym", "=")
        neg = self.peek()[1] == "-"
        if neg:
            self.take()
        value = int(self.take("int")[1])
        self.take("sym", ";")
        self.params[pname] = -value if neg else value

    def loop(self) -> Loop:
        """One ``loop`` header through its ``{``; its index then encloses what follows."""
        line = self.take()[2]
        idx = self.take("name")[1]
        if idx in self.params or idx in self.indices:
            raise KernelValidationError(f"line {line}: duplicate identifier {idx!r}")
        self.take("sym", "=")
        lower = self.bound()
        self.take("sym", "..")
        upper = self.bound()
        step = 1
        if self.peek()[1] == "step":
            self.take()
            step = int(self.take("int")[1])
        self.take("sym", "{")
        if step < 1:
            raise KernelValidationError(f"line {line}: loop step must be >= 1")
        if lower >= upper:
            raise KernelValidationError(f"line {line}: empty loop {idx!r} ({lower}..{upper})")
        self.indices += (idx,)
        return Loop(idx, lower, upper, step)

    def statement(self, stmt_id: int) -> Statement:
        """One statement; its refs are numbered write, reads, implicit reduction read."""
        _, label, line, _ = self.take("name")
        self.take("sym", ":")
        target = self.array_ref()
        kind, assign, _, _ = self.peek()
        if kind == "sym" and assign not in ("=", "+="):
            self.error("expected '=' or '+='")
        self.take("sym")
        terms = [self.array_ref()]
        op = "add" if assign == "+=" else "copy"  # a one-term reduction still adds
        if self.peek()[1] in _OP_TOKEN:
            op = _OP_TOKEN[self.take()[1]]
            terms.append(self.array_ref())
        self.take("sym", ";")
        for arr, subs in [target, *terms]:
            if self.dims.setdefault(arr, len(subs)) != len(subs):
                raise KernelValidationError(
                    f"line {line}: array {arr!r} used with {len(subs)} subscripts, "
                    f"expected {self.dims[arr]}")
        write = ArrayRef(next(self.ref_ids), *target, "write")
        reads = [ArrayRef(next(self.ref_ids), *t, "read") for t in terms]
        if assign == "+=":
            reads.append(ArrayRef(next(self.ref_ids), *target, "read", implicit=True))
        return Statement(stmt_id, label, write, tuple(reads), op, assign == "+=")


#: the fault named by each token that may not follow the closed nest
_AFTER_NEST = {"param": "param after the loop nest started",
               "loop": "loop after the nest closed", "}": "unmatched '}'"}


def parse_kernel(source: str, name: str = "kernel") -> Kernel:
    """Parse DSL text into a validated Kernel.

    One pass reads the grammar in order: params, a chain of loop headers,
    the statements, one ``}`` per loop, the end of input.  Each nest-shape
    fault is raised where it is found.
    """
    lp = _TokenParser(_tokenize(source))
    while lp.peek()[1] == "param":
        lp.param()
    loops: list[Loop] = []
    while lp.peek()[1] == "loop":
        loops.append(lp.loop())
    statements: list[Statement] = []
    while loops and lp.peek()[0] != "eof" and lp.peek()[1] not in ("param", "loop", "}"):
        statements.append(lp.statement(len(statements)))
    for level in reversed(range(len(loops))):  # innermost '}' first
        kind, text, _, _ = lp.peek()
        if text == "}":
            lp.take()
            continue
        if text == "param":
            lp.error(_AFTER_NEST["param"])
        if kind == "eof":
            lp.error("unclosed loop")
        shape = ("contains sibling loops" if text == "loop" and level < len(loops) - 1
                 else "mixes statements and a nested loop")
        raise KernelValidationError(f"imperfect nest: loop {loops[level].index!r} {shape}")
    if lp.peek()[0] != "eof":
        lp.error(_AFTER_NEST.get(lp.peek()[1], "statement outside any loop"))
    if not loops:
        raise KernelValidationError("no loop nest found")
    if not statements:
        raise KernelValidationError(f"innermost loop {loops[-1].index!r} has no statements")
    return Kernel(name, tuple(sorted(lp.params.items())), tuple(loops), tuple(statements))


def parse_kernel_file(path: str) -> Kernel:
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    stem = os.path.splitext(os.path.basename(path))[0]
    return parse_kernel(source, name=stem)


def kernel_to_source(kernel: Kernel) -> str:
    """Render a kernel back to DSL text; parse(kernel_to_source(k)) == k."""
    lines = [f"param {n} = {v};" for n, v in kernel.params]
    for depth, lp in enumerate(kernel.loops):
        pad = "  " * depth
        step = f" step {lp.step}" if lp.step != 1 else ""
        lines.append(f"{pad}loop {lp.index} = {lp.lower}..{lp.upper}{step} {{")
    pad = "  " * kernel.depth
    for s in kernel.statements:
        assign = "+=" if s.accumulate else "="
        terms = [str(r) for r in s.explicit_reads]
        if len(terms) == 1:
            rhs = terms[0]
        else:
            rhs = f" {_TOKEN_OP[s.op]} ".join(terms)
        lines.append(f"{pad}{s.label}: {s.write} {assign} {rhs};")
    for depth in range(kernel.depth - 1, -1, -1):
        lines.append("  " * depth + "}")
    return "\n".join(lines) + "\n"
