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
        parts: list[str] = []
        for n, c in self.terms:
            if c == 1:
                t = n
            elif c == -1:
                t = f"-{n}"
            else:
                t = f"{c}*{n}"
            if parts and not t.startswith("-"):
                parts.append(f"+ {t}")
            elif parts:
                parts.append(f"- {t[1:]}")
            else:
                parts.append(t)
        if self.const or not parts:
            if parts:
                sign = "+" if self.const >= 0 else "-"
                parts.append(f"{sign} {abs(self.const)}")
            else:
                parts.append(str(self.const))
        return " ".join(parts)


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


#: interior operator kinds a statement may carry
OP_KINDS = ("multiply", "add", "subtract", "compare", "copy")

_OP_TOKEN = {"*": "multiply", "+": "add", "-": "subtract", "==": "compare"}
_TOKEN_OP = {v: k for k, v in _OP_TOKEN.items()}


@dataclass(frozen=True)
class Statement:
    stmt_id: int
    label: str
    write: ArrayRef
    reads: tuple[ArrayRef, ...]  # explicit reads first, implicit reduction read last
    op: str  # member of OP_KINDS
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

    @property
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

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_]\w*)|(?P<sym>==|\+=|\.\.|[][{}+\-*=;:]))"
)


def _tokenize(source: str) -> list[tuple[str, str, int, int]]:
    """(kind, text, line, column) tokens; # comments run to end of line."""
    tokens = []
    for line_no, raw in enumerate(source.splitlines(), start=1):
        text = raw.split("#", 1)[0]
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m or m.end() == pos:
                rest = text[pos:].lstrip()
                if not rest:
                    break
                raise KernelSyntaxError(f"unexpected character {rest[0]!r}",
                                        line_no, pos + 1)
            if m.lastgroup:
                tokens.append((m.lastgroup, m.group(m.lastgroup), line_no,
                               m.start(m.lastgroup) + 1))
            pos = m.end()
    return tokens


class _TokenParser:
    """Recursive descent over the token stream; newlines are whitespace."""

    def __init__(self, tokens):
        self.toks = tokens
        self.i = 0
        self.params: dict[str, int] = {}
        self.indices: tuple[str, ...] = ()  # enclosing loop indices
        self.dims: dict[str, int] = {}  # subscript count of each array seen
        self.ref_ids = count()

    @property
    def line(self) -> int:
        tok = self.toks[min(self.i, len(self.toks) - 1)] if self.toks else None
        return tok[2] if tok else 0

    def error(self, msg: str):
        if self.i < len(self.toks):
            _, _, line, col = self.toks[self.i]
        elif self.toks:
            _, _, line, col = self.toks[-1]
        else:
            line = col = 0
        raise KernelSyntaxError(msg, line, col)

    def peek(self):
        if self.i < len(self.toks):
            kind, val, _, col = self.toks[self.i]
            return kind, val, col
        return "eof", "", 0

    def take(self, kind=None, value=None):
        tok = self.peek()
        if kind and tok[0] != kind:
            self.error(f"expected {value or kind}, found {tok[1]!r}"
                       if tok[0] != "eof" else f"expected {value or kind}")
        if value and tok[1] != value:
            self.error(f"expected {value!r}, found {tok[1]!r}")
        self.i += 1
        return tok

    def at_end(self) -> bool:
        return self.i >= len(self.toks)

    # --- affine expressions -------------------------------------------------

    def affine(self) -> AffineExpr:
        const, coeffs = self._product(negate=self._sign())
        while self.peek()[1] in ("+", "-"):
            neg = self.take()[1] == "-"
            c2, t2 = self._product(negate=neg)
            const += c2
            for n, c in t2.items():
                coeffs[n] = coeffs.get(n, 0) + c
        return AffineExpr.make(const, coeffs)

    def _sign(self) -> bool:
        if self.peek()[1] == "-":
            self.take()
            return True
        if self.peek()[1] == "+":
            self.take()
        return False

    def _product(self, negate: bool) -> tuple[int, dict[str, int]]:
        if self.peek()[1] == "-":
            self.take()
            negate = not negate
        elif self.peek()[1] == "+":
            self.take()
        const = -1 if negate else 1
        index: str | None = None
        while True:
            kind, val, col = self.peek()
            if kind == "int":
                const *= int(val)
                self.take()
            elif kind == "name":
                if val in self.params:
                    const *= self.params[val]
                elif val in self.indices:
                    if index is not None:
                        raise KernelSyntaxError(
                            f"non-affine subscript: product of indices {index!r} and {val!r}",
                            self.line, col)
                    index = val
                else:
                    raise KernelSyntaxError(f"undefined identifier {val!r}", self.line, col)
                self.take()
            else:
                self.error("expected integer or identifier")
            if self.peek()[1] == "*":
                self.take()
                continue
            break
        if index is None:
            return const, {}
        return 0, {index: const}

    # --- references and statements ------------------------------------------

    def array_ref(self) -> tuple[str, tuple[AffineExpr, ...]]:
        line = self.line
        _, name, col = self.take("name")
        if name in self.params or name in self.indices:
            raise KernelSyntaxError(f"{name!r} is not an array", line, col)
        subs = []
        while self.peek()[1] == "[":
            self.take()
            subs.append(self.affine())
            self.take("sym", "]")
        if not subs:
            self.error(f"array reference {name!r} needs at least one subscript")
        return name, tuple(subs)

    def bound(self) -> int:
        line = self.line
        kind, val, col = self.take()
        if kind == "int":
            return int(val)
        if kind == "name":
            if val in self.params:
                return self.params[val]
            if val in self.indices:
                raise KernelSyntaxError(f"non-constant bound {val!r}", line, col)
            raise KernelSyntaxError(f"undefined identifier {val!r}", line, col)
        raise KernelSyntaxError("expected integer or param name", line, col)

    # --- params, loop headers and statements ---------------------------------

    def param(self) -> None:
        line = self.line
        self.take()
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
        line = self.line
        self.take()
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
        line = self.line
        label = self.take("name")[1]
        self.take("sym", ":")
        target = self.array_ref()
        assign_line = self.line
        _, assign, col = self.take("sym")
        if assign not in ("=", "+="):
            raise KernelSyntaxError("expected '=' or '+='", assign_line, col)
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
    while loops and not lp.at_end() and lp.peek()[1] not in ("param", "loop", "}"):
        statements.append(lp.statement(len(statements)))
    for level in reversed(range(len(loops))):  # innermost '}' first
        val = lp.peek()[1]
        if val == "}":
            lp.take()
            continue
        if val == "param":
            lp.error(_AFTER_NEST["param"])
        if lp.at_end():
            raise KernelSyntaxError("unclosed loop", len(source.splitlines()), 0)
        shape = ("contains sibling loops" if val == "loop" and level < len(loops) - 1
                 else "mixes statements and a nested loop")
        raise KernelValidationError(f"imperfect nest: loop {loops[level].index!r} {shape}")
    if not lp.at_end():
        lp.error(_AFTER_NEST.get(lp.peek()[1], "statement outside any loop"))
    if not loops:
        raise KernelValidationError("no loop nest found")
    if not statements:
        raise KernelValidationError(f"innermost loop {loops[-1].index!r} has no statements")
    return Kernel(name, tuple(sorted(lp.params.items())), tuple(loops), tuple(statements))


def parse_kernel_file(path: str) -> Kernel:
    import os

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
