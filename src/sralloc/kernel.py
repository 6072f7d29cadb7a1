"""Loop-nest intermediate representation and the ``.knl`` kernel DSL.

A kernel is a single perfectly nested loop with compile-time constant
bounds; the innermost body is a list of statements whose array subscripts
are integer-linear in the enclosing loop indices.  Comments run from ``#``
to end of line; newlines are otherwise just whitespace::

    # comment
    param N = 16;
    loop i = 0..N {
      loop j = 0..N {
        S1: c[i][j] += a[i][j] * b[j][i];
      }
    }

Statements are ``label: ref (=|+=) term [(*|+|-|==) term];`` where a term
is an array reference and every subscript is an integer-linear combination
of enclosing indices and params.  ``+=`` marks a reduction; it contributes
an implicit read of the written element.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


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

    @property
    def depth(self) -> int:
        return len(self.loops)

    @property
    def refs(self) -> tuple[ArrayRef, ...]:
        out: list[ArrayRef] = []
        for s in self.statements:
            out.extend(s.refs)
        return tuple(sorted(out, key=lambda r: r.ref_id))

    @property
    def arrays(self) -> tuple[str, ...]:
        """Array names in first-appearance order (write target first per statement)."""
        seen: list[str] = []
        for r in self.refs:
            if r.array not in seen:
                seen.append(r.array)
        return tuple(seen)



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
        self.indices: tuple[str, ...] = ()

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
        name = self.take("name")[1]
        if name in self.params or name in self.indices:
            raise KernelSyntaxError(f"{name!r} is not an array", self.line, 0)
        subs = []
        while self.peek()[1] == "[":
            self.take()
            subs.append(self.affine())
            self.take("sym", "]")
        if not subs:
            self.error(f"array reference {name!r} needs at least one subscript")
        return name, tuple(subs)

    def bound(self) -> int:
        kind, val, col = self.take()
        if kind == "int":
            return int(val)
        if kind == "name":
            if val in self.params:
                return self.params[val]
            if val in self.indices:
                raise KernelSyntaxError(f"non-constant bound {val!r}", self.line, col)
            raise KernelSyntaxError(f"undefined identifier {val!r}", self.line, col)
        raise KernelSyntaxError("expected integer or param name", self.line, col)


class _Nest:
    def __init__(self, loop: Loop):
        self.loop = loop
        self.children: list[_Nest] = []
        self.stmts: list[tuple] = []  # (label, write, reads, op, accumulate, line)


def parse_kernel(source: str, name: str = "kernel") -> Kernel:
    """Parse DSL text into a validated Kernel."""
    lp = _TokenParser(_tokenize(source))
    root: _Nest | None = None
    stack: list[_Nest] = []
    closed = False

    while not lp.at_end():
        lp.indices = tuple(n.loop.index for n in stack)
        head = lp.peek()
        line_no = lp.line

        if head[1] == "param":
            if root is not None:
                lp.error("param after the loop nest started")
            lp.take()
            pname = lp.take("name")[1]
            if pname in lp.params:
                raise KernelValidationError(f"line {line_no}: duplicate param {pname!r}")
            lp.take("sym", "=")
            neg = lp.peek()[1] == "-"
            if neg:
                lp.take()
            value = int(lp.take("int")[1]) * (-1 if neg else 1)
            lp.take("sym", ";")
            lp.params[pname] = value

        elif head[1] == "loop":
            if closed:
                lp.error("loop after the nest closed")
            lp.take()
            idx = lp.take("name")[1]
            if idx in lp.params or any(idx == n.loop.index for n in stack):
                raise KernelValidationError(f"line {line_no}: duplicate identifier {idx!r}")
            lp.take("sym", "=")
            lower = lp.bound()
            lp.take("sym", "..")
            upper = lp.bound()
            step = 1
            if lp.peek()[1] == "step":
                lp.take()
                step = int(lp.take("int")[1])
            lp.take("sym", "{")
            if step < 1:
                raise KernelValidationError(f"line {line_no}: loop step must be >= 1")
            if lower >= upper:
                raise KernelValidationError(f"line {line_no}: empty loop {idx!r} ({lower}..{upper})")
            nest = _Nest(Loop(idx, lower, upper, step))
            if stack:
                stack[-1].children.append(nest)
            else:
                root = nest
            stack.append(nest)

        elif head[1] == "}":
            if not stack:
                lp.error("unmatched '}'")
            lp.take()
            stack.pop()
            if not stack:
                closed = True

        else:
            if not stack:
                lp.error("statement outside any loop")
            label = lp.take("name")[1]
            lp.take("sym", ":")
            arr, subs = lp.array_ref()
            assign = lp.take("sym")
            if assign[1] not in ("=", "+="):
                lp.error("expected '=' or '+='")
            accumulate = assign[1] == "+="
            reads = [lp.array_ref()]
            op = "copy"
            nxt = lp.peek()
            if nxt[1] in _OP_TOKEN:
                lp.take()
                op = _OP_TOKEN[nxt[1]]
                reads.append(lp.array_ref())
            lp.take("sym", ";")
            if accumulate and op == "copy":
                op = "add"  # reduction of a single term still adds into the target
            stack[-1].stmts.append((label, (arr, subs), reads, op, accumulate, line_no))

    if root is None:
        raise KernelValidationError("no loop nest found")
    if stack:
        raise KernelSyntaxError("unclosed loop", len(source.splitlines()), 0)
    params = lp.params

    # flatten, enforcing a perfect nest
    loops: list[Loop] = []
    nest: _Nest | None = root
    body: list[tuple] = []
    while nest is not None:
        loops.append(nest.loop)
        if nest.children and nest.stmts:
            raise KernelValidationError(
                f"imperfect nest: loop {nest.loop.index!r} mixes statements and a nested loop")
        if len(nest.children) > 1:
            raise KernelValidationError(
                f"imperfect nest: loop {nest.loop.index!r} contains {len(nest.children)} sibling loops")
        if nest.children:
            nest = nest.children[0]
        else:
            body = nest.stmts
            nest = None
    if not body:
        raise KernelValidationError(f"innermost loop {loops[-1].index!r} has no statements")

    # materialize statements with stable ref ids (write first, then reads)
    dims: dict[str, int] = {}

    def check_dims(arr: str, subs, line_no: int):
        if arr in dims and dims[arr] != len(subs):
            raise KernelValidationError(
                f"line {line_no}: array {arr!r} used with {len(subs)} subscripts, expected {dims[arr]}")
        dims.setdefault(arr, len(subs))

    statements: list[Statement] = []
    next_ref = 0
    for stmt_id, (label, (warr, wsubs), reads, op, accumulate, line_no) in enumerate(body):
        check_dims(warr, wsubs, line_no)
        for rarr, rsubs in reads:
            check_dims(rarr, rsubs, line_no)
        write = ArrayRef(next_ref, warr, wsubs, "write")
        next_ref += 1
        rrefs = []
        for rarr, rsubs in reads:
            rrefs.append(ArrayRef(next_ref, rarr, rsubs, "read"))
            next_ref += 1
        if accumulate:
            rrefs.append(ArrayRef(next_ref, warr, wsubs, "read", implicit=True))
            next_ref += 1
        statements.append(Statement(stmt_id, label, write, tuple(rrefs), op, accumulate))

    return Kernel(name, tuple(sorted(params.items())), tuple(loops), tuple(statements))


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
