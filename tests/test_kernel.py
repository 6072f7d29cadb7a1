import dataclasses
import hashlib
import random

import pytest

from conftest import affine_value
from sralloc import (
    KERNEL_NAMES,
    AffineExpr,
    Kernel,
    KernelError,
    KernelSyntaxError,
    KernelValidationError,
    Loop,
    bundled_kernels,
    iteration_space_size,
    kernel_source,
    kernel_to_source,
    parse_kernel,
    random_kernel,
)
from sralloc import kernel as kernel_module

FIG_SOURCE = """\
# worked example nest
param BI = 100;
param BJ = 20;
param BK = 30;
loop i = 0..BI {
  loop j = 0..BJ {
    loop k = 0..BK {
      S1: d[i][k] = a[k] * b[k][j];
      S2: e[i][j][k] = c[j] * d[i][k];
    }
  }
}
"""


def test_parse_example_nest():
    k = parse_kernel(FIG_SOURCE, name="example")
    assert [lp.index for lp in k.loops] == ["i", "j", "k"]
    assert [lp.trip for lp in k.loops] == [100, 20, 30]
    assert len(k.statements) == 2
    assert len(k.refs) == 6  # write d, reads a/b, write e, reads c/d
    assert k.arrays == ("d", "a", "b", "e", "c")
    assert k.statements[0].op == "multiply"
    # every static ref id appears exactly once
    ids = [r.ref_id for r in k.refs]
    assert ids == sorted(set(ids))


def test_parse_minimal_copy_kernel():
    k = parse_kernel("loop i = 0..1 { S: y[i] = x[i]; }")
    assert k.depth == 1
    assert k.loops[0].trip == 1
    assert len(k.statements) == 1
    assert k.statements[0].op == "copy"


def test_nonaffine_subscript_rejected():
    src = "loop i = 0..4 { loop j = 0..4 { S: y[i][j] = a[i*j]; } }"
    with pytest.raises(KernelSyntaxError, match="non-affine"):
        parse_kernel(src)


def test_affine_subscripts_with_params_and_coefficients():
    src = """\
param N = 8;
loop i = 0..4 {
  loop j = 0..4 {
    S: y[2*i + j - 1][N] = a[N*i + j];
  }
}
"""
    k = parse_kernel(src)
    write = k.statements[0].write
    assert affine_value(write.subscripts[0], {"i": 3, "j": 2}) == 7
    assert write.subscripts[1].const == 8
    read = k.statements[0].reads[0]
    assert affine_value(read.subscripts[0], {"i": 1, "j": 1}) == 9


def test_accumulate_adds_implicit_read():
    k = parse_kernel("loop i = 0..3 { loop j = 0..3 { S: y[i] += a[j] * b[i + j]; } }")
    stmt = k.statements[0]
    assert stmt.accumulate
    implicit = [r for r in stmt.reads if r.implicit]
    assert len(implicit) == 1
    assert implicit[0].array == "y"
    assert implicit[0].subscripts == stmt.write.subscripts


@pytest.mark.parametrize("src,match", [
    ("loop i = 0..4 { loop j = 0..4 { S: y[i] = x[j]; } S2: z[i] = x[i]; }", "imperfect"),
    ("loop i = 0..4 { }", "no statements"),
    ("loop i = 0..4 { S: y[i] = x[q]; }", "undefined identifier"),
    ("loop i = 0..4 { loop j = 0..i { S: y[i] = x[j]; } }", "non-constant bound"),
    ("loop i = 0..4 { loop i = 0..2 { S: y[i] = x[i]; } }", "duplicate"),
    ("loop i = 4..4 { S: y[i] = x[i]; }", "empty loop"),
    ("loop i = 0..4 { S: y[i] = x[i][i]; T: z[i] = x[i]; }", "subscripts"),
    ("param N = 2;\nparam N = 3;\nloop i = 0..4 { S: y[i] = x[i]; }", "duplicate param"),
    ("loop i = 0..4 { S: y[i] = x[i]; }\nloop j = 0..4 { T: z[j] = x[j]; }",
     "loop after the nest closed"),
    ("loop i = 0..4 { S: y[i] = x[i]; } }", "unmatched '}'"),
    ("loop i = 0..4 { S: y[i] = x[i]; }\nparam N = 4;", "param after the loop nest started"),
    ("S: y[0] = x[0];\nloop i = 0..4 { T: y[i] = x[i]; }", "statement outside any loop"),
    ("loop i = 0..4 { S: y[i] = x[i];", "unclosed loop"),
    ("", "no loop nest found"),
    ("param N = 4;\n", "no loop nest found"),
    ("loop i = 0..4 { S: y[i] = x[i]; loop j = 0..4 { T: z[j] = x[j]; } }",
     "mixes statements and a nested loop"),
    ("loop i = 0..4 step 0 { S: y[i] = x[i]; }", "loop step must be >= 1"),
    ("loop i = 0..4 { param N = 4; S: y[i] = x[i]; }", "param after the loop nest started"),
    ("loop i = 0..4 { S: y[i] = x[i]; }\nT: z[0] = x[0];", "statement outside any loop"),
    ("loop i = 0..4 { { S: y[i] = x[i]; } }", "expected name, found '{'"),
    ("loop i = 0..4 { S: y[i] * x[i]; }", r"expected '=' or '\+='"),
])
def test_validation_errors(src, match):
    with pytest.raises(KernelError, match=match):
        parse_kernel(src)


#: SHA-256 over every outcome of the mutation test below; a change to what
#: the parser accepts, builds or reports, or to the rendered corpus, moves it
MUTATION_OUTCOMES_SHA256 = "c66a35d61eaac9d9723abf4e65201d0013a9f361859ce9cee6ddfb20690b8d54"

SIGNED_SOURCE = """\
param N = 4;
loop i = 0..8 step 2 {
\tS: y[-2*i + N] += x[- -i] * w[+-i*2 + 3*N];
}
"""


def test_mutated_sources_parse_or_raise_kernel_error():
    # character-level mutations of valid sources end in a Kernel or a
    # KernelError, never in another exception, and every outcome is pinned
    rng = random.Random(13)
    sources = [kernel_source(n) for n in KERNEL_NAMES] + [SIGNED_SOURCE]
    sources += [kernel_to_source(random_kernel(rng)) for _ in range(40)]
    alphabet = list("ijkNx0129 \t\n#{}[]()+-*=;:.,_@") + ["step", "param"]
    digest = hashlib.sha256()
    for _ in range(5000):
        chars = list(rng.choice(sources))
        for _ in range(rng.randint(1, 4)):
            at = rng.randrange(len(chars))
            edit = rng.randrange(3)
            if edit == 0:
                del chars[at]
            elif edit == 1:
                chars.insert(at, rng.choice(alphabet))
            else:
                chars[at] = rng.choice(alphabet)
        try:
            kernel = parse_kernel("".join(chars))
            assert isinstance(kernel, Kernel)
            outcome = repr(kernel)
        except KernelError as err:
            outcome = repr((type(err).__name__, str(err), getattr(err, "line", None),
                            getattr(err, "column", None)))
        digest.update(outcome.encode() + b"\0")
    assert digest.hexdigest() == MUTATION_OUTCOMES_SHA256


def test_syntax_error_carries_position():
    with pytest.raises(KernelSyntaxError, match=r"line 2"):
        parse_kernel("loop i = 0..4 {\n  S: y[i] = ;\n}")


@pytest.mark.parametrize("src,match,line,column", [
    ("loop i = 0..4 {\n  loop j = 0..i\n  { S: y[i] = x[j]; } }", "non-constant bound", 2, 15),
    ("param N = 3;\nloop i = 0..4 {\n  S: y[i] = N\n[i]; }", "'N' is not an array", 3, 13),
    ("loop i = 0..4 {\n  S: y[i] *\n x[i]; }", "expected '=' or '\\+='", 2, 11),
    ("loop i = 0..4 { S: y[i] = x[i] @ }", "unexpected character '@'", 1, 32),
    ("loop i = 0..4 { S: y[i] =    @x[i]; }", "unexpected character '@'", 1, 30),
    # digits and names are ASCII only
    ("loop i = 0..\u0664 { S: y[i] = x[i]; }", "unexpected character '\u0664'", 1, 13),
    ("loop i = 0..4 { S: y\u00e9[i] = x[i]; }", "unexpected character '\u00e9'", 1, 21),
    # a param value is an integer with at most one leading '-'
    ("param N = +3;", "expected int", 1, 11),
    ("param N = --3;", "expected int", 1, 12),
    # at the end of input, the last token
    ("loop i = 0..", "expected integer or param name", 1, 11),
    ("loop i = 0..4 {\n  S: y[i] = x[i];\n# end\n", "unclosed loop", 2, 17),
])
def test_syntax_error_points_at_the_offending_token(src, match, line, column):
    with pytest.raises(KernelSyntaxError, match=match) as err:
        parse_kernel(src)
    assert (err.value.line, err.value.column) == (line, column)


def test_two_sibling_loops_rejected():
    src = """\
loop i = 0..4 {
  loop j = 0..4 { S: y[i][j] = x[j][i]; }
  loop k = 0..4 { T: z[i][k] = x[k][i]; }
}
"""
    with pytest.raises(KernelValidationError,
                       match="imperfect nest: loop 'i' contains sibling loops"):
        parse_kernel(src)


def test_step_loops():
    k = parse_kernel("loop i = 0..10 step 2 { S: y[i] = x[i]; }")
    assert k.loops[0].trip == 5
    assert list(k.loops[0].range) == [0, 2, 4, 6, 8]


def test_iteration_space_size_levels(example):
    assert iteration_space_size(example, 0) == 60000
    assert iteration_space_size(example, 1) == 600
    assert iteration_space_size(example, example.depth) == 1
    with pytest.raises(KernelError):
        iteration_space_size(example, 9)


def test_iteration_space_size_single_trip():
    k = parse_kernel("loop i = 0..1 { S: y[i] = x[i]; }")
    assert iteration_space_size(k, 0) == 1
    assert iteration_space_size(k, 1) == 1


def test_bundled_corpus_shapes():
    ks = bundled_kernels()
    assert set(ks) == set(KERNEL_NAMES)
    assert len(ks) == 7
    assert ks["example"].depth == 3
    assert ks["fir"].depth == 2
    assert ks["dec-fir"].depth == 2
    assert ks["imi"].depth == 2
    assert ks["pat"].depth == 2
    assert ks["mat"].depth == 3
    assert ks["bic"].depth == 4
    assert ks["fir"].arrays == ("out", "coeff", "in")
    assert ks["mat"].arrays == ("c", "a", "b")


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_parse_print_round_trip(name):
    k = bundled_kernels()[name]
    again = parse_kernel(kernel_to_source(k), name=k.name)
    assert again == k


def test_read_write_classification_is_exclusive(example):
    for r in example.refs:
        assert r.access in ("read", "write")
    writes = [r.ref_id for r in example.refs if r.access == "write"]
    reads = [r.ref_id for r in example.refs if r.access == "read"]
    assert not set(writes) & set(reads)


def test_kernel_hash_is_computed_once(monkeypatch):
    k = parse_kernel(kernel_source("bic"), name="bic")
    again = parse_kernel(kernel_source("bic"), name="bic")
    assert again == k and again is not k
    assert hash(again) == hash(k) == hash((k.name, k.params, k.loops, k.statements))
    calls = []
    real = AffineExpr.__hash__

    def spy(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(AffineExpr, "__hash__", spy)
    fresh = parse_kernel(kernel_source("bic"), name="bic")
    calls.clear()
    assert hash(fresh) == hash(k) and calls  # the first hash walks the expressions
    calls.clear()
    assert hash(fresh) == hash(k)
    assert calls == []


def test_kernel_refs_and_arrays_are_computed_once(monkeypatch):
    k = parse_kernel(kernel_source("example"), name="example")
    again = parse_kernel(kernel_source("example"), name="example")
    sorts = []

    def spy(*args, **kwargs):
        sorts.append(args)
        return sorted(*args, **kwargs)

    monkeypatch.setattr(kernel_module, "sorted", spy, raising=False)
    fresh = dataclasses.replace(k)  # nothing computed on it yet
    refs, arrays = fresh.refs, fresh.arrays
    assert len(sorts) == 1  # the first access sorts the references once
    assert fresh.refs is refs and fresh.arrays is arrays
    assert len(sorts) == 1  # a second access sorts nothing
    assert refs == k.refs == again.refs and arrays == k.arrays == again.arrays
    assert fresh == k and hash(fresh) == hash(k)
    assert kernel_to_source(fresh) == kernel_to_source(k)


@pytest.mark.parametrize("bounds", [(0, 10, 1), (0, 10, 2), (3, 17, 3), (-4, 5, 4), (2, 3, 1)])
def test_loop_trip_is_computed_once_and_leaves_eq_and_hash(bounds):
    lower, upper, step = bounds
    lp, fresh = (Loop("i", lower, upper, step) for _ in range(2))
    before = hash(fresh)
    assert "trip" not in fresh.__dict__
    assert fresh.trip == len(range(lower, upper, step))
    assert fresh.__dict__["trip"] == fresh.trip  # kept after the first read
    assert fresh == lp and hash(fresh) == hash(lp) == before == hash(("i", lower, upper, step))
    assert dataclasses.astuple(fresh) == ("i", lower, upper, step)
    assert fresh != Loop("i", lower, upper + step, step)
