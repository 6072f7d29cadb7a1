import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import affine_value
from sralloc import (
    Kernel,
    Loop,
    analyze_all,
    bc_order,
    forwarded_read_ids,
    full_reuse,
    parse_kernel,
    partial_reuse,
    random_kernel,
)


def counts(info):
    return info.total_accesses, info.after_accesses, info.save


def test_carrier_levels_example(example_reuse):
    assert example_reuse["b"].carrier == 0
    assert example_reuse["e"].carrier is None
    assert example_reuse["d"].carrier == 1
    assert example_reuse["c"].carrier == 0


def test_carrier_fir_window(reuse_map):
    fir = reuse_map["fir"]
    assert fir["in"].carrier == 0
    assert fir["in"].required_regs == 51


def test_required_registers_example(example_reuse):
    expected = {"a": 30, "b": 600, "c": 20, "d": 30, "e": 1}
    for array, regs in expected.items():
        assert example_reuse[array].required_regs == regs


def test_full_rank_reference_needs_one_register():
    k = parse_kernel("loop i = 0..5 { loop j = 0..5 { S: y[i][j] = x[i][j]; } }")
    x = analyze_all(k)["x"]
    assert x.required_regs == 1
    assert x.carrier is None


def test_saved_accesses_example(example_reuse):
    assert counts(example_reuse["b"]) == (60000, 600, 59400)
    # the d write and its forwarded read pool: 3000 distinct elements, one
    # residual access each, and the forwarded read touches no memory
    assert counts(example_reuse["d"]) == (60000, 3000, 57000)
    assert counts(example_reuse["e"]) == (60000, 60000, 0)


def test_benefit_cost_values(example_reuse):
    assert example_reuse["a"].bc == 1999
    assert example_reuse["c"].bc == 2999
    assert example_reuse["e"].bc == 1  # floor when nothing is saved
    assert example_reuse["d"].bc == Fraction(1900)


def test_analyze_all_merges_static_refs(example, example_reuse):
    # five array records for six static refs: the d write/read pair pools
    assert len(example_reuse) == 5
    assert len(example.refs) == 6
    d = example_reuse["d"]
    assert len(d.ref_ids) == 2
    assert d.forwarded_store
    assert d.total_accesses == 60000  # the forwarded read never touches memory
    assert d.save == 57000
    assert d.bc == 1900


def test_analyze_all_fir(reuse_map):
    fir = reuse_map["fir"]
    assert len(fir) == 3
    assert [fir[a].required_regs for a in ("out", "coeff", "in")] == [1, 52, 51]
    # exact tie between the coefficient and window references
    assert fir["coeff"].bc == fir["in"].bc == 972


def test_analyze_all_empty_statements(example):
    bare = Kernel(name="empty", params=(), loops=example.loops, statements=())
    assert analyze_all(bare) == {}


def test_bc_order_example(example_reuse):
    assert bc_order(example_reuse) == ["c", "a", "d", "b", "e"]


def test_bc_tie_breaks_by_source_order(reuse_map):
    # fir: coeff and in tie at 972; coeff appears first in the statement
    order = bc_order(reuse_map["fir"])
    assert order == ["out", "coeff", "in"]


def negated_key_order(reuse):
    """The earlier ``bc_order``, kept as a reference: sorted on ``(-bc, position)``."""
    ranked = sorted(enumerate(reuse), key=lambda pos_name: (-reuse[pos_name[1]].bc, pos_name[0]))
    return [name for _, name in ranked]


def leftover_by_order(reuse, budget):
    """The earlier ``partial_reuse`` leftover, kept as a reference: the first
    unserved array in the negated-key order."""
    alloc = full_reuse(reuse, budget)
    left = budget - alloc.registers_used
    for a in negated_key_order(reuse):
        info = reuse[a]
        if left > 0 and alloc.beta[a] == 1 and info.save > 0 and info.required_regs > 1:
            alloc.beta[a] = min(1 + left, info.required_regs)
            break
    return alloc.beta


def test_bc_order_matches_the_negated_key(reuse_map):
    # each reuse dict also in reversed source order, so equal-bc ties change sides
    cases = list(reuse_map.values())
    cases += [analyze_all(random_kernel(random.Random(seed))) for seed in range(300)]
    ties = 0
    for reuse in cases:
        for r in (reuse, dict(reversed(reuse.items()))):
            assert bc_order(r) == negated_key_order(r)
            for budget in range(len(r), sum(i.required_regs for i in r.values()) + 1, 3):
                assert partial_reuse(r, budget).beta == leftover_by_order(r, budget), budget
        ties += len({i.bc for i in reuse.values()}) < len(reuse)
    assert ties > 30


def test_reuse_invariants_bundled(reuse_map, kernels):
    for name, reuse in reuse_map.items():
        kernel = kernels[name]
        for info in reuse.values():
            assert info.required_regs >= 1
            assert info.save >= 0
            assert info.after_accesses + info.save == info.total_accesses
            if info.carrier is not None and kernel.loops[info.carrier].trip > 1:
                assert info.save < info.total_accesses


def test_scaling_bounds_never_decreases_save():
    base = parse_kernel("""\
loop i = 0..10 {
  loop j = 0..6 {
    S: y[i] += a[j] * b[i + j];
  }
}
""")
    scaled = parse_kernel("""\
loop i = 0..20 {
  loop j = 0..12 {
    S: y[i] += a[j] * b[i + j];
  }
}
""")
    r0, r1 = analyze_all(base), analyze_all(scaled)
    for array in r0:
        if r0[array].carrier is not None:
            assert r1[array].save >= r0[array].save


def test_group_reuse_between_two_reads():
    k = parse_kernel("loop i = 0..8 { S: y[i] = x[i] * x[i + 1]; }")
    reuse = analyze_all(k)
    x = reuse["x"]
    assert x.carrier == 0
    assert x.save > 0
    assert x.total_accesses == 16
    assert x.after_accesses == 9  # union of both footprints, loaded once each


# ---------------------------------------------------------------------------
# point-by-point reference: the enumerators that the bitset analysis replaced

def _enum_footprint(kernel, patterns) -> set[tuple[int, ...]]:
    """Distinct elements touched by the given subscript patterns over the nest."""
    relevant = set().union(*(e.indices() for p in patterns for e in p)) if patterns else set()
    loops = [lp for lp in kernel.loops if lp.index in relevant]
    names = [lp.index for lp in loops]
    out: set[tuple[int, ...]] = set()
    for point in itertools.product(*(lp.range for lp in loops)):
        env = dict(zip(names, point))
        for p in patterns:
            out.add(tuple(affine_value(e, env) for e in p))
    return out


def _enum_overlap(kernel, patterns, level: int) -> int:
    """Max |WS(t) & WS(t+1)| over consecutive iterations of loops[level].

    Walks inner loops that appear in some subscript and outer loops on which
    the patterns disagree (identical outer coefficients only translate both
    windows).
    """
    loops = kernel.loops
    carrier = loops[level]
    if carrier.trip < 2:
        return 0
    relevant = set().union(*(e.indices() for p in patterns for e in p))

    def uniform(index: str) -> bool:
        return len({tuple(e.coeff(index) for e in p) for p in patterns}) == 1

    outer = [lp for lp in loops[:level] if lp.index in relevant and not uniform(lp.index)]
    inner = [lp for lp in loops[level + 1:] if lp.index in relevant]
    fixed = {lp.index: lp.lower for lp in loops if lp.index in relevant
             and lp is not carrier and lp not in outer and lp not in inner}
    carrier_values = carrier.range
    if uniform(carrier.index):
        carrier_values = range(carrier.lower, carrier.lower + 2 * carrier.step, carrier.step)

    best = 0
    for outer_vals in itertools.product(*(lp.range for lp in outer)):
        env = dict(fixed)
        env.update(zip((lp.index for lp in outer), outer_vals))
        prev: set | None = None
        for t in carrier_values:
            env[carrier.index] = t
            ws: set[tuple[int, ...]] = set()
            for inner_vals in itertools.product(*(lp.range for lp in inner)):
                env.update(zip((lp.index for lp in inner), inner_vals))
                for p in patterns:
                    ws.add(tuple(affine_value(e, env) for e in p))
            if prev is not None:
                best = max(best, len(prev & ws))
            prev = ws
    return best


def reference_analysis(kernel) -> dict[str, tuple]:
    """(carrier, required_regs, after_accesses) per array, by enumeration."""
    forwarded = forwarded_read_ids(kernel)
    per_array: dict[str, list] = {}
    for r in kernel.refs:
        per_array.setdefault(r.array, []).append(r)
    out = {}
    for array, members in per_array.items():
        patterns = list(dict.fromkeys(m.subscripts for m in members))
        carrier, regs = None, 1
        for level, lp in enumerate(kernel.loops):
            overlap = _enum_overlap(kernel, patterns, level) if lp.trip >= 2 else 0
            if overlap:
                carrier, regs = level, overlap
                break
        after = 0
        for access in ("read", "write"):
            pats = list(dict.fromkeys(m.subscripts for m in members
                                      if m.access == access and m.ref_id not in forwarded))
            after += len(_enum_footprint(kernel, pats)) if pats else 0
        out[array] = (carrier, regs, after)
    return out


def assert_matches_reference(kernel):
    got = {a: (i.carrier, i.required_regs, i.after_accesses)
           for a, i in analyze_all(kernel).items()}
    assert got == reference_analysis(kernel), kernel.name


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6),
       st.lists(st.tuples(st.integers(-4, 4), st.integers(1, 3)), min_size=3, max_size=3))
def test_bitset_analysis_matches_enumeration(seed, bounds):
    kernel = random_kernel(random.Random(seed))
    assert_matches_reference(kernel)
    # the same kernel with shifted lower bounds and steps above one
    loops = tuple(Loop(lp.index, lower, lower + step * (lp.trip - 1) + 1, step)
                  for lp, (lower, step) in zip(kernel.loops, bounds))
    assert_matches_reference(dataclasses.replace(kernel, loops=loops))


def test_bitset_analysis_matches_enumeration_bundled(kernels, reuse_map):
    for name, kernel in kernels.items():
        got = {a: (i.carrier, i.required_regs, i.after_accesses)
               for a, i in reuse_map[name].items()}
        assert got == reference_analysis(kernel), name


#: hand-picked shapes for the enumeration check; tests/test_oracle.py reuses them
SHAPES = [
    # fir and statement-family shapes
    "loop i = 0..64 { loop j = 0..52 { S1: out[i] += coeff[j] * in[i + j]; } }",
    "loop i = 0..16 { loop j = 0..16 { S0: o0[j] += a0[2*i + j] * w0[i + j];"
    " S1: o1[j] += a1[2*i + j] * w1[i + j]; S2: o2[j] += a2[2*i + j] * w2[i + j]; } }",
    # negative coefficients, in one dimension and across two
    "loop i = 0..9 { loop j = 0..5 { S: y[i] = a[i - 2*j] * b[-i][j - i]; } }",
    # steps above one and non-zero lower bounds
    "loop i = 1..20 step 3 { loop j = 2..11 step 2 {"
    " S: y[i][j] = a[2*i - j][j + i] * a[i][3 - j]; } }",
    "loop i = 2..9 step 3 { loop j = 3..7 { S: y[i] = a[2*i + j] * a[i + 2*j + 1]; } }",
    # non-uniform carriers: the patterns move apart as the carrier advances
    "loop i = 0..12 { S: y[i] = a[i] + a[2*i]; }",
    "loop i = 0..6 { loop j = 0..7 { S: y[j] = a[i + j] * a[2*i + 3*j]; } }",
    # a non-uniform outer loop above the carrier; c's overlap peaks at its last value
    "loop i = 0..2 { loop j = 0..5 { S: c[i + 3] = c[3 - 2*i] * d[j]; } }",
    "loop i = 0..5 { loop j = 0..6 { loop k = 0..4 {"
    " S: y[k] += a[i + j][k] * a[j][2*i + k]; } } }",
    # a loop that no subscript names, and a unit-trip loop
    "loop i = 0..3 { loop j = 4..5 { loop k = 0..8 { S: y[k] = a[k] * b[2*k + 1]; } } }",
    # an accumulator, whose read and write are one stream, and a unit-trip outer loop
    "loop i = 0..10 { loop j = 0..4 { S: out[i] += c[j] * x[i + j]; } }",
    "loop h = 0..1 { loop i = 0..6 { loop j = 0..5 { S: y[i] += a[i + j] * b[j]; } } }",
]


@pytest.mark.parametrize("source", SHAPES)
def test_bitset_analysis_matches_enumeration_shapes(source):
    assert_matches_reference(parse_kernel(source))
