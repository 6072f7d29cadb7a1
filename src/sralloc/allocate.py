"""The three register allocators: full reuse, partial reuse, critical-path aware.

Every allocator starts from the mandatory one register per array (those
registers count against the budget) and never assigns more than an
array's full-replacement requirement.  The greedy variants rank arrays by
benefit/cost; the critical-path variant spends the budget on cuts of the
critical graph so that every critical path shortens together.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import ACCOUNTING_MODES
from .dfg import build_dfg, critical_graph, find_cuts, node_latencies
from .kernel import Kernel
from .reuse import ReuseInfo, bc_order

ALG_FULL = "fr-ra"
ALG_PARTIAL = "pr-ra"
ALG_CRITICAL = "cpa-ra"
ALG_MANUAL = "manual"


class InfeasibleBudgetError(ValueError):
    """Budget below one register per array; the computation cannot be mapped."""


@dataclass
class Allocation:
    algorithm: str
    register_budget: int
    beta: dict[str, int] = field(default_factory=dict)

    @property
    def registers_used(self) -> int:
        return sum(self.beta.values())

    def as_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "budget": self.register_budget,
            "beta": dict(sorted(self.beta.items())),
            "used": self.registers_used,
        }

    def validate(self, reuse: dict[str, ReuseInfo]) -> "Allocation":
        for array, info in reuse.items():
            b = self.beta.get(array, 0)
            if not 1 <= b <= info.required_regs:
                raise ValueError(
                    f"beta[{array}] = {b} outside 1..{info.required_regs}")
        if self.registers_used > self.register_budget:
            raise ValueError(
                f"{self.registers_used} registers exceed budget {self.register_budget}")
        return self


def unit_allocation(reuse: dict[str, ReuseInfo], budget: int | None = None) -> Allocation:
    beta = {a: 1 for a in reuse}
    return Allocation(ALG_MANUAL, budget if budget is not None else len(beta), beta)


def manual_allocation(reuse: dict[str, ReuseInfo], beta: dict[str, int],
                      budget: int | None = None) -> Allocation:
    alloc = Allocation(ALG_MANUAL, budget if budget is not None else sum(beta.values()), dict(beta))
    return alloc.validate(reuse)


def _check_budget(reuse: dict[str, ReuseInfo], budget: int):
    if budget < len(reuse):
        raise InfeasibleBudgetError(
            f"budget {budget} below the {len(reuse)} arrays needing one register each")


def full_reuse(reuse: dict[str, ReuseInfo], budget: int) -> Allocation:
    """Greedy all-or-nothing assignment in descending benefit/cost order."""
    _check_budget(reuse, budget)
    beta = {a: 1 for a in reuse}
    left = budget - len(beta)
    for array in bc_order(reuse):
        need = reuse[array].required_regs - 1
        if need <= left:
            beta[array] = reuse[array].required_regs
            left -= need
    return Allocation(ALG_FULL, budget, beta)


def partial_reuse(reuse: dict[str, ReuseInfo], budget: int) -> Allocation:
    """Full-reuse result, with the leftover handed to the best unserved array.

    The first array in benefit/cost order still at one register, with
    something to save and room for more than one register, absorbs the
    leftover (capped at its full requirement); an array that saves nothing
    would waste the registers, so it never receives them.
    """
    alloc = full_reuse(reuse, budget)
    alloc.algorithm = ALG_PARTIAL
    left = budget - alloc.registers_used
    unserved = [a for a, info in reuse.items()
                if alloc.beta[a] == 1 and info.save > 0 and info.required_regs > 1]
    if left > 0 and unserved:  # max keeps the first of equal bc: source order
        best = max(unserved, key=lambda a: reuse[a].bc)
        alloc.beta[best] = min(1 + left, reuse[best].required_regs)
    return alloc


def _water_fill(beta: dict[str, int], members: list[str],
                reuse: dict[str, ReuseInfo], budget: int) -> None:
    """Spread budget equally over members, respecting per-array caps.

    Each pass gives every member below its cap, in source order, an equal
    share of what is left (at least one register), so capacity freed by a
    capped member flows to the rest and a remainder goes one each.
    """
    while budget > 0:
        open_members = [a for a in members if beta[a] < reuse[a].required_regs]
        if not open_members:
            return
        share = max(1, budget // len(open_members))
        for a in open_members:
            take = min(share, reuse[a].required_regs - beta[a], budget)
            beta[a] += take
            budget -= take


def critical_path_aware(kernel: Kernel, reuse: dict[str, ReuseInfo], budget: int,
                        latencies: dict[str, int] | None = None,
                        accounting: str = "incremental") -> Allocation:
    """Register assignment along minimum-cost cuts of the critical graph.

    The kernel's graph is priced once and again after each cut taken; each
    round takes the cheapest cut of the critical graph, with its need.  An
    affordable cut is replaced in full; otherwise the remaining budget is
    split equally across the cut and the allocator stops.  Ties between
    cuts prefer fewer members, then lexicographically smaller array sets.
    ``latencies`` goes to ``node_latencies`` as given: it replaces the
    default table, and a missing op kind is an error.  An unknown
    ``accounting`` raises ``ValueError`` at every budget.
    """
    if accounting not in ACCOUNTING_MODES:
        raise ValueError(f"unknown accounting mode {accounting!r}")
    _check_budget(reuse, budget)
    alloc = Allocation(ALG_CRITICAL, budget, {a: 1 for a in reuse})
    if sum(i.required_regs for i in reuse.values()) <= budget:
        alloc.beta = {a: i.required_regs for a, i in reuse.items()}
        return alloc

    order = list(reuse)  # source order for remainder distribution
    left = budget - alloc.registers_used
    g = build_dfg(kernel)
    lat = node_latencies(g, reuse, alloc, latencies)
    while left > 0:
        cuts = find_cuts(critical_graph(g, lat), reuse, alloc, accounting)
        if not cuts:
            break
        (best,) = cuts
        if best.need <= left:
            for a in best.arrays:
                alloc.beta[a] = reuse[a].required_regs
            left -= best.need
            lat = node_latencies(g, reuse, alloc, latencies)
        else:
            members = sorted(best.arrays, key=order.index)
            _water_fill(alloc.beta, members, reuse, left)
            break
    return alloc


def run_allocator(name: str, kernel: Kernel, reuse: dict[str, ReuseInfo], budget: int,
                  latencies: dict[str, int] | None = None,
                  accounting: str = "incremental") -> Allocation:
    if name in (ALG_FULL, "fr"):
        return full_reuse(reuse, budget)
    if name in (ALG_PARTIAL, "pr"):
        return partial_reuse(reuse, budget)
    if name in (ALG_CRITICAL, "cpa"):
        return critical_path_aware(kernel, reuse, budget, latencies, accounting)
    raise ValueError(f"unknown allocator {name!r}")
