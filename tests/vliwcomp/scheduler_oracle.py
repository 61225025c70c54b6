"""Reference list scheduler: the cycle-scan loop, one cycle at a time.

The scheduler in :mod:`repro.vliwcomp.scheduler` is event driven: it
keeps per-op counts of unissued predecessors and jumps over cycles in
which nothing can issue.  This module keeps the straightforward form it
must match schedule for schedule: every cycle rebuilds the ready list by
scanning all unscheduled operations, sorts it by critical-path height
then index, and issues greedily while function units remain.
"""

from __future__ import annotations

from repro.errors import ScheduleError
from repro.isa.operations import Operation
from repro.machine.mdes import MachineDescription
from repro.vliwcomp.depgraph import build_dependence_graph
from repro.vliwcomp.scheduler import BlockSchedule, _cycle_budget


def oracle_schedule_block(
    operations: list[Operation], mdes: MachineDescription
) -> BlockSchedule:
    """List-schedule ``operations`` onto ``mdes.processor`` (reference)."""
    if not operations:
        return BlockSchedule(instructions=(), cycles=0)

    graph = build_dependence_graph(operations, mdes)
    processor = mdes.processor
    n = len(operations)

    issue_cycle = [-1] * n
    earliest = [0] * n
    unscheduled = set(range(n))
    instructions: list[tuple[int, ...]] = []
    cycle = 0
    last_issue = 0
    max_cycles = _cycle_budget(n, graph.height)

    while unscheduled:
        if cycle > max_cycles:
            raise ScheduleError(
                f"scheduler exceeded {max_cycles} cycles for a "
                f"{n}-operation block; dependence graph is inconsistent"
            )
        free = dict(processor.units)
        issued: list[int] = []
        ready = [
            i
            for i in unscheduled
            if earliest[i] <= cycle
            and all(issue_cycle[p] >= 0 for p, _ in graph.preds[i])
        ]
        # Highest critical path first; index breaks ties deterministically.
        ready.sort(key=lambda i: (-graph.height[i], i))
        for i in ready:
            cls = operations[i].opclass
            if free[cls] <= 0:
                continue
            if not _preds_satisfied(graph, issue_cycle, i, cycle):
                continue
            free[cls] -= 1
            issue_cycle[i] = cycle
            issued.append(i)
        if issued:
            for i in issued:
                unscheduled.discard(i)
                for succ, delay in graph.succs[i]:
                    need = cycle + delay
                    if need > earliest[succ]:
                        earliest[succ] = need
            instructions.append(tuple(sorted(issued)))
            last_issue = cycle
        cycle += 1

    return BlockSchedule(
        instructions=tuple(instructions), cycles=last_issue + 1
    )


def _preds_satisfied(graph, issue_cycle, i, cycle) -> bool:
    """All predecessors of i issued, with their delays elapsed by cycle."""
    for pred, delay in graph.preds[i]:
        when = issue_cycle[pred]
        if when < 0 or when + delay > cycle:
            return False
    return True
