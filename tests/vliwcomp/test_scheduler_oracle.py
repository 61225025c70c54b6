"""The event-driven list scheduler against the cycle-scan reference.

``scheduler_oracle.oracle_schedule_block`` rebuilds the ready list every
cycle; :func:`repro.vliwcomp.scheduler.schedule_block` must produce the
identical :class:`BlockSchedule` — same instructions, same cycle count —
for any block on any machine.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings
from scheduler_oracle import oracle_schedule_block

from repro.errors import ScheduleError
from repro.explore.spec import ProcessorDesignSpace
from repro.isa.operations import (
    OpClass,
    make_branch,
    make_float,
    make_int,
    make_load,
    make_store,
)
from repro.machine.mdes import MachineDescription
from repro.machine.presets import PAPER_PROCESSORS, P3221
from repro.vliwcomp import scheduler
from repro.vliwcomp.depgraph import DependenceGraph
from repro.vliwcomp.scheduler import schedule_block

#: Every preset and every explore processor at the default latencies
#: (FLOAT 3, MEMORY 2, INT and BRANCH 1), and one machine whose
#: latencies differ from the defaults in every class.
MACHINES = [
    MachineDescription(p)
    for p in (*PAPER_PROCESSORS, *ProcessorDesignSpace().processors())
] + [
    MachineDescription(
        P3221,
        latencies={
            OpClass.INT: 2,
            OpClass.FLOAT: 5,
            OpClass.MEMORY: 4,
            OpClass.BRANCH: 3,
        },
    )
]

# A handful of registers, so RAW, WAW and WAR chains are common; three
# streams, so same-stream memory ordering edges are too.
_REG = st.integers(0, 7)
_OP = st.one_of(
    st.builds(make_int, _REG, st.tuples(_REG, _REG)),
    st.builds(make_float, _REG, st.tuples(_REG)),
    st.builds(make_load, _REG, _REG, st.integers(0, 2)),
    st.builds(make_store, _REG, _REG, st.integers(0, 2)),
)
_BLOCK = st.tuples(
    st.lists(_OP, max_size=40),
    st.none() | st.builds(make_branch, st.tuples(_REG)),
).map(lambda parts: parts[0] + ([parts[1]] if parts[1] else []))


@settings(max_examples=150, deadline=None)
@given(operations=_BLOCK)
def test_matches_cycle_scan_oracle_on_every_machine(operations):
    for mdes in MACHINES:
        assert schedule_block(operations, mdes) == oracle_schedule_block(
            operations, mdes
        ), mdes.processor.name


def test_cyclic_graph_raises(monkeypatch):
    """Ops remain but none can ever be released: a clean error, not a
    hang or an IndexError."""

    def cyclic(operations, mdes):
        graph = DependenceGraph(
            n_ops=3,
            succs=[[], [], []],
            preds=[[], [], []],
            height=[3, 2, 1],
        )
        graph.add_edge(1, 2, 1)
        graph.add_edge(2, 1, 1)
        return graph

    monkeypatch.setattr(scheduler, "build_dependence_graph", cyclic)
    ops = [make_int(1), make_int(2), make_int(3)]
    with pytest.raises(ScheduleError, match="cyclic"):
        schedule_block(ops, MachineDescription(P3221))
