"""Template-selection memo: exhaustive agreement with a brute-force scan.

:meth:`InstructionFormat.select_template` memoises per format instance,
keyed by the op-class count vector.  These tests pin the memo to the
unmemoised rule (fewest bits, then most slots, then template order) on
every count vector up to one past each paper machine's widest class,
and check that the memo changes nothing observable.
"""

import itertools

import pytest

from repro.errors import EncodingError
from repro.iformat.encoding import InstructionCodec
from repro.iformat.format_synth import synthesize_format
from repro.isa.operations import (
    OP_CLASSES,
    make_branch,
    make_float,
    make_int,
    make_load,
    make_store,
)
from repro.machine.mdes import MachineDescription
from repro.machine.presets import PAPER_PROCESSORS

PAPER_MDES = [MachineDescription(p) for p in PAPER_PROCESSORS]
IDS = [p.name for p in PAPER_PROCESSORS]


def brute_force_select(iformat, op_counts):
    """The selection rule as a plain scan; None when nothing covers."""
    covering = [
        (
            iformat.template_width_bits(template),
            -template.total_slots,
            index,
        )
        for index, template in enumerate(iformat.templates)
        if template.covers(op_counts)
    ]
    if not covering:
        return None
    return iformat.templates[min(covering)[2]]


def count_vectors(mdes):
    top = max(mdes.processor.units.values()) + 2
    return itertools.product(range(top), repeat=len(OP_CLASSES))


@pytest.mark.parametrize("mdes", PAPER_MDES, ids=IDS)
def test_every_count_vector_matches_brute_force(mdes):
    iformat = synthesize_format(mdes)
    reference = synthesize_format(mdes)
    uncoverable = []
    for vector in count_vectors(mdes):
        op_counts = dict(zip(OP_CLASSES, vector))
        expected = brute_force_select(reference, op_counts)
        if expected is None:
            uncoverable.append(op_counts)
            continue
        assert iformat.select_template(op_counts) == expected, vector
        # A warm memo answers the same.
        assert iformat.select_template(op_counts) == expected, vector
    assert uncoverable  # max_units + 1 of some class never fits
    for op_counts in uncoverable:
        for _ in range(2):
            with pytest.raises(EncodingError, match="no template"):
                iformat.select_template(op_counts)


@pytest.mark.parametrize("mdes", PAPER_MDES, ids=IDS)
def test_width_and_noop_memos_match_direct_computation(mdes):
    iformat = synthesize_format(mdes)
    for _ in range(2):
        for template in iformat.templates:
            bits = iformat.template_width_bits(template)
            assert iformat.template_width_bytes(template) == (bits + 7) // 8
        smallest = min(iformat.templates, key=iformat.template_width_bits)
        assert iformat.noop_instruction_bytes() == (
            iformat.template_width_bytes(smallest)
        )


@pytest.mark.parametrize("mdes", PAPER_MDES, ids=IDS)
def test_warm_memo_leaves_equality_and_repr_unchanged(mdes):
    cold = synthesize_format(mdes)
    warm = synthesize_format(mdes)
    for vector in count_vectors(mdes):
        try:
            warm.select_template(dict(zip(OP_CLASSES, vector)))
        except EncodingError:
            pass
    warm.noop_instruction_bytes()
    assert warm == cold
    assert repr(warm) == repr(cold)


SAMPLES = [
    [],
    [make_int(3, (1, 2))],
    [make_int(3, (1, 2)), make_load(4, addr_src=7, stream=2)],
    [make_float(5, (3, 4)), make_branch((5,))],
    [make_store(value_src=2, addr_src=9), make_int(1, (0, 0))],
    [
        make_int(1, (2, 3)),
        make_float(4, (5, 6)),
        make_load(7, addr_src=8),
        make_branch((1,)),
    ],
]


@pytest.mark.parametrize("mdes", PAPER_MDES, ids=IDS)
def test_codec_round_trip_identical_cold_and_warm(mdes):
    warm = InstructionCodec(mdes, synthesize_format(mdes))
    for ops in SAMPLES:
        warm.encode(ops)
    for ops in SAMPLES:
        cold = InstructionCodec(mdes, synthesize_format(mdes))
        counts = {}
        for op in ops:
            counts[op.opclass] = counts.get(op.opclass, 0) + 1
        data = cold.encode(ops, noop_run=1)
        assert warm.encode(ops, noop_run=1) == data
        decoded = warm.decode(data)
        assert decoded == cold.decode(data)
        assert decoded.template == brute_force_select(cold.iformat, counts)
        assert decoded.noop_run == 1
        assert len(decoded.occupied_slots()) == len(ops)
