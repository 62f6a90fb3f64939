"""The type space of tests/typespace.py, pinned so that the walk every
test module filters cannot shrink unseen."""

from supercusp.rootdata import MAX_RANK, parse_type
from typespace import groups, type_id, types


def test_sizes():
    # the catalogue's 71 types and 192 groups, and the 119 types a spec may
    # name: 81 untwisted, 2A2-2A20, 2D4-2D20, 3D4 and 2E6
    assert len(types(12)) == 71
    assert len(types(MAX_RANK)) == 119
    assert len(groups(12)) == 192


def test_type_id_round_trips():
    for key in types(MAX_RANK):
        assert parse_type(type_id(key)) == key
