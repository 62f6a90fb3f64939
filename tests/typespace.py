"""The type space the tests walk, written out once.

A type is a key (family, rank, twist order), as `rootdata.parse_type`
returns it.  `types(top)` is every type the parser accepts up to rank
`top`: twist prefix none, 2 then 3, each family in turn, ranks ascending.
`types(12)` is the case-table catalogue (71 types) and `types(MAX_RANK)`
every type a spec may name (119).  `groups(top)` builds each of them at
every isogeny the Frobenius keeps (192 groups up to rank 12).  A test
takes what it needs as a filter of these; `tests/test_typespace.py` pins
their sizes.  Not a test module: pytest collects only test_*.py."""

from __future__ import annotations

from functools import lru_cache

from supercusp.rootdata import MAX_RANK, SimpleGroup, isogeny_tokens, \
    parse_type


@lru_cache(maxsize=None)
def types(top=MAX_RANK):
    """Every (family, rank, twist) that parse_type accepts, rank <= top."""
    out = []
    for prefix in ("", "2", "3"):
        for fam in "ABCDEFG":
            for rank in range(1, top + 1):
                try:
                    out.append(parse_type(f"{prefix}{fam}{rank}"))
                except ValueError:
                    continue
    return tuple(out)


def isogenies(key):
    """The type's SimpleGroup at each isogeny token the Frobenius keeps,
    simply connected first."""
    out = []
    for iso in isogeny_tokens(*key[:2]):
        try:
            out.append(SimpleGroup(*key, iso))
        except ValueError:
            continue
    return out


def groups(top=MAX_RANK):
    """isogenies(key) for every key of types(top), in that order."""
    return [g for key in types(top) for g in isogenies(key)]


def type_id(key):
    """The type string of a key: 2A5, D4, 3D4."""
    fam, rank, tw = key
    return f"{'' if tw == 1 else tw}{fam}{rank}"
