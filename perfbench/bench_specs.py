"""The benchmark's workloads: fixed spec lists, ordered by the seed.

Every spec names all inner forms (`:*`).  The lists are literal so that a
run never spends time discovering them; `tests/test_perfbench.py` checks
them against the program.
"""

import random

GAMMA_TYPES = ("A4", "A5", "A6", "A7", "G2", "F4", "E6")
RANK_TYPES = ("B9", "C9", "D9", "2D9", "B10", "C10", "D10", "2D10")
ISOGENY_TYPES = ("2A5", "2A7", "2A9", "B7", "C7", "D4", "D5", "D6", "D7",
                 "D8", "2D4", "2D5", "2D6", "2D7", "2D8", "3D4", "2E6")

# every isogeny that build_group accepts (Frobenius-stable) for each type
ISOGENIES = {
    "2A5": ("sc", "d2", "d3", "adjoint"),
    "2A7": ("sc", "d2", "d4", "adjoint"),
    "2A9": ("sc", "d2", "d5", "adjoint"),
    "B7": ("sc", "adjoint"),
    "C7": ("sc", "adjoint"),
    "D4": ("sc", "so", "hs1", "hs2", "adjoint"),
    "D5": ("sc", "so", "adjoint"),
    "D6": ("sc", "so", "hs1", "hs2", "adjoint"),
    "D7": ("sc", "so", "adjoint"),
    "D8": ("sc", "so", "hs1", "hs2", "adjoint"),
    "2D4": ("sc", "so", "adjoint"),
    "2D5": ("sc", "so", "adjoint"),
    "2D6": ("sc", "so", "adjoint"),
    "2D7": ("sc", "so", "adjoint"),
    "2D8": ("sc", "so", "adjoint"),
    "3D4": ("sc", "adjoint"),
    "2E6": ("sc", "adjoint"),
}

WORKLOADS = {
    "gamma": tuple(f"{t}:adjoint:*" for t in GAMMA_TYPES),
    "rank": tuple(f"{t}:adjoint:*" for t in RANK_TYPES),
    "isogeny": tuple(f"{t}:{iso}:*" for t in ISOGENY_TYPES
                     for iso in ISOGENIES[t]),
}


def ordered_specs(workload, seed):
    """The workload's specs in the order the seed fixes."""
    specs = list(WORKLOADS[workload])
    random.Random(seed).shuffle(specs)
    return specs
