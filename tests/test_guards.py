"""The repository's structural rules, checked by reading its source.

Each guard is a pattern that must match no line of its files: a name the
rules retired, or a construction that has one home elsewhere.  A pattern
built by `words` matches whole words only, as `grep -w` does.  The
`src/` line budget is the current count; a change that adds lines to
`src/` removes as many elsewhere, or raises the budget in the open.  No
supercusp module imports another's private name."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "supercusp"
TESTS = Path(__file__).resolve().parent

LINE_BUDGET = 2863


def words(*names):
    """Any of the names as a whole word."""
    return r"\b(?:" + "|".join(names) + r")\b"


def src(*skip):
    """Every module of src/supercusp but those named in skip."""
    return [p for p in sorted(SRC.glob("*.py")) if p.name not in skip]


# rule: (pattern, files)
GUARDS = {
    # the dense reference layer stays behind exact.py
    "dense-layer": (words("RatFunc", "Cyclo"), src("exact.py")),
    # one integer elimination: the Smith form behind Omega's presentation
    "one-elimination": (words(
        "det_adjugate", "integer_inverse", "integer_kernel", "mat_mul",
        "mat_identity", "det_qw_minus_one", "subgroup_structure",
        "quotient_presentation", "swap_rows", "swap_cols", "negate_row"),
        src()),
    # one home per fact on the report path: no pass-through records or
    # fields
    "one-home-per-fact": (words(
        "CentralizerType", "CuspidalUnipotentDatum", "vs_nodes", "weight_dim",
        "TABLE_VERSION", "dual_diagram", "_ADJOINT_MEMO", "_shared",
        "unipotent_class_tag", "quasi_split", "_orbit_signature"), src()),
    # src/ serves the report path; the isogeny-transfer oracle and the
    # other test-only helpers live in tests/
    "report-path-only": (words(
        "TransferData", "transfer_data", "isogeny_transfer", "matched_class",
        "gamma0_virtual", "all_pattern_entries", "p_subst_pow",
        "WDLocalFactors", "gamma_abs_at_0", "eps_at", "gamma_at", "_two_s",
        "_string_factors"), src()),
    # Lusztig's parameter s is decoded from a rank in one function,
    # padic.lusztig_parameter
    "lusztig-parameter": (words("_is_square", "_is_triangular"), src()),
    "lusztig-parameter-casetable": (words("isqrt"), [SRC / "casetable.py"]),
    # every node permutation is one tuple over the affine nodes: no dict
    # conversions, no flagged wrappers
    "node-permutations": (words(
        "finite_diagram_autos", "as_dict", "affine_perm", "DiagramAut",
        "diagram_automorphisms", "commutes_with_frobenius",
        "stabilizes_isogeny"), src()),
    # nodes sort as integers: no string order key
    "nodes-sort-as-integers": (r"_NODE_ORDER|key=str", src()),
    # the roots come from alpha-strings and theta from reflecting one simple
    # root; the reflection closure is a test oracle
    "no-reflection-closure": (r"def reflections", src()),
    # the roots are built on first read: no eager self.roots in RootSystem
    "lazy-roots": (r"self\.roots *=", [SRC / "rootdata.py"]),
    # the profile table is read off bond lists and twists off node cycles
    "profile-table": (r"cartan_matrix|perm_order", [SRC / "padic.py"]),
    # the Weyl degrees and the Frobenius eigenvalues on them come from the
    # root heights: no degree table
    "no-degree-table": (r"_DEGREES|weyl_degrees|listed last", src()),
    # the tests walk the type space in one place, tests/typespace.py; this
    # module holds the guard's pattern as text
    "one-typespace-walk": (
        r'def (catalogue|_systems|_isogenies)\(|FAMILY_RANKS'
        r'|CATALOGUE_SYSTEMS|TWISTED_SYSTEMS|"ABCDEFG"|_RANKS',
        [p for p in sorted(TESTS.glob("*.py"))
         if p.name not in ("typespace.py", "test_guards.py")]),
    # value types need no generated code: no dataclasses on the report path
    "no-dataclasses": (words("dataclass", "dataclasses"), src()),
}


@pytest.mark.parametrize("rule", GUARDS)
def test_guard(rule):
    pattern, files = GUARDS[rule]
    assert files
    hits = [f"{path.name}:{n}: {line}" for path in files
            for n, line in enumerate(
                path.read_text(encoding="utf-8").split("\n"), 1)
            if re.search(pattern, line)]
    assert hits == []


def test_line_budget():
    lines = sum(p.read_bytes().count(b"\n") for p in src())
    assert lines <= LINE_BUDGET


def test_no_private_imports():
    bad = [f"{p.name} imports {node.module}.{alias.name}" for p in src()
           for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
           if isinstance(node, ast.ImportFrom)
           and (node.level
                or (node.module or "").split(".")[0] == "supercusp")
           for alias in node.names if alias.name.startswith("_")]
    assert bad == []
