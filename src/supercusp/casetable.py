"""The case table: verified bookkeeping for every supported pattern.

Single versioned data source.  Each entry records, for one structural
pattern of (family, twist, inner form, support), the torsion order n_s of
the matching parameter, the adjoint-level class count, a named subgroup of
the adjoint fundamental group that controls descent, the geometric
centralizer type, and a provenance string naming the section of the source
classification that the row transcribes.

Classical families are parametric rules keyed by the component structure;
exceptional hosts are explicit per-class rows.  Anything else raises
CaseTableError ("not in table").
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import isqrt


TABLE_VERSION = "1.0"


class CaseTableError(LookupError):
    """Pattern has no row in the case table."""


@dataclass(frozen=True)
class CaseEntry:
    pattern: str
    provenance: str
    n_s: int
    b_ad: int
    n_name: str            # "1" | "eta" | "omega_theta" | "full"
    geometric: str | None  # centralizer type, when recorded
    vs_nodes: tuple | None  # nodes of the dual affine diagram cut at v(s)
    dual_diagram: str | None  # "untwisted" | "E6(2)" | "D4(3)"
    notes: str = ""


def _entry(pattern, provenance, n_s, b_ad, n_name, geometric=None,
           vs_nodes=None, dual_diagram=None, notes=""):
    return CaseEntry(pattern, provenance, n_s, b_ad, n_name, geometric,
                     vs_nodes, dual_diagram, notes)


# ---------------------------------------------------------------------------
# explicit per-class rows for self-hosted exceptional quotients
# ---------------------------------------------------------------------------

# one list entry per equal-degree class, in the order the cuspidal class
# table emits them
_EXCEPTIONAL_ROWS = {
    ("G", 2): [
        _entry("exc.G2", "§13", 1, 1, "1", "G2", (0,), "untwisted"),
        _entry("exc.G2", "§13", 2, 1, "1", "A1xA1", (2,), "untwisted"),
        _entry("exc.G2", "§13", 3, 2, "1", "A2", (1,), "untwisted"),
    ],
    ("F", 4): [
        _entry("exc.F4", "§13", 1, 1, "1", "F4", (0,), "untwisted"),
        _entry("exc.F4", "§13", 2, 1, "1", "A1xC3", (1,), "untwisted"),
        _entry("exc.F4", "§13", 3, 2, "1", "A2xA2", (2,), "untwisted"),
        _entry("exc.F4", "§13", 4, 2, "1", "A3xA1", (3,), "untwisted"),
        _entry("exc.F4", "§13", 2, 1, "1", "B4", (4,), "untwisted"),
    ],
    ("E", 8): [
        _entry("exc.E8", "§13", 1, 1, "1", "E8", (0,), "untwisted"),
        _entry("exc.E8", "§13", 2, 1, "1", "D8", (1,), "untwisted"),
        _entry("exc.E8", "§13", 2, 1, "1", "A1xE7", (8,), "untwisted"),
        _entry("exc.E8", "§13", 3, 2, "1", "E6xA2", (7,), "untwisted"),
        _entry("exc.E8", "§13", 4, 2, "1", "D5xA3", (6,), "untwisted"),
        _entry("exc.E8", "§13", 6, 2, "1", "A5xA2xA1", (4,), "untwisted"),
        _entry("exc.E8", "§13", 5, 4, "1", "A4xA4", (5,), "untwisted"),
    ],
    ("D4", 3): [
        _entry("exc.3D4", "§9", 1, 1, "1", "G2", (0,), "D4(3)"),
        _entry("exc.3D4", "§9", 2, 1, "1", "A1xA1", (1,), "D4(3)"),
    ],
    ("E6", 1): [
        _entry("exc.E6", "§10", 3, 2, "1", "A2xA2xA2", (4,), "untwisted"),
    ],
    ("E6", 2): [
        _entry("exc.2E6", "§11", 1, 1, "1", "F4", (0,), "E6(2)"),
        _entry("exc.2E6", "§11", 3, 2, "1", "A2xA2", (2,), "E6(2)"),
    ],
    ("E7", 1): [
        _entry("exc.E7", "§12", 4, 2, "1", "A3xA1xA3", (4,), "untwisted"),
    ],
    # E6, inner form of order 3, support of triality type
    ("E6.triality", None): [
        _entry("E6.triality", "§10", 1, 1, "full"),
        _entry("E6.triality", "§10", 2, 1, "full"),
    ],
    # E7, nontrivial inner form, support of fused-E6 type
    ("E7.fusedE6", None): [
        _entry("E7.fusedE6", "§12", 2, 1, "full", "A1xD6"),
        _entry("E7.fusedE6", "§12", 3, 2, "full", "A2xA5"),
    ],
}


# ---------------------------------------------------------------------------
# parametric classical rules
# ---------------------------------------------------------------------------

# one entry per classical pattern; the classifier below picks among them
_CLASSICAL_RULES = {e.pattern: e for e in (
    _entry("lin.anisotropic", "§4", 1, 1, "full", "regular-elliptic",
           notes="division algebra modulo center"),
    _entry("unit.single", "§5", 1, 1, "1", "Sp"),
    _entry("unit.pair", "§5", 2, 1, "1", "SpxSO"),
    _entry("unit.equal", "§5", 2, 1, "omega_theta", "Sp-pair"),
    _entry("oddorth.s0", "§6", 2, 1, "1", "CxC-equal"),
    _entry("oddorth.pair", "§6", 2, 1, "full", "CxC",
           notes="torsion order computed per support"),
    _entry("symp.pair", "§7", 2, 1, "1", "DxB"),
    _entry("symp.equal", "§7", 1, 1, "full", "B-single"),
    _entry("symp.mixed", "§7", 2, 2, "1", "DxB",
           notes="two cuspidal systems on the pinned cover"),
    _entry("evenorth.full", "§8", 2, 1, "1", "DxD-equal"),
    _entry("evenorth.pair", "§8", 2, 1, "eta", "DxD"),
    _entry("evenorth.pair.equal", "§8", 1, 1, "full", "D-single"),
    _entry("evenorth.fused", "§8", 1, 1, "full", "D-single"),
    _entry("evenorth.mixed", "§8", 2, 2, "eta", "DxD"),
    _entry("evenorth.unitary", "§8", 2, 2, "1", "DxD-equal",
           notes="two cuspidal systems on the pinned cover"),
    _entry("twistorth.full", "§9", 2, 1, "1", "BxB-equal"),
    _entry("twistorth.pair", "§9", 2, 1, "eta", "BxB"),
    _entry("twistorth.unitary", "§9", 2, 1, "1", "Sp"),
)}


def _orbit_signature(host):
    """Multiset of (family, rank, twist, orbit size) over the support."""
    return sorted((co.family, co.rank, co.twist, co.orbit_size)
                  for co in host.orbits)


def odd_orthogonal_blocks(host):
    """(a, b) for a support of shape D_s x B_t in the odd orthogonal family,
    with s = b^2 and t = a(a + 1); a central torus stands for s = 1.  None
    when s is not a square or t not of that form."""
    s = t = 0
    for co in host.orbits:
        if co.family == "D":
            s = co.rank
        elif co.family == "B":
            t = co.rank
    if s == 0 and host.torus_rank > 0:
        s = 1
    b = isqrt(s)
    a = (isqrt(4 * t + 1) - 1) // 2
    if b * b != s or a * (a + 1) != t:
        return None
    return a, b


def _classify_classical(group, host):
    """Return the parametric CaseEntry for a classical hosting pattern."""
    fam, tw = group.family, group.twist_order
    sig = _orbit_signature(host)
    dcount = [s[3] for s in sig]

    if sig == []:
        # fully anisotropic form; covers rank 3 of the even orthogonal
        # family through its rank 3 linear coincidence
        return _CLASSICAL_RULES["lin.anisotropic"]

    if fam == "A" and tw == 1:
        raise CaseTableError("split type A hosts only on the empty support")

    if fam == "A" and tw == 2:
        arcs = [s for s in sig if s[0] == "A" and s[2] == 2 and s[3] == 1]
        if len(arcs) != len(sig):
            raise CaseTableError("unitary support with a non-arc component")
        if len(arcs) == 1:
            return _CLASSICAL_RULES["unit.single"]
        if len(arcs) == 2 and arcs[0][1] != arcs[1][1]:
            return _CLASSICAL_RULES["unit.pair"]
        if len(arcs) == 2:
            return _CLASSICAL_RULES["unit.equal"]
        raise CaseTableError("unitary support with more than two arcs")

    if fam == "B":
        b_parts = [s for s in sig if s[0] == "B"]
        d_parts = [s for s in sig if s[0] == "D"]
        if len(b_parts) + len(d_parts) != len(sig) or len(b_parts) > 1 \
                or len(d_parts) > 1 or any(d != 1 for d in dcount):
            raise CaseTableError("odd orthogonal support out of pattern")
        blocks = odd_orthogonal_blocks(host)
        if blocks is None:
            raise CaseTableError("odd orthogonal block ranks are not a "
                                 "square and a pronic number")
        a, b = blocks
        if b == 0:
            return _CLASSICAL_RULES["oddorth.s0"]
        # the matching involution has equal-or-adjacent defects exactly when
        # one block is empty, and is central then
        return replace(_CLASSICAL_RULES["oddorth.pair"],
                       n_s=1 if b - a in (0, 1) else 2)

    if fam == "C":
        a_parts = [s for s in sig if s[0] == "A"]
        c_parts = [s for s in sig if s[0] in ("B", "C")]
        if len(a_parts) + len(c_parts) != len(sig) \
                or any(p[2] != 1 for p in c_parts):
            raise CaseTableError("symplectic support out of pattern")
        if a_parts:
            if len(a_parts) > 1 or a_parts[0][2] != 2 or a_parts[0][3] != 1:
                raise CaseTableError("symplectic support out of pattern")
            return _CLASSICAL_RULES["symp.mixed"]
        if len(c_parts) == 1 and dcount == [2]:
            # swapped pair of equal blocks over the quadratic extension
            if host.torus_rank > 0:
                return _CLASSICAL_RULES["symp.mixed"]
            return _CLASSICAL_RULES["symp.equal"]
        if len(c_parts) == 2 and c_parts[0][1] == c_parts[1][1] \
                and all(d == 1 for d in dcount):
            return _CLASSICAL_RULES["symp.equal"]
        if len(c_parts) in (1, 2) and all(d == 1 for d in dcount):
            return _CLASSICAL_RULES["symp.pair"]
        raise CaseTableError("symplectic support out of pattern")

    if fam == "D" and tw == 1:
        d_parts = [s for s in sig if s[0] == "D"]
        a_parts = [s for s in sig if s[0] == "A"]
        if len(d_parts) + len(a_parts) != len(sig):
            raise CaseTableError("even orthogonal support out of pattern")
        if a_parts and any(p[2] != 2 or p[3] != 1 for p in a_parts):
            raise CaseTableError("even orthogonal support out of pattern")
        if len(a_parts) == 1 and not d_parts:
            if a_parts[0][1] == group.rank - 1:
                return _CLASSICAL_RULES["evenorth.unitary"]
            return _CLASSICAL_RULES["evenorth.mixed"]
        if len(d_parts) == 1 and not a_parts:
            r, twd, dc = d_parts[0][1], d_parts[0][2], d_parts[0][3]
            if dc == 2:
                # swapped pair of equal blocks over the quadratic extension;
                # the matching class is central exactly when twice the rank
                # is a perfect square
                if isqrt(2 * group.rank) ** 2 == 2 * group.rank:
                    return _CLASSICAL_RULES["evenorth.fused"]
                return _CLASSICAL_RULES["evenorth.mixed"]
            if twd == 1 and r == group.rank:
                return _CLASSICAL_RULES["evenorth.full"]
            return _CLASSICAL_RULES["evenorth.pair"]
        if len(d_parts) == 1 and len(a_parts) == 1 and dcount.count(2) == 1:
            return _CLASSICAL_RULES["evenorth.mixed"]
        if len(d_parts) == 2 and not a_parts:
            if d_parts[0][1] == d_parts[1][1] and d_parts[0][2] == d_parts[1][2]:
                return _CLASSICAL_RULES["evenorth.pair.equal"]
            return _CLASSICAL_RULES["evenorth.pair"]
        raise CaseTableError("even orthogonal support out of pattern")

    if fam == "D" and tw == 2:
        d_parts = [s for s in sig if s[0] == "D"]
        a_parts = [s for s in sig if s[0] == "A"]
        if len(d_parts) + len(a_parts) != len(sig):
            raise CaseTableError("twisted orthogonal support out of pattern")
        if a_parts and any(p[2] != 2 or p[3] != 1 for p in a_parts):
            raise CaseTableError("twisted orthogonal support out of pattern")
        if len(a_parts) == 1 and not d_parts:
            if host.torus_rank == 0:
                return _CLASSICAL_RULES["twistorth.unitary"]
            return _CLASSICAL_RULES["twistorth.pair"]
        if len(d_parts) == 1 and not a_parts and dcount == [1] \
                and d_parts[0][2] == 2 and d_parts[0][1] == group.rank:
            return _CLASSICAL_RULES["twistorth.full"]
        if d_parts:
            return _CLASSICAL_RULES["twistorth.pair"]
        raise CaseTableError("twisted orthogonal support out of pattern")

    raise CaseTableError(
        f"no case rule for {group.type_string()} support {host.support}")


# ---------------------------------------------------------------------------
# public lookup
# ---------------------------------------------------------------------------


def _is_self_hosted_exceptional(group, host):
    if len(host.orbits) != 1 or host.torus_rank != 0:
        return None
    co = host.orbits[0]
    if co.orbit_size != 1:
        return None
    key = None
    if (co.family, co.rank, co.twist) == ("G", 2, 1):
        key = ("G", 2)
    elif (co.family, co.rank, co.twist) == ("F", 4, 1):
        key = ("F", 4)
    elif (co.family, co.rank, co.twist) == ("E", 8, 1):
        key = ("E", 8)
    elif (co.family, co.rank, co.twist) == ("E", 6, 1):
        key = ("E6", 1)
    elif (co.family, co.rank, co.twist) == ("E", 7, 1):
        key = ("E7", 1)
    return key


def rows_for_host(group, form, host, classes):
    """Case entries aligned positionally with the equal-degree classes."""
    fam, tw = group.family, group.twist_order

    key = _is_self_hosted_exceptional(group, host)
    if key is not None:
        rows = _EXCEPTIONAL_ROWS[key]
        if len(rows) != len(classes):
            raise CaseTableError(
                f"class count mismatch for {group.type_string()}")
        return list(rows)

    if len(host.orbits) == 1:
        co = host.orbits[0]
        if (co.family, co.rank, co.twist, co.orbit_size) == ("D", 4, 3, 1):
            if (fam, group.rank, tw) == ("D", 4, 3):
                return list(_EXCEPTIONAL_ROWS[("D4", 3)])
            if (fam, group.rank, tw) == ("E", 6, 1):
                return list(_EXCEPTIONAL_ROWS[("E6.triality", None)])
            raise CaseTableError("triality support in unexpected ambient")
        if (co.family, co.rank, co.twist, co.orbit_size) == ("E", 6, 2, 1):
            if (fam, group.rank, tw) == ("E", 6, 2):
                return list(_EXCEPTIONAL_ROWS[("E6", 2)])
            if (fam, group.rank, tw) == ("E", 7, 1):
                return list(_EXCEPTIONAL_ROWS[("E7.fusedE6", None)])
            raise CaseTableError("fused E6 support in unexpected ambient")

    entry = _classify_classical(group, host)
    if len(classes) != 1:
        raise CaseTableError("classical host with more than one class")
    return [entry]


def resolve_named_subgroup(group, name):
    """Interpret a case table subgroup name inside the adjoint fundamental
    group of the given group."""
    omega = group.rs.omega
    elems = set(group.omega_elements())
    if name == "1":
        return frozenset({group.omega_identity()})
    if name == "full":
        return frozenset(elems)
    if name == "omega_theta":
        return frozenset(group.omega_ad_theta_fixed())
    if name == "eta":
        eta = group.rs.coweight_class(1)
        sub = {group.omega_identity()}
        x = eta
        while x not in sub:
            sub.add(x)
            x = omega.add(x, eta)
        return frozenset(sub)
    raise CaseTableError(f"unknown subgroup name {name!r}")


def all_pattern_entries():
    """Every distinct row of the table, for dumping: explicit exceptional
    rows first, then one representative of each parametric rule."""
    rows = []
    for key in sorted(_EXCEPTIONAL_ROWS, key=str):
        rows.extend(_EXCEPTIONAL_ROWS[key])
    rows.extend(_CLASSICAL_RULES.values())
    return rows
