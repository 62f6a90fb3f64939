"""The case table: verified bookkeeping for every supported pattern.

Each entry records, for one structural pattern of (family, twist, inner
form, support), the torsion order n_s of the matching parameter, the
adjoint-level class count, a named subgroup of the adjoint fundamental
group that controls descent, and a provenance string naming the section of
the source classification that the row transcribes.  It is also the only
record of where the parameter cuts the dual affine diagram: the cut node
(cut_node, the node whose Kac coordinate is 1).  The diagram itself
depends on the group alone, so galois reads it from the dual type
(galois.dual_affine_diagram), takes the node from here, and checks the
centralizer the cut leaves against an explicit type string, where one is
recorded; rules without a cut node record a shape name instead.

Exceptional hosts are explicit per-class rows keyed by the group type and
the finite quotient of the support; classical families are parametric
rules keyed by the component structure.  Anything else raises
CaseTableError ("not in table").
"""

from __future__ import annotations

from math import isqrt
from typing import NamedTuple


class CaseTableError(LookupError):
    """Pattern has no row in the case table."""


class CaseEntry(NamedTuple):
    pattern: str
    provenance: str
    n_s: int
    b_ad: int
    n_name: str                # "1" | "eta" | "omega_theta" | "full"
    # an explicit type string the cut must leave (exceptional rows), or a
    # shape name on a rule with no cut node; None where a rule fixes it
    geometric: str | None = None
    # the cut node of the dual affine diagram (Kac coordinate 1); galois
    # reads it from here only, and the diagram from the group's dual type
    cut_node: int | None = None


# ---------------------------------------------------------------------------
# explicit per-class rows for exceptional quotients
# ---------------------------------------------------------------------------

# keyed by (group type, finite quotient of the support); one list entry per
# equal-degree class, in the order the cuspidal class table emits them
_EXCEPTIONAL_ROWS = {
    ("G2", "G2"): [
        CaseEntry("exc.G2", "§13", 1, 1, "1", "G2", 0),
        CaseEntry("exc.G2", "§13", 2, 1, "1", "A1xA1", 2),
        CaseEntry("exc.G2", "§13", 3, 2, "1", "A2", 1),
    ],
    ("F4", "F4"): [
        CaseEntry("exc.F4", "§13", 1, 1, "1", "F4", 0),
        CaseEntry("exc.F4", "§13", 2, 1, "1", "A1xC3", 1),
        CaseEntry("exc.F4", "§13", 3, 2, "1", "A2xA2", 2),
        CaseEntry("exc.F4", "§13", 4, 2, "1", "A3xA1", 3),
        CaseEntry("exc.F4", "§13", 2, 1, "1", "B4", 4),
    ],
    ("E8", "E8"): [
        CaseEntry("exc.E8", "§13", 1, 1, "1", "E8", 0),
        CaseEntry("exc.E8", "§13", 2, 1, "1", "D8", 1),
        CaseEntry("exc.E8", "§13", 2, 1, "1", "A1xE7", 8),
        CaseEntry("exc.E8", "§13", 3, 2, "1", "E6xA2", 7),
        CaseEntry("exc.E8", "§13", 4, 2, "1", "D5xA3", 6),
        CaseEntry("exc.E8", "§13", 6, 2, "1", "A5xA2xA1", 4),
        CaseEntry("exc.E8", "§13", 5, 4, "1", "A4xA4", 5),
    ],
    ("3D4", "3D4"): [
        CaseEntry("exc.3D4", "§9", 1, 1, "1", "G2", 0),
        CaseEntry("exc.3D4", "§9", 2, 1, "1", "A1xA1", 1),
    ],
    ("E6", "E6"): [
        CaseEntry("exc.E6", "§10", 3, 2, "1", "A2xA2xA2", 4),
    ],
    ("2E6", "2E6"): [
        CaseEntry("exc.2E6", "§11", 1, 1, "1", "F4", 0),
        CaseEntry("exc.2E6", "§11", 3, 2, "1", "A2xA2", 2),
    ],
    ("E7", "E7"): [
        CaseEntry("exc.E7", "§12", 4, 2, "1", "A3xA1xA3", 4),
    ],
    # inner form of order 3, support of triality type; the central point
    # cuts node 0, the order-2 point has no recorded node
    ("E6", "3D4xT2"): [
        CaseEntry("E6.triality", "§10", 1, 1, "full", cut_node=0),
        CaseEntry("E6.triality", "§10", 2, 1, "full"),
    ],
    # nontrivial inner form, support of fused-E6 type
    ("E7", "2E6xT1"): [
        CaseEntry("E7.fusedE6", "§12", 2, 1, "full", "A1xD6", 1),
        CaseEntry("E7.fusedE6", "§12", 3, 2, "full", "A2xA5", 3),
    ],
}


# ---------------------------------------------------------------------------
# parametric classical rules
# ---------------------------------------------------------------------------

# one entry per classical pattern; the classifier below picks among them.
# A rule with a fixed cut node records no shape: n_s = 1 means the central
# point, node 0; the odd orthogonal rules take theirs from the block ranks
_CENTRAL = {"cut_node": 0}
_CLASSICAL_RULES = {e.pattern: e for e in (
    CaseEntry("lin.anisotropic", "§4", 1, 1, "full", **_CENTRAL),
    CaseEntry("unit.single", "§5", 1, 1, "1", "Sp"),
    CaseEntry("unit.pair", "§5", 2, 1, "1", "SpxSO"),
    CaseEntry("unit.equal", "§5", 2, 1, "omega_theta", "Sp-pair"),
    CaseEntry("oddorth.s0", "§6", 2, 1, "1"),
    CaseEntry("oddorth.pair", "§6", 2, 1, "full"),
    CaseEntry("symp.pair", "§7", 2, 1, "1", "DxB"),
    CaseEntry("symp.equal", "§7", 1, 1, "full", **_CENTRAL),
    CaseEntry("symp.mixed", "§7", 2, 2, "1", "DxB"),
    CaseEntry("evenorth.full", "§8", 2, 1, "1", "DxD-equal"),
    CaseEntry("evenorth.pair", "§8", 2, 1, "eta", "DxD"),
    CaseEntry("evenorth.pair.equal", "§8", 1, 1, "full", **_CENTRAL),
    CaseEntry("evenorth.fused", "§8", 1, 1, "full", **_CENTRAL),
    CaseEntry("evenorth.mixed", "§8", 2, 2, "eta", "DxD"),
    CaseEntry("evenorth.unitary", "§8", 2, 2, "1", "DxD-equal"),
    CaseEntry("twistorth.full", "§9", 2, 1, "1", "BxB-equal"),
    CaseEntry("twistorth.pair", "§9", 2, 1, "eta", "BxB"),
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
        # the cut on the dual chain C_n leaves C_t(a-b) x C_t(a+b), with
        # t(m) = m(m+1)/2 >= 0 for every integer m, and t(a-b) + t(a+b) = n
        node = (a - b) * (a - b + 1) // 2
        if b == 0:
            return _CLASSICAL_RULES["oddorth.s0"]._replace(cut_node=node)
        # the matching involution has equal-or-adjacent defects exactly when
        # one block is empty, and is central then
        return _CLASSICAL_RULES["oddorth.pair"]._replace(
            cut_node=node, n_s=1 if b - a in (0, 1) else 2)

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

    if fam == "D" and tw in (1, 2):
        d_parts = [s for s in sig if s[0] == "D"]
        a_parts = [s for s in sig if s[0] == "A"]
        what = "even" if tw == 1 else "twisted"
        if len(d_parts) + len(a_parts) != len(sig) or any(
                p[2] != 2 or p[3] != 1 for p in a_parts):
            raise CaseTableError(f"{what} orthogonal support out of pattern")
        if tw == 2:
            if len(d_parts) == 1 and not a_parts and dcount == [1] \
                    and d_parts[0][2] == 2 and d_parts[0][1] == group.rank:
                return _CLASSICAL_RULES["twistorth.full"]
            if d_parts or len(a_parts) == 1:
                return _CLASSICAL_RULES["twistorth.pair"]
            raise CaseTableError("twisted orthogonal support out of pattern")
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

    raise CaseTableError(
        f"no case rule for {group.type_string()} support {host.support}")


# ---------------------------------------------------------------------------
# public lookup
# ---------------------------------------------------------------------------


def rows_for_host(group, host, classes):
    """Case entries aligned positionally with the equal-degree classes."""
    rows = _EXCEPTIONAL_ROWS.get((group.type_string(),
                                  host.quotient_description()))
    if rows is not None:
        if len(rows) != len(classes):
            raise CaseTableError(
                f"class count mismatch for {group.type_string()}")
        return list(rows)
    entry = _classify_classical(group, host)
    if len(classes) != 1:
        raise CaseTableError("classical host with more than one class")
    return [entry]


def resolve_named_subgroup(group, name):
    """Interpret a case table subgroup name inside the adjoint fundamental
    group of the given group."""
    if name == "1":
        return frozenset({group.rs.omega.identity()})
    if name == "full":
        return group.rs.isogenies["adjoint"]
    if name == "omega_theta":
        return group.omega_ad_theta
    if name == "eta":
        # the subgroup of SO(2n); only type D rules name it
        return group.rs.isogenies["so"]
    raise CaseTableError(f"unknown subgroup name {name!r}")
