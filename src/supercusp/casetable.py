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
rules keyed by the component structure: a classical support is read once,
as unitary arcs (family A components of twist 2 over the ground field) and
orthogonal or symplectic blocks (B, C, D), and the rule is picked from the
arcs, the blocks and the blocks' orbit sizes; the odd orthogonal rules read
each block's Lusztig parameter s from padic.lusztig_parameter.  A support
outside every rule raises CaseTableError ("no case rule for <type> support
<support>"), as do odd orthogonal blocks without an s.
"""

from __future__ import annotations

from typing import NamedTuple

from supercusp.padic import lusztig_parameter


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
_CLASSICAL_RULES = {e.pattern: e for e in (
    CaseEntry("lin.anisotropic", "§4", 1, 1, "full", cut_node=0),
    CaseEntry("unit.single", "§5", 1, 1, "1", "Sp"),
    CaseEntry("unit.pair", "§5", 2, 1, "1", "SpxSO"),
    CaseEntry("unit.equal", "§5", 2, 1, "omega_theta", "Sp-pair"),
    CaseEntry("oddorth.s0", "§6", 2, 1, "1"),
    CaseEntry("oddorth.pair", "§6", 2, 1, "full"),
    CaseEntry("symp.pair", "§7", 2, 1, "1", "DxB"),
    CaseEntry("symp.equal", "§7", 1, 1, "full", cut_node=0),
    CaseEntry("symp.mixed", "§7", 2, 2, "1", "DxB"),
    CaseEntry("evenorth.full", "§8", 2, 1, "1", "DxD-equal"),
    CaseEntry("evenorth.pair", "§8", 2, 1, "eta", "DxD"),
    CaseEntry("evenorth.pair.equal", "§8", 1, 1, "full", cut_node=0),
    CaseEntry("evenorth.fused", "§8", 1, 1, "full", cut_node=0),
    CaseEntry("evenorth.mixed", "§8", 2, 2, "eta", "DxD"),
    CaseEntry("evenorth.unitary", "§8", 2, 2, "1", "DxD-equal"),
    CaseEntry("twistorth.full", "§9", 2, 1, "1", "BxB-equal"),
    CaseEntry("twistorth.pair", "§9", 2, 1, "eta", "BxB"),
)}


def odd_orthogonal_blocks(host):
    """(a, b) for a support of shape D_(b^2) x B_(a(a+1)) in the odd
    orthogonal family: Lusztig's s of the B block and of the D block
    (padic.lusztig_parameter), a = 0 with no B block, and b = 1 for a
    central torus standing in for the D block.  None when a block has no s."""
    a, b = 0, 1 if host.torus_rank else 0
    for co in host.orbits:
        s = lusztig_parameter(co.family, co.rank, co.twist)
        if s is None:
            return None
        if co.family == "B":
            a = s
        else:
            b = s
    return a, b


# the families a classical support's components may have, by the group's
# family; split type A, 3D4 and the exceptional groups allow none
_SUPPORT_FAMILIES = {"A": "A", "B": "BD", "C": "ABC", "D": "AD"}


def _classify_classical(group, host):
    """The parametric CaseEntry of a classical support, read off its arcs
    and blocks (see the module docstring)."""
    fam, tw, rules = group.family, group.twist_order, _CLASSICAL_RULES
    if not host.orbits:
        # fully anisotropic form; covers rank 3 of the even orthogonal
        # family through its rank 3 linear coincidence
        return rules["lin.anisotropic"]
    arcs = [co for co in host.orbits if co.family == "A"]
    blocks = [co for co in host.orbits if co.family != "A"]
    sizes = sorted(co.orbit_size for co in blocks)
    shapes = {(co.rank, co.twist) for co in blocks}
    allowed = "" if fam == "A" and tw != 2 or fam == "D" and tw > 2 \
        else _SUPPORT_FAMILIES.get(fam, "")
    if any(co.family not in allowed for co in host.orbits) \
            or any((co.twist, co.orbit_size) != (2, 1) for co in arcs) \
            or fam == "C" and any(co.twist != 1 for co in blocks):
        raise CaseTableError(
            f"no case rule for {group.type_string()} support {host.support}")

    if fam == "A" and len(arcs) == 1:
        return rules["unit.single"]
    if fam == "A" and len(arcs) == 2:
        return rules["unit.pair" if len({co.rank for co in arcs}) == 2
                     else "unit.equal"]

    if fam == "B" and sizes in ([1], [1, 1]) \
            and len({co.family for co in blocks}) == len(blocks) \
            and (ab := odd_orthogonal_blocks(host)) is not None:
        a, b = ab
        # the cut on the dual chain C_n leaves C_t(a-b) x C_t(a+b), with
        # t(m) = m(m+1)/2 >= 0 for every integer m, and t(a-b) + t(a+b) = n
        node = (a - b) * (a - b + 1) // 2
        if b == 0:
            return rules["oddorth.s0"]._replace(cut_node=node)
        # the matching involution has equal-or-adjacent defects exactly when
        # one block is empty, and is central then
        return rules["oddorth.pair"]._replace(
            cut_node=node, n_s=1 if b - a in (0, 1) else 2)

    if fam == "C" and len(arcs) == 1:
        return rules["symp.mixed"]
    if fam == "C" and not arcs and sizes == [2]:
        # swapped pair of equal blocks over the quadratic extension
        return rules["symp.mixed" if host.torus_rank else "symp.equal"]
    if fam == "C" and not arcs and sizes in ([1], [1, 1]):
        return rules["symp.equal" if sizes == [1, 1] and len(shapes) == 1
                     else "symp.pair"]

    if fam == "D" and tw == 2:
        if not arcs and sizes == [1] and shapes == {(group.rank, 2)}:
            return rules["twistorth.full"]
        if blocks or len(arcs) == 1:
            return rules["twistorth.pair"]
    if fam == "D" and tw == 1:
        if not blocks and len(arcs) == 1:
            return rules["evenorth.unitary" if {co.rank for co in arcs}
                         == {group.rank - 1} else "evenorth.mixed"]
        if sizes == [2] and len(arcs) <= 1:
            # swapped pair of equal blocks over the quadratic extension; the
            # matching class is central exactly when the pair fills the
            # rank, with no arc or torus beside it
            return rules["evenorth.mixed" if arcs or host.torus_rank
                         else "evenorth.fused"]
        if not arcs and len(blocks) == 1:
            return rules["evenorth.full" if shapes == {(group.rank, 1)}
                         else "evenorth.pair"]
        if not arcs and len(blocks) == 2:
            return rules["evenorth.pair.equal" if len(shapes) == 1
                         else "evenorth.pair"]

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
