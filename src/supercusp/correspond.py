"""Packet counting invariants and their identity suite.

Each case row is measured from both ends.  The parameter side counts the
orbit of the parameter under twisting characters and its cuspidal
enhancements; the parahoric side counts support classes and equal-degree
cuspidal classes.  The six invariants (a, b, a', b', g, g') tie the two
sides together, and every constructor here asserts the counting identities
on the spot.  Transfer along isogenies and equivariance under diagram
automorphisms are separate passes over the assembled reports.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from math import prod

# rows_for_host is not called here, but perfbench's tracer test reads it
# from this namespace to check that tracing restores it
from supercusp.casetable import resolve_named_subgroup, rows_for_host  # noqa: F401
from supercusp.exact import euler_phi
from supercusp.galois import cuspidal_support, hii_check, kac_rows, param_json
from supercusp.padic import (enumerate_inner_forms, formal_degree,
                             inner_forms_by_token, parahoric_classes)
from supercusp.rootdata import aut_on_omega, build_group, parse_type


REPORT_SCHEMA_VERSION = "1.0"


class CorrespondenceError(ValueError):
    """The two sides disagree about which case row is meant."""


# ---------------------------------------------------------------------------
# subgroup arithmetic inside the adjoint fundamental group
# ---------------------------------------------------------------------------


def _product_set(group, left, right):
    """The set product {x + y} of two subgroups, as a frozenset."""
    return frozenset(group.omega_add(x, y) for x in left for y in right)


def _quotient_invariants(group, big, small):
    """Invariant factors of big/small, from the image of big in the
    presented quotient Omega / <small>."""
    pres = group.rs.omega.quotient_presentation(small)
    return pres.group.subgroup_structure(
        [pres.project(list(x)) for x in big])


def _index(big, small, what):
    quo, rem = divmod(len(big), len(small))
    if rem:
        raise CorrespondenceError(f"{what}: {len(small)} does not divide "
                                  f"{len(big)}")
    return quo


# ---------------------------------------------------------------------------
# the invariants of one case row
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PacketInvariants:
    """The six counting invariants of one case row, with the two stabilizer
    groups recorded by their invariant factors."""

    a: int
    b: int
    a_prime: int
    b_prime: int
    g: int
    g_prime: int
    stabilizer_param: tuple   # dual of Omega^theta / (N cap Omega^theta)
    stabilizer_pair: tuple    # dual of Omega^theta / Omega^{theta,P}

    def __post_init__(self):
        if self.a * self.b != self.a_prime * self.b_prime:
            raise CorrespondenceError(
                f"count identity fails: {self.a}*{self.b} != "
                f"{self.a_prime}*{self.b_prime}")
        if prod(self.stabilizer_param) != \
                prod(self.stabilizer_pair) * self.g:
            raise CorrespondenceError("stabilizer index does not match g")


def _n_subgroup(group, row, stab_ad):
    """The row's parameter-moving subgroup, cut down to the stable part."""
    raw = resolve_named_subgroup(group, row.n_name)
    sub = frozenset(x for x in raw if x in group.omega_ad_theta_fixed())
    if not sub <= stab_ad:
        raise CorrespondenceError(
            f"subgroup {row.n_name!r} not contained in the support "
            "stabilizer")
    return sub


def _invariants(group, pc, n_sub, b, b_prime):
    """The invariants on the support class pc of a row with
    parameter-moving subgroup n_sub, enhancement count b and class size b':
    a is the twisting orbit of the parameter, a' the stabilizer order times
    the class-splitting count."""
    om_theta = frozenset(group.omega_theta_fixed())
    stab_g = frozenset(pc.stabilizer_G)
    fixed_part = n_sub & om_theta
    return PacketInvariants(
        a=len(fixed_part), b=b, a_prime=pc.g_prime * len(stab_g),
        b_prime=b_prime, g=_index(stab_g, fixed_part, "stabilizer index g"),
        g_prime=pc.g_prime,
        stabilizer_param=_quotient_invariants(group, om_theta, fixed_part),
        stabilizer_pair=_quotient_invariants(group, om_theta, stab_g))


def compute_invariants(group, pc, cls, row):
    """The six invariants of one case row: the support class pc, its
    equal-degree cuspidal class cls, and the case row built for that class
    (one (host, class, row) triple of galois.kac_rows).

    The a and b counts come from the parameter side (twisting orbit of the
    parameter, and the row's adjoint enhancement count b_ad carried to this
    level); a' and b' from the parahoric side (stabilizer orders,
    equal-degree class sizes).  The identity a*b = a'*b' is asserted on
    construction, not assumed.
    """
    stab_ad = frozenset(pc.stabilizer_ad)
    stab_g = frozenset(pc.stabilizer_G)
    n_sub = _n_subgroup(group, row, stab_ad)
    if not n_sub & frozenset(group.omega_theta_fixed()) <= stab_g:
        raise CorrespondenceError("parameter-moving subgroup escapes the "
                                  "support stabilizer")
    # the adjoint row's enhancement count scaled by the two subgroup
    # indices of the transfer lemma
    merged = _product_set(group, stab_g, n_sub)
    drop = _index(stab_ad, merged, "transfer index")
    b, rem = divmod(pc.g_prime * row.b_ad, drop)
    if rem:
        raise CorrespondenceError("enhancement count not integral")

    inv = _invariants(group, pc, n_sub, b, cls.size)
    if inv.b_prime != euler_phi(row.n_s):
        raise CorrespondenceError(
            f"class size {inv.b_prime} is not phi({row.n_s})")
    if inv.b != inv.g * inv.g_prime * euler_phi(row.n_s):
        raise CorrespondenceError("enhancement count breaks the product "
                                  "formula")
    return inv


# ---------------------------------------------------------------------------
# transfer along isogenies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransferData:
    """One row at one isogeny level, with the datum the transfer needs: the
    parameter-moving subgroup is isogeny-independent, so it rides along."""

    invariants: PacketInvariants
    n_subgroup: frozenset
    stabilizer: frozenset     # Omega^{theta,P} at this level


def transfer_data(group, pc, cls, row):
    """One case row's invariants with what isogeny_transfer needs."""
    return TransferData(compute_invariants(group, pc, cls, row),
                        _n_subgroup(group, row, frozenset(pc.stabilizer_ad)),
                        frozenset(pc.stabilizer_G))


def isogeny_transfer(base: TransferData, target, target_pc):
    """Invariants at the target isogeny, from a row at another level.

    Nothing about the target's case table is consulted: only its stabilizer
    data and the shared parameter-moving subgroup.  The target group must
    be an isogeny form of the same root datum on the same support class.
    """
    n_sub = base.n_subgroup
    if not n_sub <= frozenset(target_pc.stabilizer_ad):
        raise CorrespondenceError("parameter-moving subgroup not contained "
                                  "in the adjoint stabilizer")
    was = base.invariants
    merged_base = _product_set(target, base.stabilizer, n_sub)
    merged_here = _product_set(target, target_pc.stabilizer_G, n_sub)
    b, rem = divmod(was.b * target_pc.g_prime * len(merged_here),
                    was.g_prime * len(merged_base))
    if rem:
        raise CorrespondenceError("transferred count not integral")
    inv = _invariants(target, target_pc, n_sub, b, was.b_prime)

    # the double ratio: the products a'b' and ab move between the two
    # levels by the same factor, and that factor has a closed form
    ratio = Fraction(inv.a_prime * inv.b_prime, was.a_prime * was.b_prime)
    closed = Fraction(target_pc.g_prime * len(target_pc.stabilizer_G),
                      was.g_prime * len(base.stabilizer))
    if ratio != closed:
        raise CorrespondenceError("double ratio fails on the primed side")
    if ratio != Fraction(inv.a * inv.b, was.a * was.b):
        raise CorrespondenceError("double ratio fails on the plain side")
    return inv


def matched_class(group, form, support_class_associates):
    """The parahoric class of this group whose supports lie in the given
    association class of another isogeny level."""
    want = set(support_class_associates)
    hits = [pc for pc in parahoric_classes(group, form)
            if set(pc.associates) & want]
    if not hits:
        raise CorrespondenceError("no matching support class")
    return hits


# ---------------------------------------------------------------------------
# full reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PacketReport:
    """One representation's worth of bookkeeping: case row data, the six
    invariants, and the degree and gamma checks where available."""

    spec: str
    form_token: str
    support: tuple
    quotient: str
    class_id: str
    member_index: int
    pattern: str
    provenance: str
    n_s: int
    invariants: PacketInvariants
    orbit_count: int
    fdeg: object              # FormalDegree
    hii_status: str
    param: object             # UnramifiedParam
    tau_orbit: int | None = None


def reports_for_form(group, form):
    spec = f"{group.type_string()}:{group.isogeny}:{form.token}"
    out = []
    for host, cls, row, param in kac_rows(group, form):
        inv = compute_invariants(group, host, cls, row)
        orbit_count = inv.g_prime * euler_phi(row.n_s)
        fdeg = formal_degree(group, form, host, cls)
        supp = cuspidal_support(param, group)
        s_sharp = supp.s_sharp
        if s_sharp is None:
            s_sharp = param.centralizer.central_order
        if s_sharp is None or param.sl2_weights is None \
                or fdeg.value is None:
            hii_status = "unverifiable"
        else:
            hii_status = hii_check(fdeg, param, 1, s_sharp).status
        for member in range(cls.size):
            out.append(PacketReport(
                spec=spec, form_token=form.token,
                support=tuple(host.support),
                quotient=host.quotient_description(),
                class_id=cls.class_id, member_index=member,
                pattern=row.pattern, provenance=row.provenance,
                n_s=row.n_s, invariants=inv, orbit_count=orbit_count,
                fdeg=fdeg, hii_status=hii_status, param=param))
    return out


def full_report(spec):
    """All packet reports matching one TYPE:ISOGENY:TWIST string."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(
            f"spec {spec!r}: expected TYPE:ISOGENY:TWIST, "
            f"got {len(parts)} field(s)")
    type_str, iso, twist = parts
    try:
        fam, rank, order = parse_type(type_str)
    except ValueError as exc:
        raise ValueError(f"spec {spec!r}, field 1: {exc}") from exc
    if rank == 0:
        return []
    try:
        group = build_group(type_str, iso)
    except ValueError as exc:
        raise ValueError(f"spec {spec!r}, field 2: {exc}") from exc
    try:
        forms = inner_forms_by_token(group, twist)
    except ValueError as exc:
        raise ValueError(f"spec {spec!r}, field 3: {exc}") from exc
    out = []
    for form in forms:
        out.extend(reports_for_form(group, form))
    return out


# ---------------------------------------------------------------------------
# equivariance under diagram automorphisms
# ---------------------------------------------------------------------------


def _row_key(report):
    """Matching key for one report row under relabeling: everything a
    diagram automorphism must preserve except the support itself."""
    fd = report.fdeg.value
    deg = fd if fd is not None else report.class_id.rsplit(".", 1)[-1]
    return (report.pattern, report.n_s, report.invariants.b_prime, deg,
            report.member_index)


def equivariance_check(group, reports, tau):
    """Check that one diagram automorphism permutes the report rows without
    changing any numbers.

    Rows are matched by mapped form, mapped support class, and row key;
    the result records the orbit partition and any mismatches.  Nothing is
    thrown for a mismatch: broken rows are reported.
    """
    act = aut_on_omega(group, tau.as_dict())
    node_map = tau.affine_perm()
    forms = {f.token: f for f in enumerate_inner_forms(group)}
    token_of = {frozenset(f.cls): token for token, f in forms.items()}

    indexed = {}
    for i, rep in enumerate(reports):
        indexed.setdefault((rep.form_token, frozenset(rep.support),
                            _row_key(rep)), []).append(i)

    associates = {}
    for rep in reports:
        associates.setdefault(rep.form_token, {})
    for token in list(associates):
        for pc in parahoric_classes(group, forms[token]):
            for sup in pc.associates:
                associates[token][frozenset(sup)] = frozenset(pc.support)

    # per form with representative r: w = r + x - theta(x) -> -x
    omega = group.rs.omega
    conjugators = {token: {} for token in forms}
    for x in group.omega_elements():
        twist = omega.add(x, omega.neg(group.theta_on_omega(x)))
        for token, form in forms.items():
            conjugators[token].setdefault(omega.add(form.rep, twist),
                                          omega.neg(x))

    mismatches = []
    orbit_of = {}
    next_orbit = 0
    for i, rep in enumerate(reports):
        if i in orbit_of:
            continue
        orbit = []
        j, rj = i, rep
        seen = set()
        while j not in seen:
            seen.add(j)
            orbit.append(j)
            mapped_cls = frozenset(act(x) for x in forms[rj.form_token].cls)
            target_token = token_of.get(mapped_cls)
            if target_token is None:
                mismatches.append((j, "form image not found"))
                break
            # the image is stable under F_w for w the image of the source
            # representative; F_w = omega_x F_r omega_x^-1 for the target
            # representative r and any x with w = r + x - theta(x), so
            # omega_-x carries the image to a support of r
            shift = conjugators[target_token][act(forms[rj.form_token].rep)]
            mapped_sup = frozenset(group.omega_act_node(shift, node_map[n])
                                   for n in rj.support)
            canon = associates.get(target_token, {}).get(mapped_sup)
            if canon is None:
                mismatches.append((j, "support image not a class member"))
                break
            key = (target_token, canon, _row_key(rj))
            hits = indexed.get(key, [])
            if not hits:
                mismatches.append((j, "no matching row under the map"))
                break
            k = hits[0]
            if reports[k].invariants != rj.invariants:
                mismatches.append((j, "invariants differ across the map"))
            if rj.fdeg.value != reports[k].fdeg.value:
                mismatches.append((j, "formal degree differs across the map"))
            if k in seen:
                break
            j, rj = k, reports[k]
        for j in orbit:
            orbit_of[j] = next_orbit
        next_orbit += 1

    return {
        "consistent": not mismatches,
        "orbit_map": orbit_of,
        "orbit_count": next_orbit,
        "mismatches": mismatches,
    }


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


CSV_COLUMNS = ("spec", "form", "support", "quotient", "pattern",
               "provenance", "n_s", "a", "b", "a_prime", "b_prime", "g",
               "g_prime", "orbit_count", "class_id", "member", "fdeg",
               "hii", "tau_orbit")


def report_record(report):
    inv = report.invariants
    rec = {
        "spec": report.spec,
        "form": report.form_token,
        "support": list(report.support),
        "quotient": report.quotient,
        "pattern": report.pattern,
        "provenance": report.provenance,
        "n_s": report.n_s,
        "invariants": {
            "a": inv.a, "b": inv.b,
            "a_prime": inv.a_prime, "b_prime": inv.b_prime,
            "g": inv.g, "g_prime": inv.g_prime,
            "stabilizer_param": list(inv.stabilizer_param),
            "stabilizer_pair": list(inv.stabilizer_pair),
        },
        "orbit_count": report.orbit_count,
        "class_id": report.class_id,
        "member": report.member_index,
        "fdeg": None,
        "hii": report.hii_status,
        "parameter": param_json(report.param),
        "tau_orbit": report.tau_orbit,
    }
    if report.fdeg.value is not None:
        rec["fdeg"] = report.fdeg.value.to_ratfunc().to_json()
    return rec


def reports_json(reports):
    return {
        "schema": REPORT_SCHEMA_VERSION,
        "rows": [report_record(r) for r in reports],
    }


def reports_csv(reports):
    """One CSV line per report, each field read from its JSON record (the
    invariants flattened, None written as an empty field)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in reports:
        rec = report_record(r)
        rec.update(rec.pop("invariants"))
        rec["support"] = " ".join(str(n) for n in rec["support"])
        rec["fdeg"] = json.dumps(rec["fdeg"]) if rec["fdeg"] else None
        writer.writerow([rec[c] for c in CSV_COLUMNS])
    return buf.getvalue()
