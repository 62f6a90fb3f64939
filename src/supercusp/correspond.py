"""Packet counting invariants and their identity suite.

Each case row is measured from both ends.  The parameter side counts the
orbit of the parameter under twisting characters and its cuspidal
enhancements; the parahoric side counts support classes and equal-degree
cuspidal classes.  The six invariants (a, b, a', b', g, g') tie the two
sides together, and every constructor here asserts the counting identities
on the spot.  The transfer lemma along isogenies is applied to every row,
inside compute_invariants.  Equivariance under diagram automorphisms is a
separate pass over the assembled reports, which keys each row by the
Omega_ad-orbit of its (form representative, support): one orbit is one
inner form with one support class, so an automorphism acting on the group
moves rows by moving orbits.
"""

from __future__ import annotations

import json
from math import prod
from typing import NamedTuple

# rows_for_host is not called here, but perfbench's tracer test reads it
# from this namespace to check that tracing restores it
from supercusp.casetable import resolve_named_subgroup, rows_for_host  # noqa: F401
from supercusp.exact import CyclotomicProduct, Frozen, euler_phi
from supercusp.galois import hii_check, kac_rows, param_json
from supercusp.padic import (enumerate_inner_forms, formal_degree,
                             inner_forms_by_token, maximal_supports)
from supercusp.rootdata import parse_spec


REPORT_SCHEMA_VERSION = "1.0"


class CorrespondenceError(ValueError):
    """The two sides disagree about which case row is meant."""


# ---------------------------------------------------------------------------
# the invariants of one case row
# ---------------------------------------------------------------------------


class PacketInvariants(Frozen):
    """The six counting invariants of one case row, with the two stabilizer
    groups recorded by their invariant factors: stabilizer_param is the
    dual of Omega^theta / (N cap Omega^theta), stabilizer_pair the dual of
    Omega^theta / Omega^{theta,P}."""

    __slots__ = ("a", "b", "a_prime", "b_prime", "g", "g_prime",
                 "stabilizer_param", "stabilizer_pair")

    def __init__(self, a, b, a_prime, b_prime, g, g_prime, stabilizer_param,
                 stabilizer_pair):
        if a * b != a_prime * b_prime:
            raise CorrespondenceError(
                f"count identity fails: {a}*{b} != {a_prime}*{b_prime}")
        if prod(stabilizer_param) != prod(stabilizer_pair) * g:
            raise CorrespondenceError("stabilizer index does not match g")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "a_prime", a_prime)
        object.__setattr__(self, "b_prime", b_prime)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "g_prime", g_prime)
        object.__setattr__(self, "stabilizer_param", stabilizer_param)
        object.__setattr__(self, "stabilizer_pair", stabilizer_pair)


def _index(big, small, what):
    quo, rem = divmod(len(big), len(small))
    if rem:
        raise CorrespondenceError(f"{what}: {len(small)} does not divide "
                                  f"{len(big)}")
    return quo


def compute_invariants(group, pc, cls, row):
    """The six invariants of one case row: the support class pc, its
    equal-degree cuspidal class cls, and the case row built for that class
    (one (host, class, row) triple of galois.kac_rows).

    The a and b counts come from the parameter side (a is the twisting
    orbit of the parameter, b the row's adjoint enhancement count b_ad
    carried to this level by the transfer lemma); a' and b' from the
    parahoric side (a' the stabilizer order times the class-splitting
    count, b' the equal-degree class size).  The identity a*b = a'*b' is
    asserted on construction, not assumed.
    """
    stab_ad, stab_g = pc.stabilizer_ad, pc.stabilizer_G
    om_theta = group.omega_G_theta
    # the row's parameter-moving subgroup, cut down to the stable part
    n_sub = resolve_named_subgroup(group, row.n_name) & group.omega_ad_theta
    if not n_sub <= stab_ad:
        raise CorrespondenceError(
            f"subgroup {row.n_name!r} not contained in the support "
            "stabilizer")
    fixed_part = n_sub & om_theta
    if not fixed_part <= stab_g:
        raise CorrespondenceError("parameter-moving subgroup escapes the "
                                  "support stabilizer")
    # the adjoint row's enhancement count scaled by the two subgroup
    # indices of the transfer lemma; the set product of the two subgroups
    # is the subgroup their union generates
    merged = group.rs.omega.subgroup_generated(stab_g | n_sub)
    drop = _index(stab_ad, merged, "transfer index")
    b, rem = divmod(pc.g_prime * row.b_ad, drop)
    if rem:
        raise CorrespondenceError("enhancement count not integral")

    inv = PacketInvariants(
        a=len(fixed_part), b=b, a_prime=pc.g_prime * len(stab_g),
        b_prime=cls.size, g=_index(stab_g, fixed_part, "stabilizer index g"),
        g_prime=pc.g_prime,
        stabilizer_param=group.rs.quotient_invariants(om_theta, fixed_part),
        stabilizer_pair=group.rs.quotient_invariants(om_theta, stab_g))
    if inv.b_prime != euler_phi(row.n_s):
        raise CorrespondenceError(
            f"class size {inv.b_prime} is not phi({row.n_s})")
    if inv.b != inv.g * inv.g_prime * euler_phi(row.n_s):
        raise CorrespondenceError("enhancement count breaks the product "
                                  "formula")
    return inv


# ---------------------------------------------------------------------------
# full reports
# ---------------------------------------------------------------------------


class PacketReport(NamedTuple):
    """One representation's worth of bookkeeping: the support class, the
    cuspidal class and the case row it was read from (one (host, cls, row)
    triple of galois.kac_rows), the six invariants, and the degree and
    gamma checks where available.  The support, quotient, class id,
    pattern, provenance and n_s a record prints are read through those
    three."""

    spec: str
    form_token: str
    host: object              # padic.ParahoricClass
    cls: object               # padic.CuspidalClass
    row: object               # casetable.CaseEntry
    member_index: int
    invariants: PacketInvariants
    fdeg: CyclotomicProduct | None
    hii_status: str
    param: object             # UnramifiedParam


def reports_for_form(group, form):
    spec = group.spec_string(form.token)
    out = []
    for host, cls, row, param in kac_rows(group, form):
        inv = compute_invariants(group, host, cls, row)
        fdeg = formal_degree(group, form, host, cls)
        # |S#|: the parameter's centralizer in the dual of G itself for a
        # division algebra, else the torsion centralizer's central order
        s_sharp = len(group.omega_G) if row.pattern == "lin.anisotropic" \
            else param.central_order
        hii_status = hii_check(fdeg, param, 1, s_sharp).status
        for member in range(cls.size):
            out.append(PacketReport(
                spec=spec, form_token=form.token, host=host, cls=cls,
                row=row, member_index=member, invariants=inv, fdeg=fdeg,
                hii_status=hii_status, param=param))
    return out


def full_report(spec):
    """All packet reports matching one TYPE:ISOGENY:TWIST string."""
    group, twist = parse_spec(spec)
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
    deg = report.fdeg if report.fdeg is not None else \
        report.cls.class_id.rsplit(".", 1)[-1]
    return (report.row.pattern, report.row.n_s, report.invariants.b_prime,
            deg, report.member_index)


def _class_key(group, w, J):
    """The least point of the Omega_ad-orbit of (w, J), a form
    representative and a support of it, under x.(w, J) = (w + x -
    theta(x), omega_x(J)): one orbit is one (inner form, support class)."""
    omega = group.rs.omega
    return min((omega.add(w, omega.add(x, omega.neg(group.theta_omega[x]))),
                tuple(sorted(group.rs.omega_action[x][n] for n in J)))
               for x in omega.elements())


def equivariance_check(group, reports, perm):
    """Check that a diagram automorphism, a tuple of node images in
    group.rs.diagram_autos, permutes the report rows without changing any
    numbers.  ValueError unless perm is one, commutes with the Frobenius
    and keeps Omega_G, that is, acts on the group.

    Each row must sit on a maximal stable support J of its form, whose
    representative is w; it is keyed by _class_key(w, J) and its row key.
    Conjugation by perm (on Omega, rs.aut_on_omega) takes F_w to
    F_perm(w), so the row's image is the orbit of (perm(w), perm(J)): it
    must be a distinct row with the same invariants and formal degree.
    Nothing is thrown for a mismatch: the result lists the broken rows."""
    rs, theta = group.rs, group.theta
    if perm not in rs.diagram_autos:
        raise ValueError(f"{perm} is no diagram automorphism of "
                         f"{rs.family}{rs.rank}")
    if any(perm[t] != theta[p] for t, p in zip(theta, perm)):
        raise ValueError(f"{perm} does not commute with the Frobenius")
    act = rs.aut_on_omega(perm)
    if any(act[x] not in group.omega_G for x in group.omega_G):
        raise ValueError(f"{perm} does not stabilize the isogeny")
    forms = {f.token: f for f in enumerate_inner_forms(group)}

    indexed, mismatches, images = {}, [], set()
    for i, rep in enumerate(reports):
        key = _class_key(group, forms[rep.form_token].rep, rep.host.support)
        indexed.setdefault((key, _row_key(rep)), []).append(i)
    for j, rj in enumerate(reports):
        form, support = forms[rj.form_token], rj.host.support
        if support not in maximal_supports(form.frobenius):
            mismatches.append((j, "support not maximal stable in its form"))
            continue
        image = _class_key(group, act[form.rep], [perm[n] for n in support])
        hits = indexed.get((image, _row_key(rj)), [])
        if not hits:
            mismatches.append((j, "no matching row under the map"))
            continue
        k = hits[0]
        if k in images:
            mismatches.append((j, "two rows map to one"))
        images.add(k)
        if reports[k].invariants != rj.invariants:
            mismatches.append((j, "invariants differ across the map"))
        if rj.fdeg != reports[k].fdeg:
            mismatches.append((j, "formal degree differs across the map"))

    return {"consistent": not mismatches, "mismatches": mismatches}


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


CSV_COLUMNS = ("spec", "form", "support", "quotient", "pattern",
               "provenance", "n_s", "a", "b", "a_prime", "b_prime", "g",
               "g_prime", "orbit_count", "class_id", "member", "fdeg",
               "hii", "tau_orbit")


def report_record(report):
    inv, host, row = report.invariants, report.host, report.row
    return {
        "spec": report.spec,
        "form": report.form_token,
        "support": list(host.support),
        "quotient": host.quotient_description(),
        "pattern": row.pattern,
        "provenance": row.provenance,
        "n_s": row.n_s,
        "invariants": {
            "a": inv.a, "b": inv.b,
            "a_prime": inv.a_prime, "b_prime": inv.b_prime,
            "g": inv.g, "g_prime": inv.g_prime,
            "stabilizer_param": list(inv.stabilizer_param),
            "stabilizer_pair": list(inv.stabilizer_pair),
        },
        "orbit_count": inv.g_prime * euler_phi(row.n_s),
        "class_id": report.cls.class_id,
        "member": report.member_index,
        "fdeg": report.fdeg.to_json() if report.fdeg is not None else None,
        "hii": report.hii_status,
        "parameter": param_json(report.param, row, report.cls),
        # never computed; the column stays until the next schema version
        "tau_orbit": None,
    }


def reports_json(reports):
    return {
        "schema": REPORT_SCHEMA_VERSION,
        "rows": [report_record(r) for r in reports],
    }


def reports_csv(reports):
    """One CSV line per report, each field read from its JSON record (the
    invariants flattened, None written as an empty field)."""
    # only the CLI's --format csv needs these: the report path loads neither
    import csv
    import io

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
