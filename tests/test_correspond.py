"""Isogeny compatibility of the counting invariants, and the report formats.

The transfer lemma: a case row's invariants at any isogeny follow from the
adjoint row and the target's stabilizer data alone, so isogeny_transfer of
the adjoint row must equal the invariants computed directly at the target.
The transfer oracle (TransferData, transfer_data, isogeny_transfer,
matched_class) lives here, as the tests' reference.  It starts from the
adjoint row's invariants and builds the target's PacketInvariants with its
own arithmetic (set products of subgroups, the double ratio), none of it
shared with compute_invariants, which it checks at the target.
The CSV and JSON serializations must carry the same values."""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import prod

import pytest

from supercusp import rootdata
from supercusp.casetable import resolve_named_subgroup
from supercusp.correspond import (CSV_COLUMNS, CorrespondenceError,
                                  PacketInvariants, compute_invariants,
                                  full_report, reports_csv, reports_for_form,
                                  reports_json)
from supercusp.galois import dual_type, kac_rows
from supercusp.padic import enumerate_inner_forms, parahoric_classes
from supercusp.rootdata import (MAX_RANK, SimpleGroup, build_group,
                                parse_type, root_system)

from test_casetable import PHI
from typespace import groups, isogenies, types


# ---------------------------------------------------------------------------
# the transfer oracle
# ---------------------------------------------------------------------------


def _product_set(group, left, right):
    """The set product {x + y} of two subgroups, as a frozenset."""
    return frozenset(group.rs.omega.add(x, y) for x in left for y in right)


def _oracle_invariants(group, pc, n_sub, b, b_prime):
    """The invariants on the support class pc of a row with
    parameter-moving subgroup n_sub, enhancement count b and class size b':
    a is the twisting orbit of the parameter, a' the stabilizer order times
    the class-splitting count."""
    om_theta = group.omega_G_theta
    stab_g = pc.stabilizer_G
    fixed_part = n_sub & om_theta
    g, rem = divmod(len(stab_g), len(fixed_part))
    if rem:
        raise CorrespondenceError("stabilizer index g not integral")
    return PacketInvariants(
        a=len(fixed_part), b=b, a_prime=pc.g_prime * len(stab_g),
        b_prime=b_prime, g=g, g_prime=pc.g_prime,
        stabilizer_param=group.rs.quotient_invariants(om_theta, fixed_part),
        stabilizer_pair=group.rs.quotient_invariants(om_theta, stab_g))


@dataclass(frozen=True)
class TransferData:
    """One row at one isogeny level, with the datum the transfer needs: the
    parameter-moving subgroup is isogeny-independent, so it rides along."""

    invariants: PacketInvariants
    n_subgroup: frozenset
    stabilizer: frozenset     # Omega^{theta,P} at this level


def transfer_data(group, pc, cls, row):
    """One case row's invariants with what isogeny_transfer needs."""
    n_sub = resolve_named_subgroup(group, row.n_name) & group.omega_ad_theta
    return TransferData(compute_invariants(group, pc, cls, row), n_sub,
                        pc.stabilizer_G)


def isogeny_transfer(base: TransferData, target, target_pc):
    """Invariants at the target isogeny, from a row at another level.

    Nothing about the target's case table is consulted: only its stabilizer
    data and the shared parameter-moving subgroup.  The target group must
    be an isogeny form of the same root datum on the same support class.
    """
    n_sub = base.n_subgroup
    if not n_sub <= target_pc.stabilizer_ad:
        raise CorrespondenceError("parameter-moving subgroup not contained "
                                  "in the adjoint stabilizer")
    was = base.invariants
    merged_base = _product_set(target, base.stabilizer, n_sub)
    merged_here = _product_set(target, target_pc.stabilizer_G, n_sub)
    b, rem = divmod(was.b * target_pc.g_prime * len(merged_here),
                    was.g_prime * len(merged_base))
    if rem:
        raise CorrespondenceError("transferred count not integral")
    inv = _oracle_invariants(target, target_pc, n_sub, b, was.b_prime)

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
    """The parahoric classes of this group whose supports lie in the given
    association class of another isogeny level."""
    want = set(support_class_associates)
    hits = [pc for pc in parahoric_classes(group, form)
            if set(pc.associates) & want]
    if not hits:
        raise CorrespondenceError("no matching support class")
    return hits


class TestIsogenyTransfer:
    def test_transfer_equals_direct_invariants(self):
        pairs = 0
        # every non-adjoint isogeny of every catalogue type up to rank 8
        for group in groups(8):
            if group.isogeny == "adjoint":
                continue
            adjoint = SimpleGroup(group.family, group.rank, group.twist_order)
            for form in enumerate_inner_forms(adjoint):
                reached = []
                for host, cls, row, _ in kac_rows(adjoint, form):
                    base = transfer_data(adjoint, host, cls, row)
                    for pc in matched_class(group, form, host.associates):
                        direct = compute_invariants(group, pc, cls, row)
                        assert isogeny_transfer(base, group, pc) == direct, \
                            (group.spec_string(form.token), pc.support,
                             cls.class_id)
                        reached.append((pc.support, cls.class_id, row))
                        pairs += 1
                # the adjoint rows, folded onto this level, are exactly the
                # level's own rows
                own = [(h.support, c.class_id, r)
                       for h, c, r, _ in kac_rows(group, form)]
                assert sorted(reached, key=str) == sorted(own, key=str)
        assert pairs == 122


def _csv_value(rec, column):
    """The CSV text of one column, derived from the JSON record."""
    inv = rec["invariants"]
    if column in inv:
        return str(inv[column])
    value = rec[column]
    if column == "support":
        return " ".join(str(n) for n in value)
    if column == "fdeg":
        return json.dumps(value) if value else ""
    if value is None:
        return ""
    return str(value)


class TestSerialization:
    @pytest.mark.parametrize("spec", ["A2:adjoint:an", "G2:adjoint:*",
                                      "B3:sc:*", "2A5:adjoint:*",
                                      "D4:so:*", "E6:adjoint:*"])
    def test_csv_and_json_agree(self, spec):
        reports = full_report(spec)
        doc = reports_json(reports)
        assert json.loads(json.dumps(doc, sort_keys=True)) == doc
        text = reports_csv(reports)
        # strict parsing: every quote in a field must be doubled
        list(csv.reader(io.StringIO(text), strict=True))
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == len(doc["rows"])
        for got, rec in zip(rows, doc["rows"]):
            assert list(got) == list(CSV_COLUMNS)
            assert None not in got
            for column in CSV_COLUMNS:
                assert got[column] == _csv_value(rec, column), column

    def test_formal_degree_survives_csv(self):
        reports = full_report("A2:adjoint:an")
        assert reports[0].fdeg is not None
        (row,) = csv.DictReader(io.StringIO(reports_csv(reports)))
        assert json.loads(row["fdeg"]) == \
            reports_json(reports)["rows"][0]["fdeg"]

    def test_orbit_count_and_tau_orbit_over_the_catalogue(self):
        # both columns are written at serialization, not stored on the
        # report: orbit_count is g' phi(n_s), tau_orbit is never computed
        specs = [g.spec_string("*") for g in groups(12)]
        assert len(specs) == 192
        seen = 0
        for spec in specs:
            for rec in reports_json(full_report(spec))["rows"]:
                assert rec["orbit_count"] == \
                    rec["invariants"]["g_prime"] * PHI[rec["n_s"]], spec
                assert rec["tau_orbit"] is None, spec
                seen += 1
        assert seen == 369


def every_form_spec():
    """TYPE:ISOGENY:TOKEN for every type the parser accepts up to MAX_RANK,
    every isogeny the Frobenius keeps and every inner form."""
    return [g.spec_string(f.token) for g in groups(MAX_RANK)
            for f in enumerate_inner_forms(g)]


# a known finding, kept visible: _classify_classical sends the 2D15 w1
# support 2A14xT1, which has no orthogonal block, to twistorth.pair
_TWISTORTH_FINDING = pytest.mark.xfail(
    strict=True, raises=CorrespondenceError,
    reason="twistorth.pair on the 2D15 w1 support 2A14xT1: its eta is not "
           "in that support's stabilizer {0}")
_FINDING_SPECS = {"2D15:sc:w1", "2D15:so:w1", "2D15:adjoint:w1"}


class TestEveryForm:
    @pytest.mark.parametrize("spec", [
        pytest.param(spec, marks=_TWISTORTH_FINDING if spec in _FINDING_SPECS
                     else ())
        for spec in every_form_spec()])
    def test_every_form_reports(self, spec):
        # every inner form of every Frobenius-stable isogeny of every type
        # up to MAX_RANK builds its report and serializes it
        reports = full_report(spec)
        token = spec.rsplit(":", 1)[1]
        assert all(r.form_token == token for r in reports)
        assert len(reports_json(reports)["rows"]) == len(reports)
        assert reports_csv(reports).count("\n") == len(reports) + 1

    def test_the_sweep_covers_every_form(self):
        specs = every_form_spec()
        assert len(specs) == len(set(specs)) == 1537
        assert _FINDING_SPECS <= set(specs)


# ---------------------------------------------------------------------------
# the weakly unramified characters on the dual side
# ---------------------------------------------------------------------------


class TestDualStabilizer:
    """For a split adjoint G the dual group is simply connected, and its
    centre, the Omega of the dual type, moves the parameter's torsion point
    as it moves the dual alcove (rootdata's omega_action).  So on a line
    whose case row records the cut node v, the stabilizer of v in the dual
    Omega has the order of the parameter's stabilizer, stabilizer_param:
    the paper's equivariance under the weakly unramified characters, seen
    from both sides."""

    def test_cut_node_stabilizer_is_stabilizer_param(self):
        census = Counter()
        for g in [SimpleGroup(*key) for key in types(12) if key[2] == 1]:
            dual = root_system(*dual_type(g)[:2])
            for r in full_report(g.spec_string("*")):
                v = r.row.cut_node
                if v is None:
                    continue
                stab = [x for x, act in dual.omega_action.items()
                        if act[v] == v]
                assert len(stab) == prod(r.invariants.stabilizer_param), \
                    (g.type_string(), r.form_token, r.host.support, v)
                census[r.row.pattern] += 1
        assert census == {
            "lin.anisotropic": 59, "exc.E8": 13, "exc.F4": 7,
            "oddorth.pair": 7, "exc.G2": 4, "symp.equal": 4, "oddorth.s0": 3,
            "E7.fusedE6": 3, "evenorth.fused": 2, "exc.E6": 2,
            "E6.triality": 2, "exc.E7": 2, "evenorth.pair.equal": 1}
        assert sum(census.values()) == 109


# ---------------------------------------------------------------------------
# low-rank isomorphisms: one group under two names
# ---------------------------------------------------------------------------


def _allow_2d3(monkeypatch):
    """Let 2D3, which the grammar refuses in favour of 2A3, be built: its
    standard Frobenius swaps nodes 2 and 3, as n - 1 <-> n on every D_n.
    Every other type keeps its own."""
    real = rootdata.standard_frobenius_perm

    def standard_frobenius_perm(family, rank, order):
        if (family, rank, order) == ("D", 3, 2):
            return (0, 1, 3, 2)
        return real(family, rank, order)

    monkeypatch.setattr(rootdata, "standard_frobenius_perm",
                        standard_frobenius_perm)


def _node_map(x, y):
    """A bijection of the affine nodes of the groups x and y, node 0 to
    node 0, carrying x's affine Cartan matrix onto y's and x's Frobenius
    onto y's."""
    A, B = x.rs.affine_cartan, y.rs.affine_cartan
    n = len(A)
    for rest in permutations(range(1, n)):
        phi = (0, *rest)
        if all(B[phi[i]][phi[j]] == A[i][j] for i in range(n)
               for j in range(n)) and \
                all(phi[x.theta[i]] == y.theta[phi[i]] for i in range(n)):
            return phi
    raise AssertionError(f"{x.type_string()} is not {y.type_string()}")


def _omega_map(x, y, phi):
    """x's Omega_ad onto y's through the node map: an element is named by
    the special node that it moves node 0 to."""
    label = {act[0]: e for e, act in y.rs.omega_action.items()}
    return {e: label[phi[act[0]]] for e, act in x.rs.omega_action.items()}


def _lines(group, form_name, node_name):
    """(form, support, n_s, invariants, fdeg, hii) per report line of every
    inner form, the form and the support's nodes renamed, sorted."""
    return sorted(((form_name(f), tuple(sorted(map(node_name,
                                                   r.host.support))),
                    r.row.n_s, r.invariants, r.fdeg, r.hii_status)
                   for f in enumerate_inner_forms(group)
                   for r in reports_for_form(group, f)), key=repr)


# (type, isogeny) under both names, on every Frobenius-stable isogeny
_ISOMORPHIC = [
    ("B2", "sc", "C2", "sc"), ("B2", "adjoint", "C2", "adjoint"),
    ("A3", "sc", "D3", "sc"), ("A3", "d2", "D3", "so"),
    ("A3", "adjoint", "D3", "adjoint"),
    ("2A3", "sc", "2D3", "sc"), ("2A3", "d2", "2D3", "so"),
    ("2A3", "adjoint", "2D3", "adjoint")]

# the pairs that differ: each is a known finding, kept visible
_SYMP_PAIR_FINDING = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="the C2 symp.pair row records no cut node, so its line is "
           "unverifiable where the B2 oddorth.s0 line holds")
_TWISTORTH_RANK3 = pytest.mark.xfail(
    strict=True, raises=CorrespondenceError,
    reason="twistorth.pair on the 2D3 w1 support 2A2xT1, as on 2D15 w1: "
           "its eta is not in that support's stabilizer, where 2A3 gives "
           "one unit.single line")


class TestLowRankIsomorphisms:
    """B2 = C2, A3 = D3 and 2A3 = 2D3: one group under two names must give
    the same report lines through the node map of the isomorphism.  The
    names go through different classifier branches and case rows, so this
    oracle is independent of both."""

    @pytest.mark.parametrize("x_type, x_iso, y_type, y_iso", [
        pytest.param(*pair, marks={"B2": _SYMP_PAIR_FINDING,
                                   "2A3": _TWISTORTH_RANK3}.get(pair[0], ()),
                     id="{}:{}={}:{}".format(*pair))
        for pair in _ISOMORPHIC])
    def test_both_names_give_the_same_lines(self, x_type, x_iso, y_type,
                                            y_iso, monkeypatch):
        _allow_2d3(monkeypatch)
        x, y = build_group(x_type, x_iso), build_group(y_type, y_iso)
        phi = _node_map(x, y)
        omap = _omega_map(x, y, phi)
        assert {omap[e] for e in x.omega_G} == y.omega_G
        y_forms = enumerate_inner_forms(y)

        def y_token(form):
            (image,) = [f for f in y_forms if omap[form.rep] in f.cls]
            return image.token

        got = _lines(x, y_token, phi.__getitem__)
        want = _lines(y, lambda f: f.token, lambda n: n)
        assert got  # every pair has a line to compare
        if got != want:
            raise AssertionError(f"{x.spec_string('*')} and "
                                 f"{y.spec_string('*')} differ:\n{got}\n"
                                 f"{want}")

    def test_every_isogeny_is_paired(self, monkeypatch):
        _allow_2d3(monkeypatch)
        for side in (0, 2):
            for type_str in dict.fromkeys(p[side] for p in _ISOMORPHIC):
                isos = [g.isogeny for g in isogenies(parse_type(type_str))]
                assert isos == [p[side + 1] for p in _ISOMORPHIC
                                if p[side] == type_str], type_str
