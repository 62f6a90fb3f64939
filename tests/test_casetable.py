"""Case table: catalogue-wide counting identities and structural anchors.

Every hosting support of every inner form (classical ranks up to 12, all
exceptional types) must classify to a row, and each row must close the
packet-count identity a*b = a'*b' at the adjoint level, with b' equal to
the equal-degree class size and the descent subgroup inside the support
stabilizer.  Up to MAX_RANK the rows are pinned by their census per pattern
and a digest, and a support outside every rule raises the one refusal.
"""

import hashlib
import sys

import pytest

from supercusp.casetable import (
    _CLASSICAL_RULES,
    _EXCEPTIONAL_ROWS,
    CaseTableError,
    resolve_named_subgroup,
    rows_for_host,
)
from supercusp.correspond import full_report
from supercusp.padic import (ComponentOrbit, enumerate_inner_forms,
                             inner_forms_by_token, parahoric_classes,
                             supports_with_cuspidals)
from supercusp.rootdata import MAX_RANK, SimpleGroup, parse_spec, root_system
from typespace import groups, type_id, types

PHI = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2}


def iter_rows():
    for key in types(12):
        G = SimpleGroup(*key)
        for form in enumerate_inner_forms(G):
            for host, classes in supports_with_cuspidals(G, form):
                rows = rows_for_host(G, host, classes)
                for row, cls in zip(rows, classes):
                    yield G, form, host, row, cls


def every_form_row():
    """(spec, support, row) for every case row of every inner form of every
    Frobenius-stable isogeny of every type up to MAX_RANK."""
    for G in groups(MAX_RANK):
        for form in enumerate_inner_forms(G):
            spec = G.spec_string(form.token)
            for host, classes in supports_with_cuspidals(G, form):
                for row in rows_for_host(G, host, classes):
                    yield spec, host.support, row


class TestCountingIdentities:
    def test_every_host_classifies(self):
        seen = 0
        for key in types(12):
            G = SimpleGroup(*key)
            for form in enumerate_inner_forms(G):
                for host, classes in supports_with_cuspidals(G, form):
                    rows = rows_for_host(G, host, classes)
                    assert len(rows) == len(classes)
                    seen += len(rows)
        assert seen == 137

    def test_class_size_matches_torsion(self):
        for G, form, host, row, cls in iter_rows():
            assert cls.size == PHI[row.n_s], (G.type_string(), row.pattern)

    def test_descent_subgroup_inside_stabilizer(self):
        for G, form, host, row, cls in iter_rows():
            N = resolve_named_subgroup(G, row.n_name)
            assert N <= frozenset(host.stabilizer_ad), \
                (G.type_string(), form.token, row.pattern)

    def test_packet_count_identity(self):
        # a = |N meet Omega^theta| against a' = g' * |stabilizer|, b' = class size
        for G, form, host, row, cls in iter_rows():
            omega_theta = G.omega_ad_theta
            N = resolve_named_subgroup(G, row.n_name)
            a = len(N & omega_theta)
            a_prime = host.g_prime * len(host.stabilizer_ad)
            assert a * row.b_ad == a_prime * cls.size, \
                (G.type_string(), form.token, host.support, row.pattern)


class TestReachability:
    def test_pattern_census(self):
        census = {}
        for G, form, host, row, cls in iter_rows():
            census[row.pattern] = census.get(row.pattern, 0) + 1
        assert census == {
            "lin.anisotropic": 59,
            "unit.single": 6,
            "unit.pair": 2,
            "unit.equal": 2,
            "oddorth.s0": 3,
            "oddorth.pair": 7,
            "symp.pair": 4,
            "symp.equal": 4,
            "symp.mixed": 6,
            "evenorth.full": 1,
            "evenorth.pair": 1,
            "evenorth.pair.equal": 1,
            "evenorth.fused": 2,
            "evenorth.mixed": 2,
            "evenorth.unitary": 4,
            "twistorth.full": 1,
            "twistorth.pair": 5,
            "exc.G2": 3,
            "exc.F4": 5,
            "exc.E6": 1,
            "exc.2E6": 2,
            "exc.E7": 1,
            "exc.E8": 7,
            "exc.3D4": 2,
            "E6.triality": 4,
            "E7.fusedE6": 2,
        }
        # every parametric rule is reached somewhere in the catalogue
        assert set(_CLASSICAL_RULES) <= set(census)

    def test_pattern_census_up_to_max_rank(self):
        # every (type up to MAX_RANK, Frobenius-stable isogeny, inner form),
        # past the catalogue's rank 12
        census = {}
        for spec, support, row in every_form_row():
            census[row.pattern] = census.get(row.pattern, 0) + 1
        assert {p: n for p, n in census.items() if p in _CLASSICAL_RULES} == {
            "lin.anisotropic": 460,
            "unit.single": 30,
            "unit.pair": 20,
            "unit.equal": 16,
            "oddorth.pair": 24,
            "oddorth.s0": 8,
            "symp.mixed": 24,
            "symp.pair": 14,
            "symp.equal": 8,
            "evenorth.mixed": 38,
            "evenorth.unitary": 20,
            "evenorth.full": 10,
            "evenorth.fused": 10,
            "evenorth.pair": 10,
            "evenorth.pair.equal": 10,
            "twistorth.pair": 27,
            "twistorth.full": 3,
        }
        assert sum(n for p, n in census.items()
                   if p not in _CLASSICAL_RULES) == 39
        assert sum(census.values()) == 771

    def test_rows_up_to_max_rank_are_pinned(self):
        # the row of each support, not only the count per pattern
        lines = sorted(f"{spec} {support} {row.pattern} {row.cut_node} "
                       f"{row.n_s}" for spec, support, row in every_form_row())
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == \
            "0d85114235a01a1ac7cfed26054aaf704b3d7809105f053ca79026da7f61b8a5"


def _rows_of(fam, rank, tw, token):
    G = SimpleGroup(fam, rank, tw, "adjoint")
    out = []
    for form in enumerate_inner_forms(G):
        if form.token != token:
            continue
        for host, classes in supports_with_cuspidals(G, form):
            rows = rows_for_host(G, host, classes)
            for row in rows:
                out.append((host, row))
    return out


class TestAnchors:
    def test_anisotropic_linear(self):
        rows = _rows_of("A", 3, 1, "w1")
        assert len(rows) == 1
        host, row = rows[0]
        assert host.support == ()
        assert (row.pattern, row.n_s, row.b_ad, row.n_name) == \
            ("lin.anisotropic", 1, 1, "full")

    def test_rank3_orthogonal_coincidence(self):
        # the rank 3 even orthogonal group is anisotropic in its quaternionic
        # forms, exactly like the rank 3 linear case
        rows = _rows_of("D", 3, 1, "w1")
        assert len(rows) == 1
        assert rows[0][1].pattern == "lin.anisotropic"

    def test_even_orthogonal_fused_pair(self):
        # rank 8, swapped pair of rank 4 blocks over the quadratic extension:
        # central matching class, full descent subgroup
        rows = _rows_of("D", 8, 1, "w1")
        fused = [r for h, r in rows if r.pattern == "evenorth.fused"]
        assert len(fused) == 1
        assert (fused[0].n_s, fused[0].b_ad, fused[0].n_name) == (1, 1, "full")

    def test_even_orthogonal_small_arc(self):
        rows = _rows_of("D", 5, 1, "w1")
        mixed = [r for h, r in rows if r.pattern == "evenorth.mixed"]
        assert len(mixed) == 1
        assert (mixed[0].n_s, mixed[0].b_ad, mixed[0].n_name) == (2, 2, "eta")

    def test_even_orthogonal_equal_blocks(self):
        rows = _rows_of("D", 8, 1, "1")
        eq = [r for h, r in rows if r.pattern == "evenorth.pair.equal"]
        assert len(eq) == 1
        assert (eq[0].n_s, eq[0].b_ad, eq[0].n_name) == (1, 1, "full")

    def test_even_orthogonal_big_arc(self):
        rows = _rows_of("D", 10, 1, "w1")
        uni = [r for h, r in rows if r.pattern == "evenorth.unitary"]
        assert len(uni) == 1
        assert (uni[0].n_s, uni[0].b_ad, uni[0].n_name) == (2, 2, "1")

    def test_twisted_orthogonal_full(self):
        rows = _rows_of("D", 9, 2, "1")
        full = [r for h, r in rows if r.pattern == "twistorth.full"]
        assert len(full) == 1
        assert (full[0].n_s, full[0].b_ad, full[0].n_name) == (2, 1, "1")

    def test_twisted_orthogonal_fused_blocks(self):
        rows = _rows_of("D", 9, 2, "w1")
        pair = [r for h, r in rows if r.pattern == "twistorth.pair"]
        assert len(pair) == 1
        assert (pair[0].n_s, pair[0].b_ad, pair[0].n_name) == (2, 1, "eta")

    def test_odd_orthogonal_central_small_block(self):
        # rank 3, torus-carrying support: equal-defect involution, torsion 1
        rows = _rows_of("B", 3, 1, "w1")
        assert len(rows) == 1
        row = rows[0][1]
        assert (row.pattern, row.n_s) == ("oddorth.pair", 1)

    def test_odd_orthogonal_torsion_split(self):
        # full-rank split block: equal halves, torsion 2
        rows = _rows_of("B", 2, 1, "1")
        s0 = [r for h, r in rows if r.pattern == "oddorth.s0"]
        assert len(s0) == 1
        assert s0[0].n_s == 2
        # rank 6 interior block (4, 2): adjacent defects, central, torsion 1
        rows6 = _rows_of("B", 6, 1, "1")
        pats = {(r.pattern, r.n_s) for h, r in rows6}
        assert ("oddorth.pair", 1) in pats

    def test_odd_orthogonal_torsion_nonsplit(self):
        # rank 11 (9, 2): defects differ by 2, torsion 2
        rows = _rows_of("B", 11, 1, "w1")
        pats = {(r.pattern, r.n_s) for h, r in rows}
        assert ("oddorth.pair", 2) in pats

    def test_symplectic_equal_blocks_central(self):
        rows = _rows_of("C", 4, 1, "1")
        eq = [r for h, r in rows if r.pattern == "symp.equal"]
        assert len(eq) == 1
        assert (eq[0].n_s, eq[0].b_ad, eq[0].n_name) == (1, 1, "full")

    def test_symplectic_fused_with_torus(self):
        rows = _rows_of("C", 5, 1, "w1")
        mixed = [r for h, r in rows if r.pattern == "symp.mixed"]
        assert len(mixed) == 1
        assert (mixed[0].n_s, mixed[0].b_ad, mixed[0].n_name) == (2, 2, "1")

    def test_unitary_rows(self):
        rows = _rows_of("A", 8, 2, "1")
        pats = {r.pattern for h, r in rows}
        assert pats == {"unit.pair"}
        rows12 = _rows_of("A", 11, 2, "1")
        pats12 = {r.pattern for h, r in rows12}
        assert pats12 == {"unit.equal"}

    def test_triality_rows(self):
        rows = _rows_of("D", 4, 3, "1")
        assert [r.pattern for h, r in rows] == ["exc.3D4", "exc.3D4"]
        assert [r.n_s for h, r in rows] == [1, 2]

    def test_triality_support_in_bigger_ambient(self):
        rows = _rows_of("E", 6, 1, "w1")
        assert [r.pattern for h, r in rows] == ["E6.triality", "E6.triality"]

    def test_fused_e6_support(self):
        rows = _rows_of("E", 7, 1, "w1")
        assert [(r.pattern, r.n_s, r.b_ad) for h, r in rows] == \
            [("E7.fusedE6", 2, 1), ("E7.fusedE6", 3, 2)]


def _arc(rank, twist=2, orbit_size=1):
    return ComponentOrbit("A", rank, twist, orbit_size, ())


class TestRefusal:
    """A support outside its family's pattern raises one error, which names
    the type and the support."""

    @pytest.mark.parametrize("type_key, orbits, torus_rank", [
        # a unitary group with an odd orthogonal block
        pytest.param(("A", 5, 2), (ComponentOrbit("B", 2, 1, 1, ()),), 0,
                     id="2A5-block"),
        # an odd orthogonal group with a unitary arc
        pytest.param(("B", 4, 1), (_arc(2),), 1, id="B4-arc"),
        # an odd orthogonal block with no Lusztig parameter (B3)
        pytest.param(("B", 4, 1), (ComponentOrbit("B", 3, 1, 1, ()),), 1,
                     id="B4-block-without-s"),
        # an arc over the quadratic extension
        pytest.param(("A", 5, 2), (_arc(2, orbit_size=2),), 1,
                     id="2A5-arc-orbit-2"),
        # a symplectic group with a twisted block
        pytest.param(("C", 4, 1), (ComponentOrbit("C", 2, 2, 1, ()),), 0,
                     id="C4-twisted-block"),
        # split type A hosts only on the empty support
        pytest.param(("A", 3, 1), (_arc(2, twist=1),), 0, id="A3"),
        # 3D4 has no exceptional row for this support, and no classical one
        pytest.param(("D", 4, 3), (ComponentOrbit("A", 1, 1, 3, ()),), 1,
                     id="3D4"),
    ])
    def test_support_out_of_pattern(self, type_key, orbits, torus_rank):
        G = SimpleGroup(*type_key, "adjoint")
        real = parahoric_classes(G, enumerate_inner_forms(G)[0])[0]
        host = real._replace(orbits=orbits, torus_rank=torus_rank)
        with pytest.raises(CaseTableError) as err:
            rows_for_host(G, host, [None])
        assert str(err.value) == \
            f"no case rule for {G.type_string()} support {host.support}"


class TestNamedSubgroups:
    def test_sizes(self):
        G = SimpleGroup("D", 8, 1, "adjoint")
        assert len(resolve_named_subgroup(G, "1")) == 1
        assert len(resolve_named_subgroup(G, "eta")) == 2
        assert len(resolve_named_subgroup(G, "full")) == 4
        assert len(resolve_named_subgroup(G, "omega_theta")) == 4

    def test_twisted_theta_fixed(self):
        G = SimpleGroup("D", 9, 2, "adjoint")
        assert len(resolve_named_subgroup(G, "omega_theta")) == 2
        assert resolve_named_subgroup(G, "omega_theta") == \
            resolve_named_subgroup(G, "eta")

    def test_unknown_name(self):
        G = SimpleGroup("B", 2, 1, "adjoint")
        with pytest.raises(CaseTableError):
            resolve_named_subgroup(G, "nonsense")


# every distinct row of the table: the explicit exceptional rows first,
# then one representative of each parametric rule
TABLE_ROWS = [row for key in sorted(_EXCEPTIONAL_ROWS, key=str)
              for row in _EXCEPTIONAL_ROWS[key]] + \
    list(_CLASSICAL_RULES.values())


class TestTableDump:
    def test_all_entries_have_provenance(self):
        for e in TABLE_ROWS:
            assert e.provenance.startswith("§")
            assert e.n_s in PHI
            assert e.n_name in ("1", "eta", "omega_theta", "full")

    def test_every_row_is_its_table_rule(self):
        # each rule is written once: a classical row is its table entry,
        # with the per-support cut node of the odd orthogonal rules and the
        # torsion order of oddorth.pair the exceptions, and an exceptional
        # row is one of the listed rows
        for G, form, host, row, cls in iter_rows():
            rule = _CLASSICAL_RULES.get(row.pattern)
            if rule is None:
                assert row in TABLE_ROWS, (G.type_string(), row)
            elif row.pattern.startswith("oddorth."):
                assert rule.cut_node is None and row.cut_node is not None
                n_s = row.n_s if row.pattern == "oddorth.pair" else rule.n_s
                assert row == rule._replace(n_s=n_s, cut_node=row.cut_node)
            else:
                assert row == rule, (G.type_string(), row)
        assert set(_CLASSICAL_RULES.values()) <= set(TABLE_ROWS)

    def test_self_hosted_count_equals_phi(self):
        # every self-hosted exceptional support has a = a' = 1 (trivial
        # fixed fundamental group or an unstabilized support), so the
        # adjoint count must equal the class size
        for e in TABLE_ROWS:
            if e.pattern.startswith("exc."):
                assert e.b_ad == PHI[e.n_s], e


# ---------------------------------------------------------------------------
# the report pipeline does each stage once
# ---------------------------------------------------------------------------


class TestOnePass:
    def test_no_root_system_for_levi_components(self):
        # component sizes come from the Weyl degrees, so a report builds
        # only the root systems of its type and of the dual type
        for key in types(12):
            root_system.cache_clear()
            full_report(f"{type_id(key)}:adjoint:*")
            assert root_system.cache_info().currsize <= 2, key

    def test_one_support_pass_per_form(self, monkeypatch):
        calls = []

        def counted(group, form):
            calls.append(form.token)
            return supports_with_cuspidals(group, form)

        for name, module in list(sys.modules.items()):
            if name.startswith("supercusp") and getattr(
                    module, "supports_with_cuspidals", None) \
                    is supports_with_cuspidals:
                monkeypatch.setattr(module, "supports_with_cuspidals", counted)
        for spec in ("A3:adjoint:*", "2A5:sc:*", "B3:adjoint:*",
                     "D6:so:*", "3D4:adjoint:*", "E6:adjoint:*",
                     "E7:sc:*", "2A7:adjoint:w1"):
            calls.clear()
            full_report(spec)
            group, twist = parse_spec(spec)
            tokens = [f.token for f in inner_forms_by_token(group, twist)]
            assert calls == tokens, spec
