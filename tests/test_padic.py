"""Inner forms, supports, orders, volumes, and formal degrees.

Reference values: classical finite group orders, the division algebra
formal degree, and the support patterns of low-rank classical groups."""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

import pytest
import sympy

from supercusp import galois, padic
from supercusp.correspond import full_report, reports_json
from supercusp.exact import CyclotomicProduct, InvariantError, RatFunc
from supercusp.padic import (
    ComponentOrbit,
    ParahoricClass,
    _perm_orbits,
    classified_components,
    component_cuspidal_classes,
    component_orbits,
    cuspidal_data,
    enumerate_inner_forms,
    finite_semisimple_order,
    formal_degree,
    inner_forms_by_token,
    lusztig_parameter,
    maximal_supports,
    parahoric_classes,
    parahoric_volume,
    supports_with_cuspidals,
    torus_factor,
)
from supercusp.rootdata import (MAX_RANK, SimpleGroup, bond_neighbours,
                                build_group, cartan_matrix, dynkin_diagram,
                                isogeny_tokens, root_system)

from test_casetable import catalogue
from test_exact import p_subst_pow
from test_rootdata import (TWISTED_SYSTEMS, _isogenies, _type_id,
                           reference_orders, reflection_orbit, weyl_degrees)


Q = RatFunc.q_power(1)


def classify_component(cartan, nodes):
    """(family, rank) of the connected subdiagram of a finite or affine
    Dynkin diagram on the given nodes, by its bond profile; ValueError if
    the set is disconnected or no Bourbaki diagram has that profile."""
    comps = classified_components(cartan, nodes)
    if len(comps) != 1:
        raise ValueError(f"unclassifiable diagram on {nodes}")
    return comps[0][1]


def rows_for(spec, isogeny, token):
    g = build_group(spec, isogeny)
    form = inner_forms_by_token(g, token)[0]
    return g, form, supports_with_cuspidals(g, form)


class TestInnerForms:
    def test_pgl2(self):
        g = build_group("A1", "adjoint")
        forms = enumerate_inner_forms(g)
        assert [f.token for f in forms] == ["1", "w1"]
        assert forms[0].token == "1" and forms[1].token != "1"

    def test_an_token(self):
        # 'an' names one form, the one whose class holds the first
        # fundamental coweight's; the other anisotropic form keeps its own
        # token, and '*' reports both
        for ts, token, anisotropic in (("A2", "w2", ["w1", "w2"]),
                                       ("A3", "w3", ["w1", "w3"])):
            g = build_group(ts, "adjoint")
            an = inner_forms_by_token(g, "an")
            assert [f.token for f in an] == [token]
            assert g.rs.coweight_class(1) in an[0].cls
            assert sorted({r.form_token for r in full_report(f"{ts}:adjoint:*")
                           if r.row.pattern == "lin.anisotropic"}) == anisotropic
            # rotation by one: a single affine orbit, so no proper stable
            # support
            assert maximal_supports(an[0].frobenius) == [()]

    def test_an_rejected_outside_type_a(self):
        # only split type A has an anisotropic inner form; the form of a
        # twisted A2 or A3 holding the first coweight class is not one
        for type_str in ("B3", "2A2", "2A3"):
            g = build_group(type_str, "adjoint")
            with pytest.raises(ValueError):
                inner_forms_by_token(g, "an")

    @pytest.mark.parametrize("key", catalogue(), ids=_type_id)
    def test_bad_token_lists_the_accepted_ones(self, key):
        # the forms' tokens in report order, 'an' on split type A, then '*'
        g = SimpleGroup(*key)
        with pytest.raises(ValueError, match=r"\(tokens: ") as exc:
            inner_forms_by_token(g, "w99")
        tokens = str(exc.value).split("(tokens: ")[1].rstrip(")").split(", ")
        forms = [f.token for f in enumerate_inner_forms(g)]
        split_a = key[0] == "A" and key[2] == 1
        assert tokens == forms + ["an"] * split_a + ["*"]
        for token in tokens:
            assert inner_forms_by_token(g, token)

    def test_quasi_split_counts(self):
        for spec, expect in [("A3", 4), ("D6", 4), ("2D6", 2), ("3D4", 1),
                             ("2E6", 1), ("E7", 2), ("G2", 1)]:
            g = build_group(spec, "adjoint")
            assert len(enumerate_inner_forms(g)) == expect, spec

    def test_wildcard(self):
        g = build_group("A2", "adjoint")
        assert len(inner_forms_by_token(g, "*")) == 3

    @pytest.mark.parametrize("key", catalogue(), ids=_type_id)
    def test_frobenius_is_a_diagram_automorphism(self, key):
        # F_omega permutes the affine nodes and keeps the affine Cartan
        # matrix and the marks, as torus_factor assumes
        for g in _isogenies(*key):
            A, marks, nodes = g.rs.affine_cartan, g.rs.marks, range(g.rank + 1)
            for form in enumerate_inner_forms(g):
                F, where = form.frobenius, g.spec_string(form.token)
                assert sorted(F) == list(nodes), where
                assert all(marks[F[i]] == marks[i] for i in nodes), where
                assert all(A[F[i]][F[j]] == A[i][j]
                           for i in nodes for j in nodes), where


class TestOrders:
    def test_untwisted(self):
        assert finite_semisimple_order("A", 1, 1).to_ratfunc() == \
            Q * (Q ** 2 - 1)
        assert finite_semisimple_order("G", 2, 1).to_ratfunc() == \
            Q ** 6 * (Q ** 2 - 1) * (Q ** 6 - 1)

    def test_unitary(self):
        # |SU_3(q)| = q^3 (q^2-1)(q^3+1)
        assert finite_semisimple_order("A", 2, 2).to_ratfunc() == \
            Q ** 3 * (Q ** 2 - 1) * (Q ** 3 + 1)

    def test_twisted_orthogonal(self):
        # |Spin^-_8(q)|: the degree-4 factor flips sign
        got = finite_semisimple_order("D", 4, 2).to_ratfunc()
        want = Q ** 12 * (Q ** 2 - 1) * (Q ** 4 - 1) * (Q ** 6 - 1) * (Q ** 4 + 1)
        assert got == want

    def test_triality(self):
        got = finite_semisimple_order("D", 4, 3).to_ratfunc()
        want = Q ** 12 * (Q ** 2 - 1) * (Q ** 6 - 1) * (Q ** 8 + Q ** 4 + 1)
        assert got == want

    def test_twisted_e6(self):
        got = finite_semisimple_order("E", 6, 2).to_ratfunc()
        prod = Q ** 36
        for d, s in [(2, -1), (5, 1), (6, -1), (8, -1), (9, 1), (12, -1)]:
            prod = prod * (Q ** d + s)
        assert got == prod

    @pytest.mark.parametrize("key", TWISTED_SYSTEMS, ids=_type_id)
    def test_matches_the_reference_case_analysis(self, key):
        # q^N prod Phi_o(q^d) over the listed degrees and the orders the
        # case analysis gives them, N from the untwisted degrees (3D4 lists
        # its two degree-4 invariants as one)
        degrees, orders = reference_orders(*key)
        N = sum(d - 1 for d in weyl_degrees(*key[:2]))
        want = CyclotomicProduct(1, 2 * N)
        for d, o in zip(degrees, orders):
            want = want * CyclotomicProduct(1, 0, ((o, 1),)).subst_t_power(
                2 * d)
        assert finite_semisimple_order(*key) == want


def frobenius_matrix(group, perm):
    """Linear part of the twisted Frobenius on the root space, in the basis
    of finite simple roots; the affine node 0 is minus the highest root."""
    n = group.rank
    W = [[0] * n for _ in range(n)]
    for j in range(1, group.rank + 1):
        image = perm[j]
        if image == 0:
            for i, c in enumerate(group.rs.hr_coeffs):
                W[i][j - 1] -= c
        else:
            W[image - 1][j - 1] += 1
    return W


def dense_det_qw_minus_one(W):
    """|det(q*W - 1)| from sympy's characteristic polynomial chi of W:
    det(q*W - 1) = (-1)^n q^n chi(1/q)."""
    n = len(W)
    chi = sympy.Matrix(W).charpoly(sympy.Symbol("x")).all_coeffs()
    out = RatFunc(p_subst_pow(tuple((-1) ** n * int(c) for c in chi), 2),
                  (1,))
    return out if out.positive_for_large_q() else -out


def groups_up_to_rank(top):
    """Every isogeny of every catalogue type of rank at most top (2A1 and
    2D3 do not exist, and neither does an isogeny that the Frobenius does
    not keep)."""
    types = [(fam, r, tw) for fam, lo, twists in (
        ("A", 1, (1, 2)), ("B", 2, (1,)), ("C", 2, (1,)), ("D", 3, (1, 2)))
        for r in range(lo, top + 1) for tw in twists]
    types += [("D", 4, 3), ("E", 6, 1), ("E", 6, 2), ("E", 7, 1),
              ("E", 8, 1), ("F", 4, 1), ("G", 2, 1)]
    for fam, rank, tw in types:
        for iso in isogeny_tokens(fam, rank):
            try:
                yield SimpleGroup(fam, rank, tw, iso)
            except ValueError:
                continue


class TestTorusFactor:
    def test_node_orbits_match_the_determinant(self):
        # the orbit formula against |det(qW - 1)| of the Frobenius matrix on
        # the root space, from sympy's characteristic polynomial, divided by
        # the span of the support
        dense = {}
        forms = supports = 0
        for g in groups_up_to_rank(8):
            for form in enumerate_inner_forms(g):
                forms += 1
                perm = form.frobenius
                W = frobenius_matrix(g, perm)
                key = tuple(map(tuple, W))
                if key not in dense:
                    dense[key] = dense_det_qw_minus_one(W)
                full = dense[key]
                for J in maximal_supports(form.frobenius) + [()]:
                    supports += 1
                    span = RatFunc.from_int(1)
                    for orb in _perm_orbits(perm, J):
                        span = span * (Q ** len(orb) - 1)
                    got = torus_factor(g, J, perm).to_ratfunc()
                    assert got == full / span, (g.type_string(), J)
        assert (forms, supports) == (359, 1691)

    def test_support_must_be_frobenius_stable(self):
        g = build_group("A2", "adjoint")
        form = inner_forms_by_token(g, "w1")[0]
        with pytest.raises(InvariantError):
            torus_factor(g, (1,), form.frobenius)


class TestVolumes:
    def test_split_a1(self):
        g = build_group("A1", "adjoint")
        qs = inner_forms_by_token(g, "1")[0]
        (host,) = parahoric_classes(g, qs)
        assert (1,) in host.associates
        vol = parahoric_volume(g, host, qs.frobenius).to_ratfunc()
        assert vol == RatFunc.t_power(-3) * Q * (Q ** 2 - 1)

    def test_split_torus(self):
        # the Iwahori subgroup is not maximal, so no ParahoricClass lists
        # it: its quotient is the split torus, with no component orbits
        g = build_group("A3", "adjoint")
        qs = inner_forms_by_token(g, "1")[0]
        iwahori = ParahoricClass(
            support=(), associates=((),), stabilizer_ad=frozenset(),
            stabilizer_G=frozenset(), g_prime=1, orbits=(), torus_rank=3)
        vol = parahoric_volume(g, iwahori, qs.frobenius).to_ratfunc()
        assert vol == RatFunc.t_power(-3) * (Q - 1) ** 3

    def test_positive(self):
        for spec, tok in [("A4", "an"), ("2A5", "1"), ("B3", "w1"), ("E6", "w1")]:
            g = build_group(spec, "adjoint")
            form = inner_forms_by_token(g, tok)[0]
            perm = form.frobenius
            for pc in parahoric_classes(g, form):
                vol = parahoric_volume(g, pc, perm).to_ratfunc()
                assert vol.eval_q(4) > 0 and vol.eval_q(9) > 0

    @pytest.mark.parametrize("key", catalogue(), ids=_type_id)
    def test_matches_the_dimension_normalization(self, key):
        # q^(-dim/2) |P(F_q)| written out, with dim = rank + 2N per
        # component of N positive roots, read off the Weyl degrees
        for g in _isogenies(*key):
            for form in enumerate_inner_forms(g):
                for pc in parahoric_classes(g, form):
                    dim = g.rank + sum(
                        len(co.components) * 2 * sum(
                            d - 1 for d in weyl_degrees(co.family, co.rank))
                        for co in pc.orbits)
                    want = CyclotomicProduct(1, -dim) * torus_factor(
                        g, pc.support, form.frobenius)
                    for co in pc.orbits:
                        want = want * finite_semisimple_order(
                            co.family, co.rank, co.twist).subst_t_power(
                                co.orbit_size)
                    assert parahoric_volume(g, pc, form.frobenius) == want, \
                        (g.spec_string(form.token), pc.support)


class TestDivisionAlgebra:
    """Anisotropic inner forms of PGL_n: units of a division algebra
    modulo center.  Formal degree q^((n-1)/2) (q-1) / (n (q^n - 1))."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_formal_degree(self, n):
        g, form, rows = rows_for(f"A{n - 1}", "adjoint", "an")
        assert len(rows) == 1
        host, classes = rows[0]
        assert host.support == ()
        assert sum(c.size for c in classes) == 1
        fd = formal_degree(g, form, host, classes[0])
        num = RatFunc.t_power(n - 1) * (Q - 1)
        den = RatFunc.from_int(n) * (Q ** n - 1)
        assert fd.to_ratfunc() == num / den
        assert len(host.stabilizer_G) == n

    def test_sl2_compact(self):
        g, form, rows = rows_for("A1", "sc", "an")
        host, classes = rows[0]
        fd = formal_degree(g, form, host, classes[0])
        assert fd.to_ratfunc() == RatFunc.t_power(1) / (Q + 1)


class TestSupportPatterns:
    def test_pu3(self):
        g, form, rows = rows_for("2A2", "adjoint", "1")
        assert len(rows) == 1
        host, classes = rows[0]
        assert host.quotient_description() == "2A2"
        assert sum(c.size for c in classes) == 1

    def test_pu5_empty(self):
        _, _, rows = rows_for("2A4", "adjoint", "1")
        assert rows == []

    def test_pu6_quasi_split(self):
        g, form, rows = rows_for("2A5", "adjoint", "1")
        assert len(rows) == 1
        host, _ = rows[0]
        assert len(host.associates) == 2
        assert len(host.stabilizer_ad) == 1

    def test_pu6_inner(self):
        g, form, rows = rows_for("2A5", "adjoint", "w1")
        assert len(rows) == 1
        host, _ = rows[0]
        assert host.quotient_description() == "2A2x2A2xT1"
        assert len(host.stabilizer_ad) == 2

    def test_b6_split(self):
        g, form, rows = rows_for("B6", "adjoint", "1")
        quos = sorted(h.quotient_description() for h, _ in rows)
        assert quos == ["B2xD4", "B6"]
        by_quo = {h.quotient_description(): h for h, _ in rows}
        assert len(by_quo["B2xD4"].stabilizer_ad) == 2
        assert len(by_quo["B6"].stabilizer_ad) == 1
        assert len(by_quo["B6"].associates) == 2

    def test_c3_inner(self):
        g, form, rows = rows_for("C3", "adjoint", "w1")
        assert len(rows) == 1
        host, _ = rows[0]
        assert host.quotient_description() == "2A2xT1"

    def test_swapped_pair_over_extension(self):
        # C_5, nontrivial form: the two rank-2 tails fuse over q^2
        g, form, rows = rows_for("C5", "adjoint", "w1")
        quos = {h.quotient_description() for h, _ in rows}
        assert any("B2(q^2)" in q for q in quos)

    def test_triality_rows(self):
        g, form, rows = rows_for("3D4", "adjoint", "1")
        assert len(rows) == 1
        host, classes = rows[0]
        assert host.quotient_description() == "3D4"
        assert [c.size for c in classes] == [1, 1]

    def test_d4_split(self):
        g, form, rows = rows_for("D4", "adjoint", "1")
        assert len(rows) == 1
        host, _ = rows[0]
        assert len(host.associates) == 4
        assert len(host.stabilizer_ad) == 1

    def test_exceptional_counts(self):
        for spec, count in [("G2", 4), ("F4", 7), ("E8", 13)]:
            _, _, rows = rows_for(spec, "adjoint", "1")
            assert len(rows) == 1
            assert sum(c.size for c in rows[0][1]) == count, spec

    def test_e7_inner_form(self):
        _, _, rows = rows_for("E7", "adjoint", "w1")
        assert len(rows) == 1
        host, classes = rows[0]
        assert host.quotient_description() == "2E6xT1"
        assert [c.size for c in classes] == [1, 2]

    def test_e6_inner_form(self):
        _, _, rows = rows_for("E6", "adjoint", "w1")
        assert len(rows) == 1
        host, _ = rows[0]
        assert host.quotient_description() == "3D4xT2"
        assert len(host.stabilizer_ad) == 3

    def test_e6_sc_g_prime(self):
        _, _, rows = rows_for("E6", "sc", "1")
        host, _ = rows[0]
        assert host.g_prime == 3

    def test_e7_sc_g_prime(self):
        _, _, rows = rows_for("E7", "sc", "1")
        host, _ = rows[0]
        assert host.g_prime == 2

    def test_isogeny_invariance_of_cuspidal_data(self):
        for isog in ["sc", "adjoint"]:
            _, _, rows = rows_for("E7", isog, "1")
            assert [c.size for _, d in rows for c in d] == [2]

    def test_two_exceptional_factors_raise(self):
        # a support with two exceptional components would need a case row
        # per pair of classes; none occurs, and cuspidal_data refuses one
        g2 = ComponentOrbit("G", 2, 1, 1, ())
        with pytest.raises(InvariantError):
            cuspidal_data(SimpleNamespace(orbits=(g2, g2)))
        # one exceptional factor beside a classical one multiplies out
        b2 = ComponentOrbit("B", 2, 1, 1, ())
        classes = cuspidal_data(SimpleNamespace(orbits=(g2, b2)))
        assert [c.size for c in classes] == [1, 1, 2]


def _act_on_support(group, w, support):
    return tuple(sorted(group.rs.omega_action[w][x] for x in support))


class TestGPrimeOracle:
    """parahoric_classes reads stabilizer_G and g' off the adjoint
    stabilizer by orbit-stabilizer; here both come from acting on the
    supports with Omega_G^theta itself."""

    @pytest.mark.parametrize("key", catalogue(), ids=_type_id)
    def test_g_prime_from_explicit_g_orbits(self, key):
        for g in _isogenies(*key):
            fixed_G = g.omega_G_theta
            for form in enumerate_inner_forms(g):
                for pc in parahoric_classes(g, form):
                    rep = pc.support
                    images = {w: _act_on_support(g, w, rep) for w in fixed_G}
                    orbit_G = set(images.values())
                    assert pc.stabilizer_G == frozenset(
                        w for w, image in images.items() if image == rep)
                    assert orbit_G <= set(pc.associates)
                    assert len(pc.associates) == pc.g_prime * len(orbit_G)


class TestIntegerOrder:
    """Nodes sort as integers: the supports, each class's associates and
    the list of classes, on every form of every catalogue isogeny."""

    @pytest.mark.parametrize("key", catalogue(), ids=_type_id)
    def test_supports_and_classes_are_sorted(self, key):
        for g in _isogenies(*key):
            for form in enumerate_inner_forms(g):
                supports = maximal_supports(form.frobenius)
                assert supports == sorted(supports)
                assert all(list(J) == sorted(J) for J in supports)
                classes = parahoric_classes(g, form)
                for pc in classes:
                    assert pc.associates == tuple(sorted(pc.associates))
                    assert set(pc.associates) <= set(supports)
                    assert pc.support == min(pc.associates)
                reps = [pc.support for pc in classes]
                assert reps == sorted(reps), g.spec_string(form.token)

    def test_b10_report_lists_supports_ascending(self):
        supports = [rec["support"] for rec in
                    reports_json(full_report("B10:adjoint:*"))["rows"]]
        assert any(10 in J for J in supports)
        assert all(J == sorted(J) for J in supports), supports


def _oracle_parahoric_classes(group, form):
    """parahoric_classes computed for one group alone, with no memo."""
    supports = maximal_supports(form.frobenius)
    theta_fixed_ad = sorted(group.omega_ad_theta)
    theta_fixed_G = group.omega_G_theta

    classes = []
    seen = set()
    for J in sorted(supports):
        if J in seen:
            continue
        orbit = {_act_on_support(group, w, J) for w in theta_fixed_ad}
        seen |= orbit
        rep = min(orbit)
        stab_ad = frozenset(w for w in theta_fixed_ad
                            if _act_on_support(group, w, rep) == rep)
        stab_G = stab_ad & theta_fixed_G
        g_prime = Fraction(len(theta_fixed_ad) * len(stab_G),
                           len(stab_ad) * len(theta_fixed_G))
        assert g_prime.denominator == 1
        orbits = component_orbits(group.rs.affine_cartan, rep, form.frobenius,
                                  _cycle_lengths(form.frobenius))
        torus_rank = group.rank - sum(
            co.orbit_size * co.rank for co in orbits)
        classes.append(ParahoricClass(
            support=rep, associates=tuple(sorted(orbit)),
            stabilizer_ad=stab_ad, stabilizer_G=stab_G,
            g_prime=int(g_prime), orbits=orbits, torus_rank=torus_rank))
    classes.sort(key=lambda c: c.support)
    return classes


def _clear_adjoint_caches():
    padic._inner_forms.cache_clear()
    padic._adjoint_classes.cache_clear()
    padic._classified.cache_clear()


def _report_text(spec):
    return json.dumps(reports_json(full_report(spec)), sort_keys=True)


class TestSharedAdjointSide:
    """The inner forms and the adjoint half of parahoric_classes are
    computed once per root system, twist and form, and shared by every
    isogeny of the type."""

    @staticmethod
    def _adjoint_and_all_counts(monkeypatch, name):
        """Per catalogue type, the calls of padic's function `name` made by
        the adjoint report alone and by every isogeny's report, each from
        cleared caches."""
        calls = []
        real = getattr(padic, name)

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(padic, name, counted)
        for key in catalogue():
            specs = [g.spec_string("*") for g in _isogenies(*key)]
            assert specs[-1].split(":")[1] == "adjoint"
            counts = []
            for batch in (specs[-1:], specs):
                _clear_adjoint_caches()
                calls.clear()
                for spec in batch:
                    full_report(spec)
                counts.append(len(calls))
            yield key, counts

    def test_one_adjoint_pass_per_type(self, monkeypatch):
        # every isogeny's report together costs what the adjoint one does
        for key, counts in self._adjoint_and_all_counts(
                monkeypatch, "component_orbits"):
            assert counts[0] == counts[1] > 0, (_type_id(key), counts)

    def test_one_cuspidal_pass_per_type(self, monkeypatch):
        # the cuspidal data is read once per adjoint class, not once per
        # isogeny that finishes it
        for key, counts in self._adjoint_and_all_counts(
                monkeypatch, "cuspidal_data"):
            assert counts[0] == counts[1] > 0, (_type_id(key), counts)

    @pytest.mark.parametrize("key", catalogue(), ids=_type_id)
    def test_classes_match_the_oracle_in_either_order(self, key):
        groups = list(_isogenies(*key))
        for ordered in (groups, groups[::-1]):
            _clear_adjoint_caches()
            for g in ordered:
                for form in enumerate_inner_forms(g):
                    assert parahoric_classes(g, form) == \
                        _oracle_parahoric_classes(g, form), g.spec_string(
                            form.token)

    def test_reports_do_not_depend_on_the_isogeny_order(self):
        specs = [[g.spec_string("*") for g in _isogenies(*key)]
                 for key in catalogue()]
        texts = []
        for order in (1, -1):
            _clear_adjoint_caches()
            texts.append({spec: _report_text(spec)
                          for batch in specs for spec in batch[::order]})
        assert len(texts[0]) == 192
        assert texts[0] == texts[1]

    def test_callers_cannot_corrupt_the_memo(self):
        # snapshots first: a list handed out by the memo itself would show
        # its own mutation and still compare equal
        g, other = build_group("D8", "so"), build_group("D8", "adjoint")
        forms = tuple(enumerate_inner_forms(g))
        classes = {f.token: tuple(parahoric_classes(g, f)) for f in forms}
        reports = [_report_text(h.spec_string("*")) for h in (g, other)]
        assert len(forms) > 1 and all(len(c) > 1 for c in classes.values())

        listed = enumerate_inner_forms(g)
        listed.append(listed[0])
        listed.sort(key=lambda f: f.token, reverse=True)
        for f in forms:
            listed = parahoric_classes(g, f)
            listed.append(listed[0])
            listed.sort(key=lambda c: str(c.support), reverse=True)

        assert tuple(enumerate_inner_forms(g)) == forms
        assert tuple(enumerate_inner_forms(other)) == forms
        assert {f.token: tuple(parahoric_classes(g, f))
                for f in forms} == classes
        assert [_report_text(h.spec_string("*"))
                for h in (g, other)] == reports

    def test_a_raising_key_raises_on_every_call(self, monkeypatch):
        g = build_group("E6", "adjoint")
        (form, *_) = enumerate_inner_forms(g)
        want = parahoric_classes(g, form)

        def broken(cartan, support, perm, cycle):
            raise InvariantError("return map order out of range")

        _clear_adjoint_caches()
        monkeypatch.setattr(padic, "component_orbits", broken)
        for _ in range(2):
            with pytest.raises(InvariantError):
                parahoric_classes(g, form)
        monkeypatch.undo()
        assert parahoric_classes(g, form) == want

    def test_raising_cuspidal_data_is_not_memoized(self, monkeypatch):
        # the cuspidal data belongs to the adjoint half: if it raises, both
        # public paths raise, every time, and the memo stays empty
        g = build_group("E6", "adjoint")
        (form, *_) = enumerate_inner_forms(g)
        want = supports_with_cuspidals(g, form)

        def broken(host):
            raise InvariantError("two exceptional factors on one support")

        _clear_adjoint_caches()
        monkeypatch.setattr(padic, "cuspidal_data", broken)
        for call in (supports_with_cuspidals, parahoric_classes) * 2:
            with pytest.raises(InvariantError):
                call(g, form)
        assert padic._adjoint_classes.cache_info().currsize == 0
        monkeypatch.undo()
        assert supports_with_cuspidals(g, form) == want


class TestCuspidalRows:
    """supports_with_cuspidals finishes only the classes that carry
    cuspidal data.  Here every class is finished first and its cuspidal
    data read after, as two separate steps."""

    @pytest.mark.parametrize("key", catalogue(), ids=_type_id)
    def test_rows_are_the_finished_classes_with_cuspidal_data(self, key):
        for g in _isogenies(*key):
            for form in enumerate_inner_forms(g):
                want = [(pc, cuspidal_data(pc))
                        for pc in parahoric_classes(g, form)
                        if cuspidal_data(pc) is not None]
                assert supports_with_cuspidals(g, form) == want, \
                    g.spec_string(form.token)

    def test_fractional_g_prime_raises_on_a_class_without_cuspidals(self):
        # Omega_G^theta of 3 elements in the split A3's Omega = Z/4 (not a
        # subgroup) would make g' = 4/3 on its one class, which carries no
        # cuspidal unipotent representation; the check still runs there
        g = build_group("A3", "adjoint")
        (form, *_) = enumerate_inner_forms(g)
        assert [cuspidal_data(pc) for pc in parahoric_classes(g, form)] == \
            [None]
        fake = SimpleNamespace(rs=g.rs, omega_ad_theta=g.omega_ad_theta,
                               omega_G_theta=frozenset({(0,), (1,), (2,)}))
        for call in (supports_with_cuspidals, parahoric_classes):
            with pytest.raises(InvariantError, match="does not divide"):
                call(fake, form)


def _walk_components(cartan, nodes):
    """Connected components of the diagram on the nodes, each sorted as
    padic sorts nodes, by a depth-first walk of its own."""
    left, out = set(nodes), []
    while left:
        stack, comp = [min(left)], set()
        while stack:
            a = stack.pop()
            if a in comp:
                continue
            comp.add(a)
            stack += [b for b in left if b != a and cartan[a][b]]
        left -= comp
        out.append(tuple(sorted(comp)))
    return out


@lru_cache(maxsize=None)
def _root_count(cartan):
    """Number of roots of a Cartan matrix, by the reflection orbit."""
    return len(reflection_orbit(cartan))


def _cycle_lengths(perm):
    """Each node's cycle length under perm, by following it round."""
    out = {}
    for x in range(len(perm)):
        y, n = perm[x], 1
        while y != x:
            y, n = perm[y], n + 1
        out[x] = n
    return out


def _walked_orbits(cartan, support, perm):
    """The component orbits of the support as a Counter over components
    of (family, rank, twist, d, orbit): the components from
    _walk_components, the orbit and the return map perm^d by following
    perm, and the twist as the order of the return map on one component."""
    comps = _walk_components(cartan, support)
    comp_of = {x: c for c in comps for x in c}
    want = Counter()
    for c in comps:
        # perm carries components to components
        orbit, image = [c], comp_of[perm[c[0]]]
        while image != c:
            orbit.append(image)
            image = comp_of[perm[image[0]]]
        d = len(orbit)
        ret = dict(zip(c, c))
        for _ in range(d):
            ret = {x: perm[y] for x, y in ret.items()}
        twist, moved = 1, dict(ret)
        while any(moved[x] != x for x in c):
            moved = {x: ret[moved[x]] for x in c}
            twist += 1
        want[(*classify_component(cartan, c), twist, d,
              frozenset(orbit))] += 1
    return want


def _orbit_counter(orbits):
    return Counter((co.family, co.rank, co.twist, co.orbit_size,
                    frozenset(co.components))
                   for co in orbits for _ in co.components)


class TestOnePassClassification:
    """component_orbits reads the components and their types off one set
    of neighbour lists, and each twist off the form's node cycles.  Here
    the components come from a walk of their own and each type from
    classify_component; the orbit size and the return map's order come
    from the Frobenius itself; and each type's root count is checked
    against the reflection orbit of the component's own Cartan matrix,
    which catches a bond profile that names the wrong type on both
    paths."""

    @pytest.mark.parametrize("key", catalogue(), ids=_type_id)
    def test_component_orbits_match_the_public_path(self, key):
        g = SimpleGroup(*key)
        cartan = g.rs.affine_cartan
        for form in enumerate_inner_forms(g):
            perm = form.frobenius
            for support in maximal_supports(perm):
                got = component_orbits(cartan, support, perm,
                                       _cycle_lengths(perm))
                assert _walked_orbits(cartan, support, perm) == \
                    _orbit_counter(got), (key, form.token, support)
                for co in got:
                    c = co.components[0]
                    own = tuple(tuple(cartan[a][b] for b in c) for a in c)
                    assert _root_count(own) == len(
                        root_system(co.family, co.rank).roots)

    @pytest.mark.parametrize("key", catalogue(), ids=_type_id)
    def test_class_orbits_match_the_walk(self, key):
        # the cycle lengths parahoric_classes passes are the ones its own
        # walk of the form's node orbits records
        g = SimpleGroup(*key)
        for form in enumerate_inner_forms(g):
            for pc in parahoric_classes(g, form):
                assert _walked_orbits(g.rs.affine_cartan, pc.support,
                                      form.frobenius) == \
                    _orbit_counter(pc.orbits), (key, form.token, pc.support)


def _dense_neighbours(cartan, nodes):
    """Each node's neighbours among the nodes, with its Cartan entry, by a
    scan of the dense matrix."""
    return {a: {b: cartan[a][b] for b in nodes if b != a and cartan[a][b]}
            for a in nodes}


def _uncached_classification(cartan, nodes):
    """classified_components with no memo: the components from
    _walk_components, each looked up in the profile table."""
    out = []
    for comp in _walk_components(cartan, nodes):
        [(_, profile)] = padic._profiles(_dense_neighbours(cartan, comp))
        out.append((comp, padic._types_by_profile(len(comp))[profile]))
    return out


def _classified_pairs(key):
    """(Cartan matrix, nodes) for every maximal support of every form of
    the type and every cut of its dual's affine diagram, if it has one."""
    g = SimpleGroup(*key)
    for form in enumerate_inner_forms(g):
        for support in maximal_supports(form.frobenius):
            yield g.rs.affine_cartan, support
    try:
        marks, cartan = galois.dual_affine_diagram(galois.dual_type(g))
    except InvariantError:
        return
    for v in range(len(marks)):
        yield cartan, [x for x in range(len(marks)) if x != v]


RANK_SPECS = [f"{t}:adjoint:*" for t in
              ("B9", "C9", "D9", "2D9", "B10", "C10", "D10", "2D10")]


class TestClassificationMemo:
    """classified_components classifies each (Cartan matrix, sorted nodes)
    once, by value, and every inner form, twist, isogeny and dual cut of a
    type shares the entry."""

    @pytest.mark.parametrize("key", catalogue(), ids=_type_id)
    def test_memo_matches_an_uncached_classification(self, key):
        padic._classified.cache_clear()
        for cartan, nodes in _classified_pairs(key):
            want = _uncached_classification(cartan, nodes)
            # the first call may compute the entry, the second reads it
            for _ in range(2):
                assert classified_components(cartan, nodes) == want, \
                    (key, nodes)

    def test_fused_chains_share_one_entry_by_value(self):
        padic._classified.cache_clear()
        for _ in range(2):
            galois.centralizer_components(("E", 6, 2), 2)
        assert padic._classified.cache_info().currsize == 1
        assert padic._classified.cache_info().hits == 1

    def test_callers_cannot_corrupt_the_memo(self):
        cartan = root_system("B", 10).affine_cartan
        support = (10, 9, 8, 7, 5, 4, 2, 1, 0)
        want = list(classified_components(cartan, support))
        got = classified_components(cartan, support)
        got.append(got[0])
        got.reverse()
        got.clear()
        assert classified_components(cartan, support) == want
        assert classified_components(cartan, sorted(support)) == want

    def test_a_raising_classification_is_not_memoized(self, monkeypatch):
        cartan, nodes = root_system("A", 3).affine_cartan, (0, 1, 2, 3)
        size = padic._classified.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ValueError, match="unclassifiable diagram"):
                classified_components(cartan, nodes)
        assert padic._classified.cache_info().currsize == size

        # a support that classifies, made to raise by an empty table
        padic._classified.cache_clear()
        cartan, nodes = root_system("E", 8).affine_cartan, tuple(range(1, 8))
        monkeypatch.setattr(padic, "_types_by_profile", lambda rank: {})
        for _ in range(2):
            with pytest.raises(ValueError, match="unclassifiable diagram"):
                classified_components(cartan, nodes)
        assert padic._classified.cache_info().currsize == 0
        monkeypatch.undo()
        assert classified_components(cartan, nodes) == \
            [(tuple(range(1, 8)), ("E", 7))]

    def test_one_classification_per_pair_on_the_rank_specs(self,
                                                           monkeypatch):
        # every call, from padic's component orbits or galois's dual cuts,
        # names a (matrix, sorted nodes) pair; each distinct pair costs one
        # classification, whatever the form, twist or call site
        pairs = []
        real = padic.classified_components

        def counted(cartan, nodes):
            pairs.append((cartan, tuple(sorted(nodes))))
            return real(cartan, nodes)

        for module in (padic, galois):
            monkeypatch.setattr(module, "classified_components", counted)
        _clear_adjoint_caches()
        for spec in RANK_SPECS:
            full_report(spec)
        info = padic._classified.cache_info()
        assert info.misses == info.currsize == len(set(pairs)) == 74
        assert len(pairs) > len(set(pairs))


class TestClassification:
    def test_component_rules(self):
        g = build_group("B6", "adjoint")
        # nodes 0,1 fork at 2 in affine type B
        assert classify_component(g.rs.affine_cartan, (0, 1, 2, 3)) == ("D", 4)
        assert classify_component(g.rs.affine_cartan, (0, 2, 3)) == ("A", 3)
        assert classify_component(g.rs.affine_cartan, (3, 4, 5, 6)) == ("B", 4)

    def test_c_vs_b_leaf(self):
        g = build_group("C4", "adjoint")
        assert classify_component(g.rs.affine_cartan, (0, 1, 2)) == ("C", 3)
        assert classify_component(g.rs.affine_cartan, (2, 3, 4)) == ("C", 3)

    # the full affine A3 cycle, a five-node chain with F4's bonds, nodes
    # 0..7 of affine E8 (E7 and the lone node 0), and an A5 chain beside a
    # triangle, whose bond profile is A8's
    NON_DYNKIN = {
        "A3-cycle": lambda: (root_system("A", 3).affine_cartan, (0, 1, 2, 3)),
        "A5-plus-triangle": lambda: (cartan_matrix(
            [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (5, 7)],
            (1,) * 8), tuple(range(8))),
        "F5-chain": lambda: (cartan_matrix([(0, 1), (1, 2), (2, 3), (3, 4)],
                                           (2, 2, 1, 1, 1)), (0, 1, 2, 3, 4)),
        "E8-affine-0..7": lambda: (root_system("E", 8).affine_cartan,
                                   tuple(range(8))),
    }

    # (type of the affine diagram, support, its components in the order of
    # their first nodes); on affine B10 and D10 nodes 0 and 1 both hang
    # off node 2, and on affine E8 node 0 hangs off node 8
    SUPPORTS = {
        "B10-A": (("B", 10), (3, 4, 5), [((3, 4, 5), ("A", 3))]),
        "B10-B": (("B", 10), (5, 6, 7, 8, 9, 10),
                  [((5, 6, 7, 8, 9, 10), ("B", 6))]),
        "B10-B2": (("B", 10), (10, 9), [((9, 10), ("B", 2))]),
        "B10-D": (("B", 10), (0, 1, 2, 3, 4), [((0, 1, 2, 3, 4), ("D", 5))]),
        "D10-A": (("D", 10), (3, 4, 5, 6), [((3, 4, 5, 6), ("A", 4))]),
        "D10-D": (("D", 10), (6, 7, 8, 9, 10),
                  [((6, 7, 8, 9, 10), ("D", 5))]),
        "E8-A": (("E", 8), (0, 6, 7, 8), [((0, 6, 7, 8), ("A", 4))]),
        "E8-D": (("E", 8), (2, 3, 4, 5), [((2, 3, 4, 5), ("D", 4))]),
        "E8-E": (("E", 8), tuple(range(1, 8)),
                 [(tuple(range(1, 8)), ("E", 7))]),
        "B10-disconnected": (("B", 10), (10, 9, 8, 7, 5, 4, 2, 1, 0),
                             [((0, 1, 2), ("A", 3)), ((4, 5), ("A", 2)),
                              ((7, 8, 9, 10), ("B", 4))]),
        "E8-disconnected": (("E", 8), (6, 5, 3, 1, 0),
                            [((0,), ("A", 1)), ((1, 3), ("A", 2)),
                             ((5, 6), ("A", 2))]),
    }

    @pytest.mark.parametrize("name", sorted(SUPPORTS))
    def test_classified_components(self, name):
        key, support, want = self.SUPPORTS[name]
        cartan = root_system(*key).affine_cartan
        assert classified_components(cartan, support) == want

    @pytest.mark.parametrize("name", ["E8-affine", "D10-affine",
                                      "A5-plus-triangle"])
    def test_classified_components_raises_on_an_unclassifiable_profile(
            self, name):
        # a whole affine diagram is connected but of no finite type, and
        # the triangle raises even beside the classifiable A5 chain
        cartan, nodes = {
            "E8-affine": lambda: (root_system("E", 8).affine_cartan,
                                  range(9)),
            "D10-affine": lambda: (root_system("D", 10).affine_cartan,
                                   range(11)),
            "A5-plus-triangle": self.NON_DYNKIN["A5-plus-triangle"],
        }[name]()
        with pytest.raises(ValueError, match="unclassifiable diagram"):
            classified_components(cartan, nodes)

    @pytest.mark.parametrize("name", sorted(NON_DYNKIN))
    def test_non_dynkin_diagram_raises(self, name):
        cartan, nodes = self.NON_DYNKIN[name]()
        with pytest.raises(ValueError, match="unclassifiable diagram"):
            classify_component(cartan, nodes)

    # every family with its ranks, and the names of the coincidences
    FAMILY_RANKS = {"A": (1, MAX_RANK), "B": (2, MAX_RANK), "C": (2, MAX_RANK),
                    "D": (3, MAX_RANK), "E": (6, 8), "F": (4, 4), "G": (2, 2)}
    CANONICAL = {("C", 2): ("B", 2), ("D", 3): ("A", 3)}

    def test_every_type_reversed(self):
        for fam, (lo, hi) in self.FAMILY_RANKS.items():
            for rank in range(lo, hi + 1):
                cartan = cartan_matrix(*dynkin_diagram(fam, rank))
                assert classify_component(cartan, tuple(range(rank))[::-1]) \
                    == self.CANONICAL.get((fam, rank), (fam, rank))

    def test_bond_lists_give_the_dense_profiles(self):
        # the table reads each profile off the bond lists; the dense Cartan
        # matrix, through the same profile function, gives the same one
        for fam, (lo, hi) in self.FAMILY_RANKS.items():
            for rank in range(lo, hi + 1):
                diagram = dynkin_diagram(fam, rank)
                cartan = cartan_matrix(*diagram)
                nbrs = bond_neighbours(*diagram)
                assert list(padic._profiles(nbrs)) == list(padic._profiles(
                    _dense_neighbours(cartan, range(rank)))), (fam, rank)
                [(_, profile)] = padic._profiles(nbrs)
                assert padic._types_by_profile(rank)[profile] == \
                    self.CANONICAL.get((fam, rank), (fam, rank))

    @pytest.mark.parametrize("rank", range(1, MAX_RANK + 1))
    def test_one_profile_per_type(self, rank):
        want = {self.CANONICAL.get((fam, rank), (fam, rank))
                for fam, (lo, hi) in self.FAMILY_RANKS.items()
                if lo <= rank <= hi}
        table = padic._types_by_profile(rank)
        assert len(table) == len(want)
        assert set(table.values()) == want

    # the rank of the group with Lusztig's parameter s, by (family, twist):
    # U_n with n = s(s+1)/2, Sp_2n and SO_2n+1 with n = s(s+1), SO_2n with
    # n = s^2, split exactly when s is even; None where s does not fit
    LUSZTIG_RANK = {
        ("A", 2): lambda s: s * (s + 1) // 2 - 1,
        ("B", 1): lambda s: s * (s + 1),
        ("C", 1): lambda s: s * (s + 1),
        ("D", 1): lambda s: None if s % 2 else s * s,
        ("D", 2): lambda s: s * s if s % 2 else None,
    }

    def test_lusztig_parameter(self):
        for (fam, tw), rank_of in self.LUSZTIG_RANK.items():
            for n in range(200):
                found = [s for s in range(n + 2) if rank_of(s) == n]
                assert lusztig_parameter(fam, n, tw) == \
                    (found[0] if found else None), (fam, n, tw)
        # beyond float precision: ranks near 10^30 and 10^60
        for s in (10 ** 15 + 6, 10 ** 15 + 7, 10 ** 30 + 6, 10 ** 30 + 7):
            for (fam, tw), rank_of in self.LUSZTIG_RANK.items():
                n = rank_of(s)
                if n is None:
                    assert lusztig_parameter(fam, s * s, tw) is None
                    continue
                assert lusztig_parameter(fam, n, tw) == s
                assert lusztig_parameter(fam, n + 1, tw) is None
                assert lusztig_parameter(fam, n - 1, tw) is None
        # the other twists, 3D4 among them, and the exceptional families
        for fam, tw in [("A", 1), ("A", 3), ("B", 2), ("C", 2), ("D", 3),
                        ("E", 1), ("E", 2), ("F", 1), ("G", 1)]:
            assert all(lusztig_parameter(fam, n, tw) is None
                       for n in range(200)), (fam, tw)

    def test_cuspidal_existence_rules(self):
        assert component_cuspidal_classes("A", 4, 1) == []
        assert len(component_cuspidal_classes("A", 2, 2)) == 1
        assert component_cuspidal_classes("A", 3, 2) == []
        assert len(component_cuspidal_classes("B", 2, 1)) == 1
        assert len(component_cuspidal_classes("B", 6, 1)) == 1
        assert component_cuspidal_classes("B", 3, 1) == []
        assert len(component_cuspidal_classes("D", 4, 1)) == 1
        assert component_cuspidal_classes("D", 9, 1) == []
        assert len(component_cuspidal_classes("D", 9, 2)) == 1
        assert component_cuspidal_classes("D", 4, 2) == []
