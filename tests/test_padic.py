"""Inner forms, supports, orders, volumes, and formal degrees.

Reference values: classical finite group orders, the division algebra
formal degree, and the support patterns of low-rank classical groups."""

from __future__ import annotations

import pytest
import sympy

from supercusp.exact import InvariantError, RatFunc, p_subst_pow
from supercusp.padic import (
    CentralTorusWrapper,
    ParahoricClass,
    _is_square,
    _is_triangular,
    _perm_orbits,
    classify_component,
    component_cuspidal_classes,
    det_qw_minus_one,
    enumerate_inner_forms,
    f_omega_perm,
    finite_semisimple_order,
    formal_degree,
    inner_forms_by_token,
    maximal_supports,
    parahoric_classes,
    parahoric_volume,
    supports_with_cuspidals,
    torus_factor,
)
from supercusp.rootdata import SimpleGroup, build_group, isogeny_tokens


Q = RatFunc.q_power(1)


def rows_for(spec, isogeny, token):
    g = build_group(spec, isogeny)
    form = inner_forms_by_token(g, token)[0]
    return g, form, supports_with_cuspidals(g, form)


class TestInnerForms:
    def test_pgl2(self):
        g = build_group("A1", "adjoint")
        forms = enumerate_inner_forms(g)
        assert [f.token for f in forms] == ["1", "w1"]
        assert forms[0].quasi_split and not forms[1].quasi_split

    def test_an_token(self):
        g = build_group("A3", "adjoint")
        an = inner_forms_by_token(g, "an")[0]
        assert not an.quasi_split
        # rotation by one: a single affine orbit, so no proper stable support
        assert maximal_supports(g, an) == [()]

    def test_an_rejected_outside_type_a(self):
        g = build_group("B3", "adjoint")
        with pytest.raises(ValueError):
            inner_forms_by_token(g, "an")

    def test_quasi_split_counts(self):
        for spec, expect in [("A3", 4), ("D6", 4), ("2D6", 2), ("3D4", 1),
                             ("2E6", 1), ("E7", 2), ("G2", 1)]:
            g = build_group(spec, "adjoint")
            assert len(enumerate_inner_forms(g)) == expect, spec

    def test_wildcard(self):
        g = build_group("A2", "adjoint")
        assert len(inner_forms_by_token(g, "*")) == 3


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

    def test_det_helper(self):
        assert det_qw_minus_one([[1]]).to_ratfunc() == Q - 1
        assert det_qw_minus_one([[-1]]).to_ratfunc() == Q + 1
        # rotation of order 3 on the A_2 root plane: q^2 + q + 1
        w = [[0, -1], [1, -1]]
        assert det_qw_minus_one(w).to_ratfunc() == Q ** 2 + Q + 1


def frobenius_matrix(group, perm):
    """Linear part of the twisted Frobenius on the root space, in the basis
    of finite simple roots; the affine node 0 is minus the highest root."""
    n = group.rank
    W = [[0] * n for _ in range(n)]
    for j in group.finite_nodes():
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
        # the root space, divided by the span of the support; and that
        # determinant against sympy
        dense = {}
        forms = supports = 0
        for g in groups_up_to_rank(8):
            for form in enumerate_inner_forms(g):
                forms += 1
                perm = f_omega_perm(g, form)
                W = frobenius_matrix(g, perm)
                key = tuple(map(tuple, W))
                full = det_qw_minus_one(W).to_ratfunc()
                if key not in dense:
                    dense[key] = dense_det_qw_minus_one(W)
                assert full == dense[key], (g.type_string(), W)
                for J in maximal_supports(g, form) + [()]:
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
            torus_factor(g, (1,), f_omega_perm(g, form))

    def test_infinite_order_rejected(self):
        with pytest.raises(ValueError):
            det_qw_minus_one([[1, 1], [0, 1]])

    def test_small_integer_predicates(self):
        for n in range(200):
            assert _is_square(n) == any(k * k == n for k in range(n + 1))
            assert _is_triangular(n) == \
                any(k * (k + 1) // 2 == n for k in range(n + 1))
        # beyond float precision
        big = (10 ** 30 + 7) ** 2
        assert _is_square(big) and not _is_square(big + 1)
        assert _is_triangular(big * (big + 1) // 2)


class TestVolumes:
    def test_split_a1(self):
        g = build_group("A1", "adjoint")
        qs = inner_forms_by_token(g, "1")[0]
        (host,) = parahoric_classes(g, qs)
        assert (1,) in host.associates
        vol = parahoric_volume(g, host, f_omega_perm(g, qs)).to_ratfunc()
        assert vol == RatFunc.t_power(-3) * Q * (Q ** 2 - 1)

    def test_split_torus(self):
        # the Iwahori subgroup is not maximal, so no ParahoricClass lists
        # it: its quotient is the split torus, with no component orbits
        g = build_group("A3", "adjoint")
        qs = inner_forms_by_token(g, "1")[0]
        iwahori = ParahoricClass(
            support=(), associates=((),), stabilizer_ad=frozenset(),
            stabilizer_G=frozenset(), g_prime=1, orbits=(), torus_rank=3,
            dim=3)
        vol = parahoric_volume(g, iwahori, f_omega_perm(g, qs)).to_ratfunc()
        assert vol == RatFunc.t_power(-3) * (Q - 1) ** 3

    def test_positive(self):
        for spec, tok in [("A4", "an"), ("2A5", "1"), ("B3", "w1"), ("E6", "w1")]:
            g = build_group(spec, "adjoint")
            form = inner_forms_by_token(g, tok)[0]
            perm = f_omega_perm(g, form)
            for pc in parahoric_classes(g, form):
                vol = parahoric_volume(g, pc, perm).to_ratfunc()
                assert vol.eval_q(4) > 0 and vol.eval_q(9) > 0


class TestDivisionAlgebra:
    """Anisotropic inner forms of PGL_n: units of a division algebra
    modulo center.  Formal degree q^((n-1)/2) (q-1) / (n (q^n - 1))."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_formal_degree(self, n):
        g, form, rows = rows_for(f"A{n - 1}", "adjoint", "an")
        assert len(rows) == 1
        host, datum = rows[0]
        assert host.support == ()
        assert datum.count == 1
        fd = formal_degree(g, form, host, datum.classes[0])
        num = RatFunc.t_power(n - 1) * (Q - 1)
        den = RatFunc.from_int(n) * (Q ** n - 1)
        assert fd.value.to_ratfunc() == num / den
        assert fd.stabilizer_order == n

    def test_sl2_compact(self):
        g, form, rows = rows_for("A1", "sc", "an")
        host, datum = rows[0]
        fd = formal_degree(g, form, host, datum.classes[0])
        assert fd.value.to_ratfunc() == RatFunc.t_power(1) / (Q + 1)


class TestSupportPatterns:
    def test_pu3(self):
        g, form, rows = rows_for("2A2", "adjoint", "1")
        assert len(rows) == 1
        host, datum = rows[0]
        assert host.quotient_description() == "2A2"
        assert datum.count == 1

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
        host, datum = rows[0]
        assert host.quotient_description() == "3D4"
        assert [(c.size, c.ns_tag) for c in datum.classes] == [(1, 1), (1, 2)]

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
            assert rows[0][1].count == count, spec

    def test_e7_inner_form(self):
        _, _, rows = rows_for("E7", "adjoint", "w1")
        assert len(rows) == 1
        host, datum = rows[0]
        assert host.quotient_description() == "2E6xT1"
        assert [(c.size, c.ns_tag) for c in datum.classes] == [(1, 1), (2, 3)]

    def test_e6_inner_form(self):
        _, _, rows = rows_for("E6", "adjoint", "w1")
        assert len(rows) == 1
        host, datum = rows[0]
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
            assert [(c.size, c.ns_tag) for _, d in rows for c in d.classes] \
                == [(2, 4)]


class TestClassification:
    def test_component_rules(self):
        g = build_group("B6", "adjoint")
        # nodes 0,1 fork at 2 in affine type B
        assert classify_component(g.node_pair, (0, 1, 2, 3)) == ("D", 4)
        assert classify_component(g.node_pair, (0, 2, 3)) == ("A", 3)
        assert classify_component(g.node_pair, (3, 4, 5, 6)) == ("B", 4)

    def test_c_vs_b_leaf(self):
        g = build_group("C4", "adjoint")
        assert classify_component(g.node_pair, (0, 1, 2)) == ("C", 3)
        assert classify_component(g.node_pair, (2, 3, 4)) == ("C", 3)

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


class TestCentralTorus:
    def test_norm_one(self):
        w = CentralTorusWrapper(((-1,),))
        assert w.point_count() == Q + 1
        assert w.volume_ratio() == RatFunc.t_power(1) / (Q + 1)

    def test_split(self):
        w = CentralTorusWrapper(((1,),))
        assert w.point_count() == Q - 1
