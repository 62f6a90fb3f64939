"""Dual-side tests: weight strings, exact local factors, parameters."""

import json
import math
import random
from fractions import Fraction

import pytest

from supercusp.casetable import rows_for_host
from supercusp.correspond import equivariance_check, full_report, reports_json
from supercusp.exact import (RF_ONE, RF_ZERO, Cyclo, CyclotomicProduct,
                             RatFunc, euler_phi)
from supercusp.galois import (WeightString, _orbit_product, adjoint_wd_rep,
                              centralizer_components, centralizer_type,
                              cuspidal_support, dual_type,
                              gamma0_virtual, hii_check,
                              inner_torsion_strings, kac_points, kac_rows,
                              local_factors, param_json,
                              regular_linear_strings, string_of)
from supercusp.padic import (enumerate_inner_forms, formal_degree,
                             supports_with_cuspidals)
from supercusp.rootdata import (build_group, diagram_automorphisms,
                                isogeny_tokens, parse_type, root_system)


def q(k):
    return RatFunc.q_power(k)


def t(k):
    return RatFunc.t_power(k)


def rf(num, den=1):
    return RatFunc.from_fraction(Fraction(num, den))


def host_class_pairs(group, form):
    out = []
    for host, datum in supports_with_cuspidals(group, form):
        for cls in datum.classes:
            out.append((host, cls))
    return out


def small_catalogue():
    groups = []
    for fam, ranks, twists in (("A", range(1, 9), (1, 2)),
                               ("B", range(2, 7), (1,)),
                               ("C", range(2, 7), (1,)),
                               ("D", range(3, 7), (1, 2))):
        for r in ranks:
            for tw in twists:
                groups.append((fam, r, tw))
    groups += [("D", 4, 3), ("G", 2, 1), ("F", 4, 1), ("E", 6, 1),
               ("E", 6, 2), ("E", 7, 1), ("E", 8, 1)]
    out = []
    for fam, rank, tw in groups:
        for iso in isogeny_tokens(fam, rank):
            try:
                g = build_group(f"{tw if tw > 1 else ''}{fam}{rank}", iso)
            except ValueError:
                continue
            out.append(g)
    return out


# ---------------------------------------------------------------------------
# local factors: hand-checked oracles
# ---------------------------------------------------------------------------


class TestTrivialCharacter:
    def factors(self):
        return local_factors([string_of(1, 0, 0)])

    def test_gamma_formula(self):
        # gamma(s) = (1 - q^-s) / (1 - q^(s-1)), checked off the pole
        fac = self.factors()
        for s in (0, -1, 2, 3):
            expect = (RF_ONE - q(-s)) / (RF_ONE - q(s - 1))
            assert (fac.gamma_at(s) - expect).is_zero()

    def test_gamma_at_half(self):
        assert (self.factors().gamma_at("1/2") - RF_ONE).is_zero()

    def test_pole_raises(self):
        with pytest.raises(ValueError):
            self.factors().gamma_at(1)

    def test_dim_zero_gamma_is_one(self):
        empty = local_factors([])
        assert (empty.gamma_abs_at_0.to_ratfunc() - RF_ONE).is_zero()
        plus = local_factors(regular_linear_strings(3))
        assert (gamma0_virtual(plus, plus).to_ratfunc() - RF_ONE).is_zero()


class TestSymmetricSquareString:
    """The three dimensional string with trivial eigenvalue, checked against
    a direct matrix model: Frobenius diag(q, 1, 1/q), kernel of monodromy the
    lowest eigenvalue line, cokernel the other two lines."""

    def factors(self):
        return local_factors([string_of(1, 0, 2)])

    def test_l_function(self):
        fac = self.factors()
        for s in (0, 1, 2, 3):
            assert (fac.L_at(s) - RF_ONE / (RF_ONE - t(-2 - 2 * s))).is_zero()

    def test_epsilon_from_cokernel_determinant(self):
        # det(-q^-s F | coker) = (-q^-s)(-q^-s q) = q^(1-2s)
        fac = self.factors()
        for s in (0, 1, -1, 2):
            assert (fac.eps_at(s) - q(1 - 2 * s)).is_zero()
        assert (fac.eps_at("1/2") - RF_ONE).is_zero()

    def test_gamma_assembled_from_parts(self):
        # shifts chosen away from the poles of L(s) and of the dual L(1 - s)
        fac = self.factors()
        for s in (0, 3, -2):
            expect = fac.eps_at(s) * fac.dual().L_at(1 - s) / fac.L_at(s)
            assert (fac.gamma_at(s) - expect).is_zero()

    def test_gamma_pole_at_two(self):
        with pytest.raises(ValueError):
            self.factors().gamma_at(2)


class TestRegularLinearStrings:
    def test_exponent_ladder(self):
        # one string of each even weight 2..2(n-1), trivial eigenvalue
        for n in range(2, 9):
            expect = [string_of(1, 0, 2 * d) for d in range(1, n)]
            got = sorted(regular_linear_strings(n), key=lambda w: w.h)
            assert got == expect

    def test_division_gamma_magnitude(self):
        # |gamma(0)| = q^((n-1)/2) (q - 1) / (q^n - 1) at ord_psi = -1
        for n in range(2, 7):
            fac = local_factors(regular_linear_strings(n), ord_psi=-1)
            expect = t(n - 1) * (q(1) - RF_ONE) / (q(n) - RF_ONE)
            assert (fac.gamma_abs_at_0.to_ratfunc() - expect).is_zero()


class TestMultisetDiscipline:
    def test_inversion_closure_required(self):
        with pytest.raises(ValueError):
            local_factors([string_of(3, 1, 0)])
        with pytest.raises(ValueError):
            local_factors([string_of(5, 2, 1), string_of(5, 2, 1)])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            WeightString(Cyclo.rational(1), -1)

    def test_non_torsion_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            WeightString(Cyclo.rational(Fraction(1, 2)), 0)

    def test_integer_shift_required(self):
        fac = local_factors([string_of(1, 0, 2)])
        with pytest.raises(ValueError):
            fac.L_at(Fraction(1, 3))

    def test_l_additivity(self):
        rng = random.Random(11)
        for _ in range(8):
            a = _random_closed_multiset(rng)
            b = _random_closed_multiset(rng)
            fa, fb = local_factors(a), local_factors(b)
            fab = local_factors(tuple(a) + tuple(b))
            for s in (1, 2):
                lhs = fab.L_at(s)
                rhs = fa.L_at(s) * fb.L_at(s)
                assert (lhs - rhs).is_zero()


def _random_closed_multiset(rng, allow_trivial=True):
    out = []
    for _ in range(rng.randint(1, 3)):
        m = rng.choice((1, 2, 3, 4, 6))
        h = rng.randint(0, 4)
        if not allow_trivial and m == 1 and h == 0:
            h = 1
        if m <= 2:
            out.append(string_of(m, m - 1, h))
        else:
            out.extend(string_of(m, k, h) for k in range(1, m)
                       if math.gcd(k, m) == 1)
    return tuple(out)


class TestGammaPairing:
    def test_squared_magnitude_on_random_multisets(self):
        # gamma(0) of the multiset times gamma(0) of its dual equals the
        # square of the sign-normalized magnitude
        rng = random.Random(7)
        for _ in range(20):
            ws = _random_closed_multiset(rng, allow_trivial=False)
            fac = local_factors(ws)
            g0 = fac.gamma_at(0)
            g0_dual = fac.dual().gamma_at(0)
            ga = fac.gamma_abs_at_0.to_ratfunc()
            assert (g0 * g0_dual - ga * ga).is_zero()
            assert (g0 - ga).is_zero() or (g0 + ga).is_zero()

    def test_magnitude_positive_normalization(self):
        rng = random.Random(19)
        for _ in range(10):
            ws = _random_closed_multiset(rng, allow_trivial=False)
            fac = local_factors(ws)
            assert fac.gamma_abs_at_0.to_ratfunc().positive_for_large_q()


# ---------------------------------------------------------------------------
# factored local factors against the dense product of linear factors
# ---------------------------------------------------------------------------

# Dense reference: multiply out prod (1 - c t^e) with Cyclo coefficients and
# read the rational result back one monomial at a time.


def _poly_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        if c1.is_zero():
            continue
        for e2, c2 in q.items():
            if c2.is_zero():
                continue
            e = e1 + e2
            out[e] = out.get(e, Cyclo.rational(0)) + c1 * c2
    return out


def _linear_product(factors):
    """Product of (1 - c*t^e) over the (c, e) pairs, as exponent -> Cyclo."""
    acc = {0: Cyclo.rational(1)}
    for c, e in factors:
        lin = {e: -c}
        lin[0] = lin.get(0, Cyclo.rational(0)) + Cyclo.rational(1)
        acc = _poly_mul(acc, lin)
    return acc


def _poly_to_ratfunc(poly):
    out = RF_ZERO
    for e, c in sorted(poly.items()):
        if c.is_zero():
            continue
        if not c.is_rational():
            raise ValueError(
                "irrational coefficient: the eigenvalue multiset is not "
                "stable under the Galois action")
        out = out + RatFunc.from_fraction(c.as_fraction()) * RatFunc.t_power(e)
    return out


def _dense(factors):
    """The reference product, taken one conductor at a time: each part is
    rational for a Galois-stable multiset, and the Cyclo arithmetic stays in
    Q(zeta_m) instead of the field of the lcm of all conductors."""
    by_conductor = {}
    for c, e in factors:
        by_conductor.setdefault(c.conductor, []).append((c, e))
    out = RF_ONE
    for part in by_conductor.values():
        out = out * _poly_to_ratfunc(_linear_product(part))
    return out


def _dense_gamma_abs(strings, ord_psi):
    num = _dense((w.alpha, -w.h) for w in strings)
    den = _dense((w.alpha.conj(), -w.h - 2) for w in strings)
    quo = num / den
    if quo.is_zero():
        return quo
    if not quo.positive_for_large_q():
        quo = -quo
    exp = ord_psi * sum(w.h + 1 for w in strings) + sum(w.h for w in strings)
    return RatFunc.t_power(exp) * quo


def _dense_L(fac, s):
    two_s = int(2 * Fraction(s))
    return RF_ONE / _dense((w.alpha, -w.h - two_s) for w in fac.strings)


def _dense_gamma(fac, s):
    two_s = int(2 * Fraction(s))
    num = _dense((w.alpha, -w.h - two_s) for w in fac.strings)
    den = _dense((w.alpha.conj(), -w.h - 2 + two_s) for w in fac.strings)
    return fac.eps_at(s) * num / den


_ORDERS = (1, 2, 3, 4, 5, 6, 8, 9, 10, 12)


def _random_orbit_multiset(rng):
    """Whole Galois orbits of zeta_m, so closed under Galois and inversion;
    weight 0 makes the orbit constant Phi_m(1) appear."""
    out = []
    for _ in range(rng.randint(1, 3)):
        m = rng.choice(_ORDERS)
        h = rng.randint(0, 4)
        out.extend(string_of(m, k, h) for k in range(m)
                   if math.gcd(k, m) == 1)
    rng.shuffle(out)
    return tuple(out)


class TestFactoredAgainstDense:
    def test_orbit_rule(self):
        for m in _ORDERS:
            for E in range(-6, 7):
                factors = [(Cyclo.root_of_unity(m, k), E) for k in range(m)
                           if math.gcd(k, m) == 1]
                want = _poly_to_ratfunc(_linear_product(factors))
                assert _orbit_product(m, E).to_ratfunc() == want, (m, E)

    def test_gamma_abs_at_0(self):
        rng = random.Random(23)
        for _ in range(20):
            ws = _random_orbit_multiset(rng)
            for ord_psi in (0, -1):
                fac = local_factors(ws, ord_psi)
                assert fac.gamma_abs_at_0.to_ratfunc() == \
                    _dense_gamma_abs(ws, ord_psi)

    def test_L_at(self):
        rng = random.Random(29)
        for _ in range(12):
            ws = _random_orbit_multiset(rng)
            for ord_psi in (0, -1):
                fac = local_factors(ws, ord_psi)
                for s in (0, 1, -1, "1/2", 2):
                    try:
                        want = _dense_L(fac, s)
                    except ZeroDivisionError:
                        # a trivial eigenvalue with E = 0: L has a pole
                        with pytest.raises(ZeroDivisionError):
                            fac.L_at(s)
                        continue
                    assert fac.L_at(s) == want

    def test_gamma_at(self):
        rng = random.Random(31)
        for _ in range(12):
            ws = _random_orbit_multiset(rng)
            for ord_psi in (0, -1):
                fac = local_factors(ws, ord_psi)
                for s in (0, 1, -1, "1/2", 2, 3):
                    if any(w.h == 2 * Fraction(s) - 2 and w.alpha == 1
                           for w in ws):
                        with pytest.raises(ValueError):
                            fac.gamma_at(s)
                        continue
                    assert fac.gamma_at(s) == _dense_gamma(fac, s)

    def test_inversion_closed_but_not_galois_stable(self):
        # {zeta_5, zeta_5^4} is closed under inversion, and its product
        # 1 - (zeta_5 + zeta_5^4) t^E + t^2E has an irrational coefficient
        for h in (0, 1, 2):
            with pytest.raises(ValueError, match="Galois"):
                local_factors([string_of(5, 1, h), string_of(5, 4, h)])
            # every residue occurs, but not equally often
            with pytest.raises(ValueError, match="Galois"):
                local_factors([string_of(5, k, h) for k in (1, 1, 2, 3, 4, 4)])


class TestE8Report:
    """E8 adjoint end to end: the largest gamma factors in the catalogue."""

    def test_report_rows(self):
        doc = reports_json(full_report("E8:adjoint:*"))
        text = json.dumps(doc, sort_keys=True)
        back = json.loads(text)
        assert back == doc
        assert json.dumps(back, sort_keys=True) == text
        assert doc["rows"]
        for rec in doc["rows"]:
            inv = rec["invariants"]
            assert inv["a"] * inv["b"] == inv["a_prime"] * inv["b_prime"]
            assert inv["b"] == inv["g"] * inv["g_prime"] * \
                euler_phi(rec["n_s"])
            assert rec["hii"] != "fails"
        assert any(rec["parameter"]["gamma_abs_0"] is not None
                   for rec in doc["rows"])


class TestEquivariance:
    """A diagram automorphism that commutes with the Frobenius and keeps the
    isogeny permutes the report rows and keeps every formal degree."""

    @pytest.mark.parametrize("type_str", [
        "A3", "A5", "A7", "D4", "D5", "D6", "D8", "2D4", "2D5", "2D6",
        "2D8", "E6", "2E6", "B3", "2A3", "2A5", "2A7", "2A9",
    ])
    def test_rows_permute(self, type_str):
        fam, rank, _ = parse_type(type_str)
        for iso in isogeny_tokens(fam, rank):
            try:
                g = build_group(type_str, iso)
            except ValueError:
                continue
            reports = full_report(f"{type_str}:{iso}:*")
            for tau in diagram_automorphisms(g):
                if tau.commutes_with_frobenius and tau.stabilizes_isogeny:
                    res = equivariance_check(g, reports, tau)
                    assert res["consistent"], (iso, tau, res["mismatches"])


# ---------------------------------------------------------------------------
# root-space weight multisets
# ---------------------------------------------------------------------------


class TestInnerTorsionStrings:
    def _triples(self, strings):
        out = []
        for w in strings:
            if w.alpha.is_rational():
                m, k = (1, 0) if w.alpha.as_fraction() == 1 else (2, 1)
            else:
                m = w.alpha.conductor
                k = next(j for j in range(1, m)
                         if Cyclo.root_of_unity(m, j) == w.alpha)
            out.append((m, k, w.h))
        return sorted(out)

    def test_g2_order_three_point(self):
        # g = sl3 + (3) + (3bar): strings 2,4 plus one 2 per cube root
        got = self._triples(inner_torsion_strings("G", 2, 1))
        assert got == [(1, 0, 2), (1, 0, 4), (3, 1, 2), (3, 2, 2)]

    def test_g2_order_two_point(self):
        # g = sl2+sl2 + (2)x(4): strings 2,2 plus 2,4 at eigenvalue -1
        got = self._triples(inner_torsion_strings("G", 2, 2))
        assert got == [(1, 0, 2), (1, 0, 2), (2, 1, 2), (2, 1, 4)]

    def test_f4_order_three_point(self):
        # graded pieces 3 (x) sym2(3bar): strings 2,2,4,6 per primitive root
        got = self._triples(inner_torsion_strings("F", 4, 2))
        assert got == [(1, 0, 2), (1, 0, 2), (1, 0, 4), (1, 0, 4),
                       (3, 1, 2), (3, 1, 2), (3, 1, 4), (3, 1, 6),
                       (3, 2, 2), (3, 2, 2), (3, 2, 4), (3, 2, 6)]

    def test_e6_order_three_point(self):
        # sl3^3 at the identity eigenvalue, 3x3x3 at each primitive root
        strings = inner_torsion_strings("E", 6, 4)
        assert sum(w.h + 1 for w in strings) == 78
        got = self._triples(strings)
        assert [x for x in got if x[0] == 1] == \
            [(1, 0, 2)] * 3 + [(1, 0, 4)] * 3
        assert [x[2] for x in got if x[:2] == (3, 1)] == [0, 2, 2, 2, 4, 4, 6]
        assert [x[2] for x in got if x[:2] == (3, 2)] == [0, 2, 2, 2, 4, 4, 6]

    def test_total_dimension_is_ambient_dimension(self):
        for fam, rank, node in (("A", 4, 0), ("F", 4, 3), ("E", 8, 5),
                                ("C", 4, 2)):
            rs = root_system(fam, rank)
            strings = inner_torsion_strings(fam, rank, node)
            assert sum(w.h + 1 for w in strings) == \
                2 * rs.num_pos_roots + rank

    def test_all_outputs_inversion_closed(self):
        for fam, rank, node in (("G", 2, 1), ("F", 4, 3), ("E", 8, 4),
                                ("E", 8, 5), ("E", 7, 4), ("A", 6, 0)):
            local_factors(inner_torsion_strings(fam, rank, node))


# ---------------------------------------------------------------------------
# parameters over the catalogue
# ---------------------------------------------------------------------------


class TestKacPoints:
    def test_catalogue_consistency(self):
        seen_weighted = 0
        for g in small_catalogue():
            fam_d, rank_d, _ = dual_type(g)
            dim_dual = 2 * root_system(fam_d, rank_d).num_pos_roots + rank_d
            for form in enumerate_inner_forms(g):
                for p in kac_points(g, form):
                    assert p.class_size == euler_phi(p.n_s)
                    cs = cuspidal_support(p, g)
                    assert cs.exists
                    assert cs.total_count() >= 1
                    if p.kac_coordinates is not None:
                        assert sum(p.kac_coordinates) == 1
                        assert p.kac_coordinates[p.v_node] == 1
                    if p.sl2_weights is not None:
                        seen_weighted += 1
                        assert p.weight_dim() == dim_dual
                        local_factors(p.sl2_weights)
        assert seen_weighted > 80

    def test_rows_carry_their_parameters(self):
        # kac_rows pairs each support, class and case row with the
        # parameter built from them, in the order of kac_points
        for g in small_catalogue():
            for form in enumerate_inner_forms(g):
                rows = kac_rows(g, form)
                assert [p for *_, p in rows] == kac_points(g, form)
                expected = [
                    (host, cls, row)
                    for host, datum in supports_with_cuspidals(g, form)
                    for cls, row in zip(datum.classes, rows_for_host(
                        g, form, host, datum.classes))]
                assert [r[:3] for r in rows] == expected
                for host, cls, row, p in rows:
                    assert (p.support, p.pattern, p.n_s, p.class_size) == \
                        (host.support, row.pattern, row.n_s, cls.size)

    def test_centralizer_recompute_matches(self):
        g = build_group("E7", "adjoint")
        for form in enumerate_inner_forms(g):
            for p in kac_points(g, form):
                if p.v_node is None:
                    with pytest.raises(ValueError):
                        centralizer_type(p)
                else:
                    again = centralizer_type(p)
                    assert again.components == p.centralizer.components

    def test_fused_chain_cuts(self):
        # every cut of the twisted affine diagrams E6^(2) and D4^(3), read
        # by the same classifier as the untwisted ones: the outer involution
        # of E6 fixes F4 (node 0) and C4 (node 4), the outer automorphism
        # of order three of D4 fixes G2 (node 0) and A2 (node 2)
        expect = {
            "E6(2)": [(("F", 4),), (("A", 1), ("B", 3)),
                      (("A", 2), ("A", 2)), (("A", 1), ("A", 3)),
                      (("C", 4),)],
            "D4(3)": [(("G", 2),), (("A", 1), ("A", 1)), (("A", 2),)],
        }
        for diagram, cuts in expect.items():
            for v, comps in enumerate(cuts):
                assert centralizer_components(None, None, diagram, v) == \
                    comps, (diagram, v)

    def test_division_parameter(self):
        g = build_group("A2", "adjoint")
        seen = 0
        for form in enumerate_inner_forms(g):
            if form.quasi_split:
                continue
            params = kac_points(g, form)
            assert len(params) == 1
            p = params[0]
            assert p.pattern == "lin.anisotropic"
            assert p.v_node == 0 and p.n_s == 1
            assert p.kac_coordinates == (1, 0, 0)
            assert sorted(w.h for w in p.sl2_weights) == [2, 4]
            host, cls = host_class_pairs(g, form)[0]
            fd = formal_degree(g, form, host, cls)
            expect = q(1) * (q(1) - RF_ONE) / \
                (rf(3) * (q(3) - RF_ONE))
            assert (fd.value.to_ratfunc() - expect).is_zero()
            res = hii_check(fd, p, 1, len(g.omega_G))
            assert res.status == "holds"
            seen += 1
        assert seen == 2

    def test_rank_one_steinberg_parameter(self):
        g = build_group("A1", "adjoint")
        for form in enumerate_inner_forms(g):
            if form.quasi_split:
                continue
            (p,) = kac_points(g, form)
            assert [(w.alpha.as_fraction(), w.h) for w in p.sl2_weights] == \
                [(Fraction(1), 2)]

    def test_odd_orthogonal_cut_nodes(self):
        # block data (s, t) inverts to dual chain ranks (t_(a+b), t_(a-b))
        expect = {
            ("B", 2): [(1, 2, (("A", 1), ("A", 1)))],
            ("B", 4): [(1, 2, (("A", 1), ("C", 3)))],
            ("B", 6): [(3, 2, (("C", 3), ("C", 3))),
                       (0, 1, (("C", 6),))],
        }
        for (fam, rank), rows in expect.items():
            g = build_group(f"{fam}{rank}", "adjoint")
            got = []
            for form in enumerate_inner_forms(g):
                for p in kac_points(g, form):
                    got.append((p.v_node, p.n_s,
                                tuple(sorted(p.centralizer.components))))
            for row in rows:
                v, ns, comps = row
                match = [(a, b, c) for a, b, c in got
                         if a == v and b == ns]
                assert match, f"missing cut {row} among {got}"

    def test_symplectic_central_cut(self):
        g = build_group("C4", "adjoint")
        seen = False
        for form in enumerate_inner_forms(g):
            for p in kac_points(g, form):
                if p.pattern == "symp.equal":
                    assert p.v_node == 0 and p.n_s == 1
                    assert p.centralizer.components == (("B", 4),)
                    assert p.sl2_weights is None
                    seen = True
        assert seen


class TestExceptionalAnchors:
    def test_split_e6_self_hosted(self):
        g = build_group("E6", "adjoint")
        form = [f for f in enumerate_inner_forms(g) if f.quasi_split][0]
        rows = [p for p in kac_points(g, form) if p.pattern == "exc.E6"]
        assert len(rows) == 1
        p = rows[0]
        assert p.n_s == 3 and p.b_adjoint == 2
        assert p.weight_dim() == 78
        assert p.centralizer.central_order == 9
        cs = cuspidal_support(p, g)
        assert cs.total_count() == 2
        assert cs.component_invariants == (3, 3)

    def test_e6_triality_rows(self):
        g = build_group("E6", "adjoint")
        rows = []
        for form in enumerate_inner_forms(g):
            rows += [p for p in kac_points(g, form)
                     if p.pattern == "E6.triality"]
        # both order-3 inner forms host the same pair of rows
        assert sorted(p.n_s for p in rows) == [1, 1, 2, 2]
        for p in rows:
            assert cuspidal_support(p, g).total_count() == 1
            if p.n_s == 2:
                assert p.v_node is None
                with pytest.raises(LookupError):
                    adjoint_wd_rep(p)
            else:
                assert p.v_node == 0
                assert p.centralizer.components == (("E", 6),)
                with pytest.raises(LookupError):
                    adjoint_wd_rep(p)

    def test_e7_fused_rows_found_by_search(self):
        g = build_group("E7", "adjoint")
        rows = []
        for form in enumerate_inner_forms(g):
            rows += [p for p in kac_points(g, form)
                     if p.pattern == "E7.fusedE6"]
        assert sorted(p.n_s for p in rows) == [2, 3]
        types = {p.n_s: p.centralizer.type_string for p in rows}
        assert sorted(types[2].split("x")) == ["A1", "D6"]
        assert sorted(types[3].split("x")) == ["A2", "A5"]
        for p in rows:
            assert p.v_node is not None

    def test_quasi_split_2e6_rows(self):
        g = build_group("2E6", "adjoint")
        form = [f for f in enumerate_inner_forms(g) if f.quasi_split][0]
        rows = kac_points(g, form)
        by_ns = {p.n_s: p for p in rows if p.pattern == "exc.2E6"}
        assert set(by_ns) == {1, 3}
        assert by_ns[1].centralizer.components == (("F", 4),)
        assert by_ns[3].centralizer.components == (("A", 2), ("A", 2))
        assert cuspidal_support(by_ns[3], g).component_invariants == (3, 3)
        assert cuspidal_support(by_ns[1], g).component_invariants is None
        for p in by_ns.values():
            with pytest.raises(LookupError):
                adjoint_wd_rep(p)

    def test_triality_d4_rows(self):
        g = build_group("3D4", "adjoint")
        form = [f for f in enumerate_inner_forms(g) if f.quasi_split][0]
        rows = [p for p in kac_points(g, form) if p.pattern == "exc.3D4"]
        by_ns = {p.n_s: p for p in rows}
        assert by_ns[1].centralizer.components == (("G", 2),)
        assert by_ns[2].centralizer.components == (("A", 1), ("A", 1))

    def test_g2_rows(self):
        g = build_group("G2", "adjoint")
        (form,) = enumerate_inner_forms(g)
        rows = kac_points(g, form)
        by_ns = {p.n_s: p for p in rows}
        assert set(by_ns) == {1, 2, 3}
        assert by_ns[3].centralizer.components == (("A", 2),)
        assert by_ns[3].b_adjoint == 2
        assert by_ns[2].centralizer.components == (("A", 1), ("A", 1))
        assert by_ns[3].weight_dim() == 14


# ---------------------------------------------------------------------------
# the formal degree identity
# ---------------------------------------------------------------------------


class TestFormalDegreeIdentity:
    def test_division_algebra_family(self):
        # D^x / K^x for n = 2..6: dim rho = 1, component group of order n
        for n in range(2, 7):
            g = build_group(f"A{n-1}", "adjoint")
            form = [f for f in enumerate_inner_forms(g)
                    if f.token == "w1"][0]
            (p,) = kac_points(g, form)
            host, cls = host_class_pairs(g, form)[0]
            fd = formal_degree(g, form, host, cls)
            res = hii_check(fd, p, 1, n)
            assert res.status == "holds", f"n={n}: {res.lhs} vs {res.rhs}"

    def test_every_anisotropic_linear_row(self):
        # all isogenies, all anisotropic forms: the identity closes with
        # component group of order equal to the fundamental group retained
        for fam, rank in [("A", r) for r in range(1, 7)] + [("D", 3)]:
            for iso in isogeny_tokens(fam, rank):
                try:
                    g = build_group(f"{fam}{rank}", iso)
                except ValueError:
                    continue
                for form in enumerate_inner_forms(g):
                    params = kac_points(g, form)
                    pairs = host_class_pairs(g, form)
                    for p, (host, cls) in zip(params, pairs):
                        if p.pattern != "lin.anisotropic":
                            continue
                        fd = formal_degree(g, form, host, cls)
                        res = hii_check(fd, p, 1, len(g.omega_G))
                        assert res.status == "holds"

    def test_so5_cuspidal(self):
        # the rank two odd orthogonal group: component group (Z/2)^2,
        # formal degree q^2 / (2 (q+1)^2 (q^2+1))
        g = build_group("B2", "adjoint")
        (form,) = [f for f in enumerate_inner_forms(g) if f.quasi_split]
        (p,) = kac_points(g, form)
        host, cls = host_class_pairs(g, form)[0]
        fd = formal_degree(g, form, host, cls)
        expect = q(2) / (rf(2) * (q(1) + RF_ONE) ** 2 * (q(2) + RF_ONE))
        assert (fd.value.to_ratfunc() - expect).is_zero()
        res = hii_check(fd, p, 1, 4)
        assert res.status == "holds"

    def test_dimension_zero_forced_failure(self):
        # replacing the adjoint gamma by the dim-0 value 1 must break the
        # identity for every n > 1
        for n in (2, 3, 4):
            g = build_group(f"A{n-1}", "adjoint")
            form = [f for f in enumerate_inner_forms(g)
                    if f.token == "w1"][0]
            (p,) = kac_points(g, form)
            host, cls = host_class_pairs(g, form)[0]
            fd = formal_degree(g, form, host, cls)
            res = hii_check(fd, p, 1, n, gamma_abs=CyclotomicProduct(1))
            assert res.status == "fails"

    def test_unverifiable_not_an_error(self):
        g = build_group("E8", "adjoint")
        (form,) = enumerate_inner_forms(g)
        for p in kac_points(g, form):
            if p.sl2_weights is not None:
                continue
            class Stub:
                value = None
            res = hii_check(Stub(), p, 1, 1)
            assert res.status == "unverifiable"
            assert not res.verifiable()


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


class TestParamJson:
    def test_weighted_record(self):
        g = build_group("A3", "adjoint")
        form = [f for f in enumerate_inner_forms(g) if not f.quasi_split][0]
        (p,) = kac_points(g, form)
        rec = param_json(p)
        assert rec["node"] == 0 and rec["n_s"] == 1
        assert rec["kac"] == [1, 0, 0, 0]
        assert rec["weights"] == [[1, 0, 2], [1, 0, 4], [1, 0, 6]]
        assert rec["gamma_abs_0"] is not None

    def test_unweighted_record(self):
        g = build_group("E6", "adjoint")
        rows = []
        for form in enumerate_inner_forms(g):
            rows += [p for p in kac_points(g, form)
                     if p.pattern == "E6.triality" and p.n_s == 2]
        rec = param_json(rows[0])
        assert rec["weights"] is None and rec["gamma_abs_0"] is None
        assert rec["node"] is None
