"""Dual-side tests: weight strings, exact local factors, parameters."""

import json
import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from supercusp.casetable import odd_orthogonal_blocks, rows_for_host
from supercusp.correspond import equivariance_check, full_report, reports_json
from supercusp.exact import (RF_ONE, RF_ZERO, Cyclo, CyclotomicProduct,
                             InvariantError, RatFunc, cyclotomic_poly,
                             euler_phi)
from supercusp.galois import (WeightString, _build_param, _gamma_abs_0,
                              _orbit_product, centralizer_components,
                              dual_affine_diagram, dual_type, hii_check,
                              inner_torsion_strings, kac_points, kac_rows,
                              local_factors, param_json)
from supercusp.padic import (enumerate_inner_forms, formal_degree,
                             supports_with_cuspidals)
from supercusp.rootdata import MAX_RANK, build_group, parse_type, root_system
from typespace import groups, isogenies, type_id, types


def q(k):
    return RatFunc.q_power(k)


def t(k):
    return RatFunc.t_power(k)


def rf(num, den=1):
    return RatFunc.from_fraction(Fraction(num, den))


def string_dim(w):
    """Dimension h + 1 of the weight string w."""
    return w.h + 1


def dual_string(w):
    """The weight string with the inverse eigenvalue."""
    return WeightString(w.order, -w.residue, w.h)


def host_class_pairs(group, form):
    out = []
    for host, classes in supports_with_cuspidals(group, form):
        for cls in classes:
            out.append((host, cls))
    return out


def small_catalogue():
    """Every catalogue group up to rank 8, with B, C and D up to rank 6."""
    return [g for g in groups(8) if g.family not in "BCD" or g.rank <= 6]


# ---------------------------------------------------------------------------
# local factors: hand-checked oracles
# ---------------------------------------------------------------------------


class TestTrivialCharacter:
    def test_gamma_formula(self):
        # gamma(s) = (1 - q^-s) / (1 - q^(s-1)) vanishes at s = 0
        for ord_psi in (0, -1):
            assert local_factors([WeightString(1, 0, 0)], ord_psi).is_zero()

    def test_dim_zero_gamma_is_one(self):
        assert local_factors([]) == CyclotomicProduct(1)


class TestSymmetricSquareString:
    """The three dimensional string with trivial eigenvalue, checked against
    a direct matrix model: Frobenius diag(q, 1, 1/q), kernel of monodromy the
    lowest eigenvalue line, cokernel the other two lines."""

    def test_gamma_assembled_from_parts(self):
        # L(0) = 1 / (1 - q^-1) from the kernel line, the dual's
        # L(1) = 1 / (1 - q^-2), and epsilon(0) = det(-F | coker)
        # = (-q)(-1) = q, so gamma(0) = q (1 - q^-1) / (1 - q^-2)
        # = q^2 / (q + 1) = t^4 / Phi_4(t) at ord psi = 0
        gamma = local_factors([WeightString(1, 0, 2)])
        expect = q(1) * (RF_ONE - q(-1)) / (RF_ONE - q(-2))
        assert (gamma.to_ratfunc() - expect).is_zero()
        assert gamma == CyclotomicProduct(1, 4, ((4, -1),))


class TestRegularLinearStrings:
    def test_exponent_ladder(self):
        # the fully anisotropic linear case, cut at node 0 of A_(n-1): one
        # string of each even weight 2..2(n-1), trivial eigenvalue
        for n in range(2, 9):
            expect = [WeightString(1, 0, 2 * d) for d in range(1, n)]
            got = sorted(inner_torsion_strings("A", n - 1, 0),
                         key=lambda w: w.h)
            assert got == expect

    def test_division_gamma_magnitude(self):
        # |gamma(0)| = q^((n-1)/2) (q - 1) / (q^n - 1) at ord_psi = -1
        for n in range(2, 7):
            gamma = local_factors(inner_torsion_strings("A", n - 1, 0),
                                  ord_psi=-1)
            expect = t(n - 1) * (q(1) - RF_ONE) / (q(n) - RF_ONE)
            assert (gamma.to_ratfunc() - expect).is_zero()


class TestMultisetDiscipline:
    def test_inversion_closure_required(self):
        with pytest.raises(ValueError):
            local_factors([WeightString(3, 1, 0)])
        with pytest.raises(ValueError):
            local_factors([WeightString(5, 2, 1), WeightString(5, 2, 1)])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            WeightString(1, 0, -1)

    def test_nonpositive_order_rejected(self):
        for order in (0, -1, -3):
            with pytest.raises(ValueError):
                WeightString(order, 1, 0)

    def test_gamma_multiplicativity(self):
        # |gamma(0)|(V + W) = |gamma(0)|(V) |gamma(0)|(W)
        rng = random.Random(11)
        for _ in range(8):
            a = _random_closed_multiset(rng)
            b = _random_closed_multiset(rng)
            for ord_psi in (0, -1):
                lhs = local_factors(tuple(a) + tuple(b), ord_psi)
                rhs = local_factors(a, ord_psi) * local_factors(b, ord_psi)
                assert lhs == rhs


def _cyclo_pow(c, k):
    """c^k in Cyclo arithmetic, the reference for the integer eigenvalues."""
    if k < 0:
        return _cyclo_pow(c.conj(), -k)
    out = Cyclo.rational(1)
    for _ in range(k):
        out = out * c
    return out


class TestWeightStringValue:
    """WeightString holds zeta_order^residue as a reduced integer pair."""

    def test_equal_eigenvalues_are_equal_strings(self):
        for h in (0, 1, 4):
            a, b = WeightString(6, 2, h), WeightString(3, 1, h)
            assert a == b and hash(a) == hash(b)
            assert len({a, b}) == 1
        assert WeightString(6, 2, 0) != WeightString(3, 2, 0)
        assert WeightString(3, 1, 0) != WeightString(3, 1, 2)

    def test_residue_reduced_into_range(self):
        for m in range(1, 13):
            zeta = Cyclo.root_of_unity(m)
            for k in range(-2 * m, 2 * m + 1):
                w = WeightString(m, k, 0)
                assert 0 <= w.residue < w.order
                assert math.gcd(w.residue, w.order) == 1
                assert w.order <= m and m % w.order == 0
                assert Cyclo.root_of_unity(w.order, w.residue) == \
                    _cyclo_pow(zeta, k), (m, k)
        assert WeightString(5, 7, 1) == WeightString(5, 2, 1)
        assert (WeightString(4, -1, 0).order,
                WeightString(4, -1, 0).residue) == (4, 3)
        assert (WeightString(7, 14, 3).order,
                WeightString(7, 14, 3).residue) == (1, 0)

    def test_dual_conjugates_the_eigenvalue(self):
        for m in range(1, 9):
            for k in range(m):
                w = WeightString(m, k, 2)
                d = dual_string(w)
                assert Cyclo.root_of_unity(d.order, d.residue) \
                    == Cyclo.root_of_unity(m, k).conj()
                assert dual_string(d) == w

    def test_bad_order_or_weight_raises(self):
        for order, h in ((0, 0), (-2, 1), (3, -1), (1, -5)):
            with pytest.raises(ValueError):
                WeightString(order, 1, h)


def _random_closed_multiset(rng, allow_trivial=True):
    out = []
    for _ in range(rng.randint(1, 3)):
        m = rng.choice((1, 2, 3, 4, 6))
        h = rng.randint(0, 4)
        if not allow_trivial and m == 1 and h == 0:
            h = 1
        if m <= 2:
            out.append(WeightString(m, m - 1, h))
        else:
            out.extend(WeightString(m, k, h) for k in range(1, m)
                       if math.gcd(k, m) == 1)
    return tuple(out)


class TestGammaPairing:
    def test_magnitude_positive_normalization(self):
        rng = random.Random(19)
        for _ in range(10):
            ws = _random_closed_multiset(rng, allow_trivial=False)
            assert local_factors(ws).to_ratfunc().positive_for_large_q()


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


def _alpha(w):
    """The string's eigenvalue as a Cyclo, the dense reference's scalar."""
    return Cyclo.root_of_unity(w.order, w.residue)


def _dense_gamma_abs(strings, ord_psi):
    num = _dense((_alpha(w), -w.h) for w in strings)
    den = _dense((_alpha(w).conj(), -w.h - 2) for w in strings)
    quo = num / den
    if quo.is_zero():
        return quo
    if not quo.positive_for_large_q():
        quo = -quo
    exp = ord_psi * sum(w.h + 1 for w in strings) + sum(w.h for w in strings)
    return RatFunc.t_power(exp) * quo


_ORDERS = (1, 2, 3, 4, 5, 6, 8, 9, 10, 12)


def _random_orbit_multiset(rng):
    """Whole Galois orbits of zeta_m, so closed under Galois and inversion;
    weight 0 makes the orbit constant Phi_m(1) appear."""
    out = []
    for _ in range(rng.randint(1, 3)):
        m = rng.choice(_ORDERS)
        h = rng.randint(0, 4)
        out.extend(WeightString(m, k, h) for k in range(m)
                   if math.gcd(k, m) == 1)
    rng.shuffle(out)
    return tuple(out)


class TestFactoredAgainstDense:
    def test_orbit_rule(self):
        for m in _ORDERS:
            for E in range(-6, 1):
                factors = [(Cyclo.root_of_unity(m, k), E) for k in range(m)
                           if math.gcd(k, m) == 1]
                want = _poly_to_ratfunc(_linear_product(factors))
                assert _orbit_product(m, E).to_ratfunc() == want, (m, E)

    def test_orbit_constant_is_phi_at_one(self):
        # the closed form of Phi_m(1) against the sum of the coefficients
        for m in range(1, 501):
            assert _orbit_product(m, 0).const == sum(cyclotomic_poly(m)), m
        assert _orbit_product(1, 0).is_zero()

    def test_gamma_abs_at_0(self):
        rng = random.Random(23)
        for _ in range(20):
            ws = _random_orbit_multiset(rng)
            for ord_psi in (0, -1):
                assert local_factors(ws, ord_psi).to_ratfunc() == \
                    _dense_gamma_abs(ws, ord_psi)

    def test_inversion_closed_but_not_galois_stable(self):
        # {zeta_5, zeta_5^4} is closed under inversion, and its product
        # 1 - (zeta_5 + zeta_5^4) t^E + t^2E has an irrational coefficient
        for h in (0, 1, 2):
            with pytest.raises(ValueError, match="Galois"):
                local_factors([WeightString(5, 1, h), WeightString(5, 4, h)])
            # every residue occurs, but not equally often
            with pytest.raises(ValueError, match="Galois"):
                local_factors([WeightString(5, k, h)
                               for k in (1, 1, 2, 3, 4, 4)])


class TestGammaMemo:
    @pytest.fixture
    def memo(self):
        """The memo behind local_factors, cleared before and after."""
        _gamma_abs_0.cache_clear()
        yield _gamma_abs_0
        _gamma_abs_0.cache_clear()

    def test_one_gamma_per_weight_multiset(self, memo):
        # every catalogue report: local_factors runs once per row with
        # weights, |gamma(0)| is computed once per distinct (strings, ord_psi)
        specs = [g.spec_string("*") for g in groups(12)]
        rows = [r for spec in specs for r in full_report(spec)
                if r.param.sl2_weights is not None]
        distinct = {(r.param.sl2_weights, -1) for r in rows}
        assert len(rows) > 2 * len(distinct) > 0
        assert memo.cache_info().misses == len(distinct)
        assert memo.cache_info().currsize == len(distinct)

    def test_errors_are_not_memoized(self, memo):
        # inversion-closed but not stable under the Galois action: each
        # call computes afresh and raises, and nothing is stored
        ws = [WeightString(5, 1, 2), WeightString(5, 4, 2)]
        for _ in range(2):
            with pytest.raises(ValueError, match="Galois"):
                local_factors(ws)
        assert memo.cache_info().misses == 2
        assert memo.cache_info().currsize == 0


@lru_cache(maxsize=None)
def catalogue_reports():
    return tuple(r for key in types(12)
                 for r in full_report(f"{type_id(key)}:adjoint:*"))


def _point_gamma_abs(strings, ord_psi, t_val):
    """|gamma(0)| at the integer t = t_val, from the linear factors
    (1 - alpha t^-h) / (1 - conj(alpha) t^(-h-2)) multiplied out in Cyclo
    arithmetic: each side is rational on a Galois-stable multiset."""
    num = den = Cyclo.rational(1)
    for w in strings:
        num = num * (Cyclo.rational(1)
                     - _alpha(w) * Cyclo.rational(Fraction(1, t_val ** w.h)))
        den = den * (Cyclo.rational(1) - _alpha(w).conj()
                     * Cyclo.rational(Fraction(1, t_val ** (w.h + 2))))
    exp = sum(ord_psi * (w.h + 1) + w.h for w in strings)
    return abs(Fraction(t_val) ** exp * num.as_fraction() / den.as_fraction())


def _eval_product(x, t_val):
    """The CyclotomicProduct x at the integer t = t_val, read off its
    constant, power of t and cyclotomic exponents."""
    out = x.const * Fraction(t_val) ** x.t_exp
    for n, e in x.phi:
        out *= Fraction(sum(c * t_val ** i
                            for i, c in enumerate(cyclotomic_poly(n)))) ** e
    return out


class TestCatalogueWeights:
    def test_gamma_abs_at_points(self):
        # every weight multiset of the catalogue reports, at two values of
        # t and both ord psi, against the linear factors in Cyclo arithmetic
        weight_sets = {r.param.sl2_weights for r in catalogue_reports()
                       if r.param.sl2_weights is not None}
        assert len(weight_sets) == 22
        for ws in weight_sets:
            for ord_psi in (0, -1):
                gamma = local_factors(ws, ord_psi)
                for t_val in (2, 3):
                    assert _eval_product(gamma, t_val) == \
                        _point_gamma_abs(ws, ord_psi, t_val), (ws, ord_psi)

    def test_report_weights_sorted(self):
        doc = reports_json(catalogue_reports())
        seen = 0
        for rec in doc["rows"]:
            weights = rec["parameter"]["weights"]
            if weights is None:
                continue
            seen += 1
            assert weights == sorted(weights, key=lambda w: (w[2], w[0], w[1]))
        assert seen > 0


    def test_report_products_serialize_canonically(self):
        # every formal degree and gamma magnitude the reports write: the
        # pair from the exponents is the normalized RatFunc's, unchanged by
        # the normalizing constructor
        seen = 0
        for r in catalogue_reports():
            for x in (r.fdeg, r.param.gamma_abs_0):
                if x is None:
                    continue
                seen += 1
                doc = x.to_json()
                assert doc == x.to_ratfunc().to_json()
                assert RatFunc(tuple(doc["num"]),
                               tuple(doc["den"])).to_json() == doc
        assert seen > 100


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


def _acting(g):
    """The diagram automorphisms that act on the group: those commuting
    with the Frobenius and keeping Omega_G, computed here from the tuples alone."""
    out = []
    for p in g.rs.diagram_autos:
        act = g.rs.aut_on_omega(p)
        if all(p[g.theta[i]] == g.theta[p[i]] for i in range(len(p))) and \
                all(act[x] in g.omega_G for x in g.omega_G):
            out.append(p)
    return out


class TestEquivariance:
    """A diagram automorphism that commutes with the Frobenius and keeps the
    isogeny permutes the report rows and keeps every formal degree."""

    @pytest.mark.parametrize("type_str", [
        "A3", "A5", "A7", "D3", "D4", "D5", "D6", "D8", "D20", "2D5", "2D8",
        "2D9", "2D11", "3D4", "E6", "2E6", "B3", "2A3", "2A5", "2A9", "2A15",
    ])
    def test_rows_permute(self, type_str):
        # each type has rows on some isogeny, so the check sees some
        rows = 0
        for g in isogenies(parse_type(type_str)):
            reports = full_report(g.spec_string("*"))
            rows += len(reports)
            for perm in _acting(g):
                res = equivariance_check(g, reports, perm)
                assert res["consistent"], (iso, perm, res["mismatches"])
        assert rows > 0

    @staticmethod
    def _outer(type_str):
        """The adjoint group, its reports and its non-identity diagram
        automorphisms that act on it."""
        g = build_group(type_str, "adjoint")
        return g, full_report(f"{type_str}:adjoint:*"), [
            p for p in _acting(g) if any(i != j for i, j in enumerate(p))]

    @pytest.mark.parametrize("type_str", ["E6", "D6"])
    def test_changed_degree_is_inconsistent(self, type_str):
        # the flip swaps the two inner forms other than the quasi-split
        # one, so it moves their rows onto each other; a row of D4 is
        # mapped onto itself, so changing it cannot show
        g, reports, perms = self._outer(type_str)
        assert perms
        i = next(i for i, r in enumerate(reports) if r.form_token != "1")
        broken = list(reports)
        broken[i] = reports[i]._replace(fdeg=CyclotomicProduct(7))
        for perm in perms:
            assert equivariance_check(g, reports, perm)["consistent"]
            res = equivariance_check(g, broken, perm)
            assert not res["consistent"]
            assert (i, "no matching row under the map") in res["mismatches"]

    @pytest.mark.parametrize("type_str", ["2A5", "E6"])
    def test_support_of_another_form_is_reported(self, type_str):
        # row 0 keeps its form but takes the host of a row of another
        # inner form, whose support its own Frobenius need not keep
        g = build_group(type_str, "adjoint")
        reports = full_report(f"{type_str}:adjoint:*")
        other = next(r for r in reports
                     if r.form_token != reports[0].form_token)
        broken = [reports[0]._replace(host=other.host),
                  *reports[1:]]
        for perm in _acting(g):
            assert equivariance_check(g, reports, perm)["consistent"]
            res = equivariance_check(g, broken, perm)
            assert (0, "support not maximal stable in its form") in \
                res["mismatches"]

    @pytest.mark.parametrize("type_str, iso, count, condition", [
        ("3D4", "adjoint", 3, "commute with the Frobenius"),
        ("D4", "hs1", 4, "stabilize the isogeny"),
        ("D4", "so", 4, "stabilize the isogeny"),
    ], ids=["3D4-adjoint", "D4-hs1", "D4-so"])
    def test_foreign_automorphism_raises(self, type_str, iso, count,
                                         condition):
        # the flips on 3D4 do not commute with triality, and on D4 the
        # perms moving the node that names the half-spin or the so
        # subgroup do not keep it: none of them acts on the group
        g = build_group(type_str, iso)
        reports = full_report(f"{type_str}:{iso}:*")
        raised = []
        for perm in g.rs.diagram_autos:
            try:
                res = equivariance_check(g, reports, perm)
            except ValueError as exc:
                raised.append(str(exc))
            else:
                assert res["consistent"], (perm, res["mismatches"])
        assert len(raised) == count
        assert all(condition in msg for msg in raised), raised

    def test_non_automorphism_raises(self):
        g = build_group("A3", "adjoint")
        with pytest.raises(ValueError, match=r"\(0, 2, 1, 3\) is no diagram"):
            equivariance_check(g, full_report("A3:adjoint:*"), (0, 2, 1, 3))

    @pytest.mark.parametrize("type_str", ["D4", "E6"])
    def test_images_must_be_distinct(self, type_str):
        # a copied row maps where its original does
        g, reports, perms = self._outer(type_str)
        for perm in perms:
            res = equivariance_check(g, reports + [reports[-1]], perm)
            assert res["mismatches"] == [(len(reports), "two rows map to one")]


# ---------------------------------------------------------------------------
# root-space weight multisets
# ---------------------------------------------------------------------------


class TestInnerTorsionStrings:
    def _triples(self, strings):
        return sorted((w.order, w.residue, w.h) for w in strings)

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

    @pytest.mark.parametrize("key", [k[:2] for k in types(12) if k[2] == 1],
                             ids="{0[0]}{0[1]}".format)
    def test_closed_form_h_against_coroot_sum(self, key):
        # the reference grade: pair each root with the sum of the coroots
        # beta^vee = 2 beta / (beta, beta) of the centralizer's positive
        # roots (level n_s, or level 0 and positive), i.e. 2 rho^vee of
        # Z(s); the strings are read off those graded multiplicities
        rs = root_system(*key)
        n, A, L = rs.rank, rs.cartan, rs.lengths
        coroot = {}
        for beta in rs.roots:
            # (beta, beta) = sum_ij beta_i beta_j A_ij L_j / 2
            norm = sum(beta[i] * beta[j] * A[i][j] * L[j]
                       for i in range(n) for j in range(n))
            coroot[beta] = [2 * b * length // norm
                            for b, length in zip(beta, L)]
            assert [c * norm for c in coroot[beta]] == \
                [2 * b * length for b, length in zip(beta, L)]
        for v, n_s in enumerate(rs.marks):
            levels = {beta: beta[v - 1] if v else 0 for beta in rs.roots}
            corho = [sum(coroot[beta][i] for beta, lev in levels.items()
                         if lev == n_s or (lev == 0 and sum(beta) > 0))
                     for i in range(n)]
            grade = [sum(A[i][j] * corho[j] for j in range(n))
                     for i in range(n)]
            mult = {(0, 0): n}
            for beta, lev in levels.items():
                cell = (lev % n_s, sum(b * g for b, g in zip(beta, grade)))
                mult[cell] = mult.get(cell, 0) + 1
            want = sorted((WeightString(n_s, r, w)
                           for (r, w), count in mult.items() if w >= 0
                           for _ in range(count - mult.get((r, w + 2), 0))),
                          key=lambda w: (w.h, w.order, w.residue))
            assert list(inner_torsion_strings(*key, v)) == want, v

    def test_all_outputs_inversion_closed(self):
        for fam, rank, node in (("G", 2, 1), ("F", 4, 3), ("E", 8, 4),
                                ("E", 8, 5), ("E", 7, 4), ("A", 6, 0)):
            local_factors(inner_torsion_strings(fam, rank, node))

    @pytest.mark.parametrize("key", [k[:2] for k in types(MAX_RANK)
                                     if k[2] == 1], ids="{0[0]}{0[1]}".format)
    def test_the_principal_cut_gives_the_weyl_degrees(self, key):
        # Kostant: at node 0 the torsion point is trivial and h is the
        # principal grading, so the adjoint representation is one string
        # of top 2(d - 1) per Weyl degree d, which twisted_degrees reads
        # off the root heights at the identity
        rs = root_system(*key)
        degrees = rs.twisted_degrees(tuple(range(rs.rank + 1)))
        assert {o for _, o in degrees} == {1}
        assert list(inner_torsion_strings(*key, 0)) == \
            [WeightString(1, 0, 2 * (d - 1)) for d, _ in degrees]


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
                for _, cls, row, p in kac_rows(g, form):
                    assert cls.size == euler_phi(row.n_s)
                    if p.kac_coordinates is not None:
                        assert sum(p.kac_coordinates) == 1
                        assert p.kac_coordinates[row.cut_node] == 1
                    if p.sl2_weights is not None:
                        seen_weighted += 1
                        assert sum(string_dim(w) for w in p.sl2_weights) == \
                            dim_dual
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
                    for host, classes in supports_with_cuspidals(g, form)
                    for cls, row in zip(classes, rows_for_host(
                        g, host, classes))]
                assert [r[:3] for r in rows] == expected
                for host, cls, row, p in rows:
                    assert p == _build_param(g, row)

    @pytest.mark.parametrize("key", types(12), ids=type_id)
    def test_parameters_do_not_depend_on_the_isogeny(self, key):
        # a parameter reads its group only through the dual type, the same
        # for every isogeny: each inner form has the same case rows, row by
        # row, on every isogeny, and each row the same parameter
        kept = isogenies(key)
        for form in enumerate_inner_forms(kept[0]):
            want = [(row, p) for *_, row, p in kac_rows(kept[0], form)]
            for g in kept[1:]:
                assert [(row, p) for *_, row, p in kac_rows(g, form)] == \
                    want, g.spec_string(form.token)

    def test_fused_chain_cuts(self):
        # every cut of the twisted affine diagrams E6^(2) and D4^(3), read
        # by the same classifier as the untwisted ones: the outer involution
        # of E6 fixes F4 (node 0) and C4 (node 4), the outer automorphism
        # of order three of D4 fixes G2 (node 0) and A2 (node 2)
        expect = {
            ("E", 6, 2): [(("F", 4),), (("A", 1), ("B", 3)),
                          (("A", 2), ("A", 2)), (("A", 1), ("A", 3)),
                          (("C", 4),)],
            ("D", 4, 3): [(("G", 2),), (("A", 1), ("A", 1)), (("A", 2),)],
        }
        for dual, cuts in expect.items():
            for v, comps in enumerate(cuts):
                assert centralizer_components(dual, v) == comps, (dual, v)

    @pytest.mark.parametrize("dual", [("E", 6, 2), ("D", 4, 3)],
                             ids=["2E6", "3D4"])
    def test_fused_chains_are_built_once(self, dual):
        assert dual_affine_diagram(dual) is dual_affine_diagram(dual)

    def test_cut_on_a_twisted_dual_without_a_diagram_raises(self):
        # the unitary rows record no cut node; given one, the dual type
        # 2A5 has no affine diagram yet, and the error names it
        g = build_group("2A5", "adjoint")
        _, cls, row, _ = next(
            r for form in enumerate_inner_forms(g)
            for r in kac_rows(g, form) if r[2].pattern == "unit.single")
        assert row.cut_node is None
        with pytest.raises(InvariantError, match="dual type 2A5"):
            _build_param(g, row._replace(cut_node=0))

    def test_division_parameter(self):
        g = build_group("A2", "adjoint")
        seen = 0
        for form in enumerate_inner_forms(g):
            if form.token == "1":
                continue
            rows = kac_rows(g, form)
            assert len(rows) == 1
            host, cls, row, p = rows[0]
            assert row.pattern == "lin.anisotropic"
            assert row.cut_node == 0 and row.n_s == 1
            assert p.kac_coordinates == (1, 0, 0)
            assert sorted(w.h for w in p.sl2_weights) == [2, 4]
            fd = formal_degree(g, form, host, cls)
            expect = q(1) * (q(1) - RF_ONE) / \
                (rf(3) * (q(3) - RF_ONE))
            assert (fd.to_ratfunc() - expect).is_zero()
            res = hii_check(fd, p, 1, len(g.omega_G))
            assert res.status == "holds"
            seen += 1
        assert seen == 2

    def test_rank_one_steinberg_parameter(self):
        g = build_group("A1", "adjoint")
        for form in enumerate_inner_forms(g):
            if form.token == "1":
                continue
            (p,) = kac_points(g, form)
            assert [(w.order, w.residue, w.h) for w in p.sl2_weights] == \
                [(1, 0, 2)]

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
                for *_, row, p in kac_rows(g, form):
                    got.append((row.cut_node, row.n_s,
                                tuple(sorted(p.components))))
            for row in rows:
                assert row in got, f"missing cut {row} among {got}"

    def test_rule_cuts_give_whole_types(self):
        # a row whose rule fixes the cut node records no centralizer
        # string, so pin what the cut leaves: node 0 leaves the whole
        # finite dual type, the odd orthogonal cut C_t(a-b) x C_t(a+b),
        # with t(m) = m(m+1)/2, and a row without a node leaves nothing
        def named(fam, rank):
            # the names classified_components gives the small coincidences
            if rank == 1:
                return ("A", 1)
            return {("C", 2): ("B", 2), ("D", 3): ("A", 3)}.get(
                (fam, rank), (fam, rank))

        seen = {}
        for g in groups(12):
            fam_d, rank_d, _ = dual_type(g)
            for form in enumerate_inner_forms(g):
                for host, _, row, p in kac_rows(g, form):
                    if row.geometric is not None:
                        continue
                    seen[row.pattern] = seen.get(row.pattern, 0) + 1
                    if row.cut_node is None:
                        assert (row.pattern, row.n_s) == ("E6.triality", 2)
                        assert row.cut_node is None
                        assert p.components is None
                    elif row.pattern.startswith("oddorth."):
                        a, b = odd_orthogonal_blocks(host)
                        ranks = ((a - b) * (a - b + 1) // 2,
                                 (a + b) * (a + b + 1) // 2)
                        assert row.cut_node == ranks[0]
                        assert p.components == tuple(
                            sorted(named("C", k) for k in ranks if k))
                    else:
                        assert row.cut_node == 0 and row.n_s == 1
                        assert p.components == (named(fam_d, rank_d),), \
                            (g.type_string(), row.pattern)
        assert set(seen) == {
            "lin.anisotropic", "oddorth.s0", "oddorth.pair", "symp.equal",
            "evenorth.pair.equal", "evenorth.fused", "E6.triality"}

    def test_symplectic_central_cut(self):
        g = build_group("C4", "adjoint")
        seen = False
        for form in enumerate_inner_forms(g):
            for *_, row, p in kac_rows(g, form):
                if row.pattern == "symp.equal":
                    assert row.cut_node == 0 and row.n_s == 1
                    assert p.components == (("B", 4),)
                    assert p.sl2_weights is None
                    seen = True
        assert seen


def pattern_rows(g, pattern, forms):
    """(case row, parameter) pairs of one case pattern over the forms."""
    return [(row, p) for form in forms
            for *_, row, p in kac_rows(g, form) if row.pattern == pattern]


def quasi_split(g):
    return [f for f in enumerate_inner_forms(g) if f.token == "1"][:1]


class TestExceptionalAnchors:
    def test_split_e6_self_hosted(self):
        g = build_group("E6", "adjoint")
        rows = pattern_rows(g, "exc.E6", quasi_split(g))
        assert len(rows) == 1
        row, p = rows[0]
        assert row.n_s == 3 and row.b_ad == 2
        assert sum(string_dim(w) for w in p.sl2_weights) == 78
        assert p.central_order == 9

    def test_e6_triality_rows(self):
        g = build_group("E6", "adjoint")
        rows = pattern_rows(g, "E6.triality", enumerate_inner_forms(g))
        # both order-3 inner forms host the same pair of rows
        assert sorted(row.n_s for row, _ in rows) == [1, 1, 2, 2]
        for row, p in rows:
            if row.n_s == 2:
                assert row.cut_node is None
            else:
                assert row.cut_node == 0
                assert p.components == (("E", 6),)
            assert p.sl2_weights is None and p.gamma_abs_0 is None

    def test_e7_fused_rows_found_by_search(self):
        g = build_group("E7", "adjoint")
        rows = [(cls, row, p) for form in enumerate_inner_forms(g)
                for _, cls, row, p in kac_rows(g, form)
                if row.pattern == "E7.fusedE6"]
        assert sorted(row.n_s for _, row, _ in rows) == [2, 3]
        types = {row.n_s: param_json(p, row, cls)["centralizer"]
                 for cls, row, p in rows}
        assert sorted(types[2].split("x")) == ["A1", "D6"]
        assert sorted(types[3].split("x")) == ["A2", "A5"]
        for _, row, _ in rows:
            assert row.cut_node is not None

    def test_quasi_split_2e6_rows(self):
        g = build_group("2E6", "adjoint")
        by_ns = {row.n_s: (row, p)
                 for row, p in pattern_rows(g, "exc.2E6", quasi_split(g))}
        assert set(by_ns) == {1, 3}
        assert by_ns[1][1].components == (("F", 4),)
        assert by_ns[3][1].components == (("A", 2), ("A", 2))
        for _, p in by_ns.values():
            assert p.sl2_weights is None and p.gamma_abs_0 is None

    def test_triality_d4_rows(self):
        g = build_group("3D4", "adjoint")
        by_ns = {row.n_s: p
                 for row, p in pattern_rows(g, "exc.3D4", quasi_split(g))}
        assert by_ns[1].components == (("G", 2),)
        assert by_ns[2].components == (("A", 1), ("A", 1))

    def test_g2_rows(self):
        g = build_group("G2", "adjoint")
        (form,) = enumerate_inner_forms(g)
        by_ns = {row.n_s: (row, p) for *_, row, p in kac_rows(g, form)}
        assert set(by_ns) == {1, 2, 3}
        assert by_ns[3][1].components == (("A", 2),)
        assert by_ns[3][0].b_ad == 2
        assert by_ns[2][1].components == (("A", 1), ("A", 1))
        assert sum(string_dim(w) for w in by_ns[3][1].sl2_weights) == 14


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
        for g in groups(6):
            if (g.family, g.twist_order) == ("A", 1) or \
                    g.type_string() == "D3":
                for form in enumerate_inner_forms(g):
                    for host, cls, row, p in kac_rows(g, form):
                        if row.pattern != "lin.anisotropic":
                            continue
                        fd = formal_degree(g, form, host, cls)
                        res = hii_check(fd, p, 1, len(g.omega_G))
                        assert res.status == "holds"

    def test_so5_cuspidal(self):
        # the rank two odd orthogonal group: component group (Z/2)^2,
        # formal degree q^2 / (2 (q+1)^2 (q^2+1))
        g = build_group("B2", "adjoint")
        (form,) = [f for f in enumerate_inner_forms(g) if f.token == "1"]
        (p,) = kac_points(g, form)
        host, cls = host_class_pairs(g, form)[0]
        fd = formal_degree(g, form, host, cls)
        expect = q(2) / (rf(2) * (q(1) + RF_ONE) ** 2 * (q(2) + RF_ONE))
        assert (fd.to_ratfunc() - expect).is_zero()
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
            p = p._replace(gamma_abs_0=CyclotomicProduct(1))
            res = hii_check(fd, p, 1, n)
            assert res.status == "fails"

    def test_unverifiable_not_an_error(self):
        g = build_group("E8", "adjoint")
        (form,) = enumerate_inner_forms(g)
        for p in kac_points(g, form):
            if p.sl2_weights is not None:
                continue
            res = hii_check(None, p, 1, 1)
            assert res.status == "unverifiable"

    def test_unknown_s_sharp_is_unverifiable(self):
        # a weighted row with a formal degree still needs |S#|
        g = build_group("A2", "adjoint")
        form = [f for f in enumerate_inner_forms(g) if f.token == "w1"][0]
        ((host, cls, _, p),) = kac_rows(g, form)
        fd = formal_degree(g, form, host, cls)
        assert fd is not None and p.gamma_abs_0 is not None
        assert hii_check(fd, p, 1, 3).status == "holds"
        res = hii_check(fd, p, 1, None)
        assert (res.status, res.lhs, res.rhs) == ("unverifiable", None, None)

    def test_cross_hii_over_the_catalogue(self):
        # a line whose degree and own gamma are known is tried against
        # every distinct parameter of its spec that has a gamma factor: by
        # HII, fdeg / |gamma_p(0)| is the rational dim rho / |S#| for its
        # own p and for no other, whatever |S#| is.  No spec has a second
        # candidate yet, one pair per line: the pair count shows growth.
        pairs = 0
        for g in groups(12):
            reports = full_report(g.spec_string("*"))
            candidates = {r.param for r in reports
                          if r.param.gamma_abs_0 is not None}
            for r in reports:
                if r.fdeg is None or r.param.gamma_abs_0 is None:
                    continue
                matches = []
                for p in candidates:
                    ratio = r.fdeg / p.gamma_abs_0
                    if ratio.t_exp == 0 and not ratio.phi:
                        matches.append(p)
                    pairs += 1
                assert matches == [r.param], r.spec
        assert pairs == 166


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


class TestParamJson:
    def test_weighted_record(self):
        g = build_group("A3", "adjoint")
        form = [f for f in enumerate_inner_forms(g) if f.token != "1"][0]
        ((_, cls, row, p),) = kac_rows(g, form)
        rec = param_json(p, row, cls)
        assert rec["pattern"] == "lin.anisotropic"
        assert rec["node"] == 0 and rec["n_s"] == 1
        assert rec["kac"] == [1, 0, 0, 0]
        assert (rec["centralizer"], rec["class_tag"]) == ("A3", "regular")
        assert rec["weights"] == [[1, 0, 2], [1, 0, 4], [1, 0, 6]]
        assert rec["gamma_abs_0"] == \
            local_factors(p.sl2_weights, -1).to_ratfunc().to_json()

    def test_unweighted_record(self):
        g = build_group("E6", "adjoint")
        rows = [(cls, row, p) for form in enumerate_inner_forms(g)
                for _, cls, row, p in kac_rows(g, form)
                if row.pattern == "E6.triality" and row.n_s == 2]
        cls, row, p = rows[0]
        rec = param_json(p, row, cls)
        assert rec["weights"] is None and rec["gamma_abs_0"] is None
        assert rec["node"] is None
        # neither a node nor a shape name: the centralizer is unrecorded,
        # and the class is the cuspidal one
        assert rec["centralizer"] == "unrecorded"
        assert rec["class_tag"] == f"cuspidal:{cls.class_id}"
