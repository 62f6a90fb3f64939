"""Exact-arithmetic core: oracle tests against sympy plus property tests."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supercusp import exact
from supercusp.exact import (
    Cyclo,
    CyclotomicProduct,
    FiniteAbelianGroup,
    RatFunc,
    RF_ONE,
    RF_Q,
    RF_T,
    RF_ZERO,
    cyclotomic_poly,
    euler_phi,
    group_from_presentation,
    orbits,
    p_trim,
    perm_order,
    smith_normal_form,
)

_t = sympy.Symbol("t")


def to_sympy(r):
    num = sum(c * _t**i for i, c in enumerate(r.num))
    den = sum(c * _t**i for i, c in enumerate(r.den))
    return sympy.together(sympy.Rational(1) * num / den)


def p_subst_pow(a, d):
    """Substitute t -> t^d in a dense coefficient tuple."""
    if d < 1:
        raise ValueError("power substitution needs d >= 1")
    out = [0] * ((len(a) - 1) * d + 1)
    for i, x in enumerate(a):
        out[i * d] = x
    return p_trim(out)


def poly_strategy():
    return st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=5)


# ---------------------------------------------------------------------------
# RatFunc
# ---------------------------------------------------------------------------


class TestRatFunc:
    def test_canonical_zero(self):
        assert RatFunc((0, 0), (3, 1)).num == (0,)
        assert RatFunc((0, 0), (3, 1)).den == (1,)

    def test_reduction_common_factor(self):
        # (t^2 - 1)/(t - 1) = t + 1
        r = RatFunc((-1, 0, 1), (-1, 1))
        assert r == RatFunc((1, 1), (1,))

    def test_denominator_sign(self):
        r = RatFunc((1,), (-2,))
        assert r.den[-1] > 0
        assert r == RatFunc((-1,), (2,))

    def test_integer_content(self):
        assert RatFunc((2, 4), (6,)) == RatFunc((1, 2), (3,))

    @given(poly_strategy(), poly_strategy(), poly_strategy())
    @settings(max_examples=60, deadline=None)
    def test_field_ops_match_sympy(self, a, b, c):
        if all(x == 0 for x in b):
            b = [1]
        if all(x == 0 for x in c):
            c = [1]
        x = RatFunc(tuple(a), tuple(b))
        y = RatFunc(tuple(c), (1,))
        assert sympy.simplify(to_sympy(x + y) - (to_sympy(x) + to_sympy(y))) == 0
        assert sympy.simplify(to_sympy(x * y) - to_sympy(x) * to_sympy(y)) == 0
        if not y.is_zero():
            assert sympy.simplify(to_sympy(x / y) - to_sympy(x) / to_sympy(y)) == 0

    @given(poly_strategy(), poly_strategy())
    @settings(max_examples=60, deadline=None)
    def test_add_mul_roundtrip(self, a, b):
        if all(x == 0 for x in b):
            b = [1]
        x = RatFunc(tuple(a), tuple(b))
        assert x + RF_ZERO == x
        assert x * RF_ONE == x
        assert x - x == RF_ZERO
        if not x.is_zero():
            assert x / x == RF_ONE

    def test_pow(self):
        assert RF_T**4 == RF_Q * RF_Q
        assert RF_Q**-1 == RF_ONE / RF_Q
        assert (RF_Q + 1) ** 3 == (RF_Q + 1) * (RF_Q + 1) * (RF_Q + 1)

    def test_t_and_q_powers(self):
        assert RatFunc.t_power(2) == RF_Q
        assert RatFunc.t_power(-2) == RF_ONE / RF_Q
        assert RatFunc.q_power(3) == RF_Q**3

    def test_eval(self):
        r = (RF_Q**2 - 1) / (RF_Q - 1)
        assert r.eval_t(Fraction(3)) == Fraction(10)  # q = 9, q + 1 = 10

    def test_in_q_detection(self):
        assert (RF_Q + 1).in_q() == ((1, 1), (1,))
        assert RF_T.in_q() is None

    def test_positive_for_large_q(self):
        assert (RF_Q - 7).positive_for_large_q()
        assert not (1 - RF_Q).positive_for_large_q()

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            RF_ONE / RF_ZERO
        with pytest.raises(ZeroDivisionError):
            RatFunc((1,), (0,))

    def test_eval_q_takes_q(self):
        assert RF_Q.eval_q(4) == 4
        assert RF_T.eval_q(9) == 3
        assert ((RF_Q - 1) / (RF_Q + 1)).eval_q(2) == Fraction(1, 3)
        assert (RF_T / RF_Q).eval_q(Fraction(4, 9)) == Fraction(3, 2)

    def test_eval_q_odd_powers_need_a_square(self):
        with pytest.raises(ValueError):
            RF_T.eval_q(2)
        with pytest.raises(ValueError):
            RF_T.eval_q(-4)

    def test_eval_q_pole(self):
        with pytest.raises(ZeroDivisionError):
            (RF_ONE / (RF_Q - 1)).eval_q(1)


# ---------------------------------------------------------------------------
# CyclotomicProduct
# ---------------------------------------------------------------------------


def phi_rf(n):
    return RatFunc(cyclotomic_poly(n), (1,))


def product_strategy():
    return st.builds(
        CyclotomicProduct,
        st.fractions(min_value=-4, max_value=4, max_denominator=4),
        st.integers(min_value=-3, max_value=3),
        st.lists(st.tuples(st.integers(min_value=1, max_value=12),
                           st.integers(min_value=-2, max_value=2)),
                 max_size=4))


class TestCyclotomicProduct:
    def test_to_ratfunc(self):
        x = CyclotomicProduct(Fraction(-3, 2), -1, ((1, 2), (4, -1), (6, 1)))
        want = RatFunc.from_fraction(Fraction(-3, 2)) * RatFunc.t_power(-1) \
            * phi_rf(1) ** 2 * phi_rf(6) / phi_rf(4)
        assert x.to_ratfunc() == want

    def test_canonical_exponents(self):
        x = CyclotomicProduct(1, 0, ((3, 1), (2, 2), (3, -1)))
        assert x.phi == ((2, 2),)
        assert x == CyclotomicProduct(1, 0, ((2, 1), (2, 1)))

    def test_exponent_arithmetic(self):
        x = CyclotomicProduct(2, 3, ((1, 1), (5, 2)))
        y = CyclotomicProduct(Fraction(1, 3), -1, ((5, 1), (12, 1)))
        assert (x * y).to_ratfunc() == x.to_ratfunc() * y.to_ratfunc()
        assert (x / y).to_ratfunc() == x.to_ratfunc() / y.to_ratfunc()
        assert (x ** -2).to_ratfunc() == x.to_ratfunc() ** -2
        assert x / x == CyclotomicProduct(1)

    def test_sign_for_large_q(self):
        x = CyclotomicProduct(-5, 1, ((1, 3), (2, -1)))
        assert not x.to_ratfunc().positive_for_large_q()
        assert abs(x).to_ratfunc() == -x.to_ratfunc()

    def test_zero(self):
        z = CyclotomicProduct(0, 4, ((3, 2),))
        assert z == CyclotomicProduct(0)
        assert z.to_ratfunc() == RF_ZERO
        assert (z * CyclotomicProduct(7, 1, ((2, 1),))).is_zero()
        with pytest.raises(ZeroDivisionError):
            CyclotomicProduct(1) / z

    def test_subst_t_power(self):
        # (q - 1) / (q + 1) = Phi_1 Phi_2 / Phi_4 in t
        x = CyclotomicProduct(1, 0, ((1, 1), (2, 1), (4, -1)))
        assert x.subst_t_power(3).to_ratfunc() == \
            (RF_Q**3 - 1) / (RF_Q**3 + 1)

    @given(product_strategy(), st.integers(min_value=1, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_subst_matches_evaluation(self, x, d):
        # against the dense expansion with t -> t^d substituted, and at t
        dense = x.to_ratfunc()
        s = x.subst_t_power(d).to_ratfunc()
        assert s == RatFunc(p_subst_pow(dense.num, d),
                            p_subst_pow(dense.den, d))
        for tv in (Fraction(2), Fraction(3), Fraction(5, 2)):
            assert s.eval_t(tv) == dense.eval_t(tv**d)

    def test_subst_needs_positive_power(self):
        with pytest.raises(ValueError):
            CyclotomicProduct(1, 0, ((3, 1),)).subst_t_power(0)

    @pytest.mark.parametrize("e", range(1, 31))
    def test_t_power_minus_one(self, e):
        want = RatFunc(p_subst_pow((-1, 1), e), (1,))
        assert CyclotomicProduct.t_power_minus_one(e).to_ratfunc() == want

    @given(product_strategy())
    @example(CyclotomicProduct(0, 3, ((2, 1),)))
    @example(CyclotomicProduct(Fraction(-3, 4), -2, ((1, 1), (6, -2))))
    @settings(max_examples=80, deadline=None)
    def test_json_is_canonical_without_gcd(self, x):
        # the pair written from the exponents is the normalized one, and
        # the normalizing constructor leaves it as it is
        doc = x.to_json()
        assert doc == x.to_ratfunc().to_json()
        assert RatFunc(tuple(doc["num"]), tuple(doc["den"])).to_json() == doc

    @given(product_strategy(), product_strategy(), st.randoms())
    @settings(max_examples=80, deadline=None)
    def test_equality_is_equality_of_values(self, a, b, rng):
        # the same value written with split and shuffled exponents
        pairs = [p for n, e in a.phi for p in ((n, e + 1), (n, -1))]
        rng.shuffle(pairs)
        a2 = CyclotomicProduct(a.const, a.t_exp, pairs)
        assert a2 == a and hash(a2) == hash(a)
        for x, y in ((a, a2), (a, b), (a, a * b), (a * b, b * a)):
            assert (x == y) == (x.to_ratfunc() == y.to_ratfunc())
            if x == y:
                assert hash(x) == hash(y)



# ---------------------------------------------------------------------------
# Cyclo
# ---------------------------------------------------------------------------


class TestCyclo:
    # covers every Phi_n that the catalogue reports expand (n <= 60)
    @pytest.mark.parametrize("m", list(range(1, 121)))
    def test_cyclotomic_poly_matches_sympy(self, m):
        mine = cyclotomic_poly(m)
        ref = sympy.Poly(sympy.cyclotomic_poly(m, _t), _t).all_coeffs()[::-1]
        assert list(mine) == [int(c) for c in ref]

    def test_cyclotomic_poly_divides_in_integers(self, monkeypatch):
        # Phi_m is built with no Fraction long division
        def no_division(a, b):
            raise AssertionError("p_divmod called")

        monkeypatch.setattr(exact, "p_divmod", no_division)
        cyclotomic_poly.cache_clear()
        polys = [cyclotomic_poly(m) for m in range(1, 121)]
        assert all(type(c) is int for p in polys for c in p)
        assert polys[0] == (-1, 1) and polys[5] == (1, -1, 1)

    @pytest.mark.parametrize("m", list(range(1, 30)))
    def test_phi(self, m):
        assert euler_phi(m) == int(sympy.totient(m))

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 8, 9, 12])
    def test_root_power_identity(self, m):
        z = Cyclo.root_of_unity(m)
        acc = Cyclo.rational(1)
        for _ in range(m):
            acc = acc * z
        assert acc == Cyclo.rational(1)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8, 9, 10, 12])
    def test_root_sum_vanishes(self, m):
        total = Cyclo.rational(0)
        for j in range(m):
            total = total + Cyclo.root_of_unity(m, j)
        assert total.is_zero()

    def test_conductor_reduction(self):
        # zeta_4^2 = -1 lives in conductor 1
        z = Cyclo.root_of_unity(4)
        sq = z * z
        assert sq.is_rational()
        assert sq.as_fraction() == -1
        # zeta_6 = -zeta_3^2, conductor normalizes on construction
        assert Cyclo.root_of_unity(6, 2) == Cyclo.root_of_unity(3)

    def test_mixed_conductor_arithmetic(self):
        z3 = Cyclo.root_of_unity(3)
        z4 = Cyclo.root_of_unity(4)
        w = z3 * z4
        acc = Cyclo.rational(1)
        for _ in range(12):
            acc = acc * w
        assert acc == Cyclo.rational(1)

    def test_conjugation_involutive(self):
        z = Cyclo.root_of_unity(5, 2) + Cyclo.rational(Fraction(1, 3))
        assert z.conj().conj() == z

    def test_conj_times_self_on_roots(self):
        for m in (3, 4, 5, 7, 8):
            z = Cyclo.root_of_unity(m)
            assert z * z.conj() == Cyclo.rational(1)

    def test_equal_values_hash_equal(self):
        # zeta_6^2 written in conductor 6 is zeta_3
        assert Cyclo(6, (0, 0, 1)) == Cyclo.root_of_unity(3, 1)
        assert len({Cyclo(6, (0, 0, 1)), Cyclo.root_of_unity(3, 1)}) == 1
        assert hash(Cyclo.rational(Fraction(2, 3))) == hash(Fraction(2, 3))

    @given(st.integers(min_value=1, max_value=12),
           st.integers(min_value=0, max_value=11),
           st.integers(min_value=2, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_hash_is_independent_of_conductor(self, m, k, j):
        # zeta_m^k written as zeta_(jm)^(jk) in the larger conductor
        mono = [Fraction(0)] * (j * k + 1)
        mono[j * k] = Fraction(1)
        lifted = Cyclo(j * m, tuple(mono)) + Cyclo.rational(Fraction(1, 7))
        direct = Cyclo.root_of_unity(m, k) + Cyclo.rational(Fraction(1, 7))
        assert lifted == direct
        assert hash(lifted) == hash(direct)

    def test_galois_requires_coprime(self):
        with pytest.raises(ValueError):
            Cyclo.root_of_unity(6).galois(2)

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=24))
    @settings(max_examples=60, deadline=None)
    def test_root_of_unity_exponent_arithmetic(self, m, k):
        z = Cyclo.root_of_unity(m, k)
        direct = Cyclo.root_of_unity(m)
        acc = Cyclo.rational(1)
        for _ in range(k % m if m > 1 else 0):
            acc = acc * direct
        assert z == acc


# ---------------------------------------------------------------------------
# Smith normal form and presentations
# ---------------------------------------------------------------------------


def random_matrix(rng, m, n, bound=6):
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]


def mat_mul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
            for i in range(len(A))]


def mat_identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def det_adjugate(M):
    """(det M, adj M) of a nonsingular square integer matrix, so that
    M * adj M = adj M * M = det M * I: the lattice oracle of test_rootdata
    inverts with it, and sympy's own adjugate is far slower there.

    Fraction-free Gauss-Jordan elimination (Bareiss) on [M | I]: every
    division is exact, and the row operations T end with T * M = d * I, so
    T = d * M^-1, where d is det M up to the sign of the row swaps."""
    n = len(M)
    A = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(M)]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if A[r][k] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        if piv != k:
            A[k], A[piv] = A[piv], A[k]
            sign = -sign
        p = A[k][k]
        for i in range(n):
            if i != k:
                f = A[i][k]
                A[i] = [(p * x - f * y) // prev for x, y in zip(A[i], A[k])]
        prev = p
    return sign * prev, [[sign * x for x in row[n:]] for row in A]


def integer_inverse(U):
    """Inverse of a unimodular integer matrix."""
    det, adj = det_adjugate(U)
    if det not in (1, -1):
        raise ValueError("matrix is not unimodular")
    return [[det * x for x in row] for row in adj]


class TestSmith:
    # the edge inputs, then random shapes up to 6x6 with entries up to 30
    # in absolute value, some with a zero row or a zero column
    EDGES = {"empty": [], "zero": [[0, 0, 0], [0, 0, 0]],
             "row": [[6, -4, 10]], "column": [[6], [-4], [10]]}

    @pytest.mark.parametrize("seed", [*EDGES, *range(100)])
    def test_snf_matches_sympy(self, seed):
        if seed in self.EDGES:
            A = self.EDGES[seed]
        else:
            rng = random.Random(seed)
            A = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6),
                              bound=30)
            if rng.random() < 0.3:
                A[rng.randrange(len(A))] = [0] * len(A[0])
            if rng.random() < 0.3:
                col = rng.randrange(len(A[0]))
                for row in A:
                    row[col] = 0
        U, D, V = smith_normal_form([row[:] for row in A])
        if not A:
            assert (U, D, V) == ([], [], [])
            return
        m, n = len(A), len(A[0])
        # U A V == D, with U and V unimodular
        assert mat_mul(mat_mul(U, A), V) == D
        assert abs(det_adjugate(U)[0]) == abs(det_adjugate(V)[0]) == 1
        # diagonal, nonnegative, divisibility chain
        diag = [D[i][i] for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert D[i][j] == 0
        assert all(d >= 0 for d in diag)
        for i in range(len(diag) - 1):
            if diag[i]:
                assert diag[i + 1] % diag[i] == 0
            else:
                assert diag[i + 1] == 0
        ref = sympy_snf(sympy.Matrix(A))
        ref_diag = [abs(int(ref[i, i])) for i in range(min(m, n))]
        assert diag == ref_diag

    def test_integer_inverse(self):
        U = [[2, 1], [1, 1]]
        assert mat_mul(U, integer_inverse(U)) == mat_identity(2)
        with pytest.raises(ValueError):
            integer_inverse([[2, 0], [0, 1]])

    def test_integer_inverse_typed_errors(self):
        with pytest.raises(ValueError, match="not unimodular"):
            integer_inverse([[2, 0], [0, 1]])
        with pytest.raises(ValueError, match="singular"):
            integer_inverse([[1, 2], [2, 4]])

    @pytest.mark.parametrize("seed", range(25))
    def test_det_adjugate_matches_sympy(self, seed):
        rng = random.Random(200 + seed)
        n = rng.randint(1, 5)
        A = random_matrix(rng, n, n, bound=4)
        ref = sympy.Matrix(A)
        if ref.det() == 0:
            with pytest.raises(ValueError, match="singular"):
                det_adjugate(A)
            return
        det, adj = det_adjugate(A)
        assert det == ref.det()
        assert adj == [[int(x) for x in row] for row in ref.adjugate().tolist()]

    @pytest.mark.parametrize("seed", range(10))
    def test_kernel(self, seed):
        # the columns of V past the rank of D are a basis of the integer
        # kernel of A
        rng = random.Random(100 + seed)
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        A = random_matrix(rng, m, n)
        _, D, V = smith_normal_form(A)
        rank = sum(1 for i in range(min(m, n)) if D[i][i] != 0)
        for j in range(rank, n):
            assert all(sum(A[i][k] * V[k][j] for k in range(n)) == 0
                       for i in range(m))
        assert rank == sympy.Matrix(A).rank()
        assert abs(sympy.Matrix(V).det()) == 1


class TestPresentation:
    def test_cyclic_quotient(self):
        pres = group_from_presentation(1, [[5]])
        grp, proj = pres.group, pres.project
        assert grp.orders == (5,)
        assert proj([7]) == proj([2])

    def test_klein_vs_cyclic4(self):
        g1 = group_from_presentation(2, [[2, 0], [0, 2]]).group
        assert g1.orders == (2, 2)
        g2 = group_from_presentation(2, [[2, -1], [0, 2]]).group
        assert g2.orders == (4,)

    def test_weight_mod_root_lattice_for_rank2(self):
        # Z^2 / <(2,-1), (-1,2)> is cyclic of order 3
        pres = group_from_presentation(2, [[2, -1], [-1, 2]])
        grp, proj = pres.group, pres.project
        assert grp.orders == (3,)
        gen = proj([1, 0])
        assert len(grp.subgroup_generated([gen])) == 3

    def test_infinite_quotient_rejected(self):
        with pytest.raises(ValueError):
            group_from_presentation(2, [[2, 0]])


# ---------------------------------------------------------------------------
# FiniteAbelianGroup
# ---------------------------------------------------------------------------


class TestFiniteAbelianGroup:
    def test_validation(self):
        with pytest.raises(ValueError):
            FiniteAbelianGroup((4, 2))  # wrong chain order
        with pytest.raises(ValueError):
            FiniteAbelianGroup((1, 4))  # trivial factor

    def test_trivial_group(self):
        g = FiniteAbelianGroup(())
        assert g.order() == 1
        assert g.elements() == [()]
        assert g.subgroup_generated([()]) == frozenset([()])

    def test_subgroup_generated(self):
        g = FiniteAbelianGroup((2, 4))
        h = g.subgroup_generated([(0, 2)])
        assert h == frozenset({(0, 0), (0, 2)})
        assert len(g.subgroup_generated([(1, 0), (0, 1)])) == 8


# ---------------------------------------------------------------------------
# orbits of a move relation
# ---------------------------------------------------------------------------


@st.composite
def graph_strategy(draw):
    """(items in a random order, symmetric neighbour lists) of a random
    undirected graph on at most 10 vertices."""
    n = draw(st.integers(min_value=1, max_value=10))
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1),
                                   st.integers(0, n - 1)), max_size=15))
    nbrs = {x: [] for x in range(n)}
    for a, b in edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    return draw(st.permutations(range(n))), nbrs


class TestOrbits:
    @given(st.permutations(range(12)))
    @settings(max_examples=80, deadline=None)
    def test_permutation_orbits_are_its_cycles(self, images):
        perm = dict(enumerate(images))
        cycles, seen = [], set()
        for x in range(len(images)):
            if x not in seen:
                cycle = [x]
                while perm[cycle[-1]] != x:
                    cycle.append(perm[cycle[-1]])
                seen.update(cycle)
                cycles.append(cycle)
        assert orbits(range(len(images)), lambda x: (perm[x],)) == cycles

    @given(graph_strategy())
    @settings(max_examples=100, deadline=None)
    def test_graph_orbits_are_its_components(self, graph):
        items, nbrs = graph
        n = len(items)
        # brute-force closure: reachability by Warshall's algorithm
        reach = [[i == j or j in nbrs[i] for j in range(n)]
                 for i in range(n)]
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    reach[i][j] = reach[i][j] or (reach[i][k] and reach[k][j])
        components = {frozenset(j for j in range(n) if reach[i][j])
                      for i in range(n)}
        got = orbits(items, lambda x: nbrs[x])
        assert {frozenset(o) for o in got} == components
        assert sum(len(o) for o in got) == n
        for o in got:
            # each orbit starts at its first item in input order, and every
            # later item is reached from one listed before it
            assert o[0] == min(o, key=items.index)
            assert all(any(y in nbrs[x] for x in o[:i])
                       for i, y in enumerate(o) if i)
        # the orbits come in the order of their first items
        firsts = [items.index(o[0]) for o in got]
        assert firsts == sorted(firsts)

    def test_moves_may_leave_the_items(self):
        # the items only seed the walk: the orbit of 0 under +2 mod 6
        assert orbits([0, 2, 1], lambda x: [(x + 2) % 6]) == \
            [[0, 2, 4], [1, 3, 5]]


class TestPermOrder:
    """perm_order: the lcm of the cycle lengths, perm[x] the image of x."""

    def test_identity(self):
        assert perm_order((0, 1, 2, 3), range(4)) == 1

    def test_one_long_cycle(self):
        assert perm_order(tuple((x + 1) % 9 for x in range(9)), range(9)) == 9

    def test_two_and_three_cycles(self):
        # (0 1)(2 3 4)(5 6) on seven nodes, as a tuple and as a dict
        perm = (1, 0, 3, 4, 2, 6, 5)
        assert perm_order(perm, range(7)) == 6
        assert perm_order(dict(enumerate(perm)), range(7)) == 6
        # only the cycles through the given nodes count
        assert perm_order(perm, [0, 1, 5]) == 2
        assert perm_order(perm, [2]) == 3

    def test_no_nodes(self):
        assert perm_order((), []) == 1
        assert perm_order((1, 0), []) == 1
