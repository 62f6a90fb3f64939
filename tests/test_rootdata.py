"""Root system, fundamental group, and diagram bookkeeping checks.

Expected values are standard facts about the simple types: root counts,
centers, affine marks, and diagram automorphism counts."""

from __future__ import annotations

import hashlib
import time
from itertools import product
from math import gcd, lcm
from operator import mul
from types import SimpleNamespace

import pytest
import sympy

from supercusp import exact, galois, rootdata
from supercusp.correspond import full_report
from supercusp.exact import (FiniteAbelianGroup, InvariantError,
                             group_from_presentation, smith_normal_form)
from supercusp.galois import dual_affine_diagram
from supercusp.rootdata import (
    MAX_RANK,
    RootSystem,
    SimpleGroup,
    build_group,
    isogeny_tokens,
    parse_spec,
    parse_type,
    root_system,
    standard_frobenius_perm,
    string_tops,
)
from test_casetable import catalogue
from test_exact import det_adjugate, integer_inverse, mat_mul


ROOT_COUNTS = {
    ("A", 5): 30,
    ("B", 4): 32,
    ("C", 4): 32,
    ("D", 5): 40,
    ("E", 6): 72,
    ("E", 7): 126,
    ("E", 8): 240,
    ("F", 4): 48,
    ("G", 2): 12,
}


def _systems(top):
    """Every (family, rank) with classical ranks up to top and the
    exceptional types."""
    return [("A", n) for n in range(1, top + 1)] + \
        [(f, n) for f in "BC" for n in range(2, top + 1)] + \
        [("D", n) for n in range(3, top + 1)] + \
        [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]


# every (family, rank) of the case-table catalogue: classical ranks up to 12
# and the exceptional types
CATALOGUE_SYSTEMS = _systems(12)

# every (family, rank, twist) up to MAX_RANK that standard_frobenius_perm
# accepts: 81 untwisted, 2A2-2A20, 2D4-2D20, 3D4 and 2E6
TWISTED_SYSTEMS = [(*key, 1) for key in _systems(MAX_RANK)] + \
    [("A", n, 2) for n in range(2, MAX_RANK + 1)] + \
    [("D", n, 2) for n in range(4, MAX_RANK + 1)] + \
    [("D", 4, 3), ("E", 6, 2)]


# Literal reference for RootSystem.twisted_degrees: the degrees of the basic
# invariants of the Weyl group per family, with D's Pfaffian degree n last,
# where reference_orders flips its sign.
DEGREES = {
    "A": lambda n: list(range(2, n + 2)),
    "B": lambda n: list(range(2, 2 * n + 1, 2)),
    "C": lambda n: list(range(2, 2 * n + 1, 2)),
    "D": lambda n: list(range(2, 2 * n - 1, 2)) + [n],
    "E": lambda n: {6: [2, 5, 6, 8, 9, 12],
                    7: [2, 6, 8, 10, 12, 14, 18],
                    8: [2, 8, 12, 14, 18, 20, 24, 30]}[n],
    "F": lambda n: [2, 6, 8, 12],
    "G": lambda n: [2, 6],
}


def weyl_degrees(family, rank):
    return tuple(DEGREES[family](rank))


def reference_orders(family, rank, twist):
    """(degrees, orders of the Frobenius eigenvalues on them), by the case
    analysis on the listed Weyl degrees that the height rule replaced."""
    degrees = weyl_degrees(family, rank)
    if twist == 1:
        orders = [1] * len(degrees)
    elif twist == 2 and (family == "A" or (family, rank) == ("E", 6)):
        # theta = -w_0 flips the sign on exactly the odd degrees
        orders = [2 if d % 2 else 1 for d in degrees]
    elif twist == 2 and family == "D":
        # the Pfaffian degree (listed last) flips sign
        orders = [1] * (len(degrees) - 1) + [2]
    elif twist == 3 and (family, rank) == ("D", 4):
        degrees, orders = (2, 4, 6), (1, 3, 1)
    else:
        raise ValueError(f"no reference for {twist}{family}{rank}")
    return degrees, orders


def _type_id(key):
    fam, rank, tw = key
    return f"{'' if tw == 1 else tw}{fam}{rank}"


def reflection_orbit(cartan):
    """Every root of a Cartan matrix A, in simple-root coordinates, as the
    orbit of the simple roots under the reflections s_i(beta) = beta -
    <beta, alpha_i^vee> alpha_i, where <beta, alpha_i^vee> = sum_j beta_j
    A[j][i]: a construction independent of RootSystem's alpha-strings."""
    n = len(cartan)
    columns = list(enumerate(zip(*cartan)))

    def reflections(beta):
        return [beta[:i] + (beta[i] - sum(map(mul, beta, col)),)
                + beta[i + 1:] for i, col in columns]

    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return {beta for orb in exact.orbits(simple, reflections)
            for beta in orb}


class TestRootStrings:
    """The roots built by alpha-strings, height by height, against the
    reflection orbit of the simple roots, for every type up to MAX_RANK."""

    @pytest.mark.parametrize("key", _systems(MAX_RANK),
                             ids="{0[0]}{0[1]}".format)
    def test_strings_give_the_reflection_orbit(self, key):
        rs = root_system(*key)
        orbit = reflection_orbit(rs.cartan)
        assert rs.roots == orbit
        top = max(orbit, key=sum)
        # the highest root is the only root of its height
        assert [b for b in orbit if sum(b) == sum(top)] == [top]
        assert rs.hr_coeffs == top
        assert rs.marks == (1,) + top


# the types of the benchmark's workloads: rank and isogeny reports never
# reach the gamma path, and every gamma report has weighted rows
RANK_TYPES = ("B9", "C9", "D9", "2D9", "B10", "C10", "D10", "2D10")
ISOGENY_TYPES = ("2A5", "2A7", "2A9", "B7", "C7", "D4", "D5", "D6", "D7",
                 "D8", "2D4", "2D5", "2D6", "2D7", "2D8", "3D4", "2E6")
GAMMA_TYPES = ("A4", "A5", "A6", "A7", "G2", "F4", "E6")


@pytest.fixture
def built_systems(monkeypatch):
    """Every RootSystem built from here on, after the root-system and
    weight-string memos are emptied."""
    built = []
    real = RootSystem.__init__

    def init(self, *args):
        real(self, *args)
        built.append(self)

    monkeypatch.setattr(RootSystem, "__init__", init)
    root_system.cache_clear()
    galois.inner_torsion_strings.cache_clear()
    return built


class TestLazyRoots:
    """theta, the marks and |Phi+| come from the Cartan matrix; the roots
    are built on first read, and only the adjoint weight strings and the
    volumes' twisted_degrees read them."""

    @pytest.mark.parametrize("key", _systems(MAX_RANK),
                             ids="{0[0]}{0[1]}".format)
    def test_closed_forms_agree_with_the_string_walk(self, key):
        rs = RootSystem(*key)
        assert "roots" not in vars(rs)
        positive = rs._positive_roots()
        assert rs.hr_coeffs == max(positive, key=sum)
        assert rs.rank * sum(rs.marks) % 2 == 0
        assert 2 * rs.num_pos_roots == len(rs.roots) == 2 * len(positive)
        assert rs.roots is vars(rs)["roots"]

    @pytest.mark.parametrize("attr, value", [
        ("num_pos_roots", 17), ("num_pos_roots", 15),
        # a root of B4, but not the highest
        ("hr_coeffs", (1, 1, 1, 1))])
    def test_a_wrong_count_or_theta_raises_on_every_read(self, attr, value):
        rs = RootSystem("B", 4)
        setattr(rs, attr, value)
        before = dict(vars(rs))
        for _ in range(3):
            with pytest.raises(InvariantError, match="alpha_i-strings"):
                rs.roots
        assert vars(rs) == before

    @pytest.mark.parametrize("type_str", RANK_TYPES + ISOGENY_TYPES)
    def test_the_padic_side_builds_no_roots(self, type_str, built_systems):
        # neither on the type's root system nor on its dual's: only the
        # volumes read roots, through twisted_degrees, and only for the
        # components whose class degree is known, 2A2 (_DEG_U3) and B2
        # (_DEG_B2)
        fam, rank, tw = parse_type(type_str)
        isogenies = ["adjoint"] if type_str in RANK_TYPES else \
            [g.isogeny for g in _isogenies(fam, rank, tw)]
        for iso in isogenies:
            full_report(f"{type_str}:{iso}:*")
        dual = galois.dual_type(SimpleGroup(fam, rank, tw))
        for key in {(fam, rank), dual[:2]}:
            assert "roots" not in vars(root_system(*key))
        assert built_systems
        assert {(rs.family, rs.rank) for rs in built_systems
                if "roots" in vars(rs)} <= {("A", 2), ("B", 2)}

    @pytest.mark.parametrize("type_str", GAMMA_TYPES)
    def test_the_gamma_path_builds_the_dual_roots(self, type_str,
                                                  built_systems):
        reports = full_report(f"{type_str}:adjoint:*")
        dual = galois.dual_type(build_group(type_str))
        weighted = {dual[:2] for r in reports
                    if r.param.sl2_weights is not None}
        assert weighted
        assert {(rs.family, rs.rank) for rs in built_systems
                if "roots" in vars(rs)} == weighted


class TestTwistedDegrees:
    """RootSystem.twisted_degrees, read off the root heights, against the
    listed Weyl degrees and the case analysis of the Frobenius eigenvalues
    on them."""

    @pytest.mark.parametrize("key", TWISTED_SYSTEMS, ids=_type_id)
    def test_heights_match_the_reference(self, key):
        perm = standard_frobenius_perm(*key)
        want = sorted(zip(*reference_orders(*key)))
        assert list(root_system(*key[:2]).twisted_degrees(perm)) == want

    def test_every_accepted_twist_is_listed(self):
        accepted = set()
        for fam, rank in _systems(MAX_RANK):
            for tw in (1, 2, 3):
                try:
                    standard_frobenius_perm(fam, rank, tw)
                except ValueError:
                    continue
                accepted.add((fam, rank, tw))
        assert accepted == set(TWISTED_SYSTEMS)
        assert len(TWISTED_SYSTEMS) == 119

    @pytest.mark.parametrize("perm", [
        # no automorphism: swaps two nodes of different valency
        (0, 2, 1, 3, 4),
        # moves node 0: the action of an element of Omega
        (1, 2, 3, 4, 0),
        # too short
        (0, 1, 2, 3)])
    def test_a_perm_outside_the_diagram_autos_raises(self, perm):
        with pytest.raises(InvariantError, match="no automorphism"):
            root_system("A", 4).twisted_degrees(perm)

    def test_unnested_heights_raise(self):
        rs = RootSystem("A", 2)
        # two roots of height 3 over one of height 2
        vars(rs)["roots"] = {(1, 0), (1, 1), (2, 1), (1, 2)}
        with pytest.raises(InvariantError, match="not nested"):
            rs.twisted_degrees((0, 1, 2))


class TestStringTops:
    """string_tops, the one sl2-string decomposition behind
    twisted_degrees and the adjoint weight strings."""

    def test_a_nested_module(self):
        # label "x": the adjoint sl2 (top 2) and a trivial string; label
        # "y": a string of top 3 and one of top 1; label 5: weight 4 only
        # on the positive side, one string of top 4
        graded = {("x", 2): 1, ("x", 0): 2, ("x", -2): 1,
                  ("y", 3): 1, ("y", 1): 2, ("y", -1): 2, ("y", -3): 1,
                  (5, 4): 1, (5, 2): 1, (5, 0): 1}
        assert sorted(string_tops(graded), key=repr) == sorted(
            [("x", 2), ("x", 0), ("y", 3), ("y", 1), (5, 4)], key=repr)

    def test_the_empty_module_has_no_strings(self):
        assert string_tops({}) == []

    @pytest.mark.parametrize("graded", [
        # two vectors of weight 2 over one of weight 0
        {(1, 2): 2, (1, 0): 1},
        # weight 4 with nothing at weight 2 below it
        {(0, 4): 1, (0, 0): 1},
        # one label nested, the other not
        {(0, 2): 1, (0, 0): 1, (1, 3): 1}])
    def test_a_module_that_is_not_nested_raises(self, graded):
        with pytest.raises(InvariantError, match="not nested"):
            string_tops(graded)


class TestRootSystem:
    @pytest.mark.parametrize("key", sorted(ROOT_COUNTS))
    def test_root_counts(self, key):
        rs = root_system(*key)
        assert len(rs.roots) == ROOT_COUNTS[key]
        assert 2 * rs.num_pos_roots == ROOT_COUNTS[key]

    @pytest.mark.parametrize("key", sorted(ROOT_COUNTS))
    def test_degree_sum(self, key):
        rs = root_system(*key)
        identity = tuple(range(rs.rank + 1))
        assert sum(d - 1 for d, _ in rs.twisted_degrees(identity)) == \
            rs.num_pos_roots

    def test_marks(self):
        assert root_system("A", 3).marks == (1, 1, 1, 1)
        assert root_system("B", 3).marks == (1, 1, 2, 2)
        assert root_system("C", 3).marks == (1, 2, 2, 1)
        assert root_system("D", 4).marks == (1, 1, 2, 1, 1)
        assert root_system("G", 2).marks == (1, 3, 2)
        assert root_system("F", 4).marks == (1, 2, 3, 4, 2)
        assert root_system("E", 8).marks == (1, 2, 3, 4, 6, 5, 4, 3, 2)

    def test_e6_cartan_shape(self):
        rs = root_system("E", 6)
        # Bourbaki: chain 1-3-4-5-6 with 2 attached to 4
        adj = {(i, j) for i in range(1, 7) for j in range(1, 7)
               if i < j and rs.cartan[i - 1][j - 1] != 0}
        assert adj == {(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)}

    # Bourbaki's plates, with entry (i, j) = <alpha_i, alpha_j^vee> =
    # 2 (alpha_i, alpha_j) / (alpha_j, alpha_j) and the squared lengths of
    # the simple roots, the shortest being 1
    BOURBAKI = {
        ("A", 4): (((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1),
                    (0, 0, -1, 2)), (1, 1, 1, 1)),
        # chain 1-2-3 with 4 and 5 on 3
        ("D", 5): (((2, -1, 0, 0, 0),
                    (-1, 2, -1, 0, 0),
                    (0, -1, 2, -1, -1),
                    (0, 0, -1, 2, 0),
                    (0, 0, -1, 0, 2)), (1,) * 5),
        # chain 1-3-4-5-6 with 2 on 4
        ("E", 6): (((2, 0, -1, 0, 0, 0),
                    (0, 2, 0, -1, 0, 0),
                    (-1, 0, 2, -1, 0, 0),
                    (0, -1, -1, 2, -1, 0),
                    (0, 0, 0, -1, 2, -1),
                    (0, 0, 0, 0, -1, 2)), (1,) * 6),
        # chain 1-3-4-5-6-7 with 2 on 4
        ("E", 7): (((2, 0, -1, 0, 0, 0, 0),
                    (0, 2, 0, -1, 0, 0, 0),
                    (-1, 0, 2, -1, 0, 0, 0),
                    (0, -1, -1, 2, -1, 0, 0),
                    (0, 0, 0, -1, 2, -1, 0),
                    (0, 0, 0, 0, -1, 2, -1),
                    (0, 0, 0, 0, 0, -1, 2)), (1,) * 7),
        ("B", 3): (((2, -1, 0), (-1, 2, -2), (0, -1, 2)), (2, 2, 1)),
        ("C", 3): (((2, -1, 0), (-1, 2, -1), (0, -2, 2)), (1, 1, 2)),
        ("G", 2): (((2, -1), (-3, 2)), (1, 3)),
        ("F", 4): (((2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -1),
                    (0, 0, -1, 2)), (2, 2, 1, 1)),
        # chain 1-3-4-5-6-7-8 with 2 on 4
        ("E", 8): (((2, 0, -1, 0, 0, 0, 0, 0),
                    (0, 2, 0, -1, 0, 0, 0, 0),
                    (-1, 0, 2, -1, 0, 0, 0, 0),
                    (0, -1, -1, 2, -1, 0, 0, 0),
                    (0, 0, 0, -1, 2, -1, 0, 0),
                    (0, 0, 0, 0, -1, 2, -1, 0),
                    (0, 0, 0, 0, 0, -1, 2, -1),
                    (0, 0, 0, 0, 0, 0, -1, 2)), (1,) * 8),
    }

    @pytest.mark.parametrize("key", sorted(BOURBAKI), ids="{0[0]}{0[1]}".format)
    def test_cartan_and_lengths(self, key):
        rs = root_system(*key)
        assert (rs.cartan, rs.lengths) == self.BOURBAKI[key]

    @pytest.mark.parametrize("key", CATALOGUE_SYSTEMS, ids="{0[0]}{0[1]}".format)
    def test_weyl_degrees_count_the_roots(self, key):
        # the literal reference table against rank * h / 2
        assert sum(d - 1 for d in weyl_degrees(*key)) == \
            root_system(*key).num_pos_roots

    def test_affine_node_attachment(self):
        # affine node of B_n attaches to node 2; of C_n to node 1
        b = root_system("B", 4)
        assert [j for j in range(1, 5) if b.affine_cartan[0][j] != 0] == [2]
        c = root_system("C", 4)
        assert [j for j in range(1, 5) if c.affine_cartan[0][j] != 0] == [1]

    # Kac, Infinite-Dimensional Lie Algebras, Table Aff 1, with entry
    # (i, j) = <alpha_i, alpha_j^vee> (the transpose of Kac's a_ij) and
    # node 0 the extending node
    KAC_AFF1 = {
        ("A", 1): ((2, -2), (-2, 2)),
        # nodes 0 and 1 both on node 2
        ("B", 3): ((2, 0, -1, 0), (0, 2, -1, 0), (-1, -1, 2, -2),
                   (0, 0, -1, 2)),
        # the long node 0 on the short end of the chain
        ("C", 3): ((2, -2, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1),
                   (0, 0, -2, 2)),
        # node 0 on the long node 2 by a single bond
        ("G", 2): ((2, 0, -1), (0, 2, -1), (-1, -3, 2)),
        ("F", 4): ((2, -1, 0, 0, 0), (-1, 2, -1, 0, 0), (0, -1, 2, -2, 0),
                   (0, 0, -1, 2, -1), (0, 0, 0, -1, 2)),
    }

    @pytest.mark.parametrize("key", sorted(KAC_AFF1),
                             ids="{0[0]}{0[1]}".format)
    def test_affine_cartan_against_kac(self, key):
        assert root_system(*key).affine_cartan == self.KAC_AFF1[key]

    @pytest.mark.parametrize("family", "ABCDEFG")
    def test_affine_cartan_is_symmetrizable(self, family):
        # -theta is long, so A diag(max(L), L) is 2 (alpha_i, alpha_j)
        for rank in range(1, MAX_RANK + 1):
            try:
                rs = root_system(family, rank)
            except ValueError:
                continue
            A, L = rs.affine_cartan, (max(rs.lengths),) + rs.lengths
            nodes = range(rank + 1)
            assert all(A[i][j] * L[j] == A[j][i] * L[i]
                       for i in nodes for j in nodes), f"{family}{rank}"

    @pytest.mark.parametrize("key", [(*k, 1) for k in CATALOGUE_SYSTEMS]
                             + [("E", 6, 2), ("D", 4, 3)], ids=_type_id)
    def test_marks_annihilate_affine_cartan(self, key):
        # delta = sum_i a_i alpha_i pairs to zero with every affine coroot,
        # on the untwisted diagrams and on the hand-written fused chains
        marks, cartan = dual_affine_diagram(key)
        nodes = range(len(marks))
        assert all(sum(marks[i] * cartan[i][j] for i in nodes) == 0
                   for j in nodes)

    @pytest.mark.parametrize("key", CATALOGUE_SYSTEMS, ids="{0[0]}{0[1]}".format)
    def test_roots_in_simple_coordinates(self, key):
        rs = root_system(*key)
        for beta in rs.roots:
            assert tuple(-c for c in beta) in rs.roots
            assert min(beta) >= 0 or max(beta) <= 0
            if sum(beta) > 0:
                assert all(b <= h for b, h in zip(beta, rs.hr_coeffs))
        # the highest root is dominant: <theta, alpha_j^vee> >= 0
        n, theta = rs.rank, rs.hr_coeffs
        assert all(sum(theta[i] * rs.cartan[i][j] for i in range(n)) >= 0
                   for j in range(n))


def _omega_G_orders(g):
    """Invariant factors of Omega_G, the isogeny's fundamental group."""
    return g.rs.quotient_invariants(g.omega_G, {g.rs.omega.identity()})


def _isogenies(fam, rank, tw):
    """Every Frobenius-stable isogeny of one type."""
    for iso in isogeny_tokens(fam, rank):
        try:
            yield SimpleGroup(fam, rank, tw, iso)
        except ValueError:
            continue


def _lattice_basis(cols):
    """Basis matrix (columns) of the lattice spanned by integer columns."""
    n = len(cols[0])
    U, D, _ = smith_normal_form([[col[i] for col in cols] for i in range(n)])
    Uinv = integer_inverse(U)
    if any(D[i][i] == 0 for i in range(n)):
        pytest.fail("lattice not full rank")
    return [[Uinv[i][j] * D[j][j] for j in range(n)] for i in range(n)]


def _lift(g, x):
    """x as a coweight: Omega is simply transitive on the special nodes, so
    x is the class of the fundamental coweight of the special node that it
    moves node 0 to, or of 0 when that node is 0."""
    j = g.rs.omega_action[x][0]
    return [int(i == j) for i in range(1, g.rank + 1)]


def _cocharacter_quotient(g):
    """X_*/Q^vee and its Frobenius coinvariants, from the cocharacter
    lattice itself: the coroot lattice extended by lifts of Omega_G, in
    fundamental-coweight coordinates, presented in the lattice's own basis.
    The coinvariants are Z^n / <coroots, columns of theta - 1>."""
    n = g.rank
    coroots = [[g.rs.cartan[i][j] for i in range(n)] for j in range(n)]
    B = _lattice_basis(coroots + [_lift(g, x) for x in sorted(g.omega_G)])
    det, adj = det_adjugate(B)

    def in_basis(vec, what):
        """Coordinates of an integer vector in the lattice basis."""
        out = []
        for row in adj:
            c, r = divmod(sum(a * v for a, v in zip(row, vec)), det)
            if r:
                pytest.fail(f"{g.spec_string()}: {what}")
            out.append(c)
        return out

    rels = [in_basis(col, "coroot outside the isogeny lattice")
            for col in coroots]
    P_theta = [[0] * n for _ in range(n)]
    for i in range(1, n + 1):
        P_theta[g.theta[i] - 1][i - 1] = 1
    # theta in the lattice basis, B^-1 * P_theta * B, column by column
    PB = mat_mul(P_theta, B)
    theta_cols = [in_basis([PB[i][j] for i in range(n)],
                           "isogeny lattice not Frobenius stable")
                  for j in range(n)]
    moved = [[c - (i == j) for i, c in enumerate(col)]
             for j, col in enumerate(theta_cols)]
    return (group_from_presentation(n, rels).group,
            group_from_presentation(n, rels + moved).group)


def _coweight_action(g, perm):
    """A finite-diagram automorphism on Omega through the coweights: lift x
    to the coweight lattice, permute the fundamental coweights, project."""
    def act(x):
        vec = _lift(g, x)
        out = [0] * g.rank
        for i in range(1, g.rank + 1):
            out[perm[i] - 1] = vec[i - 1]
        return g.rs.omega_pres.project(out)

    return act


class TestLatticeOracle:
    """The report reads an isogeny only through Omega_G and theta on it;
    the cocharacter lattice, built here and nowhere in the package, must
    give the same group and the same Kottwitz coinvariants."""

    @pytest.mark.parametrize("key", catalogue(), ids=_type_id)
    def test_cocharacter_quotient_is_omega_G(self, key):
        for g in _isogenies(*key):
            fund, coinv = _cocharacter_quotient(g)
            assert fund.order() == len(g.omega_G)
            assert fund.orders == _omega_G_orders(g)
            assert coinv.orders == g.kottwitz_data()["omega_coinv"]

    @pytest.mark.parametrize("key", catalogue(), ids=_type_id)
    def test_theta_table_against_coweights(self, key):
        # the node-conjugation tables against the coweight path, for theta
        # and for every diagram automorphism
        for g in _isogenies(*key):
            for p in g.rs.diagram_autos:
                act, lifted = g.rs.aut_on_omega(p), _coweight_action(g, p)
                assert all(act[x] == lifted(x) for x in g.rs.omega.elements())
            lifted = _coweight_action(g, g.theta)
            for x in g.rs.omega.elements():
                assert g.theta_omega[x] == lifted(x)
                y = x
                for _ in range(g.twist_order):
                    y = g.theta_omega[y]
                assert y == x

    @pytest.fixture
    def smith_calls(self, monkeypatch):
        """The sizes of the matrices handed to the Smith normal form."""
        calls = []
        real = exact.smith_normal_form

        def counting(A):
            calls.append(len(A))
            return real(A)

        monkeypatch.setattr(exact, "smith_normal_form", counting)
        # and any copy of the name imported into rootdata
        monkeypatch.setattr(rootdata, "smith_normal_form", counting,
                            raising=False)
        # the counter sees the elimination behind a presentation
        exact.group_from_presentation(1, [[2]])
        assert calls
        calls.clear()
        return calls

    def test_group_build_runs_no_smith_form(self, smith_calls):
        built = 0
        for fam, rank, tw in catalogue():
            root_system(fam, rank)
            smith_calls.clear()
            built += sum(1 for _ in _isogenies(fam, rank, tw))
            assert smith_calls == [], f"{_type_id((fam, rank, tw))}"
        assert built > 150

    def test_one_smith_form_per_root_system(self, smith_calls):
        # every catalogue report, on root systems built afresh: Omega is
        # presented once per root system, and every subquotient after that
        # is counted
        specs = [g.spec_string("*") for key in catalogue()
                 for g in _isogenies(*key)]
        root_system.cache_clear()
        smith_calls.clear()
        for spec in specs:
            full_report(spec)
        assert len(specs) == 192
        assert len(smith_calls) == root_system.cache_info().currsize == 49


FUNDAMENTAL_ORDERS = {
    "A4": 5, "A5": 6, "B3": 2, "C4": 2, "D4": 4, "D5": 4,
    "E6": 3, "E7": 2, "E8": 1, "F4": 1, "G2": 1,
}


class TestFundamentalGroup:
    @pytest.mark.parametrize("ts", sorted(FUNDAMENTAL_ORDERS))
    def test_order(self, ts):
        g = build_group(ts, "adjoint")
        assert len(g.rs.omega.elements()) == FUNDAMENTAL_ORDERS[ts]

    @pytest.mark.parametrize("family", "ABCDEFG")
    def test_order_is_the_cartan_determinant(self, family):
        # |Omega| from the Smith form, against sympy's determinant of the
        # Cartan matrix (over ZZ, much faster than the default on Matrix)
        # and the special nodes counted from the marks
        for rank in range(1, MAX_RANK + 1):
            try:
                rs = root_system(family, rank)
            except ValueError:
                continue
            det = sympy.Matrix(rs.cartan).to_DM().det()
            assert rs.omega.order() == abs(det) == rs.marks.count(1), \
                f"{family}{rank}"

    # sha256 of one line per type: its invariant factors and the label of
    # every fundamental coweight.  The inner-form tokens of every spec are
    # read off these labels, so a relabelled Omega renumbers them.
    OMEGA_LABELS = \
        "c1647f46a68101b6768c13453890e2778cdc3407e78048280292cc1c9c0dc724"

    def test_omega_labels_are_pinned(self):
        lines = []
        for fam, (lo, hi) in rootdata._RANKS.items():
            for rank in range(lo, min(hi or MAX_RANK, MAX_RANK) + 1):
                rs = root_system(fam, rank)
                lines.append(" ".join(
                    [f"{fam}{rank}", str(rs.omega.orders)]
                    + [str(rs.coweight_class(j)) for j in range(1, rank + 1)]))
        assert len(lines) == 81
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.OMEGA_LABELS

    def test_d_even_vs_odd(self):
        even = build_group("D6", "adjoint")
        odd = build_group("D5", "adjoint")
        assert _omega_G_orders(even) == (2, 2)
        assert _omega_G_orders(odd) == (4,)

    THETA_FIXED = {
        "2A5": 2, "2A4": 1, "3D4": 1, "2E6": 1, "2D6": 2, "2D5": 2,
    }

    @pytest.mark.parametrize("ts", sorted(THETA_FIXED))
    def test_theta_fixed_sizes(self, ts):
        g = build_group(ts, "adjoint")
        assert len(g.omega_ad_theta) == self.THETA_FIXED[ts]

    def test_theta_fixed_is_the_definition(self):
        # the sets kept by the group against theta on Omega, element by
        # element, for every isogeny of every catalogue type up to rank 8
        types = [(fam, r, tw) for fam, lo, twists in (
            ("A", 1, (1, 2)), ("B", 2, (1,)), ("C", 2, (1,)),
            ("D", 3, (1, 2))) for r in range(lo, 9) for tw in twists]
        types += [("D", 4, 3), ("E", 6, 1), ("E", 6, 2), ("E", 7, 1),
                  ("E", 8, 1), ("F", 4, 1), ("G", 2, 1)]
        checked = 0
        for fam, rank, tw in types:
            for iso in isogeny_tokens(fam, rank):
                try:
                    g = SimpleGroup(fam, rank, tw, iso)
                except ValueError:
                    continue
                assert g.omega_ad_theta == frozenset(
                    x for x in g.rs.omega.elements() if g.theta_omega[x] == x)
                assert g.omega_G_theta == frozenset(
                    x for x in g.omega_G if g.theta_omega[x] == x)
                checked += 1
        assert checked > 100

    COINV_CLASSES = {
        "A3": 4, "2A5": 2, "2A4": 1, "3D4": 1, "2E6": 1, "D6": 4, "2D6": 2,
    }

    @pytest.mark.parametrize("ts", sorted(COINV_CLASSES))
    def test_inner_class_counts(self, ts):
        g = build_group(ts, "adjoint")
        assert len(g.adjoint_coinvariant_classes()) == self.COINV_CLASSES[ts]


class TestIsogenies:
    def test_tokens(self):
        assert isogeny_tokens("A", 5) == ["sc", "d2", "d3", "adjoint"]
        assert isogeny_tokens("D", 6) == ["sc", "so", "hs1", "hs2", "adjoint"]
        assert isogeny_tokens("D", 5) == ["sc", "so", "adjoint"]
        assert isogeny_tokens("E", 8) == ["adjoint"]

    def test_intermediate_sizes(self):
        assert _omega_G_orders(build_group("A5", "d2")) == (2,)
        assert _omega_G_orders(build_group("A5", "d3")) == (3,)
        assert _omega_G_orders(build_group("D6", "so")) == (2,)
        assert _omega_G_orders(build_group("D6", "hs1")) == (2,)

    def test_frobenius_rejects_unstable_isogeny(self):
        # half-spin of 2D6 is not stable under the diagram flip
        with pytest.raises(ValueError):
            build_group("2D6", "hs1")
        # but so(2n) is stable
        build_group("2D6", "so")

    def test_aliases(self):
        # each alias names the canonical token it stands for
        for type_str, alias, token in (("A3", "d1", "sc"),
                                       ("A3", "d4", "adjoint"),
                                       ("B3", "so", "adjoint"),
                                       ("G2", "sc", "adjoint"),
                                       ("E8", "sc", "adjoint")):
            assert build_group(type_str, alias).isogeny == token
            assert build_group(type_str, alias).omega_G == \
                build_group(type_str, token).omega_G

    def test_rejected_tokens_keep_their_messages(self):
        with pytest.raises(ValueError) as exc:
            build_group("A2", "d4")
        assert str(exc.value) == "A2 has no isogeny d4: 4 must divide 3"
        with pytest.raises(ValueError) as exc:
            build_group("A5", "d02")
        assert str(exc.value) == "unknown isogeny 'd02' for type A"

    @pytest.mark.parametrize("key", CATALOGUE_SYSTEMS, ids="{0[0]}{0[1]}".format)
    def test_table_orders(self, key):
        # |Omega_G| is k for d{k}, 2 for so, hs1 and hs2, and runs from 1
        # at sc to |Omega| at adjoint
        rs = root_system(*key)
        assert list(rs.isogenies) == isogeny_tokens(*key)
        for token, sub in rs.isogenies.items():
            want = {"sc": 1, "so": 2, "hs1": 2, "hs2": 2,
                    "adjoint": rs.omega.order()}.get(token)
            assert len(sub) == (want or int(token[1:])), token

    def test_sc_and_adjoint_always_stable(self):
        for ts in ["2A5", "2D5", "3D4", "2E6"]:
            build_group(ts, "sc")
            build_group(ts, "adjoint")


# the order of the finite diagram's automorphism group, for every type up
# to MAX_RANK: S3 on D4, a flip on A_n (n >= 2), D_n and E6, else trivial
DIAGRAM_AUTO_COUNTS = {
    f"{fam}{n}": 6 if (fam, n) == ("D", 4) else
    2 if fam == "D" or (fam == "A" and n >= 2) or (fam, n) == ("E", 6) else 1
    for fam, n in _systems(MAX_RANK)}


class TestDiagramAutomorphisms:
    @pytest.mark.parametrize("ts", sorted(DIAGRAM_AUTO_COUNTS))
    def test_counts(self, ts):
        # the diagram automorphisms are the stabilizer of node 0 in the
        # affine diagram's: each fixes 0 and keeps the finite Cartan matrix
        g = build_group(ts, "adjoint")
        autos, A, nodes = g.rs.diagram_autos, g.rs.cartan, range(g.rank)
        assert autos[0] == tuple(range(g.rank + 1))
        assert autos == sorted(set(autos))
        for p in autos:
            assert p[0] == 0
            assert all(A[p[i + 1] - 1][p[j + 1] - 1] == A[i][j]
                       for i in nodes for j in nodes)
        assert len(autos) == DIAGRAM_AUTO_COUNTS[ts]

    def test_commutes_flag_on_twisted(self):
        g = build_group("3D4", "adjoint")
        theta = g.theta
        # triality generates; the flip does not commute with it
        commuting = [p for p in g.rs.diagram_autos
                     if all(p[theta[i]] == theta[p[i]] for i in range(len(p)))]
        assert len(g.rs.diagram_autos) == 6
        assert len(commuting) == 3
        assert theta in commuting

    def test_frobenius_perm_orders(self):
        # the derived theta is Bourbaki's standard permutation: the A_n
        # flip, n - 1 <-> n on D_n, 1 <-> 6 and 3 <-> 5 on E6, and the D4
        # triality 1 -> 3 -> 4 -> 1
        for n in range(1, MAX_RANK + 1):
            ident = tuple(range(n + 1))
            assert standard_frobenius_perm("A", n, 1) == ident
            if n >= 2:
                assert standard_frobenius_perm("A", n, 2) == \
                    (0, *range(n, 0, -1))
            if n >= 4:
                assert standard_frobenius_perm("D", n, 2) == \
                    ident[:-2] + (n, n - 1)
        assert standard_frobenius_perm("E", 6, 2) == (0, 6, 2, 5, 4, 3, 1)
        assert standard_frobenius_perm("D", 4, 3) == (0, 3, 2, 4, 1)
        for ts, message in [("2A1", "A1 has no outer automorphism of order 2"),
                            ("2B3", "B3 has no outer automorphism of order 2"),
                            ("3A3", "triality twist exists only for D4"),
                            ("2D3", "D3 is A3: write its outer form as 2A3")]:
            fam, rank, order = ts[1], int(ts[2:]), int(ts[0])
            with pytest.raises(ValueError, match=message):
                standard_frobenius_perm(fam, rank, order)
            with pytest.raises(ValueError, match=message):
                parse_type(ts)

    def test_one_automorphism_search_per_twisted_report(self, monkeypatch):
        # the diagram automorphisms, the Frobenius and Omega's node action
        # all come from one search on the affine Cartan matrix: a cold
        # twisted report runs it once, on the 6 nodes of affine D5
        sizes = []
        real = rootdata._automorphisms

        def counted(cartan, fixed_maps):
            sizes.append(len(cartan))
            return real(cartan, fixed_maps)

        monkeypatch.setattr(rootdata, "_automorphisms", counted)
        root_system.cache_clear()
        assert full_report("2D5:so:*")
        assert sizes == [6]


class TestParsing:
    def test_parse_type(self):
        assert parse_type("2A5") == ("A", 5, 2)
        assert parse_type("E8") == ("E", 8, 1)
        with pytest.raises(ValueError):
            parse_type("4A5")
        # a type is spelled one way only: no twist prefix 1
        with pytest.raises(ValueError):
            parse_type("1A2")

    def test_ascii_digits_only(self):
        # re's \d and int() also take other scripts' digits (here
        # Arabic-Indic), and $ matches before a final newline; a rank or an
        # isogeny d{k} is spelled in ASCII digits, with nothing after them
        for type_str in ("A1\u0663", "B1\u0660", "A1\n"):
            with pytest.raises(ValueError, match="bad type string"):
                parse_type(type_str)
        for token in ("d1\u0662", "d\u0664", "d2\n"):
            with pytest.raises(ValueError, match="unknown isogeny"):
                build_group("A11", token)

    def test_rank_cap(self):
        # the catalogue goes to rank 12
        assert MAX_RANK >= 12
        assert parse_type(f"B{MAX_RANK}") == ("B", MAX_RANK, 1)
        # int() refuses more than 4,300 digits by default, so the cap is
        # checked on the digit count first
        for rank in (MAX_RANK + 1, "1" * 4301, "1" * 5000):
            with pytest.raises(ValueError, match="maximum rank"):
                parse_type(f"B{rank}")

    def test_huge_spec_fails_fast(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="field 1"):
            full_report("A200:adjoint:*")
        assert time.perf_counter() - start < 1.0

    def test_spec_roundtrip(self):
        g, twist = parse_spec("2A5:adjoint:w1")
        assert g.type_string() == "2A5"
        assert twist == "w1"
        assert g.spec_string("w1") == "2A5:adjoint:w1"

    def test_kottwitz_data_shape(self):
        g = build_group("2A5", "sc")
        data = g.kottwitz_data()
        assert set(data) == {"omega_theta", "omega_coinv", "omega_ad_coinv"}
        # PU_6 versus SU_6: two adjoint twisting classes either way
        assert len(data["omega_ad_coinv"]) == 2


class TestOmegaAction:
    def test_a_family_rotation(self):
        g = build_group("A4", "adjoint")
        w = g.rs.coweight_class(1)
        # acts as a 5-cycle on the affine nodes
        node, seen = 0, set()
        for _ in range(5):
            seen.add(node)
            node = g.rs.omega_action[w][node]
        assert node == 0 and len(seen) == 5

    def test_e7_action_is_flip(self):
        g = build_group("E7", "adjoint")
        w = [x for x in g.rs.omega.elements() if x != g.rs.omega.identity()][0]
        perm = g.rs.omega_action[w]
        assert perm[0] == 7 and perm[7] == 0
        assert perm[2] == 2 and perm[4] == 4

    @pytest.mark.parametrize("ts, perm", [
        ("G2", (0, 2, 1)), ("B3", (0, 1, 3, 2)), ("A3", (0, 2, 1, 3)),
        ("A3", (1, 2, 3, 0)),
    ], ids=["G2", "B3", "A3", "A3-rotation"])
    def test_non_automorphism_rejected(self, ts, perm):
        # a node permutation that does not keep the Cartan matrix, or that
        # moves node 0, is no finite-diagram automorphism
        g = build_group(ts, "adjoint")
        with pytest.raises(InvariantError, match="no automorphism"):
            g.rs.aut_on_omega(perm)

    @pytest.mark.parametrize("key", [("A", 4), ("D", 4), ("D", 5), ("E", 6)],
                             ids="{0[0]}{0[1]}".format)
    def test_mislabelled_special_node_rejected(self, key, monkeypatch):
        # labels swapped on nodes 1 and 2 either repeat a label or give a
        # move of the special nodes that no diagram automorphism makes
        real = RootSystem.coweight_class
        monkeypatch.setattr(RootSystem, "coweight_class",
                            lambda rs, j: real(rs, {1: 2, 2: 1}.get(j, j)))
        with pytest.raises(InvariantError):
            RootSystem(*key)

    def test_faithful(self):
        for ts in ["A5", "D4", "D5", "E6"]:
            g = build_group(ts, "adjoint")
            ident = tuple(range(g.rank + 1))
            fixing = [w for w in g.rs.omega.elements()
                      if g.rs.omega_action[w] == ident]
            assert fixing == [g.rs.omega.identity()]


def _order_statistics(orders):
    stats = {}
    for o in orders:
        stats[o] = stats.get(o, 0) + 1
    return stats


def _chain_statistics(chain):
    """Element-order statistics of Z/d_1 x ... x Z/d_k."""
    return _order_statistics(
        lcm(1, *(d // gcd(v, d) for v, d in zip(vec, chain)))
        for vec in product(*(range(d) for d in chain)))


class TestOmegaInvariants:
    @pytest.mark.parametrize("ts, cyclic", [("A5", (6,)), ("A11", (12,))])
    def test_cyclic_omega_theta_is_one_factor(self, ts, cyclic):
        data = build_group(ts).kottwitz_data()
        assert data["omega_theta"] == cyclic
        assert data["omega_coinv"] == cyclic

    def test_three_invariant_factors_raise(self):
        # order and exponent fix the invariant factors only up to two of
        # them: (Z/2)^3 has order 8 and exponent 2, so no Z/a x Z/2 fits
        cube = SimpleNamespace(omega=FiniteAbelianGroup((2, 2, 2)))
        with pytest.raises(InvariantError, match="two cyclics"):
            RootSystem.quotient_invariants(
                cube, cube.omega.elements(), {cube.omega.identity()})

    @pytest.mark.parametrize("key", CATALOGUE_SYSTEMS, ids="{0[0]}{0[1]}".format)
    def test_every_subquotient(self, key):
        """H/K for all subgroups K <= H of Omega: subgroups (K trivial),
        quotients (H = Omega) and the rest.  Omega has at most two
        invariant factors, so two generators reach every subgroup."""
        g = SimpleGroup(*key)
        omega = g.rs.omega
        elems = g.rs.omega.elements()
        subgroups = {omega.subgroup_generated([x, y])
                     for x in elems for y in elems}
        for H in subgroups:
            for K in subgroups:
                if not K <= H:
                    continue
                chain = g.rs.quotient_invariants(H, K)
                assert all(d > 1 for d in chain)
                assert all(b % a == 0 for a, b in zip(chain, chain[1:]))
                size = 1
                for d in chain:
                    size *= d
                assert size * len(K) == len(H)

                def coset_order(x):
                    m, y = 1, x
                    while y not in K:
                        y, m = omega.add(y, x), m + 1
                    return m

                stats = _order_statistics(coset_order(x) for x in H)
                assert stats == {o: c * len(K) for o, c in
                                 _chain_statistics(chain).items()}
