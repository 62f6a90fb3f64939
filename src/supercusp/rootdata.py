"""Root systems, based root data, affine diagrams, and fundamental groups.

Each simple type is given by its Dynkin diagram: Bourbaki's bonded pairs of
simple roots and their squared lengths, from which cartan_matrix reads the
Cartan matrix.  Every other fact about a type is read off that matrix, in
integers: the highest root theta by reflecting a long simple root up to the
dominant one, and the affine diagram adds the row of -theta, with theta's
coefficients as its marks; the number of positive roots is rank * h / 2, h
being the sum of the marks.  The roots themselves are built height by
height from alpha_i-strings on first read (RootSystem.roots), for the
adjoint weight strings and for RootSystem.twisted_degrees, the Weyl
degrees with a diagram automorphism's eigenvalues on them.  Both are sl2
decompositions, read off graded multiplicities by string_tops, the one
place that counts strings.  Omega = P_cowt/Q_corootlat is presented
once, by the Smith form of the Cartan matrix, which also labels the special
nodes (coweight_class); after that every subgroup of Omega is an element
set, and RootSystem.quotient_invariants reads a subquotient from its order
and exponent, by counting.  Omega's node action, the diagram automorphisms and
the standard Frobenius come from one search per root system, _automorphisms
on the affine Cartan matrix: the automorphisms fixing node 0 keep -theta,
so they are the finite diagram's, and those extending a move of the special
nodes give Omega's action; none is transcribed.  Every node permutation is
a tuple of images over the affine nodes 0..rank.  Node numbering follows
Bourbaki, and the extending affine node is index 0 in every simple factor.

An isogeny is named by its subgroup Omega_G of the adjoint fundamental
group, with the Frobenius acting on it: X_*/Q^vee is Omega_G, so nothing
here builds the cocharacter lattice X_* itself.  RootSystem.isogenies is
the one table of them, from canonical token to Omega_G.  A SimpleGroup
holds only what the Frobenius twist and the isogeny add to its root
system; everything else, Omega_ad with its node action and the affine
Cartan matrix among it, is read from the group's RootSystem, group.rs.

Group specs are written TYPE:ISOGENY:TWIST, for example 2A5:adjoint:w1.
"""

from __future__ import annotations

import re
from collections import Counter
from functools import cached_property, lru_cache
from math import lcm
from operator import add

from supercusp.exact import (InvariantError, group_from_presentation, orbits,
                             perm_order)


# ---------------------------------------------------------------------------
# Dynkin diagrams (Bourbaki numbering)
# ---------------------------------------------------------------------------


# smallest and largest rank of each family (None: no largest)
_RANKS = {"A": (1, None), "B": (2, None), "C": (2, None), "D": (3, None),
          "E": (6, 8), "F": (4, 4), "G": (2, 2)}


def _check_rank(family, rank):
    if family not in _RANKS:
        raise ValueError(f"unknown family {family!r}")
    lo, hi = _RANKS[family]
    if rank < lo:
        raise ValueError(f"{family} needs rank >= {lo}, not {rank}")
    if hi is not None and rank > hi:
        raise ValueError(f"{family} needs rank <= {hi}, not {rank}")


def dynkin_diagram(family, rank):
    """(bonds, lengths) of the Dynkin diagram in Bourbaki's numbering:
    the bonded pairs of simple roots, as positions (node i at i - 1), and
    the squared lengths of the simple roots, the shortest being 1."""
    _check_rank(family, rank)
    chain = [(i, i + 1) for i in range(rank - 1)]
    if family == "D":
        # nodes n - 1 and n both hang off node n - 2
        return chain[:-1] + [(rank - 3, rank - 1)], (1,) * rank
    if family == "E":
        # the chain 1-3-4-...-n with node 2 on node 4
        return [(0, 2), (1, 3)] + chain[2:], (1,) * rank
    lengths = {"A": (1,) * rank,
               "B": (2,) * (rank - 1) + (1,),
               "C": (1,) * (rank - 1) + (2,),
               "F": (2, 2, 1, 1),
               "G": (1, 3)}[family]
    return chain, lengths


def bond_neighbours(bonds, lengths):
    """Each node's bonded neighbours b, each with the Cartan entry
    <alpha_a, alpha_b^vee> = 2 (alpha_a, alpha_b) / (alpha_b, alpha_b)
    = -max(L_a, L_b) / L_b, from the squared lengths L."""
    out = {a: {} for a in range(len(lengths))}
    for i, j in bonds:
        for a, b in ((i, j), (j, i)):
            out[a][b] = -max(lengths[a], lengths[b]) // lengths[b]
    return out


def cartan_matrix(bonds, lengths):
    """Cartan matrix of a diagram: 2 on the diagonal, and across a bond
    the entry bond_neighbours gives."""
    nbrs = bond_neighbours(bonds, lengths)
    return tuple(tuple(nbrs[i].get(j, 2 * (i == j)) for j in nbrs)
                 for i in nbrs)


def string_tops(graded):
    """One (label, w) per irreducible sl2-string of top weight w, from the
    multiplicity graded[label, weight] of each weight space: a string of
    top w meets the weights w, w - 2, ..., -w once each, so m(w) - m(w + 2)
    strings of a label top out at w >= 0.  InvariantError where that is
    negative: the weight spaces of the label are not nested."""
    top = max((w for _, w in graded), default=-1)
    out = []
    for label in dict.fromkeys(label for label, _ in graded):
        for w in range(top, -1, -1):
            count = graded.get((label, w), 0) - graded.get((label, w + 2), 0)
            if count < 0:
                raise InvariantError(f"weight {w + 2} of label {label} is "
                                     f"not nested in weight {w}")
            out += [(label, w)] * count
    return out


# ---------------------------------------------------------------------------
# RootSystem: one simple factor
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def root_system(family, rank):
    return RootSystem(family, rank)


class RootSystem:
    """Simple root system in simple-root coordinates, with its affine
    diagram and the fundamental group of the adjoint form acting on it.

    A root is the tuple of its coefficients over the simple roots, and
    lengths holds the squared lengths of the simple roots, the shortest
    being 1."""

    def __init__(self, family, rank):
        self.family, self.rank = family, rank
        bonds, self.lengths = dynkin_diagram(family, rank)
        self.cartan = cartan_matrix(bonds, self.lengths)
        self.hr_coeffs, theta_pairing = self._highest_root()
        # marks: node 0 (the extending node) always carries 1
        self.marks = (1,) + self.hr_coeffs
        # |Phi+| = rank * h / 2, the Coxeter number h being the mark sum;
        # every use reads the roots, which checks it
        self.num_pos_roots = rank * sum(self.marks) // 2
        self.affine_cartan = self._affine_cartan(theta_pairing)
        self._build_omega()
        self._build_isogenies()

    # -- root combinatorics --------------------------------------------------

    def _highest_root(self):
        """theta, the unique dominant long root, with its pairings: from a
        long simple root, while some c = <beta, alpha_i^vee> < 0, s_i adds
        -c alpha_i to beta, raising it, and -c A[i] to its pairings
        (Humphreys, Reflection Groups and Coxeter Groups, 3.18-3.20)."""
        A, j = self.cartan, self.lengths.index(max(self.lengths))
        beta, pairing = [int(i == j) for i in range(self.rank)], A[j]
        while (c := min(pairing)) < 0:
            i = pairing.index(c)
            beta[i] -= c
            pairing = [p - c * a for p, a in zip(pairing, A[i])]
        return tuple(beta), pairing

    @cached_property
    def roots(self):
        """Every root, built on first read by _positive_roots, which must
        find num_pos_roots positive roots, theta last."""
        positive = self._positive_roots()
        if (len(positive), positive[-1]) != (self.num_pos_roots,
                                             self.hr_coeffs):
            raise InvariantError(f"the alpha_i-strings of {self.family}"
                                 f"{self.rank} end at {positive[-1]} after "
                                 f"{len(positive)} positive roots")
        return {*positive, *(tuple(-c for c in b) for b in positive)}

    def _positive_roots(self):
        """The positive roots by height, each above height 1 some beta +
        alpha_i (Humphreys, Lie Algebras, 9.4): the alpha_i-string through
        beta runs unbroken from beta - p alpha_i to beta + q alpha_i, with
        p - q = <beta, alpha_i^vee>, a pairing each root carries; going up
        by alpha_i adds row i of the Cartan matrix to it."""
        n, A = self.rank, self.cartan
        level = {tuple(int(i == j) for j in range(n)): A[i] for i in range(n)}
        found = {}
        while level:
            found.update(level)
            below, level = level, {}
            for beta, pairing in below.items():
                for i, (b, c) in enumerate(zip(beta, pairing)):
                    # q > 0 iff p > c iff beta - (c+1) alpha_i is a root
                    if c < 0 or c < b and (
                            beta[:i] + (b - c - 1,) + beta[i + 1:] in found):
                        up = beta[:i] + (b + 1,) + beta[i + 1:]
                        if up not in level:
                            level[up] = tuple(map(add, pairing, A[i]))
        return list(found)

    def twisted_degrees(self, perm):
        """(d, o), sorted, per Galois orbit of eigenvalues of order o of
        perm, one of diagram_autos (InvariantError otherwise), on the basic
        invariants of degree d; the Weyl degrees with o = 1 for perm = 1.
        The principal sl2 commutes with perm and gives height k the weight
        2k, so each string of top 2k, labelled by its eigenvalue order
        (string_tops), gives a basic invariant of degree k + 1 with that
        eigenvalue (Kostant, Amer. J. Math. 81, 1959).  perm permutes the
        root spaces, an L-cycle carrying the L-th roots of unity, but -1 on
        a fixed root if a node is bonded to its image, as on A_2n (Kac,
        Infinite dimensional Lie algebras, Ch. 7-8)."""
        if perm not in self.diagram_autos:
            raise InvariantError(f"{perm} is no automorphism of the diagram "
                                 f"of {self.family}{self.rank}")
        # perm beta has beta[i] at position perm[i + 1] - 1
        source = sorted(range(self.rank), key=lambda i: perm[i + 1])
        flip = any(self.cartan[i][perm[i + 1] - 1] < 0
                   for i in range(self.rank))
        graded = Counter()
        for cycle in orbits((b for b in self.roots if sum(b) > 0),
                            lambda b: (tuple(b[i] for i in source),)):
            L, w = len(cycle), 2 * sum(cycle[0])
            graded.update([(2, w)] if flip and L == 1 else
                          [(o, w) for o in range(1, L + 1) if L % o == 0])
        # the Cartan subalgebra, weight 0, carries the eigenvalues on the
        # simple roots: no flip fixes one
        graded.update({(o, 0): m for (o, w), m in graded.items() if w == 2})
        return tuple(sorted((w // 2 + 1, o) for o, w in string_tops(graded)))

    def _affine_cartan(self, theta_pairing):
        """Cartan matrix of the affine diagram, node 0 being the gradient
        -theta.  Its row is <-theta, alpha_j^vee>, from theta's pairings;
        theta is long, so its column is that row times L_j / max(L)."""
        n, A, top = self.rank, self.cartan, max(self.lengths)
        row = [-c for c in theta_pairing]
        if any(a * length % top for a, length in zip(row, self.lengths)):
            raise InvariantError(f"affine column of {self.family}{n} is "
                                 f"not integral")
        column = [a * length // top for a, length in zip(row, self.lengths)]
        return ((2, *row),) + tuple((c, *r) for c, r in zip(column, A))

    # -- fundamental group of the adjoint form -------------------------------

    def _build_omega(self):
        # presentation of P_cowt/Q_coroot in the fundamental-coweight basis:
        # coroot j has coordinates = column j of the Cartan matrix
        self.omega_pres = group_from_presentation(self.rank,
                                                  list(zip(*self.cartan)))
        self.omega = self.omega_pres.group
        # Omega acts simply transitively on the special nodes, those of
        # mark 1, and the marks come from the highest root, not from the
        # Smith form behind the presentation
        special = self.marks.count(1)
        if self.omega.order() != special:
            raise InvariantError(
                f"fundamental group of order {self.omega.order()} against "
                f"{special} special nodes")
        self._build_omega_action()

    def coweight_class(self, j):
        """Class of the j-th fundamental coweight (1-indexed) in Omega."""
        vec = [0] * self.rank
        vec[j - 1] = 1
        return self.omega_pres.project(vec)

    def _build_omega_action(self):
        """Node action of Omega on the affine diagram, and the diagram
        automorphisms, from one search.  Omega is simply transitive on the
        special nodes: node 0 is labelled by the identity and special node
        j by coweight_class(j).  x moves node(y) to node(x + y), and that
        move must extend to exactly one automorphism of the affine Cartan
        matrix, x's action, met among those taking node 0 to node(x); it
        keeps the marks, the positive primitive vector of the matrix's left
        kernel.  Those fixing node 0 are diagram_autos, identity first."""
        omega = self.omega
        node = {}
        for j in (j for j, mark in enumerate(self.marks) if mark == 1):
            x = self.coweight_class(j) if j else omega.identity()
            if x in node:
                raise InvariantError(f"special nodes {node[x]} and {j} of "
                                     f"{self.family}{self.rank} share the "
                                     f"label {x}")
            node[x] = j
        self._special_label = {j: x for x, j in node.items()}
        elems = omega.elements()
        every = _automorphisms(self.affine_cartan)
        self.diagram_autos = [a for a in every if a[0] == 0]
        self.omega_action = {}
        for x in elems:
            autos = [a for a in every if a[0] == node[x] and all(
                a[node[y]] == node[omega.add(x, y)] for y in elems)]
            if len(autos) != 1:
                raise InvariantError(
                    f"moving the special nodes by {x} extends to "
                    f"{len(autos)} automorphisms of the affine diagram")
            self.omega_action[x] = autos[0]

    def _build_isogenies(self):
        """isogenies maps each canonical isogeny token to Omega_G, its
        subgroup of Omega, simply connected first: sc (none where Omega is
        trivial); on A_n one d{k} per proper divisor k of n + 1, the
        elements k kills; on D_n so = <class of node 1>, and for even n
        also hs1 = <class of node n> and hs2 = <class of node n - 1>; and
        adjoint."""
        omega, n = self.omega, self.rank
        elems = frozenset(omega.elements())
        table = {"sc": frozenset([omega.identity()])} if len(elems) > 1 \
            else {}
        if self.family == "A":
            for k in range(2, n + 1):
                if (n + 1) % k == 0:
                    table[f"d{k}"] = frozenset(
                        e for e in elems
                        if all(k * c % d == 0
                               for c, d in zip(e, omega.orders)))
        if self.family == "D":
            nodes = {"so": 1, "hs1": n, "hs2": n - 1} if n % 2 == 0 \
                else {"so": 1}
            for token, j in nodes.items():
                table[token] = omega.subgroup_generated(
                    [self.coweight_class(j)])
        table["adjoint"] = elems
        self.isogenies = table

    def aut_on_omega(self, perm):
        """A diagram automorphism, a tuple of images over the affine nodes
        that is one of diagram_autos (InvariantError otherwise), acting on
        Omega, as a dict.  It conjugates x's action into one that moves
        node 0 to perm[node(x)], and an element of Omega is the label of
        the special node that it moves node 0 to."""
        if perm not in self.diagram_autos:
            raise InvariantError(f"{perm} is no automorphism of the diagram "
                                 f"of {self.family}{self.rank}")
        label = self._special_label
        return {x: label[perm[act[0]]] for x, act in self.omega_action.items()}

    def quotient_invariants(self, big, small):
        """Invariant factors of big/(big cap small) for subgroups big and
        small of Omega, by counting.  Omega has at most two invariant
        factors, so the quotient is Z/(N/e) x Z/e: N is its order and e its
        exponent, the lcm of the orders of big's elements modulo small.
        Factors 1 are dropped."""
        add = self.omega.add

        def order_mod_small(x):
            m, y = 1, x
            while y not in small:
                y, m = add(y, x), m + 1
            return m

        N = len(big) // sum(x in small for x in big)
        e = lcm(1, *map(order_mod_small, big))
        if e % (N // e):
            raise InvariantError(f"subquotient of order {N} and exponent "
                                 f"{e} is not a product of two cyclics")
        return tuple(d for d in (N // e, e) if d > 1)

    @cached_property
    def _frobenius_by_order(self):
        """The first diagram automorphism of each order, the identity for
        order 1, read once per root system from the sorted diagram_autos."""
        out = {}
        for p in self.diagram_autos:
            out.setdefault(perm_order(p, range(len(p))), p)
        return out


def _automorphisms(cartan):
    """Every permutation of the nodes that keeps the Cartan matrix, as
    tuples of images in sorted order.  Nodes are placed breadth first, so
    each node but the first of its component is a neighbour of an earlier
    one and goes to a neighbour of that one's image.  Each bond is checked
    once, when its later node is placed; that is enough, as a bijection
    that keeps every bond keeps the whole matrix."""
    m = len(cartan)
    nbrs = [[j for j in range(m) if j != i and cartan[i][j]] for i in range(m)]
    order = [v for orb in orbits(range(m), nbrs.__getitem__) for v in orb]
    # per placed node, its bonds to earlier nodes with both matrix entries
    bonds = [[(u, cartan[u][v], cartan[v][u]) for u in nbrs[v]
              if u in order[:k]] for k, v in enumerate(order)]

    def extend(image, used, k, out):
        if k == m:
            out.append(tuple(image))
            return out
        v, back = order[k], bonds[k]
        for t in nbrs[image[back[0][0]]] if back else range(m):
            # an automorphism keeps each node's number of bonds
            if t in used or len(nbrs[t]) != len(nbrs[v]):
                continue
            for u, a, b in back:
                if cartan[image[u]][t] != a or cartan[t][image[u]] != b:
                    break
            else:
                image[v] = t
                used.add(t)
                extend(image, used, k + 1, out)
                used.remove(t)
        return out

    return sorted(extend([None] * m, set(), 0, []))


# ---------------------------------------------------------------------------
# group data: type + Frobenius twist order + isogeny
# ---------------------------------------------------------------------------

_TYPE_RE = re.compile(r"([23]?)([A-G])([1-9][0-9]*)")


def standard_frobenius_perm(family, rank, order):
    """The distinguished diagram automorphism of the given order, as a
    tuple of images over the affine nodes 0..rank: the first of exactly
    that order in the sorted diagram_autos, so the identity for order 1.
    That is the A_n flip, n - 1 <-> n on D_n, 1 <-> 6 and 3 <-> 5 on E6
    and the D4 triality 1 -> 3 -> 4 -> 1.  D3 = A3 has a flip too, but its
    outer form is spelled 2A3."""
    if (family, rank, order) == ("D", 3, 2):
        raise ValueError("type D3 is A3: write its outer form as 2A3")
    perm = root_system(family, rank)._frobenius_by_order.get(order)
    if perm is not None:
        return perm
    if order == 3:
        raise ValueError("triality twist exists only for D4")
    raise ValueError(f"type {family}{rank} has no outer automorphism of "
                     f"order {order}")


def isogeny_tokens(family, rank):
    """Canonical isogeny names for the type, simply connected first."""
    return list(root_system(family, rank).isogenies)


class SimpleGroup:
    """Unramified almost-simple group datum: simple type, Frobenius diagram
    action, and isogeny.  The isogeny is named by Omega_G, its subgroup of
    the adjoint fundamental group Omega_ad; as X_*/Q^vee is Omega_G,
    Frobenius-equivariantly, building a group takes no lattice arithmetic.

    The group holds only what the twist and the isogeny add to its root
    system, each set once here: theta, the Frobenius on the affine nodes
    0..rank as a tuple (theta[0] = 0); theta_omega, theta on Omega_ad;
    omega_G; and the fixed points omega_ad_theta and omega_G_theta.
    Root-system data, Omega_ad itself, its node action and the affine
    Cartan matrix, is read from rs."""

    def __init__(self, family, rank, twist_order=1, isogeny="adjoint"):
        self.family, self.rank, self.twist_order = family, rank, twist_order
        self.rs = root_system(family, rank)
        self.theta = standard_frobenius_perm(family, rank, twist_order)
        self.isogeny = self._normalize_isogeny(isogeny)
        self.theta_omega = self.rs.aut_on_omega(self.theta)
        self.omega_G = self.rs.isogenies[self.isogeny]
        if any(self.theta_omega[x] not in self.omega_G for x in self.omega_G):
            raise ValueError(
                f"isogeny {isogeny!r} is not stable under the Frobenius action")
        self.omega_ad_theta = frozenset(
            x for x, y in self.theta_omega.items() if x == y)
        self.omega_G_theta = self.omega_ad_theta & self.omega_G

    # -- naming ---------------------------------------------------------------

    def type_string(self):
        prefix = "" if self.twist_order == 1 else str(self.twist_order)
        return f"{prefix}{self.family}{self.rank}"

    def spec_string(self, twist="1"):
        return f"{self.type_string()}:{self.isogeny}:{twist}"

    def _normalize_isogeny(self, token):
        """The canonical token: a key of rs.isogenies, or one of the
        aliases d1 = sc and d(n+1) = adjoint on A_n, so = adjoint on B_n,
        and sc = adjoint where Omega is trivial."""
        fam, rank = self.family, self.rank
        if token in self.rs.isogenies:
            return token
        if fam == "A":
            # a positive integer written without leading zeros
            m = re.fullmatch(r"d([1-9][0-9]*)", token)
            if not m:
                raise ValueError(f"unknown isogeny {token!r} for type A")
            k = int(m.group(1))
            if (rank + 1) % k != 0:
                raise ValueError(f"A{rank} has no isogeny d{k}: {k} must "
                                 f"divide {rank + 1}")
            return "sc" if k == 1 else "adjoint"
        if token == "sc" or (fam, token) == ("B", "so"):
            return "adjoint"
        raise ValueError(f"unknown isogeny {token!r} for type {fam}{rank}")

    # -- Kottwitz-style data ----------------------------------------------------

    def kottwitz_data(self):
        """Orders-level summary: the invariants, the coinvariants, and the
        inner-twist classes of the adjoint group."""
        rs = self.rs
        # X_*/Q^vee is Omega_G, so its coinvariants are Omega_G/(theta - 1)
        return {
            "omega_theta": rs.quotient_invariants(self.omega_G_theta,
                                                  [rs.omega.identity()]),
            "omega_coinv": rs.quotient_invariants(
                self.omega_G, self._theta_moved(self.omega_G)),
            "omega_ad_coinv": self.adjoint_coinvariant_classes(),
        }

    def _theta_moved(self, subset):
        """The subgroup of Omega_ad generated by theta(x) - x, x in subset."""
        omega = self.rs.omega
        return omega.subgroup_generated(
            [omega.add(self.theta_omega[x], omega.neg(x)) for x in subset])

    def adjoint_coinvariant_classes(self):
        """Partition of the adjoint fundamental group into twisting classes
        (cosets of the augmentation subgroup (theta - 1)Omega_ad)."""
        omega = self.rs.omega
        elems = omega.elements()
        moved = self._theta_moved(elems)
        return [frozenset(cls) for cls in orbits(
            elems, lambda x: [omega.add(x, b) for b in moved])]


# ---------------------------------------------------------------------------
# spec-string parsing
# ---------------------------------------------------------------------------


# largest rank a type string may name: the catalogue goes to 12, and a
# rank-20 adjoint full_report takes at most 0.016 s (A20 0.015-0.016 s; B20,
# C20, D20, 2A20 and 2D20 0.006-0.007: medians of 9 fresh interpreters, two
# sets, Python 3.11, shared 2-core x86-64 VM); the cost grows fast with rank
MAX_RANK = 20


def parse_type(type_str):
    """(family, rank, twist order) of a type such as 2A5; ValueError for
    every type SimpleGroup would not build."""
    m = _TYPE_RE.fullmatch(type_str)
    if not m:
        raise ValueError(f"bad type string {type_str!r}")
    prefix, fam, rank = m.groups()
    # int() refuses over 4,300 digits: a longer rank is named by its length
    shown = rank if len(rank) <= len(str(MAX_RANK)) else f"of {len(rank)} digits"
    if shown != rank or int(rank) > MAX_RANK:
        raise ValueError(f"rank {shown} exceeds the maximum rank {MAX_RANK}")
    rank, order = int(rank), int(prefix) if prefix else 1
    _check_rank(fam, rank)
    standard_frobenius_perm(fam, rank, order)
    return fam, rank, order


def build_group(type_str, isogeny="adjoint"):
    fam, rank, order = parse_type(type_str)
    return SimpleGroup(fam, rank, order, isogeny)


def parse_spec(spec):
    """TYPE:ISOGENY:TWIST -> (group, twist token).  A bad type or isogeny
    raises ValueError naming its field; the twist token is left to the
    inner-form lookup."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"spec {spec!r}: expected TYPE:ISOGENY:TWIST, "
                         f"got {len(parts)} field(s)")
    type_str, iso, twist = parts
    try:
        fam, rank, order = parse_type(type_str)
    except ValueError as exc:
        raise ValueError(f"spec {spec!r}, field 1: {exc}") from exc
    try:
        group = SimpleGroup(fam, rank, order, iso)
    except ValueError as exc:
        raise ValueError(f"spec {spec!r}, field 2: {exc}") from exc
    return group, twist
