"""Inner forms, parahoric supports, and their cuspidal unipotent bookkeeping.

The group acts through its affine diagram: an inner form is a coinvariant
class of the adjoint fundamental group, the twisted Frobenius permutes the
affine nodes, and the maximal stable supports are exactly the complements of
single node orbits.  That permutation, F_omega = omega o theta for the
form's representative omega, is computed once per form and kept on it
(InnerForm.frobenius); every support, torus and volume below reads it
there.  Omega is presented once, in rootdata; the coinvariant classes,
fixed points and support stabilizers here are element sets of it, and
their orders are counts, with no integer elimination.  Orders of the
finite reductive quotients, volumes, and formal degrees are all cyclotomic
products c * t^k * prod Phi_n(t)^(e_n) in t = q^(1/2)
(exact.CyclotomicProduct): a semisimple factor is a product of
Phi_o(q^d), o being the order of the Frobenius eigenvalue on a degree-d
invariant, read off the root heights (RootSystem.twisted_degrees) only for
the components whose class degree is known, and the twisted central torus
is read off the Frobenius orbits of the affine nodes outside the support.

A support's components and their Bourbaki types depend only on the
diagram and the node set, so classified_components is computed once per
(Cartan matrix, sorted nodes), by value, and shared by every form, twist,
isogeny and dual cut of a type.  Each component's bond profile is looked
up in a table read off the bond lists of rootdata's Bourbaki diagrams.  A
component orbit's twist is lcm(cycle lengths on one component) / d, from
the node cycles recorded in the walk that lists the form's supports.

Nodes, supports and components sort as integers.  Omega_ad^theta
commutes with F_omega, so it permutes the maximal supports: walked in
order, the first support not yet seen is the least of its class and
represents it, and one map w -> w(J) gives the class and stabilizer_ad.
No dimension is stored; see parahoric_volume.

The p-adic side splits by what it depends on.  The inner forms depend only on
the root system and the Frobenius twist, and the support classes (the maximal
supports, their Omega_ad^theta orbits, stabilizer_ad, the component orbits
and torus_rank) only on the root system, F_omega and Omega_ad^theta, and so
does each class's cuspidal data, read off the component orbits: a classical
factor has a cuspidal class exactly when lusztig_parameter, the one decoding
of Lusztig's s from a rank, finds an s.  That adjoint half is computed once
per key and shared by every isogeny of the type, through an lru_cache on each
of _inner_forms (rs, twist_order) and _adjoint_classes (rs, frobenius,
omega_ad_theta).  Neither key names the isogeny, which adds only
Omega_G^theta, so stabilizer_G and g': g' is checked on every class, and only
the classes with cuspidal data are finished for supports_with_cuspidals.  rs
is one object per type (rootdata.root_system), the cached values are
immutable, and every caller gets a fresh list.  A computation that raises
caches nothing, so its checks run again on the next call.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from itertools import product
from math import isqrt, lcm, prod
from typing import NamedTuple

from supercusp.exact import CyclotomicProduct, InvariantError, orbits
from supercusp.rootdata import (SimpleGroup, bond_neighbours, dynkin_diagram,
                                root_system, standard_frobenius_perm)


# ---------------------------------------------------------------------------
# inner forms
# ---------------------------------------------------------------------------


class InnerForm(NamedTuple):
    """One twisting class of the adjoint group, named by a stable token,
    "1" for the quasi-split one, with its twisted Frobenius on the affine
    diagram."""

    token: str
    rep: tuple
    cls: tuple  # sorted members of the coinvariant class
    # F_omega: node i goes to frobenius[i], the action of rep after theta
    frobenius: tuple


def enumerate_inner_forms(group):
    """Inner forms in deterministic order: the quasi-split one first."""
    return list(_inner_forms(group.rs, group.twist_order))


@lru_cache(maxsize=None)
def _inner_forms(rs, twist_order):
    """The inner forms of every isogeny of the type, read from its adjoint
    group."""
    group = SimpleGroup(rs.family, rs.rank, twist_order)
    ident = rs.omega.identity()
    keyed = []
    for cls in group.adjoint_coinvariant_classes():
        members = tuple(sorted(cls))
        fixed = [x for x in members if x in group.omega_ad_theta]
        rep = fixed[0] if fixed else members[0]
        keyed.append((ident not in cls, members, rep))
    keyed.sort()
    out = []
    # the one quasi-split form sorts first, so the others are w1, w2, ...
    for wi, (not_qs, members, rep) in enumerate(keyed):
        act = rs.omega_action[rep]
        out.append(InnerForm(f"w{wi}" if not_qs else "1", rep, members,
                             tuple(act[t] for t in group.theta)))
    return tuple(out)


def inner_forms_by_token(group, token):
    """The inner forms a twist token names: a form's own, '*' for all, or
    'an' on split type A, the one anisotropic form whose class holds the
    first fundamental coweight's; ValueError lists the tokens in report
    order."""
    forms = enumerate_inner_forms(group)
    split_a = group.family == "A" and group.twist_order == 1
    if token == "*":
        return forms
    if token == "an" and split_a:
        # only inner forms of split type A are anisotropic over a p-adic
        # field, one per generator of Omega: 'an' names that of the first
        # fundamental coweight (A3: w3), the others keep their own tokens
        want = group.rs.coweight_class(1)
        return [f for f in forms if want in f.cls]
    tokens = [f.token for f in forms]
    if token in tokens:
        return [forms[tokens.index(token)]]
    tokens += ["an"] * split_a + ["*"]
    raise ValueError(f"no inner form {token!r} for {group.type_string()} "
                     f"(tokens: {', '.join(tokens)})")


def _perm_orbits(perm, nodes):
    return orbits(nodes, lambda x: (perm[x],))


# ---------------------------------------------------------------------------
# subdiagram classification
# ---------------------------------------------------------------------------


def _profiles(nbrs):
    """Each connected component of a diagram, sorted, with its bond
    profile, a diagram's shape whatever its numbering: per node, its bonds
    as sorted (A[a][b], A[b][a], degree of b), the nodes' tuples sorted.
    nbrs maps each node a to its neighbours b, each to the entry A[a][b]."""
    for comp in orbits(sorted(nbrs), nbrs.__getitem__):
        comp.sort()
        yield tuple(comp), tuple(sorted([tuple(sorted([
            (ab, nbrs[b][a], len(nbrs[b])) for b, ab in nbrs[a].items()]))
            for a in comp]))


@lru_cache(maxsize=None)
def _types_by_profile(rank):
    """(family, rank) of each Bourbaki diagram of the rank, by bond
    profile, read off its bond list.  Filled from G back to A, so each
    coincidence keeps the first family's name: A1, B2 (not C2) and A3 (not
    D3)."""
    table = {}
    for family in "GFEDCBA":
        try:
            nbrs = bond_neighbours(*dynkin_diagram(family, rank))
        except ValueError:
            continue
        [(_, profile)] = _profiles(nbrs)
        table[profile] = (family, rank)
    return table


def classified_components(cartan, nodes):
    """(component, (family, rank)) per connected component of the diagram
    on the given nodes, in the order of their first nodes; ValueError for
    a component whose profile no Bourbaki diagram has.  cartan is a tuple
    of tuples, and each (cartan, sorted nodes) is classified once."""
    return list(_classified(cartan, tuple(sorted(nodes))))


@lru_cache(maxsize=None)
def _classified(cartan, nodes):
    out, nbrs = [], {}
    for a in nodes:
        row = cartan[a]
        nbrs[a] = {b: row[b] for b in nodes if row[b] and b != a}
    for comp, profile in _profiles(nbrs):
        kind = _types_by_profile(len(comp)).get(profile)
        if kind is None:
            raise ValueError(f"unclassifiable diagram on {comp}")
        out.append((comp, kind))
    return tuple(out)


class ComponentOrbit(NamedTuple):
    """An orbit of isomorphic components of the support under the twisted
    Frobenius: the group contributes over the degree-d extension, twisted by
    the return map.  Orbits sort as their field tuples."""

    family: str
    rank: int
    twist: int       # order of the return map on one component
    orbit_size: int  # d
    components: tuple

    def descriptor(self):
        pre = "" if self.twist == 1 else str(self.twist)
        base = f"{pre}{self.family}{self.rank}"
        if self.orbit_size > 1:
            base += f"(q^{self.orbit_size})"
        return base


def component_orbits(cartan, support, perm, cycle):
    """The support's components in orbits under perm, cycle[x] being the
    length of x's cycle under perm."""
    kind = dict(classified_components(cartan, support))
    comp_of = {x: c for c in kind for x in c}
    out = []
    for orbit in orbits(sorted(kind), lambda c: (comp_of[perm[c[0]]],)):
        c, d = orbit[0], len(orbit)
        # the return map perm^d on c cuts each L-cycle of perm through c
        # into d cycles of length L / d
        twist = lcm(*(cycle[x] for x in c)) // d
        if twist > 6:
            raise InvariantError("return map order out of range")
        out.append(ComponentOrbit(*kind[c], twist, d, tuple(orbit)))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# order polynomials
# ---------------------------------------------------------------------------


def torus_factor(group, support, perm):
    """Order of the twisted central torus of the quotient.

    The Frobenius permutes the affine simple roots and keeps the marks, so
    it fixes the null root; on the root space it acts as the node
    permutation less that fixed line.  Taking out the span of the support
    leaves prod (q^|O| - 1) / (q - 1) over the node orbits O outside it."""
    if sorted(perm[x] for x in support) != sorted(support):
        raise InvariantError(f"support {support} splits a Frobenius orbit")
    rest = [x for x in range(group.rank + 1) if x not in support]
    out = CyclotomicProduct(1) / CyclotomicProduct.t_power_minus_one(2)
    for orb in _perm_orbits(perm, rest):
        out = out * CyclotomicProduct.t_power_minus_one(2 * len(orb))
    return out


@lru_cache(maxsize=None)
def finite_semisimple_order(family, rank, twist):
    """Order (in q) of the finite semisimple group of the twisted type,
    q^N prod Phi_o(q^d) (Steinberg, Mem. AMS 80, 1968) over the (d, o)
    twisted_degrees gives for the standard Frobenius: q^d -/+ 1 for the
    eigenvalue +/-1, and Phi_3(q^4) = q^8 + q^4 + 1 on 3D4."""
    rs = root_system(family, rank)
    out = CyclotomicProduct(1, 2 * rs.num_pos_roots)
    for d, o in rs.twisted_degrees(standard_frobenius_perm(family, rank,
                                                           twist)):
        out = out * CyclotomicProduct(1, 0, ((o, 1),)).subst_t_power(2 * d)
    return out


def parahoric_volume(group, host, perm):
    """q^(-dim/2) times the number of points of the host's finite reductive
    quotient, whose semisimple factors over their orbit fields come from the
    stored component orbits.  dim is the rank plus 2Nd per orbit of d
    factors with N positive roots each, so q^(-dim/2) cancels each factor's
    q^(Nd), leaving t^(-rank) times the twisted torus.  Positive for q > 1."""
    vol = CyclotomicProduct(1, -group.rank) * torus_factor(group, host.support,
                                                          perm)
    for co in host.orbits:
        base = finite_semisimple_order(co.family, co.rank, co.twist)
        vol = vol * CyclotomicProduct(base.const, 0, base.phi).subst_t_power(
            co.orbit_size)
    if vol.const <= 0:
        raise InvariantError(f"parahoric volume {vol} is not positive")
    return vol


# ---------------------------------------------------------------------------
# parahoric support classes
# ---------------------------------------------------------------------------


class ParahoricClass(NamedTuple):
    """Association class of maximal stable parahoric supports."""

    support: tuple            # least of the associates, sorted nodes
    associates: tuple         # all supports in the class, sorted
    stabilizer_ad: frozenset  # setwise stabilizer in adjoint Omega^theta
    stabilizer_G: frozenset   # setwise stabilizer in the group's Omega^theta
    g_prime: int
    orbits: tuple             # ComponentOrbit tuple
    torus_rank: int

    def quotient_description(self):
        parts = [co.descriptor() for co in self.orbits]
        if self.torus_rank:
            parts.append(f"T{self.torus_rank}")
        return "x".join(parts) if parts else "T0"


def maximal_supports(frobenius):
    """All maximal F_omega-stable proper subsets of the affine nodes, the
    complements of single node orbits of the Frobenius, sorted."""
    return _supports_and_cycles(frobenius)[0]


def _supports_and_cycles(frobenius):
    """The maximal supports, and each node's cycle length under the
    Frobenius, from one walk of its node orbits."""
    nodes = range(len(frobenius))
    node_orbits = _perm_orbits(frobenius, nodes)
    cycle = {x: len(orb) for orb in node_orbits for x in orb}
    return sorted(tuple(x for x in nodes if x not in orb)
                  for orb in node_orbits), cycle


def parahoric_classes(group, form):
    """The association classes of maximal F_omega-stable supports, sorted by
    their representatives.  The adjoint half, everything but stabilizer_G
    and g', is shared by every isogeny of the type (see the module
    docstring)."""
    return [finish() for _, finish in _support_classes(group, form)]


def _support_classes(group, form):
    """(cuspidal data, finish) per support class of the form, finish() adding
    the group's stabilizer_G and g'.  g' is checked on every class."""
    theta_fixed_G = group.omega_G_theta
    for pc, classes in _adjoint_classes(group.rs, form.frobenius,
                                        group.omega_ad_theta):
        stab_G = pc.stabilizer_ad & theta_fixed_G
        # g' = [ad orbit of the support] / [G orbit of the support], the G
        # orbit being Omega_G^theta over its stabilizer
        g_prime, rest = divmod(len(pc.associates) * len(stab_G),
                               len(theta_fixed_G))
        if rest:
            raise InvariantError(
                f"G-orbit of the support {pc.support} does not divide its "
                f"adjoint orbit of {len(pc.associates)}")
        yield classes, partial(pc._replace, stabilizer_G=stab_G,
                               g_prime=g_prime)


@lru_cache(maxsize=None)
def _adjoint_classes(rs, frobenius, omega_ad_theta):
    """(class, cuspidal data) for the classes of the adjoint group itself
    (stabilizer_G = stabilizer_ad and g' = 1), sorted by support: the first
    support of each class in the walk is its least, and represents it."""
    classes = []
    seen = set()
    supports, cycle = _supports_and_cycles(frobenius)
    for J in supports:
        if J in seen:
            continue
        image = {w: tuple(sorted(rs.omega_action[w][x] for x in J))
                 for w in omega_ad_theta}
        associates = tuple(sorted(set(image.values())))
        seen.update(associates)
        stab_ad = frozenset(w for w, K in image.items() if K == J)
        orbits = component_orbits(rs.affine_cartan, J, frobenius, cycle)
        torus_rank = rs.rank - sum(co.orbit_size * co.rank for co in orbits)
        pc = ParahoricClass(J, associates, stab_ad, stab_ad, 1, orbits,
                            torus_rank)
        classes.append((pc, cuspidal_data(pc)))
    return tuple(classes)


# ---------------------------------------------------------------------------
# cuspidal unipotent data
# ---------------------------------------------------------------------------


class CuspidalClass(NamedTuple):
    """Equal-degree class of cuspidal unipotent representations of a finite
    reductive group: the class size is the packet-side count.  The torsion
    order of the matching parameter is the case table's (n_s)."""

    class_id: str
    size: int
    degree: CyclotomicProduct | None


# unipotent cuspidal of U3: q(q-1)
_DEG_U3 = CyclotomicProduct(1, 2, ((1, 1), (2, 1)))
# theta_10 of Sp4/SO5: q(q-1)^2/2
_DEG_B2 = CyclotomicProduct(Fraction(1, 2), 2, ((1, 2), (2, 2)))


# equal-degree class sizes, in the order of the case table's rows
_EXCEPTIONAL_CLASSES = {
    ("G", 2, 1): (1, 1, 2),
    ("F", 4, 1): (1, 1, 2, 2, 1),
    ("E", 6, 1): (2,),
    ("E", 6, 2): (1, 2),
    ("E", 7, 1): (2,),
    ("E", 8, 1): (1, 1, 1, 2, 2, 2, 4),
    ("D", 4, 3): (1, 1),
}


def lusztig_parameter(family, rank, twist):
    """Lusztig's s for a finite classical group, or None if it has no
    cuspidal unipotent character (Invent. Math. 43, 1977): U_(rank+1) with
    rank + 1 = s(s+1)/2, split B and C with rank = s(s+1), and D with rank
    = s^2, split exactly when s is even; None for 3D4 and the other types."""
    if family == "A" and twist == 2:
        s = (isqrt(8 * rank + 9) - 1) // 2
        found = s * (s + 1) == 2 * (rank + 1)
    elif family in ("B", "C") and twist == 1:
        s = (isqrt(4 * rank + 1) - 1) // 2
        found = s * (s + 1) == rank
    elif family == "D" and twist in (1, 2):
        s = isqrt(rank)
        found = s * s == rank and s % 2 == twist - 1
    else:
        return None
    return s if found else None


def component_cuspidal_classes(family, rank, twist):
    """Equal-degree classes for one finite almost-simple factor; empty if the
    group has no cuspidal unipotent representation."""
    key = (family, rank, twist)
    if key in _EXCEPTIONAL_CLASSES:
        return [CuspidalClass(f"c{i}", size, None)
                for i, size in enumerate(_EXCEPTIONAL_CLASSES[key])]
    s = lusztig_parameter(family, rank, twist)
    if s is None:
        return []
    deg = {("A", 2): _DEG_U3, ("B", 1): _DEG_B2,
           ("C", 1): _DEG_B2}.get((family, s))
    return [CuspidalClass("u", 1, deg)]


def cuspidal_data(host):
    """Equal-degree cuspidal unipotent classes of the host's finite
    quotient, as a tuple, or None if the support carries none: one class
    for each choice of a class on every component orbit."""
    per_orbit = []
    for co in host.orbits:
        classes = component_cuspidal_classes(co.family, co.rank, co.twist)
        if not classes:
            return None
        per_orbit.append([(co, c) for c in classes])
    if sum((co.family, co.rank, co.twist) in _EXCEPTIONAL_CLASSES
           for co in host.orbits) > 1:
        raise InvariantError("two exceptional factors on one support")
    # a factor's degree is taken over its orbit field, in q^d
    return tuple(CuspidalClass(
        "+".join(f"{co.descriptor()}.{c.class_id}" for co, c in choice)
        or "triv", prod(c.size for _, c in choice),
        None if any(c.degree is None for _, c in choice) else prod(
            (c.degree.subst_t_power(co.orbit_size) for co, c in choice),
            start=CyclotomicProduct(1)))
        for choice in product(*per_orbit))


def supports_with_cuspidals(group, form):
    """The case rows on the p-adic side: (support class, cuspidal classes)
    for each support class of the form that carries any."""
    return [(finish(), classes) for classes, finish in
            _support_classes(group, form) if classes is not None]


# ---------------------------------------------------------------------------
# formal degrees
# ---------------------------------------------------------------------------


def formal_degree(group, form, host, cls):
    """Formal degree of the cuspidal class cls on the support class host:
    the class degree over |Omega^{theta,P}| times the parahoric volume, which
    comes from the host's stored component orbits.  None when the class
    degree is unknown."""
    if cls.degree is None:
        return None
    vol = parahoric_volume(group, host, form.frobenius)
    return cls.degree / (CyclotomicProduct(len(host.stabilizer_G)) * vol)
