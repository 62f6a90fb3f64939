"""Inner forms, parahoric supports, and their cuspidal unipotent bookkeeping.

The group acts through its affine diagram: an inner form is a coinvariant
class of the adjoint fundamental group, the twisted Frobenius permutes the
affine nodes, and the maximal stable supports are exactly the complements of
single node orbits.  Orders of the finite reductive quotients, volumes, and
formal degrees are all cyclotomic products c * t^k * prod Phi_n(t)^(e_n) in
t = q^(1/2) (exact.CyclotomicProduct): a semisimple factor is a product of
Phi_o(q^d) over its invariant degrees d, and the twisted central torus is
read off the Frobenius orbits of the affine nodes outside the support.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt

from supercusp.exact import (CyclotomicProduct, InvariantError, RatFunc,
                             euler_phi, integer_kernel, mat_identity, mat_mul,
                             mobius)
from supercusp.rootdata import weyl_degrees


# ---------------------------------------------------------------------------
# inner forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InnerForm:
    """One twisting class of the adjoint group, named by a stable token."""

    token: str
    rep: tuple
    cls: tuple  # sorted members of the coinvariant class
    quasi_split: bool


def enumerate_inner_forms(group):
    """Inner forms in deterministic order: the quasi-split one first."""
    classes = group.adjoint_coinvariant_classes()
    ident = group.omega_identity()
    keyed = []
    for cls in classes:
        members = tuple(sorted(cls))
        qs = ident in cls
        fixed = [x for x in members if x in group.omega_ad_theta_fixed()]
        rep = fixed[0] if fixed else members[0]
        keyed.append((not qs, members, rep))
    keyed.sort()
    out = []
    wi = 0
    for not_qs, members, rep in keyed:
        if not_qs:
            wi += 1
            token = f"w{wi}"
        else:
            token = "1"
        out.append(InnerForm(token, rep, members, not not_qs))
    return out


def inner_forms_by_token(group, token):
    forms = enumerate_inner_forms(group)
    if token == "*":
        return forms
    if token == "an":
        if group.family != "A":
            raise ValueError("token 'an' only names anisotropic inner forms of type A")
        want = group.rs.coweight_class(1)
        for f in forms:
            if want in f.cls:
                return [f]
        raise ValueError("no anisotropic form found")
    for f in forms:
        if f.token == token:
            return [f]
    raise ValueError(f"no inner form {token!r} for {group.type_string()}")


def f_omega_perm(group, form):
    """Node permutation of the twisted Frobenius on the affine diagram."""
    return {node: group.omega_act_node(form.rep, group.theta_node(node))
            for node in group.affine_nodes()}


def _perm_orbits(perm, nodes):
    seen = set()
    out = []
    for x in nodes:
        if x in seen:
            continue
        orb = [x]
        y = perm[x]
        while y != x:
            orb.append(y)
            y = perm[y]
        seen |= set(orb)
        out.append(tuple(orb))
    return out


# ---------------------------------------------------------------------------
# subdiagram classification
# ---------------------------------------------------------------------------


def _connected_components(pair, nodes):
    """Connected components of the diagram on the given nodes; the Cartan
    entry pair(a, b) = <alpha_a, alpha_b^vee> is nonzero across a bond."""
    nodes = set(nodes)
    comps = []
    while nodes:
        seed = min(nodes, key=str)
        comp = {seed}
        frontier = [seed]
        while frontier:
            a = frontier.pop()
            for b in list(nodes):
                if b not in comp and pair(a, b) != 0:
                    comp.add(b)
                    frontier.append(b)
        nodes -= comp
        comps.append(tuple(sorted(comp, key=str)))
    return comps


def classify_component(pair, nodes):
    """(family, rank) of the connected subdiagram on the given nodes, with
    Cartan entries pair(a, b) = <alpha_a, alpha_b^vee>.

    Coincidences are canonicalized: rank 1 is A1, the double-bond rank-2
    diagram is B2, a branchless simply-laced chain is A_n."""
    n = len(nodes)
    if n == 1:
        return ("A", 1)
    entry = {(a, b): pair(a, b) for a in nodes for b in nodes}
    bonds = {}
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            m = entry[(a, b)] * entry[(b, a)]
            if m:
                bonds[(a, b)] = m
    if any(m == 3 for m in bonds.values()):
        return ("G", 2)
    deg = {a: 0 for a in nodes}
    for (a, b) in bonds:
        deg[a] += 1
        deg[b] += 1
    doubles = [e for e, m in bonds.items() if m == 2]
    if doubles:
        if n == 2:
            return ("B", 2)
        (a, b) = doubles[0]
        if deg[a] > 1 and deg[b] > 1:
            return ("F", 4)
        # the chain ends in the double bond; the short end tells B from C
        leaf, inner = (a, b) if deg[a] == 1 else (b, a)
        # <alpha_inner, leaf_coroot> = -2 iff the leaf is short (type B)
        if entry[(inner, leaf)] == -2:
            return ("B", n)
        return ("C", n)
    branch = [a for a in nodes if deg[a] == 3]
    if not branch:
        return ("A", n)
    arms = []
    b = branch[0]
    for start in [x for x in nodes if entry[(b, x)] != 0 and x != b]:
        length = 1
        prev, cur = b, start
        while True:
            nxt = [y for y in nodes if y not in (prev, cur) and entry[(cur, y)] != 0]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    arms.sort()
    if arms[:2] == [1, 1]:
        return ("D", n)
    if arms == [1, 2, 2]:
        return ("E", 6)
    if arms == [1, 2, 3]:
        return ("E", 7)
    if arms == [1, 2, 4]:
        return ("E", 8)
    raise ValueError(f"unclassifiable diagram on {nodes}")


def _perm_order_on(perm, nodes):
    order = 1
    cur = {x: perm[x] for x in nodes}
    while any(cur[x] != x for x in nodes):
        cur = {x: perm[cur[x]] for x in nodes}
        order += 1
        if order > 6:
            raise InvariantError("return map order out of range")
    return order


@dataclass(frozen=True)
class ComponentOrbit:
    """An orbit of isomorphic components of the support under the twisted
    Frobenius: the group contributes over the degree-d extension, twisted by
    the return map."""

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


def component_orbits(group, support, perm):
    comps = _connected_components(group.node_pair, support)
    comp_of = {}
    for c in comps:
        for x in c:
            comp_of[x] = c
    remaining = set(comps)
    out = []
    for c in sorted(remaining, key=str):
        if c not in remaining:
            continue
        orbit = [c]
        cur = c
        while True:
            image = tuple(sorted((perm[x] for x in cur), key=str))
            image = comp_of[image[0]]
            if image == c:
                break
            orbit.append(image)
            cur = image
        for m in orbit:
            remaining.discard(m)
        d = len(orbit)
        ret = {x: x for x in c}
        for _ in range(d):
            ret = {x: perm[ret[x]] for x in ret}
        fam, rank = classify_component(group.node_pair, c)
        out.append(ComponentOrbit(fam, rank, _perm_order_on(ret, c), d,
                                  tuple(orbit)))
    out.sort(key=lambda co: (co.family, co.rank, co.twist, co.orbit_size, str(co.components)))
    return out


# ---------------------------------------------------------------------------
# order polynomials
# ---------------------------------------------------------------------------


def det_qw_minus_one(W):
    """|det(q*W - 1)| of an integer matrix W of finite order.

    W has characteristic polynomial prod Phi_m^(a_m), so the value is
    prod Phi_m(q)^(a_m).  a_m * phi(m) counts the eigenvalues of order m,
    and Moebius inversion reads it off the fixed spaces:
    dim Fix(W^d) = sum over m | d of a_m * phi(m).  Those counts fall short
    of n exactly when W does not have finite order: ValueError."""
    n = len(W)
    if n == 0:
        return CyclotomicProduct(1)
    # phi(m) >= sqrt(m / 2), so an eigenvalue order m has m <= 2 n^2
    orders = [m for m in range(1, 2 * n * n + 1) if euler_phi(m) <= n]
    fixed, power = [], mat_identity(n)
    for _ in range(orders[-1]):
        power = mat_mul(power, W)
        fixed.append(len(integer_kernel(
            [[x - (i == j) for j, x in enumerate(row)]
             for i, row in enumerate(power)])))
    counts = {m: sum(mobius(m // d) * fixed[d - 1]
                     for d in range(1, m + 1) if m % d == 0)
              for m in orders}
    if sum(counts.values()) != n:
        raise ValueError("matrix does not have finite order")
    return CyclotomicProduct(
        1, 0, tuple((m, c // euler_phi(m)) for m, c in counts.items())
    ).subst_t_power(2)


def torus_factor(group, support, perm):
    """Order of the twisted central torus of the quotient.

    The Frobenius permutes the affine simple roots and keeps the marks, so
    it fixes the null root; on the root space it acts as the node
    permutation less that fixed line.  Taking out the span of the support
    leaves prod (q^|O| - 1) / (q - 1) over the node orbits O outside it."""
    if sorted(perm[x] for x in support) != sorted(support):
        raise InvariantError(f"support {support} splits a Frobenius orbit")
    rest = [x for x in group.affine_nodes() if x not in support]
    out = CyclotomicProduct(1) / CyclotomicProduct.t_power_minus_one(2)
    for orb in _perm_orbits(perm, rest):
        out = out * CyclotomicProduct.t_power_minus_one(2 * len(orb))
    return out


@lru_cache(maxsize=None)
def finite_semisimple_order(family, rank, twist):
    """Order (in q) of the semisimple finite group of the given twisted
    type: q^N prod Phi_o(q^d) over the invariant degrees d, where o is the
    order of the Frobenius eigenvalue on the degree-d invariant, i.e. a
    factor q^d - 1 or q^d + 1.  For 3D4 the two degree-4 invariants carry
    the two primitive cube roots of unity and give together the one factor
    Phi_3(q^4) = q^8 + q^4 + 1 = (q^12 - 1) / (q^4 - 1)."""
    degrees = weyl_degrees(family, rank)
    num_pos_roots = sum(d - 1 for d in degrees)
    if twist == 1:
        orders = [1] * len(degrees)
    elif twist == 2 and family == "A":
        orders = [2 if d % 2 else 1 for d in degrees]
    elif twist == 2 and family == "D":
        # the Pfaffian degree (listed last) flips sign
        orders = [1] * (len(degrees) - 1) + [2]
    elif twist == 2 and (family, rank) == ("E", 6):
        orders = [2 if d in (5, 9) else 1 for d in degrees]
    elif twist == 3 and (family, rank) == ("D", 4):
        degrees, orders = (2, 4, 6), (1, 3, 1)
    else:
        raise ValueError(f"no twisted order formula for {twist}{family}{rank}")
    out = CyclotomicProduct(1, 2 * num_pos_roots)
    for d, o in zip(degrees, orders):
        out = out * CyclotomicProduct(1, 0, ((o, 1),)).subst_t_power(2 * d)
    return out


def parahoric_volume(group, host, perm):
    """q^(-dim/2) times the number of points of the host's finite reductive
    quotient: its semisimple factors over their orbit fields, read from the
    stored component orbits, times the twisted torus.  Positive for every
    q > 1."""
    vol = CyclotomicProduct(1, -host.dim) * torus_factor(group, host.support,
                                                        perm)
    for co in host.orbits:
        base = finite_semisimple_order(co.family, co.rank, co.twist)
        vol = vol * base.subst_t_power(co.orbit_size)
    if vol.const <= 0:
        raise InvariantError(f"parahoric volume {vol} is not positive")
    return vol


# ---------------------------------------------------------------------------
# parahoric support classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParahoricClass:
    """Association class of maximal stable parahoric supports."""

    support: tuple            # canonical representative, sorted nodes
    associates: tuple         # all supports in the class
    stabilizer_ad: frozenset  # setwise stabilizer in adjoint Omega^theta
    stabilizer_G: frozenset   # setwise stabilizer in the group's Omega^theta
    g_prime: int
    orbits: tuple             # ComponentOrbit tuple
    torus_rank: int
    dim: int

    def quotient_description(self):
        parts = [co.descriptor() for co in self.orbits]
        if self.torus_rank:
            parts.append(f"T{self.torus_rank}")
        return "x".join(parts) if parts else "T0"


def maximal_supports(group, form):
    """All maximal F_omega-stable proper subsets of the affine nodes: the
    complements of single node orbits."""
    perm = f_omega_perm(group, form)
    nodes = group.affine_nodes()
    return [tuple(sorted((set(nodes) - set(orb)), key=str))
            for orb in _perm_orbits(perm, nodes)]


def parahoric_classes(group, form):
    perm = f_omega_perm(group, form)
    supports = maximal_supports(group, form)
    theta_fixed_ad = sorted(group.omega_ad_theta_fixed())
    theta_fixed_G = sorted(group.omega_theta_fixed())

    def act_on_support(w, J):
        return tuple(sorted((group.omega_act_node(w, x) for x in J), key=str))

    classes = []
    seen = set()
    for J in sorted(supports, key=str):
        if J in seen:
            continue
        orbit = {act_on_support(w, J) for w in theta_fixed_ad}
        seen |= orbit
        rep = min(orbit, key=str)
        stab_ad = frozenset(w for w in theta_fixed_ad if act_on_support(w, rep) == rep)
        stab_G = frozenset(w for w in theta_fixed_G if act_on_support(w, rep) == rep)
        orbit_G = {act_on_support(w, rep) for w in theta_fixed_G}
        # g' = [ad orbit of the support] / [G orbit of the support]
        g_prime = Fraction(len(orbit), len(orbit_G))
        if g_prime.denominator != 1:
            raise InvariantError(
                f"G-orbit of {len(orbit_G)} supports does not divide the "
                f"adjoint orbit of {len(orbit)}")
        orbits = component_orbits(group, rep, perm)
        # rank plus the roots of the components, from the Weyl degrees: a
        # degree d adds d - 1 positive roots
        dim = group.rank_total + sum(
            len(co.components) * 2 * sum(
                d - 1 for d in weyl_degrees(co.family, co.rank))
            for co in orbits)
        torus_rank = group.rank_total - sum(
            co.orbit_size * co.rank for co in orbits)
        classes.append(ParahoricClass(
            support=rep,
            associates=tuple(sorted(orbit, key=str)),
            stabilizer_ad=stab_ad,
            stabilizer_G=stab_G,
            g_prime=int(g_prime),
            orbits=orbits,
            torus_rank=torus_rank,
            dim=dim,
        ))
    classes.sort(key=lambda c: str(c.support))
    return classes


# ---------------------------------------------------------------------------
# cuspidal unipotent data
# ---------------------------------------------------------------------------


def _is_square(n):
    return isqrt(n) ** 2 == n


def _is_triangular(n):
    return _is_square(8 * n + 1)


@dataclass(frozen=True)
class CuspidalClass:
    """Equal-degree class of cuspidal unipotent representations of a finite
    reductive group: the class size is the packet-side count, the tag names
    the torsion order of the matching parameter (None for classical hosts,
    where the tag is carried by the case table)."""

    class_id: str
    size: int
    ns_tag: int | None
    degree: CyclotomicProduct | None


# unipotent cuspidal of U3: q(q-1)
_DEG_U3 = CyclotomicProduct(1, 2, ((1, 1), (2, 1)))
# theta_10 of Sp4/SO5: q(q-1)^2/2
_DEG_B2 = CyclotomicProduct(Fraction(1, 2), 2, ((1, 2), (2, 2)))


_EXCEPTIONAL_CLASSES = {
    ("G", 2, 1): ((1, 1), (1, 2), (2, 3)),
    ("F", 4, 1): ((1, 1), (1, 2), (2, 3), (2, 4), (1, 2)),
    ("E", 6, 1): ((2, 3),),
    ("E", 6, 2): ((1, 1), (2, 3)),
    ("E", 7, 1): ((2, 4),),
    ("E", 8, 1): ((1, 1), (1, 2), (1, 2), (2, 3), (2, 4), (2, 6), (4, 5)),
    ("D", 4, 3): ((1, 1), (1, 2)),
}


def component_cuspidal_classes(family, rank, twist):
    """Equal-degree classes for one finite almost-simple factor; empty if the
    group has no cuspidal unipotent representation."""
    key = (family, rank, twist)
    if key in _EXCEPTIONAL_CLASSES:
        return [CuspidalClass(f"c{i}", size, tag, None)
                for i, (size, tag) in enumerate(_EXCEPTIONAL_CLASSES[key])]
    if family == "A" and twist == 1:
        return []
    if family == "A" and twist == 2:
        if not _is_triangular(rank + 1):
            return []
        deg = _DEG_U3 if rank == 2 else None
        return [CuspidalClass("u", 1, None, deg)]
    if family in ("B", "C") and twist == 1:
        t = rank
        if not _is_square(4 * t + 1):
            return []
        deg = _DEG_B2 if rank == 2 else None
        return [CuspidalClass("u", 1, None, deg)]
    if family == "D" and twist == 1:
        t = rank
        if _is_square(t) and t % 2 == 0:
            return [CuspidalClass("u", 1, None, None)]
        return []
    if family == "D" and twist == 2:
        t = rank
        if _is_square(t) and t % 2 == 1:
            return [CuspidalClass("u", 1, None, None)]
        return []
    return []


@dataclass(frozen=True)
class CuspidalUnipotentDatum:
    """All cuspidal unipotent representations on one support, grouped into
    equal-degree classes."""

    host: ParahoricClass
    count: int
    classes: tuple


def cuspidal_data(group, form, host):
    """Cuspidal unipotent classes of the host's finite quotient, or None if
    the support carries none."""
    per_orbit = []
    for co in host.orbits:
        classes = component_cuspidal_classes(co.family, co.rank, co.twist)
        if not classes:
            return None
        scaled = []
        for c in classes:
            deg = c.degree.subst_t_power(co.orbit_size) if c.degree is not None else None
            scaled.append(CuspidalClass(c.class_id, c.size, c.ns_tag, deg))
        per_orbit.append((co, scaled))

    combined = [CuspidalClass("", 1, None, CyclotomicProduct(1))]
    for co, classes in per_orbit:
        nxt = []
        for base in combined:
            for c in classes:
                if base.ns_tag is not None and c.ns_tag is not None:
                    raise InvariantError(
                        "two exceptional factors on one support")
                tag = base.ns_tag if c.ns_tag is None else c.ns_tag
                deg = None
                if base.degree is not None and c.degree is not None:
                    deg = base.degree * c.degree
                cid = f"{base.class_id}+{co.descriptor()}.{c.class_id}" \
                    if base.class_id else f"{co.descriptor()}.{c.class_id}"
                nxt.append(CuspidalClass(cid, base.size * c.size, tag, deg))
        combined = nxt
    if not per_orbit:
        combined = [CuspidalClass("triv", 1, None, CyclotomicProduct(1))]
    total = sum(c.size for c in combined)
    return CuspidalUnipotentDatum(host=host, count=total,
                                  classes=tuple(combined))


def supports_with_cuspidals(group, form):
    """The case rows on the p-adic side: (support class, cuspidal datum)."""
    out = []
    for host in parahoric_classes(group, form):
        datum = cuspidal_data(group, form, host)
        if datum is not None:
            out.append((host, datum))
    return out


# ---------------------------------------------------------------------------
# formal degrees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FormalDegree:
    """Formal degree in normal form: dim(sigma) over the stabilizer order
    times the parahoric volume.  value is None when the dimension polynomial
    is not available."""

    value: CyclotomicProduct | None
    dim_sigma: CyclotomicProduct | None
    stabilizer_order: int
    volume: CyclotomicProduct


def formal_degree(group, form, host, cls):
    """Formal degree of the cuspidal class cls on the support class host:
    the class degree over |Omega^{theta,P}| times the parahoric volume, which
    comes from the host's stored component orbits and dimension."""
    vol = parahoric_volume(group, host, f_omega_perm(group, form))
    stab = len(host.stabilizer_G)
    if cls.degree is None:
        return FormalDegree(None, None, stab, vol)
    value = cls.degree / (CyclotomicProduct(stab) * vol)
    return FormalDegree(value, cls.degree, stab, vol)


# ---------------------------------------------------------------------------
# reductive wrapper: central anisotropic torus
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CentralTorusWrapper:
    """Reductive group isogenous to (central anisotropic torus) x (derived
    group); the torus is given by the integer matrix of Frobenius on its
    cocharacter lattice."""

    twist_matrix: tuple

    def dim(self):
        return len(self.twist_matrix)

    def point_count(self):
        matrix = [list(r) for r in self.twist_matrix]
        return det_qw_minus_one(matrix).to_ratfunc()

    def volume_ratio(self):
        """q^(dim/2) / point count: the factor relating the formal degree of
        the reductive group to that of its derived group."""
        return RatFunc.t_power(self.dim()) / self.point_count()
