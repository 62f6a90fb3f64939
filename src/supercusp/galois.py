"""Unramified discrete parameters and their exact |gamma(0)|.

A parameter is pinned by a torsion point of the dual group, realized as a
single cut node of the dual affine diagram together with its label n_s,
both recorded on the case row only (CaseEntry.cut_node and n_s); a row
without a node gives a parameter without one.  The diagram depends on the
group alone: dual_affine_diagram reads it off the dual type as one (marks,
Cartan matrix) record, the untwisted one off the dual root system, the
fused chains E6^(2) and D4^(3) from their lengths by rootdata.cartan_matrix,
once at import.  Deleting the node gives the centralizer type, checked
against the row's explicit type string where it has one; the matching
cuspidal support lives on a distinguished unipotent class there.  When that
class is regular (every factor of linear type) the full decomposition of
the adjoint representation into weight strings is computed exactly by
root-space bookkeeping and rootdata.string_tops, and |gamma(0, Ad o phi,
psi)| from it once per weight multiset per process, below local_factors.
Otherwise both are left unavailable rather than guessed.  The parameter
holds only what is computed here, from the dual type and the row: the Kac
coordinates, the centralizer's components and central order, the weights
and |gamma(0)|.  kac_rows hands out the support, class and row beside it,
and param_json prints the node, n_s, shape name and class tag from those.

Local factor conventions, fixed once for the whole package: a string of
highest weight h with torsion eigenvalue alpha = zeta_m^k, held as the
reduced integer pair (m, k), carries Frobenius eigenvalues
alpha*q^(h/2), ..., alpha*q^(-h/2), and the monodromy kernel is the
lowest line.  The reports read one local factor, in t = q^(1/2):
|gamma(0)| = |t^e prod (1 - alpha t^-h) / prod (1 - alpha^-1 t^(-h-2))|,
the products over the strings, e the sum of ord_psi (h + 1) + h.  The
numerator is 1/L(0), the denominator 1/L(1) of the dual, and t^e is
epsilon(0) up to its unit.  That unit is not needed: the absolute value
drops its sign, and on an inversion-closed multiset it is +-1 anyway
(residues k and -k cancel, the eigenvalue -1 adds only half turns).  No
pole falls at s = 0: it would need a trivial string of weight -2.

The products are computed in factored form (exact.CyclotomicProduct).  The
factors (1 - zeta_m^k t^E), E = -h or -h - 2, are grouped by (m, E), and
each full Galois orbit over k in (Z/m)^x multiplies at once to Phi_m(t^E),
or to -Phi_1(t^E) when m = 1.  For E < 0 the palindromic Phi_m (m >= 2)
gives Phi_m(t^E) = t^(E phi(m)) Phi_m(t^-E); for E = 0 the orbit is the
integer Phi_m(1).  A group whose residues k do not fill whole orbits has
an irrational product, so the multiset is not stable under the Galois
action.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import NamedTuple

from supercusp.casetable import rows_for_host
from supercusp.exact import (CyclotomicProduct, Frozen, InvariantError,
                             cyclotomic_poly, euler_phi)
from supercusp.padic import classified_components, supports_with_cuspidals
from supercusp.rootdata import cartan_matrix, root_system, string_tops


# ---------------------------------------------------------------------------
# weight strings
# ---------------------------------------------------------------------------


class WeightString(Frozen):
    """One irreducible summand of an unramified monodromy representation:
    the torsion eigenvalue zeta_order^residue tensored with the string of
    highest weight h, of dimension h + 1.  The eigenvalue is kept reduced,
    so order is its exact order and residue is prime to it (the trivial
    eigenvalue is order 1, residue 0)."""

    __slots__ = ("order", "residue", "h")

    def __init__(self, order, residue, h):
        if order < 1:
            raise ValueError("eigenvalue order must be positive")
        if h < 0:
            raise ValueError("highest weight must be nonnegative")
        k = residue % order
        g = gcd(k, order)
        order, residue = order // g, k // g
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "residue", residue)
        object.__setattr__(self, "h", h)


# ---------------------------------------------------------------------------
# |gamma(0)|: products of linear factors with cyclotomic coefficients
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _orbit_product(m, E):
    """Product of (1 - zeta_m^k t^E) over k in (Z/m)^x, for E <= 0."""
    if E == 0:
        # Phi_m(1), the sum of Phi_m's coefficients
        return CyclotomicProduct(sum(cyclotomic_poly(m)))
    # Phi_m(1/x) = x^(-phi(m)) Phi_m(x) for m >= 2; for m = 1 the sign of
    # -Phi_1 cancels against Phi_1(1/x) = -x^(-1) Phi_1(x)
    return CyclotomicProduct(1, -euler_phi(m), ((m, 1),)).subst_t_power(-E)


def _galois_product(factors):
    """Product of (1 - zeta_m^k t^E) over the (m, k, E) triples, which must
    fill whole Galois orbits within each (m, E)."""
    groups = {}
    for m, k, E in factors:
        residues = groups.setdefault((m, E), {})
        residues[k] = residues.get(k, 0) + 1
    # every orbit constant is an integer, so the product stays one
    const, t_exp, phi = 1, 0, []
    for (m, E), residues in groups.items():
        units = [k for k in range(m) if gcd(k, m) == 1]
        counts = {residues.get(k, 0) for k in units}
        if len(counts) != 1 or sorted(residues) != units:
            raise ValueError(
                "irrational coefficient: the eigenvalue multiset is not "
                "stable under the Galois action")
        c, orbit = counts.pop(), _orbit_product(m, E)
        const *= orbit.const.numerator ** c
        t_exp += orbit.t_exp * c
        phi += [(n, e * c) for n, e in orbit.phi]
    return CyclotomicProduct(const, t_exp, phi)


@lru_cache(maxsize=None)
def _gamma_abs_0(strings, ord_psi):
    """|gamma(0)| of a tuple of WeightStrings, once per (strings, ord_psi)
    per process: equal tuples share one cache entry, and a raising call
    stores none."""
    if Counter((w.order, w.residue, w.h) for w in strings) != Counter(
            (w.order, -w.residue % w.order, w.h) for w in strings):
        raise ValueError("weight multiset is not closed under inversion")
    exp = sum(ord_psi * (w.h + 1) + w.h for w in strings)
    num = _galois_product([(w.order, w.residue, -w.h) for w in strings])
    # the dual's factors: k -> -k permutes (Z/m)^x, so they need no
    # conjugation
    den = _galois_product([(w.order, w.residue, -w.h - 2) for w in strings])
    return abs(CyclotomicProduct(1, exp) * num / den)


def local_factors(weights, ord_psi=0):
    """|gamma(0, V, psi)| of the weight multiset V, a CyclotomicProduct.
    V must be closed under inversion of the eigenvalues (self-dual) and
    stable under the Galois action; anything else is an upstream bug."""
    return _gamma_abs_0(tuple(weights), ord_psi)


# ---------------------------------------------------------------------------
# dual diagrams and node deletion
# ---------------------------------------------------------------------------

_DUAL_FAMILY = {"A": "A", "B": "C", "C": "B", "D": "D",
                "E": "E", "F": "F", "G": "G"}


# the fused dual diagrams by dual type, (marks, Cartan matrix) built once
# from chains with their node marks and the squared lengths of their nodes:
# E6^(2) has a double bond from node 2 to the long node 3, D4^(3) a triple
# bond from node 1 to the long node 2
_FUSED_CHAINS = {
    dual: (marks, cartan_matrix([(i, i + 1) for i in range(len(lengths) - 1)],
                                lengths))
    for dual, marks, lengths in [
        (("E", 6, 2), (1, 2, 3, 2, 1), (1, 1, 1, 2, 2)),
        (("D", 4, 3), (1, 2, 1), (1, 1, 3))]}


def dual_type(group):
    """(family, rank, twist) of the dual group with its diagram action."""
    return (_DUAL_FAMILY[group.family], group.rank, group.twist_order)


def dual_affine_diagram(dual):
    """(marks, Cartan matrix) of the affine diagram of the dual type
    (family, rank, twist) with its Frobenius action: for twist 1 the dual
    root system's, for 2E6 and 3D4 a fused chain's, built at import.
    Any other twisted dual has no diagram here: InvariantError."""
    family, rank, twist = dual
    if twist == 1:
        rs = root_system(family, rank)
        return rs.marks, rs.affine_cartan
    if dual not in _FUSED_CHAINS:
        raise InvariantError(f"no affine diagram for the twisted dual type "
                             f"{twist}{family}{rank}")
    return _FUSED_CHAINS[dual]


def centralizer_components(dual, v_node):
    """Connected components left by cutting one node of the dual type's
    affine diagram, as canonical (family, rank) pairs.  The untwisted
    diagrams and the fused chains go through the same classifier."""
    marks, cartan = dual_affine_diagram(dual)
    rest = [x for x in range(len(marks)) if x != v_node]
    comps = classified_components(cartan, rest)
    return tuple(sorted(kind for _, kind in comps))


# ---------------------------------------------------------------------------
# root-space computation of the adjoint weight strings
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def inner_torsion_strings(dual_family, dual_rank, v_node):
    """Adjoint weight strings for an inner torsion point cut at one node,
    supported on the regular unipotent class of the centralizer.

    The torsion point acts on a root space by zeta^(c_v), the coefficient
    of the cut node; the regular class of the centralizer grades everything
    by its neutral element h, which the cut diagram gives in closed form:
    <alpha_i, h> = 2 on every affine simple root but the cut one, and at a
    cut node v > 0 the root alpha_0 = -theta then forces
    <alpha_v, h> = 2 - 2 (sum of the marks) / n_s.  The strings are read
    off the multiplicity of each (level mod n_s, weight) by string_tops."""
    rs = root_system(dual_family, dual_rank)
    n_s = rs.marks[v_node]
    grade = [2] * dual_rank
    if v_node:
        h_v, rem = divmod(2 * n_s - 2 * sum(rs.marks), n_s)
        if rem:
            raise InvariantError(f"<alpha_{v_node}, h> is not an integer")
        grade[v_node - 1] = h_v
    # a root is its simple-root coefficients, its level the coefficient of
    # the cut node; h is regular on the centralizer's roots (level 0 mod n_s)
    mult = {(0, 0): dual_rank}
    for beta in rs.roots:
        key = ((beta[v_node - 1] if v_node else 0) % n_s,
               sum(b * g for b, g in zip(beta, grade)))
        if key == (0, 0):
            raise InvariantError(f"h is not regular on the centralizer "
                                 f"root {beta}")
        mult[key] = mult.get(key, 0) + 1

    if any(mult.get((r, -w), 0) != m for (r, w), m in mult.items()):
        raise InvariantError("graded multiplicity asymmetry")
    strings = [WeightString(n_s, r, w) for r, w in string_tops(mult)]
    total = sum(w.h + 1 for w in strings)
    if total != 2 * rs.num_pos_roots + dual_rank:
        raise InvariantError(f"strings span dimension {total}, not the "
                             f"adjoint dimension")
    return tuple(sorted(strings, key=lambda w: (w.h, w.order, w.residue)))


# ---------------------------------------------------------------------------
# unramified parameters
# ---------------------------------------------------------------------------


class UnramifiedParam(NamedTuple):
    """A discrete unramified parameter, with its adjoint weight strings and
    |gamma(0, Ad o phi, psi)| at ord psi = -1 where they are known.  The
    support, class and case row it was read from travel beside it
    (kac_rows), and the row holds its cut node and n_s."""

    kac_coordinates: tuple | None
    # the torsion centralizer: ((family, rank), ...) left by cutting the
    # case row's node (None when the row records none) and its central order
    components: tuple | None
    central_order: int | None
    sl2_weights: tuple | None
    gamma_abs_0: CyclotomicProduct | None


def _build_param(group, row):
    dual = dual_type(group)
    fam_d, rank_d, twist_d = dual
    v_node = row.cut_node

    kac = comps = central_order = weights = gamma = None
    if v_node is not None:
        marks = dual_affine_diagram(dual)[0]
        if marks[v_node] != row.n_s:
            raise InvariantError(
                f"Kac label mismatch at node {v_node}: mark {marks[v_node]}"
                f" vs recorded {row.n_s}")
        kac = tuple(int(i == v_node) for i in range(len(marks)))
        comps = centralizer_components(dual, v_node)
        # a shape name, in classified_components' names, lists the factors
        names = sorted(f"{fam}{rank}" for fam, rank in comps)
        if row.geometric is not None and \
                sorted(row.geometric.split("x")) != names:
            raise InvariantError(
                f"centralizer mismatch: cut {v_node} of {fam_d}{rank_d} "
                f"gives {comps}, table says {row.geometric!r}")
        # |Z(G^vee_sc)| is the order of the dual adjoint fundamental group
        central_order = row.n_s * root_system(fam_d, rank_d).omega.order()
        # the regular class of an all-linear centralizer (untwisted dual)
        if twist_d == 1 and all(fam == "A" for fam, _ in comps):
            weights = inner_torsion_strings(fam_d, rank_d, v_node)
            gamma = local_factors(weights, ord_psi=-1)

    return UnramifiedParam(
        kac_coordinates=kac, components=comps, central_order=central_order,
        sl2_weights=weights, gamma_abs_0=gamma)


def kac_rows(group, form):
    """(host, class, case row, parameter) per case row hosted by the inner
    form, in catalogue order: one pass over the supports feeds both the
    parahoric side and the dual-side reading."""
    out = []
    for host, classes in supports_with_cuspidals(group, form):
        rows = rows_for_host(group, host, classes)
        for cls, row in zip(classes, rows):
            out.append((host, cls, row, _build_param(group, row)))
    return out


def kac_points(group, form):
    """One parameter per case row hosted by the inner form: the dual-side
    reading of the parahoric support classes."""
    return [param for *_, param in kac_rows(group, form)]


# ---------------------------------------------------------------------------
# the formal degree identity
# ---------------------------------------------------------------------------


class HIIResult(NamedTuple):
    status: str              # "holds" | "fails" | "unverifiable"
    lhs: CyclotomicProduct | None
    rhs: CyclotomicProduct | None


def hii_check(fdeg, param, rho_dim, s_sharp):
    """Exact check of the formal degree identity, or "unverifiable" when the
    formal degree, the gamma magnitude or |S#| is unknown.

    The parameter's gamma magnitude is taken at ord psi = -1, matching the
    volume normalization of the parahoric quotients."""
    gamma_abs = param.gamma_abs_0
    if gamma_abs is None or fdeg is None or s_sharp is None:
        return HIIResult("unverifiable", None, None)
    rhs = CyclotomicProduct(Fraction(rho_dim, s_sharp)) * gamma_abs
    return HIIResult("holds" if fdeg == rhs else "fails", fdeg, rhs)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def param_json(param, row, cls):
    """JSON-ready record of one parameter with its gamma data, and the node,
    n_s and pattern of its case row.  The centralizer is printed from the
    components, else the row's shape name; the class tag is regular where
    the weights are known, else the cuspidal class cls."""
    comps, weights = param.components, param.sl2_weights
    known = weights is not None
    return {
        "node": row.cut_node,
        "kac": list(param.kac_coordinates) if param.kac_coordinates else None,
        "n_s": row.n_s,
        "centralizer": (row.geometric or "unrecorded") if comps is None
        else "x".join(f"{fam}{rank}" for fam, rank in comps),
        "central_order": param.central_order,
        "pattern": row.pattern,
        "class_tag": "regular" if known else f"cuspidal:{cls.class_id}",
        "weights": [[w.order, w.residue, w.h] for w in weights] if known
        else None,
        "gamma_abs_0": param.gamma_abs_0.to_json() if known else None,
    }
