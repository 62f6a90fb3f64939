"""Unramified discrete parameters and exact local factors.

A parameter is pinned by a torsion point of the dual group, realized as a
single cut node of the dual affine diagram together with its label n_s.
Deleting the node gives the centralizer type; the matching cuspidal support
lives on a distinguished unipotent class there.  When that class is regular
(every factor of linear type) the full decomposition of the adjoint
representation into weight strings is computed exactly by root-space
bookkeeping.  Otherwise the multiset is left unavailable rather than
guessed.

Local factor conventions, fixed once for the whole package: a string of
highest weight h with torsion eigenvalue alpha carries Frobenius
eigenvalues alpha*q^(h/2), ..., alpha*q^(-h/2); the monodromy kernel is the
lowest line, and its cokernel means V modulo that kernel.  The unramified
part of epsilon contributes q^(ord_psi * dim / 2) times a unit.

L and gamma are products of linear factors (1 - zeta_m^k t^E), and they are
computed in factored form (exact.CyclotomicProduct).  The factors are
grouped by (m, E), and each full Galois orbit over k in (Z/m)^x multiplies
at once to Phi_m(t^E), or to -Phi_1(t^E) when m = 1.  For E > 0 that is
Phi_m under CyclotomicProduct.subst_t_power;
for E < 0 the palindromic Phi_m (m >= 2) gives
Phi_m(t^E) = t^(E phi(m)) Phi_m(t^-E); for E = 0 the orbit is the constant
Phi_m(1).  A group whose residues k do not fill whole orbits has an
irrational product, so the multiset is not stable under the Galois action.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from supercusp.casetable import odd_orthogonal_blocks, rows_for_host
from supercusp.exact import (Cyclo, CyclotomicProduct, InvariantError,
                             RatFunc, cyclotomic_poly, euler_phi, p_eval)
from supercusp.padic import (_connected_components, classify_component,
                             supports_with_cuspidals)
from supercusp.rootdata import SimpleGroup, root_system


# ---------------------------------------------------------------------------
# weight strings
# ---------------------------------------------------------------------------


def _cyclo_pow(c, k):
    if k < 0:
        return _cyclo_pow(c.conj(), -k)
    out = Cyclo.rational(1)
    base = c
    while k:
        if k & 1:
            out = out * base
        base = base * base
        k >>= 1
    return out


def _is_root_of_unity(c):
    return _cyclo_pow(c, lcm(2, c.conductor)) == Cyclo.rational(1)


@dataclass(frozen=True)
class WeightString:
    """One irreducible summand of an unramified monodromy representation:
    a torsion eigenvalue tensored with the string of the given highest
    weight.  Dimension h + 1."""

    alpha: Cyclo
    h: int

    def __post_init__(self):
        if self.h < 0:
            raise ValueError("highest weight must be nonnegative")
        if not _is_root_of_unity(self.alpha):
            raise ValueError("torsion eigenvalue must be a root of unity")

    def dim(self):
        return self.h + 1

    def dual(self):
        return WeightString(self.alpha.conj(), self.h)


def string_of(order, exponent, h):
    """Convenience constructor: eigenvalue zeta_order^exponent."""
    return WeightString(Cyclo.root_of_unity(order, exponent), h)


# ---------------------------------------------------------------------------
# products of linear factors with cyclotomic coefficients
# ---------------------------------------------------------------------------


def _orbit_product(m, E):
    """Product of (1 - zeta_m^k t^E) over k in (Z/m)^x."""
    if E == 0:
        return CyclotomicProduct(p_eval(cyclotomic_poly(m), 1))
    orbit = CyclotomicProduct(1, 0, ((m, 1),)).subst_t_power(abs(E))
    if E > 0:
        return orbit * CyclotomicProduct(-1 if m == 1 else 1)
    # Phi_m(1/x) = x^(-phi(m)) Phi_m(x) for m >= 2; for m = 1 the sign of
    # -Phi_1 cancels against Phi_1(1/x) = -x^(-1) Phi_1(x)
    return orbit * CyclotomicProduct(1, E * euler_phi(m))


def _string_factors(strings, shift, conjugate=False):
    """(1 - alpha t^(-h - shift)) per string, alpha conjugated on request,
    as (m, k, E) triples."""
    out = []
    for w in strings:
        m, k, h = _eigenvalue_triple(w)
        out.append((m, -k % m if conjugate else k, -h - shift))
    return out


def _galois_product(factors):
    """Product of (1 - zeta_m^k t^E) over the (m, k, E) triples, which must
    fill whole Galois orbits within each (m, E)."""
    groups = {}
    for m, k, E in factors:
        residues = groups.setdefault((m, E), {})
        residues[k] = residues.get(k, 0) + 1
    out = CyclotomicProduct(1)
    for (m, E), residues in sorted(groups.items()):
        units = [k for k in range(m) if gcd(k, m) == 1]
        counts = {residues.get(k, 0) for k in units}
        if len(counts) != 1 or sorted(residues) != units:
            raise ValueError(
                "irrational coefficient: the eigenvalue multiset is not "
                "stable under the Galois action")
        out = out * _orbit_product(m, E) ** counts.pop()
    return out


def _two_s(s):
    v = Fraction(s)
    two = v * 2
    if two.denominator != 1:
        raise ValueError("shift must be a half integer")
    return int(two)


# ---------------------------------------------------------------------------
# local factors of an unramified monodromy representation
# ---------------------------------------------------------------------------


def _gamma0_magnitude(strings, ord_psi):
    """|gamma(0)| by pairing every factor with its inversion partner: the
    kernel-line quotient is then real, and the epsilon magnitude is the
    measure power times t^(sum of weights)."""
    num = _galois_product(_string_factors(strings, 0))
    den = _galois_product(_string_factors(strings, 2, conjugate=True))
    exp = ord_psi * sum(w.h + 1 for w in strings) + sum(w.h for w in strings)
    return abs(num / den) * CyclotomicProduct(1, exp)


@dataclass(frozen=True)
class WDLocalFactors:
    """Exact L, epsilon and gamma of an inversion-closed weight multiset.
    The shift s ranges over half integers; the values at s are RatFuncs in
    t, and |gamma(0)| is a CyclotomicProduct."""

    strings: tuple
    ord_psi: int
    gamma_abs_at_0: CyclotomicProduct

    def dim(self):
        return sum(w.h + 1 for w in self.strings)

    def dual(self):
        return local_factors(tuple(w.dual() for w in self.strings),
                             self.ord_psi)

    def L_at(self, s):
        inv = _galois_product(_string_factors(self.strings, _two_s(s)))
        return (CyclotomicProduct(1) / inv).to_ratfunc()

    def eps_at(self, s):
        two_s = _two_s(s)
        unit = Cyclo.rational(1)
        exp = self.ord_psi * self.dim()
        for w in self.strings:
            unit = unit * _cyclo_pow(w.alpha,
                                     (w.h + 1) * self.ord_psi + w.h)
            if w.h % 2:
                unit = -unit
            exp += -two_s * (w.h + 1) * self.ord_psi + w.h * (1 - two_s)
        if not unit.is_rational():
            raise ValueError("epsilon unit is irrational")
        return RatFunc.from_fraction(unit.as_fraction()) * RatFunc.t_power(exp)

    def gamma_at(self, s):
        two_s = _two_s(s)
        for w in self.strings:
            if w.h == two_s - 2 and w.alpha == Cyclo.rational(1):
                raise ValueError("gamma has a pole at this shift")
        num = _galois_product(_string_factors(self.strings, two_s))
        den = _galois_product(
            _string_factors(self.strings, 2 - two_s, conjugate=True))
        return self.eps_at(s) * (num / den).to_ratfunc()


def local_factors(weights, ord_psi=0):
    """Bundle a weight multiset into its local factor data.

    The multiset must be closed under inversion of the eigenvalues; that is
    exactly self-duality of the representation, and anything else signals an
    upstream bug."""
    strings = tuple(weights)
    pool = list(strings)
    while pool:
        w = pool.pop()
        partner = w.dual()
        if partner == w:
            continue
        try:
            pool.remove(partner)
        except ValueError:
            raise ValueError(
                "weight multiset is not closed under inversion") from None
    return WDLocalFactors(strings=strings, ord_psi=ord_psi,
                          gamma_abs_at_0=_gamma0_magnitude(strings, ord_psi))


def gamma0_virtual(plus, minus):
    """|gamma(0)| of a virtual difference of two multisets."""
    if minus.gamma_abs_at_0.is_zero():
        raise ValueError("virtual gamma undefined: denominator vanishes")
    return plus.gamma_abs_at_0 / minus.gamma_abs_at_0


# ---------------------------------------------------------------------------
# dual diagrams and node deletion
# ---------------------------------------------------------------------------

_DUAL_FAMILY = {"A": "A", "B": "C", "C": "B", "D": "D",
                "E": "E", "F": "F", "G": "G"}


def _chain_pair(edges):
    """Cartan entries <alpha_a, alpha_b^vee> of a chain diagram with the
    given bond multiplicities between consecutive nodes: -m and -1 across a
    bond of multiplicity m, the later node being the long one."""
    def pair(a, b):
        if a == b:
            return 2
        if abs(a - b) != 1:
            return 0
        return -edges[min(a, b)] if a > b else -1
    return pair


# chain layouts of the fused dual diagrams: node marks and Cartan entries
_FUSED_CHAINS = {
    "E6(2)": {"marks": (1, 2, 3, 2, 1), "pair": _chain_pair((1, 1, 2, 1))},
    "D4(3)": {"marks": (1, 2, 1), "pair": _chain_pair((1, 3))},
}


def dual_type(group):
    """(family, rank, twist) of the dual group with its diagram action."""
    return (_DUAL_FAMILY[group.family], group.rank, group.twist_order)


@lru_cache(maxsize=None)
def _dual_group(dual_family, dual_rank):
    return SimpleGroup(dual_family, dual_rank, 1, "adjoint")


def centralizer_components(dual_family, dual_rank, diagram, v_node):
    """Connected components left by cutting one node of the dual affine
    diagram, as canonical (family, rank) pairs.  The untwisted diagram and
    the fused chains go through the same classifier, each with its own
    Cartan entries."""
    if diagram in (None, "untwisted"):
        grp = _dual_group(dual_family, dual_rank)
        nodes, pair = grp.affine_nodes(), grp.node_pair
    else:
        chain = _FUSED_CHAINS[diagram]
        nodes, pair = range(len(chain["marks"])), chain["pair"]
    rest = [x for x in nodes if x != v_node]
    return tuple(sorted(classify_component(pair, comp)
                        for comp in _connected_components(pair, rest)))


def _dual_marks(dual_family, dual_rank, diagram):
    if diagram in (None, "untwisted"):
        return _dual_group(dual_family, dual_rank).rs.marks
    return _FUSED_CHAINS[diagram]["marks"]


@dataclass(frozen=True)
class CentralizerType:
    """Lie type of the torsion centralizer with its central datum."""

    components: tuple | None   # ((family, rank), ...) or None if only a shape
    type_string: str
    central_order: int | None

    def all_linear(self):
        return self.components is not None and \
            all(fam == "A" for fam, _ in self.components)


def _normalize_component(fam, rank):
    """Collapse the small-rank coincidences so shapes compare reliably."""
    if rank == 1:
        return ("A", 1)
    if (fam, rank) in (("B", 2), ("C", 2)):
        return ("B", 2)
    if (fam, rank) == ("D", 3):
        return ("A", 3)
    return (fam, rank)


def _parse_type_string(s):
    out = []
    for part in s.split("x"):
        fam, rank = part[0], int(part[1:])
        out.append(_normalize_component(fam, rank))
    return tuple(sorted(out))


def _shape_matches(geometric, norm):
    """Do the computed components (sorted, canonical as classify_component
    gives them) match the recorded centralizer string?  Explicit strings
    compare as normalized multisets; parametric shape names compare by
    family pattern only."""
    fams = sorted(f for f, _ in norm)
    if geometric is None:
        return True
    shapes = {
        "regular-elliptic": lambda: len(norm) == 1 and fams == ["A"],
        "Sp": lambda: len(norm) == 1,
        "SpxSO": lambda: len(norm) == 2,
        "Sp-pair": lambda: len(norm) == 2,
        "CxC-equal": lambda: 1 <= len(norm) <= 2,
        "CxC": lambda: 1 <= len(norm) <= 2,
        "DxB": lambda: 1 <= len(norm) <= 2,
        "B-single": lambda: len(norm) == 1 and fams in (["B"], ["C"]),
        "DxD-equal": lambda: 1 <= len(norm) <= 2,
        "DxD": lambda: 1 <= len(norm) <= 2,
        "D-single": lambda: len(norm) == 1,
        "BxB-equal": lambda: 1 <= len(norm) <= 2,
        "BxB": lambda: 1 <= len(norm) <= 2,
    }
    if geometric in shapes:
        return shapes[geometric]()
    return _parse_type_string(geometric) == norm


# ---------------------------------------------------------------------------
# root-space computation of the adjoint weight strings
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def inner_torsion_strings(dual_family, dual_rank, v_node):
    """Adjoint weight strings for an inner torsion point cut at one node,
    supported on the regular unipotent class of the centralizer.

    The torsion point acts on a root space by zeta^(c_v), the coefficient
    of the cut node; the regular class of the centralizer grades everything
    by pairing against the sum of its positive coroots.  String counts fall
    out of the graded multiplicities."""
    rs = root_system(dual_family, dual_rank)
    n_s = rs.marks[v_node]
    n = dual_rank
    # a root is its simple-root coefficients: the level is the coefficient
    # of the cut node, the sign of the height tells positive from negative
    levels = {beta: 0 if v_node == 0 else beta[v_node - 1]
              for beta in rs.roots}
    cz_positive = [beta for beta, level in levels.items()
                   if level == n_s or (level % n_s == 0 and sum(beta) > 0)]
    if 2 * len(cz_positive) != sum(1 for lev in levels.values()
                                   if lev % n_s == 0):
        raise InvariantError("centralizer roots do not split in halves")

    # grading by the regular class of the centralizer: the pairing
    # sum_gamma <beta, gamma^vee> over its positive roots gamma, through the
    # sum of their coroots and its pairing with each simple root
    corho = [0] * n
    for gamma in cz_positive:
        corho = [a + b for a, b in zip(corho, rs.coroot(gamma))]
    grade = [sum(rs.cartan[i][j] * corho[j] for j in range(n))
             for i in range(n)]
    mult = {}
    for beta, level in levels.items():
        key = (level % n_s, sum(b * g for b, g in zip(beta, grade)))
        mult[key] = mult.get(key, 0) + 1
    mult[(0, 0)] = mult.get((0, 0), 0) + dual_rank

    strings = []
    for residue in range(n_s):
        weights = sorted(w for r, w in mult if r == residue)
        if not weights:
            continue
        top = weights[-1]
        for k in range(-top, top + 1):
            if mult.get((residue, k), 0) != mult.get((residue, -k), 0):
                raise InvariantError("graded multiplicity asymmetry")
        for w in range(top, -1, -1):
            count = mult.get((residue, w), 0) - mult.get((residue, w + 2), 0)
            if count < 0:
                raise InvariantError("not a string decomposition")
            strings.extend(
                WeightString(Cyclo.root_of_unity(n_s, residue), w)
                for _ in range(count))
    total = sum(w.h + 1 for w in strings)
    if total != 2 * rs.num_pos_roots + dual_rank:
        raise InvariantError(f"strings span dimension {total}, not the "
                             f"adjoint dimension")
    return tuple(sorted(strings, key=lambda w: (w.h, str(w.alpha))))


def regular_linear_strings(n):
    """Adjoint strings of the fully anisotropic linear case: one string of
    each highest weight 2, 4, ..., 2(n-1), trivial eigenvalue."""
    return inner_torsion_strings("A", n - 1, 0)


# ---------------------------------------------------------------------------
# unramified parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnramifiedParam:
    """A discrete unramified parameter, pinned by its cut node when that is
    recorded or derivable, and by its case pattern otherwise."""

    dual_family: str
    dual_rank: int
    dual_twist: int
    dual_diagram: str | None    # None/"untwisted" or a fused chain name
    v_node: int | None
    kac_coordinates: tuple | None
    n_s: int
    centralizer: CentralizerType
    unipotent_class_tag: str
    sl2_weights: tuple | None
    pattern: str
    b_adjoint: int
    class_size: int
    form_token: str
    support: tuple

    def weight_dim(self):
        if self.sl2_weights is None:
            return None
        return sum(w.h + 1 for w in self.sl2_weights)


def _tri(m):
    # triangular number, algebraically continued: nonnegative for every m
    return m * (m + 1) // 2


def _odd_orthogonal_cut(group, host):
    """Cut node on the dual chain for the odd orthogonal family: the block
    data inverts to a pair of dual ranks summing to the full rank."""
    blocks = odd_orthogonal_blocks(host)
    if blocks is None:
        return None
    a, b = blocks
    n_plus, n_minus = _tri(a + b), _tri(a - b)
    if n_plus + n_minus != group.rank:
        return None
    return n_minus


def _search_cut_node(dual_family, dual_rank, geometric, n_s):
    """Find a node of the untwisted dual affine diagram whose deletion has
    the recorded type and whose mark is n_s.  Returns None if the string is
    a parametric shape or nothing matches."""
    if geometric is None or "-" in geometric \
            or geometric in ("Sp", "SpxSO", "CxC", "DxB", "DxD", "BxB"):
        return None
    try:
        want = _parse_type_string(geometric)
    except (ValueError, IndexError):
        return None
    grp = _dual_group(dual_family, dual_rank)
    for v in grp.affine_nodes():
        if grp.rs.marks[v] != n_s:
            continue
        if centralizer_components(dual_family, dual_rank, "untwisted",
                                  v) == want:
            return v
    return None


def _build_param(group, form, host, cls, row):
    fam_d, rank_d, twist_d = dual_type(group)
    diagram = row.dual_diagram
    v_node = None
    if row.vs_nodes is not None:
        v_node = row.vs_nodes[0]
    elif row.pattern == "lin.anisotropic":
        v_node, diagram = 0, "untwisted"
    elif group.family == "B" and row.pattern.startswith("oddorth"):
        v_node = _odd_orthogonal_cut(group, host)
        diagram = "untwisted" if v_node is not None else None
    elif twist_d == 1 and row.n_s == 1:
        # the unique order-one torsion point is central: cut at node 0
        v_node, diagram = 0, "untwisted"
    elif twist_d == 1:
        v_node = _search_cut_node(fam_d, rank_d, row.geometric, row.n_s)
        diagram = "untwisted" if v_node is not None else None

    kac = None
    if v_node is not None:
        marks = _dual_marks(fam_d, rank_d, diagram)
        if marks[v_node] != row.n_s:
            raise InvariantError(
                f"Kac label mismatch at node {v_node}: mark {marks[v_node]}"
                f" vs recorded {row.n_s}")
        kac = tuple(int(i == v_node) for i in range(len(marks)))
        comps = centralizer_components(fam_d, rank_d, diagram, v_node)
        if not _shape_matches(row.geometric, comps):
            raise InvariantError(
                f"centralizer mismatch: cut {v_node} of {fam_d}{rank_d} "
                f"gives {comps}, table says {row.geometric!r}")
        dual_sc_center = len(_dual_group(fam_d, rank_d).omega_elements())
        cz = CentralizerType(
            components=comps,
            type_string="x".join(f"{f}{r}" for f, r in comps),
            central_order=row.n_s * dual_sc_center)
    else:
        cz = CentralizerType(components=None,
                             type_string=row.geometric or "unrecorded",
                             central_order=None)

    computable = (v_node is not None and twist_d == 1
                  and diagram in (None, "untwisted") and cz.all_linear())
    tag = "regular" if computable else f"cuspidal:{cls.class_id or 'std'}"
    weights = inner_torsion_strings(fam_d, rank_d, v_node) if computable \
        else None

    return UnramifiedParam(
        dual_family=fam_d, dual_rank=rank_d, dual_twist=twist_d,
        dual_diagram=diagram, v_node=v_node, kac_coordinates=kac,
        n_s=row.n_s, centralizer=cz, unipotent_class_tag=tag,
        sl2_weights=weights, pattern=row.pattern, b_adjoint=row.b_ad,
        class_size=cls.size, form_token=form.token, support=host.support)


def kac_rows(group, form):
    """(host, class, case row, parameter) per case row hosted by the inner
    form, in catalogue order: one pass over the supports feeds both the
    parahoric side and the dual-side reading."""
    out = []
    for host, datum in supports_with_cuspidals(group, form):
        rows = rows_for_host(group, form, host, datum.classes)
        for cls, row in zip(datum.classes, rows):
            out.append((host, cls, row,
                        _build_param(group, form, host, cls, row)))
    return out


def kac_points(group, form):
    """One parameter per case row hosted by the inner form: the dual-side
    reading of the parahoric support classes."""
    return [param for *_, param in kac_rows(group, form)]


def centralizer_type(param):
    """Recompute the centralizer of a parameter by cutting its node."""
    if param.v_node is None:
        raise ValueError("parameter has no recorded cut node")
    comps = centralizer_components(param.dual_family, param.dual_rank,
                                   param.dual_diagram, param.v_node)
    return CentralizerType(
        components=comps,
        type_string="x".join(f"{f}{r}" for f, r in comps),
        central_order=param.centralizer.central_order)


def adjoint_wd_rep(param):
    """Weight strings of the adjoint representation, where encoded.

    Only inner parameters whose centralizer is a product of linear factors
    carry the regular class; everything else raises."""
    if param.v_node is None or param.dual_twist != 1 \
            or param.dual_diagram not in (None, "untwisted"):
        raise LookupError(
            "unipotent class not encoded for this parameter")
    if not param.centralizer.all_linear():
        raise LookupError(
            f"unipotent class not encoded for centralizer "
            f"{param.centralizer.type_string}")
    return inner_torsion_strings(param.dual_family, param.dual_rank,
                                 param.v_node)


# ---------------------------------------------------------------------------
# cuspidal support bookkeeping
# ---------------------------------------------------------------------------

# patterns where one central character carries a swapped pair of cuspidal
# systems (the half-spin exception to the at-most-one rule)
_SPIN_PAIR_PATTERNS = {"symp.mixed", "evenorth.mixed", "evenorth.unitary"}

# tabulated component groups: invariant factors and a display form
_COMPONENT_DATA = {
    "exc.E6": ((3, 3), "(Z/3)^3 / C"),
    "exc.E7": (None, "order 8, Z/4 mod center"),
    "exc.2E6": ((3, 3), "Z x <s>"),
}


@dataclass(frozen=True)
class CuspidalSupport:
    """Existence and count data for cuspidal systems on a centralizer,
    split by central character, with component-group data where encoded."""

    exists: bool
    count_by_central_character: dict
    component_invariants: tuple | None
    component_descriptor: str | None
    s_sharp: int | None

    def total_count(self):
        return sum(self.count_by_central_character.values())


def cuspidal_support(param, group):
    """Support data for one parameter of the given group."""
    pattern = param.pattern
    per_char = 2 if pattern in _SPIN_PAIR_PATTERNS else 1
    if param.b_adjoint % per_char:
        raise LookupError(f"count {param.b_adjoint} not in table "
                          f"for pattern {pattern}")
    n_chars = param.b_adjoint // per_char
    counts = {f"chi{i}": per_char for i in range(n_chars)}

    invariants = descriptor = s_sharp = None
    if pattern == "lin.anisotropic":
        n = param.dual_rank + 1
        invariants, descriptor = (n,), f"Z/{n}"
        # centralizer of the parameter in the dual of the group itself
        s_sharp = len(group.omega_G)
    elif pattern in _COMPONENT_DATA:
        invariants, descriptor = _COMPONENT_DATA[pattern]
        if pattern == "exc.2E6" and param.n_s == 1:
            invariants = descriptor = None
    return CuspidalSupport(
        exists=True,
        count_by_central_character=counts,
        component_invariants=invariants,
        component_descriptor=descriptor,
        s_sharp=s_sharp)


# ---------------------------------------------------------------------------
# the formal degree identity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HIIResult:
    status: str              # "holds" | "fails" | "unverifiable"
    lhs: CyclotomicProduct | None
    rhs: CyclotomicProduct | None

    def verifiable(self):
        return self.status != "unverifiable"


def hii_check(fdeg, param, rho_dim, s_sharp, gamma_abs=None):
    """Exact check of the formal degree identity.

    The additive character is taken of order -1, matching the volume
    normalization of the parahoric quotients.  gamma_abs overrides the
    adjoint gamma magnitude, which lets callers probe virtual inputs."""
    if gamma_abs is None:
        if param.sl2_weights is None or fdeg.value is None:
            return HIIResult("unverifiable", None, None)
        gamma_abs = local_factors(param.sl2_weights,
                                  ord_psi=-1).gamma_abs_at_0
    elif fdeg.value is None:
        return HIIResult("unverifiable", None, None)
    lhs = fdeg.value
    rhs = CyclotomicProduct(Fraction(rho_dim, s_sharp)) * gamma_abs
    status = "holds" if lhs == rhs else "fails"
    return HIIResult(status, lhs, rhs)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _eigenvalue_triple(w):
    """(m, k, h) with the eigenvalue zeta_m^k of order m, k prime to m."""
    m = w.alpha.conductor
    if m == 1:
        if w.alpha == Cyclo.rational(1):
            return (1, 0, w.h)
        return (2, 1, w.h)
    for k in range(1, m):
        if gcd(k, m) == 1 and Cyclo.root_of_unity(m, k) == w.alpha:
            return (m, k, w.h)
    raise ValueError(f"eigenvalue {w.alpha} is not a primitive "
                     f"{m}-th root of unity")


def param_json(param, ord_psi=-1):
    """JSON-ready record of one parameter and its gamma data."""
    rec = {
        "node": param.v_node,
        "kac": list(param.kac_coordinates) if param.kac_coordinates else None,
        "n_s": param.n_s,
        "centralizer": param.centralizer.type_string,
        "central_order": param.centralizer.central_order,
        "pattern": param.pattern,
        "class_tag": param.unipotent_class_tag,
        "weights": None,
        "gamma_abs_0": None,
    }
    if param.sl2_weights is not None:
        rec["weights"] = [list(_eigenvalue_triple(w))
                          for w in param.sl2_weights]
        factors = local_factors(param.sl2_weights, ord_psi=ord_psi)
        rec["gamma_abs_0"] = factors.gamma_abs_at_0.to_ratfunc().to_json()
    return rec
