"""Exact scalar and group-theoretic arithmetic.

Two kinds of values underlie everything else in the package:

- rational functions in the formal variable t = q^(1/2) with integer
  coefficients.  Every function value in the package (formal degree,
  parahoric order and volume, |gamma(0)|) is a
  CyclotomicProduct c * t^k * prod Phi_n(t)^(e_n): products, quotients
  and the substitution t -> t^d are exponent arithmetic, and two values
  are equal exactly when their exponents are.  A CyclotomicProduct writes
  its numerator and denominator from the exponents, already canonical:
  distinct Phi_n are coprime and t divides none, and each Phi_n is monic
  and primitive, so by Gauss's lemma the contents are the reduced
  constant's numerator and denominator.  Phi_n itself is built by integer
  long division of t^n - 1 by the monic product of the lower Phi_d;
- finite abelian groups in invariant-factor form: the fundamental groups.
  The Frobenius acts on them through rootdata's node-conjugation tables,
  so a group here carries no endomorphism.  smith_normal_form is the one
  integer elimination in the package: group_from_presentation runs it once
  per root system to present Omega, and every later subgroup and quotient
  of Omega is an element set and a count.

Every closure in the package, from the subgroups to the diagram components
and the node orbits, is one call to orbits(items, moves).

RatFunc, the dense canonical quotient of polynomials (with p_gcd for its
sums and quotients), and Cyclo, an element of Q(zeta_m) in the power basis,
are only the tests' dense reference.  Outside that layer one method returns
either, CyclotomicProduct.to_ratfunc, and only the tests call it, to
compare CyclotomicProducts with RatFuncs; they check the integer eigenvalue
pairs (m, k) of galois.WeightString with Cyclo.

No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product as _cartesian
from math import gcd, isqrt, lcm
from operator import attrgetter
from typing import NamedTuple


class InvariantError(RuntimeError):
    """An internal consistency check failed: a bug, not bad input."""


class Frozen:
    """Immutable value with type-strict equality, the base of the value
    types with arithmetic or normalisation (the plain records are
    NamedTuples).  A subclass names its fields, in order, as __slots__, and
    its __init__ normalises them and writes each with object.__setattr__.
    == and hash compare the fields within one class only; assigning or
    deleting raises AttributeError."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# dense integer/fraction polynomials, ascending powers
# ---------------------------------------------------------------------------


def p_trim(c):
    c = list(c)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return tuple(c)


def p_add(a, b):
    n = max(len(a), len(b))
    return p_trim(tuple((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)))


def p_neg(a):
    return tuple(-x for x in a)


def p_mul(a, b):
    if a == (0,) or b == (0,):
        return (0,)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return p_trim(out)


def p_is_zero(a):
    return p_trim(a) == (0,)


def p_shift(a, k):
    """Multiply by t^k, k >= 0."""
    return (0,) if p_is_zero(a) else (0,) * k + tuple(a)


def p_eval(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def p_divmod(a, b):
    """Exact Fraction division with remainder; b nonzero."""
    b = p_trim(b)
    if b == (0,):
        raise ZeroDivisionError("polynomial division by zero")
    r = [Fraction(x) for x in p_trim(a)]
    q = [Fraction(0)] * max(1, len(r) - len(b) + 1)
    while len(r) >= len(b) and r != [0]:
        d = len(r) - len(b)
        c = r[-1] / b[-1]
        q[d] = c
        for i, bc in enumerate(b):
            r[i + d] -= c * bc
        while len(r) > 1 and r[-1] == 0:
            r.pop()
    return p_trim(q), tuple(r)


def p_content(a):
    g = 0
    for x in a:
        g = gcd(g, abs(x))
    return g if g else 1


def p_primitive(a):
    g = p_content(a)
    return tuple(x // g for x in a)


def _clear_denoms(a):
    L = lcm(*(Fraction(x).denominator for x in a))
    return tuple(int(Fraction(x) * L) for x in a)


def p_gcd(a, b):
    """Primitive gcd over the integers via Euclid on Fraction coefficients."""
    a, b = p_trim(a), p_trim(b)
    if p_is_zero(a):
        return p_primitive(b) if not p_is_zero(b) else (0,)
    if p_is_zero(b):
        return p_primitive(a)
    x, y = a, b
    while not p_is_zero(y):
        _, r = p_divmod(x, y)
        x, y = y, _clear_denoms(r) if not p_is_zero(r) else (0,)
    g = p_primitive(x)
    if g[-1] < 0:
        g = p_neg(g)
    return g


# ---------------------------------------------------------------------------
# RatFunc
# ---------------------------------------------------------------------------


class RatFunc(Frozen):
    """Reduced rational function in t = q^(1/2) with integer coefficients.

    Canonical form: numerator and denominator coprime and with coprime
    integer content jointly minimal, denominator leading coefficient
    positive.  The zero function is (0,)/(1,).
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        # perfbench's tracer counts the constructions at __post_init__
        self.__post_init__(num, den)

    def __post_init__(self, num, den):
        num, den = p_trim(num), p_trim(den)
        if p_is_zero(den):
            raise ZeroDivisionError("rational function with zero denominator")
        if p_is_zero(num):
            num, den = (0,), (1,)
        elif len(g := p_gcd(num, den)) > 1 or p_content(num) > 1 \
                or p_content(den) > 1 or den[-1] < 0:
            qn, rn = p_divmod(num, g)
            qd, rd = p_divmod(den, g)
            if not (p_is_zero(rn) and p_is_zero(rd)):
                raise InvariantError("polynomial gcd does not divide")
            num, den = _clear_denoms(qn), _clear_denoms(qd)
            cn, cd = p_content(num), p_content(den)
            cg = gcd(cn, cd)
            num = tuple(x // cg for x in num)
            den = tuple(x // cg for x in den)
            if den[-1] < 0:
                num, den = p_neg(num), p_neg(den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_int(n):
        return RatFunc((n,), (1,))

    @staticmethod
    def from_fraction(f):
        f = Fraction(f)
        return RatFunc((f.numerator,), (f.denominator,))

    @staticmethod
    def t_power(k):
        """t^k for any integer k (q^(k/2))."""
        if k >= 0:
            return RatFunc(p_shift((1,), k), (1,))
        return RatFunc((1,), p_shift((1,), -k))

    @staticmethod
    def q_power(k):
        return RatFunc.t_power(2 * k)

    # -- predicates ---------------------------------------------------------

    def is_zero(self):
        return self.num == (0,)

    def positive_for_large_q(self):
        return self.num[-1] * self.den[-1] > 0

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        return RatFunc(p_add(p_mul(self.num, other.den), p_mul(other.num, self.den)),
                       p_mul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(p_neg(self.num), self.den)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        return RatFunc(p_mul(self.num, other.num), p_mul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(p_mul(self.num, other.den), p_mul(self.den, other.num))

    def __pow__(self, k):
        if k == 0:
            return RatFunc((1,), (1,))
        if k < 0:
            return (RatFunc((1,), (1,)) / self) ** (-k)
        half = self ** (k // 2)
        return half * half * (self if k % 2 else RatFunc((1,), (1,)))

    # -- transforms ---------------------------------------------------------

    def eval_t(self, t_val):
        t_val = Fraction(t_val)
        den = p_eval(self.den, t_val)
        if den == 0:
            raise ZeroDivisionError("pole at evaluation point")
        return p_eval(self.num, t_val) / den

    def eval_q(self, q_val):
        """Evaluate at q = q_val.  A function of q alone (only even powers of
        t) takes any q; otherwise q must be the square of a rational and t
        is its positive square root."""
        q_val = Fraction(q_val)
        pair = self.in_q()
        if pair is not None:
            num, den = pair
            den_val = p_eval(den, q_val)
            if den_val == 0:
                raise ZeroDivisionError("pole at evaluation point")
            return p_eval(num, q_val) / den_val
        a, b = q_val.numerator, q_val.denominator
        if a < 0 or isqrt(a) ** 2 != a or isqrt(b) ** 2 != b:
            raise ValueError(
                f"odd powers of t = q^(1/2) need q to be a rational square, "
                f"got q = {q_val}")
        return self.eval_t(Fraction(isqrt(a), isqrt(b)))

    # -- presentation -------------------------------------------------------

    def in_q(self):
        """Coefficients in q if only even t-powers occur, else None."""
        for poly in (self.num, self.den):
            if any(c != 0 for c in poly[1::2]):
                return None
        return (self.num[0::2], self.den[0::2])

    def to_json(self):
        return {"num": list(self.num), "den": list(self.den)}


def _coerce(x):
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, int):
        return RatFunc.from_int(x)
    if isinstance(x, Fraction):
        return RatFunc.from_fraction(x)
    raise TypeError(f"cannot coerce {type(x)!r} to RatFunc")


RF_ZERO = RatFunc((0,), (1,))
RF_ONE = RatFunc((1,), (1,))
RF_T = RatFunc((0, 1), (1,))
RF_Q = RatFunc((0, 0, 1), (1,))


# ---------------------------------------------------------------------------
# cyclotomic scalars
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def cyclotomic_poly(m):
    """m-th cyclotomic polynomial as an integer tuple, ascending: x^m - 1
    divided, in integers, by the monic product of the lower Phi_d."""
    den = (1,)
    for d in range(1, m):
        if m % d == 0:
            den = p_mul(den, cyclotomic_poly(d))
    r, n = [-1] + [0] * (m - 1) + [1], len(den) - 1
    q = [0] * (m - n + 1)
    for i in range(m - n, -1, -1):
        q[i] = c = r[i + n]
        for j, b in enumerate(den):
            r[i + j] -= c * b
    if any(r):
        raise InvariantError(f"x^{m} - 1 is not divisible by the lower "
                             f"cyclotomic polynomials")
    return tuple(q)


def euler_phi(m):
    return sum(gcd(k, m) == 1 for k in range(1, m + 1))


def mobius(n):
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def _reduce_mod_cyclo(coeffs, m):
    phi = cyclotomic_poly(m)
    deg = len(phi) - 1
    c = [Fraction(x) for x in coeffs]
    while len(c) > deg:
        top = c.pop()
        if top == 0:
            continue
        k = len(c) - deg
        # subtract top * x^k * (phi - x^deg); phi monic
        for i in range(deg):
            c[k + i] -= top * phi[i]
    c += [Fraction(0)] * (deg - len(c))
    return tuple(c)


class Cyclo(Frozen):
    """Element of Q(zeta_m) in the power basis modulo the m-th cyclotomic
    polynomial.  Mixed-conductor operations merge to the lcm."""

    __slots__ = ("conductor", "coeffs")  # coeffs: phi(conductor) Fractions

    def __init__(self, conductor, coeffs):
        c = _reduce_mod_cyclo(coeffs, conductor)
        # drop to conductor 1 when the value is rational
        if conductor > 1 and all(x == 0 for x in c[1:]):
            conductor, c = 1, (c[0],)
        coeffs = tuple(Fraction(x) for x in c)
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", coeffs)

    @staticmethod
    def rational(x):
        return Cyclo(1, (Fraction(x),))

    @staticmethod
    def root_of_unity(m, k=1):
        """zeta_m^k."""
        g = gcd(k % m if k % m else m, m)
        m2, k2 = m // g, (k % m) // g
        if m2 == 1:
            return Cyclo.rational(1)
        if m2 == 2:
            return Cyclo.rational(-1)
        mono = [Fraction(0)] * (k2 + 1)
        mono[k2] = Fraction(1)
        return Cyclo(m2, tuple(mono))

    def _lift(self, L):
        """Re-express in conductor L (conductor | L)."""
        if self.conductor == L:
            return self.coeffs
        step = L // self.conductor
        out = [Fraction(0)] * (len(self.coeffs) * step + 1)
        for i, c in enumerate(self.coeffs):
            out[i * step] += c
        return _reduce_mod_cyclo(out, L)

    def __add__(self, other):
        other = _coerce_cyclo(other)
        L = lcm(self.conductor, other.conductor)
        a, b = self._lift(L), other._lift(L)
        return Cyclo(L, tuple(x + y for x, y in zip(a, b)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclo(self.conductor, tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        return self + (-_coerce_cyclo(other))

    def __mul__(self, other):
        other = _coerce_cyclo(other)
        L = lcm(self.conductor, other.conductor)
        a, b = self._lift(L), other._lift(L)
        prod = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                prod[i + j] += x * y
        return Cyclo(L, _reduce_mod_cyclo(prod, L))

    __rmul__ = __mul__

    def galois(self, a):
        """Apply zeta -> zeta^a; a must be prime to the conductor."""
        m = self.conductor
        if m == 1:
            return self
        if gcd(a, m) != 1:
            raise ValueError("galois exponent not prime to conductor")
        out = [Fraction(0)] * m
        for i, c in enumerate(self.coeffs):
            out[(i * a) % m] += c
        return Cyclo(m, _reduce_mod_cyclo(out, m))

    def conj(self):
        """Complex conjugation: zeta -> zeta^(-1)."""
        return self.galois(self.conductor - 1) if self.conductor > 1 else self

    def is_rational(self):
        return self.conductor == 1

    def as_fraction(self):
        if not self.is_rational():
            raise ValueError("not a rational value")
        return self.coeffs[0]

    def is_zero(self):
        return all(x == 0 for x in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Cyclo):
            try:
                other = _coerce_cyclo(other)
            except TypeError:
                return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        # the coefficients depend on the conductor, so hash the trace to Q
        # divided by the field degree, which is the same in every cyclotomic
        # field that holds the value: Tr(zeta_m^i) / phi(m) = mu(d) / phi(d)
        # with d = m / gcd(i, m)
        m = self.conductor
        return hash(sum(c * Fraction(mobius(m // gcd(i, m)),
                                     euler_phi(m // gcd(i, m)))
                        for i, c in enumerate(self.coeffs)))


def _coerce_cyclo(x):
    if isinstance(x, Cyclo):
        return x
    if isinstance(x, (int, Fraction)):
        return Cyclo.rational(x)
    raise TypeError(f"cannot coerce {type(x)!r} to Cyclo")


# ---------------------------------------------------------------------------
# factored rational functions
# ---------------------------------------------------------------------------


class CyclotomicProduct(Frozen):
    """const * t^t_exp * prod Phi_n(t)^e_n, with Phi_n the n-th cyclotomic
    polynomial: the shape of every formal degree and adjoint gamma factor.

    phi is a tuple of (n, e_n) pairs, sorted, with e_n nonzero; the
    constructor accepts any iterable of pairs and merges repeats.  A zero
    constant is the zero function, stored as (0, 0, ())."""

    __slots__ = ("const", "t_exp", "phi")

    def __init__(self, const, t_exp=0, phi=()):
        const = Fraction(const)
        exps = {}
        if const != 0:
            for n, e in phi:
                exps[n] = exps.get(n, 0) + e
        else:
            t_exp = 0
        phi = tuple(sorted((n, e) for n, e in exps.items() if e))
        object.__setattr__(self, "const", const)
        object.__setattr__(self, "t_exp", t_exp)
        object.__setattr__(self, "phi", phi)

    @staticmethod
    def t_power_minus_one(e):
        """t^e - 1 = prod Phi_n(t) over n | e."""
        return CyclotomicProduct(1, 0, ((1, 1),)).subst_t_power(e)

    def is_zero(self):
        return self.const == 0

    def __mul__(self, other):
        return CyclotomicProduct(self.const * other.const,
                                 self.t_exp + other.t_exp,
                                 self.phi + other.phi)

    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by zero cyclotomic product")
        return self * other ** -1

    def __pow__(self, k):
        return CyclotomicProduct(self.const ** k, self.t_exp * k,
                                 tuple((n, e * k) for n, e in self.phi))

    def __abs__(self):
        """The value signed to be positive for large q, which is the sign
        of the constant because every Phi_n is monic."""
        return CyclotomicProduct(abs(self.const), self.t_exp, self.phi)

    def subst_t_power(self, d):
        """t -> t^d (q -> q^d): Phi_n(t^d) is the product of the Phi_k(t)
        with k | nd and k / gcd(k, d) = n, i.e. k = n*g for the g | d with
        gcd(n*g, d) = g."""
        if d < 1:
            raise ValueError("power substitution needs d >= 1")
        divisors = [g for g in range(1, d + 1) if d % g == 0]
        return CyclotomicProduct(
            self.const, self.t_exp * d,
            tuple((n * g, e) for n, e in self.phi for g in divisors
                  if gcd(n * g, d) == g))

    def _expand(self):
        """(num, den), canonical with no gcd taken: see the module doc."""
        num, den = (self.const.numerator,), (self.const.denominator,)
        for n, e in self.phi:
            for _ in range(e):
                num = p_mul(num, cyclotomic_poly(n))
            for _ in range(-e):
                den = p_mul(den, cyclotomic_poly(n))
        return (p_shift(num, max(self.t_exp, 0)),
                p_shift(den, max(-self.t_exp, 0)))

    def to_ratfunc(self):
        return RatFunc(*self._expand())

    def to_json(self):
        """The JSON of to_ratfunc(), written from the exponents."""
        num, den = self._expand()
        return {"num": list(num), "den": list(den)}


# ---------------------------------------------------------------------------
# integer matrices: Smith normal form
# ---------------------------------------------------------------------------


def smith_normal_form(A):
    """Return (U, D, V) with U*A*V = D, U and V unimodular, D diagonal with
    d_1 | d_2 | ... nonnegative.

    The textbook elimination: a least nonzero entry of the block left
    (the first in row order) moves to the corner (t, t) and clears its
    column and its row by floor quotients.  A remainder left, or an entry
    of the block that the corner does not divide (its row is added to the
    corner's), sends the corner back to the least entry."""
    A = [list(row) for row in A]
    m, n = len(A), len(A[0]) if A else 0
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def add_row(dst, src, c):
        A[dst] = [x + c * y for x, y in zip(A[dst], A[src])]
        U[dst] = [x + c * y for x, y in zip(U[dst], U[src])]

    def add_col(dst, src, c):
        for r in A:
            r[dst] += c * r[src]
        for r in V:
            r[dst] += c * r[src]

    t = 0
    while t < min(m, n):
        piv, best = None, 0
        for i in range(t, m):
            row = A[i]
            for j in range(t, n):
                if row[j] and (not best or abs(row[j]) < best):
                    piv, best = (i, j), abs(row[j])
        if piv is None:
            break
        i, j = piv
        A[t], A[i] = A[i], A[t]
        U[t], U[i] = U[i], U[t]
        for r in A + V:
            r[t], r[j] = r[j], r[t]
        p = A[t][t]
        for i in range(t + 1, m):
            if q := A[i][t] // p:
                add_row(i, t, -q)
        for j in range(t + 1, n):
            if q := A[t][j] // p:
                add_col(j, t, -q)
        if any(A[i][t] for i in range(t + 1, m)) or any(A[t][t + 1:]):
            continue
        if best != 1:
            bad = next((i for i in range(t + 1, m)
                        if any(x % p for x in A[i][t + 1:])), None)
            if bad is not None:
                add_row(t, bad, 1)
                continue
        if p < 0:
            A[t] = [-x for x in A[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    diag = [A[i][i] for i in range(min(m, n))]
    for a, b in zip(diag, diag[1:]):
        if (a == 0 and b != 0) or (a != 0 and b % a != 0):
            raise InvariantError(
                f"Smith normal form diagonal {diag} is not a divisibility "
                f"chain")
    return U, A, V


# ---------------------------------------------------------------------------
# orbits of a move relation
# ---------------------------------------------------------------------------


def orbits(items, moves):
    """The classes of a symmetric move relation, moves(x) listing the
    neighbours of x: each orbit starts at its first item, not in an earlier
    orbit, and lists its items in the order reached, breadth first; the
    orbits come in the order of their first items."""
    seen, out = set(), []
    for x in items:
        if x in seen:
            continue
        seen.add(x)
        # the orbit is its own frontier: it is walked while it grows
        frontier = [x]
        for y in frontier:
            for z in moves(y):
                if z not in seen:
                    seen.add(z)
                    frontier.append(z)
        out.append(frontier)
    return out


def perm_order(perm, nodes):
    """Order of a permutation of nodes, perm[x] the image of x: the lcm of
    its cycle lengths."""
    return lcm(*map(len, orbits(nodes, lambda x: (perm[x],))))


# ---------------------------------------------------------------------------
# finite abelian groups
# ---------------------------------------------------------------------------


class FiniteAbelianGroup(Frozen):
    """Finite abelian group in invariant-factor form.

    orders: (d_1, ..., d_k) with d_1 | d_2 | ... | d_k, all > 1; an element
    is the tuple of its coordinates, the i-th taken mod orders[i].
    """

    __slots__ = ("orders",)

    def __init__(self, orders):
        orders = tuple(int(d) for d in orders)
        for i in range(len(orders) - 1):
            if orders[i + 1] % orders[i] != 0:
                raise ValueError("orders must form a divisibility chain")
        if any(d < 2 for d in orders):
            raise ValueError("orders must all exceed 1")
        object.__setattr__(self, "orders", orders)

    # -- basic structure ----------------------------------------------------

    def order(self):
        out = 1
        for d in self.orders:
            out *= d
        return out

    def identity(self):
        return tuple(0 for _ in self.orders)

    def elements(self):
        return [tuple(v) for v in _cartesian(*(range(d) for d in self.orders))]

    def add(self, x, y):
        return tuple((a + b) % d for a, b, d in zip(x, y, self.orders))

    def neg(self, x):
        return tuple((-a) % d for a, d in zip(x, self.orders))

    # -- subgroup machinery (groups here are tiny; sets are fine) -----------

    def subgroup_generated(self, gens):
        gens = [tuple(g) for g in gens]
        return frozenset(orbits([self.identity()],
                                lambda x: [self.add(x, g) for g in gens])[0])


class Presentation(NamedTuple):
    """A finite abelian quotient of Z^n together with the projection."""

    group: FiniteAbelianGroup
    project: object  # vector -> element tuple


def group_from_presentation(n_gens, relations):
    """Finite abelian group Z^n / <relations (as vectors)>."""
    C = [[rel[i] for rel in relations] for i in range(n_gens)] if relations else \
        [[0] for _ in range(n_gens)]
    U, D, _ = smith_normal_form(C)
    diag = [D[i][i] if i < len(D[0]) else 0 for i in range(n_gens)]
    if any(d == 0 for d in diag):
        raise ValueError("presented group is not finite")
    keep = [i for i in range(n_gens) if diag[i] > 1]
    grp = FiniteAbelianGroup(tuple(diag[i] for i in keep))

    def project(vec):
        y = [sum(U[i][j] * vec[j] for j in range(n_gens)) for i in range(n_gens)]
        return tuple(y[i] % diag[i] for i in keep)

    return Presentation(grp, project)
