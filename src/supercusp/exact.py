"""Exact scalar and group-theoretic arithmetic.

Four kinds of values underlie everything else in the package:

- rational functions in the formal variable t = q^(1/2) with integer
  coefficients, in two forms.  Every formal degree, parahoric order and
  volume, and adjoint gamma magnitude is a CyclotomicProduct
  c * t^k * prod Phi_n(t)^(e_n): products, quotients and the substitution
  t -> t^d are exponent arithmetic, and two values are equal exactly when
  their exponents are.  The dense canonical RatFunc is the form for sums,
  printing, JSON and the local factors at a shift; a CyclotomicProduct
  expands into one through the one RatFunc normalization;
- cyclotomic scalars (Frobenius eigenvalues);
- finite abelian groups equipped with an endomorphism (fundamental groups
  with their twisting action).

No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as _cartesian
from math import gcd, isqrt


class InvariantError(RuntimeError):
    """An internal consistency check failed: a bug, not bad input."""


# ---------------------------------------------------------------------------
# dense integer/fraction polynomials, ascending powers
# ---------------------------------------------------------------------------

IntPoly = tuple  # tuple of int (or Fraction in intermediate steps)


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


def p_deg(a):
    return len(p_trim(a)) - 1


def p_is_zero(a):
    return p_trim(a) == (0,)


def p_shift(a, k):
    """Multiply by t^k, k >= 0."""
    if p_is_zero(a):
        return (0,)
    return (0,) * k + tuple(a)


def p_subst_pow(a, d):
    """Substitute t -> t^d."""
    if d < 1:
        raise ValueError("power substitution needs d >= 1")
    out = [0] * ((len(a) - 1) * d + 1)
    for i, x in enumerate(a):
        out[i * d] = x
    return p_trim(out)


def p_eval(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def p_divmod(a, b):
    """Exact Fraction division with remainder; b nonzero."""
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in p_trim(b)]
    if b == [Fraction(0)]:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    r = a[:]
    while len(p_trim(r)) - 1 >= len(b) - 1 and not p_is_zero(tuple(r)):
        d = len(p_trim(r)) - len(b)
        c = p_trim(r)[-1] / b[-1]
        q[d] += c
        for i, bc in enumerate(b):
            r[i + d] -= c * bc
        r = list(p_trim(r)) + [Fraction(0)] * 0
        r = [Fraction(x) for x in p_trim(r)]
    return p_trim(q), p_trim(r)


def p_content(a):
    g = 0
    for x in a:
        g = gcd(g, abs(x))
    return g if g else 1


def p_primitive(a):
    g = p_content(a)
    return tuple(x // g for x in a)


def _clear_denoms(a):
    from math import lcm

    L = 1
    for x in a:
        L = lcm(L, Fraction(x).denominator)
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


@dataclass(frozen=True)
class RatFunc:
    """Reduced rational function in t = q^(1/2) with integer coefficients.

    Canonical form: numerator and denominator coprime and with coprime
    integer content jointly minimal, denominator leading coefficient
    positive.  The zero function is (0,)/(1,).
    """

    num: tuple
    den: tuple

    def __post_init__(self):
        num, den = p_trim(self.num), p_trim(self.den)
        if p_is_zero(den):
            raise ZeroDivisionError("rational function with zero denominator")
        if p_is_zero(num):
            object.__setattr__(self, "num", (0,))
            object.__setattr__(self, "den", (1,))
            return
        g = p_gcd(num, den)
        if p_deg(g) > 0 or p_content(num) > 1 or p_content(den) > 1 or den[-1] < 0:
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

    def __rtruediv__(self, other):
        return _coerce(other) / self

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

    def __str__(self):
        def side(p, var):
            terms = []
            for i, c in enumerate(p):
                if c == 0:
                    continue
                if i == 0:
                    terms.append(str(c))
                else:
                    mon = var if i == 1 else f"{var}^{i}"
                    if c == 1:
                        terms.append(mon)
                    elif c == -1:
                        terms.append(f"-{mon}")
                    else:
                        terms.append(f"{c}*{mon}")
            return " + ".join(terms).replace("+ -", "- ") if terms else "0"

        pair = self.in_q()
        if pair is not None:
            n, d = pair
            s = side(n, "q")
            if d != (1,):
                s = f"({s})/({side(d, 'q')})"
            return s
        s = side(self.num, "t")
        if self.den != (1,):
            s = f"({s})/({side(self.den, 't')})"
        return s

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
    """m-th cyclotomic polynomial as an integer tuple, ascending."""
    if m == 1:
        return (-1, 1)
    num = tuple([-1] + [0] * (m - 1) + [1])  # x^m - 1
    den = (1,)
    for d in range(1, m):
        if m % d == 0:
            den = p_mul(den, cyclotomic_poly(d))
    q, r = p_divmod(num, den)
    if not p_is_zero(r):
        raise InvariantError(f"x^{m} - 1 is not divisible by the lower "
                             f"cyclotomic polynomials")
    return tuple(int(c) for c in q)


def euler_phi(m):
    count = 0
    for k in range(1, m + 1):
        if gcd(k, m) == 1:
            count += 1
    return count


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


@dataclass(frozen=True)
class Cyclo:
    """Element of Q(zeta_m) in the power basis modulo the m-th cyclotomic
    polynomial.  Mixed-conductor operations merge to the lcm."""

    conductor: int
    coeffs: tuple  # Fractions, length = phi(conductor)

    def __post_init__(self):
        c = _reduce_mod_cyclo(self.coeffs, self.conductor)
        # drop to conductor 1 when the value is rational
        if self.conductor > 1 and all(x == 0 for x in c[1:]):
            object.__setattr__(self, "conductor", 1)
            c = (c[0],)
        object.__setattr__(self, "coeffs", tuple(Fraction(x) for x in c))

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
        from math import lcm

        L = lcm(self.conductor, other.conductor)
        a, b = self._lift(L), other._lift(L)
        return Cyclo(L, tuple(x + y for x, y in zip(a, b)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclo(self.conductor, tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        return self + (-_coerce_cyclo(other))

    def __rsub__(self, other):
        return _coerce_cyclo(other) + (-self)

    def __mul__(self, other):
        other = _coerce_cyclo(other)
        from math import lcm

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


@dataclass(frozen=True)
class CyclotomicProduct:
    """const * t^t_exp * prod Phi_n(t)^e_n, with Phi_n the n-th cyclotomic
    polynomial: the shape of every formal degree and adjoint gamma factor.

    phi is a tuple of (n, e_n) pairs, sorted, with e_n nonzero; the
    constructor accepts any iterable of pairs and merges repeats.  A zero
    constant is the zero function, stored as (0, 0, ())."""

    const: Fraction
    t_exp: int = 0
    phi: tuple = ()

    def __post_init__(self):
        const = Fraction(self.const)
        exps = {}
        if const != 0:
            for n, e in self.phi:
                exps[n] = exps.get(n, 0) + e
        object.__setattr__(self, "const", const)
        object.__setattr__(self, "t_exp", self.t_exp if const != 0 else 0)
        object.__setattr__(self, "phi",
                           tuple(sorted((n, e) for n, e in exps.items() if e)))

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

    def to_ratfunc(self):
        num, den = (self.const.numerator,), (self.const.denominator,)
        for n, e in self.phi:
            for _ in range(abs(e)):
                if e > 0:
                    num = p_mul(num, cyclotomic_poly(n))
                else:
                    den = p_mul(den, cyclotomic_poly(n))
        if self.t_exp >= 0:
            num = p_shift(num, self.t_exp)
        else:
            den = p_shift(den, -self.t_exp)
        return RatFunc(num, den)


# ---------------------------------------------------------------------------
# integer matrices: Smith normal form and kernels
# ---------------------------------------------------------------------------


def smith_normal_form(A):
    """Return (U, D, V) with U*A*V = D, U and V unimodular, D diagonal with
    d_1 | d_2 | ... nonnegative."""
    A = [list(row) for row in A]
    m = len(A)
    n = len(A[0]) if m else 0
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in A:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def add_row(dst, src, c):
        for k in range(n):
            A[dst][k] += c * A[src][k]
        for k in range(m):
            U[dst][k] += c * U[src][k]

    def add_col(dst, src, c):
        for r in A:
            r[dst] += c * r[src]
        for r in V:
            r[dst] += c * r[src]

    def negate_row(i):
        A[i] = [-x for x in A[i]]
        U[i] = [-x for x in U[i]]

    t = 0
    while t < min(m, n):
        # find pivot
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] != 0 and (best is None or abs(A[i][j]) < best):
                    piv, best = (i, j), abs(A[i][j])
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            done = True
            for i in range(t + 1, m):
                if A[i][t] % A[t][t] != 0:
                    add_row(i, t, -(A[i][t] // A[t][t]))
                    swap_rows(t, i)
                    done = False
            for i in range(t + 1, m):
                if A[i][t] != 0:
                    add_row(i, t, -(A[i][t] // A[t][t]))
            for j in range(t + 1, n):
                if A[t][j] % A[t][t] != 0:
                    add_col(j, t, -(A[t][j] // A[t][t]))
                    swap_cols(t, j)
                    done = False
            for j in range(t + 1, n):
                if A[t][j] != 0:
                    add_col(j, t, -(A[t][j] // A[t][t]))
            if done and all(A[i][t] == 0 for i in range(t + 1, m)) \
                    and all(A[t][j] == 0 for j in range(t + 1, n)):
                break
        if A[t][t] < 0:
            negate_row(t)
        t += 1

    # enforce divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(min(m, n) - 1):
            a, b = A[i][i], A[i + 1][i + 1]
            if a and b and b % a != 0:
                add_col(i, i + 1, 1)
                # re-clear the 2x2 block: row reduce
                while A[i + 1][i] != 0:
                    if abs(A[i][i]) > abs(A[i + 1][i]) and A[i + 1][i] != 0:
                        swap_rows(i, i + 1)
                    if A[i + 1][i] != 0:
                        add_row(i + 1, i, -(A[i + 1][i] // A[i][i]))
                while A[i][i + 1] != 0:
                    add_col(i + 1, i, -(A[i][i + 1] // A[i][i]))
                if A[i][i] < 0:
                    negate_row(i)
                if A[i + 1][i + 1] < 0:
                    negate_row(i + 1)
                changed = True
    diag = [A[i][i] for i in range(min(m, n))]
    for a, b in zip(diag, diag[1:]):
        if (a == 0 and b != 0) or (a != 0 and b % a != 0):
            raise InvariantError(
                f"Smith normal form diagonal {diag} is not a divisibility "
                f"chain")
    return U, A, V


def mat_mul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
            for i in range(len(A))]


def mat_identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def integer_kernel(A):
    """Basis (list of columns) of the integer kernel of A."""
    m = len(A)
    if m == 0:
        raise ValueError("a matrix with no rows has no column count")
    n = len(A[0])
    U, D, V = smith_normal_form(A)
    rank = sum(1 for i in range(min(m, n)) if D[i][i] != 0)
    basis = []
    for j in range(rank, n):
        basis.append([V[i][j] for i in range(n)])
    return basis


def det_adjugate(M):
    """(det M, adj M) of a nonsingular square integer matrix, so that
    M * adj M = adj M * M = det M * I.

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


# ---------------------------------------------------------------------------
# finite abelian groups with an endomorphism
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FinAbGrpAut:
    """Finite abelian group in invariant-factor form with an endomorphism.

    orders: (d_1, ..., d_k) with d_1 | d_2 | ... | d_k, all > 1.
    theta:  k x k integer matrix acting on column vectors; entry (i, j)
            is reduced mod orders[i].
    """

    orders: tuple
    theta: tuple

    def __post_init__(self):
        orders = tuple(int(d) for d in self.orders)
        k = len(orders)
        for i in range(k - 1):
            if orders[i + 1] % orders[i] != 0:
                raise ValueError("orders must form a divisibility chain")
        if any(d < 2 for d in orders):
            raise ValueError("orders must all exceed 1")
        th = [list(row) for row in self.theta]
        if len(th) != k or any(len(r) != k for r in th):
            raise ValueError("theta shape mismatch")
        for i in range(k):
            for j in range(k):
                if (th[i][j] * orders[j]) % orders[i] != 0:
                    raise ValueError("theta is not a well-defined endomorphism")
                th[i][j] %= orders[i]
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "theta", tuple(tuple(r) for r in th))

    # -- basic structure ----------------------------------------------------

    @staticmethod
    def trivial():
        return FinAbGrpAut((), ())

    @staticmethod
    def cyclic(n, theta_scalar=1):
        if n <= 1:
            return FinAbGrpAut.trivial()
        return FinAbGrpAut((n,), ((theta_scalar % n,),))

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

    def apply_theta(self, x):
        return tuple(sum(self.theta[i][j] * x[j] for j in range(len(x))) % self.orders[i]
                     for i in range(len(self.orders)))

    def element_order(self, x):
        n = 1
        y = x
        while y != self.identity():
            y = self.add(y, x)
            n += 1
        return n

    def theta_order(self):
        n = 1
        cur = {e: self.apply_theta(e) for e in self.elements()}
        ident = {e: e for e in self.elements()}
        step = dict(cur)
        while step != ident:
            step = {e: self.apply_theta(v) for e, v in step.items()}
            n += 1
            if n > 64:
                raise ValueError("theta does not have small finite order")
        return n

    def is_theta_trivial(self):
        return all(self.apply_theta(e) == e for e in self.elements())

    # -- subgroup machinery (groups here are tiny; sets are fine) -----------

    def subgroup_generated(self, gens):
        seen = {self.identity()}
        frontier = [self.identity()]
        gens = [tuple(g) for g in gens]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = self.add(x, g)
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return frozenset(seen)

    def invariant_subgroup(self):
        """Elements fixed by theta."""
        return frozenset(e for e in self.elements() if self.apply_theta(e) == e)

    def theta_stable(self, subset):
        return all(self.apply_theta(x) in subset for x in subset)

    def quotient_presentation(self, gens):
        """G / <gens> presented over the generators of G, with theta
        carried along (so <gens> should be theta-stable)."""
        k = len(self.orders)
        rels = [[d * (i == j) for j in range(k)]
                for i, d in enumerate(self.orders)]
        return group_from_presentation(k, rels + [list(g) for g in gens],
                                       self.theta)

    def quotient_structure(self, subgroup_gens):
        """Invariant factors of G / <subgroup_gens>; the subgroup must be
        theta-stable, and the induced theta comes along."""
        H = self.subgroup_generated(subgroup_gens)
        if not self.theta_stable(H):
            raise ValueError("quotient by a non-theta-stable subgroup")
        return self.quotient_presentation(H).group

    def subgroup_structure(self, gens):
        """Invariant factors of the subgroup generated by gens (no theta)."""
        gens = [list(g) for g in gens]
        if not gens or not self.orders:
            return ()
        k = len(self.orders)
        r = len(gens)
        # kernel of Z^r -> G
        A = [[gens[j][i] for j in range(r)] + [self.orders[i] if c == i else 0
             for c in range(k)] for i in range(k)]
        ker = integer_kernel(A)
        rel_cols = [[v[j] for j in range(r)] for v in ker]
        return group_from_presentation(r, rel_cols).group.orders

    def coinvariant_structure(self):
        """G / (theta - 1)G with the (trivial) induced action."""
        k = len(self.orders)
        gens = []
        for e in self.elements():
            gens.append(self.add(self.apply_theta(e), self.neg(e)))
        return self.quotient_structure(gens)

    def dual(self):
        """Character group with the adjoint endomorphism."""
        k = len(self.orders)
        th = [[0] * k for _ in range(k)]
        for j in range(k):
            for i in range(k):
                num = self.theta[i][j] * self.orders[j]
                if num % self.orders[i] != 0:
                    raise InvariantError(
                        "theta is not a well-defined endomorphism")
                th[j][i] = (num // self.orders[i]) % self.orders[j]
        return FinAbGrpAut(self.orders, tuple(tuple(r) for r in th))


@dataclass
class Presentation:
    """A finite abelian quotient of Z^n together with the projection and a
    section picking an integer-vector representative for each element."""

    group: FinAbGrpAut
    project: object  # vector -> element tuple
    lift: object     # element tuple -> vector


def group_from_presentation(n_gens, relations, theta=None):
    """Finite abelian group Z^n / <relations (as vectors)>, with an optional
    endomorphism given on the generators."""
    if theta is None:
        theta = mat_identity(n_gens)
    C = [[rel[i] for rel in relations] for i in range(n_gens)] if relations else \
        [[0] for _ in range(n_gens)]
    U, D, V = smith_normal_form(C)
    diag = [D[i][i] if i < len(D[0]) else 0 for i in range(n_gens)]
    if any(d == 0 for d in diag):
        raise ValueError("presented group is not finite")
    Uinv = integer_inverse(U)
    thU = mat_mul(mat_mul(U, [list(r) for r in theta]), Uinv)
    keep = [i for i in range(n_gens) if diag[i] > 1]
    orders = tuple(diag[i] for i in keep)
    theta_q = tuple(tuple(thU[i][j] % diag[i] for j in keep) for i in keep)
    grp = FinAbGrpAut(orders, theta_q)

    Umat = [row[:] for row in U]

    def project(vec):
        y = [sum(Umat[i][j] * vec[j] for j in range(n_gens)) for i in range(n_gens)]
        return tuple(y[i] % diag[i] for i in keep)

    def lift(elem):
        y = [0] * n_gens
        for pos, i in enumerate(keep):
            y[i] = elem[pos]
        return [sum(Uinv[i][j] * y[j] for j in range(n_gens)) for i in range(n_gens)]

    return Presentation(grp, project, lift)
