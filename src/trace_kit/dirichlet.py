"""Dirichlet characters with exact values in cyclotomic fields.

CycloNum is an element of Q(zeta_m): a rational-coefficient polynomial of
degree < phi(m) reduced modulo the m-th cyclotomic polynomial.  Characters
evaluate to roots of unity in their own order; all downstream formulas stay
exact by carrying these around instead of complex floats.

The coefficient-tuple kernel (cyclo_mul, cyclo_inverse, zeta_power,
mult_matrix) is the package's one implementation of that field: CycloNum
wraps it, and the period oracle calls it on its elimination entries.
"""

import cmath
import math
from functools import lru_cache

from .arith import QQ, crt_solve, divisors, euler_phi, factorize

__all__ = [
    "CycloNum",
    "cyclotomic_poly",
    "cyclo_inverse",
    "cyclo_mul",
    "mult_matrix",
    "zeta_power",
    "DirichletChar",
    "enumerate_characters",
    "trivial_character",
]


# -- cyclotomic polynomial machinery ------------------------------------------

def _poly_divmod_int(num, den):
    """Exact division of integer polynomials (low-to-high coefficients)."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1]
        if c % den[-1]:
            raise ArithmeticError("non-exact polynomial division")
        c //= den[-1]
        q[i] = c
        for j, dj in enumerate(den):
            num[i + j] -= c * dj
    if any(num[: len(den) - 1]):
        raise ArithmeticError("non-exact polynomial division")
    return q


@lru_cache(maxsize=None)
def cyclotomic_poly(m):
    """Coefficients (low to high) of the m-th cyclotomic polynomial."""
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in divisors(m):
        if d < m:
            poly = _poly_divmod_int(poly, cyclotomic_poly(d))
    return tuple(poly)


# -- the coefficient-tuple kernel --------------------------------------------
#
# An element of Q(zeta_m) is a tuple of phi(m) coefficients on the power basis
# 1, zeta, ..., zeta^(phi(m)-1).  Reduction modulo Phi_m happens here and
# nowhere else: CycloNum and the period oracle's elimination both call these
# functions.  Integer inputs give integer outputs (except for the inverse).


@lru_cache(maxsize=None)
def _powers(m):
    """zeta_m^k as integer coefficient tuples for k < max(m, 2*phi(m) - 1).

    That range covers every exponent of a root of unity and of the raw
    product of two reduced elements.
    """
    phi = cyclotomic_poly(m)
    deg = len(phi) - 1
    base = [-c for c in phi[:-1]]
    cur = [1] + [0] * (deg - 1)
    rows = [tuple(cur)]
    for _ in range(max(m, 2 * deg - 1) - 1):
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            cur = [a + top * b for a, b in zip(cur, base)]
        rows.append(tuple(cur))
    return tuple(rows)


def _reduce(m, raw):
    """Fold raw power-basis coefficients into a reduced coefficient tuple."""
    pows = _powers(m)
    deg = len(pows[0])
    out = list(raw[:deg]) + [0] * (deg - len(raw))
    for k in range(deg, len(raw)):
        c = raw[k]
        if c:
            for i, v in enumerate(pows[k]):
                if v:
                    out[i] += c * v
    return tuple(out)


def cyclo_mul(m, a, b):
    """Product of two reduced coefficient tuples of Q(zeta_m)."""
    n = len(a)
    if n == 1:
        return (a[0] * b[0],)
    raw = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    raw[i + j] += x * y
    return _reduce(m, raw)


def cyclo_inverse(m, a):
    """Inverse of a nonzero reduced coefficient tuple, by extended Euclid
    modulo Phi_m; the coefficients are exact rationals."""
    if not any(a):
        raise ZeroDivisionError("inverse of zero cyclotomic number")
    if len(a) == 1:
        return (1 / QQ(a[0]),)
    phi = [QQ(c) for c in cyclotomic_poly(m)]
    g, s = _poly_xgcd_mod([QQ(c) for c in a], phi)
    # g is a nonzero constant
    inv_g = 1 / g[0]
    coeffs = [c * inv_g for c in s] + [QQ(0)] * len(a)
    return tuple(coeffs[: len(a)])


def zeta_power(m, k):
    """zeta_m^k as an integer coefficient tuple."""
    return _powers(m)[k % m]


def mult_matrix(m, a):
    """Rows of the phi(m) x phi(m) matrix of multiplication by a on the power
    basis; column c holds a * zeta^c (column 0 is a itself)."""
    cols = [a] + [cyclo_mul(m, a, basis) for basis in _powers(m)[1 : len(a)]]
    return tuple(zip(*cols))


class CycloNum:
    """Exact element of Q(zeta_m), m the declared order."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        self.order = order
        self.coeffs = tuple(coeffs)

    # -- constructors ----------------------------------------------------

    @staticmethod
    def from_rational(q, order=1):
        deg = euler_phi(order)
        return CycloNum(order, (QQ(q),) + (QQ(0),) * (deg - 1))

    @staticmethod
    def zero(order=1):
        return CycloNum.from_rational(0, order)

    @staticmethod
    def one(order=1):
        return CycloNum.from_rational(1, order)

    @staticmethod
    def root_of_unity(order, k=1):
        """zeta_order^k."""
        return CycloNum(order, (QQ(c) for c in zeta_power(order, k)))

    # -- ring structure ----------------------------------------------------

    def _lift(self, order2):
        if order2 == self.order:
            return self
        step = order2 // self.order
        raw = [QQ(0)] * ((len(self.coeffs) - 1) * step + 1)
        for i, c in enumerate(self.coeffs):
            if c:
                raw[i * step] += c
        return CycloNum(order2, _reduce(order2, raw))

    def _common(self, other):
        if not isinstance(other, CycloNum):
            other = CycloNum.from_rational(other)
        if self.order == other.order:
            return self, other
        m = math.lcm(self.order, other.order)
        return self._lift(m), other._lift(m)

    def __add__(self, other):
        a, b = self._common(other)
        return CycloNum(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycloNum(self.order, tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        return self + (-other if isinstance(other, CycloNum) else CycloNum.from_rational(-QQ(other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, CycloNum):
            q = QQ(other)
            return CycloNum(self.order, tuple(x * q for x in self.coeffs))
        a, b = self._common(other)
        return CycloNum(a.order, cyclo_mul(a.order, a.coeffs, b.coeffs))

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse via extended Euclid mod the cyclotomic poly."""
        return CycloNum(self.order, cyclo_inverse(self.order, self.coeffs))

    def __truediv__(self, other):
        if not isinstance(other, CycloNum):
            q = QQ(other)
            return CycloNum(self.order, tuple(x / q for x in self.coeffs))
        a, b = self._common(other)
        return a * b.inverse()

    def __eq__(self, other):
        try:
            a, b = self._common(other)
        except (TypeError, ValueError):
            return NotImplemented
        return a.coeffs == b.coeffs

    def __bool__(self):
        return any(self.coeffs)

    def __hash__(self):
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.order, self.coeffs))

    def __repr__(self):
        return f"CycloNum(order={self.order}, coeffs={self.coeffs})"

    # -- views ------------------------------------------------------------

    def is_rational(self):
        return all(not c for c in self.coeffs[1:])

    def as_rational(self):
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    def approx_complex(self):
        """Float image for display only; never used in decisions."""
        z = cmath.exp(2j * cmath.pi / self.order)
        return sum(float(c) * z**i for i, c in enumerate(self.coeffs))


def _poly_xgcd_mod(a, b):
    """(g, s) with s*a = g (mod b) in Q[x], g the gcd (nonzero constant here)."""
    r0, r1 = list(b), list(a)
    s0, s1 = [QQ(0)], [QQ(1)]

    def trim(p):
        while p and not p[-1]:
            p.pop()
        return p

    r0, r1 = trim(r0), trim(r1)
    while r1:
        q, r = _poly_divmod_q(r0, r1)
        r0, r1 = r1, trim(r)
        s0, s1 = s1, trim(_poly_sub(s0, _poly_mul(q, s1)))
    return r0, s0


def _poly_mul(a, b):
    out = [QQ(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = a + [QQ(0)] * (n - len(a))
    b = b + [QQ(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def _poly_divmod_q(num, den):
    num = list(num)
    dlead = den[-1]
    q = [QQ(0)] * max(0, len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1] / dlead
        q[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    return q, num[: len(den) - 1]


# -- unit group structure -------------------------------------------------

def _primitive_root_mod_p(p):
    if p == 2:
        return 1
    fac = [q for q, _ in factorize(p - 1)]
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in fac):
            return g
    raise RuntimeError(f"no primitive root mod {p}")


@lru_cache(maxsize=None)
def _unit_group(N):
    """CRT generators of (Z/N)^*: tuple of (gen mod N, order).

    Generators are ordered by prime; the 2-part contributes (-1, 2) and then
    (5, 2^(e-2)) when 8 | N.
    """
    if N == 1:
        return ()
    gens = []
    fac = factorize(N)
    for p, e in fac:
        q = p**e
        rest = N // q
        locals_ = []
        if p == 2:
            if e == 2:
                locals_.append((q - 1, 2))
            elif e >= 3:
                locals_.append((q - 1, 2))
                locals_.append((5, 2 ** (e - 2)))
        else:
            g = _primitive_root_mod_p(p)
            if e > 1 and pow(g, p - 1, p * p) == 1:
                g += p
            locals_.append((g % q, euler_phi(q)))
        for g, order in locals_:
            if rest == 1:
                gens.append((g % N, order))
            else:
                lifted = crt_solve([(g, q), (1, rest)])[0]
                gens.append((lifted, order))
    return tuple(gens)


@lru_cache(maxsize=None)
def _dlog_table(N):
    """residue -> exponent vector over the generators of (Z/N)^*."""
    gens = _unit_group(N)
    table = {1 % N: (0,) * len(gens)}
    for idx, (g, order) in enumerate(gens):
        new = {}
        for x, vec in table.items():
            cur = x
            for k in range(1, order):
                cur = cur * g % N
                v = list(vec)
                v[idx] = k
                new[cur] = tuple(v)
        table.update(new)
    if len(table) != euler_phi(N):
        raise RuntimeError(f"unit group enumeration failed for N={N}")
    return table


class DirichletChar:
    """Character mod N given by exponents on the CRT generators.

    chi(g_i) = zeta_{s_i}^{e_i};  chi(x) = 0 exactly when gcd(x, N) > 1.
    """

    __slots__ = ("modulus", "exponents", "_order", "_conductor", "_parity")

    def __init__(self, modulus, exponents):
        gens = _unit_group(modulus)
        if len(exponents) != len(gens):
            raise ValueError("exponent vector does not match the unit group")
        self.modulus = modulus
        self.exponents = tuple(e % s for e, (_, s) in zip(exponents, gens))
        self._order = None
        self._conductor = None
        self._parity = None

    # -- basic invariants ---------------------------------------------------

    @property
    def order(self):
        if self._order is None:
            o = 1
            for e, (_, s) in zip(self.exponents, _unit_group(self.modulus)):
                o = math.lcm(o, s // math.gcd(s, e))
            self._order = o
        return self._order

    def is_trivial(self):
        return all(e == 0 for e in self.exponents)

    def _value_exponent(self, x):
        """k with chi(x) = zeta_order^k, or None when gcd(x, N) > 1."""
        N = self.modulus
        x %= N
        if N == 1:
            return 0
        if math.gcd(x, N) != 1:
            return None
        vec = _dlog_table(N)[x]
        gens = _unit_group(N)
        L = 1
        for _, s in gens:
            L = math.lcm(L, s)
        E = 0
        for e, t, (_, s) in zip(self.exponents, vec, gens):
            E += e * t * (L // s)
        E %= L
        m = self.order
        return E * m // L % m

    def __call__(self, x):
        """chi(x) as a CycloNum of the character's order."""
        k = self._value_exponent(x)
        if k is None:
            return CycloNum.zero(self.order)
        return CycloNum.root_of_unity(self.order, k)

    def value_exponent(self, x):
        return self._value_exponent(x)

    def parity(self):
        """chi(-1) as +-1."""
        if self._parity is None:
            k = self._value_exponent(self.modulus - 1 if self.modulus > 1 else 0)
            if self.modulus == 1:
                k = 0
            self._parity = 1 if k == 0 else -1
        return self._parity

    def conductor(self):
        """Smallest modulus the character factors through."""
        if self._conductor is None:
            N = self.modulus
            for c in divisors(N):
                ok = True
                for x in range(1, N + 1):
                    if x % c == 1 % c and math.gcd(x, N) == 1:
                        if self._value_exponent(x) != 0:
                            ok = False
                            break
                if ok:
                    self._conductor = c
                    break
        return self._conductor

    def eval_mod(self, x, M0):
        """Evaluate through the induced character mod M0 (conductor | M0 | N).

        Returns 0 when gcd(x, M0) > 1; otherwise lifts x to a unit mod N
        congruent to x mod M0 and evaluates there.
        """
        N = self.modulus
        if N % M0:
            raise ValueError("M0 must divide the modulus")
        if M0 % self.conductor():
            raise ValueError("character does not factor through M0")
        if math.gcd(x, M0) != 1:
            return CycloNum.zero(self.order)
        residues = [(x, M0)]
        for p, _ in factorize(N):
            if M0 % p:
                residues.append((1, p))
        x1 = crt_solve(residues)[0]
        if math.gcd(x1, N) != 1:  # pragma: no cover - construction guarantees a unit
            raise RuntimeError("unit lift failed")
        return self(x1)

    def __eq__(self, other):
        return (
            isinstance(other, DirichletChar)
            and self.modulus == other.modulus
            and self.exponents == other.exponents
        )

    def __hash__(self):
        return hash((self.modulus, self.exponents))

    def __repr__(self):
        return f"DirichletChar(modulus={self.modulus}, exponents={self.exponents})"

    def label(self):
        """CLI label 'N.i' with i the index in the canonical enumeration."""
        return f"{self.modulus}.{enumerate_characters(self.modulus).index(self)}"


@lru_cache(maxsize=None)
def enumerate_characters(N):
    """All phi(N) characters mod N, ordered lexicographically by exponents."""
    gens = _unit_group(N)
    vecs = [()]
    for _, s in gens:
        vecs = [v + (k,) for v in vecs for k in range(s)]
    return tuple(DirichletChar(N, v) for v in sorted(vecs))


def trivial_character(N):
    return enumerate_characters(N)[0]
