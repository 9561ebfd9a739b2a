"""Dirichlet characters with exact values in cyclotomic fields.

CycloNum is an element of Q(zeta_m): a rational-coefficient polynomial of
degree < phi(m) reduced modulo the m-th cyclotomic polynomial.  A character
holds one table, built once by walking the powers of the generators of
(Z/N)^*: the exponent k with chi(x) = zeta_order^k for every residue x,
None on non-units.  Values, parity, conductor and character sums all read
it; a sum counts exponents in ints and builds one CycloNum.

The coefficient-tuple kernel (cyclo_mul, cyclo_conjugates, cyclo_inverse,
zeta_power, mult_matrix) is the package's one implementation of that field:
CycloNum wraps it, and the period oracle calls it on its elimination
entries.  The inverse is the product of the other Galois conjugates over
the norm.
"""

import cmath
import math
from functools import lru_cache

from .arith import QQ, crt_solve, divisors, euler_phi, factorize, moebius

__all__ = [
    "CycloNum",
    "cyclotomic_poly",
    "cyclo_conjugates",
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


# Memo bounds, from the distinct keys seen: a Tier-1 run asks for 167 orders
# (all but 31 from the lcm lifts of one test) and 63 levels, a benchmark
# round for at most 6 orders and 5 levels.
@lru_cache(maxsize=256)
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


@lru_cache(maxsize=64)
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


def cyclo_conjugates(m, a):
    """Product of the Galois conjugates sigma_k(a), k a unit mod m other than
    1, of a reduced coefficient tuple: a times it is the rational norm of a."""
    conj = (1,) + (0,) * (len(a) - 1)
    for k in range(2, m):
        if math.gcd(k, m) == 1:
            raw = [0] * m
            for i, c in enumerate(a):
                raw[i * k % m] += c
            conj = cyclo_mul(m, conj, _reduce(m, raw))
    return conj


def cyclo_inverse(m, a):
    """Inverse of a nonzero reduced coefficient tuple: its other Galois
    conjugates over its norm.  Works on a scaled to integers; the
    coefficients are exact rationals."""
    if not any(a):
        raise ZeroDivisionError("inverse of zero cyclotomic number")
    den = math.lcm(*(QQ(c).denominator for c in a))
    ints = [int(c * den) for c in a]
    conj = cyclo_conjugates(m, ints)
    norm = cyclo_mul(m, ints, conj)
    if any(norm[1:]):
        raise ArithmeticError("the norm of a cyclotomic number is not rational")
    return tuple(QQ(den * c, norm[0]) for c in conj)


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
        """Multiplicative inverse: the other Galois conjugates over the norm."""
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
        # the normalised trace sum a_i mu(m/g_i)/phi(m/g_i), g_i = gcd(i, m):
        # unchanged by _lift, so equal values of different orders hash
        # equal, and a_0 on rationals
        m = self.order
        tr = QQ(0)
        for i, c in enumerate(self.coeffs):
            if c:
                d = m // math.gcd(i, m)
                tr += QQ(c * moebius(d), euler_phi(d))
        return hash(tr)

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


# -- unit group structure -------------------------------------------------

def _primitive_root_mod_p(p):
    if p == 2:
        return 1
    fac = [q for q, _ in factorize(p - 1)]
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in fac):
            return g
    raise RuntimeError(f"no primitive root mod {p}")


@lru_cache(maxsize=128)
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


class DirichletChar:
    """Character mod N given by exponents on the CRT generators.

    chi(g_i) = zeta_{s_i}^{e_i};  chi(x) = 0 exactly when gcd(x, N) > 1.
    """

    __slots__ = ("modulus", "exponents", "order", "_conductor", "_table")

    def __init__(self, modulus, exponents):
        gens = _unit_group(modulus)
        if len(exponents) != len(gens):
            raise ValueError("exponent vector does not match the unit group")
        self.modulus = modulus
        self.exponents = tuple(e % s for e, (_, s) in zip(exponents, gens))
        self.order = math.lcm(1, *(s // math.gcd(s, e) for e, (_, s) in zip(self.exponents, gens)))
        self._conductor = None
        self._table = None

    # -- basic invariants ---------------------------------------------------

    def table(self):
        """k with chi(x) = zeta_order^k for each residue x mod N, None on
        non-units: the powers of each generator walked from the units
        reached so far."""
        if self._table is None:
            N, m = self.modulus, self.order
            tab = [None] * N
            tab[1 % N] = 0
            units = [1 % N]
            for e, (g, s) in zip(self.exponents, _unit_group(N)):
                step = e * m // s
                reached = []
                for x in units:
                    y, k = x, tab[x]
                    for _ in range(s - 1):
                        y = y * g % N
                        k = (k + step) % m
                        tab[y] = k
                        reached.append(y)
                units += reached
            if N - tab.count(None) != euler_phi(N):
                raise RuntimeError(f"unit group enumeration failed for N={N}")
            self._table = tuple(tab)
        return self._table

    def is_trivial(self):
        return all(e == 0 for e in self.exponents)

    def value_exponent(self, x):
        """k with chi(x) = zeta_order^k, or None when gcd(x, N) > 1."""
        return self.table()[x % self.modulus]

    def __call__(self, x):
        """chi(x) as a CycloNum of the character's order."""
        k = self.table()[x % self.modulus]
        if k is None:
            return CycloNum.zero(self.order)
        return CycloNum.root_of_unity(self.order, k)

    def counts(self, residues):
        """Exponent histogram in ints: entry k counts the x in residues
        (repeats counted) with chi(x) = zeta_order^k; non-units are skipped."""
        tab, N = self.table(), self.modulus
        out = [0] * self.order
        for x in residues:
            k = tab[x % N]
            if k is not None:
                out[k] += 1
        return out

    def value(self, counts):
        """sum of counts[k] * zeta_order^k, reduced once into one CycloNum."""
        m = self.order
        return CycloNum(m, (QQ(c) for c in _reduce(m, counts)))

    def total(self, residues):
        """sum of chi(x) over residues (repeats counted), as one CycloNum."""
        return self.value(self.counts(residues))

    def parity(self):
        """chi(-1) as +-1."""
        return 1 if self.table()[-1 % self.modulus] == 0 else -1

    def conductor(self):
        """Smallest c | N with chi trivial on the units = 1 (mod c)."""
        if self._conductor is None:
            tab, N = self.table(), self.modulus
            self._conductor = next(c for c in divisors(N) if not any(tab[x] for x in range(1, N, c)))
        return self._conductor

    def unit_lift(self, x, M0):
        """A unit mod N congruent to x mod M0 (conductor | M0 | N), through
        which the induced character mod M0 is evaluated; None when
        gcd(x, M0) > 1."""
        N = self.modulus
        if N % M0:
            raise ValueError("M0 must divide the modulus")
        if M0 % self.conductor():
            raise ValueError("character does not factor through M0")
        if math.gcd(x, M0) != 1:
            return None
        return crt_solve([(x, M0)] + [(1, p) for p, _ in factorize(N) if M0 % p])[0]

    def eval_mod(self, x, M0):
        """Evaluate through the induced character mod M0 (conductor | M0 | N):
        0 when gcd(x, M0) > 1, else chi at the unit lift of x."""
        x1 = self.unit_lift(x, M0)
        return CycloNum.zero(self.order) if x1 is None else self(x1)

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


# each character holds its N-entry table once one is asked for
@lru_cache(maxsize=128)
def enumerate_characters(N):
    """All phi(N) characters mod N, ordered lexicographically by exponents."""
    gens = _unit_group(N)
    vecs = [()]
    for _, s in gens:
        vecs = [v + (k,) for v in vecs for k in range(s)]
    return tuple(DirichletChar(N, v) for v in sorted(vecs))


def trivial_character(N):
    return enumerate_characters(N)[0]
