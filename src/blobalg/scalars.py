"""Exact coefficients for the two-boundary diagram calculus.

Scalars are built from five atoms over the Gaussian rationals:

    u  = t^(1/2),   u0 = t_0^(1/2),   uk = t_k^(1/2),   a0,   ak.

Exponents of u, u0, uk count half-units of t, t_0, t_k, so any half-integer
power of the base parameters is a monomial here.  A ``LaurentPoly`` is a
sparse exponent-vector -> Gaussian-rational map.

A ``Scalar`` is a Laurent polynomial in the five atoms over Q(i) divided by
a monic product of Q(i)-irreducible cyclotomic factors in u.  Nothing else
is needed: the seminormal denominators of the calibrated modules,
1 - gamma_i/gamma_(i+1) and 1 - gamma_1^-2, are such products once the
boundary parameters are specialized, and the diagram calculus divides only
by the monomials a0 and ak.  A new denominator enters through ``inv`` (and
so ``/`` and ``parse``) and through ``Scalar(num, den)``, which
``from_json`` reaches; any other denominator -- u - 3, 2u + 1, u + a0 --
raises ScalarError there.

Scalars are kept in one canonical form, so that equal values are
structurally equal: ``num / den`` with the denominator such a product (so
no variable divides it) and coprime to ``num``, which carries the whole
monomial part and may have negative exponents.  ``den`` holds the
denominator as its factorization, a sorted tuple of (factor, multiplicity)
pairs, ``()`` for 1; it is multiplied out only to evaluate, render or
serialize, and for the cofactors of a sum.  A new denominator is factored
by exact trial division, and cancelling divides its factors out of the
numerator as often as they divide both.  A sum is formed over the least
common multiple of the two denominators, which their factorizations give
directly, and only a factor of the same multiplicity in both can cancel
from it; a product adds the multiplicities left after cross-cancelling.
Both read the two sorted factor tuples into dicts and merge them there.
Products, sums, shifts and trial divisions visit each term once, with the
exponent and coefficient arithmetic written out and no call per term; a
trial division applies a divisor coefficient 1, -1, i or -i by adds alone.
Three bounded caches keep the most recent factorizations, expansions and
trial divisions (factor, numerator coefficients) -> quotient.

All expression text -- scalars, the bases of ``bb`` and, through a name
resolver, the generator expressions of ``words`` -- is read by one reader,
``parse``, which evaluates a Python syntax tree of a few node kinds.
"""

from __future__ import annotations

import ast
import functools
import math
import operator
import random
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

NVARS = 5
VAR_NAMES = ("u", "u0", "uk", "a0", "ak")
VAR_INDEX = {name: i for i, name in enumerate(VAR_NAMES)}

Expo = Tuple[int, int, int, int, int]
# Gaussian-rational coefficient: (real, imaginary), each an int or Fraction
Coeff = Tuple[Fraction, Fraction]

_ZEXP: Expo = (0, 0, 0, 0, 0)
_FR0 = 0
_FR1 = 1


class ScalarError(ValueError):
    pass


class EvalRetry(ScalarError):
    """A denominator or an inverse is not a unit at the chosen evaluation
    point; pick a new one.  `residue` is the offending value modulo the
    modulus: over a product of primes, the primes dividing it are the ones
    whose points failed."""

    def __init__(self, message: str, residue: int):
        super().__init__(message)
        self.residue = residue


def _cmul(a: Coeff, b: Coeff) -> Coeff:
    if not a[1] and not b[1]:
        return (a[0] * b[0], _FR0)
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _cneg(a: Coeff) -> Coeff:
    return (-a[0], -a[1])


def _cinv(a: Coeff) -> Coeff:
    n = a[0] * a[0] + a[1] * a[1]
    if n == 0:
        raise ZeroDivisionError("inverse of zero Gaussian rational")
    re = Fraction(a[0]) / n
    im = -Fraction(a[1]) / n
    return (int(re) if re.denominator == 1 else re,
            int(im) if im.denominator == 1 else im)


def _eadd(e: Expo, f: Expo) -> Expo:
    return (e[0] + f[0], e[1] + f[1], e[2] + f[2], e[3] + f[3], e[4] + f[4])


def _esub(e: Expo, f: Expo) -> Expo:
    return (e[0] - f[0], e[1] - f[1], e[2] - f[2], e[3] - f[3], e[4] - f[4])


class LaurentPoly:
    """Sparse Laurent polynomial in (u, u0, uk, a0, ak) over Q(i)."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[Expo, Coeff]] = None):
        self.terms: Dict[Expo, Coeff] = {}
        if terms:
            for e, c in terms.items():
                if c[0] or c[1]:
                    self.terms[e] = c

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def const(re, im=0) -> "LaurentPoly":
        if not isinstance(re, (int, Fraction)):
            re = Fraction(re)
        if not isinstance(im, (int, Fraction)):
            im = Fraction(im)
        if re == 0 and im == 0:
            return LaurentPoly()
        return LaurentPoly({_ZEXP: (re, im)})

    @staticmethod
    def monomial(expo: Expo, coeff: Coeff = (_FR1, _FR0)) -> "LaurentPoly":
        return LaurentPoly({tuple(expo): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {_ZEXP: (_FR1, _FR0)}

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.terms)
        get = out.get
        for e, c in other.terms.items():
            s = get(e)
            if s is None:
                out[e] = c
                continue
            s0 = s[0] + c[0]
            s1 = s[1] + c[1]
            if s0 or s1:
                out[e] = (s0, s1)
            else:
                del out[e]
        r = LaurentPoly.__new__(LaurentPoly)
        r.terms = out
        return r

    def __neg__(self) -> "LaurentPoly":
        r = LaurentPoly.__new__(LaurentPoly)
        r.terms = {e: _cneg(c) for e, c in self.terms.items()}
        return r

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not self.terms or not other.terms:
            return LaurentPoly()
        if len(other.terms) == 1:
            (f, d), = other.terms.items()
            r = LaurentPoly.__new__(LaurentPoly)
            r.terms = {_eadd(e, f): _cmul(c, d) for e, c in self.terms.items()}
            return r
        # exponents and coefficients written out: a call per term costs more than the term
        out: Dict[Expo, Coeff] = {}
        get = out.get
        for (e0, e1, e2, e3, e4), (c0, c1) in self.terms.items():
            for (f0, f1, f2, f3, f4), (d0, d1) in other.terms.items():
                g = (e0 + f0, e1 + f1, e2 + f2, e3 + f3, e4 + f4)
                if c1 or d1:
                    p0 = c0 * d0 - c1 * d1
                    p1 = c0 * d1 + c1 * d0
                else:
                    p0 = c0 * d0
                    p1 = _FR0
                s = get(g)
                if s is None:
                    out[g] = (p0, p1)
                    continue
                p0 = s[0] + p0
                p1 = s[1] + p1
                if p0 or p1:
                    out[g] = (p0, p1)
                else:
                    del out[g]
        r = LaurentPoly.__new__(LaurentPoly)
        r.terms = out
        return r

    def scale(self, coeff: Coeff) -> "LaurentPoly":
        if coeff[0] == 0 and coeff[1] == 0:
            return LaurentPoly()
        r = LaurentPoly.__new__(LaurentPoly)
        r.terms = {e: _cmul(c, coeff) for e, c in self.terms.items()}
        return r

    def shift(self, expo: Expo) -> "LaurentPoly":
        r = LaurentPoly.__new__(LaurentPoly)
        s0, s1, s2, s3, s4 = expo
        r.terms = {(e0 + s0, e1 + s1, e2 + s2, e3 + s3, e4 + s4): c
                   for (e0, e1, e2, e3, e4), c in self.terms.items()}
        return r

    def min_exponents(self) -> Expo:
        its = iter(self.terms)
        m = list(next(its))
        for e in its:
            for i in range(NVARS):
                if e[i] < m[i]:
                    m[i] = e[i]
        return tuple(m)

    def leading(self) -> Tuple[Expo, Coeff]:
        """Term with the lexicographically largest exponent vector."""
        e = max(self.terms)
        return e, self.terms[e]

    def variables(self) -> Tuple[int, ...]:
        used = [False] * NVARS
        for e in self.terms:
            for i in range(NVARS):
                if e[i]:
                    used[i] = True
        return tuple(i for i in range(NVARS) if used[i])

    def degree_in(self, var: int) -> int:
        return max(e[var] for e in self.terms)

    def __repr__(self) -> str:
        return "LaurentPoly(%r)" % (self.terms,)


# ---------------------------------------------------------------------------
# Gaussian integers
# ---------------------------------------------------------------------------

GInt = Tuple[int, int]


def _gi_mul(a: GInt, b: GInt) -> GInt:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gi_norm(a: GInt) -> int:
    return a[0] * a[0] + a[1] * a[1]


# ---------------------------------------------------------------------------
# denominators and cancellation: cyclotomic trial division
# ---------------------------------------------------------------------------
#
# The seminormal denominators 1 - gamma_i/gamma_(i+1) and 1 - gamma_1^-2 are
# 1 - (unit)*u^m, so the denominators of the calibrated modules are products
# of the Q(i)-irreducible cyclotomic factors: Phi_m when 4 does not divide m,
# and for 4 | m the two halves of Phi_m whose roots z have z^(m/4) = i and
# z^(m/4) = -i.  These products are the only denominators a Scalar may have.
# Each is factored by exact trial division, and a numerator is cancelled
# against it by stripping those factors; removing every common irreducible
# factor is dividing by the gcd.  Sums and products combine the
# factorizations of their operands instead of factoring a new denominator.
# Dense polynomials below are coefficient lists in u, lowest degree first.

_ZC = (0, 0)
_MAX_DEGREE = 512  # denominators of degree >= this in u are rejected
CycloFactor = Tuple[GInt, ...]  # monic, Gaussian-integer coefficients
Factors = Tuple[Tuple[CycloFactor, int], ...]  # sorted, with multiplicities
_UNIT_KIND = {(1, 0): 1, (-1, 0): 2, (0, 1): 3, (0, -1): 4}  # see _dense_divmod


def _dense_divmod(a: List[Coeff], f: Tuple[GInt, ...]) -> Tuple[List[Coeff], List[Coeff]]:
    """Quotient and remainder of `a` by the monic `f`."""
    df = len(f) - 1
    if len(a) <= df:
        return [], list(a)
    a = list(a)
    # a divisor coefficient 1, -1, i or -i (kinds 1 to 4) is applied to the
    # quotient term by adds alone; only one of kind 0 multiplies
    low = [(j, _UNIT_KIND.get(c, 0), c[0], c[1]) for j, c in enumerate(f[:df]) if c[0] or c[1]]
    q = [_ZC] * (len(a) - df)
    for base in range(len(a) - df - 1, -1, -1):
        c0, c1 = a[base + df]
        if not c0 and not c1:
            continue
        q[base] = (c0, c1)
        for j, kind, fr, fi in low:
            j += base
            x0, x1 = a[j]
            if kind == 1:
                a[j] = (x0 - c0, x1 - c1)
            elif kind == 2:
                a[j] = (x0 + c0, x1 + c1)
            elif kind == 3:
                a[j] = (x0 + c1, x1 - c0)
            elif kind == 4:
                a[j] = (x0 - c1, x1 + c0)
            else:
                a[j] = (x0 - c0 * fr + c1 * fi, x1 - c0 * fi - c1 * fr)
    return q, a[:df]


_FACTOR_MEMO_MAX = 1024  # the size of each of the three caches below


@functools.lru_cache(maxsize=_FACTOR_MEMO_MAX)
def _divide_exactly(f: CycloFactor, a: Tuple[Coeff, ...]) -> Optional[Tuple[Coeff, ...]]:
    """a / f if f divides the nonzero tuple `a`, else None, remembered: a
    numerator is often tried again against a factor it met before, in
    another operand's denominator.  The quotient is a tuple, so the callers
    that share it cannot change it."""
    q, r = _dense_divmod(a, f)
    return None if any(x0 or x1 for x0, x1 in r) else tuple(q)


def _mobius(n: int) -> int:
    out = 1
    q = 2
    while q * q <= n:
        if n % q == 0:
            n //= q
            if n % q == 0:
                return 0
            out = -out
        q += 1
    return -out if n > 1 else out


def _binomial_ratio(powers) -> Tuple[GInt, ...]:
    """prod (u^a - c)^e over (a, c, e) with e = +-1; the quotient must be exact."""
    p: List[GInt] = [(1, 0)]
    for a, c, e in sorted(powers, key=lambda t: -t[2]):
        if e > 0:
            q = [_ZC] * a + p
            for j, x in enumerate(p):
                y = _gi_mul(c, x)
                q[j] = (q[j][0] - y[0], q[j][1] - y[1])
            p = q
        else:
            p, _ = _dense_divmod(p, ((-c[0], -c[1]),) + (_ZC,) * (a - 1) + ((1, 0),))
    return tuple(p)


@functools.lru_cache(maxsize=512)
def _cyclotomic_factors(m: int) -> Tuple[CycloFactor, ...]:
    """The Q(i)-irreducible factors of Phi_m."""
    divisors = [g for g in range(1, m + 1) if m % g == 0]
    if m % 4:
        # Phi_m = prod over g | m of (u^(m/g) - 1)^mu(g)
        return (_binomial_ratio([(m // g, (1, 0), _mobius(g)) for g in divisors
                                 if _mobius(g)]),)
    # The roots of u^(m/4) - sigma*i are the zeta_m^k with k = sigma (mod 4);
    # grouping them by the odd g = gcd(k, m) and inverting gives the half with
    # z^(m/4) = sigma*i as prod over odd g | m of
    # (u^(m/4g) - sigma*chi(g)*i)^mu(g), where chi(g) = +-1 = g (mod 4).
    return tuple(_binomial_ratio([(m // (4 * g), (0, sigma if g % 4 == 1 else -sigma),
                                   _mobius(g)) for g in divisors
                                  if g % 2 and _mobius(g)])
                 for sigma in (1, -1))


@functools.lru_cache(maxsize=_FACTOR_MEMO_MAX)
def _factor_cyclotomic(d: Tuple[GInt, ...]) -> Optional[Factors]:
    """Factor the monic `d` into Q(i)-irreducible cyclotomic factors with
    multiplicities, sorted, or None if it is not such a product."""
    # Roots of unity have 1/conj(z) = z, so the conjugate reversal of such a
    # product is conj(d(0)) * d, and d(0) is a unit.
    top = len(d) - 1
    c0 = (d[0][0], -d[0][1])
    if _gi_norm(c0) != 1 or any((d[top - j][0], -d[top - j][1]) != _gi_mul(c0, d[j])
                                for j in range(top + 1)):
        return None
    out = []
    m = 1
    # A factor of Phi_m has degree at least phi(m)/2, and m < 6*phi(m) for
    # every m below 2*10^8, so m < 12*deg(d) reaches every factor that fits.
    # The trial divisions grow with the square of the degree, so a
    # denominator of degree _MAX_DEGREE = 512 or more is rejected before it
    # gets here.
    while len(d) > 1 and m < 12 * (len(d) - 1):
        for factor in _cyclotomic_factors(m):
            k = 0
            q = _divide_exactly(factor, d)
            while q is not None:
                d, k = q, k + 1
                q = _divide_exactly(factor, d)
            if k:
                out.append((factor, k))
        m += 1
    return tuple(sorted(out)) if len(d) == 1 else None


@functools.lru_cache(maxsize=_FACTOR_MEMO_MAX)
def _expand(factors: Factors) -> LaurentPoly:
    """The denominator prod f^k over `factors`, 1 for (); shared: do not
    mutate it."""
    dense: List[GInt] = [(1, 0)]
    for f, k in factors:
        for _ in range(k):
            out = [_ZC] * (len(dense) + len(f) - 1)
            for i, (ar, ai) in enumerate(dense):
                if ar or ai:
                    for j, (br, bi) in enumerate(f):
                        xr, xi = out[i + j]
                        out[i + j] = (xr + ar * br - ai * bi, xi + ar * bi + ai * br)
            dense = out
    den = LaurentPoly.__new__(LaurentPoly)
    den.terms = {(j, 0, 0, 0, 0): c for j, c in enumerate(dense) if c[0] or c[1]}
    return den


def _u_coefficients(d: LaurentPoly, scale: Optional[Coeff]) -> Optional[Tuple[GInt, ...]]:
    """Dense coefficients of d*scale if d is in u alone and they are
    Gaussian integers, else None."""
    out = [_ZC] * (d.degree_in(0) + 1)
    for e, c in d.terms.items():
        if e[1] or e[2] or e[3] or e[4]:
            return None
        re, im = _cmul(c, scale) if scale is not None else c
        if re.denominator != 1 or im.denominator != 1:
            return None
        out[e[0]] = (int(re), int(im))
    return tuple(out)


def _denominator_factors(d: LaurentPoly) -> Tuple[Optional[Coeff], Factors]:
    """For a nonzero polynomial d with zero monomial content: the inverse of
    its leading coefficient (None if that is 1) and the factorization of the
    monic d, () for a constant.

    Raises ScalarError if the monic d is not a product of Q(i)-irreducible
    cyclotomic factors in u: no Scalar has such a denominator."""
    _, lc = d.leading()
    inv = _cinv(lc) if lc != (_FR1, _FR0) else None
    if len(d.terms) == 1:
        return inv, ()
    dense = _u_coefficients(d, inv) if d.degree_in(0) < _MAX_DEGREE else None
    factors = _factor_cyclotomic(dense) if dense is not None else None
    if factors is None:
        raise ScalarError("denominator is not a product of cyclotomic factors in u "
                          "of degree below %d: %s"
                          % (_MAX_DEGREE, render(Scalar(d, _normalized=True))))
    return inv, factors


def _cancel(n: LaurentPoly, d: LaurentPoly) -> Tuple[LaurentPoly, Factors]:
    """n/g over the factorization of the monic d/g, for g = gcd(n, d).

    n and d are ordinary polynomials with zero monomial content.  The
    factors of d (see :func:`_denominator_factors`) are stripped from n as
    often as they divide both."""
    inv, factors = _denominator_factors(d)
    return _strip(n if inv is None else n.scale(inv), factors)


def _strip(n: LaurentPoly, factors: Factors) -> Tuple[LaurentPoly, Factors]:
    """n/g for the largest product g of `factors`, each at most at its
    multiplicity, that divides the Laurent polynomial n, and the factors
    left over."""
    if not factors or len(n.terms) == 1:
        return n, factors
    # n as a polynomial in u over the other variables, u^lo factored out
    lo = min(n.terms)[0]
    rows: Dict[Tuple[int, ...], List[Coeff]] = {}
    for e, c in n.terms.items():
        row = rows.setdefault(e[1:], [])
        j = e[0] - lo
        if j >= len(row):
            row.extend([_ZC] * (j + 1 - len(row)))
        row[j] = c
    groups = {r: tuple(row) for r, row in rows.items()}
    left = []
    for factor, k in factors:
        j = 0
        while j < k and (quotients := _divide_rows(factor, groups)) is not None:
            groups, j = quotients, j + 1
        if j < k:
            left.append((factor, k - j))
    if left == list(factors):
        return n, factors
    num = LaurentPoly.__new__(LaurentPoly)
    num.terms = {(j + lo,) + r: c for r, a in groups.items()
                 for j, c in enumerate(a) if c[0] or c[1]}
    return num, tuple(left)


def _divide_rows(factor: CycloFactor, groups: Dict[Tuple[int, ...], Tuple[Coeff, ...]]
                 ) -> Optional[Dict[Tuple[int, ...], Tuple[Coeff, ...]]]:
    """Each row divided by `factor`, or None as soon as one row is not."""
    out = {}
    for r, a in groups.items():
        q = _divide_exactly(factor, a)
        if q is None:
            return None
        out[r] = q
    return out


def _sum_over_lcm(n1: LaurentPoly, f1: Factors, n2: LaurentPoly, f2: Factors) -> "Scalar":
    """n1/d1 + n2/d2 for reduced fractions with denominators factored as f1
    and f2, over their least common multiple L (Henrici 1956; Knuth, TAOCP
    4.5.1).

    L takes each factor at its larger multiplicity, and each numerator is
    multiplied by its cofactor L/d, the other side's factors beyond its own
    multiplicities.  A factor whose multiplicities differ divides exactly
    one of the two products, since n1 and n2 are prime to their
    denominators, and so not the sum: only a factor of the same
    multiplicity in d1 and d2 can cancel."""
    k1, k2 = dict(f1), dict(f2)
    co1 = tuple((f, k - k1.get(f, 0)) for f, k in f2 if k > k1.get(f, 0))
    co2 = tuple((f, k - k2.get(f, 0)) for f, k in f1 if k > k2.get(f, 0))
    num = (n1 * _expand(co1) if co1 else n1) + (n2 * _expand(co2) if co2 else n2)
    if num.is_zero():
        return Scalar.zero()
    lcm = k1  # k1 is not read again
    for f, k in co1:
        lcm[f] = lcm.get(f, 0) + k
    shared = tuple((f, k) for f, k in f1 if k2.get(f) == k)
    if shared:
        num, left = _strip(num, shared)
        if left is not shared:
            kept = dict(left)
            for f, _ in shared:
                if f in kept:
                    lcm[f] = kept[f]
                else:
                    del lcm[f]
    # d2's factors that d1 lacks were appended after d1's: sort them in
    return Scalar(num, tuple(sorted(lcm.items()) if co1 else lcm.items()), _normalized=True)


class Scalar:
    """A Laurent polynomial over a cyclotomic denominator in u, kept in
    reduced canonical form: `num` and the factorization `den` of the
    denominator, () for 1.

    `Scalar(num, den)` reduces num/den for polynomials num and den (1 if
    omitted); with `_normalized` set, num and den are already canonical and
    den is a factorization.  No code changes num or den afterwards, so the
    hash is computed on first use and kept in `_hash`."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: LaurentPoly, den=None, _normalized: bool = False):
        self._hash = None
        if _normalized:
            self.num = num
            self.den = () if den is None else den
            return
        if den is None:
            den = LaurentPoly.const(1)
        if den.is_zero():
            raise ZeroDivisionError("scalar with zero denominator")
        self.num, self.den = _normalize(num, den)

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero() -> "Scalar":
        return Scalar(LaurentPoly.zero(), _normalized=True)

    @staticmethod
    def one() -> "Scalar":
        return Scalar(LaurentPoly.const(1), _normalized=True)

    @staticmethod
    def from_int(n) -> "Scalar":
        return Scalar(LaurentPoly.const(n), _normalized=True)

    @staticmethod
    def i() -> "Scalar":
        return Scalar(LaurentPoly.const(0, 1), _normalized=True)

    @staticmethod
    def monomial(u=0, u0=0, uk=0, a0=0, ak=0, coeff: Coeff = (_FR1, _FR0)) -> "Scalar":
        return Scalar(LaurentPoly.monomial((u, u0, uk, a0, ak), coeff),
                      _normalized=True)

    @staticmethod
    def var(name: str, power: int = 1) -> "Scalar":
        e = [0] * NVARS
        e[VAR_INDEX[name]] = power
        return Scalar(LaurentPoly.monomial(tuple(e)), _normalized=True)

    # -- predicates ---------------------------------------------------------
    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return not self.den and self.num.is_one()

    def is_monomial(self) -> bool:
        return not self.den and self.num.is_monomial()

    # -- arithmetic ----------------------------------------------------------
    # Any operand but a Scalar, int or Fraction gets NotImplemented.
    def _coerce(other):
        if isinstance(other, int):
            return Scalar.from_int(other)
        if isinstance(other, Fraction):
            return Scalar(LaurentPoly.const(other), _normalized=True)
        return None

    def __add__(self, other: "Scalar") -> "Scalar":
        if type(other) is not Scalar and (other := Scalar._coerce(other)) is None:
            return NotImplemented
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        if not self.den and not other.den:
            s = self.num + other.num
            if s.is_zero():
                return Scalar.zero()
            return Scalar(s, (), _normalized=True)
        return _sum_over_lcm(self.num, self.den, other.num, other.den)

    def __sub__(self, other: "Scalar") -> "Scalar":
        if type(other) is not Scalar and (other := Scalar._coerce(other)) is None:
            return NotImplemented
        return self + (-other)

    __radd__ = __add__

    def __rsub__(self, other) -> "Scalar":
        return NotImplemented if (other := Scalar._coerce(other)) is None else other - self

    def __neg__(self) -> "Scalar":
        return Scalar(-self.num, self.den, _normalized=True)

    def __mul__(self, other: "Scalar") -> "Scalar":
        if type(other) is not Scalar and (other := Scalar._coerce(other)) is None:
            return NotImplemented
        if self.num.is_zero() or other.num.is_zero():
            return Scalar.zero()
        if not self.den and not other.den:
            return Scalar(self.num * other.num, (), _normalized=True)
        # cross-cancellation keeps the product reduced: each numerator against
        # the other factor's denominator; the product's denominator is made
        # of the factors left, a factor on both sides at the sum of its
        # multiplicities
        n1, f2 = _strip(self.num, other.den)
        n2, f1 = _strip(other.num, self.den)
        if f1 and f2:
            counts = dict(f1)
            for f, k in f2:
                counts[f] = counts.get(f, 0) + k
            f1 = tuple(sorted(counts.items()))
        return Scalar(n1 * n2, f1 or f2, _normalized=True)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        if type(other) is not Scalar and (other := Scalar._coerce(other)) is None:
            return NotImplemented
        return self * other.inv()

    __rmul__ = __mul__

    def inv(self) -> "Scalar":
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        mono = _esub(_ZEXP, self.num.min_exponents())
        inv, factors = _denominator_factors(self.num.shift(mono))
        num = _expand(self.den).shift(mono)
        return Scalar(num if inv is None else num.scale(inv), factors, _normalized=True)

    def __pow__(self, n: int) -> "Scalar":
        if n < 0:
            return self.inv() ** (-n)
        out = Scalar.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, Scalar) and self.num == other.num
                and self.den == other.den)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __repr__(self) -> str:
        return "Scalar(%s)" % render(self)

    # -- substitution --------------------------------------------------------
    def substitute_boundary(self, u0_image: Tuple[Coeff, int],
                            uk_image: Tuple[Coeff, int]) -> "Scalar":
        """Replace u0 -> g0 * u^m0 and uk -> gk * u^mk (g unit coefficients)."""
        def sub_poly(p: LaurentPoly) -> LaurentPoly:
            out = LaurentPoly.zero()
            for e, c in p.terms.items():
                g0, m0 = u0_image
                gk, mk = uk_image
                coeff = c
                coeff = _cmul(coeff, _unit_pow(g0, e[1]))
                coeff = _cmul(coeff, _unit_pow(gk, e[2]))
                expo = (e[0] + m0 * e[1] + mk * e[2], 0, 0, e[3], e[4])
                out = out + LaurentPoly.monomial(expo, coeff)
            return out
        return Scalar(sub_poly(self.num), sub_poly(_expand(self.den)))


def _unit_pow(g: Coeff, n: int) -> Coeff:
    if n < 0:
        g = _cinv(g)
        n = -n
    out: Coeff = (_FR1, _FR0)
    for _ in range(n):
        out = _cmul(out, g)
    return out


def _normalize(num: LaurentPoly, den: LaurentPoly) -> Tuple[LaurentPoly, Factors]:
    if num.is_zero():
        return LaurentPoly.zero(), ()
    mn = num.min_exponents()
    md = den.min_exponents()
    # both are ordinary polynomials with zero monomial content once shifted
    n, factors = _cancel(num.shift(_esub(_ZEXP, mn)), den.shift(_esub(_ZEXP, md)))
    # fold the overall monomial into the (Laurent) numerator
    return n.shift(_esub(mn, md)), factors


# ---------------------------------------------------------------------------
# the named operations of the coefficient field
# ---------------------------------------------------------------------------

U = Scalar.var("u")
U0 = Scalar.var("u0")
UK = Scalar.var("uk")
A0 = Scalar.var("a0")
AK = Scalar.var("ak")
ONE = Scalar.one()
I = Scalar.i()


def monomial_base(spec) -> Expo:
    """Exponent vector of a monomial with coefficient 1: a Scalar, or text
    such as 't0*tk/t' read by :func:`parse`."""
    spec = parse(spec) if isinstance(spec, str) else spec
    if not (isinstance(spec, Scalar) and spec.is_monomial()
            and (_FR1, _FR0) in spec.num.terms.values()):
        raise ScalarError("bb base must be a monomial with coefficient 1")
    return next(iter(spec.num.terms))


def bb(base, s=1) -> Scalar:
    """The bracket x^(1/2) + x^(-1/2) for x = base**s.

    `base` is a monomial in t, t_0, t_k (a name like "t0*tk/t", an exponent
    vector, or a monomial Scalar); `s` may be any half-integer for which the
    half-power of base**s stays in the field.
    """
    e = base if isinstance(base, tuple) else monomial_base(base)
    s = Fraction(s)
    half = [Fraction(x) * s / 2 for x in e]
    if any(h.denominator != 1 for h in half):
        raise ScalarError("half-power of (%s)^%s is not in the field"
                          % (render(Scalar.monomial(*e)), s))
    expo = tuple(int(h) for h in half)
    if expo == _ZEXP:
        return Scalar.from_int(2)
    return (Scalar(LaurentPoly.monomial(expo), _normalized=True)
            + Scalar(LaurentPoly.monomial(_esub(_ZEXP, expo)), _normalized=True))


def qint(n: int) -> Scalar:
    """Balanced q-integer [n] = u^(n-1) + u^(n-3) + ... + u^(1-n), n >= 0."""
    if n < 0:
        raise ScalarError("qint requires n >= 0")
    total = Scalar.zero()
    for j in range(n):
        total = total + Scalar.monomial(u=n - 1 - 2 * j)
    return total


def qint_signed(n: int) -> Scalar:
    """[n] extended to negative n by [-n] = -[n]."""
    return qint(n) if n >= 0 else -qint(-n)


# ---------------------------------------------------------------------------
# randomized modular evaluation
# ---------------------------------------------------------------------------

def _primes_below(n: int) -> Tuple[int, ...]:
    """The primes below n, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    for q in range(2, n):
        if sieve[q]:
            sieve[q * q::q] = bytes(len(range(q * q, n, q)))
    return tuple(q for q in range(2, n) if sieve[q])


_SMALL_PRIMES = frozenset(_primes_below(1000))
_PRIMORIAL = math.prod(_SMALL_PRIMES)
# Miller-Rabin bases that decide every n < 2^64 (Sinclair); above it the
# first twelve primes, which decide every n < 318665857834031151167461
_BASES_64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Primality: one gcd with the primes below 1000, then strong Fermat
    tests, deterministic below 318665857834031151167461."""
    if n < 2:
        return False
    if math.gcd(n, _PRIMORIAL) != 1:
        return n in _SMALL_PRIMES
    if n < 1000 * 1000:
        return True  # no prime factor below its square root
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (_BASES_64 if n < 1 << 64 else _BASES):
        x = pow(a, d, n)
        if x in (0, 1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(bits: int, rng: random.Random) -> int:
    """Random prime with `bits` bits and p = 1 (mod 4), so that i exists mod p."""
    if not isinstance(bits, int) or bits < 3:
        raise ScalarError("no prime p = 1 (mod 4) has bits = %r < 3" % (bits,))
    while True:
        p = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if p % 4 == 1 and is_probable_prime(p):
            return p


def sqrt_minus_one(p: int, rng: random.Random) -> int:
    if p % 4 != 1:
        raise ScalarError("need p = 1 (mod 4) to host i")
    while True:
        g = rng.randrange(2, p - 1)
        x = pow(g, (p - 1) // 4, p)
        if x * x % p == p - 1:
            return x


def random_point(p: int, rng: random.Random) -> Dict[str, int]:
    """Random unit residues for the variables plus a residue for i."""
    point = {name: rng.randrange(2, p - 1) for name in VAR_NAMES}
    point["i"] = sqrt_minus_one(p, rng)
    return point


@functools.lru_cache(maxsize=8)
def _power_table(p: int, v: int) -> List[int]:
    """The powers 1, v, v^2, ... of the residue v mod p that evaluations
    have read so far; `eval_mod` appends to the list in place, so every
    evaluation at the same residue shares one table."""
    return [1, v]


def eval_mod(x: Scalar, p: int, point: Dict[str, int]) -> int:
    """Evaluate x at unit residues mod p, a prime or a product of distinct
    primes (then the point holds CRT combinations, and the value is the CRT
    combination of the values mod each prime); raises EvalRetry on a
    denominator that is not a unit mod p.  Each variable with a negative
    exponent is inverted once per call.

    The terms are read in their stored order, so the same term raises on a
    bad point as in a term-by-term sum, and summed unreduced, with one
    reduction per polynomial.  A power of u is read from a table of the
    powers of its residue, kept for the most recent (p, residue) pairs and
    grown one product per new power, instead of raised with `pow`."""
    i_val = point["i"]
    if i_val * i_val % p != p - 1:
        raise ScalarError("point['i'] is not a square root of -1 mod p")
    inverses: Dict[int, int] = {}
    tables: Dict[bool, List[int]] = {}

    def base(var: int, power: int) -> int:
        """The residue whose |power|-th power is the variable's power-th."""
        v = point[VAR_NAMES[var]] % p
        if v == 0:
            raise ScalarError("point assigns 0 to %s" % VAR_NAMES[var])
        if power > 0:
            return v
        if var not in inverses:
            inverses[var] = _inv_mod(v, p)
        return inverses[var]

    def power(var: int, e: int) -> int:
        if var:
            return pow(base(var, e), abs(e), p)
        if (e < 0) not in tables:
            tables[e < 0] = _power_table(p, base(0, e))
        table, e = tables[e < 0], abs(e)
        while len(table) <= e:
            table.append(table[-1] * table[1] % p)
        return table[e]

    def eval_poly(poly: LaurentPoly) -> int:
        total = 0
        for e, c in poly.terms.items():
            term = _frac_mod(c[0], p) + i_val * _frac_mod(c[1], p)
            for var in range(NVARS):
                if e[var]:
                    term *= power(var, e[var])
            total += term
        return total % p

    num = eval_poly(x.num)
    return num * _inv_mod(eval_poly(_expand(x.den)), p) % p if x.den else num


def _frac_mod(fr, p: int) -> int:
    if isinstance(fr, int):
        return fr % p
    return fr.numerator * _inv_mod(fr.denominator, p) % p


def _inv_mod(x: int, p: int) -> int:
    """The inverse of x mod p; EvalRetry, carrying x mod p, when x is not a
    unit, i.e. when a prime dividing p divides x."""
    try:
        return pow(x, -1, p)
    except ValueError:
        raise EvalRetry("not a unit at the evaluation point", x % p) from None


# ---------------------------------------------------------------------------
# text rendering and parsing
# ---------------------------------------------------------------------------

def _render_gaussian_int(c: GInt) -> str:
    re, im = c
    if im == 0:
        return str(re)
    if re == 0:
        if im == 1:
            return "i"
        if im == -1:
            return "-i"
        return "%d*i" % im
    s = "%d%+d*i" % (re, im) if abs(im) != 1 else "%d%si" % (re, "+" if im > 0 else "-")
    return "(%s)" % s


def _render_poly(p: LaurentPoly) -> str:
    if p.is_zero():
        return "0"
    bits = []
    for e in sorted(p.terms, reverse=True):
        c = p.terms[e]
        gi = (int(c[0]), int(c[1]))
        monos = []
        for var, name in enumerate(VAR_NAMES):
            if e[var] == 1:
                monos.append(name)
            elif e[var]:
                monos.append("%s^%d" % (name, e[var]))
        body = "*".join(monos)
        if not body:
            bits.append(_render_gaussian_int(gi))
            continue
        if gi == (1, 0):
            bits.append(body)
        elif gi == (-1, 0):
            bits.append("-" + body)
        else:
            bits.append("%s*%s" % (_render_gaussian_int(gi), body))
    out = bits[0]
    for b in bits[1:]:
        out += b if b.startswith("-") else "+" + b
    return out


def _integerized(x: Scalar) -> Tuple[LaurentPoly, LaurentPoly]:
    """Rescale num/den by a common rational so both have Gaussian-integer coefficients."""
    den = _expand(x.den)
    polys = (x.num, den)
    scale = (math.lcm(*(fr.denominator for poly in polys
                        for c in poly.terms.values() for fr in c)), 0)
    num = x.num.scale(scale)
    den = den.scale(scale)
    g = math.gcd(*(int(part) for poly in (num, den)
                   for c in poly.terms.values() for part in c))
    if g > 1:
        inv = (Fraction(1, g), 0)
        num = num.scale(inv)
        den = den.scale(inv)
    return num, den


def render(x: Scalar) -> str:
    """Text form with Gaussian-integer coefficients, e.g. '(u^2+1+u^-2)/(a0)'."""
    if x.is_zero():
        return "0"
    num, den = _integerized(x)
    ns = _render_poly(num)
    if den.is_one():
        return ns if len(num.terms) == 1 else "(%s)" % ns
    return "(%s)/(%s)" % (ns, _render_poly(den))


# the names a scalar expression may use: t = u^2, t0 = u0^2, tk = uk^2
ATOMS = {"u": U, "u0": U0, "uk": UK, "a0": A0, "ak": AK, "i": I,
         "t": U * U, "t0": U0 * U0, "tk": UK * UK}
_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}
_MAX_NESTING = 100


def _quote(text: str) -> str:
    return repr(text if len(text) <= 40 else text[:40] + "...")


def parse(text: str, resolve: Callable[[str], object] = ATOMS.get):
    """Read expression text, such as :func:`render` writes: integer
    literals, names, unary + and -, + - * /, integer powers (^ or **), and
    the calls bb(base[, s]) and qint(n).

    `resolve` maps a name to its value, or to None if it is unknown; by
    default it knows `ATOMS`.  The values need only support the operators,
    so the same reader serves generator expressions.  Python's parser reads
    the text into a syntax tree whose nodes are evaluated here; nothing is
    compiled or run.  Any other node, a syntax error and nesting deeper than
    _MAX_NESTING (or a sum of some thousand terms) raise ScalarError."""
    source = text.strip().replace("^", "**")
    try:
        tree = ast.parse(source, mode="eval")
    except (SyntaxError, ValueError) as exc:
        raise ScalarError("cannot read %s: %s" % (_quote(text), exc.args[0])) from None
    except (RecursionError, MemoryError):  # how Python's parser reports deep nesting
        raise ScalarError("%s is nested too deeply" % _quote(text)) from None
    try:
        return _evaluate(tree.body, source, resolve, 0)
    except ZeroDivisionError:
        raise ScalarError("division by zero in %s" % _quote(text)) from None


def _evaluate(node: ast.AST, source: str, resolve, depth: int):
    if depth > _MAX_NESTING:
        raise ScalarError("expression nested more than %d deep" % _MAX_NESTING)
    depth += 1
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return Scalar.from_int(node.value)
    if isinstance(node, ast.Name):
        value = resolve(node.id)
        if value is None:
            raise ScalarError("unknown symbol %r" % node.id)
        return value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        value = _evaluate(node.operand, source, resolve, depth)
        return -value if isinstance(node.op, ast.USub) else value
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        # the left-nested chain a + b - c ... is walked, not recursed into
        chain = []
        while isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            chain.append(node)
            node = node.left
        value = _evaluate(node, source, resolve, depth)
        for link in reversed(chain):
            op = type(link.op)
            # an exponent is an integer, a divisor a scalar
            right = _evaluate(link.right, source, ATOMS.get if op is ast.Pow else resolve,
                              depth)
            if op is ast.Pow:
                right = _rational(right, True)
            elif op is ast.Div and not isinstance(right, Scalar):
                raise ScalarError("only a scalar can divide")
            value = _BINOPS[op](value, right)
        return value
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and not node.keywords \
            and (node.func.id, len(node.args)) in (("qint", 1), ("bb", 1), ("bb", 2)):
        args = [_evaluate(a, source, ATOMS.get, depth) for a in node.args]
        if node.func.id == "qint":
            return qint(_rational(args[0], True))
        return bb(args[0], *(_rational(s, False) for s in args[1:]))
    raise ScalarError("%s is not allowed in an expression"
                      % _quote(ast.get_source_segment(source, node) or type(node).__name__))


def _rational(x: Scalar, whole: bool):
    """The rational constant x (an int if `whole`), or a ScalarError."""
    c = Fraction(x.num.terms.get(_ZEXP, (0, 0))[0])
    if x != Scalar._coerce(c) or (whole and c.denominator != 1):
        raise ScalarError("expected %s, not %s" % ("an integer" if whole else "a rational",
                                                   render(x)))
    return int(c) if whole else c


# ---------------------------------------------------------------------------
# JSON form
# ---------------------------------------------------------------------------

def _frac_out(fr):
    return fr.numerator if fr.denominator == 1 else "%d/%d" % (fr.numerator, fr.denominator)


def _frac_in(v):
    if type(v) is int:
        return v
    if isinstance(v, str):
        try:
            return Fraction(*map(int, v.split("/")))
        except (ValueError, TypeError, ZeroDivisionError):
            pass
    raise ScalarError("scalar JSON: bad coefficient %r" % (v,))


def _poly_to_json(p: LaurentPoly):
    rows = []
    for e in sorted(p.terms):
        c = p.terms[e]
        rows.append([_frac_out(c[0]), _frac_out(c[1]), *e])
    return rows


def _poly_from_json(rows) -> LaurentPoly:
    terms = {}
    for row in rows:
        if not (isinstance(row, list) and len(row) == 2 + NVARS
                and all(type(x) is int for x in row[2:])):
            raise ScalarError("scalar JSON: a term is [re, im, %d integer exponents], not %r"
                              % (NVARS, row))
        exps = tuple(row[2:])
        if exps in terms:
            raise ScalarError("scalar JSON repeats the exponents %r" % (list(exps),))
        terms[exps] = (_frac_in(row[0]), _frac_in(row[1]))
    return LaurentPoly(terms)


def to_json(x: Scalar) -> dict:
    return {"num": _poly_to_json(x.num), "den": _poly_to_json(_expand(x.den))}


def from_json(obj) -> Scalar:
    if not (isinstance(obj, dict) and isinstance(obj.get("num"), list)
            and isinstance(obj.get("den"), list)):
        raise ScalarError("scalar JSON must be an object with term lists \"num\" and "
                          "\"den\", not %r" % (obj,))
    den = _poly_from_json(obj["den"])
    if den.is_zero():
        raise ScalarError("scalar JSON has a zero denominator")
    return Scalar(_poly_from_json(obj["num"]), den)
