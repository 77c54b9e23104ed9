"""Exact coefficient field for the two-boundary diagram calculus.

Scalars are rational functions in five atoms over the Gaussian rationals:

    u  = t^(1/2),   u0 = t_0^(1/2),   uk = t_k^(1/2),   a0,   ak.

Exponents of u, u0, uk count half-units of t, t_0, t_k, so any half-integer
power of the base parameters is a monomial here.  A ``LaurentPoly`` is a
sparse exponent-vector -> Gaussian-rational map.

A ``Scalar`` is kept in one canonical form, so that equal values are
structurally equal: ``num / den`` with ``den`` an ordinary polynomial that no
variable divides, monic (its lexicographically largest term has coefficient
1) and coprime to ``num``, which carries the whole monomial part and may have
negative exponents.

Cancellation removes the common factors of the two polynomial parts.  When
the monic denominator is a polynomial in u alone with Gaussian-integer
coefficients that factors into Q(i)-irreducible cyclotomic factors -- the
case for every calibrated-module entry -- its factorization is found once by
exact trial division and memoized, and the factors are divided out of the
numerator as often as they divide both.  Any other denominator is cancelled
by a polynomial gcd over Z[i] (primitive pseudo-remainder sequences).  Both
routes give the same canonical form.
"""

from __future__ import annotations

import functools
import json
import random
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

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
    """A denominator vanished at the chosen evaluation point; pick a new one."""


def _cadd(a: Coeff, b: Coeff) -> Coeff:
    return (a[0] + b[0], a[1] + b[1])


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
        for e, c in other.terms.items():
            if e in out:
                s = _cadd(out[e], c)
                if s[0] or s[1]:
                    out[e] = s
                else:
                    del out[e]
            else:
                out[e] = c
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
        out: Dict[Expo, Coeff] = {}
        for e, c in self.terms.items():
            for f, d in other.terms.items():
                g = _eadd(e, f)
                p = _cmul(c, d)
                if g in out:
                    s = _cadd(out[g], p)
                    if s[0] or s[1]:
                        out[g] = s
                    else:
                        del out[g]
                else:
                    out[g] = p
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
        r.terms = {_eadd(e, expo): c for e, c in self.terms.items()}
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
# gcd machinery (Gaussian integers, then recursive primitive PRS)
# ---------------------------------------------------------------------------

GInt = Tuple[int, int]


def _gi_mul(a: GInt, b: GInt) -> GInt:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gi_norm(a: GInt) -> int:
    return a[0] * a[0] + a[1] * a[1]


def _gi_divmod(a: GInt, b: GInt) -> Tuple[GInt, GInt]:
    n = _gi_norm(b)
    xr = a[0] * b[0] + a[1] * b[1]
    xi = a[1] * b[0] - a[0] * b[1]
    q = ((2 * xr + n) // (2 * n), (2 * xi + n) // (2 * n))
    r = (a[0] - (q[0] * b[0] - q[1] * b[1]), a[1] - (q[0] * b[1] + q[1] * b[0]))
    return q, r


def _gi_gcd(a: GInt, b: GInt) -> GInt:
    while b != (0, 0):
        _, r = _gi_divmod(a, b)
        a, b = b, r
    return a


def _to_gaussian_int_poly(p: LaurentPoly) -> Dict[Expo, GInt]:
    """Clear rational denominators; exponents are shifted to be nonnegative."""
    lcm = 1
    for c in p.terms.values():
        for fr in c:
            if fr.denominator != 1:
                lcm = lcm * fr.denominator // _int_gcd(lcm, fr.denominator)
    shift = p.min_exponents()
    out = {}
    for e, c in p.terms.items():
        out[_esub(e, shift)] = (int(c[0] * lcm), int(c[1] * lcm))
    return out


def _int_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def _poly_vars(terms: Dict[Expo, GInt]) -> Tuple[int, ...]:
    used = [False] * NVARS
    for e in terms:
        for i in range(NVARS):
            if e[i]:
                used[i] = True
    return tuple(i for i in range(NVARS) if used[i])


def _as_univariate(terms: Dict[Expo, GInt], var: int) -> Dict[int, Dict[Expo, GInt]]:
    out: Dict[int, Dict[Expo, GInt]] = {}
    for e, c in terms.items():
        d = e[var]
        rest = list(e)
        rest[var] = 0
        out.setdefault(d, {})[tuple(rest)] = c
    return out


def _from_univariate(coeffs: Dict[int, Dict[Expo, GInt]], var: int) -> Dict[Expo, GInt]:
    out: Dict[Expo, GInt] = {}
    for d, terms in coeffs.items():
        for e, c in terms.items():
            f = list(e)
            f[var] = d
            out[tuple(f)] = c
    return out


def _gp_mul(a: Dict[Expo, GInt], b: Dict[Expo, GInt]) -> Dict[Expo, GInt]:
    out: Dict[Expo, GInt] = {}
    for e, c in a.items():
        for f, d in b.items():
            g = _eadd(e, f)
            p = _gi_mul(c, d)
            if g in out:
                s = (out[g][0] + p[0], out[g][1] + p[1])
                if s == (0, 0):
                    del out[g]
                else:
                    out[g] = s
            else:
                out[g] = p
    return out


def _gp_sub(a: Dict[Expo, GInt], b: Dict[Expo, GInt]) -> Dict[Expo, GInt]:
    out = dict(a)
    for e, c in b.items():
        if e in out:
            s = (out[e][0] - c[0], out[e][1] - c[1])
            if s == (0, 0):
                del out[e]
            else:
                out[e] = s
        else:
            out[e] = (-c[0], -c[1])
    return out


def _gp_to_laurent(a: Dict[Expo, GInt]) -> LaurentPoly:
    return LaurentPoly({e: c for e, c in a.items()})


def _gp_gcd(a: Dict[Expo, GInt], b: Dict[Expo, GInt]) -> Dict[Expo, GInt]:
    """gcd in Z[i][vars] by primitive pseudo-remainder sequences."""
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    avars = set(_poly_vars(a)) | set(_poly_vars(b))
    if not avars:
        return {_ZEXP: _gi_gcd(next(iter(a.values())), next(iter(b.values())))}
    if len(a) > 1 and len(b) > 1:
        try:
            if _coprime_certificate(_gp_to_laurent(a), _gp_to_laurent(b),
                                    tuple(sorted(avars))):
                return {_ZEXP: (1, 0)}
        except EvalRetry:
            pass
    var = min(avars,
              key=lambda v: max(max((e[v] for e in a), default=0),
                                max((e[v] for e in b), default=0)))

    def content_and_primitive(terms):
        uni = _as_univariate(terms, var)
        cont: Optional[Dict[Expo, GInt]] = None
        for coeff in uni.values():
            cont = coeff if cont is None else _gp_gcd(cont, coeff)
            if len(cont) == 1 and _ZEXP in cont and _gi_norm(cont[_ZEXP]) == 1:
                break
        assert cont is not None
        prim = _gp_exact_div(terms, cont)
        return cont, prim

    ca, pa = content_and_primitive(a)
    cb, pb = content_and_primitive(b)
    cg = _gp_gcd(ca, cb)

    # primitive Euclid on the chosen variable, via pseudo-remainders
    while pb:
        da = max(e[var] for e in pa)
        db = max(e[var] for e in pb)
        if da < db:
            pa, pb = pb, pa
            da, db = db, da
        lb = _from_univariate({0: _as_univariate(pb, var)[db]}, var)
        rem = pa
        while rem and max(e[var] for e in rem) >= db:
            dr = max(e[var] for e in rem)
            lr = _from_univariate({0: _as_univariate(rem, var)[dr]}, var)
            mono = [0] * NVARS
            mono[var] = dr - db
            rem = _gp_sub(_gp_mul(rem, lb),
                          _gp_mul(_gp_mul(pb, lr), {tuple(mono): (1, 0)}))
        if rem:
            _, rem = content_and_primitive(rem)
        pa, pb = pb, rem
    return _gp_mul(cg, pa)


def _gp_exact_div(a: Dict[Expo, GInt], b: Dict[Expo, GInt]) -> Dict[Expo, GInt]:
    """Exact division a / b; b must divide a."""
    if len(b) == 1:
        (e, c), = b.items()
        out = {}
        for f, d in a.items():
            q, r = _gi_divmod(d, c)
            assert r == (0, 0), "non-exact coefficient division"
            out[_esub(f, e)] = q
        return out
    rem = dict(a)
    out: Dict[Expo, GInt] = {}
    eb = max(b)
    cb = b[eb]
    while rem:
        ea = max(rem)
        ca = rem[ea]
        q, r = _gi_divmod(ca, cb)
        assert r == (0, 0), "non-exact leading division"
        e = _esub(ea, eb)
        out[e] = q
        rem = _gp_sub(rem, _gp_mul(b, {e: q}))
    return out


def _univariate_gcd(a: LaurentPoly, b: LaurentPoly, var: int) -> LaurentPoly:
    """Primitive PRS over Z[i] for polynomials in a single variable."""
    def to_uni(p: LaurentPoly) -> Dict[int, GInt]:
        lcm = 1
        for c in p.terms.values():
            for fr in c:
                if fr.denominator != 1:
                    lcm = lcm * fr.denominator // _int_gcd(lcm, fr.denominator)
        return {e[var]: (int(c[0] * lcm), int(c[1] * lcm))
                for e, c in p.terms.items()}

    def primitive(f: Dict[int, GInt]) -> Dict[int, GInt]:
        g = (0, 0)
        for c in f.values():
            g = _gi_gcd(g, c)
            if _gi_norm(g) == 1:
                return f
        out = {}
        for d, c in f.items():
            q, _ = _gi_divmod(c, g)
            out[d] = q
        return out

    def pseudo_mod(f: Dict[int, GInt], g: Dict[int, GInt]) -> Dict[int, GInt]:
        dg = max(g)
        lg = g[dg]
        f = dict(f)
        while f and max(f) >= dg:
            df = max(f)
            lf = f[df]
            new: Dict[int, GInt] = {}
            for d, c in f.items():
                new[d] = _gi_mul(c, lg)
            for d, c in g.items():
                e = d + df - dg
                p = _gi_mul(c, lf)
                s = (new.get(e, (0, 0))[0] - p[0], new.get(e, (0, 0))[1] - p[1])
                if s == (0, 0):
                    new.pop(e, None)
                else:
                    new[e] = s
            f = primitive(new) if new else new
        return f

    fa, fb = primitive(to_uni(a)), primitive(to_uni(b))
    while fb:
        fa, fb = fb, pseudo_mod(fa, fb)
    out = {}
    for d, c in fa.items():
        e = [0] * NVARS
        e[var] = d
        out[tuple(e)] = c
    return LaurentPoly(out)


_CERT_PRIME: Optional[int] = None
_CERT_I: Optional[int] = None


def _certificate_setup() -> Tuple[int, int]:
    global _CERT_PRIME, _CERT_I
    if _CERT_PRIME is None:
        rng = random.Random(0x5CA1AB1E)
        _CERT_PRIME = random_prime(62, rng)
        _CERT_I = sqrt_minus_one(_CERT_PRIME, rng)
    return _CERT_PRIME, _CERT_I


def _coprime_certificate(a: LaurentPoly, b: LaurentPoly,
                         variables: Tuple[int, ...]) -> bool:
    """Deterministically certify gcd(a, b) = 1.

    For each variable v, evaluate all other variables at a modular point.  If
    the leading v-degrees survive and the univariate images are coprime mod p,
    no common factor can involve v.  True for every v forces a constant gcd.
    """
    p, i_val = _certificate_setup()
    rng = random.Random(0xACCE55)

    def image(poly: LaurentPoly, var: int, point: Dict[int, int]) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for e, c in poly.terms.items():
            val = (_frac_mod(c[0], p) + i_val * _frac_mod(c[1], p)) % p
            for j in range(NVARS):
                if j != var and e[j]:
                    val = val * pow(point[j], e[j], p) % p
            d = e[var]
            out[d] = (out.get(d, 0) + val) % p
            if out[d] == 0:
                del out[d]
        return out

    def uni_gcd_deg(f: Dict[int, int], g: Dict[int, int]) -> int:
        while g:
            dg = max(g)
            inv = pow(g[dg], p - 2, p)
            g = {d: c * inv % p for d, c in g.items()}
            f2 = dict(f)
            while f2 and max(f2) >= dg:
                df = max(f2)
                c = f2[df]
                for d, gc in g.items():
                    e = d + df - dg
                    s = (f2.get(e, 0) - c * gc) % p
                    if s:
                        f2[e] = s
                    elif e in f2:
                        del f2[e]
            f, g = g, f2
        return max(f)

    for var in variables:
        da = a.degree_in(var)
        db = b.degree_in(var)
        for _ in range(4):
            point = {j: rng.randrange(1, p) for j in range(NVARS)}
            fa = image(a, var, point)
            fb = image(b, var, point)
            if fa and fb and max(fa) == da and max(fb) == db:
                break
        else:
            return False
        if uni_gcd_deg(fa, fb) != 0:
            return False
    return True


def _poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """gcd as an ordinary polynomial (monomial content stripped from inputs)."""
    variables = tuple(sorted(set(a.variables()) | set(b.variables())))
    if not variables:
        return LaurentPoly.const(1)
    if len(variables) == 1:
        return _univariate_gcd(a, b, variables[0])
    try:
        if _coprime_certificate(a, b, variables):
            return LaurentPoly.const(1)
    except EvalRetry:
        pass
    ga = _to_gaussian_int_poly(a)
    gb = _to_gaussian_int_poly(b)
    g = _gp_gcd(ga, gb)
    return LaurentPoly(dict(g))


# ---------------------------------------------------------------------------
# cancellation: cyclotomic trial division, gcd fallback
# ---------------------------------------------------------------------------
#
# The seminormal denominators 1 - gamma_i/gamma_(i+1) and 1 - gamma_1^-2 are
# 1 - (unit)*u^m, so the denominators of the calibrated modules are products
# of the Q(i)-irreducible cyclotomic factors: Phi_m when 4 does not divide m,
# and for 4 | m the two halves of Phi_m whose roots z have z^(m/4) = i and
# z^(m/4) = -i.  Such a denominator is factored once, by exact trial
# division, and a numerator is cancelled against it by stripping those
# factors; removing every common irreducible factor is dividing by the gcd.
# Dense polynomials below are coefficient lists in u, lowest degree first.

_ZC = (0, 0)
CycloFactor = Tuple[GInt, ...]  # monic, Gaussian-integer coefficients
# factors with multiplicities, or None for a denominator of another kind
Factorization = Optional[Tuple[Tuple[CycloFactor, int], ...]]


def _dense_divmod(a: List[Coeff], f: Tuple[GInt, ...]) -> Tuple[List[Coeff], List[Coeff]]:
    """Quotient and remainder of `a` by the monic `f`."""
    df = len(f) - 1
    if len(a) <= df:
        return [], list(a)
    a = list(a)
    low = [(j, fr, fi) for j, (fr, fi) in enumerate(f[:df]) if fr or fi]
    q = [_ZC] * (len(a) - df)
    for base in range(len(a) - df - 1, -1, -1):
        c0, c1 = a[base + df]
        if not c0 and not c1:
            continue
        q[base] = (c0, c1)
        for j, fr, fi in low:
            x0, x1 = a[base + j]
            a[base + j] = (x0 - c0 * fr + c1 * fi, x1 - c0 * fi - c1 * fr)
    return q, a[:df]


def _divide_out(f: CycloFactor, a: List[Coeff]) -> Optional[List[Coeff]]:
    """a / f if f divides the nonzero `a`, else None."""
    q, r = _dense_divmod(a, f)
    return None if any(x0 or x1 for x0, x1 in r) else q


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


def _factor_cyclotomic(d: List[GInt]) -> Factorization:
    """Factor the monic `d` into Q(i)-irreducible cyclotomic factors with
    multiplicities, or None if it is not such a product."""
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
    # every m below 2*10^8, so m < 12*deg(d) reaches every factor that fits
    # (for degrees below 5000; a factor missed past that leaves a residual,
    # and the gcd path takes over).
    while len(d) > 1 and m < 12 * (len(d) - 1):
        for factor in _cyclotomic_factors(m):
            k = 0
            q = _divide_out(factor, d)
            while q is not None:
                d, k = q, k + 1
                q = _divide_out(factor, d)
            if k:
                out.append((factor, k))
        m += 1
    return tuple(out) if len(d) == 1 else None


_FACTOR_MEMO_MAX = 1024
_factor_memo: Dict[object, Factorization] = {}


def _cyclotomic_factorization(d: List[GInt]) -> Factorization:
    """Memoized :func:`_factor_cyclotomic`, bounded to the most recent
    `_FACTOR_MEMO_MAX` denominators."""
    flat = [x for c in d for x in c]
    try:
        key = bytes(x + 128 for x in flat)  # compact when coefficients are small
    except ValueError:
        key = tuple(flat)
    try:
        return _factor_memo[key]
    except KeyError:
        pass
    out = _factor_cyclotomic(d)
    if len(_factor_memo) >= _FACTOR_MEMO_MAX:
        del _factor_memo[next(iter(_factor_memo))]
    _factor_memo[key] = out
    return out


def _u_coefficients(d: LaurentPoly, scale: Optional[Coeff]) -> Optional[List[GInt]]:
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
    return out


def _monic(n: LaurentPoly, d: LaurentPoly) -> Tuple[LaurentPoly, LaurentPoly]:
    _, lc = d.leading()
    if lc != (_FR1, _FR0):
        inv = _cinv(lc)
        d = d.scale(inv)
        n = n.scale(inv)
    return n, d


def _cancel(n: LaurentPoly, d: LaurentPoly) -> Tuple[LaurentPoly, LaurentPoly]:
    """(n/g, d/g) for g = gcd(n, d), with d/g monic.

    n and d are ordinary polynomials with zero monomial content.  A
    denominator in u alone whose monic form is a product of Q(i)-irreducible
    cyclotomic factors is cancelled by stripping those factors from n; any
    other goes through :func:`_poly_gcd`."""
    _, lc = d.leading()
    inv = _cinv(lc) if lc != (_FR1, _FR0) else None
    dense = _u_coefficients(d, inv)
    factors = _cyclotomic_factorization(dense) if dense is not None else None
    if factors is None:
        g = _poly_gcd(n, d)
        if len(g.terms) > 1:
            n = _exact_poly_div(n, g)
            d = _exact_poly_div(d, g)
        return _monic(n, d)
    if inv is not None:
        n = n.scale(inv)
    # n as a polynomial in u over the other variables
    rows: Dict[Tuple[int, ...], Dict[int, Coeff]] = {}
    for e, c in n.terms.items():
        rows.setdefault(e[1:], {})[e[0]] = c
    groups = {r: [t.get(j, _ZC) for j in range(max(t) + 1)] for r, t in rows.items()}
    stripped = False
    for factor, k in factors:
        for _ in range(k):
            quotients = [_divide_out(factor, a) for a in groups.values()]
            if None in quotients:
                break
            groups = dict(zip(groups, quotients))
            dense, _ = _dense_divmod(dense, factor)
            stripped = True
    if not stripped:
        return n, (d if inv is None else d.scale(inv))
    num = LaurentPoly.__new__(LaurentPoly)
    num.terms = {(j,) + r: c for r, a in groups.items()
                 for j, c in enumerate(a) if c[0] or c[1]}
    den = LaurentPoly.__new__(LaurentPoly)
    den.terms = {(j, 0, 0, 0, 0): c for j, c in enumerate(dense) if c[0] or c[1]}
    return num, den


class Scalar:
    """Element of the coefficient field, kept in reduced canonical form."""

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: Optional[LaurentPoly] = None,
                 _normalized: bool = False):
        if den is None:
            den = LaurentPoly.const(1)
        if den.is_zero():
            raise ZeroDivisionError("scalar with zero denominator")
        if _normalized:
            self.num = num
            self.den = den
            return
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
        return self.den.is_one() and self.num.is_one()

    def is_monomial(self) -> bool:
        return self.den.is_one() and self.num.is_monomial()

    # -- arithmetic ----------------------------------------------------------
    def _coerce(other):
        if isinstance(other, int):
            return Scalar.from_int(other)
        if isinstance(other, Fraction):
            return Scalar(LaurentPoly.const(other), _normalized=True)
        return other

    def __add__(self, other: "Scalar") -> "Scalar":
        other = Scalar._coerce(other)
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        if self.den.is_one() and other.den.is_one():
            s = self.num + other.num
            if s.is_zero():
                return Scalar.zero()
            return Scalar(s, LaurentPoly.const(1), _normalized=True)
        if self.den == other.den:
            return Scalar(self.num + other.num, self.den)
        return Scalar(self.num * other.den + other.num * self.den,
                      self.den * other.den)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-Scalar._coerce(other))

    def __radd__(self, other) -> "Scalar":
        return Scalar._coerce(other) + self

    def __rsub__(self, other) -> "Scalar":
        return Scalar._coerce(other) - self

    def __rmul__(self, other) -> "Scalar":
        return Scalar._coerce(other) * self

    def __neg__(self) -> "Scalar":
        return Scalar(-self.num, self.den, _normalized=True)

    def __mul__(self, other: "Scalar") -> "Scalar":
        other = Scalar._coerce(other)
        if self.num.is_zero() or other.num.is_zero():
            return Scalar.zero()
        if self.den.is_one() and other.den.is_one():
            return Scalar(self.num * other.num, LaurentPoly.const(1),
                          _normalized=True)
        # cross-cancellation keeps the product reduced without a full gcd
        n1, d2 = _cross_reduce(self.num, other.den)
        n2, d1 = _cross_reduce(other.num, self.den)
        num, den = _monic(n1 * n2, d1 * d2)
        return Scalar(num, den, _normalized=True)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return self * Scalar._coerce(other).inv()

    def inv(self) -> "Scalar":
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        mono = self.num.min_exponents()
        num, den = _monic(self.den, self.num.shift(_esub(_ZEXP, mono)))
        return Scalar(num.shift(_esub(_ZEXP, mono)), den, _normalized=True)

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
        return hash((self.num, self.den))

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
        return Scalar(sub_poly(self.num), sub_poly(self.den))


def _cross_reduce(num: LaurentPoly, den: LaurentPoly) -> Tuple[LaurentPoly, LaurentPoly]:
    """Cancel the common factors of num's polynomial part and the monic den."""
    if den.is_one() or len(num.terms) == 1:
        return num, den
    mono = num.min_exponents()
    npoly, den = _cancel(num.shift(_esub(_ZEXP, mono)), den)
    return npoly.shift(mono), den


def _unit_pow(g: Coeff, n: int) -> Coeff:
    if n < 0:
        g = _cinv(g)
        n = -n
    out: Coeff = (_FR1, _FR0)
    for _ in range(n):
        out = _cmul(out, g)
    return out


def _normalize(num: LaurentPoly, den: LaurentPoly) -> Tuple[LaurentPoly, LaurentPoly]:
    if num.is_zero():
        return LaurentPoly.zero(), LaurentPoly.const(1)
    mn = num.min_exponents()
    md = den.min_exponents()
    n = num.shift(_esub(_ZEXP, mn))
    d = den.shift(_esub(_ZEXP, md))
    # both are ordinary polynomials with zero monomial content now
    if len(d.terms) > 1 and len(n.terms) > 1:
        n, d = _cancel(n, d)
    else:
        n, d = _monic(n, d)
    # fold the overall monomial into the (Laurent) numerator
    n = n.shift(_esub(mn, md))
    return n, d


def _exact_poly_div(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Exact division of Laurent polynomials (b divides a)."""
    if b.is_monomial():
        (e, c), = b.terms.items()
        inv = _cinv(c)
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = {_esub(f, e): _cmul(d, inv) for f, d in a.terms.items()}
        return out
    rem = a
    out = LaurentPoly.zero()
    eb, cb = b.leading()
    cbi = _cinv(cb)
    while not rem.is_zero():
        ea, ca = rem.leading()
        q = LaurentPoly.monomial(_esub(ea, eb), _cmul(ca, cbi))
        out = out + q
        rem = rem - b * q
    return out


# ---------------------------------------------------------------------------
# the named operations of the coefficient field
# ---------------------------------------------------------------------------

U = Scalar.var("u")
U0 = Scalar.var("u0")
UK = Scalar.var("uk")
A0 = Scalar.var("a0")
AK = Scalar.var("ak")
ONE = Scalar.one()
ZERO = Scalar.zero()
I = Scalar.i()

# exponent vectors of the base parameters, in half-units of t, t_0, t_k
BASE_EXPONENTS = {
    "t": (2, 0, 0, 0, 0),
    "t0": (0, 2, 0, 0, 0),
    "tk": (0, 0, 2, 0, 0),
    "u": (1, 0, 0, 0, 0),
    "u0": (0, 1, 0, 0, 0),
    "uk": (0, 0, 1, 0, 0),
}


def monomial_base(spec) -> Expo:
    """Exponent vector for a composite monomial like 't0*tk/t'."""
    if isinstance(spec, Scalar):
        if not spec.is_monomial():
            raise ScalarError("bb base must be a monomial")
        (e, c), = spec.num.terms.items()
        if c != (_FR1, _FR0):
            raise ScalarError("bb base must have coefficient 1")
        return e
    expo = [0] * NVARS
    text = str(spec).replace(" ", "")
    sign = 1
    token = ""
    for ch in text + "*":
        if ch in "*/":
            if token:
                name, _, pw = token.partition("^")
                if name not in BASE_EXPONENTS:
                    raise ScalarError("unknown base symbol %r" % name)
                p = int(pw) if pw else 1
                base = BASE_EXPONENTS[name]
                for j in range(NVARS):
                    expo[j] += sign * p * base[j]
            token = ""
            sign = -1 if ch == "/" else 1
        else:
            token += ch
    return tuple(expo)


def bb(base, s=1) -> Scalar:
    """The bracket x^(1/2) + x^(-1/2) for x = base**s.

    `base` is a monomial in t, t_0, t_k (a name like "t0*tk/t", an exponent
    vector, or a monomial Scalar); `s` may be any half-integer for which the
    half-power of base**s stays in the field.
    """
    if isinstance(base, tuple):
        e = base
    else:
        e = monomial_base(base)
    s = Fraction(s)
    half = [Fraction(x) * s / 2 for x in e]
    if any(h.denominator != 1 for h in half):
        raise ScalarError("half-power of %r^%s is not in the field" % (base, s))
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

def is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
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


def eval_mod(x: Scalar, p: int, point: Dict[str, int]) -> int:
    """Evaluate x at unit residues mod p; raises EvalRetry on a zero denominator."""
    i_val = point["i"]
    if i_val * i_val % p != p - 1:
        raise ScalarError("point['i'] is not a square root of -1 mod p")

    def eval_poly(poly: LaurentPoly) -> int:
        total = 0
        for e, c in poly.terms.items():
            term = (_frac_mod(c[0], p) + i_val * _frac_mod(c[1], p)) % p
            for var, name in enumerate(VAR_NAMES):
                if e[var]:
                    v = point[name] % p
                    if v == 0:
                        raise ScalarError("point assigns 0 to %s" % name)
                    term = term * pow(v, e[var], p) % p
            total = (total + term) % p
        return total

    den = eval_poly(x.den)
    if den == 0:
        raise EvalRetry("denominator vanished at the evaluation point")
    return eval_poly(x.num) * pow(den, p - 2, p) % p


def eval_complex(x: Scalar, point: Dict[str, complex]) -> complex:
    """Numeric evaluation at complex values of the variables (i maps to 1j)."""
    def poly(pp: LaurentPoly) -> complex:
        total = 0j
        for e, c in pp.terms.items():
            term = complex(c[0]) + 1j * complex(c[1])
            for var, name in enumerate(VAR_NAMES):
                if e[var]:
                    term *= point[name] ** e[var]
            total += term
        return total
    den = poly(x.den)
    if den == 0:
        raise ZeroDivisionError("denominator vanishes at the numeric point")
    return poly(x.num) / den


def _frac_mod(fr, p: int) -> int:
    if isinstance(fr, int):
        return fr % p
    d = fr.denominator % p
    if d == 0:
        raise EvalRetry("rational coefficient denominator divisible by p")
    return fr.numerator % p * pow(d, p - 2, p) % p


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
    lcm = 1
    for poly in (x.num, x.den):
        for c in poly.terms.values():
            for fr in c:
                if fr.denominator != 1:
                    lcm = lcm * fr.denominator // _int_gcd(lcm, fr.denominator)
    scale = (lcm, 0)
    num = x.num.scale(scale)
    den = x.den.scale(scale)
    g = 0
    for poly in (num, den):
        for c in poly.terms.values():
            g = _int_gcd(g, _int_gcd(abs(int(c[0])), abs(int(c[1]))))
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


class _Tok:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def take_name(self) -> str:
        self.peek()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum()
                                             or self.text[self.pos] == "_"):
            self.pos += 1
        return self.text[start:self.pos]

    def take_int(self) -> int:
        self.peek()
        start = self.pos
        if self.text.startswith(("+", "-"), self.pos):
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        try:
            return int(self.text[start:self.pos])
        except ValueError:
            raise ScalarError("expected an integer at %d in %r" % (start, self.text)) from None


def parse(text: str) -> Scalar:
    """Parse the grammar produced by :func:`render` (plus t, t0, tk sugar)."""
    tok = _Tok(text)
    val = _parse_sum(tok)
    if tok.peek():
        raise ScalarError("trailing input at %d in %r" % (tok.pos, text))
    return val


def _parse_sum(tok: _Tok) -> Scalar:
    total = _parse_product(tok)
    while tok.peek() and tok.peek() in "+-":
        op = tok.take()
        term = _parse_product(tok)
        total = total + term if op == "+" else total - term
    return total


def _parse_product(tok: _Tok) -> Scalar:
    val = _parse_atom(tok)
    while True:
        ch = tok.peek()
        if ch == "*":
            tok.take()
            val = val * _parse_atom(tok)
        elif ch == "/":
            tok.take()
            val = val / _parse_atom(tok)
        else:
            return val


_ATOM_SCALARS = {
    "u": ("u", 1), "u0": ("u0", 1), "uk": ("uk", 1),
    "a0": ("a0", 1), "ak": ("ak", 1),
    "t": ("u", 2), "t0": ("u0", 2), "tk": ("uk", 2),
}


def _parse_atom(tok: _Tok) -> Scalar:
    ch = tok.peek()
    if ch == "(":
        tok.take()
        val = _parse_sum(tok)
        if tok.take() != ")":
            raise ScalarError("expected ')'")
        return _parse_power(tok, val)
    if ch == "-":
        tok.take()
        return -_parse_atom(tok)
    if ch == "+":
        tok.take()
        return _parse_atom(tok)
    if ch.isdigit():
        n = tok.take_int()
        return _parse_power(tok, Scalar.from_int(n))
    name = tok.take_name()
    if not name:
        raise ScalarError("expected atom at %d" % tok.pos)
    if name == "i":
        return _parse_power(tok, Scalar.i())
    if name == "bb":
        if tok.take() != "(":
            raise ScalarError("bb requires '('")
        depth = 1
        start = tok.pos
        while depth:
            ch = tok.take()
            if not ch:
                raise ScalarError("unterminated bb(...)")
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
        inner = tok.text[start:tok.pos - 1]
        if "," in inner:
            base, s = inner.rsplit(",", 1)
            try:
                expo = Fraction(s.strip())
            except ValueError:
                raise ScalarError("bad bb exponent %r" % s) from None
            return _parse_power(tok, bb(base, expo))
        return _parse_power(tok, bb(inner))
    if name == "qint":
        if tok.take() != "(":
            raise ScalarError("qint requires '('")
        n = tok.take_int()
        if tok.take() != ")":
            raise ScalarError("qint requires ')'")
        return _parse_power(tok, qint(n))
    if name in _ATOM_SCALARS:
        var, mult = _ATOM_SCALARS[name]
        return _parse_power(tok, Scalar.var(var, mult))
    raise ScalarError("unknown symbol %r" % name)


def _parse_power(tok: _Tok, val: Scalar) -> Scalar:
    if tok.peek() == "^":
        tok.take()
        return val ** tok.take_int()
    return val


# ---------------------------------------------------------------------------
# JSON form
# ---------------------------------------------------------------------------

def _frac_out(fr):
    return fr.numerator if fr.denominator == 1 else "%d/%d" % (fr.numerator, fr.denominator)


def _frac_in(v):
    if isinstance(v, str):
        return Fraction(*map(int, v.split("/")))
    return int(v)


def _poly_to_json(p: LaurentPoly):
    rows = []
    for e in sorted(p.terms):
        c = p.terms[e]
        rows.append([_frac_out(c[0]), _frac_out(c[1]), *e])
    return rows


def _poly_from_json(rows) -> LaurentPoly:
    terms = {}
    for row in rows:
        re, im, *e = row
        terms[tuple(int(x) for x in e)] = (_frac_in(re), _frac_in(im))
    return LaurentPoly(terms)


def to_json(x: Scalar) -> dict:
    return {"num": _poly_to_json(x.num), "den": _poly_to_json(x.den)}


def from_json(obj) -> Scalar:
    if isinstance(obj, str):
        obj = json.loads(obj)
    return Scalar(_poly_from_json(obj["num"]), _poly_from_json(obj["den"]))
