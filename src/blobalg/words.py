"""Formal words in the Hecke-type generators and their diagram expansion.

A ``GenExpr`` is a Scalar-linear combination of words over the letters

    T0, T0^-1, Ti, Ti^-1 (1 <= i <= k-1), Tk, Tk^-1, E0, Ei, Ek, Wj (1 <= j <= k).

Every letter is a triple (kind, index, power): `T(i, power)`, `E(i)` and
`W(j)`.  The wall indices are the tokens "0" and "k", so an integer index
always means an inner letter.  All that depends on a T or E letter's index
is one table, `letter_data`: the eigenvalue x and the coefficient a with
T = a E + x (T^-1 = a E + 1/x), and the sign of E's diagram image.  The
walls carry their own u0, a0 and uk, ak; the inner letters share u and the
global sign `a` with a*a = 1, so that Ti -> (inner diagram) + u.  The
letter Wj of the commuting family expands once per (k, j) as its T-letter
word `murphy_word(k, j)`; a module reads it as its diagonal matrix W_j.
Words are never rewritten; all identities are checked after expanding into
the diagram algebra (or into module matrices).

`expand_to_tl` multiplies each word out from its right end.  The
wall-wrap words (Z*I1, Z*I2, ...) end in a cap, so every partial product
stays in the left ideal of that cap, spanned by the diagrams with its
bottom half, and a Murphy word W_j is never multiplied out on its own:
`suite_theorem3(7)` makes about 2,000 diagram products this way and
267,830 left to right.  The product is associative and its coefficients
exact and canonical, so the order changes no result.

The quotient relators F0, F0v (`f_element`) and the inner idempotent
numerator (`inner_numerator`) vanish in the diagram algebra; a calibrated
module is a module of the quotient exactly when they act by zero on it.

Text is read by the scalar reader with the letters and the named elements
as extra names; a Scalar operand of + - * is a multiple of the empty word.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from . import diagrams as dg
from .scalars import (A0, AK, ATOMS, ONE, Scalar, U, U0, UK, bb,
                      parse as parse_scalar)

Letter = Tuple
Word = Tuple[Letter, ...]

# sign of the cap generators' diagram images: E_i maps to A_SIGN * e_i
A_SIGN = -1


class WordError(ValueError):
    pass


def _index(i):
    """A T or E letter's index: "0", "k", or an inner index i >= 1, whose
    top k - 1 is checked against the word's k."""
    if i in ("0", "k") or isinstance(i, int) and i >= 1:
        return i
    raise WordError('letter index %r is not "0", "k" or an inner i >= 1' % (i,))


def T(i, power: int = 1) -> Letter:
    return ("T", _index(i), power)


def E(i) -> Letter:
    return ("E", _index(i), 1)


def W(j: int) -> Letter:
    return ("W", j, 1)


T0, T0inv, Tk, Tkinv = T("0"), T("0", -1), T("k"), T("k", -1)
E0, Ek = E("0"), E("k")

_WALLS = {"0": (U0, A0, ONE), "k": (UK, AK, ONE)}
_INNER = (U, Scalar.from_int(A_SIGN), Scalar.from_int(A_SIGN))


def letter_data(index) -> Tuple[Scalar, Scalar, Scalar]:
    """(x, a, sign) of the T and E letters with this index: T = a E + x has
    eigenvalues x and -1/x, and E's diagram image is sign times its cap/cup
    diagram."""
    return _WALLS.get(index, _INNER)


class GenExpr:
    """Finite Scalar-linear combination of generator words."""

    __slots__ = ("k", "terms")

    def __init__(self, k: int, terms: Optional[Dict[Word, Scalar]] = None):
        self.k = k
        self.terms: Dict[Word, Scalar] = {}
        if terms:
            for w, c in terms.items():
                _check_word(w, k)
                if not c.is_zero():
                    self.terms[w] = c

    @staticmethod
    def zero(k: int) -> "GenExpr":
        return GenExpr(k)

    @staticmethod
    def one(k: int) -> "GenExpr":
        return GenExpr(k, {(): ONE})

    @staticmethod
    def word(k: int, letters: Iterable[Letter], coeff: Scalar = None) -> "GenExpr":
        return GenExpr(k, {tuple(letters): coeff if coeff is not None else ONE})

    # A Scalar operand of + - * is a multiple of the empty word; a GenExpr
    # operand must have this expression's k.
    def _expr(self, other) -> "GenExpr":
        if not isinstance(other, GenExpr):
            return GenExpr(self.k, {(): other})
        if other.k != self.k:
            raise WordError("expressions of k=%d and k=%d combined" % (self.k, other.k))
        return other

    def __add__(self, other: "GenExpr") -> "GenExpr":
        r = GenExpr(self.k)
        r.terms = dg._sum_terms(self.terms, self._expr(other).terms)
        return r

    def __neg__(self) -> "GenExpr":
        r = GenExpr(self.k)
        r.terms = {w: -c for w, c in self.terms.items()}
        return r

    def __sub__(self, other: "GenExpr") -> "GenExpr":
        return self + (-self._expr(other))

    def __rsub__(self, other: Scalar) -> "GenExpr":
        return -self + other

    def __truediv__(self, other: Scalar) -> "GenExpr":
        return self.scale(other.inv())

    def __pow__(self, n: int) -> "GenExpr":
        """A power n >= 0, or the inverse of a single T letter."""
        if n == -1 and len(self.terms) == 1:
            (w, c), = self.terms.items()
            if len(w) == 1 and c.is_one():
                return GenExpr.word(self.k, [_invert_letter(w[0])])
        if n < 0:
            raise WordError("only a single T letter has a power -1")
        return _product(self.k, [self] * n)

    def __mul__(self, other: "GenExpr") -> "GenExpr":
        other = self._expr(other)
        out: Dict[Word, Scalar] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                c = c1 * c2
                if w in out:
                    s = out[w] + c
                    if s.is_zero():
                        del out[w]
                    else:
                        out[w] = s
                else:
                    out[w] = c
        r = GenExpr(self.k)
        r.terms = out
        return r

    # a Scalar commutes with every word
    __radd__ = __add__
    __rmul__ = __mul__

    def scale(self, c: Scalar) -> "GenExpr":
        if c.is_zero():
            return GenExpr(self.k)
        r = GenExpr(self.k)
        r.terms = {w: x * c for w, x in self.terms.items()}
        return r

    def __eq__(self, other) -> bool:
        return (isinstance(other, GenExpr) and self.k == other.k
                and self.terms == other.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "<GenExpr 0>"
        named = {"*".join(map(_letter_name, w)) or "1": c for w, c in self.terms.items()}
        return " + ".join("(%s)*%s" % (named[n], n) for n in sorted(named))


def _letter_name(letter: Letter) -> str:
    return "%s%s%s" % (letter[0], letter[1], "^-1" if letter[2] == -1 else "")


def _check_word(w: Word, k: int) -> None:
    for letter in w:
        kind, index, _ = letter
        if isinstance(index, int) and not 1 <= index <= (k if kind == "W" else k - 1):
            raise WordError("letter %s out of range for k=%d" % (_letter_name(letter), k))


# ---------------------------------------------------------------------------
# expansion into the diagram algebra
# ---------------------------------------------------------------------------

_letter_cache: Dict[Tuple[int, Letter], dg.TLElement] = {}


def letter_element(k: int, letter: Letter) -> dg.TLElement:
    key = (k, letter)
    if key in _letter_cache:
        return _letter_cache[key]
    kind, index, power = letter
    if kind == "W":
        el = expand_to_tl(murphy_expr(k, index))
    else:
        x, a, sign = letter_data(index)
        cap = (dg.e_diagram(k, index) if isinstance(index, int)
               else {"0": dg.e0_diagram, "k": dg.ek_diagram}[index](k))
        el = (dg.TLElement.from_diagram(cap, sign) if kind == "E" else
              dg.TLElement(k, {cap: a * sign, dg.identity_diagram(k): x ** power}))
    _letter_cache[key] = el
    return el


def expand_to_tl(x: GenExpr) -> dg.TLElement:
    """Substitute the generators by their diagram images and multiply out,
    each word from its right end."""
    total = dg.TLElement.zero(x.k)
    for w, c in x.terms.items():
        cur = dg.TLElement.one(x.k)
        for letter in reversed(w):
            cur = letter_element(x.k, letter) * cur
        total = total + cur.scale(c)
    return total


def verify_identity(lhs: GenExpr, rhs: GenExpr) -> Tuple[bool, dg.TLElement]:
    """Expand both sides to diagrams and compare; returns (equal, difference)."""
    if lhs.k != rhs.k:
        raise WordError("mismatched k")
    diff = expand_to_tl(lhs) - expand_to_tl(rhs)
    return diff.is_zero(), diff


# ---------------------------------------------------------------------------
# named elements
# ---------------------------------------------------------------------------

def murphy_word(k: int, j: int, inverse: bool = False) -> Word:
    """The commuting family member W_j, fully expanded into T-letters."""
    if not 1 <= j <= k:
        raise WordError("W_%d out of range for k=%d" % (j, k))
    w1: List[Letter] = [T(i, -1) for i in range(1, k)] + [Tk] \
        + [T(i) for i in range(k - 1, 0, -1)] + [T0]
    word = w1
    for m in range(2, j + 1):
        word = [T(m - 1)] + word + [T(m - 1)]
    if inverse:
        word = [_invert_letter(l) for l in reversed(word)]
    return tuple(word)


def _invert_letter(letter: Letter) -> Letter:
    if letter[0] != "T":
        raise WordError("letter %s is not invertible" % _letter_name(letter))
    return letter[:2] + (-letter[2],)


def murphy_expr(k: int, j: int, inverse: bool = False) -> GenExpr:
    return GenExpr.word(k, murphy_word(k, j, inverse))


def ae(k: int, i: int) -> GenExpr:
    """The cap/cup element a*e_i, whose diagram image carries coefficient 1."""
    return GenExpr.word(k, [E(i)], Scalar.from_int(A_SIGN))


def a0e0(k: int) -> GenExpr:
    return GenExpr.word(k, [E0], A0)


def _product(k: int, factors: Iterable[GenExpr]) -> GenExpr:
    out = GenExpr.one(k)
    for f in factors:
        out = out * f
    return out


def standard_element(name: str, k: int) -> GenExpr:
    """Named elements of the blob-algebra identities; see `STANDARD_NAMES`."""
    even = k % 2 == 0

    def e_run(start: int, stop: int) -> List[GenExpr]:
        return [ae(k, i) for i in range(start, stop + 1, 2)]

    if name == "I1":
        if even:
            return _product(k, e_run(1, k - 1))
        return _product(k, e_run(1, k - 2) + [GenExpr.word(k, [Ek])])
    if name == "I2":
        head = [GenExpr.word(k, [E0])]
        if even:
            return _product(k, head + e_run(2, k - 2) + [GenExpr.word(k, [Ek])])
        return _product(k, head + e_run(2, k - 1))
    if name == "Deven":
        if not even:
            raise WordError("Deven needs even k")
        i1 = standard_element("I1", k)
        mid = _product(k, [GenExpr.word(k, [T0inv])] + e_run(2, k - 2)
                       + [GenExpr.word(k, [Tk])])
        return i1 * mid * i1
    if name == "Dodd":
        if even or k < 3:
            raise WordError("Dodd needs odd k >= 3")
        i2 = standard_element("I2", k)
        mid = _product(k, [GenExpr.word(k, [T(1, -1), T0inv, T(1, -1)])]
                       + e_run(3, k - 2) + [GenExpr.word(k, [Tk])])
        return i2 * mid * i2
    if name in ("Leven", "Meven", "Peven"):
        if not even:
            raise WordError("%s needs even k" % name)
        i1 = standard_element("I1", k)
        mid = e_run(2, k - 2)
        if name == "Leven":
            mid = mid + [GenExpr.word(k, [Ek])]
        elif name == "Meven":
            mid = [GenExpr.word(k, [E0])] + mid
        return i1 * _product(k, mid) * i1
    if name in ("Lodd", "Modd", "Podd"):
        if even:
            raise WordError("%s needs odd k" % name)
        i2 = standard_element("I2", k)
        if name == "Lodd":
            mid = e_run(3, k - 2) + [GenExpr.word(k, [Ek])]
        elif name == "Modd":
            mid = e_run(1, k - 2)
        else:
            mid = e_run(3, k - 2)
        return i2 * _product(k, mid) * i2
    if name == "ZI1":
        return _z_expr(k) * standard_element("I1", k)
    if name == "ZI2":
        return _z_expr(k) * standard_element("I2", k)
    raise WordError("unknown standard element %r" % name)


STANDARD_NAMES = ("I1", "I2", "Deven", "Dodd", "Leven", "Meven", "Peven",
                  "Lodd", "Modd", "Podd", "ZI1", "ZI2")


def _z_expr(k: int) -> GenExpr:
    total = GenExpr.zero(k)
    for j in range(1, k + 1):
        total = total + murphy_expr(k, j) + murphy_expr(k, j, inverse=True)
    return total


def _letter(name: str) -> Optional[Letter]:
    """The generator letter named T0, Ti, Tk, E0, Ei or Ek, else None."""
    kind, idx = name[:1], name[1:]
    if kind not in ("T", "E") or not (idx == "k" or idx.isdigit() and len(idx) < 9):
        return None
    return (T if kind == "T" else E)(idx if idx == "k" else int(idx) or "0")


def parse_genexpr(text: str, k: int) -> GenExpr:
    """Read a generator expression with :func:`blobalg.scalars.parse`.
    Besides the scalar atoms, a name is a generator letter (T0, T3, Tk, E0,
    E2, Ek; a T letter also to the power -1) or a named element of
    `STANDARD_NAMES`, built only when the text uses it."""
    def resolve(name: str):
        if name in STANDARD_NAMES:
            return standard_element(name, k)
        letter = _letter(name)
        return GenExpr.word(k, [letter]) if letter else ATOMS.get(name)

    value = parse_scalar(text, resolve)
    return value if isinstance(value, GenExpr) else GenExpr.one(k).scale(value)


# ---------------------------------------------------------------------------
# the quotient relators
# ---------------------------------------------------------------------------

def f_element(which: str, k: int) -> GenExpr:
    """The boundary relator F0 = a e_1 (a0 e_0) a e_1 - [[t0/t]] a e_1, or
    its wall reflection F0v = a e_1 (W_1 T0^-1 - uk) a e_1 - [[tk/t]] a e_1,
    where W_1 T0^-1 - uk is ak e_0v."""
    ae1 = ae(k, 1)
    if which == "F0":
        return ae1 * a0e0(k) * ae1 - ae1.scale(bb("t0/t"))
    if which == "F0v":
        e0v = GenExpr.word(k, [W(1), T0inv]) - UK
        return ae1 * e0v * ae1 - ae1.scale(bb("tk/t"))
    raise WordError("unknown relator %r" % (which,))


def inner_numerator(k: int, i: int) -> GenExpr:
    """N p_i_111 for the inner idempotent p_i_111 on strands i, i+1, i+2
    (1 <= i <= k-2): T_i T_(i+1) T_i - u (T_i T_(i+1) + T_(i+1) T_i)
    + u^2 (T_i + T_(i+1)) - u^3."""
    if not 1 <= i <= k - 2:
        raise WordError("p_i_111 needs 1 <= i <= k-2")
    return GenExpr(k, {(T(i), T(i + 1), T(i)): ONE, (T(i), T(i + 1)): -U,
                       (T(i + 1), T(i)): -U, (T(i),): U * U, (T(i + 1),): U * U,
                       (): -U ** 3})
