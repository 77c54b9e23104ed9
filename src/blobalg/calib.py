"""Exact matrices for the calibrated modules on standard-filling bases.

Given a skew local region, the basis is its set of standard fillings.  The
commuting family acts diagonally by gamma = -t^(diagonal); the boundary and
inner generators act with the seminormal diagonal entries and an
off-diagonal pair normalized so the quadratic relations hold without square
roots: the entry out of the filling whose moved label sits on the lower
diagonal is 1, the return entry is the radicand of the textbook square root.
Both depend only on one local content and the boundary images, so
`_seminormal` computes each once for all modules, in a bounded cache.
The textbook symmetric form is stated exactly, without those roots:
`symmetric_form` returns the diagonal G with G T_i = T_i^t G, over the
exact field or over GF(p), and conjugating by G^(1/2) symmetrizes the T_i.

The boundary parameters are specialized on construction:

    u0 -> branch * i * u^(r2 - r1),    uk -> branch * i * u^(r1 + r2),

which realizes t_k^(1/2) t_0^(-1/2) = t^r1 and t_k^(1/2) t_0^(1/2) = -t^r2
exactly; the wall generator with index k is reconstructed from the commuting
family via T_{k-1} ... T_1 (W_1 T_0^-1) T_1^-1 ... T_{k-1}^-1.

Matrix arithmetic runs over a coefficient ring: `EXACT` (Scalars) or
`ModRing(p, point)`; a ring only reduces, compares with zero, builds rows
and lifts, and never divides.  A `ModRing` is the one owner of lifted
values: it keeps the residue of every `Scalar` it lifts, so each distinct
one is evaluated once however many modules read it.  `m.over(ring)` is
the module with its T and W lifted into the ring, in one `lift_many`
together with the shifts u - 1/u, u0 - 1/u0, uk - 1/uk and their
negatives; over Z/p the values not yet kept take one modular inverse
between them: `eval_mod` gives each numerator with its negative exponents
cleared, each distinct denominator factorization once and the residue of
each variable those exponents need, and the denominators and those
residues are inverted together.
One evaluator, `evaluate_word`, multiplies out generator words over the
module's ring, in the letters of `words`; the letter W(j) is the diagonal
W_j, and every T or E letter is built from its index's T matrix and the
one letter table `words.letter_data` (T_k, which only T_k^-1 and E_k
read, as the product of its word's letter matrices).  There is one
product path: a start row v times the word's letters, one sparse letter
at a time, T_k as its word, keeping v times each prefix; a whole matrix
is the unit rows e_0 .. e_(n-1) in turn.  Every matrix identity (a
relation, a relator against zero, I1 I2 I1 = b I1) is decided by
`_differing`, from the ring alone: over the exact ring as v lhs = v rhs
for every unit row v, that is, matrix equality; over Z/p as the numbers
v lhs w and v rhs w for one start row v and one end column w (`_value`).
The central character z is read off the diagonals of the W_i.

Each relation is a pair of generator expressions (`_relations`), which a
module satisfies when both evaluate to the same matrix: the quadratic
relation as X X^-1 = 1 over the inverse letter X - (lam - 1/lam) (for T_k
as X X = (uk - 1/uk) X + 1), C1 as T_i W_i = W_(i+1) T_i - (u - 1/u)
W_(i+1) and T_i W_(i+1) = W_i T_i + (u - 1/u) W_(i+1), and C2 multiplied
through by the diagonal unit W_1 as W_1 T_0 W_1 = T_0 + (u0 - 1/u0) W_1^2
+ (uk - 1/uk) W_1.  A presentation check runs on a fresh copy, exact or
lifted to Z/p, so it sees a change made to `m.T` after construction.

T_k = C X C^-1, with C = T_{k-1} ... T_1 and X = W_1 T_0^-1, is the one
dense matrix of a module, and a word applies it as the 2k letters of
C X C^-1, so the relations that hold it are decided on a shorter reduced
form without it (`_reduced`), rewritten from their own words:
H:Tk as X X = (uk - 1/uk) X + 1, ext:TkTi (i <= k-2) as
T_(i+1) X = X T_(i+1), ext:TkT0 as (T_1^-1 T_0 T_1) X = X (T_1^-1 T_0 T_1),
ext:W1word as X T_0 = W_1, and at k = 2 the right-wall braid ext:T1TkT1Tk
as T_1 X T_1 X = X T_1 X T_1; for k >= 3 that braid stays as written.
A check over a ring (exact, a CRT pass or a replay) reads the reduced
forms only when every relation without one passed in that ring, among
them T_i T_i^-1 = 1, and the word C^-1 is C inverted letter by letter, so
C^-1 is the inverse of C: then the braid and commutation relations give
T_i C = C T_(i+1) and let T_0 pass T_{k-1} ... T_2, and a reduced form is
its relation conjugated by the invertible C, or with C^-1 C cancelled.
So every relation holds on its reduced form exactly when it holds as
written; otherwise every relation is evaluated as written.  The report
lists the relations decided on their reduced form in `reduced`.

The modular check draws its trials (p_t, point_t) from the seed, then makes
one pass over Z/P, P the product of the trial primes, at the point that is
the CRT combination of the trial points: by the Chinese remainder theorem
that pass computes every trial's residues at once, so each trial keeps its
own Schwartz-Zippel bound (entry degree over p_t).  A trial whose point
leaves an entry's denominator without a value is discarded, and the next
draw takes its place in a later pass, as does a trial whose prime another
drew, since CRT combines coprime moduli only.  A relation that fails over P is
replayed at each trial's own prime, so a witness is a single-prime point.

Over Z/P a relation is decided as one number (Freivalds) instead of from
the n unit rows: each side D is evaluated as v D w, for the start row
v = (1, z, ..., z^(n-1)) and the end column w = (1, y, ..., y^(n-1)), z
and y the point's a0 and ak residues (`_value`: a word is v times every
letter but its last, dotted with the last letter times w).  No entry,
shift or relation coefficient of the presentation reads a0 or ak, so z
and y are uniform on [2, p_t - 2], independent of each other and of the
difference D of the two sides mod p_t.  v D vanishes only if z is a root
of every nonzero column polynomial sum_r D[r][c] z^r, of degree at most
n - 1, and a nonzero v D has v D w = 0 only if y is a root of the
polynomial sum_c (v D)[c] y^c, of degree at most n - 1.  So a relation
that fails mod p_t at the point is missed with probability at most
2(n - 1)/(p_t - 3), on top of the Schwartz-Zippel bound.  No draw is
added, and z and y mod p_t are the trial's own residues, so a witness
replays over `m.over(ModRing(p_t, point_t))`.

Idempotent nullity decides each quotient relator R against zero, and every
verdict is exact.  A non-vanishing R is certified by a nonzero number
v R w over one witness ring, Z/p for a 30-bit prime p at a point, both
drawn once per process from a fixed seed: evaluation at the point is a
ring homomorphism on everything it lifts, so a nonzero residue proves
R != 0, with no error bound.  A relator that reads zero there (or every
relator, where a lift raises `EvalRetry`) is proved vanishing, or not,
exactly from the unit rows.  The witness ring is one `ModRing` for the
process, so the modules of a chart evaluate each shared entry once.

A matrix is a list of rows, each row a dict {column: entry} holding only the
nonzero entries, reduced in the ring.  The W_i are diagonal and each T_i has
at most two nonzeros per column, so products cost per nonzero entry.  Entries
are canonical in both rings, so equal matrices compare equal with `==`;
`mat_entry` reads an entry that may be zero.
"""

from __future__ import annotations

import copy
import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import regions as rg
from . import words as wd
from .scalars import (A0, AK, EvalRetry, ONE, Scalar, U, U0, UK, VAR_INDEX, VAR_NAMES,
                      _ZEXP, _expand, _inv_mod, bb, eval_mod, qint, random_point,
                      random_prime)

Matrix = List[Dict[int, Scalar]]


class CalibError(ValueError):
    pass


# ---------------------------------------------------------------------------
# coefficient rings and the matrix helpers over them
# ---------------------------------------------------------------------------

class ExactRing:
    """The exact field of `Scalar`s: nothing to reduce, nothing to lift."""

    zero = Scalar.zero()
    one = ONE

    @staticmethod
    def reduce(x: Scalar) -> Scalar:
        return x

    @staticmethod
    def is_zero(x: Scalar) -> bool:
        return x.is_zero()

    @staticmethod
    def row(entries: dict) -> Dict[int, Scalar]:
        """A matrix row from {column: value}, zeros dropped."""
        return {j: v for j, v in entries.items() if not v.is_zero()}

    @staticmethod
    def lift(x: Scalar) -> Scalar:
        return x

    @staticmethod
    def lift_many(entries: Sequence[Scalar]) -> List[Scalar]:
        return list(entries)


EXACT = ExactRing()


_KEPT = 1 << 14  # the lifts a `ModRing` keeps before it drops them all


class ModRing:
    """Z/p, for p a prime or a product of distinct primes, with a `Scalar`
    lifted by evaluation at `point` (residues for the variables and for i).
    Matrix entries are kept reduced to 0..p-1.  Lifting a `Scalar` whose
    denominator has no value at the point raises `EvalRetry` carrying the
    residue.  The ring keeps the lift of every `Scalar` it lifts, so each
    distinct one is evaluated once, however many modules are lifted into
    it; the kept lifts are dropped once there are `_KEPT` of them."""

    zero = 0
    one = 1

    def __init__(self, p: int, point: Dict[str, int]):
        self.p = p
        self.point = point
        self._kept: Dict[Scalar, int] = {}

    def reduce(self, x: int) -> int:
        return x % self.p

    @staticmethod
    def is_zero(x: int) -> bool:
        return x == 0

    def row(self, entries: dict) -> Dict[int, int]:
        """A matrix row from {column: value}: values reduced, zeros dropped."""
        p = self.p
        return {j: r for j, v in entries.items() if (r := v % p)}

    def lift(self, x: Scalar) -> int:
        kept = self._kept
        v = kept.get(x)
        if v is None:
            if len(kept) >= _KEPT:
                kept.clear()
            v = kept[x] = eval_mod(x, self.p, self.point)
        return v

    def lift_many(self, entries: Sequence[Scalar]) -> List[int]:
        """`lift` of each entry, with one modular inverse for those not
        kept.  An entry is n / (q u^s) for polynomials n and q: q its
        denominator multiplied out, and u^s the monomial that clears the
        negative exponents of its numerator (in any variable).  `eval_mod`
        gives each n, each distinct factorization q once, and the residue
        of each variable that some s needs; the values of the q and those
        residues are inverted together (Montgomery's trick).  When their
        product is not a unit, the entries are lifted one by one in order,
        so the `EvalRetry` carries the residue that `lift` gives."""
        kept = self._kept
        if len(kept) >= _KEPT:
            kept.clear()
        new = list(dict.fromkeys(x for x in entries if x not in kept))
        if new:
            kept.update(zip(new, self._lift_together(new)))
        return [kept[x] for x in entries]

    def _lift_together(self, entries: List[Scalar]) -> List[int]:
        """The lifts of the distinct `entries`, none of them kept."""
        p, point = self.p, self.point
        try:
            dens: Dict[tuple, int] = {(): 1}  # factorization -> its value
            parts, needed = [], set()
            for x in entries:
                low = x.num.min_exponents() if x.num.terms else _ZEXP
                shift = tuple(-e if e < 0 else 0 for e in low)
                num = x.num.shift(shift) if any(shift) else x.num
                needed.update(v for v, e in enumerate(shift) if e)
                if x.den not in dens:
                    dens[x.den] = eval_mod(Scalar(_expand(x.den), _normalized=True), p, point)
                parts.append((eval_mod(Scalar(num, _normalized=True), p, point), x.den, shift))
            # the batch: each factorization, then each variable index
            keys = [*dens, *sorted(needed)]
            values = [*dens.values(), *(eval_mod(Scalar.var(VAR_NAMES[v]), p, point)
                                        for v in sorted(needed))]
            prefix = [1]
            for v in values:
                prefix.append(prefix[-1] * v % p)
            inv = _inv_mod(prefix[-1], p)
            inverse = {}
            for j in range(len(keys) - 1, -1, -1):
                inverse[keys[j]] = inv * prefix[j] % p
                inv = inv * values[j] % p
            scale = {}  # (factorization, shift) -> 1 / (q u^s)
            for _, q, shift in parts:
                if (q, shift) not in scale:
                    factor = inverse[q]
                    for v, e in enumerate(shift):
                        if e:
                            factor = factor * pow(inverse[v], e, p) % p
                    scale[q, shift] = factor
            return [n * scale[q, shift] % p for n, q, shift in parts]
        except EvalRetry:
            return [eval_mod(x, p, point) for x in entries]


def mat_entry(a: Matrix, r: int, c: int, ring=EXACT):
    """Entry (r, c) of `a`, which may be zero."""
    return a[r].get(c, ring.zero)


def mat_zero(n: int) -> Matrix:
    return [{} for _ in range(n)]


def mat_mul(a: Matrix, b: Matrix, ring=EXACT) -> Matrix:
    out = []
    for arow in a:
        acc = {}
        for i, x in arow.items():
            for j, y in b[i].items():
                acc[j] = acc[j] + x * y if j in acc else x * y
        out.append(ring.row(acc))
    return out


def mat_add(a: Matrix, b: Matrix, ring=EXACT) -> Matrix:
    out = []
    for ra, rb in zip(a, b):
        acc = dict(ra)
        for j, y in rb.items():
            acc[j] = acc[j] + y if j in acc else y
        out.append(ring.row(acc))
    return out


def mat_scale(a: Matrix, c, ring=EXACT) -> Matrix:
    return [ring.row({j: x * c for j, x in row.items()}) for row in a]


def mat_shift(a: Matrix, c, ring=EXACT) -> Matrix:
    """a - c*I."""
    out = []
    for i, row in enumerate(a):
        row = dict(row)
        d = ring.reduce(row.pop(i, ring.zero) - c)
        if not ring.is_zero(d):
            row[i] = d
        out.append(row)
    return out


def mat_diag(entries: Sequence, ring=EXACT) -> Matrix:
    return [ring.row({i: e}) for i, e in enumerate(entries)]


# ---------------------------------------------------------------------------
# module specification and construction
# ---------------------------------------------------------------------------

# the shifts x - 1/x: T - (x - 1/x) inverts a generator T with eigenvalues
# x and -1/x, for x = u (T_i), u0 (T_0) and uk (T_k)
_SHIFT = {x: x - x.inv() for x in (U, U0, UK)}


@functools.lru_cache(maxsize=1024)
def _specialize(x: Scalar, u0_img, uk_img) -> Scalar:
    if {VAR_INDEX["u0"], VAR_INDEX["uk"]}.isdisjoint(x.num.variables()):
        return x  # only a numerator holds u0 or uk
    return x.substitute_boundary(u0_img, uk_img)


@dataclass(frozen=True)
class ModuleSpec:
    region: rg.LocalRegion
    branch: int = 1

    def __post_init__(self):
        r1, r2 = self.region.params.r1, self.region.params.r2
        if (r2 - r1).denominator != 1 or (r2 + r1).denominator != 1:
            raise CalibError("specialization needs r2 - r1 and r2 + r1 integral")
        if self.branch not in (1, -1):
            raise CalibError("branch must be +1 or -1")
        unit = (0, self.branch)
        object.__setattr__(self, "_images", ((unit, int(r2 - r1)), (unit, int(r2 + r1))))

    def boundary_images(self):
        """The images (unit, exponent) of u0 and uk, computed once per spec."""
        return self._images

    def specialize(self, x: Scalar) -> Scalar:
        """x at the boundary images, once for all specs that share them."""
        return _specialize(x, *self._images)


@functools.lru_cache(maxsize=1024)
def _seminormal(kind: str, content: int, images) -> Tuple[Scalar, Scalar]:
    """The seminormal entries of T_0 (kind "T0") or T_i (kind "T") on a
    filling: the diagonal entry d, and the entry from the filling to its
    partner.  They depend only on the boundary images and the doubled
    local content, c = 2wc_1 for T_0 and c = 2wc_i - 2wc_(i+1) for T_i:

        T_0:  d = ((u0 - 1/u0) + (uk - 1/uk) / g_1) / (1 - g_1^-2),  g_1 = -u^c,
        T_i:  d = (u - 1/u) / (1 - u^c).

    The entry to the partner is 1 for c < 0, where the moved label sits on
    the lower diagonal, and the radicand -(d - lam)(d + 1/lam), lam = u0
    or u, for c > 0.  Both are computed once for all modules that share
    them."""
    if kind == "T0":
        lam = _specialize(U0, *images)
        g1i = -Scalar.monomial(u=-content)
        den = ONE - g1i * g1i
        if den.is_zero():
            raise CalibError("label 1 on the zero diagonal")
        d = (_specialize(_SHIFT[U0], *images) + _specialize(_SHIFT[UK], *images) * g1i) / den
    else:
        lam = U
        ratio = Scalar.monomial(u=content)
        if ratio.is_one():
            raise CalibError("coincident neighbor diagonals")
        d = _SHIFT[U] / (ONE - ratio)
    return d, -(d - lam) * (d + lam.inv()) if content > 0 else ONE


@functools.lru_cache(maxsize=1024)
def _gamma(content: int) -> Scalar:
    """gamma = -u^c for the doubled content c = 2wc, one object for all
    modules that share it."""
    return -Scalar.monomial(u=content)


class CalibratedModule:
    """Exact generator matrices on the standard-filling basis."""

    def __init__(self, spec: ModuleSpec):
        if spec.region.k < 1:  # no generator acts at k = 0
            raise CalibError("a module needs k >= 1, got k=0")
        self.spec = spec
        self.region = spec.region
        self.k = spec.region.k
        self.config = rg.build_config(spec.region)
        self.basis: List[rg.Filling] = rg.enumerate_fillings(self.config)
        if not self.basis:
            raise CalibError("region has no standard fillings")
        if not rg.is_skew(spec.region):
            raise CalibError("region is not skew")
        self.index = {w: i for i, w in enumerate(self.basis)}
        self.n = len(self.basis)
        self._wc = rg.filling_contents(self.config)
        self._images = spec.boundary_images()
        self.W = [self._w_matrix(i) for i in range(1, self.k + 1)]
        self.T = {i: self._t_matrix(i) for i in range(self.k)}
        self.ring = EXACT
        self._letters: Dict[wd.Letter, Matrix] = {}
        self._rows: Dict[wd.Word, Matrix] = {}  # v times each prefix, () -> [v]
        self._columns: Dict[wd.Letter, list] = {}  # each letter times w, () -> w

    def over(self, ring) -> "CalibratedModule":
        """A copy with no letters built whose T and W are the module's as they
        are now, lifted into `ring` by one `lift_many` together with the
        shifts u - 1/u, u0 - 1/u0 and uk - 1/uk and their negatives, which
        the relations read, specialized at the images the spec computed
        once.  Over Z/p the ring keeps what it lifts, so each distinct
        entry is evaluated once, and `_coeff` reads the shifts back from the
        ring; lifting is the only step of the copy's evaluation that can
        raise `EvalRetry`."""
        mats = (*self.T.values(), *self.W)
        shifts = [self.spec.specialize(x) for x in _SHIFT.values()]
        values = iter(ring.lift_many([x for mat in mats for row in mat for x in row.values()]
                                     + shifts + [-x for x in shifts]))
        lifted = [[ring.row({j: next(values) for j in row}) for row in mat] for mat in mats]
        out = copy.copy(self)
        out.ring = ring
        out.T = dict(zip(self.T, lifted))
        out.W = lifted[len(self.T):]
        out._letters, out._rows, out._columns = {}, {}, {}
        return out

    def _coeff(self, c: Scalar):
        """The coefficient c at the boundary parameters, lifted into the
        ring, which keeps it over Z/p."""
        return self.ring.lift(self.spec.specialize(c))

    # -- gamma data ----------------------------------------------------------
    def gamma(self, m: int, label: int) -> Scalar:
        """gamma_label = -u^(2 wc_label) on filling m, label 1..k."""
        return _gamma(self._wc[m][label - 1])

    def _w_matrix(self, i: int) -> Matrix:
        return mat_diag([self.gamma(m, i) for m in range(self.n)])

    # -- generator matrices ---------------------------------------------------
    def _t_matrix(self, i: int) -> Matrix:
        """Seminormal T_i (T_0 for i = 0) with eigenvalues lam and -1/lam:
        on each filling the diagonal entry, and the off-diagonal pair to the
        filling with labels i, i+1 swapped (label 1 negated for T_0): 1 out
        of the filling whose moved label sits on the lower diagonal and the
        radicand back."""
        out = mat_zero(self.n)
        for m, w in enumerate(self.basis):
            out[m][m], partner = self._t_entries(m, i)
            pm = self.index.get(_flip_label_one(w) if i == 0 else _swap_labels(w, i))
            if pm is not None:
                out[pm][m] = partner
        return [EXACT.row(row) for row in out]

    def _t_entries(self, m: int, i: int) -> Tuple[Scalar, Scalar]:
        """`_seminormal` at filling m, whose error names the filling."""
        wc = self._wc[m]
        content = wc[0] if i == 0 else wc[i - 1] - wc[i]
        try:
            return _seminormal("T0" if i == 0 else "T", content, self._images)
        except CalibError as exc:
            raise CalibError("%s at %s" % (exc, self.basis[m])) from None

    # -- words ----------------------------------------------------------------
    def t_inv(self, i: int) -> Matrix:
        return self._letter(wd.T(i or "0", -1))

    def tk_matrix(self) -> Matrix:
        """T_k via conjugating W_1 T_0^-1 back to the right wall."""
        return self._letter(wd.Tk)

    def tk_inv(self) -> Matrix:
        return self._letter(wd.Tkinv)

    def e_matrix(self, which) -> Matrix:
        """Images of the abstract cap/cup generators e_0, e_i, e_k."""
        return self._letter({"e0": wd.E0, "ek": wd.Ek}.get(which) or wd.E(int(which)))

    def _letter(self, letter) -> Matrix:
        """A letter's matrix, built once per module: W_j, and for a T or E
        letter from its index's T (T_k as the product of its word's letter
        matrices, `_tk_word`) and `words.letter_data`: T^-1 = T - (x - 1/x)
        and E = (T - x) / a."""
        if letter in self._letters:
            return self._letters[letter]
        kind, index, power = letter
        ring = self.ring
        if kind == "W":
            mat = self.W[index - 1]
        else:
            x, a, _ = wd.letter_data(index)
            if index == "k":
                base = functools.reduce(lambda a, b: mat_mul(a, b, ring),
                                        map(self._letter, _tk_word(self.k)))
            else:
                base = self.T[int(index)]
            if kind == "E":
                mat = mat_scale(mat_shift(base, self._coeff(x), ring), self._coeff(a.inv()), ring)
            elif power == 1:
                mat = base
            else:
                mat = mat_shift(base, self._coeff(_SHIFT[x]), ring)
        self._letters[letter] = mat
        return mat

    def evaluate_word(self, expr: wd.GenExpr, row: Optional[Dict[int, Scalar]] = None) -> Matrix:
        """The start row `row` {column: entry} times the linear combination
        of word products of generator matrices, over the module's ring, as
        a one-row matrix; with no row, the unit rows e_0 .. e_(n-1) in turn,
        stacked into the whole matrix.  The result may share rows with the
        letters and the prefix memo: copy it before changing it."""
        if expr.k != self.k:
            raise CalibError("expression k=%d on module k=%d" % (expr.k, self.k))
        ring = self.ring
        if row is None:
            return [r for j in range(self.n) for r in self.evaluate_word(expr, {j: ring.one})]
        total = None
        for word, coeff in expr.terms.items():
            mat = self._word_matrix(word, row)
            if not coeff.is_one():
                mat = mat_scale(mat, self._coeff(coeff), ring)
            total = mat if total is None else mat_add(total, mat, ring)
        return [{}] if total is None else total

    def _word_matrix(self, word: tuple, start: Dict[int, Scalar]) -> Matrix:
        """The one-row matrix v times the product of the word's letter
        matrices, for the start row v: from v one sparse letter at a time,
        T_k as its word `_tk_word`, so no product has more than one row and
        no word builds T_k.  The module keeps v times each prefix it
        multiplied out, and a word starts from the longest one kept, as
        long as v stays the same."""
        if self._rows.get(()) != [start]:
            self._rows = {(): [dict(start)]}
        memo = self._rows
        word = _spelled(word, self.k)
        j = len(word)
        while word[:j] not in memo:
            j -= 1
        mat = memo[word[:j]]
        for j in range(j, len(word)):
            mat = mat_mul(mat, self._letter(word[j]), self.ring)
            memo[word[:j + 1]] = mat
        return mat

    def _value(self, expr: wd.GenExpr, start: dict, column: list):
        """The number v expr w, for the start row v {column: entry} and the
        end column w (a list of n entries), reduced in the ring once: each
        word is v times every letter but its last, from the prefix memo of
        `_word_matrix`, dotted with the last letter times w, which the
        module keeps once per letter for as long as w stays the same."""
        if self._columns.get(()) != column:
            self._columns = {(): column}
        columns, ring, total = self._columns, self.ring, self.ring.zero
        for word, coeff in expr.terms.items():
            word = _spelled(word, self.k)
            if word and word[-1] not in columns:
                columns[word[-1]] = [ring.reduce(sum(x * column[j] for j, x in row.items()))
                                     for row in self._letter(word[-1])]
            end = columns[word[-1] if word else ()]
            dot = sum(x * end[j] for j, x in self._word_matrix(word[:-1], start)[0].items())
            total += dot if coeff.is_one() else self._coeff(coeff) * dot
        return ring.reduce(total)


def _tk_word(k: int) -> wd.Word:
    """T_k's word C X C^-1, the product of `_tk_factors`."""
    return sum(_tk_factors(k), ())


def _spelled(word: wd.Word, k: int) -> wd.Word:
    """The word with each letter T_k written as its word `_tk_word`."""
    if wd.Tk not in word:
        return word
    tk = _tk_word(k)
    return tuple(x for letter in word for x in (tk if letter == wd.Tk else (letter,)))


def symmetric_form(m: CalibratedModule, ring=EXACT):
    """The diagonal G with G T_i = T_i^t G for i = 0..k-1, one (numerator,
    denominator) pair over `ring` per filling, or None when no invertible
    diagonal G exists; conjugating by G^(1/2) symmetrizes the T_i.

    Along a spanning forest of the nonzero off-diagonal entries, g_b =
    g_a T[a][b] / T[b][a] is kept as a pair, so nothing is inverted; then
    every entry must satisfy N_a D_b T[a][b] = T[b][a] N_b D_a.  The zero
    pattern is read from the exact matrices, so over GF(p) None is certain
    and only a form can be wrong (where an entry vanishes at the point).
    Over GF(p) the ring keeps each entry it lifts, so each is lifted once."""
    if any(a not in t[b] for t in m.T.values() for a, row in enumerate(t) for b in row):
        return None
    edges = [[(b, ring.lift(x), ring.lift(t[b][a])) for t in m.T.values()
              for b, x in t[a].items() if b != a] for a in range(m.n)]
    form: list = [None] * m.n
    for root in range(m.n):
        if form[root] is None:
            form[root], stack = (ring.one, ring.one), [root]
            while stack:
                a = stack.pop()
                na, da = form[a]
                for b, tab, tba in edges[a]:
                    if form[b] is None:
                        form[b] = (ring.reduce(na * tab), ring.reduce(da * tba))
                        stack.append(b)
                    nb, db = form[b]
                    if ring.reduce(na * db * tab) != ring.reduce(tba * nb * da):
                        return None
    return form


def _swap_labels(filling: rg.Filling, i: int) -> rg.Filling:
    swap = {i: i + 1, i + 1: i, -i: -(i + 1), -(i + 1): -i}
    return tuple(swap.get(v, v) for v in filling)


def _flip_label_one(filling: rg.Filling) -> rg.Filling:
    return tuple(-v if abs(v) == 1 else v for v in filling)


def build_module(spec: ModuleSpec) -> CalibratedModule:
    return CalibratedModule(spec)


# ---------------------------------------------------------------------------
# presentation checking
# ---------------------------------------------------------------------------

@functools.cache
def _relations(k: int) -> Tuple[Tuple[str, wd.GenExpr, wd.GenExpr], ...]:
    """The named relations as (name, lhs, rhs) generator expressions over the
    letters T_0, T_i, T_k, their inverses and the diagonal W_j; a module
    satisfies one when both sides evaluate to the same matrix."""
    def w(*letters):
        return wd.GenExpr.word(k, letters)

    def t(i):
        return wd.T(i or "0")

    def commute(a, b):
        return w(a, b), w(b, a)

    fu, f0, fk = _SHIFT[U], _SHIFT[U0], _SHIFT[UK]
    rels = []
    for i in range(1, k - 1):
        rels.append(("B1:T%dT%dT%d" % (i, i + 1, i),
                     w(t(i), t(i + 1), t(i)), w(t(i + 1), t(i), t(i + 1))))
    for i in range(1, k):
        for j in range(i + 2, k):
            rels.append(("B1:T%dT%d" % (i, j), *commute(t(i), t(j))))
        if i >= 2:
            rels.append(("B1:T0T%d" % i, *commute(t(0), t(i))))
    if k >= 2:
        rels.append(("B1:T0T1T0T1", w(t(0), t(1), t(0), t(1)), w(t(1), t(0), t(1), t(0))))
    for i in range(0, k):
        for j in range(1, k + 1):
            if i == 0 and j != 1:
                rels.append(("B3:T0W%d" % j, *commute(t(0), wd.W(j))))
            if i >= 1 and j not in (i, i + 1):
                rels.append(("B4:T%dW%d" % (i, j), *commute(t(i), wd.W(j))))
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            rels.append(("B2:W%dW%d" % (i, j), *commute(wd.W(i), wd.W(j))))
    # the quadratic relations (X - x)(X + 1/x) = 0 as X X^-1 = 1 over the
    # inverse letter X - (x - 1/x); T_k's as X X = (x - 1/x) X + 1, which
    # `_reduced` rewrites letter by letter
    rels.append(("H:T0", w(t(0), wd.T0inv), wd.GenExpr.one(k)))
    for i in range(1, k):
        rels.append(("H:T%d" % i, w(t(i), wd.T(i, -1)), wd.GenExpr.one(k)))
    rels.append(("H:Tk", w(wd.Tk, wd.Tk), fk * w(wd.Tk) + ONE))
    for i in range(1, k):
        rels.append(("C1:T%dW%d" % (i, i), w(t(i), wd.W(i)),
                     w(wd.W(i + 1), t(i)) - fu * w(wd.W(i + 1))))
        rels.append(("C1:T%dW%d" % (i, i + 1), w(t(i), wd.W(i + 1)),
                     w(wd.W(i), t(i)) + fu * w(wd.W(i + 1))))
    # T_0 W_1 = W_1^-1 T_0 + (u0 - 1/u0) W_1 + (uk - 1/uk), times W_1 on
    # the left
    rels.append(("C2:T0W1", w(wd.W(1), t(0), wd.W(1)),
                 w(t(0)) + f0 * w(wd.W(1), wd.W(1)) + fk * w(wd.W(1))))
    # wall-generator consistency
    if k >= 2:
        rels.append(("ext:T%dTkT%dTk" % (k - 1, k - 1),
                     w(t(k - 1), wd.Tk, t(k - 1), wd.Tk),
                     w(wd.Tk, t(k - 1), wd.Tk, t(k - 1))))
    for i in range(1, k - 1):
        rels.append(("ext:TkT%d" % i, *commute(t(i), wd.Tk)))
    if k >= 2:
        rels.append(("ext:TkT0", *commute(t(0), wd.Tk)))
    # W_1 = T_1^-1 ... T_{k-1}^-1 T_k T_{k-1} ... T_1 T_0
    rels.append(("ext:W1word", wd.murphy_expr(k, 1), w(wd.W(1))))
    return tuple(rels)


@functools.cache
def _relators(k: int) -> Tuple[Tuple[str, wd.GenExpr, wd.GenExpr], ...]:
    """The quotient relators of `words` as identities (name, relator, 0):
    the inner idempotent numerators p_i_111, and F0 and F0v for k >= 2."""
    relators = [("p_%d_111" % i, wd.inner_numerator(k, i)) for i in range(1, k - 1)]
    if k >= 2:
        relators += [("p0_pair", wd.f_element("F0", k)), ("p0v_pair", wd.f_element("F0v", k))]
    zero = wd.GenExpr.zero(k)
    return tuple((name, expr, zero) for name, expr in relators)


def _reduced(k: int, lhs: wd.GenExpr, rhs: wd.GenExpr):
    """The relation lhs = rhs rewritten without the dense T_k, as a pair of
    expressions; None for a relation without T_k, or one that neither
    rewrite clears of it.  With C = T_{k-1} ... T_1, X = W_1 T_0^-1 and
    T_k = C X C^-1:

    - each C^-1 T_k C in a word becomes X, so the W_1 word
      C^-1 T_k C T_0 = W_1 becomes X T_0 = W_1;
    - else both sides are conjugated by C, letter by letter: T_k -> X,
      T_i -> T_(i+1) for i <= k-2 (T_i C = C T_(i+1) by the braid and
      commutation relations), T_1 -> T_1 at k = 2, where C = T_1, and
      T_0 -> T_1^-1 T_0 T_1 (T_0 commutes with T_j for j >= 2); so H:Tk
      becomes X X = (uk - 1/uk) X + 1, and T_k commuting with T_i or T_0,
      or at k = 2 braiding with T_1, the same relation of X with its image.

    The rewrites read the relation's own words and coefficients, so the
    reduced form is that of the relation as written."""
    words = [w for side in (lhs, rhs) for w in side.terms]
    if not any(wd.Tk in w for w in words):
        return None
    c, x, c_inv = _tk_factors(k)
    wall = c_inv + (wd.Tk,) + c
    image = {wd.Tk: x, wd.T0: (wd.T(1, -1), wd.T0, wd.T(1)),
             **{wd.T(i): (wd.T(i + 1),) for i in range(1, k - 1)}}
    if k == 2:
        image[wd.T(1)] = (wd.T(1),)  # C = T_1 commutes with itself

    def unwrap(word):
        out, j = (), 0
        while j < len(word):
            if word[j:j + len(wall)] == wall:
                out, j = out + x, j + len(wall)
            else:
                out, j = out + word[j:j + 1], j + 1
        return out

    def conjugate(word):
        return sum((image[letter] for letter in word), ())

    if not any(wd.Tk in unwrap(w) for w in words):
        rewrite = unwrap
    elif all(letter in image for w in words for letter in w):
        rewrite = conjugate
    else:
        return None

    def side(expr):
        out = wd.GenExpr.zero(k)
        for word, coeff in expr.terms.items():
            out = out + wd.GenExpr.word(k, rewrite(word), coeff)
        return out

    return side(lhs), side(rhs)


def _tk_factors(k: int) -> Tuple[wd.Word, wd.Word, wd.Word]:
    """The words C = T_{k-1} ... T_1, X = W_1 T_0^-1 and
    C^-1 = T_1^-1 ... T_{k-1}^-1 that the reduced forms take T_k to be
    the product of."""
    return (tuple(wd.T(i) for i in range(k - 1, 0, -1)), (wd.W(1), wd.T0inv),
            tuple(wd.T(i, -1) for i in range(1, k)))


def _differing(m: CalibratedModule, identities) -> set:
    """The names of the identities (name, lhs, rhs) whose two sides differ
    on m.  Over the exact ring, from some unit row e_r: e_r lhs != e_r rhs,
    that is, as matrices.  Over a `ModRing` (Freivalds), as the numbers
    v lhs w and v rhs w (`_value`), for the start row v = (1, z, ...,
    z^(n-1)) and the end column w = (1, y, ..., y^(n-1)), z and y the
    point's a0 and ak residues.  The start rows are the outer loop, so the
    words evaluated from one v share its prefixes; an identity that failed
    is not evaluated again."""
    ring = m.ring
    if isinstance(ring, ModRing):
        z, y = ring.point["a0"], ring.point["ak"]
        starts = [ring.row({j: pow(z, j, ring.p) for j in range(m.n)})]
        column = [pow(y, j, ring.p) for j in range(m.n)]

        def side(expr, v):
            return m._value(expr, v, column)
    else:
        starts = ({j: ring.one} for j in range(m.n))
        side = m.evaluate_word
    failed = set()
    for v in starts:
        for name, lhs, rhs in identities:
            if name not in failed and side(lhs, v) != side(rhs, v):
                failed.add(name)
    return failed


def _failing(m: CalibratedModule) -> Tuple[List[str], List[str]]:
    """The names of the relations that fail on m, in order, and of those
    decided on their reduced form (`_reduced`); each relation is evaluated
    once, as written or reduced.

    The reduced forms are read only when every relation without one passed
    on m, and the word C^-1 of `_tk_factors` is its C inverted letter by
    letter.  The relations that passed include H:T_i, T_i T_i^-1 = 1, so
    C^-1 is the inverse of C, and the braid and commutation relations carry
    T_i and T_0 through C: as matrices, every relation fails on its reduced
    form exactly when it fails as written.
    Otherwise every relation is evaluated as written, and none is
    reduced.

    Exactly, each relation is decided from every unit row.  Over Z/P each
    side D of it is decided as the one number v D w, for the start row
    v = (1, z, ..., z^(n-1)) and the end column w = (1, y, ..., y^(n-1)),
    z and y the point's a0 and ak residues, which no entry, shift or
    coefficient of the presentation reads; a relation that fails mod p_t
    is missed with probability at most 2(n - 1)/(p_t - 3)."""
    k = m.k
    rels = _relations(k)
    reduced = {name: _reduced(k, lhs, rhs) for name, lhs, rhs in rels}
    failed = _differing(m, [rel for rel in rels if reduced[rel[0]] is None])
    c, _, c_inv = _tk_factors(k)
    use = not failed and c_inv == tuple((kind, i, -power) for kind, i, power in c[::-1])
    rest = [(name, *reduced[name]) if use else (name, lhs, rhs)
            for name, lhs, rhs in rels if reduced[name] is not None]
    failed |= _differing(m, rest)
    return ([name for name, _, _ in rels if name in failed],
            [name for name, form in reduced.items() if use and form is not None])


EXACT_MAX_K = 2  # presentations up to this k are checked exactly by default
_ATTEMPTS = 20  # consecutive unusable points before the check gives up
# primes per pass: a product modulo P costs more than linearly in the size
# of P, so past about ten 62-bit primes a pass costs more per trial
_PASS_PRIMES = 10


def _crt_ring(cands: Sequence[Tuple[int, Dict[str, int]]]) -> ModRing:
    """Z/P for P the product of the candidates' distinct primes, at the
    point that reduces to each candidate's point mod its prime."""
    big = math.prod(p for p, _ in cands)
    basis = [(big // p) * pow(big // p, -1, p) for p, _ in cands]
    point = {name: sum(pt[name] * e for (_, pt), e in zip(cands, basis)) % big
             for name in cands[0][1]}
    return ModRing(big, point)


def _modular_trials(m: CalibratedModule, trials: int, rng: random.Random,
                    prime_bits: int):
    """The first `trials` usable (p, point) candidates drawn from rng, the
    number of unusable ones drawn before them, for each usable one the
    relations that failed over its pass (a superset of its own failures),
    and the relations that every pass decided on their reduced form.

    Candidates wait in draw order; each pass checks together the next
    waiting ones, at most `_PASS_PRIMES` with distinct primes.  An
    `EvalRetry` in a pass discards those of its candidates whose primes
    divide the residue, the others wait on, and the next draws take the
    discarded ones' places, so no pass runs twice.  A candidate is usable
    exactly when its own single-prime check raises no `EvalRetry`, so these
    are the points a trial-by-trial loop keeps, however they are grouped."""
    drawn: List[Tuple[int, Dict[str, int]]] = []
    pending: List[int] = []
    failing: Dict[int, List[str]] = {}
    bad, reduced = set(), []
    while len(failing) < trials:
        while len(failing) + len(pending) < trials:
            p = random_prime(prime_bits, rng)
            drawn.append((p, random_point(p, rng)))
            pending.append(len(drawn) - 1)
        group: Dict[int, int] = {}  # prime -> candidate
        for j in pending:
            if len(group) == _PASS_PRIMES:
                break
            group.setdefault(drawn[j][0], j)
        try:
            fails, names = _failing(m.over(_crt_ring([drawn[j] for j in group.values()])))
        except EvalRetry as exc:
            bad.update(j for p, j in group.items() if exc.residue % p == 0)
            if any(bad.issuperset(range(j, j + _ATTEMPTS)) for j in range(len(drawn))):
                raise CalibError("could not find a usable evaluation point")
        else:
            failing.update(dict.fromkeys(group.values(), fails))
            reduced.append(names)
        pending = [j for j in pending if j not in bad and j not in failing]
    usable = sorted(failing)
    return ([drawn[j] for j in usable], len(bad), [failing[j] for j in usable],
            [name for name in reduced[0] if all(name in r for r in reduced)])


def _replay_witness(m: CalibratedModule, points, suspects):
    """The first failing relation at the first failing trial, found by
    checking again, at its own prime and point, each trial whose pass had
    failures: its own failures are among them, since a relation that
    fails mod p fails mod every multiple of p (up to the miss bound of
    `check_presentation` where the pass decided a relation as written and
    the replay on its reduced form)."""
    for trial, ((p, point), names) in enumerate(zip(points, suspects)):
        if names:
            failing, _ = _failing(m.over(ModRing(p, point)))
            if failing:
                return dict(relation=failing[0], p=p, trial=trial, point=point)
    return None


def check_presentation(m: CalibratedModule, trials: int = 10,
                       exact: Optional[bool] = None,
                       seed: int = 0, prime_bits: int = 62) -> dict:
    """Verify the defining relations as matrix identities.

    Exact symbolic checking by default for k <= EXACT_MAX_K, randomized modular
    evaluation with `trials` points otherwise: the module's own matrices
    are lifted to GF(p) at a random point for each trial, all trials in
    one pass over the product of their primes.  A trial decides each
    relation on one number per side D, v D w for v = (1, z, ...,
    z^(n-1)) and w = (1, y, ..., y^(n-1)), z and y the point's a0 and ak
    residues: a relation that fails mod p at the trial's point is missed
    with probability at most 2(n - 1)/(p - 3), n = m.n, on top of the
    Schwartz-Zippel bound at the point (entry degree over p).  Returns a
    report dict with per-relation pass/fail, the first failing witness
    (the first failing relation at the first failing trial), the trial
    primes, the number of discarded candidate points, and the relations
    decided on their reduced form in every pass (`reduced`, empty where the check fell back
    to the relations as written); a modular witness carries p and the
    point, so the relation can be replayed over `m.over(ModRing(p, point))`."""
    if exact is None:
        exact = m.k <= EXACT_MAX_K
    if not exact and (not isinstance(trials, int) or trials < 1):
        raise CalibError("modular presentation check needs trials >= 1, got %r" % (trials,))
    if not exact and (not isinstance(prime_bits, int) or prime_bits < 3):
        raise CalibError("no prime p = 1 (mod 4) has prime_bits = %r < 3" % (prime_bits,))
    rels = _relations(m.k)
    report = {"mode": "exact" if exact else "modular",
              "relations": {name: True for name, _, _ in rels},
              "passed": True, "witness": None, "trials": 0 if exact else trials,
              "seed": seed, "primes": [], "discarded": 0, "reduced": []}
    if exact:
        failing, report["reduced"] = _failing(m.over(EXACT))
        if failing:
            report["witness"] = {"relation": failing[0]}
    else:
        points, report["discarded"], suspects, report["reduced"] = _modular_trials(
            m, trials, random.Random(seed), prime_bits)
        report["primes"] = [p for p, _ in points]
        failing = [name for name, _, _ in rels if any(name in s for s in suspects)]
        report["witness"] = _replay_witness(m, points, suspects)
    for name in failing:
        report["relations"][name] = False
    report["passed"] = not failing
    return report


# ---------------------------------------------------------------------------
# idempotent nullity, central character, b-constant
# ---------------------------------------------------------------------------

@functools.cache
def _witness_ring() -> ModRing:
    """The one witness ring of the process: a 30-bit prime p = 1 (mod 4)
    and a point, drawn from a fixed seed.  It keeps the lifts of the
    modules of a chart, which share most entries and every relator
    coefficient, so each is evaluated once."""
    rng = random.Random(0)
    p = random_prime(30, rng)
    return ModRing(p, random_point(p, rng))


def _witnessed(m: CalibratedModule, identities) -> set:
    """The names of the identities whose sides differ at the witness point:
    each side D is the number v D w over `m.over(_witness_ring())`
    (`_differing`).  Evaluation at the point is a ring homomorphism on
    every entry and coefficient it lifts, so a nonzero difference there
    proves the two sides differ exactly.  Empty when a lift raises
    `EvalRetry`: the point then gives some entry no value."""
    try:
        return _differing(m.over(_witness_ring()), identities)
    except EvalRetry:
        return set()


def idempotent_nullity(m: CalibratedModule) -> dict:
    """Evaluate the quotient relators of `words` (the inner idempotent
    numerators, F0 and F0v); all zero iff the module factors through the
    diagram-algebra quotient.

    The boundary pair differences N0*(p - p') and Nk*(p - p') equal the
    relators F0 and F0v up to the unit factors [[t0]] and [[tk]], so the
    pairs are decided on the relators (the equality is pinned by tests).

    A relator R is certified non-vanishing by a nonzero residue v R w at
    the one fixed witness point (`_witnessed`), with no error bound: a
    matrix that is zero reads zero under the evaluation homomorphism.  The
    witness ring keeps what it lifts, so the modules of a chart evaluate
    each shared entry and relator coefficient once.  Every other relator,
    or all of them where a lift raises `EvalRetry`, is decided against zero
    on the exact module (`_differing` over the exact ring: e_r times the
    relator for r = 0, 1, ..., n-1): it does not vanish at its first
    nonzero row, and it vanishes once every row is zero.  So every verdict
    is exact."""
    identities = _relators(m.k)
    nonzero = _witnessed(m, identities)
    nonzero |= _differing(m, [rel for rel in identities if rel[0] not in nonzero])
    vanish = {name: name not in nonzero for name, _, _ in identities}
    return {"vanish": vanish, "is_tl_module": all(vanish.values())}


def central_character(m: CalibratedModule) -> dict:
    """The scalar z by which the symmetric commuting sum
    sum_i (W_i + W_i^-1) acts, read off the diagonals of the W_i: on each
    filling the sum of gamma + 1/gamma, which must be the same on all of
    them; plus the closed-form comparison for two-row regions."""
    if any(set(row) - {j} for w in m.W for j, row in enumerate(w)):
        raise CalibError("central element does not act by a scalar")
    diagonals = [[mat_entry(w, j, j) for w in m.W] for j in range(m.n)]
    sums = [sum((g + g.inv() for g in gammas), Scalar.zero()) for gammas in diagonals]
    z0 = sums[0]
    if any(s != z0 for s in sums):
        raise CalibError("central element does not act by a scalar")
    report = {"z": z0, "scalar": True}
    c0 = rg.two_row_start(m.region)
    if c0 is not None:
        theta2 = int(2 * c0) + m.k - 1  # twice theta, theta = c0 + (k-1)/2
        closed = -(Scalar.monomial(u=theta2) + Scalar.monomial(u=-theta2)) * qint(m.k)
        report["theta"] = Fraction(theta2, 2)
        report["matches_convention"] = (z0 == closed)
    return report


def b_constant(m: CalibratedModule, character: Optional[dict] = None) -> dict:
    """The scalar with I1 I2 I1 = b I1 on the module, from its central
    character (the report of `central_character(m)`, computed unless
    given), checked as an identity from the unit rows; undefined where
    I1 = 0."""
    zval = (character or central_character(m))["z"]
    spec = m.spec.specialize
    a0ak = A0 * AK
    if m.k % 2 == 0:
        b = (zval / qint(m.k) - spec(bb("t0*tk/t"))) / a0ak
    else:
        b = (zval / qint(m.k) + spec(bb("t0/tk"))) / a0ak
    i1, i2 = (wd.standard_element(name, m.k) for name in ("I1", "I2"))
    failed = _differing(m, [("I1 = 0", i1, wd.GenExpr.zero(m.k)),
                            ("I1 I2 I1 = b I1", i1 * i2 * i1, i1.scale(b))])
    if "I1 = 0" not in failed:
        return {"b": None, "defined": False, "z": zval}
    return {"b": b, "defined": True, "verified": "I1 I2 I1 = b I1" not in failed, "z": zval}
