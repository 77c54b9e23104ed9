"""Exact matrices for the calibrated modules on standard-filling bases.

Given a skew local region, the basis is its set of standard fillings.  The
commuting family acts diagonally by gamma = -t^(diagonal); the boundary and
inner generators act with the seminormal diagonal entries and an
off-diagonal pair normalized so the quadratic relations hold without square
roots: the entry out of the filling whose moved label sits on the lower
diagonal is 1, the return entry is the radicand of the textbook square root.

The boundary parameters are specialized on construction:

    u0 -> branch * i * u^(r2 - r1),    uk -> branch * i * u^(r1 + r2),

which realizes t_k^(1/2) t_0^(-1/2) = t^r1 and t_k^(1/2) t_0^(1/2) = -t^r2
exactly; the wall generator with index k is reconstructed from the commuting
family via T_{k-1} ... T_1 (W_1 T_0^-1) T_1^-1 ... T_{k-1}^-1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import regions as rg
from . import words as wd
from .scalars import (A0, AK, EvalRetry, ONE, Scalar, U, bb, eval_mod, qint,
                      random_point, random_prime)

Matrix = List[List[Scalar]]


class CalibError(ValueError):
    pass


# ---------------------------------------------------------------------------
# small exact matrix helpers
# ---------------------------------------------------------------------------

def mat_identity(n: int) -> Matrix:
    return [[ONE if i == j else Scalar.zero() for j in range(n)] for i in range(n)]


def mat_zero(n: int) -> Matrix:
    return [[Scalar.zero() for _ in range(n)] for _ in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    out = mat_zero(n)
    for i in range(n):
        arow = a[i]
        orow = out[i]
        for l in range(n):
            x = arow[l]
            if x.is_zero():
                continue
            brow = b[l]
            for j in range(n):
                y = brow[j]
                if not y.is_zero():
                    orow[j] = orow[j] + x * y
    return out


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: Matrix, c: Scalar) -> Matrix:
    return [[x * c for x in row] for row in a]


def mat_is_zero(a: Matrix) -> bool:
    return all(x.is_zero() for row in a for x in row)


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def mat_diag(entries: Sequence[Scalar]) -> Matrix:
    n = len(entries)
    out = mat_zero(n)
    for i, e in enumerate(entries):
        out[i][i] = e
    return out


# ---------------------------------------------------------------------------
# module specification and construction
# ---------------------------------------------------------------------------

NONSYMMETRIC = "nonsymmetric-seminormal"
NUMERIC_SYMMETRIC = "numeric-symmetric"


@dataclass(frozen=True)
class ModuleSpec:
    region: rg.LocalRegion
    z: Scalar = field(default_factory=Scalar.one)
    branch: int = 1
    normalization: str = NONSYMMETRIC
    require_skew: bool = True

    def __post_init__(self):
        r1, r2 = self.region.params.r1, self.region.params.r2
        if (r2 - r1).denominator != 1 or (r2 + r1).denominator != 1:
            raise CalibError("specialization needs r2 - r1 and r2 + r1 integral")
        if self.branch not in (1, -1):
            raise CalibError("branch must be +1 or -1")
        if self.normalization not in (NONSYMMETRIC, NUMERIC_SYMMETRIC):
            raise CalibError("unknown normalization %r" % self.normalization)

    def boundary_images(self):
        unit = (0, self.branch)
        r1, r2 = self.region.params.r1, self.region.params.r2
        return (unit, int(r2 - r1)), (unit, int(r2 + r1))

    def specialize(self, x: Scalar) -> Scalar:
        u0_img, uk_img = self.boundary_images()
        return x.substitute_boundary(u0_img, uk_img)


class CalibratedModule:
    """Exact generator matrices on the standard-filling basis."""

    def __init__(self, spec: ModuleSpec):
        self.spec = spec
        self.region = spec.region
        self.k = spec.region.k
        self.config = rg.build_config(spec.region)
        self.basis: List[rg.Filling] = rg.enumerate_fillings(self.config)
        if not self.basis:
            raise CalibError("region has no standard fillings")
        if spec.require_skew and not rg.is_skew(spec.region, self.config):
            raise CalibError("region is not skew")
        self.index = {w: i for i, w in enumerate(self.basis)}
        self.n = len(self.basis)
        self.u0s = spec.specialize(Scalar.var("u0"))
        self.uks = spec.specialize(Scalar.var("uk"))
        self.z = spec.z
        self._wc = [rg.wc_vector(self.config, w) for w in self.basis]
        self._gammas = [{j: -Scalar.monomial(u=int(2 * wc[j])) for j in wc}
                        for wc in self._wc]
        self.W = [self._w_matrix(i) for i in range(1, self.k + 1)]
        self.T = {0: self._t0_matrix()}
        for i in range(1, self.k):
            self.T[i] = self._ti_matrix(i)
        self.gamma0 = [self.z * _prod(self._gammas[m][j].inv()
                                      for j in range(1, self.k + 1))
                       for m in range(self.n)]
        self._tk: Optional[Matrix] = None
        self._e_cache: Dict[object, Matrix] = {}
        self._word_cache: Dict[tuple, Matrix] = {}

    # -- gamma data ----------------------------------------------------------
    def gamma(self, m: int, label: int) -> Scalar:
        return self._gammas[m][label]

    def _w_matrix(self, i: int) -> Matrix:
        return mat_diag([self.gamma(m, i) for m in range(self.n)])

    # -- generator matrices ---------------------------------------------------
    def _ti_matrix(self, i: int) -> Matrix:
        uu = U
        out = mat_zero(self.n)
        for m, w in enumerate(self.basis):
            gi = self.gamma(m, i)
            gi1 = self.gamma(m, i + 1)
            ratio = gi * gi1.inv()
            if ratio.is_one():
                raise CalibError("coincident neighbor diagonals at %s" % (w,))
            d = (uu - uu.inv()) / (ONE - ratio)
            out[m][m] = d
            partner = _swap_labels(w, i)
            pm = self.index.get(partner)
            if pm is not None:
                up = self._wc[m][i] < self._wc[m][i + 1]
                if up:
                    out[pm][m] = ONE
                else:
                    out[pm][m] = -(d - uu) * (d + uu.inv())
        return out

    def _t0_matrix(self) -> Matrix:
        out = mat_zero(self.n)
        u0s, uks = self.u0s, self.uks
        for m, w in enumerate(self.basis):
            g1 = self.gamma(m, 1)
            g1i = g1.inv()
            den = ONE - g1i * g1i
            if den.is_zero():
                raise CalibError("label 1 on the zero diagonal at %s" % (w,))
            d = ((u0s - u0s.inv()) + (uks - uks.inv()) * g1i) / den
            out[m][m] = d
            partner = _flip_label_one(w)
            pm = self.index.get(partner)
            if pm is not None:
                up = self._wc[m][1] < 0
                if up:
                    out[pm][m] = ONE
                else:
                    out[pm][m] = -(d - u0s) * (d + u0s.inv())
        return out

    # -- derived matrices -----------------------------------------------------
    def t_inv(self, i: int) -> Matrix:
        if i == 0:
            shift = self.u0s - self.u0s.inv()
        else:
            shift = U - U.inv()
        return mat_sub(self.T[i], mat_scale(mat_identity(self.n), shift))

    def tk_matrix(self) -> Matrix:
        """T_k via conjugating W_1 T_0^-1 back to the right wall."""
        if self._tk is None:
            m = mat_mul(self.W[0], self.t_inv(0))
            for i in range(1, self.k):
                m = mat_mul(self.T[i], m)
                m = mat_mul(m, self.t_inv(i))
            self._tk = m
        return self._tk

    def tk_inv(self) -> Matrix:
        shift = self.uks - self.uks.inv()
        return mat_sub(self.tk_matrix(), mat_scale(mat_identity(self.n), shift))

    def e_matrix(self, which) -> Matrix:
        """Images of the abstract cap/cup generators e_0, e_i, e_k, e_0v."""
        if which in self._e_cache:
            return self._e_cache[which]
        mat = self._e_matrix_raw(which)
        self._e_cache[which] = mat
        return mat

    def _e_matrix_raw(self, which) -> Matrix:
        ident = mat_identity(self.n)
        if which == "e0":
            return mat_scale(mat_sub(self.T[0], mat_scale(ident, self.u0s)),
                             A0.inv())
        if which == "ek":
            return mat_scale(mat_sub(self.tk_matrix(), mat_scale(ident, self.uks)),
                             AK.inv())
        if which == "e0v":
            v = mat_sub(mat_mul(self.W[0], self.t_inv(0)),
                        mat_scale(ident, self.uks))
            return mat_scale(v, AK.inv())
        i = int(which)
        a = Scalar.from_int(wd.DEFAULT_A_SIGN)
        return mat_scale(mat_sub(self.T[i], mat_scale(ident, U)), a)

    def evaluate_word(self, expr: wd.GenExpr) -> Matrix:
        """The Scalar-linear combination of word products of generator matrices."""
        if expr.k != self.k:
            raise CalibError("expression k=%d on module k=%d" % (expr.k, self.k))
        total = mat_zero(self.n)
        for word, coeff in expr.terms.items():
            total = mat_add(total,
                            mat_scale(self._word_matrix(word),
                                      self.spec.specialize(coeff)))
        return total

    def _word_matrix(self, word: tuple) -> Matrix:
        if not word:
            return mat_identity(self.n)
        if word in self._word_cache:
            return self._word_cache[word]
        mat = mat_mul(self._word_matrix(word[:-1]), self._letter_matrix(word[-1]))
        if len(self._word_cache) < 4096:
            self._word_cache[word] = mat
        return mat

    def _letter_matrix(self, letter) -> Matrix:
        kind = letter[0]
        if kind == "T0":
            return self.T[0] if letter[1] == 1 else self.t_inv(0)
        if kind == "Tk":
            return self.tk_matrix() if letter[1] == 1 else self.tk_inv()
        if kind == "T":
            i = letter[1]
            return self.T[i] if letter[2] == 1 else self.t_inv(i)
        if kind == "E0":
            return self.e_matrix("e0")
        if kind == "Ek":
            return self.e_matrix("ek")
        if kind == "E":
            return self.e_matrix(letter[1])
        raise CalibError("unknown letter %r" % (letter,))


def symmetric_matrices(m: CalibratedModule, point: Dict[str, complex]) -> dict:
    """The textbook square-root normalization, available numerically.

    Returns complex generator matrices at the given value of u (with a0, ak
    and i filled in); the off-diagonal entries are the symmetric square
    roots, so the matrices represent the same module in a rescaled basis."""
    import cmath

    from .scalars import eval_complex
    full_point = {"u": complex(point["u"]), "u0": 1.0, "uk": 1.0,
                  "a0": complex(point.get("a0", 1.0)),
                  "ak": complex(point.get("ak", 1.0))}
    n = m.n
    u = full_point["u"]
    u0 = eval_complex(m.u0s, full_point)
    uk = eval_complex(m.uks, full_point)

    def sym_matrix(i: int) -> List[List[complex]]:
        out = [[0j] * n for _ in range(n)]
        for col, w in enumerate(m.basis):
            if i == 0:
                partner = _flip_label_one(w)
                lam_p, lam_m = u0, 1 / u0
            else:
                partner = _swap_labels(w, i)
                lam_p, lam_m = u, 1 / u
            d = eval_complex(m.T[i][col][col], full_point)
            out[col][col] = d
            pm = m.index.get(partner)
            if pm is not None:
                out[pm][col] = cmath.sqrt(-(d - lam_p) * (d + lam_m))
        return out

    mats = {"W%d" % (i + 1): [[eval_complex(m.W[i][r][c], full_point)
                               for c in range(n)] for r in range(n)]
            for i in range(m.k)}
    mats["T0"] = sym_matrix(0)
    for i in range(1, m.k):
        mats["T%d" % i] = sym_matrix(i)
    return mats


def _prod(items) -> Scalar:
    out = ONE
    for x in items:
        out = out * x
    return out


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

def _relations(m: CalibratedModule) -> List[Tuple[str, tuple]]:
    """Named relations as (label, checker tag) pairs; the tags are
    interpreted by _check_relation over an exact or modular environment."""
    k = m.k
    rels: List[Tuple[str, tuple]] = []
    for i in range(1, k - 1):
        rels.append(("B1:T%dT%dT%d" % (i, i + 1, i),
                     ("braid3", i, i + 1)))
    for i in range(1, k):
        for j in range(i + 2, k):
            rels.append(("B1:T%dT%d" % (i, j), ("commute", i, j)))
        if i >= 2:
            rels.append(("B1:T0T%d" % i, ("commute", 0, i)))
    if k >= 2:
        rels.append(("B1:T0T1T0T1", ("braid4", 0, 1)))
    for i in range(0, k):
        for j in range(1, k + 1):
            if i == 0 and j != 1:
                rels.append(("B3:T0W%d" % j, ("commuteW", 0, j)))
            if i >= 1 and j not in (i, i + 1):
                rels.append(("B4:T%dW%d" % (i, j), ("commuteW", i, j)))
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            rels.append(("B2:W%dW%d" % (i, j), ("commuteWW", i, j)))
    rels.append(("H:T0", ("quad", 0)))
    for i in range(1, k):
        rels.append(("H:T%d" % i, ("quad", i)))
    rels.append(("H:Tk", ("quad", "k")))
    for i in range(1, k):
        rels.append(("C1:T%dW%d" % (i, i), ("c1a", i)))
        rels.append(("C1:T%dW%d" % (i, i + 1), ("c1b", i)))
    rels.append(("C2:T0W1", ("c2",)))
    # wall-generator consistency
    if k >= 2:
        rels.append(("ext:T%dTkT%dTk" % (k - 1, k - 1), ("braid4k",)))
    for i in range(1, k - 1):
        rels.append(("ext:TkT%d" % i, ("commutek", i)))
    if k >= 2:
        rels.append(("ext:TkT0", ("commutek", 0)))
    rels.append(("ext:W1word", ("w1word",)))
    return rels


class _Env:
    """Generator matrices with ring ops, exact or modular."""

    def __init__(self, m: CalibratedModule, p: Optional[int] = None,
                 point: Optional[dict] = None):
        self.m = m
        self.p = p
        self.n = m.n
        self.point_cache = point
        if p is None:
            self.T = dict(m.T)
            self.Tk = m.tk_matrix()
            self.W = list(m.W)
            self.u = U
            self.u0 = m.u0s
            self.uk = m.uks
        else:
            red = lambda mat: [[eval_mod(x, p, point) for x in row] for row in mat]
            self.T = {i: red(t) for i, t in m.T.items()}
            self.W = [red(wmat) for wmat in m.W]
            self.u = eval_mod(U, p, point)
            self.u0 = eval_mod(m.u0s, p, point)
            self.uk = eval_mod(m.uks, p, point)
            w1t0inv = self.mul(self.W[0], self.sub_scalar(self.T[0], self.frac(self.u0)))
            tk = w1t0inv
            for i in range(1, m.k):
                tk = self.mul(self.T[i], tk)
                tk = self.mul(tk, self.sub_scalar(self.T[i], self.frac(self.u)))
            self.Tk = tk

    def frac(self, x):
        """x - 1/x for a ring element."""
        if self.p is None:
            return x - x.inv()
        return (x - pow(x, self.p - 2, self.p)) % self.p

    def inv_scalar(self, x):
        if self.p is None:
            return x.inv()
        return pow(x, self.p - 2, self.p)

    def mul(self, a, b):
        if self.p is None:
            return mat_mul(a, b)
        n = self.n
        p = self.p
        out = [[0] * n for _ in range(n)]
        for i in range(n):
            arow = a[i]
            orow = out[i]
            for l in range(n):
                x = arow[l]
                if x:
                    brow = b[l]
                    for j in range(n):
                        if brow[j]:
                            orow[j] = (orow[j] + x * brow[j]) % p
        return out

    def sub(self, a, b):
        if self.p is None:
            return mat_sub(a, b)
        return [[(x - y) % self.p for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

    def sub_scalar(self, a, c):
        if self.p is None:
            return mat_sub(a, mat_scale(mat_identity(self.n), c))
        out = [row[:] for row in a]
        for i in range(self.n):
            out[i][i] = (out[i][i] - c) % self.p
        return out

    def scale(self, a, c):
        if self.p is None:
            return mat_scale(a, c)
        return [[x * c % self.p for x in row] for row in a]

    def diag(self, entries):
        if self.p is None:
            return mat_diag(list(entries))
        out = [[0] * self.n for _ in range(self.n)]
        for i, e in enumerate(entries):
            out[i][i] = e % self.p
        return out

    def is_zero(self, a) -> bool:
        if self.p is None:
            return mat_is_zero(a)
        return all(x % self.p == 0 for row in a for x in row)

    def gamma(self, mrow: int, j: int):
        g = self.m.gamma(mrow, j)
        if self.p is None:
            return g
        return eval_mod(g, self.p, self.point_cache)


def _check_relation(env: _Env, tag: tuple) -> bool:
    T, W, Tk = env.T, env.W, env.Tk
    kind = tag[0]
    if kind == "braid3":
        i, j = tag[1], tag[2]
        return env.is_zero(env.sub(env.mul(env.mul(T[i], T[j]), T[i]),
                                   env.mul(env.mul(T[j], T[i]), T[j])))
    if kind == "braid4":
        i, j = tag[1], tag[2]
        ab = env.mul(T[i], T[j])
        ba = env.mul(T[j], T[i])
        return env.is_zero(env.sub(env.mul(ab, ab), env.mul(ba, ba)))
    if kind == "braid4k":
        a, b = T[env.m.k - 1], Tk
        ab = env.mul(a, b)
        ba = env.mul(b, a)
        return env.is_zero(env.sub(env.mul(ab, ab), env.mul(ba, ba)))
    if kind == "commute":
        i, j = tag[1], tag[2]
        return env.is_zero(env.sub(env.mul(T[i], T[j]), env.mul(T[j], T[i])))
    if kind == "commutek":
        i = tag[1]
        return env.is_zero(env.sub(env.mul(T[i], Tk), env.mul(Tk, T[i])))
    if kind == "commuteW":
        i, j = tag[1], tag[2]
        wm = W[j - 1]
        return env.is_zero(env.sub(env.mul(T[i], wm), env.mul(wm, T[i])))
    if kind == "commuteWW":
        i, j = tag[1], tag[2]
        return env.is_zero(env.sub(env.mul(W[i - 1], W[j - 1]),
                                   env.mul(W[j - 1], W[i - 1])))
    if kind == "quad":
        if tag[1] == "k":
            mat, lam = Tk, env.uk
        elif tag[1] == 0:
            mat, lam = T[0], env.u0
        else:
            mat, lam = T[tag[1]], env.u
        # (X - lam)(X + 1/lam) = 0
        left = env.sub_scalar(mat, lam)
        right = env.sub_scalar(mat, -env.inv_scalar(lam)) if env.p is None else \
            env.sub_scalar(mat, (-env.inv_scalar(lam)) % env.p)
        return env.is_zero(env.mul(left, right))
    if kind in ("c1a", "c1b"):
        i = tag[1]
        gi = [env.gamma(mrow, i) for mrow in range(env.n)]
        gi1 = [env.gamma(mrow, i + 1) for mrow in range(env.n)]
        if env.p is None:
            corr = [(x - y) / (ONE - x * y.inv()) for x, y in zip(gi, gi1)]
        else:
            p = env.p
            corr = []
            for x, y in zip(gi, gi1):
                den = (1 - x * pow(y, p - 2, p)) % p
                if den == 0:
                    raise EvalRetry("vanishing C1 denominator")
                corr.append((x - y) * pow(den, p - 2, p) % p)
        fu = env.frac(env.u)
        if kind == "c1a":
            lhs = env.mul(T[i], W[i - 1])
            rhs = env.mul(W[i], T[i])
            diagm = env.diag([env_mul_scalar(env, fu, c) for c in corr])
        else:
            lhs = env.mul(T[i], W[i])
            rhs = env.mul(W[i - 1], T[i])
            diagm = env.diag([env_mul_scalar(env, fu, env_neg(env, c)) for c in corr])
        return env.is_zero(env.sub(lhs, env_add(env, rhs, diagm)))
    if kind == "c2":
        g1 = [env.gamma(mrow, 1) for mrow in range(env.n)]
        if env.p is None:
            w1inv = env.diag([x.inv() for x in g1])
            corr = []
            for x in g1:
                xi = x.inv()
                num = (env.frac(env.u0) + env.frac(env.uk) * xi) * (x - xi)
                corr.append(num / (ONE - xi * xi))
        else:
            p = env.p
            w1inv = env.diag([pow(x, p - 2, p) for x in g1])
            corr = []
            for x in g1:
                xi = pow(x, p - 2, p)
                den = (1 - xi * xi) % p
                if den == 0:
                    raise EvalRetry("vanishing C2 denominator")
                num = (env.frac(env.u0) + env.frac(env.uk) * xi) * (x - xi)
                corr.append(num * pow(den, p - 2, p) % p)
        lhs = env.mul(T[0], W[0])
        rhs = env_add(env, env.mul(w1inv, T[0]), env.diag(corr))
        return env.is_zero(env.sub(lhs, rhs))
    if kind == "w1word":
        # W_1 = T_1^-1 ... T_{k-1}^-1 Tk T_{k-1} ... T_1 T_0
        cur = env.Tk
        for i in range(env.m.k - 1, 0, -1):
            cur = env.mul(cur, T[i])
        cur = env.mul(cur, T[0])
        for i in range(env.m.k - 1, 0, -1):
            cur = env.mul(env.sub_scalar(T[i], env.frac(env.u)), cur)
        return env.is_zero(env.sub(cur, W[0]))
    raise CalibError("unknown relation tag %r" % (tag,))


def env_add(env: _Env, a, b):
    if env.p is None:
        return mat_add(a, b)
    return [[(x + y) % env.p for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def env_neg(env: _Env, c):
    if env.p is None:
        return -c
    return (-c) % env.p


def env_mul_scalar(env: _Env, a, b):
    if env.p is None:
        return a * b
    return a * b % env.p


def check_presentation(m: CalibratedModule, trials: int = 10,
                       exact: Optional[bool] = None,
                       seed: int = 0, prime_bits: int = 62) -> dict:
    """Verify the defining relations as matrix identities.

    Exact symbolic checking by default for k <= 2, randomized modular
    evaluation with `trials` points otherwise.  Returns a report dict with
    per-relation pass/fail and the first failing witness."""
    if exact is None:
        exact = m.k <= 2
    if not exact and trials < 1:
        raise CalibError("modular presentation check needs trials >= 1, got %d"
                         % trials)
    rels = _relations(m)
    report = {"mode": "exact" if exact else "modular", "relations": {},
              "passed": True, "witness": None, "trials": 0 if exact else trials,
              "seed": seed}
    if exact:
        env = _Env(m)
        for name, tag in rels:
            ok = _check_relation(env, tag)
            report["relations"][name] = ok
            if not ok and report["witness"] is None:
                report["passed"] = False
                report["witness"] = {"relation": name}
        return report

    rng = random.Random(seed)
    for name, _ in rels:
        report["relations"][name] = True
    for trial in range(trials):
        for attempt in range(20):
            p = random_prime(prime_bits, rng)
            point = random_point(p, rng)
            try:
                env = _Env(m, p, point)
                for name, tag in rels:
                    ok = _check_relation(env, tag)
                    if not ok:
                        report["relations"][name] = False
                        report["passed"] = False
                        if report["witness"] is None:
                            report["witness"] = {"relation": name, "p": p,
                                                 "trial": trial}
                break
            except EvalRetry:
                continue
        else:
            raise CalibError("could not find a usable evaluation point")
    return report


# ---------------------------------------------------------------------------
# idempotent nullity, central character, b-constant
# ---------------------------------------------------------------------------

def idempotent_nullity(m: CalibratedModule, use_f_forms: bool = True) -> dict:
    """Evaluate the quotient idempotent combinations; all zero iff the
    module factors through the diagram-algebra quotient.

    The boundary pair differences N0*(p - p') and Nk*(p - p') equal the
    relators F0 and F0v up to the unit factors [[t0]] and [[tk]]; by default
    the cheaper relator form is evaluated (the equality is pinned by tests),
    `use_f_forms=False` evaluates the idempotent words verbatim."""
    k = m.k
    report = {"vanish": {}, "is_tl_module": True}
    for i in range(1, k - 1):
        num, _ = wd.idempotent_expr("p_i_111", k, i=i)
        mat = m.evaluate_word(num)
        report["vanish"]["p_%d_111" % i] = mat_is_zero(mat)
    if k >= 2:
        if use_f_forms:
            f0 = m.evaluate_word(wd.f_element("F0", k))
            report["vanish"]["p0_pair"] = mat_is_zero(f0)
        else:
            n_e12, _ = wd.idempotent_expr("p0_e12", k)
            n_12e, _ = wd.idempotent_expr("p0_12e", k)
            report["vanish"]["p0_pair"] = mat_is_zero(m.evaluate_word(n_12e - n_e12))
        f0v = _f0v_matrix(m)
        report["vanish"]["p0v_pair"] = mat_is_zero(f0v)
    report["is_tl_module"] = all(report["vanish"].values())
    return report


def _f0v_matrix(m: CalibratedModule) -> Matrix:
    """a_k a^2 e_1 e_0v e_1 - a [[tk/t]] e_1, via the diagonal wall word."""
    a = Scalar.from_int(wd.DEFAULT_A_SIGN)
    ae1 = mat_scale(m.e_matrix(1), a)
    v = mat_sub(mat_mul(m.W[0], m.t_inv(0)),
                mat_scale(mat_identity(m.n), m.uks))
    first = mat_mul(mat_mul(ae1, v), ae1)
    return mat_sub(first, mat_scale(ae1, m.spec.specialize(bb("tk/t"))))


def f_matrices(m: CalibratedModule) -> Dict[str, Matrix]:
    """The quotient relators F_i, F_0, F_k, F_0v as matrices."""
    out: Dict[str, Matrix] = {}
    for i in range(1, m.k - 1):
        out["F%d" % i] = m.evaluate_word(wd.f_element(i, m.k))
    if m.k >= 2:
        out["F0"] = m.evaluate_word(wd.f_element("F0", m.k))
        out["Fk"] = m.evaluate_word(wd.f_element("Fk", m.k))
        out["F0v"] = _f0v_matrix(m)
    return out


def central_character(m: CalibratedModule) -> dict:
    """The scalar by which the symmetric commuting sum acts, plus the
    closed-form comparison for two-row regions."""
    total = mat_zero(m.n)
    for i in range(m.k):
        wmat = m.W[i]
        winv = mat_diag([wmat[j][j].inv() for j in range(m.n)])
        total = mat_add(total, mat_add(wmat, winv))
    z0 = total[0][0]
    scalar = all(total[i][i] == z0 for i in range(m.n)) and \
        all(total[i][j].is_zero() for i in range(m.n) for j in range(m.n) if i != j)
    if not scalar:
        raise CalibError("central element does not act by a scalar")
    report = {"z": z0, "scalar": True}
    c0 = _two_row_start(m.region)
    if c0 is not None:
        theta2 = int(2 * c0) + m.k - 1  # twice theta, theta = c0 + (k-1)/2
        closed = -(Scalar.monomial(u=theta2) + Scalar.monomial(u=-theta2)) * qint(m.k)
        report["theta"] = Fraction(theta2, 2)
        report["matches_convention"] = (z0 == closed)
        unscaled = bb("t", Fraction(theta2, 2)) * qint(m.k) \
            if theta2 % 2 == 0 else None
        report["matches_unscaled_bracket"] = (unscaled == z0) if unscaled is not None else False
    return report


def _two_row_start(region: rg.LocalRegion) -> Optional[Fraction]:
    if not rg.is_tl_shape(region):
        return None
    k = region.k
    for c0 in (region.c[-1] - (k - 1), -region.c[-1]):
        placement = rg._two_row_placement(k, c0)
        if tuple(sorted(placement[i][0] for i in range(1, k + 1))) == region.c:
            return c0
    return None


def b_constant(m: CalibratedModule) -> dict:
    """The scalar with I1 I2 I1 = b I1 on the module, from the central
    character, checked against the matrix product."""
    zrep = central_character(m)
    zval = zrep["z"]
    spec = m.spec.specialize
    a0ak = A0 * AK
    if m.k % 2 == 0:
        b = (zval / qint(m.k) - spec(bb("t0*tk/t"))) / a0ak
    else:
        b = (zval / qint(m.k) + spec(bb("t0/tk"))) / a0ak
    i1 = m.evaluate_word(wd.standard_element("I1", m.k))
    i2 = m.evaluate_word(wd.standard_element("I2", m.k))
    prod = mat_mul(mat_mul(i1, i2), i1)
    if mat_is_zero(i1):
        return {"b": None, "defined": False, "z": zval}
    ok = mat_eq(prod, mat_scale(i1, b))
    return {"b": b, "defined": True, "verified": ok, "z": zval}
