"""Calibrated module matrices: construction, relations, nullity, characters."""

import functools
import hashlib
import json
import random
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from blobalg import calib as cb
from blobalg import regions as rg
from blobalg import scalars as sc
from blobalg import schurweyl as sw
from blobalg import verify as vf
from blobalg import words as wd
from blobalg.scalars import (ONE, EvalRetry, Scalar, U, U0, UK, bb, eval_mod, qint,
                             random_point, random_prime)

import oracles

PARAMS = rg.RegionParams(F(3, 2), F(11, 2))
SW63 = sw.SWParams(6, 3)


def shifts(m):
    """u - 1/u, u0 - 1/u0 and uk - 1/uk at the module's boundary images."""
    return tuple(m.spec.specialize(cb._SHIFT[x]) for x in (U, U0, UK))


def identity(n, ring=cb.EXACT):
    return [{i: ring.one} for i in range(n)]


def is_zero(mat):
    return not any(mat)


def two_row_module(k, l):
    return sw.module_for(SW63, k, l)


def perturbed_module(k, l, at_zero=False, i=1):
    """A (6,3) module with T_i perturbed off the diagonal: its first nonzero
    entry moved by 1, or (at_zero) U put where T_i is zero, i.e. where its
    row stores nothing."""
    m = two_row_module(k, l)
    t = m.T[i]
    row, col = next((r, c) for r in range(m.n) for c in range(m.n)
                    if r != c and (c not in t[r]) == at_zero)
    t[row][col] = cb.mat_entry(t, row, col) + (U if at_zero else ONE)
    return m


def rescaled_module(k, l, i):
    """A (6,3) module with the first off-diagonal pair of T_i scaled by u
    and 1/u: the quadratic relation of T_i still holds, some braid or
    commutation relation of T_i fails."""
    m = two_row_module(k, l)
    t = m.T[i]
    row, col = next((r, c) for r in range(m.n) for c in t[r] if r < c and r in t[c])
    t[row][col] = t[row][col] * U
    t[col][row] = t[col][row] * U.inv()
    return m


def reference_presentation(m, trials, seed, prime_bits):
    """The modular check trial by trial, one prime at a time, as it was
    before all trials shared one pass; a trial's failures are recorded only
    once its whole check has run at a usable point."""
    rels = reference_tags(m)
    report = {"mode": "modular", "relations": {name: True for name, _ in rels},
              "passed": True, "witness": None, "trials": trials, "seed": seed,
              "primes": [], "discarded": 0}
    rng = random.Random(seed)
    for trial in range(trials):
        for _attempt in range(20):
            p = random_prime(prime_bits, rng)
            point = random_point(p, rng)
            try:
                env = ReferenceEnv(m, cb.ModRing(p, point))
                failing = [name for name, tag in rels
                           if not reference_check(env, tag)]
                break
            except EvalRetry:
                report["discarded"] += 1
        else:
            raise cb.CalibError("could not find a usable evaluation point")
        report["primes"].append(p)
        for name in failing:
            report["relations"][name] = False
            report["passed"] = False
        if failing and report["witness"] is None:
            report["witness"] = dict(relation=failing[0], p=p, trial=trial,
                                     point=point)
    return report


# The relation-tag interpreter that checked the presentation before the
# relations were written as generator words: each relation a tag, each tag a
# hand-written product over the module's matrices lifted into the ring.  It
# is the oracle for the word relations, relation by relation.

def reference_tags(m):
    """The named relations as (label, tag) pairs, in the report's order."""
    k = m.k
    rels = []
    for i in range(1, k - 1):
        rels.append(("B1:T%dT%dT%d" % (i, i + 1, i), ("braid3", i, i + 1)))
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
    if k >= 2:
        rels.append(("ext:T%dTkT%dTk" % (k - 1, k - 1), ("braid4k",)))
    for i in range(1, k - 1):
        rels.append(("ext:TkT%d" % i, ("commutek", i)))
    if k >= 2:
        rels.append(("ext:TkT0", ("commutek", 0)))
    rels.append(("ext:W1word", ("w1word",)))
    return rels


class ReferenceEnv:
    """The module's generator matrices lifted entrywise into `ring`, with
    T_k = T_{k-1} ... T_1 (W_1 T_0^-1) T_1^-1 ... T_{k-1}^-1 built there."""

    def __init__(self, m, ring=cb.EXACT):
        self.ring = ring
        self.k = m.k
        lift = functools.cache(ring.lift)

        def lift_matrix(mat):
            return [ring.row({j: lift(x) for j, x in row.items()}) for row in mat]

        self.T = {i: lift_matrix(t) for i, t in m.T.items()}
        self.W = [lift_matrix(w) for w in m.W]
        self.fu, self.f0, self.fk = (lift(x) for x in shifts(m))
        tk = cb.mat_mul(self.W[0], cb.mat_shift(self.T[0], self.f0, ring), ring)
        for i in range(1, len(self.W)):
            tk = cb.mat_mul(self.T[i], tk, ring)
            tk = cb.mat_mul(tk, cb.mat_shift(self.T[i], self.fu, ring), ring)
        self.Tk = tk


def reference_check(env, tag):
    T, W, Tk, ring = env.T, env.W, env.Tk, env.ring

    def mul(a, b):
        return cb.mat_mul(a, b, ring)

    kind = tag[0]
    if kind == "braid3":
        i, j = tag[1], tag[2]
        return mul(mul(T[i], T[j]), T[i]) == mul(mul(T[j], T[i]), T[j])
    if kind in ("braid4", "braid4k"):
        a, b = (T[tag[1]], T[tag[2]]) if kind == "braid4" else (T[env.k - 1], Tk)
        ab, ba = mul(a, b), mul(b, a)
        return mul(ab, ab) == mul(ba, ba)
    if kind == "commute":
        i, j = tag[1], tag[2]
        return mul(T[i], T[j]) == mul(T[j], T[i])
    if kind == "commutek":
        i = tag[1]
        return mul(T[i], Tk) == mul(Tk, T[i])
    if kind == "commuteW":
        i, wm = tag[1], W[tag[2] - 1]
        return mul(T[i], wm) == mul(wm, T[i])
    if kind == "commuteWW":
        a, b = W[tag[1] - 1], W[tag[2] - 1]
        return mul(a, b) == mul(b, a)
    if kind == "quad":
        if tag[1] == "k":
            mat, shift = Tk, env.fk
        elif tag[1] == 0:
            mat, shift = T[0], env.f0
        else:
            mat, shift = T[tag[1]], env.fu
        # (X - lam)(X + 1/lam) = 0, that is X (X - (lam - 1/lam)) = 1
        return mul(mat, cb.mat_shift(mat, shift, ring)) == identity(len(mat), ring)
    if kind in ("c1a", "c1b"):
        # T_i W_i = W_{i+1} T_i - (u - 1/u) W_{i+1} and
        # T_i W_{i+1} = W_i T_i + (u - 1/u) W_{i+1}
        i = tag[1]
        d = cb.mat_scale(W[i], env.fu, ring)
        if kind == "c1a":
            return cb.mat_add(mul(T[i], W[i - 1]), d, ring) == mul(W[i], T[i])
        return mul(T[i], W[i]) == cb.mat_add(mul(W[i - 1], T[i]), d, ring)
    if kind == "c2":
        # W_1 T_0 W_1 = T_0 + (u0 - 1/u0) W_1^2 + (uk - 1/uk) W_1
        w1 = W[0]
        rhs = cb.mat_add(cb.mat_scale(mul(w1, w1), env.f0, ring),
                         cb.mat_scale(w1, env.fk, ring), ring)
        return mul(mul(w1, T[0]), w1) == cb.mat_add(T[0], rhs, ring)
    if kind == "w1word":
        # W_1 = T_1^-1 ... T_{k-1}^-1 Tk T_{k-1} ... T_1 T_0
        cur = Tk
        for i in range(env.k - 1, 0, -1):
            cur = mul(cur, T[i])
        cur = mul(cur, T[0])
        for i in range(env.k - 1, 0, -1):
            cur = mul(cb.mat_shift(T[i], env.fu, ring), cur)
        return cur == W[0]
    raise ValueError("unknown relation tag %r" % (tag,))


def word_verdicts(m, ring=cb.EXACT):
    """(name, holds) for each word relation, in order, over m lifted into ring."""
    lifted = m.over(ring)
    return [(name, lifted.evaluate_word(lhs) == lifted.evaluate_word(rhs))
            for name, lhs, rhs in cb._relations(m.k)]


def reduced_names(k):
    """The relations that hold T_k and have a reduced form, in order."""
    return (["H:Tk"] + ["ext:T1TkT1Tk"] * (k == 2) + ["ext:TkT%d" % i for i in range(1, k - 1)]
            + ["ext:TkT0"] * (k >= 2) + ["ext:W1word"])


def replays(m, witness):
    """Whether the witness's relation fails at its own prime and point."""
    ring = cb.ModRing(witness["p"], witness["point"])
    return (witness["relation"], False) in word_verdicts(m, ring)


class TestMatrixHelpers:
    """The sparse-row helpers against a plain list-of-lists reference, over
    both rings, on seeded matrices that are mostly zero."""

    RINGS = (cb.EXACT, cb.ModRing(101, {}))
    POOL = (ONE, -ONE, U, U.inv(), ONE / (ONE + U * U), Scalar.from_int(2))

    # the dense reference
    @staticmethod
    def ref_mul(a, b, ring):
        n = len(b[0])
        return [[ring.reduce(sum((row[l] * b[l][j] for l in range(len(b))),
                                 ring.zero)) for j in range(n)] for row in a]

    @staticmethod
    def ref_map(f, *mats):
        return [[f(*xs) for xs in zip(*rows)] for rows in zip(*mats)]

    @staticmethod
    def dense(mat, n, ring):
        return [[cb.mat_entry(mat, r, c, ring) for c in range(n)] for r in range(n)]

    @staticmethod
    def sparse(rows, ring):
        return [{c: x for c, x in enumerate(row) if not ring.is_zero(x)}
                for row in rows]

    def random_dense(self, rng, n, ring):
        def entry():
            if rng.random() < 0.6:
                return ring.zero
            if ring is cb.EXACT:
                return rng.choice(self.POOL)
            return rng.randrange(1, ring.p)
        rows = [[entry() for _ in range(n)] for _ in range(n)]
        # an empty diagonal entry for mat_shift, and one it can cancel
        rows[0][0] = ring.zero
        if n > 1 and ring.is_zero(rows[-1][-1]):
            rows[-1][-1] = ring.one
        return rows

    def assert_matches(self, got, want, ring):
        n = len(want)
        assert len(got) == n
        assert all(not ring.is_zero(x) for row in got for x in row.values())
        assert self.dense(got, n, ring) == want

    def test_helpers_match_dense_reference(self):
        rng = random.Random(11)
        for ring in self.RINGS:
            red = ring.reduce
            for n in (1, 2, 4, 6):
                for _ in range(6):
                    da, db = (self.random_dense(rng, n, ring) for _ in range(2))
                    # b cancels a where both are nonzero in the first row
                    for c in range(n):
                        if not ring.is_zero(da[0][c]):
                            db[0][c] = red(-da[0][c])
                    a, b = self.sparse(da, ring), self.sparse(db, ring)
                    c = self.POOL[2] if ring is cb.EXACT else rng.randrange(1, ring.p)
                    diag = [row[i] for i, row in enumerate(da)]
                    self.assert_matches(cb.mat_mul(a, b, ring),
                                        self.ref_mul(da, db, ring), ring)
                    self.assert_matches(cb.mat_add(a, b, ring), self.ref_map(
                        lambda x, y: red(x + y), da, db), ring)
                    self.assert_matches(cb.mat_add(a, cb.mat_scale(b, -ring.one, ring),
                                                   ring), self.ref_map(
                        lambda x, y: red(x - y), da, db), ring)
                    self.assert_matches(cb.mat_add(a, cb.mat_scale(a, -ring.one, ring),
                                                   ring), self.ref_map(
                        lambda x: ring.zero, da), ring)
                    for scale in (c, ring.zero):
                        self.assert_matches(cb.mat_scale(a, scale, ring), self.ref_map(
                            lambda x: red(x * scale), da), ring)
                    # shift by c, and by a diagonal entry so that it vanishes
                    for shift in (c, da[n - 1][n - 1]):
                        want = [[red(x - shift) if i == j else x
                                 for j, x in enumerate(row)] for i, row in enumerate(da)]
                        self.assert_matches(cb.mat_shift(a, shift, ring), want, ring)
                    self.assert_matches(cb.mat_diag(diag, ring), [
                        [diag[i] if i == j else ring.zero for j in range(n)]
                        for i in range(n)], ring)
                    self.assert_matches(cb.mat_zero(n), [[ring.zero] * n] * n, ring)
                    assert (a == b) == (da == db)
                    assert a == self.sparse([row[:] for row in da], ring)


class TestConstruction:
    def test_dimension_is_filling_count(self):
        for (l1, l) in sw.level_nodes(SW63, 3):
            if sw.zero_multiplicity(SW63, 3, l):
                continue
            m = two_row_module(3, l)
            assert m.n == sw.dim_B(SW63, 3, l, "fillings")

    def test_w_entries_are_plus_minus_contents(self):
        # weight matrices have entries -t^(+-c) with c from |(7/2,9/2,11/2)|
        m = two_row_module(3, 2)
        diagonals = {F(7, 2), F(9, 2), F(11, 2)}
        for i in range(m.k):
            for j in range(m.n):
                entry = m.W[i][j][j]
                matched = False
                for c in diagonals:
                    for s in (1, -1):
                        if entry == -Scalar.monomial(u=int(2 * s * c)):
                            matched = True
                assert matched

    def test_k1_t0_formula_direct_substitution(self):
        # independent oracle: substitute gamma into the displayed entry
        region = rg.LocalRegion((F(9, 2),), frozenset(), PARAMS)
        m = cb.build_module(cb.ModuleSpec(region))
        assert m.n == 2
        u0s, uks = m.spec.specialize(U0), m.spec.specialize(UK)
        for col, w in enumerate(m.basis):
            g = m.gamma(col, 1)
            expected = ((u0s - u0s.inv()) + (uks - uks.inv()) * g.inv()) \
                / (ONE - g.inv() * g.inv())
            assert m.T[0][col][col] == expected

    def test_quadratic_off_diagonal_product(self):
        # each entry is the formula at its own filling, though a module
        # computes each distinct diagonal and radicand once; the two
        # off-diagonal entries multiply to the square of the textbook
        # square-root entry
        for k, l in ((2, 2), (3, 2), (4, 3)):
            m = two_row_module(k, l)
            for i, mat in m.T.items():
                lam = m.spec.specialize(U0) if i == 0 else U
                for colw, w in enumerate(m.basis):
                    d = m._t_entries(colw, i)[0]
                    assert mat[colw][colw] == d
                    pm = m.index.get(cb._flip_label_one(w) if i == 0
                                     else cb._swap_labels(w, i))
                    if pm is not None:
                        rad = -(d - lam) * (d + lam.inv())
                        assert mat[pm][colw] * mat[colw][pm] == rad

    def test_non_skew_rejected(self):
        region = rg.LocalRegion((0,), frozenset(), PARAMS)
        with pytest.raises(cb.CalibError):
            cb.build_module(cb.ModuleSpec(region))

    def test_gamma0_satisfies_pw_relation(self):
        # gamma_0 = z / (gamma_1 ... gamma_k) = z (-1)^k u^(-2 sum_j wc_j)
        # on each filling, for j = 1..k
        z = Scalar.monomial(u=5)
        region = rg.LocalRegion((F(7, 2), F(9, 2)), frozenset(), PARAMS)
        m = cb.build_module(cb.ModuleSpec(region))
        for col, w in enumerate(m.basis):
            wc = oracles.wc_vector(m.region, w)
            prod = z * Scalar.monomial(u=-int(2 * sum(wc[j] for j in range(1, m.k + 1))),
                                       coeff=((-1) ** m.k, 0))
            for i in range(1, m.k + 1):
                prod = prod * m.gamma(col, i)
            assert prod == z


class TestPresentation:
    def test_exact_small(self):
        for k in (1, 2):
            for (_l1, l) in sw.level_nodes(SW63, k):
                if sw.zero_multiplicity(SW63, k, l):
                    continue
                rep = cb.check_presentation(two_row_module(k, l), exact=True)
                assert rep["passed"], (k, l, rep["witness"])

    def test_modular_k3(self):
        m = two_row_module(3, 2)
        rep = cb.check_presentation(m, trials=4, seed=3)
        assert rep["passed"] and rep["mode"] == "modular"

    def test_zero_trials_rejected(self):
        m = two_row_module(3, 2)
        for trials in (0, -1):
            with pytest.raises(cb.CalibError):
                cb.check_presentation(m, trials=trials)

    def test_bad_trials_refused_before_drawing(self, monkeypatch):
        # 2.5 trials used to run 3 and report "trials": 2.5
        monkeypatch.setattr(cb, "random_prime", lambda *_: pytest.fail("drew a prime"))
        m = two_row_module(3, 2)
        for trials in (2.5, "3", None):
            with pytest.raises(cb.CalibError, match="trials >= 1"):
                cb.check_presentation(m, trials=trials, exact=False)

    def test_small_prime_bits_refused_before_drawing(self, monkeypatch):
        # no prime p = 1 (mod 4) is below 4: prime_bits = 2 used to hang
        monkeypatch.setattr(cb, "random_prime", lambda *_: pytest.fail("drew a prime"))
        m = two_row_module(3, 2)
        for bits in (2, 1, 0, -5, 12.0):
            with pytest.raises(cb.CalibError, match="prime_bits"):
                cb.check_presentation(m, trials=2, exact=False, prime_bits=bits)
        assert cb.check_presentation(m, exact=True, prime_bits=2)["passed"]

    def test_perturbed_module_fails_quadratic(self):
        for at_zero in (False, True):
            m = two_row_module(2, 2)
            t1 = m.T[1]
            row, col = next((r, c) for r in range(m.n) for c in range(m.n)
                            if r != c and (c not in t1[r]) == at_zero)
            t1[row][col] = cb.mat_entry(t1, row, col) + (U if at_zero else ONE)
            rep = cb.check_presentation(m, exact=True)
            assert not rep["passed"]
            assert rep["witness"] is not None
            failing = [name for name, ok in rep["relations"].items() if not ok]
            assert any(name.startswith("H:") for name in failing)

    def test_modular_witness_replays(self):
        for at_zero in (False, True):
            m = perturbed_module(3, 2, at_zero)
            rep = cb.check_presentation(m, trials=2, seed=5)
            assert rep["mode"] == "modular" and not rep["passed"]
            witness = rep["witness"]
            # the first trial's point, drawn from the seed, is where it failed
            rng = random.Random(5)
            p = random_prime(62, rng)
            assert (witness["trial"], witness["p"], witness["point"]) == \
                (0, p, random_point(p, rng))
            assert replays(m, witness)


class TestBernsteinForm:
    """C1 and C2 are checked without dividing.  The seminormal diagonals
    they were once checked against, (u - 1/u)(g_i - g_(i+1)) /
    (1 - g_i/g_(i+1)) and ((u0 - 1/u0) + (uk - 1/uk)/g_1)(g_1 - 1/g_1) /
    (1 - g_1^-2), are exactly the terms of the inverse-free forms."""

    @staticmethod
    def modules():
        mods = [two_row_module(k, l) for k in (1, 2, 3, 4)
                for (_l1, l) in sw.level_nodes(SW63, k)
                if not sw.zero_multiplicity(SW63, k, l)]
        mods += [cb.build_module(cb.ModuleSpec(r))
                 for r in rg.enumerate_regions(2, PARAMS, F(5)) if rg.is_skew(r)]
        assert len(mods) == 25 + 34
        return mods

    def test_seminormal_diagonals_are_the_inverse_free_terms(self):
        for m in self.modules():
            fu, f0, fk = shifts(m)
            for col in range(m.n):
                g = [m.gamma(col, j) for j in range(1, m.k + 1)]
                for x, y in zip(g, g[1:]):
                    assert fu * (x - y) / (ONE - x / y) == -fu * y, m.region
                g1 = g[0]
                old = (f0 + fk / g1) * (g1 - g1.inv()) / (ONE - g1 ** -2)
                assert old == f0 * g1 + fk, m.region

    def test_perturbed_weight_fails_its_cross_relation(self):
        # W_1 is checked by C2 and W_2 by the C1 pair; both stay exact
        for w, relation in ((0, "C2:T0W1"), (1, "C1:T1W2")):
            m = two_row_module(2, 2)
            m.W[w][0][0] = m.W[w][0][0] * U
            failing = [name for name, ok in
                       cb.check_presentation(m, exact=True)["relations"].items()
                       if not ok]
            assert relation in failing, failing


class TestOnePass:
    """All trials in one pass over the product of their primes must report
    what the trial-by-trial loop reports, down to the witness, the primes
    and the number of discarded points."""

    @staticmethod
    def modules():
        mods = [two_row_module(3, l) for (_l1, l) in sw.level_nodes(SW63, 3)
                if not sw.zero_multiplicity(SW63, 3, l)]
        return mods + [perturbed_module(3, 2), perturbed_module(3, 2, at_zero=True)]

    def test_equals_trial_by_trial_loop(self):
        discarded = repeated = witnesses = 0
        for m in self.modules():
            # 23 trials take three passes of at most ten primes
            for seed, trials in [(s, 10) for s in range(5)] + [(5, 23)]:
                for bits in (62, 12):
                    args = dict(trials=trials, seed=seed, prime_bits=bits)
                    ref = reference_presentation(m, **args)
                    rep = cb.check_presentation(m, exact=False, **args)
                    assert rep.pop("reduced") == (reduced_names(3) if rep["passed"] else [])
                    assert rep == ref, (m.region, seed, bits)
                    if bits == 12:
                        discarded += rep["discarded"]
                        repeated += len(set(rep["primes"])) < len(rep["primes"])
                    witness = rep["witness"]
                    if witness is not None:
                        witnesses += 1
                        assert rep["primes"][witness["trial"]] == witness["p"]
                        assert replays(m, witness)
        # 12-bit primes exercise the discarding and the second pass
        assert discarded and repeated
        assert witnesses == 2 * 6 * 2

    def test_witness_skips_a_passing_trial(self):
        # T_1 moved by the first trial's prime q is wrong everywhere but mod q,
        # so the first trial passes and the witness names a later one
        q = random_prime(12, random.Random(0))
        m = two_row_module(3, 2)
        t1 = m.T[1]
        row, col = next((r, c) for r in range(m.n) for c in t1[r] if r != c)
        t1[row][col] = t1[row][col] + Scalar.from_int(q)
        rep = cb.check_presentation(m, trials=10, seed=0, prime_bits=12)
        assert rep.pop("reduced") == []
        assert rep == reference_presentation(m, 10, 0, 12)
        assert rep["primes"][0] == q and not rep["passed"]
        assert rep["witness"]["trial"] == rep["primes"].index(
            next(p for p in rep["primes"] if p != q))

    def test_each_group_runs_once(self, monkeypatch):
        # with seed 32, the second of four passes discards a point: the
        # first pass is not run again, and the report is the loop's
        args = dict(trials=23, seed=32, prime_bits=12)
        m = two_row_module(3, 2)
        groups, passed = [], []
        crt_ring, failing = cb._crt_ring, cb._failing

        def key(p, point):
            return p, tuple(sorted(point.items()))

        def recording_crt(cands):
            groups.append(tuple(key(*c) for c in cands))
            return crt_ring(cands)

        def recording_failing(lifted):
            out = failing(lifted)
            passed.append(groups[-1])
            return out

        monkeypatch.setattr(cb, "_crt_ring", recording_crt)
        monkeypatch.setattr(cb, "_failing", recording_failing)
        points, discarded, _, _ = cb._modular_trials(m, 23, random.Random(32), 12)
        assert discarded and groups[0] in passed and groups[1] not in passed
        assert len(set(groups)) == len(groups)
        assert sorted(c for g in passed for c in g) == sorted(key(*c) for c in points)
        monkeypatch.undo()
        rep = cb.check_presentation(m, exact=False, **args)
        assert rep.pop("reduced") == reduced_names(3)
        assert rep == reference_presentation(m, **args)
        assert rep["primes"] == [p for p, _ in points]

    def test_too_many_unusable_points(self, monkeypatch):
        # a point that never works ends the check with CalibError, as the
        # trial-by-trial loop did after 20 consecutive unusable points
        def never(x, p, point):
            raise EvalRetry("forced", 0)
        monkeypatch.setattr(cb, "eval_mod", never)
        with pytest.raises(cb.CalibError):
            cb.check_presentation(two_row_module(3, 2), trials=3, seed=1)


class TestRingGenericPath:
    """The GF(p) path lifts the module's own matrices: it must agree with
    entrywise evaluation of the exact ones, and with the exact verdicts."""

    @staticmethod
    def points(count, seed):
        rng = random.Random(seed)
        for _ in range(count):
            p = random_prime(62, rng)
            yield p, random_point(p, rng)

    def test_lifted_matrices_are_evaluated_exact_matrices(self):
        for l in (1, 2):
            m = two_row_module(3, l)
            for p, point in self.points(2, seed=l):
                def red(mat):
                    # rows of nonzero residues, as the lifted matrices store them
                    return [{c: v for c, x in row.items()
                             if (v := eval_mod(x, p, point))} for row in mat]
                env = m.over(cb.ModRing(p, point))
                assert env.T == {i: red(t) for i, t in m.T.items()}
                assert env.W == [red(w) for w in m.W]
                assert env.tk_matrix() == red(m.tk_matrix())

    def test_exact_and_modular_verdicts_agree(self):
        modules = [two_row_module(k, l) for k in (1, 2)
                   for (_l1, l) in sw.level_nodes(SW63, k)
                   if not sw.zero_multiplicity(SW63, k, l)]
        modules += [perturbed_module(2, 2), perturbed_module(2, 2, at_zero=True)]
        for m in modules:
            exact = cb.check_presentation(m, exact=True)
            modular = cb.check_presentation(m, exact=False, trials=2, seed=4)
            assert exact["relations"] == modular["relations"], m.region
            assert exact["passed"] == (m not in modules[-2:])


# The module construction and the lift as they were before the seminormal
# entries were shared per spec and the lift took one inverse: the oracles
# for both.

def reference_t_matrices(m):
    """Each T_i from the seminormal formula at each filling's own gamma
    values, the diagonal and the radicand computed filling by filling."""
    out = {}
    fu, f0, fk = shifts(m)
    for i in range(m.k):
        lam = m.spec.specialize(U0) if i == 0 else U
        mat = [{} for _ in range(m.n)]
        for col, w in enumerate(m.basis):
            wc = oracles.wc_vector(m.region, w)
            gamma = {j: -Scalar.monomial(u=int(2 * wc[j])) for j in wc}
            if i == 0:
                g1i = gamma[1].inv()
                d = (f0 + fk * g1i) / (ONE - g1i * g1i)
                up = wc[1] < 0
            else:
                d = fu / (ONE - gamma[i] * gamma[i + 1].inv())
                up = wc[i] < wc[i + 1]
            mat[col][col] = d
            pm = m.index.get(cb._flip_label_one(w) if i == 0 else cb._swap_labels(w, i))
            if pm is not None:
                mat[pm][col] = ONE if up else -(d - lam) * (d + lam.inv())
        out[i] = [{c: x for c, x in row.items() if not x.is_zero()} for row in mat]
    return out


def entrywise_lift(m, ring):
    """T and W lifted into the ring one distinct entry at a time, T before
    W, so a bad point raises at the first entry that has no value there;
    then each shift and its negative, by `eval_mod` one by one."""
    lift = functools.cache(ring.lift)

    def lift_matrix(mat):
        return [ring.row({j: lift(x) for j, x in row.items()}) for row in mat]

    return ({i: lift_matrix(t) for i, t in m.T.items()}, [lift_matrix(w) for w in m.W],
            [(ring.lift(x), ring.lift(-x)) for x in shifts(m)])


def outcome(f, *args):
    """f(*args), or ("retry", residue) where it raises EvalRetry."""
    try:
        return f(*args)
    except EvalRetry as exc:
        return ("retry", exc.residue)


class TestSharedSeminormalEntries:
    """Modules read their seminormal entries from one cache keyed by the
    local content and the boundary images; every T_i must equal the
    filling-by-filling formula."""

    def test_tensor_space_modules(self):
        count = 0
        for k in range(1, 6):
            for (_l1, l) in sw.level_nodes(SW63, k):
                if not sw.zero_multiplicity(SW63, k, l):
                    m = two_row_module(k, l)
                    assert m.T == reference_t_matrices(m), (k, l)
                    count += 1
        assert count == 33

    def test_rank2_charts(self):
        for r1, r2, bound, size in ((F(3, 2), F(11, 2), 7, 71), (1, 4, 5, 40)):
            regions = skew_regions(2, r1, r2, bound)
            assert len(regions) == size
            for region in regions:
                m = cb.build_module(cb.ModuleSpec(region))
                assert m.T == reference_t_matrices(m), region

    def test_branches(self):
        # the two branches specialize u0 and uk to different images, so they
        # share no T_0 entry
        for k, l in ((2, 2), (3, 2), (4, 3)):
            plus = two_row_module(k, l)
            minus = cb.build_module(cb.ModuleSpec(plus.region, branch=-1))
            assert minus.T == reference_t_matrices(minus)
            assert minus.T[0] != plus.T[0] and minus.T[1] == plus.T[1]

    def test_errors_name_the_filling(self, monkeypatch):
        # a non-skew region reaches the seminormal formula with the skew
        # check passed over: label 1 on the zero diagonal, and coincident
        # neighbours
        monkeypatch.setattr(rg, "is_skew", lambda region: True)
        for c in ((0,), (F(1, 2), F(1, 2))):
            region = rg.LocalRegion(c, frozenset(), PARAMS)
            config = rg.build_config(region)
            fillings = rg.enumerate_fillings(config)
            with pytest.raises(cb.CalibError, match=r" at \(") as exc:
                cb.build_module(cb.ModuleSpec(region))
            assert any(str(w) in str(exc.value) for w in fillings)


    def test_w_entries_shared(self):
        # gamma = -u^(2wc) comes from one cache keyed by the doubled content:
        # every module that meets a content holds the same W entry object
        held, modules = {}, {}
        for k, l in ((2, 2), (3, 2), (3, 3), (4, 3)):
            m = two_row_module(k, l)
            for row, contents in enumerate(rg.filling_contents(m.config)):
                for j, c in enumerate(contents):
                    entry = m.W[j][row][row]
                    assert entry == -Scalar.monomial(u=c)
                    assert held.setdefault(c, entry) is entry, (k, l, c)
                    modules.setdefault(c, set()).add((k, l))
        assert max(len(v) for v in modules.values()) > 1


class TestBatchedLift:
    """`over` lifts the distinct entries of T and W and the three shifts
    with one inverse; the lifted matrices and shifts, and at a bad point the
    EvalRetry residue, must be the entry-by-entry lift's."""

    @staticmethod
    def modules():
        return [two_row_module(k, l) for k, l in ((2, 1), (3, 2), (4, 3), (5, 4))]

    @staticmethod
    def lifted(m, ring):
        # over a ring of its own, which keeps what `over` lifts, so that the
        # entrywise oracle on `ring` evaluates every entry afresh
        ring = cb.ModRing(ring.p, ring.point)
        out = m.over(ring)
        return out.T, out.W, [(ring._kept[x], ring._kept[-x]) for x in shifts(m)]

    def test_equals_entrywise_lift(self):
        rng = random.Random(31)
        retries = 0
        for m in self.modules():
            for bits, count in ((62, 2), (12, 20), (8, 10)):
                for _ in range(count):
                    cands = []
                    while len(cands) < 3:
                        p = random_prime(bits, rng)
                        if p not in [q for q, _ in cands]:
                            cands.append((p, random_point(p, rng)))
                    # each candidate alone, then all three over the CRT ring
                    rings = [cb.ModRing(p, pt) for p, pt in cands] + [cb._crt_ring(cands)]
                    for ring in rings:
                        got = outcome(self.lifted, m, ring)
                        assert got == outcome(entrywise_lift, m, ring), (m.region, ring.p)
                        retries += got[0] == "retry"
        assert retries > 10

    def test_vanishing_denominator_keeps_the_residue(self):
        # a point where some denominators vanish mod p, alone and combined
        # with two usable points: the residue is the one of the first entry
        # without a value, as entrywise, and only p divides it
        m = two_row_module(3, 2)
        rng = random.Random(2)

        def fails(p, point):
            return outcome(entrywise_lift, m, cb.ModRing(p, point))[0] == "retry"

        p = random_prime(12, rng)
        point = random_point(p, rng)
        bad = next(dict(point, u=u) for u in range(2, p - 1) if fails(p, dict(point, u=u)))
        good = []
        while len(good) < 2:
            q = random_prime(12, rng)
            if q != p and q not in [g for g, _ in good] and not fails(q, pt := random_point(q, rng)):
                good.append((q, pt))
        entries = list(dict.fromkeys(
            x for mat in (*m.T.values(), *m.W) for row in mat for x in row.values()))
        for ring in (cb.ModRing(p, bad), cb._crt_ring(good + [(p, bad)])):
            got = outcome(self.lifted, m, ring)
            assert got[0] == "retry" and got[1] % p == 0
            assert ring.p == p or all(got[1] % q for q, _ in good)
            assert got == outcome(entrywise_lift, m, ring)
            assert outcome(ring.lift_many, entries) == \
                outcome(lambda: [ring.lift(x) for x in entries])

    def test_tensor_space_modules_in_a_crt_ring(self):
        # each distinct denominator is evaluated once, and the residue of u
        # joins the batch: every nonzero (6,3) module with k <= 5 still
        # lifts as entry by entry, over the product of two 62-bit primes
        rng = random.Random(17)
        p = random_prime(62, rng)
        q = random_prime(62, rng)
        ring = cb._crt_ring([(p, random_point(p, rng)), (q, random_point(q, rng))])
        mods = [m for k in range(1, 6) for m in TestRelationsAsWords.nonzero_modules(k)]
        assert len(mods) == 33 and p != q
        for m in mods:
            assert self.lifted(m, ring) == entrywise_lift(m, ring), m.region

    def test_one_inverse_per_pass(self, monkeypatch):
        # every coefficient a presentation pass reads is in the batch
        calls = []

        def counting(x, p):
            calls.append(x)
            return pow(x, -1, p)

        monkeypatch.setattr(cb, "_inv_mod", counting)
        monkeypatch.setattr(sc, "_inv_mod", counting)
        rng = random.Random(5)
        for m in self.modules():
            p = random_prime(62, rng)
            ring = cb.ModRing(p, random_point(p, rng))
            calls.clear()
            assert cb._failing(m.over(ring))[0] == [] and len(calls) == 1, m.region

    def test_kept_lifts_are_dropped_past_the_bound(self, monkeypatch):
        # a miss with `_KEPT` lifts kept drops them all, and a batch may
        # pass the bound until the next one; every value, kept or not, is
        # eval_mod's
        monkeypatch.setattr(cb, "_KEPT", 4)
        rng = random.Random(8)
        p = random_prime(62, rng)
        ring = cb.ModRing(p, random_point(p, rng))
        xs = [qint(j) / qint(j + 1) for j in range(1, 13)]
        want = [eval_mod(x, p, ring.point) for x in xs]
        assert ring.lift_many(xs[:3]) == want[:3] and len(ring._kept) == 3
        assert [ring.lift(x) for x in xs[3:5]] == want[3:5]
        assert list(ring._kept) == [xs[4]]
        assert ring.lift_many(xs[:8]) == want[:8] and len(ring._kept) == 8
        assert ring.lift_many(xs) == want and len(ring._kept) == 12
        assert ring.lift(xs[0]) == want[0] and len(ring._kept) == 12

    def test_exact_lift_is_the_identity(self):
        m = two_row_module(3, 2)
        out = m.over(cb.EXACT)
        assert out.T == m.T and out.W == m.W
        assert all(out._coeff(cb._SHIFT[v]) == x and out._coeff(-cb._SHIFT[v]) == -x
                   for v, x in zip((U, U0, UK), shifts(m)))
        entries = [x for row in m.T[1] for x in row.values()]
        assert cb.EXACT.lift_many(entries) == entries


class TestRelationsAsWords:
    """The relations written as generator words give the tag interpreter's
    verdict on every relation, in the same order: exactly at k <= 2, at two
    seeded GF(p) points for k <= 5, and on both kinds of perturbed module."""

    @staticmethod
    def nonzero_modules(k):
        return [two_row_module(k, l) for (_l1, l) in sw.level_nodes(SW63, k)
                if not sw.zero_multiplicity(SW63, k, l)]

    @staticmethod
    def assert_agree(m, ring=cb.EXACT):
        got = word_verdicts(m, ring)
        env = ReferenceEnv(m, ring)
        assert got == [(name, reference_check(env, tag))
                       for name, tag in reference_tags(m)], m.region
        return got

    @staticmethod
    def rings(seed):
        rng = random.Random(seed)
        for _ in range(2):
            p = random_prime(62, rng)
            yield cb.ModRing(p, random_point(p, rng))

    def test_exact_k_le_2(self):
        mods = self.nonzero_modules(1) + self.nonzero_modules(2)
        assert mods
        for m in mods:
            assert all(ok for _, ok in self.assert_agree(m)), m.region

    def test_two_points_k_le_5(self):
        for k in range(1, 6):
            for m in self.nonzero_modules(k):
                for ring in self.rings(seed=k):
                    assert all(ok for _, ok in self.assert_agree(m, ring)), m.region

    def test_perturbed_modules(self):
        for at_zero in (False, True):
            verdicts = [self.assert_agree(perturbed_module(2, 2, at_zero))]
            m = perturbed_module(3, 2, at_zero)
            verdicts += [self.assert_agree(m, ring) for ring in self.rings(seed=7)]
            for got in verdicts:
                assert ("H:T1", False) in got


def direct_failing(m):
    """The relation loop of the presentation check before the reduced
    forms: every relation evaluated as written.  The oracle for
    `cb._failing`."""
    return ([name for name, lhs, rhs in cb._relations(m.k)
             if m.evaluate_word(lhs) != m.evaluate_word(rhs)], [])


def tk_factors_mutant(edit):
    tk_factors = cb._tk_factors
    return cb, "_tk_factors", lambda k: edit(*tk_factors(k))


def murphy_mutant():
    # W_1's word C^-1 T_k C without its final T_0
    murphy_word = wd.murphy_word

    def mutant(k, j, inverse=False):
        word = murphy_word(k, j, inverse)
        return word[:-1] if (j, inverse) == (1, False) else word

    return wd, "murphy_word", mutant


def letter_mutant():
    # every inverse letter built as T - (x + 1/x)
    letter = cb.CalibratedModule._letter

    def mutant(self, lt):
        if lt[0] == "T" and lt[-1] == -1 and lt not in self._letters:
            x = wd.letter_data(lt[1])[0]
            self._letters[lt] = cb.mat_shift(letter(self, lt[:-1] + (1,)),
                                             self._coeff(x + x.inv()), self.ring)
        return letter(self, lt)

    return cb.CalibratedModule, "_letter", mutant


def quadratic_tk_mutant():
    # H:Tk written with u0 - 1/u0 in place of uk - 1/uk
    relations = cb._relations

    def mutant(k):
        wrong = cb._SHIFT[U0] * wd.GenExpr.word(k, [wd.Tk]) + ONE
        return tuple((name, lhs, wrong if name == "H:Tk" else rhs)
                     for name, lhs, rhs in relations(k))

    return cb, "_relations", mutant


def drop_first(word, letter):
    j = word.index(letter)
    return word[:j] + word[j + 1:]


# the code the reduced forms rest on, each broken in one place
MUTANTS = {
    "tk_word drops a T1^-1": lambda: tk_factors_mutant(
        lambda c, x, c_inv: (c, x, drop_first(c_inv, wd.T(1, -1)))),
    "tk_word has T0 for T0^-1": lambda: tk_factors_mutant(
        lambda c, x, c_inv: (c, tuple(wd.T0 if lt == wd.T0inv else lt for lt in x), c_inv)),
    "murphy_word(k, 1) drops its T0": murphy_mutant,
    "inverse letters shift by x + 1/x": letter_mutant,
    "H:Tk with u0 - 1/u0": quadratic_tk_mutant,
}


@pytest.fixture
def fresh_relations():
    """`_relations` memoizes per k: a mutant of the words it reads must not
    meet, or leave behind, relations built without it."""
    relations = cb._relations
    relations.cache_clear()
    yield
    relations.cache_clear()


class TestReducedForms:
    """The relations that hold T_k are decided on reduced forms without it
    where the guard allows: every report must be the one of evaluating every
    relation as written, down to the witness and the discarded points."""

    @staticmethod
    def same_as_direct(m, **args):
        rep = cb.check_presentation(m, **args)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cb, "_failing", direct_failing)
            ref = cb.check_presentation(m, **args)
        assert {**rep, "reduced": []} == ref, m.region
        return rep

    @staticmethod
    def checks(k):
        """The nonzero (6,3) modules at level k with the check's arguments:
        exact for k <= 2, ten modular trials above."""
        args = dict(exact=True) if k <= 2 else dict(exact=False, trials=10, seed=k)
        return [(m, args) for m in TestRelationsAsWords.nonzero_modules(k)]

    def test_forms(self):
        k = 4
        x = (wd.W(1), wd.T0inv)
        y = (wd.T(1, -1), wd.T0, wd.T(1))

        def w(*letters):
            return wd.GenExpr.word(k, letters)

        expected = {
            "H:Tk": (w(*x, *x), (UK - UK.inv()) * w(*x) + ONE),
            "ext:TkT1": (w(wd.T(2), *x), w(*x, wd.T(2))),
            "ext:TkT2": (w(wd.T(3), *x), w(*x, wd.T(3))),
            "ext:TkT0": (w(*y, *x), w(*x, *y)),
            "ext:W1word": (w(*x, wd.T0), w(wd.W(1))),
        }
        got = {name: cb._reduced(k, lhs, rhs) for name, lhs, rhs in cb._relations(k)}
        assert {name: form for name, form in got.items() if form} == expected
        assert list(expected) == reduced_names(k)

    def test_quadratic_relations_use_the_inverse_letter(self):
        rels = {name: (lhs, rhs) for name, lhs, rhs in cb._relations(3)}
        one = wd.GenExpr.one(3)
        assert rels["H:T0"] == (wd.GenExpr.word(3, [wd.T0, wd.T0inv]), one)
        assert rels["H:T1"] == (wd.GenExpr.word(3, [wd.T(1), wd.T(1, -1)]), one)
        assert rels["H:T2"] == (wd.GenExpr.word(3, [wd.T(2), wd.T(2, -1)]), one)

    def test_k2_right_wall_braid(self):
        # at k = 2, C = T_1: the braid is conjugated by T_1 letter by letter,
        # and a check whose guard holds never builds T_k
        x = (wd.W(1), wd.T0inv)
        lhs, rhs = next((l, r) for name, l, r in cb._relations(2) if name == "ext:T1TkT1Tk")
        assert cb._reduced(2, lhs, rhs) == (wd.GenExpr.word(2, (wd.T(1), *x, wd.T(1), *x)),
                                            wd.GenExpr.word(2, (*x, wd.T(1), *x, wd.T(1))))
        for k in (1, 2):
            for m, _args in self.checks(k):
                lifted = m.over(cb.EXACT)
                assert cb._failing(lifted) == ([], reduced_names(k))
                assert wd.Tk not in lifted._letters, m.region

    def test_each_relation_evaluated_once(self, monkeypatch):
        # two evaluations per relation and start row: from each of the n
        # unit rows exactly, as rows; from one row and one end column over
        # a CRT ring, as numbers
        m = two_row_module(3, 2)
        calls = []
        evaluate, value = cb.CalibratedModule.evaluate_word, cb.CalibratedModule._value

        def counting(self, expr, row=None):
            calls.append((None if row is None else tuple(sorted(row.items())), None))
            return evaluate(self, expr, row)

        def counting_value(self, expr, row, column):
            calls.append((tuple(sorted(row.items())), tuple(column)))
            return value(self, expr, row, column)

        monkeypatch.setattr(cb.CalibratedModule, "evaluate_word", counting)
        monkeypatch.setattr(cb.CalibratedModule, "_value", counting_value)
        rng = random.Random(4)
        cands = []
        for _ in range(3):
            p = random_prime(62, rng)
            cands.append((p, random_point(p, rng)))
        crt = cb._crt_ring(cands)
        y = crt.point["ak"]
        for ring, starts, column in ((cb.EXACT, m.n, None),
                                     (crt, 1, tuple(pow(y, j, crt.p) for j in range(m.n)))):
            calls.clear()
            assert cb._failing(m.over(ring)) == ([], reduced_names(3))
            assert len({row for row, _ in calls}) == starts and (None, None) not in calls, ring
            assert {col for _, col in calls} == {column}, ring
            assert len(calls) == 2 * len(cb._relations(3)) * starts, ring

    def test_nonzero_modules(self):
        for k in range(1, 6):
            for m, args in self.checks(k):
                rep = self.same_as_direct(m, **args)
                assert rep["passed"] and rep["reduced"] == reduced_names(k), m.region

    def test_perturbed_modules(self):
        # a failing relation leaves the guard unmet: every relation as
        # written.  A rescaled T_i keeps its quadratic relation, so only the
        # failing braid or commutation relations stop the reduced forms,
        # which would pass some relations that fail as written
        modular = dict(trials=10, seed=1)
        cases = [(perturbed_module(2, 2, at_zero), dict(exact=True)) for at_zero in (False, True)]
        cases += [(perturbed_module(3, 2, at_zero), modular) for at_zero in (False, True)]
        cases += [(rescaled_module(3, 2, 2), modular), (rescaled_module(4, 2, 1), modular)]
        for m, args in cases:
            rep = self.same_as_direct(m, **args)
            assert not rep["passed"] and rep["reduced"] == [], m.region

    @pytest.mark.parametrize("mutant", list(MUTANTS))
    def test_mutants_rejected(self, mutant, monkeypatch, fresh_relations):
        monkeypatch.setattr(*MUTANTS[mutant]())
        for k in (2, 3):
            for m, args in self.checks(k):
                assert not self.same_as_direct(m, **args)["passed"], (mutant, m.region)


class TestStartRow:
    """Over Z/P each side D of a relation is evaluated as the number v D w,
    for v = (1, z, ..., z^(n-1)) and w = (1, y, ..., y^(n-1)), z and y the
    point's a0 and ak residues, so a relation that fails mod p is missed
    with probability at most 2(n - 1)/(p - 3).  Each word is v times every
    letter but its last, multiplied out from v one sparse letter at a time,
    dotted with the last letter times w: no product has more than one row,
    and T_k is applied as its word, never built."""

    @staticmethod
    def ring(seed):
        rng = random.Random(seed)
        p = random_prime(62, rng)
        return cb.ModRing(p, random_point(p, rng))

    @staticmethod
    def start_row(m, ring):
        z = ring.point["a0"]
        return ring.row({j: pow(z, j, ring.p) for j in range(m.n)})

    def test_v_times_each_side(self):
        # every side of every relation as written, T_k words included, in
        # one copy, so later words start from kept prefixes; then from
        # another start row, and from the first again
        ring = self.ring(11)
        for k in (3, 4):
            for m in TestRelationsAsWords.nonzero_modules(k):
                rows, whole = m.over(ring), m.over(ring)
                v = self.start_row(m, ring)
                for start in (v, {m.n - 1: ring.one}, v):
                    for name, lhs, rhs in cb._relations(k):
                        for side in (lhs, rhs):
                            want = cb.mat_mul([start], whole.evaluate_word(side), ring)
                            assert rows.evaluate_word(side, row=start) == want, (m.region, name)
                assert wd.Tk not in rows._letters, m.region

    def test_v_side_w_is_v_side_dotted_with_w(self):
        # the number of every side of every relation as written, against the
        # row v side dotted with w, over one CRT ring; from one column, then
        # another, then the first again, so the kept columns are w's own
        rng = random.Random(13)
        cands = []
        while len(cands) < 3:
            p = random_prime(62, rng)
            cands.append((p, random_point(p, rng)))
        ring = cb._crt_ring(cands)
        y = ring.point["ak"]
        for k in (3, 4):
            for m in TestRelationsAsWords.nonzero_modules(k):
                values, rows = m.over(ring), m.over(ring)
                v = self.start_row(m, ring)
                w = [pow(y, j, ring.p) for j in range(m.n)]
                for column in (w, [ring.one] + [0] * (m.n - 1), w):
                    for name, lhs, rhs in cb._relations(k):
                        for side in (lhs, rhs):
                            row, = rows.evaluate_word(side, row=v)
                            want = sum(x * column[j] for j, x in row.items()) % ring.p
                            assert values._value(side, v, column) == want, (m.region, name)
                assert wd.Tk not in values._letters, m.region

    def test_lifts_read_neither_a0_nor_ak(self):
        # the premise of both miss bounds, z and y independent of what v and
        # w test: two rings that differ only in their a0 and ak residues lift
        # every nonzero (6,3) module with k <= 5 alike, and no relation
        # coefficient reads a0 or ak
        rng = random.Random(14)
        cands = [(p, random_point(p, rng)) for p in (random_prime(62, rng), random_prime(62, rng))]
        ring = cb._crt_ring(cands)
        other = cb.ModRing(ring.p, {**ring.point, "a0": ring.point["a0"] + 1,
                                    "ak": ring.point["ak"] + 1})
        count = 0
        for k in range(1, 6):
            for m in TestRelationsAsWords.nonzero_modules(k):
                a, b = m.over(ring), m.over(other)
                assert (a.T, a.W) == (b.T, b.W), m.region
                assert ring._kept == other._kept, m.region
                assert all(x in ring._kept and -x in ring._kept for x in shifts(m))
                count += 1
        assert count == 33
        banned = {sc.VAR_INDEX["a0"], sc.VAR_INDEX["ak"]}
        for k in range(1, 8):
            for name, lhs, rhs in cb._relations(k):
                for c in (*lhs.terms.values(), *rhs.terms.values()):
                    # the denominator is in u alone
                    assert banned.isdisjoint(c.num.variables()), name

    def test_one_row_products_only(self, monkeypatch):
        # passing modules read the reduced forms; failing ones evaluate the
        # T_k relations as written, and replay a witness at its own prime
        mods = TestRelationsAsWords.nonzero_modules(3) + TestRelationsAsWords.nonzero_modules(4)
        mods += [perturbed_module(3, 2), rescaled_module(4, 2, 1)]
        mat_mul, letter = cb.mat_mul, cb.CalibratedModule._letter
        left_rows, letters = set(), set()

        def recording_mul(a, b, ring=cb.EXACT):
            left_rows.add(len(a))
            return mat_mul(a, b, ring)

        def recording_letter(self, lt):
            letters.add(lt)
            return letter(self, lt)

        monkeypatch.setattr(cb, "mat_mul", recording_mul)
        monkeypatch.setattr(cb.CalibratedModule, "_letter", recording_letter)
        passed = [cb.check_presentation(m, exact=False, trials=10, seed=2)["passed"]
                  for m in mods]
        assert passed == [True] * (len(mods) - 2) + [False, False]
        assert left_rows == {1}
        assert wd.Tk not in letters and wd.T(1) in letters

    def test_prefixes_are_shared(self, monkeypatch):
        # from one v, a word makes one product per letter not in a prefix
        # already multiplied out, T_k counting as its 2k letters
        ring = self.ring(12)
        m = two_row_module(4, 2).over(ring)
        v = self.start_row(m, ring)
        mat_mul, products = cb.mat_mul, []

        def counting(*args):
            products.append(args)
            return mat_mul(*args)

        monkeypatch.setattr(cb, "mat_mul", counting)
        for letters, made in (((wd.T(1), wd.T(2), wd.T(1)), 3), ((wd.T(1), wd.T(2), wd.T(1)), 0),
                              ((wd.T(1), wd.T(2), wd.T(1), wd.T(3)), 1), ((wd.T(1), wd.T(3)), 1),
                              ((wd.Tk, wd.T(3)), 9), ((wd.Tk,), 0), ((), 0)):
            products.clear()
            got = m.evaluate_word(wd.GenExpr.word(4, letters), row=v)
            assert len(products) == made and len(got) == 1, letters

    def test_no_entry_reads_a0_or_ak(self):
        # the premise of the miss bound: z is independent of what v tests
        banned = {sc.VAR_INDEX["a0"], sc.VAR_INDEX["ak"]}
        count = 0
        for k in range(1, 6):
            coeffs = [c for _, lhs, rhs in cb._relations(k) for side in (lhs, rhs)
                      for c in side.terms.values()]
            for m in TestRelationsAsWords.nonzero_modules(k):
                entries = [x for mat in (*m.T.values(), *m.W) for row in mat
                           for x in row.values()]
                entries += [*shifts(m), *map(m.spec.specialize, coeffs)]
                for x in entries:  # the denominator is in u alone
                    assert banned.isdisjoint(x.num.variables()), x
                count += len(entries)
        assert count == 4906

    @pytest.mark.parametrize("mutant", list(MUTANTS))
    def test_mutants_rejected_at_k4_and_k5(self, mutant, monkeypatch, fresh_relations):
        monkeypatch.setattr(*MUTANTS[mutant]())
        for k in (4, 5):
            for m, args in TestReducedForms.checks(k):
                assert not cb.check_presentation(m, **args)["passed"], (mutant, m.region)

    def test_perturbed_t_k_minus_1_at_k5(self):
        # T_(k-1) is the letter the right-wall braid holds next to T_k
        for at_zero in (False, True):
            m = perturbed_module(5, 2, at_zero, i=4)
            rep = cb.check_presentation(m, trials=10, seed=5)
            assert not rep["passed"] and rep["reduced"] == []
            assert not rep["relations"]["ext:T4TkT4Tk"]
            assert not rep["relations"][rep["witness"]["relation"]]
            assert replays(m, rep["witness"])


class TestEvaluateWord:
    def test_murphy_word_is_diagonal_gamma(self):
        m = two_row_module(2, 2)
        got = m.evaluate_word(wd.murphy_expr(2, 1))
        assert got == m.W[0]
        got2 = m.evaluate_word(wd.murphy_expr(2, 2))
        assert got2 == m.W[1]

    def test_quadratic_on_matrices(self):
        m = two_row_module(2, 1)
        t1 = wd.GenExpr.word(2, [wd.T(1)])
        lhs = m.evaluate_word(t1 * t1)
        rhs = cb.mat_add(cb.mat_scale(m.evaluate_word(t1), U - U.inv()),
                         identity(m.n))
        assert lhs == rhs

    def test_central_word_is_scalar(self):
        m = two_row_module(2, 2)
        zmat = m.evaluate_word(wd._z_expr(2))
        z0 = zmat[0][0]
        assert zmat == cb.mat_scale(identity(m.n), z0)


class TestWordProducts:
    """A word's product is the chain of its letter matrices multiplied left
    to right, over either ring."""

    @staticmethod
    def chain(m, word):
        mat = m._letter(word[0])
        for letter in word[1:]:
            mat = cb.mat_mul(mat, m._letter(letter), m.ring)
        return mat

    @staticmethod
    def modular():
        rng = random.Random(7)
        p = random_prime(62, rng)
        return cb.ModRing(p, random_point(p, rng))

    def test_products_are_the_plain_chain(self, monkeypatch):
        # from one start row, a word of L letters, T_k counting as its 2k,
        # makes L products; the whole matrix takes the n unit rows in turn
        modular = self.modular()
        mat_mul, products = cb.mat_mul, []

        def counting(*args):
            products.append(args)
            return mat_mul(*args)

        for k, l in ((3, 2), (4, 1)):
            rels = {name: (lhs, rhs) for name, lhs, rhs in cb._relations(k)}
            exprs = [*rels["ext:T%dTkT%dTk" % (k - 1, k - 1)], rels["B1:T0T1T0T1"][0]]
            for ring in (cb.EXACT, modular):
                m = two_row_module(k, l).over(ring)
                for expr in exprs:
                    (word,) = expr.terms
                    want = self.chain(m, word)
                    length = sum(2 * k if letter == wd.Tk else 1 for letter in word)
                    with monkeypatch.context() as mp:
                        mp.setattr(cb, "mat_mul", counting)
                        products.clear()
                        assert m.evaluate_word(expr) == want, (k, ring, word)
                        assert len(products) == m.n * length, (k, ring)
                        for r in range(m.n):
                            products.clear()
                            got = m.evaluate_word(expr, {r: ring.one})
                            assert got == [want[r]], (k, ring, r)
                            assert len(products) == length, (k, ring, r)

    def test_letter_built_inside_a_word(self, monkeypatch):
        # the first E_k of a word builds T_k, the product of its word's
        # letter matrices, in the middle of that word's loop from v, without
        # touching the prefix memo: that word and the next one from v are
        # still v times the chain of letter matrices, and the next one
        # multiplies only its letters past the prefix (T1, E_k) the two share
        mat_mul, products = cb.mat_mul, []

        def counting(*args):
            products.append(args)
            return mat_mul(*args)

        words = [(wd.T(1), wd.Ek, wd.T(2)), (wd.T(1), wd.Ek, wd.T0, wd.W(2))]
        for ring in (cb.EXACT, self.modular()):
            fresh = two_row_module(3, 2).over(ring)
            chains = [self.chain(fresh, word) for word in words]
            for v in ({j: ring.lift(Scalar.from_int(j + 2)) for j in range(fresh.n)},
                      {fresh.n - 1: ring.one}):
                m = two_row_module(3, 2).over(ring)
                for word, chain in zip(words, chains):
                    products.clear()
                    with monkeypatch.context() as mp:
                        mp.setattr(cb, "mat_mul", counting)
                        got = m.evaluate_word(wd.GenExpr.word(3, word), v)
                    assert got == cb.mat_mul([v], chain, ring), (ring, v, word)
                assert len(products) == 2, (ring, v)
                assert wd.Ek in m._letters, (ring, v)


class TestIdempotents:
    # the region below keeps every boundary idempotent nonzero
    FULL_REGION = (F(5, 2), F(9, 2))

    def test_eigenconditions_and_idempotency(self):
        region = rg.LocalRegion(self.FULL_REGION, frozenset(), PARAMS)
        m = cb.build_module(cb.ModuleSpec(region))
        u, u0s = U, m.spec.specialize(U0)
        for name, t0_eig in (("p0_e12", -u0s.inv()), ("p0_12e", u0s)):
            num, norm = oracles.boundary_idempotent(name, 2)
            p = cb.mat_scale(m.evaluate_word(num), m.spec.specialize(norm).inv())
            assert not is_zero(p)
            assert cb.mat_mul(p, p) == p, name
            t0p = cb.mat_mul(m.T[0], p)
            assert t0p == cb.mat_scale(p, t0_eig), name
            t1p = cb.mat_mul(m.T[1], p)
            assert t1p == cb.mat_scale(p, -u.inv()), name

    def test_inner_eigenconditions_and_idempotency(self):
        # p_i_111 = (N p_i_111) / N on the first rank-3 and rank-4 chart
        # regions where it is nonzero: an idempotent on which T_i and
        # T_(i+1) both act by -1/u
        norm = oracles.normalizer("N")
        for k in (3, 4):
            found = 0
            for region in skew_regions(k, F(3, 2), F(11, 2), 5):
                m = cb.build_module(cb.ModuleSpec(region))
                for i in range(1, k - 1):
                    num = m.evaluate_word(wd.inner_numerator(k, i))
                    if is_zero(num):
                        continue
                    found += 1
                    p = cb.mat_scale(num, norm.inv())
                    assert cb.mat_mul(p, p) == p, (region, i)
                    for j in (i, i + 1):
                        assert cb.mat_mul(m.T[j], p) == cb.mat_scale(p, -U.inv()), (region, i)
                if found >= 3:
                    break
            assert found >= 3, k

    def test_wall_reflected_eigenconditions(self):
        region = rg.LocalRegion(self.FULL_REGION, frozenset(), PARAMS)
        m = cb.build_module(cb.ModuleSpec(region))
        uks = m.spec.specialize(UK)
        t0v = cb.mat_mul(m.W[0], m.t_inv(0))
        for name, eig in (("p0v_e12", -uks.inv()), ("p0v_12e", uks)):
            num, norm = oracles.boundary_idempotent(name, 2)
            p = cb.mat_scale(m.evaluate_word(num), m.spec.specialize(norm).inv())
            assert not is_zero(p)
            assert cb.mat_mul(p, p) == p, name
            assert cb.mat_mul(t0v, p) == cb.mat_scale(p, eig), name
            assert cb.mat_mul(m.T[1], p) == cb.mat_scale(p, -U.inv()), name

    def test_pair_differences_match_relators(self):
        rng = random.Random(1)
        regions = [r for r in rg.enumerate_regions(2, PARAMS, 4)
                   if rg.is_skew(r)]
        for region in rng.sample(regions, 5):
            m = cb.build_module(cb.ModuleSpec(region))
            ne, _ = oracles.boundary_idempotent("p0_e12", 2)
            nt, _ = oracles.boundary_idempotent("p0_12e", 2)
            delta = m.evaluate_word(nt - ne)
            f0 = m.evaluate_word(wd.f_element("F0", 2))
            assert delta == cb.mat_scale(f0, m.spec.specialize(bb("t0")))
            nev, _ = oracles.boundary_idempotent("p0v_e12", 2)
            ntv, _ = oracles.boundary_idempotent("p0v_12e", 2)
            deltav = m.evaluate_word(ntv - nev)
            f0v = m.evaluate_word(wd.f_element("F0v", 2))
            assert deltav == cb.mat_scale(f0v, m.spec.specialize(bb("tk")))

    def test_nullity_modes_agree(self):
        # the relator form idempotent_nullity evaluates agrees with the
        # idempotent words themselves
        region = rg.LocalRegion((F(3, 2), F(5, 2)), frozenset({("e", 1)}), PARAMS)
        m = cb.build_module(cb.ModuleSpec(region))
        vanish = cb.idempotent_nullity(m)["vanish"]
        n_e12, _ = oracles.boundary_idempotent("p0_e12", 2)
        n_12e, _ = oracles.boundary_idempotent("p0_12e", 2)
        assert vanish["p0_pair"] == is_zero(m.evaluate_word(n_12e - n_e12))

    def test_two_row_modules_pass(self):
        for l in (1, 2, 3):
            m = two_row_module(2, l)
            rep = cb.idempotent_nullity(m)
            assert rep["is_tl_module"]
            relators = [wd.f_element("F0", 2), oracles.f_k(2), wd.f_element("F0v", 2)]
            assert all(is_zero(m.evaluate_word(expr)) for expr in relators)

    def test_marked_corner_region_fails(self):
        # weights on both marked diagonals (a non-blue chart node)
        region = rg.LocalRegion((F(3, 2), F(11, 2)), frozenset(), PARAMS)
        m = cb.build_module(cb.ModuleSpec(region))
        rep = cb.idempotent_nullity(m)
        assert not rep["is_tl_module"]

    def test_three_boxes_per_sign_acts_nonzero(self, monkeypatch):
        # the small worked configuration is not two-row; its matrices do
        # not annihilate the quotient idempotents (built with the skew
        # check passed over, since its fillings repeat a diagonal two
        # labels apart)
        monkeypatch.setattr(rg, "is_skew", lambda region: True)
        params = rg.RegionParams(1, 3)
        region = rg.LocalRegion((2, 2, 3), frozenset({("d", 2, 3)}), params)
        m = cb.build_module(cb.ModuleSpec(region))
        rep = cb.idempotent_nullity(m)
        assert not rep["vanish"]["p_1_111"]
        assert not rep["is_tl_module"]


def reference_relators(m):
    """The relators idempotent_nullity decides, each built in full, as they
    were before it decided them row by row; F0v is multiplied out in the
    order it had then, through the matrix of W_1 T_0^-1 - uk."""
    out = {}
    for i in range(1, m.k - 1):
        out["p_%d_111" % i] = m.evaluate_word(wd.inner_numerator(m.k, i))
    if m.k >= 2:
        out["p0_pair"] = m.evaluate_word(wd.f_element("F0", m.k))
        a = Scalar.from_int(wd.A_SIGN)
        ae1 = cb.mat_scale(m.e_matrix(1), a)
        v = cb.mat_shift(cb.mat_mul(m.W[0], m.t_inv(0)), m.spec.specialize(UK))
        out["p0v_pair"] = cb.mat_add(cb.mat_mul(cb.mat_mul(ae1, v), ae1),
                                     cb.mat_scale(ae1, -m.spec.specialize(bb("tk/t"))))
    return out


def reference_nullity(m):
    """The oracle: which relators vanish, read off the full matrices."""
    return {name: is_zero(mat) for name, mat in reference_relators(m).items()}


def skew_regions(k, r1, r2, bound):
    params = rg.RegionParams(F(r1), F(r2))
    return [r for r in rg.enumerate_regions(k, params, F(bound)) if rg.is_skew(r)]


class TestRowByRowNullity:
    """idempotent_nullity decides each relator row by row; the verdicts
    equal the full-matrix oracle's, and every row is the full matrix's."""

    def assert_oracle(self, regions):
        """The verdicts equal the oracle's, and every relator the witness
        pass names is non-vanishing by it.  Returns the number of relators
        the witness names and the number that do not vanish."""
        named = nonzero = 0
        for region in regions:
            m = cb.build_module(cb.ModuleSpec(region))
            rep = cb.idempotent_nullity(m)
            want = reference_nullity(m)
            assert rep["vanish"] == want, region
            assert rep["is_tl_module"] == all(want.values()), region
            witnessed = cb._witnessed(m, cb._relators(m.k))
            assert not any(want[name] for name in witnessed), (region, witnessed)
            named += len(witnessed)
            nonzero += sum(not v for v in want.values())
        return named, nonzero

    @pytest.mark.parametrize("r1, r2, count", [(F(3, 2), F(11, 2), 34), (1, 4, 40)])
    def test_rank2_charts_match_oracle(self, r1, r2, count):
        regions = skew_regions(2, r1, r2, 5)
        assert len(regions) == count
        # the witness names every non-vanishing relator of the chart
        nonzero = {34: 48, 40: 54}[count]
        assert self.assert_oracle(regions) == (nonzero, nonzero)

    def test_rank3_sample_matches_oracle(self):
        # all 9 quotient regions of the rank-3 chart at bound 5, and a
        # seeded sample of the others
        regions = skew_regions(3, F(3, 2), F(11, 2), 5)
        quotient = [r for r in regions if rg.is_tl_shape(r)]
        others = [r for r in regions if not rg.is_tl_shape(r)]
        assert len(regions) == 70 and len(quotient) == 9
        named, nonzero = self.assert_oracle(quotient + random.Random(3).sample(others, 8))
        assert named == nonzero
        # the chart has 177 non-vanishing relators (TestPinnedVerdicts pins
        # the verdicts), and the witness names them all
        assert sum(len(cb._witnessed(cb.build_module(cb.ModuleSpec(r)), cb._relators(3)))
                   for r in regions) == 177

    def test_exact_when_the_witness_cannot_lift(self, monkeypatch):
        # a witness point where every lift raises EvalRetry names nothing,
        # and every relator is decided exactly from the unit rows
        class Unliftable(cb.ModRing):
            def lift(self, x):
                raise EvalRetry("forced", 0)

            lift_many = lift

        ring = cb._witness_ring()
        monkeypatch.setattr(cb, "_witness_ring", lambda: Unliftable(ring.p, ring.point))
        assert self.assert_oracle(skew_regions(2, F(3, 2), F(11, 2), 5)) == (0, 48)

    def test_witness_ring_lifts_each_value_once(self, monkeypatch):
        # one fresh witness ring for all the modules of the rank-2 chart at
        # bound 5 evaluates each distinct Scalar once, by `lift` or in a
        # `lift_many` batch, and a second pass over the chart evaluates
        # nothing; a ring per module makes more eval_mod calls
        regions = skew_regions(2, F(3, 2), F(11, 2), 5)
        ring = cb._witness_ring()
        evaluated, calls, batch = [], [], []
        together = cb.ModRing._lift_together

        def spy_together(self, entries):
            evaluated.extend(entries)
            batch.append(entries)
            try:
                return together(self, entries)
            finally:
                batch.pop()

        def spy_eval(x, p, point):
            calls.append(x)
            if not batch:
                evaluated.append(x)  # a `lift` of x alone
            return eval_mod(x, p, point)

        monkeypatch.setattr(cb.ModRing, "_lift_together", spy_together)
        monkeypatch.setattr(cb, "eval_mod", spy_eval)

        def chart():
            return [cb.idempotent_nullity(cb.build_module(cb.ModuleSpec(r))) for r in regions]

        monkeypatch.setattr(cb, "_witness_ring", lambda: cb.ModRing(ring.p, ring.point))
        chart()
        per_module = len(calls)
        fresh = cb.ModRing(ring.p, ring.point)
        monkeypatch.setattr(cb, "_witness_ring", lambda: fresh)
        calls.clear()
        evaluated.clear()
        verdicts = chart()
        assert 0 < len(calls) < per_module
        assert len(evaluated) == len(set(evaluated)) == len(fresh._kept) < cb._KEPT
        assert all(fresh._kept[x] == eval_mod(x, ring.p, ring.point) for x in evaluated)
        calls.clear()
        assert chart() == verdicts and not calls

    def modules(self):
        yield cb.build_module(cb.ModuleSpec(rg.LocalRegion(
            TestIdempotents.FULL_REGION, frozenset(), PARAMS)))
        yield cb.build_module(cb.ModuleSpec(rg.LocalRegion(
            (F(3, 2), F(5, 2)), frozenset({("e", 1)}), PARAMS)))
        yield two_row_module(3, 2)
        yield cb.build_module(cb.ModuleSpec(next(
            r for r in skew_regions(3, F(3, 2), F(11, 2), 5) if not rg.is_tl_shape(r))))

    def test_rows_are_rows_of_the_full_matrix(self):
        for m in self.modules():
            exprs = [wd.f_element("F0", m.k), oracles.f_k(m.k),
                     wd.GenExpr.word(m.k, [wd.T0inv, wd.T(1, -1), wd.E0]),
                     wd.GenExpr.one(m.k)]
            exprs += [wd.inner_numerator(m.k, i) for i in range(1, m.k - 1)]
            fulls = [m.evaluate_word(expr) for expr in exprs]
            f0v = reference_relators(m)["p0v_pair"]
            f0v_expr = wd.f_element("F0v", m.k)
            assert m.evaluate_word(f0v_expr) == f0v
            for r in range(m.n):
                for expr, full in zip(exprs, fulls):
                    assert m.evaluate_word(expr, {r: ONE}) == [full[r]], (m.region, r)
                assert m.evaluate_word(f0v_expr, {r: ONE}) == [f0v[r]], (m.region, r)

    def test_rank3_chart(self):
        rep = vf.suite_classification(k=3, r1=F(3, 2), r2=F(11, 2), bound=F(7))
        assert rep["passed"] and rep["regions"] == len(rep["checks"]) == 217
        assert len(rep["blue"]) == 15


class TestPinnedVerdicts:
    """Verdicts recorded with commit 0da1927, before every identity was
    decided as start rows times both sides: the sha256 of one JSON line per
    report, in order."""

    def test_presentation_reports(self):
        # every nonzero (6,3) module at k = 1..5, default arguments: exact
        # for k <= 2, ten modular trials at seed 0 above
        digest, count = hashlib.sha256(), 0
        for k in range(1, 6):
            for m in TestRelationsAsWords.nonzero_modules(k):
                rep = cb.check_presentation(m)
                digest.update((json.dumps(rep, sort_keys=True) + "\n").encode())
                count += 1
        assert count == 33
        assert digest.hexdigest() == (
            "679b594560f61602e18292e5233bb8f42521907d973ad86a436ad98b9ed31c1b")

    def test_nullity_reports(self):
        # every skew region of the rank-2 and rank-3 charts at bound 5
        digest, count = hashlib.sha256(), 0
        for k in (2, 3):
            for region in skew_regions(k, F(3, 2), F(11, 2), 5):
                rep = cb.idempotent_nullity(cb.build_module(cb.ModuleSpec(region)))
                digest.update((repr(region) + json.dumps(rep, sort_keys=True) + "\n").encode())
                count += 1
        assert count == 104
        assert digest.hexdigest() == (
            "edb007eeb01966334d99ca64dbb8a77f1c4ca42dee6a22d82b94e86c5fdf4d62")


class TestCharactersAndB:
    def test_central_character_formula(self):
        m = two_row_module(3, 2)
        rep = cb.central_character(m)
        theta = F(9, 2)
        assert rep["theta"] == theta
        expected = -(Scalar.monomial(u=9) + Scalar.monomial(u=-9)) * qint(3)
        assert rep["z"] == expected
        assert rep["matches_convention"]

    def test_scaled_down(self):
        m = two_row_module(3, 2)
        rep = cb.central_character(m)
        theta2 = 9
        assert rep["z"] / qint(3) == -(Scalar.monomial(u=theta2)
                                       + Scalar.monomial(u=-theta2))

    def test_b_matrix_identity(self):
        m = two_row_module(2, 2)
        bc = cb.b_constant(m)
        assert bc["defined"] and bc["verified"]

    def test_central_character_needs_a_scalar_action(self):
        # an off-diagonal entry in a W_i, or one changed diagonal entry,
        # leaves the commuting sum without a scalar action
        for w, change in ((1, lambda w: w[0].update({1: ONE})),
                          (2, lambda w: w[0].update({0: w[0][0] * U}))):
            m = two_row_module(3, 2)
            assert m.n > 1
            cb.central_character(m)
            change(m.W[w])
            with pytest.raises(cb.CalibError):
                cb.central_character(m)

    def test_b_fails_on_perturbed_modules(self):
        for k, l in ((2, 2), (3, 2)):
            bc = cb.b_constant(perturbed_module(k, l))
            assert bc["defined"] and bc["verified"] is False, (k, l)

    def test_b_undefined_reported(self):
        m = two_row_module(2, 0)
        bc = cb.b_constant(m)
        assert not bc["defined"] and bc["b"] is None

    def test_theta_on_rank2_chart(self):
        # theta = c0 + (k-1)/2 for the region's two-row start c0; on every
        # skew two-row region of the chart that start is the first one whose
        # weight vector alone matches, as central_character once read it
        regions = [r for r in rg.enumerate_regions(2, PARAMS, F(5))
                   if rg.is_skew(r) and rg.is_tl_shape(r)]
        assert len(regions) == 10
        for region in regions:
            c0 = next(s for s in (region.c[-1] - 1, -region.c[-1])
                      if tuple(sorted(rg._two_row_placement(2, s)[i][0]
                                      for i in (1, 2))) == region.c)
            rep = cb.central_character(cb.build_module(cb.ModuleSpec(region)))
            assert rep["theta"] == c0 + F(1, 2), region
            assert rep["matches_convention"], region


def transpose(a):
    out = [{} for _ in a]
    for r, row in enumerate(a):
        for c, x in row.items():
            out[c][r] = x
    return out


def on_cycle(m, a, b):
    """Whether a and b stay connected in the partner graph (the nonzero
    off-diagonal entries of the T_i) once the edge between them is cut."""
    nbrs = [set() for _ in range(m.n)]
    for t in m.T.values():
        for r, row in enumerate(t):
            nbrs[r].update(c for c in row if c != r and {r, c} != {a, b})
    seen, stack = {a}, [a]
    while stack:
        for c in nbrs[stack.pop()] - seen:
            seen.add(c)
            stack.append(c)
    return b in seen


class TestSymmetricForm:
    """`symmetric_form` returns G = diag(N_a / D_a) with G T_i = T_i^t G:
    exact where that is cheap, modulo one seeded 62-bit prime beyond."""

    @staticmethod
    def ring():
        rng = random.Random(13)
        p = random_prime(62, rng)
        return cb.ModRing(p, random_point(p, rng))

    @staticmethod
    def nonzero_modules(k):
        return [two_row_module(k, l) for (_l1, l) in sw.level_nodes(SW63, k)
                if not sw.zero_multiplicity(SW63, k, l)]

    @staticmethod
    def assert_symmetrizes(m, form, ring):
        # N T_i D = D T_i^t N for the diagonal N, D: G T_i = T_i^t G cleared
        # of denominators, checked with the matrix helpers over the ring
        assert form is not None and len(form) == m.n, m.region
        assert not any(ring.is_zero(x) for pair in form for x in pair)
        nums = cb.mat_diag([n for n, _ in form], ring)
        dens = cb.mat_diag([d for _, d in form], ring)
        for i, t in m.T.items():
            t = [ring.row({c: ring.lift(x) for c, x in row.items()}) for row in t]
            lhs = cb.mat_mul(cb.mat_mul(nums, t, ring), dens, ring)
            rhs = cb.mat_mul(cb.mat_mul(dens, transpose(t), ring), nums, ring)
            assert lhs == rhs, (m.region, i)

    def test_exact_on_two_row_modules(self):
        for k in (1, 2, 3, 4):
            for m in self.nonzero_modules(k):
                self.assert_symmetrizes(m, cb.symmetric_form(m), cb.EXACT)

    def test_exact_on_rank2_chart(self):
        # the form is found exactly; the products that confirm it are taken
        # mod p, since the exact ones cost three times the search
        ring = self.ring()
        regions = [r for r in rg.enumerate_regions(2, PARAMS, F(5)) if rg.is_skew(r)]
        assert len(regions) == 34
        for region in regions:
            m = cb.build_module(cb.ModuleSpec(region))
            form = cb.symmetric_form(m)
            assert form is not None, region
            self.assert_symmetrizes(
                m, [(ring.lift(n), ring.lift(d)) for n, d in form], ring)

    def test_modular_k5_to_7(self):
        ring = self.ring()
        for k in (5, 6, 7):
            for m in self.nonzero_modules(k):
                self.assert_symmetrizes(m, cb.symmetric_form(m, ring), ring)

    def test_entry_off_the_pattern_fails(self):
        ring = self.ring()
        m = perturbed_module(3, 2, at_zero=True)
        assert cb.symmetric_form(m) is None
        assert cb.symmetric_form(m, ring) is None
        # at every place where T_1 and its transpose are zero, including
        # those where the entry is the walk's first way into its column
        m = two_row_module(3, 2)
        t1 = m.T[1]
        for r, c in [(r, c) for r in range(m.n) for c in range(m.n)
                     if r != c and c not in t1[r] and r not in t1[c]]:
            t1[r][c] = U
            assert cb.symmetric_form(m, ring) is None, (r, c)
            del t1[r][c]
        self.assert_symmetrizes(m, cb.symmetric_form(m, ring), ring)
        # a triangular T_0: the walk's only way into filling 1 has a zero
        # return entry, so only the pattern shows that no G exists
        tri = SimpleNamespace(n=2, T={0: [{0: ONE, 1: U}, {1: ONE}]})
        assert cb.symmetric_form(tri) is None
        assert cb.symmetric_form(tri, ring) is None

    def test_doubled_entry_fails_exactly_on_cycles(self):
        # a doubled entry on a cycle of the partner graph breaks the
        # consistency around it; on a bridge it only rescales one side
        m = two_row_module(4, 3)
        ring = self.ring()
        entries = [(t, r, c) for t in m.T.values()
                   for r, row in enumerate(t) for c in row if r != c]
        cycles = 0
        for t, r, c in entries:
            cyc = on_cycle(m, r, c)
            x = t[r][c]
            t[r][c] = x + x
            assert (cb.symmetric_form(m, ring) is None) == cyc, (r, c)
            if cyc and not cycles:  # the first one exactly as well
                assert cb.symmetric_form(m) is None
            cycles += cyc
            t[r][c] = x
        assert (len(entries), cycles) == (38, 32)
        self.assert_symmetrizes(m, cb.symmetric_form(m, ring), ring)

    def test_doubled_bridge_entry_fails_the_presentation(self):
        # every entry of the (2,2) module lies on a bridge: the doubled
        # entry is still symmetrizable, and the relations catch it
        m = two_row_module(2, 2)
        t1 = m.T[1]
        r, c = next((r, c) for r, row in enumerate(t1) for c in row if r != c)
        assert not on_cycle(m, r, c)
        t1[r][c] = t1[r][c] + t1[r][c]
        assert cb.symmetric_form(m) is not None
        assert not cb.check_presentation(m, exact=False, trials=1)["passed"]
