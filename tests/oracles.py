"""Test-side oracles for the quotient identities.

The library evaluates only the relators it decides nullity with
(`words.f_element`, `words.inner_numerator`).  The paper's other quotient
elements are written out here, as the paper states them, so that the tests
can check the identities that link them to those relators: the idempotent
normalizers, the four boundary idempotents, and the relators F_i and F_k.
The plain left-to-right expansion of a word is kept here too, as the
reference for the product order of `words.expand_to_tl`, and the contents
of a filling as Fractions, the reference for `regions.filling_contents`.
"""

from blobalg import diagrams as dg
from blobalg import words as wd
from blobalg.scalars import AK, U, U0, UK, bb

G = wd.GenExpr.word


def wc_vector(region, filling):
    """(wc)_j = diagonal of the box containing label j, for j in -k..-1,1..k,
    as a Fraction: box i sits on the diagonal c_i and box -i on -c_i."""
    diag = {}
    for i, ci in enumerate(region.c, start=1):
        diag[i], diag[-i] = ci, -ci
    out = {}
    for i, v in enumerate(filling, start=1):
        out[v] = diag[i]
        out[-v] = diag[-i]
    return out


def expand_left_to_right(x):
    """`words.expand_to_tl` with every word multiplied out left to right."""
    total = dg.TLElement.zero(x.k)
    for w, c in x.terms.items():
        cur = dg.TLElement.one(x.k)
        for letter in w:
            cur = cur * wd.letter_element(x.k, letter)
        total = total + cur.scale(c)
    return total


def normalizer(which):
    """N with p = (N p) / N: N for the inner idempotent, N0 and Nk for the
    boundary ones; the primed ones, for the eigenvalue-flipped boundary
    cases, are the inverted-parameter forms."""
    t, t0, tk = U * U, U0 * U0, UK * UK
    return {
        "N": -(U ** 3).inv() * (1 + t) * (1 + t + t * t),
        "N0": (t0 * t).inv() * (1 + t0) * (1 + t) * (1 + t0 * t),
        "Nk": (tk * t).inv() * (1 + tk) * (1 + t) * (1 + tk * t),
        "N0p": t0 * t.inv() * (1 + t0.inv()) * (1 + t) * (1 + t0.inv() * t),
        "Nkp": tk * t.inv() * (1 + tk.inv()) * (1 + t) * (1 + tk.inv() * t),
    }[which]


def f_inner(i, k):
    """F_i = (a e_i)(a e_(i+1))(a e_i) - a e_i."""
    aei, aei1 = wd.ae(k, i), wd.ae(k, i + 1)
    return aei * aei1 * aei - aei


def f_k(k):
    """F_k = a e_(k-1) (ak e_k) a e_(k-1) - [[tk/t]] a e_(k-1)."""
    aekm1 = wd.ae(k, k - 1)
    return aekm1 * G(k, [wd.Ek], AK) * aekm1 - aekm1.scale(bb("tk/t"))


BOUNDARY = ("p0_e12", "p0_12e", "p0v_e12", "p0v_12e")


def boundary_idempotent(which, k):
    """(N p, N) for a boundary idempotent p on strand 1: p0_e12 and p0_12e
    through T0, T1; the wall-reflected p0v_e12 and p0v_12e through
    W_1 T0^-1 - uk and F0v."""
    if which in ("p0_e12", "p0_12e"):
        u, u0 = U, (U0 if which == "p0_e12" else -U0.inv())
        t0, t1 = wd.T0, wd.T(1)
        num = G(k, [t0, t1, t0, t1]) - G(k, [t1, t0, t1], u0) - G(k, [t0, t1, t0], u) \
            + G(k, [t0, t1], u0 * u) + G(k, [t1, t0], u0 * u) - G(k, [t1], u0 * u0 * u) \
            - G(k, [t0], u0 * u * u) + G(k, [], u0 * u0 * u * u)
        return num, normalizer("N0" if which == "p0_e12" else "N0p")
    e0v = G(k, [wd.W(1), wd.T0inv]) - UK
    f0v = wd.f_element("F0v", k)
    if which == "p0v_e12":
        return e0v * f0v, normalizer("Nk")
    return e0v * f0v + f0v.scale(bb("tk")), normalizer("Nkp")
