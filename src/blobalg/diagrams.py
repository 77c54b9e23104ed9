"""Planar two-boundary Temperley-Lieb diagrams and their stacking product.

A diagram has k top dots, k bottom dots and an even number of marked points
on each of two walls, joined by a non-crossing perfect matching with no arc
returning to the wall it started from.  Multiplication stacks one picture on
top of another and removes closed loops and wall-to-wall return arcs with
the scalar coefficients of the blob calculus:

    closed loop                      ->  -(u + 1/u)
    left arc, even depth             ->  (u0/u + u/u0) / a0
    left arc, odd depth              ->  -(u0 + 1/u0) / a0
    right arc                        ->  same with uk, ak

where the depth of a return arc counts the attachment points of other
strands below it on its wall, in the glued picture before any removal.

A diagram is stored as `(k, L, R, partner)`.  The boundary points are
numbered clockwise as in `_boundary_order` (top left to right, right wall
down, bottom right to left, left wall up), and `partner[p]` is the position
joined to position p, so the encoding is canonical by construction.
`make_diagram` is the only checker: node pairs from outside, including JSON
through `diagram_from_json`, reach it.  Products and basis-search outputs
are valid by construction and are built unchecked.  `pairs` derives the
node pairs for display and JSON; the basis is computed on every call, in
`pairs` order, and sorted on partner tuples without building any node.
"""

from __future__ import annotations

import functools
from typing import Dict, Iterable, List, Optional, Tuple

from .scalars import Scalar, bb, render as render_scalar, to_json as scalar_to_json, \
    from_json as scalar_from_json

Node = Tuple[str, int]  # ("T", i), ("B", i), ("L", j), ("R", j)

_KINDS = ("T", "B", "L", "R")
WALL_GRADE_BOUND = 4  # the highest wall grade a basis listing takes by default


class DiagramError(ValueError):
    """Invalid diagram data; `reason` is a stable machine-readable tag."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


class TLDiagram:
    """Non-crossing two-boundary diagram: `partner[p]` is the boundary
    position joined to position p.  Built unchecked; `make_diagram` builds
    one from node pairs and checks them."""

    __slots__ = ("k", "L", "R", "partner", "_hash")

    def __init__(self, k: int, L: int, R: int, partner: Tuple[int, ...]):
        self.k = k
        self.L = L
        self.R = R
        self.partner = partner
        self._hash = hash((k, L, R, partner))

    def __eq__(self, other) -> bool:
        return (isinstance(other, TLDiagram) and self.k == other.k
                and self.L == other.L and self.R == other.R
                and self.partner == other.partner)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        body = " ".join("%s%d-%s%d" % (a[0], a[1], b[0], b[1]) for a, b in self.pairs)
        return "<TLDiagram k=%d L=%d R=%d %s>" % (self.k, self.L, self.R, body)

    @property
    def pairs(self) -> Tuple[Tuple[Node, Node], ...]:
        """The node pairs, each pair and the pairs ordered by node kind
        (T, B, L, R) and index."""
        k, L, R, partner = self.k, self.L, self.R, self.partner
        nodes = _boundary_order(k, L, R)
        out = []
        done = set()
        for p in _pair_walk(k, R, len(nodes)):
            if p not in done:
                done.add(partner[p])
                out.append((nodes[p], nodes[partner[p]]))
        return tuple(out)


def _pair_walk(k: int, R: int, n: int) -> List[int]:
    """The positions of T1..Tk, B1..Bk, L1..LL, R1..RR among n positions."""
    return [*range(k), *range(2 * k + R - 1, k + R - 1, -1),
            *range(n - 1, 2 * k + R - 1, -1), *range(k, k + R)]


def _boundary_order(k: int, L: int, R: int) -> List[Node]:
    """Clockwise boundary: top left-to-right, right wall down, bottom
    right-to-left, left wall up."""
    order: List[Node] = [("T", i) for i in range(1, k + 1)]
    order += [("R", j) for j in range(1, R + 1)]
    order += [("B", i) for i in range(k, 0, -1)]
    order += [("L", j) for j in range(L, 0, -1)]
    return order


def make_diagram(k: int, L: int, R: int,
                 pairs: Iterable[Tuple[Node, Node]]) -> TLDiagram:
    """The diagram joining the node pairs, checked to be a diagram: even
    wall counts, a perfect matching of the boundary, no same-wall arc and
    no crossing."""
    if L % 2 or R % 2:
        raise DiagramError("wall_parity", "odd wall point count L=%d R=%d" % (L, R))
    pos = {n: p for p, n in enumerate(_boundary_order(k, L, R))}
    partner = [-1] * len(pos)
    for a, b in pairs:
        if a == b:
            raise DiagramError("degree", "self-paired node %r" % (a,))
        for n in (a, b):
            if n not in pos:
                raise DiagramError("bad_node", "node %r out of range" % (n,))
            if partner[pos[n]] >= 0:
                raise DiagramError("degree", "node %r used twice" % (n,))
        if a[0] == b[0] and a[0] in ("L", "R"):
            raise DiagramError("same_wall", "arc %r-%r returns to its wall" % (a, b))
        partner[pos[a]], partner[pos[b]] = pos[b], pos[a]
    if -1 in partner:
        raise DiagramError("degree", "matching is not perfect (%d of %d nodes)"
                           % (len(partner) - partner.count(-1), len(partner)))
    # walking the boundary, an arc must close before any arc opened after it
    closes: List[int] = []
    for p, q in enumerate(partner):
        if q > p:
            closes.append(q)
        elif closes.pop() != p:
            raise DiagramError("crossing", "chords interleave")
    return TLDiagram(k, L, R, tuple(partner))


def identity_diagram(k: int) -> TLDiagram:
    return make_diagram(k, 0, 0, [(("T", i), ("B", i)) for i in range(1, k + 1)])


def e0_diagram(k: int) -> TLDiagram:
    pairs = [(("T", 1), ("L", 1)), (("B", 1), ("L", 2))]
    pairs += [(("T", i), ("B", i)) for i in range(2, k + 1)]
    return make_diagram(k, 2, 0, pairs)


def ek_diagram(k: int) -> TLDiagram:
    pairs = [(("T", k), ("R", 1)), (("B", k), ("R", 2))]
    pairs += [(("T", i), ("B", i)) for i in range(1, k)]
    return make_diagram(k, 0, 2, pairs)


def e_diagram(k: int, i: int) -> TLDiagram:
    if not 1 <= i <= k - 1:
        raise DiagramError("index", "e_%d needs 1 <= i <= k-1 = %d" % (i, k - 1))
    pairs = [(("T", i), ("T", i + 1)), (("B", i), ("B", i + 1))]
    pairs += [(("T", j), ("B", j)) for j in range(1, k + 1) if j not in (i, i + 1)]
    return make_diagram(k, 0, 0, pairs)


# ---------------------------------------------------------------------------
# linear combinations
# ---------------------------------------------------------------------------

def _sum_terms(a: dict, b: dict) -> dict:
    """The termwise sum of two {term: nonzero Scalar} maps, less what cancels."""
    out = dict(a)
    for key, c in b.items():
        s = out[key] + c if key in out else c
        if s.is_zero():
            out.pop(key, None)
        else:
            out[key] = s
    return out


class TLElement:
    """Finite Scalar-linear combination of diagrams with common k."""

    __slots__ = ("k", "coeffs")

    def __init__(self, k: int, coeffs: Optional[Dict[TLDiagram, Scalar]] = None):
        self.k = k
        self.coeffs: Dict[TLDiagram, Scalar] = {}
        if coeffs:
            for d, c in coeffs.items():
                if d.k != k:
                    raise DiagramError("mixed_k", "diagram k=%d in element k=%d" % (d.k, k))
                if not c.is_zero():
                    self.coeffs[d] = c

    @staticmethod
    def from_diagram(d: TLDiagram, coeff: Scalar = None) -> "TLElement":
        return TLElement(d.k, {d: coeff if coeff is not None else Scalar.one()})

    @staticmethod
    def zero(k: int) -> "TLElement":
        return TLElement(k)

    @staticmethod
    def one(k: int) -> "TLElement":
        return TLElement.from_diagram(identity_diagram(k))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return (isinstance(other, TLElement) and self.k == other.k
                and self.coeffs == other.coeffs)

    def __add__(self, other: "TLElement") -> "TLElement":
        if self.k != other.k:
            raise DiagramError("mixed_k", "sum of k=%d and k=%d elements"
                               % (self.k, other.k))
        r = TLElement(self.k)
        r.coeffs = _sum_terms(self.coeffs, other.coeffs)
        return r

    def __neg__(self) -> "TLElement":
        r = TLElement(self.k)
        r.coeffs = {d: -c for d, c in self.coeffs.items()}
        return r

    def __sub__(self, other: "TLElement") -> "TLElement":
        return self + (-other)

    def scale(self, c: Scalar) -> "TLElement":
        if c.is_zero():
            return TLElement(self.k)
        r = TLElement(self.k)
        r.coeffs = {d: x * c for d, x in self.coeffs.items()}
        return r

    def __mul__(self, other: "TLElement") -> "TLElement":
        if self.k != other.k:
            raise DiagramError("mixed_k", "product of k=%d and k=%d elements"
                               % (self.k, other.k))
        out: Dict[TLDiagram, Scalar] = {}
        for d1, c1 in self.coeffs.items():
            for d2, c2 in other.coeffs.items():
                coeff, prod = multiply_diagrams(d1, d2)
                # most factors are 1 (83% of the product coefficients in
                # suite_theorem3 at k=6), so those multiplications are skipped
                total = c1 if c2.is_one() else c1 * c2
                if not coeff.is_one():
                    total = total * coeff
                if prod in out:
                    s = out[prod] + total
                    if s.is_zero():
                        del out[prod]
                    else:
                        out[prod] = s
                elif not total.is_zero():
                    out[prod] = total
        r = TLElement(self.k)
        r.coeffs = out
        return r

    def __repr__(self) -> str:
        if not self.coeffs:
            return "<TLElement 0 (k=%d)>" % self.k
        bits = ["(%s)*%r" % (render_scalar(c), d) for d, c in sorted(
            self.coeffs.items(), key=lambda t: t[0].pairs)]
        return " + ".join(bits)


# the factor of a closed loop, and of a removed return arc by its wall and
# the parity of its depth
_LOOP = -bb("t")
_ARC = {("L", 0): bb("t0/t") / Scalar.var("a0"), ("L", 1): -bb("t0") / Scalar.var("a0"),
        ("R", 0): bb("tk/t") / Scalar.var("ak"), ("R", 1): -bb("tk") / Scalar.var("ak")}


def _fold(loops: int, arcs: Iterable[Tuple[str, int]], rng=None) -> Scalar:
    """Product of the factors of `loops` closed loops and of the removed
    return arcs `(wall, depth)`, folded in an order shuffled by `rng` if
    one is given."""
    folds = [_LOOP] * loops + [_ARC[(side, depth % 2)] for side, depth in arcs]
    if rng is not None:
        rng.shuffle(folds)
    coeff = Scalar.one()
    for val in folds:
        coeff = coeff * val
    return coeff


# the coefficient by fold signature: the loop count and the sorted
# (wall, depth parity) of the removed arcs, which fix it
_fold_coeff = functools.lru_cache(maxsize=256)(_fold)


def multiply_diagrams(x: TLDiagram, y: TLDiagram,
                      fold_rng=None) -> Tuple[Scalar, TLDiagram]:
    """Stack x above y and reduce; returns (coefficient, diagram).

    `fold_rng` optionally shuffles the order in which removed components
    are folded into the coefficient; the result never depends on it
    because every depth is read off the frozen glued picture.  Without it
    the product comes from two bounded caches: `_product` by pair, and its
    coefficient by fold signature.  A shuffled product is always computed
    afresh and neither reads nor fills either cache, so comparing it with
    the unshuffled product checks the fold order independently.
    """
    if x.k != y.k:
        raise DiagramError("mixed_k", "product of k=%d and k=%d" % (x.k, y.k))
    if fold_rng is None:
        return _product(x, y)
    loops, arcs, result = _stack(x, y)
    return _fold(loops, arcs, fold_rng), result


@functools.lru_cache(maxsize=1 << 15)
def _product(x: TLDiagram, y: TLDiagram) -> Tuple[Scalar, TLDiagram]:
    loops, arcs, result = _stack(x, y)
    parities = tuple(sorted((side, depth % 2) for side, depth in arcs))
    return _fold_coeff(loops, parities), result


def _stack(x: TLDiagram, y: TLDiagram) -> Tuple[int, List[Tuple[str, int]], TLDiagram]:
    """Glue x above y; returns the closed-loop count, the (wall, depth) of
    every removed return arc, and the reduced diagram.

    x's bottom point i is y's top point i.  The outer points of the glued
    picture are numbered like the boundary of one diagram with x's wall
    points above y's: x's top and right wall, y's right wall, bottom and
    left wall, then x's left wall.  Removing the return arcs and numbering
    the surviving points in the same order gives the reduced diagram.
    """
    k, px, py = x.k, x.partner, y.partner
    xb = k + x.R  # x's bottom points are its positions xb .. xb + k - 1
    flip = xb + k - 1  # x's bottom position flip - i is y's top position i
    R = x.R + y.R
    left = 2 * k + R  # the glued left wall starts here
    n = left + x.L + y.L
    glued = [-1] * n
    mid_seen = [False] * k
    for g in range(n):
        if glued[g] >= 0:
            continue
        # follow the strand from outer point g across the glued row
        if g < xb:
            on_x, p = True, g
        elif g < left + y.L:
            on_x, p = False, g - x.R
        else:
            on_x, p = True, g - y.R - y.L
        while True:
            if on_x:
                q = px[p]
                if q < xb:
                    break
                if q > flip:
                    q += y.R + y.L
                    break
                p = flip - q
                mid_seen[p] = True
                on_x = False
            else:
                q = py[p]
                if q >= k:
                    q += x.R
                    break
                mid_seen[q] = True
                p = flip - q
                on_x = True
        glued[g], glued[q] = q, g

    loops = 0
    for m in range(k):
        if not mid_seen[m]:
            loops += 1
            while not mid_seen[m]:  # y's top arc m-m2, then x's bottom arc
                m2 = py[m]
                mid_seen[m] = mid_seen[m2] = True
                m = flip - px[flip - m2]

    arcs: List[Tuple[str, int]] = []
    removed = [False] * n
    for g, h in enumerate(glued):
        # depth: the glued wall points below the arc's lower end
        if k <= g < h < k + R:
            arcs.append(("R", k + R - 1 - h))
        elif left <= g < h:
            arcs.append(("L", g - left))
        else:
            continue
        removed[g] = removed[h] = True
    kept = [g for g in range(n) if not removed[g]]
    new = {g: i for i, g in enumerate(kept)}
    partner = tuple(new[glued[g]] for g in kept)
    lost_left, lost_right = sum(removed[left:]), sum(removed[k:k + R])
    result = TLDiagram(k, x.L + y.L - lost_left, R - lost_right, partner)
    return loops, arcs, result


# ---------------------------------------------------------------------------
# basis enumeration
# ---------------------------------------------------------------------------

_CUT = 255  # the `_room` entry of a stretch that needs a same-wall arc


@functools.lru_cache(maxsize=64)
def _room(kinds: str) -> Tuple[bytes, ...]:
    """The capacity table of a node pattern, given as its string of node
    kinds: `room[lo][hi]` is the most wall-to-wall edges the stretch
    [lo, hi) can hold, or `_CUT` if it cannot be matched without a
    same-wall arc.  Rows are `bytes`, which keep every capacity of a
    pattern of up to 508 points below `_CUT`.  `enumerate_basis` asks for
    a pattern once per wall grade, grade after grade; 64 tables keep each
    one until its last grade for every k <= 10."""
    n = len(kinds)
    # prefix counts: pre_l[i] = number of left-wall points among kinds[:i]
    pre_l = [0] * (n + 1)
    pre_r = [0] * (n + 1)
    for i, kind in enumerate(kinds):
        pre_l[i + 1] = pre_l[i] + (kind == "L")
        pre_r[i + 1] = pre_r[i] + (kind == "R")
    room = []
    for lo in range(n + 1):
        row = [_CUT] * (n + 1)
        for hi in range(lo, n + 1):
            nl = pre_l[hi] - pre_l[lo]
            nr = pre_r[hi] - pre_r[lo]
            half = (hi - lo) // 2
            if nl <= half and nr <= half:
                row[hi] = min(nl, nr)
        room.append(bytes(row))
    return tuple(room)


def _matchings(nodes: List[Node], target_lines: int) -> List[Tuple[int, ...]]:
    """Partner tuples of the non-crossing perfect matchings of the node
    cycle with no same-wall arcs and exactly `target_lines` wall-to-wall
    edges.

    Each open segment is a contiguous index range [lo, hi) that must be
    matched within itself.  A segment with more than half of its points on
    one wall cannot be matched without a same-wall arc, and a segment holds
    at most min(left points, right points) wall-to-wall edges, so a split
    that cannot reach `target_lines` is cut off before the search enters
    it.  These capacities are read from `_room`, built once per node
    pattern in a bounded cache.  A leading two-point segment has one
    matching and is joined in place.  The output list is the same as that
    of the unpruned search.
    """
    out: List[Tuple[int, ...]] = []
    n = len(nodes)
    partner = [0] * n
    kinds = "".join([nd[0] for nd in nodes])
    room = _room(kinds)

    def rec(segments: Tuple[Tuple[int, int], ...], lines: int, cap: int) -> None:
        # cap: most wall-to-wall edges the open segments can still hold;
        # a leading two-point segment has one matching, joined in place
        while segments:
            (lo, hi), rest = segments[0], segments[1:]
            if hi - lo != 2:
                break
            edge = room[lo][hi]  # 1 if its pair joins the two walls, else 0
            lines += edge
            if lines > target_lines:
                return
            cap -= edge
            partner[lo], partner[lo + 1] = lo + 1, lo
            segments = rest
        else:
            out.append(tuple(partner))
            return
        cap -= room[lo][hi]
        inner_room = room[lo + 1]
        ka = kinds[lo]
        a_wall = ka in ("L", "R")
        for pos in range(lo + 1, hi, 2):
            kb = kinds[pos]
            if a_wall and ka == kb:
                continue
            inner, outer = inner_room[pos], room[pos + 1][hi]
            if inner == _CUT or outer == _CUT:
                continue
            new_lines = lines + (a_wall and kb in ("L", "R"))
            if new_lines > target_lines \
                    or new_lines + cap + inner + outer < target_lines:
                continue
            segs = rest
            if pos + 1 < hi:
                segs = ((pos + 1, hi),) + segs
            if lo + 1 < pos:
                segs = ((lo + 1, pos),) + segs
            partner[lo], partner[pos] = pos, lo
            rec(segs, new_lines, cap + inner + outer)

    whole = room[0][n]
    if whole != _CUT and 0 <= target_lines <= whole:
        rec(((0, n),) if n else (), 0, whole)
    return out


def _pairs_key(k: int, R: int, nodes: List[Node]):
    """Key on the partner tuples at one `(k, L, R)` that orders them as
    their `pairs` do, building no node: the ranks, in sorted node order, of
    the partners of the positions in `pairs` walk order.  Where two tuples
    first differ, that position opens a pair in both after equal pairs."""
    rank = [0] * len(nodes)
    for i, p in enumerate(sorted(range(len(nodes)), key=nodes.__getitem__)):
        rank[p] = i
    order = _pair_walk(k, R, len(nodes))
    return lambda partner: tuple([rank[partner[q]] for q in order])


def enumerate_basis(k: int, wall_grades: Iterable[int],
                    max_wall_grade_bound: int = WALL_GRADE_BOUND) -> List[TLDiagram]:
    """All basis diagrams with wall grade in `wall_grades`, ordered by
    (wall grade, L, R, pairs)."""
    if k != int(k) or k < 0:
        raise DiagramError("k", "k must be a nonnegative integer, got %r" % (k,))
    k = int(k)
    grades = sorted(set(wall_grades))
    if any(w != int(w) for w in grades):
        raise DiagramError("grade", "wall grades must be integers, got %r" % (grades,))
    grades = [int(w) for w in grades]
    if any(w < 0 for w in grades):
        raise DiagramError("grade", "wall grades must be nonnegative")
    if grades and grades[-1] > max_wall_grade_bound:
        raise DiagramError("grade_bound",
                           "requested grade %d exceeds bound %d"
                           % (grades[-1], max_wall_grade_bound))
    found: List[TLDiagram] = []
    # the loops run in (w, L, R) order, so sorting each block by its pairs
    # sorts the whole list
    for w in grades:
        for L in range(0, 2 * k + 2 * w + 1, 2):
            lw_tb = L - w  # wall points not used by wall lines
            if lw_tb < 0:
                continue
            for R in range(0, 2 * k + 2 * w + 1, 2):
                rw_tb = R - w
                if rw_tb < 0 or lw_tb + rw_tb > 2 * k:
                    continue
                nodes = _boundary_order(k, L, R)
                block = sorted(_matchings(nodes, w), key=_pairs_key(k, R, nodes))
                found += [TLDiagram(k, L, R, partner) for partner in block]
    return found


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _node_name(n: Node) -> str:
    return "%s%d" % (n[0], n[1])


def _node_parse(s: str) -> Node:
    kind, index = s[:1], s[1:]
    if kind not in _KINDS or not index.isdigit():
        raise DiagramError("bad_node", "unknown node %r" % s)
    return (kind, int(index))


def diagram_to_json(d: TLDiagram) -> dict:
    return {"k": d.k, "L": d.L, "R": d.R,
            "pairs": [[_node_name(a), _node_name(b)] for a, b in d.pairs]}


def _json_field(obj, key: str, kind: type, what: str):
    """obj[key] of a decoded `what` JSON object, checked to be a `kind`."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise DiagramError("json", "%s JSON needs %r as a %s: %r"
                           % (what, key, kind.__name__, obj))
    return value


def diagram_from_json(obj) -> TLDiagram:
    k = _json_field(obj, "k", int, "diagram")
    L = _json_field(obj, "L", int, "diagram")
    R = _json_field(obj, "R", int, "diagram")
    pairs = _json_field(obj, "pairs", list, "diagram")
    for p in pairs:
        if type(p) is not list or len(p) != 2 or type(p[0]) is not str or type(p[1]) is not str:
            raise DiagramError("json", "diagram JSON pairs must be pairs of node names: %r"
                               % (p,))
    if 2 * len(pairs) != 2 * k + L + R:  # checked before any node list is built
        raise DiagramError("degree", "diagram JSON has %d pairs for %d nodes"
                           % (len(pairs), 2 * k + L + R))
    return make_diagram(k, L, R, [(_node_parse(a), _node_parse(b)) for a, b in pairs])


def element_to_json(x: TLElement) -> dict:
    terms = [{"coeff": scalar_to_json(c), "diagram": diagram_to_json(d)}
             for d, c in sorted(x.coeffs.items(), key=lambda t: t[0].pairs)]
    return {"k": x.k, "terms": terms}


def element_from_json(obj) -> TLElement:
    k = _json_field(obj, "k", int, "element")
    coeffs = {}
    for term in _json_field(obj, "terms", list, "element"):
        d = diagram_from_json(_json_field(term, "diagram", dict, "element term"))
        if d in coeffs:
            raise DiagramError("json", "element JSON repeats the diagram %r" % (d,))
        coeffs[d] = scalar_from_json(_json_field(term, "coeff", dict, "element term"))
    return TLElement(k, coeffs)
