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
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .scalars import Scalar, bb, render as render_scalar, to_json as scalar_to_json, \
    from_json as scalar_from_json

Node = Tuple[str, int]  # ("T", i), ("B", i), ("L", j), ("R", j)

_KIND_ORDER = {"T": 0, "B": 1, "L": 2, "R": 3}


class DiagramError(ValueError):
    """Invalid diagram data; `reason` is a stable machine-readable tag."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


def _node_key(n: Node) -> Tuple[int, int]:
    return (_KIND_ORDER[n[0]], n[1])


class TLDiagram:
    """Canonical non-crossing two-boundary diagram."""

    __slots__ = ("k", "L", "R", "pairs", "_hash")

    def __init__(self, k: int, L: int, R: int,
                 pairs: Iterable[Tuple[Node, Node]], _trusted: bool = False):
        self.k = k
        self.L = L
        self.R = R
        canon = tuple(sorted((tuple(sorted(p, key=_node_key)) for p in pairs),
                             key=lambda p: (_node_key(p[0]), _node_key(p[1]))))
        self.pairs = canon
        self._hash = hash((k, L, R, canon))
        if not _trusted:
            _validate(self)

    def __eq__(self, other) -> bool:
        return (isinstance(other, TLDiagram) and self.k == other.k
                and self.L == other.L and self.R == other.R
                and self.pairs == other.pairs)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        body = " ".join("%s%d-%s%d" % (a[0], a[1], b[0], b[1]) for a, b in self.pairs)
        return "<TLDiagram k=%d L=%d R=%d %s>" % (self.k, self.L, self.R, body)

    def wall_grade(self) -> int:
        return sum(1 for a, b in self.pairs if a[0] == "L" and b[0] == "R"
                   or a[0] == "R" and b[0] == "L")

    def through_strands(self) -> int:
        return sum(1 for a, b in self.pairs
                   if {a[0], b[0]} == {"T", "B"})


def _boundary_order(k: int, L: int, R: int) -> List[Node]:
    """Clockwise boundary: top left-to-right, right wall down, bottom
    right-to-left, left wall up."""
    order: List[Node] = [("T", i) for i in range(1, k + 1)]
    order += [("R", j) for j in range(1, R + 1)]
    order += [("B", i) for i in range(k, 0, -1)]
    order += [("L", j) for j in range(L, 0, -1)]
    return order


def _validate(d: TLDiagram) -> None:
    if d.L % 2 or d.R % 2:
        raise DiagramError("wall_parity", "odd wall point count L=%d R=%d" % (d.L, d.R))
    nodes = _boundary_order(d.k, d.L, d.R)
    node_set = set(nodes)
    seen: Set[Node] = set()
    for a, b in d.pairs:
        for n in (a, b):
            if n not in node_set:
                raise DiagramError("bad_node", "node %r out of range" % (n,))
            if n in seen:
                raise DiagramError("degree", "node %r used twice" % (n,))
            seen.add(n)
        if a == b:
            raise DiagramError("degree", "self-paired node %r" % (a,))
        if a[0] == b[0] and a[0] in ("L", "R"):
            raise DiagramError("same_wall", "arc %r-%r returns to its wall" % (a, b))
    if seen != node_set:
        raise DiagramError("degree", "matching is not perfect (%d of %d nodes)"
                           % (len(seen), len(node_set)))
    pos = {n: i for i, n in enumerate(nodes)}
    chords = sorted((min(pos[a], pos[b]), max(pos[a], pos[b])) for a, b in d.pairs)
    stack: List[int] = []
    for lo, hi in sorted(chords):
        while stack and stack[-1] < lo:
            stack.pop()
        if stack and stack[-1] < hi:
            raise DiagramError("crossing", "chords interleave")
        stack.append(hi)


def make_diagram(k: int, L: int, R: int,
                 pairs: Iterable[Tuple[Node, Node]]) -> TLDiagram:
    return TLDiagram(k, L, R, pairs)


def identity_diagram(k: int) -> TLDiagram:
    return TLDiagram(k, 0, 0, [(("T", i), ("B", i)) for i in range(1, k + 1)],
                     _trusted=True)


def e0_diagram(k: int) -> TLDiagram:
    pairs = [(("T", 1), ("L", 1)), (("B", 1), ("L", 2))]
    pairs += [(("T", i), ("B", i)) for i in range(2, k + 1)]
    return TLDiagram(k, 2, 0, pairs, _trusted=True)


def ek_diagram(k: int) -> TLDiagram:
    pairs = [(("T", k), ("R", 1)), (("B", k), ("R", 2))]
    pairs += [(("T", i), ("B", i)) for i in range(1, k)]
    return TLDiagram(k, 0, 2, pairs, _trusted=True)


def e_diagram(k: int, i: int) -> TLDiagram:
    if not 1 <= i <= k - 1:
        raise DiagramError("index", "e_%d needs 1 <= i <= k-1 = %d" % (i, k - 1))
    pairs = [(("T", i), ("T", i + 1)), (("B", i), ("B", i + 1))]
    pairs += [(("T", j), ("B", j)) for j in range(1, k + 1) if j not in (i, i + 1)]
    return TLDiagram(k, 0, 0, pairs, _trusted=True)


def generator(k: int, which) -> TLDiagram:
    """which is "e0", "ek", or an inner index 1 <= i <= k-1."""
    if which == "e0":
        return e0_diagram(k)
    if which == "ek":
        return ek_diagram(k)
    return e_diagram(k, int(which))


def through_strands(d: TLDiagram) -> int:
    return d.through_strands()


def filtration_member(d: TLDiagram, j: int) -> bool:
    return d.through_strands() <= j


# ---------------------------------------------------------------------------
# linear combinations
# ---------------------------------------------------------------------------

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
        out = dict(self.coeffs)
        for d, c in other.coeffs.items():
            s = out[d] + c if d in out else c
            if s.is_zero():
                out.pop(d, None)
            else:
                out[d] = s
        r = TLElement(self.k)
        r.coeffs = out
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


_LOOP: Optional[Scalar] = None
_ARC_COEFFS: Dict[Tuple[str, int], Scalar] = {}


def _loop_value() -> Scalar:
    global _LOOP
    if _LOOP is None:
        _LOOP = -bb("t")
    return _LOOP


def _arc_value(side: str, depth: int) -> Scalar:
    key = (side, depth % 2)
    if key not in _ARC_COEFFS:
        if side == "L":
            val = bb("t0/t") / Scalar.var("a0") if depth % 2 == 0 \
                else -bb("t0") / Scalar.var("a0")
        else:
            val = bb("tk/t") / Scalar.var("ak") if depth % 2 == 0 \
                else -bb("tk") / Scalar.var("ak")
        _ARC_COEFFS[key] = val
    return _ARC_COEFFS[key]


# Product memo for the unshuffled path: (x, y) -> (coefficient, diagram).
# Diagrams in keys and values go through one diagram-only intern table, so
# equal diagrams are stored once; coefficients are shared through a
# separate table keyed by the fold signature (loop count and the sorted
# (wall, depth parity) of the removed arcs), which fixes the coefficient.
# All three tables are cleared together when the memo reaches its cap.
_PRODUCT_CAP = 1 << 15
_PRODUCTS: Dict[Tuple[TLDiagram, TLDiagram], Tuple[Scalar, TLDiagram]] = {}
_INTERNED: Dict[TLDiagram, TLDiagram] = {}
_FOLD_COEFFS: Dict[Tuple[int, Tuple[Tuple[str, int], ...]], Scalar] = {}


def _clear_product_caches() -> None:
    _PRODUCTS.clear()
    _INTERNED.clear()
    _FOLD_COEFFS.clear()


def _fold(loops: int, arcs: Iterable[Tuple[str, int]], rng=None) -> Scalar:
    """Product of the factors of `loops` closed loops and of the removed
    return arcs `(wall, depth)`, folded in an order shuffled by `rng` if
    one is given."""
    folds = [_loop_value()] * loops + [_arc_value(side, depth) for side, depth in arcs]
    if rng is not None:
        rng.shuffle(folds)
    coeff = Scalar.one()
    for val in folds:
        coeff = coeff * val
    return coeff


def multiply_diagrams(x: TLDiagram, y: TLDiagram,
                      fold_rng=None) -> Tuple[Scalar, TLDiagram]:
    """Stack x above y and reduce; returns (coefficient, diagram).

    `fold_rng` optionally shuffles the order in which removed components
    are folded into the coefficient; the result never depends on it
    because every depth is read off the frozen glued picture.  A shuffled
    product is always computed afresh and neither reads nor fills the
    product memo, so comparing it with the unshuffled product checks the
    fold order against an independent computation.
    """
    if x.k != y.k:
        raise DiagramError("mixed_k", "product of k=%d and k=%d" % (x.k, y.k))
    if fold_rng is not None:
        loops, arcs, result = _stack(x, y)
        return _fold(loops, arcs, fold_rng), result
    hit = _PRODUCTS.get((x, y))
    if hit is not None:
        return hit
    loops, arcs, result = _stack(x, y)
    sig = (loops, tuple(sorted((side, depth % 2) for side, depth in arcs)))
    coeff = _FOLD_COEFFS.get(sig)
    if coeff is None:
        coeff = _fold(*sig)
    if len(_PRODUCTS) >= _PRODUCT_CAP:
        _clear_product_caches()
    _FOLD_COEFFS[sig] = coeff
    intern = _INTERNED.setdefault
    value = (coeff, intern(result, result))
    _PRODUCTS[(intern(x, x), intern(y, y))] = value
    return value


def _stack(x: TLDiagram, y: TLDiagram) -> Tuple[int, List[Tuple[str, int]], TLDiagram]:
    """Glue x above y; returns the closed-loop count, the (wall, depth) of
    every removed return arc, and the reduced diagram."""
    k = x.k

    adj: Dict[Node, List[Node]] = {}

    def link(a: Node, b: Node) -> None:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)

    # composite node names: x's walls above y's walls
    def map_x(n: Node) -> Node:
        kind, i = n
        if kind == "T":
            return ("T", i)
        if kind == "B":
            return ("M", i)
        return ("L" if kind == "L" else "R", i)

    def map_y(n: Node) -> Node:
        kind, i = n
        if kind == "T":
            return ("M", i)
        if kind == "B":
            return ("B", i)
        if kind == "L":
            return ("L", i + x.L)
        return ("R", i + x.R)

    for a, b in x.pairs:
        link(map_x(a), map_x(b))
    for a, b in y.pairs:
        link(map_y(a), map_y(b))

    # trace components
    seen: Set[Node] = set()
    loops = 0
    open_paths: List[Tuple[Node, Node]] = []  # endpoint pairs

    for start in list(adj):
        if start in seen or start[0] == "M":
            continue
        # walk from an outer endpoint
        seen.add(start)
        prev, cur = start, adj[start][0]
        while cur[0] == "M":
            seen.add(cur)
            nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
            prev, cur = cur, nxt
        seen.add(cur)
        open_paths.append((start, cur))
    for start in adj:
        if start not in seen:
            # closed loop through mid nodes only
            loops += 1
            prev, cur = start, adj[start][0]
            seen.add(start)
            while cur != start:
                seen.add(cur)
                nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
                prev, cur = cur, nxt

    # stable component ids for endpoint ownership
    comp_of: Dict[Node, int] = {}
    for idx, (a, b) in enumerate(open_paths):
        comp_of[a] = idx
        comp_of[b] = idx

    def wall_positions(side: str) -> List[Node]:
        total = x.L + y.L if side == "L" else x.R + y.R
        return [(side, j) for j in range(1, total + 1)]

    arcs: List[Tuple[str, int, int, int]] = []  # (side, low position, comp, depth)
    survivors: List[int] = []
    for idx, (a, b) in enumerate(open_paths):
        if a[0] == b[0] and a[0] in ("L", "R"):
            side = a[0]
            low = max(a[1], b[1])
            arcs.append((side, low, idx, 0))
        else:
            survivors.append(idx)

    # depths on the frozen picture: other components' points strictly below
    frozen_arcs: List[Tuple[str, int, int]] = []
    for side, low, idx, _ in arcs:
        depth = 0
        for node in wall_positions(side):
            if node[1] > low and node in comp_of and comp_of[node] != idx:
                depth += 1
        frozen_arcs.append((side, depth, idx))

    # rebuild the surviving picture
    arc_ids = {idx for _, _, idx in frozen_arcs}
    new_left = [n for n in wall_positions("L")
                if n in comp_of and comp_of[n] not in arc_ids]
    new_right = [n for n in wall_positions("R")
                 if n in comp_of and comp_of[n] not in arc_ids]
    renumber: Dict[Node, Node] = {}
    for j, n in enumerate(new_left, start=1):
        renumber[n] = ("L", j)
    for j, n in enumerate(new_right, start=1):
        renumber[n] = ("R", j)

    def out_node(n: Node) -> Node:
        if n[0] in ("L", "R"):
            return renumber[n]
        return n

    pairs = [(out_node(open_paths[idx][0]), out_node(open_paths[idx][1]))
             for idx in survivors]
    result = TLDiagram(k, len(new_left), len(new_right), pairs)
    return loops, [(side, depth) for side, depth, _ in frozen_arcs], result


# ---------------------------------------------------------------------------
# basis enumeration
# ---------------------------------------------------------------------------

def _matchings(nodes: List[Node], target_lines: int) -> List[List[Tuple[Node, Node]]]:
    """Non-crossing perfect matchings of the node cycle with no same-wall
    arcs and exactly `target_lines` wall-to-wall edges.

    Each open segment is a contiguous index range [lo, hi) that must be
    matched within itself.  A segment with more than half of its points on
    one wall cannot be matched without a same-wall arc, and a segment holds
    at most min(left points, right points) wall-to-wall edges, so a split
    that cannot reach `target_lines` is cut off before the search enters
    it.  The output list is the same as that of the unpruned search.
    """
    out: List[List[Tuple[Node, Node]]] = []
    pairs: List[Tuple[Node, Node]] = []
    n = len(nodes)
    kinds = [nd[0] for nd in nodes]
    # prefix counts: pre_l[i] = number of left-wall points among nodes[:i]
    pre_l = [0] * (n + 1)
    pre_r = [0] * (n + 1)
    for i, kind in enumerate(kinds):
        pre_l[i + 1] = pre_l[i] + (kind == "L")
        pre_r[i + 1] = pre_r[i] + (kind == "R")

    def room(lo: int, hi: int) -> int:
        """Most wall-to-wall edges [lo, hi) can hold, or -1 if it cannot
        be matched without a same-wall arc."""
        nl = pre_l[hi] - pre_l[lo]
        nr = pre_r[hi] - pre_r[lo]
        half = (hi - lo) // 2
        return -1 if nl > half or nr > half else min(nl, nr)

    def rec(segments: Tuple[Tuple[int, int], ...], lines: int, cap: int) -> None:
        # cap: most wall-to-wall edges the open segments can still hold
        if not segments:
            out.append(list(pairs))
            return
        (lo, hi), rest = segments[0], segments[1:]
        cap -= room(lo, hi)
        a, ka = nodes[lo], kinds[lo]
        a_wall = ka in ("L", "R")
        for pos in range(lo + 1, hi, 2):
            kb = kinds[pos]
            if a_wall and ka == kb:
                continue
            inner, outer = room(lo + 1, pos), room(pos + 1, hi)
            if inner < 0 or outer < 0:
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
            pairs.append((a, nodes[pos]))
            rec(segs, new_lines, cap + inner + outer)
            pairs.pop()

    whole = room(0, n)
    if 0 <= target_lines <= whole:
        rec(((0, n),) if n else (), 0, whole)
    return out


def enumerate_basis(k: int, wall_grades: Iterable[int],
                    max_wall_grade_bound: int = 4,
                    cache_dir: Optional[str] = None) -> List[TLDiagram]:
    """All basis diagrams with wall grade in `wall_grades`, deterministic order."""
    grades = sorted(set(int(w) for w in wall_grades))
    if any(w < 0 for w in grades):
        raise DiagramError("grade", "wall grades must be nonnegative")
    if grades and grades[-1] > max_wall_grade_bound:
        raise DiagramError("grade_bound",
                           "requested grade %d exceeds bound %d"
                           % (grades[-1], max_wall_grade_bound))
    cached = _cache_load(k, grades, cache_dir)
    if cached is not None:
        return cached
    found: List[TLDiagram] = []
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
                for pairing in _matchings(nodes, w):
                    try:
                        d = TLDiagram(k, L, R, pairing)
                    except DiagramError:
                        continue
                    found.append(d)
    found = sorted(set(found), key=lambda d: (d.wall_grade(), d.L, d.R, d.pairs))
    _cache_store(k, grades, found, cache_dir)
    return found


CACHE_ENV = "BLOBALG_CACHE_DIR"
_CACHE_VERSION = "1"


def _cache_path(k: int, grades: List[int], cache_dir: Optional[str]) -> Optional[str]:
    root = cache_dir or os.environ.get(CACHE_ENV)
    if not root:
        return None
    key = hashlib.sha256(json.dumps([_CACHE_VERSION, k, grades]).encode()).hexdigest()[:16]
    return os.path.join(root, "basis_k%d_%s.json" % (k, key))


def _cache_load(k: int, grades: List[int], cache_dir: Optional[str]):
    path = _cache_path(k, grades, cache_dir)
    if not path or not os.path.exists(path):
        return None
    try:
        with open(path) as f:
            data = json.load(f)
        return [diagram_from_json(obj) for obj in data]
    except (ValueError, KeyError, DiagramError):
        return None


def _cache_store(k: int, grades: List[int], found: List[TLDiagram],
                 cache_dir: Optional[str]) -> None:
    path = _cache_path(k, grades, cache_dir)
    if not path:
        return
    os.makedirs(os.path.dirname(path), exist_ok=True)
    # write a new file beside the target and rename it into place, so a
    # reader never sees a partly written cache file
    tmp = "%s.%d-%s.tmp" % (path, os.getpid(), os.urandom(4).hex())
    f = open(tmp, "x")
    try:
        with f:
            json.dump([diagram_to_json(d) for d in found], f)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# serialization and text art
# ---------------------------------------------------------------------------

def _node_name(n: Node) -> str:
    return "%s%d" % (n[0], n[1])


def _node_parse(s: str) -> Node:
    kind, index = s[:1], s[1:]
    if kind not in _KIND_ORDER or not index.isdigit():
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
    return TLDiagram(k, L, R, [(_node_parse(a), _node_parse(b)) for a, b in pairs])


def element_to_json(x: TLElement) -> dict:
    terms = [{"coeff": scalar_to_json(c), "diagram": diagram_to_json(d)}
             for d, c in sorted(x.coeffs.items(), key=lambda t: t[0].pairs)]
    return {"k": x.k, "terms": terms}


def element_from_json(obj) -> TLElement:
    k = _json_field(obj, "k", int, "element")
    coeffs = {}
    for term in _json_field(obj, "terms", list, "element"):
        d = diagram_from_json(_json_field(term, "diagram", dict, "element term"))
        coeffs[d] = scalar_from_json(_json_field(term, "coeff", dict, "element term"))
    return TLElement(k, coeffs)
