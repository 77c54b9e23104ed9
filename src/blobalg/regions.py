"""Local regions, box configurations, and standard fillings.

A local region is a weight vector c (sorted, nonnegative, all integers or
all half-integers) together with a subset J of the potential-wall roots
P(c).  The region determines a configuration of 2k boxes on diagonals with
markings on the four diagonals +-r1, +-r2; its standard fillings are the
symmetric bijective labelings obeying the diagonal and marking rules, and
they index the basis of the corresponding calibrated module.

Fillings come from one walk over signed order ideals.  Each constraint
S(p) < S(q) puts p below q and, mirrored, -q below -p.  The values
-k, ..., -1 are handed out in increasing order, each to a box x with
neither x nor -x filled, everything below x filled, and a marker side that
allows S(x) < 0; the positive values follow from S(-x) = -S(x).  The
number of completions depends only on the set I of boxes filled so far,
so it is memoized on I: `count_fillings` reads it at the empty set, and
`enumerate_fillings` enters only sets with a completion.  The list of a
configuration is kept with each filling's doubled contents (2wc_1, ...,
2wc_k), wc_j the diagonal of the box holding label j (`filling_contents`),
so the skew test, the vanishing conditions and the module built on it read
one listing and one integer table.

Roots are tagged tuples: ("e", i) for eps_i, ("d", i, j) for eps_j - eps_i
and ("s", i, j) for eps_j + eps_i, always with 0 < i < j.  The root sets,
the configuration's diagonals and the contents are held and compared as
the integers 2c, 2r, 2d and 2wc, never as Fractions; a region's data keeps
the Fractions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import floor
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

Root = Tuple
HALF = Fraction(1, 2)


class RegionError(ValueError):
    pass


def _fr(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _doubled(x: Fraction) -> Optional[int]:
    """2x as an integer, or None when 2x is not one (x an int or Fraction)."""
    d = x.denominator
    return 2 * x.numerator if d == 1 else x.numerator if d == 2 else None


@dataclass(frozen=True)
class RegionParams:
    r1: Fraction
    r2: Fraction

    def __post_init__(self):
        object.__setattr__(self, "r1", _fr(self.r1))
        object.__setattr__(self, "r2", _fr(self.r2))
        if (self.r1.denominator == self.r2.denominator
                and self.r2 <= self.r1 + 1):
            raise RegionError("need r2 > r1 + 1 when r1, r2 share an integrality class")

    def marked_diagonals(self) -> Tuple[Fraction, ...]:
        return (self.r1, -self.r1, self.r2, -self.r2)

    def doubled_marks(self) -> FrozenSet[int]:
        """2d for each marked diagonal d whose double is an integer: a
        weight, an integer or a half-integer, can lie only on those."""
        return frozenset(d for d in map(_doubled, self.marked_diagonals()) if d is not None)


def weight_vector(values: Iterable) -> Tuple[Fraction, ...]:
    c = tuple(_fr(v) for v in values)
    if any(v < 0 for v in c) or any(c[i] > c[i + 1] for i in range(len(c) - 1)):
        raise RegionError("weights must satisfy 0 <= c_1 <= ... <= c_k")
    denoms = {v.denominator for v in c}
    if not denoms <= {1} and not denoms <= {2}:
        raise RegionError("weights must be all integers or all half-integers")
    return c


@lru_cache(maxsize=1024)
def compute_root_sets(c: Tuple[Fraction, ...], params: RegionParams
                      ) -> Tuple[FrozenSet[Root], FrozenSet[Root]]:
    """The vanishing set Z(c) and the potential-wall set P(c), computed once
    for every region, and every candidate J, with the same weights.  The
    weights and the marked diagonals are compared as the integers 2c_i and
    2r; a weight that is not an integer or a half-integer is refused, and a
    marked diagonal whose double is not an integer (r1 = 1/3, say) holds no
    weight."""
    two = [_doubled(v) for v in c]
    if None in two:
        raise RegionError("a weight must be an integer or a half-integer")
    marked = params.doubled_marks()
    k = len(two)
    zset, pset = set(), set()
    for i, ci in enumerate(two, start=1):
        if ci == 0:
            zset.add(("e", i))
        if ci in marked:
            pset.add(("e", i))
        for j in range(i + 1, k + 1):
            cj = two[j - 1]
            if cj == ci:
                zset.add(("d", i, j))
            elif cj - ci in (2, -2):
                pset.add(("d", i, j))
            if cj + ci == 0:
                zset.add(("s", i, j))
            elif cj + ci in (2, -2):
                pset.add(("s", i, j))
    return frozenset(zset), frozenset(pset)


def root_sort_key(r: Root) -> Tuple:
    order = {"e": 0, "d": 1, "s": 2}
    return (order[r[0]],) + tuple(r[1:])


def render_root(r: Root) -> str:
    if r[0] == "e":
        return "e%d" % r[1]
    if r[0] == "d":
        return "e%d-e%d" % (r[2], r[1])
    return "e%d+e%d" % (r[2], r[1])


_ROOT_TEXT = re.compile(r"e([1-9][0-9]*)(?:([-+])e([1-9][0-9]*))?")


def parse_root(s: str) -> Root:
    """The root written `e<j>`, `e<j>-e<i>` or `e<j>+e<i>` with 0 < i < j
    (spaces ignored), as `render_root` writes it."""
    m = _ROOT_TEXT.fullmatch(s.replace(" ", ""))
    if m is None or m[3] is not None and int(m[3]) >= int(m[1]):
        raise RegionError("bad root %r: not e<j>, e<j>-e<i> or e<j>+e<i>, 0 < i < j" % s)
    hi, sign, lo = m.groups()
    if sign is None:
        return ("e", int(hi))
    return ("d" if sign == "-" else "s", int(lo), int(hi))


@dataclass(frozen=True)
class LocalRegion:
    c: Tuple[Fraction, ...]
    J: FrozenSet[Root]
    params: RegionParams

    def __post_init__(self):
        object.__setattr__(self, "c", weight_vector(self.c))
        object.__setattr__(self, "J", frozenset(self.J))
        _, pset = compute_root_sets(self.c, self.params)
        extra = sorted(self.J - pset, key=root_sort_key)
        if extra:
            raise RegionError("J must be a subset of P(c); extra roots %s"
                              % ", ".join(map(render_root, extra)))

    @property
    def k(self) -> int:
        return len(self.c)

    def root_sets(self) -> Tuple[FrozenSet[Root], FrozenSet[Root]]:
        return compute_root_sets(self.c, self.params)

    def __repr__(self) -> str:
        return "LocalRegion(c=%s, J={%s})" % (
            tuple(str(v) for v in self.c),
            ",".join(render_root(r) for r in sorted(self.J, key=root_sort_key)))


def region_to_json(region: LocalRegion) -> dict:
    return {"c": [str(v) for v in region.c],
            "J": [render_root(r) for r in sorted(region.J, key=root_sort_key)],
            "r1": str(region.params.r1), "r2": str(region.params.r2)}


# ---------------------------------------------------------------------------
# box configurations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoxConfig:
    """Constraint data of a 2k-box configuration.

    `diag` maps box indices -k..-1,1..k to doubled diagonals 2d.
    `same_diag` lists the boxes of each diagonal NW to SE, after its 2d.
    `pair_rel` holds the oriented relation for each constrained
    adjacent-diagonal pair (upper, lower): True for NW, False for SE; the
    first box always sits on the higher diagonal.
    `marker_side` gives "NW" or "SE" for each box on a marked diagonal.
    Two configurations are equal iff this data agrees.  `rows` gives each
    box's row in a planar placement; its column is the row plus its diagonal.
    """

    k: int
    diag: Tuple[Tuple[int, int], ...]
    same_diag: Tuple[Tuple[int, Tuple[int, ...]], ...]
    pair_rel: Tuple[Tuple[Tuple[int, int], bool], ...]
    marker_side: Tuple[Tuple[int, str], ...]
    rows: Tuple[Tuple[int, int], ...] = field(compare=False)


def _constraints(region: LocalRegion) -> Tuple[Dict[Tuple[int, int], bool],
                                               Dict[int, str]]:
    """Oriented pair relations and marker sides demanded by (c, J)."""
    zset, pset = region.root_sets()
    rel: Dict[Tuple[int, int], bool] = {}
    for root in pset:
        if root[0] == "d":
            _, i, j = root
            rel[(j, i)] = root in region.J
        elif root[0] == "s":
            _, i, j = root
            rel[(j, -i)] = root in region.J
    sides: Dict[int, str] = {}
    for root in pset:
        if root[0] == "e":
            i = root[1]
            sides[i] = "NW" if root in region.J else "SE"
            sides[-i] = "SE" if root in region.J else "NW"
    return rel, sides


@lru_cache(maxsize=256)
def build_config(region: LocalRegion) -> BoxConfig:
    """Realize the (c, J) constraints as planar boxes; error if impossible.
    The most recent configurations are kept: region and configuration are
    both frozen, so one is shared by every caller.  Diagonals are grouped,
    ordered and named as the integers 2d."""
    two = {}  # box -> 2d: box i on diagonal c_i, box -i on -c_i
    for i, ci in enumerate(region.c, start=1):
        two[i] = _doubled(ci)
        two[-i] = -two[i]
    rel, sides = _constraints(region)

    groups: Dict[int, List[int]] = {}  # in increasing order of the diagonal
    for i in sorted(two, key=lambda b: (two[b], b)):
        groups.setdefault(two[i], []).append(i)

    # difference constraints row_y >= row_x + w, with marker pseudo-nodes
    edges: List[Tuple[object, object, int, Tuple[int, int]]] = []
    for d, boxes in groups.items():
        for b1, b2 in zip(boxes, boxes[1:]):
            edges.append((b1, b2, 1, (b1, b2)))
    for (p, q), is_nw in rel.items():
        if is_nw:
            edges.append((p, q, 1, (p, q)))
            edges.append((-q, -p, 1, (p, q)))
        else:
            edges.append((q, p, 0, (p, q)))
            edges.append((-p, -q, 0, (p, q)))
    marked = region.params.doubled_marks()
    for b, side in sides.items():
        m = ("marker", two[b])
        if side == "NW":
            edges.append((b, m, 1, (b, b)))
        else:
            edges.append((m, b, 0, (b, b)))

    nodes = list(two) + [("marker", d) for d in marked if d in groups]
    row = {n: 0 for n in nodes}
    edges = [(x, y, w, wit) for x, y, w, wit in edges if x in row and y in row]
    for _ in range(len(nodes) + 1):
        changed = False
        for x, y, w, wit in edges:
            if row[y] < row[x] + w:
                row[y] = row[x] + w
                changed = True
        if not changed:
            break
    else:
        for x, y, w, wit in edges:
            if row[y] < row[x] + w:
                raise RegionError("unsatisfiable constraints at pair %s" % (wit,))

    return BoxConfig(
        k=region.k,
        diag=tuple(sorted(two.items())),
        same_diag=tuple((d, tuple(bs)) for d, bs in groups.items()),
        pair_rel=tuple(sorted(rel.items())),
        marker_side=tuple(sorted((b, s) for b, s in sides.items())),
        rows=tuple(sorted((b, row[b]) for b in two)),
    )


# ---------------------------------------------------------------------------
# standard fillings
# ---------------------------------------------------------------------------

Filling = Tuple[int, ...]  # values S(box_1), ..., S(box_k)


def _filling_constraints(config: BoxConfig) -> List[Tuple[int, int]]:
    """Pairs (p, q) of box indices with S(p) < S(q) required."""
    less = [(b1, b2) for _, boxes in config.same_diag for b1, b2 in zip(boxes, boxes[1:])]
    return less + [(p, q) if is_nw else (q, p) for (p, q), is_nw in config.pair_rel]


def _ideal_walk(config: BoxConfig):
    """`steps(I)`, the pairs (x, I + x) for the boxes x that may take the
    next negative value, and the memoized `count(I)` of completions."""
    k = config.k
    bit = {x: 1 << (x - 1 if x > 0 else k - x - 1) for x in range(-k, k + 1) if x}
    below = dict.fromkeys(bit, 0)
    for p, q in _filling_constraints(config):
        below[q] |= bit[p]
        below[-p] |= bit[-q]  # S(p) < S(q) is S(-q) < S(-p)
    # "NW" is S(b) < 0, so -b never takes a negative value; "SE" bars b
    barred = {b if side == "SE" else -b for b, side in config.marker_side}
    moves = [(x, bit[x], bit[x] | bit[-x], below[x]) for x in sorted(bit) if x not in barred]

    def steps(ideal: int) -> List[Tuple[int, int]]:
        return [(x, ideal | b) for x, b, pair, need in moves
                if not ideal & pair and ideal & need == need]

    @lru_cache(maxsize=None)
    def count(ideal: int) -> int:
        if ideal.bit_count() == k:
            return 1
        return sum(count(nxt) for _, nxt in steps(ideal))

    return steps, count


def count_fillings(config: BoxConfig) -> int:
    """The number of standard fillings: the walk's memoized count, nothing listed."""
    return _ideal_walk(config)[1](0)


def enumerate_fillings(config: BoxConfig) -> List[Filling]:
    """All standard fillings, as value tuples on the positive boxes.  The
    list is shared by every caller of the same configuration: do not mutate
    it."""
    return _fillings(config)[0]


def filling_contents(config: BoxConfig) -> List[Tuple[int, ...]]:
    """Each filling's doubled contents (2wc_1, ..., 2wc_k), wc_j the
    diagonal of the box holding label j, in `enumerate_fillings` order.
    Shared like the listing: do not mutate it."""
    return _fillings(config)[1]


@lru_cache(maxsize=256)
def _fillings(config: BoxConfig) -> Tuple[List[Filling], List[Tuple[int, ...]]]:
    """The listing and its content table, once per configuration.  The walk
    enters only ideals whose count is nonzero, so every path it takes ends
    in a filling."""
    k = config.k
    steps, count = _ideal_walk(config)
    two = dict(config.diag)
    results: List[Tuple[Filling, Tuple[int, ...]]] = []
    path: List[int] = []

    def rec(ideal: int) -> None:
        if len(path) == k:
            value = {x: v for v, x in enumerate(path, start=-k)}
            value.update({-x: -v for x, v in value.items()})
            # S(x) = -j puts label j in box -x, on the diagonal -2d_x
            results.append((tuple(value[i] for i in range(1, k + 1)),
                            tuple(-two[x] for x in reversed(path))))
            return
        for x, nxt in steps(ideal):
            if count(nxt):
                path.append(x)
                rec(nxt)
                path.pop()

    rec(0)
    results.sort()
    return [f for f, _ in results], [wc for _, wc in results]


def is_skew(region: LocalRegion) -> bool:
    """True iff every filling avoids the degenerate label coincidences:
    with wc the doubled contents, indexed from 0 here, none of wc_1 = 0,
    wc_2 = 0, wc_1 = -wc_2, wc_i = wc_(i+1), wc_i = wc_(i+2)."""
    k = region.k
    if not k:
        return True  # no label, so no coincidence
    for wc in filling_contents(build_config(region)):
        if wc[0] == 0:
            return False
        if k >= 2 and (wc[1] == 0 or wc[0] == -wc[1]):
            return False
        if any(wc[i] == wc[i + 1] for i in range(k - 1)):
            return False
        if any(wc[i] == wc[i + 2] for i in range(k - 2)):
            return False
    return True


# ---------------------------------------------------------------------------
# the two-row shapes and the vanishing conditions
# ---------------------------------------------------------------------------

def two_row_region(k: int, c0, params: RegionParams,
                   marker_J: Iterable[Root] = ()) -> LocalRegion:
    """The region of the canonical two-row shape with first-row diagonals
    c0, c0+1, ..., c0+k-1; marker roots may be chosen freely via marker_J."""
    c0 = _fr(c0)
    placement = _two_row_placement(k, c0)
    diag = {b: d for b, (d, _, _) in placement.items()}
    c = weight_vector(sorted(diag[i] for i in range(1, k + 1)))
    _, pset = compute_root_sets(c, params)
    J = set(r for r in marker_J)
    for root in pset:
        if root[0] == "e":
            continue
        if _two_row_rel(placement, root):
            J.add(root)
    return LocalRegion(c, frozenset(J), params)


def _two_row_placement(k: int, c0: Fraction) -> Dict[int, Tuple[Fraction, int, Fraction]]:
    """Box index -> (diagonal, row, col) for the canonical two-row shape."""
    two0 = _doubled(c0)
    if two0 is None:
        raise RegionError("weights must be all integers or all half-integers")
    boxes = []  # (2 diag, row, diag, col), ordered by the first two
    for m in range(k):
        d = c0 + m
        boxes.append((two0 + 2 * m, 0, d, d))
        boxes.append((-two0 - 2 * m, 1, -d, -d + 1))
    boxes.sort()
    out: Dict[int, Tuple[Fraction, int, Fraction]] = {}
    for pos, (_, r, d, col) in enumerate(boxes):
        idx = pos - k if pos < k else pos - k + 1
        out[idx] = (d, r, col)
    return out


def _two_row_rel(placement, root: Root) -> bool:
    """True if the root's oriented pair sits NW in the two-row shape."""
    if root[0] == "d":
        _, i, j = root
        first, second = j, i
    else:
        _, i, j = root
        first, second = j, -i
    _, r1_, _ = placement[first]
    _, r2_, _ = placement[second]
    return r1_ <= r2_ - 1


def is_tl_shape(region: LocalRegion) -> bool:
    """True iff the configuration is a 180-degree symmetric two-row shape."""
    return two_row_start(region) is not None


def two_row_start(region: LocalRegion) -> Optional[Fraction]:
    """The first-row start c0 whose two-row region, with the region's own
    marker roots, is the region, or None when the region is not a two-row
    shape.  The largest diagonal c_k ends the first row (c0 = c_k - (k-1))
    or starts the second (c0 = -c_k), so these two starts are tried.  The
    k = 0 region is the empty shape, which every start rebuilds: its start
    is 0."""
    k, c = region.k, region.c
    if not k:
        return Fraction(0)
    markers = [r for r in region.J if r[0] == "e"]
    for c0 in (c[-1] - (k - 1), -c[-1]):
        try:
            if two_row_region(k, c0, region.params, markers) == region:
                return c0
        except RegionError:
            continue
    return None


_BOUNDARY_CASES = {
    "p0_e12": (lambda r1, r2: (r1, r2)),
    "p0_12e": (lambda r1, r2: (-r1, -r2)),
    "p0v_e12": (lambda r1, r2: (-r1, r2)),
    "p0v_12e": (lambda r1, r2: (r1, -r2)),
}


def vanishing_predicates(region: LocalRegion) -> dict:
    """Per-idempotent report of the combinatorial annihilation conditions,
    read from the doubled contents (indexed from 0 here): a content step of
    1 is a step of 2, and the marked diagonals are 2r1 and 2r2."""
    config = build_config(region)
    fillings = enumerate_fillings(config)
    k = region.k
    report = {"fillings": len(fillings)}
    witnesses = {}

    wcs = filling_contents(config)
    witnesses["p_i_111"] = next(
        ((filling, i + 1) for filling, wc in zip(fillings, wcs) for i in range(k - 2)
         if not (wc[i] == wc[i + 1] - 2 or wc[i] == wc[i + 2] - 2
                 or wc[i + 1] == wc[i + 2] - 2)), None)
    report["p_i_111"] = witnesses["p_i_111"] is None

    for name, pick in _BOUNDARY_CASES.items():
        if k < 2:
            report[name] = True
            continue
        v1, v2 = pick(2 * region.params.r1, 2 * region.params.r2)
        witnesses[name] = next(
            (filling for filling, wc in zip(fillings, wcs)
             if not (wc[0] in (v1, v2) or wc[1] in (v1, v2)
                     or wc[1] == wc[0] + 2 or wc[1] == -wc[0] + 2)), None)
        report[name] = witnesses[name] is None
    report["is_tl_module"] = all(report[n] for n in
                                 ("p_i_111",) + tuple(_BOUNDARY_CASES))
    report["witnesses"] = {n: w for n, w in witnesses.items() if w is not None}
    return report


# ---------------------------------------------------------------------------
# region enumeration
# ---------------------------------------------------------------------------

def enumerate_regions(k: int, params: RegionParams, diagonal_bound) -> List[LocalRegion]:
    """All (c, J) with 0 <= c_i <= bound and at least one standard filling,
    the integer weights first, then the half-integer ones.  The fillings
    are counted, not listed, so the listing cache keeps the regions'
    listings for the callers that read them."""
    bound = _fr(diagonal_bound)
    found: List[LocalRegion] = []
    # the empty weight vector is in both classes: list it once
    for start in (Fraction(0), HALF) if k else (Fraction(0),):
        values = [start + n for n in range(floor(bound - start) + 1)]
        for c in combinations_with_replacement(values, k):
            _, pset = compute_root_sets(c, params)
            proots = sorted(pset, key=root_sort_key)
            for mask in range(1 << len(proots)):
                J = frozenset(r for b, r in enumerate(proots) if mask >> b & 1)
                region = LocalRegion(c, J, params)
                try:
                    config = build_config(region)
                except RegionError:
                    continue
                if count_fillings(config):
                    found.append(region)
    return found


# ---------------------------------------------------------------------------
# text art
# ---------------------------------------------------------------------------

def render_config(config: BoxConfig) -> str:
    """Grid rendering with one cell per box, labeled by box index; the
    columns are doubled when a diagonal is a half-integer."""
    two = dict(config.diag)
    half = any(d % 2 for d in two.values())
    cells = {(r, 2 * r + two[b] if half else r + two[b] // 2): b for b, r in config.rows}
    if not cells:
        return "(empty)"
    rows = sorted({r for r, _ in cells})
    cols = range(min(c for _, c in cells), max(c for _, c in cells) + 1)
    return "\n".join("".join("%4s" % cells.get((r, col), ".") for col in cols)
                     for r in rows)
