"""Tensor-space combinatorics: branching graphs, multiplicity dimensions,
and the weight data of the two-row modules appearing in M (x) N (x) V^k.

For highest weights (a,0) and (b,0) with a > b + 2, level j of the branching
graph holds the two-row partitions (a+b+j-l, l); edges add one box.  The
multiplicity space of a level-k node is counted three independent ways:
path counting, a closed binomial formula, and the standard fillings of the
associated two-row box configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Dict, List, Optional, Tuple

from . import calib as cb
from . import regions as rg
from . import words as wd
from .scalars import Scalar, U, bb, qint, qint_signed, render

Partition = Tuple[int, int]


class SchurWeylError(ValueError):
    pass


@dataclass(frozen=True)
class SWParams:
    a: int
    b: int

    def __post_init__(self):
        a, b = self.a, self.b
        if b == 0:
            why = "b = 0 puts r2 = r1 + 1, too close for the regions' boundary parameters"
        elif b < 1:
            why = "b = %d is below 1" % b
        elif a <= b + 2:
            why = "a = %d is not above b + 2 = %d" % (a, b + 2)
        else:
            return
        raise SchurWeylError("need a > b + 2 >= 3: %s (given a = %d, b = %d)" % (why, a, b))

    @property
    def r1(self) -> Fraction:
        return Fraction(self.a - self.b, 2)

    @property
    def r2(self) -> Fraction:
        return Fraction(self.a + self.b + 2, 2)

    def region_params(self) -> rg.RegionParams:
        return rg.RegionParams(self.r1, self.r2)


def level_nodes(params: SWParams, j: int) -> List[Partition]:
    a, b = params.a, params.b
    if j == -1:
        return [(a, 0)]
    if j == 0:
        return [(a + b - l, l) for l in range(0, b + 1)]
    return [(a + b + j - l, l) for l in range(0, (j + a + b) // 2 + 1)]


@dataclass
class Bratteli:
    params: SWParams
    kmax: int
    levels: List[List[Partition]]
    edges: Dict[int, List[Tuple[Partition, Partition]]]

    def path_counts(self, k: int) -> Dict[Partition, int]:
        """Paths from level 0 down to each node of level k."""
        counts = {node: 1 for node in self.levels[1]}  # level 0
        for j in range(1, k + 1):
            nxt: Dict[Partition, int] = {node: 0 for node in self.levels[j + 1]}
            for mu, lam in self.edges[j]:
                nxt[lam] += counts.get(mu, 0)
            counts = nxt
        return counts


def bratteli(params: SWParams, kmax: int) -> Bratteli:
    levels = [level_nodes(params, j) for j in range(-1, kmax + 1)]
    edges: Dict[int, List[Tuple[Partition, Partition]]] = {}
    edges[0] = [((params.a, 0), node) for node in levels[1]]
    for j in range(1, kmax + 1):
        prev = levels[j]
        cur = set(levels[j + 1])
        step = []
        for mu in prev:
            for lam in ((mu[0] + 1, mu[1]), (mu[0], mu[1] + 1)):
                if lam[0] >= lam[1] and lam in cur:
                    step.append((mu, lam))
        edges[j] = step
    return Bratteli(params, kmax, levels, edges)


def bratteli_dot(br: Bratteli) -> str:
    lines = ["digraph bratteli {", "  rankdir=TB;"]
    def name(j, node):
        return '"%d:%d,%d"' % (j, node[0], node[1])
    for j in range(-1, br.kmax + 1):
        lines.append("  { rank=same; %s }" % " ".join(
            name(j, node) for node in br.levels[j + 1]))
    for j, step in sorted(br.edges.items()):
        for mu, lam in step:
            lines.append("  %s -> %s;" % (name(j - 1, mu), name(j, lam)))
    lines.append("}")
    return "\n".join(lines)


def _require_node(params: SWParams, k: int, l: int) -> None:
    """Refuse (k, l) unless (a+b+k-l, l) is a node of level k >= 0."""
    if k < 0 or (params.a + params.b + k - l, l) not in level_nodes(params, k):
        raise SchurWeylError("partition not at level %d" % k)


def dim_formula(params: SWParams, k: int, l: int) -> int:
    """Closed binomial form for the multiplicity of (a+b+k-l, l) at level k."""
    _require_node(params, k, l)
    a, b = params.a, params.b
    total = 0
    for c in range(max(0, l - k), min(b, l) + 1):
        if l <= a + b - c:
            total += comb(k, l - c)
        else:
            total += comb(k, l - c) - comb(k, l - (a + b - c) - 1)
    return total


def zero_multiplicity(params: SWParams, k: int, l: int) -> bool:
    return l > params.b + k


def lambda_to_region(params: SWParams, k: int, l: int
                     ) -> Tuple[Scalar, rg.LocalRegion, rg.BoxConfig]:
    """Weight data (z, region, configuration) of the level-k node with
    second row l; errors on zero-multiplicity nodes.  The data of the most
    recent nodes is kept, and every caller of one node shares its tuple."""
    _require_node(params, k, l)
    if zero_multiplicity(params, k, l):
        raise SchurWeylError("zero multiplicity at (k=%d, l=%d)" % (k, l))
    return _node_data(params, k, l)


@lru_cache(maxsize=512)
def _node_data(params: SWParams, k: int, l: int
               ) -> Tuple[Scalar, rg.LocalRegion, rg.BoxConfig]:
    """`lambda_to_region` of a node of nonzero multiplicity, kept for the
    512 most recent nodes."""
    a, b = params.a, params.b
    exponent = ((a + b - l) * (a + b - l - 1) + l * (l - 3)
                - a * (a - 1) - b * (b - 1) - k * (a + b - 2))
    z = Scalar.monomial(u=exponent)
    if k % 2:
        z = -z
    # the first row runs from r2 - l to r2 - 1 + k - l; the one marker root
    # is e_(l-b), or e_(a-b) once the second row passes a
    marker = [("e", l - b)] if b < l <= a else [("e", a - b)] if l > a else []
    region = rg.two_row_region(k, params.r2 - l, params.region_params(), marker)
    return z, region, rg.build_config(region)


@lru_cache(maxsize=64)
def _path_counts(params: SWParams, k: int) -> Dict[Partition, int]:
    """`path_counts(k)` of `bratteli(params, k)`, built once per level and
    kept for the 64 most recent levels: do not mutate it."""
    return bratteli(params, k).path_counts(k)


def dim_B(params: SWParams, k: int, l: int, method: str = "formula") -> int:
    """The multiplicity of the level-k node (a+b+k-l, l), counted by
    `method`: "formula" (`dim_formula`), "paths" (read from one table of
    path counts per level) or "fillings" (the standard fillings of the
    node's region, counted without listing them).  A pair that is not a
    node of level k >= 0 raises `SchurWeylError` for every method; a
    zero-multiplicity node has dimension 0 by all three."""
    if method not in ("formula", "paths", "fillings"):
        raise SchurWeylError("unknown method %r" % method)
    _require_node(params, k, l)
    if method == "formula":
        return dim_formula(params, k, l)
    if method == "paths":
        return _path_counts(params, k)[(params.a + params.b + k - l, l)]
    if zero_multiplicity(params, k, l):
        return 0
    _, _, config = lambda_to_region(params, k, l)
    return rg.count_fillings(config)


def dim_check_sum(params: SWParams, k: int) -> bool:
    """Sum of gl_2-dimension times multiplicity equals (a+1)(b+1)2^k."""
    total = 0
    for (l1, l2) in level_nodes(params, k):
        total += (l1 - l2 + 1) * dim_formula(params, k, l2)
    return total == (params.a + 1) * (params.b + 1) * 2 ** k


def module_for(params: SWParams, k: int, l: int) -> cb.CalibratedModule:
    if k < 1:
        raise SchurWeylError("a module needs k >= 1, got k=%d" % k)
    _, region, _ = lambda_to_region(params, k, l)
    return cb.build_module(cb.ModuleSpec(region))


def gn_b_values(params: SWParams, k: int, l: int,
                module: Optional[cb.CalibratedModule] = None) -> dict:
    """The blob parameter from the closed two-parameter form, cross-checked
    against the matrix-derived value.

    The exponents omega = (w1, w2) = (-(b+1), -(a+1)) are read from the
    boundary specialization; both enter only through [w1+1][w2+1] and
    symmetric powers, and this pair is the one consistent with the product
    identity a0*ak = -[w1+1][w2+1](q - 1/q)^2 under q = u.
    """
    if module is None:
        module = module_for(params, k, l)
    w1, w2 = -(params.b + 1), -(params.a + 1)
    spec = module.spec.specialize
    q_minus = U - U.inv()
    denom = q_minus * q_minus * qint_signed(w1 + 1) * qint_signed(w2 + 1)
    a0ak_value = spec(bb("t0/t")) * spec(bb("tk/t"))
    identity_ok = (a0ak_value == -denom)
    bc = cb.b_constant(module)
    zk = bc["z"] / qint(k)

    def sym(x: int) -> Scalar:
        return Scalar.monomial(u=x) + Scalar.monomial(u=-x)

    if k % 2 == 0:
        b_gn = (sym(w1 + w2 + 1) + zk) / denom
    else:
        b_gn = -(sym(w1 - w2) + zk) / denom
    # the closed form normalizes the cup products without the inner sign;
    # converting to the diagram normalization costs a^(k-1)
    b_gn = b_gn * Scalar.from_int(wd.A_SIGN ** (k - 1))
    report = {
        "omega": (w1, w2),
        "a0ak_identity": identity_ok,
        "b_gn": b_gn,
        "b_matrix": bc["b"],
        "defined": bc["defined"],
    }
    if bc["defined"] and bc["b"] is not None:
        report["agrees"] = _favored_b(bc["b"], a0ak_value) == b_gn
    else:
        report["agrees"] = None
    return report


def _favored_b(b_matrix: Scalar, a0ak_value: Scalar) -> Scalar:
    """Substitute the favorite boundary normalizations a0*ak -> product of
    wall brackets into the symbolic matrix-derived b."""
    # b_matrix = expr / (a0*ak); replace the monomial a0*ak by its value
    lifted = b_matrix * Scalar.var("a0") * Scalar.var("ak")
    if lifted.num.variables() and any(v in (3, 4) for v in lifted.num.variables()):
        raise SchurWeylError("unexpected boundary symbols in b")
    return lifted / a0ak_value


def sw_table(params: SWParams, k: int) -> List[dict]:
    """Per-node dimension and weight-data table at level k."""
    rows = []
    for (l1, l2) in level_nodes(params, k):
        l = l2
        row = {"lambda": [l1, l2], "l": l,
               "dim_paths": dim_B(params, k, l, "paths"),
               "dim_formula": dim_B(params, k, l, "formula"),
               "dim_fillings": dim_B(params, k, l, "fillings")}
        if zero_multiplicity(params, k, l):
            row["zero"] = True
        else:
            z, region, _ = lambda_to_region(params, k, l)
            row["z"] = render(z)
            row["region"] = rg.region_to_json(region)
        rows.append(row)
    return rows
