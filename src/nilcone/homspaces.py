"""Graded Hom spaces between free equivariant modules on the nilpotent cone.

A free object is a finite multiset of (dominant weight, internal degree)
summands.  Hom dimensions between two free objects are computed by two
independent routes that must agree:

* the Kostant route: tensor decomposition plus graded multiplicities of the
  coordinate ring (module qanalog);
* the slice route: honest linear algebra at the principal nilpotent, cutting
  out maps that commute with its centralizer and with the center, graded by
  the cocharacter that contracts onto it.

Morphisms are modelled by their values at the principal nilpotent: the
regular orbit misses only a codimension-two locus, so functions (hence
morphism matrices) are determined by that value.  Cohomological degrees are
exposed in geometric (even) units; the half-degree q-exponents of module
qanalog are doubled at this boundary only.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import DomainError
from .roots import _vec_sub
from .characters import (tensor_decompose, dual_weight, restrict_to_levi,
                         _require_dominant)
from .qanalog import graded_mult_in_nilcone
from .reps import (build_irrep, centralizer_and_exponents, op_add,
                   op_compose, op_equal, _op_norm, _strip_column,
                   int_columns_rank, DEFAULT_DIM_CAP)


def free_object(summands):
    """Normalize a multiset of (dominant weight, internal degree) pairs."""
    out = []
    for w, i in summands:
        out.append((tuple(w), int(i)))
    return tuple(sorted(out))


def structure_sheaf(datum, degree=0):
    zero = tuple([0] * datum.weight_dim)
    return free_object([(zero, degree)])


def mixed_shift(obj, n):
    """Internal shift by n, recording the paired cohomological shift [n]."""
    shifted = free_object([(w, i + n) for w, i in obj])
    return shifted, {"internal": n, "cohomological": n}


def levi_pullback(datum, subset, obj):
    """Restrict every summand to the Levi, keeping internal degrees."""
    out = []
    for w, i in obj:
        for nu, m in restrict_to_levi(datum, subset, w).items():
            out.extend([(nu, i)] * m)
    return free_object(out)


# -- profiles ------------------------------------------------------------------

def same_center_component(datum, lam, mu):
    """Whether lam - mu lies in the root lattice (central characters agree)."""
    coords = datum.root_coordinates(_vec_sub(tuple(lam), tuple(mu)))
    return coords is not None


def hom_profile_kostant(datum, source, target):
    """Hom dimensions keyed by (internal degree difference, geometric degree).

    For each summand pair the geometric-degree-2k dimension is the number of
    copies of each V_nu in V_mu tensor V_lam^* weighted by the q^k piece of
    the graded multiplicity of V_nu in the coordinate ring.
    """
    table = {}
    for lam, i in source:
        dual = dual_weight(datum, lam)
        for mu, j in target:
            mults = tensor_decompose(datum, mu, dual)
            for nu, m in mults.items():
                for exp, c in graded_mult_in_nilcone(datum, nu).coeffs.items():
                    key = (j - i, 2 * exp)
                    table[key] = table.get(key, 0) + m * c
    return {k: v for k, v in table.items() if v}


def hom_profile_slice(datum, source, target, dim_cap=DEFAULT_DIM_CAP):
    """Same table, via equivariant linear algebra at the principal nilpotent."""
    table = {}
    for lam, i in source:
        for mu, j in target:
            for degree, dim in _slice_pair(datum, lam, mu, dim_cap):
                key = (j - i, degree)
                table[key] = table.get(key, 0) + dim
    return {k: v for k, v in table.items() if v}


@lru_cache(maxsize=None)
def _slice_pair(datum, lam, mu, dim_cap):
    """((degree, dim), ...) of the equivariant maps V_lam -> V_mu; dim_cap
    is part of the memo key, so a smaller cap still raises."""
    elements, _ = centralizer_and_exponents(datum)
    if not same_center_component(datum, lam, mu):
        return ()
    rep_s = build_irrep(datum, lam, dim_cap)
    rep_t = build_irrep(datum, mu, dim_cap)
    ops_s = [el.realize(rep_s) for el in elements]
    ops_t = [el.realize(rep_t) for el in elements]

    pdeg_s = [rep_s.principal_degree(a) for a in range(rep_s.dim)]
    pdeg_t = [rep_t.principal_degree(b) for b in range(rep_t.dim)]
    cells_by_degree = {}
    for s in range(rep_s.dim):
        for t in range(rep_t.dim):
            cells_by_degree.setdefault(pdeg_t[t] - pdeg_s[s], []).append((t, s))

    # transposed source action: row index -> {col: value}
    rows_s = []
    for X in ops_s:
        rows = {}
        for c, col in X.items():
            for r, v in col.items():
                rows.setdefault(r, {})[c] = v
        rows_s.append(rows)

    out = []
    for w in sorted(cells_by_degree):
        cells = cells_by_degree[w]
        eq_index = {}
        columns = []
        for (t, s) in cells:
            col = {}
            for xi, X_t in enumerate(ops_t):
                tcol = X_t.get(t)
                if tcol:
                    for t2, v in tcol.items():
                        eq = eq_index.setdefault((xi, t2, s), len(eq_index))
                        col[eq] = col.get(eq, 0) + v
                srow = rows_s[xi].get(s)
                if srow:
                    for s2, v in srow.items():
                        eq = eq_index.setdefault((xi, t, s2), len(eq_index))
                        col[eq] = col.get(eq, 0) - v
            columns.append(_strip_column(col))
        rank = int_columns_rank(columns)
        dim = len(cells) - rank
        if dim:
            out.append((w, dim))
    return tuple(out)


def collapse_profile(table):
    """Forget the cohomological grading (sum it out per internal key)."""
    out = {}
    for (delta, _deg), v in table.items():
        out[delta] = out.get(delta, 0) + v
    return {k: v for k, v in out.items() if v}


def profile_to_json(source, target, table):
    entries = [{"internal": d, "cohomological": k, "dim": v}
               for (d, k), v in sorted(table.items())]
    return {
        "source": [[list(w), i] for w, i in source],
        "target": [[list(w), i] for w, i in target],
        "entries": entries,
    }


# -- checks --------------------------------------------------------------------

def adjunction_check(datum, v1, v2):
    """Tensoring is self-adjoint up to duals, at the level of profiles."""
    _require_dominant(datum, v1)
    _require_dominant(datum, v2)
    lhs = hom_profile_kostant(datum, free_object([(v1, 0)]),
                              free_object([(v2, 0)]))
    expansion = []
    for nu, m in tensor_decompose(datum, dual_weight(datum, v1), v2).items():
        expansion.extend([(nu, 0)] * m)
    rhs = hom_profile_kostant(datum, structure_sheaf(datum),
                              free_object(expansion))
    return lhs == rhs


def orlov_degree_hom(datum, lam, mu, i, j):
    """Dimension of the abelian-category Hom between two shifted summands.

    Only the piece matching the internal-degree gap survives the grading:
    geometric function degree i - j.
    """
    if i == j:
        return 1 if tuple(lam) == tuple(mu) else 0
    gap = i - j
    if gap < 0 or gap % 2:
        return 0
    table = hom_profile_kostant(datum, free_object([(lam, i)]),
                                free_object([(mu, j)]))
    return table.get((j - i, gap), 0)


def orlov_axiom_check(datum, lam, mu, i, j):
    """Vanishing off the strict degree decrease, one-dimensional diagonal."""
    dim = orlov_degree_hom(datum, lam, mu, i, j)
    if j == i:
        return dim == (1 if tuple(lam) == tuple(mu) else 0)
    if (j - i) % 2 or j > i:
        return dim == 0
    # admissible slot: consistency with the full profile
    table = hom_profile_kostant(datum, free_object([(lam, i)]),
                                free_object([(mu, j)]))
    return dim == table.get((j - i, i - j), 0)


# -- concrete morphisms ----------------------------------------------------------

class HomElement:
    """A morphism by its value at the principal nilpotent: blocks between
    the summand fibers, indexed (source slot, target slot)."""

    __slots__ = ("datum", "source", "target", "blocks")

    def __init__(self, datum, source, target, blocks):
        self.datum = datum
        self.source = source
        self.target = target
        self.blocks = {}
        for k, mat in blocks.items():
            mat = _op_norm(mat)
            if mat:
                self.blocks[k] = mat

    def __eq__(self, other):
        return (self.source == other.source and self.target == other.target
                and self.blocks == other.blocks)

    def degree_of(self):
        """(internal shift, geometric degree) if homogeneous, else None."""
        degs = set()
        for (s, t), mat in self.blocks.items():
            lam, i = self.source[s]
            mu, j = self.target[t]
            rep_s = build_irrep(self.datum, lam)
            rep_t = build_irrep(self.datum, mu)
            for c, col in mat.items():
                for r, v in col.items():
                    if v:
                        degs.add((j - i,
                                  rep_t.principal_degree(r) - rep_s.principal_degree(c)))
        if len(degs) == 1:
            return degs.pop()
        return None


def identity_hom(datum, obj):
    blocks = {}
    for s, (lam, _i) in enumerate(obj):
        rep = build_irrep(datum, lam)
        blocks[(s, s)] = {a: {a: Fraction(1)} for a in range(rep.dim)}
    return HomElement(datum, obj, obj, blocks)


def compose(f, g):
    """g after f; source(g) must be target(f).  Gradings add."""
    if f.target != g.source:
        raise DomainError("composition shape mismatch")
    blocks = {}
    for (s, m), fm in f.blocks.items():
        for (m2, t), gm in g.blocks.items():
            if m2 != m:
                continue
            prod = op_compose(gm, fm)
            if not prod:
                continue
            key = (s, t)
            blocks[key] = op_add(blocks.get(key, {}), prod) if key in blocks else prod
    return HomElement(f.datum, f.source, g.target, blocks)


def hom_element_is_equivariant(f):
    """Every block commutes with the centralizer and matches components."""
    elements, _ = centralizer_and_exponents(f.datum)
    for (s, t), mat in f.blocks.items():
        lam, _ = f.source[s]
        mu, _ = f.target[t]
        if not same_center_component(f.datum, lam, mu):
            return False
        rep_s = build_irrep(f.datum, lam)
        rep_t = build_irrep(f.datum, mu)
        for el in elements:
            a = el.realize(rep_s)
            b = el.realize(rep_t)
            lhs = op_compose(b, mat)
            rhs = op_compose(mat, a)
            if not op_equal(lhs, rhs):
                return False
    return True
