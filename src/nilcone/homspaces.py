"""Graded Hom spaces between free equivariant modules on the nilpotent cone.

A free object is a finite multiset of (dominant weight, internal degree)
summands.  Hom dimensions between two free objects are computed by two
independent routes that must agree:

* the Kostant route: tensor decomposition plus graded multiplicities of the
  coordinate ring (module qanalog), one result per pair of summand weights,
  the last 2048 of them kept in memory behind the weight check;
* the slice route: honest linear algebra at the principal nilpotent e,
  cutting out maps that commute with its centralizer and with the center,
  graded by the cocharacter that contracts onto it.  Each module is
  summarised once as a sum of strings of a principal sl2 through e
  (Kostant, 1959).  A map commuting with e is fixed by the images of the
  strings' lowest vectors, Hom over k[e] between strings of lengths a and
  b has dimension min(a, b), and the centralizer elements that are not
  multiples of e cut the equivariant maps out of those, one system per
  pair and degree.

The slice route may work at e alone: the regular orbit misses only a
codimension-two locus of the cone, so functions (hence maps between free
objects) are determined by their values at e.  Cohomological degrees are
exposed in geometric (even) units; the half-degree q-exponents of module
qanalog are doubled at this boundary only.
"""

from functools import lru_cache
from math import lcm

from .errors import (require_dominant, require_instance, require_int,
                     require_items, require_summand)
from .roots import RootDatum, _vec_sub
from .characters import tensor_decompose, dual_weight, restrict_to_levi
from .qanalog import graded_mult_in_nilcone
from .reps import (check_dim_cap, centralizer_and_exponents,
                   op_apply, _build_irrep, _divide_content, _eliminate,
                   _subtract, int_columns_rank, DEFAULT_DIM_CAP)


def free_object(summands):
    """Normalize a multiset of (dominant weight, internal degree) pairs
    into sorted (tuple, int) pairs; every weight entry and every degree
    must be an int (not a bool)."""
    return tuple(sorted(map(require_summand,
                            require_items(summands, "free object", None))))


def structure_sheaf(datum):
    """The free object V_0 in internal degree 0; mixed_shift shifts it."""
    require_instance(datum, RootDatum, "datum")
    return (((0,) * datum.weight_dim, 0),)


def mixed_shift(obj, n):
    """Internal shift by n, paired with the cohomological shift [n]; a
    shift keeps the order of the summands."""
    require_int(n, "shift", None, None)
    return tuple((w, i + n) for w, i in free_object(obj))


def levi_pullback(datum, subset, obj):
    """Restrict every summand to the Levi, keeping internal degrees."""
    out = []
    for w, i in free_object(obj):
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
    the graded multiplicity of V_nu in the coordinate ring
    (:func:`_kostant_pair`).  Both objects pass free_object and every
    summand weight is checked before any pair is looked up.
    """
    source, target = free_object(source), free_object(target)
    for lam, _ in [*source, *target]:
        require_dominant(datum, lam)
    table = {}
    for lam, i in source:
        for mu, j in target:
            for degree, dim in _kostant_pair(datum, lam, mu):
                key = (j - i, degree)
                table[key] = table.get(key, 0) + dim
    return {k: v for k, v in table.items() if v}


@lru_cache(maxsize=2048)
def _kostant_pair(datum, lam, mu):
    """((geometric degree, dim), ...) of the equivariant maps V_lam -> V_mu
    by the Kostant route, for weights already checked dominant."""
    out = {}
    for nu, m in tensor_decompose(datum, mu, dual_weight(datum, lam)).items():
        for exp, c in graded_mult_in_nilcone(datum, nu).coeffs.items():
            out[2 * exp] = out.get(2 * exp, 0) + m * c
    return tuple(sorted(out.items()))


def hom_profile_slice(datum, source, target, dim_cap=DEFAULT_DIM_CAP):
    """Same table, over the principal sl2 strings of each summand
    (:func:`_strings`), one system per summand pair (:func:`_slice_pair`).
    Both objects pass free_object and every summand passes check_dim_cap
    before any module is built."""
    require_int(dim_cap, "dim_cap", 1, None)
    source, target = free_object(source), free_object(target)
    for lam, _ in [*source, *target]:
        check_dim_cap(datum, lam, dim_cap)
    table = {}
    for lam, i in source:
        for mu, j in target:
            for degree, dim in _slice_pair(datum, lam, mu):
                key = (j - i, degree)
                table[key] = table.get(key, 0) + dim
    return {k: v for k, v in table.items() if v}


def _f_coefficients(datum):
    """c_i with [e, sum c_i f_i] = sum c_i h_i = 2 rho-check for e = sum e_i:
    c_i is the alpha_i-check coordinate of the sum of the positive coroots."""
    return [sum(r.root_coords[i] * datum.symmetrizers[i] // r.length_sq_half
                for r in datum.positive_roots())
            for i in range(datum.rank)]


@lru_cache(maxsize=None)
def _strings(datum, lam):
    """V_lam as a sum of principal sl2 strings: (bottoms, images), in ints.

    e = sum e_i, h = 2 rho-check and f = sum c_i f_i span a principal sl2
    (Kostant, Amer. J. Math. 81, 1959); h acts on the layer of principal
    degree d by d.  The lowest vectors g_k (f g_k = 0) of each layer
    d_k <= 0 generate V_lam over k[e]: the string g_k, e g_k, ...,
    e^(a_k - 1) g_k has length a_k = 1 - d_k, and the strings form a basis.
    bottoms[k] is d_k.  images has one entry (den, rows) per centralizer
    element x that is not a multiple of e, in order: rows[k] lists
    (k', j, num) with den * x g_k = sum num * e^j g_k', so a pair of
    modules never needs either module again.  A map commuting with e
    commutes with its multiples, the degree-2 elements with equal
    coefficients over the simple root vectors.  A Levi of type A1 x A1 has
    two degree-2 elements, e_0 and e_2, neither a multiple of e.
    """
    elements = [el for el in centralizer_and_exponents(datum)[0]
                if el.degree > 2 or len(set(el.coeffs)) > 1]
    rep = _build_irrep(datum, lam)
    e = rep.e
    f = {}
    for c, op in zip(_f_coefficients(datum), rep.f_ops):
        for b, col in op.items():
            _subtract(f.setdefault(b, {}), col, -c)

    bottoms = []
    strings = []  # strings[k][j] = e^j g_k
    top = max(rep.layers)
    # shortest strings first, which keeps the integers of _slice_pair small
    for d in range(-(top % 2), -top - 1, -2):
        idxs = rep.layers[d]
        for kernel in _eliminate([f.get(b, {}) for b in idxs], rep.dim)[1]:
            vec = [{b: v for b, v in zip(idxs, kernel) if v}]
            for _ in range(-d):
                vec.append(op_apply(e, vec[-1]))
            assert vec[-1] and not op_apply(e, vec[-1]), \
                "a string of V_%r without length 1 - %d" % (lam, d)
            bottoms.append(d)
            strings.append(vec)
    assert sum(len(vec) for vec in strings) == rep.dim, \
        "the strings of V_%r do not add up to its dimension" % (lam,)

    # string coordinates by layer: one kernel solve per target layer, over
    # the layer's string basis followed by the images that land there
    basis = {}  # layer -> [(k, j)]
    for k, vec in enumerate(strings):
        for j in range(len(vec)):
            basis.setdefault(bottoms[k] + 2 * j, []).append((k, j))
    targets = {}  # layer -> [(element index, k, x g_k)]
    for t, el in enumerate(elements):
        x = el.realize(rep)
        for k, vec in enumerate(strings):
            targets.setdefault(bottoms[k] + el.degree, []).append(
                (t, k, op_apply(x, vec[0])))
    solved = [[None] * len(strings) for _ in elements]
    for layer, found in targets.items():
        cells = basis.get(layer, [])
        columns = [strings[k][j] for k, j in cells]
        kernel = _eliminate(columns + [image for _, _, image in found],
                            rep.dim)[1]
        # the string basis is independent, so the m-th kernel vector is
        # nonzero at the m-th image and otherwise on the basis only
        assert len(kernel) == len(found)
        n = len(cells)
        for m, ((t, k, _), vec) in enumerate(zip(found, kernel)):
            # vec[n + m] * x g_k + sum_s vec[s] * (string basis)_s = 0
            sign = -1 if vec[n + m] > 0 else 1
            solved[t][k] = (-sign * vec[n + m],
                            [(k2, j2, sign * vec[s])
                             for s, (k2, j2) in enumerate(cells) if vec[s]])
    images = []
    for row in solved:
        den = lcm(*(d for d, _ in row))
        images.append((den, tuple(tuple((k2, j2, num * (den // d))
                                        for k2, j2, num in terms)
                                  for d, terms in row)))
    return tuple(bottoms), tuple(images)


def _slice_pair(datum, lam, mu):
    """((degree, dim), ...) of the equivariant maps V_lam -> V_mu.

    The unknowns are the coordinates of phi(g_k) over the target strings
    e^j h_l that e^(a_k) kills: j >= b_l - a_k, so min(a_k, b_l) of them
    for each pair of strings.  The equations are phi(x g_k) = x phi(g_k)
    for each centralizer element x that is not a multiple of e
    (:func:`_strings`), in target string coordinates times both
    denominators; rank one and a torus have none.  They are
    ranked as columns over the unknowns in decreasing order of their first
    unknown, so a column seldom meets a pivot at its first row and is
    mostly kept as it is, which keeps the integers small.
    """
    if not same_center_component(datum, lam, mu):
        return ()
    bottoms_s, images_s = _strings(datum, lam)
    bottoms_t, images_t = _strings(datum, mu)
    lengths_t = [1 - d for d in bottoms_t]
    unknowns = {}  # degree -> {k: [(l, j) of the unknowns of phi(g_k)]}
    for k, d_k in enumerate(bottoms_s):
        for l, d_l in enumerate(bottoms_t):
            for j in range(max(0, d_k - d_l), lengths_t[l]):
                by_source = unknowns.setdefault(d_l + 2 * j - d_k, {})
                by_source.setdefault(k, []).append((l, j))
    out = []
    for w in sorted(unknowns):
        cells = unknowns[w]
        index = {}
        for k, row in cells.items():
            for l, j in row:
                index[(k, l, j)] = len(index)
        equations = {}
        for t, ((den_s, rows_s), (den_t, rows_t)) in enumerate(
                zip(images_s, images_t)):
            for k, row in enumerate(rows_s):
                for k2, j2, num in row:
                    for l, j in cells.get(k2, ()):
                        if j + j2 < lengths_t[l]:
                            eq = equations.setdefault((t, k, l, j + j2), {})
                            u = index[(k2, l, j)]
                            eq[u] = eq.get(u, 0) + den_t * num
                for l, j in cells.get(k, ()):
                    u = index[(k, l, j)]
                    for l2, j2, num in rows_t[l]:
                        if j + j2 < lengths_t[l2]:
                            eq = equations.setdefault((t, k, l2, j + j2), {})
                            eq[u] = eq.get(u, 0) - den_s * num
        columns = [{u: v for u, v in eq.items() if v}
                   for eq in equations.values()]
        columns = [_divide_content(col) for col in columns if col]
        columns.sort(key=min, reverse=True)
        dim = len(index) - int_columns_rank(columns)
        if dim:
            out.append((w, dim))
    return tuple(out)


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
    """Tensoring is self-adjoint up to duals, at the level of profiles.

    The left side, Hom(V_v1, V_v2), decomposes V_v2 tensor V_v1^*
    (``tensor_decompose(v2, v1^*)``, through :func:`_kostant_pair`); the
    right side expands V_v1^* tensor V_v2 (``tensor_decompose(v1^*, v2)``)
    and maps the structure sheaf into it.  So the check compares the two
    argument orders of the Brauer-Klimyk sum, and it must keep both: with
    the arguments put in one order, it would compare a computation with
    itself.
    """
    v1, v2 = require_dominant(datum, v1), require_dominant(datum, v2)
    lhs = hom_profile_kostant(datum, [(v1, 0)], [(v2, 0)])
    expansion = []
    for nu, m in tensor_decompose(datum, dual_weight(datum, v1), v2).items():
        expansion.extend([(nu, 0)] * m)
    return lhs == hom_profile_kostant(datum, structure_sheaf(datum), expansion)


def orlov_degree_hom(datum, lam, mu, i, j):
    """Dimension of the abelian-category Hom between two shifted summands.

    Only the piece matching the internal-degree gap survives the grading:
    geometric function degree i - j.  Weights and degrees are checked first.
    """
    lam, mu = require_dominant(datum, lam), require_dominant(datum, mu)
    require_int(i, "internal degree", None, None)
    require_int(j, "internal degree", None, None)
    if i == j:
        return 1 if lam == mu else 0
    gap = i - j
    if gap < 0 or gap % 2:
        return 0
    table = hom_profile_kostant(datum, [(lam, i)], [(mu, j)])
    return table.get((j - i, gap), 0)


def orlov_axiom_check(datum, lam, mu, i, j):
    """Vanishing off the strict degree decrease, one-dimensional diagonal.

    Where the axioms claim a value (i = j, or an odd or negative gap
    i - j), orlov_degree_hom must equal the Kostant profile's entry at
    (j - i, i - j); an admissible slot claims nothing and is not checked,
    but its weights and degrees are.
    """
    lam, mu = require_dominant(datum, lam), require_dominant(datum, mu)
    require_int(i, "internal degree", None, None)
    require_int(j, "internal degree", None, None)
    gap = i - j
    if gap > 0 and gap % 2 == 0:
        return True
    table = hom_profile_kostant(datum, [(lam, i)], [(mu, j)])
    return orlov_degree_hom(datum, lam, mu, i, j) == table.get((-gap, gap), 0)

