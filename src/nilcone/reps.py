"""Exact matrix models of irreducible modules and the principal nilpotent.

Modules are built weight space by weight space, going down from the
highest-weight vector.  Every operator is an integer matrix over a Z-basis
of the lattice L = span_Z { f_i1 ... f_ik v_lam }: f_i maps words to words,
and e_i moves past each f_j by [e_i, f_j] = delta_ij h_i, with h_i acting by
an integer.  The candidates for V(mu) are the vectors f_i b with b in the
Z-basis of V(mu + alpha_i), so they span L(mu) over Z.  In an irreducible
module no nonzero vector of weight mu below the highest weight is killed by
every e_j (it would generate a proper submodule), so e maps L(mu)
isomorphically onto the lattice of the candidates' e-images, which are
integer vectors over the bases above, formed in one pass per weight space
(:func:`_build_irrep`).  One unimodular reduction of those images per
weight space (:func:`_hermite`) gives a Z-basis of that lattice, hence of
L(mu), and back-substitution gives every candidate's integer coordinates
over it (:func:`fraction_solve`); both reduce their own copies of the
columns in place (:func:`_subtract`).  The rows of the e_i lie in
different weight spaces, so each Z-basis image is one whole column of the
principal nilpotent e = sum e_i: the module keeps them as MatrixRep.e, and
the builder, the kernel filtrations, the centralizer and the slice route
read e from there.  MatrixRep.validate checks [e_i, f_j] = delta_ij h_i by
:func:`op_commutator`, which forms ab - ba one column at a time, and
compares [e_i, f_i] with h_i one weight space at a time, where h_i acts by
the pairing with alpha_i-check, so no matrix of h_i is formed.

Ranks, the centralizer kernel and the kernel filtration rows go through one
fraction-free integer elimination, :func:`_eliminate`, which copies a
column once, at its first reduction, and then scales, reduces and divides
that copy in place.  Both reductions return a single column at once, as
their loops would: on a filtration-sweep round 3,881 of the builder's
4,995 weight-space systems have one column.
Kernel filtrations of e come from one top-down pass over the
principal-degree layers (:func:`_layer_rows`), whose labelled rows
bk_filtration restricts to a weight space, one rank per label from the top
label down, until the rank is the dimension of the space.  Each layer
reduces the rows pushed down from the layer above and coordinate rows of e
only at the indices that no kept row there leads.  A profile keeps only
the jumps of its dimensions (:class:`FiltrationProfile`).

Modules are not memoised: each call of build_irrep builds one.  The layer
rows of the last module asked for are memoised with functools.lru_cache,
the row set holding its module; a module object is never changed after it
is built.

Operators are stored sparsely as {column: {row: int}}.
"""

from functools import lru_cache
from itertools import groupby
from math import gcd
from operator import itemgetter

from .errors import (ResourceError, require_dominant, require_instance,
                     require_int, require_weight)
from .qpoly import QPoly
from .roots import RootDatum, _dot, _vec_add
from .characters import irreducible_character, weyl_dimension, _character

DEFAULT_DIM_CAP = 400
# layer rows of matrix modules kept in memory, each row set holding its
# module; they are reused only across the weight spaces of one module
_MODULES_KEPT = 1


# -- sparse operator helpers -------------------------------------------------

def op_apply(op, vec):
    """Apply {col: {row: val}} to {index: val}."""
    out = {}
    for c, x in vec.items():
        col = op.get(c)
        if not col:
            continue
        for r, a in col.items():
            s = out.get(r, 0) + a * x
            if s:
                out[r] = s
            else:
                out.pop(r, None)
    return out


def op_transpose(op):
    """The transpose of {col: {row: val}}, in the same form."""
    out = {}
    for c, col in op.items():
        for r, v in col.items():
            out.setdefault(r, {})[c] = v
    return out


def _subtract(col, piv, q):
    """col -= q * piv, in place, on sparse integer columns."""
    for k, v in piv.items():
        s = col.get(k, 0) - q * v
        if s:
            col[k] = s
        else:
            col.pop(k, None)


def op_commutator(a, b):
    """ab - ba, one column at a time: column c is a(b e_c) - b(a e_c),
    accumulated in one dict that drops entries as they cancel; neither
    product is formed whole."""
    out = {}
    for c in a.keys() | b.keys():
        col = op_apply(a, b[c]) if c in b else {}
        for t, x in a.get(c, {}).items():
            if t in b:
                _subtract(col, b[t], x)
        if col:
            out[c] = col
    return out


def _divide_content(col):
    """Divide an integer column by the gcd of its entries, in place."""
    g = gcd(*col.values())
    if g > 1:
        for k in col:
            col[k] //= g
    return col


def _eliminate(columns, nrows=None):
    """Fraction-free elimination of sparse columns; returns (kept, kernel).

    Columns are reduced in order against the pivots of the earlier ones:
    a column whose smallest row holds no pivot yet becomes that row's pivot,
    otherwise an integer combination with the pivot clears the row and the
    result is divided by its content.  Entries stay integers, and the
    content division keeps them small where Bareiss's fraction-free
    elimination (Math. Comp. 22, 1968) divides by the previous pivot.
    A column is copied once, scaled, at its first reduction; each step
    then scales that copy, subtracts the pivot's multiple (:func:`_subtract`)
    and divides by the content in place (:func:`_divide_content`), so no
    step builds a new dict and the caller's columns are left alone.  A
    marked column is a copy from the start.
    kept maps the index of each column that became a pivot to its reduced
    form, so the rank is len(kept) and, for every j, the reduced columns
    kept from columns[:j + 1] span what columns[:j + 1] span.

    The columns are integer, with no zero entries.  Without nrows only the
    rank is kept.  With nrows, column j over range(nrows) carries a marker 1
    at row nrows + j, which makes it primitive; a column that reduces to
    zero above the markers leaves its marker part, a kernel vector of ints,
    and these vectors form a kernel basis.  Column j's vector is nonzero at
    j and otherwise supported on the kept columns before j.
    """
    ncols = len(columns)
    if ncols == 1:  # what the loop below returns, without its setup
        col = columns[0]
        if nrows is not None:
            return ({0: {**col, nrows: 1}}, []) if col else ({}, [[1]])
        return ({0: col} if col else {}), []
    if nrows is not None:
        columns = [{**col, nrows + j: 1} for j, col in enumerate(columns)]
    pivots = {}  # pivot row -> reduced column
    kept = {}
    kernel = []
    for j, col in enumerate(columns):
        own = nrows is not None  # the marked columns are copies already
        while col:
            r = min(col)
            if nrows is not None and r >= nrows:
                kernel.append([col.get(nrows + j, 0) for j in range(ncols)])
                break
            piv = pivots.get(r)
            if piv is None:
                pivots[r] = kept[j] = col
                break
            a, b = piv[r], col[r]
            g = gcd(a, b)
            ca, cb = b // g, a // g
            if not own:
                col = {k: cb * v for k, v in col.items()}
                own = True
            elif cb != 1:
                for k in col:
                    col[k] *= cb
            _subtract(col, piv, ca)
            _divide_content(col)
    return kept, kernel


def int_columns_rank(columns):
    """Rank of a list of integer sparse columns, by exact elimination."""
    return len(_eliminate(columns)[0])


def _hermite(columns):
    """An echelon Z-basis of the lattice integer sparse columns span.

    Each column is reduced at its smallest row by Euclid steps against the
    pivot there: both made positive, the smaller is the pivot and the other
    loses the nearest-integer multiple of it, until the column is 0 at that
    row or it reaches a row without a pivot and becomes that pivot.  The
    steps are unimodular, so the pivots span what the columns span.  Then
    each pivot is size-reduced at the pivot rows of the ones after it, as
    for the Hermite normal form (H. Cohen, GTM 138, §2.4); without that,
    entries of the B2-sc module V(1, 4) reached 496 bits, and with it no
    module of dimension <= 120 needs 20.  Every step works in place
    (:func:`_subtract`) on a copy of each column taken once, so the caller's
    columns are left alone.  Returns the pivots by row.
    """
    pivots = {}  # pivot row -> column, positive at that row
    for col in columns:
        col = dict(col)
        while col:
            r = min(col)
            if col[r] < 0:
                for k in col:
                    col[k] = -col[k]
            piv = pivots.get(r)
            if piv is None:
                pivots[r] = col
                break
            if col[r] < piv[r]:
                pivots[r], col, piv = col, piv, col
            p = piv[r]
            _subtract(col, piv, (2 * col[r] + p) // (2 * p))
    rows = sorted(pivots)
    basis = [pivots[r] for r in rows]
    for s in range(len(basis) - 2, -1, -1):
        for t in range(s + 1, len(basis)):
            p = basis[t][rows[t]]
            q = (2 * basis[s].get(rows[t], 0) + p) // (2 * p)
            if q:
                _subtract(basis[s], basis[t], q)
    return basis


def fraction_solve(columns):
    """A Z-basis of the lattice integer sparse columns span, and every
    column's integer coordinates over it, from one reduction; returns
    (basis, coords).

    coords[j] maps positions t in basis to ints x[t] with
    columns[j] = sum_t x[t] basis[t], read by back-substitution down the
    pivot rows, which reduces a copy of the column in place.  The name
    predates the integer models; it stays because bench/tracing.py records
    the builder's one call per weight space by it.  A single nonzero column
    is its own basis, made positive at its first row, with coordinate +1 or
    -1, as _hermite would give it.
    """
    if len(columns) == 1 and columns[0]:
        col = columns[0]
        if col[min(col)] > 0:
            return [col], [{0: 1}]
        return [{r: -v for r, v in col.items()}], [{0: -1}]
    basis = _hermite(columns)
    pos = {min(b): t for t, b in enumerate(basis)}
    coords = []
    for col in columns:
        col = dict(col)
        x = {}
        while col:
            r = min(col)
            t = pos.get(r)
            assert t is not None and col[r] % basis[t][r] == 0, \
                "a column outside the lattice of its own basis"
            x[t] = q = col[r] // basis[t][r]
            _subtract(col, basis[t], q)
        coords.append(x)
    return basis, coords


# -- the representation object ------------------------------------------------

class MatrixRep:
    """Chevalley generator matrices for one irreducible module."""

    def __init__(self, datum, highest_weight, basis, e_ops, f_ops, e):
        self.datum = datum
        self.highest_weight = highest_weight
        self.basis = basis  # list of (weight, occurrence index)
        self.e_ops = e_ops  # one sparse op per simple index
        self.f_ops = f_ops
        self.e = e  # the principal nilpotent, the sum of e_ops; read only
        self.dim = len(basis)
        self.weight_spaces = {}  # weight -> basis indices
        self.layers = {}  # principal degree -> basis indices
        for i, (w, _) in enumerate(basis):
            self.weight_spaces.setdefault(w, []).append(i)
        for w, idxs in self.weight_spaces.items():
            self.layers.setdefault(datum.pair_2rho_check(w), []).extend(idxs)

    def validate(self):
        """Assert [e_i, f_j] = delta_ij h_i, the character of every weight
        space and the Weyl dimension.  [e_i, f_j] for i != j must be the
        empty commutator.  [e_i, f_i] is compared with h_i one weight space
        at a time, with no matrix of h_i: each column of a weight space whose
        pairing c with alpha_i-check is nonzero must be c at its own index,
        and the commutator must have as many columns as those spaces have
        basis vectors, so no other column is nonzero."""
        d = self.datum
        for i in range(d.rank):
            for j in range(d.rank):
                lhs = op_commutator(self.e_ops[i], self.f_ops[j])
                if i != j:
                    assert not lhs, "[e_%d, f_%d] failed" % (i, j)
                    continue
                count = 0
                for w, idxs in self.weight_spaces.items():
                    c = d.simple_pairing(w, i)
                    if c:
                        count += len(idxs)
                        for idx in idxs:
                            assert lhs.get(idx) == {idx: c}, \
                                "[e_%d, f_%d] failed" % (i, j)
                assert len(lhs) == count, "[e_%d, f_%d] failed" % (i, j)
        char = irreducible_character(d, self.highest_weight)
        for w, idxs in self.weight_spaces.items():
            assert char.get(w, 0) == len(idxs), "weight space dim mismatch at %r" % (w,)
        assert self.dim == weyl_dimension(d, self.highest_weight)
        return True


def check_dim_cap(datum, lam, dim_cap):
    """lam as a tuple, once dim_cap is an int >= 1, lam is dominant and
    dim V_lam is within dim_cap, checked from the Weyl dimension before any
    build."""
    require_int(dim_cap, "dim_cap", 1, None)
    lam = require_dominant(datum, lam)
    dim = weyl_dimension(datum, lam)
    if dim > dim_cap:
        raise ResourceError(
            "dim V_%r = %d exceeds the cap %d" % (lam, dim, dim_cap))
    return lam


def build_irrep(datum, lam, dim_cap=DEFAULT_DIM_CAP):
    """Construct the irreducible module with highest weight lam."""
    return _build_irrep(datum, check_dim_cap(datum, lam, dim_cap))


def _build_irrep(datum, lam):
    """V_lam for a dominant lam, built and validated.  Each weight space mu
    below lam takes one pass over the directions i with mu + alpha_i a
    weight: their slots are looked up once, h_i(mu + alpha_i) is one _dot,
    and each candidate's e-image drops its entries as they cancel
    (:func:`_subtract`), so it goes to fraction_solve as built.  No nonzero
    vector below lam is killed by every e_j, so a Z-basis of the e-images
    is the e-image of a Z-basis of L(mu), and every candidate's coords
    over it are those of its e-image.  The coords go into f_ops offset by
    the first index of mu, and each entry of an image into the e_j column
    that its row's direction names, with one lookup."""
    char = _character(datum, lam)
    rank = datum.rank
    # the basis in its final order: descending principal degree, then weight,
    # then slot; every mu + alpha_j comes before mu, so the build can go
    # down it in this order and write the operators in final indices
    order = sorted(char, key=lambda w: (-datum.pair_2rho_check(w), w))
    basis = []
    slots = {}  # weight -> its basis indices
    for w in order:
        slots[w] = range(len(basis), len(basis) + char[w])
        basis += [(w, k) for k in range(char[w])]

    e_ops = [{} for _ in range(rank)]
    f_ops = [{} for _ in range(rank)]
    e = {}  # each image below is one whole column of e = sum of e_ops
    for mu in order[1:]:
        # f_i b for each basis vector b of mu + alpha_i, and its e-image,
        # whose rows are the basis indices of the spaces mu + alpha_j
        direction = {}  # basis index of mu + alpha_j -> e_j
        cands = []
        columns = []
        for i, (coroot, root) in enumerate(datum.simple_pairs):
            up = slots.get(_vec_add(mu, root))
            if up is None:
                continue
            h = _dot(mu, coroot) + 2  # h_i on mu + alpha_i
            f = f_ops[i]
            for b in up:
                direction[b] = e_ops[i]
                # e f_i b = f_i e b + h_i b: the sum over j of
                # e_j f_i b = f_i e_j b + delta_ij h_i b
                col = {b: h} if h else {}
                for t, c in e.get(b, {}).items():
                    if t in f:
                        _subtract(col, f[t], -c)
                cands.append((i, b))
                columns.append(col)
        images, coords = fraction_solve(columns)
        assert len(images) == char[mu], \
            "could not span weight space %r of V_%r" % (mu, lam)
        base = slots[mu].start
        for (i, b), x in zip(cands, coords):
            if x:
                f_ops[i][b] = {base + t: v for t, v in x.items()}
        for g, col in zip(slots[mu], images):
            e[g] = col
            for r, v in col.items():
                direction[r].setdefault(g, {})[r] = v

    rep = MatrixRep(datum, lam, basis, e_ops, f_ops, e)
    rep.validate()
    return rep


def principal_e(rep):
    """The principal nilpotent e = sum of the simple raising operators; all
    principal nilpotents are conjugate (Kostant, 1959).  A copy of rep.e,
    which the builder wrote, so that no caller can change the module."""
    require_instance(rep, MatrixRep, "module")
    return {c: dict(col) for c, col in rep.e.items()}


# -- positive root vectors and the centralizer of e ---------------------------

def _pos_root_tree(datum, gamma_coords):
    """Bracket recipe for a root vector: chain of simple indices.

    Returns a list [i_k, ..., i_1] meaning [e_{i_k}, [... [e_{i_2}, e_{i_1}]]].
    Any chain through positive roots works (consecutive sums being roots
    forces nonvanishing brackets).
    """
    roots = {r.root_coords for r in datum.positive_roots()}
    coords = tuple(gamma_coords)
    chain = []
    while sum(coords) > 1:
        for j in range(datum.rank):
            if coords[j] == 0:
                continue
            lower = tuple(c - (1 if t == j else 0) for t, c in enumerate(coords))
            if lower in roots:
                chain.append(j)
                coords = lower
                break
        else:
            raise AssertionError("no descent found for %r" % (gamma_coords,))
    chain.append(coords.index(1))
    return chain


def realize_root_vector(rep, chain):
    """Evaluate a bracket recipe of simple raising operators in a module."""
    acc = rep.e_ops[chain[-1]]
    for j in reversed(chain[:-1]):
        acc = op_commutator(rep.e_ops[j], acc)
    return acc


class CentralizerElement:
    """Element of the centralizer of e, as coefficients over bracket recipes
    of positive root vectors (:func:`_pos_root_tree`).  items and coeffs are
    tuples: the memo hands the same elements to every caller."""

    __slots__ = ("degree", "items", "coeffs")

    def __init__(self, degree, items, coeffs):
        self.degree = degree
        self.items = items
        self.coeffs = coeffs

    def realize(self, rep):
        out = {}
        for chain, c in zip(self.items, self.coeffs):
            if c:
                for k, col in realize_root_vector(rep, chain).items():
                    _subtract(out.setdefault(k, {}), col, -c)
        return {k: col for k, col in out.items() if col}


def centralizer_and_exponents(datum):
    """Homogeneous basis of the centralizer of e, and the exponents, as
    fresh lists; the datum is checked before the memo, which cannot hash
    every argument and holds tuples, so no caller can change it."""
    elements, exponents = _centralizer_and_exponents(
        require_instance(datum, RootDatum, "datum"))
    return list(elements), list(exponents)


@lru_cache(maxsize=None)
def _centralizer_and_exponents(datum):
    """The centralizer has one element in each degree 2 m_i > 0 (Kostant,
    1959), so it lies in the span of the positive root vectors, and a root
    vector of height m has principal degree 2m.  [x, e] = 0 is solved
    height by height in the adjoint module; the basis elements come back
    as combinations of bracket recipes reusable in any module, with
    principal degrees 2 m_1 <= ... <= 2 m_r.  A torus has no roots, so e
    is 0 and there are no elements and no exponents.
    """
    if not datum.positive_roots():
        return (), ()
    adj = build_irrep(datum, datum.highest_root().weight)
    e = adj.e
    by_height = {}
    for r in datum.positive_roots():
        by_height.setdefault(r.height, []).append(
            tuple(_pos_root_tree(datum, r.root_coords)))

    elements = []
    for m in sorted(by_height):
        group = by_height[m]
        brackets = [op_commutator(realize_root_vector(adj, chain), e)
                    for chain in group]
        # vectorize each bracket and find the joint kernel over coefficients
        cells = sorted({(c, r) for b in brackets for c, col in b.items() for r in col})
        cell_index = {cell: t for t, cell in enumerate(cells)}
        rows = len(cells)
        cols = []
        for b in brackets:
            col = {}
            for c, colv in b.items():
                for r, v in colv.items():
                    col[cell_index[(c, r)]] = v
            cols.append(col)
        for coeffs in _eliminate(cols, rows)[1]:
            elements.append(
                CentralizerElement(2 * m, tuple(group), tuple(coeffs)))

    exponents = tuple(el.degree // 2 for el in elements)
    assert len(exponents) == datum.rank
    return tuple(elements), exponents


# -- the kernel filtration -----------------------------------------------------

class FiltrationProfile:
    """Dimensions of V(weight) cut by kernels of the powers of e, kept as
    their jumps.

    jumps maps each filtration index i where dim ker e^(i+1) on V(weight)
    steps up to the size of the step (from 0 below index 0); they add up to
    total.  graded_poly costs one term per jump, and dims, the dimension at
    every index up to the last jump, is derived from the jumps on demand.
    """

    __slots__ = ("weight", "total", "jumps")

    def __init__(self, weight, total, jumps):
        self.weight = weight
        self.total = total
        self.jumps = jumps  # filtration index -> dims[i] - dims[i - 1] > 0

    @property
    def dims(self):
        """Filtration index -> dimension, nondecreasing, up to the first
        index where it is total."""
        dims = {}
        dim = 0
        for i in range(max(self.jumps, default=-1) + 1):
            dim += self.jumps.get(i, 0)
            dims[i] = dim
        return dims

    def graded_poly(self):
        res = QPoly()
        res.coeffs = dict(self.jumps)
        return res

    def __eq__(self, other):
        if not isinstance(other, FiltrationProfile):
            return NotImplemented
        return (self.weight == other.weight and self.jumps == other.jumps
                and self.total == other.total)

    def __repr__(self):
        return "FiltrationProfile(%r, %r)" % (self.weight, self.dims)


@lru_cache(maxsize=_MODULES_KEPT)
def _layer_rows(rep):
    """Labelled integer rows cutting out the kernels of the powers of e.

    Layer d is the span of the basis vectors of principal degree d, and e
    maps it to layer d + 2.  Each row is a linear functional on its layer
    with a label L; the rows labelled L >= k cut out ker e^k on the layer.
    Going down from the top layer, layer d gets r after e, labelled L + 1,
    for each row r of layer d + 2, and, labelled 1, the coordinate row of e
    at each basis index of layer d + 2 that leads no row kept there.  That
    completion is enough: the kept rows of layer d + 2 have distinct
    leading indices, so with the unit functionals at the other indices
    they form a basis of its dual, and composing that basis with e spans
    e's row space, which cuts out ker e.  The rows are reduced in
    decreasing label order and the rows that reduce to zero are dropped,
    which keeps the span of the rows labelled >= k for every k.  (On a
    filtration-sweep round this hands _eliminate 5,704 rows where a
    coordinate row at every index handed it 11,111; 5,505 are kept either
    way.)  Returns {d: [(label, row), ...]}, labels decreasing.  The memo
    is keyed on the module alone: e is always rep.e.
    """
    # e transposed: the coordinate row of each target basis vector
    e_rows = op_transpose(rep.e)
    out = {}
    for d in sorted(rep.layers, reverse=True):
        above = out.get(d + 2, ())
        rows = [(label + 1, _divide_content(op_apply(e_rows, row)))
                for label, row in above]
        rows = [(label, row) for label, row in rows if row]
        leading = {min(row) for _, row in above}
        rows += [(1, e_rows[j]) for j in rep.layers.get(d + 2, ())
                 if j not in leading and j in e_rows]
        kept, _ = _eliminate([row for _, row in rows])
        out[d] = [(rows[j][0], row) for j, row in kept.items()]
    return out


def bk_filtration(rep, lam):
    """Filtration of the lam weight space by kernels of the powers of the
    principal nilpotent e = principal_e(rep).

    dims[i] is the dimension of ker e^(i+1) on V_lam, up to the first i
    where that is all of V_lam.  With the rows of lam's layer
    (_layer_rows) restricted to V_lam, dims[i] is dim V_lam minus the rank
    of the rows labelled >= i + 1.  That rank changes only at the labels
    present, so it is computed once per label, from the top label down,
    and filled in between.  The ranks stop at the first label whose rank
    is dim V_lam: every lower label's rows include those rows, so their
    rank is dim V_lam too and dims is 0 below that label.  The profile
    keeps only the jumps of dims, which are the steps between those ranks.
    """
    require_instance(rep, MatrixRep, "module")
    lam = require_weight(rep.datum, lam)
    cols = rep.weight_spaces.get(lam, [])
    m = len(cols)
    if m == 0:
        return FiltrationProfile(lam, 0, {})
    layer = _layer_rows(rep).get(rep.datum.pair_2rho_check(lam), ())
    ranks = []  # (label, rank of the rows labelled >= label), top down
    above = []
    for label, group in groupby(layer, itemgetter(0)):  # labels decreasing
        parts = [part for part in ({c: row[c] for c in cols if c in row}
                                   for _, row in group) if part]
        if parts:
            above += parts
            rank = int_columns_rank(above)
            ranks.append((label, rank))
            if rank == m:
                break
    # dims is m - rank on [start, label), one run per label, bottom up
    jumps = {}
    start = prev = 0
    for label, rank in reversed(ranks):
        value = m - rank
        if value > prev:
            jumps[start] = value - prev
        start, prev = label, value
    jumps[start] = m - prev
    return FiltrationProfile(lam, m, jumps)


def bk_profile_all_weights(rep):
    """bk_filtration for every weight of the module, one pass."""
    return {w: bk_filtration(rep, w) for w in rep.weight_spaces}


def verify_theorem_filtrations(datum, nu, lam, dim_cap=DEFAULT_DIM_CAP):
    """Compare the kernel-filtration polynomial with the q-analog prediction.

    Returns (equal, filtration polynomial, predicted polynomial).
    """
    from .qanalog import p_bk_polynomial
    lam = require_weight(datum, lam)
    rep = build_irrep(datum, nu, dim_cap)
    actual = bk_filtration(rep, lam).graded_poly()
    predicted = p_bk_polynomial(datum, nu, lam)
    return actual == predicted, actual, predicted


def poincare_gr(datum, truncation):
    """Series with exponents doubled: product of 1/(1 - t^(2 m_i)).

    Dividing a series by 1 - t^s adds to each coefficient the one s below
    it, already divided, so each factor is one running sum with stride s,
    linear in the truncation.
    """
    require_int(truncation, "truncation", 0, None)
    _, exponents = centralizer_and_exponents(datum)
    coeffs = [1] + [0] * truncation
    for m in exponents:
        step = 2 * m
        for e in range(step, truncation + 1):
            coeffs[e] += coeffs[e - step]
    return QPoly(dict(enumerate(coeffs)))
