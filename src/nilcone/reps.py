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
integer vectors over the bases above.  One unimodular reduction of those
images per weight space (:func:`_hermite`) gives a Z-basis of that lattice,
hence of L(mu), and back-substitution gives every candidate's integer
coordinates over it (:func:`fraction_solve`).

Ranks, the centralizer kernel and the kernel filtration rows go through one
fraction-free integer elimination, :func:`_eliminate`.  Kernel filtrations
of the principal nilpotent e come from one top-down pass over the
principal-degree layers (:func:`_layer_rows`), whose labelled rows
bk_filtration restricts to a weight space, one rank per label.

Built modules and their layer rows are memoised with functools.lru_cache,
at most 12 of each; a module object is never changed after it is built.

Operators are stored sparsely as {column: {row: int}}.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from numbers import Rational

from .errors import DomainError, ResourceError
from .qpoly import QPoly, product_truncated
from .roots import _vec_add
from .characters import (irreducible_character, weyl_dimension,
                         _require_dominant, _require_weight)

DEFAULT_DIM_CAP = 400
# matrix modules, and layer rows of modules, kept in memory
_MODULES_KEPT = 12


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


def op_add(a, b, coeff=1):
    out = {c: dict(col) for c, col in a.items()}
    for c, col in b.items():
        tgt = out.setdefault(c, {})
        for r, v in col.items():
            s = tgt.get(r, 0) + coeff * v
            if s:
                tgt[r] = s
            else:
                tgt.pop(r, None)
        if not tgt:
            del out[c]
    return out


def op_compose(a, b):
    """a after b, both {col: {row: val}}."""
    out = {}
    for c, col in b.items():
        img = op_apply(a, col)
        if img:
            out[c] = img
    return out


def op_equal(a, b):
    return _op_norm(a) == _op_norm(b)


def _op_norm(op):
    return {c: {r: v for r, v in col.items() if v} for c, col in op.items()
            if any(col.values())}


def op_commutator(a, b):
    return op_add(op_compose(a, b), op_compose(b, a), -1)


def _strip_column(col):
    """Rescale a rational column to a primitive integer one (rank-safe)."""
    denom = 1
    for v in col.values():
        denom = denom * v.denominator // gcd(denom, v.denominator)
    ints = {r: v.numerator * (denom // v.denominator) for r, v in col.items()
            if v}
    g = 0
    for v in ints.values():
        g = gcd(g, v)
        if g == 1:
            return ints
    if g > 1:
        ints = {r: v // g for r, v in ints.items()}
    return ints


def _eliminate(columns, nrows=None):
    """Fraction-free elimination of sparse columns; returns (kept, kernel).

    Columns are reduced in order against the pivots of the earlier ones:
    a column whose smallest row holds no pivot yet becomes that row's pivot,
    otherwise an integer combination with the pivot clears the row and the
    result is divided by its content.  Entries stay integers, and the
    content division keeps them small where Bareiss's fraction-free
    elimination (Math. Comp. 22, 1968) divides by the previous pivot.
    kept maps the index of each column that became a pivot to its reduced
    form, so the rank is len(kept) and, for every j, the reduced columns
    kept from columns[:j + 1] span what columns[:j + 1] span.

    Without nrows the columns must be integer and only the rank is kept.
    With nrows, rational columns over range(nrows) are made primitive and
    column j carries a marker 1 at row nrows + j; a column that reduces to
    zero above the markers leaves its marker part, a kernel vector of ints,
    and these vectors form a kernel basis.  Column j's vector is nonzero at
    j and otherwise supported on the kept columns before j.
    """
    ncols = len(columns)
    if nrows is not None:
        columns = [_strip_column({**col, nrows + j: 1})
                   for j, col in enumerate(columns)]
    pivots = {}  # pivot row -> reduced column
    kept = {}
    kernel = []
    for j, col in enumerate(columns):
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
            new = {}
            for k in col.keys() | piv.keys():
                v = cb * col.get(k, 0) - ca * piv.get(k, 0)
                if v:
                    new[k] = v
            col = _strip_column(new)
    return kept, kernel


def int_columns_rank(columns):
    """Rank of a list of integer sparse columns, by exact elimination."""
    return len(_eliminate(columns)[0])


def _add_multiple(col, piv, q):
    """The sparse column col + q * piv."""
    out = dict(col)
    for k, v in piv.items():
        s = out.get(k, 0) + q * v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


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
    module of dimension <= 120 needs 20.  Returns the pivots by row.
    """
    pivots = {}  # pivot row -> column, positive at that row
    for col in columns:
        while col:
            r = min(col)
            if col[r] < 0:
                col = {k: -v for k, v in col.items()}
            piv = pivots.get(r)
            if piv is None:
                pivots[r] = col
                break
            if col[r] < piv[r]:
                pivots[r], col, piv = col, piv, col
            p = piv[r]
            col = _add_multiple(col, piv, -((2 * col[r] + p) // (2 * p)))
    rows = sorted(pivots)
    basis = [pivots[r] for r in rows]
    for s in range(len(basis) - 2, -1, -1):
        for t in range(s + 1, len(basis)):
            p = basis[t][rows[t]]
            q = (2 * basis[s].get(rows[t], 0) + p) // (2 * p)
            if q:
                basis[s] = _add_multiple(basis[s], basis[t], -q)
    return basis


def fraction_solve(columns):
    """A Z-basis of the lattice integer sparse columns span, and every
    column's integer coordinates over it, from one reduction; returns
    (basis, coords).

    coords[j] maps positions t in basis to ints x[t] with
    columns[j] = sum_t x[t] basis[t], read by back-substitution down the
    pivot rows.  The name predates the integer models; it stays because
    bench/tracing.py records the builder's one call per weight space by it.
    """
    basis = _hermite(columns)
    pos = {min(b): t for t, b in enumerate(basis)}
    coords = []
    for col in columns:
        x = {}
        while col:
            r = min(col)
            t = pos.get(r)
            assert t is not None and col[r] % basis[t][r] == 0, \
                "a column outside the lattice of its own basis"
            x[t] = col[r] // basis[t][r]
            col = _add_multiple(col, basis[t], -x[t])
        coords.append(x)
    return basis, coords


# -- the representation object ------------------------------------------------

class MatrixRep:
    """Chevalley generator matrices for one irreducible module."""

    def __init__(self, datum, highest_weight, basis, e_ops, f_ops):
        self.datum = datum
        self.highest_weight = highest_weight
        self.basis = basis  # list of (weight, occurrence index)
        self.e_ops = e_ops  # one sparse op per simple index
        self.f_ops = f_ops
        self.dim = len(basis)
        self.index_of = {bk: i for i, bk in enumerate(basis)}
        self.weight_spaces = {}
        for i, (w, _) in enumerate(basis):
            self.weight_spaces.setdefault(w, []).append(i)

    def h_op(self, i):
        out = {}
        for idx, (w, _) in enumerate(self.basis):
            c = self.datum.simple_pairing(w, i)
            if c:
                out[idx] = {idx: c}
        return out

    def principal_degree(self, index):
        return self.datum.pair_2rho_check(self.basis[index][0])

    def validate(self):
        d = self.datum
        for i in range(d.rank):
            hi = self.h_op(i)
            for j in range(d.rank):
                lhs = op_commutator(self.e_ops[i], self.f_ops[j])
                rhs = hi if i == j else {}
                assert op_equal(lhs, rhs), "[e_%d, f_%d] failed" % (i, j)
        char = irreducible_character(d, self.highest_weight)
        for w, idxs in self.weight_spaces.items():
            assert char.get(w, 0) == len(idxs), "weight space dim mismatch at %r" % (w,)
        assert self.dim == weyl_dimension(d, self.highest_weight)
        return True

    def serre_check(self):
        """(ad e_i)^(1 - <alpha_j, alpha_i-check>)(e_j) = 0 here, both sides."""
        d = self.datum
        ok = True
        for i in range(d.rank):
            for j in range(d.rank):
                if i == j:
                    continue
                n = 1 - d.cartan[i][j]
                for ops in (self.e_ops, self.f_ops):
                    acc = ops[j]
                    for _ in range(n):
                        acc = op_commutator(ops[i], acc)
                    if _op_norm(acc):
                        ok = False
        return ok

    def to_json(self):
        """Documented export: basis labels plus dense row-major matrices,
        every entry a rational string "p/q"."""
        def op_json(op):
            rows = [["0/1"] * self.dim for _ in range(self.dim)]
            for c, col in op.items():
                for r, v in col.items():
                    rows[r][c] = "%d/%d" % (v.numerator, v.denominator)
            return rows
        return {
            "preset": self.datum.name,
            "highest_weight": list(self.highest_weight),
            "basis": [[list(w), k] for w, k in self.basis],
            "e": [op_json(op) for op in self.e_ops],
            "f": [op_json(op) for op in self.f_ops],
            "h": [op_json(self.h_op(i)) for i in range(self.datum.rank)],
        }


def build_irrep(datum, lam, dim_cap=DEFAULT_DIM_CAP):
    """Construct the irreducible module with highest weight lam."""
    _require_dominant(datum, lam)
    lam = tuple(lam)
    dim = weyl_dimension(datum, lam)
    if dim > dim_cap:
        raise ResourceError(
            "dim V_%r = %d exceeds the cap %d" % (lam, dim, dim_cap))
    return _build_irrep(datum, lam)


@lru_cache(maxsize=_MODULES_KEPT)
def _build_irrep(datum, lam):
    char = irreducible_character(datum, lam)
    rank = datum.rank
    simple = datum.simple_roots
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
    for mu in order[1:]:
        ups = [slots.get(_vec_add(mu, simple[j]), ()) for j in range(rank)]
        # f_i b for each basis vector b of mu + alpha_i, and its e-image,
        # whose rows are the basis indices of the spaces mu + alpha_j
        cands = [(i, b) for i in range(rank) for b in ups[i]]
        columns = []
        for i, b in cands:
            # e_j f_i b = f_i e_j b + delta_ij h_i b
            col = {b: datum.simple_pairing(basis[b][0], i)}
            for e in e_ops:
                for t, c in e.get(b, {}).items():
                    for r, v in f_ops[i].get(t, {}).items():
                        col[r] = col.get(r, 0) + c * v
            columns.append({r: v for r, v in col.items() if v})
        # no nonzero vector below lam is killed by every e_j, so a Z-basis
        # of the e-images is the e-image of a Z-basis of L(mu), and every
        # candidate's coords over it are those of its e-image
        images, coords = fraction_solve(columns)
        assert len(images) == char[mu], \
            "could not span weight space %r of V_%r" % (mu, lam)
        for (i, b), x in zip(cands, coords):
            if x:
                f_ops[i][b] = {slots[mu][t]: v for t, v in x.items()}
        for g, col in zip(slots[mu], images):
            for j in range(rank):
                image = {r: col[r] for r in ups[j] if r in col}
                if image:
                    e_ops[j][g] = image

    rep = MatrixRep(datum, lam, basis, e_ops, f_ops)
    rep.validate()
    return rep


def principal_e(rep, coefficients=None):
    """Sum of the simple raising operators (any nonzero ints or Fractions)."""
    rank = rep.datum.rank
    if coefficients is None:
        coefficients = [1] * rank
    if len(coefficients) != rank or any(
            not c or not isinstance(c, Rational) for c in coefficients):
        raise DomainError("need one nonzero rational coefficient per simple "
                          "root")
    out = {}
    for i in range(rank):
        out = op_add(out, rep.e_ops[i], coefficients[i])
    return out


# -- abstract root vectors and the centralizer of e ---------------------------

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


def realize_root_vector(rep, chain, negative=False):
    """Evaluate a bracket recipe in a module (e side or f side)."""
    gens = rep.f_ops if negative else rep.e_ops
    acc = gens[chain[-1]]
    for j in reversed(chain[:-1]):
        acc = op_commutator(gens[j], acc)
    return acc


def _abstract_basis(datum):
    """Basis of the Lie algebra as bracket recipes with principal degrees."""
    items = []
    for i in range(datum.rank):
        items.append(("h", i, 0))
    for r in datum.positive_roots():
        deg = datum.pair_2rho_check(r.weight)
        chain = tuple(_pos_root_tree(datum, r.root_coords))
        items.append(("pos", chain, deg))
        items.append(("neg", chain, -deg))
    return items


def realize_abstract(rep, item):
    kind, payload, _deg = item
    if kind == "h":
        return rep.h_op(payload)
    return realize_root_vector(rep, list(payload), negative=(kind == "neg"))


class CentralizerElement:
    """Element of the centralizer of e, as coefficients over bracket recipes."""

    __slots__ = ("degree", "items", "coeffs")

    def __init__(self, degree, items, coeffs):
        self.degree = degree
        self.items = items
        self.coeffs = coeffs

    def realize(self, rep):
        out = {}
        for item, c in zip(self.items, self.coeffs):
            if c:
                out = op_add(out, realize_abstract(rep, item), c)
        return out


@lru_cache(maxsize=None)
def centralizer_and_exponents(datum):
    """Homogeneous basis of the centralizer of e, and the exponents.

    Solves [x, e] = 0 degree by degree in the adjoint module; the basis
    elements come back as abstract bracket combinations reusable in any
    module, with principal degrees 2 m_1 <= ... <= 2 m_r.
    """
    adj = build_irrep(datum, datum.highest_root().weight)
    e = principal_e(adj)
    items = _abstract_basis(datum)
    by_degree = {}
    for item in items:
        by_degree.setdefault(item[2], []).append(item)

    elements = []
    for deg in sorted(by_degree):
        group = by_degree[deg]
        mats = [realize_abstract(adj, item) for item in group]
        brackets = [op_commutator(m, e) for m in mats]
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
            elements.append(CentralizerElement(deg, group, coeffs))

    elements.sort(key=lambda el: el.degree)
    for el in elements:
        assert el.degree > 0 and el.degree % 2 == 0, \
            "unexpected centralizer degree %r" % (el.degree,)
    exponents = [el.degree // 2 for el in elements]
    assert len(exponents) == datum.rank
    return elements, exponents


# -- the kernel filtration -----------------------------------------------------

class FiltrationProfile:
    """Dimensions of V(weight) cut by kernels of the powers of e."""

    __slots__ = ("weight", "dims", "total")

    def __init__(self, weight, dims, total):
        self.weight = weight
        self.dims = dims  # filtration index -> dim, nondecreasing
        self.total = total

    def graded_poly(self):
        out = {}
        prev = 0
        for i in sorted(self.dims):
            jump = self.dims[i] - prev
            if jump:
                out[i] = jump
            prev = self.dims[i]
        return QPoly(out)

    def __eq__(self, other):
        return (self.weight == other.weight and self.dims == other.dims
                and self.total == other.total)

    def __repr__(self):
        return "FiltrationProfile(%r, %r)" % (self.weight, self.dims)


@lru_cache(maxsize=_MODULES_KEPT)
def _layer_rows(rep, coefficients=None):
    """Labelled integer rows cutting out the kernels of the powers of e.

    Layer d is the span of the basis vectors of principal degree d, and e
    maps it to layer d + 2.  Each row is a linear functional on its layer
    with a label L; the rows labelled L >= k cut out ker e^k on the layer.
    Going down from the top layer, layer d gets r after e, labelled L + 1,
    for each row r of layer d + 2, and the coordinate rows of e, labelled 1.
    These are reduced in decreasing label order and the rows that reduce
    to zero are dropped, which keeps the span of the rows labelled >= k
    for every k.  Returns {d: [(label, row), ...]}, labels decreasing.
    Coefficients, if given, come as a tuple: they key the memo.  They are
    multiplied by their common denominator, which keeps every kernel of a
    power of e and makes the entries of e integers.
    """
    if coefficients is not None:
        ratios = [c.as_integer_ratio() for c in coefficients]
        scale = lcm(*(d for _, d in ratios))
        coefficients = [n * (scale // d) for n, d in ratios]
    e = principal_e(rep, coefficients)
    # e transposed: the coordinate row of each target basis vector
    e_rows = {}
    for c, col in e.items():
        for r, v in col.items():
            e_rows.setdefault(r, {})[c] = v
    layers = {}
    for w, idxs in rep.weight_spaces.items():
        layers.setdefault(rep.datum.pair_2rho_check(w), []).extend(idxs)
    out = {}
    for d in sorted(layers, reverse=True):
        rows = [(label + 1, _strip_column(op_apply(e_rows, row)))
                for label, row in out.get(d + 2, ())]
        rows = [(label, row) for label, row in rows if row]
        rows += [(1, e_rows[j]) for j in layers.get(d + 2, ()) if j in e_rows]
        kept, _ = _eliminate([row for _, row in rows])
        out[d] = [(rows[j][0], row) for j, row in kept.items()]
    return out


def bk_filtration(rep, lam, coefficients=None):
    """Filtration of the lam weight space by kernels of e powers.

    dims[i] is the dimension of ker e^(i+1) on V_lam, up to the first i
    where that is all of V_lam.  With the rows of lam's layer
    (_layer_rows) restricted to V_lam, dims[i] is dim V_lam minus the rank
    of the rows labelled >= i + 1.  That rank changes only at the labels
    present, so it is computed once per label and filled in between.
    """
    _require_weight(rep.datum, lam)
    lam = tuple(lam)
    cols = rep.weight_spaces.get(lam, [])
    m = len(cols)
    if m == 0:
        return FiltrationProfile(lam, {}, 0)
    if coefficients is not None:
        coefficients = tuple(coefficients)
    layer = _layer_rows(rep, coefficients).get(
        rep.datum.pair_2rho_check(lam), ())
    rows = []  # (label, row restricted to V_lam)
    for label, row in layer:
        part = {c: row[c] for c in cols if c in row}
        if part:
            rows.append((label, part))
    dims = {}
    start = 0
    for label in sorted({label for label, _ in rows}):
        rank = int_columns_rank([row for lb, row in rows if lb >= label])
        for i in range(start, label):
            dims[i] = m - rank
        start = label
    dims[start] = m
    return FiltrationProfile(lam, dims, m)


def bk_profile_all_weights(rep, coefficients=None):
    """bk_filtration for every weight of the module, one pass."""
    return {w: bk_filtration(rep, w, coefficients) for w in rep.weight_spaces}


def verify_theorem_filtrations(datum, nu, lam, dim_cap=DEFAULT_DIM_CAP):
    """Compare the kernel-filtration polynomial with the q-analog prediction.

    Returns (equal, filtration polynomial, predicted polynomial).
    """
    from .qanalog import p_bk_polynomial
    rep = build_irrep(datum, nu, dim_cap)
    actual = bk_filtration(rep, tuple(lam)).graded_poly()
    predicted = p_bk_polynomial(datum, nu, lam)
    return actual == predicted, actual, predicted


def poincare_gr(datum, truncation):
    """Series with exponents doubled: product of 1/(1 - t^(2 m_i))."""
    _, exponents = centralizer_and_exponents(datum)
    if truncation < 0:
        raise DomainError("truncation must be >= 0")
    factors = []
    for m in exponents:
        step = 2 * m
        factors.append(QPoly({e: 1 for e in range(0, truncation + 1, step)}))
    return product_truncated(factors, truncation)
