"""Root data for the small-rank presets, with Weyl groups and pairings.

Weights are plain integer tuples in the preset's lattice basis:
fundamental-weight coordinates for the simply-connected presets, simple-root
coordinates for the adjoint ones.  Coweights live in the dual basis, so the
weight/coweight pairing is the standard dot product.  The only place the two
bases meet is the pairing-coordinate conversion pair
(:func:`RootDatum.pairing_coords`, :func:`RootDatum.weight_from_pairing`).

This module is also the one place for small-vector arithmetic: `_dot`,
`_vec_add`, `_vec_sub`, `_vec_scale` and `_mat_vec` serve every layer.
Weights, coweights and root coordinates have 1 to 3 entries on every
preset, and these helpers run some 10^5 times per benchmark round, so
lengths 1 to 3 are unpacked into plain arithmetic and only other lengths
take the `map` form.  A 2-vector `_dot` took 0.08-0.09 us unpacked
against 0.24-0.27 us for `sum(map(mul, u, v))`, and `_vec_add` and
`_vec_sub` 0.10-0.11 us against 0.29-0.40 us (Python 3.11, 2-core VM).
`math.sumprod` would do as well, but it needs Python 3.12 and
`requires-python` is >= 3.10.  Two vectors of different lengths raise
DomainError instead of being truncated: a failed unpacking sends them to
the generic path, which alone compares lengths.
"""

from functools import lru_cache
from math import prod
from operator import add, mul, sub

from .errors import (ConfigurationError, DomainError, require_indices,
                     require_int, require_items, require_weight)

# name -> (cartan A with A[i][j] = <alpha_j, alpha_i-check>, symmetrizers d_i,
#          lattice kind, expected number of positive roots)
_PRESETS = {
    "A1-sc": ([[2]], [1], "simply-connected", 1),
    "A1-adj": ([[2]], [1], "adjoint", 1),
    "A2-sc": ([[2, -1], [-1, 2]], [1, 1], "simply-connected", 3),
    "A2-adj": ([[2, -1], [-1, 2]], [1, 1], "adjoint", 3),
    "A3-sc": ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], [1, 1, 1], "simply-connected", 6),
    "B2-sc": ([[2, -1], [-2, 2]], [2, 1], "simply-connected", 4),
    "G2": ([[2, -1], [-3, 2]], [3, 1], "simply-connected", 6),
}


def supported_presets():
    return sorted(_PRESETS)


def _same_length(u, v):
    """v, once it has the length of u.  Only the generic path of the
    helpers below calls it, and lengths 1 to 3 reach that path only when
    their unpacking fails."""
    if len(u) != len(v):
        raise DomainError("vectors of lengths %d and %d do not match"
                          % (len(u), len(v)))
    return v


def _dot(u, v):
    try:
        n = len(u)
        if n == 2:
            a, b = u
            x, y = v
            return a * x + b * y
        if n == 1:
            (a,), (x,) = u, v
            return a * x
        if n == 3:
            a, b, c = u
            x, y, z = v
            return a * x + b * y + c * z
    except ValueError:  # v has another length
        pass
    return sum(map(mul, u, _same_length(u, v)))


def _vec_add(u, v):
    try:
        n = len(u)
        if n == 2:
            a, b = u
            x, y = v
            return a + x, b + y
        if n == 1:
            (a,), (x,) = u, v
            return a + x,
        if n == 3:
            a, b, c = u
            x, y, z = v
            return a + x, b + y, c + z
    except ValueError:
        pass
    return tuple(map(add, u, _same_length(u, v)))


def _vec_sub(u, v):
    try:
        n = len(u)
        if n == 2:
            a, b = u
            x, y = v
            return a - x, b - y
        if n == 1:
            (a,), (x,) = u, v
            return a - x,
        if n == 3:
            a, b, c = u
            x, y, z = v
            return a - x, b - y, c - z
    except ValueError:
        pass
    return tuple(map(sub, u, _same_length(u, v)))


def _vec_scale(c, u):
    n = len(u)
    if n == 2:
        a, b = u
        return c * a, c * b
    if n == 1:
        (a,) = u
        return c * a,
    if n == 3:
        a, b, d = u
        return c * a, c * b, c * d
    return tuple(c * a for a in u)


def _mat_vec(m, v):
    """m v for a matrix m of rows; a square one of size 1 to 3 unpacks."""
    try:
        n = len(v)
        if n == 2:
            x, y = v
            (a, b), (c, d) = m
            return a * x + b * y, c * x + d * y
        if n == 1:
            (x,), ((a,),) = v, m
            return a * x,
        if n == 3:
            x, y, z = v
            (a, b, c), (d, e, f), (g, h, k) = m
            return (a * x + b * y + c * z, d * x + e * y + f * z,
                    g * x + h * y + k * z)
    except ValueError:  # m is not square, or its rows have another length
        pass
    return tuple(_dot(row, v) for row in m)


def _mat_mul(a, b):
    cols = list(zip(*b))
    return tuple(tuple(_dot(row, col) for col in cols) for row in a)


def _identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


class WeylElement:
    """A Weyl group element: a reduced word, its weight-lattice matrix, its
    pairing rows, the integer rho shift w(rho) - rho of the dot action, and
    the root coordinates of w - 1 and of the rho shift, so that w(lam) +
    w(rho) - rho - lam has root coordinates minus_one_coords . lam +
    rho_shift_coords.  Row i of pairing_rows is alpha_i-check after w:
    <w(lam), alpha_i-check> = pairing_rows[i] . lam, so w(lam) is dominant
    exactly when every row pairs lam to >= 0, and w(lam) need not be
    formed to test it."""

    __slots__ = ("word", "matrix", "pairing_rows", "rho_shift",
                 "minus_one_coords", "rho_shift_coords")

    def __init__(self, word, matrix, pairing_rows, rho_shift,
                 minus_one_coords, rho_shift_coords):
        self.word = word
        self.matrix = matrix  # action on weights
        self.pairing_rows = pairing_rows
        self.rho_shift = rho_shift
        # row i: the alpha_i coordinate of w(e_j) - e_j, for each j
        self.minus_one_coords = minus_one_coords
        self.rho_shift_coords = rho_shift_coords

    @property
    def length(self):
        return len(self.word)

    @property
    def sign(self):
        return -1 if len(self.word) % 2 else 1

    def apply(self, weight):
        return _mat_vec(self.matrix, weight)

    def __repr__(self):
        return "WeylElement(%r)" % (self.word,)


class PositiveRoot:
    """A positive root with its coordinates in every basis we need."""

    __slots__ = ("weight", "root_coords", "coroot", "height", "length_sq_half")

    def __init__(self, weight, root_coords, coroot, height, length_sq_half):
        self.weight = weight            # coords in the datum's weight basis
        self.root_coords = root_coords  # integer coords over the simple roots
        self.coroot = coroot            # coweight-basis vector of the coroot
        self.height = height
        self.length_sq_half = length_sq_half  # d_gamma = (gamma,gamma)/2

    def __repr__(self):
        return "PositiveRoot(%r)" % (self.weight,)


class RootDatum:
    """Root datum of one preset (or of a Levi subgroup of one).

    __init__ precomputes the simple roots and coroots, the positive roots,
    2rho and 2rho-check, the integer factors of Weyl's dimension formula,
    and the integer adjugate and determinant of the
    simple-root matrix (and of the Cartan matrix in the root basis), so
    root_coordinates and weight_from_pairing are integer mat-vecs; a Levi
    datum reads root coordinates off its parent.  The Weyl group and the
    Levi sub-data are filled in lazily on first use, idempotently, and
    never change afterwards.
    """

    def __init__(self, name, cartan, symmetrizers, lattice_kind, basis,
                 weight_dim=None, simple_indices=None, parent=None):
        self.name = name
        self.cartan = tuple(tuple(row) for row in cartan)
        self.symmetrizers = tuple(symmetrizers)
        self.lattice_kind = lattice_kind
        self.basis = basis  # "fundamental" or "root"
        self.rank = len(self.cartan)
        self.weight_dim = self.rank if weight_dim is None else weight_dim
        self.parent = parent
        # indices of this datum's simple roots inside the ambient preset
        self.simple_indices = tuple(range(self.rank)) if simple_indices is None \
            else tuple(simple_indices)

        if parent is None:
            self._validate_cartan()
            if basis == "fundamental":
                # alpha_j has pairing coords = column j of the Cartan matrix
                self.simple_roots = tuple(
                    tuple(self.cartan[i][j] for i in range(self.rank))
                    for j in range(self.rank))
                self.simple_coroots = tuple(
                    tuple(1 if i == j else 0 for i in range(self.rank))
                    for j in range(self.rank))
            else:
                self.simple_roots = tuple(
                    tuple(1 if i == j else 0 for i in range(self.rank))
                    for j in range(self.rank))
                self.simple_coroots = tuple(
                    tuple(self.cartan[i][j] for j in range(self.rank))
                    for i in range(self.rank))
                self._cartan_inverse = _adjugate(self.cartan)
            # x = adj * v / det solves (simple-root matrix) x = v
            self._root_inverse = _adjugate(tuple(zip(*self.simple_roots)))
        else:
            self.simple_roots = tuple(parent.simple_roots[i] for i in self.simple_indices)
            self.simple_coroots = tuple(parent.simple_coroots[i] for i in self.simple_indices)
            self._outside = tuple(i for i in range(parent.rank)
                                  if i not in self.simple_indices)

        self._positive_roots = None
        self._weyl = None
        self._levi_cache = {}
        self._build_static()

    # -- construction helpers -------------------------------------------

    def _validate_cartan(self):
        a = self.cartan
        d = self.symmetrizers
        n = self.rank
        for i in range(n):
            if a[i][i] != 2:
                raise ConfigurationError("Cartan diagonal must be 2")
            for j in range(n):
                if i != j and a[i][j] > 0:
                    raise ConfigurationError("Cartan off-diagonal must be <= 0")
                if d[i] * a[i][j] != d[j] * a[j][i]:
                    raise ConfigurationError("symmetrizer does not symmetrize")
        # positive definiteness of the symmetrized matrix via leading minors
        sym = [[d[i] * a[i][j] for j in range(n)] for i in range(n)]
        for k in range(1, n + 1):
            if _det([row[:k] for row in sym[:k]]) <= 0:
                raise ConfigurationError("Cartan symmetrization not positive definite")

    def _build_static(self):
        roots = self.positive_roots()
        self.two_rho_coweight = tuple(
            sum(r.coroot[k] for r in roots) for k in range(self.weight_dim))
        self.two_rho = tuple(sum(r.weight[k] for r in roots) for k in range(self.weight_dim))
        # Weyl's product formula, doubled: dim V_lam is the product of
        # <2 lam, coroot> + shift over dim_factors, over dim_denominator
        self.dim_factors = tuple((r.coroot, _dot(self.two_rho, r.coroot))
                                 for r in roots)
        self.dim_denominator = prod(shift for _, shift in self.dim_factors)
        self.simple_pairs = tuple(zip(self.simple_coroots, self.simple_roots))

    # -- basic pairing and reflection operations -------------------------

    def simple_pairing(self, weight, i):
        return _dot(weight, self.simple_coroots[i])

    def reflect(self, weight, i):
        c = self.simple_pairing(weight, i)
        return _vec_sub(weight, _vec_scale(c, self.simple_roots[i]))

    def is_dominant(self, weight):
        for coroot in self.simple_coroots:
            if _dot(weight, coroot) < 0:
                return False
        return True

    def pair_2rho_check(self, weight):
        """<weight, 2*rho-check> = sum over positive coroots of the pairing."""
        return _dot(weight, self.two_rho_coweight)

    def height(self, vector):
        """<v, rho-check> for v in the root lattice; equals the root height.
        DomainError unless v is weight_dim ints of the root lattice."""
        coords = self.root_coordinates(vector)
        if coords is None:
            raise DomainError("vector not in the root lattice span")
        return sum(coords)

    # -- roots ------------------------------------------------------------

    def positive_roots(self):
        if self._positive_roots is not None:
            return self._positive_roots
        # full root set as the closure of the simple roots under reflections
        seen = set(self.simple_roots)
        frontier = list(self.simple_roots)
        while frontier:
            nxt = []
            for v in frontier:
                for i in range(self.rank):
                    w = self.reflect(v, i)
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        positives = []
        for v in seen:
            coords = self.root_coordinates(v)
            if coords is None or any(c < 0 for c in coords):
                continue
            ht = sum(coords)
            d_gamma = self._length_sq_half(coords)
            coroot = self._coroot_vector(coords, d_gamma)
            positives.append(PositiveRoot(v, coords, coroot, ht, d_gamma))
        positives.sort(key=lambda r: (r.height, r.weight))
        self._positive_roots = tuple(positives)
        return self._positive_roots

    def root_coordinates(self, vector):
        """Integer coords of vector over the simple roots, or None off the
        root lattice; DomainError unless vector is weight_dim ints."""
        if self.parent is not None:
            # the simple roots are independent: a Levi vector has the
            # parent's coordinates, supported on the Levi's simple roots
            coords = self.parent.root_coordinates(vector)
            if coords is None or any(coords[i] for i in self._outside):
                return None
            return tuple(coords[i] for i in self.simple_indices)
        return _integral_solution(self._root_inverse,
                                  require_weight(self, vector))

    def _length_sq_half(self, root_coords):
        # (gamma,gamma)/2 with B(alpha_i,alpha_j) = d_i * A[i][j]; B is even
        # on the root lattice (B(alpha_i,alpha_i) = 2 d_i), so this is exact
        total = 0
        for i, ci in enumerate(root_coords):
            if not ci:
                continue
            for j, cj in enumerate(root_coords):
                if cj:
                    total += ci * cj * self.symmetrizers[i] * self.cartan[i][j]
        return total // 2

    def _coroot_vector(self, root_coords, d_gamma):
        # gamma-check = sum_j c_j d_j alpha_j-check / d_gamma
        scaled = [c * d for c, d in zip(root_coords, self.symmetrizers)]
        out = []
        for k in range(self.weight_dim):
            x, rem = divmod(sum(s * co[k] for s, co in
                                zip(scaled, self.simple_coroots)), d_gamma)
            if rem:
                raise DomainError("coroot has non-integral coordinates")
            out.append(x)
        return tuple(out)

    def highest_root(self):
        """The highest root; DomainError on a torus, which has no roots."""
        roots = self.positive_roots()
        if not roots:
            raise DomainError("%s has no roots, so no highest root"
                              % self.name)
        return roots[-1]

    def inner_product_with_root_vector(self, weight, root_coords):
        """B(weight, v) for v = sum c_j alpha_j, via the symmetrizers."""
        total = 0
        for j, c in enumerate(root_coords):
            if c:
                total += c * self.symmetrizers[j] * _dot(weight, self.simple_coroots[j])
        return total

    # -- Weyl group --------------------------------------------------------

    def weyl_elements(self):
        """All Weyl elements, sorted by (length, word); index 0 is identity."""
        if self._weyl is not None:
            return self._weyl
        n = self.weight_dim
        refl = []
        for i in range(self.rank):
            rows = []
            for k in range(n):
                basis = tuple(1 if t == k else 0 for t in range(n))
                rows.append(self.reflect(basis, i))
            # rows computed columnwise: transpose to get matrices
            refl.append(tuple(zip(*rows)))

        def element(word, matrix):
            # w(rho) - rho = (w(2rho) - 2rho) / 2, a sum of negative roots
            shift = _vec_sub(_mat_vec(matrix, self.two_rho), self.two_rho)
            shift = tuple(c // 2 for c in shift)
            # w(x) - x lies in the root lattice for every weight x
            columns = [self.root_coordinates(_vec_sub(column, unit))
                       for column, unit in zip(zip(*matrix), _identity(n))]
            # <w(x), coroot> = (transpose(matrix) coroot) . x
            pairing_rows = tuple(_mat_vec(tuple(zip(*matrix)), coroot)
                                 for coroot in self.simple_coroots)
            return WeylElement(word, matrix, pairing_rows, shift,
                               tuple(zip(*columns)),
                               self.root_coordinates(shift))
        ident = element((), _identity(n))
        elements = {ident.matrix: ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for w in frontier:
                for i in range(self.rank):
                    m = _mat_mul(refl[i], w.matrix)
                    if m not in elements:
                        el = element((i,) + w.word, m)
                        elements[m] = el
                        nxt.append(el)
            frontier = nxt
        ordered = sorted(elements.values(), key=lambda w: (w.length, w.word))
        self._weyl = tuple(ordered)
        return self._weyl

    def longest_element(self):
        return self.weyl_elements()[-1]

    def dominant_conjugate(self, weight):
        """The first w of weyl_elements(), in (length, word) order, with
        w(weight) dominant, and that dominant weight; DomainError unless
        weight is weight_dim ints.

        Each element is tested on its pairing rows, rank-many dot products,
        and only the one returned applies its matrix.  A weight of another
        length would pair by truncated dot products, so it is refused
        first, as is one with an entry that is no int.
        """
        weight = require_weight(self, weight)
        # the closed dominant chamber meets every Weyl orbit (Humphreys,
        # GTM 9, §10.3), so some element returns
        for w in self.weyl_elements():
            for row in w.pairing_rows:
                if _dot(row, weight) < 0:
                    break
            else:
                return w, w.apply(weight)

    # -- coordinate conversions (the single place bases meet) -------------

    def pairing_coords(self, weight):
        """(<weight, alpha_i-check>)_i, i.e. fundamental-weight coordinates."""
        return tuple(self.simple_pairing(weight, i) for i in range(self.rank))

    def weight_from_pairing(self, coords):
        """Inverse of pairing_coords on rank ints (not bools); DomainError
        otherwise, if not in the lattice, and on a Levi, whose rank-many
        pairings fix no weight."""
        if self.parent is not None:
            raise DomainError("pairing coordinates of the Levi %s do not "
                              "determine a weight" % self.name)
        coords = require_items(coords, "pairing coordinates", self.rank)
        for c in coords:
            require_int(c, "pairing coordinate", None, None)
        if self.basis == "fundamental":
            return coords
        # root basis: solve sum_j x_j <alpha_j, alpha_i-check> = c_i
        out = _integral_solution(self._cartan_inverse, coords)
        if out is None:
            raise DomainError(
                "weight not in the %s lattice (root-lattice membership "
                "fails; for adjoint presets only root-lattice weights "
                "exist, e.g. even labels for A1-adj)" % self.lattice_kind)
        return out

    # -- Levi subdata ------------------------------------------------------

    def levi(self, subset):
        """Levi sub-datum spanned by the given simple-root indices: an
        iterable of ints (not bools) in range(rank)."""
        subset = tuple(sorted(set(require_indices(subset, self.rank,
                                                  "Levi subset"))))
        if subset in self._levi_cache:
            return self._levi_cache[subset]
        cartan = [[self.cartan[i][j] for j in subset] for i in subset]
        sym = [self.symmetrizers[i] for i in subset]
        name = "%s|levi%s" % (self.name, list(subset))
        datum = RootDatum(name, cartan, sym, "torus-factor", self.basis,
                          weight_dim=self.weight_dim, simple_indices=subset,
                          parent=self)
        self._levi_cache[subset] = datum
        return datum

    def __repr__(self):
        return "RootDatum(%r)" % (self.name,)


def _det(mat):
    """Determinant of a small integer matrix, by cofactor expansion."""
    if not mat:
        return 1
    return sum((-1) ** j * a * _det([row[:j] + row[j + 1:] for row in mat[1:]])
               for j, a in enumerate(mat[0]) if a)


def _adjugate(mat):
    """(adjugate, determinant) of a square integer matrix, from cofactors."""
    n = len(mat)

    def cofactor(i, j):
        minor = [row[:j] + row[j + 1:] for k, row in enumerate(mat) if k != i]
        return (-1) ** (i + j) * _det(minor)
    adj = tuple(tuple(cofactor(j, i) for j in range(n)) for i in range(n))
    return adj, _det(mat)


def _integral_solution(inverse, v):
    """The integer x with mat * x = v, for inverse = _adjugate(mat); None
    when x is not integral."""
    adj, det = inverse
    out = []
    for row in adj:
        s = _dot(row, v)
        if s % det:
            return None
        out.append(s // det)
    return tuple(out)


def build_datum(preset):
    """Return the validated RootDatum for a preset name; one object per
    preset, so the memos downstream can key on the datum itself.  The name
    is checked before the memo, which cannot hash every argument."""
    if not isinstance(preset, str) or preset not in _PRESETS:
        raise ConfigurationError(
            "unknown preset %r; supported: %s" % (preset, ", ".join(supported_presets())))
    return _build_datum(preset)


@lru_cache(maxsize=None)
def _build_datum(preset):
    cartan, sym, kind, n_pos = _PRESETS[preset]
    basis = "root" if kind == "adjoint" else "fundamental"
    datum = RootDatum(preset, cartan, sym, kind, basis)
    if len(datum.positive_roots()) != n_pos:
        raise ConfigurationError(
            "preset %s produced %d positive roots, expected %d"
            % (preset, len(datum.positive_roots()), n_pos))
    return datum
