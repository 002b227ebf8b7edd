import hashlib
import json
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from nilcone.errors import DomainError, ResourceError
from nilcone.qpoly import QPoly
from nilcone.roots import build_datum, supported_presets
from nilcone.characters import irreducible_character, weyl_dimension
from nilcone.reps import (build_irrep, principal_e, centralizer_and_exponents,
                          bk_filtration, bk_profile_all_weights,
                          verify_theorem_filtrations, poincare_gr,
                          op_compose, op_apply, op_commutator, op_equal,
                          fraction_solve, int_columns_rank, _eliminate,
                          _layer_rows,
                          MatrixRep)
from nilcone.qanalog import p_bk_polynomial
from conftest import dominant_weights_with_dim_cap


def _nilpotency_index(op, dim):
    power = op
    k = 1
    while any(col for col in power.values()):
        power = op_compose(op, power)
        k += 1
        assert k <= dim + 1
    return k


def test_build_sl2_adjoint(a1):
    rep = build_irrep(a1, (2,))
    assert rep.dim == 3
    e = principal_e(rep)
    assert _nilpotency_index(e, 3) == 3  # e^2 != 0, e^3 = 0


def test_build_trivial(a1):
    rep = build_irrep(a1, (0,))
    assert rep.dim == 1
    assert not principal_e(rep)


def test_build_a2_vector(a2):
    rep = build_irrep(a2, (1, 0))
    assert rep.dim == 3
    eigenvalues = sorted(a2.simple_pairing(w, 0) for w, _ in rep.basis)
    assert eigenvalues == [-1, 0, 1]


def test_h_traces_vanish(b2):
    rep = build_irrep(b2, (1, 1))
    for i in range(b2.rank):
        h = rep.h_op(i)
        assert sum(h[c][c] for c in h) == 0


def test_commutation_and_serre(a2, b2):
    for datum, lam in ((a2, (1, 1)), (b2, (0, 1))):
        rep = build_irrep(datum, lam)
        assert rep.validate()
        assert rep.serre_check()


def test_dimension_cap(a1):
    with pytest.raises(ResourceError):
        build_irrep(a1, (500,))
    rep = build_irrep(a1, (10,), dim_cap=11)
    assert rep.dim == 11


def test_dimension_cap_holds_for_cached_modules(a2):
    assert build_irrep(a2, (2, 2)).dim == 27
    with pytest.raises(ResourceError):
        build_irrep(a2, (2, 2), dim_cap=10)


def test_principal_e_regular_rank_profile(a2):
    # on the adjoint module the principal nilpotent has one Jordan string
    # per exponent degree; its nilpotency index is 2*max exponent + 1
    rep = build_irrep(a2, (1, 1))
    e = principal_e(rep)
    assert _nilpotency_index(e, rep.dim) == 5
    assert not principal_e(build_irrep(a2, (0, 0)))


def test_principal_e_rejects_zero_coefficient(a2):
    rep = build_irrep(a2, (1, 0))
    with pytest.raises(DomainError):
        principal_e(rep, [1, 0])


@pytest.mark.parametrize("preset,expected", [
    ("A1-sc", [1]), ("A1-adj", [1]), ("A2-sc", [1, 2]), ("A2-adj", [1, 2]),
    ("B2-sc", [1, 3]), ("G2", [1, 5]), ("A3-sc", [1, 2, 3])])
def test_exponents(preset, expected):
    datum = build_datum(preset)
    elements, exponents = centralizer_and_exponents(datum)
    assert exponents == expected
    assert len(elements) == datum.rank
    # every element really centralizes e, in the adjoint module
    adj = build_irrep(datum, datum.highest_root().weight)
    e = principal_e(adj)
    for el in elements:
        assert op_equal(op_commutator(el.realize(adj), e), {})


def test_centralizer_elements_transfer_to_other_modules(a2):
    rep = build_irrep(a2, (2, 1))
    e = principal_e(rep)
    for el in centralizer_and_exponents(a2)[0]:
        assert op_equal(op_commutator(el.realize(rep), e), {})


def test_bk_filtration_sl2_adjoint(a1_adj):
    rep = build_irrep(a1_adj, (1,))
    assert bk_filtration(rep, (0,)).dims == {0: 0, 1: 1}
    assert bk_filtration(rep, (1,)).dims == {0: 1}
    assert bk_filtration(rep, (-1,)).dims == {0: 0, 1: 0, 2: 1}
    assert bk_filtration(rep, (5,)).total == 0


def test_bk_gr_total_dimension(a2):
    rep = build_irrep(a2, (2, 2))
    profiles = bk_profile_all_weights(rep)
    total = sum(p.graded_poly().at_one() for p in profiles.values())
    assert total == rep.dim
    for p in profiles.values():
        dims = [p.dims[i] for i in sorted(p.dims)]
        assert dims == sorted(dims)
        assert dims[-1] == p.total


# (preset, highest weight) of every module of dimension <= 40
_SMALL_MODULES = [
    (name, lam) for name in supported_presets()
    for lam in dominant_weights_with_dim_cap(build_datum(name), 40)]


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(module=st.sampled_from(_SMALL_MODULES),
       coeffs=st.lists(st.integers(-5, 5).filter(bool), min_size=3,
                       max_size=3))
@example(module=("A2-sc", (1, 1)), coeffs=[1, 2, 3])
@example(module=("A2-sc", (2, 1)), coeffs=[1, 2, 3])
@example(module=("B2-sc", (1, 1)), coeffs=[1, 2, 3])
def test_bk_coefficient_independence(module, coeffs):
    # all principal nilpotents are conjugate: profiles are coefficient-free
    name, lam = module
    datum = build_datum(name)
    coeffs = coeffs[:datum.rank]  # no preset has rank above 3
    rep = build_irrep(datum, lam)
    for w in rep.weight_spaces:
        assert bk_filtration(rep, w).dims == \
            bk_filtration(rep, w, coefficients=coeffs).dims


def test_verify_theorem_examples(a1_adj, a2):
    ok, actual, predicted = verify_theorem_filtrations(a1_adj, (1,), (0,))
    assert ok and actual == QPoly({1: 1}) == predicted
    ok, actual, predicted = verify_theorem_filtrations(a2, (1, 1), (1, 1))
    assert ok and actual == QPoly.one()
    ok, actual, predicted = verify_theorem_filtrations(a2, (1, 1), (0, 0))
    assert ok and actual == QPoly({1: 1, 2: 1})


def test_verify_theorem_propagates_resource_errors(a1):
    with pytest.raises(ResourceError):
        verify_theorem_filtrations(a1, (600,), (0,))


@pytest.mark.parametrize("preset,nu", [
    ("A2-adj", (1, 1)), ("G2", (0, 1)), ("A3-sc", (1, 0, 1))])
def test_verify_theorem_extra_presets(preset, nu):
    datum = build_datum(preset)
    rep = build_irrep(datum, nu)
    for lam in rep.weight_spaces:
        ok, actual, predicted = verify_theorem_filtrations(datum, nu, lam)
        assert ok, (preset, nu, lam, actual, predicted)


def test_poincare_gr(a1, a2):
    assert poincare_gr(a1, 6) == QPoly({0: 1, 2: 1, 4: 1, 6: 1})
    assert poincare_gr(a1, 0) == QPoly.one()
    # 1/((1-t^2)(1-t^4)) through t^6
    assert poincare_gr(a2, 6) == QPoly({0: 1, 2: 1, 4: 2, 6: 2})


def test_principal_e_has_integer_entries(b2):
    rep = build_irrep(b2, (1, 0))
    for coefficients in (None, [2, -3]):
        for col in principal_e(rep, coefficients).values():
            for v in col.values():
                assert isinstance(v, int)
    with pytest.raises(DomainError):
        principal_e(rep, [0.5, 1])


@pytest.mark.parametrize("preset", supported_presets())
def test_generator_matrices_are_small_integers(preset):
    """Every e and f entry of every module of dimension <= 120 is an int of
    at most 32 bits: the Z-bases are size-reduced."""
    datum = build_datum(preset)
    for lam in dominant_weights_with_dim_cap(datum, 120):
        rep = build_irrep(datum, lam)
        for op in rep.e_ops + rep.f_ops:
            for col in op.values():
                for v in col.values():
                    assert type(v) is int and v.bit_length() <= 32, \
                        (preset, lam, v)


def test_serialization_round_trip(a2):
    from fractions import Fraction
    rep = build_irrep(a2, (1, 1))
    data = json.loads(json.dumps(rep.to_json()))
    assert data["preset"] == "A2-sc"
    assert len(data["basis"]) == 8
    assert {len(op) for op in data["e"]} == {8}
    # reassemble one operator and compare against the sparse original
    dense = data["e"][0]
    for c, col in rep.e_ops[0].items():
        for r, v in col.items():
            p, q = dense[r][c].split("/")
            assert Fraction(int(p), int(q)) == v


def test_weight_space_dims_match_freudenthal(g2):
    rep = build_irrep(g2, (0, 1))
    char = irreducible_character(g2, (0, 1))
    for w, idxs in rep.weight_spaces.items():
        assert len(idxs) == char[w]
    assert rep.dim == weyl_dimension(g2, (0, 1)) == 7


@pytest.mark.parametrize("preset,coords", [("B2-sc", (1, 1)), ("G2", (1, 0))])
def test_one_elimination_per_weight_space(preset, coords, monkeypatch):
    """An uncached build picks each weight space's Z-basis and every
    candidate's coordinates over it with one reduction, and makes no
    elimination."""
    import nilcone.reps
    datum = build_datum(preset)
    lam = datum.weight_from_pairing(coords)
    calls = []
    hermite = nilcone.reps._hermite

    def counted(*args):
        calls.append(args)
        return hermite(*args)

    def forbidden(*args):
        raise AssertionError("the build called _eliminate")
    monkeypatch.setattr(nilcone.reps, "_hermite", counted)
    monkeypatch.setattr(nilcone.reps, "_eliminate", forbidden)
    rep = nilcone.reps._build_irrep.__wrapped__(datum, lam)
    assert len(calls) == len(rep.weight_spaces) - 1 > 1


# SHA-256 of the sorted-key JSON exports of every module of dimension
# <= 60, concatenated over supported_presets() in order (174 modules).  A
# deliberate change of basis, such as integer matrix models, changes this
# value: update it and record the change in CHANGES.md.
_EXPORTS_UP_TO_60 = \
    "adb6a7079b69ba44dd0b51caddbcc0a05d8e3360565ad7beb5c6f199dffa8ff6"


def test_exports_are_byte_identical_up_to_dimension_60():
    digest = hashlib.sha256()
    count = 0
    for name in supported_presets():
        datum = build_datum(name)
        for lam in dominant_weights_with_dim_cap(datum, 60):
            export = build_irrep(datum, lam).to_json()
            digest.update(json.dumps(export, sort_keys=True).encode())
            count += 1
    assert count == 174
    assert digest.hexdigest() == _EXPORTS_UP_TO_60


# -- the elimination routine against a plain Fraction Gauss-Jordan ------------

def _gauss_jordan(rows, ncols):
    """Reduced row echelon form over Fraction: (nonzero rows, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m[:len(pivots)], pivots


def _reference_kernel(rows, ncols):
    rref, pivots = _gauss_jordan(rows, ncols)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, pc in zip(rref, pivots):
            vec[pc] = -row[free]
        basis.append(vec)
    return basis


def _sparse_columns(rows, ncols):
    return [{r: row[j] for r, row in enumerate(rows) if row[j]}
            for j in range(ncols)]


_entries = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def _matrices(draw, entries):
    """Small matrices whose later columns often repeat combinations of
    earlier ones, so rank deficiency is common."""
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(1, 6))
    cols = []
    for _ in range(ncols):
        if cols and draw(st.booleans()):
            a, b = draw(st.sampled_from(cols)), draw(st.sampled_from(cols))
            c = draw(entries)
            cols.append([x + c * y for x, y in zip(a, b)])
        else:
            cols.append(draw(st.lists(entries, min_size=nrows,
                                      max_size=nrows)))
    return [list(row) for row in zip(*cols)], ncols


_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                     database=None)


@_SETTINGS
@given(_matrices(st.integers(-4, 4)))
def test_int_columns_rank_matches_reference(matrix):
    rows, ncols = matrix
    columns = [c for c in _sparse_columns(rows, ncols) if c]
    assert int_columns_rank(columns) == len(_gauss_jordan(rows, ncols)[1])


@_SETTINGS
@given(_matrices(st.integers(-4, 4)))
def test_kept_columns_span_each_prefix(matrix):
    """The kernel filtration rows rely on this: for every j, the reduced
    columns kept from the first j + 1 span what those columns span."""
    rows, ncols = matrix
    columns = [c for c in _sparse_columns(rows, ncols) if c]
    kept = _eliminate(columns)[0]
    nrows = len(rows)

    def rank(cols):
        return len(_gauss_jordan([[c.get(r, 0) for c in cols]
                                  for r in range(nrows)], len(cols))[1])
    for j in range(len(columns)):
        prefix = columns[:j + 1]
        reduced = [col for i, col in kept.items() if i <= j]
        assert rank(reduced) == len(reduced) == rank(prefix)
        assert rank(prefix + reduced) == rank(prefix)


def _minors_gcd(rows, ncols, r):
    """gcd of the r x r minors of a matrix, by Fraction Gauss-Jordan."""
    g = 0
    for rs in combinations(range(len(rows)), r):
        for cs in combinations(range(ncols), r):
            m = [[Fraction(rows[i][j]) for j in cs] for i in rs]
            det = Fraction(1)
            for k in range(r):
                p = next((i for i in range(k, r) if m[i][k]), None)
                if p is None:
                    det = Fraction(0)
                    break
                if p != k:
                    m[k], m[p] = m[p], m[k]
                    det = -det
                det *= m[k][k]
                for i in range(k + 1, r):
                    f = m[i][k] / m[k][k]
                    m[i] = [a - f * b for a, b in zip(m[i], m[k])]
            assert det.denominator == 1
            g = gcd(g, int(det))
    return g


@_SETTINGS
@given(_matrices(st.integers(-12, 12)))
@example(([[2, 4, 6]], 3))
@example(([[2, 0, 1], [0, 2, 1]], 3))
def test_fraction_solve_matches_reference(matrix):
    """The basis is an echelon Z-basis of the lattice the columns span: as
    many vectors as the Gauss-Jordan rank, positive pivots on the reference
    pivot rows, and the same gcd of maximal minors as the columns, which
    with test_fraction_solve_coordinates_rebuild_every_column makes the
    two lattices equal."""
    rows, ncols = matrix
    nrows = len(rows)
    basis, coords = fraction_solve(_sparse_columns(rows, ncols))
    rank = len(_gauss_jordan(rows, ncols)[1])
    assert len(basis) == rank
    pivots = [min(b) for b in basis]
    transposed = [list(col) for col in zip(*rows)]
    assert pivots == _gauss_jordan(transposed, nrows)[1]
    assert all(b[r] > 0 for b, r in zip(basis, pivots))
    if rank:
        dense = [[b.get(r, 0) for b in basis] for r in range(nrows)]
        assert _minors_gcd(dense, rank, rank) == \
            _minors_gcd(rows, ncols, rank)


@_SETTINGS
@given(_matrices(st.integers(-12, 12)))
def test_fraction_solve_coordinates_rebuild_every_column(matrix):
    """One reduction gives every column's coordinates over the basis,
    exactly and in ints."""
    rows, ncols = matrix
    columns = _sparse_columns(rows, ncols)
    basis, coords = fraction_solve(columns)
    for col, x in zip(columns, coords):
        rebuilt = {}
        for t, v in x.items():
            assert type(v) is int
            for r, a in basis[t].items():
                rebuilt[r] = rebuilt.get(r, 0) + v * a
        assert {r: v for r, v in rebuilt.items() if v} == col


@_SETTINGS
@given(_matrices(_entries))
def test_kernel_matches_reference(matrix):
    """The centralizer's kernel: a basis of the reference kernel's span."""
    rows, ncols = matrix
    kept, kernel = _eliminate(_sparse_columns(rows, ncols), len(rows))
    reference = _reference_kernel(rows, ncols)
    assert len(kept) == ncols - len(reference)
    assert len(kernel) == len(reference)
    for vec in kernel:
        assert all(isinstance(x, int) for x in vec)
        assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in rows)
    if kernel:
        assert len(_gauss_jordan(kernel, ncols)[1]) == len(kernel)
        assert len(_gauss_jordan(kernel + reference, ncols)[1]) == len(kernel)


def test_route_sides_bind_no_foreign_elimination():
    """The q-analog side must not call the elimination it is checked by,
    and the module side must not call the root-coordinate kernel."""
    import nilcone.characters
    import nilcone.homspaces
    import nilcone.qanalog
    import nilcone.reps
    import nilcone.roots
    reps_side = (fraction_solve, int_columns_rank, _eliminate,
                 bk_filtration, _layer_rows)
    roots_side = (nilcone.roots._det, nilcone.roots._adjugate)
    for module, foreign in ((nilcone.roots, reps_side),
                            (nilcone.characters, reps_side),
                            (nilcone.qanalog, reps_side),
                            (nilcone.reps, roots_side),
                            (nilcone.homspaces, roots_side)):
        bound = [name for name, value in vars(module).items()
                 if any(value is fn for fn in foreign)]
        assert not bound, (module.__name__, bound)
    # the q-analog side of the q = 1 check reaches no Freudenthal character,
    # and the character side nothing of the q-analogs
    characters_side = {nilcone.characters.weight_multiplicity,
                       nilcone.characters.irreducible_character,
                       nilcone.characters._character,
                       nilcone.characters._dominant_mults}
    bound = [name for name, value in vars(nilcone.qanalog).items()
             if any(value is fn for fn in characters_side)]
    assert not bound, bound
    bound = [name for name, value in vars(nilcone.characters).items()
             if value is nilcone.qanalog
             or getattr(value, "__module__", None) == "nilcone.qanalog"]
    assert not bound, bound


def test_every_memo_is_an_lru_cache(a2):
    """No module binds a mutable table apart from two constant ones, and a
    built module carries only the attributes MatrixRep.__init__ sets, so
    every in-memory memo is a functools.lru_cache."""
    import sys
    import nilcone.cli
    constants = {("nilcone.roots", "_PRESETS"), ("nilcone.cli", "_SL2_KINDS")}
    tables = [(name, attr)
              for name, module in list(sys.modules.items())
              if name == "nilcone" or name.startswith("nilcone.")
              for attr, value in vars(module).items()
              if not attr.startswith("__")
              and isinstance(value, (dict, list, set))
              and (name, attr) not in constants]
    assert not tables, tables
    rep = build_irrep(a2, (2, 1))
    bk_profile_all_weights(rep, [2, -3])
    bk_profile_all_weights(rep)
    principal_e(rep)
    centralizer_and_exponents(a2)[0][0].realize(rep)
    fresh = MatrixRep(rep.datum, rep.highest_weight, rep.basis, rep.e_ops,
                      rep.f_ops)
    assert set(vars(rep)) == set(vars(fresh))


def test_weyl_character_oracle_stays_independent():
    """The oracle checks the Freudenthal characters, the peel-off and the
    product formula, so it must reach none of them: its long division
    keeps its own naive max scan."""
    import nilcone.characters
    names = set()
    codes = [nilcone.characters.weyl_character_oracle.__code__]
    while codes:
        code = codes.pop()
        names.update(code.co_names)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_names"))
    foreign = {"decompose_character", "heapq", "weyl_dimension",
               "_peel_entry", "irreducible_character", "_dominant_mults",
               "_tail", "_dominant_key", "_brauer", "_dot_dominant"}
    assert not names & foreign, sorted(names & foreign)


# -- the kernel filtration against a naive walk of e^k ------------------------

def _reference_filtration(rep, lam, coefficients=None):
    """dims[i] = dim ker e^(i+1) on V_lam, from the Fraction operator e
    applied i + 1 times to each basis vector of V_lam and the rank of the
    images by Gauss-Jordan, up to the first i where the kernel is V_lam."""
    e = principal_e(rep, coefficients)
    images = [{c: Fraction(1)} for c in rep.weight_spaces.get(lam, [])]
    m = len(images)
    dims = {}
    while m:
        images = [op_apply(e, v) for v in images]
        support = sorted({r for v in images for r in v})
        rank = len(_gauss_jordan([[v.get(r, 0) for v in images]
                                  for r in support], m)[1])
        dims[len(dims)] = m - rank
        if not rank:
            break
    return dims


@pytest.mark.parametrize("preset", ["A1-sc", "A1-adj", "A2-sc", "A2-adj",
                                    "B2-sc", "G2", "A3-sc"])
def test_bk_filtration_matches_naive_walk(preset):
    datum = build_datum(preset)
    for nu in dominant_weights_with_dim_cap(datum, 27):
        rep = build_irrep(datum, nu)
        for coefficients in (None, [2, -3, 5][:datum.rank]):
            for lam in rep.weight_spaces:
                profile = bk_filtration(rep, lam, coefficients)
                assert profile.dims == _reference_filtration(
                    rep, lam, coefficients), (preset, nu, lam, coefficients)
                assert list(profile.dims) == sorted(profile.dims)
                assert profile.total == len(rep.weight_spaces[lam])


def test_layer_rows_are_reduced_by_label(a2):
    # each layer keeps independent rows, labels decreasing, as many as the
    # rank of e on the layer: the rows labelled >= 1 cut out ker e there
    rep = build_irrep(a2, (2, 1))
    layers = {}
    for w, idxs in rep.weight_spaces.items():
        layers.setdefault(a2.pair_2rho_check(w), []).extend(idxs)
    rows = _layer_rows(rep)
    assert set(rows) == set(layers)
    e = principal_e(rep)
    for d, layer in rows.items():
        labels = [label for label, _ in layer]
        assert labels == sorted(labels, reverse=True)
        assert int_columns_rank([row for _, row in layer]) == len(layer)
        images = [op_apply(e, {c: Fraction(1)}) for c in layers[d]]
        support = sorted({r for v in images for r in v})
        rank_e = len(_gauss_jordan([[v.get(r, 0) for v in images]
                                    for r in support], len(images))[1])
        assert len(layer) == rank_e
