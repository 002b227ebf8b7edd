import hashlib
import json
import os
from copy import deepcopy
from fractions import Fraction
from inspect import CO_NEWLOCALS
from itertools import combinations
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from nilcone.errors import DomainError, ResourceError
from nilcone.qpoly import QPoly, geometric_series, product_truncated
from nilcone.roots import build_datum, supported_presets
from nilcone.characters import (irreducible_character, weyl_dimension,
                                restrict_to_levi, tensor_decompose)
from nilcone.reps import (build_irrep, principal_e, centralizer_and_exponents,
                          bk_filtration, bk_profile_all_weights,
                          verify_theorem_filtrations, poincare_gr,
                          op_apply, op_commutator,
                          op_transpose, fraction_solve, int_columns_rank,
                          _eliminate, _hermite, _layer_rows, MatrixRep)
from nilcone import reps
from nilcone.homspaces import hom_profile_slice
from nilcone.qanalog import p_bk_polynomial
from conftest import dominant_weights_with_dim_cap


def _h_op(rep, i):
    """h_i of a module, diagonal: one pairing per weight space."""
    out = {}
    for w, idxs in rep.weight_spaces.items():
        c = rep.datum.simple_pairing(w, i)
        if c:
            out.update((idx, {idx: c}) for idx in idxs)
    return out


def _export(rep):
    """A module as JSON: basis labels plus dense row-major e, f and h
    matrices, every entry a rational string "p/q" with q = 1, the form the
    export digests below were taken in."""
    def dense(op):
        rows = [["0/1"] * rep.dim for _ in range(rep.dim)]
        for c, col in op.items():
            for r, v in col.items():
                rows[r][c] = "%d/1" % v
        return rows
    return {
        "preset": rep.datum.name,
        "highest_weight": list(rep.highest_weight),
        "basis": [[list(w), k] for w, k in rep.basis],
        "e": [dense(op) for op in rep.e_ops],
        "f": [dense(op) for op in rep.f_ops],
        "h": [dense(_h_op(rep, i)) for i in range(rep.datum.rank)],
    }


def _nilpotency_index(op, dim):
    power = op
    k = 1
    while any(col for col in power.values()):
        power = {c: img for c, col in power.items()
                 if (img := op_apply(op, col))}
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
        h = _h_op(rep, i)
        assert sum(h[c][c] for c in h) == 0


def _serre_holds(rep):
    """(ad e_i)^(1 - <alpha_j, alpha_i-check>)(e_j) = 0 in rep, and the
    same for the f_i."""
    d = rep.datum
    for i in range(d.rank):
        for j in range(d.rank):
            if i == j:
                continue
            for ops in (rep.e_ops, rep.f_ops):
                acc = ops[j]
                for _ in range(1 - d.cartan[i][j]):
                    acc = op_commutator(ops[i], acc)
                if acc:
                    return False
    return True


def test_commutation_and_serre(a2, b2):
    for datum, lam in ((a2, (1, 1)), (b2, (0, 1))):
        rep = build_irrep(datum, lam)
        assert rep.validate()
        assert _serre_holds(rep)


def test_dimension_cap(a1, a2):
    with pytest.raises(ResourceError):
        build_irrep(a1, (500,))
    rep = build_irrep(a1, (10,), dim_cap=11)
    assert rep.dim == 11
    # the cap is an int >= 1, bools excluded, checked before any work
    for cap in (None, 0, -1, 2.5, True, "400"):
        with pytest.raises(DomainError):
            build_irrep(a2, (1, 0), dim_cap=cap)
        with pytest.raises(DomainError):
            reps.check_dim_cap(a2, (1, 0), cap)
        with pytest.raises(DomainError):
            hom_profile_slice(a2, [((1, 0), 0)], [((1, 0), 0)], dim_cap=cap)


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
        assert op_commutator(el.realize(adj), e) == {}


def test_centralizer_elements_cannot_be_changed_by_a_caller(a2):
    """The memo hands its own elements to every caller, so their recipes
    and coefficients are tuples: assigning into one raises, and later
    calls see the same elements."""
    def snapshot():
        return [(el.degree, tuple(el.items), tuple(el.coeffs))
                for el in centralizer_and_exponents(a2)[0]]
    before = snapshot()
    element = centralizer_and_exponents(a2)[0][0]
    with pytest.raises(TypeError):
        element.coeffs[0] = 7
    with pytest.raises(TypeError):
        element.items[0] = (1,)
    assert snapshot() == before
    assert [el.coeffs for el in centralizer_and_exponents(a2)[0]] == \
        [(-1, -1), (1,)]


@pytest.mark.parametrize("preset,coords",
                         [("A2-sc", (1, 1)), ("B2-sc", (1, 0)), ("G2", (1, 0))])
def test_validate_catches_every_single_entry_corruption(preset, coords):
    """validate raises at a commutator [e_i, f_j] after any one entry of an
    e_i or f_j is changed by +1 or -1, and after one new entry in a wrong
    weight space (the highest-weight vector mapped to itself)."""
    datum = build_datum(preset)
    rep = build_irrep(datum, datum.weight_from_pairing(coords))

    def corrupted(side, i, c, r, delta):
        ops = [{col: dict(rows) for col, rows in op.items()}
               for op in getattr(rep, side)]
        col = ops[i].setdefault(c, {})
        value = col.get(r, 0) + delta
        if value:
            col[r] = value
        else:
            del col[r]
        if not col:
            del ops[i][c]
        e_ops, f_ops = ((ops, rep.f_ops) if side == "e_ops"
                        else (rep.e_ops, ops))
        return MatrixRep(datum, rep.highest_weight, rep.basis, e_ops, f_ops,
                         rep.e)

    cases = []
    for side in ("e_ops", "f_ops"):
        for i, op in enumerate(getattr(rep, side)):
            cases += [(side, i, c, r, delta) for c, col in op.items()
                      for r in col for delta in (1, -1)]
            cases.append((side, i, 0, 0, 1))
    assert len(cases) > 4 * datum.rank
    for case in cases:
        with pytest.raises(AssertionError, match=r"\[e_\d+, f_\d+\] failed"):
            corrupted(*case).validate()
    assert rep.validate()


def test_validate_counts_the_columns_of_each_commutator(a2):
    """[e_i, f_i] is compared with h_i column by column only on the weight
    spaces that pair nonzero with alpha_i-check, so an extra column at a
    weight that pairs to 0 is caught by the column count alone.  On A2-sc
    (1,1), f_1 gains an entry from the vector of weight alpha_1 to the
    highest-weight vector: e_1 kills that vector, so [e_1, f_1] changes
    only in the column of the zero weight space that e_1 maps onto the
    alpha_1 vector."""
    rep = build_irrep(a2, (1, 1))
    (b,) = rep.weight_spaces[a2.simple_roots[1]]
    f_ops = [{col: dict(rows) for col, rows in op.items()}
             for op in rep.f_ops]
    f_ops[1][b][0] = 1
    bad = MatrixRep(a2, rep.highest_weight, rep.basis, rep.e_ops, f_ops,
                    rep.e)
    lhs = op_commutator(bad.e_ops[1], bad.f_ops[1])
    h = _h_op(rep, 1)
    extra = set(lhs) - set(h)
    assert all(lhs[c] == col for c, col in h.items()) and len(extra) == 1
    assert a2.simple_pairing(rep.basis[extra.pop()][0], 1) == 0
    assert not op_commutator(bad.e_ops[0], bad.f_ops[1])
    with pytest.raises(AssertionError, match=r"\[e_1, f_1\] failed"):
        bad.validate()


def test_centralizer_elements_transfer_to_other_modules(a2):
    rep = build_irrep(a2, (2, 1))
    e = principal_e(rep)
    for el in centralizer_and_exponents(a2)[0]:
        assert op_commutator(el.realize(rep), e) == {}


def test_bk_filtration_sl2_adjoint(a1_adj):
    rep = build_irrep(a1_adj, (1,))
    assert bk_filtration(rep, (0,)).dims == {0: 0, 1: 1}
    assert bk_filtration(rep, (1,)).dims == {0: 1}
    assert bk_filtration(rep, (-1,)).dims == {0: 0, 1: 0, 2: 1}
    assert bk_filtration(rep, (5,)).total == 0


def test_profiles_compare_only_with_profiles(a2):
    profile = bk_filtration(build_irrep(a2, (1, 1)), (0, 0))
    assert profile.__eq__(5) is NotImplemented
    assert profile != 5 and not profile == 5
    assert profile == bk_filtration(build_irrep(a2, (1, 1)), (0, 0))


def test_bk_gr_total_dimension(a2):
    rep = build_irrep(a2, (2, 2))
    profiles = bk_profile_all_weights(rep)
    total = sum(p.graded_poly().at_one() for p in profiles.values())
    assert total == rep.dim
    for p in profiles.values():
        dims = [p.dims[i] for i in sorted(p.dims)]
        assert dims == sorted(dims)
        assert dims[-1] == p.total


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


@pytest.mark.parametrize("preset", ["A2-adj", "G2", "A3-sc"])
def test_filtration_matches_the_q_analog_up_to_dimension_400(preset):
    """Criterion 4's sweep on the presets it leaves out: the kernel
    filtration of every weight space of every module of dimension <= 400
    equals the q-analog prediction."""
    datum = build_datum(preset)
    for nu in dominant_weights_with_dim_cap(datum, 400):
        rep = build_irrep(datum, nu)
        for lam, profile in bk_profile_all_weights(rep).items():
            assert profile.graded_poly() == p_bk_polynomial(datum, nu, lam), \
                (preset, nu, lam)


def test_poincare_gr(a1, a2):
    assert poincare_gr(a1, 6) == QPoly({0: 1, 2: 1, 4: 1, 6: 1})
    assert poincare_gr(a1, 0) == QPoly.one()
    # 1/((1-t^2)(1-t^4)) through t^6
    assert poincare_gr(a2, 6) == QPoly({0: 1, 2: 1, 4: 2, 6: 2})


@pytest.mark.parametrize("preset", supported_presets())
def test_poincare_gr_is_the_product_of_geometric_series(preset):
    datum = build_datum(preset)
    _, exponents = centralizer_and_exponents(datum)
    for t in (0, 1, 7, 30):
        product = product_truncated(
            [geometric_series(2 * m, t) for m in exponents], t)
        assert poincare_gr(datum, t) == product, t


def test_poincare_gr_far_out_is_the_closed_form(g2):
    """1/((1 - t^2)(1 - t^10)) has one term for each solution of
    2a + 10b = n: n // 10 + 1 of them for even n, none for odd n."""
    assert centralizer_and_exponents(g2)[1] == [1, 5]
    assert poincare_gr(g2, 100000) == QPoly(
        {n: n // 10 + 1 for n in range(0, 100001, 2)})


def test_principal_e_has_integer_entries(b2):
    rep = build_irrep(b2, (1, 0))
    for col in principal_e(rep).values():
        for v in col.values():
            assert isinstance(v, int)


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
    """The export the digests below hash reproduces the sparse operators."""
    rep = build_irrep(a2, (1, 1))
    data = json.loads(json.dumps(_export(rep)))
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
    """A build picks each weight space's Z-basis and every candidate's
    coordinates over it with one reduction, through one fraction_solve call
    (the call the benchmark's layer map records), and makes no
    elimination.  A weight space with one candidate needs no _hermite."""
    import nilcone.reps
    datum = build_datum(preset)
    lam = datum.weight_from_pairing(coords)
    calls = {"_hermite": 0, "fraction_solve": 0}

    def counted(name):
        inner = getattr(nilcone.reps, name)

        def call(*args):
            calls[name] += 1
            return inner(*args)
        return call

    def forbidden(*args):
        raise AssertionError("the build called _eliminate")
    for name in calls:
        monkeypatch.setattr(nilcone.reps, name, counted(name))
    monkeypatch.setattr(nilcone.reps, "_eliminate", forbidden)
    rep = nilcone.reps._build_irrep(datum, lam)
    below_top = len(rep.weight_spaces) - 1
    # the candidates f_i b of mu: one per basis vector b of each mu + alpha_i
    several = sum(
        sum(len(rep.weight_spaces.get(tuple(m + a for m, a in zip(mu, root)),
                                      ())) for root in datum.simple_roots) > 1
        for mu in rep.weight_spaces if mu != lam)
    assert calls == {"_hermite": several, "fraction_solve": below_top}
    assert below_top > several > 1


@pytest.mark.parametrize("column", [{0: 3, 2: -6}, {1: -2, 4: 5}, {}])
def test_one_column_matches_the_general_reduction(column):
    """One column is its own basis, positive at its first row, and
    fraction_solve gives it coordinate +1 or -1 without back-substitution:
    exactly what the general path returns, here run by padding the column
    with a zero column, which it skips."""
    assert _hermite([column]) == _hermite([column, {}])
    basis, coords = fraction_solve([column])
    general_basis, general_coords = fraction_solve([column, {}])
    assert (basis, coords) == (general_basis, general_coords[:1])
    assert all(type(v) is int for x in coords for v in x.values())


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.integers(0, 5),
                       st.integers(-9, 9).filter(bool), max_size=4))
@example({})
def test_one_column_elimination_matches_the_general_loop(column):
    """_eliminate and fraction_solve return for one column, zero or not,
    exactly what their general loops return for it.  The general loops run
    on the column padded with a zero column; columns are reduced in order,
    so the padding leaves the first column's results alone, and in kernel
    mode it only adds its own kernel vector, last, and a last coordinate."""
    kept, kernel = _eliminate([column, {}])
    assert _eliminate([column]) == (kept, kernel) == \
        (({0: column} if column else {}), [])
    kept, kernel = _eliminate([column, {}], 6)
    assert kernel[-1] == [0, 1]
    assert _eliminate([column], 6) == (kept, [v[:1] for v in kernel[:-1]])
    basis, coords = fraction_solve([column, {}])
    assert fraction_solve([column]) == (basis, coords[:1])


def test_module_keeps_its_principal_nilpotent():
    """The builder writes every column of e = sum of the e_i once, as
    rep.e: it is the entrywise sum of e_ops on every module of dimension
    <= 60 of every preset.  validate never reads rep.e, but the layer rows,
    the slice strings and the centralizer do."""
    for name in supported_presets():
        datum = build_datum(name)
        for lam in dominant_weights_with_dim_cap(datum, 60):
            rep = build_irrep(datum, lam)
            total = {}
            for op in rep.e_ops:
                for c, col in op.items():
                    column = total.setdefault(c, {})
                    for r, v in col.items():
                        column[r] = column.get(r, 0) + v
            total = {c: {r: v for r, v in col.items() if v}
                     for c, col in total.items()}
            total = {c: col for c, col in total.items() if col}
            assert rep.e == total, (name, lam)


def test_principal_e_is_a_copy(b2):
    """Changing what principal_e returns changes neither the module's e
    nor its kernel filtrations."""
    rep = build_irrep(b2, (1, 1))
    before = {c: dict(col) for c, col in rep.e.items()}
    e = principal_e(rep)
    for col in e.values():
        col.clear()
    e[0] = {0: 5}
    assert rep.e == before == principal_e(rep)
    profiles = bk_profile_all_weights(rep)
    assert profiles == bk_profile_all_weights(build_irrep(b2, (1, 1)))
    assert all(p.graded_poly() == p_bk_polynomial(b2, (1, 1), w)
               for w, p in profiles.items())


def test_centralizer_lists_are_fresh(a2):
    """Changing the lists centralizer_and_exponents returns changes
    neither its next result nor poincare_gr, which reads the exponents."""
    series = poincare_gr(a2, 6)
    elements, exponents = centralizer_and_exponents(a2)
    elements.pop()
    exponents.append(1)
    assert centralizer_and_exponents(a2)[1] == [1, 2]
    assert len(centralizer_and_exponents(a2)[0]) == 2
    assert poincare_gr(a2, 6) == series


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
            export = _export(build_irrep(datum, lam))
            digest.update(json.dumps(export, sort_keys=True).encode())
            count += 1
    assert count == 174
    assert digest.hexdigest() == _EXPORTS_UP_TO_60


# sha256 over _export of every module of the benchmark's filtration-sweep
# pool: dimension <= 120 on A1-sc, A2-sc and B2-sc, 200 modules
_FILTRATION_POOL_EXPORTS = \
    "04ae9e2d2e71ad2e87a954550d4377b09f574a759f7ececd1ed9b4ce99939791"


def test_exports_are_byte_identical_on_the_filtration_sweep_pool():
    digest = hashlib.sha256()
    count = 0
    for name in ("A1-sc", "A2-sc", "B2-sc"):
        datum = build_datum(name)
        for lam in dominant_weights_with_dim_cap(datum, 120):
            export = _export(build_irrep(datum, lam))
            digest.update(json.dumps(export, sort_keys=True).encode())
            count += 1
    assert count == 200
    assert digest.hexdigest() == _FILTRATION_POOL_EXPORTS


# sha256 over _layer_rows of every module of the filtration-sweep pool, each
# row by sorted entries.  Equal profiles would not show a row rescaled.
_FILTRATION_POOL_LAYER_ROWS = \
    "c6894154dd5c2f23f170d1999d1a067ec82256fef706d7d8ca316a4b7c5139b9"


def test_layer_rows_are_byte_identical_on_the_filtration_sweep_pool():
    digest = hashlib.sha256()
    count = 0
    for name in ("A1-sc", "A2-sc", "B2-sc"):
        datum = build_datum(name)
        for lam in dominant_weights_with_dim_cap(datum, 120):
            rows = _layer_rows(build_irrep(datum, lam))
            digest.update(json.dumps(
                [[d, [[label, sorted(row.items())] for label, row in layer]]
                 for d, layer in sorted(rows.items())]).encode())
            count += 1
    assert count == 200
    assert digest.hexdigest() == _FILTRATION_POOL_LAYER_ROWS


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


_SETTINGS = settings(max_examples=150)


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
    """The centralizer's kernel: a basis of the reference kernel's span.
    _eliminate takes integer columns, so the rational matrix goes in
    multiplied by the lcm of its denominators, which keeps the kernel."""
    rows, ncols = matrix
    scale = lcm(*(x.denominator for row in rows for x in row))
    scaled = [[int(x * scale) for x in row] for row in rows]
    kept, kernel = _eliminate(_sparse_columns(scaled, ncols), len(rows))
    reference = _reference_kernel(rows, ncols)
    assert len(kept) == ncols - len(reference)
    assert len(kernel) == len(reference)
    for vec in kernel:
        assert all(isinstance(x, int) for x in vec)
        assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in rows)
    if kernel:
        assert len(_gauss_jordan(kernel, ncols)[1]) == len(kernel)
        assert len(_gauss_jordan(kernel + reference, ncols)[1]) == len(kernel)


@_SETTINGS
@given(_matrices(st.integers(-12, 12)))
def test_reductions_leave_the_callers_columns_alone(matrix):
    """_eliminate scales, reduces and divides a column in place, on a copy
    it takes at the column's first reduction; int_columns_rank and
    fraction_solve reduce copies too.  So every input column stays equal
    to a deep copy taken before the call, here with the first column
    passed twice, so that a column meets itself as a pivot, and the
    results still agree with Gauss-Jordan."""
    rows, ncols = matrix
    columns = _sparse_columns(rows, ncols)
    columns.append(columns[0])
    before = deepcopy(columns)
    rank = len(_gauss_jordan(rows, ncols)[1])
    assert len(_eliminate(columns)[0]) == rank
    assert columns == before
    kept, kernel = _eliminate(columns, len(rows))
    assert columns == before
    assert len(kept) == rank and len(kernel) == ncols + 1 - rank
    for vec in kernel:
        assert all(sum(c.get(r, 0) * x for c, x in zip(columns, vec)) == 0
                   for r in range(len(rows)))
    assert int_columns_rank(columns) == rank
    assert columns == before
    assert len(fraction_solve(columns)[0]) == rank
    assert columns == before


@settings(max_examples=40)
@given(preset=st.sampled_from(supported_presets()),
       pairings=st.lists(st.integers(0, 2), min_size=6, max_size=6))
def test_tensor_decompose_leaves_the_memoised_characters_alone(preset,
                                                               pairings):
    """tensor_decompose and restrict_to_levi read the memoised characters
    in place, and the Brauer-Klimyk walk changes none of them."""
    import nilcone.characters as ch
    datum = build_datum(preset)
    try:
        lam, mu = (datum.weight_from_pairing(tuple(p[:datum.rank]))
                   for p in (pairings[:3], pairings[3:]))
    except DomainError:
        return
    chars = [ch._character(datum, w) for w in (lam, mu)]
    before = deepcopy(chars)
    tensor_decompose(datum, lam, mu)
    restrict_to_levi(datum, (0,), lam)
    assert [ch._character(datum, w) for w in (lam, mu)] == before
    assert all(ch._character(datum, w) is c for w, c in zip((lam, mu), chars))


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


# Every functools.lru_cache in nilcone, by qualified name, with its maxsize.
# A new memo is listed here and justified in CHANGES.md with its hit counts.
_MEMOS = {
    "nilcone.characters._character": None,
    "nilcone.characters._dominant_mults": None,
    "nilcone.characters._restrict": None,
    "nilcone.characters._tensor": 2048,
    "nilcone.homspaces._kostant_pair": 2048,
    "nilcone.homspaces._strings": None,
    "nilcone.qanalog._orbit_q_analog": 64,
    "nilcone.qanalog._q_analog": 64,
    "nilcone.qanalog._q_kostant": None,
    "nilcone.reps._layer_rows": 1,
    "nilcone.reps._centralizer_and_exponents": None,
    "nilcone.roots._build_datum": None,
    "nilcone.sl2._convolve_recursive": None,
}


def test_every_memo_is_an_lru_cache(a2):
    """No module binds a mutable table apart from two constant ones, and a
    built module carries only the attributes MatrixRep.__init__ sets, so
    every in-memory memo is a functools.lru_cache; those are exactly
    _MEMOS, with the sizes listed there."""
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
    bk_profile_all_weights(rep)
    principal_e(rep)
    centralizer_and_exponents(a2)[0][0].realize(rep)
    fresh = MatrixRep(rep.datum, rep.highest_weight, rep.basis, rep.e_ops,
                      rep.f_ops, rep.e)
    assert set(vars(rep)) == set(vars(fresh))
    memos = {}
    for name, module in list(sys.modules.items()):
        if name == "nilcone" or name.startswith("nilcone."):
            for value in vars(module).values():
                owned = vars(value).values() if isinstance(value, type) else ()
                for fn in (value, *owned):
                    if hasattr(fn, "cache_parameters"):
                        memos["%s.%s" % (fn.__module__, fn.__qualname__)] = \
                            fn.cache_parameters()["maxsize"]
    assert memos == _MEMOS


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
               "_brauer"}
    assert not names & foreign, sorted(names & foreign)


def _code_names(code):
    """{qualified name: names read} for code and every code object in it.

    Each dotted name is built while walking the nested code objects, as
    co_qualname spells it (which Python 3.10 lacks): the children of a
    function or lambda sit under "<name>.<locals>.", those of a class body
    or a comprehension under "<name>.", and the module's at the top level."""
    out = {}
    codes = [(code.co_name, code)]
    while codes:
        name, code = codes.pop()
        out[name] = set(code.co_names)
        if code.co_name == "<module>":
            prefix = ""
        elif code.co_flags & CO_NEWLOCALS and code.co_name not in (
                "<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"):
            prefix = name + ".<locals>."
        else:
            prefix = name + "."
        codes.extend((prefix + c.co_name, c) for c in code.co_consts
                     if hasattr(c, "co_names"))
    return out


def test_integer_models_stay_integer():
    """Every module of the library is ints end to end: none imports
    fractions, names Fraction or reads a numerator or a denominator, and
    none holds a Fraction once imported."""
    import importlib
    import nilcone
    package = os.path.dirname(nilcone.__file__)
    names = sorted(f[:-3] for f in os.listdir(package) if f.endswith(".py"))
    assert {"errors", "roots", "qanalog", "reps", "homspaces"} <= set(names)
    foreign = {"fractions", "Fraction", "numerator", "denominator"}
    for name in names:
        path = os.path.join(package, name + ".py")
        with open(path) as handle:
            code = _code_names(compile(handle.read(), path, "exec"))
        readers = sorted(qualname for qualname, read in code.items()
                         if read & foreign)
        assert not readers, (name, readers)
        module = importlib.import_module("nilcone." + name)
        assert not any(value is Fraction for value in vars(module).values())


# -- the kernel filtration against a naive walk of e^k ------------------------

def _reference_filtration(rep, lam):
    """dims[i] = dim ker e^(i+1) on V_lam, from the Fraction operator e
    applied i + 1 times to each basis vector of V_lam and the rank of the
    images by Gauss-Jordan, up to the first i where the kernel is V_lam."""
    e = principal_e(rep)
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


# one module of dimension 28-64 per rank-2 preset, by pairing coordinates,
# whose principal-degree layers hold several weight spaces each
_WIDE_LAYER_MODULES = {"A2-sc": (3, 2), "A2-adj": (4, 1), "B2-sc": (2, 1),
                       "G2": (1, 1)}


@pytest.mark.parametrize("preset", ["A1-sc", "A1-adj", "A2-sc", "A2-adj",
                                    "B2-sc", "G2", "A3-sc"])
def test_bk_filtration_matches_naive_walk(preset):
    datum = build_datum(preset)
    modules = dominant_weights_with_dim_cap(datum, 27)
    if preset in _WIDE_LAYER_MODULES:
        wide = datum.weight_from_pairing(_WIDE_LAYER_MODULES[preset])
        assert 28 <= weyl_dimension(datum, wide) <= 64
        modules.append(wide)
    for nu in modules:
        rep = build_irrep(datum, nu)
        for lam in rep.weight_spaces:
            profile = bk_filtration(rep, lam)
            assert profile.dims == _reference_filtration(rep, lam), \
                (preset, nu, lam)
            assert list(profile.dims) == sorted(profile.dims)
            assert profile.total == len(rep.weight_spaces[lam])
            steps = {i: d - profile.dims.get(i - 1, 0)
                     for i, d in profile.dims.items()}
            assert profile.graded_poly() == QPoly(steps), (preset, nu, lam)


@pytest.mark.parametrize("preset,pairing", [
    ("A2-sc", (2, 1)), ("B2-sc", (2, 1)), ("G2", (1, 1)), ("A3-sc", (1, 1, 1))])
def test_layer_rows_complete_only_the_unled_indices(preset, pairing,
                                                     monkeypatch):
    """Layer d hands _eliminate the rows of layer d + 2 after e, less those
    e kills, plus one coordinate row of e per index of layer d + 2 that
    leads no row kept there."""
    datum = build_datum(preset)
    rep = build_irrep(datum, datum.weight_from_pairing(pairing))
    handed = []

    def counted(columns, nrows=None):
        handed.append(len(columns))
        return _eliminate(columns, nrows)
    monkeypatch.setattr(reps, "_eliminate", counted)
    rows = _layer_rows.__wrapped__(rep)
    e_rows = op_transpose(principal_e(rep))
    layers = sorted(rep.layers, reverse=True)
    assert len(handed) == len(layers)
    for d, count in zip(layers, handed):
        above = rows.get(d + 2, [])
        pushed = [row for _, row in above if op_apply(e_rows, row)]
        unled = len(rep.layers.get(d + 2, ())) - len(above)
        assert count == len(pushed) + unled, d


def test_ranks_stop_at_full_rank(monkeypatch):
    """Each weight space ranks its rows from the top label down and stops
    at the first label whose rank is its dimension: every lower label's
    rows include those rows."""
    datum = build_datum("B2-sc")
    rep = build_irrep(datum, datum.weight_from_pairing((2, 3)))
    rows = _layer_rows(rep)
    handed = []

    def counted(columns):
        rank = int_columns_rank(columns)
        handed.append((len(columns), rank))
        return rank
    monkeypatch.setattr(reps, "int_columns_rank", counted)
    skipped = 0
    for lam, cols in rep.weight_spaces.items():
        restricted = [(label, {c: row[c] for c in cols if c in row})
                      for label, row in rows[datum.pair_2rho_check(lam)]]
        labels = sorted({label for label, part in restricted if part},
                        reverse=True)
        expected = []
        for label in labels:
            above = [part for lb, part in restricted if part and lb >= label]
            expected.append((len(above), int_columns_rank(above)))
            if expected[-1][1] == len(cols):
                break
        skipped += len(labels) - len(expected)
        handed.clear()
        bk_filtration(rep, lam)
        assert handed == expected, lam
    assert skipped > 0


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
