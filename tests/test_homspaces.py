import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from nilcone.errors import DomainError, ResourceError
from nilcone.qpoly import QPoly
from nilcone.roots import build_datum, supported_presets
from nilcone.characters import weyl_dimension, irreducible_character
from nilcone.qanalog import hilbert_series_nilcone
from nilcone.reps import (build_irrep, principal_e, op_commutator,
                          centralizer_and_exponents, poincare_gr, MatrixRep)
import nilcone.homspaces as homspaces
from nilcone.homspaces import (free_object, structure_sheaf,
                               hom_profile_kostant, hom_profile_slice,
                               adjunction_check,
                               orlov_axiom_check, orlov_degree_hom,
                               mixed_shift, levi_pullback, profile_to_json,
                               same_center_component)

from conftest import dominant_weights_with_dim_cap


def test_hom_structure_sheaf_endomorphisms(a1_adj):
    table = hom_profile_kostant(a1_adj, structure_sheaf(a1_adj),
                                structure_sheaf(a1_adj))
    assert table == {(0, 0): 1}


def test_hom_into_adjoint(a1_adj):
    v_adj = free_object([((1,), 0)])
    assert hom_profile_kostant(a1_adj, structure_sheaf(a1_adj), v_adj) == \
        {(0, 2): 1}
    table = hom_profile_kostant(a1_adj, v_adj, v_adj)
    assert table == {(0, 0): 1, (0, 2): 1, (0, 4): 1}
    assert table[(0, 0)] == 1  # degree-zero part is scalars


def test_center_component_vanishing(a1):
    v = free_object([((1,), 0)])
    assert hom_profile_kostant(a1, structure_sheaf(a1), v) == {}
    assert hom_profile_slice(a1, structure_sheaf(a1), v) == {}
    assert not same_center_component(a1, (1,), (0,))
    assert same_center_component(a1, (3,), (1,))


SLICE_POOLS = [("A1-sc", 60), ("A1-adj", 60), ("A2-sc", 60), ("B2-sc", 40),
               ("A2-adj", 400), ("G2", 400), ("A3-sc", 400)]


@pytest.mark.parametrize("preset,cap", SLICE_POOLS)
def test_dual_route_agreement(preset, cap):
    datum = build_datum(preset)
    weights = dominant_weights_with_dim_cap(datum, cap)
    pairs = [(lam, mu) for lam in weights for mu in weights
             if weyl_dimension(datum, lam) * weyl_dimension(datum, mu) <= cap]
    assert pairs
    for lam, mu in pairs:
        src = free_object([(lam, 0)])
        tgt = free_object([(mu, 0)])
        assert hom_profile_kostant(datum, src, tgt) == \
            hom_profile_slice(datum, src, tgt), (lam, mu)


def test_dimension_cap_holds_for_cached_slice_pairs(a2):
    v = free_object([((2, 2), 0)])
    assert hom_profile_slice(a2, v, v)
    with pytest.raises(ResourceError):
        hom_profile_slice(a2, v, v, dim_cap=10)


def test_kostant_pair_memo_sits_behind_validation(a2):
    """A summand weight spelled with a float or a Fraction is equal and
    hash-equal to its int spelling, so the pair memo would answer it; the
    Kostant route checks every weight first, as the slice route does,
    also when the other object is empty."""
    v = free_object([((1, 0), 0)])
    assert hom_profile_kostant(a2, v, v) == {(0, 0): 1, (0, 2): 1, (0, 4): 1}
    for bad in ((1.0, 0), (Fraction(1), 0)):
        odd = [(bad, 0)]
        for source, target in ((odd, v), (v, odd), ((), odd), (odd, ())):
            with pytest.raises(DomainError):
                hom_profile_kostant(a2, source, target)
            with pytest.raises(DomainError):
                hom_profile_slice(a2, source, target)


def _count_builds(monkeypatch):
    """The highest weight of every module built from now on: each build
    ends with one MatrixRep.validate."""
    builds = []
    validate = MatrixRep.validate

    def counted(rep):
        builds.append(rep.highest_weight)
        return validate(rep)
    monkeypatch.setattr(MatrixRep, "validate", counted)
    return builds


def test_slice_route_builds_each_module_once(monkeypatch):
    """Each module of the A2-sc dual-route pool is built once, plus the
    adjoint module for the centralizer, however the pairs are ordered."""
    datum = build_datum("A2-sc")
    weights = dominant_weights_with_dim_cap(datum, 60)
    pairs = [(lam, mu) for lam in weights for mu in weights
             if weyl_dimension(datum, lam) * weyl_dimension(datum, mu) <= 60]
    homspaces._strings.cache_clear()
    builds = _count_builds(monkeypatch)
    for lam, mu in pairs:
        hom_profile_slice(datum, free_object([(lam, 0)]),
                          free_object([(mu, 0)]))
    distinct = {w for pair in pairs for w in pair}
    assert len(builds) <= len(distinct) + 1


def test_slice_route_checks_every_cap_before_building(a2, monkeypatch):
    """A summand over the cap raises even when no pair of the two objects
    shares a central character, and nothing is built."""
    builds = _count_builds(monkeypatch)
    big = free_object([((9, 9), 0)])
    small = free_object([((1, 0), 0)])
    assert not same_center_component(a2, (9, 9), (1, 0))
    for source, target in ((big, small), (small, big)):
        with pytest.raises(ResourceError):
            hom_profile_slice(a2, source, target, dim_cap=50)
    with pytest.raises(DomainError):
        hom_profile_slice(a2, free_object([((-1, 0), 0)]), small)
    assert len(builds) == 0


@pytest.mark.parametrize("preset", supported_presets())
def test_f_completes_the_principal_sl2(preset):
    """sum c_i alpha_i-check is 2 rho-check, so [e, sum c_i f_i] acts on
    each basis vector by its principal degree."""
    datum = build_datum(preset)
    c = homspaces._f_coefficients(datum)
    assert all(isinstance(ci, int) and ci > 0 for ci in c)
    two_rho_check = tuple(sum(r.coroot[k] for r in datum.positive_roots())
                          for k in range(datum.weight_dim))
    assert tuple(sum(ci * co[k] for ci, co in zip(c, datum.simple_coroots))
                 for k in range(datum.weight_dim)) == two_rho_check
    rep = build_irrep(datum, datum.highest_root().weight)
    f = {}
    for ci, op in zip(c, rep.f_ops):
        for b, col in op.items():
            column = f.setdefault(b, {})
            for r, v in col.items():
                column[r] = column.get(r, 0) + ci * v
    h = {b: {b: d} for d, idxs in rep.layers.items() if d for b in idxs}
    assert op_commutator(principal_e(rep), f) == h


@settings(max_examples=40)
@given(preset=st.sampled_from(["A1-sc", "A2-sc", "B2-sc", "G2"]),
       pairing=st.lists(st.integers(0, 4), min_size=2, max_size=2))
def test_strings_match_the_layer_dimensions(preset, pairing):
    """The principal sl2 strings of V_lam have lengths adding up to dim
    V_lam, and dim(layer d) - dim(layer d - 2) of them start in each layer
    d <= 0; both dimensions are read from the character."""
    datum = build_datum(preset)
    lam = datum.weight_from_pairing(tuple(pairing[:datum.rank]))
    dim = weyl_dimension(datum, lam)
    assume(dim <= 100)
    bottoms, _ = homspaces._strings(datum, lam)
    assert sum(1 - d for d in bottoms) == dim
    layers = Counter()
    for w, m in irreducible_character(datum, lam).items():
        layers[datum.pair_2rho_check(w)] += m
    starts = Counter(bottoms)
    assert set(starts) <= {d for d in layers if d <= 0}
    for d in layers:
        if d <= 0:
            assert starts[d] == layers[d] - layers[d - 2], (d, starts)


# sha256 over homspaces._strings of every module of the benchmark's
# hom-routes pool: every dominant weight of dimension <= 150 on A1-adj and
# A2-sc (the pool's stretch pairs stay within it), 142 modules.  Equal Hom
# tables would not show a lowest vector or an image row rescaled.
_HOM_POOL_STRINGS = \
    "841fe66c4270fa1c02b2cf28ac79ef84dd2b44334db5b8a375aa4b6be4c51162"


def test_strings_are_byte_identical_on_the_hom_routes_pool():
    digest = hashlib.sha256()
    count = 0
    for name in ("A1-adj", "A2-sc"):
        datum = build_datum(name)
        for lam in dominant_weights_with_dim_cap(datum, 150):
            digest.update(json.dumps(
                [name, list(lam), homspaces._strings(datum, lam)]).encode())
            count += 1
    assert count == 142
    assert digest.hexdigest() == _HOM_POOL_STRINGS


def test_slice_route_on_a_large_pair(a2):
    """A2-sc V(4, 4) -> V(4, 4): 1,221 unknowns over the strings (15,625
    cells before), the same profile as the Kostant route."""
    v = free_object([((4, 4), 0)])
    table = hom_profile_slice(a2, v, v)
    assert table == hom_profile_kostant(a2, v, v)
    assert sum(table.values()) == 325


def test_rank_one_slice_route_still_ranks(a1_adj, monkeypatch):
    """On rank one no centralizer element of degree > 2 is left, so every
    system has no equations; the route still ranks each one."""
    calls = []
    rank = homspaces.int_columns_rank

    def counted(columns):
        calls.append(len(columns))
        return rank(columns)
    monkeypatch.setattr(homspaces, "int_columns_rank", counted)
    table = hom_profile_slice(a1_adj, structure_sheaf(a1_adj),
                              free_object([((1,), 0)]))
    assert table == {(0, 2): 1}
    assert calls == [0]


def test_dual_route_multi_summand_with_shifts(a2):
    src = free_object([((1, 0), 0), ((0, 0), 2)])
    tgt = free_object([((1, 0), -2), ((1, 1), 0)])
    k = hom_profile_kostant(a2, src, tgt)
    s = hom_profile_slice(a2, src, tgt)
    assert k == s and k


def test_profile_internal_keying(a1_adj):
    v = free_object([((1,), 5)])
    o = free_object([((0,), 2)])
    assert hom_profile_kostant(a1_adj, o, v) == {(3, 2): 1}


def test_adjunction_examples(a1_adj, a2):
    assert adjunction_check(a1_adj, (1,), (1,))
    assert adjunction_check(a2, (0, 0), (2, 1))
    assert adjunction_check(a2, (1, 0), (0, 1))
    assert adjunction_check(a2, (1, 1), (1, 0))


def test_adjunction_check_compares_both_argument_orders(a2, monkeypatch):
    """The left side decomposes V_mu tensor V_lam^*, the right side
    V_lam^* tensor V_mu, so a tensor_decompose that is wrong in one
    argument order only (here: whenever its first factor is the smaller)
    fails the check.  The pair memo is cleared on both sides of the test,
    so no entry computed under the wrong decomposition outlives it."""
    lam, mu = (1, 1), (2, 2)
    assert weyl_dimension(a2, lam) < weyl_dimension(a2, mu)
    assert adjunction_check(a2, lam, mu)
    right = homspaces.tensor_decompose

    def one_order_wrong(datum, first, second):
        out = dict(right(datum, first, second))
        if weyl_dimension(datum, first) < weyl_dimension(datum, second):
            out[max(out)] += 1
        return out
    homspaces._kostant_pair.cache_clear()
    try:
        monkeypatch.setattr(homspaces, "tensor_decompose", one_order_wrong)
        assert not adjunction_check(a2, lam, mu)
    finally:
        homspaces._kostant_pair.cache_clear()


ORLOV_PRESETS = ["A1-sc", "A1-adj", "A2-sc", "A2-adj", "A3-sc", "B2-sc", "G2"]


@pytest.mark.parametrize("preset", ORLOV_PRESETS)
def test_orlov_axioms_random(preset):
    datum = build_datum(preset)
    rng = random.Random(20260808)
    weights = dominant_weights_with_dim_cap(datum, 50)
    for _ in range(200):
        lam = rng.choice(weights)
        mu = rng.choice(weights)
        i = rng.randint(-6, 6)
        j = rng.randint(-6, 6)
        assert orlov_axiom_check(datum, lam, mu, i, j), (lam, mu, i, j)


def test_orlov_diagonal_dimension(a2):
    assert orlov_degree_hom(a2, (1, 0), (1, 0), 3, 3) == 1
    assert orlov_degree_hom(a2, (1, 0), (0, 1), 3, 3) == 0
    assert orlov_degree_hom(a2, (1, 0), (1, 0), 0, 1) == 0   # odd gap
    assert orlov_degree_hom(a2, (1, 0), (1, 0), 0, 2) == 0   # wrong sign
    # admissible gap matches the full profile entry
    v = free_object([((1, 1), 0)])
    o = structure_sheaf(a2)
    table = hom_profile_kostant(a2, o, v)
    assert orlov_degree_hom(a2, (0, 0), (1, 1), 0, -2) == table[(0, 2)]
    # both weights are checked before the diagonal or the gap decides
    for lam in ((-1, 0), (9, 9, 9), (1.0, 0)):
        for i, j in ((3, 3), (2, 0), (0, 1)):
            with pytest.raises(DomainError):
                orlov_degree_hom(a2, lam, lam, i, j)
            with pytest.raises(DomainError):
                orlov_axiom_check(a2, lam, (1, 0), i, j)
            with pytest.raises(DomainError):
                orlov_axiom_check(a2, (1, 0), lam, i, j)


def test_orlov_check_fails_on_a_wrong_profile(a2, monkeypatch):
    """Every slot the axioms claim (i = j, an odd or a negative gap i - j)
    is compared with the Kostant profile, so a wrong profile fails."""
    monkeypatch.setattr(homspaces, "hom_profile_kostant",
                        lambda *args: {(0, 0): 99, (-2, 2): 7})
    for lam, mu in (((1, 0), (1, 0)), ((1, 0), (0, 1)), ((1, 1), (0, 0))):
        assert not orlov_axiom_check(a2, lam, mu, 3, 3), (lam, mu)
    monkeypatch.setattr(homspaces, "hom_profile_kostant",
                        lambda *args: {(-1, 1): 1, (2, -2): 1})
    assert not orlov_axiom_check(a2, (1, 0), (1, 0), 1, 0)   # odd gap
    assert not orlov_axiom_check(a2, (1, 0), (1, 0), 0, 2)   # negative gap


@pytest.mark.parametrize("degree", [1.5, Fraction(3, 2), 0.9, "x", True,
                                    None])
def test_free_object_rejects_non_int_degrees(degree, a2):
    """A degree is never truncated or coerced: anything but an int (bools
    excluded) is a domain error, also where a Hom route or an Orlov check
    is handed the raw summands."""
    assert free_object([((1, 0), 2), ((0, 0), -1)]) == \
        (((0, 0), -1), ((1, 0), 2))
    with pytest.raises(DomainError):
        free_object([((1, 0), degree)])
    raw = [((1, 0), degree)]
    for route in (hom_profile_kostant, hom_profile_slice):
        with pytest.raises(DomainError):
            route(a2, raw, raw)
    for check in (orlov_degree_hom, orlov_axiom_check):
        with pytest.raises(DomainError):
            check(a2, (1, 0), (1, 0), degree, degree)
        with pytest.raises(DomainError):
            check(a2, (1, 0), (1, 0), 2, degree)


@pytest.mark.parametrize("summand", [(1, 0), ((1, 0), 0, 0), ((1, 0),), 5,
                                     None])
def test_free_object_rejects_malformed_summands(summand):
    """A summand that is not a (weight, degree) pair is a domain error."""
    with pytest.raises(DomainError):
        free_object([((0, 0), 0), summand])


def test_profile_finite_support(b2):
    v = free_object([((1, 1), 0)])
    table = hom_profile_kostant(b2, v, v)
    assert len(table) < 40
    assert all(k >= 0 and k % 2 == 0 for (_, k) in table)


def test_mixed_shift_bookkeeping(a2):
    v = free_object([((1, 0), 0), ((1, 0), 2)])
    assert mixed_shift(v, 3) == free_object([((1, 0), 3), ((1, 0), 5)])
    assert mixed_shift(v, 0) == v
    assert mixed_shift(mixed_shift(v, 1), -1) == v


def test_profile_shift_invariance(a2):
    src = free_object([((1, 0), 0), ((0, 1), 1)])
    tgt = free_object([((1, 1), 0)])
    base = hom_profile_kostant(a2, src, tgt)
    for n in (-2, 1, 5):
        assert hom_profile_kostant(a2, mixed_shift(src, n),
                                   mixed_shift(tgt, n)) == base


def test_levi_pullback_examples(a2):
    o = structure_sheaf(a2)
    assert levi_pullback(a2, (0,), o) == \
        free_object([((0, 0), 0)])
    pulled = levi_pullback(a2, (0,), free_object([((1, 0), 3)]))
    levi = a2.levi((0,))
    dims = sorted(weyl_dimension(levi, w) for w, _ in pulled)
    assert dims == [1, 2]
    assert all(i == 3 for _, i in pulled)


def test_levi_pullback_commutes_with_shift(a2):
    v = free_object([((1, 1), 0), ((1, 0), -1)])
    lhs = levi_pullback(a2, (1,), mixed_shift(v, 4))
    rhs = mixed_shift(levi_pullback(a2, (1,), v), 4)
    assert lhs == rhs


def _collapsed(table):
    """A Hom profile with its cohomological grading summed out per
    internal key."""
    out = Counter()
    for (delta, _), v in table.items():
        out[delta] += v
    return {k: v for k, v in out.items() if v}


@pytest.mark.parametrize("preset", ["A1-sc", "A1-adj", "A2-sc"])
def test_pullback_functoriality_collapsed(preset):
    # forgetting the grading, pullback to any Levi preserves Hom dimensions
    datum = build_datum(preset)
    weights = dominant_weights_with_dim_cap(datum, 12)
    subsets = [()]
    if datum.rank >= 2:
        subsets.append((0,))
    levis = [(s, datum.levi(s)) for s in subsets]
    for lam in weights:
        for mu in weights:
            src = free_object([(lam, 0)])
            tgt = free_object([(mu, 0)])
            g_profile = hom_profile_kostant(datum, src, tgt)
            for subset, levi in levis:
                l_profile = hom_profile_kostant(
                    levi, levi_pullback(datum, subset, src),
                    levi_pullback(datum, subset, tgt))
                assert _collapsed(l_profile) == _collapsed(g_profile), \
                    (lam, mu, subset)


def test_pullback_to_torus_concentrated_in_degree_zero(a2):
    src = free_object([((1, 1), 0)])
    torus = a2.levi(())
    l_profile = hom_profile_kostant(torus, levi_pullback(a2, (), src),
                                    levi_pullback(a2, (), src))
    assert set(k for (_, k) in l_profile) == {0}
    g_profile = hom_profile_kostant(a2, src, src)
    assert l_profile[(0, 0)] == sum(g_profile.values())


@pytest.mark.parametrize("preset", supported_presets())
def test_torus_has_no_centralizer_and_a_trivial_nilcone(preset):
    """A torus has no roots: no centralizer elements or exponents, the
    series 1 on both graded routes, and Hom(V_0, V_0) in degree 0 only;
    asked for its highest root, it raises a DomainError."""
    torus = build_datum(preset).levi(())
    with pytest.raises(DomainError):
        torus.highest_root()
    assert centralizer_and_exponents(torus) == ([], [])
    assert poincare_gr(torus, 6) == QPoly.one()
    assert hilbert_series_nilcone(torus, 6) == QPoly.one()
    zero = structure_sheaf(torus)
    assert hom_profile_slice(torus, zero, zero) == {(0, 0): 1}
    assert hom_profile_kostant(torus, zero, zero) == {(0, 0): 1}


def test_slice_route_on_a_levi_of_type_a1_a1(a3):
    """The A3-sc Levi (0, 2) has two degree-2 centralizer elements, e_0
    and e_2, neither a multiple of e; the slice route imposes both."""
    levi = a3.levi((0, 2))
    elements, exponents = centralizer_and_exponents(levi)
    assert exponents == [1, 1]
    assert sorted(el.coeffs for el in elements) == [(0, 1), (1, 0)]
    weights = [(0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1), (2, 0, 1),
               (0, 1, 0), (2, 1, 2)]
    for lam in weights:
        for mu in weights:
            src = free_object([(lam, 0)])
            tgt = free_object([(mu, 1)])
            assert hom_profile_slice(levi, src, tgt) == \
                hom_profile_kostant(levi, src, tgt), (lam, mu)
    v = free_object([((1, 0, 1), 0)])
    assert hom_profile_slice(levi, v, v) == {(0, 0): 1, (0, 2): 2, (0, 4): 1}


def test_levi_pullbacks_agree_on_both_routes():
    """On every proper Levi of every preset, the torus included, the slice
    route equals the Kostant route on the pullbacks of the weights of
    dimension <= 20.  Both routes sum a table over the summand pairs, so
    each pair of summands met in those pullbacks is compared once, and the
    pulled-back objects themselves are compared too."""
    for preset in supported_presets():
        datum = build_datum(preset)
        weights = dominant_weights_with_dim_cap(datum, 20)
        subsets = [s for r in range(datum.rank)
                   for s in combinations(range(datum.rank), r)]
        for subset in subsets:
            levi = datum.levi(subset)
            pulled = {lam: levi_pullback(datum, subset,
                                         free_object([(lam, 0)]))
                      for lam in weights}
            summands = sorted({nu for obj in pulled.values()
                               for nu, _ in obj})
            for nu in summands:
                for kappa in summands:
                    src = free_object([(nu, 0)])
                    tgt = free_object([(kappa, 0)])
                    assert hom_profile_slice(levi, src, tgt) == \
                        hom_profile_kostant(levi, src, tgt), \
                        (preset, subset, nu, kappa)
            for src in pulled.values():
                for tgt in pulled.values():
                    assert hom_profile_slice(levi, src, tgt) == \
                        hom_profile_kostant(levi, src, tgt), \
                        (preset, subset, src, tgt)


def test_profile_json_shape(a1_adj):
    v = free_object([((1,), 0)])
    table = hom_profile_kostant(a1_adj, v, v)
    blob = profile_to_json(v, v, table)
    assert blob["entries"] == sorted(blob["entries"],
                                     key=lambda e: (e["internal"], e["cohomological"]))
    assert all(set(e) == {"internal", "cohomological", "dim"}
               for e in blob["entries"])
