from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from nilcone.errors import DomainError
from nilcone.qpoly import QPoly
from nilcone.roots import build_datum, supported_presets
from nilcone.characters import weight_multiplicity, irreducible_character
from nilcone.qanalog import (q_kostant, lusztig_q_analog, p_bk_polynomial,
                             graded_mult_in_nilcone, hilbert_series_nilcone,
                             hilbert_series_complete_intersection,
                             dominant_weights_by_pairing)


def test_qpoly_basics():
    p = QPoly({2: 1}) + QPoly({0: 1})
    assert p * p == QPoly({4: 1, 2: 2, 0: 1})
    assert (p - p).is_zero()
    assert QPoly({-1: 3}).shifted(2) == QPoly({1: 3})
    assert p.at_one() == 2
    assert str(QPoly({1: 1, 2: 1})) == "q + q^2"


def test_q_kostant_examples(a1, a2):
    zero = (0, 0)
    assert q_kostant(a2, zero) == QPoly.one()
    assert q_kostant(a1, (2,)) == QPoly({1: 1})          # the simple root
    theta = a2.highest_root().weight
    assert q_kostant(a2, theta) == QPoly({1: 1, 2: 1})
    assert q_kostant(a2, (1, 0)).is_zero()               # not in the root lattice


def test_lusztig_examples(a1_adj, a2):
    assert lusztig_q_analog(a1_adj, (1,), (0,)) == QPoly({1: 1})
    assert lusztig_q_analog(a2, (2, 1), (2, 1)) == QPoly.one()
    assert lusztig_q_analog(a2, (1, 1), (0, 0)) == QPoly({1: 1, 2: 1})


def test_lusztig_requires_dominant(a2):
    with pytest.raises(DomainError):
        lusztig_q_analog(a2, (0, -1), (0, 0))


@pytest.mark.parametrize("preset,bound", [
    ("A1-sc", 4), ("A1-adj", 4), ("A2-sc", 3), ("B2-sc", 3)])
def test_q_one_specialization(preset, bound):
    datum = build_datum(preset)
    def grow(prefix):
        if len(prefix) == datum.rank:
            yield prefix
        else:
            for c in range(bound + 1):
                yield from grow(prefix + (c,))
    for lam in grow(()):
        if not datum.is_dominant(lam):
            continue
        char = irreducible_character(datum, lam)
        for mu in char:
            assert lusztig_q_analog(datum, lam, mu).at_one() == \
                weight_multiplicity(datum, lam, mu)
        # an off-support probe evaluates to zero
        off = tuple(c + 7 for c in lam)
        if off not in char:
            assert lusztig_q_analog(datum, lam, off).at_one() == 0


def _q_one_cases():
    """(preset, pairing coordinates of a dominant lam): each coordinate at
    most 3, and at most 2 on A3-sc."""
    return st.one_of(*[
        st.tuples(st.just(preset),
                  st.tuples(*[st.integers(0, 2 if preset == "A3-sc" else 3)]
                            * build_datum(preset).rank))
        for preset in supported_presets()])


def _off_lattice(datum):
    """A shift off the root lattice: the first unit vector off it, or half
    of one where the weight basis is the root basis."""
    for k in range(datum.weight_dim):
        unit = tuple(int(i == k) for i in range(datum.weight_dim))
        if datum.root_coordinates(unit) is None:
            return unit
    return (Fraction(1, 2),) + (0,) * (datum.weight_dim - 1)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=_q_one_cases(), pick=st.integers(0, 10 ** 6))
# the largest highest weights of test_q_one_specialization's sweeps
@example(case=("A1-sc", (4,)), pick=0)
@example(case=("A1-adj", (4,)), pick=1)
@example(case=("A2-sc", (3, 3)), pick=2)
@example(case=("B2-sc", (3, 3)), pick=3)
def test_q_one_specialization_property(case, pick):
    preset, pairing = case
    datum = build_datum(preset)
    try:
        lam = datum.weight_from_pairing(pairing)
    except DomainError:
        return
    weights = sorted(irreducible_character(datum, lam))
    mu = weights[pick % len(weights)]
    off_support = tuple(a + b for a, b in zip(lam, datum.highest_root().weight))
    off_lattice = tuple(a + b for a, b in zip(mu, _off_lattice(datum)))
    for probe in (mu, off_support, off_lattice):
        assert lusztig_q_analog(datum, lam, probe).at_one() == \
            weight_multiplicity(datum, lam, probe), probe
    assert weight_multiplicity(datum, lam, mu) > 0
    assert weight_multiplicity(datum, lam, off_support) == 0
    assert weight_multiplicity(datum, lam, off_lattice) == 0


def _string_sum_q_kostant(datum, coords, idx, memo):
    """The q-Kostant count of root coordinates over the positive roots
    0..idx as the full sum down the root-idx string, term by term."""
    if not any(coords):
        return QPoly.one()
    if idx < 0:
        return QPoly.zero()
    if (coords, idx) not in memo:
        root = datum.positive_roots()[idx].root_coords
        out = QPoly.zero()
        point, k = coords, 0
        while all(c >= 0 for c in point):
            out = out + _string_sum_q_kostant(datum, point, idx - 1,
                                              memo).shifted(k)
            point = tuple(a - b for a, b in zip(point, root))
            k += 1
        memo[coords, idx] = out
    return memo[coords, idx]


def test_fractional_mu_with_a_cache_dir(tmp_path, monkeypatch):
    """An off-lattice mu is 0 before the disk cache is asked, and a
    Fraction entry on the lattice stores the same request as an int."""
    monkeypatch.setenv("NILCONE_CACHE_DIR", str(tmp_path))
    a1_adj = build_datum("A1-adj")
    assert lusztig_q_analog(a1_adj, (4,), (Fraction(1, 2),)) == QPoly.zero()
    assert not list(tmp_path.iterdir())
    assert lusztig_q_analog(a1_adj, (4,), (Fraction(2),)) == \
        lusztig_q_analog(a1_adj, (4,), (2,)) == QPoly({2: 1})
    assert len(list(tmp_path.glob("*.json"))) == 1


@pytest.mark.parametrize("preset", supported_presets())
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(coords=st.lists(st.integers(0, 12), min_size=3, max_size=3))
@example(coords=[70, 0, 0])     # a string past the memo's fill stride
def test_q_kostant_matches_string_sum(preset, coords):
    datum = build_datum(preset)
    coords = tuple(coords[:datum.rank])
    nu = tuple(sum(c * root[k] for c, root in zip(coords, datum.simple_roots))
               for k in range(datum.weight_dim))
    expected = _string_sum_q_kostant(datum, coords,
                                     len(datum.positive_roots()) - 1, {})
    assert q_kostant(datum, nu) == expected


def test_long_strings_need_no_deep_recursion(a1):
    # tens of thousands of string points, far past the recursion limit
    assert q_kostant(a1, (40000,)) == QPoly({20000: 1})
    assert weight_multiplicity(a1, (8000,), (0,)) == 1


@pytest.mark.parametrize("preset", ["A1-adj", "A2-sc", "B2-sc"])
def test_positivity_for_dominant_weights(preset):
    datum = build_datum(preset)
    lam = tuple([2] * datum.rank)
    for mu in irreducible_character(datum, lam):
        if datum.is_dominant(mu):
            assert lusztig_q_analog(datum, lam, mu).nonnegative()


def test_p_bk_examples(a1_adj, a2):
    assert p_bk_polynomial(a1_adj, (1,), (-1,)) == QPoly({2: 1})
    assert p_bk_polynomial(a2, (1, 1), (1, 1)) == QPoly.one()
    assert p_bk_polynomial(a2, (1, 1), (-1, -1)) == QPoly({4: 1})


def test_p_bk_orbit_shift_identity(a2, b2):
    # the polynomial of a conjugate differs by exactly the height shift
    for datum, nu in ((a2, (2, 1)), (b2, (1, 1))):
        for lam in irreducible_character(datum, nu):
            w, dom = datum.dominant_conjugate(lam)
            shift = datum.height(tuple(a - b for a, b in zip(dom, lam)))
            assert p_bk_polynomial(datum, nu, lam) == \
                p_bk_polynomial(datum, nu, dom).shifted(shift)


def test_graded_mult_examples(a1_adj, a2_adj):
    assert graded_mult_in_nilcone(a1_adj, (1,)) == QPoly({1: 1})
    assert graded_mult_in_nilcone(a1_adj, (0,)) == QPoly.one()
    theta = a2_adj.highest_root().weight
    assert graded_mult_in_nilcone(a2_adj, theta) == QPoly({1: 1, 2: 1})


def test_hilbert_series_a1(a1_adj):
    series = hilbert_series_nilcone(a1_adj, 5)
    assert series == QPoly({0: 1, 1: 3, 2: 5, 3: 7, 4: 9, 5: 11})
    assert series == hilbert_series_complete_intersection([1], 3, 5)


def test_hilbert_series_dual_route_a2(a2_adj):
    truncation = 12
    series = hilbert_series_nilcone(a2_adj, truncation)
    product = hilbert_series_complete_intersection([1, 2], 8, truncation)
    assert series == product


def test_hilbert_constant_term(a2_adj):
    assert hilbert_series_nilcone(a2_adj, 1).coeff(0) == 1


def test_dominant_enumeration_bound(a2_adj):
    weights = dominant_weights_by_pairing(a2_adj, 6)
    assert tuple([0, 0]) in weights
    assert all(a2_adj.height(w) <= 6 for w in weights)
    assert all(a2_adj.is_dominant(w) for w in weights)
