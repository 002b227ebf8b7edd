import operator
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from nilcone.errors import ConfigurationError, DomainError
from nilcone.roots import (_dot, _mat_vec, _vec_add, _vec_scale, _vec_sub,
                           build_datum, supported_presets)
from conftest import DATA_AND_LEVIS, datum_or_levi

EXPECTED = {
    # preset -> (rank, number of positive roots, Weyl order)
    "A1-sc": (1, 1, 2),
    "A1-adj": (1, 1, 2),
    "A2-sc": (2, 3, 6),
    "A2-adj": (2, 3, 6),
    "A3-sc": (3, 6, 24),
    "B2-sc": (2, 4, 8),
    "G2": (2, 6, 12),
}


@pytest.mark.parametrize("preset", sorted(EXPECTED))
def test_preset_shape(preset):
    rank, n_pos, w_order = EXPECTED[preset]
    datum = build_datum(preset)
    assert datum.rank == rank
    assert len(datum.positive_roots()) == n_pos
    assert len(datum.weyl_elements()) == w_order


@pytest.mark.parametrize("preset", sorted(EXPECTED))
def test_rho_is_half_the_sum_of_the_positive_roots(preset):
    """rho, read off the integer two_rho, is exactly half the sum of the
    positive roots, on the preset and on a Levi of it; it is derived, so
    it cannot be assigned."""
    datum = build_datum(preset)
    for d in (datum, datum.levi((0,))):
        roots = d.positive_roots()
        assert d.rho == tuple(Fraction(sum(r.weight[k] for r in roots), 2)
                              for k in range(d.weight_dim)), d.name
        assert all(type(c) is Fraction for c in d.rho)
        with pytest.raises(AttributeError):
            d.rho = d.rho


def test_unknown_preset_names_supported():
    with pytest.raises(ConfigurationError) as err:
        build_datum("E8-sc")
    for name in supported_presets():
        assert name in str(err.value)


def test_a1_defining_data(a1):
    (root,) = a1.positive_roots()
    assert a1.pair(root.weight, root.coroot) == 2


def test_adjoint_lattice_is_root_lattice(a1_adj):
    # the fundamental weight has pairing 1, which is not in the lattice
    with pytest.raises(DomainError):
        a1_adj.weight_from_pairing((1,))
    assert a1_adj.weight_from_pairing((2,)) == (1,)


def test_positive_roots_order_graded(a2):
    heights = [r.height for r in a2.positive_roots()]
    assert heights == sorted(heights)
    assert [r.root_coords for r in a2.positive_roots()] == \
        [(0, 1), (1, 0), (1, 1)]


def test_dominant_conjugate_rank1(a1):
    w, lam = a1.dominant_conjugate((-3,))
    assert lam == (3,) and w.length == 1


def test_dominant_conjugate_identity_on_dominant(a2):
    w, lam = a2.dominant_conjugate((2, 5))
    assert w.length == 0 and lam == (2, 5)


def test_dominant_conjugate_longest(a2):
    w, lam = a2.dominant_conjugate((-1, -1))
    assert lam == (1, 1)
    assert w.length == a2.longest_element().length


def test_dominant_conjugate_idempotent(b2):
    for weight in [(-3, 2), (1, -4), (-1, -1)]:
        w, dom = b2.dominant_conjugate(weight)
        w2, dom2 = b2.dominant_conjugate(dom)
        assert w2.length == 0 and dom2 == dom


def test_dominant_conjugate_rejects_inexact_weights(a2):
    """The pairing rows would pair a short weight by truncated dot
    products, and a bool or a str is no exact coordinate."""
    for weight in ((1,), (True, -1), "ab"):
        with pytest.raises(DomainError):
            a2.dominant_conjugate(weight)


@pytest.mark.parametrize("preset,subset", DATA_AND_LEVIS)
@settings(max_examples=30)
@given(entries=st.lists(st.one_of(
    st.integers(-8, 8),
    st.builds(Fraction, st.integers(-16, 16), st.integers(1, 4))),
    min_size=3, max_size=3))
def test_dominant_conjugate_is_the_first_dominant_image(preset, subset,
                                                        entries):
    datum = datum_or_levi(preset, subset)
    weight = tuple(entries[:datum.weight_dim])
    first = next(w for w in datum.weyl_elements()
                 if datum.is_dominant(w.apply(weight)))
    w, image = datum.dominant_conjugate(weight)
    assert w is first
    assert image == first.apply(weight)


@pytest.mark.parametrize("preset", sorted(EXPECTED))
def test_longest_element_involution(preset):
    datum = build_datum(preset)
    w0 = datum.longest_element()
    for weight in [datum.simple_roots[0], tuple(range(1, datum.weight_dim + 1))]:
        assert w0.apply(w0.apply(weight)) == tuple(weight)


@pytest.mark.parametrize("preset", sorted(EXPECTED))
def test_pairing_parity_constant_on_orbits(preset):
    datum = build_datum(preset)
    weight = tuple(range(1, datum.weight_dim + 1))
    base = datum.pair_2rho_check(weight)
    for w in datum.weyl_elements():
        assert (datum.pair_2rho_check(w.apply(weight)) - base) % 2 == 0


def test_pair_2rho_examples(a1, a2):
    assert a1.pair_2rho_check((1,)) == 1
    assert a1.pair_2rho_check((0,)) == 0
    # sum over the three positive coroots: 1 + 1 + 2
    rho = (1, 1)
    assert a2.pair_2rho_check(rho) == 4


def test_weyl_words_are_reduced(b2):
    # matrix built from the recorded word must reproduce the element
    for w in b2.weyl_elements():
        acc = tuple(range(1, b2.weight_dim + 1))
        vec = tuple(acc)
        for i in reversed(w.word):
            vec = b2.reflect(vec, i)
        assert vec == w.apply(acc)


def test_weyl_matrices_permute_roots(g2):
    roots = {r.weight for r in g2.positive_roots()}
    roots |= {tuple(-c for c in r.weight) for r in g2.positive_roots()}
    for w in g2.weyl_elements():
        assert {w.apply(r) for r in roots} == roots


def test_levi_subset_validation(a2, b2):
    """Only an iterable of int indices in range is a Levi subset; a bool
    never stands in for its int, so no Levi is named after a bool."""
    for subset in [(5,), (-1,), ("a",), (1.0,), (True,), (1, True), None, 0,
                   ([0],)]:
        for datum in (a2, b2):
            with pytest.raises(DomainError):
                datum.levi(subset)
    assert b2.levi([1]).name == "B2-sc|levi[1]"


def test_height_function(a2, b2):
    assert a2.height(a2.highest_root().weight) == 2
    assert b2.height(b2.highest_root().weight) == 3
    with pytest.raises(DomainError):
        a2.levi((0,)).height((0, 1))  # not in the Levi root span


def _combination(datum, coords):
    return tuple(sum(c * root[k] for c, root in zip(coords, datum.simple_roots))
                 for k in range(datum.weight_dim))


def _lattice_form(vector):
    """Fractions with denominator 1 as ints, so the integer path is taken."""
    return tuple(int(x) if x.denominator == 1 else x for x in vector)


@pytest.mark.parametrize("preset", sorted(EXPECTED))
@settings(max_examples=40)
@given(coords=st.lists(st.integers(-20, 20), min_size=3, max_size=3),
       denom=st.integers(2, 6), k=st.integers(0, 2))
def test_root_coordinates_round_trip(preset, coords, denom, k):
    datum = build_datum(preset)
    coords = tuple(coords[:datum.rank])
    k %= datum.rank
    vector = _combination(datum, coords)
    assert datum.root_coordinates(vector) == coords
    assert datum.height(vector) == sum(coords)
    # a non-integral coefficient leaves the root lattice, whether or not
    # the vector's own entries are integers
    off = tuple(Fraction(c) for c in coords)
    off = off[:k] + (off[k] + Fraction(1, denom),) + off[k + 1:]
    assert datum.root_coordinates(_lattice_form(_combination(datum, off))) is None
    half = (vector[0] + Fraction(1, 2),) + vector[1:]
    assert datum.root_coordinates(half) is None
    # one Levi per preset: the first simple root
    levi = datum.levi((0,))
    inside = (coords[0],) + (0,) * (datum.rank - 1)
    assert levi.root_coordinates(_combination(datum, inside)) == coords[:1]
    if datum.rank > 1 and any(coords[1:]):
        assert levi.root_coordinates(vector) is None
    assert levi.root_coordinates(half) is None


@pytest.mark.parametrize("preset,coords", [
    ("A2-sc", (1.7, 0)),  # was truncated to (1, 0)
    ("A2-sc", (1, "x")),  # raised ValueError
    ("A2-adj", (3.0, 0.0)),  # returned floats
    ("A2-adj", (True, 1)),  # was accepted
])
def test_weight_from_pairing_refuses_non_int_coordinates(preset, coords):
    with pytest.raises(DomainError):
        build_datum(preset).weight_from_pairing(coords)


def test_weight_from_pairing_rejects_levi():
    # a Levi's weights have weight_dim entries; its rank-many pairing
    # coordinates do not determine one
    for preset, subset in (("A2-adj", (0,)), ("A2-sc", (1,)), ("B2-sc", (0,))):
        datum = build_datum(preset)
        with pytest.raises(DomainError):
            datum.levi(subset).weight_from_pairing((2,))
        # the full datum still inverts pairing_coords
        assert datum.pairing_coords(datum.weight_from_pairing((2, 2))) \
            == (2, 2)


@pytest.mark.parametrize("preset", sorted(EXPECTED))
@settings(max_examples=25)
@given(lam=st.lists(st.integers(-6, 6), min_size=3, max_size=3),
       mu=st.lists(st.integers(-6, 6), min_size=3, max_size=3))
def test_integer_rho_shift_matches_fraction_dot_action(preset, lam, mu):
    datum = build_datum(preset)
    lam = tuple(lam[:datum.weight_dim])
    mu = tuple(mu[:datum.weight_dim])
    lam_rho = tuple(Fraction(a) + r for a, r in zip(lam, datum.rho))
    mu_rho = tuple(Fraction(a) + r for a, r in zip(mu, datum.rho))
    for w in datum.weyl_elements():
        shifted = tuple(a - b + s
                        for a, b, s in zip(w.apply(lam), mu, w.rho_shift))
        assert all(type(c) is int for c in shifted)
        assert shifted == tuple(a - b for a, b in zip(w.apply(lam_rho), mu_rho))


@pytest.mark.parametrize("preset", sorted(EXPECTED))
def test_inner_product_with_root_vector_is_int(preset):
    """B(weight, gamma), d_gamma = B(gamma, gamma) / 2 and the coroot of
    every positive root, of the preset and of each Levi, are exact ints."""
    datum = build_datum(preset)
    weight = tuple(range(1, datum.weight_dim + 1))
    levis = [datum.levi(subset) for k in range(1, datum.rank)
             for subset in combinations(range(datum.rank), k)]
    for d in [datum] + levis:
        for root in d.positive_roots():
            value = d.inner_product_with_root_vector(weight, root.root_coords)
            assert type(value) is int
            assert type(root.length_sq_half) is int
            assert all(type(c) is int for c in root.coroot)
            # B(gamma, gamma) = 2 d_gamma
            assert d.inner_product_with_root_vector(
                root.weight, root.root_coords) == 2 * root.length_sq_half
            assert d.pair(root.weight, root.coroot) == 2


# each of these truncated to the shorter vector on A2-sc: True, 2, (-1,),
# 3 and (-1, 1)
TRUNCATED = {
    "is_dominant": lambda d: d.is_dominant((1,)),
    "pair_2rho_check": lambda d: d.pair_2rho_check((1,)),
    "reflect": lambda d: d.reflect((1,), 0),
    "pair": lambda d: d.pair((1, 2, 3), (1, 1)),
    "apply": lambda d: d.weyl_elements()[1].apply((1,)),
}


@pytest.mark.parametrize("name", sorted(TRUNCATED))
def test_wrong_length_vectors_are_refused(a2, name):
    with pytest.raises(DomainError):
        TRUNCATED[name](a2)


_ENTRIES = st.one_of(st.integers(-50, 50),
                     st.builds(Fraction, st.integers(-50, 50),
                               st.integers(1, 6)))


def _vectors(n):
    return st.lists(_ENTRIES, min_size=n, max_size=n).map(tuple)


@settings(max_examples=80)
@given(data=st.data(), n=st.integers(1, 4), other=st.integers(1, 4))
def test_small_vector_kernels_match_their_references(data, n, other):
    """The unpacked lengths 1-3 and the generic length 4 equal the map/zip
    forms on ints and Fractions, a matrix that is not square included; a
    pair of vectors of two lengths is refused, never truncated."""
    u, v = data.draw(_vectors(n)), data.draw(_vectors(n))
    c = data.draw(_ENTRIES)
    square = tuple(data.draw(_vectors(n)) for _ in range(n))
    wide = tuple(data.draw(_vectors(n)) for _ in range(other))
    assert _dot(u, v) == sum(map(operator.mul, u, v))
    assert _vec_add(u, v) == tuple(map(operator.add, u, v))
    assert _vec_sub(u, v) == tuple(map(operator.sub, u, v))
    assert _vec_scale(c, u) == tuple(c * a for a in u)
    for m in (square, wide):
        assert _mat_vec(m, v) == tuple(sum(a * b for a, b in zip(row, v))
                                       for row in m)
    if other != n:
        w = data.draw(_vectors(other))
        for call in (lambda: _dot(u, w), lambda: _dot(w, u),
                     lambda: _vec_add(u, w), lambda: _vec_sub(u, w),
                     lambda: _mat_vec(square, w), lambda: _mat_vec(wide, w)):
            with pytest.raises(DomainError):
                call()
