import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from nilcone.errors import DomainError
from nilcone.qpoly import QPoly, geometric_series
from nilcone.roots import build_datum, supported_presets
from nilcone.characters import weight_multiplicity, irreducible_character
from nilcone import cache, characters, qanalog, reps
from nilcone.qanalog import (q_kostant, lusztig_q_analog, p_bk_polynomial,
                             graded_mult_in_nilcone, hilbert_series_nilcone,
                             hilbert_series_complete_intersection,
                             dominant_weights_by_pairing)
from conftest import DATA_AND_LEVIS, datum_or_levi, dominant_weights_with_dim_cap


def test_qpoly_basics():
    p = QPoly({2: 1}) + QPoly({0: 1})
    assert p * p == QPoly({4: 1, 2: 2, 0: 1})
    assert (p - p).is_zero()
    assert QPoly({-1: 3}).shifted(2) == QPoly({1: 3})
    assert p.at_one() == 2
    assert str(QPoly({1: 1, 2: 1})) == "q + q^2"
    assert geometric_series(2, 5) == QPoly({0: 1, 2: 1, 4: 1})


@pytest.mark.parametrize("terms", [{0: 2.5}, {1.7: 1}, {0: Fraction(2)},
                                   {0: True}, {True: 1}, {"1": 1}])
def test_qpoly_rejects_inexact_terms(terms):
    with pytest.raises(DomainError):
        QPoly(terms)


@pytest.mark.parametrize("k", [1.5, 2.0, Fraction(1), True, None, "a"])
def test_qpoly_shift_and_truncation_are_ints(k):
    """shifted and truncated take an int only, by the constructor's rule:
    a float shift used to build a float exponent that printed as an int
    one, and a bool or float truncation was accepted."""
    p = QPoly({1: 2, 3: 1})
    with pytest.raises(DomainError):
        p.shifted(k)
    with pytest.raises(DomainError):
        p.truncated(k)
    assert p.shifted(-1) == QPoly({0: 2, 2: 1})
    assert p.truncated(2) == QPoly({1: 2})


def test_constants_hash_as_their_ints():
    """A constant equals its int, so it hashes as it; zero hashes as 0."""
    for c in (0, 3, -7, 2 ** 70):
        assert QPoly({0: c}) == c
        assert hash(QPoly({0: c})) == hash(c)
    assert len({QPoly({0: 3}), 3}) == 1
    assert len({QPoly.zero(), 0}) == 1
    assert QPoly({1: 3}) != 3


@pytest.mark.parametrize("operand", [0.5, Fraction(1, 2), "q", None])
def test_foreign_operands_raise_type_error(operand):
    p = QPoly.one()
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(p, operand)
    with pytest.raises(TypeError):
        operand * p
    assert p != operand
    assert p + True == 2 and p * True == p


def test_ints_on_the_left_add_and_subtract():
    """An int on the left is a constant, so sum() works; a float or a
    Fraction there is still a TypeError."""
    p = QPoly({0: 2, 3: -1})
    assert 0 + p == p and 1 + p == p + 1
    assert 1 - p == QPoly({0: -1, 3: 1})
    assert 2 - QPoly.one() == 1
    assert sum([p, p]) == 2 * p
    assert sum([p, -p]).is_zero()
    for operand in (0.5, Fraction(1, 2)):
        for op in (operator.add, operator.sub):
            with pytest.raises(TypeError):
                op(operand, p)


@pytest.mark.parametrize("step", [0, -1, 1.5, True])
def test_geometric_series_rejects_bad_steps(step):
    with pytest.raises(DomainError):
        geometric_series(step, 5)


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
    # bools are not weight coordinates, though True == 1
    with pytest.raises(DomainError):
        lusztig_q_analog(a2, (True, True), (0, 0))


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
    """A shift off the root lattice: the first unit vector off it, or None
    where the weight lattice is the root lattice (the adjoint presets)."""
    for k in range(datum.weight_dim):
        unit = tuple(int(i == k) for i in range(datum.weight_dim))
        if datum.root_coordinates(unit) is None:
            return unit
    return None


@settings(max_examples=100)
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
    probes = [mu, off_support]
    shift = _off_lattice(datum)
    if shift is not None:
        probes.append(tuple(a + b for a, b in zip(mu, shift)))
    for probe in probes:
        assert lusztig_q_analog(datum, lam, probe).at_one() == \
            weight_multiplicity(datum, lam, probe), probe
    assert weight_multiplicity(datum, lam, mu) > 0
    for probe in probes[1:]:
        assert weight_multiplicity(datum, lam, probe) == 0, probe


@settings(max_examples=80)
@given(case=_q_one_cases(), drop=st.lists(st.integers(0, 4), min_size=3,
                                          max_size=3),
       pick=st.integers(0, 10 ** 6))
def test_lusztig_q_analog_is_the_full_weyl_sum(case, drop, pick):
    """Kostant's alternating sum over every Weyl element, no term skipped:
    sign(w) q_kostant(w(lam) - mu + w(rho) - rho), for mu a Weyl image of
    lam less a nonnegative simple-root combination."""
    preset, pairing = case
    datum = build_datum(preset)
    try:
        lam = datum.weight_from_pairing(pairing)
    except DomainError:
        return
    below = tuple(a - sum(c * root[k] for c, root in
                          zip(drop, datum.simple_roots))
                  for k, a in enumerate(lam))
    weyl = datum.weyl_elements()
    mu = weyl[pick % len(weyl)].apply(below)
    expected = QPoly.zero()
    for w in weyl:
        term = q_kostant(datum, tuple(a - b + s for a, b, s in
                                      zip(w.apply(lam), mu, w.rho_shift)))
        expected = expected + (term if w.sign > 0 else -term)
    assert lusztig_q_analog(datum, lam, mu) == expected, (lam, mu)


def test_no_cache_request_without_a_cache_dir(monkeypatch, a2):
    """With NILCONE_CACHE_DIR unset, q-analogs are computed without asking
    the disk cache; characters never ask it, with or without the variable
    (test_characters_never_ask_the_disk_cache)."""
    def refuse(*args):
        raise AssertionError("the disk cache was asked")
    monkeypatch.delenv("NILCONE_CACHE_DIR", raising=False)
    monkeypatch.setattr(cache, "fetch", refuse)
    monkeypatch.setattr(cache, "store", refuse)
    _clear_q_memos()
    characters._character.cache_clear()
    assert lusztig_q_analog(a2, (1, 1), (0, 0)) == QPoly({1: 1, 2: 1})
    assert lusztig_q_analog(a2, (1, 1), (1, 1)) == QPoly.one()
    assert sum(irreducible_character(a2, (2, 1)).values()) == 15


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
    """A Fraction mu is no weight, on the lattice or off it: a DomainError
    before the disk cache is asked, which writes no file."""
    monkeypatch.setenv("NILCONE_CACHE_DIR", str(tmp_path))
    a1_adj = build_datum("A1-adj")
    for mu in ((Fraction(1, 2),), (Fraction(2),)):
        with pytest.raises(DomainError):
            lusztig_q_analog(a1_adj, (4,), mu)
    assert not list(tmp_path.iterdir())
    assert lusztig_q_analog(a1_adj, (4,), (2,)) == QPoly({2: 1})
    assert len(list(tmp_path.glob("*.json"))) == 1


@pytest.mark.parametrize("preset", supported_presets())
@settings(max_examples=25)
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


def test_q_kostant_memo_holds_coefficient_tuples(monkeypatch, a1, a3, g2):
    """Every count the memo keeps is () or (low, coeffs): ints from q^low
    up with a nonzero leading coefficient.  As a polynomial it is the
    string sum truncated at its key's ceiling."""
    memo = qanalog._q_kostant
    kept = {}

    def record(*key):
        kept[key] = memo(*key)
        return kept[key]

    _clear_q_memos()
    monkeypatch.setattr(qanalog, "_q_kostant", record)
    hilbert_series_nilcone(g2, 12)
    # (3, 3, 3) itself is off the root lattice, and its q-analog at 0 is
    # 0 before any count is asked for
    lusztig_q_analog(a3, (3, 3, 3), (1, 1, 1))
    q_kostant(a1, (40000,))
    assert len(kept) == memo.cache_info().currsize
    assert {key[0] for key in kept} == {a1, a3, g2}
    assert () in kept.values()
    assert any(top < sum(coords) for _, coords, _, top in kept)
    sums = {}
    for (datum, coords, idx, top), count in kept.items():
        assert count == () or (
            type(count) is tuple and len(count) == 2
            and type(count[0]) is int and type(count[1]) is tuple
            and count[1] and count[1][0]
            and all(type(c) is int for c in count[1])), count
        # each point of the A1 string costs the string sum a walk down
        # all of it, so that string is checked at every 2000th point
        if datum is a1 and coords[0] % 2000:
            continue
        low, coeffs = count or (0, ())
        expected = _string_sum_q_kostant(datum, coords, idx,
                                         sums.setdefault(datum, {}))
        assert QPoly(dict(enumerate(coeffs, low))) == \
            expected.truncated(top), (datum, coords, idx, top)


def test_times_q_truncates_at_any_stop():
    """q times a count through q^top keeps all, some or none of its terms;
    a top two below the shifted count drops them all."""
    count = (2, (1, 2, 3))      # q^2 + 2q^3 + 3q^4
    assert [qanalog._times_q(count, top) for top in range(1, 7)] == \
        [(), (), (3, (1,)), (3, (1, 2)), (3, (1, 2, 3)), (3, (1, 2, 3))]
    assert qanalog._times_q(count, 5)[1] is count[1]
    assert qanalog._times_q((), 5) == ()


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


def _clear_prediction_memos():
    _clear_q_memos()
    qanalog._orbit_q_analog.cache_clear()


@settings(max_examples=20)
@given(st.sampled_from(supported_presets()), st.data())
def test_orbit_memo_gives_every_weight_its_shifted_q_analog(preset, data):
    """With every q memo cleared, then warm, over the modules of dimension
    <= 20 in a drawn order: each weight's prediction is the q-analog of its
    dominant conjugate shifted by the height of the difference."""
    datum = build_datum(preset)
    modules = data.draw(st.permutations(
        dominant_weights_with_dim_cap(datum, 20)))
    cases = [(nu, lam) for nu in modules
             for lam in irreducible_character(datum, nu)]
    _clear_prediction_memos()
    cold = [p_bk_polynomial(datum, nu, lam) for nu, lam in cases]
    assert [p_bk_polynomial(datum, nu, lam) for nu, lam in cases] == cold
    for (nu, lam), value in zip(cases, cold):
        _, dom = datum.dominant_conjugate(lam)
        shift = datum.height(tuple(a - b for a, b in zip(dom, lam)))
        assert value == lusztig_q_analog(datum, nu, dom).shifted(shift), \
            (nu, lam)


@pytest.mark.parametrize("preset,nu", [("A1-sc", (9,)), ("A2-sc", (2, 1)),
                                       ("B2-sc", (1, 2)), ("G2", (1, 1))])
def test_one_q_analog_per_dominant_weight_of_a_module(preset, nu,
                                                      monkeypatch):
    """Filtering a module and predicting every weight space asks for one
    q-analog per Weyl orbit of its weights."""
    datum = build_datum(preset)
    asked = []

    def counted(datum, lam, mu):
        asked.append(mu)
        return lusztig_q_analog(datum, lam, mu)
    monkeypatch.setattr(qanalog, "lusztig_q_analog", counted)
    qanalog._orbit_q_analog.cache_clear()
    rep = reps.build_irrep(datum, nu)
    for lam, profile in reps.bk_profile_all_weights(rep).items():
        assert profile.graded_poly() == p_bk_polynomial(datum, nu, lam)
    assert sorted(asked) == sorted(w for w in rep.weight_spaces
                                   if datum.is_dominant(w))


def test_p_bk_of_fraction_weights(a1):
    """A weight with a Fraction entry is a DomainError, whether or not the
    Fraction is an integer; the shift is the one int height of lam_dom -
    lam."""
    for lam in ((Fraction(-1, 2),), (Fraction(1, 2),), (Fraction(-3),)):
        with pytest.raises(DomainError):
            p_bk_polynomial(a1, (3,), lam)
    assert p_bk_polynomial(a1, (3,), (-3,)) == QPoly({3: 1})


@pytest.mark.parametrize("preset,subset", DATA_AND_LEVIS)
@settings(max_examples=20)
@given(entries=st.lists(st.integers(-3, 3), min_size=3, max_size=3),
       drop=st.lists(st.integers(0, 3), min_size=3, max_size=3),
       pick=st.integers(0, 10 ** 6))
def test_q_analogs_store_no_zero_coefficient(preset, subset, entries, drop,
                                             pick):
    """_q_analog sets its coefficients from its list's nonzero entries, so
    every result keeps QPoly's invariant: int terms, no zero stored.  mu is
    a Weyl image of lam less a nonnegative simple-root combination."""
    datum = datum_or_levi(preset, subset)
    _, lam = datum.dominant_conjugate(tuple(entries[:datum.weight_dim]))
    below = tuple(a - sum(c * root[k] for c, root in
                          zip(drop, datum.simple_roots))
                  for k, a in enumerate(lam))
    weyl = datum.weyl_elements()
    mu = weyl[pick % len(weyl)].apply(below)
    result = lusztig_q_analog(datum, lam, mu)
    assert all(type(e) is int and type(c) is int and c
               for e, c in result.coeffs.items()), (lam, mu, result.coeffs)


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


@pytest.mark.parametrize("preset", supported_presets())
def test_hilbert_series_dual_route_every_preset(preset):
    """The sum over graded multiplicities equals the complete-intersection
    product through q^20, on the simply-connected presets too."""
    datum = build_datum(preset)
    _, exponents = reps.centralizer_and_exponents(datum)
    dim_g = datum.rank + 2 * len(datum.positive_roots())
    assert hilbert_series_nilcone(datum, 20) == \
        hilbert_series_complete_intersection(exponents, dim_g, 20)


def test_hilbert_constant_term(a2_adj):
    assert hilbert_series_nilcone(a2_adj, 1).coeffs.get(0, 0) == 1


def test_dominant_enumeration_bound(a2_adj):
    weights = dominant_weights_by_pairing(a2_adj, 6)
    assert tuple([0, 0]) in weights
    assert all(a2_adj.height(w) <= 6 for w in weights)
    assert all(a2_adj.is_dominant(w) for w in weights)


def test_dominant_enumeration_matches_height_filter():
    """The layer-bounded search returns, in order, the list of a search
    that solves every candidate's height."""
    # the bounds T * height(theta) of Hilbert series through q^T
    hilbert = {"A1-adj": 40 * 1, "A2-adj": 20 * 2, "A2-sc": 16 * 2,
               "B2-sc": 16 * 3, "G2": 10 * 5}
    for preset in supported_presets():
        datum = build_datum(preset)
        for bound in (0, 1, 4, 7, hilbert.get(preset, 7)):
            seen, frontier, expected = set(), [(0,) * datum.weight_dim], []
            while frontier:
                cand = frontier.pop()
                if cand in seen or datum.height(cand) > bound:
                    continue
                seen.add(cand)
                if datum.is_dominant(cand):
                    expected.append(cand)
                frontier += [tuple(a + b for a, b in zip(cand, root))
                             for root in datum.simple_roots]
            expected.sort(key=lambda w: (datum.pair_2rho_check(w), w))
            assert dominant_weights_by_pairing(datum, bound) == expected


def _clear_q_memos():
    qanalog._q_kostant.cache_clear()
    qanalog._q_analog.cache_clear()


@pytest.mark.parametrize("preset", supported_presets())
def test_truncated_graded_mult_is_the_truncated_series(preset):
    """Truncating every q-Kostant count at q^T gives the full graded
    multiplicity truncated at q^T, for T from 0 to past its top degree,
    on the preset and on one Levi of it."""
    datum = build_datum(preset)
    for d in (datum, datum.levi((0,) if datum.rank > 1 else ())):
        weights = dominant_weights_by_pairing(d, 4)
        _clear_q_memos()
        full = [graded_mult_in_nilcone(d, lam) for lam in weights]
        _clear_q_memos()
        for lam, series in zip(weights, full):
            for t in range(d.height(lam) + 3):
                assert graded_mult_in_nilcone(d, lam, t) == \
                    series.truncated(t), (d, lam, t)


def test_weyl_table_gives_root_coordinates():
    """D_w . lam + s_w are the root coordinates of w(lam) + w(rho) - rho
    - lam, for every Weyl element of every preset and of every Levi."""
    for preset in supported_presets():
        datum = build_datum(preset)
        n = datum.weight_dim
        probes = [tuple(int(i == k) for i in range(n)) for k in range(n)]
        probes += [tuple((3 * k + 5 * j) % 7 - 3 for k in range(n))
                   for j in range(4)]
        subsets = [tuple(i for i in range(datum.rank) if mask >> i & 1)
                   for mask in range(2 ** datum.rank)]
        for d in [datum] + [datum.levi(s) for s in subsets]:
            for w in d.weyl_elements():
                for lam in probes:
                    table = tuple(
                        sum(a * b for a, b in zip(row, lam)) + s
                        for row, s in zip(w.minus_one_coords,
                                          w.rho_shift_coords))
                    moved = tuple(a + s - b for a, s, b in
                                  zip(w.apply(lam), w.rho_shift, lam))
                    assert table == d.root_coordinates(moved), (d, w, lam)


def test_truncated_terms_skip_the_disk_cache(tmp_path, monkeypatch, a2_adj):
    """A truncated Hilbert sum writes no cache entry and leaves no
    truncated count where a full one is looked up."""
    monkeypatch.setenv("NILCONE_CACHE_DIR", str(tmp_path))
    _clear_q_memos()
    series = hilbert_series_nilcone(a2_adj, 3)
    assert series == hilbert_series_complete_intersection([1, 2], 8, 3)
    assert not list(tmp_path.iterdir())
    lam = a2_adj.weight_from_pairing((3, 3))
    assert graded_mult_in_nilcone(a2_adj, lam, 3) == QPoly({3: 1})
    assert graded_mult_in_nilcone(a2_adj, lam) == \
        QPoly({3: 1, 4: 1, 5: 1, 6: 1})
    assert len(list(tmp_path.glob("*.json"))) == 1


def test_truncated_hilbert_sum_keeps_the_memo_small(g2):
    # a full count of every term left 47,655 entries
    _clear_q_memos()
    hilbert_series_nilcone(g2, 40)
    assert qanalog._q_kostant.cache_info().currsize < 30000


def test_sum_route_names_no_product_route():
    """Nothing the sum route of the Hilbert series runs in qanalog names
    a function of the product route it is checked against."""
    product_route = {"product_truncated", "geometric_series",
                     "hilbert_series_complete_intersection"}
    todo = [qanalog.hilbert_series_nilcone, qanalog.graded_mult_in_nilcone]
    done = set()
    while todo:
        fn = todo.pop()
        fn = getattr(fn, "__wrapped__", fn)
        if fn.__name__ in done:
            continue
        done.add(fn.__name__)
        names = set(fn.__code__.co_names)
        assert not names & product_route, (fn.__name__, names & product_route)
        todo += [getattr(qanalog, name) for name in names
                 if getattr(getattr(qanalog, name, None), "__module__", None)
                 == "nilcone.qanalog"]
    assert {"_q_analog", "_q_kostant", "_q_kostant_coords"} <= done


@pytest.mark.parametrize("function,truncation", [
    ("hilbert", 2.5), ("hilbert", 0), ("graded", 2.5), ("graded", -1),
    ("graded", True), ("poincare", 2.5), ("poincare", -1), ("product", 0),
    ("product", 2.5), ("product", True)])
def test_bad_truncations_are_domain_errors(function, truncation, a2_adj,
                                           monkeypatch):
    """poincare_gr checks its truncation before it builds the centralizer."""
    def no_centralizer(datum):
        raise AssertionError("built the centralizer for a bad truncation")
    monkeypatch.setattr(reps, "centralizer_and_exponents", no_centralizer)
    call = {"hilbert": hilbert_series_nilcone,
            "graded": lambda d, t: graded_mult_in_nilcone(d, (1, 1), t),
            "poincare": reps.poincare_gr,
            "product": lambda d, t: hilbert_series_complete_intersection(
                [1, 2], 8, t)}[function]
    with pytest.raises(DomainError):
        call(a2_adj, truncation)
