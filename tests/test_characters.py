from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from nilcone.errors import DomainError
from nilcone.qanalog import lusztig_q_analog, p_bk_polynomial, q_kostant
from nilcone.reps import bk_filtration, build_irrep
from nilcone.roots import _vec_add, _vec_sub, build_datum, supported_presets
from nilcone.characters import (weight_multiplicity, irreducible_character,
                                tensor_decompose, restrict_to_levi,
                                weyl_dimension, weyl_character_oracle,
                                dual_weight, tensor_decompose_on,
                                restrict_decomposition, _brauer)


def test_weight_multiplicity_examples(a1, a2):
    assert weight_multiplicity(a1, (4,), (0,)) == 1
    assert weight_multiplicity(a1, (4,), (3,)) == 0
    assert weight_multiplicity(a2, (1, 1), (0, 0)) == 2


def test_weight_multiplicity_far_down_a_long_string(a1):
    # each root string is walked from the top, so the memoised recursion
    # stays shallow however far mu lies below lam
    assert weight_multiplicity(a1, (1200,), (0,)) == 1


def test_weight_multiplicity_requires_dominant(a2):
    with pytest.raises(DomainError):
        weight_multiplicity(a2, (-1, 0), (0, 0))


def test_character_examples(a1, a2):
    assert irreducible_character(a1, (2,)) == {(2,): 1, (0,): 1, (-2,): 1}
    assert irreducible_character(a1, (0,)) == {(0,): 1}
    char = irreducible_character(a2, (1, 0))
    assert len(char) == 3 and set(char.values()) == {1}


def _weyl_invariant(datum, char):
    """Whether a weight multiset is W-invariant, as a character must be."""
    return all(char.get(elt.apply(w), 0) == m for w, m in char.items()
               for elt in datum.weyl_elements())


def test_characters_are_weyl_invariant(b2):
    assert _weyl_invariant(b2, irreducible_character(b2, (1, 1)))


FREUDENTHAL_SWEEPS = [
    ("A1-sc", 4), ("A1-adj", 4), ("A2-sc", 4), ("A2-adj", 4),
    ("B2-sc", 4), ("G2", 4), ("A3-sc", 4),
]


@pytest.mark.parametrize("preset,bound", FREUDENTHAL_SWEEPS)
def test_freudenthal_matches_weyl_character_formula(preset, bound):
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
        assert weyl_character_oracle(datum, lam) == \
            irreducible_character(datum, lam), lam
    # every proper Levi, the torus included, over the weights whose pairing
    # coordinates lie in [-2, 2]: Freudenthal reads the Levi's own coroots
    # and root lengths, as branching and the tensor checks run it
    box = []
    for coords in product(range(-2, 3), repeat=datum.rank):
        try:
            box.append(datum.weight_from_pairing(coords))
        except DomainError:
            continue
    for size in range(datum.rank):
        for subset in combinations(range(datum.rank), size):
            levi = datum.levi(subset)
            for lam in box:
                if levi.is_dominant(lam):
                    assert weyl_character_oracle(levi, lam) == \
                        irreducible_character(levi, lam), (subset, lam)


def _long_division_oracle(datum, lam):
    """The Weyl character formula by naive long division of
    alt(lam + rho) by alt(rho), both shifted by -rho, leading term first."""
    def alt(vec):
        out = {}
        for w in datum.weyl_elements():
            key = [Fraction(a) - r for a, r in zip(w.apply(vec), datum.rho)]
            assert all(a.denominator == 1 for a in key)
            key = tuple(int(a) for a in key)
            out[key] = out.get(key, 0) + w.sign
        return {k: v for k, v in out.items() if v}

    def key(w):  # a monomial order: translation-invariant, total
        return datum.pair_2rho_check(w), w
    numerator = alt(tuple(Fraction(a) + r for a, r in zip(lam, datum.rho)))
    denominator = alt(datum.rho)
    lead = max(denominator, key=key)
    assert not any(lead) and denominator[lead] == 1
    quotient = {}
    while numerator:
        top = max(numerator, key=key)
        c = quotient[top] = numerator[top]
        for t, m in denominator.items():
            w = _vec_add(top, t)
            s = numerator.get(w, 0) - c * m
            if s:
                numerator[w] = s
            else:
                numerator.pop(w, None)
    return quotient


@pytest.mark.parametrize("preset,lam", [
    ("A1-sc", (3,)), ("A2-sc", (2, 1)), ("A2-adj", (1, 1)), ("B2-sc", (1, 2)),
    ("G2", (1, 1)), ("A3-sc", (1, 0, 2))])
def test_weyl_oracle_matches_long_division(preset, lam):
    """The oracle's one-root-at-a-time division against plain long
    division by the whole denominator."""
    datum = build_datum(preset)
    assert weyl_character_oracle(datum, lam) == \
        _long_division_oracle(datum, lam)


def test_tensor_even_label_example(a1_adj):
    # V_2 (x) V_2 = V_4 + V_2 + V_0 in the even-label convention
    dec = tensor_decompose(a1_adj, (1,), (1,))
    assert dec == {(2,): 1, (1,): 1, (0,): 1}


def test_tensor_unit(a2, b2):
    zero = (0, 0)
    for lam in [(1, 0), (2, 1)]:
        assert tensor_decompose(a2, zero, lam) == {lam: 1}
        assert tensor_decompose(b2, lam, zero) == {lam: 1}


def test_tensor_derived_example(a2):
    assert tensor_decompose(a2, (1, 0), (0, 1)) == {(1, 1): 1, (0, 0): 1}


def test_tensor_commutative_associative(a2):
    a, b, c = (1, 0), (0, 1), (1, 1)
    assert tensor_decompose(a2, a, b) == tensor_decompose(a2, b, a)
    left = tensor_decompose_on(a2, tensor_decompose(a2, a, b), {c: 1})
    right = tensor_decompose_on(a2, {a: 1}, tensor_decompose(a2, b, c))
    assert left == right


def test_restrict_to_torus_is_weight_multiset(a2):
    dec = restrict_to_levi(a2, (), (1, 0))
    assert dec == irreducible_character(a2, (1, 0))


def test_restrict_proper_levi(a2):
    dec = restrict_to_levi(a2, (0,), (1, 0))
    levi = a2.levi((0,))
    dims = sorted(weyl_dimension(levi, w) for w in dec)
    assert dims == [1, 2]


def test_restrict_full_subset_identity(a2, b2):
    for datum, lam in ((a2, (2, 1)), (b2, (1, 1))):
        subset = tuple(range(datum.rank))
        assert restrict_to_levi(datum, subset, lam) == {lam: 1}


def test_restrict_invalid_subset(a2):
    with pytest.raises(DomainError):
        restrict_to_levi(a2, (7,), (1, 0))


def test_branching_transitivity(a2, b2):
    # restricting through an intermediate Levi agrees with going to the torus
    for datum in (a2, b2):
        levi = datum.levi((0,))
        for lam in [(1, 1), (2, 0)]:
            via = {}
            for mu, m in restrict_to_levi(datum, (0,), lam).items():
                for nu, m2 in restrict_to_levi(levi, (), mu).items():
                    via[nu] = via.get(nu, 0) + m * m2
            direct = restrict_to_levi(datum, (), lam)
            assert via == direct


def test_dual_weight(a2, b2):
    assert dual_weight(a2, (1, 0)) == (0, 1)
    assert dual_weight(b2, (1, 0)) == (1, 0)


def test_dimension_identity_on_products(b2):
    lam, mu = (1, 0), (0, 1)
    dec = tensor_decompose(b2, lam, mu)
    assert sum(m * weyl_dimension(b2, nu) for nu, m in dec.items()) == \
        weyl_dimension(b2, lam) * weyl_dimension(b2, mu)


def test_memo_tables_are_pure_caches(a2):
    # identical results with the in-process tables cleared
    import sys
    import nilcone.characters as ch
    from nilcone import sl2
    from nilcone.homspaces import (free_object, hom_profile_kostant,
                                   hom_profile_slice)
    from nilcone.qanalog import lusztig_q_analog
    from nilcone.reps import build_irrep, centralizer_and_exponents

    v = free_object([((1, 1), 0), ((2, 2), 1)])

    def other_results():
        rep = build_irrep(a2, (2, 1))
        return (lusztig_q_analog(a2, (2, 2), (1, 1)),
                (rep.basis, rep.e_ops, rep.f_ops),
                centralizer_and_exponents(a2)[1],
                hom_profile_slice(a2, v, v),
                hom_profile_kostant(a2, v, v),
                sl2.convolve_ic_recursive(-10, 4))

    before_char = irreducible_character(a2, (2, 1))
    before_mult = weight_multiplicity(a2, (2, 1), (0, 0))
    before_branch = restrict_to_levi(a2, (0,), (2, 1))
    before_other = other_results()
    memos = set()
    for name, module in list(sys.modules.items()):
        if name == "nilcone" or name.startswith("nilcone."):
            memos.update(value for value in vars(module).values()
                         if hasattr(value, "cache_clear"))
    assert memos
    for memo in memos:
        memo.cache_clear()
    assert irreducible_character(a2, (2, 1)) == before_char
    assert weight_multiplicity(a2, (2, 1), (0, 0)) == before_mult
    assert restrict_to_levi(a2, (0,), (2, 1)) == before_branch
    assert other_results() == before_other
    # the public results are copies: mutating one leaves the memo intact
    for call, args in ((ch.irreducible_character, (a2, (2, 1))),
                       (ch.restrict_to_levi, (a2, (0,), (2, 1))),
                       (sl2.convolve_ic_recursive, (-10, 4)),
                       (hom_profile_kostant, (a2, v, v))):
        first = call(*args)
        expected = dict(first)
        first.clear()
        assert call(*args) == expected


# -- Weyl dimension and the peel-off against independent references ------------

def _levis(datum):
    """Every Levi of the datum, from the torus to the datum's own subset."""
    return [datum.levi(subset) for k in range(datum.rank + 1)
            for subset in combinations(range(datum.rank), k)]


def _weight(datum, levi, inside, outside):
    """The weight of `datum` with pairings `inside` on the Levi's simple
    coroots and `outside` on the others, or None off the lattice."""
    coords = tuple(inside[i] if i in levi.simple_indices else outside[i]
                   for i in range(datum.rank))
    try:
        return datum.weight_from_pairing(coords)
    except DomainError:
        return None


def _reference_dimension(datum, lam):
    """Weyl's product formula in Fractions, over rho itself."""
    dim = Fraction(1)
    for root in datum.positive_roots():
        rho = datum.pair(datum.rho, root.coroot)
        dim *= (datum.pair(lam, root.coroot) + rho) / rho
    return dim


_BOX = st.lists(st.integers(0, 2), min_size=3, max_size=3)


@pytest.mark.parametrize("preset", supported_presets())
@settings(max_examples=25)
@given(inside=_BOX, outside=st.lists(st.integers(-2, 2), min_size=3,
                                     max_size=3))
def test_weyl_dimension_matches_oracle_and_fraction_product(preset, inside,
                                                            outside):
    datum = build_datum(preset)
    for levi in _levis(datum):
        lam = _weight(datum, levi, inside, outside)
        if lam is None:
            continue
        dim = weyl_dimension(levi, lam)
        assert type(dim) is int
        assert dim == _reference_dimension(levi, lam)
        assert dim == sum(weyl_character_oracle(levi, lam).values())
        if levi.rank:
            # one negative pairing on a simple coroot of the Levi
            below = list(inside)
            below[levi.simple_indices[0]] = -1 - inside[levi.simple_indices[0]]
            off = _weight(datum, levi, below, outside)
            if off is not None:
                with pytest.raises(DomainError):
                    weyl_dimension(levi, off)


def decompose_character(datum, char):
    """A character as a sum of irreducibles: the Brauer-Klimyk rule that
    tensor products and branching share (`_brauer`), applied against the
    trivial module; DomainError unless the character is W-invariant and
    every constituent comes out nonnegative."""
    if not _weyl_invariant(datum, char):
        raise DomainError("input is not the character of a representation")
    return _brauer(datum, {(0,) * datum.weight_dim: 1}, char)


def _reference_decompose(datum, char):
    """The peel-off with a full max scan of the remaining weights per step."""
    remaining = {w: m for w, m in char.items() if m}
    out = {}
    while remaining:
        top = max(remaining, key=lambda w: (datum.pair_2rho_check(w), w))
        mult = remaining[top]
        if not datum.is_dominant(top) or mult < 0:
            raise DomainError("input is not the character of a representation")
        out[top] = out.get(top, 0) + mult
        for w, m in irreducible_character(datum, top).items():
            s = remaining.get(w, 0) - mult * m
            if s:
                remaining[w] = s
            else:
                remaining.pop(w, None)
    return out


_DECOMPOSE_DATA = [("A2-sc", None), ("B2-sc", None), ("G2", None),
                   ("A3-sc", (0, 2))]


def _datum_and_levi(preset, subset):
    datum = build_datum(preset)
    return datum, datum if subset is None else datum.levi(subset)


@pytest.mark.parametrize("preset,subset", _DECOMPOSE_DATA)
@settings(max_examples=25)
@given(terms=st.lists(st.tuples(_BOX, st.integers(0, 3)), max_size=4))
def test_decompose_character_matches_max_scan(preset, subset, terms):
    datum, levi = _datum_and_levi(preset, subset)
    char = {}
    for inside, mult in terms:
        lam = _weight(datum, levi, inside, (1, -1, 1))
        if lam is None:
            continue
        for w, m in irreducible_character(levi, lam).items():
            char[w] = char.get(w, 0) + mult * m
    out = decompose_character(levi, char)
    assert list(out.items()) == \
        list(_reference_decompose(levi, char).items())


@pytest.mark.parametrize("preset,subset", _DECOMPOSE_DATA)
def test_decompose_character_rejects_non_characters(preset, subset):
    datum, levi = _datum_and_levi(preset, subset)
    lam = _weight(datum, levi, (1, 1, 1), (1, -1, 1))
    off = _weight(datum, levi, (-1, -1, -1), (1, -1, 1))
    zero = (0,) * datum.weight_dim
    char = irreducible_character(levi, lam)
    char[zero] = char.get(zero, 0) - 1
    # two edits off the dominant chamber, which keep every dominant
    # multiplicity: one moves a multiplicity between two weights of one
    # orbit, the other deletes an orbit weight
    full = irreducible_character(levi, lam)
    a, b = next(orbit[:2] for orbit in (
        sorted({w.apply(dom) for w in levi.weyl_elements()} - {dom})
        for dom in sorted(full) if levi.is_dominant(dom)) if len(orbit) > 1)
    moved = dict(full)
    moved[a] += 1
    moved[b] -= 1
    deleted = dict(full)
    del deleted[a]
    for bad in ({off: 1}, char, moved, deleted):
        with pytest.raises(DomainError):
            decompose_character(levi, bad)
        with pytest.raises(DomainError):
            _reference_decompose(levi, bad)


# -- the one-pass Freudenthal table and the one-product branching --------------

def _reference_mult(datum, lam, mu, memo):
    """m(mu) for dominant mu by the per-weight Freudenthal recursion, which
    walks every root string above mu term by term from its top down."""
    if mu == lam:
        return 1
    diff = datum.root_coordinates(_vec_sub(lam, mu))
    if diff is None or any(c < 0 for c in diff):
        return 0
    if mu not in memo:
        lam_mu_2rho = tuple(a + b + r
                            for a, b, r in zip(lam, mu, datum.two_rho))
        denom = datum.inner_product_with_root_vector(lam_mu_2rho, diff)
        total = 0
        for root in datum.positive_roots():
            remaining = diff
            string = [mu]
            while True:
                remaining = tuple(a - b
                                  for a, b in zip(remaining, root.root_coords))
                if any(c < 0 for c in remaining):
                    break
                string.append(_vec_add(string[-1], root.weight))
            for nu in reversed(string[1:]):
                m = _reference_mult(datum, lam,
                                    datum.dominant_representative(nu), memo)
                total += m * datum.inner_product_with_root_vector(
                    nu, root.root_coords)
        value, remainder = divmod(2 * total, denom)
        assert remainder == 0
        memo[mu] = value
    return memo[mu]


@pytest.mark.parametrize("preset", supported_presets())
@settings(max_examples=25)
@given(pairing=st.lists(st.integers(0, 3), min_size=3, max_size=3))
def test_freudenthal_table_matches_per_weight_recursion(preset, pairing):
    datum = build_datum(preset)
    if preset == "A3-sc":
        pairing = [min(c, 2) for c in pairing]
    try:
        lam = datum.weight_from_pairing(pairing[:datum.rank])
    except DomainError:
        return
    memo = {}
    char = irreducible_character(datum, lam)
    for mu in char:
        if datum.is_dominant(mu):
            assert char[mu] == weight_multiplicity(datum, lam, mu) == \
                _reference_mult(datum, lam, mu, memo), mu


def _reference_dominant_weights_below(datum, lam):
    """The dominant weights below lam by a walk-and-solve search: every
    found weight minus every positive root, walked to the dominant chamber
    and kept when lam minus it has nonnegative root coordinates."""
    found = set()
    frontier = {lam}
    while frontier:
        nxt = set()
        for mu in frontier:
            if mu in found:
                continue
            found.add(mu)
            for root in datum.positive_roots():
                dom = datum.dominant_representative(_vec_sub(mu, root.weight))
                coords = datum.root_coordinates(_vec_sub(lam, dom))
                if coords is not None and all(c >= 0 for c in coords) \
                        and dom not in found:
                    nxt.add(dom)
        frontier = nxt
    return found


@pytest.mark.parametrize("preset", supported_presets())
def test_dominant_steps_reach_every_dominant_weight_below(preset):
    """Steps by positive roots through dominant weights alone (Stembridge)
    find what the walk-and-solve search finds: on the datum over a pairing
    box, and on every proper Levi, the torus included, for Levi-dominant
    weights."""
    import nilcone.characters as ch
    datum = build_datum(preset)
    box = range(6 if datum.rank < 3 else 4)
    proper = [levi for levi in _levis(datum) if levi.rank < datum.rank]
    for levi, outside in [(datum, (0,))] + [(levi, range(-3, 4))
                                            for levi in proper]:
        weights = {_weight(datum, levi, inside, rest)
                   for inside in product(box, repeat=datum.rank)
                   for rest in product(outside, repeat=datum.rank)}
        weights.discard(None)
        assert weights
        for lam in weights:
            assert ch._dominant_weights_below(levi, lam) == \
                _reference_dominant_weights_below(levi, lam), lam


@pytest.mark.parametrize("subset", [None, (), (0,), (1,)])
@settings(max_examples=25)
@given(sides=st.tuples(*[st.lists(st.tuples(_BOX, st.integers(0, 2)),
                                  max_size=3)] * 2))
def test_tensor_decompose_on_matches_pairwise_sum(subset, sides):
    datum, levi = _datum_and_levi("A2-sc", subset)
    entries = []
    for terms in sides:
        side = {}
        for inside, mult in terms:
            lam = _weight(datum, levi, inside, (1, 2, 0))
            if lam is not None:
                side[lam] = side.get(lam, 0) + mult
        entries.append(side)
    pairwise = {}
    for la, ma in entries[0].items():
        for lb, mb in entries[1].items():
            for nu, m in tensor_decompose(levi, la, lb).items():
                pairwise[nu] = pairwise.get(nu, 0) + ma * mb * m
    assert tensor_decompose_on(levi, *entries) == \
        {nu: m for nu, m in pairwise.items() if m}


# -- the Brauer-Klimyk rule against the product character and the max scan -----

def _reference_tensor(datum, lam, mu):
    """V_lam tensor V_mu by the product of the two characters, decomposed by
    the max scan."""
    product = {}
    for wa, ma in irreducible_character(datum, lam).items():
        for wb, mb in irreducible_character(datum, mu).items():
            w = _vec_add(wa, wb)
            product[w] = product.get(w, 0) + ma * mb
    return _reference_decompose(datum, product)


@pytest.mark.parametrize("preset,subset", _DECOMPOSE_DATA)
@settings(max_examples=25)
@given(boxes=st.tuples(_BOX, _BOX))
def test_brauer_rule_matches_product_and_max_scan(preset, subset, boxes):
    datum, levi = _datum_and_levi(preset, subset)
    lam, mu = (_weight(datum, levi, box, (1, -1, 1)) for box in boxes)
    if lam is None or mu is None:
        return
    assert list(tensor_decompose(levi, lam, mu).items()) == \
        list(_reference_tensor(levi, lam, mu).items())
    char = irreducible_character(levi, lam)
    for sub in (s for k in range(levi.rank + 1)
                for s in combinations(range(levi.rank), k)):
        assert list(restrict_to_levi(levi, sub, lam).items()) == \
            list(_reference_decompose(levi.levi(sub), char).items()), sub


def test_each_irreducible_is_branched_once(a2):
    import nilcone.characters as ch
    levi = a2.levi((0,))
    product = tensor_decompose(a2, (2, 1), (1, 2))
    ch._restrict.cache_clear()
    branched = restrict_decomposition(a2, (0,), product)
    singles = {nu: restrict_to_levi(a2, (0,), nu) for nu in product}
    info = ch._restrict.cache_info()
    assert info.misses == info.hits == len(product) > 1
    for nu, out in singles.items():
        assert out == ch._brauer(levi, {(0, 0): 1},
                                 irreducible_character(a2, nu))
    total = {}
    for nu, mult in product.items():
        for mu, m in singles[nu].items():
            total[mu] = total.get(mu, 0) + mult * m
    assert branched == total


# -- the dot action against a search of the Weyl group --------------------------

def _pair(u, v):
    return sum(a * b for a, b in zip(u, v))


def _reference_dot_dominant(levi, weight):
    """(sign(w), w(weight + rho) - rho) for the w in the Weyl group that
    makes weight + rho strictly dominant, with rho in Fractions; None when
    no w does, i.e. weight + rho lies on a wall."""
    shifted = tuple(a + r for a, r in zip(weight, levi.rho))
    for w in levi.weyl_elements():
        image = tuple(_pair(row, shifted) for row in w.matrix)
        if all(_pair(image, coroot) > 0 for coroot in levi.simple_coroots):
            return w.sign, tuple(a - r for a, r in zip(image, levi.rho))
    return None


@pytest.mark.parametrize("preset", supported_presets())
@settings(max_examples=25)
@given(pairing=st.lists(st.integers(-4, 3), min_size=3, max_size=3))
def test_dot_dominant_matches_weyl_group_search(preset, pairing):
    from nilcone.characters import _dot_dominant
    datum = build_datum(preset)
    try:
        weight = datum.weight_from_pairing(pairing[:datum.rank])
    except DomainError:
        return
    for levi in _levis(datum):
        assert _dot_dominant(levi, weight) == \
            _reference_dot_dominant(levi, weight), levi.name


# -- weights of the wrong shape --------------------------------------------------

_WEIGHT_ARGUMENTS = {
    "weyl_dimension": weyl_dimension,
    "irreducible_character": irreducible_character,
    "tensor_decompose": lambda d, w: tensor_decompose(d, (1, 0), w),
    "restrict_to_levi": lambda d, w: restrict_to_levi(d, (0,), w),
    "weight_multiplicity": lambda d, w: weight_multiplicity(d, (1, 1), w),
    "lusztig_q_analog": lambda d, w: lusztig_q_analog(d, (1, 1), w),
    "p_bk_polynomial": lambda d, w: p_bk_polynomial(d, (1, 1), w),
    "q_kostant": q_kostant,
    "bk_filtration": lambda d, w: bk_filtration(build_irrep(d, (1, 1)), w),
}


@pytest.mark.parametrize("entry", sorted(_WEIGHT_ARGUMENTS))
@pytest.mark.parametrize("weight", [(1,), (1, 0, 5), (1.0, 0), (True, 0)])
def test_weights_of_the_wrong_shape_are_domain_errors(a2, entry, weight):
    with pytest.raises(DomainError):
        _WEIGHT_ARGUMENTS[entry](a2, weight)


def test_dominant_weights_are_lattice_weights(a2_adj):
    # dominant, but off the root lattice of the adjoint preset
    half = (Fraction(1, 2), Fraction(1, 2))
    assert a2_adj.is_dominant(half)
    for call in (weyl_dimension, irreducible_character):
        with pytest.raises(DomainError):
            call(a2_adj, half)
