"""Characters of the small-rank groups: weight multiplicities, tensor
product decomposition and branching to Levi subgroups.

A character is a dict mapping weight tuples to integer multiplicities.
Decompositions are dicts mapping dominant weight tuples to nonnegative
multiplicities.  Tensor products, branching and decomposition all go through
one Brauer-Klimyk rule (`_brauer`): for a W-invariant chi,
ch V_lam * chi = sum over the weights nu of chi of chi(nu) sign(w)
ch V_{w.(lam + nu)}, so no product character is built and no constituent's
character is expanded.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import cache
from .errors import DomainError
from .roots import _dot, _vec_add, _vec_scale, _vec_sub


def _require_weight(datum, weight):
    """A weight is weight_dim exact entries: ints, or Fractions for a vector
    off the lattice, where every multiplicity and q-analog is 0."""
    if len(weight) != datum.weight_dim or not all(
            isinstance(c, (int, Fraction)) for c in weight):
        raise DomainError("weight %r is not %d exact coordinates for %s"
                          % (weight, datum.weight_dim, datum.name))


def _require_dominant(datum, weight):
    """DomainError unless weight is a dominant weight of ints.  Every hot
    path runs this check, so _require_weight, which gives a malformed
    weight its own message, runs only on failure."""
    if len(weight) != datum.weight_dim or not all(
            isinstance(c, int) for c in weight) \
            or not datum.is_dominant(weight):
        _require_weight(datum, weight)
        raise DomainError("weight %r is not a dominant lattice weight for %s"
                          % (weight, datum.name))


def weyl_dimension(datum, lam):
    """dim V_lam by Weyl's product formula over the positive roots,
    prod <lam + rho, alpha-check> / <rho, alpha-check>, with every factor
    doubled so that numerator and denominator are integers."""
    _require_dominant(datum, lam)
    num = den = 1
    for root in datum.positive_roots():
        shift = _dot(datum.two_rho, root.coroot)
        num *= 2 * _dot(lam, root.coroot) + shift
        den *= shift
    dim, remainder = divmod(num, den)
    assert remainder == 0 and dim > 0
    return dim


def _dominant_weights_below(datum, lam):
    """All dominant mu with lam - mu a nonnegative root combination."""
    found = set()
    frontier = {tuple(lam)}
    while frontier:
        nxt = set()
        for mu in frontier:
            if mu in found:
                continue
            found.add(mu)
            for root in datum.positive_roots():
                nu = _vec_sub(mu, root.weight)
                dom = datum.dominant_representative(nu)
                coords = datum.root_coordinates(_vec_sub(lam, dom))
                if coords is not None and all(c >= 0 for c in coords) and dom not in found:
                    nxt.add(dom)
        frontier = nxt
    return found


def weight_multiplicity(datum, lam, mu):
    """dim of the mu weight space of V_lam, read from the one-pass
    Freudenthal table of the dominant multiplicities of V_lam."""
    _require_dominant(datum, lam)
    _require_weight(datum, mu)
    mu = datum.dominant_representative(tuple(mu))
    return _dominant_mults(datum, tuple(lam)).get(mu, 0)


@lru_cache(maxsize=None)
def _dominant_mults(datum, lam):
    """{mu: m(mu)} over the dominant weights mu of V_lam, by Freudenthal's
    formula (Humphreys, GTM 9, §22.3) in one pass down <mu, 2rho-check>.

    The formula sums m(mu + k alpha)(mu + k alpha, alpha) over alpha > 0 and
    k >= 1, i.e. T(mu + alpha, alpha) with T(nu, beta) the sum over k >= 0
    of m(nu + k beta)(nu + k beta, beta).  The string sum telescopes,
    T(nu, beta) = m(nu)(nu, beta) + T(nu + beta, beta), and T(w nu, w beta)
    = T(nu, beta) for w in W, so `tails` keys T on the dominant conjugate of
    nu and the image of beta, and each (weight, root) pair costs O(1).
    Every multiplicity T reads sits strictly higher in the pass.
    """
    mults = {}
    tails = {}
    for mu in sorted(_dominant_weights_below(datum, lam),
                     key=datum.pair_2rho_check, reverse=True):
        if mu == lam:
            mults[mu] = 1
            continue
        total = sum(_tail(datum, mults, tails, _vec_add(mu, root.weight), root)
                    for root in datum.positive_roots())
        # denominator |lam+rho|^2 - |mu+rho|^2 = B(lam+mu+2rho, lam-mu)
        lam_mu_2rho = tuple(a + b + r for a, b, r in zip(lam, mu, datum.two_rho))
        denom = datum.inner_product_with_root_vector(
            lam_mu_2rho, datum.root_coordinates(_vec_sub(lam, mu)))
        value, remainder = divmod(2 * total, denom)
        assert remainder == 0
        mults[mu] = value
    return mults


def _tail(datum, mults, tails, nu, root):
    """T(nu, root), walking up the root string only to the first point
    whose T is known or that is no weight, above which none is: the string
    through a weight is unbroken, and nu lies above one.  Iterative, so a
    long string costs no recursion depth."""
    pending = []
    while True:
        key = _dominant_key(datum, nu, root.weight)
        total = tails.get(key)
        if total is not None:
            break
        m = mults.get(key[0])
        if m is None:
            total = 0
            break
        pending.append(
            (key, m * datum.inner_product_with_root_vector(nu, root.root_coords)))
        nu = _vec_add(nu, root.weight)
    for key, term in reversed(pending):
        total += term
        tails[key] = total
    return total


def _dominant_key(datum, nu, beta):
    """(w nu, w beta) for the w that makes nu dominant, by the simple
    reflections of `dominant_representative` applied to both."""
    while True:
        for i in range(datum.rank):
            if datum.simple_pairing(nu, i) < 0:
                nu = datum.reflect(nu, i)
                beta = datum.reflect(beta, i)
                break
        else:
            return nu, beta


def irreducible_character(datum, lam):
    """Full weight multiset of V_lam as a dict weight -> multiplicity."""
    _require_dominant(datum, lam)
    return dict(_character(datum, tuple(lam)))


@lru_cache(maxsize=None)
def _character(datum, lam):
    request = {"op": "irreducible_character", "format": 1,
               "preset": datum.name, "weight": list(lam)}
    dim = weyl_dimension(datum, lam)
    char = _stored_character(datum, cache.fetch(request), dim)
    if char is None:
        char = {}
        for dom, m in _dominant_mults(datum, lam).items():
            for w in datum.weyl_orbit(dom):
                char[w] = m
        cache.store(request, sorted([list(w), m] for w, m in char.items()))
    assert sum(char.values()) == dim
    return char


def _stored_character(datum, stored, dim):
    """The character in a disk-cache value, or None unless the value is a
    list of [weight of weight_dim ints, positive int] at distinct weights
    whose multiplicities add up to dim."""
    if not isinstance(stored, list):
        return None
    char = {}
    for entry in stored:
        if not (isinstance(entry, list) and len(entry) == 2
                and isinstance(entry[0], list)
                and len(entry[0]) == datum.weight_dim
                and all(type(c) is int for c in entry[0])
                and type(entry[1]) is int and entry[1] > 0):
            return None
        char[tuple(entry[0])] = entry[1]
    if len(char) != len(stored) or sum(char.values()) != dim:
        return None
    return char


def _peel_key(datum, weight):
    # graded lexicographic: total pairing with 2rho-check, then coords
    return (datum.pair_2rho_check(weight), weight)


def _dot_dominant(datum, weight):
    """(sign(w), w.weight) for the w whose dot action makes weight dominant,
    or None when weight + rho lies on a wall.  <rho, alpha_i-check> = 1
    (Humphreys, GTM 9, §13.3), so s_i.weight = weight - c alpha_i with
    c = <weight, alpha_i-check> + 1, and no rho vector is needed."""
    sign = 1
    while True:
        for i in range(datum.rank):
            c = datum.simple_pairing(weight, i) + 1
            if c == 0:
                return None
            if c < 0:
                weight = _vec_sub(weight, _vec_scale(c, datum.simple_roots[i]))
                sign = -sign
                break
        else:
            return sign, weight


def _brauer(datum, entries, char):
    """sum of mult * ch V_lam * char over (lam, mult) in entries, as a
    decomposition, for a W-invariant char, by the Brauer-Klimyk rule: each
    weight nu of char adds char(nu) sign(w) at w.(lam + nu).  The nonzero
    entries come in descending _peel_key order."""
    out = {}
    for lam, mult in entries.items():
        for nu, m in char.items():
            found = _dot_dominant(datum, _vec_add(lam, nu))
            if found is not None:
                sign, top = found
                out[top] = out.get(top, 0) + sign * mult * m
    if any(m < 0 for m in out.values()):
        raise DomainError("input is not the character of a representation")
    return {w: out[w] for w in sorted(out, key=lambda w: _peel_key(datum, w),
                                      reverse=True) if out[w]}


def decompose_character(datum, char):
    """Write a character as a sum of irreducibles of `datum`; DomainError
    unless it is W-invariant and every constituent comes out nonnegative."""
    if not is_representation_character(datum, char):
        raise DomainError("input is not the character of a representation")
    return _brauer(datum, {(0,) * datum.weight_dim: 1}, char)


def tensor_decompose(datum, lam, mu):
    """Multiplicities of each V_nu inside V_lam tensor V_mu."""
    return tensor_decompose_on(datum, {tuple(lam): 1}, {tuple(mu): 1})


def dual_weight(datum, lam):
    """Highest weight of the dual module: -w0(lam)."""
    _require_dominant(datum, lam)
    w0 = datum.longest_element()
    return tuple(-c for c in w0.apply(tuple(lam)))


def restrict_to_levi(datum, subset, lam):
    """Decompose V_lam over the Levi spanned by the given simple indices."""
    _require_dominant(datum, lam)
    levi = datum.levi(subset)
    out = _brauer(levi, {(0,) * datum.weight_dim: 1},
                  irreducible_character(datum, lam))
    total = sum(m * weyl_dimension(levi, nu) for nu, m in out.items())
    assert total == weyl_dimension(datum, lam)
    return out


def tensor_decompose_on(datum, entries_a, entries_b):
    """Tensor product of two decompositions, summed with multiplicities:
    side b's characters are summed once and side a is decomposed against
    that sum by the Brauer-Klimyk rule."""
    dim_a = sum(mult * weyl_dimension(datum, lam)
                for lam, mult in entries_a.items())
    char_b = {}
    for lam, mult in entries_b.items():
        _require_dominant(datum, lam)
        for w, m in _character(datum, tuple(lam)).items():
            char_b[w] = char_b.get(w, 0) + mult * m
    out = _brauer(datum, entries_a, char_b)
    total = sum(m * weyl_dimension(datum, nu) for nu, m in out.items())
    assert total == dim_a * sum(char_b.values())
    return out


def restrict_decomposition(datum, subset, entries):
    """Apply restrict_to_levi to a whole decomposition list."""
    out = {}
    for lam, mult in entries.items():
        for nu, m in restrict_to_levi(datum, subset, lam).items():
            out[nu] = out.get(nu, 0) + mult * m
    return {k: v for k, v in out.items() if v}


def levi_degree_shift(datum, subset, chi):
    """<chi, 2rho_G-check - 2rho_L-check> for chi central for the Levi."""
    _require_weight(datum, chi)
    levi = datum.levi(subset)
    chi = tuple(chi)
    for root in levi.positive_roots():
        if datum.pair(chi, root.coroot) != 0:
            raise DomainError(
                "weight %r is not central for the Levi %r" % (chi, list(subset)))
    return datum.pair_2rho_check(chi) - levi.pair_2rho_check(chi)


def is_representation_character(datum, char):
    """Check W-invariance of a weight multiset (the character predicate)."""
    for w, m in char.items():
        for elt in datum.weyl_elements():
            if char.get(elt.apply(w), 0) != m:
                return False
    return True


def weyl_character_oracle(datum, lam):
    """Character of V_lam straight from the Weyl character formula.

    Independent of the Freudenthal path.  By Weyl's denominator identity
    (Humphreys, GTM 9, §24), e^-rho alt(rho) is the product over the
    positive roots alpha of (1 - e^-alpha), so e^-rho alt(lam + rho) is
    divided by one factor at a time.  Dividing p by (1 - e^-alpha) is the
    running sum q(w) = p(w) + q(w + alpha) down every alpha-string, and the
    division is exact only if each string's sum ends at 0.  Used as a test
    oracle only.
    """
    _require_dominant(datum, lam)
    # exponents are shifted by -rho so that all of them lie in the lattice
    lam_rho = tuple(Fraction(a) + b for a, b in zip(lam, datum.rho))
    quotient = {}
    for w in datum.weyl_elements():
        key = [a - r for a, r in zip(w.apply(lam_rho), datum.rho)]
        assert all(a.denominator == 1 for a in key)
        key = tuple(int(a) for a in key)
        quotient[key] = quotient.get(key, 0) + w.sign
    for root in datum.positive_roots():
        alpha = root.weight
        k = next(t for t, a in enumerate(alpha) if a)
        strings = {}  # a point of each alpha-string -> {n: p(point + n alpha)}
        for w, c in quotient.items():
            n = w[k] // alpha[k]
            base = tuple(x - n * a for x, a in zip(w, alpha))
            strings.setdefault(base, {})[n] = c
        quotient = {}
        for base, points in strings.items():
            total = 0
            for n in range(max(points), min(points) - 1, -1):
                total += points.get(n, 0)
                if total:
                    quotient[tuple(x + n * a for x, a in zip(base, alpha))] = \
                        total
            assert total == 0, "alt(lam + rho) is not divisible by " \
                "1 - e^-alpha for alpha = %r" % (alpha,)
    return quotient
