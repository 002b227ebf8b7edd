"""Characters of the small-rank groups: weight multiplicities, tensor
product decomposition and branching to Levi subgroups.

A character is a dict mapping weight tuples to integer multiplicities.
Decompositions are dicts mapping dominant weight tuples to nonnegative
multiplicities.  Tensor products and branching both go through the same
peel-off loop on characters: multiply (or restrict), then repeatedly strip
the character of the largest remaining dominant weight.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import lru_cache

from . import cache
from .errors import DomainError
from .roots import _dot, _vec_add, _vec_sub


def _require_dominant(datum, weight):
    if not datum.is_dominant(weight):
        raise DomainError("weight %r is not dominant for %s" % (weight, datum.name))


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
    request = {"op": "irreducible_character", "preset": datum.name,
               "weight": list(lam)}
    stored = cache.fetch(request)
    if stored is not None:
        char = {tuple(w): m for w, m in stored}
    else:
        char = {}
        for dom, m in _dominant_mults(datum, lam).items():
            for w in datum.weyl_orbit(dom):
                char[w] = m
        cache.store(request, sorted([list(w), m] for w, m in char.items()))
    assert sum(char.values()) == weyl_dimension(datum, lam)
    return char


def multiply_characters(a, b):
    out = {}
    for wa, ma in a.items():
        for wb, mb in b.items():
            w = _vec_add(wa, wb)
            out[w] = out.get(w, 0) + ma * mb
    return {w: m for w, m in out.items() if m}


def _peel_key(datum, weight):
    # graded lexicographic: total pairing with 2rho-check, then coords
    return (datum.pair_2rho_check(weight), weight)


def _peel_entry(datum, weight):
    # heap entry: the smallest entry is the weight with the largest _peel_key
    return (-datum.pair_2rho_check(weight), tuple(-c for c in weight), weight)


def decompose_character(datum, char):
    """Write a character as a sum of irreducibles of `datum`.

    Repeatedly strips the largest remaining weight, which must be dominant
    when the input really is a character of a representation.  A weight
    enters the heap once, when it first appears; one whose multiplicity has
    gone to zero stays in `remaining` as 0 and is skipped when popped.
    """
    remaining = {w: m for w, m in char.items() if m}
    heap = [_peel_entry(datum, w) for w in remaining]
    heapq.heapify(heap)
    out = {}
    while heap:
        top = heapq.heappop(heap)[2]
        mult = remaining[top]
        if not mult:
            continue
        if not datum.is_dominant(top) or mult < 0:
            raise DomainError("input is not the character of a representation")
        out[top] = mult
        for w, m in _character(datum, top).items():
            if w in remaining:
                remaining[w] -= mult * m
            else:
                remaining[w] = -mult * m
                heapq.heappush(heap, _peel_entry(datum, w))
    return out


def tensor_decompose(datum, lam, mu):
    """Multiplicities of each V_nu inside V_lam tensor V_mu."""
    _require_dominant(datum, lam)
    _require_dominant(datum, mu)
    prod = multiply_characters(irreducible_character(datum, lam),
                               irreducible_character(datum, mu))
    out = decompose_character(datum, prod)
    total = sum(m * weyl_dimension(datum, nu) for nu, m in out.items())
    assert total == weyl_dimension(datum, lam) * weyl_dimension(datum, mu)
    return out


def dual_weight(datum, lam):
    """Highest weight of the dual module: -w0(lam)."""
    _require_dominant(datum, lam)
    w0 = datum.longest_element()
    return tuple(-c for c in w0.apply(tuple(lam)))


def restrict_to_levi(datum, subset, lam):
    """Decompose V_lam over the Levi spanned by the given simple indices."""
    _require_dominant(datum, lam)
    levi = datum.levi(subset)
    char = irreducible_character(datum, lam)
    out = decompose_character(levi, char)
    total = sum(m * weyl_dimension(levi, nu) for nu, m in out.items())
    assert total == weyl_dimension(datum, lam)
    return out


def tensor_decompose_on(datum, entries_a, entries_b):
    """Tensor product of two decompositions, summed with multiplicities:
    each side's characters are summed, the two sums multiplied once and the
    product decomposed once."""
    sides = []
    for entries in (entries_a, entries_b):
        char = {}
        for lam, mult in entries.items():
            _require_dominant(datum, lam)
            for w, m in _character(datum, tuple(lam)).items():
                char[w] = char.get(w, 0) + mult * m
        sides.append(char)
    out = decompose_character(datum, multiply_characters(*sides))
    total = sum(m * weyl_dimension(datum, nu) for nu, m in out.items())
    assert total == sum(sides[0].values()) * sum(sides[1].values())
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

    Independent of the Freudenthal path: expands the alternating sums
    numerator / denominator by long division on group-ring elements.  Slow;
    used as a test oracle only.
    """
    _require_dominant(datum, lam)
    lam = tuple(lam)
    # exponents are shifted by rho so that all of them lie in the lattice
    lam_rho = tuple(Fraction(a) + b for a, b in zip(lam, datum.rho))
    rho_v = datum.rho

    def alt(vec):
        out = {}
        for w in datum.weyl_elements():
            img = w.apply(vec)
            key = tuple(img[k] - rho_v[k] for k in range(datum.weight_dim))
            ikey = []
            for a in key:
                a = Fraction(a)
                assert a.denominator == 1
                ikey.append(int(a))
            ikey = tuple(ikey)
            out[ikey] = out.get(ikey, 0) + w.sign
        return {k: v for k, v in out.items() if v}

    numerator = alt(lam_rho)
    denominator = alt(rho_v)
    # divide: denominator has leading (graded-lex maximal) term e^0 with
    # coefficient 1, so plain long division terminates
    key = lambda w: _peel_key(datum, w)
    lead = max(denominator, key=key)
    assert lead == tuple([0] * datum.weight_dim) and denominator[lead] == 1
    quotient = {}
    work = dict(numerator)
    while work:
        top = max(work, key=key)
        c = work[top]
        quotient[top] = quotient.get(top, 0) + c
        for t, m in denominator.items():
            w = _vec_add(top, _vec_sub(t, lead))
            s = work.get(w, 0) - c * m
            if s:
                work[w] = s
            else:
                work.pop(w, None)
    return {k: v for k, v in quotient.items() if v}
