"""q-analogs of weight multiplicities and graded data of the nilpotent cone.

The variable q tracks the filtration index (half the geometric degree of
the coordinate ring grading, whose generators sit in degree 2).  All
conversions to even geometric degrees happen in the consumers, never here.
"""

from __future__ import annotations

from functools import lru_cache

from . import cache
from .errors import DomainError
from .qpoly import QPoly, product_truncated, geometric_series
from .roots import _vec_sub
from .characters import weyl_dimension, _require_dominant, _require_weight


def q_kostant(datum, nu):
    """q-analog of the Kostant partition function at nu.

    Counts expressions nu = sum over positive roots of n_alpha * alpha
    weighted by q^(sum n_alpha); the zero polynomial when there is none.
    """
    _require_weight(datum, nu)
    coords = datum.root_coordinates(tuple(nu))
    if coords is None or any(c < 0 for c in coords):
        return QPoly.zero()
    return _q_kostant_coords(datum, coords, len(datum.positive_roots()) - 1)


_STRIDE = 32


def _q_kostant_coords(datum, coords, idx):
    """q-Kostant count P_idx(coords) of root coordinates over the positive
    roots 0..idx.

    Callers start at the highest root, which prunes fastest.  The two base
    cases stay in front of the memo, which would otherwise hold thousands
    of them.  The memo is first called at every _STRIDE-th point of the
    alpha_idx-string through coords, from the bottom up, so that a miss
    recurses at most _STRIDE steps down the string before it meets a
    memoised point, however long the string is.
    """
    if not any(coords):
        return QPoly.one()
    if idx < 0:
        return QPoly.zero()
    root = datum.positive_roots()[idx].root_coords
    length = min(c // r for c, r in zip(coords, root) if r)
    if length >= _STRIDE:
        for k in range(length, 0, -_STRIDE):
            _q_kostant(datum, tuple(c - k * r for c, r in zip(coords, root)),
                       idx)
    return _q_kostant(datum, coords, idx)


@lru_cache(maxsize=None)
def _q_kostant(datum, coords, idx):
    # the string sum telescopes: P_idx(c) = P_idx-1(c) + q P_idx(c - alpha_idx)
    out = _q_kostant_coords(datum, coords, idx - 1)
    root = datum.positive_roots()[idx].root_coords
    below = tuple(a - b for a, b in zip(coords, root))
    if all(c >= 0 for c in below):
        below = QPoly.one() if not any(below) else _q_kostant(datum, below, idx)
        out = out + below.shifted(1)
    return out


def lusztig_q_analog(datum, lam, mu):
    """Lusztig q-analog m^lam_mu(q); its value at q = 1 is dim V_lam(mu)."""
    _require_dominant(datum, lam)
    _require_weight(datum, mu)
    lam = tuple(lam)
    mu = tuple(mu)
    request = {"op": "lusztig_q_analog", "format": 1, "preset": datum.name,
               "lam": list(lam), "mu": list(mu)}
    stored = _stored_q_analog(datum, lam, mu, cache.fetch(request))
    if stored is not None:
        return stored
    out = QPoly.zero()
    for w in datum.weyl_elements():
        # w(lam + rho) - (mu + rho) = w(lam) - mu + (w(rho) - rho)
        arg = tuple(a - b + s
                    for a, b, s in zip(w.apply(lam), mu, w.rho_shift))
        coords = datum.root_coordinates(arg)
        if coords is None or any(c < 0 for c in coords):
            continue
        term = _q_kostant_coords(datum, coords,
                                 len(datum.positive_roots()) - 1)
        out = out + (term if w.sign > 0 else -term)
    cache.store(request, out.to_json())
    return out


def _stored_q_analog(datum, lam, mu, stored):
    """The q-analog in a disk-cache value, or None unless the value is a
    list of [exponent, decimal integer coefficient] with every exponent in
    [0, height(lam - mu)]; off the root lattice that leaves only [].  The
    check reads root coordinates only, never the characters it is checked
    against."""
    if not isinstance(stored, list):
        return None
    coords = datum.root_coordinates(_vec_sub(lam, mu))
    top = -1 if coords is None else sum(coords)
    terms = {}
    for entry in stored:
        if not (isinstance(entry, list) and len(entry) == 2
                and type(entry[0]) is int and 0 <= entry[0] <= top
                and isinstance(entry[1], str)):
            return None
        try:
            terms[entry[0]] = int(entry[1])
        except ValueError:
            return None
    return QPoly(terms)


def p_bk_polynomial(datum, nu, lam):
    """Graded dimensions of the kernel filtration on the lam weight space
    of V_nu, as a polynomial in the filtration index.

    Equals q^<w(lam)-lam, rho-check> * m^{w(lam)}_nu(q), with w the minimal
    Weyl element making lam dominant.
    """
    _require_dominant(datum, nu)
    _require_weight(datum, lam)
    w, lam_dom = datum.dominant_conjugate(tuple(lam))
    shift_vec = _vec_sub(lam_dom, tuple(lam))
    shift = datum.height(shift_vec)
    assert 2 * shift == datum.pair_2rho_check(shift_vec)
    return lusztig_q_analog(datum, nu, lam_dom).shifted(shift)


def graded_mult_in_nilcone(datum, lam):
    """Graded multiplicity of V_lam in the nilpotent-cone coordinate ring.

    Exponent k stands for internal/cohomological degree 2k of the dilation
    grading on functions.
    """
    return lusztig_q_analog(datum, lam, tuple([0] * datum.weight_dim))


def _min_exponent_bound(datum, lam):
    """Lower bound for the lowest exponent of graded_mult_in_nilcone(lam).

    V_lam inside the degree-k piece forces lam to be a sum of k roots, so
    <lam, rho-check> <= k * height(highest root).
    """
    ht_theta = datum.highest_root().height
    pairing = datum.height(tuple(lam))
    return -(-pairing // ht_theta)  # ceil division


def dominant_weights_by_pairing(datum, bound):
    """All dominant lattice weights with <lam, rho-check> <= bound.

    Only weights in the root-lattice span qualify (others never meet the
    coordinate ring), which also keeps the pairing integral.
    """
    zero = tuple([0] * datum.weight_dim)
    out = [zero]
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for lam in frontier:
            for root in datum.simple_roots:
                cand = tuple(a + b for a, b in zip(lam, root))
                if cand in seen:
                    continue
                seen.add(cand)
                if datum.height(cand) > bound:
                    continue
                nxt.append(cand)
                if datum.is_dominant(cand):
                    out.append(cand)
        frontier = nxt
    return sorted(out, key=lambda w: (datum.pair_2rho_check(w), w))


def hilbert_series_nilcone(datum, truncation):
    """Hilbert series of the nilpotent-cone coordinate ring through q^N.

    Sums dim(V_lam) * graded multiplicity over the finitely many dominant
    lam that can contribute at or below the cutoff.
    """
    if truncation < 1:
        raise DomainError("truncation must be >= 1")
    ht_theta = datum.highest_root().height
    out = QPoly.zero()
    for lam in dominant_weights_by_pairing(datum, truncation * ht_theta):
        gm = graded_mult_in_nilcone(datum, lam)
        if gm.is_zero():
            continue
        low = gm.min_exponent()
        assert low >= _min_exponent_bound(datum, lam), \
            "enumeration bound violated at %r" % (lam,)
        if low > truncation:
            continue
        out = out + (weyl_dimension(datum, lam) * gm).truncated(truncation)
    return out


def hilbert_series_complete_intersection(exponents, dim_g, truncation):
    """Product route: prod_i (1 - q^(m_i + 1)) / (1 - q)^dim_g, truncated.

    q tracks half the geometric degree, so the dim_g generators sit in
    degree 1 and the fundamental invariants in degrees m_i + 1.
    """
    factors = [geometric_series(1, truncation)] * dim_g
    series = product_truncated(factors, truncation)
    numerator = QPoly.one()
    for m in exponents:
        numerator = numerator * (QPoly.one() - QPoly.q(m + 1))
    return (series * numerator).truncated(truncation)
