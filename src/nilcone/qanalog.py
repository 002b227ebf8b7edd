"""q-analogs of weight multiplicities and graded data of the nilpotent cone.

The variable q tracks the filtration index (half the geometric degree of
the coordinate ring grading, whose generators sit in degree 2).  All
conversions to even geometric degrees happen in the consumers, never here.
A graded multiplicity or Hilbert series asked for through q^T is computed
through q^T only: every q-Kostant count below it stops at q^T.
"""

from functools import lru_cache
from operator import add, sub

from . import cache
from .errors import (require_dominant, require_instance, require_int,
                     require_weight)
from .qpoly import QPoly, product_truncated, geometric_series
from .roots import RootDatum, _dot, _vec_sub
from .characters import weyl_dimension


def q_kostant(datum, nu):
    """q-analog of the Kostant partition function at nu.

    Counts expressions nu = sum over positive roots of n_alpha * alpha
    weighted by q^(sum n_alpha); the zero polynomial when there is none.
    The count comes from the memo as coefficients and leaves as a QPoly.
    """
    nu = require_weight(datum, nu)
    coords = datum.root_coordinates(nu)
    if coords is None or any(c < 0 for c in coords):
        return QPoly.zero()
    low, coeffs = _q_kostant_coords(
        datum, coords, len(datum.positive_roots()) - 1, sum(coords)) or (0, ())
    return QPoly(dict(enumerate(coeffs, low)))


_STRIDE = 32

# A q-Kostant count c_0 q^low + c_1 q^(low+1) + ... is the pair
# (low, (c_0, c_1, ...)) with c_0 != 0, and zero is ().  Counts are never
# negative, so a sum of two never cancels its leading coefficient.
_ONE = (0, (1,))


def _q_kostant_coords(datum, coords, idx, top):
    """q-Kostant count P_idx(coords) of root coordinates over the positive
    roots 0..idx, through q^top, as a (low, coeffs) pair or ().

    Callers start at the highest root, which prunes fastest.  No root
    below alpha_idx is higher than it, so every term has degree at least
    ceil(height(coords) / height(alpha_idx)), and the count is zero once
    that passes top.  A count has no term above height(coords), so the memo
    key carries min(top, height): a full count keeps one key whatever top
    it was asked for.  The base cases stay in front of the memo, which
    would otherwise hold thousands of them.  The memo is first called at
    every _STRIDE-th point of the alpha_idx-string through coords, from the
    bottom up, so that a miss recurses at most _STRIDE steps down the
    string before it meets a memoised point, however long the string is.
    """
    if not any(coords):
        return _ONE
    if idx < 0:
        return ()
    root = datum.positive_roots()[idx]
    height = sum(coords)
    if -(-height // root.height) > top:
        return ()
    # a string of _STRIDE steps below coords takes _STRIDE root heights
    if height >= _STRIDE * root.height:
        step = root.root_coords
        length = min(c // r for c, r in zip(coords, step) if r)
        if length >= _STRIDE:
            for k in range(length, 0, -_STRIDE):
                _q_kostant(datum,
                           tuple(c - k * r for c, r in zip(coords, step)),
                           idx, min(top, height - k * root.height))
    return _q_kostant(datum, coords, idx, min(top, height))


@lru_cache(maxsize=None)
def _q_kostant(datum, coords, idx, top):
    """The memoised step of _q_kostant_coords: an immutable (low, coeffs)
    pair or (), shared by every caller."""
    # the string sum telescopes: P_idx(c) = P_idx-1(c) + q P_idx(c - alpha_idx);
    # the second count runs at the same top, and its shift drops q^(top+1)
    out = _q_kostant_coords(datum, coords, idx - 1, top)
    root = datum.positive_roots()[idx]
    below = _vec_sub(coords, root.root_coords)
    height = sum(below)
    if min(below) >= 0 and -(-height // root.height) <= top:
        below = _times_q(
            _q_kostant(datum, below, idx, min(top, height)) if height
            else _ONE, top)
        if below:
            out = _added(out, below) if out else below
    return out


def _times_q(count, top):
    """q times a count, through q^top.  The slice that truncates shares
    the whole tuple when nothing is dropped; its stop is clamped at 0,
    since a negative stop would drop terms from the far end instead."""
    if count:
        low, coeffs = count
        coeffs = coeffs[:max(0, top - low)]
        if coeffs:
            return low + 1, coeffs
    return ()


def _added(a, b):
    """Sum of two nonzero counts, aligned by their lowest exponents."""
    if a[0] > b[0]:
        a, b = b, a
    low, head = a
    gap = b[0] - low
    tail = b[1]
    if gap >= len(head):
        return low, head + (0,) * (gap - len(head)) + tail
    # one of the two trailing slices is empty, whichever count ends first
    return low, (head[:gap] + tuple(map(add, head[gap:], tail))
                 + head[gap + len(tail):] + tail[len(head) - gap:])


def lusztig_q_analog(datum, lam, mu):
    """Lusztig q-analog m^lam_mu(q); its value at q = 1 is dim V_lam(mu)."""
    lam = require_dominant(datum, lam)
    mu = require_weight(datum, mu)
    coords = datum.root_coordinates(_vec_sub(lam, mu))
    if coords is None:
        return QPoly.zero()
    top = sum(coords)
    if not cache.enabled():
        return _q_analog(datum, lam, coords, top)
    request = {"op": "lusztig_q_analog", "format": 1, "preset": datum.name,
               "lam": list(lam), "mu": list(mu)}
    stored = _stored_q_analog(top, cache.fetch(request))
    if stored is not None:
        return stored
    out = _q_analog(datum, lam, coords, top)
    cache.store(request, out.to_json())
    return out


# q-analogs kept in memory.  The repeats come from hom-routes' graded
# multiplicities: a seed-1 round hits the memo in 509 of 633 calls, and 64
# entries keep those hits.  A filtration-sweep round repeats none of its
# 2,143 calls, because p_bk_polynomial keeps one q-analog per Weyl orbit
# itself (_orbit_q_analog), and a character-tables round none of its 1,421,
# whose Hilbert terms come in truncated and each once.  A larger memo only
# holds memory: 256 entries raised cli-cold's peak RSS by 1.5 %, an
# unbounded one by 3.9 %.
_Q_ANALOGS_KEPT = 64


@lru_cache(maxsize=_Q_ANALOGS_KEPT)
def _q_analog(datum, lam, coords, top):
    """Kostant's alternating sum of q-Kostant counts through q^top, for the
    root coordinates coords of lam - mu; a QPoly is never changed, so
    callers share the memoised one.

    Each term is P_q(w(lam + rho) - (mu + rho)), and the root coordinates of
    its argument, (w - 1)(lam) + (w(rho) - rho) + (lam - mu), come from the
    Weyl element's integer rows with no solve.  Most terms are zero because
    a coordinate is negative (12,017 of the 15,870 terms of a
    character-tables round), so a term is dropped at its first negative
    coordinate, before the others are formed.  Every term stops at q^top,
    so the terms add into one list of the coefficients of q^0..q^top, and
    the QPoly is built once, at the end, from the nonzero entries alone:
    the list holds ints only, so QPoly's per-term checks are skipped, as
    in QPoly.shifted.
    """
    last = len(datum.positive_roots()) - 1
    out = [0] * (top + 1)
    for w in datum.weyl_elements():
        arg = []
        for row, s, c in zip(w.minus_one_coords, w.rho_shift_coords, coords):
            c += _dot(row, lam) + s
            if c < 0:
                break
            arg.append(c)
        else:
            term = _q_kostant_coords(datum, tuple(arg), last, top)
            if term:
                low, coeffs = term
                end = low + len(coeffs)
                out[low:end] = map(add if w.sign > 0 else sub,
                                   out[low:end], coeffs)
    res = QPoly()
    res.coeffs = {e: c for e, c in enumerate(out) if c}
    return res


def _stored_q_analog(height, stored):
    """The q-analog in a disk-cache value, or None unless the value is a
    list of [exponent, decimal integer coefficient] with every exponent in
    [0, height].  The caller takes the height of lam - mu from its root
    coordinates, never from the characters the q-analog is checked
    against."""
    if not isinstance(stored, list):
        return None
    terms = {}
    for entry in stored:
        if not (isinstance(entry, list) and len(entry) == 2
                and type(entry[0]) is int and 0 <= entry[0] <= height
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

    Equals q^<lam_dom - lam, rho-check> * m^{lam_dom}_nu(q), with lam_dom
    the dominant Weyl conjugate of lam (Brylinski, 1989).  Every weight of
    one Weyl orbit shares the q-analog, so it comes from _orbit_q_analog.
    dominant_conjugate checks lam.  lam_dom - lam is a sum of simple
    roots, so its height is half the difference of the 2rho-check
    pairings, an int.
    """
    nu = require_dominant(datum, nu)
    _, lam_dom = datum.dominant_conjugate(lam)
    shift = (datum.pair_2rho_check(lam_dom) - datum.pair_2rho_check(lam)) // 2
    return _orbit_q_analog(datum, nu, lam_dom).shifted(shift)


# One q-analog per Weyl orbit of the weights of V_nu.  A filtration-sweep
# module of dimension <= 120 has at most 60 dominant weights (A1-sc V(119)),
# so 64 entries keep every repeat within a module: a seed-1 round asks for
# 5,095 predictions and computes 2,143 q-analogs.
_ORBITS_KEPT = 64


@lru_cache(maxsize=_ORBITS_KEPT)
def _orbit_q_analog(datum, nu, lam_dom):
    """m^{lam_dom}_nu(q) for a checked nu and the dominant conjugate of a
    checked weight; a QPoly is never changed, so callers share it."""
    return lusztig_q_analog(datum, nu, lam_dom)


def graded_mult_in_nilcone(datum, lam, truncation=None):
    """Graded multiplicity of V_lam in the nilpotent-cone coordinate ring.

    Exponent k stands for internal/cohomological degree 2k of the dilation
    grading on functions.  With a truncation N, only the terms through q^N
    are computed: every q-Kostant count stops at q^N, and neither the disk
    cache nor the full series is read or written.
    """
    lam = require_dominant(datum, lam)
    if truncation is None:
        return lusztig_q_analog(datum, lam, (0,) * datum.weight_dim)
    require_int(truncation, "truncation", 0, None)
    coords = datum.root_coordinates(lam)
    if coords is None:
        return QPoly.zero()
    return _q_analog(datum, lam, coords, min(truncation, sum(coords)))


def _min_exponent_bound(datum, lam):
    """Lower bound for the lowest exponent of graded_mult_in_nilcone(lam).

    V_lam inside the degree-k piece forces lam to be a sum of k roots, so
    <lam, rho-check> <= k * height(highest root).  On a torus, which has
    no roots, only lam = 0 occurs, in degree 0.
    """
    if not datum.positive_roots():
        return 0
    ht_theta = datum.highest_root().height
    pairing = datum.height(tuple(lam))
    return -(-pairing // ht_theta)  # ceil division


def dominant_weights_by_pairing(datum, bound):
    """All dominant lattice weights with <lam, rho-check> <= bound.

    Only weights in the root-lattice span qualify (others never meet the
    coordinate ring), which also keeps the pairing integral.  Every such
    weight other than 0 covers another one in the dominance order on
    dominant weights, and a cover differs by a positive root (J. R.
    Stembridge, Adv. Math. 136, 1998), so the search steps from 0 by
    positive roots through dominant weights of height <= bound only.
    """
    zero = tuple([0] * datum.weight_dim)
    out = [zero]
    seen = {zero}
    roots = [r.weight for r in datum.positive_roots()]
    for lam in out:  # out is also the queue: the loop reaches what it appends
        for root in roots:
            cand = tuple(map(add, lam, root))
            if cand not in seen and datum.pair_2rho_check(cand) <= 2 * bound \
                    and datum.is_dominant(cand):
                seen.add(cand)
                out.append(cand)
    return sorted(out, key=lambda w: (datum.pair_2rho_check(w), w))


def hilbert_series_nilcone(datum, truncation):
    """Hilbert series of the nilpotent-cone coordinate ring through q^N.

    Sums dim(V_lam) times the graded multiplicity through q^N over the
    finitely many dominant lam that can contribute at or below the cutoff.
    On a torus, which has no roots, that is lam = 0 alone, and the series
    is 1.
    """
    require_instance(datum, RootDatum, "datum")
    require_int(truncation, "truncation", 1, None)
    ht_theta = datum.highest_root().height if datum.positive_roots() else 0
    out = QPoly.zero()
    for lam in dominant_weights_by_pairing(datum, truncation * ht_theta):
        gm = graded_mult_in_nilcone(datum, lam, truncation)
        if gm.is_zero():
            continue
        assert gm.min_exponent() >= _min_exponent_bound(datum, lam), \
            "enumeration bound violated at %r" % (lam,)
        out = out + weyl_dimension(datum, lam) * gm
    return out


def hilbert_series_complete_intersection(exponents, dim_g, truncation):
    """Product route: prod_i (1 - q^(m_i + 1)) / (1 - q)^dim_g, truncated.

    q tracks half the geometric degree, so the dim_g generators sit in
    degree 1 and the fundamental invariants in degrees m_i + 1.
    """
    require_int(truncation, "truncation", 1, None)
    factors = [geometric_series(1, truncation)] * dim_g
    series = product_truncated(factors, truncation)
    numerator = QPoly.one()
    for m in exponents:
        numerator = numerator * QPoly({0: 1, m + 1: -1})
    return (series * numerator).truncated(truncation)
