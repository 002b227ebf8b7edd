"""Characters of the small-rank groups: weight multiplicities, tensor
product decomposition and branching to Levi subgroups.

A character is a dict mapping weight tuples to integer multiplicities.
Decompositions are dicts mapping dominant weight tuples to nonnegative
multiplicities.  Tensor products and branching both go through
one Brauer-Klimyk rule (`_brauer`; Humphreys, GTM 9, §24): for a W-invariant
chi, ch V_lam * chi = sum over the weights nu of chi of chi(nu) sign(w)
ch V_{w.(lam + nu)}, with w.mu = w(mu + rho) - rho the dot action, so no
product character is built and no constituent's character is expanded.
"""

from functools import lru_cache

from . import cache
from .errors import DomainError, require_dominant, require_weight
from .roots import _dot, _vec_add, _vec_sub, _vec_scale


def weyl_dimension(datum, lam):
    """dim V_lam by Weyl's product formula over the positive roots,
    prod <lam + rho, alpha-check> / <rho, alpha-check>, with every factor
    doubled so that numerator and denominator are integers."""
    return _weyl_dim(datum, require_dominant(datum, lam))


def _weyl_dim(datum, lam):
    """weyl_dimension for a lam known to be dominant, over the datum's
    precomputed (coroot, <2rho, coroot>) factors."""
    num = 1
    for coroot, shift in datum.dim_factors:
        num *= 2 * _dot(lam, coroot) + shift
    dim, remainder = divmod(num, datum.dim_denominator)
    assert remainder == 0 and dim > 0
    return dim


def _dominant_weights_below(datum, lam):
    """All dominant mu with lam - mu a nonnegative root combination.

    Each is reached from lam by steps mu -> mu - alpha, alpha > 0, through
    dominant weights only (J. R. Stembridge, "The partial order of dominant
    weights", Adv. Math. 136, 1998), so a step is kept when it lands on a
    dominant weight, with no walk to the dominant chamber and no solve."""
    roots = [root.weight for root in datum.positive_roots()]
    found = {lam}
    frontier = [lam]
    while frontier:
        nxt = []
        for mu in frontier:
            for alpha in roots:
                nu = _vec_sub(mu, alpha)
                if nu not in found and datum.is_dominant(nu):
                    found.add(nu)
                    nxt.append(nu)
        frontier = nxt
    return found


def weight_multiplicity(datum, lam, mu):
    """dim of the mu weight space of V_lam, read from the one-pass
    Freudenthal table of the dominant multiplicities of V_lam."""
    lam = require_dominant(datum, lam)
    mu = datum.dominant_representative(require_weight(datum, mu))
    return _dominant_mults(datum, lam).get(mu, 0)


@lru_cache(maxsize=None)
def _dominant_mults(datum, lam):
    """{mu: m(mu)} over the dominant weights mu of V_lam, by Freudenthal's
    formula (Humphreys, GTM 9, §22.3) in one pass down <mu, 2rho-check>.

    The formula sums m(mu + k alpha)(mu + k alpha, alpha) over alpha > 0 and
    k >= 1, i.e. T(mu + alpha, alpha) with T(nu, beta) the sum over k >= 0
    of m(nu + k beta)(nu + k beta, beta).  The string sum telescopes,
    T(nu, beta) = m(nu)(nu, beta) + T(nu + beta, beta), and T(w nu, w beta)
    = T(nu, beta) for w in W, so `tails` keys T on (w nu, w beta) for the w
    of simple reflections that makes nu dominant, and each (weight, root)
    pair costs O(1).  One loop walks each string up from mu + beta only to
    the first point whose T is known or that is no weight, above which none
    is: the string through a weight is unbroken, and the point lies above
    one.  (nu, beta) is d_beta <nu, beta-check>, from the precomputed
    (beta, beta-check, d_beta) of each positive root, which on a Levi datum
    are the Levi's own.  Every multiplicity T reads sits strictly higher in
    the pass.
    """
    roots = [(root.weight, root.coroot, root.length_sq_half)
             for root in datum.positive_roots()]
    simple_pairs = datum.simple_pairs
    mults = {}
    tails = {}
    for mu in sorted(_dominant_weights_below(datum, lam),
                     key=datum.pair_2rho_check, reverse=True):
        if mu == lam:
            mults[mu] = 1
            continue
        total = 0
        for beta, coroot, d in roots:
            nu = _vec_add(mu, beta)
            pending = []
            while True:
                # (w nu, w beta), one simple reflection at a time
                key_nu, key_beta = nu, beta
                while True:
                    for check, alpha in simple_pairs:
                        c = _dot(key_nu, check)
                        if c < 0:
                            key_nu = _vec_sub(key_nu, _vec_scale(c, alpha))
                            key_beta = _vec_sub(key_beta, _vec_scale(
                                _dot(key_beta, check), alpha))
                            break
                    else:
                        break
                key = key_nu, key_beta
                tail = tails.get(key)
                if tail is not None:
                    break
                m = mults.get(key_nu)
                if m is None:
                    tail = 0
                    break
                pending.append((key, m * d * _dot(nu, coroot)))
                nu = _vec_add(nu, beta)
            for key, term in reversed(pending):
                tail += term
                tails[key] = tail
            total += tail
        # denominator |lam+rho|^2 - |mu+rho|^2 = B(lam+mu+2rho, lam-mu)
        lam_mu_2rho = _vec_add(_vec_add(lam, mu), datum.two_rho)
        denom = datum.inner_product_with_root_vector(
            lam_mu_2rho, datum.root_coordinates(_vec_sub(lam, mu)))
        value, remainder = divmod(2 * total, denom)
        assert remainder == 0
        mults[mu] = value
    return mults


def irreducible_character(datum, lam):
    """Full weight multiset of V_lam as a dict weight -> multiplicity."""
    return dict(_character(datum, require_dominant(datum, lam)))


@lru_cache(maxsize=None)
def _character(datum, lam):
    dim = weyl_dimension(datum, lam)
    char = request = None
    if cache.enabled():
        request = {"op": "irreducible_character", "format": 1,
                   "preset": datum.name, "weight": list(lam)}
        char = _stored_character(datum, cache.fetch(request), dim)
    if char is None:
        char = {}
        for dom, m in _dominant_mults(datum, lam).items():
            for w in datum.weyl_elements():
                char[w.apply(dom)] = m
        if request is not None:
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
        for coroot, root in datum.simple_pairs:
            c = _dot(weight, coroot) + 1
            if c == 0:
                return None
            if c < 0:
                weight = _vec_sub(weight, _vec_scale(c, root))
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


def tensor_decompose(datum, lam, mu):
    """Multiplicities of each V_nu inside V_lam tensor V_mu."""
    return tensor_decompose_on(datum, {require_dominant(datum, lam): 1},
                               {require_dominant(datum, mu): 1})


def dual_weight(datum, lam):
    """Highest weight of the dual module: -w0(lam)."""
    lam = require_dominant(datum, lam)
    return tuple(-c for c in datum.longest_element().apply(lam))


def restrict_to_levi(datum, subset, lam):
    """Decompose V_lam over the Levi spanned by the given simple indices."""
    lam = require_dominant(datum, lam)
    return dict(_restrict(datum, datum.levi(subset), lam))


@lru_cache(maxsize=None)
def _restrict(datum, levi, lam):
    """The branching of V_lam to levi, memoised on the Levi object (one
    per subset): no larger than the memoised character it restricts."""
    out = _brauer(levi, {(0,) * datum.weight_dim: 1}, _character(datum, lam))
    total = sum(m * _weyl_dim(levi, nu) for nu, m in out.items())
    assert total == _weyl_dim(datum, lam)
    return out


def tensor_decompose_on(datum, entries_a, entries_b):
    """Tensor product of two decompositions, summed with multiplicities:
    side b's characters are summed once and side a is decomposed against
    that sum by the Brauer-Klimyk rule."""
    dim_a = sum(mult * weyl_dimension(datum, lam)
                for lam, mult in entries_a.items())
    char_b = {}
    for lam, mult in entries_b.items():
        for w, m in _character(datum, require_dominant(datum, lam)).items():
            char_b[w] = char_b.get(w, 0) + mult * m
    out = _brauer(datum, entries_a, char_b)
    total = sum(m * _weyl_dim(datum, nu) for nu, m in out.items())
    assert total == dim_a * sum(char_b.values())
    return out


def restrict_decomposition(datum, subset, entries):
    """Apply restrict_to_levi to a whole decomposition list."""
    out = {}
    for lam, mult in entries.items():
        for nu, m in restrict_to_levi(datum, subset, lam).items():
            out[nu] = out.get(nu, 0) + mult * m
    return {k: v for k, v in out.items() if v}


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
    lam = require_dominant(datum, lam)
    # exponents are shifted by -rho so that all of them lie in the lattice:
    # w(lam + rho) - rho = w(lam) + (w(rho) - rho)
    quotient = {}
    for w in datum.weyl_elements():
        key = _vec_add(w.apply(lam), w.rho_shift)
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
