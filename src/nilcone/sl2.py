"""Iwahori-orbit combinatorics on the rank-one affine Grassmannian.

Orbits are labelled by even integers (the weight lattice of the adjoint
rank-one group is identified with 2Z, matching twice a fundamental weight
with 2; this display convention is local to this module).  The module
generates:

* composition series of standard, costandard and projective objects;
* the convolution table of simple classes, by a closed form and by the
  descent recursion through the label -2, cross-checked;
* the terms of the projective resolution of the skyscraper class;
* dimension profiles of the Hom complexes between that resolution and its
  convolutions with simple spherical classes.

Grothendieck-group reasoning is enough for every output: convolution with
a spherical simple class is exact, so composition multiplicities of a
convolution are the multiplicity-weighted sums of the simple convolution
classes.  Everything is generated; the boxed tables live only in test
golden files.
"""

from functools import lru_cache

from .errors import (require_choice, require_even, require_int,
                     require_int_map, require_items)
from .roots import build_datum
from .characters import tensor_decompose


class FlagTable:
    """Layers (top to bottom) of one standard/costandard/projective object."""

    __slots__ = ("kind", "label", "layers", "delta_flag")

    def __init__(self, kind, label, layers, delta_flag=None):
        self.kind = kind
        self.label = label
        self.layers = [dict(layer) for layer in layers]
        self.delta_flag = list(delta_flag) if delta_flag is not None else None

    def jh_multiset(self):
        out = {}
        for layer in self.layers:
            for n, m in layer.items():
                out[n] = out.get(n, 0) + m
        return out

    def rows(self):
        """(object, label, layer index, simple label, multiplicity) rows."""
        out = []
        for li, layer in enumerate(self.layers):
            for n in sorted(layer):
                out.append((self.kind, self.label, li, n, layer[n]))
        return out

    def __eq__(self, other):
        if not isinstance(other, FlagTable):
            return NotImplemented
        return (self.kind == other.kind and self.label == other.label
                and self.layers == other.layers
                and self.delta_flag == other.delta_flag)

    def __repr__(self):
        return "FlagTable(%r, %r, %r)" % (self.kind, self.label, self.layers)


def standard_class(n):
    require_even(n, "orbit label", None)
    if n == 0:
        return FlagTable("standard", 0, [{0: 1}])
    if n > 0:
        return FlagTable("standard", n, [{n: 1}, {-n: 1}])
    return FlagTable("standard", n, [{n: 1}, {-n - 2: 1}])


def costandard_class(n):
    require_even(n, "orbit label", None)
    if n == 0:
        return FlagTable("costandard", 0, [{0: 1}])
    if n > 0:
        return FlagTable("costandard", n, [{-n: 1}, {n: 1}])
    return FlagTable("costandard", n, [{-n - 2: 1}, {n: 1}])


def projective_class(n):
    require_even(n, "orbit label", None)
    if n >= 0:
        flag = [n, -n - 2]
    else:
        flag = [n, -n]
    layers = [dict(), dict(), dict()]
    top = standard_class(flag[0])
    bottom = standard_class(flag[1])
    layers[0] = dict(top.layers[0])
    middle = {}
    for src in (top.layers[1:], bottom.layers[:1]):
        for layer in src:
            for k, v in layer.items():
                middle[k] = middle.get(k, 0) + v
    layers[1] = middle
    layers[2] = dict(bottom.layers[1]) if len(bottom.layers) > 1 else {}
    layers = [layer for layer in layers if layer]
    return FlagTable("projective", n, layers, delta_flag=flag)


def simple_in_costandard(m, a):
    """[costandard_m : simple_a]."""
    require_even(a, "orbit label", None)
    return costandard_class(m).jh_multiset().get(a, 0)


def standard_in_projective(n, m):
    """[P_n : standard_m], read off the standard flag."""
    require_even(m, "orbit label", None)
    return projective_class(n).delta_flag.count(m)


# -- convolution -----------------------------------------------------------------

def convolve_ic(m, k):
    """Class of IC_m * IC_k (k spherical, i.e. k >= 0), closed form."""
    require_even(m, "orbit label", None)
    require_even(k, "spherical label", 0)
    if m >= 0:
        lo, hi = abs(m - k), m + k
    else:
        n = -m
        if n > k:
            lo, hi = -n - k, -n + k
        else:
            lo, hi = -n - k, n - k - 2
    return {j: 1 for j in range(lo, hi + 1, 2)}


def convolve_class(cls, k):
    """Extend convolve_ic linearly to a nonnegative combination of simples."""
    require_int_map(cls, "class")
    require_even(k, "spherical label", 0)
    out = {}
    for m, mult in cls.items():
        for j, c in convolve_ic(m, k).items():
            out[j] = out.get(j, 0) + mult * c
    return {j: v for j, v in out.items() if v}


def _spherical_convolution(n, k):
    """IC_n * IC_k for n, k >= 0, from the rank-one adjoint tensor ring."""
    dec = tensor_decompose(build_datum("A1-adj"), (n // 2,), (k // 2,))
    return {2 * w[0]: m for w, m in dec.items()}


def convolve_ic_recursive(m, k):
    """IC_m * IC_k by the descent recursion through label -2.

    Base cases: nonnegative m from the spherical tensor ring, and m = -2
    directly.  For m = -n-2 < -2 the class is obtained by convolving the
    two-step class of label -2 against IC_n * IC_k and removing IC_{-n} * IC_k.
    """
    require_even(m, "orbit label", None)
    require_even(k, "spherical label", 0)
    if m >= 0:
        return _spherical_convolution(m, k)
    if m == -2:
        # two-step base case: produced by the rank-one resolution geometry
        return {-2: 1} if k == 0 else {-k - 2: 1, -k: 1}
    return dict(_convolve_recursive(m, k))


@lru_cache(maxsize=None)
def _convolve_recursive(m, k):
    """The descent step of convolve_ic_recursive, for m < -2."""
    n = -m - 2
    left = {}
    for j, c in convolve_ic_recursive(n, k).items():
        for t, c2 in convolve_ic_recursive(-2, abs(j)).items():
            left[t] = left.get(t, 0) + c * c2
    for j, c in convolve_ic_recursive(-n, k).items():
        s = left.get(j, 0) - c
        if s < 0:
            raise AssertionError("recursion produced a negative multiplicity")
        if s:
            left[j] = s
        else:
            left.pop(j, None)
    return left


# -- projective resolution and Hom complexes --------------------------------------

def resolution_term(j):
    """Label of the degree-j term of the projective resolution (j <= 0)."""
    require_int(j, "resolution index", None, 0)
    if j == 0:
        return 0
    m = (-j + 1) // 2
    return 2 * m if (-j) % 2 == 0 else -2 * m


def hom_complex_profile(k, window):
    """Hom dimensions from the resolution into its convolution with IC_k.

    For each resolution index i in the int window (lo, hi), maps complex
    degree n to dim Hom(P^i, P^(i+n) * IC_k), by composition multiplicities.
    """
    require_even(k, "spherical label", 0)
    lo, hi = (require_int(t, "window end", None, None)
              for t in require_items(window, "window", 2))
    out = {}
    for i in range(min(hi, 0), lo - 1, -1):
        out[i] = _index_profile(k, i)
    return out


def _index_profile(k, i):
    # support is confined to |n| <= k + 1; scan with a margin
    a = resolution_term(i)
    profile = {}
    for n in range(-(k + 3), min(k + 3, -i) + 1):
        j = i + n
        if j > 0:
            continue
        cls = convolve_class(projective_class(resolution_term(j)).jh_multiset(), k)
        dim = cls.get(a, 0)
        if dim:
            profile[n] = dim
    return profile


def hom_complex_pattern(k):
    """(eventual per-index profile, exceptional prefix profiles).

    Profiles of deep resolution indices stabilize; the prefix collects the
    indices that differ from the stable pattern.  Indices 0 to -(k//2 + 6)
    are probed, and the two deepest must agree.
    """
    require_even(k, "spherical label", 0)
    depth = k // 2 + 6
    profiles = {i: _index_profile(k, i) for i in range(0, -depth - 1, -1)}
    deepest = profiles[-depth]
    assert profiles[-depth + 1] == deepest, \
        "profiles did not stabilize within the probe depth"
    exceptional = {}
    for i in range(0, -depth - 1, -1):
        if profiles[i] != deepest:
            exceptional[i] = profiles[i]
        elif all(profiles[t] == deepest for t in range(i, -depth - 1, -1)):
            break
    return deepest, exceptional


def euler_characteristic(profile):
    require_int_map(profile, "profile")
    return sum(d if n % 2 == 0 else -d for n, d in profile.items())


def table_rows(kinds, labels):
    """TSV-ready rows for the objects of the given kinds ("standard",
    "costandard", "projective") and labels.  DomainError on an unknown
    kind or label, before any row is built."""
    builders = {"standard": standard_class, "costandard": costandard_class,
                "projective": projective_class}
    kinds = [require_choice(kind, builders, "object kind")
             for kind in require_items(kinds, "object kinds", None)]
    labels = [require_even(n, "orbit label", None)
              for n in require_items(labels, "orbit labels", None)]
    rows = []
    for kind in kinds:
        for n in labels:
            rows.extend(builders[kind](n).rows())
    return rows
