from itertools import combinations

import pytest
from hypothesis import settings

from nilcone.roots import build_datum, supported_presets

# every property test draws the same examples on every run and writes no
# example database; a test sets only its own max_examples
settings.register_profile("nilcone", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("nilcone")


@pytest.fixture(scope="session")
def a1():
    return build_datum("A1-sc")


@pytest.fixture(scope="session")
def a1_adj():
    return build_datum("A1-adj")


@pytest.fixture(scope="session")
def a2():
    return build_datum("A2-sc")


@pytest.fixture(scope="session")
def a2_adj():
    return build_datum("A2-adj")


@pytest.fixture(scope="session")
def b2():
    return build_datum("B2-sc")


@pytest.fixture(scope="session")
def g2():
    return build_datum("G2")


@pytest.fixture(scope="session")
def a3():
    return build_datum("A3-sc")


# every preset with each subset of its simple indices: the full subset
# stands for the preset, the others for its proper Levis
DATA_AND_LEVIS = [
    pytest.param(preset, subset, id="%s:%s" % (
        preset, "".join(map(str, subset)) or "torus"))
    for preset in supported_presets()
    for size in range(build_datum(preset).rank + 1)
    for subset in combinations(range(build_datum(preset).rank), size)]


def datum_or_levi(preset, subset):
    datum = build_datum(preset)
    return datum if len(subset) == datum.rank else datum.levi(subset)


def rho(datum):
    """rho, half the sum of the positive roots, in Fractions: half of the
    integer two_rho (Humphreys, GTM 9, §13.3).  The library computes with
    two_rho only; the oracles that shift by rho itself read it here."""
    from fractions import Fraction
    return tuple(Fraction(c, 2) for c in datum.two_rho)


def dim_from_pairing(datum, coords):
    """Weyl dimension from pairing coordinates (no lattice membership needed)."""
    from fractions import Fraction
    num = Fraction(1)
    den = Fraction(1)
    for root in datum.positive_roots():
        weightings = [Fraction(c * d) / root.length_sq_half
                      for c, d in zip(root.root_coords, datum.symmetrizers)]
        num *= sum(w * (c + 1) for w, c in zip(weightings, coords))
        den *= sum(weightings)
    return num / den


def dominant_weights_with_dim_cap(datum, cap):
    """All dominant lattice weights whose module dimension stays within cap.

    Enumerates pairing-coordinate boxes (where dominance is coordinatewise)
    and keeps the vectors that live in the preset's lattice.
    """
    from nilcone.errors import DomainError
    from nilcone.characters import weyl_dimension

    def grow(prefix):
        if len(prefix) == datum.rank:
            yield prefix
            return
        c = 0
        while True:
            probe = prefix + (c,) + (0,) * (datum.rank - len(prefix) - 1)
            if dim_from_pairing(datum, probe) > cap:
                break
            yield from grow(prefix + (c,))
            c += 1

    out = []
    for coords in grow(()):
        try:
            weight = datum.weight_from_pairing(coords)
        except DomainError:
            continue
        if weyl_dimension(datum, weight) <= cap:
            out.append(weight)
    return out
