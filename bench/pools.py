"""Input pools of the benchmark workloads, sampled from a seed.

Every pool is enumerated exhaustively, sorted by a cost proxy and cut into
as many consecutive blocks as items are wanted; the seed draws one item from
every block, and the workload's items are shuffled.  Two seeds therefore
draw different items with the same mix of sizes, which keeps run-to-run
spread low.  All randomness comes from `random.Random(seed)`; nothing
depends on `hash()` of a string.

Pools are built in the parent process, before any timed phase and outside
`setup_s`; the workers receive only the generated items.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

# Filtration sweep: every dominant weight up to this module dimension; 100
# of the 200 modules per run.
FILTRATION_PRESETS = ("A1-sc", "A2-sc", "B2-sc")
FILTRATION_DIM_CAP = 120
FILTRATION_SAMPLE = 100
# Dual-route Hom: the acceptance pool of the dual-route criterion, up to this
# product of dimensions, plus its deliberately larger stretch pairs; 430 of
# the 574 pairs per run.
HOM_PRODUCT_CAP = 150
HOM_SAMPLE = 430
HOM_STRETCH = {
    "A1-adj": (((5,), (6,)), ((10,), (10,)), ((0,), (30,))),
    "A2-sc": (((2, 2), (3, 1)), ((4, 0), (2, 2))),
}
# Character tables: (preset, pairing-coordinate box of highest weights,
# sample) for the q = 1 check, then the A2-sc tensor pairs and the Hilbert
# series items.  The item kinds differ in cost by orders of magnitude, so the
# samples are sized to put the median inside the narrow band of A3-sc checks
# and the 90th percentile in the middle of the tensor checks, not on the
# edge between two kinds.
QCHECKS = (("A2-adj", 6, 90), ("B2-sc", 5, 90), ("G2", 3, 90),
           ("A3-sc", 2, 320))
TENSOR_PAIRING_CAP = 12
TENSOR_SAMPLE = 180
HILBERT_ITEMS = (("A1-adj", 40), ("A2-adj", 20), ("B2-sc", 16), ("G2", 10),
                 ("A2-sc", 16))
CHARACTER_PRESETS = ("A3-sc", "G2", "B2-sc", "A2-adj", "A2-sc", "A1-adj")
# Smoke-test sizes: tiny pools that still reach every traced function.
TINY_DIM_CAP = 12
TINY_PRODUCT_CAP = 8
TINY_SAMPLE = 3


def stratified_sample(rng, items, count):
    """One random item from each of `count` consecutive blocks of `items`."""
    count = min(count, len(items))
    bounds = [len(items) * k // count for k in range(count + 1)]
    return [items[rng.randrange(bounds[k], bounds[k + 1])]
            for k in range(count)]


def dominant_weights(datum, cap):
    """(weight, dim V_weight) for every dominant lattice weight of dim <= cap.

    Pairing-coordinate boxes are grown by the Weyl dimension formula in
    coroot coordinates, which needs no lattice membership, and the vectors
    outside the preset's lattice are dropped afterwards.
    """
    from nilcone.errors import DomainError
    coroots = [[Fraction(c * d) / r.length_sq_half
                for c, d in zip(r.root_coords, datum.symmetrizers)]
               for r in datum.positive_roots()]

    def dim(coords):
        out = Fraction(1)
        for k in coroots:
            out *= sum(a * (c + 1) for a, c in zip(k, coords)) / sum(k)
        return out

    found = []

    def grow(prefix):
        if len(prefix) == datum.rank:
            if dim(prefix) <= cap:
                found.append(prefix)
            return
        c = 0
        pad = (0,) * (datum.rank - len(prefix) - 1)
        while dim(prefix + (c,) + pad) <= cap:
            grow(prefix + (c,))
            c += 1

    grow(())
    out = []
    for coords in found:
        try:
            out.append((datum.weight_from_pairing(coords), int(dim(coords))))
        except DomainError:
            continue
    return out


def filtration_items(rng, tiny=False):
    from nilcone import build_datum
    items = []
    for preset in FILTRATION_PRESETS:
        cap = TINY_DIM_CAP if tiny else FILTRATION_DIM_CAP
        weights = sorted(dominant_weights(build_datum(preset), cap),
                         key=lambda wd: (wd[1], wd[0]))
        items.extend([preset, list(w)] for w, _ in weights)
    return stratified_sample(rng, items,
                             TINY_SAMPLE if tiny else FILTRATION_SAMPLE)


def hom_items(rng, tiny=False):
    from nilcone import build_datum
    items = []
    for preset, stretch in HOM_STRETCH.items():
        cap = TINY_PRODUCT_CAP if tiny else HOM_PRODUCT_CAP
        weights = dominant_weights(build_datum(preset), cap)
        pairs = sorted((dl * dm, lam, mu) for lam, dl in weights
                       for mu, dm in weights if dl * dm <= cap)
        items.extend([preset, list(lam), list(mu)] for _, lam, mu in pairs)
        if not tiny:
            items.extend([preset, list(lam), list(mu)] for lam, mu in stretch)
    return stratified_sample(rng, items, TINY_SAMPLE if tiny else HOM_SAMPLE)


def _pairing_box(datum, bound):
    from nilcone.errors import DomainError
    for coords in itertools.product(range(bound + 1), repeat=datum.rank):
        try:
            yield datum.weight_from_pairing(coords)
        except DomainError:
            continue


def character_items(rng, tiny=False):
    from nilcone import build_datum, irreducible_character
    out = []
    for preset, bound, count in QCHECKS:
        datum = build_datum(preset)
        checks = [["q", preset, list(lam), list(mu)]
                  for lam in _pairing_box(datum, 1 if tiny else bound)
                  for mu in sorted(irreducible_character(datum, lam))]
        out.extend(stratified_sample(rng, checks, 1 if tiny else count))
    a2 = build_datum("A2-sc")
    cap = 2 if tiny else TENSOR_PAIRING_CAP
    weights = [w for w in _pairing_box(a2, cap) if a2.pair_2rho_check(w) <= cap]
    tensors = [["t", list(lam), list(mu)] for lam in weights for mu in weights
               if a2.pair_2rho_check(tuple(x + y for x, y in zip(lam, mu)))
               <= cap]
    out.extend(stratified_sample(rng, tensors, 1 if tiny else TENSOR_SAMPLE))
    out.extend(["h", p, 4 if tiny else t]
               for p, t in HILBERT_ITEMS[:2 if tiny else None])
    return out


def make_items(workload, seed, tiny=False):
    """The seeded item list of an in-process workload."""
    rng = random.Random(seed)
    items = {"filtration-sweep": filtration_items,
             "hom-routes": hom_items,
             "character-tables": character_items}[workload](rng, tiny)
    rng.shuffle(items)
    return items


PRESETS = {
    "filtration-sweep": FILTRATION_PRESETS,
    "hom-routes": tuple(HOM_STRETCH),
    "character-tables": CHARACTER_PRESETS,
}
