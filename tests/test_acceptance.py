"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines; each test
also asserts, so a plain pytest run is an equivalent gate.
"""

import random
import time
import zlib

import pytest

from nilcone.qpoly import QPoly
from nilcone.roots import build_datum
from nilcone.characters import (tensor_decompose, restrict_to_levi,
                                restrict_decomposition, tensor_decompose_on,
                                irreducible_character, weight_multiplicity,
                                weyl_dimension)
from nilcone.qanalog import (lusztig_q_analog, hilbert_series_nilcone,
                             hilbert_series_complete_intersection)
from nilcone.reps import (build_irrep, bk_profile_all_weights,
                          centralizer_and_exponents)
from nilcone.qanalog import p_bk_polynomial
from nilcone.homspaces import (free_object, hom_profile_kostant,
                               hom_profile_slice, adjunction_check,
                               orlov_axiom_check)
from nilcone import sl2

from conftest import dominant_weights_with_dim_cap


def _report(number, ok, text, elapsed):
    print("CRITERION %2d: %s — %s (%.1fs)" % (number, "PASS" if ok else "FAIL",
                                              text, elapsed))
    assert ok, "criterion %d failed: %s" % (number, text)


def _bullet_formula(m, k):
    # the three displayed cases, transcribed directly
    if m >= 0:
        n, kk = max(m, k), min(m, k)  # commutativity reduces to n >= k
        return {j: 1 for j in range(n - kk, n + kk + 1, 2)}
    n = -m
    if n > k:
        return {j: 1 for j in range(-n - k, -n + k + 1, 2)}
    return {j: 1 for j in range(-n - k, n - k - 1, 2)}


def test_criterion_1_convolution_table():
    t0 = time.time()
    ok = True
    for k in range(0, 42, 2):
        for m in range(-40, 42, 2):
            expected = _bullet_formula(m, k)
            if sl2.convolve_ic(m, k) != expected:
                ok = False
            if sl2.convolve_ic_recursive(m, k) != expected:
                ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 5.0
    _report(1, ok, "convolution bullets + recursion cross-check, |m|,k <= 40",
            elapsed)


def test_criterion_2_flag_tables_and_reciprocity():
    import json
    from pathlib import Path
    t0 = time.time()
    golden = json.loads((Path(__file__).parent / "data" /
                         "sl2_boxed_tables.json").read_text())
    ok = True
    for label, layers in golden["standard"].items():
        want = [{int(a): b for a, b in layer.items()} for layer in layers]
        ok = ok and sl2.standard_class(int(label)).layers == want
    for label, layers in golden["costandard"].items():
        want = [{int(a): b for a, b in layer.items()} for layer in layers]
        ok = ok and sl2.costandard_class(int(label)).layers == want
    for label, data in golden["projective"].items():
        table = sl2.projective_class(int(label))
        want = [{int(a): b for a, b in layer.items()} for layer in data["layers"]]
        ok = ok and table.layers == want and table.delta_flag == data["flag"]
    for n in range(-40, 42, 2):
        for m in range(-40, 42, 2):
            ok = ok and (sl2.standard_in_projective(n, m) ==
                         sl2.simple_in_costandard(m, n))
    elapsed = time.time() - t0
    ok = ok and elapsed < 1.0
    _report(2, ok, "boxed flag tables verbatim + reciprocity to |40|", elapsed)


def test_criterion_3_hom_complex_profiles():
    t0 = time.time()
    ev0, exc0 = sl2.hom_complex_pattern(0)
    ok = ev0 == {-1: 1, 0: 2, 1: 1} and exc0 == {0: {-1: 1, 0: 2}}
    ok = ok and sl2.euler_characteristic(exc0[0]) == 1
    ev2, exc2 = sl2.hom_complex_pattern(2)
    ok = ok and ev2 == {-3: 1, -2: 2, -1: 2, 0: 2, 1: 2, 2: 2, 3: 1}
    ok = ok and exc2 == {
        0: {-3: 1, -2: 2, -1: 1},
        -1: {-3: 1, -2: 2, -1: 2, 0: 2, 1: 1},
        -2: {-3: 1, -2: 2, -1: 2, 0: 2, 1: 2, 2: 2},
    }
    for piece in (ev0, ev2, exc2[0], exc2[-1]):
        ok = ok and sl2.euler_characteristic(piece) == 0
    ok = ok and sl2.euler_characteristic(exc2[-2]) == 1
    _report(3, ok, "Hom-complex patterns for k = 0 and k = 2, exact",
            time.time() - t0)


THEOREM_PRESETS = ("A1-sc", "A1-adj", "A2-sc", "B2-sc")


def test_criterion_4_filtration_theorem_sweep():
    t0 = time.time()
    ok = True
    checked = 0
    for preset in THEOREM_PRESETS:
        datum = build_datum(preset)
        for nu in dominant_weights_with_dim_cap(datum, 400):
            rep = build_irrep(datum, nu)
            profiles = bk_profile_all_weights(rep)
            for lam, profile in profiles.items():
                checked += 1
                if profile.graded_poly() != p_bk_polynomial(datum, nu, lam):
                    ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 300.0
    _report(4, ok, "kernel filtration = q-analog on %d weight spaces "
            "across %s" % (checked, ", ".join(THEOREM_PRESETS)), elapsed)


def _hom_pool(preset, product_cap=400, stretch=()):
    datum = build_datum(preset)
    weights = dominant_weights_with_dim_cap(datum, 400)
    pairs = []
    for lam in weights:
        for mu in weights:
            if weyl_dimension(datum, lam) * weyl_dimension(datum, mu) \
                    <= product_cap:
                pairs.append((lam, mu))
    pairs.extend(stretch)
    return datum, pairs


HOM_POOLS = {
    # beyond the product cap, a few deliberately larger pairs
    "A1-adj": [((5,), (6,)), ((10,), (10,)), ((0,), (30,))],
    "A2-sc": [((2, 2), (3, 1)), ((4, 0), (2, 2))],
}


def test_criterion_5_dual_route_hom_profiles():
    t0 = time.time()
    ok = True
    pairs_checked = 0
    for preset, stretch in HOM_POOLS.items():
        datum, pairs = _hom_pool(preset, stretch=stretch)
        for lam, mu in pairs:
            src = free_object([(lam, 0)])
            tgt = free_object([(mu, 0)])
            if hom_profile_kostant(datum, src, tgt) != \
                    hom_profile_slice(datum, src, tgt):
                ok = False
            pairs_checked += 1
    elapsed = time.time() - t0
    ok = ok and elapsed < 300.0
    _report(5, ok, "slice route == Kostant route on %d summand pairs"
            % pairs_checked, elapsed)


def test_criterion_6_hilbert_series():
    t0 = time.time()
    ok = True
    for preset in ("A1-adj", "A2-adj"):
        datum = build_datum(preset)
        _, exponents = centralizer_and_exponents(datum)
        dim_g = datum.rank + 2 * len(datum.positive_roots())
        summed = hilbert_series_nilcone(datum, 40)
        product = hilbert_series_complete_intersection(exponents, dim_g, 40)
        if summed != product:
            ok = False
    closed = QPoly({m: 2 * m + 1 for m in range(41)})
    if hilbert_series_nilcone(build_datum("A1-adj"), 40) != closed:
        ok = False
    _report(6, ok, "coordinate-ring series: sum route == product route "
            "through q^40; rank-one closed form", time.time() - t0)


Q1_SWEEPS = [("A1-sc", 4), ("A1-adj", 4), ("A2-sc", 4), ("A2-adj", 4),
             ("B2-sc", 4), ("G2", 2), ("A3-sc", 2)]


def test_criterion_7_q1_specialization_and_positivity():
    t0 = time.time()
    ok = True
    tested = 0
    for preset, bound in Q1_SWEEPS:
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
                poly = lusztig_q_analog(datum, lam, mu)
                tested += 1
                if poly.at_one() != weight_multiplicity(datum, lam, mu):
                    ok = False
                if datum.is_dominant(mu) and not poly.nonnegative():
                    ok = False
            off = tuple(c + 9 for c in lam)
            if off not in char and lusztig_q_analog(datum, lam, off).at_one() != 0:
                ok = False
    _report(7, ok, "q = 1 is the weight multiplicity and dominant-weight "
            "coefficients are nonnegative (%d pairs)" % tested,
            time.time() - t0)


def test_criterion_8_branching_ring_homomorphism():
    t0 = time.time()
    datum = build_datum("A2-sc")
    ok = True
    pairs = 0
    weights = [(a, b) for a in range(7) for b in range(7 - a)]
    subsets = [(), (0,), (1,)]
    for lam in weights:
        for mu in weights:
            if datum.pair_2rho_check(tuple(x + y for x, y in zip(lam, mu))) > 12:
                continue
            pairs += 1
            product = tensor_decompose(datum, lam, mu)
            for subset in subsets:
                levi = datum.levi(subset)
                lhs = restrict_decomposition(datum, subset, product)
                rhs = tensor_decompose_on(levi,
                                          restrict_to_levi(datum, subset, lam),
                                          restrict_to_levi(datum, subset, mu))
                if lhs != rhs:
                    ok = False
    _report(8, ok, "branching is a ring homomorphism (%d tensor pairs, "
            "both proper Levis and the torus)" % pairs, time.time() - t0)


ORLOV_PRESETS = ("A1-sc", "A1-adj", "A2-sc", "A2-adj", "A3-sc", "B2-sc", "G2")


def test_criterion_9_orlov_axioms():
    t0 = time.time()
    ok = True
    for preset in ORLOV_PRESETS:
        datum = build_datum(preset)
        rng = random.Random(zlib.crc32(preset.encode()))
        weights = dominant_weights_with_dim_cap(datum, 50)
        for _ in range(200):
            lam, mu = rng.choice(weights), rng.choice(weights)
            i, j = rng.randint(-6, 6), rng.randint(-6, 6)
            if not orlov_axiom_check(datum, lam, mu, i, j):
                ok = False
    _report(9, ok, "degree axioms on 200 random summand pairs per preset "
            "(%d presets)" % len(ORLOV_PRESETS), time.time() - t0)


def test_criterion_10_adjunction():
    t0 = time.time()
    ok = True
    pairs_checked = 0
    for preset, stretch in HOM_POOLS.items():
        datum, pairs = _hom_pool(preset, stretch=stretch)
        for lam, mu in pairs:
            if not adjunction_check(datum, lam, mu):
                ok = False
            pairs_checked += 1
    _report(10, ok, "tensor-hom adjunction on the criterion-5 pool "
            "(%d pairs)" % pairs_checked, time.time() - t0)
