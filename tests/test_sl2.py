import json
from pathlib import Path

import pytest

from nilcone.errors import DomainError
from nilcone.roots import build_datum
from nilcone.characters import tensor_decompose
from nilcone.sl2 import (standard_class, costandard_class, projective_class,
                         convolve_ic, convolve_ic_recursive, convolve_class,
                         resolution_term, hom_complex_profile,
                         hom_complex_pattern, euler_characteristic,
                         standard_in_projective, simple_in_costandard,
                         table_rows)

GOLDEN = json.loads((Path(__file__).parent / "data" /
                     "sl2_boxed_tables.json").read_text())


def test_orbit_labels_are_even_ints():
    # no odd int, float, bool, string or None
    for bad in (3, 2.0, True, False, "2", None):
        for build in (standard_class, costandard_class, projective_class,
                      hom_complex_pattern):
            with pytest.raises(DomainError):
                build(bad)


def test_flag_tables_compare_unequal_to_other_objects():
    table = standard_class(2)
    assert table == standard_class(2)
    assert table != costandard_class(2)
    assert not table == 5
    assert table != 5
    assert table not in [None, 3]
    assert table in [None, standard_class(2)]


def _layers_from_golden(layers):
    return [{int(k): v for k, v in layer.items()} for layer in layers]


def test_standard_tables_match_golden():
    for label, layers in GOLDEN["standard"].items():
        assert standard_class(int(label)).layers == _layers_from_golden(layers)


def test_costandard_tables_match_golden():
    for label, layers in GOLDEN["costandard"].items():
        assert costandard_class(int(label)).layers == _layers_from_golden(layers)


def test_projective_tables_match_golden():
    for label, data in GOLDEN["projective"].items():
        table = projective_class(int(label))
        assert table.delta_flag == data["flag"]
        assert table.layers == _layers_from_golden(data["layers"])


def test_projective_jh_examples():
    assert projective_class(0).jh_multiset() == {0: 2, -2: 1}
    assert projective_class(2).jh_multiset() == {2: 2, -2: 1, -4: 1}
    assert projective_class(-2).jh_multiset() == {-2: 2, 0: 1, 2: 1}


def test_duality_jh_multisets():
    for n in range(-12, 14, 2):
        assert standard_class(n).jh_multiset() == \
            costandard_class(n).jh_multiset()


def test_bgg_reciprocity():
    for n in range(-40, 42, 2):
        for m in range(-40, 42, 2):
            assert standard_in_projective(n, m) == \
                simple_in_costandard(m, n), (n, m)


def test_convolution_table_cases():
    assert convolve_ic(2, 2) == {4: 1, 2: 1, 0: 1}
    assert convolve_ic(-4, 2) == {-6: 1, -4: 1, -2: 1}
    assert convolve_ic(-2, 2) == {-4: 1, -2: 1}
    assert convolve_ic(0, 6) == {6: 1}
    assert convolve_ic(6, 0) == {6: 1}
    with pytest.raises(DomainError):
        convolve_ic(2, -2)
    with pytest.raises(DomainError):
        convolve_ic(1, 2)
    for m, k in ((2.0, 2), (2, 2.0), (False, 2), (2, True)):
        for convolve in (convolve_ic, convolve_ic_recursive):
            with pytest.raises(DomainError):
                convolve(m, k)


def test_convolution_recursion_matches_closed_form():
    for m in range(-40, 42, 2):
        for k in range(0, 42, 2):
            assert convolve_ic(m, k) == convolve_ic_recursive(m, k), (m, k)
    # a long descent, whose base cases are A1-adj characters of large labels
    assert convolve_ic_recursive(-400, 0) == convolve_ic(-400, 0)


def test_convolution_two_proof_expansions_agree():
    # both expansions of the triple product through the label -2 (n >= 2:
    # the two-step identity for the left factor needs a genuine descent)
    for n in range(2, 42, 2):
        for k in range(0, 42, 2):
            via_right = {}
            for j, c in convolve_ic(n, k).items():
                for t, c2 in convolve_ic(-2, j).items():
                    via_right[t] = via_right.get(t, 0) + c * c2
            via_left = {}
            for start, cls in ((-n - 2, convolve_ic(-n - 2, k)),
                               (-n, convolve_ic(-n, k))):
                for t, c in cls.items():
                    via_left[t] = via_left.get(t, 0) + c
            assert via_right == via_left, (n, k)


def test_spherical_subtable_is_tensor_ring(a1_adj):
    for m in range(0, 22, 2):
        for k in range(0, 22, 2):
            dec = tensor_decompose(a1_adj, (m // 2,), (k // 2,))
            assert convolve_ic(m, k) == {2 * w[0]: c for w, c in dec.items()}


def test_resolution_terms():
    assert [resolution_term(j) for j in range(0, -7, -1)] == \
        [0, -2, 2, -4, 4, -6, 6]
    for bad in (1, -1.5, -2.0, False, "0", None):
        with pytest.raises(DomainError):
            resolution_term(bad)


def test_hom_complex_k0():
    eventual, exceptional = hom_complex_pattern(0)
    assert eventual == {-1: 1, 0: 2, 1: 1}
    assert exceptional == {0: {-1: 1, 0: 2}}
    assert euler_characteristic(eventual) == 0
    assert euler_characteristic(exceptional[0]) == 1


def test_hom_complex_k2():
    eventual, exceptional = hom_complex_pattern(2)
    assert eventual == {-3: 1, -2: 2, -1: 2, 0: 2, 1: 2, 2: 2, 3: 1}
    assert exceptional == {
        0: {-3: 1, -2: 2, -1: 1},
        -1: {-3: 1, -2: 2, -1: 2, 0: 2, 1: 1},
        -2: {-3: 1, -2: 2, -1: 2, 0: 2, 1: 2, 2: 2},
    }
    assert euler_characteristic(eventual) == 0
    assert euler_characteristic(exceptional[0]) == 0
    assert euler_characteristic(exceptional[-1]) == 0
    # six-term piece: lone cohomology in (even) degree 2
    assert euler_characteristic(exceptional[-2]) == 1


def test_hom_complex_profile_window():
    profiles = hom_complex_profile(0, (-4, 0))
    assert set(profiles) == {0, -1, -2, -3, -4}
    assert profiles[-2] == {-1: 1, 0: 2, 1: 1}
    assert profiles[0] == {-1: 1, 0: 2}
    for window in ((0.5, 0), (0, 0.5), (True, 0), (-2,), (-2, 0, 1), "ab",
                   None):
        with pytest.raises(DomainError):
            hom_complex_profile(0, window)


def test_convolve_class_linearity():
    cls = projective_class(0).jh_multiset()
    out = convolve_class(cls, 2)
    expected = {}
    for m, mult in cls.items():
        for j, c in convolve_ic(m, 2).items():
            expected[j] = expected.get(j, 0) + mult * c
    assert out == expected


@pytest.mark.parametrize("kinds", [("bogus",), ("standard", "bogus")])
def test_table_rows_rejects_unknown_kinds(kinds):
    with pytest.raises(DomainError, match="unknown object kind 'bogus'"):
        table_rows(kinds, [0])


def test_table_rows_shape():
    rows = table_rows(("projective",), [0])
    assert rows == [("projective", 0, 0, 0, 1),
                    ("projective", 0, 1, -2, 1),
                    ("projective", 0, 2, 0, 1)]
