import inspect
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import nilcone
from nilcone import build_datum, build_irrep, free_object
from nilcone.errors import ConfigurationError, DomainError, NilconeError


def test_every_export_resolves():
    """Each name in nilcone.__all__ is bound, once, and a star import
    binds all of them, so a stale export fails here rather than at a
    user's first import."""
    assert len(set(nilcone.__all__)) == len(nilcone.__all__)
    missing = [name for name in nilcone.__all__ if not hasattr(nilcone, name)]
    assert not missing, missing
    namespace = {}
    exec("from nilcone import *", namespace)
    assert set(nilcone.__all__) <= set(namespace)


def test_public_options_are_the_used_ones():
    """The only defaulted parameters of the public functions are the two
    that callers set to different values: the CLI's --dim-cap, and the
    truncation that tells the Hilbert sum route from the full graded
    multiplicity.  An option no caller sets is a constant instead."""
    functions = [getattr(nilcone, name) for name in nilcone.__all__]
    functions += [value for name, value in vars(nilcone.sl2).items()
                  if not name.startswith("_")
                  and getattr(value, "__module__", None) == "nilcone.sl2"]
    options = set()
    for fn in functions:
        # lru_cache wrappers count: signature reads through __wrapped__
        if callable(fn) and not isinstance(fn, type):
            options |= {name for name, param in
                        inspect.signature(fn).parameters.items()
                        if param.default is not param.empty}
    assert options == {"dim_cap", "truncation"}, sorted(options)


def _modules_added_by(statement):
    """The modules a fresh interpreter loads to run `statement`."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(nilcone.__file__)))
    script = ("import sys; before = set(sys.modules); %s; "
              "print(' '.join(sorted(set(sys.modules) - before)))" % statement)
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("NILCONE_CACHE_DIR", None)
    child = subprocess.run([sys.executable, "-c", script], capture_output=True,
                           text=True, env=env, timeout=60, check=True)
    return set(child.stdout.split())


def test_import_loads_only_what_a_call_uses():
    """`import nilcone` loads no module that only some calls use: not
    hashlib or json (the disk cache imports them when it is used), not
    fractions with decimal and numbers (only a Fraction argument or
    RootDatum.rho needs it) and not __future__.  `import nilcone.cli` adds
    only argparse and gettext; json waits for JSON output."""
    added = _modules_added_by("import nilcone")
    assert "nilcone" in added
    unused = {"hashlib", "_hashlib", "json", "fractions", "decimal",
              "_decimal", "numbers", "__future__"}
    assert not added & unused, sorted(added & unused)
    cli = {name for name in _modules_added_by("import nilcone.cli")
           if name != "nilcone" and not name.startswith("nilcone.")}
    assert cli <= {"argparse", "gettext"}, sorted(cli)


_A2 = build_datum("A2-sc")
_OBJECT = free_object([((1, 0), 0)])
# one argument of each call is `bad`, where a weight or a free object goes
NO_LENGTH = {
    "dominant_conjugate": lambda bad: _A2.dominant_conjugate(bad),
    "weyl_dimension": lambda bad: nilcone.weyl_dimension(_A2, bad),
    "lusztig_q_analog": lambda bad: nilcone.lusztig_q_analog(_A2, (1, 1), bad),
    "p_bk_polynomial": lambda bad: nilcone.p_bk_polynomial(_A2, (1, 1), bad),
    "build_irrep": lambda bad: build_irrep(_A2, bad),
    "bk_filtration": lambda bad: nilcone.bk_filtration(
        build_irrep(_A2, (1, 1)), bad),
    "irreducible_character":
        lambda bad: nilcone.irreducible_character(_A2, bad),
    "weight_multiplicity":
        lambda bad: nilcone.weight_multiplicity(_A2, (1, 1), bad),
    "dual_weight": lambda bad: nilcone.dual_weight(_A2, bad),
    "q_kostant": lambda bad: nilcone.q_kostant(_A2, bad),
    "graded_mult_in_nilcone":
        lambda bad: nilcone.graded_mult_in_nilcone(_A2, bad),
    "restrict_to_levi": lambda bad: nilcone.restrict_to_levi(_A2, (0,), bad),
    "adjunction_check": lambda bad: nilcone.adjunction_check(_A2, (1, 0), bad),
    "orlov_axiom_check":
        lambda bad: nilcone.orlov_axiom_check(_A2, bad, (1, 0), 0, 0),
    "free_object": lambda bad: free_object(bad),
    "tensor_decompose": lambda bad: nilcone.tensor_decompose(_A2, (1, 0), bad),
    "mixed_shift": lambda bad: nilcone.mixed_shift(bad, 1),
    "levi_pullback": lambda bad: nilcone.levi_pullback(_A2, (0,), bad),
    "hom_profile_kostant":
        lambda bad: nilcone.hom_profile_kostant(_A2, bad, _OBJECT),
    "verify_theorem_filtrations":
        lambda bad: nilcone.verify_theorem_filtrations(_A2, (1, 1), bad),
}


@pytest.mark.parametrize("bad", [5, None], ids=["int", "None"])
@pytest.mark.parametrize("name", sorted(NO_LENGTH))
def test_argument_without_a_length_is_a_domain_error(name, bad):
    """A weight or free object that is no sequence is refused as one, not
    by a TypeError from len(), tuple() or iteration."""
    with pytest.raises(DomainError):
        NO_LENGTH[name](bad)


# the calls that leaked a TypeError or an AttributeError before every
# public function checked its arguments on entry
LEAKS = {
    "structure_sheaf": lambda: nilcone.structure_sheaf(None),
    "principal_e": lambda: nilcone.principal_e(_A2),
    "centralizer_and_exponents": lambda: nilcone.centralizer_and_exponents(5),
    "centralizer_and_exponents, unhashable":
        lambda: nilcone.centralizer_and_exponents({}),
    "mixed_shift": lambda: nilcone.mixed_shift(_OBJECT, None),
    "mixed_shift, float": lambda: nilcone.mixed_shift(_OBJECT, 1.5),
    "table_rows, labels": lambda: nilcone.sl2.table_rows(("standard",), 5),
    "table_rows, kinds": lambda: nilcone.sl2.table_rows(None, [0]),
    "table_rows, unhashable kind":
        lambda: nilcone.sl2.table_rows([[1, 0]], [0]),
    "convolve_class": lambda: nilcone.sl2.convolve_class(None, 2),
    "convolve_class, str multiplicity":
        lambda: nilcone.sl2.convolve_class({0: "ab"}, 2),
    "euler_characteristic": lambda: nilcone.sl2.euler_characteristic("ab"),
    "simple_in_costandard": lambda: nilcone.sl2.simple_in_costandard(2, [1]),
}


@pytest.mark.parametrize("name", sorted(LEAKS))
def test_former_leaks_are_domain_errors(name):
    with pytest.raises(DomainError):
        LEAKS[name]()


@pytest.mark.parametrize("preset", [{}, [1], None, 5, b"A2-sc"])
def test_build_datum_refuses_what_is_no_preset_name(preset):
    with pytest.raises(ConfigurationError):
        build_datum(preset)


_REP = build_irrep(_A2, (1, 1))
# one well-formed call of every public function, all of them small: the
# fuzz test below swaps one argument for a malformed value
WELL_FORMED = {
    "build_datum": ("A2-sc",),
    "supported_presets": (),
    "weight_multiplicity": (_A2, (1, 1), (0, 0)),
    "irreducible_character": (_A2, (1, 0)),
    "tensor_decompose": (_A2, (1, 0), (0, 1)),
    "restrict_to_levi": (_A2, (0,), (1, 1)),
    "weyl_dimension": (_A2, (1, 1)),
    "dual_weight": (_A2, (1, 0)),
    "q_kostant": (_A2, (1, 1)),
    "lusztig_q_analog": (_A2, (1, 1), (0, 0)),
    "p_bk_polynomial": (_A2, (1, 1), (1, -2)),
    "graded_mult_in_nilcone": (_A2, (1, 1), 4),
    "hilbert_series_nilcone": (_A2, 4),
    "build_irrep": (_A2, (1, 1), 400),
    "principal_e": (_REP,),
    "centralizer_and_exponents": (_A2,),
    "bk_filtration": (_REP, (0, 0)),
    "verify_theorem_filtrations": (_A2, (1, 1), (0, 0), 400),
    "poincare_gr": (_A2, 4),
    "free_object": ([((1, 0), 0)],),
    "structure_sheaf": (_A2,),
    "hom_profile_kostant": (_A2, _OBJECT, _OBJECT),
    "hom_profile_slice": (_A2, _OBJECT, _OBJECT, 400),
    "adjunction_check": (_A2, (1, 0), (0, 1)),
    "orlov_axiom_check": (_A2, (1, 0), (1, 0), 0, 0),
    "mixed_shift": (_OBJECT, 1),
    "levi_pullback": (_A2, (0,), _OBJECT),
    "sl2.standard_class": (2,),
    "sl2.costandard_class": (-2,),
    "sl2.projective_class": (2,),
    "sl2.simple_in_costandard": (2, -2),
    "sl2.standard_in_projective": (2, -4),
    "sl2.convolve_ic": (-4, 2),
    "sl2.convolve_class": ({0: 1, -2: 2}, 2),
    "sl2.convolve_ic_recursive": (-4, 2),
    "sl2.resolution_term": (-3,),
    "sl2.hom_complex_profile": (0, (-2, 0)),
    "sl2.hom_complex_pattern": (0,),
    "sl2.euler_characteristic": ({0: 1, -1: 2},),
    "sl2.table_rows": (("standard", "projective"), [0, 2]),
}


def _public_functions():
    """{name: function} over nilcone.__all__ and nilcone.sl2, classes and
    modules left out."""
    found = {name: getattr(nilcone, name) for name in nilcone.__all__}
    found.update(("sl2." + name, value)
                 for name, value in vars(nilcone.sl2).items()
                 if not name.startswith("_")
                 and getattr(value, "__module__", None) == "nilcone.sl2")
    return {name: fn for name, fn in found.items()
            if callable(fn) and not isinstance(fn, type)}


def test_every_public_function_has_a_well_formed_call():
    functions = _public_functions()
    assert set(WELL_FORMED) == set(functions)
    for name, args in WELL_FORMED.items():
        functions[name](*args)


# malformed values by type and shape only: well-formed sizes stay small,
# because no route caps its work by size yet
_SMALL = st.integers(-3, 3)
_ENTRY = st.one_of(_SMALL, st.booleans(), st.floats(allow_nan=True),
                   st.fractions(-3, 3, max_denominator=3),
                   st.none(), st.text("ab,1", max_size=2))
MALFORMED = st.one_of(
    st.sampled_from([None, 5, "ab", "1,0", [1], (1, 2, 3), (True, 0),
                     (1.5, 0), ((1,), 0), {}, (-1, 0), [[1, 0]], b"xy",
                     float("nan")]),
    _ENTRY, st.binary(max_size=3),
    st.lists(_ENTRY, max_size=4).map(tuple),
    st.lists(st.tuples(st.lists(_SMALL, max_size=3).map(tuple), _ENTRY),
             max_size=2),
    st.tuples(st.tuples(_ENTRY, _ENTRY), _ENTRY),
    st.dictionaries(_ENTRY, _ENTRY, max_size=2))


@pytest.mark.parametrize("name", sorted(WELL_FORMED))
@settings(max_examples=30)
@given(position=st.integers(0, 4), bad=MALFORMED)
def test_public_functions_return_or_raise_a_nilcone_error(name, position,
                                                          bad):
    """Any argument swapped for a malformed value gives a result or a
    NilconeError: never a TypeError, an AttributeError or another
    exception from inside."""
    args = list(WELL_FORMED[name])
    if not args:
        return
    args[position % len(args)] = bad
    try:
        _public_functions()[name](*args)
    except NilconeError:
        pass
