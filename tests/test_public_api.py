import inspect
import os
import subprocess
import sys

import pytest

import nilcone
from nilcone import build_datum, build_irrep, free_object
from nilcone.errors import DomainError


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
    "levi_degree_shift":
        lambda bad: nilcone.levi_degree_shift(_A2, (0,), bad),
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
