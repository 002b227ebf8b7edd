import inspect
import os
import subprocess
import sys

import nilcone


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
