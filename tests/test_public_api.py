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


def test_import_loads_no_hashlib_or_json():
    """The disk cache imports hashlib and json only when it is used, so a
    plain `import nilcone` in a fresh interpreter loads neither."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(nilcone.__file__)))
    script = ("import sys; before = set(sys.modules); import nilcone; "
              "print(' '.join(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("NILCONE_CACHE_DIR", None)
    child = subprocess.run([sys.executable, "-c", script], capture_output=True,
                           text=True, env=env, timeout=60, check=True)
    added = set(child.stdout.split())
    assert "nilcone" in added
    assert not added & {"hashlib", "_hashlib", "json"}, sorted(added)
