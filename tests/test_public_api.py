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
