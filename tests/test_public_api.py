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
