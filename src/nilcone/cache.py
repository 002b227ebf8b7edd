"""Optional on-disk memo tables, enabled by the NILCONE_CACHE_DIR variable.

Entries are content-addressed JSON files: the name is a hash of the request
payload, the file stores the payload together with the value, and a stale or
deleted file only costs a recomputation.  Loads validate the stored payload
against the request, so hash collisions cannot poison results.

Callers ask `enabled` first and build a request, or serialise a value, only
when it is true: with the variable unset no request exists, and fetch and
store are not called, and neither hashlib nor json is imported.
"""

import os


def _cache_dir():
    return os.environ.get("NILCONE_CACHE_DIR")


def enabled():
    """Whether NILCONE_CACHE_DIR names a cache directory."""
    return bool(_cache_dir())


def _path_for(payload):
    import hashlib
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return os.path.join(_cache_dir(), digest + ".json")


def fetch(request):
    """Return the cached value for a JSON-able request, or None."""
    if not _cache_dir():
        return None
    import json
    payload = json.dumps(request, sort_keys=True)
    path = _path_for(payload)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            blob = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(blob, dict) or blob.get("request") != request:
        return None
    return blob.get("value")


def store(request, value):
    """Persist a value; failures are silently ignored (pure-cache contract)."""
    directory = _cache_dir()
    if not directory:
        return
    import json
    payload = json.dumps(request, sort_keys=True)
    try:
        os.makedirs(directory, exist_ok=True)
        tmp = _path_for(payload) + ".tmp.%d" % os.getpid()
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"request": request, "value": value}, fh, sort_keys=True)
        os.replace(tmp, _path_for(payload))
    except OSError:
        pass
