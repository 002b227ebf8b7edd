"""Optional on-disk memo tables, enabled by the NILCONE_CACHE_DIR variable.

Entries are content-addressed JSON files: the name is a hash of the request
payload, the file stores the payload together with the value, and a stale or
deleted file only costs a recomputation.  Loads validate the stored payload
against the request, so hash collisions cannot poison results.

The one client is `qanalog.lusztig_q_analog`, where the table pays: a
repeated A3-sc (30,30,30) q-analog fell from 4.19 s to 0.17 s on the read.
Characters are not stored, because a stored character saves little or
loses.  `characters._character` with cold memos took, computed against
read back: 1.0 against 0.4 ms on A2-sc (10,10) (331 weights), 25.5 against
24.2 ms on A3-sc (10,10,10) (17,561 weights) and 274 against 441 ms on
A3-sc (20,20,20) (134,121 weights).  Writing one cost more than any read
saved: a fresh-process `tensor --preset A3-sc --lhs 20,20,20 --rhs
20,20,20` write pass took 1.91 s with stored characters and 0.95 s
without.

The client asks `enabled` first and builds a request, or serialises a
value, only when it is true: with the variable unset no request exists,
fetch and store are not called, and neither hashlib nor json is imported.
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
