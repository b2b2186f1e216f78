"""Every memoised result of cmgate, in named stores (plain dicts).

The stores in DATA_DIR_STORES depend on the modular-polynomial data: each
CMGATE_DATA_DIR gets its own, so a change of the variable mid-process is
honoured.  The others, such as the traces and a field's trace classes, hold
no result that the data could change, and are shared.  Per-j results (the
trace, provider A's discriminant, provider B's confirmed roots) are keyed
by (p, k, least encoding in j's Frobenius orbit), for j in its minimal
field F_{p^k}; the neighbours of a volcano vertex stay keyed by the vertex.
Field contexts hold no lazy state: a field's distinguished generator and its
embedding matrices are stores here too, so clear_caches() drops them.
One lock policy: look up without the lock, compute outside it, and `publish`
by setdefault under the module lock, so that racing first calls get the
same object.
"""

from __future__ import annotations

import os
import threading

_DATA_DIR_DEFAULT = os.path.join(os.path.dirname(__file__), "data")
DATA_DIR_STORES = {"levels", "phi", "phi_mod", "neighbors", "disc", "hilbert", "hilbert_roots"}
_lock = threading.Lock()
_stores: dict = {}  # name, or (name, data dir) -> store


def data_dir() -> str:
    return os.environ.get("CMGATE_DATA_DIR", _DATA_DIR_DEFAULT)


def store(name: str) -> dict:
    """The store `name` for the current configuration."""
    key = (name, data_dir()) if name in DATA_DIR_STORES else name
    found = _stores.get(key)
    return publish(_stores, key, {}) if found is None else found


def publish(found: dict, key, value):
    """Enter value under key unless a racing call did first; the entry that stands."""
    with _lock:
        return found.setdefault(key, value)


def clear_caches() -> None:
    """Drop every derived result; field contexts stay interned (compared by `is`)."""
    with _lock:
        for key in [key for key in _stores if key != "ctx"]:
            del _stores[key]
