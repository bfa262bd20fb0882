"""Named registry of crypto group backends.

Every group the reproduction can run on has a stable name here, and all
construction flows through :func:`get_group`:

========================  ====================================================
name (aliases)            backend
========================  ====================================================
``schnorr``               pure-python :class:`~repro.crypto.group.SchnorrGroup`
                          (reference fallback; always available)
``schnorr-gmpy2``         gmpy2-accelerated Schnorr group
                          (:mod:`repro.crypto.gmpy2_backend`); degrades to the
                          pure-python backend when ``gmpy2`` is not installed
``secp256k1`` (``ec``)    short-Weierstrass curve cross-check backend
                          (:class:`~repro.crypto.group.EcGroup`)
========================  ====================================================

``get_group(name)`` without parameters returns a cached, process-wide shared
instance (safe now that the fixed-base caches are LRU-bounded); passing
parameters always constructs a fresh group.  ``CryptoProfile.backend`` in
:mod:`repro.api.spec` validates against this table, so scenario configs
and backend selection can never drift apart.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional, Tuple

from repro.crypto.group import EcGroup, Group, SchnorrGroup, default_group


def _make_schnorr(p: Optional[int] = None, g: Optional[int] = None) -> Group:
    if p is None and g is None:
        # Reuse the process-wide default so codec deserialization, fixtures
        # and engine runs all share one warm set of fixed-base tables.
        return default_group()
    return SchnorrGroup(p=p, g=g)


def _make_schnorr_gmpy2(p: Optional[int] = None, g: Optional[int] = None) -> Group:
    from repro.crypto.gmpy2_backend import make_gmpy2_group

    return make_gmpy2_group(p=p, g=g)


#: canonical name -> ``factory(**params)`` returning a :class:`Group`
_FACTORIES: Dict[str, Callable[..., Group]] = {
    "schnorr": _make_schnorr,
    "schnorr-gmpy2": _make_schnorr_gmpy2,
    "secp256k1": EcGroup,
}
_ALIASES: Dict[str, str] = {"ec": "secp256k1"}
#: shared instances for parameterless construction, keyed by canonical name
_INSTANCE_CACHE: Dict[str, Group] = {}
_LOCK = threading.Lock()


def resolve_backend_name(name: str) -> str:
    """Map a backend name or alias to its canonical registry name.

    Raises :class:`ValueError` (listing the registered names) for unknown
    backends -- this is the single validation point `CryptoProfile` uses.
    """
    key = name.lower()
    key = _ALIASES.get(key, key)
    if key not in _FACTORIES:
        known = ", ".join(sorted(_FACTORIES))
        raise ValueError(f"unknown crypto backend {name!r} (registered: {known})")
    return key


def available_backends() -> Tuple[str, ...]:
    """Canonical names of all registered backends, sorted."""
    return tuple(sorted(_FACTORIES))


def get_group(name: str = "schnorr", **params: object) -> Group:
    """Construct (or fetch the shared instance of) a registered backend.

    Parameterless calls return one cached instance per backend name -- the
    groups are immutable apart from their LRU-bounded precomputation caches,
    so sharing is safe and keeps fixed-base tables warm across the stack.
    Calls with explicit ``params`` always build a fresh group.
    """
    canonical = resolve_backend_name(name)
    if not params:
        with _LOCK:
            cached = _INSTANCE_CACHE.get(canonical)
        if cached is not None:
            return cached
    group = _FACTORIES[canonical](**params)
    if group.backend_name is None:
        group.backend_name = canonical
    if not params:
        with _LOCK:
            group = _INSTANCE_CACHE.setdefault(canonical, group)
    return group
