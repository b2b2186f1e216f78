"""cmgate: CM orders, class polynomials mod p, isogeny volcanoes, and the
finite-field theorem gates built on top of them."""

from ._cache import clear_caches  # noqa: F401

__version__ = "0.1.0"
