"""Binary decision diagrams with complement edges and sifting reordering.

The package exposes:

* :class:`BddManager` — the ROBDD manager (edges are plain integers).
* :func:`sift`, :func:`maybe_sift`, :func:`swap_adjacent` — dynamic variable
  reordering.
* :func:`transfer` — rebuild a BDD in another manager.
"""

from .manager import BddManager
from .reorder import maybe_sift, sift, swap_adjacent
from .transfer import transfer

__all__ = ["BddManager", "maybe_sift", "sift", "swap_adjacent", "transfer"]
