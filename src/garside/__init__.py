"""Conjugacy machinery for Garside groups of finite type.

Left normal forms over a pluggable structure descriptor, cyclic sliding,
sets of sliding circuits and the sliding circuits graph, with the
classical and band-generator structures on braid groups as the built-in
instances.
"""

from .core import (
    GarsideElement,
    GarsideStructure,
    conjugate,
    conjugate_simple,
    delta_power,
    from_simple,
    identity_element,
    inverse,
    left_normal_form,
    multiply,
    power,
)
from .artin import ArtinStructure, artin_structure
from .bkl import BKLStructure, bkl_structure

__all__ = [
    "ArtinStructure",
    "BKLStructure",
    "GarsideElement",
    "GarsideStructure",
    "artin_structure",
    "bkl_structure",
    "conjugate",
    "conjugate_simple",
    "delta_power",
    "from_simple",
    "identity_element",
    "inverse",
    "left_normal_form",
    "multiply",
    "power",
]
