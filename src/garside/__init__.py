"""Conjugacy machinery for Garside groups of finite type.

Left normal forms and lattice operations over a pluggable structure
descriptor, cyclic sliding and transport, sets of sliding circuits and
the sliding circuits graph, with the classical and band-generator
structures on braid groups as the built-in instances.
"""

from .core import (
    GarsideElement,
    GarsideStructure,
    ReverseStructure,
    conjugate,
    conjugate_simple,
    delta_power,
    from_simple,
    identity_element,
    inverse,
    join,
    left_normal_form,
    meet,
    multiply,
    power,
    prefix_leq,
    right_join,
    right_meet,
    suffix_geq,
)
from .artin import ArtinStructure, artin_structure
from .bkl import BKLStructure, bkl_structure

__all__ = [
    "ArtinStructure",
    "BKLStructure",
    "GarsideElement",
    "GarsideStructure",
    "ReverseStructure",
    "artin_structure",
    "bkl_structure",
    "conjugate",
    "conjugate_simple",
    "delta_power",
    "from_simple",
    "identity_element",
    "inverse",
    "join",
    "left_normal_form",
    "meet",
    "multiply",
    "power",
    "prefix_leq",
    "right_join",
    "right_meet",
    "suffix_geq",
]
