"""Numerical stability analysis of closed spacelike hypersurfaces in de
Sitter space: curvature algebra, surface construction, weak-form operators,
the eigenvalue stability criterion, and finite-difference variation checks.

The package root exports nothing; import each name from its submodule, for
example ``from lorstab.variation import NormalVariation, flow``.
"""
