"""Exact invariant theory of finite complex reflection groups.

Subpackages build on each other roughly bottom-up:

    scalars        rationals, cyclotomic field arithmetic, polynomials
    linalg         exact row reduction, kernels, solving
    mpoly          sparse multivariate polynomials and group actions
    groups         matrix groups, reflections, hyperplanes, orbits on
                   indices (conjugacy classes), normaliser test, catalog
    harmonics      invariants, Molien series, harmonic spaces
    rootdata       crystallographic root systems for the counting layer
    factorisation  tensor factorisation of harmonics along a subgroup
    characters     exact character tables and graded characters
    weyl           rational point counts for twisted flag quotients
    cli            command line front end
"""

__version__ = "0.1.0"
