"""Desk-scale verification library for the GL(n) Kuznetsov trace formula machinery.

Submodules:
    combinatorics   exact composition / degree / orbit bookkeeping
    geometry        Iwasawa coordinates, Weyl conjugation, modular characters
    special         log-Gamma, the polynomial F_R, the bound function B, Gamma-ring decompositions
    mellin          Whittaker-Mellin transforms, recursion, shifts, residues
    testfunctions   spectral test functions p, h and the scaling integrals
    trace           Kloosterman sums, exponent calculators, spectral sums
    suite           verification-suite driver producing structured reports
    cli             command line front end (`kuznetsov-lab`)
"""

__version__ = "0.1.0"
