"""Exact bookkeeping for supercuspidal unipotent representations.

The package enumerates, for an unramified reductive p-adic group given by
combinatorial data, the maximal parahoric supports of cuspidal unipotent
representations, the matching unramified discrete parameters, and the packet
invariants tying the two sides together.  All arithmetic is exact: rational
functions in q^(1/2) with integer coefficients, Frobenius eigenvalues as
integer pairs (order, residue), and finite abelian groups in
invariant-factor form.  Cyclo, the cyclotomic field element, is kept only
as the tests' reference for the eigenvalue arithmetic.
"""

from supercusp.exact import RatFunc, Cyclo, FiniteAbelianGroup

__version__ = "0.1.0"

__all__ = ["RatFunc", "Cyclo", "FiniteAbelianGroup", "__version__"]
