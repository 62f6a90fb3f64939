"""Exact bookkeeping for supercuspidal unipotent representations.

The package enumerates, for an unramified reductive p-adic group given by
combinatorial data, the maximal parahoric supports of cuspidal unipotent
representations, the matching unramified discrete parameters, and the packet
invariants tying the two sides together.  All arithmetic is exact: every
function value (formal degree, volume, local factor) is a product
c * t^k * prod Phi_n(t)^(e_n) in t = q^(1/2) (CyclotomicProduct), Frobenius
eigenvalues are integer pairs (order, residue), and finite abelian groups
are in invariant-factor form (FiniteAbelianGroup).
"""

from supercusp.exact import CyclotomicProduct, FiniteAbelianGroup

__version__ = "0.1.0"

__all__ = ["CyclotomicProduct", "FiniteAbelianGroup", "__version__"]
