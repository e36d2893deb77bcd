"""loxokit: numerics for spectra and dynamics around closed hyperbolic orbits.

Subpackages cover symplectic linear algebra and normal forms, Hamiltonian
flows with closed-orbit and control diagnostics, radial model spectra on a
hyperbolic cylinder, complex-absorbed model resolvents, and the damped wave
equation on a warped product.

Importing loxokit runs numpy's and scipy's bundled OpenBLAS on one thread
for the rest of the process (see _blas), and imports no solver module:
import each one by name (``from loxokit import flows``).
"""

from ._blas import pin_single_thread

pin_single_thread()

__version__ = "0.1.0"
