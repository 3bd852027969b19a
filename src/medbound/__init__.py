"""Rigorous free-energy lower bounds for quantum spin systems.

The package minimizes a local relaxation of the free energy over families of
reduced density matrices whose entropy is accounted for through per-site
conditional entropies on Markov shields (`medbound.med`). It also solves the
dual fixed-point (belief propagation) equations on chains
(`medbound.bpdual`) and provides exact small-system oracles
(`medbound.oracle`). States and Hamiltonians are plain arrays throughout;
`medbound.opalg` holds the kernels they share, and `medbound.lattice` builds
the cluster geometries.
"""

__version__ = "0.1.0"
