"""Rigorous free-energy lower bounds for quantum spin systems.

The package minimizes a local relaxation of the free energy over families of
reduced density matrices whose entropy is accounted for through per-site
conditional entropies on Markov shields. It also solves the dual fixed-point
(belief propagation) equations on chains and provides exact small-system
oracles.
"""

from medbound.opalg import (
    SiteSpace,
    HermitianOperator,
    DensityMatrix,
    Spectrum,
    eigh,
    matrix_exp,
    matrix_log,
    partial_trace,
    embed_local,
    vn_entropy,
    conditional_entropy,
    cmi,
    odot,
    trace_distance,
)

__version__ = "0.1.0"
