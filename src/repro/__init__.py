"""repro — shared whiteboard models for distributed graph computation.

A full reimplementation of

    Becker, Kosowski, Matamala, Nisse, Rapaport, Suchan, Todinca.
    *Allowing each node to communicate only once in a distributed
    system: shared whiteboard models.*  SPAA 2012; journal version
    Distributed Computing 28(3), 2015.

Layout
------
``repro.graphs``      labeled graphs, families, reference algorithms
``repro.encoding``    bit-exact message codec, power-sum codes (Thm 2)
``repro.core``        the four models, adversaries, round simulator
``repro.protocols``   the paper's protocols (Thms 2, 5, 7, 9, 10, ...)
``repro.reductions``  Lemma 3 counting, Figure 1/2 gadgets, compilers
``repro.hierarchy``   Lemma 4 adapters, the Table 2 lattice
``repro.runtime``     execution plans (the one run loop), serial/process backends
``repro.analysis``    verification harness, Table 2 / figure regeneration

Quickstart
----------
>>> from repro import graphs, core, protocols
>>> g = graphs.random_k_degenerate(20, 3, seed=1)
>>> result = core.run(g, protocols.DegenerateBuildProtocol(3),
...                   core.SIMASYNC, core.RandomScheduler(0))
>>> result.output == g
True
"""

from . import (
    analysis,
    core,
    encoding,
    experiments,
    graphs,
    hierarchy,
    protocols,
    reductions,
    runtime,
)

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "experiments",
    "core",
    "encoding",
    "graphs",
    "hierarchy",
    "protocols",
    "reductions",
    "runtime",
    "__version__",
]
