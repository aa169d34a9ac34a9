"""Conversion strategies (Section 2.1.2).

Three ways to keep a source program working after restructuring:

* :mod:`repro.strategies.emulation` -- DML emulation: "preserves the
  behavior of the application program by intercepting the individual
  DML calls at execution time and invoking equivalent DML calls to the
  restructured database" (the Honeywell Task 609 design);
* :mod:`repro.strategies.bridge` -- bridge programs: "the source
  application program's access requirements are supported by
  dynamically reconstructing from the target database that portion of
  the source database needed", with updates reflected back through
  :mod:`repro.strategies.differential` files (Severance & Lohman);
* :mod:`repro.strategies.rewrite` -- the Figure 4.1 pipeline
  ("rewriting the application programs ... to take advantage of the
  restructured database"), which the paper argues avoids both the
  efficiency and the restrictiveness drawbacks.

All three expose :class:`~repro.strategies.base.StrategyRun` results
over a shared metrics object so E5 compares like with like.
"""

from repro.strategies.base import ConversionStrategy, StrategyRun
from repro.strategies.emulation import EmulationStrategy, EmulatedDMLSession
from repro.strategies.bridge import BridgeStrategy
from repro.strategies.cascade import FallbackCascade
from repro.strategies.differential import DifferentialFile, DifferentialEntry
from repro.strategies.rewrite import RewriteStrategy

__all__ = [
    "ConversionStrategy",
    "StrategyRun",
    "EmulationStrategy",
    "EmulatedDMLSession",
    "BridgeStrategy",
    "FallbackCascade",
    "DifferentialFile",
    "DifferentialEntry",
    "RewriteStrategy",
]
