"""The Figure 4.1 database program conversion framework.

Every box in the paper's architecture diagram is a module here:

===========================  =========================================
Figure 4.1 box               module
===========================  =========================================
Conversion Analyzer          :mod:`repro.core.analyzer_db`
Program Analyzer             :mod:`repro.core.analyzer_program`
  (language templates)       :mod:`repro.core.templates`
  (access patterns, Su)      :mod:`repro.core.access_patterns`
  (access path graph, Su)    :mod:`repro.core.access_path_graph`
Abstract source/target       :mod:`repro.core.abstract`
Program Converter            :mod:`repro.core.converter`
  (transformation rules)     :mod:`repro.core.rules`
Optimizer                    :mod:`repro.core.optimizer`
Program Generator            :mod:`repro.core.generator`
Conversion Supervisor        :mod:`repro.core.supervisor`
  (reports to the analyst)   :mod:`repro.core.report`
"runs equivalently" check    :mod:`repro.core.equivalence`
Mehl & Wang substitution     :mod:`repro.core.command_substitution`
===========================  =========================================
"""

from repro.core.abstract import (
    ACond,
    AErase,
    AFirst,
    ALocate,
    AModify,
    AQuery,
    AScan,
    AStore,
    AToOwner,
    AbstractProgram,
)
from repro.core.analyzer_db import (
    ChangeCatalog,
    ConversionAnalyzer,
    RenameSuggestion,
)
from repro.core.analyzer_program import ProgramAnalyzer
from repro.core.access_patterns import AccessPattern, access_pattern_sequence
from repro.core.access_path_graph import AccessPathGraph
from repro.core.converter import ProgramConverter
from repro.core.optimizer import Optimizer, CostModel
from repro.core.generator import ProgramGenerator
from repro.core.equivalence import EquivalenceReport, check_equivalence
from repro.core.supervisor import (
    Analyst,
    AnalystQuestion,
    AutoAnalyst,
    ConversionSupervisor,
    RefusingAnalyst,
    ScriptedAnalyst,
)

__all__ = [
    "ACond",
    "ALocate",
    "AScan",
    "AFirst",
    "AToOwner",
    "AStore",
    "AModify",
    "AErase",
    "AQuery",
    "AbstractProgram",
    "ChangeCatalog",
    "ConversionAnalyzer",
    "RenameSuggestion",
    "ProgramAnalyzer",
    "AccessPattern",
    "access_pattern_sequence",
    "AccessPathGraph",
    "ProgramConverter",
    "Optimizer",
    "CostModel",
    "ProgramGenerator",
    "EquivalenceReport",
    "check_equivalence",
    "Analyst",
    "AnalystQuestion",
    "AutoAnalyst",
    "ScriptedAnalyst",
    "RefusingAnalyst",
    "ConversionSupervisor",
]
