"""Workloads: the paper's example databases and a program corpus.

* :mod:`repro.workloads.school` -- the Figure 3.1 school database
  (courses, semesters, offerings, instructors) in relational and
  CODASYL form, with the Section 3.1 constraints;
* :mod:`repro.workloads.company` -- the Figure 4.2/4.3 company
  database and the Figure 4.4 restructuring;
* :mod:`repro.workloads.florida` -- the Section 4.1 EMP/DEPT/EMP-DEPT
  database and the "Manager Smith" query;
* :mod:`repro.workloads.datagen` -- deterministic seeded data;
* :mod:`repro.workloads.corpus` -- a generated application system
  (programs with controlled pathology injection) for the E2/E6
  experiments;
* :mod:`repro.workloads.inventory` -- the synthetic large-inventory
  workload (generated wide schema + 1k-100k program corpus) behind
  the multi-scale parallel benchmarks;
* :mod:`repro.workloads.chain` -- the DIV -> DEPT -> EMP chain
  snapshot at any size, behind the snapshot-index tests and the
  hierarchical load floor.
"""

from repro.workloads.datagen import DataGen
from repro.workloads import chain, school, company, florida, corpus, inventory

__all__ = ["DataGen", "chain", "school", "company", "florida", "corpus",
           "inventory"]
