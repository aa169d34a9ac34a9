"""What remains of the retired legacy perf suites.

Only :mod:`repro.perf.programs` is left: it defines ``BENCH_KINDS``
and ``corpus_programs``, from which the repository benchmark in
``bench/`` builds its ``strategy-sweep`` corpus.  The package goes
away once the benchmark reads those two names from elsewhere.  The
speedup floors the suites used to assert are ``-m perf`` tests in
``benchmarks/perf/test_floors.py``.
"""
