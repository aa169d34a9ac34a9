"""The repository benchmark (see ``bench/README.md``): workloads,
layer timers, the runner ``bench/run.py`` and the comparison tool
``bench/compare.py``."""
