"""repro runs on the standard library alone.

``pyproject.toml`` declares no runtime dependencies, so every entry
point must import and convert in an interpreter started with ``-S``
(no site-packages): the CLI, the service, the worker pool (whose
spawned workers import repro again) and the ``repro.api`` facade.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import json
import sys

import repro
import repro.cli
import repro.parallel
import repro.service.server
from repro import api
from repro.workloads.company import FIGURE_4_3_DDL
from repro.workloads.corpus import CorpusSpec, generate_corpus

spec = "INTERPOSE DEPT (DEPT-NAME) ON DIV-EMP AS DIV-DEPT, DEPT-EMP.\\n"
corpus = generate_corpus(CorpusSpec(seed=1979, size=1, pathology_rate=0.0))
report = api.convert(FIGURE_4_3_DDL, spec, corpus[0].program)
main = sys.modules["__main__"]
loaded = {
    name.partition(".")[0]
    for name, module in list(sys.modules.items())
    if module is not main
}
print(json.dumps({
    "no_site": sys.flags.no_site,
    "outside": sorted(loaded - sys.stdlib_module_names - {"repro"}),
    "converted": report.converted,
}))
"""


def test_repro_imports_and_converts_without_site_packages():
    result = subprocess.run(
        [sys.executable, "-S", "-c", SCRIPT],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    outcome = json.loads(result.stdout)
    assert outcome == {"no_site": 1, "outside": [], "converted": True}
