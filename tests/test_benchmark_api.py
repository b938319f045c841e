"""The package API that the benchmark harness in `perfbench/` calls.

The harness imports `spinmux as smx` and a few submodule names; a trim of the
public API that drops one of them would break the benchmark without failing
any other test.  These checks only read the harness sources.
"""

import importlib
import re
from functools import reduce
from pathlib import Path

import spinmux

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def harness_sources():
    return [path.read_text() for path in sorted(PERFBENCH.glob("*.py"))]


def test_every_smx_name_the_benchmark_reads_exists():
    chains = {chain for text in harness_sources()
              for chain in re.findall(r"\bsmx((?:\.\w+)+)", text)}
    assert chains
    missing = []
    for chain in sorted(chains):
        try:
            reduce(getattr, chain.split(".")[1:], spinmux)
        except AttributeError:
            missing.append("smx" + chain)
    assert missing == []


def test_every_submodule_name_the_benchmark_imports_exists():
    imports = {(module, name) for text in harness_sources()
               for module, name in re.findall(r"from (spinmux\.\w+) import (\w+)", text)}
    assert imports
    missing = [f"{module}.{name}" for module, name in sorted(imports)
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
