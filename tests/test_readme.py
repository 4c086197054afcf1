"""Contracts stated in the README, checked rather than read.

- The library quick-start block runs unchanged against the package.
- The test-only dependencies (`mpmath`, the `oracles` module) are never
  imported by the package itself, neither on import nor by a CLI run.
"""

import os
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def quick_start_source() -> str:
    with open(os.path.join(ROOT, "README.md"), "r", encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("## Library quick start"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


def test_quick_start_runs_unchanged(capsys):
    namespace = {}
    exec(compile(quick_start_source(), "README.md", "exec"), namespace)
    assert set(namespace["comps"]) == {"sigma_plus", "sigma_minus", "z"}
    dataset = namespace["dataset"]
    assert dataset.values.shape == (256, 256)
    assert dataset.scale_factor > 0.0 and dataset.values.max() == 1.0
    assert np.ndim(namespace["mu"]) == 0
    printed = capsys.readouterr().out.split()
    assert float(printed[1]) == 1.0


def test_package_never_imports_test_dependencies():
    code = "\n".join([
        "import sys",
        "import vectorlight",
        "from vectorlight import cli",
        "assert cli.main(['point', '--beam', 'lg:1']) == 0",
        "loaded = sorted({'mpmath', 'oracles'} & set(sys.modules))",
        "sys.exit(f'loaded: {loaded}' if loaded else 0)",
    ])
    # tests/ is importable too, so an accidental `import oracles` would load
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert '"mu_by_dm"' in proc.stdout
