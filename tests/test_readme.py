"""Contracts stated in the README, checked rather than read.

- The library quick-start block runs unchanged against the package.
- The CLI section's `run` echo is the echo of the command it names, and
  re-running it as a run file echoes it again.
- The test-only dependencies (`mpmath`, the `oracles` module) are never
  imported by the package itself, neither on import nor by a CLI run.
- Every test the contract ledger names is collected by pytest.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys

import numpy as np

from vectorlight.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def readme_section(heading: str) -> str:
    with open(os.path.join(ROOT, "README.md"), "r", encoding="utf-8") as fh:
        text = fh.read()
    return text[text.index(heading):]


def quick_start_source() -> str:
    section = readme_section("## Library quick start")
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


def test_cli_run_echo_is_the_echo_of_its_command(tmp_path):
    # the JSON block of the CLI section, and the last `vectorlight ...`
    # command before it
    section = readme_section("## CLI")
    start = section.index("```json\n") + len("```json\n")
    echo = json.loads(section[start:section.index("```", start)])
    argv = section[:start].rsplit("`vectorlight ", 1)[1].split("`")[0].split()
    run_file = tmp_path / "run.json"
    run_file.write_text(json.dumps(echo))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + ["-o", str(tmp_path / "flags")]) == 0
        assert main([argv[0], "--run-file", str(run_file),
                     "-o", str(tmp_path / "file")]) == 0
    for out in ("flags", "file"):
        side = json.loads((tmp_path / out / "mu_dm_0.json").read_text())
        assert side["run"] == echo, out


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


def test_every_test_the_ledger_names_is_collected():
    section = readme_section("## Contract ledger")
    table = section[:section.index("\n## ")]
    rows = [line for line in table.splitlines() if line.startswith("| ")][1:]
    named = [re.findall(r"`(tests/\w+\.py::\w+)`", row) for row in rows]
    assert rows and all(named), rows
    ids = sorted({node for row in named for node in row})
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-p", "no:cacheprovider", *ids],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    collected = {line.split("[")[0] for line in proc.stdout.splitlines()}
    assert set(ids) <= collected, sorted(set(ids) - collected)
