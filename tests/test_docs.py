"""Traceability: every test name cited in the verification guide must exist,
every command line the docs show must parse, every JSON config README.md
shows must validate, and every benchmark script the README shows must start
as written."""

import dataclasses
import importlib
import inspect
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import fpcascade
from fpcascade import cli
from fpcascade.model import RunConfig, validate_config

ROOT = Path(__file__).resolve().parent.parent
DOCS = ROOT / "docs"
TESTS = Path(__file__).resolve().parent


def collect_defined_names():
    defined = set()
    for path in TESTS.glob("test_*.py"):
        text = path.read_text(encoding="utf-8")
        defined.update(re.findall(r"^def (test_\w+)", text, flags=re.M))
        defined.update(re.findall(r"^class (Test\w+)", text, flags=re.M))
        # methods inside classes
        defined.update(re.findall(r"^    def (test_\w+)", text, flags=re.M))
    return defined


def test_docs_exist():
    assert (DOCS / "verification.md").is_file()
    assert (DOCS / "method.md").is_file()


def test_every_cited_test_exists():
    text = (DOCS / "verification.md").read_text(encoding="utf-8")
    cited = set(re.findall(r"`(test_\w+|Test\w+)", text))
    cited |= {name.split("::")[-1] for name in re.findall(r"`\w+::(\w+)`", text)}
    defined = collect_defined_names()
    missing = sorted(n for n in cited if n not in defined)
    assert not missing, f"verification.md cites unknown tests: {missing}"


def test_acceptance_criteria_all_cited():
    text = (DOCS / "verification.md").read_text(encoding="utf-8")
    acceptance = (TESTS / "test_acceptance.py").read_text(encoding="utf-8")
    for name in re.findall(r"^def (test_criterion\w+)", acceptance, flags=re.M):
        assert name in text, f"acceptance test {name} is not referenced by the guide"


def test_every_cited_module_name_exists():
    """Every backticked ``module.name`` in the docs is an attribute of
    ``fpcascade.<module>``, so deleted code cannot stay documented."""
    modules = sorted(m.name for m in pkgutil.iter_modules(fpcascade.__path__))
    pattern = r"`(?:fpcascade\.)?(" + "|".join(modules) + r")\.(\w+)"
    cited = []
    for path in (ROOT / "README.md", DOCS / "method.md", DOCS / "verification.md"):
        cited += re.findall(pattern, path.read_text(encoding="utf-8"))
    cited = [(module, name) for module, name in cited if name != "py"]  # file names such as `kernels.py`
    assert len(cited) >= 20
    missing = sorted(
        {f"{module}.{name}" for module, name in cited
         if not hasattr(importlib.import_module(f"fpcascade.{module}"), name)}
    )
    assert not missing, f"the docs cite names that no module defines: {missing}"


def test_every_export_is_named_in_the_readme_library_section():
    """Every name ``fpcascade`` exports appears in README.md's Library
    section, so the package exports only what that section documents."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    library = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    exports = [name for name, value in vars(fpcascade).items()
               if not name.startswith("_") and not inspect.ismodule(value)]
    assert len(exports) >= 20
    missing = [name for name in exports if not re.search(rf"\b{name}\b", library)]
    assert not missing, f"README.md's Library section does not name these exports: {missing}"


def test_every_cited_class_attribute_exists():
    """Every backticked ``Class.attr`` of an exported dataclass names one of
    its attributes or dataclass fields (a field without a default is no class
    attribute), so a deleted method or field cannot stay documented."""
    classes = {cls.__name__: cls for cls in (fpcascade.DriftSpec, fpcascade.Grid, fpcascade.RunConfig,
                                             fpcascade.DensityField, fpcascade.ActionExpansion,
                                             fpcascade.ModulationV)}
    pattern = r"`(?:fpcascade\.)?(?:\w+\.)?(" + "|".join(classes) + r")\.(\w+)"
    cited = []
    for path in (ROOT / "README.md", DOCS / "method.md", DOCS / "verification.md"):
        cited += re.findall(pattern, path.read_text(encoding="utf-8"))
    assert cited
    missing = sorted(
        {f"{cls}.{name}" for cls, name in cited
         if not hasattr(classes[cls], name) and name not in {f.name for f in dataclasses.fields(classes[cls])}}
    )
    assert not missing, f"the docs cite attributes that no class defines: {missing}"


def documented_commands():
    """Every ``fpcascade ...`` command in README.md and docs/verification.md,
    as a code-block line or an inline code span; elided ones (``...``) are
    skipped."""
    commands = []
    for path in (ROOT / "README.md", DOCS / "verification.md"):
        text = path.read_text(encoding="utf-8")
        found = re.findall(r"^(fpcascade .+)$", text, flags=re.M) + re.findall(r"`(fpcascade [^`]+)`", text)
        commands += [cmd for cmd in found if "..." not in cmd]
    return list(dict.fromkeys(commands))


def test_docs_show_commands():
    assert len(documented_commands()) >= 8


@pytest.mark.parametrize("command", documented_commands())
def test_documented_command_parses(command):
    try:
        cli.build_parser().parse_args(shlex.split(command)[1:])
    except SystemExit as exc:
        pytest.fail(f"{command!r} does not parse (exit {exc.code})")


def test_readme_json_configs_validate(tmp_path):
    """Every ``json`` block of README.md is a config file the CLI accepts:
    its keys are RunConfig fields and the config they give validates."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```json\n(.*?)^```$", text, flags=re.M | re.S)
    assert blocks
    for i, block in enumerate(blocks):
        path = tmp_path / f"cfg{i}.json"
        path.write_text(block, encoding="utf-8")
        validate_config(dataclasses.replace(RunConfig(), **cli._load_config_file(path)))


def readme_benchmark_commands():
    """Every ``python3 benchmarks/*.py`` command line in README.md, with the
    ``VAR=value`` assignments written before it."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"^((?:\w+=\S+ )*python3 benchmarks/\w+\.py.*)$", text, flags=re.M)


def test_readme_shows_benchmark_commands():
    assert len(readme_benchmark_commands()) >= 2


@pytest.mark.parametrize("command", readme_benchmark_commands())
def test_readme_benchmark_command_starts(command):
    """Run from the repo root with only the environment the README gives it
    (the suite's own PYTHONPATH removed), the script's ``--help`` exits 0."""
    words = shlex.split(command)
    at = words.index("python3")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(word.split("=", 1) for word in words[:at])
    proc = subprocess.run([sys.executable, words[at + 1], "--help"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
