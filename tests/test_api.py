"""The public API matches README: exports resolve, removed names stay gone, the example runs."""

import argparse
import inspect
import re
import types
from pathlib import Path

import numpy as np

import spincover
from spincover import cli, clifford_core, covering, division_algebras, matrix_group, oracle

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
MODULES = (spincover, cli, clifford_core, covering, division_algebras, matrix_group, oracle)


def _section(start: str, end: str) -> str:
    return README[README.index(start):README.index(end)]


def _bullets(text: str) -> list[str]:
    # "- " items, each with its indented continuation lines
    return [item.replace("\n  ", " ") for item in re.findall(r"^- (.*(?:\n  .*)*)", text, re.M)]


def _api_names() -> list[str]:
    bullets = " ".join(_bullets(_section("Highlights of the public API", "`NoCandidateError`")))
    names = []
    for span in re.findall(r"`([^`]+)`", bullets):
        match = re.match(r"[A-Za-z_]\w*", span)
        assert match, f"API bullet names {span!r}, which is not a name"
        names.append(match.group())
    return names


def _removed_entries() -> list[str]:
    entries = []
    for item in _bullets(_section("Removed from the public API", "## CLI")):
        entries += re.findall(r"`([^`]+)`", item.split(" - ", 1)[0])
    return entries


def test_every_exported_name_resolves():
    assert len(set(spincover.__all__)) == len(spincover.__all__)
    missing = [name for name in spincover.__all__ if getattr(spincover, name, None) is None]
    assert not missing, f"__all__ names {missing}, which spincover does not define"


def test_all_is_the_public_imports():
    modules = [name for name in spincover.__all__ if isinstance(getattr(spincover, name), types.ModuleType)]
    assert not modules, f"__all__ names modules {modules}"
    namespace = {}
    exec("from spincover import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(spincover.__all__)


def test_readme_example_prints_what_it_says(capsys):
    (example,) = re.findall(r"^```python\n(.*?)^```", README, re.S | re.M)
    exec(example, {})
    half_turn = str(np.diag([1.0, -1.0, -1.0]))
    assert capsys.readouterr().out == f"{{6: 1.0}}\n{half_turn}\n{half_turn}\n"


def test_readme_api_bullets_name_exported_functions():
    names = _api_names()
    assert "matrix_to_rotor" in names and "select_candidate" in names
    missing = sorted(set(names) - set(spincover.__all__))
    assert not missing, f"README names unexported {missing}"


def test_readme_removed_names_are_gone():
    entries = _removed_entries()
    assert "iter_candidates" in entries and "select_candidate(threshold)" in entries
    for entry in entries:
        call = re.fullmatch(r"([\w.]+)\((\w+)\)", entry)
        if call:
            path, parameter = call.groups()
            function = spincover
            for attr in path.split("."):
                function = getattr(function, attr)
            assert parameter not in inspect.signature(function).parameters, entry
        elif "." in entry:
            assert re.fullmatch(r"\w+\.\w+", entry), f"unreadable entry {entry!r}"
            owner, attribute = entry.split(".")
            assert not hasattr(getattr(spincover, owner), attribute), entry
        else:
            assert re.fullmatch(r"\w+", entry), f"unreadable entry {entry!r}"
            assert entry not in spincover.__all__
            for module in MODULES:
                assert not hasattr(module, entry), f"{module.__name__}.{entry} still exists"


def test_readme_cli_flags_match_the_parser():
    paragraph = re.search(r"^Flags:.*?(?=\n\n)", README, re.S | re.M).group()
    documented = set(re.findall(r"`(--[\w-]+)", paragraph))
    commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {flag for action in commands.choices["rotor-from-matrix"]._actions for flag in action.option_strings}
    assert documented == options - {"-h", "--help"}
