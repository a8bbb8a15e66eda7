"""The CLI surface, pinned: every leaf command's options.

A leaf is a command that runs a handler: one per experiment id, plus
``list``, ``all``, ``bench``, ``replay``, ``diagnose``, ``chaos fuzz``
and ``chaos replay``.  For each option of each leaf the pin records its
dest, default, choices, nargs, const and argparse action class, so a
change to the parser tree cannot add, drop or retune a flag unnoticed.  Argument types are left out on
purpose: the checked types are named after the builtin they wrap, so
the ``BAD_ARGV`` rows in ``tests/test_cli_and_plot.py`` are what check
them.

The tree itself is tested here too: ``nfstricks --help`` names every
command, and a Hypothesis fuzz over every leaf's own option strings
shows that any argv either parses to a runnable command or exits 2 with
one ``error:`` line.

A change that is meant to move the surface re-pins it and says why in
CHANGES.md::

    PYTHONPATH=src python -m tests.test_cli_surface \\
        > tests/golden/cli_surface.json
"""

import argparse
import contextlib
import io
import json
import os
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import build_parser, main
from repro.experiments import all_experiments

SURFACE_PATH = os.path.join(os.path.dirname(__file__), "golden",
                            "cli_surface.json")


def leaves(parser, path=()):
    """Yield ``(command, parser)`` for every leaf below ``parser``."""
    commands = [action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction)]
    if not commands:
        yield " ".join(path), parser
        return
    for name, child in commands[0].choices.items():
        yield from leaves(child, path + (name,))


def options(parser) -> dict:
    """One leaf's options, keyed by option strings (positionals by
    dest)."""
    surface = {}
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        key = ", ".join(action.option_strings) or action.dest
        surface[key] = {
            "action": type(action).__name__,
            "choices": (None if action.choices is None
                        else list(action.choices)),
            "const": action.const,
            "default": action.default,
            "dest": action.dest,
            "nargs": action.nargs,
        }
    return surface


def surface() -> dict:
    return {name: options(leaf) for name, leaf in leaves(build_parser())}


def pinned() -> dict:
    with open(SURFACE_PATH) as handle:
        return json.load(handle)


def test_surface_matches_pin():
    current, pin = surface(), pinned()
    assert sorted(current) == sorted(pin)
    for command in pin:
        assert current[command] == pin[command], command


VERBS = ["list", "all", "bench", "replay", "diagnose", "chaos"]


def test_help_names_every_command(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    assert exit_.value.code == 0
    text = capsys.readouterr().out
    for command in [e.id for e in all_experiments()] + VERBS:
        assert re.search(rf"^\s+{command}\b", text, re.M), command
    for _command, leaf in leaves(build_parser()):
        leaf.format_help()


PARSER = build_parser()
LEAVES = list(leaves(PARSER))
#: Adversarial values: zero, negatives, NaN, empty, a non-number, and a
#: file in a directory that does not exist.
VALUES = ["0", "-1", "-0.5", "nan", "", "bogus",
          os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "no-such-directory", "out.json")]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_any_argv_parses_or_exits_2_with_one_line(data):
    """Parse only: a runnable command, or one diagnostic line and exit
    2; never a traceback."""
    command, leaf = data.draw(st.sampled_from(LEAVES))
    actions = [action for action in leaf._actions
               if not isinstance(action, argparse._HelpAction)]
    argv = command.split()
    # None stands for a stray value with no option before it.
    for action in data.draw(st.lists(st.sampled_from(actions + [None]),
                                     max_size=4)):
        if action is not None and action.option_strings:
            argv.append(data.draw(st.sampled_from(action.option_strings)))
        if action is None or action.nargs != 0:
            argv.append(data.draw(st.sampled_from(VALUES)))
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            args = PARSER.parse_args(argv)
    except SystemExit as exit_:
        assert exit_.code == 2, argv
        assert out.getvalue() == "", argv
        lines = err.getvalue().splitlines()
        assert [line for line in lines if "error:" in line] \
            == [lines[-1]], argv
    else:
        assert callable(args.handler), argv


if __name__ == "__main__":
    json.dump(surface(), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
