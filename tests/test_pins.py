"""The console reports against their pins in tests/pins.py, and the README's examples against those."""

import re
import shlex

import pytest

from eaqecc import simulate
from eaqecc.cli import main

from pins import ENTRIES, ROOT

H4 = "src/eaqecc/data/h4.code"


@pytest.mark.parametrize("pin", ENTRIES, ids=[pin.command for pin in ENTRIES])
def test_pin(pin, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    # as many CPUs as the largest count, so --workers 3 cuts three ranges on any host
    monkeypatch.setattr(simulate, "_cpus", lambda: max(pin.workers, default=1))
    outs = {}
    for argv in pin.runs():
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, err) == (0, ""), argv
        outs[" ".join(argv)] = out
    assert len(set(outs.values())) == 1, f"stdout differs across --workers: {outs}"
    if out != pin.stdout:
        pytest.fail(f"{pin.diff(out)}new stdout of {pin.command}:\n{out}", pytrace=False)


def readme_examples():
    """(argv, shown lines) of each `$ eaqecc ...` command in the README's console blocks."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    examples = []
    # the odd pieces between fence lines are the fenced blocks
    for block in re.split(r"^```.*\n", text, flags=re.M)[1::2]:
        for command in re.split(r"^\$ ", block, flags=re.M)[1:]:
            line, *shown = command.splitlines()
            words = shlex.split(line)
            assert words[0] == "eaqecc", line
            # h4.code and $(python -c '...example_code_path()...') both name the bundled file
            argv = tuple(H4 if w == "h4.code" or "example_code_path()" in w else w for w in words[1:])
            examples.append((argv, [s for s in shown if s and s != "..."]))
    return examples


def test_readme_examples_are_pinned():
    examples = readme_examples()
    assert sorted(argv[0] for argv, _ in examples) == [
        "analyze", "bounds", "build", "catalytic", "simulate",
    ]
    pins = {pin.argv: pin for pin in ENTRIES}
    for argv, shown in examples:
        assert argv in pins, f"no entry in tests/pins.py for the README's {' '.join(argv)}"
        # the shown lines, in order, are a subsequence of the pinned stdout
        lines = iter(pins[argv].stdout.splitlines())
        for line in shown:
            assert line in lines, f"{' '.join(argv)}: README's {line} is not in its pin, in order"
