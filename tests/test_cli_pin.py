"""Byte-identical command-line output on the fixtures.

``cli_pin.txt`` holds one block per command of ``_commands``: a line
``$ <arguments>`` naming the fixture by its file name, a line ``exit
<code>``, the command's standard output, and its standard error with each
line prefixed ``stderr: ``.  The commands are machine-format ``check`` on
every fixture, machine-format ``search`` at witness size 4 on every fixture
claim (candidate and timeout counts included), and the two searches of the
fixtures that exhaust or stay undecided, at size 6.  A change to how
witnesses are checked or searched must leave every byte of this as it is.
"""

from pathlib import Path

from degreelab.cli import main
from degreelab.instance import parse_instance

HERE = Path(__file__).resolve().parent
FIXTURES = sorted((HERE.parent / "fixtures").glob("*.inst"))


def _commands():
    for f in FIXTURES:
        yield ["--format", "machine", "check", f]
    for f in FIXTURES:
        for claim in parse_instance(f.read_text()).claims:
            yield ["--witness-size", "4", "--format", "machine", "search", f, claim.name]
    for name, claim in (("refuted.inst", "impossible"), ("unknown.inst", "undecided")):
        yield ["--witness-size", "6", "--format", "machine", "search", HERE.parent / "fixtures" / name, claim]


def _transcript(capsys) -> str:
    blocks = []
    for argv in _commands():
        code = main([str(a) for a in argv])
        out, err = capsys.readouterr()
        shown = " ".join(a.name if isinstance(a, Path) else a for a in argv)
        blocks.append(f"$ {shown}\nexit {code}\n{out}" + "".join(f"stderr: {line}\n" for line in err.splitlines()))
    return "".join(blocks)


def test_cli_output_is_pinned(capsys):
    assert _transcript(capsys) == (HERE / "cli_pin.txt").read_text()
