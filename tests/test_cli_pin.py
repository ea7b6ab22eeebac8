"""Byte-identical command-line output on the fixtures.

``cli_pin.txt`` holds one block per command of ``_commands``: a line
``$ <arguments>`` naming the fixture by its file name, a line ``exit
<code>``, the command's standard output, and its standard error with each
line prefixed ``stderr: ``.  The commands are machine-format ``check`` on
every fixture, machine-format ``search`` at witness size 4 on every fixture
claim (candidate and timeout counts included), and the two searches of the
fixtures that exhaust or stay undecided, at size 6.  Then every ``lattice``
operation and one synthesized law on the co-Heyting demo, and ``complete``
over the ``holds`` carrier for T and M at witness size 2.  Last, human-format
``check`` on every fixture at the instance's fuel and at ``--fuel 3``, which
prints the location of every unknown and refuted position that machine
format reduces to a count; its closing elapsed-time line is dropped.  A
change to how witnesses are checked, searched or printed must leave every
byte of this as it is.
"""

import re
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
    demo = HERE.parent / "fixtures" / "coheyting_demo.inst"
    for op in (["bottom", "--base", "X", "--universe", "U"], ["top", "--base", "X"],
               ["meet", "--args", "phi", "psi"], ["join", "--args", "psi", "rho"],
               ["subtract", "--args", "phi", "psi", "--universe", "U"]):
        yield ["lattice", demo, "--op", *op]
    yield ["lattice", demo, "--doc", "Mw", "--op", "implies", "--args", "phi", "psi"]
    yield ["lattice", demo, "--op", "law", "--law", "subtract_intro", "--args", "wfst", "--claim", "to_sub"]
    for doc in ("T", "M"):
        yield ["--witness-size", "2", "complete", HERE.parent / "fixtures" / "holds.inst", "--object", "X", "--doc", doc]
    for fuel in ([], ["--fuel", "3"]):
        for f in FIXTURES:
            yield [*fuel, "check", f]


ELAPSED = re.compile(r"^checked \d+ claim\(s\) in \d+\.\d+s\n", re.MULTILINE)  # human check's timing


def _transcript(capsys) -> str:
    blocks = []
    for argv in _commands():
        code = main([str(a) for a in argv])
        out, err = capsys.readouterr()
        shown = " ".join(a.name if isinstance(a, Path) else a for a in argv)
        blocks.append(f"$ {shown}\nexit {code}\n{ELAPSED.sub('', out)}" + "".join(f"stderr: {line}\n" for line in err.splitlines()))
    return "".join(blocks)


def test_cli_output_is_pinned(capsys):
    assert _transcript(capsys) == (HERE / "cli_pin.txt").read_text()
