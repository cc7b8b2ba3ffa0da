"""The fixed cost of one `easic` command, paid in a fresh interpreter.

    python3 bench/setup_probe.py <src dir> <netlist.blif> ...

Imports easic from <src dir>, loads the default library, and parses
(which validates) every netlist given.  The benchmark times this whole
process, interpreter start included, and reports the median as setup_s.
"""

import sys
from pathlib import Path

src = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(src))

import easic  # noqa: E402

if Path(easic.__file__).resolve() != src / "easic" / "__init__.py":
    sys.exit(f"easic resolves to {easic.__file__}, not to {src}")
easic.default_library()
for path in sys.argv[2:]:
    easic.parse_blif(Path(path).read_text(encoding="utf-8"))
