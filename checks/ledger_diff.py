#!/usr/bin/env python3
"""Compare two margin ledgers: which figures moved toward their bounds.

Usage: python checks/ledger_diff.py OLD NEW

OLD and NEW are copies of the ledger that a tier-1 run leaves in pytest's
cache, ``.pytest_cache/v/acmag/ledger``: a JSON object whose entries read
``"test: what": [figure, bound]``. Each figure shared by both whose
figure/bound ratio grew is printed with both ratios, largest new ratio
first; then the entries only NEW has, and those only OLD has. Standard
library only.
"""

import json
import sys
from pathlib import Path


def ledger_diff(old: dict, new: dict) -> list[str]:
    """The report's lines for the ledgers ``old`` and ``new``."""
    old, new = ({key: figure / bound for key, (figure, bound) in ledger.items()}
                for ledger in (old, new))
    grew = sorted((key for key in old.keys() & new.keys()
                   if new[key] > old[key]), key=lambda key: -new[key])
    lines = [f"moved toward the bound: {len(grew)}"]
    lines += [f"  {key}: {old[key]:.3g} -> {new[key]:.3g}" for key in grew]
    for title, keys, ratios in (("added", new.keys() - old.keys(), new),
                                ("removed", old.keys() - new.keys(), old)):
        lines.append(f"{title}: {len(keys)}")
        lines += [f"  {key}: {ratios[key]:.3g}" for key in sorted(keys)]
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("Usage: python checks/ledger_diff.py OLD NEW", file=sys.stderr)
        return 2
    old, new = (json.loads(Path(path).read_text(encoding="utf-8"))
                for path in argv)
    print("\n".join(ledger_diff(old, new)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
