"""Re-pin tests/golden.json: run the golden designs of test_golden.py and
write their output digests with this interpreter's Python and numpy versions.
Before it writes, it prints each digest that changed, appeared or
disappeared against the current golden.json.

    python tests/repin_golden.py

Run it only after a deliberate output change, and say in the change's
notes which outputs moved and why.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from test_golden import GOLDEN, golden_outputs, versions  # noqa: E402


def moved(old: dict, new: dict) -> list:
    """"changed", "appeared" or "disappeared" with each digest's name, for
    every name whose digest differs between `old` and `new`."""
    return [("appeared" if name not in old else "disappeared" if name not in new
             else "changed", name)
            for name in sorted(old.keys() | new.keys())
            if old.get(name) != new.get(name)]


def main():
    with tempfile.TemporaryDirectory() as work:
        digests = golden_outputs(Path(work))
    old = json.loads(GOLDEN.read_text())["sha256"] if GOLDEN.exists() else {}
    for how, name in moved(old, digests):
        print(f"{how}: {name}")
    GOLDEN.write_text(json.dumps({"versions": versions(), "sha256": digests},
                                 indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")


if __name__ == "__main__":
    main()
