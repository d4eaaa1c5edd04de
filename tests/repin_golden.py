"""Re-pin tests/golden.json: run the golden designs of test_golden.py and
write their output digests with this interpreter's Python and numpy versions.

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


def main():
    with tempfile.TemporaryDirectory() as work:
        digests = golden_outputs(Path(work))
    GOLDEN.write_text(json.dumps({"versions": versions(), "sha256": digests},
                                 indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")


if __name__ == "__main__":
    main()
