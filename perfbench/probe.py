"""Set-up probe: a fresh interpreter imports specgap and loads the inputs.

Usage: python3 probe.py SRC_DIR EDGE_FILE...  (run.py times it from outside)
"""

import sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])

import specgap  # noqa: E402

for path in sys.argv[2:]:
    specgap.parse_edge_list(Path(path).read_text(encoding="utf-8"))
