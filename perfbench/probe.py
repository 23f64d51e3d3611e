"""Set-up probe: a fresh interpreter that gets one workload's inputs ready.

Usage (from the repository root)::

    python3 perfbench/probe.py WORKLOAD SEED SIZE

Does exactly the set-up the workload pays before its first cell runs
(imports, instance generation, plan or spec build; for ``cli``, only
``import repro.cli``), then prints one JSON line and exits.  The parent
times spawn-to-line, which is ``setup_s``.  For ``cli`` the line
carries the import split the traced run reports (``imports.*``);
otherwise it is ``{}``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    start = time.perf_counter()
    workload, seed, size = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    split = {}
    if workload == "cli":
        import repro.cli  # noqa: F401

        split["import_s"] = time.perf_counter() - start
        split["modules"] = len(sys.modules)
        split["numpy_loaded"] = int("numpy" in sys.modules)
    else:
        from perfbench import inputs

        if workload == "campaign":
            list(inputs.campaign_spec(seed, size).plans())
        else:
            groups = (inputs.exhaustive_groups(seed, size)
                      if workload == "exhaustive"
                      else inputs.search_groups(seed, size))
            mode = "exhaustive" if workload == "exhaustive" else "stress"
            for group in groups:
                inputs.build_plan(group, inputs.generate(group), mode)
    print(json.dumps(split), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
