"""Child-process helper of the benchmark runner.

    python3 perfbench/scvs_batch.py run ARGV_JSON
        Runs each argv list in the JSON file through ``scvs.cli.main`` in this
        process; exits 1 at the first command that does not return 0.  The
        runner builds workload inputs this way, outside its measured process.

    python3 perfbench/scvs_batch.py setup MODEL...
        Times ``import scvs.cli`` plus, for every model file, ``load_model``
        and building its scoring engine (``ScNetwork.simulator()`` for SC
        nets), in a fresh interpreter; prints ``{"setup_s": ...}``.

Both import scvs from the ``src`` directory beside this one and refuse to run
if it is not there.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_cli():
    sys.path.insert(0, str(SRC))
    import scvs.cli

    if not Path(scvs.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"scvs imported from {scvs.cli.__file__}, not from {SRC}")
    return scvs.cli


def run_batch(argv_file: str) -> int:
    with open(argv_file) as fh:
        commands = json.load(fh)
    cli = _import_cli()
    for argv in commands:
        rc = cli.main(argv)
        if rc != 0:
            print(f"scvs {' '.join(argv)} exited {rc}", file=sys.stderr)
            return 1
    return 0


def time_setup(models) -> int:
    t0 = time.perf_counter()
    cli = _import_cli()
    from scvs import sc_nn

    for path in models:
        model = cli.load_model(Path(path))
        if isinstance(model, sc_nn.ScNetwork):
            model.simulator()
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[1] not in ("run", "setup"):
        raise SystemExit(__doc__)
    if sys.argv[1] == "run":
        sys.exit(run_batch(sys.argv[2]))
    sys.exit(time_setup(sys.argv[2:]))
