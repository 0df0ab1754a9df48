"""Record ``reference.json``: output digests of the reference seed.

Run from the root of a checkout whose outputs are known good::

    python3 perfbench/record_reference.py

It renders the fig10 and fig9a tables and simulates the first fleet dies
for :data:`~perfbench.workloads.REFERENCE_SEED`, then writes their digests.
Re-record only when a change is meant to alter the program's outputs.
"""

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import run  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    REFERENCE_SEED,
    Fig10Warm,
    FleetServe,
    SweepQueue,
    digest_report,
    digest_text,
)

#: Dies recorded; runs that reach further check later dies in-run only.
FLEET_DIES = 256


def main() -> int:
    tmp = run.TMP_ROOT / "record-reference"
    run.TMP_ROOT.mkdir(exist_ok=True)
    run.hermetic_environment(tmp)
    tmp.mkdir()
    try:
        run.import_program()
        fig10 = Fig10Warm(tmp, REFERENCE_SEED, None)
        fig10.load()
        fig10.setup(0)
        fig9a = SweepQueue(tmp, REFERENCE_SEED, None)
        fig9a.load()
        fig9a.setup(0)
        fleet = FleetServe(tmp, REFERENCE_SEED, None)
        fleet.load()
        fleet.setup(0)
        reference = {
            "seed": REFERENCE_SEED,
            "fig10": digest_text(fig10.cold),
            "fig9a": digest_text(fig9a.serial),
            "fleet": [digest_report(fleet.op(die)) for die in range(FLEET_DIES)],
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
