"""Shared JSON session-record appender for the standalone benchmark scripts.

Each speedup-gate script (``bench_adaptive.py``, ``bench_faultmap.py``,
``bench_inference.py``) tracks its performance trajectory in a
``BENCH_*.json`` record at the repository root: a rolling window of session
dicts plus a few headline fields for at-a-glance comparison.  The
read-validate-append-truncate-replace dance lives here once, so a policy
change (window size, atomicity) lands in every record at the same time.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any

#: Keep the most recent N session records per suite.
RECORD_LIMIT = 50


def append_record(
    path: Path,
    session: dict[str, Any],
    *,
    suite: str,
    headline: dict[str, Any] | None = None,
    limit: int = RECORD_LIMIT,
) -> None:
    """Append ``session`` to the rolling JSON record at ``path``.

    ``headline`` entries are copied to the record's top level (latest
    wall-clock, speedup floor, ...) so dashboards need not dig through the
    session list.  The temp-file + ``os.replace`` write keeps readers from
    ever seeing a torn file.  The perf record must never fail the benchmark
    run itself, so every step degrades silently.
    """
    try:
        record = json.loads(path.read_text())
        if not isinstance(record, dict) or not isinstance(record.get("sessions"), list):
            record = {"sessions": []}
    except (OSError, ValueError):
        record = {"sessions": []}
    record["suite"] = suite
    record["sessions"].append(session)
    record["sessions"] = record["sessions"][-limit:]
    for key, value in (headline or {}).items():
        record[key] = value
    temp_name = None
    try:
        handle = tempfile.NamedTemporaryFile(
            "w", dir=path.parent, suffix=".tmp", delete=False
        )
        temp_name = handle.name
        with handle as temp_file:
            temp_file.write(json.dumps(record, indent=2) + "\n")
        os.replace(temp_name, path)
    except OSError:
        if temp_name is not None:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
