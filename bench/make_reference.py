#!/usr/bin/env python3
"""Regenerate reference.json from one run of each workload on trusted code.

    python3 bench/make_reference.py

Run it only on code whose output is known good (the exact verdicts pass and
the test suite is green); the benchmark then compares every later run
against what it writes.
"""

from __future__ import annotations

import json

from check import REFERENCE_PATH
from run import run_worker
from workloads import WORKLOADS


def main() -> None:
    reference = {name: run_worker(name, 0, 0, "reference") for name in WORKLOADS}
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")


if __name__ == "__main__":
    main()
