#!/usr/bin/env python3
"""Run every lemma verifier at default resolution and print a summary line each.

The verifiers are the CLI's ``khinsphere verify`` table, run with its default
parameters.  Exits 2 if any verifier fails, mirroring the CLI convention.
"""
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from khinsphere.cli import LEMMAS  # noqa: E402


def main() -> int:
    any_failed = False
    for name, job in LEMMAS.items():
        t0 = time.monotonic()
        report = job({})
        dt = time.monotonic() - t0
        status = "PASS" if report.passed else "FAIL"
        any_failed |= not report.passed
        print(f"{status:4s}  {name:22s} min_margin={report.min_margin:.3e}  ({dt:.1f}s)")
    return 2 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
