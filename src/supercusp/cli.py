"""Command line entry point, installed as the `supercusp` console script.

    supercusp report SPEC [--format json|csv]

prints every packet report of one TYPE:ISOGENY:TWIST spec (for example
`2A5:adjoint:*`), as one JSON document with sorted keys or as CSV.  A bad
spec exits with status 2 and the message naming the faulty field.
"""

from __future__ import annotations

import argparse
import json
import sys

from supercusp.correspond import (CorrespondenceError, full_report,
                                  reports_csv, reports_json)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="supercusp",
        description="Supercuspidal unipotent packets of unramified groups.")
    commands = parser.add_subparsers(dest="command", required=True)
    report = commands.add_parser(
        "report", help="print the packet reports of one spec")
    report.add_argument("spec", help="TYPE:ISOGENY:TWIST, e.g. 2A5:adjoint:*")
    report.add_argument("--format", choices=("json", "csv"), default="json")
    args = parser.parse_args(argv)

    try:
        reports = full_report(args.spec)
    except CorrespondenceError:
        # the two sides of the package disagree: a bug, not bad input
        raise
    except ValueError as exc:
        parser.exit(2, f"supercusp: error: {exc}\n")
    if args.format == "csv":
        sys.stdout.write(reports_csv(reports))
    else:
        print(json.dumps(reports_json(reports), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
