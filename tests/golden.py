"""The golden pin: fixed-seed values of the paper's tables and figures.

``GOLDEN.json`` at the repository root holds ``result.to_dict()`` of
every ``api.run`` cell behind Tables 2-4 and Figures 1-4, run at the
parameters ``repro table N`` / ``repro figure N`` use by default.  A
refactor that changes any science result fails the comparison.

Usage (from the repository root)::

    PYTHONPATH=src python tests/golden.py --check T3 T4 F2   # compare cells
    PYTHONPATH=src python tests/golden.py --update        # re-record all

Re-record only when a science result is meant to change, and explain the
change where the project records its changes; never re-record to make a
refactor pass.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "GOLDEN.json"

#: Artifacts the tier-1 suite compares; the rest run in a slower CI job.
FAST_ARTIFACTS = ("T2", "F1", "F3", "F4")
SLOW_ARTIFACTS = ("T3", "T4", "F2")
ARTIFACTS = FAST_ARTIFACTS + SLOW_ARTIFACTS


def cells(artifacts: Sequence[str] = ARTIFACTS) -> List[dict]:
    """The ``api.run`` cells of ``artifacts``, at the CLI defaults."""
    from repro.attacks.arp_poison import POISON_TECHNIQUES
    from repro.core.report import DETECTOR_KEYS, LATENCY_KEYS
    from repro.schemes.registry import SCHEME_FACTORIES

    schemes = list(SCHEME_FACTORIES)
    out: List[dict] = []

    def add(artifact: str, kind: str, scheme: Optional[str], **params) -> None:
        if artifact in artifacts:
            out.append(
                {"artifact": artifact, "kind": kind, "scheme": scheme, "params": params}
            )

    for scheme in [None] + schemes:
        for technique in POISON_TECHNIQUES:
            add("T2", "effectiveness", scheme, technique=technique)
    for scheme in schemes:
        add("T3", "false-positives", scheme, duration=900.0)
    for scheme in schemes:
        for n_hosts in (8, 16, 32):
            add("T4", "footprint", scheme, n_hosts=n_hosts)
    for rate in (0.2, 0.5, 1.0, 2.0, 5.0, 10.0):
        for scheme in DETECTOR_KEYS:
            add("F1", "detection-latency", scheme, poison_rate=rate)
    for n_hosts in (8, 16, 32, 64):
        for scheme in (None, "s-arp", "tarp", "active-probe"):
            add("F2", "overhead", scheme, n_hosts=n_hosts)
    for scheme in LATENCY_KEYS:
        add("F3", "resolution-latency", scheme, n_resolutions=30)
    for scheme in (None, "anticap", "dai", "s-arp", "hybrid"):
        add("F4", "interception-timeline", scheme, duration=120.0, attack_at=30.0)
    return out


def cell_key(cell: dict) -> str:
    params = ",".join(f"{k}={v}" for k, v in sorted(cell["params"].items()))
    return f"{cell['artifact']}|{cell['kind']}|{cell['scheme'] or 'none'}|{params}"


def run_cell(cell: dict) -> dict:
    """One cell's result, normalised to its JSON form."""
    from repro.core import api

    result = api.run(cell["kind"], scheme=cell["scheme"], **cell["params"])
    return json.loads(json.dumps(result.to_dict()))


def load() -> Dict[str, dict]:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def drift(artifacts: Sequence[str]) -> List[str]:
    """Keys of the cells of ``artifacts`` whose result differs from the pin."""
    golden = load()
    return [
        cell_key(cell)
        for cell in cells(artifacts)
        if golden.get(cell_key(cell)) != run_cell(cell)
    ]


def update() -> int:
    golden = {cell_key(cell): run_cell(cell) for cell in cells()}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(golden)} cells to {GOLDEN_PATH.name}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--update", action="store_true", help="re-record every cell")
    mode.add_argument("--check", nargs="+", choices=ARTIFACTS, metavar="ARTIFACT",
                      help=f"compare the cells of these artifacts {ARTIFACTS}")
    args = parser.parse_args(argv)
    if args.update:
        return update()
    bad = drift(args.check)
    for key in bad:
        print(f"drift: {key}")
    print(f"{len(cells(args.check)) - len(bad)}/{len(cells(args.check))} cells match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
