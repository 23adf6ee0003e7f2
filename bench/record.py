"""Record the reference answers the benchmark checks every request against.

    python3 bench/record.py

Writes bench/reference.json: for each request of every workload, its exit
code and the SHA-256 of its stdout bytes.  The derivative-route harmonic
bases are recorded from the perp route on the same group, so the benchmark
checks that the two routes agree (criterion 4) as well as that nothing
changed.  Run it only when an output is meant to change, and say why in
the commit that updates the file.
"""

import json
import os
import sys

from run import REFERENCE_PATH, import_reflharm
from workloads import WORKLOADS, digest, requests


def main():
    import_reflharm()
    refs = {}
    for workload in WORKLOADS:
        for req in requests(workload):
            code, out = req.reference.execute()
            refs[req.ident] = {"code": code, "sha256": digest(out)}
            print("%d %s %s" % (code, digest(out)[:12], req.ident), file=sys.stderr)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %d references to %s" % (len(refs), os.path.relpath(REFERENCE_PATH)))


if __name__ == "__main__":
    main()
