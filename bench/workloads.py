"""The benchmark's request lists and how one request is executed.

A request is either `reflharm.cli.main(argv)` with stdout captured, or a
named library call whose answer is serialised to text.  Every request
builds its own group objects, so the per-group caches of harmonics,
characters and factorisation start empty each time, as they do for a CLI
user.  Why each request is in its workload is written down in NOTES.md.
"""

import contextlib
import hashlib
import io
import json
import os

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
TWIST_DIR = os.path.join(BENCH_DIR, "twists")


class Request:
    """One user request: `ident` names it in references and reports.

    `reference` is the request whose answer record.py stores for this one;
    by default the request itself."""

    def __init__(self, ident, command, call, reference=None):
        self.ident = ident
        self.command = command  # CLI subcommand, or "lib" for library calls
        self._call = call
        self.reference = reference or self

    def execute(self):
        """Run the request; return (exit code, stdout bytes)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self._call()
        return code, out.getvalue().encode("utf-8")


def _cli(*argv):
    def call():
        from reflharm.cli import main
        return main(list(argv))
    return call


def cli_request(*argv):
    return Request(" ".join(argv), argv[0], _cli(*argv))


def twist_request(datum, subsystem, twist_file):
    path = os.path.join(TWIST_DIR, twist_file)
    return Request("count %s %s --twist %s" % (datum, subsystem, twist_file),
                   "count", _cli("count", datum, subsystem, "--twist", path))


def basis_text(basis):
    """The graded basis in the layout `reflharm harmonics` prints."""
    degrees = {str(d): [p.to_json() for p in basis.basis(d)]
               for d in sorted(basis.degrees)}
    return json.dumps({"dimension": basis.dimension(), "degrees": degrees},
                      indent=2, sort_keys=True) + "\n"


def harmonic_basis_request(name, method):
    """`harmonic_basis(catalog(name), method)`.

    The reference digest of the derivative route is that of the perp
    route on the same group (criterion 4), and the dimension must be |G|.
    """
    def call():
        from reflharm.groups import catalog
        from reflharm.harmonics import harmonic_basis
        group = catalog(name)
        basis = harmonic_basis(group, method)
        print(basis_text(basis), end="")
        return 0 if basis.dimension() == group.order else 3
    reference = harmonic_basis_request(name, "perp") if method == "derivative" else None
    return Request("harmonic_basis %s %s" % (name, method), "lib", call, reference)


def skewness_request(name):
    """`check_skewness(i)` over every element of the group."""
    def call():
        from reflharm.groups import catalog
        group = catalog(name)
        flags = [group.check_skewness(i) for i in range(group.order)]
        print(json.dumps({"name": name, "order": group.order,
                          "skew": flags}, sort_keys=True))
        return 0 if all(flags) else 3
    return Request("check_skewness %s" % name, "lib", call)


def _bases():
    reqs = []
    for name in ("weyl:D:4", "gmpn:3:1:3", "gmpn:4:2:3"):
        reqs.append(cli_request("group", "--catalog", name))
        reqs.append(cli_request("harmonics", "--catalog", name))
    for name in ("weyl:A:4", "gmpn:6:2:3"):
        reqs.append(cli_request("group", "--catalog", name))
    for name in ("weyl:A:4", "gmpn:3:1:3", "weyl:D:4"):
        reqs.append(harmonic_basis_request(name, "derivative"))
    for name in ("weyl:B:3", "gmpn:3:1:3"):
        reqs.append(skewness_request(name))
    return reqs


def _verify():
    pairs = (("weyl:B:2", "1,2"), ("weyl:C:3", "6,1,2"), ("cyclic:12", "2"),
             ("gmpn:3:1:2", "0,5"), ("weyl:B:3", "0,1"), ("weyl:A:3", "0,1"))
    reqs = [cli_request("factorise", "--catalog", name,
                        "--subgroup-reflections", picks)
            for name, picks in pairs]
    reqs.append(cli_request("count", "C2", "long-A1A1"))
    reqs.append(twist_request("C2", "long-A1A1", "c2_swap.json"))
    reqs.append(cli_request("count", "C3", "A1C2"))
    reqs.append(twist_request("C3", "A1C2", "c3_identity.json"))
    return reqs


def _tables():
    names = ("weyl:B:3", "gmpn:3:1:3", "weyl:A:3", "weyl:G2:2",
             "gmpn:4:4:3", "weyl:D:4")
    return [cli_request("fake-degrees", "--catalog", name) for name in names]


WORKLOADS = {"bases": _bases, "verify": _verify, "tables": _tables}


def requests(workload):
    return WORKLOADS[workload]()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
