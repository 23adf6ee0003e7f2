"""Command-line behaviour: outputs, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from reflharm import characters, harmonics, weyl
from reflharm.characters import character_table
from reflharm.cli import main
from reflharm.groups import catalog, registry_names, weyl_group
from reflharm.mpoly import MPoly
from reflharm.scalars import RatPoly


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_group_cyclic(capsys):
    data = run_json(capsys, "group", "--catalog", "cyclic:6")
    assert data["order"] == 6
    assert data["degrees"] == [6]
    assert data["reflection_count"] == 5
    assert data["skew_text"] == "X^5"
    assert data["poincare"] == [1, 1, 1, 1, 1, 1]


def test_group_b2(capsys):
    data = run_json(capsys, "group", "--catalog", "weyl:B:2")
    assert data["order"] == 8
    assert data["degrees"] == [2, 4]
    assert data["reflection_count"] == 4
    assert len(data["hyperplanes"]) == 4
    assert all(pl["order"] == 2 for pl in data["hyperplanes"])
    skew = MPoly.from_json(data["skew"])
    assert skew == weyl_group("B", 2).skew_contravariant()


def test_group_from_generators_file(capsys, tmp_path):
    path = tmp_path / "gens.json"
    path.write_text(json.dumps({
        "name": "pair",
        "generators": [[[-1, 0], [0, 1]], [[1, 0], [0, -1]]],
    }))
    data = run_json(capsys, "group", "--generators", str(path))
    assert data["name"] == "pair"
    assert data["order"] == 4
    assert data["degrees"] == [2, 2]


def test_group_usage_errors(capsys):
    code, _, err = run_cli(capsys, "group")
    assert code == 1 and "catalog" in err
    code, _, _ = run_cli(capsys, "group", "--catalog", "bogus:9")
    assert code == 1
    code, _, _ = run_cli(capsys, "group", "--catalog", "cyclic:6",
                         "--catalog2", "x")
    assert code == 1
    code, _, _ = run_cli(capsys, "nonsense")
    assert code == 1


def test_group_cap_exit(capsys):
    code, _, err = run_cli(capsys, "group", "--catalog", "weyl:B:4",
                           "--group-cap", "10")
    assert code == 2
    assert "cap" in err


@pytest.mark.parametrize("name", ["cyclic:10001", "gmpn:30000:1:1",
                                  "gmpn:2:1:1000000000",
                                  "cyclic:1000000000000000003"])
def test_catalog_group_over_cap_exits_at_once(name):
    # the known order is checked before any root of unity is built; in a
    # child process, so that a regression fails on the time bound instead
    # of stalling the suite
    proc = subprocess.run(
        [sys.executable, "-m", "reflharm", "group", "--catalog", name],
        capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2
    assert "cap of 10000" in proc.stderr


@pytest.mark.parametrize("argv", [
    ("count", "C2", "long-A1A1", "--max-degree", "3"),
    ("fake-degrees", "--catalog", "weyl:B:2", "--max-degree", "1"),
    ("count", "C2", "long-A1A1", "--group-cap", "10"),
])
def test_options_only_where_read(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "unrecognized arguments" in err


def test_out_unwritable(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, _, err = run_cli(capsys, "group", "--catalog", "cyclic:2",
                           "--out", str(target))
    assert code == 1
    assert "usage error: cannot write %s" % target in err
    assert not target.exists()


def test_harmonics_cyclic(capsys):
    data = run_json(capsys, "harmonics", "--catalog", "cyclic:6")
    assert data["dimension"] == 6
    assert sorted(data["degrees"]) == [str(d) for d in range(6)]
    assert data["poincare"] == [1] * 6


def test_harmonics_max_degree(capsys):
    data = run_json(capsys, "harmonics", "--catalog", "weyl:B:2",
                    "--max-degree", "2")
    assert data["dimension"] == 8
    assert set(data["degrees"]) == {"0", "1", "2"}
    assert data["poincare"] == [1, 2, 2, 2, 1]


@pytest.mark.parametrize("generators", [
    [[[-1, 0], [0, -1]]],
    [[[-1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, -1, 0], [0, 0, -1]]],
], ids=["minus-identity", "reflection-and-rotation"])
def test_harmonics_group_not_generated_by_reflections(capsys, tmp_path,
                                                      generators):
    """{+-Id} has no reflections and H = C (dimension 1 against order 2);
    the second group's reflections generate a subgroup of order 2 of 4."""
    path = tmp_path / "gens.json"
    path.write_text(json.dumps({"generators": generators}))
    for command in ("group", "harmonics"):
        code, out, err = run_cli(capsys, command, "--generators", str(path))
        assert code == 3 and out == "", command
    assert "not generated by reflections" in err


def test_factorise_b2(capsys):
    group = weyl_group("B", 2)
    want = {group.index_of([[-1, 0], [0, 1]]),
            group.index_of([[1, 0], [0, -1]])}
    picks = [str(k) for k, i in enumerate(group.reflections()) if i in want]
    assert len(picks) == 2
    data = run_json(capsys, "factorise", "--catalog", "weyl:B:2",
                    "--subgroup-reflections", ",".join(picks))
    assert data["bijective"] is True
    assert data["dim_identity"] is True
    assert data["poincare_equal"] is True
    assert data["poincare_lhs"] == [1, 2, 2, 2, 1]


def test_factorise_bad_indices(capsys):
    code, _, _ = run_cli(capsys, "factorise", "--catalog", "weyl:B:2",
                         "--subgroup-reflections", "0,99")
    assert code == 1
    code, _, _ = run_cli(capsys, "factorise", "--catalog", "weyl:B:2",
                         "--subgroup-reflections", "zero")
    assert code == 1
    code, _, _ = run_cli(capsys, "factorise", "--catalog", "weyl:B:2")
    assert code == 1


@pytest.mark.parametrize("name", ["cyclic:1", "gmpn:2:2:1"])
def test_factorise_group_without_reflections(capsys, name):
    code, _, err = run_cli(capsys, "factorise", "--catalog", name,
                           "--subgroup-reflections", "0")
    assert code == 1
    assert "has no reflections" in err
    assert "out of range" not in err


def test_fake_degrees_b2(capsys):
    data = run_json(capsys, "fake-degrees", "--catalog", "weyl:B:2")
    assert sorted(data["degrees"]) == [1, 1, 1, 1, 2]
    assert [0, 1, 0, 1] in data["fake_degrees"]
    assert data["fake_degrees"][0] == [1]


ORDER_ONE_GROUPS = [name for name in registry_names(192)
                    if catalog(name).order == 1]


@pytest.mark.parametrize("name", ORDER_ONE_GROUPS)
def test_fake_degrees_order_one(capsys, name):
    # one conjugacy class leaves no class-algebra matrix to diagonalise
    code, out, err = run_cli(capsys, "fake-degrees", "--catalog", name)
    assert code == 0, err
    assert "Traceback" not in err
    data = json.loads(out)
    assert data["degrees"] == [1]
    assert data["fake_degrees"] == [[1]]
    assert character_table(catalog(name)).irreducibles == ((1,),)


PRODUCTION_COMMANDS = [
    ("harmonics", "--catalog", "weyl:B:3"),
    ("fake-degrees", "--catalog", "gmpn:3:1:3"),
    ("factorise", "--catalog", "weyl:B:2", "--subgroup-reflections", "1,2"),
    ("count", "C2", "long-A1A1"),
]


@pytest.mark.parametrize("argv", PRODUCTION_COMMANDS, ids=lambda a: a[0])
def test_production_commands_skip_invariant_ring(capsys, monkeypatch, argv):
    """Harmonic bases and projections come from the skew product and the
    pairing alone: no free generators, ideal or perp kernel is built, and
    fixed points come from the generators, with no group average."""
    def refuse(*args, **kwargs):
        raise AssertionError("production path built invariant-ring data")

    for name in ("invariant_basis", "free_generators", "ideal_component",
                 "_harmonic_degree_perp", "reynolds"):
        monkeypatch.setattr(harmonics, name, refuse)
    patched = run_cli(capsys, *argv)
    monkeypatch.undo()
    plain = run_cli(capsys, *argv)
    assert patched[:2] == plain[:2]
    assert plain[0] == 0


@pytest.mark.parametrize("name", ["gmpn:3:1:3", "weyl:D:4"])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_fake_degrees_build_no_harmonic_basis(capsys, monkeypatch, name, fmt):
    """Graded characters come from class series: fake-degrees builds no
    harmonic basis and takes no action matrix or trace."""
    def refuse(*args, **kwargs):
        raise AssertionError("fake-degrees built a harmonic basis")

    argv = ("fake-degrees", "--catalog", name, "--format", fmt)
    for attr in ("harmonic_basis", "action_matrix", "action_trace"):
        monkeypatch.setattr(harmonics, attr, refuse)
    # the name verify_fake_degree_formula uses for its fixed-point route
    monkeypatch.setattr(characters, "harmonic_basis", refuse)
    patched = run_cli(capsys, *argv)
    monkeypatch.undo()
    plain = run_cli(capsys, *argv)
    assert patched[:2] == plain[:2]
    assert plain[0] == 0


COUNT_COMMANDS = [
    (("count", "C3", "A1C2"), None),
    (("count", "C2", "long-A1A1"), {"F0": [[0, 1], [1, 0]]}),
    (("count", "C3", "A1C2"),
     {"F0": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
      "g": {"indicator": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}}),
]


@pytest.mark.parametrize("argv,twist", COUNT_COMMANDS,
                         ids=["split", "twist-swap", "twist-indicator"])
def test_count_builds_no_harmonic_basis(capsys, monkeypatch, tmp_path,
                                        argv, twist):
    """Split and twisted counts come from class series of the coset F0*W:
    no harmonic basis, fixed-point basis, action matrix or trace."""
    def refuse(*args, **kwargs):
        raise AssertionError("count built a harmonic basis")

    if twist is not None:
        path = tmp_path / "twist.json"
        path.write_text(json.dumps(twist))
        argv += ("--twist", str(path))
    for attr in ("harmonic_basis", "fixed_point_basis", "action_matrix",
                 "action_trace"):
        monkeypatch.setattr(harmonics, attr, refuse)
        monkeypatch.setattr(weyl, attr, refuse, raising=False)
    patched = run_cli(capsys, *argv)
    monkeypatch.undo()
    plain = run_cli(capsys, *argv)
    assert patched[:2] == plain[:2]
    assert plain[0] == 0


def test_count_split(capsys):
    data = run_json(capsys, "count", "C2", "long-A1A1")
    assert data["N"] == 4 and data["Nprime"] == 2
    assert data["C_order"] == 2
    assert data["polynomial"] == [0, 0, 0, 0, 1]


def test_count_full(capsys):
    data = run_json(capsys, "count", "C2", "full")
    assert data["polynomial"] == [1]


def test_count_c3(capsys):
    data = run_json(capsys, "count", "C3", "A1C2")
    assert data["Nprime"] == 5
    assert data["polynomial"] == [0, 0, 0, 0, 1, 0, 1, 0, 1]


def test_count_text_mode(capsys):
    code, out, _ = run_cli(capsys, "count", "C2", "long-A1A1",
                           "--format", "text")
    assert code == 0
    assert "polynomial: q^4" in out
    assert "|C|: 2" in out


def test_count_unknown_subsystem(capsys):
    code, _, _ = run_cli(capsys, "count", "C2", "mystery")
    assert code == 1


def test_count_twisted(capsys, tmp_path):
    path = tmp_path / "twist.json"
    path.write_text(json.dumps({"F0": [[0, 1], [1, 0]]}))
    data = run_json(capsys, "count", "C2", "long-A1A1",
                    "--twist", str(path))
    assert data["polynomial"] == [0, 0, 0, 0, 1]
    assert data["stabilizes_ambient_simples"] is False

    path.write_text(json.dumps({
        "F0": [[1, 0], [0, 1]],
        "g": {"indicator": [[0, 1], [1, 0]]},
    }))
    data = run_json(capsys, "count", "C2", "long-A1A1",
                    "--twist", str(path))
    assert RatPoly.from_json(data["polynomial"]) == \
        RatPoly(["0", "0", "-1/2", "0", "1/2"])


def test_twist_file_errors(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "count", "C2", "long-A1A1",
                         "--twist", str(tmp_path / "missing.json"))
    assert code == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run_cli(capsys, "count", "C2", "long-A1A1",
                         "--twist", str(bad))
    assert code == 1


def test_singular_twist_is_usage_error(capsys, tmp_path):
    path = tmp_path / "twist.json"
    path.write_text(json.dumps({"F0": [[1, 0], [0, 0]]}))
    code, out, err = run_cli(capsys, "count", "C2", "long-A1A1",
                             "--twist", str(path))
    assert code == 1 and out == ""
    assert "twisting matrix is singular" in err


def test_shear_twist_is_usage_error(capsys, tmp_path):
    # an invertible F0 of infinite order that does not normalise W is bad
    # input, not a run into the matrix-order cap
    path = tmp_path / "twist.json"
    path.write_text(json.dumps({"F0": [[1, 1], [0, 1]]}))
    code, out, err = run_cli(capsys, "count", "C2", "long-A1A1",
                             "--twist", str(path))
    assert code == 1 and out == ""
    assert "does not normalize the Weyl group" in err


def test_irrational_twist_is_domain_error(capsys, tmp_path):
    # zeta_3 * Id normalises every group, but sends roots out of Q^2
    z3 = {"order": 3, "coeffs": [0, 1]}
    path = tmp_path / "twist.json"
    path.write_text(json.dumps({"F0": [[z3, 0], [0, z3]]}))
    code, out, err = run_cli(capsys, "count", "C2", "long-A1A1",
                             "--twist", str(path))
    assert code == 3 and out == ""
    assert "rational" in err


_ID2 = [[1, 0], [0, 1]]
_SWAP2 = [[0, 1], [1, 0]]


@pytest.mark.parametrize("argv,payload", [
    (("group", "--generators"), {"generators": 5}),
    (("group", "--generators"), {"generators": [5]}),
    (("group", "--generators"), {"generators": [[5]]}),
    (("group", "--generators"), {"generators": [[["a"]]]}),
    (("group", "--generators"),
     {"generators": [[[{"order": "x", "coeffs": [1]}]]]}),
    (("count", "C2", "long-A1A1", "--twist"), {"F0": 5}),
    (("count", "C2", "long-A1A1", "--twist"),
     {"F0": _ID2, "g": {"values": 3}}),
    (("count", "C2", "long-A1A1", "--twist"),
     {"F0": _ID2, "g": {"indicator": 5}}),
    (("count", "C2", "long-A1A1", "--twist"), {"F0": [["x", 0], [0, 1]]}),
    (("count", "C2", "long-A1A1", "--twist"),
     {"F0": _ID2, "g": {"values": [{"element": _ID2}]}}),
    (("count", "C2", "long-A1A1", "--twist"),
     {"F0": _ID2, "g": {"values": [{"element": _ID2, "value": 1},
                                   {"element": _SWAP2, "value": 0},
                                   {"element": _SWAP2, "value": 1}]}}),
    (("group", "--generators"), {"generators": [[[True]]]}),
    (("count", "C2", "long-A1A1", "--twist"),
     {"F0": [[True, False], [False, True]]}),
    (("count", "C2", "long-A1A1", "--twist"),
     {"F0": _ID2, "g": {"values": [{"element": _ID2, "value": True},
                                   {"element": _SWAP2, "value": 0}]}}),
    (("group", "--generators"),
     {"generators": [[[{"order": 2, "coeffs": [-1.0]}]]]}),
    (("group", "--generators"),
     {"generators": [[[{"order": 1, "coeffs": [0.1]}]]]}),
    # phi(n) cannot be 1 for this n, and factoring n would never finish
    (("group", "--generators"),
     {"generators": [[[{"order": 1000000000000000003, "coeffs": ["1"]}]]]}),
], ids=["generators-int", "matrix-int", "row-int", "entry-string",
        "order-string", "f0-int", "values-int", "indicator-int",
        "f0-string", "value-missing", "values-conflict", "entry-bool",
        "f0-bool", "value-bool", "coeffs-float", "coeffs-float-inexact",
        "huge-order"])
def test_malformed_matrix_json_is_usage_error(capsys, tmp_path, argv,
                                               payload):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code, _, err = run_cli(capsys, *argv, str(path))
    assert code == 1
    assert "usage error" in err


def test_byte_determinism(capsys, tmp_path):
    _, first, _ = run_cli(capsys, "group", "--catalog", "weyl:B:2")
    _, second, _ = run_cli(capsys, "group", "--catalog", "weyl:B:2")
    assert first == second
    out = tmp_path / "report.json"
    code, stdout, _ = run_cli(capsys, "group", "--catalog", "weyl:B:2",
                              "--out", str(out))
    assert code == 0 and stdout == ""
    assert out.read_text() == first


def test_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "group", "--catalog", "cyclic:3")
    assert code == 0
    data = json.loads(out)
    assert json.dumps(data, indent=2, sort_keys=True) + "\n" == out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "reflharm", "group",
         "--catalog", "cyclic:3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["order"] == 3
