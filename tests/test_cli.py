"""Command line interface: outputs, exit codes, file handling."""

import argparse
import hashlib
import inspect
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import selfsim
from selfsim import cli, cli_main, compute_nucleus

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
DEMOS = PYPROJECT.parent / "demos"

BASILICA_TEXT = """\
alphabet 2
a = (0 1)(b, id)
b = id(a, id)
id = id(id, id)
gens a b
"""


def _run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_level_one_edges(capsys):
    code, out, err = _run(capsys, "gen", "--catalog", "basilica", "--level", "1")
    assert code == 0
    assert out == "0\t1\ta\n1\t0\ta\n0\t0\tb\n1\t1\tb\n"
    assert err == ""


def test_gen_level_one_matrix(capsys):
    code, out, _ = _run(
        capsys, "gen", "--catalog", "basilica", "--level", "1", "--format", "matrix"
    )
    assert code == 0
    assert out == "b,a\na,b\n"


def test_gen_reads_automaton_file(tmp_path, capsys):
    path = tmp_path / "basilica.txt"
    path.write_text(BASILICA_TEXT)
    code, out, _ = _run(capsys, "gen", "--automaton", str(path), "--level", "1")
    assert code == 0
    assert out == "0\t1\ta\n1\t0\ta\n0\t0\tb\n1\t1\tb\n"


def test_gen_writes_output_file(tmp_path, capsys):
    target = tmp_path / "graph.tsv"
    code, out, _ = _run(
        capsys, "gen", "--catalog", "basilica", "--level", "1", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == "0\t1\ta\n1\t0\ta\n0\t0\tb\n1\t1\tb\n"


def test_gen_simplicial(capsys):
    code, out, _ = _run(
        capsys, "gen", "--catalog", "basilica", "--level", "1", "--simplicial"
    )
    assert code == 0
    assert out == "0\t1\t\n"


def test_gen_symmetrize_adds_inverse_labels(capsys):
    code, out, _ = _run(
        capsys, "gen", "--catalog", "odometer", "--level", "1", "--symmetrize"
    )
    assert code == 0
    labels = {line.split("\t")[2] for line in out.strip().split("\n")}
    assert labels == {"a", "a^-1"}


def test_gen_drop_identity(tmp_path, capsys):
    path = tmp_path / "padded.txt"
    path.write_text("alphabet 2\na = (0 1)(e, e)\ne = id(e, e)\ngens a e\n")
    code, out, err = _run(capsys, "gen", "--automaton", str(path), "--level", "1", "--drop-identity")
    assert code == 0
    assert out == "0\t1\ta\n1\t0\ta\n"
    assert "dropped identity generators: e" in err


def test_gen_drop_identity_notes_when_nothing_drops(capsys):
    code, _, err = _run(
        capsys, "gen", "--catalog", "basilica", "--level", "1", "--drop-identity"
    )
    assert code == 0
    assert "found no identity generators" in err


def test_missing_source_is_usage_error(capsys):
    code, _, err = _run(capsys, "gen", "--level", "1")
    assert code == 1
    assert "usage" in err


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = _run(capsys, "frobnicate")
    assert code == 1


def test_help_exits_zero(capsys):
    code, out, _ = _run(capsys, "--help")
    assert code == 0


def test_unknown_catalog_key(capsys):
    code, _, err = _run(capsys, "gen", "--catalog", "nope", "--level", "1")
    assert code == 2
    assert "error:" in err


def test_missing_automaton_file(capsys):
    code, _, err = _run(capsys, "gen", "--automaton", "/no/such/file", "--level", "1")
    assert code == 2
    assert "error:" in err


def test_parse_error_reports_position(tmp_path, capsys):
    path = tmp_path / "broken.txt"
    path.write_text("alphabet 2\na = (0 3)(a, a)\ngens a\n")
    code, _, err = _run(capsys, "gen", "--automaton", str(path), "--level", "1")
    assert code == 2
    assert "line 2" in err


def test_vertex_cap_exit_code(capsys):
    code, _, err = _run(
        capsys, "gen", "--catalog", "basilica", "--level", "10", "--vertex-cap", "100"
    )
    assert code == 3
    assert "cap" in err


def test_nucleus_contracting_report(capsys):
    code, out, _ = _run(capsys, "nucleus", "--catalog", "basilica")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "verdict: contracting"
    assert lines[1] == "elements: 7"
    assert lines[2] == "certificate depth: 2"
    names = lines[3:]
    assert len(names) == 7
    assert {"id", "a", "b", "a^-1", "b^-1"} <= set(names)


def test_nucleus_leaves_out_states_the_generators_never_reach(tmp_path, capsys):
    # z acts as the swap at every level: recurrent, and outside the basilica nucleus
    reports = []
    for text in (BASILICA_TEXT, BASILICA_TEXT.replace("gens a b", "z = (0 1)(z, z)\ngens a b")):
        path = tmp_path / "automaton.txt"
        path.write_text(text)
        code, out, _ = _run(capsys, "nucleus", "--automaton", str(path))
        assert code == 0
        reports.append(out)
    assert reports[0] == reports[1]


def test_nucleus_bound_exceeded_is_data(capsys):
    code, out, _ = _run(
        capsys, "nucleus", "--catalog", "lamplighter", "--max-elements", "50"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "verdict: bound-exceeded"
    assert "reason: elements" in lines
    assert any(line.startswith("seen: ") for line in lines)


@pytest.mark.parametrize(
    "argv",
    [
        ("nucleus", "--catalog", "basilica", "--max-elements", "-1"),
        ("nucleus", "--catalog", "basilica", "--max-depth", "-1"),
        ("equiv", "--catalog", "basilica", "01^w", "10^w", "--max-elements", "-1"),
        ("equiv", "--catalog", "basilica", "01^w", "10^w", "--max-depth", "-1"),
    ],
)
def test_negative_nucleus_bounds_are_validation_errors(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "must not be negative" in err


def test_parser_built_once_keeps_no_defaults_between_calls(capsys):
    bounded = ("nucleus", "--catalog", "aleshin", "--max-elements", "50")
    plain = ("nucleus", "--catalog", "aleshin")
    fresh = {}
    for argv in (bounded, plain):
        cli._build_parser.cache_clear()
        fresh[argv] = _run(capsys, *argv)
    cli._build_parser.cache_clear()
    assert [_run(capsys, *argv) for argv in (bounded, plain)] == [fresh[bounded], fresh[plain]]
    assert fresh[bounded] != fresh[plain]
    assert cli._build_parser.cache_info().misses == 1


# every subcommand's options as (default, choices, required, help), keyed by option string or
# positional name, and its mutually exclusive groups; a shared option has one help string everywhere
_SOURCE = {
    "--automaton": (None, None, False, "recursion file to load"),
    "--catalog": (None, None, False, "built-in catalog entry"),
    "--out": (None, None, False, "write to a file instead of stdout"),
}
_SOURCE_GROUP = [(("automaton", "catalog"), True)]
_VERTEX_CAP = {"--vertex-cap": (None, None, False, "override the vertex safety cap")}
_FORMAT = {"--format": ("edges", ("edges", "dot", "graphml", "matrix"), False, None)}
_BOUNDS = {"--max-elements": (10000, None, False, None), "--max-depth": (20, None, False, None)}
CLI_SURFACE = {
    "gen": ({
        **_SOURCE, **_VERTEX_CAP, **_FORMAT,
        "--level": (None, None, True, "tree level n"),
        "--simplicial": (False, None, False, "forget labels, loops, multiplicity"),
        "--drop-identity": (False, None, False, "omit generators acting trivially"),
        "--symmetrize": (False, None, False, "adjoin inverse generators"),
    }, _SOURCE_GROUP),
    "nucleus": ({**_SOURCE, **_BOUNDS}, _SOURCE_GROUP),
    "check": ({
        "--catalog": (None, None, False, None),
        "--all": (False, None, False, None),
    }, [(("all", "catalog"), True)]),
    "equiv": ({
        **_SOURCE, **_BOUNDS,
        "p": (None, None, True, 'boundary point, e.g. "1^w" or "10^w 0"'),
        "q": (None, None, True, "boundary point"),
    }, _SOURCE_GROUP),
    "ssg": ({**_SOURCE, **_VERTEX_CAP, **_FORMAT, "--depth": (None, None, True, None)}, _SOURCE_GROUP),
    "spectrum": ({**_SOURCE, **_VERTEX_CAP, "--level": (None, None, True, None)}, _SOURCE_GROUP),
    "pointed": ({
        **_SOURCE, **_VERTEX_CAP, **_FORMAT,
        "--xi": (None, None, True, 'boundary point, e.g. "0^w"'),
        "--level": (None, None, True, None),
    }, _SOURCE_GROUP),
}


def _subcommands():
    parser = cli._build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_cli_surface_matches_table():
    surface = {}
    for name, sub in _subcommands().items():
        options = {
            (a.option_strings[0] if a.option_strings else a.dest): (a.default, a.choices, a.required, a.help)
            for a in sub._actions
            if not isinstance(a, argparse._HelpAction)
        }
        groups = sorted(
            (tuple(sorted(a.dest for a in g._group_actions)), g.required) for g in sub._mutually_exclusive_groups
        )
        surface[name] = (options, groups)
    assert surface == CLI_SURFACE


def test_bound_defaults_are_compute_nucleus_defaults():
    defaults = inspect.signature(compute_nucleus).parameters
    for name in ("nucleus", "equiv"):
        actions = _subcommands()[name]._option_string_actions
        assert actions["--max-elements"].default == defaults["max_elements"].default
        assert actions["--max-depth"].default == defaults["max_depth"].default


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "--catalog", "basilica", "--level", "2", "--format", "matrix"),
        ("nucleus", "--catalog", "basilica"),
        ("equiv", "--catalog", "odometer", "0^w", "1^w"),
        ("ssg", "--catalog", "basilica", "--depth", "2"),
        ("spectrum", "--catalog", "basilica", "--level", "2"),
        ("pointed", "--catalog", "basilica", "--xi", "0^w", "--level", "2", "--format", "graphml"),
    ],
)
def test_out_file_holds_the_stdout_bytes(tmp_path, capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 0 and out and err == ""
    target = tmp_path / "out.txt"
    code, out_with_file, err = _run(capsys, *argv, "--out", str(target))
    assert (code, out_with_file, err) == (0, "", "")
    assert target.read_bytes() == out.encode()


def test_check_single_entry(capsys):
    code, out, _ = _run(capsys, "check", "--catalog", "basilica")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("[basilica] ")
    assert len(lines) > 1
    for line in lines[1:]:
        assert line.startswith("  PASS ")


def test_equiv_true_with_witness(capsys):
    code, out, _ = _run(capsys, "equiv", "--catalog", "odometer", "0^w", "1^w")
    assert code == 0
    lines = out.strip().split("\n")
    assert "p: 0^w" in lines
    assert "q: 1^w" in lines
    assert "equivalent: true" in lines
    assert any(line.startswith("witness tail: ") for line in lines)
    assert any(line.startswith("witness cycle: ") for line in lines)
    assert "witness validated: true" in lines


def test_equiv_false_is_data(capsys):
    code, out, _ = _run(capsys, "equiv", "--catalog", "odometer", "0^w", "0^w 1")
    assert code == 0
    assert "equivalent: false" in out
    assert "witness" not in out


def test_equiv_needs_contraction(capsys):
    code, _, err = _run(
        capsys, "equiv", "--catalog", "lamplighter", "0^w", "1^w", "--max-elements", "50"
    )
    assert code == 2
    assert "contracting" in err


def test_equiv_bad_point_syntax(capsys):
    code, _, err = _run(capsys, "equiv", "--catalog", "odometer", "0^w", "zzz")
    assert code == 2
    assert "error:" in err
    # the points are checked before the closure: aleshin is not contracting, so a closure run
    # first would report its bounds instead, after a long wait on larger inputs
    code, _, err = _run(capsys, "equiv", "--catalog", "aleshin", "garbage", "1^w")
    assert code == 2
    assert "boundary point must look like PERIOD^w [PREPERIOD], got 'garbage'" in err
    code, _, err = _run(capsys, "equiv", "--catalog", "aleshin", "1^w", "2^w")
    assert code == 2
    assert "boundary point 2^w uses letters outside a 2-letter alphabet" in err


def test_ssg_export(capsys):
    code, out, _ = _run(capsys, "ssg", "--catalog", "basilica", "--depth", "2")
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert ["", "0", ""] in rows  # root hangs below the level-1 vertices
    assert ["0", "00", ""] in rows


def test_spectrum_output(capsys):
    code, out, _ = _run(capsys, "spectrum", "--catalog", "basilica", "--level", "2")
    assert code == 0
    values = [float(line) for line in out.strip().split("\n")]
    assert values == pytest.approx([1.0, 0.7071067811865476, 0.0, -0.7071067811865476], abs=1e-9)
    for line in out.strip().split("\n"):
        assert len(line.split(".")[1]) == 12


def test_pointed_export_marks_root(capsys):
    code, out, _ = _run(
        capsys, "pointed", "--catalog", "basilica", "--xi", "0^w", "--level", "2"
    )
    assert code == 0
    assert out.startswith("# root\t00\n")


def test_pointed_matrix_format_rejected(capsys):
    code, _, err = _run(
        capsys,
        "pointed", "--catalog", "basilica", "--xi", "0^w", "--level", "2",
        "--format", "matrix",
    )
    assert code == 2
    assert "error:" in err


def _load_toml(path):
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with path.open("rb") as handle:
        return tomllib.load(handle)


def _in_tree():
    # A child process imports the selfsim this process imported, whatever the
    # working directory, a relative PYTHONPATH or an installed copy say.
    import_root = str(Path(selfsim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [import_root, env.get("PYTHONPATH")])
    )
    return import_root, env


def _check_gen_level_one(command, **kwargs):
    proc = subprocess.run(
        [*command, "gen", "--catalog", "basilica", "--level", "1"],
        capture_output=True,
        text=True,
        timeout=60,
        **kwargs,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\t1\ta\n1\t0\ta\n0\t0\tb\n1\t1\tb\n"
    return proc


def test_console_script_entry_point():
    # Start the entry point declared in pyproject.toml the way the installed
    # console-script wrapper does, so no install is needed to test it.
    target = _load_toml(PYPROJECT)["project"]["scripts"]["selfsim"]
    module, _, attr = target.partition(":")
    launcher = (
        "import importlib, sys\n"
        f"entry = getattr(importlib.import_module({module!r}), {attr!r})\n"
        "sys.exit(entry())\n"
    )
    import_root, env = _in_tree()
    _check_gen_level_one([sys.executable, "-c", launcher], env=env, cwd=import_root)
    module_run = _check_gen_level_one([sys.executable, "-m", "selfsim"], env=env, cwd=import_root)
    assert module_run.stderr == ""
    # runpy may warn on stderr that selfsim.cli was imported before it ran
    _check_gen_level_one([sys.executable, "-m", "selfsim.cli"], env=env, cwd=import_root)

    installed = shutil.which("selfsim")
    if installed is not None:
        _check_gen_level_one([installed])


# sha256 of each demo's stdout, frozen so that a change to the library shows in
# what a user reads; 05_spectra prints LAPACK eigenvalues, -0.0000 among them,
# whose last digits and signs may differ between BLAS builds, so it is not frozen
DEMO_STDOUT_SHA256 = {
    "01_recursion_basics.py": "6353029a535f109fe16f21ada616ed2858576443b6757d0b3573aff6b2229644",
    "02_schreier_graphs.py": "2cad4c2f18ed4517c38fc997f101f75277207fc2626c728e290e237a9643ae9e",
    "03_nucleus.py": "62fef30b2a696a763520dc8c7362afb2206eac1b2a4f3788042f9d546beecbce",
    "04_limit_space.py": "54b9396b3b8cd0f6ef204d4247b2fbbebbe93f549bd4d7ed531fced56f04be3d",
}


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(demo):
    import_root, env = _in_tree()
    proc = subprocess.run(
        [sys.executable, str(DEMOS / demo)],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
        cwd=import_root,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    if demo in DEMO_STDOUT_SHA256:
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == DEMO_STDOUT_SHA256[demo]
