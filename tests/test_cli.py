import argparse
import contextlib
import io
import json
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nsbox import cli
from nsbox.boxes import Box, BoxShape
from nsbox.cli import _build_parser, main
from nsbox.families import pr, svetlichny_box, two_way_vertex, uniform, xyplusz
from nsbox.fileio import dumps_functional, load_box, loads_box, save_box
from nsbox.locality import chsh_functional


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_make_then_chsh(tmp_path, capsys):
    box = tmp_path / "pr.box"
    code, out, _ = run(capsys, "make", "pr", "-o", str(box))
    assert code == 0
    code, out, _ = run(capsys, "bell", str(box), "--chsh", "0", "0", "0")
    assert code == 0
    assert out == "4/1\n"


def test_dim(capsys):
    code, out, _ = run(capsys, "dim", "2,2/2,2")
    assert code == 0
    assert out == "8\n"
    # a shape whose dense H-representation would not fit in memory
    assert run(capsys, "dim", "65536:2/2")[:2] == (0, "131073\n")


def test_preset_wire_expect(tmp_path, capsys):
    wiring = tmp_path / "p5.json"
    target = tmp_path / "xyplusz.box"
    assert run(capsys, "preset", "P5", "-o", str(wiring))[0] == 0
    assert run(capsys, "make", "xyplusz", "-o", str(target))[0] == 0
    code, out, _ = run(capsys, "wire", str(wiring), "--expect", str(target))
    assert code == 0
    assert out == "MATCH\n"


def test_wire_mismatch(tmp_path, capsys):
    wiring = tmp_path / "p6.json"
    target = tmp_path / "xyplusz.box"
    run(capsys, "preset", "P6", "-o", str(wiring))
    run(capsys, "make", "xyplusz", "-o", str(target))
    code, out, _ = run(capsys, "wire", str(wiring), "--expect", str(target))
    assert code == 1
    assert out == "MISMATCH\n"


def test_wire_prints_or_saves_the_box(tmp_path, capsys):
    wiring = tmp_path / "p1.json"
    run(capsys, "preset", "P1", "2", "2", "-o", str(wiring))
    code, out, _ = run(capsys, "wire", str(wiring))
    assert code == 0
    assert out.startswith("shape 4,4/4,4\n")
    assert loads_box(out).shape.outputs == ((4, 4), (4, 4))
    saved = tmp_path / "result.box"
    code, out, _ = run(capsys, "wire", str(wiring), "-o", str(saved))
    assert code == 0
    assert out == ""
    load_box(saved).require_valid()


def test_validate_verdicts(tmp_path, capsys):
    good = tmp_path / "good.box"
    save_box(xyplusz(), good)
    code, out, _ = run(capsys, "validate", str(good))
    assert code == 0
    assert out == "VALID\n"

    bad = tmp_path / "bad.box"
    bad.write_text("shape 2,2/2,2\ntable\n1/1 0/1 0/1 0/1\n"
                   "1/1 0/1 0/1 0/1\n0/1 1/1 0/1 0/1\n1/1 0/1 0/1 0/1\n")
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    assert out.startswith("INVALID\n")
    assert len(out.splitlines()) > 1

    broken = tmp_path / "broken.box"
    broken.write_text("not a box\n")
    code, _, err = run(capsys, "validate", str(broken))
    assert code == 2
    assert err.startswith("error:")


def test_make_errors(tmp_path, capsys):
    out_path = str(tmp_path / "x.box")
    code, _, err = run(capsys, "make", "nosuch", "-o", out_path)
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "make", "pr", "9", "9", "9", "9", "-o", out_path)
    assert code == 2
    assert "cannot build family" in err


def test_malformed_input_is_a_one_line_usage_error(tmp_path, capsys):
    wiring = tmp_path / "p5.json"
    run(capsys, "preset", "P5", "-o", str(wiring))
    good = json.loads(wiring.read_text())

    def edited(change):
        doc = json.loads(json.dumps(good))
        change(doc)
        return doc
    docs = [
        edited(lambda d: d["components"][0]["box"]["inline"].update(
            table=[0.5, 0, 0, 0.5] * 4)),
        edited(lambda d: d["programs"][0]["steps"][0].pop("component")),
        edited(lambda d: d["programs"][0]["steps"][0].update(component="x")),
        edited(lambda d: d["programs"][0]["steps"][0].update(side=[0])),
        edited(lambda d: d["programs"][0]["steps"][0].update(
            side=float("inf"))),
        edited(lambda d: d["programs"][0]["outputs"].update(
            {"0 0": float("-inf")})),
        edited(lambda d: d["programs"][0]["steps"].__setitem__(0, 3)),
        edited(lambda d: d["programs"][0].update(steps=7)),
        edited(lambda d: d["programs"].__setitem__(0, "p")),
        edited(lambda d: d["components"][0].update(parties=["a", 1])),
        edited(lambda d: d["components"][0].update(parties=2)),
        edited(lambda d: d["components"].__setitem__(0, 0)),
        edited(lambda d: d.update(components={})),
        edited(lambda d: d.update(shape=4)),
        edited(lambda d: d["programs"][0]["outputs"].update({"0 0": None})),
        edited(lambda d: d["components"][0]["box"]["inline"].update(table=3)),
        edited(lambda d: d["components"][0].update(box={"file": 1})),
        edited(lambda d: d["programs"][0]["steps"][0].update(side=0.9)),
        edited(lambda d: d["programs"][0]["outputs"].update({"0 0": True})),
        [good],
        17,
    ]
    binary = tmp_path / "binary.box"
    binary.write_bytes(bytes(range(256)))
    # a directory where vertices writes its class list
    (tmp_path / "blocked" / "classes.txt").mkdir(parents=True)
    pr_box = tmp_path / "pr.box"
    run(capsys, "make", "pr", "-o", str(pr_box))
    argvs = [["make", "dbox", "x", "-o", str(tmp_path / "x.box")],
             ["make", "dbox", "2.9", "-o", str(tmp_path / "x.box")],
             ["make", "xyz", "3.0", "-o", str(tmp_path / "x.box")],
             ["make", "dbox", "4000", "-o", str(tmp_path / "x.box")],
             ["make", "dbox", "+-3", "-o", str(tmp_path / "x.box")],
             ["make", "dbox", "²", "-o", str(tmp_path / "x.box")],
             # not a directory; a file name longer than any file system takes
             ["validate", str(pr_box / "y")], ["validate", str(tmp_path / ("x" * 300))],
             ["validate", str(tmp_path)], ["wire", str(tmp_path)],
             ["validate", str(binary)], ["wire", str(binary)],
             ["protocol3-error", "2", "3", "20"],
             ["bell", str(pr_box), "--chsh", "-1", "0", "0"],
             ["bell", str(pr_box), "--chsh", "0", "0", "5"],
             ["protocol3-error", "2", "2", str(2 ** 64)],
             ["make", "uniform", "3", "-o", str(tmp_path / "x.box")],
             ["make", "xyz", str(10 ** 30), "-o", str(tmp_path / "x.box")],
             ["extend", str(pr_box), "--env-inputs", str(10 ** 30),
              "--env-outputs", "1"],
             ["wire", str(wiring), "-o", str(tmp_path)],
             ["make", "pr", "-o", str(tmp_path / "missing" / "x.box")],
             ["vertices", "2,2/2,2", "-o", str(binary)],
             ["vertices", "2,2/2,2", "-o", str(tmp_path / ("v" * 300))],
             ["vertices", "2,2/2,2", "-o", str(tmp_path / "blocked")],
             # usage errors, which argparse alone reports on several lines
             ["dim", "2,2/2,2", "--bogus"],
             ["extend", str(pr_box), "--env-outputs", "2"],
             ["mincomm", str(tmp_path / "x.box"), "--max-bits", "x"],
             ["extend", str(pr_box), "--env-inputs", "1", "--env-outputs", "2",
              "--max-rays", "5"]]
    # shapes within the table cap whose dense H-representation is not
    big_box = tmp_path / "big.box"
    big_box.write_text("shape 65536:2/2\ntable\n" + "1/4 1/4 1/4 1/4\n" * 65536)
    argvs += [["vertices", "65536:2/2", "-o", str(tmp_path / "big")],
              ["local", str(big_box)]]
    for i, doc in enumerate(docs):
        bad = tmp_path / f"bad{i}.json"
        bad.write_text(json.dumps(doc))
        argvs.append(["wire", str(bad)])
    for argv in argvs:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:") and len(err.splitlines()) == 1, (argv, err)
    # --help still prints the usage and exits 0
    with pytest.raises(SystemExit) as exc:
        main(["dim", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: nsbox dim")


def test_the_cached_parser_keeps_no_state_between_calls(tmp_path, capsys, monkeypatch):
    """One parser serves every call of ``main`` in a process, and each call
    answers as a freshly built parser does, whatever ran before it."""
    assert _build_parser() is _build_parser()
    pr_box, tripartite = tmp_path / "pr.box", tmp_path / "svetlichny.box"
    save_box(pr(), pr_box)
    save_box(svetlichny_box(), tripartite)
    argvs = [["bell", str(pr_box), "--chsh", "0", "1", "1"],
             ["bell", str(pr_box), "--chsh", "0", "1"],
             ["bell", str(tripartite), "--svetlichny"],
             ["--help"],
             ["dim", "2,2/2,2/3"],
             ["local", str(pr_box)]]

    def answers():
        out = []
        for argv in argvs:
            try:
                code = main(argv)
            except SystemExit as exc:   # --help
                code = exc.code
            out.append((code, *capsys.readouterr()))
        return out
    cached = answers()
    assert [code for code, _, _ in cached] == [0, 2, 0, 0, 0, 0]
    monkeypatch.setattr(cli, "_build_parser", _build_parser.__wrapped__)
    assert answers() == cached


def _subcommands():
    """Each subcommand's argparse actions (help aside) and required
    mutually exclusive groups, read from the parser."""
    parser = _build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    return {name: ([a for a in p._actions if a.dest != "help"],
                   [g._group_actions for g in p._mutually_exclusive_groups
                    if g.required])
            for name, p in sub.choices.items()}


SUBCOMMANDS = _subcommands()
# small and huge integers, small or malformed shapes, family and preset
# names, and files made fresh for each argv; the integers stay small
# enough that no argv enumerates for long
INTEGERS = ["-1", "0", "1", "2", "3", str(2 ** 64), str(10 ** 30)]
VALUES = INTEGERS + ["2,2/2,2", "1/1", "2/3", "65536:2/2", "x", "0/0",
                     "pr", "dbox", "xyz", "uniform", "svetlichny", "P1", "P3",
                     "P5", "{out}", "{box}", "{dir}", "{binary}", "{wiring}"]
FLAGS = sorted({a for actions, _ in SUBCOMMANDS.values() for a in actions
                if a.option_strings}, key=lambda a: a.option_strings)


@st.composite
def argvs(draw):
    """A subcommand, then values for its positionals and for its required
    options and groups, each with even odds, and up to two more of its
    flags.  A well-formed argv has as many values as each action takes,
    integers where it wants them; otherwise counts may be one off, values
    come from the whole alphabet and flags from every subcommand."""
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    actions, groups = SUBCOMMANDS[command]
    well_formed = draw(st.booleans())

    def values(action):
        if action.nargs is None:
            least = most = 1
        elif action.nargs == "*":
            least, most = 0, 3
        else:
            least = most = action.nargs
        pool = VALUES
        if well_formed and action.type is int:
            pool = INTEGERS
        elif not well_formed:
            least, most = max(0, least - 1), most + 1
        return draw(st.lists(st.sampled_from(pool), min_size=least,
                             max_size=most))

    argv = [command]
    for a in actions:
        if not a.option_strings:
            argv += values(a)
    options = [a for a in actions if a.option_strings]
    flags = st.sampled_from(options if well_formed else FLAGS)
    chosen = [a for a in options if a.required and draw(st.booleans())]
    chosen += [draw(st.sampled_from(g)) for g in groups if draw(st.booleans())]
    if options or not well_formed:
        chosen += draw(st.lists(flags, max_size=2))
    for a in chosen:
        argv += [draw(st.sampled_from(a.option_strings))] + values(a)
    return argv


@settings(max_examples=200, deadline=None)
@given(argv=argvs())
def test_any_argv_exits_0_1_or_2(tmp_path_factory, argv):
    work = tmp_path_factory.mktemp("argv")
    files = {"out": work / "out", "box": work / "boxes" / "pr.box",
             "dir": work / "boxes", "binary": work / "binary.box",
             "wiring": work / "p5.json"}
    files["dir"].mkdir()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["make", "pr", "-o", str(files["box"])]) == 0
        assert main(["preset", "P5", "-o", str(files["wiring"])]) == 0
    files["binary"].write_bytes(bytes(range(256)))
    argv = [t.format(**files) for t in argv]
    # plain values such as "0/0" or "x" can be output paths; they resolve
    # inside the scratch directory, not in the directory pytest runs from
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2), argv


def test_vertices_and_classify(tmp_path, capsys):
    outdir = tmp_path / "verts"
    code, out, _ = run(capsys, "vertices", "2,2/2,2", "-o", str(outdir))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "vertices 24"
    assert lines[1] == "classes 2"
    assert lines[2] == "0 vertex_0000.box 16"
    assert lines[3] == "1 vertex_0008.box 8"
    assert len(list(outdir.glob("vertex_*.box"))) == 24
    assert (outdir / "classes.txt").read_text() == (
        "0 vertex_0000.box 16\n1 vertex_0008.box 8\n")

    code, out, _ = run(capsys, "classify", str(outdir))
    assert code == 0
    assert out.splitlines() == ["0 vertex_0000.box 16",
                                "1 vertex_0008.box 8"]


def test_vertices_refuses_a_file_output_before_enumerating(tmp_path, capsys,
                                                          monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("enumerated before checking the output path")

    monkeypatch.setattr(cli, "enumerate_vertices", unreachable)
    taken = tmp_path / "taken"
    taken.write_text("keep me\n")
    code, out, err = run(capsys, "vertices", "3,4/3,4", "-o", str(taken))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert taken.read_text() == "keep me\n"


def test_classify_needs_boxes(tmp_path, capsys):
    code, _, err = run(capsys, "classify", str(tmp_path))
    assert code == 2
    assert "no .box files" in err


def test_classify_refuses_mixed_shapes_and_an_open_orbit(tmp_path, capsys):
    save_box(pr(), tmp_path / "a.box")
    save_box(uniform(BoxShape.from_string("2,2/2,3")), tmp_path / "b.box")
    code, out, err = run(capsys, "classify", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == "error: the boxes do not share one shape\n"
    # one product box whose orbit has 294912 members: refused within one step
    def p(k, x, a):
        return Fraction(x + 1 + 5 * k, 13) if a == 0 else Fraction(12 - x - 5 * k, 13)
    one = tmp_path / "one"
    one.mkdir()
    save_box(Box.from_function(BoxShape.from_string("4:2/4:2"), lambda outs, ins:
                               p(0, ins[0], outs[0]) * p(1, ins[1], outs[1])), one / "a.box")
    code, out, err = run(capsys, "classify", str(one))
    assert (code, out) == (2, "")
    assert err.startswith("error: orbit leaves the vertex list") and len(err.splitlines()) == 1


def test_vertices_under_a_file_is_a_usage_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("keep me\n")
    code, out, err = run(capsys, "vertices", "2,2/2,2", "-o", str(taken / "sub"))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot make directory {taken / 'sub'}")
    assert len(err.splitlines()) == 1 and taken.read_text() == "keep me\n"


def test_bell_svetlichny_and_functional(tmp_path, capsys):
    tri = tmp_path / "svet.box"
    save_box(svetlichny_box(), tri)
    code, out, _ = run(capsys, "bell", str(tri), "--svetlichny")
    assert code == 0
    assert out == "8/1\n"

    f = tmp_path / "chsh.bell"
    f.write_text(dumps_functional(chsh_functional()))
    pr_path = tmp_path / "pr.box"
    run(capsys, "make", "pr", "-o", str(pr_path))
    code, out, _ = run(capsys, "bell", str(pr_path), "--functional", str(f))
    assert code == 0
    assert out == "4/1\n"


def test_local_verdicts(tmp_path, capsys):
    pr_path = tmp_path / "pr.box"
    run(capsys, "make", "pr", "-o", str(pr_path))
    code, out, _ = run(capsys, "local", str(pr_path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "NONLOCAL"
    assert lines[1] == "value 4/1"
    assert lines[2] == "threshold 2/1"
    assert lines[3] == "coefficients"
    assert len(lines) == 8

    code, _, _ = run(capsys, "local", str(pr_path), "--assert-local")
    assert code == 1

    det = tmp_path / "det.box"
    run(capsys, "make", "localdet", "1", "0", "0", "1", "-o", str(det))
    code, out, _ = run(capsys, "local", str(det))
    assert code == 0
    # the weight, then the joint output at each joint input
    assert out == "LOCAL\n1/1 0,1 0,1 1,1 1,1\n"


def test_local2_verdict(tmp_path, capsys):
    tw = tmp_path / "tw.box"
    save_box(two_way_vertex(), tw)
    code, out, _ = run(capsys, "local2", str(tw))
    assert code == 0
    assert out == ("LOCAL\n"
                   "1/6 0,0,0 0,0,0 0,0,0 0,0,0 0,0,0 0,0,0 1,0,0 1,0,0\n"
                   "1/6 0,0,0 0,0,0 0,0,0 0,0,0 1,1,0 1,1,0 0,1,0 0,1,0\n"
                   "1/6 0,0,0 0,0,0 1,1,0 1,1,0 0,0,0 0,0,0 0,1,0 0,1,0\n"
                   "1/6 1,1,0 1,1,0 0,0,0 0,0,0 0,0,0 0,0,0 0,1,0 0,1,0\n"
                   "1/3 1,1,0 1,1,0 1,1,0 1,1,0 1,1,0 1,1,0 1,0,0 1,0,0\n")


def test_protocol3_error(capsys):
    code, out, _ = run(capsys, "protocol3-error", "2", "3", "2")
    assert code == 0
    assert out == "1/4\n"


def test_mincomm(tmp_path, capsys):
    pr_path = tmp_path / "pr.box"
    run(capsys, "make", "pr", "-o", str(pr_path))
    code, out, _ = run(capsys, "mincomm", str(pr_path), "--max-bits", "2")
    assert code == 0
    assert out == "1\n"
    code, out, _ = run(capsys, "mincomm", str(pr_path), "--max-bits", "0")
    assert code == 1
    assert out == "NONE\n"


def test_mincomm_refuses_a_negative_budget(tmp_path, capsys):
    pr_path = tmp_path / "pr.box"
    run(capsys, "make", "pr", "-o", str(pr_path))
    code, out, err = run(capsys, "mincomm", str(pr_path), "--max-bits", "-1")
    assert (code, out) == (2, "")
    assert err.startswith("error: max_bits") and len(err.splitlines()) == 1


def test_extend(tmp_path, capsys):
    pr_path = tmp_path / "pr.box"
    run(capsys, "make", "pr", "-o", str(pr_path))
    code, out, _ = run(capsys, "extend", str(pr_path),
                       "--env-inputs", "1", "--env-outputs", "2")
    assert code == 0
    assert out == "FACTORIZES\n"

    u_path = tmp_path / "uniform.box"
    save_box(uniform(BoxShape.homogeneous(2, 2, 2)), u_path)
    witness = tmp_path / "w.box"
    code, out, _ = run(capsys, "extend", str(u_path), "--env-inputs", "1",
                       "--env-outputs", "2", "-o", str(witness))
    assert code == 1
    assert out == f"{witness}\n"
    load_box(witness).require_valid()


def test_missing_file_is_a_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "validate", str(tmp_path / "absent.box"))
    assert code == 2
    assert err.startswith("error:")


def test_unknown_preset(tmp_path, capsys):
    code, _, err = run(capsys, "preset", "P9", "-o", str(tmp_path / "x.json"))
    assert code == 2
    assert "unknown preset" in err

