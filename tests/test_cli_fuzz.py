"""The CLI's exit contract, driven by argv drawn from the parser's own actions.

Every command line ends in exit 0, in exit 1 with an error message, or in
exit 2 naming an internal invariant: never a traceback, never a warning.
Values are drawn per action: its choices (and one it lacks), boundary,
non-finite, negative and non-integral numbers for its type, and for the
string flags the files of a small corpus, good and malformed.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import re
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from remote_div import cli
from remote_div.generators import make_uniform_cube
from remote_div.metric import dump_pointset

# Valid values, by flag, then by type; boundary and hostile values by type,
# except that flags which size the work itself stay small.
_GOOD = {
    "k": ["2", "4"], "n": ["6", "7"], "dim": ["1", "2", "3"], "seed": ["0", "1"], "parts": ["1", "2"],
    "net_root": ["0", "5"], "gmm_start": ["0", "5", "random"],
    "params": ["", "c=3", "sep=10,width=2", "spacing=0.5", "0,1,5"],
    int: ["0", "1", "2"], float: ["0.5", "1"],
}
_HOSTILE = {
    "n": ["-1", "0", "1", "2", "1.5", "nan"], "dim": ["-1", "0", "x"], "trials": ["-1", "0", "x"],
    "repeats": ["-1", "0", "1.5"], "gmm_start": ["6", "-1", "1.5", "x"],
    int: ["-1", "0", "1", "3", "6", "7", "21", str(2**63), str(2**64), "1.5", "nan", "inf", "x", ""],
    float: ["0", "1e-300", "1.5", "-1", "nan", "inf", "-inf", "x"],
}
_PARAM_ITEMS = ["c=2", "c=3", "c=2.5", "c=0", "c=-1", "c=nan", "c=inf", "c=1e300", "sep=nan", "sep=-5",
                "sep=inf", "width=0", "width=inf", "spacing=0", "spacing=-1", "spacing=nan", "spacing=1e-320",
                "foo=1", "values=1", "0", "5", "nan", "-inf", "1e308", "-1e308", "=", "x"]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    six = make_uniform_cube(6, 2, 1)
    files = {
        "six.json": dump_pointset(six, "json"),
        "coincident.json": '{"dim": 2, "points": [[0, 0], [0, 0], [1, 1], [1, 1], [0, 0], [2, 2]]}',
        "line.csv": "# dim=1\n0\n1\n5\n2\n9\n7\n",
        "dist.csv": dump_pointset(six, "matrix-csv"),
        "ragged.json": '{"dim": 2, "points": [[0, 0], [1]]}',
        "truncated.json": '{"dim": 2, "points": [[0,',
        "bad.csv": "0,1\n1,x\n",
        "parts.json": "[[0, 2, 4], [1, 3, 5]]",
        "overlap.json": "[[0, 1, 2], [2, 3, 4, 5]]",
        "fraction.json": "[[0.5, 1, 2], [3, 4, 5]]",
    }
    for name, text in files.items():
        (root / name).write_text(text)
    points = {"six.json": "json", "coincident.json": "json", "line.csv": "csv", "dist.csv": "matrix-csv"}
    bad = [str(root / name) for name in files if name not in points] + [str(root / "missing"), str(root)]
    # Per path flag: valid values, then hostile ones. No output path is a
    # corpus file.
    return {
        "input": ([(str(root / name), fmt) for name, fmt in points.items()], [(path, "bogus") for path in bad]),
        "parts_file": ([str(root / "parts.json")], bad),
        "output": ([str(root / "out.json")], [str(root / "nodir" / "out.json")]),
        "dump_net_tree": ([str(root / "tree.json")], [str(root / "nodir" / "tree.json")]),
    }


def _values(action: argparse.Action, corpus, good: bool) -> st.SearchStrategy:
    if action.choices is not None:
        return st.sampled_from(list(action.choices) if good else ["bogus"])
    if action.dest == "params" and not good:
        return st.lists(st.sampled_from(_PARAM_ITEMS), max_size=3).map(",".join)
    table = _GOOD if good else _HOSTILE
    values = table.get(action.dest, table.get(action.type))
    if values is None:  # a path, or a string flag no table knows yet
        values = corpus.get(action.dest, (["x"], [""]))[0 if good else 1]
    return st.sampled_from(values)


@st.composite
def _argv(draw, corpus) -> list[str]:
    parser = cli._build_parser()
    top = [a for a in parser._actions if a.option_strings and not isinstance(a, argparse._HelpAction)]
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    argv = [a.option_strings[0] for a in top if draw(st.integers(0, 49)) == 0]
    name = draw(st.sampled_from(sorted(subparsers.choices)))
    argv.append(name)
    actions = {a.dest: a for a in subparsers.choices[name]._actions if not isinstance(a, argparse._HelpAction)}
    for action in actions.values():
        if action.dest == "input_format":
            continue  # drawn with --input, to match its file when valid
        # Required flags are mostly given, others half the time, some twice;
        # seven values in eight are valid.
        for _ in range(draw(st.sampled_from([1] * 18 + [0, 2] if action.required else [0, 1, 1, 2]))):
            value = draw(_values(action, corpus, draw(st.integers(0, 7)) > 0))
            argv.append(action.option_strings[0])
            if action.dest == "input":
                path, fmt = value
                argv += [path, "--input-format", draw(st.sampled_from([fmt, *actions["input_format"].choices]))]
            elif action.nargs != 0:
                argv.append(value)
    if draw(st.integers(0, 19)) == 0:
        argv += ["--bogus", "1"]
    return argv


def _is_usage_error(err: str) -> bool:
    """argparse's own rejection: the usage, then `<prog>: error: ...`."""
    return err.startswith("usage: remote-div") and re.search(r"^remote-div( \w+)?: error: ", err, re.M) is not None


@settings(max_examples=250, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_drawn_command_line_keeps_the_exit_contract(corpus, data):
    argv = data.draw(_argv(corpus), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    err = err.getvalue()
    assert not caught, [str(w.message) for w in caught]
    assert code in (0, 1, 2), err
    if code == 1:
        assert err.startswith("remote-div: error:") or _is_usage_error(err), err
    if code == 2:
        assert "internal invariant" in err, err
