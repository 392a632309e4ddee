import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nsbox.boxes import BoxShape, ShapeError
from nsbox.families import dbox, make_named_box, pr, uniform
from nsbox.fileio import (ParseError, dumps_box, dumps_functional,
                          dumps_wiring, format_fraction, format_shape,
                          load_box, load_functional, load_wiring, loads_box,
                          loads_functional, loads_wiring, parse_fraction,
                          parse_shape, save_box, save_functional, save_wiring)
from nsbox.locality import BellFunctional, chsh_functional, is_local
from nsbox.wiring import evaluate_wiring, preset


def test_fractions_always_carry_a_denominator():
    assert format_fraction(Fraction(4)) == "4/1"
    assert format_fraction(Fraction(-1, 2)) == "-1/2"
    assert format_fraction(0) == "0/1"


@given(st.integers(-10**9, 10**9), st.integers(1, 10**9))
def test_fraction_round_trip(num, den):
    q = Fraction(num, den)
    assert parse_fraction(format_fraction(q)) == q


@pytest.mark.parametrize("bad", ["0.5", "1e3", "", "a/b", "1/0", "1/-2",
                                 "1 / 2", "--1", "nan"])
def test_rejected_fraction_spellings(bad):
    with pytest.raises(ParseError):
        parse_fraction(bad)


def test_shape_strings():
    assert format_shape(pr().shape) == "2,2/2,2"
    assert parse_shape("2,2/2,2") == pr().shape
    assert parse_shape("2:3") == BoxShape.homogeneous(1, 2, 3)
    assert parse_shape("2:3,3/2:2") == BoxShape(((3, 3), (2, 2)))
    for bad in ("", "2,/2", "0,2/2,2", "2:3,3,3", "x"):
        with pytest.raises(ParseError):
            parse_shape(bad)


@pytest.mark.parametrize("box", [pr(), dbox(3),
                                 uniform(BoxShape(((2, 3), (2, 2))))])
def test_box_round_trip(box):
    text = dumps_box(box)
    assert text == dumps_box(box)  # byte-stable
    again = loads_box(text)
    assert again.shape == box.shape
    assert again.table == box.table


def test_box_documents_tolerate_comments_and_blanks():
    text = dumps_box(pr())
    noisy = "# a header comment\n\n" + text.replace(
        "table", "table\n# entries follow")
    assert loads_box(noisy).table == pr().table


def test_box_document_errors():
    with pytest.raises(ParseError, match="start with a shape"):
        loads_box("table\n1/1\n")
    with pytest.raises(ParseError, match="table field"):
        loads_box("shape 2,2/2,2\n1/2 1/2\n")
    with pytest.raises(ParseError, match="entries"):
        loads_box("shape 2,2/2,2\ntable\n1/2 1/2\n")
    with pytest.raises(ParseError, match="rational"):
        loads_box("shape 2:2\ntable\n0.5 0.5 0.25 0.25\n")


def test_save_and_load_box(tmp_path):
    path = tmp_path / "pr.box"
    save_box(pr(), path)
    assert load_box(path).table == pr().table


def test_functional_round_trip():
    f = chsh_functional(1, 1, 0)
    again = loads_functional(dumps_functional(f))
    assert again == f


def test_functional_round_trip_without_bounds(tmp_path):
    """A bound line is written only when the bound is set: a certificate's
    functional has a local bound alone, a bare functional neither."""
    path = tmp_path / "f.functional"
    certificate = is_local(pr()).functional()
    bare = BellFunctional(pr().shape, chsh_functional().coefficients)
    for f in (certificate, bare):
        save_functional(f, path)
        assert load_functional(path) == f
    assert "algebraic_max" not in dumps_functional(certificate)
    assert "bound" not in dumps_functional(bare)


def test_functional_document_errors():
    good = dumps_functional(chsh_functional())
    # both bounds are optional, so an unknown line stands where the
    # coefficients should
    with pytest.raises(ParseError, match="coefficients field"):
        loads_functional(good.replace("local_bound", "bound"))
    with pytest.raises(ParseError, match="coefficients field"):
        loads_functional("\n".join(good.splitlines()[:3]) + "\n")


def test_wiring_round_trip():
    w = preset("P5")
    text = dumps_wiring(w)
    assert text == dumps_wiring(w)
    again = loads_wiring(text)
    assert evaluate_wiring(again).table == evaluate_wiring(w).table
    assert again.shape == w.shape
    assert all(a.parties == b.parties
               for a, b in zip(again.components, w.components))


def test_wiring_with_file_components(tmp_path):
    w = preset("P2", 2, 2)
    doc = dumps_wiring(w)
    # swap the inline component for a file reference
    obj = json.loads(doc)
    save_box(dbox(4), tmp_path / "component.box")
    obj["components"][0]["box"] = {"file": "component.box"}
    (tmp_path / "wiring.json").write_text(json.dumps(obj))
    again = load_wiring(tmp_path / "wiring.json")
    assert again.components[0].box.table == dbox(4).table
    assert evaluate_wiring(again).table == evaluate_wiring(w).table


def test_wiring_document_errors():
    with pytest.raises(ParseError, match="not valid JSON"):
        loads_wiring("{")
    with pytest.raises(ParseError, match="missing shape"):
        loads_wiring("{}")
    with pytest.raises(ParseError, match="parties and box"):
        loads_wiring('{"shape": "2,2/2,2", "components": [{}], '
                     '"programs": []}')
    with pytest.raises(ParseError, match="inline box needs exactly"):
        loads_wiring('{"shape": "2,2/2,2", "components": '
                     '[{"parties": [0, 1], "box": {"inline": {}}}], '
                     '"programs": []}')
    with pytest.raises(ParseError, match="non-integer entry"):
        loads_wiring('{"shape": "2,2/2,2", "components": [], "programs": '
                     '[{"steps": [], "outputs": {"x": 0}}]}')


def test_named_boxes_survive_the_text_format():
    for name, params in (("pr", (1, 0, 1)), ("dbox", (4,)),
                         ("xyplusz", ()), ("uniform", ("2,2/3,3",))):
        box = make_named_box(name, *params)
        assert loads_box(dumps_box(box)).table == box.table



_FUZZ_TOKENS = ["", " ", "\n", "#", "-", "/", "0", "1", "9" * 25, "1/0", "-1/2",
                "2:3", "/2", ",", "shape ", "table", "coefficients", "{", "}",
                "[", "]", ":", '"', "null", "true", "[]", "{}", "1.5", "1e999",
                "-Infinity", "NaN"]

_JSON_SCALARS = (st.sampled_from([None, True, -1, 0.5, 2 ** 70, float("inf"),
                                   float("-inf"), float("nan")])
                 | st.sampled_from(_FUZZ_TOKENS))
_JSON_VALUES = (_JSON_SCALARS | st.lists(_JSON_SCALARS, max_size=3)
                | st.dictionaries(st.text(max_size=3), _JSON_SCALARS,
                                  max_size=2))


@st.composite
def _mutated_text(draw, text):
    """text with one to four slices replaced by a token, a short random
    string or the slice itself doubled."""
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 12)))
        piece = draw(st.sampled_from(_FUZZ_TOKENS) | st.text(max_size=3)
                     | st.just(text[i:j] * 2))
        text = text[:i] + piece + text[j:]
    return text


def _slots(node):
    """(container, key) for every value nested in a JSON document."""
    keys = node if isinstance(node, dict) else range(len(node))
    for key in keys:
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from _slots(node[key])


@st.composite
def _mutated_json(draw, text):
    """A JSON document with one nested value, chosen uniformly, replaced by
    a random JSON value (infinite and NaN floats included)."""
    doc = json.loads(text)
    parent, key = draw(st.randoms(use_true_random=False)).choice(list(_slots(doc)))
    parent[key] = draw(_JSON_VALUES)
    return json.dumps(doc)


_WIRING_TEXT = dumps_wiring(preset("P2", 2, 2))


@pytest.mark.parametrize("loads, text, mutate", [
    (loads_box, dumps_box(dbox(3)), _mutated_text),
    (loads_functional, dumps_functional(chsh_functional()), _mutated_text),
    (loads_wiring, _WIRING_TEXT, _mutated_text),
    (loads_wiring, _WIRING_TEXT, _mutated_json)],
    ids=["box", "functional", "wiring-text", "wiring-json"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_loaders_reject_mutated_documents_with_typed_errors(loads, text,
                                                            mutate, data):
    """A mutated document loads or raises ParseError/ShapeError; nothing
    else escapes."""
    try:
        loads(data.draw(mutate(text)))
    except (ParseError, ShapeError):
        pass


def test_component_references_are_checked():
    doc = json.loads(dumps_wiring(preset("P5")))
    inline = doc["components"][0]["box"]["inline"]
    short = dict(inline, table=inline["table"][:-1])
    for box, message in (({"inline": short}, "inline box table has the wrong length"),
                         ({"url": "x.box"}, "must be inline or a file reference")):
        bad = json.loads(json.dumps(doc))
        bad["components"][0]["box"] = box
        with pytest.raises(ParseError, match=message):
            loads_wiring(json.dumps(bad))


def test_integral_json_floats_read_as_integers():
    w = preset("P5")
    doc = json.loads(dumps_wiring(w))
    doc["components"][0]["parties"] = [float(p) for p in doc["components"][0]["parties"]]
    again = loads_wiring(json.dumps(doc))
    assert again.components[0].parties == w.components[0].parties
    assert all(type(p) is int for p in again.components[0].parties)
    doc["components"][0]["parties"][0] = 0.5
    with pytest.raises(ParseError, match="must be an integer"):
        loads_wiring(json.dumps(doc))
