"""Text formats: boxes and functionals as line-based documents, wirings as
JSON.  Everything numeric is written "num/den" so files are exact and
byte-stable."""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

from .boxes import Box, BoxShape, ShapeError, _layout
from .locality import BellFunctional
from .wiring import Component, PartyProgram, Step, Wiring


class ParseError(ValueError):
    """A document does not follow the format; the message names the
    offending field."""


_FRACTION = re.compile(r"^[+-]?\d+(/\d+)?$")


def format_fraction(q):
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def parse_fraction(text):
    if not isinstance(text, str) or not _FRACTION.match(text):
        raise ParseError(f"not an exact rational: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator: {text!r}") from None


def format_shape(shape):
    return str(shape)


def parse_shape(text):
    if not isinstance(text, str):
        raise ParseError(f"a shape must be a string, got {text!r}")
    try:
        return BoxShape.from_string(text)
    except ShapeError as exc:
        raise ParseError(str(exc)) from None


def _document_lines(text):
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            yield line


def _block_lines(shape, values):
    """A flat table's values as text, one line per joint-input block."""
    bounds = [*_layout(shape).offsets.tolist(), shape.table_size]
    return [" ".join(map(format_fraction, values[a:b])) for a, b in zip(bounds, bounds[1:])]


def dumps_box(box):
    lines = [f"shape {format_shape(box.shape)}", "table", *_block_lines(box.shape, box.table)]
    return "\n".join(lines) + "\n"


def loads_box(text):
    lines = list(_document_lines(text))
    if not lines or not lines[0].startswith("shape "):
        raise ParseError("box document must start with a shape field")
    shape = parse_shape(lines[0][len("shape "):])
    if len(lines) < 2 or lines[1] != "table":
        raise ParseError("box document needs a table field after the shape")
    entries = [parse_fraction(tok)
               for line in lines[2:] for tok in line.split()]
    if len(entries) != shape.table_size:
        raise ParseError(f"table has {len(entries)} entries, shape "
                         f"{format_shape(shape)} needs {shape.table_size}")
    return Box(shape, tuple(entries))


def _read_text(path):
    """The UTF-8 text of a file; a path that cannot be read (a directory, a
    missing file, a name too long) or undecodable bytes are a ParseError
    naming the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except IsADirectoryError:
        raise ParseError(f"{path} is a directory, not a file") from None
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason} at byte "
                         f"{exc.start}") from None


def _write_text(path, text):
    """Write a file; a path that cannot be written (a directory, a missing
    parent) is a ParseError naming the path."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc.strerror}") from None


def save_box(box, path):
    _write_text(path, dumps_box(box))


def load_box(path):
    return loads_box(_read_text(path))


_BOUNDS = ("local_bound", "algebraic_max")


def dumps_functional(f):
    """The shape, a line for each bound that is set, and the coefficients."""
    bounds = [f"{name} {format_fraction(getattr(f, name))}"
              for name in _BOUNDS if getattr(f, name) is not None]
    lines = [f"shape {format_shape(f.shape)}", *bounds,
             "coefficients", *_block_lines(f.shape, f.coefficients)]
    return "\n".join(lines) + "\n"


def loads_functional(text):
    lines = list(_document_lines(text))
    if not lines or not lines[0].startswith("shape "):
        raise ParseError("functional document is missing shape")
    shape = parse_shape(lines.pop(0)[len("shape "):])
    # each bound line is optional; an absent one is None
    bounds = {}
    for name in _BOUNDS:
        if lines and lines[0].startswith(name + " "):
            bounds[name] = parse_fraction(lines.pop(0)[len(name) + 1:])
    if not lines or lines[0] != "coefficients":
        raise ParseError("functional document needs a coefficients field")
    entries = [parse_fraction(tok)
               for line in lines[1:] for tok in line.split()]
    if len(entries) != shape.table_size:
        raise ParseError(f"coefficients have {len(entries)} entries, shape "
                         f"{format_shape(shape)} needs {shape.table_size}")
    return BellFunctional(shape, tuple(entries), **bounds)


def save_functional(f, path):
    _write_text(path, dumps_functional(f))


def load_functional(path):
    return loads_functional(_read_text(path))


def _encode_key(key):
    return " ".join(str(v) for v in key)


def _decode_table(obj, where):
    if not isinstance(obj, dict):
        raise ParseError(f"{where} must be an object of scope -> value")
    table = {}
    for key, val in obj.items():
        try:
            scope = tuple(int(v) for v in key.split())
        except ValueError:
            raise ParseError(f"{where} has a non-integer entry at {key!r}") \
                from None
        table[scope] = _integer(val, f"{where} entry {key!r}")
    return table


def dumps_wiring(wiring):
    doc = {
        "shape": format_shape(wiring.shape),
        "components": [
            {"parties": list(c.parties),
             "box": {"inline": {"shape": format_shape(c.box.shape),
                                "table": [format_fraction(v)
                                          for v in c.box.table]}}}
            for c in wiring.components],
        "programs": [
            {"steps": [{"component": st.component, "side": st.side,
                        "inputs": {_encode_key(k): v
                                   for k, v in sorted(st.inputs.items())}}
                       for st in prog.steps],
             "outputs": {_encode_key(k): v
                         for k, v in sorted(prog.outputs.items())}}
            for prog in wiring.programs],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _component_box(ref, base_dir):
    if not isinstance(ref, dict) or len(ref) != 1:
        raise ParseError("component box must be an inline or file object")
    if "file" in ref:
        if not isinstance(ref["file"], str):
            raise ParseError("component box file must be a path string")
        return load_box(Path(base_dir) / ref["file"])
    if "inline" in ref:
        inner = ref["inline"]
        if not isinstance(inner, dict) or set(inner) != {"shape", "table"}:
            raise ParseError("inline box needs exactly shape and table")
        shape = parse_shape(inner["shape"])
        entries = tuple(parse_fraction(tok)
                        for tok in _typed(inner["table"], list,
                                          "inline box table"))
        if len(entries) != shape.table_size:
            raise ParseError("inline box table has the wrong length")
        return Box(shape, entries)
    raise ParseError("component box must be inline or a file reference")


def _typed(value, kind, where):
    """value, if it is a JSON object (kind dict) or array (kind list)."""
    if not isinstance(value, kind):
        name = "an object" if kind is dict else "an array"
        raise ParseError(f"{where} must be {name}")
    return value


def _integer(value, where):
    """A JSON integer; booleans and non-integral numbers are refused rather
    than truncated by ``int()``."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where} must be an integer, got {value!r}")
    return value


def loads_wiring(text, base_dir="."):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"wiring document is not valid JSON: {exc}") from None
    _typed(doc, dict, "wiring document")
    for field in ("shape", "components", "programs"):
        if field not in doc:
            raise ParseError(f"wiring document is missing {field}")
    shape = parse_shape(doc["shape"])
    components = []
    for i, c in enumerate(_typed(doc["components"], list, "components")):
        if not isinstance(c, dict) or not {"parties", "box"} <= set(c):
            raise ParseError(f"component {i} needs parties and box")
        parties = tuple(
            _integer(p, f"component {i} party")
            for p in _typed(c["parties"], list, f"component {i} parties"))
        components.append(Component(_component_box(c["box"], base_dir),
                                    parties))
    programs = []
    for k, prog in enumerate(_typed(doc["programs"], list, "programs")):
        _typed(prog, dict, f"program {k}")
        steps = []
        for j, st in enumerate(_typed(prog.get("steps", []), list,
                                      f"program {k} steps")):
            where = f"program {k} step {j}"
            if not isinstance(st, dict) or \
                    not {"component", "side", "inputs"} <= set(st):
                raise ParseError(f"{where} needs component, side and inputs")
            steps.append(Step(_integer(st["component"], f"{where} component"),
                              _integer(st["side"], f"{where} side"),
                              _decode_table(st["inputs"], f"{where} inputs")))
        outputs = _decode_table(prog.get("outputs", {}),
                                f"program {k} outputs")
        programs.append(PartyProgram(tuple(steps), outputs))
    return Wiring(shape, tuple(components), tuple(programs))


def save_wiring(wiring, path):
    _write_text(path, dumps_wiring(wiring))


def load_wiring(path):
    return loads_wiring(_read_text(path), base_dir=Path(path).parent)
