"""Constructors for the named box families."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .boxes import _MAX_TABLE_SIZE, Box, BoxShape, ShapeError, _as_int, _layout, tensor


def _check_bits(**kwargs):
    for name, v in kwargs.items():
        if _as_int(v, f"parameter {name}") not in (0, 1):
            raise ShapeError(f"parameter {name} must be 0 or 1, got {v!r}")


def local_deterministic(alpha=0, beta=0, gamma=0, delta=0):
    """Bipartite deterministic box a = alpha*X + beta, b = gamma*Y + delta (mod 2)."""
    _check_bits(alpha=alpha, beta=beta, gamma=gamma, delta=delta)
    shape = BoxShape.homogeneous(2, 2, 2)

    def fn(outs, ins):
        (a, b), (x, y) = outs, ins
        return Fraction(int(a == ((alpha * x) ^ beta) and b == ((gamma * y) ^ delta)))

    return Box.from_function(shape, fn)


def pr(alpha=0, beta=0, gamma=0):
    """PR family: 1/2 on a + b = X*Y + alpha*X + beta*Y + gamma (mod 2)."""
    _check_bits(alpha=alpha, beta=beta, gamma=gamma)
    shape = BoxShape.homogeneous(2, 2, 2)

    def fn(outs, ins):
        (a, b), (x, y) = outs, ins
        hit = (a ^ b) == ((x * y) ^ (alpha * x) ^ (beta * y) ^ gamma)
        return Fraction(1, 2) if hit else Fraction(0)

    return Box.from_function(shape, fn)


def dbox(k):
    """The d-box: 1/k on (b - a) mod k = X*Y."""
    k = _as_int(k, "dbox's k")
    if k < 2:
        raise ShapeError(f"dbox needs k >= 2, got {k}")
    shape = BoxShape.homogeneous(2, 2, k)

    def fn(outs, ins):
        (a, b), (x, y) = outs, ins
        return Fraction(1, k) if (b - a) % k == x * y else Fraction(0)

    return Box.from_function(shape, fn)


def _parity_box(n, predicate):
    """n parties, binary in/out, weight 2^(1-n) on outputs whose parity matches."""
    shape = BoxShape.homogeneous(n, 2, 2)
    w = Fraction(1, 2 ** (n - 1))

    def fn(outs, ins):
        par = 0
        for a in outs:
            par ^= a
        return w if par == predicate(ins) else Fraction(0)

    return Box.from_function(shape, fn)


def xyplusz():
    """Tripartite box with a + b + c = X*Y + X*Z (mod 2), uniform otherwise."""
    return _parity_box(3, lambda ins: (ins[0] * ins[1]) ^ (ins[0] * ins[2]))


def svetlichny_box():
    """Tripartite box with a + b + c = X*Y + Y*Z + X*Z (mod 2)."""
    return _parity_box(3, lambda ins: (ins[0] * ins[1]) ^ (ins[1] * ins[2]) ^ (ins[0] * ins[2]))


def xyz_box(n=3):
    """n-party box with a1 + ... + an = X1*X2*...*Xn (mod 2)."""
    n = _as_int(n, "the xyz box's party count")
    if n < 2:
        raise ShapeError(f"xyz box needs n >= 2 parties, got {n}")
    # the table has 4**n entries; refused before any tuple is built
    if n > _MAX_TABLE_SIZE.bit_length() or 4 ** n > _MAX_TABLE_SIZE:
        raise ShapeError(f"an xyz box of {n} parties exceeds the cap of "
                         f"{_MAX_TABLE_SIZE} table entries")
    return _parity_box(n, lambda ins: int(all(ins)))


def two_way_vertex():
    """The canonical two-way-local tripartite vertex: PR between the first two
    parties, the third party's output pinned to 0."""
    pinned = Box(BoxShape(((2, 2),)), (Fraction(1), Fraction(0), Fraction(1), Fraction(0)))
    return tensor(pr(), pinned)


def uniform(shape):
    """The maximally mixed box of a shape (a BoxShape or its string)."""
    if isinstance(shape, str):
        shape = BoxShape.from_string(shape)
    if not isinstance(shape, BoxShape):
        raise ShapeError(f"uniform needs a shape, got {shape!r}")

    sizes = np.diff(_layout(shape).offsets, append=shape.table_size).tolist()
    return Box(shape, tuple(Fraction(1, size) for size in sizes for _ in range(size)))


_FAMILIES = {
    "pr": pr,
    "localdet": local_deterministic,
    "dbox": dbox,
    "twoway": two_way_vertex,
    "xyplusz": xyplusz,
    "svetlichny": svetlichny_box,
    "xyz": xyz_box,
    "uniform": uniform,
}


def make_named_box(family, *params):
    """Dispatch on a family name; see _FAMILIES for the accepted names."""
    key = str(family).lower().replace("-", "").replace("_", "")
    try:
        ctor = _FAMILIES[key]
    except KeyError:
        known = ", ".join(sorted(_FAMILIES))
        raise ShapeError(f"unknown box family {family!r} (known: {known})") from None
    return ctor(*params)
