"""Seeded random box shapes and tables for the differential tests of the
table layout and the gathers built on it."""

from fractions import Fraction

from nsbox.boxes import Box, BoxShape


def random_shape(rng, parties=None, max_size=200):
    """A shape of 1-3 parties (or ``parties``) with 1-3 inputs each and 1-3
    outputs per input, so single-input parties, one-output inputs and
    uneven output counts all occur; redrawn until the table has at most
    max_size entries."""
    while True:
        shape = BoxShape(tuple(
            tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
            for _ in range(parties or rng.randint(1, 3))))
        if shape.table_size <= max_size:
            return shape


def distinct_box(shape, rng):
    """A table of distinct entries in random order, so a misplaced entry
    always shows; not a valid box, which gathers do not need."""
    values = [Fraction(i + 1, 97) for i in range(shape.table_size)]
    rng.shuffle(values)
    return Box(shape, tuple(values))
