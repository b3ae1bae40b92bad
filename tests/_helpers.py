"""Helpers shared by the symbol tests: a Hypothesis strategy of small
rationals and the stored form of a symbol matrix, term order included."""

from fractions import Fraction

from hypothesis import strategies as st

rationals = st.builds(Fraction, st.integers(-40, 40), st.sampled_from([1, 2, 3, 7, 10]))


def stored(m) -> list:
    """Each entry's variables, numerator terms in storage order and
    denominator: equal only where the entries are stored alike."""
    return [[(p.vars, list(p._num.items()), p._den) for p in row] for row in m.body.entries]
