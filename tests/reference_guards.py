"""Per-state references for the march guards: a guard judged one state at a
time, as the guards stood before each judged a whole stack in one test.
The tests compare the library guards against these, row by row."""

import numpy as np


def field_at(layout, i):
    """(field, index within the field) of flat index i of a layout."""
    for name, length in layout:
        if i < length:
            return name, i
        i -= length


def locate(layout, y, limit=np.inf, above="above the limit"):
    """(reason, field, index) of the first non-finite entry of the flat state y,
    else of its first entry of largest modulus if above ``limit``, else None.
    ``layout`` is ((name, length), ...) in the order of y."""
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        return ("non-finite", *field_at(layout, int(bad[0])))
    mag = np.abs(y)
    worst = int(np.argmax(mag))
    return (above, *field_at(layout, worst)) if mag[worst] > limit else None


def rowwise(check):
    """The guard ``guard(ts, ys)`` of a per-state ``check(t, y)``: the (row,
    verdict) of the first row of the stack ys, at its time in ts, for which
    the check returns a verdict, else None."""

    def guard(ts, ys):
        for row, (t, y) in enumerate(zip(ts, ys)):
            if (verdict := check(t, y)) is not None:
                return row, verdict
        return None

    return guard
