"""Float text: the one definition of how a float is written out.

Every float cell of every CSV, and every float a config echo prints, is
fmt(value).  rowtext.csv_rows makes the same text in numpy for whole
blocks of trajectory rows, and falls back on fmt.  Every run imports this
module, so it stays this small: the numpy writer is compiled only when a
trajectory is written.
"""


def fmt(value) -> str:
    """repr(float(value)): the shortest digits that read back as the same
    double, positional for 1e-4 <= |value| < 1e16, with an exponent
    otherwise."""
    return repr(float(value))
