"""Dense exponent tuples for the test oracles.

A ``MultiPoly`` keys each term by its monomial: the (variable index,
positive exponent) pairs, indices increasing.  The oracles of the suite
compute on dense exponent tuples, one int per declared variable, as sympy
does; these two maps move term dicts between the formats.
"""


def to_dense(terms, width):
    """``terms`` keyed by dense exponent tuples of length ``width``."""
    out = {}
    for mono, c in terms.items():
        exps = [0] * width
        for k, e in mono:
            exps[k] = e
        out[tuple(exps)] = c
    return out


def to_sparse(terms):
    """``terms`` (keyed by dense exponent tuples) keyed by monomials."""
    return {tuple((k, e) for k, e in enumerate(exps) if e): c for exps, c in terms.items()}
