"""
The benchmark's own copy of published Alexander polynomials.

Knots: the one-variable polynomials of the Rolfsen table (as listed in
KnotInfo), written as coefficient lists from the constant term up.  They
are symmetric, so mirror images and reversed orientations share them.

Links: multivariable polynomials of the bundled 2-component links, as
{exponent vector: coefficient}.  Split links follow the program's
convention for them (the order of the torsion submodule, which is the
product of the pieces' polynomials in disjoint variables), so a split
union of two unknots gets 1 rather than the classical 0.

Nothing here is derived from ribboncheck's code or output.
"""

KNOTS = {
    "3_1": (1, -1, 1),
    "4_1": (1, -3, 1),
    "5_1": (1, -1, 1, -1, 1),
    "5_2": (2, -3, 2),
    "6_1": (2, -5, 2),
    "6_2": (1, -3, 3, -3, 1),
    "6_3": (1, -3, 5, -3, 1),
    "7_1": (1, -1, 1, -1, 1, -1, 1),
    "7_2": (3, -5, 3),
    "7_3": (2, -3, 3, -3, 2),
    "7_4": (4, -7, 4),
    "7_5": (2, -4, 5, -4, 2),
    "7_6": (1, -5, 7, -5, 1),
    "7_7": (1, -5, 9, -5, 1),
    "8_1": (3, -7, 3),
    "8_2": (1, -3, 3, -3, 3, -3, 1),
    "8_3": (4, -9, 4),
    "8_4": (2, -5, 5, -5, 2),
    "8_6": (2, -6, 7, -6, 2),
    "8_7": (1, -3, 5, -5, 5, -3, 1),
    "8_8": (2, -6, 9, -6, 2),
    "8_9": (1, -3, 5, -7, 5, -3, 1),
    "8_11": (2, -7, 9, -7, 2),
    "8_12": (1, -7, 13, -7, 1),
    "8_13": (2, -7, 11, -7, 2),
    "8_14": (2, -8, 11, -8, 2),
    "8_19": (1, -1, 0, 1, 0, -1, 1),
    "9_1": (1, -1, 1, -1, 1, -1, 1, -1, 1),
    "9_2": (4, -7, 4),
    "9_3": (2, -3, 3, -3, 3, -3, 2),
    "9_4": (3, -5, 5, -5, 3),
    "9_5": (6, -11, 6),
    "9_6": (2, -4, 5, -5, 5, -4, 2),
    "9_35": (7, -13, 7),
    "9_46": (2, -5, 2),
}

LINKS = {
    "hopf": {(0, 0): 1},
    "hopf_mirror": {(0, 0): 1},
    "torus_2_4": {(0, 0): 1, (1, 1): 1},
    "torus_2_6": {(0, 0): 1, (1, 1): 1, (2, 2): 1},
    "unlink_2": {(0, 0): 1},
    "split_pair": {(0, 0): 1},
}


def polynomial(name):
    """Published polynomial {exponent tuple: coefficient}, or None if unknown."""
    if name in KNOTS:
        return {(e,): c for e, c in enumerate(KNOTS[name]) if c}
    return LINKS.get(name)
