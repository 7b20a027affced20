"""
ribboncheck: Alexander polynomials of links from diagram encodings, and
the divisibility obstruction to homotopy ribbon concordance.
"""

from .laurent import (LaurentPoly, canonical, divides, exact_divide, gcd,
                      parse_poly, poly_to_str)
from .linkcodec import (BraidWord, LinkDiagram, PDCode, braid_closure,
                        connected_sum, linking_number, parse_braid,
                        parse_link_spec, parse_pd, sublink)
from .wirtinger import (AbelianizationMap, GroupPresentation, apply_phi,
                        wirtinger_presentation)
from .foxcalc import AlexanderPresentation, jacobian
from .alexander import (AlexanderPolynomial, RankCertificate,
                        alexander_polynomial, module_rank, torsion_order)
from .obstruct import ObstructionReport, ribbon_obstruction
from .oracles import (AbelianGroupInvariants, cyclic_cover_check,
                      reidemeister_schreier, smith_normal_form, torres_check)

__version__ = "0.1.0"

__all__ = [
    "LaurentPoly", "canonical", "divides", "exact_divide", "gcd",
    "parse_poly", "poly_to_str",
    "BraidWord", "LinkDiagram", "PDCode", "braid_closure", "connected_sum",
    "linking_number", "parse_braid", "parse_link_spec", "parse_pd", "sublink",
    "AbelianizationMap", "GroupPresentation", "apply_phi",
    "wirtinger_presentation",
    "AlexanderPresentation", "jacobian",
    "AlexanderPolynomial", "RankCertificate", "alexander_polynomial",
    "module_rank", "torsion_order",
    "ObstructionReport", "ribbon_obstruction",
    "AbelianGroupInvariants", "cyclic_cover_check", "reidemeister_schreier",
    "smith_normal_form", "torres_check",
]
