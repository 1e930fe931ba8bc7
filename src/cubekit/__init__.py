"""cubekit: finite median graphs as CAT(0) cube complexes — hyperplanes,
wallspace duals, partial group actions, ping-pong certificates, Schreier
spectral estimates, and product-decomposition reports."""

__version__ = "0.1.0"

# The function ``median.median`` is not re-exported: binding it here would
# shadow the submodule, so ``import cubekit.median`` would yield a function.
from .median import (MedianGraph, GraphError, NotValidatedError,
                     check_median, load_graph, graph_to_text,
                     brute_force_median_oracle, is_convex, gate,
                     enumerate_cubes)
from .hyperplanes import (Arrangement, Hyperplane, Halfspace, arrangement,
                          compute_hyperplanes, crosses, strongly_separated,
                          halfspaces_disjoint, halfspace_leq, facing_tuples,
                          projection_pair, irreducible_decomposition,
                          product_graph, hyperplane_report, parse_halfspace)
from .sageev import (Wall, Wallspace, parse_wallspace, wallspace_to_text,
                     wallspace_of_graph, build_dual, roundtrip_check)
from .action import (Generators, PartialAction, Word, reduce_word,
                     invert_word, parse_word, word_str, reduced_words,
                     load_action, action_to_text, hyperplane_orbit,
                     stabilizer_words, find_flipping, find_double_skewer,
                     FiniteQuotient, load_quotient)
from .schottky import (sigma_analysis, build_quadruple, pingpong_certify,
                       PingPongCertificate, PingPongRefutation,
                       stable_certify, verify_certificate,
                       elliptic_fixed_point, find_separated_translate)
from .schreier import (build_schreier, schreier_to_text, spectral_estimate,
                       spectral_series, free_action_cert)
from .report import shape_report, classify_factor
from . import builders
