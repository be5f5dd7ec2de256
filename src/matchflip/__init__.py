"""Exact engine for non-crossing perfect matchings on a circle and
their flip graphs.

The public surface re-exports the pieces most callers need: matchings
and chords, flips, the rank codec, graph building and analysis, the
constructive flip sequences, closed-form counts, and the rainbow-cycle
search.
"""

from .chords import (Chord, Matching, chord_length, chord_sign,
                     diameter_chord, hidden_behind, is_centrally_symmetric,
                     make_chord, max_length, opening_endpoint,
                     perimeter_edge_count, perimeter_matching, segment,
                     visible_edges, weight)
from .construct import canonical_flip_sequence, perimeter_swap_path
from .counts import (CountReport, CountRow, catalan, class_partition_size,
                     component_size_fraction, narayana, perimeter_class_size,
                     predicted_extremes, symmetric_count, verify_counts,
                     weight_class_size)
from .dyck import (band_weight, bits_to_symmetric, dyck_words,
                   enumerate_matchings, from_dyck, peaks, rank,
                   segment_to_dyck, symmetric_to_bits, to_dyck, unrank)
from .errors import ResourceLimitError, VerificationError
from .flips import (Flip, apply_flip, flippable_pairs, is_centered,
                    make_flip, replay)
from .graphs import (Census, DiameterResult, FlipGraph, bfs_distances,
                     build_flip_graph, component_census, component_report,
                     diameter, graph_json_obj)
from .rainbow import (RainbowResult, admissible_chords, find_rainbow_cycle,
                      nonexistence_bound, odd_average_certificate,
                      verify_rainbow)

__version__ = "0.1.0"

__all__ = [
    "Census", "Chord", "CountReport", "CountRow", "DiameterResult", "Flip",
    "FlipGraph", "Matching", "RainbowResult", "ResourceLimitError",
    "VerificationError", "admissible_chords", "apply_flip", "band_weight",
    "bfs_distances", "bits_to_symmetric", "build_flip_graph",
    "canonical_flip_sequence", "catalan", "chord_length", "chord_sign",
    "class_partition_size", "component_census", "component_report",
    "component_size_fraction", "diameter", "diameter_chord", "dyck_words",
    "enumerate_matchings", "find_rainbow_cycle", "flippable_pairs",
    "from_dyck", "graph_json_obj", "hidden_behind", "is_centered",
    "is_centrally_symmetric", "make_chord", "make_flip", "max_length",
    "narayana", "nonexistence_bound",
    "odd_average_certificate", "opening_endpoint", "peaks",
    "perimeter_class_size", "perimeter_edge_count", "perimeter_matching",
    "perimeter_swap_path", "predicted_extremes", "rank", "replay",
    "segment", "segment_to_dyck", "symmetric_count", "symmetric_to_bits",
    "to_dyck", "unrank", "verify_counts", "verify_rainbow",
    "visible_edges", "weight", "weight_class_size",
]
