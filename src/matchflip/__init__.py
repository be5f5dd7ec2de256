"""Exact engine for non-crossing perfect matchings on a circle and
their flip graphs.

The public surface re-exports the pieces most callers need: matchings
and chords, flips, the rank codec, graph building and analysis, the
constructive flip sequences, closed-form counts, and the rainbow-cycle
search.
"""

from .chords import (Chord, Matching, antipodal, chord_length, chord_sign,
                     diameter_chord, hidden_behind, hides,
                     is_centrally_symmetric, is_diameter, make_chord,
                     max_length, mirror, opening_endpoint,
                     perimeter_edge_count, perimeter_matching, rotate,
                     segment, visible_edges, weight)
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
                    make_flip, neighbors, replay)
from .graphs import (DiameterResult, FlipGraph, bfs_distances,
                     build_flip_graph, component_report, csv_lines, diameter,
                     dot_lines, graph_json_obj)
from .rainbow import (RainbowResult, admissible_chords, find_rainbow_cycle,
                      nonexistence_bound, odd_average_certificate,
                      verify_rainbow)

__version__ = "0.1.0"

__all__ = [
    "Chord", "CountReport", "CountRow", "DiameterResult", "Flip",
    "FlipGraph", "Matching", "RainbowResult", "ResourceLimitError",
    "VerificationError", "admissible_chords",
    "antipodal", "apply_flip", "band_weight", "bfs_distances",
    "bits_to_symmetric",
    "build_flip_graph", "canonical_flip_sequence", "catalan",
    "chord_length", "chord_sign", "class_partition_size",
    "component_report", "component_size_fraction", "csv_lines",
    "diameter", "diameter_chord", "dot_lines", "dyck_words",
    "enumerate_matchings", "find_rainbow_cycle",
    "flippable_pairs", "from_dyck", "graph_json_obj", "hidden_behind",
    "hides", "is_centered", "is_centrally_symmetric", "is_diameter",
    "make_chord", "make_flip", "max_length", "mirror", "narayana",
    "neighbors", "nonexistence_bound", "odd_average_certificate",
    "opening_endpoint", "peaks", "perimeter_class_size",
    "perimeter_edge_count", "perimeter_matching", "perimeter_swap_path",
    "predicted_extremes", "rank", "replay", "rotate", "segment",
    "segment_to_dyck", "symmetric_count", "symmetric_to_bits", "to_dyck",
    "unrank", "verify_counts", "verify_rainbow", "visible_edges",
    "weight", "weight_class_size",
]
