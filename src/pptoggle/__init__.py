"""Toggle bijections and vertex-operator series for plane-partition-like
objects, with brute-force enumeration as ground truth."""

from .halfint import HalfInt
from .partitions import (as_partition, conjugate, hook_length, interlaces,
                         outer_corners, weight)
from .toggles import ToggleResult, toggle_between, toggle_pop, toggle_push
from .boundary import (HookTarget, edge_power, edge_sign, n_quotient,
                       redistribute, redistribute_inverse)
from .configurations import (HookTableau, OneLegRPP, OneLegSPP, PlanePartition,
                             TwoLegRPP, TwoLegSPP, cfg_weight, diagonal,
                             minimal_weight)
from .series import (OperatorWord, TruncatedSeries, apply_vertex_op, evaluate,
                     evaluate_stable, geometric, hook_product, macmahon_series,
                     shape_word)
from .bijections import (ToggleSchedule, one_leg_forward, one_leg_inverse,
                         pp_to_tableau, stabilization_index, tableau_to_pp,
                         two_leg_forward, two_leg_inverse, two_leg_remnant)
from .oracle import WeightCensus, census_series, enum_configs, enum_partitions

__version__ = "0.1.0"
