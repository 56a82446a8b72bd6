"""soficlab: a desk-scale numerical laboratory for sofic and amenable
entropy of subshifts over finitely generated groups.

Everything is finite-stage and certified: microstate counts come in
inner/outer bracketing modes, measures evaluate cylinders in exact
rational arithmetic, and every reported value carries its parameters.
"""

__version__ = "0.1.0"

from .errors import (ArgumentError, ResourceBudgetError, SoficLabError, SpecError,
                     UnsupportedOperationError)
from .groups import (FiniteSubset, FiniteTableGroup, FreeGroup,
                     Group, LatticeGroup, folner_set, invariance_defect, multiply)
from .sofic import (GoodnessCertificate, SoficMap, cyclic_model,
                    freeness_defect, from_folner, is_good, mult_defect,
                    random_free_model, regular_representation)
from .symbolic import (BernoulliMeasure, MarkovMeasure, MetricWeights, Pattern,
                       SymbolicSystem, TestFunction, Window, as_fraction,
                       count_cyclic_words, full_shift, golden_mean_system, integrate)
from .covers import (Cover, CoverEntropyResult, MinCoverResult, cover_entropy,
                     cylinder_complement_cover, element_measure, exact_min_cover,
                     join, lift, min_subcover, origin_partition, partial_cover_count,
                     partial_cover_count_of, pullback, pullback_iterate, shannon_entropy,
                     trivial_cover)
from .microstates import (ComparisonPlan, MeasureFilter, MicrostateCounts, TupleCounts,
                          count_microstates, counting_method, zero_defect_delta)
from .entropy import (NEG_INF, AgreementReport, AmenableTrace, EntropyTrace,
                      PairScanReport, PartitionCountResult, VariationalReport,
                      amenable_measure_trace, amenable_topological_trace,
                      check_amenable_agreement, check_variational, entropy_pair_scan,
                      partition_count_bound, select_dominant_measure,
                      sofic_measure_trace, sofic_topological_trace, stage_value)
from .tiling import (QuasiTiling, TilingRecord, amenable_exact_tile,
                     epsilon_disjoint_check, sofic_quasi_tile, verify_tiling)
