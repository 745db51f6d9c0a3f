"""spcop: stochastic precedence, tie mass and target-based ranking for
bivariate copulas with explicit singular components."""

__version__ = "0.1.0"

from .copula import (Comonotone, CopulaSpec, Countermonotone, Gaussian,
                     Independence, MarshallOlkinConnecting,
                     MarshallOlkinSurvival, Mixture, OrderStatistics, Shuffle,
                     SurvivalOf, Transpose, copula_from_json, copula_sample,
                     copula_to_json, sample_uv, survival_of, transpose,
                     validate_copula)
from .dist import (DiscreteAtoms, Distribution, Exponential, Normal,
                   OrderCheckResult, PiecewiseLinearCdf, Uniform, UniformPower,
                   check_order, dist_from_json, dist_to_json)
from .errors import (Inconclusive, SizeLimit, SpcopError, SpecError,
                     UnknownMass)
from .oracle import (LoadSharingModel, grid_eta_oracle, load_sharing_sample,
                     mo_construction_sample, order_stats_triple_sample,
                     run_verification)
from .precedence import (ClassVerdict, Plan, PrecedenceReport, SpLevelResult,
                         best_eta_report, classify, eta_discrete_exact,
                         eta_exact, eta_lower_bound, eta_mc, eta_quadrature,
                         sp_level)
from .tba import Prospect, RankingRow, RankingTable, rank_prospects
