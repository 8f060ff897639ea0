"""Two-relay cooperative diversity lab.

Mutual-information evaluators for synchronous and delay-asynchronous
relaying, outage simulation with semi-analytic oracles, waveform correlation
certification, finite-block ISI rates, and exact diversity-multiplexing
tradeoff curves.
"""

from .channel import (DecodingSet, FadingRealization, NetworkConfig, RatePoint,
                      decoding_set_probs, rate_target, sample_fading)
from .errors import ConfigError, NumericError
from .mutualinfo import (DelayConfig, SchemeId, check_scheme, closed_log_integral,
                         i_af_pair, i_esd, i_esd_bounds, mi_batch, mi_envelope)
from .outage import (ConditionalCase, OutageCurve, SlopeFit, analytic_outage_curve,
                     analytic_outage_parallel3, analytic_outage_rtda2,
                     analytic_outage_stc, mc_outage, slope_fit,
                     wilson_interval, write_csv, write_outage_csv)
from .toeplitz import (ConvergenceStudy, IsiTapSet, build_taps, convergence_study,
                       finite_n_mi)
from .tradeoff import (CrossingReport, CrossPoint, TradeoffCurve, band,
                       crossings, curve, rtda_band)
from .waveform import (CorrelationSet, EigenBounds, Waveform, certify_pd,
                       correlations, load_waveform, overlap_integral,
                       rectangular, save_waveform, srrc)

__version__ = "0.1.0"
