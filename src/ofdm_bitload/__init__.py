"""Adaptive OFDM bit loading next to a narrowband interferer.

Link-level simulation of an OFDM transmitter sharing spectrum with a
narrowband RRC-shaped QPSK signal: analytic and Monte Carlo post-FFT
interference variance, frequency-selective Rayleigh channel draws, greedy
per-subcarrier bit allocation under a mean-BER constraint, throughput
sweep experiments, and a symbol-level verification oracle.
"""

from .allocator import AllocationResult, AllocationStatus, allocate
from .channel import ChannelRealization, draw_realization, pdp_constant
from .config import (ChannelConfig, LinkConfig, NbConfig, OfdmConfig, SystemConfig,
                     dump_config, load_config, parse_config, updated, validate)
from .errors import DomainError
from .experiments import SweepKind, SweepRecord, SweepSpec, run_sweep, run_trial
from .interference import (InterferenceProfile, RrcPulse, analytic_variance,
                           calibrated_profile, mc_variance, synthesize_nb_blocks)
from .link import Constellation, ber, q_function, sinr
from .verifier import (EmpiricalBer, gaussian_premise_report, measure_allocation_ber,
                       measure_ber)

__version__ = "0.1.0"
