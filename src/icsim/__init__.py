"""Simulation laboratory for finite-state interactive protocols over noisy channels.

The package splits into a protocol layer (finite-state protocols and their
transcripts), a channel layer (BSC / BEC / binary-input AWGN with capacity and
error-exponent machinery), block codes used to convey transcript columns, and
the simulation schemes themselves: a genie-aided vertical scheme, two-state
lookahead schemes, and the coinciding m-state scheme with tail exchange.
"""

from .channel import ERASURE, ChannelModel, binary_entropy
from .coding import CodeSpec, RandomLinearCode, convey
from .harness import (
    ExperimentConfig,
    SweepRow,
    SweepSummary,
    compare_bounds,
    run_sweep,
    run_trial,
    wilson_interval,
)
from .multistate import (
    CoincidenceCertificate,
    balanced_tables,
    coincidence_bound,
    coincidence_failure_trials,
    is_coinciding,
    is_useful,
    simulate_mstate,
    tail_exhaustive_lookahead,
    tail_length,
)
from .protocol import (
    FiniteStateProtocol,
    Party,
    TranscriptTrace,
    load_protocol,
    make_markovian,
    markovian_advance,
    pad_protocol,
    party_view,
    protocol_from_dict,
    protocol_to_dict,
    random_protocol,
    run_protocol,
    save_protocol,
)
from .threestate import build_example2, count_transcript_triples, disj_via_protocol
from .twostate import (
    AdvanceClass,
    classify_advance,
    exhaustive_two_state,
    random_two_state_protocol,
    run_exhaustive_block,
    run_lookahead_exchange,
    simulate_two_state,
)
from .vertical import (
    AuditRecord,
    LookaheadResult,
    SimulationReport,
    accounting,
    exchange,
    genie_provider,
    grid_side,
    overhead_bound,
    simulate_vertical,
)

__version__ = "0.1.0"

__all__ = [
    "ERASURE",
    "AdvanceClass",
    "AuditRecord",
    "ChannelModel",
    "CodeSpec",
    "CoincidenceCertificate",
    "ExperimentConfig",
    "FiniteStateProtocol",
    "LookaheadResult",
    "Party",
    "RandomLinearCode",
    "SimulationReport",
    "SweepRow",
    "SweepSummary",
    "TranscriptTrace",
    "accounting",
    "balanced_tables",
    "binary_entropy",
    "build_example2",
    "classify_advance",
    "coincidence_bound",
    "coincidence_failure_trials",
    "compare_bounds",
    "convey",
    "count_transcript_triples",
    "disj_via_protocol",
    "exhaustive_two_state",
    "exchange",
    "genie_provider",
    "grid_side",
    "is_coinciding",
    "is_useful",
    "load_protocol",
    "make_markovian",
    "markovian_advance",
    "overhead_bound",
    "pad_protocol",
    "party_view",
    "protocol_from_dict",
    "protocol_to_dict",
    "random_protocol",
    "random_two_state_protocol",
    "run_exhaustive_block",
    "run_lookahead_exchange",
    "run_protocol",
    "run_sweep",
    "run_trial",
    "save_protocol",
    "simulate_mstate",
    "simulate_two_state",
    "simulate_vertical",
    "tail_exhaustive_lookahead",
    "tail_length",
    "wilson_interval",
]
