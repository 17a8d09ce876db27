"""Discrete-time spiking boolean circuits.

Neurons integrate weighted integer charge and fire the same millisecond
a threshold-reaching packet arrives. On that substrate the package
builds logic gates (NOT, OR, two AND realizations, an SR latch), block
generators (decoder, encoder, multiplexer, demultiplexer, D latch,
register-file memory), closed-form resource and latency accounting, and
a verification harness with canned end-to-end experiments.
"""

from types import ModuleType as _ModuleType

from .sim import Network, SpikeRecord, Synapse
from .gates import (
    Handle,
    build_and_classic,
    build_and_fast,
    build_css,
    build_not,
    build_or,
    build_sr_latch,
    drive,
    wire,
)
from .blocks import (
    build_d_latch,
    build_decoder,
    build_demultiplexer,
    build_encoder,
    build_memory,
    build_multiplexer,
)
from .resources import (
    AND_KINDS,
    BLOCK_KINDS,
    FormulaQuery,
    ReconcileReport,
    ResourceReport,
    encoder_synapse_sum,
    expected_latency,
    formula_queries,
    formula_resources,
    reconcile,
)
from .oracles import (
    decoder_channel,
    demux_channels,
    encoder_value,
    latch_states,
    memory_final,
    memory_states,
    mux_output,
)
from .trace import SpikeRow, Trace, TraceRow, render_trace
from .harness import (
    DEFAULT_SEED,
    EXPERIMENTS,
    Check,
    ExperimentConfig,
    ExperimentResult,
    VerifyReport,
    export_spikes,
    measure_latency,
    parse_stimulus,
    run_experiment,
    verify_block,
)

__version__ = "0.1.0"

# every public name imported above, and the version
__all__ = sorted(name for name, value in globals().items()
                 if name[0] != "_" and not isinstance(value, _ModuleType))
__all__.append("__version__")
