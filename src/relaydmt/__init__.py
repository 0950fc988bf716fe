"""
relaydmt: diversity-multiplexing tradeoff analysis and Monte-Carlo
simulation of MIMO multihop relay channels.

Analytic side (exact integer/rational arithmetic): tradeoff curves of
the amplify-and-forward chain and its variants, the cut-set bound,
channel reduction to minimal forms, and parallel-partition design.
Simulation side: a reproducible outage/error-rate engine for the AF,
project-and-forward, decode-and-forward, parallel-AF, flip-and-forward,
and CSI-aligned schemes, plus small algebraic space-time codes.
"""

from .dmt_core import (
    DecodeSet,
    Dimension,
    DmtCurve,
    as_dimension,
    coeffs,
    cutset_bound,
    dmt_ff_lower_bound,
    dmt_parallel_af,
    dmt_rayleigh,
    dmt_rp,
    dmt_serial_partition,
    dmt_symmetric,
    where_to_decode,
)
from .reduction import (
    ReductionReport,
    analyze,
    can_reduce,
    equivalent,
    practical_vertical_reduction,
)
from .recursion import dmt_recursive
from .partition import (
    AfPath,
    FlipSchedule,
    Partition,
    Supernode,
    ff_schedule,
    is_full_diversity,
    is_independent,
    max_partition,
    min_full_div_partition_2hop,
    nonind_partition_diversity,
)
from .channel_sim import (
    AfScheme,
    ChannelRealization,
    DfScheme,
    EffectiveChannel,
    FfScheme,
    OutageEstimate,
    ParallelAfScheme,
    PfScheme,
    SvdAlignScheme,
    af_effective,
    df_outage,
    estimate_outage,
    estimate_slope,
    ff_effective,
    mutual_info,
    outage_curve,
    pf_effective,
)
from .stbc import Codebook, QamAlphabet, alamouti, golden, simulate_ser, verify_nvd

__version__ = "0.1.0"
