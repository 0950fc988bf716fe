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

from .dmt_core import *
from .reduction import *
from .recursion import *
from .partition import *
from .channel_sim import *
from .stbc import *

__version__ = "0.1.0"
