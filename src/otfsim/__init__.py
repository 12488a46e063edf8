"""OFDM-based OTFS baseband modem library.

Delay-Doppler multiplexing on top of an OFDM modem: the literal
SFFT/OFDM reference cascade, the cancellation-based low-complexity modem,
an exact linear-time-varying channel model with its delay-Doppler
reconstruction, per-OFDM-symbol ZF/MMSE detection, and a
complex-multiplication audit of all three modem structures.
"""

import os as _os

# One OpenBLAS thread unless the caller set a count; it is read when NumPy loads, below.
# Helper threads busy-wait between BLAS calls, which slows a run whenever the other cores
# are busy, and at M = 64 the per-frame products are no faster on two threads.
_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .audit import audit_report, measured_cm, predicted_cm, proposed_to_ofdm_ratio
from .channel import (
    BlockFadingChannel,
    ChannelTap,
    LtvChannel,
    add_awgn,
    apply_channel,
    build_dd_response,
    channel_blocks,
    load_channel,
    random_ltv_channel,
)
from .detect import (
    BerStat,
    EffectiveSystem,
    assemble_effective,
    bit_error_rate,
    mmse_detect,
    zf_detect,
)
from .grids import (
    ModemConfig,
    SeparableWindow,
    make_window,
    qam_demap,
    qam_map,
    sfft_inv,
    sfft_windowed,
)
from .modem_fast import demodulate_fast, modulate_fast
from .modem_reference import (
    demodulate_ofdm,
    demodulate_reference,
    modulate_ofdm,
    modulate_reference,
)
from .numerics import (
    CmCounter,
    SingularMatrixError,
    circ_conv2d,
    dft,
    unvec,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
