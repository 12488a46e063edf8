"""How a time-varying channel looks from the delay-Doppler domain.

A multipath channel whose taps drift slowly (constant within each OFDM
symbol) acts on the delay-Doppler grid as a single 2-D circular convolution
with a small, static kernel: delays show up along one axis, Doppler shifts
along the other. This script builds that kernel from the per-symbol
channel gains, checks it against the end-to-end pipeline, and shows
where the picture breaks down once taps vary within a symbol -- and that
per-symbol zero-forcing still recovers the data there.
"""

import numpy as np

from otfsim import (
    BlockFadingChannel,
    ChannelTap,
    LtvChannel,
    ModemConfig,
    apply_channel,
    assemble_effective,
    build_dd_response,
    demodulate_reference,
    make_window,
    modulate_fast,
)

cfg = ModemConfig(M=16, N=8, cp_len=4)
window = make_window("rectangular", cfg.N)
rng = np.random.default_rng(7)

# two paths: delay 0, and delay 3 with one Doppler cycle per frame
nu = 1.0 / cfg.frame_len
ch = LtvChannel(
    (
        ChannelTap(delay=0, gain=0.8),
        ChannelTap(delay=3, gain=0.6j, doppler=nu),
    )
)

response = build_dd_response(assemble_effective(ch, window, cfg))

print("dominant |response| entries (delay bin, Doppler bin) -> magnitude:")
flat = np.argsort(np.abs(response).ravel())[::-1][:4]
for idx in flat:
    k, l = np.unravel_index(idx, response.shape)
    print(f"  ({k}, {l}) -> {np.abs(response[k, l]):.3f}")
print("the delay-0 path sits at (0, 0); the delayed, shifted path near (3, 1)")

# in the block-fading regime the convolution picture is exact
bf = BlockFadingChannel(
    gains=(rng.normal(size=(cfg.N, 4)) + 1j * rng.normal(size=(cfg.N, 4))) / np.sqrt(8),
    sym_len=cfg.sym_len,
)
x = rng.normal(size=(cfg.M, cfg.N)) + 1j * rng.normal(size=(cfg.M, cfg.N))
x_f = np.fft.fft2(x)  # a 2-D circular convolution with X multiplies its 2-D DFT
pipeline = demodulate_reference(apply_channel(modulate_fast(x, cfg), bf), window, cfg)
kernel = build_dd_response(assemble_effective(bf, window, cfg))
err = np.linalg.norm(pipeline - np.fft.ifft2(np.fft.fft2(kernel) * x_f)) / np.linalg.norm(pipeline)
print(f"\nblock-fading channel: |pipeline - kernel (*) X| / |pipeline| = {err:.2e}")

# with fast within-symbol variation the kernel is only an approximation...
fast_ch = LtvChannel((ChannelTap(delay=0, gain=1.0, doppler=0.02),))
pipeline = demodulate_reference(apply_channel(modulate_fast(x, cfg), fast_ch), window, cfg)
fast_system = assemble_effective(fast_ch, window, cfg)
kernel = build_dd_response(fast_system)
err = np.linalg.norm(pipeline - np.fft.ifft2(np.fft.fft2(kernel) * x_f)) / np.linalg.norm(pipeline)
print(f"within-symbol Doppler:  residual {err:.2e} (2-D convolution no longer exact)")

# ...but the per-symbol model stays exact for any channel: one M x M system
# per OFDM symbol between N-point row transforms, so ZF undoes the channel
x_hat = fast_system.factor(0.0).detect(pipeline)
err = np.linalg.norm(x_hat - x) / np.linalg.norm(x)
print(f"same channel, per-symbol ZF: |x_hat - X| / |X| = {err:.2e}")
