"""LSTM time loops: the hot path of training.

One numpy forward and one numpy backward, both on time-major arrays so
each step slice is contiguous. The forward allocates its outputs and
two per-step scratch buffers once per call; every step then writes
through `out=` ufuncs, so the loop itself allocates nothing. The three
sigmoid gates come from the cell input's `tanh` call, as
0.5 + 0.5 * tanh(a / 2). The arithmetic is fixed operation by
operation, which makes the results bit-reproducible on a given
numpy/BLAS build; gradients are checked against finite differences in
the test suite.

Layouts:
    x_proj  (T, B, 4H)  pre-activations from the input side, bias included
                        (may be a broadcast view, e.g. a bias alone)
    W_h     (H, 4H)     recurrent weights, gate order i, f, o, g
    h_all   (T+1, B, H) hidden states; h_all[0] is the initial state
    c_all   (T+1, B, H) cell states
    gates   (T, B, 4H)  post-activation i, f, o, g
    tanhc   (T, B, H)   tanh of the new cell state
"""

from __future__ import annotations

import numpy as np

# There is no compiled path; kept because vraebench reports the backend
# from it.
HAVE_NUMBA = False


def lstm_forward(x_proj, W_h, h0, c0):
    T, B, H4 = x_proj.shape
    H = H4 // 4
    H3 = 3 * H
    h_all = np.empty((T + 1, B, H))
    c_all = np.empty((T + 1, B, H))
    gates = np.empty((T, B, H4))
    tanhc = np.empty((T, B, H))
    h_all[0] = h0
    c_all[0] = c0
    pre = np.empty((B, H4))
    ig = np.empty((B, H))
    for t in range(T):
        np.matmul(h_all[t], W_h, out=pre)
        np.add(x_proj[t], pre, out=pre)
        # sigmoid(a) = 0.5 + 0.5 * tanh(a / 2): one tanh for all four gates
        np.multiply(pre[:, :H3], 0.5, out=pre[:, :H3])
        g_t = gates[t]
        np.tanh(pre, out=g_t)
        np.multiply(g_t[:, :H3], 0.5, out=g_t[:, :H3])
        np.add(g_t[:, :H3], 0.5, out=g_t[:, :H3])
        c = c_all[t + 1]
        np.multiply(g_t[:, H:2 * H], c_all[t], out=c)
        np.multiply(g_t[:, :H], g_t[:, H3:], out=ig)
        np.add(c, ig, out=c)
        np.tanh(c, out=tanhc[t])
        np.multiply(g_t[:, 2 * H:H3], tanhc[t], out=h_all[t + 1])
    return h_all, c_all, gates, tanhc


def lstm_backward(dh_step, dh_last, dc_last, gates, tanhc, c_all, W_hT):
    T, B, H4 = gates.shape
    H = H4 // 4
    da_all = np.empty((T, B, H4))
    dh = dh_last.copy()
    dc = dc_last.copy()
    for t in range(T - 1, -1, -1):
        dhv = dh + dh_step[t]
        i = gates[t, :, :H]
        f = gates[t, :, H:2 * H]
        o = gates[t, :, 2 * H:3 * H]
        g = gates[t, :, 3 * H:]
        tc = tanhc[t]
        dcc = dc + dhv * o * (1.0 - tc * tc)
        da_all[t, :, :H] = dcc * g * i * (1.0 - i)
        da_all[t, :, H:2 * H] = dcc * c_all[t] * f * (1.0 - f)
        da_all[t, :, 2 * H:3 * H] = dhv * tc * o * (1.0 - o)
        da_all[t, :, 3 * H:] = dcc * i * (1.0 - g * g)
        dc = dcc * f
        dh = da_all[t] @ W_hT
    return da_all, dh, dc
