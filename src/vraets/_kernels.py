"""LSTM time loops: the hot path of training.

One numpy forward and one numpy backward. Both store their arrays
time-major and batch-innermost, so each gate block of a step is one
contiguous (H, B) slab and every elementwise ufunc runs a single inner
loop. Each loop allocates its outputs and its per-step scratch once per
call; every step then writes through `out=` ufuncs, so the loop itself
allocates nothing. The three sigmoid gates come from the cell input's
`tanh` call, as 0.5 + 0.5 * tanh(a / 2). The arithmetic is fixed
operation by operation, which makes the results bit-reproducible on a
given numpy/BLAS build; gradients are checked against finite
differences in the test suite.

Layouts. Arguments and results have the logical shapes below; the
arrays returned are `.transpose(0, 2, 1)` views of (T, 4H, B) and
(T, H, B) storage, and an argument passed as such a view is read
without a copy:
    x_proj  (T, B, 4H)  pre-activations from the input side, bias included
                        (may be a broadcast view, e.g. a bias alone)
    W_h     (H, 4H)     recurrent weights, gate order i, f, o, g
    h_all   (T+1, B, H) hidden states; h_all[0] is the initial state
    c_all   (T+1, B, H) cell states
    gates   (T, B, 4H)  post-activation i, f, o, g
    tanhc   (T, B, H)   tanh of the new cell state
    da_all  (T, B, 4H)  gradient of the gate pre-activations
"""

from __future__ import annotations

import numpy as np

# There is no compiled path; kept because vraebench/run.py reads it to
# report the LSTM backend.
HAVE_NUMBA = False


def _storage(a):
    """The batch-innermost (.., H, B) view of a logical (.., B, H) array."""
    return a.transpose(0, 2, 1)


def lstm_forward(x_proj, W_h, h0, c0):
    T, B, H4 = x_proj.shape
    H = H4 // 4
    H3 = 3 * H
    xp = _storage(x_proj)
    W_hT = W_h.T
    h_all = np.empty((T + 1, H, B))
    c_all = np.empty((T + 1, H, B))
    gates = np.empty((T, H4, B))
    tanhc = np.empty((T, H, B))
    h_all[0] = h0.T
    c_all[0] = c0.T
    pre = np.empty((H4, B))
    ig = np.empty((H, B))
    for t in range(T):
        np.matmul(W_hT, h_all[t], out=pre)
        np.add(xp[t], pre, out=pre)
        # sigmoid(a) = 0.5 + 0.5 * tanh(a / 2): one tanh for all four gates
        np.multiply(pre[:H3], 0.5, out=pre[:H3])
        g_t = gates[t]
        np.tanh(pre, out=g_t)
        np.multiply(g_t[:H3], 0.5, out=g_t[:H3])
        np.add(g_t[:H3], 0.5, out=g_t[:H3])
        c = c_all[t + 1]
        np.multiply(g_t[H:2 * H], c_all[t], out=c)
        np.multiply(g_t[:H], g_t[H3:], out=ig)
        np.add(c, ig, out=c)
        np.tanh(c, out=tanhc[t])
        np.multiply(g_t[2 * H:H3], tanhc[t], out=h_all[t + 1])
    return (_storage(h_all), _storage(c_all), _storage(gates),
            _storage(tanhc))


def lstm_backward(dh_step, dh_last, dc_last, gates, tanhc, c_all, W_h):
    T, B, H4 = gates.shape
    H = H4 // 4
    dh_step, gates = _storage(dh_step), _storage(gates)
    tanhc, c_all = _storage(tanhc), _storage(c_all)
    da_all = np.empty((T, H4, B))
    dh = dh_last.T.copy()
    dc = dc_last.T.copy()
    dhv = np.empty((H, B))
    dcc = np.empty((H, B))
    s = np.empty((H, B))
    for t in range(T - 1, -1, -1):
        np.add(dh, dh_step[t], out=dhv)
        i = gates[t, :H]
        f = gates[t, H:2 * H]
        o = gates[t, 2 * H:3 * H]
        g = gates[t, 3 * H:]
        tc = tanhc[t]
        da = da_all[t]
        da_i, da_f, da_o, da_g = da[:H], da[H:2 * H], da[2 * H:3 * H], da[3 * H:]
        # dcc = dc + dhv * o * (1 - tc * tc)
        np.multiply(tc, tc, out=s)
        np.subtract(1.0, s, out=s)
        np.multiply(dhv, o, out=dcc)
        np.multiply(dcc, s, out=dcc)
        np.add(dc, dcc, out=dcc)
        # da_i = dcc * g * i * (1 - i)
        np.multiply(dcc, g, out=da_i)
        np.multiply(da_i, i, out=da_i)
        np.subtract(1.0, i, out=s)
        np.multiply(da_i, s, out=da_i)
        # da_f = dcc * c_prev * f * (1 - f)
        np.multiply(dcc, c_all[t], out=da_f)
        np.multiply(da_f, f, out=da_f)
        np.subtract(1.0, f, out=s)
        np.multiply(da_f, s, out=da_f)
        # da_o = dhv * tc * o * (1 - o)
        np.multiply(dhv, tc, out=da_o)
        np.multiply(da_o, o, out=da_o)
        np.subtract(1.0, o, out=s)
        np.multiply(da_o, s, out=da_o)
        # da_g = dcc * i * (1 - g * g)
        np.multiply(dcc, i, out=da_g)
        np.multiply(g, g, out=s)
        np.subtract(1.0, s, out=s)
        np.multiply(da_g, s, out=da_g)
        np.multiply(dcc, f, out=dc)
        np.matmul(W_h, da, out=dh)
    return _storage(da_all), dh.T, dc.T
