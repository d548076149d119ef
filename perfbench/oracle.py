"""Gate-level oracle for bit-true SC scores, built only from public spec ops.

Every stream is a comparator stream (``sc_core.to_stochastic``): inputs and
reconversions ride LFSR1 from phase 0, the weights of layer ``li`` ride LFSR2
at phase ``li * N`` and the bias line is a constant all-ones stream.  Hidden
neurons go through ``sc_nn.sc_neuron_forward`` (XNOR array, APC, floor shift,
saturation, reconversion, OR-ReLU); the output neuron stops at its saturated
APC word, which is the score the screening pipeline ranks by.

This is slow (tens of milliseconds per compound) and exists only to check a
faster engine for exact equality; its time is never part of a metric.
"""

from __future__ import annotations


def oracle_score(net, x, sc_core, sc_nn) -> float:
    """Decoded score of ``net`` for one feature-scaled input row ``x``.

    ``sc_core`` and ``sc_nn`` are the modules of the code under test.
    """
    n = net.stream_len
    width = net.width
    half = 1 << (width - 1)
    r1 = net.lfsr1.word_sequence(n)
    ones = sc_core.constant_stream(True, n)
    streams = [sc_core.to_stochastic(sc_core.encode(float(v), width), r1, n) for v in x]
    last = len(net.layers) - 1
    for li, layer in enumerate(net.layers):
        r2 = net.lfsr2.word_sequence(n, (li * n) % net.lfsr2.period)
        inputs = streams + ([ones] if layer.bias_q is not None else [])
        rows = []
        for j in range(layer.fan_out):
            w_row = [int(w) for w in layer.weights_q[j]]
            if layer.bias_q is not None:
                w_row.append(int(layer.bias_q[j]))
            rows.append(w_row)
        if li < last:
            streams = [sc_nn.sc_neuron_forward(inputs, w_row, r1, r2, layer.norm_shift, width)
                       for w_row in rows]
            continue
        (w_row,) = rows
        products = [
            sc_core.gate_eval(sc_core.GateKind.XNOR, s,
                              sc_core.to_stochastic(sc_core.FixedWord(w, width), r2, n))
            for s, w in zip(inputs, w_row)
        ]
        word = sc_core.apc_accumulate(products, n) >> layer.norm_shift
        return max(-half, min(half - 1, word)) / half
    raise ValueError("network has no layers")
