"""Differentiable tensor ops (the library's kernel set).

Every op produces real numpy results in functional mode and shape/cost
flow in abstract mode; all allocate through the simulated caching
allocator and advance simulated time via the kernel cost model.
"""

from repro.ops.basic import (
    abs,
    add,
    cast,
    clone,
    div,
    dropout,
    exp,
    gelu,
    log,
    masked_fill,
    maximum,
    mul,
    neg,
    pow,
    relu,
    scalar_like,
    sigmoid,
    sqrt,
    sub,
    tanh,
    to_device,
    where,
)
from repro.ops.chunk import ChunkUncat, chunk_cat
from repro.ops.conv import conv2d, conv2d_flops
from repro.ops.matmul import linear, linear_flops, matmul, matmul_flops
from repro.ops.nnops import embedding, layer_norm, log_softmax, nll_loss, softmax
from repro.ops.reduce import argmax, max, mean, sum
from repro.ops.shape import (
    cat,
    expand,
    getitem,
    narrow,
    pad_right,
    permute,
    split,
    transpose,
    view,
)

__all__ = [
    "ChunkUncat",
    "abs",
    "add",
    "argmax",
    "cast",
    "cat",
    "chunk_cat",
    "clone",
    "conv2d",
    "conv2d_flops",
    "div",
    "dropout",
    "embedding",
    "exp",
    "expand",
    "gelu",
    "getitem",
    "layer_norm",
    "linear",
    "linear_flops",
    "log",
    "log_softmax",
    "masked_fill",
    "matmul",
    "matmul_flops",
    "max",
    "maximum",
    "mean",
    "mul",
    "narrow",
    "neg",
    "nll_loss",
    "pad_right",
    "permute",
    "pow",
    "relu",
    "scalar_like",
    "sigmoid",
    "softmax",
    "split",
    "sqrt",
    "sub",
    "sum",
    "tanh",
    "to_device",
    "transpose",
    "view",
    "where",
]
