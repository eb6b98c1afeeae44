"""Structure-aware entity encoding: gated graph propagation layers.

Each layer smooths embeddings over the normalized adjacency and blends the
result back with the input through a learned sigmoid gate, so entity
identity survives the smoothing. Both graphs are encoded with the same
parameters.
"""

from . import autodiff as ad


def init_structure_params(rng, d_e, depth):
    params = {}
    for layer in range(depth):
        params[f"gcn.gate_w{layer}"] = ad.glorot(rng, d_e, d_e)
        params[f"gcn.gate_b{layer}"] = ad.zeros_param(d_e)
    return params


def gcn_propagate(x, adjacency_norm):
    """Degree-normalized neighborhood average followed by ReLU; no weights."""
    return ad.relu(ad.left_matmul(adjacency_norm, x))


def highway_combine(x_old, x_new, gate_w, gate_b):
    """Elementwise convex blend gate*x_new + (1 - gate)*x_old."""
    gate = ad.sigmoid(ad.matmul(x_old, gate_w) + gate_b)
    return gate * x_new + (1.0 - gate) * x_old


def encode_structure(x, adjacency_norm, params, depth):
    for layer in range(depth):
        propagated = gcn_propagate(x, adjacency_norm)
        x = highway_combine(
            x, propagated, params[f"gcn.gate_w{layer}"], params[f"gcn.gate_b{layer}"]
        )
    return x
