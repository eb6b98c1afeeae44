"""Per-triple representations fusing semantic and type-space information.

A triple keeps its own "specificity" vector (head, projected local relation,
tail, concatenated as one unit) alongside relation-level aggregates built by
head-, tail-, and relation-aware attention. A learned nonlinear projection
of entity embeddings acts as a type space; semantic and type views attend
over each other within each relation group, and the fused result is the
triple representation consumed downstream.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

VARIANTS = ("full", "wo-E", "wo-T", "wo-C")


def init_triple_params(rng, d_e, d_r, d_t):
    params = {
        "triple.local_w": ad.glorot(rng, 2 * d_e, d_r),
        "triple.global_w": ad.glorot(rng, 2 * d_e, d_r),
        "triple.key_w": ad.glorot(rng, 2 * d_e + d_r, d_r),
        "triple.head_w": ad.glorot(rng, d_e, d_r),
        "triple.head_a": ad.uniform_vec(rng, (2 * d_r, 1)),
        "triple.tail_w": ad.glorot(rng, d_e, d_r),
        "triple.tail_a": ad.uniform_vec(rng, (2 * d_r, 1)),
        "triple.rel_a": ad.uniform_vec(rng, (2 * d_r, 1)),
        "triple.type_w": ad.glorot(rng, d_e, d_t),
        "triple.type_b": ad.zeros_param(d_t),
        "triple.type_rel_w": ad.glorot(rng, 2 * d_t, d_r),
        "triple.type_key_w": ad.glorot(rng, 2 * d_t + d_r, d_r),
        "triple.mutual_fwd_a": ad.uniform_vec(rng, (2 * d_r, 1)),
        "triple.mutual_rev_a": ad.uniform_vec(rng, (2 * d_r, 1)),
    }
    return params


def _relation_counts(rel_ids, num_relations, opname):
    counts = np.bincount(rel_ids, minlength=num_relations)
    if (counts == 0).any():
        empty = int(np.flatnonzero(counts == 0)[0])
        raise ValueError(f"{opname}: relation {empty} has no triples")
    return counts


def global_relation(x, heads, tails, rel_ids, num_relations):
    """Mean of (head ‖ tail) embedding pairs over each relation's triples."""
    counts = _relation_counts(rel_ids, num_relations, "global_relation")
    pair = ad.concat(ad.take_rows(x, heads), ad.take_rows(x, tails))
    total = ad.segment_sum(pair, rel_ids, num_relations)
    return total * (1.0 / counts)[:, None]


def triple_specificity(x, heads, tails, local_w):
    """Per-triple (head ‖ projected local relation ‖ tail) concatenation.

    Also returns the unprojected local (head ‖ tail) pair, which the
    relation-aware query reuses.
    """
    x_h = ad.take_rows(x, heads)
    x_t = ad.take_rows(x, tails)
    local = ad.concat(x_h, x_t)
    projected = ad.matmul(local, local_w)
    return ad.concat(ad.concat(x_h, projected), x_t), local


def role_aware_attention(query, key, value, group_ids, num_groups, attn_vec, slope=0.3):
    """Aggregate per-triple values into per-group vectors via softmax attention.

    Logits come from the (query ‖ key) concatenation mapped to a scalar;
    weights are normalized within each group.
    """
    _relation_counts(group_ids, num_groups, "role_aware_attention")
    logits = ad.reshape(ad.matmul(ad.concat(query, key), attn_vec), (-1,))
    weights = ad.segment_softmax(ad.leaky_relu(logits, slope), group_ids)
    weighted = ad.reshape(weights, (-1, 1)) * value
    return ad.leaky_relu(ad.segment_sum(weighted, group_ids, num_groups), slope)


def semantic_triple(x, heads, rels, tails, num_relations, params, slope=0.3,
                    with_attention=True):
    """Per-triple semantic representation: attention aggregates + specificity.

    With ``with_attention`` off, only the projected specificity survives.
    """
    specificity, local = triple_specificity(x, heads, tails, params["triple.local_w"])
    key = ad.matmul(specificity, params["triple.key_w"])
    if not with_attention:
        return key

    rel_global = global_relation(x, heads, tails, rels, num_relations)
    q_head = ad.matmul(ad.take_rows(x, heads), params["triple.head_w"])
    head_agg = role_aware_attention(
        q_head, key, q_head, rels, num_relations, params["triple.head_a"], slope
    )
    q_tail = ad.matmul(ad.take_rows(x, tails), params["triple.tail_w"])
    tail_agg = role_aware_attention(
        q_tail, key, q_tail, rels, num_relations, params["triple.tail_a"], slope
    )
    q_rel = ad.matmul(ad.take_rows(rel_global, rels), params["triple.global_w"]) + ad.matmul(
        local, params["triple.local_w"]
    )
    rel_agg = role_aware_attention(
        q_rel, key, q_rel, rels, num_relations, params["triple.rel_a"], slope
    )
    return (
        ad.take_rows(head_agg, rels)
        + ad.take_rows(tail_agg, rels)
        + ad.take_rows(rel_agg, rels)
        + key
    )


def type_projection(x, type_w, type_b):
    """Nonlinear map from semantic space into the learned type space."""
    return ad.tanh(ad.matmul(x, type_w) + type_b)


def type_triple(x_type, heads, rels, tails, num_relations, type_rel_w):
    """Type-space triple construction mirroring the semantic specificity.

    Returns the per-relation global type vector and the per-triple type
    triple (head ‖ projected relation ‖ tail), where the relation part sums
    the global vector with the local (head ‖ tail) type pair.
    """
    rel_type_global = global_relation(x_type, heads, tails, rels, num_relations)
    xt_h = ad.take_rows(x_type, heads)
    xt_t = ad.take_rows(x_type, tails)
    local = ad.concat(xt_h, xt_t)
    rel_local = ad.take_rows(rel_type_global, rels) + local
    projected = ad.matmul(rel_local, type_rel_w)
    return rel_type_global, ad.concat(ad.concat(xt_h, projected), xt_t)


def mutual_attention(sem, type_proj, rel_ids, num_relations, fwd_a, rev_a, slope=0.3):
    """Cross-view attention between semantic and type triples per relation.

    The forward direction scores (semantic ‖ type) and aggregates semantic
    values; the reverse direction swaps the roles and aggregates type values.
    """
    _relation_counts(rel_ids, num_relations, "mutual_attention")

    logits_fwd = ad.reshape(ad.matmul(ad.concat(sem, type_proj), fwd_a), (-1,))
    w_fwd = ad.segment_softmax(ad.leaky_relu(logits_fwd, slope), rel_ids)
    sem_agg = ad.relu(
        ad.segment_sum(ad.reshape(w_fwd, (-1, 1)) * sem, rel_ids, num_relations)
    )

    logits_rev = ad.reshape(ad.matmul(ad.concat(type_proj, sem), rev_a), (-1,))
    w_rev = ad.segment_softmax(ad.leaky_relu(logits_rev, slope), rel_ids)
    type_agg = ad.relu(
        ad.segment_sum(ad.reshape(w_rev, (-1, 1)) * type_proj, rel_ids, num_relations)
    )
    return sem_agg, type_agg


def fuse_type_enhanced(sem, sem_agg, type_proj, type_agg, rel_type_global, rel_ids):
    """Sum the per-triple terms and append the relation-level type vector."""
    fused = (
        sem
        + ad.take_rows(type_agg, rel_ids)
        + type_proj
        + ad.take_rows(sem_agg, rel_ids)
    )
    return ad.concat(fused, ad.take_rows(rel_type_global, rel_ids))


@dataclass
class TripleEncoding:
    triple_repr: ad.Tensor  # (num_triples, width)
    semantic: ad.Tensor  # (num_triples, d_r)
    width: int


def triple_width(variant, d_r, d_t):
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    return d_r if variant == "wo-T" else d_r + 2 * d_t


def encode_triples(x, triples, num_relations, params, variant="full", slope=0.3):
    """Full triple-encoding pass for one graph; variant selects ablations."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    heads, rels, tails = triples[:, 0], triples[:, 1], triples[:, 2]
    d_r = params["triple.key_w"].data.shape[1]
    d_t = params["triple.type_w"].data.shape[1]

    sem = semantic_triple(
        x, heads, rels, tails, num_relations, params, slope,
        with_attention=(variant != "wo-E"),
    )
    if variant == "wo-T":
        return TripleEncoding(sem, sem, d_r)

    x_type = type_projection(x, params["triple.type_w"], params["triple.type_b"])
    rel_type_global, type_spec = type_triple(
        x_type, heads, rels, tails, num_relations, params["triple.type_rel_w"]
    )
    type_proj = ad.matmul(type_spec, params["triple.type_key_w"])
    sem_agg, type_agg = mutual_attention(
        sem, type_proj, rels, num_relations,
        params["triple.mutual_fwd_a"], params["triple.mutual_rev_a"], slope,
    )
    fused = fuse_type_enhanced(sem, sem_agg, type_proj, type_agg, rel_type_global, rels)
    return TripleEncoding(fused, sem, d_r + 2 * d_t)
