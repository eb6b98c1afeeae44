"""Per-triple representations fusing semantic and type-space information.

A triple keeps its own "specificity" vector (head, projected local relation,
tail, concatenated as one unit) alongside relation-level aggregates built by
head-, tail-, and relation-aware attention. A learned nonlinear projection
of entity embeddings acts as a type space; semantic and type views attend
over each other within each relation group, and the fused result is the
triple representation consumed downstream.
"""

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


def global_relation(x, graph):
    """Mean of (head ‖ tail) embedding pairs over each relation's triples."""
    pair = ad.concat(ad.take_rows(x, graph.heads), ad.take_rows(x, graph.tails))
    total = ad.segment_sum(pair, graph.rels)
    return total * (1.0 / graph.relation_counts)[:, None]


def triple_specificity(x, heads, tails, local_w):
    """Per-triple (head ‖ projected local relation ‖ tail) concatenation.

    Also returns the unprojected local (head ‖ tail) pair, which the
    relation-aware query reuses.
    """
    x_h = ad.take_rows(x, heads)
    x_t = ad.take_rows(x, tails)
    local = ad.concat(x_h, x_t)
    projected = ad.matmul(local, local_w)
    return ad.concat(x_h, projected, x_t), local


def semantic_triple(x, graph, params, with_attention=True):
    """Per-triple semantic representation: attention aggregates + specificity.

    With ``with_attention`` off, only the projected specificity survives.
    """
    specificity, local = triple_specificity(x, graph.heads, graph.tails, params["triple.local_w"])
    key = ad.matmul(specificity, params["triple.key_w"])
    if not with_attention:
        return key

    def role_aware(query, attn_vec):
        agg = ad.grouped_attention(query, key, query, graph.rels, attn_vec)
        return ad.take_rows(ad.leaky_relu(agg), graph.rels)

    rel_global = global_relation(x, graph)
    q_head = ad.matmul(ad.take_rows(x, graph.heads), params["triple.head_w"])
    head_agg = role_aware(q_head, params["triple.head_a"])
    q_tail = ad.matmul(ad.take_rows(x, graph.tails), params["triple.tail_w"])
    tail_agg = role_aware(q_tail, params["triple.tail_a"])
    q_rel = ad.matmul(ad.take_rows(rel_global, graph.rels), params["triple.global_w"]) + ad.matmul(
        local, params["triple.local_w"]
    )
    rel_agg = role_aware(q_rel, params["triple.rel_a"])
    return head_agg + tail_agg + rel_agg + key


def type_projection(x, type_w, type_b):
    """Nonlinear map from semantic space into the learned type space."""
    return ad.tanh(ad.matmul(x, type_w) + type_b)


def type_triple(x_type, graph, type_rel_w):
    """Type-space triple construction mirroring the semantic specificity.

    Returns the per-relation global type vector and the per-triple type
    triple (head ‖ projected relation ‖ tail), where the relation part sums
    the global vector with the local (head ‖ tail) type pair.
    """
    rel_type_global = global_relation(x_type, graph)
    xt_h = ad.take_rows(x_type, graph.heads)
    xt_t = ad.take_rows(x_type, graph.tails)
    local = ad.concat(xt_h, xt_t)
    rel_local = ad.take_rows(rel_type_global, graph.rels) + local
    projected = ad.matmul(rel_local, type_rel_w)
    return rel_type_global, ad.concat(xt_h, projected, xt_t)


def mutual_attention(sem, type_proj, rels, fwd_a, rev_a):
    """Cross-view attention between semantic and type triples per relation.

    The forward direction scores (semantic ‖ type) and aggregates semantic
    values; the reverse direction swaps the roles and aggregates type values.
    """
    sem_agg = ad.grouped_attention(sem, type_proj, sem, rels, fwd_a)
    type_agg = ad.grouped_attention(type_proj, sem, type_proj, rels, rev_a)
    return ad.relu(sem_agg), ad.relu(type_agg)


def fuse_type_enhanced(sem, sem_agg, type_proj, type_agg, rel_type_global, rels):
    """Sum the per-triple terms and append the relation-level type vector."""
    fused = (
        sem
        + ad.take_rows(type_agg, rels)
        + type_proj
        + ad.take_rows(sem_agg, rels)
    )
    return ad.concat(fused, ad.take_rows(rel_type_global, rels))


def triple_width(variant, d_r, d_t):
    return d_r if variant == "wo-T" else d_r + 2 * d_t


def encode_triples(x, graph, params, variant):
    """Full triple-encoding pass for one graph; variant selects ablations.

    Returns the per-triple representations, ``triple_width(variant, d_r,
    d_t)`` columns wide.
    """
    sem = semantic_triple(x, graph, params, with_attention=(variant != "wo-E"))
    if variant == "wo-T":
        return sem

    x_type = type_projection(x, params["triple.type_w"], params["triple.type_b"])
    rel_type_global, type_spec = type_triple(x_type, graph, params["triple.type_rel_w"])
    type_proj = ad.matmul(type_spec, params["triple.type_key_w"])
    sem_agg, type_agg = mutual_attention(
        sem, type_proj, graph.rels, params["triple.mutual_fwd_a"], params["triple.mutual_rev_a"]
    )
    return fuse_type_enhanced(sem, sem_agg, type_proj, type_agg, rel_type_global, graph.rels)
