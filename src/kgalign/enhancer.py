"""Entity enhancement from triple representations.

Entities are updated residually from the triples they head or tail, with
softmax attention per entity; head and tail updates alternate in a short
cycle whose order is configurable. A final single attention layer over
undirected graph neighbors doubles the embedding width.
"""

import numpy as np

from . import autodiff as ad

CYCLE_STEPS = {1: "ht", 2: "hth", 3: "htht"}


def init_enhancer_params(rng, d_e, triple_width):
    return {
        "enhance.head_w": ad.glorot(rng, triple_width, d_e),
        "enhance.head_a": ad.uniform_vec(rng, (2 * d_e, 1)),
        "enhance.tail_w": ad.glorot(rng, triple_width, d_e),
        "enhance.tail_a": ad.uniform_vec(rng, (2 * d_e, 1)),
        "enhance.neighbor_a": ad.uniform_vec(rng, (2 * d_e, 1)),
    }


def attention_enhance(x, triple_repr, entity_ids, num_entities, proj_w, attn_vec, slope=0.3):
    """Residual update of entities from the triples grouped on them.

    Entities outside ``entity_ids`` receive a zero aggregate and come back
    bitwise unchanged.
    """
    proj = ad.matmul(triple_repr, proj_w)
    logits = ad.reshape(
        ad.matmul(ad.concat(proj, ad.take_rows(x, entity_ids)), attn_vec), (-1,)
    )
    weights = ad.segment_softmax(ad.leaky_relu(logits, slope), entity_ids)
    agg = ad.segment_sum(ad.reshape(weights, (-1, 1)) * proj, entity_ids, num_entities)
    return x + ad.relu(agg)


def cycle_co_enhance(x, triple_repr, heads, tails, num_entities, params, mode=2, slope=0.3):
    """Alternate head/tail residual updates in the order given by ``mode``.

    The triple representation stays fixed for the whole cycle; each step's
    attention reads the embeddings produced by the previous step.
    """
    if mode not in CYCLE_STEPS:
        raise ValueError(f"cycle mode must be one of {sorted(CYCLE_STEPS)}, got {mode}")
    roles = {"h": ("head", heads), "t": ("tail", tails)}
    for step in CYCLE_STEPS[mode]:
        role, ids = roles[step]
        x = attention_enhance(
            x, triple_repr, ids, num_entities,
            params[f"enhance.{role}_w"], params[f"enhance.{role}_a"], slope,
        )
    return x


def neighbor_reaggregate(x, src, dst, num_entities, attn_vec, slope=0.3):
    """Attention over each entity's neighborhood, concatenated onto the entity.

    Output width is twice the input width; entities with no neighbors get a
    zero aggregate block.
    """
    if len(src) == 0:
        return ad.concat(x, ad.Tensor(np.zeros_like(x.data)))
    x_center = ad.take_rows(x, src)
    x_neighbor = ad.take_rows(x, dst)
    logits = ad.reshape(ad.matmul(ad.concat(x_center, x_neighbor), attn_vec), (-1,))
    weights = ad.segment_softmax(ad.leaky_relu(logits, slope), src)
    agg = ad.relu(
        ad.segment_sum(ad.reshape(weights, (-1, 1)) * x_neighbor, src, num_entities)
    )
    return ad.concat(x, agg)


def enhance_entities(x, triple_repr, graph, params, mode=2, slope=0.3, skip_cycle=False):
    """Cycle co-enhancement (unless skipped) followed by neighbor re-aggregation.

    ``graph`` is a ``kg.GraphStructure``: its base triples drive the cycle and
    its neighbor arrays the re-aggregation.
    """
    n = graph.num_entities
    if not skip_cycle:
        trips = graph.base.triples
        x = cycle_co_enhance(x, triple_repr, trips[:, 0], trips[:, 2], n, params, mode, slope)
    return neighbor_reaggregate(
        x, graph.neighbor_src, graph.neighbor_dst, n, params["enhance.neighbor_a"], slope
    )
