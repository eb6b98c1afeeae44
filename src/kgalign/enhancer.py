"""Entity enhancement from triple representations.

Entities are updated residually from the triples they head or tail, with
softmax attention per entity; head and tail updates alternate in a short
cycle whose order is configurable. A final single attention layer over
undirected graph neighbors doubles the embedding width.
"""

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


def attention_enhance(x, triple_repr, seg, proj_w, attn_vec):
    """Residual update of entities from the triples grouped on them.

    Entities that no triple in ``seg`` (a graph's ``heads`` or ``tails``)
    names receive a zero aggregate and come back bitwise unchanged.
    """
    proj = ad.matmul(triple_repr, proj_w)
    agg = ad.grouped_attention(proj, (x, seg), proj, seg, attn_vec)
    return x + ad.relu(agg)


def cycle_co_enhance(x, triple_repr, graph, params, mode):
    """Alternate head/tail residual updates in the order given by ``mode``.

    The triple representation stays fixed for the whole cycle; each step's
    attention reads the embeddings produced by the previous step.
    """
    roles = {"h": ("head", graph.heads), "t": ("tail", graph.tails)}
    for step in CYCLE_STEPS[mode]:
        role, seg = roles[step]
        x = attention_enhance(
            x, triple_repr, seg, params[f"enhance.{role}_w"], params[f"enhance.{role}_a"]
        )
    return x


def neighbor_reaggregate(x, src, dst, attn_vec):
    """Attention over each entity's neighborhood, concatenated onto the entity.

    Output width is twice the input width; entities with no neighbors get a
    zero aggregate block.
    """
    neighbors = (x, dst)
    agg = ad.grouped_attention((x, src), neighbors, neighbors, src, attn_vec)
    return ad.concat(x, ad.relu(agg))

