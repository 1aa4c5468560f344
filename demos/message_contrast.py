"""Why pair-conditioned message transforms matter.

A source node in one fixed state sends messages to two targets in different
states.  The pair-conditioned transform produces a different message per
target; a single shared transformation matrix cannot — every receiver gets
the same vector regardless of its own state.  The second half shows the
per-target messages arriving in a small graph update.
"""

import numpy as np

from sgg.autodiff import Tensor
from sgg.config import Dims, ModelConfig
from sgg.message_passing import build_message_graph, init_ttst_params, run_message_passing

DIMS = Dims(n_classes=4, n_predicates=3, d_obj=6, d_emb=4, d_union=6, d_rel=6,
            d_pe=4, mask_res=12, conv1_channels=2, conv2_channels=2)
rng = np.random.default_rng(5)


def mlp(block, v):
    h = np.maximum(v @ block.l1.w.data + block.l1.b.data, 0.0)
    return np.maximum(h @ block.l2.w.data + block.l2.b.data, 0.0)


params = init_ttst_params(DIMS, rng, use_language=False)
source = rng.normal(size=DIMS.d_obj)
target_a = rng.normal(size=DIMS.d_obj)
target_b = rng.normal(size=DIMS.d_obj)

msg_a = mlp(params.obj_to_obj, np.concatenate([target_a, source]))
msg_b = mlp(params.obj_to_obj, np.concatenate([target_b, source]))
print("pair-conditioned message to A:", np.round(msg_a, 3))
print("pair-conditioned message to B:", np.round(msg_b, 3))
print("max difference:", f"{np.max(np.abs(msg_a - msg_b)):.4f}  (> 0)")

shared_w = rng.normal(size=(DIMS.d_obj, DIMS.d_obj))
shared = source @ shared_w
print("\nshared-matrix message is the same for every receiver:",
      np.round(shared, 3))

# the same contrast inside a full sweep on a 3-node star (0 -> 1, 0 -> 2):
# the sweep applies residual + relu around the incoming messages, and the
# object-to-object messages are exactly the per-target vectors shown above
x = np.stack([source, target_a, target_b])
edges = [(0, 1), (0, 2)]
g = build_message_graph(Tensor(x), Tensor(np.zeros((3, DIMS.d_emb))),
                        Tensor(np.zeros((len(edges), DIMS.d_rel))), edges, 3)
cfg = ModelConfig(dims=DIMS, iterations=1, use_language=False,
                  directions=frozenset({"oo"}))
out = run_message_passing(g, params, cfg)
np.testing.assert_allclose(out.x_obj.data[1],
                           np.maximum(x[1] + msg_a, 0.0), atol=1e-12)
np.testing.assert_allclose(out.x_obj.data[2],
                           np.maximum(x[2] + msg_b, 0.0), atol=1e-12)
print("\nfull sweep confirms: node 1 received the A-message, node 2 the "
      "B-message\n(update = relu(state + message), checked to 1e-12)")
