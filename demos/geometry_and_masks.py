"""Boxes, spatial categories, and the dual-channel masks fed to the conv path.

Places a few box pairs by hand, names the spatial relation the generator
assigns to each, and renders the rasterized subject/object mask channels as
ascii art so the conv input is easy to picture.
"""

import numpy as np

from sgg.relation_features import expand_masks, rasterize_mask
from sgg.scenes import Box, iou, union_frame
from sgg.synthetic import SPATIAL_NAMES, spatial_relation

PAIRS = [
    ("stacked",      Box(40, 10, 30, 20), Box(40, 60, 30, 20)),
    ("side by side", Box(10, 40, 25, 25), Box(70, 40, 25, 25)),
    ("overlapping",  Box(20, 20, 40, 40), Box(45, 45, 40, 40)),
    ("nested",       Box(10, 10, 80, 80), Box(35, 35, 20, 20)),
]


def ascii_mask(channel: np.ndarray) -> str:
    return "\n".join("".join("#" if v else "." for v in row) for row in channel)


for name, sub, obj in PAIRS:
    rel = SPATIAL_NAMES[spatial_relation(sub, obj)]
    frame = union_frame([sub.as_list()], [obj.as_list()])[0]
    union_w, union_h = sub.w / frame[0, 2], sub.h / frame[0, 3]  # w / (w / uw) = uw
    print(f"--- {name}: subject is '{rel}' the object "
          f"(iou {iou(sub, obj):.2f}, union {union_w:.0f}x{union_h:.0f})")
    masks = expand_masks(rasterize_mask([sub.as_list()], [obj.as_list()], resolution=12))[0]
    rows = [a + "   " + b for a, b in zip(ascii_mask(masks[0]).splitlines(),
                                          ascii_mask(masks[1]).splitlines())]
    print("subject channel | object channel")
    print("\n".join(rows))
    print()

# a reversed pair flips directional categories but not symmetric ones
a, b = Box(0, 0, 10, 10), Box(0, 30, 10, 10)
print("a vs b:", SPATIAL_NAMES[spatial_relation(a, b)],
      "| b vs a:", SPATIAL_NAMES[spatial_relation(b, a)])
