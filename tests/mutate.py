"""Mutations of JSON inputs (config files, request streams) for fuzz tests.

Byte-level: flip, truncate or insert bytes. Value-level: replace one leaf
of a JSON document with a hostile value, or add an unknown key.
"""

import json

from hypothesis import strategies as st

HOSTILE_VALUES = [
    float("inf"),
    float("-inf"),
    float("nan"),
    10**400,
    -(10**30),
    0,
    -1,
    2.5,
    1e308,
    "7",
    "a.ftz::\u0000",
    None,
    True,
    [],
    [[1.0], [2.0, 3.0]],
    {"x": 1},
]

byte_ops = st.tuples(
    st.sampled_from(["flip", "truncate", "insert"]),
    st.floats(0.0, 1.0, exclude_max=True),
    st.binary(min_size=1, max_size=2),
)


def mutate_bytes(data: bytes, op: str, where: float, patch: bytes) -> bytes:
    body = bytearray(data)
    at = int(where * len(body))
    if op == "flip":
        body[at : at + len(patch)] = bytes(b ^ (d or 1) for b, d in zip(body[at : at + len(patch)], patch))
    elif op == "truncate":
        del body[at:]
    else:
        body[at:at] = patch
    return bytes(body)


def leaf_paths(body, prefix=()):
    """Key paths of every non-container value in a JSON object tree."""
    if isinstance(body, dict):
        for key, value in body.items():
            yield from leaf_paths(value, prefix + (key,))
    else:
        yield prefix


def substitute(body, path, value):
    """A copy of `body` with the leaf at `path` replaced by `value`
    (JSON-encoded with NaN/Infinity literals)."""
    body = json.loads(json.dumps(body))
    node = body
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(body)
