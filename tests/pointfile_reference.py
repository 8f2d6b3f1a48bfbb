"""Per-token digit reading for point files, for tests.

The reading `pointfile._digit_values` replaced: each comma-separated
number is checked with str.isdecimal and converted with int, one token at
a time.  Values are capped at the base; -1 marks a token that is not a
decimal number.
"""

import numpy as np


def digit_values_reference(fields, base):
    tokens = fields if base <= 10 else [f.split(",") for f in fields]
    counts = np.fromiter(map(len, tokens), dtype=np.int64, count=len(fields))
    if base <= 10:
        text = "".join(fields).encode("ascii", "replace")
        values = np.frombuffer(text, dtype=np.uint8).astype(np.int16) - ord("0")
        values[(values < 0) | (values > 9)] = -1
    else:
        values = np.array([min(int(t), base) if t.isdecimal() else -1 for ts in tokens for t in ts])
    return values, counts
