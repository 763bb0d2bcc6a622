"""Seeded generator of substitution rule files for the `analyze` workload.

Alphabet sizes cycle through 2, 3, 4, 5, so every batch holds the same number
of inputs of each size and the cost of a batch varies little from seed to
seed.  Each image has 1-4 letters drawn uniformly from the alphabet.  A draw
is kept only when the substitution is primitive and has a growing fixed
point (the preconditions of `subgf analyze`); nothing is rejected for being
slow to analyze.

The checks here are written independently of `subgf`, so the inputs do not
depend on the code under test.
"""
from __future__ import annotations

import random

LETTERS = "abcde"
SIZES = (2, 3, 4, 5)
IMAGE_LENGTHS = (1, 4)


def matrix(images: list[str]) -> list[list[int]]:
    """Row i counts the letters of image i; the alphabet is LETTERS[:k]."""
    alphabet = LETTERS[: len(images)]
    return [[image.count(b) for b in alphabet] for image in images]


def is_primitive(rows: list[list[int]]) -> bool:
    """Wielandt: a primitive k x k matrix has A**((k-1)**2 + 1) > 0, and a
    positive power stays positive."""
    k = len(rows)
    base = [sum(1 << j for j, e in enumerate(row) if e) for row in rows]
    cur = list(base)
    for _ in range((k - 1) ** 2):
        cur = [_reach(row, base) for row in cur]
    return all(row == (1 << k) - 1 for row in cur)


def _reach(row: int, base: list[int]) -> int:
    out = 0
    for j, mask in enumerate(base):
        if row >> j & 1:
            out |= mask
    return out


def has_growing_fixed_point(images: list[str]) -> bool:
    """Some letter a and power p with sigma**p(a) starting with a and of
    length >= 2.  For a primitive k x k matrix, p <= (k-1)**2 + 1 + k."""
    k = len(images)
    alphabet = LETTERS[:k]
    first = {a: img[0] for a, img in zip(alphabet, images)}
    heads = {a: a for a in alphabet}
    lengths = {a: 1 for a in alphabet}
    for _ in range((k - 1) ** 2 + 1 + k):
        heads = {a: first[heads[a]] for a in alphabet}
        lengths = {
            a: sum(lengths[b] for b in img) for a, img in zip(alphabet, images)
        }
        if any(heads[a] == a and lengths[a] >= 2 for a in alphabet):
            return True
    return False


def rule_text(images: list[str]) -> str:
    return "".join(f"{a} -> {img}\n" for a, img in zip(LETTERS, images))


def generate(seed: int, count: int) -> list[list[str]]:
    """`count` image lists; input i has an alphabet of SIZES[i % 4] letters."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        k = SIZES[len(out) % len(SIZES)]
        images = [
            "".join(rng.choice(LETTERS[:k]) for _ in range(rng.randint(*IMAGE_LENGTHS)))
            for _ in range(k)
        ]
        if is_primitive(matrix(images)) and has_growing_fixed_point(images):
            out.append(images)
    return out
