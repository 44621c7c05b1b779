"""Shared test helpers."""

import pytest

# Tokens a text reader must reject or read cleanly wherever they land.
FUZZ_TOKENS = ("1e999", "-1e999", "NaN", "Infinity", "null", "[]", "{}", "((", "!!", ",", '"')


def mutate_text(rng, text: str) -> str:
    """One seeded corruption of text: a truncation, one to three character
    flips, an inserted token or a cut-out span."""
    kind = int(rng.integers(0, 4))
    at = int(rng.integers(0, len(text)))
    if kind == 0:
        return text[:at]
    if kind == 1:
        chars = list(text)
        for _ in range(int(rng.integers(1, 4))):
            chars[int(rng.integers(0, len(chars)))] = chr(int(rng.integers(32, 127)))
        return "".join(chars)
    if kind == 2:
        return text[:at] + FUZZ_TOKENS[int(rng.integers(0, len(FUZZ_TOKENS)))] + text[at:]
    return text[:at] + text[at + int(rng.integers(1, 24)) :]


@pytest.fixture
def text_mutator():
    return mutate_text
