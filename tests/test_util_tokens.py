"""The approximate tokenizer."""

import pytest

from repro.util.tokens import count_tokens, tokenize


class TestTokenize:
    def test_empty(self):
        assert tokenize("") == []

    def test_single_short_word(self):
        assert tokenize("the") == ["the"]

    def test_long_word_split_into_pieces(self):
        pieces = tokenize("cosmological")
        assert len(pieces) == 3  # 12 chars / 4 per piece
        assert "".join(pieces) == "cosmological"

    def test_punctuation_is_separate(self):
        assert "," in tokenize("a, b")

    def test_digits_grouped_by_three(self):
        assert len(tokenize("123456")) == 2

    def test_underscore_identifiers(self):
        pieces = tokenize("fof_halo_count")
        assert "".join(pieces) == "fof_halo_count"

    def test_count_monotone_in_length(self):
        short = count_tokens("halo mass")
        long = count_tokens("halo mass " * 50)
        assert long > short

    def test_count_stable(self):
        text = "SELECT fof_halo_count FROM halos WHERE step = 624"
        assert count_tokens(text) == count_tokens(text)

    def test_prose_rate_reasonable(self):
        # English prose should land near 1.2-2 tokens per word
        text = "the quick brown fox jumps over the lazy dog " * 10
        ratio = count_tokens(text) / (10 * 9)
        assert 0.8 < ratio < 2.5

