"""Text helpers: identifier splitting, edit distance, run-name slugs."""

from repro.util.text import best_match, levenshtein, normalize_ws, slug, snake_words


class TestNormalizeWs:
    def test_collapses_runs(self):
        assert normalize_ws("a   b\n\tc") == "a b c"

    def test_strips_ends(self):
        assert normalize_ws("  x  ") == "x"


class TestSlug:
    def test_question_becomes_a_short_name(self):
        assert slug("How many halos are there?") == "how_many_halos_are_there"
        assert len(slug("x" * 100)) == 24

    def test_text_without_letters_or_digits_is_q(self):
        # one-shot session dirs once ended in a bare "query_001_" for this
        assert slug("???") == "q"


class TestSnakeWords:
    def test_plain_snake(self):
        assert snake_words("fof_halo_count") == ["fof", "halo", "count"]

    def test_mixed_case(self):
        words = snake_words("sod_halo_MGas500c")
        assert "sod" in words and "halo" in words

    def test_empty_segments_ignored(self):
        assert snake_words("a__b") == ["a", "b"]

    def test_camel_case(self):
        assert snake_words("haloCount") == ["halo", "count"]


class TestLevenshtein:
    def test_identity(self):
        assert levenshtein("halo", "halo") == 0

    def test_single_edit(self):
        assert levenshtein("halo", "halos") == 1
        assert levenshtein("halo", "hale") == 1

    def test_empty(self):
        assert levenshtein("", "abc") == 3
        assert levenshtein("abc", "") == 3

    def test_symmetry(self):
        assert levenshtein("center_x", "fof_halo_center_x") == levenshtein(
            "fof_halo_center_x", "center_x"
        )

    def test_paper_example_distance(self):
        # center_x vs fof_halo_center_x: prefix of 9 chars
        assert levenshtein("center_x", "fof_halo_center_x") == 9


class TestBestMatch:
    def test_finds_nearest(self):
        cols = ["fof_halo_center_x", "fof_halo_center_y", "fof_halo_count"]
        match, dist = best_match("center_x", cols)
        assert match == "fof_halo_center_x"
        assert dist == 9

    def test_empty_haystack(self):
        match, dist = best_match("x", [])
        assert match is None
