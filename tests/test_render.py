import re
from fractions import Fraction

import numpy as np
import pytest

from reserveplan import CountsGrid, ReserveSolution, similarity
from reserveplan.render import (
    PRESERVED_COLOR,
    UNPRESERVED_COLOR,
    Panel,
    caption_text,
    render_grid,
)


def grid(n, species, seed=0) -> CountsGrid:
    rng = np.random.default_rng(seed)
    return CountsGrid(rng.integers(0, 9, size=(species, n, n)))


def solution(bits) -> ReserveSolution:
    x = np.asarray(bits)
    return ReserveSolution(x=x, objective=Fraction(int(x.sum())), spent=int(x.sum()))


def cell_fills(svg: str) -> list[str]:
    return re.findall(r'<rect[^>]*width="46\.0"[^>]*fill="(#\w+)"', svg)


def annotation_texts(svg: str) -> list[str]:
    texts = re.findall(r'font-size="(?:8\.5|9|12|17)"[^>]*>([^<]*)</text>', svg)
    return texts


class TestRenderGrid:
    def test_all_protected_is_all_green(self):
        g = grid(3, 1)
        svg = render_grid((Panel("a", g, solution([1] * 9)),))
        fills = cell_fills(svg)
        assert len(fills) == 9
        assert set(fills) == {PRESERVED_COLOR}

    def test_single_unprotected_cell_with_label(self):
        g = CountsGrid(np.array([[[7]]]))
        svg = render_grid((Panel("solo", g, solution([0])),))
        fills = cell_fills(svg)
        assert fills == [UNPRESERVED_COLOR]
        assert ">7</text>" in svg

    def test_label_escapes_markup_but_not_quotes(self):
        # the escaping of xml.sax.saxutils.escape: &, < and > only
        svg = render_grid((Panel("""a<b>&"c'""", CountsGrid(np.array([[[7]]])), solution([0])),))
        assert """>a&lt;b&gt;&amp;"c'</text>""" in svg

    def test_two_species_pair_layout(self):
        a, b = grid(10, 2, seed=1), grid(10, 2, seed=2)
        sol_a = solution([1] * 55 + [0] * 45)
        sol_b = solution([0] * 45 + [1] * 55)
        svg = render_grid((Panel("left", a, sol_a), Panel("right", b, sol_b)))
        fills = cell_fills(svg)
        assert len(fills) == 200  # two panels of 100 cells
        assert fills.count(PRESERVED_COLOR) == 110
        assert fills.count(UNPRESERVED_COLOR) == 90
        assert len(annotation_texts(svg)) == 2 * 2 * 100  # two slots per cell

    def test_caption_matches_recomputed_similarity(self):
        a, b = grid(4, 2, seed=3), grid(4, 2, seed=4)
        sol_a = solution([1, 0] * 8)
        sol_b = solution([1, 1, 0, 0] * 4)
        panels = (Panel("m1", a, sol_a), Panel("m2", b, sol_b))
        caption = caption_text(panels)
        expected = similarity(sol_a, sol_b)
        assert caption == f"{expected}/16 parcels share the same protection status"
        assert caption in render_grid(panels)

    def test_single_panel_has_no_caption(self):
        g = grid(2, 1)
        panels = (Panel("one", g, solution([1, 0, 0, 1])),)
        assert caption_text(panels) is None
        assert "protection status" not in render_grid(panels)

    def test_five_species_uses_five_slots(self):
        g = grid(2, 5)
        svg = render_grid((Panel("five", g, solution([1, 0, 1, 0])),))
        assert len(annotation_texts(svg)) == 5 * 4

    def test_unsupported_species_count_falls_back_to_joined_label(self):
        for species in (3, 6):
            g = grid(2, species)
            svg = render_grid((Panel("x", g, solution([0, 0, 1, 1])),))
            labels = annotation_texts(svg)
            assert len(labels) == 4  # one joined annotation per cell
            assert all(label.count(",") == species - 1 for label in labels)

    def test_byte_deterministic(self):
        a = grid(5, 2, seed=9)
        sol = solution([1, 0] * 12 + [1])
        panels = (Panel("p", a, sol),)
        assert render_grid(panels) == render_grid(panels)

    def test_svg_document_shape(self):
        g = grid(2, 1)
        svg = render_grid((Panel("d", g, solution([1, 1, 0, 0])),))
        assert svg.startswith('<?xml version="1.0"')
        assert '<svg xmlns="http://www.w3.org/2000/svg" version="1.1"' in svg
        assert svg.rstrip().endswith("</svg>")


class TestRenderSpecValidation:
    """What may be rendered: one or two panels of one grid size, each solution covering its grid."""

    def test_solution_length_must_match_grid(self):
        with pytest.raises(ValueError):
            Panel("bad", grid(2, 1), solution([1, 0]))

    def test_panel_count_bounds(self):
        g = grid(2, 1)
        panel = Panel("p", g, solution([1, 0, 0, 1]))
        for draw in (render_grid, caption_text):
            with pytest.raises(ValueError, match="^render one or two panels, got 0$"):
                draw(())
            with pytest.raises(ValueError, match="^render one or two panels, got 3$"):
                draw((panel, panel, panel))

    def test_mixed_grid_sizes_rejected(self):
        p1 = Panel("a", grid(2, 1), solution([1, 0, 0, 1]))
        p2 = Panel("b", grid(3, 1), solution([1] * 9))
        for draw in (render_grid, caption_text):
            with pytest.raises(ValueError, match="^panels must share the same grid size$"):
                draw((p1, p2))
