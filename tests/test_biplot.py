"""Biplot axis construction and rendering tests."""
import xml.etree.ElementTree as ET

import pytest
from conftest import read_biplot_csv, reference_factor_axis

import ordfactor as of
from ordfactor import FormalContext, GeneratorSpec, IncidencePair


def _tiny():
    return FormalContext(("g1", "g2", "g3"), ("a", "b", "c"), (0, 0b110, 0b100))


def test_factor_axis_groups_by_extent():
    axis = of.factor_axis(_tiny(), [(1, 1), (1, 2), (2, 2)])
    assert axis.groups == ((2,), (1,))
    assert axis.labels == ("c", "b")
    assert axis.positions == (0, 2, 1)
    assert len(axis.groups) == 2


def test_factor_axis_merges_equal_extents():
    ctx = FormalContext(("g1", "g2"), ("a", "b"), (0b11, 0b11))
    axis = of.factor_axis(ctx, ctx.pairs())
    assert axis.groups == ((0, 1),)
    assert axis.labels == ("a,b",)
    assert axis.positions == (1, 1)


def test_factor_axis_rejects_non_staircase():
    ctx = FormalContext(("g1", "g2"), ("a", "b"), (0b01, 0b10))
    with pytest.raises(of.NotFerrers):
        of.factor_axis(ctx, ctx.pairs())


def test_factor_axis_rejects_foreign_pairs():
    with pytest.raises(of.PairNotIncident):
        of.factor_axis(_tiny(), [(0, 0)])


def test_factor_axis_rejects_pairs_outside_the_context():
    for pair in ((99, 0), (0, 99)):
        with pytest.raises(of.IndexOutOfRange):
            of.factor_axis(_tiny(), [pair])


def test_factor_axis_empty_factor():
    axis = of.factor_axis(_tiny(), [])
    assert axis.groups == ()
    assert axis.positions == (0, 0, 0)
    assert len(axis.groups) == 0


def test_group_support_strictly_shrinks(monuments):
    result = of.maximal_two_factorization(monuments, mode="exact")
    for axis in of.biplot_axes(monuments, result):
        supports = [
            sum(1 for p in axis.positions if p > i) for i in range(len(axis.groups))
        ]
        assert all(s > 0 for s in supports)
        assert supports == sorted(supports, reverse=True)
        assert len(set(supports)) == len(supports)


def test_reconstruct_round_trip_on_fixtures(
    monuments, forced_overlap, contranominal3
):
    maximal = of.maximal_two_factorization(monuments, mode="exact")
    assert of.reconstruct(of.biplot_axes(monuments, maximal)) == maximal.covered
    for ctx in (forced_overlap, contranominal3):
        result = of.two_factorize(ctx)
        axes = of.biplot_axes(ctx, result)
        assert of.reconstruct(axes) == frozenset(ctx.pairs())


def _staircases_and_repairs():
    for seed in range(25):
        spec = GeneratorSpec(objects=6, attributes=5, density=0.5, seed=seed)
        ctx = of.random_two_factorizable_context(spec)
        yield ctx, of.two_factorize(ctx)
    for seed in range(10):
        spec = GeneratorSpec(20, 14, 0.2 + 0.06 * seed, seed)
        ctx = of.random_two_factorizable_context(spec)
        yield ctx, of.two_factorize(ctx)
    for seed in range(15):
        ctx = of.random_context(GeneratorSpec(8, 7, 0.5, seed))
        yield ctx, of.maximal_two_factorization(ctx, "heuristic", seed=0)


def test_reconstruct_round_trip_on_random_staircases():
    """Staircase unions and heuristic repairs of random contexts: the
    axes give back the covered incidence, and each axis is the one the
    column-extent reference builds."""
    for ctx, result in _staircases_and_repairs():
        axes = of.biplot_axes(ctx, result)
        assert of.reconstruct(axes) == result.covered
        for axis, factor in zip(axes, (result.f1, result.f2)):
            assert axis == reference_factor_axis(ctx, factor.pairs)


def test_monuments_portico_coordinates(monuments):
    result = of.maximal_two_factorization(monuments, mode="exact")
    axes = of.biplot_axes(monuments, result)
    g = monuments.objects.index("Portico of Twelve Gods")
    assert axes[0].positions[g] == 3
    assert axes[0].labels[:3] == ("P", "M1", "GB1")
    assert axes[1].positions[g] == 1
    assert axes[1].labels[0] == "M1"


def test_csv_rendering(monuments):
    result = of.maximal_two_factorization(monuments, mode="exact")
    axes = of.biplot_axes(monuments, result)
    lines = of.render(axes, fmt="csv").splitlines()
    assert lines[0].startswith("#axis1: ")
    assert lines[1].startswith("#axis2: ")
    assert lines[2] == "object,x,y"
    assert len(lines) == 3 + monuments.n_objects
    assert "Portico of Twelve Gods,3,1" in lines
    for line in lines[3:]:
        name, x, y = line.rsplit(",", 2)
        assert x.isdigit() and y.isdigit()


def test_csv_quotes_names_containing_commas():
    ctx = FormalContext(("Athens, GA", "g2"), ("a",), (0b1, 0b1))
    axes = of.biplot_axes(ctx, of.two_factorize(ctx))
    lines = of.render(axes, fmt="csv").splitlines()
    assert any(line.startswith('"Athens, GA",') for line in lines)


def test_csv_rows_read_back_with_the_csv_module():
    """Quotes, commas and line breaks in names survive ``csv.reader``;
    line breaks in labels stay inside their one comment line."""
    objects = ('e"f,g', "a\rb", "c\nd", '"', "plain")
    ctx = FormalContext(objects, ("x\ny", "z\r"), (0b11,) * 5)
    axes = of.biplot_axes(ctx, of.two_factorize(ctx))
    text = of.render(axes, fmt="csv")
    assert text.splitlines()[0] == r"#axis1: x\ny,z\r"
    assert read_biplot_csv(text) == [
        (name, axes[0].positions[g], axes[1].positions[g])
        for g, name in enumerate(objects)
    ]


def test_csv_quotes_names_starting_with_a_comment_mark():
    """A reader that skips the ``#axis`` comment lines keeps every row."""
    objects = ("#axis1: x", "#", "b")
    ctx = FormalContext(objects, ("a",), (0b1,) * 3)
    axes = of.biplot_axes(ctx, of.two_factorize(ctx))
    text = of.render(axes, fmt="csv")
    assert not any(line.startswith("#") for line in text.splitlines()[2:])
    assert [name for name, _, _ in read_biplot_csv(text)] == list(objects)


def test_svg_has_one_marker_per_object(monuments):
    result = of.maximal_two_factorization(monuments, mode="exact")
    axes = of.biplot_axes(monuments, result)
    root = ET.fromstring(of.render(axes, fmt="svg", title="Roman monuments"))
    assert root.tag.endswith("svg")
    ns = {"s": "http://www.w3.org/2000/svg"}
    circles = root.findall("s:circle", ns)
    assert len(circles) == monuments.n_objects
    texts = [t.text for t in root.findall("s:text", ns)]
    assert "Roman monuments" in texts
    for name in monuments.objects:
        assert name in texts


def test_svg_jitters_co_located_markers():
    ctx = FormalContext(("g1", "g2"), ("a",), (0b1, 0b1))
    axes = of.biplot_axes(ctx, of.two_factorize(ctx))
    root = ET.fromstring(of.render(axes, fmt="svg"))
    ns = {"s": "http://www.w3.org/2000/svg"}
    centers = {
        (c.get("cx"), c.get("cy")) for c in root.findall("s:circle", ns)
    }
    assert len(centers) == 2


def test_csv_never_jitters():
    ctx = FormalContext(("g1", "g2"), ("a",), (0b1, 0b1))
    axes = of.biplot_axes(ctx, of.two_factorize(ctx))
    lines = of.render(axes, fmt="csv").splitlines()
    assert lines[3:] == ["g1,1,0", "g2,1,0"] or lines[3:] == ["g1,1,1", "g2,1,1"]


def test_tikz_rendering(monuments):
    result = of.maximal_two_factorization(monuments, mode="exact")
    axes = of.biplot_axes(monuments, result)
    text = of.render(axes, fmt="tikz", title="100% & more_")
    assert text.startswith(r"\documentclass")
    assert r"\begin{tikzpicture}" in text
    assert text.endswith("\\end{document}\n")
    assert r"100\% \& more\_" in text
    assert text.count(r"\fill") == monuments.n_objects


def test_tikz_escapes_caret_and_tilde():
    ctx = FormalContext(("a^b", "c~d"), ("^~",), (0b1, 0b1))
    axes = of.biplot_axes(ctx, of.two_factorize(ctx))
    text = of.render(axes, fmt="tikz", title="x^2 ~ y")
    assert r"a\textasciicircum{}b" in text
    assert r"c\textasciitilde{}d" in text
    assert r"x\textasciicircum{}2 \textasciitilde{} y" in text
    assert "^" not in text and "~" not in text


@pytest.mark.parametrize(
    "objects, attributes, title",
    [
        (("a\x01", "b"), ("x",), None),
        (("a", "b"), ("x\x1f",), None),
        (("a", "b"), ("x",), "t\ufffe"),
    ],
    ids=["object", "attribute", "title"],
)
def test_svg_refuses_characters_that_xml_forbids(objects, attributes, title):
    ctx = FormalContext(objects, attributes, (0b1, 0b1))
    axes = of.biplot_axes(ctx, of.two_factorize(ctx))
    with pytest.raises(of.MalformedHeader):
        of.render(axes, fmt="svg", title=title)


def test_svg_keeps_tabs_and_line_breaks_well_formed():
    ctx = FormalContext(("a\tb", "c\r\nd"), ("<&>",), (0b1, 0b1))
    axes = of.biplot_axes(ctx, of.two_factorize(ctx))
    root = ET.fromstring(of.render(axes, fmt="svg", title="\U0001f600"))
    assert root.tag.endswith("svg")


def test_render_rejects_unknown_format(contranominal3):
    axes = of.biplot_axes(contranominal3, of.two_factorize(contranominal3))
    with pytest.raises(of.UnsupportedFormat):
        of.render(axes, fmt="png")


def test_render_rejects_mismatched_axes(contranominal3):
    axes = of.biplot_axes(contranominal3, of.two_factorize(contranominal3))
    other_ctx = FormalContext(("x", "y"), ("a",), (0b1, 0b1))
    other = of.biplot_axes(other_ctx, of.two_factorize(other_ctx))
    with pytest.raises(ValueError):
        of.render((axes[0], other[1]))


def test_render_is_deterministic(forced_overlap):
    axes = of.biplot_axes(forced_overlap, of.two_factorize(forced_overlap))
    for fmt in ("csv", "svg", "tikz"):
        assert of.render(axes, fmt=fmt) == of.render(axes, fmt=fmt)


def test_axis_gains_no_steps_from_shared_pairs(forced_overlap):
    result = of.two_factorize(forced_overlap)
    axes = of.biplot_axes(forced_overlap, result)
    shared = frozenset(result.shared)
    assert shared
    assert shared <= frozenset(result.f1.pairs)
    assert shared <= frozenset(result.f2.pairs)
    rebuilt = of.factor_axis(forced_overlap, frozenset(result.f1.pairs))
    assert rebuilt == axes[0]
