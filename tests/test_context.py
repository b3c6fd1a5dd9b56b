"""Context model, .cxt parsing and serialization, derivation operators."""
import json
import random
import re

import pytest

import ordfactor as of
from ordfactor.context import FormalContext, IncidencePair
from ordfactor.oracle import GeneratorSpec, random_context


def test_monuments_shape(monuments):
    assert monuments.n_objects == 14
    assert monuments.n_attributes == 7
    assert monuments.incidence_count == 44
    assert monuments.attributes == ("B", "GB1", "GB2", "M1", "M2", "M3", "P")


def test_first_monuments_row_parsed_positionally(monuments):
    row = monuments.row_string(0)
    assert monuments.objects[0] == "Arch of Septimus Severus"
    assert row == "XX.XX.X"
    have = {monuments.attributes[m] for m in range(7) if monuments.has(0, m)}
    assert have == {"B", "GB1", "M1", "M2", "P"}


def test_empty_context_parses():
    ctx = of.parse_cxt("B\n\n0\n0\n\n")
    assert ctx.n_objects == 0
    assert ctx.n_attributes == 0
    assert ctx.incidence_count == 0


def test_fixture_files_round_trip_byte_identically():
    from importlib import resources

    for name in of.available_datasets():
        text = (
            resources.files("ordfactor")
            .joinpath("data", name + ".cxt")
            .read_text(encoding="utf-8")
        )
        assert of.serialize_cxt(of.parse_cxt(text)) == text


def test_serialize_parse_round_trip_on_random_contexts():
    for seed in range(40):
        spec = GeneratorSpec(
            objects=seed % 6,
            attributes=(seed // 6) % 6,
            density=0.1 * (seed % 10),
            seed=seed,
        )
        ctx = random_context(spec)
        assert of.parse_cxt(of.serialize_cxt(ctx)) == ctx


def test_title_preserved_and_optional():
    titled = of.parse_cxt("B\nsome title\n1\n1\n\ng\nm\nX\n")
    assert titled.title == "some title"
    assert of.serialize_cxt(titled).splitlines()[1] == "some title"
    untitled = of.parse_cxt("B\n1\n1\n\ng\nm\nX\n")
    assert untitled.title is None
    assert of.serialize_cxt(untitled).splitlines()[1] == "1"


def _json_context(objects=("g",), attributes=("m",), title=None):
    payload = {
        "objects": list(objects),
        "attributes": list(attributes),
        "rows": ["X" * len(attributes)] * len(objects),
        "title": title,
    }
    return of.context_from_json(json.dumps(payload))


@pytest.mark.parametrize(
    "fields",
    [
        {"objects": (" a",)},
        {"objects": ("a ",)},
        {"attributes": ("\tm",)},
        {"objects": ("   ",)},
        {"objects": ("",)},
        {"objects": ("a\nb",)},
        {"attributes": ("m\rn",)},
        {"title": "7"},
        {"title": " 12 "},
        {"title": "two\nlines"},
        {"title": "trailing  "},
    ],
)
def test_serialize_refuses_what_parse_would_read_back_differently(fields):
    """JSON input accepts these names and titles, but written as .cxt
    they would come back changed or not parse at all."""
    ctx = _json_context(**fields)
    with pytest.raises(of.MalformedHeader):
        of.serialize_cxt(ctx)


@pytest.mark.parametrize("title", ["", " leading", "x  y", "B", "²", "7a"])
def test_serialize_keeps_unusual_titles_that_round_trip(title):
    ctx = _json_context(objects=("g h",), attributes=("a, b",), title=title)
    again = of.parse_cxt(of.serialize_cxt(ctx))
    assert again == ctx
    assert again.title == title


def test_superscript_digits_are_no_count():
    assert of.parse_cxt("B\n²\n1\n1\n\ng\nm\nX\n").title == "²"
    with pytest.raises(of.MalformedHeader):
        of.parse_cxt("B\n²\n1\n\ng\nm\nX\n")


def test_parse_errors():
    with pytest.raises(of.MalformedHeader):
        of.parse_cxt("A\n1\n1\n\ng\nm\nX\n")
    with pytest.raises(of.MalformedHeader):
        of.parse_cxt("B\ntitle\nnot-a-count\n1\n")
    with pytest.raises(of.CountMismatch):
        of.parse_cxt("B\n2\n1\n\ng\nh\nm\nX\n")
    with pytest.raises(of.CountMismatch):
        of.parse_cxt("B\n1\n2\n\ng\nm\nn\nX\n")
    with pytest.raises(of.IllegalCharacter):
        of.parse_cxt("B\n1\n1\n\ng\nm\n?\n")
    with pytest.raises(of.DuplicateName):
        of.parse_cxt("B\n2\n1\n\ng\ng\nm\nX\nX\n")
    with pytest.raises(of.CountMismatch):
        of.parse_cxt("B\n1\n1\n\ng\nm\nX\ntrailing\n")


def test_blank_lines_between_sections_tolerated():
    ctx = of.parse_cxt("B\n\n2\n2\n\ng\nh\n\nm\nn\n\nX.\n.X\n")
    assert ctx.objects == ("g", "h")
    assert ctx.rows == (1, 2)


def test_duplicate_names_rejected_at_construction():
    with pytest.raises(of.DuplicateName):
        FormalContext(("g", "g"), ("m",), (0, 0))
    with pytest.raises(of.DuplicateName):
        FormalContext(("g",), ("m", "m"), (0,))


def test_row_count_and_width_validated():
    with pytest.raises(of.CountMismatch):
        FormalContext(("g", "h"), ("m",), (0,))
    with pytest.raises(of.CountMismatch):
        FormalContext(("g",), ("m",), (2,))


@pytest.mark.parametrize(
    "objects, attributes, rows",
    [((), (), ()), (("g", "h"), (), (0, 0)), ((), ("m", "n"), ())],
)
def test_zero_objects_or_attributes_write_and_read_back(objects, attributes, rows):
    ctx = FormalContext(objects, attributes, rows)
    assert [ctx.row_string(g) for g in range(ctx.n_objects)] == [""] * len(objects)
    text = of.serialize_cxt(ctx)
    assert text == "\n".join(
        ["B", str(len(objects)), str(len(attributes)), "", *objects, *attributes]
    ) + "\n"
    assert of.parse_cxt(text) == ctx
    payload = json.loads(of.context_to_json(ctx))
    assert payload["rows"] == [""] * len(objects)
    assert of.context_from_json(of.context_to_json(ctx)) == ctx
    assert FormalContext.from_strings(objects, attributes, [""] * len(objects)) == ctx


def test_a_row_reports_its_first_illegal_cell():
    with pytest.raises(of.IllegalCharacter, match="illegal cell character '\\?'"):
        FormalContext.from_strings("g", "abcde", ["X?_!."])
    with pytest.raises(of.IllegalCharacter, match="illegal cell character '\\?'"):
        of.parse_cxt("B\n1\n5\n\ng\na\nb\nc\nd\ne\nX?_!.\n")
    # rows are checked in order, each first for its length
    with pytest.raises(of.IllegalCharacter, match="'!'"):
        FormalContext.from_strings("gh", "ab", ["!?", "X"])
    with pytest.raises(of.CountMismatch):
        FormalContext.from_strings("gh", "ab", ["X", "!?"])


@pytest.mark.parametrize("cell", ["_", " ", "\t", "²", "٣", "0", "1", "-", "+"])
def test_cells_that_int_would_read_are_illegal(cell):
    row = "X" + cell + "."
    message = re.escape(f"illegal cell character {cell!r}")
    with pytest.raises(of.IllegalCharacter, match=message):
        FormalContext.from_strings("g", "abc", [row])
    with pytest.raises(of.IllegalCharacter):
        of.context_from_json(
            json.dumps({"objects": ["g"], "attributes": list("abc"), "rows": [row]})
        )


def test_a_row_past_the_digit_limit_parses():
    # base 2 is exempt from the 4,300-digit limit of int()
    width = 5000
    row = "".join("X.x"[j % 3] for j in range(width))
    attributes = [f"m{j}" for j in range(width)]
    ctx = FormalContext.from_strings(["g"], attributes, [row])
    assert ctx.rows == (sum(1 << j for j in range(width) if j % 3 != 1),)
    assert ctx.row_string(0) == row.upper()
    assert of.parse_cxt(of.serialize_cxt(ctx)) == ctx


def _cell_loop(text):
    """The row reader as it was: one cell at a time."""
    mask = 0
    for j, cell in enumerate(text):
        if cell in "Xx":
            mask |= 1 << j
        elif cell != ".":
            return f"illegal cell character {cell!r}"
    return mask


def test_rows_match_the_cell_loop_on_seeded_strings():
    rng = random.Random(35)
    for _ in range(500):
        width = rng.randrange(70)
        text = "".join(rng.choice("X.x" * 20 + "?_ ²01") for _ in range(width))
        expected = _cell_loop(text)
        attributes = [f"m{j}" for j in range(width)]
        if isinstance(expected, str):
            with pytest.raises(of.IllegalCharacter) as info:
                FormalContext.from_strings(["g"], attributes, [text])
            assert str(info.value) == expected
            continue
        ctx = FormalContext.from_strings(["g"], attributes, [text])
        assert ctx.rows == (expected,)
        assert ctx.row_string(0) == "".join(
            "X" if expected >> m & 1 else "." for m in range(width)
        )


def test_derive_monuments_examples(monuments):
    castor = monuments.objects.index("Temple of Castor and Pollux")
    assert of.derive(monuments, "objects", [castor]) == frozenset(range(7))
    m1 = monuments.attributes.index("M1")
    holders = of.derive(monuments, "attributes", [m1])
    assert len(holders) == 11
    missing = {monuments.objects[g] for g in set(range(14)) - set(holders)}
    assert missing == {
        "Basilica of Maxentius",
        "Curia",
        "Temple of Romulus",
    }


def test_derive_empty_subset_gives_full_other_side(monuments):
    assert of.derive(monuments, "objects", []) == frozenset(range(7))
    assert of.derive(monuments, "attributes", []) == frozenset(range(14))


def test_derive_errors(contranominal3):
    with pytest.raises(of.IndexOutOfRange):
        of.derive(contranominal3, "objects", [5])
    with pytest.raises(of.IndexOutOfRange):
        of.derive(contranominal3, "attributes", [-1])
    with pytest.raises(ValueError):
        of.derive(contranominal3, "rows", [0])
    # derive follows has's index rule: an int in range, a bool counting as one
    for side in ("objects", "attributes"):
        for index in (0.5, "0", None):
            with pytest.raises(of.IndexOutOfRange):
                of.derive(contranominal3, side, [index])
        assert of.derive(contranominal3, side, [True]) == of.derive(
            contranominal3, side, [1]
        )


def test_derivation_galois_properties():
    rng = random.Random(7)
    for seed in range(25):
        ctx = random_context(
            GeneratorSpec(objects=5, attributes=4, density=0.4, seed=seed)
        )
        a = frozenset(g for g in range(5) if rng.random() < 0.5)
        b = frozenset(g for g in range(5) if rng.random() < 0.5)
        prime = of.derive(ctx, "objects", a)
        double = of.derive(ctx, "attributes", prime)
        triple = of.derive(ctx, "objects", double)
        assert a <= double
        assert prime == triple
        if a <= b:
            assert of.derive(ctx, "objects", b) <= prime


def test_complement_involution_and_contranominal(contranominal3):
    comp = of.complement(contranominal3)
    assert of.complement(comp) == contranominal3
    assert sorted(comp.pairs()) == [(0, 0), (1, 1), (2, 2)]
    empty = FormalContext(("g", "h"), ("m", "n"), (0, 0))
    assert of.complement(empty).incidence_count == 4


def test_remove_incidences(monuments):
    romulus = monuments.objects.index("Temple of Romulus")
    maxentius = monuments.objects.index("Basilica of Maxentius")
    gb1 = monuments.attributes.index("GB1")
    b = monuments.attributes.index("B")
    smaller = of.remove_incidences(
        monuments, [(romulus, gb1), (maxentius, b)]
    )
    assert smaller.incidence_count == 42
    assert not smaller.has(romulus, gb1)
    assert of.remove_incidences(monuments, []) == monuments
    stripped = of.remove_incidences(monuments, monuments.pairs())
    assert stripped.incidence_count == 0
    with pytest.raises(of.PairNotIncident):
        of.remove_incidences(smaller, [(romulus, gb1)])


def test_remove_incidences_rejects_a_pair_named_twice(monuments):
    """The second copy is no incidence of the rows left by the first,
    though it is one of the context handed in."""
    pair = monuments.pairs()[0]
    with pytest.raises(of.PairNotIncident, match="is not an incidence"):
        of.remove_incidences(monuments, [pair, pair])


def test_out_of_range_pairs_and_unknown_datasets_rejected(monuments):
    with pytest.raises(of.IndexOutOfRange):
        of.remove_incidences(monuments, [(99, 0)])
    with pytest.raises(of.IndexOutOfRange):
        monuments.has(-1, 0)
    with pytest.raises(KeyError, match="unknown dataset"):
        of.load_dataset("nope")


def test_pairs_lexicographic(forced_overlap):
    pairs = forced_overlap.pairs()
    assert pairs == sorted(pairs)
    assert all(isinstance(p, IncidencePair) for p in pairs)
    assert len(pairs) == forced_overlap.incidence_count


def test_json_mirror_round_trip(monuments, contranominal3):
    for ctx in (monuments, contranominal3):
        again = of.context_from_json(of.context_to_json(ctx))
        assert again == ctx
        assert again.title == ctx.title
    payload = json.loads(of.context_to_json(contranominal3))
    assert payload["rows"] == [".XX", "X.X", "XX."]


def test_json_mirror_errors():
    with pytest.raises(of.MalformedHeader):
        of.context_from_json("not json")
    with pytest.raises(of.MalformedHeader):
        of.context_from_json('{"objects": ["g"]}')
    with pytest.raises(of.CountMismatch):
        of.context_from_json(
            '{"objects": ["g"], "attributes": ["m"], "rows": []}'
        )
