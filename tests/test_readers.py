"""The .cxt and JSON readers against their earlier implementations, and
the malformed inputs that used to end in a traceback."""
import dataclasses
import json
import random
from importlib import resources

import pytest

import ordfactor as of
from ordfactor.oracle import GeneratorSpec, random_context

from conftest import (
    random_poset,
    reference_context_from_json,
    reference_parse_cxt,
    reference_poset_from_json,
)

# lines that, dropped anywhere into a .cxt text, hit every branch of the
# reader: headers, counts (also non-ASCII and superscript digits), names,
# rows in both cases, illegal cells and whitespace
_LINES = (
    "", " ", "\t", "B", " B ", "b", "0", "1", "2", "3", " 2 ", "²", "٣", "-1",
    "1.0", "X", "x", ".", "X.", ".x", "xX", "XX", "..", "X?", "X .", "g",
    "h", "m", "g h", "title", "Maxentius",
)
_CELLS = "X.x? 0B\t"
_TAILS = ("", "\n", "  \n\n", "extra\n", "x.\n")


def _fixture_texts():
    return [
        resources.files("ordfactor")
        .joinpath("data", name + ".cxt")
        .read_text(encoding="utf-8")
        for name in of.available_datasets()
    ]


def _random_contexts(rng, count):
    contexts = [of.load_dataset(name) for name in of.available_datasets()]
    while len(contexts) < count:
        spec = GeneratorSpec(
            objects=rng.randrange(6),
            attributes=rng.randrange(6),
            density=rng.random(),
            seed=rng.randrange(1 << 30),
        )
        ctx = random_context(spec)
        title = rng.choice((None, "", "a title", "B", "²"))
        contexts.append(dataclasses.replace(ctx, title=title))
    return contexts


def _mutate_lines(rng, text):
    lines = text.split("\n")
    for _ in range(rng.randrange(1, 4)):
        i = rng.randrange(len(lines))
        op = rng.randrange(8)
        if op == 0:
            del lines[i]
        elif op == 1:
            lines.insert(i, lines[i])
        elif op == 2:
            lines.insert(i, rng.choice(_LINES))
        elif op == 3:
            lines[i] = rng.choice(_LINES)
        elif op == 4 and lines[i]:
            j = rng.randrange(len(lines[i]))
            lines[i] = lines[i][:j] + rng.choice(_CELLS) + lines[i][j + 1 :]
        elif op == 5:
            lines[i] = lines[i].replace("X", "x", rng.randrange(1, 3))
        elif op == 6:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            lines[i] += rng.choice((" ", "\t", "  "))
        if not lines:
            lines = [""]
    text = "\n".join(lines)
    if rng.random() < 0.1:
        text = text.replace("\n", rng.choice(("\r\n", "\r")))
    if rng.random() < 0.1:
        text = text[: rng.randrange(len(text) + 1)]
    return text


def _mutate_json(rng, payload, keys):
    """Break one field of a JSON object, or the text written from it."""
    payload = dict(payload)
    key = rng.choice(keys + ("title",))
    op = rng.randrange(9)
    if op == 0:
        payload.pop(key, None)
    elif op == 1:
        payload[key] = rng.choice((None, 5, "X", [1], [["a"]], {}, 2.5, True))
    elif op == 2 and isinstance(payload.get(key), list) and payload[key]:
        items = list(payload[key])
        i = rng.randrange(len(items))
        items[i] = rng.choice(("x", "X.", "?", "a", 3, ["a", "b"], ["a"], None))
        payload[key] = items
    elif op == 3 and isinstance(payload.get(key), list):
        payload[key] = payload[key] + payload[key][:1]
    elif op == 4 and isinstance(payload.get(key), list):
        payload[key] = payload[key][1:]
    elif op == 5 and isinstance(payload.get(key), list):
        payload[key] = [
            item.replace("X", "x") if isinstance(item, str) else item
            for item in payload[key]
        ]
    elif op == 6 and isinstance(payload.get("relations"), list):
        # a reversed pair closes a cycle
        payload["relations"] = payload["relations"] + [
            list(reversed(pair)) for pair in payload["relations"][:1]
        ]
    text = json.dumps(payload)
    if op == 7:
        return text[: rng.randrange(len(text) + 1)]
    if op == 8:
        value = rng.choice((None, [], [payload], "s", 0, -1.5, [[]]))
        return json.dumps(value)
    return text


def _corpus():
    """About 20,000 seeded .cxt, context JSON and poset JSON texts."""
    rng = random.Random(20261018)
    cxt, context_json, poset_json = [], [], []
    for text in _fixture_texts():
        lines = text.split("\n")
        for k in range(len(lines) + 1):
            prefix = "\n".join(lines[:k])
            cxt.extend(prefix + ("\n" if k else "") + tail for tail in _TAILS)
    contexts = _random_contexts(rng, 400)
    for _ in range(11_000):
        cxt.append(_mutate_lines(rng, of.serialize_cxt(rng.choice(contexts))))
    keys = ("objects", "attributes", "rows")
    for _ in range(5000):
        ctx = rng.choice(contexts)
        payload = json.loads(of.context_to_json(ctx))
        context_json.append(_mutate_json(rng, payload, keys))
    posets = [random_poset(rng.randrange(7), seed) for seed in range(200)]
    for _ in range(3000):
        payload = json.loads(of.poset_to_json(rng.choice(posets)))
        poset_json.append(_mutate_json(rng, payload, ("elements", "relations")))
    return cxt, context_json, poset_json


def _outcome(read, text):
    try:
        value = read(text)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    if isinstance(value, of.FormalContext):
        return value.objects, value.attributes, value.rows, value.title
    return value.elements, value.leq


def _read_x_as_upper(outcome):
    if len(outcome) == 2:  # exception type and message
        return outcome[0], outcome[1].replace("x", "X")
    objects, attributes, rows, title = outcome

    def upper(names):
        return tuple(name.replace("x", "X") for name in names)

    return upper(objects), upper(attributes), rows, title and title.replace("x", "X")


_LOWERCASE_CELL = ("IllegalCharacter", "illegal cell character 'x'")


def test_readers_match_their_references_on_a_seeded_corpus():
    cxt, context_json, poset_json = _corpus()
    assert len(cxt) + len(context_json) + len(poset_json) >= 10_000
    lowercase = accepted = 0
    for text in cxt:
        expected = _outcome(reference_parse_cxt, text)
        got = _outcome(of.parse_cxt, text)
        if expected == _LOWERCASE_CELL:
            # read like the earlier reader reads the text with X for x,
            # up to the case of x in names and messages
            lowercase += 1
            upper = text.replace("x", "X")
            expected = _read_x_as_upper(_outcome(reference_parse_cxt, upper))
            got = _read_x_as_upper(got)
        assert got == expected, text
        accepted += len(got) == 4
    for text in context_json:
        expected = _outcome(reference_context_from_json, text)
        assert _outcome(of.context_from_json, text) == expected, text
        accepted += len(expected) == 4
    for text in poset_json:
        expected = _outcome(reference_poset_from_json, text)
        assert _outcome(of.poset_from_json, text) == expected, text
        accepted += not isinstance(expected[0], str)
    # the corpus reaches the accepting paths and the lowercase cells
    assert lowercase > 100
    assert accepted > 2000


def test_lowercase_x_cells_parse_and_serialize_as_upper_case():
    ctx = of.parse_cxt("B\n\n2\n2\n\ng\nh\nm\nn\nx.\nXx\n")
    assert ctx.rows == (1, 3)
    assert of.serialize_cxt(ctx).splitlines()[-2:] == ["X.", "XX"]


_DEEP = "[" * 200_000
_DIGITS = "7" * 5_000


@pytest.mark.parametrize("key", ["objects", "elements"])
@pytest.mark.parametrize(
    "value", [_DEEP, _DIGITS + "}"], ids=["deep-nesting", "long-integer"]
)
def test_json_past_the_decoder_limits_is_malformed(key, value):
    text = '{"%s": %s' % (key, value)
    for read in (of.context_from_json, of.poset_from_json):
        with pytest.raises(of.MalformedHeader):
            read(text)


def test_json_names_with_a_lone_surrogate_are_malformed():
    context = '{"objects": ["%s"], "attributes": [], "rows": [""]}'
    poset = '{"elements": ["%s"], "relations": []}'
    for read, text in ((of.context_from_json, context), (of.poset_from_json, poset)):
        for escape in ("\\ud800", "\\udfff", "a\\ude00\\ud83d"):
            with pytest.raises(of.MalformedHeader, match="surrogates"):
                read(text % escape)
        # a surrogate pair is one code point that UTF-8 encodes
        assert "\U0001f600" in repr(read(text % "\\ud83d\\ude00"))


def test_count_line_past_the_digit_limit_is_malformed():
    with pytest.raises(of.MalformedHeader, match="counts must be integers"):
        of.parse_cxt(f"B\n\n{_DIGITS}\n1\n")


def test_title_line_past_the_digit_limit_stays_a_title():
    ctx = of.parse_cxt(f"B\n{_DIGITS}\n1\n1\n\ng\nm\nX\n")
    assert ctx.title == _DIGITS
    again = of.parse_cxt(of.serialize_cxt(ctx))
    assert again == ctx
    assert again.title == _DIGITS


@pytest.mark.parametrize("attributes", [0, 1])
def test_counts_past_the_file_end_without_allocating_rows(attributes):
    text = f"B\n\n{10 ** 20}\n{attributes}\n\ng\nm\n"
    with pytest.raises(of.CountMismatch, match="file ends before"):
        of.parse_cxt(text)
