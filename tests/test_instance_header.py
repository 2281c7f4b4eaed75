"""The `<kind> v1` header that both instance file formats share."""
import re

import pytest

from rtss.domains import airspace, racetrack

# kind -> (loader, a small valid file)
FORMATS = {
    "airspace": (airspace.load_instance,
                 "airspace v1\n"
                 "length 8 maxAltitude 3 pObs 0.5 seed 1\n"
                 "...##...\n"
                 "#.#.#.##\n"),
    "racetrack": (racetrack.load,
                  "racetrack v1\n"
                  "width 4 height 3\n"
                  "####\n"
                  "#@*#\n"
                  "####\n"),
}


# kind -> (header key, the name its range message gives it) of each size
SIZES = {"airspace": (("length", "length"), ("maxAltitude", "max_altitude")),
         "racetrack": (("width", "width"), ("height", "height"))}


def _with_header(text, words):
    magic, _header, *body = text.splitlines()
    return "\n".join([magic, " ".join(words), *body]) + "\n"


@pytest.mark.parametrize("kind", FORMATS)
def test_both_loaders_read_the_header_alike(kind):
    load, text = FORMATS[kind]
    words = text.splitlines()[1].split()
    with pytest.raises(ValueError, match=f"not an? {kind} v1 file"):
        load(text.replace(f"{kind} v1", f"{kind} v2", 1), is_text=True)
    for bad in (f"{kind} v1\n",                           # no header line
                _with_header(text, words[2:]),            # the first key missing
                _with_header(text, words[:-1] + ["x"])):  # a non-numeric value
        with pytest.raises(ValueError, match=f"malformed {kind} header"):
            load(bad, is_text=True)
    for bad, problem in ((words + ["lenght", "9"], "unknown key 'lenght'"),
                         (words + words[:2], f"repeated key '{words[0]}'"),
                         (words[:2] + words, f"repeated key '{words[0]}'")):
        with pytest.raises(ValueError, match=f"malformed {kind} header: {problem}"):
            load(_with_header(text, bad), is_text=True)
    pairs = [words[i:i + 2] for i in range(0, len(words), 2)]
    reordered = _with_header(text, [w for pair in reversed(pairs) for w in pair])
    assert repr(load(reordered, is_text=True)) == repr(load(text, is_text=True))


@pytest.mark.parametrize("kind", FORMATS)
def test_both_loaders_name_the_header_of_a_size_below_one(kind):
    load, text = FORMATS[kind]
    words = text.splitlines()[1].split()
    for key, name in SIZES[kind]:
        for value in ("0", "-2"):
            bad = list(words)
            bad[words.index(key) + 1] = value
            message = f"{kind} header '{' '.join(bad)}': {name} must be >= 1"
            with pytest.raises(ValueError, match=re.escape(message)):
                load(_with_header(text, bad), is_text=True)
