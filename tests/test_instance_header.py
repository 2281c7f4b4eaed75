"""The `<kind> v1` header that both instance file formats share."""
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
    pairs = [words[i:i + 2] for i in range(0, len(words), 2)]
    reordered = _with_header(text, [w for pair in reversed(pairs) for w in pair])
    assert repr(load(reordered, is_text=True)) == repr(load(text, is_text=True))
