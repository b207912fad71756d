import json
import random
from decimal import Decimal

import pytest
from hypothesis import settings, strategies as st

from rawfilter.explorer import ExplorerOptions
from rawfilter.filter import Mode
from rawfilter.query import And, Or, Predicate
from rawfilter.ranges import NumericBound

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")

# Running-example record (SenML measurement list with a out-of-range
# temperature that a flat string+value filter wrongly accepts).
LISTING_RECORD = (
    b'{"e":['
    b'{"v":"35.2","u":"far","n":"temperature"},'
    b'{"v":"12","u":"per","n":"humidity"},'
    b'{"v":"713","u":"per","n":"light"},'
    b'{"v":"305.01","u":"per","n":"dust"},'
    b'{"v":"20","u":"per","n":"airquality_raw"}'
    b'],"bt":1422748800000}'
)


@pytest.fixture
def listing_record():
    return LISTING_RECORD


_TRICKY_STRINGS = [
    "plain",
    'with"quote',
    "back\\slash",
    "brace{inside}",
    "bracket[in]side",
    "comma,colon:",
    'mix\\"of[every{thing,}]',
    "",
    "tab\tnew\nline",
]


def random_json_value(rng: random.Random, depth: int = 0):
    roll = rng.random()
    if depth >= 3 or roll < 0.35:
        return rng.choice(
            [
                rng.randint(-(10**6), 10**9),
                round(rng.uniform(-1000, 5000), rng.randint(0, 3)),
                rng.choice(_TRICKY_STRINGS),
                str(round(rng.uniform(0, 100), 1)),
                True,
                False,
                None,
                2.1e3,
            ]
        )
    if roll < 0.6:
        return [random_json_value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    keys = ["n", "v", "u", "e", "temperature", "humidity", "k" + str(rng.randint(0, 9))]
    return {rng.choice(keys): random_json_value(rng, depth + 1) for _ in range(rng.randint(0, 4))}


def random_json_record(rng: random.Random) -> bytes:
    return json.dumps(random_json_value(rng, 0), ensure_ascii=True).encode()


def senml_record(rng: random.Random, names, lo=-50.0, hi=6000.0) -> bytes:
    parts = []
    for name in names:
        value = round(rng.uniform(lo, hi), rng.choice((0, 1, 2)))
        parts.append(f'{{"v":"{value}","u":"per","n":"{name}"}}')
    return f'{{"e":[{",".join(parts)}],"bt":{rng.randint(10**12, 2 * 10**12)}}}'.encode()


def flat_record(rng: random.Random, names, lo=-50.0, hi=6000.0) -> bytes:
    parts = [f'"{name}":{round(rng.uniform(lo, hi), rng.choice((0, 1, 2)))}' for name in names]
    return f'{{{",".join(parts)},"ts":{rng.randint(10**12, 2 * 10**12)}}}'.encode()


QUERY_ATTRS = ("temperature", "humidity", "light")
# Shuffled spellings that block length 1 confuses with QUERY_ATTRS and 2 does not.
CONFUSABLE_ATTRS = ("temperatrue", "hmuidity", "lihgt")
# Every mode including OMIT, with each block length.
ALL_MODES = ExplorerOptions(modes=tuple(Mode), blocks=(1, 2, "N"))


def fuzz_records(seed: int, n: int) -> bytes:
    """NDJSON of SenML, flat and random records over the query and confusable names."""
    rng = random.Random(seed)
    makers = (senml_record, flat_record, lambda r, names: random_json_record(r))
    names = QUERY_ATTRS + CONFUSABLE_ATTRS
    records = [rng.choice(makers)(rng, rng.sample(names, 3)) for _ in range(n)]
    return b"\n".join(records) + b"\n"


@st.composite
def query_asts(draw):
    """AND/OR queries of one to three predicates over QUERY_ATTRS, whose
    bounds overlap the values senml_record and flat_record emit."""

    def leaf():
        lo = draw(st.integers(-50, 3000))
        hi = lo + draw(st.integers(0, 3000))
        return Predicate(draw(st.sampled_from(QUERY_ATTRS)), NumericBound(Decimal(lo), Decimal(hi)))

    n = draw(st.integers(1, 3))
    if n == 1:
        return leaf()
    op, nested = draw(st.sampled_from([(And, Or), (Or, And)]))
    if n == 3 and draw(st.booleans()):
        # The nested group goes first or last: (a OR b) AND c as well as a AND (b OR c).
        children = [leaf()]
        children.insert(draw(st.integers(0, 1)), nested((leaf(), leaf())))
        return op(tuple(children))
    return op(tuple(leaf() for _ in range(n)))


def stdlib_in_string_mask(text: str) -> list[bool]:
    """Independent string mask: stdlib scanstring finds each literal's end."""
    from json.decoder import scanstring

    mask = [False] * len(text)
    i = 0
    while i < len(text):
        if text[i] == '"':
            _, end = scanstring(text, i + 1)
            for j in range(i + 1, end):
                mask[j] = True
            i = end
        else:
            i += 1
    return mask
