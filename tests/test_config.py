from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import CONFIG_FILE_KEYS, parse_config_oracle

from factpool.config import FILE_KEYS, Config, config_text, load_config, parse_config_text

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.cfg"))


def test_checked_in_configs_exist():
    assert {path.name for path in CONFIGS} >= {"acceptance.cfg", "fusion_sweep.cfg"}


@pytest.mark.parametrize("path", CONFIGS, ids=[path.name for path in CONFIGS])
def test_checked_in_config_is_its_own_rendering(path):
    # A mistyped key or value fails here, not at the end of an experiment.
    assert config_text(load_config(path)) == path.read_text(encoding="utf-8")


def test_config_text_round_trips():
    cfg = Config(L=6, K=3, fusion_mode="early_late", lr_lm=1.5e-4, seed=7)
    assert parse_config_text(config_text(cfg)) == cfg


@pytest.mark.parametrize("key", FILE_KEYS)
def test_each_file_key_parses_to_the_type_of_its_default(key):
    default = getattr(Config(), key)
    assert type(getattr(parse_config_text(f"{key}={default}\n"), key)) is type(default)


@pytest.mark.parametrize(
    "field, value",
    [("lr_lm", -0.001), ("lr_graph", float("nan")), ("lr_lm", float("inf")),
     ("lr_graph", float("-inf"))],
)
def test_learning_rates_must_be_finite_and_non_negative(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite and non-negative"):
        Config(**{field: value})
    with pytest.raises(ValueError, match=f"{field} must be finite and non-negative"):
        parse_config_text(f"{field}={value}\n")


def test_cls_pooling_needs_an_encoder_with_a_cls_token():
    message = "token_pooling=cls needs a cls token; encoder_kind=hash-bag has none"
    with pytest.raises(ValueError, match=message):
        Config(token_pooling="cls")
    with pytest.raises(ValueError, match=message):
        parse_config_text("token_pooling=cls\nencoder_kind=hash-bag\n")
    assert Config(token_pooling="cls", encoder_kind="shared-toy-encoder").token_pooling == "cls"


def test_negative_seed_is_rejected():
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        Config(seed=-1)
    with pytest.raises(ValueError, match="seed must be non-negative, got -3"):
        parse_config_text("seed=-3\n")


def test_zero_learning_rate_is_accepted():
    # A zero rate freezes its parameter group.
    assert parse_config_text("lr_lm=0\nlr_graph=0.0\n").lr_lm == 0.0


def test_early_fusion_with_injection_layers_is_rejected():
    with pytest.raises(ValueError, match="fusion_mode=early requires K=0"):
        Config(fusion_mode="early", K=1)
    with pytest.raises(ValueError, match="fusion_mode=early requires K=0"):
        parse_config_text("fusion_mode=early\nK=2\n")


def test_unknown_encoder_kind_is_rejected():
    with pytest.raises(ValueError, match="encoder_kind must be one of"):
        Config(encoder_kind="bert")
    with pytest.raises(ValueError, match="encoder_kind must be one of"):
        parse_config_text("encoder_kind=bert\n")


def test_line_without_equals_is_rejected_naming_the_line():
    # Split without the check, such a line still fails, but on unpacking.
    with pytest.raises(ValueError) as exc:
        parse_config_text("L=2\nseed 4\n")
    assert str(exc.value) == "config line 2 is not key=value: 'seed 4'"


def test_repeated_key_is_rejected_naming_the_line():
    with pytest.raises(ValueError, match="config line 3 repeats key 'L'"):
        parse_config_text("L=2\nd=16\nL=4\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("L=4.5\n", "config line 1: L='4.5' is not an integer"),
        ("d=64\nseed=x\n", "config line 2: seed='x' is not an integer"),
        ("lr_graph=fast\n", "config line 1: lr_graph='fast' is not a number"),
    ],
)
def test_unparsable_value_names_line_and_key(text, message):
    with pytest.raises(ValueError) as exc:
        parse_config_text(text)
    assert str(exc.value) == message


# Per key, values a runnable config may hold; other keys are unknown to the file.
GOOD_VALUES = {
    "L": ["1", "2", "4"],
    "d": ["16", "64"],
    "heads": ["1", "2", "4"],
    "K": ["0", "1", "2"],
    "fusion_mode": ["early", "early_late"],
    "max_tokens": ["5", "8", "100"],
    "max_nodes": ["1", "32"],
    "token_pooling": ["mean", "cls"],
    "encoder_kind": ["hash-bag", "shared-toy-encoder", "external-file"],
    "lr_lm": ["0", "3e-4", "0.5"],
    "lr_graph": ["0.0", "1e-3"],
    "epochs": ["1", "20"],
    "batch_size": ["1", "16"],
    "seed": ["0", "7"],
    # Config fields that only checkpoints carry, and a name of no field.
    "vocab_size": ["64"],
    "gnn_layers": ["2"],
    "precision": ["f32", "f64"],
    "width": ["16"],
}
# Wrong types, out-of-range numbers and `=` inside a value, for any key.
BAD_VALUES = ["-1", "0", "3", "x", "2.5", "nan", "inf", "", "early=late", "4=4"]


@st.composite
def config_lines(draw):
    form = draw(st.sampled_from(["setting"] * 6 + ["blank", "comment", "no-equals"]))
    if form == "blank":
        return draw(st.sampled_from(["", "   "]))
    if form == "comment":
        return draw(st.sampled_from(["# a note", "  # L=4", "#"]))
    if form == "no-equals":
        return draw(st.sampled_from(["L", "early", "seed 4"]))
    key = draw(st.sampled_from(sorted(GOOD_VALUES) + list(CONFIG_FILE_KEYS) * 2))
    value = draw(st.sampled_from(GOOD_VALUES[key] * 6 + BAD_VALUES))
    space = draw(st.sampled_from(["", " "]))
    comment = draw(st.sampled_from(["", "", " # why", "#seed=1"]))
    return f"{key}{space}={space}{value}{comment}"


@settings(max_examples=400, deadline=None)
@given(st.lists(config_lines(), max_size=6), st.sampled_from(["\n", "\r\n"]))
@example(["precision=f64"], "\n")  # a valid value of a key only checkpoints carry
def test_parse_config_text_matches_the_reference(lines, newline):
    text = newline.join(lines) + newline
    expected = parse_config_oracle(text)
    try:
        cfg = parse_config_text(text)
    except ValueError:
        assert expected is None, text
        return
    assert expected is not None, text
    parsed = {key: getattr(cfg, key) for key in CONFIG_FILE_KEYS}
    assert {k: (type(v), v) for k, v in parsed.items()} == {
        k: (type(v), v) for k, v in expected.items()
    }
    assert cfg == Config(**expected)


def test_sizes_are_checked_before_width_divides_into_heads():
    with pytest.raises(ValueError, match="heads must be positive"):
        parse_config_text("heads=0\n")
