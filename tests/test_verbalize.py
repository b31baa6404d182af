import re

import pytest

from factpool.kg import Fact
from factpool.verbalize import (
    TemplateError,
    TemplateTable,
    load_templates,
    save_templates,
    verbalize,
)


def test_verbalize_substitutes_surfaces():
    table = TemplateTable({"causes": "{h} causes {t}"})
    assert verbalize(Fact("winter", "causes", "bird_migration"), table) == (
        "winter causes bird migration"
    )


def test_verbalize_virtual_relations():
    table = TemplateTable()
    assert verbalize(Fact("question", "entity", "bird"), table) == "question mentions bird"
    assert verbalize(Fact("question", "a_entity", "children"), table) == (
        "question asks about children"
    )


def test_verbalize_missing_template_names_relation():
    with pytest.raises(TemplateError, match="causes"):
        verbalize(Fact("winter", "causes", "snow"), TemplateTable())


@pytest.mark.parametrize("bad", ["no placeholders", "{h} only head", "{h} {t} {t}"])
def test_template_placeholder_validation(bad):
    with pytest.raises(TemplateError):
        TemplateTable({"r": bad})


def test_template_file_round_trip(tmp_path):
    table = TemplateTable({"causes": "{h} causes {t}", "near": "{h} is near {t}"})
    path = tmp_path / "templates.tsv"
    save_templates(table, str(path))
    loaded = load_templates(str(path))
    assert loaded.templates == table.templates


def test_load_templates_rejects_a_repeated_relation(tmp_path):
    path = tmp_path / "templates.tsv"
    path.write_text("causes\t{h} causes {t}\nnear\t{h} is near {t}\ncauses\t{t} after {h}\n")
    with pytest.raises(TemplateError, match=re.escape(f"{path}: line 3: relation 'causes'")):
        load_templates(str(path))


def test_load_templates_bad_template_names_path_and_line(tmp_path):
    path = tmp_path / "templates.tsv"
    path.write_text("# relation\ttemplate\ncauses\t{h} causes {t}\nnear\t{h} is near\n")
    with pytest.raises(TemplateError, match=re.escape(f"{path}: line 3: ") + ".*'near'"):
        load_templates(str(path))
