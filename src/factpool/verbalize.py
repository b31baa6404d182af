"""Turn facts into natural-language text via per-relation templates."""

from __future__ import annotations

from dataclasses import dataclass, field

from factpool.kg import (
    VIRTUAL_ANSWER_RELATION,
    VIRTUAL_QUESTION_RELATION,
    Fact,
    id_to_surface,
)
from factpool.util import atomic_write_text

# Virtual edges have fixed phrasings; template files cannot override them.
_VIRTUAL_TEMPLATES = {
    VIRTUAL_QUESTION_RELATION: "question mentions {t}",
    VIRTUAL_ANSWER_RELATION: "question asks about {t}",
}


class TemplateError(ValueError):
    """Raised for missing or malformed relation templates."""


@dataclass
class TemplateTable:
    """Relation id -> template string with one `{h}` and one `{t}` placeholder.

    `path` is the file the table was loaded from, named in lookup errors.
    """

    templates: dict[str, str] = field(default_factory=dict)
    path: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        for relation, template in self.templates.items():
            _validate_template(relation, template)


def _validate_template(relation: str, template: str) -> None:
    for placeholder in ("{h}", "{t}"):
        if template.count(placeholder) != 1:
            raise TemplateError(
                f"template for relation {relation!r} must contain {placeholder} exactly once: "
                f"{template!r}"
            )


def load_templates(path: str) -> TemplateTable:
    """Load a TSV of `relation\\ttemplate` lines ('#' comments allowed).

    TemplateError names the path and line of a malformed line, a bad
    template or a relation given twice.
    """
    templates: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise TemplateError(f"{path}: malformed line {lineno}: {line!r}")
            relation, template = parts[0].strip(), parts[1]
            if relation in templates:
                raise TemplateError(f"{path}: line {lineno}: relation {relation!r} given twice")
            try:
                _validate_template(relation, template)
            except TemplateError as err:
                raise TemplateError(f"{path}: line {lineno}: {err}") from None
            templates[relation] = template
    return TemplateTable(templates, str(path))


def save_templates(table: TemplateTable, path: str) -> None:
    lines = [f"{relation}\t{template}" for relation, template in sorted(table.templates.items())]
    atomic_write_text(path, "\n".join(lines) + "\n")


def verbalize(fact: Fact, templates: TemplateTable) -> str:
    """Render a fact as text, substituting entity surface forms.

    TemplateError names the templates file and the fact when no template
    covers the fact's relation.
    """
    if fact.relation in _VIRTUAL_TEMPLATES:
        return _VIRTUAL_TEMPLATES[fact.relation].replace("{t}", id_to_surface(fact.tail))
    template = templates.templates.get(fact.relation)
    if template is None:
        where = f"{templates.path}: " if templates.path else ""
        raise TemplateError(
            f"{where}no template for relation {fact.relation!r} (fact {fact.key()!r})"
        )
    return template.replace("{h}", id_to_surface(fact.head)).replace(
        "{t}", id_to_surface(fact.tail)
    )
