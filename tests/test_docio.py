"""Every document reader takes a path or the document's own text."""

import pytest

from munipath.catalog import default_catalog, load_catalog, save_catalog
from munipath.docio import read_text
from munipath.fixtures import make_fixture_twin
from munipath.scenario import default_scenario, load_scenario, save_scenario
from munipath.twin import TimeGrid, load_twin, save_twin


TWIN = make_fixture_twin(2, seed=3, grid=TimeGrid.representative_days(240))
CATALOG = default_catalog()


def _text(write, obj, tmp_path) -> str:
    path = tmp_path / "written"
    write(obj, path)
    return path.read_bytes().decode("utf-8")


# name: (document object, writer(obj, sink), reader(source)); two read results
# are compared by the text the writer makes of them
DOCUMENTS = {
    "twin": (TWIN, save_twin, load_twin),
    "catalog": (CATALOG, save_catalog, load_catalog),
    "scenario": (default_scenario(), save_scenario, load_scenario),
}

SOURCE_FORMS = {
    "path": lambda text, p: p,
    "str_path": lambda text, p: str(p),
    "str": lambda text, p: text,
}


@pytest.mark.parametrize("form", SOURCE_FORMS)
@pytest.mark.parametrize("kind", DOCUMENTS)
def test_every_reader_takes_every_source_form(tmp_path, kind, form):
    obj, write, read = DOCUMENTS[kind]
    text = _text(write, obj, tmp_path)
    path = tmp_path / "doc"
    path.write_bytes(text.encode("utf-8"))
    expected = _text(write, read(path), tmp_path)
    assert _text(write, read(SOURCE_FORMS[form](text, path)), tmp_path) == expected


def test_base_dir_follows_the_source(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text("{}")
    assert read_text(path) == ("{}", str(tmp_path))
    assert read_text(" {}") == (" {}", None)
    with pytest.raises(FileNotFoundError):
        read_text("no\nsuch.json")  # a str that does not start with "{" is a path
