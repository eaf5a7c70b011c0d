"""Every document reader takes every source form, every writer every sink."""

import io

import pytest

from munipath.catalog import default_catalog, load_catalog, save_catalog
from munipath.docio import read_text
from munipath.fixtures import make_fixture_twin
from munipath.pathway import StageResult
from munipath.report import aggregate_stage, export_csv, export_geojson
from munipath.scenario import default_scenario, load_scenario, save_scenario
from munipath.twin import TimeGrid, load_twin, save_twin


TWIN = make_fixture_twin(2, seed=3, grid=TimeGrid.representative_days(240))
CATALOG = default_catalog()
STAGE = StageResult(target_year=2030, period_years=7, budgets={}, solutions={},
                    measures=(), denied=(), infeasible={}, realized_rates={},
                    twin_after=TWIN)


def _text(write, obj) -> str:
    buf = io.StringIO()
    write(obj, buf)
    return buf.getvalue()


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
    "bytes": lambda text, p: text.encode("utf-8"),
    "text_stream": lambda text, p: io.StringIO(text),
    "binary_stream": lambda text, p: io.BytesIO(text.encode("utf-8")),
    "open_text_file": lambda text, p: open(p, encoding="utf-8"),
    "open_binary_file": lambda text, p: open(p, "rb"),
}


@pytest.mark.parametrize("form", SOURCE_FORMS)
@pytest.mark.parametrize("kind", DOCUMENTS)
def test_every_reader_takes_every_source_form(tmp_path, kind, form):
    obj, write, read = DOCUMENTS[kind]
    text = _text(write, obj)
    path = tmp_path / "doc"
    path.write_bytes(text.encode("utf-8"))
    expected = _text(write, read(path))
    source = SOURCE_FORMS[form](text, path)
    try:
        got = read(source)
    finally:
        if hasattr(source, "close"):
            source.close()
    assert _text(write, got) == expected


def test_base_dir_follows_the_source(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text("{}")
    assert read_text(path) == ("{}", str(tmp_path))
    with open(path, "rb") as fh:
        assert read_text(fh) == ("{}", str(tmp_path))
    assert read_text(b"{}") == ("{}", None)
    assert read_text(io.StringIO("{}")) == ("{}", None)
    with pytest.raises(FileNotFoundError):
        read_text("no\nsuch.json")  # a str that does not start with "{" is a path


WRITERS = {
    "twin": lambda sink: save_twin(TWIN, sink),
    "catalog": lambda sink: save_catalog(CATALOG, sink),
    "scenario": lambda sink: save_scenario(default_scenario(), sink),
    "csv": lambda sink: export_csv([aggregate_stage(STAGE, CATALOG)], sink),
    "geojson": lambda sink: export_geojson(STAGE, CATALOG, sink),
}


@pytest.mark.parametrize("kind", WRITERS)
def test_every_writer_gives_every_sink_the_same_bytes(tmp_path, kind):
    write = WRITERS[kind]
    path = tmp_path / "out"
    write(path)
    text_sink, binary_sink = io.StringIO(), io.BytesIO()
    write(text_sink)
    write(binary_sink)
    with open(tmp_path / "out_fh", "wb") as fh:
        write(fh)
    expected = path.read_bytes()
    assert expected
    assert text_sink.getvalue().encode("utf-8") == expected
    assert binary_sink.getvalue() == expected
    assert (tmp_path / "out_fh").read_bytes() == expected
