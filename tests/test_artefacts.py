"""The artefact codec: one round-trip over every kind ``repro.obs``
writes, plain and gzip, plus the guards that keep the on-disk format
inside ``repro/obs/export.py`` and the per-kind reader, validator and
renderer bindings out of ``repro.obs``."""

import ast
import gzip
import io
import json
import random
import re
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import OctopusFileSystem
from repro.cluster import small_cluster_spec
from repro.obs import (
    AlertSink,
    ArtifactError,
    ObsCapture,
    validate,
    write_bundle,
    write_chrome_trace,
    write_jsonl,
    write_metrics,
)
from repro.obs import export
from repro.obs.analyze import read_trace_file
from repro.obs.export import (
    SCHEMA_VERSION,
    SCHEMAS,
    canonical_json,
    load,
    metrics_json,
    open_text,
    read_artifact,
    write_text,
)
from repro.util.units import MB


@pytest.fixture(scope="module")
def run():
    """A small observed run with one sealed incident and one alert."""
    capture = ObsCapture()
    with capture:
        fs = OctopusFileSystem(small_cluster_spec(seed=0))
    sink = AlertSink(fs.obs)
    recorder, ledger = fs.obs.recorder, fs.obs.ledger
    client = fs.client(on="worker1")
    client.write_file("/f", size=8 * MB)
    sink.emit("slo", "read-latency", "firing", "page")
    with client.open("/f") as stream:
        stream.read_size()
    sink.emit("slo", "read-latency", "resolved", "page")
    recorder.flush()
    assert recorder.bundles and len(ledger)
    return fs.obs, sink, recorder, ledger


def _writers(run):
    """kind → (file stem, write(path))."""
    obs, sink, recorder, ledger = run
    records = obs.tracer.records
    return {
        "trace": ("trace.jsonl", lambda p: write_jsonl(records, p)),
        "alerts": ("alerts.jsonl", lambda p: write_jsonl(sink.timeline, p)),
        "ledger": ("ledger.jsonl", ledger.export),
        "metrics": ("metrics.json", lambda p: write_metrics(obs.metrics, p)),
        "chrome": ("trace.chrome.json", lambda p: write_chrome_trace(records, p)),
        "bundle": ("incident.json", lambda p: write_bundle(recorder.bundles[0], p)),
    }


def test_the_table_is_covered(run):
    assert set(_writers(run)) == set(SCHEMAS)


@pytest.mark.parametrize("suffix", ["", ".gz"])
@pytest.mark.parametrize("kind", sorted(SCHEMAS))
class TestRoundTrip:
    def _write(self, run, kind, suffix, tmp_path, name=None):
        stem, write = _writers(run)[kind]
        path = tmp_path / ((name or stem) + suffix)
        write(str(path))
        return path

    def test_write_read_validate(self, run, kind, suffix, tmp_path):
        path = self._write(run, kind, suffix, tmp_path)
        assert (path.read_bytes()[:2] == b"\x1f\x8b") == bool(suffix)
        found, payload = read_artifact(str(path))
        assert found == kind
        assert payload
        assert validate(kind, payload) == []
        assert load(str(path), kind) == payload

    def test_two_writes_are_byte_equal(self, run, kind, suffix, tmp_path):
        first = self._write(run, kind, suffix, tmp_path)
        stem = _writers(run)[kind][0]
        second = self._write(run, kind, suffix, tmp_path, name="again-" + stem)
        assert first.read_bytes() == second.read_bytes()

    def test_plain_and_gzip_hold_the_same_text(self, run, kind, suffix, tmp_path):
        path = self._write(run, kind, suffix, tmp_path)
        stem = _writers(run)[kind][0]
        plain = self._write(run, kind, "", tmp_path, name="plain-" + stem)
        data = path.read_bytes()
        assert (gzip.decompress(data) if suffix else data) == plain.read_bytes()

    def test_newer_major_is_rejected(self, run, kind, suffix, tmp_path):
        if kind == "chrome":
            pytest.skip("the trace-event format carries no schema_version")
        path = self._write(run, kind, suffix, tmp_path)
        with open_text(str(path)) as handle:
            text = handle.read()
        future = text.replace('"schema_version":"1.0"', '"schema_version":"9.0"')
        future = future.replace('"schema_version": "1.0"', '"schema_version": "9.0"')
        assert future != text
        with open_text(str(path), "w") as handle:
            handle.write(future)
        with pytest.raises(ArtifactError, match="newer than the supported") as info:
            read_artifact(str(path))
        assert str(path) in str(info.value)

    def test_corrupt_line_names_path_and_line(self, run, kind, suffix, tmp_path):
        path = self._write(run, kind, suffix, tmp_path)
        with open_text(str(path)) as handle:
            lines = handle.read().splitlines(keepends=True)
        if SCHEMAS[kind].records is None:
            lines, bad = [lines[0][: len(lines[0]) // 2]], 1
        else:
            lines.insert(2, "%% not json %%\n")
            bad = 3
        with open_text(str(path), "w") as handle:
            handle.write("".join(lines))
        with pytest.raises(ArtifactError) as info:
            read_artifact(str(path), kind)
        assert f"{path}: line {bad}: invalid JSON" in str(info.value)


def oracle(value) -> str:
    """The indented report as ``json`` lays it out: the route the writer
    in ``export.py`` replaced, kept here as its reference."""
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


_floats = st.floats(allow_nan=True, allow_infinity=True)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), _floats, st.text(max_size=8)
)
#: Sample arrays, and arrays that only look like one: a non-finite
#: number, an ``int`` or a ``bool`` among the floats, a member that is
#: not a pair — each must come out as ``json`` writes it.
_pairs = st.lists(st.tuples(_finite, _finite).map(list), min_size=1, max_size=6)
_near_pairs = st.lists(
    st.one_of(
        st.tuples(_finite, _finite),
        st.lists(st.one_of(_floats, st.integers(), st.booleans()), max_size=3),
        st.just([1, 2.0]), st.just([True, 0.5]), st.just("ab"),
        st.just({1.5: 2.5}),
    ),
    max_size=5,
)
_values = st.recursive(
    st.one_of(_scalars, _pairs, _near_pairs),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=12,
)


class TestIndentedWriter:
    @settings(max_examples=300, deadline=None)
    @given(_values)
    def test_matches_json_dumps_on_any_value(self, value):
        assert canonical_json(value, indent=2) == oracle(value)

    @pytest.mark.parametrize("value", [
        [[0.0, -0.0], [1e-07, 1e16], [5e-324, 1.7976931348623157e308]],
        [[1.0, float("inf")]], [[float("nan"), 1.0]], [[-float("inf"), 2.0]],
        [[1, 2.0]], [[True, 0.5]], [(1.0, 2.0), [3.0, 4.0]], [[1.0, 2.0, 3.0]],
        [[1.0, 2.0], []], [], {}, [[]], [{}], {"é\u2028": {"": []}},
        {1: "a", 2: {"b": None}}, {1.5: 0, 2.5: 1}, {True: 1}, {None: 1},
    ], ids=repr)
    def test_matches_json_dumps_on_the_edges(self, value):
        assert canonical_json(value, indent=2) == oracle(value)
        assert canonical_json(value, indent=4) == json.dumps(
            value, sort_keys=True, indent=4
        ) + "\n"

    def test_refuses_what_json_refuses(self):
        for bad in ({(1, 2): 0}, {"a": {1, 2}}, [object()]):
            with pytest.raises(TypeError):
                canonical_json(bad, indent=2)

    def test_metrics_json_of_an_observed_run_is_the_snapshot_as_json_writes_it(
        self, tmp_path
    ):
        """Concurrent writers and readers (the benchmark's ``tiny``
        ``meta_churn_obs`` shape: one closed-loop client a worker, a
        dozen small files each), so utilization series of many samples
        go through the sample-array route; the text is the registry's
        snapshot under a ``schema_version``, byte for byte."""
        fs = OctopusFileSystem(small_cluster_spec(seed=0))
        fs.obs.enable()

        def churn(client, index):
            for n in range(12):
                path = f"/c{index}/f{n:02d}"
                stream = client.create(path)
                yield from stream.write_size_proc(256 * 1024)
                yield from stream.close_proc()
                yield from client.open(path).read_proc(collect=False)

        for index, worker in enumerate(sorted(fs.workers)):
            fs.engine.process(churn(fs.client(on=worker), index))
        fs.engine.run()
        registry = fs.obs.metrics
        series = [i for i in registry.instruments() if i.kind == "timeseries"]
        assert sum(len(s.samples) for s in series) > 500
        expected = oracle({"schema_version": SCHEMA_VERSION, **registry.snapshot()})
        assert metrics_json(registry) == expected
        for name in ("metrics.json", "metrics.json.gz"):
            write_metrics(registry, str(tmp_path / name))
            with open_text(str(tmp_path / name)) as handle:
                assert handle.read() == expected


class TestSharedErrorType:
    def test_reader_errors_are_artifact_errors(self, tmp_path):
        missing = str(tmp_path / "nope.json.gz")
        assert issubclass(ArtifactError, ValueError)
        with pytest.raises(ArtifactError, match="cannot read trace") as info:
            read_trace_file(missing)
        assert type(info.value) is ArtifactError
        with pytest.raises(ArtifactError, match="cannot read bundle") as info:
            read_artifact(missing, "bundle")
        assert type(info.value) is ArtifactError
        not_gzip = tmp_path / "plain.jsonl.gz"
        not_gzip.write_text('{"kind": "header", "schema_version": "1.0"}\n')
        with pytest.raises(ArtifactError, match="cannot read"):
            read_artifact(str(not_gzip))


CHUNK = export._DEFLATE_CHUNK


def one_shot_gzip(data: bytes) -> bytes:
    """``data`` through one ``GzipFile.write``: what a ``.gz`` artefact
    must hold, however its text reached the deflate thread."""
    out = io.BytesIO()
    with gzip.GzipFile(fileobj=out, mode="wb", mtime=0, filename="") as packed:
        packed.write(data)
    return out.getvalue()


def noise(size: int) -> str:
    """``size`` characters that deflate only about halves."""
    return random.Random(size).randbytes(size // 2 + 1).hex()[:size]


class _FullDisk(io.BytesIO):
    """Takes the 10-byte gzip header, then refuses every write; notes
    the threads that tried."""

    def __init__(self) -> None:
        super().__init__()
        self.refused: set[str] = set()

    def write(self, data) -> int:
        if self.tell() >= 10:
            self.refused.add(threading.current_thread().name)
            raise OSError(28, "No space left on device")
        return super().write(data)


class TestDeflateThread:
    """``.gz`` artefacts are deflated on a second thread: same bytes, and
    no thread left behind."""

    @pytest.mark.parametrize(
        "size", [0, 1, CHUNK, CHUNK + 1, 5 * CHUNK + 17],
        ids=["empty", "one-byte", "one-chunk", "chunk-and-a-byte", "several-chunks"],
    )
    def test_bytes_equal_one_gzip_write(self, size, tmp_path):
        text = noise(size)
        before = threading.active_count()
        write_text(text, str(tmp_path / "a.gz"))
        assert threading.active_count() == before
        assert (tmp_path / "a.gz").read_bytes() == one_shot_gzip(text.encode())
        # The same text as many small pieces: the same bytes.
        write_text((text[i:i + 1000] for i in range(0, size, 1000)), str(tmp_path / "b.gz"))
        assert (tmp_path / "b.gz").read_bytes() == (tmp_path / "a.gz").read_bytes()

    def test_a_failing_file_fails_the_write_and_the_thread_ends(self, tmp_path, monkeypatch):
        disk = _FullDisk()
        monkeypatch.setattr(export, "open", lambda path, mode: disk, raising=False)
        before = threading.active_count()
        # Sixteen chunks: were the worker to stop taking them after the
        # error, the writer would wait on a full queue forever.
        with pytest.raises(OSError, match="No space left on device"):
            write_text(noise(16 * CHUNK), str(tmp_path / "full.gz"))
        assert "repro-deflate" in disk.refused
        assert threading.active_count() == before
        monkeypatch.undo()
        records = [{"kind": "event", "n": n} for n in range(1000)]
        path = str(tmp_path / "after.jsonl.gz")
        write_jsonl(records, path)
        assert read_artifact(path)[1] == records
        assert threading.active_count() == before

    def test_a_failing_writer_ends_the_thread(self, tmp_path):
        def records():
            for n in range(100_000):
                yield {"n": n, "pad": "x" * 40}
            raise ValueError("the records ran dry")

        before = threading.active_count()
        with pytest.raises(ValueError, match="ran dry"):
            write_jsonl(records(), str(tmp_path / "cut.jsonl.gz"))
        assert threading.active_count() == before


class TestArtefactFormatSeam:
    def test_only_export_knows_the_on_disk_format(self):
        """gzip, the schema-version check and — inside ``repro.obs`` —
        ``json.dumps`` appear in ``obs/export.py`` and nowhere else, so
        the file convention and the canonical text have one owner."""
        root = Path(repro.__file__).parent
        offenders = []
        for path in sorted(root.rglob("*.py")):
            module = path.relative_to(root).as_posix()
            if module == "obs/export.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = [alias.name for alias in node.names]
                    if "gzip" in names or getattr(node, "module", None) == "gzip":
                        offenders.append(f"{module}:{node.lineno} import gzip")
                elif isinstance(node, ast.Attribute):
                    owner = getattr(node.value, "id", None)
                    if owner == "gzip" or (
                        (owner, node.attr) == ("json", "dumps")
                        and module.startswith("obs/")
                    ):
                        offenders.append(
                            f"{module}:{node.lineno} {owner}.{node.attr}"
                        )
                elif (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None))
                    == "schema_version_problem"
                ):
                    offenders.append(
                        f"{module}:{node.lineno} schema_version_problem()"
                    )
        assert not offenders, "\n".join(offenders)


#: The per-kind bindings the generic path replaced: readers
#: (``read_artifact`` / ``load``), validators (``validate(kind, ...)``),
#: error subclasses (``ArtifactError``), report renderers
#: (``canonical_json``; ``format_report`` for text), and a ledger query
#: no caller used.
DELETED_BINDINGS = (
    "read_jsonl_records", "read_bundle", "read_chrome_trace", "read_trace",
    "iter_trace_records", "validate_trace_records", "validate_alert_records",
    "validate_ledger_records", "validate_bundle", "validate_chrome_trace",
    "TraceParseError", "BundleError", "analysis_json", "postmortem_json",
    "bundle_json", "records_for", "postmortem_text", "explain_text",
    "tier_utilization_rows",
)


class TestOneArtefactPath:
    def test_deleted_bindings_stay_out(self):
        """No module of ``repro.obs`` defines, imports, names or exports
        a deleted binding, and no function there takes ``error=``."""
        import repro.obs

        root = Path(repro.__file__).parent
        offenders = sorted(set(repro.obs.__all__) & set(DELETED_BINDINGS))
        for path in sorted((root / "obs").glob("*.py")):
            module = path.relative_to(root).as_posix()
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, ast.ImportFrom):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names = [node.value]
                elif isinstance(node, ast.arg) and node.arg == "error":
                    offenders.append(f"{module}:{node.lineno} error=")
                    continue
                else:
                    continue
                offenders += [
                    f"{module}:{node.lineno} {name}"
                    for name in names if name in DELETED_BINDINGS
                ]
        assert not offenders, "\n".join(offenders)

    def test_docs_name_no_deleted_binding(self):
        root = Path(__file__).resolve().parents[1]
        docs = ["README.md", "DESIGN.md", *sorted(
            p.relative_to(root).as_posix() for p in (root / "docs").glob("*.md")
        )]
        offenders = [
            f"{doc}: {name}"
            for doc in docs
            for name in DELETED_BINDINGS
            if re.search(rf"\b{name}\b", (root / doc).read_text())
        ]
        assert not offenders, "\n".join(offenders)
