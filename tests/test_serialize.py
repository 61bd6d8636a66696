"""File formats: stamped JSON, dataset CSV round trips, digests, manifests."""

from __future__ import annotations

import hashlib
import json
import os
import re
import tracemalloc
import zlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgmoe.cli import _write_table, run_cli
from sgmoe.datagen import GenConfig, builtin_truths, sample
from sgmoe.dendrogram import build_path
from sgmoe.errors import InputError
from sgmoe.estimation import FitResult
from sgmoe.model import Dataset
from sgmoe.selection import SelectionReport
from sgmoe.serialize import (
    _FNV_CHUNK,
    _FNV_SMALL,
    _TABLE_HEADER,
    RunManifest,
    _Fnv1a,
    _csv_lines,
    file_digest,
    fnv1a64,
    load_dataset_csv,
    load_dendrogram,
    load_fit,
    load_manifest,
    load_model,
    load_model_or_fit,
    load_report,
    overwrite,
    save_dendrogram,
    save_fit,
    save_manifest,
    save_model,
    save_report,
    table_path,
    write_dataset_csv,
)

from helpers import (
    csv_reader_dataset,
    csv_writer_dataset,
    fnv1a64 as fnv1a64_oracle,
    g0_three_expert,
    g0_two_expert,
    random_measure,
    v1_table,
)


def measures_equal(a, b) -> bool:
    if a.dim != b.dim or a.n_atoms != b.n_atoms:
        return False
    for x, y in zip(a.atoms, b.atoms):
        if (x.omega0, x.b, x.sigma) != (y.omega0, y.b, y.sigma):
            return False
        if not (np.array_equal(x.omega1, y.omega1)
                and np.array_equal(x.a, y.a)):
            return False
    return True


class TestStampedJson:
    def test_model_round_trip_bit_faithful(self, tmp_path):
        rng = np.random.default_rng(0)
        m = random_measure(rng, k=3, dim=2)
        p = tmp_path / "m.json"
        save_model(m, p)
        assert measures_equal(load_model(p), m)
        doc = json.loads(p.read_text())
        assert doc["format"] == "sgmoe/model/v1"

    def test_awkward_floats_survive(self, tmp_path):
        from helpers import make_measure
        m = make_measure([(0.1 + 0.2, (1e-300,), (-1.0000000000000002,),
                           1 / 3, 5e-324 + 0.7)])
        p = tmp_path / "m.json"
        save_model(m, p)
        assert measures_equal(load_model(p), m)

    def test_fit_round_trip(self, tmp_path):
        fit = FitResult(model=g0_two_expert(),
                        loglik_trace=(-2.5, -2.25, -2.249999),
                        iterations=2, converged=True)
        p = tmp_path / "f.json"
        save_fit(fit, p)
        back = load_fit(p)
        assert np.array_equal(back.loglik_trace, fit.loglik_trace)
        assert back.iterations == 2 and back.converged

    def test_dendrogram_round_trip(self, tmp_path):
        dg = build_path(g0_three_expert())
        p = tmp_path / "d.json"
        save_dendrogram(dg, p)
        back = load_dendrogram(p)
        assert back.heights == dg.heights
        assert [m.pair for m in back.merges] == [m.pair for m in dg.merges]
        assert measures_equal(back.level(1), dg.level(1))

    def test_dendrogram_heights_must_be_the_merge_heights(self, tmp_path):
        dg = build_path(g0_three_expert())
        p = tmp_path / "d.json"
        save_dendrogram(dg, p)
        doc = json.loads(p.read_text())
        doc["heights"] = [1e6, 0.0]
        p.write_text(json.dumps(doc))
        with pytest.raises(InputError, match="not its merge heights"):
            load_dendrogram(p)

    def test_report_round_trip(self, tmp_path):
        rep = SelectionReport(method="dsc", per_level={2: -1.5, 3: 0.25},
                              chosen=2, epsilon_n=9.2)
        p = tmp_path / "r.json"
        save_report(rep, p)
        back = load_report(p)
        assert back.per_level == rep.per_level
        assert back.chosen == 2 and back.epsilon_n == 9.2

    def test_model_or_fit_accepts_both(self, tmp_path):
        m = g0_two_expert()
        save_model(m, tmp_path / "m.json")
        fit = FitResult(model=m, loglik_trace=(-1.0,), iterations=0,
                        converged=False)
        save_fit(fit, tmp_path / "f.json")
        assert measures_equal(load_model_or_fit(tmp_path / "m.json"), m)
        assert measures_equal(load_model_or_fit(tmp_path / "f.json"), m)

    def test_unknown_major_rejected(self, tmp_path):
        p = tmp_path / "m.json"
        save_model(g0_two_expert(), p)
        doc = json.loads(p.read_text())
        doc["format"] = "sgmoe/model/v2"
        p.write_text(json.dumps(doc))
        with pytest.raises(InputError, match="major version"):
            load_model(p)

    def test_kind_mismatch_rejected(self, tmp_path):
        p = tmp_path / "m.json"
        save_model(g0_two_expert(), p)
        with pytest.raises(InputError, match="document"):
            load_dendrogram(p)

    def test_missing_stamp_and_bad_json(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text("{}")
        with pytest.raises(InputError, match="format stamp"):
            load_model(p)
        p.write_text("{nope")
        with pytest.raises(InputError, match="JSON"):
            load_model(p)
        with pytest.raises(InputError, match="no such file"):
            load_model(tmp_path / "absent.json")


class TestDatasetCsv:
    def test_two_row_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x1,y\n0.5,1.25\n-0.25,2.0\n")
        data = load_dataset_csv(p)
        assert data.n == 2 and data.dim == 1
        assert data.xs[1, 0] == -0.25 and data.ys[0] == 1.25

    def test_round_trip_17_digits(self, tmp_path):
        rng = np.random.default_rng(7)
        data = Dataset(xs=rng.normal(size=(1000, 3)) * 10.0 ** rng.integers(
            -8, 8, size=(1000, 3)), ys=rng.normal(size=1000))
        p = tmp_path / "d.csv"
        write_dataset_csv(data, p)
        back = load_dataset_csv(p)
        assert np.array_equal(back.xs, data.xs)
        assert np.array_equal(back.ys, data.ys)

    def test_nan_on_line_3_is_named(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x1,y\n0.5,1.0\n0.25,nan\n0.1,2.0\n")
        with pytest.raises(InputError, match="line 3"):
            load_dataset_csv(p)

    def test_inf_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x1,y\ninf,1.0\n")
        with pytest.raises(InputError, match="line 2"):
            load_dataset_csv(p)

    def test_bad_token_names_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x1,y\n0.5,1.0\nabc,2.0\n")
        with pytest.raises(InputError, match="line 3"):
            load_dataset_csv(p)

    def test_wrong_column_count_names_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x1,x2,y\n0.5,1.0,2.0\n0.5,1.0\n")
        with pytest.raises(InputError, match="line 3"):
            load_dataset_csv(p)

    def test_empty_and_header_only(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(InputError, match="empty"):
            load_dataset_csv(p)
        p.write_text("x1,y\n")
        with pytest.raises(InputError, match="no data rows"):
            load_dataset_csv(p)

    def test_header_checked_unless_y_last(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("protein,trait\n0.5,1.0\n")
        with pytest.raises(InputError, match="line 1"):
            load_dataset_csv(p)
        data = load_dataset_csv(p, y_last=True)
        assert data.n == 1 and data.ys[0] == 1.0

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_writer_matches_csv_writer(self, tmp_path, dim):
        rng = np.random.default_rng(dim)
        n = 5000  # more than one write chunk
        xs = rng.normal(size=(n, dim)) * 10.0 ** rng.integers(
            -300, 300, size=(n, dim))
        ys = rng.normal(size=n)
        awkward = [-0.0, 5e-324, 1e-300, 1e308, -1e308, 0.1 + 0.2, 1e16]
        for i, v in enumerate(awkward):
            xs[i] = v
            ys[-1 - i] = v
        data = Dataset(xs=xs, ys=ys)
        write_dataset_csv(data, tmp_path / "new.csv")
        csv_writer_dataset(data, tmp_path / "old.csv")
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "old.csv").read_bytes())

    @pytest.mark.parametrize("bad, message", [
        ("abc,2.0", "could not convert"),
        ("0.5,inf", "non-finite"),
        ("0.5", "expected 2 columns, got 1"),
    ])
    def test_bad_row_past_first_chunk_names_line(self, tmp_path, bad,
                                                 message):
        rows = ["0.5,1.0"] * 9000
        rows[8000] = bad  # file line 8002, in the second 4096-row chunk
        p = tmp_path / "d.csv"
        p.write_text("x1,y\n" + "\n".join(rows) + "\n")
        with pytest.raises(InputError, match=f"line 8002: {message}"):
            load_dataset_csv(p)

    @pytest.mark.parametrize("first, second, line", [
        ("abc,2.0", "0.5,1.0,3.0", 3),
        ("0.5,1.0,3.0", "abc,2.0", 3),
        ("0.5,nan", "0.5", 3),
    ])
    def test_first_bad_line_in_a_chunk_wins(self, tmp_path, first, second,
                                             line):
        p = tmp_path / "d.csv"
        p.write_text(f"x1,y\n0.5,1.0\n{first}\n0.25,2.0\n{second}\n")
        with pytest.raises(InputError, match=f"line {line}:"):
            load_dataset_csv(p)

    def test_trailing_blank_line_is_skipped(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x1,y\n0.5,1.0\n0.25,2.0\n\n")
        data = load_dataset_csv(p)
        assert data.n == 2 and list(data.ys) == [1.0, 2.0]

    def test_blank_lines_keep_physical_line_numbers(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x1,y\n0.5,1.0\n\n\nabc,2.0\n")
        with pytest.raises(InputError, match="line 5"):
            load_dataset_csv(p)
        p.write_text("x1,y\n\n\n")
        with pytest.raises(InputError, match="no data rows"):
            load_dataset_csv(p)

    def test_directory_is_an_input_error(self, tmp_path):
        with pytest.raises(InputError, match="cannot read"):
            load_dataset_csv(tmp_path)
        with pytest.raises(InputError, match="cannot read"):
            load_model(tmp_path)
        with pytest.raises(InputError, match="cannot read"):
            file_digest(tmp_path)


def _repr_lines(table: np.ndarray) -> bytes:
    """CSV lines of `table` with each value written by repr itself."""
    return "".join(",".join(map(repr, row)) + "\r\n"
                   for row in table.tolist()).encode()


def _as_table(values, width: int) -> np.ndarray:
    """`values` as a float table of `width` columns, cut to whole rows."""
    values = np.asarray(values, dtype=float)
    return values[:len(values) // width * width].reshape(-1, width)


# uint64 bit patterns of finite doubles of either sign: any pattern, or
# one with an exponent in repr's fixed-notation range, 2^-14 .. 2^53
_FINITE_BITS = st.one_of(
    st.integers(0, 2 ** 64 - 1),
    st.tuples(st.booleans(), st.integers(1023 - 14, 1023 + 53),
              st.integers(0, 2 ** 52 - 1))
    .map(lambda t: t[0] << 63 | t[1] << 52 | t[2]),
).filter(lambda b: b >> 52 & 0x7ff != 0x7ff)


class TestReprKernel:
    """`_csv_lines`, the numpy kernel behind `write_dataset_csv`, writes
    every value as repr does."""

    @given(bits=st.lists(_FINITE_BITS, min_size=4, max_size=48),
           width=st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_matches_repr_on_any_finite_bits(self, bits, width):
        table = _as_table(np.array(bits, dtype=np.uint64).view(float),
                          width)
        assert _csv_lines(table).tobytes() == _repr_lines(table)

    @pytest.mark.parametrize("values", [
        [s * 2.0 ** p for p in range(-20, 61) for s in (1, -1)],
        [np.nextafter(edge, to) for edge in (1e-4, 1e16)
         for to in (0.0, np.inf)] + [1e-4, 1e16, -1e-4, -1e16],
        [0.5, 0.125, 0.1, 2.5, 0.3, -0.75, 1.0, 10.0, 1e-3, 123.456,
         0.1 + 0.2, 1 / 3, 2 / 3, 9999999999999998.0],
        np.concatenate([1e15 + np.arange(2000.0),
                        np.random.default_rng(1).integers(
                            10 ** 15, 10 ** 16, size=2000)]),
        [5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, 0.0, -0.0,
         1.7976931348623157e308, -1.7976931348623157e308],
        # exactly halfway between two 17-digit decimals
        [1e15 + j + f for j in range(0, 10 ** 15, 10 ** 12 + 7)
         for f in (0.25, 0.75)] + [1 + 2.0 ** -j for j in range(1, 53)],
    ], ids=["powers_of_two", "range_edges", "short_decimals",
            "integers_1e15_1e16", "zeros_subnormals_max", "halfway_ties"])
    @pytest.mark.parametrize("width", [1, 3])
    def test_matches_repr_on_structured_cases(self, values, width):
        table = _as_table(values, width)
        assert _csv_lines(table).tobytes() == _repr_lines(table)

    @pytest.mark.parametrize("truth, width", [("g0_2", 2), ("g0_3", 4)])
    def test_matches_repr_on_sampled_draws(self, truth, width):
        # 2e5 values of `sample`'s x and y, in the writer's row blocks
        rows = 200_000 // width
        data = sample(builtin_truths()[truth],
                      GenConfig(n=rows, seed=width, contamination_eps=0.05))
        xs = np.random.default_rng(width).uniform(size=(rows, width - 2))
        table = np.column_stack((data.xs, xs, data.ys))
        for start in range(0, rows, 4096):
            block = table[start:start + 4096]
            assert _csv_lines(block).tobytes() == _repr_lines(block)


def _parsed(path, **kw):
    """`load_dataset_csv` of `path` with no binary table beside it."""
    table, kept = table_path(path), None
    if table.exists():
        kept = table.read_bytes()
        table.unlink()
    try:
        return load_dataset_csv(path, **kw)
    finally:
        if kept is not None:
            table.write_bytes(kept)


def _same(a: Dataset, b: Dataset) -> bool:
    return (a.xs.shape == b.xs.shape and a.xs.tobytes() == b.xs.tobytes()
            and a.ys.tobytes() == b.ys.tobytes())


_AWKWARD = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
            -1.7976931348623157e308, 2.2250738585072014e-308, 0.1 + 0.2]


@st.composite
def _datasets(draw):
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 40))
    value = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                      st.sampled_from(_AWKWARD))
    xs = draw(st.lists(value, min_size=n * dim, max_size=n * dim))
    ys = draw(st.lists(value, min_size=n, max_size=n))
    return Dataset(xs=np.reshape(xs, (n, dim)), ys=np.array(ys))


class TestDatasetTable:
    """The binary table `write_dataset_csv` leaves beside a dataset CSV:
    read instead of the CSV only while it is whole and keyed to it."""

    @given(data=_datasets())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_is_the_parse(self, tmp_path_factory, data):
        p = tmp_path_factory.getbasetemp() / "table.csv"
        digests = write_dataset_csv(data, p)
        assert digests == {p: file_digest(p),
                           table_path(p): file_digest(table_path(p))}
        through_table = load_dataset_csv(p)
        parsed = _parsed(p)
        assert _same(through_table, parsed) and _same(parsed, data)
        held = {}
        assert _same(load_dataset_csv(p, digests=held), parsed)
        assert held == {p: file_digest(p)}
        assert _same(load_dataset_csv(p, y_last=True), parsed)

    def test_table_is_what_is_read(self, tmp_path, monkeypatch):
        data = Dataset(xs=np.array([[-0.0, 5e-324, 1.7976931348623157e308]]),
                       ys=np.array([0.1 + 0.2]))
        p = tmp_path / "d.csv"
        write_dataset_csv(data, p)
        want = {p: file_digest(p)}
        monkeypatch.setattr("sgmoe.serialize._load_body",
                            lambda *a: pytest.fail("the CSV was parsed"))
        monkeypatch.setattr("sgmoe.serialize._Fnv1a",
                            lambda: pytest.fail("the CSV was FNV-hashed"))
        held = {}
        got = load_dataset_csv(p, digests=held)
        assert _same(got, data) and held == want
        # xs and ys are the table's payload, adopted as read, not copied
        assert got.xs.base is not None and got.xs.base is got.ys.base
        assert got.xs.flags.c_contiguous and not got.xs.flags.writeable

    def test_header_layout(self, tmp_path):
        rng = np.random.default_rng(3)
        data = Dataset(xs=rng.normal(size=(7, 2)), ys=rng.normal(size=7))
        p = tmp_path / "d.csv"
        write_dataset_csv(data, p)
        raw = table_path(p).read_bytes()
        size = _TABLE_HEADER.size
        magic, n_bytes, sha, fnv, rows, cols, crc = _TABLE_HEADER.unpack(
            raw[:size])
        assert (magic, n_bytes, rows, cols) == \
            (b"sgmoeT02", p.stat().st_size, 7, 3)
        assert sha == hashlib.sha256(p.read_bytes()).digest()
        assert f"{fnv:016x}" == file_digest(p)
        # columnar payload: xs row-major, then ys
        assert raw[size:] == data.xs.astype("<f8").tobytes() + \
            data.ys.astype("<f8").tobytes()
        zeroed = _TABLE_HEADER.pack(magic, n_bytes, sha, fnv, rows, cols, 0)
        assert crc == zlib.crc32(raw[size:], zlib.crc32(zeroed))

    @pytest.mark.parametrize("truth", ["g0_2", "g0_3"])
    def test_simulated_table_is_the_parse(self, tmp_path, truth):
        p = tmp_path / "d.csv"
        assert run_cli(["simulate", "--truth", truth, "--n", "5000",
                        "--seed", "3", "--out", str(p)]) == 0
        assert table_path(p) == tmp_path / "d.csv.f64"
        assert _same(load_dataset_csv(p), _parsed(p))

    @staticmethod
    def _spoil(case, p, tmp_path):
        """Damage the table of `p` (or the CSV itself) as `case` says."""
        table = table_path(p)
        raw = bytearray(table.read_bytes())
        size = _TABLE_HEADER.size
        if case == "csv-digit":
            text = p.read_bytes()
            at = text.index(b"1", text.index(b"\n"))
            p.write_bytes(text[:at] + b"2" + text[at + 1:])
        elif case == "truncated":
            table.write_bytes(raw[:-8])
        elif case == "payload-byte":
            raw[size + 17] ^= 0x01
            table.write_bytes(raw)
        elif case == "torn":
            # a newer table of the same shape, cut short after its header
            other = tmp_path / "other.csv"
            rng = np.random.default_rng(1)
            write_dataset_csv(Dataset(xs=rng.normal(size=(40, 1)),
                                      ys=rng.normal(size=40)), other)
            table.write_bytes(table_path(other).read_bytes()[:size]
                              + raw[size:])
        elif case == "wrong-width":
            # one column of twice the rows: same length, same CRC field
            magic, n_bytes, sha, fnv, rows, cols, crc = _TABLE_HEADER.unpack(
                raw[:size])
            raw[:size] = _TABLE_HEADER.pack(magic, n_bytes, sha, fnv,
                                            rows * cols, 1, crc)
            table.write_bytes(raw)
        elif case == "fnv-field":
            # the stored FNV-1a digest, which a run would record as the
            # CSV's, off by one bit: the key still holds, the CRC does not
            at = _TABLE_HEADER.size - 32
            raw[at] ^= 0x01
            table.write_bytes(raw)
        elif case == "v1":
            table.write_bytes(v1_table(p))
        elif case == "other-dataset":
            other = tmp_path / "other.csv"
            write_dataset_csv(Dataset(xs=np.ones((40, 1)), ys=np.ones(40)),
                              other)
            table.write_bytes(table_path(other).read_bytes())
        elif case == "junk":
            table.write_bytes(np.random.default_rng(2).bytes(len(raw)))
        elif case == "empty":
            table.write_bytes(b"")
        elif case == "directory":
            table.unlink()
            table.mkdir()

    @pytest.mark.parametrize("digest", [False, True])
    @pytest.mark.parametrize("case", ["csv-digit", "truncated",
                                      "payload-byte", "torn", "wrong-width",
                                      "other-dataset", "junk", "empty",
                                      "directory", "fnv-field", "v1"])
    def test_untrusted_table_falls_back_to_the_parse(self, tmp_path, case,
                                                     digest):
        # `digest`: whether the caller asks for the CSV's digest, which an
        # unused table must not give
        rng = np.random.default_rng(0)
        data = Dataset(xs=rng.normal(size=(40, 1)), ys=rng.normal(size=40))
        p = tmp_path / "d.csv"
        write_dataset_csv(data, p)
        self._spoil(case, p, tmp_path)
        held = {} if digest else None
        got = load_dataset_csv(p, digests=held)
        assert held in ({}, None)
        if case == "directory":
            table_path(p).rmdir()
        want = _parsed(p)
        assert _same(got, want)
        assert _same(want, data) != (case == "csv-digit")

    def test_table_leaves_header_errors_alone(self, tmp_path):
        p = tmp_path / "d.csv"
        write_dataset_csv(Dataset(xs=np.ones((3, 1)), ys=np.ones(3)), p)
        text = p.read_bytes()
        p.write_bytes(b"a1" + text[2:])   # same length, another header
        with pytest.raises(InputError, match="line 1"):
            load_dataset_csv(p)
        assert load_dataset_csv(p, y_last=True).n == 3


# dataset bodies for the reader differential test: mostly well-formed rows,
# mixed with what `float` and numpy's C reader treat differently

_FLOAT_TEXT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(
        lambda v: f"{v:.25e}"),
    st.integers(-10 ** 25, 10 ** 25).map(str),
    st.sampled_from([" 1.5 ", "\t-2\t", "+.5", "5.", "-0", "1e-400",
                     "4.9406564584124654e-324", "1.7976931348623158e308"]),
)
_ODD_TEXT = st.sampled_from([
    "1_0", "\u0661", "inf", "-inf", "nan", "1e500", '"1.0"', '"2,5"', '"3',
    '4"', "", " ", "abc", "0x1p3", "1e", "\xa07"])


@st.composite
def _dataset_text(draw):
    """A header, up to 10 well-formed rows and blank lines, and in half the
    files one or two odd lines put in among them; in a quarter of the
    files every row has the other width."""
    header_width = draw(st.sampled_from([2, 3]))
    width = draw(st.sampled_from([header_width] * 3 + [5 - header_width]))
    row = st.lists(_FLOAT_TEXT, min_size=width, max_size=width).map(
        ",".join)
    lines = draw(st.lists(st.one_of(row, st.just("")), max_size=10))
    if draw(st.booleans()):
        token = st.one_of(_FLOAT_TEXT, _ODD_TEXT)
        odd_line = st.one_of(
            st.tuples(row, st.integers(0, width - 1), _ODD_TEXT).map(
                lambda t: ",".join(t[0].split(",")[:t[1]] + [t[2]]
                                   + t[0].split(",")[t[1] + 1:])),
            st.lists(token, min_size=1, max_size=4).map(",".join),
            row.map(lambda r: r + ","),
            st.sampled_from([" ", "\t"]))
        for _ in range(draw(st.integers(1, 2))):
            lines.insert(draw(st.integers(0, len(lines))), draw(odd_line))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines) + 1, max_size=len(lines) + 1))
    header = ",".join([f"x{i + 1}" for i in range(header_width - 1)]
                      + ["y"])
    text = header + ends[0]
    for i, body in enumerate(lines):
        text += body
        if i + 1 < len(lines) or draw(st.booleans()):
            text += ends[i + 1]
    return text


def _read_outcome(read, path):
    try:
        data = read(path)
    except InputError as exc:
        return ("error", str(exc))
    return ("ok", data.xs.shape, data.xs.tobytes(), data.ys.tobytes())


class TestDatasetReader:
    """numpy's C reader with the `csv.reader` scan as its fallback reads
    exactly what a row-by-row `csv.reader` and `float` pass reads."""

    @given(text=_dataset_text())
    @settings(max_examples=300, deadline=None)
    def test_matches_row_by_row_reader(self, tmp_path_factory, text):
        # a fresh file: rewriting one just written waits on its writeback
        p = tmp_path_factory.mktemp("differential") / "d.csv"
        p.write_bytes(text.encode())
        want = _read_outcome(csv_reader_dataset, p)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = _read_outcome(load_dataset_csv, p)
        assert got == want
        assert not caught

    @pytest.mark.parametrize("body", ["", "\r\n", "\n\n\r"])
    def test_header_only_raises_without_warning(self, tmp_path, body):
        p = tmp_path / "d.csv"
        p.write_bytes(("x1,y\r\n" + body).encode())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(InputError, match="has a header but no data"):
                load_dataset_csv(p)
        assert not caught

    @pytest.mark.parametrize("token, value", [
        ("1_0", 10.0), ("\u0661", 1.0), ('"1.5"', 1.5)])
    def test_float_only_spellings_still_parse(self, tmp_path, token, value):
        # the C reader refuses these; the scan reads them as float does
        p = tmp_path / "d.csv"
        p.write_text(f"x1,y\n0.5,{token}\n")
        assert load_dataset_csv(p).ys[0] == value

    @pytest.mark.parametrize("line", [3, 9000])
    def test_undecodable_byte_is_an_input_error(self, tmp_path, line):
        rows = [b"0.5,1.0"] * 9000
        rows[line - 2] = b"\xff0.5,1.0"
        p = tmp_path / "d.csv"
        p.write_bytes(b"x1,y\r\n" + b"\r\n".join(rows) + b"\r\n")
        with pytest.raises(InputError, match="cannot read .*codec"):
            load_dataset_csv(p)


class TestDigests:
    def test_known_fnv_vectors(self):
        assert fnv1a64(b"") == "cbf29ce484222325"
        assert fnv1a64(b"a") == "af63dc4c8601ec8c"
        assert fnv1a64(b"foobar") == "85944171f73967e8"

    def test_file_digest(self, tmp_path):
        p = tmp_path / "blob"
        p.write_bytes(b"foobar")
        assert file_digest(p) == "85944171f73967e8"
        with pytest.raises(InputError):
            file_digest(tmp_path / "missing")

    @settings(max_examples=40, deadline=None)
    @given(length=st.sampled_from([0, 1, 7, 8, 9, 63, 64, 65, 65535, 65536,
                                   65537, 2 * 65536 + 3]),
           seed=st.integers(0, 2 ** 32 - 1), alphabet=st.integers(1, 256))
    def test_matches_byte_loop(self, length, seed, alphabet):
        # small alphabets give long runs of equal low bytes
        data = np.random.default_rng(seed).integers(
            0, alphabet, size=length, dtype=np.uint8).tobytes()
        assert fnv1a64(data) == fnv1a64_oracle(data)

    @settings(max_examples=100, deadline=None)
    @given(st.binary(max_size=300))
    def test_matches_byte_loop_on_short_inputs(self, data):
        assert fnv1a64(data) == fnv1a64_oracle(data)

    @pytest.mark.parametrize("length", [
        0, 1, _FNV_SMALL - 1, _FNV_SMALL, _FNV_SMALL + 1,
        _FNV_CHUNK + _FNV_SMALL - 1, _FNV_CHUNK + _FNV_SMALL])
    @pytest.mark.parametrize("piece", [1, 64, _FNV_SMALL - 1, _FNV_SMALL,
                                       _FNV_CHUNK])
    def test_small_pieces_match_byte_loop(self, length, piece):
        # pieces and chunk tails shorter than _FNV_SMALL take the per-byte
        # loop, longer ones the bit passes; one digest may mix both
        data = np.random.default_rng(length).integers(
            0, 256, size=length, dtype=np.uint8).tobytes()
        h = _Fnv1a()
        for start in range(0, length, piece):
            h.update(data[start:start + piece])
        assert h.hexdigest() == fnv1a64(data) == fnv1a64_oracle(data)

    @settings(max_examples=20, deadline=None)
    @given(length=st.sampled_from([_FNV_CHUNK - 1, _FNV_CHUNK, _FNV_CHUNK + 1,
                                   _FNV_CHUNK + 63, _FNV_CHUNK + 65,
                                   2 * _FNV_CHUNK + 37]),
           seed=st.integers(0, 2 ** 32 - 1),
           alphabet=st.sampled_from([1, 2, 3, 16]))
    def test_matches_byte_loop_at_chunk_edges(self, length, seed, alphabet):
        data = np.random.default_rng(seed).integers(
            0, alphabet, size=length, dtype=np.uint8).tobytes()
        assert fnv1a64(data) == fnv1a64_oracle(data)

    @settings(max_examples=30, deadline=None)
    @given(length=st.sampled_from([0, 5, _FNV_CHUNK - 1, _FNV_CHUNK,
                                   2 * _FNV_CHUNK + 37]),
           cuts=st.lists(st.integers(0, 2 * _FNV_CHUNK + 37), max_size=6),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_pieces_of_any_size_give_the_digest(self, length, cuts, seed):
        data = np.random.default_rng(seed).integers(
            0, 4, size=length, dtype=np.uint8).tobytes()
        h = _Fnv1a()
        bounds = sorted({0, length, *(c for c in cuts if c < length)})
        for start, end in zip(bounds, bounds[1:]):
            h.update(data[start:end])
        assert h.hexdigest() == fnv1a64(data)
        assert h.length == length

    def test_array_pieces_hash_their_bytes(self):
        table = np.random.default_rng(3).normal(size=(20000, 2))
        h = _Fnv1a()
        h.update(b"head")
        h.update(table)
        assert h.hexdigest() == fnv1a64(b"head" + table.tobytes())

    def test_file_digest_across_chunk_reads(self, tmp_path):
        # the last read holds 37 bytes, ending inside a 64-bit word
        data = np.random.default_rng(5).integers(
            0, 3, size=2 * _FNV_CHUNK + 37, dtype=np.uint8).tobytes()
        p = tmp_path / "blob"
        p.write_bytes(data)
        assert file_digest(p) == fnv1a64(data) == fnv1a64_oracle(data)

    def test_file_digest_memory_is_bounded(self, tmp_path):
        rng = np.random.default_rng(6)
        peaks = []
        for chunks in (1, 16):
            p = tmp_path / f"{chunks}.bin"
            p.write_bytes(rng.integers(0, 256, size=chunks * _FNV_CHUNK,
                                       dtype=np.uint8).tobytes())
            tracemalloc.start()
            try:
                file_digest(p)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 100_000
        assert peaks[1] < 2_500_000

    def test_simulated_dataset_digest(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run_cli(["simulate", "--truth", "g0_2", "--n", "100000",
                        "--seed", "0", "--out", str(out)]) == 0
        assert file_digest(out) == fnv1a64_oracle(out.read_bytes())


def _stamped_docs(tmp_path):
    """A valid document of each kind, by loader; with the path to the
    model record inside it, when it holds one."""
    model = g0_three_expert()
    save_model(model, tmp_path / "m.json")
    save_fit(FitResult(model=model, loglik_trace=(-1.0,), iterations=0,
                       converged=False), tmp_path / "f.json")
    save_dendrogram(build_path(model), tmp_path / "d.json")
    save_report(SelectionReport(method="dsc", per_level={2: -1.5, 3: 0.25},
                                chosen=2, epsilon_n=9.2), tmp_path / "r.json")
    save_manifest(RunManifest(command="fit", config={"K": 2}, seed=3,
                              version="v0.1.0", started="s", finished="f",
                              inputs={"d.csv": "0"}, outputs={}, argv=("fit",)),
                  tmp_path / "man.json")
    return {
        load_model: ("m.json", ()),
        load_model_or_fit: ("f.json", ("model",)),
        load_fit: ("f.json", ("model",)),
        load_dendrogram: ("d.json", ("levels", 1)),
        load_report: ("r.json", None),
        load_manifest: ("man.json", None),
    }


MODEL_EDITS = [
    (("dim",), "x"),
    (("dim",), None),
    (("atoms",), 5),
    (("atoms",), "ab"),
    (("atoms", 0), 5),
    (("atoms", 0), [1.0, 2.0]),
    (("atoms", 0, "omega1"), "abc"),
    (("atoms", 0, "omega1"), {"a": 1}),
    (("atoms", 0, "sigma"), [1.0]),
]
RECORD_EDITS = {
    load_report: [(("per_level",), {"two": 1.0}),
                  (("per_level",), [1.0, 2.0]),
                  (("chosen",), "x"),
                  # one level, one key: its decimal spelling, a level >= 1
                  (("per_level",), {"02": -1.5, "3": 0.25}),
                  (("per_level",), {" 2": -1.5, "3": 0.25}),
                  (("per_level",), {"+2": -1.5, "3": 0.25}),
                  (("per_level",), {"2": -1.5, "1_0": 0.25}),
                  (("per_level",), {"2": 1.0, "02": 3.0}),
                  (("per_level",), {"2": -1.5, "0": 0.25}),
                  (("per_level",), {"2": -1.5, "-1": 0.25})],
    load_manifest: [(("config",), 5), (("config",), "ab"),
                    (("config",), ["ab"]), (("config",), []),
                    (("inputs",), [["d.csv", "0"]]), (("seed",), "x"),
                    (("argv",), ["fit", 5]), (("inputs",), {"d.csv": 0})],
}


@pytest.mark.parametrize("loader, where, value", [
    pytest.param(loader, where, value, id=f"{loader.__name__}-"
                 f"{'.'.join(map(str, where))}={json.dumps(value)}")
    for loader, edits in [*((loader, MODEL_EDITS) for loader in (
        load_model, load_model_or_fit, load_fit, load_dendrogram)),
        *RECORD_EDITS.items()]
    for where, value in edits])
def test_malformed_record_is_an_input_error(tmp_path, loader, where, value):
    name, model_at = _stamped_docs(tmp_path)[loader]
    doc = json.loads((tmp_path / name).read_text())
    rec = doc
    for key in (model_at or ()) + where[:-1]:
        rec = rec[key]
    rec[where[-1]] = value
    (tmp_path / name).write_text(json.dumps(doc))
    with pytest.raises(InputError):
        loader(tmp_path / name)


@pytest.mark.parametrize("loader, field, value", [
    (load_fit, "converged", "false"),
    (load_fit, "converged", 1),
    (load_fit, "iterations", 2.5),
    (load_fit, "iterations", True),
    (load_report, "chosen", 2.9),
    (load_report, "chosen", "2"),
    (load_report, "epsilon_n", "x"),
    (load_report, "epsilon_n", 0.0),
    (load_report, "epsilon_n", True),
    (load_manifest, "seed", 2.9),
    (load_manifest, "seed", "3"),
    (load_manifest, "seed", True),
    (load_manifest, "command", 5),
    (load_manifest, "version", 1),
    (load_manifest, "argv", "ab"),
    (load_manifest, "outputs", {"f": 5}),
])
def test_scalar_field_must_have_its_json_type(tmp_path, loader, field, value):
    # no coercion: a bool field takes true/false only, a count (or a seed)
    # an integer, epsilon_n null or a finite number > 0, and a manifest's
    # texts, argv entries and digests only strings
    name, _ = _stamped_docs(tmp_path)[loader]
    doc = json.loads((tmp_path / name).read_text())
    doc[field] = value
    (tmp_path / name).write_text(json.dumps(doc))
    with pytest.raises(InputError, match=field):
        loader(tmp_path / name)


@pytest.mark.parametrize("loader, where, value", [
    (load_model, ("dim",), 1.9),
    (load_model, ("dim",), True),
    (load_model, ("dim",), "1"),
    (load_model, ("atoms", 0, "omega0"), "-2"),
    (load_model, ("atoms", 0, "omega1"), ["3"]),
    (load_model, ("atoms", 0, "a"), [True]),
    (load_model, ("atoms", 0, "b"), "0"),
    (load_model, ("atoms", 0, "sigma"), True),
    (load_fit, ("loglik_trace",), ["-1.0"]),
    (load_dendrogram, ("merges", 0, "pair"), [0.0, 2.0]),
    (load_dendrogram, ("merges", 0, "pair"), [0, 2.9]),
    (load_dendrogram, ("merges", 0, "level"), 3.0),
    (load_dendrogram, ("merges", 0, "height"), "4.296026558939219"),
    (load_dendrogram, ("heights", 0), "4.296026558939219"),
    (load_report, ("per_level", "2"), "-1.5"),
    (load_report, ("per_level", "3"), True),
], ids=lambda v: json.dumps(v) if not callable(v) else v.__name__)
def test_scalar_inside_a_record_is_not_coerced(tmp_path, loader, where,
                                               value):
    # each value once loaded as the number it spells or truncates to:
    # integers must be JSON integers, reals JSON numbers (not bool or str)
    name, _ = _stamped_docs(tmp_path)[loader]
    doc = json.loads((tmp_path / name).read_text())
    rec = doc
    for key in where[:-1]:
        rec = rec[key]
    rec[where[-1]] = value
    (tmp_path / name).write_text(json.dumps(doc))
    field = next(key for key in reversed(where)
                 if isinstance(key, str) and not key.isdigit())
    with pytest.raises(InputError, match=f"malformed: {field} must be"):
        loader(tmp_path / name)


def test_fit_iterations_must_match_its_trace(tmp_path):
    # em_fit records the start and one value per iteration
    name, _ = _stamped_docs(tmp_path)[load_fit]
    doc = json.loads((tmp_path / name).read_text())
    doc.update(iterations=7, loglik_trace=[-1.0, -0.5])
    (tmp_path / name).write_text(json.dumps(doc))
    with pytest.raises(InputError, match="fit of 7 iterations has a trace "
                       "of 2 values, not 8"):
        load_fit(tmp_path / name)
    doc.update(iterations=1)
    (tmp_path / name).write_text(json.dumps(doc))
    assert load_fit(tmp_path / name).iterations == 1


class TestManifest:
    def test_round_trip(self, tmp_path):
        man = RunManifest(command="simulate", config={"n": 10, "seed": 3},
                          seed=3, version="v0.1.0",
                          started="2026-08-15T10:00:00+00:00",
                          finished="2026-08-15T10:00:01+00:00",
                          inputs={}, outputs={"d.csv": "cbf29ce484222325"},
                          argv=("simulate", "--n", "10"))
        p = tmp_path / "run.manifest.json"
        save_manifest(man, p)
        assert load_manifest(p) == man

    def test_missing_field(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"format": "sgmoe/manifest/v1",
                                 "command": "x"}))
        with pytest.raises(InputError, match="missing field"):
            load_manifest(p)


class TestOverwrite:
    """Every output goes through `overwrite`: in place, then cut to size."""

    @staticmethod
    def _fresh_then_over_junk(tmp_path, write):
        """Bytes `write` gives on a fresh path and over a longer file."""
        fresh, used = tmp_path / "fresh", tmp_path / "used"
        write(fresh)
        used.write_bytes(b"#" * (fresh.stat().st_size + 10_000))
        write(used)
        return fresh.read_bytes(), used.read_bytes()

    def test_json_over_longer_file(self, tmp_path):
        fresh, used = self._fresh_then_over_junk(
            tmp_path, lambda p: save_model(g0_two_expert(), p))
        assert used == fresh
        assert json.loads(used)["format"] == "sgmoe/model/v1"

    def test_dataset_csv_over_longer_file(self, tmp_path):
        rng = np.random.default_rng(4)
        data = Dataset(xs=rng.normal(size=(30, 1)), ys=rng.normal(size=30))
        fresh, used = self._fresh_then_over_junk(
            tmp_path, lambda p: write_dataset_csv(data, p))
        assert used == fresh
        assert np.array_equal(load_dataset_csv(tmp_path / "used").ys,
                              data.ys)

    def test_table_over_longer_file(self, tmp_path):
        rows = [["level", "height"], [2, "0.5"], [1, ""]]
        fresh, used = self._fresh_then_over_junk(
            tmp_path, lambda p: _write_table(p, rows))
        assert used == fresh == b"level,height\r\n2,0.5\r\n1,\r\n"

    def test_symlink_writes_through(self, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_text("x" * 5000)
        link.symlink_to(target)
        save_model(g0_two_expert(), link)
        save_model(g0_two_expert(), tmp_path / "plain.json")
        assert link.is_symlink()
        assert target.read_bytes() == (tmp_path / "plain.json").read_bytes()

    def test_hard_link_shares_the_new_bytes(self, tmp_path):
        out, other = tmp_path / "out.txt", tmp_path / "other.txt"
        out.write_text("old old old")
        os.link(out, other)
        with overwrite(out) as fh:
            fh.write("new")
        assert other.read_text() == "new"
        assert os.stat(out).st_ino == os.stat(other).st_ino

    def test_mode_bits_kept(self, tmp_path):
        out = tmp_path / "private.json"
        out.write_text("x" * 5000)
        out.chmod(0o600)
        save_model(g0_two_expert(), out)
        assert out.stat().st_mode & 0o777 == 0o600
        assert load_model(out).n_atoms == 2

    def test_device_is_written_not_cut(self):
        save_model(g0_two_expert(), os.devnull)

    def test_directory_is_an_input_error(self, tmp_path):
        with pytest.raises(InputError, match=re.escape(f"cannot write {tmp_path}:")):
            save_model(g0_two_expert(), tmp_path)
        with pytest.raises(InputError, match="cannot write shown:"):
            with overwrite(tmp_path, name="shown"):
                pass
