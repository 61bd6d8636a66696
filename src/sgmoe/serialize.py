"""Artifact files: version-stamped JSON documents, dataset CSV, manifests.

Every JSON document carries a "format" stamp "sgmoe/<kind>/v<major>"; the
loaders refuse stamps whose kind or major version they do not understand.
Floats are written as repr writes them, the shortest decimal that reads
back as the same double (at most 17 significant digits), so finite doubles
survive a round trip bit-for-bit; dataset CSVs get that text from a numpy
kernel (`_csv_lines`). Dataset CSVs have no stamp: their header is their
schema.
Beside each dataset CSV it writes, `write_dataset_csv` leaves the same
table in binary (`table_path`), keyed to the CSV's SHA-256 and holding its
FNV-1a digest, which `load_dataset_csv` reads instead of parsing the CSV
while the key holds; it digests both files from the bytes it writes.

Every output file is opened by `overwrite`, which writes over an existing
file in place and cuts it at the end of the new bytes rather than
truncating it first.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import json
import math
import os
import re
import stat
import struct
import warnings
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path

from . import __version__
from .dendrogram import Dendrogram
from .errors import InputError, decodes, typed
from .estimation import FitResult
from .model import Dataset, MixingMeasure
from .selection import SelectionReport

import numpy as np

SUPPORTED_MAJOR = 1
TOOL_VERSION = f"v{__version__}"

_FORMAT_RE = re.compile(r"^sgmoe/([a-z_]+)/v(\d+)$")
_CSV_CHUNK_ROWS = 4096
# binary table: magic, the CSV's byte length, SHA-256 (the key) and FNV-1a
# digest, rows, columns and a CRC-32 of this header (CRC field zeroed) and
# the payload; then xs (rows x columns-1, row-major) and ys as little-endian
# float64. A first-version table (magic sgmoeF64, rows interleaved) is
# never read.
_TABLE_HEADER = struct.Struct("<8sQ32s4Q")
_TABLE_MAGIC = b"sgmoeT02"
_SHA_CHUNK = 1 << 20


def format_tag(kind: str) -> str:
    return f"sgmoe/{kind}/v{SUPPORTED_MAJOR}"


def _unreadable(path, exc: Exception) -> InputError:
    return InputError(
        f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}")


def _unwritable(path, exc: OSError) -> InputError:
    return InputError(f"cannot write {path}: {exc.strerror or exc}")


@contextlib.contextmanager
def overwrite(path, newline=None, *, name=None, binary=False):
    """A text (or, with `binary`, bytes) handle that writes `path` over its
    old bytes, in place.

    The file is opened without O_TRUNC and cut at the final position once
    the body has run: truncating a freshly written file first makes ext4
    wait for its pending writeback, tens of ms even for a small file, on
    every output of a rerun into the same paths. An existing file is
    written through: symlinks are followed, hard links shared, mode bits
    kept. A write cut short leaves the new prefix followed by the old
    tail (a truncating open would leave the prefix alone); neither is a
    valid file, and the manifest digests tell both from a finished one.
    Only a regular file is cut: devices and pipes cannot be, nor need to.
    An OSError is an InputError naming `name` (default `path`).
    """
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "wb" if binary else "w", newline=newline) as fh:
            yield fh
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()
    except OSError as exc:
        raise _unwritable(path if name is None else name, exc) from exc


def _write_json(doc: dict, path) -> bytes:
    """Write `doc`; returns the bytes written."""
    data = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
    with overwrite(path, binary=True) as fh:
        fh.write(data)
    return data


def _read_stamped(path) -> tuple[str, dict]:
    path = Path(path)
    if not path.exists():
        raise InputError(f"no such file: {path}")
    try:
        doc = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise _unreadable(path, exc) from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "format" not in doc:
        raise InputError(f"{path} has no format stamp")
    m = _FORMAT_RE.match(str(doc["format"]))
    if m is None:
        raise InputError(f"{path}: unrecognized format stamp {doc['format']!r}")
    kind, major = m.group(1), int(m.group(2))
    if major != SUPPORTED_MAJOR:
        raise InputError(
            f"{path}: unsupported major version {major} "
            f"(this tool reads v{SUPPORTED_MAJOR})")
    return kind, doc


def _read_json(path, kind: str) -> dict:
    got_kind, doc = _read_stamped(path)
    if got_kind != kind:
        raise InputError(f"{path} holds a {got_kind!r} document, not {kind!r}")
    return doc


def save_stamped(kind: str, payload: dict, path) -> str:
    """Write an arbitrary payload dict under a format stamp; returns the
    written file's digest."""
    return fnv1a64(_write_json({"format": format_tag(kind), **payload},
                               path))


def save_model(model: MixingMeasure, path) -> None:
    _write_json({"format": format_tag("model"), **model.to_dict()}, path)


def load_model(path) -> MixingMeasure:
    return MixingMeasure.from_dict(_read_json(path, "model"))


def save_fit(fit: FitResult, path) -> None:
    _write_json({"format": format_tag("fit"), **fit.to_dict()}, path)


def load_fit(path) -> FitResult:
    return FitResult.from_dict(_read_json(path, "fit"))


def load_model_or_fit(path) -> MixingMeasure:
    """Accept either a model document or a fit document holding one."""
    kind, doc = _read_stamped(path)
    if kind == "model":
        return MixingMeasure.from_dict(doc)
    if kind == "fit":
        return FitResult.from_dict(doc).model
    raise InputError(f"{path} holds a {kind!r} document, expected a model "
                     "or fit")


def save_dendrogram(dg: Dendrogram, path) -> None:
    _write_json({"format": format_tag("dendrogram"), **dg.to_dict()}, path)


def load_dendrogram(path) -> Dendrogram:
    return Dendrogram.from_dict(_read_json(path, "dendrogram"))


def save_report(report: SelectionReport, path) -> None:
    _write_json({"format": format_tag("selection"), **report.to_dict()}, path)


def load_report(path) -> SelectionReport:
    return SelectionReport.from_dict(_read_json(path, "selection"))


# ---------------------------------------------------------------------------
# dataset CSV

def dataset_header(dim: int) -> list[str]:
    return [f"x{i + 1}" for i in range(dim)] + ["y"]


def table_path(path) -> Path:
    """The binary table beside the dataset CSV `path`: its name with a
    suffix appended, so it can equal no file named by replacing a suffix."""
    return Path(f"{path}.f64")


def write_dataset_csv(data: Dataset, path) -> dict[Path, str]:
    """Header x1..xD,y; each value as repr writes it: the shortest decimal
    that reads back as the same double (at most 17 significant digits).

    The bytes are those of `csv.writer`'s default dialect: comma-separated,
    CRLF line ends, nothing quoted (no float repr holds a comma or quote).
    The text is made by `_csv_lines` in numpy, one block of rows at a time.
    Then `table_path(path)` gets the same table in binary, keyed to the
    CSV's length and SHA-256, holding its FNV-1a digest and checked by a
    CRC-32. Both files are hashed from the bytes as they are written, and
    their `file_digest` values are returned by path, so nothing is read
    back.
    """
    # imported here: OpenSSL costs memory in runs that hash nothing
    import hashlib
    csv_fnv, csv_sha = _Fnv1a(), hashlib.sha256()
    with overwrite(path, binary=True) as fh:
        def write(chunk):
            fh.write(chunk)
            csv_fnv.update(chunk)
            csv_sha.update(chunk)

        write((",".join(dataset_header(data.dim)) + "\r\n").encode("ascii"))
        for start in range(0, data.n, _CSV_CHUNK_ROWS):
            rows = slice(start, start + _CSV_CHUNK_ROWS)
            write(_csv_lines(np.column_stack((data.xs[rows], data.ys[rows]))))
    csv_digest = csv_fnv.hexdigest()
    xs = np.ascontiguousarray(data.xs, dtype="<f8")
    ys = np.ascontiguousarray(data.ys, dtype="<f8")
    key = (_TABLE_MAGIC, csv_fnv.length, csv_sha.digest(),
           int(csv_digest, 16), data.n, data.dim + 1)
    header = _TABLE_HEADER.pack(*key, _table_crc(key, xs, ys))
    table_hash = _Fnv1a()
    with overwrite(table_path(path), binary=True) as fh:
        for part in (header, xs, ys):
            fh.write(part)
            table_hash.update(part)
    return {Path(path): csv_digest,
            table_path(path): table_hash.hexdigest()}


# repr writes a double x as the shortest decimal that reads back as x (of
# two such, the nearer), in fixed notation when 1e-4 <= |x| < 1e16.
# `_csv_lines` finds those digits in numpy. For such x, k = 16 -
# floor(log10 |x|) puts V = |x| 10^k in (10^16, 10^17); 10^k is exact for
# k <= 22, and Dekker's product (numpy has no fused multiply-add) splits V
# exactly into an integer P and a remainder e, taken to |e| <= 1/2. The
# decimals that read back as x lie within u = 10^k ulp(x) / 2 of V, which is
# exact too. So the digits are those of the multiple of 10^(17-n) nearest V,
# for the least n whose nearest multiple lies within u. n = 17 always does;
# n = 16, 15, ... are tried in turn, each on the values the one before kept.
# A distance is one rounding from exact, so a test that falls within a
# relative _REPR_MARGIN of its bound (u, or a tie at half a step) is left
# undecided; the bound is loose enough to cover how the nearest multiple is
# picked too (the steps here are at most 10^5, and u > 0.55). repr itself
# writes the values left undecided, and 0, subnormals, powers of two (whose
# interval is lopsided), values outside the fixed range, and those with 12
# digits or fewer.
#
# Each value gets 44 bytes: two 20-byte copies of three characters and the
# 17 digits (zero-padded past n, four at a time from a table), then ",\n" or
# "\r\n". The first copy starts "-00" and ends in "." in place of its last
# digit, which an integer part never reaches; the second starts "000". A
# row of `_line_masks`, picked by sign, decimal point, length and column,
# keeps the sign, the integer part from the first copy ("0" or digits),
# its ".", the fraction from the second copy and the terminator. A value
# repr writes goes over the first 24 bytes, under a mask row of its length.

_REPR_MARGIN = 2.0 ** -26
_SPLIT = 134217729.0                        # 2^27 + 1, Veltkamp's splitter
_POW10 = 10.0 ** np.arange(23)
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_EXPONENT = np.uint64(0x7ff << 52)
_MANTISSA = np.uint64((1 << 52) - 1)
_HALF_ULP = np.uint64(53 << 52)             # exponent offset of ulp(x) / 2
_FIELD_WORDS = 11                           # two 5-word copies, terminator
_REPR_ROWS = 2 * 20 * 5 * 2                 # sign, point, end, last column


@functools.cache
def _digits4() -> np.ndarray:
    """The ASCII digits of 0000..9999 as little-endian uint32 words."""
    d = np.arange(10_000)
    digits = np.stack([d // 1000, d // 100 % 10, d // 10 % 10, d % 10], 1)
    return (digits.astype(np.uint8) + ord("0")).view("<u4").ravel()


@functools.cache
def _line_masks() -> np.ndarray:
    """Which of a value's 44 bytes `_csv_lines` keeps. Row (((negative *
    20 + decimal point + 3) * 5 + end - 13) * 2 + last column), with end =
    max(digits, decimal point + 1); then row _REPR_ROWS + 2 * length + last
    column for a value written by repr."""
    masks = np.zeros((_REPR_ROWS + 50, 4 * _FIELD_WORDS), dtype=bool)
    for row, (neg, point, end, last) in zip(masks, np.ndindex(2, 20, 5, 2)):
        point, end = point - 3, end + 13
        row[0] = neg
        row[2] = point <= 0
        row[3:3 + point] = True
        row[19] = True
        row[23 + point:23 + max(end, point + 1)] = True
        row[40:42] = True, last
    for length, rows in enumerate(masks[_REPR_ROWS:].reshape(25, 2, -1)):
        rows[:, :length] = True
        rows[:, 40] = True
        rows[1, 41] = True
    return masks


def _csv_lines(table: np.ndarray) -> np.ndarray:
    """The CSV lines of a (rows, columns) float64 table, as uint8 bytes:
    each value as repr writes it (see the note above), comma-separated,
    CRLF-ended."""
    m, cols = table.size, table.shape[1]
    v = table.ravel()
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e16) & (v.view(np.uint64) & _MANTISSA != 0)
    np.copyto(a, 1.5, where=~fast)     # a stand-in that every step accepts
    k = np.log10(a)
    np.floor(k, out=k)
    k = 16 - k.astype(np.intp)
    hi = a * _POW10[k]
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    ph, pl = _POW10_HI[k], _POW10_LO[k]
    e = ah * ph - hi
    e += ah * pl
    e += al * ph
    e += al * pl
    fast &= (hi > 1e16) & (hi < 1e17)
    u = ((a.view(np.uint64) & _EXPONENT) - _HALF_ULP).view(float)
    u *= _POW10[k]
    del a, c, ah, al, ph, pl
    step = np.rint(e)
    e -= step
    fast &= np.abs(e) < 0.5 * (1 - _REPR_MARGIN)
    digits = hi.astype(np.int64)
    digits += step.astype(np.int64)
    del hi, step
    # the n-digit multiple nearest V is digits - offset
    count = np.full(m, 17)
    offset = np.zeros(m, dtype=np.int64)
    kept, kd, ke, ku = np.arange(m), digits, e, u
    for n in range(16, 11, -1):
        s = 10 ** (17 - n)
        near = kd - kd // s * s
        near = near.astype(float)
        dist = near + ke
        dist *= 1.0 / s
        np.rint(dist, out=dist)
        near -= dist * s
        np.add(near, ke, out=dist)
        np.abs(dist, out=dist)
        inside = (dist < ku * (1 - _REPR_MARGIN)) & \
            (dist < s / 2 * (1 - _REPR_MARGIN))
        fast[kept[~inside & (dist <= ku * (1 + _REPR_MARGIN))]] = False
        inside = np.flatnonzero(inside)
        kept = kept[inside]
        if not kept.size:
            break
        offset[kept] = near[inside]
        count[kept] = n
        kd, ke, ku = kd[inside], ke[inside], ku[inside]
    else:
        fast[kept] = False
    del e, u, kd, ke, ku, near, dist
    digits -= offset
    # the 4-digit groups d, g1, g2, g3, g4 of the 17 digits
    g2 = digits // 10 ** 8
    g4 = digits - g2 * 10 ** 8
    g1 = g2 // 10_000
    g2 -= g1 * 10_000
    d = g1 // 10_000
    g1 -= d * 10_000
    g3 = g4 // 10_000
    g4 -= g3 * 10_000
    table4 = _digits4()
    words = np.empty((m, _FIELD_WORDS), dtype="<u4")
    for col, group in ((1, g1), (2, g2), (3, g3), (4, g4)):
        words[:, col + 5] = table4.take(group)
        words[:, col] = words[:, col + 5]
    words[:, 4] &= 0x00ffffff
    words[:, 4] |= ord(".") << 24
    lead = d.astype("<u4")
    lead <<= 24
    lead |= 0x30303030                 # "000" and the first digit
    words[:, 5] = lead
    lead ^= ord("0") ^ ord("-")        # "-00" and the first digit
    words[:, 0] = lead
    words[:, 10] = int.from_bytes(b",\n", "little")
    words[cols - 1::cols, 10] = int.from_bytes(b"\r\n", "little")
    del digits, offset, g1, g2, g3, g4, d, lead
    key = np.maximum(count, 17 - k)
    key += 5 * (20 - k) - 13
    key += 100 * (v < 0)
    key *= 2
    key[cols - 1::cols] += 1
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = [repr(x).encode() for x in v[slow].tolist()]
        lengths = np.array([len(t) for t in text])
        key[slow] = _REPR_ROWS + 2 * lengths + (slow % cols == cols - 1)
        at = np.repeat(4 * _FIELD_WORDS * slow - np.cumsum(lengths)
                       + lengths, lengths) + np.arange(lengths.sum())
        words.view(np.uint8).ravel()[at] = np.frombuffer(b"".join(text),
                                                         dtype=np.uint8)
    return words.view(np.uint8)[_line_masks().take(key, axis=0)]


def _table_crc(key, *payload) -> int:
    """CRC-32 of a table header whose fields are `key` and whose CRC is 0,
    then of the payload's parts."""
    crc = zlib.crc32(_TABLE_HEADER.pack(*key, 0))
    for part in payload:
        crc = zlib.crc32(part, crc)
    return crc


def load_dataset_csv(path, y_last: bool = False, *,
                     digests: dict | None = None) -> Dataset:
    """Read a dataset table; the response is the final column.

    By default the header must be exactly x1..xD,y. With y_last=True any
    column names are accepted (external tables), the last column is taken
    as the response. Blank lines are skipped. Errors carry 1-based file
    line numbers; the header is line 1.

    Once the header has passed, the binary table beside the CSV
    (`table_path`) is returned, without a copy, when it is whole and keyed
    to this CSV; then the CSV's FNV-1a digest that the table holds is put
    in `digests`, if given, under `Path(path)`. The table is never written
    or required: in every other case the body is parsed and `digests` is
    left alone. It goes through numpy's C reader first. Where that does
    not give a non-empty, finite table of the header's width, a
    `csv.reader` scan reads it again; it accepts everything `float` does
    (`1_0`, quoted fields) and names the first bad line.
    """
    path = Path(path)
    if not path.exists():
        raise InputError(f"no such file: {path}")
    try:
        with open(path, newline="") as fh:
            width = _read_header(csv.reader(fh), path, y_last)
            found = _read_table(path, os.fstat(fh.fileno()).st_size, width)
            if found is not None:
                xs, ys, digest = found
                if digests is not None:
                    digests[path] = digest
                return Dataset._adopt(xs, ys)
            table = _load_body(fh, width)
            if table is None:
                fh.seek(0)
                reader = csv.reader(fh)
                next(reader)
                table = _scan_body(reader, width, path)
    except (OSError, UnicodeDecodeError) as exc:
        raise _unreadable(path, exc) from exc
    # each column copied once, contiguous, into arrays the Dataset owns
    return Dataset._adopt(np.ascontiguousarray(table[:, :-1]),
                          np.ascontiguousarray(table[:, -1]))


def _read_table(path, size: int, width: int):
    """xs, ys and the CSV's FNV-1a digest from the binary table beside the
    CSV `path` (`size` bytes), or None unless its header is this version's,
    names this CSV's length and `width` columns, its length fits the
    header, the CSV's SHA-256 equals its key and its CRC-32 holds. A
    cut-short overwrite (new prefix, old tail) fails the CRC."""
    try:
        with open(table_path(path), "rb") as fh:
            head = fh.read(_TABLE_HEADER.size)
            if len(head) != _TABLE_HEADER.size:
                return None
            *key, crc = _TABLE_HEADER.unpack(head)
            magic, csv_size, csv_sha, csv_fnv, rows, cols = key
            count = rows * cols
            if (magic, csv_size, cols) != (_TABLE_MAGIC, size, width) or \
                    os.fstat(fh.fileno()).st_size != len(head) + 8 * count:
                return None
            if _sha256(path) != csv_sha:
                return None
            payload = np.fromfile(fh, dtype="<f8", count=count)
    except OSError:
        return None
    if len(payload) != count or _table_crc(key, payload) != crc:
        return None
    split = rows * (cols - 1)
    return (payload[:split].reshape(rows, cols - 1), payload[split:],
            f"{csv_fnv:016x}")


def _sha256(path) -> bytes:
    """SHA-256 of a file's bytes."""
    import hashlib
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(_SHA_CHUNK):
            h.update(chunk)
    return h.digest()


def _read_header(reader, path, y_last: bool) -> int:
    """Check the header row; returns the table width D+1."""
    header = next(reader, None)
    if header is None:
        raise InputError(f"{path} is empty")
    if len(header) < 2:
        raise InputError(f"{path} line 1: need at least one covariate and y")
    dim = len(header) - 1
    if not y_last and header != dataset_header(dim):
        raise InputError(f"{path} line 1: expected header "
                         f"{','.join(dataset_header(dim))}")
    return len(header)


def _load_body(fh, width: int) -> np.ndarray | None:
    """The rest of `fh` by `np.loadtxt`, or None unless that gives a
    non-empty, all-finite (rows, width) table."""
    with warnings.catch_warnings():
        # an empty body warns "input contained no data"; the scan reports it
        warnings.simplefilter("ignore", UserWarning)
        try:
            table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except UnicodeDecodeError:
            raise
        except ValueError:
            return None
    if len(table) == 0 or table.shape[1] != width \
            or not np.isfinite(table).all():
        return None
    return table


def _scan_body(reader, width: int, path) -> np.ndarray:
    """The remaining rows of a `csv.reader`, chunk by chunk; the header was
    file line 1."""
    parts, line = [], 2
    while chunk := list(itertools.islice(reader, _CSV_CHUNK_ROWS)):
        parts.append(_parse_rows(chunk, line, width, path))
        line += len(chunk)
    table = np.concatenate([np.empty((0, width)), *parts])
    if len(table) == 0:
        raise InputError(f"{path} has a header but no data rows")
    return table


def _parse_rows(chunk: list, first_line: int, width: int, path) -> np.ndarray:
    """The non-blank rows of `chunk` as a (rows, width) float array, or an
    error naming the first bad line (`first_line` is the file line of
    chunk[0])."""
    table = []
    for line, row in enumerate(chunk, start=first_line):
        if not row:
            continue
        if len(row) != width:
            raise InputError(
                f"{path} line {line}: expected {width} columns, got {len(row)}")
        try:
            vals = [float(tok) for tok in row]
        except ValueError as exc:
            raise InputError(f"{path} line {line}: {exc}") from exc
        if not all(math.isfinite(v) for v in vals):
            raise InputError(f"{path} line {line}: non-finite value")
        table.append(vals)
    return np.array(table).reshape(-1, width)


# ---------------------------------------------------------------------------
# digests and manifests
#
# FNV-1a steps h <- (h XOR b) * P mod 2^64 per byte b. The XOR only touches
# the low byte l = h mod 256, so h XOR b = h + d with d = (l XOR b) - l, and
# over a block the hash is linear: h_n = h_0 P^n + sum_i d_i P^(n-i). The
# low bytes follow their own recurrence l' = (l XOR b) * (P mod 256) mod 256;
# as P is odd, bit k of l' is bit k of l, XOR bit k of b, XOR bit k of
# ((l XOR b) mod 2^k) * (P mod 256). So bit k of every l_i is a prefix XOR
# once bits 0..k-1 are known. The input is hashed in chunks of at most
# _FNV_CHUNK bytes: eight vectorized bit passes per chunk give its low
# bytes, then one wrapping uint64 dot product per _FNV_BLOCK (64 KiB) of it
# against the power table. Scalar arithmetic stays in python ints. The
# passes cost about 100 us whatever the length, so a chunk shorter than
# _FNV_SMALL bytes is hashed by the plain per-byte loop instead.

_FNV_OFFSET = 0xcbf29ce484222325
_FNV_PRIME = 0x100000001b3
_U64 = 1 << 64
_FNV_BLOCK = 1 << 16
_FNV_CHUNK = 1 << 18
_FNV_SMALL = 2048


def _fnv_powers() -> np.ndarray:
    """P^B, P^(B-1), ..., P^1 mod 2^64 as uint64, B = _FNV_BLOCK (512 KB,
    0.1 ms to build: each `_Fnv1a` builds its own on its first long chunk
    and drops it with itself, so no run holds it between digests)."""
    powers = np.empty(_FNV_BLOCK, dtype=np.uint64)
    powers[-1] = _FNV_PRIME
    n = 1
    while n < _FNV_BLOCK:
        powers[-2 * n:-n] = powers[-n:] * np.uint64(pow(_FNV_PRIME, n, _U64))
        n *= 2
    return powers


def _fnv1a64_chunk(h: int, chunk, powers) -> int:
    """FNV-1a state `h` after the bytes of `chunk` (at most _FNV_CHUNK);
    `powers` is `_fnv_powers()`, or None if `chunk` is under _FNV_SMALL."""
    n = len(chunk)
    if n < _FNV_SMALL:
        for byte in bytes(chunk):
            h = ((h ^ byte) * _FNV_PRIME) & (_U64 - 1)
        return h
    b = np.frombuffer(chunk, dtype=np.uint8)
    if n % 64:
        # padded to whole 64-bit words; padding only alters positions >= n
        b = np.concatenate((b, np.zeros(-n % 64, dtype=np.uint8)))
    low = np.zeros_like(b)
    x = np.empty_like(b)
    for k in range(8):
        # x_i = bit k of b_i XOR of ((l_i XOR b_i) mod 2^k) * (P mod 256)
        bit = np.uint8(1 << k)
        np.bitwise_xor(low, b, out=x)
        x &= bit - np.uint8(1)
        x *= np.uint8(_FNV_PRIME & 0xff)
        x ^= b
        x &= bit
        # bit k of l_i is the exclusive prefix XOR of x, seeded with bit k
        # of h: XOR inside each 64-bit word, then carry the words' parities
        c = np.packbits(x, bitorder="little").view("<u8")
        w = c.copy()
        for s in (1, 2, 4, 8, 16, 32):
            w ^= w << np.uint64(s)
        parity = w >> np.uint64(63)
        carry = np.bitwise_xor.accumulate(parity)
        carry ^= parity
        carry ^= np.uint64((h >> k) & 1)
        w ^= c
        w ^= np.uint64(0) - carry
        plane = np.unpackbits(w.view(np.uint8), bitorder="little")
        plane *= bit
        low |= plane
    d = np.empty(min(n, _FNV_BLOCK), dtype=np.uint64)
    for start in range(0, n, _FNV_BLOCK):
        m = min(n - start, _FNV_BLOCK)
        lo, dm = low[start:start + m], d[:m]
        np.bitwise_xor(lo, b[start:start + m], out=dm)
        dm -= lo
        tail = int(np.dot(dm, powers[_FNV_BLOCK - m:]))
        h = (h * pow(_FNV_PRIME, m, _U64) + tail) % _U64
    return h


class _Fnv1a:
    """Running FNV-1a state over bytes fed in pieces of any size, each
    hashed as it arrives, at most _FNV_CHUNK bytes at a time: the hash is
    sequential, so any split gives the same digest. `length` counts the
    bytes fed."""

    def __init__(self):
        self._h = _FNV_OFFSET
        self._powers = None
        self.length = 0

    def update(self, data) -> None:
        view = memoryview(data).cast("B")
        self.length += len(view)
        for start in range(0, len(view), _FNV_CHUNK):
            chunk = view[start:start + _FNV_CHUNK]
            if self._powers is None and len(chunk) >= _FNV_SMALL:
                self._powers = _fnv_powers()
            self._h = _fnv1a64_chunk(self._h, chunk, self._powers)

    def hexdigest(self) -> str:
        return f"{self._h:016x}"


def fnv1a64(data: bytes) -> str:
    """64-bit FNV-1a hash as 16 hex digits."""
    h = _Fnv1a()
    h.update(data)
    return h.hexdigest()


def file_digest(path) -> str:
    """fnv1a64 of a file's bytes, read one chunk at a time."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"no such file: {path}")
    h = _Fnv1a()
    try:
        with open(path, "rb") as fh:
            while chunk := fh.read(_FNV_CHUNK):
                h.update(chunk)
    except OSError as exc:
        raise _unreadable(path, exc) from exc
    return h.hexdigest()


@dataclass(frozen=True)
class RunManifest:
    """Provenance record written next to every file-producing CLI run."""

    command: str
    config: dict
    seed: int | None
    version: str
    started: str
    finished: str
    inputs: dict           # file name -> fnv1a64 digest
    outputs: dict
    argv: tuple[str, ...]

    def to_dict(self) -> dict:
        return {**asdict(self), "argv": list(self.argv)}

    @classmethod
    @decodes("manifest")
    def from_dict(cls, d: dict) -> "RunManifest":
        def text(key):
            return typed(d[key], str, key)

        def digests(key):
            return {p: typed(v, str, f"{key}[{p!r}]")
                    for p, v in typed(d[key], dict, key).items()}

        seed = d["seed"]
        return cls(command=text("command"),
                   config=dict(typed(d["config"], dict, "config")),
                   seed=None if seed is None else typed(seed, int, "seed"),
                   version=text("version"), started=text("started"),
                   finished=text("finished"), inputs=digests("inputs"),
                   outputs=digests("outputs"),
                   argv=tuple(typed(a, str, "argv")
                              for a in typed(d["argv"], list, "argv")))


def save_manifest(manifest: RunManifest, path) -> None:
    _write_json({"format": format_tag("manifest"), **manifest.to_dict()},
                path)


def load_manifest(path) -> RunManifest:
    return RunManifest.from_dict(_read_json(path, "manifest"))
