import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schattenmc import data
from schattenmc.data import (
    FORMATS,
    DataFormatError,
    GrayImage,
    RatingSet,
    corrupt_image,
    gen_synthetic,
    parse_movielens,
    read_pgm,
    split_train_test,
    write_pgm,
)
from schattenmc.palm import SolverConfig, solve
from schattenmc.quasinorm import Regularizer
from schattenmc.rng import philox_rng
from schattenmc.sparse_obs import SparseObservations

from conftest import philox

ML_FIXTURE = """1::10::4.5::978300760
1::11::3.0::978300761
2::10::2.5::978300762
2::12::5.0::978300763
3::11::1.0::978300764
3::13::4.0::978300765
4::10::3.5::978300766
4::13::2.0::978300767
5::12::4.0::978300768
5::10::1.5::978300769
"""


INT64 = st.integers(-(2**63), 2**63 - 1)


@st.composite
def id_lists(draw):
    """int64 ids: a few values near one base, negatives and the int64 edges
    included (a presence table covers them), or values anywhere in int64."""
    if draw(st.booleans()):
        base = draw(INT64 | st.sampled_from([-(2**63), -1, 0, 2**63 - 1]))
        offsets = draw(st.lists(st.integers(0, 40), min_size=1, max_size=40))
        return [base - o if base > 0 else base + o for o in offsets]
    return draw(st.lists(INT64, min_size=1, max_size=40))


def random_ratings_text(seed, users=40, items=25, lines=500):
    """Unsorted "user::item::rating" lines over sparse ids, duplicates included."""
    rng = philox(seed)
    u = rng.integers(1, 3 * users, size=lines)
    i = rng.integers(1, 3 * items, size=lines)
    r = rng.integers(1, 6, size=lines)
    return "".join(f"{a}::{b}::{c}\n" for a, b, c in zip(u, i, r))


def keys(obs):
    return obs.row_idx * obs.n + obs.col_idx


class TestGenSynthetic:
    def test_noiseless_full_sampling_reconstructs(self):
        inst = gen_synthetic(8, 6, 2, 0.0, 1.0, 3)
        obs = inst.observations
        assert obs.nnz == 48
        assert np.array_equal(
            obs.values, inst.ground_truth[obs.row_idx, obs.col_idx]
        )

    def test_observation_count(self):
        inst = gen_synthetic(100, 100, 5, 0.0, 0.2, 4)
        assert inst.observations.nnz == 2000

    def test_deterministic(self):
        a = gen_synthetic(20, 15, 3, 0.1, 0.3, 5)
        b = gen_synthetic(20, 15, 3, 0.1, 0.3, 5)
        assert np.array_equal(a.ground_truth, b.ground_truth)
        assert np.array_equal(a.observations.values, b.observations.values)
        c = gen_synthetic(20, 15, 3, 0.1, 0.3, 6)
        assert not np.array_equal(a.observations.values, c.observations.values)

    def test_noise_is_additive_on_observed(self):
        clean = gen_synthetic(12, 12, 2, 0.0, 0.5, 7)
        noisy = gen_synthetic(12, 12, 2, 0.2, 0.5, 7)
        assert np.array_equal(clean.observations.row_idx, noisy.observations.row_idx)
        diff = noisy.observations.values - clean.observations.values
        assert 0.05 < np.std(diff) < 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_synthetic(5, 5, 6, 0.0, 0.5, 0)
        with pytest.raises(ValueError):
            gen_synthetic(5, 5, 2, 0.0, 0.0, 0)
        with pytest.raises(ValueError):
            gen_synthetic(5, 5, 2, -0.1, 0.5, 0)
        for nf in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                gen_synthetic(5, 5, 2, nf, 0.5, 0)

    @pytest.mark.parametrize(
        "sizes, name",
        [((10, 10, 2.5), "r"), ((10.0, 10, 2), "m"), ((10, 10.0, 2), "n"), ((10, 10, True), "r")],
    )
    def test_rejects_non_integer_sizes(self, sizes, name):
        with pytest.raises(ValueError, match=f"^{name} must be a positive integer"):
            gen_synthetic(*sizes, 0.0, 0.5, 0)


class TestParseMovielens:
    def test_single_line(self):
        rs = parse_movielens(io.StringIO("1::10::4.5::978300760\n"))
        assert rs.nnz == 1
        assert rs.m == 1 and rs.n == 1
        assert rs.row_idx[0] == 0 and rs.col_idx[0] == 0
        assert rs.values[0] == 4.5
        assert rs.user_ids.tolist() == [1]
        assert rs.item_ids.tolist() == [10]

    def test_duplicate_last_wins(self):
        rs = parse_movielens(io.StringIO("1::10::4.0\n1::10::2.0\n2::10::5.0\n"))
        assert rs.duplicate_count == 1
        assert rs.nnz == 2
        first_user_val = rs.values[rs.row_idx == 0]
        assert first_user_val.tolist() == [2.0]

    def test_fixture_hand_checked(self):
        rs = parse_movielens(io.StringIO(ML_FIXTURE))
        assert rs.nnz == 10
        assert rs.m == 5 and rs.n == 4
        assert rs.values.min() == 1.0 and rs.values.max() == 5.0
        # user 1 rated items 10 and 11; ids remap sorted: 10->0, 11->1
        lookup = {
            (int(u), int(i)): float(v)
            for u, i, v in zip(rs.row_idx, rs.col_idx, rs.values)
        }
        assert lookup[(0, 0)] == 4.5
        assert lookup[(0, 1)] == 3.0
        assert lookup[(4, 2)] == 4.0

    def test_tab_format(self):
        rs = parse_movielens(io.StringIO("3\t7\t2.5\t123\n"), fmt="tab")
        assert rs.nnz == 1 and rs.values[0] == 2.5

    def test_csv_header_skipped(self):
        rs = parse_movielens(
            io.StringIO("userId,movieId,rating,timestamp\n1,2,3.0,4\n"), fmt="csv"
        )
        assert rs.nnz == 1

    def test_malformed_line_carries_number(self):
        with pytest.raises(DataFormatError) as err:
            parse_movielens(io.StringIO("1::10::4.0\nbroken line\n"))
        assert err.value.line_number == 2
        assert "line 2" in str(err.value)

    def test_wrong_separator_reports_line(self):
        with pytest.raises(DataFormatError) as err:
            parse_movielens(io.StringIO("1::10::4.0\n"), fmt="csv")
        assert err.value.line_number == 1

    def test_empty_input(self):
        with pytest.raises(DataFormatError):
            parse_movielens(io.StringIO(""))

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            parse_movielens(io.StringIO("x"), fmt="pipe")

    def test_is_a_sorted_observation_set(self):
        rs = parse_movielens(io.StringIO(random_ratings_text(1)))
        assert isinstance(rs, SparseObservations)
        assert rs.duplicate_count > 0
        assert np.all(np.diff(keys(rs)) > 0)
        assert rs.row_counts.sum() == rs.nnz
        assert (rs.m, rs.n) == (rs.user_ids.size, rs.item_ids.size)

    def test_rating_set_keeps_the_layout_checks(self):
        ids = np.arange(2)
        with pytest.raises(ValueError, match="sorted"):
            RatingSet(2, 2, [1, 0], [0, 0], [1.0, 2.0], ids, ids, 0)
        with pytest.raises(ValueError, match="finite"):
            RatingSet(2, 2, [0], [0], [np.nan], ids, ids, 0)

    def test_id_outside_int64_carries_number(self):
        for text in ("1::99999999999999999999::3\n", "1::2::3\n-9223372036854775809::2::3\n"):
            with pytest.raises(DataFormatError) as err:
                parse_movielens(io.StringIO(text))
            assert err.value.line_number == text.count("\n")
        edge = "9223372036854775807::-9223372036854775808::1\n"
        rs = parse_movielens(io.StringIO(edge))
        assert rs.user_ids.tolist() == [2**63 - 1] and rs.item_ids.tolist() == [-(2**63)]

    @pytest.mark.parametrize("scale", [1, 10**12])  # dense ids, and ids spread wide
    def test_duplicates_keep_the_last_line(self, scale):
        rng = philox(9)
        size = 2000  # over 35 x 12 keys: most lines repeat an earlier key
        users = rng.integers(-5, 30, size=size) * scale
        items = rng.integers(0, 12, size=size) * scale
        vals = rng.integers(0, 10, size=size) / 2
        text = "".join(f"{u}::{i}::{v}\n" for u, i, v in zip(users, items, vals))
        rs = parse_movielens(io.StringIO(text))
        user_ids, rows = np.unique(users, return_inverse=True)
        item_ids, cols = np.unique(items, return_inverse=True)
        order = np.lexsort((np.arange(size), cols, rows))
        key = rows[order] * item_ids.size + cols[order]
        keep = order[np.append(key[1:] != key[:-1], True)]
        assert rs.duplicate_count == size - keep.size > 0
        parsed = (rs.row_idx, rs.col_idx, rs.values, rs.user_ids, rs.item_ids)
        expected = (rows[keep], cols[keep], vals[keep], user_ids, item_ids)
        for got, want in zip(parsed, expected):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @settings(max_examples=300, deadline=None)
    @given(ids=id_lists())
    @example(ids=[7, 7, 7])
    @example(ids=[-(2**63), 2**63 - 1])
    def test_dense_ids_match_unique(self, ids):
        a = np.array(ids, dtype=np.int64)
        for got, want in zip(data._dense_ids(a), np.unique(a, return_inverse=True)):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_solve_accepts_rating_set(self):
        rs = parse_movielens(io.StringIO(random_ratings_text(2)))
        report = solve(rs, SolverConfig(Regularizer.FN, 1.0, 3, max_iters=20, seed=0))
        assert report.factors.u.shape == (rs.m, 3)
        assert report.factors.v.shape == (rs.n, 3)
        assert np.isfinite(report.objective_trace).all()


SEPARATORS = {"double-colon": "::", "tab": "\t", "csv": ","}
CSV_HEADER = "userId,movieId,rating,timestamp"


class _Unseekable(io.BytesIO):
    def seekable(self):
        return False


def text_stream(text, seekable=True, newline=None):
    """A text stream over ``text``; an unseekable one makes the parser take
    its line loop, since the C reader needs to rewind on a decline."""
    raw = (io.BytesIO if seekable else _Unseekable)(text.encode("utf-8"))
    return io.TextIOWrapper(raw, encoding="utf-8", newline=newline)


def outcome(stream, fmt):
    """Everything a parse returns: the arrays' dtypes and bytes, or the error."""
    try:
        rs = parse_movielens(stream, fmt)
    except DataFormatError as err:
        return "error", str(err), err.line_number
    arrays = (rs.row_idx, rs.col_idx, rs.values, rs.user_ids, rs.item_ids)
    return "ok", rs.m, rs.n, rs.duplicate_count, [(a.dtype.str, a.tobytes()) for a in arrays]


def assert_paths_agree(text, fmt, newline=None):
    fast = outcome(text_stream(text, True, newline), fmt)
    loop = outcome(text_stream(text, False, newline), fmt)
    assert fast == loop
    return fast


# tokens both parsers read, and the faults: odd ids, values and separators
# (non-ASCII digits, underscores, signs, ids beyond int64, non-finite or
# unparseable values), junk extra fields, short, blank and header lines
IDS = st.integers(-2, 12).map(str) | st.sampled_from(["+7", "007", " 8 ", "-0"])
VALUES = st.sampled_from(
    ["1", "2.5", "3.0", "4", "5e0", "-1.25", "+4.5", "4.", ".5", "-0.0", "1e-400"]
)
EXTRAS = ["978300760", "x", ""]
PADS = ["", " ", "\t", " \t ", "\xa0"]
ODD_IDS = [
    "1_0", "\u0661", "\uff12", "2.0", "1e3", "0x1", "", "x", "nan", "\xa05", "5\x00",
    "9223372036854775807", "-9223372036854775808", "9223372036854775808",
    "-9223372036854775809", "99999999999999999999",
]
ODD_VALUES = [
    "nan", "-nan", "inf", "-Infinity", "3e400", "-3e400", "1_0.5", "\u0663", "\uff13.5",
    "0x1p3", "", " ", "4,5", "5\x00", "x",
]
ODD_EXTRAS = ["1:2", "a::b", ":", "a\tb", "a,b"]
ODD_SEPARATORS = {"double-colon": [":", ":::"], "tab": ["\t\t", " "], "csv": [",,", ";"]}
FAULTS = ["id", "value", "separator", "extra", "short", "blank", "header", "cr"]
COLON_RUNS = st.sampled_from(["::", ":", ":::", "::::"])
# the scan's alphabet: colons, digits, line ends, ASCII and non-ASCII
# whitespace, and a non-ASCII letter
SCAN_ALPHABET = list(":0123456789\n\r \t\x0b\x0c\x1c\x1f\x85\xa0\u2028\xe9")


def reference_colons_paired(text):
    """No single ':' and no ':::', by counting."""
    return ":::" not in text and text.count(":") == 2 * text.count("::")


@st.composite
def rating_lines(draw, fmt, fault=None):
    """A valid record line, or one with the given fault."""
    if fault == "blank":
        return draw(st.sampled_from(["", " ", "\t", " \t "]))
    if fault == "header":
        return CSV_HEADER
    fields = [draw(IDS), draw(IDS), draw(VALUES)]
    if fault == "id":
        fields[draw(st.integers(0, 1))] = draw(st.sampled_from(ODD_IDS))
    elif fault == "value":
        fields[2] = draw(st.sampled_from(ODD_VALUES))
    elif fault == "short":
        fields = fields[: draw(st.integers(1, 2))]
    if fault in ("extra", "separator") or draw(st.booleans()):
        fields.append(draw(st.sampled_from(ODD_EXTRAS if fault == "extra" else EXTRAS)))
    seps = [SEPARATORS[fmt]] * (len(fields) - 1)
    if fault == "separator":
        seps[draw(st.integers(0, len(seps) - 1))] = draw(st.sampled_from(ODD_SEPARATORS[fmt]))
    pad = st.sampled_from(PADS)
    return draw(pad) + fields[0] + "".join(s + f for s, f in zip(seps, fields[1:])) + draw(pad)


@st.composite
def rating_texts(draw):
    """Valid lines with up to two faults inserted; duplicates come from the
    small id range."""
    fmt = draw(st.sampled_from(FORMATS))
    lines = draw(st.lists(rating_lines(fmt), min_size=1, max_size=10))
    faults = draw(st.lists(st.sampled_from(FAULTS), max_size=2))
    for fault in faults:
        if fault != "cr":
            lines.insert(draw(st.integers(0, len(lines))), draw(rating_lines(fmt, fault)))
    if fmt == "csv" and draw(st.booleans()):
        lines.insert(0, CSV_HEADER)
    endings = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    if "cr" in faults:
        endings[draw(st.integers(0, len(lines) - 1))] = "\r"
    if draw(st.booleans()):
        endings[-1] = ""
    text = "".join(line + end for line, end in zip(lines, endings))
    return text, fmt, draw(st.sampled_from([None, "", "\n"]))


class TestParsePaths:
    """numpy's C reader and the line loop give the same parse or error."""

    @settings(max_examples=400, deadline=None)
    @given(case=rating_texts())
    def test_fast_path_agrees_with_loop(self, case):
        assert_paths_agree(*case)

    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(st.lists(COLON_RUNS, min_size=2, max_size=3), max_size=4))
    def test_colon_runs_agree(self, lines):
        # records "1?2?3[?9]" with colon runs as separators: ':' is the C
        # reader's delimiter for "::", so any other run must go to the loop
        text = "".join(
            "".join(f"{k + 1}{sep}" for k, sep in enumerate(seps)) + "9\n" for seps in lines
        )
        assert_paths_agree(text, "double-colon")

    def test_clean_file_takes_the_c_reader(self):
        for fmt in FORMATS:
            text = random_ratings_text(7).replace("::", SEPARATORS[fmt])
            if fmt == "csv":
                text = CSV_HEADER + "\n" + text
            stream = text_stream(text)
            parsed = data._parse_table(stream, fmt)
            assert parsed is not None and stream.read() == ""
            assert assert_paths_agree(text, fmt)[0] == "ok"

    @pytest.mark.parametrize(
        "text, fmt",
        [
            ("1::2::3:4::5\n", "double-colon"),  # single colon: ':' would read (1, 2, 3)
            ("1::2::3:::4\n", "double-colon"),  # three colons in a row
            ("1::2.0::3\n", "double-colon"),  # rejected by the C reader
            ("1::99999999999999999999::3\n", "double-colon"),  # id outside int64
            ("1::2::3e400\n", "double-colon"),  # parses to inf
            ("1::2::nan\n", "double-colon"),
            ("1\t2\t3\n \n", "tab"),  # whitespace-only line: the C reader rejects it
            ("\ufeff1,2,3\n", "csv"),  # byte-order mark
            (CSV_HEADER + "\n", "csv"),  # no rows
            ("", "tab"),  # no data: the C reader warns
        ],
    )
    def test_decline_rewinds_to_the_loop(self, text, fmt):
        stream = text_stream(text)
        assert data._parse_table(stream, fmt) is None
        assert stream.tell() == 0
        assert_paths_agree(text, fmt)

    def test_unseekable_or_binary_stream_is_not_read(self):
        for stream in (text_stream("1::2::3\n", seekable=False), io.BytesIO(b"1::2::3\n")):
            assert data._parse_table(stream, "double-colon") is None
            assert stream.read()
        assert parse_movielens(io.BytesIO(b"1::2::3\n")).values.tolist() == [3.0]

    def test_warning_declines(self, monkeypatch):
        # older numpy parses the int "2.0" as 2 with a DeprecationWarning
        real = np.loadtxt

        def lenient(stream, **kwargs):
            table = real(io.StringIO(stream.read().replace("2.0", "2")), **kwargs)
            warnings.warn("parsing an integer via a float", DeprecationWarning)
            return table

        monkeypatch.setattr(np, "loadtxt", lenient)
        with pytest.raises(DataFormatError, match="cannot parse") as err:
            parse_movielens(text_stream("1::2::3\n1::2.0::3\n"))
        assert err.value.line_number == 2

    def test_scan_blocks_cut_at_newlines(self, monkeypatch):
        monkeypatch.setattr(data, "_SCAN_CHARS", 5)  # splits most '::' across reads
        scan = data._stream_colons_paired
        assert scan(io.StringIO("12::34::5\n6::7::8::9\n"))
        assert not scan(io.StringIO("12::34::5\n6::7:8::9"))
        assert not scan(io.StringIO("12::34::5\n6::7::::9"))

    @settings(max_examples=500, deadline=None)
    @given(text=st.text(st.sampled_from(SCAN_ALPHABET), max_size=40))
    def test_scan_rule_matches_the_string_reference(self, text):
        assert data._colons_paired(text) == reference_colons_paired(text)

    def test_surrogateescape_stream_parses_as_the_loop(self):
        # a byte that is not UTF-8 reads as a lone surrogate, here '\udcff':
        # in an unused field, in an id, and on an otherwise blank line
        for raw in (b"1::2::3::\xff\n4::5::6\n", b"1::2::3\n\xff::5::6\n", b"1::2::3\n \xff\n"):
            fast, loop = (
                io.TextIOWrapper(cls(raw), encoding="utf-8", errors="surrogateescape")
                for cls in (io.BytesIO, _Unseekable)
            )
            assert outcome(fast, "double-colon") == outcome(loop, "double-colon")
        assert data._colons_paired("1::\udcff::3\n")
        assert not data._colons_paired("1::\udcff:3\n")

    def test_whitespace_only_line_fails_one_c_reader_pass(self, monkeypatch):
        real, calls = np.loadtxt, []

        def counted(*args, **kwargs):
            try:
                table = real(*args, **kwargs)
            except ValueError:
                calls.append("failed")
                raise
            calls.append("read")
            return table

        monkeypatch.setattr(np, "loadtxt", counted)
        for fmt in FORMATS:
            text = random_ratings_text(11).replace("::", SEPARATORS[fmt])
            calls.clear()
            clean = outcome(text_stream(text), fmt)
            assert clean[0] == "ok" and calls == ["read"]
            for with_blank in (text + " \n", text + "\t \r\n", text + " ", " \n" + text):
                calls.clear()
                assert outcome(text_stream(with_blank), fmt) == clean
                assert calls == ["failed"]
            # an empty line, CR-LF ended or not, is one the C reader skips
            calls.clear()
            assert outcome(text_stream("\n" + text + "\r\n\r\n"), fmt) == clean
            assert calls == ["read"]

    def test_only_double_colon_streams_are_scanned(self, monkeypatch):
        real, scans = data._stream_colons_paired, []

        def counted(stream):
            scans.append(1)
            return real(stream)

        monkeypatch.setattr(data, "_stream_colons_paired", counted)
        for fmt in FORMATS:
            text = random_ratings_text(7).replace("::", SEPARATORS[fmt])
            for scanned in (text, text + " \n"):
                scans.clear()
                assert outcome(text_stream(scanned), fmt)[0] == "ok"
                assert len(scans) == (fmt == "double-colon")

    def test_csv_header_only_on_the_first_line(self):
        late = ("1,2,3\n" + CSV_HEADER + "\n", "\n" + CSV_HEADER + "\n1,2,3\n", "a,b\n1,2,3\n")
        for text in late:
            assert assert_paths_agree(text, "csv")[0] == "error"
        assert assert_paths_agree(" " + CSV_HEADER + " \r\n1,2,3\n", "csv")[0] == "ok"


class TestSplitTrainTest:
    def test_counts(self):
        rs = parse_movielens(io.StringIO(ML_FIXTURE))
        train, test = split_train_test(rs, 0.7, 1)
        assert train.nnz == 7
        assert test.nnz == 3

    def test_partition(self):
        rs = parse_movielens(io.StringIO(ML_FIXTURE))
        train, test = split_train_test(rs, 0.5, 2)
        train_pairs = set(zip(train.row_idx.tolist(), train.col_idx.tolist()))
        test_pairs = set(zip(test.row_idx.tolist(), test.col_idx.tolist()))
        all_pairs = set(zip(rs.row_idx.tolist(), rs.col_idx.tolist()))
        assert train_pairs | test_pairs == all_pairs
        assert train_pairs & test_pairs == set()

    def test_sorted_sides_partition_the_parse(self):
        rs = parse_movielens(io.StringIO(random_ratings_text(3)))
        train, test = split_train_test(rs, 0.6, 4)
        for side in (train, test):
            assert type(side) is SparseObservations
            assert (side.m, side.n) == (rs.m, rs.n)
            assert np.all(np.diff(keys(side)) > 0)
        assert train.nnz == int(0.6 * rs.nnz)
        merged = np.concatenate([keys(train), keys(test)])
        order = np.argsort(merged)
        assert np.array_equal(merged[order], keys(rs))
        assert np.array_equal(np.concatenate([train.values, test.values])[order], rs.values)

    def test_train_matches_lexsort_reference(self):
        rs = parse_movielens(io.StringIO(random_ratings_text(5)))
        train, test = split_train_test(rs, 0.5, 6)
        perm = philox_rng(6).permutation(rs.nnz)
        for side, idx in ((train, perm[: train.nnz]), (test, perm[train.nnz :])):
            rows, cols, vals = rs.row_idx[idx], rs.col_idx[idx], rs.values[idx]
            order = np.lexsort((cols, rows))
            assert np.array_equal(side.row_idx, rows[order])
            assert np.array_equal(side.col_idx, cols[order])
            assert np.array_equal(side.values, vals[order])

    def test_deterministic(self):
        rs = parse_movielens(io.StringIO(ML_FIXTURE))
        t1, _ = split_train_test(rs, 0.7, 3)
        t2, _ = split_train_test(rs, 0.7, 3)
        assert np.array_equal(t1.values, t2.values)

    def test_fraction_validation(self):
        rs = parse_movielens(io.StringIO(ML_FIXTURE))
        for bad in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                split_train_test(rs, bad, 0)


class TestPgm:
    def test_round_trip_2x2(self):
        img = GrayImage(np.array([[0, 128], [255, 7]], dtype=np.uint8))
        buf = io.BytesIO()
        write_pgm(img, buf)
        back = read_pgm(io.BytesIO(buf.getvalue()))
        assert np.array_equal(back.pixels, img.pixels)
        assert back.width == 2 and back.height == 2

    def test_rejects_p2(self):
        with pytest.raises(DataFormatError):
            read_pgm(io.BytesIO(b"P2\n2 2\n255\n0 1 2 3\n"))

    def test_rejects_wrong_maxval(self):
        with pytest.raises(DataFormatError):
            read_pgm(io.BytesIO(b"P5\n1 1\n65535\n\x00\x00"))

    def test_rejects_truncated(self):
        with pytest.raises(DataFormatError):
            read_pgm(io.BytesIO(b"P5\n4 4\n255\n\x00\x01"))

    def test_header_comments(self):
        raw = b"P5\n# made by hand\n2 1\n# another note\n255\n\x05\x09"
        img = read_pgm(io.BytesIO(raw))
        assert img.pixels.tolist() == [[5, 9]]
        # tab, vertical tab and form feed separate tokens; '\r' ends a comment
        raw = b"P5\t2\x0b1 # note\r\x0c255\n\x05\x09"
        assert read_pgm(io.BytesIO(raw)).pixels.tolist() == [[5, 9]]
        # a '#' inside a token is part of it
        with pytest.raises(DataFormatError, match="'P5#x'"):
            read_pgm(io.BytesIO(b"P5#x 2 1 255\n\x05\x09"))

    def test_round_trip_random_images(self):
        rng = philox(99)
        for _ in range(50):
            h = int(rng.integers(1, 20))
            w = int(rng.integers(1, 20))
            px = rng.integers(0, 256, size=(h, w)).astype(np.uint8)
            buf = io.BytesIO()
            write_pgm(GrayImage(px), buf)
            assert np.array_equal(read_pgm(io.BytesIO(buf.getvalue())).pixels, px)


class TestCorruptImage:
    def make_image(self, seed, h=16, w=12):
        return GrayImage(philox(seed).integers(0, 256, size=(h, w)).astype(np.uint8))

    def test_zero_fraction(self):
        img = self.make_image(1)
        obs, info = corrupt_image(img, 0.0, 25.0, 0)
        assert obs.nnz == 16 * 12
        assert not info.mask.any()
        assert np.array_equal(info.degraded.pixels, img.pixels)
        assert np.array_equal(obs.dense(), img.pixels.astype(float))

    def test_half_fraction_count(self):
        img = self.make_image(2, h=64, w=64)
        obs, info = corrupt_image(img, 0.5, 25.0, 0)
        assert int(info.mask.sum()) == 2048
        assert obs.nnz == 2048

    def test_512_count(self):
        img = GrayImage(np.zeros((512, 512), dtype=np.uint8))
        obs, info = corrupt_image(img, 0.5, 25.0, 1)
        assert obs.nnz == 131072

    def test_corrupted_excluded_from_observations(self):
        img = self.make_image(3)
        obs, info = corrupt_image(img, 0.3, 25.0, 4)
        observed = set(zip(obs.row_idx.tolist(), obs.col_idx.tolist()))
        bad = set(zip(*np.nonzero(info.mask)))
        assert observed.isdisjoint(bad)
        assert len(observed) + len(bad) == img.height * img.width

    def test_seeded_reproducibility(self):
        img = self.make_image(4)
        a = corrupt_image(img, 0.4, 30.0, 7)
        b = corrupt_image(img, 0.4, 30.0, 7)
        assert np.array_equal(a[1].mask, b[1].mask)
        assert np.array_equal(a[1].degraded.pixels, b[1].degraded.pixels)
        c = corrupt_image(img, 0.4, 30.0, 8)
        assert not np.array_equal(a[1].mask, c[1].mask)

    def test_fraction_validation(self):
        img = self.make_image(5)
        with pytest.raises(ValueError):
            corrupt_image(img, 1.0, 10.0, 0)
        with pytest.raises(ValueError):
            corrupt_image(img, -0.1, 10.0, 0)

    def test_noise_sigma_validation(self):
        img = self.make_image(6)
        for sigma in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError, match="noise sigma"):
                corrupt_image(img, 0.5, sigma, 0)

    def test_negative_zero_noise_sigma_is_zero(self):
        # the rule accepts -0.0 (it is >= 0); numpy's normal would reject it
        img = self.make_image(6)
        noisy = corrupt_image(img, 0.5, -0.0, 0)[1].degraded.pixels
        assert np.array_equal(noisy, corrupt_image(img, 0.5, 0.0, 0)[1].degraded.pixels)


class TestGrayImage:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            GrayImage(np.array([[300.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1.7, 254.5, -0.5])
    def test_rejects_non_finite_or_fractional(self, bad):
        with pytest.raises(ValueError, match="finite whole numbers"):
            GrayImage(np.array([[12.0, bad]]))

    @pytest.mark.parametrize("dtype", [np.uint8, np.float64, np.int64])
    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_rejects_zero_height_or_width(self, shape, dtype):
        with pytest.raises(ValueError, match="height and width must be >= 1"):
            GrayImage(np.zeros(shape, dtype))

    def test_accepts_float_in_range(self):
        img = GrayImage(np.array([[12.0, 200.0]]))
        assert img.pixels.dtype == np.uint8
        assert img.pixels.tolist() == [[12, 200]]

    def test_takes_no_maxval(self):
        # PGM files are read and written at maxval 255 only
        with pytest.raises(TypeError):
            GrayImage(np.zeros((2, 2), np.uint8), 7)
