import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from wnocpower.survey import (
    BinnedMax,
    BlockKind,
    ParetoUpper,
    SurveyDataset,
    SurveyFormatError,
    SurveyRecord,
    best_in_class,
    dataset_digest,
    parse_survey_csv,
    serialize_survey_csv,
)
from wnocpower.units import FrequencyGhz

HEADER = "block,frequency_ghz,metric,label\n"


def rec(freq, metric, label, kind=BlockKind.PA):
    return SurveyRecord(kind, FrequencyGhz(freq), metric, label)


def dataset(points, kind=BlockKind.PA):
    return SurveyDataset(kind, tuple(rec(f, m, f"r{i}", kind) for i, (f, m) in enumerate(points)))


# --- parsing ---------------------------------------------------------------


def test_parse_single_row():
    ds = parse_survey_csv(HEADER + "PA,60.0,22.5,refA\n")
    assert ds.kind is BlockKind.PA
    assert len(ds) == 1
    r = ds.records[0]
    assert (r.frequency.value, r.metric, r.label) == (60.0, 22.5, "refA")
    assert r.technology_node is None and r.notes is None


def test_parse_reports_row_number_for_bad_frequency():
    with pytest.raises(SurveyFormatError, match="row 2"):
        parse_survey_csv(HEADER + "PA,-5,22.5,refA\n")


def test_parse_rejects_mixed_kinds():
    text = HEADER + "PA,60.0,22.5,a\nMIXER,70.0,1.5,b\n"
    with pytest.raises(SurveyFormatError) as info:
        parse_survey_csv(text)
    assert str(info.value) == "row 3: heterogeneous block kinds: dataset is PA, record 'b' is MIXER"


def test_parse_rejects_unknown_kind():
    with pytest.raises(SurveyFormatError, match="row 2.*unknown block kind"):
        parse_survey_csv(HEADER + "LNA,60.0,22.5,a\n")


@pytest.mark.parametrize("token, kind", [("pa", BlockKind.PA), (" Osc\t", BlockKind.OSCILLATOR),
                                         ("MIXER", BlockKind.MIXER), ("mixer ", BlockKind.MIXER)])
def test_from_token_accepts_any_case_and_surrounding_space(token, kind):
    assert BlockKind.from_token(token) is kind


def test_block_kinds_stay_singleton_keys():
    import copy
    import pickle

    table = {kind: kind.token for kind in BlockKind}
    assert set(BlockKind) == {BlockKind.PA, BlockKind.OSCILLATOR, BlockKind.MIXER}
    for kind in BlockKind:
        for same in (BlockKind(kind.value), pickle.loads(pickle.dumps(kind)), copy.deepcopy(kind),
                     copy.copy(kind), BlockKind.from_token(kind.token)):
            assert same is kind and hash(same) == hash(kind)
            assert table[same] == kind.token and same in set(BlockKind)


@pytest.mark.parametrize("token", ["", "OSCILLATOR", "P A", "PA,", "lna"])
def test_from_token_names_the_rejected_token(token):
    with pytest.raises(ValueError) as info:
        BlockKind.from_token(token)
    assert str(info.value) == f"unknown block kind {token!r} (expected PA, OSC or MIXER)"


@pytest.mark.parametrize(
    "kind,metric",
    [("PA", "150"), ("PA", "0"), ("PA", "-0"), ("OSC", "1.5"), ("OSC", "0"), ("OSC", "-0"),
     ("MIXER", "0"), ("MIXER", "-0"), ("MIXER", "-2")],
)
def test_parse_rejects_out_of_range_metric(kind, metric):
    with pytest.raises(SurveyFormatError, match="row 2"):
        parse_survey_csv(HEADER + f"{kind},60.0,{metric},a\n")


@pytest.mark.parametrize("kind", ["PA", "OSC", "MIXER"])
def test_parse_accepts_the_smallest_positive_metric(kind):
    ds = parse_survey_csv(HEADER + f"{kind},60.0,4.9406564584124654e-324,a\n")
    assert ds.records[0].metric == 5e-324


def test_parse_rejects_non_numeric_metric():
    with pytest.raises(SurveyFormatError, match="row 2.*not a number"):
        parse_survey_csv(HEADER + "PA,60.0,fast,a\n")


def test_parse_rejects_short_row():
    with pytest.raises(SurveyFormatError, match="row 2.*expected 4 fields"):
        parse_survey_csv(HEADER + "PA,60.0,22.5\n")


def test_parse_rejects_duplicate_triples():
    # The first fault in file order is reported: the duplicate at row 3, not the metric at row 4.
    for tail in ("", "PA,70.0,fast,b\n"):
        with pytest.raises(SurveyFormatError) as info:
            parse_survey_csv(HEADER + "PA,60.0,22.5,a\nPA,60.0,22.5,a\n" + tail)
        assert str(info.value) == ("row 3: duplicate record (frequency, metric, label)="
                                   "(60.0, 22.5, 'a')")


def test_parse_admits_each_record_once(monkeypatch):
    # The reader applies the dataset rule to each row as it reads it, to name the row, and
    # builds its dataset without a second pass; the result is the checked constructor's.
    import wnocpower.survey as survey

    admitted = []
    admit = survey._admit
    monkeypatch.setattr(survey, "_admit",
                        lambda kind, r, seen: admitted.append(r.label) or admit(kind, r, seen))
    ds = parse_survey_csv(HEADER + "PA,60,22.5,a\nPA,90,15,b\nPA,30,30,c\n")
    assert admitted == ["a", "b", "c"]
    monkeypatch.undo()
    assert ds == SurveyDataset(BlockKind.PA, ds.records) and ds.kind is BlockKind.PA


def test_dataset_construction_refuses_heterogeneous_kinds():
    records = (rec(60.0, 20.0, "a"), rec(90.0, 0.5, "b", BlockKind.OSCILLATOR))
    with pytest.raises(ValueError, match="^heterogeneous block kinds: dataset is PA, record 'b'"):
        SurveyDataset(BlockKind.PA, records)


def test_parse_requires_header():
    with pytest.raises(SurveyFormatError, match="header"):
        parse_survey_csv("PA,60.0,22.5,a\n")
    with pytest.raises(SurveyFormatError, match="no data rows"):
        parse_survey_csv(HEADER)


def test_parse_skips_comments_and_blank_lines():
    text = "# provenance comment, with commas\n\n" + HEADER + "pa,60.0,22.5,a\n"
    ds = parse_survey_csv(text)
    assert len(ds) == 1 and ds.kind is BlockKind.PA


def test_parse_accepts_scientific_notation_and_bytes():
    ds = parse_survey_csv((HEADER + "MIXER,1.4e2,2.5e-1,a\n").encode("utf-8"))
    assert ds.records[0].frequency.value == 140.0
    assert ds.records[0].metric == 0.25


@pytest.mark.parametrize("extras, cells, node, notes", [
    ("technology_node,notes", "28nm CMOS,", "28nm CMOS", None),
    ("notes,technology_node", "on-chip balun,28nm CMOS", "28nm CMOS", "on-chip balun"),
    ("technology_node", "28nm CMOS", "28nm CMOS", None),
    ("notes", "on-chip balun", None, "on-chip balun"),
], ids=["node-notes", "notes-node", "node", "notes"])
def test_parse_optional_columns(extras, cells, node, notes):
    # each optional cell lands in the field of its column's name; an absent column gives None
    text = f"block,frequency_ghz,metric,label,{extras}\nOSC,30,0.3,a,{cells}\n"
    record = parse_survey_csv(text).records[0]
    assert (record.technology_node, record.notes) == (node, notes)


def test_parse_rejects_unknown_extra_column():
    with pytest.raises(SurveyFormatError, match="columns after label"):
        parse_survey_csv("block,frequency_ghz,metric,label,vendor\nPA,1,10,a,x\n")


@pytest.mark.parametrize("extras, got", [("", "''"), (",notes", "'',notes")],
                         ids=["label,", "label,,notes"])
def test_parse_header_error_spells_an_empty_column_name(extras, got):
    # a spreadsheet export with a trailing comma has an extra column whose name is empty
    with pytest.raises(SurveyFormatError) as err:
        parse_survey_csv(f"block,frequency_ghz,metric,label,{extras}\nPA,1,10,a\n")
    assert str(err.value) == ("row 1: columns after label must be a subset of "
                              f"technology_node,notes (got {got})")


def test_parse_names_the_row_of_a_field_past_the_csv_size_limit():
    text = HEADER + "PA,60.0,22.5,a\nPA,70.0,20.0," + "x" * 131_073 + "\n"
    with pytest.raises(SurveyFormatError, match=r"^row 3: malformed CSV \(field larger"):
        parse_survey_csv(text)


def test_parse_rejects_an_unclosed_quote_instead_of_swallowing_the_rows_after_it():
    rows = [f"PA,{10.0 * i},{20.0 + i},r{i}" for i in range(1, 6)]
    rows[1] = 'PA,20.0,22.0,"b'
    with pytest.raises(SurveyFormatError, match=r"^row 3: malformed CSV \(unexpected end of data"):
        parse_survey_csv(HEADER + "\n".join(rows) + "\n")


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
@pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["no-BOM", "BOM"])
@pytest.mark.parametrize("as_bytes", [False, True], ids=["str", "bytes"])
def test_parse_accepts_a_byte_order_mark_and_any_line_end(end, bom, as_bytes):
    lines = ["block,frequency_ghz,metric,label,notes", 'PA,60.0,22.5,a,"x\r\ny"', "PA,90,10,b,"]
    reference = parse_survey_csv("\n".join(lines) + "\n")
    text = bom + end.join(lines) + end
    ds = parse_survey_csv(text.encode("utf-8") if as_bytes else text)
    assert ds == reference and dataset_digest(ds) == dataset_digest(reference)
    assert ds.records[0].notes == "x\r\ny"


def test_parse_names_the_row_of_a_bad_cr_only_line():
    text = "block,frequency_ghz,metric,label\rPA,60.0,22.5,a\rPA,61,x,b\r"
    with pytest.raises(SurveyFormatError, match=r"^row 3: metric is not a number"):
        parse_survey_csv(text)


def test_serialize_parse_identity_with_quotes_and_line_breaks():
    ds = SurveyDataset(BlockKind.OSCILLATOR, (
        SurveyRecord(BlockKind.OSCILLATOR, FrequencyGhz(30.0), 0.3, 'a "quoted", label',
                     "28nm CMOS", "first line\nsecond, line\r\nthird"),
        SurveyRecord(BlockKind.OSCILLATOR, FrequencyGhz(35.0), 0.2, "b", None, '"'),
    ))
    assert parse_survey_csv(serialize_survey_csv(ds)) == ds


def test_serialize_parse_identity():
    text = (
        "block,frequency_ghz,metric,label,technology_node,notes\n"
        "PA,60.0,22.5,a,65nm CMOS,good\n"
        "PA,3.5e1,4.25,b,,\n"
    )
    ds = parse_survey_csv(text)
    again = parse_survey_csv(serialize_survey_csv(ds))
    assert again == ds
    assert dataset_digest(again) == dataset_digest(ds)


def test_digest_changes_with_data():
    a = parse_survey_csv(HEADER + "PA,60.0,22.5,a\n")
    b = parse_survey_csv(HEADER + "PA,60.0,22.6,a\n")
    assert dataset_digest(a) != dataset_digest(b)


# --- frontier --------------------------------------------------------------


def test_pareto_same_frequency_dominance():
    ds = dataset([(10.0, 30.0), (10.0, 20.0)])
    out = best_in_class(ds, ParetoUpper())
    assert [(r.frequency.value, r.metric) for r in out] == [(10.0, 30.0)]


def test_pareto_three_point_example():
    # (50, 5) is dominated by (100, 10); frozen from a hand dominance check
    ds = dataset([(10.0, 30.0), (100.0, 10.0), (50.0, 5.0)])
    out = best_in_class(ds, ParetoUpper())
    assert [(r.frequency.value, r.metric) for r in out] == [(10.0, 30.0), (100.0, 10.0)]


def test_pareto_tie_keeps_first_by_input_order():
    ds = SurveyDataset(
        BlockKind.PA,
        (rec(10.0, 30.0, "first"), rec(10.0, 30.0, "second")),
    )
    out = best_in_class(ds, ParetoUpper())
    assert [r.label for r in out] == ["first"]


def frontier_oracle(records):
    """Exhaustive pairwise dominance check, kept independent of the library."""
    keep = []
    for i, ri in enumerate(records):
        fi, mi = ri.frequency.value, ri.metric
        ok = True
        for j, rj in enumerate(records):
            if j == i:
                continue
            fj, mj = rj.frequency.value, rj.metric
            if fj >= fi and mj >= mi and (fj > fi or mj > mi):
                ok = False
                break
            if fj == fi and mj == mi and j < i:
                ok = False
                break
        if ok:
            keep.append(ri)
    return keep


@st.composite
def small_datasets(draw):
    n = draw(st.integers(min_value=1, max_value=25))
    freqs = st.sampled_from([1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0])
    metrics = st.sampled_from([1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0])
    points = [(draw(freqs), draw(metrics)) for _ in range(n)]
    return dataset(points)


@settings(max_examples=150, deadline=None)
@given(small_datasets())
def test_pareto_matches_exhaustive_oracle(ds):
    got = best_in_class(ds, ParetoUpper()).records
    expected = tuple(frontier_oracle(ds.records))
    assert got == expected


@settings(max_examples=100, deadline=None)
@given(small_datasets())
def test_pareto_subset_and_idempotent(ds):
    front = best_in_class(ds, ParetoUpper())
    assert set(front.records) <= set(ds.records)
    assert best_in_class(front, ParetoUpper()) == front


@settings(max_examples=150, deadline=None)
@given(small_datasets(), st.data())
def test_parse_numbers_rows_by_their_physical_line_past_comments_and_blanks(ds, data):
    junk = st.sampled_from(["# provenance, with commas", "  # indented", "\t#", "",
                            "  ", " \t ", ",,,", " , ,"])
    lines = serialize_survey_csv(ds).splitlines()
    for _ in range(data.draw(st.integers(min_value=0, max_value=12))):
        lines.insert(data.draw(st.integers(min_value=0, max_value=len(lines))), data.draw(junk))
    end = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
    bom = data.draw(st.sampled_from(["", "\ufeff"]))
    as_bytes = data.draw(st.booleans())

    def parse(lines):
        text = bom + end.join(lines) + end
        return parse_survey_csv(text.encode("utf-8") if as_bytes else text)

    assert parse(lines) == ds
    rows = [i for i, line in enumerate(lines) if line.startswith("PA,")]
    k = data.draw(st.integers(min_value=0, max_value=len(rows) - 1))
    j = rows[data.draw(st.integers(min_value=k, max_value=len(rows) - 1))] + 1
    with pytest.raises(SurveyFormatError) as info:
        parse(lines[:j] + [lines[rows[k]]] + lines[j:])
    r = ds.records[k]
    assert str(info.value) == (f"row {j + 1}: duplicate record (frequency, metric, label)="
                               f"{(r.frequency.value, r.metric, r.label)}")
    i = data.draw(st.sampled_from(rows))
    fields = lines[i].split(",")
    fields[2] = "x"
    lines[i] = ",".join(fields)
    with pytest.raises(SurveyFormatError) as info:
        parse(lines)
    assert str(info.value) == f"row {i + 1}: metric is not a number (got 'x')"


def test_pareto_metric_strictly_decreasing_over_distinct_frequencies():
    rng = random.Random(7)
    for _ in range(50):
        freqs = rng.sample(range(1, 400), k=rng.randint(2, 30))
        points = [(float(f), rng.uniform(0.1, 90.0)) for f in freqs]
        front = best_in_class(dataset(points), ParetoUpper())
        ordered = sorted(front.records, key=lambda r: r.frequency.value)
        metrics = [r.metric for r in ordered]
        assert all(b < a for a, b in zip(metrics, metrics[1:]))


def test_best_in_class_rejects_empty():
    empty = SurveyDataset(BlockKind.PA, ())
    with pytest.raises(ValueError, match="empty"):
        best_in_class(empty, ParetoUpper())


def test_binned_max_hand_case():
    # 2 log bins over [1, 100]: [1, 10) and [10, 100]
    ds = dataset([(1.0, 5.0), (3.0, 9.0), (10.0, 7.0), (100.0, 4.0)])
    out = best_in_class(ds, BinnedMax(bins=2))
    assert [(r.frequency.value, r.metric) for r in out] == [(3.0, 9.0), (10.0, 7.0)]


def test_binned_max_single_frequency_collapses_to_one_bin():
    ds = dataset([(10.0, 1.0), (10.0, 4.0), (10.0, 2.0)])
    out = best_in_class(ds, BinnedMax(bins=5))
    assert [(r.frequency.value, r.metric) for r in out] == [(10.0, 4.0)]


def test_binned_max_rejects_bad_bin_count():
    with pytest.raises(ValueError):
        BinnedMax(bins=0)


@pytest.mark.parametrize("bins", [2.5, True, 8.0, "8"])
def test_binned_max_requires_an_int_bin_count(bins):
    with pytest.raises(ValueError, match=r"^bin count must be an int"):
        BinnedMax(bins=bins)


def test_binned_max_frequencies_with_equal_log10_share_bin_zero():
    # distinct frequencies whose log10 is the same float: no log span, one bin
    f2 = math.nextafter(100.0, math.inf)
    assert f2 != 100.0 and math.log10(f2) == math.log10(100.0)
    ds = dataset([(100.0, 2.0), (f2, 3.0), (100.0, 3.0)])
    out = best_in_class(ds, BinnedMax(bins=3))
    assert [(r.frequency.value, r.metric) for r in out] == [(f2, 3.0)]


def test_binned_max_rejects_a_bin_count_past_exact_floats():
    assert BinnedMax(bins=2**53).bins == 2**53
    with pytest.raises(ValueError, match="bin count"):
        BinnedMax(bins=2**53 + 1)
