"""CSV contract and phase summaries."""

import dataclasses
import math
import re

import numpy as np
import pytest

from pmsmlab.report import _ROW_BLOCK, CSV_COLUMNS, SCHEMA_TAG, read_csv, summarize, write_csv, write_rows
from pmsmlab.simulation import MachineKind, run_scenario, standstill_study_scenario


def _small_log(**over):
    scn = standstill_study_scenario(MachineKind.SPMSM)
    over.setdefault("t_end", 0.03)
    return run_scenario(dataclasses.replace(scn, **over))


def test_schema_is_pinned():
    assert SCHEMA_TAG == "pmsmlab.trajectory.v1"
    assert CSV_COLUMNS == (
        "t", "i_alpha", "i_beta", "i_d", "i_q", "v_alpha", "v_beta",
        "omega_true", "theta_true", "omega_hat", "theta_hat", "theta_err",
        "det_y1", "det_y2", "det_y3", "rank",
        "psi_o_d", "psi_o_q", "theta_o", "margin",
    )


def test_csv_round_trip(tmp_path):
    log = _small_log()
    path = tmp_path / "run.csv"
    write_csv(log, path)
    back = read_csv(path)
    assert set(back) == set(CSV_COLUMNS)
    for name in CSV_COLUMNS:
        col = getattr(log, name)
        # repr round-trips floats exactly; NaNs compare positionally
        assert np.array_equal(back[name], np.asarray(col, dtype=float), equal_nan=True), name
    # v1 is the log's columns without the current references, read back as the log holds them
    arrays = [f.name for f in dataclasses.fields(log) if isinstance(getattr(log, f.name), np.ndarray)]
    assert [name for name in arrays if name not in CSV_COLUMNS] == ["id_ref", "iq_ref"]
    assert {name: col.dtype for name, col in back.items()} == {
        name: np.dtype(int) if name == "rank" else np.dtype(float) for name in CSV_COLUMNS}


def test_csv_header_lines(tmp_path):
    path = tmp_path / "run.csv"
    write_csv(_small_log(t_end=0.001), path)
    lines = path.read_text().splitlines()
    assert lines[0] == f"# schema={SCHEMA_TAG}"
    assert lines[1] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2 + 10


def test_csv_rewrite_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(_small_log(), a)
    write_csv(_small_log(), b)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("rows", [0, 1, _ROW_BLOCK, _ROW_BLOCK + 1])
def test_write_rows_matches_the_per_row_formula(tmp_path, rows):
    # the writer formats a block of rows at a time; its bytes must equal one repr-joined line per row
    specials = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-5, 0.1 + 0.2]
    floats = np.resize(np.array(specials), (3, rows)) * np.array([[1.0], [-1.0], [3.0]])
    ints = np.arange(rows) - 2
    columns = [floats[0], ints, floats[1], floats[2]]
    path = tmp_path / "rows.csv"
    write_rows(path, "note", ("a", "b", "c", "d"), [columns])
    lines = [",".join(map(repr, row)) for row in zip(*(col.tolist() for col in columns))]
    assert path.read_text() == "".join(line + "\n" for line in ["# note", "a,b,c,d", *lines])
    # the same rows in chunks of any size, empty ones included, write the same bytes
    for size in (1, 7, _ROW_BLOCK + 1):
        split = tmp_path / f"rows_{size}.csv"
        write_rows(split, "note", ("a", "b", "c", "d"),
                   ([col[k:k + size] for col in columns] for k in range(0, rows + size, size)))
        assert split.read_bytes() == path.read_bytes(), size


def test_write_rows_without_columns_writes_the_header(tmp_path):
    # an empty sweep's table transposes to shape (0,): no columns, so no rows
    path = tmp_path / "rows.csv"
    write_rows(path, "note", ("a", "b"), [np.array([], dtype=float).T])
    assert path.read_text() == "# note\na,b\n"


def test_csv_rejects_foreign_files(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,i_alpha\n0.0,1.0\n")
    with pytest.raises(ValueError, match="not a"):
        read_csv(bad)
    for text in (f"# schema={SCHEMA_TAG}\nt,i_alpha\n", f"# schema={SCHEMA_TAG}\n"):  # wrong columns, then none
        bad.write_text(text)
        with pytest.raises(ValueError, match="unexpected columns") as exc:
            read_csv(bad)
        assert str(bad) in str(exc.value)


@pytest.mark.parametrize("last", ["0.1,0.2", "truncated"])
def test_read_csv_names_a_malformed_line(tmp_path, last):
    # a stray short line, or a last row cut short, is reported with its file and line
    path = tmp_path / "run.csv"
    write_csv(_small_log(t_end=0.001), path)
    text = path.read_text()
    path.write_text(text + "0.1,0.2\n" if last == "0.1,0.2" else text[:text.rindex(",")] + "\n")
    line = 13 if last == "0.1,0.2" else 12
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, line {line}: "):
        read_csv(path)


@pytest.mark.parametrize("column, value, message", [
    ("margin", "x", "could not convert string to float: 'x'"),
    ("rank", "nan", "rank must be a whole number, not 'nan'"),
    ("rank", "2.5", "rank must be a whole number, not '2.5'"),
])
def test_read_csv_names_a_bad_field(tmp_path, column, value, message):
    # a field that is not a number, or a rank that is not a whole one, is reported with its file and line
    path = tmp_path / "run.csv"
    write_csv(_small_log(t_end=0.001), path)
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[5].rstrip("\n").split(",")
    fields[CSV_COLUMNS.index(column)] = value
    lines[5] = ",".join(fields) + "\n"
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}, line 6: {message}')}$"):
        read_csv(path)


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------


def test_summarize_rejects_empty_log():
    log = _small_log(t_end=0.001)
    empty = dataclasses.replace(
        log, **{f.name: getattr(log, f.name)[:0]
                for f in dataclasses.fields(log) if f.name not in
                ("aborted", "abort_time", "abort_reason")}
    )
    with pytest.raises(ValueError, match="empty log"):
        summarize(empty)


def test_summarize_full_study_phases(spmsm_log):
    summary = summarize(spmsm_log)
    assert summary.n_samples == 10000
    assert not summary.aborted
    assert summary.notes == ()
    names = [ph.name for ph in summary.phases]
    assert names == ["standstill", "injection", "motion"]
    by = {ph.name: ph for ph in summary.phases}
    # injection window is [0.2, 0.5) at T_s = 1e-4; motion starts after 0.6
    assert by["standstill"].n == 3001
    assert by["injection"].n == 3000
    assert by["motion"].n == 3999
    # the non-salient machine stays rank deficient until the rotor moves
    assert by["standstill"].rank_deficient_fraction == 1.0
    assert by["injection"].rank_deficient_fraction == 1.0
    assert by["motion"].rank_deficient_fraction == 0.0
    assert by["standstill"].min_abs_margin == 0.0
    assert by["motion"].min_abs_margin > 0.0


def test_summarize_rendering(spmsm_log):
    text = str(summarize(spmsm_log))
    lines = text.splitlines()
    assert lines[0] == "samples: 10000"
    assert lines[1].startswith("phase")
    assert any(line.startswith("standstill") for line in lines)
    assert any(line.startswith("motion") for line in lines)


def test_summarize_constant_error_statistics():
    log = _small_log()
    err = 0.125
    forced = dataclasses.replace(
        log,
        theta_err=np.full(len(log), err),
        omega_hat=log.omega_true + 2.0,
    )
    summary = summarize(forced)
    ph = summary.phases[0]
    assert ph.max_abs_theta_err == err
    assert ph.mean_abs_theta_err == err
    assert ph.mean_abs_omega_err == 2.0


def test_summarize_notes_omitted_phases():
    # a short standstill run has neither injection nor motion samples
    summary = summarize(_small_log(t_end=0.01))
    assert [ph.name for ph in summary.phases] == ["standstill"]
    assert "phase injection: no samples, omitted" in summary.notes
    assert "phase motion: no samples, omitted" in summary.notes


def test_summarize_flags_aborted_runs():
    from pmsmlab.simulation import SpeedProfile

    log = _small_log(profile=SpeedProfile.from_breakpoints([(0.0, 1e9)]), t_end=0.01)
    assert log.aborted
    summary = summarize(log)
    assert summary.aborted
    assert "[ABORTED]" in str(summary)
