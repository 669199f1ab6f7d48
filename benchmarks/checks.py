"""Correctness gate for the outputs of one ``clockspin sweep`` command.

Checks, per command:

* ``exit``: the exit status is 0 and the run-wide files (``manifest.json``,
  ``peak_map.csv``, ``tm_vs_detuning.csv``) exist, ``tm_vs_detuning.csv``
  has one row per field, and, when serial digests are given, ``peak_map.csv``
  and ``tm_vs_detuning.csv`` are byte-identical to the serial run's;
* one check per field: ``trace_<tag>.{csv,json}`` and ``spectrum_<tag>.csv``
  exist, the trace has the expected tau grid and finite values, its row of
  ``tm_vs_detuning.csv`` is present, and, when given, the trace and row match
  the reference within the tolerances below and the field's files are
  byte-identical to the serial run's.

Tolerances.  ROADMAP item 5 puts the numerical floor of an exact trace at the
eigenvalue roundoff ``eps * max|f| * 4 pi tau``: with ``eps = 2.2e-16``,
``max|f| ~ 20 GHz`` and ``tau <= 100 us`` that is a phase error of about
5.6e-9, or about 2e-10 on echo intensities of at most 0.05.  ``TRACE_ATOL`` =
1e-9 is five times that estimate.  It passes the planned real rank-halved
kernel (largest deviation 1.1e-11) and fails any trace that is off by 1e-6.
The decay fits in ``tm_vs_detuning.csv`` stop on ``curve_fit``'s default
tolerances, so a trace change of 1e-11 already moves T_m, x and I0 by up to
7e-7 relative (1.4e-6 at 1e-9, 1.1e-3 at 1e-6, measured on the n3-many
reference).  ``FIT_RTOL`` = 1e-4 sits between the two.
"""

import csv
import hashlib
import math
import sys
from pathlib import Path

import numpy as np

TRACE_ATOL = 1e-9
FIT_RTOL = 1e-4
FIT_COLUMNS = ("T_m_us", "x", "I0", "residual")
RUN_FILES = ("manifest.json", "peak_map.csv", "tm_vs_detuning.csv")


def field_tag(detuning_mt):
    """File tag of one field, as ``clockspin sweep`` names its outputs."""
    return f"{detuning_mt:+08.3f}mT"


def field_files(tag):
    return (f"trace_{tag}.csv", f"trace_{tag}.json", f"spectrum_{tag}.csv")


def read_trace(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1]


def read_tm(path):
    """``tm_vs_detuning.csv`` as {detuning_mT: row dict}."""
    with open(path, newline="") as fh:
        return {float(row["detuning_mT"]): row for row in csv.DictReader(fh)}


def digests(out_dir):
    """SHA-256 of every result file; the manifest records --jobs, so it is left out."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(out_dir).iterdir())
        if p.is_file() and p.name != "manifest.json"
    }


def _same_bytes(names, got, serial):
    differ = [n for n in names if got.get(n) != serial.get(n)]
    return f"differs from --jobs 1 output: {', '.join(differ)}" if differ else None


def _check_field(out_dir, db_mt, tau_us, tm_rows, ref, got, serial):
    tag = field_tag(db_mt)
    missing = [n for n in field_files(tag) if not (out_dir / n).is_file()]
    if missing:
        return f"missing {', '.join(missing)}"
    if db_mt not in tm_rows:
        return "no row in tm_vs_detuning.csv"
    tau, intensity = read_trace(out_dir / f"trace_{tag}.csv")
    if tau.shape != tau_us.shape or not np.allclose(tau, tau_us, rtol=1e-12, atol=0.0):
        return "tau grid differs from the sequence settings"
    if not np.all(np.isfinite(intensity)):
        return "non-finite intensity"
    if ref is not None:
        if tag not in ref["traces"] or tag not in ref["tm"]:
            return "no reference values for this field"
        dev = float(np.max(np.abs(intensity - ref["traces"][tag])))
        if not dev <= TRACE_ATOL:
            return f"trace deviates from reference by {dev:.3g} > {TRACE_ATOL:g}"
        row, want = tm_rows[db_mt], ref["tm"][tag]
        if row["no_decay"] != want["no_decay"]:
            return f"no_decay {row['no_decay']} != reference {want['no_decay']}"
        for col in FIT_COLUMNS:
            if not math.isclose(float(row[col]), want[col], rel_tol=FIT_RTOL, abs_tol=1e-300):
                return f"{col} {row[col]} differs from reference {want[col]!r}"
    if serial is not None:
        return _same_bytes(field_files(tag), got, serial)
    return None


def check_sweep(out_dir, returncode, grid_mt, tau_us, ref=None, serial=None):
    """Check one sweep's outputs.

    Args:
        out_dir: the command's ``--out`` directory.
        returncode: the command's exit status.
        grid_mt: detuning grid the command was asked for (mT).
        tau_us: expected tau grid (us).
        ref: reference values from ``load_reference`` or None.
        serial: ``digests`` of a ``--jobs 1`` run with the same inputs, or None.

    Returns:
        list of ``(check name, failure message or None)``.
    """
    out_dir = Path(out_dir)
    got = digests(out_dir) if out_dir.is_dir() else {}
    problem = None
    missing = [n for n in RUN_FILES if not (out_dir / n).is_file()]
    if returncode != 0:
        problem = f"exit status {returncode}"
    elif missing:
        problem = f"missing {', '.join(missing)}"
    try:
        tm_rows = {} if missing else read_tm(out_dir / "tm_vs_detuning.csv")
    except (KeyError, ValueError) as exc:
        tm_rows, problem = {}, problem or f"unreadable tm_vs_detuning.csv: {exc!r}"
    if problem is None and sorted(tm_rows) != sorted(float(x) for x in grid_mt):
        problem = "tm_vs_detuning.csv rows do not match the detuning grid"
    if problem is None and serial is not None:
        problem = _same_bytes(RUN_FILES[1:], got, serial)
    results = [("exit", problem)]
    for db_mt in grid_mt:
        try:
            problem = _check_field(out_dir, float(db_mt), tau_us, tm_rows, ref, got, serial)
        except (IndexError, KeyError, ValueError) as exc:
            problem = f"unreadable output: {exc!r}"
        results.append((f"field {field_tag(db_mt)}", problem))
    return results


def load_reference(path, group):
    """Reference values of one workload group, as ``check_sweep`` takes them."""
    with np.load(path) as data:
        tags = [k.split("/", 2)[2] for k in data.files if k.startswith(f"{group}/trace/")]
        traces = {t: data[f"{group}/trace/{t}"] for t in tags}
        fits = data[f"{group}/tm"]
        no_decay = data[f"{group}/no_decay"]
        tm_tags = [str(t) for t in data[f"{group}/tm_tags"]]
    tm = {
        t: {**dict(zip(FIT_COLUMNS, map(float, row))), "no_decay": str(bool(nd))}
        for t, row, nd in zip(tm_tags, fits, no_decay)
    }
    return {"traces": traces, "tm": tm}


def record_reference(path, group, out_dir):
    """Add one sweep's traces and fits to the reference file under ``group``."""
    path, out_dir = Path(path), Path(out_dir)
    arrays = {}
    if path.exists():
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files if not k.startswith(f"{group}/")}
    for trace in sorted(out_dir.glob("trace_*.csv")):
        tag = trace.stem[len("trace_"):]
        arrays[f"{group}/trace/{tag}"] = read_trace(trace)[1]
    rows = read_tm(out_dir / "tm_vs_detuning.csv")
    dbs = sorted(rows)
    arrays[f"{group}/tm_tags"] = np.array([field_tag(db) for db in dbs])
    arrays[f"{group}/tm"] = np.array([[float(rows[db][c]) for c in FIT_COLUMNS] for db in dbs])
    arrays[f"{group}/no_decay"] = np.array([rows[db]["no_decay"] == "True" for db in dbs])
    np.savez_compressed(path, **arrays)


if __name__ == "__main__":
    # python3 benchmarks/checks.py REFERENCE.npz GROUP SWEEP_OUT_DIR
    record_reference(*sys.argv[1:4])
