"""CLI surface: file formats, determinism, reference columns, exit codes."""

import contextlib
import csv
import io
import json
import math
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from betahermite.checks import run_checks
from betahermite.cli import main


def run(args):
    return main(args)


def read_rows(path):
    """The rows of a CSV file as dicts keyed by its header."""
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def stage_seconds(err):
    """The stages and seconds of the "[time] <stage> <seconds> s" lines of a stderr text."""
    lines = [line.split() for line in err.splitlines() if line.startswith("[time]")]
    assert all(len(words) == 4 and words[3] == "s" for words in lines)
    return {words[1]: float(words[2]) for words in lines}


class TestSample:
    def test_shape_and_sorting(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run(["sample", "--n", "4", "--beta", "2", "--kind", "gaussian",
                    "--reps", "2", "--seed", "7", "--output", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 8
        for rep in ("0", "1"):
            ev = [float(r["eigenvalue"]) for r in rows if r["replicate"] == rep]
            assert ev == sorted(ev)
        sidecar = json.loads(out.with_suffix(".csv.json").read_text())
        assert sidecar["config"]["seed"] == 7
        assert sidecar["versions"]["scipy"] == scipy.__version__

    def test_byte_identical_rerun(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sample", "--n", "6", "--beta", "1", "--reps", "3", "--seed", "9"]
        run([*args, "--output", str(a)])
        run([*args, "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_bytes_equal_csv_writer_of_per_replicate_spectra(self, tmp_path):
        # the chunked writer against csv.writer over sample_spectrum, across a chunk boundary
        from betahermite.ensemble import REPLICATE_CHUNK, EnsembleKind, EnsembleParams, SampleSeed
        from betahermite.tridiag import sample_spectrum

        reps = REPLICATE_CHUNK + 2
        out, want = tmp_path / "s.csv", tmp_path / "want.csv"
        assert run(["sample", "--n", "3", "--beta", "0.5", "--kind", "fixed-trace",
                    "--reps", str(reps), "--seed", "11", "--output", str(out)]) == 0
        p = EnsembleParams(3, 0.5, EnsembleKind.FIXED_TRACE)
        with want.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["replicate", "index", "eigenvalue"])
            for r in range(reps):
                for i, lam in enumerate(sample_spectrum(p, SampleSeed(11, r)).values):
                    w.writerow([r, i, repr(float(lam))])
        assert out.read_bytes() == want.read_bytes()

    def test_block_writer_bytes_equal_per_line_format(self):
        # signed zero, exponent forms and a subnormal, written the way repr writes them
        from betahermite.cli import _spectra_lines

        values = np.array([[-0.0, 1e-05, 1e+16], [5e-324, -2.5, 0.1]])
        want = "".join(f"{r},{i},{lam!r}\r\n"
                       for r, row in enumerate(values.tolist(), 1024) for i, lam in enumerate(row))
        assert _spectra_lines(1024, values) == want
        assert want.startswith("1024,0,-0.0\r\n1024,1,1e-05\r\n1024,2,1e+16\r\n1025,0,5e-324")

    @given(st.sampled_from([0, 9, 99, 510, 9_998, 10**6 - 2]),
           st.tuples(st.integers(1, 5), st.integers(1, 6)).flatmap(
               lambda shape: arrays(np.float64, shape,
                                    elements=st.floats(allow_nan=False, allow_infinity=False))))
    @example(9, np.array([[-0.0, 5e-324], [1e16, 1e-05]]))
    @settings(max_examples=200, deadline=None)
    def test_block_writer_equals_per_line_format(self, start, values):
        # the replicate number may gain a digit inside the block
        from betahermite.cli import _spectra_lines

        want = "".join(f"{r},{i},{lam!r}\r\n"
                       for r, row in enumerate(values.tolist(), start) for i, lam in enumerate(row))
        assert _spectra_lines(start, values) == want

    def test_block_writer_peak_memory_is_a_few_times_its_output(self):
        # the template and the block's floats, not a string per eigenvalue
        import tracemalloc

        from betahermite.cli import _spectra_lines

        block = np.random.default_rng(0).standard_normal((512, 400))
        tracemalloc.start()
        try:
            out = _spectra_lines(10**6, block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * len(out)

    def test_replicate_lines_do_not_depend_on_reps(self, tmp_path):
        # replicate 0 is row 0 of stream block 0 whether one or 600 replicates are drawn
        one, many = tmp_path / "one.csv", tmp_path / "many.csv"
        for out, reps in ((one, "1"), (many, "600")):
            assert run(["sample", "--n", "5", "--beta", "2", "--kind", "fixed-trace",
                        "--reps", reps, "--seed", "21", "--output", str(out)]) == 0
        lines = one.read_bytes().splitlines(keepends=True)
        assert len(lines) == 6 and many.read_bytes().startswith(b"".join(lines))

    def test_sidecar_records_the_stream_layout(self, tmp_path):
        from betahermite.ensemble import STREAM_LAYOUT

        out = tmp_path / "s.csv"
        assert run(["sample", "--n", "3", "--beta", "2", "--output", str(out)]) == 0
        meta = json.loads(out.with_suffix(".csv.json").read_text())
        assert meta["stream"] == STREAM_LAYOUT == "philox key (seed, replicate // 512)"

    def test_seconds_per_stage_on_stderr(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run(["sample", "--n", "4", "--beta", "2", "--reps", "600", "--seed", "2",
                    "--output", str(out)]) == 0
        seconds = stage_seconds(capsys.readouterr().err)
        assert list(seconds) == ["sample", "solve", "write"]
        assert all(s >= 0.0 for s in seconds.values())
        assert "time" not in out.with_suffix(".csv.json").read_text()

    @pytest.mark.parametrize("reps", ["0", "-1"])
    def test_no_replicates_is_usage_error(self, tmp_path, capsys, reps):
        out = tmp_path / "s.csv"
        assert run(["sample", "--n", "5", "--beta", "2", "--reps", reps,
                    "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists() and not (tmp_path / "s.csv.json").exists()

    @pytest.mark.parametrize("seeds", [[-1, -7, 0], [2**63, 2**63 + 5]])
    def test_distinct_seeds_give_distinct_spectra(self, tmp_path, seeds):
        # each seed word keys Philox exactly: no negative seed falls onto seed 0,
        # and no seed of 2^63 or more is rounded through float64
        written = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in seeds:
                out = tmp_path / f"s{seed}.csv"
                assert run(["sample", "--n", "4", "--beta", "2", "--reps", "3",
                            "--seed", str(seed), "--output", str(out)]) == 0
                written.append(out.read_bytes())
        assert len(set(written)) == len(seeds)

    def test_huge_finite_beta_is_usage_error(self, tmp_path, capsys):
        # 2*beta*n overflows, so the gamma shapes and the bulk scale would too
        out = tmp_path / "s.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["sample", "--n", "4", "--beta", "1e308", "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists() and not (tmp_path / "s.csv.json").exists()

    def test_fixed_trace_constraint(self, tmp_path):
        out = tmp_path / "f.csv"
        run(["sample", "--n", "10", "--beta", "2", "--kind", "fixed-trace",
             "--reps", "3", "--seed", "1", "--output", str(out)])
        rows = read_rows(out)
        for rep in ("0", "1", "2"):
            ssq = sum(float(r["eigenvalue"]) ** 2 for r in rows if r["replicate"] == rep)
            assert abs(ssq - 45.0) <= 1e-9 * 45.0


class TestDensity:
    def test_bulk_with_semicircle_reference(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run(["density", "--n", "50", "--beta", "2", "--kind", "fixed-trace",
                    "--reps", "40", "--seed", "5", "--regime", "bulk",
                    "--reference", "semicircle", "--output", str(out)]) == 0
        rows = read_rows(out)
        assert "semicircle" in rows[0]
        mid = rows[len(rows) // 2]
        assert abs(float(mid["semicircle"]) - 2.0 / np.pi) < 0.05

    def test_edge_with_aibeta_reference(self, tmp_path):
        out = tmp_path / "e.csv"
        assert run(["density", "--n", "80", "--beta", "2", "--reps", "40",
                    "--seed", "5", "--regime", "edge",
                    "--grid-lo", "-4", "--grid-hi", "1.5", "--bins", "22",
                    "--reference", "aibeta", "--output", str(out)]) == 0
        rows = read_rows(out)
        assert "aibeta" in rows[0]
        sidecar = json.loads(out.with_suffix(".csv.json").read_text())
        assert sidecar["regime"] == "edge"
        assert sidecar["normalization"] == "per-replicate"
        assert sidecar["params"] == {"n": 80, "beta": 2.0, "kind": "gaussian"}
        assert sidecar["n_samples"] == 40
        assert sidecar["config"]["seed"] == 5

    @pytest.mark.parametrize("kind", ["gaussian", "fixed-trace"])
    def test_beta4_aibeta_reference_fits_the_histogram(self, tmp_path, kind):
        # the edge-n400 command at beta = 4: the reference is in the histogram's own
        # edge unit t, so on t in [-4, 1] the gap is finite-n bias plus Monte Carlo
        # noise, within 0.1; a profile in doubled arguments is about 0.5 away
        out = tmp_path / "e.csv"
        assert run(["density", "--regime", "edge", "--kind", kind, "--n", "400",
                    "--beta", "4", "--reps", "2000", "--grid-lo", "-5", "--grid-hi", "2",
                    "--bins", "28", "--reference", "aibeta", "--seed", "0",
                    "--output", str(out)]) == 0
        rows = read_rows(out)
        t = np.array([0.5 * (float(r["bin_lo"]) + float(r["bin_hi"])) for r in rows])
        gap = np.array([abs(float(r["height"]) - float(r["aibeta"])) for r in rows])
        assert np.max(gap[(t >= -4.0) & (t <= 1.0)]) <= 0.1

    def test_raw_csv_roundtrip(self, tmp_path):
        # every cell reads back as the float computed, the reference column included
        from betahermite.density import Regime, sample_density, semicircle_bins
        from betahermite.ensemble import EnsembleKind, EnsembleParams

        out = tmp_path / "d.csv"
        assert run(["density", "--n", "8", "--beta", "2", "--kind", "fixed-trace",
                    "--reps", "30", "--seed", "8", "--regime", "bulk", "--grid-lo=-3",
                    "--grid-hi", "3", "--bins", "12", "--reference", "semicircle",
                    "--output", str(out)]) == 0
        grid = np.linspace(-3.0, 3.0, 13)
        d = sample_density(EnsembleParams(8, 2.0, EnsembleKind.FIXED_TRACE), 8, 30, grid,
                           Regime.BULK)
        assert out.read_text().splitlines()[0] == "bin_lo,bin_hi,height,semicircle"
        rows = read_rows(out)
        for col, want in (("bin_lo", grid[:-1]), ("bin_hi", grid[1:]), ("height", d.height),
                          ("semicircle", semicircle_bins(grid))):
            assert [float(r[col]) for r in rows] == want.tolist()
        meta = json.loads(out.with_suffix(".csv.json").read_text())
        assert (meta["regime"], meta["normalization"]) == ("bulk", "per-eigenvalue")

    @pytest.mark.parametrize("regime, reference", [("edge", "semicircle"), ("raw", "semicircle"),
                                                   ("bulk", "aibeta"), ("raw", "aibeta")])
    def test_reference_in_another_regime_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                                        regime, reference):
        # semicircle is the bulk density in u and aibeta the edge density in t: a column
        # in another regime's coordinate is refused before the reference or any sampling
        from betahermite import cli

        def no_work(*args, **kwargs):
            raise AssertionError("ran before the reference's regime was checked")

        for work in ("sample_density", "semicircle_bins", "edge_density_closed"):
            monkeypatch.setattr(cli, work, no_work)
        argv = ["density", "--n", "20", "--beta", "2", "--reps", "5", "--regime", regime,
                "--grid-lo=-2", "--grid-hi", "2", "--reference", reference,
                "--output", str(tmp_path / "x.csv")]
        for more in ([], ["--input", str(tmp_path / "missing.csv")]):
            assert run([*argv, *more]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: --reference {reference}") and len(err.splitlines()) == 1
            assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("regime, grid", [
        ("raw", []),
        ("bulk", []),
        ("edge", ["--grid-lo=-6", "--grid-hi", "2"]),  # the top eigenvalues, near t = 0
    ], ids=["raw", "bulk", "edge"])
    def test_density_from_spectra_file(self, tmp_path, regime, grid):
        spectra = tmp_path / "s.csv"
        run(["sample", "--n", "30", "--beta", "2", "--kind", "fixed-trace",
             "--reps", "20", "--seed", "13", "--output", str(spectra)])
        via_file = tmp_path / "via_file.csv"
        inline = tmp_path / "inline.csv"
        common = ["density", "--n", "30", "--beta", "2", "--kind", "fixed-trace",
                  "--regime", regime, *grid]
        assert run([*common, "--input", str(spectra), "--output", str(via_file)]) == 0
        assert run([*common, "--reps", "20", "--seed", "13", "--output", str(inline)]) == 0
        rows_a = read_rows(via_file)
        rows_b = read_rows(inline)
        assert [r["height"] for r in rows_a] == [r["height"] for r in rows_b]
        # both routes account for the same eigenvalues outside the grid
        mass = ("eigs_below", "eigs_above", "captured_fraction")
        meta_a = json.loads(via_file.with_suffix(".csv.json").read_text())
        meta_b = json.loads(inline.with_suffix(".csv.json").read_text())
        assert [meta_a[k] for k in mass] == [meta_b[k] for k in mass]
        assert meta_a["captured_fraction"] > 0.0

    def test_input_keeps_master_seed(self, tmp_path):
        from betahermite.cli import _read_spectra
        from betahermite.ensemble import STREAM_LAYOUT, EnsembleParams

        spectra = tmp_path / "s.csv"
        run(["sample", "--n", "5", "--beta", "1", "--reps", "2", "--seed", "13",
             "--output", str(spectra)])
        values, master_seed, stream = _read_spectra(spectra, EnsembleParams(5, 1.0))
        assert master_seed == 13 and values.shape == (2, 5) and stream == STREAM_LAYOUT

    def test_input_sidecar_records_the_spectra_seed_and_count(self, tmp_path):
        spectra, out = tmp_path / "s.csv", tmp_path / "d.csv"
        run(["sample", "--n", "6", "--beta", "2", "--reps", "7", "--seed", "4",
             "--output", str(spectra)])
        assert run(["density", "--input", str(spectra), "--n", "6", "--beta", "2",
                    "--output", str(out)]) == 0
        meta = json.loads(out.with_suffix(".csv.json").read_text())
        assert (meta["config"]["seed"], meta["config"]["reps"], meta["n_samples"]) == (4, 7, 7)

    @pytest.mark.parametrize("layout", ["philox key (seed, replicate // 512)", "other", None])
    def test_input_sidecar_keeps_the_spectra_stream_layout(self, tmp_path, layout):
        # the layout of the spectra read, not the one `density` would sample with;
        # None stands for a spectra sidecar that records no layout
        spectra, out = tmp_path / "s.csv", tmp_path / "d.csv"
        run(["sample", "--n", "6", "--beta", "2", "--reps", "3", "--output", str(spectra)])
        sidecar = tmp_path / "s.csv.json"
        meta = json.loads(sidecar.read_text())
        meta.pop("stream")
        if layout is not None:
            meta["stream"] = layout
        sidecar.write_text(json.dumps(meta))
        assert run(["density", "--input", str(spectra), "--n", "6", "--beta", "2",
                    "--output", str(out)]) == 0
        assert json.loads(out.with_suffix(".csv.json").read_text()).get("stream") == layout

    def test_input_sidecar_names_the_histogram_route(self, tmp_path):
        spectra, out = tmp_path / "s.csv", tmp_path / "d.csv"
        run(["sample", "--n", "6", "--beta", "2", "--reps", "3", "--output", str(spectra)])
        assert run(["density", "--input", str(spectra), "--n", "6", "--beta", "2",
                    "--output", str(out)]) == 0
        meta = json.loads(out.with_suffix(".csv.json").read_text())
        assert meta["count_route"] == {"route": "histogram"}

    @pytest.mark.parametrize("regime, grid, engaged", [
        ("edge", ["--grid-lo", "-5", "--grid-hi", "2", "--bins", "28"], True),
        ("bulk", [], False),
    ])
    def test_sampled_sidecar_counts_the_pivot_rows(self, tmp_path, regime, grid, engaged):
        # the edge-n400 command at seed 0: near the soft edge the certified tail
        # skips more than half of the rows with no fallback, while the default bulk
        # grid starts below the spectrum and runs every row
        out = tmp_path / "d.csv"
        assert run(["density", "--n", "400", "--beta", "2", "--reps", "2000", "--seed", "0",
                    "--regime", regime, *grid, "--output", str(out)]) == 0
        route = json.loads(out.with_suffix(".csv.json").read_text())["count_route"]
        assert set(route) == {"route", "pivot_rows", "full_rows", "fallbacks"}
        assert (route["route"], route["full_rows"], route["fallbacks"]) == ("sturm", 800_000, 0)
        if engaged:
            assert route["pivot_rows"] <= 400_000
        else:
            assert route["pivot_rows"] == 800_000

    def test_sampled_density_sidecar_records_the_stream_layout(self, tmp_path):
        from betahermite.ensemble import STREAM_LAYOUT

        out = tmp_path / "d.csv"
        assert run(["density", "--n", "6", "--beta", "2", "--reps", "3", "--output", str(out)]) == 0
        assert json.loads(out.with_suffix(".csv.json").read_text())["stream"] == STREAM_LAYOUT

    @pytest.mark.parametrize("edit", [
        "swap_rows", "drop_index", "non_numeric", "ragged", "header_only", "bad_header",
        "extra_column", "nan_eigenvalue", "float_key", "key_of_2_63", "truncated",
        "fractional_key", "cut_at_replicate", "extra_replicate",
    ])
    def test_malformed_input_is_usage_error(self, tmp_path, capsys, edit):
        spectra = tmp_path / "s.csv"
        assert run(["sample", "--n", "3", "--beta", "2", "--reps", "3", "--seed", "2",
                    "--output", str(spectra)]) == 0
        capsys.readouterr()  # the sample's own stage lines
        lines = spectra.read_text().splitlines()
        if edit == "swap_rows":  # replicate 1's rows ahead of replicate 0's last
            lines[3], lines[4] = lines[4], lines[3]
        elif edit == "drop_index":
            del lines[5]
        elif edit == "non_numeric":
            lines[2] = "0,1,abc"
        elif edit == "ragged":
            lines[2] = "0,1"
        elif edit == "header_only":
            lines = lines[:1]
        elif edit == "bad_header":
            lines[0] = "rep,idx,value"
        elif edit == "extra_column":
            lines = [line + ",0" for line in lines]
        elif edit == "float_key":  # keys are integers, as `sample` writes them
            lines[1] = "0.0" + lines[1][1:]
        elif edit == "fractional_key":  # refused, not truncated to replicate 0
            lines[1] = "0.5" + lines[1][1:]
        elif edit == "key_of_2_63":  # one past int64
            lines[1] = str(2**63) + lines[1][1:]
        elif edit == "truncated":  # cut inside the last replicate
            lines = lines[:-1]
        elif edit == "cut_at_replicate":  # 2 whole replicates of the sidecar's 3
            lines = lines[:1 + 3 * 2]
        elif edit == "extra_replicate":  # a replicate the sidecar does not record
            lines += [f"3,{i},0.5" for i in range(3)]
        else:
            lines[2] = "0,1,nan"
        spectra.write_text("\n".join(lines) + "\n")
        out = tmp_path / "d.csv"
        with warnings.catch_warnings():
            # as the installed command runs: the error::DeprecationWarning of the test
            # settings must not be what refuses a key
            warnings.simplefilter("ignore", DeprecationWarning)
            rc = run(["density", "--input", str(spectra), "--n", "3", "--beta", "2",
                      "--output", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {spectra}")
        if edit in ("cut_at_replicate", "extra_replicate"):
            held = 2 if edit == "cut_at_replicate" else 4
            assert err[0].startswith(f"error: {spectra} holds {held} replicates")
            assert f"{spectra}.json records --reps 3" in err[0]
        assert not out.exists()

    @given(st.tuples(st.integers(1, 5), st.integers(1, 6)).flatmap(
        lambda shape: arrays(np.float64, shape,
                             elements=st.floats(allow_nan=False, allow_infinity=False))))
    @example(np.array([[-0.0, 5e-324], [1e16, 1e-05]]))
    @settings(max_examples=200, deadline=None)
    def test_written_spectra_read_back_bit_for_bit(self, values):
        # what `_spectra_lines` writes, `_read_spectra` reads as csv.reader and float() do
        from betahermite.cli import SPECTRA_HEADER, _read_spectra, _spectra_lines
        from betahermite.ensemble import EnsembleParams

        R, n = values.shape
        with tempfile.TemporaryDirectory() as work:
            path = f"{work}/s.csv"
            with open(path, "w", newline="") as fh:
                fh.write(SPECTRA_HEADER + "\r\n" + _spectra_lines(0, values))
            with open(f"{path}.json", "w") as fh:
                json.dump({"config": {"n": n, "beta": 2.0, "kind": "gaussian", "reps": R,
                                      "seed": 0}}, fh)
            got, seed, stream = _read_spectra(path, EnsembleParams(n, 2.0))
            with open(path, newline="") as fh:
                body = list(csv.reader(fh))[1:]
        want = np.array([float(v) for _, _, v in body]).reshape(R, n)
        assert (seed, stream) == (0, None)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(want.view(np.uint64), values.view(np.uint64))

    @pytest.mark.parametrize("flags", [["--n", "400"], ["--beta", "4"],
                                       ["--kind", "fixed-trace"], ["--reps", "5"],
                                       ["--seed", "9"]])
    def test_input_rejects_flags_that_disagree_with_sidecar(self, tmp_path, capsys, flags):
        spectra = tmp_path / "s.csv"
        assert run(["sample", "--n", "50", "--beta", "2", "--reps", "3",
                    "--output", str(spectra)]) == 0
        capsys.readouterr()  # the sample's own stage lines
        argv = {"--n": "50", "--beta": "2", "--kind": "gaussian"}
        argv.update(zip(flags[::2], flags[1::2]))
        rc = run(["density", "--input", str(spectra), *[a for kv in argv.items() for a in kv],
                  "--output", str(tmp_path / "d.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and flags[0] in err
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("sidecar", [
        None, "{}", '{"config": {"n": 5}}', "{bad",
        '{"config": {"n": 5, "beta": 2, "kind": "gaussian", "seed": "x"}}',
    ])
    def test_input_without_valid_sidecar_is_usage_error(self, tmp_path, capsys, sidecar):
        spectra = tmp_path / "s.csv"
        assert run(["sample", "--n", "5", "--beta", "2", "--output", str(spectra)]) == 0
        capsys.readouterr()  # the sample's own stage lines
        meta = tmp_path / "s.csv.json"
        if sidecar is None:
            meta.unlink()
        else:
            meta.write_text(sidecar)
        rc = run(["density", "--input", str(spectra), "--n", "5", "--beta", "2",
                  "--output", str(tmp_path / "d.csv")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {meta}: ")

    def test_edge_sidecar_records_the_grid_on_the_eigenvalue_axis(self, tmp_path):
        # the fixed-trace soft-edge centre at beta = 2 is sqrt(2 (n - 1)); both
        # routes record the same eigenvalue-axis ends
        n, lo, hi = 100, -4.0, 1.5
        spectra = tmp_path / "s.csv"
        common = ["--n", str(n), "--beta", "2", "--kind", "fixed-trace"]
        assert run(["sample", *common, "--reps", "20", "--seed", "3",
                    "--output", str(spectra)]) == 0
        metas = []
        for name, route in (("sampled", ["--reps", "20", "--seed", "3"]),
                            ("input", ["--input", str(spectra)])):
            out = tmp_path / f"{name}.csv"
            assert run(["density", *common, *route, "--regime", "edge", "--grid-lo", str(lo),
                        "--grid-hi", str(hi), "--bins", "11", "--output", str(out)]) == 0
            metas.append(json.loads(out.with_suffix(".csv.json").read_text()))
        sampled, read = ((m["lambda_lo"], m["lambda_hi"]) for m in metas)
        assert sampled == read
        c = math.sqrt(2.0 * (n - 1))
        want = [c * (1.0 + t / (2.0 * n ** (2.0 / 3.0))) for t in (lo, hi)]
        assert sampled == pytest.approx(want, rel=1e-14)

    def test_sidecar_reports_captured_mass(self, tmp_path):
        out = tmp_path / "w.csv"
        assert run(["density", "--n", "100", "--beta", "2", "--kind", "fixed-trace",
                    "--reps", "20", "--seed", "3", "--regime", "bulk",
                    "--grid-lo", "-0.1", "--grid-hi", "0.1", "--bins", "4",
                    "--output", str(out)]) == 0
        meta = json.loads(out.with_suffix(".csv.json").read_text())
        # the semicircle puts 0.127 of the mass in the window
        assert meta["captured_fraction"] == pytest.approx(0.127, abs=0.05)
        captured = 2000 - meta["eigs_below"] - meta["eigs_above"]
        assert captured == round(meta["captured_fraction"] * 2000)
        assert meta["eigs_below"] > 500 and meta["eigs_above"] > 500

    def test_seconds_per_stage_on_stderr(self, tmp_path, capsys):
        spectra, out = tmp_path / "s.csv", tmp_path / "d.csv"
        args = ["density", "--n", "10", "--beta", "2", "--reference", "semicircle",
                "--output", str(out)]
        assert run([*args, "--reps", "20"]) == 0
        sampled = stage_seconds(capsys.readouterr().err)
        assert run(["sample", "--n", "10", "--beta", "2", "--reps", "20",
                    "--output", str(spectra)]) == 0
        capsys.readouterr()
        assert run([*args, "--input", str(spectra)]) == 0
        read = stage_seconds(capsys.readouterr().err)
        assert list(sampled) == ["reference", "sample+count", "write"]
        assert list(read) == ["reference", "read", "bin", "write"]
        assert all(s >= 0.0 for s in [*sampled.values(), *read.values()])
        assert "time" not in out.read_text() + out.with_suffix(".csv.json").read_text()

    def test_empty_grid_is_usage_error(self, tmp_path, capsys):
        # refused once the counts are in, before any file is written or any seconds printed
        rc = run(["density", "--n", "20", "--beta", "2", "--reps", "5", "--seed", "1",
                  "--regime", "bulk", "--grid-lo", "50", "--grid-hi", "60",
                  "--output", str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--grid-lo" in err and "[time]" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_grid_between_the_eigenvalues_is_usage_error(self, tmp_path, capsys):
        # every replicate straddles the grid, and none of its eigenvalues falls inside
        out = tmp_path / "x.csv"
        rc = run(["density", "--n", "2", "--beta", "2", "--reps", "2", "--seed", "0",
                  "--grid-lo=-0.6", "--grid-hi", "0.2", "--bins", "4", "--output", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "no eigenvalue falls inside the grid" in err
        assert not out.exists()

    def test_empty_grid_from_input_is_usage_error(self, tmp_path, capsys):
        spectra = tmp_path / "s.csv"
        run(["sample", "--n", "20", "--beta", "2", "--reps", "3", "--output", str(spectra)])
        rc = run(["density", "--input", str(spectra), "--n", "20", "--beta", "2",
                  "--grid-lo", "50", "--grid-hi", "60", "--output", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "--grid-lo" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [["--reps", "0"], ["--reps", "-3"], ["--bins", "0"],
                                     ["--bins", "-1"], ["--beta", "inf"], ["--grid-lo", "nan"],
                                     ["--grid-hi", "inf"], ["--beta", "1e308"], ["--bins", "-2"]])
    def test_no_replicates_or_bins_is_usage_error(self, tmp_path, capsys, bad):
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run(["density", "--n", "20", "--beta", "2", *bad, "--output", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        if bad[0] == "--bins":
            assert "--bins" in err
        assert not out.exists() and not (tmp_path / "x.csv.json").exists()

    def test_bins_over_the_table_cap_is_usage_error(self, tmp_path, capsys):
        from betahermite.cli import MAX_TABLE_ROWS

        out = tmp_path / "x.csv"
        rc = run(["density", "--n", "2", "--beta", "2", "--bins", str(MAX_TABLE_ROWS + 1),
                  "--output", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: --bins 1000001")
        assert not out.exists() and not (tmp_path / "x.csv.json").exists()

    def test_bins_narrower_than_float_spacing_is_usage_error(self, tmp_path, capsys):
        # 8 bins over a span of one ulp: linspace repeats edges, giving zero-width bins
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run(["density", "--n", "4", "--beta", "2", "--grid-lo", "1.414518371259585e-42",
                      "--grid-hi", "1.4145183712595861e-42", "--bins", "8",
                      "--reference", "semicircle", "--output", str(out)])
        assert rc == 2
        assert "--bins" in capsys.readouterr().err
        assert not out.exists()

    def test_aibeta_reference_below_airy_tail_domain_is_usage_error(self, tmp_path, capsys,
                                                                    monkeypatch):
        from betahermite import cli

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the reference was evaluated")

        monkeypatch.setattr(cli, "sample_density", no_sampling)
        out = tmp_path / "x.csv"
        rc = run(["density", "--n", "20", "--beta", "1", "--reps", "5", "--regime", "edge",
                  "--grid-lo=-1e9", "--grid-hi", "2", "--reference", "aibeta",
                  "--output", str(out)])
        assert rc == 2
        assert "x >= -200" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "x.csv.json").exists()

    def test_aibeta_rejects_general_beta(self, tmp_path, capsys):
        # 2.5 would pass as 2 if beta were cast to int before the check
        out = tmp_path / "x.csv"
        for beta in ("2.5", "3"):
            rc = run(["density", "--n", "20", "--beta", beta, "--reps", "5", "--seed", "1",
                      "--regime", "edge", "--reference", "aibeta", "--output", str(out)])
            assert rc == 2
            assert "kontsevich" in capsys.readouterr().err
            assert not out.exists() and not (tmp_path / "x.csv.json").exists()

    def test_aibeta_rejects_beta_before_sampling(self, tmp_path, monkeypatch):
        from betahermite import cli

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before beta was checked")

        monkeypatch.setattr(cli, "sample_density", no_sampling)
        rc = run(["density", "--n", "20", "--beta", "3", "--reps", "5", "--seed", "1",
                  "--regime", "edge", "--reference", "aibeta",
                  "--output", str(tmp_path / "x.csv")])
        assert rc == 2


class TestSpecial:
    def test_ai_value(self, capsys):
        assert run(["special", "--fn", "ai", "--x", "0"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert float(out[1].split(",")[1]) == pytest.approx(0.3550280538878173, abs=1e-14)

    def test_aibeta_value(self, capsys):
        assert run(["special", "--fn", "aibeta", "--beta", "2", "--x", "0"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert float(out[1].split(",")[1]) == pytest.approx(0.0669874837796640, abs=1e-7)

    def test_kontsevich_value(self, capsys):
        assert run(["special", "--fn", "kontsevich", "--kn", "2", "--beta", "2",
                    "--x", "0"]) == 0
        out = capsys.readouterr().out.splitlines()
        x, v, e = out[1].split(",")
        assert float(v) == pytest.approx(0.1339749675593280, abs=1e-10)
        assert float(e) <= 1e-10

    @pytest.mark.parametrize("x", ["80", "100"])
    def test_kontsevich_where_ai_underflows(self, capsys, x):
        # every term of the reduction underflows: K is 0, not a refused sum
        assert run(["special", "--fn", "kontsevich", "--kn", "2", "--beta", "2", "--x", x]) == 0
        assert capsys.readouterr().out.splitlines()[1] == f"{float(x)!r},0.0,1e-10"

    def test_table_to_file(self, tmp_path):
        out = tmp_path / "ai.csv"
        run(["special", "--fn", "ai-tail", "--x-lo", "-2", "--x-hi", "2",
             "--x-step", "1", "--output", str(out)])
        rows = out.read_text().splitlines()
        assert rows[0] == "x,value,error_estimate"
        assert len(rows) == 6
        # the sidecar records the flags that shaped the table, not --beta or --kn
        config = json.loads((tmp_path / "ai.csv.json").read_text())["config"]
        assert set(config) == {"command", "fn", "x_lo", "x_hi", "x_step", "output"}

    @pytest.mark.parametrize("argv, unread", [
        (["--fn", "ai", "--x", "0", "--x-lo", "5", "--x-step=-1"], ["--x-lo", "--x-step"]),
        (["--fn", "ai", "--kn", "3", "--x", "0"], ["--kn"]),
        (["--fn", "ai-tail", "--beta", "7", "--x", "0"], ["--beta"]),
        (["--fn", "aibeta", "--kn", "3"], ["--kn"]),
    ], ids=["x-range-with-x", "kn-with-ai", "beta-with-ai-tail", "kn-with-aibeta"])
    def test_unread_flag_is_usage_error(self, tmp_path, capsys, argv, unread):
        # a flag that --fn or --x does not read is refused before any table or file,
        # rather than silently dropped
        assert run(["special", *argv, "--output", str(tmp_path / "t.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ") and all(f in captured.err for f in unread)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad", [["--x-step", "0"], ["--x-step", "-0.25"],
                                     ["--x-step", "nan"], ["--x-lo", "1", "--x-hi", "0"],
                                     ["--x", "nan"], ["--x=-inf"], ["--x-hi", "inf"],
                                     ["--x-lo=-1e9"], ["--x-step", "1e-300"],
                                     ["--x-lo=-1e308", "--x-hi=1e308"]])
    def test_bad_x_range_is_usage_error(self, bad, capsys):
        assert run(["special", "--fn", "ai", *bad]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("cap, rc", [(5, 0), (4, 2)])
    def test_point_cap_counts_the_table(self, monkeypatch, capsys, cap, rc):
        # -2, -1, 0, 1, 2: five points
        from betahermite import cli

        monkeypatch.setattr(cli, "MAX_TABLE_ROWS", cap)
        assert run(["special", "--fn", "ai", "--x-lo=-2", "--x-hi", "2", "--x-step", "1"]) == rc
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == (6 if rc == 0 else 0)
        assert captured.err.startswith("error:") == (rc == 2)

    @pytest.mark.parametrize("beta", ["2.5", "3"])
    def test_aibeta_rejects_general_beta(self, tmp_path, capsys, beta):
        out = tmp_path / "x.csv"
        assert run(["special", "--fn", "aibeta", "--beta", beta, "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert "kontsevich" in captured.err and captured.out == ""
        assert not out.exists() and not (tmp_path / "x.csv.json").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fn", [["ai-tail"], ["aibeta", "--beta", "1"],
                                    ["aibeta", "--beta", "4"]])
    def test_huge_x_is_zero_without_warning(self, fn, capsys):
        assert run(["special", "--fn", *fn, "--x", "1e300"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out.splitlines()[1] == "1e+300,0.0,"

    @pytest.mark.parametrize("fn", [["ai-tail"], ["aibeta", "--beta", "1"]])
    def test_x_below_airy_tail_domain_is_usage_error(self, fn, capsys):
        assert run(["special", "--fn", *fn, "--x=-1e9"]) == 2
        assert "x >= -200" in capsys.readouterr().err

    @pytest.mark.parametrize("kn, beta", [("2", "0.001"), ("2", "0.01"), ("4", "0.1"),
                                          ("2", "1e-320"), ("2", "0.02")])
    def test_kontsevich_small_beta_is_usage_error(self, capsys, kn, beta):
        # a coefficient overflows, the sum is not finite, too many monomials, 4/beta
        # overflows, the sum cancels below its rounding bound
        assert run(["special", "--fn", "kontsevich", "--kn", kn, "--beta", beta,
                    "--x", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_kontsevich_overflowing_quadrature_fails(self, capsys):
        # 4/0.0099 ~ 404 is not an even integer, and u^404 overflows on the panels
        assert run(["special", "--fn", "kontsevich", "--kn", "2", "--beta", "0.0099",
                    "--x", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "nan" not in captured.out

    def test_kontsevich_without_backend_is_usage_error(self, capsys):
        assert run(["special", "--fn", "kontsevich", "--kn", "3", "--beta", "1.5",
                    "--x", "0"]) == 2
        assert "no quadrature backend" in capsys.readouterr().err


class TestVerify:
    def test_stieltjes_passes(self, tmp_path, capsys):
        rep = tmp_path / "r.json"
        rc = run(["verify", "--check", "stieltjes", "--n", "30", "--seed", "1",
                  "--output", str(rep)])
        assert rc == 0
        data = json.loads(rep.read_text())
        assert data["all_passed"]
        names = {c["check_name"] for c in data["checks"]}
        assert "stieltjes" in names

    def test_stieltjes_takes_any_integer_seed(self):
        # the perturbation draws reduce the seed modulo 2^64, as the samplers do
        low, high = (run_checks(["stieltjes"], master_seed=s) for s in (-1, 2**64 - 1))
        assert all(r.passed for r in low)
        assert [r.metric for r in low] == [r.metric for r in high]

    def test_integral_eq_beta4(self, tmp_path):
        rep = tmp_path / "r.json"
        rc = run(["verify", "--check", "integral-eq", "--n", "2", "--beta", "4",
                  "--output", str(rep)])
        assert rc == 0
        data = json.loads(rep.read_text())
        assert data["checks"][0]["metric"] <= 1e-6

    @pytest.mark.parametrize("beta", ["1", "30"])
    def test_integral_eq_n3_passes(self, tmp_path, beta):
        # odd beta (kinked |Delta|) and large even beta on the default n=3 grid
        rep = tmp_path / "r.json"
        assert run(["verify", "--check", "integral-eq", "--n", "3", "--beta", beta,
                    "--output", str(rep)]) == 0
        assert json.loads(rep.read_text())["checks"][0]["metric"] <= 1e-5

    @pytest.mark.parametrize("n, beta", [("3", "114"), ("3", "1000"), ("2", "400")])
    def test_integral_eq_overflow_is_usage_error(self, tmp_path, capsys, n, beta):
        # either side overflowing to inf or nan would print Infinity/NaN, which is not
        # JSON; at n=3 a beta above the rules' cap is refused before they are built
        out = tmp_path / "r.json"
        assert run(["verify", "--check", "integral-eq", "--n", n, "--beta", beta,
                    "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"n={n}" in err and f"beta={float(beta)}" in err
        assert not out.exists()

    @pytest.mark.parametrize("beta", ["1e6", "1e300"])
    def test_integral_eq_n2_beta_cap_is_usage_error(self, tmp_path, capsys, beta):
        # refused by the cap before any panel sized by beta is built
        out = tmp_path / "r.json"
        assert run(["verify", "--check", "integral-eq", "--n", "2", "--beta", beta,
                    "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "beta <= 140" in err and not out.exists()

    @pytest.mark.parametrize("n", ["2", "3"])
    def test_integral_eq_negative_beta_names_beta(self, tmp_path, capsys, n):
        # refused before lgamma (n=2) or the Jacobi rules (n=3) see it
        out = tmp_path / "r.json"
        assert run(["verify", "--check", "integral-eq", "--n", n, "--beta", "-1",
                    "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "beta" in err and not out.exists()

    @pytest.mark.parametrize("n", ["2", "3", "10"])
    def test_bound_dominance_is_the_largest_ratio(self, tmp_path, n):
        # density over the bound's largest value on each bin: a figure in (0, 1] that
        # moves with the seed, not the bound at an empty outer bin
        metrics = []
        for seed in ("1", "2"):
            out = tmp_path / f"r{seed}.json"
            assert run(["verify", "--check", "bound", "--n", n, "--seed", seed,
                        "--output", str(out)]) == 0
            checks = json.loads(out.read_text())["checks"]
            metrics.append([c["metric"] for c in checks if c["check_name"] == "bound-dominance"])
        assert all(0.0 < m <= 1.0 for m in metrics[0] + metrics[1])
        assert all(a != b for a, b in zip(*metrics))

    def test_moments_check(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["verify", "--check", "moments", "--seed", "1", "--output", str(out)]) == 0
        data = json.loads(out.read_text())
        assert [c["check_name"] for c in data["checks"]] == [
            "moments-equivalence", "moments-equivalence", "moments-ratio-ladder",
            "moments-trace"]
        assert data["all_passed"] and all(c["passed"] for c in data["checks"])

    def test_edge_remark_holds_the_routes_to_their_error_bars(self, tmp_path):
        # both sides are exact to about 1e-10, so a tolerance of 1e-3 would hide a lost digit
        out = tmp_path / "r.json"
        assert run(["verify", "--check", "edge-remark", "--output", str(out)]) == 0
        checks = {c["check_name"]: c for c in json.loads(out.read_text())["checks"]}
        for name in ("edge-remark-quadrature", "edge-remark-beta4"):
            assert checks[name]["passed"] and checks[name]["tolerance"] <= 5e-10

    def test_deterministic_report(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["verify", "--check", "stieltjes", "--seed", "4", "--output", str(a)])
        run(["verify", "--check", "stieltjes", "--seed", "4", "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("bad", [
        ["--check", "integral-eq", "--beta", "0"], ["--check", "integral-eq", "--beta", "inf"],
        ["--check", "stieltjes", "--n", "0"], ["--check", "stieltjes", "--n", "1"],
        ["--check", "bound", "--n", "0"],
    ])
    def test_explicit_bad_flag_is_usage_error(self, tmp_path, capsys, bad):
        # an explicit 0 is not replaced by the check's default
        out = tmp_path / "r.json"
        assert run(["verify", *bad, "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("n", ["0", "1"])
    def test_bound_refuses_n_below_two(self, tmp_path, capsys, n):
        # the trace sphere of n = 1 has radius 0, so its bound grid would collapse
        out = tmp_path / "r.json"
        assert run(["verify", "--check", "bound", "--n", n, "--output", str(out)]) == 2
        assert "the bound check needs n >= 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("unread", [
        ["--check", "moments", "--n", "5", "--beta", "3"], ["--check", "moments", "--n", "10"],
        ["--check", "bound", "--beta", "3"], ["--check", "stieltjes", "--beta", "2"],
        ["--check", "edge-remark", "--beta", "4"], ["--check", "all", "--n", "2"],
    ])
    def test_flag_a_check_ignores_is_usage_error(self, tmp_path, capsys, unread):
        out = tmp_path / "r.json"
        assert run(["verify", *unread, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "would be ignored" in err
        assert not out.exists()

    @pytest.mark.parametrize("check, cap", [("stieltjes", 200), ("bound", 500)])
    def test_n_over_the_cap_is_refused_before_the_check(self, tmp_path, capsys, monkeypatch,
                                                        check, cap):
        # stieltjes grows like n^3 in time and n^2 in memory, and bound's beta = 4 upper
        # bound overflows from n = 519
        from betahermite import checks

        def no_check(*args, **kwargs):
            raise AssertionError(f"ran {check} at an n over its cap")

        monkeypatch.setattr(checks, f"check_{check}", no_check)
        out = tmp_path / "r.json"
        assert run(["verify", "--check", check, "--n", str(cap + 1), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"n <= {cap}" in err
        assert not out.exists()
        checks.validate_flags([check], n=cap)  # the cap itself is taken

    def test_seconds_per_check_on_stderr(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run(["verify", "--check", "stieltjes", "--n", "5", "--output", str(out)]) == 0
        times = [line.split() for line in capsys.readouterr().err.splitlines()
                 if line.startswith("[time]")]
        assert len(times) == 1 and times[0][1] == "stieltjes" and times[0][3] == "s"
        assert float(times[0][2]) >= 0.0
        assert "time" not in out.read_text()

    def test_unknown_check_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--check", "nonsense"])
        assert exc.value.code == 2

    def test_failing_check_gives_exit_1(self, monkeypatch, tmp_path):
        from betahermite import cli
        from betahermite.checks import CheckResult

        def fake(names, master_seed=1, n=None, beta=None):
            return [CheckResult("fake", {}, 1.0, 0.5, False, "injected failure")]

        monkeypatch.setattr(cli, "run_checks", fake)
        rc = run(["verify", "--check", "stieltjes", "--output", str(tmp_path / "r.json")])
        assert rc == 1


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--n", "not-an-int", "--beta", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["sample", "--n", "3", "--beta", "2"],
    ["density", "--n", "3", "--beta", "2", "--reps", "5"],
    ["special", "--fn", "ai", "--x", "1.0"],
    ["verify", "--check", "stieltjes", "--n", "5"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("target", ["directory", "under-a-file"])
def test_unwritable_output_is_usage_error(tmp_path, capsys, argv, target):
    # an --output that cannot be opened is refused like any other bad flag: one
    # "error:" line and exit 2, never a traceback or the check-failure status 1
    (tmp_path / "file").write_text("")
    out = tmp_path if target == "directory" else tmp_path / "file" / "out.csv"
    assert run([*argv, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, work", [
    (["density", "--n", "400", "--beta", "2", "--reps", "20000", "--regime", "edge",
      "--grid-lo", "-5", "--grid-hi", "2", "--reference", "aibeta"], "sample_density"),
    (["verify", "--check", "all"], "run_checks"),
], ids=["density", "verify"])
@pytest.mark.parametrize("target", ["directory", "missing-directory", "under-a-file"])
def test_unusable_output_is_refused_before_any_work(tmp_path, capsys, monkeypatch, argv, work,
                                                   target):
    # the refusal comes before the sampling or the checks it would waste, and writes nothing
    from betahermite import cli

    def no_work(*args, **kwargs):
        raise AssertionError(f"{work} ran before --output was refused")

    monkeypatch.setattr(cli, work, no_work)
    (tmp_path / "file").write_text("")
    out = {"directory": tmp_path, "missing-directory": tmp_path / "no" / "out.csv",
           "under-a-file": tmp_path / "file" / "out.csv"}[target]
    before = sorted(tmp_path.rglob("*"))
    assert run([*argv, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --output") and len(err.splitlines()) == 1
    assert sorted(tmp_path.rglob("*")) == before


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "betahermite.cli", "special", "--fn", "ai", "--x", "1.0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "value" in proc.stdout


def test_import_leaves_out_scipy_signal():
    # scipy.signal costs about as much to import as everything else together,
    # scipy.integrate pulls in scipy.optimize, sparse and spatial, scipy.fft
    # costs about 26 ms, and every command pays for the import
    heavy = ("scipy.signal", "scipy.integrate", "scipy.optimize", "scipy.fft")
    code = f"import sys, betahermite.cli; print([m for m in {heavy!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# 0, negatives, nan and inf, plus floats up to 1e12 in size, whose x ranges
# `special` must refuse; the narrow band puts grids where the scaled spectra lie
_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.sampled_from([0.0, -0.0, -1.0, 1.0, 2.0, 4.0]),
    st.floats(-3.0, 3.0),
    st.floats(-50.0, 50.0),
    st.floats(-1e12, 1e12),
)
_BETAS = st.one_of(st.sampled_from([0.5, 1.0, 2.0, 4.0, 1e308]), _FLOATS)


@st.composite
def _argv(draw):
    """Random `sample`, `density` or `special` argv (`--fn kontsevich` has its own tests)."""
    def flt(flag, strategy=_FLOATS):
        return f"--{flag}={draw(strategy)!r}"

    command = draw(st.sampled_from(["sample", "density", "special"]))
    if command == "special":
        fn = draw(st.sampled_from(["ai", "ai-prime", "ai-tail", "aibeta"]))
        # only aibeta reads --beta; the other functions refuse it
        argv = ["special", "--fn", fn, *([flt("beta", _BETAS)] if fn == "aibeta" else [])]
        if draw(st.booleans()):
            return [*argv, flt("x")]
        return [*argv, flt("x-lo"), flt("x-hi"),
                flt("x-step", st.sampled_from([0.0, -1.0, math.nan, 0.25, 1.0]))]
    argv = [command, f"--n={draw(st.integers(-2, 12))}", flt("beta", _BETAS),
            "--kind", draw(st.sampled_from(["gaussian", "fixed-trace"])),
            f"--reps={draw(st.integers(-2, 20))}", f"--seed={draw(st.integers(-2**64, 2**64))}"]
    if command == "density":
        lo = draw(_FLOATS)
        argv += ["--regime", draw(st.sampled_from(["bulk", "edge", "raw"])),
                 f"--grid-lo={lo!r}", f"--grid-hi={lo + draw(_FLOATS)!r}",
                 f"--bins={draw(st.integers(-2, 40))}"]
        reference = draw(st.sampled_from([None, "semicircle", "aibeta"]))
        if reference is not None:
            argv += ["--reference", reference]
    return argv


@given(_argv())
@example(["special", "--fn", "ai-tail", "--x=-inf"])
@example(["density", "--n=4", "--beta=2.0", "--grid-hi=inf"])
@example(["density", "--n=1", "--beta=0.5", "--reps=0", "--grid-lo=1.414518371259585e-42",
          "--grid-hi=1.4145183712595861e-42", "--bins=8", "--reference", "semicircle"])
@settings(max_examples=300, deadline=None)
def test_random_argv_exits_0_1_or_2_without_traceback(argv):
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(stderr), \
            contextlib.redirect_stdout(io.StringIO()):
        try:
            rc = main([*argv, "--output", f"{tmp}/out.csv"])
        except SystemExit as exc:  # argparse rejects the argv
            rc = exc.code
    assert rc in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()
