import numpy as np
import pytest

from phaselab.experiments import experiment_comparison
from phaselab.fields import Field
from phaselab.grids import circle_grid, interval_grid, torus_grid
from phaselab.io import (
    CorruptSnapshotError,
    UnsupportedSnapshotVersion,
    emit_plotdata,
    load_snapshot,
    load_snapshot_with_meta,
    save_snapshot,
)
from phaselab.nodal import extract_nodal_set, fit_decay
from phaselab.potentials import quartic
from phaselab.solvers import (
    SolveConfig,
    StopRule,
    gradient_flow,
    newton_refine,
    reflect_extend,
    solve_dirichlet_model,
)

P = quartic()


@pytest.mark.parametrize(
    "grid",
    [circle_grid(64), interval_grid(33, 1.25), torus_grid(16, 24, (2 * np.pi, 4.0))],
    ids=["circle", "interval", "torus"],
)
def test_snapshot_roundtrip_bit_exact(tmp_path, grid):
    rng = np.random.default_rng(42)
    f = Field(grid, rng.uniform(-1, 1, grid.shape), 0.37)
    path = tmp_path / "snap.txt"
    save_snapshot(f, path, potential={"kind": "quartic"})
    g, meta = load_snapshot_with_meta(path)
    assert np.array_equal(g.values, f.values)
    assert g.epsilon == f.epsilon
    assert g.grid == f.grid
    assert meta["potential"] == {"kind": "quartic"}
    assert meta["config_hash"] == "-"


def test_snapshot_value_lines_are_hex_then_shortest_decimal(tmp_path):
    special = [0.1, -0.0, 5e-324, -1e300, 1.0 / 3.0]
    f = Field(circle_grid(16), np.array(special + [0.0] * 11), 0.5)
    path = tmp_path / "snap.txt"
    save_snapshot(f, path)
    lines = path.read_text().splitlines()
    assert lines[5] == "values: 16"
    assert lines[6:11] == [
        "0x1.999999999999ap-4 0.1",
        "-0x0.0p+0 -0.0",
        "0x0.0000000000001p-1022 5e-324",
        "-0x1.7e43c8800759cp+996 -1e+300",
        "0x1.5555555555555p-2 0.3333333333333333",
    ]
    assert np.array_equal(load_snapshot(path).values.view(np.int64), f.values.view(np.int64))


def _bits(values):
    return np.ascontiguousarray(values).view(np.int64)


def test_snapshot_values_keep_their_bits_but_nans_load_as_the_canonical_quiet_nan(tmp_path):
    exact = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, np.inf, -np.inf, -1e300, 0.1]
    nan_bits = [0xFFF8000000000000, 0x7FF0000000000001, 0xFFF0000000000001, 0x7FF8000000000000]
    nans = np.array(nan_bits, dtype=np.uint64).view(np.float64)
    values = np.concatenate([exact, nans, np.zeros(3)])
    f = Field(circle_grid(16), values, 0.5)
    path = tmp_path / "snap.txt"
    save_snapshot(f, path)
    assert path.read_text().splitlines()[6 + len(exact) : 6 + len(exact) + len(nans)] == ["nan nan"] * 4
    loaded = _bits(load_snapshot(path).values)
    assert np.array_equal(loaded[: len(exact)], _bits(np.array(exact)))
    assert loaded[len(exact) : len(exact) + len(nans)].tolist() == [0x7FF8000000000000] * 4
    assert np.array_equal(loaded[len(exact) + len(nans) :], _bits(np.zeros(3)))


def _snapshot_text_value_by_value(f: Field) -> bytes:
    """A snapshot of ``f`` without a potential, each value line formatted on its own."""
    g = f.grid
    label = {"interval": "half_length", "circle": "circumference", "torus": "circumferences"}[g.kind]
    lines = [
        "phaselab-snapshot 1",
        f"grid: {g.kind} {' '.join(map(str, g.shape))} {' '.join(L.hex() for L in g.lengths)} "
        f"# {label} {' '.join(map(repr, g.lengths))}",
        f"epsilon: {f.epsilon.hex()} # {f.epsilon!r}",
        "potential: null",
        "config: -",
        f"values: {f.values.size}",
    ]
    lines += [f"{x.hex()} {x!r}" for x in np.ascontiguousarray(f.values).ravel().tolist()]
    return ("\n".join(lines) + "\n").encode()


def _fibered_torus_field():  # 256 distinct values, each repeated along its fiber
    g = torus_grid(256, 64, (2 * np.pi, 3.0))
    return Field(g, g.extrude(np.tanh(np.sin(g.axis(0) - 0.1) / 0.15)), 0.15)


def _glued_circle_field():
    return reflect_extend(solve_dirichlet_model(np.pi / 2, 0.2, P, n=129), 4)


def _distinct_torus_field():
    g = torus_grid(32, 24, (2 * np.pi, 4.0))
    return Field(g, np.random.default_rng(5).standard_normal(g.shape), 0.37)


@pytest.mark.parametrize(
    "make, distinct",
    [(_fibered_torus_field, 256), (_glued_circle_field, None), (_distinct_torus_field, 32 * 24)],
    ids=["fibered-256x64", "reflect-extend", "all-distinct"],
)
def test_snapshot_bytes_are_the_per_value_formula(tmp_path, make, distinct):
    f = make()
    if distinct is not None:
        assert np.unique(_bits(f.values)).size == distinct
    else:  # the gluing repeats its piece with both signs, and its joints are +0.0 and -0.0
        assert np.unique(_bits(f.values)).size < f.values.size // 2
        assert {0, -(2**63)} <= set(_bits(f.values).tolist())
    path = tmp_path / "snap.txt"
    save_snapshot(f, path)
    assert path.read_bytes() == _snapshot_text_value_by_value(f)
    assert np.array_equal(_bits(load_snapshot(path).values), _bits(f.values))


@pytest.mark.parametrize("case", ["transposed-torus", "strided-circle"])
def test_a_non_c_ordered_field_writes_the_bytes_of_its_c_ordered_copy(tmp_path, case):
    rng = np.random.default_rng(11)
    if case == "transposed-torus":  # rounded, so that values repeat out of C order
        grid, values = torus_grid(32, 24, (2 * np.pi, 4.0)), np.round(rng.uniform(-1, 1, (24, 32)), 1).T
    else:
        grid, values = circle_grid(64), np.round(rng.uniform(-1, 1, 128), 1)[::2]
    f = Field(grid, values, 0.4)
    assert not f.values.flags.c_contiguous
    save_snapshot(f, tmp_path / "view.txt")
    save_snapshot(Field(grid, np.ascontiguousarray(values), 0.4), tmp_path / "copy.txt")
    assert (tmp_path / "view.txt").read_bytes() == (tmp_path / "copy.txt").read_bytes()
    assert (tmp_path / "view.txt").read_bytes() == _snapshot_text_value_by_value(f)


def test_field_csv_is_the_per_value_formula(tmp_path):
    g = torus_grid(16, 24, (2 * np.pi, 4.0))
    values = np.asfortranarray(np.round(np.random.default_rng(2).uniform(-1, 1, g.shape), 1))
    values[0, :3] = [0.0, -0.0, 0.0]
    f = Field(g, values, 0.3)
    emit_plotdata(f, tmp_path / "field.csv")
    theta, y = np.meshgrid(g.axis(0), g.axis(1), indexing="ij")
    cells = zip(theta.ravel().tolist(), y.ravel().tolist(), np.ravel(values).tolist())
    rows = ["theta,y,value"] + [f"{a!r},{b!r},{v!r}" for a, b, v in cells]
    assert (tmp_path / "field.csv").read_text() == "\n".join(rows) + "\n"


@pytest.mark.parametrize(
    "grid, line",
    [
        (interval_grid(33, 1.25), "grid: interval 33 0x1.4000000000000p+0 # half_length 1.25"),
        (
            circle_grid(64),
            "grid: circle 64 0x1.921fb54442d18p+2 # circumference 6.283185307179586",
        ),
        (
            torus_grid(16, 24, (2 * np.pi, 4.0)),
            "grid: torus 16 24 0x1.921fb54442d18p+2 0x1.0000000000000p+2 "
            "# circumferences 6.283185307179586 4.0",
        ),
    ],
    ids=["interval", "circle", "torus"],
)
def test_snapshot_grid_line(tmp_path, grid, line):
    path = tmp_path / "snap.txt"
    save_snapshot(Field(grid, np.zeros(grid.shape), 0.5), path)
    assert path.read_text().splitlines()[1] == line


@pytest.mark.parametrize(
    "line",
    [
        "grid: sphere 64 0x1.921fb54442d18p+2",
        "grid: circle 64",
        "grid: circle 8 0x1.921fb54442d18p+2",
        "grid: torus 64 0x1.921fb54442d18p+2",
        "grid: circle sixty-four 0x1.921fb54442d18p+2",
        "grid: circle 64 inf",
        "grid: circle 64 nan",
        "grid: circle 64 0x1p+99999",  # float.fromhex raises OverflowError, which is no ValueError
        "grid: circle 64 64 0x1.921fb54442d18p+2 0x1.921fb54442d18p+2",
        "grid:",
    ],
)
def test_snapshot_bad_grid_line(tmp_path, line):
    path = tmp_path / "snap.txt"
    save_snapshot(Field(circle_grid(64), np.zeros(64), 0.5), path)
    lines = path.read_text().splitlines()
    lines[1] = line
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorruptSnapshotError):
        load_snapshot(path)


def test_snapshot_wrong_count(tmp_path):
    f = Field(circle_grid(32), np.zeros(32), 0.5)
    path = tmp_path / "snap.txt"
    save_snapshot(f, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-3]) + "\n")
    with pytest.raises(CorruptSnapshotError, match="expected 32 values, found 29"):
        load_snapshot(path)


def test_snapshot_value_count_must_match_its_grid(tmp_path):
    path = tmp_path / "snap.txt"
    save_snapshot(Field(circle_grid(32), np.zeros(32), 0.5), path)
    lines = path.read_text().splitlines()
    lines[1] = lines[1].replace("circle 32 ", "circle 16 ")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorruptSnapshotError, match="value count 32 does not match grid size 16"):
        load_snapshot(path)


def test_snapshot_future_version(tmp_path):
    f = Field(circle_grid(32), np.zeros(32), 0.5)
    path = tmp_path / "snap.txt"
    save_snapshot(f, path)
    text = path.read_text().replace("phaselab-snapshot 1", "phaselab-snapshot 7", 1)
    path.write_text(text)
    with pytest.raises(UnsupportedSnapshotVersion, match="version 7"):
        load_snapshot(path)


def test_snapshot_not_a_snapshot(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("hello world\n")
    with pytest.raises(CorruptSnapshotError):
        load_snapshot(path)


@pytest.mark.parametrize("text", ["", "\n  \n"])
def test_snapshot_without_lines_is_corrupt(tmp_path, text):
    path = tmp_path / "empty.snap"
    path.write_text(text)
    with pytest.raises(CorruptSnapshotError, match="empty snapshot file"):
        load_snapshot(path)


MALFORMED = {  # case -> (line index, its replacement); None cuts the file there
    "truncated_after_epsilon": (3, None),
    "non_integer_version": (0, "phaselab-snapshot one"),
    "bad_epsilon_hex": (2, "epsilon: 0xzz # 0.5"),
    "epsilon_overflows": (2, "epsilon: 0x1p+99999 # inf"),
    "epsilon_inf": (2, "epsilon: inf"),
    "epsilon_nan": (2, "epsilon: nan"),
    "epsilon_zero": (2, "epsilon: 0x0.0p+0"),
    "epsilon_negative": (2, "epsilon: -0x1.0000000000000p-1"),
    "bad_potential_json": (3, 'potential: {"kind": '),
    "non_integer_value_count": (5, "values: many"),
    "bad_value_line": (10, "0xnope 0.0"),
    "value_overflows": (10, "0x1p+99999 inf"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_snapshot_is_corrupt(tmp_path, case):
    i, text = MALFORMED[case]
    path = tmp_path / "snap.txt"
    save_snapshot(Field(circle_grid(32), np.zeros(32), 0.5), path, potential=P.describe())
    lines = path.read_text().splitlines()
    if text is None:
        del lines[i:]
    else:
        lines[i] = text
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorruptSnapshotError):
        load_snapshot(path)


def test_the_first_bad_value_line_fails_first_though_it_repeats_later(tmp_path):
    path = tmp_path / "snap.txt"
    save_snapshot(Field(circle_grid(32), np.zeros(32), 0.5), path)
    lines = path.read_text().splitlines()
    # a line whose hex overflows raises OverflowError, not a parse error, if it is read first
    lines[8], lines[10], lines[12] = "0xnope 0.0", "0x1p+99999 inf", "0xnope 0.0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(
        CorruptSnapshotError, match="^bad values or epsilon: invalid hexadecimal floating-point string$"
    ):
        load_snapshot(path)


def test_emit_field_csv(tmp_path):
    g = circle_grid(32)
    f = Field(g, np.sin(g.axis(0)), 0.3)
    path = tmp_path / "profile.csv"
    emit_plotdata(f, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "theta,value"
    assert len(lines) == 33


def test_emit_decay_csv(tmp_path):
    sol = solve_dirichlet_model(np.pi / 2, 0.05, P, SolveConfig(tol_grad=1e-11), n=1025)
    f = newton_refine(reflect_extend(sol, 2), P).field
    ns = extract_nodal_set(f)
    fit = fit_decay(f, ns)
    path = tmp_path / "decay.csv"
    emit_plotdata((fit, f, ns), path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# amplitude=")
    assert lines[1] == "distance,log_gap,fitted"


def test_emit_trace_csv(tmp_path):
    g = circle_grid(64)
    f = Field(g, np.full(64, 0.2), 0.9)
    trace = gradient_flow(f, P, None, StopRule(max_steps=100))
    path = tmp_path / "trace.csv"
    emit_plotdata(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,energy"
    assert len(lines) == 102  # header + initial energy + 100 steps


def test_emit_report_csv(tmp_path):
    rep = experiment_comparison()
    path = tmp_path / "census.csv"
    emit_plotdata(rep, path)
    lines = path.read_text().splitlines()
    assert "case" in lines[0].split(",")
    assert len(lines) == 1 + len(rep.runs)


def test_emit_nodal_csv(tmp_path):
    g = circle_grid(64)
    f = Field(g, np.sin(g.axis(0)), 0.3)
    path = tmp_path / "nodal.csv"
    emit_plotdata(extract_nodal_set(f), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "position,direction"
    assert len(lines) == 3


def _assert_cells_parse(path, skip_lines=1, columns=None):
    """Every cell after the header lines is a float literal or empty."""
    lines = path.read_text().splitlines()
    header = lines[skip_lines - 1].split(",")
    for line in lines[skip_lines:]:
        for name, cell in zip(header, line.split(",")):
            if columns is None or name in columns:
                for item in cell.strip('"').split(";"):
                    if item:
                        float(item)


@pytest.mark.parametrize(
    "grid",
    [interval_grid(33, 1.25), circle_grid(64), torus_grid(16, 24, (2 * np.pi, 4.0))],
    ids=["interval", "circle", "torus"],
)
def test_emitted_csv_cells_are_plain_numbers(tmp_path, grid):
    axes = np.meshgrid(*(grid.axis(i) for i in range(len(grid.shape))), indexing="ij")
    f = Field(grid, np.sin(axes[0] - 0.3), 0.3)
    emit_plotdata(f, tmp_path / "field.csv")
    _assert_cells_parse(tmp_path / "field.csv")
    if grid.kind != "interval":
        emit_plotdata(extract_nodal_set(f), tmp_path / "nodal.csv")
        _assert_cells_parse(tmp_path / "nodal.csv")
        assert len((tmp_path / "nodal.csv").read_text().splitlines()) > 1


def test_emitted_decay_trace_and_report_cells_are_plain_numbers(tmp_path):
    sol = solve_dirichlet_model(np.pi / 2, 0.05, P, SolveConfig(tol_grad=1e-11), n=1025)
    f = newton_refine(reflect_extend(sol, 2), P).field
    ns = extract_nodal_set(f)
    emit_plotdata((fit_decay(f, ns), f, ns), tmp_path / "decay.csv")
    _assert_cells_parse(tmp_path / "decay.csv", skip_lines=2)
    header = (tmp_path / "decay.csv").read_text().splitlines()[0]
    for item in header[1:].split():
        float(item.split("=")[1])

    g = circle_grid(512)
    seed = Field(g, np.sin(2 * g.axis(0)), 0.2)
    trace = gradient_flow(seed, P, None, StopRule(max_steps=100, sample_every=50, track_nodal=True))
    emit_plotdata(trace, tmp_path / "trace.csv")
    _assert_cells_parse(tmp_path / "trace.csv")

    rep = experiment_comparison()
    emit_plotdata(rep, tmp_path / "report.csv")
    numeric = {
        k
        for r in rep.runs
        for k, v in r.items()
        if isinstance(v, (float, int, np.number, list, tuple)) and not isinstance(v, bool)
    }
    assert numeric
    _assert_cells_parse(tmp_path / "report.csv", columns=numeric)


def test_emit_rejects_unknown(tmp_path):
    with pytest.raises(TypeError):
        emit_plotdata(object(), tmp_path / "x.csv")
