"""The benchmark's tracer (bench/tracing.py) wraps library functions by
name when it installs, so every name in its LAYERS table must exist in its
revcarleson.<layer> module, or a traced benchmark run fails at start."""

import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_traced_function_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracing = importlib.import_module("tracing")
    for layer, names in tracing.LAYERS.items():
        module = importlib.import_module(f"revcarleson.{layer}")
        missing = [n for n in names if not callable(getattr(module, n, None))]
        assert not missing, f"revcarleson.{layer} lacks {missing}"


SYMBOL = "kind: constant\ndimension: 1\ndata: {value: [0.5, 0.0]}\n"
POINTS = "points:\n- [[0.5, 0.0]]\n- [[0.75, 0.0]]\n- [[0.875, 0.0]]\n"
# one small d = 1 op of each subcommand
TRACED_OPS = (
    ["verify-kernels", "--dim", "1", "--resolution", "64"],
    ["criteria", "--dim", "1", "--resolution", "64"],
    ["equivalence", "--dim", "1", "--resolution", "64", "--refinements", "2"],
    ["pack", "--dim", "1", "--delta", "0.5", "--h", "0.1",
     "--grid-points", "500"],
    ["dbr-check", "--dim", "1", "--resolution", "64", "--symbol", "b.yaml"],
    ["refute-sampling", "--dim", "1", "--resolution", "64", "--refinements",
     "2", "--symbol", "b.yaml", "--points", "w.yaml"],
)


def _pass(main, tmp_path, name, capsys, tracer=None):
    """Exit code, stdout and written files of each op, run as the benchmark
    runs them: through cli.main, each op a span named after its
    subcommand when traced."""
    outdir = tmp_path / name
    outdir.mkdir()
    results = []
    for i, argv in enumerate(TRACED_OPS):
        argv = [str(tmp_path / a) if a.endswith(".yaml") else a
                for a in argv] + ["--out", str(outdir / f"op{i:02d}.json")]
        if tracer is None:
            code = main(argv)
        else:
            code = tracer.call(f"cli.{argv[0]}", main, argv)
        results.append((code, capsys.readouterr().out))
    files = {f.name: f.read_bytes() for f in sorted(outdir.iterdir())}
    return results, files


def test_traced_run_matches_untraced(monkeypatch, tmp_path, capsys):
    # the benchmark's traced pass wraps the library functions the CLI
    # calls by name: a traced run must record them, change no report and
    # put every original back
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracing = importlib.import_module("tracing")
    from revcarleson.cli import main
    (tmp_path / "b.yaml").write_text(SYMBOL)
    (tmp_path / "w.yaml").write_text(POINTS)
    untraced = _pass(main, tmp_path, "untraced", capsys)

    tracer = tracing.Tracer()
    tracer.install()
    patched = list(tracer._patched)
    assert "revcarleson.cli.greedy_packing" in tracer.patched_names()
    try:
        traced = _pass(main, tmp_path, "traced", capsys, tracer)
    finally:
        tracer.restore()
    spans, _ = tracer.take()

    assert traced == untraced
    # no op failed on its input; verify-kernels misses its 1e-6 tolerance
    # on 64 nodes, a verdict failure
    assert [code for code, _ in untraced[0]] == [1, 0, 0, 0, 0, 0]
    names = {span[3] for span in spans}
    assert {f"cli.{argv[0]}" for argv in TRACED_OPS} <= names
    assert {"criteria.equivalence_report", "geometry.greedy_packing",
            "kernels.kernel_norm", "quadrature.integrate_sphere",
            "dbr.kernel_test", "dbr.one_minus_b_integral",
            "dbr.refute_sampling"} <= names
    for mod, attr, original in patched:
        assert getattr(mod, attr) is original, f"{mod.__name__}.{attr}"
