import contextlib
import functools
import io
import json
import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qhcurv
from conftest import exact_scales, get_bank, get_torsion_bank
from qhcurv import cli
from qhcurv import curvature_space as cs
from qhcurv import decomposition as dec
from qhcurv import tensor_io as tio
from qhcurv import tensor_ops as top
from qhcurv import torsion as tor
from qhcurv.model_space import build_model


def test_tensor_file_roundtrip(tmp_path):
    m = build_model(2)
    R = cs.random_curvature(m, 0).tensor
    path = tmp_path / "r.qht"
    tio.write_tensor(path, 2, R, certified=True)
    back = tio.read_tensor(path)
    assert back.n == 2 and back.rank == 4
    assert np.array_equal(back.data, R)
    # the flag byte of the header is written and never read
    assert path.read_bytes()[5] == tio.FLAG_CERTIFIED


def test_tensor_file_errors(tmp_path):
    path = tmp_path / "bad.qht"
    path.write_bytes(b"NOPE" + b"\0" * 32)
    with pytest.raises(tio.TensorFileError):
        tio.read_tensor(path)
    with pytest.raises(tio.TensorFileError):
        tio.write_tensor(tmp_path / "x.qht", 2, np.zeros((4, 4)))  # dims != 4n
    good = tmp_path / "trunc.qht"
    tio.write_tensor(good, 2, np.zeros((8, 8)))
    data = good.read_bytes()
    good.write_bytes(data[:-16])
    with pytest.raises(tio.TensorFileError):
        tio.read_tensor(good)
    # every cut inside the header of a rank-4 file (12 fixed + 16 dims bytes)
    full = tmp_path / "full.qht"
    tio.write_tensor(full, 2, np.zeros((8,) * 4))
    data = full.read_bytes()
    cut = tmp_path / "cut.qht"
    for size in range(4, 28):
        cut.write_bytes(data[:size])
        with pytest.raises(tio.TensorFileError):
            tio.read_tensor(cut)
    # trailing bytes after a complete payload
    over = tmp_path / "over.qht"
    tio.write_tensor(over, 2, np.zeros((8,) * 3))
    over.write_bytes(over.read_bytes() + b"\0" * 64)
    with pytest.raises(tio.TensorFileError, match="64 bytes after the payload"):
        tio.read_tensor(over)
    # any rank reads back; n = 0 (which would leave the rank unbounded) does not
    five = tmp_path / "five.qht"
    tio.write_tensor(five, 1, np.ones((4,) * 5))
    assert tio.read_tensor(five).rank == 5
    path.write_bytes(tio.MAGIC + struct.pack("<BBHI", 200, 0, 0, 0) + bytes(800))
    with pytest.raises(tio.TensorFileError, match="n = 0"):
        tio.read_tensor(path)
    # nor is it written: the writer rejects n < 1 before opening the file
    for n in (0, -1):
        never = tmp_path / f"n{n}.qht"
        with pytest.raises(tio.TensorFileError, match=f"n = {n}"):
            tio.write_tensor(never, n, np.zeros(0))
        assert not never.exists()
    # non-finite payloads
    for value in (np.nan, np.inf, -np.inf):
        bad = np.zeros((8,) * 3)
        bad[1, 2, 3] = value
        tio.write_tensor(path, 2, bad)
        with pytest.raises(tio.TensorFileError):
            tio.read_tensor(path)


@pytest.mark.parametrize("n, rank", [(1, 1), (1, 2), (2, 3), (2, 4)])
def test_read_tensor_returns_owned_float64(tmp_path, n, rank):
    """The data is a float64 array of the header's shape that owns its
    memory and can be written, not a view of the file's bytes; NaN and
    infinite payloads still raise."""
    data = np.random.default_rng(rank).standard_normal((4 * n,) * rank)
    path = tmp_path / "t.qht"
    tio.write_tensor(path, n, data)
    back = tio.read_tensor(path).data
    assert back.dtype == np.float64 and back.shape == (4 * n,) * rank
    assert back.flags.owndata and back.flags.writeable
    assert np.array_equal(back, data)
    back[...] = 0.0
    assert np.array_equal(tio.read_tensor(path).data, data)
    for value in (np.nan, np.inf, -np.inf):
        bad = data.copy()
        bad[(-1,) * rank] = value
        tio.write_tensor(path, n, bad)
        with pytest.raises(tio.TensorFileError, match="NaN or infinite"):
            tio.read_tensor(path)


def _rank3_file() -> bytes:
    """The bytes of a complete n = 2 rank-3 tensor file (24 header bytes)."""
    data = np.random.default_rng(3).standard_normal((8,) * 3)
    return (tio.MAGIC + struct.pack("<BBHI", 3, 0, 0, 2) + struct.pack("<3I", 8, 8, 8)
            + data.astype("<f8").tobytes())


@pytest.mark.parametrize("case, error, match", [
    ("empty", tio.TensorFileError, "bad magic b''"),
    ("magic only", tio.TensorFileError, "truncated header"),
    ("header cut", tio.TensorFileError, "truncated header"),
    ("payload cut", tio.TensorFileError, "truncated payload"),
    ("one trailing byte", tio.TensorFileError, "1 bytes after the payload"),
    ("directory", IsADirectoryError, None),
])
def test_read_tensor_edge_files(tmp_path, case, error, match):
    """The one-pass read rejects each of these files with the exception
    type, and message, of a buffered read of the whole file."""
    raw = _rank3_file()
    path = tmp_path / "edge.qht"
    content = {"empty": b"", "magic only": tio.MAGIC, "header cut": raw[:17],
               "payload cut": raw[:-5], "one trailing byte": raw + b"\0"}
    if case == "directory":
        path.mkdir()
    else:
        path.write_bytes(content[case])
    with pytest.raises(error, match=match) as info:
        tio.read_tensor(path)
    if case == "directory":
        assert info.value.filename == str(path)


def test_read_tensor_reads_a_pipe(tmp_path):
    """A path with no size at fstat (a pipe, as from process substitution)
    reads to EOF: here a rank-4 file of 32 KiB, more than one first read."""
    data = np.random.default_rng(4).standard_normal((8,) * 4)
    tio.write_tensor(tmp_path / "r4.qht", 2, data)
    raw = (tmp_path / "r4.qht").read_bytes()
    r, w = os.pipe()
    os.write(w, raw)  # fits the pipe's buffer, so no writer thread
    os.close(w)
    try:
        back = tio.read_tensor(f"/dev/fd/{r}")
    finally:
        os.close(r)
    assert back.rank == 4 and back.n == 2
    assert back.data.tobytes() == data.tobytes()


@st.composite
def _damaged_files(draw):
    """A valid tensor file (as bytes) and one way of damaging it: cut at any
    byte, append any tail, or set any payload entry to NaN or +-inf."""
    n = draw(st.integers(1, 2))
    rank = draw(st.integers(0, 4))
    data = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))) \
        .standard_normal((4 * n,) * rank)
    header = tio.MAGIC + struct.pack("<BBHI", rank, 0, 0, n) \
        + struct.pack(f"<{rank}I", *data.shape)
    raw = header + np.ascontiguousarray(data, dtype="<f8").tobytes()
    how = draw(st.sampled_from(["cut", "tail", "non-finite"]))
    if how == "cut":
        bad = raw[:draw(st.integers(0, len(raw) - 1))]
    elif how == "tail":
        bad = raw + draw(st.binary(min_size=1, max_size=64))
    else:
        k = draw(st.integers(0, data.size - 1))
        value = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        at = len(header) + 8 * k
        bad = raw[:at] + struct.pack("<d", value) + raw[at + 8:]
    return n, data, raw, bad


@settings(max_examples=200, deadline=None)
@given(_damaged_files())
def test_read_tensor_rejects_every_damaged_file(tmp_path_factory, case):
    n, data, raw, bad = case
    path = tmp_path_factory.getbasetemp() / "damaged.qht"
    path.write_bytes(raw)
    back = tio.read_tensor(path)
    assert back.n == n and np.array_equal(back.data, data)
    path.write_bytes(bad)
    with pytest.raises(tio.TensorFileError):
        tio.read_tensor(path)


def test_report_bytes_deterministic(tmp_path):
    res = [{"check": "x", "value": [0.1, 1.0 / 3.0], "tolerance": 1e-9}]
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    tio.write_report(p1, 2, "audit", {"tol": 1e-9}, res, [])
    tio.write_report(p2, 2, "audit", {"tol": 1e-9}, res, [])
    assert p1.read_bytes() == p2.read_bytes()


def test_report_rejects_nan_without_writing(tmp_path):
    path = tmp_path / "nan.json"
    with pytest.raises(ValueError):
        tio.write_report(path, 2, "audit", {}, {"v": float("nan")}, [])
    assert not path.exists()


def test_cli_usage_errors(tmp_path, capsys, monkeypatch):
    assert cli.main(["audit", "--n", "1"]) == 1
    assert cli.main(["audit", "--n", "5"]) == 1
    assert cli.main(["audit", "--n", "4", "--allow-large"]) == 1
    assert cli.main(["bogus"]) == 1
    # make-tensor writes no report
    out = str(tmp_path / "R.qht")
    assert cli.main(["make-tensor", "--n", "2", "--output", out, "--json", "x"]) == 1
    # a table run without seeds is refused before any bank is built
    builds = []
    for module, name in ((tor, "build_torsion_bank"), (dec, "build_sp_projectors")):
        monkeypatch.setattr(module, name, lambda *a, _name=name, **k: builds.append(_name))
    capsys.readouterr()
    for seeds in ("0", "-1"):
        assert cli.main(["tables", "--n", "2", "--seeds", seeds]) == 1
        out, err = capsys.readouterr()
        assert err == "qhcurv: --seeds must be at least 1\n" and out == ""
    assert builds == []


@pytest.mark.parametrize("command", ["audit", "decompose", "torsion", "tables"])
def test_cli_unwritable_report_is_one_line(command, tmp_path, capsys):
    """A --json path that cannot be opened ends the run with one qhcurv:
    line and exit 2, after the checks ran, and prints no summary."""
    m = build_model(2)
    argv = [command, "--n", "2", "--json", str(tmp_path / "missing" / "r.json")]
    if command == "decompose":
        tio.write_tensor(tmp_path / "R.qht", 2, cs.random_curvature(m, 3).tensor,
                         certified=True)
        argv += ["--input", str(tmp_path / "R.qht")]
    elif command == "torsion":
        rng = np.random.default_rng(3)
        tio.write_tensor(tmp_path / "t.qht", 2,
                         tor.project_to_torsion_space(m, rng.standard_normal((8,) * 3)))
        argv += ["--input", str(tmp_path / "t.qht")]
    elif command == "tables":
        argv += ["--seeds", "1"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert len(err.splitlines()) == 1 and err.startswith("qhcurv: ")
    assert "No such file" in err and "Traceback" not in out + err
    assert out == ""


@pytest.mark.parametrize("kind", ["random-curvature", "qk-ray", "random-torsion",
                                  "nabla-omega"])
def test_cli_make_tensor_unwritable_output_is_one_line(kind, tmp_path, capsys):
    """An --output that cannot be opened ends make-tensor with one qhcurv:
    line and exit 2, for every kind, the three nabla-omega files included."""
    out = tmp_path / "missing" / "R.qht"
    assert cli.main(["make-tensor", "--n", "2", "--kind", kind, "--output", str(out)]) == 2
    out_text, err = capsys.readouterr()
    assert len(err.splitlines()) == 1 and err.startswith("qhcurv: ")
    assert "No such file" in err and "Traceback" not in out_text + err
    assert out_text == ""
    assert not (tmp_path / "missing").exists()


def test_cli_audit(tmp_path, capsys):
    out = tmp_path / "audit.json"
    code = cli.main(["audit", "--n", "2", "--json", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    results = {r["check"]: r for r in report["results"]}
    assert results["dim_R"]["value"] == 336
    assert results["dim_QK"]["value"] == 36
    assert report["failures"] == []


def test_cli_decompose(tmp_path, capsys):
    m = build_model(2)
    ray = tmp_path / "ra.qht"
    tio.write_tensor(ray, 2, m.pi2 + 6.0 * m.pi1, certified=True)
    out = tmp_path / "dec.json"
    assert cli.main(["decompose", "--n", "2", "--input", str(ray),
                     "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    norms = {r["check"]: r for r in report["results"]}["component_norms"]["value"]
    nonzero = {k for k, v in norms.items() if v > 1e-8}
    assert nonzero == {"R_a"}
    # random certified curvature reconstructs (Parseval) through the CLI,
    # from the fine components and from QK and QKperp alike
    R = cs.random_curvature(m, 5).tensor
    rnd = tmp_path / "rnd.qht"
    tio.write_tensor(rnd, 2, R, certified=True)
    out2 = tmp_path / "dec2.json"
    assert cli.main(["decompose", "--n", "2", "--input", str(rnd),
                     "--json", str(out2)]) == 0
    results = {r["check"]: r["value"] for r in json.loads(out2.read_text())["results"]}
    total = top.frob(R) ** 2
    assert sum(v * v for v in results["component_norms"].values()) \
        == pytest.approx(total, rel=1e-12)
    assert results["qk_norm"] ** 2 + results["qkperp_norm"] ** 2 == pytest.approx(total, rel=1e-12)
    # uncertifiable input exits 2
    bad = tmp_path / "bad.qht"
    tio.write_tensor(bad, 2, cs.substream("junk", 3).standard_normal((8,) * 4))
    assert cli.main(["decompose", "--n", "2", "--input", str(bad)]) == 2


def test_cli_decompose_names_the_broken_pair_exchange(tmp_path, capsys):
    """A curvature tensor plus a part skew in both pairs and odd under pair
    exchange: decompose exits 2 with a failure naming pair_exchange, and
    the report is byte-identical across two runs."""
    R = cs.random_curvature(build_model(2), 8).tensor
    X = cs.substream("odd-pairs", 0).standard_normal((8,) * 4)
    X = X - X.swapaxes(0, 1)
    X = X - X.swapaxes(2, 3)
    X = X - X.transpose(2, 3, 0, 1)
    path = tmp_path / "odd.qht"
    tio.write_tensor(path, 2, R + 1e-3 * top.frob(R) / top.frob(X) * X, certified=True)
    reports = []
    for run in range(2):
        out = tmp_path / f"odd{run}.json"
        assert cli.main(["decompose", "--n", "2", "--input", str(path),
                         "--json", str(out)]) == 2
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    (failure,) = json.loads(reports[0])["failures"]
    assert failure.startswith("curvature condition pair_exchange failed: residual ")
    assert f"FAIL: {failure}" in capsys.readouterr().out


def test_cli_tol_is_a_usage_error_on_every_command(tmp_path, capsys, monkeypatch):
    """No flag moves a gate: --tol exits 1 on every subcommand, also on a
    file 40 % off the torsion space, which the fixed gate rejects."""
    m, tbank = build_model(2), get_torsion_bank(2)
    monkeypatch.setattr(tor, "build_torsion_bank", lambda m: tbank)
    t = tbank.random_component("KH", 1)
    noise = cs.substream("tol-off", 0).standard_normal(t.shape)
    off = noise - tor.project_to_torsion_space(m, noise)
    tfile, rfile = tmp_path / "off.qht", tmp_path / "R.qht"
    tio.write_tensor(tfile, 2, t + (0.4 / 0.84 ** 0.5) * top.frob(t) / top.frob(off) * off)
    tio.write_tensor(rfile, 2, cs.random_curvature(m, 0).tensor)
    assert tor.torsion_space_residual(m, tio.read_tensor(tfile).data) == pytest.approx(0.4)
    for command, *rest in (["audit"], ["decompose", "--input", str(rfile)],
                           ["torsion", "--input", str(tfile)], ["tables"],
                           ["make-tensor", "--output", str(tmp_path / "x.qht")]):
        assert cli.main([command, "--n", "2", *rest, "--tol", "1"]) == 1, command
    capsys.readouterr()
    assert cli.main(["torsion", "--n", "2", "--input", str(tfile)]) == 2
    (resid,) = re.findall(r"^FAIL: input outside the torsion space: residual (\S+)$",
                          capsys.readouterr().out, re.M)
    assert float(resid) == pytest.approx(0.4)


def test_cli_verdicts_read_each_norm_once(tmp_path, monkeypatch):
    """One decompose run and one torsion run, from a tensor or from
    nabla-omega data, each call ComponentBank.norms exactly once."""
    m, bank, tbank = build_model(2), get_bank(2), get_torsion_bank(2)
    monkeypatch.setattr(tor, "build_torsion_bank", lambda m: tbank)
    monkeypatch.setattr(dec, "build_sp_projectors", lambda m: bank)
    calls, norms = [], dec.ComponentBank.norms
    monkeypatch.setattr(dec.ComponentBank, "norms",
                        lambda self, x: calls.append(type(self).__name__) or norms(self, x))
    t = tbank.random_component("EH", 0)
    nws = tor.nabla_omega_from_torsion(m, t, cs.substream("once", 0).standard_normal((3, 8)))
    files = {"R": cs.random_curvature(m, 0).tensor, "t": t, **dict(zip("IJK", nws))}
    for name, data in files.items():
        tio.write_tensor(tmp_path / name, 2, data)
    for argv, bank_type in ((["decompose", "--input", "R"], "ProjectorBank"),
                            (["torsion", "--input", "t"], "TorsionBank"),
                            (["torsion", "--from-nabla-omega", "I", "J", "K"], "TorsionBank")):
        calls.clear()
        argv = [str(tmp_path / a) if a in files else a for a in argv]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([argv[0], "--n", "2", *argv[1:]]) == 0
        assert calls == [bank_type], argv


def _curvature_plus_4form(size: float) -> np.ndarray:
    """random_curvature(m, 7) at n = 2 plus a Lambda^4 part of ``size``
    relative to it: its only defect is its Bianchi part."""
    R = cs.random_curvature(build_model(2), 7).tensor
    four = top.alt(cs.substream("lambda4", 0).standard_normal((8,) * 4))
    return R + size * top.frob(R) / top.frob(four) * four


@pytest.mark.parametrize("size", [1e-4, 1e-6], ids=["parseval", "bianchi"])
def test_cli_decompose_outside_R_is_a_verification_failure(size, tmp_path, capsys):
    """A curvature tensor plus a Lambda^4 part of 1e-4 or 1e-6 relative
    size fails certification at CERT_TOL by its Bianchi residual: a FAIL
    line, the report written, exit 2.  Certification comes first, so no
    such input reaches the Parseval gate of component_norms through the
    CLI; on the raw array that gate rejects the 1e-4 part (1e-8 of |R|^2)
    and lets the 1e-6 one (1e-12) through."""
    path, out = tmp_path / "near.qht", tmp_path / "near.json"
    tio.write_tensor(path, 2, _curvature_plus_4form(size))
    assert cli.main(["decompose", "--n", "2", "--input", str(path),
                     "--json", str(out)]) == 2
    report = json.loads(out.read_text())
    assert report["results"] == []
    (failure,) = report["failures"]
    assert failure.startswith("curvature condition bianchi failed")
    assert f"FAIL: {failure}" in capsys.readouterr().out
    with (pytest.raises(cs.CertificationError, match="not in the curvature space")
          if size > 1e-5 else contextlib.nullcontext()):
        dec.component_norms(get_bank(2), _curvature_plus_4form(size))


def _nabla_omega_off_by(size: float) -> np.ndarray:
    """Realizable n = 2 nabla-omega data plus 2-form noise of ``size``
    relative to it; 99 % of that noise is not realizable."""
    m = build_model(2)
    rng = cs.substream("nw-tol", 0)
    t = tor.project_to_torsion_space(m, rng.standard_normal((8,) * 3))
    nws = tor.nabla_omega_from_torsion(m, t, rng.standard_normal((3, 8)))
    noise = rng.standard_normal((3,) + (8,) * 3)
    noise = noise - noise.swapaxes(2, 3)
    return nws + size * top.frob(nws) / top.frob(noise) * noise


@pytest.mark.parametrize("kind", ["decompose", "nabla-omega"])
def test_cli_tol_is_applied_as_given(kind, tmp_path, monkeypatch):
    """The CLI gates at one fixed constant, CERT_TOL (1e-10) for decompose
    and torsion.RESIDUAL_TOL (1e-9) for nabla-omega data: data whose only
    defect is 1e-11 relative (a Lambda^4 part, or a non-realizable part of
    nabla-omega data) passes, a defect of ten times the constant fails, and
    the report records the constant."""
    bank, tbank = get_bank(2), get_torsion_bank(2)
    monkeypatch.setattr(tor, "build_torsion_bank", lambda m: tbank)
    monkeypatch.setattr(dec, "build_sp_projectors", lambda m: bank)
    gate = cs.CERT_TOL if kind == "decompose" else tor.RESIDUAL_TOL

    def run(size):
        if kind == "decompose":
            path = tmp_path / "R.qht"
            tio.write_tensor(path, 2, _curvature_plus_4form(size))
            resid = cs.curvature_residuals(tio.read_tensor(path).data)["bianchi"]
            argv = ["decompose", "--n", "2", "--input", str(path)]
        else:
            files = [str(tmp_path / f"nw.{label}") for label in "IJK"]
            for f, w in zip(files, _nabla_omega_off_by(size)):
                tio.write_tensor(f, 2, w)
            resid = tor.torsion_from_nabla_omega(
                build_model(2), *[tio.read_tensor(f).data for f in files])[2]
            argv = ["torsion", "--n", "2", "--from-nabla-omega", *files]
        assert 0.5 * size < resid < 2.0 * size
        out = tmp_path / "report.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*argv, "--json", str(out)])
        report = json.loads(out.read_text())
        assert report["tolerances"] == {"tol": gate}
        return code, report["failures"]

    assert run(1e-11) == (0, [])
    code, failures = run(10.0 * gate)
    assert code == 2 and failures


def test_cli_torsion_roundtrip(tmp_path, capsys):
    m = build_model(2)
    tbank = tor.build_torsion_bank(m)
    t = tbank.random_component("EH", 0)
    tfile = tmp_path / "t.qht"
    tio.write_tensor(tfile, 2, t)
    out = tmp_path / "t.json"
    assert cli.main(["torsion", "--n", "2", "--input", str(tfile),
                     "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    mask = {r["check"]: r for r in report["results"]}["class_mask"]["value"]
    assert mask == "000001"
    # nabla-omega route matches the direct classification
    lambdas = cs.substream("cli-lam", 0).standard_normal((3, m.dim))
    nws = tor.nabla_omega_from_torsion(m, t, lambdas)
    files = []
    for label, w in zip("IJK", nws):
        f = tmp_path / f"nw{label}.qht"
        tio.write_tensor(f, 2, w)
        files.append(str(f))
    out2 = tmp_path / "t2.json"
    assert cli.main(["torsion", "--n", "2", "--from-nabla-omega", *files,
                     "--json", str(out2)]) == 0
    report2 = json.loads(out2.read_text())
    mask2 = {r["check"]: r for r in report2["results"]}["class_mask"]["value"]
    assert mask2 == mask
    # zero input is the quaternionic-Kaehler class
    zf = tmp_path / "zero.qht"
    tio.write_tensor(zf, 2, np.zeros((8, 8, 8)))
    out3 = tmp_path / "t3.json"
    assert cli.main(["torsion", "--n", "2", "--input", str(zf),
                     "--json", str(out3)]) == 0
    assert json.loads(out3.read_text())["results"][1]["value"] == "000000"


def test_cli_make_tensor(tmp_path, capsys):
    out = tmp_path / "mk.qht"
    assert cli.main(["make-tensor", "--n", "2", "--kind", "random-curvature",
                     "--seed", "4", "--output", str(out)]) == 0
    assert out.read_bytes()[5] == tio.FLAG_CERTIFIED
    assert cli.main(["make-tensor", "--n", "2", "--kind", "nabla-omega",
                     "--output", str(tmp_path / "nw")]) == 0
    for label in "IJK":
        assert (tmp_path / f"nw.{label}").read_bytes()[5] == 0


def test_cli_tables_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "t1.json", tmp_path / "t2.json"
    code1 = cli.main(["tables", "--n", "2", "--seeds", "2", "--json", str(out1)])
    code2 = cli.main(["tables", "--n", "2", "--seeds", "2", "--json", str(out2)])
    assert code1 == 0 and code2 == 0
    assert out1.read_bytes() == out2.read_bytes()


#: What each command's report must keep under any BLAS thread count.
_THREAD_INVARIANTS = {
    ("audit", "--n", "2"): lambda results: results["ranks"],
    ("tables", "--n", "2", "--seeds", "2"): lambda results: [
        (c["source"], c["table"], c["target"], c["status"], c["tick"])
        for c in results["cells"]],
}


#: Prints the OpenBLAS thread count as the benchmark reads it
#: (``perfbench/run.py``'s ``blas_runtime``), given that directory.
_BLAS_THREADS = ("import sys; sys.path.insert(0, sys.argv[1]); import numpy, run; "
                 "print(run.blas_runtime(numpy)[1])")


@pytest.mark.parametrize("argv", sorted(_THREAD_INVARIANTS), ids=lambda argv: argv[0])
def test_cli_results_independent_of_blas_threads(argv, tmp_path):
    """The report keeps its invariants with 1 and with 2 OpenBLAS threads,
    and a child with the same environment reads that thread count."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qhcurv.__file__)))
    perfbench = os.path.join(os.path.dirname(src), "perfbench")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    seen = []
    for threads in ("1", "2"):
        child = dict(env, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        probe = subprocess.run([sys.executable, "-c", _BLAS_THREADS, perfbench], env=child,
                               capture_output=True, text=True, check=True, timeout=60)
        if probe.stdout.split() == ["None"]:
            pytest.skip("numpy loads no OpenBLAS that reports its thread count")
        assert probe.stdout.split() == [threads]
        out = tmp_path / f"{threads}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "qhcurv.cli", *argv, "--json", str(out)],
            env=child, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        results = {r["check"]: r["value"] for r in json.loads(out.read_text())["results"]}
        seen.append(_THREAD_INVARIANTS[argv](results))
    assert seen[0] == seen[1]


def test_cli_torsion_rejects_non_torsion_input(tmp_path, capsys):
    rng = cs.substream("nontorsion", 0)
    raw = rng.standard_normal((8, 8, 8))
    t = 0.5 * (raw - raw.swapaxes(1, 2))      # form-valued but wrong type content
    f = tmp_path / "junk.qht"
    tio.write_tensor(f, 2, t)
    assert cli.main(["torsion", "--n", "2", "--input", str(f)]) == 2
    # nabla-omega data must be 2-forms in (Y, Z): a clean exit 2, no traceback
    g = tmp_path / "raw.qht"
    tio.write_tensor(g, 2, raw)
    capsys.readouterr()
    assert cli.main(["torsion", "--n", "2", "--from-nabla-omega", *[str(g)] * 3]) == 2
    assert capsys.readouterr().err == (
        "qhcurv: nabla-omega inputs must be antisymmetric in (Y, Z)\n")


#: (command, file rank, file n) that `--n 2` must refuse.
_WRONG_FILES = [("decompose", 3, 2), ("decompose", 4, 3),
                ("torsion", 4, 2), ("torsion", 3, 3),
                ("nabla-omega", 2, 2), ("nabla-omega", 3, 3)]


@pytest.mark.parametrize("command, rank, n", _WRONG_FILES,
                         ids=[f"{c}-rank{r}-n{n}" for c, r, n in _WRONG_FILES])
def test_cli_rejects_wrong_rank_or_n(command, rank, n, tmp_path, capsys, monkeypatch):
    """A file of the wrong rank or n is a usage error found before any bank
    is built (the n = 3 torsion bank alone takes seconds)."""
    builds = []
    for module, name in ((tor, "build_torsion_bank"), (dec, "build_sp_projectors")):
        monkeypatch.setattr(module, name, lambda *a, _name=name, **k: builds.append(_name))
    f = tmp_path / "wrong.qht"
    tio.write_tensor(f, n, np.zeros((4 * n,) * rank))
    argv = (["torsion", "--n", "2", "--from-nabla-omega", *[str(f)] * 3]
            if command == "nabla-omega" else [command, "--n", "2", "--input", str(f)])
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert len(err.splitlines()) == 1 and err.startswith("qhcurv: ")
    assert "Traceback" not in out + err
    assert builds == []


#: the file rank each input mode expects
_EXPECTED_RANK = {"decompose": 4, "torsion": 3, "nabla-omega": 3}


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(sorted(_EXPECTED_RANK)), rank=st.integers(0, 6),
       file_n=st.integers(1, 3), n=st.integers(2, 3))
def test_cli_rejects_any_wrong_rank_or_n(tmp_path_factory, command, rank, file_n, n):
    """Every file whose rank (0..6) or n does not match the command is a
    one-line usage error (exit 1), found before any bank is built."""
    if rank == _EXPECTED_RANK[command] and file_n == n:
        return
    dims = (4 * file_n,) * rank
    raw = (tio.MAGIC + struct.pack("<BBHI", rank, 0, 0, file_n)
           + struct.pack(f"<{rank}I", *dims) + bytes(8 * int(np.prod(dims))))
    f = tmp_path_factory.getbasetemp() / "wrong-any.qht"
    f.write_bytes(raw)
    argv = (["torsion", "--n", str(n), "--from-nabla-omega", *[str(f)] * 3]
            if command == "nabla-omega" else [command, "--n", str(n), "--input", str(f)])
    builds = []
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        for module, name in ((tor, "build_torsion_bank"), (dec, "build_sp_projectors")):
            mp.setattr(module, name, lambda *a, _name=name, **k: builds.append(_name))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code == 1
    assert len(err.getvalue().splitlines()) == 1 and err.getvalue().startswith("qhcurv: ")
    assert "Traceback" not in out.getvalue() + err.getvalue()
    assert builds == []


def test_cli_rejects_unreadable_files(tmp_path, capsys):
    m = build_model(2)
    head = tmp_path / "head.qht"
    tio.write_tensor(head, 2, m.pi1, certified=True)
    head.write_bytes(head.read_bytes()[:9])
    assert cli.main(["decompose", "--n", "2", "--input", str(head)]) == 2
    assert capsys.readouterr().err.startswith("qhcurv: truncated header")
    over = tmp_path / "over.qht"
    tio.write_tensor(over, 2, tor.project_to_torsion_space(m, np.ones((8,) * 3)))
    over.write_bytes(over.read_bytes() + b"\0" * 64)
    assert cli.main(["torsion", "--n", "2", "--input", str(over)]) == 2
    assert capsys.readouterr().err.startswith("qhcurv: 64 bytes after the payload")
    nan = tmp_path / "nan.qht"
    tio.write_tensor(nan, 2, np.full((8,) * 3, np.nan))
    assert cli.main(["torsion", "--n", "2", "--input", str(nan)]) == 2
    assert capsys.readouterr().err.startswith("qhcurv: payload holds NaN")
    assert cli.main(["torsion", "--n", "2", "--from-nabla-omega",
                     str(nan), str(nan), str(nan)]) == 2
    assert capsys.readouterr().err.startswith("qhcurv: payload holds NaN")
    assert cli.main(["decompose", "--n", "2", "--input", str(tmp_path / "none.qht")]) == 2
    assert "No such file" in capsys.readouterr().err


def _extreme_inputs() -> dict:
    """Finite n = 2 inputs, each command's, whose largest entry is about
    1e307 and one of whose component norms exceeds the largest float:
    a unit KH plus a unit EH tensor times 2^1024, the nabla-omega data of
    that tensor, and a unit S4E plus a unit V22 tensor times 2^1024."""
    m, bank, tbank = build_model(2), get_bank(2), get_torsion_bank(2)
    t = np.ldexp(tbank.random_component("KH", 5) + tbank.random_component("EH", 5), 1024)
    R = cs.random_curvature(m, 3).tensor
    parts = [bank.project(R, name) for name in ("S4E", "V22")]
    R = np.ldexp(sum(part / top.frob(part) for part in parts), 1024)
    return {"torsion": ("KH", [t]),
            "nabla-omega": ("KH", list(tor.nabla_omega_from_torsion(m, t, np.zeros((3, 8))))),
            "decompose": ("S4E", [R])}


@pytest.mark.parametrize("command", ["decompose", "torsion", "nabla-omega"])
def test_cli_names_a_norm_too_large_for_a_float(command, tmp_path, capsys):
    """On a finite input whose entries reach about 1e307, a component norm
    exceeds the largest float: exit 2 with one qhcurv: line naming that
    component, no traceback and no warning, and no report written (a
    report cannot hold inf)."""
    name, arrays = _extreme_inputs()[command]
    assert all(np.isfinite(a).all() and 1e306 < np.abs(a).max() < 1e308 for a in arrays)
    paths = []
    for j, a in enumerate(arrays):
        paths.append(str(tmp_path / f"{j}.qht"))
        tio.write_tensor(paths[-1], 2, a)
    argv = (["torsion", "--n", "2", "--from-nabla-omega", *paths] if command == "nabla-omega"
            else [command, "--n", "2", "--input", *paths])
    out = tmp_path / "report.json"
    assert cli.main([*argv, "--json", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert err == f"qhcurv: the norm of {name} exceeds the largest float\n"
    assert stdout == "" and not out.exists()


@functools.cache
def _scale_cases() -> dict:
    """(argv before the files, arrays) of n = 2 CLI verdicts, one accepted
    and one rejected input per mode: a KH + EH torsion tensor on and off
    the torsion space, realizable and non-realizable nabla-omega data, a
    random curvature tensor, and one with a Lambda^4 part of 1e-4 that
    fails certification."""
    m, tbank = build_model(2), get_torsion_bank(2)
    t = tbank.random_component("KH", 5) + tbank.random_component("EH", 5)
    noise = cs.substream("scale-off", 0).standard_normal(t.shape)
    nws = tor.nabla_omega_from_torsion(m, t, cs.substream("scale-lam", 0).standard_normal((3, 8)))
    torsion = ["torsion", "--n", "2", "--input"]
    nabla = ["torsion", "--n", "2", "--from-nabla-omega"]
    return {"torsion-on": (torsion, [t]),
            "torsion-off": (torsion, [t + 1e-3 * top.frob(t) / top.frob(noise) * noise]),
            "nabla-omega": (nabla, list(nws)),
            "nabla-omega-bad": (nabla, list(_nabla_omega_off_by(1e-3))),
            "decompose": (["decompose", "--n", "2", "--input"], [cs.random_curvature(m, 5).tensor]),
            "decompose-outside": (["decompose", "--n", "2", "--input"],
                                  [_curvature_plus_4form(1e-4)])}


def _cli_verdict(argv, arrays, k, where):
    """(exit code, class mask, failures with every number masked, each
    reported norm times 2^-k) of one in-process run on the arrays times
    2^k."""
    paths = []
    for j, a in enumerate(arrays):
        paths.append(str(where / f"in{j}.qht"))
        tio.write_tensor(paths[-1], 2, np.ldexp(a, k))
    out = where / "report.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([*argv, *paths, "--json", str(out)])
    report = json.loads(out.read_text())
    results = {r["check"]: r["value"] for r in report["results"]}
    norms = {**results.get("component_norms", {}),
             **{key: results[key] for key in ("qk_norm", "qkperp_norm") if key in results}}
    return (code, results.get("class_mask"),
            [re.sub(r"\d[\d.e+-]*", "#", f) for f in report["failures"]],
            {key: float(np.ldexp(value, -k)) for key, value in norms.items()})


@pytest.mark.parametrize("case", ["torsion-on", "torsion-off", "nabla-omega",
                                  "nabla-omega-bad", "decompose", "decompose-outside"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_cli_verdicts_are_invariant_under_powers_of_two(case, data, tmp_path_factory):
    """For every k in [-1000, 1000] that keeps 2^k x finite and normal, the
    CLI verdict on 2^k x is the verdict on x: exit code, class mask, the
    failures up to their numbers, and every reported norm scaled by 2^k to
    1e-12.  The banks are the session's, so each run costs milliseconds."""
    argv, arrays = _scale_cases()[case]
    k = data.draw(st.integers(*exact_scales(arrays)), label="k")
    where = tmp_path_factory.mktemp("scale")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tor, "build_torsion_bank", lambda m: get_torsion_bank(m.n))
        mp.setattr(dec, "build_sp_projectors", lambda m: get_bank(m.n))
        want = _cli_verdict(argv, arrays, 0, where)
        got = _cli_verdict(argv, arrays, k, where)
    assert want[0] == (2 if case.endswith(("-off", "-bad", "-outside")) else 0)
    assert got[:3] == want[:3]
    assert got[3] == pytest.approx(want[3], rel=1e-12, abs=0.0)
