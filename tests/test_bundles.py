import numpy as np
import pytest

from enkfcontrol.bundles import (
    BundleError,
    _render,
    load_gain,
    load_reduced_model,
    save_gain,
    save_reduced_model,
)
from enkfcontrol.config import _fmt
from enkfcontrol.dmdc import ReducedModel
from enkfcontrol.enkf import GainApprox


def test_gain_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(0)
    M = rng.normal(size=(4, 4))
    P = np.linalg.inv(M @ M.T + np.eye(4))
    gain = GainApprox(P=P)
    path = tmp_path / "gain.bundle"
    save_gain(gain, path)
    loaded = load_gain(path)
    assert np.array_equal(loaded.P, P)


def test_reduced_model_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(1)
    Phi = np.linalg.qr(rng.normal(size=(8, 3)))[0].T
    model = ReducedModel(
        A=rng.normal(size=(3, 3)), B=rng.normal(size=(3, 2)), Phi=Phi,
        dt=1e-3, discrete=False,
    )
    path = tmp_path / "reduced.bundle"
    save_reduced_model(model, path)
    loaded = load_reduced_model(path)
    assert np.array_equal(loaded.A, model.A)
    assert np.array_equal(loaded.B, model.B)
    assert np.array_equal(loaded.Phi, model.Phi)
    assert loaded.dt == model.dt
    assert loaded.discrete == model.discrete


def test_saved_bytes_deterministic(tmp_path):
    gain = GainApprox(P=np.eye(2))
    p1, p2 = tmp_path / "a.bundle", tmp_path / "b.bundle"
    save_gain(gain, p1)
    save_gain(gain, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_rows_render_as_fmt_of_each_value():
    M = np.array([
        [-0.0, 5e-324, 1e300, 3.0],
        [-2.0, 0.1, -1.5e-310, 12345678901234567.0],
        [np.nextafter(1.0, 2.0), -1e-300, 0.0, 7.0],
    ])
    lines = ["format=enkfcontrol-bundle-v1", "kind=test", "n=3", "[M]"]
    lines += [",".join(_fmt(v) for v in row) for row in M]
    assert _render("test", {"n": "3"}, {"M": M}) == "\n".join(lines) + "\n"
    assert "-0,4.9406564584124654e-324,1.0000000000000001e+300,3" in lines


def test_kind_mismatch_rejected(tmp_path):
    gain = GainApprox(P=np.eye(2))
    path = tmp_path / "gain.bundle"
    save_gain(gain, path)
    with pytest.raises(BundleError):
        load_reduced_model(path)


def test_garbage_rejected(tmp_path):
    path = tmp_path / "junk.bundle"
    path.write_text("not a bundle\n")
    with pytest.raises(BundleError):
        load_gain(path)


# a gain bundle as earlier versions wrote it, with a mode header and an [S0] block
OLD_GAIN = """format=enkfcontrol-bundle-v1
kind=gain
mode={mode}
n=2
[S0]
2,0.5
0.5,1
[P]
0.5714285714285714,-0.2857142857142857
-0.2857142857142857,1.1428571428571428
"""
OLD_P = [[0.5714285714285714, -0.2857142857142857], [-0.2857142857142857, 1.1428571428571428]]


@pytest.mark.parametrize("mode", ["linear", "nonlinear"])
def test_old_gain_bundle_loads(tmp_path, mode):
    path = tmp_path / "gain.bundle"
    path.write_text(OLD_GAIN.format(mode=mode))
    assert np.array_equal(load_gain(path).P, OLD_P)


def test_old_gain_bundle_s0_is_ignored(tmp_path):
    # nothing reads S0: an [S0] block that is not P's inverse, nor even definite, still loads
    path = tmp_path / "gain.bundle"
    path.write_text(OLD_GAIN.format(mode="linear").replace("[S0]\n2,0.5\n0.5,1\n", "[S0]\n-5,0\n0,-5\n"))
    gain = load_gain(path)
    assert np.array_equal(gain.P, OLD_P)
    assert not hasattr(gain, "S0")


def test_saved_gain_has_no_mode_header(tmp_path):
    path = tmp_path / "gain.bundle"
    save_gain(GainApprox(P=np.eye(2)), path)
    assert path.read_text().splitlines()[:3] == ["format=enkfcontrol-bundle-v1", "kind=gain", "n=2"]


def test_saved_gain_has_only_the_p_block(tmp_path):
    path = tmp_path / "gain.bundle"
    save_gain(GainApprox(P=np.eye(2)), path)
    assert [line for line in path.read_text().splitlines() if line.startswith("[")] == ["[P]"]


GOOD_GAIN = OLD_GAIN.format(mode="linear")
GOOD_REDUCED = """format=enkfcontrol-bundle-v1
kind=reduced_model
n=1
m=1
p=2
dt=0.001
discrete=0
[A]
-1
[B]
1
[Phi]
0.6,0.8
"""
P_ROWS = "[P]\n0.5714285714285714,-0.2857142857142857\n-0.2857142857142857,1.1428571428571428\n"


@pytest.mark.parametrize(
    "load,text,named",
    [
        (load_gain, GOOD_GAIN.replace(P_ROWS, "[P]\n1,0,0\n0,1,0\n"), r"\[P\] block is 2x3"),
        (load_gain, GOOD_GAIN.replace("1.1428571428571428", "nan"), r"\[P\] block has non-finite"),
        (load_gain, GOOD_GAIN.replace("[S0]\n2,0.5\n0.5,1\n", "[S0]\n"), r"\[S0\] block is empty"),
        (load_gain, GOOD_GAIN.replace("-0.2857142857142857,1.1428571428571428", "1"),
         r"\[P\] block has rows of different lengths"),
        (load_gain, GOOD_GAIN.replace(P_ROWS, ""), r"missing \[P\] block"),
        (load_gain, GOOD_GAIN.replace(P_ROWS, "[P]\n1,0.5\n0,1\n"), r"\[P\] block is not symmetric"),
        (load_gain, GOOD_GAIN.replace(P_ROWS, "[P]\n-1,0\n0,-1\n"),
         r"\[P\] block is not positive definite"),
        (load_reduced_model, GOOD_REDUCED.replace("dt=0.001\n", ""), r"missing header key 'dt'"),
        (load_reduced_model, GOOD_REDUCED.replace("dt=0.001", "dt=nan"), r"bad header value dt='nan'"),
        (load_reduced_model, GOOD_REDUCED.replace("[B]\n1\n", "[B]\n1,2\n"), r"\[B\] block is 1x2"),
        (load_reduced_model, GOOD_REDUCED.replace("[A]\n-1\n", "[A]\n1\n[A]\n5\n"),
         r"line 10: repeated \[A\] block"),
        (load_reduced_model, GOOD_REDUCED.replace("n=1\n", "n=1\nn=2\n"),
         r"line 4: repeated header key 'n'"),
    ],
    ids=["wrong-shape", "nan", "empty-block", "ragged-row", "missing-block", "asymmetric-P",
         "indefinite-P", "missing-header", "bad-header-value", "reduced-wrong-shape",
         "repeated-block", "repeated-header-key"],
)
def test_malformed_bundle_rejected(tmp_path, load, text, named):
    path = tmp_path / "bad.bundle"
    path.write_text(text)
    with pytest.raises(BundleError, match=named):
        load(path)

