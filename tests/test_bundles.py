import numpy as np
import pytest

from enkfcontrol.bundles import (
    BundleError,
    _block,
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


def test_block_parses_each_token_as_float_does():
    # random bit patterns cover every exponent; then subnormals, the normal
    # boundary, +-0 and the largest magnitudes
    bits = np.random.default_rng(11).integers(0, 2**64, size=3000, dtype=np.uint64).view(float)
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072009e-308, 2.2250738585072014e-308,
               1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0 / 3.0]
    values = np.concatenate([bits[np.isfinite(bits)][:3000 - len(special)], special]).reshape(-1, 25)
    lines = [(i, ",".join("%.17g" % v for v in row)) for i, row in enumerate(values.tolist(), 1)]
    want = np.array([[float(token) for token in line.split(",")] for _, line in lines])
    got = _block("P", lines)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # what the C reader does not take, float() still reads
    assert _block("P", [(1, "1_0, 2 ,+.5e1")]).tolist() == [[10.0, 2.0, 5.0]]


def random_reduced_model(seed):
    rng = np.random.default_rng(seed)
    Phi = np.linalg.qr(rng.normal(size=(8, 3)))[0].T
    return ReducedModel(A=rng.normal(size=(3, 3)), B=rng.normal(size=(3, 2)), Phi=Phi)


def assert_same_model(got, want):
    for name in ("A", "B", "Phi"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_reduced_model_roundtrip_exact(tmp_path):
    model = random_reduced_model(1)
    path = tmp_path / "reduced.bundle"
    save_reduced_model(model, path)
    assert_same_model(load_reduced_model(path), model)


def test_saved_reduced_model_has_no_dt_or_discrete_header(tmp_path):
    path = tmp_path / "reduced.bundle"
    save_reduced_model(random_reduced_model(2), path)
    assert path.read_text().splitlines()[:6] == [
        "format=enkfcontrol-bundle-v1", "kind=reduced_model", "n=3", "m=2", "p=8", "[A]",
    ]


def with_old_header(text, discrete):
    """A reduced-model bundle's text with the dt and discrete header lines that older versions wrote."""
    return text.replace("p=8\n", f"p=8\ndt=0.001\ndiscrete={discrete}\n")


def test_old_reduced_model_bundle_loads(tmp_path):
    # older versions wrote dt and discrete=0 too: the model loads as it was saved
    model = random_reduced_model(3)
    path = tmp_path / "reduced.bundle"
    save_reduced_model(model, path)
    path.write_text(with_old_header(path.read_text(), 0))
    assert "dt=0.001\ndiscrete=0\n" in path.read_text()
    assert_same_model(load_reduced_model(path), model)


def test_discrete_reduced_model_bundle_rejected(tmp_path):
    # only the continuous-time model is ever written; a discrete=1 bundle came from elsewhere
    path = tmp_path / "reduced.bundle"
    save_reduced_model(random_reduced_model(4), path)
    path.write_text(with_old_header(path.read_text(), 1))
    with pytest.raises(BundleError, match="discrete=1.*fit-dmdc"):
        load_reduced_model(path)


def test_roundtrip_is_bitwise(tmp_path):
    # signed zeros, subnormals and extremes come back bit for bit, as one
    # float() per entry reads them
    M = np.array([[-0.0, 5e-324, 1e300], [-1.5e-310, np.nextafter(1.0, 2.0), 0.1]])
    model = ReducedModel(A=M[:, :2], B=M, Phi=-M)
    path = tmp_path / "reduced.bundle"
    save_reduced_model(model, path)
    loaded = load_reduced_model(path)
    for got, want in ((loaded.A, model.A), (loaded.B, model.B), (loaded.Phi, model.Phi)):
        assert np.array_equal(got.view(np.int64), np.ascontiguousarray(want).view(np.int64))


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


def per_value(name, M):
    """A block's lines with _fmt of each value, the bytes every block renders to."""
    return [f"[{name}]"] + [",".join(_fmt(v) for v in row) for row in M.tolist()]


def symmetric_matrix(n, seed):
    """R + R' is bit-symmetric; the diagonal has -0.0, and a subnormal and 1e300 are mirrored pairs."""
    R = np.random.default_rng(seed).normal(size=(n, n))
    M = R + R.T
    M.flat[:: 2 * (n + 1)] = -0.0  # every other diagonal entry
    if n > 2:
        M[0, 2] = M[2, 0] = 5e-324
        M[1, 2] = M[2, 1] = -1e300
        M[0, 1] = M[1, 0] = -1.5e-310
    return M


@pytest.mark.parametrize("n", list(range(1, 11)) + [17, 50])
def test_symmetric_block_renders_as_fmt_of_each_value(n):
    M = symmetric_matrix(n, seed=n)
    assert np.array_equal(M.view(np.int64), M.T.view(np.int64))
    want = ["format=enkfcontrol-bundle-v1", "kind=test"] + per_value("M", M)
    assert _render("test", {}, {"M": M}) == "\n".join(want) + "\n"


@pytest.mark.parametrize(
    "below,above", [(0.0, -0.0), (0.25, np.nextafter(0.25, 1.0))], ids=["signed-zero", "one-ulp"]
)
def test_nearly_symmetric_block_renders_per_value(below, above):
    # equal as floats but not as bits, or off by one ulp: not mirrored, each value printed as it is
    M = symmetric_matrix(6, seed=3)
    M[4, 1], M[1, 4] = below, above
    want = ["format=enkfcontrol-bundle-v1", "kind=test"] + per_value("M", M)
    text = _render("test", {}, {"M": M})
    assert text == "\n".join(want) + "\n"
    rows = [line.split(",") for line in text.splitlines()[3:]]
    assert rows[1][4] != rows[4][1]


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
# a reduced-model bundle as earlier versions wrote it, with dt and discrete=0
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
        (load_gain, GOOD_GAIN.replace("1.1428571428571428", "1.14x"),
         r"line 10: bad matrix row '-0.2857142857142857,1.14x'"),
        # a bad token is named even where the rows are ragged too
        (load_gain, GOOD_GAIN.replace("0.5714285714285714,-0.2857142857142857", "1")
         .replace("1.1428571428571428", "1,,2"), r"line 10: bad matrix row '-0.2857142857142857,1,,2'"),
        (load_gain, GOOD_GAIN.replace(P_ROWS, ""), r"missing \[P\] block"),
        (load_gain, GOOD_GAIN.replace(P_ROWS, "[P]\n1,0.5\n0,1\n"), r"\[P\] block is not symmetric"),
        (load_gain, GOOD_GAIN.replace(P_ROWS, "[P]\n-1,0\n0,-1\n"),
         r"\[P\] block is not positive definite"),
        (load_reduced_model, GOOD_REDUCED.replace("n=1\n", ""), r"missing header key 'n'"),
        (load_reduced_model, GOOD_REDUCED.replace("n=1\n", "n=one\n"), r"bad header value n='one'"),
        (load_reduced_model, GOOD_REDUCED.replace("[B]\n1\n", "[B]\n1,2\n"), r"\[B\] block is 1x2"),
        (load_reduced_model, GOOD_REDUCED.replace("[A]\n-1\n", "[A]\n1\n[A]\n5\n"),
         r"line 10: repeated \[A\] block"),
        (load_reduced_model, GOOD_REDUCED.replace("n=1\n", "n=1\nn=2\n"),
         r"line 4: repeated header key 'n'"),
        (load_gain, GOOD_GAIN.replace("format=enkfcontrol-bundle-v1", "format=enkfcontrol-bundle-v2"),
         r"^unrecognized bundle format 'enkfcontrol-bundle-v2'$"),
        (load_gain, GOOD_REDUCED, r"^expected a gain bundle, got kind='reduced_model'$"),
    ],
    ids=["wrong-shape", "nan", "empty-block", "ragged-row", "bad-token", "ragged-and-bad-token",
         "missing-block", "asymmetric-P", "indefinite-P", "missing-header", "bad-header-value",
         "reduced-wrong-shape", "repeated-block", "repeated-header-key", "unknown-format",
         "gain-from-reduced-model"],
)
def test_malformed_bundle_rejected(tmp_path, load, text, named):
    path = tmp_path / "bad.bundle"
    path.write_text(text)
    with pytest.raises(BundleError, match=named):
        load(path)

