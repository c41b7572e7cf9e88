"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete. The end-to-end experiment (criterion 10) dominates the runtime.
"""

import numpy as np
import pytest
from scipy.integrate import quad

import deepshore as ds
from deepshore import net, phantom, pipeline, sh, shore, stats
from deepshore.nonneg import clamp_log, exp_restore
from deepshore.shore import default_zeta0, fit_shore_many, shore_design_matrix


def report(number, name, passed, detail=""):
    line = f"ACCEPT {number:>2} {name}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def scheme():
    cfg = phantom.PhantomConfig(n_voxels=1, rotations_per_voxel=0, snr=float("inf"), seed=3)
    return phantom.build_acquisition(cfg)


@pytest.fixture(scope="module")
def voxels():
    cfg = phantom.PhantomConfig(n_voxels=20, rotations_per_voxel=0, snr=float("inf"), seed=5)
    return phantom.generate_dataset(cfg)


def test_01_coefficient_counts():
    ok = shore.shore_coeff_count(6) == 50 and sh.sh_coeff_count(8) == 45
    report(1, "coefficient counts (50 and 45)", ok)


def test_02_radial_orthonormality():
    worst = 0.0
    for zeta in (200.0, 700.0, 2000.0):
        for l in (0, 2, 4, 6):
            ns = list(range(l, 7, 2))
            for a in ns:
                for b in ns:
                    value, _ = quad(
                        lambda q: shore.radial_basis_g(a, l, q, zeta)
                        * shore.radial_basis_g(b, l, q, zeta) * q * q,
                        0.0, np.inf, limit=200,
                    )
                    worst = max(worst, abs(value - (1.0 if a == b else 0.0)))
    report(2, "radial orthonormality within 1e-8", worst < 1e-8, f"worst {worst:.2e}")


def test_03_sh_orthonormality():
    quad_grid = ds.gauss_sphere_quadrature(16, 33)
    basis = sh.eval_sh_basis(quad_grid.nodes, 8)
    gram = (basis * quad_grid.weights[:, None]).T @ basis
    worst = float(np.max(np.abs(gram - np.eye(45))))
    report(3, "SH Gauss-grid orthonormality within 1e-10", worst < 1e-10, f"worst {worst:.2e}")


def test_04_shore_fit_round_trip(voxels):
    cfg = ds.ShoreFitConfig()  # lambda = 1e-8
    scheme = voxels.samples
    zeta = shore.optimize_zeta(voxels.signals, scheme, cfg, default_zeta0(scheme))
    base = fit_shore_many(voxels.signals, scheme, cfg, zeta)
    design = shore_design_matrix(scheme, 6, zeta)
    forward = base @ design.T
    refit = fit_shore_many(forward, scheme, cfg, zeta)
    rel = float(np.sqrt(np.mean((refit @ design.T - forward) ** 2) / np.mean(forward**2)))
    report(4, "4-shell fit round trip rel RMSE < 1e-4", rel < 1e-4, f"rel {rel:.2e}")


def test_05_withheld_shell_generalization(voxels):
    cfg = ds.ShoreFitConfig()
    samples = voxels.samples
    keep = np.abs(samples.bvalues - 6000.0) > 0.5
    train = samples.subset(keep)
    held = samples.subset(~keep)
    zeta = shore.optimize_zeta(voxels.signals[:, keep], train, cfg, default_zeta0(train))
    coeffs = fit_shore_many(voxels.signals[:, keep], train, cfg, zeta)
    predicted = coeffs @ shore_design_matrix(held, 6, zeta).T
    truth = voxels.signals[:, ~keep]
    rel = float(np.sqrt(np.mean((predicted - truth) ** 2) / np.mean(truth**2)))
    report(5, "withheld b=6000 reconstruction rel RMSE < 5e-2", rel < 5e-2, f"rel {rel:.2e}")


def test_06_zeta_optimization(scheme):
    # recovery is checked where it is well posed (radial order 2); the
    # monotone guarantee is checked at the full default order
    cfg2 = ds.ShoreFitConfig(radial_order=2)
    worst = 0.0
    for zeta_true, zeta0 in ((700.0, 1500.0), (2000.0, 900.0), (400.0, 1125.0)):
        amplitudes = np.array([[1.0], [0.7], [1.3]])
        signals = amplitudes * np.exp(-scheme.q**2 / (2.0 * zeta_true))
        found = shore.optimize_zeta(signals, scheme, cfg2, zeta0)
        worst = max(worst, abs(found - zeta_true) / zeta_true)
    ok_recovery = worst < 0.05

    cfg6 = ds.ShoreFitConfig()
    rng = np.random.default_rng(0)
    signals = np.exp(-np.outer(1.0 / (2.0 * rng.uniform(500, 2500, 6)), scheme.q**2))
    zeta0 = default_zeta0(scheme)
    found = shore.optimize_zeta(signals, scheme, cfg6, zeta0)
    from deepshore.shore import _mean_refit_residual, _penalty_diag

    pen = _penalty_diag(cfg6)

    def objective(z):
        return _mean_refit_residual(signals, shore_design_matrix(scheme, 6, z), pen)

    ok_monotone = objective(found) <= objective(zeta0) + 1e-12
    report(6, "zeta recovery within 5% and monotone objective",
           ok_recovery and ok_monotone, f"worst recovery {worst:.3f}")


def test_07_nonneg_positivity():
    rng = np.random.default_rng(1)
    values = rng.standard_normal(10_000) * 3.0
    logged = clamp_log(values)
    restored = exp_restore(logged)
    ok = bool(np.all(logged >= np.log(0.005) - 1e-15) and np.all(restored > 0.0))
    report(7, "log floor respected and restored amplitudes positive", ok)


def test_08_gradient_check():
    worst = 0.0
    for seed in range(20):
        model = net.build_model(13, 9, seed=seed)
        rng = np.random.default_rng(1000 + seed)
        batch = rng.standard_normal((4, 13))
        targets = rng.standard_normal((4, 9))
        worst = max(worst, net.gradient_check(model, batch, targets, n_samples=150, seed=seed))
        # the skip path specifically
        worst = max(worst, net.gradient_check(model, batch, targets, n_samples=80,
                                              seed=seed, arrays=("w2", "b2", "w4")))
    report(8, "gradient check < 1e-4 over 20 seeds incl. residual path",
           worst < 1e-4, f"worst {worst:.2e}")


def test_09_overfit_sanity():
    dataset = phantom.generate_dataset(
        phantom.PhantomConfig(n_voxels=10, rotations_per_voxel=9, snr=float("inf"), seed=13)
    )
    cfg = ds.ShoreFitConfig()
    zeta = shore.optimize_zeta(dataset.signals, dataset.samples, cfg,
                               default_zeta0(dataset.samples))
    inputs = fit_shore_many(clamp_log(dataset.signals), dataset.samples, cfg, zeta)
    dirs = pipeline.fod_directions(pipeline.PipelineConfig())
    fod_scheme = shore.QSpaceSamples(np.full(len(dirs), 2000.0), dirs)
    log_fod = clamp_log(dataset.fod_coeffs @ sh.eval_sh_basis(dirs, 8).T)
    targets = fit_shore_many(log_fod, fod_scheme, cfg, zeta)

    from deepshore.pipeline import _Standardizer

    x_norm = _Standardizer(inputs)
    y_norm = _Standardizer(targets)
    data = net.VoxelDataset(x_norm.forward(inputs), y_norm.forward(targets),
                            dataset.block_ids)
    train_cfg = net.TrainConfig(epochs=2000, batch_size=100, seed=0,
                                learning_rate=1e-3, stabilizer=1e-6, momentum=0.9)
    _, history = net.train(net.build_model(50, 50, seed=1), data, train_cfg)
    final = float(history[-1])
    report(9, "100-voxel overfit MSE < 1e-3 within 2000 epochs", final < 1e-3,
           f"final {final:.2e}")


def test_10_end_to_end_subcases():
    # the pooled median over every held-out voxel of the full cross
    # validation, as the source experiment pools all voxels
    dataset = phantom.generate_dataset(
        phantom.PhantomConfig(n_voxels=200, rotations_per_voxel=100,
                              snr=float("inf"), seed=2024)
    )
    train_cfg = net.TrainConfig(epochs=300, batch_size=1000, learning_rate=1e-3,
                                stabilizer=1e-6, momentum=0.9, seed=0,
                                early_stop=True, patience=40)
    common = dict(train=train_cfg, eval_folds=5, max_folds=None)
    configs = [
        pipeline.PipelineConfig(subcase="opt-shore-to-shore", **common),
        pipeline.PipelineConfig(subcase="unopt-shore-to-shore", zeta0=700.0, **common),
    ]
    reports, comparisons = pipeline.compare_subcases(dataset, configs)
    opt, unopt = reports
    ok = opt.median >= 0.80 and opt.median >= unopt.median
    report(10, "end-to-end: opt median >= 0.80 and >= unopt median", ok,
           f"opt {opt.median:.4f}, unopt {unopt.median:.4f}, "
           f"p {comparisons[0]['p_bonferroni']:.2e}")


def test_11_acc_identities():
    rng = np.random.default_rng(2)
    u = sh.ShSeries(8, rng.standard_normal(45))
    ok = abs(ds.acc(u, u) - 1.0) < 1e-12
    ok &= abs(ds.acc(u, sh.ShSeries(8, 2.5 * u.coeffs)) - 1.0) < 1e-12
    ok &= abs(ds.acc(u, sh.ShSeries(8, -u.coeffs)) + 1.0) < 1e-12
    degrees, _ = sh.sh_degree_order_table(8)
    pure2 = sh.ShSeries(8, np.where(degrees == 2, 1.0, 0.0))
    pure4 = sh.ShSeries(8, np.where(degrees == 4, 1.0, 0.0))
    ok &= abs(ds.acc(pure2, pure4)) < 1e-12
    report(11, "ACC identities within 1e-12", bool(ok))


def test_12_subcommand_determinism(tmp_path):
    # identical seeds AND identical inputs: the phantom, the model and the
    # predictions are written twice to the same paths, which the outputs
    # record; the other outputs go to per-run paths and must match
    from deepshore.cli import run_cli
    from deepshore.io import read_report

    data = tmp_path / "d.dsc"
    model = tmp_path / "m.dsc"
    preds = tmp_path / "p.dsc"
    outputs = []
    for tag in ("a", "b"):
        coeffs = tmp_path / f"{tag}_c.dsc"
        rep = tmp_path / f"{tag}_r.json"
        assert run_cli(["phantom", "--voxels", "4", "--rotations", "5", "--seed", "9",
                        "--noiseless", "--out", str(data)]) == 0
        assert run_cli(["fit-shore", "--in", str(data), "--zeta", "1500", "--log",
                        "--out", str(coeffs)]) == 0
        assert run_cli(["train", "--in", str(data), "--zeta0", "1500",
                        "--epochs", "2", "--batch-size", "8", "--seed", "1",
                        "--out", str(model), "--report", str(rep)]) == 0
        assert run_cli(["predict", "--model", str(model), "--in", str(data),
                        "--out", str(preds)]) == 0
        doc = read_report(rep)
        doc.pop("created_at")
        outputs.append((data.read_bytes(), coeffs.read_bytes(), model.read_bytes(),
                        preds.read_bytes(), doc))
    ok = all(a == b for a, b in zip(outputs[0], outputs[1]))
    report(12, "reruns byte-identical (timestamp excluded)", ok)


def test_13_wilcoxon_exact_vs_enumeration():
    from test_stats import enumerate_two_sided_p

    worst_exact = 0.0
    rng = np.random.default_rng(3)
    for _ in range(5):
        n = int(rng.integers(6, 15))
        a = rng.standard_normal(n)
        b = a - rng.standard_normal(n)
        _, p = stats.wilcoxon_signed_rank(a, b, method="exact")
        worst_exact = max(worst_exact, abs(p - enumerate_two_sided_p(a - b)))

    a = np.random.default_rng(7).standard_normal(20)
    b = a - (np.random.default_rng(8).standard_normal(20) * 0.5 + 0.25)
    _, p20 = stats.wilcoxon_signed_rank(a, b, method="exact")
    p20_enum = enumerate_two_sided_p(a - b)
    _, p20_normal = stats.wilcoxon_signed_rank(a, b, method="normal")
    rel = abs(p20_normal - p20_enum) / p20_enum
    ok = worst_exact < 1e-10 and abs(p20 - p20_enum) < 1e-10 and rel < 0.05
    report(13, "Wilcoxon exact = enumeration, normal within 5% at n=20", ok,
           f"exact err {worst_exact:.1e}, normal rel {rel:.3f}")
