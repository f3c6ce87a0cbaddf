"""Acceptance battery.

Each test implements one acceptance criterion at its stated tolerance and
prints a single pass/fail line.  Criteria with runtime budgets assert them.
"""

import json
import time

import numpy as np

from laxkit import backlund as bt
from laxkit import cli
from laxkit import continuum_defect as cdf
from laxkit import exact
from laxkit import lattice as lat
from laxkit import lattice_defect as ld
from laxkit import liouville as lv


def announce(num, label, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {num:2d}] {status}: {label} {detail}")
    assert passed, f"criterion {num} failed: {label} {detail}"


class TestAcceptance:
    def test_01_exact_charge_extraction(self):
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        worst_c1 = worst_c2 = worst_c0 = 0.0
        for n in range(2, 7):
            for _ in range(20):
                s = lat.random_state(n, rng)
                _, _, c2 = lat.charges_closed_form(s)
                _, cs = lat.charges_from_trace(s)
                prod = np.prod(s.v)
                worst_c0 = max(worst_c0, abs(np.exp(cs[0]) - prod) / abs(prod))
                worst_c1 = max(worst_c1, abs(cs[1]))
                worst_c2 = max(worst_c2, abs(cs[2] - c2) / max(1.0, abs(c2)))
        elapsed = time.perf_counter() - start
        ok = worst_c1 <= 1e-12 and worst_c2 <= 1e-12 and worst_c0 <= 1e-12 and elapsed < 10
        announce(1, "exact charge extraction",
                 ok, f"(c1 {worst_c1:.1e}, c2 {worst_c2:.1e}, c0 {worst_c0:.1e}, {elapsed:.1f}s)")

    def test_02_defect_charge_extraction(self):
        start = time.perf_counter()
        rng = np.random.default_rng(102)
        worst_c0 = worst_c1 = worst_c2 = 0.0
        for n in range(3, 7):
            for _ in range(25):
                s = lat.random_state(n, rng)
                d = ld.random_defect(int(rng.integers(1, n + 1)), rng)
                c0, c2 = ld.defect_charges(s, d)
                _, cs = ld.defect_charges_from_trace(s, d)
                worst_c0 = max(worst_c0, abs(np.exp(cs[0]) - np.exp(c0)) / abs(np.exp(c0)))
                worst_c1 = max(worst_c1, abs(cs[1]))
                worst_c2 = max(worst_c2, abs(cs[2] - c2) / max(1.0, abs(c2)))
        elapsed = time.perf_counter() - start
        ok = worst_c0 <= 1e-12 and worst_c1 <= 1e-12 and worst_c2 <= 1e-12 and elapsed < 10
        announce(2, "defect charge extraction",
                 ok, f"(c0 {worst_c0:.1e}, c1 {worst_c1:.1e}, c2 {worst_c2:.1e}, {elapsed:.1f}s)")

    def test_03_poisson_algebra_identities(self):
        start = time.perf_counter()
        rng = np.random.default_rng(103)
        worst_bulk = worst_defect = worst_field = 0.0
        count = 0
        while count < 100:
            lam = complex(rng.normal(), rng.normal())
            mu = complex(rng.normal(), rng.normal())
            if abs(np.sinh(lam - mu)) < 0.15:
                continue
            count += 1
            s = lat.random_state(int(rng.integers(2, 6)), rng)
            worst_bulk = max(
                worst_bulk,
                lat.check_quadratic_algebra(s, lam, mu, int(rng.integers(1, s.N + 1))),
            )
            d = ld.random_defect(2, rng)
            worst_defect = max(worst_defect, ld.check_defect_algebra(d, lam, mu))
            phi, pi = complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
            worst_field = max(worst_field, lv.check_linear_algebra(phi, pi, lam, mu))
        elapsed = time.perf_counter() - start
        ok = max(worst_bulk, worst_defect, worst_field) <= 1e-10 and elapsed < 5
        announce(3, "exchange-algebra identities", ok,
                 f"(bulk {worst_bulk:.1e}, defect {worst_defect:.1e}, "
                 f"field {worst_field:.1e}, {elapsed:.1f}s)")

    def test_04_zero_curvature(self):
        rng = np.random.default_rng(104)
        worst_zc = worst_defect = worst_flow = 0.0
        for _ in range(100):
            s = lat.random_state(int(rng.integers(2, 7)), rng)
            mu = complex(0.5 * rng.normal(), 0.5 * rng.normal())
            worst_zc = max(
                worst_zc, lat.zero_curvature_residual(s, int(rng.integers(1, s.N + 1)), mu)
            )
            d = lat.bulk_eom(s)
            bf = lat.bracket_flow(s)
            for got, want in ((bf.a, d.a), (bf.a_bar, d.a_bar), (bf.v, d.v)):
                worst_flow = max(worst_flow, float(np.max(np.abs(got - want))))
            n = int(rng.integers(4, 8))
            s2 = lat.random_state(n, rng)
            dd = ld.random_defect(int(rng.integers(2, n)), rng)
            res = ld.defect_zero_curvature_residuals(s2, dd, mu)
            worst_defect = max(worst_defect, max(res.values()))
        ok = worst_zc <= 1e-10 and worst_defect <= 1e-10 and worst_flow <= 1e-12
        announce(4, "zero curvature and bracket flow", ok,
                 f"(bulk {worst_zc:.1e}, defect {worst_defect:.1e}, flow {worst_flow:.1e})")

    def test_05_conservation_under_integration(self):
        start = time.perf_counter()
        rng = np.random.default_rng(0)
        s = lat.random_state(8, rng, amplitude=0.12)
        coarse = lat.integrate(s, 1e-2, 5.0)
        fine = lat.integrate(s, 5e-3, 5.0)
        ratio = coarse.drift("2") / fine.drift("2")
        trace_ratio = coarse.trace_drift(2.0) / fine.trace_drift(2.0)

        rng = np.random.default_rng(0)
        s2 = lat.random_state(8, rng, amplitude=0.15)
        d = ld.DefectSite(
            4, 0.1,
            0.015 * complex(rng.standard_normal(), rng.standard_normal()),
            0.015 * complex(rng.standard_normal(), rng.standard_normal()),
            np.exp(0.2 * complex(rng.standard_normal(), rng.standard_normal())),
        )
        dcoarse = ld.integrate_with_defect(s2, d, 1e-2, 5.0)
        dfine = ld.integrate_with_defect(s2, d, 5e-3, 5.0)
        dratio = dcoarse.drift("2") / dfine.drift("2")
        dtrace = dcoarse.trace_drift(2.0) / dfine.trace_drift(2.0)
        elapsed = time.perf_counter() - start
        ok = (
            12.0 <= ratio <= 20.0
            and 12.0 <= dratio <= 20.0
            and 10.0 <= trace_ratio <= 24.0
            and 10.0 <= dtrace <= 24.0
            and elapsed < 60
        )
        announce(5, "fourth-order conservation drift", ok,
                 f"(bulk {ratio:.1f}, defect {dratio:.1f}, traces {trace_ratio:.1f}/"
                 f"{dtrace:.1f}, {elapsed:.1f}s)")

    def test_06_continuum_charges(self):
        L = 1.0
        zero = lv.FieldConfig.zero(L, 64)
        ch = lv.charges(zero)
        _, ht = lv.dual_charges(zero)
        constants_ok = (
            abs(ch.order1 + L) <= 1e-13 * L
            and abs(ch.hamiltonian - 4 * L) <= 1e-13 * 4 * L
            and abs(ch.momentum) <= 1e-13
            and abs(ht + 4 * L) <= 1e-13 * 4 * L
        )
        rng = np.random.default_rng(106)
        worst = 0.0
        for _ in range(10):
            c = lv.random_config(L, 64, rng, amplitude=0.2)
            i1 = lv.charges(c).order1
            fit = lv.fit_first_charge(c)
            worst = max(worst, abs(fit - i1) / abs(i1))
        ok = constants_ok and worst <= 0.01
        announce(6, "continuum charges and monodromy fit", ok,
                 f"(constants {'exact' if constants_ok else 'off'}, fit {worst:.2e})")

    def test_07_sewing_condition(self):
        rng = np.random.default_rng(107)
        glued = cdf.random_split_config(1.0, 0.2, rng, sewing=True)
        mismatch = cdf.sewing_mismatch(glued, 0.35)
        n = 21
        left = cdf.IntervalField(-1.0, 0.0, np.zeros(n), np.zeros(n))
        right = cdf.IntervalField(0.0, 1.0, np.zeros(n), np.zeros(n))
        control = cdf.SplitFieldConfig(left, right, 0.0, 0.0, 2.0)
        s1 = cdf.sewing_residual(control)
        control_mismatch = cdf.sewing_mismatch(control, 0.35)
        ok = mismatch <= 1e-12 and abs(s1 - 1.0) < 1e-14 and control_mismatch > 0.1
        announce(7, "sewing condition and first-order matching", ok,
                 f"(imposed {mismatch:.1e}, control {control_mismatch:.2f})")

    def test_08_hetero_transformation(self):
        params = bt.HeteroParams(0.35, 0.15)

        def gen(nz, nb):
            z = np.linspace(0.0, 0.6, nz)
            zbar = np.linspace(0.0, 0.5, nb)
            return bt.hetero_bt_generate(
                lambda w: 0.2 * np.sin(w), lambda w: 0.15 * np.cos(w), params, z, zbar
            )

        pt1, phi1 = gen(49, 41)
        pt2, phi2 = gen(97, 81)
        ratio = bt.modified_equation_residual(pt1, params.c) / bt.modified_equation_residual(
            pt2, params.c
        )
        z = np.linspace(0.0, 0.6, 65)
        zbar = np.linspace(0.0, 0.5, 57)
        pt0, _ = bt.hetero_bt_generate(lambda w: 0.0 * w, lambda w: 0.0 * w, params, z, zbar)
        closed = np.max(
            np.abs(pt0.values - bt.free_field_closed_form(params, z, zbar, z[0], zbar[0]))
        )
        res_pair = bt.interface_residual(phi1, pt1, params, 0.3)
        shuffled = bt.LightConeField(pt1.z, pt1.zbar, pt1.values[::-1].copy())
        res_non = bt.interface_residual(phi1, shuffled, params, 0.3)
        ok = ratio >= 3.5 and closed <= 1e-8 and res_non >= 100.0 * res_pair
        announce(8, "free-field to Liouville transformation", ok,
                 f"(refinement {ratio:.2f}, closed-form {closed:.1e}, "
                 f"discrimination {res_non / res_pair:.0f}x)")

    def test_09_auto_transformation_evolution(self):
        sol = exact.periodic_solution_for_length(1.0)
        theta = 0.2

        def run(nx, dt):
            x = np.linspace(-0.9, 0.9, nx)
            return bt.bt_evolve(
                sol, x, theta, dt, 0.4,
                phi_tilde_seed=sol.phi(x[0], 0.0) + 0.15,
                y_seed=0.02, z_seed=0.01,
            )

        t1 = run(65, 2.5e-3)
        t2 = run(129, 1.25e-3)
        pde_ratio = t1.pde_residual() / t2.pde_residual()
        x_ratio = t1.x_relation_error() / t2.x_relation_error()
        ok = pde_ratio >= 3.5 and x_ratio >= 3.5
        announce(9, "generated-solution evolution", ok,
                 f"(field-equation ratio {pde_ratio:.2f}, entry relation {x_ratio:.2f})")

    def test_10_harness_determinism(self, tmp_path):
        start = time.perf_counter()
        report = cli.suite(tmp_path / "suite", seed=0)
        a = (tmp_path / "suite" / "verify-charges" / "report.json").read_bytes()
        b = (tmp_path / "suite" / "determinism" / "report.json").read_bytes()
        elapsed = time.perf_counter() - start
        data = json.loads((tmp_path / "suite" / "suite_report.json").read_text())
        ok = report.passed and a == b and elapsed < 300 and data["passed"]
        announce(10, "harness determinism and runtime", ok,
                 f"(byte-identical {a == b}, suite {elapsed:.1f}s)")
