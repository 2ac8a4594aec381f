import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from sheaflearn import (
    DenoiseConfig,
    Dictionary,
    EmptySupportError,
    SynthConfig,
    block_sparse_code,
    code_dataset,
    generate_dataset,
)
from sheaflearn.core import ORTHO_TOL
from sheaflearn.denoise import (
    SolverWarning,
    _ista,
    coding_objective,
    extract_support,
    stationarity_residual,
)
from conftest import random_orthonormal


def test_unregularized_orthonormal_is_least_squares(rng):
    d = 6
    D = Dictionary(random_orthonormal(rng, d))
    X = rng.standard_normal((d, 9))
    code = block_sparse_code(X, D, DenoiseConfig(alpha=0.0))
    assert np.max(np.abs(code.coefficients - D.atoms.T @ X)) <= 1e-9


def test_large_alpha_kills_everything(rng):
    D = Dictionary(rng.standard_normal((4, 6)))
    X = rng.standard_normal((4, 5))
    row_norms = np.linalg.norm(D.atoms.T @ X, axis=1)
    alpha = 2.0 * row_norms.max() * (1 + 1e-12)
    code = block_sparse_code(X, D, DenoiseConfig(alpha=alpha))
    assert np.max(np.abs(code.coefficients)) == 0.0
    assert code.support == ()  # the empty support
    assert code.local_basis.shape[1] == 0


def test_objective_monotone_every_iteration(rng):
    D = Dictionary(rng.standard_normal((5, 8)))
    X = rng.standard_normal((5, 7))
    code = block_sparse_code(X, D, DenoiseConfig(alpha=0.7))
    trace = np.array(code.objective_trace)
    assert np.all(trace[1:] <= trace[:-1] + 1e-12)


def test_solution_is_a_local_minimum(rng):
    D = Dictionary(rng.standard_normal((4, 5)))
    X = rng.standard_normal((4, 6))
    alpha = 0.5
    code = block_sparse_code(X, D, DenoiseConfig(alpha=alpha), rel_tol=1e-13, max_iters=50000)
    f_star = code.objective
    for _ in range(50):
        delta = rng.standard_normal(code.coefficients.shape)
        delta /= np.linalg.norm(delta)
        f_pert = coding_objective(X, D, code.coefficients + 1e-3 * delta, alpha)
        assert f_pert >= f_star - 1e-9


def test_stationarity_residual_small(rng):
    D = Dictionary(rng.standard_normal((6, 9)))
    X = rng.standard_normal((6, 8))
    cfg = DenoiseConfig(alpha=1.1)
    code = block_sparse_code(X, D, cfg, rel_tol=1e-13, max_iters=50000)
    assert stationarity_residual(X, D, code.coefficients, cfg.alpha) <= 1e-4


def test_sparsity_path_monotone_in_alpha(rng):
    # doubling alpha never grows the support, over a 5-point grid
    D = Dictionary(random_orthonormal(rng, 12))
    X = D.atoms[:, :4] @ rng.standard_normal((4, 30)) + 0.05 * rng.standard_normal((12, 30))
    counts = []
    for alpha in [0.25, 0.5, 1.0, 2.0, 4.0]:
        code = block_sparse_code(X, D, DenoiseConfig(alpha=alpha))
        counts.append(int(np.count_nonzero(np.linalg.norm(code.coefficients, axis=1) > 0)))
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_nonconvergence_warns_and_reports(rng):
    # nearly collinear atoms slow ISTA down enough to exhaust 2 iterations
    D = Dictionary(np.hstack([np.eye(3), np.eye(3) + 1e-3 * rng.standard_normal((3, 3))]))
    X = rng.standard_normal((3, 4))
    with pytest.warns(SolverWarning):
        code = block_sparse_code(X, D, DenoiseConfig(alpha=0.1), max_iters=2, rel_tol=1e-15)
    assert not code.converged
    assert code.iterations == 2
    assert np.isfinite(code.final_rel_change)


class TestClosedForm:
    """An orthonormal dictionary is coded by one group soft-threshold,
    S* = rowshrink(D^T X, alpha/2), with no iteration; ISTA on the same
    atoms (``_ista``) is the reference."""

    @staticmethod
    def problem(rng, atoms):
        d = 12
        A = np.eye(d) if atoms == "identity" else random_orthonormal(rng, d)
        X = A[:, :4] @ rng.standard_normal((4, 30)) + 0.1 * rng.standard_normal((d, 30))
        return X, Dictionary(A)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 4.0, "kill every row"])
    @pytest.mark.parametrize("atoms", ["identity", "qr"])
    def test_equals_the_ista_reference(self, rng, atoms, alpha):
        X, D = self.problem(rng, atoms)
        kill = alpha == "kill every row"
        if kill:  # just above twice the largest row norm of D^T X
            alpha = 2.0 * np.linalg.norm(D.atoms.T @ X, axis=1).max() * (1 + 1e-12)
        code = block_sparse_code(X, D, DenoiseConfig(alpha=alpha))
        S, trace, iterations, rel_change = _ista(X, D, alpha, 5000, 1e-14)
        assert rel_change < 1e-14 and iterations > 0
        assert np.max(np.abs(code.coefficients - S)) <= 1e-12
        assert abs(code.objective - trace[-1]) <= 1e-12 * max(1.0, trace[-1])
        support, basis, compact = extract_support(S, D, DenoiseConfig().support_threshold)
        assert code.support == support
        assert np.max(np.abs(code.local_basis @ code.compact_coeffs
                             - basis @ compact)) <= 1e-12
        if kill:  # the empty support
            assert np.max(np.abs(code.coefficients)) == 0.0 and code.support == ()
            assert code.local_basis.shape == (12, 0) and code.compact_coeffs.shape == (0, 30)

    @pytest.mark.parametrize("atoms", ["identity", "qr"])
    def test_one_objective_evaluation_and_no_iteration(self, rng, atoms, monkeypatch):
        import sheaflearn.denoise as denoise

        X, D = self.problem(rng, atoms)
        calls = []
        objective = denoise._objective
        monkeypatch.setattr(denoise, "_objective", lambda *a: calls.append(a) or objective(*a))

        def no_spectral_norm(*args, **kwargs):
            raise AssertionError("took sigma_max(D) for an orthonormal dictionary")

        monkeypatch.setattr(np.linalg, "norm", no_spectral_norm)
        code = block_sparse_code(X, D, DenoiseConfig(alpha=0.5))
        assert len(calls) == 1
        assert (code.iterations, code.converged, code.final_rel_change) == (0, True, 0.0)
        assert code.objective_trace == [code.objective]
        assert code.objective == coding_objective(X, D, code.coefficients, 0.5)

    def test_no_solver_warning_at_one_iteration(self, rng):
        X, D = self.problem(rng, "qr")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = block_sparse_code(X, D, DenoiseConfig(alpha=0.5), max_iters=1)
        assert code.converged and code.iterations == 0

    def test_ista_settings_leave_the_code_unchanged(self, rng):
        # only a general dictionary reads max_iters and rel_tol
        X, D = self.problem(rng, "qr")
        code = block_sparse_code(X, D, DenoiseConfig(alpha=0.5))
        capped = block_sparse_code(X, D, DenoiseConfig(alpha=0.5), max_iters=1, rel_tol=0.5)
        for a, b in ((code.coefficients, capped.coefficients),
                     (code.local_basis, capped.local_basis),
                     (code.compact_coeffs, capped.compact_coeffs)):
            assert a.tobytes() == b.tobytes()
        assert (code.support, code.objective_trace, code.iterations, code.converged,
                code.final_rel_change) == (capped.support, capped.objective_trace,
                                           capped.iterations, capped.converged,
                                           capped.final_rel_change)


class TestLocalBasis:
    def test_exact_support_at_zero_threshold(self, rng):
        D = Dictionary(np.eye(5))
        S = np.zeros((5, 4))
        S[[0, 2, 4], :] = rng.standard_normal((3, 4))
        support, basis, compact = extract_support(S, D, 0.0)
        assert support == (0, 2, 4)
        assert basis.shape == (5, 3)
        assert np.max(np.abs(basis @ compact - D.atoms @ S)) <= 1e-9

    def test_all_rows_below_threshold_raises(self, rng):
        D = Dictionary(np.eye(3))
        S = rng.standard_normal((3, 2))
        with pytest.raises(EmptySupportError):
            extract_support(S, D, 2.0)  # relative threshold above the max row

    def test_zero_code_has_the_empty_support(self, rng):
        D = Dictionary(np.eye(3))
        for rows in (3, 0):  # an all-zero code, and one with no rows
            support, basis, compact = extract_support(np.zeros((rows, 2)), D, 0.0)
            assert support == ()
            assert basis.shape == (3, 0) and compact.shape == (0, 2)
        with pytest.raises(EmptySupportError):
            extract_support(rng.standard_normal((3, 2)), D, 2.0)  # nonzero, cut whole

    def test_recovers_generating_subset(self):
        # synthetic node from a 10-atom subset at 20 dB, alpha tuned
        ds = generate_dataset(SynthConfig(
            node_count=1, ambient_dim=64, dims=10, snapshots=256,
            rho=0.0, snr_db=20.0, seed=7,
        ))
        node = ds.nodes[0]
        code = block_sparse_code(node.observations,
                                 Dictionary(node.dictionary),
                                 DenoiseConfig(alpha=8.0))
        assert code.support == node.support


def test_shape_mismatch_rejected(rng):
    with pytest.raises(ValueError):
        block_sparse_code(rng.standard_normal((3, 2)),
                          Dictionary(np.eye(4)), DenoiseConfig())


def test_zero_dictionary_rejected(rng):
    with pytest.raises(ValueError, match="dictionary is identically zero"):
        block_sparse_code(rng.standard_normal((3, 4)),
                          Dictionary(np.zeros((3, 2))), DenoiseConfig())


@pytest.mark.parametrize("has_rows", [False, True])
def test_dictionary_without_atoms_rejected(has_rows):
    # zero columns are rejected before orthonormality is read off them,
    # with or without signal rows
    with pytest.raises(ValueError, match="^dictionary has no atoms$"):
        Dictionary(np.zeros((3 if has_rows else 0, 0)))


@pytest.mark.parametrize("scale, ok", [(0.5, True), (2.0, False)])
def test_orthonormal_flag_uses_the_map_tolerance(scale, ok):
    # D^T D - I is scale * ORTHO_TOL in one diagonal entry
    atoms = np.eye(3)
    atoms[1, 1] = np.sqrt(1.0 + scale * ORTHO_TOL)
    assert Dictionary(atoms).orthonormal is ok


def test_orthonormal_atoms_take_the_closed_form_unasked(rng):
    # orthonormal columns, fewer atoms than rows, and no setting to say so
    D = Dictionary(random_orthonormal(rng, 8)[:, :3])
    X = rng.standard_normal((8, 20))
    code = block_sparse_code(X, D, DenoiseConfig(alpha=0.5))
    assert D.orthonormal and code.iterations == 0
    S = _ista(X, D, 0.5, 5000, 1e-14)[0]
    assert np.max(np.abs(code.coefficients - S)) <= 1e-12
    with pytest.raises(TypeError):
        Dictionary(D.atoms, orthonormal=True)  # read off the atoms, never set


def test_atoms_off_the_orthonormality_tolerance_run_ista(rng):
    atoms = random_orthonormal(rng, 6)
    assert Dictionary(atoms).orthonormal is True
    # now D^T D - I is 2 * ORTHO_TOL in one diagonal entry
    atoms[:, 2] *= np.sqrt(1.0 + 2.0 * ORTHO_TOL)
    D = Dictionary(atoms)
    assert D.orthonormal is False
    code = block_sparse_code(rng.standard_normal((6, 10)), D, DenoiseConfig(alpha=0.5))
    assert code.iterations > 0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_rejected_before_iterating(rng, bad, monkeypatch):
    import sheaflearn.denoise as denoise

    def no_iterations(*args):
        raise AssertionError("ISTA ran on non-finite input")

    monkeypatch.setattr(denoise, "_objective", no_iterations)
    D = Dictionary(random_orthonormal(rng, 8))
    X = rng.standard_normal((8, 20))
    X[3, 7] = bad
    with pytest.raises(ValueError, match="non-finite entries in the observations"):
        block_sparse_code(X, D, DenoiseConfig())
    atoms = rng.standard_normal((8, 8))
    atoms[0, 4] = bad
    with pytest.raises(ValueError, match="non-finite entries in the dictionary atoms"):
        Dictionary(atoms)


@pytest.mark.parametrize("field, match", [("observations", "observations"),
                                          ("dictionary", "dictionary atoms")])
def test_code_dataset_names_the_bad_node(field, match):
    ds = generate_dataset(SynthConfig(node_count=4, ambient_dim=8, dims=3, snapshots=10, seed=1))
    bad = getattr(ds.nodes[2], field).copy()  # the nodes share one dictionary array
    bad[5, 1] = np.inf
    nodes = list(ds.nodes)
    nodes[2] = replace(nodes[2], **{field: bad})
    ds = replace(ds, nodes=tuple(nodes))
    with pytest.raises(ValueError, match=f"node 2: non-finite entries in the {match}"):
        code_dataset(ds, DenoiseConfig())


def test_code_dataset_checks_every_node_before_coding_any(monkeypatch):
    import sheaflearn.denoise as denoise

    ds = generate_dataset(SynthConfig(node_count=4, ambient_dim=8, dims=3, snapshots=10, seed=1))
    atoms = ds.nodes[3].dictionary.copy()
    atoms[0, 0] = 2.0
    ds = replace(ds, nodes=(*ds.nodes[:3], replace(ds.nodes[3], dictionary=atoms)))

    def no_coding(*args, **kwargs):
        raise AssertionError("coded a node of a dataset that fails its checks")

    monkeypatch.setattr(denoise, "block_sparse_code", no_coding)
    with pytest.raises(ValueError, match=r"^node 3: dictionary is not orthonormal: D\^T D != I$"):
        code_dataset(ds, DenoiseConfig())


def ista_settings(orthonormal, **settings):
    """``block_sparse_code`` on a small problem, with ISTA's settings as
    keywords: orthonormal atoms, or the general atoms 2 I."""
    atoms = np.eye(3) if orthonormal else 2 * np.eye(3)
    return block_sparse_code(np.ones((3, 4)), Dictionary(atoms), DenoiseConfig(), **settings)


def test_config_validation():
    with pytest.raises(ValueError):
        DenoiseConfig(alpha=-1.0)
    with pytest.raises(ValueError):
        ista_settings(False, rel_tol=0.0)


@pytest.mark.parametrize("field, value", [
    ("alpha", np.nan), ("alpha", np.inf), ("rel_tol", np.nan), ("rel_tol", np.inf),
    ("support_threshold", np.nan), ("support_threshold", -0.1),
    ("support_threshold", 1.0), ("max_iters", 0),
])
def test_config_validation_rejects_what_ista_cannot_run(field, value):
    # ISTA's settings are checked for either kind of dictionary
    for orthonormal in (False, True):
        with pytest.raises(ValueError, match=f"^{field} must"):
            if field in ("max_iters", "rel_tol"):
                ista_settings(orthonormal, **{field: value})
            else:
                DenoiseConfig(**{field: value})


def test_config_validation_wants_an_integer_iteration_count():
    for orthonormal in (False, True):
        with pytest.raises(TypeError, match=r"^max_iters must be an integer, got 2\.5$"):
            ista_settings(orthonormal, max_iters=2.5)


@pytest.mark.parametrize("setting, message", [("max_iters", "max_iters must be an integer"),
                                              ("rel_tol", "rel_tol must be a number")])
def test_ista_settings_reject_booleans(setting, message):
    with pytest.raises(TypeError, match=f"^{message}, got True$"):
        ista_settings(False, **{setting: True})


def test_config_holds_the_settings_every_dictionary_reads():
    assert [f.name for f in fields(DenoiseConfig)] == ["alpha", "support_threshold"]
