"""VariationModel: loadings, RDF de-rating, and sampling statistics."""

import numpy as np
import pytest

from repro.errors import VariationError
from repro.variation import (
    SpatialCorrelationModel,
    VariationModel,
    VariationSpec,
)


@pytest.fixture
def vspec():
    return VariationSpec(sigma_l_total=5e-9, sigma_vth_total=0.018)


@pytest.fixture
def spatial(vspec):
    return SpatialCorrelationModel(vspec.grid_dim, 2e-3, vspec.correlation_length)


@pytest.fixture
def model(vspec, spatial):
    cells = np.arange(50) % spatial.n_cells
    return VariationModel(vspec, 50, gate_cells=cells, spatial=spatial)


class TestConstruction:
    def test_loading_shapes(self, model):
        assert model.l_loadings.shape == (50, model.n_globals)
        assert model.vth_loadings.shape == (50, model.n_globals)

    def test_factor_layout(self, model, vspec):
        # Column 0: inter-die L; column 1: inter-die Vth; rest: spatial PCs.
        assert np.allclose(model.l_loadings[:, 0], vspec.sigma_l_inter)
        assert np.allclose(model.l_loadings[:, 1], 0.0)
        assert np.allclose(model.vth_loadings[:, 1], vspec.sigma_vth_inter)
        assert np.allclose(model.vth_loadings[:, 0], 0.0)
        assert np.allclose(model.vth_loadings[:, 2:], 0.0)  # RDF not spatial

    def test_spatial_required_when_fraction_nonzero(self, vspec):
        with pytest.raises(VariationError, match="spatial"):
            VariationModel(vspec, 10)

    def test_no_spatial_needed_when_uncorrelated(self, vspec):
        flat = vspec.without_correlation()
        model = VariationModel(flat, 10)
        assert model.n_globals == 2
        assert model.l_indep == pytest.approx(flat.sigma_l_total)

    def test_gate_cells_validation(self, vspec, spatial):
        with pytest.raises(VariationError):
            VariationModel(vspec, 5, gate_cells=np.array([0, 1]), spatial=spatial)
        with pytest.raises(VariationError):
            VariationModel(
                vspec, 2, gate_cells=np.array([0, 99]), spatial=spatial
            )


class TestRdfDerating:
    def test_area_scaling(self, model):
        base = model.vth_indep_for(1.0)
        quad = model.vth_indep_for(4.0)
        assert np.allclose(quad, base / 2.0)

    def test_per_gate_areas(self, model):
        areas = np.linspace(1.0, 8.0, 50)
        sigmas = model.vth_indep_for(areas)
        assert sigmas.shape == (50,)
        assert np.all(np.diff(sigmas) <= 0)

    def test_rejects_nonpositive_area(self, model):
        with pytest.raises(VariationError):
            model.vth_indep_for(0.0)

    def test_matches_broadcast_expression_bitwise(self, model):
        """Dividing into the output array gives the ``* np.ones(n)`` bits."""

        def broadcast(rel):
            rel = np.asarray(rel, dtype=float)
            return model.vth_indep / np.sqrt(rel) * np.ones(model.n_gates)

        rng = np.random.default_rng(7)
        for areas in (
            rng.uniform(1.0, 8.0, model.n_gates),
            rng.choice([1.0, 2.0, 4.0, 8.0], model.n_gates),
            rng.lognormal(0.0, 1.5, model.n_gates),
            1.0,
            3.7,
        ):
            got = model.vth_indep_for(areas)
            assert got.shape == (model.n_gates,)
            assert got.tobytes() == broadcast(areas).tobytes()

    def test_rejects_one_nonpositive_entry(self, model):
        areas = np.ones(model.n_gates)
        areas[17] = -1.0
        with pytest.raises(VariationError):
            model.vth_indep_for(areas)
        areas[17] = np.nan  # NaN passes through, as it always has
        areas[3] = 0.0
        with pytest.raises(VariationError):
            model.vth_indep_for(areas)
        areas[3] = 1.0
        assert np.isnan(model.vth_indep_for(areas)[17])

    def test_rejects_wrong_length(self, model):
        with pytest.raises(ValueError):
            model.vth_indep_for(np.ones(model.n_gates + 1))


class TestSampling:
    def test_shapes(self, model):
        rng = np.random.default_rng(0)
        z, dl, dv = model.sample(300, rng)
        assert z.shape == (300, model.n_globals)
        assert dl.shape == (300, 50)
        assert dv.shape == (300, 50)

    def test_marginal_sigmas_match_spec(self, model, vspec):
        rng = np.random.default_rng(1)
        _, dl, dv = model.sample(20000, rng)
        assert dl.std() == pytest.approx(vspec.sigma_l_total, rel=0.03)
        assert dv.std() == pytest.approx(vspec.sigma_vth_total, rel=0.03)

    def test_cross_gate_correlation(self, model):
        # Gates in the same grid cell share inter-die + spatial components.
        rng = np.random.default_rng(2)
        _, dl, _ = model.sample(20000, rng)
        same_cell = np.corrcoef(dl[:, 0], dl[:, 16])[0, 1]  # both cell 0
        expected = model.l_correlation(0, 16)
        assert same_cell == pytest.approx(expected, abs=0.03)

    def test_sample_count_validated(self, model):
        with pytest.raises(VariationError):
            model.sample(0, np.random.default_rng(0))

    def test_deterministic_per_seed(self, model):
        z1, dl1, _ = model.sample(10, np.random.default_rng(5))
        z2, dl2, _ = model.sample(10, np.random.default_rng(5))
        assert np.allclose(z1, z2)
        assert np.allclose(dl1, dl2)
