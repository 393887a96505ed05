"""Unit tests of the protocol-policy registry and its resolution."""
import warnings
from dataclasses import FrozenInstanceError

import pytest

from repro.coherence.policy import (
    ProtocolPolicy, available_protocols, get_protocol, register_protocol,
    resolve_policy,
)
from repro.common.config import small_config


class TestRegistry:
    def test_expected_variants_registered(self):
        assert set(available_protocols()) == {
            "mesi", "moesi", "ghostwriter", "ghostwriter-moesi",
            "gw-gs-only", "gw-gi-only", "self-invalidate", "update-hybrid",
        }

    def test_default_is_full_ghostwriter(self):
        pol = get_protocol("ghostwriter")
        assert pol.allows_gs and pol.allows_gi
        assert pol.base == "mesi" and pol.approx

    def test_unknown_name_lists_options(self):
        with pytest.raises(KeyError, match="mesi"):
            get_protocol("token-coherence")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_protocol(ProtocolPolicy(name="mesi"))

    def test_policies_are_frozen(self):
        with pytest.raises(FrozenInstanceError):
            get_protocol("mesi").allows_gs = True


class TestPolicyShape:
    def test_validation_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            ProtocolPolicy(name="x", base="mosi")
        with pytest.raises(ValueError):
            ProtocolPolicy(name="x", remote_store_gs="update")
        with pytest.raises(ValueError):
            ProtocolPolicy(name="x", gs_fallback="upgrade")

    def test_precise_strips_approx_states(self):
        gw = get_protocol("ghostwriter")
        precise = gw.precise()
        assert not precise.approx
        assert not precise.allows_gs and not precise.allows_gi
        assert precise.base == gw.base
        # already-precise policies return themselves
        mesi = get_protocol("mesi")
        assert mesi.precise() is mesi

    def test_ablation_variants_split_the_states(self):
        gs_only = get_protocol("gw-gs-only")
        assert gs_only.allows_gs and not gs_only.allows_gi
        gi_only = get_protocol("gw-gi-only")
        assert gi_only.allows_gi and not gi_only.allows_gs

    def test_non_paper_variants(self):
        si = get_protocol("self-invalidate")
        assert si.remote_store_gs == "self-invalidate"
        uh = get_protocol("update-hybrid")
        assert uh.update_on_upgrade
        assert uh.gs_fallback == "getx"


class TestResolvePolicy:
    def test_registry_names_resolve_silently(self):
        """Naming a variant with its approximation switch matching its
        nature resolves to exactly that registry entry, silently."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name in available_protocols():
                enabled = get_protocol(name).approx
                assert resolve_policy(name, enabled) is get_protocol(name)

    def test_disabled_approx_strips_gs_gi(self):
        pol = resolve_policy("ghostwriter", False)
        assert not pol.allows_gs and not pol.allows_gi
        # update-hybrid keeps its write-update mechanism when stripped
        pol = resolve_policy("update-hybrid", False)
        assert pol.update_on_upgrade and not pol.approx

    @pytest.mark.parametrize("base", ["mesi", "moesi"])
    def test_precise_base_with_approx_stays_precise(self, base):
        """A precise base named with the approximation switch on is that
        base, not a Ghostwriter variant."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_policy(base, True) is get_protocol(base)

    @pytest.mark.parametrize("base", ["mesi", "moesi"])
    def test_precise_base_at_positive_d_runs_precise(self, base):
        """A requested MESI/MOESI run at d>0 never enters GS/GI and is
        exact — it must not silently run Ghostwriter."""
        from repro.harness.experiment import run_workload
        from repro.harness.options import RunOptions

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            row = run_workload("bad_dot_product",
                               options=RunOptions(protocol=base),
                               d_distance=4, num_threads=4, n_points=2048,
                               max_value=7)
        assert row.protocol == base
        assert row.gs_serviced == row.gi_serviced == 0
        assert row.error_pct == 0

    def test_legacy_base_without_approx_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_policy("mesi", False) is get_protocol("mesi")


class TestConfigIntegration:
    def test_config_validates_protocol(self):
        from dataclasses import replace
        with pytest.raises(ValueError, match="protocol"):
            replace(small_config(), protocol="dragon")

    def test_config_policy_property(self):
        cfg = small_config(d_distance=4)
        assert cfg.protocol == "ghostwriter"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cfg.policy is get_protocol("ghostwriter")

    def test_options_validate_protocol(self):
        from repro.harness.options import RunOptions
        assert RunOptions().protocol == "ghostwriter"
        with pytest.raises(ValueError, match="unknown protocol"):
            RunOptions(protocol="dragon")
