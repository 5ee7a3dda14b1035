import dataclasses
import json
import math
import random
from importlib import resources

import pytest

from lorad2d import d2d, metrics, phy, regulator, runner
from lorad2d.energy import DEFAULT_PROFILE
from lorad2d.scenario import (DeviceSpec, GatewaySpec, Scenario, ScenarioError,
                              bundled_names, load_bundled, make_duty_audit)


def minimal_doc(**extra):
    doc = {
        "schema": "scenario/1",
        "name": "unit",
        "end_time_s": 10.0,
        "devices": [{"eid": "dev", "dev_addr": 1}],
    }
    doc.update(extra)
    return doc


def test_bundled_scenarios_exist_and_validate():
    names = bundled_names()
    assert "table2_conventional" in names
    assert "table2_d2d" in names
    for name in names:
        scn = load_bundled(name)          # from_json runs validate()
        assert scn.name == name


@pytest.mark.parametrize("name", bundled_names())
def test_bundled_files_are_canonical(name):
    # a setting added to the scenario but missing from a bundled file fails
    # here, where the file would otherwise quietly take the new default
    text = (resources.files("lorad2d") / "scenarios" / f"{name}.json").read_text()
    assert text == load_bundled(name).to_json()


def test_unknown_bundled_name_is_reported():
    with pytest.raises(ScenarioError, match="table2_conventional"):
        load_bundled("nonexistent")


@pytest.mark.parametrize("build", [
    lambda: load_bundled("table2_conventional"),
    lambda: load_bundled("table2_d2d"),
    lambda: make_duty_audit(num_devices=5, end_time_s=600.0),
])
def test_serialization_round_trip_is_identity(build):
    scn = build()
    text = scn.to_json()
    assert text.endswith("\n")
    again = Scenario.from_json(text)
    assert again.to_json() == text
    assert again.to_dict() == scn.to_dict()


def test_save_and_load(tmp_path):
    scn = load_bundled("table2_d2d")
    path = tmp_path / "scn.json"
    scn.save(path)
    assert Scenario.load(path).to_json() == scn.to_json()


def test_optional_blocks_round_trip():
    scn = Scenario(
        name="full",
        end_time_s=5.0,
        radio=phy.RadioModel(sensitivity_dbm=(-130.0, *phy.DEFAULT_SENSITIVITY_DBM[1:])),
        bands=(regulator.SubBand("x", 865_000_000, 870_000_000, 0.05, 20.0),),
        profile=dataclasses.replace(DEFAULT_PROFILE, name="p", p_tx14_w=0.2),
        devices=[DeviceSpec(eid="dev", dev_addr=1, channels_hz=[865_100_000])],
        gateways=[GatewaySpec(eid="gw", channels_hz=[865_100_000])],
    ).validate()
    again = Scenario.from_json(scn.to_json())
    assert again.bands == scn.bands
    assert again.radio == scn.radio
    assert again.profile == scn.profile
    assert again.to_json() == scn.to_json()


def test_missing_schema_is_rejected():
    doc = minimal_doc()
    del doc["schema"]
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict(doc)
    assert err.value.path == "schema"
    with pytest.raises(ScenarioError):
        Scenario.from_dict(minimal_doc(schema="scenario/2"))


def test_unknown_top_level_key_is_rejected():
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict(minimal_doc(gatways=[]))
    assert err.value.path == "gatways"


def test_unknown_device_key_is_rejected():
    doc = minimal_doc()
    doc["devices"][0]["chanels_hz"] = [868_100_000]
    with pytest.raises(ScenarioError, match="chanels_hz"):
        Scenario.from_dict(doc)


def test_booleans_do_not_pass_as_integers():
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict(minimal_doc(seed=True))
    assert err.value.path == "seed"


def test_invalid_json_is_wrapped():
    with pytest.raises(ScenarioError, match="not valid JSON"):
        Scenario.from_json("{nope")


def test_validate_rejects_unknown_data_rate():
    doc = minimal_doc()
    doc["devices"][0]["dr"] = 9
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict(doc)
    assert err.value.path == "devices[0].dr"


def test_validate_rejects_duplicate_ids_and_addresses():
    doc = minimal_doc(devices=[{"eid": "dev", "dev_addr": 1},
                               {"eid": "dev", "dev_addr": 2}])
    with pytest.raises(ScenarioError, match="duplicate"):
        Scenario.from_dict(doc)
    doc = minimal_doc(devices=[{"eid": "a", "dev_addr": 1},
                               {"eid": "b", "dev_addr": 1}])
    with pytest.raises(ScenarioError, match="unique"):
        Scenario.from_dict(doc)


def test_validate_rejects_out_of_band_frequencies():
    doc = minimal_doc()
    doc["devices"][0]["channels_hz"] = [864_000_000]
    with pytest.raises(ScenarioError, match="channels_hz"):
        Scenario.from_dict(doc)


def test_validate_rejects_oversized_payload_for_dr():
    doc = minimal_doc()
    doc["devices"][0]["dr"] = 0
    doc["devices"][0]["app_payload_bytes"] = 52      # DR0 carries at most 51
    with pytest.raises(ScenarioError, match="app_payload_bytes"):
        Scenario.from_dict(doc)
    doc["devices"][0]["app_payload_bytes"] = 51
    Scenario.from_dict(doc)


def test_validate_rejects_bad_directives():
    base = minimal_doc(devices=[{"eid": "a", "dev_addr": 1},
                                {"eid": "b", "dev_addr": 2}])
    doc = dict(base, d2d_directives=[{
        "at_s": 0.5, "initiator": "a", "scanner": "b",
        "freq_hz": 864_000_000, "dr": 6}])
    with pytest.raises(ScenarioError, match="freq_hz"):
        Scenario.from_dict(doc)
    doc = dict(base, d2d_directives=[{
        "at_s": 0.5, "initiator": "a", "scanner": "a",
        "freq_hz": 865_000_000, "dr": 6}])
    with pytest.raises(ScenarioError, match="scanner"):
        Scenario.from_dict(doc)
    doc = dict(base, d2d_directives=[{
        "at_s": 0.5, "initiator": "a", "scanner": "b",
        "freq_hz": 865_000_000, "dr": 6,
        "t1_initiator_s": 40.0, "t2_s": 30.0}])
    with pytest.raises(ScenarioError, match="T1"):
        Scenario.from_dict(doc)


def test_validate_rejects_unjoined_device_without_address():
    doc = minimal_doc()
    doc["devices"][0] = {"eid": "dev"}
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict(doc)
    assert str(err.value) == "devices[0].dev_addr: missing required key"
    # null: the device joins over the air and is given its address then
    doc["devices"][0] = {"eid": "dev", "dev_addr": None, "dr": 3}
    doc["gateways"] = [{"eid": "gw", "position": [300.0, 0.0]}]
    result = runner.run(Scenario.from_dict(doc), seed=0)
    assert result.document["devices"]["dev"]["dev_addr"] is not None
    assert result.document["network"]["joins_accepted"] == 1


def test_validate_rejects_inverted_receive_delays():
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict(minimal_doc(windows={"receive_delay1_s": 2.0,
                                                "receive_delay2_s": 1.0}))
    assert str(err.value) == ("windows.receive_delay2_s: second window must open at least "
                              "1 microsecond after the first")


@pytest.mark.parametrize("delay1,delay2,key", [
    (1e-9, 2e-9, "receive_delay1_s"),     # both round to 0 us
    (1e-6, 1.4e-6, "receive_delay2_s"),   # both round to 1 us
])
def test_receive_delays_are_distinct_whole_microseconds(delay1, delay2, key):
    # these used to load; with both windows at the same microsecond every
    # downlink was deferred and the transfer never completed
    doc = load_bundled("table2_conventional").to_dict()
    doc["windows"].update(receive_delay1_s=delay1, receive_delay2_s=delay2)
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict(doc)
    assert err.value.path == f"windows.{key}"


def test_duty_audit_factory_shape():
    scn = make_duty_audit()
    assert scn.name == "duty-audit"
    assert len(scn.devices) == 50
    assert scn.end_time_s == 86_400.0
    assert scn.duty_cycle_enforced
    phases = [d.phase_s for d in scn.devices]
    assert len(set(phases)) == 50        # staggered starts
    assert all(d.app_payload_bytes == 51 and d.dr == 0 for d in scn.devices)


_DELETE = object()


def full_doc():
    """A valid document with one entry in every block."""
    return minimal_doc(
        radio={"pl0_db": 127.5, "sensitivity_dbm": list(phy.DEFAULT_SENSITIVITY_DBM)},
        bands=[{"ident": "x", "low_hz": 865_000_000, "high_hz": 870_000_000,
                "duty_cycle_limit": 0.01}],
        profile=dataclasses.replace(DEFAULT_PROFILE, name="p").to_dict(),
        windows={"rx2_freq_hz": 869_525_000},
        devices=[{"eid": "a", "dev_addr": 1, "position": [0.0, 0.0],
                  "channels_hz": [868_100_000], "max_uplinks": 3},
                 {"eid": "b", "dev_addr": 2}],
        gateways=[{"eid": "gw", "position": [10.0, 0.0], "tx_power_dbm": 14}],
        transfers=[{"source": "a", "dest": "b", "total_bytes": 240}],
        d2d_directives=[{"at_s": 1.0, "initiator": "a", "scanner": "b",
                         "freq_hz": 868_100_000, "dr": 5,
                         "exchange": {"data_packets": 2}}],
    )


def test_full_doc_is_valid():
    Scenario.from_dict(full_doc())


@pytest.mark.parametrize("where,value,path", [
    # top level
    (("name",), 5, "name"),
    (("end_time_s",), _DELETE, "end_time_s"),
    (("windows", "rx2_dr"), 1.5, "windows.rx2_dr"),
    (("duty_cycle_enforced",), 1, "duty_cycle_enforced"),
    # radio
    (("radio",), [], "radio"),
    (("radio", "pl0_db"), "loud", "radio.pl0_db"),
    (("radio", "exponent"), True, "radio.exponent"),
    (("radio", "pl0"), 127.5, "radio.pl0"),
    # bands[0]
    (("bands",), [], "bands"),
    (("bands", 0), "x", "bands[0]"),
    (("bands", 0, "high_hz"), 865_000_000, "bands[0]"),
    (("bands", 0, "low_hz"), "low", "bands[0].low_hz"),
    (("bands", 0, "duty_cycle_limit"), _DELETE, "bands[0].duty_cycle_limit"),
    (("bands", 0, "erp_dbm"), 14.0, "bands[0].erp_dbm"),
    # the floors live in the radio block; the old top-level table is gone
    (("sensitivity_dbm",), [-137.0], "sensitivity_dbm"),
    (("radio", "sensitivity_dbm", 0), "low", "radio.sensitivity_dbm"),
    (("radio", "sensitivity_dbm"), -137.0, "radio.sensitivity_dbm"),
    (("radio", "sensitivity_dbm"), [-137.0] * 9, "radio.sensitivity_dbm"),
    # profile
    (("profile",), 5, "profile"),
    (("profile", "p_rx_w"), _DELETE, "profile.p_rx_w"),
    # devices[0]
    (("devices", 0), 5, "devices[0]"),
    (("devices", 0, "eid"), _DELETE, "devices[0].eid"),
    (("devices", 0, "position"), [1.0], "devices[0].position"),
    (("devices", 0, "position"), ["x", "y"], "devices[0].position"),
    (("devices", 0, "position"), [True, 0.0], "devices[0].position"),
    (("devices", 0, "position"), 1.0, "devices[0].position"),
    (("devices", 0, "channels_hz"), 868_100_000, "devices[0].channels_hz"),
    (("devices", 0, "channels_hz"), ["868100000"], "devices[0].channels_hz"),
    (("devices", 0, "channels_hz"), [True], "devices[0].channels_hz"),
    (("devices", 0, "channels_hz"), [], "devices[0].channels_hz"),
    (("devices", 0, "dev_addr"), True, "devices[0].dev_addr"),
    (("devices", 0, "dev_addr"), "1", "devices[0].dev_addr"),
    (("devices", 0, "max_uplinks"), 1.5, "devices[0].max_uplinks"),
    (("devices", 0, "max_uplinks"), -1, "devices[0].max_uplinks"),
    # gone: a null dev_addr says that a device joins
    (("devices", 0, "prejoined"), 1, "devices[0].prejoined"),
    (("devices", 0, "period_s"), "300", "devices[0].period_s"),
    (("devices", 0, "chanels_hz"), [868_100_000], "devices[0].chanels_hz"),
    # gateways[0]
    (("gateways", 0), [], "gateways[0]"),
    (("gateways", 0, "eid"), _DELETE, "gateways[0].eid"),
    (("gateways", 0, "tx_power_dbm"), "14", "gateways[0].tx_power_dbm"),
    (("gateways", 0, "position"), [0.0, 0.0, 0.0], "gateways[0].position"),
    (("gateways", 0, "pos"), [0.0, 0.0], "gateways[0].pos"),
    # transfers[0]
    (("transfers", 0, "total_bytes"), 1.5, "transfers[0].total_bytes"),
    (("transfers", 0, "dest"), _DELETE, "transfers[0].dest"),
    (("transfers", 0, "port"), True, "transfers[0].port"),
    (("transfers", 0, "bytes"), 1, "transfers[0].bytes"),
    # d2d_directives[0]
    (("d2d_directives", 0, "at_s"), "soon", "d2d_directives[0].at_s"),
    (("d2d_directives", 0, "dr"), _DELETE, "d2d_directives[0].dr"),
    (("d2d_directives", 0, "freq_hz"), True, "d2d_directives[0].freq_hz"),
    (("d2d_directives", 0, "t2"), 30.0, "d2d_directives[0].t2"),
    # d2d_directives[0].exchange
    (("d2d_directives", 0, "exchange"), 5, "d2d_directives[0].exchange"),
    (("d2d_directives", 0, "exchange", "data_packets"), 0,
     "d2d_directives[0].exchange"),
    (("d2d_directives", 0, "exchange", "retry_limit"), "3",
     "d2d_directives[0].exchange.retry_limit"),
    (("d2d_directives", 0, "exchange", "guard"), 0.1,
     "d2d_directives[0].exchange.guard"),
    # profile value types
    (("profile", "p_tx14_w"), "lots", "profile.p_tx14_w"),
    (("profile", "p_sleep_w"), True, "profile.p_sleep_w"),
    # a partial sensitivity table: the medium needs a floor for every rate
    (("radio", "sensitivity_dbm", 3), _DELETE, "radio.sensitivity_dbm"),
    # a class A receive window is undefined at the GFSK rate
    (("windows", "rx2_dr"), 7, "windows.rx2_dr"),
    (("devices", 0, "dr"), 7, "devices[0].dr"),
    # application data travels on FPort 1..223, and 221 is the setup port
    (("transfers", 0, "port"), 0, "transfers[0].port"),
    (("transfers", 0, "port"), 221, "transfers[0].port"),
    (("transfers", 0, "port"), 224, "transfers[0].port"),
    # one duty switch covers D2D frames too; an exchange has no command latency
    (("duty_cycle_applies_to_d2d",), True, "duty_cycle_applies_to_d2d"),
    (("d2d_directives", 0, "exchange", "command_latency_s"), 0.0,
     "d2d_directives[0].exchange.command_latency_s"),
    # a profile key that is not a PowerProfile field
    (("profile", "p_rx_W"), 0.04, "profile.p_rx_W"),
    # the setup command's own range rules, and the gateway's radio range
    (("d2d_directives", 0, "dr"), 9, "d2d_directives[0]"),
    (("d2d_directives", 0, "power_dbm"), 25, "d2d_directives[0]"),
    (("d2d_directives", 0, "scanner"), "ghost", "d2d_directives[0].scanner"),
    (("gateways", 0, "tx_power_dbm"), 30, "gateways[0].tx_power_dbm"),
    # the radio's own range rules, and 32-bit device addresses
    (("radio", "d0_m"), -1.0, "radio.d0_m"),
    (("radio", "d0_m"), 0, "radio.d0_m"),
    (("radio", "d2d_frame_loss_prob"), 1.5, "radio.d2d_frame_loss_prob"),
    (("devices", 0, "dev_addr"), -1, "devices[0].dev_addr"),
    (("devices", 0, "dev_addr"), 2 ** 32, "devices[0].dev_addr"),
    # positions and periods the engine can compute with: 1e300 m used to
    # overflow in the medium, and 1e-9 s to round to a 0 us period
    (("devices", 0, "position"), [1e300, 0.0], "devices[0].position"),
    (("gateways", 0, "position"), [0.0, -2e7], "gateways[0].position"),
    (("devices", 0, "period_s"), 1e-9, "devices[0].period_s"),
    # a power above the ERP limit of a sub-band the node sends in; band x
    # allows 14 dBm
    (("devices", 0, "tx_power_dbm"), 20, "devices[0].tx_power_dbm"),
    (("gateways", 0, "tx_power_dbm"), 20, "gateways[0].tx_power_dbm"),
    (("d2d_directives", 0, "power_dbm"), 20, "d2d_directives[0].power_dbm"),
    # the windows block checks its own ranges
    (("windows", "preamble_detect_symbols"), 0, "windows.preamble_detect_symbols"),
    (("windows", "rx2_freq_hz"), 864_000_000, "windows.rx2_freq_hz"),
    (("windows", "rx2"), 3, "windows.rx2"),
])
def test_bad_value_error_paths(where, value, path):
    doc = full_doc()
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[where[-1]]
    else:
        parent[where[-1]] = value
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict(json.loads(json.dumps(doc)))
    assert err.value.path == path
    assert str(err.value).startswith(f"{path}: ")   # names an unknown key too


@pytest.mark.parametrize("where,value,path", [
    (("d2d_directives", 0, "at_s"), math.nan, "d2d_directives[0].at_s"),
    (("backhaul_delay_s",), math.nan, "backhaul_delay_s"),
    (("d2d_directives", 0, "t2_s"), math.inf, "d2d_directives[0].t2_s"),
    (("devices", 0, "period_s"), math.inf, "devices[0].period_s"),
    (("radio", "pl0_db"), math.nan, "radio.pl0_db"),
    (("radio", "exponent"), 10 ** 400, "radio.exponent"),   # no float holds it
    (("profile", "p_rx_w"), math.nan, "profile.p_rx_w"),
], ids=["at_s-nan", "backhaul-nan", "t2-inf", "period-inf", "pl0-nan", "exponent-1e400",
        "profile-nan"])
def test_non_finite_numbers_are_load_errors(where, value, path):
    # json reads NaN and Infinity as floats; each used to load, or to fail
    # with a bare ValueError or OverflowError at load or at run
    doc = load_bundled("table2_d2d").to_dict()
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = value
    with pytest.raises(ScenarioError) as err:
        Scenario.from_json(json.dumps(doc))
    assert err.value.path == path
    assert "finite" in str(err.value)


def test_range_edges_load_and_run():
    doc = full_doc()
    doc["devices"][0]["dev_addr"] = 0xFFFF_FFFF
    assert Scenario.from_dict(doc).devices[0].dev_addr == 0xFFFF_FFFF
    doc["devices"][0].update(position=[1e7, -1e7], period_s=1e-6)
    Scenario.from_dict(doc)
    # certain D2D loss is a counted outcome: the session runs and fails
    doc = load_bundled("table2_d2d").to_dict()
    doc["radio"]["d2d_frame_loss_prob"] = 1.0
    result = runner.run(Scenario.from_dict(doc), seed=0)
    assert result.document["network"]["d2d_frames_lost"] > 0
    assert not any(s["completed"] for s in result.document["d2d_sessions"])


def test_profile_without_a_key_names_the_missing_key():
    doc = full_doc()
    del doc["profile"]["p_rx_w"]
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict(doc)
    assert str(err.value) == "profile.p_rx_w: missing required key"


def test_power_profile_values_must_be_finite_and_in_range():
    # a negative draw used to load from a file, and a NaN one built in code
    # ran and wrote a bare NaN into the metrics document
    doc = load_bundled("table2_d2d").to_dict()
    doc["profile"]["p_rx_w"] = -0.04
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict(doc)
    assert str(err.value) == "profile.p_rx_w: must be finite and >= 0, got -0.04"
    for name, value in (("p_tx14_w", -1e-3), ("p_rx_w", math.nan), ("p_sleep_w", math.inf),
                        ("command_overhead_j", -1.0), ("supply_v", 0.0)):
        with pytest.raises(phy.PhyError) as err:
            dataclasses.replace(DEFAULT_PROFILE, **{name: value})
        assert err.value.field == name


def test_power_above_a_sub_band_erp_limit_is_rejected():
    # the scanner at 20 dBm on 868.1 MHz (g1, 14 dBm) and the directive at
    # 20 dBm on 865 MHz (g, 14 dBm) used to load, and the session ran
    doc = load_bundled("table2_d2d").to_dict()
    doc["devices"][0]["tx_power_dbm"] = 20
    doc["d2d_directives"][0]["power_dbm"] = 20
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict(doc)
    assert str(err.value) == ("devices[0].tx_power_dbm: 20 dBm exceeds the 14 dBm limit "
                              "of sub-band g1 (868100000 Hz)")
    doc["devices"][0]["tx_power_dbm"] = 14
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict(doc)
    assert str(err.value) == ("d2d_directives[0].power_dbm: 20 dBm exceeds the 14 dBm "
                              "limit of sub-band g (865000000 Hz)")
    # a gateway also sends on RX2's channel: g3 allows 27 dBm, g1 only 14
    doc["d2d_directives"][0]["power_dbm"] = 14
    doc["gateways"][0].update(channels_hz=[869_525_000], tx_power_dbm=20)
    Scenario.from_dict(doc)
    doc["windows"]["rx2_freq_hz"] = 868_500_000
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict(doc)
    assert err.value.path == "gateways[0].tx_power_dbm"
    # the limit is the band plan's own
    for band in doc["bands"]:
        band["max_erp_dbm"] = 20.0
    Scenario.from_dict(doc)


def test_partial_sensitivity_table_names_the_missing_rates():
    doc = load_bundled("table2_d2d").to_dict()
    doc["radio"]["sensitivity_dbm"] = [-137.0]
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict(doc)
    assert str(err.value) == ("radio.sensitivity_dbm: needs one floor per data rate, "
                              "DR0..DR7; got 1")


def test_d2d_directive_may_use_the_gfsk_rate():
    # only class A receive windows need a preamble-symbol length
    doc = full_doc()
    doc["d2d_directives"][0]["dr"] = 7
    assert Scenario.from_dict(doc).d2d_directives[0].dr == 7


@pytest.mark.parametrize("block", ["devices", "gateways", "transfers", "d2d_directives"])
@pytest.mark.parametrize("value", [None, 5, True, "", "abc", {}, {"eid": "dev"}])
def test_block_that_is_not_a_list_is_rejected(block, value):
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict(minimal_doc(**{block: value}))
    assert err.value.path == block


def test_old_top_level_window_key_is_an_unknown_key():
    doc = load_bundled("table2_d2d").to_dict()
    doc["rx2_dr"] = 3
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict(doc)
    assert str(err.value) == "rx2_dr: unknown key"


def test_old_top_level_sensitivity_table_is_an_unknown_key():
    doc = load_bundled("table2_d2d").to_dict()
    doc["sensitivity_dbm"] = {str(dr): v for dr, v in enumerate(phy.DEFAULT_SENSITIVITY_DBM)}
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict(doc)
    assert str(err.value) == "sensitivity_dbm: unknown key"


@pytest.mark.parametrize("count", [7, 9])
def test_radio_needs_one_floor_per_rate(count):
    doc = load_bundled("table2_d2d").to_dict()
    doc["radio"]["sensitivity_dbm"] = [-130.0] * count
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict(doc)
    assert err.value.path == "radio.sensitivity_dbm"
    assert str(err.value).endswith(f"got {count}")


@pytest.mark.parametrize("name", bundled_names())
def test_bundled_files_spell_out_the_defaults(name):
    # the same file without bands, profile, floors and windows loads to the
    # same scenario: the bundled files write out the defaults they use
    doc = load_bundled(name).to_dict()
    del doc["bands"], doc["profile"], doc["radio"]["sensitivity_dbm"], doc["windows"]
    assert Scenario.from_dict(doc) == load_bundled(name)


@pytest.mark.parametrize("block", ["bands", "profile"])
def test_null_block_is_rejected(block):
    # a block holds its value; null no longer means "the default"
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict(minimal_doc(**{block: None}))
    assert err.value.path == block


def _directive(scn, **changes):
    return dataclasses.replace(
        scn, d2d_directives=[dataclasses.replace(scn.d2d_directives[0], **changes)])


def _device(scn, **changes):
    return dataclasses.replace(
        scn, devices=[dataclasses.replace(scn.devices[0], **changes), *scn.devices[1:]])


@pytest.mark.parametrize("change,error,named", [
    (lambda s: _directive(s, at_s=math.nan), ScenarioError, "d2d_directives[0].at_s"),
    (lambda s: dataclasses.replace(s, end_time_s=math.inf), ScenarioError, "end_time_s"),
    (lambda s: _device(s, period_s=math.inf), ScenarioError, "devices[0].period_s"),
    (lambda s: _directive(s, t2_s=math.inf), ScenarioError, "d2d_directives[0]: t2"),
    (lambda s: _directive(s, exchange=dataclasses.replace(
        s.d2d_directives[0].exchange, turnaround_s=math.nan)),
     d2d.D2DProtocolError, "turnaround_s"),
    (lambda s: dataclasses.replace(s, radio=dataclasses.replace(s.radio, pl0_db=math.nan)),
     phy.PhyError, "pl0_db"),
    (lambda s: dataclasses.replace(
        s, windows=dataclasses.replace(s.windows, receive_delay1_s=math.nan)),
     phy.PhyError, "receive_delay1_s"),
], ids=["at_s-nan", "end-inf", "period-inf", "t2-inf", "turnaround-nan", "pl0-nan",
        "delay1-nan"])
def test_scenarios_built_in_code_reject_non_finite_settings(change, error, named):
    # the loader rejects these in a file; a scenario built with
    # dataclasses.replace used to crash the run with a bare ValueError or
    # OverflowError, or (pl0_db) run and decode nothing
    with pytest.raises(error) as err:
        runner.run(change(load_bundled("table2_d2d")), seed=0)
    assert named in str(err.value)


_MUTATION_VALUES = [0, -1, 2 ** 64, 1e300, 1e-9, math.nan, math.inf, -math.inf, True, None,
                    "x", [], [1.0], 864_000_000, 870_500_000, 25, 30, 2.5, 9.0, -0.5]


def _leaf_paths(node, path=()):
    """Key paths to every scalar, and to every list of scalars, in a document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaf_paths(value, path + (key,))
    elif isinstance(node, list) and node and isinstance(node[0], (dict, list)):
        for i, value in enumerate(node):
            yield from _leaf_paths(value, path + (i,))
    else:
        yield path


def test_mutated_bundled_scenarios_load_with_an_error_or_run():
    # Each mutation sets one or two leaves of a bundled scenario to a value
    # from a pool of edge cases; the document must either be rejected with a
    # ScenarioError or run to a valid metrics document, never crash.
    rng = random.Random(14)
    bases = [load_bundled(name).to_dict() for name in bundled_names()]
    ran = 0
    for _ in range(1000):
        doc = json.loads(json.dumps(rng.choice(bases)))
        paths = list(_leaf_paths(doc))
        for _ in range(rng.choice((1, 2))):
            *parents, key = rng.choice(paths)
            node = doc
            for step in parents:
                node = node[step]
            node[key] = rng.choice(_MUTATION_VALUES)
        try:
            scn = Scenario.from_json(json.dumps(doc))
        except ScenarioError:
            continue
        scn.end_time_s = min(scn.end_time_s, 120.0)
        metrics.validate(runner.run(scn, seed=0).document)
        ran += 1
    assert ran > 0
