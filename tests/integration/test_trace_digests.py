"""Pinned RPTR2 digests of freshly generated traces.

Every benchmark x persistency mode at ``init_ops=60``, ``sim_ops=4``,
seed 0, generated uncached and serialised with
:func:`repro.isa.serialize.dump_trace`.  The table was taken before
fast-forward populate stopped undo logging and issuing persistency
instructions: how the untimed phase is executed may change, the timed
trace may not.  A deliberate change to trace semantics regenerates this
table together with a ``CACHE_SCHEMA_VERSION`` bump (a cached trace
would otherwise outlive the code that made it).
"""

import hashlib
import io

import pytest

from repro.harness.runner import TraceKey, generate_trace
from repro.isa.serialize import dump_trace
from repro.txn.modes import PersistMode
from repro.workloads.registry import WORKLOADS

PINNED_TRACE_DIGESTS = {
    "GH": {
        PersistMode.BASE: "bea592f329217efa5a41dfa65e1fc6eb23f9b9124368d6d02fe1bd880639320a",
        PersistMode.LOG: "f08789acd46be8d7880fa9d92cf91d38f9e9199d7425b1a418a533ee36d8da9e",
        PersistMode.LOG_P: "4eceb60946e3ad791a2a94685fb9c16dc023fdd6d6dbcbcb54553163a0e9a45b",
        PersistMode.LOG_P_SF: "91f6198af36eaf1a85a027d0eb65421e8ea591801e51531dbd11957fd8194962",
    },
    "HM": {
        PersistMode.BASE: "467232f7cd59c08f68a052835480ed1bcd4c9659cc5014002dd9befef3a5242c",
        PersistMode.LOG: "12b22b87c82952f48e9094372ee3819a613feecdf088b500ea52d0dcfc444a7c",
        PersistMode.LOG_P: "b7bfac57ea0722522c3e5253d30a41311e3db02802117ebaa0c867a37e127229",
        PersistMode.LOG_P_SF: "99ea3ad7c55e5e720acaa9229d8705e93ce2e77505b05b1a1758d470aa3b8ef8",
    },
    "LL": {
        PersistMode.BASE: "f8c9940928dac41bdb21b61e6f1ce18f5e177bd47cdba63e2bde6ad91449cefd",
        PersistMode.LOG: "9af965b60b6294eb16e731748745080a41a0d0f86dfda3d7db5ecb674e0e9347",
        PersistMode.LOG_P: "382a4ce32166bee0500581acf9936911ce7ab509459450c5948318746d8a378c",
        PersistMode.LOG_P_SF: "49a440e05b8731d7bf367477fef93961f1bf21bcc594fa684b878d4b19f0caa3",
    },
    "SS": {
        PersistMode.BASE: "7fefcb14da465a196a45f83c7a4a510414ebea6efc46b7014dc3db9b0991b2a9",
        PersistMode.LOG: "c4286cc24568a3b34e298ea12b7b76d1dc50273dbfa965ac1559145961fb1a98",
        PersistMode.LOG_P: "eb725c9c8945133efe79281d6f636f2b9224022e407e696911b3c4580fd9fd06",
        PersistMode.LOG_P_SF: "6100ef37064050b190048ccc04d57a42ceb757008843ee97484ce05ac960e7db",
    },
    "AT": {
        PersistMode.BASE: "b29a6a7c294e3db1798678d6ba920bcc1e6b5621f0a9edc680b90487bd84bb18",
        PersistMode.LOG: "2ee2d05a3a7ed7d9aa5f5a3a6fce0ddfb0dc396d1a51122bba41ee3e2b519567",
        PersistMode.LOG_P: "69b7e83a699295f3a8b846617ee8f16405cdbdac8e62ffc9636d0fe15071df01",
        PersistMode.LOG_P_SF: "8915e3c3dcb782768bceac76d75f49bc99d0958c69d22a17cfdb90a8bf7185f3",
    },
    "BT": {
        PersistMode.BASE: "64adb7408ab85dd64eb19e5316a2e7732e0f2e2119f36033d7b4f4eee2c5a5fd",
        PersistMode.LOG: "bb9b321117b619ab19b07b778cd2eb03adcbfe5c69d4a1473373a9abdaf364c8",
        PersistMode.LOG_P: "7b67c8fbc5d47d293f3ef6dacc718ff3241e6bbc84d45d4d2868c6da2ddf5348",
        PersistMode.LOG_P_SF: "e26044fc781c8ba08a4b3167137d614f74c884a89661bc94e04015a541569bb0",
    },
    "RT": {
        PersistMode.BASE: "f359c93fe845e244967457c5704040789af8b0d58e8a01883c678e04fdf080ac",
        PersistMode.LOG: "92385d59ac346d64e76b9434ad603935a77f1d67939918f08c0f94fcc1848c66",
        PersistMode.LOG_P: "a53824d8ae61b4a3c16836635b49cc42fcbb9b10229673d1fe147cd4156b85e6",
        PersistMode.LOG_P_SF: "1c5b7e6bcdcf394537f1225c3f45c4a76f929df38ff0ae8bd2e5457a3a3fdc71",
    },
}


def test_table_covers_every_benchmark_and_mode():
    assert set(PINNED_TRACE_DIGESTS) == set(WORKLOADS)
    for digests in PINNED_TRACE_DIGESTS.values():
        assert set(digests) == set(PersistMode)


@pytest.mark.parametrize("mode", list(PersistMode), ids=lambda mode: mode.name)
@pytest.mark.parametrize("abbrev", WORKLOADS)
def test_trace_bytes_pinned(abbrev, mode):
    buffer = io.BytesIO()
    dump_trace(generate_trace(TraceKey(abbrev, mode, 0, init_ops=60, sim_ops=4)), buffer)
    assert hashlib.sha256(buffer.getvalue()).hexdigest() == (
        PINNED_TRACE_DIGESTS[abbrev][mode]
    ), f"{abbrev}/{mode.name}: trace bytes drifted"
