"""Pinned digests of freshly generated traces and of the runs they drive.

Every benchmark x persistency mode at ``init_ops=60``, ``sim_ops=4``,
seed 0, generated uncached, plus a set of multi-core cells.  Six
tables:

* ``PINNED_TRACE_DIGESTS`` — the trace serialised with
  :func:`repro.isa.serialize.dump_trace`.  Taken before fast-forward
  populate stopped undo logging and issuing persistency instructions:
  how the untimed phase is executed may change, the timed trace may not.
* ``PINNED_STATS_DIGESTS`` — the golden RunStats battery: each trace
  simulated on every machine setup of
  :data:`repro.obs.capture.TRACE_MODES` (baseline machine per mode, then
  SP32/256/1024/unlimited on the LOG_P_SF trace), hashed as the stats
  cache stores it (:func:`repro.harness.cache.stats_record`, canonical
  JSON).
* ``PINNED_CACHE_DIGESTS`` — the cache hierarchy each of those runs
  leaves behind: per level the membership stamp, hit/miss/writeback
  counters and every non-empty set's LRU-ordered ``(tag, dirty)``
  pairs, plus the access and NVMM-read totals.  At these sizes no kernel
  batch evicts or flushes, so a dirty bit the kernel gets wrong never
  reaches RunStats; it shows here.
* ``PINNED_SP_SETUP_DIGESTS`` — RunStats and cache digests of the SP
  setups the sweeps and ablations run beyond those (:data:`SP_SETUPS`:
  1, 2 and 8 checkpoints, a 1200 ns NVMM write, no bloom filter, no
  barrier coalescing), on the LOG_P_SF traces.  Taken before the
  segment walker ran speculative epochs itself.
* ``PINNED_SS40_DIGESTS`` — SS at ``sim_ops=40`` on the baseline
  machine (BASE and LOG): trace, RunStats and cache digests of cells
  large enough that a kernel batch evicts a dirty L1 line.
* ``PINNED_SYSTEM_DIGESTS`` — multi-core cells: the LOG_P_SF
  concurrent run of HM and BT at ``init_ops=60``, ``sim_ops=8``, seed 0,
  on 2 and 4 cores at contention 0.0 and 0.9, co-simulated on the
  baseline machine and on SP256, hashed as the stats cache stores the
  aggregate.  The SP256 cells at p=0.9 abort and replay, so the table
  pins the conflict protocol, not only the per-core composition.

The stats and cache tables were taken while the kernel still had a second,
batched classification engine, and ten of the cells ran a kernel batch
through it: the battery, not agreement between sibling engines, is the
contract a refactor of the timing model must keep.

A deliberate change to trace semantics or to the timing model
regenerates the affected table together with a ``CACHE_SCHEMA_VERSION``
bump (a cached trace or stats record would otherwise outlive the code
that made it).
"""

import functools
import hashlib
import io
import json
from dataclasses import replace
from unittest import mock

import pytest

from repro.harness import cache
from repro.core.ssb import SSBOp
from repro.harness.runner import TraceKey, generate_trace, generate_traces
from repro.isa.analysis import K_BARRIER
from repro.isa.serialize import dump_trace
from repro.obs import telemetry
from repro.obs.capture import TRACE_MODES
from repro.txn.modes import PersistMode
from repro.uarch.config import MachineConfig
from repro.uarch.kernel import numpy_available
from repro.uarch.pipeline import PATHS, PipelineModel
from repro.uarch.system import PATHS as SYSTEM_PATHS
from repro.uarch.system import SystemModel
from repro.workloads.concurrent import generate_concurrent
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


def _trace_digest(trace):
    buffer = io.BytesIO()
    dump_trace(trace, buffer)
    return hashlib.sha256(buffer.getvalue()).hexdigest()


@pytest.mark.parametrize(
    "modes", [list(PersistMode), list(PersistMode)[::-1]], ids=["forward", "reverse"]
)
@pytest.mark.parametrize("abbrev", WORKLOADS)
def test_family_trace_bytes_pinned(abbrev, modes):
    """One populate for all four modes (:func:`generate_traces`: the
    image is built in the first mode, every mode but the last runs on a
    fork of it) gives every trace its pinned bytes."""
    keys = [TraceKey(abbrev, mode, 0, init_ops=60, sim_ops=4) for mode in modes]
    traces = generate_traces(keys)
    digests = {key.mode: _trace_digest(trace) for key, trace in zip(keys, traces)}
    assert digests == PINNED_TRACE_DIGESTS[abbrev]


PINNED_STATS_DIGESTS = {
    "GH": {
        "base": "aa116496e5fab0a5e44c5a3d54a60c02713445b7c2f805ffa6fb18332dddd8cf",
        "log": "7fc5175638d85d566cdb388bbcda0d57b8fd79f1f1ee6b7c70f76d13237d55a8",
        "log_p": "faaa27d0cfa98d4b8683754c9e1746facf901c1be7a38db9bf8f16591c6201e7",
        "log_p_sf": "3a17da8ff5dbc167322baff502f09e91033ccda58683dac85982b0f069358565",
        "sp32": "9f49d69a55cd4ee31fad72216b791a2968d0ef5c7d921ce45abeba6be4e390bc",
        "sp256": "9f49d69a55cd4ee31fad72216b791a2968d0ef5c7d921ce45abeba6be4e390bc",
        "sp1024": "9f49d69a55cd4ee31fad72216b791a2968d0ef5c7d921ce45abeba6be4e390bc",
        "sp_unlim": "fa4ce7e0cc5cfc16ba11f18077acf9d5a380278674582c1a99ff7f4346701573",
    },
    "HM": {
        "base": "3fca447d9cd32d2af91e09ae1111109457419b5dd31e982a3fbe1ca3a54fe3a2",
        "log": "6eee7395c6cb2637d872b00dc2431f806c073b90bbaac423cfd0c654939e515b",
        "log_p": "cc66ec6a4f039a85f415579cf4bbd17df013d9580d66aeefd98d38b704750c56",
        "log_p_sf": "bfaac09d9d1c76dc26520e5486f117689212b826cfd3417b1b1e435047bdfc7b",
        "sp32": "c3deb5471c968f52e7245c3b1b5daffc09703740c3036b01a1ed30daa6993d80",
        "sp256": "38693dd52718f07b44c2059fb3769510daedf7c462b9a050d8cc0a56288efabe",
        "sp1024": "38693dd52718f07b44c2059fb3769510daedf7c462b9a050d8cc0a56288efabe",
        "sp_unlim": "7b525802725cec806ec9a91dc6a92763d5cc7bcd7daa309233d4faded03c13f0",
    },
    "LL": {
        "base": "f06c09d2b59087a25bc0e94919fed7d323ad83c88d1c85308f71a919fa110684",
        "log": "fb0a401057f2fe9ea01a26466e3b9ec7bb671783711b46d8a23d6afc7057a071",
        "log_p": "f0fdf8d99a475b1861642cc2f1a50b3270eb59668aee57089a1b0ab9fa0d4b71",
        "log_p_sf": "e6a42af184cfe6da568ad5387df6010dbdc66229f57a0d113f27b6954ded217d",
        "sp32": "ab03500fea060316e2c342533c2c1ed7f24ec8bf8aba0ca7be18daafcc0b4222",
        "sp256": "fce716d1d4b275c7200d9a047bedc0382fc858cf6420b28671f9133d35a547a5",
        "sp1024": "7a8bacbae6537363c03313cdfaaaaa162f600ecd76d2a69d8122957f7d6039a8",
        "sp_unlim": "b8c85faa04269b007ae0bab3fc498a6469583baaf83068fd4fe942c0425d075b",
    },
    "SS": {
        "base": "7adb6bb7906b2470dce26129a6eeb34c39ee37f5c4d6bbb9e8c852f9c707b532",
        "log": "7013da8ca0906eadd2982615dccedac3325934ea642302707f59cb29a43d1709",
        "log_p": "55c8e3b47b961bd09ed825e2f993d268147161dd8356bedc4fdbc2f0e4e670c7",
        "log_p_sf": "9d1d70e37a74ff45c6efb87f152ff781ed5f630cabf425e01ebf69a3e76ca09b",
        "sp32": "c36207c81e080bcfad6b40409338c1b25d75cc58325620aa667751da69663f9f",
        "sp256": "b9f18f3cc2c79b57cbd2ce4455c7c5b81306884122c250a26579de5b04ac4f51",
        "sp1024": "b9f18f3cc2c79b57cbd2ce4455c7c5b81306884122c250a26579de5b04ac4f51",
        "sp_unlim": "65560d4392db37a25c642784f1d47b533d1de627d4a6e21f40feaa746e14cf2d",
    },
    "AT": {
        "base": "924955e5f4d3b4488d6df6a11ee62409b8157f170ccea1b1b5e1ef3ab149d5ee",
        "log": "81f58e5cc8490f56fc73bd04cb8902b97eac17aa78a657e69a1f9edbd8bcbc23",
        "log_p": "901e051f7ffb68dff5175d816792927cf99123da4e5634b32a81152874e4d006",
        "log_p_sf": "ba19d92426c113c1a6a9b6e84f5e019b8dcac30667614f02fd6ee42b2361d308",
        "sp32": "304a4bfab9aff72260777019f0259378b73252a4ef351ae37c5f8a4068c2d2fe",
        "sp256": "dbb724e692c0c71e7ab2778ba49d745e070ad08105fd47ab44253b9b512a72bb",
        "sp1024": "517f3a109f8b2f3e8d6e59375aa16bdb8fc42accdda5a64130c61b1530d02ebb",
        "sp_unlim": "517f3a109f8b2f3e8d6e59375aa16bdb8fc42accdda5a64130c61b1530d02ebb",
    },
    "BT": {
        "base": "afe5204e3b089ba3bb1936f653e25f8bf1fe67b805b2182d49b0ea06e2842db7",
        "log": "0f9226fba03ee87221998ac9f75593efeb64a91e1c80e5581f42bfad5a6c99e1",
        "log_p": "fa185a17b184dd131935256211c633f9df278acc2016cc6b94bc690811bd2bcb",
        "log_p_sf": "da5e0b07c23ced03ce03e9a2459f017ddfe76fd442eed25cac2ba182718f612e",
        "sp32": "7fddd2b1e41af4326085be47341b5eab25df6a68fdd22469d8fab240ca8895cf",
        "sp256": "1eabc8b7c0a41fb478f264bcd0eb84ed4174d06198f819496b5715aa74be9ab4",
        "sp1024": "89f916c79067ff54d27a9dc98c316e124a6cc444934cd934b0829496ec9bbc11",
        "sp_unlim": "3c6a172d965ded975053d2e3ec7c42109a0317afe7403d8b96a77862dc424a5f",
    },
    "RT": {
        "base": "f7024cc31f5ce73604205b8809420bee7ae286e232b80fe8ea10cc456ad5d25d",
        "log": "80c634adc3947a9b2a2a6727ebf98c3e563b3bb09d4be534e8b86057d14758f9",
        "log_p": "b51418c98487686da293d876776c706cd6c75b13888da8b8bfa7f8495c519277",
        "log_p_sf": "57b13fb26548c2d78e5f472ee982e13bee4a5fb677dc680bab9ea4476c81a575",
        "sp32": "f69e62cc7c9c00e3c8494f2c8b62da25e1501a955d9fbfadf9ac52630e22cd12",
        "sp256": "413caece25d67554de1ae3da8bc153c59eb8ea638ce1d21ab74d158262f1aafd",
        "sp1024": "72acfe7db15e4762caf24124a40c160a2aaba6b42ca106a97b61f29205f127ca",
        "sp_unlim": "72acfe7db15e4762caf24124a40c160a2aaba6b42ca106a97b61f29205f127ca",
    },
}


PINNED_CACHE_DIGESTS = {
    "GH": {
        "base": "c734e196cbd2c92382ab42e6038738654cdc31b9df131720c56158bf0568008b",
        "log": "ffa37dc4e2ae57d74b13472c5acb1874ba67cd45bdb258ed46a2352b48cfc0b4",
        "log_p": "5852377c886a41348fd0477dfdcacd3088b7d95a817b9b96b88d93dc12da05cf",
        "log_p_sf": "5852377c886a41348fd0477dfdcacd3088b7d95a817b9b96b88d93dc12da05cf",
        "sp32": "0ba8319074b5a366a5ae2d75867b436d4d3b15a545804cccffd1ceed5042a189",
        "sp256": "0ba8319074b5a366a5ae2d75867b436d4d3b15a545804cccffd1ceed5042a189",
        "sp1024": "0ba8319074b5a366a5ae2d75867b436d4d3b15a545804cccffd1ceed5042a189",
        "sp_unlim": "5e6eb687ef23a959311291c86b31e9dd0df811e561fbaa7fd64ba5c08d0052a2",
    },
    "HM": {
        "base": "93382d600c8a383ac054b4c1981b7246bfe981639a60d972d9d261baddbcf7bd",
        "log": "af0e41ab26fc7b857851524b45179c63b8c47c74381d2231657b55c7142e3fa0",
        "log_p": "7a048511103625a7d646567312f0bf7b40e2c52847bbedf2fb93cd303542b483",
        "log_p_sf": "7a048511103625a7d646567312f0bf7b40e2c52847bbedf2fb93cd303542b483",
        "sp32": "ba1f1113930c51587dea4e343b3ccefacaad58b693c1239e13edbd6ddb74461c",
        "sp256": "ba1f1113930c51587dea4e343b3ccefacaad58b693c1239e13edbd6ddb74461c",
        "sp1024": "ba1f1113930c51587dea4e343b3ccefacaad58b693c1239e13edbd6ddb74461c",
        "sp_unlim": "8c26d9450391a72c2c9dc7e625b1979f7ec07c5b493ad8510d0f54d6ca056fa9",
    },
    "LL": {
        "base": "ce9aa07199594818de11ac7bfa434f2f4960ac05d6b5554f5f12b2996a0bc9b2",
        "log": "dad4f4ae72e44f908afe7bb29f424d17d4073de8dea88016d7165b0eae1381db",
        "log_p": "04c35cb10b0bfd35123182cdf7d7102fbbcdd1be53ab44f8a1c297267f664634",
        "log_p_sf": "04c35cb10b0bfd35123182cdf7d7102fbbcdd1be53ab44f8a1c297267f664634",
        "sp32": "1698df38e7c6007f57f645a38d0f2d4836839c4c0074ae49c6a3319a73b3269b",
        "sp256": "1698df38e7c6007f57f645a38d0f2d4836839c4c0074ae49c6a3319a73b3269b",
        "sp1024": "1698df38e7c6007f57f645a38d0f2d4836839c4c0074ae49c6a3319a73b3269b",
        "sp_unlim": "86483a059d58fd53149945b1e80fe03f05143dfa678349266f85fccf0a5e8511",
    },
    "SS": {
        "base": "cb1745b03d4be08c1f345e8ea311fa14ea0ab3dd2ddce900d4eb2abea277f089",
        "log": "6c5bc82534bfec43c0f7754073295091624fc1ea416cd2962dd6b18b44859063",
        "log_p": "73bb98145804e69fe99009cd452d997d15a0c09941c9cb22070a76ea6f550b81",
        "log_p_sf": "73bb98145804e69fe99009cd452d997d15a0c09941c9cb22070a76ea6f550b81",
        "sp32": "0d0b11bd6873f8f9f9d34357df893734c262fb4b7fce242f80025a59e38fa234",
        "sp256": "2090bfb49ee3fb606b1814c55a3bff6dd2c71fdad8cb53d44c96dbf19c651025",
        "sp1024": "2090bfb49ee3fb606b1814c55a3bff6dd2c71fdad8cb53d44c96dbf19c651025",
        "sp_unlim": "2090bfb49ee3fb606b1814c55a3bff6dd2c71fdad8cb53d44c96dbf19c651025",
    },
    "AT": {
        "base": "8533b60eadd95ead10a7125d178e53a00825083f33568b4af4241942da3bce73",
        "log": "c02c1dea92fbecd1b436a937610455e2b88e9794b1cd43d2962e58146ac2c850",
        "log_p": "3c678ef015740c5311c3a3e5a42d3108026164016db0b97a4d47476bb51dda22",
        "log_p_sf": "3c678ef015740c5311c3a3e5a42d3108026164016db0b97a4d47476bb51dda22",
        "sp32": "e9239af59130300e0b2af137eb75f523ecc2614f099f1b7ca00fea660be81a98",
        "sp256": "4a4973add20af31ae65cb50a5962ecdefdc8254e59d473ef9959d4bfaa5d32e3",
        "sp1024": "03eff2a2863af5e43fae5ecc9430a4873d3ac2aace137a7b54ec4760412c266d",
        "sp_unlim": "03eff2a2863af5e43fae5ecc9430a4873d3ac2aace137a7b54ec4760412c266d",
    },
    "BT": {
        "base": "365132dfb6a055c771e9aab3e8d2e7faf5c93b400201b346134ecf45076bfdd5",
        "log": "7f2c83b65d2d1a4d874071a44bc606043a1a8b6f9bcd75045460af7b0cf15fdc",
        "log_p": "c7223bcf8f03ef2130e73dc72109e1dabc2ba882fc9774dfb8d14227c3fc9e1b",
        "log_p_sf": "c7223bcf8f03ef2130e73dc72109e1dabc2ba882fc9774dfb8d14227c3fc9e1b",
        "sp32": "6bbbec47b5f3c82a46746b6fa5ed1137d25adc581ff6f9d20946d3b8bf14b8ee",
        "sp256": "b6450d1800b482db754e01afe594af1e91f024eabe94ceddf439ecd55210c48e",
        "sp1024": "44c80c1d33ff40b36b927f6a1a8553bc33b40634584568e6e52f3f4691f77717",
        "sp_unlim": "909e549e2e299fcc97dbefe470fc808352390cd71389489f8d8297d84d842716",
    },
    "RT": {
        "base": "59876ffb8dca2df267cbb63e1272d727f3559d9f5b7745184f0642b35bd5ca6c",
        "log": "2fe8a6a61de86724511957fce6ae5cf0c86aba9654b69b55bb870fe1ebc14af8",
        "log_p": "2106f7adb5847af0f39d7f2de5f08fa7c7ca25dfbcbbe5fc14c1d9c14caeb6d2",
        "log_p_sf": "2106f7adb5847af0f39d7f2de5f08fa7c7ca25dfbcbbe5fc14c1d9c14caeb6d2",
        "sp32": "5a8a22c260d38d4574eccfd16580e50e78a4670f71e15bc35453e1d955247ba1",
        "sp256": "85fad48f5cfa0ad8e4300565c20c931e924fb10bac1e2faa05bd3b3c306ed223",
        "sp1024": "bf48d65ef77c4ec2c46d23971b40b9c578233e1c2755b0f4d257814fb2410ff1",
        "sp_unlim": "bf48d65ef77c4ec2c46d23971b40b9c578233e1c2755b0f4d257814fb2410ff1",
    },
}


@functools.lru_cache(maxsize=None)
def _battery_trace(abbrev, mode):
    return generate_trace(TraceKey(abbrev, mode, 0, init_ops=60, sim_ops=4))


def _json_digest(value, sort_keys=False):
    blob = json.dumps(value, sort_keys=sort_keys, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _battery_digests(abbrev, label):
    """``(RunStats digest, cache hierarchy digest)`` of one cell."""
    mode, config = TRACE_MODES[label]
    return _run_digests(PipelineModel(config), _battery_trace(abbrev, mode))


def _run(model, trace):
    """Run *trace* on *model*; ``(RunStats, per-path instruction counts)``.

    Each retired instruction is counted on exactly one engine path: the
    kernel's count comes from ``cum_instrs``, the walker's from its own
    tally and the stepped ones from ``RunStats``.  On these single-core
    runs without rollbacks the four counts must sum to the instructions."""
    before = [telemetry.get(name) for name in PATHS]
    stats = model.run(trace)
    counts = [telemetry.get(name) - b for name, b in zip(PATHS, before)]
    assert stats.rollbacks == 0
    assert sum(counts) == stats.instructions, counts
    return stats, counts


def _run_digests(model, trace):
    """Run *trace* on *model*; ``(RunStats digest, cache digest)``."""
    stats, _ = _run(model, trace)
    return (_json_digest(cache.stats_record(stats), sort_keys=True),
            _json_digest(_cache_state(model.caches)))


def _cache_state(caches):
    """A cache hierarchy's end state: per level the membership stamp,
    counters and every non-empty set's LRU-ordered ``(tag, dirty)``
    pairs, plus the access and NVMM-read totals."""
    return [
        [level.name, level.stamp, level.hits, level.misses, level.writebacks,
         [[index, list(ways.items())]
          for index, ways in enumerate(level._sets) if ways]]
        for level in caches.levels
    ] + [caches.accesses, caches.nvmm_reads]


def test_battery_covers_every_benchmark_and_setup():
    for table in (PINNED_STATS_DIGESTS, PINNED_CACHE_DIGESTS):
        assert set(table) == set(WORKLOADS)
        for digests in table.values():
            assert list(digests) == list(TRACE_MODES)


@pytest.mark.parametrize("label", list(TRACE_MODES))
@pytest.mark.parametrize("abbrev", WORKLOADS)
def test_run_stats_pinned(abbrev, label):
    stats_digest, cache_digest = _battery_digests(abbrev, label)
    assert stats_digest == PINNED_STATS_DIGESTS[abbrev][label], (
        f"{abbrev}/{label}: RunStats drifted"
    )
    assert cache_digest == PINNED_CACHE_DIGESTS[abbrev][label], (
        f"{abbrev}/{label}: cache hierarchy end state drifted"
    )


_BASE = MachineConfig()

#: SP machine setups the design sweeps and the ablations run that
#: :data:`TRACE_MODES` lacks, each simulated on the LOG_P_SF battery trace.
SP_SETUPS = {
    "sp256_ck1": _BASE.with_sp(256, checkpoint_entries=1),
    "sp256_ck2": _BASE.with_sp(256, checkpoint_entries=2),
    "sp256_ck8": _BASE.with_sp(256, checkpoint_entries=8),
    # the NVMM-latency sweep's 1200 ns write point
    "sp256_w1200": replace(_BASE, nvmm_write_cycles=2520).with_sp(256),
    "sp256_nobloom": _BASE.with_sp(256, bloom_enabled=False),
    "sp256_nocoalesce": _BASE.with_sp(
        256, coalesce_barrier_checkpoints=False
    ),
}

#: ``(RunStats digest, cache hierarchy digest)`` per benchmark and
#: :data:`SP_SETUPS` label, hashed as in the tables above.
PINNED_SP_SETUP_DIGESTS = {
    "GH": {
        "sp256_ck1": (
            "80aef1cea8d4cf6aa01344d66e4356dc8f656c30c9fa0bef0e0733789a3f7601",
            "0ba8319074b5a366a5ae2d75867b436d4d3b15a545804cccffd1ceed5042a189",
        ),
        "sp256_ck2": (
            "ab6b8e99deb09f46e59d8e65c4f3e47b8f987ed57b6724b22c3067d9bfc136d8",
            "0ba8319074b5a366a5ae2d75867b436d4d3b15a545804cccffd1ceed5042a189",
        ),
        "sp256_ck8": (
            "d9e0e9af992d8dbbb96e90041e9dada135130bfebdfc719cc41bcbd46e20a415",
            "5e6eb687ef23a959311291c86b31e9dd0df811e561fbaa7fd64ba5c08d0052a2",
        ),
        "sp256_w1200": (
            "4b88003a3285efe5d303af9efc77386819bb19a2da03cdbfeabfd3b45ce0750a",
            "0ba8319074b5a366a5ae2d75867b436d4d3b15a545804cccffd1ceed5042a189",
        ),
        "sp256_nobloom": (
            "77745c0325cb538d3f4cfd5cbaa4367dc82abebb8fe851029e2437429348b0ee",
            "0ba8319074b5a366a5ae2d75867b436d4d3b15a545804cccffd1ceed5042a189",
        ),
        "sp256_nocoalesce": (
            "3516bf388454fb0932dfcae7e4685ab339b4ef60961c3774d41bc9644b81df14",
            "0ba8319074b5a366a5ae2d75867b436d4d3b15a545804cccffd1ceed5042a189",
        ),
    },
    "HM": {
        "sp256_ck1": (
            "e1b8ec56be832077ade3acad637c4625e69c1c8f6179b363aecb08ff12bfda2e",
            "4332a4e99212b895a1faf0eda6f671dba0efee2d21f842698d52f3f292de2e53",
        ),
        "sp256_ck2": (
            "22eb23bc686bb9a5a02c6aca6fcd0b44c8f37c2449b928cd9ed686dd2e7f3424",
            "4332a4e99212b895a1faf0eda6f671dba0efee2d21f842698d52f3f292de2e53",
        ),
        "sp256_ck8": (
            "dbec64b642acdd802fcfefd20c9e2031412e4bce219ed97e60d7b870cb7bf6d9",
            "8c26d9450391a72c2c9dc7e625b1979f7ec07c5b493ad8510d0f54d6ca056fa9",
        ),
        "sp256_w1200": (
            "0c3c939500bff5e387898cf501a538f5f0345a7542447daf772625cd6907b873",
            "ba1f1113930c51587dea4e343b3ccefacaad58b693c1239e13edbd6ddb74461c",
        ),
        "sp256_nobloom": (
            "abecf17ada295ea5bc0eb8712eaebcf1d80e83c07571b9a7ac2aa882ce555326",
            "ba1f1113930c51587dea4e343b3ccefacaad58b693c1239e13edbd6ddb74461c",
        ),
        "sp256_nocoalesce": (
            "949d63e45138c28fbdbb0fed7e49713cac83ac420a397d1f155e32c6601bd99f",
            "4332a4e99212b895a1faf0eda6f671dba0efee2d21f842698d52f3f292de2e53",
        ),
    },
    "LL": {
        "sp256_ck1": (
            "c95b320615fd0041f01cd8f499a0cd006d6d3dd688d400efd6d7845eaefcbde6",
            "85092e62d57c2fda1fdb9ff9ba9f1a1d96ec89b8ee911a615ba8b1beef0ae994",
        ),
        "sp256_ck2": (
            "d10c35ad5f01221d74865ccc264a8a83c3aab1a22e218de3e982f60fcec7047f",
            "85092e62d57c2fda1fdb9ff9ba9f1a1d96ec89b8ee911a615ba8b1beef0ae994",
        ),
        "sp256_ck8": (
            "6f436f592f861c239611288f2c6b527731f38544d46d647a5a2fddf7ba0fe5fc",
            "8242ceab59f505473ca5f94ad30334b62c2477cd4d45d1ff1b6b5147e3e8d4df",
        ),
        "sp256_w1200": (
            "2e80a0aea066d151e00081b9daf1e3b1e2fa3091015efa4efbdc47cd0d2e6e79",
            "fec7af2d75026e7f1024b3619f04969535f25a8b581e44dd436e86ede166e52e",
        ),
        "sp256_nobloom": (
            "79a15280d5b6db96f4cd0f15a9278c3b5f71621096bbf61ddb7a49cb2cccebbc",
            "394d04e3bfc14e99d5f343e14c75125c9e7b2eb924e9c7c6b7e8a88644dceb32",
        ),
        "sp256_nocoalesce": (
            "3878436e8d97e1a17c4ad3e2c588a5181a6c6e34f77460b66429297ed3f8ed1e",
            "85092e62d57c2fda1fdb9ff9ba9f1a1d96ec89b8ee911a615ba8b1beef0ae994",
        ),
    },
    "SS": {
        "sp256_ck1": (
            "4399d99a0831a82101318e325c1dd95f260f7640a7e77676f4130c07f906f5b0",
            "3db2c3e48eda4f577b2cb82dc5effdce5964d7736b9ef8caf6df1cddf816a4e7",
        ),
        "sp256_ck2": (
            "7531fe31b2cb5af26df964cb86cb1bc067b6cce6a899de14613d4c270bec95ea",
            "81824c05c8e594608b8f6b9fbaf48c011f5b9ee6683afc9ea16fc93f3899466f",
        ),
        "sp256_ck8": (
            "65560d4392db37a25c642784f1d47b533d1de627d4a6e21f40feaa746e14cf2d",
            "2090bfb49ee3fb606b1814c55a3bff6dd2c71fdad8cb53d44c96dbf19c651025",
        ),
        "sp256_w1200": (
            "28c313eae5defa3a36b27f56542071760619ff083f0a831c0b32c242d18006a3",
            "bd7129c8cabe91925facfe074e0cfbba499954ecece6662438ac967ee223d9b4",
        ),
        "sp256_nobloom": (
            "88e07f6977fb7786ccd1d2eb600b657fdbb83984ec4d19b13e3a44219875eea5",
            "2090bfb49ee3fb606b1814c55a3bff6dd2c71fdad8cb53d44c96dbf19c651025",
        ),
        "sp256_nocoalesce": (
            "ef8d25aee5f9f88a5587183251e8af3c882a22e4cfa77bdc58f92c608f2089ba",
            "81824c05c8e594608b8f6b9fbaf48c011f5b9ee6683afc9ea16fc93f3899466f",
        ),
    },
    "AT": {
        "sp256_ck1": (
            "5cf565cdfcf61d0fdf17ae8b724dc6ca502919cf6b39e8a82f9427f652da2b21",
            "bc9ea203949a8b2b6914c26c21453dcdfb79cfcb1bc07f1d7133b6f1e8debfcb",
        ),
        "sp256_ck2": (
            "8ffa7e8e5f6506a1a5e2eb8f6f76e38011195ba643bc31b75024ee3039b8e2f6",
            "4a4973add20af31ae65cb50a5962ecdefdc8254e59d473ef9959d4bfaa5d32e3",
        ),
        "sp256_ck8": (
            "dbb724e692c0c71e7ab2778ba49d745e070ad08105fd47ab44253b9b512a72bb",
            "4a4973add20af31ae65cb50a5962ecdefdc8254e59d473ef9959d4bfaa5d32e3",
        ),
        "sp256_w1200": (
            "5f6154eb07d5347f27b1e458c04d5449cd429c3e0b01592709733bb1fac2b301",
            "1d794b99b2e5e8ebdc856aa2fae75fe7af360cf27decfaf1e0b8ea12d3ac1b13",
        ),
        "sp256_nobloom": (
            "9d6619a570dc839e83f86f528f9fc2737c481081b58a34b7983d29c838552278",
            "f4ffcca6dea71d1f27a46e8fc81cd2ced5c65ba8c53ba43751d822b56f85fa6c",
        ),
        "sp256_nocoalesce": (
            "1481f9419511223d536a2be6273d01b77f5083091bc2ad6374f19c5903fff75e",
            "4a4973add20af31ae65cb50a5962ecdefdc8254e59d473ef9959d4bfaa5d32e3",
        ),
    },
    "BT": {
        "sp256_ck1": (
            "ad31b5d0eff170479b761c3c23ac6aee628c0589634a7b4dd887387ab091583b",
            "0ec5aa83dfdce576424b7803d6bb121bf21dff0bd078151d0ddc2de9a9e52935",
        ),
        "sp256_ck2": (
            "06f5215a825873d049e4dde34c6139f7ea23c7405eb3e8b5a8129928f29e847a",
            "c02ce329c9004ae057d51acd883e694a72f4795b6a07373248f3baec399790c9",
        ),
        "sp256_ck8": (
            "c4615a5d8e4f7ff5097a94835fe6da06d4773c0a59fa7f7b30815248a3226fcc",
            "2b80f114bb00f54e5fef2a52100f2e5923418fbe9ca4ce0d7b206edb2941a38b",
        ),
        "sp256_w1200": (
            "bd16174ed6b0faaea74fc305011989ccf3bf3ad4caa4fa78dc0f6c348d58e931",
            "758cc2d82b16620037040fc3dbe61f40b1d9cf15a5d3319a15a8fe2797c70d48",
        ),
        "sp256_nobloom": (
            "229984f32d536a3d874154d7215e958395c6697007e6553833be7c8ad7914eea",
            "44c80c1d33ff40b36b927f6a1a8553bc33b40634584568e6e52f3f4691f77717",
        ),
        "sp256_nocoalesce": (
            "59cdc61952fb96c8f714b66cafbc47275b738887629abcfd03fc0b8ebd644db6",
            "c02ce329c9004ae057d51acd883e694a72f4795b6a07373248f3baec399790c9",
        ),
    },
    "RT": {
        "sp256_ck1": (
            "61bbf41b8e8c077480d05538a4ac1d600f1a74268a1e445b506c8ce4884b1043",
            "a8d349b031c0900d7b1ce5929588a430b39a2de3e1dba151af982c5c9a58ef92",
        ),
        "sp256_ck2": (
            "35407fdaf5af4d737fac4452b5c42637dfa11d35d2a2d982f906c4e322d0f436",
            "85fad48f5cfa0ad8e4300565c20c931e924fb10bac1e2faa05bd3b3c306ed223",
        ),
        "sp256_ck8": (
            "413caece25d67554de1ae3da8bc153c59eb8ea638ce1d21ab74d158262f1aafd",
            "85fad48f5cfa0ad8e4300565c20c931e924fb10bac1e2faa05bd3b3c306ed223",
        ),
        "sp256_w1200": (
            "10e7c23f42c18c7b26153c24057f3f990cad6d23bb402a8c2ba5a55af71afba3",
            "80b91e3143443a2e5fc104e8054f2e5f8872095af018b0eb393c7f7bdd96db74",
        ),
        "sp256_nobloom": (
            "11c2d10c752ec965629953f5c4b852a6edaf1eb16c3b611633b429c073e1f9ac",
            "e2f7a3dcf3782bae2ea393684623351fbeaf5ee60c6ff5835e10e895b80a47a0",
        ),
        "sp256_nocoalesce": (
            "1ac2875334fe00308d3f8b9af03c6224e8a90572f4c0624bfbe1394687999ec9",
            "85fad48f5cfa0ad8e4300565c20c931e924fb10bac1e2faa05bd3b3c306ed223",
        ),
    },
}


def test_sp_setup_table_covers_every_benchmark_and_setup():
    assert set(PINNED_SP_SETUP_DIGESTS) == set(WORKLOADS)
    for digests in PINNED_SP_SETUP_DIGESTS.values():
        assert list(digests) == list(SP_SETUPS)


@pytest.mark.parametrize("label", list(SP_SETUPS))
@pytest.mark.parametrize("abbrev", WORKLOADS)
def test_sp_setup_stats_pinned(abbrev, label):
    trace = _battery_trace(abbrev, PersistMode.LOG_P_SF)
    stats_digest, cache_digest = _run_digests(PipelineModel(SP_SETUPS[label]), trace)
    pinned_stats, pinned_cache = PINNED_SP_SETUP_DIGESTS[abbrev][label]
    assert stats_digest == pinned_stats, f"{abbrev}/{label}: RunStats drifted"
    assert cache_digest == pinned_cache, (
        f"{abbrev}/{label}: cache hierarchy end state drifted"
    )


def test_sp_battery_exercises_every_speculation_hazard():
    """Some SP cell of the battery stalls on a full SSB, some on a full
    checkpoint buffer, some loads hit a bloom false positive and some
    forward from the SSB, so the battery pins each of those paths."""
    seen = dict.fromkeys(
        ("ssb_full_stall_cycles", "checkpoint_stall_cycles",
         "bloom_false_positives", "ssb_forwards"), 0,
    )
    setups = [
        (mode, config) for mode, config in TRACE_MODES.values()
        if config.sp_enabled
    ] + [(PersistMode.LOG_P_SF, config) for config in SP_SETUPS.values()]
    for mode, config in setups:
        for abbrev in WORKLOADS:
            stats, _ = _run(PipelineModel(config), _battery_trace(abbrev, mode))
            for name in seen:
                seen[name] += getattr(stats, name) > 0
    assert all(seen.values()), seen


#: SS at ``sim_ops=40`` (BASE and LOG traces on the baseline machine):
#: ``(trace digest, RunStats digest, cache hierarchy digest)``.  At this
#: size a kernel batch writes a dirty L1 victim back into the L2, which
#: none of the ``sim_ops=4`` cells does, so a kernel that drops that
#: dirty bit changes these two cells.
PINNED_SS40_DIGESTS = {
    "base": (
        "455aebaf38fc624829f197bc912e7aa390d677055e89d86215c27bf874e0e016",
        "d1b8b2a0c3f5ae497f2fb18d1cd84b1ac31e2bb5150d62acfa761a8532dcf6c4",
        "b4cbd2a2cd7b7c5c63ff8dcba04f1a99c5a04ca18660ca71caa71260234f9553",
    ),
    "log": (
        "2c9bc498674fca7e131f1744258dafecc5d197b77e8cb4ff1f4ea31125e06675",
        "b44202d4c8f111d97400e0be98fb88af725508d667d2310ebcb2f6c59dc86bef",
        "fd5e275e65851e08241202a01783586b54d3693841e5bd5bfddfe502920decf0",
    ),
}


@pytest.mark.parametrize("label", list(PINNED_SS40_DIGESTS))
def test_ss40_cells_pinned(label):
    mode, config = TRACE_MODES[label]
    trace = generate_trace(TraceKey("SS", mode, 0, init_ops=60, sim_ops=40))
    buffer = io.BytesIO()
    dump_trace(trace, buffer)
    stats_digest, cache_digest = _run_digests(PipelineModel(config), trace)
    pinned_trace, pinned_stats, pinned_cache = PINNED_SS40_DIGESTS[label]
    assert hashlib.sha256(buffer.getvalue()).hexdigest() == pinned_trace
    assert stats_digest == pinned_stats, f"SS40/{label}: RunStats drifted"
    assert cache_digest == pinned_cache, (
        f"SS40/{label}: cache hierarchy end state drifted"
    )


def test_ss40_family_pinned():
    keys = [
        TraceKey("SS", TRACE_MODES[label][0], 0, init_ops=60, sim_ops=40)
        for label in PINNED_SS40_DIGESTS
    ]
    assert [_trace_digest(trace) for trace in generate_traces(keys)] == [
        pinned_trace for pinned_trace, _, _ in PINNED_SS40_DIGESTS.values()
    ]


@pytest.mark.skipif(not numpy_available(), reason="needs the numpy kernel")
def test_battery_exercises_the_kernel():
    """At least ten cells hand a batch to the numpy kernel, so the
    battery pins its classification pass and not only the walker."""
    with_batch = 0
    for abbrev in WORKLOADS:
        for label in TRACE_MODES:
            before = telemetry.get("kernel.batches")
            _battery_digests(abbrev, label)
            with_batch += telemetry.get("kernel.batches") > before
    assert with_batch >= 10


def test_speculative_execution_runs_on_the_fast_path():
    """SS speculates for almost all of its run at SP256.  The segment
    walker retires its speculative loads, stores, flushes and compute
    ops in-line; only the barrier macro-ops go through ``_barrier``
    (stepping every op under speculation would be ~90%)."""
    stats, counts = _run(
        PipelineModel(TRACE_MODES["sp256"][1]),
        _battery_trace("SS", PersistMode.LOG_P_SF),
    )
    step_spec = counts[PATHS.index("pipeline.path.step_spec")]
    assert stats.epochs_created > 1
    assert step_spec < 0.05 * stats.instructions, counts


PINNED_SYSTEM_DIGESTS = {
    "HM": {
        (2, 0.0): {
            "base": "5d380522660dea2feea15e1b75209ab10c88baea97065f56bf30e82a5c7640f9",
            "sp256": "8893510497e6724a668abae29fa6c5ec36df92a206c2ea9285225ce0d1327eba",
        },
        (2, 0.9): {
            "base": "3785e7274deca414da52a2a94294e7e562186ff5bf0daf1dddd9fae5119b6154",
            "sp256": "71b9f182791330e62c0069de79442d4904bdfb368550b89931ee0a230d51c430",
        },
        (4, 0.0): {
            "base": "b117cc05835878839971fc6a40ee8fa0c8f2b0cedd8411ce2e2f539173a56a3d",
            "sp256": "087f5cef532041c770688a2c80378b767cc3d3bfaf2ebfd907efc41f36a5393b",
        },
        (4, 0.9): {
            "base": "c4273e3b57679251b3069f65622a682abd271e306dd1d5138979c6e115790173",
            "sp256": "8e96bd151086b0d01d6f0950af6762fbdfd601033c6b192f82f8bef0ba6458be",
        },
    },
    "BT": {
        (2, 0.0): {
            "base": "96c60421752540bf7f01595b59d610ca82f5a7ea6c0af6c93a59ceb1f178d606",
            "sp256": "f5759f3c9bd6fb5ed01339ebdf664d32ab505d575939c3bf63aa589e7fdceee7",
        },
        (2, 0.9): {
            "base": "6162f7e5b801997958d15c2e1dfea2723610059eae4df3ebce52b8f4f4d772f5",
            "sp256": "68486db96d4e2e4a4d8459401331ead5d852aa0ce56c79e067c698c156229e25",
        },
        (4, 0.0): {
            "base": "9e68345209f89a8c5af9eaf7a9075c6c3cdee377884091e634a9d42bd1d75cca",
            "sp256": "0edc4744a37544c99b47910146098bc3ef717e24c372ed28b69576709c6f39d3",
        },
        (4, 0.9): {
            "base": "c1f6506a9bb19c20588cc8dee554fed66449f3bfc1a92f829f3bf9aa8a1e6f16",
            "sp256": "4a5be139003ab45c9dcf727b57ead0bd73f143ed3cb5d8aef3e6975efe081922",
        },
    },
}

_SYSTEM_MACHINES = {"base": MachineConfig(), "sp256": MachineConfig().with_sp(256)}

_SYSTEM_CELLS = [
    (abbrev, cores, contention, label)
    for abbrev, cells in PINNED_SYSTEM_DIGESTS.items()
    for (cores, contention), digests in cells.items()
    for label in digests
]

#: Machines of the further multi-core cells: the two above plus the SP
#: setups whose stalls and conflict handling differ most (a 32-entry SSB
#: that fills, one checkpoint, barriers expanded into three fences, every
#: speculative load searching the SSB).
_SYSTEM_MORE_MACHINES = dict(
    _SYSTEM_MACHINES,
    sp32=_BASE.with_sp(32),
    **{label: SP_SETUPS[label]
       for label in ("sp256_ck1", "sp256_nocoalesce", "sp256_nobloom")},
)

#: ``(aggregate, per-core RunStats, per-core cache)`` digests of further
#: LOG_P_SF cells at ``init_ops=60``, ``sim_ops=8``, seed 0: HM and BT at
#: p=0.5 on 2, 3 and 4 cores (baseline and SP256), and at p=0.9 on 4
#: cores with the SP setups of :data:`_SYSTEM_MORE_MACHINES`.
PINNED_SYSTEM_MORE_DIGESTS = {
    ("HM", 2, 0.5, "base"): (
        "75bacabdb34cca8c5668167bb58671a9a1e18f7593610f45dc5c120fad2a371d",
        "dc3f7782454d4b9044c13a1392064f578124d7f704409fc13e93e111aa326b99",
        "378bb144dd3738c02a5aa0a12a852486c1b34da51b6d98c772eb9ed18f3c1559",
    ),
    ("HM", 2, 0.5, "sp256"): (
        "a587f6fc6768c5932b22f1042b27323859e5f5667ed14e9ce9f529ae01b8d8a0",
        "0a1f391757cd8410eec14cfe93af524271a9924d8198a55573895516acf129d7",
        "4a20123e4954289b717171feb7f7d5b5cea0f47f4cfeafc206cfc966e1e4a14f",
    ),
    ("HM", 3, 0.5, "base"): (
        "81aa0890a20fbbea6b19536daf55c80c266fe64158afd07db624f6779161bbb0",
        "839d5a98c77b721506d3f5a9007390450d7b1e0ed9d565b75e025ba0b6df413e",
        "cadf31161db23e0fde926948fcb775518985126ce3ad3b7c9bfbcaf8000303a2",
    ),
    ("HM", 3, 0.5, "sp256"): (
        "41f846c8761ca451f66b552923f171745adcac1da5398ea0292b88d35f3e730a",
        "ac09d04a911f65b4dd7673278f9a5ef315516886ea6015606f3ffd141d2de4a1",
        "3f17f0d7864ecfe647cd380202e4829289f38192c95e683e1f0e6dc2b80fd9d6",
    ),
    ("HM", 4, 0.5, "base"): (
        "769c008db69a7756e53c6e3cd3e8fffc05f4efe97dc3ed283f95bbe34b6dce1a",
        "0bd15238881bae5e6739ddc44f7b1cfd9bc856d22e45768c620111cdf10b0e25",
        "1ec675b58d9262ccbf0d2c4d1bf90e75603ac3e75b4f687d9ef694070d37e331",
    ),
    ("HM", 4, 0.5, "sp256"): (
        "5c8ecce3925766c427096c455bb7881f3ebe7323786271e9f5b3c2dccd7b3f60",
        "2df49036a3a2c5b62c793145fb626b38f544e8978e3bbdca391724725b068682",
        "911b1dff6e92392dcaac8d245aeee9d8246280505d823a31611c6203334141db",
    ),
    ("HM", 4, 0.9, "sp32"): (
        "4b2475eba3003fac8f24dc823d128d0bb64bef11141b1d15d72ac313fb7d8070",
        "dec0b215471e08297b6864efdb2c354617c784717672e89659bab45e592d6f87",
        "0df5910818aebcb14fe0f1ff4ae4a9bb5e9935785d7e8cbbc4a3238577634da1",
    ),
    ("HM", 4, 0.9, "sp256_ck1"): (
        "5ce16cc9993bc5463e102be356a616615382fe529db4d9414a14d5ded0ade740",
        "14d1bd7a936ad3947e617ad5d33eac315b20232f326793d1a9401e7679092f3f",
        "7ffd28b928c4a7d8d1143651f944697908bda5bfe6607e1532f5e766b7e98424",
    ),
    ("HM", 4, 0.9, "sp256_nocoalesce"): (
        "74ef8228c7e6b436727409f4d24629b32e539f89d1079a745467518d1ea32b3f",
        "b2fc28c8246b22a5de3d8b1741718eda20da8cb1ae9bd8382aafa868ab9cb612",
        "36808e2f299aeabe1ad794453fcb1631eef3c0e8891774ecc25f12ac30be54c1",
    ),
    ("HM", 4, 0.9, "sp256_nobloom"): (
        "c3a0ae42e3923f1964f7ff61c416915dc37a64dd7bcd89ee6d38bbdc65ceacc4",
        "bbda77c3b42285bbf98c482de21ffec07041bbf003fc0464b7645d0d97b52a69",
        "1d4df1e4ffd632e0ed8749ed208c12ae8c724f6f3f0411ca39f9a0cd0f7ccf8d",
    ),
    ("BT", 2, 0.5, "base"): (
        "2fa72bcbd83145b63355ed6614d03077c0bfb82de582d9d97af40e158940035e",
        "c619bf0219c18297feaf7fff212a732dfeff513e95290647b69aa6753080ffaf",
        "01715f300604d4e44d4aa256f1b4f4ec415dbe47d923d41b759e6ef313320bf2",
    ),
    ("BT", 2, 0.5, "sp256"): (
        "f6d6812d4ecf9727f0eb468b64c4f77d76d121333d5e561c8d96cdc099a7eaf8",
        "a5c7afb954ba28f8d227cda865b4bba2dceaee1adac94823f3f795fc00a21e5e",
        "7bd8f4fe1c1f6297e5e4493ae8644f5aa85604c370adb419b4d963fbc9fd9bcb",
    ),
    ("BT", 3, 0.5, "base"): (
        "485849ebc406634f52e52d4e6b3de320036773a81cd29f88bc6b61a7242281d8",
        "7b101071ddb481ac8f7ee84e308be3c7b8a78ffc858d24012bc555d73796215e",
        "3e2f0ba4b89495f4021669a29ccba9a1ad0778281f6b577e541034810765701d",
    ),
    ("BT", 3, 0.5, "sp256"): (
        "0189716dda0131e9e427ac216afda48c82ef896e5e6b9488811e5550e150ae0d",
        "8aacfdcd83376288c1f5972c21816fca02d56efc7326bc16a858fa5dac024d83",
        "577d9751daaaf00f7a4b7da0cf8db962407b43b5b0278b17891e92bcd3246df0",
    ),
    ("BT", 4, 0.5, "base"): (
        "de408ee28c9e4e9748b94c949941a652a7e178ed4c71ce86e90972986d8c1e86",
        "146d4af07bade56694b95e713d01241f69cd954fb8ac4cf0078eb4709de1e1fb",
        "bda7d38db179f71dce53f3d6e1dea1724be1b894e5ffc2c25c0f4f1694b27d1e",
    ),
    ("BT", 4, 0.5, "sp256"): (
        "ef8ae8848a413d40239b8607f22ca72f216caa8bcd44887990555f86993fca58",
        "c4133d26f72d5f3f6252717c81d53133884db018dbdf7f66e567ff8a04948a20",
        "bca8b90f0431c62d1928b0be4b86df7b8024babd39422f54ed627ea332952de7",
    ),
    ("BT", 4, 0.9, "sp32"): (
        "01b7f173dd8bd97aee5416b35ea13f9d6b0312e792c304b4169ded019999c5d4",
        "4dda49f47feaddfdd8a900a5a5f0939e0473fabc7b16a0004e5a669a32f0264b",
        "c660e7aeef4e82d6092d0610829561174330c3cfb478c1ad48bf5d632db70c0f",
    ),
    ("BT", 4, 0.9, "sp256_ck1"): (
        "7dc718a9d312bb7fee6db81028578d19af9ae6b516133620ada0a72474caaa58",
        "b99c25299f4cd92f90087ed69f38402631adec553789b510e28a6d61c7f5b55f",
        "c5b31355dcd44ac45793f873c66700e375050901bdefb93ca859114baee169f5",
    ),
    ("BT", 4, 0.9, "sp256_nocoalesce"): (
        "f4275a657d5cbb841b3976f8c4cd41e2f376598729453795cb6beb50e57b0ff9",
        "69215fc970aecc90e8ea82f8094ebf59cf0cce3378fb237ac7df95d2160ab102",
        "12d13d7c8afd2324237c8cafb98467dd6d8dd3070290f916145a9768e70791c1",
    ),
    ("BT", 4, 0.9, "sp256_nobloom"): (
        "35932dd89702cd71ba0b1aab054972bc3592a4410e3b917bbbc6c20297e84881",
        "d7aba8cad63b91715153588daa00fa2d6f0515d0126bd2f89fbc5c7578b0783d",
        "e8d89f157b33742f40ad6eb53d83a5fff384bd6e8ea9ccbba28b5703a459206e",
    ),
}

#: ``(per-core RunStats, per-core cache)`` digests of the
#: :data:`PINNED_SYSTEM_DIGESTS` cells, whose aggregate alone would hide
#: work moved between cores.
PINNED_SYSTEM_CORE_DIGESTS = {
    ("HM", 2, 0.0, "base"): (
        "a2a6dbdd8319c63a753925ac9c276308139f511cc72b1a47fabb978ab3a9c7fc",
        "c13d29080850b17eae983e8a9af46d27a2dabd3df2d981c1ce78068c993126bd",
    ),
    ("HM", 2, 0.0, "sp256"): (
        "f0de30c1aaee70f394f04869d4ca0ddd10ed38296d24e6fb3b512f6c3c6a957b",
        "600152d93bd381a1faefb47458c88220096af5cb86457beeec444a1ab907cb60",
    ),
    ("HM", 2, 0.9, "base"): (
        "d6519353427dc72816adb80d9aa64939fbd7df61f1220b057589ae504594b4d2",
        "7172be564f2600b3691c3bec9b93d407450d36ae244a6a6e5245f29d74c99c47",
    ),
    ("HM", 2, 0.9, "sp256"): (
        "f1afbce55cae4cabda2d7f9d1d58e923d2362957d816626d1d80d86925ecc759",
        "f8655233891cc2273d10880d83574631516e4b4d594b7124fb67d2c5fafa6960",
    ),
    ("HM", 4, 0.0, "base"): (
        "705edd9a4e6e089a1ee2cbc5ac52432839879cfd1e5db4812acc7819f0fd229d",
        "f5f15559768099d8d60a61ded6682da41cd0d6a18e97becfeabed64526f71f46",
    ),
    ("HM", 4, 0.0, "sp256"): (
        "812584e66c0d9ff7f8e9dea30b41caa0f300ae6813d852ce1ce17f04d80202b1",
        "7fc68e087bf4d9c81bed1c81b9f78de1f20a4ec193f9b0070fb083a4606badc0",
    ),
    ("HM", 4, 0.9, "base"): (
        "fcce4646321189955579ede8cfb9fab7b407db07a1fc58593cb37e46dae098d3",
        "798709de3f8f47fc2bf4af222ded6cc4dbaf7c353d2aa4d7682bd4c0abcb4ac4",
    ),
    ("HM", 4, 0.9, "sp256"): (
        "9792c43acc9b6666fad2501a99e9451dadbc93d45a959072eb3e07221f406dc4",
        "fc7147c1c6224ac2de6469c2db5d1a3cff865a32a29f1d974778a4a6f620e7b6",
    ),
    ("BT", 2, 0.0, "base"): (
        "f6ee37dd3c261bfb7239e6d18d42d56e9b4ce8f71c882c5e32da691b0610637f",
        "71d3fefa13140fdcca1befa1c3f5364b34daa96b9c55e45c6ea6db2f7bd22050",
    ),
    ("BT", 2, 0.0, "sp256"): (
        "d38add448f61e0036edefe14c50f5d9c40a30d10cd8c277b75d57126f30c0be6",
        "79cd9273975bc623bf26308b12524ee76279f1e947792e04b1c93fd376da5d0c",
    ),
    ("BT", 2, 0.9, "base"): (
        "65601444a45ece056122631e84a9524bef9e17561a744a7995c5e8662615e354",
        "ccda2c2efbd2454eb9972bbf7f7f7834e4c2484f988a4659ad0df1adc275b915",
    ),
    ("BT", 2, 0.9, "sp256"): (
        "50f841a2df5c56e949ae48f967dd058a0779799f343e888bcfd0cf9e23c3870b",
        "d5f1674e3f933256b8f7cc926a1117ca1da53f0fb4b64d786cb1cb518233b964",
    ),
    ("BT", 4, 0.0, "base"): (
        "59854f0bfaaa2ad37ba946e54f6251b3cbac598de0b90cfaf40c590c2aa3ae07",
        "6923fa5949cefec67438e8634e116c7fb5cb3227708fdf226685db8d3112eee6",
    ),
    ("BT", 4, 0.0, "sp256"): (
        "2bb8b8b44938d8d65ac70f3c1857c13c7e37bc998f14a84d2ca48b44e6b8dc1a",
        "7a535d5969467d4287c9685b0b4b88fd4becc1018e0607cee3d3c0160611eae0",
    ),
    ("BT", 4, 0.9, "base"): (
        "1356bebbeef316c4f6b95a871682221f72d5037c2a07820e9daedd96fd14a5e0",
        "3540d2f7336d7ac0e89260f318c68d21525c67687090b111253452c8aee85dcb",
    ),
    ("BT", 4, 0.9, "sp256"): (
        "f8cf9d76b5a960fddca804f1195e04176e28f351f7ca5e870bf122d071065481",
        "737a4a96c730c00302ef3d5afc092464cf9560e521e90f94ed85b410619853e2",
    ),
}

_ALL_SYSTEM_CELLS = _SYSTEM_CELLS + list(PINNED_SYSTEM_MORE_DIGESTS)


def _barrier_positions(trace):
    """Trace positions of the first sfence of every barrier triple: an
    entry's event sits ``run`` ops past the entry's start."""
    segments = trace.segments()
    return {
        start + run
        for (run, kind, _, _), start in zip(segments.entries, segments.starts)
        if kind == K_BARRIER
    }


@functools.lru_cache(maxsize=None)
def _concurrent_traces(abbrev, cores, contention):
    return tuple(generate_concurrent(
        abbrev, PersistMode.LOG_P_SF, n_cores=cores, contention=contention,
        seed=0, init_ops=60, sim_ops=8,
    ).traces)


@functools.lru_cache(maxsize=None)
def _system_cell(abbrev, cores, contention, label):
    """``(aggregate digest, per-core stats digest, per-core cache digest,
    SystemResult, events, per-path instruction counts)`` of one
    multi-core cell.  The path counts (``system.path.*``) must sum to
    the instructions the cores retired, replays included.

    The run is watched through three methods the driver reaches on every
    path, so *events* counts what the cell exercises:

    * ``asleep_aborts`` — conflict aborts of a core that had already
      retired its whole trace (woken by a broadcast).  A core's trace
      position is its retired instructions minus the work it replayed;
    * ``mid_triple_resumes`` — rollbacks that resume at the second or
      third op of a barrier triple (possible only with coalescing off);
    * ``committed_stores`` — speculative stores made visible by an epoch
      commit during the run (the wind-down after it broadcasts nothing).
    """
    traces = _concurrent_traces(abbrev, cores, contention)
    system = SystemModel(_SYSTEM_MORE_MACHINES[label], n_cores=cores)
    core_of = {id(core): index for index, core in enumerate(system.cores)}
    replayed = [0] * cores
    barriers = [_barrier_positions(trace) for trace in traces]
    finishing = set()
    events = dict.fromkeys(
        ("asleep_aborts", "mid_triple_resumes", "committed_stores"), 0
    )
    real_rollback = PipelineModel._do_rollback
    real_commit = PipelineModel._commit_oldest
    real_finish = PipelineModel._finish

    def do_rollback(model):
        index = core_of[id(model)]
        position = model.stats.instructions - replayed[index]
        resume = real_rollback(model)
        replayed[index] += position - resume
        events["asleep_aborts"] += position >= len(traces[index])
        events["mid_triple_resumes"] += (
            resume - 1 in barriers[index] or resume - 2 in barriers[index]
        )
        return resume

    def commit_oldest(model):
        if id(model) not in finishing:
            oldest = model.epochs.oldest.epoch_id
            events["committed_stores"] += sum(
                entry.op is SSBOp.STORE and entry.epoch_id == oldest
                for entry in model.ssb.entries()
            )
        return real_commit(model)

    def finish(model):
        finishing.add(id(model))
        return real_finish(model)

    before = [telemetry.get(name) for name in SYSTEM_PATHS]
    with mock.patch.object(PipelineModel, "_do_rollback", do_rollback), \
            mock.patch.object(PipelineModel, "_commit_oldest", commit_oldest), \
            mock.patch.object(PipelineModel, "_finish", finish):
        result = system.run(list(traces))
    paths = [telemetry.get(name) - b for name, b in zip(SYSTEM_PATHS, before)]
    assert sum(replayed) == result.replayed_instructions
    assert sum(paths) == sum(stats.instructions for stats in result.per_core)
    return (
        _json_digest(cache.stats_record(result.aggregate()), sort_keys=True),
        _json_digest([cache.stats_record(stats) for stats in result.per_core],
                     sort_keys=True),
        _json_digest([_cache_state(core.caches) for core in system.cores]),
        result,
        events,
        paths,
    )


def test_system_battery_covers_cores_contention_and_machines():
    assert len(_SYSTEM_CELLS) == 16
    for cells in PINNED_SYSTEM_DIGESTS.values():
        assert set(cells) == {(2, 0.0), (2, 0.9), (4, 0.0), (4, 0.9)}
        for digests in cells.values():
            assert list(digests) == list(_SYSTEM_MACHINES)
    assert set(PINNED_SYSTEM_CORE_DIGESTS) == set(_SYSTEM_CELLS)
    assert len(PINNED_SYSTEM_MORE_DIGESTS) == 20
    assert not set(PINNED_SYSTEM_MORE_DIGESTS) & set(_SYSTEM_CELLS)


@pytest.mark.parametrize(
    "abbrev,cores,contention,label", _ALL_SYSTEM_CELLS,
    ids=lambda value: str(value),
)
def test_system_stats_pinned(abbrev, cores, contention, label):
    cell = (abbrev, cores, contention, label)
    if cell in PINNED_SYSTEM_MORE_DIGESTS:
        pinned = PINNED_SYSTEM_MORE_DIGESTS[cell]
    else:
        pinned = (PINNED_SYSTEM_DIGESTS[abbrev][(cores, contention)][label],
                  *PINNED_SYSTEM_CORE_DIGESTS[cell])
    aggregate, per_core, caches = _system_cell(*cell)[:3]
    name = f"{abbrev}/{cores}c/p{contention}/{label}"
    assert aggregate == pinned[0], f"{name}: system stats drifted"
    assert per_core == pinned[1], f"{name}: per-core stats drifted"
    assert caches == pinned[2], f"{name}: per-core cache end state drifted"


def test_system_battery_exercises_abort_and_replay():
    """The contended SP cells abort and replay, so the table pins the
    conflict protocol and not only conflict-free composition."""
    aborting = sum(
        _system_cell(*cell)[3].conflict_aborts > 0 for cell in _SYSTEM_CELLS
    )
    assert aborting >= 4


def test_system_battery_exercises_the_conflict_protocol():
    """Among the battery's system cells some abort a core that had
    finished its trace, some resume inside an expanded barrier triple,
    some stall on a full SSB or checkpoint buffer, and some broadcast
    speculative stores when their epoch commits."""
    seen = dict.fromkeys(
        ("asleep_aborts", "mid_triple_resumes", "committed_stores",
         "ssb_full_stall_cycles", "checkpoint_stall_cycles"), 0,
    )
    for cell in _ALL_SYSTEM_CELLS:
        _, _, _, result, events, _ = _system_cell(*cell)
        for name, count in events.items():
            seen[name] += count
        for stats in result.per_core:
            seen["ssb_full_stall_cycles"] += stats.ssb_full_stall_cycles > 0
            seen["checkpoint_stall_cycles"] += stats.checkpoint_stall_cycles > 0
    assert all(seen.values()), seen


def test_system_runs_take_the_fast_path():
    """The 4-core p=0.9 SP256 cells retire most of their instructions —
    replays included — on the walker's fast phase; one op at a time
    (the walker's slow phase and the driver's per-unit fallback) stays
    under 15% (stepping every unit would be 100%)."""
    for abbrev in PINNED_SYSTEM_DIGESTS:
        _, _, _, result, _, paths = _system_cell(abbrev, 4, 0.9, "sp256")
        kernel, walker, step, step_spec = paths
        instructions = sum(stats.instructions for stats in result.per_core)
        assert result.conflict_aborts > 0
        assert step + step_spec < 0.15 * instructions, paths
