"""Pinned digests of freshly generated traces and of the runs they drive.

Every benchmark x persistency mode at ``init_ops=60``, ``sim_ops=4``,
seed 0, generated uncached, plus a set of multi-core cells.  Four
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

import pytest

from repro.harness import cache
from repro.harness.runner import TraceKey, generate_trace, system_result
from repro.isa.serialize import dump_trace
from repro.obs import telemetry
from repro.obs.capture import TRACE_MODES
from repro.txn.modes import PersistMode
from repro.uarch.config import MachineConfig
from repro.uarch.kernel import numpy_available
from repro.uarch.pipeline import PipelineModel
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
    model = PipelineModel(config)
    stats = model.run(_battery_trace(abbrev, mode))
    caches = model.caches
    hierarchy = [
        [level.name, level.stamp, level.hits, level.misses, level.writebacks,
         [[index, list(ways.items())]
          for index, ways in enumerate(level._sets) if ways]]
        for level in caches.levels
    ] + [caches.accesses, caches.nvmm_reads]
    return (_json_digest(cache.stats_record(stats), sort_keys=True),
            _json_digest(hierarchy))


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


@functools.lru_cache(maxsize=None)
def _system_cell(abbrev, cores, contention, label):
    """``(stats digest, conflict aborts)`` of one multi-core cell."""
    stats = system_result(
        abbrev, PersistMode.LOG_P_SF, _SYSTEM_MACHINES[label], 0,
        cores=cores, contention=contention, init_ops=60, sim_ops=8,
    ).aggregate()
    return (_json_digest(cache.stats_record(stats), sort_keys=True),
            stats.extra["conflict_aborts"])


def test_system_battery_covers_cores_contention_and_machines():
    assert len(_SYSTEM_CELLS) == 16
    for cells in PINNED_SYSTEM_DIGESTS.values():
        assert set(cells) == {(2, 0.0), (2, 0.9), (4, 0.0), (4, 0.9)}
        for digests in cells.values():
            assert list(digests) == list(_SYSTEM_MACHINES)


@pytest.mark.parametrize(
    "abbrev,cores,contention,label", _SYSTEM_CELLS,
    ids=lambda value: str(value),
)
def test_system_stats_pinned(abbrev, cores, contention, label):
    digest, _ = _system_cell(abbrev, cores, contention, label)
    assert digest == PINNED_SYSTEM_DIGESTS[abbrev][(cores, contention)][label], (
        f"{abbrev}/{cores}c/p{contention}/{label}: system stats drifted"
    )


def test_system_battery_exercises_abort_and_replay():
    """The contended SP cells abort and replay, so the table pins the
    conflict protocol and not only conflict-free composition."""
    aborting = sum(_system_cell(*cell)[1] > 0 for cell in _SYSTEM_CELLS)
    assert aborting >= 4
