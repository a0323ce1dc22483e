"""Golden determinism snapshots: same seed → byte-identical JSON.

Every hot-path optimisation (engine queue layout, effect-object reuse,
PIOMan reap batching, driver fast paths) must change *host* CPU cost only —
never simulated behaviour.  These tests pin that contract with SHA-256
hashes of fully-rendered result JSON: one figure sweep and one
application-level workload scenario, each checked across worker counts
(the parallel sweep runner must not influence results either).

If an intentional modelling change shifts the outputs, regenerate the
hashes with::

    PYTHONPATH=src python -c "
    import hashlib
    from repro.bench.figures import FIGURES
    from repro.workloads.matrix import run_scenario
    rs, _ = FIGURES['fig3'](True)
    print('fig3   ', hashlib.sha256(rs.to_json().encode()).hexdigest())
    rs = run_scenario('stencil', quick=True)
    print('stencil', hashlib.sha256(rs.to_json().encode()).hexdigest())"

and say so in the commit message — a silent hash change is a determinism
bug by definition.

:class:`TestWorkCounters` pins the engine's event count for the pingpong
(also with quiet cores: passive waiting and flag spinning) and stencil
workloads the same way.  The count is the host work behind a
result, exact and independent of machine load, so a change that adds or
removes engine events (skipping empty polls, say) shows up here as a
reviewed number, not as wall-clock noise.  Regenerate with ``bed.engine.events_run`` after
the same calls as the tests, and say so in the commit message.
"""

import hashlib
import json

import pytest

from repro.bench.figures import FIGURES
from repro.bench.overlap import build_overlap_bed, run_overlap
from repro.bench.pingpong import run_pingpong
from repro.core.session import build_testbed
from repro.core.waiting import (
    FixedSpinWait,
    FlagSpinWait,
    PassiveWait,
    PiomanBusyWait,
)
from repro.obs.capture import observe
from repro.pioman.integration import attach_pioman
from repro.pioman.offload import TaskletSubmit, set_offload
from repro.workloads.matrix import run_scenario
from repro.workloads.stencil import run_stencil

#: SHA-256 of ResultSet.to_json() for the fig3 locking sweep, --quick
FIG3_QUICK_SHA256 = "982855684400e57ba61667d8ee1ba42dd19d628b01fd46039a97c0f78aa5a6b1"
#: SHA-256 of ResultSet.to_json() for the stencil scenario, --quick
STENCIL_QUICK_SHA256 = (
    "d7125235c6f0f9a25232269d4c03e35c1882e997d3e068d7f1ba9546b21c975a"
)
#: engine events of a 1 KiB pingpong (200 iterations + 4 warm-up) per policy
PINGPONG_EVENTS = {"none": 13294, "coarse": 19487, "fine": 15856}
#: engine events of the fine/busy/inline stencil, 6 steps of 4 KiB halos
STENCIL_EVENTS = 1765
#: engine events of a fine 1 KiB pingpong (200 iterations + 4 warm-up) with
#: PIOMan polling only on core 0: passive waiting (Fig. 7's shape) and flag
#: spinning with polling on core 1 (Fig. 8's)
QUIET_PINGPONG_EVENTS = {"passive-poll0": 78673, "flag-spin-poll1": 62351}

#: SHA-256 of the metrics report of fig7 --quick under observe(trace=True)
FIG7_TRACED_REPORT_SHA256 = (
    "ece91fd10f05a8a2f31ff9281de01d68ca46b92c0ec13929bc56aafd3c7b4860"
)
#: SHA-256 of one quiet-wait corpus run (see TestQuietWaits) per config
QUIET_WAIT_SHA256 = {
    "passive/coarse/poll0/8": "454dc4350574eb15bab6d1aa24b5fb45febc88c8c0322049bc5fb97f17ab4c35",
    "passive/coarse/poll0/65536": "0643f8c0664b8aa382cb037ff20fe333c2808597fd843e2f9e4c9ffbce460018",
    "passive/coarse/poll1/8": "6a7fcbcb6876be2ff8216fe555570edf0fd0b2a43539c838b7ecb7c8a2963cc3",
    "passive/coarse/poll1/65536": "9c7dc31d624a63329e037698f7d82f135025738a0a00a723f108753aad9ba50e",
    "passive/coarse/poll23/8": "cb32a8db9bdf242996ea7c0304e05ed0720a4026b6319171667129d79e0fe6fb",
    "passive/coarse/poll23/65536": "3ac8ef4fb0c5692940b5eb4dddeee1a7ba0a5ac9fc7a02cf74fc9d425e7d416c",
    "passive/coarse/poll02/8": "3f5f8347dca4e03325e2122ef6e2b67b86550aa57775b1359110677851f1ea5a",
    "passive/coarse/poll02/65536": "7d06c3dee2d626c61af35e90c641963fdbbc056ed1ac702a1ecf01efa3756be8",
    "passive/fine/poll0/8": "1ac63add815bb2627b161292de483f283dbea6b3929ce5bd75f78bf30363fe9e",
    "passive/fine/poll0/65536": "92178d0a12ac47e7853171f82fe29226fe8986f26f3d5e431fc651d7780fdde7",
    "passive/fine/poll1/8": "48bb209991a641ba9236f9ba489638d116310b0cabba103fd0c5a19999df0f16",
    "passive/fine/poll1/65536": "6b4dac7a535450e15a06ea64908e30e8c5545adc83e5b45c3adf232e5d24faeb",
    "passive/fine/poll23/8": "4aacb89047e517e2df00c25bc3137fe6d4e72cde2f1ebb3a28f7a520021220b8",
    "passive/fine/poll23/65536": "efd87e96b2f9c7416b2e2ef356177c587e8ec68b00a2ef40428d0379682ef5dd",
    "passive/fine/poll02/8": "4d26b059034fda9ebda3270e739263c711597ef5c2e85063879ed91c71b27d05",
    "passive/fine/poll02/65536": "fad95cfe1a7064f109f623736b723216e06045710d88694f6655057816b6a38d",
    "fixed-spin/coarse/poll0/8": "1a0a51ff91917a5cde065e183912fb72c977b3479e3d5198cf9807d12d737fc0",
    "fixed-spin/coarse/poll0/65536": "f8773c9b2910e5d8461a2e03a1389c2086249b0863a902571abef1ea370bc21d",
    "fixed-spin/coarse/poll1/8": "e5068e6642ccc4ecbfdcf219cbdbb2ad1653db672efb3a196f3f882ed0a73f1e",
    "fixed-spin/coarse/poll1/65536": "7f797c2e7b553da296986de9793998478872f5ab4766ab0a89dbb41f0c6ae2a4",
    "fixed-spin/coarse/poll23/8": "e9810e619a6f7bf07b4181c2b558068cfa2d8475f781068e069205e5775bbb25",
    "fixed-spin/coarse/poll23/65536": "316fac760bb7069f5768997f4c04614b6333ee56e1befba2231240abdc930b82",
    "fixed-spin/coarse/poll02/8": "fc57fecc85399e9b21a3fe23a67bf364aa1159f1445c48540a32dee61572fe4a",
    "fixed-spin/coarse/poll02/65536": "e60fad6b51c4c38428ee6e2f08db7b365d3ff6d09fe9cc695f699474d09446a4",
    "fixed-spin/fine/poll0/8": "668d167bd0175797867015f4757dd0262dceb2bf22829f502fe1f6aa933047c2",
    "fixed-spin/fine/poll0/65536": "4114224385160013e75a7fadadda88e4e7d75658c23aa5785a2ad42f953ee6c1",
    "fixed-spin/fine/poll1/8": "41c956c20412ee9097d4e0f5c4a1b522a72f2bdee2d98319e3b9445a5acb3464",
    "fixed-spin/fine/poll1/65536": "cd7e137c272e88d83976f94bdb69659a6c2a6308bdfc08fbd34a1e5947f11b16",
    "fixed-spin/fine/poll23/8": "dba0674f84dc68b766b3e30daa26dca5b7b2171b28fd91deebc5af1be8d98f0d",
    "fixed-spin/fine/poll23/65536": "84296fed846d62179f09508db8f06ea57cc7536b517ce7ae13068d7769f15b0c",
    "fixed-spin/fine/poll02/8": "96c7bcbfc7dda2b8a23c5697c0dba160637d24996923f2c4af037f7c77c8d995",
    "fixed-spin/fine/poll02/65536": "f100205bc50d666e4460e72a850c454d6b86e2c5d73a8e08034a23773650877f",
    "pioman-busy/coarse/poll0/8": "5d21add6ceec408650267ebfbd24204f7f66cd3b008e28f91af7d32bdadeaecf",
    "pioman-busy/coarse/poll0/65536": "9613a6b7cc113bbc54c41803041d779c7ba509095d0395be94fa777544a9480e",
    "pioman-busy/coarse/poll1/8": "9945cf9a4db7aab8a7983f411ee422498e0786d7ac4783b0fc15a7a6694a521c",
    "pioman-busy/coarse/poll1/65536": "de9fb93a90e206649e98769da7361fc3f1d5bce169185847c21951bfbbb51f00",
    "pioman-busy/coarse/poll23/8": "d4c67866c8f2d7a8b4c3a3fd8b696e25567292f6cef91bbc5d73005ea11511dc",
    "pioman-busy/coarse/poll23/65536": "cd085f907c1df58c2bd0fdce4836d16d38519aa86c6df96261755a2bd0c5a589",
    "pioman-busy/coarse/poll02/8": "ba3f70b7df1443f289c2452027597c4f4418c39f476b3ca50de9de67d928d84f",
    "pioman-busy/coarse/poll02/65536": "28066faddcad6b6b7fdb662e05c7827351dda684d17061211dd27e6001b4dd3f",
    "pioman-busy/fine/poll0/8": "46b71e2167b69a5fc60f695e403da0ea15992f78dffb2a1eddbe07e68c2baa21",
    "pioman-busy/fine/poll0/65536": "fcd9fd3f235e23602f6caf4863ba4b15b61fd9229a0a68593c272fca013924bb",
    "pioman-busy/fine/poll1/8": "096d595e38694f5e25ddff6ed95c2f7ebed12b0b0b9f6975c4c62a9f428c024f",
    "pioman-busy/fine/poll1/65536": "ac8bd04b124636ddf8c7737410018fdfafa38de3f6a8674237ce294603c7f8aa",
    "pioman-busy/fine/poll23/8": "90fcb00bbd9db13fdae9a5cb2e824819194ae37490108b07272fcc100f80da97",
    "pioman-busy/fine/poll23/65536": "11028cc1cd7aaef816c7d2843c95ded9bfc3d369a95a971fb176a506ab3e7003",
    "pioman-busy/fine/poll02/8": "002cef28d6e3d480548d072e642bb9338a2b00953209cec549c0d2cd9b34c32e",
    "pioman-busy/fine/poll02/65536": "0dd8bb4593c4eb5c52d1efb4cc432b555d0003c16ef05771c477cb0340b59874",
    "flag-spin/coarse/poll1/8": "ff6c8b55e0f248ad6a7a60148f149435a7942751bfba3cfff91a31f8613d20bb",
    "flag-spin/coarse/poll1/65536": "c43b431d7654db00fede6d4e8dfb19c5a7b2250b039a90df0590c50bfeaa9b70",
    "flag-spin/coarse/poll23/8": "42f02f7ce443c13485227d23bfac1334b4836658345e8392ab4974173bd4226a",
    "flag-spin/coarse/poll23/65536": "b02e380b8f173a50cb357f61b2041b4b556c481a044842832327a5a078fd4e96",
    "flag-spin/fine/poll1/8": "3bdbea1434e3c2e9e0099d3ef2b4f93eef43e694526d412b70c1e26d7b62f741",
    "flag-spin/fine/poll1/65536": "28787f3cc8a9545e6f775b476d2d17a56f2d216d326dce498eef78a51d082fe1",
    "flag-spin/fine/poll23/8": "fc879ed0db1917eb0c774b74f263b3eb64681883391f9b076973d72a78af1d02",
    "flag-spin/fine/poll23/65536": "c2474565a21e523cbcff456aa30cfde6ef81a4c10f02f27b92a5c12848f7e88a",
    "fig9-inline/8": "deab15b39a23342fcb1cc70992550e5ffead46c22dd2ebaf34eac01a629c2716",
    "fig9-inline/65536": "1ef28d80313b13dbee54d1060af134994551eccda4f9b0ab573989b4b9a1bb6c",
    "fig9-idle-core/8": "e7455d511bb8e3f8ea34030bf1f98da6343b78b31b764026381655f5b7f82c61",
    "fig9-idle-core/65536": "8423683df26af0ece4adc2f61c3021ded5458d7dd4a92e3a8f6651b1b54eb015",
    "fig9-tasklet/8": "c6737556be7c1de56b99c8028fe232f56a6db716590ba9d7ba9140340d392134",
    "fig9-tasklet/65536": "4ed6efe87c7ea1760ff4ec566b8ea6b2bd82070f9bc351fc75c3523b46126659",
    "fig9-tasklet@2/8": "07277b77dc7343c1dd6c345edd1624cf66e327dc947b69711cb0dedb6faae05b",
    "fig9-tasklet@2/65536": "6f2a341c8aea80c3bedf6537402265579c28bfa90435179c786550a7661d106b",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestFigureGolden:
    def test_fig3_quick_matches_snapshot(self):
        result_set, _checks = FIGURES["fig3"](True)
        assert _sha256(result_set.to_json()) == FIG3_QUICK_SHA256

    @pytest.mark.parametrize("workers", [1, 2])
    def test_fig3_quick_workers_invariant(self, workers):
        result_set, _checks = FIGURES["fig3"](True, workers=workers)
        assert _sha256(result_set.to_json()) == FIG3_QUICK_SHA256


class TestIncrementalCacheGolden:
    """Acceptance: the golden hashes hold cold, warm, and at any worker
    count *with the incremental point cache enabled* — replayed points
    are byte-identical to computed ones."""

    def test_fig3_quick_cold_warm_and_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_CACHE", "1")
        cold, _checks = FIGURES["fig3"](True)
        assert cold.digest() == FIG3_QUICK_SHA256
        for workers in (1, 4, 8):
            warm, _checks = FIGURES["fig3"](True, workers=workers)
            assert warm.digest() == FIG3_QUICK_SHA256, f"workers={workers}"

    def test_stencil_quick_cold_warm_and_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_CACHE", "1")
        cold = run_scenario("stencil", quick=True)
        assert cold.digest() == STENCIL_QUICK_SHA256
        for workers in (1, 4, 8):
            warm = run_scenario("stencil", quick=True, workers=workers)
            assert warm.digest() == STENCIL_QUICK_SHA256, f"workers={workers}"


class TestWorkloadGolden:
    def test_stencil_quick_matches_snapshot(self):
        result_set = run_scenario("stencil", quick=True)
        assert _sha256(result_set.to_json()) == STENCIL_QUICK_SHA256

    @pytest.mark.parametrize("workers", [1, 2])
    def test_stencil_quick_workers_invariant(self, workers):
        result_set = run_scenario("stencil", quick=True, workers=workers)
        assert _sha256(result_set.to_json()) == STENCIL_QUICK_SHA256


class TestWorkCounters:
    @pytest.mark.parametrize("policy", sorted(PINGPONG_EVENTS))
    def test_pingpong_events(self, policy):
        bed = build_testbed(policy=policy)
        run_pingpong(bed, 1024, iterations=200, warmup=4)
        assert bed.engine.events_run == PINGPONG_EVENTS[policy]

    def test_stencil_events(self):
        run = run_stencil("fine/busy/inline", steps=6, halo_bytes=4096)
        assert run.events_run == STENCIL_EVENTS

    @pytest.mark.parametrize(
        "case, wait, poll_core",
        [("passive-poll0", PassiveWait, 0), ("flag-spin-poll1", FlagSpinWait, 1)],
    )
    def test_quiet_wait_pingpong_events(self, case, wait, poll_core):
        bed = build_testbed(policy="fine")
        for node in (0, 1):
            attach_pioman(bed.machine(node), [bed.lib(node)], poll_cores=[poll_core])
        run_pingpong(bed, 1024, iterations=200, warmup=4, wait_factory=wait)
        assert bed.engine.events_run == QUIET_PINGPONG_EVENTS[case]


_WAITS = {
    "passive": PassiveWait,
    "fixed-spin": FixedSpinWait,
    "pioman-busy": PiomanBusyWait,
    "flag-spin": FlagSpinWait,
}


def _machine_state(bed) -> dict:
    return {
        "ctx_switches": [m.scheduler.ctx_switches for m in bed.machines],
        "utilization": [m.utilization() for m in bed.machines],
        "transfer_charged_ns": [m.transfer_charged_ns for m in bed.machines],
        "now": bed.engine.now,
    }


def _quiet_wait_digest(config: str) -> str:
    """Run one corpus config; hash its RTTs and the machines' state where
    the run stopped and after shutdown drained the engine.

    ``wait/policy/pollNN/size`` is a pingpong with PIOMan polling on cores
    NN (timer ticks every 9 us when NN is 23); ``fig9-mode/size`` is
    Fig. 9's overlap pingpong, ``tasklet@2`` with the tasklet on a core
    that does not poll.  Jitter is 150 ns throughout.
    """
    first, size = config.rsplit("/", 1)
    if first.startswith("fig9-"):
        mode, _, target = first[len("fig9-"):].partition("@")
        bed = build_overlap_bed(mode, policy="fine", poll_core=1, seed=7, jitter_ns=150)
        if target:
            for lib in bed.libs:
                set_offload(lib, TaskletSubmit(target_core=int(target)))
        res = run_overlap(bed, int(size), iterations=10, warmup=2)
    else:
        wait, policy, poll = first.split("/")
        poll_cores = [int(c) for c in poll[len("poll"):]]
        bed = build_testbed(policy=policy, seed=7, jitter_ns=150)
        for node in (0, 1):
            attach_pioman(
                bed.machine(node), [bed.lib(node)], poll_cores=poll_cores,
                timers=poll_cores == [2, 3], timer_period_ns=9_000,
            )
        res = run_pingpong(
            bed, int(size), iterations=10, warmup=2, wait_factory=_WAITS[wait]
        )
    stopped = _machine_state(bed)
    bed.shutdown()
    bed.engine.run()
    payload = {"rtts": res.rtts_ns, "stopped": stopped, "drained": _machine_state(bed)}
    return _sha256(json.dumps(payload, sort_keys=True))


class TestQuietWaits:
    """Differential corpus for the waits that file one engine event per
    decision: idle loops napping on cores no idle hook can run on, and
    flag spinners.  Every wait × locking policy × set of polling cores ×
    message size, plus Fig. 9's offload modes, must leave the simulated
    output exactly as when every nap and re-read was its own event (the
    hashes were computed that way).  A run stopped inside a pass or nap
    and a shutdown during one are both in here.
    """

    @pytest.mark.parametrize("config", sorted(QUIET_WAIT_SHA256))
    def test_corpus(self, config):
        assert _quiet_wait_digest(config) == QUIET_WAIT_SHA256[config]

    def test_fig7_traced_metrics_report(self):
        with observe(trace=True) as obs:
            FIGURES["fig7"](True)
        report = obs.metrics_registry().report()
        assert _sha256(report) == FIG7_TRACED_REPORT_SHA256
