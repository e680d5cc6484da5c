"""The distributed query replay engine (§2.6, §3)."""

from .distributed import DistributedConfig
from .distributor import (Controller, DistributionStats, Distributor,
                          StickyAssigner)
from .protocol import (MAX_FRAME, MSG_CHECKPOINT, MSG_END, MSG_HELLO,
                       MSG_METRICS, MSG_RECORD, MSG_RECORD_SEQ, MSG_RESULT,
                       MSG_SHUTDOWN, MSG_TELEMETRY, MSG_TIME_SYNC,
                       MessageSocket, ProtocolError, ROLE_DISTRIBUTOR,
                       ROLE_QUERIER, ROLE_SHARD, SendError, connect,
                       connected_pair)
from .recovery import (ChaosConfig, ChaosEngine, CheckpointPolicy,
                       CheckpointStore, RecoveryConfig, RespawnPolicy,
                       attach_chaos, conservation_violations,
                       merge_recovered, reconnect_with_backoff)
from .engine import ReplayConfig, SimReplayEngine
from .live import (LiveUdpEchoServer, ThroughputReport, ThroughputSample,
                   measure_throughput)
from .multiproc import (ProcessTopology, ShardTopology,
                        UdpEchoServerProcess, default_shard_scenario,
                        shard_slice)
from .querier import QuerierConfig, SimQuerier
from .result import ReplayResult, SentQuery
from .supervision import (AimdPacer, PacingConfig, ReplayWatchdog,
                          SupervisionConfig)
from .timing import TimerJitterModel, TimingController

__all__ = [
    "AimdPacer", "ChaosConfig", "ChaosEngine", "CheckpointPolicy",
    "CheckpointStore", "Controller", "DistributedConfig",
    "DistributionStats", "Distributor", "MAX_FRAME", "MSG_CHECKPOINT",
    "MSG_END", "MSG_HELLO", "MSG_METRICS", "MSG_RECORD", "MSG_RECORD_SEQ",
    "MSG_RESULT", "MSG_SHUTDOWN", "MSG_TELEMETRY", "MSG_TIME_SYNC",
    "MessageSocket", "PacingConfig",
    "ProcessTopology", "ProtocolError", "ROLE_DISTRIBUTOR", "ROLE_QUERIER",
    "ROLE_SHARD", "RecoveryConfig", "RespawnPolicy", "SendError",
    "ShardTopology", "connect", "connected_pair", "LiveUdpEchoServer",
    "QuerierConfig", "ReplayConfig", "ReplayResult", "ReplayWatchdog",
    "SentQuery", "SimQuerier", "SimReplayEngine", "StickyAssigner",
    "SupervisionConfig", "ThroughputReport", "ThroughputSample",
    "TimerJitterModel", "TimingController", "UdpEchoServerProcess",
    "attach_chaos", "conservation_violations", "default_shard_scenario",
    "measure_throughput", "merge_recovered", "reconnect_with_backoff",
    "shard_slice",
]
