"""The distributed query replay engine (§2.6, §3)."""

from .distributed import DistributedConfig
from .distributor import (Controller, DistributionStats, Distributor,
                          StickyAssigner)
from .protocol import (MAX_FRAME, MSG_CHECKPOINT, MSG_END, MSG_HELLO,
                       MSG_METRICS, MSG_RECORD, MSG_RESULT, MSG_SHUTDOWN,
                       MSG_TELEMETRY, MSG_TIME_SYNC,
                       MessageSocket, ProtocolError, ROLE_DISTRIBUTOR,
                       ROLE_QUERIER, ROLE_SHARD, SendError, connect,
                       connected_pair)
from .recovery import (ChaosConfig, ChaosEngine, CheckpointPolicy,
                       CheckpointStore, RecoveryConfig, attach_chaos,
                       conservation_violations, merge_recovered,
                       reconnect_with_backoff)
from .engine import ReplayConfig, SimReplayEngine
from .multiproc import (ProcessTopology, ShardTopology,
                        default_shard_scenario, shard_slice)
from .querier import QuerierConfig, SimQuerier
from .result import ReplayResult, SentQuery
from .supervision import AimdPacer, PacingConfig
from .timing import TimerJitterModel, TimingController

__all__ = [
    "AimdPacer", "ChaosConfig", "ChaosEngine", "CheckpointPolicy",
    "CheckpointStore", "Controller", "DistributedConfig",
    "DistributionStats", "Distributor", "MAX_FRAME", "MSG_CHECKPOINT",
    "MSG_END", "MSG_HELLO", "MSG_METRICS", "MSG_RECORD", "MSG_RESULT",
    "MSG_SHUTDOWN", "MSG_TELEMETRY", "MSG_TIME_SYNC",
    "MessageSocket", "PacingConfig",
    "ProcessTopology", "ProtocolError", "ROLE_DISTRIBUTOR", "ROLE_QUERIER",
    "ROLE_SHARD", "RecoveryConfig", "SendError",
    "ShardTopology", "connect", "connected_pair",
    "QuerierConfig", "ReplayConfig", "ReplayResult",
    "SentQuery", "SimQuerier", "SimReplayEngine", "StickyAssigner",
    "TimerJitterModel", "TimingController",
    "attach_chaos", "conservation_violations", "default_shard_scenario",
    "merge_recovered", "reconnect_with_backoff",
    "shard_slice",
]
