"""Simulated Hadoop substrate: HDFS, MapReduce, scheduling, and faults.

This subpackage is a from-scratch, event-driven simulation of the
Hadoop 0.20-era stack the paper builds on: a block-replicated
distributed file system, slot-based task nodes, a FIFO job tracker, an
I/O-dominant cost model, and deterministic fault injection. Map and
reduce functions really execute over real records, so results are
checkable; time is virtual, so 30-node runs finish in milliseconds.
"""

from .catalog import BatchCatalog, BatchFile
from .cluster import Cluster
from .config import DEFAULT_CONFIG, ClusterConfig, small_test_config
from .costmodel import CostModel
from .counters import Counters, PhaseTimes
from .faults import FaultInjector, TaskAttemptsExhaustedError
from .hdfs import Block, FileSplit, HDFSError, HDFSFile, SimulatedHDFS
from .job import MapReduceJob, default_partitioner, stable_hash
from .jobtracker import FIFOScheduler, JobResult, JobTracker
from .node import MAP_SLOT, REDUCE_SLOT, LocalFile, NodeError, TaskNode
from .runner import PlainHadoopDriver, WindowExecution, window_filtered_job
from .shuffle import group_sorted, partition_pairs, run_reduce_partition, sort_pairs
from .simclock import SimClock
from .task import MapExecution, ReduceExecution, execute_map, execute_reduce
from .timeline import TaskInterval, Timeline, attach_timeline
from .types import GIGABYTE, MEGABYTE, KeyValue, Record, records_size, records_span

__all__ = [
    "BatchCatalog",
    "BatchFile",
    "Block",
    "Cluster",
    "ClusterConfig",
    "CostModel",
    "Counters",
    "DEFAULT_CONFIG",
    "FIFOScheduler",
    "FaultInjector",
    "FileSplit",
    "GIGABYTE",
    "HDFSError",
    "HDFSFile",
    "JobResult",
    "JobTracker",
    "KeyValue",
    "LocalFile",
    "MAP_SLOT",
    "MEGABYTE",
    "MapExecution",
    "MapReduceJob",
    "NodeError",
    "PhaseTimes",
    "PlainHadoopDriver",
    "REDUCE_SLOT",
    "Record",
    "ReduceExecution",
    "SimClock",
    "SimulatedHDFS",
    "TaskAttemptsExhaustedError",
    "TaskInterval",
    "TaskNode",
    "Timeline",
    "WindowExecution",
    "default_partitioner",
    "execute_map",
    "execute_reduce",
    "group_sorted",
    "partition_pairs",
    "records_size",
    "records_span",
    "run_reduce_partition",
    "small_test_config",
    "sort_pairs",
    "stable_hash",
    "attach_timeline",
    "window_filtered_job",
]
