"""Graphs priced by one fixed StageTimes instead of the cost model.

timed_graph walks exp's topology and gives it the duration table of times:
the graph build_task_graph makes, but for total_flops (0, so MFU reads 0)
and the costs the durations come from.
"""

from __future__ import annotations

from afpipe.config import Experiment
from afpipe.costs import StageTimes
from afpipe.taskgraph import TaskGraph, Walk, duration_table, graph_topology

UNIFORM = StageTimes(t_attn=1e-3, t_ffn=1e-3, t_a2a=1e-3, t_m2n=1e-3, t_p2p=0.0)


def timed_graph(exp: Experiment, times: StageTimes = UNIFORM) -> TaskGraph:
    return TaskGraph(Walk.of(graph_topology(exp)), duration_table(exp, times),
                     world_gpus=exp.cluster.total_gpus, gpu_peak=exp.cluster.gpu_peak)
