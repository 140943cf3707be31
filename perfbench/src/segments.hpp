// Splitting an untraced run over several processes.
//
// On a virtual machine, a process's speed depends on where its memory and
// threads land, so one process's timings carry a per-process offset that no
// amount of repetition inside it averages away. An untraced run therefore
// measures in `segments` child processes in turn, each for seconds/segments
// on the same seeded inputs, and pools their samples.
#pragma once

#include "workloads.hpp"

namespace perfbench {

/// Runs `run` in `segments` forked processes one after another (call it
/// before the process starts any thread) and pools what they measured.
/// Throws if a segment dies or reports nothing.
RunResult run_in_segments(const RunConfig& cfg, int segments,
                          RunResult (*run)(const RunConfig&));

}  // namespace perfbench
