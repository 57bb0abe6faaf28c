// parallel_for.h — fork-join index loop for experiment sweeps.
//
// The experiment harness runs thousands of independent online-algorithm
// trials (seeds × parameter points).  parallel_for_index slices an index
// range over a team of threads with static block partitioning, so that
// per-trial RNGs stay deterministic (trial i always uses seed base+i,
// regardless of scheduling).
//
// Design choices (C++ Core Guidelines CP.*):
//  * RAII: the call joins every thread it starts; no detached threads.
//  * Fork-join only: the call blocks until every index is processed and
//    rethrows the first exception raised by any body.
#pragma once

#include <cstddef>
#include <functional>

namespace minrej {

/// Runs body(i) for every i in [0, count) across `threads` threads.
///
/// Static block partitioning: thread w handles a contiguous slice, so the
/// workload-to-thread mapping is deterministic.  Blocks until done; the
/// first exception thrown by any body is rethrown in the caller.
/// threads == 0 selects hardware concurrency; count == 0 is a no-op;
/// with one available thread everything runs inline (no spawn).
void parallel_for_index(std::size_t count,
                        const std::function<void(std::size_t)>& body,
                        std::size_t threads = 0);

}  // namespace minrej
