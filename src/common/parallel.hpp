// Persistent thread pool with deterministic work decomposition.
//
// Every hot loop in the library (assignment kernel, Lloyd update
// accumulation, seeding d² refreshes, sensitivity scoring) parallelizes
// through this header. Two rules make the results bitwise-independent of
// the worker count:
//
//   1. Work is split into a FIXED chunk grid that depends only on (n,
//      grain) — never on how many threads happen to exist. Any thread may
//      execute any chunk, but each chunk always covers the same index
//      range.
//   2. Reductions accumulate into per-chunk slots and are folded in chunk
//      order by the caller, so floating-point association is fixed.
//
// The pool size comes from the EKM_THREADS environment variable (read
// once, at first use), defaulting to std::thread::hardware_concurrency();
// set_parallel_threads() overrides it at runtime (tests sweep 1 vs 8 and
// assert identical output). Nested parallel_for calls from inside a pool
// worker degrade to serial execution of the inner loop, on the same grid;
// parallel_runs_inline() tells a kernel so, and the product kernel then
// runs a product as one chunk that packs its operand once
// (src/linalg/matrix.cpp).
#pragma once

#include <cstddef>
#include <functional>

namespace ekm {

/// Threads the pool currently uses, including the calling thread (>= 1).
[[nodiscard]] std::size_t parallel_threads();

/// Overrides the pool size. 0 restores the default (EKM_THREADS env, else
/// hardware_concurrency). Joins and respawns workers; waits for any
/// in-flight parallel_for to finish first.
void set_parallel_threads(std::size_t n);

/// Number of chunks the deterministic grid splits [0, n) into: ceil(n /
/// grain), with grain clamped to >= 1. Depends only on the arguments.
[[nodiscard]] std::size_t parallel_chunk_count(std::size_t n,
                                               std::size_t grain);

/// True when a parallel_for_chunks called from this thread runs its
/// chunks inline, one after another: on a pool thread inside a job's
/// chunk, or with a one-thread pool. A kernel may read it to choose how
/// it lays out work that one thread will do anyway; what it computes
/// must not depend on it.
[[nodiscard]] bool parallel_runs_inline();

/// Runs body(chunk, begin, end) for every chunk of the grid over [0, n).
/// Chunks run concurrently in unspecified order; body must only write
/// chunk-private or per-index state. Runs inline when the pool has one
/// thread, n fits a single chunk, or the caller is itself a pool worker.
/// Safe to call from multiple user threads — whole jobs serialize on an
/// internal mutex (the pool runs one job at a time).
void parallel_for_chunks(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body);

/// Range-only convenience: body(begin, end) per chunk.
void parallel_for(std::size_t n, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace ekm
