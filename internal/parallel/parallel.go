// Package parallel provides a small fork-join worker pool for fanning
// index-addressed work items out over the machine's cores.
//
// The pool is built for deterministic data-parallel scoring: callers
// partition work as a contiguous index range, workers claim chunks of the
// range from a shared atomic cursor (chunked self-scheduling, so fast
// workers steal the remainder of slow workers' share), and every item
// writes its result into its own slot. Because item i always computes the
// same value regardless of which worker runs it or when, the aggregate
// result is bit-identical across worker counts — including workers == 1,
// which runs the loop inline with no goroutines at all.
package parallel

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
)

// minChunk is the smallest chunk of items a worker claims at once. Larger
// chunks amortize the atomic cursor traffic; reconciliation work items
// (a handful of string comparisons each) are cheap enough that claiming
// them one by one would spend a visible fraction of time on the cursor.
const minChunk = 16

// Workers resolves a worker-count setting: values <= 0 select
// runtime.NumCPU(), anything else is returned unchanged.
func Workers(n int) int {
	if n <= 0 {
		return runtime.NumCPU()
	}
	return n
}

// For runs fn(i) for every i in [0, n) using up to workers goroutines
// (workers <= 0 means runtime.NumCPU()). It returns when every call has
// completed. fn must be safe for concurrent invocation on distinct
// indexes; each index is invoked exactly once.
//
// With workers == 1 — or when the range is too small to be worth fanning
// out — the loop runs inline on the calling goroutine, preserving exact
// serial behavior. A panic in any fn is re-raised on the calling
// goroutine after the remaining workers drain.
func For(workers, n int, fn func(i int)) {
	if n <= minChunk {
		workers = 1
	}
	// Chunk size targets several claims per worker so the tail balances,
	// floored at minChunk to bound cursor contention.
	run(workers, n, max(n/(Workers(workers)*4), minChunk), fn)
}

// Coarse runs fn(i) for every i in [0, n) using up to workers goroutines,
// claiming indexes one at a time. Unlike For — which inlines small ranges
// because its work items are tiny — Coarse assumes each item is a large
// independent task (e.g. one shard's propagation fixed point), so even a
// handful of items is worth fanning out. workers <= 0 means
// runtime.NumCPU(); workers == 1 runs inline, preserving exact serial
// behavior. A panic in any fn is re-raised on the calling goroutine after
// the remaining workers drain.
func Coarse(workers, n int, fn func(i int)) {
	run(workers, n, 1, fn)
}

// run is the one fork-join loop: up to workers goroutines claim chunk
// indexes at a time from a shared cursor until [0, n) is exhausted.
func run(workers, n, chunk int, fn func(i int)) {
	workers = min(Workers(workers), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		cursor   atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Value // first recovered panic, re-raised by the caller
	)
	work := func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				panicked.CompareAndSwap(nil, &workerPanic{r})
			}
		}()
		for {
			end := int(cursor.Add(int64(chunk)))
			start := end - chunk
			if start >= n {
				return
			}
			end = min(end, n)
			for i := start; i < end; i++ {
				fn(i)
			}
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go work()
	}
	wg.Wait()
	if p, ok := panicked.Load().(*workerPanic); ok {
		panic(p.value)
	}
}

// workerPanic wraps a recovered panic value so atomic.Value always stores
// one concrete type (atomic.Value requires consistent dynamic types).
type workerPanic struct{ value any }

// ForLabeled is For with pprof labels ("refrecon.phase" = phase) applied
// for the duration of the fan-out. Goroutines inherit their creator's
// label set, so the spawned workers carry the label too and CPU profiles
// attribute their samples to the phase. An empty phase is exactly For —
// no label, no context, no overhead.
func ForLabeled(workers, n int, phase string, fn func(i int)) {
	if phase == "" {
		For(workers, n, fn)
		return
	}
	pprof.Do(context.Background(), pprof.Labels("refrecon.phase", phase), func(context.Context) {
		For(workers, n, fn)
	})
}
