package sim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"drhwsched/internal/stats"
)

// The chunk executor: the one way every run executes.
//
// The iteration stream is cut into chunks, each an independent
// Monte-Carlo replication: a chunk starts on a cold fabric at clock
// zero, then runs its iterations with the staged warm-chain body — tile
// residency and availability carry across the iterations inside a
// chunk (the paper's cross-iteration reuse mechanism) and reset at
// chunk boundaries. Parallelism 0 makes the whole run one chunk, the
// paper's single warm chain; Parallelism >= 1 cuts shardChunk-iteration
// chunks. Every iteration's randomness comes from its own
// counter-derived streams (seed.go), so a chunk's outcome is a pure
// function of (inputs, Seed, chunk index) — the only remaining
// worker-count hazard is accumulation order, handled by merging the
// per-chunk partials in chunk-index order — and any worker count
// produces bit-identical Results.
//
// One worker — Parallelism 0 or 1, and every traced run — executes the
// chunks in order on the caller's goroutine, on the master kernel, and
// calls the Observer after every iteration. More workers pull chunk
// indices from an atomic counter (chunk self-scheduling: a straggler
// chunk never idles the others) and the caller's goroutine flushes the
// buffered observer records as the completed chunk prefix grows.

// shardChunk is the replication length and scheduling grain at
// Parallelism >= 1. Chunk boundaries depend only on the iteration count
// — never on the worker count — and every chunk accumulates into its
// own Result partial, merged in chunk-index order. That makes even the
// non-associative float sums (LoadEnergy, PointEnergy) bit-identical
// for every Parallelism >= 1 and every scheduling order; integer sums,
// max merges and sketch merges are order-invariant anyway.
const shardChunk = 32

// chunkDone is a worker's completion report for one chunk.
type chunkDone struct {
	chunk int
	err   error
}

// run executes the iteration stream chunk by chunk and merges the chunk
// partials into the aggregate.
func (k *kernel) run() (*Result, error) {
	total := k.opt.Iterations
	chunk := shardChunk
	if k.workers == 0 {
		chunk = total
	}
	partials := make([]Result, (total+chunk-1)/chunk)
	agg := k.res
	var err error
	if k.workers <= 1 || k.rec != nil {
		err = k.runInOrder(chunk, partials)
	} else {
		err = k.runParallel(chunk, partials)
	}
	k.res = agg
	if err != nil {
		return nil, err
	}
	for c := range partials {
		agg.addChunk(&partials[c])
	}
	return k.finish(), nil
}

// runInOrder executes every chunk on the master kernel in chunk order,
// streaming observer records as iterations complete. Each chunk's
// events are shifted by the end clocks of the chunks before it.
func (k *kernel) runInOrder(chunk int, partials []Result) error {
	for c := range partials {
		if err := k.runChunk(c, chunk, &partials[c], k.opt.Observer); err != nil {
			return err
		}
		k.traceBase += k.clock
	}
	return nil
}

// runParallel executes the chunks on min(workers, chunks) shard
// kernels and folds the shards' run-wide statistics into the master.
func (k *kernel) runParallel(chunk int, partials []Result) error {
	chunks := len(partials)
	workers := min(k.workers, chunks)
	var recs [][]IterationRecord
	if k.opt.Observer != nil {
		recs = make([][]IterationRecord, chunks)
	}
	shards := make([]*kernel, workers)
	for i := range shards {
		sh, err := k.newShard()
		if err != nil {
			return err
		}
		shards[i] = sh
	}

	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	done := make(chan chunkDone, chunks)
	for _, sh := range shards {
		wg.Add(1)
		go func(sh *kernel) {
			defer wg.Done()
			for !failed.Load() {
				c := int(next.Add(1)) - 1
				if c >= chunks {
					return
				}
				var emit Observer
				if recs != nil {
					emit = func(rec IterationRecord) { recs[c] = append(recs[c], rec) }
				}
				err := sh.runChunk(c, chunk, &partials[c], emit)
				if err != nil {
					failed.Store(true)
				}
				done <- chunkDone{chunk: c, err: err}
			}
		}(sh)
	}
	go func() {
		wg.Wait()
		close(done)
	}()

	// The coordinator — the Run caller's goroutine — flushes observer
	// records as the completed chunk prefix grows, preserving the
	// Observer contract: synchronous with Run, in iteration order. On
	// error the lowest-index failure wins so the reported error does
	// not depend on worker scheduling.
	completed := make([]bool, chunks)
	flushed := 0
	errChunk := -1
	var firstErr error
	for d := range done {
		if d.err != nil {
			if errChunk < 0 || d.chunk < errChunk {
				errChunk, firstErr = d.chunk, d.err
			}
			continue
		}
		completed[d.chunk] = true
		if recs != nil {
			for flushed < chunks && completed[flushed] {
				for _, rec := range recs[flushed] {
					k.opt.Observer(rec)
				}
				recs[flushed] = nil
				flushed++
			}
		}
	}
	if firstErr != nil {
		return firstErr
	}

	for _, sh := range shards {
		k.maxInFlight = max(k.maxInFlight, sh.maxInFlight)
		k.peakQueued = max(k.peakQueued, sh.peakQueued)
		for i, d := range sh.ispBusy {
			k.ispBusy[i] += d
		}
		for _, m := range [...][2]*stats.Sketch{
			{k.mkQ, sh.mkQ}, {k.ovQ, sh.ovQ}, {k.qdQ, sh.qdQ}, {k.rtQ, sh.rtQ},
		} {
			if err := m[0].Merge(m[1]); err != nil {
				return err
			}
		}
	}
	return nil
}

// runChunk executes chunk c — iterations [c*chunk, min((c+1)*chunk,
// Iterations)) — on this kernel: cold fabric and clock at the chunk
// start, warm chaining within, accumulation into the chunk's own
// partial, and emit (when non-nil) called after every iteration.
func (k *kernel) runChunk(c, chunk int, partial *Result, emit Observer) error {
	k.res = partial
	k.fab.Reset()
	k.clock = 0
	lo := c * chunk
	hi := min(lo+chunk, k.opt.Iterations)
	for iter := lo; iter < hi; iter++ {
		if err := k.canceled(); err != nil {
			return fmt.Errorf("sim: canceled after %d of %d iterations: %w", iter, k.opt.Iterations, err)
		}
		rec, err := k.iterate(iter)
		if err != nil {
			return err
		}
		if emit != nil {
			emit(rec)
		}
	}
	return nil
}

// newShard clones the master kernel into a worker-owned copy: shared
// read-only design-time tables (mix, platform, prepared artifacts,
// admission policy), private run-time state (initRunState). The clone's
// hot path is the same single-goroutine code the master runs.
func (k *kernel) newShard() (*kernel, error) {
	// Every shard starts its own indexed source: sources keep draw
	// buffers, so one belongs to one kernel.
	isrc, err := startArrivals(k.opt, len(k.mix))
	if err != nil {
		return nil, err
	}
	sh := &kernel{
		mix:        k.mix,
		p:          k.p,
		opt:        k.opt,
		prep:       k.prep,
		alloc:      k.alloc,
		modeName:   k.modeName,
		partitions: k.partitions,
		useReuse:   k.useReuse,
		interTask:  k.interTask,
	}
	sh.initRunState(isrc)
	return sh, nil
}

// addChunk folds one chunk partial into the aggregate. Only the
// additive accumulation fields live in partials; derived fields
// (OverheadPct, tails, mode names) are computed once by finish.
func (r *Result) addChunk(p *Result) {
	r.IdealTotal += p.IdealTotal
	r.ActualTotal += p.ActualTotal
	r.Instances += p.Instances
	r.Loads += p.Loads
	r.InitLoads += p.InitLoads
	r.Reuses += p.Reuses
	r.Cancelled += p.Cancelled
	r.Subtasks += p.Subtasks
	r.LoadEnergy += p.LoadEnergy
	r.SavedLoads += p.SavedLoads
	r.SchedCost += p.SchedCost
	r.DeadlineMisses += p.DeadlineMisses
	r.PointEnergy += p.PointEnergy
	r.PrefetchHits += p.PrefetchHits
	r.DemandMisses += p.DemandMisses
}
