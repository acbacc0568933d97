// Package engine is the parallel execution layer of the characterization
// harness: it splits embarrassingly parallel experiment sweeps into
// independent shards and runs them on a bounded worker pool.
//
// The engine guarantees determinism: results are collected in submission
// order, and shard work must derive its randomness purely from structural
// coordinates hashed with the root experiment seed — as internal/core's
// per-group seeds do, and as Shard.Seed pre-mixes for consumers that want
// a single per-shard stream. The same seed therefore produces
// bit-identical results regardless of worker count or goroutine
// scheduling (see DESIGN.md §6).
//
// Cancellation and failure follow errgroup-style semantics: the first
// shard error cancels the run's context, in-flight shards finish, queued
// shards are skipped, and the lowest-indexed error is reported.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/xrand"
)

// Config bounds a run's parallelism.
type Config struct {
	// Workers is the maximum number of shards executed concurrently.
	// 0 selects runtime.GOMAXPROCS(0); 1 executes shards strictly
	// sequentially in submission order on the calling goroutine.
	Workers int
}

// WorkerCount resolves the configured bound to a concrete worker count
// for n queued shards: at least 1, at most n.
func (c Config) WorkerCount(n int) int {
	w := c.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Shard identifies one independently executable unit of a sweep: a single
// (module, bank, subarray) cell of the characterized space. Seed is the
// shard's stable sub-seed; work keyed on it (or on the coordinates
// themselves, as internal/core does) is reproducible independent of which
// worker executes the shard and when.
type Shard struct {
	Module   int
	Bank     int
	Subarray int
	Seed     uint64
}

// NewShard builds the shard for the given structural coordinates with its
// sub-seed derived from the root experiment seed.
func NewShard(root uint64, module, bank, subarray int) Shard {
	return Shard{
		Module:   module,
		Bank:     bank,
		Subarray: subarray,
		Seed:     ShardSeed(root, module, bank, subarray),
	}
}

// ShardSeed derives the stable, well-mixed sub-seed of one shard from the
// root seed. Distinct coordinates yield independent streams.
func ShardSeed(root uint64, module, bank, subarray int) uint64 {
	return xrand.Hash(root, 0xe17e, uint64(module), uint64(bank), uint64(subarray))
}

// Task is one unit of shard work. The context is cancelled when a sibling
// task fails or the caller cancels the run.
type Task[T any] func(ctx context.Context) (T, error)

// ShardKey is a canonical content hash of everything a shard result
// depends on (module spec, electrical parameters, sweep configuration,
// environment, seed, shard coordinates). internal/cache.Hasher builds
// them; the alias keeps this package free of the dependency.
type ShardKey = [32]byte

// Memo caches shard results across engine runs, keyed by their content
// hash. Implementations must be safe for concurrent use;
// internal/cache.Typed satisfies the interface.
type Memo[T any] interface {
	Get(key ShardKey) (T, bool)
	Put(key ShardKey, v T)
}

// Dispatcher routes the execution of one keyed shard to a worker fleet
// (in-process worker groups or remote peers — internal/cluster's
// Coordinator satisfies the interface). spec is the shard spec value
// and kind names its type ("core" or "workload"): in-process workers run
// the value, and only a remote worker receives it serialized. The
// returned bytes are the canonical JSON encoding of the shard's result. Because shard work is
// deterministic and keys capture every input, a dispatched shard is
// bit-identical to a locally executed one regardless of which worker
// runs it. Implementations must be safe for concurrent use.
type Dispatcher interface {
	ExecShard(ctx context.Context, key ShardKey, kind string, spec any) ([]byte, error)
}

// Stats accumulates progress counters across the runs of one harness
// instance. All methods are safe for concurrent use; the zero value is
// ready to use.
type Stats struct {
	runs         atomic.Int64
	shardsTotal  atomic.Int64
	shardsDone   atomic.Int64
	shardsCached atomic.Int64
	activations  atomic.Int64
	wallNanos    atomic.Int64
}

// AddActivations records n issued APA activations (reported by the shard
// bodies, which know their trial × group counts).
func (s *Stats) AddActivations(n int) { s.activations.Add(int64(n)) }

// Snapshot is a point-in-time copy of the counters.
type Snapshot struct {
	// Runs is the number of completed engine runs. A charexp grid
	// figure is one run, not one per cell.
	Runs int64
	// ShardsTotal and ShardsDone count submitted and completed shards.
	// A run submits all its shards when it starts, so a grid figure's
	// whole shard count is in ShardsTotal from its first progress view.
	ShardsTotal int64
	ShardsDone  int64
	// ShardsCached counts shards served from a Memo without executing
	// (RunKeyed hits). Cached shards count as done.
	ShardsCached int64
	// Activations counts APA activations issued by the shard bodies.
	Activations int64
	// Wall is the cumulative wall time spent inside engine runs.
	Wall time.Duration
}

// Snapshot returns the current counter values.
func (s *Stats) Snapshot() Snapshot {
	return Snapshot{
		Runs:         s.runs.Load(),
		ShardsTotal:  s.shardsTotal.Load(),
		ShardsDone:   s.shardsDone.Load(),
		ShardsCached: s.shardsCached.Load(),
		Activations:  s.activations.Load(),
		Wall:         time.Duration(s.wallNanos.Load()),
	}
}

// String renders the snapshot for progress lines.
func (s Snapshot) String() string {
	return fmt.Sprintf("%d/%d shards (%d cached) in %d runs, %d activations, %s wall",
		s.ShardsDone, s.ShardsTotal, s.ShardsCached, s.Runs, s.Activations, s.Wall.Round(time.Millisecond))
}

// Run executes the tasks on a bounded worker pool and returns their
// results in submission order (results[i] is tasks[i]'s). stats may be
// nil. On failure the lowest-indexed error among the executed tasks is
// returned and the remaining queued tasks are skipped; if the caller's
// context is cancelled first, its error is returned instead.
func Run[T any](ctx context.Context, cfg Config, stats *Stats, tasks []Task[T]) ([]T, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	if stats != nil {
		stats.shardsTotal.Add(int64(len(tasks)))
		defer func() {
			stats.wallNanos.Add(int64(time.Since(start)))
			stats.runs.Add(1)
		}()
	}

	results := make([]T, len(tasks))
	if len(tasks) == 0 {
		return results, ctx.Err()
	}

	done := func() {
		if stats != nil {
			stats.shardsDone.Add(1)
		}
	}

	if cfg.WorkerCount(len(tasks)) == 1 {
		// Sequential fast path: no goroutines, strictly submission order.
		for i, task := range tasks {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			r, err := task(ctx)
			if err != nil {
				return nil, fmt.Errorf("engine: shard %d: %w", i, err)
			}
			results[i] = r
			done()
		}
		return results, nil
	}

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		wg        sync.WaitGroup
		next      atomic.Int64
		completed atomic.Int64
		errs      = make([]error, len(tasks))
	)
	workers := cfg.WorkerCount(len(tasks))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(tasks) || ctx.Err() != nil {
					return
				}
				r, err := tasks[i](ctx)
				if err != nil {
					errs[i] = err
					cancel()
					return
				}
				results[i] = r
				completed.Add(1)
				done()
			}
		}()
	}
	wg.Wait()

	// Every task completed: the run is whole, return the results even if
	// the caller's context was cancelled in the meantime (the sequential
	// path behaves the same way — its last ctx check precedes the last
	// task).
	if int(completed.Load()) == len(tasks) {
		return results, nil
	}

	// Prefer the lowest-indexed root-cause error: a sibling that honours
	// the cancelled context and returns ctx.Err() must not mask the task
	// failure that triggered the cancellation.
	cancelIdx := -1
	for i, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if cancelIdx == -1 {
				cancelIdx = i
			}
			continue
		}
		return nil, fmt.Errorf("engine: shard %d: %w", i, err)
	}
	if err := parent.Err(); err != nil {
		return nil, err
	}
	if cancelIdx >= 0 {
		return nil, fmt.Errorf("engine: shard %d: %w", cancelIdx, errs[cancelIdx])
	}
	return results, nil
}

// RunKeyed is Run with per-shard memoization: keys[i] is the content hash
// of tasks[i]'s inputs. Shards whose key is present in memo are served
// from it without executing (counted in Snapshot.ShardsCached); the
// remaining shards run on the worker pool exactly as Run schedules them,
// and each successful result is stored back under its key as soon as the
// shard finishes. Because keys must capture every input of the shard —
// and shard work is deterministic by the engine's contract — a memoized
// run returns results bit-identical to an uncached one. A nil memo makes
// RunKeyed equivalent to Run.
func RunKeyed[T any](ctx context.Context, cfg Config, stats *Stats, memo Memo[T], keys []ShardKey, tasks []Task[T]) ([]T, error) {
	if memo == nil {
		return Run(ctx, cfg, stats, tasks)
	}
	if len(keys) != len(tasks) {
		return nil, fmt.Errorf("engine: %d keys for %d tasks", len(keys), len(tasks))
	}
	results := make([]T, len(tasks))
	var missIdx []int
	var missTasks []Task[T]
	for i, task := range tasks {
		if v, ok := memo.Get(keys[i]); ok {
			results[i] = v
			continue
		}
		i, task := i, task
		missIdx = append(missIdx, i)
		missTasks = append(missTasks, func(ctx context.Context) (T, error) {
			r, err := task(ctx)
			if err == nil {
				memo.Put(keys[i], r)
			}
			return r, err
		})
	}
	if cached := len(tasks) - len(missTasks); cached > 0 && stats != nil {
		stats.shardsTotal.Add(int64(cached))
		stats.shardsDone.Add(int64(cached))
		stats.shardsCached.Add(int64(cached))
	}
	missResults, err := Run(ctx, cfg, stats, missTasks)
	if err != nil {
		return nil, err
	}
	for j, i := range missIdx {
		results[i] = missResults[j]
	}
	return results, nil
}
