package experiments

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelism is the worker count experiment fan-out uses. Simulation points
// (one network at one applied rate, or one trace replay) are fully
// independent — each owns its network, RNG streams, engine and transaction
// table — so they parallelize embarrassingly. Results are always gathered in
// input order and post-processed with the same rules the serial path
// applies, so reports and CSVs are byte-identical at any worker count.
var parallelism int64 = int64(runtime.GOMAXPROCS(0))

// SetParallelism sets the worker count for subsequent experiment runs.
// Values below 1 are clamped to 1 (serial).
func SetParallelism(j int) {
	if j < 1 {
		j = 1
	}
	atomic.StoreInt64(&parallelism, int64(j))
}

// Parallelism returns the current experiment worker count.
func Parallelism() int { return int(atomic.LoadInt64(&parallelism)) }

// mapOrdered evaluates fn(0..n-1) on up to `workers` goroutines and returns
// the results in input order. Workers pull the next index from a shared
// counter, so scheduling is dynamic but the output layout is deterministic.
// If any calls fail, the error of the smallest failing index is returned —
// exactly the error a serial loop would have surfaced first. A cancelled ctx
// stops the fan-out before the next unstarted index; in-flight calls observe
// ctx themselves (Network.RunContext checks it between cycle batches).
func mapOrdered[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			r, err := fn(i)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}
	errs := make([]error, n)
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				results[i], errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
