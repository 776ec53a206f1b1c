package experiments

import (
	"context"
	"runtime"
	"sync"
)

// parallelMap evaluates fn(i) for i in [0, n) concurrently and collects
// the results in index order. Each simulation owns its engine and RNG
// streams, so parallel evaluation is deterministic per index; only the
// scheduling order varies. The first error (by index) wins.
func parallelMap[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	return parallelMapCtx(context.Background(), n, func(_ context.Context, i int) (T, error) {
		return fn(i)
	})
}

// parallelMapCtx is parallelMap with cooperative cancellation: dispatch
// stops as soon as any worker fails or ctx is cancelled, so a long sweep
// does not keep burning cores after its outcome is already decided.
// Indices already dispatched run to completion; their results are
// discarded on error. When no worker failed but ctx was cancelled
// before every index was dispatched, the context error is returned; a
// cancellation after that leaves every result computed, so they are
// returned.
func parallelMapCtx[T any](ctx context.Context, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	results := make([]T, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	next := make(chan int)
	done := make(chan struct{})
	var closeOnce sync.Once
	stop := func() { closeOnce.Do(func() { close(done) }) }
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i], errs[i] = fn(ctx, i)
				if errs[i] != nil {
					stop()
				}
			}
		}()
	}
	dispatched := 0
dispatch:
	for ; dispatched < n; dispatched++ {
		select {
		case next <- dispatched:
		case <-done:
			break dispatch
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if dispatched < n {
		return nil, ctx.Err()
	}
	return results, nil
}
