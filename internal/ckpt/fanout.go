package ckpt

import (
	"context"
	"sync"
	"sync/atomic"
)

// fanOut calls fn exactly once for every i in [0, n), on min(workers, n)
// workers, the calling goroutine being worker 0: with one worker no
// goroutine starts. Worker w takes index w first, then claims the next
// free one, so with workers >= n every index runs on a worker of its own,
// all at once. An error skips no index: the first one in time cancels the
// ctx fn is handed, and is what fanOut returns. fn therefore runs after
// the cancel too, and should return at once when its ctx is done. This is
// the one worker pool of the engine: the snapshot copy, the chunk encoders
// and uploaders, checkpoint deletes, the chunk walk and the shard fan-out
// all run on it.
func fanOut(ctx context.Context, n, workers int, fn func(ctx context.Context, w, i int) error) error {
	workers = max(1, min(workers, n))
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next  atomic.Int64
		once  sync.Once
		first error
		wg    sync.WaitGroup
	)
	next.Store(int64(workers))
	work := func(w int) {
		for i := w; i < n; i = int(next.Add(1) - 1) {
			if err := fn(ctx, w, i); err != nil {
				once.Do(func() {
					first = err
					cancel()
				})
			}
		}
	}
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
	return first
}
