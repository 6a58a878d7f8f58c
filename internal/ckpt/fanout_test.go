package ckpt

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestFanOutContract holds fanOut, the engine's one worker pool, to its
// rules at every shape its callers use: every index exactly once, on a
// worker of its own when there are workers enough (so calls that wait
// for one another all finish, as Abort and Publish reach every shard at
// once), no index skipped after an error, the first error cancelling the
// ctx every other call sees and coming back ahead of the cancellations it
// causes.
func TestFanOutContract(t *testing.T) {
	errBoom := errors.New("boom")
	// wait blocks until ch closes, failing rather than hanging.
	wait := func(ch <-chan struct{}) error {
		select {
		case <-ch:
			return nil
		case <-time.After(10 * time.Second):
			return errors.New("timed out")
		}
	}
	for _, n := range []int{0, 1, 5} {
		for _, workers := range []int{1, 2, n, n + 3} {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(t *testing.T) {
				calls := make([]atomic.Int32, n)
				ws := make([]atomic.Int32, n)
				check := func(what string) {
					t.Helper()
					for i := range calls {
						if c := calls[i].Load(); c != 1 {
							t.Errorf("%s: index %d ran %d times, want 1", what, i, c)
						}
						if w := int(ws[i].Load()); w < 0 || w >= max(1, min(workers, n)) {
							t.Errorf("%s: index %d ran on worker %d of %d", what, i, w, min(workers, n))
						} else if workers >= n && w != i {
							t.Errorf("%s: index %d ran on worker %d, want its own", what, i, w)
						}
						calls[i].Store(0)
					}
				}
				run := func(fn func(ctx context.Context, i int) error) error {
					return fanOut(context.Background(), n, workers, func(ctx context.Context, w, i int) error {
						calls[i].Add(1)
						ws[i].Store(int32(w))
						return fn(ctx, i)
					})
				}

				// Every index once. With a worker each, every call waits
				// until all n have started: a scheduler that only claims
				// free indices would leave one waiting forever.
				var started atomic.Int32
				all := make(chan struct{})
				err := run(func(ctx context.Context, i int) error {
					if workers < n {
						return nil
					}
					if int(started.Add(1)) == n {
						close(all)
					}
					return wait(all)
				})
				if err != nil {
					t.Errorf("no error: fanOut = %v", err)
				}
				check("no error")
				if n == 0 {
					return
				}

				// Index 0, worker 0's first, fails: every other call still
				// runs, sees the cancel, and returns context.Canceled, yet
				// fanOut returns the failure that caused it.
				err = run(func(ctx context.Context, i int) error {
					if i == 0 {
						return errBoom
					}
					if err := wait(ctx.Done()); err != nil {
						return err
					}
					return ctx.Err()
				})
				if err != errBoom {
					t.Errorf("index 0 failed: fanOut = %v, want %v", err, errBoom)
				}
				check("index 0 failed")

				// The last index fails: none is skipped for it.
				err = run(func(ctx context.Context, i int) error {
					if i == n-1 {
						return errBoom
					}
					return nil
				})
				if err != errBoom {
					t.Errorf("last index failed: fanOut = %v, want %v", err, errBoom)
				}
				check("last index failed")
			})
		}
	}
}
