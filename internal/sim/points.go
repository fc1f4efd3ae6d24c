package sim

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Points evaluates point(0), ..., point(n-1) and returns the results in
// index order. It is the runner for an experiment's independent sweep
// points: up to GOMAXPROCS goroutines take indices from a shared
// counter, so at GOMAXPROCS=1 it is exactly the serial loop.
//
// The contract that makes the concurrency invisible in the output: each
// point builds its own Engine and machine, shares no mutable state with
// any other point, and reads nothing another point writes. Points may
// nest (a table of sweeps, each a sweep of points).
//
// Points returns only after every started point has finished. If points
// panicked, it re-raises the lowest-index panic value on the caller's
// goroutine, as the serial loop would have; indices above a panicked
// one are not started once the panic is seen. On the concurrent path the
// re-raised panic's stack ends in Points, so Points first prints the
// stack the point panicked with to standard error.
//
// This package is the only one the determinism lint pass lets start
// goroutines; Points is how the rest of the simulator gets parallelism.
func Points[T any](n int, point func(i int) T) []T {
	out := make([]T, n)
	workers := min(n, runtime.GOMAXPROCS(0))
	if workers <= 1 {
		for i := range out {
			out[i] = point(i)
		}
		return out
	}
	var (
		next      atomic.Int64
		stop      atomic.Bool
		wg        sync.WaitGroup
		mu        sync.Mutex
		failAt    = n
		failWith  any
		failStack []byte
	)
	run := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				stop.Store(true)
				stack := debug.Stack()
				mu.Lock()
				if i < failAt {
					failAt, failWith, failStack = i, r, stack
				}
				mu.Unlock()
			}
		}()
		out[i] = point(i)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				run(i)
			}
		}()
	}
	wg.Wait()
	if failAt < n {
		fmt.Fprintf(os.Stderr, "sim.Points: point %d panicked: %v\n%s\n", failAt, failWith, failStack)
		panic(failWith)
	}
	return out
}
