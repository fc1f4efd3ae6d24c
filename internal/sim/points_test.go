package sim

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// withProcs runs f with GOMAXPROCS set to n, so the concurrent path is
// exercised even under `go test -cpu 1`.
func withProcs(t *testing.T, n int, f func()) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	f()
}

// TestPointsIndexOrder: results land in index order even when early
// points are much slower than late ones, and every point runs once.
func TestPointsIndexOrder(t *testing.T) {
	for _, procs := range []int{1, 2, 4, 8} {
		withProcs(t, procs, func() {
			const n = 37
			var calls [n]atomic.Int32
			got := Points(n, func(i int) string {
				calls[i].Add(1)
				// Index 0 is the slowest, so later indices finish first.
				time.Sleep(time.Duration((n-i)%7) * 200 * time.Microsecond)
				return fmt.Sprint(i * i)
			})
			if len(got) != n {
				t.Fatalf("procs=%d: %d results, want %d", procs, len(got), n)
			}
			for i := range got {
				if want := fmt.Sprint(i * i); got[i] != want {
					t.Fatalf("procs=%d: result %d = %q, want %q", procs, i, got[i], want)
				}
				if c := calls[i].Load(); c != 1 {
					t.Fatalf("procs=%d: point %d ran %d times", procs, i, c)
				}
			}
		})
	}
}

// TestPointsSmallN covers n == 0 and n below the worker count.
func TestPointsSmallN(t *testing.T) {
	withProcs(t, 4, func() {
		if got := Points(0, func(i int) int { panic("no points to run") }); len(got) != 0 {
			t.Fatalf("n=0 returned %v", got)
		}
		for n := 1; n < 4; n++ {
			got := Points(n, func(i int) int { return i + 100 })
			for i, v := range got {
				if v != i+100 {
					t.Fatalf("n=%d: result %d = %d", n, i, v)
				}
			}
		}
	})
}

// TestPointsLowestPanicAfterAllReturn: with several points panicking,
// the lowest index's value is re-raised, and only after every started
// point has returned.
func TestPointsLowestPanicAfterAllReturn(t *testing.T) {
	withProcs(t, 4, func() {
		var running atomic.Int32
		var seen any
		func() {
			defer func() { seen = recover() }()
			Points(16, func(i int) int {
				running.Add(1)
				defer running.Add(-1)
				switch i {
				case 1:
					// The lowest failure is also the slowest to fail.
					time.Sleep(20 * time.Millisecond)
					panic("point 1")
				case 2:
					panic("point 2")
				case 3:
					time.Sleep(40 * time.Millisecond)
				}
				return i
			})
		}()
		if seen != "point 1" {
			t.Fatalf("re-raised %v, want the lowest-index panic %q", seen, "point 1")
		}
		if r := running.Load(); r != 0 {
			t.Fatalf("%d points still running when the panic was re-raised", r)
		}
	})
}

// TestPointsSerialPanic: at GOMAXPROCS=1 the serial loop stops at the
// first panic, as a plain for loop would.
func TestPointsSerialPanic(t *testing.T) {
	withProcs(t, 1, func() {
		var ran []int
		defer func() {
			if r := recover(); r != "stop" {
				t.Fatalf("recovered %v, want stop", r)
			}
			if fmt.Sprint(ran) != "[0 1 2]" {
				t.Fatalf("ran %v, want [0 1 2]", ran)
			}
		}()
		Points(5, func(i int) int {
			ran = append(ran, i)
			if i == 2 {
				panic("stop")
			}
			return i
		})
	})
}

// TestPointsEnginesPerPoint is the intended use: one engine per point,
// reaped by the point; every worker and proc goroutine is gone after.
func TestPointsEnginesPerPoint(t *testing.T) {
	before := countGoroutines()
	withProcs(t, 4, func() {
		got := Points(12, func(i int) Time {
			e := NewEngine()
			sig := NewSignal("never")
			e.SpawnDaemon("daemon", func(p *Proc) { p.WaitSignal(sig) })
			e.Spawn("work", func(p *Proc) { p.Wait(Time(10 * (i + 1))) })
			end := e.Run()
			e.Shutdown()
			return end
		})
		for i, end := range got {
			if end != Time(10*(i+1)) {
				t.Fatalf("point %d ended at %d", i, end)
			}
		}
	})
	if after := countGoroutines(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// failingPoint panics from a named frame the stack test looks for.
func failingPoint() int { panic("boom") }

// TestPointsPanicStack: on the concurrent path the re-raised panic's
// stack ends in Points, so the point's own stack goes to stderr first.
func TestPointsPanicStack(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	withProcs(t, 2, func() {
		defer func() {
			os.Stderr = stderr
			w.Close()
			if rec := recover(); rec != "boom" {
				t.Errorf("re-raised %v, want boom", rec)
			}
		}()
		Points(4, func(i int) int {
			if i == 1 {
				return failingPoint()
			}
			return i
		})
	})
	out, _ := io.ReadAll(r)
	if !strings.Contains(string(out), "point 1 panicked: boom") || !strings.Contains(string(out), "failingPoint") {
		t.Fatalf("stderr does not show the failing point's stack:\n%s", out)
	}
}
