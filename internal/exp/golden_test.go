package exp

// Golden-output regression tests: the simulator is deterministic, so the
// rendered experiment tables are stable byte for byte. Any timing-model
// change shows up here as a readable diff, and running with -cpu 1,2,4
// shows the concurrent point runner is invisible in the output. TestMain
// adds the leak check: no goroutine outlives the package's tests.
// Refresh with:
//
//	UPDATE_GOLDEN=1 go test ./internal/exp -run Golden

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// shortGoldenIDs is the -short subset: cheap experiments, including fig2
// and tab2, whose sweep points run concurrently, so the race step still
// covers the point runner.
var shortGoldenIDs = map[string]bool{"hop": true, "tab3": true, "fig6": true, "fig2": true, "tab2": true}

func TestGoldenExperimentOutput(t *testing.T) {
	t.Parallel()
	for _, e := range All() {
		if testing.Short() && !shortGoldenIDs[e.ID] {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			var sb strings.Builder
			for _, tb := range e.Run(Options{Quick: true}) {
				tb.Render(&sb)
			}
			got := sb.String()
			path := filepath.Join("testdata", e.ID+".golden")
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1): %v", err)
			}
			if got != string(want) {
				t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
			}
		})
	}
}

// TestMain runs the package's tests, then requires every goroutine they
// started to be gone: every machine an experiment builds must be shut
// down.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if after := settledGoroutines(before); code == 0 && after > before {
		fmt.Fprintf(os.Stderr, "%d goroutines before the tests, %d after: a machine was not shut down\n", before, after)
		code = 1
	}
	os.Exit(code)
}

// settledGoroutines waits up to a second for the goroutine count to fall
// to want (exiting workers and reaped procs unwind asynchronously) and
// returns the last count seen.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(5 * time.Millisecond)
	}
	return n
}
