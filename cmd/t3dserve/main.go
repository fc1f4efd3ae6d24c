// Command t3dserve is the multi-tenant simulation service: an HTTP/JSON
// job API over (machine config, app, seed, fault config) backed by the
// deterministic T3D simulator, with AIMD admission control, 429 +
// Retry-After shedding, a crash-safe write-ahead job journal, and a
// content-addressed result cache.
//
// Usage:
//
//	t3dserve -addr :8080 -journal t3dserve.journal
//
// Submit a job and watch it:
//
//	curl -s localhost:8080/jobs -d '{"app":"em3d","pes":8,"seed":7}'
//	curl -s 'localhost:8080/jobs/j00000001?watch=1'
//
// SIGTERM/SIGINT drains gracefully: /readyz flips to 503, in-flight
// jobs finish within -drain-timeout, stragglers are canceled (they
// replay from the journal on restart), and the journal is synced.
// SIGKILL is also safe — that is the journal's job.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/ckpt"
	"repro/internal/hostfs"
	"repro/internal/serve"
)

// parseTenantFlag parses one -tenant value:
//
//	name:weight[:max_concurrent[:max_queue[:cycle_budget[:cycle_refill]]]]
//
// Trailing fields default to 0 (no quota); cycle_refill defaults to
// cycle_budget per second when metering is on.
func parseTenantFlag(v string) (string, serve.TenantConfig, error) {
	parts := strings.Split(v, ":")
	if len(parts) < 2 || len(parts) > 6 || parts[0] == "" {
		return "", serve.TenantConfig{}, fmt.Errorf("want name:weight[:max_concurrent[:max_queue[:cycle_budget[:cycle_refill]]]], got %q", v)
	}
	nums := make([]int64, 5)
	for i, p := range parts[1:] {
		n, err := strconv.ParseInt(p, 10, 64)
		if err != nil || n < 0 {
			return "", serve.TenantConfig{}, fmt.Errorf("field %d of %q: want a non-negative integer, got %q", i+2, v, p)
		}
		nums[i] = n
	}
	return parts[0], serve.TenantConfig{
		Weight:        int(nums[0]),
		MaxConcurrent: int(nums[1]),
		MaxQueue:      int(nums[2]),
		CycleBudget:   nums[3],
		CycleRefill:   nums[4],
	}, nil
}

// pollDiskControl watches a control file and drives the fault disk's
// broken mode from its contents ("ok", "eio", or "enospc") — the lever
// the serve-faults smoke uses to stage a brownout deterministically.
func pollDiskControl(path string, fsys *hostfs.Fault, logger *log.Logger) {
	last := hostfs.Healthy
	for {
		time.Sleep(100 * time.Millisecond)
		data, err := os.ReadFile(path)
		if err != nil {
			// An absent file means leave the disk as it is; anything
			// else is worth a line in the log.
			if !errors.Is(err, fs.ErrNotExist) {
				logger.Printf("disk-control: read %s: %v", path, err)
			}
			continue
		}
		var mode hostfs.BrokenMode
		switch strings.TrimSpace(string(data)) {
		case "eio":
			mode = hostfs.BrokenEIO
		case "enospc":
			mode = hostfs.BrokenENOSPC
		case "ok", "":
			mode = hostfs.Healthy
		default:
			continue
		}
		if mode == last {
			continue
		}
		last = mode
		if mode == hostfs.Healthy {
			fsys.Heal()
		} else {
			fsys.SetBroken(mode)
		}
		logger.Printf("disk-control: disk is now %s", mode)
	}
}

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		journal      = flag.String("journal", "t3dserve.journal", "write-ahead job journal path ('' disables crash safety)")
		workers      = flag.Int("workers", 2, "concurrent simulation workers")
		queue        = flag.Int("queue", 64, "hard bound on queued jobs before shedding")
		targetWait   = flag.Duration("target-wait", 2*time.Second, "queueing-delay target driving AIMD admission")
		cacheCap     = flag.Int("cache", 8192, "result cache capacity (entries)")
		cycleLimit   = flag.Int64("cycle-limit", 2_000_000_000, "default per-job simulated-cycle budget")
		wallLimit    = flag.Duration("wall-limit", 120*time.Second, "default per-job wall-clock budget")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful drain budget on SIGTERM")

		// Durable mid-job checkpoints: off unless -checkpoint-dir is set
		// (and the journal is on — checkpoints are only trusted when a
		// journal record vouches for them). -checkpoint-cycles gives jobs
		// that don't ask for a cadence one anyway.
		ckptDir    = flag.String("checkpoint-dir", "", "directory for durable mid-job checkpoints ('' disables)")
		ckptCycles = flag.Int64("checkpoint-cycles", 0, "default checkpoint cadence in simulated cycles (0 = only jobs that request one)")
		ckptRetain = flag.Int("checkpoint-retain", 3, "checkpoints retained per job (fallback ladder depth)")

		// Disk-fault injection (testing/ops drills only): the journal is
		// mounted on a seeded hostfs.Fault instead of the real filesystem.
		diskSeed       = flag.Uint64("disk-fault-seed", 0, "seed for injected journal disk faults")
		diskWriteErr   = flag.Float64("disk-write-err", 0, "probability a journal write fails EIO")
		diskShortWrite = flag.Float64("disk-short-write", 0, "probability a journal write lands a torn prefix")
		diskSyncErr    = flag.Float64("disk-sync-err", 0, "probability a journal fsync fails EIO")
		diskControl    = flag.String("disk-control", "", "file polled for the disk's broken mode: ok, eio, or enospc")
		healBackoff    = flag.Duration("heal-backoff", 100*time.Millisecond, "initial degraded-journal probe interval")
	)
	tenants := map[string]serve.TenantConfig{}
	flag.Func("tenant", "per-tenant scheduling config, repeatable: name:weight[:max_concurrent[:max_queue[:cycle_budget[:cycle_refill]]]]",
		func(v string) error {
			name, cfg, err := parseTenantFlag(v)
			if err != nil {
				return err
			}
			tenants[name] = cfg
			return nil
		})
	flag.Parse()

	logger := log.New(os.Stderr, "t3dserve: ", log.LstdFlags)
	var journalFS hostfs.FS
	injectFaults := *diskWriteErr > 0 || *diskShortWrite > 0 || *diskSyncErr > 0 || *diskControl != ""
	if injectFaults {
		faultFS := hostfs.NewFault(hostfs.OS(), hostfs.FaultConfig{
			Seed:           *diskSeed,
			WriteErrRate:   *diskWriteErr,
			ShortWriteRate: *diskShortWrite,
			SyncErrRate:    *diskSyncErr,
		})
		journalFS = faultFS
		logger.Printf("journal on an injected-fault disk (seed %#x, write-err %g, short-write %g, sync-err %g)",
			*diskSeed, *diskWriteErr, *diskShortWrite, *diskSyncErr)
		if *diskControl != "" {
			go pollDiskControl(*diskControl, faultFS, logger)
		}
	}
	if *ckptDir != "" {
		if err := ckpt.MkdirAll(*ckptDir); err != nil {
			fmt.Fprintf(os.Stderr, "t3dserve: checkpoint dir: %v\n", err)
			os.Exit(1)
		}
	}
	srv, err := serve.NewServer(serve.Config{
		Pool: serve.PoolConfig{
			Workers:    *workers,
			QueueDepth: *queue,
			TargetWait: *targetWait,
			Tenants:    tenants,
		},
		JournalPath:             *journal,
		FS:                      journalFS,
		HealBackoff:             *healBackoff,
		CheckpointDir:           *ckptDir,
		CheckpointRetain:        *ckptRetain,
		DefaultCheckpointCycles: *ckptCycles,
		CacheCap:                *cacheCap,
		DefaultCycleLimit:       *cycleLimit,
		DefaultWallLimit:        *wallLimit,
		Logf:                    logger.Printf,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "t3dserve: %v\n", err)
		os.Exit(1)
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	logger.Printf("listening on %s (journal %q, %d workers, queue %d)", *addr, *journal, *workers, *queue)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		logger.Printf("caught %s: draining (budget %s)", sig, *drainTimeout)
		if err := srv.Drain(*drainTimeout); err != nil {
			logger.Printf("drain: %v", err)
		}
		if err := hs.Close(); err != nil {
			logger.Printf("http close: %v", err)
		}
		logger.Printf("drained clean")
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "t3dserve: %v\n", err)
		os.Exit(1)
	}
}
