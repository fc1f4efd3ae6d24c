package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ckpt"
	"repro/internal/serve"
)

// serveClients is the closed-loop client count: each client waits for
// one job's result before it submits the next, as t3dclient does.
const serveClients = 2

// serveCheckpointCycles is the checkpoint cadence of the em3d specs:
// below their run length, so every em3d miss publishes a checkpoint.
const serveCheckpointCycles = 60_000

// serveBatchChecks is how many served specs are re-run through
// serve.RunBatch after the timed phase.
const serveBatchChecks = 6

// service is one in-process t3dserve on loopback HTTP with a real
// fsync'd journal and checkpoint directory.
type service struct {
	dir  string
	srv  *serve.Server
	http *httptest.Server
}

func startService() (*service, error) {
	parent := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return nil, fmt.Errorf("temp dir: %w", err)
	}
	dir, err := os.MkdirTemp(parent, "serve-")
	if err != nil {
		return nil, fmt.Errorf("temp dir: %w", err)
	}
	ckdir := filepath.Join(dir, "ckpt")
	if err := ckpt.MkdirAll(ckdir); err != nil {
		return nil, fmt.Errorf("checkpoint dir: %w", err)
	}
	srv, err := serve.NewServer(serve.Config{JournalPath: filepath.Join(dir, "journal"), CheckpointDir: ckdir})
	if err != nil {
		if rerr := os.RemoveAll(dir); rerr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: remove", dir+":", rerr)
		}
		return nil, fmt.Errorf("start server: %w", err)
	}
	return &service{dir: dir, srv: srv, http: httptest.NewServer(srv.Handler())}, nil
}

func (s *service) stop() error {
	s.http.Close()
	err := s.srv.Drain(30 * time.Second)
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// outcome is one submission as a client saw it.
type outcome struct {
	hit     bool
	spec    serve.JobSpec
	want    string // the miss digest a hit must reproduce
	st      serve.JobStatus
	err     error
	latency time.Duration
	cached  bool // terminal on submit: served from the cache
}

// runServeMix is the serve-mix workload: two closed-loop clients, each
// alternating a new small job (3 em3d : 1 samplesort) with the
// re-submission of a spec it already completed, chosen by the seed.
func runServeMix(r *run) error {
	// Set-up: server start, journal open and listener, setupReps times;
	// the last one serves the timed phase.
	var setups []float64
	var svc *service
	for i := 0; i < setupReps; i++ {
		if svc != nil {
			if err := svc.stop(); err != nil {
				return err
			}
		}
		runtime.GC()
		t := time.Now()
		s, err := startService()
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
		svc = s
	}
	r.setE2E("setup_s", median(setups), len(setups))
	running := true
	defer func() {
		if running {
			// Already failing: the error being returned is the one to report.
			_ = svc.stop()
		}
	}()
	if err := beginTimed(); err != nil {
		return err
	}

	a0, t0 := allocated(), time.Now()
	deadline := t0.Add(r.budget)
	var req atomic.Int64
	results := make([][]outcome, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = serveClient(r.tr, svc.http.URL, r.seed, c, deadline, &req)
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	alloc := allocated() - a0

	var latMiss, latHit, waits []float64
	var em3dMisses, ckptSum int64
	ckpts := map[string]int64{}
	var served []serve.JobSpec
	var servedDigest []string
	completed := 0
	for _, outs := range results {
		for _, o := range outs {
			done := o.err == nil && o.st.State == "done" && o.st.Result != nil
			if done {
				completed++
			}
			ms := float64(o.latency.Microseconds()) / 1e3
			if o.hit {
				r.check(done && o.cached && o.st.Result.Digest == o.want,
					"hit %s: err %v state %q terminal on submit %v, result %+v, want digest %s",
					serve.KeyString(o.spec), o.err, o.st.State, o.cached, o.st.Result, o.want)
				latHit = append(latHit, ms)
				continue
			}
			r.check(done && o.st.Result.Validated, "miss %s: err %v state %q", serve.KeyString(o.spec), o.err, o.st.State)
			if !done {
				continue
			}
			latMiss = append(latMiss, ms)
			served = append(served, o.spec)
			servedDigest = append(servedDigest, o.st.Result.Digest)
			if j, err := svc.srv.Job(o.st.ID); err == nil {
				waits = append(waits, float64(j.QueueWait().Microseconds())/1e3)
			}
			if o.spec.App == serve.AppEM3D {
				em3dMisses++
				n := o.st.Progress.Checkpoints
				ckptSum += n
				ckpts["ckpt."+serve.KeyString(o.spec)] = n
				r.check(n >= 1, "em3d miss %s published no checkpoint", serve.KeyString(o.spec))
			}
		}
	}
	status := svc.srv.Status()

	// Re-run a seeded sample of served specs in batch mode: the service
	// must have computed exactly what the batch harness computes.
	rng := rand.New(rand.NewSource(r.seed))
	for _, k := range rng.Perm(len(served))[:min(serveBatchChecks, len(served))] {
		id := r.tr.begin("serve.runbatch", -1, 0)
		res, err := serve.RunBatch(served[k])
		r.tr.end(id)
		r.check(err == nil && res.Digest == servedDigest[k], "batch re-run %s: err %v digest %s, served %s",
			serve.KeyString(served[k]), err, res.Digest, servedDigest[k])
	}
	running = false
	if err := svc.stop(); err != nil {
		return err
	}
	var writes, bytes int64
	if status.Checkpoints != nil {
		writes, bytes = status.Checkpoints.Stats.Writes, status.Checkpoints.Stats.Bytes
	}
	r.check(writes == ckptSum, "checkpoint store counted %d writes, jobs reported %d", writes, ckptSum)
	r.crossRunCheck(ckpts)
	if completed == 0 || len(latMiss) == 0 {
		return fmt.Errorf("no job completed in %v", elapsed)
	}

	r.setE2E("wall_s", median(latMiss)/1e3, len(latMiss))
	r.setE2E("alloc_mb", float64(alloc)/mb/float64(completed), completed)
	jobsPerS := float64(completed) / elapsed.Seconds()
	r.note("jobs_per_s", "1/s", jobsPerS, completed)
	r.note("miss_p50_ms", "ms", median(latMiss), len(latMiss))
	r.note("miss_p90_ms", "ms", quantile(latMiss, 0.9), len(latMiss))
	r.note("hit_p50_ms", "ms", median(latHit), len(latHit))
	if r.trace {
		toMS := func(xs []float64) float64 { return median(xs) * 1e3 }
		r.setLayer("trace.wall_s", median(latMiss)/1e3)
		r.setLayer("serve.jobs_per_s", jobsPerS)
		r.setLayer("serve.miss_p50_ms", median(latMiss))
		r.setLayer("serve.miss_p90_ms", quantile(latMiss, 0.9))
		r.setLayer("serve.hit_p50_ms", median(latHit))
		r.setLayer("serve.submit_ms", toMS(r.tr.durations("serve.submit")))
		r.setLayer("serve.watch_ms", toMS(r.tr.durations("serve.watch")))
		r.setLayer("serve.queue_wait_ms", median(waits))
		r.setLayer("serve.cache_hits", float64(status.CacheHits))
		r.setLayer("serve.cache_misses", float64(status.CacheMisses))
		r.setLayer("serve.dedups", float64(status.Dedups))
		r.setLayer("serve.sheds", float64(status.Sheds))
		if status.Journal != nil {
			r.setLayer("serve.journal_appends", float64(status.Journal.Appends))
		}
		r.setLayer("ckpt.writes", float64(writes))
		if em3dMisses > 0 {
			r.setLayer("ckpt.bytes_per_job", float64(bytes)/float64(em3dMisses))
		}
	}
	return nil
}

// serveClient is one closed-loop client: it submits until the deadline,
// waiting for each job's result before the next submission. Its inputs
// come from the seed and the client index alone.
func serveClient(tr *tracer, url string, seed int64, c int, deadline time.Time, req *atomic.Int64) []outcome {
	rng := rand.New(rand.NewSource(seed*serveClients + int64(c)))
	cl := serve.NewClient(url)
	var outs []outcome
	var done []int // indices of completed misses in outs
	news := 0
	for k := 0; time.Now().Before(deadline); k++ {
		var o outcome
		if k%2 == 1 && len(done) > 0 {
			prev := outs[done[rng.Intn(len(done))]]
			o = outcome{hit: true, spec: prev.spec, want: prev.st.Result.Digest}
		} else {
			o.spec = newSpec(news, specSeed(seed, c, k))
			news++
		}
		id := req.Add(1)
		root := tr.begin("bench.job", -1, id)
		start := time.Now()
		sp := tr.begin("serve.submit", root, id)
		o.st, o.err = cl.Submit(o.spec)
		tr.end(sp)
		o.cached = o.err == nil && o.st.Terminal()
		if o.err == nil && !o.cached {
			sp = tr.begin("serve.watch", root, id)
			o.st, o.err = cl.Watch(o.st.ID)
			tr.end(sp)
		}
		o.latency = time.Since(start)
		tr.end(root)
		if !o.hit && o.err == nil && o.st.State == "done" && o.st.Result != nil {
			done = append(done, len(outs))
		}
		outs = append(outs, o)
	}
	return outs
}

// newSpec returns the n-th new small job of a client: em3d three times
// in four, else samplesort. The mix is a fixed rotation, not a draw, so
// that every run carries the same share of each kind.
func newSpec(n int, seed int64) serve.JobSpec {
	if n%4 < 3 {
		return serve.JobSpec{App: serve.AppEM3D, PEs: 8, NodesPerPE: 60, Iters: 2, RemoteFrac: 0.2,
			Seed: seed, CheckpointCycles: serveCheckpointCycles}
	}
	return serve.JobSpec{App: serve.AppSampleSort, PEs: 8, KeysPerPE: 256, Seed: seed}
}

// specSeed gives submission k of client c a seed no other submission of
// the run shares.
func specSeed(seed int64, c, k int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d/%d", seed, c, k)
	return int64(h.Sum64()>>2) | 1
}
