package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

type layerMetric struct{ name, unit string }

// layerMetrics is every per-layer metric a traced run reports, in
// report order. A workload that does not exercise a layer reports it
// as 0. BENCHMARK.json lists the same names and units.
var layerMetrics = func() []layerMetric {
	var ms []layerMetric
	add := func(unit string, names ...string) {
		for _, n := range names {
			ms = append(ms, layerMetric{n, unit})
		}
	}
	for _, id := range []string{"fig1", "fig2", "tab2", "tab3", "fig4", "fig5", "fig6", "fig7", "fig8", "tab7",
		"hop", "fig9", "extF", "extG", "extH", "extI", "extD", "extA", "extB", "extC", "extE"} {
		add("s", "exp."+id+"_s")
	}
	add("ms", "machine.new_ms")
	add("MB", "machine.new_alloc_mb")
	add("count", "sim.events")
	add("ns", "sim.ns_per_event")
	for _, p := range []string{"sim.wait", "sim.pingpong"} {
		add("ns", p+"_ns")
		add("count", p+"_allocs", p+"_events")
	}
	for _, v := range []string{"Simple", "Ghost", "Unroll", "Get", "Put", "Bulk"} {
		add("s", "em3d."+v+"_s")
	}
	add("count", "cpu.loads", "cpu.stores", "cache.l1_hits", "cache.l1_misses",
		"wbuf.pushes", "wbuf.full_stalls", "tlb.misses")
	for _, p := range []string{"cpu.load_hit", "cpu.load_miss", "cpu.store"} {
		add("ns", p+"_ns")
		add("count", p+"_allocs", p+"_events")
	}
	add("count", "shell.remote_reads", "shell.remote_writes", "shell.prefetches", "shell.annex_updates",
		"shell.barrier_crossings", "net.packets")
	add("bytes", "net.payload_bytes")
	add("ns", "shell.remote_read_ns")
	add("count", "shell.remote_read_allocs", "shell.remote_read_events")
	add("ns", "net.route_cold_ns")
	add("ns", "am.send_ns")
	add("count", "am.send_allocs", "am.send_events")
	for _, p := range []string{"splitc.get", "splitc.put"} {
		add("ns", p+"_ns")
		add("count", p+"_allocs", p+"_events")
	}
	add("ns", "splitc.sync_ns", "splitc.bulk_get_ns_per_kb")
	add("ms", "serve.submit_ms", "serve.watch_ms", "serve.queue_wait_ms",
		"serve.miss_p50_ms", "serve.miss_p90_ms", "serve.hit_p50_ms")
	add("1/s", "serve.jobs_per_s")
	add("count", "serve.cache_hits", "serve.cache_misses", "serve.dedups", "serve.sheds", "serve.journal_appends")
	add("us", "serve.journal_append_us")
	add("count", "ckpt.writes")
	add("bytes", "ckpt.bytes_per_job")
	add("ms", "ckpt.write_ms")
	for _, l := range selfLayers {
		add("s", "self."+l+"_s")
	}
	add("count", "trace.spans")
	add("ns", "trace.record_ns")
	add("s", "trace.wall_s")
	return ms
}()

var layerUnits = func() map[string]string {
	m := map[string]string{}
	for _, l := range layerMetrics {
		m[l.name] = l.unit
	}
	return m
}()

// crossRunCheck compares exact counts with the ones an earlier run of
// the same binary, workload and seed saved, then saves the union. The
// file is keyed by a hash of the executable, so a rebuilt program starts
// afresh.
func (r *run) crossRunCheck(counts map[string]int64) {
	path, err := countsPath(r)
	if err != nil {
		r.check(false, "exact counts: %v", err)
		return
	}
	saved := map[string]int64{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &saved); err != nil {
			r.check(false, "exact counts: parse %s: %v", path, err)
			return
		}
	}
	for k, v := range counts {
		if old, ok := saved[k]; ok {
			r.check(old == v, "exact count %s is %d, an earlier run of seed %d had %d", k, v, r.seed, old)
		}
		saved[k] = v
	}
	data, err := json.Marshal(saved)
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		r.check(false, "exact counts: save %s: %v", path, err)
	}
}

func countsPath(r *run) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	dir := filepath.Join(buildDir, "counts")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return filepath.Join(dir, fmt.Sprintf("%x-%s-seed%d.json", h.Sum(nil)[:8], r.workload, r.seed)), nil
}
