package sim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestEventHeapOrder: interleaved pushes and pops on the 4-ary heap
// always pop the minimum (at, seq), matching a sorted reference.
func TestEventHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h eventHeap
	var ref []event // kept sorted
	for seq := uint64(1); seq <= 20000 || len(ref) > 0; seq++ {
		if seq <= 20000 && (len(ref) == 0 || rng.Intn(3) > 0) {
			ev := event{at: Time(rng.Intn(50)), seq: seq}
			h.push(ev)
			ref = slices.Insert(ref, sort.Search(len(ref), func(i int) bool { return ev.before(&ref[i]) }), ev)
			continue
		}
		if got := h.pop(); got.at != ref[0].at || got.seq != ref[0].seq {
			t.Fatalf("popped (%d, %d), want (%d, %d)", got.at, got.seq, ref[0].at, ref[0].seq)
		}
		ref = ref[1:]
	}
	if len(h) != 0 {
		t.Fatalf("heap holds %d events after draining", len(h))
	}
}
