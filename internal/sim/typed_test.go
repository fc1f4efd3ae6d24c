package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// These tests pin AtCall against At: a callback scheduled as a typed
// event (handler, op, arg) must fire exactly where the same callback
// scheduled as a closure fires — same sequence number, same order among
// tied events, same Events() count.

// eventMix is one seeded random workload: callbacks that schedule more
// callbacks at tied and near times, procs that wait, block on signals
// with timeouts and fire them. How a callback is scheduled is the only
// thing that varies between runs.
type eventMix struct {
	e     *Engine
	seed  int64
	typed func(id int) bool // schedule callback id as a typed event?
	log   []string
	sigs  [3]*Signal
	next  int
}

const opMixCallback = 7

func (m *eventMix) Handle(op uint32, arg uint64) {
	if op != opMixCallback {
		panic(fmt.Sprintf("unexpected op %d", op))
	}
	m.callback(int(arg))
}

// schedule queues callback id at t in the form m.typed picks for it.
func (m *eventMix) schedule(t Time) {
	id := m.next
	m.next++
	if m.typed(id) {
		m.e.AtCall(t, m, opMixCallback, uint64(id))
		return
	}
	m.e.At(t, func() { m.callback(id) })
}

// callback logs itself and, driven by a per-id generator (so both forms
// make the same choices), schedules children or fires a signal.
func (m *eventMix) callback(id int) {
	m.log = append(m.log, fmt.Sprintf("cb%d@%d", id, m.e.Now()))
	x := uint64(m.seed)<<32 ^ uint64(id)
	draw := func(n int) int { // splitmix64: cheap and fixed per (seed, id)
		x += 0x9e3779b97f4a7c15
		z := (x ^ x>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return int((z ^ z>>31) % uint64(n))
	}
	if id < 400 {
		for k := draw(3); k > 0; k-- {
			m.schedule(m.e.Now() + Time(draw(3)))
		}
	}
	if draw(3) == 0 {
		m.sigs[draw(len(m.sigs))].Fire(m.e)
	}
}

func (m *eventMix) proc(p *Proc, n int) {
	rng := rand.New(rand.NewSource(m.seed*104729 + int64(n)))
	for step := 0; step < 40; step++ {
		switch rng.Intn(5) {
		case 0:
			p.Wait(Time(rng.Intn(4)))
		case 1:
			fired := p.WaitSignalTimeout(m.sigs[rng.Intn(len(m.sigs))], Time(1+rng.Intn(5)))
			m.log = append(m.log, fmt.Sprintf("p%d.wait=%v@%d", n, fired, p.Now()))
		case 2:
			m.schedule(p.Now() + Time(rng.Intn(3)))
		case 3:
			m.sigs[rng.Intn(len(m.sigs))].Fire(m.e)
		case 4:
			p.Yield()
		}
		m.log = append(m.log, fmt.Sprintf("p%d.%d@%d", n, step, p.Now()))
	}
}

func runEventMix(seed int64, typed func(id int) bool) ([]string, int64, Time) {
	m := &eventMix{e: NewEngine(), seed: seed, typed: typed}
	for i := range m.sigs {
		m.sigs[i] = NewSignal(fmt.Sprintf("sig%d", i))
	}
	rng := rand.New(rand.NewSource(seed))
	for i := rng.Intn(6); i > 0; i-- {
		m.schedule(Time(rng.Intn(3)))
	}
	for n := 0; n < 1+rng.Intn(4); n++ {
		n := n
		m.e.Spawn(fmt.Sprintf("p%d", n), func(p *Proc) { m.proc(p, n) })
	}
	end := m.e.Run()
	return m.log, m.e.Events(), end
}

func TestAtCallMatchesAtClosures(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		log, events, end := runEventMix(seed, func(int) bool { return false })
		forms := map[string]func(int) bool{
			"typed": func(int) bool { return true },
			"mixed": func(id int) bool { return id%3 != 1 },
		}
		for name, typed := range forms {
			gotLog, gotEvents, gotEnd := runEventMix(seed, typed)
			if !reflect.DeepEqual(gotLog, log) || gotEvents != events || gotEnd != end {
				t.Fatalf("seed %d, %s: %d log lines, Events %d, end %d; closures gave %d lines, Events %d, end %d\n%v\nvs\n%v",
					seed, name, len(gotLog), gotEvents, gotEnd, len(log), events, end, gotLog, log)
			}
		}
	}
}

// TestEventFitsFortyEightBytes: the heap holds events by value, so their
// size is the kernel's copy cost per sift step.
func TestEventFitsFortyEightBytes(t *testing.T) {
	if sz := unsafe.Sizeof(event{}); sz > 48 {
		t.Fatalf("event is %d bytes, want <= 48", sz)
	}
}

// TestAtCallAllocatesNothing: scheduling and dispatching a typed event
// costs no allocation once the heap has grown.
func TestAtCallAllocatesNothing(t *testing.T) {
	e := NewEngine()
	m := &eventMix{e: e}
	e.AtCall(0, m, 0, 0) // grow the heap once
	e.events.pop()
	allocs := testing.AllocsPerRun(100, func() {
		e.AtCall(e.Now()+1, m, opMixCallback, 1)
		e.events.pop()
	})
	if allocs != 0 {
		t.Fatalf("AtCall allocates %.1f objects per event, want 0", allocs)
	}
}
