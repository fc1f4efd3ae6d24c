package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Time is a point in simulated time, measured in cycles.
type Time = int64

// Handler receives typed events. A component that schedules work on the
// engine (a shell, the network) implements it once and names each event
// by an opcode and an argument — typically an index into a fixed table
// of outstanding transactions — instead of allocating a closure.
type Handler interface {
	Handle(op uint32, arg uint64)
}

// funcHandler is At's closure form of a Handler.
type funcHandler func()

func (f funcHandler) Handle(uint32, uint64) { f() }

// wakeup resumes a proc; the event's arg is the wakeup generation.
// RunErr dispatches it inline so a failing proc surfaces as an error.
type wakeup struct{ p *Proc }

func (w wakeup) Handle(_ uint32, epoch uint64) {
	if err := w.p.eng.wake(w.p, epoch); err != nil {
		panic(err)
	}
}

// event is a scheduled occurrence, held by value in the heap: a handler
// with its opcode and argument. A proc resumption is the wakeup handler.
type event struct {
	at  Time
	seq uint64 // tie-break so equal-time events fire in schedule order
	h   Handler
	arg uint64
	op  uint32
}

func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// eventHeap is a 4-ary min-heap of events held by value. (at, seq) is a
// total order, so any correct heap pops the same sequence.
type eventHeap []event

//t3d:hotpath
func (h *eventHeap) push(ev event) {
	//lint:allow hotalloc the heap's backing array grows amortized-O(1) and is reused across the run; per-event cost is a slot store
	*h = append(*h, ev)
	s, i := *h, len(*h)-1
	for ; i > 0 && ev.before(&s[(i-1)/4]); i = (i - 1) / 4 {
		s[i] = s[(i-1)/4]
	}
	s[i] = ev
}

//t3d:hotpath
func (h *eventHeap) pop() event {
	s, n := *h, len(*h)-1
	top, last := s[0], s[n]
	s[n] = event{} // drop the handler reference
	s = s[:n]
	*h = s
	i := 0
	for c := 1; c < n; c = 4*i + 1 {
		m := c
		for k := c + 1; k < c+4 && k < n; k++ {
			if s[k].before(&s[m]) {
				m = k
			}
		}
		if !s[m].before(&last) {
			break
		}
		s[i], i = s[m], m
	}
	if n > 0 {
		s[i] = last
	}
	return top
}

// Engine is a discrete-event simulator; create one with NewEngine.
type Engine struct {
	now    Time
	seq    uint64
	events eventHeap

	procs   []*Proc
	running bool
	tracer  Tracer

	// Watchdog state (SetWatchdog).
	wdInterval Time
	wdStalls   int
	wdProbe    func() int64
	wdNext     Time
	wdLast     int64
	wdCount    int

	// Cancel-poll state (SetCancelPoll).
	cancelPoll  func() error
	cancelEvery int
	cancelCount int

	// Limit guards against runaway simulations; 0 means no limit.
	// Exceeding it surfaces as a *LimitError from RunErr (a panic from
	// Run), so hosting layers can budget simulated cycles per run.
	Limit Time

	// processed counts events popped across all runs — the engine's unit
	// of host work, reported by Events for throughput accounting.
	processed int64
}

// NewEngine returns an engine with time zero and no pending events.
func NewEngine() *Engine { return &Engine{} }

// Now reports the current simulated time in cycles.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at the given absolute time, which must not be in
// the past. fn runs inline in the engine loop and must not block.
//
//t3d:hotpath
func (e *Engine) At(t Time, fn func()) { e.AtCall(t, funcHandler(fn), 0, 0) }

// After schedules fn to run d cycles from now.
//
//t3d:hotpath
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

// AtCall schedules h.Handle(op, arg) at the given absolute time, which
// must not be in the past. It is At without a closure: the event is
// stored by value and takes the same sequence number At would, so the
// two forms interleave in exactly the same order.
//
//t3d:hotpath
func (e *Engine) AtCall(t Time, h Handler, op uint32, arg uint64) {
	if t < e.now {
		//lint:allow hotalloc misuse-panic path only; the steady-state schedule never formats
		panic(fmt.Sprintf("sim: At(%d) is in the past (now=%d)", t, e.now))
	}
	e.seq++
	e.events.push(event{at: t, seq: e.seq, h: h, op: op, arg: arg})
}

// scheduleEpoch arranges for p to resume at time t, tagged with the wakeup
// generation so stale events are skipped.
//
//t3d:hotpath
func (e *Engine) scheduleEpoch(p *Proc, t Time, epoch uint64) {
	e.seq++
	e.events.push(event{at: t, seq: e.seq, h: wakeup{p}, arg: epoch})
}

// wake resumes p for wakeup generation epoch unless the wakeup is stale,
// and returns a *ProcFailure if p's body panicked with an error value.
func (e *Engine) wake(p *Proc, epoch uint64) error {
	if p.state == procDone || p.state == procRunning || epoch != p.epoch {
		return nil // stale wakeup (finished proc or superseded event)
	}
	p.state = procRunning
	p.epoch++ // invalidate any sibling wakeups for the old park
	if r := p.resume(); r != nil {
		if err, ok := r.(error); ok {
			return &ProcFailure{Proc: p.name, Err: err}
		}
		panic(fmt.Sprintf("sim: proc %q panicked: %v", p.name, r))
	}
	return nil
}

// SpawnDaemon is like Spawn, but the proc is exempt from deadlock
// detection: it is expected to idle forever (device drain loops, pollers).
func (e *Engine) SpawnDaemon(name string, body func(p *Proc)) *Proc {
	p := e.Spawn(name, body)
	p.daemon = true
	return p
}

// BlockedProc is one entry of a deadlock diagnostic: a proc that can
// never resume, the signal it is parked on, and when it parked.
type BlockedProc struct {
	Name    string
	Waiting string // name of the signal the proc is blocked on
	Since   Time   // simulated time at which it blocked
}

// DeadlockError reports that the event queue drained while non-daemon
// procs were still parked on signals that can never fire. The dump lists
// every stuck proc with its wait reason and blocked-at time, so the
// failure is actionable instead of a bare proc-name list.
type DeadlockError struct {
	Now     Time
	Blocked []BlockedProc
}

func (d *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: deadlock at t=%d — no events pending but %d proc(s) blocked:", d.Now, len(d.Blocked))
	for _, p := range d.Blocked {
		fmt.Fprintf(&b, "\n  %s: blocked on %q since t=%d (for %d cycles)",
			p.Name, p.Waiting, p.Since, d.Now-p.Since)
	}
	return b.String()
}

// LivelockError reports that the watchdog's progress probe stopped
// advancing while events kept firing — the signature of a retransmit
// storm or polling loop that will never converge.
type LivelockError struct {
	Now      Time
	Progress int64 // the stuck probe value
	Interval Time  // watchdog sampling interval
	Checks   int   // consecutive samples with no progress
}

func (l *LivelockError) Error() string {
	return fmt.Sprintf("sim: livelock at t=%d — progress probe stuck at %d for %d consecutive checks (%d cycles)",
		l.Now, l.Progress, l.Checks, Time(l.Checks)*l.Interval)
}

// ProcFailure reports that a proc body panicked with an error value —
// the convention for simulated hardware faults that abort a run (for
// example a partitioned torus). RunErr returns it instead of panicking,
// so callers can errors.Is/As into the underlying cause. Procs that
// panic with a non-error value still crash the run: that is a bug, not
// a modeled failure.
type ProcFailure struct {
	Proc string // name of the failed proc
	Err  error  // the error the proc panicked with
}

func (f *ProcFailure) Error() string {
	return fmt.Sprintf("sim: proc %q failed: %v", f.Proc, f.Err)
}

func (f *ProcFailure) Unwrap() error { return f.Err }

// LimitError reports that the engine's cycle Limit was reached: the
// next event lay beyond the budget. The simulation state is intact up
// to Now, but the run did not finish — hosting layers treat this as a
// per-run simulated-cycle deadline.
type LimitError struct {
	Limit Time // the armed budget
	At    Time // scheduled time of the event that crossed it
}

func (l *LimitError) Error() string {
	return fmt.Sprintf("sim: time limit %d exceeded (next event at t=%d)", l.Limit, l.At)
}

// SetCancelPoll installs a host-side escape hatch: every `every`
// processed events the engine calls poll, and a non-nil return aborts
// the run with that error from RunErr. This is the only sanctioned way
// for wall-clock concerns (job deadlines, client disconnects, process
// drain) to reach into a run: the poll runs on the engine goroutine at
// deterministic points, never mutates simulation state, and an unarmed
// engine is bit-identical to one polling a closure that returns nil.
// Pass a nil poll to disarm. After an aborted run the machine is dead;
// call Shutdown to reap its proc goroutines.
func (e *Engine) SetCancelPoll(every int, poll func() error) {
	if poll != nil && every <= 0 {
		panic("sim: cancel poll needs a positive event interval")
	}
	e.cancelPoll, e.cancelEvery, e.cancelCount = poll, every, 0
}

// SetWatchdog installs a quiescence watchdog: every interval cycles the
// engine samples progress(); if the value is unchanged for stalls
// consecutive samples while events are still firing, the run fails with
// a LivelockError. Pass a nil probe to disable. The probe must be cheap
// and side-effect free; it runs inline in the event loop.
func (e *Engine) SetWatchdog(interval Time, stalls int, progress func() int64) {
	if progress != nil && (interval <= 0 || stalls <= 0) {
		panic("sim: watchdog needs a positive interval and stall count")
	}
	e.wdInterval, e.wdStalls, e.wdProbe = interval, stalls, progress
	e.wdNext = e.now + interval
	e.wdCount = 0
	if progress != nil {
		e.wdLast = progress()
	}
}

// Run processes events until the queue is empty or the optional Limit is
// reached. It returns the final simulated time. Run panics if, at the end,
// some proc is still blocked on a signal that can never fire (deadlock),
// if the watchdog detects livelock, or if any proc body panicked. RunErr
// is the variant that surfaces deadlock and livelock as errors.
func (e *Engine) Run() Time {
	t, err := e.RunErr()
	if err != nil {
		panic(err.Error())
	}
	return t
}

// RunErr is Run with structured failure reporting: deadlock and livelock
// are returned as *DeadlockError / *LivelockError, and a proc that panics
// with an error value is returned as a *ProcFailure, instead of
// panicking — so callers can inspect the failure programmatically.
func (e *Engine) RunErr() (Time, error) {
	if e.running {
		panic("sim: Engine.Run called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()

	for len(e.events) > 0 {
		if e.cancelPoll != nil {
			e.cancelCount++
			if e.cancelCount >= e.cancelEvery {
				e.cancelCount = 0
				if err := e.cancelPoll(); err != nil {
					return e.now, err
				}
			}
		}
		ev := e.events.pop()
		e.processed++
		if e.Limit > 0 && ev.at > e.Limit {
			return e.now, &LimitError{Limit: e.Limit, At: ev.at}
		}
		if ev.at < e.now {
			panic("sim: event in the past")
		}
		e.now = ev.at
		if e.wdProbe != nil && e.now >= e.wdNext {
			for e.now >= e.wdNext {
				e.wdNext += e.wdInterval
			}
			if v := e.wdProbe(); v == e.wdLast {
				e.wdCount++
				if e.wdCount >= e.wdStalls {
					return e.now, &LivelockError{Now: e.now, Progress: v,
						Interval: e.wdInterval, Checks: e.wdCount}
				}
			} else {
				e.wdLast, e.wdCount = v, 0
			}
		}
		if w, ok := ev.h.(wakeup); ok {
			if err := e.wake(w.p, ev.arg); err != nil {
				return e.now, err
			}
			continue
		}
		ev.h.Handle(ev.op, ev.arg)
	}

	var stuck []BlockedProc
	for _, p := range e.procs {
		if p.state == procBlocked && !p.daemon {
			stuck = append(stuck, BlockedProc{Name: p.name, Waiting: p.waitLabel, Since: p.blockedSince})
		}
	}
	if len(stuck) > 0 {
		sort.Slice(stuck, func(i, j int) bool { return stuck[i].Name < stuck[j].Name })
		return e.now, &DeadlockError{Now: e.now, Blocked: stuck}
	}
	return e.now, nil
}

// Idle reports whether the engine has no pending events.
func (e *Engine) Idle() bool { return len(e.events) == 0 }

// Events reports how many events the engine has processed across all
// runs: the host-side unit of simulation work (perfbench's
// sim.ns_per_event is host time per event).
func (e *Engine) Events() int64 { return e.processed }
