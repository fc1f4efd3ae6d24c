package sim

import (
	"errors"
	"fmt"
)

type procState int

const (
	procReady   procState = iota // has a scheduled wakeup event
	procRunning                  // currently executing
	procBlocked                  // parked on a Signal, no scheduled event
	procDone                     // body returned
)

// Proc is a simulated thread of control: a coroutine the engine resumes
// with next and that hands control back through yield. Procs run one at
// a time; all methods must be called from the proc's own body.
type Proc struct {
	eng   *Engine
	name  string
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	state procState

	// epoch distinguishes wakeup generations: any event scheduled for an
	// earlier park is stale and skipped by the engine.
	epoch       uint64
	sigFired    bool
	daemon      bool
	interrupted bool

	// Deadlock diagnostics: what the proc is blocked on and since when
	// (meaningful only while state == procBlocked).
	waitLabel    string
	blockedSince Time

	// deadline is the absolute cycle by which deadline-aware blocking
	// operations must complete (0 = none armed). Expiry panics with a
	// *DeadlineError (an error value), which sim.Engine.RunErr converts
	// into a *ProcFailure and higher layers (splitc.Ctx.WithDeadline)
	// recover into an ordinary error return.
	deadline Time
}

// ErrDeadline reports that a deadline-aware operation ran out of
// simulated time. It is a per-operation, transient condition — unlike
// net.ErrPartitioned, retrying with a larger budget may succeed — so
// callers should degrade (drop, defer, serve stale) rather than treat
// the peer as gone.
var ErrDeadline = errors.New("sim: deadline exceeded")

// DeadlineError is the concrete expiry failure: which proc, what it was
// doing, and by how much the deadline was missed. It unwraps to
// ErrDeadline so errors.Is works across layers.
type DeadlineError struct {
	Proc     string // name of the proc whose deadline expired
	Op       string // the blocking operation that was cut short
	Deadline Time   // the armed absolute deadline
	Now      Time   // simulated time at expiry
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("sim: proc %q deadline exceeded during %s (deadline t=%d, now t=%d)",
		e.Proc, e.Op, e.Deadline, e.Now)
}

func (e *DeadlineError) Unwrap() error { return ErrDeadline }

// SetDeadline arms (or, with 0, clears) the proc's absolute deadline.
// Deadline-aware waits — WaitSignalDeadline, AwaitDeadline, and the
// explicit CheckDeadline calls in polling loops — panic with a
// *DeadlineError once the deadline passes. Pure time waits (Wait,
// WaitUntil) are unaffected: local work always completes.
func (p *Proc) SetDeadline(t Time) { p.deadline = t }

// Deadline returns the armed absolute deadline (0 = none).
func (p *Proc) Deadline() Time { return p.deadline }

// CheckDeadline panics with a *DeadlineError if a deadline is armed and
// has passed. Polling loops that advance time between iterations (write
// completion, credit waits) call it once per iteration.
//
//t3d:hotpath
func (p *Proc) CheckDeadline(op string) {
	if p.deadline != 0 && p.eng.now >= p.deadline {
		//lint:allow hotalloc deadline-expiry failure path; the in-budget check is branch-only
		panic(&DeadlineError{Proc: p.name, Op: op, Deadline: p.deadline, Now: p.eng.now})
	}
}

// WaitSignalDeadline blocks until s fires, like WaitSignal, but if the
// proc's deadline passes first it panics with a *DeadlineError. With no
// deadline armed it is exactly WaitSignal. The abandoned wakeup is
// harmless: a signal fire with no waiters is a no-op.
//
//t3d:hotpath
func (p *Proc) WaitSignalDeadline(s *Signal, op string) {
	if p.deadline == 0 {
		p.WaitSignal(s)
		return
	}
	for {
		p.CheckDeadline(op)
		if p.WaitSignalTimeout(s, p.deadline-p.eng.now) {
			return
		}
	}
}

// AwaitDeadline blocks p until cond() holds, re-testing each time s
// fires, and panics with a *DeadlineError if the proc's deadline passes
// first. It is the deadline-aware Await.
func AwaitDeadline(p *Proc, s *Signal, op string, cond func() bool) {
	for !cond() {
		p.WaitSignalDeadline(s, op)
	}
}

// Name returns the proc's name (used in deadlock reports).
func (p *Proc) Name() string { return p.name }

// Now reports the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// Wait advances the proc's time by d cycles.
//
//t3d:hotpath
func (p *Proc) Wait(d Time) {
	if d < 0 {
		//lint:allow hotalloc negative-duration misuse panic; a valid wait never formats
		panic(fmt.Sprintf("sim: Wait(%d) negative", d))
	}
	if d == 0 {
		return
	}
	e, t := p.eng, p.eng.now+d
	// Inline advance: during Run, with nothing else due by t the loop would
	// pop this wakeup next, so do its bookkeeping here. A due cancel poll,
	// a crossed Limit or a due watchdog sample takes the scheduled path.
	if e.running && (len(e.events) == 0 || e.events[0].at > t) &&
		(e.cancelPoll == nil || e.cancelCount+1 < e.cancelEvery) &&
		(e.Limit <= 0 || t <= e.Limit) && (e.wdProbe == nil || t < e.wdNext) {
		e.cancelCount++ // harmless unarmed: SetCancelPoll resets it
		e.seq++
		e.processed++
		p.epoch += 2 // the park's and the resume's generations
		e.now = t
		return
	}
	p.epoch++
	e.scheduleEpoch(p, t, p.epoch)
	p.park(procReady)
}

// WaitUntil blocks the proc until absolute time t. If t is not after the
// current time it returns immediately.
func (p *Proc) WaitUntil(t Time) {
	if d := t - p.eng.now; d > 0 {
		p.Wait(d)
	}
}

// Yield reschedules the proc at the current time, letting other
// equal-time events run first.
func (p *Proc) Yield() {
	p.epoch++
	p.eng.scheduleEpoch(p, p.eng.now, p.epoch)
	p.park(procReady)
}

// WaitSignal blocks until s fires.
func (p *Proc) WaitSignal(s *Signal) { p.block(s, 0) }

// WaitSignalTimeout blocks until s fires or d cycles elapse. It reports
// whether the signal fired (as opposed to the timeout expiring).
func (p *Proc) WaitSignalTimeout(s *Signal, d Time) bool {
	if d <= 0 {
		p.checkInterrupt()
		return false
	}
	return p.block(s, d)
}

// block parks p on s, with a timeout d cycles out if d > 0, and reports
// whether s fired.
//
//t3d:hotpath
func (p *Proc) block(s *Signal, d Time) bool {
	p.checkInterrupt()
	p.epoch++
	p.sigFired = false
	p.waitLabel, p.blockedSince = s.name, p.eng.now
	//lint:allow hotalloc one waiter record per block; the per-signal slice is reused across fires, so the append is an amortized slot store
	s.waiters = append(s.waiters, waiter{p, p.epoch})
	if d > 0 {
		p.eng.scheduleEpoch(p, p.eng.now+d, p.epoch)
	}
	p.park(procBlocked)
	p.checkInterrupt()
	return p.sigFired
}

// InterruptSignal is the panic value a signal wait raises after the proc
// has been interrupted with Interrupt. It deliberately does not implement
// error: an interrupt that escapes its recovery driver is a program bug
// and should crash the run loudly, not surface as a recoverable failure.
type InterruptSignal struct {
	Proc string // name of the interrupted proc
}

//t3d:hotpath
func (p *Proc) checkInterrupt() {
	if p.interrupted {
		panic(InterruptSignal{Proc: p.name})
	}
}

// Interrupt marks the proc for asynchronous abort: if it is blocked on a
// signal it is woken immediately, and its next (or current) WaitSignal /
// WaitSignalTimeout panics with InterruptSignal{}. Pure time waits are
// unaffected, so hardware-drain loops still quiesce normally. Interrupt
// is safe to call from event context; it is a no-op on a done proc. The
// rollback machinery in higher layers recovers the panic — procs that are
// not part of a recovery domain should never be interrupted.
func (p *Proc) Interrupt() {
	if p.state == procDone {
		return
	}
	p.interrupted = true
	if p.state == procBlocked {
		p.sigFired = false
		p.state = procReady
		p.eng.scheduleEpoch(p, p.eng.now, p.epoch)
	}
}

// ClearInterrupt re-arms the proc after an interrupt has been recovered.
func (p *Proc) ClearInterrupt() { p.interrupted = false }

// Interrupted reports whether an interrupt is pending on the proc.
func (p *Proc) Interrupted() bool { return p.interrupted }

// Signal is a broadcast wakeup point: any number of procs may block on it
// and are all released when it fires. Signals carry no state; a fire with
// no waiters is a no-op (use a separate flag for level-sensitive waits).
type Signal struct {
	name    string
	waiters []waiter
}

type waiter struct {
	proc  *Proc
	epoch uint64
}

// NewSignal returns a named signal. The zero Signal is an unnamed signal
// ready to use, so a table of transactions can embed one per slot.
func NewSignal(name string) *Signal { return &Signal{name: name} }

// SetName names the signal in deadlock reports.
func (s *Signal) SetName(name string) { s.name = name }

// Fire wakes all procs currently blocked on the signal. The wakeups are
// scheduled at the current time and run in blocking order.
func (s *Signal) Fire(e *Engine) {
	for _, w := range s.waiters {
		if w.proc.epoch != w.epoch || w.proc.state != procBlocked {
			continue // stale: proc already resumed some other way
		}
		w.proc.sigFired = true
		w.proc.state = procReady
		e.scheduleEpoch(w.proc, e.now, w.epoch)
	}
	s.waiters = s.waiters[:0]
}

// Await blocks p until cond() is true, re-testing each time s fires.
// It tests once before blocking, so a condition that already holds
// returns immediately.
func Await(p *Proc, s *Signal, cond func() bool) {
	for !cond() {
		p.WaitSignal(s)
	}
}
