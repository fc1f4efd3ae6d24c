//go:build go1.23

package sim

import (
	"iter"
	"runtime"
)

// Spawn creates a proc named name running body. The proc starts when the
// engine reaches the current time in its event loop (immediately if the
// engine is already running). Spawn may be called before Run or from
// within a running proc.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, state: procReady, epoch: 1}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		defer func() { p.state = procDone }() // returned, panicked or reaped
		p.yield = yield
		body(p)
	})
	e.procs = append(e.procs, p)
	e.scheduleEpoch(p, e.now, p.epoch)
	return p
}

// resume runs p until it parks or its body ends, and returns the value
// of a panic that escaped the body (nil if none).
func (p *Proc) resume() (failure any) {
	defer func() { failure = recover() }()
	p.next()
	return nil
}

// park hands control back to the engine and blocks until resumed.
func (p *Proc) park(st procState) {
	p.state = st
	if !p.yield(struct{}{}) {
		// Engine.Shutdown is reaping this proc: terminate the coroutine,
		// running deferred cleanups on the way out. Goexit (not a panic)
		// so no recover in user code can intercept the teardown.
		runtime.Goexit()
	}
}

// Shutdown reaps every live proc of a stopped engine, so a run that ended
// early (cancel poll, Limit, proc failure, deadlock) leaks no goroutines:
// each parked proc unwinds via runtime.Goexit, running its deferred
// cleanups. The engine is unusable afterwards. Shutdown is idempotent,
// safe on a cleanly finished engine, and must not be called during Run.
func (e *Engine) Shutdown() {
	if e.running {
		panic("sim: Shutdown called during Run")
	}
	for _, p := range e.procs {
		if p.state == procDone {
			continue
		}
		// stop re-raises the proc's Goexit in its caller, so it runs on
		// a helper goroutine; a teardown panic dies with the proc.
		reaped := make(chan struct{})
		go func() {
			defer func() {
				recover()
				close(reaped)
			}()
			p.stop()
		}()
		<-reaped
		p.state = procDone
	}
	e.procs = nil
	e.events = nil
}
