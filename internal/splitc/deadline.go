package splitc

// This file is the user-visible face of cycle deadlines: WithDeadline
// bounds any block of split-phase work to a simulated-cycle budget and
// converts the *sim.DeadlineError panic that a timed-out blocking wait
// raises (remote reads, write-completion polls, prefetch pops, BLT and
// active-message ack waits) back into an ordinary error return. The
// partition check in every shell transaction runs before any blocking
// wait, so a destination that is actually unreachable still surfaces as
// net.ErrPartitioned — ErrDeadline means the fabric was merely too slow
// for the budget, and retrying with a larger one may succeed.

import (
	"repro/internal/sim"
)

// ErrDeadline is sim.ErrDeadline re-exported so programs can write
// errors.Is(err, splitc.ErrDeadline) without importing the simulator
// core.
var ErrDeadline = sim.ErrDeadline

// WithDeadline runs fn with the calling proc's deadline set budget
// cycles from now and returns nil if fn completes in time, or the
// *sim.DeadlineError (unwrapping to ErrDeadline) that cut it short.
// Nested calls never extend an enclosing deadline: the effective
// deadline is the nearer of the two, and the outer one is restored on
// return. Failures other than deadline expiry — partitions, delivery
// exhaustion — propagate unchanged.
//
// On expiry the current operation unwinds mid-flight, but all layered
// state stays consistent: undrained gets remain matched to the shell's
// prefetch FIFO, unacknowledged writes remain covered by the shell
// status bit, and unacked reliable messages remain queued for
// retransmission. A later Sync or Flush under a fresh (or no) budget
// finishes the abandoned work.
func (c *Ctx) WithDeadline(budget sim.Time, fn func()) (err error) {
	if budget <= 0 {
		return &sim.DeadlineError{Proc: c.P.Name(), Op: "zero budget", Deadline: c.P.Now(), Now: c.P.Now()}
	}
	prev := c.P.Deadline()
	deadline := c.P.Now() + budget
	if prev != 0 && prev < deadline {
		deadline = prev
	}
	c.P.SetDeadline(deadline)
	defer func() {
		c.P.SetDeadline(prev)
		if r := recover(); r != nil {
			de, ok := r.(*sim.DeadlineError)
			if !ok {
				panic(r)
			}
			err = de
		}
	}()
	fn()
	return nil
}

// ReadWithin is a blocking remote read bounded by a cycle budget: the
// deadline-bounded form of Read. On ErrDeadline the returned value is
// meaningless and the read's response, if it ever arrives, is discarded.
func (c *Ctx) ReadWithin(g GlobalPtr, budget sim.Time) (uint64, error) {
	var v uint64
	err := c.WithDeadline(budget, func() { v = c.Read(g) })
	return v, err
}

// SyncWithin bounds Sync to a cycle budget: the caller learns whether
// all outstanding split-phase traffic settled in time, and on
// ErrDeadline may keep computing and retry the Sync later.
func (c *Ctx) SyncWithin(budget sim.Time) error {
	return c.WithDeadline(budget, func() { c.Sync() })
}
