package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// These tests pin the inline time advance in Proc.Wait: when nothing
// else is due by now+d, Wait moves the clock itself instead of switching
// to the event loop. Every observable — event order, Events(), cancel
// polls, Limit, watchdog samples, failures — must be exactly what the
// scheduled path produces.

// TestInlineAdvanceTieRunsQueuedEventFirst: an event already queued at
// exactly now+d was scheduled first, so it must run before the waiter.
func TestInlineAdvanceTieRunsQueuedEventFirst(t *testing.T) {
	e := NewEngine()
	var log []string
	note := func(s string) { log = append(log, fmt.Sprintf("%s@%d", s, e.Now())) }
	e.Spawn("p", func(p *Proc) {
		e.At(5, func() { note("tie") })
		p.Wait(5) // tie at 5: scheduled path
		note("p")
		e.At(11, func() { note("later") })
		p.Wait(5) // next event at 11 > 10: inline
		note("p")
	})
	end := e.Run()
	want := []string{"tie@5", "p@5", "p@10", "later@11"}
	if !reflect.DeepEqual(log, want) || end != 11 {
		t.Fatalf("log = %v end = %d, want %v end = 11", log, end, want)
	}
	if got := e.Events(); got != 5 {
		t.Errorf("Events() = %d, want 5", got)
	}
}

// pollTrace runs a 5-step ticker under SetCancelPoll(every) and records
// (Events, Now) at every poll.
func pollTrace(every int) (polls [][2]int64, events int64) {
	e := NewEngine()
	e.SetCancelPoll(every, func() error {
		polls = append(polls, [2]int64{e.Events(), e.Now()})
		return nil
	})
	e.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Wait(3)
		}
	})
	e.Run()
	return polls, e.Events()
}

// TestInlineAdvanceCancelPollCounts: a due poll forces the scheduled
// path, so polls fire on exactly the same event counts as always.
func TestInlineAdvanceCancelPollCounts(t *testing.T) {
	cases := []struct {
		every int
		want  [][2]int64
	}{
		{1, [][2]int64{{0, 0}, {1, 0}, {2, 3}, {3, 6}, {4, 9}, {5, 12}}},
		{3, [][2]int64{{2, 3}, {5, 12}}},
		{7, nil},
	}
	for _, tc := range cases {
		polls, events := pollTrace(tc.every)
		if !reflect.DeepEqual(polls, tc.want) || events != 6 {
			t.Errorf("every=%d: polls %v events %d, want %v events 6", tc.every, polls, events, tc.want)
		}
	}
}

// TestInlineAdvanceLimitBoundary: a wait landing exactly on Limit runs;
// one cycle past it stops with the same *LimitError as always.
func TestInlineAdvanceLimitBoundary(t *testing.T) {
	run := func(limit Time) (Time, error, int64) {
		e := NewEngine()
		e.Limit = limit
		e.Spawn("p", func(p *Proc) {
			p.Wait(4)
			p.Wait(6)
		})
		end, err := e.RunErr()
		e.Shutdown()
		return end, err, e.Events()
	}
	if end, err, n := run(10); err != nil || end != 10 || n != 3 {
		t.Errorf("Limit == now+d: (%d, %v, %d events), want (10, nil, 3)", end, err, n)
	}
	end, err, n := run(9)
	var le *LimitError
	if !errors.As(err, &le) || *le != (LimitError{Limit: 9, At: 10}) || end != 4 || n != 3 {
		t.Errorf("Limit == now+d-1: (%d, %v, %d events), want (4, limit 9 at 10, 3)", end, err, n)
	}
}

// TestInlineAdvanceWatchdogBoundary: a wait landing exactly on a due
// watchdog sample takes the sample, at the same time and count.
func TestInlineAdvanceWatchdogBoundary(t *testing.T) {
	e := NewEngine()
	var samples []Time
	var progress int64
	e.SetWatchdog(10, 3, func() int64 {
		samples = append(samples, e.Now())
		progress++
		return progress
	})
	e.Spawn("p", func(p *Proc) {
		p.Wait(4)
		p.Wait(6)  // lands on the sample at 10
		p.Wait(10) // lands on the sample at 20
		p.Wait(5)  // 25: no sample due
	})
	if end, err := e.RunErr(); err != nil || end != 25 {
		t.Fatalf("RunErr = (%d, %v), want (25, nil)", end, err)
	}
	if want := []Time{0, 10, 20}; !reflect.DeepEqual(samples, want) {
		t.Errorf("samples at %v, want %v", samples, want)
	}
	if got := e.Events(); got != 5 {
		t.Errorf("Events() = %d, want 5", got)
	}

	// A stuck probe trips on the same sample as always.
	e = NewEngine()
	e.SetWatchdog(10, 2, func() int64 { return 0 })
	e.Spawn("spinner", func(p *Proc) {
		for {
			p.Wait(10)
		}
	})
	end, err := e.RunErr()
	var le *LivelockError
	if !errors.As(err, &le) || le.Now != 20 || le.Checks != 2 || end != 20 || e.Events() != 3 {
		t.Errorf("livelock = (%d, %v, %d events), want (20, 2 checks at t=20, 3)", end, err, e.Events())
	}
	e.Shutdown()
}

// TestInlineAdvanceEventCounts pins Events() for a Wait-only schedule
// and for one mixing signals, timeouts, yields and callbacks.
func TestInlineAdvanceEventCounts(t *testing.T) {
	e := NewEngine()
	for i := 1; i <= 3; i++ {
		d := Time(i)
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			for j := 0; j < 10; j++ {
				p.Wait(d)
			}
		})
	}
	if end := e.Run(); end != 30 || e.Events() != 33 {
		t.Errorf("wait-only: end %d, %d events; want end 30, 33 events", end, e.Events())
	}

	e = NewEngine()
	s := NewSignal("s")
	e.Spawn("waiter", func(p *Proc) {
		p.WaitSignal(s)
		p.Wait(2)
		p.WaitSignalTimeout(s, 50)
		p.Yield()
		p.Wait(1)
	})
	e.Spawn("firer", func(p *Proc) {
		p.Wait(5)
		s.Fire(e)
		e.After(3, func() { s.Fire(e) })
		p.Wait(10)
	})
	// The timeout superseded at t=8 still pops, stale, at t=57.
	if end := e.Run(); end != 57 || e.Events() != 11 {
		t.Errorf("signal-mixed: end %d, %d events; want end 57, 11 events", end, e.Events())
	}
}

// TestInlineAdvanceProcPanics: a proc that fails after an inline advance
// reports exactly as one that failed after a scheduled wakeup.
func TestInlineAdvanceProcPanics(t *testing.T) {
	boom := errors.New("boom")
	e := NewEngine()
	e.Spawn("victim", func(p *Proc) {
		p.Wait(5) // the queue is empty: inline
		panic(boom)
	})
	end, err := e.RunErr()
	var pf *ProcFailure
	if !errors.As(err, &pf) || pf.Proc != "victim" || !errors.Is(err, boom) || end != 5 {
		t.Errorf("error panic: (%d, %v), want (5, ProcFailure victim wrapping boom)", end, err)
	}

	e = NewEngine()
	e.Spawn("buggy", func(p *Proc) {
		p.Wait(5)
		panic("not an error")
	})
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, `proc "buggy" panicked: not an error`) || e.Now() != 5 {
			t.Errorf("non-error panic: recovered %v at t=%d, want a crash naming buggy at t=5", r, e.Now())
		}
	}()
	e.Run()
	t.Error("Run returned after a non-error proc panic")
}

// randomSchedule runs a seeded mix of procs doing waits, yields, signal
// waits with timeouts, fires and callbacks, and returns the full action
// log, the end time and the event count.
func randomSchedule(seed int64, forceScheduled bool) ([]string, Time, int64) {
	e := NewEngine()
	if forceScheduled {
		// A poll due on every event makes every Wait take the scheduled
		// path; a quiet poll is otherwise invisible.
		e.SetCancelPoll(1, func() error { return nil })
	}
	var log []string
	note := func(who, what string) {
		log = append(log, fmt.Sprintf("%d %s %s", e.Now(), who, what))
	}
	s := NewSignal("s")
	procs := 2 + int(seed%3)
	for i := 0; i < procs; i++ {
		name := fmt.Sprintf("p%d", i)
		rng := rand.New(rand.NewSource(seed*31 + int64(i)))
		e.Spawn(name, func(p *Proc) {
			for step := 0; step < 40; step++ {
				switch op := rng.Intn(10); {
				case op < 5:
					p.Wait(Time(rng.Intn(6)))
					note(name, "wait")
				case op == 5:
					p.Yield()
					note(name, "yield")
				case op == 6:
					ok := p.WaitSignalTimeout(s, Time(1+rng.Intn(8)))
					note(name, fmt.Sprint("sig ", ok))
				case op == 7:
					s.Fire(e)
					note(name, "fire")
				default:
					d := Time(rng.Intn(7))
					e.After(d, func() { note(name, "callback") })
				}
			}
		})
	}
	end := e.Run()
	return log, end, e.Events()
}

// TestInlineAdvanceMatchesScheduledPath is the differential check: the
// same random schedules, with the inline advance enabled and with every
// Wait forced through the event loop, are indistinguishable.
func TestInlineAdvanceMatchesScheduledPath(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		log, end, n := randomSchedule(seed, false)
		wantLog, wantEnd, wantN := randomSchedule(seed, true)
		if !reflect.DeepEqual(log, wantLog) || end != wantEnd || n != wantN {
			t.Fatalf("seed %d: inline run (end %d, %d events) differs from scheduled run (end %d, %d events)",
				seed, end, n, wantEnd, wantN)
		}
	}
}
