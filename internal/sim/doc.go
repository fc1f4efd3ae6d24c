// Package sim provides a deterministic discrete-event simulation kernel.
//
// Time is measured in integer cycles. An Engine owns an event queue and a
// set of Procs (simulated threads of control): coroutines that run one at
// a time under strict handoff with the engine, so simulations are fully
// deterministic: events at equal times fire in scheduling order.
//
// A Proc advances its own time with Wait and WaitUntil, blocks on a Signal
// with WaitSignal, and may spawn further procs. Plain callbacks can be
// scheduled with Engine.At; they run inline in the engine loop and must not
// block.
//
// The kernel is intentionally small: everything machine-specific (caches,
// DRAM banks, networks, the T3D shell) is built on top of it in sibling
// packages.
package sim
