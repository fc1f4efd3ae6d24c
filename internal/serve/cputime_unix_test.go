//go:build unix

package serve

import (
	"syscall"
	"time"
)

// processCPU returns the user plus system CPU time this process has
// used so far. Unlike wall time it does not advance while other
// processes hold the machine's CPUs.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
