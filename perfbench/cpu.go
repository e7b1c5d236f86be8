package main

import (
	"syscall"
	"time"
)

// processCPU returns the CPU time this process has used so far, user and
// system, summed over all its threads. A Linux guest built with
// CONFIG_PARAVIRT_TIME_ACCOUNTING leaves out of it the time the hypervisor
// stole from the vCPU the thread ran on, so CPU time measures the work the
// program did while wall time also measures the host's other tenants.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
