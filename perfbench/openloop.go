package main

import (
	"context"
	"time"

	"aod/internal/load"
)

// openLoop sends the i-th operation when it is due (start + offsets[i]) with
// the repository's open-loop scheduler, load.RunOpenLoop: independent
// users, not callers waiting on each other. send runs the operation and
// measures its latency from due, so a stall delays the clock of every
// operation behind it. openLoop returns, once every operation has finished,
// how late each one started: the time from its due time to the moment its
// goroutine read the clock.
func openLoop(clk load.Clock, offsets []time.Duration, send func(i int, due time.Time)) []time.Duration {
	late := make([]time.Duration, len(offsets))
	start := clk.Now()
	_, wg := load.RunOpenLoop(context.Background(), clk, offsets, func(i int) {
		due := start.Add(offsets[i])
		late[i] = max(0, clk.Now().Sub(due))
		send(i, due)
	})
	wg.Wait()
	return late
}
