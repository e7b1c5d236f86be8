package service

import (
	"aod"
)

// StreamEvent is one event of a job's progress stream (one NDJSON line of
// GET /jobs/{id}/stream). While the job runs, "level" events carry the
// per-level progress and the cumulative partial report; the stream ends with
// a single "done" event carrying the terminal state (and, for a completed
// job, the final report).
type StreamEvent struct {
	Type     string        `json:"type"` // "level" | "done"
	JobID    string        `json:"jobId"`
	State    JobState      `json:"state"`
	Progress *aod.Progress `json:"progress,omitempty"`
	// Report is the partial report on a "level" event, the final report on
	// the "done" event of a successfully completed job.
	Report *aod.Report `json:"report,omitempty"`
	Error  string      `json:"error,omitempty"`
}

// streamBuffer is each subscriber's channel capacity. Publishes never block
// discovery: a subscriber that falls behind skips intermediate levels —
// harmless, because every event is cumulative.
const streamBuffer = 16

// Stream subscribes to the job's progress: the returned channel delivers one
// StreamEvent per completed lattice level and is closed when the job reaches
// a terminal state (the subscriber then reads the final state via Job). A
// job that is already terminal yields an immediately closed channel. The
// returned cancel function detaches the subscriber (idempotent, safe after
// close); callers must invoke it to avoid leaking the subscription when
// abandoning the stream early.
//
// Jobs served without a validation run of their own — result-cache hits and
// waiters parked on an identical in-flight run — produce no level events:
// their stream just closes when the result lands.
func (s *Service) Stream(id string) (<-chan StreamEvent, func(), error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, nil, errNoJobf(id)
	}
	ch := make(chan StreamEvent, streamBuffer)
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		close(ch)
		return ch, func() {}, nil
	}
	// A late subscriber first sees the latest level already published, so it
	// never starts blind on a long-running job.
	if j.partial != nil {
		ch <- j.levelEventLocked()
	}
	j.subs = append(j.subs, ch)
	j.mu.Unlock()
	cancel := func() {
		j.mu.Lock()
		for i, sub := range j.subs {
			if sub == ch {
				j.subs = append(j.subs[:i], j.subs[i+1:]...)
				break
			}
		}
		j.mu.Unlock()
	}
	return ch, cancel, nil
}

// levelEventLocked builds the "level" event for the job's latest published
// snapshot. Caller holds j.mu and has checked j.partial != nil.
func (j *Job) levelEventLocked() StreamEvent {
	return StreamEvent{
		Type:     "level",
		JobID:    j.id,
		State:    j.state,
		Progress: j.progress,
		Report:   j.partial,
	}
}

// publishProgress records one completed level — refreshing the partial
// report, the progress, and the scheduler's remaining-cost estimate — and
// fans the event out to subscribers. Sends never block (see streamBuffer).
// Called from the discovery run's sink; a job canceled in the meantime stops
// publishing (its partials would be discarded anyway).
func (j *Job) publishProgress(p aod.Progress, partial *aod.Report) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobRunning {
		return
	}
	j.progress = &p
	j.partial = partial
	j.cost = p.EstimatedRemaining
	ev := j.levelEventLocked()
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default: // slow subscriber: skip this level, the next event catches up
		}
	}
}

// closeSubsLocked ends every subscriber's stream; called (under j.mu) at
// each transition into a terminal state. Closing the channel — rather than
// sending a terminal event — is what makes the contract race-free: the
// subscriber reads the authoritative final state afterwards. It also drops
// the last level snapshot, which neither view nor Stream reads once the job
// is terminal, so a finished job in the history does not keep it alive.
func (j *Job) closeSubsLocked() {
	for _, ch := range j.subs {
		close(ch)
	}
	j.subs = nil
	j.partial, j.progress = nil, nil
}
