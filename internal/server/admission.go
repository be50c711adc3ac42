package server

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"time"

	"kwsdbg/internal/obs"
	"kwsdbg/internal/obs/flight"
)

// Admission control: the expensive endpoints (/debug, /search — both bottom
// out in Phase 3 probing) pass through a semaphore bounded by
// Server.MaxInflight. A request that cannot take a slot waits up to
// Server.AdmissionWait and is then shed with 429 and a Retry-After header —
// under the ROADMAP's "millions of users" north star, one pathological query
// must degrade into a fast, explicit rejection for the requests behind it,
// not an unbounded queue. Cheap endpoints (/healthz, /metrics) bypass
// admission entirely so operators can observe an overloaded server.
var (
	mShed = obs.Default.Counter("kwsdbg_shed_total",
		"Requests rejected with 429 because every admission slot stayed occupied for the full bounded wait.")
	mInflight = obs.Default.Gauge("kwsdbg_inflight",
		"Requests currently holding an admission slot.")
	mBudgetExhausted = obs.Default.CounterVec("kwsdbg_probe_budget_exhausted_total",
		"Debug responses returned incomplete because a per-request allowance ran out, by reason.", "reason")
)

// DefaultAdmissionWait bounds how long an over-limit request queues for a
// slot when Server.AdmissionWait is zero.
const DefaultAdmissionWait = 100 * time.Millisecond

// admit reserves an admission slot, waiting at most AdmissionWait for one to
// free up. It returns a release func and true on success, or false when the
// request should be shed. With MaxInflight <= 0 admission is unlimited.
func (s *Server) admit(ctx context.Context) (func(), bool) {
	s.semOnce.Do(func() {
		if s.MaxInflight > 0 {
			s.sem = make(chan struct{}, s.MaxInflight)
		}
	})
	if s.sem == nil {
		return func() {}, true
	}
	select {
	case s.sem <- struct{}{}:
	default:
		wait := s.AdmissionWait
		if wait <= 0 {
			wait = DefaultAdmissionWait
		}
		t := time.NewTimer(wait)
		defer t.Stop()
		select {
		case s.sem <- struct{}{}:
		case <-t.C:
			return nil, false
		case <-ctx.Done():
			return nil, false
		}
	}
	mInflight.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			mInflight.Add(-1)
			<-s.sem
		})
	}, true
}

// shed rejects an unadmitted request: 429 with a Retry-After hint sized to
// the bounded wait, so well-behaved clients back off instead of hammering.
// The rejection lands in the flight ring too, so /debug/flight shows shed
// requests interleaved with the probe traffic that crowded them out.
func (s *Server) shed(w http.ResponseWriter, r *http.Request) {
	mShed.Inc()
	if s.Recorder != nil {
		fl := flight.NewLog(s.Recorder, obs.RequestID(r.Context()), false)
		fl.Emit(flight.Shed, -1, "", false, 0, "capacity")
		fl.Flush()
	}
	retry := s.AdmissionWait
	if retry <= 0 {
		retry = DefaultAdmissionWait
	}
	secs := int(retry / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	s.writeJSON(w, http.StatusTooManyRequests,
		map[string]string{"error": "server at capacity; retry after the indicated delay"})
}
