package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/span"
)

// sseRetryMillis is the reconnect delay hint sent to every SSE client.
const sseRetryMillis = 2000

// startSSE negotiates the SSE response: it fails with 500 if the writer
// cannot stream, otherwise sets the stream headers and returns the flusher.
func startSSE(w http.ResponseWriter) (http.Flusher, bool) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, errf(http.StatusInternalServerError, CodeInternal,
			"response writer does not support streaming"))
		return nil, false
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream; charset=utf-8")
	h.Set("Cache-Control", "no-store")
	h.Set("X-Accel-Buffering", "no") // proxies must not buffer the stream
	fmt.Fprintf(w, "retry: %d\n\n", sseRetryMillis)
	fl.Flush()
	return fl, true
}

// writeSSE frames one StreamEvent: the broker sequence number becomes the SSE
// id (clients spot drop-policy gaps by jumps), the kind the event name.
func writeSSE(w http.ResponseWriter, fl http.Flusher, ev obs.StreamEvent) error {
	b, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", ev.Kind, ev.Seq, b); err != nil {
		return err
	}
	fl.Flush()
	return nil
}

// handleJobEvents is GET /v1/jobs/{id}/events: a live SSE stream of one job's
// progress and clock telemetry. The stream opens with a job_status snapshot
// (so a client connecting late still learns the current counts), then pushes
// job_progress / clock_edge / phase_change / alert events as they happen, and
// ends with job_done. Slow consumers lose events rather than stalling the
// simulation; the subscriber's drop count rides along on job_done.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.jobs.get(id)
	if !ok {
		writeError(w, errf(http.StatusNotFound, CodeNotFound, "unknown job %q", id))
		return
	}
	fl, ok := startSSE(w)
	if !ok {
		return
	}
	sub := s.broker.Subscribe(s.cfg.EventBuffer, func(ev obs.StreamEvent) bool {
		return ev.Job == id
	})
	defer sub.Close()

	// Snapshot first: everything the client missed before subscribing.
	st := j.status(false)
	snap := obs.StreamEvent{Kind: "job_status", Job: id, Time: time.Now(), Data: map[string]any{
		"state": st.State, "completed": st.Completed, "failed": st.Failed, "total": st.Total,
	}}
	if err := writeSSE(w, fl, snap); err != nil {
		return
	}
	if st.terminal() {
		// Already finished: the snapshot is the whole story. Queued jobs are
		// live — their stream stays open for the progress to come.
		s.endSSE(w, fl, id, sub)
		return
	}

	for {
		select {
		case ev := <-sub.C:
			if err := writeSSE(w, fl, ev); err != nil {
				return
			}
			if ev.Kind == "job_done" {
				return
			}
		case <-j.done:
			// Drain anything already buffered, then close out. The job_done
			// event may race the done channel; both exits are clean.
			for {
				select {
				case ev := <-sub.C:
					if err := writeSSE(w, fl, ev); err != nil {
						return
					}
					if ev.Kind == "job_done" {
						return
					}
				default:
					s.endSSE(w, fl, id, sub)
					return
				}
			}
		case <-r.Context().Done():
			return
		case <-s.drainCh:
			return
		}
	}
}

// endSSE emits a terminal job_done frame carrying the job's final counters
// and this subscriber's drop count.
func (s *Server) endSSE(w http.ResponseWriter, fl http.Flusher, id string, sub *obs.Sub) {
	j, ok := s.jobs.get(id)
	if !ok {
		return
	}
	st := j.status(false)
	writeSSE(w, fl, obs.StreamEvent{Kind: "job_done", Job: id, Time: time.Now(), Data: map[string]any{
		"state": st.State, "completed": st.Completed, "failed": st.Failed,
		"total": st.Total, "dropped": sub.Dropped(),
	}})
}

// handleStream is GET /v1/stream: a live SSE firehose of every job's events.
// ?kind=a,b filters to the named event kinds and ?job=<id> to one job. The
// stream stays open until the client disconnects or the server drains;
// heartbeat comments every 15s keep idle connections from timing out.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	kinds := map[string]bool{}
	if q := r.URL.Query().Get("kind"); q != "" {
		for _, k := range splitCSV(q) {
			kinds[k] = true
		}
	}
	jobFilter := r.URL.Query().Get("job")
	fl, ok := startSSE(w)
	if !ok {
		return
	}
	sub := s.broker.Subscribe(s.cfg.EventBuffer, func(ev obs.StreamEvent) bool {
		if len(kinds) > 0 && !kinds[ev.Kind] {
			return false
		}
		return jobFilter == "" || ev.Job == jobFilter
	})
	defer sub.Close()

	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	for {
		select {
		case ev := <-sub.C:
			if err := writeSSE(w, fl, ev); err != nil {
				return
			}
		case <-heartbeat.C:
			if _, err := fmt.Fprintf(w, ": heartbeat dropped=%d\n\n", sub.Dropped()); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		case <-s.drainCh:
			return
		}
	}
}

// splitCSV splits a comma-separated query value, dropping empty elements.
func splitCSV(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

// handleTracez is GET /debug/tracez: without parameters, a JSON summary of
// the most recent and the slowest retained traces; with ?trace=<32-hex id>,
// that trace's full span tree as OTLP/JSON (importable by any OpenTelemetry
// viewer). ?n=<k> bounds the summary lists (default 20).
func (s *Server) handleTracez(w http.ResponseWriter, r *http.Request) {
	store := s.tracer.Store()
	if hexID := r.URL.Query().Get("trace"); hexID != "" {
		tid, err := span.ParseTraceID(hexID)
		if err != nil {
			writeError(w, errf(http.StatusBadRequest, CodeInvalidRequest,
				"bad trace id %q: %v", hexID, err))
			return
		}
		spans := store.Trace(tid)
		if len(spans) == 0 {
			writeError(w, errf(http.StatusNotFound, CodeNotFound,
				"trace %s not retained (store holds the most recent %d spans)", hexID, store.Len()))
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		span.WriteOTLP(w, "crnserved", spans)
		return
	}
	n := 20
	if q := r.URL.Query().Get("n"); q != "" {
		if _, err := fmt.Sscanf(q, "%d", &n); err != nil || n <= 0 {
			writeError(w, errf(http.StatusBadRequest, CodeInvalidRequest, "bad n %q", q))
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"spans_retained": store.Len(),
		"spans_total":    store.Total(),
		"recent":         store.Summaries(n, false),
		"slowest":        store.Summaries(n, true),
	})
}
